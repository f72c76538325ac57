//! Integration test for the monitoring tier (`memaging_obs::monitor`): scrape
//! `/metrics` and `/wear` over real TCP while a lifetime scenario runs on a
//! worker thread, and check the wear-health forecaster raises its `warn`
//! alert *before* the session that exhausts the tuning budget — the paper's
//! failure criterion. The same run also exercises the Chrome trace-event
//! sink end to end.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use memaging::lifetime::Strategy;
use memaging::obs::monitor::{MonitorServer, MonitorSink, MonitorState};
use memaging::obs::{AlertSeverity, ChromeTraceSink, Event, MemorySink, Recorder};
use memaging::Scenario;

/// Minimal HTTP GET; returns (status, body).
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to monitor");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn monitor_serves_scrapes_during_a_run_and_warns_before_failure() {
    let dir = std::env::temp_dir().join("memaging_obs_monitor_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let chrome_path = dir.join("run.trace.json");

    // The recorder fans out to the monitor's wear state, an in-memory event
    // log (for the alert-ordering assertions) and a Chrome trace file.
    let (monitor_sink, wear) = MonitorSink::new();
    let (memory_sink, events) = MemorySink::new();
    let chrome_sink = ChromeTraceSink::create(&chrome_path).expect("create chrome trace");
    let recorder =
        Recorder::new(vec![Box::new(monitor_sink), Box::new(memory_sink), Box::new(chrome_sink)]);
    let server =
        MonitorServer::bind("127.0.0.1:0", MonitorState::new(recorder.clone(), wear.clone()))
            .expect("bind monitor server");
    let addr = server.local_addr();

    // The quick scenario under traditional mapping ages to failure within
    // its session cap — the terminal session cannot restore the target
    // accuracy within the tuning budget.
    let mut scenario = Scenario::quick();
    scenario.framework.recorder = recorder.clone();
    let worker = std::thread::spawn(move || {
        scenario.run_strategy(Strategy::TT).expect("quick scenario should run")
    });

    // Scrape while the worker runs. The endpoints must answer from the
    // first moment; richer content (tuner counters, per-layer wear) appears
    // once the deployment session starts.
    let mut scraped_live = false;
    let mut saw_live_tuner_metric = false;
    let mut saw_live_wear_layer = false;
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let finished = worker.is_finished();
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200, "metrics scrape failed mid-run");
        let (status, health) = get(addr, "/health");
        assert_eq!(status, 200, "health scrape failed mid-run");
        let (status, wear_json) = get(addr, "/wear");
        assert_eq!(status, 200, "wear scrape failed mid-run");
        if !finished {
            scraped_live = true;
            assert!(health.contains("\"status\":\"running\""), "got: {health}");
            saw_live_tuner_metric |= metrics.contains("tuner_iterations_total");
            saw_live_wear_layer |= wear_json.contains("\"layer\":0");
            if saw_live_tuner_metric && saw_live_wear_layer {
                break;
            }
        }
        if finished || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(scraped_live, "never scraped while the scenario was running");
    let outcome = worker.join().expect("worker panicked");
    assert!(outcome.lifetime.failed, "quick scenario should age to failure");

    // Final scrapes: the full wear picture in Prometheus and JSON form.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for family in [
        "# TYPE tuner_iterations_total counter",
        "# TYPE aging_r_max_ohms gauge",
        "aging_r_max_ohms{layer=\"0\"}",
        "health_window_fraction{layer=\"0\"}",
        "# TYPE alerts_warn_total counter",
    ] {
        assert!(metrics.contains(family), "missing `{family}` in exposition:\n{metrics}");
    }
    let (status, wear_json) = get(addr, "/wear");
    assert_eq!(status, 200);
    for fragment in
        ["\"layer\":0", "\"r_max_ohms\":", "\"window_fraction\":", "\"severity\":\"warn\""]
    {
        assert!(wear_json.contains(fragment), "missing `{fragment}` in /wear:\n{wear_json}");
    }

    // The leading-signal guarantee: the health subsystem's first warn alert
    // fires strictly before the failing maintenance session.
    let failing_session = outcome.lifetime.sessions.last().expect("sessions recorded").session;
    let first_warn_session = events
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Alert { severity: AlertSeverity::Warn, session, .. } => *session,
            _ => None,
        })
        .min()
        .expect("the wear-health monitor should raise a warn alert");
    assert!(
        (first_warn_session as usize) < failing_session,
        "warn alert (session {first_warn_session}) should precede the failing \
         session ({failing_session})"
    );

    // Tear down: dropping the last recorder clone closes the Chrome trace,
    // which must be a well-formed JSON array of trace-event records.
    server.shutdown();
    drop(recorder);
    let trace = std::fs::read_to_string(&chrome_path).expect("read chrome trace");
    let trace = trace.trim();
    assert!(trace.starts_with('[') && trace.ends_with(']'), "not a JSON array");
    assert!(trace.contains("\"ph\":\"X\""), "no complete-span records in trace");
    assert!(trace.contains("\"name\":\"tune\""), "tune span missing from trace");
    std::fs::remove_file(&chrome_path).ok();
}
