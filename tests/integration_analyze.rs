//! Offline-analyzer integration: `memaging analyze` must reproduce the
//! live observability documents **byte for byte** from the trace alone,
//! at any worker-thread count.
//!
//! The serving tier keys everything hardware-visible to the request
//! admission sequence, so its wear time-series, attribution ledger and
//! lifetime forecast are pure functions of the admitted-request multiset.
//! The tests here replay the same closed loop at 1, 2 and 8 worker
//! threads, feed each run's complete event stream through
//! [`memaging::analyze_lines`], and require:
//!
//! * analyzer latency document == the live `GET /serve/latency` body;
//! * analyzer attribution document == the live `GET /wear/attribution`
//!   body;
//! * analyzer series replay == the live `GET /timeseries` body;
//! * series + forecast bit-identical **across** thread counts.
//!
//! A second test golden-checks the committed flight-recorder dumps under
//! `results/`: every line must round-trip through the event parser
//! byte-identically, and the analyzer must digest the (ring-truncated)
//! dump without error.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use memaging::crossbar::CrossbarNetwork;
use memaging::dataset::Dataset;
use memaging::device::{ArrheniusAging, DeviceSpec};
use memaging::lifetime::Strategy;
use memaging::nn::Network;
use memaging::obs::{Event, MemorySink, Recorder, SeriesStore, DEFAULT_SERIES_CAPACITY};
use memaging::serve::{InferRequest, InferenceService, ServeConfig};
use memaging::{analyze_file, analyze_lines, par, Scenario, TraceAnalysis};

/// The thread override is process-global; serialize the tests that sweep
/// it (same discipline as `integration_serve`).
static THREAD_KNOB: Mutex<()> = Mutex::new(());

static TRAINED: OnceLock<(Network, Dataset, DeviceSpec, ArrheniusAging)> = OnceLock::new();

fn trained() -> &'static (Network, Dataset, DeviceSpec, ArrheniusAging) {
    TRAINED.get_or_init(|| {
        let mut scenario = Scenario::quick();
        scenario.framework.plan.pre_epochs = 4;
        scenario.framework.plan.skew_epochs = 3;
        let data = scenario.dataset().expect("dataset");
        let (train, calib) = scenario.train_calib_split(&data).expect("split");
        let model =
            scenario.framework.train_model(&train, Strategy::TT, scenario.seed).expect("training");
        (model.network, calib, scenario.framework.spec, scenario.framework.aging)
    })
}

fn sample(calib: &Dataset, k: usize) -> Vec<f32> {
    let i = k % calib.len();
    calib.batch_matrix(i, i + 1).as_slice().to_vec()
}

/// Canonical rendering of the analyzer's forecast, for byte-identity
/// assertions across thread counts.
fn forecast_fingerprint(analysis: &TraceAnalysis) -> String {
    let (tiles, worst) = analysis.forecast();
    let mut out = String::new();
    for (t, trend) in &tiles {
        out.push_str(&format!("tile {t}: {}\n", trend.to_json()));
    }
    match worst {
        Some((t, trend)) => out.push_str(&format!("worst {t}: {}\n", trend.to_json())),
        None => out.push_str("worst: none\n"),
    }
    out
}

/// The deterministic analyzer documents of one closed-loop run, plus the
/// per-leg live-vs-replay byte-identity already asserted.
struct RunDocs {
    series_json: String,
    attribution_json: String,
    forecast: String,
}

/// Drives a fixed admission sequence at `threads` worker threads with a
/// full recording stack (memory sink + series store), then replays the
/// trace offline and asserts the analyzer reproduces every live document.
fn closed_loop_analyzed(threads: usize, total: usize) -> RunDocs {
    par::set_threads(threads);
    let (network, calib, spec, aging) = trained();
    let config = ServeConfig {
        maintenance_interval: 16,
        stress_per_read: aging
            .stress_for_degradation(spec.temperature, 0.55 * (spec.r_max - spec.r_min))
            / (total as f64 / 2.0),
        remap_drift_fraction: 0.01,
        ..ServeConfig::default()
    };
    let (sink, handle) = MemorySink::new();
    let series = Arc::new(SeriesStore::with_capacity(DEFAULT_SERIES_CAPACITY));
    let recorder = Recorder::with_series(vec![Box::new(sink)], Arc::clone(&series));
    let hardware = CrossbarNetwork::new(network.clone(), *spec, *aging).expect("hardware");
    let service =
        InferenceService::deploy(hardware, calib.clone(), config, recorder).expect("deploy");
    for k in 0..total {
        service
            .infer(InferRequest::new(sample(calib, k)))
            .unwrap_or_else(|e| panic!("request {k} failed: {e}"));
    }
    let live_latency = service.stats().latency_json();
    let outcome = service.shutdown();
    assert_eq!(outcome.served, total as u64);
    assert!(outcome.remaps >= 1, "the calibrated load must trigger a live remap");

    let lines: Vec<String> = handle.events().iter().map(Event::to_json).collect();
    let analysis = analyze_lines(&format!("{threads}t"), lines.iter().map(String::as_str))
        .expect("the recorded trace must replay cleanly");
    assert_eq!(
        analysis.latency_json(),
        live_latency,
        "{threads}t: analyzer latency != live /serve/latency body"
    );
    assert_eq!(
        analysis.attribution_json(),
        outcome.attribution.to_json(),
        "{threads}t: analyzer attribution != live /wear/attribution body"
    );
    assert_eq!(
        analysis.series_json(),
        series.to_json(),
        "{threads}t: analyzer series != live /timeseries body"
    );
    par::set_threads(0);
    RunDocs {
        series_json: analysis.series_json(),
        attribution_json: analysis.attribution_json(),
        forecast: forecast_fingerprint(&analysis),
    }
}

#[test]
fn analyzer_reproduces_live_documents_bit_identically_at_1_2_8_threads() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    let total = 96;
    let reference = closed_loop_analyzed(1, total);
    assert!(
        reference.series_json.contains("serve.window_fraction_ppb{tile=0}"),
        "boundaries must feed the wear series: {}",
        reference.series_json
    );
    assert!(reference.forecast.starts_with("tile 0:"), "{}", reference.forecast);
    for threads in [2, 8] {
        let run = closed_loop_analyzed(threads, total);
        assert_eq!(
            run.series_json, reference.series_json,
            "/timeseries diverged at {threads} worker threads"
        );
        assert_eq!(
            run.attribution_json, reference.attribution_json,
            "/wear/attribution diverged at {threads} worker threads"
        );
        assert_eq!(
            run.forecast, reference.forecast,
            "per-tile forecast diverged at {threads} worker threads"
        );
    }
}

/// Committed flight-recorder dumps from `exp_serve`, relative to the
/// workspace root.
fn flight_dumps() -> Vec<PathBuf> {
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    ["1t", "2t", "2t_16c", "1t_q", "2t_q", "2t_16c_q"]
        .iter()
        .map(|leg| results.join(format!("flight_serve_{leg}.jsonl")))
        .collect()
}

#[test]
fn golden_flight_dumps_round_trip_and_analyze() {
    for path in flight_dumps() {
        let path = path.to_str().expect("utf-8 path");
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("committed flight dump {path} must exist: {e}"));
        // Schema contract: every committed line round-trips through the
        // strict event parser byte-identically.
        for (lineno, line) in text.lines().enumerate() {
            let event = Event::from_json(line)
                .unwrap_or_else(|e| panic!("{path}:{}: unparseable: {e}", lineno + 1));
            assert_eq!(
                event.to_json(),
                line,
                "{path}:{}: round-trip must be byte-identical",
                lineno + 1
            );
        }
        // The dump is a truncated ring (oldest events evicted), so the
        // analyzer cannot reproduce the full-run documents here — that
        // bit-for-bit check lives in `exp_serve` over the complete
        // stream — but it must digest the tail without error and still
        // see the wear instrumentation.
        let analysis = analyze_file(path).unwrap_or_else(|e| panic!("analyze {path}: {e}"));
        assert_eq!(analysis.events, text.lines().count(), "{path}: every line digested");
        assert!(analysis.span_count() > 0, "{path}: spans survive the ring");
        assert!(analysis.ledger.is_some(), "{path}: wear checkpoints survive the ring");
        assert!(!analysis.series.is_empty(), "{path}: series points survive the ring");
        let report = analysis.report();
        for heading in ["phases", "latency", "attribution", "forecast"] {
            assert!(report.contains(heading), "{path}: report lacks {heading}:\n{report}");
        }
        assert!(analysis.to_json().contains("\"forecast\":"), "{path}: json lacks forecast");
    }
}
