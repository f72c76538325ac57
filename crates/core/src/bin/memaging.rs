//! `memaging` — command-line front end for the co-optimization framework.
//!
//! ```text
//! memaging scenario quick --strategy all            # run a lifetime study
//! memaging scenario lenet --strategy stat --seed 3
//! memaging scenario quick --trace run.jsonl --metrics  # structured tracing
//! memaging scenario quick --trace-chrome run.trace.json  # Perfetto timeline
//! memaging serve quick --port 9464                  # scrapeable monitoring
//! memaging device                                   # single-cell aging trace
//! memaging info                                     # scenario inventory
//! ```
//!
//! Arguments are deliberately minimal (no CLI dependency): a subcommand,
//! then `--key value` pairs.

use std::sync::Arc;
use std::time::Duration;

use memaging::crossbar::CrossbarNetwork;
use memaging::device::{ArrheniusAging, DeviceModel, DeviceSpec, Memristor};
use memaging::fleet::{FleetConfig, FleetHandler, FleetService};
use memaging::lifetime::{compare_lifetimes, LifetimeResult, Strategy};
use memaging::obs::monitor::{MonitorServer, MonitorSink, MonitorState, RunStatus};
use memaging::obs::{
    ChromeTraceSink, FlightRecorder, JsonlSink, PrettySink, Recorder, SeriesStore, Sink,
    DEFAULT_FLIGHT_CAPACITY,
};
use memaging::serve::{InferRequest, ServeConfig};
use memaging::Scenario;

/// Parsed command-line request.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Scenario { name: String, opts: RunOpts },
    Serve { name: String, opts: RunOpts, flags: ServeFlags },
    Analyze { paths: Vec<String>, flags: AnalyzeFlags },
    Device,
    Info,
    Help,
}

/// Flags of the `analyze` subcommand.
#[derive(Debug, Clone, PartialEq)]
struct AnalyzeFlags {
    /// Print the machine-readable JSON document instead of the text report.
    json: bool,
    /// Relative tolerance of the two-run regression diff.
    tolerance: f64,
}

impl Default for AnalyzeFlags {
    fn default() -> Self {
        AnalyzeFlags { json: false, tolerance: 0.05 }
    }
}

/// Flags specific to the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
struct ServeFlags {
    port: u16,
    linger: bool,
    /// Deploy a trained model behind `POST /infer` instead of running the
    /// lifetime study.
    infer: bool,
    /// With `--infer`: drive this many self-generated requests through the
    /// service before reporting (0: serve until ctrl-c).
    requests: u64,
    /// With `--infer`: per-request deadline attached to HTTP submissions.
    deadline_ms: Option<u64>,
    /// With `--infer`: deploy this many independent replicas behind the
    /// wear-balancing fleet router (default 1).
    replicas: usize,
}

impl Default for ServeFlags {
    fn default() -> Self {
        ServeFlags {
            port: DEFAULT_PORT,
            linger: false,
            infer: false,
            requests: 0,
            deadline_ms: None,
            replicas: 1,
        }
    }
}

/// Options shared by `scenario` and `serve`.
#[derive(Debug, Clone, PartialEq)]
struct RunOpts {
    strategy: StrategyArg,
    seed: Option<u64>,
    sessions: Option<usize>,
    threads: Option<usize>,
    trace: Option<String>,
    trace_chrome: Option<String>,
    /// Flight-recorder dump path: a fixed-size ring of recent events,
    /// flushed to JSONL when a wear alert or live remap fires.
    flight: Option<String>,
    metrics: bool,
    /// Disable series retention entirely: no store is attached, and the
    /// serve tier's per-boundary series path is allocation-free.
    no_series: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            strategy: StrategyArg::All,
            seed: None,
            sessions: None,
            threads: None,
            trace: None,
            trace_chrome: None,
            flight: None,
            metrics: false,
            no_series: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StrategyArg {
    One(Strategy),
    All,
}

fn parse_strategy(s: &str) -> Result<StrategyArg, String> {
    match s.to_ascii_lowercase().as_str() {
        "tt" | "t+t" => Ok(StrategyArg::One(Strategy::TT)),
        "stt" | "st+t" => Ok(StrategyArg::One(Strategy::StT)),
        "stat" | "st+at" => Ok(StrategyArg::One(Strategy::StAt)),
        "all" => Ok(StrategyArg::All),
        other => Err(format!("unknown strategy `{other}` (expected tt|stt|stat|all)")),
    }
}

fn parse_scenario_name(it: &mut std::slice::Iter<'_, String>, sub: &str) -> Result<String, String> {
    let name = it.next().ok_or(format!("{sub} needs a name: quick|lenet|vgg"))?.to_string();
    if !["quick", "lenet", "vgg"].contains(&name.as_str()) {
        return Err(format!("unknown scenario `{name}` (expected quick|lenet|vgg)"));
    }
    Ok(name)
}

/// Parses the flags shared by `scenario` and `serve` (plus the
/// [`ServeFlags`] when `serve` is set).
fn parse_run_opts(
    it: &mut std::slice::Iter<'_, String>,
    serve: bool,
) -> Result<(RunOpts, ServeFlags), String> {
    let mut opts = RunOpts::default();
    if serve {
        // A monitored deployment serves one strategy; default to the
        // paper's proposed ST+AT.
        opts.strategy = StrategyArg::One(Strategy::StAt);
    }
    let mut flags = ServeFlags::default();
    while let Some(flag) = it.next() {
        // `--metrics`, `--linger` and `--infer` are bare switches; every
        // other known flag takes a value. Reject unknown flags before
        // demanding one so a typo reports "unknown flag", not "needs a
        // value".
        if flag == "--metrics" {
            opts.metrics = true;
            continue;
        }
        if serve && flag == "--linger" {
            flags.linger = true;
            continue;
        }
        if serve && flag == "--infer" {
            flags.infer = true;
            continue;
        }
        if flag == "--no-series" {
            opts.no_series = true;
            continue;
        }
        let known = [
            "--strategy",
            "--seed",
            "--sessions",
            "--threads",
            "--trace",
            "--trace-chrome",
            "--flight-recorder",
        ];
        let known = known.contains(&flag.as_str())
            || (serve
                && ["--port", "--requests", "--deadline-ms", "--replicas"]
                    .contains(&flag.as_str()));
        if !known {
            return Err(format!("unknown flag `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--strategy" => opts.strategy = parse_strategy(value)?,
            "--seed" => {
                opts.seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?);
            }
            "--sessions" => {
                opts.sessions = Some(value.parse().map_err(|_| format!("bad sessions `{value}`"))?);
            }
            "--threads" => {
                let n: usize = value.parse().map_err(|_| format!("bad threads `{value}`"))?;
                if n == 0 {
                    return Err("bad threads `0` (must be at least 1)".into());
                }
                opts.threads = Some(n);
            }
            "--trace" => opts.trace = Some(value.to_string()),
            "--trace-chrome" => opts.trace_chrome = Some(value.to_string()),
            "--flight-recorder" => opts.flight = Some(value.to_string()),
            "--port" => {
                flags.port = value.parse().map_err(|_| format!("bad port `{value}`"))?;
            }
            "--requests" => {
                flags.requests = value.parse().map_err(|_| format!("bad requests `{value}`"))?;
            }
            "--deadline-ms" => {
                flags.deadline_ms =
                    Some(value.parse().map_err(|_| format!("bad deadline-ms `{value}`"))?);
            }
            "--replicas" => {
                let n: usize = value.parse().map_err(|_| format!("bad replicas `{value}`"))?;
                if n == 0 {
                    return Err("bad replicas `0` (must be at least 1)".into());
                }
                flags.replicas = n;
            }
            _ => unreachable!("flag validated above"),
        }
    }
    if !flags.infer && (flags.requests != 0 || flags.deadline_ms.is_some()) {
        return Err("--requests / --deadline-ms require --infer".into());
    }
    if !flags.infer && flags.replicas != 1 {
        return Err("--replicas requires --infer".into());
    }
    Ok((opts, flags))
}

/// Parses `analyze <trace.jsonl> [baseline.jsonl] [flags]`.
fn parse_analyze(it: &mut std::slice::Iter<'_, String>) -> Result<Command, String> {
    let mut paths = Vec::new();
    let mut flags = AnalyzeFlags::default();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => flags.json = true,
            "--tolerance" => {
                let value = it.next().ok_or_else(|| format!("flag {arg} needs a value"))?;
                let t: f64 = value.parse().map_err(|_| format!("bad tolerance `{value}`"))?;
                if !t.is_finite() || t < 0.0 {
                    return Err(format!("bad tolerance `{t}` (must be >= 0)"));
                }
                flags.tolerance = t;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => paths.push(path.to_string()),
        }
    }
    match paths.len() {
        1 | 2 => Ok(Command::Analyze { paths, flags }),
        0 => Err("analyze needs a trace: memaging analyze <trace.jsonl> [baseline.jsonl]".into()),
        n => Err(format!("analyze takes one trace (report) or two (diff), got {n}")),
    }
}

/// Default `serve` port (the Prometheus unallocated-exporter range).
const DEFAULT_PORT: u16 = 9464;

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "device" => Ok(Command::Device),
        "info" => Ok(Command::Info),
        "scenario" => {
            let name = parse_scenario_name(&mut it, "scenario")?;
            let (opts, _) = parse_run_opts(&mut it, false)?;
            Ok(Command::Scenario { name, opts })
        }
        "serve" => {
            let name = parse_scenario_name(&mut it, "serve")?;
            let (opts, flags) = parse_run_opts(&mut it, true)?;
            Ok(Command::Serve { name, opts, flags })
        }
        "analyze" => parse_analyze(&mut it),
        other => Err(format!("unknown command `{other}`; try `memaging help`")),
    }
}

fn print_help() {
    println!(
        "memaging — aging-aware lifetime enhancement for memristor crossbars (DATE'19)\n\n\
         USAGE:\n\
         \u{20}   memaging scenario <quick|lenet|vgg> [--strategy tt|stt|stat|all]\n\
         \u{20}                                       [--seed N] [--sessions N] [--threads N]\n\
         \u{20}                                       [--trace out.jsonl]\n\
         \u{20}                                       [--trace-chrome out.json] [--metrics]\n\
         \u{20}                                       [--flight-recorder out.jsonl]\n\
         \u{20}                       --threads N sizes the worker pool (default:\n\
         \u{20}                       MEMAGING_THREADS, then available cores); results\n\
         \u{20}                       are bit-identical at any thread count\n\
         \u{20}                       --trace writes one JSON event per line (spans,\n\
         \u{20}                       counters, gauges); --trace-chrome writes a\n\
         \u{20}                       chrome://tracing / Perfetto timeline; --metrics\n\
         \u{20}                       prints a metrics summary after the run;\n\
         \u{20}                       --flight-recorder keeps a ring of recent events\n\
         \u{20}                       and dumps it to JSONL when an alert or live\n\
         \u{20}                       remap fires; re-maps program only cells whose\n\
         \u{20}                       target level changed\n\
         \u{20}   memaging serve <quick|lenet|vgg>    [--port N (default 9464)] [--linger]\n\
         \u{20}                                       [--strategy tt|stt|stat|all]\n\
         \u{20}                                       [--seed N] [--sessions N] [--threads N]\n\
         \u{20}                                       [--trace out.jsonl]\n\
         \u{20}                                       [--trace-chrome out.json] [--metrics]\n\
         \u{20}                                       [--flight-recorder out.jsonl]\n\
         \u{20}                       runs the scenario while serving GET /metrics\n\
         \u{20}                       (Prometheus text format), /health and /wear\n\
         \u{20}                       (per-tile wear JSON) on 127.0.0.1; --linger keeps\n\
         \u{20}                       serving after the run finishes\n\
         \u{20}   memaging serve <quick|lenet|vgg> --infer\n\
         \u{20}                                       [--requests N] [--deadline-ms N]\n\
         \u{20}                                       [--replicas N (default 1)]\n\
         \u{20}                       trains the strategy's model and deploys it behind\n\
         \u{20}                       the batched inference service: POST /infer,\n\
         \u{20}                       GET /serve/stats, /serve/latency (log-bucketed\n\
         \u{20}                       latency histograms) and /wear/attribution (the\n\
         \u{20}                       per-cause wear ledger), with admission control\n\
         \u{20}                       and aging-aware live remapping; --requests N\n\
         \u{20}                       drives a deterministic self-load then reports (0:\n\
         \u{20}                       serve until ctrl-c); --deadline-ms bounds HTTP\n\
         \u{20}                       requests; --no-series disables the\n\
         \u{20}                       deterministic wear time-series ring behind\n\
         \u{20}                       GET /timeseries and /forecast (the\n\
         \u{20}                       per-boundary series path is allocation-free);\n\
         \u{20}                       --replicas N shards the deployment into N\n\
         \u{20}                       independent crossbar replicas behind the\n\
         \u{20}                       deterministic wear-balancing fleet router\n\
         \u{20}                       (GET /fleet shows per-replica routed counts\n\
         \u{20}                       and wear snapshots)\n\
         \u{20}   memaging analyze <trace.jsonl> [baseline.jsonl]\n\
         \u{20}                                       [--json] [--tolerance F (default 0.05)]\n\
         \u{20}                       replays a JSONL trace (from --trace or a flight\n\
         \u{20}                       dump) offline: per-phase self/total time, the\n\
         \u{20}                       exact /serve/latency and /wear/attribution\n\
         \u{20}                       bodies, per-tile wear trajectories and lifetime\n\
         \u{20}                       forecast under the live tier's fixed settings\n\
         \u{20}                       (no flags to match); with two traces, diffs them\n\
         \u{20}                       into a regression table (exit 3 on regressions\n\
         \u{20}                       beyond --tolerance)\n\
         \u{20}   memaging device      single-cell aging trajectory (paper Fig. 4)\n\
         \u{20}   memaging info        list the calibrated scenarios\n\
         \u{20}   memaging help        this message\n"
    );
}

fn scenario_by_name(name: &str) -> Scenario {
    match name {
        "lenet" => Scenario::lenet(),
        "vgg" => Scenario::vgg(),
        _ => Scenario::quick(),
    }
}

fn configured_scenario(name: &str, opts: &RunOpts) -> Scenario {
    let mut scenario = scenario_by_name(name);
    if let Some(seed) = opts.seed {
        scenario.seed = seed;
        scenario.framework.lifetime.seed = seed;
    }
    if let Some(sessions) = opts.sessions {
        scenario.framework.lifetime.max_sessions = sessions;
    }
    scenario
}

/// Build the CLI recorder: a pretty sink for progress lines, a JSONL sink
/// when `--trace` was given, a Chrome trace-event sink when
/// `--trace-chrome` was given, a flight recorder when `--flight-recorder`
/// was given, plus any caller-provided sink (the monitor's wear-state
/// feed). A default-capacity [`SeriesStore`] is attached when `series` is
/// set, i.e. unless the user passed `--no-series` — with no store attached
/// the serve tier's per-boundary series path is allocation-free. Fails cleanly
/// on an unwritable trace path.
fn build_recorder(
    trace: Option<&str>,
    trace_chrome: Option<&str>,
    flight: Option<&str>,
    series: bool,
    extra: Option<Box<dyn Sink>>,
) -> Result<Recorder, String> {
    let mut sinks: Vec<Box<dyn Sink>> = vec![Box::new(PrettySink::new())];
    if let Some(path) = trace {
        let jsonl =
            JsonlSink::create(path).map_err(|e| format!("cannot open trace file `{path}`: {e}"))?;
        sinks.push(Box::new(jsonl));
    }
    if let Some(path) = trace_chrome {
        let chrome = ChromeTraceSink::create(path)
            .map_err(|e| format!("cannot open chrome trace file `{path}`: {e}"))?;
        sinks.push(Box::new(chrome));
    }
    if let Some(path) = flight {
        let recorder = FlightRecorder::create(path, DEFAULT_FLIGHT_CAPACITY)
            .map_err(|e| format!("cannot open flight-recorder file `{path}`: {e}"))?;
        sinks.push(Box::new(recorder));
    }
    if let Some(sink) = extra {
        sinks.push(sink);
    }
    if series {
        Ok(Recorder::with_series(sinks, Arc::new(SeriesStore::default())))
    } else {
        Ok(Recorder::new(sinks))
    }
}

/// Runs the selected strategies, logging per-strategy summaries and the
/// lifetime-ratio comparison through the recorder. Returns the lifetimes.
fn run_strategies(
    scenario: &Scenario,
    strategy: StrategyArg,
    recorder: &Recorder,
) -> Result<Vec<LifetimeResult>, String> {
    let strategies: Vec<Strategy> = match strategy {
        StrategyArg::One(s) => vec![s],
        StrategyArg::All => Strategy::ALL.to_vec(),
    };
    let mut results = Vec::new();
    for s in &strategies {
        let outcome = scenario.run_strategy(*s).map_err(|e| e.to_string())?;
        recorder.message(&format!(
            "{:>6}: software acc {:.1}%, {} sessions, {} applications (failed: {})",
            s.label(),
            100.0 * outcome.software_accuracy,
            outcome.lifetime.sessions.len(),
            outcome.lifetime.lifetime_applications,
            outcome.lifetime.failed,
        ));
        results.push(outcome.lifetime);
    }
    if results.len() > 1 {
        let cmp = compare_lifetimes(&results);
        let mut line = String::from("lifetime ratios:");
        for ((s, _), r) in cmp.entries.iter().zip(&cmp.ratios) {
            line.push_str(&format!("  {}={:.1}x", s.label(), r));
        }
        recorder.message(&line);
    }
    Ok(results)
}

/// Applies `--threads` to the process-wide worker pool. Without the flag
/// the `MEMAGING_THREADS` environment variable (then the machine's
/// available parallelism) decides.
fn apply_threads(opts: &RunOpts) {
    if let Some(n) = opts.threads {
        memaging::par::set_threads(n);
    }
}

fn run_scenario(name: &str, opts: &RunOpts) -> Result<(), Box<dyn std::error::Error>> {
    apply_threads(opts);
    let mut scenario = configured_scenario(name, opts);
    let recorder = build_recorder(
        opts.trace.as_deref(),
        opts.trace_chrome.as_deref(),
        opts.flight.as_deref(),
        !opts.no_series,
        None,
    )?;
    // The pipeline recorder is only attached when the user opted into
    // observability, so the default CLI output is unchanged.
    if opts.trace.is_some() || opts.trace_chrome.is_some() || opts.metrics {
        scenario.framework.recorder = recorder.clone();
    }
    recorder.message(&format!("scenario: {}", scenario.name));
    run_strategies(&scenario, opts.strategy, &recorder)?;
    if opts.metrics {
        if let Some(snapshot) = recorder.snapshot() {
            print!("{snapshot}");
        }
    }
    recorder.flush();
    Ok(())
}

/// `memaging serve --infer`: train the selected strategy's model, deploy it
/// behind the batched inference service (admission control + aging-aware
/// live remapping), and expose `POST /infer` / `GET /serve/stats` next to
/// the monitor's scrape endpoints.
fn run_infer(
    name: &str,
    opts: &RunOpts,
    flags: &ServeFlags,
) -> Result<(), Box<dyn std::error::Error>> {
    apply_threads(opts);
    let StrategyArg::One(strategy) = opts.strategy else {
        return Err("serve --infer deploys one strategy; pick --strategy tt|stt|stat".into());
    };
    let scenario = configured_scenario(name, opts);
    let (sink, wear) = MonitorSink::new();
    let recorder = build_recorder(
        opts.trace.as_deref(),
        opts.trace_chrome.as_deref(),
        opts.flight.as_deref(),
        !opts.no_series,
        Some(Box::new(sink)),
    )?;
    let mut framework = scenario.framework.clone();
    framework.recorder = recorder.clone();
    recorder.message(&format!("training {} ({}) for serving", scenario.name, strategy.label()));
    let data = scenario.dataset()?;
    let (train, calib) = scenario.train_calib_split(&data)?;
    let trained = framework.train_model(&train, strategy, scenario.seed)?;
    recorder.message(&format!("software accuracy {:.1}%", 100.0 * trained.software_accuracy));
    // Read-disturb calibration for the demo deployment: ~50k inference
    // reads cost 30% of the fresh resistance window, so a sustained load
    // visibly ages the crossbars (and eventually triggers a live remap)
    // without wearing them out within a short session.
    let width = framework.spec.r_max - framework.spec.r_min;
    let config = ServeConfig {
        stress_per_read: framework
            .aging
            .stress_for_degradation(framework.spec.temperature, 0.3 * width)
            / 50_000.0,
        ..ServeConfig::default()
    };

    // N ≥ 1 independent crossbar replicas behind the deterministic
    // wear-balancing fleet router.
    let networks = (0..flags.replicas)
        .map(|_| CrossbarNetwork::new(trained.network.clone(), framework.spec, framework.aging))
        .collect::<Result<Vec<_>, memaging::crossbar::CrossbarError>>()?;
    let fleet_config = FleetConfig::new(flags.replicas, config);
    let service =
        Arc::new(FleetService::deploy(networks, calib.clone(), fleet_config, recorder.clone())?);
    let handler = Arc::new(FleetHandler::new(
        Arc::clone(&service),
        flags.deadline_ms.map(Duration::from_millis),
    ));
    let server = MonitorServer::bind_with_handlers(
        ("127.0.0.1", flags.port),
        MonitorState::new(recorder.clone(), wear.clone()),
        vec![handler],
    )
    .map_err(|e| format!("cannot bind monitor port {}: {e}", flags.port))?;
    let addr = server.local_addr();
    println!(
        "serving {} replica(s) ({} router): POST http://{addr}/infer  GET /fleet  \
         /serve/stats  /serve/latency  /wear/attribution  /metrics  /health  /wear",
        flags.replicas,
        service.router().label(),
    );
    if flags.requests > 0 {
        // Deterministic self-driven smoke load from the calibration set.
        let mut served = 0u64;
        let mut failed = 0u64;
        for k in 0..flags.requests {
            let i = (k as usize) % calib.len();
            let input = calib.batch_matrix(i, i + 1).as_slice().to_vec();
            match service.infer(InferRequest::new(input)) {
                Ok(_) => served += 1,
                Err(_) => failed += 1,
            }
        }
        recorder.message(&format!(
            "self-load complete: {served} served, {failed} failed; fleet: {}",
            service.fleet_json()
        ));
    }
    if flags.requests == 0 || flags.linger {
        println!("inference service live (ctrl-c to exit)");
        loop {
            std::thread::park();
        }
    }
    server.shutdown();
    wear.set_status(RunStatus::Survived);
    if let Ok(service) = Arc::try_unwrap(service) {
        let report = service.shutdown();
        recorder.message(&format!(
            "fleet report: {} admitted, {} served, {} rejected, {} replicas, \
             wear imbalance (max/mean) {:.4}",
            report.admitted,
            report.served(),
            report.rejected_full,
            report.replicas.len(),
            report.wear_imbalance(),
        ));
        for r in &report.replicas {
            recorder.message(&format!(
                "  replica {}: {} routed, {} served, {} expired, {} boundaries, {} remaps, \
                 {:.3e}s stress attributed",
                r.replica,
                r.routed,
                r.served,
                r.expired,
                r.boundaries,
                r.remaps,
                r.attribution.total(),
            ));
        }
    }
    if opts.metrics {
        if let Some(snapshot) = recorder.snapshot() {
            print!("{snapshot}");
        }
    }
    recorder.flush();
    Ok(())
}

/// `memaging serve`: run the lifetime scenario on a worker thread while the
/// monitoring endpoint answers scrapes on the main thread's behalf.
fn run_serve(
    name: &str,
    opts: &RunOpts,
    flags: &ServeFlags,
) -> Result<(), Box<dyn std::error::Error>> {
    if flags.infer {
        return run_infer(name, opts, flags);
    }
    let (port, linger) = (flags.port, flags.linger);
    apply_threads(opts);
    let mut scenario = configured_scenario(name, opts);
    let (sink, wear) = MonitorSink::new();
    let recorder = build_recorder(
        opts.trace.as_deref(),
        opts.trace_chrome.as_deref(),
        opts.flight.as_deref(),
        !opts.no_series,
        Some(Box::new(sink)),
    )?;
    scenario.framework.recorder = recorder.clone();
    let server =
        MonitorServer::bind(("127.0.0.1", port), MonitorState::new(recorder.clone(), wear.clone()))
            .map_err(|e| format!("cannot bind monitor port {port}: {e}"))?;
    let addr = server.local_addr();
    println!("monitor: http://{addr}/metrics  /health  /wear");
    recorder.message(&format!("scenario: {}", scenario.name));
    let worker = {
        let recorder = recorder.clone();
        let strategy = opts.strategy;
        std::thread::spawn(move || -> Result<Vec<LifetimeResult>, String> {
            run_strategies(&scenario, strategy, &recorder)
        })
    };
    // The monitor server answers scrapes from its own thread while we wait.
    let outcome = worker.join().map_err(|_| "lifetime worker panicked")?;
    match &outcome {
        Ok(results) => {
            let any_failed = results.iter().any(|r| r.failed);
            wear.set_status(if any_failed { RunStatus::Failed } else { RunStatus::Survived });
        }
        Err(_) => wear.set_status(RunStatus::Error),
    }
    if opts.metrics {
        if let Some(snapshot) = recorder.snapshot() {
            print!("{snapshot}");
        }
    }
    recorder.flush();
    if linger && outcome.is_ok() {
        println!("run complete; monitor still serving on http://{addr} (ctrl-c to exit)");
        loop {
            std::thread::park();
        }
    }
    server.shutdown();
    outcome?;
    Ok(())
}

/// `memaging analyze`: replay one trace into a report, or two into a
/// regression diff. Returns the number of regressions beyond tolerance
/// (always 0 for a single-trace report).
fn run_analyze(paths: &[String], flags: &AnalyzeFlags) -> Result<usize, String> {
    let analyses: Vec<memaging::TraceAnalysis> =
        paths.iter().map(|path| memaging::analyze_file(path)).collect::<Result<_, _>>()?;
    if let [baseline, candidate] = &analyses[..] {
        let report = memaging::diff(baseline, candidate, flags.tolerance);
        if flags.json {
            println!("{}", report.to_json());
        } else {
            print!("{}", baseline.report());
            print!("{}", candidate.report());
            print!("{}", report.report());
        }
        Ok(report.regressions().len())
    } else {
        let analysis = &analyses[0];
        if flags.json {
            println!("{}", analysis.to_json());
        } else {
            print!("{}", analysis.report());
        }
        Ok(0)
    }
}

fn run_device() -> Result<(), Box<dyn std::error::Error>> {
    let spec = DeviceSpec { levels: 8, ..DeviceSpec::default() };
    let model = DeviceModel::new(spec, ArrheniusAging::default())?;
    let mut cell = Memristor::new(&model);
    println!("{:>10} {:>12} {:>12} {:>8}", "pulses", "R_min [kΩ]", "R_max [kΩ]", "levels");
    loop {
        let w = cell.aged_window(&model);
        println!(
            "{:>10} {:>12.2} {:>12.2} {:>8}",
            cell.pulse_count(),
            w.r_min / 1e3,
            w.r_max / 1e3,
            cell.usable_levels(&model)
        );
        if cell.is_worn_out(&model) {
            break;
        }
        for _ in 0..1000 {
            if cell.program_to_level(&model, 0).is_err()
                || cell.program_to_level(&model, 7).is_err()
            {
                break;
            }
        }
    }
    Ok(())
}

fn run_info() {
    for scenario in [Scenario::quick(), Scenario::lenet(), Scenario::vgg()] {
        println!("{}", scenario.name);
        println!("  model: {}", scenario.framework.model);
        println!(
            "  dataset: {} classes x {} samples, {}x{}x{}",
            scenario.data_spec.classes,
            scenario.data_spec.samples_per_class,
            scenario.data_spec.channels,
            scenario.data_spec.height,
            scenario.data_spec.width,
        );
        println!(
            "  lifetime: target {:.0}%, <= {} sessions, {} tuning iterations",
            100.0 * scenario.framework.lifetime.target_accuracy,
            scenario.framework.lifetime.max_sessions,
            scenario.framework.lifetime.max_tuning_iterations,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Help) => print_help(),
        Ok(Command::Info) => run_info(),
        Ok(Command::Device) => {
            if let Err(e) = run_device() {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Ok(Command::Scenario { name, opts }) => {
            if let Err(e) = run_scenario(&name, &opts) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Ok(Command::Serve { name, opts, flags }) => {
            if let Err(e) = run_serve(&name, &opts, &flags) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Ok(Command::Analyze { paths, flags }) => match run_analyze(&paths, &flags) {
            Ok(0) => {}
            Ok(_) => std::process::exit(3),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        Err(msg) => {
            eprintln!("error: {msg}");
            print_help();
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_help_and_empty() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn parses_scenario_with_flags() {
        let cmd =
            parse_args(&argv("scenario quick --strategy stat --seed 9 --sessions 5")).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                name: "quick".into(),
                opts: RunOpts {
                    strategy: StrategyArg::One(Strategy::StAt),
                    seed: Some(9),
                    sessions: Some(5),
                    ..RunOpts::default()
                },
            }
        );
    }

    #[test]
    fn parses_threads_flag() {
        let cmd = parse_args(&argv("scenario quick --threads 4")).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                name: "quick".into(),
                opts: RunOpts { threads: Some(4), ..RunOpts::default() },
            }
        );
        let err = parse_args(&argv("scenario quick --threads 0")).unwrap_err();
        assert!(err.contains("at least 1"), "got: {err}");
        assert!(parse_args(&argv("scenario quick --threads abc")).is_err());
        // `serve` accepts the flag too.
        assert!(parse_args(&argv("serve quick --threads 2")).is_ok());
    }

    #[test]
    fn parses_trace_and_metrics() {
        let cmd =
            parse_args(&argv("scenario quick --trace /tmp/run.jsonl --metrics --seed 3")).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                name: "quick".into(),
                opts: RunOpts {
                    seed: Some(3),
                    trace: Some("/tmp/run.jsonl".into()),
                    metrics: true,
                    ..RunOpts::default()
                },
            }
        );
    }

    #[test]
    fn parses_chrome_trace_flag() {
        let cmd = parse_args(&argv("scenario quick --trace-chrome /tmp/run.json")).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                name: "quick".into(),
                opts: RunOpts { trace_chrome: Some("/tmp/run.json".into()), ..RunOpts::default() },
            }
        );
    }

    #[test]
    fn parses_serve_with_defaults_and_flags() {
        let cmd = parse_args(&argv("serve quick")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                name: "quick".into(),
                opts: RunOpts { strategy: StrategyArg::One(Strategy::StAt), ..RunOpts::default() },
                flags: ServeFlags::default(),
            }
        );
        let cmd =
            parse_args(&argv("serve lenet --port 0 --linger --strategy tt --sessions 8")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                name: "lenet".into(),
                opts: RunOpts {
                    strategy: StrategyArg::One(Strategy::TT),
                    sessions: Some(8),
                    ..RunOpts::default()
                },
                flags: ServeFlags { port: 0, linger: true, ..ServeFlags::default() },
            }
        );
    }

    #[test]
    fn parses_infer_flags() {
        let cmd =
            parse_args(&argv("serve quick --infer --requests 128 --deadline-ms 250")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                name: "quick".into(),
                opts: RunOpts { strategy: StrategyArg::One(Strategy::StAt), ..RunOpts::default() },
                flags: ServeFlags {
                    infer: true,
                    requests: 128,
                    deadline_ms: Some(250),
                    ..ServeFlags::default()
                },
            }
        );
        // The load/deadline flags are meaningless without the service.
        let err = parse_args(&argv("serve quick --requests 5")).unwrap_err();
        assert!(err.contains("--infer"), "got: {err}");
        let err = parse_args(&argv("serve quick --deadline-ms 10")).unwrap_err();
        assert!(err.contains("--infer"), "got: {err}");
        // And they are serve-only.
        let err = parse_args(&argv("scenario quick --infer")).unwrap_err();
        assert!(err.contains("unknown flag"), "got: {err}");
        assert!(parse_args(&argv("serve quick --infer --requests abc")).is_err());
    }

    #[test]
    fn parses_flight_recorder_flag() {
        let cmd = parse_args(&argv("scenario quick --flight-recorder /tmp/flight.jsonl")).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                name: "quick".into(),
                opts: RunOpts { flight: Some("/tmp/flight.jsonl".into()), ..RunOpts::default() },
            }
        );
        // `serve` accepts it too (shared run option).
        assert!(parse_args(&argv("serve quick --flight-recorder /tmp/f.jsonl")).is_ok());
        assert!(parse_args(&argv("scenario quick --flight-recorder")).is_err());
    }

    #[test]
    fn parses_fleet_flags() {
        let cmd = parse_args(&argv("serve quick --infer --replicas 4")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                name: "quick".into(),
                opts: RunOpts { strategy: StrategyArg::One(Strategy::StAt), ..RunOpts::default() },
                flags: ServeFlags { infer: true, replicas: 4, ..ServeFlags::default() },
            }
        );
        // The fleet flag is serve --infer only.
        let err = parse_args(&argv("serve quick --replicas 2")).unwrap_err();
        assert!(err.contains("--infer"), "got: {err}");
        let err = parse_args(&argv("scenario quick --replicas 2")).unwrap_err();
        assert!(err.contains("unknown flag"), "got: {err}");
        // Bad values.
        let err = parse_args(&argv("serve quick --infer --replicas 0")).unwrap_err();
        assert!(err.contains("at least 1"), "got: {err}");
        assert!(parse_args(&argv("serve quick --infer --replicas abc")).is_err());
    }

    #[test]
    fn parses_series_flags() {
        // --no-series disables retention entirely.
        let cmd = parse_args(&argv("scenario quick --no-series")).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                name: "quick".into(),
                opts: RunOpts { no_series: true, ..RunOpts::default() },
            }
        );
    }

    #[test]
    fn parses_analyze_command() {
        let cmd = parse_args(&argv("analyze results/run.jsonl")).unwrap();
        assert_eq!(
            cmd,
            Command::Analyze {
                paths: vec!["results/run.jsonl".into()],
                flags: AnalyzeFlags::default(),
            }
        );
        let cmd = parse_args(&argv("analyze a.jsonl b.jsonl --json --tolerance 0.1")).unwrap();
        assert_eq!(
            cmd,
            Command::Analyze {
                paths: vec!["a.jsonl".into(), "b.jsonl".into()],
                flags: AnalyzeFlags { json: true, tolerance: 0.1 },
            }
        );
        assert!(parse_args(&argv("analyze")).is_err());
        let err = parse_args(&argv("analyze a.jsonl b.jsonl c.jsonl")).unwrap_err();
        assert!(err.contains("one trace"), "got: {err}");
        let err = parse_args(&argv("analyze a.jsonl --bogus")).unwrap_err();
        assert!(err.contains("unknown flag"), "got: {err}");
        assert!(parse_args(&argv("analyze a.jsonl --tolerance -1")).is_err());
    }

    #[test]
    fn analyze_reports_missing_traces_cleanly() {
        let err = run_analyze(&["/nonexistent-dir/run.jsonl".into()], &AnalyzeFlags::default())
            .unwrap_err();
        assert!(err.contains("cannot read trace"), "got: {err}");
    }

    #[test]
    fn serve_only_flags_are_rejected_by_scenario() {
        let err = parse_args(&argv("scenario quick --port 9000")).unwrap_err();
        assert!(err.contains("unknown flag"), "got: {err}");
        let err = parse_args(&argv("scenario quick --linger")).unwrap_err();
        assert!(err.contains("unknown flag"), "got: {err}");
    }

    #[test]
    fn trace_requires_a_value() {
        let err = parse_args(&argv("scenario quick --trace")).unwrap_err();
        assert!(err.contains("--trace"), "error should name the flag: {err}");
        assert!(err.contains("needs a value"), "got: {err}");
    }

    #[test]
    fn typoed_bare_flag_reports_unknown_not_missing_value() {
        let err = parse_args(&argv("scenario quick --metrcs")).unwrap_err();
        assert!(err.contains("unknown flag"), "got: {err}");
    }

    #[test]
    fn unwritable_trace_path_is_a_clean_error() {
        let err = build_recorder(Some("/nonexistent-dir/run.jsonl"), None, None, false, None)
            .unwrap_err();
        assert!(err.contains("cannot open trace file"), "got: {err}");
        let err =
            build_recorder(None, Some("/nonexistent-dir/run.json"), None, false, None).unwrap_err();
        assert!(err.contains("cannot open chrome trace file"), "got: {err}");
        let err = build_recorder(None, None, Some("/nonexistent-dir/flight.jsonl"), false, None)
            .unwrap_err();
        assert!(err.contains("cannot open flight-recorder file"), "got: {err}");
    }

    #[test]
    fn defaults_to_all_strategies() {
        let cmd = parse_args(&argv("scenario lenet")).unwrap();
        assert_eq!(cmd, Command::Scenario { name: "lenet".into(), opts: RunOpts::default() });
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("scenario nope")).is_err());
        assert!(parse_args(&argv("scenario quick --strategy bogus")).is_err());
        assert!(parse_args(&argv("scenario quick --seed abc")).is_err());
        assert!(parse_args(&argv("scenario quick --seed")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("scenario")).is_err());
        assert!(parse_args(&argv("serve nope")).is_err());
        assert!(parse_args(&argv("serve quick --port abc")).is_err());
    }

    #[test]
    fn parses_strategy_aliases() {
        assert_eq!(parse_strategy("T+T").unwrap(), StrategyArg::One(Strategy::TT));
        assert_eq!(parse_strategy("st+at").unwrap(), StrategyArg::One(Strategy::StAt));
        assert_eq!(parse_strategy("ALL").unwrap(), StrategyArg::All);
    }

    #[test]
    fn device_and_info_parse() {
        assert_eq!(parse_args(&argv("device")).unwrap(), Command::Device);
        assert_eq!(parse_args(&argv("info")).unwrap(), Command::Info);
    }
}
