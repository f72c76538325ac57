//! The memaging benchmark: one command runs one named workload on the
//! paper's conv-heavy model (LeNet-5 scaled, ST+AT), checks its outputs,
//! and prints every metric by name and unit; the last line of standard
//! output is the JSON result.
//!
//! ```text
//! perfbench --workload <serve_1c|fleet_2c> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload serves a seeded request stream, and after each of its
//! three set-ups runs the paper pipeline (`run_lifetime` to failure) once,
//! so every workload reports the same metrics.
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with
//! tracing off. With `--trace 1` it measures the same workload untraced
//! and then traced, and prints the per-layer metrics: timings of its own
//! calls into each crate, plus the spans and counters the program emits,
//! folded from an in-memory trace. Exits 1 when an output check fails
//! and 2 when the workload cannot run.

mod host;
mod pipeline;
mod report;
mod serving;
mod setup;

use std::process::ExitCode;
use std::time::Instant;

use report::Report;

/// Runs `round` until the time it measures reaches `seconds` (at least
/// once), or until twice that much wall time has passed, so failing
/// rounds cannot loop forever.
fn timed_rounds<R>(
    seconds: f64,
    mut round: impl FnMut() -> Result<R, String>,
    measured: impl Fn(&R) -> f64,
    failures: &mut Vec<String>,
) -> Vec<R> {
    let started = Instant::now();
    let (mut spent, mut attempts) = (0.0, 0);
    let mut rounds = Vec::new();
    while attempts == 0 || (spent < seconds && started.elapsed().as_secs_f64() < 2.0 * seconds) {
        attempts += 1;
        match round() {
            Ok(r) => {
                spent += measured(&r);
                rounds.push(r);
            }
            Err(e) => failures.push(e),
        }
    }
    rounds
}

/// A run's set-ups, lifetime runs and timed rounds.
pub(crate) struct Phases<S, L, R> {
    /// The three set-ups, in order; the rounds used the first.
    pub setups: Vec<S>,
    /// One lifetime run per set-up, on that set-up's model. In a traced
    /// run the first is untraced and the other two traced.
    pub lifetimes: Vec<L>,
    /// Rounds measured with tracing off.
    pub untraced: Vec<R>,
    /// Rounds measured with tracing on (traced runs only).
    pub traced: Vec<R>,
    /// Errors of rounds that failed.
    pub failures: Vec<String>,
    /// Peak resident set size after one set-up and one round, in MB: the
    /// memory a deployment needs, before repeated rounds fragment the heap.
    pub peak_rss_mb: f64,
}

/// Runs three set-ups spread over the run — before, between and after the
/// two halves of the timed phase — so that their median samples the host
/// at three points in time, not in one stretch; each set-up is followed by
/// one lifetime run. The second half and the last two lifetime runs are
/// traced when `traced` is set.
pub(crate) fn run_phases<S, L, R>(
    seconds: f64,
    traced: bool,
    mut setup: impl FnMut() -> Result<S, String>,
    mut lifetime: impl FnMut(&S, bool) -> Result<L, String>,
    mut round: impl FnMut(&S, bool) -> Result<R, String>,
    measured: impl Fn(&R) -> f64,
) -> Result<Phases<S, L, R>, String> {
    let first = setup()?;
    let mut lifetimes = vec![lifetime(&first, false)?];
    let mut failures = Vec::new();
    let mut rss = None;
    let mut round = |traced: bool| {
        let r = round(&first, traced);
        if rss.is_none() && r.is_ok() {
            rss = Some(host::peak_rss_mb());
        }
        r
    };
    let mut untraced = timed_rounds(seconds / 2.0, || round(false), &measured, &mut failures);
    let second = setup()?;
    lifetimes.push(lifetime(&second, traced)?);
    let mut later = timed_rounds(seconds / 2.0, || round(traced), &measured, &mut failures);
    let third = setup()?;
    lifetimes.push(lifetime(&third, traced)?);
    let peak_rss_mb = rss.ok_or("no round completed")??;
    let traced_rounds = if traced {
        later
    } else {
        untraced.append(&mut later);
        Vec::new()
    };
    Ok(Phases {
        setups: vec![first, second, third],
        lifetimes,
        untraced,
        traced: traced_rounds,
        failures,
        peak_rss_mb,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must lie in 1..=60".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    match args.workload.as_str() {
        "serve_1c" => {
            serving::run(serving::Kind::Serve1c, args.seed, args.seconds, args.traced, report)
        }
        "fleet_2c" => {
            serving::run(serving::Kind::Fleet2c, args.seed, args.seconds, args.traced, report)
        }
        other => Err(format!("unknown workload {other} (serve_1c, fleet_2c)")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(2);
    }
    print!("{}", report.table());
    for failure in report.failures() {
        eprintln!("perfbench: check failed: {failure}");
    }
    match report.to_json() {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
