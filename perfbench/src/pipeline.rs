//! The paper pipeline, run in every workload: a set-up's ST+AT-trained
//! LeNet-5 (scaled) deployed with aging-aware mapping and run through
//! maintenance sessions until the hardware can no longer be tuned back to
//! the target accuracy. It runs no serve or fleet code; its wall time is
//! `work_s`, and its result gives the paper's Table I pair.

use std::time::Instant;

use memaging::lifetime::{run_lifetime_with_recorder, LifetimeConfig, LifetimeResult, Strategy};
use memaging::obs::{Event, MemorySink, Recorder};

use crate::report::{median, Digest, Report};
use crate::setup::Prepared;

/// What one lifetime run leaves behind.
pub struct Run {
    work_s: f64,
    result: LifetimeResult,
    /// Per-layer sums folded from the run's events (traced runs only).
    spans: Option<LayerSums>,
}

/// Span and counter totals of one traced lifetime run.
#[derive(Debug, Clone, Copy, Default)]
struct LayerSums {
    map_s: f64,
    tune_s: f64,
    evaluate_s: f64,
    candidates: u64,
}

fn fold(events: &[Event]) -> LayerSums {
    let mut sums = LayerSums::default();
    for event in events {
        match event {
            Event::Span { name, duration_us, .. } => {
                let s = *duration_us as f64 / 1e6;
                match name.as_str() {
                    "map" => sums.map_s += s,
                    "tune" => sums.tune_s += s,
                    "evaluate" => sums.evaluate_s += s,
                    _ => {}
                }
            }
            Event::Counter { name, delta, .. } if name == "mapping.candidates_tried" => {
                sums.candidates += delta;
            }
            _ => {}
        }
    }
    sums
}

/// The scenario's lifetime configuration under ST+AT, as
/// `Framework::run_strategy` builds it.
fn config(prepared: &Prepared) -> LifetimeConfig {
    LifetimeConfig { strategy: Strategy::StAt, ..prepared.scenario.framework.lifetime }
}

/// Runs `run_lifetime` to failure on the set-up's model, timing the call.
///
/// # Errors
///
/// When the simulation fails.
pub fn run(prepared: &Prepared, traced: bool) -> Result<Run, String> {
    let framework = &prepared.scenario.framework;
    let (recorder, handle) = if traced {
        let (sink, handle) = MemorySink::new();
        (Recorder::new(vec![Box::new(sink)]), Some(handle))
    } else {
        (Recorder::disabled(), None)
    };
    let network = prepared.network.clone();
    let started = Instant::now();
    let result = run_lifetime_with_recorder(
        network,
        framework.spec,
        framework.aging,
        &prepared.calib,
        &config(prepared),
        &recorder,
    )
    .map_err(|e| format!("run_lifetime: {e}"))?;
    let work_s = started.elapsed().as_secs_f64();
    Ok(Run { work_s, result, spans: handle.map(|h| fold(&h.events())) })
}

/// The pipeline's metrics over a workload's lifetime runs.
pub struct Summary {
    /// Median wall time of the untraced runs, seconds.
    pub work_s: f64,
    /// Maintenance sessions survived.
    pub sessions: u64,
    /// Medians over the traced runs: `map`, `tune` and `evaluate` span
    /// totals in seconds, then candidates scored (traced workloads only).
    pub spans: Option<(f64, f64, f64, u64)>,
    /// Tuning pulses over all sessions.
    pub tune_pulses: u64,
    /// Sessions after deployment that re-mapped.
    pub remaps: u64,
}

/// Checks the runs' outputs, prints their digest, and summarizes them.
/// `prepared` is the set-up the first run used.
///
/// # Errors
///
/// When no untraced run completed, or a traced workload has no traced run.
pub fn summarize(
    runs: &[Run],
    prepared: &Prepared,
    traced: bool,
    report: &mut Report,
) -> Result<Summary, String> {
    let first = runs.first().ok_or("no lifetime run completed")?;
    let result = &first.result;
    let config = config(prepared);

    // Output checks: the Table I pair repeats exactly, the pipeline ran to
    // genuine end of life, and the trained model meets the target.
    report.check(runs.iter().all(|r| r.result == *result), || {
        "repeated lifetime runs disagree".into()
    });
    report.check(result.failed, || "the lifetime run hit max_sessions instead of failing".into());
    let per_session = config.applications_per_session;
    report.check(result.lifetime_applications % per_session == 0, || {
        "lifetime applications are not whole sessions".into()
    });
    let sessions = result.lifetime_applications / per_session;
    report.check(sessions >= 1, || "the deployment did not survive one session".into());
    report.check(prepared.software_acc >= config.target_accuracy, || {
        format!("software accuracy {} below the target", prepared.software_acc)
    });
    let mut d = Digest::default();
    d.bytes(format!("{result:?}").as_bytes());
    println!("digest lifetime {:016x}", d.value());

    let untraced: Vec<f64> = runs.iter().filter(|r| r.spans.is_none()).map(|r| r.work_s).collect();
    let sums: Vec<LayerSums> = runs.iter().filter_map(|r| r.spans).collect();
    let spans = if traced {
        let candidates = sums.first().ok_or("no traced lifetime run completed")?.candidates;
        report.check(sums.iter().all(|s| s.candidates == candidates), || {
            "traced lifetime runs scored different candidate counts".into()
        });
        let of_sums = |f: fn(&LayerSums) -> f64| {
            median(&sums.iter().map(f).collect::<Vec<_>>()).expect("traced runs")
        };
        Some((of_sums(|s| s.map_s), of_sums(|s| s.tune_s), of_sums(|s| s.evaluate_s), candidates))
    } else {
        None
    };
    Ok(Summary {
        work_s: median(&untraced).ok_or("no untraced lifetime run completed")?,
        sessions,
        spans,
        tune_pulses: result.sessions.iter().map(|s| s.tuning_pulses).sum(),
        remaps: result.sessions.iter().filter(|s| s.session > 0 && s.remapped).count() as u64,
    })
}
