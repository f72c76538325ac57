//! `exp_map` — incremental range-selection engine benchmark and oracle
//! check.
//!
//! Runs the instrumented quick scenario (ST+AT) twice — single- and
//! multi-threaded — and asserts that the two runs are bit-identical (the
//! thread count must not change a single session record, nor the number of
//! programmed and delta-skipped cells, nor the tuner's evaluation counts).
//!
//! The engine's bit-identity to the naive per-candidate re-simulation is
//! checked by the oracle proptest in `memaging-crossbar`'s unit tests, not
//! here. The thread-suffixed phase profile is written to `BENCH_map.json`,
//! with the programmed and delta-skipped cell counts and the tuner's
//! evaluation and evaluated-sample counts as extras;
//! `map.sweep_incr_1t` vs `map.sweep_incr_{N}t` is the sweep wall-clock
//! scaling gate (enforced when the machine actually has >1 core).
//!
//! ```text
//! cargo run --release -p memaging-bench --bin exp_map
//! MEMAGING_THREADS=4 cargo run --release -p memaging-bench --bin exp_map
//! ```

use memaging::lifetime::Strategy;
use memaging::obs::{Event, MemorySink, Recorder};
use memaging::{par, Scenario};
use memaging_bench::{banner, phase_profile_json_with, profile_phases, report, PhaseProfile};

/// One profiled run: the phase profile (span names suffixed with `_incr`
/// and the thread count) plus the outcome used for the determinism
/// assertion.
struct ProfiledRun {
    profiles: Vec<PhaseProfile>,
    lifetime: memaging::lifetime::LifetimeResult,
    accuracy_bits: u64,
    /// Total crossbar cells actually programmed across the run
    /// (`mapping.cells_programmed` counter).
    programmed_cells: u64,
    /// Total cells the delta-programming engine left untouched
    /// (`mapping.cells_skipped` counter).
    skipped_cells: u64,
    /// Tuner accuracy passes (`tuner.evaluations` counter).
    tune_evaluations: u64,
    /// Samples those passes forwarded (`tuner.eval_samples` counter); the
    /// tuner's early exit is what keeps it below evaluations × samples.
    tune_eval_samples: u64,
}

/// One leg of the incremental engine at `threads` workers.
fn profiled_run(threads: usize) -> Result<ProfiledRun, Box<dyn std::error::Error>> {
    par::set_threads(threads);
    let (sink, handle) = MemorySink::new();
    let mut scenario = Scenario::quick();
    scenario.framework.recorder = Recorder::new(vec![Box::new(sink)]);
    let outcome = scenario.run_strategy(Strategy::StAt)?;
    let events = handle.events();
    let counter_total = |wanted: &str| -> u64 {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Counter { name, delta, .. } if name == wanted => Some(delta),
                _ => None,
            })
            .sum()
    };
    let programmed_cells = counter_total("mapping.cells_programmed");
    let skipped_cells = counter_total("mapping.cells_skipped");
    let tune_evaluations = counter_total("tuner.evaluations");
    let tune_eval_samples = counter_total("tuner.eval_samples");
    let mut profiles = profile_phases(&events);
    for p in &mut profiles {
        p.name = format!("{}_incr_{threads}t", p.name);
    }
    Ok(ProfiledRun {
        profiles,
        lifetime: outcome.lifetime,
        accuracy_bits: outcome.software_accuracy.to_bits(),
        programmed_cells,
        skipped_cells,
        tune_evaluations,
        tune_eval_samples,
    })
}

fn total_ms(profiles: &[PhaseProfile], name: &str) -> f64 {
    profiles.iter().find(|p| p.name == name).map(|p| p.total_us as f64 / 1e3).unwrap_or(0.0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let threads = par::num_threads().max(2);
    banner(&format!(
        "range-selection engine profile (quick scenario, ST+AT, 1 vs {threads} threads)"
    ));

    let legs = [profiled_run(1)?, profiled_run(threads)?];
    par::set_threads(0);

    // The thread count may not change a single bit of the trajectory:
    // every parallel region preserves the serial reduction order.
    // Programming volume — written *and* delta-skipped cells — and the
    // tuner's evaluation work are part of the deterministic trajectory.
    assert_eq!(legs[0].lifetime, legs[1].lifetime, "lifetime result differs between thread counts");
    assert_eq!(
        legs[0].accuracy_bits, legs[1].accuracy_bits,
        "software accuracy differs between thread counts"
    );
    assert_eq!(
        (legs[0].programmed_cells, legs[0].skipped_cells),
        (legs[1].programmed_cells, legs[1].skipped_cells),
        "programmed/skipped cell counts differ between thread counts"
    );
    assert_eq!(
        (legs[0].tune_evaluations, legs[0].tune_eval_samples),
        (legs[1].tune_evaluations, legs[1].tune_eval_samples),
        "tuner evaluation counts differ between thread counts"
    );
    report(&format!(
        "  determinism: 1t/{threads}t bit-identical ({} sessions, {} applications)",
        legs[0].lifetime.sessions.len(),
        legs[0].lifetime.lifetime_applications,
    ));
    report(&format!(
        "  programmed cells: {} programmed / {} delta-skipped",
        legs[0].programmed_cells, legs[0].skipped_cells,
    ));
    report(&format!(
        "  tuner: {} evaluations forwarding {} samples",
        legs[0].tune_evaluations, legs[0].tune_eval_samples,
    ));

    let programmed_cells = legs[0].programmed_cells;
    let skipped_cells = legs[0].skipped_cells;
    let (tune_evaluations, tune_eval_samples) =
        (legs[0].tune_evaluations, legs[0].tune_eval_samples);
    let mut profiles = Vec::new();
    for leg in legs {
        profiles.extend(leg.profiles);
    }
    for p in &profiles {
        report(&format!(
            "  {:<24} {:>5} spans  total {:>9.1} ms  max {:>8.1} ms",
            p.name,
            p.count,
            p.total_us as f64 / 1e3,
            p.max_us as f64 / 1e3,
        ));
    }

    // Sweep wall-clock scaling: only gate where parallel hardware exists —
    // on a single-core box the multi-thread leg measures pure overhead.
    let sweep_1t = total_ms(&profiles, "map.sweep_incr_1t");
    let sweep_nt = total_ms(&profiles, &format!("map.sweep_incr_{threads}t"));
    if sweep_1t > 0.0 && sweep_nt > 0.0 {
        report(&format!(
            "  map.sweep wall: {sweep_1t:.1} ms @1t -> {sweep_nt:.1} ms @{threads}t  ({:.2}x, {} cores)",
            sweep_1t / sweep_nt,
            par::available_parallelism(),
        ));
        if par::available_parallelism() >= 2 {
            assert!(
                sweep_nt < sweep_1t,
                "multi-threaded sweep must beat single-threaded wall-clock on \
                 multi-core hardware ({sweep_nt:.1} ms @{threads}t vs {sweep_1t:.1} ms @1t)"
            );
        }
    }

    let json = phase_profile_json_with(
        &format!("quick scenario, ST+AT strategy, range selection, 1 vs {threads} threads"),
        &profiles,
        &[
            ("programmed_cells", programmed_cells as f64),
            ("skipped_cells", skipped_cells as f64),
            ("tune_evaluations", tune_evaluations as f64),
            ("tune_eval_samples", tune_eval_samples as f64),
        ],
    );
    let path = "BENCH_map.json";
    std::fs::write(path, &json)?;
    report(&format!("(range-selection phase profile saved to {path})"));
    Ok(())
}
