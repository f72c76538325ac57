//! `exp_map` — incremental range-selection engine benchmark and oracle
//! check.
//!
//! Runs the instrumented quick scenario (ST+AT) four ways — f32 vs
//! quantized candidate evaluation, each single- and multi-threaded — and
//! asserts:
//!
//! * the two **f32** runs are bit-identical (the thread count must not
//!   change a single session record);
//! * the two **quantized** runs are bit-identical to each other (pure
//!   integer accumulation is associative, so the thread count cannot move
//!   a bit — the quantized trajectory may legitimately differ from f32
//!   when a near-tie candidate flips);
//! * the quantized forward path classifies a freshly trained network
//!   **identically to the f32 oracle** on every calibration sample whose
//!   logit margin exceeds the fixed-point error bound;
//! * quantized candidate evaluation beats f32 incremental by >= 2x at one
//!   thread (the `quant_speedup_candidate` extra in `BENCH_map.json`).
//!
//! The engine's bit-identity to the naive per-candidate re-simulation is
//! checked by the oracle proptest in `memaging-crossbar`'s unit tests, not
//! here. The mode/thread-suffixed phase profile is written to
//! `BENCH_map.json`:
//!
//! * `map.candidate_incr_1t` vs `map.candidate_quant_1t` is the headline
//!   speedup of the fixed-point kernels;
//! * `map.sweep_incr_1t` vs `map.sweep_incr_{N}t` is the sweep wall-clock
//!   scaling gate (enforced when the machine actually has >1 core).
//!
//! ```text
//! cargo run --release -p memaging-bench --bin exp_map
//! MEMAGING_THREADS=4 cargo run --release -p memaging-bench --bin exp_map
//! ```

use memaging::lifetime::Strategy;
use memaging::nn::{Mode, QuantScratch};
use memaging::obs::{Event, MemorySink, Recorder};
use memaging::{par, Scenario};
use memaging_bench::{banner, phase_profile_json_with, profile_phases, report, PhaseProfile};

/// One profiled run: the phase profile (span names suffixed with the mode
/// and thread count) plus the outcome used for the determinism assertion.
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
}

/// One leg: f32 (`incr`) or fixed-point (`quant`) candidate evaluation.
fn profiled_run(
    quantized: bool,
    threads: usize,
) -> Result<ProfiledRun, Box<dyn std::error::Error>> {
    par::set_threads(threads);
    let (sink, handle) = MemorySink::new();
    let mut scenario = Scenario::quick();
    scenario.framework.lifetime.quantized_eval = quantized;
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
    let mut profiles = profile_phases(&events);
    let label = if quantized { "quant" } else { "incr" };
    for p in &mut profiles {
        p.name = format!("{}_{label}_{threads}t", p.name);
    }
    Ok(ProfiledRun {
        profiles,
        lifetime: outcome.lifetime,
        accuracy_bits: outcome.software_accuracy.to_bits(),
        programmed_cells,
        skipped_cells,
    })
}

fn total_ms(profiles: &[PhaseProfile], name: &str) -> f64 {
    profiles.iter().find(|p| p.name == name).map(|p| p.total_us as f64 / 1e3).unwrap_or(0.0)
}

/// The f32-oracle gate: quantized inference must classify exactly like the
/// f32 forward pass on every calibration sample whose logit margin exceeds
/// the fixed-point error bound (near-ties are reported, not asserted — a
/// sub-quantization-step margin is noise under *any* arithmetic).
fn oracle_gate() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::quick();
    let data = scenario.dataset()?;
    let (train, calib) = scenario.train_calib_split(&data)?;
    let trained = scenario.framework.train_model(&train, Strategy::StAt, scenario.seed)?;
    let mut net = trained.network;
    let qnet = net.quantize_weights();
    let mut scratch = QuantScratch::new();

    let batch = calib.batch_matrix(0, calib.len());
    let n = calib.len();
    let f32_logits = net.forward(&batch, Mode::Eval)?;
    let f32_logits = f32_logits.as_slice();
    let q_logits = net.forward_quantized(&qnet, batch.as_slice(), n, &mut scratch)?.to_vec();
    let width = f32_logits.len() / n;

    // Per-sample error bound: the worst-case absolute logit deviation of
    // the quantized pipeline, taken as a fraction of the sample's dynamic
    // range. One quantization step per tensor per layer, amplified through
    // the depth — 2% of the peak |logit| comfortably covers the 9-bit
    // weight / 11-bit activation grid of this 2-layer MLP.
    let mut agree = 0usize;
    let mut gated = 0usize;
    for i in 0..n {
        let f = &f32_logits[i * width..(i + 1) * width];
        let q = &q_logits[i * width..(i + 1) * width];
        let argmax = |row: &[f32]| {
            let mut best = 0;
            for (j, &x) in row.iter().enumerate() {
                if x > row[best] {
                    best = j;
                }
            }
            best
        };
        let (fp, qp) = (argmax(f), argmax(q));
        if fp == qp {
            agree += 1;
        }
        let mut sorted: Vec<f32> = f.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite logits"));
        let margin = sorted[0] - sorted[1];
        let peak = f.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        if margin > 0.02 * peak {
            gated += 1;
            assert_eq!(
                fp, qp,
                "quantized prediction differs from the f32 oracle on sample {i} \
                 (margin {margin:.4} exceeds the fixed-point error bound)"
            );
        }
    }
    report(&format!(
        "  oracle gate: {agree}/{n} predictions identical to f32 \
         ({gated} margin-gated samples all asserted equal)"
    ));
    assert!(gated > 0, "oracle gate vacuous: no calibration sample cleared the margin");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let threads = par::num_threads().max(2);
    banner(&format!(
        "range-selection engine profile (quick scenario, ST+AT, f32 vs quantized, 1 vs {threads} threads)"
    ));

    oracle_gate()?;

    let legs = [
        profiled_run(false, 1)?,
        profiled_run(false, threads)?,
        profiled_run(true, 1)?,
        profiled_run(true, threads)?,
    ];
    par::set_threads(0);

    // The thread count may not change a single bit of either trajectory:
    // every parallel region preserves the serial reduction order, and
    // integer accumulation is associative. The quantized trajectory may
    // differ from f32 only when a near-tie candidate flips. Programming
    // volume — written *and* delta-skipped cells — is part of the
    // deterministic trajectory.
    for (pair, mode) in [(&legs[0..2], "f32"), (&legs[2..4], "quantized")] {
        assert_eq!(
            pair[0].lifetime, pair[1].lifetime,
            "{mode} lifetime result differs between thread counts"
        );
        assert_eq!(
            pair[0].accuracy_bits, pair[1].accuracy_bits,
            "{mode} software accuracy differs between thread counts"
        );
        assert_eq!(
            (pair[0].programmed_cells, pair[0].skipped_cells),
            (pair[1].programmed_cells, pair[1].skipped_cells),
            "programmed/skipped cell counts differ between {mode} thread counts"
        );
    }
    report(&format!(
        "  determinism: f32 1t/{threads}t bit-identical \
         ({} sessions, {} applications); quantized 1t/{threads}t bit-identical \
         ({} sessions, {} applications)",
        legs[0].lifetime.sessions.len(),
        legs[0].lifetime.lifetime_applications,
        legs[2].lifetime.sessions.len(),
        legs[2].lifetime.lifetime_applications,
    ));
    report(&format!(
        "  programmed cells: {} programmed / {} delta-skipped (f32 trajectory), \
         {} programmed / {} delta-skipped (quantized trajectory)",
        legs[0].programmed_cells,
        legs[0].skipped_cells,
        legs[2].programmed_cells,
        legs[2].skipped_cells,
    ));

    let programmed_cells = legs[0].programmed_cells;
    let skipped_cells = legs[0].skipped_cells;
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

    // Headline: f32 vs quantized candidate evaluation. The fixed-point
    // kernels must at least double candidate-evaluation throughput.
    let incr_1t = total_ms(&profiles, "map.candidate_incr_1t");
    let quant_1t = total_ms(&profiles, "map.candidate_quant_1t");
    let quant_speedup = if quant_1t > 0.0 { incr_1t / quant_1t } else { 0.0 };
    if incr_1t > 0.0 && quant_1t > 0.0 {
        report(&format!(
            "  map.candidate @1t: f32 incr {incr_1t:.1} ms -> quantized {quant_1t:.1} ms  \
             ({quant_speedup:.2}x)"
        ));
        assert!(
            quant_speedup >= 2.0,
            "quantized candidate evaluation must be >= 2x faster than f32 incremental \
             at 1 thread (f32 {incr_1t:.1} ms, quantized {quant_1t:.1} ms, \
             {quant_speedup:.2}x)"
        );
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
        &format!(
            "quick scenario, ST+AT strategy, f32 vs quantized range selection, 1 vs {threads} threads"
        ),
        &profiles,
        &[
            ("quant_speedup_candidate", quant_speedup),
            ("programmed_cells", programmed_cells as f64),
            ("skipped_cells", skipped_cells as f64),
        ],
    );
    let path = "BENCH_map.json";
    std::fs::write(path, &json)?;
    report(&format!("(range-selection phase profile saved to {path})"));
    Ok(())
}
