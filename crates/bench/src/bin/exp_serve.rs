//! `exp_serve` — serving-tier benchmark: closed-loop load against the
//! batched inference service with aging-aware live remapping.
//!
//! Three legs over the same deployment recipe (quick-scenario MLP,
//! aging-aware mapping, read-disturb wear calibrated so the warn
//! threshold crosses mid-run):
//!
//! * single submitter @ 1 worker thread — the determinism reference;
//! * single submitter @ N worker threads — must be **bit-identical** to
//!   the reference (per-request outputs *and* final wear state): worker
//!   count is a pure performance knob;
//! * 16 concurrent clients @ N worker threads — exercises real batching;
//!   admission interleaving is racy, but wear accrues from the
//!   admitted-request *count*, so the final hardware state must still be
//!   bit-identical to the reference.
//!
//! Remaps program only the cells whose level changed: the reference's
//! steady-state remaps must skip the majority of cells (the exact
//! `remap_cells_skipped_frac` extra). Every leg must observe at least one
//! aging-triggered live remap and zero queue-full rejections, its
//! wear-attribution ledger must account for the final hardware stress
//! tile-for-tile bit-identically, and the latency-histogram merge must be
//! shard/thread-invariant (asserted by replaying the observed latency
//! multiset at 1/2/8 shards). Phase
//! profiles (boundary / remap / batch / forward spans, suffixed per leg),
//! throughput / latency summaries, and the attribution totals (as
//! `extras` for the `bench-diff` gate) go to `BENCH_serve.json`; each
//! leg's flight-recorder dump lands in `results/flight_serve_<leg>.jsonl`.
//!
//! ```text
//! cargo run --release -p memaging-bench --bin exp_serve
//! MEMAGING_THREADS=4 cargo run --release -p memaging-bench --bin exp_serve
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use memaging::crossbar::CrossbarNetwork;
use memaging::dataset::Dataset;
use memaging::device::{ArrheniusAging, DeviceSpec};
use memaging::lifetime::{Strategy, WearLedger};
use memaging::nn::Network;
use memaging::obs::{
    Event, FlightRecorder, LatencySnapshot, MemorySink, Recorder, SeriesStore, ShardedHistogram,
    DEFAULT_FLIGHT_CAPACITY, DEFAULT_SERIES_CAPACITY,
};
use memaging::serve::{InferRequest, InferenceService, ServeConfig, ServeReport};
use memaging::{analyze_lines, par, Scenario, TraceAnalysis};
use memaging_bench::{
    banner, phase_profile_json_with, profile_phases, report, results_dir, PhaseProfile,
};

/// Requests per leg: enough boundaries that the warn threshold crosses
/// mid-run and several steady-state remaps follow.
const TOTAL: usize = 1536;
/// Maintenance boundary every this many admitted requests.
const INTERVAL: u64 = 32;
/// Concurrent submitters on the batching legs — matches the configured
/// `max_batch` so the dispatcher can fill whole batches under load.
const CLIENTS: usize = 16;

/// Everything one leg must reproduce bit-for-bit.
#[derive(Debug, PartialEq)]
struct Digest {
    outputs: Vec<(u64, u64, usize, Vec<u32>)>,
    tiles: Vec<(u64, u64, u64, usize)>,
    boundaries: u64,
    remaps: u64,
    /// The wear-attribution ledger (f64 equality is bit equality here:
    /// stress values are finite and non-negative).
    ledger: WearLedger,
}

struct Leg {
    profiles: Vec<PhaseProfile>,
    digest: Digest,
    elapsed_s: f64,
    latency_us: Vec<u64>,
    served: u64,
    /// Merged end-to-end latency snapshot taken just before shutdown.
    e2e: LatencySnapshot,
    /// The live `SeriesStore` dump (`GET /timeseries` body) at shutdown.
    series_json: String,
    /// The offline replay of this leg's full event stream.
    analysis: TraceAnalysis,
    /// Cells actually pulse-programmed across the *steady-state* remaps
    /// (every mapping after the deploy).
    steady_programmed: u64,
    /// Cells programming skipped across the steady-state remaps.
    steady_skipped: u64,
}

/// Renders the analyzer's per-tile forecast as a canonical string, for
/// cross-leg byte-identity assertions.
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

fn trained() -> (Network, Dataset, DeviceSpec, ArrheniusAging) {
    let mut scenario = Scenario::quick();
    scenario.framework.plan.pre_epochs = 6;
    scenario.framework.plan.skew_epochs = 4;
    let data = scenario.dataset().expect("dataset");
    let (train, calib) = scenario.train_calib_split(&data).expect("split");
    let model =
        scenario.framework.train_model(&train, Strategy::TT, scenario.seed).expect("training");
    (model.network, calib, scenario.framework.spec, scenario.framework.aging)
}

fn serve_config(spec: &DeviceSpec, aging: &ArrheniusAging) -> ServeConfig {
    // Calibrated so the shared warn threshold (half the fresh window)
    // crosses near the midpoint of the run: the bench must observe the
    // full live-remap path, not just steady-state forwards.
    let width = spec.r_max - spec.r_min;
    ServeConfig {
        maintenance_interval: INTERVAL,
        stress_per_read: aging.stress_for_degradation(spec.temperature, 0.55 * width)
            / (TOTAL as f64 / 2.0),
        remap_drift_fraction: 0.01,
        // The single-submitter legs otherwise pay the full linger per
        // request (batch size is 1 by construction); the concurrent legs
        // fill whole batches long before this expires either way.
        max_linger: Duration::from_micros(250),
        max_batch: CLIENTS,
        ..ServeConfig::default()
    }
}

fn sample(calib: &Dataset, k: usize) -> Vec<f32> {
    let i = k % calib.len();
    calib.batch_matrix(i, i + 1).as_slice().to_vec()
}

fn wear_tiles(r: &ServeReport) -> Vec<(u64, u64, u64, usize)> {
    r.network
        .wear_snapshots()
        .iter()
        .map(|t| (t.mean_r_max.to_bits(), t.mean_r_min.to_bits(), t.total_pulses, t.worn_out))
        .collect()
}

/// One leg: deploy fresh hardware, push the load, shut down, digest.
fn run_leg(
    label: &str,
    threads: usize,
    clients: usize,
    seed_model: &(Network, Dataset, DeviceSpec, ArrheniusAging),
) -> Leg {
    par::set_threads(threads);
    let (network, calib, spec, aging) = seed_model;
    let (sink, handle) = MemorySink::new();
    // Flight recorder per leg: the live remap every leg must trigger also
    // fires a ring dump, so CI always has a post-mortem artifact.
    let flight_dir = results_dir();
    std::fs::create_dir_all(&flight_dir).expect("results dir");
    let flight_path = flight_dir.join(format!("flight_serve_{label}.jsonl"));
    let flight =
        FlightRecorder::create(&flight_path, DEFAULT_FLIGHT_CAPACITY).expect("flight recorder");
    // The deterministic wear time-series rides on the recorder: every
    // maintenance boundary folds per-tile wear into the store, keyed by
    // admitted-request sequence.
    let series = Arc::new(SeriesStore::with_capacity(DEFAULT_SERIES_CAPACITY));
    let recorder =
        Recorder::with_series(vec![Box::new(sink), Box::new(flight)], Arc::clone(&series));
    let hardware = CrossbarNetwork::new(network.clone(), *spec, *aging).expect("hardware");
    let service = Arc::new(
        InferenceService::deploy(hardware, calib.clone(), serve_config(spec, aging), recorder)
            .expect("deploy"),
    );

    let started = Instant::now();
    let mut outputs: Vec<(u64, u64, usize, Vec<u32>)> = Vec::with_capacity(TOTAL);
    let mut latency_us: Vec<u64> = Vec::with_capacity(TOTAL);
    if clients <= 1 {
        // Single submitter: the admission sequence IS the submission
        // sequence, so per-request outputs are comparable across legs.
        for k in 0..TOTAL {
            let response = service
                .infer(InferRequest::new(sample(calib, k)))
                .unwrap_or_else(|e| panic!("request {k} failed: {e}"));
            latency_us.push(response.queue_us + response.service_us);
            outputs.push((
                response.seq,
                response.generation,
                response.prediction,
                response.output.iter().map(|v| v.to_bits()).collect(),
            ));
        }
    } else {
        // Concurrent clients share one input so racy admission order
        // cannot change any request's result; only throughput and the
        // (count-keyed) wear trajectory are exercised.
        let input = sample(calib, 0);
        let per_client = TOTAL / clients;
        let collected = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let input = input.clone();
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(per_client);
                        for _ in 0..per_client {
                            let response = service
                                .infer(InferRequest::new(input.clone()))
                                .expect("request failed");
                            lat.push(response.queue_us + response.service_us);
                        }
                        lat
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client panicked")).collect::<Vec<_>>()
        });
        latency_us = collected;
    }
    let elapsed_s = started.elapsed().as_secs_f64();

    // All requests are answered (infer() blocks), so every histogram stage
    // is fully populated before shutdown.
    let e2e = service.stats().latency().e2e.snapshot();
    assert_eq!(e2e.count, TOTAL as u64, "{label}: every request lands in the e2e histogram");
    // The exact bytes `GET /serve/latency` would serve right now — the
    // offline analyzer must reproduce them from the trace alone.
    let live_latency = service.stats().latency_json();

    let outcome = Arc::try_unwrap(service).ok().expect("sole owner").shutdown();
    assert_eq!(outcome.rejected_full, 0, "{label}: closed-loop load must never be rejected");
    assert_eq!(outcome.expired, 0, "{label}: no deadlines in play");
    assert_eq!(outcome.served, TOTAL as u64, "{label}: every request served");
    assert!(
        outcome.remaps >= 1,
        "{label}: the calibrated wear must trigger at least one live remap"
    );
    assert!(
        std::fs::metadata(&flight_path).map(|m| m.len()).unwrap_or(0) > 0,
        "{label}: the remap trigger must have dumped the flight ring to {}",
        flight_path.display()
    );

    // The attribution contract: every unit of final tile stress is charged
    // to exactly one cause — per tile, bit for bit.
    let ledger = outcome.attribution.clone();
    let tile_stress = outcome.network.tile_stress();
    assert_eq!(ledger.tiles(), tile_stress.len(), "{label}: ledger covers every tile");
    for (t, (attributed, stress)) in ledger.attributed().iter().zip(&tile_stress).enumerate() {
        assert_eq!(
            attributed.to_bits(),
            stress.to_bits(),
            "{label}: tile {t} attribution ({attributed:e}) != accrued stress ({stress:e})"
        );
    }
    let causes = ledger.cause_totals();
    let cause_sum: f64 = causes.iter().map(|&(_, _, stress)| stress).sum();
    assert!(
        (cause_sum - ledger.total()).abs() <= 1e-9 * ledger.total().max(f64::MIN_POSITIVE),
        "{label}: per-cause totals ({cause_sum:e}) must sum to the ledger total ({:e})",
        ledger.total()
    );
    let events = |kind: &str| causes.iter().find(|(k, ..)| *k == kind).map_or(0, |&(_, n, _)| n);
    assert!(events("inference_read") >= 1, "{label}: read-disturb wear must be attributed");
    assert!(
        events("remap") >= 2,
        "{label}: the deploy mapping and at least one live remap must be attributed"
    );

    // The offline-analyzer contract: replaying the complete event stream
    // through `memaging analyze` reproduces the live latency, attribution
    // and time-series documents **byte for byte**. The flight dump on disk
    // is a truncated ring; the in-memory sink holds the full stream.
    let events = handle.events();
    let lines: Vec<String> = events.iter().map(|e| e.to_json()).collect();
    let analysis = analyze_lines(label, lines.iter().map(String::as_str))
        .unwrap_or_else(|e| panic!("{label}: trace replay failed: {e}"));
    assert_eq!(
        analysis.latency_json(),
        live_latency,
        "{label}: analyzer latency document != live /serve/latency body"
    );
    assert_eq!(
        analysis.attribution_json(),
        outcome.attribution.to_json(),
        "{label}: analyzer attribution document != live /wear/attribution body"
    );
    assert_eq!(
        analysis.series_json(),
        series.to_json(),
        "{label}: analyzer series replay != live /timeseries body"
    );

    // Per-mapping programmed/skipped cell tallies, in event order: the
    // first `mapping.*` counter pair is the deploy; everything after it is
    // a steady-state live remap (the population the cell-skip gate
    // measures).
    let per_map = |wanted: &str| -> Vec<u64> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Counter { name, delta, .. } if name == wanted => Some(*delta),
                _ => None,
            })
            .collect()
    };
    let steady_programmed: u64 = per_map("mapping.cells_programmed").iter().skip(1).sum();
    let steady_skipped: u64 = per_map("mapping.cells_skipped").iter().skip(1).sum();

    let mut profiles = profile_phases(&events);
    for p in &mut profiles {
        p.name = format!("{}_{label}", p.name);
    }
    Leg {
        profiles,
        digest: Digest {
            outputs,
            tiles: wear_tiles(&outcome),
            boundaries: outcome.boundaries,
            remaps: outcome.remaps,
            ledger,
        },
        elapsed_s,
        latency_us,
        served: outcome.served,
        e2e,
        series_json: series.to_json(),
        analysis,
        steady_programmed,
        steady_skipped,
    }
}

/// Replays the latency multiset `values` into a fresh histogram with
/// `threads` recording threads over `shards` shards (thread `t` records
/// every `threads`-th value into its own shard).
fn replay(values: &[u64], threads: usize, shards: usize) -> LatencySnapshot {
    let hist = ShardedHistogram::new(shards, 40);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let hist = &hist;
            scope.spawn(move || {
                for (i, &v) in values.iter().enumerate() {
                    if i % threads == t {
                        hist.record(t, v);
                    }
                }
            });
        }
    });
    hist.snapshot()
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn summarize(leg: &Leg, label: &str) {
    let mut sorted = leg.latency_us.clone();
    sorted.sort_unstable();
    report(&format!(
        "  {label:<14} {:>7.0} req/s   p50 {:>6} us  p99 {:>6} us  max {:>6} us  \
         ({} boundaries, {} remaps)",
        leg.served as f64 / leg.elapsed_s,
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.99),
        sorted.last().copied().unwrap_or(0),
        leg.digest.boundaries,
        leg.digest.remaps,
    ));
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let threads = par::num_threads().max(2);
    banner(&format!(
        "inference service under load (quick MLP, {TOTAL} requests, boundary every {INTERVAL}, \
         1 vs {threads} worker threads)"
    ));
    let seed_model = trained();

    let reference = run_leg("1t", 1, 1, &seed_model);
    let scaled = run_leg(&format!("{threads}t"), threads, 1, &seed_model);
    let batched = run_leg(&format!("{threads}t_{CLIENTS}c"), threads, CLIENTS, &seed_model);
    par::set_threads(0);

    // The remap saving, as an exact counter: steady-state remaps must
    // leave the majority of cells untouched (programming skips every cell
    // already on its target level).
    let steady_total = reference.steady_programmed + reference.steady_skipped;
    assert!(steady_total > 0, "the load must drive at least one steady-state remap");
    let skipped_frac = reference.steady_skipped as f64 / steady_total as f64;
    assert!(
        skipped_frac > 0.5,
        "remapping must skip the majority of cells across steady-state remaps \
         (programmed {}, skipped {})",
        reference.steady_programmed,
        reference.steady_skipped,
    );

    // The headline guarantee: worker count is a pure performance knob.
    assert_eq!(
        scaled.digest, reference.digest,
        "per-request outputs or final wear diverged between 1 and {threads} worker threads"
    );
    // Concurrent admission interleaving may reorder requests, but wear is
    // keyed to the admitted-request count: the hardware — and therefore
    // the attribution ledger — must land in the exact same state.
    assert_eq!(
        (&batched.digest.tiles, batched.digest.boundaries, batched.digest.remaps),
        (&reference.digest.tiles, reference.digest.boundaries, reference.digest.remaps),
        "concurrent-client leg drifted from the reference wear state"
    );
    assert_eq!(
        batched.digest.ledger, reference.digest.ledger,
        "concurrent-client leg's attribution ledger drifted from the reference"
    );
    // The wear time-series and the per-tile lifetime forecast derived from
    // it are keyed by admitted-request sequence, never wall clock — so the
    // dump must be byte-identical across worker counts and client counts.
    for (leg, what) in [(&scaled, "worker-scaled"), (&batched, "concurrent-client")] {
        assert_eq!(
            leg.series_json, reference.series_json,
            "{what} leg's /timeseries dump diverged from the reference"
        );
        assert_eq!(
            forecast_fingerprint(&leg.analysis),
            forecast_fingerprint(&reference.analysis),
            "{what} leg's per-tile forecast diverged from the reference"
        );
    }
    let (forecast_tiles, worst) = reference.analysis.forecast();
    assert!(!forecast_tiles.is_empty(), "the boundary cadence must yield a per-tile forecast");
    let (worst_tile, worst_trend) = worst.expect("a worst tile exists when any tile has a trend");

    // Histogram determinism: the merged snapshot of the observed latency
    // multiset must not depend on recording thread or shard count.
    let single = replay(&reference.latency_us, 1, 1);
    for (threads, shards) in [(2, 2), (8, 8), (8, 3)] {
        assert_eq!(
            replay(&reference.latency_us, threads, shards),
            single,
            "histogram snapshot diverged at {threads} threads / {shards} shards"
        );
    }
    assert_eq!(single.count, TOTAL as u64);
    report(&format!(
        "  histograms: merge bit-identical at 1/2/8 recording threads \
         ({} observations, e2e p99 {} us)",
        single.count,
        reference.e2e.quantile(0.99),
    ));
    report(&format!(
        "  determinism: 1t vs {threads}t bit-identical ({} requests, {} generations observed, \
         {} remaps); concurrent leg wear-identical",
        TOTAL,
        reference.digest.outputs.iter().map(|o| o.1).max().unwrap_or(0) + 1,
        reference.digest.remaps,
    ));
    summarize(&reference, "1t x 1 client");
    summarize(&scaled, &format!("{threads}t x 1 client"));
    summarize(&batched, &format!("{threads}t x {CLIENTS} clients"));

    let mut profiles = Vec::new();
    for leg in [&reference, &scaled, &batched] {
        profiles.extend(leg.profiles.iter().cloned());
    }
    for p in &profiles {
        report(&format!(
            "  {:<26} {:>5} spans  total {:>9.1} ms  max {:>8.1} ms",
            p.name,
            p.count,
            p.total_us as f64 / 1e3,
            p.max_us as f64 / 1e3,
        ));
    }
    report(&format!(
        "  remaps @1t: {:.0}% of steady-state cells skipped ({} programmed, {} skipped)",
        skipped_frac * 100.0,
        reference.steady_programmed,
        reference.steady_skipped,
    ));
    // Attribution totals as deterministic `extras`: the bench-diff gate
    // holds them to a tight relative tolerance, so a change that silently
    // shifts where wear is charged fails CI.
    let ledger = &reference.digest.ledger;
    let causes = ledger.cause_totals();
    let cause = |kind: &str| causes.iter().find(|(k, ..)| *k == kind).map_or(0.0, |&(.., s)| s);
    let series_points: u64 =
        reference.analysis.series.snapshot_all().iter().map(|(_, snap)| snap.total_count()).sum();
    let extras = [
        ("wear_total_stress", ledger.total()),
        ("wear_inference_read_stress", cause("inference_read")),
        ("wear_remap_stress", cause("remap")),
        ("wear_ledger_entries", ledger.entries().len() as f64),
        ("latency_e2e_count", reference.e2e.count as f64),
        ("series_points", series_points as f64),
        ("forecast_tiles", forecast_tiles.len() as f64),
        ("forecast_worst_velocity", worst_trend.velocity),
        ("remap_cells_skipped_frac", skipped_frac),
    ];
    report(&format!(
        "  forecast: {} tiles tracked ({series_points} series points), worst tile {worst_tile} \
         at velocity {:+.3e}/session — analyzer replay byte-identical on all legs",
        forecast_tiles.len(),
        worst_trend.velocity,
    ));
    report(&format!(
        "  attribution: {:.3e}s total stress ({:.3e}s reads, {:.3e}s remaps, {} entries), \
         tile-exact on all legs",
        ledger.total(),
        cause("inference_read"),
        cause("remap"),
        ledger.entries().len(),
    ));
    let json = phase_profile_json_with(
        &format!(
            "quick MLP inference service, {TOTAL} requests, maintenance every {INTERVAL}, \
             single submitter @ 1/{threads} threads + {CLIENTS} concurrent clients @ {threads} \
             threads"
        ),
        &profiles,
        &extras,
    );
    let path = "BENCH_serve.json";
    std::fs::write(path, &json)?;
    report(&format!(
        "(serving phase profile saved to {path}; flight dumps in {})",
        results_dir().display()
    ));
    Ok(())
}
