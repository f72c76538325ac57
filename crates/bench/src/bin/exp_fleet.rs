//! `exp_fleet` — sharded replica fleet benchmark: closed-loop load
//! against N independent crossbar replicas behind the deterministic
//! wear-balancing router.
//!
//! Legs over the same deployment recipe (quick-scenario MLP, read
//! disturb calibrated so each replica's warn threshold crosses mid-run):
//!
//! * for each fleet size N in {1, 2, 4}: single submitter @ 1 worker
//!   thread (the determinism reference) vs @ T worker threads — the
//!   replay must be **bit-identical** (per-request outputs, per-replica
//!   final wear, routing counters, attribution ledgers): worker count is
//!   a pure performance knob at every replica count;
//! * wear balancing vs round-robin on a heterogeneous 4-chip fleet
//!   (stress scale 1.0/1.6/0.7/1.3): the wear-balancing router must land
//!   a **strictly lower** max/mean replica-stress ratio — the
//!   `fleet_wear_imbalance` extra the `bench-diff` gate holds.
//!
//! Every leg's full event stream also replays through the offline
//! analyzer, which must fold the wear stream (`replica{r}.`-prefixed when
//! a replica has siblings) into ledgers byte-identical to the live
//! per-replica ledgers. Phase profiles (suffixed per leg) and the
//! deterministic extras (the imbalance pair, the 4-replica remap and
//! served counts) go to `BENCH_fleet.json`; the wall-clock 1 → 4 replica
//! throughput-scaling ratio is only printed. Each leg's flight-recorder
//! dump lands in `results/flight_fleet_r{N}_<leg>.jsonl`.
//!
//! ```text
//! cargo run --release -p memaging-bench --bin exp_fleet
//! MEMAGING_THREADS=4 cargo run --release -p memaging-bench --bin exp_fleet
//! ```

use std::time::{Duration, Instant};

use memaging::crossbar::CrossbarNetwork;
use memaging::dataset::Dataset;
use memaging::device::{ArrheniusAging, DeviceSpec};
use memaging::fleet::{FleetConfig, FleetReport, FleetService, RouterPolicy};
use memaging::lifetime::Strategy;
use memaging::nn::Network;
use memaging::obs::{FlightRecorder, MemorySink, Recorder, DEFAULT_FLIGHT_CAPACITY};
use memaging::serve::{InferRequest, ServeConfig};
use memaging::{analyze_lines, par, Scenario};
use memaging_bench::{
    banner, fast_mode, phase_profile_json_with, profile_phases, report, results_dir, PhaseProfile,
};

/// Maintenance boundary every this many admitted requests — also the
/// router's block quantum.
const INTERVAL: u64 = 32;

/// Requests per leg: enough blocks (24 full-budget) that the measured
/// burn-rate routing actually engages on the heterogeneous fleet.
fn total() -> usize {
    if fast_mode() {
        384
    } else {
        768
    }
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

/// The per-replica serving config for an N-replica fleet: read disturb
/// calibrated so each replica's share of the load crosses the warn
/// threshold near its own midpoint — every leg exercises the live-remap
/// path, not just steady-state forwards.
fn serve_config(spec: &DeviceSpec, aging: &ArrheniusAging, replicas: usize) -> ServeConfig {
    let width = spec.r_max - spec.r_min;
    ServeConfig {
        maintenance_interval: INTERVAL,
        stress_per_read: aging.stress_for_degradation(spec.temperature, 0.55 * width)
            / (total() as f64 / replicas as f64 / 2.0),
        remap_drift_fraction: 0.01,
        max_linger: Duration::from_micros(250),
        ..ServeConfig::default()
    }
}

fn fleet_config(
    spec: &DeviceSpec,
    aging: &ArrheniusAging,
    replicas: usize,
    router: RouterPolicy,
) -> FleetConfig {
    FleetConfig { router, ..FleetConfig::new(replicas, serve_config(spec, aging, replicas)) }
}

fn sample(calib: &Dataset, k: usize) -> Vec<f32> {
    let i = k % calib.len();
    calib.batch_matrix(i, i + 1).as_slice().to_vec()
}

/// Everything one replica must reproduce bit-for-bit across replays.
#[derive(Debug, PartialEq)]
struct ReplicaDigest {
    tiles: Vec<(u64, u64, u64, usize)>,
    boundaries: u64,
    remaps: u64,
    routed: u64,
    attributed_bits: Vec<u64>,
}

/// One leg's full bit-identity surface: per-request outputs plus the
/// per-replica final state.
#[derive(Debug, PartialEq)]
struct Digest {
    outputs: Vec<(u64, u64, usize, Vec<u32>)>,
    replicas: Vec<ReplicaDigest>,
}

struct Leg {
    digest: Digest,
    profiles: Vec<PhaseProfile>,
    elapsed_s: f64,
    served: u64,
    remaps: u64,
    routed: Vec<u64>,
    stress: Vec<f64>,
    imbalance: f64,
}

fn fleet_digest(report: &FleetReport) -> Vec<ReplicaDigest> {
    report
        .replicas
        .iter()
        .map(|r| ReplicaDigest {
            tiles: r
                .network
                .wear_snapshots()
                .iter()
                .map(|t| {
                    (t.mean_r_max.to_bits(), t.mean_r_min.to_bits(), t.total_pulses, t.worn_out)
                })
                .collect(),
            boundaries: r.boundaries,
            remaps: r.remaps,
            routed: r.routed,
            attributed_bits: r.attribution.attributed().iter().map(|s| s.to_bits()).collect(),
        })
        .collect()
}

/// One leg: deploy a fresh fleet, push the closed loop, shut down,
/// digest, and replay the event stream through the offline analyzer.
fn run_leg(
    label: &str,
    threads: usize,
    config: FleetConfig,
    seed_model: &(Network, Dataset, DeviceSpec, ArrheniusAging),
) -> Leg {
    par::set_threads(threads);
    let (network, calib, spec, aging) = seed_model;
    let replicas = config.replicas;
    let (sink, handle) = MemorySink::new();
    // Flight recorder per leg, named by the leg's replica count: the live
    // remap every leg must trigger also fires a ring dump, so CI always
    // has a per-fleet-size post-mortem artifact.
    let flight_dir = results_dir();
    std::fs::create_dir_all(&flight_dir).expect("results dir");
    let flight_path = flight_dir.join(format!("flight_fleet_r{replicas}_{label}.jsonl"));
    let flight =
        FlightRecorder::create(&flight_path, DEFAULT_FLIGHT_CAPACITY).expect("flight recorder");
    let recorder = Recorder::new(vec![Box::new(sink), Box::new(flight)]);
    let networks: Vec<CrossbarNetwork> = (0..replicas)
        .map(|_| CrossbarNetwork::new(network.clone(), *spec, *aging).expect("hardware"))
        .collect();
    let service = FleetService::deploy(networks, calib.clone(), config, recorder).expect("deploy");

    let started = Instant::now();
    let total = total();
    let mut outputs: Vec<(u64, u64, usize, Vec<u32>)> = Vec::with_capacity(total);
    // Single submitter: the admission sequence IS the submission sequence,
    // so per-request outputs are comparable across legs.
    for k in 0..total {
        let response = service
            .infer(InferRequest::new(sample(calib, k)))
            .unwrap_or_else(|e| panic!("{label}: request {k} failed: {e}"));
        outputs.push((
            response.seq,
            response.generation,
            response.prediction,
            response.output.iter().map(|v| v.to_bits()).collect(),
        ));
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let report = service.shutdown();

    assert_eq!(report.rejected_full, 0, "{label}: closed-loop load must never be rejected");
    assert_eq!(report.served(), total as u64, "{label}: every request served");
    assert_eq!(
        report.replicas.iter().map(|r| r.routed).sum::<u64>(),
        total as u64,
        "{label}: every admitted request is routed exactly once"
    );
    let remaps: u64 = report.replicas.iter().map(|r| r.remaps).sum();
    assert!(
        remaps >= 1,
        "{label}: the calibrated wear must trigger at least one live remap fleet-wide"
    );
    assert!(
        std::fs::metadata(&flight_path).map(|m| m.len()).unwrap_or(0) > 0,
        "{label}: the remap trigger must have dumped the flight ring to {}",
        flight_path.display()
    );

    // The offline-analyzer contract: replaying the complete event stream
    // folds the wear causes into ledgers byte-identical to the live ones —
    // per replica (`replica{r}.`-prefixed) when the fleet has siblings,
    // the plain single-deployment ledger for a fleet of one.
    let events = handle.events();
    let lines: Vec<String> = events.iter().map(|e| e.to_json()).collect();
    let analysis = analyze_lines(label, lines.iter().map(String::as_str))
        .unwrap_or_else(|e| panic!("{label}: trace replay failed: {e}"));
    let ledgers: Vec<String> = report.replicas.iter().map(|r| r.attribution.to_json()).collect();
    let live_attribution = match &ledgers[..] {
        [single] => single.clone(),
        all => format!("{{\"replicas\":[{}]}}", all.join(",")),
    };
    assert_eq!(
        analysis.attribution_json(),
        live_attribution,
        "{label}: analyzer attribution document != live ledgers"
    );
    let imbalance = report.wear_imbalance();
    if replicas > 1 {
        let replayed_imbalance = analysis
            .fleet_imbalance()
            .unwrap_or_else(|| panic!("{label}: analyzer must see a fleet attribution stream"));
        assert!(
            (replayed_imbalance - imbalance).abs() <= 1e-9 * imbalance.max(1.0),
            "{label}: analyzer imbalance {replayed_imbalance} != live imbalance {imbalance}"
        );
    }

    let mut profiles = profile_phases(&events);
    for p in &mut profiles {
        p.name = format!("{}_r{replicas}_{label}", p.name);
    }
    Leg {
        digest: Digest { outputs, replicas: fleet_digest(&report) },
        profiles,
        elapsed_s,
        served: report.served(),
        remaps,
        routed: report.replicas.iter().map(|r| r.routed).collect(),
        stress: report.stress_per_replica(),
        imbalance,
    }
}

fn summarize(leg: &Leg, what: &str) {
    report(&format!(
        "  {what:<22} {:>7.0} req/s   routed {:?}  ({} remaps, imbalance {:.4})",
        leg.served as f64 / leg.elapsed_s,
        leg.routed,
        leg.remaps,
        leg.imbalance,
    ));
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let threads = par::num_threads().max(2);
    let total = total();
    banner(&format!(
        "replica fleet under load (quick MLP, {total} requests, block quantum {INTERVAL}, \
         1 vs {threads} worker threads, 1/2/4 replicas)"
    ));
    let seed_model = trained();
    let (_, _, spec, aging) = &seed_model;

    // Replay bit-identity at every fleet size: worker count is a pure
    // performance knob for the router too.
    let mut references = Vec::new();
    for replicas in [1usize, 2, 4] {
        let config = fleet_config(spec, aging, replicas, RouterPolicy::WearBalance);
        let reference = run_leg("1t", 1, config.clone(), &seed_model);
        if replicas > 1 {
            let busy = reference.routed.iter().filter(|&&n| n > 0).count();
            assert!(busy > 1, "the router must actually spread load over {replicas} replicas");
        }
        let scaled = run_leg(&format!("{threads}t"), threads, config, &seed_model);
        assert_eq!(
            scaled.digest, reference.digest,
            "fleet replay diverged between 1 and {threads} worker threads at {replicas} replicas"
        );
        summarize(&reference, &format!("{replicas} replicas @1t"));
        summarize(&scaled, &format!("{replicas} replicas @{threads}t"));
        references.push(reference);
    }

    // The headline wear gate: on a heterogeneous fleet (an endurance /
    // temperature gradient across chips) the wear-balancing router must
    // land a strictly tighter max/mean replica-stress ratio than
    // round-robin on the same admitted sequence.
    let scale = vec![1.0, 1.6, 0.7, 1.3];
    let hetero = |router: RouterPolicy, label: &str| {
        let config =
            FleetConfig { stress_scale: scale.clone(), ..fleet_config(spec, aging, 4, router) };
        run_leg(label, threads, config, &seed_model)
    };
    let balanced = hetero(RouterPolicy::WearBalance, "hetero_wear");
    let round_robin = hetero(RouterPolicy::RoundRobin, "hetero_rr");
    summarize(&balanced, "4 hetero, wear router");
    summarize(&round_robin, "4 hetero, round-robin");
    assert!(
        balanced.imbalance < round_robin.imbalance,
        "wear balancing must be strictly tighter than round-robin: max/mean {:.4} vs {:.4} \
         (balanced stress {:?}, round-robin stress {:?})",
        balanced.imbalance,
        round_robin.imbalance,
        balanced.stress,
        round_robin.stress,
    );
    assert!(
        balanced.routed[1] < round_robin.routed[1],
        "the hottest replica must absorb less load under wear balancing ({} vs {} requests)",
        balanced.routed[1],
        round_robin.routed[1],
    );
    par::set_threads(0);

    // Throughput scaling: with more replicas the dispatcher overlaps each
    // replica's boundary/remap stalls with its siblings' serving time. A
    // wall-clock ratio moves between runs of the same build, so it is a
    // report line, not a gated extra.
    let throughput = |leg: &Leg| leg.served as f64 / leg.elapsed_s;
    let fleet_scaling = throughput(&references[2]) / throughput(&references[0]);
    report(&format!(
        "  scaling: {:.0} req/s @1 replica -> {:.0} req/s @4 replicas ({fleet_scaling:.2}x, \
         single submitter @1t)",
        throughput(&references[0]),
        throughput(&references[2]),
    ));
    report(&format!(
        "  wear gate: balanced imbalance {:.4} < round-robin {:.4} on stress scale {scale:?}",
        balanced.imbalance, round_robin.imbalance,
    ));

    let mut profiles = Vec::new();
    for leg in references.iter().chain([&balanced, &round_robin]) {
        profiles.extend(leg.profiles.iter().cloned());
    }
    let extras = [
        ("fleet_wear_imbalance", balanced.imbalance),
        ("fleet_wear_imbalance_round_robin", round_robin.imbalance),
        ("fleet_remaps_4r", references[2].remaps as f64),
        ("fleet_served", references[2].served as f64),
    ];
    let json = phase_profile_json_with(
        &format!(
            "quick MLP replica fleet, {total} requests, block quantum {INTERVAL}, \
             1/2/4 replicas @ 1/{threads} worker threads, wear-balance vs round-robin \
             on a 1.0/1.6/0.7/1.3 stress gradient"
        ),
        &profiles,
        &extras,
    );
    let path = "BENCH_fleet.json";
    std::fs::write(path, &json)?;
    report(&format!(
        "(fleet phase profile saved to {path}; flight dumps in {})",
        results_dir().display()
    ));
    Ok(())
}
