//! Serving-tier integration: admission control, deadline expiry, and the
//! headline guarantee — remap-under-load is **bit-identical** across
//! worker-thread counts.
//!
//! The service keys everything hardware-visible to the request admission
//! sequence (see `crates/serve`): interval wear, mapping generations and
//! the live-remap decision are functions of *which requests were admitted
//! in which order*, never of batching, linger timing or worker count. The
//! determinism test here replays the same admission sequence at 1, 2 and
//! 8 threads and requires identical per-request outputs and an identical
//! final wear state.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::Duration;

use memaging::crossbar::CrossbarNetwork;
use memaging::dataset::Dataset;
use memaging::device::{ArrheniusAging, DeviceSpec};
use memaging::lifetime::{Strategy, WearThresholds};
use memaging::nn::Network;
use memaging::obs::{
    AlertSeverity, Event, MemorySink, Recorder, SeriesStore, DEFAULT_SERIES_CAPACITY,
};
use memaging::serve::{InferRequest, InferenceService, ServeConfig, ServeError, ServeReport};
use memaging::{par, Scenario};

/// The thread override is process-global; serialize the tests that sweep
/// it (same discipline as `integration_par`).
static THREAD_KNOB: Mutex<()> = Mutex::new(());

/// One trained model + calibration split, shared by every test (training
/// is the expensive part; deployments clone the network).
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

fn deploy(config: ServeConfig) -> InferenceService {
    let (network, calib, spec, aging) = trained();
    let hardware = CrossbarNetwork::new(network.clone(), *spec, *aging).expect("hardware");
    InferenceService::deploy(hardware, calib.clone(), config, Recorder::disabled()).expect("deploy")
}

fn sample(calib: &Dataset, k: usize) -> Vec<f32> {
    let i = k % calib.len();
    calib.batch_matrix(i, i + 1).as_slice().to_vec()
}

/// `stress_per_read` such that `reads` inference reads degrade the upper
/// resistance bound by `fraction` of the fresh window.
fn stress_per_read(spec: &DeviceSpec, aging: &ArrheniusAging, fraction: f64, reads: u64) -> f64 {
    aging.stress_for_degradation(spec.temperature, fraction * (spec.r_max - spec.r_min))
        / reads as f64
}

#[test]
fn queue_full_requests_are_rejected_not_queued() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    par::set_threads(2);
    // Capacity 1 with a lingering batcher: the dispatcher drains at most
    // one request per 100µs poll, so a barrier-synchronized wave of 8
    // concurrent clients must see rejections.
    let service = Arc::new(deploy(ServeConfig {
        queue_capacity: 1,
        max_batch: 8,
        max_linger: Duration::from_millis(50),
        ..ServeConfig::default()
    }));
    let calib = &trained().1;
    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let outcomes: Vec<Result<(), ServeError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                let service = Arc::clone(&service);
                let barrier = Arc::clone(&barrier);
                let input = sample(calib, k);
                scope.spawn(move || {
                    barrier.wait();
                    service.infer(InferRequest::new(input)).map(|_| ())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });
    let rejected =
        outcomes.iter().filter(|o| matches!(o, Err(ServeError::QueueFull { capacity: 1 }))).count();
    let served = outcomes.iter().filter(|o| o.is_ok()).count();
    assert!(rejected > 0, "a wave of {clients} clients into a 1-slot queue must reject some");
    assert_eq!(rejected + served, clients, "no other failure mode: {outcomes:?}");
    let report = Arc::try_unwrap(service).ok().expect("sole owner").shutdown();
    assert_eq!(report.rejected_full, rejected as u64);
    assert_eq!(report.served, served as u64);
    // Rejected requests were never admitted: they consume no sequence
    // number and accrue no wear.
    assert_eq!(report.admitted, served as u64);
    par::set_threads(0);
}

#[test]
fn expired_deadlines_are_dropped_at_dispatch() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    par::set_threads(1);
    // A zero deadline expires while the batcher lingers; the request is
    // answered without ever touching a worker.
    let service = deploy(ServeConfig {
        max_batch: 4,
        max_linger: Duration::from_millis(20),
        ..ServeConfig::default()
    });
    let calib = &trained().1;
    let request = InferRequest { input: sample(calib, 0), deadline: Some(Duration::from_nanos(0)) };
    assert_eq!(service.infer(request).unwrap_err(), ServeError::DeadlineExceeded);
    // A deadline-free request on the same service still gets served.
    let ok = service.infer(InferRequest::new(sample(calib, 1))).expect("served");
    assert_eq!(ok.seq, 1, "the expired request still consumed its admission slot");
    let report = service.shutdown();
    assert_eq!((report.admitted, report.expired, report.served), (2, 1, 1));
}

#[test]
fn bad_input_is_rejected_before_admission() {
    let service = deploy(ServeConfig::default());
    let err = service.infer(InferRequest::new(vec![0.0; 3])).unwrap_err();
    assert!(matches!(err, ServeError::BadInput { .. }), "{err:?}");
    let err = service.infer(InferRequest::new(vec![f32::NAN; service.input_dim()])).unwrap_err();
    assert!(matches!(err, ServeError::BadInput { .. }), "{err:?}");
    let report = service.shutdown();
    assert_eq!(report.admitted, 0, "bad input must not consume a sequence number");
}

/// Per-request observation: everything that must match bit-for-bit across
/// thread counts.
#[derive(Debug, PartialEq)]
struct Observed {
    seq: u64,
    generation: u64,
    prediction: usize,
    output_bits: Vec<u32>,
}

/// Final hardware state digest: per-tile aged bounds (as bits), pulses and
/// worn-out counts.
#[derive(Debug, PartialEq)]
struct WearDigest {
    tiles: Vec<(u64, u64, u64, usize)>,
    boundaries: u64,
    remaps: u64,
}

fn wear_digest(report: &ServeReport) -> WearDigest {
    WearDigest {
        tiles: report
            .network
            .wear_snapshots()
            .iter()
            .map(|t| (t.mean_r_max.to_bits(), t.mean_r_min.to_bits(), t.total_pulses, t.worn_out))
            .collect(),
        boundaries: report.boundaries,
        remaps: report.remaps,
    }
}

/// Replays a fixed admission sequence (one submitter, so admission order
/// is the submission order) against a fresh deployment.
fn closed_loop(threads: usize, total: usize) -> (Vec<Observed>, WearDigest) {
    par::set_threads(threads);
    let (_, calib, spec, aging) = trained();
    // Warn threshold (0.5 of the fresh window) crosses near the midpoint
    // of the run, so at least one live remap fires while requests flow.
    let config = ServeConfig {
        maintenance_interval: 16,
        stress_per_read: stress_per_read(spec, aging, 0.55, total as u64 / 2),
        remap_drift_fraction: 0.01,
        ..ServeConfig::default()
    };
    let service = deploy(config);
    let mut observed = Vec::with_capacity(total);
    for k in 0..total {
        let response = service
            .infer(InferRequest::new(sample(calib, k)))
            .unwrap_or_else(|e| panic!("request {k} failed: {e}"));
        observed.push(Observed {
            seq: response.seq,
            generation: response.generation,
            prediction: response.prediction,
            output_bits: response.output.iter().map(|v| v.to_bits()).collect(),
        });
    }
    let report = service.shutdown();
    assert_eq!(report.rejected_full, 0, "closed loop never fills the queue");
    assert_eq!(report.served, total as u64);
    (observed, wear_digest(&report))
}

#[test]
fn remap_under_load_is_bit_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    let total = 96;
    let (reference, reference_wear) = closed_loop(1, total);
    assert!(
        reference_wear.remaps >= 1,
        "the load must trigger at least one live remap (got {reference_wear:?})"
    );
    assert!(
        reference.iter().any(|o| o.generation > 0),
        "later requests must be served by refreshed generations"
    );
    for threads in [2, 8] {
        let (run, wear) = closed_loop(threads, total);
        assert_eq!(run, reference, "per-request outputs diverged at {threads} threads");
        assert_eq!(wear, reference_wear, "final wear state diverged at {threads} threads");
    }
    par::set_threads(0);
}

#[test]
fn forced_remap_attribution_sums_to_total_wear() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    par::set_threads(2);
    // Same stress schedule as the determinism test: the warn threshold
    // crosses mid-run, forcing at least one live remap while requests
    // flow, so the ledger sees all three serve-tier causes in one run
    // (deploy programming, interval reads, live remap reprogramming).
    let (_, calib, spec, aging) = trained();
    let total: usize = 96;
    let config = ServeConfig {
        maintenance_interval: 16,
        stress_per_read: stress_per_read(spec, aging, 0.55, total as u64 / 2),
        remap_drift_fraction: 0.01,
        ..ServeConfig::default()
    };
    let service = deploy(config);
    for k in 0..total {
        service
            .infer(InferRequest::new(sample(calib, k)))
            .unwrap_or_else(|e| panic!("request {k} failed: {e}"));
    }
    // The live snapshot races the asynchronous maintenance thread, but the
    // ledger is append-only: whatever the endpoint saw must be a prefix of
    // the final report.
    let live = service.wear_attribution();
    let report = service.shutdown();
    assert!(
        report.attribution.entries().starts_with(live.entries()),
        "ledger is append-only; the live snapshot must prefix the final report"
    );
    assert!(report.remaps >= 1, "the load must force a live remap (got {})", report.remaps);
    let ledger = &report.attribution;
    // Per-tile exactness: every joule of accrued stress is attributed to
    // some cause, bit-for-bit against the hardware's own accounting.
    let stress = report.network.tile_stress();
    assert_eq!(ledger.tiles(), stress.len());
    for (t, (attributed, actual)) in ledger.attributed().iter().zip(stress.iter()).enumerate() {
        assert_eq!(
            attributed.to_bits(),
            actual.to_bits(),
            "tile {t}: attributed {attributed:e}s != accrued {actual:e}s"
        );
    }
    // Per-cause totals telescope back to the grand total (relative bound:
    // the per-cause sums reduce in a different order than `total()`).
    let causes = ledger.cause_totals();
    let cause_sum: f64 = causes.iter().map(|(_, _, s)| s).sum();
    assert!(
        (cause_sum - ledger.total()).abs() <= 1e-9 * ledger.total().max(f64::MIN_POSITIVE),
        "cause totals {cause_sum:e} drifted from ledger total {:e}",
        ledger.total()
    );
    let count =
        |kind: &str| causes.iter().find(|(k, _, _)| *k == kind).map(|(_, n, _)| *n).unwrap_or(0);
    assert!(count("inference_read") >= 1, "interval reads must be charged: {causes:?}");
    // Deploy programming (generation 0) plus at least one live remap.
    assert!(count("remap") >= 2, "deploy + live remap must both be charged: {causes:?}");
    par::set_threads(0);
}

#[test]
fn batched_responses_replay_solo_responses_bit_for_bit() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    let (_, calib, spec, aging) = trained();
    let total: usize = 64;
    let clients = 8;
    let config = ServeConfig {
        maintenance_interval: 16,
        stress_per_read: stress_per_read(spec, aging, 0.55, total as u64 / 2),
        remap_drift_fraction: 0.01,
        max_linger: Duration::from_micros(300),
        max_batch: clients,
        ..ServeConfig::default()
    };
    // Solo run: every request is its own batch, so this pins the
    // per-generation response bytes of a one-request batch.
    par::set_threads(1);
    let service = deploy(config);
    let input = sample(calib, 0);
    let mut solo: Vec<Option<Vec<u32>>> = Vec::new();
    for _ in 0..total {
        let response = service.infer(InferRequest::new(input.clone())).expect("served");
        let bits: Vec<u32> = response.output.iter().map(|v| v.to_bits()).collect();
        let g = response.generation as usize;
        if solo.len() <= g {
            solo.resize(g + 1, None);
        }
        match &solo[g] {
            None => solo[g] = Some(bits),
            Some(prev) => assert_eq!(prev, &bits, "same input + generation, same bytes"),
        }
    }
    let solo_report = service.shutdown();
    assert!(solo_report.remaps >= 1, "the load must trigger a live remap");

    // Concurrent run: the dispatcher now groups admitted requests into
    // multi-request batches fanned out over two workers. Every response
    // must be byte-identical to the solo run's for the same generation, no
    // matter how the racy admission stream grouped into batches or which
    // worker context served it.
    par::set_threads(2);
    let service = Arc::new(deploy(config));
    let batched: Vec<(u64, Vec<u32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let service = Arc::clone(&service);
                let input = input.clone();
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for _ in 0..total / clients {
                        let r = service.infer(InferRequest::new(input.clone())).expect("served");
                        seen.push((r.generation, r.output.iter().map(|v| v.to_bits()).collect()));
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client panicked")).collect()
    });
    let report = Arc::try_unwrap(service).ok().expect("sole owner").shutdown();
    assert_eq!(report.served, total as u64);
    assert!(
        report.batches < total as u64,
        "concurrent clients must actually form multi-request batches \
         ({} batches for {total} requests)",
        report.batches,
    );
    for (generation, bits) in &batched {
        let expected = solo
            .get(*generation as usize)
            .and_then(|o| o.as_ref())
            .unwrap_or_else(|| panic!("generation {generation} never observed in the solo run"));
        assert_eq!(
            expected, bits,
            "batched response diverged from the solo path at generation {generation}"
        );
    }
    // Wear is keyed to the admitted-request count, so both runs land the
    // hardware in the same place even though their batch shapes differ.
    assert_eq!(wear_digest(&report), wear_digest(&solo_report));
    par::set_threads(0);
}

#[test]
fn concurrent_clients_preserve_the_wear_state() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    par::set_threads(4);
    // Admission order is racy with concurrent clients, but wear accrues
    // from the admitted-request *count*: any interleaving of the same
    // request multiset must land on the same hardware state.
    let (_, calib, spec, aging) = trained();
    let total: usize = 64;
    let config = ServeConfig {
        maintenance_interval: 16,
        stress_per_read: stress_per_read(spec, aging, 0.55, total as u64 / 2),
        remap_drift_fraction: 0.01,
        max_linger: Duration::from_micros(300),
        ..ServeConfig::default()
    };
    let mut digests = Vec::new();
    for _ in 0..2 {
        let service = Arc::new(deploy(config));
        let input = sample(calib, 0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let service = Arc::clone(&service);
                let input = input.clone();
                scope.spawn(move || {
                    for _ in 0..total / 4 {
                        service.infer(InferRequest::new(input.clone())).expect("served");
                    }
                });
            }
        });
        let report = Arc::try_unwrap(service).ok().expect("sole owner").shutdown();
        assert_eq!(report.served, total as u64);
        digests.push(wear_digest(&report));
    }
    assert_eq!(digests[0], digests[1], "same request multiset, same final wear");
    par::set_threads(0);
}

/// The four phases of a maintenance boundary, each a child span of
/// `serve.boundary` carrying the boundary id as its trace.
const BOUNDARY_PHASES: [&str; 4] = [
    "serve.boundary.wear",
    "serve.boundary.health",
    "serve.boundary.readback",
    "serve.boundary.forecast",
];

#[test]
fn boundary_phase_spans_nest_inside_each_boundary() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    par::set_threads(2);
    let (network, calib, spec, aging) = trained();
    let total = 64;
    let config = ServeConfig {
        maintenance_interval: 8,
        stress_per_read: stress_per_read(spec, aging, 0.55, total as u64 / 2),
        remap_drift_fraction: 0.01,
        ..ServeConfig::default()
    };
    let (sink, handle) = MemorySink::new();
    // A series store, so the forecast phase does its full work.
    let series = Arc::new(SeriesStore::with_capacity(DEFAULT_SERIES_CAPACITY));
    let recorder = Recorder::with_series(vec![Box::new(sink)], series);
    let hardware = CrossbarNetwork::new(network.clone(), *spec, *aging).expect("hardware");
    let service =
        InferenceService::deploy(hardware, calib.clone(), config, recorder).expect("deploy");
    for k in 0..total {
        service.infer(InferRequest::new(sample(calib, k))).expect("served");
    }
    let report = service.shutdown();
    assert_eq!(report.served, total as u64);

    // Per boundary id: the parent's duration, and each phase's count and
    // summed duration.
    let mut parents: BTreeMap<u64, u64> = BTreeMap::new();
    let mut phases: BTreeMap<u64, BTreeMap<&str, (usize, u64)>> = BTreeMap::new();
    for event in handle.events() {
        let Event::Span { name, trace, duration_us, .. } = event else { continue };
        if name == "serve.boundary" {
            let id = trace.expect("boundary spans carry the boundary id");
            assert!(parents.insert(id, duration_us).is_none(), "boundary {id} traced twice");
        } else if let Some(&phase) = BOUNDARY_PHASES.iter().find(|&&p| p == name) {
            let id = trace.expect("phase spans carry the boundary id");
            let entry = phases.entry(id).or_default().entry(phase).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += duration_us;
        }
    }
    assert!(parents.len() >= 4, "the run must cross several boundaries: {parents:?}");
    assert_eq!(
        phases.keys().collect::<Vec<_>>(),
        parents.keys().collect::<Vec<_>>(),
        "every phase span belongs to a traced boundary"
    );
    for (id, parent_us) in &parents {
        let children = &phases[id];
        for phase in BOUNDARY_PHASES {
            assert_eq!(
                children.get(phase).map(|c| c.0),
                Some(1),
                "boundary {id}: {phase} must appear exactly once"
            );
        }
        let children_us: u64 = children.values().map(|c| c.1).sum();
        assert!(
            children_us <= *parent_us,
            "boundary {id}: phases take {children_us} us of a {parent_us} us boundary"
        );
    }
    par::set_threads(0);
}

#[test]
fn shared_thresholds_reach_the_monitor_and_the_remap_trigger() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    par::set_threads(2);
    let (network, calib, spec, aging) = trained();
    let total = 64;
    // About 5% of the window wears away: far above the default warn
    // fraction (0.5), so only a threshold that reached both users can
    // raise the alert and arm a remap.
    let config = ServeConfig {
        maintenance_interval: 8,
        stress_per_read: stress_per_read(spec, aging, 0.05, total as u64 / 2),
        thresholds: WearThresholds { warn_window_fraction: 0.99, ..WearThresholds::default() },
        remap_drift_fraction: 0.0,
        ..ServeConfig::default()
    };
    let (sink, handle) = MemorySink::new();
    let recorder = Recorder::new(vec![Box::new(sink)]);
    let hardware = CrossbarNetwork::new(network.clone(), *spec, *aging).expect("hardware");
    let service =
        InferenceService::deploy(hardware, calib.clone(), config, recorder).expect("deploy");
    for k in 0..total {
        service.infer(InferRequest::new(sample(calib, k))).expect("served");
    }
    let report = service.shutdown();
    let window_alerts: Vec<(AlertSeverity, f64)> = handle
        .events()
        .into_iter()
        .filter_map(|event| match event {
            Event::Alert { name, severity, threshold, .. } if name == "health.window_fraction" => {
                Some((severity, threshold))
            }
            _ => None,
        })
        .collect();
    assert_eq!(window_alerts, [(AlertSeverity::Warn, 0.99)], "the monitor's warn rule");
    assert!(report.remaps >= 1, "the remap trigger must fire on the same rule");
    par::set_threads(0);
}
