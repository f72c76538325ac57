//! Fleet-tier integration: the sharded replica fleet's headline
//! guarantees, end to end.
//!
//! * **Replay bit-identity**: the router keys every decision to the
//!   admission block index and to wear snapshots from published mapping
//!   generations, so the same admission sequence replays bit-identically
//!   at any worker-thread count, for any replica count.
//! * **The HTTP surface**: `FleetHandler` answers `POST /infer` and the
//!   per-replica `GET` routes with one row per replica, at one, two and
//!   four replicas, and `GET /fleet`'s routed counts add up to the
//!   admitted total and match the shutdown report.
//! * **Wear balancing**: on a heterogeneous fleet the wear-balancing
//!   router must land a strictly tighter max/mean replica-stress ratio
//!   than round-robin on the same admitted sequence.

use std::sync::{Arc, Mutex, OnceLock};

use memaging::crossbar::CrossbarNetwork;
use memaging::dataset::Dataset;
use memaging::device::{ArrheniusAging, DeviceSpec};
use memaging::fleet::{FleetConfig, FleetHandler, FleetReport, FleetService, RouterPolicy};
use memaging::lifetime::Strategy;
use memaging::nn::Network;
use memaging::obs::monitor::{HttpHandler, HttpRequest, HttpResponse};
use memaging::obs::Recorder;
use memaging::serve::{InferRequest, ServeConfig};
use memaging::{par, Scenario};

/// The thread override is process-global; serialize the tests that sweep
/// it (same discipline as `integration_serve`).
static THREAD_KNOB: Mutex<()> = Mutex::new(());

/// One trained model + calibration split, shared by every test.
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

fn hardware(n: usize) -> Vec<CrossbarNetwork> {
    let (network, _, spec, aging) = trained();
    (0..n)
        .map(|_| CrossbarNetwork::new(network.clone(), *spec, *aging).expect("hardware"))
        .collect()
}

fn deploy_fleet(config: FleetConfig) -> FleetService {
    let calib = trained().1.clone();
    FleetService::deploy(hardware(config.replicas), calib, config, Recorder::disabled())
        .expect("deploy")
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

/// The serve tier's determinism-test schedule: warn crosses mid-run so
/// live remaps fire while requests flow.
fn serve_config(total: usize) -> ServeConfig {
    let (_, _, spec, aging) = trained();
    ServeConfig {
        maintenance_interval: 16,
        stress_per_read: stress_per_read(spec, aging, 0.55, total as u64 / 2),
        remap_drift_fraction: 0.01,
        ..ServeConfig::default()
    }
}

/// Per-request observation: everything that must match bit-for-bit across
/// runs.
#[derive(Debug, PartialEq)]
struct Observed {
    seq: u64,
    generation: u64,
    prediction: usize,
    output_bits: Vec<u32>,
}

/// Per-replica final-state digest: hardware wear (as bits), the routing
/// counters, and the attribution account.
#[derive(Debug, PartialEq)]
struct ReplicaDigest {
    tiles: Vec<(u64, u64, u64, usize)>,
    boundaries: u64,
    remaps: u64,
    routed: u64,
    attributed_bits: Vec<u64>,
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

/// Replays a fixed admission sequence (one submitter, so admission order
/// is the submission order) against a fresh fleet.
fn closed_loop(threads: usize, config: FleetConfig, total: usize) -> (Vec<Observed>, FleetReport) {
    par::set_threads(threads);
    let calib = &trained().1;
    let service = deploy_fleet(config);
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
    assert_eq!(report.served(), total as u64);
    assert_eq!(report.replicas.iter().map(|r| r.routed).sum::<u64>(), total as u64);
    (observed, report)
}

#[test]
fn fleet_replay_is_bit_identical_across_thread_and_replica_counts() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    let total = 96;
    for replicas in [1usize, 2, 4] {
        let config = FleetConfig::new(replicas, serve_config(total));
        let (reference, reference_report) = closed_loop(1, config.clone(), total);
        let reference_digest = fleet_digest(&reference_report);
        if replicas > 1 {
            let busy = reference_report.replicas.iter().filter(|r| r.routed > 0).count();
            assert!(busy > 1, "the router must actually spread load over {replicas} replicas");
        }
        for threads in [2, 8] {
            let (run, report) = closed_loop(threads, config.clone(), total);
            assert_eq!(
                run, reference,
                "per-request outputs diverged at {threads} threads x {replicas} replicas"
            );
            assert_eq!(
                fleet_digest(&report),
                reference_digest,
                "final fleet state diverged at {threads} threads x {replicas} replicas"
            );
        }
    }
    par::set_threads(0);
}

#[test]
fn wear_balancing_beats_round_robin_on_a_heterogeneous_fleet() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    let total = 256;
    // An endurance/temperature gradient across the four chips: replica 1
    // burns 1.6x the homogeneous read stress, replica 2 only 0.7x.
    let scale = vec![1.0, 1.6, 0.7, 1.3];
    let run = |router: RouterPolicy| -> FleetReport {
        let config = FleetConfig {
            router,
            stress_scale: scale.clone(),
            ..FleetConfig::new(4, serve_config(total))
        };
        closed_loop(2, config, total).1
    };
    let balanced = run(RouterPolicy::WearBalance);
    let rr = run(RouterPolicy::RoundRobin);
    let (wear_imbalance, rr_imbalance) = (balanced.wear_imbalance(), rr.wear_imbalance());
    assert!(
        wear_imbalance < rr_imbalance,
        "wear balancing must be strictly tighter than round-robin: \
         max/mean {wear_imbalance:.4} vs {rr_imbalance:.4} \
         (balanced stress {:?}, round-robin stress {:?})",
        balanced.stress_per_replica(),
        rr.stress_per_replica(),
    );
    // And it does so by shifting load off the hot chip, not by starving
    // the fleet: both routers served the full sequence.
    assert_eq!(balanced.served(), total as u64);
    assert_eq!(rr.served(), total as u64);
    let hot_balanced = balanced.replicas[1].routed;
    let hot_rr = rr.replicas[1].routed;
    assert!(
        hot_balanced < hot_rr,
        "the hottest replica must absorb less load under wear balancing \
         ({hot_balanced} vs {hot_rr} requests)"
    );
    par::set_threads(0);
}

fn request(handler: &FleetHandler, method: &str, path: &str, body: &str) -> HttpResponse {
    let request =
        HttpRequest { method: method.into(), path: path.into(), body: body.as_bytes().to_vec() };
    handler.handle(&request).unwrap_or_else(|| panic!("{method} {path} is not routed"))
}

#[test]
fn http_handler_serves_one_row_per_replica() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    par::set_threads(2);
    let calib = &trained().1;
    // Four and a half blocks of 16: the warmup deal gives every replica of
    // a 4-fleet a block, and no fleet size splits 72 evenly, so the routed
    // counts below differ from row to row.
    let sent = 72u64;
    for replicas in [1usize, 2, 4] {
        let service = Arc::new(deploy_fleet(FleetConfig::new(replicas, serve_config(64))));
        let handler = FleetHandler::new(Arc::clone(&service), None);
        for k in 0..sent {
            let input: Vec<String> =
                sample(calib, k as usize).iter().map(|v| v.to_string()).collect();
            let response = request(
                &handler,
                "POST",
                "/infer",
                &format!("{{\"input\":[{}]}}", input.join(",")),
            );
            assert_eq!(response.status, 200, "{replicas} replicas: {}", response.body);
            // The `infer_response_json` body: admission identity first,
            // one logit per class last.
            let body = &response.body;
            assert!(body.starts_with(&format!("{{\"seq\":{k},\"generation\":")), "{body}");
            for key in ["\"prediction\":", "\"queue_us\":", "\"service_us\":"] {
                assert!(body.contains(key), "{body} lacks {key}");
            }
            let output = body.split("\"output\":[").nth(1).expect("output array");
            let logits = output.trim_end_matches("]}").split(',');
            assert_eq!(logits.count(), calib.num_classes(), "{body}");
        }
        let bad = request(&handler, "POST", "/infer", "[1, two]");
        assert_eq!(bad.status, 400, "{}", bad.body);
        assert_eq!(bad.body, r#"{"error":"bad input: not a number: \"two\""}"#);

        let rows = |body: &str, key: &str| body.matches(key).count();
        // Every `key` counter in a body, in row order.
        let counts = |body: &str, key: &str| -> Vec<u64> {
            body.split(key)
                .skip(1)
                .map(|rest| rest.split(',').next().unwrap().parse::<u64>().unwrap())
                .collect()
        };
        for (path, key) in [
            ("/fleet", "{\"replica\":"),
            ("/serve/stats", "{\"replica\":"),
            ("/serve/latency", "{\"replica\":"),
            ("/wear/attribution", "\"tiles\":"),
        ] {
            let response = request(&handler, "GET", path, "");
            assert_eq!(response.status, 200, "GET {path}: {}", response.body);
            assert!(response.body.contains("\"replicas\":["), "GET {path}: {}", response.body);
            assert_eq!(rows(&response.body, key), replicas, "GET {path}: {}", response.body);
        }
        // Admission is fleet-wide: the malformed body never reached the
        // queue, so the top-level counter is exactly the requests sent.
        let stats = request(&handler, "GET", "/serve/stats", "").body;
        assert!(
            stats.starts_with(&format!("{{\"admitted\":{sent},\"rejected_full\":0,")),
            "{stats}"
        );
        assert_eq!(counts(&stats, "\"served\":").iter().sum::<u64>(), sent, "{stats}");
        // The closed loop has drained: `/fleet` holds the final routed
        // count of every replica.
        let fleet = request(&handler, "GET", "/fleet", "").body;
        let routed = counts(&fleet, "\"routed\":");
        assert_eq!(routed.len(), replicas, "{fleet}");
        if replicas > 1 {
            assert!(routed.iter().filter(|&&n| n > 0).count() > 1, "{fleet}");
        }
        let unrouted = HttpRequest { method: "GET".into(), path: "/nope".into(), body: Vec::new() };
        assert!(handler.handle(&unrouted).is_none(), "unknown paths fall through");
        drop(handler);
        let report = Arc::try_unwrap(service).ok().expect("sole owner").shutdown();
        assert_eq!((report.admitted, report.served()), (sent, sent));
        assert_eq!(routed.iter().sum::<u64>(), report.admitted, "{fleet}");
        let reported: Vec<u64> = report.replicas.iter().map(|r| r.routed).collect();
        assert_eq!(routed, reported, "GET /fleet vs the shutdown report: {fleet}");
    }
    par::set_threads(0);
}
