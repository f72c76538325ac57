//! `serve_1c` and `fleet_2c`: closed-loop clients against the deployed
//! LeNet-5 inference tier.
//!
//! Every round deploys fresh hardware and serves a fixed, seeded request
//! stream, so wear, remaps and routing — which depend only on the
//! admission count — repeat bit for bit from round to round, while the
//! host timings pool over as many rounds as fit in the measured time.
//! Each set-up is also followed by one run of the paper pipeline
//! ([`pipeline`]), which gives `work_s` and the Table I pair.

use std::collections::HashMap;
use std::sync::Barrier;
use std::time::Instant;

use memaging::crossbar::CrossbarNetwork;
use memaging::fleet::{FleetConfig, FleetService};
use memaging::lifetime::{WearCause, WearLedger};
use memaging::obs::{Event, MemorySink, Recorder};
use memaging::par;
use memaging::serve::{InferRequest, InferResponse, InferenceService, ServeConfig, ServeError};

use crate::report::{median, percentile, Digest, Report};
use crate::setup::{prepare, Prepared};
use crate::{host, pipeline, run_phases};

/// The two serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One client, one replica: linger and boundaries on the request path.
    Serve1c,
    /// Two clients, two heterogeneous replicas behind the wear router.
    Fleet2c,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Serve1c => "serve_1c",
            Kind::Fleet2c => "fleet_2c",
        }
    }

    fn clients(self) -> usize {
        match self {
            Kind::Serve1c => 1,
            Kind::Fleet2c => 2,
        }
    }

    /// Requests per round: about a second of load each on a 2-core x86-64
    /// host, and a whole number of maintenance intervals.
    fn requests(self) -> usize {
        match self {
            Kind::Serve1c => 1024,
            Kind::Fleet2c => 4096,
        }
    }

    /// Per-replica read-disturb multipliers (the fleet's endurance
    /// gradient across chips).
    fn stress_scale(self) -> Vec<f64> {
        match self {
            Kind::Serve1c => vec![1.0],
            Kind::Fleet2c => vec![1.0, 1.6],
        }
    }
}

/// Worker threads of the `par` pool, serving and in the pipeline: on a
/// 2-core host the clients, dispatcher and maintenance threads already
/// occupy both cores, and the pipeline's time is its compute alone.
const THREADS: usize = 1;

/// Fraction of a replica's share of a round after which its worst tile
/// crosses the warn threshold: late, so a few live remaps run near the end.
const WARN_AT: f64 = 0.95;

/// A request's serving stages plus the remainder, all in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stages {
    /// Waiting for the dispatcher to finish earlier batches.
    pub queue_wait_us: f64,
    /// The batcher's linger for more requests.
    pub linger_us: f64,
    /// The forward pass.
    pub forward_us: f64,
}

/// Largest negative remainder tolerated: the stages come from four
/// trace timestamps, each rounded to the microsecond.
pub const RECONCILE_SLACK_US: f64 = 4.0;

/// The stage gap: `e2e` minus the stages, i.e. the time spent waiting on
/// generation publishes, routing, and delivery. Stages plus gap equal
/// `e2e` by construction; the check is that the stages fit inside it.
///
/// # Errors
///
/// When a stage is negative or the stages exceed `e2e` by more than
/// [`RECONCILE_SLACK_US`] — the stages overlap or are mis-attributed.
pub fn stage_gap(e2e_us: f64, s: &Stages) -> Result<f64, String> {
    if s.queue_wait_us < 0.0 || s.linger_us < 0.0 || s.forward_us < 0.0 {
        return Err(format!("negative stage in {s:?}"));
    }
    let gap = e2e_us - (s.queue_wait_us + s.linger_us + s.forward_us);
    if gap < -RECONCILE_SLACK_US {
        return Err(format!("stages {s:?} exceed e2e {e2e_us:.1} us by {:.1} us", -gap));
    }
    Ok(gap)
}

/// The request stream of one round: `n` indices into a pool of `pool`
/// inputs, drawn by splitmix64 from `seed`.
pub fn request_stream(seed: u64, n: usize, pool: usize) -> Vec<usize> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z % pool as u64) as usize
        })
        .collect()
}

enum Service {
    One(InferenceService),
    Fleet(FleetService),
}

/// One replica's end state.
struct ReplicaEnd {
    stress: Vec<f64>,
    ledger: WearLedger,
    served: u64,
    boundaries: u64,
    remaps: u64,
    routed: u64,
}

/// A shut-down service's end state.
struct Finished {
    replicas: Vec<ReplicaEnd>,
    admitted: u64,
    rejected: u64,
    /// Max/mean replica stress (1.0 for a single replica).
    imbalance: f64,
}

impl Service {
    fn deploy(
        kind: Kind,
        prepared: &Prepared,
        config: ServeConfig,
        recorder: Recorder,
    ) -> Result<Service, String> {
        let fw = &prepared.scenario.framework;
        let hardware = || {
            CrossbarNetwork::new(prepared.network.clone(), fw.spec, fw.aging)
                .map_err(|e| format!("hardware: {e}"))
        };
        let calib = prepared.calib.clone();
        match kind {
            Kind::Serve1c => InferenceService::deploy(hardware()?, calib, config, recorder)
                .map(Service::One)
                .map_err(|e| format!("deploy: {e}")),
            Kind::Fleet2c => {
                let scale = kind.stress_scale();
                let networks = (0..scale.len()).map(|_| hardware()).collect::<Result<_, _>>()?;
                let fleet = FleetConfig {
                    stress_scale: scale.clone(),
                    ..FleetConfig::new(scale.len(), config)
                };
                FleetService::deploy(networks, calib, fleet, recorder)
                    .map(Service::Fleet)
                    .map_err(|e| format!("deploy: {e}"))
            }
        }
    }

    fn infer(&self, request: InferRequest) -> Result<InferResponse, ServeError> {
        match self {
            Service::One(s) => s.infer(request),
            Service::Fleet(s) => s.infer(request),
        }
    }

    fn shutdown(self) -> Finished {
        match self {
            Service::One(s) => {
                let r = s.shutdown();
                let replica = ReplicaEnd {
                    stress: r.network.tile_stress(),
                    ledger: r.attribution,
                    served: r.served,
                    boundaries: r.boundaries,
                    remaps: r.remaps,
                    routed: r.admitted,
                };
                Finished {
                    replicas: vec![replica],
                    admitted: r.admitted,
                    rejected: r.rejected_full,
                    imbalance: 1.0,
                }
            }
            Service::Fleet(s) => {
                let r = s.shutdown();
                let imbalance = r.wear_imbalance();
                Finished {
                    admitted: r.admitted,
                    rejected: r.rejected_full,
                    imbalance,
                    replicas: r
                        .replicas
                        .into_iter()
                        .map(|rep| ReplicaEnd {
                            stress: rep.network.tile_stress(),
                            ledger: rep.attribution,
                            served: rep.served,
                            boundaries: rep.boundaries,
                            remaps: rep.remaps,
                            routed: rep.routed,
                        })
                        .collect(),
                }
            }
        }
    }
}

/// One answered request, as its client saw it.
struct Sample {
    response: InferResponse,
    label: usize,
    e2e_us: f64,
}

/// Per-layer figures folded from one traced round.
#[derive(Default)]
struct Folded {
    stages: Vec<(Stages, f64)>,
    boundary_ms: Vec<f64>,
    remap_ms: Vec<f64>,
    read_disturb_ms: f64,
    cells_programmed: u64,
    cells_skipped: u64,
}

/// What a round leaves once its outputs are checked; the responses
/// themselves are dropped, so memory does not grow with the round count.
struct Round {
    work_s: f64,
    cpu_s: f64,
    deploy_s: f64,
    attempted: u64,
    failed: u64,
    e2e_us: Vec<f64>,
    digest: u64,
    stress_per_kreq: f64,
    imbalance: f64,
    boundaries: u64,
    remaps: u64,
    routed: Vec<u64>,
    folded: Option<Result<Folded, String>>,
}

fn serve_config(kind: Kind, prepared: &Prepared) -> ServeConfig {
    let fw = &prepared.scenario.framework;
    let defaults = ServeConfig::default();
    let width = fw.spec.r_max - fw.spec.r_min;
    // Window lost at the warn threshold, plus a margin for the wear the
    // deploy mapping already caused.
    let to_warn = (1.0 - defaults.thresholds.warn_window_fraction + 0.05) * width;
    // With stress balanced across replicas, each absorbs the wear of
    // `requests / Σ(1/scale)` requests at scale 1.
    let per_replica =
        kind.requests() as f64 / kind.stress_scale().iter().map(|s| 1.0 / s).sum::<f64>();
    ServeConfig {
        stress_per_read: fw.aging.stress_for_degradation(fw.spec.temperature, to_warn)
            / (WARN_AT * per_replica),
        // Two closed-loop clients at `max_batch = 2` lock into paired or
        // staggered batches by a start-up race; one request per batch
        // removes that bimodality.
        max_batch: if kind == Kind::Fleet2c { 1 } else { defaults.max_batch },
        ..defaults
    }
}

/// Folds the events of one traced round (deploy events excluded) into
/// per-request stages and per-layer totals. Both serving workloads batch
/// one request at a time (one client, or `max_batch = 1`), so the
/// dispatcher's `k`-th linger observation belongs to admission `k`.
fn fold(events: &[Event], samples: &[Sample]) -> Result<Folded, String> {
    let mut out = Folded::default();
    let mut request_start: HashMap<u64, u64> = HashMap::new();
    let mut batch_end: HashMap<u64, u64> = HashMap::new();
    let mut forward: HashMap<u64, u64> = HashMap::new();
    let mut lingers: Vec<f64> = Vec::new();
    for event in events {
        match event {
            Event::Span { name, trace, start_us, duration_us, .. } => {
                match (name.as_str(), trace) {
                    ("serve.request", Some(seq)) => {
                        request_start.insert(*seq, *start_us);
                    }
                    ("serve.batch", Some(seq)) => {
                        batch_end.insert(*seq, start_us + duration_us);
                    }
                    ("serve.forward", Some(seq)) => {
                        forward.insert(*seq, *duration_us);
                    }
                    ("serve.boundary", _) => out.boundary_ms.push(*duration_us as f64 / 1e3),
                    ("serve.remap", _) => out.remap_ms.push(*duration_us as f64 / 1e3),
                    ("tile.read_disturb", _) => out.read_disturb_ms += *duration_us as f64 / 1e3,
                    _ => {}
                }
            }
            Event::Observation { name, value, .. } if name == "serve.linger_us" => {
                lingers.push(*value);
            }
            Event::Observation { name, value, .. }
                if name == "serve.batch_size" && *value != 1.0 =>
            {
                return Err(format!("a batch held {value} requests; stages assume one"));
            }
            Event::Counter { name, delta, .. } => match name.as_str() {
                "mapping.cells_programmed" => out.cells_programmed += delta,
                "mapping.cells_skipped" => out.cells_skipped += delta,
                _ => {}
            },
            _ => {}
        }
    }
    if lingers.len() != samples.len() {
        return Err(format!(
            "{} linger observations for {} requests",
            lingers.len(),
            samples.len()
        ));
    }
    for sample in samples {
        let seq = sample.response.seq;
        let missing = || format!("request {seq} lacks a request or forward span");
        let start = *request_start.get(&seq).ok_or_else(missing)?;
        let forward_us = *forward.get(&seq).ok_or_else(missing)? as f64;
        let free = seq.checked_sub(1).and_then(|prev| batch_end.get(&prev)).copied();
        let queue_wait_us = free.map_or(0.0, |free| free.saturating_sub(start) as f64);
        let stages = Stages { queue_wait_us, linger_us: lingers[seq as usize], forward_us };
        let gap = stage_gap(sample.e2e_us, &stages).map_err(|e| format!("request {seq}: {e}"))?;
        out.stages.push((stages, gap));
    }
    Ok(out)
}

fn run_round(
    kind: Kind,
    prepared: &Prepared,
    inputs: &[Vec<(Vec<f32>, usize)>],
    traced: bool,
    report: &mut Report,
) -> Result<Round, String> {
    let (recorder, handle) = if traced {
        let (sink, handle) = MemorySink::new();
        (Recorder::new(vec![Box::new(sink)]), Some(handle))
    } else {
        (Recorder::disabled(), None)
    };
    let started = Instant::now();
    let service = Service::deploy(kind, prepared, serve_config(kind, prepared), recorder)?;
    let deploy_s = started.elapsed().as_secs_f64();
    let deploy_events = handle.as_ref().map_or(0, |h| h.len());

    // Inputs are cloned into requests before the clock starts.
    let requests: Vec<Vec<(InferRequest, usize)>> = inputs
        .iter()
        .map(|client| client.iter().map(|(x, y)| (InferRequest::new(x.clone()), *y)).collect())
        .collect();
    let attempted = requests.iter().map(Vec::len).sum::<usize>() as u64;
    let barrier = Barrier::new(requests.len());
    let cpu = host::cpu_seconds()?;
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .into_iter()
            .map(|stream| {
                let (service, barrier) = (&service, &barrier);
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(stream.len());
                    let mut errors = Vec::new();
                    barrier.wait();
                    let began = Instant::now();
                    for (request, label) in stream {
                        let t0 = Instant::now();
                        let outcome = service.infer(request);
                        let e2e_us = t0.elapsed().as_nanos() as f64 / 1e3;
                        match outcome {
                            Ok(response) => samples.push(Sample { response, label, e2e_us }),
                            Err(e) => errors.push(e),
                        }
                    }
                    (samples, errors, began, Instant::now())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let cpu_s = host::cpu_seconds()? - cpu;
    let finished = service.shutdown();

    let mut samples = Vec::new();
    let mut errors = Vec::new();
    let mut began: Option<Instant> = None;
    let mut ended: Option<Instant> = None;
    for joined in per_client {
        let (s, e, b, f) = joined.map_err(|_| "a client thread panicked".to_string())?;
        samples.extend(s);
        errors.extend(e);
        began = Some(began.map_or(b, |x| x.min(b)));
        ended = Some(ended.map_or(f, |x| x.max(f)));
    }
    let work_s = match (began, ended) {
        (Some(b), Some(f)) => f.duration_since(b).as_secs_f64(),
        _ => return Err("no client ran".into()),
    };
    samples.sort_by_key(|s| s.response.seq);
    let folded = handle.map(|h| {
        if errors.is_empty() {
            fold(&h.events()[deploy_events..], &samples)
        } else {
            Err("stages need every request answered".into())
        }
    });
    if let Some(e) = errors.first() {
        eprintln!("{}: request failed: {e}", kind.name());
    }
    let failed = errors.len() as u64;
    let digest = check_round(kind, prepared, &samples, failed, attempted, &finished, report);
    Ok(Round {
        work_s,
        cpu_s,
        deploy_s,
        attempted,
        failed,
        e2e_us: samples.iter().map(|s| s.e2e_us).collect(),
        digest,
        stress_per_kreq: stress_per_kreq(&finished, attempted),
        imbalance: finished.imbalance,
        boundaries: finished.replicas.iter().map(|r| r.boundaries).sum(),
        remaps: finished.replicas.iter().map(|r| r.remaps).sum(),
        routed: finished.replicas.iter().map(|r| r.routed).collect(),
        folded,
    })
}

/// Checks one round's outputs and returns its deterministic digest.
fn check_round(
    kind: Kind,
    prepared: &Prepared,
    samples: &[Sample],
    failed: u64,
    attempted: u64,
    fin: &Finished,
    report: &mut Report,
) -> u64 {
    let name = kind.name();
    let classes = prepared.scenario.data_spec.classes;
    let interval = serve_config(kind, prepared).maintenance_interval;
    let served: u64 = fin.replicas.iter().map(|r| r.served).sum();
    // Exactly once: every attempted request is answered once.
    report.check(served + failed == attempted, || {
        format!("{name}: served {served} + failed {failed} != attempted {}", attempted)
    });
    report.check(samples.len() as u64 == served, || {
        format!("{name}: {} responses for {served} served", samples.len())
    });
    report.check(fin.admitted + fin.rejected == attempted, || {
        format!("{name}: admitted {} + rejected {} != attempted", fin.admitted, fin.rejected)
    });
    let seqs: Vec<u64> = samples.iter().map(|s| s.response.seq).collect();
    report.check(seqs.windows(2).all(|w| w[0] < w[1]), || format!("{name}: duplicate seq"));
    if failed == 0 {
        report.check(seqs.iter().copied().eq(0..attempted), || {
            format!("{name}: admission sequence has gaps")
        });
    }
    let mut correct = 0usize;
    for s in samples {
        let r = &s.response;
        let argmax = r
            .output
            .iter()
            .enumerate()
            .fold(0, |best, (i, &v)| if v > r.output[best] { i } else { best });
        let ok = r.output.len() == classes
            && r.output.iter().all(|v| v.is_finite())
            && r.prediction == argmax
            && (kind == Kind::Fleet2c || r.generation == r.seq / interval);
        report.check(ok, || format!("{name}: malformed response to request {}", r.seq));
        correct += usize::from(r.prediction == s.label);
    }
    // The aged hardware must still meet the scenario's target accuracy,
    // so the responses are real classifications.
    let accuracy = correct as f64 / samples.len().max(1) as f64;
    let target = prepared.scenario.framework.lifetime.target_accuracy;
    report.check(accuracy >= target, || {
        format!("{name}: served accuracy {accuracy:.3} below the target {target}")
    });
    for (i, rep) in fin.replicas.iter().enumerate() {
        let exact = rep.ledger.attributed().len() == rep.stress.len()
            && rep
                .ledger
                .attributed()
                .iter()
                .zip(&rep.stress)
                .all(|(a, s)| a.to_bits() == s.to_bits());
        report.check(exact, || format!("{name}: replica {i} ledger != tile stress"));
    }

    let mut d = Digest::default();
    if kind == Kind::Serve1c {
        // One client: admission order is stream order, so outputs repeat.
        for s in samples {
            d.u64(s.response.seq);
            d.u64(s.response.generation);
            d.u64(s.response.prediction as u64);
            for v in &s.response.output {
                d.u64(u64::from(v.to_bits()));
            }
        }
    }
    for rep in &fin.replicas {
        d.u64(rep.routed);
        d.u64(rep.boundaries);
        d.u64(rep.remaps);
        for v in rep.stress.iter().chain(rep.ledger.attributed()) {
            d.f64(*v);
        }
    }
    d.value()
}

/// Wear after deployment — read disturb plus live remaps — per 1000
/// requests, summed over replicas.
fn stress_per_kreq(fin: &Finished, requests: u64) -> f64 {
    let after_deploy: f64 = fin
        .replicas
        .iter()
        .flat_map(|r| r.ledger.entries())
        .filter(|e| e.cause != WearCause::Remap { generation: 0 })
        .map(|e| e.total)
        .sum();
    after_deploy / requests as f64 * 1e3
}

/// One set-up of a serving workload: the trained model, the timed
/// deploy of a service (shut down unused), and the seeded request stream
/// split between the clients.
struct Setup {
    prepared: Prepared,
    deploy_s: f64,
    inputs: Vec<Vec<(Vec<f32>, usize)>>,
}

fn setup(kind: Kind, seed: u64, traced: bool) -> Result<Setup, String> {
    let prepared = prepare(traced)?;
    let started = Instant::now();
    let service =
        Service::deploy(kind, &prepared, serve_config(kind, &prepared), Recorder::disabled())?;
    let deploy_s = started.elapsed().as_secs_f64();
    service.shutdown();
    let calib = &prepared.calib;
    let stream = request_stream(seed, kind.requests(), calib.len());
    let clients = kind.clients();
    let inputs = (0..clients)
        .map(|c| {
            stream
                .iter()
                .skip(c)
                .step_by(clients)
                .map(|&i| (calib.batch_matrix(i, i + 1).as_slice().to_vec(), calib.labels()[i]))
                .collect()
        })
        .collect();
    Ok(Setup { prepared, deploy_s, inputs })
}

/// Runs the workload and fills `report`.
///
/// # Errors
///
/// When set-up or deployment fails, or the samples are too few for the
/// reported percentiles.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    par::set_threads(THREADS);
    let name = kind.name();
    let phases = run_phases(
        seconds,
        traced,
        || setup(kind, seed, traced),
        |s: &Setup, traced| pipeline::run(&s.prepared, traced),
        |s: &Setup, traced| run_round(kind, &s.prepared, &s.inputs, traced, report),
        |r| r.work_s,
    )?;
    let weights = phases.setups[0].prepared.weights_digest();
    report.check(phases.setups.iter().all(|s| s.prepared.weights_digest() == weights), || {
        "repeated set-ups trained different weights".into()
    });
    if let Some(e) = phases.failures.first() {
        return Err(format!("{name}: round failed: {e}"));
    }
    let (untraced, traced_rounds) = (&phases.untraced, &phases.traced);
    let all: Vec<&Round> = untraced.iter().chain(traced_rounds).collect();
    let first = all.first().ok_or("no round ran")?;
    report.check(all.iter().all(|r| r.digest == first.digest), || {
        format!("{name}: rounds of the same stream disagree")
    });
    println!("digest {name} {:016x}", first.digest);
    let lifetime =
        pipeline::summarize(&phases.lifetimes, &phases.setups[0].prepared, traced, report)?;
    // Operations are the requests plus the lifetime runs, none of which
    // failed: a failed lifetime run ends the workload.
    report.attempted = all.iter().map(|r| r.attempted).sum::<u64>() + phases.lifetimes.len() as u64;
    report.failed = all.iter().map(|r| r.failed).sum();
    let setup_s: Vec<f64> = phases
        .setups
        .iter()
        .map(|s| s.prepared.dataset_s + s.prepared.train_s + s.deploy_s)
        .collect();

    let work: Vec<f64> = untraced.iter().map(|r| r.work_s).collect();
    let served: usize = untraced.iter().map(|r| r.e2e_us.len()).sum();
    if !traced {
        let mut e2e: Vec<f64> = untraced.iter().flat_map(|r| r.e2e_us.iter().copied()).collect();
        e2e.sort_by(f64::total_cmp);
        println!("e2e samples {} over {} rounds", e2e.len(), untraced.len());
        report.metric("setup_s", median(&setup_s).expect("setups"), "s");
        report.metric("work_s", lifetime.work_s, "s");
        report.metric("throughput_rps", served as f64 / work.iter().sum::<f64>(), "1/s");
        report.metric("e2e_p50_us", percentile(&e2e, 50)?, "us");
        report.metric("e2e_p99_us", percentile(&e2e, 99)?, "us");
        report.metric(
            "served_frac",
            (report.attempted - report.failed) as f64 / report.attempted as f64,
            "ratio",
        );
        report.metric("stress_per_kreq", first.stress_per_kreq, "device-s/kreq");
        report.metric("wear_imbalance", first.imbalance, "max/mean");
        report.metric("lifetime_sessions", lifetime.sessions as f64, "sessions");
        report.metric("software_acc", phases.setups[0].prepared.software_acc, "ratio");
        report.metric("peak_rss_mb", phases.peak_rss_mb, "MB");
        return Ok(());
    }

    let folded: Vec<&Folded> = traced_rounds
        .iter()
        .map(|r| match &r.folded {
            Some(Ok(f)) => Ok(f),
            Some(Err(e)) => Err(e.clone()),
            None => Err("round was not traced".to_string()),
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{name}: stage reconciliation: {e}"))?;
    let pooled = |f: &dyn Fn(&Folded) -> Vec<f64>| -> Vec<f64> {
        folded.iter().flat_map(|x| f(x)).collect()
    };
    let stage = |f: fn(&(Stages, f64)) -> f64| {
        median(&pooled(&|x: &Folded| x.stages.iter().map(f).collect())).unwrap_or(f64::NAN)
    };
    let setup_med = |f: fn(&Prepared) -> f64| {
        median(&phases.setups.iter().map(|s| f(&s.prepared)).collect::<Vec<_>>()).expect("set-ups")
    };
    let epochs = phases.setups.iter().filter_map(|s| s.prepared.epochs).max().unwrap_or(0);
    let deploy_s: Vec<f64> =
        phases.setups.iter().map(|s| s.deploy_s).chain(all.iter().map(|r| r.deploy_s)).collect();
    report.metric("dataset.gen_s", setup_med(|p| p.dataset_s), "s");
    report.metric("nn.train_s", setup_med(|p| p.train_s), "s");
    report.metric("nn.train_epochs", epochs as f64, "count");
    report.metric("serve.deploy_s", median(&deploy_s).expect("deploys"), "s");
    let (map_s, tune_s, evaluate_s, candidates) =
        lifetime.spans.ok_or("no traced lifetime run completed")?;
    report.metric("crossbar.map_s", map_s, "s");
    report.metric("crossbar.map_candidates", candidates as f64, "count");
    report.metric("crossbar.tune_s", tune_s, "s");
    report.metric("crossbar.evaluate_s", evaluate_s, "s");
    report.metric("crossbar.tune_pulses", lifetime.tune_pulses as f64, "count");
    report.metric("lifetime.remaps", lifetime.remaps as f64, "count");
    report.metric("serve.linger_us_p50", stage(|(s, _)| s.linger_us), "us");
    report.metric("serve.queue_wait_us_p50", stage(|(s, _)| s.queue_wait_us), "us");
    report.metric("serve.forward_us_p50", stage(|(s, _)| s.forward_us), "us");
    report.metric("serve.stage_gap_us_p50", stage(|(_, gap)| *gap), "us");
    report.metric(
        "serve.boundary_ms_p50",
        median(&pooled(&|x: &Folded| x.boundary_ms.clone())).ok_or("no boundary spans")?,
        "ms",
    );
    report.metric("serve.boundaries", first.boundaries as f64, "count");
    let spans: usize = folded.iter().map(|f| f.boundary_ms.len()).sum();
    let disturb: f64 = folded.iter().map(|f| f.read_disturb_ms).sum();
    report.metric("crossbar.read_disturb_ms", disturb / spans.max(1) as f64, "ms");
    report.metric(
        "serve.remap_ms_p50",
        median(&pooled(&|x: &Folded| x.remap_ms.clone())).ok_or("no live remap ran")?,
        "ms",
    );
    report.metric("serve.remaps", first.remaps as f64, "count");
    let skipped: u64 = folded.iter().map(|f| f.cells_skipped).sum();
    let programmed: u64 = folded.iter().map(|f| f.cells_programmed).sum();
    report.metric(
        "crossbar.cells_skipped_frac",
        skipped as f64 / (skipped + programmed).max(1) as f64,
        "ratio",
    );
    // A single replica takes every request: a share of 1.
    let routed = &first.routed;
    let max = routed.iter().copied().max().unwrap_or(0);
    report.metric(
        "fleet.routed_share_max",
        max as f64 / routed.iter().sum::<u64>().max(1) as f64,
        "ratio",
    );
    report.metric(
        "proc.cpu_s",
        median(&untraced.iter().map(|r| r.cpu_s).collect::<Vec<_>>()).ok_or("no untraced round")?,
        "s",
    );
    let traced_work = median(&traced_rounds.iter().map(|r| r.work_s).collect::<Vec<_>>())
        .ok_or("no traced round")?;
    report.metric(
        "obs.trace_overhead_frac",
        traced_work / median(&work).ok_or("no untraced round")? - 1.0,
        "ratio",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_and_gap_sum_to_e2e() {
        let s = Stages { queue_wait_us: 30.0, linger_us: 2090.0, forward_us: 150.0 };
        let gap = stage_gap(2300.0, &s).unwrap();
        assert_eq!(gap, 30.0);
        assert_eq!(s.queue_wait_us + s.linger_us + s.forward_us + gap, 2300.0);
        // Microsecond rounding of the trace stamps may overshoot slightly.
        assert!(stage_gap(2268.0, &s).is_ok());
    }

    #[test]
    fn overlapping_stages_do_not_reconcile() {
        // The service's own queue wait runs from admission to dispatch and
        // so already contains the linger: adding both double-counts it.
        let double_counted = Stages { queue_wait_us: 2100.0, linger_us: 2090.0, forward_us: 150.0 };
        assert!(stage_gap(2300.0, &double_counted).is_err());
        let negative = Stages { queue_wait_us: -1.0, linger_us: 0.0, forward_us: 1.0 };
        assert!(stage_gap(10.0, &negative).is_err());
    }

    #[test]
    fn request_stream_is_seeded_and_in_range() {
        let a = request_stream(7, 500, 300);
        assert_eq!(a, request_stream(7, 500, 300));
        assert_ne!(a, request_stream(8, 500, 300));
        assert!(a.iter().all(|&i| i < 300));
        // Every input of a 300-sample pool shows up in a long stream.
        let mut seen = vec![false; 300];
        request_stream(1, 10_000, 300).into_iter().for_each(|i| seen[i] = true);
        assert!(seen.iter().all(|&s| s));
    }
}
