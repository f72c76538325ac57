//! The replica fleet — the serving tier's one serving path: one admission
//! queue, N ≥ 1 independent serving replicas (each a full
//! `ServeEngine` deployment with its own wear ledger, forecaster, and
//! background remap worker), and the deterministic router in between. A
//! single-replica deployment is a fleet of one; [`crate::InferenceService`]
//! is a thin front over exactly that.
//!
//! The paper's aging story is per-chip: read disturb wears a crossbar's
//! devices, the resistance windows shrink, and aging-aware remapping buys
//! the mapping time. A deployment, though, serves from a *fleet* of chips,
//! and no two of them age at the same rate (process variation, thermal
//! gradients, unequal load). This module adds the fleet layer:
//!
//! * **Wear-balancing router** ([`RouterPolicy::WearBalance`]): each block
//!   of one maintenance interval's worth of consecutive admissions is
//!   routed whole to the replica with the least projected stress — its
//!   last published generation's stress total plus its *measured* burn
//!   rate times the load it would absorb. The `exp_fleet` bench gates
//!   that wear balancing yields a strictly tighter max/mean
//!   replica-stress ratio than the round-robin baseline on the same
//!   admitted sequence.
//! * **Per-replica observability**: when a replica has siblings, every
//!   wear checkpoint, forecast gauge, and tile series it emits is
//!   namespaced `replica{r}.` and its attribution ledger is tagged with
//!   the replica id (a fleet of one emits the plain, un-namespaced
//!   streams). The [`FleetHandler`] serves `GET /fleet` plus per-replica
//!   rows under `/serve/stats`, `/serve/latency`, and `/wear/attribution`.
//!
//! ## Thread layout
//!
//! * **Clients** call [`FleetService::infer`]: admission control happens
//!   inline on the shared queue (one global admission sequence — reject
//!   on full, no blocking push), then the client parks on its response
//!   slot.
//! * **Dispatcher** (`memaging-serve-dispatch`) — the router. Pops
//!   admitted requests in sequence order and routes each **block** (one
//!   maintenance interval's worth of consecutive admissions) whole to one
//!   replica, so a routed block is exactly one local maintenance interval
//!   on its replica. Within the block it forms batches — never across a
//!   block boundary — and fans them out over the shared `par` worker pool.
//!   Each worker keeps a persistent software-network clone (a
//!   [`SlotPool`] slot) lazily re-synced to the batch's `(replica,
//!   generation)` and delivers straight to the response slots.
//! * **Per-replica maintenance** (`memaging-serve-maint-{r}`) — consumes
//!   that replica's boundary jobs: wear accrual, generation publish, and
//!   the optional live remap, run *after* the publish so the sweep
//!   overlaps traffic.
//!
//! ## Determinism contract
//!
//! Routing is a pure function of the admission block index and of wear
//! snapshots read from **published mapping generations** — never from the
//! live network state, which maintenance threads mutate concurrently. The
//! dispatcher is each cell's only job producer, so "the newest generation
//! whose boundary job has been sent" is a deterministic read: the cell can
//! never hold a newer one. Per-request forwards are independent and wear
//! accrues per boundary from the routed-request *count* alone. Run the
//! same admission sequence at any worker-thread count and every routing
//! decision, per-request output, and per-replica final wear state is
//! bit-identical — `exp_fleet`, `exp_serve` and the integration tests
//! assert exactly that.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use memaging_crossbar::CrossbarNetwork;
use memaging_dataset::Dataset;
use memaging_lifetime::WearLedger;
use memaging_nn::Network;
use memaging_obs::Recorder;
use memaging_par::SlotPool;

pub use crate::config::{FleetConfig, RouterPolicy};
use crate::engine::ServeEngine;
use crate::error::ServeError;
use crate::generation::{GenerationCell, MappingGeneration};
pub use crate::http::FleetHandler;
use crate::queue::{RequestQueue, ResponseSlot};
use crate::request::{InferRequest, InferResponse};
use crate::stats::ServeStats;
use crate::worker::{declare_serve_histograms, dispatch_batch, form_batch, WorkerCtx};

/// One boundary job on a replica's maintenance channel: accrue one local
/// interval's wear and publish the next generation.
struct BoundaryJob {
    /// Local boundary index = generation id to publish.
    id: u64,
    /// Admitted requests routed to this replica in the interval.
    interval_requests: u64,
    /// `false` on the shutdown flush.
    allow_remap: bool,
}

/// Dispatcher-owned runtime state of one replica.
struct ReplicaRt {
    job_tx: mpsc::Sender<BoundaryJob>,
    generations: Arc<GenerationCell>,
    /// The replica's stats; the dispatcher is the only writer of
    /// [`ServeStats::routed`].
    stats: Arc<ServeStats>,
    /// Stress total of generation 0 — the baseline the measured burn rate
    /// is taken against.
    deploy_stress: f64,
    /// Full blocks routed so far == local maintenance intervals started.
    blocks: u64,
    /// Next local boundary id to send (== highest id sent + 1, so the
    /// newest generation the cell can hold is `next_boundary - 1`).
    next_boundary: u64,
    /// Last refreshed wear snapshot: (generation id, total stress). Read
    /// only from published generations.
    snap: (u64, f64),
}

/// Final report of one replica of a shut-down fleet.
pub struct ReplicaReport {
    /// Replica id.
    pub replica: usize,
    /// The replica's final hardware state — the ground truth the
    /// determinism bench asserts on.
    pub network: CrossbarNetwork,
    /// Requests served to completion by this replica.
    pub served: u64,
    /// Requests expired before dispatch while routed to this replica.
    pub expired: u64,
    /// Batches dispatched to this replica.
    pub batches: u64,
    /// Local maintenance boundaries processed.
    pub boundaries: u64,
    /// Drift-armed aging-aware remaps performed.
    pub remaps: u64,
    /// Requests routed to this replica.
    pub routed: u64,
    /// The replica's wear-attribution ledger (tagged with the replica id
    /// when the fleet has more than one replica).
    pub attribution: WearLedger,
}

/// Final report of a shut-down fleet.
pub struct FleetReport {
    /// Requests admitted (fleet-wide, one global sequence).
    pub admitted: u64,
    /// Requests rejected at admission (queue full).
    pub rejected_full: u64,
    /// Per-replica reports, indexed by replica id.
    pub replicas: Vec<ReplicaReport>,
}

impl FleetReport {
    /// Fleet-wide served count.
    pub fn served(&self) -> u64 {
        self.replicas.iter().map(|r| r.served).sum()
    }

    /// Per-replica total accrued stress (seconds), indexed by replica id.
    pub fn stress_per_replica(&self) -> Vec<f64> {
        self.replicas.iter().map(|r| r.network.tile_stress().iter().sum()).collect()
    }

    /// Max/mean ratio of per-replica total stress — the fleet imbalance
    /// the wear-balancing router minimizes (1.0 is perfectly balanced).
    pub fn wear_imbalance(&self) -> f64 {
        let stress = self.stress_per_replica();
        let mean = stress.iter().sum::<f64>() / stress.len().max(1) as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        stress.iter().copied().fold(0.0f64, f64::max) / mean
    }
}

/// Client-visible handle of one deployed replica.
struct ReplicaHandle {
    stats: Arc<ServeStats>,
    generations: Arc<GenerationCell>,
    ledger: Arc<Mutex<WearLedger>>,
    maintenance: Option<JoinHandle<ServeEngine>>,
}

/// The deployed replica fleet. Create with [`FleetService::deploy`], stop
/// with [`FleetService::shutdown`]. See the module docs for the thread
/// layout and determinism contract.
pub struct FleetService {
    queue: Arc<RequestQueue>,
    admitted: AtomicU64,
    rejected_full: AtomicU64,
    replicas: Vec<ReplicaHandle>,
    router: RouterPolicy,
    quantum: u64,
    input_dim: usize,
    recorder: Recorder,
    dispatcher: Option<JoinHandle<()>>,
}

impl FleetService {
    /// Deploys one replica per network (each performing its own initial
    /// aging-aware mapping against `calib`) and starts the router and the
    /// per-replica maintenance threads.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a bad config or a
    /// `networks`/`replicas` count mismatch; [`ServeError::Internal`] from
    /// the initial mappings or thread spawns.
    pub fn deploy(
        networks: Vec<CrossbarNetwork>,
        calib: Dataset,
        config: FleetConfig,
        recorder: Recorder,
    ) -> Result<FleetService, ServeError> {
        config.validate()?;
        if networks.len() != config.replicas {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "{} networks supplied for {} replicas",
                    networks.len(),
                    config.replicas
                ),
            });
        }
        declare_serve_histograms(&recorder);
        let mut handles = Vec::with_capacity(config.replicas);
        let mut rts = Vec::with_capacity(config.replicas);
        let mut base: Option<Network> = None;
        let mut input_dim = 0;
        for (r, network) in networks.into_iter().enumerate() {
            let stats = Arc::new(ServeStats::default());
            // Namespace a replica only when it has siblings: a fleet of one
            // emits the plain single-deployment streams.
            let (engine, initial) = ServeEngine::deploy(
                network,
                calib.clone(),
                config.replica_serve(r),
                recorder.clone(),
                Arc::clone(&stats),
                (config.replicas > 1).then_some(r),
            )?;
            if base.is_none() {
                input_dim = engine.input_dim();
                base = Some(engine.software_clone());
            }
            let ledger = engine.ledger();
            let generations = Arc::new(GenerationCell::default());
            generations.publish(Arc::clone(&initial));
            let (job_tx, job_rx) = mpsc::channel::<BoundaryJob>();
            let maintenance = {
                let generations = Arc::clone(&generations);
                let recorder = recorder.clone();
                std::thread::Builder::new()
                    .name(format!("memaging-serve-maint-{r}"))
                    .spawn(move || maintenance_loop(engine, &job_rx, &generations, &recorder))
                    .map_err(|e| ServeError::Internal { reason: e.to_string() })?
            };
            rts.push(ReplicaRt {
                job_tx,
                generations: Arc::clone(&generations),
                stats: Arc::clone(&stats),
                deploy_stress: initial.total_stress,
                blocks: 0,
                next_boundary: 1,
                snap: (0, initial.total_stress),
            });
            handles.push(ReplicaHandle {
                stats,
                generations,
                ledger,
                maintenance: Some(maintenance),
            });
        }
        let queue = Arc::new(RequestQueue::new(config.serve.queue_capacity));
        let dispatcher = {
            let queue = Arc::clone(&queue);
            let recorder = recorder.clone();
            let base = base.expect("replicas is nonzero by validate()");
            let config = config.clone();
            std::thread::Builder::new()
                .name("memaging-serve-dispatch".into())
                .spawn(move || dispatch_loop(&queue, rts, &recorder, &base, &config))
                .map_err(|e| ServeError::Internal { reason: e.to_string() })?
        };
        Ok(FleetService {
            queue,
            admitted: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            replicas: handles,
            router: config.router,
            quantum: config.serve.maintenance_interval,
            input_dim,
            recorder,
            dispatcher: Some(dispatcher),
        })
    }

    /// Submits one request and blocks until it is served, rejected, or
    /// expired; which replica serves it is the router's (deterministic)
    /// decision.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] for a malformed payload (checked before
    /// admission — no sequence number is consumed),
    /// [`ServeError::QueueFull`] when admission control rejects,
    /// [`ServeError::DeadlineExceeded`] when the deadline passes before
    /// dispatch, [`ServeError::Shutdown`] after shutdown began.
    pub fn infer(&self, request: InferRequest) -> Result<InferResponse, ServeError> {
        if request.input.len() != self.input_dim {
            return Err(ServeError::BadInput {
                reason: format!(
                    "expected {} input features, got {}",
                    self.input_dim,
                    request.input.len()
                ),
            });
        }
        if request.input.iter().any(|v| !v.is_finite()) {
            return Err(ServeError::BadInput { reason: "non-finite input value".into() });
        }
        let slot = Arc::new(ResponseSlot::default());
        let deadline = request.deadline.map(|d| Instant::now() + d);
        let seq = match self.queue.admit(request.input, deadline, Arc::clone(&slot)) {
            Ok(seq) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                seq
            }
            Err(e) => {
                if matches!(e, ServeError::QueueFull { .. }) {
                    self.rejected_full.fetch_add(1, Ordering::Relaxed);
                }
                return Err(e);
            }
        };
        // The root span of the request's trace chain: admission → delivery,
        // stamped with the trace id every downstream span carries.
        let _span = self.recorder.trace_span("serve.request", seq);
        slot.wait()
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The routing policy in force.
    pub fn router(&self) -> RouterPolicy {
        self.router
    }

    /// The expected number of input features per request.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Replica `r`'s live serving statistics.
    pub fn replica_stats(&self, r: usize) -> Option<&ServeStats> {
        self.replicas.get(r).map(|h| &*h.stats)
    }

    /// A snapshot of replica `r`'s wear-attribution ledger.
    pub fn wear_attribution(&self, r: usize) -> Option<WearLedger> {
        self.replicas
            .get(r)
            .map(|h| h.ledger.lock().unwrap_or_else(PoisonError::into_inner).clone())
    }

    /// Fleet-wide admission counters plus per-replica
    /// [`ServeStats`] rows, as the JSON body of `GET /serve/stats`.
    pub fn stats_json(&self) -> String {
        let mut out = String::with_capacity(256 * (1 + self.replicas.len()));
        let _ = write!(
            out,
            "{{\"admitted\":{},\"rejected_full\":{},\"router\":\"{}\",\"replicas\":[",
            self.admitted.load(Ordering::Relaxed),
            self.rejected_full.load(Ordering::Relaxed),
            self.router.label(),
        );
        for (r, handle) in self.replicas.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"replica\":{r},\"stats\":{}}}", handle.stats.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Per-replica latency histograms, as the JSON body of
    /// `GET /serve/latency`.
    pub fn latency_json(&self) -> String {
        let mut out = String::with_capacity(512 * (1 + self.replicas.len()));
        out.push_str("{\"replicas\":[");
        for (r, handle) in self.replicas.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"replica\":{r},\"latency\":{}}}", handle.stats.latency_json());
        }
        out.push_str("]}");
        out
    }

    /// Per-replica wear-attribution ledgers, as the JSON body of
    /// `GET /wear/attribution`.
    pub fn wear_attribution_json(&self) -> String {
        let mut out = String::with_capacity(256 * (1 + self.replicas.len()));
        out.push_str("{\"replicas\":[");
        for (r, handle) in self.replicas.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            out.push_str(&handle.ledger.lock().unwrap_or_else(PoisonError::into_inner).to_json());
        }
        out.push_str("]}");
        out
    }

    /// The fleet's routing and wear state, as the JSON body of
    /// `GET /fleet`: per replica its routed count, the wear snapshot of its
    /// latest published generation, and live served/boundary/remap
    /// counters.
    pub fn fleet_json(&self) -> String {
        let mut out = String::with_capacity(192 * (1 + self.replicas.len()));
        let _ = write!(
            out,
            "{{\"router\":\"{}\",\"quantum\":{},\"replicas\":[",
            self.router.label(),
            self.quantum,
        );
        for (r, handle) in self.replicas.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            let stats = &handle.stats;
            let generation =
                handle.generations.current().expect("generation 0 published at deploy");
            let _ = write!(
                out,
                "{{\"replica\":{r},\"routed\":{},\"snapshot_generation\":{},\
                 \"snapshot_stress\":{},\"worst_window_fraction\":{},\"served\":{},\
                 \"boundaries\":{},\"remaps\":{}}}",
                stats.routed.load(Ordering::Relaxed),
                generation.id,
                generation.total_stress,
                generation.worst_window_fraction,
                stats.served.load(Ordering::Relaxed),
                stats.boundaries.load(Ordering::Relaxed),
                stats.remaps.load(Ordering::Relaxed),
            );
        }
        out.push_str("]}");
        out
    }

    /// Stops admission, drains every queued request, flushes each
    /// replica's final partial interval's wear, joins all threads, and
    /// returns the final report.
    pub fn shutdown(mut self) -> FleetReport {
        self.queue.close();
        if let Some(dispatcher) = self.dispatcher.take() {
            if let Err(payload) = dispatcher.join() {
                std::panic::resume_unwind(payload);
            }
        }
        let mut replicas = Vec::with_capacity(self.replicas.len());
        for (r, mut handle) in std::mem::take(&mut self.replicas).into_iter().enumerate() {
            let engine = match handle.maintenance.take().map(JoinHandle::join) {
                Some(Ok(engine)) => engine,
                Some(Err(payload)) => std::panic::resume_unwind(payload),
                None => unreachable!("maintenance threads exist until shutdown"),
            };
            replicas.push(ReplicaReport {
                replica: r,
                network: engine.into_network(),
                served: handle.stats.served.load(Ordering::Relaxed),
                expired: handle.stats.expired.load(Ordering::Relaxed),
                batches: handle.stats.batches.load(Ordering::Relaxed),
                boundaries: handle.stats.boundaries.load(Ordering::Relaxed),
                remaps: handle.stats.remaps.load(Ordering::Relaxed),
                routed: handle.stats.routed.load(Ordering::Relaxed),
                attribution: handle.ledger.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            });
        }
        FleetReport {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            replicas,
        }
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        if self.dispatcher.is_none() && self.replicas.is_empty() {
            return; // Shut down properly.
        }
        self.queue.close();
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        for handle in &mut self.replicas {
            if let Some(maintenance) = handle.maintenance.take() {
                let _ = maintenance.join();
            }
        }
    }
}

impl ReplicaRt {
    /// Requests routed to this replica so far.
    fn routed(&self) -> u64 {
        self.stats.routed.load(Ordering::Relaxed)
    }

    /// Deterministic wear snapshot: the newest generation whose boundary
    /// job has been sent. The dispatcher is the cell's only job producer,
    /// so the cell can never hold a newer one — `wait_for` returns exactly
    /// generation `next_boundary - 1` (blocking only while that boundary
    /// itself is still being processed).
    fn refresh_snapshot(&mut self) {
        let generation = self.generations.wait_for(self.next_boundary - 1);
        self.snap = (generation.id, generation.total_stress);
    }

    /// Projected stress after absorbing one more block: the snapshot's
    /// stress total plus the measured per-request burn rate (snapshot
    /// stress minus deploy stress, over the requests the snapshot covers)
    /// times the requests routed past the snapshot plus one full block.
    fn projected_stress(&self, quantum: u64) -> f64 {
        let (id, stress) = self.snap;
        let covered = id * quantum;
        let rate = if covered > 0 { (stress - self.deploy_stress) / covered as f64 } else { 0.0 };
        let pending = self.routed() - covered;
        stress + rate * (pending + quantum) as f64
    }

    /// Queues boundary job `next_boundary`; `false` when maintenance died.
    fn send_boundary(&mut self, interval_requests: u64, allow_remap: bool) -> bool {
        let job = BoundaryJob { id: self.next_boundary, interval_requests, allow_remap };
        let sent = self.job_tx.send(job).is_ok();
        if sent {
            self.next_boundary += 1;
        }
        sent
    }
}

/// The router: pops admitted requests in sequence order, routes each block
/// whole to one replica, and serves its batches on the shared worker pool.
fn dispatch_loop(
    queue: &RequestQueue,
    mut reps: Vec<ReplicaRt>,
    recorder: &Recorder,
    base: &Network,
    config: &FleetConfig,
) {
    let quantum = config.serve.maintenance_interval;
    let mut pool: SlotPool<WorkerCtx> = SlotPool::new();
    let mut current_block: Option<u64> = None;
    let mut target: usize = 0;
    // The target's local interval index for the current block (its block
    // count at the block start).
    let mut local_interval: u64 = 0;
    while let Some(first) = queue.pop_blocking() {
        let block = first.seq / quantum;
        if current_block != Some(block) {
            // Admission sequences are popped in order, so each block's
            // requests are contiguous: one routing decision covers them
            // all.
            current_block = Some(block);
            target = route(block, &mut reps, config);
            local_interval = reps[target].blocks;
            reps[target].blocks += 1;
        }
        let boundary_seq = (block + 1) * quantum;
        let (batch, linger_us) =
            form_batch(queue, first, boundary_seq, config.serve.max_batch, config.serve.max_linger);
        let rt = &mut reps[target];
        rt.stats.latency().linger.record(0, linger_us);
        recorder.observe("serve.linger_us", linger_us as f64);
        rt.stats.routed.fetch_add(batch.len() as u64, Ordering::Relaxed);
        // Ask the target's maintenance thread for every generation up to
        // this block's local interval, then wait for it (normally a single
        // step; the wait only stalls while the boundary job itself runs —
        // never for a remap, which executes after the publish).
        while rt.next_boundary <= local_interval {
            if !rt.send_boundary(quantum, true) {
                break; // Maintenance died; entries fail below.
            }
        }
        let generation = rt.generations.wait_for(local_interval);
        dispatch_batch(batch, target, &generation, &mut pool, base, &rt.stats, recorder);
    }
    // Queue closed and drained: flush each replica's final partial
    // interval's wear so the reported hardware state covers every routed
    // request.
    for rt in &mut reps {
        let flushed = (rt.next_boundary - 1) * quantum;
        if rt.routed() > flushed {
            rt.send_boundary(rt.routed() - flushed, false);
        }
    }
    // Dropping the senders ends each maintenance loop after it has
    // processed every queued job.
}

/// Block-start routing: picks the block's target replica. Every input is
/// deterministic — the block index, dispatcher-local counters, and
/// published-generation snapshots.
fn route(block: u64, reps: &mut [ReplicaRt], config: &FleetConfig) -> usize {
    let n = reps.len();
    match config.router {
        RouterPolicy::RoundRobin => (block % n as u64) as usize,
        RouterPolicy::WearBalance => {
            if n == 1 {
                return 0;
            }
            for rt in reps.iter_mut() {
                rt.refresh_snapshot();
            }
            // Warmup: until every replica has absorbed a block, the burn
            // rates aren't comparable — deal in index order.
            if let Some(cold) = reps.iter().position(|rt| rt.blocks == 0) {
                return cold;
            }
            // Least projected stress, scanning from a block-rotated start
            // so exact ties don't starve higher indices.
            let quantum = config.serve.maintenance_interval;
            let start = (block % n as u64) as usize;
            let mut best = start;
            let mut best_cost = reps[best].projected_stress(quantum);
            for i in 1..n {
                let r = (start + i) % n;
                let cost = reps[r].projected_stress(quantum);
                if cost < best_cost {
                    best = r;
                    best_cost = cost;
                }
            }
            best
        }
    }
}

/// Per-replica maintenance: the boundary pipeline (wear accrual,
/// generation publish, optional live remap).
fn maintenance_loop(
    mut engine: ServeEngine,
    jobs: &mpsc::Receiver<BoundaryJob>,
    generations: &GenerationCell,
    recorder: &Recorder,
) -> ServeEngine {
    let replica = engine.replica().unwrap_or(0);
    while let Ok(BoundaryJob { id, interval_requests, allow_remap }) = jobs.recv() {
        match engine.boundary(id, interval_requests) {
            Ok(generation) => generations.publish(generation),
            Err(e) => {
                // The router is (or will be) waiting on this generation
                // id: republish the previous weights under the new id so
                // serving continues, and raise the alarm.
                recorder.alert(
                    memaging_obs::AlertSeverity::Critical,
                    "serve.boundary_failed",
                    id as f64,
                    0.0,
                    &format!("replica {replica} boundary {id} failed, serving stale mapping: {e}"),
                );
                let prior = generations.current().expect("generation 0 published at deploy");
                generations.publish(Arc::new(MappingGeneration {
                    id,
                    weights: prior.weights.clone(),
                    worst_window_fraction: prior.worst_window_fraction,
                    total_stress: prior.total_stress,
                    remaps: prior.remaps,
                }));
            }
        }
        if allow_remap {
            // Runs *after* the publish: the sweep overlaps live traffic on
            // the sibling replicas and this one.
            engine.maybe_remap();
        }
    }
    engine
}
