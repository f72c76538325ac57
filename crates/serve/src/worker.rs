//! Batch formation and worker-pool dispatch for the fleet dispatcher
//! ([`crate::fleet`]).
//!
//! A [`WorkerCtx`] is one worker's persistent software-network clone,
//! lazily re-synced to the `(replica, generation)` a batch is served
//! from. The sync key carries the replica id because a fleet worker slot
//! serves batches from *different* replicas back to back: two replicas'
//! generations can share an id while holding different weights, so the
//! generation id alone would serve stale bytes.
//!
//! Everything here preserves the serve tier's determinism contract: a
//! request's output depends only on its input and the serving
//! generation's weight bits — never on batch composition, worker count,
//! or which replica's batch a worker context last held.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use memaging_nn::{Mode, Network};
use memaging_obs::Recorder;
use memaging_par::SlotPool;
use memaging_tensor::Tensor;

use crate::error::ServeError;
use crate::generation::MappingGeneration;
use crate::queue::{Entry, RequestQueue};
use crate::request::InferResponse;
use crate::stats::ServeStats;

/// Poll period while the batcher lingers for more requests.
pub(crate) const LINGER_POLL: Duration = Duration::from_micros(100);

/// Declares the serving tier's Prometheus histograms on `recorder` — one
/// set for the whole fleet (request latency is a tier-wide property;
/// per-replica latency lives in each replica's [`ServeStats`]).
pub(crate) fn declare_serve_histograms(recorder: &Recorder) {
    recorder.declare_histogram(
        "serve.queue_wait_us",
        &[100.0, 500.0, 1_000.0, 5_000.0, 20_000.0, 100_000.0, 500_000.0],
    );
    recorder.declare_histogram(
        "serve.service_us",
        &[100.0, 500.0, 1_000.0, 5_000.0, 20_000.0, 100_000.0, 500_000.0],
    );
    recorder.declare_histogram("serve.batch_size", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
    // Power-of-2 bounds (2^k - 1) mirroring the ShardedHistogram bucket
    // scheme, so Prometheus buckets and /serve/latency buckets line up.
    recorder.declare_histogram(
        "serve.linger_us",
        &[127.0, 511.0, 2_047.0, 8_191.0, 32_767.0, 131_071.0],
    );
    recorder.declare_histogram(
        "serve.e2e_us",
        &[127.0, 511.0, 2_047.0, 8_191.0, 32_767.0, 131_071.0, 524_287.0],
    );
}

/// Per-worker inference context: a software-network clone plus the
/// `(replica, generation)` its weights are synced to.
pub(crate) struct WorkerCtx {
    network: Network,
    /// `(replica, generation id)` the weights are synced to.
    synced: (usize, u64),
}

impl WorkerCtx {
    /// A fresh, not-yet-synced context over a clone of `base`.
    pub fn new(base: &Network) -> Self {
        WorkerCtx { network: base.clone(), synced: (usize::MAX, u64::MAX) }
    }
}

/// Forms one batch starting from `first`: pops queued requests while they
/// stay below `boundary_seq` (a batch never crosses a maintenance
/// boundary), up to `max_batch`, lingering at most `max_linger` for more.
/// Returns the batch and the linger time in microseconds.
pub(crate) fn form_batch(
    queue: &RequestQueue,
    first: Entry,
    boundary_seq: u64,
    max_batch: usize,
    max_linger: Duration,
) -> (Vec<Entry>, u64) {
    let mut batch = vec![first];
    let linger_started = Instant::now();
    let linger_until = linger_started + max_linger;
    while batch.len() < max_batch {
        if let Some(entry) = queue.pop_if_below(boundary_seq) {
            batch.push(entry);
            continue;
        }
        // Don't linger on an empty closed queue — drain fast.
        if queue.is_closed() || Instant::now() >= linger_until {
            break;
        }
        std::thread::sleep(LINGER_POLL);
    }
    (batch, linger_started.elapsed().as_micros() as u64)
}

/// Serves one formed batch of `replica` from `generation`. Expired
/// requests are answered without touching a worker; live requests fan out
/// over the `par` worker pool and are forwarded independently, so a
/// response's bytes never depend on how the racy admission stream grouped
/// into batches. The `serve.forward` span covers exactly the forward
/// computation — generation sync (a maintenance cost, paid once per remap)
/// runs before the span opens, and delivery / accounting run after it
/// closes.
pub(crate) fn dispatch_batch(
    batch: Vec<Entry>,
    replica: usize,
    generation: &MappingGeneration,
    pool: &mut SlotPool<WorkerCtx>,
    base: &Network,
    stats: &ServeStats,
    recorder: &Recorder,
) {
    let now = Instant::now();
    let mut live: Vec<(Entry, u64)> = Vec::with_capacity(batch.len());
    for entry in batch {
        let queue_us = now.duration_since(entry.ctx.admitted_at).as_micros() as u64;
        recorder.observe("serve.queue_wait_us", queue_us as f64);
        stats.latency().queue_wait.record(0, queue_us);
        if entry.deadline.is_some_and(|deadline| deadline < now) {
            stats.expired.fetch_add(1, Ordering::Relaxed);
            recorder.counter("serve.expired", 1);
            entry.slot.deliver(Err(ServeError::DeadlineExceeded));
            continue;
        }
        live.push((entry, queue_us));
    }
    if live.is_empty() {
        return;
    }
    stats.record_batch(live.len());
    recorder.observe("serve.batch_size", live.len() as f64);
    // The batch span carries its first request's trace id — the batch's
    // admission-order identity.
    let span = recorder.trace_span("serve.batch", live[0].0.seq);
    pool.ensure_slots(memaging_par::num_threads().max(1));
    let pool = &*pool;
    let live = &live;
    memaging_par::par_map_init(
        live.len(),
        |worker| (worker, pool.lease(worker)),
        |(worker, lease), i| {
            let ctx = lease.get_or_insert_with(|| WorkerCtx::new(base));
            let (entry, queue_us) = &live[i];
            let started = Instant::now();
            let result = resync(ctx, replica, generation).and_then(|()| {
                let _span = recorder.worker_trace_span("serve.forward", *worker, entry.seq);
                serve_one(ctx, &entry.input)
            });
            let service_us = started.elapsed().as_micros() as u64;
            let outcome = result.map(|(output, prediction)| {
                stats.served.fetch_add(1, Ordering::Relaxed);
                stats.record_latency(*queue_us, service_us);
                stats.latency().forward.record(*worker, service_us);
                let e2e_us = entry.ctx.admitted_at.elapsed().as_micros() as u64;
                stats.latency().e2e.record(*worker, e2e_us);
                recorder.observe("serve.service_us", service_us as f64);
                recorder.observe("serve.e2e_us", e2e_us as f64);
                InferResponse {
                    seq: entry.seq,
                    generation: generation.id,
                    output,
                    prediction,
                    queue_us: *queue_us,
                    service_us,
                }
            });
            entry.slot.deliver(outcome);
        },
    );
    drop(span);
}

/// Syncs a worker context's weights to `replica`'s `generation` if needed.
fn resync(
    ctx: &mut WorkerCtx,
    replica: usize,
    generation: &MappingGeneration,
) -> Result<(), ServeError> {
    if ctx.synced != (replica, generation.id) {
        ctx.network
            .set_weight_matrices(&generation.weights)
            .map_err(|e| ServeError::Internal { reason: e.to_string() })?;
        ctx.synced = (replica, generation.id);
    }
    Ok(())
}

/// Forwards one input through the worker's network. The caller must have
/// [`resync`]ed the context to the serving generation first.
fn serve_one(ctx: &mut WorkerCtx, input: &[f32]) -> Result<(Vec<f32>, usize), ServeError> {
    let input = Tensor::from_vec(input.to_vec(), [1, input.len()])
        .map_err(|e| ServeError::Internal { reason: e.to_string() })?;
    let output = ctx
        .network
        .forward(&input, Mode::Eval)
        .map_err(|e| ServeError::Internal { reason: e.to_string() })?
        .into_vec();
    let mut prediction = 0;
    for (i, &v) in output.iter().enumerate() {
        if v > output[prediction] {
            prediction = i;
        }
    }
    Ok((output, prediction))
}
