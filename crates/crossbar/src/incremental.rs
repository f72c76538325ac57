//! Incremental candidate evaluation for the aging-aware range-selection
//! sweep (paper §IV-B, Fig. 8).
//!
//! The naive sweep re-does, per candidate window, four pieces of work that
//! do not actually depend on the candidate: cloning the software network
//! and every weight matrix, re-deriving the percentile weight range (a full
//! sort), forwarding the calibration batch through the unchanged layers
//! below the swept one, and re-quantizing every cell from scratch. This
//! module removes each of those while keeping the *selection result*
//! bit-identical to [`crate::select_range`] at every thread count:
//!
//! 1. **Persistent per-worker contexts** ([`EvalEngine`]): one cloned
//!    network per worker thread, leased from a
//!    [`memaging_par::SlotPool`] that lives across all layers and all map
//!    epochs. A generation counter re-syncs the trained weights lazily at
//!    the first lease of each mapping epoch, and a dirty-layer tag restores
//!    the previously swept layer before the next one starts — so steady
//!    state does zero allocation and copies only what changed.
//! 2. **Prefix-activation caching**: the calibration batch is forwarded
//!    through layers `0..net_layer` once per sweep (`map.prefix` span);
//!    candidates replay only the suffix from the cached activations
//!    (`map.replay` spans) via [`memaging_nn::Network::forward_from`].
//!    Eval-mode forwards are pure, so splitting the pass is exact.
//! 3. **Quantization memoization**: the percentile weight range is derived
//!    once per sweep (it is window-independent — see
//!    [`crate::mapping::WeightRange`]); per candidate, the per-cell
//!    quantize→clamp→invert chain is memoized per (estimate window, level)
//!    — both factors take few distinct values — with the exact float
//!    expressions of the naive path. Candidates whose simulated weight
//!    matrices come out bit-identical (adjacent `r_max` bounds often
//!    quantize identically at 32 levels) share one evaluation: equal
//!    matrices evaluate to equal accuracies by determinism of the forward
//!    pass.
//! 4. **Exact-bound early exit** ([`PruneGate`]): a candidate's accuracy
//!    pass aborts only when even acing all remaining samples provably
//!    cannot lift it above the adoption threshold it will face in the
//!    widest-first fold. Aborted candidates report a truncated (lower)
//!    accuracy, which can never be adopted nor loosen another candidate's
//!    bound unsoundly — so the fold's adoption sequence, the selected
//!    window, its accuracy, and `candidates_tried` are unchanged (see the
//!    safety argument on [`PruneGate`]).

use std::sync::atomic::{AtomicU64, Ordering};

use memaging_dataset::Dataset;
use memaging_device::{AgedWindow, DeviceSpec, Ohms, Quantizer};
use memaging_nn::{Mode, Network};
use memaging_obs::{names, Recorder};
use memaging_par::{SlotLease, SlotPool};
use memaging_tensor::scratch::ScratchArena;
use memaging_tensor::Tensor;

use crate::error::CrossbarError;
use crate::mapping::{WeightMapping, WeightRange};
use crate::range_select::{candidate_upper_bounds, fold_candidates, RangeSelection};
use crate::tile::BlockMap;
use crate::tracer::TracedEstimate;

/// Absolute slack subtracted from the certified prune bound before
/// comparing: float accumulation of per-batch accuracies can differ from
/// the upper bound's arithmetic by a few ulps, and the cost of pruning a
/// hair too late is a handful of batches — the cost of pruning wrongly
/// would be a changed selection.
const PRUNE_SLACK: f64 = 1e-9;

/// Everything a sweep needs to know about the layer under selection.
pub(crate) struct SweepParams<'a> {
    /// Trained weight matrices of every mappable layer, borrowed.
    pub trained: &'a [&'a Tensor],
    /// Mappable index of the layer being swept.
    pub layer: usize,
    /// Network layer index of `layer` (prefix boundary).
    pub net_layer: usize,
    /// Resolved per-device aged-window estimates.
    pub blocks: &'a BlockMap,
    /// The device spec (fresh quantization grid).
    pub spec: &'a DeviceSpec,
    /// Calibration data scoring the candidates.
    pub data: &'a Dataset,
    /// Calibration batch size.
    pub batch: usize,
    /// Outlier percentile for the weight-range derivation.
    pub percentile: f64,
}

/// One worker's persistent evaluation state.
struct EvalContext {
    net: Network,
    /// Mapping epoch whose trained weights `net` holds.
    generation: u64,
    /// Mappable layer whose matrix currently holds candidate values.
    dirty: Option<usize>,
}

impl EvalContext {
    fn new(software: &Network) -> Self {
        EvalContext { net: software.clone(), generation: 0, dirty: None }
    }
}

/// The persistent incremental-evaluation engine owned by a
/// [`crate::CrossbarNetwork`].
pub(crate) struct EvalEngine {
    /// Per-worker contexts, alive across sweeps and map epochs.
    pool: SlotPool<EvalContext>,
    /// Dedicated context for prefix forwards: worker contexts carry dirty
    /// swept layers, the prefix must come from fully trained weights.
    prefix: Option<EvalContext>,
    /// Bumped per map epoch; contexts lazily re-sync trained weights.
    generation: u64,
    /// Arena for the serial candidate-matrix build on the driving thread.
    arena: ScratchArena,
}

impl EvalEngine {
    pub(crate) fn new() -> Self {
        EvalEngine {
            pool: SlotPool::new(),
            prefix: None,
            generation: 0,
            arena: ScratchArena::new(),
        }
    }

    /// Starts a new mapping epoch: the next lease of every context re-syncs
    /// the (possibly retrained) software weights.
    pub(crate) fn begin_epoch(&mut self) {
        self.generation += 1;
    }

    /// Runs the full candidate sweep for one layer, returning the selection
    /// [`crate::select_range`] would have produced.
    pub(crate) fn sweep(
        &mut self,
        software: &Network,
        estimates: &[TracedEstimate],
        fresh_r_min: f64,
        p: &SweepParams<'_>,
        recorder: &Recorder,
    ) -> Result<RangeSelection, CrossbarError> {
        let _sweep_span = recorder.span(names::MAP_SWEEP);
        if estimates.is_empty() {
            return Err(CrossbarError::InvalidMapping {
                reason: "range selection needs at least one traced estimate".into(),
            });
        }
        let candidates = candidate_upper_bounds(estimates, fresh_r_min);
        if candidates.is_empty() {
            return fold_candidates(fresh_r_min, std::iter::empty());
        }

        let prefix = self.prefix_activations(software, p, recorder)?;
        let range =
            WeightRange::from_weights_percentile(p.trained[p.layer].as_slice(), p.percentile)?;
        let quantizer = Quantizer::from_spec(p.spec)?;
        let level_r: Vec<f64> =
            (0..quantizer.levels()).map(|k| quantizer.level_resistance(k).value()).collect();

        // Serial build of every candidate's simulated weight matrix, with
        // bitwise deduplication: adjacent candidate bounds frequently
        // quantize to the same matrix, and equal matrices evaluate equal.
        let n_cells = p.trained[p.layer].len();
        let mut uniques: Vec<Vec<f32>> = Vec::new();
        let mut hashes: Vec<u64> = Vec::new();
        let mut first_pos: Vec<usize> = Vec::new();
        let mut groups: Vec<Result<usize, CrossbarError>> = Vec::with_capacity(candidates.len());
        for (pos, &r_max) in candidates.iter().enumerate() {
            let window = AgedWindow { r_min: fresh_r_min, r_max };
            let mapping = match WeightMapping::from_range(range, window) {
                Ok(m) => m,
                Err(e) => {
                    groups.push(Err(e));
                    continue;
                }
            };
            let mut buf = self.arena.take(n_cells);
            build_candidate_matrix(&mapping, &quantizer, &level_r, p, &mut buf);
            let hash = fnv1a(&buf);
            let existing = hashes
                .iter()
                .enumerate()
                .position(|(u, &h)| h == hash && bits_equal(&uniques[u], &buf));
            match existing {
                Some(u) => {
                    groups.push(Ok(u));
                    self.arena.give(buf);
                }
                None => {
                    groups.push(Ok(uniques.len()));
                    hashes.push(hash);
                    first_pos.push(pos);
                    uniques.push(buf);
                }
            }
        }

        // Parallel evaluation of the unique matrices on the persistent
        // worker contexts, with exact-bound pruning.
        self.pool.ensure_slots(memaging_par::num_threads());
        let gate = PruneGate::new(&first_pos);
        let pool = &self.pool;
        let generation = self.generation;
        let results: Vec<Result<f64, CrossbarError>> = memaging_par::par_map_init(
            uniques.len(),
            |worker| (worker, lease_synced(pool, worker, generation, software, p)),
            |(worker, lease), u| {
                let ctx = lease.as_mut().expect("populated by lease_synced");
                evaluate_matrix(
                    ctx,
                    &uniques[u],
                    &prefix,
                    p,
                    Some((first_pos[u], u, &gate)),
                    recorder,
                    *worker,
                )
            },
        );

        // Re-expand unique results to candidate order and fold exactly like
        // the naive sweep. An error is moved out at its first (widest)
        // duplicate position; the fold stops there, so the placeholder left
        // behind is never read.
        let mut unique_results = results;
        let mut per_candidate: Vec<(f64, Result<f64, CrossbarError>)> =
            Vec::with_capacity(candidates.len());
        for (pos, group) in groups.into_iter().enumerate() {
            let result = match group {
                Ok(u) => match &unique_results[u] {
                    Ok(a) => Ok(*a),
                    Err(_) => std::mem::replace(&mut unique_results[u], Ok(f64::NEG_INFINITY)),
                },
                Err(e) => Err(e),
            };
            per_candidate.push((candidates[pos], result));
        }
        for buf in uniques {
            self.arena.give(buf);
        }
        fold_candidates(fresh_r_min, per_candidate.into_iter())
    }

    /// Evaluates a single window (the hysteresis re-check of the previous
    /// epoch's window) with full accuracy — no pruning — on the worker-0
    /// context. Bit-identical to the naive simulation of the same window.
    pub(crate) fn evaluate_window(
        &mut self,
        software: &Network,
        window: AgedWindow,
        p: &SweepParams<'_>,
        recorder: &Recorder,
    ) -> Result<f64, CrossbarError> {
        let prefix = self.prefix_activations(software, p, recorder)?;
        let range =
            WeightRange::from_weights_percentile(p.trained[p.layer].as_slice(), p.percentile)?;
        let mapping = WeightMapping::from_range(range, window)?;
        let quantizer = Quantizer::from_spec(p.spec)?;
        let level_r: Vec<f64> =
            (0..quantizer.levels()).map(|k| quantizer.level_resistance(k).value()).collect();
        let mut buf = self.arena.take(p.trained[p.layer].len());
        build_candidate_matrix(&mapping, &quantizer, &level_r, p, &mut buf);
        self.pool.ensure_slots(1);
        let mut lease = lease_synced(&self.pool, 0, self.generation, software, p);
        let ctx = lease.as_mut().expect("populated by lease_synced");
        let acc = evaluate_matrix(ctx, &buf, &prefix, p, None, recorder, 0);
        drop(lease);
        self.arena.give(buf);
        acc
    }

    /// Forwards the calibration batches through the unchanged layers
    /// `0..net_layer` once, from fully trained weights.
    fn prefix_activations(
        &mut self,
        software: &Network,
        p: &SweepParams<'_>,
        recorder: &Recorder,
    ) -> Result<Vec<PrefixBatch>, CrossbarError> {
        let _span = recorder.span(names::MAP_PREFIX);
        let ctx = self.prefix.get_or_insert_with(|| EvalContext::new(software));
        if ctx.generation != self.generation {
            for (i, t) in p.trained.iter().enumerate() {
                ctx.net.set_weight_matrix(i, t.as_slice())?;
            }
            ctx.generation = self.generation;
        }
        let mut out = Vec::new();
        for (input, labels) in p.data.batches(p.batch.max(1)) {
            let act = ctx.net.forward_prefix(p.net_layer, &input, Mode::Eval)?;
            out.push(PrefixBatch { act, labels: labels.to_vec() });
        }
        Ok(out)
    }
}

/// One cached calibration batch of the sweep: the prefix activation and
/// its labels.
struct PrefixBatch {
    act: Tensor,
    labels: Vec<usize>,
}

/// Leases worker `worker`'s persistent context, creating it on first use
/// and bringing its weights up to date: a full trained-weight sync on the
/// first lease of a mapping epoch, otherwise only restoring a layer left
/// dirty by a previous sweep.
fn lease_synced<'pool>(
    pool: &'pool SlotPool<EvalContext>,
    worker: usize,
    generation: u64,
    software: &Network,
    p: &SweepParams<'_>,
) -> SlotLease<'pool, EvalContext> {
    let mut lease = pool.lease(worker);
    let ctx = lease.get_or_insert_with(|| EvalContext::new(software));
    if ctx.generation != generation {
        for (i, t) in p.trained.iter().enumerate() {
            ctx.net
                .set_weight_matrix(i, t.as_slice())
                .expect("trained weights match the cloned architecture");
        }
        ctx.generation = generation;
        ctx.dirty = None;
    } else if let Some(d) = ctx.dirty {
        if d != p.layer {
            ctx.net
                .set_weight_matrix(d, p.trained[d].as_slice())
                .expect("trained weights match the cloned architecture");
            ctx.dirty = None;
        }
    }
    lease
}

/// Builds the simulated weight matrix of one candidate window into `out`,
/// with the exact per-cell float operations of the naive path:
/// `w → g` (eq. 4), nearest fresh level, clamp into the cell's estimated
/// block window, inverse map. The last three steps depend only on
/// `(estimate window, level index)`, so they are computed once per distinct
/// pair via a lazily filled table.
fn build_candidate_matrix(
    mapping: &WeightMapping,
    quantizer: &Quantizer,
    level_r: &[f64],
    p: &SweepParams<'_>,
    out: &mut [f32],
) {
    let w = p.trained[p.layer].as_slice();
    let cols = p.trained[p.layer].dims()[1];
    let n_windows = p.blocks.windows().len();
    let levels = level_r.len();
    // Flat (window, level) table; NAN sentinel marks unfilled entries — a
    // real entry is never NAN (finite mapping over a positive resistance).
    let mut table = vec![f32::NAN; n_windows * levels];
    for (i, slot) in out.iter_mut().enumerate() {
        let (row, col) = (i / cols, i % cols);
        let g = mapping.weight_to_conductance(w[i] as f64);
        // Fresh-grid quantization in the resistance domain.
        let k = quantizer.nearest_level(Ohms::new(1.0 / g).expect("g > 0"));
        let wi = p.blocks.window_index(row, col) as usize;
        let entry = &mut table[wi * levels + k];
        if entry.is_nan() {
            // Clamp the quantized level into the estimated window of this
            // cell's block, then invert eq. 4 — same expressions, same
            // bits, as the per-cell naive chain.
            let r = p.blocks.windows()[wi].clamp(level_r[k]);
            *entry = mapping.conductance_to_weight(1.0 / r) as f32;
        }
        *slot = *entry;
    }
}

/// Runs the accuracy pass of one simulated weight matrix on a worker
/// context, replaying cached prefix activations through the suffix layers.
/// With `prune` set, the pass aborts once the remaining samples provably
/// cannot clear the candidate's certified adoption bound; the truncated
/// accuracy (unprocessed samples counted wrong) is reported instead.
fn evaluate_matrix(
    ctx: &mut EvalContext,
    matrix: &[f32],
    prefix: &[PrefixBatch],
    p: &SweepParams<'_>,
    prune: Option<(usize, usize, &PruneGate)>,
    recorder: &Recorder,
    worker: usize,
) -> Result<f64, CrossbarError> {
    let _span = recorder.worker_span(names::MAP_CANDIDATE, worker);
    ctx.net.set_weight_matrix(p.layer, matrix)?;
    ctx.dirty = Some(p.layer);
    let n_total: usize = prefix.iter().map(|b| b.labels.len()).sum();
    if n_total == 0 {
        return Ok(0.0);
    }
    let mut correct = 0.0f64;
    let mut processed = 0usize;
    for PrefixBatch { act, labels } in prefix {
        if labels.is_empty() {
            continue;
        }
        let logits = {
            let _replay = recorder.worker_span(names::MAP_REPLAY, worker);
            ctx.net.forward_from(p.net_layer, act, Mode::Eval)?
        };
        let acc = memaging_nn::loss::accuracy(&logits, labels)?;
        correct += acc * labels.len() as f64;
        processed += labels.len();
        if let Some((pos, u, gate)) = prune {
            if processed < n_total {
                let upper = (correct + (n_total - processed) as f64) / n_total as f64;
                if upper < gate.bound_before(pos) - PRUNE_SLACK {
                    let truncated = correct / n_total as f64;
                    gate.complete(u, truncated);
                    return Ok(truncated);
                }
            }
        }
    }
    let accuracy = correct / n_total as f64;
    if let Some((_, u, gate)) = prune {
        gate.complete(u, accuracy);
    }
    Ok(accuracy)
}

/// Shared prune state: per unique candidate, the reported accuracy once its
/// evaluation completed (possibly truncated), plus each unique's earliest
/// fold position.
///
/// **Safety argument.** Let `T_i = best_i + MIN_IMPROVEMENT` be the
/// adoption threshold the widest-first fold applies at position `i`
/// (non-decreasing in `i`, since the running best only improves). Every
/// *reported* accuracy at a position `j` satisfies `reported_j <= T_i` for
/// all `i > j`: an adopted candidate's accuracy becomes the running best
/// (`<= T_i - MIN_IMPROVEMENT`), a rejected one was `<= T_j <= T_i`, and a
/// truncated one is below the bound it was pruned against (induction).
/// Therefore `bound_before(i) = max` reported accuracy over completed
/// positions `< i` never exceeds `T_i`. A candidate is aborted only when
/// even a perfect score on the remaining samples leaves it strictly below
/// that bound — hence strictly below `T_i` at its own position *and every
/// later duplicate position* — so it could never have been adopted, and
/// reporting its truncated (smaller) accuracy changes no fold decision.
/// Adopted candidates are consequently never truncated: selection, accuracy
/// and `candidates_tried` are bit-identical to the naive sweep. Timing
/// affects only *how early* a doomed candidate stops, never the outcome.
struct PruneGate {
    /// Per unique candidate: reported accuracy bits, or `u64::MAX` (a
    /// negative-NaN pattern no real accuracy produces) while pending.
    accs: Vec<AtomicU64>,
    /// Earliest fold position of each unique candidate.
    first_pos: Vec<usize>,
}

impl PruneGate {
    fn new(first_pos: &[usize]) -> Self {
        PruneGate {
            accs: first_pos.iter().map(|_| AtomicU64::new(u64::MAX)).collect(),
            first_pos: first_pos.to_vec(),
        }
    }

    /// Largest reported accuracy among completed uniques whose earliest
    /// fold position precedes `pos` — a certified lower bound on nothing
    /// and upper-bounded by `T_pos` (see the type docs). `-inf` when none
    /// completed yet, which disables pruning.
    fn bound_before(&self, pos: usize) -> f64 {
        let mut bound = f64::NEG_INFINITY;
        for (acc, &fp) in self.accs.iter().zip(&self.first_pos) {
            if fp < pos {
                let bits = acc.load(Ordering::Acquire);
                if bits != u64::MAX {
                    bound = bound.max(f64::from_bits(bits));
                }
            }
        }
        bound
    }

    fn complete(&self, unique: usize, accuracy: f64) {
        self.accs[unique].store(accuracy.to_bits(), Ordering::Release);
    }
}

/// FNV-1a over the bit patterns of a candidate matrix — cheap pre-filter
/// before the exact bitwise comparison.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Exact bitwise equality of two matrices (`==` on f32 would conflate
/// `0.0`/`-0.0` and reject equal NaNs; the dedup must be exact).
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_gate_bound_ignores_pending_and_later_positions() {
        let gate = PruneGate::new(&[0, 3, 7]);
        assert_eq!(gate.bound_before(0), f64::NEG_INFINITY);
        gate.complete(1, 0.9); // first_pos 3
        assert_eq!(gate.bound_before(3), f64::NEG_INFINITY, "own position excluded");
        assert_eq!(gate.bound_before(4), 0.9);
        gate.complete(0, 0.5);
        assert_eq!(gate.bound_before(1), 0.5);
        assert_eq!(gate.bound_before(8), 0.9);
    }

    #[test]
    fn exact_bound_boundary_does_not_prune() {
        // The certified bound equals the reachable upper bound exactly:
        // upper == bound must NOT prune (upper < bound - slack is false).
        let gate = PruneGate::new(&[0, 1]);
        gate.complete(0, 0.6);
        let bound = gate.bound_before(1);
        let upper = 0.6; // remaining samples could exactly reach the bound
        assert!(upper >= bound - PRUNE_SLACK, "an exactly reachable bound must keep evaluating");
        // Strictly below the slack margin prunes.
        assert!(0.6 - 1e-6 < bound - PRUNE_SLACK);
    }

    #[test]
    fn fnv_and_bitwise_dedup_distinguish_zero_signs() {
        let a = vec![0.0f32, 1.0];
        let b = vec![-0.0f32, 1.0];
        assert!(bits_equal(&a, &a.clone()));
        assert!(!bits_equal(&a, &b), "dedup must be exact, not ==");
        assert_ne!(fnv1a(&a), fnv1a(&b));
    }
}
