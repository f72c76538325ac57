//! Deterministic wear time-series: fixed-capacity, hierarchically
//! downsampled ring buffers keyed by maintenance-session / admission
//! sequence — never wall clock.
//!
//! The serving tier needs *history* (per-tile wear trajectories for the
//! lifetime forecaster), but a naive append log grows without bound and a
//! wall-clock-keyed one is unreplayable. [`SeriesStore`] keeps, per named
//! series, a small pyramid of three tiers:
//!
//! * **tier 0** — the raw tail: one cell per sequence number, newest
//!   `capacity` sequence numbers;
//! * **tier 1** — 2×-decimated: one cell per *bucket* of 2 consecutive
//!   sequence numbers (`key = seq >> 1`), newest `capacity` buckets;
//! * **tier 2** — 4×-decimated (`key = seq >> 2`), newest `capacity`
//!   buckets.
//!
//! so recent history is exact while older windows survive in summarized
//! form at a fixed memory bound. Points that fall off the coarsest tier
//! fold into a single `evicted` summary, so nothing is silently lost.
//!
//! ## Determinism contract
//!
//! The store is bit-stable against recording order, thread count and
//! shard count:
//!
//! * values are pure `u64` (callers fix-point-convert floats — e.g. a
//!   window fraction becomes parts-per-billion — so no FP accumulation
//!   order can leak in);
//! * bucket membership is an *absolute* function of the sequence number
//!   (`seq >> tier`), never of arrival order;
//! * every cell field is folded with a commutative, associative integer
//!   op (`count`/`sum` add, `min`/`max`, and `last` resolved by the
//!   lexicographic max of `(seq, value)`);
//! * the eviction horizon is a pure function of the largest sequence
//!   number seen, and a point arriving *below* the horizon folds straight
//!   into the `evicted` summary — exactly where it would have ended up
//!   had it arrived first.
//!
//! Feeding the same multiset of `(seq, value)` points therefore yields a
//! bit-identical [`SeriesSnapshot`] (and JSON) at 1, 2 or 8 recording
//! threads; the proptest below asserts exactly that, mirroring the
//! [`crate::ShardedHistogram`] merge-order proptest.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Default per-tier capacity (cells): the live serve tier's store and the
/// offline analyzer's replay store both use it.
pub const DEFAULT_SERIES_CAPACITY: usize = 64;

/// Number of tiers: raw plus 2×- and 4×-decimated.
const TIERS: usize = 3;

/// One fold cell: the commutative aggregate of every point in its bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesCell {
    /// Points folded into this cell.
    pub count: u64,
    /// Sum of the folded values.
    pub sum: u64,
    /// Smallest folded value.
    pub min: u64,
    /// Largest folded value.
    pub max: u64,
    /// Sequence number of the newest folded point (ties resolved toward
    /// the larger value, so the fold stays commutative).
    pub last_seq: u64,
    /// Value of the newest folded point.
    pub last: u64,
}

impl SeriesCell {
    fn new(seq: u64, value: u64) -> Self {
        SeriesCell { count: 1, sum: value, min: value, max: value, last_seq: seq, last: value }
    }

    /// Folds one point in. Commutative and associative: `count`/`sum` add,
    /// `min`/`max` compare, `last` is the lexicographic max of
    /// `(seq, value)`.
    fn fold(&mut self, seq: u64, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if (seq, value) > (self.last_seq, self.last) {
            self.last_seq = seq;
            self.last = value;
        }
    }
}

/// Summary of everything that fell off the coarsest tier (or arrived
/// already below its horizon).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictedSummary {
    /// Points evicted.
    pub count: u64,
    /// Sum of evicted values.
    pub sum: u64,
    /// Smallest evicted value (0 when none).
    pub min: u64,
    /// Largest evicted value (0 when none).
    pub max: u64,
}

impl EvictedSummary {
    fn fold_cell(&mut self, cell: &SeriesCell) {
        self.min = if self.count == 0 { cell.min } else { self.min.min(cell.min) };
        self.max = self.max.max(cell.max);
        self.count += cell.count;
        self.sum += cell.sum;
    }
}

/// One series' live state: the tier pyramid plus the evicted summary.
#[derive(Debug, Default)]
struct Series {
    /// Largest sequence number seen (drives every eviction horizon).
    max_seq: Option<u64>,
    tiers: [BTreeMap<u64, SeriesCell>; TIERS],
    evicted: EvictedSummary,
}

impl Series {
    /// The smallest live bucket key of `tier` for a store of `capacity`
    /// cells — a pure function of the max sequence number.
    fn horizon(max_seq: u64, tier: usize, capacity: usize) -> u64 {
        (max_seq >> tier).saturating_sub(capacity as u64 - 1)
    }

    fn record(&mut self, seq: u64, value: u64, capacity: usize) {
        let max_seq = self.max_seq.map_or(seq, |m| m.max(seq));
        self.max_seq = Some(max_seq);
        for tier in 0..TIERS {
            let key = seq >> tier;
            let horizon = Self::horizon(max_seq, tier, capacity);
            if key < horizon {
                // Late arrival below the live window: fold straight into
                // the evicted summary (coarsest tier only — finer tiers
                // would double count).
                if tier == TIERS - 1 {
                    self.evicted.fold_cell(&SeriesCell::new(seq, value));
                }
                continue;
            }
            match self.tiers[tier].get_mut(&key) {
                Some(cell) => cell.fold(seq, value),
                None => {
                    self.tiers[tier].insert(key, SeriesCell::new(seq, value));
                }
            }
        }
        // The new point may have advanced the horizon past older cells.
        for tier in 0..TIERS {
            let horizon = Self::horizon(max_seq, tier, capacity);
            if self.tiers[tier].keys().next().is_some_and(|&k| k < horizon) {
                let live = self.tiers[tier].split_off(&horizon);
                let stale = std::mem::replace(&mut self.tiers[tier], live);
                if tier == TIERS - 1 {
                    for cell in stale.values() {
                        self.evicted.fold_cell(cell);
                    }
                }
            }
        }
    }

    fn snapshot(&self) -> SeriesSnapshot {
        SeriesSnapshot {
            max_seq: self.max_seq,
            evicted: self.evicted,
            tiers: std::array::from_fn(|tier| {
                self.tiers[tier]
                    .iter()
                    .map(|(&key, &cell)| SeriesBucket {
                        seq: key << tier,
                        width: 1u64 << tier,
                        cell,
                    })
                    .collect()
            }),
        }
    }
}

/// One downsampled bucket in a snapshot: the sequence range it covers plus
/// its fold cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesBucket {
    /// First sequence number the bucket covers.
    pub seq: u64,
    /// Number of sequence numbers covered (1, 2 or 4).
    pub width: u64,
    /// The commutative aggregate of the bucket's points.
    pub cell: SeriesCell,
}

/// An immutable copy of one series — the unit the determinism contract is
/// stated over (bit-identical for the same point multiset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Largest sequence number seen, if any point was recorded.
    pub max_seq: Option<u64>,
    /// Summary of points that fell off the coarsest tier.
    pub evicted: EvictedSummary,
    /// Per-tier buckets in ascending sequence order: `tiers[0]` is the raw
    /// tail, `tiers[1]`/`tiers[2]` the 2×/4×-decimated windows.
    pub tiers: [Vec<SeriesBucket>; TIERS],
}

impl SeriesSnapshot {
    /// The raw tail as `(seq, value)` points in ascending order — the
    /// forecaster's regression input.
    pub fn raw_points(&self) -> Vec<(u64, u64)> {
        self.tiers[0].iter().map(|b| (b.seq, b.cell.last)).collect()
    }

    /// Total points still represented (live cells of the coarsest tier
    /// plus the evicted summary).
    pub fn total_count(&self) -> u64 {
        self.evicted.count + self.tiers[TIERS - 1].iter().map(|b| b.cell.count).sum::<u64>()
    }

    /// Renders the snapshot as a JSON object (all-integer, so trivially
    /// byte-deterministic).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        match self.max_seq {
            Some(m) => {
                let _ = write!(out, "{{\"max_seq\":{m}");
            }
            None => out.push_str("{\"max_seq\":null"),
        }
        let _ = write!(
            out,
            ",\"evicted\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}},\"tiers\":[",
            self.evicted.count, self.evicted.sum, self.evicted.min, self.evicted.max
        );
        for (tier, buckets) in self.tiers.iter().enumerate() {
            if tier > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"decimation\":{},\"buckets\":[", 1u64 << tier);
            for (i, bucket) in buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let c = &bucket.cell;
                let _ = write!(
                    out,
                    "{{\"seq\":{},\"width\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                     \"last_seq\":{},\"last\":{}}}",
                    bucket.seq, bucket.width, c.count, c.sum, c.min, c.max, c.last_seq, c.last
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// The store: named deterministic series behind one mutex (feeds are
/// boundary-rate, never on the per-request hot path). See the module docs
/// for the tier scheme and determinism contract.
#[derive(Debug)]
pub struct SeriesStore {
    capacity: usize,
    series: Mutex<BTreeMap<String, Series>>,
}

impl Default for SeriesStore {
    fn default() -> Self {
        SeriesStore::with_capacity(DEFAULT_SERIES_CAPACITY)
    }
}

impl SeriesStore {
    /// A store keeping `capacity` cells per tier per series (min 2).
    pub fn with_capacity(capacity: usize) -> Self {
        SeriesStore { capacity: capacity.max(2), series: Mutex::new(BTreeMap::new()) }
    }

    /// Per-tier cell capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Folds one `(seq, value)` point into the named series.
    pub fn record(&self, name: &str, seq: u64, value: u64) {
        let mut series = self.series.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match series.get_mut(name) {
            Some(s) => s.record(seq, value, self.capacity),
            None => {
                let mut s = Series::default();
                s.record(seq, value, self.capacity);
                series.insert(name.to_string(), s);
            }
        }
    }

    /// Number of named series.
    pub fn len(&self) -> usize {
        self.series.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// True when no point was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the named series, if it exists.
    pub fn snapshot(&self, name: &str) -> Option<SeriesSnapshot> {
        self.series
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .map(Series::snapshot)
    }

    /// `(name, snapshot)` for every series, sorted by name.
    pub fn snapshot_all(&self) -> Vec<(String, SeriesSnapshot)> {
        self.series
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, s)| (name.clone(), s.snapshot()))
            .collect()
    }

    /// Renders every series as one JSON object — the body of
    /// `GET /timeseries`. Byte-deterministic: sorted names, all-integer
    /// payload.
    pub fn to_json(&self) -> String {
        let all = self.snapshot_all();
        let mut out = String::with_capacity(128 + 256 * all.len());
        let _ = write!(out, "{{\"capacity\":{},\"series\":{{", self.capacity);
        for (i, (name, snapshot)) in all.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::event::push_json_str(&mut out, name);
            out.push(':');
            out.push_str(&snapshot.to_json());
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn raw_tail_keeps_the_newest_capacity_points() {
        let store = SeriesStore::with_capacity(4);
        for seq in 0..10u64 {
            store.record("s", seq, seq * 10);
        }
        let snap = store.snapshot("s").unwrap();
        assert_eq!(snap.max_seq, Some(9));
        assert_eq!(snap.raw_points(), vec![(6, 60), (7, 70), (8, 80), (9, 90)]);
        // Tier 1 covers the newest 4 buckets of 2 (seqs 2..=9), tier 2 the
        // newest 4 buckets of 4 (seqs 0..=9 — nothing evicted yet).
        assert_eq!(snap.tiers[1].len(), 4);
        assert_eq!(snap.tiers[1][0].seq, 2);
        assert_eq!(snap.tiers[1][0].width, 2);
        assert_eq!(snap.tiers[1][0].cell.count, 2);
        assert_eq!(snap.tiers[1][0].cell.sum, 20 + 30);
        assert_eq!(snap.tiers[2].len(), 3);
        assert_eq!(snap.evicted.count, 0);
        assert_eq!(snap.total_count(), 10);
    }

    #[test]
    fn points_falling_off_the_coarsest_tier_fold_into_evicted() {
        let store = SeriesStore::with_capacity(2);
        for seq in 0..32u64 {
            store.record("s", seq, 1);
        }
        let snap = store.snapshot("s").unwrap();
        // Tier 2 keeps 2 buckets of 4 → seqs 24..=31 live; 0..=23 evicted.
        assert_eq!(snap.evicted.count, 24);
        assert_eq!(snap.evicted.sum, 24);
        assert_eq!(snap.total_count(), 32);
        assert_eq!(snap.raw_points(), vec![(30, 1), (31, 1)]);
    }

    #[test]
    fn late_points_below_the_horizon_fold_into_evicted() {
        let store = SeriesStore::with_capacity(2);
        store.record("s", 100, 5);
        // seq 1 is far below every live window by now.
        store.record("s", 1, 7);
        let snap = store.snapshot("s").unwrap();
        assert_eq!(snap.evicted.count, 1);
        assert_eq!(snap.evicted.sum, 7);
        assert_eq!((snap.evicted.min, snap.evicted.max), (7, 7));
        assert_eq!(snap.raw_points(), vec![(100, 5)]);
    }

    #[test]
    fn duplicate_seq_points_fold_commutatively() {
        let forward = SeriesStore::with_capacity(8);
        forward.record("s", 3, 10);
        forward.record("s", 3, 20);
        let reverse = SeriesStore::with_capacity(8);
        reverse.record("s", 3, 20);
        reverse.record("s", 3, 10);
        assert_eq!(forward.snapshot("s"), reverse.snapshot("s"));
        let cell = forward.snapshot("s").unwrap().tiers[0][0].cell;
        assert_eq!((cell.count, cell.sum, cell.min, cell.max, cell.last), (2, 30, 10, 20, 20));
    }

    #[test]
    fn json_shape_is_stable() {
        let store = SeriesStore::with_capacity(4);
        store.record("wear{tile=0}", 1, 1_000_000_000);
        let json = store.to_json();
        assert!(json.starts_with("{\"capacity\":4,\"series\":{\"wear{tile=0}\":{"), "{json}");
        assert!(json.contains("\"max_seq\":1,\"evicted\":{\"count\":0,"), "{json}");
        assert!(
            json.contains(
                "{\"decimation\":1,\"buckets\":[{\"seq\":1,\"width\":1,\"count\":1,\
                 \"sum\":1000000000,\"min\":1000000000,\"max\":1000000000,\"last_seq\":1,\
                 \"last\":1000000000}]}"
            ),
            "{json}"
        );
        assert_eq!(SeriesStore::with_capacity(4).to_json(), "{\"capacity\":4,\"series\":{}}");
    }

    /// The satellite's headline property, mirroring the ShardedHistogram
    /// proptest: the final store state is a pure function of the point
    /// multiset — invariant to recording order and thread count.
    fn record_threaded(points: &[(u64, u64)], threads: usize, capacity: usize) -> String {
        let store = SeriesStore::with_capacity(capacity);
        let chunk = points.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for part in points.chunks(chunk) {
                let store = &store;
                scope.spawn(move || {
                    for &(seq, value) in part {
                        store.record("s", seq, value);
                    }
                });
            }
        });
        store.to_json()
    }

    proptest! {
        #[test]
        fn downsampling_is_merge_order_invariant_and_thread_invariant(
            points in proptest::collection::vec((0u64..500, 0u64..1_000_000), 1..120),
            capacity in 2usize..12,
        ) {
            let reference = record_threaded(&points, 1, capacity);
            for threads in [2usize, 8] {
                prop_assert_eq!(
                    &record_threaded(&points, threads, capacity), &reference,
                    "store diverged at {} recording threads", threads);
            }
            let mut reversed = points.clone();
            reversed.reverse();
            prop_assert_eq!(&record_threaded(&reversed, 4, capacity), &reference);
        }
    }
}
