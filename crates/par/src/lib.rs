//! # memaging-par
//!
//! A dependency-free data-parallel runtime for the memaging workspace:
//! scoped worker threads (plain [`std::thread::scope`], no unsafe, no
//! persistent pool) with chunked work distribution and a process-wide
//! thread-count configuration.
//!
//! ## Determinism contract
//!
//! Every helper in this crate guarantees that **results are independent of
//! the thread count and of runtime scheduling**:
//!
//! * [`par_map_init`] returns results merged in *item index order*,
//!   regardless of which worker computed which item;
//! * [`par_chunks_mut`] hands each invocation a chunk identified by its
//!   index, and chunks are disjoint, so writes cannot race;
//! * nothing in this crate reorders a caller's arithmetic. Keeping
//!   *reduction order* fixed (so floating-point sums are bit-identical) is
//!   the caller's side of the contract: parallelize over independent
//!   outputs, never over a shared accumulation.
//!
//! ## Thread-count resolution
//!
//! [`num_threads`] resolves, in order: the runtime override installed by
//! [`set_threads`] (the `--threads` CLI flag), the `MEMAGING_THREADS`
//! environment variable, and finally [`std::thread::available_parallelism`].
//!
//! ## Example
//!
//! ```
//! let squares = memaging_par::par_map_init(8, |_worker| (), |(), i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runtime thread-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Approximate scalar operations that justify occupying one extra worker
/// thread (spawn + join overhead is on the order of tens of microseconds;
/// this many f32 ops take roughly as long on one core).
const OPS_PER_THREAD: usize = 256 * 1024;

/// The machine's available parallelism (fallback 1 when undetectable).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// The default thread count before any [`set_threads`] override: the
/// `MEMAGING_THREADS` environment variable if set and positive, otherwise
/// [`available_parallelism`]. Read once per process.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("MEMAGING_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(available_parallelism)
    })
}

/// Installs a process-wide thread-count override (the `--threads` CLI
/// flag). `0` clears the override, falling back to `MEMAGING_THREADS` /
/// available parallelism. Runtime-mutable so one process can benchmark
/// several thread counts back to back.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::SeqCst);
}

/// The configured worker-thread count (always at least 1). See the crate
/// docs for the resolution order.
pub fn num_threads() -> usize {
    match OVERRIDE.load(Ordering::SeqCst) {
        0 => default_threads(),
        n => n,
    }
}

/// How many threads a region of `total_ops` scalar operations deserves:
/// [`num_threads`] capped so each worker gets at least `OPS_PER_THREAD`
/// operations. Tiny kernels (a 32×144·144×16 matmul in the tuning loop)
/// resolve to 1 and run inline — spawn overhead would dwarf them.
pub fn parallelism_for(total_ops: usize) -> usize {
    num_threads().min((total_ops / OPS_PER_THREAD).max(1))
}

/// Maps `f` over `0..n` in parallel with per-worker state:
/// `init(worker_index)` runs once on each worker thread (worker 0 is the
/// calling thread), and the state is passed to every item that worker
/// processes. Use it to reuse scratch buffers or expensive clones across
/// items instead of rebuilding them per item. Items are distributed
/// dynamically, so uneven per-item cost balances across workers.
///
/// Results are returned in item index order, independent of scheduling.
/// With one thread (or one item) everything runs inline on the caller
/// with a single `init(0)` state.
pub fn par_map_init<S, R: Send>(
    n: usize,
    init: impl Fn(usize) -> S + Sync,
    f: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let threads = num_threads().min(n);
    if threads <= 1 {
        if n == 0 {
            return Vec::new();
        }
        let mut state = init(0);
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let worker = |worker_index: usize| {
            let mut state = init(worker_index);
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                local.push((i, f(&mut state, i)));
            }
            local
        };
        let handles: Vec<_> = (1..threads).map(|w| scope.spawn(move || worker(w))).collect();
        let mut produced = worker(0);
        for handle in handles {
            match handle.join() {
                Ok(part) => produced.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        for (i, r) in produced {
            slots[i] = Some(r);
        }
    });
    slots.into_iter().map(|r| r.expect("every index computed exactly once")).collect()
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter) and calls `f(chunk_index, chunk)` for each, distributing
/// contiguous *bands* of chunks across up to `threads` workers. Chunks are
/// disjoint `&mut` slices, so the writes cannot race; with `threads <= 1`
/// the loop runs inline.
///
/// This is the row-band primitive behind the parallel matmuls: one chunk
/// per output row keeps each row's accumulation order exactly as in the
/// serial kernel.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    threads: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be nonzero");
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = threads.min(n_chunks).max(1);
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Contiguous bands of ceil(n_chunks / threads) chunks per worker.
    let band_chunks = n_chunks.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut first_chunk = 0usize;
        let mut handles = Vec::with_capacity(threads);
        while rest.len() > band_chunks * chunk_len {
            let (band, tail) = rest.split_at_mut(band_chunks * chunk_len);
            rest = tail;
            let start = first_chunk;
            first_chunk += band_chunks;
            let f = &f;
            handles.push(scope.spawn(move || {
                for (i, chunk) in band.chunks_mut(chunk_len).enumerate() {
                    f(start + i, chunk);
                }
            }));
        }
        // The trailing band runs on the calling thread.
        for (i, chunk) in rest.chunks_mut(chunk_len).enumerate() {
            f(first_chunk + i, chunk);
        }
        join_all(handles);
    });
}

/// A pool of per-worker states that persists *across* parallel regions.
///
/// [`par_map_init`] rebuilds its per-worker state on every call, which is
/// fine for cheap state but wasteful when the state is an expensive clone
/// (a whole network, large scratch buffers). A `SlotPool` keeps one slot
/// per worker index alive between calls: inside a parallel region each
/// worker leases its own slot — worker indices are unique within a region,
/// so the mutexes are never contended and exist only to make the pool
/// `Sync`.
///
/// Call [`SlotPool::ensure_slots`]`(num_threads())` (requires `&mut`)
/// before fanning out, then `lease(worker)` from each worker's `init`
/// closure.
///
/// # Examples
///
/// ```
/// let mut pool: memaging_par::SlotPool<Vec<u8>> = memaging_par::SlotPool::new();
/// pool.ensure_slots(memaging_par::num_threads());
/// let sums = memaging_par::par_map_init(
///     16,
///     |worker| pool.lease(worker),
///     |lease, i| {
///         let buf = lease.get_or_insert_with(Vec::new);
///         buf.push(i as u8);
///         i
///     },
/// );
/// assert_eq!(sums, (0..16).collect::<Vec<_>>());
/// ```
#[derive(Debug, Default)]
pub struct SlotPool<S> {
    slots: Vec<std::sync::Mutex<Option<S>>>,
}

/// An exclusive lease on one worker slot; dereferences to `Option<S>` so
/// the state can be lazily created with [`Option::get_or_insert_with`].
/// Dropping the lease returns the state to the pool.
pub type SlotLease<'a, S> = std::sync::MutexGuard<'a, Option<S>>;

impl<S> SlotPool<S> {
    /// Creates an empty pool (no slots yet).
    pub fn new() -> Self {
        SlotPool { slots: Vec::new() }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the pool has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Grows the pool to at least `n` slots (never shrinks — a shrink would
    /// discard live worker states).
    pub fn ensure_slots(&mut self, n: usize) {
        while self.slots.len() < n {
            self.slots.push(std::sync::Mutex::new(None));
        }
    }

    /// Leases slot `worker` for exclusive use. Worker indices inside one
    /// parallel region are unique, so this never blocks in the intended
    /// usage pattern; a poisoned slot (a previous worker panicked) is
    /// recovered as-is.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= self.len()` — call [`SlotPool::ensure_slots`]
    /// before fanning out.
    pub fn lease(&self, worker: usize) -> SlotLease<'_, S> {
        self.slots[worker].lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Drops every stored state, keeping the slots.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
        }
    }
}

/// Joins every handle, propagating the first panic.
fn join_all<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) {
    for handle in handles {
        if let Err(payload) = handle.join() {
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-wide override.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn map_collect_preserves_index_order() {
        let _guard = lock();
        for threads in [1, 2, 8] {
            set_threads(threads);
            let out = par_map_init(100, |_| (), |(), i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
        set_threads(0);
    }

    #[test]
    fn map_collect_handles_empty_and_single() {
        let _guard = lock();
        set_threads(4);
        assert_eq!(par_map_init(0, |_| (), |(), i| i), Vec::<usize>::new());
        assert_eq!(par_map_init(1, |_| (), |(), i| i + 7), vec![7]);
        set_threads(0);
    }

    #[test]
    fn map_init_builds_one_state_per_worker() {
        let _guard = lock();
        set_threads(3);
        let builds = AtomicUsize::new(0);
        let out = par_map_init(
            50,
            |_worker| {
                builds.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |count, i| {
                *count += 1;
                i
            },
        );
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        let states = builds.load(Ordering::SeqCst);
        assert!(states <= 3, "at most one state per worker, got {states}");
        set_threads(0);
    }

    #[test]
    fn chunks_mut_covers_all_chunks_disjointly() {
        let _guard = lock();
        for threads in [1, 2, 5] {
            let mut data = vec![0u32; 23];
            par_chunks_mut(&mut data, 4, threads, |chunk_index, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1 + chunk_index as u32;
                }
            });
            let expected: Vec<u32> = (0..23).map(|i| 1 + (i / 4) as u32).collect();
            assert_eq!(data, expected, "threads={threads}");
        }
    }

    #[test]
    fn chunks_mut_last_chunk_may_be_short() {
        let mut data = vec![0usize; 7];
        par_chunks_mut(&mut data, 3, 4, |i, chunk| {
            assert!(chunk.len() == 3 || (i == 2 && chunk.len() == 1));
        });
    }

    #[test]
    fn thread_count_resolution_prefers_override() {
        let _guard = lock();
        set_threads(5);
        assert_eq!(num_threads(), 5);
        set_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn parallelism_scales_with_work() {
        let _guard = lock();
        set_threads(8);
        assert_eq!(parallelism_for(100), 1, "tiny kernels stay inline");
        assert_eq!(parallelism_for(OPS_PER_THREAD * 3), 3);
        assert_eq!(parallelism_for(OPS_PER_THREAD * 100), 8, "capped at num_threads");
        set_threads(0);
    }

    #[test]
    fn slot_pool_persists_state_across_regions() {
        let _guard = lock();
        set_threads(3);
        let mut pool: SlotPool<usize> = SlotPool::new();
        pool.ensure_slots(num_threads());
        for round in 0..3 {
            let out = par_map_init(
                12,
                |worker| pool.lease(worker),
                |lease, i| {
                    *lease.get_or_insert_with(|| 0) += 1;
                    i
                },
            );
            assert_eq!(out, (0..12).collect::<Vec<_>>(), "round {round}");
        }
        let total: usize = (0..pool.len()).map(|w| pool.lease(w).unwrap_or(0)).sum();
        assert_eq!(total, 36, "every item increments exactly one persistent slot");
        pool.clear();
        assert!((0..pool.len()).all(|w| pool.lease(w).is_none()));
        set_threads(0);
    }

    #[test]
    fn slot_pool_never_shrinks() {
        let mut pool: SlotPool<u8> = SlotPool::new();
        assert!(pool.is_empty());
        pool.ensure_slots(4);
        pool.ensure_slots(2);
        assert_eq!(pool.len(), 4);
        *pool.lease(3) = Some(9);
        assert_eq!(*pool.lease(3), Some(9));
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let _guard = lock();
        let reference: Vec<f64> = (0..200).map(|i| (i as f64 * 0.37).sin()).collect();
        for threads in [1, 2, 8] {
            set_threads(threads);
            let got = par_map_init(200, |_| (), |(), i| (i as f64 * 0.37).sin());
            assert_eq!(got, reference, "threads={threads}");
        }
        set_threads(0);
    }
}
