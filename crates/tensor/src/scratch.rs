//! Reusable scratch buffers for hot loops.
//!
//! The candidate-evaluation engine in `memaging-crossbar` rebuilds a
//! simulated weight matrix and a handful of lookup tables hundreds of times
//! per range-selection sweep. Allocating those buffers per candidate puts
//! the allocator on the hot path (and, across worker threads, makes the
//! allocator a shared contention point). A [`ScratchArena`] keeps the
//! buffers alive between uses instead: `take` hands out a cleared buffer of
//! the requested length, `give` returns it for reuse.
//!
//! The arena is deliberately not thread-safe — the intended pattern is one
//! arena per worker, owned by that worker's persistent evaluation context.
//!
//! # Examples
//!
//! ```
//! use memaging_tensor::scratch::ScratchArena;
//!
//! let mut arena = ScratchArena::new();
//! let buf = arena.take(128);
//! assert_eq!(buf.len(), 128);
//! assert!(buf.iter().all(|&v| v == 0.0));
//! arena.give(buf);
//! // The second take reuses the first buffer's allocation.
//! let again = arena.take(64);
//! assert!(again.capacity() >= 128);
//! ```

/// A pool of reusable `f32` buffers (see the module docs).
#[derive(Debug, Default)]
pub struct ScratchArena {
    free: Vec<Vec<f32>>,
}

impl ScratchArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// Number of buffers currently parked in the arena.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Hands out a zeroed buffer of exactly `len` elements, reusing the
    /// pooled allocation with the largest capacity when one exists.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer to the arena for later reuse. Buffers with no
    /// backing allocation are dropped instead of pooled.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffer_of_requested_len() {
        let mut arena = ScratchArena::new();
        let mut buf = arena.take(10);
        buf.iter_mut().for_each(|v| *v = 7.0);
        arena.give(buf);
        let buf = arena.take(10);
        assert_eq!(buf.len(), 10);
        assert!(buf.iter().all(|&v| v == 0.0), "reused buffer must be cleared");
    }

    #[test]
    fn reuses_pooled_allocation() {
        let mut arena = ScratchArena::new();
        let buf = arena.take(256);
        let ptr = buf.as_ptr();
        arena.give(buf);
        assert_eq!(arena.pooled(), 1);
        let buf = arena.take(100);
        assert_eq!(buf.as_ptr(), ptr, "smaller take must reuse the pooled allocation");
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn growing_take_still_works() {
        let mut arena = ScratchArena::new();
        arena.give(arena_buf(8));
        let buf = arena.take(1024);
        assert_eq!(buf.len(), 1024);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let mut arena = ScratchArena::new();
        arena.give(Vec::new());
        assert_eq!(arena.pooled(), 0);
    }

    fn arena_buf(len: usize) -> Vec<f32> {
        vec![0.0; len]
    }
}
