//! The bounded admission queue (MPSC: many client threads push, the
//! dispatcher pops) and the per-request response slot clients block on.
//!
//! Admission control happens at the push: a full queue rejects
//! immediately ([`crate::ServeError::QueueFull`]) instead of blocking the
//! client, and every *admitted* request gets the next global sequence
//! number. That sequence number is the backbone of the tier's
//! determinism — it fixes the request's maintenance interval and thereby
//! the mapping generation that serves it, independent of wall-clock
//! timing, batching, or worker count.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::error::ServeError;
use crate::request::InferResponse;
use crate::trace::RequestCtx;

/// One admitted request as the dispatcher sees it.
#[derive(Debug)]
pub(crate) struct Entry {
    /// Global admission sequence number (0-based).
    pub seq: u64,
    /// The input feature vector.
    pub input: Vec<f32>,
    /// Absolute deadline; a request still queued past it is dropped at
    /// dispatch with [`ServeError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// Trace identity + admission timestamp, carried through batching and
    /// worker dispatch (queue-wait and end-to-end latency, span trace
    /// ids).
    pub ctx: RequestCtx,
    /// Where the outcome is delivered.
    pub slot: Arc<ResponseSlot>,
}

/// The rendezvous a client blocks on while its request is in flight.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    outcome: Mutex<Option<Result<InferResponse, ServeError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// Delivers the outcome and wakes the waiting client.
    pub fn deliver(&self, outcome: Result<InferResponse, ServeError>) {
        let mut guard = self.outcome.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = Some(outcome);
        self.ready.notify_all();
    }

    /// Blocks until the outcome is delivered.
    pub fn wait(&self) -> Result<InferResponse, ServeError> {
        let mut guard = self.outcome.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self.ready.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Shared queue state behind the mutex.
#[derive(Debug, Default)]
struct QueueState {
    entries: VecDeque<Entry>,
    next_seq: u64,
    closed: bool,
}

/// The bounded MPSC admission queue.
#[derive(Debug)]
pub(crate) struct RequestQueue {
    state: Mutex<QueueState>,
    /// Signalled when an entry arrives or the queue closes.
    arrived: Condvar,
    capacity: usize,
}

impl RequestQueue {
    /// An empty queue admitting at most `capacity` in-flight requests.
    pub fn new(capacity: usize) -> Self {
        RequestQueue { state: Mutex::new(QueueState::default()), arrived: Condvar::new(), capacity }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admits a request: assigns its sequence number and enqueues it, or
    /// rejects without queueing.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] at capacity, [`ServeError::Shutdown`]
    /// after close.
    pub fn admit(
        &self,
        input: Vec<f32>,
        deadline: Option<Instant>,
        slot: Arc<ResponseSlot>,
    ) -> Result<u64, ServeError> {
        let mut state = self.lock();
        if state.closed {
            return Err(ServeError::Shutdown);
        }
        if state.entries.len() >= self.capacity {
            return Err(ServeError::QueueFull { capacity: self.capacity });
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.entries.push_back(Entry {
            seq,
            input,
            deadline,
            ctx: RequestCtx::admitted(seq),
            slot,
        });
        drop(state);
        self.arrived.notify_one();
        Ok(seq)
    }

    /// Blocks until an entry is available (returning it) or the queue is
    /// closed *and* drained (returning `None`).
    pub fn pop_blocking(&self) -> Option<Entry> {
        let mut state = self.lock();
        loop {
            if let Some(entry) = state.entries.pop_front() {
                return Some(entry);
            }
            if state.closed {
                return None;
            }
            state = self.arrived.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Non-blocking pop of the next entry, but only while its sequence
    /// number stays below `below_seq` — the batcher's "never cross a
    /// maintenance boundary" guard.
    pub fn pop_if_below(&self, below_seq: u64) -> Option<Entry> {
        let mut state = self.lock();
        match state.entries.front() {
            Some(entry) if entry.seq < below_seq => state.entries.pop_front(),
            _ => None,
        }
    }

    /// Whether admission has been closed.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Closes admission: future [`RequestQueue::admit`] calls fail with
    /// [`ServeError::Shutdown`]; queued entries remain poppable so the
    /// dispatcher can drain them.
    pub fn close(&self) {
        self.lock().closed = true;
        self.arrived.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_assigns_monotonic_seqs_and_rejects_on_full() {
        let q = RequestQueue::new(2);
        let s0 = q.admit(vec![1.0], None, Arc::new(ResponseSlot::default())).unwrap();
        let s1 = q.admit(vec![2.0], None, Arc::new(ResponseSlot::default())).unwrap();
        assert_eq!((s0, s1), (0, 1));
        let err = q.admit(vec![3.0], None, Arc::new(ResponseSlot::default())).unwrap_err();
        assert_eq!(err, ServeError::QueueFull { capacity: 2 });
        // Rejection consumed no sequence number, and the trace id is the
        // admission sequence number.
        let popped = q.pop_blocking().unwrap();
        assert_eq!(popped.seq, 0);
        assert_eq!(popped.ctx.trace.0, popped.seq);
        let s3 = q.admit(vec![4.0], None, Arc::new(ResponseSlot::default())).unwrap();
        assert_eq!(s3, 2);
    }

    #[test]
    fn pop_if_below_respects_the_boundary() {
        let q = RequestQueue::new(8);
        for i in 0..3 {
            q.admit(vec![i as f32], None, Arc::new(ResponseSlot::default())).unwrap();
        }
        assert_eq!(q.pop_if_below(2).unwrap().seq, 0);
        assert_eq!(q.pop_if_below(2).unwrap().seq, 1);
        assert!(q.pop_if_below(2).is_none(), "seq 2 is at the boundary");
        assert_eq!(q.pop_if_below(3).unwrap().seq, 2);
    }

    #[test]
    fn close_rejects_admission_but_drains_the_backlog() {
        let q = RequestQueue::new(8);
        q.admit(vec![0.0], None, Arc::new(ResponseSlot::default())).unwrap();
        q.close();
        assert_eq!(
            q.admit(vec![1.0], None, Arc::new(ResponseSlot::default())).unwrap_err(),
            ServeError::Shutdown
        );
        assert_eq!(q.pop_blocking().unwrap().seq, 0);
        assert!(q.pop_blocking().is_none(), "closed + drained pops None");
    }

    #[test]
    fn response_slot_delivers_across_threads() {
        let slot = Arc::new(ResponseSlot::default());
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait())
        };
        slot.deliver(Err(ServeError::DeadlineExceeded));
        assert_eq!(waiter.join().unwrap().unwrap_err(), ServeError::DeadlineExceeded);
    }
}
