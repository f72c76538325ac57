//! Double-buffered mapping generations.
//!
//! A [`MappingGeneration`] is an immutable snapshot of the effective
//! hardware weights (the values an inference read actually sees, after
//! quantization and aged-window clamping), read back once per maintenance
//! boundary. Workers serve every request of interval `g` from generation
//! `g`'s snapshot — never from live hardware — so the maintenance task can
//! rework the physical mapping concurrently and swap the fresh snapshot in
//! atomically ([`GenerationCell::publish`] replaces one `Arc`): serving
//! never pauses, and a request's output depends only on its sequence
//! number.

use std::sync::{Arc, Condvar, Mutex};

use memaging_tensor::Tensor;

/// One published mapping generation.
#[derive(Debug)]
pub struct MappingGeneration {
    /// Generation id = maintenance-boundary index (requests with
    /// `seq / maintenance_interval == id` are served by this generation).
    pub id: u64,
    /// Effective per-layer weight matrices read back from hardware.
    pub weights: Vec<Tensor>,
    /// Worst per-layer mean window fraction at publish time (of fresh).
    pub worst_window_fraction: f64,
    /// Total accrued tile stress (seconds, summed in tile order) at
    /// read-back — the fleet router's deterministic wear snapshot: burn
    /// rates are differences of these totals across generations, never
    /// racy live reads.
    pub total_stress: f64,
    /// Cumulative live remaps performed before this generation was read.
    pub remaps: u64,
}

/// The atomically-swappable published generation, plus a condvar so the
/// dispatcher can await a generation the maintenance task has not
/// published yet.
#[derive(Debug, Default)]
pub(crate) struct GenerationCell {
    current: Mutex<Option<Arc<MappingGeneration>>>,
    published: Condvar,
}

impl GenerationCell {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Arc<MappingGeneration>>> {
        self.current.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Atomically swaps in `generation` and wakes every waiter.
    ///
    /// # Panics
    ///
    /// Panics if the generation id does not increase monotonically — a
    /// maintenance-protocol bug that would break the seq→generation
    /// determinism contract.
    pub fn publish(&self, generation: Arc<MappingGeneration>) {
        let mut current = self.lock();
        if let Some(prior) = current.as_ref() {
            assert!(
                generation.id > prior.id,
                "generation ids must increase: {} after {}",
                generation.id,
                prior.id
            );
        }
        *current = Some(generation);
        drop(current);
        self.published.notify_all();
    }

    /// The currently published generation (`None` before the first
    /// publish).
    pub fn current(&self) -> Option<Arc<MappingGeneration>> {
        self.lock().clone()
    }

    /// Blocks until a generation with `id >= wanted` is published and
    /// returns it.
    pub fn wait_for(&self, wanted: u64) -> Arc<MappingGeneration> {
        let mut current = self.lock();
        loop {
            if let Some(generation) = current.as_ref() {
                if generation.id >= wanted {
                    return Arc::clone(generation);
                }
            }
            current =
                self.published.wait(current).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generation(id: u64) -> Arc<MappingGeneration> {
        Arc::new(MappingGeneration {
            id,
            weights: Vec::new(),
            worst_window_fraction: 1.0,
            total_stress: 0.0,
            remaps: 0,
        })
    }

    #[test]
    fn wait_for_blocks_until_published() {
        let cell = Arc::new(GenerationCell::default());
        cell.publish(generation(0));
        assert_eq!(cell.wait_for(0).id, 0);
        let waiter = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || cell.wait_for(2).id)
        };
        cell.publish(generation(1));
        cell.publish(generation(2));
        assert_eq!(waiter.join().unwrap(), 2);
        assert_eq!(cell.current().unwrap().id, 2);
    }

    #[test]
    #[should_panic(expected = "generation ids must increase")]
    fn non_monotonic_publish_panics() {
        let cell = GenerationCell::default();
        cell.publish(generation(3));
        cell.publish(generation(3));
    }
}
