//! A bounded MPMC ring of sampled records shared by [`crate::TraceRing`]
//! and [`crate::SlowQueryLog`].
//!
//! Writers claim a slot with one atomic `fetch_add` and then *try* the
//! slot's mutex: on contention the record is dropped rather than waited
//! for, so pushing from the lock-free query path can never
//! block a reader — the ring trades completeness for progress, which is
//! the right trade for sampled diagnostics.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

#[derive(Debug)]
pub(crate) struct Ring<T> {
    slots: Vec<Mutex<Option<T>>>,
    head: AtomicU64,
}

impl<T: Clone> Ring<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    pub(crate) fn push(&self, record: T) {
        let slot = self.head.fetch_add(1, Relaxed) as usize % self.slots.len();
        if let Ok(mut guard) = self.slots[slot].try_lock() {
            *guard = Some(record);
        }
    }

    /// Clones the currently retained records, oldest-first by slot order
    /// (slot order approximates but does not guarantee insertion order
    /// once the ring has wrapped).
    pub(crate) fn snapshot(&self) -> Vec<T> {
        self.slots
            .iter()
            .filter_map(|s| s.lock().ok().and_then(|g| g.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_and_overwriting() {
        let ring: Ring<u32> = Ring::new(4);
        for i in 0..10 {
            ring.push(i);
        }
        let kept = ring.snapshot();
        assert_eq!(kept.len(), 4);
        for v in kept {
            assert!(v >= 6, "old record {v} survived wraparound");
        }
    }
}
