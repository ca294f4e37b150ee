//! Atomic scalar metrics: monotone counters and float-valued gauges.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A monotonically increasing event counter.
///
/// A `Counter` is a single relaxed `AtomicU64`, so incrementing from the
/// lock-free read path costs one atomic add and recording threads never
/// contend on anything but the cache line. Counters are shared by
/// `Arc`: the cell a hot path increments can be the *same* cell an
/// [`crate::ObsRegistry`] exposes (see
/// [`crate::ObsRegistry::adopt_counter`]), which is how legacy metrics
/// structs become thin views over the registry without double counting.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// A last-write-wins gauge holding an `f64` (stored as its bit pattern in
/// an `AtomicU64`, so reads and writes are lock-free).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Creates a gauge at `0.0`.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Relaxed);
    }

    /// The current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_round_trips_floats() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn concurrent_increments_lose_nothing() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}
