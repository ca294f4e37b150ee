//! Shared scoped-thread work queue for index-parallel maps.
//!
//! The paper's term-level independence argument (terms can be mined — and
//! their posting lists scored — independently) shows up in three places:
//! `STLocal::mine_collection_parallel`, `STComb::mine_collection_parallel`,
//! and the search engine's prebuilt-index builder. All three share this
//! helper: a fixed pool of scoped threads pulls indices `0..n_items` off an
//! atomic counter and writes `f(i)` into slot `i`, so results come back in
//! input order and the output is deterministic regardless of thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Applies `f` to every index in `0..n_items` using up to `n_threads`
/// scoped worker threads and returns the results in index order.
///
/// `n_threads` is clamped to at least 1; with one thread this degrades to a
/// plain serial map. A panic in `f` propagates out of the call (the scope
/// joins all workers first). The slot mutex is only held for one store, so
/// a poisoned lock still holds consistent slots and is recovered.
pub fn parallel_map<T, F>(n_items: usize, n_threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n_threads = n_threads.max(1).min(n_items.max(1));
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n_items).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_items {
                    break;
                }
                let value = f(i);
                results.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(value);
            });
        }
    });
    let out: Vec<T> = results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .flatten()
        .collect();
    // `scope` re-raised any worker panic, so every slot was filled.
    debug_assert_eq!(out.len(), n_items);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        for n_threads in [1, 2, 8] {
            let out = parallel_map(100, n_threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_and_zero_threads() {
        let out: Vec<usize> = parallel_map(0, 0, |i| i);
        assert!(out.is_empty());
        let out = parallel_map(3, 0, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
