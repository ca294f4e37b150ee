//! Bounded per-subscription notification channels with configurable
//! overflow behavior.

use crate::diff::ResultDiff;
use crate::registry::SubscriptionId;
use stb_search::QueryKey;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(test)]
use std::time::{Duration, Instant};

/// What the commit-side sender does when a subscription's channel is full
/// — the ingest admission path's backpressure vocabulary
/// (`Backpressure::{Block, Shed}`), specialized to notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Wait for the subscriber to drain the channel. No diff is ever
    /// lost, at the price of coupling commit latency to the slowest
    /// blocking subscriber (senders still abort if every handle is
    /// dropped, so an abandoned subscription cannot wedge a commit).
    Block,
    /// Merge every queued diff plus the incoming one into a single diff
    /// spanning oldest `previous` → newest `current`, with the number of
    /// merged diffs counted in [`ResultDiff::coalesced`]. The subscriber
    /// always converges to the final state; intermediate states are
    /// collapsed, never reordered.
    #[default]
    CoalesceLatest,
    /// Drop the incoming diff and count it (visible via
    /// [`SubscriptionHandle::dropped`] and the registry metrics). The
    /// subscriber keeps its queued history but may miss newer states
    /// until it drains.
    DropCounted,
}

/// Outcome of pushing one diff into a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// Enqueued as-is.
    Delivered,
    /// Enqueued after merging `n` queued diffs into it.
    Coalesced(u64),
    /// Dropped under [`OverflowPolicy::DropCounted`].
    Dropped,
    /// Every receiving handle is gone; the registry should
    /// garbage-collect the registration.
    Disconnected,
}

#[derive(Debug, Default)]
struct Queue {
    diffs: VecDeque<ResultDiff>,
}

/// The shared state behind a subscription's handles.
#[derive(Debug)]
pub(crate) struct DiffChannel {
    queue: Mutex<Queue>,
    /// Signaled when a diff is pushed or the last handle drops.
    ready: Condvar,
    /// Signaled when space frees up or the last handle drops.
    space: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
    /// Live receiving handles; at 0 the sender treats the channel as
    /// disconnected.
    receivers: AtomicUsize,
    delivered: AtomicU64,
    dropped: AtomicU64,
    coalesced: AtomicU64,
}

impl DiffChannel {
    pub(crate) fn new(capacity: usize, policy: OverflowPolicy) -> Arc<Self> {
        Arc::new(Self {
            queue: Mutex::new(Queue::default()),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            policy,
            receivers: AtomicUsize::new(0),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Pushes and pops never panic while holding the lock; recover the
        // queue either way rather than poisoning every later notification.
        match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn disconnected(&self) -> bool {
        self.receivers.load(SeqCst) == 0
    }

    /// Pushes one diff under the channel's overflow policy. Called from
    /// the commit path with no registry lock held, so a `Block` wait can
    /// never deadlock against concurrent `subscribe` calls.
    pub(crate) fn send(&self, diff: ResultDiff) -> SendOutcome {
        if self.disconnected() {
            return SendOutcome::Disconnected;
        }
        let mut q = self.lock();
        match self.policy {
            OverflowPolicy::Block => {
                while q.diffs.len() >= self.capacity {
                    if self.disconnected() {
                        return SendOutcome::Disconnected;
                    }
                    q = match self.space.wait(q) {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                if self.disconnected() {
                    return SendOutcome::Disconnected;
                }
                q.diffs.push_back(diff);
                self.delivered.fetch_add(1, SeqCst);
                self.ready.notify_all();
                SendOutcome::Delivered
            }
            OverflowPolicy::CoalesceLatest => {
                if q.diffs.len() >= self.capacity {
                    let mut merged = q
                        .diffs
                        .pop_front()
                        .unwrap_or_else(|| unreachable!("capacity >= 1 and queue is full"));
                    let mut absorbed = 0u64;
                    while let Some(next) = q.diffs.pop_front() {
                        merged = ResultDiff::coalesce(merged, next);
                        absorbed += 1;
                    }
                    merged = ResultDiff::coalesce(merged, diff);
                    absorbed += 1;
                    q.diffs.push_back(merged);
                    self.delivered.fetch_add(1, SeqCst);
                    self.coalesced.fetch_add(absorbed, SeqCst);
                    self.ready.notify_all();
                    SendOutcome::Coalesced(absorbed)
                } else {
                    q.diffs.push_back(diff);
                    self.delivered.fetch_add(1, SeqCst);
                    self.ready.notify_all();
                    SendOutcome::Delivered
                }
            }
            OverflowPolicy::DropCounted => {
                if q.diffs.len() >= self.capacity {
                    self.dropped.fetch_add(1, SeqCst);
                    SendOutcome::Dropped
                } else {
                    q.diffs.push_back(diff);
                    self.delivered.fetch_add(1, SeqCst);
                    self.ready.notify_all();
                    SendOutcome::Delivered
                }
            }
        }
    }

    #[cfg(test)]
    fn pop(&self, q: &mut Queue) -> Option<ResultDiff> {
        let diff = q.diffs.pop_front();
        if diff.is_some() {
            self.space.notify_all();
        }
        diff
    }

    #[cfg(test)]
    pub(crate) fn try_recv(&self) -> Option<ResultDiff> {
        let mut q = self.lock();
        self.pop(&mut q)
    }

    #[cfg(test)]
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<ResultDiff> {
        let deadline = Instant::now() + timeout;
        let mut q = self.lock();
        loop {
            if let Some(diff) = self.pop(&mut q) {
                return Some(diff);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, res) = match self.ready.wait_timeout(q, deadline - now) {
                Ok(pair) => pair,
                Err(poisoned) => {
                    let pair = poisoned.into_inner();
                    (pair.0, pair.1)
                }
            };
            q = guard;
            if res.timed_out() && q.diffs.is_empty() {
                return None;
            }
        }
    }

    pub(crate) fn drain(&self) -> Vec<ResultDiff> {
        let mut q = self.lock();
        let out: Vec<_> = q.diffs.drain(..).collect();
        if !out.is_empty() {
            self.space.notify_all();
        }
        out
    }

    pub(crate) fn pending(&self) -> usize {
        self.lock().diffs.len()
    }

    pub(crate) fn receivers(&self) -> usize {
        self.receivers.load(SeqCst)
    }

    pub(crate) fn delivered(&self) -> u64 {
        self.delivered.load(SeqCst)
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(SeqCst)
    }

    pub(crate) fn coalesced(&self) -> u64 {
        self.coalesced.load(SeqCst)
    }
}

/// The receiving side of one standing subscription.
///
/// Cloneable: clones share the same bounded queue (each delivered diff is
/// consumed by exactly one handle — clone-and-split is for handing the
/// stream to another thread, not for fan-out). When the last handle is
/// dropped the channel counts as disconnected: blocked senders wake and
/// the registry garbage-collects the registration on its next commit that
/// touches it.
#[derive(Debug)]
pub struct SubscriptionHandle {
    id: SubscriptionId,
    key: QueryKey,
    channel: Arc<DiffChannel>,
}

impl SubscriptionHandle {
    pub(crate) fn new(id: SubscriptionId, key: QueryKey, channel: Arc<DiffChannel>) -> Self {
        channel.receivers.fetch_add(1, SeqCst);
        Self { id, key, channel }
    }

    /// The subscription's identifier in its registry.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// The canonical key of the standing query — the same identity the
    /// result cache uses (sorted deduplicated terms, k, effective
    /// configuration, filters).
    pub fn key(&self) -> &QueryKey {
        &self.key
    }

    /// Takes the next pending diff without waiting.
    #[cfg(test)]
    pub(crate) fn try_recv(&self) -> Option<ResultDiff> {
        self.channel.try_recv()
    }

    /// Waits up to `timeout` for the next diff. Returns `None` on timeout.
    #[cfg(test)]
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<ResultDiff> {
        self.channel.recv_timeout(timeout)
    }

    /// Takes every pending diff at once, oldest first.
    pub fn drain(&self) -> Vec<ResultDiff> {
        self.channel.drain()
    }

    /// Number of diffs currently queued.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.channel.pending()
    }

    /// Diffs dropped under [`OverflowPolicy::DropCounted`].
    pub fn dropped(&self) -> u64 {
        self.channel.dropped()
    }

    /// Diffs merged away under [`OverflowPolicy::CoalesceLatest`].
    pub fn coalesced(&self) -> u64 {
        self.channel.coalesced()
    }
}

impl Clone for SubscriptionHandle {
    fn clone(&self) -> Self {
        Self::new(self.id, self.key.clone(), Arc::clone(&self.channel))
    }
}

impl Drop for SubscriptionHandle {
    fn drop(&mut self) {
        if self.channel.receivers.fetch_sub(1, SeqCst) == 1 {
            // Last handle gone: wake any sender blocked on space so the
            // commit path can observe the disconnect instead of waiting
            // for a drain that will never come. The lock round-trip
            // orders the count change against a Block sender's
            // check-then-wait, so the wakeup cannot slip into the gap
            // between its `disconnected()` check and its `wait` (a lost
            // wakeup would block that sender forever).
            drop(self.channel.lock());
            self.channel.space.notify_all();
            self.channel.ready.notify_all();
        }
    }
}
