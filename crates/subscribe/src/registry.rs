//! The subscription registry: standing queries, the inverted
//! term→subscription index, and the commit-side notify pass.

use crate::channel::{DiffChannel, OverflowPolicy, SendOutcome, SubscriptionHandle};
use crate::diff::{ResultDiff, Trigger};
use stb_core::PatternRecord;
use stb_corpus::TermId;
use stb_obs::{Counter, LatencyHistogram, ObsRegistry};
use stb_search::{Query, QueryError, QueryKey, SearchResult, ServingFront};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Identifier of one standing registration within its registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

impl std::fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sub-{}", self.0)
    }
}

/// Per-subscription delivery configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionOptions {
    /// Bounded channel capacity in diffs (clamped to at least 1).
    pub(crate) capacity: usize,
    /// What the sender does when the channel is full.
    pub(crate) overflow: OverflowPolicy,
}

impl Default for SubscriptionOptions {
    fn default() -> Self {
        Self {
            capacity: 64,
            overflow: OverflowPolicy::default(),
        }
    }
}

impl SubscriptionOptions {
    /// Sets the channel capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the overflow policy.
    pub fn overflow(mut self, overflow: OverflowPolicy) -> Self {
        self.overflow = overflow;
        self
    }
}

/// One standing registration.
#[derive(Debug)]
struct SubEntry {
    id: SubscriptionId,
    /// The standing form of the query: terms resolved and deduplicated at
    /// registration time (text words are frozen to ids — later
    /// dictionary growth does not change what this subscription means).
    query: Query,
    key: QueryKey,
    /// The last result list actually *enqueued* to the channel. Neither
    /// suppressed unchanged diffs (the state genuinely did not change
    /// bitwise) nor `DropCounted` drops advance it, so every delivered
    /// diff's `previous` is a state the subscriber received.
    last: Mutex<Vec<SearchResult>>,
    channel: Arc<DiffChannel>,
}

#[derive(Debug, Default)]
struct Inner {
    subs: BTreeMap<u64, Arc<SubEntry>>,
    /// Inverted index: term → registrations whose canonical term set
    /// contains it. `BTreeMap`/`BTreeSet` keep the notify pass
    /// deterministic (ordered by term, then subscription id).
    term_index: BTreeMap<TermId, BTreeSet<u64>>,
    next_id: u64,
}

/// Point-in-time description of one registration (for operator
/// inspection; see [`SubscriptionRegistry::subscriptions`]).
#[derive(Debug, Clone)]
pub struct SubscriptionInfo {
    /// The subscription.
    pub id: SubscriptionId,
    /// Its canonical key (`describe()` renders it for logs).
    pub key: QueryKey,
    /// Diffs currently queued.
    pub pending: usize,
    /// Total diffs enqueued so far.
    pub delivered: u64,
    /// Diffs merged away (`CoalesceLatest`).
    pub coalesced: u64,
}

/// Counters of one registry, read live.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscribeMetrics {
    /// Currently active registrations.
    pub active: usize,
    /// Registrations ever accepted.
    pub(crate) registered_total: u64,
    /// Standing-query re-evaluations run by commits.
    pub evaluations: u64,
    /// Re-evaluations that failed (counted, skipped; the registration
    /// stays).
    pub eval_errors: u64,
    /// Diffs enqueued to subscriber channels.
    pub notifications: u64,
    /// Diffs dropped under [`OverflowPolicy::DropCounted`].
    pub dropped: u64,
    /// Diffs merged away under [`OverflowPolicy::CoalesceLatest`].
    pub coalesced: u64,
}

/// What one commit's notify pass did (returned to the pipeline so it can
/// trace/span the work only when there was any).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NotifyReport {
    /// Registrations re-evaluated (their term set intersected the dirty
    /// set).
    pub evaluated: usize,
    /// Diffs enqueued (including coalesced merges).
    pub(crate) notified: usize,
    /// Diffs dropped by `DropCounted` channels.
    pub(crate) dropped: usize,
    /// Registrations garbage-collected (every handle dropped).
    pub(crate) disconnected: usize,
}

/// A registry of standing queries over one serving front.
///
/// `subscribe` validates and canonicalizes the query against the current
/// generation, takes a baseline snapshot, and indexes the registration by
/// its canonical term set. On each commit the ingest pipeline calls
/// [`on_commit`](Self::on_commit) with the tick's dirty terms; only
/// registrations whose term set intersects them are re-evaluated — cost
/// scales with `|dirty ∩ subscribed|`, not with the number of
/// registrations. Evaluation uses
/// [`ServingFront::query_snapshot`], so every notification is bracketed
/// to the generation it was computed from.
pub struct SubscriptionRegistry {
    front: Arc<ServingFront>,
    inner: Mutex<Inner>,
    registered_total: Arc<Counter>,
    evaluations: Arc<Counter>,
    eval_errors: Arc<Counter>,
    notifications: Arc<Counter>,
    dropped: Arc<Counter>,
    coalesced: Arc<Counter>,
    notify_ns: Arc<LatencyHistogram>,
}

impl SubscriptionRegistry {
    /// Creates an empty registry over `front`.
    pub fn new(front: Arc<ServingFront>) -> Self {
        Self {
            front,
            inner: Mutex::new(Inner::default()),
            registered_total: Arc::new(Counter::new()),
            evaluations: Arc::new(Counter::new()),
            eval_errors: Arc::new(Counter::new()),
            notifications: Arc::new(Counter::new()),
            dropped: Arc::new(Counter::new()),
            coalesced: Arc::new(Counter::new()),
            notify_ns: Arc::new(LatencyHistogram::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers a standing query and returns its receiving handle.
    ///
    /// The query is validated and resolved *now* against the current
    /// generation (text words frozen to term ids, duplicates collapsed —
    /// the registration's identity is exactly the query's cache key). A
    /// query with no resolvable terms cannot ever be triggered and is
    /// rejected with [`QueryError::EmptyQuery`].
    pub fn subscribe(
        &self,
        query: &Query,
        options: SubscriptionOptions,
    ) -> Result<SubscriptionHandle, QueryError> {
        let (standing, key) = self.front.canonicalize(query)?;
        if key.terms().is_empty() {
            return Err(QueryError::EmptyQuery);
        }
        let channel = DiffChannel::new(options.capacity, options.overflow);
        let handle = {
            let mut inner = self.lock();
            // The baseline snapshot is taken while holding the registry
            // lock so it is ordered against `on_commit`'s collect phase:
            // a commit whose notify pass collected before this
            // registration was indexed published its generation first,
            // so the baseline taken here already reflects it — no commit
            // can fall silently between the baseline and the index
            // insert. (`query_snapshot` only ever holds the front's read
            // lock for one pointer clone and a result-cache mutex, neither
            // across a call back into the registry, so holding the
            // registry lock across it cannot deadlock.)
            let snapshot = self.front.query_snapshot(&standing)?;
            let id = SubscriptionId(inner.next_id);
            inner.next_id += 1;
            // The handle — and with it the channel's receiver count —
            // exists before the entry becomes visible, so a concurrent
            // notify pass can never garbage-collect a fresh registration
            // as receiver-less.
            let handle = SubscriptionHandle::new(id, key.clone(), Arc::clone(&channel));
            let entry = Arc::new(SubEntry {
                id,
                query: standing,
                key,
                last: Mutex::new(snapshot.results().to_vec()),
                channel,
            });
            for &term in entry.key.terms() {
                inner.term_index.entry(term).or_default().insert(id.0);
            }
            inner.subs.insert(id.0, entry);
            handle
        };
        self.registered_total.inc();
        Ok(handle)
    }

    /// Number of active registrations.
    pub(crate) fn len(&self) -> usize {
        self.lock().subs.len()
    }

    /// Whether no registration is active.
    pub fn is_empty(&self) -> bool {
        self.lock().subs.is_empty()
    }

    /// A point-in-time description of every registration, ordered by id.
    pub fn subscriptions(&self) -> Vec<SubscriptionInfo> {
        self.lock()
            .subs
            .values()
            .map(|e| SubscriptionInfo {
                id: e.id,
                key: e.key.clone(),
                pending: e.channel.pending(),
                delivered: e.channel.delivered(),
                coalesced: e.channel.coalesced(),
            })
            .collect()
    }

    /// Live counter values.
    pub fn metrics(&self) -> SubscribeMetrics {
        SubscribeMetrics {
            active: self.len(),
            registered_total: self.registered_total.get(),
            evaluations: self.evaluations.get(),
            eval_errors: self.eval_errors.get(),
            notifications: self.notifications.get(),
            dropped: self.dropped.get(),
            coalesced: self.coalesced.get(),
        }
    }

    /// The notification-latency histogram (nanoseconds per delivered
    /// evaluation: snapshot query + diff + enqueue).
    pub fn notify_latency(&self) -> &Arc<LatencyHistogram> {
        &self.notify_ns
    }

    /// Adopts the registry's live cells into an [`ObsRegistry`] under the
    /// `subscribe_*` names, so the cells the notify pass already
    /// increments are the very cells the exposition renders.
    pub fn register_obs(&self, obs: &ObsRegistry) {
        obs.adopt_counter(
            "subscribe_registered_total",
            Arc::clone(&self.registered_total),
        );
        obs.adopt_counter("subscribe_evaluations_total", Arc::clone(&self.evaluations));
        obs.adopt_counter("subscribe_eval_errors_total", Arc::clone(&self.eval_errors));
        obs.adopt_counter(
            "subscribe_notifications_total",
            Arc::clone(&self.notifications),
        );
        obs.adopt_counter("subscribe_dropped_total", Arc::clone(&self.dropped));
        obs.adopt_counter("subscribe_coalesced_total", Arc::clone(&self.coalesced));
        obs.adopt_histogram("subscribe_notify_ns", Arc::clone(&self.notify_ns));
    }

    /// The commit-side notify pass: intersects the tick's dirty terms
    /// with the inverted index, re-evaluates only the affected
    /// registrations against the just-published generation, and pushes
    /// diffs under each channel's overflow policy.
    ///
    /// `patterns_of` returns a term's triggering patterns, which every
    /// diff naming that term shares by pointer. It is called only for
    /// diffs actually sent.
    ///
    /// The registry lock is held only to collect affected entries (and
    /// to garbage-collect disconnected ones); evaluation, diffing, and
    /// channel pushes run without it, so a `Block`ed channel can never
    /// deadlock against concurrent `subscribe` calls.
    pub fn on_commit(
        &self,
        tick: u64,
        dirty: &BTreeSet<TermId>,
        patterns_of: impl Fn(TermId) -> Arc<[PatternRecord]>,
    ) -> NotifyReport {
        let mut report = NotifyReport::default();
        if dirty.is_empty() {
            return report;
        }
        let affected: Vec<(Arc<SubEntry>, Vec<TermId>)> = {
            let mut inner = self.lock();
            if inner.subs.is_empty() {
                return report;
            }
            // Intersect over the smaller side: a commit with few dirty
            // terms probes the index; a commit dirtying everything walks
            // the (ordered) index once.
            let mut hits: BTreeMap<u64, Vec<TermId>> = BTreeMap::new();
            if dirty.len() <= inner.term_index.len() {
                for &term in dirty {
                    if let Some(ids) = inner.term_index.get(&term) {
                        for &id in ids {
                            hits.entry(id).or_default().push(term);
                        }
                    }
                }
            } else {
                for (&term, ids) in &inner.term_index {
                    if dirty.contains(&term) {
                        for &id in ids {
                            hits.entry(id).or_default().push(term);
                        }
                    }
                }
            }
            // Garbage-collect disconnected registrations among the hits
            // before evaluating them.
            let mut out = Vec::with_capacity(hits.len());
            for (id, terms) in hits {
                let Some(entry) = inner.subs.get(&id) else {
                    continue;
                };
                if entry.channel.receivers() == 0 {
                    let entry = Arc::clone(entry);
                    inner.subs.remove(&id);
                    unindex(&mut inner, &entry);
                    report.disconnected += 1;
                    continue;
                }
                out.push((Arc::clone(entry), terms));
            }
            out
        };

        let mut gone: Vec<SubscriptionId> = Vec::new();
        for (entry, terms) in affected {
            let started = Instant::now();
            report.evaluated += 1;
            self.evaluations.inc();
            let snapshot = match self.front.query_snapshot(&entry.query) {
                Ok(s) => s,
                Err(_) => {
                    // Standing queries were validated at registration and
                    // cannot become invalid; count and keep going rather
                    // than poisoning the commit path.
                    self.eval_errors.inc();
                    continue;
                }
            };
            let mut last = match entry.last.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let current = snapshot.response.results.clone();
            let diff = ResultDiff::compute(
                entry.id,
                Some(tick),
                snapshot.generation,
                last.clone(),
                current.clone(),
                Vec::new(),
            );
            if diff.is_unchanged() {
                continue;
            }
            let triggers: Vec<Trigger> = terms
                .iter()
                .map(|&term| Trigger {
                    term,
                    patterns: patterns_of(term),
                })
                .collect();
            let diff = ResultDiff { triggers, ..diff };
            // `last` is held across the send and advanced only when the
            // diff actually reached the queue: a `DropCounted` drop
            // leaves it at the last *enqueued* state, so the next
            // delivered diff spans the gap and `previous` always names a
            // state the subscriber received (diff-stream contiguity).
            match handle_send(self, &entry, diff) {
                SendOutcome::Delivered | SendOutcome::Coalesced(_) => {
                    *last = current;
                    report.notified += 1;
                    self.notify_ns.record_duration(started.elapsed());
                }
                SendOutcome::Dropped => report.dropped += 1,
                SendOutcome::Disconnected => gone.push(entry.id),
            }
        }
        if !gone.is_empty() {
            let mut inner = self.lock();
            for id in gone {
                if let Some(entry) = inner.subs.remove(&id.0) {
                    unindex(&mut inner, &entry);
                    report.disconnected += 1;
                }
            }
        }
        report
    }
}

/// Removes `entry`'s terms from the inverted index.
fn unindex(inner: &mut Inner, entry: &SubEntry) {
    for term in entry.key.terms() {
        if let Some(ids) = inner.term_index.get_mut(term) {
            ids.remove(&entry.id.0);
            if ids.is_empty() {
                inner.term_index.remove(term);
            }
        }
    }
}

/// Pushes one diff and folds the outcome into the registry counters.
fn handle_send(
    registry: &SubscriptionRegistry,
    entry: &Arc<SubEntry>,
    diff: ResultDiff,
) -> SendOutcome {
    let outcome = entry.channel.send(diff);
    match outcome {
        SendOutcome::Delivered => registry.notifications.inc(),
        SendOutcome::Coalesced(n) => {
            registry.notifications.inc();
            registry.coalesced.add(n);
        }
        SendOutcome::Dropped => registry.dropped.inc(),
        SendOutcome::Disconnected => {}
    }
    outcome
}
