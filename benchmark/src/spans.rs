//! The harness span recorder of the traced run: one span per call into a
//! layer, recorded from the benchmark's side of the public API, kept in
//! memory and written out when the workload ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer name of the harness's own windows. A window's self time is
/// what no layer call inside it accounts for: the unmeasured share.
pub const HARNESS: &str = "harness";

/// 1-based index into the recorder's span list; 0 means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    /// Crate name without `stb-`, or [`HARNESS`].
    pub layer: &'static str,
    /// Operation id (tick number, query index, lap) shared by the spans of
    /// one operation.
    pub op: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; always returns the elapsed time of a timed
/// call, which the untraced run uses for its metrics.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty recorder on the same clock for another thread; hand it back
    /// with [`Recorder::adopt`].
    pub fn fork(&self, thread: u32) -> Recorder {
        Recorder {
            origin: self.origin,
            enabled: self.enabled,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays the parent of everything recorded until it
    /// is closed. Returns 0 when tracing is off.
    pub fn open(&mut self, name: &'static str, layer: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        let id = self.push(name, layer, op, now, now);
        self.open.push(id);
        id
    }

    /// Closes `id`; closing 0 (nothing open, or tracing off) is a no-op.
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled || id == 0 {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// Times one call into a layer; returns its result and elapsed seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        call: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = call();
        let elapsed = start.elapsed();
        if self.enabled {
            let start_ns = (start - self.origin).as_nanos() as u64;
            self.push(
                name,
                layer,
                op,
                start_ns,
                start_ns + elapsed.as_nanos() as u64,
            );
        }
        (out, elapsed.as_secs_f64())
    }

    /// Records a child of `parent` from timings the program reported itself
    /// (offsets relative to the parent's start).
    pub fn child_at(
        &mut self,
        parent: SpanId,
        name: &'static str,
        layer: &'static str,
        offset_ns: u64,
        duration_ns: u64,
    ) {
        if !self.enabled || parent == 0 {
            return;
        }
        let p = &self.spans[parent as usize - 1];
        let (op, start) = (p.op, p.start_ns + offset_ns);
        let id = self.push(name, layer, op, start, start + duration_ns);
        self.spans[id as usize - 1].parent = parent;
    }

    /// The id of the span most recently recorded by [`Recorder::time`].
    pub fn last(&self) -> SpanId {
        self.spans.len() as SpanId
    }

    fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            layer,
            op,
            thread: self.thread,
            start_ns,
            end_ns,
        });
        id
    }

    /// Takes over another thread's spans; its root spans become children of
    /// the span currently open here.
    pub fn adopt(&mut self, other: Recorder) {
        let base = self.spans.len() as SpanId;
        let parent = self.open.last().copied().unwrap_or(0);
        for mut s in other.spans {
            s.id += base;
            s.parent = if s.parent == 0 {
                parent
            } else {
                s.parent + base
            };
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"layer\": \"{}\", \"op\": {}, \
                 \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.layer, s.op, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0, lo);
    for (start, end) in intervals {
        let (start, end) = (start.max(edge), end.min(hi));
        if end > start {
            total += end - start;
            edge = end;
        }
    }
    total
}

/// What the trace says about where time went.
#[derive(Debug, Default, PartialEq)]
pub struct Accounting {
    /// Self time per layer in ns: a span's duration minus the part of it
    /// its child spans cover.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Wall-clock of the harness windows that directly hold layer calls.
    pub window_ns: u64,
    /// The part of `window_ns` those layer calls cover.
    pub window_covered_ns: u64,
}

impl Accounting {
    pub fn coverage(&self) -> f64 {
        if self.window_ns == 0 {
            return 1.0;
        }
        self.window_covered_ns as f64 / self.window_ns as f64
    }

    pub fn self_s(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e9
    }
}

pub fn account(spans: &[Span]) -> Accounting {
    let mut children: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let mut acc = Accounting::default();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let intervals = kids.iter().map(|k| (k.start_ns, k.end_ns)).collect();
        let inside = covered(intervals, s.start_ns, s.end_ns);
        *acc.self_ns.entry(s.layer).or_insert(0) += s.duration_ns() - inside;
        // A window that holds only other windows (a phase around its
        // reader threads) is accounted through them.
        if s.layer == HARNESS && kids.iter().any(|k| k.layer != HARNESS) {
            acc.window_ns += s.duration_ns();
            acc.window_covered_ns += inside;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            layer,
            op: 0,
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // window [0,100] holds ingest [10,90], which holds core [20,50]
        // and search [40,80] (overlapping by 10).
        let spans = vec![
            span(1, 0, HARNESS, 0, 100),
            span(2, 1, "ingest", 10, 90),
            span(3, 2, "core", 20, 50),
            span(4, 2, "search", 40, 80),
        ];
        let acc = account(&spans);
        assert_eq!(acc.self_ns[HARNESS], 20);
        assert_eq!(acc.self_ns["ingest"], 80 - 60);
        assert_eq!(acc.self_ns["core"], 30);
        assert_eq!(acc.self_ns["search"], 40);
        assert_eq!(acc.window_ns, 100);
        assert_eq!(acc.window_covered_ns, 80);
        assert!((acc.coverage() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span(1, 0, HARNESS, 10, 20), span(2, 1, "store", 5, 15)];
        let acc = account(&spans);
        assert_eq!(acc.self_ns[HARNESS], 5);
        assert_eq!(acc.window_covered_ns, 5);
    }

    #[test]
    fn a_window_of_windows_is_accounted_through_them() {
        // A phase window around two reader windows on other threads.
        let spans = vec![
            span(1, 0, HARNESS, 0, 100),
            span(2, 1, HARNESS, 0, 100),
            span(3, 1, HARNESS, 0, 90),
            span(4, 2, "search", 0, 95),
            span(5, 3, "search", 0, 90),
        ];
        let acc = account(&spans);
        assert_eq!(acc.window_ns, 190);
        assert_eq!(acc.window_covered_ns, 185);
        assert_eq!(acc.self_ns["search"], 185);
    }

    #[test]
    fn recorder_nests_adopts_and_stays_silent_when_off() {
        let mut rec = Recorder::new(true);
        let window = rec.open("window", HARNESS, 7);
        let (v, secs) = rec.time("call", "core", 7, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let call = rec.last();
        rec.child_at(call, "inner", "search", 0, 0);
        let mut other = rec.fork(1);
        let w2 = other.open("reader", HARNESS, 0);
        other.time("q", "search", 0, || ());
        other.close(w2);
        rec.adopt(other);
        rec.close(window);
        let s = rec.spans();
        assert_eq!(s.len(), 5);
        assert_eq!((s[1].parent, s[2].parent), (window, call));
        assert_eq!(s[2].op, 7);
        // The forked root hangs under the open window, its child under it.
        assert_eq!(
            (s[3].parent, s[4].parent, s[4].thread),
            (window, s[3].id, 1)
        );
        assert!(s[0].end_ns >= s[4].end_ns);

        let mut off = Recorder::new(false);
        let w = off.open("window", HARNESS, 0);
        let ((), _) = off.time("call", "core", 0, || ());
        off.close(w);
        assert!(off.spans().is_empty());
    }
}
