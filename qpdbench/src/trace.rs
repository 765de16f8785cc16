//! In-memory span recorder used by the traced (`--trace 1`) runs.
//!
//! The benchmark wraps its own calls into each crate's public functions
//! in spans: name, start, end, parent span and operation id. Spans stay
//! in memory until the run ends, then [`Tracer::write_jsonl`] dumps them.
//! A span's *self time* is its duration minus the part of its interval
//! that child spans cover (children may run concurrently on pool
//! workers, so their intervals are merged before subtracting).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// The span a new span nests under: its id and operation id (`0` for
/// none). Pass it to [`Tracer::span_in`] to parent spans opened on
/// other threads, e.g. inside `qpd_par::par_map`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    id: u64,
    op: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Ctx>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per-name aggregate: call count, total duration and total self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> Ctx {
        STACK.with(|s| s.borrow().last().copied().unwrap_or_default())
    }

    /// Opens a root span that starts operation `op`.
    pub fn op<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.record(name, Ctx { id: 0, op }, f)
    }

    /// Opens a span under this thread's innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(name, self.current(), f)
    }

    /// Opens a span under `parent` (which may belong to another thread).
    pub fn span_in<R>(&self, parent: Ctx, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(name, parent, f)
    }

    fn record<R>(&self, name: &'static str, parent: Ctx, f: impl FnOnce() -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let ctx = Ctx { id, op: parent.op };
        STACK.with(|s| s.borrow_mut().push(ctx));
        let start = self.now();
        let out = f();
        let end = self.now();
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span { id, parent: parent.id, op: parent.op, name, start, end };
        self.spans.lock().expect("span buffer poisoned by a panicking span").push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned by a panicking span").clone()
    }

    /// Every span with its self time in nanoseconds.
    fn with_self_times(&self) -> Vec<(Span, u64)> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        spans
            .into_iter()
            .map(|s| {
                let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start, s.end));
                let own = (s.end - s.start).saturating_sub(covered);
                (s, own)
            })
            .collect()
    }

    /// Calls, total and self time per span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, own) in self.with_self_times() {
            let agg = out.entry(s.name).or_default();
            agg.calls += 1;
            agg.total_ns += s.end - s.start;
            agg.self_ns += own;
        }
        out
    }

    /// Per-span self times of one name, in nanoseconds (for medians).
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        self.with_self_times().into_iter().filter(|(s, _)| s.name == name).map(|(_, t)| t).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children_is_subtracted_once() {
        assert_eq!(covered_ns(&[(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        assert_eq!(covered_ns(&[(0, 200)], 50, 100), 50);
        assert_eq!(covered_ns(&[], 0, 100), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        t.op("outer", 7, || {
            t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let agg = t.aggregate();
        let outer = agg["outer"];
        let inner = agg["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.self_ns < inner.total_ns);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert!(t.spans().iter().all(|s| s.op == 7));
    }
}
