//! In-memory span tracing for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around each call
//! into a library layer. A span's name is `<layer>.<call>`; the layer is
//! the part before the first dot. Spans are kept in memory and written out
//! when the run ends.
//!
//! Self time is computed by a sweep over each client's span tree: at every
//! instant the deepest open span owns the time, so the self times of all
//! layers partition the root spans' wall exactly, even when model calls on
//! pool threads overlap each other.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identity of an open span: what a child records as its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    pub id: u64,
    /// Request id: the question id's index or the commit number.
    pub req: u64,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

thread_local! {
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<SpanCtx>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The innermost span open on the calling thread.
    pub fn current(&self) -> Option<SpanCtx> {
        if !self.enabled {
            return None;
        }
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Run `f` in a span parented to the innermost span open on this
    /// thread. `req` overrides the inherited request id.
    pub fn span<R>(&self, name: &'static str, req: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = self.current();
        self.span_under(name, parent, req, f)
    }

    /// Run `f` in a span with an explicit parent: model calls on pool
    /// threads, which do not see the caller's open spans.
    pub fn span_under<R>(
        &self,
        name: &'static str,
        parent: Option<SpanCtx>,
        req: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let ctx = SpanCtx {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            req: req.or(parent.map(|p| p.req)).unwrap_or(0),
        };
        OPEN.with(|open| open.borrow_mut().push(ctx));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id: ctx.id,
            parent: parent.map(|p| p.id),
            name,
            req: ctx.req,
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span store poisoned").push(span);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Forget every recorded span (work before the measured phase).
    pub fn clear(&self) {
        self.spans.lock().expect("span store poisoned").clear();
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer split of the traced wall.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Layer -> seconds during which one of its spans was the deepest
    /// open span of its tree.
    pub by_layer: BTreeMap<&'static str, f64>,
    /// Span name -> summed durations.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Span name -> count.
    pub counts: BTreeMap<&'static str, u64>,
    /// Summed duration of the root spans.
    pub wall: f64,
}

impl SelfTimes {
    pub fn self_sum(&self) -> f64 {
        self.by_layer.values().sum()
    }

    pub fn layer(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).copied().unwrap_or(0.0)
    }

    pub fn total(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Split the wall of every root span across layers by deepest-open-span
/// ownership. A child that outlives its parent is clipped to it.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut out = SelfTimes::default();
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        *out.by_name.entry(s.name).or_default() += s.secs();
        *out.counts.entry(s.name).or_default() += 1;
        match s.parent {
            Some(p) if by_id.contains_key(&p) => children.entry(p).or_default().push(s),
            _ => {}
        }
    }
    for root in spans
        .iter()
        .filter(|s| s.parent.is_none_or(|p| !by_id.contains_key(&p)))
    {
        out.wall += root.secs();
        // Collect the tree with depths and clipped intervals.
        let mut tree: Vec<(&Span, u32, u64, u64)> = Vec::new();
        let mut stack = vec![(root, 0u32, root.start_ns, root.end_ns)];
        while let Some((s, depth, lo, hi)) = stack.pop() {
            tree.push((s, depth, lo, hi));
            for c in children.get(&s.id).into_iter().flatten() {
                let (clo, chi) = (c.start_ns.max(lo), c.end_ns.min(hi));
                if clo < chi {
                    stack.push((c, depth + 1, clo, chi));
                }
            }
        }
        // Sweep: events sorted by time; the open set is ordered by
        // (depth, start, id) so its maximum is the deepest, latest span.
        let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(tree.len() * 2);
        for (i, &(_, _, lo, hi)) in tree.iter().enumerate() {
            events.push((lo, true, i));
            events.push((hi, false, i));
        }
        events.sort_by_key(|&(t, open, i)| (t, open, i));
        let mut open: BTreeSet<(u32, u64, u64, usize)> = BTreeSet::new();
        let mut last = root.start_ns;
        for (t, is_open, i) in events {
            if let Some(&(_, _, _, owner)) = open.iter().next_back() {
                *out.by_layer.entry(tree[owner].0.layer()).or_default() += (t - last) as f64 / 1e9;
            }
            last = t;
            let (s, depth, lo, _) = tree[i];
            let key = (depth, lo, s.id, i);
            if is_open {
                open.insert(key);
            } else {
                open.remove(&key);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn overlapping_children_partition_the_parent() {
        // A 100 ns udf span with two overlapping model calls (20..60 and
        // 40..80): the model owns 20..80, udf the remaining 40 ns.
        let spans = vec![
            span(1, None, "udf.run_sql", 0, 100),
            span(2, Some(1), "llm.complete", 20, 60),
            span(3, Some(1), "llm.complete", 40, 80),
        ];
        let t = self_times(&spans);
        assert!((t.layer("llm") - 60e-9).abs() < 1e-15);
        assert!((t.layer("udf") - 40e-9).abs() < 1e-15);
        assert!((t.self_sum() - t.wall).abs() < 1e-15);
        assert!((t.total("llm.complete") - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("udf.run_sql", Some(1), || 7), 7);
        assert!(t.spans().is_empty());
        assert!(t.current().is_none());
    }

    #[test]
    fn nested_spans_inherit_parent_and_request() {
        let t = Tracer::new(true);
        t.span("bench.pass", Some(9), || {
            t.span("sqlengine.parse", None, || ())
        });
        let spans = t.spans();
        let child = spans.iter().find(|s| s.name == "sqlengine.parse").unwrap();
        let root = spans.iter().find(|s| s.name == "bench.pass").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(child.req, 9);
    }
}
