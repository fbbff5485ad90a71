//! The benchmark's own spans, recorded around each call into a layer.
//!
//! Spans live in memory until the run ends. Each records its name, its
//! start and end relative to the run's origin, the span it nests under
//! (per thread), and, on the serving workload, the request it belongs
//! to. With tracing off, [`Tracer::span`] reads no clock and records
//! nothing, so untraced runs measure the program alone.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// Enclosing span on the same thread.
    pub parent: Option<u64>,
    /// Layer-qualified name, as in `telemetry.generate`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Request id on the serving workload.
    pub request: Option<u64>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The run's span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; recorded, with its end, when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    open: Option<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every span inert.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.span_for(name, None)
    }

    /// Opens a span that carries a request id.
    pub fn span_for(&self, name: &'static str, request: Option<u64>) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        Guard {
            tracer: self,
            open: Some(Span {
                id,
                parent,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                request,
            }),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.span(name);
        f()
    }

    /// Every span recorded so far, in the order they closed.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            debug_assert_eq!(open.last(), Some(&span.id), "spans must nest");
            open.pop();
        });
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Total length of the union of `intervals`, each clipped to `within`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, within: (u64, u64)) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = within.0;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(within.1);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Per-name totals derived from a span log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// Summed span duration per name, seconds.
    pub busy_s: BTreeMap<&'static str, f64>,
    /// Summed self time per name, seconds: each span's duration minus
    /// the part of it that its child spans cover.
    pub self_s: BTreeMap<&'static str, f64>,
}

impl LayerTimes {
    /// Aggregates a span log.
    pub fn of(spans: &[Span]) -> LayerTimes {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if let Some(parent) = s.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out = LayerTimes::default();
        for s in spans {
            let covered = children
                .remove(&s.id)
                .map_or(0, |c| covered_ns(c, (s.start_ns, s.end_ns)));
            *out.busy_s.entry(s.name).or_default() += s.duration_ns() as f64 * 1e-9;
            *out.self_s.entry(s.name).or_default() += (s.duration_ns() - covered) as f64 * 1e-9;
        }
        out
    }

    /// Busy seconds of `name` (0 when it never ran).
    pub fn busy(&self, name: &str) -> f64 {
        self.busy_s.get(name).copied().unwrap_or(0.0)
    }

    /// Busy seconds summed over every name starting with `prefix`.
    pub fn busy_under(&self, prefix: &str) -> f64 {
        self.busy_s
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s)
            .sum()
    }

    /// Self seconds summed over every name starting with `prefix`.
    pub fn self_time_under(&self, prefix: &str) -> f64 {
        self.self_s
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s)
            .sum()
    }
}

/// The share of the root spans' time (spans named `root`) that their
/// direct children cover; 0 when no such root ran.
pub fn child_coverage(spans: &[Span], root: &str) -> f64 {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let (mut covered, mut total) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == root) {
        total += s.duration_ns();
        if let Some(c) = children.remove(&s.id) {
            covered += covered_ns(c, (s.start_ns, s.end_ns));
        }
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            // Overlapping children (another thread's work) count once.
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "a", 30, 50),
            // A child that outlives its parent is clipped.
            span(4, Some(1), "b", 90, 120),
            span(5, Some(2), "leaf", 10, 20),
        ];
        let t = LayerTimes::of(&spans);
        assert!((t.self_s["root"] - 50e-9).abs() < 1e-15);
        assert!((t.self_s["a"] - 40e-9).abs() < 1e-15);
        assert!((t.busy("a") - 50e-9).abs() < 1e-15);
        assert!((t.self_s["leaf"] - 10e-9).abs() < 1e-15);
        assert!((child_coverage(&spans, "root") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_per_thread_and_is_inert_when_off() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("outer");
            tracer.time("inner", || ());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);

        let off = Tracer::new(false);
        off.time("x", || ());
        assert!(off.spans().is_empty());
    }
}
