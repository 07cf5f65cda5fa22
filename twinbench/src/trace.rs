//! Spans the benchmark records around its own calls into each layer.
//!
//! A span is (id, parent, name, request id, start, end). Spans stay in
//! memory until the run ends and are then summarised into the layer
//! table and written out as JSON lines. Nesting is per thread: a span
//! opened while another is open on the same thread is its child, and a
//! layer's self time is its duration minus the time its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The time base of every span in the process: the first call fixes it,
/// and `main` makes that call before any workload runs, so intervals a
/// load thread timed before its tracer existed still measure right.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The span recorder. A disabled tracer runs the wrapped calls and
/// records nothing — the untraced arm of the overhead measurement.
pub struct Tracer {
    enabled: bool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(epoch()).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no span holder panics").push(span);
    }

    /// Run `f` inside a span named `name` for request `req`.
    pub fn span<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        // Ids are only unique labels; nothing is published through them.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            name,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    /// Record a span whose interval was measured by the caller (a client
    /// round trip timed on a load thread), as a child of whatever span is
    /// open on this thread.
    pub fn record(&self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.push(Span {
            id,
            parent,
            name,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    pub count: usize,
    /// Every duration, ns, ascending.
    pub durations_ns: Vec<f64>,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl LayerRow {
    /// Median duration, µs (`0` when the span never ran).
    pub fn p50_us(&self) -> f64 {
        crate::stats::percentile(&self.durations_ns, 50.0).value() / 1e3
    }
}

/// Aggregate spans by name, computing self time from the parent links.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for s in spans {
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.durations_ns.push(s.dur_ns() as f64);
        row.total_ns += s.dur_ns();
        row.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    for row in rows.values_mut() {
        row.durations_ns = crate::stats::sorted(std::mem::take(&mut row.durations_ns));
    }
    rows
}

/// Sum of the durations of spans named in `names`, per request id.
pub fn per_request_ns(spans: &[Span], names: &[&str]) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| names.contains(&s.name)) {
        *out.entry(s.req).or_default() += s.dur_ns();
    }
    out
}

/// Write spans as JSON lines (one object per span).
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Tracing overhead, %: the same pass timed with spans off and on,
/// alternating three times, median of each arm. `pass` gets the tracer
/// to record into (disabled in the untraced arm).
pub fn overhead_pct(mut pass: impl FnMut(&Tracer) -> Result<(), String>) -> Result<f64, String> {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (enabled, arm) in [(false, &mut off), (true, &mut on)] {
            let tracer = Tracer::new(enabled);
            let started = Instant::now();
            pass(&tracer)?;
            arm.push(started.elapsed().as_secs_f64());
        }
    }
    let (off, on) = (crate::stats::median(&off), crate::stats::median(&on));
    Ok(100.0 * (on - off) / off)
}

/// The span table: count, median, total and self time per span name.
pub fn table(rows: &BTreeMap<&'static str, LayerRow>) -> Vec<String> {
    let mut lines = vec![format!(
        "  {:<28} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "p50 us", "total ms", "self ms"
    )];
    for (name, row) in rows {
        lines.push(format!(
            "  {name:<28} {:>8} {:>12.2} {:>12.2} {:>12.2}",
            row.count,
            row.p50_us(),
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::new(true);
        tracer.span("outer", 7, || {
            tracer.span("inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = tracer.spans();
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer recorded");
        let inner = spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        let rows = summarize(&spans);
        assert_eq!(rows["outer"].self_ns, outer.dur_ns() - inner.dur_ns());
        assert_eq!(rows["inner"].self_ns, inner.dur_ns());
        assert_eq!(per_request_ns(&spans, &["inner"])[&7], inner.dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 1, || 41 + 1), 42);
        assert!(tracer.spans().is_empty());
    }
}
