//! In-memory spans recorded by the benchmark's own wrappers.
//!
//! The program under test carries no tracing yet, so every span here is
//! taken from outside: around a public call on the client thread, or inside
//! a decorator ([`crate::stack::TimedCompute`], [`crate::stack::TimedTransport`])
//! the benchmark slots under the executor. Spans are kept in memory and
//! written out once the run has ended.
//!
//! One request is one tree: a `request` root, its sequential children
//! (`tick`, `decide`, `deploy`, `lower`, `execute`), and under `execute` the
//! `submit` spans (client thread) and `compute` spans (worker threads, which
//! overlap when tiles run in parallel). A span's *self time* is its duration
//! minus the part of it its children cover.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span names, in waterfall order.
pub const REQUEST: &str = "request";
pub const TICK: &str = "tick";
pub const DECIDE: &str = "decide";
pub const DEPLOY: &str = "deploy";
pub const LOWER: &str = "lower";
pub const EXECUTE: &str = "execute";
pub const SUBMIT: &str = "submit";
pub const COMPUTE: &str = "compute";

/// The waterfall's rows: a span name and the module(s) whose time it is.
pub const LAYERS: [(&str, &str); 7] = [
    (TICK, "core::monitor + core::predictor (+ precompute)"),
    (DECIDE, "core::decision + core::cache + rl + partition::estimator"),
    (DEPLOY, "core::reconfig + partition::estimator"),
    (LOWER, "supernet::spec + partition::plan + core::scheduler"),
    (EXECUTE, "core::executor + tensor::tile + waiting on workers"),
    (SUBMIT, "transport submit (wire encode, framing, socket write)"),
    (COMPUTE, "tensor kernels (conv / int8)"),
];

/// One recorded interval. `parent == 0` marks a request root.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Index of the request in the traced schedule.
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Device, for `submit`/`compute` spans.
    pub dev: u16,
    /// Execution unit, for `submit`/`compute` spans.
    pub unit: u16,
    /// Tensor elements handled, for `submit`/`compute` spans.
    pub elems: u32,
    /// Wire bytes moved (computed from `frame_bytes`), for `submit` spans.
    pub bytes: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span sink shared by the client thread and the decorators.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    /// The request and `execute` span the worker-side decorators attach
    /// their spans to. One request is in flight at a time (closed loop,
    /// one client), so a pair of atomics is enough.
    cur_req: AtomicU32,
    cur_parent: AtomicU32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
            cur_req: AtomicU32::new(0),
            cur_parent: AtomicU32::new(0),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was built.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the tracer was built, for a time taken elsewhere.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name a parent that is still open.
    pub fn alloc_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Points the decorators at the open request and `execute` span.
    pub fn set_context(&self, req: u32, parent: u32) {
        // Relaxed: the job hand-off to the worker (channel or socket)
        // orders these stores before the worker's loads.
        self.cur_req.store(req, Ordering::Relaxed);
        self.cur_parent.store(parent, Ordering::Relaxed);
    }

    /// Records a finished span under the current context (decorators).
    #[allow(clippy::too_many_arguments)]
    pub fn record_in_context(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        dev: usize,
        unit: usize,
        elems: usize,
        bytes: usize,
    ) {
        let span = Span {
            id: self.alloc_id(),
            parent: self.cur_parent.load(Ordering::Relaxed),
            req: self.cur_req.load(Ordering::Relaxed),
            name,
            start_ns,
            end_ns,
            dev: dev as u16,
            unit: unit as u16,
            elems: elems as u32,
            bytes: bytes as u32,
        };
        self.push(span);
    }

    /// Records a finished client-thread span with a reserved id.
    pub fn record(&self, id: u32, parent: u32, req: u32, name: &'static str, start: u64, end: u64) {
        self.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: start,
            end_ns: end,
            dev: 0,
            unit: 0,
            elems: 0,
            bytes: 0,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no span recorder panics while holding the lock").push(span);
    }

    /// Forgets every span recorded so far (the warm-up's).
    pub fn clear(&self) {
        self.spans.lock().expect("no span recorder panics while holding the lock").clear();
    }

    /// Every span recorded so far, grouped by request and ordered by start.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans =
            self.spans.lock().expect("no span recorder panics while holding the lock").clone();
        spans.sort_by_key(|s| (s.req, s.start_ns, s.id));
        spans
    }
}

/// Total length covered by a set of intervals (overlaps counted once).
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        if e <= s {
            continue;
        }
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    total + open.map_or(0, |(s, e)| e - s)
}

/// A span's duration minus the union of its direct children, each clipped
/// to the span.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .collect();
    span.dur_ns() - union_ns(&mut clipped).min(span.dur_ns())
}

/// Self time per span name, summed over all spans, plus the roots' total
/// wall time and the part of it no single layer can be charged with.
pub struct Waterfall {
    /// `(name, total self ns, span count)` in [`LAYERS`] order.
    pub rows: Vec<(&'static str, u64, usize)>,
    pub wall_ns: u64,
    /// Wall time seen only from around it: the roots' own gaps between
    /// calls, and `execute`'s self time — what is left of the call once its
    /// `submit` and `compute` spans are taken out. That remainder is the
    /// executor's own work *and* socket transit, worker-side framing and
    /// thread wake-ups, which spans taken from outside cannot tell apart.
    pub opaque_ns: u64,
}

impl Waterfall {
    pub fn build(spans: &[Span]) -> Waterfall {
        let mut children: std::collections::HashMap<u32, Vec<&Span>> = Default::default();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push(s);
        }
        let none: Vec<&Span> = Vec::new();
        let mut rows: Vec<(&'static str, u64, usize)> =
            LAYERS.iter().map(|&(name, _)| (name, 0, 0)).collect();
        let (mut wall_ns, mut opaque_ns) = (0, 0);
        for s in spans {
            let own = self_time_ns(s, children.get(&s.id).unwrap_or(&none));
            if s.parent == 0 {
                wall_ns += s.dur_ns();
                opaque_ns += own;
            } else if let Some(row) = rows.iter_mut().find(|r| r.0 == s.name) {
                row.1 += own;
                row.2 += 1;
                if s.name == EXECUTE {
                    opaque_ns += own;
                }
            }
        }
        Waterfall { rows, wall_ns, opaque_ns }
    }

    /// Share of the requests' wall clock charged to one layer: a whole
    /// `tick`, `decide`, `deploy` or `lower` call, or a `submit` or
    /// `compute` span under `execute`. The rest is [`Waterfall::opaque_ns`].
    pub fn closure_share(&self) -> f64 {
        1.0 - crate::stats::share(self.opaque_ns as f64, self.wall_ns as f64)
    }
}

/// Requests whose spans are written to the trace file (the summary covers
/// all of them; the file stays small enough to read).
pub const TRACE_FILE_REQUESTS: u32 = 64;

/// Writes the trace file: one header object, one line per span of the
/// first [`TRACE_FILE_REQUESTS`] requests, one `waterfall` line per layer.
pub fn write_trace_file(
    path: &std::path::Path,
    header: &str,
    spans: &[Span],
    waterfall: &Waterfall,
    n_requests: usize,
) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{header}")?;
    for s in spans.iter().filter(|s| s.req < TRACE_FILE_REQUESTS) {
        writeln!(
            f,
            "{{\"req\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"dev\": {}, \"unit\": {}, \"elems\": {}, \"bytes\": {}}}",
            s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.dev, s.unit, s.elems, s.bytes
        )?;
    }
    for (name, self_ns, count) in &waterfall.rows {
        writeln!(
            f,
            "{{\"waterfall\": \"{name}\", \"self_ms_per_req\": {:.6}, \"share_of_wall\": {:.6}, \
             \"spans\": {count}}}",
            *self_ns as f64 / 1e6 / n_requests.max(1) as f64,
            crate::stats::share(*self_ns as f64, waterfall.wall_ns as f64),
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, req: 0, name, start_ns, end_ns, dev: 0, unit: 0, elems: 0, bytes: 0 }
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(&mut [(20, 30), (0, 10), (10, 20)]), 30);
        assert_eq!(union_ns(&mut [(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        let execute = span(2, 1, EXECUTE, 100, 200);
        // Two tiles computing in parallel plus a submit that starts before
        // the span and a compute that ends after it: both are clipped.
        let kids = [
            span(3, 2, COMPUTE, 110, 150),
            span(4, 2, COMPUTE, 120, 160),
            span(5, 2, SUBMIT, 90, 105),
            span(6, 2, COMPUTE, 190, 250),
        ];
        let refs: Vec<&Span> = kids.iter().collect();
        // Covered: [100,105] + [110,160] + [190,200] = 65 of 100.
        assert_eq!(self_time_ns(&execute, &refs), 35);
        assert_eq!(self_time_ns(&execute, &[]), 100);
    }

    #[test]
    fn waterfall_attributes_self_time_and_closure() {
        let spans = vec![
            span(1, 0, REQUEST, 0, 100),
            span(2, 1, TICK, 0, 10),
            span(3, 1, DECIDE, 10, 20),
            span(4, 1, EXECUTE, 25, 95),
            span(5, 4, COMPUTE, 30, 60),
            span(6, 4, COMPUTE, 40, 80),
        ];
        let w = Waterfall::build(&spans);
        let row = |name: &str| w.rows.iter().find(|r| r.0 == name).map(|r| r.1).unwrap();
        assert_eq!(row(TICK), 10);
        assert_eq!(row(DECIDE), 10);
        assert_eq!(row(EXECUTE), 20); // 70 minus the 50 its tiles cover
        assert_eq!(row(COMPUTE), 70); // parallel tiles: summed, not unioned
        assert_eq!(w.wall_ns, 100);
        // The root's own gaps (20..25, 95..100) and execute's 20 are opaque.
        assert_eq!(w.opaque_ns, 30);
        assert!((w.closure_share() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn context_routes_decorator_spans_to_the_open_execute_span() {
        let t = Tracer::default();
        let root = t.alloc_id();
        let exec = t.alloc_id();
        t.set_context(7, exec);
        t.record_in_context(COMPUTE, 5, 9, 2, 3, 64, 0);
        t.record(exec, root, 7, EXECUTE, 1, 10);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        let compute = spans.iter().find(|s| s.name == COMPUTE).unwrap();
        assert_eq!((compute.parent, compute.req, compute.dev, compute.unit), (exec, 7, 2, 3));
    }
}
