//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! of the program: its name, the layer (crate) it belongs to, start and
//! end, the span that caused it, and the request it served. Nothing is
//! written while the workload runs; [`Tracer::write_jsonl`] dumps every
//! span when the run ends, and [`Tracer::self_times_ms`] gives each
//! layer's self time (span time not covered by its child spans).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; `0` means "no parent".
pub type SpanId = u64;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// This span's id (1-based, in recording order).
    pub id: SpanId,
    /// The span that caused it, or 0.
    pub parent: SpanId,
    /// The layer (crate) doing the work.
    pub layer: &'static str,
    /// What ran.
    pub name: &'static str,
    /// The request or iteration it served.
    pub request: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.record_ns(parent, layer, name, request, self.ns(start), self.ns(end))
    }

    /// Records a span given in tracer nanoseconds.
    pub fn record_ns(
        &self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            layer,
            name,
            request,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends; [`Tracer::close`] fills it in.
    pub fn open(&self, parent: SpanId, layer: &'static str, name: &'static str) -> SpanId {
        let now = Instant::now();
        self.record(parent, layer, name, 0, now, now)
    }

    /// Sets the end of a span reserved with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let end = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        if let Some(s) = spans.get_mut((id - 1) as usize) {
            s.end_ns = end;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Self time per layer, milliseconds: each span's duration minus the
    /// part of it its direct children cover.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        self_times_ms(&self.spans())
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                f,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"request\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.layer, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// Self time per layer over a span set (see [`Tracer::self_times_ms`]).
/// Overlapping children are merged so parallel children are not counted
/// twice against their parent.
pub fn self_times_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get(&s.id).map_or(0, |c| {
            let clipped: Vec<(u64, u64)> = c
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|&(a, b)| b > a)
                .collect();
            union_len(clipped)
        });
        *out.entry(s.layer).or_insert(0.0) += own.saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// Total length of a set of intervals, overlaps counted once.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "x",
            request: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, "bench", 0, 10_000_000),
            span(2, 1, "core", 1_000_000, 5_000_000),
            // Overlaps the first child: counted once against the parent.
            span(3, 1, "codec", 4_000_000, 6_000_000),
        ];
        let t = self_times_ms(&spans);
        assert_eq!(t["bench"], 5.0);
        assert_eq!(t["core"], 4.0);
        assert_eq!(t["codec"], 2.0);
    }

    #[test]
    fn tracer_records_parents_and_reserved_spans() {
        let tr = Tracer::new();
        let root = tr.open(0, "bench", "iteration");
        let start = Instant::now();
        tr.record(root, "core", "work", 7, start, Instant::now());
        tr.close(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
