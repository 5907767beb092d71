//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the run's
//! epoch), the span that caused it, the request it belongs to, and how
//! many operations it covered (a cohort or bank batch covers several).
//! Each thread records into its own [`Tracer`]; the run merges them,
//! derives per-layer self times and writes the spans out at the end.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `core.wire.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the causing span in the same tracer.
    pub parent: Option<usize>,
    /// Request (or Monte-Carlo call) id shared by a request's spans.
    pub req: u64,
    /// Operations the span covers; per-op times divide by it.
    pub ops: u32,
}

/// Index [`Tracer::open`] hands out for a span it does not keep.
const DROPPED: usize = usize::MAX;

/// One thread's span buffer.
///
/// Once it holds `cap` spans it keeps no new root spans (nor their
/// children) but still reads the clock for them, so the tracing overhead
/// stays the same while memory and the span dump stay bounded.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
}

impl Tracer {
    /// An unbounded buffer timing against `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer::with_cap(epoch, usize::MAX)
    }

    /// A buffer that keeps root spans until it holds `cap` spans.
    pub fn with_cap(epoch: Instant, cap: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            cap,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now();
        let full = parent.is_none() && self.spans.len() >= self.cap;
        if full || parent == Some(DROPPED) {
            return DROPPED;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            ops: 1,
        });
        self.spans.len() - 1
    }

    /// Ends span `idx` now.
    pub fn close(&mut self, idx: usize) {
        let end_ns = self.now();
        if let Some(s) = self.spans.get_mut(idx) {
            s.end_ns = end_ns;
        }
    }

    /// Ends span `idx` now, recording that it covered `ops` operations.
    pub fn close_ops(&mut self, idx: usize, ops: usize) {
        self.close(idx);
        if let Some(s) = self.spans.get_mut(idx) {
            s.ops = ops.max(1) as u32;
        }
    }

    /// Sets the request id of span `idx` (known only after a send).
    pub fn set_req(&mut self, idx: usize, req: u64) {
        if let Some(s) = self.spans.get_mut(idx) {
            s.req = req;
        }
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent, req);
        let out = f();
        self.close(idx);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans of several threads, kept apart so parent indices stay valid.
#[derive(Debug, Default)]
pub struct SpanSet {
    threads: Vec<Vec<Span>>,
}

impl SpanSet {
    /// Adds one thread's spans.
    pub fn add(&mut self, spans: Vec<Span>) {
        self.threads.push(spans);
    }

    /// Self time per operation, in microseconds, of every span named
    /// `name`: the span's duration minus the part its children cover,
    /// divided by the operations it covered.
    pub fn self_us_per_op(&self, name: &str) -> Vec<f64> {
        let mut out = Vec::new();
        for spans in &self.threads {
            let selfs = self_times_ns(spans);
            for (s, self_ns) in spans.iter().zip(selfs) {
                if s.name == name {
                    out.push(self_ns as f64 / 1e3 / f64::from(s.ops));
                }
            }
        }
        out
    }

    /// Median per-op self time of `name`, microseconds (0 if never seen).
    pub fn p50_us(&self, name: &str) -> f64 {
        crate::median(&self.self_us_per_op(name))
    }

    /// Takes the spans out again, one vector per thread, concatenated
    /// (parent indices stay valid only for a single-thread set).
    pub fn into_spans(self) -> Vec<Span> {
        self.threads.into_iter().flatten().collect()
    }

    /// Median over parent spans of the summed self time of their children
    /// named `name`, microseconds (0 if never seen): for a layer entered
    /// more than once per request.
    pub fn p50_us_per_parent(&self, name: &str) -> f64 {
        let mut out = Vec::new();
        for spans in &self.threads {
            let mut sums: Vec<(usize, u64)> = Vec::new();
            for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
                if let (true, Some(p)) = (s.name == name, s.parent) {
                    match sums.last_mut() {
                        Some((q, sum)) if *q == p => *sum += self_ns,
                        _ => sums.push((p, self_ns)),
                    }
                }
            }
            out.extend(sums.iter().map(|&(_, ns)| ns as f64 / 1e3));
        }
        crate::median(&out)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (thread, spans) in self.threads.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"thread\":{thread},\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\
                     \"end_ns\":{},\"parent\":{parent},\"req\":{},\"ops\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.req, s.ops
                )?;
            }
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus its children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 7,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("send", 10, 30, Some(0)),
            span("recv", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        let mut set = SpanSet::default();
        set.add(spans);
        assert_eq!(set.p50_us("recv"), 0.04);
        assert_eq!(set.p50_us("absent"), 0.0);
    }

    #[test]
    fn a_full_tracer_keeps_timing_but_drops_new_requests() {
        let mut tr = Tracer::with_cap(Instant::now(), 2);
        let a = tr.open("op", None, 1);
        let b = tr.open("send", Some(a), 1);
        let c = tr.open("recv", Some(a), 1);
        tr.close(c);
        tr.close(b);
        tr.close(a);
        let d = tr.open("op", None, 2);
        let e = tr.open("send", Some(d), 2);
        tr.close_ops(e, 3);
        tr.set_req(d, 9);
        tr.close(d);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.req == 1));
    }

    #[test]
    fn per_parent_sums_add_up_repeated_children() {
        let mut set = SpanSet::default();
        set.add(vec![
            span("op", 0, 100, None),
            span("host", 0, 10, Some(0)),
            span("host", 50, 70, Some(0)),
            span("op", 100, 200, None),
            span("host", 100, 130, Some(3)),
        ]);
        assert_eq!(set.p50_us_per_parent("host"), 0.03);
    }

    #[test]
    fn per_op_self_time_divides_by_the_ops_covered() {
        let mut batch = span("batch", 0, 8000, None);
        batch.ops = 4;
        let mut set = SpanSet::default();
        set.add(vec![batch]);
        assert_eq!(set.self_us_per_op("batch"), vec![2.0]);
    }
}
