//! Timing around calls into the response tier.
//!
//! Every layer boundary the workloads cross goes through
//! [`Tracer::begin`]/[`Tracer::end`]. Both modes read the clock there, so
//! the untraced run measures engine time with the same instrumentation the
//! traced run uses; the traced run additionally keeps one [`Span`] per call
//! in memory (name, start, end, parent, epoch) and writes them out when the
//! benchmark ends.

use std::io::Write;
use std::time::Instant;

/// Parent id of a top-level span.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    pub epoch: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A started call; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    start: Instant,
    id: u32,
}

/// Clock reads at layer boundaries, plus the span log when tracing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a call named `name` in `epoch`, nested in the innermost open
    /// call.
    #[inline]
    pub fn begin(&mut self, name: &'static str, epoch: u64) -> Open {
        let start = Instant::now();
        if !self.on {
            return Open { start, id: ROOT };
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
            epoch: epoch as u32,
        });
        self.open.push(id);
        Open { start, id }
    }

    /// Ends a call and returns its duration in nanoseconds.
    #[inline]
    pub fn end(&mut self, open: Open) -> u64 {
        let now = Instant::now();
        if self.on {
            self.spans[open.id as usize].end_ns = (now - self.origin).as_nanos() as u64;
            self.open.pop();
        }
        (now - open.start).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the span log as tab-separated lines
    /// (`id name start_ns end_ns parent epoch`).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tepoch")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.epoch
            )?;
        }
        out.flush()
    }
}

/// Per-name aggregates over a span log.
#[derive(Debug, Default, Clone)]
pub struct SpanSummary {
    /// Calls recorded.
    pub calls: u64,
    /// Summed duration, seconds.
    pub busy_s: f64,
    /// Summed duration minus the time nested calls cover, seconds.
    pub self_s: f64,
    /// Per-call durations, milliseconds.
    pub call_ms: Vec<f64>,
}

/// Aggregates `spans` by name; also returns the seconds covered by
/// top-level spans.
pub fn summarize(spans: &[Span]) -> (std::collections::BTreeMap<&'static str, SpanSummary>, f64) {
    let mut by_name: std::collections::BTreeMap<&'static str, SpanSummary> = Default::default();
    let mut child_ns = vec![0u64; spans.len()];
    let mut top_ns = 0u64;
    for s in spans {
        if s.parent == ROOT {
            top_ns += s.ns();
        } else {
            child_ns[s.parent as usize] += s.ns();
        }
    }
    for (s, &nested) in spans.iter().zip(&child_ns) {
        let e = by_name.entry(s.name).or_default();
        e.calls += 1;
        e.busy_s += s.ns() as f64 * 1e-9;
        e.self_s += (s.ns() - nested.min(s.ns())) as f64 * 1e-9;
        e.call_ms.push(s.ns() as f64 * 1e-6);
    }
    (by_name, top_ns as f64 * 1e-9)
}
