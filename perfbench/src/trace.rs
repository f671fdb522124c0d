//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span is `(name, start, end, parent, request)`; spans of one request
//! share the request id. Spans stay in memory while the workload runs and
//! are written out as JSON lines when the run ends. A layer's self time
//! is its span duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// A span buffer. A disabled trace records nothing, so untraced runs pay
/// one branch per call site.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished interval; returns its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span { name, start, end, parent, request });
        Some(self.spans.len() - 1)
    }

    /// Sets the end of a span recorded open (with `end == start`) before
    /// its children.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        self.spans[id].end = end;
    }

    /// Moves another buffer's spans into this one, re-basing their parent
    /// ids. Used to merge per-thread buffers.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Parents every unparented `child` span under the `parent` span with
    /// the same request id (the two were recorded on different threads).
    pub fn link(&mut self, child: &str, parent: &str) {
        let owners: BTreeMap<u64, SpanId> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(id, s)| (s.request, id))
            .collect();
        for span in &mut self.spans {
            if span.name == child && span.parent.is_none() {
                span.parent = owners.get(&span.request).copied();
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: summed duration and summed self time.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let covered = covered(span, children[id].iter().map(|&c| &self.spans[c]));
            let entry = totals.entry(span.name).or_default();
            entry.total += span.duration();
            entry.self_time += span.duration().saturating_sub(covered);
        }
        totals
    }

    /// Writes every span as one JSON object per line, times in
    /// microseconds since the earliest span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let Some(epoch) = self.spans.iter().map(|s| s.start).min() else {
            return std::fs::write(path, "");
        };
        let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
                s.name,
                us(s.start),
                us(s.end),
                s.request
            )?;
        }
        out.flush()
    }
}

/// Aggregated span figures for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub total: Duration,
    pub self_time: Duration,
}

/// How much of `parent`'s interval the union of `children` covers.
fn covered<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> Duration {
    let mut intervals: Vec<(Instant, Instant)> = children
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Instant, Instant)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}
