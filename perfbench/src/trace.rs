//! The benchmark's own spans.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! into each layer; they stay in memory and are written out once, as JSON
//! lines, when the run ends. Each span carries wall time and the process
//! CPU time spent while it was open (which includes helper threads, e.g.
//! the tuner's race threads, and threads that exited meanwhile).

use std::time::{Duration, Instant};

use grover_obs::json::Obj;

use crate::clock::process_cpu;

/// One finished span. Times are microseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub trace: u128,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_us: u64,
    pub end_us: u64,
    pub cpu_us: u64,
}

impl Span {
    pub fn wall_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    fn to_json(&self, workload: &str) -> String {
        let obj = Obj::new()
            .str("workload", workload)
            .str("name", self.name)
            .str("trace_id", &format!("{:032x}", self.trace))
            .u64("span_id", self.id);
        let obj = match self.parent {
            Some(p) => obj.u64("parent", p),
            None => obj.null("parent"),
        };
        obj.u64("start_us", self.start_us)
            .u64("end_us", self.end_us)
            .u64("wall_us", self.wall_us())
            .u64("cpu_us", self.cpu_us)
            .finish()
    }
}

/// A span that has been opened but not closed.
pub struct Open {
    name: &'static str,
    trace: u128,
    id: u64,
    parent: Option<u64>,
    start_us: u64,
    cpu0: Duration,
}

/// In-memory span store.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, trace: u128, parent: Option<u64>) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            name,
            trace,
            id,
            parent,
            start_us: self.now_us(),
            cpu0: process_cpu(),
        }
    }

    pub fn close(&mut self, open: Open) -> &Span {
        let cpu = process_cpu().saturating_sub(open.cpu0);
        let span = Span {
            name: open.name,
            trace: open.trace,
            id: open.id,
            parent: open.parent,
            start_us: open.start_us,
            end_us: self.now_us(),
            cpu_us: u64::try_from(cpu.as_micros()).unwrap_or(u64::MAX),
        };
        self.spans.push(span);
        self.spans.last().expect("just pushed")
    }

    /// Record `f` as a leaf span named `name` under `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: &Open, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, parent.trace, Some(parent.id));
        let r = f();
        self.close(open);
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// CPU microseconds of every span named `name` under the span `parent`.
    pub fn cpu_us_under(&self, parent: u64, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.cpu_us)
            .sum()
    }

    /// Per span name: count, total wall µs and self wall µs, sorted by
    /// name. Self time is what `self_time_us` leaves after the span's
    /// children.
    pub fn summary(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut rows: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
            Default::default();
        for s in &self.spans {
            let children: Vec<&Span> = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .collect();
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.wall_us();
            row.2 += self_time_us(s, &children);
        }
        rows.into_iter()
            .map(|(name, (n, wall, own))| (name, n, wall, own))
            .collect()
    }

    /// Every span as one JSON object per line, tagged with `workload`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        self.spans
            .iter()
            .map(|s| s.to_json(workload) + "\n")
            .collect()
    }
}

/// Wall time of `span` not covered by any of `children`: the children's
/// intervals are clipped to the span and merged before subtracting, so
/// overlapping children are not counted twice.
pub fn self_time_us(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_us.clamp(span.start_us, span.end_us),
                c.end_us.clamp(span.start_us, span.end_us),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    span.wall_us() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_us: u64, end_us: u64) -> Span {
        Span {
            name: "s",
            trace: 1,
            id,
            parent,
            start_us,
            end_us,
            cpu_us: 0,
        }
    }

    #[test]
    fn self_time_subtracts_merged_child_intervals() {
        let parent = span(1, None, 100, 200);
        assert_eq!(self_time_us(&parent, &[]), 100);
        // Two disjoint children.
        let (a, b) = (span(2, Some(1), 110, 130), span(3, Some(1), 150, 160));
        assert_eq!(self_time_us(&parent, &[&a, &b]), 70);
        // Overlapping children (race threads) count once.
        let (c, d) = (span(4, Some(1), 110, 150), span(5, Some(1), 140, 170));
        assert_eq!(self_time_us(&parent, &[&d, &c]), 40);
        // A child sticking out of the parent is clipped.
        let e = span(6, Some(1), 90, 120);
        assert_eq!(self_time_us(&parent, &[&e]), 80);
        // A child covering everything leaves nothing.
        let f = span(7, Some(1), 0, 500);
        assert_eq!(self_time_us(&parent, &[&f, &a]), 0);
    }

    #[test]
    fn tracer_nests_and_summarises() {
        let mut t = Tracer::new();
        let root = t.open("case", 7, None);
        let x = t.time("layer", &root, || 1 + 1);
        assert_eq!(x, 2);
        let closed = t.close(root).clone();
        let root_id = closed.id;
        assert_eq!(closed.parent, None);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(root_id));
        assert_eq!(spans[0].trace, 7);
        let summary = t.summary();
        assert_eq!(summary.len(), 2);
        let lines = t.to_jsonl("w");
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"cpu_us\":"));
        assert!(lines.contains("\"workload\":\"w\""));
    }
}
