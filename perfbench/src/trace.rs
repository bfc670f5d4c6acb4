//! In-memory spans for the traced run.
//!
//! A span is one timed call at a layer boundary: name, start, end, the
//! span that caused it, and the run (one deployment) it belongs to.
//! Producers keep spans in a thread-local `Vec` and hand them over once,
//! when their deployment ends; nothing is written until the benchmark
//! exits. Self time — a span's duration minus the part its children
//! cover — is derived here, after the fact.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per traced process; later spans are counted, not kept, so
/// a long run cannot grow memory without bound.
const SPAN_CAP: usize = 400_000;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    /// The deployment this span belongs to.
    pub run: u64,
    /// Layer boundary name, e.g. `site.frame`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch.
    pub end: u64,
}

/// Process-wide span sink.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    kept: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            kept: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the epoch: one clock read.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        // ordering: Relaxed — the ids only need to be unique, and
        // fetch_add is atomic whatever the ordering.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Takes over a producer's spans, keeping at most [`SPAN_CAP`].
    pub fn submit(&self, spans: Vec<Span>) {
        let mut kept = self.kept.lock().expect("span sink poisoned");
        let room = SPAN_CAP.saturating_sub(kept.len());
        let over = spans.len().saturating_sub(room);
        kept.extend(spans.into_iter().take(room));
        // ordering: Relaxed — a tally read once after every producer has
        // been joined; the join orders it.
        self.dropped.fetch_add(over as u64, Ordering::Relaxed);
    }

    /// Tallies spans a producer measured but did not keep.
    pub fn count_dropped(&self, n: u64) {
        // ordering: Relaxed — as in `submit`.
        self.dropped.fetch_add(n, Ordering::Relaxed);
    }

    /// Writes every kept span as one JSON object per line, followed by a
    /// per-name summary line, and returns the per-name self times.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<BTreeMap<&'static str, Totals>> {
        let kept = self.kept.lock().expect("span sink poisoned");
        let totals = self_times(&kept);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in kept.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.run, s.name, s.start, s.end
            )?;
        }
        let by_name: Vec<String> = totals
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\":{{\"count\":{},\"total_s\":{:.9},\"self_s\":{:.9}}}",
                    t.count, t.total_s, t.self_s
                )
            })
            .collect();
        // ordering: Relaxed — every producer has been joined (see submit).
        let dropped = self.dropped.load(Ordering::Relaxed);
        writeln!(
            out,
            "{{\"summary\":{{{}}},\"spans_kept\":{},\"spans_dropped\":{dropped}}}",
            by_name.join(","),
            kept.len()
        )?;
        out.flush()?;
        Ok(totals)
    }
}

/// Per-name totals over the kept spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, in seconds.
    pub total_s: f64,
    /// Sum of their durations minus what their children cover.
    pub self_s: f64,
}

/// Self time per span name. Children may run on other threads and
/// overlap (the sites under one deployment), so the covered part is the
/// union of the children's intervals, clipped to the parent. A
/// deployment's self time is thus the time no layer span was open.
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let bounds: BTreeMap<u64, (u64, u64)> =
        spans.iter().map(|s| (s.id, (s.start, s.end))).collect();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let (a, b) = (s.start.max(ps), s.end.min(pe));
            if b > a {
                children.entry(s.parent).or_default().push((a, b));
            }
        }
    }
    let covered: BTreeMap<u64, u64> = children
        .into_iter()
        .map(|(parent, mut iv)| {
            iv.sort_unstable();
            let (mut total, mut reach) = (0, 0);
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    total += b - a;
                    reach = b;
                }
            }
            (parent, total)
        })
        .collect();
    let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let own = dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_s += dur as f64 * 1e-9;
        t.self_s += own as f64 * 1e-9;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, start, end| Span {
            id,
            parent,
            run: 1,
            name: if parent == 0 { "outer" } else { "inner" },
            start,
            end,
        };
        // Children on two threads: [10, 30) and [20, 40) overlap, [50,
        // 120) runs past the parent's end.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            span(4, 1, 50, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["outer"].count, 1);
        assert!((t["outer"].self_s - 20e-9).abs() < 1e-15);
        assert!((t["inner"].total_s - 110e-9).abs() < 1e-15);
    }
}
