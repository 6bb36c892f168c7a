//! Spans for the traced run.
//!
//! Every span the benchmark records sits around one of its own calls into
//! `rpx` (or between two stamps taken in its own code, like the transit
//! from a send call's return to the handler's first instruction). Spans
//! are kept in memory and written out as CSV when the run ends. Per-op
//! spans are kept for one request in [`PER_OP_SAMPLE`] so a long run's
//! record stays small; the per-layer figures use every op.

use std::io::Write;

/// One request in this many keeps its per-op spans in the written record.
pub const PER_OP_SAMPLE: u64 = 64;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// What was timed.
    pub name: &'static str,
    /// Start, process-clock nanoseconds.
    pub start: u64,
    /// End, process-clock nanoseconds.
    pub end: u64,
    /// The span that caused this one.
    pub parent: u64,
    /// The request this span belongs to (0 for step-level spans).
    pub req: u64,
}

/// The in-memory span record of one run.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Record a span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u64,
        req: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            name,
            start,
            end,
            parent,
            req,
        });
        id
    }

    /// Record the per-op chain of one request (send call → transit →
    /// handler) under `parent`, when the request is sampled.
    pub fn record_op(
        &mut self,
        parent: u64,
        req: u64,
        issue: u64,
        ret: u64,
        hstart: u64,
        hend: u64,
    ) {
        if !req.is_multiple_of(PER_OP_SAMPLE) {
            return;
        }
        let send = self.record("send_call", issue, ret, parent, req);
        let transit = self.record("transit", ret, hstart, send, req);
        self.record("handler", hstart, hend, transit, req);
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Write the record as CSV (`id,name,start_ns,end_ns,parent,req`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,name,start_ns,end_ns,parent,req")?;
        for s in &self.spans {
            writeln!(
                w,
                "{},{},{},{},{},{}",
                s.id, s.name, s.start, s.end, s.parent, s.req
            )?;
        }
        w.flush()
    }
}

/// The busy intervals of one single-worker locality, for subtracting
/// from a transit interval the time the destination's worker spent in
/// the benchmark's own spans (handler bodies, send calls): what remains
/// is time the runtime's layers held the request.
#[derive(Debug, Default)]
pub struct Busy {
    /// Merged, sorted intervals.
    merged: Vec<(u64, u64)>,
    /// Prefix sums of merged interval lengths.
    prefix: Vec<u64>,
}

impl Busy {
    /// Build from unsorted, possibly overlapping intervals.
    pub fn new(mut intervals: Vec<(u64, u64)>) -> Busy {
        intervals.retain(|(a, b)| b > a);
        intervals.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
        for (a, b) in intervals {
            match merged.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => merged.push((a, b)),
            }
        }
        let mut prefix = Vec::with_capacity(merged.len() + 1);
        prefix.push(0);
        for (a, b) in &merged {
            prefix.push(prefix.last().expect("seeded") + (b - a));
        }
        Busy { merged, prefix }
    }

    /// Length of `[a, b)` covered by the busy intervals.
    pub fn covered(&self, a: u64, b: u64) -> u64 {
        if b <= a || self.merged.is_empty() {
            return 0;
        }
        // Busy time before t: whole intervals ending before t plus the
        // part of the one containing t.
        let before = |t: u64| {
            let i = self.merged.partition_point(|&(_, end)| end <= t);
            let mut total = self.prefix[i];
            if let Some(&(s, _)) = self.merged.get(i) {
                if s < t {
                    total += t - s;
                }
            }
            total
        };
        before(b) - before(a)
    }
}

/// The per-layer split of one workload's per-op cost.
#[derive(Debug, Default)]
pub struct LayerTable {
    rows: Vec<(String, String, u64, f64)>,
}

impl LayerTable {
    /// One row: `layer`, the span or count it comes from, how many spans
    /// (or events) and the self time per op in microseconds.
    pub fn row(&mut self, layer: &str, what: &str, count: u64, self_us_per_op: f64) {
        self.rows
            .push((layer.to_string(), what.to_string(), count, self_us_per_op));
    }

    /// Sum of the rows' self time per op.
    pub fn explained_us(&self) -> f64 {
        self.rows.iter().map(|r| r.3).sum()
    }

    /// Render with the end-to-end time per op and the residual.
    pub fn render(&self, e2e_us: f64, overhead: f64) -> String {
        let mut out = String::from("  per-layer split of the time per op:\n");
        out.push_str(&format!(
            "    {:<16} {:<28} {:>10} {:>12}\n",
            "layer", "span", "count", "self us/op"
        ));
        for (layer, what, count, us) in &self.rows {
            out.push_str(&format!(
                "    {layer:<16} {what:<28} {count:>10} {us:>12.3}\n"
            ));
        }
        out.push_str(&format!(
            "    {:<16} {:<28} {:>10} {:>12.3}\n",
            "end to end", "per op", "", e2e_us
        ));
        out.push_str(&format!(
            "    {:<16} {:<28} {:>10} {:>12.3}\n",
            "residual",
            "end to end - layers",
            "",
            e2e_us - self.explained_us()
        ));
        out.push_str(&format!(
            "    tracing overhead: {:+.2}% (traced steps vs untraced steps of this run)",
            overhead * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_covers_only_overlaps() {
        let b = Busy::new(vec![(10, 20), (15, 30), (40, 50)]);
        assert_eq!(b.covered(0, 100), 30);
        assert_eq!(b.covered(25, 45), 10);
        assert_eq!(b.covered(30, 40), 0);
        assert_eq!(b.covered(12, 13), 1);
    }

    #[test]
    fn per_op_spans_are_sampled_and_chained() {
        let mut log = SpanLog::default();
        let step = log.record("step", 0, 100, 0, 0);
        log.record_op(step, 0, 1, 2, 5, 9);
        log.record_op(step, 1, 1, 2, 5, 9);
        assert_eq!(log.len(), 4);
        assert_eq!(log.spans[3].parent, log.spans[2].id);
    }
}
