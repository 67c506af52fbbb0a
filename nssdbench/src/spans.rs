//! Timing at the benchmark's layer boundaries.
//!
//! Every call the benchmark makes into a simulator layer is bracketed by
//! [`Recorder::begin`] / [`Recorder::end`], which always return the call's
//! host time. When tracing is on, the recorder also keeps one [`Span`] per
//! call in memory (name, start, end, parent span and the cell it belongs
//! to); the spans are written out once the run ends. Untraced runs take
//! the same two `Instant` readings per call and record nothing else, so
//! the difference between a traced and an untraced pass is the cost of
//! keeping spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug)]
pub struct Span {
    /// Layer boundary, e.g. `engine.loop`.
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Cell identifier shared by every span of one simulated cell
    /// (`pass * 16 + cell index`; 0 for spans outside any cell).
    pub cell: u64,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

/// An open timing bracket returned by [`Recorder::begin`].
#[must_use = "close the bracket with Recorder::end"]
pub struct Open {
    start: Instant,
    span: Option<usize>,
}

/// In-memory span store; records only while `tracing` is set.
pub struct Recorder {
    epoch: Instant,
    /// Whether spans are kept (times are measured either way).
    pub tracing: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// An empty recorder with tracing off.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            tracing: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a bracket around a call into layer `name`.
    pub fn begin(&mut self, name: &'static str, cell: u64) -> Open {
        let start = Instant::now();
        let span = self.tracing.then(|| {
            let at = self.ns_since_epoch(start);
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                cell,
                start_ns: at,
                end_ns: at,
            });
            let idx = self.spans.len() - 1;
            self.stack.push(idx);
            idx
        });
        Open { start, span }
    }

    /// Closes a bracket and returns its host time in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.span {
            self.spans[idx].end_ns = self.ns_since_epoch(end);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
        end.duration_since(open.start).as_secs_f64()
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Number of spans recorded so far (a mark for [`Recorder::self_seconds`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name over the spans recorded since `mark`, in
    /// seconds: each span's duration minus the part its children cover.
    pub fn self_seconds(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[mark..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child_ns[p - mark] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(kids);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"cell\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.cell, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_untraced_records_nothing() {
        let mut r = Recorder::new();
        let outer = r.begin("outer", 1);
        let _ = r.end(outer);
        assert_eq!(r.len(), 0);

        r.tracing = true;
        let outer = r.begin("outer", 1);
        let inner = r.begin("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_s = r.end(inner);
        let outer_s = r.end(outer);
        assert_eq!(r.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        let own = r.self_seconds(0);
        assert!(inner_s >= 0.002 && outer_s >= inner_s);
        assert!(own["outer"] < own["inner"]);
        assert_eq!(r.to_jsonl().lines().count(), 2);
    }
}
