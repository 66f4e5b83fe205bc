//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded here, in the benchmark, around each call it makes
//! into a layer's public functions; the program itself carries no new
//! instrumentation. They stay in memory until the run ends and are then
//! written out as JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the text before the first `.`.
    pub name: String,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began; equal to `start_ns` while open.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; close it with [`Trace::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
        });
        self.spans.len() - 1
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that the union of its children's intervals covers. Overlapping
    /// children are counted once, and child time outside the parent is
    /// ignored.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered.min(span.duration_ns())
            })
            .collect()
    }

    /// Self time summed per layer, in seconds.
    pub fn self_secs_by_layer(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(span.layer().to_owned()).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// Total duration of the spans with this name, in seconds, and their
    /// count.
    pub fn total_by_name(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(secs, n), s| {
                (secs + s.duration_ns() as f64 / 1e9, n + 1)
            })
    }

    /// The spans and their self times as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(spans: &[(&str, u64, u64, Option<usize>)]) -> Trace {
        let mut t = Trace::new();
        for &(name, start, end, parent) in spans {
            t.record(name, start, end, parent);
        }
        t
    }

    #[test]
    fn self_time_subtracts_children_once_when_they_overlap() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40): together they cover 50, so the parent keeps 50.
        let t = trace_of(&[
            ("core.run", 0, 100, None),
            ("storage.fetch", 10, 40, Some(0)),
            ("chain.seal", 30, 60, Some(0)),
        ]);
        assert_eq!(t.self_times_ns(), vec![50, 30, 30]);
    }

    #[test]
    fn self_time_ignores_child_time_outside_the_parent_and_nested_children() {
        // A child spilling past its parent's end is clipped; a grandchild
        // reduces only its own parent's self time.
        let t = trace_of(&[
            ("core.run", 0, 100, None),
            ("core.event.x", 90, 120, Some(0)),
            ("core.event.y", 0, 20, Some(0)),
            ("tensor_fl.train", 5, 15, Some(2)),
            ("tensor_fl.train", 10, 12, Some(2)),
        ]);
        assert_eq!(t.self_times_ns(), vec![70, 30, 10, 10, 2]);
        let layers = t.self_secs_by_layer();
        assert!((layers["core"] - 110e-9).abs() < 1e-18);
        assert!((layers["tensor_fl"] - 12e-9).abs() < 1e-18);
        let (secs, count) = t.total_by_name("tensor_fl.train");
        assert!((secs - 12e-9).abs() < 1e-18);
        assert_eq!(count, 2);
    }

    #[test]
    fn open_spans_close_at_or_after_their_start_and_render_as_json() {
        let mut t = Trace::new();
        let root = t.open("core.run", None);
        let child = t.open("core.event.seal_slot", Some(root));
        t.close(child);
        t.close(root);
        let spans = t.spans();
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"core.event.seal_slot\""));
        assert!(json.contains("\"parent\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
