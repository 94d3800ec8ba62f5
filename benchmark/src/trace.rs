//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code only (nothing under
//! `crates/` is instrumented), kept in memory, and written out as one
//! JSON object per line when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::now;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of the span in its trace.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload the span belongs to.
    pub workload: String,
    /// `rep`, a phase (`build` ...), `run.slice.<k>` or `exp.<id>`.
    pub name: String,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work counted between start and end.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans when enabled; when disabled `open`/`close` only return,
/// so untraced reps carry no span bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false, "")
    }

    /// A recording tracer for `workload`.
    pub fn on(workload: &str) -> Self {
        Tracer::new(true, workload)
    }

    fn new(enabled: bool, workload: &str) -> Self {
        Tracer {
            enabled,
            epoch: now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self) -> u64 {
        now().duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            workload: self.workload.clone(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.stack.push(id);
    }

    /// Closes the innermost open span, attaching `counts`.
    pub fn close(&mut self, counts: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("close without a matching open");
        self.spans[id].end_ns = self.ns();
        self.spans[id].counts = counts.to_vec();
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's duration minus the part its direct children cover, in
/// seconds.
pub fn self_secs(spans: &[Span], id: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::secs)
        .sum();
    spans[id].secs() - children
}

/// Duration of the last span called `name`, in seconds.
pub fn secs_of(spans: &[Span], name: &str) -> Option<f64> {
    spans.iter().rev().find(|s| s.name == name).map(Span::secs)
}

/// Serialises spans as JSON lines:
/// `{id, parent, workload, name, start_ns, end_ns, counts}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let counts: Vec<String> = s
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"workload\": \"{}\", \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"counts\": {{{}}}}}",
            s.id,
            s.workload,
            s.name,
            s.start_ns,
            s.end_ns,
            counts.join(", ")
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            workload: "w".into(),
            name: name.into(),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep [0, 10s) -> build [0, 1s), run [1s, 9s) -> slice [1s, 4s), slice [4s, 8s)
        let s = 1_000_000_000;
        let spans = vec![
            span(0, None, "rep", 0, 10 * s),
            span(1, Some(0), "build", 0, s),
            span(2, Some(0), "run", s, 9 * s),
            span(3, Some(2), "run.slice.0", s, 4 * s),
            span(4, Some(2), "run.slice.1", 4 * s, 8 * s),
        ];
        assert_eq!(self_secs(&spans, 0), 1.0); // 10 - (1 + 8); grandchildren not double-counted
        assert_eq!(self_secs(&spans, 2), 1.0); // 8 - (3 + 4)
        assert_eq!(self_secs(&spans, 4), 4.0); // leaf
        assert_eq!(secs_of(&spans, "run"), Some(8.0));
        assert_eq!(secs_of(&spans, "nope"), None);
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let mut t = Tracer::on("dense");
        t.open("rep");
        t.open("run");
        t.close(&[("pkts_injected", 5)]);
        t.close(&[]);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let text = to_jsonl(spans);
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().starts_with(
            "{\"id\": 0, \"parent\": null, \"workload\": \"dense\", \"name\": \"rep\""
        ));
        assert!(text.contains("\"counts\": {\"pkts_injected\": 5}"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.open("rep");
        t.close(&[]);
        assert!(t.spans().is_empty() && !t.enabled());
    }
}
