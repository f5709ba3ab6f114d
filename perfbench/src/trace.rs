//! In-memory span recorder for the traced run.
//!
//! A span is named `<layer>.<operation>`; the layer is the part before the
//! first dot (`gh_sim`, `curation`, `hwlm`, `verilog`, `verilogeval`,
//! `copyright`, `freeset`). Spans nest through [`Tracer::span`], each
//! records the span that caused it, and every span of one phase (the traced
//! set-up or the traced pass) carries that phase as its shared identifier.
//! Nothing is written until [`Tracer::write_json`] at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// The part of a workload a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Building the workload's inputs.
    Setup,
    /// One timed pass over those inputs.
    Pass,
}

impl Phase {
    /// Lower-case name, as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Pass => "pass",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// The phase the span ran in.
    pub phase: Phase,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span belongs to.
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

/// The layer part of a span or counter name.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Records spans and counters.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    phase: Phase,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer in the set-up phase.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            phase: Phase::Setup,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Switches the phase later spans are recorded in.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            phase: self.phase,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    /// Raises the counter `name` to `value` if it is higher (a peak, not a sum).
    pub fn peak(&mut self, name: &'static str, value: f64) {
        let entry = self.counts.entry(name).or_insert(value);
        *entry = entry.max(value);
    }

    /// The counter `name` (zero if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Each layer's self time in `phase`, in milliseconds: the duration of
    /// its spans minus the part their child spans cover.
    pub fn self_ms_by_layer(&self, phase: Phase) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.phase == phase) {
            let own = span.duration_ns().saturating_sub(child_ns[span.id]);
            *by_layer.entry(span.layer()).or_insert(0.0) += own as f64 / 1e6;
        }
        by_layer
    }

    /// Summed duration of the top-level spans of `phase`, in milliseconds.
    pub fn top_level_ms(&self, phase: Phase) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.phase == phase && s.parent.is_none())
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// Writes every span and counter as JSON.
    ///
    /// # Errors
    ///
    /// Returns the IO error if the directory or file cannot be written.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"phase\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}",
                span.id,
                span.name,
                span.phase.name(),
                span.start_ns,
                span.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("],\n\"counts\": {");
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        out.push_str(&counts.join(", "));
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.set_phase(Phase::Pass);
        tracer.span("freeset.build", |t| {
            t.span("gh_sim.universe", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "gh_sim");
        let self_ms = tracer.self_ms_by_layer(Phase::Pass);
        assert!(self_ms["gh_sim"] >= 2.0);
        assert!(self_ms["freeset"] < tracer.total_ms("freeset.build"));
        assert_eq!(
            tracer.top_level_ms(Phase::Pass),
            tracer.total_ms("freeset.build")
        );
        assert_eq!(tracer.top_level_ms(Phase::Setup), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut tracer = Tracer::new();
        tracer.count("verilogeval.candidates", 2.0);
        tracer.count("verilogeval.candidates", 3.0);
        assert_eq!(tracer.counter("verilogeval.candidates"), 5.0);
        assert_eq!(tracer.counter("copyright.prompts"), 0.0);
    }
}
