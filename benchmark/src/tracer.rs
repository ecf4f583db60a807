//! The benchmark's own span recorder.
//!
//! Every call the harness makes into a layer of the program is wrapped
//! in [`Tracer::begin`] / [`Tracer::end`]; nothing inside the program
//! is instrumented. Spans stay in memory and are written out once, at
//! the end of a traced run. A disabled tracer costs one branch per
//! call, which is how the untraced (gated) passes run.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const NO_SPAN: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Span names are `layer.operation`; the layer
/// is everything before the last dot.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer { on: false, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A recording tracer; its clock starts now.
    pub fn on() -> Self {
        Tracer { on: true, ..Tracer::off() }
    }

    /// Drop every recorded span (a new traced pass starts).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NO_SPAN);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_SPAN);
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        SpanId(id)
    }

    /// Close a span opened by [`Tracer::begin`]. Spans close innermost
    /// first.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id.0 == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Durations, in microseconds, of every closed span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e6
    }

    /// Per-layer totals: span count, summed duration, and self time (a
    /// span's duration minus the durations of its direct children).
    pub fn layers(&self) -> Vec<LayerSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: BTreeMap<&str, LayerSummary> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let layer = s.name.rsplit_once('.').map_or(s.name, |(l, _)| l);
            let dur = s.end_ns - s.start_ns;
            let e = by_layer.entry(layer).or_insert_with(|| LayerSummary {
                layer: layer.to_string(),
                spans: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            e.spans += 1;
            e.total_s += dur as f64 / 1e9;
            e.self_s += dur.saturating_sub(children) as f64 / 1e9;
        }
        by_layer.into_values().collect()
    }

    /// The span file's content for `workload` at `seed`.
    pub fn to_file(&self, workload: &str, seed: u64) -> TraceFile {
        let mut names: Vec<&'static str> = Vec::new();
        let mut index: BTreeMap<&'static str, i64> = BTreeMap::new();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let name = *index.entry(s.name).or_insert_with(|| {
                    names.push(s.name);
                    names.len() as i64 - 1
                });
                let parent = if s.parent == NO_SPAN { -1 } else { i64::from(s.parent) };
                [parent, name, s.start_ns as i64, s.end_ns as i64]
            })
            .collect();
        TraceFile {
            workload: workload.to_string(),
            seed,
            time_unit: "ns".to_string(),
            span_fields: ["parent", "name", "start", "end"].map(String::from).to_vec(),
            names: names.into_iter().map(String::from).collect(),
            layers: self.layers(),
            spans,
        }
    }
}

/// One layer's share of a traced run.
#[derive(Debug, Clone, Serialize)]
pub struct LayerSummary {
    /// Layer name (span name up to its last dot).
    pub layer: String,
    /// Spans recorded in this layer.
    pub spans: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// `benchmark/out/trace-<workload>.json`. A span's id is its position in
/// `spans`; each carries its parent's id (`-1` for a root), an index
/// into `names`, and its start and end. All spans of one file belong to
/// one run of one workload.
#[derive(Debug, Serialize)]
pub struct TraceFile {
    workload: String,
    seed: u64,
    time_unit: String,
    span_fields: Vec<String>,
    names: Vec<String>,
    layers: Vec<LayerSummary>,
    spans: Vec<[i64; 4]>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("a.b");
        t.end(id);
        assert!(t.layers().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        let outer = t.begin("outer.run");
        let inner = t.begin("inner.step");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        let layers = t.layers();
        let outer_l = layers.iter().find(|l| l.layer == "outer").expect("outer layer");
        let inner_l = layers.iter().find(|l| l.layer == "inner").expect("inner layer");
        assert!(inner_l.self_s >= 0.005);
        assert!(outer_l.total_s >= inner_l.total_s);
        assert!(outer_l.self_s < 0.004, "outer self time must exclude the child");
        let file = t.to_file("w", 1);
        assert_eq!(file.spans[1][0], 0, "inner span's parent is the outer span");
        assert_eq!(file.spans[0][0], -1);
    }
}
