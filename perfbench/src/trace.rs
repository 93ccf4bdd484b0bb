//! The traced run's span buffer.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public function; none is added inside the program. The
//! analysis pipeline's own `analyze.*` spans are read through the public
//! [`Probe`] trait: [`Tracer`] implements it and maps those spans onto
//! the `estlct` / `partition` / `sweep` / `propagate` layers. Spans stay
//! in memory until [`Tracer::write_jsonl`] dumps them after the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use rtlb_obs::{Label, Probe, SpanId};

use crate::alloc;

/// The root span of one replayed op; every layer span is its child.
pub const OP: &str = "op";

/// One span: layer, op id, parent, start and end.
struct Span {
    layer: &'static str,
    op: u64,
    /// Index of the enclosing span in the buffer.
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Allocations made between the span's start and end.
    allocs: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counters: BTreeMap<&'static str, u64>,
}

/// Span buffer plus per-run counters. Interior mutability is one
/// uncontended mutex: a traced replay runs on one thread.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::with_capacity(1 << 16),
                ..Inner::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("tracer poisoned")
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; the buffer is grown before the clock and the
    /// allocation count are read, so the span does not see its own
    /// bookkeeping.
    pub fn open(&self, layer: &'static str) -> usize {
        let mut inner = self.lock();
        let index = inner.spans.len();
        let parent = inner.open.last().copied();
        let op = inner.op;
        inner.spans.push(Span {
            layer,
            op,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        inner.open.push(index);
        let span = &mut inner.spans[index];
        span.allocs = alloc::count();
        span.start_ns = self.now_ns();
        index
    }

    pub fn close(&self, index: usize) {
        let end_ns = self.now_ns();
        let allocs = alloc::count();
        let mut inner = self.lock();
        let span = &mut inner.spans[index];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        let top = inner.open.pop();
        assert_eq!(top, Some(index), "spans close in reverse open order");
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let index = self.open(layer);
        let result = f();
        self.close(index);
        result
    }

    /// Starts op `op`: later spans carry its id.
    pub fn start_op(&self, op: u64) -> usize {
        self.lock().op = op;
        self.open(OP)
    }

    pub fn count(&self, counter: &'static str, delta: u64) {
        *self.lock().counters.entry(counter).or_insert(0) += delta;
    }

    /// Every counter's total.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.lock()
            .counters
            .iter()
            .map(|(&name, &total)| (name, total))
            .collect()
    }

    /// Self time (ns) and self allocations per layer, summed over all
    /// spans: a span's duration minus the part its child spans cover.
    pub fn self_totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let inner = self.lock();
        let mut child = vec![(0u64, 0u64); inner.spans.len()];
        for span in &inner.spans {
            if let Some(p) = span.parent {
                child[p].0 += span.end_ns - span.start_ns;
                child[p].1 += span.allocs;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, (child_ns, child_allocs)) in inner.spans.iter().zip(child) {
            let entry = totals.entry(span.layer).or_insert((0, 0));
            entry.0 += (span.end_ns - span.start_ns).saturating_sub(child_ns);
            entry.1 += span.allocs.saturating_sub(child_allocs);
        }
        totals
    }

    /// Mean duration (ns) of the op root spans.
    pub fn mean_op_ns(&self) -> f64 {
        let inner = self.lock();
        let ops: Vec<u64> = inner
            .spans
            .iter()
            .filter(|s| s.layer == OP)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        ops.iter().sum::<u64>() as f64 / ops.len().max(1) as f64
    }

    /// Writes every span as one JSON line: layer, op id, parent index,
    /// start and end (ns since the tracer was created), allocations.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.lock();
        let mut out = String::with_capacity(inner.spans.len() * 96);
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"layer\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.layer, s.op, s.start_ns, s.end_ns, s.allocs
            );
        }
        std::fs::write(path, out)
    }
}

/// The benchmark layer each pipeline span of `analyze_with_probe`
/// belongs to. Model validation and the feasibility check bracket the
/// EST/LCT fixpoint and are counted with it.
fn pipeline_layer(span: &str) -> Option<&'static str> {
    match span {
        "analyze.validate" | "analyze.timing" | "analyze.feasibility" => Some("estlct"),
        "analyze.partition" => Some("partition"),
        "analyze.sweep" => Some("sweep"),
        "analyze.propagate" => Some("propagate"),
        _ => None,
    }
}

impl Probe for Tracer {
    fn begin(&self, name: &'static str, _label: Label<'_>) -> SpanId {
        match pipeline_layer(name) {
            Some(layer) => SpanId(self.open(layer) as u64 + 1),
            None => SpanId::NULL,
        }
    }

    fn end(&self, id: SpanId) {
        if id != SpanId::NULL {
            self.close(usize::try_from(id.0 - 1).expect("span index fits usize"));
        }
    }

    fn add(&self, counter: &'static str, delta: u64) {
        if matches!(counter, "partition.blocks" | "propagate.capacities_refuted") {
            self.count(counter, delta);
        }
    }
}
