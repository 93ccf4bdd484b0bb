//! Thread-safe [`Probe`] implementation that records spans and counters
//! for the report and trace sinks.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use crate::probe::{Label, Probe, SpanId};

/// An owned span label (see [`Label`] for the borrowing variant).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OwnedLabel {
    /// No qualifier.
    None,
    /// A small index (partition number, block number, …).
    Index(u64),
    /// A free-form name.
    Text(String),
}

impl OwnedLabel {
    fn from_label(label: Label<'_>) -> OwnedLabel {
        match label {
            Label::None => OwnedLabel::None,
            Label::Index(i) => OwnedLabel::Index(i),
            Label::Text(t) => OwnedLabel::Text(t.to_owned()),
        }
    }
}

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name as passed to [`Probe::begin`].
    pub name: &'static str,
    /// Optional qualifier.
    pub label: OwnedLabel,
    /// Dense index of the recording thread (0 = first thread seen).
    pub thread: usize,
    /// Start offset from the recorder's creation, in microseconds.
    pub start_micros: u64,
    /// Wall-clock duration in microseconds.
    pub dur_micros: u64,
}

struct OpenSpan {
    id: u64,
    name: &'static str,
    label: OwnedLabel,
    thread: usize,
    start: Instant,
}

/// One point in a counter's running-total series: the value of counter
/// `name` right after an [`Probe::add`] call at `at_micros`. Probes fire
/// per stage or chunk, so the series length is bounded by the job count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterRec {
    /// Counter name as passed to [`Probe::add`].
    pub name: &'static str,
    /// Offset from the recorder's creation, in microseconds.
    pub at_micros: u64,
    /// Running total after this increment.
    pub total: u64,
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    threads: Vec<ThreadId>,
    open: Vec<OpenSpan>,
    spans: Vec<SpanRec>,
    counters: BTreeMap<&'static str, u64>,
    counter_series: Vec<CounterRec>,
}

impl Inner {
    fn thread_index(&mut self, id: ThreadId) -> usize {
        match self.threads.iter().position(|&t| t == id) {
            Some(i) => i,
            None => {
                self.threads.push(id);
                self.threads.len() - 1
            }
        }
    }
}

/// Collects spans and counters from any number of threads.
///
/// Interior mutability is a single [`Mutex`]: probes are called once per
/// pipeline stage or sweep chunk (never per candidate pair), so
/// contention is bounded by the job count, not the workload size.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder; timestamps are offsets from this call.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("recorder poisoned")
    }

    /// Drains everything recorded so far into a [`Metrics`] snapshot.
    /// Spans still open are dropped (a span must be closed on the thread
    /// that opened it before the snapshot to be counted).
    pub fn take_metrics(&self) -> Metrics {
        let mut inner = self.lock();
        let spans = std::mem::take(&mut inner.spans);
        let counters = std::mem::take(&mut inner.counters)
            .into_iter()
            .collect::<Vec<_>>();
        let threads = inner.threads.len();
        let counter_series = std::mem::take(&mut inner.counter_series);
        inner.open.clear();
        Metrics {
            spans,
            counters,
            counter_series,
            threads,
        }
    }
}

impl Probe for Recorder {
    fn begin(&self, name: &'static str, label: Label<'_>) -> SpanId {
        let label = OwnedLabel::from_label(label);
        let start = Instant::now();
        let thread_id = std::thread::current().id();
        let mut inner = self.lock();
        inner.next_id += 1;
        let id = inner.next_id;
        let thread = inner.thread_index(thread_id);
        inner.open.push(OpenSpan {
            id,
            name,
            label,
            thread,
            start,
        });
        SpanId(id)
    }

    fn end(&self, id: SpanId) {
        if id == SpanId::NULL {
            return;
        }
        let now = Instant::now();
        let mut inner = self.lock();
        let Some(pos) = inner.open.iter().position(|s| s.id == id.0) else {
            return; // unmatched end: ignore rather than panic mid-pipeline
        };
        let open = inner.open.swap_remove(pos);
        let start_micros = open.start.saturating_duration_since(self.epoch).as_micros() as u64;
        let dur_micros = now.saturating_duration_since(open.start).as_micros() as u64;
        inner.spans.push(SpanRec {
            name: open.name,
            label: open.label,
            thread: open.thread,
            start_micros,
            dur_micros,
        });
    }

    fn add(&self, counter: &'static str, delta: u64) {
        let at_micros = Instant::now()
            .saturating_duration_since(self.epoch)
            .as_micros() as u64;
        let mut inner = self.lock();
        let slot = inner.counters.entry(counter).or_insert(0);
        *slot += delta;
        let total = *slot;
        inner.counter_series.push(CounterRec {
            name: counter,
            at_micros,
            total,
        });
    }
}

/// Immutable snapshot of everything a [`Recorder`] captured.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRec>,
    /// Counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Running-total samples, one per [`Probe::add`] call, in call
    /// order. Feeds Chrome trace counter tracks.
    pub counter_series: Vec<CounterRec>,
    /// Number of distinct threads that recorded at least one span.
    pub threads: usize,
}

impl Metrics {
    /// Total duration of all spans named `name`, in microseconds.
    pub fn total_micros(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_micros)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// The value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Distinct span names, sorted.
    pub fn span_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::span;

    #[test]
    fn records_spans_and_counters() {
        let r = Recorder::new();
        {
            let _outer = span(&r, "outer", Label::None);
            let _inner = span(&r, "inner", Label::Index(2));
        }
        r.add("c.x", 3);
        r.add("c.x", 4);
        r.add("c.a", 1);
        let m = r.take_metrics();
        assert_eq!(m.span_count("outer"), 1);
        assert_eq!(m.span_count("inner"), 1);
        assert_eq!(m.counter("c.x"), 7);
        assert_eq!(m.counter("c.a"), 1);
        assert_eq!(m.counter("missing"), 0);
        // Counters come out sorted by name.
        assert_eq!(
            m.counters.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec!["c.a", "c.x"]
        );
        assert_eq!(m.threads, 1);
        // Inner closed before outer; completion order reflects that.
        assert_eq!(m.spans[0].name, "inner");
        assert_eq!(m.spans[0].label, OwnedLabel::Index(2));
    }

    #[test]
    fn spans_from_scoped_threads_get_distinct_thread_indices() {
        let r = Recorder::new();
        let _main = span(&r, "main", Label::None);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _s = span(&r, "worker", Label::None);
                });
            }
        });
        drop(_main);
        let m = r.take_metrics();
        assert_eq!(m.span_count("worker"), 3);
        assert_eq!(m.span_count("main"), 1);
        assert_eq!(m.threads, 4);
        let mut worker_threads: Vec<usize> = m
            .spans
            .iter()
            .filter(|s| s.name == "worker")
            .map(|s| s.thread)
            .collect();
        worker_threads.sort_unstable();
        worker_threads.dedup();
        assert_eq!(worker_threads.len(), 3, "one thread index per worker");
    }

    #[test]
    fn counter_series_tracks_running_totals_in_call_order() {
        let r = Recorder::new();
        r.add("c.x", 3);
        r.add("c.a", 1);
        r.add("c.x", 4);
        let m = r.take_metrics();
        let series: Vec<(&str, u64)> = m.counter_series.iter().map(|c| (c.name, c.total)).collect();
        assert_eq!(series, vec![("c.x", 3), ("c.a", 1), ("c.x", 7)]);
        // Drained with the rest of the snapshot.
        assert!(r.take_metrics().counter_series.is_empty());
    }

    #[test]
    fn unmatched_end_and_open_spans_are_tolerated() {
        let r = Recorder::new();
        r.end(SpanId(999));
        r.end(SpanId::NULL);
        let id = r.begin("never-closed", Label::None);
        let m = r.take_metrics();
        assert_eq!(m.span_count("never-closed"), 0);
        r.end(id); // after the drain: also ignored
        assert_eq!(r.take_metrics().spans.len(), 0);
    }
}
