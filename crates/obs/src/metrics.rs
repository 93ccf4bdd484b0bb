//! Fleet-scale aggregated metrics: a thread-sharded [`MetricsRegistry`]
//! of named counters, gauges, and fixed-log2-bucket histograms.
//!
//! Where the [`Recorder`](crate::Recorder) keeps every span for the run
//! report and trace sinks (memory grows with the span count), the
//! registry only *aggregates*: a counter is one `u64` per shard, a
//! histogram is 65 fixed buckets, and nothing grows with the number of
//! analyzed instances. That is what makes it the right probe for
//! `rtlb batch` over thousands of instances and for a long-running
//! serving surface.
//!
//! # Sharding and determinism
//!
//! Each recording thread is bound to one of a fixed number of shards
//! (its own `Mutex`), so concurrent instances contend only within a
//! shard, and [`MetricsRegistry::snapshot`] merges all shards into one
//! sorted [`MetricsSnapshot`]. Every merge operation is commutative —
//! counters and histogram buckets sum, gauges take the maximum, min/max
//! take min/max — so the merged snapshot is **identical regardless of
//! which thread recorded what and in which order**. This is enforced by
//! proptest (`tests/telemetry.rs`).
//!
//! # Probe integration
//!
//! The registry implements [`Probe`], so the instrumented pipeline
//! feeds it with no new plumbing: `add` calls become counters,
//! [`Probe::observe`] calls become histogram observations, and each
//! closed span records its duration into a histogram named
//! `span.<name>.micros`. Attaching a registry never perturbs analysis
//! results (bit-identity is proptested alongside the recorder).
//!
//! # Wall-clock convention
//!
//! A metric whose name contains `micros` is wall-clock and varies run
//! to run; everything else must be deterministic for a fixed
//! configuration. [`MetricsSnapshot::normalize`] zeroes exactly the
//! wall-clock content (keeping structural span counts), so golden tests
//! and byte-identity checks can pin the rest.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;
use crate::probe::{Label, Probe, SpanId};

/// The `schema` tag of the aggregated metrics JSON export.
pub const METRICS_SCHEMA: &str = "rtlb-metrics-v1";

/// Histogram bucket count: bucket 0 holds the value `0`; bucket `k`
/// (1..=64) holds values in `[2^(k-1), 2^k)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Number of shards; a small power of two so shard selection is a mask.
const SHARD_COUNT: usize = 16;

/// Maps a value to its fixed log2 bucket: `0 → 0`, otherwise
/// `floor(log2(value)) + 1`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `index`.
#[inline]
pub fn bucket_lo(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// Exclusive upper bound of bucket `index`; `None` for the last bucket
/// (`2^64` is not representable).
#[inline]
pub fn bucket_hi(index: usize) -> Option<u64> {
    match index {
        0 => Some(1),
        64 => None,
        k => Some(1u64 << k),
    }
}

/// Dense per-thread slot, assigned once per thread on first use. Slots
/// are process-global so one thread maps to the same shard in every
/// registry, and allocation-free after the first call.
fn thread_slot() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let v = slot.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT.fetch_add(1, Ordering::Relaxed);
            slot.set(v);
            v
        }
    })
}

/// One histogram's aggregation state.
#[derive(Clone)]
struct Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Hist {
    fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }
}

/// A span opened on this shard and not yet closed.
struct OpenSpan {
    id: u64,
    name: &'static str,
    start: Instant,
}

/// Per-shard metric state: small linear-scan maps keyed by the static
/// metric name. Lookups allocate nothing; inserting a *new* name grows
/// the vector once, after which the hot path is scan + increment.
#[derive(Default)]
struct Shard {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, i64)>,
    histograms: Vec<(&'static str, Hist)>,
    spans: Vec<(&'static str, Hist)>,
    open: Vec<OpenSpan>,
}

impl Shard {
    fn counter(&mut self, name: &'static str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name, delta)),
        }
    }

    fn gauge(&mut self, name: &'static str, value: i64) {
        match self.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = (*v).max(value),
            None => self.gauges.push((name, value)),
        }
    }

    fn observe_into(list: &mut Vec<(&'static str, Hist)>, name: &'static str, value: u64) {
        match list.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.observe(value),
            None => {
                let mut h = Hist::default();
                h.observe(value);
                list.push((name, h));
            }
        }
    }
}

/// Thread-sharded counters, gauges, and histograms with a deterministic
/// merged [`snapshot`](MetricsRegistry::snapshot). See the module docs
/// for the sharding, determinism, and wall-clock conventions.
pub struct MetricsRegistry {
    next_span: AtomicU64,
    shards: Vec<Mutex<Shard>>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            next_span: AtomicU64::new(1),
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
        }
    }

    fn shard(&self) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[thread_slot() & (SHARD_COUNT - 1)]
            .lock()
            .expect("metrics shard poisoned")
    }

    /// Adds `delta` to the counter `name`. Merged value: the sum across
    /// all shards.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        self.shard().counter(name, delta);
    }

    /// Sets the gauge `name` on the calling thread's shard. Merged
    /// value: the **maximum** across shards, which keeps the merge
    /// independent of thread interleaving. Gauges set from a single
    /// driver thread (the common case) merge to exactly that value.
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        self.shard().gauge(name, value);
    }

    /// Records one observation of `value` into the histogram `name`.
    pub fn observe_value(&self, name: &'static str, value: u64) {
        let mut shard = self.shard();
        Shard::observe_into(&mut shard.histograms, name, value);
    }

    /// Merges every shard into one sorted, deterministic snapshot. The
    /// registry keeps aggregating afterwards (snapshots do not drain);
    /// spans still open are not counted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, i64> = BTreeMap::new();
        let mut hists: BTreeMap<String, Hist> = BTreeMap::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("metrics shard poisoned");
            for &(name, v) in &shard.counters {
                *counters.entry(name.to_owned()).or_insert(0) += v;
            }
            for &(name, v) in &shard.gauges {
                gauges
                    .entry(name.to_owned())
                    .and_modify(|g| *g = (*g).max(v))
                    .or_insert(v);
            }
            for (name, h) in &shard.histograms {
                hists.entry((*name).to_owned()).or_default().merge(h);
            }
            for (name, h) in &shard.spans {
                hists
                    .entry(format!("span.{name}.micros"))
                    .or_default()
                    .merge(h);
            }
        }
        MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: hists
                .into_iter()
                .map(|(name, h)| HistogramSnapshot {
                    name,
                    count: h.count,
                    sum: h.sum,
                    min: if h.count == 0 { 0 } else { h.min },
                    max: h.max,
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(i, &c)| BucketCount {
                            lo: bucket_lo(i),
                            hi: bucket_hi(i),
                            count: c,
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

impl Probe for MetricsRegistry {
    fn begin(&self, name: &'static str, _label: Label<'_>) -> SpanId {
        let start = Instant::now();
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        self.shard().open.push(OpenSpan { id, name, start });
        SpanId(id)
    }

    fn end(&self, id: SpanId) {
        if id == SpanId::NULL {
            return;
        }
        let now = Instant::now();
        // Spans close on the thread that opened them (the `Probe`
        // contract), which is exactly what routes `end` to the shard
        // holding the open span.
        let mut shard = self.shard();
        let Some(pos) = shard.open.iter().rposition(|s| s.id == id.0) else {
            return; // unmatched end: ignore, as the recorder does
        };
        let open = shard.open.swap_remove(pos);
        let micros = now.saturating_duration_since(open.start).as_micros() as u64;
        Shard::observe_into(&mut shard.spans, open.name, micros);
    }

    fn add(&self, counter: &'static str, delta: u64) {
        self.counter_add(counter, delta);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.observe_value(name, value);
    }
}

/// One occupied histogram bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Exclusive upper bound; `None` for the top bucket.
    pub hi: Option<u64>,
    /// Observations that landed in the bucket.
    pub count: u64,
}

/// One merged histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name (span histograms are `span.<name>.micros`).
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (`0` when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Occupied buckets in ascending order.
    pub buckets: Vec<BucketCount>,
}

/// The deterministic merged view of a [`MetricsRegistry`]: everything
/// sorted by name, ready for the JSON ([`MetricsSnapshot::to_json`]) and
/// Prometheus ([`crate::prometheus_text`]) writers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of counter `name` (`0` if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The histogram named `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Zeroes every wall-clock field: counters and gauges whose name
    /// contains `micros` are zeroed, and histograms whose name contains
    /// `micros` keep their (deterministic) observation count but lose
    /// sum, min, max, and buckets. Everything else is untouched.
    pub fn normalize(&mut self) {
        for (name, v) in &mut self.counters {
            if name.contains("micros") {
                *v = 0;
            }
        }
        for (name, v) in &mut self.gauges {
            if name.contains("micros") {
                *v = 0;
            }
        }
        for h in &mut self.histograms {
            if h.name.contains("micros") {
                h.sum = 0;
                h.min = 0;
                h.max = 0;
                h.buckets.clear();
            }
        }
    }

    /// The versioned `rtlb-metrics-v1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(METRICS_SCHEMA)),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(int(*v))))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Arr(
                    self.histograms
                        .iter()
                        .map(|h| {
                            Json::obj([
                                ("name", Json::str(&h.name)),
                                ("count", Json::Int(int(h.count))),
                                ("sum", Json::Int(int(h.sum))),
                                ("min", Json::Int(int(h.min))),
                                ("max", Json::Int(int(h.max))),
                                (
                                    "buckets",
                                    Json::Arr(
                                        h.buckets
                                            .iter()
                                            .map(|b| {
                                                Json::obj([
                                                    ("lo", Json::Int(int(b.lo))),
                                                    (
                                                        "hi",
                                                        match b.hi {
                                                            Some(hi) => Json::Int(int(hi)),
                                                            None => Json::Null,
                                                        },
                                                    ),
                                                    ("count", Json::Int(int(b.count))),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses and validates a `rtlb-metrics-v1` document back into a
    /// snapshot — `rtlb check-report` and the CI smoke steps run every
    /// emitted export through this.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first violated constraint
    /// (wrong schema tag, missing section, unsorted names, bucket counts
    /// that do not sum to the histogram count, …).
    pub fn from_json(doc: &Json) -> Result<MetricsSnapshot, String> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(METRICS_SCHEMA) => {}
            Some(other) => return Err(format!("schema is `{other}`, expected `{METRICS_SCHEMA}`")),
            None => return Err("missing `schema` tag".to_owned()),
        }
        let section = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("missing `{key}` section"))
        };
        let pairs = |key: &str| -> Result<Vec<(String, i64)>, String> {
            match section(key)? {
                Json::Obj(pairs) => pairs
                    .iter()
                    .map(|(k, v)| {
                        v.as_int()
                            .map(|v| (k.clone(), v))
                            .ok_or_else(|| format!("`{key}.{k}` is not an integer"))
                    })
                    .collect(),
                _ => Err(format!("`{key}` is not an object")),
            }
        };
        let counters: Vec<(String, u64)> = pairs("counters")?
            .into_iter()
            .map(|(k, v)| {
                u64::try_from(v)
                    .map(|v| (k.clone(), v))
                    .map_err(|_| format!("counter `{k}` is negative"))
            })
            .collect::<Result<_, _>>()?;
        let gauges = pairs("gauges")?;
        for list in [
            counters.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            gauges.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        ] {
            if list.windows(2).any(|w| w[0] >= w[1]) {
                return Err("metric names are not strictly sorted".to_owned());
            }
        }
        let rows = section("histograms")?
            .as_arr()
            .ok_or("`histograms` is not an array")?;
        let mut histograms = Vec::with_capacity(rows.len());
        for row in rows {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .ok_or("histogram without a `name`")?
                .to_owned();
            let field = |key: &str| -> Result<u64, String> {
                row.get(key)
                    .and_then(Json::as_int)
                    .and_then(|v| u64::try_from(v).ok())
                    .ok_or_else(|| format!("histogram `{name}`: bad `{key}`"))
            };
            let (count, sum, min, max) =
                (field("count")?, field("sum")?, field("min")?, field("max")?);
            let rows = row
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("histogram `{name}`: missing `buckets`"))?;
            let mut buckets = Vec::with_capacity(rows.len());
            for b in rows {
                let lo = b
                    .get("lo")
                    .and_then(Json::as_int)
                    .and_then(|v| u64::try_from(v).ok())
                    .ok_or_else(|| format!("histogram `{name}`: bucket without `lo`"))?;
                let hi = match b.get("hi") {
                    Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_int()
                            .and_then(|v| u64::try_from(v).ok())
                            .ok_or_else(|| format!("histogram `{name}`: bad bucket `hi`"))?,
                    ),
                    None => return Err(format!("histogram `{name}`: bucket without `hi`")),
                };
                let c = b
                    .get("count")
                    .and_then(Json::as_int)
                    .and_then(|v| u64::try_from(v).ok())
                    .ok_or_else(|| format!("histogram `{name}`: bucket without `count`"))?;
                buckets.push(BucketCount { lo, hi, count: c });
            }
            if buckets.windows(2).any(|w| w[0].lo >= w[1].lo) {
                return Err(format!("histogram `{name}`: buckets not ascending"));
            }
            let bucket_total: u64 = buckets.iter().map(|b| b.count).sum();
            if !buckets.is_empty() && bucket_total != count {
                return Err(format!(
                    "histogram `{name}`: buckets sum to {bucket_total}, count is {count}"
                ));
            }
            histograms.push(HistogramSnapshot {
                name,
                count,
                sum,
                min,
                max,
                buckets,
            });
        }
        if histograms.windows(2).any(|w| w[0].name >= w[1].name) {
            return Err("histograms are not sorted by name".to_owned());
        }
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }
}

/// Clamping u64→i64 for JSON (saturate rather than wrap).
fn int(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::probe::span;

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        // Zero has its own bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!((bucket_lo(0), bucket_hi(0)), (0, Some(1)));
        // Exact powers of two start a new bucket; one less stays below.
        for k in 0..63u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k as usize + 1, "2^{k}");
            assert_eq!(bucket_lo(bucket_index(v)), v);
            if v > 1 {
                assert_eq!(bucket_index(v - 1), k as usize, "2^{k}-1");
            }
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_hi(64), None);
    }

    #[test]
    fn magnitude_guard_scale_values_land_in_one_bucket() {
        // The analysis guards magnitudes at |v| <= i64::MAX / 4 = 2^61 - 1,
        // so the largest legal observation must fit a real bucket (61),
        // not the open-ended top one.
        let guard = (i64::MAX / 4) as u64;
        let r = MetricsRegistry::new();
        r.observe_value("guard", guard);
        r.observe_value("guard", guard - 1);
        let snap = r.snapshot();
        let h = snap.histogram("guard").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, guard - 1);
        assert_eq!(h.max, guard);
        assert_eq!(h.sum, 2 * guard - 1);
        assert_eq!(h.buckets.len(), 1, "both values share bucket 61");
        assert_eq!(h.buckets[0].lo, 1u64 << 60);
        assert_eq!(h.buckets[0].hi, Some(1u64 << 61));
        assert_eq!(h.buckets[0].count, 2);
    }

    #[test]
    fn counters_gauges_and_histograms_aggregate() {
        let r = MetricsRegistry::new();
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        r.gauge_set("g", 7);
        r.gauge_set("g", 4); // max-merge: stays 7
        r.observe_value("h", 0);
        r.observe_value("h", 5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauges, vec![("g".to_owned(), 7)]);
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!((h.min, h.max, h.sum), (0, 5, 5));
        assert_eq!(
            h.buckets,
            vec![
                BucketCount {
                    lo: 0,
                    hi: Some(1),
                    count: 1
                },
                BucketCount {
                    lo: 4,
                    hi: Some(8),
                    count: 1
                },
            ]
        );
    }

    #[test]
    fn spans_become_duration_histograms() {
        let r = MetricsRegistry::new();
        {
            let _a = span(&r, "stage.a", Label::None);
            let _b = span(&r, "stage.b", Label::Index(3));
        }
        {
            let _a = span(&r, "stage.a", Label::None);
        }
        r.end(SpanId(999)); // unmatched: ignored
        let snap = r.snapshot();
        assert_eq!(snap.histogram("span.stage.a.micros").unwrap().count, 2);
        assert_eq!(snap.histogram("span.stage.b.micros").unwrap().count, 1);
        // Open spans are not counted.
        let r = MetricsRegistry::new();
        let _open = r.begin("never", Label::None);
        assert!(r.snapshot().histograms.is_empty());
    }

    #[test]
    fn cross_thread_merge_is_deterministic() {
        let reference = {
            let r = MetricsRegistry::new();
            for i in 0..40u64 {
                r.counter_add("c", i);
                r.observe_value("h", i * 3);
            }
            r.gauge_set("g", 40);
            r.snapshot()
        };
        // Same operations spread over threads, twice, in whatever
        // interleaving the scheduler picks: identical snapshots.
        for _ in 0..2 {
            let r = MetricsRegistry::new();
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let r = &r;
                    scope.spawn(move || {
                        for i in (t..40).step_by(4) {
                            r.counter_add("c", i);
                            r.observe_value("h", i * 3);
                        }
                        r.gauge_set("g", 10 * (t + 1) as i64);
                    });
                }
            });
            assert_eq!(r.snapshot(), reference);
        }
    }

    #[test]
    fn json_roundtrips_through_the_validating_parser() {
        let r = MetricsRegistry::new();
        r.counter_add("a.count", 3);
        r.gauge_set("pool.workers", 4);
        r.observe_value("batch.instance_micros", 1234);
        {
            let _s = span(&r, "analyze", Label::None);
        }
        let snap = r.snapshot();
        let doc = snap.to_json();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(METRICS_SCHEMA));
        let reparsed = parse(&doc.pretty()).expect("valid JSON");
        let back = MetricsSnapshot::from_json(&reparsed).expect("valid rtlb-metrics-v1");
        assert_eq!(back, snap);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let bad_schema = Json::obj([("schema", Json::str("rtlb-metrics-v0"))]);
        assert!(MetricsSnapshot::from_json(&bad_schema)
            .unwrap_err()
            .contains("schema"));
        let no_counters = Json::obj([("schema", Json::str(METRICS_SCHEMA))]);
        assert!(MetricsSnapshot::from_json(&no_counters)
            .unwrap_err()
            .contains("counters"));
        let snap = MetricsSnapshot {
            counters: vec![("z".to_owned(), 1), ("a".to_owned(), 2)],
            ..MetricsSnapshot::default()
        };
        assert!(MetricsSnapshot::from_json(&snap.to_json())
            .unwrap_err()
            .contains("sorted"));
        let mut snap = MetricsSnapshot::default();
        snap.histograms.push(HistogramSnapshot {
            name: "h".to_owned(),
            count: 5,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![BucketCount {
                lo: 0,
                hi: Some(1),
                count: 3,
            }],
        });
        assert!(MetricsSnapshot::from_json(&snap.to_json())
            .unwrap_err()
            .contains("sum to 3"));
    }

    #[test]
    fn normalize_zeroes_only_wallclock_content() {
        let r = MetricsRegistry::new();
        r.counter_add("sweep.pairs_offered", 9);
        r.counter_add("batch.wait_micros", 55);
        r.gauge_set("pool.workers", 2);
        r.observe_value("sweep.events_per_chunk", 17);
        {
            let _s = span(&r, "analyze", Label::None);
        }
        let mut snap = r.snapshot();
        snap.normalize();
        assert_eq!(snap.counter("sweep.pairs_offered"), 9);
        assert_eq!(snap.counter("batch.wait_micros"), 0);
        assert_eq!(snap.gauges, vec![("pool.workers".to_owned(), 2)]);
        let deterministic = snap.histogram("sweep.events_per_chunk").unwrap();
        assert_eq!(deterministic.max, 17);
        assert!(!deterministic.buckets.is_empty());
        let wall = snap.histogram("span.analyze.micros").unwrap();
        assert_eq!(wall.count, 1, "span counts survive normalization");
        assert_eq!((wall.sum, wall.min, wall.max), (0, 0, 0));
        assert!(wall.buckets.is_empty());
    }
}
