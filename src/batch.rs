//! Fault-isolated batch analysis over many `.rtlb` instances.
//!
//! `rtlb batch <dir|manifest>` analyzes every instance concurrently on
//! the shared [`run_jobs`] pool and classifies each into exactly one
//! [`OutcomeKind`] instead of letting a single bad file take down the
//! whole run:
//!
//! * a file that cannot be read or parsed is `parse-error`;
//! * an instance whose constraints are unsatisfiable is `infeasible`;
//! * an instance whose magnitudes escape the pipeline's exact arithmetic
//!   (or that trips a solver defect) is `overflow`;
//! * an instance that runs past the per-instance deadline is `timeout`
//!   (cooperative cancellation via [`CancelToken`]);
//! * an instance whose analysis panics is `panicked` — the panic is
//!   caught at the job boundary with [`std::panic::catch_unwind`], so
//!   sibling instances and the pool itself keep running.
//!
//! Healthy instances produce bounds **bit-identical** to `rtlb analyze`
//! on the same file with the same options: the batch driver calls the
//! same [`analyze_ctl`] pipeline, serially per instance whenever the
//! batch itself fans out (so there is exactly one level of parallelism).
//!
//! The report renders as an aligned text table or as a versioned
//! `rtlb-batch-v1` JSON document (see [`BatchReport::to_json`]), and the
//! exit-code policy is explicit: any outcome other than `ok` fails the
//! batch unless listed in [`BatchOptions::tolerate`].
//!
//! Two telemetry surfaces ride on the driver. A [`Probe`] passed to
//! [`run_batch_probed`] sees every instance's pipeline spans plus
//! batch-level counters (`batch.outcome.*`, `batch.instances`,
//! `cache.hit` / `cache.miss` / `cache.write` / `cache.dedup`) and the
//! `batch.instance_micros` duration distribution — attach a
//! [`MetricsRegistry`](rtlb_obs::MetricsRegistry) and the whole fleet
//! aggregates into one `rtlb-metrics-v1` export. And when
//! [`BatchOptions::heartbeat`] is set, a monitor thread emits live
//! progress (done/total, per-class counts, cache hits, throughput, ETA,
//! stragglers above the p95 completed duration) to stderr and
//! optionally as `rtlb-heartbeat-v1` JSONL.
//!
//! With [`BatchOptions::cache`] set, the driver is a consumer of the
//! content-addressed [`ResultCache`]: every instance is keyed by its
//! canonical text plus the semantic options fingerprint, healthy bounds
//! are served from disk when the key is known (byte-identical to
//! recomputation), and fresh `ok` results are stored back. Cache or
//! not, instances that are content-identical **within one run** are
//! deduped — the lowest-indexed one is analyzed, its aliases replicate
//! the outcome — so N copies of a design point cost one analysis.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rtlb_cache::{bound_from_json, bound_json, name_bounds, NamedBounds, ResultCache};
use rtlb_core::{
    analyze_ctl, effective_threads, run_jobs, AnalysisOptions, CancelToken, ResourceBound,
    SystemModel,
};
use rtlb_format::{content_key, ContentKey};
use rtlb_graph::ResourceId;
use rtlb_obs::{json, Json, Probe, NULL_PROBE};

use crate::format;

// Atomic temp+rename writes moved to `rtlb-cache` (the cache store and
// every exporter share one implementation); the old path keeps working.
pub use rtlb_cache::write_atomic;

/// Schema tag emitted by [`BatchReport::to_json`].
pub const BATCH_SCHEMA: &str = "rtlb-batch-v1";

/// Schema tag of each heartbeat JSONL record.
pub const HEARTBEAT_SCHEMA: &str = "rtlb-heartbeat-v1";

/// Everything the batch driver accepts besides the target path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOptions {
    /// Per-instance analysis knobs (candidate policy, propagation level,
    /// sweep pool shape). The per-instance `parallelism` is forced to 1
    /// whenever the batch itself runs on more than one worker.
    pub analysis: AnalysisOptions,
    /// Batch worker threads; `0` means one per core.
    pub jobs: usize,
    /// Per-instance deadline in milliseconds; `None` disables the
    /// deadline, `Some(0)` is an already-expired deadline (every
    /// instance reports `timeout` — useful for testing the policy).
    pub timeout_ms: Option<u64>,
    /// Outcomes that do **not** fail the batch exit code. `ok` is always
    /// tolerated; listing it here is harmless.
    pub tolerate: Vec<OutcomeKind>,
    /// Live progress reporting; `None` runs silently.
    pub heartbeat: Option<HeartbeatOptions>,
    /// Directory of the content-addressed result cache; `None` disables
    /// caching (in-run dedupe still applies).
    pub cache: Option<PathBuf>,
}

/// Configuration of the live batch progress emitter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HeartbeatOptions {
    /// Seconds between heartbeat lines on stderr. `0` emits only the
    /// final heartbeat (one line is always emitted when the batch ends).
    pub interval_secs: u64,
    /// Append each heartbeat as one `rtlb-heartbeat-v1` JSON line here.
    pub out: Option<PathBuf>,
}

// The failure taxonomy moved to `rtlb_core::fault` so the serve daemon
// classifies request failures with the same kinds and labels; the old
// `rtlb::batch::OutcomeKind` paths keep working.
pub use rtlb_core::{classify, panic_message, OutcomeKind, OUTCOME_KINDS};

/// One row of the batch report: what happened to one instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceOutcome {
    /// The instance file, as resolved from the directory or manifest.
    pub path: PathBuf,
    /// The classified outcome.
    pub kind: OutcomeKind,
    /// Human-readable failure detail (`None` for `ok`).
    pub detail: Option<String>,
    /// Wall-clock time spent on this instance, in microseconds.
    pub micros: u64,
    /// Resource bounds by name, bit-identical to `rtlb analyze` on the
    /// same file and options. Empty unless the outcome is `ok`.
    pub bounds: Vec<(String, ResourceBound)>,
}

/// The aggregate result of one batch run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchReport {
    /// The directory or manifest the batch was launched on.
    pub root: String,
    /// One outcome per instance, in discovery order.
    pub instances: Vec<InstanceOutcome>,
    /// Wall-clock time for the whole batch, in microseconds.
    pub total_micros: u64,
}

impl BatchReport {
    /// Number of instances with the given outcome.
    pub fn count(&self, kind: OutcomeKind) -> usize {
        self.instances.iter().filter(|i| i.kind == kind).count()
    }

    /// Number of instances whose outcome fails the batch: not `ok` and
    /// not in `tolerate`. The CLI exits non-zero iff this is non-zero.
    pub fn violations(&self, tolerate: &[OutcomeKind]) -> usize {
        self.instances
            .iter()
            .filter(|i| i.kind != OutcomeKind::Ok && !tolerate.contains(&i.kind))
            .count()
    }

    /// The versioned `rtlb-batch-v1` JSON document.
    pub fn to_json(&self) -> Json {
        let instances: Vec<Json> = self.instances.iter().map(outcome_json).collect();
        let counts: Vec<(&str, Json)> = OUTCOME_KINDS
            .into_iter()
            .map(|k| (k.label(), Json::Int(self.count(k) as i64)))
            .collect();
        Json::obj([
            ("schema", Json::str(BATCH_SCHEMA)),
            ("root", Json::str(self.root.as_str())),
            ("total", Json::Int(self.instances.len() as i64)),
            ("counts", Json::obj(counts)),
            ("total_micros", Json::Int(int(self.total_micros))),
            ("instances", Json::Arr(instances)),
        ])
    }

    /// Human-readable table: one line per instance plus a totals line.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let width = self
            .instances
            .iter()
            .map(|i| i.path.display().to_string().len())
            .max()
            .unwrap_or(8)
            .max(8);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<width$} {:<11} {:>9}  detail / bounds",
            "instance", "outcome", "micros"
        );
        for i in &self.instances {
            let tail = match i.kind {
                OutcomeKind::Ok => i
                    .bounds
                    .iter()
                    .map(|(name, b)| format!("{name}={}", b.bound))
                    .collect::<Vec<_>>()
                    .join(" "),
                _ => i.detail.clone().unwrap_or_default(),
            };
            let _ = writeln!(
                out,
                "{:<width$} {:<11} {:>9}  {}",
                i.path.display(),
                i.kind.label(),
                i.micros,
                tail
            );
        }
        let counts: Vec<String> = OUTCOME_KINDS
            .into_iter()
            .map(|k| format!("{} {}", self.count(k), k.label()))
            .collect();
        let _ = writeln!(
            out,
            "{} instance(s) in {} us: {}",
            self.instances.len(),
            self.total_micros,
            counts.join(", ")
        );
        out
    }

    /// Zeroes every wall-clock field, leaving only the deterministic
    /// content: paths, outcomes, details, bounds. This is what shard
    /// merging and byte-identity tests compare — two runs of the same
    /// corpus agree on everything except how long the clock said they
    /// took.
    pub fn normalize_timing(&mut self) {
        self.total_micros = 0;
        for i in &mut self.instances {
            i.micros = 0;
        }
    }
}

/// The JSON row for one instance outcome — the element shape of the
/// `rtlb-batch-v1` `instances` array and (with a `key` field added) of
/// each `rtlb-batch-shard-v1` stream line. Only `ok` rows carry
/// `bounds`, one [`bound_json`] row per resource.
pub(crate) fn outcome_json(i: &InstanceOutcome) -> Json {
    let mut fields = vec![
        ("path", Json::str(i.path.display().to_string())),
        ("outcome", Json::str(i.kind.label())),
        ("micros", Json::Int(int(i.micros))),
    ];
    if let Some(detail) = &i.detail {
        fields.push(("detail", Json::str(detail.as_str())));
    }
    if i.kind == OutcomeKind::Ok {
        let bounds = i.bounds.iter().map(|(name, b)| bound_json(name, b));
        fields.push(("bounds", Json::Arr(bounds.collect())));
    }
    Json::obj(fields)
}

/// Reads an [`outcome_json`] row found at `path` (which errors name)
/// back — the one row reader behind shard streams and `rtlb
/// check-report`. The row carries resource *names*, not catalog ids, so
/// each bound's [`ResourceBound::resource`] is its row position: fine
/// for re-rendering (which goes by name), not for catalog lookups.
///
/// # Errors
///
/// A message naming the first field that breaks the row shape: an
/// unknown outcome, bounds on a row that is not `ok`, or a bound row
/// that [`bound_from_json`] refuses.
pub(crate) fn outcome_from_json(doc: &Json, path: &str) -> Result<InstanceOutcome, String> {
    let file = json::str_field(doc, path, "path")?;
    let micros = json::nonneg_field(doc, path, "micros")?;
    let label = json::str_field(doc, path, "outcome")?;
    let kind = OutcomeKind::from_label(label)
        .ok_or_else(|| format!("{path}.outcome: unknown outcome `{label}`"))?;
    let detail = match doc.get("detail") {
        None => None,
        Some(_) => Some(json::str_field(doc, path, "detail")?.to_owned()),
    };
    let bounds = if kind == OutcomeKind::Ok {
        json::arr_field(doc, path, "bounds")?
            .iter()
            .enumerate()
            .map(|(j, row)| {
                bound_from_json(
                    row,
                    &format!("{path}.bounds[{j}]"),
                    ResourceId::from_index(j),
                )
            })
            .collect::<Result<_, _>>()?
    } else if doc.get("bounds").is_some() {
        return Err(format!("{path}: a `{label}` row must not carry bounds"));
    } else {
        Vec::new()
    };
    Ok(InstanceOutcome {
        path: PathBuf::from(file),
        kind,
        detail,
        micros,
        bounds,
    })
}

/// Position of `kind` in [`OUTCOME_KINDS`] (report order).
fn kind_index(kind: OutcomeKind) -> usize {
    OUTCOME_KINDS
        .into_iter()
        .position(|k| k == kind)
        .expect("kind is in OUTCOME_KINDS")
}

/// The registry counter bumped once per instance with this outcome.
fn outcome_counter(kind: OutcomeKind) -> &'static str {
    match kind {
        OutcomeKind::Ok => "batch.outcome.ok",
        OutcomeKind::ParseError => "batch.outcome.parse_error",
        OutcomeKind::Infeasible => "batch.outcome.infeasible",
        OutcomeKind::Overflow => "batch.outcome.overflow",
        OutcomeKind::Timeout => "batch.outcome.timeout",
        OutcomeKind::Panicked => "batch.outcome.panicked",
    }
}

/// Shared progress state the batch workers write and the heartbeat
/// monitor reads. All updates are either atomic or behind short-lived
/// mutexes, so the monitor never blocks an instance for long.
struct Progress {
    total: usize,
    started: Instant,
    done: AtomicUsize,
    counts: [AtomicUsize; OUTCOME_KINDS.len()],
    /// Instances served without a fresh analysis: disk cache hits plus
    /// in-run dedupe aliases.
    cached: AtomicUsize,
    /// Durations of completed instances, in micros (unordered).
    completed: Mutex<Vec<u64>>,
    /// `(input index, start)` of instances currently being analyzed.
    in_flight: Mutex<Vec<(usize, Instant)>>,
}

impl Progress {
    fn new(total: usize) -> Progress {
        Progress {
            total,
            started: Instant::now(),
            done: AtomicUsize::new(0),
            counts: Default::default(),
            cached: AtomicUsize::new(0),
            completed: Mutex::new(Vec::new()),
            in_flight: Mutex::new(Vec::new()),
        }
    }

    fn cache_hit(&self) {
        self.cached.fetch_add(1, Ordering::Relaxed);
    }

    fn begin(&self, job: usize) {
        self.in_flight
            .lock()
            .expect("progress poisoned")
            .push((job, Instant::now()));
    }

    fn finish(&self, job: usize, kind: OutcomeKind, micros: u64) {
        {
            let mut in_flight = self.in_flight.lock().expect("progress poisoned");
            if let Some(pos) = in_flight.iter().position(|&(j, _)| j == job) {
                in_flight.swap_remove(pos);
            }
        }
        self.completed
            .lock()
            .expect("progress poisoned")
            .push(micros);
        self.counts[kind_index(kind)].fetch_add(1, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    /// One consistent-enough reading of the progress state. `paths`
    /// resolves in-flight job indices to instance names for the
    /// straggler list.
    fn snapshot(&self, paths: &[PathBuf]) -> HeartbeatRecord {
        let elapsed_micros = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let done = self.done.load(Ordering::Relaxed);
        let counts = OUTCOME_KINDS
            .into_iter()
            .map(|k| {
                (
                    k.label(),
                    self.counts[kind_index(k)].load(Ordering::Relaxed),
                )
            })
            .collect();
        let mut durations = self.completed.lock().expect("progress poisoned").clone();
        durations.sort_unstable();
        let p95_micros = percentile_95(&durations);
        let now = Instant::now();
        let in_flight_elapsed: Vec<(usize, u64)> = self
            .in_flight
            .lock()
            .expect("progress poisoned")
            .iter()
            .map(|&(job, start)| {
                (
                    job,
                    u64::try_from(now.saturating_duration_since(start).as_micros())
                        .unwrap_or(u64::MAX),
                )
            })
            .collect();
        // A straggler is an in-flight instance already running longer
        // than 95% of the completed ones took in total.
        let mut stragglers: Vec<String> = in_flight_elapsed
            .iter()
            .filter(|&&(_, elapsed)| p95_micros.is_some_and(|p95| elapsed > p95))
            .map(|&(job, _)| paths[job].display().to_string())
            .collect();
        stragglers.sort();
        HeartbeatRecord {
            elapsed_micros,
            done,
            total: self.total,
            counts,
            cache_hits: self.cached.load(Ordering::Relaxed),
            in_flight: in_flight_elapsed.len(),
            p95_micros,
            throughput_milli: throughput_milli(done, elapsed_micros),
            eta_micros: eta_micros(done, self.total, elapsed_micros),
            stragglers,
        }
    }
}

/// Completed instances per second in fixed-point milli-units (`1234`
/// means 1.234/s). `None` until at least one instance finished **and**
/// wall time has advanced: both divisions are guarded, so heartbeat
/// records never carry an inf/NaN-shaped value however early the first
/// snapshot fires.
pub fn throughput_milli(done: usize, elapsed_micros: u64) -> Option<u64> {
    if done == 0 || elapsed_micros == 0 {
        return None;
    }
    Some((done as u64).saturating_mul(1_000_000_000) / elapsed_micros)
}

/// Estimated micros until the batch drains: remaining × mean wall time
/// per completed instance (wall-based, so pool concurrency is already
/// priced in). `None` until anything completed; with zero elapsed time
/// the estimate is `0`, never a division by zero.
pub fn eta_micros(done: usize, total: usize, elapsed_micros: u64) -> Option<u64> {
    if done == 0 {
        return None;
    }
    let remaining = total.saturating_sub(done) as u64;
    Some(remaining.saturating_mul(elapsed_micros) / done as u64)
}

/// `p95` of an ascending-sorted slice (nearest-rank); `None` when empty.
fn percentile_95(sorted: &[u64]) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() * 95).div_ceil(100);
    Some(sorted[rank.max(1) - 1])
}

/// One heartbeat: the batch's progress at a point in time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeartbeatRecord {
    /// Micros since the batch started.
    pub elapsed_micros: u64,
    /// Instances finished (any outcome).
    pub done: usize,
    /// Instances in the batch.
    pub total: usize,
    /// Finished count per outcome label, in report order.
    pub counts: Vec<(&'static str, usize)>,
    /// Instances served without a fresh analysis so far: disk cache
    /// hits plus in-run dedupe aliases.
    pub cache_hits: usize,
    /// Instances currently being analyzed.
    pub in_flight: usize,
    /// p95 of completed instance durations, once anything completed.
    pub p95_micros: Option<u64>,
    /// Completed instances per second ×1000, once measurable (see
    /// [`throughput_milli`]).
    pub throughput_milli: Option<u64>,
    /// Estimated micros until the batch finishes, once anything
    /// completed.
    pub eta_micros: Option<u64>,
    /// In-flight instances already running longer than `p95_micros`.
    pub stragglers: Vec<String>,
}

impl HeartbeatRecord {
    /// The one-line stderr rendering.
    pub fn render_line(&self) -> String {
        use std::fmt::Write as _;
        let mut line = format!("heartbeat {}/{} done", self.done, self.total);
        let failures: Vec<String> = self
            .counts
            .iter()
            .filter(|&&(label, n)| n > 0 && label != "ok")
            .map(|&(label, n)| format!("{n} {label}"))
            .collect();
        if !failures.is_empty() {
            let _ = write!(line, " ({})", failures.join(", "));
        }
        if self.cache_hits > 0 {
            let _ = write!(line, ", {} cached", self.cache_hits);
        }
        let _ = write!(line, ", {} in-flight", self.in_flight);
        if let Some(per_milli) = self.throughput_milli {
            let _ = write!(line, ", {}.{:03}/s", per_milli / 1000, per_milli % 1000);
        }
        if let Some(eta) = self.eta_micros {
            let _ = write!(line, ", eta {:.1}s", eta as f64 / 1e6);
        }
        if !self.stragglers.is_empty() {
            let _ = write!(line, ", stragglers: {}", self.stragglers.join(" "));
        }
        line
    }

    /// The `rtlb-heartbeat-v1` JSON record (one JSONL line when
    /// rendered compactly).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(HEARTBEAT_SCHEMA)),
            ("elapsed_micros", Json::Int(int(self.elapsed_micros))),
            ("done", Json::Int(self.done as i64)),
            ("total", Json::Int(self.total as i64)),
            (
                "counts",
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|&(label, n)| (label.to_owned(), Json::Int(n as i64)))
                        .collect(),
                ),
            ),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
            ("in_flight", Json::Int(self.in_flight as i64)),
            (
                "p95_micros",
                self.p95_micros.map_or(Json::Null, |v| Json::Int(int(v))),
            ),
            (
                "throughput_milli",
                self.throughput_milli
                    .map_or(Json::Null, |v| Json::Int(int(v))),
            ),
            (
                "eta_micros",
                self.eta_micros.map_or(Json::Null, |v| Json::Int(int(v))),
            ),
            (
                "stragglers",
                Json::Arr(self.stragglers.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Sink for heartbeat records: stderr always, plus the JSONL file when
/// configured.
struct HeartbeatSink {
    out: Option<Mutex<std::fs::File>>,
}

impl HeartbeatSink {
    fn open(options: &HeartbeatOptions) -> Result<HeartbeatSink, String> {
        let out = match &options.out {
            None => None,
            Some(path) => {
                Some(Mutex::new(std::fs::File::create(path).map_err(|e| {
                    format!("cannot create {}: {e}", path.display())
                })?))
            }
        };
        Ok(HeartbeatSink { out })
    }

    fn emit(&self, record: &HeartbeatRecord) {
        eprintln!("{}", record.render_line());
        if let Some(file) = &self.out {
            let mut file = file.lock().expect("heartbeat sink poisoned");
            // Render compactly: one record per line is the JSONL contract.
            let _ = writeln!(file, "{}", record.to_json().render());
        }
    }
}

/// Analyzes every instance under `target` (a directory scanned for
/// `*.rtlb` files, or a manifest file listing one instance path per
/// line, `#` comments allowed, relative to the manifest's directory).
///
/// Instances are fanned out on the shared scoped-thread pool; every
/// failure mode — unreadable file, parse error, infeasibility, numeric
/// overflow, deadline, even a panic inside the analysis — is isolated
/// to its instance and reported as a structured [`InstanceOutcome`].
/// The process-level contract: `run_batch` itself never panics because
/// of an instance.
///
/// # Errors
///
/// Only driver-level problems are errors: the target does not exist,
/// the manifest cannot be read, or no instances were found. Per-instance
/// failures are outcomes, not errors.
pub fn run_batch(target: &Path, options: &BatchOptions) -> Result<BatchReport, String> {
    run_batch_probed(target, options, &NULL_PROBE)
}

/// [`run_batch`] with a telemetry sink attached: every instance's
/// pipeline reports into `probe`, and the driver itself adds the
/// batch-level counters (`batch.instances`, `batch.workers`, one
/// `batch.outcome.*` per instance) and observes each instance's
/// duration into `batch.instance_micros`. The probe only observes —
/// outcomes and bounds are bit-identical to [`run_batch`] with the
/// default [`NULL_PROBE`].
///
/// # Errors
///
/// The [`run_batch`] driver-level errors, plus an unwritable
/// heartbeat JSONL path.
pub fn run_batch_probed(
    target: &Path,
    options: &BatchOptions,
    probe: &dyn Probe,
) -> Result<BatchReport, String> {
    let inputs = collect_instances(target)?;
    if inputs.is_empty() {
        return Err(format!("no .rtlb instances under {}", target.display()));
    }
    let started = Instant::now();
    let instances = drive(&inputs, options, probe, &BTreeMap::new(), &|_, _| {})?;
    Ok(BatchReport {
        root: target.display().to_string(),
        instances,
        total_micros: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
    })
}

/// What the scan phase learned about one instance.
enum Scan {
    /// Parsed; keyed by canonical content + options fingerprint.
    Keyed(ContentKey),
    /// Read/parse failed (or panicked): the outcome is already decided.
    Failed(OutcomeKind, Option<String>, u64),
}

/// The batch engine shared by [`run_batch_probed`] and the shard driver:
/// scans and keys every input, dedupes content-identical instances,
/// consults `preloaded` results and the on-disk cache, analyzes what is
/// left on the pool, stores fresh `ok` bounds back, and replicates
/// representative outcomes to their aliases.
///
/// `on_complete` fires once per input as its outcome becomes final —
/// from worker threads during the analysis phase — which is what lets a
/// shard stream its result file as instances finish. Each call carries
/// the instance's content key when one could be computed (parse
/// failures have none). Results come back in input order regardless of
/// completion order.
pub(crate) fn drive(
    inputs: &[PathBuf],
    options: &BatchOptions,
    probe: &dyn Probe,
    preloaded: &BTreeMap<ContentKey, NamedBounds>,
    on_complete: &(dyn Fn(&InstanceOutcome, Option<ContentKey>) + Sync),
) -> Result<Vec<InstanceOutcome>, String> {
    let cache = match &options.cache {
        Some(dir) => Some(ResultCache::open(dir)?),
        None => None,
    };
    let fingerprint = options.analysis.semantic_fingerprint();
    let timeout = options.timeout_ms.map(Duration::from_millis);
    let pool = effective_threads(options.jobs);

    probe.add("batch.instances", inputs.len() as u64);
    probe.add("batch.workers", pool.min(inputs.len()) as u64);

    let sink = match &options.heartbeat {
        Some(hb) => Some(HeartbeatSink::open(hb)?),
        None => None,
    };
    let progress = Progress::new(inputs.len());
    let stop = AtomicBool::new(false);

    let mut outcomes: Vec<Option<InstanceOutcome>> = (0..inputs.len()).map(|_| None).collect();
    let mut keys: Vec<Option<ContentKey>> = vec![None; inputs.len()];

    std::thread::scope(|scope| {
        // The monitor wakes in short slices so a finished batch never
        // waits out a long interval before joining. It spans every
        // phase: scan, cache consult, analysis, replication.
        if let (Some(sink), Some(hb)) = (&sink, &options.heartbeat) {
            if hb.interval_secs > 0 {
                let interval = Duration::from_secs(hb.interval_secs);
                let (progress, stop) = (&progress, &stop);
                scope.spawn(move || {
                    let mut last = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(25));
                        if last.elapsed() >= interval {
                            sink.emit(&progress.snapshot(inputs));
                            last = Instant::now();
                        }
                    }
                });
            }
        }

        // Phase 1 — scan: read, parse, and key every input on the pool.
        // Parse failures are decided here; everything else gets a key.
        let scans = run_jobs(&NULL_PROBE, pool.min(inputs.len()), inputs.len(), |job| {
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                scan_instance(&inputs[job], &fingerprint)
            }));
            let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            match result {
                Ok(Ok(key)) => Scan::Keyed(key),
                Ok(Err((kind, detail))) => Scan::Failed(kind, Some(detail), micros),
                Err(payload) => Scan::Failed(
                    OutcomeKind::Panicked,
                    Some(panic_message(payload.as_ref())),
                    micros,
                ),
            }
        });

        // Phase 2 — group and consult: content-identical inputs form one
        // group; the lowest index is the representative. Representatives
        // whose key is already answered (resume preload, then the disk
        // cache) finish immediately; the rest form the work list.
        let finalize = |idx: usize,
                        outcome: InstanceOutcome,
                        key: Option<ContentKey>,
                        outcomes: &mut Vec<Option<InstanceOutcome>>| {
            progress.finish(idx, outcome.kind, outcome.micros);
            probe.add(outcome_counter(outcome.kind), 1);
            probe.observe("batch.instance_micros", outcome.micros);
            on_complete(&outcome, key);
            outcomes[idx] = Some(outcome);
        };

        let mut groups: BTreeMap<ContentKey, Vec<usize>> = BTreeMap::new();
        for (idx, scan) in scans.iter().enumerate() {
            match scan {
                Scan::Keyed(key) => {
                    keys[idx] = Some(*key);
                    groups.entry(*key).or_default().push(idx);
                }
                Scan::Failed(kind, detail, micros) => {
                    finalize(
                        idx,
                        InstanceOutcome {
                            path: inputs[idx].clone(),
                            kind: *kind,
                            detail: detail.clone(),
                            micros: *micros,
                            bounds: Vec::new(),
                        },
                        None,
                        &mut outcomes,
                    );
                }
            }
        }

        let mut worklist: Vec<usize> = Vec::new();
        for (key, members) in &groups {
            let rep = members[0];
            let start = Instant::now();
            let served = preloaded.get(key).cloned().or_else(|| {
                cache.as_ref().and_then(|c| {
                    let hit = c.lookup(*key);
                    probe.add(
                        if hit.is_some() {
                            "cache.hit"
                        } else {
                            "cache.miss"
                        },
                        1,
                    );
                    hit
                })
            });
            match served {
                Some(bounds) => {
                    let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                    progress.cache_hit();
                    finalize(
                        rep,
                        InstanceOutcome {
                            path: inputs[rep].clone(),
                            kind: OutcomeKind::Ok,
                            detail: None,
                            micros,
                            bounds,
                        },
                        Some(*key),
                        &mut outcomes,
                    );
                }
                None => worklist.push(rep),
            }
        }

        // Phase 3 — analyze the remaining representatives on the pool.
        // One level of parallelism: when the batch fans out, each
        // instance runs its sweep serially; a single-worker batch lets
        // the instance use its own configured pool. Fresh `ok` bounds
        // are stored to the cache from the worker, so a kill loses at
        // most in-flight analyses, never finished ones.
        if !worklist.is_empty() {
            let workers = pool.min(worklist.len());
            let mut per_instance = options.analysis;
            if workers > 1 {
                per_instance.parallelism = 1;
            }
            let analyzed = run_jobs(&NULL_PROBE, workers, worklist.len(), |job| {
                let idx = worklist[job];
                let path = &inputs[idx];
                progress.begin(idx);
                let start = Instant::now();
                // The job boundary is the fault-isolation line: a panic
                // anywhere in read/parse/analyze becomes a `panicked`
                // outcome for this instance only.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    analyze_instance(path, per_instance, timeout, probe)
                }));
                let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                let (kind, detail, bounds) = match result {
                    Ok(outcome) => outcome,
                    Err(payload) => (
                        OutcomeKind::Panicked,
                        Some(panic_message(payload.as_ref())),
                        Vec::new(),
                    ),
                };
                let key = keys[idx];
                if kind == OutcomeKind::Ok {
                    if let (Some(cache), Some(key)) = (&cache, key) {
                        if cache.store(key, &fingerprint, &bounds).is_ok() {
                            probe.add("cache.write", 1);
                        }
                    }
                }
                let outcome = InstanceOutcome {
                    path: path.clone(),
                    kind,
                    detail,
                    micros,
                    bounds,
                };
                progress.finish(idx, outcome.kind, outcome.micros);
                probe.add(outcome_counter(outcome.kind), 1);
                probe.observe("batch.instance_micros", outcome.micros);
                on_complete(&outcome, key);
                (idx, outcome)
            });
            for (idx, outcome) in analyzed {
                outcomes[idx] = Some(outcome);
            }
        }

        // Phase 4 — replicate: aliases take their representative's
        // outcome verbatim (path aside), whatever it was — identical
        // content gets an identical verdict at the cost of one analysis.
        for members in groups.values() {
            let rep_outcome = outcomes[members[0]]
                .clone()
                .expect("representative outcome decided");
            for &alias in &members[1..] {
                progress.cache_hit();
                probe.add("cache.dedup", 1);
                finalize(
                    alias,
                    InstanceOutcome {
                        path: inputs[alias].clone(),
                        micros: 0,
                        ..rep_outcome.clone()
                    },
                    keys[alias],
                    &mut outcomes,
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // The final heartbeat is unconditional: even `--heartbeat` larger
    // than the whole run emits at least this one complete line.
    if let Some(sink) = &sink {
        sink.emit(&progress.snapshot(inputs));
    }
    Ok(outcomes
        .into_iter()
        .map(|outcome| outcome.expect("every input decided"))
        .collect())
}

/// Reads, parses, and keys one instance for the scan phase.
fn scan_instance(path: &Path, fingerprint: &str) -> Result<ContentKey, (OutcomeKind, String)> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| (OutcomeKind::ParseError, format!("cannot read: {e}")))?;
    let parsed = format::parse(&text).map_err(|e| (OutcomeKind::ParseError, e.to_string()))?;
    Ok(content_key(&parsed, fingerprint))
}

/// Reads, parses, and analyzes one instance; never panics on bad input
/// (panics that do escape are caught by the caller's job boundary).
fn analyze_instance(
    path: &Path,
    options: AnalysisOptions,
    timeout: Option<Duration>,
    probe: &dyn Probe,
) -> (OutcomeKind, Option<String>, Vec<(String, ResourceBound)>) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            return (
                OutcomeKind::ParseError,
                Some(format!("cannot read: {e}")),
                Vec::new(),
            )
        }
    };
    let parsed = match format::parse(&text) {
        Ok(parsed) => parsed,
        Err(e) => return (OutcomeKind::ParseError, Some(e.to_string()), Vec::new()),
    };
    let ctl = match timeout {
        Some(limit) => CancelToken::with_timeout(limit),
        None => CancelToken::none(),
    };
    match analyze_ctl(&parsed.graph, &SystemModel::shared(), options, probe, &ctl) {
        Ok(analysis) => (
            OutcomeKind::Ok,
            None,
            name_bounds(parsed.graph.catalog(), analysis.bounds()),
        ),
        Err(e) => (classify(&e), Some(e.to_string()), Vec::new()),
    }
}

/// Resolves the batch target into an ordered instance list.
pub(crate) fn collect_instances(target: &Path) -> Result<Vec<PathBuf>, String> {
    let meta = std::fs::metadata(target)
        .map_err(|e| format!("cannot access {}: {e}", target.display()))?;
    if meta.is_dir() {
        let mut found = Vec::new();
        let entries = std::fs::read_dir(target)
            .map_err(|e| format!("cannot list {}: {e}", target.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot list {}: {e}", target.display()))?;
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == "rtlb") {
                found.push(path);
            }
        }
        found.sort();
        Ok(found)
    } else {
        let text = std::fs::read_to_string(target)
            .map_err(|e| format!("cannot read manifest {}: {e}", target.display()))?;
        let base = target.parent().unwrap_or_else(|| Path::new("."));
        // `str::trim` strips `\r` along with spaces, so CRLF manifests
        // (checked out or generated on Windows) resolve the same paths
        // as LF ones. Duplicate entries are collapsed to their first
        // occurrence — listing an instance twice must not analyze (or
        // count) it twice.
        let mut seen = std::collections::BTreeSet::new();
        Ok(text
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(|line| base.join(line))
            .filter(|path| seen.insert(path.clone()))
            .collect())
    }
}

/// Clamping u64→i64 for JSON (counts and microseconds never overflow
/// i64 in practice; saturate rather than wrap if one ever does).
fn int(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_respect_the_tolerate_list() {
        let outcome = |kind| InstanceOutcome {
            path: PathBuf::from("x.rtlb"),
            kind,
            detail: None,
            micros: 0,
            bounds: Vec::new(),
        };
        let report = BatchReport {
            root: "x".into(),
            instances: vec![
                outcome(OutcomeKind::Ok),
                outcome(OutcomeKind::Infeasible),
                outcome(OutcomeKind::Panicked),
            ],
            total_micros: 0,
        };
        assert_eq!(report.violations(&[]), 2);
        assert_eq!(report.violations(&[OutcomeKind::Infeasible]), 1);
        assert_eq!(
            report.violations(&[OutcomeKind::Infeasible, OutcomeKind::Panicked]),
            0
        );
        assert_eq!(report.count(OutcomeKind::Ok), 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile_95(&[]), None);
        assert_eq!(percentile_95(&[7]), Some(7));
        assert_eq!(percentile_95(&[1, 2]), Some(2));
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile_95(&twenty), Some(19));
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_95(&hundred), Some(95));
    }

    #[test]
    fn heartbeat_snapshot_counts_eta_and_stragglers() {
        let paths: Vec<PathBuf> = (0..4)
            .map(|i| PathBuf::from(format!("i{i}.rtlb")))
            .collect();
        let progress = Progress::new(4);
        progress.begin(0);
        progress.begin(1);
        progress.begin(2);
        progress.finish(0, OutcomeKind::Ok, 10);
        progress.finish(1, OutcomeKind::ParseError, 30);
        std::thread::sleep(Duration::from_millis(2));
        let record = progress.snapshot(&paths);
        assert_eq!((record.done, record.total, record.in_flight), (2, 4, 1));
        assert_eq!(record.p95_micros, Some(30));
        assert!(record.eta_micros.is_some());
        assert!(record.counts.contains(&("ok", 1)));
        assert!(record.counts.contains(&("parse-error", 1)));
        // Job 2 has been in flight ~2ms > p95 of 30us: a straggler.
        assert_eq!(record.stragglers, vec!["i2.rtlb".to_owned()]);
        let line = record.render_line();
        assert!(line.starts_with("heartbeat 2/4 done"), "{line}");
        assert!(line.contains("1 parse-error"), "{line}");
        assert!(line.contains("stragglers: i2.rtlb"), "{line}");
        assert!(!line.contains("1 ok"), "ok is not a failure class: {line}");
    }

    #[test]
    fn heartbeat_json_is_versioned_and_single_line() {
        let progress = Progress::new(2);
        progress.begin(0);
        progress.finish(0, OutcomeKind::Ok, 5);
        let record = progress.snapshot(&[PathBuf::from("a.rtlb"), PathBuf::from("b.rtlb")]);
        let doc = record.to_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(HEARTBEAT_SCHEMA)
        );
        assert_eq!(doc.get("done").and_then(Json::as_int), Some(1));
        assert_eq!(doc.get("total").and_then(Json::as_int), Some(2));
        assert_eq!(
            doc.get("counts").unwrap().get("ok").and_then(Json::as_int),
            Some(1)
        );
        let line = doc.render();
        assert!(!line.contains('\n'), "compact render is one JSONL line");
        let reparsed = rtlb_obs::json::parse(&line).unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn empty_progress_has_no_eta_or_p95() {
        let record = Progress::new(3).snapshot(&[]);
        assert_eq!(record.done, 0);
        assert_eq!(record.p95_micros, None);
        assert_eq!(record.throughput_milli, None);
        assert_eq!(record.eta_micros, None);
        assert!(record.stragglers.is_empty());
        assert!(record.render_line().starts_with("heartbeat 0/3 done"));
    }

    #[test]
    fn rate_math_survives_zero_done_and_zero_elapsed() {
        // Nothing done: no rate, no ETA, whatever the clock says.
        assert_eq!(throughput_milli(0, 0), None);
        assert_eq!(throughput_milli(0, 1_000_000), None);
        assert_eq!(eta_micros(0, 10, 1_000_000), None);
        // Done but the clock has not advanced (coarse timers do this):
        // rate is unknown, ETA degenerates to 0, never a panic or NaN.
        assert_eq!(throughput_milli(5, 0), None);
        assert_eq!(eta_micros(5, 10, 0), Some(0));
        // The healthy case: 2 done in 1s of 4 total → 2.000/s, 1s left.
        assert_eq!(throughput_milli(2, 1_000_000), Some(2000));
        assert_eq!(eta_micros(2, 4, 1_000_000), Some(1_000_000));
        // done > total (defensive): remaining saturates at 0.
        assert_eq!(eta_micros(5, 3, 1_000_000), Some(0));
    }

    #[test]
    fn degenerate_heartbeat_renders_finite_json() {
        // A record shaped like the worst early snapshot — work completed
        // before the wall clock ticked — must still render as a finite,
        // reparseable JSONL line with nulls, not inf/NaN.
        let record = HeartbeatRecord {
            elapsed_micros: 0,
            done: 1,
            total: 2,
            counts: vec![("ok", 1)],
            cache_hits: 0,
            in_flight: 1,
            p95_micros: Some(0),
            throughput_milli: throughput_milli(1, 0),
            eta_micros: eta_micros(1, 2, 0),
            stragglers: Vec::new(),
        };
        let line = record.to_json().render();
        assert!(line.contains("\"throughput_milli\":null"), "{line}");
        assert!(line.contains("\"eta_micros\":0"), "{line}");
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
        assert!(rtlb_obs::json::parse(&line).is_ok(), "{line}");
        let rendered = record.render_line();
        assert!(!rendered.contains("inf") && !rendered.contains("NaN"));
    }

    #[test]
    fn outcome_counters_are_distinct_per_kind() {
        let names: std::collections::BTreeSet<_> =
            OUTCOME_KINDS.into_iter().map(outcome_counter).collect();
        assert_eq!(names.len(), OUTCOME_KINDS.len());
        assert!(names.iter().all(|n| n.starts_with("batch.outcome.")));
    }

    #[test]
    fn json_report_is_versioned_and_counted() {
        let report = BatchReport {
            root: "dir".into(),
            instances: vec![InstanceOutcome {
                path: PathBuf::from("a.rtlb"),
                kind: OutcomeKind::ParseError,
                detail: Some("line 3: bad".into()),
                micros: 12,
                bounds: Vec::new(),
            }],
            total_micros: 34,
        };
        let doc = report.to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(BATCH_SCHEMA));
        let counts = doc.get("counts").unwrap();
        assert_eq!(counts.get("parse-error").and_then(Json::as_int), Some(1));
        assert_eq!(counts.get("ok").and_then(Json::as_int), Some(0));
        let rows = doc.get("instances").and_then(Json::as_arr).unwrap();
        assert_eq!(
            rows[0].get("outcome").and_then(Json::as_str),
            Some("parse-error")
        );
        assert!(
            rows[0].get("bounds").is_none(),
            "failed rows carry no bounds"
        );
    }
}
