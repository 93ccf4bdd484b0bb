//! End-to-end and per-layer benchmark of `rtlb`.
//!
//! One process runs one workload (see NOTES.md for why each exists):
//!
//! * `serve-oneshot` — stateless `analyze` requests through an
//!   in-process daemon ([`rtlb_serve::serve`]);
//! * `serve-delta` — single-edit `delta` requests against one open
//!   session of the same daemon;
//! * `batch-corpus` — [`rtlb::batch::run_batch`] calls on manifests of an
//!   on-disk corpus with a pre-filled result cache.
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` (the
//! `perfbench-traced` binary) measures the untraced mean op latency,
//! then replays the same ops in-process with a span around each layer's
//! public call, and prints per-layer self times and counts. The last
//! stdout line is the JSON result either way.

pub mod alloc;
mod batch;
mod check;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Tracer;

/// Set-ups per end-to-end run; `setup_s` is their median. Each set-up
/// starts one of as many equal segments of the timed phase, so set-up
/// and op samples span the same stretch of the run and see the same
/// drift in the host's speed.
const SETUPS: usize = 5;

/// `throughput_ops_s` and `latency_p50_us` are taken over the fastest
/// 1/`STEADY_SHARE` of a run's complete passes over its op cycle;
/// `latency_p99_us` over every op. The shared host runs this benchmark
/// at one of two speeds about 1.6x apart and switches every few seconds;
/// the share of a run spent at the slow speed varies from run to run.
/// Over all ops, p50 lands on whichever speed held most of the run and
/// jumps between runs; the fastest twentieth of the passes lies at the
/// fast speed whenever a run spends that much of its time there
/// (NOTES.md). A change to the program slows every pass alike, so it
/// still shows in full.
const STEADY_SHARE: usize = 20;

/// Command-line arguments of both binaries.
#[derive(Clone, Debug)]
pub(crate) struct Args {
    pub(crate) workload: String,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
    /// Scratch directory for the batch corpus, its cache and span dumps.
    pub(crate) work: PathBuf,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: check::DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            work: PathBuf::from(".bench_build/perfbench-work"),
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: invalid {what} `{value}`");
            match flag.as_str() {
                "--workload" => parsed.workload.clone_from(&value),
                "--seed" => parsed.seed = value.parse().map_err(|_| bad("seed"))?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|_| bad("duration"))?;
                    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                        return Err(bad("duration"));
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace flag")),
                    }
                }
                "--work" => parsed.work = PathBuf::from(&value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if parsed.workload.is_empty() {
            return Err("--workload is required".to_owned());
        }
        Ok(parsed)
    }

    fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The result line: correctness, op counts, and metrics by name.
pub(crate) struct Report {
    pub(crate) correct: bool,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Entry point of both binaries; `traced_binary` says which one runs.
pub fn main(traced_binary: bool) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace != traced_binary {
        eprintln!("perfbench: `--trace 1` runs in perfbench-traced, `--trace 0` in perfbench");
        return ExitCode::from(2);
    }
    let result = std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))
        .and_then(|()| match args.workload.as_str() {
            "serve-oneshot" => serve::oneshot(&args),
            "serve-delta" => serve::delta(&args),
            "batch-corpus" => batch::run(&args),
            other => Err(format!("unknown workload `{other}`")),
        });
    match result {
        Ok(report) => {
            if report.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
                eprintln!("perfbench: a metric is not a finite number");
                return ExitCode::FAILURE;
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the untraced timed phase measured.
pub(crate) struct Timed {
    /// Per-op latency in nanoseconds, in op order.
    latencies_ns: Vec<u64>,
    /// Index ranges into `latencies_ns` of the complete passes over the
    /// workload's op cycle. Every pass runs the same ops, so passes differ
    /// in time only by the host's speed while they ran.
    passes: Vec<Range<usize>>,
    /// Ops that answered `ok` with the reference bounds.
    pub(crate) succeeded: u64,
    /// Ops refused by admission control.
    pub(crate) busy: u64,
}

impl Timed {
    /// Room for every op a run can time is reserved up front, so the
    /// buffer never moves and its resident size tracks only the ops
    /// stored, not a doubling step (which would couple `peak_rss_mb` to
    /// throughput).
    fn new() -> Timed {
        Timed {
            latencies_ns: Vec::with_capacity(1 << 22),
            passes: Vec::new(),
            succeeded: 0,
            busy: 0,
        }
    }

    /// Records an op that was sent at `sent` and has just answered.
    /// `position` is its place in the workload's cycle of `cycle` ops.
    /// Every set-up's loop starts at position 0, so an op at the last
    /// position completes a pass made of the last `cycle` ops recorded.
    pub(crate) fn record(&mut self, sent: Instant, position: usize, cycle: usize) {
        let ns = sent.elapsed().as_nanos();
        self.latencies_ns
            .push(u64::try_from(ns).expect("op shorter than 584 years"));
        if position + 1 == cycle {
            let end = self.latencies_ns.len();
            self.passes.push(end - cycle..end);
        }
    }

    fn attempted(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    fn mean_ns(&self) -> f64 {
        self.latencies_ns.iter().sum::<u64>() as f64 / self.latencies_ns.len().max(1) as f64
    }

    /// Latencies of the ops in the fastest 1/[`STEADY_SHARE`] of the
    /// complete passes, ranked by total time; every op when no pass
    /// completed.
    fn steady_ns(&self) -> Vec<u64> {
        let mut passes: Vec<(u64, Range<usize>)> = self
            .passes
            .iter()
            .map(|r| (self.latencies_ns[r.clone()].iter().sum(), r.clone()))
            .collect();
        if passes.is_empty() {
            eprintln!(
                "perfbench: no pass over the op cycle completed; p50 and throughput use every op"
            );
            return self.latencies_ns.clone();
        }
        passes.sort_unstable_by_key(|(ns, _)| *ns);
        let keep = passes.len().div_ceil(STEADY_SHARE);
        passes[..keep]
            .iter()
            .flat_map(|(_, r)| self.latencies_ns[r.clone()].iter().copied())
            .collect()
    }
}

/// Nearest-rank percentile of unsorted values.
fn percentile(values: &[u64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0) as f64
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `VmHWM` (peak resident set) of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end report of an untraced run.
fn end_to_end(timed: &Timed, setups_s: &[f64], correct: bool) -> Result<Report, String> {
    let attempted = timed.attempted();
    if attempted == 0 {
        return Err("no op completed in the timed phase".to_owned());
    }
    if attempted < 1000 {
        eprintln!("perfbench: only {attempted} ops timed; fewer than ten lie beyond p99");
    }
    let steady = timed.steady_ns();
    let steady_s = steady.iter().sum::<u64>() as f64 / 1e9;
    let metrics = vec![
        ("throughput_ops_s", steady.len() as f64 / steady_s, "1/s"),
        ("latency_p50_us", percentile(&steady, 0.50) / 1e3, "us"),
        (
            "latency_p99_us",
            percentile(&timed.latencies_ns, 0.99) / 1e3,
            "us",
        ),
        (
            "success_ratio",
            timed.succeeded as f64 / attempted as f64,
            "ratio",
        ),
        ("setup_s", median(setups_s), "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    eprintln!(
        "perfbench: {attempted} ops, {} ok, {} busy; {} of {} passes kept ({} ops); \
         over every op: {:.1} ops/s, p50 {:.1} us; set-ups {setups_s:?} s",
        timed.succeeded,
        timed.busy,
        timed.passes.len().div_ceil(STEADY_SHARE),
        timed.passes.len(),
        steady.len(),
        1e9 / timed.mean_ns(),
        percentile(&timed.latencies_ns, 0.50) / 1e3,
    );
    Ok(Report {
        correct: correct && timed.succeeded == attempted,
        attempted,
        failed: attempted - timed.succeeded,
        metrics,
    })
}

/// Writes the traced run's spans below the work directory; a failed
/// write loses only the dump, not the result.
fn dump_spans(tracer: &Tracer, args: &Args) {
    let path = args.work.join(format!("spans-{}.jsonl", args.workload));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Every per-layer metric, printed by every workload (0 where the
/// workload bypasses the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("rpc_decode.us", "us"),
    ("rpc_decode.bytes", "bytes"),
    ("rpc_decode.allocs", "count"),
    ("text_parse.us", "us"),
    ("text_parse.allocs", "count"),
    ("edit_parse.us", "us"),
    ("canon_key.us", "us"),
    ("cache_lookup.us", "us"),
    ("cache_store.us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("dedup.aliases", "count"),
    ("session_checkout.us", "us"),
    ("session_apply.us", "us"),
    ("session_apply.tasks_recomputed", "count"),
    ("session_apply.blocks_resweeped", "count"),
    ("session_apply.allocs", "count"),
    ("estlct.us", "us"),
    ("partition.us", "us"),
    ("partition.blocks", "count"),
    ("sweep.us", "us"),
    ("sweep.intervals", "count"),
    ("sweep.allocs", "count"),
    ("propagate.us", "us"),
    ("propagate.capacities_refuted", "count"),
    ("encode.us", "us"),
    ("encode.bytes", "bytes"),
    ("serve_overhead.us", "us"),
    ("admission.busy", "count"),
    ("batch_driver.us", "us"),
    ("op.us", "us"),
    ("op_traced.us", "us"),
];

/// One op of a traced replay: the workload's layer calls in the order
/// the daemon or driver makes them, each inside a span.
pub(crate) trait Replay {
    /// Replays op `op` of the cycle; returns whether its output matched
    /// the reference.
    fn op(&mut self, tracer: &Tracer, op: u64) -> Result<bool, String>;
}

/// Ops a traced replay ran, and those whose output differed from the
/// reference.
#[derive(Default)]
pub(crate) struct Replayed {
    ops: u64,
    failed: u64,
}

impl Replayed {
    fn run_until(
        &mut self,
        replay: &mut dyn Replay,
        tracer: &Tracer,
        deadline: Instant,
    ) -> Result<(), String> {
        while Instant::now() < deadline {
            if !replay.op(tracer, self.ops)? {
                self.failed += 1;
            }
            self.ops += 1;
        }
        Ok(())
    }
}

/// Runs the untraced loop and the traced replay in alternating slices
/// for `total`, so a drift in the host's speed during the run reaches
/// both alike; each gets about half the time.
fn interleave(
    total: Duration,
    untraced: &mut dyn FnMut(Instant) -> Result<(), String>,
    traced: &mut dyn FnMut(Instant) -> Result<(), String>,
) -> Result<(), String> {
    const SLICE: Duration = Duration::from_millis(250);
    let end = Instant::now() + total;
    let phases: [&mut dyn FnMut(Instant) -> Result<(), String>; 2] = [untraced, traced];
    for turn in 0.. {
        let now = Instant::now();
        if now >= end {
            break;
        }
        phases[turn % 2]((now + SLICE).min(end))?;
    }
    Ok(())
}

/// The per-layer report of a traced run.
///
/// `untraced` is the untraced phase of the same run; `residual` names
/// the row that takes whatever the untraced mean op latency holds
/// beyond the layer rows, so the rows add up to it exactly. `extra`
/// carries ratios computed by the workload.
fn per_layer(
    tracer: &Tracer,
    replayed: &Replayed,
    untraced: &Timed,
    residual: &'static str,
    extra: &[(&'static str, f64)],
) -> Report {
    let ops = replayed.ops.max(1) as f64;
    // Every layer gets `.us` and `.allocs`, every counter its mean per
    // op; only the names in PER_LAYER are printed.
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut layer_sum_us = 0.0;
    for (layer, (ns, allocs)) in tracer.self_totals() {
        if layer == trace::OP {
            continue;
        }
        let us = ns as f64 / ops / 1e3;
        layer_sum_us += us;
        let row = format!("{layer}.us");
        assert!(
            PER_LAYER.iter().any(|(name, _)| *name == row),
            "span layer `{layer}` has no {row} metric"
        );
        values.insert(row, us);
        values.insert(format!("{layer}.allocs"), allocs as f64 / ops);
    }
    for (counter, total) in tracer.counters() {
        values.insert(counter.to_owned(), total as f64 / ops);
    }
    let untraced_us = untraced.mean_ns() / 1e3;
    let traced_us = tracer.mean_op_ns() / 1e3;
    values.insert(residual.to_owned(), untraced_us - layer_sum_us);
    values.insert(
        "admission.busy".to_owned(),
        untraced.busy as f64 / untraced.attempted().max(1) as f64,
    );
    values.insert("op.us".to_owned(), untraced_us);
    values.insert("op_traced.us".to_owned(), traced_us);
    for &(name, value) in extra {
        values.insert(name.to_owned(), value);
    }
    eprintln!(
        "perfbench: untraced mean op {untraced_us:.1} us over {} ops; traced replay {traced_us:.1} us \
         over {} ops (tracing overhead x{:.3}); layer rows {layer_sum_us:.1} us + {residual} {:.1} us",
        untraced.attempted(),
        replayed.ops,
        traced_us / untraced_us,
        untraced_us - layer_sum_us,
    );
    let failed = replayed.failed + (untraced.attempted() - untraced.succeeded);
    Report {
        correct: failed == 0,
        attempted: replayed.ops + untraced.attempted(),
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
    }
}

/// A small deterministic generator (SplitMix64) for the workloads'
/// choices; the graph generators take their own seeds.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Uniform in `0..n`.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&values, 0.50), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
    }

    #[test]
    fn an_op_at_the_last_position_completes_a_pass() {
        let mut timed = Timed::new();
        for position in [0, 1, 2, 0, 1, 2, 0, 1] {
            timed.record(Instant::now(), position, 3);
        }
        assert_eq!(timed.passes, [0..3, 3..6]);
    }

    #[test]
    fn steady_ops_are_those_of_the_fastest_passes() {
        let mut timed = Timed::new();
        assert!(timed.steady_ns().is_empty());
        timed.latencies_ns.push(5);
        assert_eq!(timed.steady_ns(), [5], "every op when no pass completed");
        // Forty passes of two ops; pass 7 is the fastest, then pass 0.
        for pass in 0..40 {
            let ns = if pass == 7 { 1 } else { 10 + pass };
            timed.latencies_ns.extend([ns, ns]);
            let end = timed.latencies_ns.len();
            timed.passes.push(end - 2..end);
        }
        timed.latencies_ns.push(0);
        assert_eq!(timed.steady_ns(), [1, 1, 10, 10]);
    }

    #[test]
    fn median_of_setups() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn args_parse_the_command_line() {
        let args = Args::parse(
            [
                "--workload",
                "serve-delta",
                "--seed",
                "9",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .into_iter()
            .map(str::to_owned),
        )
        .expect("flags parse");
        assert_eq!(
            (args.workload.as_str(), args.seed, args.trace),
            ("serve-delta", 9, true)
        );
        assert!(Args::parse(["--trace", "2"].into_iter().map(str::to_owned)).is_err());
        assert!(Args::parse(["--seed"].into_iter().map(str::to_owned)).is_err());
    }

    #[test]
    fn report_line_has_exactly_the_result_keys() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s")],
        };
        let doc = rtlb_obs::json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(doc.keys(), ["correct", "attempted", "failed", "metrics"]);
    }
}
