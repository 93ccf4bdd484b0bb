//! `rtlb` — command-line front end for the lower-bound analysis.
//!
//! Run `rtlb --help` for every subcommand, flag and exit code.
//!
//! The text format is documented in `rtlb::format::instance`;
//! `rtlb example > f.rtlb` followed by `rtlb analyze f.rtlb` reproduces
//! the paper's numbers.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use rtlb::batch::{run_batch_probed, write_atomic, BatchOptions, HeartbeatOptions, OutcomeKind};
use rtlb::cache::{CacheOutcome, ResultCache};
use rtlb::check::check_text;
use rtlb::core::{
    analyze_with, analyze_with_probe, build_run_report, effective_threads, render_analysis,
    render_bounds, render_dedicated_cost, render_shared_cost, AnalysisOptions, AnalysisSession,
    CancelToken, CandidatePolicy, PropagationLevel, SystemModel,
};
use rtlb::format::{parse, parse_scenarios, render, resolve};
use rtlb::graph::to_dot;
use rtlb::obs::{
    chrome_trace, prometheus_text, Json, MetricsRegistry, MetricsSnapshot, PhaseProfile, Probe,
    Recorder, TeeProbe, NULL_PROBE,
};
use rtlb::sched::{list_schedule, validate_schedule, Capacities};
use rtlb::serve::{ServeConfig, RPC_SCHEMA};
use rtlb::shard::{merge_shards, run_shard_probed, ShardOptions};
use rtlb::workloads::paper_example;

const USAGE: &str = "\
rtlb — resource lower bounds for real-time task graphs (ICDCS 1995)

usage:
  rtlb analyze <file> [flags]   run the four-step analysis on a text-format
                                instance and print windows, partitions,
                                bounds, and cost bounds
  rtlb dot <file>               emit Graphviz DOT for the instance
  rtlb example                  print the paper's 15-task example instance
  rtlb schedule <file> <N>      try the merge-guided list scheduler with N
                                units of every demanded resource
  rtlb sweep-scenarios <file>   apply a scenario file's edit batches to one
                                incremental analysis session, reporting the
                                bounds and re-analysis work per scenario
  rtlb batch <dir|manifest>     analyze every .rtlb instance in a directory
                                (or listed one-per-line in a manifest file),
                                isolating parse errors, infeasibility,
                                overflows, timeouts, and panics per instance
  rtlb merge-shards <file>...   fold complete rtlb-batch-shard-v1 stream
                                files back into one rtlb-batch-v1 aggregate
                                (rows sorted by path, timing zeroed — byte-
                                identical however the shards were produced)
  rtlb check-report <file>...   validate rtlb-report-v1, rtlb-batch-v1,
                                rtlb-scenarios-v1, rtlb-metrics-v1,
                                rtlb-cache-v1, or rtlb-cache-entry-v1 JSON
                                documents (dispatching on their schema tag)
                                and rtlb-batch-shard-v1 JSONL streams
                                (exit 0 iff every file validates)
  rtlb serve [flags]            run the analysis-as-a-service TCP daemon
                                speaking rtlb-rpc-v1 (one JSON request per
                                line: open / delta / analyze / close /
                                stats / shutdown) until a shutdown request
  rtlb help | -h | --help       show this message

exit codes (every subcommand):
  0  success
  1  the run failed: unreadable input, parse or analysis error, untolerated
     batch outcome, scenario oracle divergence, invalid document
  2  usage error: unknown command or flag, missing or invalid argument

analysis flags (accepted by analyze, sweep-scenarios, batch, and serve):
  --jobs=N                   sweep worker threads; 0 = one per core
                             (default: 1, fully serial; for batch see below)
  --chunk=N                  candidate-t1 columns per sweep chunk; 0 sizes
                             chunks off the worker pool (default: 0).
                             Results are identical for every value
  --extended                 denser candidate-point grid (adds the
                             forced-overlap corners E_i+C_i and L_i−C_i)
  --propagation=LEVEL        filtering level: `timeline` (union-find
                             Timeline packing, default) or `filtered` (adds
                             capacity-conditional detectable-precedence /
                             edge-finding filtering after the sweep; bounds
                             only get tighter)

analyze flags (plus the analysis and telemetry flags):
  --metrics=off|text|json    observability sink (default: off).
                             text appends a stage/counter summary after the
                             normal output; json prints only the versioned
                             rtlb-report-v1 JSON document on stdout
  --trace-out=FILE           write a Chrome trace-event JSON file (open in
                             chrome://tracing or https://ui.perfetto.dev);
                             counter increments appear as counter tracks
  --cache=DIR                consult (and fill) the content-addressed result
                             cache in DIR, keyed by the instance's canonical
                             text plus the analysis options; prints only the
                             bounds table, byte-identical whether the bounds
                             came from the cache or a fresh analysis (cache
                             status goes to stderr). Not combinable with
                             --metrics= or --trace-out=

telemetry flags (accepted by analyze, sweep-scenarios, batch, and serve):
  --profile                  print a per-phase wall-time breakdown (EST/LCT
                             fixpoint, partitioning, sweep, propagate, cost
                             bounds) to stderr, aggregated from the metrics
                             registry; with --metrics=json the
                             rtlb-report-v1 document gains a `profile`
                             section
  --metrics-out=FILE         write the aggregated rtlb-metrics-v1 JSON export
                             (counters, gauges, log2-bucket histograms)
                             atomically to FILE
  --prom-out=FILE            write the same snapshot in Prometheus text
                             exposition format atomically to FILE

sweep-scenarios flags (plus the analysis and telemetry flags):
  --check                    re-analyze every scenario from scratch and fail
                             unless the incremental bounds, witnesses, and
                             interval counts are bit-identical (CI oracle)
  --json                     print only a versioned rtlb-scenarios-v1 JSON
                             report on stdout

batch flags (plus the analysis and telemetry flags):
  --jobs=N                   batch worker threads, one instance per job;
                             0 = one per core (default: 0). With more than
                             one worker each instance sweeps serially
  --timeout-ms=N             per-instance analysis deadline in milliseconds;
                             an expired instance reports `timeout` and the
                             rest of the batch continues (default: none)
  --tolerate=LIST            comma-separated outcomes that do not fail the
                             exit code, e.g. --tolerate=infeasible,timeout
                             (outcomes: ok parse-error infeasible overflow
                             timeout panicked; exit 1 if any untolerated)
  --json                     print only a versioned rtlb-batch-v1 JSON
                             report on stdout
  --out=FILE                 write the rtlb-batch-v1 JSON report atomically
                             to FILE (temp file + rename; a kill mid-write
                             never leaves a truncated report)
  --heartbeat=SECS           emit live progress on stderr every SECS seconds
                             (done/total, failure counts, throughput, ETA,
                             stragglers past the p95 completed duration);
                             a final heartbeat is always emitted
  --heartbeat-out=FILE       also append each heartbeat to FILE as one
                             rtlb-heartbeat-v1 JSON line (JSONL)
  --cache=DIR                content-addressed result cache: healthy bounds
                             are served from DIR when the canonical content
                             + options key is already stored (byte-identical
                             to recomputation) and fresh ok results are
                             written back; content-identical instances
                             within one run are deduped either way
  --shards=N                 split the corpus into N deterministic slices
                             (instance i of the sorted discovery order goes
                             to shard i mod N) and run only one of them;
                             needs --shard-out=
  --shard=K                  which slice to run, 0-based (default: 0)
  --shard-out=FILE           stream one rtlb-batch-shard-v1 JSON line into
                             FILE per instance as it finishes; the file is
                             the checkpoint --resume replays
  --resume                   replay FILE's completed rows (tolerating the
                             torn last line a kill leaves) and analyze only
                             the instances that are left; a FILE damaged
                             anywhere else is refused and left as it is

merge-shards flags:
  --json                     print the rtlb-batch-v1 aggregate as JSON
                             instead of the text table
  --out=FILE                 write the aggregate atomically to FILE

serve flags (plus the analysis and telemetry flags; telemetry exports are
written when the daemon stops):
  --addr=HOST:PORT           bind address (default: 127.0.0.1:0; port 0
                             lets the OS pick — the bound address is the
                             first stdout line, for scripts to capture)
  --max-sessions=N           resident session cap; opening past it evicts
                             the least-recently-used session to a parked
                             tier that re-analyzes on next use (default: 8)
  --max-inflight=N           concurrent analysis requests admitted;
                             over-limit requests get a typed `busy` error
                             immediately, never an unbounded queue
                             (default: 4; 0 is a drain mode that refuses
                             every analysis op while control ops work)
  --deadline-ms=N            default per-request deadline for requests
                             that do not carry their own deadline_ms
                             (an expired request reports `timeout`)
  --cache=DIR                consult (and fill) the content-addressed
                             result cache on every `analyze` request; a
                             hit's response is byte-identical to the fresh
                             analysis it replaces

examples:
  rtlb example > f.rtlb
  rtlb analyze f.rtlb
  rtlb analyze f.rtlb --jobs=0 --metrics=text
  rtlb analyze f.rtlb --metrics=json --trace-out=trace.json
  rtlb analyze f.rtlb --metrics=json --profile --metrics-out=metrics.json
  rtlb sweep-scenarios examples/scenarios/sensor_sweep.rtlbs --check --json
  rtlb batch examples/batch --tolerate=infeasible --json
  rtlb batch examples/batch --heartbeat=1 --heartbeat-out=hb.jsonl \\
      --out=report.json --prom-out=metrics.prom
  rtlb batch examples/batch --cache=.rtlb-cache --json
  rtlb batch examples/batch --shards=2 --shard=0 --shard-out=s0.jsonl
  rtlb batch examples/batch --shards=2 --shard=1 --shard-out=s1.jsonl --resume
  rtlb merge-shards s0.jsonl s1.jsonl --out=aggregate.json
  rtlb check-report report.json batch.json metrics.json
  rtlb serve --addr=127.0.0.1:7421 --max-sessions=8 --max-inflight=4 &
  printf '{\"proto\":\"rtlb-rpc-v1\",\"op\":\"stats\"}\\n' | nc 127.0.0.1 7421
";

/// The two non-zero exits of the documented table: usage errors (exit
/// 2: unknown command or flag, missing or invalid argument) and run
/// failures (exit 1: everything that goes wrong after the invocation
/// itself was well-formed).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Failure {
    Usage(String),
    Run(String),
}

/// `?` on a plain-`String` error means a run failure; usage errors are
/// tagged explicitly at the flag-parsing call sites.
impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Run(message)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<ExitCode, Failure> = match args.first().map(String::as_str) {
        Some("analyze") => with_file(&args, 2, cmd_analyze),
        Some("dot") => with_file(&args, 2, cmd_dot),
        Some("example") => cmd_example(&args),
        Some("schedule") => with_file(&args, 3, cmd_schedule),
        Some("sweep-scenarios") => cmd_sweep_scenarios(&args),
        // `batch` owns its success exit code: per-instance failures are
        // report rows plus exit 1, not a driver error.
        Some("batch") => cmd_batch(&args),
        Some("merge-shards") => cmd_merge_shards(&args),
        Some("check-report") => cmd_check_report(&args),
        Some("serve") => cmd_serve(&args),
        Some("help" | "-h" | "--help") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(Failure::Run(message)) => {
            eprintln!("rtlb: {message}");
            ExitCode::FAILURE
        }
        Err(Failure::Usage(message)) => {
            eprintln!("rtlb: {message} (see `rtlb --help`)");
            ExitCode::from(2)
        }
    }
}

fn with_file(
    args: &[String],
    expected: usize,
    run: impl Fn(&rtlb::format::ParsedSystem, &[String]) -> Result<(), Failure>,
) -> Result<ExitCode, Failure> {
    if args.len() < expected {
        return Err(Failure::Usage(format!(
            "`{}` needs a file argument",
            args[0]
        )));
    }
    let input =
        std::fs::read_to_string(&args[1]).map_err(|e| format!("cannot read {}: {e}", args[1]))?;
    let parsed = parse(&input).map_err(|e| format!("{}: {e}", args[1]))?;
    run(&parsed, args)?;
    Ok(ExitCode::SUCCESS)
}

/// Refuses what is left after a subcommand's own arguments: a flag it
/// does not take, or a surplus argument.
fn no_more_args(rest: &[String]) -> Result<(), Failure> {
    match rest.first() {
        None => Ok(()),
        Some(arg) if arg.starts_with("--") => Err(Failure::Usage(format!("unknown flag `{arg}`"))),
        Some(arg) => Err(Failure::Usage(format!("unexpected argument `{arg}`"))),
    }
}

/// Where the run's metrics go.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum MetricsMode {
    /// No recorder attached; the sweep runs through the null probe.
    #[default]
    Off,
    /// Human-readable summary appended after the normal analysis output.
    Text,
    /// Only the versioned JSON run report on stdout.
    Json,
}

/// The registry-backed telemetry flags shared by `analyze`,
/// `sweep-scenarios`, and `batch`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct TelemetryArgs {
    /// Print the per-phase wall-time breakdown to stderr.
    profile: bool,
    /// Write the `rtlb-metrics-v1` JSON export here (atomically).
    metrics_out: Option<String>,
    /// Write the Prometheus text exposition here (atomically).
    prom_out: Option<String>,
}

impl TelemetryArgs {
    /// Whether any registry consumer was requested.
    fn enabled(&self) -> bool {
        self.profile || self.metrics_out.is_some() || self.prom_out.is_some()
    }
}

/// Tries `flag` against the shared telemetry flags; `Ok(true)` means it
/// was consumed.
fn telemetry_flag(args: &mut TelemetryArgs, flag: &str) -> Result<bool, String> {
    if flag == "--profile" {
        args.profile = true;
    } else if let Some(path) = value_flag(flag, "--metrics-out", "a file path")? {
        args.metrics_out = Some(path.to_owned());
    } else if let Some(path) = value_flag(flag, "--prom-out", "a file path")? {
        args.prom_out = Some(path.to_owned());
    } else {
        return Ok(false);
    }
    Ok(true)
}

/// Tries `flag` as `NAME=VALUE` for a flag whose value is a path or an
/// address: `Ok(Some(value))` when it is that flag, an error when the
/// value is empty. Every such flag on every subcommand goes through
/// here, so they all refuse an empty value the same way.
fn value_flag<'a>(flag: &'a str, name: &str, what: &str) -> Result<Option<&'a str>, String> {
    match flag
        .strip_prefix(name)
        .and_then(|rest| rest.strip_prefix('='))
    {
        Some("") => Err(format!("{name} needs {what}")),
        value => Ok(value),
    }
}

/// Writes `doc` pretty-printed plus a newline to `path`, atomically —
/// the one writer behind every `--out=`-style JSON export.
fn write_json(path: &str, doc: &Json) -> Result<(), String> {
    let mut text = doc.pretty();
    text.push('\n');
    write_atomic(std::path::Path::new(path), &text)
}

/// Tries `flag` against the analysis flags shared by `analyze`, `serve`,
/// `sweep-scenarios`, and `batch`; `Ok(true)` means it was consumed.
/// `--jobs=` sets `options.parallelism` (`batch` reads it back as its
/// worker count).
fn analysis_flag(options: &mut AnalysisOptions, flag: &str) -> Result<bool, String> {
    if let Some(jobs) = flag.strip_prefix("--jobs=") {
        options.parallelism = jobs
            .parse()
            .map_err(|_| format!("invalid job count `{jobs}`"))?;
    } else if let Some(columns) = flag.strip_prefix("--chunk=") {
        options.chunk_columns = columns
            .parse()
            .map_err(|_| format!("invalid chunk size `{columns}`"))?;
    } else if flag == "--extended" {
        options.candidates = CandidatePolicy::Extended;
    } else if let Some(level) = flag.strip_prefix("--propagation=") {
        options.propagation = PropagationLevel::parse(level).ok_or_else(|| {
            format!("unknown propagation level `{level}` (expected timeline or filtered)")
        })?;
    } else {
        return Ok(false);
    }
    Ok(true)
}

/// Drains `registry` into its export sinks: the `rtlb-metrics-v1` JSON
/// and Prometheus files (written atomically) and the stderr profile
/// table. Returns the phase breakdown with `telemetry_micros` set to
/// the time this function itself spent — the profiler profiles itself.
fn export_telemetry(
    registry: &MetricsRegistry,
    telemetry: &TelemetryArgs,
    workers: usize,
) -> Result<Option<PhaseProfile>, String> {
    if !telemetry.enabled() {
        return Ok(None);
    }
    registry.gauge_set("pool.workers", workers as i64);
    export_snapshot(&registry.snapshot(), telemetry)
}

/// [`export_telemetry`] for a snapshot that already left its registry —
/// the `serve` path, where the daemon owns the registry and hands back
/// its final snapshot on shutdown.
fn export_snapshot(
    snapshot: &MetricsSnapshot,
    telemetry: &TelemetryArgs,
) -> Result<Option<PhaseProfile>, String> {
    if !telemetry.enabled() {
        return Ok(None);
    }
    let started = Instant::now();
    let mut profile = PhaseProfile::from_snapshot(snapshot);
    if let Some(path) = &telemetry.metrics_out {
        write_json(path, &snapshot.to_json())?;
    }
    if let Some(path) = &telemetry.prom_out {
        write_atomic(std::path::Path::new(path), &prometheus_text(snapshot))?;
    }
    profile.telemetry_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    if telemetry.profile {
        eprint!("{}", profile.render_text());
    }
    Ok(Some(profile))
}

fn cmd_check_report(args: &[String]) -> Result<ExitCode, Failure> {
    if args.len() < 2 {
        return Err(Failure::Usage(
            "`check-report` needs a file argument".to_owned(),
        ));
    }
    for path in &args[1..] {
        if path.starts_with("--") {
            return Err(Failure::Usage(format!(
                "`check-report` takes no flags, got `{path}`"
            )));
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let summary = check_text(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: {summary}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Everything `rtlb analyze` accepts after the file argument.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct AnalyzeArgs {
    options: AnalysisOptions,
    metrics: MetricsMode,
    trace_out: Option<String>,
    telemetry: TelemetryArgs,
    cache: Option<String>,
}

/// Parses `analyze` flags (everything after the file argument).
fn analyze_options(flags: &[String]) -> Result<AnalyzeArgs, String> {
    let mut args = AnalyzeArgs::default();
    for flag in flags {
        if analysis_flag(&mut args.options, flag)? || telemetry_flag(&mut args.telemetry, flag)? {
            // consumed by the shared flags
        } else if let Some(mode) = flag.strip_prefix("--metrics=") {
            args.metrics = match mode {
                "off" => MetricsMode::Off,
                "text" => MetricsMode::Text,
                "json" => MetricsMode::Json,
                other => {
                    return Err(format!(
                        "unknown metrics mode `{other}` (expected off, text, or json)"
                    ))
                }
            };
        } else if let Some(path) = value_flag(flag, "--trace-out", "a file path")? {
            args.trace_out = Some(path.to_owned());
        } else if let Some(dir) = value_flag(flag, "--cache", "a directory path")? {
            args.cache = Some(dir.to_owned());
        } else {
            return Err(format!("unknown flag `{flag}`"));
        }
    }
    if args.cache.is_some() && (args.metrics != MetricsMode::Off || args.trace_out.is_some()) {
        return Err(
            "--cache prints only the bounds table and cannot be combined with \
             --metrics= or --trace-out="
                .to_owned(),
        );
    }
    Ok(args)
}

/// `rtlb analyze --cache=DIR`: the bounds-only, cache-consulting mode.
/// Hit or miss, stdout is exactly the [`render_bounds`] table — a hit
/// re-binds the stored name-keyed bounds to this parse's catalog, a
/// miss runs the pipeline and stores the result back, and the two are
/// byte-identical by construction. Cache status goes to stderr; a
/// store that fails is reported there and does not fail the run.
fn cmd_analyze_cached(
    parsed: &rtlb::format::ParsedSystem,
    dir: &str,
    options: AnalysisOptions,
    telemetry: &TelemetryArgs,
) -> Result<(), Failure> {
    let registry = MetricsRegistry::new();
    let probe: &dyn Probe = if telemetry.enabled() {
        &registry
    } else {
        &NULL_PROBE
    };
    let cache = ResultCache::open(std::path::Path::new(dir))?;
    let (key, bounds, outcome) =
        cache.lookup_or_analyze(parsed, &options.semantic_fingerprint(), probe, || {
            analyze_with_probe(&parsed.graph, &SystemModel::shared(), options, probe)
                .map(|analysis| analysis.bounds().to_vec())
                .map_err(|e| e.to_string())
        })?;
    match outcome {
        CacheOutcome::Hit => eprintln!("rtlb analyze: cache hit {key}"),
        CacheOutcome::Stored => eprintln!("rtlb analyze: cache miss {key}, stored"),
        CacheOutcome::StoreFailed(e) => {
            eprintln!("rtlb analyze: cache miss {key}, not stored: {e}")
        }
    }
    print!("{}", render_bounds(&parsed.graph, &bounds));
    export_telemetry(&registry, telemetry, effective_threads(options.parallelism))?;
    Ok(())
}

fn cmd_analyze(parsed: &rtlb::format::ParsedSystem, args: &[String]) -> Result<(), Failure> {
    let AnalyzeArgs {
        options,
        metrics,
        trace_out,
        telemetry,
        cache,
    } = analyze_options(&args[2..]).map_err(Failure::Usage)?;
    if let Some(dir) = &cache {
        return cmd_analyze_cached(parsed, dir, options, &telemetry);
    }
    let recorder = Recorder::new();
    let registry = MetricsRegistry::new();
    let tee = TeeProbe::new(&recorder, &registry);
    // One probe feeds both sinks; without telemetry flags the recorder
    // runs alone as before.
    let probe: &dyn Probe = if telemetry.enabled() { &tee } else { &recorder };
    let quiet = metrics == MetricsMode::Json;

    let analysis = analyze_with_probe(&parsed.graph, &SystemModel::shared(), options, probe)
        .map_err(|e| e.to_string())?;
    if !quiet {
        print!("{}", render_analysis(&parsed.graph, &analysis));
    }

    let mut shared_total = None;
    if let Some(shared) = &parsed.shared_costs {
        match analysis.shared_cost_probed(shared, probe) {
            Ok(cost) => {
                shared_total = Some(cost.total);
                if !quiet {
                    println!("\n== Step 4: Shared-model cost ==");
                    print!("{}", render_shared_cost(&parsed.graph, &cost));
                }
            }
            Err(e) => {
                if !quiet {
                    println!("\n(shared cost skipped: {e})");
                }
            }
        }
    }
    let mut dedicated_total = None;
    if let Some(model) = &parsed.node_types {
        match analysis.dedicated_cost_probed(&parsed.graph, model, probe) {
            Ok(cost) => {
                dedicated_total = Some(cost.total);
                if !quiet {
                    println!("\n== Step 4: Dedicated-model cost ==");
                    print!("{}", render_dedicated_cost(model, &cost));
                }
            }
            Err(e) => {
                if !quiet {
                    println!("\n(dedicated cost skipped: {e})");
                }
            }
        }
    }

    let profile = export_telemetry(
        &registry,
        &telemetry,
        effective_threads(options.parallelism),
    )?;

    if metrics == MetricsMode::Off && trace_out.is_none() {
        return Ok(());
    }
    let snapshot = recorder.take_metrics();
    if let Some(path) = &trace_out {
        std::fs::write(path, chrome_trace(&snapshot))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if metrics != MetricsMode::Off {
        let mut report = build_run_report(&args[1], &parsed.graph, options, &analysis, &snapshot);
        report.shared_cost = shared_total;
        report.dedicated_cost = dedicated_total;
        report.profile = profile;
        match metrics {
            MetricsMode::Json => println!("{}", report.to_json().pretty()),
            MetricsMode::Text => print!("\n== Metrics ==\n{}", report.render_text()),
            MetricsMode::Off => unreachable!(),
        }
    }
    Ok(())
}

/// Everything `rtlb serve` accepts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct ServeArgs {
    config: ServeConfig,
    telemetry: TelemetryArgs,
}

/// Parses `serve` flags (everything after the subcommand).
fn serve_options(flags: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs::default();
    for flag in flags {
        if analysis_flag(&mut args.config.options, flag)?
            || telemetry_flag(&mut args.telemetry, flag)?
        {
            // consumed by the shared flags
        } else if let Some(addr) = value_flag(flag, "--addr", "a HOST:PORT")? {
            args.config.addr = addr.to_owned();
        } else if let Some(n) = flag.strip_prefix("--max-sessions=") {
            args.config.max_sessions = n
                .parse()
                .map_err(|_| format!("invalid session cap `{n}`"))?;
        } else if let Some(n) = flag.strip_prefix("--max-inflight=") {
            args.config.max_inflight = n
                .parse()
                .map_err(|_| format!("invalid in-flight cap `{n}`"))?;
        } else if let Some(ms) = flag.strip_prefix("--deadline-ms=") {
            args.config.default_deadline_ms =
                Some(ms.parse().map_err(|_| format!("invalid deadline `{ms}`"))?);
        } else if let Some(dir) = value_flag(flag, "--cache", "a directory path")? {
            args.config.cache_dir = Some(dir.into());
        } else {
            return Err(format!("unknown flag `{flag}`"));
        }
    }
    Ok(args)
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, Failure> {
    let ServeArgs { config, telemetry } = serve_options(&args[1..]).map_err(Failure::Usage)?;
    let server = rtlb::serve::serve(config)?;
    // The first stdout line is the contract for scripts: with --addr
    // port 0 this is the only way to learn the bound port.
    println!("rtlb serve: listening on {} ({RPC_SCHEMA})", server.addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot flush stdout: {e}"))?;
    let mut snapshot = server.wait();
    snapshot.normalize();
    export_snapshot(&snapshot, &telemetry)?;
    println!("rtlb serve: stopped");
    Ok(ExitCode::SUCCESS)
}

/// Everything `rtlb sweep-scenarios` accepts after the file argument.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct ScenarioArgs {
    options: AnalysisOptions,
    check: bool,
    json: bool,
    telemetry: TelemetryArgs,
}

/// Parses `sweep-scenarios` flags (everything after the file argument).
fn scenario_options(flags: &[String]) -> Result<ScenarioArgs, String> {
    let mut args = ScenarioArgs::default();
    for flag in flags {
        if analysis_flag(&mut args.options, flag)? || telemetry_flag(&mut args.telemetry, flag)? {
            // consumed by the shared flags
        } else if flag == "--check" {
            args.check = true;
        } else if flag == "--json" {
            args.json = true;
        } else {
            return Err(format!("unknown flag `{flag}`"));
        }
    }
    Ok(args)
}

fn cmd_sweep_scenarios(args: &[String]) -> Result<ExitCode, Failure> {
    if args.len() < 2 {
        return Err(Failure::Usage(
            "`sweep-scenarios` needs a scenario file argument".to_owned(),
        ));
    }
    let path = &args[1];
    let opts = scenario_options(&args[2..]).map_err(Failure::Usage)?;
    let input = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let file = parse_scenarios(&input).map_err(|e| format!("{path}: {e}"))?;

    // The base path is relative to the scenario file's directory.
    let base_path = std::path::Path::new(path)
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."))
        .join(&file.base);
    let base_input = std::fs::read_to_string(&base_path)
        .map_err(|e| format!("cannot read base {}: {e}", base_path.display()))?;
    let parsed = parse(&base_input).map_err(|e| format!("{}: {e}", base_path.display()))?;

    let model = SystemModel::shared();
    let mut session = AnalysisSession::new(parsed.graph, model.clone(), opts.options)
        .map_err(|e| format!("base instance: {e}"))?;

    if !opts.json {
        println!("base `{}`: {} scenario(s)", file.base, file.scenarios.len());
        println!(
            "{:<24} {:>10} {:>10} {:>8} {:>8}  bounds",
            "scenario", "recomputed", "resweeped", "reused", "micros"
        );
    }
    // One registry aggregates across every scenario; each scenario
    // still gets its own recorder for the per-apply timing column.
    let registry = MetricsRegistry::new();
    let mut rows: Vec<Json> = Vec::new();
    for scenario in &file.scenarios {
        let deltas =
            resolve(scenario, session.graph()).map_err(|e| format!("scenario file: {e}"))?;
        let recorder = Recorder::new();
        let tee = TeeProbe::new(&recorder, &registry);
        let probe: &dyn Probe = if opts.telemetry.enabled() {
            &tee
        } else {
            &recorder
        };
        let outcome = session.apply_ctl(&deltas, probe, &CancelToken::none());
        let metrics = recorder.take_metrics();
        let micros = metrics.total_micros("session.apply");
        match outcome {
            Ok(stats) => {
                if opts.check {
                    let scratch = analyze_with(session.graph(), &model, opts.options)
                        .map_err(|e| format!("scenario `{}`: oracle failed: {e}", scenario.name))?;
                    if scratch.bounds() != session.bounds() || scratch.timing() != session.timing()
                    {
                        return Err(Failure::Run(format!(
                            "scenario `{}`: incremental result diverged from the \
                             from-scratch oracle",
                            scenario.name
                        )));
                    }
                }
                let bounds: Vec<Json> = session
                    .bounds()
                    .iter()
                    .map(|b| {
                        Json::obj([
                            (
                                "resource",
                                Json::str(session.graph().catalog().name(b.resource)),
                            ),
                            ("lb", Json::Int(i64::from(b.bound))),
                            ("intervals_examined", Json::Int(b.intervals_examined as i64)),
                        ])
                    })
                    .collect();
                if !opts.json {
                    let summary: Vec<String> = session
                        .bounds()
                        .iter()
                        .map(|b| {
                            format!("{}={}", session.graph().catalog().name(b.resource), b.bound)
                        })
                        .collect();
                    println!(
                        "{:<24} {:>10} {:>10} {:>8} {:>8}  {}",
                        scenario.name,
                        stats.tasks_recomputed(),
                        stats.blocks_resweeped,
                        stats.blocks_reused,
                        micros,
                        summary.join(" ")
                    );
                }
                rows.push(Json::obj([
                    ("name", Json::str(scenario.name.as_str())),
                    ("deltas", Json::Int(deltas.len() as i64)),
                    (
                        "tasks_recomputed",
                        Json::Int(stats.tasks_recomputed() as i64),
                    ),
                    ("blocks_resweeped", Json::Int(stats.blocks_resweeped as i64)),
                    ("blocks_reused", Json::Int(stats.blocks_reused as i64)),
                    ("resources_dirty", Json::Int(stats.resources_dirty as i64)),
                    ("apply_micros", Json::Int(micros as i64)),
                    ("bounds", Json::Arr(bounds)),
                ]));
            }
            Err(e) => {
                // An infeasible or unhostable scenario is reported, not
                // fatal: the session keeps the dirt and the next apply
                // recovers.
                if opts.check {
                    let scratch = analyze_with(session.graph(), &model, opts.options);
                    if scratch.is_ok() {
                        return Err(Failure::Run(format!(
                            "scenario `{}`: session rejected ({e}) what the \
                             from-scratch oracle accepts",
                            scenario.name
                        )));
                    }
                }
                if !opts.json {
                    println!("{:<24} error: {e}", scenario.name);
                }
                rows.push(Json::obj([
                    ("name", Json::str(scenario.name.as_str())),
                    ("deltas", Json::Int(deltas.len() as i64)),
                    ("error", Json::str(e.to_string())),
                ]));
            }
        }
    }
    export_telemetry(
        &registry,
        &opts.telemetry,
        effective_threads(opts.options.parallelism),
    )?;
    if opts.json {
        let doc = Json::obj([
            ("schema", Json::str("rtlb-scenarios-v1")),
            ("file", Json::str(path.as_str())),
            ("base", Json::str(file.base.as_str())),
            ("checked", Json::Bool(opts.check)),
            ("scenarios", Json::Arr(rows)),
        ]);
        println!("{}", doc.pretty());
    }
    Ok(ExitCode::SUCCESS)
}

/// Everything `rtlb batch` accepts after the target argument.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct BatchArgs {
    options: BatchOptions,
    json: bool,
    out: Option<String>,
    telemetry: TelemetryArgs,
    /// `--shards=` / `--shard=` / `--shard-out=` / `--resume`: any of
    /// them switches the run into sharded streaming mode.
    shards: Option<usize>,
    shard: Option<usize>,
    shard_out: Option<String>,
    resume: bool,
}

/// Parses `batch` flags (everything after the directory/manifest).
fn batch_options(flags: &[String]) -> Result<BatchArgs, String> {
    let mut args = BatchArgs::default();
    // `--jobs=` is the batch worker count: the shared parser writes it
    // to this copy's pool knob, moved over once every flag is read.
    let mut analysis = AnalysisOptions {
        parallelism: args.options.jobs,
        ..args.options.analysis
    };
    for flag in flags {
        if analysis_flag(&mut analysis, flag)? || telemetry_flag(&mut args.telemetry, flag)? {
            // consumed by the shared flags
        } else if let Some(ms) = flag.strip_prefix("--timeout-ms=") {
            args.options.timeout_ms =
                Some(ms.parse().map_err(|_| format!("invalid timeout `{ms}`"))?);
        } else if let Some(list) = flag.strip_prefix("--tolerate=") {
            for label in list.split(',').filter(|l| !l.is_empty()) {
                let kind = OutcomeKind::from_label(label).ok_or_else(|| {
                    format!(
                        "unknown outcome `{label}` in --tolerate (expected ok, \
                         parse-error, infeasible, overflow, timeout, or panicked)"
                    )
                })?;
                args.options.tolerate.push(kind);
            }
        } else if flag == "--json" {
            args.json = true;
        } else if let Some(path) = value_flag(flag, "--out", "a file path")? {
            args.out = Some(path.to_owned());
        } else if let Some(secs) = flag.strip_prefix("--heartbeat=") {
            let interval_secs = secs
                .parse()
                .map_err(|_| format!("invalid heartbeat interval `{secs}`"))?;
            args.options
                .heartbeat
                .get_or_insert_with(HeartbeatOptions::default)
                .interval_secs = interval_secs;
        } else if let Some(path) = value_flag(flag, "--heartbeat-out", "a file path")? {
            args.options
                .heartbeat
                .get_or_insert_with(HeartbeatOptions::default)
                .out = Some(path.into());
        } else if let Some(dir) = value_flag(flag, "--cache", "a directory path")? {
            args.options.cache = Some(dir.into());
        } else if let Some(n) = flag.strip_prefix("--shards=") {
            args.shards = Some(
                n.parse()
                    .map_err(|_| format!("invalid shard count `{n}`"))?,
            );
        } else if let Some(k) = flag.strip_prefix("--shard=") {
            args.shard = Some(
                k.parse()
                    .map_err(|_| format!("invalid shard index `{k}`"))?,
            );
        } else if let Some(path) = value_flag(flag, "--shard-out", "a file path")? {
            args.shard_out = Some(path.to_owned());
        } else if flag == "--resume" {
            args.resume = true;
        } else {
            return Err(format!("unknown flag `{flag}`"));
        }
    }
    args.options.jobs = analysis.parallelism;
    args.options.analysis = AnalysisOptions {
        parallelism: args.options.analysis.parallelism,
        ..analysis
    };
    if args.shard_out.is_none() && (args.shards.is_some() || args.shard.is_some() || args.resume) {
        return Err("--shards/--shard/--resume need --shard-out=FILE (the stream file)".to_owned());
    }
    ShardOptions::check_split(args.shards.unwrap_or(1), args.shard.unwrap_or(0))?;
    Ok(args)
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, Failure> {
    if args.len() < 2 {
        return Err(Failure::Usage(
            "`batch` needs a directory or manifest argument".to_owned(),
        ));
    }
    let BatchArgs {
        options,
        json,
        out,
        telemetry,
        shards,
        shard,
        shard_out,
        resume,
    } = batch_options(&args[2..]).map_err(Failure::Usage)?;
    let registry = MetricsRegistry::new();
    let probe: &dyn Probe = if telemetry.enabled() {
        &registry
    } else {
        &NULL_PROBE
    };
    let jobs = options.jobs;
    let tolerate = options.tolerate.clone();
    let report = match shard_out {
        // Sharded streaming mode: run one deterministic slice of the
        // corpus, checkpointing each instance into the stream file. The
        // printed report covers this shard's assignment only; the
        // cross-shard aggregate comes from `rtlb merge-shards`.
        Some(stream) => {
            let shard_options = ShardOptions {
                batch: options,
                shards: shards.unwrap_or(1),
                shard: shard.unwrap_or(0),
                out: stream.clone().into(),
                resume,
            };
            let summary = run_shard_probed(std::path::Path::new(&args[1]), &shard_options, probe)?;
            eprintln!(
                "batch shard {}/{}: {} assigned, {} resumed, stream {stream}",
                shard_options.shard, shard_options.shards, summary.assigned, summary.resumed
            );
            summary.report
        }
        None => run_batch_probed(std::path::Path::new(&args[1]), &options, probe)?,
    };
    export_telemetry(&registry, &telemetry, effective_threads(jobs))?;
    if let Some(path) = &out {
        write_json(path, &report.to_json())?;
    }
    if json {
        println!("{}", report.to_json().pretty());
    } else {
        print!("{}", report.render_text());
    }
    Ok(if report.violations(&tolerate) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Everything `rtlb merge-shards` accepts: shard stream files plus the
/// output flags.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct MergeArgs {
    files: Vec<std::path::PathBuf>,
    json: bool,
    out: Option<String>,
}

/// Parses `merge-shards` arguments (files and flags in any order).
fn merge_options(args: &[String]) -> Result<MergeArgs, String> {
    let mut parsed = MergeArgs::default();
    for arg in args {
        if arg == "--json" {
            parsed.json = true;
        } else if let Some(path) = value_flag(arg, "--out", "a file path")? {
            parsed.out = Some(path.to_owned());
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            parsed.files.push(std::path::PathBuf::from(arg));
        }
    }
    if parsed.files.is_empty() {
        return Err("`merge-shards` needs at least one shard file".to_owned());
    }
    Ok(parsed)
}

fn cmd_merge_shards(args: &[String]) -> Result<ExitCode, Failure> {
    let parsed = merge_options(&args[1..]).map_err(Failure::Usage)?;
    let report = merge_shards(&parsed.files)?;
    if let Some(path) = &parsed.out {
        write_json(path, &report.to_json())?;
    }
    if parsed.json {
        println!("{}", report.to_json().pretty());
    } else {
        print!("{}", report.render_text());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_dot(parsed: &rtlb::format::ParsedSystem, args: &[String]) -> Result<(), Failure> {
    no_more_args(&args[2..])?;
    print!("{}", to_dot(&parsed.graph));
    Ok(())
}

fn cmd_example(args: &[String]) -> Result<ExitCode, Failure> {
    no_more_args(&args[1..])?;
    let ex = paper_example();
    let shared = ex.shared_costs([30, 45, 20]);
    let model = ex.node_types([45, 30, 45]);
    print!("{}", render(&ex.graph, Some(&shared), Some(&model)));
    Ok(ExitCode::SUCCESS)
}

fn cmd_schedule(parsed: &rtlb::format::ParsedSystem, args: &[String]) -> Result<(), Failure> {
    let units: u32 = args[2]
        .parse()
        .map_err(|_| Failure::Usage(format!("invalid unit count `{}`", args[2])))?;
    no_more_args(&args[3..])?;
    let caps = Capacities::uniform(&parsed.graph, units);
    match list_schedule(&parsed.graph, &caps) {
        Ok(schedule) => {
            let violations = validate_schedule(&parsed.graph, &caps, &schedule);
            if !violations.is_empty() {
                return Err(Failure::Run(format!(
                    "internal error: invalid schedule: {violations:?}"
                )));
            }
            println!("feasible with {units} unit(s) of every demanded resource:");
            for p in schedule.placements() {
                let task = parsed.graph.task(p.task);
                let span = match (p.slices.first(), p.slices.last()) {
                    (Some(first), Some(last)) => {
                        format!("[{}, {})", first.start, last.end)
                    }
                    _ => "(zero-length)".to_owned(),
                };
                println!(
                    "  {:<16} unit {} of {:<6} {}",
                    task.name(),
                    p.unit,
                    parsed.graph.catalog().name(task.processor()),
                    span
                );
            }
            Ok(())
        }
        Err(e) => Err(Failure::Run(format!(
            "the greedy scheduler found no schedule at {units} unit(s): {e} \
             (the instance may still be feasible for a smarter scheduler)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn no_flags_gives_defaults() {
        let args = analyze_options(&[]).unwrap();
        assert_eq!(args.options, AnalysisOptions::default());
        assert_eq!(args.metrics, MetricsMode::Off);
        assert_eq!(args.trace_out, None);
    }

    #[test]
    fn all_flags_parse_together() {
        let args = analyze_options(&flags(&[
            "--jobs=4",
            "--chunk=32",
            "--extended",
            "--propagation=filtered",
            "--metrics=json",
            "--trace-out=t.json",
            "--profile",
            "--metrics-out=m.json",
            "--prom-out=m.prom",
        ]))
        .unwrap();
        assert_eq!(args.options.parallelism, 4);
        assert_eq!(args.options.chunk_columns, 32);
        assert_eq!(args.options.candidates, CandidatePolicy::Extended);
        assert_eq!(args.options.propagation, PropagationLevel::Filtered);
        assert_eq!(args.metrics, MetricsMode::Json);
        assert_eq!(args.trace_out.as_deref(), Some("t.json"));
        assert!(args.telemetry.profile);
        assert_eq!(args.telemetry.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(args.telemetry.prom_out.as_deref(), Some("m.prom"));
        assert!(args.telemetry.enabled());
    }

    #[test]
    fn telemetry_defaults_off_and_rejects_empty_paths() {
        let args = analyze_options(&[]).unwrap();
        assert!(!args.telemetry.enabled());
        let err = analyze_options(&flags(&["--metrics-out="])).unwrap_err();
        assert!(err.contains("--metrics-out"), "{err}");
        let err = scenario_options(&flags(&["--prom-out="])).unwrap_err();
        assert!(err.contains("--prom-out"), "{err}");
        // The shared flags parse identically on all three subcommands.
        assert!(
            scenario_options(&flags(&["--profile"]))
                .unwrap()
                .telemetry
                .profile
        );
        assert!(
            batch_options(&flags(&["--profile"]))
                .unwrap()
                .telemetry
                .profile
        );
        assert_eq!(
            batch_options(&flags(&["--metrics-out=x.json"]))
                .unwrap()
                .telemetry
                .metrics_out
                .as_deref(),
            Some("x.json")
        );
    }

    #[test]
    fn metrics_modes_parse() {
        for (raw, mode) in [
            ("--metrics=off", MetricsMode::Off),
            ("--metrics=text", MetricsMode::Text),
            ("--metrics=json", MetricsMode::Json),
        ] {
            assert_eq!(analyze_options(&flags(&[raw])).unwrap().metrics, mode);
        }
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = analyze_options(&flags(&["--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn bad_job_count_is_rejected() {
        let err = analyze_options(&flags(&["--jobs=many"])).unwrap_err();
        assert!(err.contains("invalid job count"), "{err}");
        let err = analyze_options(&flags(&["--jobs=-1"])).unwrap_err();
        assert!(err.contains("invalid job count"), "{err}");
    }

    #[test]
    fn bad_chunk_size_is_rejected() {
        let err = analyze_options(&flags(&["--chunk=wide"])).unwrap_err();
        assert!(err.contains("invalid chunk size"), "{err}");
        let err = scenario_options(&flags(&["--chunk=-3"])).unwrap_err();
        assert!(err.contains("invalid chunk size"), "{err}");
    }

    #[test]
    fn bad_metrics_mode_is_rejected() {
        let err = analyze_options(&flags(&["--metrics=xml"])).unwrap_err();
        assert!(err.contains("unknown metrics mode"), "{err}");
    }

    /// The sweep strategy and the partition are not options: every
    /// `--sweep=` value and `--no-partition` are unknown flags on every
    /// analyzing subcommand.
    #[test]
    fn bad_sweep_strategy_is_rejected() {
        for flag in [
            "--sweep=quadratic",
            "--sweep=naive",
            "--sweep=incremental",
            "--no-partition",
        ] {
            for err in [
                analyze_options(&flags(&[flag])).unwrap_err(),
                scenario_options(&flags(&[flag])).unwrap_err(),
                batch_options(&flags(&[flag])).unwrap_err(),
                serve_options(&flags(&[flag])).unwrap_err(),
            ] {
                assert!(err.contains("unknown flag"), "{flag}: {err}");
            }
        }
    }

    #[test]
    fn propagation_levels_parse_on_every_subcommand() {
        for (raw, level) in [
            ("--propagation=timeline", PropagationLevel::Timeline),
            ("--propagation=filtered", PropagationLevel::Filtered),
        ] {
            assert_eq!(
                analyze_options(&flags(&[raw])).unwrap().options.propagation,
                level
            );
            assert_eq!(
                scenario_options(&flags(&[raw]))
                    .unwrap()
                    .options
                    .propagation,
                level
            );
            assert_eq!(
                batch_options(&flags(&[raw]))
                    .unwrap()
                    .options
                    .analysis
                    .propagation,
                level
            );
            assert_eq!(
                serve_options(&flags(&[raw]))
                    .unwrap()
                    .config
                    .options
                    .propagation,
                level
            );
        }
        // The default level is the Timeline packing without filtering.
        assert_eq!(
            analyze_options(&[]).unwrap().options.propagation,
            PropagationLevel::Timeline
        );
    }

    #[test]
    fn bad_propagation_level_is_rejected() {
        let err = analyze_options(&flags(&["--propagation=psychic"])).unwrap_err();
        assert!(err.contains("unknown propagation level"), "{err}");
        let err = batch_options(&flags(&["--propagation="])).unwrap_err();
        assert!(err.contains("unknown propagation level"), "{err}");
        // Paper packing is a test oracle, not a level.
        let err = serve_options(&flags(&["--propagation=paper"])).unwrap_err();
        assert!(err.contains("unknown propagation level"), "{err}");
    }

    #[test]
    fn empty_trace_path_is_rejected() {
        let err = analyze_options(&flags(&["--trace-out="])).unwrap_err();
        assert!(err.contains("--trace-out"), "{err}");
    }

    #[test]
    fn usage_mentions_every_analyze_flag() {
        for flag in [
            "--jobs=",
            "--chunk=",
            "--extended",
            "--propagation=",
            "--metrics=",
            "--trace-out=",
        ] {
            assert!(USAGE.contains(flag), "usage is missing {flag}");
        }
        for gone in ["--sweep=", "--no-partition", "check-metrics"] {
            assert!(!USAGE.contains(gone), "usage still mentions {gone}");
        }
    }

    #[test]
    fn usage_mentions_scenario_sweeps() {
        for needle in ["sweep-scenarios", "--check", "--json"] {
            assert!(USAGE.contains(needle), "usage is missing {needle}");
        }
    }

    #[test]
    fn scenario_flags_parse_together() {
        let args = scenario_options(&flags(&[
            "--jobs=2",
            "--chunk=5",
            "--extended",
            "--propagation=filtered",
            "--check",
            "--json",
        ]))
        .unwrap();
        assert_eq!(args.options.parallelism, 2);
        assert_eq!(args.options.chunk_columns, 5);
        assert_eq!(args.options.candidates, CandidatePolicy::Extended);
        assert_eq!(args.options.propagation, PropagationLevel::Filtered);
        assert!(args.check);
        assert!(args.json);
    }

    #[test]
    fn batch_flags_parse_together() {
        let args = batch_options(&flags(&[
            "--jobs=8",
            "--chunk=3",
            "--extended",
            "--propagation=filtered",
            "--timeout-ms=250",
            "--tolerate=infeasible,timeout",
            "--json",
            "--out=report.json",
            "--heartbeat=2",
            "--heartbeat-out=hb.jsonl",
            "--cache=.cache",
        ]))
        .unwrap();
        assert_eq!(
            args.options.cache.as_deref(),
            Some(std::path::Path::new(".cache"))
        );
        assert_eq!(args.options.analysis.candidates, CandidatePolicy::Extended);
        assert_eq!(args.options.analysis.chunk_columns, 3);
        assert_eq!(
            args.options.analysis.propagation,
            PropagationLevel::Filtered
        );
        // --jobs= is the worker count; each instance keeps its serial
        // default pool.
        assert_eq!(args.options.jobs, 8);
        assert_eq!(args.options.analysis.parallelism, 1);
        assert_eq!(args.options.timeout_ms, Some(250));
        assert_eq!(
            args.options.tolerate,
            vec![OutcomeKind::Infeasible, OutcomeKind::Timeout]
        );
        assert!(args.json);
        assert_eq!(args.out.as_deref(), Some("report.json"));
        let hb = args.options.heartbeat.as_ref().unwrap();
        assert_eq!(hb.interval_secs, 2);
        assert_eq!(hb.out.as_deref(), Some(std::path::Path::new("hb.jsonl")));
    }

    #[test]
    fn heartbeat_flags_combine_in_any_order() {
        // --heartbeat-out alone still arms the (final) heartbeat.
        let args = batch_options(&flags(&["--heartbeat-out=hb.jsonl"])).unwrap();
        let hb = args.options.heartbeat.as_ref().unwrap();
        assert_eq!(hb.interval_secs, 0);
        assert!(hb.out.is_some());
        let args = batch_options(&flags(&["--heartbeat-out=hb.jsonl", "--heartbeat=3"])).unwrap();
        let hb = args.options.heartbeat.as_ref().unwrap();
        assert_eq!(hb.interval_secs, 3);
        assert!(hb.out.is_some());
        let err = batch_options(&flags(&["--heartbeat=soon"])).unwrap_err();
        assert!(err.contains("invalid heartbeat interval"), "{err}");
        let err = batch_options(&flags(&["--heartbeat-out="])).unwrap_err();
        assert!(err.contains("--heartbeat-out"), "{err}");
        let err = batch_options(&flags(&["--out="])).unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn batch_flags_default_off() {
        let args = batch_options(&[]).unwrap();
        assert_eq!(args.options, BatchOptions::default());
        assert!(!args.json);
        assert_eq!(args.shards, None);
        assert_eq!(args.shard, None);
        assert_eq!(args.shard_out, None);
        assert!(!args.resume);
    }

    #[test]
    fn shard_flags_parse_and_require_the_stream_file() {
        let args = batch_options(&flags(&[
            "--shards=4",
            "--shard=2",
            "--shard-out=s2.jsonl",
            "--resume",
        ]))
        .unwrap();
        assert_eq!(args.shards, Some(4));
        assert_eq!(args.shard, Some(2));
        assert_eq!(args.shard_out.as_deref(), Some("s2.jsonl"));
        assert!(args.resume);
        // --shard-out alone is a one-shard streaming run.
        let args = batch_options(&flags(&["--shard-out=s.jsonl"])).unwrap();
        assert_eq!(args.shards, None);
        assert!(args.shard_out.is_some());
        for bad in ["--shards=2", "--shard=0", "--resume"] {
            let err = batch_options(&flags(&[bad])).unwrap_err();
            assert!(err.contains("--shard-out"), "{bad}: {err}");
        }
        let err = batch_options(&flags(&["--shards=0", "--shard-out=s.jsonl"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = batch_options(&flags(&["--shards=few", "--shard-out=s.jsonl"])).unwrap_err();
        assert!(err.contains("invalid shard count"), "{err}");
        let err = batch_options(&flags(&["--shard=k", "--shard-out=s.jsonl"])).unwrap_err();
        assert!(err.contains("invalid shard index"), "{err}");
        let err = batch_options(&flags(&["--shard-out="])).unwrap_err();
        assert!(err.contains("--shard-out"), "{err}");
        let err = batch_options(&flags(&["--cache="])).unwrap_err();
        assert!(err.contains("--cache"), "{err}");
    }

    #[test]
    fn analyze_cache_flag_is_bounds_only() {
        let args = analyze_options(&flags(&["--cache=.cache", "--jobs=2"])).unwrap();
        assert_eq!(args.cache.as_deref(), Some(".cache"));
        assert_eq!(args.options.parallelism, 2);
        let err = analyze_options(&flags(&["--cache="])).unwrap_err();
        assert!(err.contains("--cache"), "{err}");
        for conflicting in ["--metrics=json", "--metrics=text", "--trace-out=t.json"] {
            let err = analyze_options(&flags(&["--cache=.cache", conflicting])).unwrap_err();
            assert!(err.contains("--cache"), "{conflicting}: {err}");
        }
    }

    #[test]
    fn merge_options_take_files_and_flags_in_any_order() {
        let args = merge_options(&flags(&[
            "s0.jsonl",
            "--json",
            "s1.jsonl",
            "--out=aggregate.json",
        ]))
        .unwrap();
        assert_eq!(
            args.files,
            vec![
                std::path::PathBuf::from("s0.jsonl"),
                std::path::PathBuf::from("s1.jsonl")
            ]
        );
        assert!(args.json);
        assert_eq!(args.out.as_deref(), Some("aggregate.json"));
        let err = merge_options(&[]).unwrap_err();
        assert!(err.contains("at least one"), "{err}");
        let err = merge_options(&flags(&["s0.jsonl", "--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        let err = merge_options(&flags(&["s0.jsonl", "--out="])).unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn batch_rejects_bad_tolerate_and_timeout() {
        let err = batch_options(&flags(&["--tolerate=exploded"])).unwrap_err();
        assert!(err.contains("unknown outcome"), "{err}");
        let err = batch_options(&flags(&["--timeout-ms=soon"])).unwrap_err();
        assert!(err.contains("invalid timeout"), "{err}");
        let err = batch_options(&flags(&["--metrics=text"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn usage_mentions_every_batch_flag() {
        for needle in [
            "rtlb batch",
            "--timeout-ms=",
            "--tolerate=",
            "rtlb-batch-v1",
            "--out=",
            "--heartbeat=",
            "--heartbeat-out=",
        ] {
            assert!(USAGE.contains(needle), "usage is missing {needle}");
        }
    }

    #[test]
    fn usage_mentions_the_cache_and_shard_surface() {
        for needle in [
            "--cache=",
            "--shards=",
            "--shard=",
            "--shard-out=",
            "--resume",
            "rtlb merge-shards",
            "rtlb-batch-shard-v1",
            "rtlb-cache-v1",
        ] {
            assert!(USAGE.contains(needle), "usage is missing {needle}");
        }
    }

    #[test]
    fn serve_cache_flag_sets_the_cache_dir() {
        let args = serve_options(&flags(&["--cache=.rtlb-cache"])).unwrap();
        assert_eq!(
            args.config.cache_dir.as_deref(),
            Some(std::path::Path::new(".rtlb-cache"))
        );
        let err = serve_options(&flags(&["--cache="])).unwrap_err();
        assert!(err.contains("--cache"), "{err}");
    }

    #[test]
    fn usage_mentions_the_telemetry_surface() {
        for needle in [
            "--profile",
            "--metrics-out=",
            "--prom-out=",
            "rtlb-metrics-v1",
            "rtlb-heartbeat-v1",
        ] {
            assert!(USAGE.contains(needle), "usage is missing {needle}");
        }
    }

    #[test]
    fn serve_flags_parse_together() {
        let args = serve_options(&flags(&[
            "--addr=0.0.0.0:7421",
            "--max-sessions=3",
            "--max-inflight=9",
            "--deadline-ms=250",
            "--jobs=2",
            "--chunk=7",
            "--extended",
            "--propagation=filtered",
            "--metrics-out=m.json",
        ]))
        .unwrap();
        assert_eq!(args.config.addr, "0.0.0.0:7421");
        assert_eq!(args.config.max_sessions, 3);
        assert_eq!(args.config.max_inflight, 9);
        assert_eq!(args.config.default_deadline_ms, Some(250));
        assert_eq!(args.config.options.parallelism, 2);
        assert_eq!(args.config.options.chunk_columns, 7);
        assert_eq!(args.config.options.candidates, CandidatePolicy::Extended);
        assert_eq!(args.config.options.propagation, PropagationLevel::Filtered);
        assert_eq!(args.telemetry.metrics_out.as_deref(), Some("m.json"));
    }

    #[test]
    fn serve_flags_default_to_serve_config_defaults() {
        let args = serve_options(&[]).unwrap();
        assert_eq!(args.config, ServeConfig::default());
        assert!(!args.telemetry.enabled());
        for bad in [
            "--addr=",
            "--max-sessions=lots",
            "--max-inflight=-1",
            "--deadline-ms=soon",
            "--bogus",
        ] {
            assert!(serve_options(&flags(&[bad])).is_err(), "{bad}");
        }
    }

    #[test]
    fn usage_mentions_the_serve_surface() {
        for needle in [
            "rtlb serve",
            "rtlb check-report",
            "rtlb-rpc-v1",
            "--addr=",
            "--max-sessions=",
            "--max-inflight=",
            "--deadline-ms=",
        ] {
            assert!(USAGE.contains(needle), "usage is missing {needle}");
        }
        for gone in [
            "rtlb bench-serve",
            "--clients=",
            "--requests=",
            "--workload=",
            "rtlb-bench-v1",
        ] {
            assert!(!USAGE.contains(gone), "usage still mentions {gone}");
        }
    }

    #[test]
    fn usage_documents_the_exit_code_table() {
        for needle in ["exit codes", "usage error"] {
            assert!(USAGE.contains(needle), "usage is missing {needle}");
        }
    }

    #[test]
    fn string_errors_default_to_run_failures() {
        let failure: Failure = "disk on fire".to_owned().into();
        assert_eq!(failure, Failure::Run("disk on fire".to_owned()));
    }

    #[test]
    fn scenario_flags_default_off() {
        let args = scenario_options(&[]).unwrap();
        assert_eq!(args.options, AnalysisOptions::default());
        assert!(!args.check);
        assert!(!args.json);
        let err = scenario_options(&flags(&["--metrics=text"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }
}
