//! `rtlb` — command-line front end for the lower-bound analysis.
//!
//! Run `rtlb --help` for every subcommand, flag and exit code.
//!
//! The text format is documented in `rtlb::format::instance`;
//! `rtlb example > f.rtlb` followed by `rtlb analyze f.rtlb` reproduces
//! the paper's numbers.
//!
//! Two tables declare the command line: [`COMMANDS`], one row per
//! subcommand, and [`FLAGS`], one row per flag. [`parse_args`] checks a
//! whole invocation against them before any command reads a file, and
//! [`render_help`] renders `rtlb --help` from them.

// Every command writes stdout through one locked handle and returns its
// write errors, so a closed stdout is a run failure, not a panic.
#![warn(clippy::print_stdout)]

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use rtlb::batch::{
    run_batch_probed, write_atomic, BatchOptions, BatchReport, HeartbeatOptions, OutcomeKind,
};
use rtlb::cache::{CacheOutcome, ResultCache};
use rtlb::check::check_text;
use rtlb::core::{
    analyze_with, analyze_with_probe, build_run_report, effective_threads, render_analysis,
    render_bounds, render_dedicated_cost, render_shared_cost, AnalysisOptions, AnalysisSession,
    CancelToken, CandidatePolicy, PropagationLevel, SystemModel,
};
use rtlb::format::{content_key, parse, parse_scenarios, render, resolve, ParsedSystem};
use rtlb::graph::to_dot;
use rtlb::obs::{
    chrome_trace, prometheus_text, Json, MetricsRegistry, MetricsSnapshot, PhaseProfile, Probe,
    Recorder, TeeProbe, NULL_PROBE,
};
use rtlb::sched::{list_schedule, validate_schedule, Capacities};
use rtlb::serve::{ServeConfig, RPC_SCHEMA};
use rtlb::shard::{merge_shards, run_shard_probed, ShardOptions};
use rtlb::workloads::paper_example;

/// One subcommand.
struct Command {
    name: &'static str,
    /// Placeholders of the positional arguments, in order; a last one
    /// ending in `...` takes one or more.
    args: &'static [&'static str],
    run: fn(&Invocation, &mut dyn Write) -> Result<ExitCode, Failure>,
    summary: &'static str,
}

/// One flag: `--name` for a switch, `--name=VALUE` otherwise.
struct Flag {
    name: &'static str,
    /// The value's placeholder in the help; `None` for a switch.
    value: Option<&'static str>,
    /// The subcommands that accept the flag.
    commands: &'static [&'static str],
    /// Stores the value (empty for a switch) into the invocation.
    set: fn(&mut Invocation, &str) -> Result<(), String>,
    help: &'static str,
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "analyze", args: &["<file>"], run: cmd_analyze,
              summary: "run the four-step analysis on a text-format instance and print windows, \
                        partitions, bounds, and cost bounds" },
    Command { name: "dot", args: &["<file>"], run: cmd_dot,
              summary: "emit Graphviz DOT for the instance" },
    Command { name: "example", args: &[], run: cmd_example,
              summary: "print the paper's 15-task example instance" },
    Command { name: "schedule", args: &["<file>", "<N>"], run: cmd_schedule,
              summary: "try the merge-guided list scheduler with N units of every demanded \
                        resource" },
    Command { name: "sweep-scenarios", args: &["<file>"], run: cmd_sweep_scenarios,
              summary: "apply a scenario file's edit batches to one incremental analysis \
                        session, reporting the bounds and re-analysis work per scenario" },
    Command { name: "batch", args: &["<dir|manifest>"], run: cmd_batch,
              summary: "analyze every .rtlb instance in a directory (or listed one-per-line in \
                        a manifest file), isolating parse errors, infeasibility, overflows, \
                        timeouts, and panics per instance" },
    Command { name: "merge-shards", args: &["<file>..."], run: cmd_merge_shards,
              summary: "fold complete rtlb-batch-shard-v1 stream files back into one \
                        rtlb-batch-v1 aggregate (rows sorted by path, timing zeroed — \
                        byte-identical however the shards were produced)" },
    Command { name: "check-report", args: &["<file>..."], run: cmd_check_report,
              summary: "validate rtlb-report-v1, rtlb-batch-v1, rtlb-scenarios-v1, \
                        rtlb-metrics-v1, rtlb-cache-v1, or rtlb-cache-entry-v1 JSON documents \
                        (dispatching on their schema tag) and rtlb-batch-shard-v1 JSONL \
                        streams (exit 0 iff every file validates)" },
    Command { name: "serve", args: &[], run: cmd_serve,
              summary: "run the analysis-as-a-service TCP daemon speaking rtlb-rpc-v1 (one JSON \
                        request per line: open / delta / analyze / close / stats / shutdown) \
                        until a shutdown request; telemetry exports are written when the \
                        daemon stops" },
];

/// The subcommands that take the analysis and telemetry flags.
const ANALYZING: &[&str] = &["analyze", "sweep-scenarios", "batch", "serve"];
const BATCH: &[&str] = &["batch"];
const SERVE: &[&str] = &["serve"];

/// Rows that accept the same subcommands stay together: the help and
/// the README flag reference print one heading per run of them.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--jobs", value: Some("N"), commands: ANALYZING,
           set: |inv, v| number(v, "job count").map(|n| inv.jobs = Some(n)),
           help: "worker threads; 0 = one per core. On analyze, sweep-scenarios and serve: sweep \
                  threads (default: 1, fully serial). On batch: instances analyzed at once, one \
                  per worker (default: 0); with more than one worker each instance sweeps \
                  serially. Results are identical for every value" },
    Flag { name: "--chunk", value: Some("N"), commands: ANALYZING,
           set: |inv, v| number(v, "chunk size").map(|n| inv.chunk = Some(n)),
           help: "candidate-t1 columns per sweep chunk; 0 sizes chunks off the worker pool \
                  (default: 0). Results are identical for every value" },
    Flag { name: "--extended", value: None, commands: ANALYZING,
           set: |inv, _| { inv.extended = true; Ok(()) },
           help: "denser candidate-point grid (adds the forced-overlap corners E_i+C_i and \
                  L_i−C_i)" },
    Flag { name: "--propagation", value: Some("LEVEL"), commands: ANALYZING,
           set: |inv, v| PropagationLevel::parse(v).map(|level| inv.propagation = Some(level))
               .ok_or_else(|| format!("unknown propagation level `{v}` (expected timeline or \
                                       filtered)")),
           help: "filtering level: `timeline` (union-find Timeline packing, default) or \
                  `filtered` (adds capacity-conditional detectable-precedence / edge-finding \
                  filtering after the sweep; bounds only get tighter)" },
    Flag { name: "--profile", value: None, commands: ANALYZING,
           set: |inv, _| { inv.profile = true; Ok(()) },
           help: "print a per-phase wall-time breakdown (EST/LCT fixpoint, partitioning, sweep, \
                  propagate, cost bounds) to stderr, aggregated from the metrics registry; with \
                  --metrics=json the rtlb-report-v1 document gains a `profile` section" },
    Flag { name: "--metrics-out", value: Some("FILE"), commands: ANALYZING,
           set: |inv, v| non_empty(v).map(|path| inv.metrics_out = path),
           help: "write the aggregated rtlb-metrics-v1 JSON export (counters, gauges, \
                  log2-bucket histograms) atomically to FILE" },
    Flag { name: "--prom-out", value: Some("FILE"), commands: ANALYZING,
           set: |inv, v| non_empty(v).map(|path| inv.prom_out = path),
           help: "write the same snapshot in Prometheus text exposition format atomically to \
                  FILE" },
    Flag { name: "--metrics", value: Some("off|text|json"), commands: &["analyze"],
           set: |inv, v| {
               inv.metrics = match v {
                   "off" => MetricsMode::Off,
                   "text" => MetricsMode::Text,
                   "json" => MetricsMode::Json,
                   _ => return Err(format!("unknown metrics mode `{v}` (expected off, text, or \
                                            json)")),
               };
               Ok(())
           },
           help: "observability sink (default: off). text appends a stage/counter summary after \
                  the normal output; json prints only the versioned rtlb-report-v1 JSON document \
                  on stdout" },
    Flag { name: "--trace-out", value: Some("FILE"), commands: &["analyze"],
           set: |inv, v| non_empty(v).map(|path| inv.trace_out = path),
           help: "write a Chrome trace-event JSON file (open in chrome://tracing or \
                  https://ui.perfetto.dev); counter increments appear as counter tracks" },
    Flag { name: "--cache", value: Some("DIR"), commands: &["analyze", "batch", "serve"],
           set: |inv, v| non_empty(v).map(|dir| inv.cache = dir),
           help: "consult (and fill) the content-addressed result cache in DIR, keyed by the \
                  instance's canonical text plus the bound-changing options (--extended, \
                  --propagation=); a cached result is byte-identical to recomputation. On \
                  analyze: prints only the bounds table, hit or miss (cache status goes to \
                  stderr); not combinable with --metrics= or --trace-out=. On batch: fresh ok \
                  results are written back, and content-identical instances within one run are \
                  analyzed once either way. On serve: consulted on every `analyze` request" },
    Flag { name: "--check", value: None, commands: &["sweep-scenarios"],
           set: |inv, _| { inv.check = true; Ok(()) },
           help: "re-analyze every scenario from scratch and fail unless the incremental \
                  bounds, witnesses, and interval counts are bit-identical (CI oracle)" },
    Flag { name: "--json", value: None, commands: &["sweep-scenarios", "batch", "merge-shards"],
           set: |inv, _| { inv.json = true; Ok(()) },
           help: "print only a versioned JSON report on stdout instead of the text table: \
                  rtlb-scenarios-v1 on sweep-scenarios, rtlb-batch-v1 on batch and merge-shards" },
    Flag { name: "--out", value: Some("FILE"), commands: &["batch", "merge-shards"],
           set: |inv, v| non_empty(v).map(|path| inv.out = path),
           help: "write the rtlb-batch-v1 JSON report (on merge-shards, the aggregate) \
                  atomically to FILE (temp file + rename; a kill mid-write never leaves a \
                  truncated report)" },
    Flag { name: "--timeout-ms", value: Some("N"), commands: BATCH,
           set: |inv, v| number(v, "timeout").map(|ms| inv.timeout_ms = Some(ms)),
           help: "per-instance analysis deadline in milliseconds; an expired instance reports \
                  `timeout` and the rest of the batch continues (default: none)" },
    Flag { name: "--tolerate", value: Some("LIST"), commands: BATCH,
           set: |inv, v| {
               for label in v.split(',').filter(|l| !l.is_empty()) {
                   inv.tolerate.push(OutcomeKind::from_label(label).ok_or_else(|| {
                       format!("unknown outcome `{label}` (expected ok, parse-error, infeasible, \
                                overflow, timeout, or panicked)")
                   })?);
               }
               Ok(())
           },
           help: "comma-separated outcomes that do not fail the exit code, e.g. \
                  --tolerate=infeasible,timeout (outcomes: ok parse-error infeasible overflow \
                  timeout panicked; exit 1 if any untolerated); repeated lists accumulate" },
    Flag { name: "--heartbeat", value: Some("SECS"), commands: BATCH,
           set: |inv, v| number(v, "heartbeat interval").map(|secs| inv.heartbeat = Some(secs)),
           help: "emit live progress on stderr every SECS seconds (done/total, failure counts, \
                  throughput, ETA, stragglers past the p95 completed duration); a final \
                  heartbeat is always emitted" },
    Flag { name: "--heartbeat-out", value: Some("FILE"), commands: BATCH,
           set: |inv, v| non_empty(v).map(|path| inv.heartbeat_out = path),
           help: "also append each heartbeat to FILE as one rtlb-heartbeat-v1 JSON line (JSONL)" },
    Flag { name: "--shards", value: Some("N"), commands: BATCH,
           set: |inv, v| number(v, "shard count").map(|n| inv.shards = Some(n)),
           help: "split the corpus into N deterministic slices (instance i of the sorted \
                  discovery order goes to shard i mod N) and run only one of them; needs \
                  --shard-out=" },
    Flag { name: "--shard", value: Some("K"), commands: BATCH,
           set: |inv, v| number(v, "shard index").map(|k| inv.shard = Some(k)),
           help: "which slice to run, 0-based (default: 0); needs --shard-out=" },
    Flag { name: "--shard-out", value: Some("FILE"), commands: BATCH,
           set: |inv, v| non_empty(v).map(|path| inv.shard_out = path),
           help: "stream one rtlb-batch-shard-v1 JSON line into FILE per instance as it \
                  finishes; the file is the checkpoint --resume replays" },
    Flag { name: "--resume", value: None, commands: BATCH,
           set: |inv, _| { inv.resume = true; Ok(()) },
           help: "replay FILE's completed rows (tolerating the torn last line a kill leaves) and \
                  analyze only the instances that are left; a FILE damaged anywhere else is \
                  refused and left as it is; needs --shard-out=" },
    Flag { name: "--addr", value: Some("HOST:PORT"), commands: SERVE,
           set: |inv, v| non_empty(v).map(|addr| inv.addr = addr),
           help: "bind address (default: 127.0.0.1:0; port 0 lets the OS pick — the bound \
                  address is the first stdout line, for scripts to capture)" },
    Flag { name: "--max-sessions", value: Some("N"), commands: SERVE,
           set: |inv, v| number(v, "session cap").map(|n| inv.max_sessions = Some(n)),
           help: "resident session cap; opening past it evicts the least-recently-used session \
                  to a parked tier that re-analyzes on next use (default: 8)" },
    Flag { name: "--max-inflight", value: Some("N"), commands: SERVE,
           set: |inv, v| number(v, "in-flight cap").map(|n| inv.max_inflight = Some(n)),
           help: "concurrent analysis requests admitted; over-limit requests get a typed `busy` \
                  error immediately, never an unbounded queue (default: 4; 0 is a drain mode \
                  that refuses every analysis op while control ops work)" },
    Flag { name: "--deadline-ms", value: Some("N"), commands: SERVE,
           set: |inv, v| number(v, "deadline").map(|ms| inv.deadline_ms = Some(ms)),
           help: "default per-request deadline for requests that do not carry their own \
                  deadline_ms (an expired request reports `timeout`; default: none)" },
];

/// Parses a numeric flag value; `what` names it in the error.
fn number<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {what} `{value}`"))
}

/// A path or address flag value, which may not be empty.
fn non_empty(value: &str) -> Result<Option<String>, String> {
    if value.is_empty() {
        return Err("needs a non-empty value".to_owned());
    }
    Ok(Some(value.to_owned()))
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

/// A checked command line: the positional arguments plus one field per
/// [`FLAGS`] row, unset (`None`, `false`, empty) unless given. Each
/// command builds the library configuration it runs from these.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Invocation {
    args: Vec<String>,
    jobs: Option<usize>,
    chunk: Option<usize>,
    extended: bool,
    propagation: Option<PropagationLevel>,
    profile: bool,
    metrics_out: Option<String>,
    prom_out: Option<String>,
    metrics: MetricsMode,
    trace_out: Option<String>,
    cache: Option<String>,
    check: bool,
    json: bool,
    out: Option<String>,
    timeout_ms: Option<u64>,
    tolerate: Vec<OutcomeKind>,
    heartbeat: Option<u64>,
    heartbeat_out: Option<String>,
    shards: Option<usize>,
    shard: Option<usize>,
    shard_out: Option<String>,
    resume: bool,
    addr: Option<String>,
    max_sessions: Option<usize>,
    max_inflight: Option<usize>,
    deadline_ms: Option<u64>,
}

impl Invocation {
    /// The analysis options of `analyze`, `sweep-scenarios` and `serve`,
    /// where `--jobs` is the sweep's thread count.
    fn analysis(&self) -> AnalysisOptions {
        let defaults = AnalysisOptions::default();
        AnalysisOptions {
            candidates: if self.extended {
                CandidatePolicy::Extended
            } else {
                defaults.candidates
            },
            parallelism: self.jobs.unwrap_or(defaults.parallelism),
            chunk_columns: self.chunk.unwrap_or(defaults.chunk_columns),
            propagation: self.propagation.unwrap_or(defaults.propagation),
        }
    }

    /// The batch driver's options: `--jobs` is the worker count, and
    /// each instance keeps the default serial sweep.
    fn batch(&self) -> BatchOptions {
        let defaults = BatchOptions::default();
        BatchOptions {
            analysis: AnalysisOptions {
                parallelism: defaults.analysis.parallelism,
                ..self.analysis()
            },
            jobs: self.jobs.unwrap_or(defaults.jobs),
            timeout_ms: self.timeout_ms,
            tolerate: self.tolerate.clone(),
            // Either heartbeat flag arms the (final) heartbeat.
            heartbeat: (self.heartbeat.is_some() || self.heartbeat_out.is_some()).then(|| {
                HeartbeatOptions {
                    interval_secs: self.heartbeat.unwrap_or_default(),
                    out: self.heartbeat_out.as_ref().map(Into::into),
                }
            }),
            cache: self.cache.as_ref().map(Into::into),
        }
    }

    fn serve(&self) -> ServeConfig {
        let defaults = ServeConfig::default();
        ServeConfig {
            addr: self.addr.clone().unwrap_or(defaults.addr),
            max_sessions: self.max_sessions.unwrap_or(defaults.max_sessions),
            max_inflight: self.max_inflight.unwrap_or(defaults.max_inflight),
            default_deadline_ms: self.deadline_ms,
            options: self.analysis(),
            cache_dir: self.cache.as_ref().map(Into::into),
        }
    }

    /// Whether any registry consumer (`--profile`, `--metrics-out=`,
    /// `--prom-out=`) was requested.
    fn telemetry(&self) -> bool {
        self.profile || self.metrics_out.is_some() || self.prom_out.is_some()
    }
}

/// The command-line parser: checks `argv` (without the program name)
/// against [`COMMANDS`] and [`FLAGS`] — the subcommand, every flag and
/// its value, the positional arity and the cross-flag rules — so that a
/// usage error always wins over a file error. Flags and positional
/// arguments may come in any order; a repeated flag keeps its last
/// value (`--tolerate` lists accumulate). `Ok(None)` asks for the help.
fn parse_args(argv: &[String]) -> Result<Option<(&'static Command, Invocation)>, String> {
    let Some((command_name, rest)) = argv.split_first() else {
        return Err("missing command".to_owned());
    };
    if matches!(command_name.as_str(), "help" | "-h" | "--help") {
        return Ok(None);
    }
    let command = COMMANDS
        .iter()
        .find(|command| command.name == command_name)
        .ok_or_else(|| format!("unknown command `{command_name}`"))?;
    if rest.iter().any(|arg| arg == "--help" || arg == "-h") {
        return Ok(None);
    }
    let mut invocation = Invocation::default();
    for arg in rest {
        if !arg.starts_with("--") {
            invocation.args.push(arg.clone());
            continue;
        }
        let (name, value) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let flag = FLAGS
            .iter()
            .find(|flag| flag.name == name && flag.commands.contains(&command.name))
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        match (flag.value, value) {
            (None, Some(_)) => return Err(format!("{name} takes no value")),
            (Some(placeholder), None) => {
                return Err(format!("{name} needs a value: {name}={placeholder}"))
            }
            (_, value) => (flag.set)(&mut invocation, value.unwrap_or_default())
                .map_err(|reason| format!("{name}: {reason}"))?,
        }
    }

    let wanted = command.args.join(" ");
    if invocation.args.len() < command.args.len() {
        return Err(match wanted.strip_suffix("...") {
            Some(one) => format!("`{}` needs at least one {one}", command.name),
            None => format!("`{}` needs {wanted}", command.name),
        });
    }
    if !wanted.ends_with("...") {
        if let Some(extra) = invocation.args.get(command.args.len()) {
            return Err(format!("unexpected argument `{extra}`"));
        }
    }

    if invocation.cache.is_some()
        && (invocation.metrics != MetricsMode::Off || invocation.trace_out.is_some())
    {
        return Err(
            "--cache prints only the bounds table and cannot be combined with \
             --metrics= or --trace-out="
                .to_owned(),
        );
    }
    if invocation.shard_out.is_none()
        && (invocation.shards.is_some() || invocation.shard.is_some() || invocation.resume)
    {
        return Err("--shards/--shard/--resume need --shard-out=FILE (the stream file)".to_owned());
    }
    ShardOptions::check_split(
        invocation.shards.unwrap_or(1),
        invocation.shard.unwrap_or(0),
    )?;
    Ok(Some((command, invocation)))
}

/// The column where help descriptions start, and the width they wrap at.
const HELP_COLUMN: usize = 31;
const HELP_WIDTH: usize = 79;

/// `rtlb --help`: the subcommands and flags from [`COMMANDS`] and
/// [`FLAGS`], between fixed text on exit codes and examples.
fn render_help() -> String {
    let mut help = "\
rtlb — resource lower bounds for real-time task graphs (ICDCS 1995)

usage: rtlb <command> <arguments> [flags]
Flags and arguments may come in any order. A repeated flag keeps its last
value; --tolerate lists accumulate.

commands:
"
    .to_owned();
    for command in COMMANDS {
        let usage = format!("rtlb {} {}", command.name, command.args.join(" "));
        help_entry(&mut help, usage.trim_end(), command.summary);
    }
    help_entry(
        &mut help,
        "rtlb help | -h | --help",
        "show this message; so does --help or -h after any command",
    );
    help.push_str(
        "
exit codes (every subcommand):
  0  success
  1  the run failed: unreadable input, parse or analysis error, untolerated
     batch outcome, scenario oracle divergence, invalid document, or a
     failed write to stdout (e.g. a closed pipe)
  2  usage error: unknown command or flag, missing or invalid argument,
     reported before any file is read

",
    );
    help.push_str(&render_flags());
    help.push_str(
        "
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
",
    );
    help
}

/// The flag reference: every [`FLAGS`] row, under a heading naming the
/// subcommands that accept it. `rtlb --help` shows it, and README.md
/// keeps a copy between marker comments.
fn render_flags() -> String {
    let mut text = String::new();
    let mut heading: Option<&[&str]> = None;
    for flag in FLAGS {
        if heading != Some(flag.commands) {
            if heading.is_some() {
                text.push('\n');
            }
            heading = Some(flag.commands);
            text.push_str(&format!("flags of {}:\n", flag.commands.join(", ")));
        }
        let usage = match flag.value {
            Some(placeholder) => format!("{}={placeholder}", flag.name),
            None => flag.name.to_owned(),
        };
        help_entry(&mut text, &usage, flag.help);
    }
    text
}

/// Appends `usage` indented by two, then `description` word-wrapped
/// into the description column, which starts on the next line when
/// `usage` reaches into it.
fn help_entry(text: &mut String, usage: &str, description: &str) {
    let mut line = format!("  {usage}");
    if line.chars().count() >= HELP_COLUMN {
        text.push_str(&line);
        text.push('\n');
        line.clear();
    }
    for word in description.split_whitespace() {
        let width = line.chars().count();
        if width < HELP_COLUMN {
            line = format!("{line:HELP_COLUMN$}{word}");
        } else if width + 1 + word.chars().count() <= HELP_WIDTH {
            line.push(' ');
            line.push_str(word);
        } else {
            text.push_str(&line);
            text.push('\n');
            line = format!("{:HELP_COLUMN$}{word}", "");
        }
    }
    text.push_str(&line);
    text.push('\n');
}

/// The two non-zero exits of the documented table: usage errors (exit
/// 2: unknown command or flag, missing or invalid argument) and run
/// failures (exit 1: everything that goes wrong after the invocation
/// itself was well-formed).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Failure {
    Usage(String),
    Run(String),
}

/// `?` on a plain-`String` error means a run failure; usage errors come
/// from [`parse_args`] and the `schedule` unit count.
impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Run(message)
    }
}

/// `?` on an `io::Error` is a failed write to stdout: every file read
/// and write maps its own error to a `String` first.
impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Failure {
        Failure::Run(format!("cannot write to stdout: {e}"))
    }
}

fn main() -> ExitCode {
    let mut stdout = std::io::stdout().lock();
    let result = std::env::args_os()
        .skip(1)
        .map(|arg| {
            arg.into_string()
                .map_err(|arg| format!("argument {arg:?} is not valid UTF-8"))
        })
        .collect::<Result<Vec<_>, _>>()
        .and_then(|argv| parse_args(&argv))
        .map_err(Failure::Usage)
        .and_then(|parsed| {
            let code = match parsed {
                None => {
                    stdout.write_all(render_help().as_bytes())?;
                    ExitCode::SUCCESS
                }
                Some((command, invocation)) => (command.run)(&invocation, &mut stdout)?,
            };
            stdout.flush()?;
            Ok(code)
        });
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

/// Reads and parses the text-format instance at `path`.
fn read_instance(path: &str) -> Result<ParsedSystem, String> {
    let input = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&input).map_err(|e| format!("{path}: {e}"))
}

/// Writes `doc` pretty-printed plus a newline to `path`, atomically —
/// the one writer behind every `--out=`-style JSON export.
fn write_json(path: &str, doc: &Json) -> Result<(), String> {
    let mut text = doc.pretty();
    text.push('\n');
    write_atomic(std::path::Path::new(path), &text)
}

/// Drains `registry` into its export sinks: the `rtlb-metrics-v1` JSON
/// and Prometheus files (written atomically) and the stderr profile
/// table, with the pool size that `parallelism` (0 = one per core)
/// gives as the `pool.workers` gauge. Returns the phase breakdown with
/// `telemetry_micros` set to the time this function itself spent — the
/// profiler profiles itself.
fn export_telemetry(
    registry: &MetricsRegistry,
    invocation: &Invocation,
    parallelism: usize,
) -> Result<Option<PhaseProfile>, String> {
    if !invocation.telemetry() {
        return Ok(None);
    }
    registry.gauge_set("pool.workers", effective_threads(parallelism) as i64);
    export_snapshot(&registry.snapshot(), invocation)
}

/// [`export_telemetry`] for a snapshot that already left its registry —
/// the `serve` path, where the daemon owns the registry and hands back
/// its final snapshot on shutdown.
fn export_snapshot(
    snapshot: &MetricsSnapshot,
    invocation: &Invocation,
) -> Result<Option<PhaseProfile>, String> {
    if !invocation.telemetry() {
        return Ok(None);
    }
    let started = Instant::now();
    let mut profile = PhaseProfile::from_snapshot(snapshot);
    if let Some(path) = &invocation.metrics_out {
        write_json(path, &snapshot.to_json())?;
    }
    if let Some(path) = &invocation.prom_out {
        write_atomic(std::path::Path::new(path), &prometheus_text(snapshot))?;
    }
    profile.telemetry_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    if invocation.profile {
        eprint!("{}", profile.render_text());
    }
    Ok(Some(profile))
}

fn cmd_check_report(invocation: &Invocation, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    for path in &invocation.args {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let summary = check_text(&text).map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "{path}: {summary}")?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `rtlb analyze --cache=DIR`: the bounds-only, cache-consulting mode.
/// Hit or miss, stdout is exactly the [`render_bounds`] table — a hit
/// re-binds the stored name-keyed bounds to this parse's catalog, a
/// miss runs the pipeline and stores the result back, and the two are
/// byte-identical by construction. Cache status goes to stderr; a
/// store that fails is reported there and does not fail the run.
fn cmd_analyze_cached(
    parsed: &ParsedSystem,
    dir: &str,
    invocation: &Invocation,
    out: &mut dyn Write,
) -> Result<ExitCode, Failure> {
    let options = invocation.analysis();
    let registry = MetricsRegistry::new();
    let probe: &dyn Probe = if invocation.telemetry() {
        &registry
    } else {
        &NULL_PROBE
    };
    let cache = ResultCache::open(std::path::Path::new(dir))?;
    let fingerprint = options.semantic_fingerprint();
    let key = content_key(parsed, &fingerprint);
    let (bounds, outcome) =
        cache.lookup_or_analyze(key, parsed.graph.catalog(), &fingerprint, probe, || {
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
    write!(out, "{}", render_bounds(&parsed.graph, &bounds))?;
    export_telemetry(&registry, invocation, options.parallelism)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_analyze(invocation: &Invocation, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let path = &invocation.args[0];
    let parsed = read_instance(path)?;
    if let Some(dir) = &invocation.cache {
        return cmd_analyze_cached(&parsed, dir, invocation, out);
    }
    let options = invocation.analysis();
    let metrics = invocation.metrics;
    let recorder = Recorder::new();
    let registry = MetricsRegistry::new();
    let tee = TeeProbe::new(&recorder, &registry);
    // One probe feeds both sinks; without telemetry flags the recorder
    // runs alone as before.
    let probe: &dyn Probe = if invocation.telemetry() {
        &tee
    } else {
        &recorder
    };
    let quiet = metrics == MetricsMode::Json;

    let analysis = analyze_with_probe(&parsed.graph, &SystemModel::shared(), options, probe)
        .map_err(|e| e.to_string())?;
    if !quiet {
        write!(out, "{}", render_analysis(&parsed.graph, &analysis))?;
    }

    let mut shared_total = None;
    if let Some(shared) = &parsed.shared_costs {
        match analysis.shared_cost_probed(shared, probe) {
            Ok(cost) => {
                shared_total = Some(cost.total);
                if !quiet {
                    writeln!(out, "\n== Step 4: Shared-model cost ==")?;
                    write!(out, "{}", render_shared_cost(&parsed.graph, &cost))?;
                }
            }
            Err(e) => {
                if !quiet {
                    writeln!(out, "\n(shared cost skipped: {e})")?;
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
                    writeln!(out, "\n== Step 4: Dedicated-model cost ==")?;
                    write!(out, "{}", render_dedicated_cost(model, &cost))?;
                }
            }
            Err(e) => {
                if !quiet {
                    writeln!(out, "\n(dedicated cost skipped: {e})")?;
                }
            }
        }
    }

    let profile = export_telemetry(&registry, invocation, options.parallelism)?;

    if metrics == MetricsMode::Off && invocation.trace_out.is_none() {
        return Ok(ExitCode::SUCCESS);
    }
    let snapshot = recorder.take_metrics();
    if let Some(trace) = &invocation.trace_out {
        std::fs::write(trace, chrome_trace(&snapshot))
            .map_err(|e| format!("cannot write {trace}: {e}"))?;
    }
    if metrics != MetricsMode::Off {
        let mut report = build_run_report(path, &parsed.graph, options, &analysis, &snapshot);
        report.shared_cost = shared_total;
        report.dedicated_cost = dedicated_total;
        report.profile = profile;
        match metrics {
            MetricsMode::Json => writeln!(out, "{}", report.to_json().pretty())?,
            MetricsMode::Text => write!(out, "\n== Metrics ==\n{}", report.render_text())?,
            MetricsMode::Off => unreachable!(),
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(invocation: &Invocation, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let server = rtlb::serve::serve(invocation.serve())?;
    // The first stdout line is the contract for scripts: with --addr
    // port 0 this is the only way to learn the bound port.
    let addr = server.addr();
    writeln!(out, "rtlb serve: listening on {addr} ({RPC_SCHEMA})")?;
    out.flush()?;
    let mut snapshot = server.wait();
    snapshot.normalize();
    export_snapshot(&snapshot, invocation)?;
    writeln!(out, "rtlb serve: stopped")?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep_scenarios(invocation: &Invocation, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let path = &invocation.args[0];
    let options = invocation.analysis();
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
    let mut session = AnalysisSession::new(parsed.graph, model.clone(), options)
        .map_err(|e| format!("base instance: {e}"))?;

    if !invocation.json {
        writeln!(
            out,
            "base `{}`: {} scenario(s)",
            file.base,
            file.scenarios.len()
        )?;
        writeln!(
            out,
            "{:<24} {:>10} {:>10} {:>8} {:>8}  bounds",
            "scenario", "recomputed", "resweeped", "reused", "micros"
        )?;
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
        let probe: &dyn Probe = if invocation.telemetry() {
            &tee
        } else {
            &recorder
        };
        let outcome = session.apply_ctl(&deltas, probe, &CancelToken::none());
        let metrics = recorder.take_metrics();
        let micros = metrics.total_micros("session.apply");
        match outcome {
            Ok(stats) => {
                if invocation.check {
                    let scratch = analyze_with(session.graph(), &model, options)
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
                if !invocation.json {
                    let summary: Vec<String> = session
                        .bounds()
                        .iter()
                        .map(|b| {
                            format!("{}={}", session.graph().catalog().name(b.resource), b.bound)
                        })
                        .collect();
                    writeln!(
                        out,
                        "{:<24} {:>10} {:>10} {:>8} {:>8}  {}",
                        scenario.name,
                        stats.tasks_recomputed(),
                        stats.blocks_resweeped,
                        stats.blocks_reused,
                        micros,
                        summary.join(" ")
                    )?;
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
                if invocation.check {
                    let scratch = analyze_with(session.graph(), &model, options);
                    if scratch.is_ok() {
                        return Err(Failure::Run(format!(
                            "scenario `{}`: session rejected ({e}) what the \
                             from-scratch oracle accepts",
                            scenario.name
                        )));
                    }
                }
                if !invocation.json {
                    writeln!(out, "{:<24} error: {e}", scenario.name)?;
                }
                rows.push(Json::obj([
                    ("name", Json::str(scenario.name.as_str())),
                    ("deltas", Json::Int(deltas.len() as i64)),
                    ("error", Json::str(e.to_string())),
                ]));
            }
        }
    }
    export_telemetry(&registry, invocation, options.parallelism)?;
    if invocation.json {
        let doc = Json::obj([
            ("schema", Json::str("rtlb-scenarios-v1")),
            ("file", Json::str(path.as_str())),
            ("base", Json::str(file.base.as_str())),
            ("checked", Json::Bool(invocation.check)),
            ("scenarios", Json::Arr(rows)),
        ]);
        writeln!(out, "{}", doc.pretty())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `batch` owns its success exit code: per-instance failures are report
/// rows plus exit 1, not a driver error.
fn cmd_batch(invocation: &Invocation, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let target = std::path::Path::new(&invocation.args[0]);
    let options = invocation.batch();
    let registry = MetricsRegistry::new();
    let probe: &dyn Probe = if invocation.telemetry() {
        &registry
    } else {
        &NULL_PROBE
    };
    let jobs = options.jobs;
    let report = match &invocation.shard_out {
        // Sharded streaming mode: run one deterministic slice of the
        // corpus, checkpointing each instance into the stream file. The
        // printed report covers this shard's assignment only; the
        // cross-shard aggregate comes from `rtlb merge-shards`.
        Some(stream) => {
            let shard_options = ShardOptions {
                batch: options,
                shards: invocation.shards.unwrap_or(1),
                shard: invocation.shard.unwrap_or(0),
                out: stream.into(),
                resume: invocation.resume,
            };
            let summary = run_shard_probed(target, &shard_options, probe)?;
            eprintln!(
                "batch shard {}/{}: {} assigned, {} resumed, stream {stream}",
                shard_options.shard, shard_options.shards, summary.assigned, summary.resumed
            );
            summary.report
        }
        None => run_batch_probed(target, &options, probe)?,
    };
    export_telemetry(&registry, invocation, jobs)?;
    write_report(&report, invocation, out)?;
    Ok(if report.violations(&invocation.tolerate) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_merge_shards(invocation: &Invocation, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let files: Vec<std::path::PathBuf> = invocation.args.iter().map(Into::into).collect();
    write_report(&merge_shards(&files)?, invocation, out)?;
    Ok(ExitCode::SUCCESS)
}

/// Puts a batch report where `--out=` and `--json` say: atomically
/// into the `--out=` file, and on stdout as JSON or as the text table.
fn write_report(
    report: &BatchReport,
    invocation: &Invocation,
    out: &mut dyn Write,
) -> Result<(), Failure> {
    if let Some(path) = &invocation.out {
        write_json(path, &report.to_json())?;
    }
    if invocation.json {
        writeln!(out, "{}", report.to_json().pretty())?;
    } else {
        write!(out, "{}", report.render_text())?;
    }
    Ok(())
}

fn cmd_dot(invocation: &Invocation, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let parsed = read_instance(&invocation.args[0])?;
    write!(out, "{}", to_dot(&parsed.graph))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_example(_: &Invocation, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let ex = paper_example();
    let shared = ex.shared_costs([30, 45, 20]);
    let model = ex.node_types([45, 30, 45]);
    write!(out, "{}", render(&ex.graph, Some(&shared), Some(&model)))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_schedule(invocation: &Invocation, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    // The unit count is an argument of the command line: check it
    // before the file is read.
    let count = &invocation.args[1];
    let units: u32 = count
        .parse()
        .map_err(|_| Failure::Usage(format!("invalid unit count `{count}`")))?;
    let parsed = read_instance(&invocation.args[0])?;
    let caps = Capacities::uniform(&parsed.graph, units);
    let schedule = list_schedule(&parsed.graph, &caps).map_err(|e| {
        format!(
            "the greedy scheduler found no schedule at {units} unit(s): {e} \
             (the instance may still be feasible for a smarter scheduler)"
        )
    })?;
    let violations = validate_schedule(&parsed.graph, &caps, &schedule);
    if !violations.is_empty() {
        return Err(Failure::Run(format!(
            "internal error: invalid schedule: {violations:?}"
        )));
    }
    writeln!(
        out,
        "feasible with {units} unit(s) of every demanded resource:"
    )?;
    for p in schedule.placements() {
        let task = parsed.graph.task(p.task);
        let span = match (p.slices.first(), p.slices.last()) {
            (Some(first), Some(last)) => format!("[{}, {})", first.start, last.end),
            _ => "(zero-length)".to_owned(),
        };
        writeln!(
            out,
            "  {:<16} unit {} of {:<6} {}",
            task.name(),
            p.unit,
            parsed.graph.catalog().name(task.processor()),
            span
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    /// The surface each subcommand accepts: sample positional arguments
    /// and every flag it takes.
    const MATRIX: [(&str, &[&str], &[&str]); 9] = [
        (
            "analyze",
            &["f.rtlb"],
            &[
                "--jobs",
                "--chunk",
                "--extended",
                "--propagation",
                "--profile",
                "--metrics-out",
                "--prom-out",
                "--metrics",
                "--trace-out",
                "--cache",
            ],
        ),
        ("dot", &["f.rtlb"], &[]),
        ("example", &[], &[]),
        ("schedule", &["f.rtlb", "5"], &[]),
        (
            "sweep-scenarios",
            &["s.rtlbs"],
            &[
                "--jobs",
                "--chunk",
                "--extended",
                "--propagation",
                "--profile",
                "--metrics-out",
                "--prom-out",
                "--check",
                "--json",
            ],
        ),
        (
            "batch",
            &["corpus"],
            &[
                "--jobs",
                "--chunk",
                "--extended",
                "--propagation",
                "--profile",
                "--metrics-out",
                "--prom-out",
                "--timeout-ms",
                "--tolerate",
                "--json",
                "--out",
                "--heartbeat",
                "--heartbeat-out",
                "--cache",
                "--shards",
                "--shard",
                "--shard-out",
                "--resume",
            ],
        ),
        ("merge-shards", &["s0.jsonl"], &["--json", "--out"]),
        ("check-report", &["r.json"], &[]),
        (
            "serve",
            &[],
            &[
                "--jobs",
                "--chunk",
                "--extended",
                "--propagation",
                "--profile",
                "--metrics-out",
                "--prom-out",
                "--addr",
                "--max-sessions",
                "--max-inflight",
                "--deadline-ms",
                "--cache",
            ],
        ),
    ];

    /// A valid use of `flag`, with the companion its cross-flag rule
    /// needs.
    fn sample(flag: &'static str) -> Vec<&'static str> {
        let args: &[&str] = match flag {
            "--jobs" => &["--jobs=2"],
            "--chunk" => &["--chunk=4"],
            "--propagation" => &["--propagation=filtered"],
            "--metrics-out" => &["--metrics-out=m.json"],
            "--prom-out" => &["--prom-out=m.prom"],
            "--metrics" => &["--metrics=text"],
            "--trace-out" => &["--trace-out=t.json"],
            "--cache" => &["--cache=.cache"],
            "--timeout-ms" => &["--timeout-ms=250"],
            "--tolerate" => &["--tolerate=infeasible,timeout"],
            "--out" => &["--out=r.json"],
            "--heartbeat" => &["--heartbeat=1"],
            "--heartbeat-out" => &["--heartbeat-out=hb.jsonl"],
            "--shards" => &["--shards=2", "--shard-out=s.jsonl"],
            "--shard" => &["--shard=1", "--shards=2", "--shard-out=s.jsonl"],
            "--shard-out" => &["--shard-out=s.jsonl"],
            "--resume" => &["--resume", "--shard-out=s.jsonl"],
            "--addr" => &["--addr=127.0.0.1:0"],
            "--max-sessions" => &["--max-sessions=3"],
            "--max-inflight" => &["--max-inflight=2"],
            "--deadline-ms" => &["--deadline-ms=100"],
            switch => return vec![switch],
        };
        args.to_vec()
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    /// Parses `command` with its sample positional arguments, then
    /// `flags`.
    fn parse_flags(command: &str, flags: &[&str]) -> Result<Invocation, String> {
        let (_, positionals, _) = MATRIX
            .iter()
            .find(|(name, ..)| *name == command)
            .expect("a MATRIX row");
        let line = [&[command], *positionals, flags].concat().join(" ");
        let (_, invocation) = parse_args(&argv(&line))?.expect("not a help request");
        Ok(invocation)
    }

    /// Each `(command line, needle)` row is a usage error whose message
    /// contains `needle`.
    fn refuses(rows: &[(&str, &str)]) {
        for (line, needle) in rows {
            match parse_args(&argv(line)) {
                Ok(_) => panic!("`{line}` was accepted"),
                Err(err) => assert!(err.contains(needle), "`{line}`: {err}"),
            }
        }
    }

    /// Every subcommand accepts exactly the flags its MATRIX row lists,
    /// and the help shows every subcommand, and every flag under a
    /// heading naming exactly the subcommands that take it.
    #[test]
    fn flag_acceptance_matrix() {
        let every_flag: std::collections::BTreeSet<&str> = MATRIX
            .iter()
            .flat_map(|(_, _, flags)| flags.iter().copied())
            .collect();
        assert_eq!(every_flag.len(), 25);
        for (command, _, accepted) in MATRIX {
            assert!(parse_flags(command, &[]).is_ok(), "{command}");
            for flag in &every_flag {
                let args = sample(flag);
                assert_eq!(
                    parse_flags(command, &args).is_ok(),
                    accepted.contains(flag),
                    "{command} {args:?}"
                );
            }
        }

        let help = render_help();
        let mut shown = std::collections::BTreeMap::new();
        let mut heading: Vec<&str> = Vec::new();
        for line in help.lines() {
            if let Some(commands) = line
                .strip_prefix("flags of ")
                .and_then(|rest| rest.strip_suffix(':'))
            {
                heading = commands.split(", ").collect();
            } else if let Some(flag) = line.strip_prefix("  --") {
                let name = flag.split(['=', ' ']).next().unwrap_or_default();
                shown.insert(format!("--{name}"), heading.clone());
            }
        }
        for (command, ..) in MATRIX {
            assert!(help.contains(&format!("rtlb {command}")), "help: {command}");
        }
        for flag in every_flag {
            let takers: Vec<&str> = MATRIX
                .iter()
                .filter(|(_, _, flags)| flags.contains(&flag))
                .map(|(command, ..)| *command)
                .collect();
            let mut listed = shown.get(flag).cloned().unwrap_or_default();
            listed.sort_by_key(|c| MATRIX.iter().position(|(m, ..)| m == c));
            assert_eq!(listed, takers, "help heading of {flag}");
        }
    }

    /// README.md carries [`render_flags`] between two marker comments;
    /// `BLESS=1 cargo test --bin rtlb readme` rewrites it.
    #[test]
    fn readme_flag_reference_matches_the_table() {
        const BEGIN: &str = "<!-- BEGIN flag reference: generated from FLAGS in src/bin/rtlb.rs (BLESS=1 cargo test --bin rtlb readme) -->\n";
        const END: &str = "<!-- END flag reference -->";
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("README.md is readable");
        let (before, rest) = readme
            .split_once(BEGIN)
            .expect("README.md has the begin marker");
        let (current, after) = rest.split_once(END).expect("README.md has the end marker");
        let fresh = format!("```text\n{}```\n", render_flags());
        if std::env::var_os("BLESS").is_some() {
            std::fs::write(path, format!("{before}{BEGIN}{fresh}{END}{after}"))
                .expect("README.md is writable");
            return;
        }
        assert_eq!(
            current, fresh,
            "README.md's flag reference drifted: BLESS=1 cargo test --bin rtlb readme"
        );
    }

    #[test]
    fn no_flags_gives_defaults() {
        let invocation = parse_flags("analyze", &[]).unwrap();
        assert_eq!(invocation.analysis(), AnalysisOptions::default());
        assert_eq!(invocation.metrics, MetricsMode::Off);
        assert_eq!(invocation.trace_out, None);
    }

    #[test]
    fn all_flags_parse_together() {
        let invocation = parse_flags(
            "analyze",
            &[
                "--jobs=4",
                "--chunk=32",
                "--extended",
                "--propagation=filtered",
                "--metrics=json",
                "--trace-out=t.json",
                "--profile",
                "--metrics-out=m.json",
                "--prom-out=m.prom",
            ],
        )
        .unwrap();
        let options = invocation.analysis();
        assert_eq!(options.parallelism, 4);
        assert_eq!(options.chunk_columns, 32);
        assert_eq!(options.candidates, CandidatePolicy::Extended);
        assert_eq!(options.propagation, PropagationLevel::Filtered);
        assert_eq!(invocation.metrics, MetricsMode::Json);
        assert_eq!(invocation.trace_out.as_deref(), Some("t.json"));
        assert!(invocation.profile);
        assert_eq!(invocation.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(invocation.prom_out.as_deref(), Some("m.prom"));
        assert!(invocation.telemetry());
    }

    #[test]
    fn telemetry_defaults_off_and_rejects_empty_paths() {
        assert!(!parse_flags("analyze", &[]).unwrap().telemetry());
        refuses(&[
            ("analyze f.rtlb --metrics-out=", "--metrics-out"),
            ("sweep-scenarios s.rtlbs --prom-out=", "--prom-out"),
        ]);
        // The shared flags parse identically on every subcommand.
        assert!(
            parse_flags("sweep-scenarios", &["--profile"])
                .unwrap()
                .profile
        );
        assert!(parse_flags("batch", &["--profile"]).unwrap().profile);
        assert_eq!(
            parse_flags("batch", &["--metrics-out=x.json"])
                .unwrap()
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
            assert_eq!(parse_flags("analyze", &[raw]).unwrap().metrics, mode);
        }
    }

    #[test]
    fn unknown_flag_is_rejected() {
        refuses(&[("analyze f.rtlb --bogus", "unknown flag `--bogus`")]);
    }

    #[test]
    fn bad_job_count_is_rejected() {
        refuses(&[
            ("analyze f.rtlb --jobs=many", "invalid job count"),
            ("analyze f.rtlb --jobs=-1", "invalid job count"),
        ]);
    }

    #[test]
    fn bad_chunk_size_is_rejected() {
        refuses(&[
            ("analyze f.rtlb --chunk=wide", "invalid chunk size"),
            ("sweep-scenarios s.rtlbs --chunk=-3", "invalid chunk size"),
        ]);
    }

    #[test]
    fn bad_metrics_mode_is_rejected() {
        refuses(&[("analyze f.rtlb --metrics=xml", "unknown metrics mode")]);
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
            for command in ["analyze", "sweep-scenarios", "batch", "serve"] {
                let err = parse_flags(command, &[flag]).unwrap_err();
                assert!(err.contains("unknown flag"), "{command} {flag}: {err}");
            }
        }
    }

    #[test]
    fn propagation_levels_parse_on_every_subcommand() {
        for (raw, level) in [
            ("--propagation=timeline", PropagationLevel::Timeline),
            ("--propagation=filtered", PropagationLevel::Filtered),
        ] {
            let parsed = |command| parse_flags(command, &[raw]).unwrap();
            assert_eq!(parsed("analyze").analysis().propagation, level);
            assert_eq!(parsed("sweep-scenarios").analysis().propagation, level);
            assert_eq!(parsed("batch").batch().analysis.propagation, level);
            assert_eq!(parsed("serve").serve().options.propagation, level);
        }
        // The default level is the Timeline packing without filtering.
        assert_eq!(
            parse_flags("analyze", &[]).unwrap().analysis().propagation,
            PropagationLevel::Timeline
        );
    }

    #[test]
    fn bad_propagation_level_is_rejected() {
        refuses(&[
            (
                "analyze f.rtlb --propagation=psychic",
                "unknown propagation level",
            ),
            ("batch corpus --propagation=", "unknown propagation level"),
            // Paper packing is a test oracle, not a level.
            ("serve --propagation=paper", "unknown propagation level"),
        ]);
    }

    #[test]
    fn empty_trace_path_is_rejected() {
        refuses(&[("analyze f.rtlb --trace-out=", "--trace-out")]);
    }

    /// `needles` appear in the help and `gone` do not. Which flags the
    /// help shows is `flag_acceptance_matrix`'s job.
    fn help_mentions(needles: &[&str], gone: &[&str]) {
        let help = render_help();
        for needle in needles {
            assert!(help.contains(needle), "usage is missing {needle}");
        }
        for gone in gone {
            assert!(!help.contains(gone), "usage still mentions {gone}");
        }
    }

    #[test]
    fn usage_mentions_every_analyze_flag() {
        help_mentions(
            &["rtlb analyze <file>", "rtlb-report-v1"],
            &["--sweep=", "--no-partition", "check-metrics"],
        );
    }

    #[test]
    fn usage_mentions_scenario_sweeps() {
        help_mentions(&["rtlb sweep-scenarios <file>", "rtlb-scenarios-v1"], &[]);
    }

    #[test]
    fn scenario_flags_parse_together() {
        let invocation = parse_flags(
            "sweep-scenarios",
            &[
                "--jobs=2",
                "--chunk=5",
                "--extended",
                "--propagation=filtered",
                "--check",
                "--json",
            ],
        )
        .unwrap();
        let options = invocation.analysis();
        assert_eq!(options.parallelism, 2);
        assert_eq!(options.chunk_columns, 5);
        assert_eq!(options.candidates, CandidatePolicy::Extended);
        assert_eq!(options.propagation, PropagationLevel::Filtered);
        assert!(invocation.check);
        assert!(invocation.json);
    }

    #[test]
    fn batch_flags_parse_together() {
        let invocation = parse_flags(
            "batch",
            &[
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
            ],
        )
        .unwrap();
        let options = invocation.batch();
        assert_eq!(options.cache.as_deref(), Some(Path::new(".cache")));
        assert_eq!(options.analysis.candidates, CandidatePolicy::Extended);
        assert_eq!(options.analysis.chunk_columns, 3);
        assert_eq!(options.analysis.propagation, PropagationLevel::Filtered);
        // --jobs= is the worker count; each instance keeps its serial
        // default pool.
        assert_eq!(options.jobs, 8);
        assert_eq!(options.analysis.parallelism, 1);
        assert_eq!(options.timeout_ms, Some(250));
        assert_eq!(
            options.tolerate,
            vec![OutcomeKind::Infeasible, OutcomeKind::Timeout]
        );
        assert!(invocation.json);
        assert_eq!(invocation.out.as_deref(), Some("report.json"));
        let hb = options.heartbeat.as_ref().unwrap();
        assert_eq!(hb.interval_secs, 2);
        assert_eq!(hb.out.as_deref(), Some(Path::new("hb.jsonl")));
    }

    #[test]
    fn heartbeat_flags_combine_in_any_order() {
        // --heartbeat-out alone still arms the (final) heartbeat.
        let heartbeat = |flags: &[&str]| {
            parse_flags("batch", flags)
                .unwrap()
                .batch()
                .heartbeat
                .unwrap()
        };
        let hb = heartbeat(&["--heartbeat-out=hb.jsonl"]);
        assert_eq!(hb.interval_secs, 0);
        assert!(hb.out.is_some());
        let hb = heartbeat(&["--heartbeat-out=hb.jsonl", "--heartbeat=3"]);
        assert_eq!(hb.interval_secs, 3);
        assert!(hb.out.is_some());
        refuses(&[
            (
                "batch corpus --heartbeat=soon",
                "invalid heartbeat interval",
            ),
            ("batch corpus --heartbeat-out=", "--heartbeat-out"),
            ("batch corpus --out=", "--out"),
        ]);
    }

    #[test]
    fn batch_flags_default_off() {
        let invocation = parse_flags("batch", &[]).unwrap();
        assert_eq!(invocation.batch(), BatchOptions::default());
        assert!(!invocation.json);
        assert_eq!(invocation.shards, None);
        assert_eq!(invocation.shard, None);
        assert_eq!(invocation.shard_out, None);
        assert!(!invocation.resume);
    }

    #[test]
    fn shard_flags_parse_and_require_the_stream_file() {
        let invocation = parse_flags(
            "batch",
            &[
                "--shards=4",
                "--shard=2",
                "--shard-out=s2.jsonl",
                "--resume",
            ],
        )
        .unwrap();
        assert_eq!(invocation.shards, Some(4));
        assert_eq!(invocation.shard, Some(2));
        assert_eq!(invocation.shard_out.as_deref(), Some("s2.jsonl"));
        assert!(invocation.resume);
        // --shard-out alone is a one-shard streaming run.
        let invocation = parse_flags("batch", &["--shard-out=s.jsonl"]).unwrap();
        assert_eq!(invocation.shards, None);
        assert!(invocation.shard_out.is_some());
        refuses(&[
            ("batch corpus --shards=2", "--shard-out"),
            ("batch corpus --shard=0", "--shard-out"),
            ("batch corpus --resume", "--shard-out"),
            ("batch corpus --shards=0 --shard-out=s.jsonl", "at least 1"),
            (
                "batch corpus --shards=few --shard-out=s.jsonl",
                "invalid shard count",
            ),
            (
                "batch corpus --shard=k --shard-out=s.jsonl",
                "invalid shard index",
            ),
            ("batch corpus --shard-out=", "--shard-out"),
            ("batch corpus --cache=", "--cache"),
        ]);
    }

    #[test]
    fn analyze_cache_flag_is_bounds_only() {
        let invocation = parse_flags("analyze", &["--cache=.cache", "--jobs=2"]).unwrap();
        assert_eq!(invocation.cache.as_deref(), Some(".cache"));
        assert_eq!(invocation.analysis().parallelism, 2);
        refuses(&[
            ("analyze f.rtlb --cache=", "--cache"),
            ("analyze f.rtlb --cache=.cache --metrics=json", "--cache"),
            ("analyze f.rtlb --cache=.cache --metrics=text", "--cache"),
            (
                "analyze f.rtlb --cache=.cache --trace-out=t.json",
                "--cache",
            ),
        ]);
    }

    #[test]
    fn merge_options_take_files_and_flags_in_any_order() {
        let line = "merge-shards s0.jsonl --json s1.jsonl --out=aggregate.json";
        let (_, invocation) = parse_args(&argv(line)).unwrap().unwrap();
        assert_eq!(invocation.args, ["s0.jsonl", "s1.jsonl"]);
        assert!(invocation.json);
        assert_eq!(invocation.out.as_deref(), Some("aggregate.json"));
        refuses(&[
            ("merge-shards", "at least one"),
            ("merge-shards s0.jsonl --bogus", "unknown flag"),
            ("merge-shards s0.jsonl --out=", "--out"),
        ]);
    }

    #[test]
    fn batch_rejects_bad_tolerate_and_timeout() {
        refuses(&[
            ("batch corpus --tolerate=exploded", "unknown outcome"),
            ("batch corpus --timeout-ms=soon", "invalid timeout"),
            ("batch corpus --metrics=text", "unknown flag"),
        ]);
    }

    #[test]
    fn usage_mentions_every_batch_flag() {
        help_mentions(&["rtlb batch <dir|manifest>", "rtlb-batch-v1"], &[]);
    }

    #[test]
    fn usage_mentions_the_cache_and_shard_surface() {
        help_mentions(
            &[
                "rtlb merge-shards <file>...",
                "rtlb-batch-shard-v1",
                "rtlb-cache-v1",
            ],
            &[],
        );
    }

    #[test]
    fn serve_cache_flag_sets_the_cache_dir() {
        let config = parse_flags("serve", &["--cache=.rtlb-cache"])
            .unwrap()
            .serve();
        assert_eq!(config.cache_dir.as_deref(), Some(Path::new(".rtlb-cache")));
        refuses(&[("serve --cache=", "--cache")]);
    }

    #[test]
    fn usage_mentions_the_telemetry_surface() {
        help_mentions(&["rtlb-metrics-v1", "rtlb-heartbeat-v1"], &[]);
    }

    #[test]
    fn serve_flags_parse_together() {
        let invocation = parse_flags(
            "serve",
            &[
                "--addr=0.0.0.0:7421",
                "--max-sessions=3",
                "--max-inflight=9",
                "--deadline-ms=250",
                "--jobs=2",
                "--chunk=7",
                "--extended",
                "--propagation=filtered",
                "--metrics-out=m.json",
            ],
        )
        .unwrap();
        let config = invocation.serve();
        assert_eq!(config.addr, "0.0.0.0:7421");
        assert_eq!(config.max_sessions, 3);
        assert_eq!(config.max_inflight, 9);
        assert_eq!(config.default_deadline_ms, Some(250));
        assert_eq!(config.options.parallelism, 2);
        assert_eq!(config.options.chunk_columns, 7);
        assert_eq!(config.options.candidates, CandidatePolicy::Extended);
        assert_eq!(config.options.propagation, PropagationLevel::Filtered);
        assert_eq!(invocation.metrics_out.as_deref(), Some("m.json"));
    }

    #[test]
    fn serve_flags_default_to_serve_config_defaults() {
        let invocation = parse_flags("serve", &[]).unwrap();
        assert_eq!(invocation.serve(), ServeConfig::default());
        assert!(!invocation.telemetry());
        refuses(&[
            ("serve --addr=", "--addr"),
            ("serve --max-sessions=lots", "invalid session cap"),
            ("serve --max-inflight=-1", "invalid in-flight cap"),
            ("serve --deadline-ms=soon", "invalid deadline"),
            ("serve --bogus", "unknown flag"),
        ]);
    }

    #[test]
    fn usage_mentions_the_serve_surface() {
        help_mentions(
            &["rtlb serve", "rtlb check-report <file>...", "rtlb-rpc-v1"],
            &[
                "rtlb bench-serve",
                "--clients=",
                "--requests=",
                "--workload=",
                "rtlb-bench-v1",
            ],
        );
    }

    #[test]
    fn usage_documents_the_exit_code_table() {
        help_mentions(&["exit codes", "usage error"], &[]);
    }

    #[test]
    fn string_errors_default_to_run_failures() {
        let failure: Failure = "disk on fire".to_owned().into();
        assert_eq!(failure, Failure::Run("disk on fire".to_owned()));
    }

    #[test]
    fn scenario_flags_default_off() {
        let invocation = parse_flags("sweep-scenarios", &[]).unwrap();
        assert_eq!(invocation.analysis(), AnalysisOptions::default());
        assert!(!invocation.check);
        assert!(!invocation.json);
        refuses(&[("sweep-scenarios s.rtlbs --metrics=text", "unknown flag")]);
    }
}
