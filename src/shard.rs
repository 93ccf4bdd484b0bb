//! Sharded, resumable batch runs and their deterministic merge.
//!
//! `rtlb batch --shards=N --shard=K --shard-out=FILE` runs the `K`-th
//! of `N` deterministic slices of a corpus (instance `i` of the
//! discovery order belongs to shard `i mod N`), **streaming** one
//! result line per instance into `FILE` as it finishes. The file is the
//! checkpoint: kill the process at any point and `--resume` replays the
//! completed lines — tolerating a torn final line from the kill, and
//! refusing a stream damaged anywhere else — and analyzes only what is
//! left. Completed `ok` results double as an in-memory cache on resume,
//! so aliases of an already-finished representative are served without
//! recomputation even without `--cache`.
//!
//! The stream format (`rtlb-batch-shard-v1`) is line-delimited JSON: a
//! header line pinning the corpus (`root`, `shards`, `shard`, `total`),
//! then one [`outcome_json`](crate::batch) row per instance with its
//! content `key` attached. One reader (`read_stream`) serves `--resume`,
//! `merge-shards` and `rtlb check-report`, so the three agree on what a
//! valid stream is. `rtlb merge-shards FILE...` folds complete shard
//! files back into one `rtlb-batch-v1` aggregate. The merge is
//! **deterministic by construction**: rows sort by instance path and
//! every wall-clock field is zeroed ([`BatchReport::normalize_timing`]),
//! so straight-through, killed-and-resumed, and differently-interleaved
//! runs of the same corpus produce byte-identical aggregates. Timings
//! live in the shard files, which keep their measured micros.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use rtlb_cache::{write_atomic, NamedBounds};
use rtlb_format::ContentKey;
use rtlb_obs::{json, Json, Probe, NULL_PROBE};

use crate::batch::{
    collect_instances, drive, outcome_from_json, outcome_json, BatchOptions, BatchReport,
    InstanceOutcome, OutcomeKind,
};

/// Schema tag of the shard stream's header line.
pub const SHARD_SCHEMA: &str = "rtlb-batch-shard-v1";

/// How to run one shard of a corpus.
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// The per-instance batch options (analysis knobs, jobs, timeout,
    /// heartbeat, cache).
    pub batch: BatchOptions,
    /// Total number of shards the corpus is split into (≥ 1).
    pub shards: usize,
    /// Which shard this invocation runs (0-based, `< shards`).
    pub shard: usize,
    /// The `rtlb-batch-shard-v1` stream file this shard writes.
    pub out: PathBuf,
    /// Resume from an existing stream file: completed instances are
    /// kept, only the remainder is analyzed. Without this flag an
    /// existing file is started over.
    pub resume: bool,
}

impl ShardOptions {
    /// Checks a split of the corpus into `shards` slices, of which
    /// `shard` is to run: at least one slice, and `shard < shards`.
    ///
    /// # Errors
    ///
    /// A message naming the `--shards=` / `--shard=` flags at fault.
    pub fn check_split(shards: usize, shard: usize) -> Result<(), String> {
        if shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        if shard >= shards {
            return Err(format!(
                "--shard={shard} out of range for --shards={shards}"
            ));
        }
        Ok(())
    }
}

/// What one shard invocation did.
#[derive(Clone, Debug)]
pub struct ShardSummary {
    /// Instances assigned to this shard by the deterministic split.
    pub assigned: usize,
    /// Instances replayed from the stream file (`--resume`).
    pub resumed: usize,
    /// The shard's report over all assigned instances (replayed and
    /// fresh), in discovery order. `total_micros` is this invocation's
    /// wall time.
    pub report: BatchReport,
}

/// Runs one shard of the corpus under `target`; see the module docs.
///
/// # Errors
///
/// Driver-level problems only: a split that
/// [`ShardOptions::check_split`] refuses, unreadable corpus, an
/// unwritable stream file, or a resume file that the stream reader refuses or that
/// disagrees with the current invocation (different corpus size, shard
/// split, or root) — the file is then left as it was. Per-instance
/// failures are outcomes in the stream, not errors.
pub fn run_shard(target: &Path, options: &ShardOptions) -> Result<ShardSummary, String> {
    run_shard_probed(target, options, &NULL_PROBE)
}

/// [`run_shard`] with a telemetry sink attached (same contract as
/// [`run_batch_probed`](crate::batch::run_batch_probed)).
///
/// # Errors
///
/// As [`run_shard`].
pub fn run_shard_probed(
    target: &Path,
    options: &ShardOptions,
    probe: &dyn Probe,
) -> Result<ShardSummary, String> {
    ShardOptions::check_split(options.shards, options.shard)?;
    let inputs = collect_instances(target)?;
    if inputs.is_empty() {
        return Err(format!("no .rtlb instances under {}", target.display()));
    }
    let assigned: Vec<PathBuf> = inputs
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % options.shards == options.shard)
        .map(|(_, p)| p)
        .collect();

    let header = ShardHeader {
        root: target.display().to_string(),
        shards: options.shards,
        shard: options.shard,
        total: assigned.len(),
    };

    let started = Instant::now();

    // Replay the stream file on resume: keep its complete rows (a kill
    // can tear only the final line), drop rows that are not in this
    // shard's assignment, and rewrite the checkpoint so the append
    // stream continues from a clean state. A stream the reader refuses
    // is left as it is: rewriting it would drop the rows after the
    // damage.
    let mut replayed: BTreeMap<PathBuf, (InstanceOutcome, Option<ContentKey>)> = BTreeMap::new();
    if options.resume {
        match std::fs::read_to_string(&options.out) {
            Ok(text) => {
                let stream = read_stream(&text)
                    .map_err(|e| format!("{}: {e} (cannot resume)", options.out.display()))?;
                if stream.header != header {
                    return Err(format!(
                        "{}: resume header {} does not match this invocation's {} — the \
                         corpus or shard split changed",
                        options.out.display(),
                        stream.header.to_json().render(),
                        header.to_json().render(),
                    ));
                }
                let assigned_set: BTreeSet<&PathBuf> = assigned.iter().collect();
                for (outcome, key) in stream.rows {
                    if assigned_set.contains(&outcome.path) {
                        replayed
                            .entry(outcome.path.clone())
                            .or_insert((outcome, key));
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(format!("cannot read {}: {e}", options.out.display()));
            }
        }
    }
    let mut checkpoint = header.to_json().render();
    checkpoint.push('\n');
    for (outcome, key) in replayed.values() {
        checkpoint.push_str(&stream_row(outcome, *key).render());
        checkpoint.push('\n');
    }
    write_atomic(&options.out, &checkpoint)?;

    // Completed `ok` rows act as a resume-local result cache: an alias
    // (same content key) of a finished representative is served from
    // the replayed bounds instead of being analyzed again.
    let mut preloaded: BTreeMap<ContentKey, NamedBounds> = BTreeMap::new();
    for (outcome, key) in replayed.values() {
        if let (OutcomeKind::Ok, Some(key)) = (outcome.kind, key) {
            preloaded
                .entry(*key)
                .or_insert_with(|| outcome.bounds.clone());
        }
    }

    let remaining: Vec<PathBuf> = assigned
        .iter()
        .filter(|p| !replayed.contains_key(*p))
        .cloned()
        .collect();

    let mut fresh: BTreeMap<PathBuf, InstanceOutcome> = BTreeMap::new();
    if !remaining.is_empty() {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&options.out)
            .map_err(|e| format!("cannot append to {}: {e}", options.out.display()))?;
        let writer = Mutex::new(file);
        let completed = drive(
            &remaining,
            &options.batch,
            probe,
            &preloaded,
            &|outcome, key| {
                let mut file = writer.lock().expect("stream writer poisoned");
                // One row per line, flushed as the instance finishes: the
                // line is the checkpoint granularity.
                let _ = writeln!(file, "{}", stream_row(outcome, key).render());
                let _ = file.flush();
            },
        )?;
        for outcome in completed {
            fresh.insert(outcome.path.clone(), outcome);
        }
    }

    let instances: Vec<InstanceOutcome> = assigned
        .iter()
        .map(|p| {
            replayed
                .get(p)
                .map(|(outcome, _)| outcome.clone())
                .or_else(|| fresh.get(p).cloned())
                .expect("every assigned instance decided")
        })
        .collect();
    Ok(ShardSummary {
        assigned: assigned.len(),
        resumed: replayed.len(),
        report: BatchReport {
            root: target.display().to_string(),
            instances,
            total_micros: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        },
    })
}

/// Merges complete shard stream files into the aggregate `rtlb-batch-v1`
/// report: rows from every shard, sorted by instance path, wall-clock
/// fields zeroed — byte-identical however the shards were produced.
///
/// # Errors
///
/// Unreadable files, streams the stream reader refuses, torn files
/// (resume the shard first), a header mismatch across files (different
/// corpus or split), missing or duplicate shards, an incomplete shard
/// (fewer rows than its header's `total`), or the same instance path
/// appearing twice.
pub fn merge_shards(files: &[PathBuf]) -> Result<BatchReport, String> {
    if files.is_empty() {
        return Err("merge-shards needs at least one shard file".into());
    }
    let mut first: Option<ShardHeader> = None;
    let mut seen_shards: BTreeSet<usize> = BTreeSet::new();
    let mut instances: Vec<InstanceOutcome> = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let stream = read_stream(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if let Some(line) = stream.torn {
            return Err(format!(
                "{}: line {line}: invalid stream row torn by a kill (resume the shard to repair)",
                file.display()
            ));
        }
        let header = stream.header;
        let run = first.get_or_insert_with(|| header.clone());
        if run.root != header.root || run.shards != header.shards {
            return Err(format!(
                "{}: shard of a different run (root {:?} / {} shards, expected {:?} / {})",
                file.display(),
                header.root,
                header.shards,
                run.root,
                run.shards
            ));
        }
        if !seen_shards.insert(header.shard) {
            return Err(format!(
                "{}: duplicate shard {}",
                file.display(),
                header.shard
            ));
        }
        if stream.rows.len() != header.total {
            return Err(format!(
                "{}: incomplete shard — {} of {} instances done (resume it first)",
                file.display(),
                stream.rows.len(),
                header.total
            ));
        }
        instances.extend(stream.rows.into_iter().map(|(outcome, _)| outcome));
    }
    let run = first.expect("at least one file");
    let missing: Vec<String> = (0..run.shards)
        .filter(|s| !seen_shards.contains(s))
        .map(|s| s.to_string())
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "missing shard file(s) for shard {}",
            missing.join(", ")
        ));
    }

    instances.sort_by(|a, b| a.path.cmp(&b.path));
    for window in instances.windows(2) {
        if window[0].path == window[1].path {
            return Err(format!(
                "instance {} appears in more than one shard",
                window[0].path.display()
            ));
        }
    }
    let mut report = BatchReport {
        root: run.root,
        instances,
        total_micros: 0,
    };
    report.normalize_timing();
    Ok(report)
}

/// The header line of a shard stream: which corpus, which slice of
/// it, and how many instances that slice holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ShardHeader {
    /// The corpus directory or manifest the shard was run on.
    pub(crate) root: String,
    /// Number of shards the corpus is split into (≥ 1).
    pub(crate) shards: usize,
    /// This stream's shard (`< shards`).
    pub(crate) shard: usize,
    /// Instances the split assigns to this shard.
    pub(crate) total: usize,
}

impl ShardHeader {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SHARD_SCHEMA)),
            ("root", Json::str(self.root.as_str())),
            ("shards", Json::Int(self.shards as i64)),
            ("shard", Json::Int(self.shard as i64)),
            ("total", Json::Int(self.total as i64)),
        ])
    }

    /// Reads the header line; the split must be valid (`shard <
    /// shards`, hence `shards ≥ 1`).
    fn from_line(line: &str) -> Result<ShardHeader, String> {
        let doc = header_doc(line)?;
        let count = |key: &str| {
            let n = json::nonneg_field(&doc, "", key)?;
            usize::try_from(n).map_err(|_| format!("{key}: {n} is out of range"))
        };
        let header = ShardHeader {
            root: json::str_field(&doc, "", "root")?.to_owned(),
            shards: count("shards")?,
            shard: count("shard")?,
            total: count("total")?,
        };
        if header.shard >= header.shards {
            return Err(format!(
                "shard {} of {} is not a valid split",
                header.shard, header.shards
            ));
        }
        Ok(header)
    }
}

/// The first line parsed as JSON, if it carries the stream's schema tag.
fn header_doc(line: &str) -> Result<Json, String> {
    let doc = json::parse(line).map_err(|e| format!("invalid header JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SHARD_SCHEMA) {
        return Err(format!("not an {SHARD_SCHEMA} header"));
    }
    Ok(doc)
}

/// Whether `text` opens with a shard-stream header line — how `rtlb
/// check-report` tells a stream from a single JSON document (whose
/// pretty-printed first line `{` does not parse on its own).
pub(crate) fn is_stream(text: &str) -> bool {
    header_doc(text.lines().next().unwrap_or("")).is_ok()
}

/// One decoded shard stream.
#[derive(Debug)]
pub(crate) struct ShardStream {
    pub(crate) header: ShardHeader,
    /// The complete rows in stream order, each with its instance's
    /// content key (`None` for parse failures).
    pub(crate) rows: Vec<(InstanceOutcome, Option<ContentKey>)>,
    /// The 1-based number of a torn final line, the one mark a kill
    /// mid-write leaves.
    pub(crate) torn: Option<usize>,
}

/// Reads a shard stream — the one reader behind `--resume`,
/// `merge-shards` and `rtlb check-report`. The header must describe a
/// valid split; every row is an [`outcome_json`] row plus its content
/// `key` (null or 128-bit hex); and a line counts as torn only when it
/// is the final line and is not valid JSON, which is all a kill
/// mid-write can produce. The rows (torn line included) may not
/// outnumber the header's `total`.
///
/// # Errors
///
/// A message naming the offending line (1-based) and field.
pub(crate) fn read_stream(text: &str) -> Result<ShardStream, String> {
    let mut lines = text.lines();
    let header = ShardHeader::from_line(lines.next().ok_or("empty shard stream")?)
        .map_err(|e| format!("line 1: {e}"))?;
    let mut rows = Vec::new();
    let mut torn = None;
    let mut lines = (2..).zip(lines).peekable();
    while let Some((lineno, line)) = lines.next() {
        let path = format!("line {lineno}");
        let doc = match json::parse(line) {
            Ok(doc) => doc,
            Err(_) if lines.peek().is_none() => {
                torn = Some(lineno);
                break;
            }
            Err(e) => return Err(format!("{path}: invalid JSON: {e}")),
        };
        let outcome = outcome_from_json(&doc, &path)?;
        let key = match doc.get("key") {
            None => return Err(format!("{path}: missing `key`")),
            Some(Json::Null) => None,
            Some(key) => match key.as_str().and_then(ContentKey::parse) {
                Some(key) => Some(key),
                None => {
                    return Err(format!(
                        "{path}.key: must be null or a 128-bit hex content key"
                    ))
                }
            },
        };
        rows.push((outcome, key));
    }
    let written = rows.len() + usize::from(torn.is_some());
    if written > header.total {
        return Err(format!(
            "stream has {written} row(s) but the header assigned only {}",
            header.total
        ));
    }
    Ok(ShardStream { header, rows, torn })
}

/// One stream line: the batch row plus the instance's content key.
fn stream_row(outcome: &InstanceOutcome, key: Option<ContentKey>) -> Json {
    let Json::Obj(mut fields) = outcome_json(outcome) else {
        unreachable!("outcome_json returns an object")
    };
    fields.push((
        "key".to_owned(),
        key.map_or(Json::Null, |k| Json::str(k.to_hex())),
    ));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(path: &str, kind: OutcomeKind) -> InstanceOutcome {
        InstanceOutcome {
            path: PathBuf::from(path),
            kind,
            detail: (kind != OutcomeKind::Ok).then(|| "why".to_owned()),
            micros: 123,
            bounds: Vec::new(),
        }
    }

    fn stream_text(shard: usize, shards: usize, total: usize, rows: &[InstanceOutcome]) -> String {
        let header = Json::obj([
            ("schema", Json::str(SHARD_SCHEMA)),
            ("root", Json::str("corpus")),
            ("shards", Json::Int(shards as i64)),
            ("shard", Json::Int(shard as i64)),
            ("total", Json::Int(total as i64)),
        ]);
        let mut text = header.render();
        text.push('\n');
        for row in rows {
            text.push_str(&stream_row(row, Some(ContentKey::of(b"k"))).render());
            text.push('\n');
        }
        text
    }

    #[test]
    fn stream_rows_round_trip_through_parse() {
        let rows = vec![
            outcome("a.rtlb", OutcomeKind::Ok),
            outcome("b.rtlb", OutcomeKind::ParseError),
        ];
        let text = stream_text(0, 1, 2, &rows);
        let stream = read_stream(&text).unwrap();
        assert_eq!(stream.torn, None);
        assert_eq!(stream.rows.len(), 2);
        assert_eq!(stream.rows[0].0, rows[0]);
        assert_eq!(stream.rows[0].1, Some(ContentKey::of(b"k")));
        assert_eq!(stream.rows[1].0.detail.as_deref(), Some("why"));
    }

    #[test]
    fn torn_tail_is_dropped_on_resume_but_fatal_on_merge() {
        let rows = vec![outcome("a.rtlb", OutcomeKind::Ok)];
        let mut text = stream_text(0, 1, 2, &rows);
        text.push_str("{\"path\":\"b.rtlb\",\"outco"); // the kill tore here
        let stream = read_stream(&text).unwrap();
        assert_eq!(stream.rows.len(), 1, "torn line dropped");
        assert_eq!(stream.torn, Some(3));
        let path = std::env::temp_dir().join(format!("rtlb-shard-torn-{}", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let err = merge_shards(std::slice::from_ref(&path)).unwrap_err();
        assert!(err.contains("invalid stream row"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn merge_rejects_incomplete_missing_and_duplicate_shards() {
        let dir = std::env::temp_dir().join(format!("rtlb-shard-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path
        };

        // Incomplete: header says 2, only 1 row.
        let incomplete = write(
            "incomplete.jsonl",
            &stream_text(0, 1, 2, &[outcome("a.rtlb", OutcomeKind::Ok)]),
        );
        let err = merge_shards(std::slice::from_ref(&incomplete)).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");

        // Missing shard 1 of 2.
        let s0 = write(
            "s0.jsonl",
            &stream_text(0, 2, 1, &[outcome("a.rtlb", OutcomeKind::Ok)]),
        );
        let err = merge_shards(std::slice::from_ref(&s0)).unwrap_err();
        assert!(err.contains("missing shard"), "{err}");

        // The same shard twice.
        let err = merge_shards(&[s0.clone(), s0.clone()]).unwrap_err();
        assert!(err.contains("duplicate shard"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_refuses_what_check_report_refuses() {
        let dir = std::env::temp_dir().join(format!("rtlb-shard-refuse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // A row without `key`: the same line-numbered message as
        // `check-report`, prefixed with the file.
        let mut text = stream_text(0, 1, 1, &[]);
        text.push_str(&outcome_json(&outcome("a.rtlb", OutcomeKind::Ok)).render());
        text.push('\n');
        let keyless = dir.join("keyless.jsonl");
        std::fs::write(&keyless, &text).unwrap();
        let err = merge_shards(std::slice::from_ref(&keyless)).unwrap_err();
        let checked = crate::check::check_shard_stream(&text).unwrap_err();
        assert!(checked.contains("line 2: missing `key`"), "{checked}");
        assert_eq!(err, format!("{}: {checked}", keyless.display()));

        // A header that splits the corpus into no shards at all.
        let no_split = dir.join("no-split.jsonl");
        std::fs::write(&no_split, stream_text(0, 0, 0, &[])).unwrap();
        let err = merge_shards(&[no_split]).unwrap_err();
        assert!(err.contains("not a valid split"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_sorts_rows_and_zeroes_timing_regardless_of_file_order() {
        let dir = std::env::temp_dir().join(format!("rtlb-shard-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let s0 = dir.join("s0.jsonl");
        let s1 = dir.join("s1.jsonl");
        std::fs::write(
            &s0,
            stream_text(0, 2, 1, &[outcome("b.rtlb", OutcomeKind::Ok)]),
        )
        .unwrap();
        std::fs::write(
            &s1,
            stream_text(1, 2, 1, &[outcome("a.rtlb", OutcomeKind::Infeasible)]),
        )
        .unwrap();
        let forward = merge_shards(&[s0.clone(), s1.clone()]).unwrap();
        let backward = merge_shards(&[s1, s0]).unwrap();
        assert_eq!(forward.to_json().render(), backward.to_json().render());
        assert_eq!(forward.instances[0].path, PathBuf::from("a.rtlb"));
        assert_eq!(forward.total_micros, 0);
        assert!(forward.instances.iter().all(|i| i.micros == 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
