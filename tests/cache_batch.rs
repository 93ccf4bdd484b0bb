//! End-to-end tests of the content-addressed result cache and the
//! sharded, resumable batch pipeline.
//!
//! The contracts under test:
//!
//! * a warm cache serves every healthy instance without recomputation,
//!   and the served bounds are byte-identical to a cold run;
//! * content-identical files in one corpus cost exactly one analysis;
//! * a shard stream killed at *any* byte past its header resumes to the
//!   same completed state, and `merge-shards` of the resumed streams is
//!   byte-identical to an uninterrupted run's normalized report;
//! * a stream damaged anywhere but its final line is refused, not
//!   truncated, by `--resume`;
//! * a cache entry the shared decoder refuses is a miss, recomputed and
//!   overwritten;
//! * every bound the pipeline returns survives the shared bound-row
//!   codec, and `check-report` accepts every document that carries it;
//! * CRLF and duplicate manifest entries resolve like clean LF ones.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtlb::batch::{run_batch, run_batch_probed, BatchOptions, BatchReport, OutcomeKind};
use rtlb::cache::{bound_from_json, bound_json, entry_from_json, entry_json, NamedBounds};
use rtlb::core::{analyze_with, AnalysisOptions, PropagationLevel, SystemModel};
use rtlb::fmt::ContentKey;
use rtlb::graph::{Catalog, Dur, TaskGraph, TaskGraphBuilder, TaskSpec, Time};
use rtlb::obs::{json, Json, MetricsRegistry};
use rtlb::shard::{merge_shards, run_shard, ShardOptions};
use rtlb::workloads::framed_tasks;

const MIXED_DIR: &str = "examples/batch";
/// Healthy instances in the committed mixed corpus (the two small ones
/// plus the blessed dense mesh).
const MIXED_OK: u64 = 3;
/// Instances that parse — and therefore get a content key — but are
/// never cached because their outcome is not `ok` (infeasible,
/// overflow).
const MIXED_KEYED_UNCACHEABLE: u64 = 2;

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtlb-cache-batch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rtlb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rtlb"))
        .args(args)
        .output()
        .expect("rtlb runs")
}

/// Every file under `dir`, recursively, in sorted order.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// Everything about a report except wall-clock timing.
fn shape(report: &BatchReport) -> Vec<(PathBuf, OutcomeKind, Option<String>, usize)> {
    report
        .instances
        .iter()
        .map(|i| (i.path.clone(), i.kind, i.detail.clone(), i.bounds.len()))
        .collect()
}

fn normalized_json(mut report: BatchReport) -> String {
    report.normalize_timing();
    report.to_json().render()
}

/// The committed `dense_mesh.rtlb` corpus instance, regenerated from
/// its generator so the file can never drift from the workload it
/// claims to be.
fn dense_mesh_text() -> String {
    format!(
        "# Dense periodic workload: framed_tasks(100, 4, 42) — 400 tasks in 100\n\
         # time-disjoint frames on one processor with one shared resource.\n\
         # Blessed by `RTLB_BLESS_CORPUS=1 cargo test --test cache_batch`.\n\
         {}",
        rtlb::fmt::render(&framed_tasks(100, 4, 42), None, None)
    )
}

/// The committed corpus file matches its generator byte for byte. Run
/// with `RTLB_BLESS_CORPUS=1` to rewrite it after changing the
/// generator or the renderer.
#[test]
fn dense_mesh_corpus_file_matches_its_generator() {
    let path = Path::new("examples/batch/dense_mesh.rtlb");
    let expected = dense_mesh_text();
    if std::env::var_os("RTLB_BLESS_CORPUS").is_some() {
        std::fs::write(path, &expected).unwrap();
    }
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e}); bless it first", path.display()));
    assert_eq!(
        committed, expected,
        "dense_mesh.rtlb drifted from framed_tasks(100, 4, 42); \
         rebless with RTLB_BLESS_CORPUS=1"
    );
}

/// A second batch over the same corpus and cache directory answers
/// every healthy instance from the store — no recomputation, no drift.
#[test]
fn warm_batch_is_byte_identical_and_all_hits() {
    let dir = temp("warm");
    let options = BatchOptions {
        cache: Some(dir.join("cache")),
        ..BatchOptions::default()
    };

    let cold_registry = MetricsRegistry::new();
    let cold = run_batch_probed(Path::new(MIXED_DIR), &options, &cold_registry).unwrap();
    let cold_counters = cold_registry.snapshot();
    assert_eq!(cold_counters.counter("cache.hit"), 0);
    assert_eq!(
        cold_counters.counter("cache.miss"),
        MIXED_OK + MIXED_KEYED_UNCACHEABLE
    );
    assert_eq!(cold_counters.counter("cache.write"), MIXED_OK);

    let warm_registry = MetricsRegistry::new();
    let warm = run_batch_probed(Path::new(MIXED_DIR), &options, &warm_registry).unwrap();
    let warm_counters = warm_registry.snapshot();
    assert_eq!(warm_counters.counter("cache.hit"), MIXED_OK);
    assert_eq!(
        warm_counters.counter("cache.miss"),
        MIXED_KEYED_UNCACHEABLE,
        "only uncacheable outcomes are recomputed"
    );
    assert_eq!(warm_counters.counter("cache.write"), 0);

    assert_eq!(shape(&cold), shape(&warm));
    assert_eq!(
        warm.instances
            .iter()
            .map(|i| i.bounds.clone())
            .collect::<Vec<_>>(),
        cold.instances
            .iter()
            .map(|i| i.bounds.clone())
            .collect::<Vec<_>>(),
        "cached bounds must be byte-identical to recomputation"
    );
    assert_eq!(normalized_json(cold), normalized_json(warm));

    std::fs::remove_dir_all(&dir).ok();
}

/// Content-identical files (different names, reformatted text) in one
/// run are analyzed once: the representative's verdict replicates to
/// its aliases, and only one cache entry is written.
#[test]
fn content_identical_instances_cost_one_analysis() {
    let dir = temp("dedup");
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let text = std::fs::read_to_string("examples/batch/good_pipeline.rtlb").unwrap();
    std::fs::write(corpus.join("a.rtlb"), &text).unwrap();
    // Reformatted alias: extra comment and blank lines, same content.
    std::fs::write(
        corpus.join("b.rtlb"),
        format!("# an alias of a.rtlb, reformatted\n\n{text}\n"),
    )
    .unwrap();

    let registry = MetricsRegistry::new();
    let options = BatchOptions {
        cache: Some(dir.join("cache")),
        ..BatchOptions::default()
    };
    let report = run_batch_probed(&corpus, &options, &registry).unwrap();
    let counters = registry.snapshot();
    assert_eq!(counters.counter("cache.dedup"), 1);
    assert_eq!(counters.counter("cache.miss"), 1, "one consult per group");
    assert_eq!(counters.counter("cache.write"), 1);

    assert_eq!(report.instances.len(), 2);
    assert!(report.instances.iter().all(|i| i.kind == OutcomeKind::Ok));
    assert_eq!(
        report.instances[0].bounds, report.instances[1].bounds,
        "aliases carry their representative's bounds verbatim"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// CRLF line endings and duplicate entries in a manifest resolve to the
/// same (deduplicated) instance list as a clean LF manifest.
#[test]
fn crlf_and_duplicate_manifest_entries_collapse() {
    let dir = temp("manifest");
    let good = std::fs::canonicalize("examples/batch/good_pipeline.rtlb").unwrap();
    let fanout = std::fs::canonicalize("examples/batch/good_fanout.rtlb").unwrap();
    let manifest = dir.join("batch.list");
    std::fs::write(
        &manifest,
        format!(
            "# CRLF manifest with a duplicate\r\n\r\n{}\r\n{}\r\n{}\r\n",
            good.display(),
            fanout.display(),
            good.display()
        ),
    )
    .unwrap();

    let report = run_batch(&manifest, &BatchOptions::default()).unwrap();
    assert_eq!(
        report.instances.len(),
        2,
        "the duplicate entry must not be analyzed or counted twice"
    );
    assert_eq!(report.instances[0].path, good);
    assert_eq!(report.instances[1].path, fanout);
    assert!(report.instances.iter().all(|i| i.kind == OutcomeKind::Ok));

    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance cycle: shard the mixed corpus in two, kill shard 0
/// mid-stream (a torn final line), resume it, and merge — the aggregate
/// is byte-identical to an uninterrupted single-process run.
#[test]
fn kill_resume_merge_is_byte_identical_to_uninterrupted_run() {
    let dir = temp("resume");
    let target = Path::new(MIXED_DIR);
    let expected = normalized_json(run_batch(target, &BatchOptions::default()).unwrap());

    let shard_options = |shard: usize, resume: bool| ShardOptions {
        batch: BatchOptions::default(),
        shards: 2,
        shard,
        out: dir.join(format!("s{shard}.jsonl")),
        resume,
    };

    // Shard 0 runs to completion once, then the "kill": drop the last
    // complete row and leave a torn fragment of it behind.
    let full = run_shard(target, &shard_options(0, false)).unwrap();
    assert_eq!(full.assigned, 3);
    let stream = std::fs::read_to_string(dir.join("s0.jsonl")).unwrap();
    let lines: Vec<&str> = stream.lines().collect();
    assert_eq!(lines.len(), 1 + full.assigned, "header plus one row each");
    let torn = format!(
        "{}\n{}\n",
        lines[..lines.len() - 1].join("\n"),
        &lines[lines.len() - 1][..10]
    );
    std::fs::write(dir.join("s0.jsonl"), torn).unwrap();

    let resumed = run_shard(target, &shard_options(0, true)).unwrap();
    assert_eq!(resumed.assigned, 3);
    assert_eq!(resumed.resumed, 2, "the torn row is analyzed again");
    assert_eq!(shape(&full.report), shape(&resumed.report));

    // Shard 1 runs straight through in a "different process".
    run_shard(target, &shard_options(1, false)).unwrap();

    let merged = merge_shards(&[dir.join("s0.jsonl"), dir.join("s1.jsonl")]).unwrap();
    assert_eq!(
        merged.to_json().render(),
        expected,
        "merged aggregate must be byte-identical to the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A tiny corpus for the truncation property: two healthy instances,
/// a content-identical alias, and one malformed file.
fn tiny_corpus(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap();
    let a = "processor P\ntask t c=2 proc=P deadline=10\n";
    let b = "processor P\nresource r\ntask u c=3 proc=P uses=r deadline=9\n";
    std::fs::write(dir.join("a.rtlb"), a).unwrap();
    std::fs::write(dir.join("a_alias.rtlb"), format!("# alias\n{a}")).unwrap();
    std::fs::write(dir.join("b.rtlb"), b).unwrap();
    std::fs::write(dir.join("broken.rtlb"), "task without a processor\n").unwrap();
}

proptest! {
    /// Kill the single-shard stream at *any* byte offset past its
    /// atomically-written header: resume completes the shard and the
    /// merged aggregate never drifts from the uninterrupted run.
    #[test]
    fn resume_from_any_truncation_point_merges_identically(cut_frac in 0u32..1000) {
        let dir = std::env::temp_dir().join(format!(
            "rtlb-cache-batch-anycut-{}-{cut_frac}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = dir.join("corpus");
        tiny_corpus(&corpus);

        let options = |resume: bool| ShardOptions {
            batch: BatchOptions::default(),
            shards: 1,
            shard: 0,
            out: dir.join("s0.jsonl"),
            resume,
        };
        let expected = normalized_json(run_batch(&corpus, &BatchOptions::default()).unwrap());
        run_shard(&corpus, &options(false)).unwrap();
        let stream = std::fs::read_to_string(dir.join("s0.jsonl")).unwrap();

        // The header line is written atomically before any row, so a
        // kill can truncate anywhere in [header end, stream end].
        let header_end = stream.find('\n').unwrap() + 1;
        let cut = header_end + (stream.len() - header_end) * cut_frac as usize / 1000;
        std::fs::write(dir.join("s0.jsonl"), &stream[..cut]).unwrap();

        let resumed = run_shard(&corpus, &options(true)).unwrap();
        prop_assert_eq!(resumed.assigned, 4);
        let merged = merge_shards(&[dir.join("s0.jsonl")]).unwrap();
        prop_assert_eq!(merged.to_json().render(), expected);

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The sweep examines intervals of demand 0 for a resource that only a
/// zero-computation task demands, so its bound is `lb 0` *with* a
/// witness. The batch report, its shard stream and its cache entry all
/// carry that row, and `check-report` accepts each of them.
#[test]
fn zero_work_demander_passes_check_report_everywhere() {
    let dir = temp("zero-work");
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    std::fs::write(
        corpus.join("zero.rtlb"),
        "processor P\nresource z\ntask idle c=0 proc=P uses=z deadline=10\n\
         task work c=2 proc=P deadline=10\n",
    )
    .unwrap();
    let (report, stream, cache) = (
        dir.join("report.json"),
        dir.join("s0.jsonl"),
        dir.join("cache"),
    );
    let run = rtlb(&[
        "batch",
        corpus.to_str().unwrap(),
        &format!("--out={}", report.display()),
        &format!("--shard-out={}", stream.display()),
        &format!("--cache={}", cache.display()),
    ]);
    assert!(run.status.success(), "{run:?}");

    let doc = json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let z = &doc.get("instances").and_then(Json::as_arr).unwrap()[0]
        .get("bounds")
        .and_then(Json::as_arr)
        .unwrap()[1];
    assert_eq!(z.get("resource").and_then(Json::as_str), Some("z"));
    assert_eq!(z.get("lb").and_then(Json::as_int), Some(0));
    assert_eq!(
        z.get("witness").and_then(|w| w.get("demand")),
        Some(&Json::Int(0))
    );

    let mut files = vec![report, stream];
    files.extend(files_under(&cache));
    assert_eq!(files.len(), 4, "report, stream, cache index and one entry");
    for file in &files {
        let checked = rtlb(&["check-report", file.to_str().unwrap()]);
        assert!(
            checked.status.success(),
            "{}: {}",
            file.display(),
            String::from_utf8_lossy(&checked.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An entry rewritten to a bound its row cannot justify (`lb 8` with no
/// witness) is a miss: `analyze --cache` recomputes, prints the true
/// bounds, and stores the entry back byte for byte.
#[test]
fn tampered_cache_entry_is_recomputed_and_overwritten() {
    let dir = temp("tamper");
    let instance = "examples/batch/good_fanout.rtlb";
    let cache_flag = format!("--cache={}", dir.join("cache").display());
    let fresh = rtlb(&["analyze", instance, &cache_flag]);
    assert!(fresh.status.success(), "{fresh:?}");
    let entries: Vec<PathBuf> = files_under(&dir.join("cache"))
        .into_iter()
        .filter(|p| !p.ends_with("index.json"))
        .collect();
    assert_eq!(entries.len(), 1);
    let stored = std::fs::read_to_string(&entries[0]).unwrap();

    let mut doc = json::parse(&stored).unwrap();
    let Json::Obj(fields) = &mut doc else {
        panic!("entry is an object")
    };
    let Some((_, Json::Arr(rows))) = fields.iter_mut().find(|(k, _)| k == "bounds") else {
        panic!("entry has bounds")
    };
    let Json::Obj(row) = &mut rows[0] else {
        panic!("bound row is an object")
    };
    for (key, value) in row.iter_mut() {
        match key.as_str() {
            "lb" => *value = Json::Int(8),
            "witness" => *value = Json::Null,
            _ => {}
        }
    }
    std::fs::write(&entries[0], doc.render()).unwrap();

    let again = rtlb(&["analyze", instance, &cache_flag]);
    assert!(again.status.success(), "{again:?}");
    let status = String::from_utf8_lossy(&again.stderr);
    assert!(status.contains("cache miss"), "{status}");
    assert_eq!(
        again.stdout, fresh.stdout,
        "the true bounds, not the tampered one"
    );
    assert_eq!(std::fs::read_to_string(&entries[0]).unwrap(), stored);
    std::fs::remove_dir_all(&dir).ok();
}

/// A store that fails is reported, not claimed: with the entry's shard
/// directory replaced by a plain file, `analyze --cache` still prints
/// the bounds table and exits 0, and stderr says the entry was not
/// stored.
#[test]
fn failed_cache_store_is_reported_not_claimed() {
    let dir = temp("unstorable");
    let instance = "examples/instances/paper_fig7.rtlb";
    let cache_flag = format!("--cache={}", dir.join("cache").display());
    let fresh = rtlb(&["analyze", instance, &cache_flag]);
    assert!(fresh.status.success(), "{fresh:?}");
    let entries: Vec<PathBuf> = files_under(&dir.join("cache"))
        .into_iter()
        .filter(|p| !p.ends_with("index.json"))
        .collect();
    assert_eq!(entries.len(), 1);
    let shard = entries[0].parent().expect("entries sit in a shard dir");
    std::fs::remove_dir_all(shard).unwrap();
    std::fs::write(shard, "not a directory").unwrap();

    let again = rtlb(&["analyze", instance, &cache_flag]);
    assert_eq!(again.status.code(), Some(0), "{again:?}");
    assert_eq!(again.stdout, fresh.stdout, "the same bounds table");
    let status = String::from_utf8_lossy(&again.stderr);
    assert!(status.contains("not stored"), "{status}");
    assert!(!entries[0].exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A kill can tear only the final line. An undecodable line with rows
/// after it is damage `--resume` must not paper over: it names the line
/// and leaves the stream as it was, rows after the damage included.
#[test]
fn resume_refuses_a_corrupt_middle_line_and_leaves_the_stream() {
    let dir = temp("corrupt-middle");
    let corpus = dir.join("corpus");
    tiny_corpus(&corpus);
    let options = ShardOptions {
        batch: BatchOptions::default(),
        shards: 1,
        shard: 0,
        out: dir.join("s0.jsonl"),
        resume: true,
    };
    run_shard(
        &corpus,
        &ShardOptions {
            resume: false,
            ..options.clone()
        },
    )
    .unwrap();
    let stream = std::fs::read_to_string(&options.out).unwrap();
    let mut lines: Vec<&str> = stream.lines().collect();
    assert_eq!(lines.len(), 5, "header plus four rows");
    lines[1] = r#"{"path":"#;
    let damaged = format!("{}\n", lines.join("\n"));
    std::fs::write(&options.out, &damaged).unwrap();

    let err = run_shard(&corpus, &options).unwrap_err();
    assert!(err.contains("line 2"), "{err}");
    assert_eq!(std::fs::read_to_string(&options.out).unwrap(), damaged);
    std::fs::remove_dir_all(&dir).ok();
}

/// A small random instance for the codec round trip: tasks with
/// computation 0 to 3 and sparse precedence. Every zero-computation
/// task demands `z`, so `z`'s bound is often `lb 0` with a witness, and
/// without a witness when each such task has a zero-width window.
fn codec_instance(seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut catalog = Catalog::new();
    let p = catalog.processor("P");
    let r = catalog.resource("r");
    let z = catalog.resource("z");
    let mut builder = TaskGraphBuilder::new(catalog);
    let n = rng.random_range(1..=6);
    let mut ids = Vec::new();
    for i in 0..n {
        let c = rng.random_range(0..=3);
        let release = rng.random_range(0..6);
        let slack = rng.random_range(0..=6);
        let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(c), p)
            .release(Time::new(release))
            .deadline(Time::new(release + c + slack));
        if c == 0 {
            spec = spec.resource(z);
        }
        if rng.random_range(0..100) < 50 {
            spec = spec.resource(r);
        }
        ids.push(builder.add_task(spec).unwrap());
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_range(0..100) < 20 {
                builder.add_edge(ids[i], ids[j], Dur::new(0)).unwrap();
            }
        }
    }
    builder.build().unwrap()
}

proptest! {
    /// Every bound `analyze_with` returns, at both propagation levels,
    /// decodes back to itself through the shared bound-row codec —
    /// alone and inside a cache entry.
    #[test]
    fn every_analyzed_bound_round_trips_through_the_shared_codec(seed in 0u64..100_000) {
        let graph = codec_instance(seed);
        for level in [PropagationLevel::Timeline, PropagationLevel::Filtered] {
            let options = AnalysisOptions { propagation: level, ..AnalysisOptions::default() };
            let Ok(analysis) = analyze_with(&graph, &SystemModel::shared(), options) else {
                continue;
            };
            let named: NamedBounds = analysis
                .bounds()
                .iter()
                .map(|b| (graph.catalog().name(b.resource).to_owned(), *b))
                .collect();
            for (name, bound) in &named {
                let row = json::parse(&bound_json(name, bound).render()).unwrap();
                prop_assert_eq!(
                    bound_from_json(&row, "bound", bound.resource),
                    Ok((name.clone(), *bound))
                );
            }
            let key = ContentKey::of(&seed.to_le_bytes());
            let entry = json::parse(&entry_json(key, "fp", &named).render()).unwrap();
            prop_assert_eq!(entry_from_json(&entry), Ok((key, named)));
        }
    }
}
