//! The `batch-corpus` workload: `run_batch` with one worker, the
//! `filtered` propagation level and a result cache that set-up pre-fills
//! with half the unique instances.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rtlb::batch::{run_batch, BatchOptions, BatchReport};
use rtlb_cache::ResultCache;
use rtlb_core::{
    analyze_with, analyze_with_probe, AnalysisOptions, OutcomeKind, PropagationLevel,
    ResourceBound, SystemModel,
};
use rtlb_format::ContentKey;
use rtlb_graph::TaskGraph;
use rtlb_workloads::{fork_join, framed_tasks, layered, LayeredConfig};

use crate::check::{self, BoundRow};
use crate::trace::Tracer;
use crate::{
    dump_spans, end_to_end, interleave, per_layer, Args, Replay, Replayed, Report, Timed, SETUPS,
};

/// Jobs (manifests); every op runs one job. Each job lists
/// [`UNIQUE_PER_JOB`] unique instances, then two reformatted duplicates.
const JOBS: usize = 6;
const UNIQUE_PER_JOB: usize = 6;

/// One unique instance of the corpus.
struct Unique {
    key: ContentKey,
    expected: Vec<BoundRow>,
    prefilled: bool,
}

/// One manifest: the unique instances it lists, then two duplicates.
struct Job {
    manifest: PathBuf,
    /// Unique index behind each manifest entry, in manifest order.
    entries: Vec<usize>,
}

struct Corpus {
    uniques: Vec<Unique>,
    jobs: Vec<Job>,
    prefill: PathBuf,
    cache_dir: PathBuf,
}

/// The graph of unique instance `slot` of job `job`, and whether set-up
/// pre-fills the cache with it. Every job has the same shape — one
/// framed, one layered and one fork-join instance of 50 to 400 tasks
/// pre-filled (a hit), one of each family missed — so ops cost alike
/// whatever the job; the seed changes only the instances' content.
/// Filtered propagation on layered DAGs grows steeply with size (about
/// 2 ms at 50 tasks, 12 ms at 100 on the reference machine), so the
/// layered miss is the 50-task one.
fn instance(job: usize, slot: usize, seed: u64) -> (TaskGraph, bool) {
    let seed = seed
        .wrapping_mul(7919)
        .wrapping_add((job * UNIQUE_PER_JOB + slot) as u64);
    let layered_of = |layers| {
        let config = LayeredConfig {
            layers,
            width: 10,
            ..LayeredConfig::default()
        };
        layered(&config, seed)
    };
    match slot {
        0 => (framed_tasks(13, 4, seed), true),
        1 => (framed_tasks(100, 4, seed), false),
        2 => (layered_of(10), true),
        3 => (layered_of(5), false),
        4 => (fork_join(8, 12, 2, seed), true),
        _ => (fork_join(12, 32, 2, seed), false),
    }
}

/// A presentation variant with the same canonical content: comments,
/// blank lines, doubled spaces and reversed `key=value` fields. Task and
/// edge order are kept, so the parse yields the same graph.
fn reformat(text: &str) -> String {
    let mut out = String::from("# reformatted duplicate\n\n");
    for line in text.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.first() {
            Some(&"task") if tokens.len() > 2 => {
                let mut fields = tokens[2..].to_vec();
                fields.reverse();
                out.push_str(&format!("task  {}  {}\n", tokens[1], fields.join("  ")));
            }
            Some(_) => out.push_str(&format!("  {}   # kept\n", tokens.join("  "))),
            None => out.push('\n'),
        }
    }
    out
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn options(cache_dir: &Path) -> BatchOptions {
    BatchOptions {
        analysis: AnalysisOptions {
            propagation: PropagationLevel::Filtered,
            ..AnalysisOptions::default()
        },
        jobs: 1,
        cache: Some(cache_dir.to_path_buf()),
        ..BatchOptions::default()
    }
}

/// Writes the corpus, its manifests and the pre-fill manifest, and
/// computes each unique instance's reference and cache key.
fn build_corpus(dir: &Path, seed: u64) -> Result<Corpus, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let analysis = options(dir).analysis;
    let fingerprint = analysis.semantic_fingerprint();
    let mut uniques = Vec::new();
    let mut jobs = Vec::new();
    let mut prefill = String::new();
    for job in 0..JOBS {
        let mut entries = Vec::new();
        let mut manifest = String::new();
        let mut texts = Vec::new();
        for slot in 0..UNIQUE_PER_JOB {
            let (graph, prefilled) = instance(job, slot, seed);
            let reference = analyze_with(&graph, &SystemModel::shared(), analysis)
                .map_err(|e| format!("reference analysis failed: {e}"))?;
            let text = rtlb_format::render(&graph, None, None);
            let name = format!("j{job}_u{slot}.rtlb");
            write(&dir.join(&name), &text)?;
            let parsed = rtlb_format::parse(&text).map_err(|e| format!("corpus text: {e}"))?;
            if prefilled {
                prefill.push_str(&name);
                prefill.push('\n');
            }
            entries.push(uniques.len());
            manifest.push_str(&name);
            manifest.push('\n');
            uniques.push(Unique {
                key: rtlb_format::content_key(&parsed, &fingerprint),
                expected: check::rows(&graph, reference.bounds()),
                prefilled,
            });
            texts.push(text);
        }
        // One duplicate of a pre-filled instance, one of a miss.
        for slot in [0, 3] {
            let name = format!("j{job}_dup{slot}.rtlb");
            write(&dir.join(&name), &reformat(&texts[slot]))?;
            entries.push(entries[slot]);
            manifest.push_str(&name);
            manifest.push('\n');
        }
        let path = dir.join(format!("job{job}.txt"));
        write(&path, &manifest)?;
        jobs.push(Job {
            manifest: path,
            entries,
        });
    }
    let prefill_path = dir.join("prefill.txt");
    write(&prefill_path, &prefill)?;
    Ok(Corpus {
        uniques,
        jobs,
        prefill: prefill_path,
        cache_dir: dir.join("cache"),
    })
}

impl Corpus {
    /// Whether a report answers every entry `ok` with its reference.
    fn matches(&self, job: &Job, report: &BatchReport) -> bool {
        report.instances.len() == job.entries.len()
            && report.instances.iter().zip(&job.entries).all(|(row, &u)| {
                row.kind == OutcomeKind::Ok
                    && check::named_rows(&row.bounds) == self.uniques[u].expected
            })
    }

    /// Takes back what an op stored, so every op of a job makes the same
    /// hits, misses and stores. Not part of any op's time.
    fn restore(&self, cache: &ResultCache, job: &Job) {
        for &u in &job.entries {
            if !self.uniques[u].prefilled {
                let _ = std::fs::remove_file(cache.entry_path(self.uniques[u].key));
            }
        }
    }

    /// One set-up: a fresh cache pre-filled by `run_batch`, then one
    /// warm-up op per job. Returns the time spent in `run_batch`.
    fn set_up(&self, options: &BatchOptions) -> Result<(ResultCache, f64), String> {
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        let started = Instant::now();
        let prefill = run_batch(&self.prefill, options)?;
        let mut program = started.elapsed();
        if prefill.instances.iter().any(|i| i.kind != OutcomeKind::Ok) {
            return Err("cache pre-fill did not answer ok".to_owned());
        }
        let cache = ResultCache::open(&self.cache_dir)?;
        for job in &self.jobs {
            let started = Instant::now();
            run_batch(&job.manifest, options)?;
            program += started.elapsed();
            self.restore(&cache, job);
        }
        Ok((cache, program.as_secs_f64()))
    }
}

/// The untraced closed loop over the jobs; `run_until` resumes the cycle
/// where its last call stopped.
struct Untraced<'a> {
    corpus: &'a Corpus,
    cache: &'a ResultCache,
    options: &'a BatchOptions,
    timed: &'a mut Timed,
    op: usize,
}

impl<'a> Untraced<'a> {
    fn new(
        corpus: &'a Corpus,
        cache: &'a ResultCache,
        options: &'a BatchOptions,
        timed: &'a mut Timed,
    ) -> Self {
        Untraced {
            corpus,
            cache,
            options,
            timed,
            op: 0,
        }
    }

    fn run_until(&mut self, deadline: Instant) -> Result<(), String> {
        let jobs = &self.corpus.jobs;
        while Instant::now() < deadline {
            let position = self.op % jobs.len();
            let job = &jobs[position];
            let sent = Instant::now();
            let report = run_batch(&job.manifest, self.options);
            self.timed.record(sent, position, jobs.len());
            if report.is_ok_and(|r| self.corpus.matches(job, &r)) {
                self.timed.succeeded += 1;
            }
            self.corpus.restore(self.cache, job);
            self.op += 1;
        }
        Ok(())
    }
}

/// `run_batch` replayed in-process, one span per layer call, in the
/// driver's phase order: scan (read, parse, key) every entry; look up
/// each distinct key in key order; read, parse, analyze and store each
/// miss; replicate to aliases. Reading files, the manifest and opening
/// the cache are the driver's own work and stay outside layer spans.
struct BatchReplay<'a> {
    corpus: &'a Corpus,
    options: &'a BatchOptions,
    fingerprint: String,
    lookups: u64,
    hits: u64,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

impl Replay for BatchReplay<'_> {
    fn op(&mut self, tracer: &Tracer, op: u64) -> Result<bool, String> {
        let job = &self.corpus.jobs[op as usize % self.corpus.jobs.len()];
        let fingerprint = &self.fingerprint;
        let root = tracer.start_op(op);
        let base = job.manifest.parent().expect("manifest has a directory");
        let paths: Vec<PathBuf> = read(&job.manifest)?
            .lines()
            .map(|line| base.join(line.trim()))
            .collect();
        let cache = ResultCache::open(&self.corpus.cache_dir)?;
        let mut groups: BTreeMap<ContentKey, Vec<usize>> = BTreeMap::new();
        for (index, path) in paths.iter().enumerate() {
            let text = read(path)?;
            let parsed = tracer
                .span("text_parse", || rtlb_format::parse(&text))
                .map_err(|e| format!("corpus text: {e}"))?;
            let key = tracer.span("canon_key", || {
                rtlb_format::content_key(&parsed, fingerprint)
            });
            groups.entry(key).or_default().push(index);
        }
        let mut answers: BTreeMap<usize, Vec<BoundRow>> = BTreeMap::new();
        let mut worklist = Vec::new();
        for (key, members) in &groups {
            self.lookups += 1;
            match tracer.span("cache_lookup", || cache.lookup(*key)) {
                Some(named) => {
                    self.hits += 1;
                    answers.insert(members[0], check::named_rows(&named));
                }
                None => worklist.push((*key, members[0])),
            }
        }
        for (key, rep) in worklist {
            let text = read(&paths[rep])?;
            let parsed = tracer
                .span("text_parse", || rtlb_format::parse(&text))
                .map_err(|e| format!("corpus text: {e}"))?;
            let analysis = analyze_with_probe(
                &parsed.graph,
                &SystemModel::shared(),
                self.options.analysis,
                tracer,
            )
            .map_err(|e| format!("analysis failed: {e}"))?;
            tracer.count(
                "sweep.intervals",
                analysis.bounds().iter().map(|b| b.intervals_examined).sum(),
            );
            let named: Vec<(String, ResourceBound)> = analysis
                .bounds()
                .iter()
                .map(|b| (parsed.graph.catalog().name(b.resource).to_owned(), *b))
                .collect();
            tracer.span("cache_store", || cache.store(key, fingerprint, &named))?;
            answers.insert(rep, check::named_rows(&named));
        }
        for members in groups.values() {
            tracer.count("dedup.aliases", members.len() as u64 - 1);
        }
        tracer.close(root);
        self.corpus.restore(&cache, job);
        Ok(groups.values().all(|members| {
            members.iter().all(|&i| {
                answers.get(&members[0]) == Some(&self.corpus.uniques[job.entries[i]].expected)
            })
        }))
    }
}

/// `batch-corpus`: see the module docs.
pub fn run(args: &Args) -> Result<Report, String> {
    let dir = args
        .work
        .join(format!("batch-corpus-{}", std::process::id()));
    let result = build_corpus(&dir, args.seed).and_then(|corpus| measure(args, &corpus));
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(args: &Args, corpus: &Corpus) -> Result<Report, String> {
    let references: Vec<Vec<BoundRow>> =
        corpus.uniques.iter().map(|u| u.expected.clone()).collect();
    let digest_ok = check::digest_ok(&args.workload, args.seed, &references);
    let options = options(&corpus.cache_dir);
    if !args.trace {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut timed = Timed::new();
        for _ in 0..SETUPS {
            let (cache, seconds) = corpus.set_up(&options)?;
            setups.push(seconds);
            Untraced::new(corpus, &cache, &options, &mut timed)
                .run_until(Instant::now() + args.duration() / SETUPS as u32)?;
        }
        return end_to_end(&timed, &setups, digest_ok);
    }
    let (cache, _) = corpus.set_up(&options)?;
    let mut timed = Timed::new();
    let mut untraced = Untraced::new(corpus, &cache, &options, &mut timed);
    let tracer = Tracer::new();
    let mut replay = BatchReplay {
        corpus,
        options: &options,
        fingerprint: options.analysis.semantic_fingerprint(),
        lookups: 0,
        hits: 0,
    };
    let mut replayed = Replayed::default();
    interleave(
        args.duration(),
        &mut |deadline| untraced.run_until(deadline),
        &mut |deadline| replayed.run_until(&mut replay, &tracer, deadline),
    )?;
    dump_spans(&tracer, args);
    let hit_ratio = replay.hits as f64 / replay.lookups.max(1) as f64;
    let mut report = per_layer(
        &tracer,
        &replayed,
        &timed,
        "batch_driver.us",
        &[("cache.hit_ratio", hit_ratio)],
    );
    report.correct &= digest_ok;
    Ok(report)
}
