//! E18 — window-tightness study: how much the propagation levels buy
//! over the paper-faithful sweep on the shipped `examples/windows/`
//! corpus, plus a random layered family for context.
//!
//! For every instance the three levels are run side by side: `paper`
//! (the oracle pipeline: `rtlb_core::oracle::compute_timing_paper`'s
//! sequential packing, Figure 4, and the naive sweep) and `timeline` must
//! agree bit-for-bit (the Timeline is a pure reimplementation of the
//! paper's packing), and `filtered` may only raise bounds. On the shipped corpus each filtered bound is also
//! checked against the complete exact search, so every reported gain is
//! a *true* gain, not an unsound refutation. Writes
//! `BENCH_windows.json`.
//!
//! ```sh
//! cargo run -p rtlb-bench --bin windows_study
//! ```

use std::path::Path;

use rtlb_bench::{write_bench_json, TextTable};
use rtlb_core::oracle::{compute_timing_paper, naive_bounds};
use rtlb_core::{
    analyze_with, analyze_with_probe, partition_all, AnalysisOptions, CandidatePolicy,
    PropagationLevel, ResourceBound, SystemModel,
};
use rtlb_graph::TaskGraph;
use rtlb_obs::{Json, MetricsRegistry};
use rtlb_sched::{min_units_exact, Capacities, SearchBudget};
use rtlb_workloads::{layered, LayeredConfig};

fn options_at(level: PropagationLevel) -> AnalysisOptions {
    AnalysisOptions {
        propagation: level,
        ..AnalysisOptions::default()
    }
}

/// Max resource bound of one analysis run, per level, with the
/// paper/timeline bit-identity and filtered dominance asserted.
fn levels_max_lb(graph: &TaskGraph, probe: &MetricsRegistry, name: &str) -> [u32; 3] {
    let model = SystemModel::shared();
    let timeline = analyze_with(graph, &model, options_at(PropagationLevel::Timeline))
        .unwrap_or_else(|e| panic!("{name} (timeline): {e}"));
    let filtered = analyze_with_probe(graph, &model, options_at(PropagationLevel::Filtered), probe)
        .unwrap_or_else(|e| panic!("{name} (filtered): {e}"));
    let paper_timing = compute_timing_paper(graph, &model);
    let paper = naive_bounds(
        graph,
        &paper_timing,
        &partition_all(graph, &paper_timing),
        CandidatePolicy::EstLct,
    )
    .unwrap_or_else(|e| panic!("{name} (paper): {e}"));

    assert_eq!(
        (&paper_timing, &paper[..]),
        (timeline.timing(), timeline.bounds()),
        "{name}: paper and timeline packing must agree bit-for-bit"
    );
    for (t, f) in timeline.bounds().iter().zip(filtered.bounds()) {
        assert!(
            f.bound >= t.bound,
            "{name}: filtered LB_{} = {} fell below timeline {}",
            graph.catalog().name(t.resource),
            f.bound,
            t.bound
        );
    }
    let max = |bounds: &[ResourceBound]| bounds.iter().map(|b| b.bound).max().unwrap_or(0);
    [max(&paper), max(timeline.bounds()), max(filtered.bounds())]
}

/// Checks every filtered bound of `graph` against the complete exact
/// search; returns the number of bounds the oracle could decide.
fn check_exact(graph: &TaskGraph, name: &str) -> u32 {
    let filtered = analyze_with(
        graph,
        &SystemModel::shared(),
        options_at(PropagationLevel::Filtered),
    )
    .unwrap_or_else(|e| panic!("{name} (filtered): {e}"));
    let generous = Capacities::uniform(graph, graph.task_count() as u32);
    let mut checked = 0;
    for bound in filtered.bounds() {
        let min = min_units_exact(
            graph,
            bound.resource,
            &generous,
            graph.task_count() as u32,
            SearchBudget::default(),
        )
        .expect("corpus instances stay within the search budget");
        if let Some(min) = min {
            assert!(
                min >= bound.bound,
                "{name}: filtered LB_{} = {} exceeds the exact minimum {min}",
                graph.catalog().name(bound.resource),
                bound.bound
            );
            checked += 1;
        }
    }
    checked
}

fn main() {
    println!("E18: window tightness across propagation levels\n");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/windows");
    let mut files: Vec<_> = std::fs::read_dir(&root)
        .expect("examples/windows exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rtlb"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "shipped corpus must not be empty");

    let probe = MetricsRegistry::new();
    let mut table = TextTable::new(["instance", "paper", "timeline", "filtered", "gain"]);
    let mut corpus_rows = Vec::new();
    let mut gains = Vec::new();
    let mut oracle_checks = 0;
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let parsed = rtlb_format::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let [p, t, f] = levels_max_lb(&parsed.graph, &probe, &name);
        oracle_checks += check_exact(&parsed.graph, &name);
        let gain = f - t;
        gains.push(gain);
        table.row([
            name.clone(),
            p.to_string(),
            t.to_string(),
            f.to_string(),
            format!("+{gain}"),
        ]);
        corpus_rows.push(Json::Obj(vec![
            ("instance".to_owned(), Json::str(&name)),
            ("lb_paper".to_owned(), Json::Int(i64::from(p))),
            ("lb_timeline".to_owned(), Json::Int(i64::from(t))),
            ("lb_filtered".to_owned(), Json::Int(i64::from(f))),
            ("gain".to_owned(), Json::Int(i64::from(gain))),
        ]));
    }
    let mean_gain = gains.iter().map(|&g| f64::from(g)).sum::<f64>() / gains.len() as f64;
    assert!(
        mean_gain > 0.0,
        "the shipped corpus must demonstrate a measured tightness gain"
    );
    assert!(
        oracle_checks > 0,
        "the exact oracle must decide some bounds"
    );
    print!("{}", table.render());
    println!(
        "\nshipped corpus: mean max-LB gain {mean_gain:.2} units over the sweep \
         ({oracle_checks} filtered bounds confirmed <= exact minimum)\n"
    );

    // Context: a random layered family, where detectable precedences
    // are rare — the filter must price in at agreement, not regress.
    let seeds = 25u64;
    let config = LayeredConfig {
        layers: 5,
        width: 4,
        slack_pct: 120,
        ..LayeredConfig::default()
    };
    let mut family_gain = 0u32;
    let mut family_runs = 0u32;
    for seed in 0..seeds {
        let graph = layered(&config, seed);
        let name = format!("layered seed {seed}");
        if analyze_with(
            &graph,
            &SystemModel::shared(),
            options_at(PropagationLevel::Timeline),
        )
        .is_err()
        {
            continue; // tight seeds can be infeasible; gains need a baseline
        }
        let [_, t, f] = levels_max_lb(&graph, &probe, &name);
        family_gain += f - t;
        family_runs += 1;
    }
    println!(
        "layered 5x4 family ({family_runs} seeds): total max-LB gain +{family_gain} \
         (random DAGs rarely pin orders; the value is the directed corpus)"
    );

    let snapshot = probe.snapshot();
    let counters = Json::Obj(
        snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::Int(*value as i64)))
            .collect(),
    );
    let body = vec![
        (
            "corpus".to_owned(),
            Json::Obj(vec![
                ("instances".to_owned(), Json::Int(files.len() as i64)),
                ("mean_gain".to_owned(), Json::Float(mean_gain)),
                (
                    "oracle_checks".to_owned(),
                    Json::Int(i64::from(oracle_checks)),
                ),
                ("rows".to_owned(), Json::Arr(corpus_rows)),
            ]),
        ),
        (
            "layered_family".to_owned(),
            Json::Obj(vec![
                ("seeds".to_owned(), Json::Int(i64::from(family_runs))),
                ("total_gain".to_owned(), Json::Int(i64::from(family_gain))),
            ]),
        ),
        ("counters".to_owned(), counters),
    ];
    let path = write_bench_json("BENCH_windows.json", "windows_study", body).expect("write bench");
    println!("\nwrote {}", path.display());
}
