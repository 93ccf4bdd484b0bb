//! E11 — comparison against the prior art the paper extends:
//! Fernandez–Bussell (1973, zero communication) and Al-Mohummed (1990,
//! with communication), plus the Jain–Rajaraman level partitioning.
//!
//! Three claims are exercised:
//!
//! 1. on the baselines' own model our machinery reduces to their bounds;
//! 2. on applications with deadlines/heterogeneity/resources the
//!    baselines cannot see the binding constraints and report weaker
//!    (often trivial) numbers;
//! 3. precedence-level partitioning is not time-disjoint once execution
//!    times vary, which is why the paper replaces it with Figure 4.
//!
//! ```sh
//! cargo run -p rtlb-bench --bin baseline_comparison
//! ```

use rtlb_baselines::{
    al_mohummed_bound, fernandez_bussell_bound, is_time_disjoint, level_partition,
};
use rtlb_bench::TextTable;
use rtlb_core::{analyze, compute_timing, SystemModel};
use rtlb_workloads::{layered, paper_example, radar_scenario, LayeredConfig};

fn main() {
    println!("E11: comparison with prior-art lower bounds\n");

    // --- The paper's example. ---
    let ex = paper_example();
    let analysis = analyze(&ex.graph, &SystemModel::shared()).expect("feasible");
    let ours: u32 = [ex.p1, ex.p2]
        .iter()
        .map(|&p| analysis.units_required(p))
        .sum();

    let mut table = TextTable::new(["instance", "FB 1973", "AM 1990", "this paper (Σ proc LBs)"]);
    table.row([
        "paper Figure 7 (15 tasks)".to_owned(),
        fernandez_bussell_bound(&ex.graph).to_string(),
        al_mohummed_bound(&ex.graph).to_string(),
        ours.to_string(),
    ]);

    // --- Radar scenario (heterogeneous processors, resources). ---
    let radar = radar_scenario(8);
    let ra = analyze(&radar.graph, &SystemModel::shared()).expect("feasible");
    let radar_ours: u32 = [radar.dsp, radar.gpp, radar.wcp]
        .iter()
        .map(|&p| ra.units_required(p))
        .sum();
    table.row([
        "radar, 8 threats (24 tasks)".to_owned(),
        fernandez_bussell_bound(&radar.graph).to_string(),
        al_mohummed_bound(&radar.graph).to_string(),
        radar_ours.to_string(),
    ]);

    // --- Random layered instances. ---
    for seed in [1u64, 2, 3] {
        let g = layered(
            &LayeredConfig {
                layers: 5,
                width: 5,
                slack_pct: 120,
                ..LayeredConfig::default()
            },
            seed,
        );
        let Ok(a) = analyze(&g, &SystemModel::shared()) else {
            continue;
        };
        let ours: u32 = g.catalog().processors().map(|p| a.units_required(p)).sum();
        table.row([
            format!("layered 5x5, seed {seed}"),
            fernandez_bussell_bound(&g).to_string(),
            al_mohummed_bound(&g).to_string(),
            ours.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nThe baselines bound a *single* pool of identical processors at the\n\
         application's critical time; they see neither deadlines nor processor\n\
         types nor resources, so their numbers cannot substitute for per-type\n\
         bounds (and say nothing at all about resources like r1).\n"
    );

    // --- Level partitioning vs Figure 4. ---
    println!("Jain–Rajaraman level partition vs Figure 4 (time-disjointness):\n");
    let mut part_table = TextTable::new(["instance", "levels disjoint?", "Figure 4 disjoint?"]);
    for (name, graph) in [
        ("paper Figure 7", ex.graph.clone()),
        ("radar, 4 threats", radar_scenario(4).graph),
        ("layered 4x4 seed 0", layered(&LayeredConfig::default(), 0)),
    ] {
        let timing = compute_timing(&graph, &SystemModel::shared());
        let levels = level_partition(&graph);
        let level_ok = is_time_disjoint(&timing, &levels);
        let fig4_ok = rtlb_core::partition_all(&graph, &timing).iter().all(|p| {
            let blocks: Vec<Vec<rtlb_graph::TaskId>> =
                p.blocks().map(|b| b.tasks.to_vec()).collect();
            is_time_disjoint(&timing, &blocks)
        });
        part_table.row([
            name.to_owned(),
            if level_ok { "yes" } else { "no" }.to_owned(),
            if fig4_ok { "yes" } else { "NO (bug!)" }.to_owned(),
        ]);
        assert!(fig4_ok);
    }
    print!("{}", part_table.render());
    println!(
        "\nLevels stop being time-disjoint as soon as execution times vary, so\n\
         per-level bounds cannot be combined by a maximum; Figure 4's\n\
         window-based chains always can (Theorem 5)."
    );
}
