//! Human-readable rendering of analysis results.
//!
//! These renderers produce the same tables the paper prints — Table 1
//! (EST/LCT with merge sets), the Step 2 partitions, the Step 3 bounds and
//! the Step 4 cost programs — and are what the experiment binaries in
//! `rtlb-bench` emit.

use std::fmt::Write as _;

use rtlb_graph::{TaskGraph, TaskId};

use crate::analysis::Analysis;
use crate::bounds::ResourceBound;
use crate::cost::{DedicatedCostBound, SharedCostBound};
use crate::estlct::TimingAnalysis;
use crate::model::DedicatedModel;
use crate::partition::ResourcePartition;

fn task_list(graph: &TaskGraph, tasks: &[TaskId]) -> String {
    if tasks.is_empty() {
        return "-".to_owned();
    }
    let names: Vec<&str> = tasks.iter().map(|&t| graph.task(t).name()).collect();
    format!("{{{}}}", names.join(","))
}

/// Renders the paper's Table 1: one row per task with `E_i`, `M_i`,
/// `L_i`, `G_i`.
pub(crate) fn render_timing_table(graph: &TaskGraph, timing: &TimingAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>6}  {:<14} {:>6}  {:<14}",
        "Task", "E_i", "M_i", "L_i", "G_i"
    );
    for (id, task) in graph.tasks() {
        let _ = writeln!(
            out,
            "{:<10} {:>6}  {:<14} {:>6}  {:<14}",
            task.name(),
            timing.est(id).ticks(),
            task_list(graph, timing.merged_predecessors(id)),
            timing.lct(id).ticks(),
            task_list(graph, timing.merged_successors(id)),
        );
    }
    out
}

/// Renders the Step 2 partitions: `ST_r = P_r1 ≺ P_r2 ≺ …` per resource.
pub(crate) fn render_partitions(graph: &TaskGraph, partitions: &[ResourcePartition]) -> String {
    let mut out = String::new();
    for p in partitions {
        let blocks: Vec<String> = p
            .blocks()
            .map(|b| {
                format!(
                    "{} [{}, {}]",
                    task_list(graph, b.tasks),
                    b.start.ticks(),
                    b.finish.ticks()
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "ST_{} = {}",
            graph.catalog().name(p.resource),
            if blocks.is_empty() {
                "∅".to_owned()
            } else {
                blocks.join(" ≺ ")
            }
        );
    }
    out
}

/// Renders the Step 3 bounds: `LB_r` with the witness interval.
pub fn render_bounds(graph: &TaskGraph, bounds: &[ResourceBound]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>5}  {:<22} {:>10}",
        "Resource", "LB_r", "witness interval", "intervals"
    );
    for b in bounds {
        let witness = match &b.witness {
            None => "-".to_owned(),
            Some(w) => format!(
                "Θ[{}, {}] = {}",
                w.t1.ticks(),
                w.t2.ticks(),
                w.demand.ticks()
            ),
        };
        let _ = writeln!(
            out,
            "{:<10} {:>5}  {:<22} {:>10}",
            graph.catalog().name(b.resource),
            b.bound,
            witness,
            b.intervals_examined,
        );
    }
    out
}

/// Renders the shared-model cost bound with its per-resource breakdown.
pub fn render_shared_cost(graph: &TaskGraph, cost: &SharedCostBound) -> String {
    let mut out = String::new();
    let terms: Vec<String> = cost
        .breakdown
        .iter()
        .map(|&(r, lb, c)| format!("{}·CostR({})[{}]", lb, graph.catalog().name(r), c))
        .collect();
    let _ = writeln!(
        out,
        "Shared system cost ≥ {} = {}",
        terms.join(" + "),
        cost.total
    );
    out
}

/// Renders the dedicated-model cost bound with the optimal node mix.
pub fn render_dedicated_cost(model: &DedicatedModel, cost: &DedicatedCostBound) -> String {
    let mut out = String::new();
    let mix: Vec<String> = cost
        .node_counts
        .iter()
        .map(|&(n, count)| format!("{}×{}", count, model.node_type(n).name()))
        .collect();
    let _ = writeln!(
        out,
        "Dedicated system cost ≥ {} (LP relaxation {}), node mix: {}",
        cost.total,
        cost.lp_relaxation,
        if mix.is_empty() {
            "-".to_owned()
        } else {
            mix.join(" + ")
        }
    );
    out
}

/// Renders the complete analysis (steps 1–3) as one report.
pub fn render_analysis(graph: &TaskGraph, analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("== Step 1: EST / LCT ==\n");
    out.push_str(&render_timing_table(graph, analysis.timing()));
    out.push_str("\n== Step 2: Partitions ==\n");
    out.push_str(&render_partitions(graph, analysis.partitions()));
    out.push_str("\n== Step 3: Resource lower bounds ==\n");
    out.push_str(&render_bounds(graph, analysis.bounds()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::cost::{dedicated_cost_bound, shared_cost_bound};
    use crate::model::{NodeType, SharedModel, SystemModel};
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};

    fn fixture() -> (TaskGraph, Analysis) {
        let mut c = Catalog::new();
        let p = c.processor("P1");
        let r = c.resource("r1");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(8));
        let a = b
            .add_task(TaskSpec::new("alpha", Dur::new(3), p).resource(r))
            .unwrap();
        let z = b.add_task(TaskSpec::new("omega", Dur::new(2), p)).unwrap();
        b.add_edge(a, z, Dur::new(1)).unwrap();
        let g = b.build().unwrap();
        let analysis = analyze(&g, &SystemModel::shared()).unwrap();
        (g, analysis)
    }

    #[test]
    fn timing_table_mentions_every_task() {
        let (g, a) = fixture();
        let table = render_timing_table(&g, a.timing());
        assert!(table.contains("alpha"));
        assert!(table.contains("omega"));
        assert!(table.contains("E_i"));
    }

    #[test]
    fn partitions_render_with_intervals() {
        let (g, a) = fixture();
        let s = render_partitions(&g, a.partitions());
        assert!(s.contains("ST_P1"));
        assert!(s.contains("ST_r1"));
        assert!(s.contains('['));
    }

    #[test]
    fn bounds_render_with_witness() {
        let (g, a) = fixture();
        let s = render_bounds(&g, a.bounds());
        assert!(s.contains("LB_r"));
        assert!(s.contains("Θ["));
    }

    #[test]
    fn cost_renderers() {
        let (g, a) = fixture();
        let p = g.catalog().lookup("P1").unwrap();
        let r = g.catalog().lookup("r1").unwrap();
        let shared = SharedModel::new().with_cost(p, 10).with_cost(r, 3);
        let sc = shared_cost_bound(&shared, a.bounds()).unwrap();
        let rendered = render_shared_cost(&g, &sc);
        assert!(rendered.contains("Shared system cost"));
        assert!(rendered.contains(&sc.total.to_string()));

        let ded = DedicatedModel::new(vec![NodeType::new("N", p, [r], 12)]);
        let dc = dedicated_cost_bound(&g, &ded, a.bounds()).unwrap();
        let rendered = render_dedicated_cost(&ded, &dc);
        assert!(rendered.contains("Dedicated system cost"));
        assert!(rendered.contains("×N"));
    }

    #[test]
    fn full_report_has_all_sections() {
        let (g, a) = fixture();
        let s = render_analysis(&g, &a);
        assert!(s.contains("Step 1"));
        assert!(s.contains("Step 2"));
        assert!(s.contains("Step 3"));
    }
}
