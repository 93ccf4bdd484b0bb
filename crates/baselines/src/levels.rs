//! Jain–Rajaraman (1994) style level partitioning.
//!
//! Jain & Rajaraman bound schedule length by slicing a unit-time task
//! graph into precedence *levels* and reasoning per level. The 1995 paper
//! credits them for the partitioning idea (its Section 5) but notes their
//! scheme assumes unit execution times and zero communication. This
//! module implements the level partition so the ablation experiment can
//! show where it breaks: with arbitrary execution times and messages, the
//! levels are *not* time-disjoint, so per-level bounds no longer compose
//! by a simple maximum — which is exactly what Figure 4's window-based
//! partition fixes.

use rtlb_core::TimingAnalysis;
use rtlb_graph::{TaskGraph, TaskId};

/// Partitions tasks by precedence depth: level 0 holds the sources, level
/// `k+1` the tasks all of whose predecessors sit in levels `≤ k` with at
/// least one in level `k`.
///
/// # Example
///
/// ```
/// use rtlb_baselines::level_partition;
/// use rtlb_workloads::paper_example;
/// let ex = paper_example();
/// let levels = level_partition(&ex.graph);
/// assert!(levels.len() >= 3); // the instance is at least 3 deep
/// ```
pub fn level_partition(graph: &TaskGraph) -> Vec<Vec<TaskId>> {
    let mut level = vec![0usize; graph.task_count()];
    let mut depth = 0;
    for &id in graph.topological_order() {
        let l = graph
            .predecessors(id)
            .iter()
            .map(|e| level[e.other.index()] + 1)
            .max()
            .unwrap_or(0);
        level[id.index()] = l;
        depth = depth.max(l);
    }
    let mut out = vec![Vec::new(); depth + 1];
    for id in graph.task_ids() {
        out[level[id.index()]].push(id);
    }
    out
}

/// Whether a partition is *time-disjoint* in the sense required by the
/// 1995 paper's Theorem 5: every task of an earlier block completes (by
/// LCT) no later than any task of a later block can start (by EST).
///
/// The Figure 4 partition always satisfies this; the Jain–Rajaraman level
/// partition generally does not once execution times vary — the property
/// the ablation experiment (E11) demonstrates.
pub fn is_time_disjoint(timing: &TimingAnalysis, partition: &[Vec<TaskId>]) -> bool {
    for k in 0..partition.len() {
        let Some(max_l) = partition[k].iter().map(|&t| timing.lct(t)).max() else {
            continue;
        };
        for block in &partition[k + 1..] {
            for &t in block {
                if timing.est(t) < max_l {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_core::{compute_timing, partition_all, SystemModel};
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};

    #[test]
    fn levels_respect_precedence_depth() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(50));
        let a = b.add_task(TaskSpec::new("a", Dur::new(1), p)).unwrap();
        let m1 = b.add_task(TaskSpec::new("m1", Dur::new(1), p)).unwrap();
        let m2 = b.add_task(TaskSpec::new("m2", Dur::new(1), p)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(1), p)).unwrap();
        b.add_edge(a, m1, Dur::ZERO).unwrap();
        b.add_edge(a, m2, Dur::ZERO).unwrap();
        b.add_edge(m1, z, Dur::ZERO).unwrap();
        let g = b.build().unwrap();
        let levels = level_partition(&g);
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![a]);
        assert_eq!(levels[1], vec![m1, m2]);
        assert_eq!(levels[2], vec![z]);
    }

    #[test]
    fn unit_time_levels_can_be_disjoint_but_general_ones_are_not() {
        // Unit-time chain with tight windows: levels are time-disjoint.
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(2));
        let a = b.add_task(TaskSpec::new("a", Dur::new(1), p)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(1), p)).unwrap();
        b.add_edge(a, z, Dur::ZERO).unwrap();
        let g = b.build().unwrap();
        let timing = compute_timing(&g, &SystemModel::shared());
        assert!(is_time_disjoint(&timing, &level_partition(&g)));

        // Varying execution times: a long level-0 task overlaps level 1.
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(30));
        let short = b.add_task(TaskSpec::new("short", Dur::new(1), p)).unwrap();
        let long = b.add_task(TaskSpec::new("long", Dur::new(20), p)).unwrap();
        let kid = b.add_task(TaskSpec::new("kid", Dur::new(1), p)).unwrap();
        b.add_edge(short, kid, Dur::ZERO).unwrap();
        let g = b.build().unwrap();
        let timing = compute_timing(&g, &SystemModel::shared());
        let levels = level_partition(&g);
        assert!(!is_time_disjoint(&timing, &levels));
        let _ = (long, kid);
    }

    #[test]
    fn figure4_partition_is_always_time_disjoint() {
        let ex = rtlb_workloads::paper_example();
        let timing = compute_timing(&ex.graph, &SystemModel::shared());
        for part in partition_all(&ex.graph, &timing) {
            let blocks: Vec<Vec<TaskId>> = part.blocks().map(|b| b.tasks.to_vec()).collect();
            assert!(is_time_disjoint(&timing, &blocks));
        }
        // ...whereas the level partition of the same instance is not.
        let levels = level_partition(&ex.graph);
        assert!(!is_time_disjoint(&timing, &levels));
    }
}
