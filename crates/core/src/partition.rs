//! Partitioning of the tasks demanding a resource into time-disjoint
//! subsets (Section 5, Figure 4 of the paper).
//!
//! For a resource `r`, the tasks `ST_r` are split into a chain
//! `P_r1 ≺ P_r2 ≺ …` such that every task in an earlier subset completes
//! (by its LCT) no later than any task in a later subset can start (by its
//! EST). Theorem 5 shows the demand-ratio maximization of Section 6 can
//! then run per subset, cutting the `O(N²)` interval sweep down to the
//! partition sizes.
//!
//! Figure 4's pseudocode creates a fresh subset without inserting the
//! current task; we insert it (clearly the intent, and required to
//! reproduce the Section 8 partitions). Ties on EST are broken by larger
//! LCT first, which is what groups the paper's tasks 12 and 15 into one
//! subset.

use std::cmp::Reverse;

use rtlb_graph::{ResourceId, TaskGraph, TaskId, Time};

use crate::estlct::TimingAnalysis;

/// One subset `P_rk` of a [`ResourcePartition`], borrowed: its tasks
/// together with its covering interval `[s_k, f_k]` (`s_k = min EST`,
/// `f_k = max LCT` over the subset's tasks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionBlock<'a> {
    /// Tasks of the subset, in increasing-EST order as scanned.
    pub tasks: &'a [TaskId],
    /// Earliest EST in the subset.
    pub start: Time,
    /// Latest LCT in the subset.
    pub finish: Time,
}

impl PartitionBlock<'_> {
    /// The covering window `(min E, max L)` of the subset, maintained
    /// incrementally by the Figure 4 scan — a cheap fingerprint for
    /// deciding whether a cached sweep of this block is still valid
    /// without rescanning member windows.
    pub fn window_span(&self) -> (Time, Time) {
        (self.start, self.finish)
    }
}

/// Where one block ends in the partition's task array, and its covering
/// interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BlockSpan {
    end: usize,
    start: Time,
    finish: Time,
}

/// The ordered partition of `ST_r` for one resource, stored flat: one
/// task array in scan order, cut into the chain `P_r1 ≺ P_r2 ≺ …` by
/// per-block end offsets. Read the blocks through
/// [`blocks`](ResourcePartition::blocks) or
/// [`block`](ResourcePartition::block).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourcePartition {
    /// The resource this partition is for.
    pub resource: ResourceId,
    /// Every task of `ST_r`, block after block.
    tasks: Vec<TaskId>,
    /// One entry per block, in chain order; empty when no task demands
    /// the resource.
    blocks: Vec<BlockSpan>,
}

impl ResourcePartition {
    /// Total number of tasks across all blocks (`|ST_r|`).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of blocks in the chain.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Block `index` of the chain.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.block_count()`.
    pub fn block(&self, index: usize) -> PartitionBlock<'_> {
        let span = self.blocks[index];
        let begin = index.checked_sub(1).map_or(0, |prev| self.blocks[prev].end);
        PartitionBlock {
            tasks: &self.tasks[begin..span.end],
            start: span.start,
            finish: span.finish,
        }
    }

    /// The chain `P_r1 ≺ P_r2 ≺ …`, in order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = PartitionBlock<'_>> + '_ {
        (0..self.blocks.len()).map(|index| self.block(index))
    }
}

/// Partitions the tasks demanding `r` (Figure 4).
///
/// Tasks are scanned in increasing EST order (ties: larger LCT first, then
/// task id); a task joins the current subset when its EST lies strictly
/// before the subset's running maximum LCT, otherwise it opens a new
/// subset.
///
/// The produced chain satisfies the paper's property (iii):
/// `max L (P_rk) ≤ min E (P_rl)` for `k < l`, provided every task window
/// is non-degenerate (`E_i ≤ L_i`) — guaranteed for feasible applications.
///
/// # Example
///
/// ```
/// use rtlb_core::{compute_timing, partition_tasks, SystemModel};
/// use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};
/// # fn main() -> Result<(), rtlb_graph::GraphError> {
/// let mut catalog = Catalog::new();
/// let p = catalog.processor("P");
/// let mut b = TaskGraphBuilder::new(catalog);
/// // Two tasks with disjoint windows: [0,5] and [10,20].
/// b.add_task(TaskSpec::new("early", Dur::new(2), p).deadline(Time::new(5)))?;
/// b.add_task(
///     TaskSpec::new("late", Dur::new(2), p)
///         .release(Time::new(10))
///         .deadline(Time::new(20)),
/// )?;
/// let g = b.build()?;
/// let timing = compute_timing(&g, &SystemModel::shared());
/// let partition = partition_tasks(&g, &timing, p);
/// assert_eq!(partition.block_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn partition_tasks(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    resource: ResourceId,
) -> ResourcePartition {
    // Each task's sort key is read once. Task ids make the keys
    // distinct, so the unstable sort is exact.
    let mut keyed: Vec<(Time, Reverse<Time>, TaskId)> = graph
        .tasks()
        .filter(|(_, task)| task.demands_resource(resource))
        .map(|(t, _)| (timing.est(t), Reverse(timing.lct(t)), t))
        .collect();
    keyed.sort_unstable();

    // Scanned in this order, every block is a contiguous run of `tasks`.
    // Worst case (all windows disjoint) is one block per task.
    let mut tasks = Vec::with_capacity(keyed.len());
    let mut blocks: Vec<BlockSpan> = Vec::with_capacity(keyed.len());
    for (est, Reverse(lct), t) in keyed {
        tasks.push(t);
        match blocks.last_mut() {
            Some(block) if est < block.finish => {
                block.end = tasks.len();
                block.start = block.start.min(est);
                block.finish = block.finish.max(lct);
            }
            _ => blocks.push(BlockSpan {
                end: tasks.len(),
                start: est,
                finish: lct,
            }),
        }
    }
    ResourcePartition {
        resource,
        tasks,
        blocks,
    }
}

/// Partitions every resource the application demands, in resource-id
/// order.
pub fn partition_all(graph: &TaskGraph, timing: &TimingAnalysis) -> Vec<ResourcePartition> {
    graph
        .resources_used()
        .into_iter()
        .map(|r| partition_tasks(graph, timing, r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estlct::compute_timing;
    use crate::model::SystemModel;
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec};

    /// Builds independent tasks with explicit windows [release, deadline]
    /// so EST = release and LCT = deadline.
    fn graph_with_windows(windows: &[(i64, i64)]) -> (TaskGraph, ResourceId) {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        for (i, &(rel, d)) in windows.iter().enumerate() {
            b.add_task(
                TaskSpec::new(format!("t{i}"), Dur::new(1), p)
                    .release(Time::new(rel))
                    .deadline(Time::new(d)),
            )
            .unwrap();
        }
        (b.build().unwrap(), p)
    }

    fn names(graph: &TaskGraph, block: PartitionBlock<'_>) -> Vec<String> {
        block
            .tasks
            .iter()
            .map(|&t| graph.task(t).name().to_owned())
            .collect()
    }

    #[test]
    fn disjoint_windows_split() {
        let (g, p) = graph_with_windows(&[(0, 5), (10, 20), (30, 31)]);
        let timing = compute_timing(&g, &SystemModel::shared());
        let part = partition_tasks(&g, &timing, p);
        assert_eq!(part.block_count(), 3);
        assert_eq!(part.task_count(), 3);
        assert_eq!(part.block(0).start, Time::new(0));
        assert_eq!(part.block(0).finish, Time::new(5));
        assert_eq!(part.block(2).start, Time::new(30));
    }

    #[test]
    fn overlapping_windows_chain_into_one_block() {
        let (g, p) = graph_with_windows(&[(0, 5), (3, 12), (11, 20)]);
        let timing = compute_timing(&g, &SystemModel::shared());
        let part = partition_tasks(&g, &timing, p);
        assert_eq!(part.block_count(), 1);
        assert_eq!(part.block(0).start, Time::new(0));
        assert_eq!(part.block(0).finish, Time::new(20));
    }

    #[test]
    fn touching_windows_split_strictly() {
        // EST of the second equals LCT of the first: Figure 4 uses a
        // strict comparison, so a new block opens.
        let (g, p) = graph_with_windows(&[(0, 10), (10, 20)]);
        let timing = compute_timing(&g, &SystemModel::shared());
        let part = partition_tasks(&g, &timing, p);
        assert_eq!(part.block_count(), 2);
    }

    #[test]
    fn est_ties_prefer_larger_lct_first() {
        // Both start at 30; scanning the L=36 one first lets the L=30 one
        // join its block (mirrors the paper's {12, 15} grouping).
        let (g, p) = graph_with_windows(&[(30, 30), (30, 36)]);
        let timing = compute_timing(&g, &SystemModel::shared());
        let part = partition_tasks(&g, &timing, p);
        assert_eq!(part.block_count(), 1);
        assert_eq!(names(&g, part.block(0)), vec!["t1", "t0"]);
    }

    #[test]
    fn partition_property_holds() {
        let (g, p) = graph_with_windows(&[
            (0, 4),
            (2, 9),
            (9, 14),
            (9, 12),
            (20, 25),
            (24, 30),
            (26, 28),
        ]);
        let timing = compute_timing(&g, &SystemModel::shared());
        let part = partition_tasks(&g, &timing, p);
        // Property (iii): earlier block's max LCT <= later block's min EST.
        for k in 0..part.block_count() {
            for l in (k + 1)..part.block_count() {
                let max_l = part
                    .block(k)
                    .tasks
                    .iter()
                    .map(|&t| timing.lct(t))
                    .max()
                    .unwrap();
                let min_e = part
                    .block(l)
                    .tasks
                    .iter()
                    .map(|&t| timing.est(t))
                    .min()
                    .unwrap();
                assert!(max_l <= min_e, "blocks {k} and {l} overlap");
            }
        }
        // Properties (i) and (ii): cover and disjointness.
        let mut seen = std::collections::BTreeSet::new();
        for b in part.blocks() {
            for &t in b.tasks {
                assert!(seen.insert(t), "task in two blocks");
            }
        }
        assert_eq!(seen.len(), g.task_count());
    }

    #[test]
    fn window_span_matches_member_extremes() {
        let (g, p) = graph_with_windows(&[(0, 5), (3, 12), (11, 20)]);
        let timing = compute_timing(&g, &SystemModel::shared());
        let part = partition_tasks(&g, &timing, p);
        assert_eq!(part.block_count(), 1);
        let block = part.block(0);
        let min_e = block.tasks.iter().map(|&t| timing.est(t)).min().unwrap();
        let max_l = block.tasks.iter().map(|&t| timing.lct(t)).max().unwrap();
        assert_eq!(block.window_span(), (min_e, max_l));
    }

    #[test]
    fn unused_resource_has_empty_partition() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let unused = c.resource("unused");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(5));
        b.add_task(TaskSpec::new("a", Dur::new(1), p)).unwrap();
        let g = b.build().unwrap();
        let timing = compute_timing(&g, &SystemModel::shared());
        let part = partition_tasks(&g, &timing, unused);
        assert_eq!(part.block_count(), 0);
        assert_eq!(part.task_count(), 0);
    }

    #[test]
    fn partition_all_covers_every_demanded_resource() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(9));
        b.add_task(TaskSpec::new("a", Dur::new(1), p).resource(r))
            .unwrap();
        let g = b.build().unwrap();
        let timing = compute_timing(&g, &SystemModel::shared());
        let parts = partition_all(&g, &timing);
        assert_eq!(parts.len(), 2); // P and r
        assert!(parts.iter().all(|pt| pt.task_count() == 1));
    }
}
