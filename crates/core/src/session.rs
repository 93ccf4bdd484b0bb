//! Incremental re-analysis for scenario sweeps.
//!
//! The paper's intended use is design-space exploration: re-running the
//! bound analysis while varying computation times, release times,
//! deadlines, and message sizes. Re-running the whole pipeline per
//! variant wastes work — an edit to one task can only influence
//!
//! * **EST** values in the task's *forward* cone (Figure 3 consumes
//!   predecessor values),
//! * **LCT** values in its *backward* cone (Figure 2 consumes successor
//!   values), and
//! * sweeps of resources whose member windows or demand sets moved.
//!
//! [`AnalysisSession`] holds a fully analyzed instance plus all
//! intermediate state — per-task windows, merge selections, per-resource
//! partitions, per-block sweep maxima, per-resource bounds — and accepts
//! typed [`Delta`] edits. [`AnalysisSession::apply`] then recomputes only
//! the dirty cone: EST is forward-propagated and LCT backward-propagated
//! task-by-task with **early cutoff** (a recomputed value equal to the
//! stored one stops the wave, because [`crate::estlct`]'s per-task
//! evaluations are pure in their neighbor values), only resources whose
//! members were touched are re-partitioned, and within them only dirty
//! blocks are re-swept — clean blocks replay their cached
//! [`RatioMax`] verbatim. Session creation runs the same stage sequence
//! as [`analyze_with`](crate::analyze_with), and dirty blocks are
//! re-swept by the same block driver ([`crate::sweep::sweep_blocks`]).
//!
//! The result is **bit-identical** to a from-scratch
//! [`analyze_with`](crate::analyze_with) on the edited graph — same
//! bounds, witnesses, interval counts, windows, merge selections, and
//! partitions — which `tests/session_matches_scratch.rs` enforces with a
//! differential proptest oracle.
//!
//! Failed applies keep their dirt: if an edit makes the instance
//! infeasible (or unhostable under a dedicated model), the error is
//! returned and the accumulated dirty sets are retained, so a later
//! successful apply re-sweeps everything the failed ones touched.

use std::collections::{BTreeMap, BTreeSet};

use rtlb_graph::{Dur, ExecutionMode, GraphError, ResourceId, TaskGraph, TaskId, Time};
use rtlb_obs::{span, Label, Probe, NULL_PROBE};

use crate::analysis::{check_magnitudes, run_stages, Analysis, AnalysisOptions, ResourceState};
use crate::bounds::{fold_bound, RatioMax, ResourceBound};
use crate::cancel::CancelToken;
use crate::error::AnalysisError;
use crate::estlct::{bound_of, MergeScan, Pass, TimingAnalysis};
use crate::model::SystemModel;
use crate::partition::partition_tasks;
use crate::propagate::refine_block;
use crate::sweep::sweep_blocks;
use crate::timeline::Timeline;

/// The zero bound of an unswept resource — the placeholder a cache holds
/// until its maxima are folded.
fn empty_bound(resource: ResourceId) -> ResourceBound {
    ResourceBound {
        resource,
        bound: 0,
        witness: None,
        intervals_examined: 0,
    }
}

/// One typed edit to an analyzed instance.
///
/// Deltas change task and edge *annotations* only; the DAG's shape is
/// fixed at build time, so the cached topological order stays valid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delta {
    /// Change a task's computation time `C_i`.
    SetComputation {
        /// The edited task.
        task: TaskId,
        /// The new computation time.
        computation: Dur,
    },
    /// Change a task's release time `rel_i`.
    SetRelease {
        /// The edited task.
        task: TaskId,
        /// The new release time.
        release: Time,
    },
    /// Change a task's deadline `D_i`.
    SetDeadline {
        /// The edited task.
        task: TaskId,
        /// The new deadline.
        deadline: Time,
    },
    /// Change a task's execution mode.
    SetMode {
        /// The edited task.
        task: TaskId,
        /// The new mode.
        mode: ExecutionMode,
    },
    /// Change the message time of an existing edge `from -> to`.
    SetMessage {
        /// Source of the edge.
        from: TaskId,
        /// Destination of the edge.
        to: TaskId,
        /// The new message time.
        message: Dur,
    },
    /// Add a resource to a task's demand set `R_i`.
    AddDemand {
        /// The edited task.
        task: TaskId,
        /// The resource to demand.
        resource: ResourceId,
    },
    /// Remove a resource from a task's demand set `R_i`.
    RemoveDemand {
        /// The edited task.
        task: TaskId,
        /// The resource to release.
        resource: ResourceId,
    },
}

/// What one successful [`AnalysisSession::apply`] actually recomputed —
/// the incremental engine's savings report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Tasks whose EST was re-evaluated (dirty forward cone).
    pub tasks_recomputed_est: u64,
    /// Tasks whose LCT was re-evaluated (dirty backward cone).
    pub tasks_recomputed_lct: u64,
    /// Resources re-partitioned and re-folded.
    pub resources_dirty: u64,
    /// Partition blocks actually re-swept.
    pub blocks_resweeped: u64,
    /// Partition blocks whose cached sweep maxima were replayed.
    pub blocks_reused: u64,
}

impl ApplyStats {
    /// Total per-task timing re-evaluations (EST plus LCT).
    pub fn tasks_recomputed(&self) -> u64 {
        self.tasks_recomputed_est + self.tasks_recomputed_lct
    }
}

/// A fully analyzed instance that accepts [`Delta`] edits and recomputes
/// only the dirty cone on [`apply`](AnalysisSession::apply).
///
/// # Example
///
/// ```
/// use rtlb_core::{AnalysisOptions, AnalysisSession, Delta, SystemModel};
/// use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut catalog = Catalog::new();
/// let p = catalog.processor("P");
/// let mut b = TaskGraphBuilder::new(catalog);
/// for name in ["a", "b", "c"] {
///     b.add_task(TaskSpec::new(name, Dur::new(4), p).deadline(Time::new(6)))?;
/// }
/// let graph = b.build()?;
/// let a = graph.task_id("a").unwrap();
///
/// let mut session =
///     AnalysisSession::new(graph, SystemModel::shared(), AnalysisOptions::default())?;
/// assert_eq!(session.units_required(p), 2); // 12 ticks of work in 6
///
/// // Shrinking one task's computation time re-analyzes incrementally.
/// session.apply(&[Delta::SetComputation { task: a, computation: Dur::new(1) }])?;
/// assert_eq!(session.units_required(p), 2); // 9 ticks in 6 still needs 2
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AnalysisSession {
    graph: TaskGraph,
    model: SystemModel,
    options: AnalysisOptions,
    timing: TimingAnalysis,
    /// Per-resource sweep caches, in resource-id order over
    /// `graph.resources_used()`.
    caches: Vec<ResourceState>,
    /// Tasks whose EST must be re-evaluated on the next apply.
    pending_est: BTreeSet<TaskId>,
    /// Tasks whose LCT must be re-evaluated on the next apply.
    pending_lct: BTreeSet<TaskId>,
    /// Tasks whose sweep-relevant state (window, `C_i`, mode) changed
    /// since the last successful sweep refresh.
    pending_touched: BTreeSet<TaskId>,
    /// The subset of `pending_touched` whose *window* actually moved —
    /// only these can change a resource's partition structure.
    pending_window: BTreeSet<TaskId>,
    /// Resources whose demand sets changed since the last successful
    /// sweep refresh.
    pending_demand: BTreeSet<ResourceId>,
}

impl AnalysisSession {
    /// Analyzes `graph` from scratch and captures every intermediate
    /// result for later incremental updates. Takes ownership of the graph;
    /// all subsequent edits go through [`apply`](AnalysisSession::apply).
    ///
    /// # Errors
    ///
    /// Same as [`crate::analyze_with`]: [`AnalysisError::UnhostableTask`],
    /// [`AnalysisError::BoundOverflow`], or [`AnalysisError::Infeasible`].
    pub fn new(
        graph: TaskGraph,
        model: SystemModel,
        options: AnalysisOptions,
    ) -> Result<AnalysisSession, AnalysisError> {
        AnalysisSession::new_ctl(graph, model, options, &NULL_PROBE, &CancelToken::none())
    }

    /// [`AnalysisSession::new`] reporting the initial full analysis into
    /// `probe` — the same `analyze.*` stage spans and counters as
    /// [`crate::analyze_with_probe`], under a `session.analyze` span —
    /// and polling `ctl` at the same checkpoints as
    /// [`crate::analyze_ctl`]: the batch driver's session-based entry
    /// point.
    ///
    /// # Errors
    ///
    /// Same as [`AnalysisSession::new`], plus [`AnalysisError::Deadline`]
    /// when `ctl` trips.
    pub fn new_ctl(
        graph: TaskGraph,
        model: SystemModel,
        options: AnalysisOptions,
        probe: &dyn Probe,
        ctl: &CancelToken,
    ) -> Result<AnalysisSession, AnalysisError> {
        let _run = span(probe, "session.analyze", Label::None);
        let (timing, caches) = run_stages(&graph, &model, options, probe, ctl)?;
        Ok(AnalysisSession {
            graph,
            model,
            options,
            timing,
            caches,
            pending_est: BTreeSet::new(),
            pending_lct: BTreeSet::new(),
            pending_touched: BTreeSet::new(),
            pending_window: BTreeSet::new(),
            pending_demand: BTreeSet::new(),
        })
    }

    /// The instance as currently edited.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The system model the session analyzes against.
    pub fn model(&self) -> &SystemModel {
        &self.model
    }

    /// The analysis options fixed at session creation.
    pub fn options(&self) -> AnalysisOptions {
        self.options
    }

    /// The current EST/LCT analysis.
    pub fn timing(&self) -> &TimingAnalysis {
        &self.timing
    }

    /// The current resource bounds, in resource-id order.
    pub fn bounds(&self) -> Vec<ResourceBound> {
        self.caches.iter().map(|c| c.bound).collect()
    }

    /// The bound for one resource, if the application demands it.
    pub fn bound_for(&self, r: ResourceId) -> Option<ResourceBound> {
        self.caches
            .iter()
            .find(|c| c.partition.resource == r)
            .map(|c| c.bound)
    }

    /// `LB_r` as a plain number (0 for undemanded resources).
    pub fn units_required(&self, r: ResourceId) -> u32 {
        self.bound_for(r).map_or(0, |b| b.bound)
    }

    /// Consumes the session and hands back the (possibly edited) graph.
    ///
    /// This is the pool-eviction path of `rtlb serve`: an evicted session
    /// drops its sweep caches but the instance itself survives, so a
    /// later reopen re-analyzes the same graph from scratch — and, because
    /// [`AnalysisSession::new`] and [`apply`](AnalysisSession::apply) are
    /// bit-identical to a fresh [`crate::analyze_with`], produces the same
    /// bounds the resident session would have reported.
    pub fn into_graph(self) -> TaskGraph {
        self.graph
    }

    /// Whether a failed apply left dirt that the next successful apply
    /// will have to consume. While true, the sweep state reflects the
    /// last *successfully analyzed* instance, not the current graph.
    pub fn has_pending_edits(&self) -> bool {
        !(self.pending_est.is_empty()
            && self.pending_lct.is_empty()
            && self.pending_touched.is_empty()
            && self.pending_demand.is_empty())
    }

    /// Snapshots the session as a standalone [`Analysis`] — bit-identical
    /// to what [`crate::analyze_with`] would produce for the current
    /// graph, model, and options (provided no failed apply left pending
    /// edits, see [`has_pending_edits`](AnalysisSession::has_pending_edits)).
    pub fn to_analysis(&self) -> Analysis {
        Analysis::from_parts(
            self.timing.clone(),
            self.caches.iter().map(|c| c.partition.clone()).collect(),
            self.caches.iter().map(|c| c.bound).collect(),
        )
    }

    /// Applies a batch of edits, recomputing only what they can reach.
    ///
    /// The batch is atomic on the graph: every delta is validated before
    /// any is applied, so an [`AnalysisError::InvalidDelta`] leaves the
    /// session untouched. Analysis errors surface after the graph was
    /// edited — the dirty sets are retained and consumed by the next
    /// successful apply.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::InvalidDelta`] if a delta references an unknown
    ///   task or edge, or demands a non-resource (nothing is applied).
    /// * [`AnalysisError::UnhostableTask`] if the edited instance cannot
    ///   be hosted by a dedicated model.
    /// * [`AnalysisError::BoundOverflow`] if the edited magnitudes escape
    ///   the pipeline's exact arithmetic range, as in [`crate::analyze`].
    /// * [`AnalysisError::Infeasible`] if the edited windows cannot
    ///   contain their computations.
    pub fn apply(&mut self, deltas: &[Delta]) -> Result<ApplyStats, AnalysisError> {
        self.apply_ctl(deltas, &NULL_PROBE, &CancelToken::none())
    }

    /// [`apply`](AnalysisSession::apply) reporting into `probe` and
    /// polling `ctl`. The probe gets `session.apply` / `session.timing` /
    /// `session.sweep` spans (plus `session.propagate` at the `Filtered`
    /// level) and the `session.tasks_recomputed`,
    /// `session.resources_dirty`, `session.blocks_resweeped`,
    /// `session.blocks_reused` counters (plus the usual `sweep.*`
    /// counters for re-swept blocks). `ctl` is polled between pipeline
    /// stages and once per `t1` column inside re-swept blocks; pass
    /// [`CancelToken::none`] for an apply that cannot be cancelled. A
    /// cancelled apply behaves exactly like an infeasible one: the error
    /// is returned, the dirty sets are retained, and the sweep caches
    /// still reflect the last successfully analyzed instance.
    ///
    /// # Errors
    ///
    /// Same as [`apply`](AnalysisSession::apply), plus
    /// [`AnalysisError::Deadline`] when `ctl` trips.
    pub fn apply_ctl(
        &mut self,
        deltas: &[Delta],
        probe: &dyn Probe,
        ctl: &CancelToken,
    ) -> Result<ApplyStats, AnalysisError> {
        let _apply = span(probe, "session.apply", Label::None);

        for delta in deltas {
            self.validate_delta(delta)
                .map_err(AnalysisError::InvalidDelta)?;
        }
        for delta in deltas {
            self.ingest(delta);
        }

        // An edited instance that a dedicated model cannot host, or whose
        // magnitudes could wrap, is refused as `analyze` refuses it, so
        // bail first, keeping the dirt.
        self.model.validate(&self.graph)?;
        check_magnitudes(&self.graph)?;
        // Cheapest cancellation point: the EST/LCT seed sets are still
        // intact, so a cancelled apply here loses nothing.
        ctl.check()?;

        let mut stats = ApplyStats::default();
        {
            let _timing = span(probe, "session.timing", Label::None);
            let est_seed = std::mem::take(&mut self.pending_est);
            let lct_seed = std::mem::take(&mut self.pending_lct);
            stats.tasks_recomputed_est = self.propagate(Pass::Est, &est_seed);
            stats.tasks_recomputed_lct = self.propagate(Pass::Lct, &lct_seed);
        }
        probe.add("session.tasks_recomputed", stats.tasks_recomputed());

        // The sweep requires feasible windows (E + C <= L); window edits
        // stay in `pending_touched` for the next successful apply.
        self.timing.check_feasible(&self.graph)?;

        let touched = std::mem::take(&mut self.pending_touched);
        let window_moved = std::mem::take(&mut self.pending_window);
        let demand = std::mem::take(&mut self.pending_demand);
        match self.refresh_bounds(&touched, &window_moved, &demand, &mut stats, probe, ctl) {
            Ok(Some(caches)) => self.caches = caches,
            Ok(None) => {}
            Err(e) => {
                // Nothing was committed; put the dirt back so the next
                // successful apply re-sweeps everything this one touched.
                self.pending_touched.extend(touched);
                self.pending_window.extend(window_moved);
                self.pending_demand.extend(demand);
                return Err(e);
            }
        }
        probe.add("session.resources_dirty", stats.resources_dirty);
        probe.add("session.blocks_resweeped", stats.blocks_resweeped);
        probe.add("session.blocks_reused", stats.blocks_reused);
        Ok(stats)
    }

    /// Read-only validation of one delta against the current graph.
    fn validate_delta(&self, delta: &Delta) -> Result<(), GraphError> {
        let check_task = |t: TaskId| {
            if t.index() < self.graph.task_count() {
                Ok(())
            } else {
                Err(GraphError::UnknownTask(format!("{t}")))
            }
        };
        match *delta {
            Delta::SetComputation { task, .. }
            | Delta::SetRelease { task, .. }
            | Delta::SetDeadline { task, .. }
            | Delta::SetMode { task, .. }
            | Delta::RemoveDemand { task, .. } => check_task(task),
            Delta::SetMessage { from, to, .. } => {
                check_task(from)?;
                check_task(to)?;
                if self.graph.message(from, to).is_some() {
                    Ok(())
                } else {
                    Err(GraphError::UnknownEdge {
                        from: self.graph.task(from).name().to_owned(),
                        to: self.graph.task(to).name().to_owned(),
                    })
                }
            }
            Delta::AddDemand { task, resource } => {
                check_task(task)?;
                let catalog = self.graph.catalog();
                if catalog.contains(resource) && !catalog.is_processor(resource) {
                    Ok(())
                } else {
                    Err(GraphError::BadTaskTyping {
                        task: self.graph.task(task).name().to_owned(),
                        detail: format!("id {resource} is not a plain resource in the catalog"),
                    })
                }
            }
        }
    }

    /// Applies one pre-validated delta to the graph and seeds the dirty
    /// sets with exactly what the edit can influence:
    ///
    /// * `C_i` feeds successors' EST (`emr = E + C + m`) and
    ///   predecessors' LCT (`lms = L - C - m`), plus the task's own Ψ;
    /// * `rel_i` / `D_i` feed only the task's own EST / LCT evaluation;
    /// * the mode feeds only the task's own Ψ;
    /// * a message `m_{a,b}` feeds `b`'s EST and `a`'s LCT;
    /// * a demand edit dirties the resource's member set, and — because
    ///   dedicated-model mergeability inspects resource sets — the task's
    ///   own window plus both immediate neighborhoods (harmless
    ///   over-seeding under a shared model; cutoff absorbs it).
    fn ingest(&mut self, delta: &Delta) {
        match *delta {
            Delta::SetComputation { task, computation } => {
                self.graph
                    .set_computation(task, computation)
                    .expect("delta validated");
                for e in self.graph.successors(task) {
                    self.pending_est.insert(e.other);
                }
                for e in self.graph.predecessors(task) {
                    self.pending_lct.insert(e.other);
                }
                self.pending_touched.insert(task);
            }
            Delta::SetRelease { task, release } => {
                self.graph
                    .set_release(task, release)
                    .expect("delta validated");
                self.pending_est.insert(task);
            }
            Delta::SetDeadline { task, deadline } => {
                self.graph
                    .set_deadline(task, deadline)
                    .expect("delta validated");
                self.pending_lct.insert(task);
            }
            Delta::SetMode { task, mode } => {
                self.graph.set_mode(task, mode).expect("delta validated");
                self.pending_touched.insert(task);
            }
            Delta::SetMessage { from, to, message } => {
                self.graph
                    .set_message(from, to, message)
                    .expect("delta validated");
                self.pending_est.insert(to);
                self.pending_lct.insert(from);
            }
            Delta::AddDemand { task, resource } | Delta::RemoveDemand { task, resource } => {
                let changed = match *delta {
                    Delta::AddDemand { .. } => self
                        .graph
                        .add_resource_demand(task, resource)
                        .expect("delta validated"),
                    _ => self
                        .graph
                        .remove_resource_demand(task, resource)
                        .expect("delta validated"),
                };
                if changed {
                    self.pending_demand.insert(resource);
                    self.pending_est.insert(task);
                    self.pending_lct.insert(task);
                    for e in self.graph.successors(task) {
                        self.pending_est.insert(e.other);
                    }
                    for e in self.graph.predecessors(task) {
                        self.pending_lct.insert(e.other);
                    }
                }
            }
        }
    }

    /// One Figure 2/3 wave in `pass`'s evaluation order (EST forward,
    /// LCT backward): recompute seeded tasks, propagate to their outputs
    /// only when the value moved. One packer and one [`MergeScan`] serve
    /// every evaluation of the wave, and no trace is built. Inputs are read from `self.timing` in
    /// place — every one is settled before the task that reads it. Merge
    /// selections are re-stored even on a value tie (the selected set can
    /// change while the value doesn't; downstream evaluations depend only
    /// on values, so the cutoff stays sound).
    fn propagate(&mut self, pass: Pass, seeds: &BTreeSet<TaskId>) -> u64 {
        if seeds.is_empty() {
            return 0;
        }
        let mut dirty = vec![false; self.graph.task_count()];
        for &s in seeds {
            dirty[s.index()] = true;
        }
        let mut recomputed = 0u64;
        let mut packer = Timeline::new();
        let mut scan = MergeScan::default();
        for i in pass.order(&self.graph) {
            if !dirty[i.index()] {
                continue;
            }
            recomputed += 1;
            let value = bound_of(
                &self.graph,
                &self.model,
                pass,
                i,
                &self.timing,
                &mut packer,
                &mut scan,
            );
            if value != self.timing.get(pass, i) {
                self.pending_touched.insert(i);
                self.pending_window.insert(i);
                for e in pass.outputs(&self.graph, i) {
                    dirty[e.other.index()] = true;
                }
            }
            self.timing.set(pass, i, value, scan.merged());
        }
        recomputed
    }

    /// Re-partitions and re-sweeps dirty resources only, replaying cached
    /// block maxima for blocks whose members and windows are unchanged,
    /// and returns the refreshed caches (`None` when no resource is
    /// dirty).
    ///
    /// The dirty blocks are re-swept under a `session.sweep` span; at the
    /// `Filtered` level their refinement follows under its own
    /// `session.propagate` span. `self.caches` is only read: the caller
    /// commits the result, so an error (a tripped token, an overflowing
    /// bound) leaves the previous caches — and therefore the session's
    /// reported bounds — fully intact.
    fn refresh_bounds(
        &self,
        touched: &BTreeSet<TaskId>,
        window_moved: &BTreeSet<TaskId>,
        demand_dirty: &BTreeSet<ResourceId>,
        stats: &mut ApplyStats,
        probe: &dyn Probe,
        ctl: &CancelToken,
    ) -> Result<Option<Vec<ResourceState>>, AnalysisError> {
        let sweep = span(probe, "session.sweep", Label::None);
        // A resource is dirty when its demand set changed or any current
        // demander's sweep-relevant state moved.
        let mut dirty: BTreeSet<ResourceId> = demand_dirty.clone();
        for &t in touched {
            dirty.extend(self.graph.task(t).demands());
        }
        if dirty.is_empty() {
            return Ok(None);
        }

        let resources: Vec<ResourceId> = self.graph.resources_used().into_iter().collect();
        let mut old: BTreeMap<ResourceId, ResourceState> = self
            .caches
            .iter()
            .map(|c| (c.partition.resource, c.clone()))
            .collect();

        let mut caches: Vec<ResourceState> = Vec::with_capacity(resources.len());
        let mut rebuilt: Vec<usize> = Vec::new();
        // (cache index, block index) of every block that must be swept.
        let mut jobs: Vec<(usize, usize)> = Vec::new();

        for r in resources {
            match old.remove(&r) {
                Some(cache) if !dirty.contains(&r) => caches.push(cache),
                previous => {
                    stats.resources_dirty += 1;
                    let ci = caches.len();
                    rebuilt.push(ci);
                    // Figure 4's partition depends only on the member set
                    // and each member's window, so when neither changed
                    // the cached structure is already correct and only
                    // blocks holding a touched member need a fresh sweep.
                    let structural = previous.is_none()
                        || demand_dirty.contains(&r)
                        || window_moved
                            .iter()
                            .any(|&t| self.graph.task(t).demands().any(|d| d == r));
                    let (cache, pending) = if structural {
                        self.plan_rebuild(r, previous, touched, stats)
                    } else {
                        Self::plan_reuse(previous.expect("previous checked"), touched, stats)
                    };
                    jobs.extend(pending.into_iter().map(|bi| (ci, bi)));
                    caches.push(cache);
                }
            }
        }

        // Dirty blocks in (cache, block) order — the order a serial
        // re-sweep would visit them — labeled by cache index, which is the
        // resource's partition index in a from-scratch run.
        let blocks: Vec<_> = jobs
            .iter()
            .map(|&(ci, bi)| (ci, caches[ci].partition.block(bi)))
            .collect();
        let maxima = sweep_blocks(
            &self.graph,
            &self.timing,
            &blocks,
            &self.options,
            probe,
            ctl,
        )?;
        for (&(ci, bi), max) in jobs.iter().zip(maxima) {
            caches[ci].block_maxima[bi] = max;
        }
        drop(sweep);

        // Re-swept blocks recompute their filtered refinement under the
        // fresh timing; reused blocks replay the cached value — valid
        // under exactly the maxima-reuse invariants (identical member
        // list, unchanged windows, no touched member), because refinement
        // is pure in the members' windows, computations, and modes.
        if self.options.propagation.filters() {
            let _propagate = span(probe, "session.propagate", Label::None);
            for &(ci, bi) in &jobs {
                caches[ci].block_refined[bi] = refine_block(
                    &self.graph,
                    &self.timing,
                    caches[ci].partition.block(bi).tasks,
                    probe,
                    ctl,
                )?;
            }
        }
        for ci in rebuilt {
            let cache = &mut caches[ci];
            cache.bound = fold_bound(
                cache.partition.resource,
                &cache.block_maxima,
                &cache.block_refined,
            )?;
        }
        Ok(Some(caches))
    }

    /// Keeps a dirty resource's cached partition in place — valid only
    /// when the demand set is unchanged and no member window moved —
    /// zeroing the maxima of blocks that hold a touched member and
    /// returning their indices for re-sweeping.
    fn plan_reuse(
        mut cache: ResourceState,
        touched: &BTreeSet<TaskId>,
        stats: &mut ApplyStats,
    ) -> (ResourceState, Vec<usize>) {
        let mut pending_jobs = Vec::new();
        for (bi, block) in cache.partition.blocks().enumerate() {
            if block.tasks.iter().any(|t| touched.contains(t)) {
                cache.block_maxima[bi] = RatioMax::default();
                cache.block_refined[bi] = 0;
                pending_jobs.push(bi);
                stats.blocks_resweeped += 1;
            } else {
                stats.blocks_reused += 1;
            }
        }
        (cache, pending_jobs)
    }

    /// Re-partitions one dirty resource and decides block-by-block
    /// whether the cached sweep can be replayed, returning the new cache
    /// (dirty maxima zeroed) plus the block indices that must be swept.
    ///
    /// A block is clean when an old block with the same leading task
    /// carries the identical member list, the same covering
    /// [`PartitionBlock::window_span`], and none of its members were
    /// touched — blocks partition `ST_r`, so the leading task is a
    /// unique, stable key.
    ///
    /// [`PartitionBlock::window_span`]: crate::PartitionBlock::window_span
    fn plan_rebuild(
        &self,
        r: ResourceId,
        previous: Option<ResourceState>,
        touched: &BTreeSet<TaskId>,
        stats: &mut ApplyStats,
    ) -> (ResourceState, Vec<usize>) {
        let partition = partition_tasks(&self.graph, &self.timing, r);
        // Old block indices by leading task.
        let old_blocks: BTreeMap<TaskId, usize> = previous
            .iter()
            .flat_map(|prev| prev.partition.blocks().enumerate())
            .map(|(bi, block)| (block.tasks[0], bi))
            .collect();

        let mut block_maxima = Vec::with_capacity(partition.block_count());
        let mut block_refined = Vec::with_capacity(partition.block_count());
        let mut pending_jobs = Vec::new();
        for (bi, block) in partition.blocks().enumerate() {
            let reused = previous.as_ref().and_then(|prev| {
                let old = *old_blocks.get(&block.tasks[0])?;
                let old_block = prev.partition.block(old);
                let clean = old_block.tasks == block.tasks
                    && old_block.window_span() == block.window_span()
                    && block.tasks.iter().all(|t| !touched.contains(t));
                clean.then(|| (prev.block_maxima[old], prev.block_refined[old]))
            });
            if let Some((max, refined)) = reused {
                block_maxima.push(max);
                block_refined.push(refined);
                stats.blocks_reused += 1;
            } else {
                block_maxima.push(RatioMax::default());
                block_refined.push(0);
                pending_jobs.push(bi);
                stats.blocks_resweeped += 1;
            }
        }
        (
            ResourceState {
                partition,
                block_maxima,
                block_refined,
                bound: empty_bound(r),
            },
            pending_jobs,
        )
    }
}
