//! The end-to-end analysis pipeline (Section 3's four steps).

use rtlb_obs::{span, Label, Probe, NULL_PROBE};

use rtlb_graph::{ResourceId, TaskGraph};

use crate::bounds::{fold_bound, CandidatePolicy, RatioMax, ResourceBound};
use crate::cancel::CancelToken;
use crate::cost::{dedicated_cost_bound, shared_cost_bound, DedicatedCostBound, SharedCostBound};
use crate::error::AnalysisError;
use crate::estlct::{compute_timing_ctl, TimingAnalysis};
use crate::model::SystemModel;
use crate::partition::{partition_all, ResourcePartition};
use crate::propagate::{refine_block, PropagationLevel};
use crate::sweep::sweep_partitions;

/// Tuning knobs for [`analyze_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Which interval endpoints the Equation 6.3 sweep samples; the
    /// default is the paper's EST/LCT grid, [`CandidatePolicy::Extended`]
    /// adds the forced-overlap corners and can only tighten the bound.
    pub candidates: CandidatePolicy,
    /// Worker threads for the partitioned sweep: `1` (default) is fully
    /// serial, `0` means one per available core. Results are identical
    /// for every value.
    pub parallelism: usize,
    /// Chunk size, in candidate-`t1` columns, for splitting one
    /// partition block's sweep across workers: `0` (default) sizes
    /// chunks off the worker pool automatically, any other value is
    /// taken literally. Results are identical for every value — chunk
    /// maxima merge in ascending-`t1` order with the serial tie-break.
    pub chunk_columns: usize,
    /// Post-sweep filtering level: the default
    /// [`PropagationLevel::Timeline`] reports the sweep's bounds;
    /// [`PropagationLevel::Filtered`] additionally runs
    /// capacity-conditional detectable-precedence / edge-finding
    /// filtering after the sweep and can only raise bounds.
    pub propagation: PropagationLevel,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions {
            candidates: CandidatePolicy::EstLct,
            parallelism: 1,
            chunk_columns: 0,
            propagation: PropagationLevel::default(),
        }
    }
}

impl AnalysisOptions {
    /// The stable fingerprint of every knob that can change a computed
    /// bound, used by the result cache as part of an instance's content
    /// key.
    ///
    /// `candidates` and `propagation` select which bound is computed
    /// (`filtered` can be tighter than `timeline`). `parallelism` and
    /// `chunk_columns` are pure execution shape — results are documented
    /// and property-tested identical for every value — so they are
    /// excluded: runs at different pool sizes share cache entries.
    pub fn semantic_fingerprint(&self) -> String {
        format!(
            "candidates={};propagation={}",
            self.candidates.label(),
            self.propagation.label(),
        )
    }
}

/// Everything the lower-bound analysis derives for one application and
/// system model: task windows, per-resource partitions, and `LB_r` for
/// every demanded resource.
///
/// Cost bounds (Section 7) are computed on demand from [`Analysis::bounds`]
/// by [`shared_cost_bound`] / [`dedicated_cost_bound`].
#[derive(Clone, Debug)]
pub struct Analysis {
    timing: TimingAnalysis,
    partitions: Vec<ResourcePartition>,
    bounds: Vec<ResourceBound>,
}

impl Analysis {
    /// Assembles an `Analysis` from separately maintained parts — the
    /// session's snapshot path, which owns its own timing/partition/bound
    /// state and refreshes it incrementally.
    pub(crate) fn from_parts(
        timing: TimingAnalysis,
        partitions: Vec<ResourcePartition>,
        bounds: Vec<ResourceBound>,
    ) -> Analysis {
        Analysis {
            timing,
            partitions,
            bounds,
        }
    }

    /// The EST/LCT analysis (step 1).
    pub fn timing(&self) -> &TimingAnalysis {
        &self.timing
    }

    /// The per-resource partitions (step 2), in resource-id order.
    pub fn partitions(&self) -> &[ResourcePartition] {
        &self.partitions
    }

    /// The resource lower bounds (step 3), in resource-id order.
    pub fn bounds(&self) -> &[ResourceBound] {
        &self.bounds
    }

    /// The bound for one resource, if the application demands it.
    pub fn bound_for(&self, r: ResourceId) -> Option<&ResourceBound> {
        self.bounds.iter().find(|b| b.resource == r)
    }

    /// `LB_r` as a plain number (0 for undemanded resources).
    pub fn units_required(&self, r: ResourceId) -> u32 {
        self.bound_for(r).map_or(0, |b| b.bound)
    }

    /// Step 4 for a shared model: [`shared_cost_bound`] of the stored
    /// bounds, under a `cost.shared` span on `probe`.
    ///
    /// # Errors
    ///
    /// See [`shared_cost_bound`].
    pub fn shared_cost_probed(
        &self,
        model: &crate::model::SharedModel,
        probe: &dyn Probe,
    ) -> Result<SharedCostBound, AnalysisError> {
        let _step = span(probe, "cost.shared", Label::None);
        shared_cost_bound(model, &self.bounds)
    }

    /// Step 4 for a dedicated model: the integer program of
    /// [`dedicated_cost_bound`] over the stored bounds, under a
    /// `cost.dedicated` span on `probe`.
    ///
    /// # Errors
    ///
    /// See [`dedicated_cost_bound`].
    pub fn dedicated_cost_probed(
        &self,
        graph: &TaskGraph,
        model: &crate::model::DedicatedModel,
        probe: &dyn Probe,
    ) -> Result<DedicatedCostBound, AnalysisError> {
        let _step = span(probe, "cost.dedicated", Label::None);
        dedicated_cost_bound(graph, model, &self.bounds)
    }
}

/// Runs steps 1–3 of the analysis with default options.
///
/// # Errors
///
/// * [`AnalysisError::UnhostableTask`] if a dedicated model cannot host
///   some task.
/// * [`AnalysisError::Infeasible`] if the EST/LCT analysis proves the
///   constraints unsatisfiable (no resource count can help).
///
/// # Example
///
/// ```
/// use rtlb_core::{analyze, SystemModel};
/// use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut catalog = Catalog::new();
/// let p = catalog.processor("P");
/// let mut b = TaskGraphBuilder::new(catalog);
/// for name in ["a", "b", "c"] {
///     b.add_task(TaskSpec::new(name, Dur::new(4), p).deadline(Time::new(6)))?;
/// }
/// let graph = b.build()?;
/// let analysis = analyze(&graph, &SystemModel::shared())?;
/// assert_eq!(analysis.units_required(p), 2); // 12 ticks of work in 6
/// # Ok(())
/// # }
/// ```
pub fn analyze(graph: &TaskGraph, model: &SystemModel) -> Result<Analysis, AnalysisError> {
    analyze_with(graph, model, AnalysisOptions::default())
}

/// Runs steps 1–3 with explicit options.
///
/// # Errors
///
/// Same as [`analyze`].
pub fn analyze_with(
    graph: &TaskGraph,
    model: &SystemModel,
    options: AnalysisOptions,
) -> Result<Analysis, AnalysisError> {
    analyze_with_probe(graph, model, options, &NULL_PROBE)
}

/// [`analyze_with`], reporting per-stage spans and pipeline counters to
/// `probe`.
///
/// Instrumentation is purely observational: the returned [`Analysis`] is
/// bit-identical whatever probe is attached (including [`NULL_PROBE`],
/// which compiles to no-ops).
///
/// # Errors
///
/// Same as [`analyze`].
pub fn analyze_with_probe(
    graph: &TaskGraph,
    model: &SystemModel,
    options: AnalysisOptions,
    probe: &dyn Probe,
) -> Result<Analysis, AnalysisError> {
    analyze_ctl(graph, model, options, probe, &CancelToken::none())
}

/// Largest magnitude any input quantity may have for the pipeline's
/// fixed-width arithmetic to stay exact: `Time::MAX` (`i64::MAX / 4`).
///
/// With every release and deadline in `[-M, M]` and the total computation
/// plus message volume at most `M`, every intermediate the pipeline forms
/// (`emr`/`lms` boundaries, `ect`/`lst` packings, sweep ramp positions,
/// `Θ` accumulations) stays within `±3M < i64::MAX` — no add or subtract
/// can wrap, in release or debug builds.
const MAGNITUDE_LIMIT: i64 = i64::MAX / 4;

/// Rejects instances whose raw magnitudes could overflow the pipeline's
/// `i64` arithmetic. Sums are accumulated in `i128`, so the check itself
/// cannot wrap.
pub(crate) fn check_magnitudes(graph: &TaskGraph) -> Result<(), AnalysisError> {
    let limit = i128::from(MAGNITUDE_LIMIT);
    let mut volume: i128 = 0;
    for (t, task) in graph.tasks() {
        let release = i128::from(task.release().ticks());
        let deadline = i128::from(task.deadline().ticks());
        if release.abs() > limit || deadline.abs() > limit {
            return Err(AnalysisError::BoundOverflow {
                detail: format!(
                    "task `{}` has release {release} or deadline {deadline} beyond \
                     the representable range +/-{MAGNITUDE_LIMIT}",
                    task.name()
                ),
            });
        }
        volume += i128::from(task.computation().ticks());
        for e in graph.successors(t) {
            volume += i128::from(e.message.ticks());
        }
        if volume > limit {
            return Err(AnalysisError::BoundOverflow {
                detail: format!(
                    "total computation + message volume {volume} exceeds \
                     {MAGNITUDE_LIMIT}; windows this wide cannot be analyzed exactly"
                ),
            });
        }
    }
    Ok(())
}

/// [`analyze_with_probe`] polling `ctl` at every pipeline checkpoint:
/// once per task in the timing passes, once per `t1` column in the
/// sweeps. This is the batch driver's per-instance entry point.
///
/// Also rejects instances whose magnitudes could overflow the `i64`
/// arithmetic (see [`AnalysisError::BoundOverflow`]) before any
/// computation starts, so the pipeline proper never panics on extreme
/// inputs even in debug builds.
///
/// # Errors
///
/// Same as [`analyze`], plus [`AnalysisError::BoundOverflow`] for
/// extreme-magnitude instances and [`AnalysisError::Deadline`] when
/// `ctl` trips.
pub fn analyze_ctl(
    graph: &TaskGraph,
    model: &SystemModel,
    options: AnalysisOptions,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<Analysis, AnalysisError> {
    let _run = span(probe, "analyze", Label::None);
    let (timing, resources) = run_stages(graph, model, options, probe, ctl)?;
    let (partitions, bounds) = resources
        .into_iter()
        .map(|r| (r.partition, r.bound))
        .unzip();
    Ok(Analysis {
        timing,
        partitions,
        bounds,
    })
}

/// One resource's analysis state: its Figure 4 partition, one Equation
/// 6.3 sweep maximum and one filtered refinement per block (all zero
/// below [`PropagationLevel::Filtered`]), and the bound they fold into.
/// [`crate::AnalysisSession`] keeps these as its per-resource caches.
#[derive(Clone, Debug)]
pub(crate) struct ResourceState {
    pub(crate) partition: ResourcePartition,
    pub(crate) block_maxima: Vec<RatioMax>,
    pub(crate) block_refined: Vec<u32>,
    pub(crate) bound: ResourceBound,
}

/// The from-scratch stage sequence shared by [`analyze_ctl`] and
/// [`crate::AnalysisSession::new_ctl`]: validation and the magnitude
/// guard, the Figure 2/3 timing, feasibility, the Figure 4 partition, the
/// Equation 6.3 block sweep, and (at the `Filtered` level) the per-block
/// refinement — each under its `analyze.*` span — returning the windows
/// and one [`ResourceState`] per demanded resource, in resource-id order.
///
/// # Errors
///
/// Same as [`analyze_ctl`].
pub(crate) fn run_stages(
    graph: &TaskGraph,
    model: &SystemModel,
    options: AnalysisOptions,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<(TimingAnalysis, Vec<ResourceState>), AnalysisError> {
    {
        let _step = span(probe, "analyze.validate", Label::None);
        model.validate(graph)?;
        check_magnitudes(graph)?;
    }

    let timing = {
        let _step = span(probe, "analyze.timing", Label::None);
        compute_timing_ctl(graph, model, probe, ctl)?
    };

    {
        let _step = span(probe, "analyze.feasibility", Label::None);
        timing.check_feasible(graph)?;
    }

    let partitions = {
        let _step = span(probe, "analyze.partition", Label::None);
        partition_all(graph, &timing)
    };
    probe.add("partition.resources", partitions.len() as u64);
    probe.add(
        "partition.blocks",
        partitions.iter().map(|p| p.block_count() as u64).sum(),
    );
    probe.add(
        "partition.tasks",
        partitions.iter().map(|p| p.task_count() as u64).sum(),
    );
    for p in &partitions {
        probe.observe("partition.blocks_per_resource", p.block_count() as u64);
    }

    let maxima = {
        let _step = span(probe, "analyze.sweep", Label::None);
        sweep_partitions(graph, &timing, &partitions, &options, probe, ctl)?
    };

    let refined = if options.propagation.filters() {
        let _step = span(probe, "analyze.propagate", Label::None);
        partitions
            .iter()
            .map(|p| {
                p.blocks()
                    .map(|b| refine_block(graph, &timing, b.tasks, probe, ctl))
                    .collect::<Result<Vec<u32>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?
    } else {
        partitions
            .iter()
            .map(|p| vec![0; p.block_count()])
            .collect()
    };

    let resources = partitions
        .into_iter()
        .zip(maxima)
        .zip(refined)
        .map(|((partition, block_maxima), block_refined)| {
            let bound = fold_bound(partition.resource, &block_maxima, &block_refined)?;
            Ok(ResourceState {
                partition,
                block_maxima,
                block_refined,
                bound,
            })
        })
        .collect::<Result<_, AnalysisError>>()?;
    Ok((timing, resources))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NodeType, SharedModel};
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};

    fn three_tight_tasks() -> (TaskGraph, ResourceId) {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        for i in 0..3 {
            b.add_task(TaskSpec::new(format!("t{i}"), Dur::new(4), p).deadline(Time::new(4)))
                .unwrap();
        }
        (b.build().unwrap(), p)
    }

    #[test]
    fn pipeline_produces_bounds_and_partitions() {
        let (g, p) = three_tight_tasks();
        let a = analyze(&g, &SystemModel::shared()).unwrap();
        assert_eq!(a.units_required(p), 3);
        assert_eq!(a.partitions().len(), 1);
        assert_eq!(a.bounds().len(), 1);
        assert!(a.bound_for(p).is_some());
        assert_eq!(a.units_required(ResourceId::from_index(9)), 0);
    }

    #[test]
    fn fingerprint_names_only_bound_changing_options() {
        let shape = AnalysisOptions {
            parallelism: 8,
            chunk_columns: 3,
            ..AnalysisOptions::default()
        };
        assert_eq!(
            shape.semantic_fingerprint(),
            "candidates=est-lct;propagation=timeline"
        );
        let tighter = AnalysisOptions {
            candidates: CandidatePolicy::Extended,
            propagation: PropagationLevel::Filtered,
            ..AnalysisOptions::default()
        };
        assert_eq!(
            tighter.semantic_fingerprint(),
            "candidates=extended;propagation=filtered"
        );
    }

    #[test]
    fn infeasible_graph_is_rejected() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.add_task(TaskSpec::new("t", Dur::new(10), p).deadline(Time::new(3)))
            .unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            analyze(&g, &SystemModel::shared()),
            Err(AnalysisError::Infeasible { .. })
        ));
    }

    #[test]
    fn dedicated_model_is_validated_first() {
        let (g, _) = three_tight_tasks();
        let model = SystemModel::dedicated(vec![]);
        assert!(matches!(
            analyze(&g, &model),
            Err(AnalysisError::UnhostableTask(_))
        ));
    }

    #[test]
    fn extreme_magnitudes_error_instead_of_overflowing() {
        // Total computation volume past i64::MAX/4 trips the guard before
        // any arithmetic can wrap.
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        for i in 0..3 {
            b.add_task(
                TaskSpec::new(format!("t{i}"), Dur::new(i64::MAX / 8), p)
                    .deadline(Time::new(i64::MAX / 4)),
            )
            .unwrap();
        }
        let g = b.build().unwrap();
        assert!(matches!(
            analyze(&g, &SystemModel::shared()),
            Err(AnalysisError::BoundOverflow { .. })
        ));
    }

    #[test]
    fn tripped_token_cancels_the_pipeline() {
        use rtlb_obs::NULL_PROBE;
        let (g, _) = three_tight_tasks();
        let ctl = CancelToken::new();
        ctl.cancel();
        assert!(matches!(
            analyze_ctl(
                &g,
                &SystemModel::shared(),
                AnalysisOptions::default(),
                &NULL_PROBE,
                &ctl
            ),
            Err(AnalysisError::Deadline)
        ));
    }

    #[test]
    fn cost_helpers_delegate() {
        let (g, p) = three_tight_tasks();
        let a = analyze(&g, &SystemModel::shared()).unwrap();
        let shared = SharedModel::new().with_cost(p, 2);
        assert_eq!(a.shared_cost_probed(&shared, &NULL_PROBE).unwrap().total, 6);
        let ded = crate::model::DedicatedModel::new(vec![NodeType::new("n", p, [], 2)]);
        assert_eq!(
            a.dedicated_cost_probed(&g, &ded, &NULL_PROBE)
                .unwrap()
                .total,
            6
        );
    }
}
