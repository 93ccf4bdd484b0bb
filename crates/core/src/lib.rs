//! Lower bounds on processors, resources, and system cost for real-time
//! applications.
//!
//! This crate implements the analysis of **R. Alqadi and P. Ramanathan,
//! "Analysis of Resource Lower Bounds in Real-Time Applications",
//! ICDCS 1995** over the task-graph model of [`rtlb_graph`]: given an
//! application DAG (computation times, release times, deadlines, processor
//! types, resource needs, message sizes) and a distributed-system model
//! ([`SystemModel::Shared`] or [`SystemModel::Dedicated`]), it derives
//!
//! 1. **task windows** `[E_i, L_i]` — [`compute_timing`], Figures 2–3;
//! 2. **per-resource partitions** — [`partition_tasks`], Figure 4;
//! 3. **resource lower bounds** `LB_r` — [`resource_bound`], Theorems
//!    3–5 and Equation 6.3;
//! 4. **system-cost lower bounds** — [`shared_cost_bound`] /
//!    [`dedicated_cost_bound`], Section 7 (the dedicated bound solves an
//!    integer program with [`rtlb_ilp`]).
//!
//! The one-call entry point is [`analyze`]. For scenario sweeps that
//! re-analyze many small variants of one instance, [`AnalysisSession`]
//! applies typed [`Delta`] edits and recomputes only the dirty cone; both
//! run the same stages and the same block-sweep driver. The slow
//! reference implementations the differential tests compare against live
//! in [`oracle`].
//!
//! Every bound is *necessary*: a system with fewer units of some resource
//! than `LB_r` (or cheaper than the cost bound) cannot meet the
//! application's constraints, whatever the scheduler does. Bounds are not
//! in general *sufficient* — see the `rtlb-sched` crate for schedulers
//! that probe the gap.
//!
//! # Example
//!
//! ```
//! use rtlb_core::{analyze, SystemModel};
//! use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut catalog = Catalog::new();
//! let dsp = catalog.processor("DSP");
//! let antenna = catalog.resource("antenna");
//!
//! let mut b = TaskGraphBuilder::new(catalog);
//! b.default_deadline(Time::new(10));
//! let sample = b.add_task(
//!     TaskSpec::new("sample", Dur::new(4), dsp).resource(antenna),
//! )?;
//! let track = b.add_task(TaskSpec::new("track", Dur::new(4), dsp))?;
//! let classify = b.add_task(TaskSpec::new("classify", Dur::new(4), dsp))?;
//! b.add_edge(sample, track, Dur::new(1))?;
//! b.add_edge(sample, classify, Dur::new(1))?;
//! let graph = b.build()?;
//!
//! let analysis = analyze(&graph, &SystemModel::shared())?;
//! assert_eq!(analysis.units_required(dsp), 2);
//! assert_eq!(analysis.units_required(antenna), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod bounds;
mod cancel;
mod cost;
mod error;
mod estlct;
mod exec;
mod fault;
mod merge;
mod metrics;
mod model;
pub mod oracle;
mod overlap;
mod partition;
mod propagate;
mod report;
mod session;
mod sweep;
mod timeline;

pub use analysis::{
    analyze, analyze_ctl, analyze_with, analyze_with_probe, Analysis, AnalysisOptions,
};
pub use bounds::{resource_bound, theta, CandidatePolicy, IntervalWitness, ResourceBound};
pub use cancel::CancelToken;
pub use cost::{dedicated_cost_bound, shared_cost_bound, DedicatedCostBound, SharedCostBound};
pub use error::AnalysisError;
pub use estlct::{
    compute_timing, compute_timing_traced, MergeDecision, MergeStep, TaskTrace, TaskWindow,
    TimingAnalysis, TimingTrace,
};
pub use exec::{effective_threads, run_jobs};
pub use fault::{classify, panic_message, OutcomeKind, OUTCOME_KINDS};
pub use merge::mergeable;
pub use metrics::build_run_report;
pub use model::{DedicatedModel, NodeType, NodeTypeId, SharedModel, SystemModel};
pub use overlap::overlap;
pub use partition::{partition_all, partition_tasks, PartitionBlock, ResourcePartition};
pub use propagate::PropagationLevel;
pub use report::{render_analysis, render_bounds, render_dedicated_cost, render_shared_cost};
pub use session::{AnalysisSession, ApplyStats, Delta};
