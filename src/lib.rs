//! `rtlb` — resource lower bounds for real-time applications.
//!
//! A from-scratch Rust reproduction of **R. Alqadi and P. Ramanathan,
//! "Analysis of Resource Lower Bounds in Real-Time Applications"
//! (ICDCS 1995)**: given a real-time application (a DAG of tasks with
//! computation times, release times, deadlines, processor types, resource
//! requirements and inter-task message times) and a distributed-system
//! model (shared or dedicated), compute lower bounds on the number of
//! processors/resources of each type and on the total system cost that
//! *any* feasible deployment must respect.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`graph`] — the application model (tasks, constraints, DAG builder);
//! * [`core`] — the paper's analysis (EST/LCT, partitioning, overlap,
//!   bounds, cost programs);
//! * [`format`](mod@format) — the instance and scenario text formats,
//!   and the canonical text and content keys of the result cache;
//! * [`ilp`] — exact rational simplex + branch-and-bound (dedicated cost
//!   bound);
//! * [`sched`] — schedulers and a full-constraint validator for probing
//!   bound tightness;
//! * [`sim`] — discrete-event simulation of the distributed system
//!   (schedule replay, online dispatch, network contention);
//! * [`baselines`] — Fernandez–Bussell (1973), Al-Mohummed (1990) and
//!   Jain–Rajaraman (1994) style prior art;
//! * [`workloads`] — the paper's 15-task example plus synthetic
//!   generators;
//! * [`obs`] — the observability layer (probe trait, recorder, run
//!   report, Chrome trace sink).
//!
//! # Quickstart
//!
//! ```
//! use rtlb::core::{analyze, SystemModel};
//! use rtlb::graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut catalog = Catalog::new();
//! let cpu = catalog.processor("CPU");
//! let sensor = catalog.resource("sensor");
//!
//! let mut builder = TaskGraphBuilder::new(catalog);
//! builder.default_deadline(Time::new(12));
//! let sample = builder.add_task(
//!     TaskSpec::new("sample", Dur::new(5), cpu).resource(sensor),
//! )?;
//! let filter = builder.add_task(TaskSpec::new("filter", Dur::new(5), cpu))?;
//! let detect = builder.add_task(TaskSpec::new("detect", Dur::new(5), cpu))?;
//! builder.add_edge(sample, filter, Dur::new(1))?;
//! builder.add_edge(sample, detect, Dur::new(1))?;
//! let graph = builder.build()?;
//!
//! let analysis = analyze(&graph, &SystemModel::shared())?;
//! assert_eq!(analysis.units_required(cpu), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod check;
pub mod shard;

pub use rtlb_baselines as baselines;
pub use rtlb_cache as cache;
pub use rtlb_core as core;
pub use rtlb_format as format;
pub use rtlb_graph as graph;
pub use rtlb_ilp as ilp;
pub use rtlb_obs as obs;
pub use rtlb_sched as sched;
pub use rtlb_serve as serve;
pub use rtlb_sim as sim;
pub use rtlb_workloads as workloads;
