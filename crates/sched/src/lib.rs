//! Schedulers and schedule validation for probing resource lower bounds.
//!
//! The lower bounds of `rtlb-core` are *necessary* conditions; this crate
//! supplies the machinery to probe how close to *sufficient* they are:
//!
//! * [`validate_schedule`] — checks a candidate schedule against every
//!   application constraint (windows, precedence + communication,
//!   non-preemption, processor-unit exclusivity, resource capacities);
//! * [`list_schedule`] — a sound-but-greedy EDF list scheduler: an upper
//!   bound on the resources a real system needs;
//! * [`find_schedule_exact`] — a complete feasibility search for small
//!   non-preemptive instances: the oracle proving `LB_r` never exceeds
//!   the true minimum (the validity experiments of EXPERIMENTS.md).
//!
//! All scheduling here targets the paper's *shared* model; the lower
//! bounds under test are computed for the same model.
//!
//! # Example
//!
//! ```
//! use rtlb_core::{analyze, SystemModel};
//! use rtlb_sched::{find_schedule_exact, Capacities, SearchBudget};
//! use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut catalog = Catalog::new();
//! let p = catalog.processor("P");
//! let mut b = TaskGraphBuilder::new(catalog);
//! for i in 0..3 {
//!     b.add_task(TaskSpec::new(format!("t{i}"), Dur::new(4), p).deadline(Time::new(6)))?;
//! }
//! let g = b.build()?;
//! let lb = analyze(&g, &SystemModel::shared())?.units_required(p);
//! // One unit fewer than the bound is infeasible — the bound is valid.
//! let caps = Capacities::new().with(p, lb - 1);
//! assert!(find_schedule_exact(&g, &caps, SearchBudget::default())?.is_none());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacity;
mod dedicated;
mod exact;
mod flow;
mod list;
mod schedule;
mod validate;

pub use capacity::Capacities;
pub use dedicated::{
    find_dedicated_schedule_exact, validate_dedicated, DedicatedSchedule, DedicatedViolation,
    NodeMix, NodePlacement,
};
pub use exact::{find_schedule_exact, min_units_exact, BudgetExceeded, SearchBudget};
pub use flow::{preemptive_feasible, preemptive_min_processors, MaxFlow};
pub use list::{list_schedule, ListScheduleError};
pub use schedule::{Placement, Schedule, Slice};
pub use validate::{validate_schedule, ScheduleViolation};
