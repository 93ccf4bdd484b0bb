//! Discrete-event simulation of the distributed systems the paper's
//! bounds are computed for.
//!
//! The analysis in `rtlb-core` reasons about schedules statically; this
//! crate *executes* them:
//!
//! * [`replay`](fn@replay) — runs a static [`Schedule`](rtlb_sched::Schedule)
//!   (placement + order) on a simulated system, deriving all timing from
//!   causality: unit availability, message delivery through a simulated
//!   interconnection network, release times and resource counts. Under
//!   the paper's contention-free network model a valid schedule replays
//!   to exactly its planned times.
//! * [`online_dispatch`] — an earliest-LCT online dispatcher with no
//!   precomputed plan, which must pay every message on the wire
//!   (co-location savings require planning); comparing it to the static
//!   merge-guided scheduler measures the value of the paper's merge
//!   analysis.
//! * [`NetworkModel`] — the paper's ideal (infinite-bandwidth) network
//!   versus a single shared bus with FIFO arbitration, quantifying when
//!   the paper's "communication takes exactly `m`" assumption breaks
//!   (experiment E14).
//!
//! # Example
//!
//! ```
//! use rtlb_sched::{list_schedule, Capacities};
//! use rtlb_sim::{replay, NetworkModel};
//! use rtlb_workloads::paper_example;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ex = paper_example();
//! let caps = Capacities::uniform(&ex.graph, 5);
//! let schedule = list_schedule(&ex.graph, &caps)?;
//!
//! let ideal = replay(&ex.graph, &caps, &schedule, NetworkModel::Ideal)?;
//! let bus = replay(&ex.graph, &caps, &schedule, NetworkModel::SharedBus)?;
//! assert!(ideal.all_deadlines_met());
//! assert!(bus.makespan >= ideal.makespan); // contention can only hurt
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;
mod online;
mod replay;
mod trace;

pub use network::{Network, NetworkModel};
pub use online::online_dispatch;
pub use replay::{replay, ReplayError};
pub use trace::{SimEvent, SimReport};
