//! Workloads for exercising the resource lower-bound analysis.
//!
//! Three families:
//!
//! * [`paper_example`](fn@paper_example) — the reconstructed 15-task instance of the
//!   paper's Section 8 (Figure 7), the ground truth for the reproduction
//!   experiments;
//! * synthetic generators ([`layered`], [`fork_join`],
//!   [`independent_tasks`], [`chain`]) — deterministic, seeded families
//!   for scaling/validity/tightness studies;
//! * [`radar_scenario`] — the shipboard-radar pipeline the paper's
//!   introduction motivates the analysis with;
//! * periodic transactions ([`Transaction`], [`unroll`]) — hyperperiod
//!   unrolling that extends the one-shot analysis to periodic systems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generators;
mod paper_example;
mod periodic;
mod radar;

pub use generators::{chain, fork_join, framed_tasks, independent_tasks, layered, LayeredConfig};
pub use paper_example::{paper_example, PaperExample};
pub use periodic::{hyperperiod, unroll, utilization, Stage, Transaction};
pub use radar::{radar_scenario, RadarScenario};
