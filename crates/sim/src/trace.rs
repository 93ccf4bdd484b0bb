//! Simulation traces and reports.

use rtlb_graph::{Dur, TaskGraph, TaskId, Time};

/// One observable event of a simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimEvent {
    /// A task began executing on `(processor type index, unit)`.
    Started {
        /// When.
        at: Time,
        /// Which task.
        task: TaskId,
        /// Unit index it runs on.
        unit: u32,
    },
    /// A task completed.
    Finished {
        /// When.
        at: Time,
        /// Which task.
        task: TaskId,
    },
    /// A message was delivered over the network.
    Delivered {
        /// Delivery time.
        at: Time,
        /// Sending task.
        from: TaskId,
        /// Receiving task.
        to: TaskId,
    },
}

impl SimEvent {
    /// The event's timestamp.
    pub fn at(&self) -> Time {
        match *self {
            SimEvent::Started { at, .. }
            | SimEvent::Finished { at, .. }
            | SimEvent::Delivered { at, .. } => at,
        }
    }
}

/// Outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Chronological event log.
    pub events: Vec<SimEvent>,
    /// Observed completion time per task (by task index); `None` if the
    /// task never ran.
    pub finish: Vec<Option<Time>>,
    /// Tasks that completed after their deadline.
    pub deadline_misses: Vec<TaskId>,
    /// Tasks that never started (stalled on a dependency or resource that
    /// never freed — a plan-level deadlock or starvation).
    pub stalled: Vec<TaskId>,
    /// Completion time of the last task, if every task ran.
    pub makespan: Option<Time>,
    /// Total wire time consumed by the network.
    pub network_busy: Dur,
    /// Number of network transfers.
    pub network_transfers: u64,
}

impl SimReport {
    /// Whether every task ran and met its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.stalled.is_empty() && self.deadline_misses.is_empty()
    }

    /// Observed finish of one task.
    pub fn finish_of(&self, task: TaskId) -> Option<Time> {
        self.finish.get(task.index()).copied().flatten()
    }

    /// Human-readable one-line summary.
    pub fn summary(&self, graph: &TaskGraph) -> String {
        format!(
            "{} tasks, {} misses, {} stalled, makespan {}, network busy {}",
            graph.task_count(),
            self.deadline_misses.len(),
            self.stalled.len(),
            self.makespan
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
            self.network_busy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_timestamps() {
        let e = SimEvent::Started {
            at: Time::new(4),
            task: TaskId::from_index(0),
            unit: 1,
        };
        assert_eq!(e.at(), Time::new(4));
        let e = SimEvent::Delivered {
            at: Time::new(9),
            from: TaskId::from_index(0),
            to: TaskId::from_index(1),
        };
        assert_eq!(e.at(), Time::new(9));
    }

    #[test]
    fn report_predicates() {
        let ok = SimReport {
            events: vec![],
            finish: vec![Some(Time::new(3))],
            deadline_misses: vec![],
            stalled: vec![],
            makespan: Some(Time::new(3)),
            network_busy: Dur::ZERO,
            network_transfers: 0,
        };
        assert!(ok.all_deadlines_met());
        assert_eq!(ok.finish_of(TaskId::from_index(0)), Some(Time::new(3)));
        assert_eq!(ok.finish_of(TaskId::from_index(7)), None);

        let bad = SimReport {
            deadline_misses: vec![TaskId::from_index(0)],
            ..ok.clone()
        };
        assert!(!bad.all_deadlines_met());
    }
}
