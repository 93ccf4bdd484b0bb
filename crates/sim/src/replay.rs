//! Replay of a static schedule on a simulated distributed system.
//!
//! The input [`Schedule`] fixes *placement* (which unit each task runs
//! on) and *order* (per unit, planned start order);
//! the simulator derives the *timing* from causality: a task starts when
//! its unit is free, its predecessors' messages have arrived through the
//! simulated network, its release time has passed, its resources have
//! free units, and every earlier task of its unit plan has started.
//!
//! Under [`NetworkModel::Ideal`] a valid schedule replays to exactly its
//! planned times (tested). Under [`NetworkModel::SharedBus`] messages can
//! queue, starts slip, and deadlines planned against the paper's
//! contention-free model may be missed — the subject of experiment E14.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::error::Error;
use std::fmt;

use rtlb_graph::{ResourceId, TaskGraph, TaskId, Time};
use rtlb_sched::{Capacities, Schedule};

use crate::network::{Network, NetworkModel};
use crate::trace::{SimEvent, SimReport};

/// Errors rejecting a replay input (the plan itself, not its timing).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplayError {
    /// A task has no placement in the schedule.
    MissingPlacement(TaskId),
    /// A placement has multiple slices; replay executes tasks
    /// contiguously and does not support planned preemption.
    PreemptedPlacement(TaskId),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::MissingPlacement(t) => write!(f, "{t} has no placement"),
            ReplayError::PreemptedPlacement(t) => {
                write!(
                    f,
                    "{t} is planned with preemption, which replay does not support"
                )
            }
        }
    }
}

impl Error for ReplayError {}

/// One node's execution queue: the unit key (processor type, unit index)
/// and the planned (start, task) order.
type UnitPlan = ((ResourceId, u32), VecDeque<(Time, TaskId)>);

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EventKind {
    Finish(TaskId),
    Arrival(TaskId),
    Release(TaskId),
}

struct Engine<'g> {
    graph: &'g TaskGraph,
    caps: &'g Capacities,
    network: Network,
    /// Planned (unit key -> ordered pending (planned start, task)). Unit
    /// key is (processor type, unit).
    unit_plans: Vec<UnitPlan>,
    unit_free: Vec<Time>,
    /// Messages still awaited per task.
    waiting_msgs: Vec<usize>,
    started: Vec<Option<Time>>,
    finished: Vec<Option<Time>>,
    /// Zero-computation tasks not yet completed; they occupy no unit and
    /// finish the instant their release and messages allow.
    zero_pending: Vec<TaskId>,
    /// Units of each plain resource currently in use.
    res_in_use: Vec<u32>,
    events: BinaryHeap<Reverse<(Time, u64, EventKind)>>,
    seq: u64,
    log: Vec<SimEvent>,
}

impl<'g> Engine<'g> {
    fn push(&mut self, at: Time, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, kind)));
    }

    fn resources_free(&self, task: TaskId) -> bool {
        self.graph
            .task(task)
            .resources()
            .iter()
            .all(|&r| self.res_in_use[r.index()] < self.caps.units(r))
    }

    fn try_dispatch(&mut self, now: Time, schedule: &Schedule) {
        loop {
            let mut progress = false;
            // Zero-computation tasks complete immediately once unblocked.
            let runnable: Vec<TaskId> = self
                .zero_pending
                .iter()
                .copied()
                .filter(|&id| {
                    self.graph.task(id).release() <= now && self.waiting_msgs[id.index()] == 0
                })
                .collect();
            for id in runnable {
                self.zero_pending.retain(|&x| x != id);
                self.started[id.index()] = Some(now);
                let unit = schedule.placement(id).expect("validated").unit;
                self.log.push(SimEvent::Started {
                    at: now,
                    task: id,
                    unit,
                });
                self.push(now, EventKind::Finish(id));
                progress = true;
            }
            // Gather every eligible queue head, then dispatch in planned
            // order (earliest planned start first, ties by id): at shared
            // resources this reproduces the plan's acquisition order and
            // avoids priority inversion between units.
            let mut eligible: Vec<(Time, TaskId, usize)> = Vec::new();
            for pi in 0..self.unit_plans.len() {
                let Some(&(planned, head)) = self.unit_plans[pi].1.front() else {
                    continue;
                };
                let task = self.graph.task(head);
                if task.release() > now
                    || self.waiting_msgs[head.index()] > 0
                    || self.unit_free[pi] > now
                {
                    continue;
                }
                eligible.push((planned, head, pi));
            }
            eligible.sort();
            for (_, head, pi) in eligible {
                let task = self.graph.task(head);
                if !self.resources_free(head) {
                    continue;
                }
                self.unit_plans[pi].1.pop_front();
                self.started[head.index()] = Some(now);
                for &r in task.resources() {
                    self.res_in_use[r.index()] += 1;
                }
                let unit = self.unit_plans[pi].0 .1;
                self.log.push(SimEvent::Started {
                    at: now,
                    task: head,
                    unit,
                });
                let finish = now + task.computation();
                self.unit_free[pi] = finish;
                self.push(finish, EventKind::Finish(head));
                progress = true;
                let _ = schedule;
            }
            if !progress {
                break;
            }
        }
    }

    fn on_finish(&mut self, now: Time, id: TaskId, schedule: &Schedule) {
        self.finished[id.index()] = Some(now);
        self.log.push(SimEvent::Finished { at: now, task: id });
        if !self.graph.task(id).computation().is_zero() {
            for &r in self.graph.task(id).resources() {
                self.res_in_use[r.index()] -= 1;
            }
        }
        // Emit messages to successors; co-located ones arrive instantly.
        let my_place = schedule.placement(id).expect("validated");
        for e in self.graph.successors(id) {
            let their_place = schedule.placement(e.other).expect("validated");
            let colocated = self.graph.task(id).processor() == self.graph.task(e.other).processor()
                && my_place.unit == their_place.unit
                && !self.graph.task(id).computation().is_zero();
            let delivery = if colocated {
                now
            } else {
                self.network.send(now, e.message)
            };
            if delivery <= now {
                self.waiting_msgs[e.other.index()] -= 1;
                self.log.push(SimEvent::Delivered {
                    at: now,
                    from: id,
                    to: e.other,
                });
            } else {
                self.push(delivery, EventKind::Arrival(e.other));
                self.log.push(SimEvent::Delivered {
                    at: delivery,
                    from: id,
                    to: e.other,
                });
            }
        }
    }
}

/// Replays `schedule` on a system with the given `capacities` and network
/// model, returning the observed timing.
///
/// # Errors
///
/// [`ReplayError`] if the schedule misses a task or plans preemption.
///
/// # Example
///
/// ```
/// use rtlb_sched::{list_schedule, Capacities};
/// use rtlb_sim::{replay, NetworkModel};
/// use rtlb_workloads::paper_example;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ex = paper_example();
/// let caps = Capacities::uniform(&ex.graph, 5);
/// let schedule = list_schedule(&ex.graph, &caps)?;
/// let report = replay(&ex.graph, &caps, &schedule, NetworkModel::Ideal)?;
/// assert!(report.all_deadlines_met());
/// # Ok(())
/// # }
/// ```
pub fn replay(
    graph: &TaskGraph,
    capacities: &Capacities,
    schedule: &Schedule,
    model: NetworkModel,
) -> Result<SimReport, ReplayError> {
    let n = graph.task_count();

    // Validate plan shape and build per-unit queues ordered by planned
    // start (ties: task id). Zero-computation tasks occupy no unit and
    // run off-queue.
    let mut by_unit: std::collections::BTreeMap<(ResourceId, u32), Vec<(Time, TaskId)>> =
        std::collections::BTreeMap::new();
    let mut zero_pending = Vec::new();
    for id in graph.task_ids() {
        let p = schedule
            .placement(id)
            .ok_or(ReplayError::MissingPlacement(id))?;
        if p.slices.len() > 1 {
            return Err(ReplayError::PreemptedPlacement(id));
        }
        if graph.task(id).computation().is_zero() {
            zero_pending.push(id);
            continue;
        }
        let start = p
            .slices
            .first()
            .map_or(graph.task(id).release(), |s| s.start);
        by_unit
            .entry((graph.task(id).processor(), p.unit))
            .or_default()
            .push((start, id));
    }
    let unit_plans: Vec<UnitPlan> = by_unit
        .into_iter()
        .map(|(key, mut v)| {
            v.sort();
            (key, v.into_iter().collect())
        })
        .collect();

    let mut engine = Engine {
        graph,
        caps: capacities,
        network: Network::new(model),
        unit_free: vec![Time::MIN; unit_plans.len()],
        unit_plans,
        waiting_msgs: (0..n)
            .map(|i| graph.predecessors(TaskId::from_index(i)).len())
            .collect(),
        started: vec![None; n],
        finished: vec![None; n],
        zero_pending,
        res_in_use: vec![0; graph.catalog().len()],
        events: BinaryHeap::new(),
        seq: 0,
        log: Vec::new(),
    };

    for (id, task) in graph.tasks() {
        engine.push(task.release(), EventKind::Release(id));
    }

    // Drain all events sharing a timestamp before dispatching, so
    // same-instant message arrivals are visible to the dispatch pass and
    // cannot lose resource races against later-planned tasks.
    while let Some(&Reverse((now, _, _))) = engine.events.peek() {
        while let Some(&Reverse((t, _, _))) = engine.events.peek() {
            if t != now {
                break;
            }
            let Reverse((_, _, kind)) = engine.events.pop().expect("peeked");
            match kind {
                EventKind::Finish(id) => engine.on_finish(now, id, schedule),
                EventKind::Arrival(id) => {
                    engine.waiting_msgs[id.index()] -= 1;
                }
                EventKind::Release(_) => {}
            }
        }
        engine.try_dispatch(now, schedule);
    }

    let deadline_misses: Vec<TaskId> = graph
        .task_ids()
        .filter(|&id| engine.finished[id.index()].is_some_and(|f| f > graph.task(id).deadline()))
        .collect();
    let stalled: Vec<TaskId> = graph
        .task_ids()
        .filter(|&id| engine.started[id.index()].is_none())
        .collect();
    let makespan = if stalled.is_empty() {
        engine.finished.iter().copied().flatten().max()
    } else {
        None
    };

    Ok(SimReport {
        events: engine.log,
        finish: engine.finished,
        deadline_misses,
        stalled,
        makespan,
        network_busy: engine.network.busy_time(),
        network_transfers: engine.network.transfers(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec};
    use rtlb_sched::{list_schedule, Placement};

    fn chain_graph(m: i64) -> (TaskGraph, TaskId, TaskId, ResourceId) {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(40));
        let a = b.add_task(TaskSpec::new("a", Dur::new(3), p)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(4), p)).unwrap();
        b.add_edge(a, z, Dur::new(m)).unwrap();
        (b.build().unwrap(), a, z, p)
    }

    #[test]
    fn ideal_replay_reproduces_planned_times() {
        let ex = rtlb_workloads::paper_example();
        let caps = Capacities::uniform(&ex.graph, 5);
        let schedule = list_schedule(&ex.graph, &caps).unwrap();
        let report = replay(&ex.graph, &caps, &schedule, NetworkModel::Ideal).unwrap();
        assert!(report.all_deadlines_met());
        for p in schedule.placements() {
            let planned = p
                .slices
                .last()
                .map_or(report.finish_of(p.task).unwrap(), |s| s.end);
            assert_eq!(
                report.finish_of(p.task),
                Some(planned),
                "replay drifted from plan for {}",
                ex.graph.task(p.task).name()
            );
        }
        assert_eq!(report.makespan, schedule.finish());
    }

    #[test]
    fn distributed_chain_pays_network_once() {
        let (g, a, z, p) = chain_graph(5);
        let caps = Capacities::new().with(p, 2);
        // Place a on unit 0, z on unit 1: the message crosses the network.
        let mut s = rtlb_sched::Schedule::new();
        s.place(Placement::contiguous(a, 0, Time::new(0), Dur::new(3)));
        s.place(Placement::contiguous(z, 1, Time::new(8), Dur::new(4)));
        let report = replay(&g, &caps, &s, NetworkModel::Ideal).unwrap();
        assert_eq!(report.finish_of(z), Some(Time::new(12)));
        assert_eq!(report.network_transfers, 1);
        assert_eq!(report.network_busy, Dur::new(5));
    }

    #[test]
    fn colocated_chain_skips_network() {
        let (g, a, z, p) = chain_graph(5);
        let caps = Capacities::new().with(p, 1);
        let mut s = rtlb_sched::Schedule::new();
        s.place(Placement::contiguous(a, 0, Time::new(0), Dur::new(3)));
        s.place(Placement::contiguous(z, 0, Time::new(3), Dur::new(4)));
        let report = replay(&g, &caps, &s, NetworkModel::SharedBus).unwrap();
        assert_eq!(report.finish_of(z), Some(Time::new(7)));
        assert_eq!(report.network_transfers, 0);
    }

    #[test]
    fn shared_bus_delays_parallel_messages() {
        // Two independent chains a0->z0, a1->z1, all crossing the network
        // at the same moment: under the bus one delivery slips.
        let mut c = Catalog::new();
        let p = c.processor("P");
        let q = c.processor("Q");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(40));
        let mut pairs = Vec::new();
        for i in 0..2 {
            let a = b
                .add_task(TaskSpec::new(format!("a{i}"), Dur::new(3), p))
                .unwrap();
            let z = b
                .add_task(TaskSpec::new(format!("z{i}"), Dur::new(2), q))
                .unwrap();
            b.add_edge(a, z, Dur::new(4)).unwrap();
            pairs.push((a, z));
        }
        let g = b.build().unwrap();
        let caps = Capacities::new().with(p, 2).with(q, 2);
        let mut s = rtlb_sched::Schedule::new();
        for (i, &(a, z)) in pairs.iter().enumerate() {
            s.place(Placement::contiguous(
                a,
                i as u32,
                Time::new(0),
                Dur::new(3),
            ));
            s.place(Placement::contiguous(
                z,
                i as u32,
                Time::new(7),
                Dur::new(2),
            ));
        }
        let ideal = replay(&g, &caps, &s, NetworkModel::Ideal).unwrap();
        let bus = replay(&g, &caps, &s, NetworkModel::SharedBus).unwrap();
        // Ideal: both z finish at 9. Bus: the second message waits 4.
        let zf_ideal: Vec<_> = pairs
            .iter()
            .map(|&(_, z)| ideal.finish_of(z).unwrap())
            .collect();
        let zf_bus: Vec<_> = pairs
            .iter()
            .map(|&(_, z)| bus.finish_of(z).unwrap())
            .collect();
        assert_eq!(zf_ideal, vec![Time::new(9), Time::new(9)]);
        assert!(zf_bus.contains(&Time::new(9)));
        assert!(zf_bus.contains(&Time::new(13)));
        assert!(bus.makespan.unwrap() > ideal.makespan.unwrap());
    }

    #[test]
    fn resource_contention_defers_start() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(20));
        let t0 = b
            .add_task(TaskSpec::new("t0", Dur::new(4), p).resource(r))
            .unwrap();
        let t1 = b
            .add_task(TaskSpec::new("t1", Dur::new(4), p).resource(r))
            .unwrap();
        let g = b.build().unwrap();
        let caps = Capacities::new().with(p, 2).with(r, 1);
        let mut s = rtlb_sched::Schedule::new();
        s.place(Placement::contiguous(t0, 0, Time::new(0), Dur::new(4)));
        s.place(Placement::contiguous(t1, 1, Time::new(4), Dur::new(4)));
        let report = replay(&g, &caps, &s, NetworkModel::Ideal).unwrap();
        // t1 cannot start before t0 releases r.
        assert_eq!(report.finish_of(t1), Some(Time::new(8)));
        assert!(report.all_deadlines_met());
    }

    #[test]
    fn deadline_misses_are_reported() {
        // Message so long that z (deadline 40) finishes at 3+50+4 = 57.
        let (g, a, z, p) = chain_graph(50);
        let caps = Capacities::new().with(p, 2);
        let mut s = rtlb_sched::Schedule::new();
        s.place(Placement::contiguous(a, 0, Time::new(0), Dur::new(3)));
        s.place(Placement::contiguous(z, 1, Time::new(53), Dur::new(4)));
        let report = replay(&g, &caps, &s, NetworkModel::Ideal).unwrap();
        assert_eq!(report.deadline_misses, vec![z]);
        assert!(!report.all_deadlines_met());
    }

    #[test]
    fn zero_computation_tasks_run_off_queue() {
        // t12-style sink: zero computation, fed by a long predecessor,
        // sharing a unit queue with other work — must not block it.
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(30));
        let slow = b.add_task(TaskSpec::new("slow", Dur::new(9), p)).unwrap();
        let sink = b.add_task(TaskSpec::new("sink", Dur::ZERO, p)).unwrap();
        let other = b.add_task(TaskSpec::new("other", Dur::new(2), p)).unwrap();
        b.add_edge(slow, sink, Dur::new(1)).unwrap();
        let g = b.build().unwrap();
        let caps = Capacities::new().with(p, 1);
        let mut s = rtlb_sched::Schedule::new();
        s.place(Placement::contiguous(slow, 0, Time::new(0), Dur::new(9)));
        s.place(Placement {
            task: sink,
            unit: 0,
            slices: vec![],
        });
        s.place(Placement::contiguous(other, 0, Time::new(9), Dur::new(2)));
        let report = replay(&g, &caps, &s, NetworkModel::Ideal).unwrap();
        assert!(report.stalled.is_empty());
        // The sink is co-located with `slow` (unit 0), so the message is
        // free: it completes the instant slow finishes.
        assert_eq!(report.finish_of(sink), Some(Time::new(9)));
        assert_eq!(report.finish_of(other), Some(Time::new(11)));
    }

    #[test]
    fn missing_and_preempted_placements_are_rejected() {
        let (g, a, _z, p) = chain_graph(1);
        let caps = Capacities::new().with(p, 1);
        let mut s = rtlb_sched::Schedule::new();
        s.place(Placement::contiguous(a, 0, Time::new(0), Dur::new(3)));
        assert!(matches!(
            replay(&g, &caps, &s, NetworkModel::Ideal),
            Err(ReplayError::MissingPlacement(_))
        ));

        let mut c = Catalog::new();
        let p2 = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(20));
        let t = b
            .add_task(TaskSpec::new("t", Dur::new(4), p2).preemptive())
            .unwrap();
        let g2 = b.build().unwrap();
        let mut s2 = rtlb_sched::Schedule::new();
        s2.place(Placement {
            task: t,
            unit: 0,
            slices: vec![
                rtlb_sched::Slice {
                    start: Time::new(0),
                    end: Time::new(2),
                },
                rtlb_sched::Slice {
                    start: Time::new(5),
                    end: Time::new(7),
                },
            ],
        });
        let caps2 = Capacities::new().with(p2, 1);
        assert!(matches!(
            replay(&g2, &caps2, &s2, NetworkModel::Ideal),
            Err(ReplayError::PreemptedPlacement(_))
        ));
    }

    #[test]
    fn bad_plan_order_stalls_and_is_reported() {
        // One unit, z planned before a, but z depends on a: deadlock.
        let (g, a, z, p) = chain_graph(0);
        let caps = Capacities::new().with(p, 1);
        let mut s = rtlb_sched::Schedule::new();
        s.place(Placement::contiguous(z, 0, Time::new(0), Dur::new(4)));
        s.place(Placement::contiguous(a, 0, Time::new(4), Dur::new(3)));
        let report = replay(&g, &caps, &s, NetworkModel::Ideal).unwrap();
        assert_eq!(report.stalled, vec![a, z]);
        assert_eq!(report.makespan, None);
    }

    #[test]
    fn zero_capacity_resource_stalls() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(20));
        let t = b
            .add_task(TaskSpec::new("t", Dur::new(4), p).resource(r))
            .unwrap();
        let g = b.build().unwrap();
        let caps = Capacities::new().with(p, 1); // no r at all
        let mut s = rtlb_sched::Schedule::new();
        s.place(Placement::contiguous(t, 0, Time::new(0), Dur::new(4)));
        let report = replay(&g, &caps, &s, NetworkModel::Ideal).unwrap();
        assert_eq!(report.stalled, vec![t]);
    }
}
