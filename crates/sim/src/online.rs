//! An online dispatcher: no precomputed plan, placement decided at
//! dispatch time.
//!
//! Unlike the static schedulers of `rtlb-sched`, an online dispatcher
//! cannot exploit co-location to skip messages: when a task finishes it
//! does not yet know where its successors will run, so every edge's
//! message is put on the network (the conservative semantics of a system
//! without placement foreknowledge). Comparing the online dispatcher
//! against the merge-guided static scheduler therefore measures exactly
//! the value of the paper's merge analysis as *planning* information.
//!
//! Policy: earliest-LCT-first (the inherited-urgency priority), placed on
//! the earliest-available unit of the task's processor type, resources
//! permitting.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rtlb_core::{compute_timing, SystemModel, TimingAnalysis};
use rtlb_graph::{TaskGraph, TaskId, Time};
use rtlb_sched::Capacities;

use crate::network::{Network, NetworkModel};
use crate::trace::{SimEvent, SimReport};

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EventKind {
    Finish(TaskId, u32),
    Arrival(TaskId),
    Release(TaskId),
}

/// Runs the online earliest-LCT dispatcher on a shared-model system.
///
/// Returns the observed timing; tasks that can never run (zero units of
/// their processor type, or an unsatisfiable resource demand) end up in
/// [`SimReport::stalled`].
///
/// # Example
///
/// ```
/// use rtlb_sched::Capacities;
/// use rtlb_sim::{online_dispatch, NetworkModel};
/// use rtlb_workloads::paper_example;
/// let ex = paper_example();
/// let caps = Capacities::uniform(&ex.graph, 6);
/// let report = online_dispatch(&ex.graph, &caps, NetworkModel::Ideal);
/// assert!(report.stalled.is_empty());
/// ```
pub fn online_dispatch(
    graph: &TaskGraph,
    capacities: &Capacities,
    model: NetworkModel,
) -> SimReport {
    let timing = compute_timing(graph, &SystemModel::shared());
    online_dispatch_with_timing(graph, capacities, model, &timing)
}

/// [`online_dispatch`] ordered by the windows of `timing`.
pub(crate) fn online_dispatch_with_timing(
    graph: &TaskGraph,
    capacities: &Capacities,
    model: NetworkModel,
    timing: &TimingAnalysis,
) -> SimReport {
    let n = graph.task_count();
    let mut network = Network::new(model);
    let mut waiting: Vec<usize> = (0..n)
        .map(|i| graph.predecessors(TaskId::from_index(i)).len())
        .collect();
    let mut released: Vec<bool> = (0..n)
        .map(|i| graph.task(TaskId::from_index(i)).release() <= Time::MIN)
        .collect();
    let mut started: Vec<Option<Time>> = vec![None; n];
    let mut finished: Vec<Option<Time>> = vec![None; n];
    let mut res_in_use = vec![0u32; graph.catalog().len()];
    // Per processor type: free time per unit.
    let mut unit_free: Vec<Vec<Time>> = vec![Vec::new(); graph.catalog().len()];
    for r in graph.catalog().processors() {
        unit_free[r.index()] = vec![Time::MIN; capacities.units(r) as usize];
    }

    let mut events: BinaryHeap<Reverse<(Time, u64, EventKind)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |events: &mut BinaryHeap<_>, seq: &mut u64, at: Time, kind: EventKind| {
        *seq += 1;
        events.push(Reverse((at, *seq, kind)));
    };
    for (id, task) in graph.tasks() {
        push(
            &mut events,
            &mut seq,
            task.release(),
            EventKind::Release(id),
        );
    }

    let mut log = Vec::new();

    while let Some(&Reverse((now, _, _))) = events.peek() {
        // Drain all events at `now`.
        while let Some(&Reverse((t, _, _))) = events.peek() {
            if t != now {
                break;
            }
            let Reverse((_, _, kind)) = events.pop().expect("peeked");
            match kind {
                EventKind::Finish(id, _unit) => {
                    finished[id.index()] = Some(now);
                    log.push(SimEvent::Finished { at: now, task: id });
                    for &r in graph.task(id).resources() {
                        res_in_use[r.index()] -= 1;
                    }
                    // Without placement foreknowledge every message goes
                    // over the network.
                    for e in graph.successors(id) {
                        let delivery = network.send(now, e.message);
                        log.push(SimEvent::Delivered {
                            at: delivery,
                            from: id,
                            to: e.other,
                        });
                        if delivery <= now {
                            waiting[e.other.index()] -= 1;
                        } else {
                            push(&mut events, &mut seq, delivery, EventKind::Arrival(e.other));
                        }
                    }
                }
                EventKind::Arrival(id) => waiting[id.index()] -= 1,
                EventKind::Release(id) => released[id.index()] = true,
            }
        }

        // Dispatch ready tasks, earliest LCT first.
        loop {
            let mut ready: Vec<TaskId> = graph
                .task_ids()
                .filter(|&id| {
                    started[id.index()].is_none()
                        && released[id.index()]
                        && waiting[id.index()] == 0
                })
                .collect();
            ready.sort_by_key(|&id| (timing.lct(id), id));
            let mut progress = false;
            for id in ready {
                let task = graph.task(id);
                let proc = task.processor();
                let Some(unit) = unit_free[proc.index()].iter().position(|&f| f <= now) else {
                    continue;
                };
                if unit_free[proc.index()].is_empty() {
                    continue;
                }
                let resources_ok = task
                    .resources()
                    .iter()
                    .all(|&r| res_in_use[r.index()] < capacities.units(r));
                if !resources_ok {
                    continue;
                }
                started[id.index()] = Some(now);
                for &r in task.resources() {
                    res_in_use[r.index()] += 1;
                }
                let finish = now + task.computation();
                unit_free[proc.index()][unit] = finish;
                log.push(SimEvent::Started {
                    at: now,
                    task: id,
                    unit: unit as u32,
                });
                push(
                    &mut events,
                    &mut seq,
                    finish,
                    EventKind::Finish(id, unit as u32),
                );
                progress = true;
            }
            if !progress {
                break;
            }
        }
    }

    let deadline_misses: Vec<TaskId> = graph
        .task_ids()
        .filter(|&id| finished[id.index()].is_some_and(|f| f > graph.task(id).deadline()))
        .collect();
    let stalled: Vec<TaskId> = graph
        .task_ids()
        .filter(|&id| started[id.index()].is_none())
        .collect();
    let makespan = if stalled.is_empty() {
        finished.iter().copied().flatten().max()
    } else {
        None
    };

    SimReport {
        events: log,
        finish: finished,
        deadline_misses,
        stalled,
        makespan,
        network_busy: network.busy_time(),
        network_transfers: network.transfers(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec};

    #[test]
    fn runs_everything_with_generous_capacity() {
        let ex = rtlb_workloads::paper_example();
        let caps = Capacities::uniform(&ex.graph, 6);
        let report = online_dispatch(&ex.graph, &caps, NetworkModel::Ideal);
        assert!(report.stalled.is_empty());
        assert!(report.makespan.is_some());
        // Every finish respects causality: >= release + C.
        for (id, task) in ex.graph.tasks() {
            let f = report.finish_of(id).unwrap();
            assert!(f >= task.release() + task.computation());
        }
    }

    /// Online pays every message; the static plan avoids the ones the
    /// merge analysis co-locates. On the paper example that shows up as a
    /// strictly larger network bill online.
    #[test]
    fn online_pays_more_network_than_static_plan() {
        use rtlb_sched::list_schedule;
        let ex = rtlb_workloads::paper_example();
        let caps = Capacities::uniform(&ex.graph, 5);
        let schedule = list_schedule(&ex.graph, &caps).unwrap();
        let static_report =
            crate::replay(&ex.graph, &caps, &schedule, NetworkModel::Ideal).unwrap();
        let online_report = online_dispatch(&ex.graph, &caps, NetworkModel::Ideal);
        assert!(online_report.network_transfers > static_report.network_transfers);
    }

    #[test]
    fn zero_units_stalls_tasks() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(10));
        let t = b.add_task(TaskSpec::new("t", Dur::new(2), p)).unwrap();
        let g = b.build().unwrap();
        let report = online_dispatch(&g, &Capacities::new(), NetworkModel::Ideal);
        assert_eq!(report.stalled, vec![t]);
    }

    #[test]
    fn edf_order_prefers_urgent_tasks() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        let urgent = b
            .add_task(TaskSpec::new("urgent", Dur::new(2), p).deadline(Time::new(3)))
            .unwrap();
        let lax = b
            .add_task(TaskSpec::new("lax", Dur::new(2), p).deadline(Time::new(30)))
            .unwrap();
        let g = b.build().unwrap();
        let caps = Capacities::new().with(p, 1);
        let report = online_dispatch(&g, &caps, NetworkModel::Ideal);
        assert!(report.finish_of(urgent).unwrap() < report.finish_of(lax).unwrap());
        assert!(report.all_deadlines_met());
    }

    #[test]
    fn bus_contention_inflates_online_makespan() {
        // Wide fork: many messages at once.
        let g = rtlb_workloads::fork_join(6, 1, 3, 1);
        let caps = Capacities::uniform(&g, 6);
        let ideal = online_dispatch(&g, &caps, NetworkModel::Ideal);
        let bus = online_dispatch(&g, &caps, NetworkModel::SharedBus);
        assert!(ideal.stalled.is_empty() && bus.stalled.is_empty());
        assert!(bus.makespan.unwrap() >= ideal.makespan.unwrap());
        assert_eq!(bus.network_transfers, ideal.network_transfers);
    }
}
