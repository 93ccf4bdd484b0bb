//! A merge-guided list scheduler for the shared model.
//!
//! Greedy, event-driven, non-preemptive. Two ideas beyond plain EDF:
//!
//! * **priority** is the latest completion time `L_i` from the paper's
//!   EST/LCT analysis rather than the raw deadline — `L_i` folds in the
//!   urgency a task inherits from its successors;
//! * **placement** is guided by the analysis's merge sets `M_i`/`G_i`:
//!   tasks the analysis merged are clustered (union-find) and the
//!   scheduler prefers running a cluster on one unit, earning the free
//!   co-located communication the analysis assumed was available.
//!
//! The scheduler is *sound* (its output always passes
//! [`validate_schedule`](crate::validate_schedule)) but not complete: it
//! can fail on feasible instances. That is exactly its role in the
//! experiments — an upper bound on resource needs to compare against the
//! paper's lower bounds.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use rtlb_core::{compute_timing, SystemModel, TimingAnalysis};
use rtlb_graph::{TaskGraph, TaskId, Time};

use crate::capacity::Capacities;
use crate::schedule::{Placement, Schedule};

/// Why the list scheduler gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ListScheduleError {
    /// The task cannot meet its deadline from its earliest dispatch time.
    DeadlineMiss(TaskId),
    /// The task's processor type has zero units.
    NoUnits(TaskId),
}

impl fmt::Display for ListScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListScheduleError::DeadlineMiss(t) => {
                write!(f, "list scheduler cannot meet the deadline of {t}")
            }
            ListScheduleError::NoUnits(t) => {
                write!(f, "no units of the processor type required by {t}")
            }
        }
    }
}

impl Error for ListScheduleError {}

/// Union-find over tasks; tasks merged by the EST/LCT analysis share a
/// root, and clusters prefer sharing a processor unit.
struct Clusters {
    parent: Vec<usize>,
}

impl Clusters {
    fn from_timing(graph: &TaskGraph, timing: &TimingAnalysis) -> Clusters {
        let mut c = Clusters {
            parent: (0..graph.task_count()).collect(),
        };
        for id in graph.task_ids() {
            for &j in timing.merged_predecessors(id) {
                c.union(id.index(), j.index());
            }
            for &j in timing.merged_successors(id) {
                c.union(id.index(), j.index());
            }
        }
        c
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// Whether the task shares its cluster with anyone else.
    fn is_clustered(&mut self, x: usize) -> bool {
        let root = self.find(x);
        (0..self.parent.len()).any(|y| y != x && self.find(y) == root)
    }
}

struct State<'g> {
    graph: &'g TaskGraph,
    caps: &'g Capacities,
    /// (finish, unit) per placed task.
    done: Vec<Option<(Time, u32)>>,
    /// Earliest free time per (processor type, unit).
    unit_free: Vec<Vec<Time>>,
    /// Preferred (processor type, unit) per cluster root, claimed on the
    /// cluster's first dispatch.
    claims: std::collections::BTreeMap<usize, u32>,
    /// Units claimed by some cluster, per processor type.
    claimed_units: Vec<BTreeSet<u32>>,
    schedule: Schedule,
}

impl<'g> State<'g> {
    /// Earliest start of `task` on `unit`, honoring release, unit
    /// availability, and predecessor messages (waived when co-located).
    fn earliest_on(&self, task: TaskId, unit: u32) -> Time {
        let t = self.graph.task(task);
        let mut est = t
            .release()
            .max(self.unit_free[t.processor().index()][unit as usize]);
        for e in self.graph.predecessors(task) {
            let (finish, pred_unit) =
                self.done[e.other.index()].expect("preds placed before successors");
            let colocated = self.graph.task(e.other).processor() == t.processor()
                && pred_unit == unit
                && !self.graph.task(e.other).computation().is_zero();
            let arrival = if colocated {
                finish
            } else {
                finish + e.message
            };
            est = est.max(arrival);
        }
        est
    }

    /// Whether every resource of `task` has a free unit throughout
    /// `[start, end)`.
    fn resources_free(&self, task: TaskId, start: Time, end: Time) -> bool {
        let t = self.graph.task(task);
        for &r in t.resources() {
            let cap = self.caps.units(r);
            let mut events: Vec<(Time, i32)> = vec![(start, 1), (end, -1)];
            for p in self.schedule.placements() {
                if !self.graph.task(p.task).demands_resource(r) {
                    continue;
                }
                for s in &p.slices {
                    if s.start < end && start < s.end {
                        events.push((s.start.max(start), 1));
                        events.push((s.end.min(end), -1));
                    }
                }
            }
            events.sort_by_key(|&(t, d)| (t, d));
            let mut level = 0;
            for (_, d) in events {
                level += d;
                if level > cap as i32 {
                    return false;
                }
            }
        }
        true
    }
}

/// Schedules `graph` on a shared-model system with the given capacities.
///
/// # Errors
///
/// * [`ListScheduleError::NoUnits`] if a needed processor type has zero
///   units.
/// * [`ListScheduleError::DeadlineMiss`] if the greedy dispatch cannot
///   meet some deadline (the instance may still be feasible for an exact
///   scheduler).
///
/// # Example
///
/// ```
/// use rtlb_sched::{list_schedule, validate_schedule, Capacities};
/// use rtlb_workloads::paper_example;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ex = paper_example();
/// let caps = Capacities::uniform(&ex.graph, 4);
/// let schedule = list_schedule(&ex.graph, &caps)?;
/// assert!(validate_schedule(&ex.graph, &caps, &schedule).is_empty());
/// # Ok(())
/// # }
/// ```
pub fn list_schedule(graph: &TaskGraph, caps: &Capacities) -> Result<Schedule, ListScheduleError> {
    let timing = compute_timing(graph, &SystemModel::shared());
    list_schedule_with_timing(graph, caps, &timing)
}

/// [`list_schedule`] guided by the windows and merge sets of `timing`.
pub(crate) fn list_schedule_with_timing(
    graph: &TaskGraph,
    caps: &Capacities,
    timing: &TimingAnalysis,
) -> Result<Schedule, ListScheduleError> {
    let n = graph.task_count();
    let mut clusters = Clusters::from_timing(graph, timing);

    let max_res = graph.catalog().len();
    let mut unit_free = vec![Vec::new(); max_res];
    for r in graph.catalog().processors() {
        unit_free[r.index()] = vec![Time::MIN; caps.units(r) as usize];
    }

    let mut state = State {
        graph,
        caps,
        done: vec![None; n],
        unit_free,
        claims: std::collections::BTreeMap::new(),
        claimed_units: vec![BTreeSet::new(); max_res],
        schedule: Schedule::new(),
    };

    let mut pending: BTreeSet<TaskId> = graph.task_ids().collect();
    let mut events: BTreeSet<Time> = graph.tasks().map(|(_, t)| t.release()).collect();
    events.insert(Time::ZERO);

    while !pending.is_empty() {
        let Some(&t_now) = events.iter().next() else {
            let blocked = *pending.iter().next().expect("pending non-empty");
            return Err(ListScheduleError::DeadlineMiss(blocked));
        };
        events.remove(&t_now);

        loop {
            let mut ready: Vec<TaskId> = pending
                .iter()
                .copied()
                .filter(|&id| {
                    graph
                        .predecessors(id)
                        .iter()
                        .all(|e| state.done[e.other.index()].is_some())
                })
                .collect();
            // Priority: LCT (inherited urgency), then deadline, then id.
            ready.sort_by_key(|&id| (timing.lct(id), graph.task(id).deadline(), id));

            let mut dispatched = false;
            for id in ready {
                let task = graph.task(id);

                if task.computation().is_zero() {
                    let est = task.release().max(
                        graph
                            .predecessors(id)
                            .iter()
                            .map(|e| {
                                let (f, _) = state.done[e.other.index()].unwrap();
                                f + e.message
                            })
                            .max()
                            .unwrap_or(Time::MIN),
                    );
                    if est > t_now {
                        events.insert(est);
                        continue;
                    }
                    if t_now > task.deadline() {
                        return Err(ListScheduleError::DeadlineMiss(id));
                    }
                    state.done[id.index()] = Some((t_now, 0));
                    state.schedule.place(Placement {
                        task: id,
                        unit: 0,
                        slices: vec![],
                    });
                    pending.remove(&id);
                    dispatched = true;
                    continue;
                }

                let proc = task.processor();
                let units = caps.units(proc);
                if units == 0 {
                    return Err(ListScheduleError::NoUnits(id));
                }

                // Unit choice: the cluster's claimed unit if it can still
                // meet the deadline there; otherwise minimum earliest
                // start, preferring unclaimed units on ties.
                let root = clusters.find(id.index());
                let hi = task.deadline() - task.computation();
                let claimed = state.claims.get(&root).copied();
                let chosen: (Time, u32) = match claimed {
                    Some(u) if state.earliest_on(id, u) <= hi => (state.earliest_on(id, u), u),
                    _ => {
                        let mut best: Option<(Time, bool, u32)> = None;
                        for u in 0..units {
                            let est = state.earliest_on(id, u);
                            let claimed_by_other = state.claimed_units[proc.index()].contains(&u);
                            let key = (est, claimed_by_other, u);
                            if best.is_none_or(|b| key < b) {
                                best = Some(key);
                            }
                        }
                        let (est, _, u) = best.expect("at least one unit");
                        (est, u)
                    }
                };
                let (est, unit) = chosen;
                if est > t_now {
                    events.insert(est);
                    continue;
                }
                let start = t_now;
                let end = start + task.computation();
                if end > task.deadline() {
                    return Err(ListScheduleError::DeadlineMiss(id));
                }
                if !state.resources_free(id, start, end) {
                    continue;
                }
                if clusters.is_clustered(id.index()) {
                    state.claims.entry(root).or_insert_with(|| {
                        state.claimed_units[proc.index()].insert(unit);
                        unit
                    });
                }
                state.done[id.index()] = Some((end, unit));
                state.unit_free[proc.index()][unit as usize] = end;
                state
                    .schedule
                    .place(Placement::contiguous(id, unit, start, task.computation()));
                pending.remove(&id);
                events.insert(end);
                dispatched = true;
            }
            if !dispatched {
                break;
            }
        }
    }

    Ok(state.schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_schedule;
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec};

    fn two_parallel() -> (TaskGraph, rtlb_graph::ResourceId) {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        for i in 0..2 {
            b.add_task(TaskSpec::new(format!("t{i}"), Dur::new(4), p).deadline(Time::new(4)))
                .unwrap();
        }
        (b.build().unwrap(), p)
    }

    #[test]
    fn parallel_tasks_need_parallel_units() {
        let (g, p) = two_parallel();
        let one = Capacities::new().with(p, 1);
        assert!(matches!(
            list_schedule(&g, &one),
            Err(ListScheduleError::DeadlineMiss(_))
        ));
        let two = Capacities::new().with(p, 2);
        let s = list_schedule(&g, &two).unwrap();
        assert!(validate_schedule(&g, &two, &s).is_empty());
        assert_eq!(s.finish(), Some(Time::new(4)));
    }

    #[test]
    fn zero_units_is_reported() {
        let (g, _) = two_parallel();
        assert!(matches!(
            list_schedule(&g, &Capacities::new()),
            Err(ListScheduleError::NoUnits(_))
        ));
    }

    #[test]
    fn colocation_waives_message() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        // Chain a->z with a huge message; deadline only achievable
        // co-located.
        let a = b
            .add_task(TaskSpec::new("a", Dur::new(3), p).deadline(Time::new(20)))
            .unwrap();
        let z = b
            .add_task(TaskSpec::new("z", Dur::new(4), p).deadline(Time::new(8)))
            .unwrap();
        b.add_edge(a, z, Dur::new(50)).unwrap();
        let g = b.build().unwrap();
        let caps = Capacities::new().with(p, 2);
        let s = list_schedule(&g, &caps).unwrap();
        assert!(validate_schedule(&g, &caps, &s).is_empty());
        let pa = s.placement(a).unwrap();
        let pz = s.placement(z).unwrap();
        assert_eq!(pa.unit, pz.unit, "scheduler should co-locate");
        assert_eq!(pz.start(), Time::new(3));
    }

    #[test]
    fn resource_contention_serializes() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(20));
        for i in 0..3 {
            b.add_task(TaskSpec::new(format!("t{i}"), Dur::new(3), p).resource(r))
                .unwrap();
        }
        let g = b.build().unwrap();
        // Plenty of processors but a single r unit: execution serializes.
        let caps = Capacities::new().with(p, 3).with(r, 1);
        let s = list_schedule(&g, &caps).unwrap();
        assert!(validate_schedule(&g, &caps, &s).is_empty());
        assert_eq!(s.finish(), Some(Time::new(9)));
    }

    #[test]
    fn release_times_are_respected() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(30));
        let late = b
            .add_task(TaskSpec::new("late", Dur::new(2), p).release(Time::new(10)))
            .unwrap();
        b.add_task(TaskSpec::new("early", Dur::new(2), p)).unwrap();
        let g = b.build().unwrap();
        let caps = Capacities::new().with(p, 1);
        let s = list_schedule(&g, &caps).unwrap();
        assert!(validate_schedule(&g, &caps, &s).is_empty());
        assert_eq!(s.placement(late).unwrap().start(), Time::new(10));
    }

    /// The paper example needs merge-guided placement: t15 must share a
    /// unit with both t10 and t11 (its merged predecessors), and t4 with
    /// t1, or deadlines t12/t15 are unreachable for a greedy scheduler.
    #[test]
    fn paper_example_schedules_at_generous_capacity() {
        let ex = rtlb_workloads::paper_example();
        let caps = Capacities::uniform(&ex.graph, 5);
        let s = list_schedule(&ex.graph, &caps).unwrap();
        assert!(validate_schedule(&ex.graph, &caps, &s).is_empty());
    }

    #[test]
    fn zero_computation_task_is_handled() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(10));
        let a = b.add_task(TaskSpec::new("a", Dur::new(2), p)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::ZERO, p)).unwrap();
        b.add_edge(a, z, Dur::new(1)).unwrap();
        let g = b.build().unwrap();
        let caps = Capacities::new().with(p, 1);
        let s = list_schedule(&g, &caps).unwrap();
        assert!(validate_schedule(&g, &caps, &s).is_empty());
        assert!(s.placement(z).unwrap().slices.is_empty());
    }

    /// Generated workloads: whenever the scheduler succeeds, the result
    /// must validate, and the units it uses are at least the lower bound.
    #[test]
    fn successes_validate_and_respect_bounds() {
        use rtlb_core::analyze;
        for seed in 0..8u64 {
            let g = rtlb_workloads::layered(&rtlb_workloads::LayeredConfig::default(), seed);
            let analysis = analyze(&g, &SystemModel::shared()).unwrap();
            for units in 1..6u32 {
                let caps = Capacities::uniform(&g, units);
                if let Ok(s) = list_schedule(&g, &caps) {
                    assert!(
                        validate_schedule(&g, &caps, &s).is_empty(),
                        "seed {seed} units {units}: invalid schedule"
                    );
                    // Feasibility at `units` implies the bound is ≤ units.
                    for b in analysis.bounds() {
                        assert!(
                            b.bound <= units,
                            "seed {seed}: bound {} for {} exceeds feasible {units}",
                            b.bound,
                            g.catalog().name(b.resource)
                        );
                    }
                }
            }
        }
    }
}
