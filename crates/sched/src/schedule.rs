//! Schedule representation: where and when each task executes.

use rtlb_graph::{Dur, TaskId, Time};

/// One contiguous execution slice `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Slice {
    /// Inclusive start.
    pub start: Time,
    /// Exclusive end.
    pub end: Time,
}

impl Slice {
    /// The slice's length.
    pub fn len(&self) -> Dur {
        self.end.since(self.start)
    }

    /// Whether the slice is empty (zero length).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether two slices overlap in time.
    pub fn overlaps(&self, other: &Slice) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Whether the slice covers instant `t`.
    pub fn covers(&self, t: Time) -> bool {
        self.start <= t && t < self.end
    }
}

/// The placement of one task: which unit of its processor type it runs
/// on, and its execution slices (one slice unless the task is preemptive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// The placed task.
    pub task: TaskId,
    /// Unit index within the task's processor type (0-based, must be
    /// below the capacity of that type).
    pub unit: u32,
    /// Execution slices, in increasing time order, pairwise disjoint.
    pub slices: Vec<Slice>,
}

impl Placement {
    /// A single-slice placement.
    pub fn contiguous(task: TaskId, unit: u32, start: Time, c: Dur) -> Placement {
        Placement {
            task,
            unit,
            slices: vec![Slice {
                start,
                end: start + c,
            }],
        }
    }

    /// First start time.
    ///
    /// # Panics
    ///
    /// Panics if the placement has no slices (invalid by construction).
    pub fn start(&self) -> Time {
        self.slices.first().expect("placements are non-empty").start
    }

    /// Last completion time.
    ///
    /// # Panics
    ///
    /// Panics if the placement has no slices (invalid by construction).
    pub fn finish(&self) -> Time {
        self.slices.last().expect("placements are non-empty").end
    }

    /// Total execution time across slices.
    pub fn total(&self) -> Dur {
        self.slices.iter().map(Slice::len).sum()
    }
}

/// A complete shared-model schedule: one placement per task.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    placements: Vec<Placement>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// Adds a placement.
    pub fn place(&mut self, placement: Placement) {
        self.placements.push(placement);
    }

    /// The placement of `task`, if present.
    pub fn placement(&self, task: TaskId) -> Option<&Placement> {
        self.placements.iter().find(|p| p.task == task)
    }

    /// All placements, in insertion order.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Number of placed tasks.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Whether no task is placed.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// The completion time of the whole schedule (makespan end),
    /// ignoring zero-computation placements with no slices.
    pub fn finish(&self) -> Option<Time> {
        self.placements
            .iter()
            .filter_map(|p| p.slices.last().map(|s| s.end))
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> Time {
        Time::new(x)
    }

    #[test]
    fn slice_geometry() {
        let a = Slice {
            start: t(0),
            end: t(5),
        };
        let b = Slice {
            start: t(5),
            end: t(9),
        };
        let c = Slice {
            start: t(4),
            end: t(6),
        };
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
        assert_eq!(a.len(), Dur::new(5));
        assert!(a.covers(t(0)) && a.covers(t(4)) && !a.covers(t(5)));
        assert!(!Slice {
            start: t(3),
            end: t(3)
        }
        .covers(t(3)));
        assert!(Slice {
            start: t(3),
            end: t(3)
        }
        .is_empty());
    }

    #[test]
    fn placement_aggregates() {
        let p = Placement {
            task: TaskId::from_index(0),
            unit: 1,
            slices: vec![
                Slice {
                    start: t(2),
                    end: t(4),
                },
                Slice {
                    start: t(7),
                    end: t(10),
                },
            ],
        };
        assert_eq!(p.start(), t(2));
        assert_eq!(p.finish(), t(10));
        assert_eq!(p.total(), Dur::new(5));
    }

    #[test]
    fn contiguous_constructor() {
        let p = Placement::contiguous(TaskId::from_index(3), 0, t(5), Dur::new(4));
        assert_eq!(p.slices.len(), 1);
        assert_eq!(p.finish(), t(9));
    }

    #[test]
    fn schedule_lookup_and_finish() {
        let mut s = Schedule::new();
        assert!(s.is_empty());
        assert_eq!(s.finish(), None);
        s.place(Placement::contiguous(
            TaskId::from_index(0),
            0,
            t(0),
            Dur::new(3),
        ));
        s.place(Placement::contiguous(
            TaskId::from_index(1),
            1,
            t(2),
            Dur::new(5),
        ));
        assert_eq!(s.len(), 2);
        assert_eq!(s.finish(), Some(t(7)));
        assert!(s.placement(TaskId::from_index(1)).is_some());
        assert!(s.placement(TaskId::from_index(9)).is_none());
    }
}
