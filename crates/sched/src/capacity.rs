//! Capacity vectors: how many units of each resource a candidate system
//! provides.

use std::collections::BTreeMap;

use rtlb_graph::{ResourceId, TaskGraph};

/// Units available of each processor/resource type in a shared-model
/// system under test.
///
/// Unlisted resources have zero units; use [`Capacities::set`] or the
/// constructors to provide them.
///
/// # Example
///
/// ```
/// use rtlb_sched::Capacities;
/// use rtlb_graph::ResourceId;
/// let r = ResourceId::from_index(0);
/// let caps = Capacities::new().with(r, 3);
/// assert_eq!(caps.units(r), 3);
/// assert_eq!(caps.units(ResourceId::from_index(9)), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Capacities {
    units: BTreeMap<ResourceId, u32>,
}

impl Capacities {
    /// An empty capacity vector (zero units of everything).
    pub fn new() -> Capacities {
        Capacities::default()
    }

    /// Builder-style unit assignment.
    pub fn with(mut self, r: ResourceId, units: u32) -> Capacities {
        self.set(r, units);
        self
    }

    /// Sets the unit count for a resource.
    pub fn set(&mut self, r: ResourceId, units: u32) {
        self.units.insert(r, units);
    }

    /// Units available of `r` (zero if never set).
    pub fn units(&self, r: ResourceId) -> u32 {
        self.units.get(&r).copied().unwrap_or(0)
    }

    /// The same `units` for every resource the application demands.
    pub fn uniform(graph: &TaskGraph, units: u32) -> Capacities {
        let mut caps = Capacities::new();
        for r in graph.resources_used() {
            caps.set(r, units);
        }
        caps
    }

    /// Iterates over `(resource, units)` pairs in resource order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, u32)> + '_ {
        self.units.iter().map(|(&r, &u)| (r, u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};

    #[test]
    fn default_is_zero() {
        let caps = Capacities::new();
        assert_eq!(caps.units(ResourceId::from_index(0)), 0);
    }

    #[test]
    fn uniform_covers_demanded_resources() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let unused = c.resource("unused");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(10));
        b.add_task(TaskSpec::new("t", Dur::new(1), p).resource(r))
            .unwrap();
        let g = b.build().unwrap();
        let caps = Capacities::uniform(&g, 2);
        assert_eq!(caps.units(p), 2);
        assert_eq!(caps.units(r), 2);
        assert_eq!(caps.units(unused), 0);
        assert_eq!(caps.iter().count(), 2);
    }
}
