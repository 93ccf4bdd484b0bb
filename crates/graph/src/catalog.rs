//! Interning of processor and resource types.
//!
//! The paper treats processor types and other resource types uniformly in
//! its lower-bound analysis: `RES = ⋃_{i∈S} (R_i ∪ φ_i)`. The [`Catalog`]
//! interns both into one compact [`ResourceId`] space and remembers which
//! ids denote processors, so downstream code can iterate `RES` as plain ids
//! while still distinguishing `φ_i` from `R_i` where the distinction matters
//! (mergeability, node-type definitions).

use std::collections::BTreeMap;
use std::fmt;

use crate::error::GraphError;

/// Identifier of an interned processor or resource type.
///
/// Ids are dense indices into the owning [`Catalog`]; they are only
/// meaningful together with the catalog that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ResourceId(u32);

impl ResourceId {
    /// Returns the dense index of this id in its catalog.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a dense index.
    ///
    /// Intended for code that stores per-resource data in flat vectors;
    /// the caller is responsible for `index` being in range for the
    /// catalog it will be used with.
    pub const fn from_index(index: usize) -> ResourceId {
        ResourceId(index as u32)
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r#{}", self.0)
    }
}

/// Whether an interned type is a processor type (`φ`) or a plain resource
/// type (an element of some `R_i`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ResourceKind {
    /// A processor type: tasks execute *on* it, exactly one per task.
    Processor,
    /// A non-processor resource: sensors, actuators, buses, licenses, ….
    Resource,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Processor => f.write_str("processor"),
            ResourceKind::Resource => f.write_str("resource"),
        }
    }
}

/// Registry of every processor and resource type in an application.
///
/// # Example
///
/// ```
/// use rtlb_graph::{Catalog, ResourceKind};
///
/// let mut catalog = Catalog::new();
/// let p1 = catalog.processor("P1");
/// let r1 = catalog.resource("r1");
/// assert_eq!(catalog.kind(p1), ResourceKind::Processor);
/// assert_eq!(catalog.name(r1), "r1");
/// assert_eq!(catalog.lookup("P1"), Some(p1));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Catalog {
    names: Vec<String>,
    kinds: Vec<ResourceKind>,
    index: BTreeMap<String, ResourceId>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Interns a processor type, returning its id. Re-interning the same
    /// name returns the existing id.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already interned as a plain resource; use
    /// [`Catalog::try_intern`] for fallible interning.
    pub fn processor(&mut self, name: &str) -> ResourceId {
        self.try_intern(name, ResourceKind::Processor)
            .expect("name already interned with conflicting kind")
    }

    /// Interns a plain resource type, returning its id. Re-interning the
    /// same name returns the existing id.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already interned as a processor; use
    /// [`Catalog::try_intern`] for fallible interning.
    pub fn resource(&mut self, name: &str) -> ResourceId {
        self.try_intern(name, ResourceKind::Resource)
            .expect("name already interned with conflicting kind")
    }

    /// Interns `name` with the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::KindConflict`] if `name` is already interned
    /// with the other kind.
    pub fn try_intern(&mut self, name: &str, kind: ResourceKind) -> Result<ResourceId, GraphError> {
        if let Some(&id) = self.index.get(name) {
            let existing = self.kinds[id.index()];
            if existing != kind {
                return Err(GraphError::KindConflict {
                    name: name.to_owned(),
                    existing,
                    requested: kind,
                });
            }
            return Ok(id);
        }
        let id = ResourceId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.kinds.push(kind);
        self.index.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Looks up a previously interned name.
    pub fn lookup(&self, name: &str) -> Option<ResourceId> {
        self.index.get(name).copied()
    }

    /// Returns the name of an interned id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this catalog.
    pub fn name(&self, id: ResourceId) -> &str {
        &self.names[id.index()]
    }

    /// Returns the kind of an interned id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this catalog.
    pub fn kind(&self, id: ResourceId) -> ResourceKind {
        self.kinds[id.index()]
    }

    /// Whether `id` denotes a processor type.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this catalog.
    pub fn is_processor(&self, id: ResourceId) -> bool {
        self.kind(id) == ResourceKind::Processor
    }

    /// Number of interned types (processors and resources together).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Whether `id` is a valid id for this catalog.
    pub fn contains(&self, id: ResourceId) -> bool {
        id.index() < self.names.len()
    }

    /// Iterates over all interned ids in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = ResourceId> + '_ {
        (0..self.names.len() as u32).map(ResourceId)
    }

    /// Iterates over all interned processor-type ids.
    pub fn processors(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.ids().filter(|&id| self.is_processor(id))
    }

    /// Iterates over all interned plain-resource ids.
    pub fn plain_resources(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.ids().filter(|&id| !self.is_processor(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut c = Catalog::new();
        let a = c.processor("P1");
        let b = c.processor("P1");
        assert_eq!(a, b);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn kinds_are_tracked() {
        let mut c = Catalog::new();
        let p = c.processor("P1");
        let r = c.resource("sensor");
        assert!(c.is_processor(p));
        assert!(!c.is_processor(r));
        assert_eq!(c.processors().collect::<Vec<_>>(), vec![p]);
        assert_eq!(c.plain_resources().collect::<Vec<_>>(), vec![r]);
    }

    #[test]
    fn kind_conflict_is_an_error() {
        let mut c = Catalog::new();
        c.processor("x");
        let err = c.try_intern("x", ResourceKind::Resource).unwrap_err();
        assert!(matches!(err, GraphError::KindConflict { .. }));
        // The panicking convenience surfaces the same condition.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.resource("x");
        }));
        assert!(result.is_err());
    }

    #[test]
    fn lookup_round_trips() {
        let mut c = Catalog::new();
        let p = c.processor("P9");
        assert_eq!(c.lookup("P9"), Some(p));
        assert_eq!(c.lookup("absent"), None);
        assert_eq!(c.name(p), "P9");
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut c = Catalog::new();
        let ids: Vec<_> = (0..5).map(|i| c.resource(&format!("r{i}"))).collect();
        let listed: Vec<_> = c.ids().collect();
        assert_eq!(ids, listed);
        assert_eq!(ids[3].index(), 3);
        assert_eq!(ResourceId::from_index(3), ids[3]);
    }

    #[test]
    fn empty_catalog() {
        let c = Catalog::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.ids().count(), 0);
    }
}
