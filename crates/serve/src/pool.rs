//! The bounded session pool behind `rtlb serve`.
//!
//! The pool holds at most `max_sessions` **live**
//! [`AnalysisSession`]s (full sweep caches, ready for incremental
//! `delta` requests). Opening a session past the cap evicts the
//! least-recently-used live session to the **parked** tier: its caches
//! are dropped but the (possibly edited) graph survives via
//! [`AnalysisSession::into_graph`], so the session id stays valid and
//! the next request against it transparently re-analyzes from scratch —
//! bit-identical bounds, re-analysis cost. The parked tier is itself
//! bounded by `max_sessions`; overflowing it drops the
//! least-recently-used parked graph for good (later requests get a
//! `no-session` error).
//!
//! Recency is a logical tick bumped on every touch, so eviction order is
//! deterministic and testable. The pool is not itself synchronized — the
//! server wraps it in a mutex and **checks sessions out** for the
//! duration of an apply (see [`SessionPool::checkout`]), so the lock is
//! never held across an analysis and a panicking request simply never
//! checks its session back in (the poisoned state is dropped, not
//! reused).

use std::collections::BTreeMap;

use rtlb_core::AnalysisSession;
use rtlb_graph::TaskGraph;

/// Bounded two-tier (live + parked) session store. See the module docs.
#[derive(Debug)]
pub struct SessionPool {
    max_sessions: usize,
    tick: u64,
    next_id: u64,
    live: BTreeMap<String, (AnalysisSession, u64)>,
    parked: BTreeMap<String, (TaskGraph, u64)>,
    checked_out: usize,
    evictions: u64,
    parked_drops: u64,
}

/// What [`SessionPool::checkout`] found for a session id.
pub enum Checkout {
    /// A live session with warm caches; apply deltas directly. Boxed:
    /// the session is two orders of magnitude larger than the other
    /// variants.
    Live(Box<AnalysisSession>),
    /// The session was evicted to the parked tier: here is its graph,
    /// re-analyze from scratch before applying. Boxed, like `Live`, so
    /// that `Missing` stays small.
    Parked(Box<TaskGraph>),
    /// No such session (never opened, closed, or dropped while parked).
    Missing,
}

/// Point-in-time pool occupancy, reported by the `stats` op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Live sessions resident in the pool (not counting checked-out).
    pub live: usize,
    /// Parked graphs awaiting re-analysis.
    pub parked: usize,
    /// Sessions currently checked out by in-flight requests.
    pub checked_out: usize,
    /// Lifetime count of live→parked evictions.
    pub evictions: u64,
    /// Lifetime count of parked graphs dropped for good.
    pub parked_drops: u64,
}

impl PoolStats {
    /// Sessions the pool is responsible for right now, in any state.
    pub fn resident(&self) -> usize {
        self.live + self.parked + self.checked_out
    }
}

impl SessionPool {
    /// A pool keeping at most `max_sessions` live sessions (clamped to
    /// at least 1) and as many parked graphs.
    pub fn new(max_sessions: usize) -> SessionPool {
        SessionPool {
            max_sessions: max_sessions.max(1),
            tick: 0,
            next_id: 1,
            live: BTreeMap::new(),
            parked: BTreeMap::new(),
            checked_out: 0,
            evictions: 0,
            parked_drops: 0,
        }
    }

    fn touch(&mut self) -> u64 {
        let now = self.tick;
        self.tick += 1;
        now
    }

    /// Admits a freshly analyzed session, evicting the LRU live session
    /// to the parked tier if the live tier is full. Returns the new
    /// session id (`s1`, `s2`, ... in open order).
    pub fn admit(&mut self, session: AnalysisSession) -> String {
        let id = format!("s{}", self.next_id);
        self.next_id += 1;
        self.insert_live(id.clone(), session);
        id
    }

    fn insert_live(&mut self, id: String, session: AnalysisSession) {
        while self.live.len() >= self.max_sessions {
            let lru = self
                .live
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(id, _)| id.clone())
                .expect("live tier is non-empty");
            let (evicted, _) = self.live.remove(&lru).expect("lru id is present");
            self.evictions += 1;
            self.insert_parked(lru, evicted.into_graph());
        }
        let tick = self.touch();
        self.live.insert(id, (session, tick));
    }

    fn insert_parked(&mut self, id: String, graph: TaskGraph) {
        while self.parked.len() >= self.max_sessions {
            let lru = self
                .parked
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(id, _)| id.clone())
                .expect("parked tier is non-empty");
            self.parked.remove(&lru);
            self.parked_drops += 1;
        }
        let tick = self.touch();
        self.parked.insert(id, (graph, tick));
    }

    /// Removes the session for exclusive use by one request. The caller
    /// must either [`checkin`](SessionPool::checkin) the session back
    /// (possibly re-analyzed from a parked graph) or
    /// [`abandon`](SessionPool::abandon) it (panic poisoning, a parked
    /// rebuild that failed).
    pub fn checkout(&mut self, id: &str) -> Checkout {
        if let Some((session, _)) = self.live.remove(id) {
            self.checked_out += 1;
            return Checkout::Live(Box::new(session));
        }
        if let Some((graph, _)) = self.parked.remove(id) {
            self.checked_out += 1;
            return Checkout::Parked(Box::new(graph));
        }
        Checkout::Missing
    }

    /// Returns a checked-out session to the live tier (evicting LRU
    /// entries beyond capacity; the just-returned session is the most
    /// recently used, so it is never its own eviction victim).
    pub fn checkin(&mut self, id: String, session: AnalysisSession) {
        self.checked_out = self.checked_out.saturating_sub(1);
        self.insert_live(id, session);
    }

    /// Releases a checkout without returning the session — the panic
    /// and failed-rebuild path. The id is gone afterwards.
    pub fn abandon(&mut self) {
        self.checked_out = self.checked_out.saturating_sub(1);
    }

    /// Drops a session in either tier. `false` if the id is unknown
    /// (including currently-checked-out ids: closing a session racing an
    /// in-flight request is a client protocol error).
    pub fn close(&mut self, id: &str) -> bool {
        self.live.remove(id).is_some() || self.parked.remove(id).is_some()
    }

    /// Current occupancy and lifetime eviction counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            live: self.live.len(),
            parked: self.parked.len(),
            checked_out: self.checked_out,
            evictions: self.evictions,
            parked_drops: self.parked_drops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_core::{AnalysisOptions, SystemModel};
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};

    fn session(marker_tasks: usize) -> AnalysisSession {
        let mut catalog = Catalog::new();
        let cpu = catalog.processor("CPU");
        let mut b = TaskGraphBuilder::new(catalog);
        b.default_deadline(Time::new(100));
        for i in 0..marker_tasks {
            b.add_task(TaskSpec::new(format!("t{i}"), Dur::new(1), cpu))
                .expect("task");
        }
        let graph = b.build().expect("graph");
        AnalysisSession::new(graph, SystemModel::shared(), AnalysisOptions::default())
            .expect("feasible")
    }

    #[test]
    fn ids_are_sequential_and_stats_track_tiers() {
        let mut pool = SessionPool::new(2);
        assert_eq!(pool.admit(session(1)), "s1");
        assert_eq!(pool.admit(session(1)), "s2");
        assert_eq!(
            pool.stats(),
            PoolStats {
                live: 2,
                parked: 0,
                checked_out: 0,
                evictions: 0,
                parked_drops: 0
            }
        );
        assert_eq!(pool.stats().resident(), 2);
    }

    #[test]
    fn over_capacity_evicts_lru_to_parked_and_then_drops() {
        let mut pool = SessionPool::new(2);
        let s1 = pool.admit(session(1));
        let s2 = pool.admit(session(2));
        // Touch s1 so s2 is the LRU.
        match pool.checkout(&s1) {
            Checkout::Live(s) => pool.checkin(s1.clone(), *s),
            _ => panic!("s1 must be live"),
        }
        let _s3 = pool.admit(session(3));
        let stats = pool.stats();
        assert_eq!((stats.live, stats.parked, stats.evictions), (2, 1, 1));
        // s2 was evicted: it comes back parked, with its graph intact.
        match pool.checkout(&s2) {
            Checkout::Parked(graph) => assert_eq!(graph.task_count(), 2),
            _ => panic!("s2 must be parked"),
        }
        pool.abandon();
        // Fill the parked tier past its cap: the LRU parked entry dies.
        for _ in 0..3 {
            pool.admit(session(1));
        }
        let stats = pool.stats();
        assert!(stats.parked <= 2, "parked tier stays bounded: {stats:?}");
        assert!(stats.parked_drops >= 1);
    }

    #[test]
    fn checkout_checkin_round_trip_and_close() {
        let mut pool = SessionPool::new(2);
        let id = pool.admit(session(2));
        let s = match pool.checkout(&id) {
            Checkout::Live(s) => *s,
            _ => panic!("live"),
        };
        assert_eq!(pool.stats().checked_out, 1);
        assert!(matches!(pool.checkout(&id), Checkout::Missing));
        pool.checkin(id.clone(), s);
        assert_eq!(pool.stats().checked_out, 0);
        assert!(pool.close(&id));
        assert!(!pool.close(&id));
        assert!(matches!(pool.checkout(&id), Checkout::Missing));
    }
}
