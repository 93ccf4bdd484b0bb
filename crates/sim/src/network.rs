//! Interconnection-network models.
//!
//! The paper charges a fixed transfer time `m_ji` per message and ignores
//! network contention (Section 2.2 ignores the ICN's cost entirely). The
//! simulator makes that assumption explicit and testable:
//!
//! * [`NetworkModel::Ideal`] — the paper's model: every message is
//!   delivered `m` after it is ready, regardless of load (infinite
//!   parallel links).
//! * [`NetworkModel::SharedBus`] — one transfer at a time, FIFO in
//!   request order: the classic single-backplane bus, under which the
//!   paper's bounds can stop being achievable (experiment E14).

use rtlb_graph::{Dur, Time};

/// Contention model of the interconnection network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NetworkModel {
    /// Unlimited parallel links: delivery at `ready + m` (the paper's
    /// assumption).
    #[default]
    Ideal,
    /// A single shared bus: one transfer at a time, arbitration in
    /// request order.
    SharedBus,
}

/// Mutable network state during one simulation run.
#[derive(Clone, Debug)]
pub struct Network {
    model: NetworkModel,
    bus_free: Time,
    busy: Dur,
    transfers: u64,
}

impl Network {
    /// A fresh network of the given model.
    pub fn new(model: NetworkModel) -> Network {
        Network {
            model,
            bus_free: Time::MIN,
            busy: Dur::ZERO,
            transfers: 0,
        }
    }

    /// The network's model.
    pub fn model(&self) -> NetworkModel {
        self.model
    }

    /// Requests transfer of a message that becomes ready at `ready` and
    /// takes `m` on the wire; returns its delivery time. Zero-length
    /// messages are delivered immediately and do not occupy the bus.
    pub fn send(&mut self, ready: Time, m: Dur) -> Time {
        if m.is_zero() {
            return ready;
        }
        self.transfers += 1;
        self.busy += m;
        match self.model {
            NetworkModel::Ideal => ready + m,
            NetworkModel::SharedBus => {
                let start = ready.max(self.bus_free);
                let end = start + m;
                self.bus_free = end;
                end
            }
        }
    }

    /// Total wire time consumed so far.
    pub fn busy_time(&self) -> Dur {
        self.busy
    }

    /// Number of non-empty transfers so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> Time {
        Time::new(x)
    }

    #[test]
    fn ideal_network_never_queues() {
        let mut n = Network::new(NetworkModel::Ideal);
        assert_eq!(n.send(t(0), Dur::new(5)), t(5));
        assert_eq!(n.send(t(0), Dur::new(5)), t(5)); // parallel
        assert_eq!(n.send(t(2), Dur::new(1)), t(3));
        assert_eq!(n.busy_time(), Dur::new(11));
        assert_eq!(n.transfers(), 3);
    }

    #[test]
    fn shared_bus_serializes_in_request_order() {
        let mut n = Network::new(NetworkModel::SharedBus);
        assert_eq!(n.send(t(0), Dur::new(5)), t(5));
        assert_eq!(n.send(t(0), Dur::new(5)), t(10)); // queued behind
        assert_eq!(n.send(t(20), Dur::new(2)), t(22)); // bus idle again
        assert_eq!(n.send(t(21), Dur::new(2)), t(24)); // queued
    }

    #[test]
    fn zero_messages_are_free() {
        let mut n = Network::new(NetworkModel::SharedBus);
        assert_eq!(n.send(t(7), Dur::ZERO), t(7));
        assert_eq!(n.busy_time(), Dur::ZERO);
        assert_eq!(n.transfers(), 0);
        // ...and do not block the bus.
        assert_eq!(n.send(t(0), Dur::new(3)), t(3));
    }
}
