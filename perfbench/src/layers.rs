//! The two timing wrappers the traced run installs, and the traits a
//! workload pass sees every backend and transport through.
//!
//! [`TimedTransport`] wraps any [`Transport`] and records a [`Span`]
//! per `plan` call; [`TimedShelves`] wraps any [`Shelves`] backend and
//! records a span per mutation verb. Both forward **every** trait
//! method to the wrapped value — including the ones `Shelves` defaults
//! — so the traced program is the untraced one plus timers. (A
//! defaulted `retire_hinted` would scan the whole map instead of the
//! hinted slots: the benchmark would time a different program.)
//! Read-side `Shelves` calls are forwarded untimed: the engine's
//! share probes read through `map()` and belong to the engine's time.

use crate::span::{now_ns, Span};
use cd_core::point::Point;
use dh_dht::NodeId;
use dh_proto::transport::{Delivery, Sim, Transport};
use dh_proto::wire::Envelope;
use dh_proto::ChaosNet;
use dh_replica::Shelves;
use dh_store::{FileShelves, Holder, ItemState, MemShelves};
use std::collections::BTreeMap;

/// What the traced run reads back from a [`TimedTransport`].
#[derive(Clone, Debug, Default)]
pub struct NetTimes {
    /// One span per `plan` call since the last drain.
    pub spans: Vec<Span>,
    /// `plan` calls.
    pub plans: u64,
    /// Deliveries the wrapped transport planned (0 per lost send).
    pub deliveries: u64,
}

/// What the traced run reads back from a [`TimedShelves`].
#[derive(Clone, Debug, Default)]
pub struct StoreTimes {
    /// One span per mutation verb since the last drain.
    pub spans: Vec<Span>,
    /// Mutation verbs called.
    pub calls: u64,
    /// Nanoseconds of each `commit` call.
    pub commit_ns: Vec<u64>,
}

/// A transport as a pass sees it: a [`Transport`] that may carry
/// timings (only [`TimedTransport`] does).
pub trait Net: Transport {
    /// The timings recorded so far, if this transport records any.
    fn times(&mut self) -> Option<&mut NetTimes> {
        None
    }
}

impl Net for Sim {}
impl Net for ChaosNet<Sim> {}

/// A shelf backend as a pass sees it: a [`Shelves`] backend with a
/// WAL length probe that may carry timings (only [`TimedShelves`]
/// does).
pub trait Store: Shelves {
    /// Current WAL length in bytes (0 for backends without a log).
    fn wal_len(&self) -> u64 {
        0
    }

    /// The timings recorded so far, if this backend records any.
    fn times(&mut self) -> Option<&mut StoreTimes> {
        None
    }
}

impl Store for MemShelves {}

impl Store for FileShelves {
    fn wal_len(&self) -> u64 {
        FileShelves::wal_len(self)
    }
}

/// A [`Transport`] that times every `plan` call of the one it wraps.
pub struct TimedTransport<T> {
    inner: T,
    times: NetTimes,
}

impl<T> TimedTransport<T> {
    /// Wrap `inner`.
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            times: NetTimes::default(),
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
        let before = out.len();
        let start = now_ns();
        self.inner.plan(now, env, out);
        self.times.spans.push(Span::new(start, now_ns()));
        self.times.plans += 1;
        self.times.deliveries += (out.len() - before) as u64;
    }
}

impl<T: Transport> Net for TimedTransport<T> {
    fn times(&mut self) -> Option<&mut NetTimes> {
        Some(&mut self.times)
    }
}

/// A [`Shelves`] backend that times every mutation verb of the one it
/// wraps.
pub struct TimedShelves<S> {
    inner: S,
    times: StoreTimes,
}

impl<S> TimedShelves<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TimedShelves {
            inner,
            times: StoreTimes::default(),
        }
    }

    /// Run one mutation verb under a span.
    fn timed<R>(&mut self, verb: impl FnOnce(&mut S) -> R) -> (R, u64) {
        let start = now_ns();
        let r = verb(&mut self.inner);
        let end = now_ns();
        self.times.spans.push(Span::new(start, end));
        self.times.calls += 1;
        (r, end - start)
    }
}

impl<S: Shelves> Shelves for TimedShelves<S> {
    fn map(&self) -> &BTreeMap<u64, ItemState> {
        self.inner.map()
    }

    fn park(&mut self, key: u64, point: Point, idx: u8, holder: Holder) {
        self.timed(|s| s.park(key, point, idx, holder));
    }

    fn commit(&mut self, key: u64, version: u32) {
        let ((), ns) = self.timed(|s| s.commit(key, version));
        self.times.commit_ns.push(ns);
    }

    fn unpark(&mut self, key: u64, idx: u8) {
        self.timed(|s| s.unpark(key, idx));
    }

    fn remove(&mut self, key: u64) -> bool {
        self.timed(|s| s.remove(key)).0
    }

    fn retire(&mut self, node: NodeId) -> Vec<u64> {
        self.timed(|s| s.retire(node)).0
    }

    fn retire_hinted(&mut self, node: NodeId, hints: &[(u64, u8)]) -> Vec<u64> {
        self.timed(|s| s.retire_hinted(node, hints)).0
    }

    fn items(&self) -> usize {
        self.inner.items()
    }

    fn shelved_shares(&self) -> usize {
        self.inner.shelved_shares()
    }

    fn holds(&self, node: NodeId) -> bool {
        self.inner.holds(node)
    }
}

impl<S: Store> Store for TimedShelves<S> {
    fn wal_len(&self) -> u64 {
        self.inner.wal_len()
    }

    fn times(&mut self) -> Option<&mut StoreTimes> {
        Some(&mut self.times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A backend that logs which of its own methods ran — the
    /// defaulted ones included, so a wrapper that lets a default
    /// stand in for a forward shows up as the wrong log entry.
    #[derive(Default)]
    struct Probe {
        map: BTreeMap<u64, ItemState>,
        log: RefCell<Vec<&'static str>>,
    }

    impl Probe {
        fn note(&self, what: &'static str) {
            self.log.borrow_mut().push(what);
        }
    }

    impl Shelves for Probe {
        fn map(&self) -> &BTreeMap<u64, ItemState> {
            self.note("map");
            &self.map
        }
        fn park(&mut self, _: u64, _: Point, _: u8, _: Holder) {
            self.note("park");
        }
        fn commit(&mut self, _: u64, _: u32) {
            self.note("commit");
        }
        fn unpark(&mut self, _: u64, _: u8) {
            self.note("unpark");
        }
        fn remove(&mut self, _: u64) -> bool {
            self.note("remove");
            true
        }
        fn retire(&mut self, _: NodeId) -> Vec<u64> {
            self.note("retire");
            vec![1]
        }
        fn retire_hinted(&mut self, _: NodeId, _: &[(u64, u8)]) -> Vec<u64> {
            self.note("retire_hinted");
            vec![2]
        }
        fn items(&self) -> usize {
            self.note("items");
            3
        }
        fn shelved_shares(&self) -> usize {
            self.note("shelved_shares");
            4
        }
        fn holds(&self, _: NodeId) -> bool {
            self.note("holds");
            true
        }
    }

    impl Store for Probe {}

    #[test]
    fn timed_shelves_forward_every_method_to_the_wrapped_backend() {
        let mut t = TimedShelves::new(Probe::default());
        let holder = {
            let shares = dh_erasure::encode(b"probe", 2, 4);
            let header = dh_erasure::ShareHeader {
                version: 1,
                index: 0,
                k: 2,
                m: 4,
            };
            Holder::seal(NodeId(7), header, &shares[0])
        };
        let _ = t.map();
        t.park(1, Point(0), 0, holder);
        t.commit(1, 1);
        t.unpark(1, 0);
        assert!(t.remove(1));
        assert_eq!(t.retire(NodeId(7)), vec![1]);
        assert_eq!(t.retire_hinted(NodeId(7), &[(1, 0)]), vec![2]);
        assert_eq!(t.items(), 3);
        assert_eq!(t.shelved_shares(), 4);
        assert!(t.holds(NodeId(7)));
        assert_eq!(
            *t.inner.log.borrow(),
            [
                "map",
                "park",
                "commit",
                "unpark",
                "remove",
                "retire",
                "retire_hinted",
                "items",
                "shelved_shares",
                "holds"
            ]
        );
        let times = t.times().expect("the wrapper records");
        assert_eq!(times.calls, 6, "six mutation verbs are timed");
        assert_eq!(times.spans.len(), 6);
        assert_eq!(times.commit_ns.len(), 1);
    }

    #[test]
    fn timed_transport_forwards_plans_and_counts_deliveries() {
        use dh_proto::wire::Wire;
        let env = Envelope {
            src: NodeId(1),
            dst: NodeId(2),
            msg: Wire::ShareDigest { keys: 3 },
            corrupt: false,
        };
        let mut plain = Sim::new(9).with_latency(4, 16, 4).with_dup(0.5);
        let mut timed = TimedTransport::new(Sim::new(9).with_latency(4, 16, 4).with_dup(0.5));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for now in 0..50 {
            plain.plan(now, &env, &mut a);
            timed.plan(now, &env, &mut b);
        }
        assert_eq!(a, b, "the wrapper must not change a single delivery");
        let times = timed.times().expect("the wrapper records");
        assert_eq!(times.plans, 50);
        assert_eq!(times.deliveries, b.len() as u64);
        assert!(
            times.deliveries > 50,
            "duplication shows in the delivery count"
        );
    }
}
