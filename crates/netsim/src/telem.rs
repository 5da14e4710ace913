//! Simulator instruments. Handles resolve against the **current**
//! registry at construction, so build the simulator inside
//! `espread_telemetry::with_current` to route it to a worker registry.

use espread_telemetry::{current, Counter, Histogram};

/// Tracks loss runs and records each completed burst's length into the
/// current registry's `netsim.gilbert.burst_len` histogram.
#[derive(Debug, Clone)]
pub(crate) struct BurstTracker {
    hist: Histogram,
    current: u64,
}

impl BurstTracker {
    pub(crate) fn new() -> Self {
        BurstTracker {
            hist: current().histogram("netsim.gilbert.burst_len"),
            current: 0,
        }
    }

    /// Feeds one packet outcome; a delivery closes any open loss run.
    #[inline]
    pub(crate) fn observe(&mut self, delivered: bool) {
        if delivered {
            if self.current > 0 {
                self.hist.record(self.current);
                self.current = 0;
            }
        } else {
            self.current += 1;
        }
    }
}

/// Packets a link tallies locally before adding them to the shared
/// counters, bounding how stale a live snapshot can be.
const FLUSH_EVERY: u64 = 256;

/// Per-link packet counters. A link tallies its packets in plain fields
/// and adds them to the shared registry counters every [`FLUSH_EVERY`]
/// packets and when it is dropped, so the per-packet cost is a plain
/// increment rather than two atomic ones.
#[derive(Debug)]
pub(crate) struct LinkTelem {
    offered: Counter,
    delivered: Counter,
    lost: Counter,
    pending_delivered: u64,
    pending_lost: u64,
}

impl LinkTelem {
    pub(crate) fn new() -> Self {
        let g = current();
        LinkTelem {
            offered: g.counter("netsim.link.packets_offered"),
            delivered: g.counter("netsim.link.packets_delivered"),
            lost: g.counter("netsim.link.packets_lost"),
            pending_delivered: 0,
            pending_lost: 0,
        }
    }

    /// Tallies one offered packet and its fate.
    #[inline]
    pub(crate) fn packet(&mut self, delivered: bool) {
        if delivered {
            self.pending_delivered += 1;
        } else {
            self.pending_lost += 1;
        }
        if self.pending_delivered + self.pending_lost == FLUSH_EVERY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.offered.add(self.pending_delivered + self.pending_lost);
        self.delivered.add(self.pending_delivered);
        self.lost.add(self.pending_lost);
        self.pending_delivered = 0;
        self.pending_lost = 0;
    }
}

/// A clone starts with nothing pending: packets tallied before the clone
/// are flushed by the original, so none is counted twice.
impl Clone for LinkTelem {
    fn clone(&self) -> Self {
        LinkTelem {
            offered: self.offered.clone(),
            delivered: self.delivered.clone(),
            lost: self.lost.clone(),
            pending_delivered: 0,
            pending_lost: 0,
        }
    }
}

impl Drop for LinkTelem {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use espread_telemetry::{with_current, Registry};

    use crate::{GilbertModel, Link, Packet, SimDuration, SimTime};

    fn offered(registry: &Registry) -> (u64, u64, u64) {
        let s = registry.snapshot();
        let c = |name| s.counter(name).unwrap_or(0);
        (
            c("netsim.link.packets_offered"),
            c("netsim.link.packets_delivered"),
            c("netsim.link.packets_lost"),
        )
    }

    fn send(link: &mut Link, packets: u64) {
        for i in 0..packets {
            let _ = link.transmit(SimTime::ZERO, Packet::new(i, 100, SimTime::ZERO, ()));
        }
    }

    #[test]
    fn link_counters_flush_in_batches_and_on_drop() {
        let registry = Registry::new();
        let mut link = with_current(&registry, || {
            Link::new(1_000_000, SimDuration::ZERO, GilbertModel::new(0.9, 0.5, 7))
        });
        send(&mut link, super::FLUSH_EVERY - 1);
        assert_eq!(offered(&registry), (0, 0, 0), "nothing flushed yet");
        send(&mut link, 1);
        let (o, d, l) = offered(&registry);
        assert_eq!(o, super::FLUSH_EVERY);
        assert_eq!(d + l, o);
        send(&mut link, 10);
        let stats = link.stats();
        drop(link);
        assert_eq!(
            offered(&registry),
            (stats.offered, stats.delivered, stats.lost)
        );
    }

    #[test]
    fn cloned_link_counts_each_packet_once() {
        let registry = Registry::new();
        let mut link = with_current(&registry, || {
            Link::new(1_000_000, SimDuration::ZERO, GilbertModel::new(1.0, 0.0, 1))
        });
        send(&mut link, 5);
        let mut twin = link.clone();
        send(&mut twin, 3);
        drop(twin);
        drop(link);
        assert_eq!(offered(&registry), (8, 8, 0));
    }
}
