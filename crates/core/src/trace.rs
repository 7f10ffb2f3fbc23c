//! Structured simulation tracing.
//!
//! A [`Tracer`] attached to a simulation records the protocol lifecycle of
//! every request — issue, filter decisions, peer search, replies, server
//! interactions, TCG membership churn, disconnections — as typed
//! [`TraceRecord`]s. Traces make protocol behaviour inspectable and
//! enable invariant tests ("every global hit was preceded by a search by
//! the same host"), at the cost of memory proportional to the record cap.

use grococa_sim::SimTime;
use grococa_workload::ItemId;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A host issued a new request for `item`.
    RequestIssued {
        /// The wanted item.
        item: ItemId,
    },
    /// The request completed from the local cache.
    LocalHit,
    /// A TTL-expired local copy is being revalidated with the MSS.
    ValidationStarted,
    /// The signature filter bypassed the peer search.
    FilterBypass,
    /// A peer-search broadcast left, reaching `peers_reached` peers.
    SearchStarted {
        /// How many peers the broadcast reached.
        peers_reached: usize,
    },
    /// The first peer reply arrived; `from` becomes the target.
    ReplyAccepted {
        /// The peer chosen as target.
        from: usize,
    },
    /// The adaptive timeout τ expired with no reply.
    SearchTimedOut,
    /// The request completed from a peer's cache.
    GlobalHit {
        /// The serving peer.
        from: usize,
    },
    /// The request was forwarded to the MSS.
    ServerContacted,
    /// The request completed with a server-delivered copy.
    ServerDelivered,
    /// The MSS announced that `peer` joined this host's TCG.
    TcgJoined {
        /// The new member.
        peer: usize,
    },
    /// The MSS announced that `peer` left this host's TCG.
    TcgLeft {
        /// The departed member.
        peer: usize,
    },
    /// The host disconnected from the network.
    Disconnected,
    /// The host reconnected.
    Reconnected,
    /// A hardening watchdog re-sent a lost or unanswered message (fault
    /// injection extension; never emitted under the zero-fault profile).
    Retried,
}

/// One timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// When it happened.
    pub time: SimTime,
    /// The host it happened to.
    pub mh: usize,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded in-memory trace sink.
///
/// # Examples
///
/// ```
/// use grococa_core::{Scheme, SimConfig, Simulation, TraceKind, Tracer};
///
/// let mut cfg = SimConfig::for_scheme(Scheme::Coca);
/// cfg.num_clients = 10;
/// cfg.requests_per_mh = 20;
/// let mut sim = Simulation::new(cfg);
/// sim.set_tracer(Tracer::with_capacity(10_000));
/// let (_out, world) = sim.run_inspect();
/// let trace = world.tracer().expect("tracer attached");
/// assert!(trace
///     .records()
///     .iter()
///     .any(|r| matches!(r.kind, TraceKind::RequestIssued { .. })));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    records: Vec<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// Creates a tracer that keeps at most `capacity` records (further
    /// records are counted but dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            records: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Creates an unbounded tracer. Prefer [`Tracer::with_capacity`] for
    /// long runs.
    pub fn unbounded() -> Self {
        Tracer::with_capacity(usize::MAX)
    }

    /// Appends a record (or counts it as dropped past the cap).
    pub fn record(&mut self, time: SimTime, mh: usize, kind: TraceKind) {
        if self.records.len() < self.capacity {
            self.records.push(TraceRecord { time, mh, kind });
        } else {
            self.dropped += 1;
        }
    }

    /// The collected records, in simulation order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records dropped after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All records of one host, in order.
    pub fn of_host(&self, mh: usize) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.records.iter().filter(move |r| r.mh == mh)
    }

    /// Counts records matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceRecord) -> bool) -> usize {
        self.records.iter().filter(|r| pred(r)).count()
    }

    /// Renders the trace as one line per record (for dumps and debugging).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!("{} mh{:03} {:?}\n", r.time, r.mh, r.kind));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_drops_excess() {
        let mut t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.record(SimTime::from_secs(i), 0, TraceKind::LocalHit);
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn of_host_filters() {
        let mut t = Tracer::unbounded();
        t.record(SimTime::ZERO, 0, TraceKind::LocalHit);
        t.record(SimTime::ZERO, 1, TraceKind::Disconnected);
        t.record(SimTime::ZERO, 0, TraceKind::Reconnected);
        assert_eq!(t.of_host(0).count(), 2);
        assert_eq!(t.of_host(1).count(), 1);
        assert_eq!(t.count(|r| matches!(r.kind, TraceKind::LocalHit)), 1);
    }

    #[test]
    fn to_text_one_line_per_record() {
        let mut t = Tracer::unbounded();
        t.record(SimTime::from_secs(1), 7, TraceKind::SearchTimedOut);
        let text = t.to_text();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("mh007"));
        assert!(text.contains("SearchTimedOut"));
    }
}
