//! Per-mobile-host protocol state.

use std::collections::BTreeSet;

use grococa_cache::{ClientCache, ReplacementPolicy};
use grococa_signature::{CountingFilter, PeerVector};
use grococa_sim::{EventId, SimTime, Welford};
use grococa_workload::ItemId;

/// Which stage an outstanding client request is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Broadcast sent, awaiting the first peer reply (or timeout).
    Searching,
    /// Target peer chosen, retrieve sent, awaiting the data.
    Retrieving,
    /// Request forwarded to the mobile support station.
    Server,
    /// TTL-expired local copy being revalidated with the MSS.
    Validating,
}

/// The outstanding request of a host (each host runs a closed loop: at most
/// one request in flight).
#[derive(Debug, Clone)]
pub struct Pending {
    /// Generation number guarding against stale in-flight events.
    pub gen: u64,
    /// The wanted item.
    pub item: ItemId,
    /// When the request was issued (latency starts here).
    pub issued_at: SimTime,
    /// Whether this request counts towards recorded metrics (post-warm-up).
    pub recorded: bool,
    /// Current stage.
    pub phase: Phase,
    /// When the peer-search broadcast left (τ measurement starts here).
    pub broadcast_at: SimTime,
    /// The scheduled search-timeout event, for cancellation.
    pub timeout: Option<EventId>,
    /// The peer chosen from the first reply.
    pub target: Option<usize>,
    /// `t_r` of the local copy being validated.
    pub validating_t_r: SimTime,
    /// Retry attempts already spent in the current phase (fault
    /// hardening; reset at each phase transition, always 0 under the
    /// zero-fault profile).
    pub attempt: u32,
    /// The armed retrieve/server watchdog, for cancellation. Only set
    /// while the fault plan is active.
    pub watchdog: Option<EventId>,
}

/// One mobile host: cache, signatures, group view and request state.
#[derive(Debug)]
pub struct Host {
    /// Dense host index.
    pub id: usize,
    /// Whether the host is currently connected (powered on, in the network).
    pub connected: bool,
    /// The LRU + TTL client cache.
    pub cache: ClientCache<ItemId>,
    /// Proactive cache-signature maintenance (σ counters of π_c bits).
    pub counting: CountingFilter,
    /// The TCG peer-signature counter vector (dynamic width π_p).
    pub peer_vector: PeerVector,
    /// Local view of the host's tightly-coupled group.
    pub tcg: BTreeSet<usize>,
    /// Members whose cache signatures are still outstanding
    /// (`OutstandSigList` of Section IV.D.5).
    pub outstand_sig: BTreeSet<usize>,
    /// Bit positions newly set since the last piggybacked update.
    pub pending_insert: BTreeSet<u32>,
    /// Bit positions newly reset since the last piggybacked update.
    pub pending_evict: BTreeSet<u32>,
    /// Members departed since the last signature recollection.
    pub departed_since_recollect: u32,
    /// Items retrieved from peers since the last MSS contact (the explicit
    /// update ships a ρ_P portion of this log).
    pub peer_retrieved_log: Vec<ItemId>,
    /// Observed peer-search durations (τ̄ and σ_τ for the adaptive timeout).
    pub search_stats: Welford,
    /// Monotone request generation counter.
    pub gen: u64,
    /// The in-flight request, if any.
    pub pending: Option<Pending>,
    /// Last instant this host contacted the MSS (drives τ_P).
    pub last_server_contact: SimTime,
    /// Whether this host's cache has reached capacity (warm-up tracking).
    pub cache_filled: bool,
    /// Consecutive peer searches that ended in a silent timeout (fault
    /// hardening: feeds solo-mode entry).
    pub consecutive_search_failures: u32,
    /// Requests left to serve without a peer search before probing the
    /// peers again (solo mode; 0 = cooperating normally).
    pub solo_requests_left: u32,
}

impl Host {
    /// Creates a freshly booted host.
    pub fn new(
        id: usize,
        cache_size: usize,
        policy: ReplacementPolicy,
        sigma: u32,
        k: u32,
        pi_c: u32,
        replace_delay: u32,
    ) -> Self {
        let mut cache = ClientCache::with_policy(cache_size, policy);
        cache.set_default_singlet_ttl(replace_delay);
        Host {
            id,
            connected: true,
            cache,
            counting: CountingFilter::new(sigma, k, pi_c),
            peer_vector: PeerVector::new(sigma, k),
            tcg: BTreeSet::new(),
            outstand_sig: BTreeSet::new(),
            pending_insert: BTreeSet::new(),
            pending_evict: BTreeSet::new(),
            departed_since_recollect: 0,
            peer_retrieved_log: Vec::new(),
            search_stats: Welford::new(),
            gen: 0,
            pending: None,
            last_server_contact: SimTime::ZERO,
            cache_filled: false,
            consecutive_search_failures: 0,
            solo_requests_left: 0,
        }
    }

    /// Whether `(gen, phase)` matches the in-flight request — the guard
    /// every protocol event applies against stale deliveries.
    pub fn pending_matches(&self, gen: u64, phase: Phase) -> bool {
        self.pending
            .as_ref()
            .is_some_and(|p| p.gen == gen && p.phase == phase)
    }

    /// Mutable access to the in-flight request if `(gen)` matches.
    pub fn pending_mut(&mut self, gen: u64) -> Option<&mut Pending> {
        self.pending.as_mut().filter(|p| p.gen == gen)
    }

    /// Whether the host holds a TTL-valid copy of `item` at `now`.
    pub fn has_valid(&self, item: ItemId, now: SimTime) -> bool {
        self.cache.peek(item).is_some_and(|e| e.is_valid(now))
    }

    /// Records the cache-signature transition lists of an insertion,
    /// annihilating positions that bounce (set then reset or vice versa).
    pub fn note_insert(&mut self, item: ItemId) {
        let newly_set = self.counting.insert_transitions(item.as_u64());
        for pos in newly_set {
            if !self.pending_evict.remove(&pos) {
                self.pending_insert.insert(pos);
            }
        }
    }

    /// Records the transition lists of an eviction, rebuilding the counting
    /// filter from the cache if saturation corrupted it.
    pub fn note_evict(&mut self, item: ItemId) {
        match self.counting.remove_transitions(item.as_u64()) {
            Ok(newly_reset) => {
                for pos in newly_reset {
                    if !self.pending_insert.remove(&pos) {
                        self.pending_evict.insert(pos);
                    }
                }
            }
            Err(_) => {
                self.counting.rebuild(self.cache.keys().map(ItemId::as_u64));
                // The piggyback lists may now be stale; drop them — the
                // peers' vectors stay conservative (false positives only).
                self.pending_insert.clear();
                self.pending_evict.clear();
            }
        }
    }

    /// Takes the accumulated piggyback lists, leaving them empty.
    pub fn take_update_lists(&mut self) -> (Vec<u32>, Vec<u32>) {
        (
            std::mem::take(&mut self.pending_insert)
                .into_iter()
                .collect(),
            std::mem::take(&mut self.pending_evict)
                .into_iter()
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host::new(0, 4, ReplacementPolicy::Lru, 512, 2, 4, 2)
    }

    #[test]
    fn pending_guard_matches_gen_and_phase() {
        let mut h = host();
        h.pending = Some(Pending {
            gen: 3,
            item: ItemId::new(1),
            issued_at: SimTime::ZERO,
            recorded: true,
            phase: Phase::Searching,
            broadcast_at: SimTime::ZERO,
            timeout: None,
            target: None,
            validating_t_r: SimTime::ZERO,
            attempt: 0,
            watchdog: None,
        });
        assert!(h.pending_matches(3, Phase::Searching));
        assert!(!h.pending_matches(3, Phase::Server));
        assert!(!h.pending_matches(2, Phase::Searching));
        assert!(h.pending_mut(3).is_some());
        assert!(h.pending_mut(4).is_none());
    }

    #[test]
    fn transition_lists_annihilate() {
        let mut h = host();
        let item = ItemId::new(9);
        h.note_insert(item);
        assert!(!h.pending_insert.is_empty());
        h.note_evict(item);
        // Insert-then-evict before any broadcast: both lists empty.
        assert!(h.pending_insert.is_empty());
        assert!(h.pending_evict.is_empty());
    }

    #[test]
    fn take_update_lists_clears() {
        let mut h = host();
        h.note_insert(ItemId::new(9));
        let (ins, ev) = h.take_update_lists();
        assert!(!ins.is_empty());
        assert!(ev.is_empty());
        assert!(h.pending_insert.is_empty());
        let (ins2, _) = h.take_update_lists();
        assert!(ins2.is_empty());
    }

    #[test]
    fn evict_after_saturation_rebuilds() {
        // π_c = 1: double insertion saturates instantly.
        let mut h = Host::new(0, 4, ReplacementPolicy::Lru, 64, 1, 1, 2);
        let (a, b) = (ItemId::new(1), ItemId::new(2));
        h.cache.insert(a, SimTime::ZERO, SimTime::MAX);
        h.note_insert(a);
        h.note_insert(a); // duplicate bookkeeping → saturation
        h.note_evict(a);
        // Underflow path must leave the filter consistent with the cache.
        h.note_evict(a);
        assert!(h.counting.to_bloom().contains(a.as_u64()));
        let _ = b;
    }

    #[test]
    fn has_valid_respects_ttl() {
        let mut h = host();
        let item = ItemId::new(5);
        h.cache.insert(item, SimTime::ZERO, SimTime::from_secs(10));
        assert!(h.has_valid(item, SimTime::from_secs(5)));
        assert!(!h.has_valid(item, SimTime::from_secs(10)));
        assert!(!h.has_valid(ItemId::new(6), SimTime::ZERO));
    }
}
