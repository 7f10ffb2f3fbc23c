//! The peer-signature counter vector (Section IV.D.4).
//!
//! Each mobile host summarises the cache contents of its tightly-coupled
//! group with σ counters of a *dynamic* width `π_p`: counter `i` counts how
//! many TCG members' cache signatures set bit `i`. Width expands when a
//! counter would reach `2^π_p` and contracts when every counter falls below
//! `2^(π_p−1)`; a host with no TCG members has width zero. Increments arrive
//! either as full cache signatures (after a `SigRequest`) or as the
//! insertion/eviction position lists piggybacked on broadcast requests.

use crate::BloomFilter;

/// The dynamic-width peer counter vector.
///
/// # Examples
///
/// ```
/// use grococa_signature::{BloomFilter, PeerVector};
///
/// let mut pv = PeerVector::new(1_000, 2);
/// let mut member_sig = BloomFilter::new(1_000, 2);
/// member_sig.insert(7);
/// pv.add_signature(&member_sig);
/// assert!(pv.peer_signature_contains(7));
/// pv.reset();
/// assert!(!pv.peer_signature_contains(7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerVector {
    /// The σ counters, allocated when one first becomes non-zero: a host
    /// that never folds in a member's signature (every host under a
    /// scheme without TCGs) holds none. Empty means all zero.
    counters: Vec<u32>,
    /// `value_counts[v]` = number of counters currently holding value `v`;
    /// keeps the maximum (and hence the width π_p) O(1) to maintain.
    value_counts: Vec<u64>,
    max_value: u32,
    /// The peer signature: bit `i` is set exactly when counter `i` is
    /// non-zero. Derived state, flipped at every 0 ↔ non-zero transition
    /// so resets and checkpoints visit only the non-zero counters.
    signature: BloomFilter,
}

impl PeerVector {
    /// Creates an empty vector for filters of geometry (`sigma`, `k`). The
    /// initial width is zero (no TCG members yet).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` or `k` is zero.
    pub fn new(sigma: u32, k: u32) -> Self {
        assert!(sigma > 0 && k > 0, "filter geometry must be positive");
        PeerVector {
            counters: Vec::new(),
            value_counts: vec![sigma as u64],
            max_value: 0,
            signature: BloomFilter::new(sigma, k),
        }
    }

    /// Number of counters σ.
    pub fn sigma(&self) -> u32 {
        self.signature.sigma()
    }

    /// The current counter width `π_p` in bits: the smallest width holding
    /// the largest counter value (zero when all counters are zero — a host
    /// with no TCG members stores nothing).
    pub fn width_bits(&self) -> u32 {
        32 - self.max_value.leading_zeros()
    }

    /// Memory footprint of the vector at the current width, in bits — the
    /// quantity the dynamic-width scheme is minimising.
    pub fn storage_bits(&self) -> u64 {
        self.sigma() as u64 * self.width_bits() as u64
    }

    /// Counter `pos`, zero while the counters are unallocated.
    fn counter(&self, pos: u32) -> u32 {
        assert!(pos < self.sigma(), "bit position out of range");
        self.counters.get(pos as usize).copied().unwrap_or(0)
    }

    fn set_counter(&mut self, pos: usize, new: u32) {
        if self.counters.is_empty() {
            self.counters.resize(self.sigma() as usize, 0);
        }
        let old = self.counters[pos];
        self.counters[pos] = new;
        if old == 0 {
            self.signature.set_bit(pos as u32);
        } else if new == 0 {
            self.signature.clear_bit(pos as u32);
        }
        self.value_counts[old as usize] -= 1;
        if new as usize >= self.value_counts.len() {
            self.value_counts.resize(new as usize + 1, 0);
        }
        self.value_counts[new as usize] += 1;
        if new > self.max_value {
            self.max_value = new;
        } else if old == self.max_value && self.value_counts[old as usize] == 0 {
            // The last counter at the maximum dropped: contract.
            while self.max_value > 0 && self.value_counts[self.max_value as usize] == 0 {
                self.max_value -= 1;
            }
        }
    }

    /// Folds a full member cache signature in (counter `i` += bit `i`).
    ///
    /// # Panics
    ///
    /// Panics if the signature geometry differs.
    pub fn add_signature(&mut self, sig: &BloomFilter) {
        assert_eq!(sig.sigma(), self.sigma(), "filter sizes must match");
        assert_eq!(sig.k(), self.signature.k(), "hash counts must match");
        for pos in sig.ones() {
            self.set_counter(pos as usize, self.counter(pos) + 1);
        }
    }

    /// Applies a piggybacked signature update: `insertions` are bit
    /// positions newly set by the member, `evictions` are positions reset.
    /// Eviction of a zero counter is discarded (stale update after a
    /// reset), keeping the vector conservative (false positives only).
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    pub fn apply_update(&mut self, insertions: &[u32], evictions: &[u32]) {
        for &pos in insertions {
            self.set_counter(pos as usize, self.counter(pos) + 1);
        }
        for &pos in evictions {
            let c = self.counter(pos);
            if c > 0 {
                self.set_counter(pos as usize, c - 1);
            }
        }
    }

    /// Resets all counters (TCG membership change / reconnection) and the
    /// width to zero.
    pub fn reset(&mut self) {
        for pos in self.signature.ones() {
            if let Some(c) = self.counters.get_mut(pos as usize) {
                *c = 0;
            }
        }
        self.signature.clear();
        self.value_counts.clear();
        self.value_counts.push(self.sigma() as u64);
        self.max_value = 0;
    }

    /// Whether bit `pos` of the peer signature is set (counter non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= sigma`.
    pub fn bit(&self, pos: u32) -> bool {
        self.signature.bit(pos)
    }

    /// Whether every position of a data/search signature is covered — the
    /// bitwise-AND filter test.
    pub fn covers(&self, positions: &[u32]) -> bool {
        positions.iter().all(|&p| self.bit(p))
    }

    /// Membership test against the implied peer signature.
    pub fn peer_signature_contains(&self, key: u64) -> bool {
        self.covers(&crate::data_positions(
            key,
            self.sigma(),
            self.signature.k(),
        ))
    }

    /// The counter vector: empty (all zero) until a counter first
    /// becomes non-zero, σ long from then on.
    pub fn counters(&self) -> &[u32] {
        &self.counters
    }

    /// The non-zero counters as `(position, value)`, least position
    /// first — what a checkpoint stores.
    pub fn nonzero_counters(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.signature
            .ones()
            .map(|pos| (pos, self.counters[pos as usize]))
    }

    /// Overwrites the vector with counters read back via
    /// [`PeerVector::nonzero_counters`]; every other counter becomes zero.
    /// The width bookkeeping follows, as it is a pure function of the
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range or a value is zero.
    pub fn restore_counters(&mut self, nonzero: &[(u32, u32)]) {
        self.reset();
        for &(pos, value) in nonzero {
            assert!(value > 0, "restored counters must be non-zero");
            assert!(pos < self.sigma(), "bit position out of range");
            self.set_counter(pos as usize, value);
        }
    }

    /// Materialises the peer signature as a bloom filter.
    pub fn to_bloom(&self) -> BloomFilter {
        self.signature.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig_of(keys: &[u64]) -> BloomFilter {
        let mut f = BloomFilter::new(200, 2);
        for &k in keys {
            f.insert(k);
        }
        f
    }

    #[test]
    fn add_then_query() {
        let mut pv = PeerVector::new(200, 2);
        pv.add_signature(&sig_of(&[1, 2, 3]));
        pv.add_signature(&sig_of(&[3, 4]));
        for key in 1..=4 {
            assert!(pv.peer_signature_contains(key));
        }
    }

    #[test]
    fn width_expands_and_contracts() {
        let mut pv = PeerVector::new(200, 2);
        assert_eq!(pv.width_bits(), 0);
        let s = sig_of(&[1]);
        pv.add_signature(&s); // max counter 1 → needs 1 bit
        assert_eq!(pv.width_bits(), 1);
        pv.add_signature(&s); // max counter 2 → needs 2 bits
        assert_eq!(pv.width_bits(), 2);
        pv.add_signature(&s); // max counter 3 → still 2 bits
        assert_eq!(pv.width_bits(), 2);
        // Evict twice: counters drop to 1 → contracts to 1 bit.
        let pos: Vec<u32> = crate::data_positions(1, 200, 2);
        pv.apply_update(&[], &pos);
        pv.apply_update(&[], &pos);
        assert_eq!(pv.width_bits(), 1);
        pv.apply_update(&[], &pos);
        assert_eq!(pv.width_bits(), 0);
        assert_eq!(pv.storage_bits(), 0);
    }

    #[test]
    fn updates_match_full_signatures() {
        // Applying an insertion list must equal adding the delta signature.
        let mut via_updates = PeerVector::new(200, 2);
        let mut via_sig = PeerVector::new(200, 2);
        let keys = [10u64, 20, 30];
        let mut sig = BloomFilter::new(200, 2);
        let mut inserted: Vec<u32> = Vec::new();
        for &k in &keys {
            for p in crate::data_positions(k, 200, 2) {
                if !sig.bit(p) {
                    sig.set_bit(p);
                    inserted.push(p);
                }
            }
        }
        via_updates.apply_update(&inserted, &[]);
        via_sig.add_signature(&sig);
        assert_eq!(via_updates.to_bloom(), via_sig.to_bloom());
    }

    #[test]
    fn stale_evictions_are_discarded() {
        let mut pv = PeerVector::new(200, 2);
        pv.apply_update(&[], &[5, 6]); // nothing to evict: no panic, no wrap
        assert!(!pv.bit(5));
    }

    #[test]
    fn reset_clears_everything() {
        let mut pv = PeerVector::new(200, 2);
        pv.add_signature(&sig_of(&[1, 2]));
        pv.reset();
        assert_eq!(pv.width_bits(), 0);
        assert_eq!(pv.to_bloom().count_ones(), 0);
    }

    #[test]
    fn covers_empty_is_true() {
        let pv = PeerVector::new(200, 2);
        assert!(pv.covers(&[]));
    }
}
