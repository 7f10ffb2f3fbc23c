//! The proactive cache-signature maintenance structure (Section IV.D.3).
//!
//! Regenerating a bloom filter from scratch after every cache insertion or
//! eviction is wasteful; the paper instead keeps a vector of σ saturating
//! counters of `π_c` bits each. Insertions increment the counters at the
//! item's data-signature positions; evictions decrement them. The cache
//! signature is then "bits where the counter is non-zero".
//!
//! Saturation rules (verbatim from the paper): increments are skipped on a
//! counter already at `2^π_c − 1`; a decrement on a counter already at zero
//! is discarded and the whole vector must be reset and reconstructed to
//! avoid false negatives.

use crate::{data_positions, BloomFilter};

/// A σ-counter saturating counting filter maintaining a cache signature.
///
/// # Examples
///
/// ```
/// use grococa_signature::CountingFilter;
///
/// let mut cf = CountingFilter::new(1_000, 2, 4);
/// cf.insert(7);
/// assert!(cf.to_bloom().contains(7));
/// assert!(cf.remove(7).is_ok());
/// assert!(!cf.to_bloom().contains(7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingFilter {
    max: u16,
    counters: Vec<u16>,
    /// The cache signature: bit `i` is set exactly when counter `i` is
    /// non-zero. Derived state, flipped at every 0 ↔ non-zero transition
    /// so reading it never scans the σ counters.
    signature: BloomFilter,
}

/// Error signalling that a decrement hit a zero counter, meaning earlier
/// saturation lost information: the caller must
/// [rebuild](CountingFilter::rebuild) the vector from the true cache
/// contents to avoid false negatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeedsRebuild;

impl std::fmt::Display for NeedsRebuild {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "counter underflow: counting filter must be rebuilt")
    }
}

impl std::error::Error for NeedsRebuild {}

impl CountingFilter {
    /// Creates an all-zero counting filter of `sigma` counters, `k` hash
    /// functions and `pi_c`-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` or `k` is zero, or `pi_c` is zero or above 16.
    pub fn new(sigma: u32, k: u32, pi_c: u32) -> Self {
        assert!(sigma > 0 && k > 0, "filter geometry must be positive");
        assert!(
            (1..=16).contains(&pi_c),
            "counter width must be 1..=16 bits"
        );
        CountingFilter {
            max: if pi_c == 16 {
                u16::MAX
            } else {
                (1u16 << pi_c) - 1
            },
            counters: vec![0; sigma as usize],
            signature: BloomFilter::new(sigma, k),
        }
    }

    /// Number of counters σ.
    pub fn sigma(&self) -> u32 {
        self.signature.sigma()
    }

    /// Number of hash functions k.
    pub fn k(&self) -> u32 {
        self.signature.k()
    }

    /// Records a cache insertion of `key`. Saturated counters stay put.
    pub fn insert(&mut self, key: u64) {
        let _ = self.insert_transitions(key);
    }

    /// Records a cache insertion of `key`, returning the bit positions that
    /// transitioned 0 → 1 — the entries of the piggybacked *insertion list*
    /// of Section IV.D.4. Saturated counters stay put.
    pub fn insert_transitions(&mut self, key: u64) -> Vec<u32> {
        let mut newly_set = Vec::new();
        for pos in data_positions(key, self.sigma(), self.k()) {
            let c = &mut self.counters[pos as usize];
            if *c == 0 {
                newly_set.push(pos);
                self.signature.set_bit(pos);
            }
            if *c < self.max {
                *c += 1;
            }
        }
        newly_set
    }

    /// Records a cache eviction of `key`.
    ///
    /// # Errors
    ///
    /// Returns [`NeedsRebuild`] if any affected counter is already zero; the
    /// vector is left untouched in that case and the caller must
    /// [`CountingFilter::rebuild`] from the authoritative cache contents.
    pub fn remove(&mut self, key: u64) -> Result<(), NeedsRebuild> {
        self.remove_transitions(key).map(|_| ())
    }

    /// Records a cache eviction of `key`, returning the bit positions that
    /// transitioned 1 → 0 — the entries of the piggybacked *eviction list*
    /// of Section IV.D.4.
    ///
    /// # Errors
    ///
    /// Returns [`NeedsRebuild`] as for [`CountingFilter::remove`].
    pub fn remove_transitions(&mut self, key: u64) -> Result<Vec<u32>, NeedsRebuild> {
        let positions = data_positions(key, self.sigma(), self.k());
        // A position the key hashes to twice is decremented twice.
        let underflows = |p: u32| {
            let times = positions.iter().filter(|&&q| q == p).count();
            usize::from(self.counters[p as usize]) < times
        };
        if positions.iter().any(|&p| underflows(p)) {
            return Err(NeedsRebuild);
        }
        let mut newly_reset = Vec::new();
        for pos in positions {
            let c = &mut self.counters[pos as usize];
            *c -= 1;
            if *c == 0 {
                newly_reset.push(pos);
                self.signature.clear_bit(pos);
            }
        }
        Ok(newly_reset)
    }

    /// Resets and reconstructs the vector from the full cache contents.
    pub fn rebuild(&mut self, keys: impl IntoIterator<Item = u64>) {
        self.clear();
        for key in keys {
            self.insert(key);
        }
    }

    /// Zeroes every counter, visiting only the non-zero ones.
    fn clear(&mut self) {
        for pos in self.signature.ones() {
            if let Some(c) = self.counters.get_mut(pos as usize) {
                *c = 0;
            }
        }
        self.signature.clear();
    }

    /// The cache signature: a bloom filter with a bit set wherever the
    /// counter is non-zero.
    pub fn to_bloom(&self) -> BloomFilter {
        self.signature.clone()
    }

    /// Reads one counter value.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= sigma`.
    pub fn counter(&self, pos: u32) -> u16 {
        self.counters[pos as usize]
    }

    /// The full counter vector.
    pub fn counters(&self) -> &[u16] {
        &self.counters
    }

    /// The non-zero counters as `(position, value)`, least position
    /// first — what a checkpoint stores.
    pub fn nonzero_counters(&self) -> impl Iterator<Item = (u32, u16)> + '_ {
        self.signature
            .ones()
            .map(|pos| (pos, self.counters[pos as usize]))
    }

    /// Overwrites the vector with counters read back via
    /// [`CountingFilter::nonzero_counters`]; every other counter becomes
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range or a value is zero.
    pub fn restore_counters(&mut self, nonzero: &[(u32, u16)]) {
        self.clear();
        for &(pos, value) in nonzero {
            assert!(value > 0, "restored counters must be non-zero");
            self.signature.set_bit(pos);
            self.counters[pos as usize] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_round_trip() {
        let mut cf = CountingFilter::new(500, 3, 4);
        for key in 0..50 {
            cf.insert(key);
        }
        for key in 0..50 {
            cf.remove(key).unwrap();
        }
        assert_eq!(cf.to_bloom().count_ones(), 0);
    }

    #[test]
    fn shared_bits_survive_partial_removal() {
        let mut cf = CountingFilter::new(100, 2, 4);
        // Find two keys sharing at least one position.
        let (mut a, mut b) = (0u64, 0u64);
        'outer: for x in 0..1000u64 {
            for y in (x + 1)..1000 {
                let px = data_positions(x, 100, 2);
                let py = data_positions(y, 100, 2);
                if px.iter().any(|p| py.contains(p)) {
                    a = x;
                    b = y;
                    break 'outer;
                }
            }
        }
        cf.insert(a);
        cf.insert(b);
        cf.remove(a).unwrap();
        assert!(cf.to_bloom().contains(b), "removing a must not erase b");
    }

    #[test]
    fn underflow_reports_needs_rebuild() {
        let mut cf = CountingFilter::new(100, 2, 4);
        assert_eq!(cf.remove(3), Err(NeedsRebuild));
        // Untouched: still all zero.
        assert_eq!(cf.to_bloom().count_ones(), 0);
    }

    #[test]
    fn saturation_then_rebuild_restores_truth() {
        // 1-bit counters saturate immediately on double insertion.
        let mut cf = CountingFilter::new(50, 1, 1);
        let key = 9;
        cf.insert(key);
        cf.insert(key); // saturated, skipped
        cf.remove(key).unwrap(); // counter drops to 0 though key still "in"
                                 // Second removal underflows → rebuild from true contents.
        assert_eq!(cf.remove(key), Err(NeedsRebuild));
        cf.rebuild([key]);
        assert!(cf.to_bloom().contains(key));
    }

    #[test]
    fn repeated_position_underflow_reports_needs_rebuild() {
        // A key whose k = 2 positions coincide, in an odd-sized filter.
        let key = (0..10_000u64)
            .find(|&x| {
                let p = data_positions(x, 21, 2);
                p[0] == p[1]
            })
            .unwrap();
        let mut cf = CountingFilter::new(21, 2, 1); // saturates at 1
        cf.insert(key);
        assert_eq!(cf.remove(key), Err(NeedsRebuild));
        assert!(cf.to_bloom().contains(key), "left untouched");
        cf.rebuild([]);
        assert_eq!(cf.to_bloom().count_ones(), 0);
    }

    #[test]
    fn counters_cap_at_width() {
        let mut cf = CountingFilter::new(10, 1, 2); // max = 3
        let pos = data_positions(1, 10, 1)[0];
        for _ in 0..10 {
            cf.insert(1);
        }
        assert_eq!(cf.counter(pos), 3);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn rejects_zero_width() {
        CountingFilter::new(10, 1, 0);
    }

    #[test]
    fn needs_rebuild_displays() {
        assert!(NeedsRebuild.to_string().contains("rebuilt"));
    }
}
