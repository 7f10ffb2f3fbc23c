//! The bloom filter underlying all four signature types of Section IV.D.
//!
//! Hashing is deterministic double hashing: `h_i(x) = h1(x) + i·h2(x) mod σ`
//! with SplitMix64-derived base hashes, so signatures are identical across
//! runs and platforms.

/// Returns the `k` bit positions the key sets in a filter of `sigma` bits.
///
/// This *is* the paper's **data signature**: the bloom filter of a single
/// data item, represented sparsely by its set positions.
///
/// # Examples
///
/// ```
/// use grococa_signature::data_positions;
///
/// let p = data_positions(42, 1_000, 2);
/// assert_eq!(p.len(), 2);
/// assert!(p.iter().all(|&i| i < 1_000));
/// assert_eq!(p, data_positions(42, 1_000, 2)); // deterministic
/// ```
///
/// # Panics
///
/// Panics if `sigma` or `k` is zero.
pub fn data_positions(key: u64, sigma: u32, k: u32) -> Vec<u32> {
    assert!(sigma > 0, "bloom filter size must be positive");
    assert!(k > 0, "bloom filter needs at least one hash function");
    let h1 = splitmix(key ^ 0xA5A5_5A5A_DEAD_BEEF);
    let h2 = splitmix(key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    (0..k)
        .map(|i| ((h1.wrapping_add((i as u64).wrapping_mul(h2))) % sigma as u64) as u32)
        .collect()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed-size bloom filter over `u64` keys.
///
/// Used for **cache signatures** (the superimposition of a cache's data
/// signatures), **peer signatures** (superimposition of peers' cache
/// signatures) and **search signatures** (one item's data signature at query
/// time).
///
/// # Examples
///
/// ```
/// use grococa_signature::BloomFilter;
///
/// let mut cache_sig = BloomFilter::new(1_000, 2);
/// cache_sig.insert(7);
/// cache_sig.insert(8);
/// assert!(cache_sig.contains(7));
/// assert!(!cache_sig.contains(1234)); // almost surely
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    sigma: u32,
    k: u32,
    words: Vec<u64>,
}

impl BloomFilter {
    /// Creates an empty filter with `sigma` bits and `k` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` or `k` is zero.
    pub fn new(sigma: u32, k: u32) -> Self {
        assert!(sigma > 0, "bloom filter size must be positive");
        assert!(k > 0, "bloom filter needs at least one hash function");
        BloomFilter {
            sigma,
            k,
            words: vec![0; sigma.div_ceil(64) as usize],
        }
    }

    /// Number of bits σ.
    pub fn sigma(&self) -> u32 {
        self.sigma
    }

    /// Number of hash functions k.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Sets the bits of `key`'s data signature.
    pub fn insert(&mut self, key: u64) {
        for pos in data_positions(key, self.sigma, self.k) {
            self.set_bit(pos);
        }
    }

    /// Membership test: `true` means *probably* cached (false positives
    /// possible), `false` means *definitely* not.
    pub fn contains(&self, key: u64) -> bool {
        data_positions(key, self.sigma, self.k)
            .into_iter()
            .all(|pos| self.bit(pos))
    }

    /// Whether every position in `positions` is set — the bitwise-AND test
    /// the paper applies between a search/data signature and a peer
    /// signature.
    pub fn covers(&self, positions: &[u32]) -> bool {
        positions.iter().all(|&p| self.bit(p))
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= sigma`.
    pub fn bit(&self, pos: u32) -> bool {
        assert!(pos < self.sigma, "bit position out of range");
        self.words[(pos / 64) as usize] >> (pos % 64) & 1 == 1
    }

    /// Sets one bit.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= sigma`.
    pub fn set_bit(&mut self, pos: u32) {
        assert!(pos < self.sigma, "bit position out of range");
        self.words[(pos / 64) as usize] |= 1 << (pos % 64);
    }

    /// Clears one bit.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= sigma`.
    pub(crate) fn clear_bit(&mut self, pos: u32) {
        assert!(pos < self.sigma, "bit position out of range");
        if let Some(w) = self.words.get_mut((pos / 64) as usize) {
            *w &= !(1 << (pos % 64));
        }
    }

    /// Superimposes `other` onto this filter (bitwise OR) — how a peer
    /// signature is built from cache signatures.
    ///
    /// # Panics
    ///
    /// Panics if the filters have different geometry (σ, k).
    pub fn superimpose(&mut self, other: &BloomFilter) {
        assert_eq!(self.sigma, other.sigma, "filter sizes must match");
        assert_eq!(self.k, other.k, "hash counts must match");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterates over all σ bits, least position first.
    pub fn bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.sigma).map(move |i| self.bit(i))
    }

    /// Iterates over the set positions, least first. Costs one step per
    /// set bit plus one per 64-bit word, so a sparse signature is walked
    /// without visiting its σ zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use grococa_signature::BloomFilter;
    ///
    /// let mut f = BloomFilter::new(200, 1);
    /// f.set_bit(3);
    /// f.set_bit(130);
    /// assert_eq!(f.ones().collect::<Vec<_>>(), [3, 130]);
    /// ```
    pub fn ones(&self) -> impl Iterator<Item = u32> + '_ {
        Ones {
            words: self.words.iter().enumerate(),
            base: 0,
            word: 0,
        }
    }

    /// The backing words: bit `i` is bit `i % 64` of word `i / 64`, and
    /// every bit at or beyond σ is zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a filter from words read back via [`BloomFilter::words`].
    /// Returns `None` unless there are exactly ⌈σ/64⌉ words with no bit
    /// set at or beyond σ.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` or `k` is zero.
    pub fn from_words(sigma: u32, k: u32, words: Vec<u64>) -> Option<Self> {
        let empty = BloomFilter::new(sigma, k);
        let tail = sigma % 64;
        let padding_clear = tail == 0 || words.last().is_some_and(|&w| w >> tail == 0);
        (words.len() == empty.words.len() && padding_clear)
            .then_some(BloomFilter { words, ..empty })
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Rebuilds a filter from an exact bit sequence, as produced by
    /// [`BloomFilter::bits`].
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != sigma`.
    pub fn from_bits(sigma: u32, k: u32, bits: &[bool]) -> Self {
        assert_eq!(bits.len(), sigma as usize, "bit count must equal sigma");
        let mut f = BloomFilter::new(sigma, k);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                f.set_bit(i as u32);
            }
        }
        f
    }

    /// Theoretical false-positive probability after `n` insertions:
    /// `(1 - (1 - 1/σ)^{nk})^k` (Section IV.D.1).
    pub fn false_positive_rate(sigma: u32, k: u32, n: u64) -> f64 {
        let zero_prob = (1.0 - 1.0 / sigma as f64).powi((n * k as u64) as i32);
        (1.0 - zero_prob).powi(k as i32)
    }

    /// The k minimising the false-positive rate: `k* = ln 2 · (σ / n)`.
    pub fn optimal_k(sigma: u32, n: u64) -> u32 {
        ((std::f64::consts::LN_2 * sigma as f64 / n as f64).round() as u32).max(1)
    }

    /// Wire size of the uncompressed filter, bytes.
    pub fn wire_bytes(&self) -> u64 {
        (self.sigma as u64).div_ceil(8)
    }
}

/// Iterator over the set positions of a [`BloomFilter`], least first;
/// see [`BloomFilter::ones`].
struct Ones<'a> {
    words: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
    /// Position of bit 0 of `word`.
    base: u32,
    /// The unvisited set bits of the current word.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.word == 0 {
            let (i, &word) = self.words.next()?;
            self.base = i as u32 * 64;
            self.word = word;
        }
        let pos = self.base + self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1_000, 2);
        for key in 0..200 {
            f.insert(key);
        }
        for key in 0..200 {
            assert!(f.contains(key), "false negative for {key}");
        }
    }

    #[test]
    fn false_positive_rate_is_plausible() {
        let mut f = BloomFilter::new(10_000, 2);
        for key in 0..100 {
            f.insert(key);
        }
        let fp = (10_000..20_000).filter(|&k| f.contains(k)).count();
        // Theory: (1 - (1-1/σ)^{200})^2 ≈ 0.0004 → about 4 of 10k.
        assert!(fp < 60, "false positives way above theory: {fp}");
    }

    #[test]
    fn superimpose_is_union() {
        let mut a = BloomFilter::new(512, 3);
        let mut b = BloomFilter::new(512, 3);
        a.insert(1);
        b.insert(2);
        a.superimpose(&b);
        assert!(a.contains(1) && a.contains(2));
    }

    #[test]
    #[should_panic(expected = "sizes must match")]
    fn superimpose_rejects_mismatched_geometry() {
        let mut a = BloomFilter::new(512, 3);
        let b = BloomFilter::new(256, 3);
        a.superimpose(&b);
    }

    #[test]
    fn covers_matches_contains() {
        let mut f = BloomFilter::new(777, 4);
        f.insert(5);
        let pos = data_positions(5, 777, 4);
        assert!(f.covers(&pos));
        let other = data_positions(500_000, 777, 4);
        assert_eq!(f.covers(&other), f.contains(500_000));
    }

    #[test]
    fn bits_round_trip_through_from_bits() {
        let mut f = BloomFilter::new(130, 2);
        for key in [3, 99, 12345] {
            f.insert(key);
        }
        let bits: Vec<bool> = f.bits().collect();
        let g = BloomFilter::from_bits(130, 2, &bits);
        assert_eq!(f, g);
    }

    #[test]
    fn count_ones_and_clear() {
        let mut f = BloomFilter::new(64, 1);
        f.set_bit(0);
        f.set_bit(63);
        assert_eq!(f.count_ones(), 2);
        f.clear();
        assert_eq!(f.count_ones(), 0);
    }

    #[test]
    fn optimal_k_formula() {
        // σ/n = 100 → k* = 69.3 → 69; σ/n = 1 → k* = 0.69 → max(1).
        assert_eq!(BloomFilter::optimal_k(10_000, 100), 69);
        assert_eq!(BloomFilter::optimal_k(100, 100), 1);
    }

    #[test]
    fn wire_bytes_rounds_up() {
        assert_eq!(BloomFilter::new(1_000, 2).wire_bytes(), 125);
        assert_eq!(BloomFilter::new(1_001, 2).wire_bytes(), 126);
    }

    #[test]
    fn positions_distinct_keys_usually_differ() {
        let a = data_positions(1, 1 << 20, 4);
        let b = data_positions(2, 1 << 20, 4);
        assert_ne!(a, b);
    }
}
