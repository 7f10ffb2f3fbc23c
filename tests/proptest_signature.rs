//! Property-based tests of the cache-signature substrate: VLFL round
//! trips over arbitrary bit patterns, counting-filter consistency against
//! a reference set, and peer-vector consistency against a reference
//! multiset.
//!
//! The signature kernels walk only set bits and non-zero counters. Each
//! is checked here against the σ-wide algorithm it replaced, kept below
//! as a reference.

use std::collections::HashMap;

use grococa::signature::{
    data_positions, BloomFilter, CompressedSignature, CountingFilter, PeerVector,
};
use proptest::prelude::*;

fn arb_r() -> impl Strategy<Value = u32> {
    (1u32..=10).prop_map(|l| (1u32 << l) - 1)
}

/// Bit patterns of 1..3,000 bits at densities from empty to full, so
/// zero runs both shorter and far longer than any R occur.
fn arb_bits() -> impl Strategy<Value = Vec<bool>> {
    (
        proptest::collection::vec(0u32..1_000, 1..3_000),
        prop_oneof![Just(0u32), 0u32..20, 0u32..1_001],
    )
        .prop_map(|(draws, per_mille)| draws.into_iter().map(|d| d < per_mille).collect())
}

/// Reference: the cache signature as a σ-scan of the counters.
fn scan_signature(counters: &[u16], k: u32) -> BloomFilter {
    let bits: Vec<bool> = counters.iter().map(|&c| c > 0).collect();
    BloomFilter::from_bits(counters.len() as u32, k, &bits)
}

/// Reference: the VLFL encoder visiting every one of the σ bits.
fn reference_codewords(filter: &BloomFilter, r: u32) -> Vec<u32> {
    let mut codewords = Vec::new();
    let mut run = 0u32;
    for bit in filter.bits() {
        if bit {
            codewords.push(run);
            run = 0;
        } else {
            run += 1;
            if run == r {
                codewords.push(r);
                run = 0;
            }
        }
    }
    if run > 0 {
        codewords.push(run);
    }
    codewords
}

/// Reference: folding a signature into counters one bit at a time.
fn reference_fold(counters: &mut [u32], sig: &BloomFilter) {
    for (c, bit) in counters.iter_mut().zip(sig.bits()) {
        *c += u32::from(bit);
    }
}

/// A counter vector as σ values; an empty one is all zero.
fn dense(counters: &[u32], sigma: u32) -> Vec<u32> {
    if counters.is_empty() {
        vec![0; sigma as usize]
    } else {
        counters.to_vec()
    }
}

/// Reference: the non-zero entries of a dense counter vector.
fn scan_nonzero<T: Copy + Default + PartialEq>(counters: &[T]) -> Vec<(u32, T)> {
    (0u32..)
        .zip(counters.iter().copied())
        .filter(|&(_, c)| c != T::default())
        .collect()
}

proptest! {
    /// Compress → decompress is the identity for every bit pattern and
    /// every legal run-length bound, including patterns ending in long
    /// zero tails.
    #[test]
    fn vlfl_round_trips(bits in proptest::collection::vec(any::<bool>(), 1..600), r in arb_r()) {
        let sigma = bits.len() as u32;
        let filter = BloomFilter::from_bits(sigma, 1, &bits);
        let compressed = CompressedSignature::encode(&filter, r);
        prop_assert_eq!(compressed.decode().unwrap(), filter);
    }

    /// The compressed wire size is codewords × log2(R+1) bits, and for the
    /// all-zero signature it is minimal: ⌈σ/R⌉ codewords.
    #[test]
    fn vlfl_all_zero_size(sigma in 1u32..2_000, r in arb_r()) {
        let filter = BloomFilter::new(sigma, 1);
        let compressed = CompressedSignature::encode(&filter, r);
        let expected_words = sigma.div_ceil(r);
        prop_assert_eq!(compressed.codeword_count() as u32, expected_words);
    }

    /// A bloom filter never produces false negatives for inserted keys.
    #[test]
    fn bloom_has_no_false_negatives(
        keys in proptest::collection::hash_set(any::<u64>(), 0..200),
        sigma in 64u32..4_096,
        k in 1u32..6,
    ) {
        let mut filter = BloomFilter::new(sigma, k);
        for &key in &keys {
            filter.insert(key);
        }
        for &key in &keys {
            prop_assert!(filter.contains(key));
        }
    }

    /// Superimposition equals inserting the union of key sets.
    #[test]
    fn superimpose_is_union(
        a in proptest::collection::hash_set(any::<u64>(), 0..50),
        b in proptest::collection::hash_set(any::<u64>(), 0..50),
    ) {
        let mut fa = BloomFilter::new(512, 2);
        let mut fb = BloomFilter::new(512, 2);
        for &key in &a { fa.insert(key); }
        for &key in &b { fb.insert(key); }
        fa.superimpose(&fb);
        let mut union = BloomFilter::new(512, 2);
        for &key in a.union(&b) { union.insert(key); }
        prop_assert_eq!(fa, union);
    }

    /// With wide-enough counters, a counting filter tracks an arbitrary
    /// insert/remove interleaving exactly: its bloom equals the filter of
    /// the surviving multiset.
    #[test]
    fn counting_filter_matches_reference(ops in proptest::collection::vec((any::<bool>(), 0u64..40), 0..200)) {
        let mut cf = CountingFilter::new(256, 2, 16);
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for (insert, key) in ops {
            if insert {
                cf.insert(key);
                *counts.entry(key).or_insert(0) += 1;
            } else if counts.get(&key).copied().unwrap_or(0) > 0 {
                prop_assert!(cf.remove(key).is_ok());
                *counts.get_mut(&key).unwrap() -= 1;
            }
        }
        let mut reference = BloomFilter::new(256, 2);
        for (&key, &c) in &counts {
            if c > 0 {
                reference.insert(key);
            }
        }
        prop_assert_eq!(cf.to_bloom(), reference);
    }

    /// A peer vector fed whole signatures equals one fed the equivalent
    /// per-position update lists, and its width always matches the
    /// maximum counter value.
    #[test]
    fn peer_vector_matches_reference(sig_keys in proptest::collection::vec(
        proptest::collection::hash_set(0u64..60, 0..20), 0..6)
    ) {
        let mut pv = PeerVector::new(300, 2);
        let mut reference: Vec<u32> = vec![0; 300];
        for keys in &sig_keys {
            let mut sig = BloomFilter::new(300, 2);
            for &key in keys {
                sig.insert(key);
            }
            pv.add_signature(&sig);
            for (i, bit) in sig.bits().enumerate() {
                if bit {
                    reference[i] += 1;
                }
            }
        }
        for (i, &c) in reference.iter().enumerate() {
            prop_assert_eq!(pv.bit(i as u32), c > 0);
        }
        let max = reference.iter().max().copied().unwrap_or(0);
        prop_assert_eq!(pv.width_bits(), 32 - max.leading_zeros());
    }

    /// Evicting below zero is silently discarded (conservative filter:
    /// never a false negative introduced by stale updates).
    #[test]
    fn peer_vector_never_underflows(evictions in proptest::collection::vec(0u32..300, 0..100)) {
        let mut pv = PeerVector::new(300, 2);
        let mut sig = BloomFilter::new(300, 2);
        sig.insert(1);
        pv.add_signature(&sig);
        pv.apply_update(&[], &evictions);
        // Width can shrink to zero but bits never wrap around.
        for i in 0..300 {
            let _ = pv.bit(i);
        }
        prop_assert!(pv.width_bits() <= 1);
    }

    /// The set-position iterator yields exactly the positions `bits()`
    /// reports set, and the backing words rebuild the same filter.
    #[test]
    fn ones_are_the_set_bits(bits in arb_bits(), k in 1u32..4) {
        let filter = BloomFilter::from_bits(bits.len() as u32, k, &bits);
        let ones: Vec<u32> = filter.ones().collect();
        let set: Vec<u32> = (0u32..).zip(&bits).filter(|&(_, &b)| b).map(|(i, _)| i).collect();
        prop_assert_eq!(ones, set);
        let words = filter.words().to_vec();
        prop_assert_eq!(BloomFilter::from_words(filter.sigma(), k, words), Some(filter));
    }

    /// The set-position VLFL encoder emits the same codewords as the
    /// bit-by-bit reference, and its output decodes to the same filter.
    #[test]
    fn vlfl_encode_matches_bitwise_reference(bits in arb_bits(), r in arb_r()) {
        let filter = BloomFilter::from_bits(bits.len() as u32, 2, &bits);
        let compressed = CompressedSignature::encode(&filter, r);
        prop_assert_eq!(compressed.codewords(), &reference_codewords(&filter, r)[..]);
        prop_assert_eq!(compressed.decode().unwrap(), filter);
    }

    /// Under random inserts and removes with narrow counters (so they
    /// saturate, underflow and force a rebuild), explicit rebuilds and
    /// checkpoint round trips, the kept cache signature always equals a
    /// σ-scan of the counters, and the non-zero counters are exactly
    /// the scan's.
    #[test]
    fn counting_filter_signature_tracks_counters(
        ops in proptest::collection::vec((0u8..8, 0u64..24), 0..300),
        sigma in 16u32..300,
        k in 1u32..4,
        pi_c in 1u32..4,
    ) {
        let mut cf = CountingFilter::new(sigma, k, pi_c);
        let mut cached: HashMap<u64, u32> = HashMap::new();
        let contents = |cached: &HashMap<u64, u32>| -> Vec<u64> {
            cached.iter().flat_map(|(&key, &n)| std::iter::repeat_n(key, n as usize)).collect()
        };
        for (op, key) in ops {
            match op {
                0..=3 => {
                    cf.insert(key);
                    *cached.entry(key).or_insert(0) += 1;
                }
                4..=5 => {
                    if cached.get(&key).copied().unwrap_or(0) > 0 {
                        *cached.get_mut(&key).unwrap() -= 1;
                        if cf.remove(key).is_err() {
                            cf.rebuild(contents(&cached));
                        }
                    }
                }
                6 => cf.rebuild(contents(&cached)),
                _ => {
                    // Restore into a filter holding unrelated state.
                    let saved: Vec<(u32, u16)> = cf.nonzero_counters().collect();
                    let mut restored = CountingFilter::new(sigma, k, pi_c);
                    restored.insert(key);
                    restored.restore_counters(&saved);
                    prop_assert_eq!(&restored, &cf);
                    cf = restored;
                }
            }
            prop_assert_eq!(cf.to_bloom(), scan_signature(cf.counters(), k));
            prop_assert_eq!(cf.nonzero_counters().collect::<Vec<_>>(), scan_nonzero(cf.counters()));
        }
    }

    /// Folding whole signatures, piggybacked updates and resets into a
    /// peer vector gives the counters of a per-bit reference fold; its
    /// peer signature is the σ-scan of those counters, and a checkpoint
    /// round trip restores the same counters and width.
    #[test]
    fn peer_vector_matches_per_bit_fold(
        ops in proptest::collection::vec(
            (0u8..7, proptest::collection::hash_set(0u64..80, 0..30)), 0..12),
        sigma in 16u32..400,
    ) {
        let mut pv = PeerVector::new(sigma, 2);
        let mut reference = vec![0u32; sigma as usize];
        for (op, keys) in ops {
            let mut sig = BloomFilter::new(sigma, 2);
            for &key in &keys {
                sig.insert(key);
            }
            let positions: Vec<u32> = sig.ones().collect();
            match op {
                0..=2 => {
                    pv.add_signature(&sig);
                    reference_fold(&mut reference, &sig);
                }
                3 => {
                    pv.apply_update(&positions, &[]);
                    reference_fold(&mut reference, &sig);
                }
                4 => {
                    pv.apply_update(&[], &positions);
                    for p in positions {
                        let c = &mut reference[p as usize];
                        *c = c.saturating_sub(1);
                    }
                }
                _ => {
                    pv.reset();
                    reference.fill(0);
                }
            }
            prop_assert_eq!(dense(pv.counters(), sigma), reference.clone());
            let bits: Vec<bool> = reference.iter().map(|&c| c > 0).collect();
            prop_assert_eq!(pv.to_bloom(), BloomFilter::from_bits(sigma, 2, &bits));
            let saved: Vec<(u32, u32)> = pv.nonzero_counters().collect();
            prop_assert_eq!(&saved, &scan_nonzero(&reference));
            let mut restored = PeerVector::new(sigma, 2);
            restored.add_signature(&sig);
            restored.restore_counters(&saved);
            prop_assert_eq!(dense(restored.counters(), sigma), reference.clone());
            prop_assert_eq!(restored.width_bits(), pv.width_bits());
            prop_assert_eq!(restored.to_bloom(), pv.to_bloom());
        }
    }

    /// Data positions are deterministic, in range, and have exactly k
    /// entries.
    #[test]
    fn data_positions_well_formed(key in any::<u64>(), sigma in 1u32..10_000, k in 1u32..8) {
        let p = data_positions(key, sigma, k);
        prop_assert_eq!(p.len(), k as usize);
        prop_assert!(p.iter().all(|&x| x < sigma));
        prop_assert_eq!(p, data_positions(key, sigma, k));
    }
}
