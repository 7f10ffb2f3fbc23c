//! Variable-length-to-fixed-length (VLFL) run-length compression of cache
//! signatures (Section IV.D.2).
//!
//! A sparse cache signature is mostly zeros; the VLFL code decomposes the
//! bit string into run-lengths terminated either by `R = 2^l − 1`
//! consecutive zeros, or by `L < R` zeros followed by a one, and assigns
//! each run a fixed `l = log2(R+1)`-bit codeword. Algorithm 4 of the paper
//! (`FindOptimalR`) picks the `R` minimising the expected compressed size,
//! and a host compresses only when the codeword length beats the expected
//! run length.

use crate::BloomFilter;

/// Error returned when a compressed signature cannot be decoded back to the
/// advertised geometry (corrupt codeword stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeSignatureError;

impl std::fmt::Display for DecodeSignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VLFL codeword stream does not decode to the declared size"
        )
    }
}

impl std::error::Error for DecodeSignatureError {}

/// A VLFL-compressed cache signature, as transmitted between peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedSignature {
    sigma: u32,
    k: u32,
    r: u32,
    codewords: Vec<u32>,
}

impl CompressedSignature {
    /// Compresses `filter` with run-length bound `R` (must be `2^l − 1`).
    ///
    /// Walks the set positions only: a gap of `g` zeros before a one is
    /// `⌊g/R⌋` full-run codewords `R`, then the terminated run `g mod R`.
    ///
    /// # Panics
    ///
    /// Panics if `r + 1` is not a power of two or `r` is zero.
    pub fn encode(filter: &BloomFilter, r: u32) -> Self {
        assert!(r > 0 && (r + 1).is_power_of_two(), "R must be 2^l - 1");
        let mut codewords = Vec::new();
        let mut next = 0u32; // first position no codeword covers yet
        for pos in filter.ones() {
            let gap = pos - next;
            codewords.extend(std::iter::repeat_n(r, (gap / r) as usize));
            codewords.push(gap % r);
            next = pos + 1;
        }
        let tail = filter.sigma() - next;
        codewords.extend(std::iter::repeat_n(r, (tail / r) as usize));
        let rest = tail % r;
        if rest > 0 {
            // Trailing zeros shorter than R: the decoder knows the total
            // length, so the missing terminator is unambiguous.
            codewords.push(rest);
        }
        CompressedSignature {
            sigma: filter.sigma(),
            k: filter.k(),
            r,
            codewords,
        }
    }

    /// Decompresses back to the bloom filter.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeSignatureError`] if the codeword stream does not
    /// reproduce exactly σ bits.
    pub fn decode(&self) -> Result<BloomFilter, DecodeSignatureError> {
        let sigma = u64::from(self.sigma);
        let mut filter = BloomFilter::new(self.sigma, self.k);
        let mut len = 0u64; // bits decoded so far
        for &cw in &self.codewords {
            if cw > self.r || len >= sigma {
                return Err(DecodeSignatureError);
            }
            len += u64::from(cw);
            if cw < self.r && len < sigma {
                filter.set_bit(len as u32);
                len += 1;
            }
            if len > sigma {
                return Err(DecodeSignatureError);
            }
        }
        if len != sigma {
            return Err(DecodeSignatureError);
        }
        Ok(filter)
    }

    /// The run-length bound R.
    pub fn r(&self) -> u32 {
        self.r
    }

    /// Number of fixed-length codewords.
    pub fn codeword_count(&self) -> usize {
        self.codewords.len()
    }

    /// The codeword stream: each value is a run of that many zeros,
    /// followed by a one unless the value is R.
    pub fn codewords(&self) -> &[u32] {
        &self.codewords
    }

    /// Compressed payload size in bits: codewords × log2(R+1).
    pub fn wire_bits(&self) -> u64 {
        self.codewords.len() as u64 * u64::from((self.r + 1).trailing_zeros())
    }

    /// Compressed payload size in whole bytes.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bits().div_ceil(8)
    }
}

/// The probability that a signature bit is zero after `epsilon` cached items
/// hashed `k` times into `sigma` bits: `φ = (1 − 1/σ)^{εk}`.
pub fn zero_probability(epsilon: u64, sigma: u32, k: u32) -> f64 {
    (1.0 - 1.0 / sigma as f64).powf((epsilon * k as u64) as f64)
}

/// Expected intermediate-symbol (run) length `η = (1 − φ^R) / (1 − φ)`.
pub fn expected_run_length(phi: f64, r: u32) -> f64 {
    if phi >= 1.0 {
        return r as f64;
    }
    (1.0 - phi.powi(r as i32)) / (1.0 - phi)
}

/// Algorithm 4: the run-length bound `R = 2^i − 1` minimising the expected
/// compressed signature size `σ·i·(1 − φ)/(1 − φ^R)`.
///
/// `epsilon` is the cache size in items, (`sigma`, `k`) the filter geometry.
///
/// # Examples
///
/// ```
/// use grococa_signature::find_optimal_r;
///
/// let r = find_optimal_r(100, 10_000, 2);
/// assert!((r + 1).is_power_of_two());
/// ```
pub fn find_optimal_r(epsilon: u64, sigma: u32, k: u32) -> u32 {
    let phi = zero_probability(epsilon, sigma, k);
    let mut best_size = f64::INFINITY;
    let mut best_r = 1u32;
    let mut i = 1u32;
    let mut r = 1u32;
    while (i as f64) <= expected_run_length(phi, r) {
        let size = sigma as f64 * i as f64 * (1.0 - phi) / (1.0 - phi.powi(r as i32));
        if size < best_size {
            best_size = size;
            best_r = r;
        } else {
            break;
        }
        i += 1;
        if i >= 31 {
            break;
        }
        r = (1u32 << i) - 1;
    }
    best_r
}

/// The local compress-or-not decision of Section IV.D.2: returns the optimal
/// `R` when compression is expected to shrink the signature
/// (`log2(R+1) < (1 − φ^R)/(1 − φ)`), or `None` when the filter should be
/// sent raw.
pub fn compression_choice(epsilon: u64, sigma: u32, k: u32) -> Option<u32> {
    let r = find_optimal_r(epsilon, sigma, k);
    let phi = zero_probability(epsilon, sigma, k);
    let codeword_bits = f64::from((r + 1).trailing_zeros());
    if codeword_bits < expected_run_length(phi, r) {
        Some(r)
    } else {
        None
    }
}

/// Expected compressed size in bits for a given `R`:
/// `σ′ = σ · log2(R+1) / η`.
pub fn expected_compressed_bits(epsilon: u64, sigma: u32, k: u32, r: u32) -> f64 {
    let phi = zero_probability(epsilon, sigma, k);
    sigma as f64 * f64::from((r + 1).trailing_zeros()) / expected_run_length(phi, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_with(keys: &[u64], sigma: u32, k: u32) -> BloomFilter {
        let mut f = BloomFilter::new(sigma, k);
        for &key in keys {
            f.insert(key);
        }
        f
    }

    #[test]
    fn round_trip_sparse() {
        let f = filter_with(&[1, 5, 999, 12345], 2_000, 2);
        for r in [1u32, 3, 7, 15, 63, 255] {
            let c = CompressedSignature::encode(&f, r);
            assert_eq!(c.decode().unwrap(), f, "R = {r}");
        }
    }

    #[test]
    fn round_trip_trailing_zeros() {
        // A filter whose last set bit is early leaves a long zero tail.
        let mut f = BloomFilter::new(300, 1);
        f.set_bit(0);
        f.set_bit(2);
        let c = CompressedSignature::encode(&f, 7);
        assert_eq!(c.decode().unwrap(), f);
    }

    #[test]
    fn round_trip_all_ones_and_all_zeros() {
        let mut ones = BloomFilter::new(70, 1);
        for i in 0..70 {
            ones.set_bit(i);
        }
        let zeros = BloomFilter::new(70, 1);
        for f in [ones, zeros] {
            let c = CompressedSignature::encode(&f, 3);
            assert_eq!(c.decode().unwrap(), f);
        }
    }

    #[test]
    fn sparse_signature_compresses() {
        // 100-item cache in a 10k-bit filter — the paper's sparse regime.
        let keys: Vec<u64> = (0..100).collect();
        let f = filter_with(&keys, 10_000, 2);
        let r = find_optimal_r(100, 10_000, 2);
        let c = CompressedSignature::encode(&f, r);
        assert!(
            c.wire_bits() < 10_000 / 2,
            "expected >2x compression, got {} bits",
            c.wire_bits()
        );
    }

    #[test]
    fn dense_signature_should_not_compress() {
        // A filter as large as the cache is dense: compression must decline.
        assert_eq!(compression_choice(100, 150, 2), None);
        // And the sparse regime must accept.
        assert!(compression_choice(100, 10_000, 2).is_some());
    }

    #[test]
    fn optimal_r_tracks_sparsity() {
        // Sparser signatures (larger σ per item) → longer zero runs → larger R.
        let r_sparse = find_optimal_r(10, 100_000, 2);
        let r_dense = find_optimal_r(1_000, 4_000, 2);
        assert!(r_sparse > r_dense, "{r_sparse} vs {r_dense}");
    }

    #[test]
    fn expected_size_formula_close_to_actual() {
        let keys: Vec<u64> = (0..200).collect();
        let f = filter_with(&keys, 20_000, 2);
        let r = find_optimal_r(200, 20_000, 2);
        let c = CompressedSignature::encode(&f, r);
        let expected = expected_compressed_bits(200, 20_000, 2, r);
        let actual = c.wire_bits() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.2,
            "expected ≈{expected}, got {actual}"
        );
    }

    #[test]
    fn decode_rejects_corrupt_streams() {
        let f = filter_with(&[1, 2, 3], 500, 2);
        let mut c = CompressedSignature::encode(&f, 7);
        c.codewords.push(7); // extra run overflows σ
        assert_eq!(c.decode(), Err(DecodeSignatureError));
        let c2 = CompressedSignature {
            sigma: 500,
            k: 2,
            r: 7,
            codewords: vec![3],
        };
        assert_eq!(c2.decode(), Err(DecodeSignatureError));
    }

    #[test]
    #[should_panic(expected = "R must be")]
    fn encode_rejects_bad_r() {
        let f = BloomFilter::new(10, 1);
        CompressedSignature::encode(&f, 6);
    }

    #[test]
    fn wire_bits_counts_codewords() {
        let f = filter_with(&[9], 64, 1);
        let c = CompressedSignature::encode(&f, 7); // 3-bit codewords
        assert_eq!(c.wire_bits(), c.codeword_count() as u64 * 3);
        assert_eq!(c.wire_bytes(), c.wire_bits().div_ceil(8));
    }
}
