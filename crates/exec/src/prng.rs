//! A small, seedable, copyable PRNG (splitmix64 seeding into
//! xorshift64*), good enough for randomized property tests and
//! synthetic workload generation, and the FNV-1a-128 digest the
//! caches key on. Not cryptographic.

/// One round of splitmix64: a bijective scramble of `x` with good
/// avalanche behaviour. The workhorse for deriving independent
/// per-stream seeds from a (seed, index) pair — e.g. the fuzzer's
/// per-case seeds, which must not depend on scheduling.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a-128, streaming: two FNV-1a-64 streams over the same bytes,
/// one from the standard offset basis and one from that basis
/// perturbed with the golden-ratio constant so the halves decorrelate.
/// A collision needs both 64-bit halves to collide at once. The serve
/// result cache's keys and entry checksums and the minimization memo's
/// keys are built with it. Not cryptographic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a128 {
    lo: u64,
    hi: u64,
}

impl Default for Fnv1a128 {
    #[inline]
    fn default() -> Self {
        let lo = 0xcbf2_9ce4_8422_2325;
        Fnv1a128 {
            lo,
            hi: lo ^ 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl Fnv1a128 {
    /// Feeds `bytes` into both streams.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        const PRIME: u64 = 0x100_0000_01b3;
        for &b in bytes {
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(PRIME);
            self.hi = (self.hi ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// The digest: the low stream's little-endian bytes, then the high
    /// stream's.
    #[inline]
    pub fn finish(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.lo.to_le_bytes());
        out[8..].copy_from_slice(&self.hi.to_le_bytes());
        out
    }
}

/// Deterministic pseudo-random number generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Creates a generator from a seed. Any seed (including 0) is
    /// valid: seeds are scrambled through splitmix64 first.
    pub fn new(seed: u64) -> Self {
        // One splitmix64 round guarantees a non-zero xorshift state.
        Prng {
            state: splitmix64(seed) | 1, // never zero
        }
    }

    /// A generator for stream `index` of master seed `seed`: two
    /// chained splitmix64 rounds decorrelate neighbouring indices, so
    /// `for_stream(s, 0)` and `for_stream(s, 1)` are statistically
    /// independent while remaining pure functions of their arguments.
    pub fn for_stream(seed: u64, index: u64) -> Self {
        Prng::new(splitmix64(seed) ^ splitmix64(index.wrapping_mul(0xa076_1d64_78bd_642f)))
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64* (Vigna).
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_range bound must be positive");
        // Rejection-free multiply-shift; the bias is < 2^-32 for the
        // small bounds used in tests.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform value in `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn next_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_range(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: true with probability `1/n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn one_in(&mut self, n: u64) -> bool {
        self.next_range(n) == 0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a128_streams_and_keeps_the_fnv1a64_low_half() {
        let whole = Fnv1a128::default().write(b"address").finish();
        let parts = Fnv1a128::default().write(b"addr").write(b"ess").finish();
        assert_eq!(whole, parts);
        // The low half is plain FNV-1a-64 ("a" is a published vector).
        let a = Fnv1a128::default().write(b"a").finish();
        assert_eq!(a[..8], 0xaf63_dc4c_8601_ec8c_u64.to_le_bytes());
        assert_ne!(a[..8], a[8..]);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        let mut c = Prng::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Prng::new(7);
        for _ in 0..1000 {
            assert!(r.next_range(10) < 10);
            let v = r.next_in(5, 8);
            assert!((5..8).contains(&v));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = {
            let mut r = Prng::for_stream(1, 7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Prng::for_stream(1, 7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Prng::for_stream(1, 8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Prng::for_stream(2, 7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn splitmix_scrambles() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = Prng::new(0);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Prng::new(99);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn rough_uniformity() {
        let mut r = Prng::new(1234);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[r.next_range(8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "bucket {b} far from uniform");
        }
    }
}
