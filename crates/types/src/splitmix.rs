//! splitmix64: the one seeded mixer and stream every crate draws from
//! where a schedule or a figure must be a pure function of a seed.
//!
//! Three pieces, each in its standard form (Steele, Lea and Flood,
//! "Fast splittable pseudorandom number generators"):
//!
//! - [`finalize`] — the full-avalanche 64-bit finalizer;
//! - [`mix`] — one generator step from state `x` as a stateless hash,
//!   `finalize(x + γ)`;
//! - [`SplitMix64`] — the sequential stream (`state += γ`, emit
//!   `finalize(state)`).
//!
//! [`unit()`] maps any of their outputs to `[0, 1)` with 53 bits of
//! precision.

/// The stream's increment γ: the odd integer nearest 2^64 / φ.
pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a bijective, full-avalanche 64-bit mix.
#[inline]
pub fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One splitmix64 step from state `x`, as a stateless hash of `x`.
#[inline]
pub fn mix(x: u64) -> u64 {
    finalize(x.wrapping_add(GAMMA))
}

/// Maps a 64-bit hash to a uniform float in `[0, 1)` (its top 53 bits).
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The splitmix64 sequential generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose first output is `mix(state)`.
    pub fn new(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        finalize(self.state)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// Uniform integer in `[lo, hi)`; `hi` must exceed `lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(hi > lo);
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform choice of an index in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range(0, n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_the_reference_outputs() {
        // The reference implementation's first outputs from state 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(mix(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn draws_stay_in_bounds() {
        assert_eq!(unit(0), 0.0);
        assert!(unit(u64::MAX) < 1.0);
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            assert!((10..20).contains(&rng.range(10, 20)));
            assert!((0.0..1.0).contains(&rng.unit()));
        }
    }
}
