//! Offline stand-in for the `rand` crate (0.9 API names).
//!
//! One deterministic generator: [`rngs::StdRng`] is xoshiro256** seeded
//! through splitmix64. The
//! streams differ from the real crate's ChaCha12, so absolute numbers of
//! seeded simulations differ from a networked build; they repeat exactly
//! from run to run, which is what the repository's tests and this
//! benchmark rely on.

/// The core of a random number generator.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let b = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&b[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Distributions.
pub mod distr {
    use super::RngCore;

    /// Something that can produce values of `T` from random bits.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The default distribution: full range for integers, `[0, 1)` for
    /// floats, fair for `bool`.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct StandardUniform;

    macro_rules! standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for StandardUniform {
                fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<bool> for StandardUniform {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    impl Distribution<f64> for StandardUniform {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 random mantissa bits: uniform on [0, 1).
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for StandardUniform {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    /// A type [`crate::Rng::random_range`] can draw uniformly.
    pub trait SampleUniform: Sized + PartialOrd {
        /// Uniform over `[lo, hi)`, or `[lo, hi]` when `inclusive`.
        /// The caller has checked that the range is not empty.
        fn sample_between<R: RngCore + ?Sized>(
            lo: Self,
            hi: Self,
            inclusive: bool,
            rng: &mut R,
        ) -> Self;
    }

    /// A range that [`crate::Rng::random_range`] can sample from.
    pub trait SampleRange<T> {
        /// Draws one value from the range. Panics when it is empty.
        fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
    }

    // One generic impl per range shape (as in the real crate), so that
    // `x + rng.random_range(0..4096)` infers the literal's type from `x`.
    impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
        fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
            assert!(self.start < self.end, "cannot sample empty range");
            T::sample_between(self.start, self.end, false, rng)
        }
    }

    impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
        fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
            assert!(self.start() <= self.end(), "cannot sample empty range");
            let (lo, hi) = self.into_inner();
            T::sample_between(lo, hi, true, rng)
        }
    }

    /// Uniform `u64` below `n` (`n > 0`) by widening multiply with
    /// rejection, so every value is exactly equally likely.
    pub(crate) fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
        let zone = n.wrapping_neg() % n; // 2^64 mod n
        loop {
            let wide = rng.next_u64() as u128 * n as u128;
            if (wide as u64) >= zone {
                return (wide >> 64) as u64;
            }
        }
    }

    macro_rules! uniform_int {
        ($($t:ty => $wide:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_between<R: RngCore + ?Sized>(
                    lo: $t,
                    hi: $t,
                    inclusive: bool,
                    rng: &mut R,
                ) -> $t {
                    let span = ((hi as $wide).wrapping_sub(lo as $wide) as u64)
                        .wrapping_add(inclusive as u64);
                    // A span of 0 here means the whole 64-bit domain.
                    let off = if span == 0 { rng.next_u64() } else { below(rng, span) };
                    (lo as $wide).wrapping_add(off as $wide) as $t
                }
            }
        )*};
    }
    uniform_int!(
        u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
        i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
    );

    macro_rules! uniform_float {
        ($($t:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_between<R: RngCore + ?Sized>(
                    lo: $t,
                    hi: $t,
                    inclusive: bool,
                    rng: &mut R,
                ) -> $t {
                    let u: $t = StandardUniform.sample(rng);
                    let v = lo + (hi - lo) * u;
                    // Rounding may land on an excluded upper bound.
                    if inclusive || v < hi { v } else { lo }
                }
            }
        )*};
    }
    uniform_float!(f32, f64);
}

use distr::{Distribution, SampleRange, StandardUniform};

/// Convenience sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the [`StandardUniform`] distribution.
    fn random<T>(&mut self) -> T
    where
        StandardUniform: Distribution<T>,
    {
        StandardUniform.sample(self)
    }

    /// A value uniform over `range`. Panics when the range is empty.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// The seed type, a byte array.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanded with splitmix64.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let b = splitmix64(&mut state).to_le_bytes();
            chunk.copy_from_slice(&b[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256**: the stand-in for the standard seeded generator.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (w, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s == [0; 4] {
                // The all-zero state is a fixed point of xoshiro.
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::distr::below;
    use super::RngCore;

    /// In-place shuffling.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, below(rng, i as u64 + 1) as usize);
            }
        }
    }
}
