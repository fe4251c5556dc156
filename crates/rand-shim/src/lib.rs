//! A minimal, dependency-free stand-in for the `rand` crate.
//!
//! The build environment for this reproduction has no access to a
//! package registry, so the workspace vendors the thin slice of the
//! `rand 0.8` API it actually uses: [`Rng::gen`], [`Rng::gen_range`],
//! [`SeedableRng::seed_from_u64`] and [`rngs::StdRng`]. The generator
//! is xoshiro256++ seeded through SplitMix64 — deterministic across
//! platforms, which the test suite and Monte Carlo studies rely on.
//! Nothing here is cryptographically secure; the RLWE samplers in this
//! repo are reproduction artifacts, not production key generators.

use std::ops::{Range, RangeInclusive};

/// Low-level entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Seedable generators (only the `u64` entry point is provided).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly over their whole domain via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value inside the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

impl_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + (rng.next_u64() % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                // `end - start` as a u64; the full 64-bit span keeps the
                // raw draw, every other span reduces it with a u64 `%`
                // (the same value a u128 `% (span + 1)` gives).
                let span = (end as i128 - start as i128) as u64;
                let draw = rng.next_u64();
                let offset = if span == u64::MAX { draw } else { draw % (span + 1) };
                (start as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_range_int!(i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let u = f64::sample(rng);
        let v = self.start + u * (self.end - self.start);
        // Guard the half-open contract against rounding at the top end.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// The user-facing random-value interface.
pub trait Rng: RngCore {
    /// Draws a uniform value over the type's whole domain.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a uniform value from a range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Draws `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stand-in for rand's
    /// `StdRng`; same API, different — but stable — stream).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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
}

/// A generator seeded from the system clock (stand-in for
/// `rand::thread_rng`; not thread-local, just fresh).
pub fn thread_rng() -> rngs::StdRng {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED);
    rngs::StdRng::seed_from_u64(nanos)
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn seeds_produce_distinct_streams() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y: i64 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&y));
            let f: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!(f > 0.0 && f < 1.0);
        }
    }

    #[test]
    fn signed_inclusive_range_matches_u128_formula() {
        // The u128 reduction the u64 path replaced, on the same stream.
        fn reference(start: i64, end: i64, draw: u64) -> i64 {
            let span = (end as i128 - start as i128) as u64 as u128 + 1;
            (start as i128 + (draw as u128 % span) as i128) as i64
        }
        let ranges = [
            (i64::MIN, i64::MAX),
            (i64::MIN, i64::MAX - 1),
            (i64::MIN + 1, i64::MAX),
            (i64::MIN, 0),
            (-1, i64::MAX),
            (-5775, 5775),
            (-369_623, 369_623),
            (-3, 3),
            (7, 7),
            (i64::MIN, i64::MIN),
        ];
        for (start, end) in ranges {
            let mut rng = StdRng::seed_from_u64(11);
            let mut raw = StdRng::seed_from_u64(11);
            for _ in 0..2000 {
                let got: i64 = rng.gen_range(start..=end);
                assert_eq!(
                    got,
                    reference(start, end, raw.gen::<u64>()),
                    "{start}..={end}"
                );
            }
        }
        // Narrow types: the full i8 span is an ordinary 256-value span.
        let mut rng = StdRng::seed_from_u64(5);
        let mut raw = StdRng::seed_from_u64(5);
        for _ in 0..2000 {
            let got: i8 = rng.gen_range(i8::MIN..=i8::MAX);
            let draw = raw.gen::<u64>();
            assert_eq!(got, (i8::MIN as i128 + (draw as u128 % 256) as i128) as i8);
        }
    }

    #[test]
    fn range_hits_every_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_gen_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
