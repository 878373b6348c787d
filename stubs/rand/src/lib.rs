//! Offline stub of rand 0.9 with a ChaCha12-based StdRng.
//!
//! API-compatible with the subset this workspace uses: `rngs::StdRng`,
//! `SeedableRng::{from_seed, seed_from_u64}`, `RngCore`, and
//! `Rng::{random, random_range, random_bool}`.
//!
//! `StdRng` buffers eight ChaCha12 blocks (128 words) per refill, at
//! block counters `c … c+7`, so its word stream is the one a
//! block-at-a-time generator makes. The refill runs an AVX2 kernel when
//! the CPU reports AVX2 at run time, and the scalar block function
//! otherwise; the `chacha` module holds both, the scalar one doubling as
//! the kernel's test reference.

#[doc(hidden)]
pub mod chacha;

pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
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

pub trait SeedableRng: Sized {
    type Seed: AsMut<[u8]> + Default;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(mut state: u64) -> Self {
        // SplitMix64, as rand_core does.
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Types samplable via [`Rng::random`].
pub trait StandardSample {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

/// Ranges samplable via [`Rng::random_range`].
pub trait RangeSample {
    type Output;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! int_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for std::ops::Range<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                // Unbiased via rejection sampling.
                let zone = u64::MAX - (u64::MAX % span);
                loop {
                    let v = rng.next_u64();
                    if v < zone {
                        return self.start + (v % span) as $t;
                    }
                }
            }
        }
        impl RangeSample for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                if start == <$t>::MIN && end == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = (end - start) as u64 + 1;
                let zone = u64::MAX - (u64::MAX % span);
                loop {
                    let v = rng.next_u64();
                    if v < zone {
                        return start + (v % span) as $t;
                    }
                }
            }
        }
    )*};
}

int_range_sample!(u8, u16, u32, u64, usize, i32, i64);

impl RangeSample for std::ops::Range<f64> {
    type Output = f64;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

pub trait Rng: RngCore {
    fn random<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    fn random_range<S: RangeSample>(&mut self, range: S) -> S::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore> Rng for R {}

pub mod rngs {
    use super::chacha::{self, BLOCKS, BUF_WORDS};
    use super::{RngCore, SeedableRng};

    /// ChaCha12-based deterministic RNG (same core as rand 0.9's StdRng).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        key: [u32; 8],
        /// Counter of the first block the next refill makes.
        counter: u64,
        buffer: [u32; BUF_WORDS],
        index: usize,
    }

    impl StdRng {
        fn refill(&mut self) {
            chacha::blocks(&self.key, self.counter, &mut self.buffer);
            self.counter = self.counter.wrapping_add(BLOCKS as u64);
            self.index = 0;
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut key = [0u32; 8];
            for (i, chunk) in seed.chunks(4).enumerate() {
                key[i] = u32::from_le_bytes(chunk.try_into().unwrap());
            }
            // The first read refills.
            StdRng {
                key,
                counter: 0,
                buffer: [0; BUF_WORDS],
                index: BUF_WORDS,
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            if self.index >= BUF_WORDS {
                self.refill();
            }
            let v = self.buffer[self.index];
            self.index += 1;
            v
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            let lo = self.next_u32() as u64;
            let hi = self.next_u32() as u64;
            lo | (hi << 32)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(4) {
                let bytes = self.next_u32().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&bytes[..n]);
            }
        }
    }
}
