//! The ChaCha12 block function behind [`StdRng`](crate::rngs::StdRng).
//!
//! [`block`] is the scalar reference: one 16-word block of a key at a
//! 64-bit block counter (state words 12–13; the nonce words 14–15 are
//! zero). [`blocks`] fills a whole refill — [`BLOCKS`] consecutive
//! counters, in order — with the kernel the host supports: on x86_64 an
//! AVX2 kernel that runs the eight blocks in the eight lanes of each
//! vector, when the CPU reports AVX2 at run time; the scalar reference
//! eight times everywhere else. Both produce the same words.

/// Words in one ChaCha block.
pub const BLOCK_WORDS: usize = 16;
/// Blocks per refill.
pub const BLOCKS: usize = 8;
/// Words per refill.
pub const BUF_WORDS: usize = BLOCK_WORDS * BLOCKS;

/// "expand 32-byte k".
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// The ChaCha12 block of `key` at block `counter`.
pub fn block(key: &[u32; 8], counter: u64) -> [u32; BLOCK_WORDS] {
    let mut state = [0u32; BLOCK_WORDS];
    state[..4].copy_from_slice(&SIGMA);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    let mut working = state;
    for _ in 0..6 {
        // 6 double-rounds = 12 rounds.
        quarter(&mut working, 0, 4, 8, 12);
        quarter(&mut working, 1, 5, 9, 13);
        quarter(&mut working, 2, 6, 10, 14);
        quarter(&mut working, 3, 7, 11, 15);
        quarter(&mut working, 0, 5, 10, 15);
        quarter(&mut working, 1, 6, 11, 12);
        quarter(&mut working, 2, 7, 8, 13);
        quarter(&mut working, 3, 4, 9, 14);
    }
    for (w, s) in working.iter_mut().zip(state) {
        *w = w.wrapping_add(s);
    }
    working
}

fn quarter(s: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// Blocks `counter`, `counter + 1`, … `counter + 7` (wrapping) of `key`,
/// in order, into `out`.
pub fn blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, the only target feature
        // the kernel enables.
        unsafe { avx2::blocks(key, counter, out) };
        return;
    }
    for (i, words) in out.chunks_exact_mut(BLOCK_WORDS).enumerate() {
        words.copy_from_slice(&block(key, counter.wrapping_add(i as u64)));
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{BLOCKS, BLOCK_WORDS, BUF_WORDS, SIGMA};
    use std::arch::x86_64::*;

    /// `v <<< n` in every 32-bit lane, for the two rotations that are
    /// not whole bytes.
    macro_rules! rotl {
        ($v:expr, $n:literal) => {
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>($v),
                _mm256_srli_epi32::<{ 32 - $n }>($v),
            )
        };
    }

    /// One quarter round over the state words `a b c d` of all eight
    /// blocks; the byte-sized rotations are byte shuffles.
    macro_rules! quarter {
        ($x:ident, $r16:ident, $r8:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
            $x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256($x[$d], $x[$a]), $r16);
            $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
            $x[$b] = rotl!(_mm256_xor_si256($x[$b], $x[$c]), 12);
            $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
            $x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256($x[$d], $x[$a]), $r8);
            $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
            $x[$b] = rotl!(_mm256_xor_si256($x[$b], $x[$c]), 7);
        };
    }

    /// Eight blocks at once: vector `i` holds state word `i`, lane `j`
    /// belongs to block `counter + j`. Two 8×8 transposes turn the
    /// lanes back into consecutive blocks.
    #[target_feature(enable = "avx2")]
    pub(super) fn blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        let (mut lo, mut hi) = ([0i32; BLOCKS], [0i32; BLOCKS]);
        for j in 0..BLOCKS {
            let c = counter.wrapping_add(j as u64);
            (lo[j], hi[j]) = (c as i32, (c >> 32) as i32);
        }
        let word = |w: u32| _mm256_set1_epi32(w as i32);
        let init: [__m256i; BLOCK_WORDS] = [
            word(SIGMA[0]),
            word(SIGMA[1]),
            word(SIGMA[2]),
            word(SIGMA[3]),
            word(key[0]),
            word(key[1]),
            word(key[2]),
            word(key[3]),
            word(key[4]),
            word(key[5]),
            word(key[6]),
            word(key[7]),
            _mm256_setr_epi32(lo[0], lo[1], lo[2], lo[3], lo[4], lo[5], lo[6], lo[7]),
            _mm256_setr_epi32(hi[0], hi[1], hi[2], hi[3], hi[4], hi[5], hi[6], hi[7]),
            _mm256_setzero_si256(),
            _mm256_setzero_si256(),
        ];
        #[rustfmt::skip]
        let r16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        #[rustfmt::skip]
        let r8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );
        let mut x = init;
        for _ in 0..6 {
            quarter!(x, r16, r8, 0, 4, 8, 12);
            quarter!(x, r16, r8, 1, 5, 9, 13);
            quarter!(x, r16, r8, 2, 6, 10, 14);
            quarter!(x, r16, r8, 3, 7, 11, 15);
            quarter!(x, r16, r8, 0, 5, 10, 15);
            quarter!(x, r16, r8, 1, 6, 11, 12);
            quarter!(x, r16, r8, 2, 7, 8, 13);
            quarter!(x, r16, r8, 3, 4, 9, 14);
        }
        for (w, s) in x.iter_mut().zip(init) {
            *w = _mm256_add_epi32(*w, s);
        }
        let front = transpose(&x[..8]);
        let back = transpose(&x[8..]);
        for (j, (f, b)) in front.into_iter().zip(back).enumerate() {
            let words = &mut out[j * BLOCK_WORDS..(j + 1) * BLOCK_WORDS];
            // SAFETY: `words` is 16 `u32`s, so the unaligned 8-word stores
            // at offsets 0 and 8 both stay inside it.
            unsafe {
                _mm256_storeu_si256(words.as_mut_ptr().cast(), f);
                _mm256_storeu_si256(words.as_mut_ptr().add(8).cast(), b);
            }
        }
    }

    /// Row `j` of the result holds lane `j` of `rows[0..8]`.
    #[target_feature(enable = "avx2")]
    fn transpose(rows: &[__m256i]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(rows[0], rows[1]);
        let t1 = _mm256_unpackhi_epi32(rows[0], rows[1]);
        let t2 = _mm256_unpacklo_epi32(rows[2], rows[3]);
        let t3 = _mm256_unpackhi_epi32(rows[2], rows[3]);
        let t4 = _mm256_unpacklo_epi32(rows[4], rows[5]);
        let t5 = _mm256_unpackhi_epi32(rows[4], rows[5]);
        let t6 = _mm256_unpacklo_epi32(rows[6], rows[7]);
        let t7 = _mm256_unpackhi_epi32(rows[6], rows[7]);
        // u_k holds lane k (front half) and lane k + 4 (back half) of
        // four rows each.
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }
}
