//! The `StdRng` word stream pinned to something other than itself.
//!
//! Every seeded key, population, tick draw and traffic plan reads this
//! stream, so its bytes must not move when the keystream is produced
//! differently. Two guards:
//!
//! * a golden digest over mixed reads — `next_u32` / `next_u64` that
//!   straddle every 16-word block edge and 128-word refill edge,
//!   `fill_bytes` of every length 0–37, `random_range`, `random`,
//!   `random_bool`, and a clone taken mid-buffer — recorded on the
//!   commit that still made one scalar block per refill;
//! * the runtime-selected 8-block kernel equals eight calls of the
//!   scalar reference block, at counters where the low counter word
//!   carries inside one refill and where the 64-bit counter wraps.

use dsec::crypto::sha::sha256;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// SHA-256 over [`transcript`] for the three seeds, in order, recorded by
/// running this file on the parent commit (89c1b88).
const GOLDEN: &str = "7260a0fbf7d9557b1f17aca5bed56667b88e7719f4ed0d306e96977a07a457f8";

const SEEDS: [u64; 3] = [0, 0xD5EC, u64::MAX];

/// Words per refill of the 8-block buffer; the reads below cover several.
/// Written out, not read from the stub, so the transcript never moves.
const REFILL_WORDS: usize = 128;

fn transcript(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    // One u32, then u64s at odd word offsets: each pair (16k − 1, 16k)
    // straddles a block edge, every eighth a refill edge.
    out.extend_from_slice(&rng.next_u32().to_le_bytes());
    for _ in 0..(3 * REFILL_WORDS) / 2 {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    // Back to even offsets, then alternate widths so both parities meet
    // the edges again.
    out.extend_from_slice(&rng.next_u32().to_le_bytes());
    for i in 0..2 * REFILL_WORDS {
        if i % 3 == 0 {
            out.extend_from_slice(&rng.next_u32().to_le_bytes());
        } else {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
    }
    for len in 0..=37 {
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        out.extend_from_slice(&buf);
    }
    for _ in 0..64 {
        out.push(rng.random_range(0u8..7));
        out.extend_from_slice(&rng.random_range(0u32..1000).to_le_bytes());
        out.extend_from_slice(&rng.random_range(10usize..=20).to_le_bytes());
        out.extend_from_slice(&rng.random_range(-5i64..5).to_le_bytes());
        out.extend_from_slice(&rng.random_range(0u64..=u64::MAX).to_le_bytes());
        out.extend_from_slice(&rng.random_range(1.5f64..2.5).to_le_bytes());
        out.extend_from_slice(&rng.random::<f64>().to_le_bytes());
        out.push(rng.random_bool(0.3) as u8);
        out.push(rng.random::<bool>() as u8);
    }
    // A clone taken mid-buffer continues the same stream as its origin.
    let _ = rng.next_u32();
    let mut twin = rng.clone();
    for _ in 0..REFILL_WORDS + 5 {
        let (a, b) = (rng.next_u64(), twin.next_u64());
        assert_eq!(a, b, "a clone diverged from its origin (seed {seed})");
        out.extend_from_slice(&b.to_le_bytes());
    }
    out
}

#[test]
fn mixed_reads_match_the_single_block_golden_digest() {
    let all: Vec<u8> = SEEDS.iter().flat_map(|&s| transcript(s)).collect();
    let hex: String = sha256(&all).iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN, "StdRng stream bytes moved");
}

/// Counters where a refill starts: the origin, four blocks before the low
/// counter word carries (so the carry falls inside one refill), and four
/// blocks before the 64-bit counter wraps to zero.
const REFILL_STARTS: [u64; 3] = [0, (1 << 32) - 5, u64::MAX - 3];

#[test]
fn the_selected_kernel_makes_eight_reference_blocks() {
    use rand::chacha::{block, blocks, BLOCKS, BLOCK_WORDS, BUF_WORDS};
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let key: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
        for start in REFILL_STARTS {
            let mut buf = [0u32; BUF_WORDS];
            blocks(&key, start, &mut buf);
            for (j, words) in buf.chunks_exact(BLOCK_WORDS).enumerate() {
                assert_eq!(
                    words,
                    block(&key, start.wrapping_add(j as u64)),
                    "block {j} of {BLOCKS} from counter {start:#x} (seed {seed})"
                );
            }
        }
    }
}
