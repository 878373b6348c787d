//! RSA pinned to something other than itself (ROADMAP open item 3a).
//!
//! Two guards over seeded keys at 512/768/1024 bits × SHA-1/256/512:
//!
//! * a golden digest over DNSKEY wire ‖ signature, recorded on the commit
//!   *before* the CRT / windowed-Montgomery kernel landed — same seed →
//!   same key bytes, same key + message → same signature bytes;
//! * every signature, raised to `e` with nothing but schoolbook
//!   `mul` + long-division `rem` (no Montgomery code on the path), parses
//!   as the exact RFC 8017 §9.2 encoding `00 01 FF…FF 00 ‖ DigestInfo ‖ H(m)`
//!   with the DigestInfo DER prefixes written out here, not borrowed from
//!   the crate.

use dsec::crypto::rsa::{RsaHash, RsaPrivateKey};
use dsec::crypto::sha::{sha1, sha256, sha512};
use dsec::crypto::BigUint;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SHA-256 over every (DNSKEY wire ‖ signature) pair of [`cases`], in
/// order, recorded by running this file on the parent commit (bcb50f6).
const GOLDEN: &str = "8f8a139be379cd32465dc38f18f43428699a449b989bb061257b146403601136";

const MESSAGES: [&[u8]; 4] = [
    b"",
    b"example.com. 3600 IN DNSKEY",
    b"the quick brown fox jumps over the lazy dog",
    &[0xA5; 300],
];

/// RFC 8017 §9.2 note 1, DER prefixes of `DigestInfo`.
fn digest_info(hash: RsaHash, message: &[u8]) -> Vec<u8> {
    let (prefix, digest): (&[u8], Vec<u8>) = match hash {
        RsaHash::Sha1 => (
            &[
                0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04,
                0x14,
            ],
            sha1(message).to_vec(),
        ),
        RsaHash::Sha256 => (
            &[
                0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
                0x01, 0x05, 0x00, 0x04, 0x20,
            ],
            sha256(message).to_vec(),
        ),
        RsaHash::Sha512 => (
            &[
                0x30, 0x51, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
                0x03, 0x05, 0x00, 0x04, 0x40,
            ],
            sha512(message).to_vec(),
        ),
    };
    [prefix, &digest].concat()
}

/// One signature per (key width, hash, message). SHA-512's DigestInfo
/// (83 bytes + 11 of padding) does not fit a 64-byte modulus, so the
/// 512-bit key skips it — exactly what `SigningKey::generate` enforces.
fn cases() -> Vec<(RsaPrivateKey, RsaHash, &'static [u8], Vec<u8>)> {
    let mut out = Vec::new();
    for bits in [512usize, 768, 1024] {
        let mut rng = StdRng::seed_from_u64(0xD5EC_0000 + bits as u64);
        let key = RsaPrivateKey::generate(&mut rng, bits);
        assert_eq!(key.public.n.bit_len(), bits);
        for hash in [RsaHash::Sha1, RsaHash::Sha256, RsaHash::Sha512] {
            if hash == RsaHash::Sha512 && bits < 768 {
                continue;
            }
            for message in MESSAGES {
                let signature = key.sign(hash, message);
                out.push((key.clone(), hash, message, signature));
            }
        }
    }
    out
}

/// `base^exp mod modulus` by left-to-right square-and-multiply over
/// `mulmod` (schoolbook product, Knuth division).
fn modpow_schoolbook(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    let mut acc = BigUint::one();
    for i in (0..exp.bit_len()).rev() {
        acc = acc.mulmod(&acc, modulus);
        if exp.bit(i) {
            acc = acc.mulmod(base, modulus);
        }
    }
    acc
}

#[test]
fn seeded_keys_and_signatures_match_the_pre_kernel_golden_digest() {
    let mut transcript = Vec::new();
    for (key, _, _, signature) in cases() {
        transcript.extend_from_slice(&key.public.to_dnskey_wire());
        transcript.extend_from_slice(&signature);
    }
    let hex: String = sha256(&transcript)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(hex, GOLDEN, "key or signature bytes moved");
}

#[test]
fn every_signature_opens_to_the_exact_pkcs1_v15_encoding() {
    for (key, hash, message, signature) in cases() {
        let k = key.public.n.bit_len().div_ceil(8);
        assert_eq!(signature.len(), k);
        let s = BigUint::from_bytes_be(&signature);
        assert!(s < key.public.n);
        let em = modpow_schoolbook(&s, &key.public.e, &key.public.n).to_bytes_be_padded(k);

        let t = digest_info(hash, message);
        let mut expected = vec![0x00, 0x01];
        expected.resize(k - t.len() - 1, 0xff);
        expected.push(0x00);
        expected.extend_from_slice(&t);
        assert!(
            expected.len() == k && k - t.len() - 3 >= 8,
            "at least 8 bytes of FF"
        );
        assert_eq!(em, expected, "{hash:?} at {} bits", k * 8);

        assert!(key.public.verify(hash, message, &signature));
    }
}
