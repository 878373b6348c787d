//! RSA key generation and PKCS#1 v1.5 signatures (RFC 8017, RFC 3110).
//!
//! DNSSEC's RSA algorithms (RSASHA1 = 5, RSASHA256 = 8, RSASHA512 = 10) all
//! use RSASSA-PKCS1-v1_5 over the canonical RRset data. The public key is
//! carried in DNSKEY RDATA in the RFC 3110 wire format: a 1- or 3-byte
//! exponent length, the exponent, then the modulus.
//!
//! Key sizes: the simulation defaults to 512-bit keys so that signing whole
//! synthetic TLD populations stays fast; the API supports any size ≥ 256
//! bits and the unit tests exercise up to 1024.
//!
//! Signing uses the Chinese remainder theorem: the private key keeps both
//! primes with a prebuilt Montgomery context each, so a signature is two
//! half-width exponentiations and a Garner recombination. PKCS#1 v1.5 is
//! deterministic, so the bytes equal those of a full-width `m^d mod n`.

use std::fmt;

use rand::RngCore;

use crate::bigint::{BigUint, Montgomery};
use crate::sha::{sha1, sha256, sha512};
use crate::CryptoError;

/// Hash function used inside an RSA PKCS#1 v1.5 signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RsaHash {
    /// SHA-1 (DNSSEC algorithm 5; legacy).
    Sha1,
    /// SHA-256 (DNSSEC algorithm 8; the common choice).
    Sha256,
    /// SHA-512 (DNSSEC algorithm 10).
    Sha512,
}

impl RsaHash {
    /// ASN.1 DER `DigestInfo` prefix for this hash (RFC 8017 §9.2 note 1).
    fn digest_info_prefix(self) -> &'static [u8] {
        match self {
            RsaHash::Sha1 => &[
                0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04,
                0x14,
            ],
            RsaHash::Sha256 => &[
                0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
                0x01, 0x05, 0x00, 0x04, 0x20,
            ],
            RsaHash::Sha512 => &[
                0x30, 0x51, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
                0x03, 0x05, 0x00, 0x04, 0x40,
            ],
        }
    }

    fn hash(self, data: &[u8]) -> Vec<u8> {
        match self {
            RsaHash::Sha1 => sha1(data).to_vec(),
            RsaHash::Sha256 => sha256(data).to_vec(),
            RsaHash::Sha512 => sha512(data).to_vec(),
        }
    }
}

/// An RSA public key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    /// Public exponent (typically 65537).
    pub e: BigUint,
    /// Modulus n = p·q.
    pub n: BigUint,
}

impl RsaPublicKey {
    /// Modulus size in bytes; signatures are exactly this long.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Encodes in the RFC 3110 DNSKEY public-key wire format.
    pub fn to_dnskey_wire(&self) -> Vec<u8> {
        let exp = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(4 + exp.len() + self.modulus_len());
        if exp.len() < 256 {
            out.push(exp.len() as u8);
        } else {
            out.push(0);
            out.extend_from_slice(&(exp.len() as u16).to_be_bytes());
        }
        out.extend_from_slice(&exp);
        out.extend_from_slice(&self.n.to_bytes_be());
        out
    }

    /// Decodes the RFC 3110 DNSKEY public-key wire format.
    pub fn from_dnskey_wire(data: &[u8]) -> Result<Self, CryptoError> {
        if data.is_empty() {
            return Err(CryptoError::MalformedKey("empty RSA key material"));
        }
        let (exp_len, off) = if data[0] != 0 {
            (data[0] as usize, 1)
        } else {
            if data.len() < 3 {
                return Err(CryptoError::MalformedKey("truncated RSA exponent length"));
            }
            (u16::from_be_bytes([data[1], data[2]]) as usize, 3)
        };
        if data.len() < off + exp_len + 1 {
            return Err(CryptoError::MalformedKey("truncated RSA key material"));
        }
        let e = BigUint::from_bytes_be(&data[off..off + exp_len]);
        let n = BigUint::from_bytes_be(&data[off + exp_len..]);
        if e.is_zero() || n.is_zero() {
            return Err(CryptoError::MalformedKey("zero RSA exponent or modulus"));
        }
        Ok(RsaPublicKey { e, n })
    }

    /// Verifies an RSASSA-PKCS1-v1_5 signature over `message`.
    pub fn verify(&self, hash: RsaHash, message: &[u8], signature: &[u8]) -> bool {
        let k = self.modulus_len();
        if signature.len() != k {
            return false;
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return false;
        }
        let em = s.modpow(&self.e, &self.n).to_bytes_be_padded(k);
        em == emsa_pkcs1_v15(hash, message, k)
    }
}

/// An RSA private key (with the public half embedded), in CRT form.
#[derive(Clone)]
pub struct RsaPrivateKey {
    /// Public half.
    pub public: RsaPublicKey,
    /// Montgomery context over the prime p (which it also stores).
    p: Montgomery,
    /// Montgomery context over the prime q.
    q: Montgomery,
    /// dP = d mod (p − 1), with d = e⁻¹ mod (p − 1)(q − 1).
    dp: BigUint,
    /// dQ = d mod (q − 1).
    dq: BigUint,
    /// qInv = q⁻¹ mod p.
    qinv: BigUint,
}

/// Shows the public half and the modulus width only — never `p`, `q` or
/// the exponents, so a stray `{:?}` in a log cannot leak the key.
impl fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPrivateKey")
            .field("public", &self.public)
            .field("bits", &self.public.n.bit_len())
            .finish_non_exhaustive()
    }
}

impl RsaPrivateKey {
    /// Generates a fresh key with a modulus of `bits` bits.
    ///
    /// Uses e = 65537 and rejects prime pairs where gcd(e, φ) ≠ 1. Miller–
    /// Rabin rounds are fixed at 24 (error < 4⁻²⁴ per composite accepted).
    /// The RNG draws (and so the key a seed yields) are frozen: seeded
    /// worlds, CSVs and EXPERIMENTS.md are byte-pinned to them.
    pub fn generate(rng: &mut dyn RngCore, bits: usize) -> Self {
        assert!(bits >= 256, "RSA modulus below 256 bits is not supported");
        let e = BigUint::from_u64(65537);
        loop {
            let p = BigUint::random_prime(rng, bits / 2, 24);
            let q = BigUint::random_prime(rng, bits - bits / 2, 24);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let p1 = p.sub(&BigUint::one());
            let q1 = q.sub(&BigUint::one());
            let Some(d) = e.modinv(&p1.mul(&q1)) else {
                continue;
            };
            return RsaPrivateKey {
                public: RsaPublicKey { e, n },
                dp: d.rem(&p1),
                dq: d.rem(&q1),
                qinv: q.modinv(&p).expect("distinct primes are coprime"),
                p: Montgomery::new(&p),
                q: Montgomery::new(&q),
            };
        }
    }

    /// Signs `message` with RSASSA-PKCS1-v1_5.
    pub fn sign(&self, hash: RsaHash, message: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1_v15(hash, message, k);
        self.private_op(&BigUint::from_bytes_be(&em))
            .to_bytes_be_padded(k)
    }

    /// `m^d mod n` by CRT (RFC 8017 §5.1.2 step 2.b): one exponentiation
    /// per prime on its prebuilt context, then Garner's recombination
    /// `s = s_q + q · (qInv · (s_p − s_q) mod p)`.
    fn private_op(&self, m: &BigUint) -> BigUint {
        let (p, q) = (self.p.modulus(), self.q.modulus());
        let sp = self.p.pow(m, &self.dp);
        let sq = self.q.pow(m, &self.dq);
        // s_p + p − (s_q mod p) is s_p − s_q mod p without going negative.
        let diff = sp.add(p).sub(&sq.rem(p));
        sq.add(&diff.mulmod(&self.qinv, p).mul(q))
    }
}

/// EMSA-PKCS1-v1_5 encoding: `00 01 FF…FF 00 || DigestInfo || H(m)`.
fn emsa_pkcs1_v15(hash: RsaHash, message: &[u8], k: usize) -> Vec<u8> {
    let digest = hash.hash(message);
    let prefix = hash.digest_info_prefix();
    let t_len = prefix.len() + digest.len();
    assert!(
        k >= t_len + 11,
        "modulus too small for {hash:?} PKCS#1 v1.5 encoding"
    );
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(prefix);
    em.extend_from_slice(&digest);
    em
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_key() -> RsaPrivateKey {
        let mut rng = StdRng::seed_from_u64(0xD5EC);
        RsaPrivateKey::generate(&mut rng, 512)
    }

    #[test]
    fn sign_verify_round_trip_all_hashes() {
        let key = test_key();
        for hash in [RsaHash::Sha1, RsaHash::Sha256] {
            let sig = key.sign(hash, b"the quick brown fox");
            assert_eq!(sig.len(), key.public.modulus_len());
            assert!(key.public.verify(hash, b"the quick brown fox", &sig));
        }
        // SHA-512 DigestInfo needs a bigger modulus (k >= 64+19+11).
        let mut rng = StdRng::seed_from_u64(9);
        let big = RsaPrivateKey::generate(&mut rng, 1024);
        let sig = big.sign(RsaHash::Sha512, b"msg");
        assert!(big.public.verify(RsaHash::Sha512, b"msg", &sig));
    }

    #[test]
    fn verify_rejects_tampered_message() {
        let key = test_key();
        let sig = key.sign(RsaHash::Sha256, b"original");
        assert!(!key.public.verify(RsaHash::Sha256, b"0riginal", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let key = test_key();
        let mut sig = key.sign(RsaHash::Sha256, b"original");
        sig[10] ^= 0x01;
        assert!(!key.public.verify(RsaHash::Sha256, b"original", &sig));
    }

    #[test]
    fn verify_rejects_wrong_length_signature() {
        let key = test_key();
        let sig = key.sign(RsaHash::Sha256, b"m");
        assert!(!key.public.verify(RsaHash::Sha256, b"m", &sig[1..]));
        let mut long = sig.clone();
        long.push(0);
        assert!(!key.public.verify(RsaHash::Sha256, b"m", &long));
    }

    #[test]
    fn verify_rejects_wrong_hash() {
        let key = test_key();
        let sig = key.sign(RsaHash::Sha256, b"m");
        assert!(!key.public.verify(RsaHash::Sha1, b"m", &sig));
    }

    #[test]
    fn verify_rejects_signature_ge_modulus() {
        let key = test_key();
        let k = key.public.modulus_len();
        let too_big = key.public.n.to_bytes_be_padded(k);
        assert!(!key.public.verify(RsaHash::Sha256, b"m", &too_big));
    }

    #[test]
    fn dnskey_wire_round_trip() {
        let key = test_key();
        let wire = key.public.to_dnskey_wire();
        let back = RsaPublicKey::from_dnskey_wire(&wire).unwrap();
        assert_eq!(back, key.public);
        // e = 65537 fits in 3 bytes with a 1-byte length prefix.
        assert_eq!(wire[0], 3);
    }

    #[test]
    fn dnskey_wire_rejects_garbage() {
        assert!(RsaPublicKey::from_dnskey_wire(&[]).is_err());
        assert!(RsaPublicKey::from_dnskey_wire(&[0]).is_err());
        assert!(RsaPublicKey::from_dnskey_wire(&[5, 1, 2]).is_err());
        // Zero exponent.
        assert!(RsaPublicKey::from_dnskey_wire(&[1, 0, 1, 2, 3]).is_err());
    }

    #[test]
    fn dnskey_wire_long_exponent_form() {
        // A 256-byte exponent forces the 3-byte length form.
        let mut e_bytes = vec![1u8];
        e_bytes.extend(std::iter::repeat_n(0, 255));
        e_bytes[255] = 1;
        let key = RsaPublicKey {
            e: BigUint::from_bytes_be(&e_bytes),
            n: BigUint::from_u64(u64::MAX),
        };
        let wire = key.to_dnskey_wire();
        assert_eq!(wire[0], 0);
        let back = RsaPublicKey::from_dnskey_wire(&wire).unwrap();
        assert_eq!(back, key);
    }

    #[test]
    fn distinct_keys_do_not_cross_verify() {
        let mut rng = StdRng::seed_from_u64(1);
        let k1 = RsaPrivateKey::generate(&mut rng, 512);
        let k2 = RsaPrivateKey::generate(&mut rng, 512);
        assert_ne!(k1.public, k2.public);
        let sig = k1.sign(RsaHash::Sha256, b"m");
        assert!(!k2.public.verify(RsaHash::Sha256, b"m", &sig));
    }

    /// The full-width `m^d mod n` the CRT path replaced; kept here as the
    /// reference the new path is checked against.
    fn plain_private_op(key: &RsaPrivateKey, m: &BigUint) -> BigUint {
        let one = BigUint::one();
        let phi = key.p.modulus().sub(&one).mul(&key.q.modulus().sub(&one));
        let d = key.public.e.modinv(&phi).unwrap();
        m.modpow(&d, &key.public.n)
    }

    #[test]
    fn crt_signing_equals_plain_exponentiation() {
        for (seed, bits) in [(21u64, 512usize), (22, 768), (23, 1024), (24, 521)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let key = RsaPrivateKey::generate(&mut rng, bits);
            let k = key.public.modulus_len();
            for i in 0..40u32 {
                let message = i.to_be_bytes().repeat(i as usize);
                let em = emsa_pkcs1_v15(RsaHash::Sha1, &message, k);
                let plain = plain_private_op(&key, &BigUint::from_bytes_be(&em));
                assert_eq!(
                    key.sign(RsaHash::Sha1, &message),
                    plain.to_bytes_be_padded(k)
                );
            }
            // Representatives the padding never produces: 0, 1, n − 1,
            // multiples of one prime (s_p or s_q is zero), random residues.
            let (p, q, n) = (key.p.modulus(), key.q.modulus(), &key.public.n);
            let mut edge = vec![
                BigUint::zero(),
                BigUint::one(),
                n.sub(&BigUint::one()),
                p.clone(),
                q.clone(),
                p.mul(&BigUint::from_u64(3)),
                q.mul(&BigUint::from_u64(5)),
            ];
            edge.extend((0..20).map(|_| BigUint::random_below(&mut rng, n)));
            for m in &edge {
                assert_eq!(key.private_op(m), plain_private_op(&key, m), "m={m:?}");
            }
        }
    }

    #[test]
    fn debug_shows_the_public_half_only() {
        let key = test_key();
        let shown = format!("{key:?}");
        assert!(shown.contains(&format!("{:?}", key.public.n)));
        assert!(shown.contains("bits: 512"));
        for secret in [
            key.p.modulus(),
            key.q.modulus(),
            &key.dp,
            &key.dq,
            &key.qinv,
        ] {
            assert!(!shown.contains(&format!("{secret:?}")[2..]));
        }
    }

    #[test]
    fn modulus_len_counts_bytes_not_limbs() {
        for (bytes, len) in [
            (vec![1u8], 1),
            (vec![0x80; 8], 8),
            (vec![1; 9], 9),
            (vec![0xff; 64], 64),
        ] {
            let key = RsaPublicKey {
                e: BigUint::from_u64(3),
                n: BigUint::from_bytes_be(&bytes),
            };
            assert_eq!(key.modulus_len(), len);
            assert_eq!(key.modulus_len(), key.n.to_bytes_be().len());
        }
    }

    #[test]
    fn deterministic_generation_from_seed() {
        let mut a = StdRng::seed_from_u64(77);
        let mut b = StdRng::seed_from_u64(77);
        let k1 = RsaPrivateKey::generate(&mut a, 512);
        let k2 = RsaPrivateKey::generate(&mut b, 512);
        assert_eq!(k1.public, k2.public);
    }
}
