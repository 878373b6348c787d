//! DNSSEC algorithm numbers (IANA "DNS Security Algorithm Numbers" registry)
//! and the signing/verification dispatch built on top of [`crate::rsa`].

use std::sync::Arc;

use rand::RngCore;

use crate::rsa::{RsaHash, RsaPrivateKey, RsaPublicKey};
use crate::CryptoError;

/// A DNSSEC signing algorithm, by IANA number.
///
/// Only the RSA family is implemented (it covered the overwhelming majority
/// of signed zones in the paper's 2015–2016 measurement window; ECDSA uptake
/// was just starting per van Rijswijk-Deij et al. 2016). Unknown numbers are
/// preserved so the wire layer can round-trip records it cannot validate —
/// a validator treats them as unsupported, yielding *insecure*, not *bogus*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// RSA/SHA-1 (5) — legacy but still widespread in 2016.
    RsaSha1,
    /// RSA/SHA-256 (8) — the recommended mainstream algorithm.
    RsaSha256,
    /// RSA/SHA-512 (10).
    RsaSha512,
    /// The reserved "delete DS" sentinel (0) used by CDS/CDNSKEY (RFC 8078).
    Delete,
    /// Any algorithm number this library does not implement.
    Unknown(u8),
}

impl Algorithm {
    /// IANA algorithm number.
    pub fn number(self) -> u8 {
        match self {
            Algorithm::Delete => 0,
            Algorithm::RsaSha1 => 5,
            Algorithm::RsaSha256 => 8,
            Algorithm::RsaSha512 => 10,
            Algorithm::Unknown(n) => n,
        }
    }

    /// Maps an IANA number to an algorithm.
    pub fn from_number(n: u8) -> Self {
        match n {
            0 => Algorithm::Delete,
            5 => Algorithm::RsaSha1,
            8 => Algorithm::RsaSha256,
            10 => Algorithm::RsaSha512,
            other => Algorithm::Unknown(other),
        }
    }

    /// Whether this library can produce and check signatures for it.
    pub fn is_supported(self) -> bool {
        self.rsa_hash().is_some()
    }

    /// IANA mnemonic, as printed in zone files and reports.
    pub fn mnemonic(self) -> String {
        match self {
            Algorithm::Delete => "DELETE".into(),
            Algorithm::RsaSha1 => "RSASHA1".into(),
            Algorithm::RsaSha256 => "RSASHA256".into(),
            Algorithm::RsaSha512 => "RSASHA512".into(),
            Algorithm::Unknown(n) => format!("ALG{n}"),
        }
    }

    fn rsa_hash(self) -> Option<RsaHash> {
        match self {
            Algorithm::RsaSha1 => Some(RsaHash::Sha1),
            Algorithm::RsaSha256 => Some(RsaHash::Sha256),
            Algorithm::RsaSha512 => Some(RsaHash::Sha512),
            _ => None,
        }
    }
}

/// A private signing key bound to a DNSSEC algorithm.
///
/// The private half is shared: cloning a key (the world hands one out per
/// signed domain, the signer once more per pass) bumps a refcount instead
/// of copying the primes and their Montgomery contexts.
#[derive(Debug, Clone)]
pub struct SigningKey {
    /// The algorithm this key signs with.
    pub algorithm: Algorithm,
    key: Arc<RsaPrivateKey>,
}

impl SigningKey {
    /// Generates a key pair for `algorithm` with an RSA modulus of `bits`.
    ///
    /// Returns [`CryptoError::UnsupportedAlgorithm`] for non-RSA numbers.
    pub fn generate(
        rng: &mut dyn RngCore,
        algorithm: Algorithm,
        bits: usize,
    ) -> Result<Self, CryptoError> {
        if !algorithm.is_supported() {
            return Err(CryptoError::UnsupportedAlgorithm(algorithm.number()));
        }
        // SHA-512's DigestInfo (83 bytes + 11 overhead) needs ≥ 752-bit n.
        let min_bits = match algorithm {
            Algorithm::RsaSha512 => 768,
            _ => 256,
        };
        Ok(SigningKey {
            algorithm,
            key: Arc::new(RsaPrivateKey::generate(rng, bits.max(min_bits))),
        })
    }

    /// The RFC 3110 public key material for the DNSKEY RDATA.
    pub fn public_key_wire(&self) -> Vec<u8> {
        self.key.public.to_dnskey_wire()
    }

    /// Signs `message`; infallible for a constructed key.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let hash = self
            .algorithm
            .rsa_hash()
            .expect("SigningKey is only constructed for supported algorithms");
        self.key.sign(hash, message)
    }
}

/// Verifies `signature` over `message` with `public_key` wire material.
///
/// Returns `Ok(true)` / `Ok(false)` for supported algorithms, and an error
/// for unsupported algorithms or malformed key material — callers map the
/// error to *insecure* (unsupported) or *bogus* (malformed) per RFC 4035.
pub fn verify(
    algorithm: Algorithm,
    public_key: &[u8],
    message: &[u8],
    signature: &[u8],
) -> Result<bool, CryptoError> {
    let hash = algorithm
        .rsa_hash()
        .ok_or(CryptoError::UnsupportedAlgorithm(algorithm.number()))?;
    let key = RsaPublicKey::from_dnskey_wire(public_key)?;
    Ok(key.verify(hash, message, signature))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn number_round_trip() {
        for n in 0..=255u8 {
            assert_eq!(Algorithm::from_number(n).number(), n);
        }
    }

    #[test]
    fn mnemonics() {
        assert_eq!(Algorithm::RsaSha256.mnemonic(), "RSASHA256");
        assert_eq!(Algorithm::Delete.mnemonic(), "DELETE");
        assert_eq!(Algorithm::Unknown(13).mnemonic(), "ALG13");
    }

    #[test]
    fn supported_set_is_rsa_family() {
        assert!(Algorithm::RsaSha1.is_supported());
        assert!(Algorithm::RsaSha256.is_supported());
        assert!(Algorithm::RsaSha512.is_supported());
        assert!(!Algorithm::Delete.is_supported());
        assert!(!Algorithm::Unknown(13).is_supported());
    }

    #[test]
    fn signing_key_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let key = SigningKey::generate(&mut rng, Algorithm::RsaSha256, 512).unwrap();
        let sig = key.sign(b"rrset data");
        let ok = verify(
            Algorithm::RsaSha256,
            &key.public_key_wire(),
            b"rrset data",
            &sig,
        );
        assert!(ok.unwrap());
        let bad = verify(Algorithm::RsaSha256, &key.public_key_wire(), b"other", &sig);
        assert!(!bad.unwrap());
    }

    #[test]
    fn sha512_key_is_upsized() {
        let mut rng = StdRng::seed_from_u64(6);
        let key = SigningKey::generate(&mut rng, Algorithm::RsaSha512, 512).unwrap();
        // 512 requested, but SHA-512 needs at least 768 bits of modulus.
        let sig = key.sign(b"x");
        assert!(sig.len() * 8 >= 768);
    }

    #[test]
    fn unsupported_algorithm_errors() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            SigningKey::generate(&mut rng, Algorithm::Unknown(13), 512),
            Err(CryptoError::UnsupportedAlgorithm(13))
        ));
        assert!(matches!(
            verify(Algorithm::Delete, &[1, 2, 3], b"m", b"s"),
            Err(CryptoError::UnsupportedAlgorithm(0))
        ));
    }

    #[test]
    fn malformed_key_errors() {
        assert!(matches!(
            verify(Algorithm::RsaSha256, &[], b"m", b"s"),
            Err(CryptoError::MalformedKey(_))
        ));
    }
}
