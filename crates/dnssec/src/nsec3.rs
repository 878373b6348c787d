//! NSEC3 hashed denial of existence (RFC 5155): the owner-name hashing
//! function and helpers for building hashed owner names.

use dsec_crypto::base32;
use dsec_crypto::sha::sha1;
use dsec_wire::Name;

/// NSEC3 parameters (hash algorithm is always 1 = SHA-1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nsec3Config {
    /// Extra hash iterations (0 = hash once).
    pub iterations: u16,
    /// Salt appended to every hash input.
    pub salt: Vec<u8>,
}

impl Nsec3Config {
    /// Conventional parameters: 10 iterations, 4-byte salt.
    pub fn new(iterations: u16, salt: Vec<u8>) -> Self {
        Nsec3Config { iterations, salt }
    }
}

/// RFC 5155 §5: `IH(salt, x, 0) = H(x || salt)`,
/// `IH(salt, x, k) = H(IH(salt, x, k-1) || salt)`, over the canonical
/// (lowercased, uncompressed) wire form of the owner name.
pub fn nsec3_hash(owner: &Name, salt: &[u8], iterations: u16) -> [u8; 20] {
    let mut input = owner.to_canonical_wire();
    input.extend_from_slice(salt);
    let mut digest = sha1(&input);
    for _ in 0..iterations {
        let mut next = digest.to_vec();
        next.extend_from_slice(salt);
        digest = sha1(&next);
    }
    digest
}

/// The hashed owner name: `base32hex(H(owner)).<zone>`.
pub fn hashed_owner_name(
    owner: &Name,
    zone: &Name,
    salt: &[u8],
    iterations: u16,
) -> Result<Name, dsec_wire::WireError> {
    let hash = nsec3_hash(owner, salt, iterations);
    zone.child(&base32::encode_hex(&hash))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// RFC 5155 Appendix A vectors: salt AABBCCDD, 12 iterations.
    #[test]
    fn rfc5155_appendix_a_vectors() {
        let salt = [0xAA, 0xBB, 0xCC, 0xDD];
        let cases = [
            ("example", "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom"),
            ("a.example", "35mthgpgcu1qg68fab165klnsnk3dpvl"),
            ("ai.example", "gjeqe526plbf1g8mklp59enfd789njgi"),
            ("ns1.example", "2t7b4g4vsa5smi47k61mv5bv1a22bojr"),
            ("w.example", "k8udemvp1j2f7eg6jebps17vp3n8i58h"),
            ("*.w.example", "r53bq7cc2uvmubfu5ocmm6pers9tk9en"),
        ];
        for (owner, expected) in cases {
            let hash = nsec3_hash(&name(owner), &salt, 12);
            assert_eq!(base32::encode_hex(&hash), expected, "NSEC3 hash of {owner}");
        }
    }

    #[test]
    fn hash_is_case_insensitive() {
        let salt = [0x01];
        assert_eq!(
            nsec3_hash(&name("Example.COM"), &salt, 5),
            nsec3_hash(&name("example.com"), &salt, 5)
        );
    }

    #[test]
    fn iterations_and_salt_change_the_hash() {
        let owner = name("example.com");
        let base = nsec3_hash(&owner, &[], 0);
        assert_ne!(base, nsec3_hash(&owner, &[], 1));
        assert_ne!(base, nsec3_hash(&owner, &[0xFF], 0));
    }

    #[test]
    fn hashed_owner_lives_under_zone() {
        let zone = name("example.com");
        let hashed = hashed_owner_name(&name("www.example.com"), &zone, &[0xAB], 3).unwrap();
        assert!(hashed.is_strict_subdomain_of(&zone));
        assert_eq!(hashed.label_count(), 3);
        assert_eq!(hashed.labels().next().unwrap().len(), 32);
    }
}
