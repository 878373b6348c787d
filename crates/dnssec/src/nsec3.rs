//! NSEC3 hashed denial of existence (RFC 5155): the owner-name hashing
//! function and helpers for building hashed owner names.

use std::sync::{OnceLock, RwLock};

use dsec_crypto::base32;
use dsec_crypto::sha::sha1;
use dsec_wire::{name_hash64, FnvHashMap, Name};

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

/// A memo table for [`nsec3_hash`]: `(owner, salt, iterations) → digest`.
///
/// Under Zipf traffic and repeated daily scans the same owner names are
/// hashed over and over with the same zone parameters; the memo makes
/// every repeat a map probe instead of 1 + iterations SHA-1 passes.
/// Entries are keyed by the owner (case-insensitively, as [`Name`]
/// compares) and iteration count, with the salt stored alongside and
/// byte-compared on lookup — a salt rotation simply overwrites the stale
/// entry, so the memo needs no invalidation hook and lives for the
/// process lifetime.
#[derive(Debug)]
pub struct Nsec3Memo {
    shards: Vec<RwLock<FnvHashMap<(Name, u16), MemoEntry>>>,
}

const MEMO_SHARDS: usize = 16;

#[derive(Debug)]
struct MemoEntry {
    salt: Vec<u8>,
    digest: [u8; 20],
}

impl Default for Nsec3Memo {
    fn default() -> Self {
        Self::new()
    }
}

impl Nsec3Memo {
    /// An empty memo.
    pub fn new() -> Self {
        Nsec3Memo {
            shards: (0..MEMO_SHARDS).map(|_| RwLock::default()).collect(),
        }
    }

    /// [`nsec3_hash`], memoized. Byte-identical to the direct
    /// computation for every input.
    pub fn hash(&self, owner: &Name, salt: &[u8], iterations: u16) -> [u8; 20] {
        let key = (owner.clone(), iterations);
        let shard = &self.shards[(name_hash64(owner) as usize) & (MEMO_SHARDS - 1)];
        if let Some(entry) = read_lock(shard).get(&key) {
            if entry.salt == salt {
                return entry.digest;
            }
        }
        let digest = nsec3_hash(owner, salt, iterations);
        write_lock(shard).insert(
            key,
            MemoEntry {
                salt: salt.to_vec(),
                digest,
            },
        );
        digest
    }
}

fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// [`nsec3_hash`] through a process-wide [`Nsec3Memo`] — the drop-in
/// fast path for signers and denial-proof construction.
pub fn nsec3_hash_memoized(owner: &Name, salt: &[u8], iterations: u16) -> [u8; 20] {
    static MEMO: OnceLock<Nsec3Memo> = OnceLock::new();
    MEMO.get_or_init(Nsec3Memo::new).hash(owner, salt, iterations)
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
            assert_eq!(
                base32::encode_hex(&hash),
                expected,
                "NSEC3 hash of {owner}"
            );
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

    #[test]
    fn memo_salt_rotation_overwrites_the_entry() {
        let memo = Nsec3Memo::new();
        let owner = name("www.example.com");
        assert_eq!(memo.hash(&owner, &[0xAA], 5), nsec3_hash(&owner, &[0xAA], 5));
        // Same owner, new salt: the stale entry is replaced, not served.
        assert_eq!(memo.hash(&owner, &[0xBB], 5), nsec3_hash(&owner, &[0xBB], 5));
        // And the replacement is itself memoized correctly.
        assert_eq!(memo.hash(&owner, &[0xBB], 5), nsec3_hash(&owner, &[0xBB], 5));
    }

    #[test]
    fn memo_serves_every_spelling_of_an_owner_from_one_entry() {
        let memo = Nsec3Memo::new();
        let entries = || memo.shards.iter().map(|s| read_lock(s).len()).sum::<usize>();
        let direct = nsec3_hash(&name("www.example.com"), &[0xAA], 5);
        for spelling in ["www.example.com", "WWW.Example.COM", "wWw.eXaMpLe.cOm"] {
            assert_eq!(memo.hash(&name(spelling), &[0xAA], 5), direct, "{spelling}");
            assert_eq!(entries(), 1, "{spelling} found the first spelling's entry");
        }
        memo.hash(&name("www.example.com"), &[0xAA], 6);
        assert_eq!(entries(), 2, "the iteration count is part of the key");
    }

    mod memo_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The memo must be byte-identical to the direct computation
            /// for arbitrary owners, salts, and iteration counts — on
            /// both the miss path (first call) and the hit path (second).
            #[test]
            fn memoized_digest_matches_direct_nsec3_hash(
                labels in proptest::collection::vec(
                    proptest::string::string_regex("[a-zA-Z0-9]{1,12}").unwrap(),
                    1..4,
                ),
                salt in proptest::collection::vec(any::<u8>(), 0..8),
                iterations in 0u16..12,
            ) {
                let owner = name(&labels.join("."));
                let direct = nsec3_hash(&owner, &salt, iterations);
                prop_assert_eq!(
                    nsec3_hash_memoized(&owner, &salt, iterations),
                    direct
                );
                prop_assert_eq!(
                    nsec3_hash_memoized(&owner, &salt, iterations),
                    direct
                );
            }
        }
    }
}
