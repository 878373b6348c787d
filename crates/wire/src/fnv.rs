//! A minimal FNV-1a hasher for the simulator's hot, short-key maps.
//!
//! The keys on the per-query hot paths are short: a [`Name`](crate::Name)
//! hashes as one slice of a few dozen lowercased octets, a packed domain
//! key as one integer. SipHash (the `HashMap` default) pays
//! a fixed set-up and finalisation cost that dominates at that size;
//! FNV-1a folds a byte in with one xor and one multiply. The scan cache,
//! the per-domain generation maps, and the resolver cache's map all use
//! [`FnvHashMap`].
//!
//! FNV is not DoS-resistant. Every key hashed here is simulator-internal
//! (generated domain names, dense cache ids), never attacker-chosen, so
//! hash-flooding resistance buys nothing.
//!
//! [`draw`] is the keyed draw beside it: the fault plane hashes its
//! (server, qname, qtype) key with FNV-1a and then draws from it, and
//! the traffic driver draws each query's jitter from its stream index.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit FNV-1a streaming hasher.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_BASIS)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }
}

/// `BuildHasher` producing [`FnvHasher`]s (zero-sized, `Default`).
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` keyed with FNV-1a — drop-in for simulator-internal keys.
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` hashed with FNV-1a.
pub type FnvHashSet<T> = HashSet<T, FnvBuildHasher>;

/// A deterministic 64-bit draw keyed by (`seed`, `key`): the key is
/// spread by the golden-ratio multiplier, xored into the seed, and run
/// through SplitMix64's finaliser. The same pair always gives the same
/// value, whatever was drawn before it.
pub fn draw(seed: u64, key: u64) -> u64 {
    let mut z = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Name;

    #[test]
    fn byte_stream_matches_reference_fnv1a() {
        // FNV-1a("a") and FNV-1a("foobar") reference values.
        let mut h = FnvHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = FnvHasher::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_u8_agrees_with_write() {
        let mut a = FnvHasher::default();
        let mut b = FnvHasher::default();
        a.write(b"example");
        for &byte in b"example" {
            b.write_u8(byte);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn draw_is_splitmix64_of_the_spread_key() {
        // Seed 0, key 1 is SplitMix64's first output from state 0; the
        // finaliser maps 0 to 0.
        assert_eq!(draw(0, 1), 0xe220_a839_7b1d_cdaf);
        assert_eq!(draw(0, 0), 0);
        assert_ne!(draw(1, 7), draw(2, 7));
    }

    #[test]
    fn name_keys_stay_case_insensitive() {
        let mut map: FnvHashMap<Name, u32> = FnvHashMap::default();
        map.insert(Name::parse("Example.COM").unwrap(), 7);
        assert_eq!(map.get(&Name::parse("example.com").unwrap()), Some(&7));
        let mut set: FnvHashSet<Name> = FnvHashSet::default();
        set.insert(Name::parse("a.nl").unwrap());
        assert!(set.contains(&Name::parse("A.NL").unwrap()));
    }
}
