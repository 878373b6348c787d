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
    fn name_keys_stay_case_insensitive() {
        let mut map: FnvHashMap<Name, u32> = FnvHashMap::default();
        map.insert(Name::parse("Example.COM").unwrap(), 7);
        assert_eq!(map.get(&Name::parse("example.com").unwrap()), Some(&7));
        let mut set: FnvHashSet<Name> = FnvHashSet::default();
        set.insert(Name::parse("a.nl").unwrap());
        assert!(set.contains(&Name::parse("A.NL").unwrap()));
    }
}
