//! Name interning, and the stable name hash every striped map shares.
//!
//! A map keyed by a domain name is keyed by [`Name`] itself: its `Eq` and
//! `Hash` fold ASCII case in one pass and a clone is a refcount bump
//! (hot paths that probe several maps compute [`name_hash64`] once and
//! feed that alone to the hasher). A [`NameInterner`] is for the one
//! place that wants a *dense integer* per name: the ecosystem's columnar
//! domain tables, whose `NameId → row` index it backs.
//!
//! The interner is striped 16 ways by [`name_hash64`] so concurrent
//! callers interning different names rarely contend on the same lock,
//! and repeat interning of an already-known name takes only a stripe
//! *read* lock. Ids are stable for the lifetime of the interner — entries
//! are never evicted (an id handed out must stay valid), so its memory is
//! bounded by the number of *distinct* names it ever sees: the
//! registered-domain population.

use std::sync::RwLock;

use crate::fnv::FnvHashMap;
use crate::name::Name;

/// Number of independently locked stripes (must be a power of two).
const STRIPES: usize = 16;

/// Bits of a [`NameId`] reserved for the per-stripe slot index.
const SLOT_BITS: u32 = 28;

/// A stable, dense identifier for an interned [`Name`]: the stripe index
/// in the top 4 bits, the slot within the stripe below.
///
/// Ids are only meaningful to the [`NameInterner`] that issued them, and
/// compare/hash as plain integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(u32);

/// One stripe: name → slot within the stripe, slots dense from 0.
type Stripe = FnvHashMap<Name, u32>;

/// A concurrent, striped name-to-id table. See the module docs.
#[derive(Debug)]
pub struct NameInterner {
    stripes: Vec<RwLock<Stripe>>,
}

impl Default for NameInterner {
    fn default() -> Self {
        NameInterner {
            stripes: (0..STRIPES).map(|_| RwLock::new(Stripe::default())).collect(),
        }
    }
}

impl NameInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id for `name`, assigning a fresh one on first sight.
    /// Case-insensitive: `WWW.Example.COM` and `www.example.com` intern
    /// to the same id ([`Name`] equality and [`name_hash64`] both fold
    /// ASCII case).
    pub fn intern(&self, name: &Name) -> NameId {
        let stripe_idx = (name_hash64(name) as usize) & (STRIPES - 1);
        let stripe = &self.stripes[stripe_idx];
        if let Some(&slot) = read_lock(stripe).get(name) {
            return NameId(((stripe_idx as u32) << SLOT_BITS) | slot);
        }
        let mut guard = stripe.write().unwrap_or_else(|e| e.into_inner());
        let next = guard.len() as u32;
        let slot = *guard.entry(name.clone()).or_insert_with(|| {
            assert!(next < (1 << SLOT_BITS), "interner stripe overflow");
            next
        });
        NameId(((stripe_idx as u32) << SLOT_BITS) | slot)
    }

    /// The id for `name` if it was interned before (never assigns).
    pub fn get(&self, name: &Name) -> Option<NameId> {
        let stripe_idx = (name_hash64(name) as usize) & (STRIPES - 1);
        read_lock(&self.stripes[stripe_idx])
            .get(name)
            .map(|&slot| NameId(((stripe_idx as u32) << SLOT_BITS) | slot))
    }
}

fn read_lock(stripe: &RwLock<Stripe>) -> std::sync::RwLockReadGuard<'_, Stripe> {
    stripe.read().unwrap_or_else(|e| e.into_inner())
}

/// A stable, case-insensitive 64-bit FNV-1a hash over a name's labels.
///
/// Identical for names that compare equal (ASCII case folded per label,
/// labels separated by an `0xff` sentinel that cannot appear *as a
/// length-prefix boundary* ambiguity since labels are hashed in order).
/// Deterministic across processes and platforms — used to pick interner
/// stripes, resolver cache shards, and traffic worker shards, so the
/// same key always lands in the same place run-to-run.
pub fn name_hash64(name: &Name) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for label in name.labels() {
        for &b in label {
            hash ^= b.to_ascii_lowercase() as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash ^= 0xff;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn interning_is_idempotent_and_case_insensitive() {
        let interner = NameInterner::new();
        let a = interner.intern(&name("www.example.com"));
        let b = interner.intern(&name("WWW.Example.COM"));
        let c = interner.intern(&name("mail.example.com"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(interner.get(&name("www.EXAMPLE.com")), Some(a));
        assert_eq!(interner.get(&name("absent.example.com")), None);
    }

    #[test]
    fn hash_folds_case_and_separates_labels() {
        assert_eq!(name_hash64(&name("www.example.com")), name_hash64(&name("WWW.EXAMPLE.com")));
        assert_ne!(name_hash64(&name("ab.c")), name_hash64(&name("a.bc")));
        assert_ne!(name_hash64(&name("example.com")), name_hash64(&name("example.net")));
        // Root hashes to the FNV offset basis — stable across runs.
        assert_eq!(name_hash64(&Name::root()), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let interner = NameInterner::new();
        let names: Vec<Name> = (0..64).map(|i| name(&format!("d{i}.example.com"))).collect();
        let ids: Vec<Vec<NameId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let names = &names;
                    let interner = &interner;
                    scope.spawn(move || names.iter().map(|n| interner.intern(n)).collect())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for worker in &ids[1..] {
            assert_eq!(worker, &ids[0], "every worker sees the same ids");
        }
        let distinct: std::collections::BTreeSet<NameId> = ids[0].iter().copied().collect();
        assert_eq!(distinct.len(), 64, "one id per name");
    }
}
