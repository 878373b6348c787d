//! A positive answer cache keyed by (qname, qtype) with TTL-based expiry
//! and an optional capacity bound, that also remembers, per zone, where
//! the delegation walk stood when it got there (a `ZoneCut`).
//!
//! TTLs count in the same seconds as the simulation clock, so cached
//! entries age naturally as the simulated days advance. A bounded cache
//! ([`Cache::bounded`]) never holds more than `capacity` entries: when an
//! insert would exceed the bound, expired entries are evicted first, then
//! the oldest-inserted live entries until the cache fits. Nothing live
//! is evicted while the cache is below its bound. Long-running query
//! campaigns (the traffic plane) use this to keep resolver memory
//! proportional to the working set instead of the population.
//!
//! ## One map
//!
//! Entries live in one [`FnvHashMap`] behind one lock. Every resolver
//! runs on its caller's thread, so the lock is never contended. It is
//! there because resolvers share a cache through an `Arc<Cache>` (the
//! resolvers of a traffic load and the warm-up before it), and an `Arc`
//! around a `RefCell` is neither `Send` nor `Sync` (clippy's
//! `arc_with_non_send_sync`).
//!
//! A [`CacheKey`] is the name, its [`name_hash64`] and the qtype: the
//! label bytes are hashed once when the key is made, and every probe
//! after that feeds the hasher the stored 64 bits. A key belongs to no
//! cache, so one key works on every cache of a fleet. Entries hold
//! `Arc<Answer>`, so a hit is a refcount bump, not a deep copy (and, for
//! [`Cache::get_shared`] callers, no copy at all).
//!
//! ## Infrastructure entries
//!
//! Next to its answers the cache holds at most one `ZoneCut` per
//! zone, keyed by the apex: the NS host set, the verdict the
//! trust chain reached there (authenticated DNSKEYs, `Insecure`, or
//! `Bogus`), and the referral chain above it. It is an ordinary entry —
//! same map, same insertion sequence, same capacity bound, dropped
//! by [`Cache::clear`], [`Cache::flush_origin`] and the expiry sweeps
//! like any other — so an answer-cache miss can start at the deepest
//! live cut above its qname instead of at the root hints. A cut is never
//! served past its expiry (serve-stale is for answers), and an evicted
//! cut costs a re-fetch, never a wrong answer. [`Cache::len`] keeps
//! counting answers; [`Cache::cut_count`] counts these.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dsec_wire::{name_hash64, DnskeyRdata, FnvHashMap, Name, RrType};

use crate::{Answer, Security};

/// Default cap on a cached entry's lifetime, seconds (RFC 8767 spirit).
const MAX_TTL: u32 = 86_400;

/// Cap on a negative entry's lifetime, seconds (RFC 2308 §5 recommends
/// 1–3 hours; we take the upper bound).
pub const MAX_NEGATIVE_TTL: u32 = 10_800;

/// Negative/empty answers with no SOA-derived TTL fall back to this.
pub(crate) const DEFAULT_NEGATIVE_TTL: u32 = 60;

/// [`CacheKey::slot`] of a zone cut. Answers use their 16-bit qtype
/// there, so one past that range can never collide with one.
const CUT_SLOT: u32 = 1 << 16;

/// A precomputed cache key: the qname, the qtype, and the hash that
/// picks the pair's bucket. Good on any [`Cache`]; equal for names that
/// differ only in ASCII case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// [`name_hash64`] of `name`, for an answer mixed with its qtype.
    hash: u64,
    name: Name,
    /// The qtype of an answer, [`CUT_SLOT`] for a zone cut.
    slot: u32,
}

impl CacheKey {
    /// The key of (`qname`, `qtype`): one pass over the label bytes.
    pub fn new(qname: &Name, qtype: RrType) -> CacheKey {
        let slot = u32::from(qtype.number());
        CacheKey {
            hash: name_hash64(qname) ^ u64::from(slot).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            name: qname.clone(),
            slot,
        }
    }

    /// The key of `apex`'s zone cut.
    fn cut(apex: &Name) -> CacheKey {
        CacheKey {
            hash: name_hash64(apex),
            name: apex.clone(),
            slot: CUT_SLOT,
        }
    }
}

impl std::hash::Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One zone's infrastructure entry: everything the delegation walk
/// knows once it has followed the referral into `apex`, so a later walk
/// for a name under it can resume here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ZoneCut {
    /// The zone's apex.
    pub(crate) apex: Name,
    /// Its NS host set, in referral order.
    pub(crate) servers: Vec<Name>,
    /// The verdict the trust chain reached here: the zone's authenticated
    /// DNSKEYs, or why the chain is not secure from here down.
    pub(crate) keys: Result<Vec<DnskeyRdata>, Security>,
    /// The zones walked to get here, outermost first, `apex` last.
    pub(crate) chain: Vec<Name>,
}

#[derive(Debug, Clone)]
enum Cached {
    Answer(Arc<Answer>),
    Cut(Arc<ZoneCut>),
}

#[derive(Debug, Clone)]
struct Entry {
    value: Cached,
    expires_at: u32,
    /// Monotonic insertion sequence number, for oldest-first eviction.
    seq: u64,
}

impl Entry {
    fn answer(&self) -> Option<&Arc<Answer>> {
        match &self.value {
            Cached::Answer(answer) => Some(answer),
            Cached::Cut(_) => None,
        }
    }
}

#[derive(Debug, Default)]
struct Entries {
    map: FnvHashMap<CacheKey, Entry>,
    next_seq: u64,
}

impl Entries {
    /// Expired-first, then oldest-entry eviction down to `capacity`.
    /// Entries still inside their serve-stale horizon (`expires_at +
    /// max_stale > now`) count as live for the expiry sweep, so a
    /// bounded cache keeps stale-servable entries around unless the
    /// capacity bound forces the oldest out.
    fn enforce(&mut self, capacity: usize, now: u32, max_stale: u32) {
        if self.map.len() <= capacity {
            return;
        }
        self.map
            .retain(|_, e| e.expires_at.saturating_add(max_stale) > now);
        let excess = self.map.len().saturating_sub(capacity);
        if excess > 0 {
            // The oldest `excess` insertion sequence numbers go; they are
            // unique, so the cutoff removes exactly those.
            let mut seqs: Vec<u64> = self.map.values().map(|e| e.seq).collect();
            let (_, &mut cutoff, _) = seqs.select_nth_unstable(excess - 1);
            self.map.retain(|_, e| e.seq > cutoff);
        }
    }

    /// Drops the entries `keep` refuses; returns how many went.
    fn remove_unless(&mut self, keep: impl FnMut(&CacheKey, &mut Entry) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(keep);
        before - self.map.len()
    }
}

/// A positive cache, optionally capacity-bounded, shareable between
/// resolvers. See the module docs.
#[derive(Debug)]
pub struct Cache {
    entries: Mutex<Entries>,
    capacity: usize,
    /// Serve-stale horizon (RFC 8767): how long past expiry an entry
    /// stays readable via [`Cache::get_stale`]. 0 disables serve-stale
    /// and restores strict at-expiry eviction.
    max_stale: u32,
}

impl Default for Cache {
    fn default() -> Self {
        Cache {
            entries: Mutex::default(),
            capacity: usize::MAX,
            max_stale: 0,
        }
    }
}

impl Cache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` entries (at least 1).
    pub fn bounded(capacity: usize) -> Self {
        Cache {
            capacity: capacity.max(1),
            ..Self::default()
        }
    }

    /// Sets the serve-stale horizon, in seconds past expiry (RFC 8767).
    /// Expired entries within the horizon survive expiry sweeps and are
    /// readable through [`Cache::get_stale`]; 0 (the default) disables
    /// serve-stale entirely.
    pub fn with_max_stale(mut self, max_stale: u32) -> Self {
        self.max_stale = max_stale;
        self
    }

    /// The configured serve-stale horizon, seconds (0 = disabled).
    pub fn max_stale(&self) -> u32 {
        self.max_stale
    }

    /// The capacity bound (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The entries, locked. A panic while the lock was held does not
    /// poison the cache for the threads that go on using it.
    fn entries(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a live entry by precomputed key, sharing the stored
    /// answer (no deep copy).
    pub fn get_shared(&self, key: &CacheKey, now: u32) -> Option<Arc<Answer>> {
        let entries = self.entries();
        let entry = entries.map.get(key)?;
        if entry.expires_at <= now {
            return None;
        }
        entry.answer().map(Arc::clone)
    }

    /// Looks up an entry that may be *expired* but is still within the
    /// serve-stale horizon (`expires_at + max_stale > now`). Fresh
    /// entries qualify too: a stale read finds everything a fresh read
    /// would. Returns `None` when serve-stale is disabled (`max_stale ==
    /// 0`) and the entry is expired, or when the entry is past the
    /// horizon — a stale read never resurrects anything beyond
    /// `max_stale`.
    pub fn get_stale(&self, key: &CacheKey, now: u32) -> Option<Arc<Answer>> {
        let entries = self.entries();
        let entry = entries.map.get(key)?;
        if entry.expires_at.saturating_add(self.max_stale) <= now {
            return None;
        }
        entry.answer().map(Arc::clone)
    }

    /// Looks up a live entry (compat wrapper: keys the name and deep-
    /// copies the answer; hot paths should use [`CacheKey::new`] +
    /// [`Cache::get_shared`]).
    pub fn get(&self, qname: &Name, qtype: RrType, now: u32) -> Option<Answer> {
        self.get_shared(&CacheKey::new(qname, qtype), now)
            .map(|answer| (*answer).clone())
    }

    /// Stores an answer under a precomputed key; lifetime is the minimum
    /// record TTL, capped at one day. Negative and empty answers are
    /// cached under the RFC 2308 TTL — the SOA-minimum-derived
    /// [`Answer::negative_ttl`] when the resolution captured one, capped
    /// at [`MAX_NEGATIVE_TTL`], else 60 seconds. On a bounded cache the
    /// insert never leaves more than `capacity` entries: expired entries
    /// are dropped first, then the oldest.
    pub fn put_shared(&self, key: &CacheKey, answer: &Arc<Answer>, now: u32) {
        let ttl = match answer.records.iter().map(|r| r.ttl).min() {
            Some(ttl) => ttl.clamp(1, MAX_TTL),
            None => answer
                .negative_ttl
                .unwrap_or(DEFAULT_NEGATIVE_TTL)
                .clamp(1, MAX_NEGATIVE_TTL),
        };
        self.insert(key.clone(), Cached::Answer(Arc::clone(answer)), ttl, now);
    }

    fn insert(&self, key: CacheKey, value: Cached, ttl: u32, now: u32) {
        let mut entries = self.entries();
        let seq = entries.next_seq;
        entries.next_seq += 1;
        entries.map.insert(
            key,
            Entry {
                value,
                expires_at: now.saturating_add(ttl),
                seq,
            },
        );
        entries.enforce(self.capacity, now, self.max_stale);
    }

    /// Stores `cut` for `lifetime` seconds (capped at one day like any
    /// answer; a zero lifetime stores nothing). It takes a slot like an
    /// answer does, so it counts toward the capacity bound and is
    /// evicted by the same expired-first, oldest-next rule.
    pub(crate) fn put_cut(&self, cut: &Arc<ZoneCut>, lifetime: u32, now: u32) {
        if lifetime == 0 {
            return;
        }
        let value = Cached::Cut(Arc::clone(cut));
        self.insert(CacheKey::cut(&cut.apex), value, lifetime.min(MAX_TTL), now);
    }

    /// The live infrastructure entry of `zone` itself, if any.
    fn cut_at(&self, zone: &Name, now: u32) -> Option<Arc<ZoneCut>> {
        match self.entries().map.get(&CacheKey::cut(zone)) {
            Some(Entry {
                value: Cached::Cut(cut),
                expires_at,
                ..
            }) if *expires_at > now => Some(Arc::clone(cut)),
            _ => None,
        }
    }

    /// The deepest live zone cut at or above `qname` — where a walk for
    /// (`qname`, `qtype`) may start instead of the root hints. A DS RRset
    /// lives on the parent side of its own cut, so a DS query starts
    /// strictly above its qname. Expired cuts are never returned: there
    /// is no serve-stale for infrastructure.
    pub(crate) fn deepest_cut(
        &self,
        qname: &Name,
        qtype: RrType,
        now: u32,
    ) -> Option<Arc<ZoneCut>> {
        let mut parent;
        let mut zone = qname;
        if qtype == RrType::Ds {
            parent = zone.parent()?;
            zone = &parent;
        }
        loop {
            if let Some(cut) = self.cut_at(zone, now) {
                return Some(cut);
            }
            parent = zone.parent()?;
            zone = &parent;
        }
    }

    /// Stores an answer (compat wrapper over [`Cache::put_shared`]; one
    /// deep copy to move the answer behind an `Arc`).
    pub fn put(&self, qname: &Name, qtype: RrType, answer: &Answer, now: u32) {
        self.put_shared(&CacheKey::new(qname, qtype), &Arc::new(answer.clone()), now);
    }

    /// Drops entries past their serve-stale horizon (plain expiry when
    /// `max_stale` is 0); returns how many were evicted.
    pub fn evict_expired(&self, now: u32) -> usize {
        let max_stale = self.max_stale;
        self.entries()
            .remove_unless(|_, e| e.expires_at.saturating_add(max_stale) > now)
    }

    /// Number of answers (live or not-yet-evicted). Zone cuts are
    /// counted by [`Cache::cut_count`].
    pub fn len(&self) -> usize {
        self.count(false)
    }

    /// Number of zone cuts (live or not-yet-evicted) held next to the
    /// answers. Together with [`Cache::len`] this is what the capacity
    /// bound limits.
    pub fn cut_count(&self) -> usize {
        self.count(true)
    }

    /// Entries that are (`cuts`) or are not zone cuts.
    fn count(&self, cuts: bool) -> usize {
        self.entries()
            .map
            .keys()
            .filter(|key| (key.slot == CUT_SLOT) == cuts)
            .count()
    }

    /// True when the cache holds no answer.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry, zone cuts included.
    pub fn clear(&self) {
        self.entries().map.clear();
    }

    /// Evicts every entry whose qname — or, for a zone cut, apex — is
    /// at/under `origin`, returning how many were dropped (cuts
    /// included). This is the subtree flush strict-bailiwick hygiene and
    /// RFC 5011 re-priming call for: after a trust-anchor change (or a
    /// detected forgery flood) nothing signed or authenticated under the
    /// old regime may keep being served from cache. Flushing at the root
    /// empties the cache.
    pub fn flush_origin(&self, origin: &Name) -> usize {
        self.entries()
            .remove_unless(|key, _| !key.name.is_subdomain_of(origin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_wire::{RData, Rcode, Record};

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn answer(ttl: u32) -> Answer {
        Answer {
            records: vec![Record::new(
                name("www.example.com"),
                ttl,
                RData::A("192.0.2.1".parse().unwrap()),
            )],
            rcode: Rcode::NoError,
            security: Security::Insecure,
            chain: Vec::new(),
            negative_ttl: None,
            poisoned: false,
        }
    }

    fn negative(negative_ttl: Option<u32>) -> Answer {
        Answer {
            records: Vec::new(),
            rcode: Rcode::NxDomain,
            security: Security::Insecure,
            chain: Vec::new(),
            negative_ttl,
            poisoned: false,
        }
    }

    #[test]
    fn hit_within_ttl_miss_after() {
        let cache = Cache::new();
        cache.put(&name("www.example.com"), RrType::A, &answer(300), 1000);
        assert!(cache
            .get(&name("www.example.com"), RrType::A, 1299)
            .is_some());
        assert!(cache
            .get(&name("www.example.com"), RrType::A, 1300)
            .is_none());
    }

    #[test]
    fn key_includes_qtype_and_is_case_insensitive() {
        let cache = Cache::new();
        cache.put(&name("www.example.com"), RrType::A, &answer(300), 0);
        assert!(cache.get(&name("WWW.EXAMPLE.COM"), RrType::A, 10).is_some());
        assert!(cache
            .get(&name("www.example.com"), RrType::Aaaa, 10)
            .is_none());
        assert_eq!(
            CacheKey::new(&name("WWW.EXAMPLE.COM"), RrType::A),
            CacheKey::new(&name("www.example.com"), RrType::A),
        );
    }

    #[test]
    fn empty_answers_get_short_ttl() {
        let cache = Cache::new();
        cache.put(&name("gone.example.com"), RrType::A, &negative(None), 0);
        assert!(cache
            .get(&name("gone.example.com"), RrType::A, 59)
            .is_some());
        assert!(cache
            .get(&name("gone.example.com"), RrType::A, 61)
            .is_none());
    }

    #[test]
    fn negative_answers_use_soa_minimum_ttl() {
        let cache = Cache::new();
        cache.put(
            &name("gone.example.com"),
            RrType::A,
            &negative(Some(300)),
            0,
        );
        assert!(cache
            .get(&name("gone.example.com"), RrType::A, 299)
            .is_some());
        assert!(cache
            .get(&name("gone.example.com"), RrType::A, 300)
            .is_none());
        // RFC 2308 cap: an absurd SOA minimum is clamped to 3 hours.
        cache.put(
            &name("huge.example.com"),
            RrType::A,
            &negative(Some(1_000_000)),
            0,
        );
        assert!(cache
            .get(&name("huge.example.com"), RrType::A, MAX_NEGATIVE_TTL - 1)
            .is_some());
        assert!(cache
            .get(&name("huge.example.com"), RrType::A, MAX_NEGATIVE_TTL)
            .is_none());
    }

    #[test]
    fn stale_reads_only_within_horizon() {
        let cache = Cache::bounded(16).with_max_stale(600);
        let key = CacheKey::new(&name("www.example.com"), RrType::A);
        cache.put_shared(&key, &Arc::new(answer(300)), 0);
        // Fresh: both paths hit.
        assert!(cache.get_shared(&key, 299).is_some());
        assert!(cache.get_stale(&key, 299).is_some());
        // Expired but within max_stale: only the stale path hits.
        assert!(cache.get_shared(&key, 500).is_none());
        assert!(cache.get_stale(&key, 500).is_some());
        // Past expires_at + max_stale: gone for good.
        assert!(cache.get_stale(&key, 900).is_none());
    }

    #[test]
    fn zero_max_stale_disables_stale_reads() {
        let cache = Cache::new();
        let key = CacheKey::new(&name("www.example.com"), RrType::A);
        cache.put_shared(&key, &Arc::new(answer(300)), 0);
        assert!(cache.get_stale(&key, 299).is_some(), "fresh still readable");
        assert!(cache.get_stale(&key, 300).is_none());
    }

    #[test]
    fn expiry_sweep_respects_stale_horizon() {
        let cache = Cache::bounded(16).with_max_stale(600);
        let key = CacheKey::new(&name("www.example.com"), RrType::A);
        cache.put_shared(&key, &Arc::new(answer(300)), 0);
        assert_eq!(cache.evict_expired(500), 0, "stale-servable entry survives");
        assert!(cache.get_stale(&key, 500).is_some());
        assert_eq!(cache.evict_expired(901), 1, "past horizon it goes");
        assert!(cache.get_stale(&key, 901).is_none());
    }

    #[test]
    fn ttl_is_capped() {
        let cache = Cache::new();
        cache.put(&name("www.example.com"), RrType::A, &answer(10_000_000), 0);
        assert!(cache
            .get(&name("www.example.com"), RrType::A, 86_399)
            .is_some());
        assert!(cache
            .get(&name("www.example.com"), RrType::A, 86_401)
            .is_none());
    }

    #[test]
    fn eviction_and_clear() {
        let cache = Cache::new();
        cache.put(&name("a.example.com"), RrType::A, &answer(100), 0);
        cache.put(&name("b.example.com"), RrType::A, &answer(10_000), 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evict_expired(5000), 1);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn bounded_cache_never_exceeds_capacity() {
        let cache = Cache::bounded(4);
        for i in 0..32 {
            cache.put(
                &name(&format!("d{i}.example.com")),
                RrType::A,
                &answer(300),
                0,
            );
            assert!(cache.len() <= 4, "len {} after insert {i}", cache.len());
        }
        assert_eq!(cache.capacity(), 4);
    }

    #[test]
    fn bounded_eviction_prefers_expired_over_live() {
        let cache = Cache::bounded(3);
        // Oldest entry, but the only live one at eviction time.
        cache.put(&name("live.example.com"), RrType::A, &answer(10_000), 0);
        cache.put(&name("old1.example.com"), RrType::A, &answer(100), 0);
        cache.put(&name("old2.example.com"), RrType::A, &answer(100), 0);
        // Both `old*` entries are expired at t=500; inserting a fourth
        // entry must drop them and keep the older-but-live entry.
        cache.put(&name("new.example.com"), RrType::A, &answer(300), 500);
        assert!(cache
            .get(&name("live.example.com"), RrType::A, 500)
            .is_some());
        assert!(cache
            .get(&name("new.example.com"), RrType::A, 500)
            .is_some());
        assert!(cache
            .get(&name("old1.example.com"), RrType::A, 500)
            .is_none());
    }

    #[test]
    fn bounded_eviction_falls_back_to_oldest() {
        let cache = Cache::bounded(2);
        cache.put(&name("first.example.com"), RrType::A, &answer(10_000), 0);
        cache.put(&name("second.example.com"), RrType::A, &answer(10_000), 1);
        cache.put(&name("third.example.com"), RrType::A, &answer(10_000), 2);
        // Nothing expired, so the oldest insert (`first`) went.
        assert!(cache
            .get(&name("first.example.com"), RrType::A, 3)
            .is_none());
        assert!(cache
            .get(&name("second.example.com"), RrType::A, 3)
            .is_some());
        assert!(cache
            .get(&name("third.example.com"), RrType::A, 3)
            .is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn an_insert_over_the_bound_sweeps_the_expired_first() {
        let cache = Cache::bounded(8);
        for i in 0..8 {
            cache.put(
                &name(&format!("d{i}.example.com")),
                RrType::A,
                &answer(60),
                0,
            );
        }
        // All 8 fit; at t=100 they are all expired but still resident:
        // nothing is swept while the cache is within its bound.
        assert_eq!(cache.len(), 8);
        cache.put(&name("fresh.example.com"), RrType::A, &answer(600), 100);
        // The insert itself enforced the bound (8 expired dropped).
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_bounded_cache_evicts_nothing_live_below_its_capacity() {
        for capacity in [256, 1_024, 65_536] {
            let cache = Cache::bounded(capacity);
            for i in 0..capacity {
                let key = CacheKey::new(&name(&format!("d{i}.example.com")), RrType::A);
                cache.put_shared(&key, &Arc::new(answer(600)), 0);
            }
            assert_eq!(cache.len(), capacity, "every live answer kept");
            // One more is one too many: exactly the oldest goes.
            cache.put(&name("last.example.com"), RrType::A, &answer(600), 1);
            assert_eq!(cache.len(), capacity);
            assert!(cache.get(&name("d0.example.com"), RrType::A, 1).is_none());
            assert!(cache.get(&name("d1.example.com"), RrType::A, 1).is_some());
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

            /// A stale read never resurrects an entry past its
            /// `expires_at + max_stale` horizon, for any TTL, horizon,
            /// and probe time — and within the horizon, stale reads are
            /// a superset of fresh reads.
            #[test]
            fn stale_reads_never_outlive_max_stale(
                ttl in 1u32..100_000,
                max_stale in 0u32..100_000,
                inserted_at in 0u32..1_000_000,
                probe_offset in 0u32..400_000,
            ) {
                let cache = Cache::bounded(16).with_max_stale(max_stale);
                let key = CacheKey::new(&name("p.example.com"), RrType::A);
                cache.put_shared(&key, &Arc::new(answer(ttl)), inserted_at);
                let expires_at = inserted_at
                    .saturating_add(ttl.clamp(1, 86_400));
                let now = inserted_at.saturating_add(probe_offset);
                let stale = cache.get_stale(&key, now);
                let fresh = cache.get_shared(&key, now);
                if now >= expires_at.saturating_add(max_stale) {
                    prop_assert!(stale.is_none(), "served past the stale horizon");
                }
                if fresh.is_some() {
                    prop_assert!(stale.is_some(), "stale path lost a fresh entry");
                }
                // Sweeping at `now` never removes what get_stale would
                // still serve.
                let served_before = cache.get_stale(&key, now).is_some();
                cache.evict_expired(now);
                prop_assert_eq!(cache.get_stale(&key, now).is_some(), served_before);
            }

            /// After a trust-anchor change under `origin`, flushing the
            /// subtree evicts *exactly* the entries at or below it —
            /// no stale-signed entry survives, and nothing outside the
            /// subtree is touched — for any mix of cached names.
            #[test]
            fn flush_origin_evicts_exactly_the_subtree(
                picks in proptest::collection::vec(0usize..6, 1..24),
            ) {
                let cache = Cache::new();
                let pool = [
                    "example.com",
                    "www.example.com",
                    "a.b.example.com",
                    "example.net",
                    "www.example.net",
                    "com",
                ];
                let origin = name("example.com");
                let planted: Vec<(Name, RrType)> = picks
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        let qtype = if i % 2 == 0 { RrType::A } else { RrType::Aaaa };
                        (name(pool[p]), qtype)
                    })
                    .collect();
                for (qname, qtype) in &planted {
                    cache.put(qname, *qtype, &answer(600), 0);
                }
                let before = cache.len();
                let flushed = cache.flush_origin(&origin);
                prop_assert_eq!(cache.len() + flushed, before, "flush lost count");
                for (qname, qtype) in &planted {
                    let hit = cache.get(qname, *qtype, 0).is_some();
                    if qname.is_subdomain_of(&origin) {
                        prop_assert!(!hit, "stale entry {qname} survived the flush");
                    } else {
                        prop_assert!(hit, "outside entry {qname} was evicted");
                    }
                }
            }

            /// Negative-cache TTLs are clamped to the SOA minimum the
            /// resolution captured, never exceeding the RFC 2308 cap.
            #[test]
            fn negative_ttls_clamp_to_soa_minimum(
                soa_minimum in 0u32..200_000,
                probe in 0u32..200_000,
            ) {
                let cache = Cache::new();
                let key = CacheKey::new(&name("n.example.com"), RrType::A);
                cache.put_shared(&key, &Arc::new(negative(Some(soa_minimum))), 0);
                let effective = soa_minimum.clamp(1, MAX_NEGATIVE_TTL);
                prop_assert_eq!(
                    cache.get_shared(&key, probe).is_some(),
                    probe < effective,
                    "negative entry lifetime must be exactly min(SOA minimum, {})",
                    MAX_NEGATIVE_TTL
                );
            }
        }
    }

    fn cut(apex: &str) -> Arc<ZoneCut> {
        Arc::new(ZoneCut {
            apex: name(apex),
            servers: vec![name("ns1.operator.net")],
            keys: Err(Security::Insecure),
            chain: vec![name(apex)],
        })
    }

    #[test]
    fn deepest_live_cut_at_or_above_the_qname_wins() {
        let cache = Cache::new();
        assert!(cache
            .deepest_cut(&name("www.example.com"), RrType::A, 0)
            .is_none());
        cache.put_cut(&cut("."), 1_000, 0);
        cache.put_cut(&cut("com"), 600, 0);
        cache.put_cut(&cut("example.com"), 300, 0);
        let apex_at = |qname: &str, qtype, now| {
            cache
                .deepest_cut(&name(qname), qtype, now)
                .map(|cut| cut.apex.clone())
        };
        assert_eq!(
            apex_at("www.example.com", RrType::A, 0),
            Some(name("example.com"))
        );
        assert_eq!(
            apex_at("WWW.Example.COM", RrType::A, 0),
            Some(name("example.com"))
        );
        assert_eq!(
            apex_at("example.com", RrType::Ns, 0),
            Some(name("example.com"))
        );
        assert_eq!(apex_at("notexample.com", RrType::A, 0), Some(name("com")));
        assert_eq!(apex_at("example.org", RrType::A, 0), Some(Name::root()));
        // A zone's DS is its parent's data.
        assert_eq!(apex_at("example.com", RrType::Ds, 0), Some(name("com")));
        assert_eq!(apex_at("com", RrType::Ds, 0), Some(Name::root()));
        assert_eq!(apex_at(".", RrType::Ds, 0), None);
        // Expiry peels the cuts off one by one; nothing is served stale.
        assert_eq!(
            apex_at("www.example.com", RrType::A, 299),
            Some(name("example.com"))
        );
        assert_eq!(
            apex_at("www.example.com", RrType::A, 300),
            Some(name("com"))
        );
        assert_eq!(
            apex_at("www.example.com", RrType::A, 600),
            Some(Name::root())
        );
        assert_eq!(apex_at("www.example.com", RrType::A, 1_000), None);
    }

    #[test]
    fn cut_lifetime_is_capped_and_zero_stores_nothing() {
        let cache = Cache::bounded(16).with_max_stale(3_600);
        cache.put_cut(&cut("com"), u32::MAX, 0);
        assert!(cache
            .deepest_cut(&name("com"), RrType::A, MAX_TTL - 1)
            .is_some());
        assert!(
            cache
                .deepest_cut(&name("com"), RrType::A, MAX_TTL)
                .is_none(),
            "a serve-stale horizon is for answers"
        );
        cache.put_cut(&cut("net"), 0, 0);
        assert_eq!(cache.cut_count(), 1);
    }

    #[test]
    fn cuts_share_the_answers_slots_but_not_their_count() {
        let cache = Cache::bounded(4);
        cache.put(&name("example.com"), RrType::A, &answer(300), 0);
        cache.put_cut(&cut("example.com"), 300, 0);
        assert_eq!(
            (cache.len(), cache.cut_count()),
            (1, 1),
            "same name, two slots"
        );
        assert!(cache.get(&name("example.com"), RrType::A, 1).is_some());
        // Six more entries into a cache of four: the bound holds over
        // answers and cuts together, oldest first.
        for (i, tld) in ["com", "net", "org"].into_iter().enumerate() {
            cache.put_cut(&cut(tld), 300, 0);
            cache.put(&name(&format!("d{i}.{tld}")), RrType::A, &answer(300), 0);
            assert!(cache.len() + cache.cut_count() <= 4);
        }
        assert_eq!((cache.len(), cache.cut_count()), (2, 2));
        // An evicted cut is a walk from further up, here from the roots.
        assert!(cache
            .deepest_cut(&name("example.com"), RrType::A, 1)
            .is_none());
        assert!(cache.get(&name("example.com"), RrType::A, 1).is_none());
        assert!(cache.deepest_cut(&name("d1.net"), RrType::A, 1).is_some());
        cache.clear();
        assert_eq!(cache.len() + cache.cut_count(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn flush_origin_drops_cuts_at_or_under_the_origin() {
        let cache = Cache::new();
        for apex in [".", "com", "example.com", "net", "example.net"] {
            cache.put_cut(&cut(apex), 300, 0);
        }
        cache.put(&name("www.example.com"), RrType::A, &answer(300), 0);
        assert_eq!(
            cache.flush_origin(&name("com")),
            3,
            "two cuts and the answer"
        );
        assert_eq!(cache.cut_count(), 3);
        let under_com = cache
            .deepest_cut(&name("www.example.com"), RrType::A, 1)
            .unwrap();
        assert!(under_com.apex.is_root());
        let under_net = cache
            .deepest_cut(&name("www.example.net"), RrType::A, 1)
            .unwrap();
        assert_eq!(under_net.apex, name("example.net"));
        assert_eq!(cache.flush_origin(&Name::root()), 3);
        assert_eq!(cache.cut_count(), 0);
    }

    #[test]
    fn one_key_works_on_any_cache_and_a_flush_needs_no_name_table() {
        // Two caches, as the two pools of a mixed fleet have: one key
        // serves both.
        let key = CacheKey::new(&name("www.example.com"), RrType::A);
        let shouted = CacheKey::new(&name("WWW.EXAMPLE.COM"), RrType::A);
        let outside = CacheKey::new(&name("www.example.net"), RrType::A);
        for cache in [Cache::bounded(64), Cache::new()] {
            cache.put_shared(&key, &Arc::new(answer(300)), 0);
            cache.put_shared(&outside, &Arc::new(answer(300)), 0);
            cache.put_cut(&cut("Example.COM"), 300, 0);
            assert!(
                cache.get_shared(&shouted, 1).is_some(),
                "any spelling, any cache"
            );
            // The subtree goes — answer and cut — by the names in the keys.
            assert_eq!(cache.flush_origin(&name("EXAMPLE.com")), 2);
            assert!(cache.get_shared(&key, 1).is_none());
            assert!(
                cache.get_shared(&outside, 1).is_some(),
                "outside the subtree"
            );
            assert_eq!((cache.len(), cache.cut_count()), (1, 0));
        }
    }

    #[test]
    fn shared_answers_are_not_deep_copied() {
        let cache = Cache::new();
        let key = CacheKey::new(&name("www.example.com"), RrType::A);
        cache.put_shared(&key, &Arc::new(answer(300)), 0);
        let first = cache.get_shared(&key, 10).unwrap();
        let second = cache.get_shared(&key, 10).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hits share one allocation");
        assert!(cache.get_shared(&key, 301).is_none(), "TTL still applies");
    }
}
