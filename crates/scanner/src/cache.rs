//! The incremental scan cache: OpenINTEL-style cross-day reuse.
//!
//! A daily campaign re-scans every delegation in every studied TLD, but
//! between two consecutive days only a small fraction of domains change
//! (a signing, a DS upload, a hosting move). The ecosystem tracks a
//! per-domain *change generation* ([`dsec_ecosystem::World::domain_generation`])
//! that is bumped by every mutation a scan could observe; this cache
//! keys one classified per-domain stats cell on that generation so an
//! unchanged domain costs a map lookup instead of DNSKEY queries and
//! RSA signature verification.
//!
//! Each entry also remembers the domain's operator key: the operator is
//! derived from the NS set, every NS edit bumps the generation, so a
//! generation match guarantees the operator is current too. A warm hit
//! therefore skips the zone-file NS lookup as well as the queries.
//!
//! Invalidation rules (see DESIGN.md §9):
//! * an entry is reused only when the stored generation equals the
//!   domain's current generation **and** the scan time is still inside
//!   the RRSIG validity window the verdict was computed in — the
//!   classification depends on the clock, and signatures lapsing moves
//!   no generation;
//! * unreachable/indeterminate outcomes are **never** cached — a failed
//!   observation is re-attempted every snapshot;
//! * entries for domains that left the zone files are pruned after
//!   every cached scan, so the cache never outgrows the live population.
//!
//! Keys are packed [`DomainKey`]s — the registry's columnar row id, not
//! the `Name`. The columnar enumeration hands each scan item its row and
//! generation in one dense sweep, so the warm path hashes one integer
//! per domain and never touches name bytes at all.

use std::sync::{Arc, RwLock, RwLockReadGuard};

use dsec_ecosystem::Tld;
use dsec_wire::{FnvHashMap, FnvHashSet};

use crate::snapshot::OperatorStats;

/// The scan-scope-stable identity of one delegation: the studied TLD in
/// the high 32 bits, the registry's columnar row in the low 32. Rows are
/// never reused within a world ([`dsec_ecosystem::DomainTable`] keeps
/// dead rows), so a key can only ever mean one name.
pub type DomainKey = u64;

/// Packs a (TLD, columnar row) pair into a [`DomainKey`].
#[inline]
pub fn domain_key(tld: Tld, row: u32) -> DomainKey {
    ((tld as u64) << 32) | row as u64
}

/// One classified domain: what was seen, and how long it stays true.
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    pub(crate) generation: u64,
    /// [`dsec_dnssec::Observation::validity_window`] at scan time.
    pub(crate) window: (i64, i64),
    pub(crate) operator: Arc<str>,
    pub(crate) stats: OperatorStats,
}

impl CacheEntry {
    /// The cell, if it still is what a scan at (`generation`, `now`)
    /// would classify.
    fn get(&self, generation: u64, now: u32) -> Option<(Arc<str>, OperatorStats)> {
        let now = i64::from(now);
        (self.generation == generation && self.window.0 < now && now < self.window.1)
            .then(|| (self.operator.clone(), self.stats))
    }
}

/// Point-in-time counters of cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (domain unchanged).
    pub hits: u64,
    /// Lookups that fell through to a real scan (changed, new, forced,
    /// or previously unobservable).
    pub misses: u64,
    /// Entries currently held.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cross-snapshot cache of classified per-domain scan results.
#[derive(Debug, Clone, Default)]
pub struct ScanCache {
    entries: FnvHashMap<DomainKey, CacheEntry>,
    hits: u64,
    misses: u64,
    /// (scan-scope fingerprint, summed registry population epoch) at the
    /// last departed-domain prune. The prune rehashes the whole
    /// population, so scans skip it while no delegation was added or
    /// removed — the epoch moves exactly when the population set does.
    pruned_at: Option<(u64, u64)>,
}

impl ScanCache {
    /// An empty cache: the first scan through it is fully cold.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached (operator key, stats cell) for `key` if it was
    /// classified at exactly `generation` and `now` is inside the
    /// validity window of that verdict. Counts a hit or a miss.
    pub fn lookup(
        &mut self,
        key: DomainKey,
        generation: u64,
        now: u32,
    ) -> Option<(Arc<str>, OperatorStats)> {
        let found = self.peek(key, generation, now);
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// [`ScanCache::lookup`] **without** touching the hit/miss counters.
    /// This is the shared-read half of the parallel cache pass: workers
    /// peek through `&ScanCache` concurrently and tally hits/misses
    /// privately, then the merge step records them once via
    /// [`ScanCache::note_lookups`].
    pub fn peek(
        &self,
        key: DomainKey,
        generation: u64,
        now: u32,
    ) -> Option<(Arc<str>, OperatorStats)> {
        self.entries.get(&key)?.get(generation, now)
    }

    /// Folds externally tallied lookup counts (from [`ScanCache::peek`]
    /// passes) into the effectiveness counters.
    pub(crate) fn note_lookups(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }

    /// Stores the classified cell for `key` at `generation`, good while
    /// the clock stays inside `window`. Callers must not insert
    /// unobserved (unreachable/indeterminate) outcomes; this is enforced
    /// with a debug assertion.
    pub fn insert(
        &mut self,
        key: DomainKey,
        generation: u64,
        window: (i64, i64),
        operator: Arc<str>,
        stats: OperatorStats,
    ) {
        debug_assert_eq!(
            stats.unobserved(),
            0,
            "unobserved outcomes must never be cached"
        );
        self.entries.insert(
            key,
            CacheEntry {
                generation,
                window,
                operator,
                stats,
            },
        );
    }

    /// Drops entries for domains not in `live`: keeps the cache bounded
    /// by the current population.
    pub fn retain_live(&mut self, live: &FnvHashSet<DomainKey>) {
        self.entries.retain(|key, _| live.contains(key));
    }

    /// Whether a departed-domain prune is due for a scan scope identified
    /// by `fingerprint` whose registries sum to `epoch`: true unless the
    /// last prune saw the exact same (scope, epoch), i.e. unless no
    /// delegation can have been added or removed since.
    pub(crate) fn needs_prune(&self, fingerprint: u64, epoch: u64) -> bool {
        self.pruned_at != Some((fingerprint, epoch))
    }

    /// Records that the cache was pruned against the population state
    /// identified by (`fingerprint`, `epoch`).
    pub(crate) fn note_pruned(&mut self, fingerprint: u64, epoch: u64) {
        self.pruned_at = Some((fingerprint, epoch));
    }

    /// Number of cached domains.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets everything, including the hit/miss counters.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.hits = 0;
        self.misses = 0;
        self.pruned_at = None;
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
        }
    }
}

/// World-lifetime scan memo: the second cache level under [`ScanCache`].
///
/// A [`ScanCache`] lives with one campaign, so every new campaign —
/// and every bench run that deliberately starts one cold — re-scans a
/// world whose authority plane is unchanged. The memo holds the same
/// generation-stamped classified cells, but it is parked in the
/// world's [`dsec_ecosystem::Annex`] and therefore lives exactly as
/// long as the world: the cache pass probes it on every [`ScanCache`]
/// miss, so a *fresh* cache over an already-scanned world costs one
/// extra map probe per domain instead of DNSKEY queries and RSA
/// verification. Memo hits are never written back into the
/// [`ScanCache`] — both levels are probed in the same fused sweep, so
/// a write-back would buy nothing and cold scans would pay an insert
/// per domain.
///
/// It follows [`ScanCache`]'s invalidation rules to the letter (exact
/// generation match inside the verdict's validity window; unobserved
/// outcomes never stored), and two extra
/// guards keep it pure: the scan pipeline bypasses it entirely while
/// the fault plane is enabled (failure draws must not be replayed from
/// a cache) and under `force_full` (a ground-truth scan must not read
/// any cache). Entries for departed domains are left in place — a
/// re-registered name resumes its *row* (rows are per-name-stable) at
/// a strictly larger generation, so they can never be served.
///
/// The memo is an optimization, not working state, so its size is hard
/// capped ([`MEMO_CAP`] entries): a full memo keeps refreshing keys it
/// already holds (their generation moved) but admits no new keys. Below
/// the cap the map stays bounded by every name the world has ever
/// delegated; past it, campaigns simply lean on their own per-campaign
/// [`ScanCache`], which is unaffected.
#[derive(Debug)]
pub(crate) struct ScanMemo {
    entries: RwLock<FnvHashMap<DomainKey, CacheEntry>>,
    cap: usize,
}

/// World-lifetime memo entry cap: comfortably above the 1:200-scale
/// population (~743 K), deliberately below 1:20 (~7.4 M) so the memo's
/// footprint stops tracking the population at campaign scale.
const MEMO_CAP: usize = 2 * 1024 * 1024;

impl Default for ScanMemo {
    fn default() -> Self {
        Self::with_capacity(MEMO_CAP)
    }
}

impl ScanMemo {
    /// A memo admitting at most `cap` keys (tests use tiny caps; the
    /// world annex uses [`MEMO_CAP`] via `default`).
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Self {
            entries: RwLock::new(FnvHashMap::default()),
            cap,
        }
    }
    /// A read view for one worker's sweep: the lock is taken once per
    /// chunk, not once per probe. Readers share; [`ScanMemo::store`]
    /// waits until every view is dropped.
    pub(crate) fn view(&self) -> MemoView<'_> {
        MemoView {
            entries: self.entries.read().expect("scan memo lock"),
        }
    }

    /// Stores freshly classified cells, under one write lock. A full
    /// memo refreshes keys it already holds and drops the rest.
    /// Unobserved outcomes must be filtered out by the caller, exactly
    /// as for [`ScanCache::insert`].
    pub(crate) fn store(&self, cells: impl IntoIterator<Item = (DomainKey, CacheEntry)>) {
        let mut entries = self.entries.write().expect("scan memo lock");
        for (key, entry) in cells {
            debug_assert_eq!(
                entry.stats.unobserved(),
                0,
                "unobserved outcomes must never be cached"
            );
            if entries.len() >= self.cap && !entries.contains_key(&key) {
                continue;
            }
            entries.insert(key, entry);
        }
    }
}

/// A frozen read view of a [`ScanMemo`] (see [`ScanMemo::view`]).
pub(crate) struct MemoView<'a> {
    entries: RwLockReadGuard<'a, FnvHashMap<DomainKey, CacheEntry>>,
}

impl MemoView<'_> {
    /// The memoized (operator key, stats cell) for `key`, under
    /// [`ScanCache::peek`]'s rule.
    pub(crate) fn get(
        &self,
        key: DomainKey,
        generation: u64,
        now: u32,
    ) -> Option<(Arc<str>, OperatorStats)> {
        self.entries.get(&key)?.get(generation, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(row: u32) -> DomainKey {
        domain_key(Tld::Com, row)
    }

    fn op(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    /// A scan time, and a window that never closes around it.
    const NOW: u32 = 1_000;
    const ALWAYS: (i64, i64) = (i64::MIN, i64::MAX);

    fn entry(generation: u64, operator: &str, stats: OperatorStats) -> CacheEntry {
        CacheEntry {
            generation,
            window: ALWAYS,
            operator: op(operator),
            stats,
        }
    }

    fn cell(domains: u64) -> OperatorStats {
        OperatorStats {
            domains,
            ..OperatorStats::default()
        }
    }

    #[test]
    fn packed_keys_separate_tlds_and_rows() {
        assert_ne!(domain_key(Tld::Com, 7), domain_key(Tld::Net, 7));
        assert_ne!(domain_key(Tld::Com, 7), domain_key(Tld::Com, 8));
        assert_eq!(domain_key(Tld::Nl, 3), domain_key(Tld::Nl, 3));
    }

    #[test]
    fn lookup_hits_only_on_matching_generation() {
        let mut cache = ScanCache::new();
        assert!(cache.lookup(key(0), 1, NOW).is_none(), "cold miss");
        cache.insert(key(0), 1, ALWAYS, op("ns.host.net"), cell(1));
        assert_eq!(
            cache.lookup(key(0), 1, NOW),
            Some((op("ns.host.net"), cell(1)))
        );
        assert!(cache.lookup(key(0), 2, NOW).is_none(), "stale generation");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn entries_lapse_at_the_edges_of_their_validity_window() {
        let mut cache = ScanCache::new();
        cache.insert(key(0), 1, (900, 1_100), op("x.net"), cell(1));
        assert!(cache.peek(key(0), 1, 901).is_some());
        assert!(cache.peek(key(0), 1, 1_099).is_some());
        // Both edges are exclusive: the time check flips *at* the edge.
        assert!(cache.peek(key(0), 1, 900).is_none());
        assert!(cache.peek(key(0), 1, 1_100).is_none());
        assert!(
            cache.lookup(key(0), 1, 2_000).is_none(),
            "signatures lapsed"
        );

        let memo = ScanMemo::default();
        memo.store([(
            key(0),
            CacheEntry {
                window: (900, 1_100),
                ..entry(1, "x.net", cell(1))
            },
        )]);
        assert!(memo.view().get(key(0), 1, NOW).is_some());
        assert!(memo.view().get(key(0), 1, 1_100).is_none());
    }

    #[test]
    fn retain_live_prunes_departed_domains() {
        let mut cache = ScanCache::new();
        cache.insert(key(0), 1, ALWAYS, op("x.net"), cell(1));
        cache.insert(key(1), 1, ALWAYS, op("x.net"), cell(1));
        let live: FnvHashSet<DomainKey> = [key(0)].into_iter().collect();
        cache.retain_live(&live);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(key(0), 1, NOW).is_some());
    }

    #[test]
    fn clear_resets_counters() {
        let mut cache = ScanCache::new();
        cache.insert(key(0), 1, ALWAYS, op("x.net"), cell(1));
        cache.lookup(key(0), 1, NOW);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "never be cached")]
    #[cfg(debug_assertions)]
    fn unobserved_outcomes_rejected() {
        let mut cache = ScanCache::new();
        let mut stats = cell(1);
        stats.unreachable = 1;
        cache.insert(key(0), 1, ALWAYS, op("x.net"), stats);
    }

    #[test]
    fn memo_hits_only_on_exact_generation() {
        let memo = ScanMemo::default();
        memo.store([
            (key(0), entry(1, "x.net", cell(1))),
            (key(2), entry(5, "y.net", cell(1))),
        ]);
        let view = memo.view();
        assert_eq!(view.get(key(0), 1, NOW), Some((op("x.net"), cell(1))));
        assert_eq!(view.get(key(1), 9, NOW), None, "never stored");
        assert_eq!(view.get(key(2), 4, NOW), None, "stale generation");
        drop(view);

        // Refresh row 2 at its current generation: the next view hits.
        memo.store([(key(2), entry(4, "y.net", cell(1)))]);
        assert_eq!(
            memo.view().get(key(2), 4, NOW),
            Some((op("y.net"), cell(1)))
        );
    }

    #[test]
    fn memo_cap_refreshes_held_keys_but_admits_no_new_ones() {
        let memo = ScanMemo::with_capacity(2);
        memo.store([
            (key(0), entry(1, "x.net", cell(1))),
            (key(1), entry(1, "x.net", cell(1))),
            (key(2), entry(1, "y.net", cell(1))),
        ]);
        // Third key arrived over the cap: dropped, never served.
        assert_eq!(memo.view().get(key(2), 1, NOW), None);

        // Held keys still refresh in place at their new generation...
        memo.store([(key(0), entry(7, "z.net", cell(2)))]);
        assert_eq!(
            memo.view().get(key(0), 7, NOW),
            Some((op("z.net"), cell(2)))
        );
        assert_eq!(memo.view().get(key(0), 1, NOW), None, "old generation gone");

        // ...and a refresh does not open a slot for new keys.
        memo.store([(key(3), entry(1, "x.net", cell(1)))]);
        assert_eq!(memo.view().get(key(3), 1, NOW), None);
        assert_eq!(
            memo.view().get(key(1), 1, NOW),
            Some((op("x.net"), cell(1)))
        );
    }

    #[test]
    #[should_panic(expected = "never be cached")]
    #[cfg(debug_assertions)]
    fn memo_rejects_unobserved_outcomes() {
        let memo = ScanMemo::default();
        let mut stats = cell(1);
        stats.indeterminate = 1;
        memo.store([(key(0), entry(1, "x.net", stats))]);
    }
}
