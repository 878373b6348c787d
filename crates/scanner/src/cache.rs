//! The incremental scan cache: OpenINTEL-style cross-day reuse.
//!
//! A daily campaign re-scans every delegation in every studied TLD, but
//! between two consecutive days only a small fraction of domains change
//! (a signing, a DS upload, a hosting move). The ecosystem tracks a
//! per-domain *change generation* ([`dsec_ecosystem::World::domain_generation`])
//! that is bumped by every mutation a scan could observe, and journals
//! every bump ([`dsec_ecosystem::Registry::changes_since`]). This cache
//! keys one classified per-domain stats cell on that generation, and —
//! for the scope it last scanned — keeps the *sum* of those cells, so a
//! warm snapshot costs what changed since the previous one, not the
//! population.
//!
//! Each entry also remembers the domain's operator key: the operator is
//! derived from the NS set, every NS edit bumps the generation, so a
//! generation match guarantees the operator is current too.
//!
//! Invalidation rules (see DESIGN.md §9):
//! * an entry is reused only when the stored generation equals the
//!   domain's current generation **and** the scan time is still inside
//!   the RRSIG validity window the verdict was computed in — the
//!   classification depends on the clock, and signatures lapsing moves
//!   no generation;
//! * unreachable/indeterminate outcomes are **never** cached — a failed
//!   observation is re-attempted every snapshot;
//! * an entry whose delegation left the zone file is dropped by the scan
//!   that learns of it, so the cache never outgrows the live population.
//!
//! ## The warm path
//!
//! After every cached scan the cache holds the `DeltaState` of that
//! scan: the running `(operator, TLD)` aggregate, one journal cursor per
//! TLD, and the contribution of every live row that has no servable
//! entry. Its invariant is *aggregate = Σ over the live in-scope rows of
//! the row's last contribution*. The next scan (`ScanCache::resume`)
//! lists the rows the journals name since the cursors, the unobserved
//! rows and the entries whose validity window has closed (a min-heap of
//! the finite upper edges), subtracts their old contributions, and hands
//! that short list — in the sweep's own (TLD, canonical name) order — to
//! the same peek → operator → scan → retry pipeline a sweep runs.
//! Every row not on the list is a certain hit and is counted as one
//! without being touched.
//!
//! The population sweep remains as the one fallback, chosen only from
//! what the cache can observe: no state yet (first scan), a different
//! TLD scope, `force_full`, a cursor the journal has forgotten or that
//! another world issued, or a clock that moved backwards. A sweep
//! rebuilds the state. [`ScanCache::check_against_sweep`] recomputes all
//! of it from the registries (test support).
//!
//! Keys are packed [`DomainKey`]s — the registry's columnar row id, not
//! the `Name` — so neither path hashes name bytes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use dsec_ecosystem::{Freshness, JournalCursor, Tld, World};
use dsec_wire::{FnvHashMap, FnvHashSet};

use crate::snapshot::{OperatorStats, ScanItem};

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

/// The TLD half of `key`, which must be one of `scope`'s.
fn key_tld(scope: &[Tld], key: DomainKey) -> Tld {
    scope
        .iter()
        .copied()
        .find(|&tld| tld as u64 == key >> 32)
        .expect("every key the cache holds is in scope: a scope change sweeps and prunes")
}

/// One classified domain: what was seen, and how long it stays true.
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    pub(crate) fresh: Freshness,
    pub(crate) operator: Arc<str>,
    pub(crate) stats: OperatorStats,
}

impl CacheEntry {
    /// What this entry's row adds to its (operator, TLD) cell.
    fn contribution(&self) -> Contribution {
        (self.operator.clone(), self.stats)
    }
}

/// What one row adds to the aggregate: its operator key and its
/// single-domain stats cell.
pub(crate) type Contribution = (Arc<str>, OperatorStats);

/// Per-(operator, TLD) sums under shared `Arc<str>` operator keys.
pub(crate) type Aggregate = HashMap<(Arc<str>, Tld), OperatorStats>;

/// What a cached scan leaves behind for the next one (see the module
/// docs). Invariant: `aggregate` is the sum, over the rows that were
/// live in `scope` when `cursors` were taken, of `unobserved[row]` if
/// present and of the row's entry otherwise.
#[derive(Debug, Clone)]
struct DeltaState {
    /// The TLDs scanned, in scan order (no duplicates).
    scope: Vec<Tld>,
    /// The scan's clock; an earlier one next time means a sweep.
    now: u32,
    /// Where each scoped registry's change journal ended.
    cursors: Vec<JournalCursor>,
    aggregate: Aggregate,
    /// Live rows whose last outcome was unreachable/indeterminate — no
    /// entry may hold it, yet the aggregate counts it.
    unobserved: FnvHashMap<DomainKey, Contribution>,
}

/// A warm scan's starting point (see [`ScanCache::resume`]).
pub(crate) struct Resumed<'w> {
    /// The previous aggregate minus the old contributions of `work`.
    pub(crate) aggregate: Aggregate,
    /// The live rows that must go through the pipeline again, in sweep
    /// order.
    pub(crate) work: Vec<ScanItem<'w>>,
    /// How many live in-scope rows are not in `work`: certain hits.
    pub(crate) unlisted: u64,
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
    /// `(upper validity edge, key)` of every entry whose window closes,
    /// soonest first. An item is current while its entry still carries
    /// that edge; replaced or dropped entries leave items behind that
    /// are discarded when their time comes.
    lapses: BinaryHeap<Reverse<(i64, DomainKey)>>,
    /// `None` until a scan completes, and while one is running.
    delta: Option<DeltaState>,
}

impl ScanCache {
    /// An empty cache: the first scan through it is fully cold.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached (operator key, stats cell) for `key` if it was
    /// classified at exactly `generation` and `now` is inside the
    /// validity window of that verdict. Does not touch the hit/miss
    /// counters: the scan's cache pass tallies hits and misses itself and
    /// records them once via `ScanCache::note_lookups`, together with the
    /// rows a warm scan never had to look at.
    pub fn peek(
        &self,
        key: DomainKey,
        generation: u64,
        now: u32,
    ) -> Option<(Arc<str>, OperatorStats)> {
        let entry = self.entries.get(&key)?;
        entry
            .fresh
            .holds(generation, now)
            .then(|| entry.contribution())
    }

    /// Folds externally tallied lookup counts (from [`ScanCache::peek`]
    /// passes, and the rows a warm scan never had to look at) into the
    /// effectiveness counters.
    pub(crate) fn note_lookups(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }

    /// Stores the classified cell for `key`, good at the entry's
    /// generation while the clock stays inside its window. Callers must
    /// not insert unobserved (unreachable/indeterminate) outcomes; this
    /// is enforced with a debug assertion. The scan pipeline's: an insert
    /// behind its back would not be in the aggregate.
    pub(crate) fn insert(&mut self, key: DomainKey, entry: CacheEntry) {
        debug_assert_eq!(
            entry.stats.unobserved(),
            0,
            "unobserved outcomes must never be cached"
        );
        if entry.fresh.window.1 != i64::MAX {
            self.lapses.push(Reverse((entry.fresh.window.1, key)));
        }
        self.entries.insert(key, entry);
    }

    /// Opens a warm scan of `tlds` at `now`, or returns `None` when only
    /// a sweep can be trusted: no state from a previous scan, a different
    /// scope, `force_full`, a journal cursor the registry no longer
    /// honours (forgotten, or issued by another world), or a clock that
    /// moved backwards. Either way the previous state is consumed; the
    /// scan installs its own with [`ScanCache::commit`].
    pub(crate) fn resume<'w>(
        &mut self,
        world: &'w World,
        tlds: &[Tld],
        now: u32,
        force_full: bool,
    ) -> Option<Resumed<'w>> {
        let mut state = self.delta.take()?;
        if force_full || state.scope != tlds || now < state.now {
            return None;
        }
        let mut keys: Vec<DomainKey> = state.unobserved.keys().copied().collect();
        for (&tld, &cursor) in tlds.iter().zip(&state.cursors) {
            let rows = world.registry(tld).changes_since(cursor)?;
            keys.extend(rows.iter().map(|&row| domain_key(tld, row)));
        }
        while let Some(&Reverse((upper, key))) = self.lapses.peek() {
            if upper > i64::from(now) {
                break;
            }
            self.lapses.pop();
            if self
                .entries
                .get(&key)
                .is_some_and(|e| e.fresh.window.1 == upper)
            {
                keys.push(key);
            }
        }
        keys.sort_unstable();
        keys.dedup();

        let position = |tld: Tld| tlds.iter().position(|&t| t == tld);
        let mut work: Vec<ScanItem<'w>> = Vec::with_capacity(keys.len());
        for key in keys {
            let tld = key_tld(tlds, key);
            let old = state
                .unobserved
                .remove(&key)
                .or_else(|| self.entries.get(&key).map(CacheEntry::contribution));
            if let Some((operator, stats)) = old {
                // An emptied cell must vanish, as a sweep would never
                // emit it.
                let cell = (operator, tld);
                let sum = state
                    .aggregate
                    .get_mut(&cell)
                    .expect("a contribution was added to its cell");
                sum.retract(&stats);
                if *sum == OperatorStats::default() {
                    state.aggregate.remove(&cell);
                }
            }
            match world.registry(tld).delegation_at(key as u32) {
                Some((name, generation)) => work.push(ScanItem {
                    name,
                    tld,
                    key,
                    generation,
                }),
                None => {
                    self.entries.remove(&key);
                }
            }
        }
        let ranks: Vec<_> = tlds
            .iter()
            .map(|&tld| world.registry(tld).delegation_ranks())
            .collect();
        // Keys are distinct, so every (TLD, rank) is: unstable is exact.
        work.sort_unstable_by_key(|item| {
            let at = position(item.tld).expect("work items are in scope");
            (at, ranks[at].of(item.key as u32))
        });
        let live: usize = tlds
            .iter()
            .map(|&tld| world.registry(tld).delegation_count())
            .sum();
        Some(Resumed {
            aggregate: state.aggregate,
            unlisted: (live - work.len()) as u64,
            work,
        })
    }

    /// Installs the state a finished scan of `tlds` at `now` leaves for
    /// the next one: its `aggregate`, and the contributions it could not
    /// store as entries. A sweep hands over the live list it `swept`: it
    /// prunes the entries of departed domains against it (a warm scan
    /// dropped them as it read the journal) and rebuilds the lapse index
    /// (which a warm scan maintains through [`ScanCache::insert`]).
    pub(crate) fn commit(
        &mut self,
        world: &World,
        tlds: &[Tld],
        now: u32,
        aggregate: Aggregate,
        unobserved: FnvHashMap<DomainKey, Contribution>,
        swept: Option<&[ScanItem<'_>]>,
    ) {
        if let Some(live) = swept {
            let live: FnvHashSet<DomainKey> = live.iter().map(|item| item.key).collect();
            self.entries.retain(|key, _| live.contains(key));
            self.lapses = self
                .entries
                .iter()
                .filter(|(_, entry)| entry.fresh.window.1 != i64::MAX)
                .map(|(&key, entry)| Reverse((entry.fresh.window.1, key)))
                .collect();
        }
        // A scope naming a TLD twice counts its rows twice; a journal
        // names them once. Such a scope keeps sweeping.
        let distinct = (1..tlds.len()).all(|i| !tlds[..i].contains(&tlds[i]));
        self.delta = distinct.then(|| DeltaState {
            scope: tlds.to_vec(),
            now,
            cursors: tlds
                .iter()
                .map(|&tld| world.registry(tld).journal_cursor())
                .collect(),
            aggregate,
            unobserved,
        });
    }

    /// Recomputes by full sweep of `world`'s registries what the warm
    /// path maintains incrementally — the aggregate, the unobserved set
    /// and the lapse index — and compares (test support). Rows journaled
    /// since the last scan are allowed to lag; everything else must be
    /// exactly what a sweep at the last scan's time would have served.
    #[doc(hidden)]
    pub fn check_against_sweep(&self, world: &World) -> Result<(), String> {
        let Some(state) = &self.delta else {
            return Ok(());
        };
        let mut pending: FnvHashSet<DomainKey> = FnvHashSet::default();
        for (&tld, &cursor) in state.scope.iter().zip(&state.cursors) {
            match world.registry(tld).changes_since(cursor) {
                Some(rows) => pending.extend(rows.iter().map(|&row| domain_key(tld, row))),
                // The next scan sweeps and trusts none of this state.
                None => return Ok(()),
            }
        }
        let lapses: FnvHashSet<(i64, DomainKey)> =
            self.lapses.iter().map(|&Reverse(item)| item).collect();
        let stored = |key: &DomainKey| {
            state
                .unobserved
                .get(key)
                .cloned()
                .or_else(|| self.entries.get(key).map(CacheEntry::contribution))
        };

        let mut swept = Aggregate::new();
        let mut live: FnvHashSet<DomainKey> = FnvHashSet::default();
        for &tld in &state.scope {
            for (row, name, generation) in world.registry(tld).delegations_columnar() {
                let key = domain_key(tld, row);
                live.insert(key);
                if pending.contains(&key) {
                    continue;
                }
                if !state.unobserved.contains_key(&key) {
                    let entry = self
                        .entries
                        .get(&key)
                        .ok_or_else(|| format!("{name}: live, but contributes nothing"))?;
                    if entry.fresh.generation != generation {
                        return Err(format!(
                            "{name}: cached at generation {}, now at {generation}, not journaled",
                            entry.fresh.generation
                        ));
                    }
                    // (A verdict taken *on* an edge has the empty window
                    // (now, now): closed already, so in the lapse index.)
                    let then = i64::from(state.now);
                    if entry.fresh.window.0 >= then && entry.fresh.window.1 > then {
                        return Err(format!(
                            "{name}: window {:?} opens after the last scan ({then})",
                            entry.fresh.window
                        ));
                    }
                    if entry.fresh.window.1 != i64::MAX
                        && !lapses.contains(&(entry.fresh.window.1, key))
                    {
                        return Err(format!(
                            "{name}: window {:?} is missing from the lapse index",
                            entry.fresh.window
                        ));
                    }
                }
                let (operator, stats) = stored(&key).expect("checked above");
                swept.entry((operator, tld)).or_default().absorb(&stats);
            }
        }
        for &key in &pending {
            if let Some((operator, stats)) = stored(&key) {
                let cell = (operator, key_tld(&state.scope, key));
                swept.entry(cell).or_default().absorb(&stats);
            }
        }
        let departed = |key: &&DomainKey| !live.contains(*key) && !pending.contains(*key);
        if let Some(key) = state.unobserved.keys().find(departed) {
            return Err(format!("unobserved set holds departed row {key:#x}"));
        }
        if let Some(key) = self.entries.keys().find(departed) {
            return Err(format!("an entry outlived its delegation {key:#x}"));
        }
        if swept != state.aggregate {
            let mut cells: Vec<_> = swept.keys().chain(state.aggregate.keys()).collect();
            cells.sort();
            cells.dedup();
            let diverged: Vec<String> = cells
                .into_iter()
                .filter(|cell| swept.get(cell) != state.aggregate.get(cell))
                .map(|cell| {
                    format!(
                        "{cell:?}: kept {:?}, swept {:?}",
                        state.aggregate.get(cell),
                        swept.get(cell)
                    )
                })
                .collect();
            return Err(format!("aggregate diverged: {}", diverged.join("; ")));
        }
        Ok(())
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
        *self = Self::default();
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
            fresh: Freshness {
                generation,
                window: ALWAYS,
            },
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
        assert!(cache.peek(key(0), 1, NOW).is_none(), "cold miss");
        cache.insert(key(0), entry(1, "ns.host.net", cell(1)));
        assert_eq!(
            cache.peek(key(0), 1, NOW),
            Some((op("ns.host.net"), cell(1)))
        );
        assert!(cache.peek(key(0), 2, NOW).is_none(), "stale generation");
        // Peeking counts nothing; the pass that peeked reports its tally.
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
        cache.note_lookups(1, 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn entries_lapse_at_the_edges_of_their_validity_window() {
        let lapsing = CacheEntry {
            fresh: Freshness {
                generation: 1,
                window: (900, 1_100),
            },
            ..entry(1, "x.net", cell(1))
        };
        let mut cache = ScanCache::new();
        cache.insert(key(0), lapsing);
        assert!(cache.peek(key(0), 1, 901).is_some());
        assert!(cache.peek(key(0), 1, 1_099).is_some());
        // Both edges are exclusive: the time check flips *at* the edge.
        assert!(cache.peek(key(0), 1, 900).is_none());
        assert!(cache.peek(key(0), 1, 1_100).is_none());
        assert!(cache.peek(key(0), 1, 2_000).is_none(), "signatures lapsed");
    }

    #[test]
    fn clear_resets_counters() {
        let mut cache = ScanCache::new();
        cache.insert(key(0), entry(1, "x.net", cell(1)));
        cache.note_lookups(1, 0);
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
        cache.insert(key(0), entry(1, "x.net", stats));
    }
}
