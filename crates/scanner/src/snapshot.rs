//! One day's scan: for every delegated SLD in every studied TLD, read the
//! NS and DS sets from the TLD zone (as OpenINTEL does from zone files)
//! and fetch the DNSKEY RRset + RRSIGs with a real DO-bit query; classify
//! and aggregate per (operator, TLD). A scan runs on the caller's
//! thread: one cache pass, one operator pass, one observation pass and a
//! bounded retry pass, each a plain loop in work-list order.

use std::collections::BTreeMap;
use std::sync::Arc;

use dsec_dnssec::{classify, DeploymentStatus};
use dsec_ecosystem::{SimDate, Tld, World, ALL_TLDS};
use dsec_resolver::ExchangeOutcome;
use dsec_wire::{FnvHashMap, Name, Rcode};

use crate::cache::{domain_key, Aggregate, CacheEntry, Contribution, DomainKey, ScanCache};

/// One delegation to scan: the borrowed name plus the columnar identity
/// the incremental cache keys on — the row-packed [`DomainKey`] and the
/// current change generation, read from the registry's columns (a dense
/// [`dsec_ecosystem::Registry::delegations_columnar`] sweep, or
/// [`dsec_ecosystem::Registry::delegation_at`] for a journaled row)
/// instead of a per-domain map probe.
pub(crate) struct ScanItem<'a> {
    pub(crate) name: &'a Name,
    pub(crate) tld: Tld,
    pub(crate) key: DomainKey,
    pub(crate) generation: u64,
}

/// Aggregate DNSSEC state of one (operator, TLD) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorStats {
    /// Delegated domains.
    pub domains: u64,
    /// Domains publishing at least one DNSKEY.
    pub with_dnskey: u64,
    /// Domains with a DS in the TLD zone.
    pub with_ds: u64,
    /// Fully deployed (complete, validating chain).
    pub fully_deployed: u64,
    /// Partially deployed (DNSKEY+RRSIG, no DS).
    pub partially_deployed: u64,
    /// Records present but the chain fails validation.
    pub misconfigured: u64,
    /// No nameserver answered within the retry budget; the served state
    /// is unknown and the domain is not classified.
    pub unreachable: u64,
    /// Servers answered only with error rcodes (SERVFAIL); the served
    /// state is unknown and the domain is not classified.
    pub indeterminate: u64,
}

impl OperatorStats {
    pub(crate) fn absorb(&mut self, other: &OperatorStats) {
        self.domains += other.domains;
        self.with_dnskey += other.with_dnskey;
        self.with_ds += other.with_ds;
        self.fully_deployed += other.fully_deployed;
        self.partially_deployed += other.partially_deployed;
        self.misconfigured += other.misconfigured;
        self.unreachable += other.unreachable;
        self.indeterminate += other.indeterminate;
    }

    /// Undoes an earlier [`OperatorStats::absorb`] of `other`.
    pub(crate) fn retract(&mut self, other: &OperatorStats) {
        self.domains -= other.domains;
        self.with_dnskey -= other.with_dnskey;
        self.with_ds -= other.with_ds;
        self.fully_deployed -= other.fully_deployed;
        self.partially_deployed -= other.partially_deployed;
        self.misconfigured -= other.misconfigured;
        self.unreachable -= other.unreachable;
        self.indeterminate -= other.indeterminate;
    }

    /// Every counter, in declaration order: the column order of the CSV
    /// exports and of a spill-file cell.
    pub(crate) fn counters(&self) -> [u64; 8] {
        [
            self.domains,
            self.with_dnskey,
            self.with_ds,
            self.fully_deployed,
            self.partially_deployed,
            self.misconfigured,
            self.unreachable,
            self.indeterminate,
        ]
    }

    /// Domains whose served state could not be observed this snapshot.
    pub fn unobserved(&self) -> u64 {
        self.unreachable + self.indeterminate
    }
}

/// Knobs for one snapshot scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOptions {
    /// Ignored: a scan runs on the caller's thread. Kept because
    /// `crates/benchmark/src/workloads/campaign.rs` builds a
    /// `ScanOptions` with it.
    #[doc(hidden)]
    pub threads: usize,
    /// NS-rotation rounds used when re-scanning a failed domain. Any
    /// value ≥ 1 re-scans (a single round is a legitimate second
    /// observation); `0` disables the retry pass entirely.
    pub retry_rounds: u32,
    /// Upper bound on how many failed domains are queued for the retry
    /// pass; failures beyond it keep their first-pass outcome.
    pub retry_limit: usize,
    /// Re-scan every domain even when a [`ScanCache`] is supplied; cache
    /// entries are still refreshed. Lets callers verify the cached path
    /// against a ground-truth full scan.
    pub force_full: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            threads: 1,
            retry_rounds: 3,
            retry_limit: 4096,
            force_full: false,
        }
    }
}

/// One day's aggregated scan.
///
/// (Kept as plain data; the longitudinal store serializes to CSV, which is
/// what the paper's plotting pipeline consumed.)
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Scan date.
    pub date: SimDate,
    /// Per (operator key, TLD) aggregates. The operator key is the
    /// canonical SLD of the NS records (String form for serialization).
    pub cells: BTreeMap<(String, Tld), OperatorStats>,
}

impl Snapshot {
    /// Scans every delegation in every studied TLD.
    pub fn take(world: &World) -> Snapshot {
        Self::take_filtered(world, &ALL_TLDS)
    }

    /// Scans only the given TLDs (per-figure focused worlds).
    pub fn take_filtered(world: &World, tlds: &[Tld]) -> Snapshot {
        Self::take_with_options(world, tlds, &ScanOptions::default())
    }

    /// Degradation-aware scan. Domains whose first pass ends unreachable
    /// or indeterminate are queued (bounded by
    /// [`ScanOptions::retry_limit`]) and re-scanned once with
    /// [`ScanOptions::retry_rounds`] NS rotations before their outcome is
    /// recorded — mirroring how OpenINTEL re-tries failed scans before
    /// writing a day's data. With the fault plane disabled no first-pass
    /// failure can occur and the result is identical to the fault-
    /// oblivious scan.
    pub fn take_with_options(world: &World, tlds: &[Tld], options: &ScanOptions) -> Snapshot {
        Self::scan(world, tlds, options, None)
    }

    /// Incremental scan: like [`Snapshot::take_with_options`], but domains
    /// whose change generation matches their entry in `cache` are answered
    /// from the cache without issuing any queries. Aggregation is
    /// commutative (per-cell addition), so the cached path produces cells
    /// identical to a full scan whenever cached entries match what a fresh
    /// scan would observe — which holds by construction with the fault
    /// plane off, and is protected under faults by never caching
    /// unreachable or indeterminate outcomes.
    ///
    /// When `cache` last scanned this very scope of this world, the scan
    /// is a *delta*: the registries' change journals, the unobserved rows
    /// and the lapsed validity windows name the few domains to look at,
    /// and everything else is the previous aggregate (see the
    /// [`crate::cache`] module docs). Otherwise it sweeps the population.
    /// Either way the cache ends up holding exactly the live population.
    pub fn take_cached(
        world: &World,
        tlds: &[Tld],
        options: &ScanOptions,
        cache: &mut ScanCache,
    ) -> Snapshot {
        Self::scan(world, tlds, options, Some(cache))
    }

    fn scan(
        world: &World,
        tlds: &[Tld],
        options: &ScanOptions,
        mut cache: Option<&mut ScanCache>,
    ) -> Snapshot {
        let now = world.today.epoch_seconds();
        // The warm path: a cache that last scanned this scope of this
        // world hands over its running aggregate and the short list of
        // rows that may have moved. `unlisted` rows are certain hits.
        let resumed = cache
            .as_deref_mut()
            .and_then(|cache| cache.resume(world, tlds, now, options.force_full));
        let swept = resumed.is_none();
        // Aggregation happens under shared `Arc<str>` operator keys (a
        // warm hit costs a refcount bump, not a String); the map is
        // converted to the `String`-keyed public cells at the end, one
        // allocation per distinct cell.
        let (pairs, mut agg, unlisted): (Vec<ScanItem<'_>>, Aggregate, u64) = match resumed {
            Some(resumed) => (resumed.work, resumed.aggregate, resumed.unlisted),
            // The fallback: enumerate the population by *borrowing* each
            // registry's columnar delegation table — names stay where
            // they are, and the change generation rides along from the
            // same dense sweep, so the cache pass never hashes a name or
            // probes a map for it.
            None => {
                let pairs = tlds
                    .iter()
                    .flat_map(|&tld| {
                        world.registry(tld).delegations_columnar().map(
                            move |(row, name, generation)| ScanItem {
                                name,
                                tld,
                                key: domain_key(tld, row),
                                generation,
                            },
                        )
                    })
                    .collect();
                (pairs, Aggregate::new(), 0)
            }
        };

        // The cache pass: a warm hit joins the aggregate under the
        // operator stored with its entry; everything else is scanned. The
        // change generation was already read by the enumeration and rides
        // on each [`ScanItem`], so this hashes one packed integer per
        // domain and never touches name bytes.
        let mut work: Vec<&ScanItem<'_>> = Vec::new();
        if let Some(cache) = cache.as_deref_mut() {
            let (mut hits, mut misses) = (unlisted, 0u64);
            for item in &pairs {
                if !options.force_full {
                    if let Some((operator, stats)) = cache.peek(item.key, item.generation, now) {
                        hits += 1;
                        agg.entry((operator, item.tld)).or_default().absorb(&stats);
                        continue;
                    }
                }
                misses += 1;
                work.push(item);
            }
            cache.note_lookups(hits, misses);
        } else {
            work.extend(&pairs);
        }

        // Operator attribution, only for the domains that will actually
        // be scanned: a cache hit reuses the operator stored with the
        // entry (every NS edit bumps the generation, so a generation
        // match implies the operator too).
        let operators = run_operators(world, &work);

        // First pass over the (possibly cache-reduced) work-list. Failed
        // observations queue for the bounded retry pass, in work-list
        // order so the bound is deterministic.
        let mut settled: Vec<ScannedDomain> = Vec::with_capacity(work.len());
        let mut retry: Vec<usize> = Vec::new();
        for (i, item) in work.iter().enumerate() {
            let (stats, window) = scan_domain(world, item.name, now, 1);
            if window.is_none() && options.retry_rounds >= 1 && retry.len() < options.retry_limit {
                retry.push(i);
            } else {
                settled.push((i, stats, window));
            }
        }

        // Retry pass, strictly after the first: each queued domain once
        // more, with `retry_rounds` NS rotations.
        for i in retry {
            let (stats, window) =
                scan_domain(world, work[i].name, now, options.retry_rounds.max(1));
            settled.push((i, stats, window));
        }

        let mut unobserved: FnvHashMap<DomainKey, Contribution> = FnvHashMap::default();
        for (i, stats, window) in settled {
            let (item, operator) = (work[i], operators[i].clone());
            match window {
                Some(window) => {
                    if let Some(cache) = cache.as_deref_mut() {
                        let entry = CacheEntry {
                            generation: item.generation,
                            window,
                            operator: operator.clone(),
                            stats,
                        };
                        cache.insert(item.key, entry);
                    }
                }
                // Unreachable/indeterminate outcomes are never cached,
                // but the aggregate counts them: the cache keeps them
                // aside to subtract next time.
                None => {
                    unobserved.insert(item.key, (operator.clone(), stats));
                }
            }
            agg.entry((operator, item.tld)).or_default().absorb(&stats);
        }

        let cells: BTreeMap<(String, Tld), OperatorStats> = agg
            .iter()
            .map(|((operator, tld), stats)| ((operator.to_string(), *tld), *stats))
            .collect();
        if let Some(cache) = cache {
            // A sweep holds the live list, so it prunes departed domains
            // unconditionally. (Stale entries could never be *served*
            // regardless: a re-registered name resumes at a strictly
            // larger generation.)
            let swept = swept.then_some(pairs.as_slice());
            cache.commit(world, tlds, now, agg, unobserved, swept);
        }
        Snapshot {
            date: world.today,
            cells,
        }
    }

    /// Aggregates over all operators for one TLD.
    pub fn tld_totals(&self, tld: Tld) -> OperatorStats {
        let mut total = OperatorStats::default();
        for ((_, t), stats) in &self.cells {
            if *t == tld {
                total.absorb(stats);
            }
        }
        total
    }

    /// Aggregates one operator across the given TLDs.
    pub fn operator_totals(&self, operator: &str, tlds: &[Tld]) -> OperatorStats {
        let mut total = OperatorStats::default();
        for ((op, t), stats) in &self.cells {
            if op == operator && tlds.contains(t) {
                total.absorb(stats);
            }
        }
        total
    }

    /// Per-operator totals across the given TLDs, descending by `metric`.
    pub fn operators_ranked(&self, tlds: &[Tld], metric: Metric) -> Vec<(String, OperatorStats)> {
        let mut agg: BTreeMap<&str, OperatorStats> = BTreeMap::new();
        for ((op, t), stats) in &self.cells {
            if tlds.contains(t) {
                agg.entry(op.as_str()).or_default().absorb(stats);
            }
        }
        let mut out: Vec<(String, OperatorStats)> =
            agg.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        out.sort_by(|a, b| metric.of(&b.1).cmp(&metric.of(&a.1)).then(a.0.cmp(&b.0)));
        out
    }
}

/// Which population a CDF/ranking counts (Figure 3's three curves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// All registered domains.
    All,
    /// Partially deployed domains.
    Partial,
    /// Fully deployed domains.
    Full,
    /// Domains with a DNSKEY (Table 3's ordering).
    WithDnskey,
}

impl Metric {
    /// Extracts the counted quantity.
    pub fn of(self, stats: &OperatorStats) -> u64 {
        match self {
            Metric::All => stats.domains,
            Metric::Partial => stats.partially_deployed,
            Metric::Full => stats.fully_deployed,
            Metric::WithDnskey => stats.with_dnskey,
        }
    }
}

/// The operator pass: every work item's operator key, in work-list order,
/// read from its registry's operator column by row. Each (TLD, operator
/// id) becomes one shared string per scan, not one per domain.
fn run_operators(world: &World, work: &[&ScanItem<'_>]) -> Vec<Arc<str>> {
    let no_ns: Arc<str> = Arc::from("(no-ns)");
    let mut keys: FnvHashMap<(Tld, u32), Arc<str>> = FnvHashMap::default();
    work.iter()
        .map(|item| {
            let registry = world.registry(item.tld);
            // The low half of the key is the registry row.
            let Some(id) = registry.operator_at(item.key as u32) else {
                return no_ns.clone();
            };
            let key = keys
                .entry((item.tld, id))
                .or_insert_with(|| Arc::from(registry.operators()[id as usize].to_string()));
            key.clone()
        })
        .collect()
}

/// One scanned domain: its position in the scan's work-list, its stats
/// cell, and the validity window of the verdict — `None` when the
/// observation failed (unreachable/indeterminate), which makes the domain
/// a candidate for the retry pass and keeps it out of every cache.
type ScannedDomain = (usize, OperatorStats, Option<(i64, i64)>);

/// Scans one domain into a single-domain stats cell plus the window its
/// classification holds for (see [`ScannedDomain`]). The observation's
/// exchange (DESIGN.md §18.1) decides whether there is anything to
/// classify: not when nobody answered (unreachable), or when only SERVFAIL
/// came back from a fleet that is not lame everywhere (indeterminate).
fn scan_domain(
    world: &World,
    domain: &Name,
    now: u32,
    rounds: u32,
) -> (OperatorStats, Option<(i64, i64)>) {
    let (obs, outcome) = world.observe(domain, rounds);
    let mut stats = OperatorStats {
        domains: 1,
        ..Default::default()
    };
    match outcome {
        ExchangeOutcome::Unreachable => {
            stats.unreachable = 1;
            return (stats, None);
        }
        ExchangeOutcome::Answered { response, .. } if response.rcode == Rcode::ServFail => {
            stats.indeterminate = 1;
            return (stats, None);
        }
        // An answer, a fleet lame everywhere ("no DNSKEY"), or nobody to
        // ask: all classified.
        _ => {}
    }
    if obs.has_dnskey() {
        stats.with_dnskey = 1;
    }
    if obs.has_ds() {
        stats.with_ds = 1;
    }
    match classify(domain, &obs, now) {
        DeploymentStatus::FullyDeployed => stats.fully_deployed = 1,
        DeploymentStatus::PartiallyDeployed => stats.partially_deployed = 1,
        DeploymentStatus::Misconfigured(_) => stats.misconfigured = 1,
        DeploymentStatus::NotDeployed | DeploymentStatus::InsecureUnsupported => {}
    }
    (stats, Some(obs.validity_window(now)))
}

/// The cumulative-coverage curve of Figure 3: for each operator rank k
/// (descending size), the fraction of the metric covered by the top k.
pub fn coverage_curve(snapshot: &Snapshot, tlds: &[Tld], metric: Metric) -> Vec<f64> {
    let ranked = snapshot.operators_ranked(tlds, metric);
    let total: u64 = ranked.iter().map(|(_, s)| metric.of(s)).sum();
    if total == 0 {
        return Vec::new();
    }
    let mut acc = 0u64;
    ranked
        .iter()
        .map(|(_, s)| {
            acc += metric.of(s);
            acc as f64 / total as f64
        })
        .collect()
}

/// How many operators (by rank) are needed to cover `fraction` of the
/// metric — the paper's "26 operators for 50% of all domains, 2 for 54%
/// of fully deployed" statistic.
pub fn operators_to_cover(
    snapshot: &Snapshot,
    tlds: &[Tld],
    metric: Metric,
    fraction: f64,
) -> usize {
    coverage_curve(snapshot, tlds, metric)
        .iter()
        .position(|&c| c >= fraction)
        .map(|p| p + 1)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(domains: u64, dnskey: u64, ds: u64, full: u64, partial: u64) -> OperatorStats {
        OperatorStats {
            domains,
            with_dnskey: dnskey,
            with_ds: ds,
            fully_deployed: full,
            partially_deployed: partial,
            ..OperatorStats::default()
        }
    }

    fn synthetic_snapshot() -> Snapshot {
        let mut cells = BTreeMap::new();
        cells.insert(("big.net".into(), Tld::Com), cell(100, 2, 2, 2, 0));
        cells.insert(("big.net".into(), Tld::Net), cell(50, 1, 1, 1, 0));
        cells.insert(("mid.net".into(), Tld::Com), cell(40, 30, 0, 0, 30));
        cells.insert(("small.net".into(), Tld::Com), cell(10, 10, 10, 10, 0));
        Snapshot {
            date: SimDate(0),
            cells,
        }
    }

    #[test]
    fn tld_totals_aggregate() {
        let s = synthetic_snapshot();
        let com = s.tld_totals(Tld::Com);
        assert_eq!(com.domains, 150);
        assert_eq!(com.with_dnskey, 42);
        let net = s.tld_totals(Tld::Net);
        assert_eq!(net.domains, 50);
        assert_eq!(s.tld_totals(Tld::Se).domains, 0);
    }

    #[test]
    fn operator_totals_span_tlds() {
        let s = synthetic_snapshot();
        let big = s.operator_totals("big.net", &[Tld::Com, Tld::Net]);
        assert_eq!(big.domains, 150);
        let com_only = s.operator_totals("big.net", &[Tld::Com]);
        assert_eq!(com_only.domains, 100);
    }

    #[test]
    fn ranking_orders_by_metric() {
        let s = synthetic_snapshot();
        let by_all = s.operators_ranked(&[Tld::Com, Tld::Net], Metric::All);
        assert_eq!(by_all[0].0, "big.net");
        let by_partial = s.operators_ranked(&[Tld::Com, Tld::Net], Metric::Partial);
        assert_eq!(by_partial[0].0, "mid.net");
        let by_full = s.operators_ranked(&[Tld::Com, Tld::Net], Metric::Full);
        assert_eq!(by_full[0].0, "small.net");
    }

    #[test]
    fn coverage_curve_is_monotone_to_one() {
        let s = synthetic_snapshot();
        let curve = coverage_curve(&s, &[Tld::Com, Tld::Net], Metric::All);
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
        assert!((curve.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn operators_to_cover_finds_rank() {
        let s = synthetic_snapshot();
        // All: 150/40/10 → top1 = 75%, so covering 50% needs 1 operator.
        assert_eq!(
            operators_to_cover(&s, &[Tld::Com, Tld::Net], Metric::All, 0.5),
            1
        );
        // Full: 10 (small) + 3 (big) → small covers 10/13 = 77%.
        assert_eq!(
            operators_to_cover(&s, &[Tld::Com, Tld::Net], Metric::Full, 0.5),
            1
        );
        assert_eq!(
            operators_to_cover(&s, &[Tld::Com, Tld::Net], Metric::Full, 0.9),
            2
        );
        // Empty metric yields rank 0.
        assert_eq!(operators_to_cover(&s, &[Tld::Se], Metric::All, 0.5), 0);
    }

    #[test]
    fn metric_extraction() {
        let c = cell(10, 5, 4, 3, 2);
        assert_eq!(Metric::All.of(&c), 10);
        assert_eq!(Metric::WithDnskey.of(&c), 5);
        assert_eq!(Metric::Full.of(&c), 3);
        assert_eq!(Metric::Partial.of(&c), 2);
    }
}
