//! # dsec-scanner — the OpenINTEL-equivalent measurement pipeline
//!
//! Reproduces the paper's data-collection methodology (§4): enumerate
//! every second-level domain from each TLD zone, read its NS and DS sets
//! from that zone, fetch its DNSKEY RRset and RRSIGs with a DNSSEC-OK
//! query to the delegated nameservers, classify the deployment state, and
//! aggregate per (DNS operator, TLD). Operators are identified by the
//! second-level domain of the NS records with the paper's special-case
//! rules ([`operator_id`]).
//!
//! [`snapshot::Snapshot`] is one day's scan; [`store::LongitudinalStore`]
//! holds the 21-month sequence the figures are drawn from;
//! [`scan_campaign`] drives a whole measurement window.

#![warn(missing_docs)]

pub mod cache;
pub mod census;
pub mod operator_id;
pub mod snapshot;
pub mod store;
pub mod stream;

pub use cache::{CacheStats, ScanCache};
pub use census::{
    census_table, poison_census, rollover_census, takeover_census, CensusRow,
    OperatorRolloverStats, RegistrarPoisonStats, RegistrarTakeoverStats,
};
pub use operator_id::{largest_operator_fleet, operator_key, operator_of};
pub use snapshot::{
    coverage_curve, operators_to_cover, Metric, OperatorStats, ScanOptions, Snapshot,
};
pub use store::{LongitudinalStore, SeriesPoint};
pub use stream::{scan_campaign_streamed, SnapshotWriter, StreamedStore};

use std::io;

use dsec_ecosystem::{SimDate, Tld, World, ALL_TLDS};

/// Campaign parameters for [`scan_campaign`].
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Last day to scan (inclusive).
    pub until: SimDate,
    /// Days between snapshots (1 = daily like OpenINTEL; 7 keeps the full
    /// 21-month window tractable at population scale).
    pub interval_days: u32,
    /// TLDs to scan.
    pub tlds: Vec<Tld>,
    /// Ignored: every snapshot is scanned on the caller's thread. Kept
    /// because `crates/benchmark/src/workloads/campaign.rs` reads it.
    #[doc(hidden)]
    pub threads: usize,
    /// NS-rotation rounds for re-scanning failed domains (≥ 1 re-scans,
    /// 0 disables the retry pass; irrelevant while the fault plane is
    /// off).
    pub retry_rounds: u32,
    /// Bound on the per-snapshot retry queue.
    pub retry_limit: usize,
}

impl CampaignConfig {
    /// Scan all five TLDs every `interval_days` until `until`.
    pub fn new(until: SimDate, interval_days: u32) -> Self {
        let defaults = ScanOptions::default();
        CampaignConfig {
            until,
            interval_days: interval_days.max(1),
            tlds: ALL_TLDS.to_vec(),
            threads: 1,
            retry_rounds: defaults.retry_rounds,
            retry_limit: defaults.retry_limit,
        }
    }

    /// Tune the failed-domain retry pass.
    pub fn with_retries(mut self, rounds: u32, limit: usize) -> Self {
        self.retry_rounds = rounds;
        self.retry_limit = limit;
        self
    }

    fn scan_options(&self) -> ScanOptions {
        ScanOptions {
            retry_rounds: self.retry_rounds,
            retry_limit: self.retry_limit,
            ..ScanOptions::default()
        }
    }
}

/// Advances the world day by day until `config.until`, taking a snapshot
/// every `interval_days`. Returns the longitudinal store.
///
/// The world is borrowed mutably because time advances; each snapshot is
/// a pure read (real queries against the then-current zones). Per-domain
/// results are reused across snapshots through a campaign-private
/// [`ScanCache`] (generation-checked; see the cache module docs) — with
/// faults off the output is byte-identical to re-scanning every day with
/// [`Snapshot::take_with_options`].
pub fn scan_campaign(world: &mut World, config: &CampaignConfig) -> LongitudinalStore {
    scan_campaign_cached(world, config, &mut ScanCache::new())
}

/// [`scan_campaign`] with a caller-owned [`ScanCache`], so the cache can
/// be carried across campaigns (warm restarts) and its hit/miss counters
/// inspected afterwards.
pub fn scan_campaign_cached(
    world: &mut World,
    config: &CampaignConfig,
    cache: &mut ScanCache,
) -> LongitudinalStore {
    let mut store = LongitudinalStore::new();
    run_campaign(world, config, cache, |snapshot| {
        store.record(snapshot);
        Ok(())
    })
    .expect("recording in memory cannot fail");
    store
}

/// The campaign loop: one snapshot through `cache` today and after every
/// `interval_days` ticks until `config.until`, each handed to `sink` as
/// soon as it is taken. Stops at the sink's first error.
pub(crate) fn run_campaign(
    world: &mut World,
    config: &CampaignConfig,
    cache: &mut ScanCache,
    mut sink: impl FnMut(Snapshot) -> io::Result<()>,
) -> io::Result<()> {
    let options = config.scan_options();
    loop {
        // Each snapshot is a fresh scan epoch: fault-plane attempt
        // counters are pruned so campaign length doesn't grow state (or
        // skew per-snapshot draws).
        world.begin_scan_epoch();
        sink(Snapshot::take_cached(world, &config.tlds, &options, cache))?;
        if world.today >= config.until {
            return Ok(());
        }
        let next = world.today.plus_days(config.interval_days);
        world.advance_to(next.min(config.until));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_workloads::{build, PopulationConfig};

    #[test]
    fn campaign_over_tiny_population() {
        let mut pw = build(&PopulationConfig::tiny());
        let start = pw.world.today;
        let store = scan_campaign(&mut pw.world, &CampaignConfig::new(start.plus_days(21), 7));
        assert_eq!(store.snapshots().len(), 4); // day 0, 7, 14, 21
        assert_eq!(pw.world.today, start.plus_days(21));
        // Every snapshot covers the whole population.
        let expected = pw.world.domain_count() as u64;
        for snapshot in store.snapshots() {
            let total: u64 = ALL_TLDS
                .iter()
                .map(|&t| snapshot.tld_totals(t).domains)
                .sum();
            assert_eq!(total, expected);
        }
    }

    #[test]
    fn snapshot_classification_is_consistent() {
        let pw = build(&PopulationConfig::tiny());
        let snapshot = Snapshot::take(&pw.world);
        for stats in snapshot.cells.values() {
            assert!(stats.with_dnskey <= stats.domains);
            assert!(stats.partially_deployed <= stats.with_dnskey);
            assert!(
                stats.fully_deployed + stats.partially_deployed + stats.misconfigured
                    <= stats.with_dnskey
            );
        }
    }

    #[test]
    fn operator_grouping_matches_registrar_ns_domains() {
        let pw = build(&PopulationConfig::tiny());
        let snapshot = Snapshot::take(&pw.world);
        // GoDaddy's domains must group under domaincontrol.com.
        let gd = snapshot.operator_totals("domaincontrol.com.", &ALL_TLDS);
        assert!(gd.domains > 0, "GoDaddy cell exists");
    }
}
