//! # dsec-core — the study, as a library
//!
//! Orchestrates the full reproduction: build the paper-calibrated world
//! ([`dsec_workloads`]), probe the registrars as a customer
//! ([`dsec_probe`]), run the 21-month scan campaign ([`dsec_scanner`]),
//! and regenerate every table and figure with paper-vs-measured
//! checkpoints ([`experiments`]).
//!
//! ```no_run
//! use dsec_core::{run_study, StudyConfig};
//!
//! let output = run_study(&StudyConfig::default());
//! for experiment in &output.experiments {
//!     println!("{experiment}");
//! }
//! println!("{}", output.to_markdown());
//! ```

#![warn(missing_docs)]

pub mod attack;
pub mod experiments;
pub mod extensions;
pub mod poison;
pub mod rollover;

pub use attack::experiment_attack_plane;
pub use experiments::{
    experiment_chaos, experiment_figure3, experiment_figure4, experiment_figure5,
    experiment_figure6, experiment_figure7, experiment_figure8, experiment_outage, experiment_s52,
    experiment_scan_cache, experiment_table1, experiment_table2, experiment_table3,
    experiment_table4, experiment_user_impact, TABLE4_OPERATORS, TOP10_DNSSEC, TOP20,
};
pub use extensions::{
    experiment_cds_bootstrap, experiment_default_signing_ablation, experiment_rollover,
};
pub use poison::experiment_poison_resistance;
pub use rollover::experiment_rollover_lifecycle;

use dsec_probe::{probe_all, ProbeReport};
use dsec_reports::ExperimentResult;
use dsec_scanner::{
    scan_campaign_cached, CacheStats, CampaignConfig, LongitudinalStore, ScanCache, Snapshot,
};
use dsec_traffic::{run_load, LoadConfig, TrafficReport};
use dsec_workloads::{build, PaperWorld, PopulationConfig};

/// Study parameters.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Population scale and world window.
    pub population: PopulationConfig,
    /// Days between longitudinal snapshots.
    pub scan_interval_days: u32,
    /// Run the registrar probe (adds a handful of probe-owned domains).
    pub run_probe: bool,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            population: PopulationConfig::default(),
            scan_interval_days: 7,
            run_probe: true,
        }
    }
}

impl StudyConfig {
    /// A fast configuration for tests: tiny population, sparse scans.
    pub fn tiny() -> Self {
        StudyConfig {
            population: PopulationConfig::tiny(),
            scan_interval_days: 60,
            run_probe: true,
        }
    }
}

/// Everything the study produces.
pub struct StudyOutput {
    /// The world at the window end (for further experiments).
    pub paper_world: PaperWorld,
    /// Probe reports for the top-20 registrars.
    pub top20_reports: Vec<ProbeReport>,
    /// Probe reports for the top-10 DNSSEC registrars.
    pub top10_reports: Vec<ProbeReport>,
    /// The longitudinal snapshot store.
    pub store: LongitudinalStore,
    /// Scan-cache effectiveness over the campaign (hits, misses, final
    /// entry count).
    pub cache_stats: CacheStats,
    /// The user-traffic load run against the window-end world (E-U1).
    pub traffic: TrafficReport,
    /// Every experiment with checkpoints and rendered artifacts.
    pub experiments: Vec<ExperimentResult>,
}

impl StudyOutput {
    /// The final snapshot.
    pub fn final_snapshot(&self) -> &Snapshot {
        self.store.latest().expect("campaign produced snapshots")
    }

    /// How many experiments reproduced all their checkpoints.
    pub fn reproduced_count(&self) -> usize {
        self.experiments.iter().filter(|e| e.reproduced()).count()
    }

    /// The campaign/cache/experiment summary paragraph.
    pub fn summary(&self) -> String {
        dsec_reports::study_summary(
            &self.store,
            &self.cache_stats,
            Some(&self.traffic),
            self.reproduced_count(),
            self.experiments.len(),
        )
    }

    /// The EXPERIMENTS.md body.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "# EXPERIMENTS — paper vs. measured\n\n\
             Generated by `dsec_core::run_study`. Absolute numbers are from the\n\
             scaled synthetic population; the checks target the paper's *shapes*\n\
             (who wins, by what rough factor, where steps/crossovers fall).\n\n\
             ```text\n",
        );
        out.push_str(&self.summary());
        out.push_str("```\n\n");
        for e in &self.experiments {
            out.push_str(&e.to_markdown());
            out.push('\n');
        }
        out
    }
}

/// Runs the full study: build → probe → campaign → experiments.
pub fn run_study(config: &StudyConfig) -> StudyOutput {
    let mut paper_world = build(&config.population);

    // Longitudinal campaign over the full window first; the hands-on
    // probe runs afterwards (as the paper's did, in 2016/2017) so the
    // handful of probe-owned domains never pollute the population
    // statistics — at reduced scale they would be visible.
    let until = paper_world.world.config.end;
    let mut cache = ScanCache::new();
    let store = scan_campaign_cached(
        &mut paper_world.world,
        &CampaignConfig::new(until, config.scan_interval_days),
        &mut cache,
    );
    let cache_stats = cache.stats();
    let last = store.latest().expect("campaign produced snapshots").clone();

    let (top20_reports, top10_reports) = if config.run_probe {
        let top20 = probe_all(&mut paper_world.world, &TOP20);
        let top10 = probe_all(&mut paper_world.world, &TOP10_DNSSEC);
        (top20, top10)
    } else {
        (Vec::new(), Vec::new())
    };

    let mut experiments = vec![
        experiment_table1(&last, config.population.scale),
        experiment_figure3(&last),
    ];
    if config.run_probe {
        experiments.push(experiment_table2(&top20_reports, Some(&last)));
        experiments.push(experiment_table3(&top10_reports, Some(&last)));
    }
    experiments.push(experiment_table4(&paper_world.world));
    experiments.push(experiment_figure4(&store));
    experiments.push(experiment_figure5(&store));
    experiments.push(experiment_figure6(&store));
    experiments.push(experiment_figure7(&store));
    experiments.push(experiment_figure8(&store));
    experiments.push(experiment_s52(&last));
    experiments.push(experiment_scan_cache(&config.population));

    // The user-traffic plane: a fault-free query load against the
    // window-end world, sized with the population so the Zipf head and
    // tail are both exercised.
    let queries = (paper_world.world.domain_count() as u64 * 2).clamp(4_000, 40_000);
    let load = LoadConfig::default().with_queries(queries);
    let traffic = run_load(&paper_world.world, &load);
    experiments.push(experiment_user_impact(&traffic, &last));

    // The graceful-degradation contract: serve-stale, negative caching,
    // and circuit breakers against declarative outage scenarios.
    experiments.push(experiment_outage(&config.population));

    // The key-rollover lifecycle: scheduled transitions observed by the
    // traffic plane, mistimed-DS bogus windows, rollover under outage.
    experiments.push(experiment_rollover_lifecycle(&config.population));

    // The registrar-compromise attack plane: forged DS/NS takeovers
    // against authenticated vs. lax channels, measured as user reach
    // under a mixed validating/non-validating resolver fleet.
    experiments.push(experiment_attack_plane(&config.population));

    // The resolver-hardening plane: Kaminsky poisoning races against
    // entropy profiles plus RFC 5011 trust-anchor survival.
    experiments.push(experiment_poison_resistance(&config.population));

    StudyOutput {
        paper_world,
        top20_reports,
        top10_reports,
        store,
        cache_stats,
        traffic,
        experiments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_study_runs_end_to_end() {
        let output = run_study(&StudyConfig::tiny());
        assert_eq!(output.top20_reports.len(), 20);
        assert_eq!(output.top10_reports.len(), 10);
        assert!(output.store.snapshots().len() >= 2);
        assert_eq!(output.experiments.len(), 17);
        // The fault-free traffic load must classify every query and
        // never produce a bogus answer.
        assert_eq!(output.traffic.outcomes.bogus, 0);
        assert_eq!(output.traffic.outcomes.total(), output.traffic.total);
        assert!(output.summary().contains("user traffic :"));
        // The campaign runs through the scan cache; with at least two
        // snapshots some domains must have been answered from it.
        assert!(output.cache_stats.hits > 0, "{:?}", output.cache_stats);
        // E-P1, E-R2, E-K1, E-A1, and E-A2 are self-checks of the
        // pipeline / degradation / rollover / attack / hardening
        // machinery itself and must always reproduce.
        for e in &output.experiments {
            if matches!(e.id, "E-P1" | "E-R2" | "E-K1" | "E-A1" | "E-A2") {
                assert!(e.reproduced(), "{e}");
            }
        }
        // The probe-driven experiments are scale-independent and must
        // fully reproduce even on the tiny population.
        for e in &output.experiments {
            if e.id == "E-T2" || e.id == "E-T3" || e.id == "E-T4" {
                assert!(e.reproduced(), "{e}");
            }
        }
        let md = output.to_markdown();
        assert!(md.contains("## E-T1"));
        assert!(md.contains("## E-F8"));
        assert!(md.contains("## E-U1"));
        assert!(md.contains("## E-K1"));
        assert!(md.contains("## E-A1"));
        assert!(md.contains("## E-A2"));
    }

    #[test]
    fn probe_lists_match_paper_sizes() {
        assert_eq!(TOP20.len(), 20);
        assert_eq!(TOP10_DNSSEC.len(), 10);
        assert_eq!(TABLE4_OPERATORS.len(), 11);
    }
}
