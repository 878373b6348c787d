//! One function per paper artifact: each consumes measurement outputs and
//! returns an [`ExperimentResult`] with the paper's checkpoint values next
//! to the measured ones (see DESIGN.md's experiment index E-T1…E-F8).

use std::sync::Arc;

use dsec_authserver::OutageScenario;
use dsec_ecosystem::{Tld, World, ALL_TLDS};
use dsec_probe::{Finding, ProbeReport};
use dsec_reports::{
    figure3, figure8, figure_series, table1, table2, table3, ExperimentResult, GTLDS,
};
use dsec_resolver::{BreakerPolicy, Cache};
use dsec_scanner::{
    largest_operator_fleet, operators_to_cover, LongitudinalStore, Metric, ScanCache, ScanOptions,
    Snapshot,
};
use dsec_traffic::{run_load_shared, LoadConfig, TrafficReport};
use dsec_workloads::{build, PopulationConfig};

/// The paper's top-20 registrar list (Table 2 order).
pub const TOP20: [&str; 20] = [
    "GoDaddy",
    "Alibaba",
    "1AND1",
    "NetworkSolutions",
    "eNom",
    "Bluehost",
    "NameCheap",
    "WIX",
    "HostGator",
    "NameBright",
    "register.com",
    "OVH",
    "DreamHost",
    "WordPress",
    "Amazon",
    "Xinnet",
    "Google",
    "123-reg",
    "Yahoo",
    "Rightside",
];

/// The paper's top-10 DNSSEC registrar list (Table 3 order).
pub const TOP10_DNSSEC: [&str; 10] = [
    "OVH",
    "Loopia",
    "DomainNameShop",
    "TransIP",
    "MeshDigital",
    "Binero",
    "KPN",
    "PCExtreme",
    "Antagonist",
    "NameCheap",
];

/// The Table-4 operator list.
pub const TABLE4_OPERATORS: [&str; 11] = [
    "OVH",
    "GoDaddy",
    "MeshDigital",
    "DomainNameShop",
    "TransIP",
    "NameCheap",
    "Binero",
    "PCExtreme",
    "Antagonist",
    "Loopia",
    "KPN",
];

/// E-T1 — Table 1: per-TLD dataset sizes and % with DNSKEY.
pub fn experiment_table1(snapshot: &Snapshot, scale: u64) -> ExperimentResult {
    let mut result = ExperimentResult::new("E-T1", "Table 1: dataset overview");
    let paper = [
        (Tld::Com, 0.7),
        (Tld::Net, 1.0),
        (Tld::Org, 1.1),
        (Tld::Nl, 51.6),
        (Tld::Se, 46.7),
    ];
    for (tld, pct) in paper {
        let stats = snapshot.tld_totals(tld);
        let measured = if stats.domains > 0 {
            100.0 * stats.with_dnskey as f64 / stats.domains as f64
        } else {
            0.0
        };
        result.check(format!("{tld} % with DNSKEY"), pct, measured, 0.40);
    }
    result.artifact = table1(snapshot, scale);
    result
}

/// E-F3 — Figure 3: operator-concentration CDFs.
pub fn experiment_figure3(snapshot: &Snapshot) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-F3",
        "Figure 3: CDF of gTLD domains by DNS operator (all/partial/full)",
    );
    // Paper: 26 operators to cover 50% of all domains; ~4 cover 57% of the
    // partially deployed; 2 cover 54% of the fully deployed.
    result.check(
        "operators covering 50% of all domains",
        26.0,
        operators_to_cover(snapshot, &GTLDS, Metric::All, 0.50) as f64,
        0.50,
    );
    result.check(
        "operators covering 50% of partially deployed",
        4.0,
        operators_to_cover(snapshot, &GTLDS, Metric::Partial, 0.50) as f64,
        1.00,
    );
    result.check(
        "operators covering 50% of fully deployed",
        2.0,
        operators_to_cover(snapshot, &GTLDS, Metric::Full, 0.50) as f64,
        1.00,
    );
    result.artifact = figure3(snapshot);
    result
}

/// E-T2 — Table 2: probe results for the top-20 registrars.
pub fn experiment_table2(reports: &[ProbeReport], snapshot: Option<&Snapshot>) -> ExperimentResult {
    let mut result = ExperimentResult::new("E-T2", "Table 2: top-20 registrar probe matrix");
    let hosted = reports
        .iter()
        .filter(|r| r.operator_support == Finding::Yes)
        .count();
    let external = reports
        .iter()
        .filter(|r| r.external_support == Finding::Yes)
        .count();
    let validating = reports
        .iter()
        .filter(|r| r.validates_ds == Finding::Yes)
        .count();
    let default_full = reports
        .iter()
        .filter(|r| r.dnssec_default == Finding::Yes)
        .count();
    let default_partial = reports
        .iter()
        .filter(|r| r.dnssec_default == Finding::Partial)
        .count();
    result.check("registrars probed", 20.0, reports.len() as f64, 0.0);
    result.check("support DNSSEC as DNS operator", 3.0, hosted as f64, 0.0);
    result.check(
        "support DNSSEC for external NS",
        11.0,
        external as f64,
        0.10,
    );
    result.check("validate uploaded DS", 2.0, validating as f64, 0.0);
    result.check(
        "DNSSEC by default (all plans)",
        0.0,
        default_full as f64,
        0.1,
    );
    result.check(
        "DNSSEC by default (some plans only)",
        1.0,
        default_partial as f64,
        0.0,
    );
    result.artifact = table2(reports, snapshot);
    result
}

/// E-T3 — Table 3: probe results for the DNSSEC-heavy registrars.
pub fn experiment_table3(reports: &[ProbeReport], snapshot: Option<&Snapshot>) -> ExperimentResult {
    let mut result = ExperimentResult::new("E-T3", "Table 3: top-10 DNSSEC registrar probe matrix");
    let default = reports
        .iter()
        .filter(|r| r.dnssec_default == Finding::Yes)
        .count();
    let external = reports
        .iter()
        .filter(|r| r.external_support == Finding::Yes)
        .count();
    let validating = reports
        .iter()
        .filter(|r| r.validates_ds == Finding::Yes)
        .count();
    let partial_ds = reports
        .iter()
        .filter(|r| {
            let vals: Vec<bool> = r.publishes_ds.values().copied().collect();
            !vals.is_empty() && vals.iter().any(|&v| v) != vals.iter().all(|&v| v)
        })
        .count();
    let email_channels: Vec<&ProbeReport> = reports
        .iter()
        .filter(|r| r.ds_channel == Some(dsec_probe::DsChannel::Email))
        .collect();
    let email_verifying = email_channels
        .iter()
        .filter(|r| r.verifies_email == Finding::Yes)
        .count();
    let email_foreign = email_channels
        .iter()
        .filter(|r| r.accepts_foreign_email == Finding::Yes)
        .count();
    result.check("registrars probed", 10.0, reports.len() as f64, 0.0);
    // 9 of 10 sign hosted domains by default (OVH is opt-in).
    result.check("DNSSEC by default", 9.0, default as f64, 0.12);
    result.check("support external NS", 8.0, external as f64, 0.15);
    result.check(
        "validate uploaded DS (OVH, PCExtreme)",
        2.0,
        validating as f64,
        0.0,
    );
    // Loopia/KPN/NameCheap publish DS only for some TLDs (▲ rows); Mesh
    // publishes none.
    result.check(
        "partial per-TLD DS publication",
        3.0,
        partial_ds as f64,
        0.40,
    );
    result.check(
        "email channels verifying sender",
        1.0,
        email_verifying as f64,
        0.0,
    );
    result.check(
        "email channels accepting foreign address",
        1.0,
        email_foreign as f64,
        0.0,
    );
    result.artifact = table3(reports, snapshot);
    result
}

/// E-T4 — Table 4: registrar/reseller roles per TLD.
pub fn experiment_table4(world: &dsec_ecosystem::World) -> ExperimentResult {
    let mut result = ExperimentResult::new("E-T4", "Table 4: registrar vs reseller roles per TLD");
    let mut resellers = 0usize;
    let mut no_support = 0usize;
    let mut cells = 0usize;
    for name in TABLE4_OPERATORS {
        let Some(id) = world.registrar_by_name(name) else {
            continue;
        };
        let policy = &world.registrar(id).policy;
        for tld in dsec_ecosystem::ALL_TLDS {
            cells += 1;
            match policy.tld(tld).role {
                dsec_ecosystem::TldRole::ResellerVia(_) => resellers += 1,
                dsec_ecosystem::TldRole::NoSupport => no_support += 1,
                dsec_ecosystem::TldRole::Registrar => {}
            }
        }
    }
    result.check("operators x TLD cells", 55.0, cells as f64, 0.0);
    // From Table 4: 13 reseller cells, 8 "No support" cells.
    result.check("reseller cells", 13.0, resellers as f64, 0.25);
    result.check("no-support cells", 8.0, no_support as f64, 0.25);
    result.artifact = dsec_reports::table4(world, &TABLE4_OPERATORS);
    result
}

/// E-F4 — Figure 4: OVH (free, opt-in) vs GoDaddy (paid) full deployment.
pub fn experiment_figure4(store: &LongitudinalStore) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-F4",
        "Figure 4: OVH vs GoDaddy % of domains fully signed over time",
    );
    let ovh = store.series("ovh.net.", &GTLDS);
    let godaddy = store.series("domaincontrol.com.", &GTLDS);
    let ovh_start = ovh
        .first()
        .map(|p| 100.0 * p.full_fraction())
        .unwrap_or(0.0);
    let ovh_end = ovh.last().map(|p| 100.0 * p.full_fraction()).unwrap_or(0.0);
    let gd_end = godaddy
        .last()
        .map(|p| 100.0 * p.full_fraction())
        .unwrap_or(0.0);
    result.check("OVH % fully signed at window end", 25.9, ovh_end, 0.30);
    result.check("GoDaddy % fully signed at window end", 0.02, gd_end, 10.0);
    result.check(
        "OVH grows over the window (end − start > 5pp)",
        1.0,
        f64::from(ovh_end - ovh_start > 5.0),
        0.0,
    );
    result.artifact = figure_series(
        store,
        "Figure 4: % fully signed (gTLD)",
        "ovh.net.",
        &[("OVH", GTLDS.to_vec())],
    ) + &figure_series(
        store,
        "",
        "domaincontrol.com.",
        &[("GoDaddy", GTLDS.to_vec())],
    );
    result
}

/// E-F5 — Figure 5: Loopia and KPN sign everywhere, complete the chain
/// only at their home (incentivized) TLD.
pub fn experiment_figure5(store: &LongitudinalStore) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-F5",
        "Figure 5: Loopia (.se only) and KPN (.nl only) full deployment by TLD",
    );
    let loopia_se = last_full_pct(store, "loopia.se.", &[Tld::Se]);
    let loopia_gtld = last_full_pct(store, "loopia.se.", &GTLDS);
    let kpn_nl = last_full_pct(store, "is.nl.", &[Tld::Nl]);
    let kpn_gtld = last_full_pct(store, "is.nl.", &GTLDS);
    result.check("Loopia .se % fully deployed", 90.0, loopia_se, 0.15);
    result.check("Loopia gTLD % fully deployed", 0.0, loopia_gtld, 3.0);
    result.check("KPN .nl % fully deployed", 93.0, kpn_nl, 0.15);
    result.check("KPN gTLD % fully deployed", 0.0, kpn_gtld, 3.0);
    result.artifact = figure_series(
        store,
        "Figure 5: % fully deployed",
        "loopia.se.",
        &[
            ("Loopia-gTLD", GTLDS.to_vec()),
            ("Loopia-.se", vec![Tld::Se]),
            ("Loopia-.nl", vec![Tld::Nl]),
        ],
    ) + &figure_series(
        store,
        "",
        "is.nl.",
        &[("KPN-gTLD", GTLDS.to_vec()), ("KPN-.nl", vec![Tld::Nl])],
    );
    result
}

/// E-F6 — Figure 6: Antagonist (gradual renewal-driven growth) and Binero.
pub fn experiment_figure6(store: &LongitudinalStore) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-F6",
        "Figure 6: Antagonist and Binero deployment growth and counts",
    );
    let antagonist_gtld_end = last_full_pct(store, "webhostingserver.nl.", &GTLDS);
    let antagonist_nl = last_full_pct(store, "webhostingserver.nl.", &[Tld::Nl]);
    let binero_gtld = last_full_pct(store, "binero.se.", &GTLDS);
    let binero_se = last_full_pct(store, "binero.se.", &[Tld::Se]);
    let antagonist_series = store.series("webhostingserver.nl.", &GTLDS);
    let counts_flat = {
        let first = antagonist_series
            .first()
            .map(|p| p.stats.domains)
            .unwrap_or(0);
        let last = antagonist_series
            .last()
            .map(|p| p.stats.domains)
            .unwrap_or(0);
        first == last
    };
    result.check(
        "Antagonist gTLD % fully deployed at end",
        52.7,
        antagonist_gtld_end,
        0.35,
    );
    result.check("Antagonist .nl % fully deployed", 95.4, antagonist_nl, 0.12);
    result.check(
        "Binero gTLD % fully deployed at end",
        37.8,
        binero_gtld,
        0.35,
    );
    result.check("Binero .se % fully deployed", 92.9, binero_se, 0.12);
    result.check("domain counts stay flat", 1.0, f64::from(counts_flat), 0.0);
    result.artifact = figure_series(
        store,
        "Figure 6: % with DNSKEY and DS",
        "webhostingserver.nl.",
        &[
            ("Antagonist-gTLD", GTLDS.to_vec()),
            ("Antagonist-.nl", vec![Tld::Nl]),
        ],
    ) + &figure_series(
        store,
        "",
        "binero.se.",
        &[
            ("Binero-gTLD", GTLDS.to_vec()),
            ("Binero-.se", vec![Tld::Se]),
        ],
    );
    result
}

/// E-F7 — Figure 7: TransIP (registrar vs reseller gap) and PCExtreme
/// (the 10-day mass-signing step).
pub fn experiment_figure7(store: &LongitudinalStore) -> ExperimentResult {
    let mut result =
        ExperimentResult::new("E-F7", "Figure 7: TransIP and PCExtreme full deployment");
    let transip_gtld = last_full_pct(store, "transip.net.", &GTLDS);
    let transip_se = last_full_pct(store, "transip.net.", &[Tld::Se]);
    let pcx_gtld_end = last_full_pct(store, "pcextreme.nl.", &GTLDS);
    // The step: before 2015-03-15 PCExtreme is ≈0.44%; within ~10 days it
    // exceeds 90%.
    let pcx = store.series("pcextreme.nl.", &GTLDS);
    let before = pcx
        .iter()
        .take_while(|p| p.date < dsec_ecosystem::SimDate::from_ymd(2015, 3, 15))
        .last()
        .map(|p| 100.0 * p.full_fraction())
        .unwrap_or(0.0);
    let after = pcx
        .iter()
        .find(|p| p.date >= dsec_ecosystem::SimDate::from_ymd(2015, 4, 5))
        .map(|p| 100.0 * p.full_fraction())
        .unwrap_or(0.0);
    result.check("TransIP gTLD % fully deployed", 99.2, transip_gtld, 0.10);
    result.check(
        "TransIP .se % fully deployed (reseller lag)",
        48.4,
        transip_se,
        0.40,
    );
    result.check("PCExtreme % before mass signing", 0.44, before, 6.0);
    result.check("PCExtreme % shortly after mass signing", 98.3, after, 0.15);
    result.check("PCExtreme % at window end", 97.0, pcx_gtld_end, 0.15);
    result.artifact = figure_series(
        store,
        "Figure 7: % fully deployed",
        "transip.net.",
        &[
            ("TransIP-gTLD", GTLDS.to_vec()),
            ("TransIP-.se", vec![Tld::Se]),
        ],
    ) + &figure_series(
        store,
        "",
        "pcextreme.nl.",
        &[
            ("PCExtreme-gTLD", GTLDS.to_vec()),
            ("PCExtreme-.nl", vec![Tld::Nl]),
        ],
    );
    result
}

/// E-F8 — Figure 8: Cloudflare's DNSKEY ramp after universal DNSSEC and
/// the ≈60% DS-relay completion.
pub fn experiment_figure8(store: &LongitudinalStore) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-F8",
        "Figure 8: Cloudflare % with DNSKEY and DS-relay completion",
    );
    let series = store.series("cloudflare-dns.sim.", &GTLDS);
    let launch = dsec_ecosystem::SimDate::from_ymd(2015, 11, 11);
    let before = series
        .iter()
        .take_while(|p| p.date < launch)
        .last()
        .map(|p| 100.0 * p.dnskey_fraction())
        .unwrap_or(0.0);
    let end_dnskey = series
        .last()
        .map(|p| 100.0 * p.dnskey_fraction())
        .unwrap_or(0.0);
    let end_relay = series
        .last()
        .map(|p| 100.0 * p.ds_given_dnskey())
        .unwrap_or(0.0);
    result.check("% with DNSKEY before launch", 0.0, before, 0.2);
    result.check("% with DNSKEY at window end", 1.9, end_dnskey, 0.45);
    result.check(
        "% of DNSKEY domains with DS (relay success)",
        60.7,
        end_relay,
        0.30,
    );
    result.artifact = figure8(store, "cloudflare-dns.sim.");
    result
}

/// §5.2 scalars: per-registrar signed fractions at the window end.
pub fn experiment_s52(snapshot: &Snapshot) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-S52",
        "§5.2 scalars: OVH / NameCheap / GoDaddy signed fractions",
    );
    let pct = |op: &str| {
        let stats = snapshot.operator_totals(op, &dsec_ecosystem::ALL_TLDS);
        if stats.domains == 0 {
            0.0
        } else {
            100.0 * stats.fully_deployed as f64 / stats.domains as f64
        }
    };
    result.check("OVH % deployed", 25.9, pct("ovh.net."), 0.30);
    result.check(
        "NameCheap % deployed",
        0.59,
        pct("registrar-servers.com."),
        1.0,
    );
    result.check("GoDaddy % deployed", 0.02, pct("domaincontrol.com."), 10.0);
    result
}

/// E-R1 — robustness: how far a degraded network pulls the paper's
/// headline artifact (Table 1's per-TLD "% with DNSKEY") away from the
/// clean measurement, and how much of the population stayed observable.
///
/// `clean` and `chaos` are campaigns over identically-built worlds, the
/// latter scanned with the fault plane enabled. The clean measurement
/// plays the role of the paper value: every checkpoint quantifies the
/// perturbation chaos introduced, so a reproduced E-R1 means the
/// retry/degradation machinery kept the artifact stable despite faults.
pub fn experiment_chaos(clean: &LongitudinalStore, chaos: &LongitudinalStore) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-R1",
        "Robustness: Table-1 %-with-DNSKEY drift and coverage under faults",
    );
    let (Some(clean_last), Some(chaos_last)) = (clean.latest(), chaos.latest()) else {
        result.artifact = "empty campaign: nothing to compare\n".into();
        return result;
    };
    let dnskey_pct = |snapshot: &Snapshot, tld: Tld| {
        let stats = snapshot.tld_totals(tld);
        // Unobserved domains can hide DNSKEYs; measure against the
        // observed subpopulation.
        let observed = stats
            .domains
            .saturating_sub(stats.unreachable + stats.indeterminate);
        if observed == 0 {
            0.0
        } else {
            100.0 * stats.with_dnskey as f64 / observed as f64
        }
    };
    for tld in dsec_ecosystem::ALL_TLDS {
        result.check(
            match tld {
                Tld::Com => ".com % with DNSKEY",
                Tld::Net => ".net % with DNSKEY",
                Tld::Org => ".org % with DNSKEY",
                Tld::Nl => ".nl % with DNSKEY",
                Tld::Se => ".se % with DNSKEY",
            },
            dnskey_pct(clean_last, tld),
            dnskey_pct(chaos_last, tld),
            0.25,
        );
    }
    let coverage = |snapshot: &Snapshot| {
        let mut domains = 0u64;
        let mut unobserved = 0u64;
        for stats in snapshot.cells.values() {
            domains += stats.domains;
            unobserved += stats.unreachable + stats.indeterminate;
        }
        if domains == 0 {
            100.0
        } else {
            100.0 * (domains - unobserved) as f64 / domains as f64
        }
    };
    result.check(
        "% of population observed",
        100.0,
        coverage(chaos_last),
        0.10,
    );

    let mut artifact = String::from("date      unreachable  indeterminate\n");
    for snapshot in chaos.snapshots() {
        let unreachable: u64 = snapshot.cells.values().map(|s| s.unreachable).sum();
        let indeterminate: u64 = snapshot.cells.values().map(|s| s.indeterminate).sum();
        artifact.push_str(&format!(
            "{}  {:>11}  {:>13}\n",
            snapshot.date, unreachable, indeterminate
        ));
    }
    result.artifact = artifact;
    result
}

fn last_full_pct(store: &LongitudinalStore, operator: &str, tlds: &[Tld]) -> f64 {
    store
        .series(operator, tlds)
        .last()
        .map(|p| 100.0 * p.full_fraction())
        .unwrap_or(0.0)
}

/// E-R2 stream seed (also seeds the — otherwise inert — fault plane).
pub(crate) const OUTAGE_SEED: u64 = 0x0A7A6E;
/// Queries per phase (warm-up and outage replay the same stream).
pub(crate) const OUTAGE_QUERIES: u64 = 2_048;
/// Stream pacing: 4 queries per simulated second ⇒ 512 s per phase, well
/// past the ecosystem's 300 s record TTLs, so warm entries expire *into*
/// the outage window.
pub(crate) const OUTAGE_QPS: u32 = 4;
/// Serve-stale horizon for the degraded arms: long enough that every
/// phase-1 entry survives to the end of phase 2.
pub(crate) const OUTAGE_MAX_STALE: u32 = 7_200;

/// Runs the two-phase load for one E-R2 arm: a warm-up phase over a clean
/// network, then the identical stream (same seed, sim clock advanced by
/// one phase span) inside the installed outage window — all over one
/// shared cache so phase-1 entries are the phase-2 working set. Returns
/// the outage-phase report and how many queries the dead authorities
/// actually absorbed during it (the fault plane's downtime-drop delta —
/// the number the circuit breaker is judged on).
pub(crate) fn outage_phases(
    world: &World,
    span_s: u32,
    max_stale: u32,
    breaker: Option<BreakerPolicy>,
) -> (TrafficReport, u64) {
    let mut config = LoadConfig::default()
        .with_queries(OUTAGE_QUERIES)
        .with_seed(OUTAGE_SEED)
        .with_max_stale(max_stale);
    config.sim_qps = OUTAGE_QPS;
    if let Some(policy) = breaker {
        config = config.with_breaker(policy);
    }
    let cache = Arc::new(Cache::bounded(config.cache_capacity).with_max_stale(max_stale));
    run_load_shared(world, &config, Arc::clone(&cache));
    let drops_before = world.fault_plane().stats().downtime_drops;
    let outage = run_load_shared(world, &config.clone().with_now_offset(span_s), cache);
    let drops = world.fault_plane().stats().downtime_drops - drops_before;
    (outage, drops)
}

fn outage_row(
    artifact: &mut String,
    scenario: &str,
    arm: &str,
    report: &TrafficReport,
    drops: u64,
) {
    let pct = |n: u64| 100.0 * n as f64 / report.total.max(1) as f64;
    artifact.push_str(&format!(
        "{scenario:<18} {arm:<14} {:>6.1} {:>6.1} {:>9.1} {:>5.1} {:>6} {:>9} {:>10}\n",
        100.0 * report.availability(),
        pct(report.outcomes.stale),
        pct(report.outcomes.servfail),
        pct(report.outcomes.negative),
        report.resolver.breaker_trips,
        report.resolver.breaker_short_circuits,
        drops,
    ));
}

/// E-R2 — robustness: graceful degradation under sustained outages.
///
/// Three declarative outage scenarios (a sustained single-operator
/// outage, a TLD-wide registry outage, correlated flapping) are played
/// against the user-traffic plane in two phases over one shared resolver
/// cache: a clean warm-up, then the identical query stream inside the
/// outage window. Checkpoints pin the degradation contract:
///
/// * with serve-stale (RFC 8767), warm-cache availability for the victim
///   operator stays ≥ 90% through a sustained fleet outage that the
///   no-degradation baseline turns into ServFail;
/// * negative caching (RFC 2308) answers repeat NODATA/NXDOMAIN from
///   memory;
/// * per-authority circuit breakers cut the load hammered onto dead
///   authorities by ≥ 5× without changing a single outcome.
pub fn experiment_outage(population: &PopulationConfig) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-R2",
        "Robustness: serve-stale, negative caching, and circuit breakers under outages",
    );
    let span = (OUTAGE_QUERIES / OUTAGE_QPS as u64) as u32;
    let breaker = BreakerPolicy {
        failure_threshold: 3,
        probe_interval_s: 30,
    };

    // Scenario 1: the biggest operator's whole fleet down for all of
    // phase 2. One world serves every arm — loads never mutate it, and
    // the dead-authority pressure is measured as per-arm counter deltas.
    let pw = build(population);
    let world = &pw.world;
    let base = world.today.epoch_seconds();
    let (victim, fleet) = largest_operator_fleet(world, None);
    world.fault_plane().enable(OUTAGE_SEED);
    OutageScenario::operator_outage(
        "operator-outage",
        fleet.clone(),
        base + span,
        base + 2 * span + 60,
    )
    .install(world.fault_plane());

    let (baseline, drops_baseline) = outage_phases(world, span, 0, None);
    let (stale, drops_bare) = outage_phases(world, span, OUTAGE_MAX_STALE, None);
    let (brk, drops_breaker) = outage_phases(world, span, OUTAGE_MAX_STALE, Some(breaker));

    let victim_counts = |r: &TrafficReport| r.by_operator.get(&victim).copied().unwrap_or_default();
    let v_base = victim_counts(&baseline);
    let v_stale = victim_counts(&stale);
    result.check(
        "serve-stale victim availability ≥ 90% through the outage",
        1.0,
        f64::from(v_stale.availability() >= 0.90),
        0.0,
    );
    result.check(
        "baseline victim queries collapse to ServFail without serve-stale",
        1.0,
        f64::from(v_base.servfail > 0 && v_base.availability() + 0.1 <= v_stale.availability()),
        0.0,
    );
    result.check(
        "stale serves appear only in the degraded arm",
        1.0,
        f64::from(baseline.outcomes.stale == 0 && stale.outcomes.stale > 0),
        0.0,
    );
    result.check(
        "negative cache answers repeat NODATA from memory",
        1.0,
        f64::from(stale.resolver.negative_hits > 0),
        0.0,
    );
    result.check(
        "circuit breaker cuts dead-authority load ≥ 5×",
        1.0,
        f64::from(drops_breaker > 0 && drops_bare >= 5 * drops_breaker),
        0.0,
    );
    result.check(
        "breaker tripped and short-circuited during the outage",
        1.0,
        f64::from(brk.resolver.breaker_trips > 0 && brk.resolver.breaker_short_circuits > 0),
        0.0,
    );
    result.check(
        "breaker is outcome-neutral (identical tallies with and without)",
        1.0,
        f64::from(
            brk.outcomes == stale.outcomes
                && brk.by_registrar == stale.by_registrar
                && brk.by_operator == stale.by_operator,
        ),
        0.0,
    );

    // Scenarios 2 and 3 for the record: a TLD-wide registry outage and
    // correlated flapping of the victim fleet, both under the full
    // degradation stack.
    let pw_tld = build(population);
    let tld_world = &pw_tld.world;
    let tld_base = tld_world.today.epoch_seconds();
    tld_world.fault_plane().enable(OUTAGE_SEED);
    OutageScenario::window(
        "tld-wide(.com)",
        vec![Tld::Com.registry_ns()],
        tld_base + span,
        tld_base + 2 * span + 60,
    )
    .install(tld_world.fault_plane());
    let (tld_run, tld_drops) = outage_phases(tld_world, span, OUTAGE_MAX_STALE, Some(breaker));

    let pw_flap = build(population);
    let flap_world = &pw_flap.world;
    let flap_base = flap_world.today.epoch_seconds();
    let (_, flap_fleet) = largest_operator_fleet(flap_world, None);
    flap_world.fault_plane().enable(OUTAGE_SEED);
    OutageScenario::flapping(
        "flapping",
        flap_fleet,
        flap_base + span,
        span / 8,
        span / 8,
        4,
    )
    .install(flap_world.fault_plane());
    let (flap_run, flap_drops) = outage_phases(flap_world, span, OUTAGE_MAX_STALE, Some(breaker));
    result.check(
        "flapping: breaker re-closes and fresh answers return between windows",
        1.0,
        f64::from(
            flap_run.outcomes.stale > 0
                && flap_run.outcomes.stale < stale.outcomes.stale
                && flap_run.availability() >= stale.availability(),
        ),
        0.0,
    );

    let mut artifact = format!(
        "victim operator {victim}: availability {:.1}% baseline → {:.1}% with serve-stale \
         over {} victim queries in the outage window\n\
         dead-authority queries during the outage: {} bare ladder → {} with breaker\n\n",
        100.0 * v_base.availability(),
        100.0 * v_stale.availability(),
        v_stale.total(),
        drops_bare,
        drops_breaker,
    );
    artifact.push_str(
        "scenario           arm            avail% stale% servfail%  neg%  trips  short-cir  dead-drops\n",
    );
    outage_row(
        &mut artifact,
        "operator-outage",
        "baseline",
        &baseline,
        drops_baseline,
    );
    outage_row(
        &mut artifact,
        "operator-outage",
        "serve-stale",
        &stale,
        drops_bare,
    );
    outage_row(
        &mut artifact,
        "operator-outage",
        "stale+breaker",
        &brk,
        drops_breaker,
    );
    outage_row(
        &mut artifact,
        "tld-wide(.com)",
        "stale+breaker",
        &tld_run,
        tld_drops,
    );
    outage_row(
        &mut artifact,
        "flapping",
        "stale+breaker",
        &flap_run,
        flap_drops,
    );
    artifact.push_str(
        "\nnote: tld-wide(.com) degrades nothing here. The outage phase replays the warm-up's stream,\n\
         so every domain it names already has its zone cut in the resolver cache, and a cut outlives\n\
         the window (delegation NS TTL 172,800 s, held for the cache's one-day cap; 3,600 s, the\n\
         DNSKEY TTL, under a signed chain): no walk needs the registry, nothing goes stale, no\n\
         breaker trips. A name the resolver had never walked to would find the registry down.\n",
    );
    result.artifact = artifact;
    result
}

/// E-U1 — the user-traffic view of deployment. The paper measures what
/// fraction of *domains* deploy DNSSEC; this experiment asks what
/// fraction of *user queries* is actually protected. Popularity is
/// Zipf-concentrated on the largest DNS operators (Figure 3 from the
/// user's side), so the query-weighted protection rate is governed by a
/// handful of operator policies rather than the long tail of domains.
/// The load is fault-free here, so a validating resolver must never see
/// a bogus chain — mismatched-DS injection is exercised by the traffic
/// integration tests and `examples/traffic_load.rs` instead.
pub fn experiment_user_impact(
    report: &dsec_traffic::TrafficReport,
    snapshot: &Snapshot,
) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-U1",
        "User impact: query-weighted protection vs domain-weighted deployment",
    );

    result.check(
        "fault-free load sees zero bogus answers",
        0.0,
        report.outcomes.bogus as f64,
        0.0,
    );
    let attributed: u64 = report.by_registrar.values().map(|c| c.total()).sum();
    result.check(
        "every query classified and attributed to a registrar",
        1.0,
        f64::from(attributed == report.total && report.outcomes.total() == report.total),
        0.0,
    );

    // The query head concentrates on the biggest operators: the top-10
    // operators by query volume must carry a larger share of queries
    // than of registered domains.
    let domains: u64 = snapshot.cells.values().map(|s| s.domains).sum();
    let mut domain_count: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for ((operator, _), stats) in &snapshot.cells {
        *domain_count.entry(operator.as_str()).or_insert(0) += stats.domains;
    }
    let mut by_queries: Vec<(&String, u64)> = report
        .by_operator
        .iter()
        .map(|(op, c)| (op, c.total()))
        .collect();
    by_queries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let top10_queries: u64 = by_queries.iter().take(10).map(|(_, q)| q).sum();
    let top10_domains: u64 = by_queries
        .iter()
        .take(10)
        .map(|(op, _)| domain_count.get(op.as_str()).copied().unwrap_or(0))
        .sum();
    let query_share = top10_queries as f64 / report.total.max(1) as f64;
    let domain_share = top10_domains as f64 / domains.max(1) as f64;
    result.check(
        "top-10 operators' query share exceeds their domain share",
        1.0,
        f64::from(query_share > domain_share),
        0.0,
    );

    // Both weightings of "how protected", for the record: the measured
    // ratio is scale-sensitive, so the checkpoint only pins that the
    // query-weighted rate stays in (0, 1) — some but not all of the
    // stream validates — while the artifact carries the exact numbers.
    let deployed: u64 = snapshot.cells.values().map(|s| s.fully_deployed).sum();
    let domain_weighted = deployed as f64 / domains.max(1) as f64;
    let query_weighted = report.protection_rate();
    result.check(
        "a strict minority of queries validates Secure",
        1.0,
        f64::from(query_weighted > 0.0 && query_weighted < 0.5),
        0.0,
    );

    result.artifact = format!(
        "query-weighted protection: {:.2}% of {} queries\n\
         domain-weighted deployment: {:.2}% of {} domains\n\
         top-10 operators: {:.1}% of queries vs {:.1}% of domains\n\n{}",
        100.0 * query_weighted,
        report.total,
        100.0 * domain_weighted,
        domains,
        100.0 * query_share,
        100.0 * domain_share,
        dsec_reports::user_impact(report, snapshot),
    );
    result
}

/// E-P1 — the incremental scan pipeline. Cold scan, a week of ecosystem
/// churn, warm scan: the warm pass must answer unchanged domains from the
/// cache (measured by network query-count deltas, which are
/// deterministic, not wall-clock) while producing cells identical to an
/// uncached full re-scan of the same day. The wall-clock counterpart
/// lives in the `longitudinal` benchmark.
pub fn experiment_scan_cache(population: &PopulationConfig) -> ExperimentResult {
    let mut result =
        ExperimentResult::new("E-P1", "Pipeline: incremental scan cache, cold vs warm");
    let mut pw = build(population);
    let world = &mut pw.world;
    let options = ScanOptions::default();
    let mut cache = ScanCache::new();

    // Cold: nothing cached, every domain queried.
    let before_cold = world.network.query_count();
    Snapshot::take_cached(world, &ALL_TLDS, &options, &mut cache);
    let cold_queries = world.network.query_count() - before_cold;

    // One week of ecosystem churn, then a warm scan through the cache.
    for _ in 0..7 {
        world.tick();
    }
    let before_warm = world.network.query_count();
    let warm = Snapshot::take_cached(world, &ALL_TLDS, &options, &mut cache);
    let warm_queries = world.network.query_count() - before_warm;

    // Ground truth: an uncached full re-scan of the same day.
    let full = Snapshot::take_with_options(world, &ALL_TLDS, &options);

    let stats = cache.stats();
    result.check(
        "warm cells identical to full re-scan",
        1.0,
        f64::from(warm.cells == full.cells),
        0.0,
    );
    result.check(
        "warm scan needs < 1/2 the cold queries",
        1.0,
        f64::from(warm_queries * 2 < cold_queries),
        0.0,
    );
    result.check(
        "cache covers the population after warm scan",
        1.0,
        f64::from(
            stats.entries as u64
                >= warm.cells.values().map(|s| s.domains).sum::<u64>()
                    - warm.cells.values().map(|s| s.unobserved()).sum::<u64>(),
        ),
        0.0,
    );
    result.artifact = format!(
        "cold queries: {cold_queries}\nwarm queries: {warm_queries}\n\
         cache: {} hits / {} misses (hit rate {:.1}%), {} entries\n",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate(),
        stats.entries,
    );
    result
}
