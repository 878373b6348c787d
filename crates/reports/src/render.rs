//! Renderers that reproduce each of the paper's tables and figures from
//! measurement outputs (snapshots, longitudinal stores, probe reports).

use dsec_ecosystem::{Tld, World, ALL_TLDS};
use dsec_probe::{DsChannel, Finding, ProbeReport};
use dsec_scanner::{coverage_curve, CacheStats, LongitudinalStore, Metric, Snapshot};
use dsec_traffic::TrafficReport;

use crate::table::Table;

/// The gTLD subset used throughout the paper's Figures 3–8.
pub const GTLDS: [Tld; 3] = [Tld::Com, Tld::Net, Tld::Org];

/// Table 1: dataset overview — per-TLD domain counts and % with DNSKEY.
pub fn table1(snapshot: &Snapshot, scale: u64) -> String {
    let mut t = Table::new(&["TLD", "Domains (scaled)", "Domains (x scale)", "with DNSKEY"]);
    for tld in ALL_TLDS {
        let stats = snapshot.tld_totals(tld);
        let pct = if stats.domains > 0 {
            100.0 * stats.with_dnskey as f64 / stats.domains as f64
        } else {
            0.0
        };
        t.row(&[
            tld.to_string(),
            stats.domains.to_string(),
            (stats.domains * scale).to_string(),
            format!("{pct:.1}%"),
        ]);
    }
    t.render()
}

/// Table 2: the probe matrix for the popular registrars.
pub fn table2(reports: &[ProbeReport], snapshot: Option<&Snapshot>) -> String {
    let mut t = Table::new(&[
        "Registrar",
        "NS domain",
        "Domains",
        "w/DNSKEY",
        "default",
        "opt-in",
        "paid",
        "support",
        "DS web",
        "DS email",
        "DS other",
        "val DNSKEY",
        "val email",
    ]);
    for report in reports {
        let (domains, with_dnskey) = snapshot
            .map(|s| {
                let op = format!("{}.", report.ns_domain.trim_end_matches('.'));
                let stats = s.operator_totals(&op, &ALL_TLDS);
                (stats.domains.to_string(), stats.with_dnskey.to_string())
            })
            .unwrap_or_default();
        let chan = |want: DsChannel| {
            if report.ds_channel == Some(want) {
                Finding::Yes.glyph()
            } else if report.ds_channel.is_some() {
                Finding::NotApplicable.glyph()
            } else {
                Finding::No.glyph()
            }
        };
        let other = match report.ds_channel {
            Some(DsChannel::Chat) => "chat",
            Some(DsChannel::Ticket) => "ticket",
            Some(DsChannel::FetchDnskey) => "fetch",
            _ => Finding::NotApplicable.glyph(),
        };
        t.row(&[
            report.registrar.clone(),
            report.ns_domain.clone(),
            domains,
            with_dnskey,
            report.dnssec_default.glyph().into(),
            report.dnssec_optin.glyph().into(),
            report
                .dnssec_paid_cents
                .map(|c| format!("${}.{:02}/yr", c / 100, c % 100))
                .unwrap_or_else(|| Finding::No.glyph().into()),
            report.operator_support.glyph().into(),
            chan(DsChannel::Web).into(),
            chan(DsChannel::Email).into(),
            other.into(),
            report.validates_ds.glyph().into(),
            report.verifies_email.glyph().into(),
        ]);
    }
    t.render()
}

/// Table 3: the DNSSEC-heavy registrars, with per-TLD DS publication.
pub fn table3(reports: &[ProbeReport], snapshot: Option<&Snapshot>) -> String {
    let mut t = Table::new(&[
        "Registrar",
        "NS domain",
        "w/DNSKEY (gTLD)",
        "default",
        "publish DNSKEY",
        "publish DS",
        "ext support",
        "DS channel",
        "val DNSKEY",
        "val email",
    ]);
    for report in reports {
        let with_dnskey = snapshot
            .map(|s| {
                let op = format!("{}.", report.ns_domain.trim_end_matches('.'));
                s.operator_totals(&op, &GTLDS).with_dnskey.to_string()
            })
            .unwrap_or_default();
        // DS publication mark: ● everywhere, ▲ some TLDs, ✗ none.
        let published: Vec<bool> = report.publishes_ds.values().copied().collect();
        let ds_mark = if published.is_empty() {
            Finding::NotApplicable
        } else if published.iter().all(|&v| v) {
            Finding::Yes
        } else if published.iter().any(|&v| v) {
            Finding::Partial
        } else {
            Finding::No
        };
        let channel = match report.ds_channel {
            Some(DsChannel::Web) => "web",
            Some(DsChannel::Email) => "email",
            Some(DsChannel::Chat) => "chat",
            Some(DsChannel::Ticket) => "ticket",
            Some(DsChannel::FetchDnskey) => "fetch",
            None => Finding::No.glyph(),
        };
        t.row(&[
            report.registrar.clone(),
            report.ns_domain.clone(),
            with_dnskey,
            report.dnssec_default.glyph().into(),
            report.operator_support.glyph().into(),
            ds_mark.glyph().into(),
            report.external_support.glyph().into(),
            channel.into(),
            report.validates_ds.glyph().into(),
            report.verifies_email.glyph().into(),
        ]);
    }
    t.render()
}

/// Table 4: registrar-vs-reseller roles per TLD for the given registrars.
pub fn table4(world: &World, names: &[&str]) -> String {
    let mut header = vec!["DNS operator", "Registrar"];
    let tld_labels: Vec<String> = ALL_TLDS.iter().map(|t| t.to_string()).collect();
    header.extend(tld_labels.iter().map(String::as_str));
    let mut t = Table::new(&header);
    for name in names {
        let Some(id) = world.registrar_by_name(name) else {
            continue;
        };
        let registrar = world.registrar(id);
        let ns = world.operator(registrar.operator).ns_domain.to_string();
        let mut cells = vec![ns, registrar.name.clone()];
        for tld in ALL_TLDS {
            use dsec_ecosystem::TldRole;
            cells.push(match registrar.policy.tld(tld).role {
                TldRole::Registrar => name.to_string(),
                TldRole::ResellerVia(partner) => partner,
                TldRole::NoSupport => "No support".into(),
            });
        }
        t.row(&cells);
    }
    t.render()
}

/// The key-rollover lifecycle section: per-operator rollover style
/// census (from the always-logged lifecycle events) plus the world's
/// lifecycle counters — the Osterweil-style "who transitions how, and
/// who breaks doing it" summary.
pub fn rollover_lifecycle(world: &World) -> String {
    let census = dsec_scanner::rollover_census(world);
    let mut out = String::from("Key-rollover lifecycle\n\n");
    out.push_str(&dsec_scanner::rollover_census_table(&census));
    out.push_str(&format!(
        "\nlifecycle counters: {} prepared, {} DS swaps, {} completed, \
         {} abrupt, {} expired-signature\n",
        world.events.count("rollover_prepared"),
        world.events.count("rollover_ds_swapped"),
        world.events.count("rollover_completed"),
        world.events.count("rollover_abrupt"),
        world.events.count("signature_expired"),
    ));
    out
}

/// Figure 3: the cumulative distribution of domains over DNS operators for
/// all / partially deployed / fully deployed domains, plus the paper's
/// headline coverage statistics.
pub fn figure3(snapshot: &Snapshot) -> String {
    let mut out = String::from(
        "Figure 3: CDF of .com/.net/.org domains by DNS operator\n\
         rank  all      partial  full\n",
    );
    let all = coverage_curve(snapshot, &GTLDS, Metric::All);
    let partial = coverage_curve(snapshot, &GTLDS, Metric::Partial);
    let full = coverage_curve(snapshot, &GTLDS, Metric::Full);
    let max_len = all.len().max(partial.len()).max(full.len());
    let mut rank = 1usize;
    while rank <= max_len {
        let v = |curve: &[f64]| {
            curve
                .get((rank - 1).min(curve.len().saturating_sub(1)))
                .copied()
                .map(|x| format!("{:>6.1}%", 100.0 * x))
                .unwrap_or_else(|| "      -".into())
        };
        out.push_str(&format!(
            "{rank:>5} {} {} {}\n",
            v(&all),
            v(&partial),
            v(&full)
        ));
        // Log-ish rank spacing like the paper's log x-axis.
        rank = if rank < 10 { rank + 1 } else { rank * 2 };
    }
    out
}

/// A time-series figure (Figures 4–7): per snapshot, the % of an
/// operator's domains that are fully deployed (DNSKEY + DS), per TLD
/// group.
pub fn figure_series(
    store: &LongitudinalStore,
    title: &str,
    operator: &str,
    groups: &[(&str, Vec<Tld>)],
) -> String {
    let mut out = format!("{title}\ndate");
    for (label, _) in groups {
        out.push_str(&format!(",{label}"));
    }
    out.push('\n');
    let series_per_group: Vec<Vec<dsec_scanner::SeriesPoint>> = groups
        .iter()
        .map(|(_, tlds)| store.series(operator, tlds))
        .collect();
    if let Some(first) = series_per_group.first() {
        for (i, point) in first.iter().enumerate() {
            out.push_str(&point.date.to_string());
            for series in &series_per_group {
                out.push_str(&format!(",{:.1}", 100.0 * series[i].full_fraction()));
            }
            out.push('\n');
        }
    }
    out
}

/// Figure 8: Cloudflare — % of hosted domains with DNSKEY, and of those,
/// % with a DS at the registry.
pub fn figure8(store: &LongitudinalStore, operator: &str) -> String {
    let mut out = String::from("Figure 8\ndate,pct_with_dnskey,pct_ds_given_dnskey\n");
    for point in store.series(operator, &GTLDS) {
        out.push_str(&format!(
            "{},{:.2},{:.1}\n",
            point.date,
            100.0 * point.dnskey_fraction(),
            100.0 * point.ds_given_dnskey()
        ));
    }
    out
}

/// The "user impact" section: what the registrar-driven deployment gaps
/// mean for actual query traffic. Contrasts the *query-weighted*
/// protection rate (fraction of user queries answered with a validated
/// chain) against the *domain-weighted* deployment rate the rest of the
/// study measures, with latency percentiles and the operators whose
/// query head decides the difference.
pub fn user_impact(report: &TrafficReport, snapshot: &Snapshot) -> String {
    let mut out = String::from("User impact (query-weighted view)\n");
    let total = report.total.max(1) as f64;
    out.push_str(&format!(
        "queries      : {} (seed {:#x})\n",
        report.total, report.seed
    ));
    out.push_str(&format!(
        "outcomes     : {:.1}% secure, {:.1}% insecure, {} bogus, {} servfail\n",
        100.0 * report.outcomes.secure as f64 / total,
        100.0 * report.outcomes.insecure as f64 / total,
        report.outcomes.bogus,
        report.outcomes.servfail,
    ));

    let domains: u64 = snapshot.cells.values().map(|s| s.domains).sum();
    let deployed: u64 = snapshot.cells.values().map(|s| s.fully_deployed).sum();
    let domain_weighted = if domains > 0 {
        deployed as f64 / domains as f64
    } else {
        0.0
    };
    out.push_str(&format!(
        "protection   : {:.1}% of queries validated Secure vs {:.1}% of domains fully deployed\n",
        100.0 * report.protection_rate(),
        100.0 * domain_weighted,
    ));
    out.push_str(&format!(
        "latency      : p50 {} ms, p90 {} ms, p99 {} ms, p999 {} ms (mean {:.1} ms)\n",
        report.histogram.p50(),
        report.histogram.p90(),
        report.histogram.p99(),
        report.histogram.p999(),
        report.histogram.mean_ms(),
    ));
    out.push_str(&format!(
        "cache        : {:.1}% hit rate ({} hits / {} misses, {} entries)\n",
        100.0 * report.cache_hit_rate(),
        report.resolver.cache_hits,
        report.resolver.cache_misses,
        report.cache_entries,
    ));

    // Per-operator domain totals across TLD cells, for the share contrast.
    let mut domain_share: std::collections::BTreeMap<&str, u64> =
        std::collections::BTreeMap::new();
    for ((operator, _), stats) in &snapshot.cells {
        *domain_share.entry(operator.as_str()).or_insert(0) += stats.domains;
    }

    let mut top: Vec<(&String, u64)> = report
        .by_operator
        .iter()
        .map(|(operator, counts)| (operator, counts.total()))
        .collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));

    let mut t = Table::new(&["Operator", "Query share", "Domain share", "Secure queries"]);
    for (operator, queries) in top.iter().take(10) {
        let counts = &report.by_operator[*operator];
        let secure_pct = if counts.total() > 0 {
            100.0 * counts.secure as f64 / counts.total() as f64
        } else {
            0.0
        };
        let dshare = if domains > 0 {
            100.0 * domain_share.get(operator.as_str()).copied().unwrap_or(0) as f64
                / domains as f64
        } else {
            0.0
        };
        t.row(&[
            (*operator).clone(),
            format!("{:.1}%", 100.0 * *queries as f64 / total),
            format!("{dshare:.1}%"),
            format!("{secure_pct:.1}%"),
        ]);
    }
    out.push('\n');
    out.push_str(&t.render());
    out
}

/// One-paragraph study summary: campaign window, population, experiment
/// score, scan-cache effectiveness, and (when the traffic plane ran) the
/// user-traffic line with the resolver-cache counters.
pub fn study_summary(
    store: &LongitudinalStore,
    cache: &CacheStats,
    traffic: Option<&TrafficReport>,
    reproduced: usize,
    experiments: usize,
) -> String {
    let mut out = String::new();
    let snapshots = store.snapshots();
    match (snapshots.first(), snapshots.last()) {
        (Some(first), Some(last)) => {
            out.push_str(&format!(
                "study window : {} → {} ({} snapshots)\n",
                first.date,
                last.date,
                snapshots.len()
            ));
            let domains: u64 = last.cells.values().map(|s| s.domains).sum();
            let tlds: std::collections::BTreeSet<Tld> =
                last.cells.keys().map(|(_, tld)| *tld).collect();
            out.push_str(&format!(
                "population   : {} domains across {} TLDs (final snapshot)\n",
                domains,
                tlds.len()
            ));
        }
        _ => out.push_str("study window : (no snapshots)\n"),
    }
    out.push_str(&format!(
        "experiments  : {reproduced}/{experiments} reproduced\n"
    ));
    out.push_str(&format!(
        "scan cache   : {:.1}% hit rate ({} hits / {} misses, {} entries)\n",
        100.0 * cache.hit_rate(),
        cache.hits,
        cache.misses,
        cache.entries,
    ));
    if let Some(report) = traffic {
        out.push_str(&report.summary_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_scanner::OperatorStats;
    use std::collections::BTreeMap;

    fn snapshot() -> Snapshot {
        let mut cells = BTreeMap::new();
        cells.insert(
            ("ovh.net.".to_string(), Tld::Com),
            OperatorStats {
                domains: 100,
                with_dnskey: 26,
                with_ds: 26,
                fully_deployed: 26,
                partially_deployed: 0,
                ..OperatorStats::default()
            },
        );
        cells.insert(
            ("loopia.se.".to_string(), Tld::Com),
            OperatorStats {
                domains: 50,
                with_dnskey: 50,
                with_ds: 0,
                fully_deployed: 0,
                partially_deployed: 50,
                ..OperatorStats::default()
            },
        );
        cells.insert(
            ("nl-zone.x.".to_string(), Tld::Nl),
            OperatorStats {
                domains: 40,
                with_dnskey: 20,
                with_ds: 20,
                fully_deployed: 20,
                partially_deployed: 0,
                ..OperatorStats::default()
            },
        );
        Snapshot {
            date: dsec_ecosystem::SimDate(0),
            cells,
        }
    }

    #[test]
    fn table1_shows_percentages() {
        let out = table1(&snapshot(), 2000);
        assert!(out.contains(".com"));
        assert!(out.contains("50.7%")); // 76/150
        assert!(out.contains("50.0%")); // nl 20/40
        assert!(out.contains("300000")); // 150 × 2000
    }

    #[test]
    fn table2_renders_reports() {
        let mut report = ProbeReport::new("OVH", "ovh.net");
        report.dnssec_optin = Finding::Yes;
        report.operator_support = Finding::Yes;
        report.ds_channel = Some(DsChannel::Web);
        report.validates_ds = Finding::Yes;
        let out = table2(&[report], Some(&snapshot()));
        assert!(out.contains("OVH"));
        assert!(out.contains("●"));
        assert!(out.contains("100")); // operator totals joined in
    }

    #[test]
    fn table3_ds_publication_marks() {
        let mut report = ProbeReport::new("Loopia", "loopia.se");
        report.operator_support = Finding::Yes;
        report.publishes_ds.insert(Tld::Se, true);
        report.publishes_ds.insert(Tld::Com, false);
        let out = table3(&[report], None);
        assert!(out.contains("▲"), "partial DS publication mark: {out}");
    }

    #[test]
    fn figure3_curves_cover_both_populations() {
        let out = figure3(&snapshot());
        assert!(out.starts_with("Figure 3"));
        // Two gTLD operators → two ranks.
        assert!(out.contains("\n    1 "));
        assert!(out.contains("100.0%"));
    }

    #[test]
    fn figure8_emits_csv() {
        let mut store = LongitudinalStore::new();
        store.record(snapshot());
        let out = figure8(&store, "ovh.net.");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with("2015-01-01,26.00,100.0"));
    }

    #[test]
    fn study_summary_reports_cache_line() {
        let mut store = LongitudinalStore::new();
        store.record(snapshot());
        let cache = CacheStats {
            hits: 75,
            misses: 25,
            entries: 150,
        };
        let out = study_summary(&store, &cache, None, 9, 12);
        assert!(out.contains("study window : 2015-01-01 → 2015-01-01 (1 snapshots)"));
        assert!(out.contains("experiments  : 9/12 reproduced"));
        assert!(out.contains("scan cache   : 75.0% hit rate (75 hits / 25 misses, 150 entries)"));
        assert!(!out.contains("user traffic"), "no traffic line without a report");

        let empty = study_summary(&LongitudinalStore::new(), &CacheStats::default(), None, 0, 0);
        assert!(empty.contains("(no snapshots)"));
        assert!(empty.contains("0.0% hit rate"));
    }

    #[test]
    fn study_summary_appends_the_traffic_line() {
        let mut store = LongitudinalStore::new();
        store.record(snapshot());
        let report = traffic_report();
        let out = study_summary(&store, &CacheStats::default(), Some(&report), 9, 13);
        assert!(out.contains("user traffic :"), "{out}");
        assert!(out.contains("80 hits / 20 misses"), "{out}");
    }

    fn traffic_report() -> TrafficReport {
        let mut histogram = dsec_traffic::LatencyHistogram::new();
        let mut outcomes = dsec_traffic::OutcomeCounts::default();
        for _ in 0..90 {
            histogram.record(2);
            outcomes.add(dsec_traffic::Outcome::Insecure);
        }
        for _ in 0..10 {
            histogram.record(40);
            outcomes.add(dsec_traffic::Outcome::Secure);
        }
        let mut by_operator = BTreeMap::new();
        by_operator.insert("ovh.net.".to_string(), outcomes);
        TrafficReport {
            seed: 7,
            total: 100,
            outcomes,
            by_registrar: BTreeMap::new(),
            by_operator,
            histogram,
            resolver: dsec_traffic::ResolverStatsSnapshot {
                cache_hits: 80,
                cache_misses: 20,
                ..Default::default()
            },
            cache_entries: 20,
            cache_capacity: 1_000,
            elapsed_ms: 5.0,
            sim_elapsed_ms: 280,
        }
    }

    #[test]
    fn user_impact_contrasts_query_and_domain_weighting() {
        let out = user_impact(&traffic_report(), &snapshot());
        assert!(out.contains("User impact"), "{out}");
        assert!(out.contains("10.0% of queries validated Secure"), "{out}");
        // 46/190 domains fully deployed in the fixture snapshot.
        assert!(out.contains("24.2% of domains fully deployed"), "{out}");
        // 40 ms falls in the log-linear sub-bucket [40, 44): upper bound 43.
        assert!(out.contains("p99 43 ms"), "{out}");
        assert!(out.contains("ovh.net."), "{out}");
        // ovh.net. hosts 100 of 190 fixture domains and all 100 queries.
        assert!(out.contains("100.0%"), "{out}");
        assert!(out.contains("52.6%"), "{out}");
    }

    #[test]
    fn figure_series_shapes() {
        let mut store = LongitudinalStore::new();
        store.record(snapshot());
        let out = figure_series(
            &store,
            "Figure 4 (OVH)",
            "ovh.net.",
            &[("gTLD", GTLDS.to_vec()), (".nl", vec![Tld::Nl])],
        );
        assert!(out.contains("Figure 4"));
        assert!(out.contains("2015-01-01,26.0,0.0"));
    }
}
