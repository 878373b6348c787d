//! End-to-end study smoke test: the whole pipeline (population → probe →
//! campaign → experiments) on a tiny population, checking the
//! scale-independent invariants.

use dsec::core::{run_study, StudyConfig};
use dsec::ecosystem::ALL_TLDS;
use dsec::scanner::Metric;

/// FNV-1a over an experiment's rendered markdown.
fn digest(markdown: &str) -> u64 {
    markdown.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn tiny_study_produces_every_artifact() {
    let output = run_study(&StudyConfig::tiny());

    // All seventeen experiments exist, with artifacts where expected.
    let ids: Vec<&str> = output.experiments.iter().map(|e| e.id).collect();
    assert_eq!(
        ids,
        vec![
            "E-T1", "E-F3", "E-T2", "E-T3", "E-T4", "E-F4", "E-F5", "E-F6", "E-F7", "E-F8",
            "E-S52", "E-P1", "E-U1", "E-R2", "E-K1", "E-A1", "E-A2"
        ]
    );
    for e in &output.experiments {
        assert!(!e.checkpoints.is_empty(), "{} has checkpoints", e.id);
        if e.id.starts_with("E-T") || e.id.starts_with("E-F") {
            assert!(!e.artifact.is_empty(), "{} has an artifact", e.id);
        }
    }

    // The probe reaches every listed registrar, and the campaign runs
    // through the scan cache: with at least two snapshots some domains
    // must have been answered from it.
    assert_eq!(output.top20_reports.len(), 20);
    assert_eq!(output.top10_reports.len(), 10);
    assert!(output.store.snapshots().len() >= 2);
    assert!(output.cache_stats.hits > 0, "{:?}", output.cache_stats);

    // The fault-free traffic load classifies every query and never
    // produces a bogus answer.
    assert_eq!(output.traffic.outcomes.bogus, 0);
    assert_eq!(output.traffic.outcomes.total(), output.traffic.total);
    assert!(output.summary().contains("user traffic :"));

    // The probe-based experiments are scale-independent: they must hold
    // exactly even on the tiny world. E-P1 checks the scan pipeline
    // itself.
    for id in ["E-T2", "E-T3", "E-T4", "E-P1"] {
        let e = output.experiments.iter().find(|e| e.id == id).unwrap();
        assert!(e.reproduced(), "{e}");
    }

    // The self-check experiments must reproduce, and must still carry
    // their headline checkpoints: `reproduced()` alone would keep
    // passing if one were silently removed.
    let headlines: [(&str, &[&str]); 4] = [
        (
            "E-R2",
            &[
                "baseline victim queries collapse to ServFail without serve-stale",
            ],
        ),
        (
            "E-K1",
            &[
                "arm A: correct double-signature rollover serves zero bogus answers",
                "arm B: bogus observed on exactly the predicted window days",
                "arm C: the rollover's bogus window stays visible through the outage",
            ],
        ),
        (
            "E-A1",
            &[
                "arm A: authenticated email repels both takeover vectors (zero captures)",
                "arm B: hijacked + saved-by-validation equals the victim's planned query count",
                "arm B: the hijacked count is exactly the non-validating share of victim hits",
            ],
        ),
        (
            "E-A2",
            &[
                "arm A: the hardened fleet admits zero forged answers",
                "arm B: naive-profile captures match the birthday bound within 4 sigma",
                "arm B: the poison census attributes the forged cached answer to the victim's registrar",
                "arm C: validating users go bogus on exactly the stranded window [revoke, promotion)",
            ],
        ),
    ];
    for (id, rows) in headlines {
        let e = output.experiments.iter().find(|e| e.id == id).unwrap();
        assert!(e.reproduced(), "{e}");
        for row in rows {
            assert!(
                e.checkpoints.iter().any(|c| c.metric == *row),
                "{id} lost its headline checkpoint {row:?}"
            );
        }
    }

    // The stress experiments' full sections, pinned byte for byte: which
    // worlds their arms share is an implementation choice, and must not
    // move a single number, label or census row.
    for (id, golden) in [
        ("E-R2", 0xabb4_f679_bc75_a1d5u64),
        ("E-K1", 0x188f_9931_23dc_6d5b),
        ("E-A1", 0x686e_2bf1_7f3c_1b0c),
        ("E-A2", 0x20ea_6366_f727_3062),
    ] {
        let e = output.experiments.iter().find(|e| e.id == id).unwrap();
        let md = e.to_markdown();
        assert_eq!(digest(&md), golden, "{id}: {:#018x}\n{md}", digest(&md));
    }

    // Snapshot conservation: the population is static over the window,
    // so every snapshot accounts for the same domains. (The probe buys
    // its own domains only after the campaign, so the world's final
    // count exceeds the scanned population by the probe purchases.)
    let scanned: u64 = ALL_TLDS
        .iter()
        .map(|&t| output.store.snapshots()[0].tld_totals(t).domains)
        .sum();
    for snapshot in output.store.snapshots() {
        let total: u64 = ALL_TLDS
            .iter()
            .map(|&t| snapshot.tld_totals(t).domains)
            .sum();
        assert_eq!(total, scanned);
    }
    assert!(output.paper_world.world.domain_count() as u64 >= scanned);

    // Deployment counts are internally consistent in the final snapshot.
    let last = output.final_snapshot();
    for tld in ALL_TLDS {
        let stats = last.tld_totals(tld);
        assert!(stats.with_dnskey <= stats.domains);
        assert!(
            stats.fully_deployed + stats.partially_deployed + stats.misconfigured
                <= stats.with_dnskey
        );
    }

    // The concentration ordering from Figure 3 holds directionally even
    // at tiny scale: full deployment is more concentrated than the
    // overall market.
    let all_rank = dsec::scanner::operators_to_cover(last, &dsec::reports::GTLDS, Metric::All, 0.5);
    let full_rank =
        dsec::scanner::operators_to_cover(last, &dsec::reports::GTLDS, Metric::Full, 0.5);
    if full_rank > 0 && all_rank > 0 {
        assert!(
            full_rank <= all_rank,
            "full deployment at least as concentrated: full {full_rank} vs all {all_rank}"
        );
    }

    // Markdown renders every section.
    let md = output.to_markdown();
    for id in ids {
        assert!(md.contains(&format!("## {id}")), "{id} in markdown");
    }
}

#[test]
fn studies_are_deterministic() {
    let a = run_study(&StudyConfig::tiny());
    let b = run_study(&StudyConfig::tiny());
    assert_eq!(
        a.paper_world.world.domain_count(),
        b.paper_world.world.domain_count()
    );
    let sa = a.final_snapshot();
    let sb = b.final_snapshot();
    for tld in ALL_TLDS {
        assert_eq!(sa.tld_totals(tld), sb.tld_totals(tld), "{tld}");
    }
}
