//! End-to-end study smoke test: the whole pipeline (population → probe →
//! campaign → experiments) on a tiny population, checking the
//! scale-independent invariants.

use dsec::core::{run_study, StudyConfig};
use dsec::ecosystem::ALL_TLDS;
use dsec::scanner::Metric;

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

    // The probe-based experiments are scale-independent: they must hold
    // exactly even on the tiny world.
    for id in ["E-T2", "E-T3", "E-T4"] {
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
    let all_rank = dsec::scanner::operators_to_cover(
        last,
        &dsec::reports::GTLDS,
        Metric::All,
        0.5,
    );
    let full_rank = dsec::scanner::operators_to_cover(
        last,
        &dsec::reports::GTLDS,
        Metric::Full,
        0.5,
    );
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
    let a = run_study(&StudyConfig {
        run_probe: false,
        ..StudyConfig::tiny()
    });
    let b = run_study(&StudyConfig {
        run_probe: false,
        ..StudyConfig::tiny()
    });
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
