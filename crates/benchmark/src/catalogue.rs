//! The fixed vocabulary of the benchmark: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repository root lists the same names (a unit test keeps the
//! two in step).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload and why it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "build",
        why: "population build at 1:4000 (~37,000 domains): crypto, dnssec signer, ecosystem purchase and authserver upserts do the work; resolver, scanner and traffic do none",
    },
    WorkloadDef {
        name: "campaign",
        why: "97-snapshot streamed campaign incl. the cold first scan: ecosystem tick and the scanner warm path dominate; traffic and the resolver cache do nothing",
    },
    WorkloadDef {
        name: "traffic",
        why: "fault-free 60,000-query closed-loop load, 1 client: resolver cache and validation, authserver query path; retry, breaker and stale paths must count zero",
    },
    WorkloadDef {
        name: "degraded",
        why: "same layers as traffic under 3% faults and a largest-operator outage: timeouts, NS rotation, breakers, serve-stale; guards the failure path against fault-free tuning",
    },
];

/// An end-to-end metric: what a user of the stack would see.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEndDef; 4] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEndDef {
        name: "answered_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.005,
    },
];

/// A per-layer metric; reported by the traced run only, never bounded.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Unit costs are medians of direct calls into a layer's public
/// functions on inputs drawn from a freshly built world; counts, rates
/// and shares are deltas of the library's public counters (or spans
/// around the harness's own calls) over the traced workload. A count a
/// workload's layers never touch reads 0 there. Every metric in a wall
/// time unit is measured in every traced run (simulated latencies carry
/// the unit `sim_ms`: they are model outputs and repeat exactly).
pub const PER_LAYER: [LayerDef; 62] = [
    // crypto
    layer("crypto.rsa512_sign_ns", "ns", Lower),
    layer("crypto.rsa512_verify_ns", "ns", Lower),
    layer("crypto.rsa512_keygen_ms", "ms", Lower),
    layer("crypto.sha256_ns_per_kib", "ns", Lower),
    layer("crypto.busy_share", "ratio", Lower),
    // dnssec
    layer("dnssec.sign_zone_us", "us", Lower),
    layer("dnssec.authenticate_dnskeys_us", "us", Lower),
    layer("dnssec.signed_zones", "count", Lower),
    layer("dnssec.rrsigs_per_zone", "count", Lower),
    layer("dnssec.busy_share", "ratio", Lower),
    // wire
    layer("wire.encode_dnskey_ns", "ns", Lower),
    layer("wire.decode_dnskey_ns", "ns", Lower),
    layer("wire.dnskey_response_bytes", "B", Lower),
    layer("wire.encode_referral_ns", "ns", Lower),
    layer("wire.decode_referral_ns", "ns", Lower),
    layer("wire.referral_response_bytes", "B", Lower),
    // authserver
    layer("authserver.handle_datagram_hit_ns", "ns", Lower),
    layer("authserver.handle_datagram_miss_ns", "ns", Lower),
    layer("authserver.queries_per_op", "ratio", Lower),
    layer("authserver.response_cache_hit_rate", "ratio", Higher),
    layer("authserver.fault_injected", "count", Lower),
    layer("authserver.downtime_drops", "count", Lower),
    layer("authserver.busy_share", "ratio", Lower),
    // resolver
    layer("resolver.resolve_cold_us", "us", Lower),
    layer("resolver.resolve_cached_ns", "ns", Lower),
    layer("resolver.resolve_wall_p50_us", "us", Lower),
    layer("resolver.resolve_wall_p99_us", "us", Lower),
    layer("resolver.cache_hit_rate", "ratio", Higher),
    layer("resolver.udp_attempts_per_query", "ratio", Lower),
    layer("resolver.timeouts", "count", Lower),
    layer("resolver.tcp_fallbacks", "count", Lower),
    layer("resolver.stale_hits", "count", Lower),
    layer("resolver.negative_hits", "count", Higher),
    layer("resolver.breaker_trips", "count", Lower),
    layer("resolver.breaker_short_circuits", "count", Lower),
    layer("resolver.budget_exhausted", "count", Lower),
    layer("resolver.busy_share", "ratio", Lower),
    // ecosystem
    layer("ecosystem.purchase_us", "us", Lower),
    layer("ecosystem.tick_ms", "ms", Lower),
    layer("ecosystem.tick_share", "ratio", Lower),
    layer("ecosystem.busy_share", "ratio", Lower),
    // workloads
    layer("workloads.build_s", "s", Lower),
    // scanner
    layer("scanner.cold_scan_ns_per_domain", "ns", Lower),
    layer("scanner.warm_scan_ns_per_domain", "ns", Lower),
    layer("scanner.full_scan_ns_per_domain", "ns", Lower),
    layer("scanner.cache_hit_rate", "ratio", Higher),
    layer("scanner.spill_record_ms", "ms", Lower),
    layer("scanner.spill_bytes_per_snapshot", "B", Lower),
    layer("scanner.csv_replay_ms", "ms", Lower),
    layer("scanner.busy_share", "ratio", Lower),
    // traffic
    layer("traffic.plan_stream_ms", "ms", Lower),
    layer("traffic.sim_p50_ms", "sim_ms", Lower),
    layer("traffic.sim_p99_ms", "sim_ms", Lower),
    layer("traffic.sim_qps", "1/s", Higher),
    layer("traffic.availability", "ratio", Higher),
    layer("traffic.servfail", "count", Lower),
    layer("traffic.stale", "count", Lower),
    layer("traffic.busy_share", "ratio", Lower),
    // cross-cutting
    layer("alloc.count_per_op", "count", Lower),
    layer("alloc.bytes_per_op", "B", Lower),
    layer("unattributed_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_catalogue_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(well_formed(name), "bad name {name:?}");
        }
        assert_eq!(
            names.iter().collect::<BTreeSet<_>>().len(),
            names.len(),
            "duplicate name"
        );
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
    }

    #[test]
    fn bounds_are_fractions_and_setup_has_the_widest() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "{} is wider than setup_s", m.name);
        }
    }

    /// `BENCHMARK.json` is what the outside world reads; it must name
    /// exactly this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let field =
            |item: &Value, key: &str| item.get(key).and_then(Value::as_str).unwrap().to_string();
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(per_layer, expected);

        assert_eq!(list("paths"), [Value::str("crates/benchmark")]);
    }
}
