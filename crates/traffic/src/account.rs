//! Outcome accounting: what each user query actually got, and whose
//! policy is responsible.
//!
//! Every query ends in exactly one RFC 4035-flavoured outcome:
//!
//! - **Secure** — the full chain validated; the user is protected;
//! - **Insecure** — a clean unsigned delegation (no DS anywhere on the
//!   path); ordinary DNS, unprotected but working;
//! - **Bogus** — a chain exists but fails validation (mismatched DS,
//!   abrupt rollover); a validating resolver SERVFAILs the user;
//! - **ServFail** — no usable answer for non-DNSSEC reasons (all
//!   nameservers unreachable, lame delegations);
//! - **Stale** — upstream resolution failed but an expired cache entry
//!   within the serve-stale horizon answered (RFC 8767): degraded but
//!   available;
//! - **NegativeHit** — a cached NXDOMAIN/NODATA served under its SOA-
//!   minimum TTL without touching authorities (RFC 2308).
//!
//! Counts are attributed to the *registrar* the domain was bought from
//! (whose policy decides whether a DS ever reaches the registry) and to
//! the *DNS operator* serving the zone — the paper's two actors,
//! re-weighted by query popularity instead of domain count.

use std::collections::BTreeMap;

use dsec_resolver::{Answer, ResolveError, ResolverStatsSnapshot, Security};
use dsec_wire::Rcode;

use crate::telemetry::LatencyHistogram;

/// The terminal states of one user query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Chain validated end to end.
    Secure,
    /// Provably unsigned path; answer served without protection.
    Insecure,
    /// Broken chain: the validator refused the data.
    Bogus,
    /// No usable answer (network/lameness, not validation).
    ServFail,
    /// Served from an expired cache entry after upstream failure
    /// (RFC 8767 serve-stale): the user got an answer during an outage.
    Stale,
    /// Served from the negative cache (RFC 2308): a remembered
    /// NXDOMAIN/NODATA without an upstream round trip.
    NegativeHit,
    /// A non-validating user resolved a captured domain and received the
    /// attacker's answer as ordinary DNS — the takeover reached them.
    Hijacked,
    /// A validating user resolved a captured domain and their resolver
    /// refused the forged data (Bogus → SERVFAIL): DNSSEC did its job.
    SavedByValidation,
    /// An on-path attacker's forged response won the spoofing race and
    /// was served to the user as ordinary DNS — cache poisoning reached
    /// them (the resolver's entropy/bailiwick defenses, not the
    /// registrar's channel, decided this outcome).
    Poisoned,
}

/// Classifies a resolution result into an [`Outcome`].
pub fn classify(result: &Result<Answer, ResolveError>) -> Outcome {
    match result {
        Err(_) => Outcome::ServFail,
        Ok(answer) => classify_answer(answer),
    }
}

/// Classifies a successfully returned answer into an [`Outcome`]. Split
/// out from [`classify`] so callers holding shared (`Arc`) answers from
/// the striped cache can classify without materialising a `Result`.
pub fn classify_answer(answer: &Answer) -> Outcome {
    match &answer.security {
        Security::Bogus(_) => Outcome::Bogus,
        Security::Secure if answer.rcode == Rcode::ServFail => Outcome::ServFail,
        Security::Insecure if answer.rcode == Rcode::ServFail => Outcome::ServFail,
        Security::Secure => Outcome::Secure,
        // An admitted forgery that is actually being served: the user got
        // the attacker's records as ordinary DNS. (A forgery the
        // validator caught is `Bogus` above — integrity held.)
        Security::Insecure if answer.poisoned => Outcome::Poisoned,
        Security::Insecure => Outcome::Insecure,
    }
}

/// Query counts per outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Validated end to end.
    pub secure: u64,
    /// Served from a provably unsigned path.
    pub insecure: u64,
    /// Refused by validation.
    pub bogus: u64,
    /// Failed for non-validation reasons.
    pub servfail: u64,
    /// Served stale from an expired cache entry during upstream failure.
    pub stale: u64,
    /// Served from the negative cache.
    pub negative: u64,
    /// Attacker data reached a non-validating user on a captured domain.
    pub hijacked: u64,
    /// Validation shielded a user from a captured domain's forged data.
    pub saved_by_validation: u64,
    /// An on-path forgery won the spoofing race and was served.
    pub poisoned: u64,
}

impl OutcomeCounts {
    /// Total queries accounted.
    pub fn total(&self) -> u64 {
        self.secure
            + self.insecure
            + self.bogus
            + self.servfail
            + self.stale
            + self.negative
            + self.hijacked
            + self.saved_by_validation
            + self.poisoned
    }

    /// Adds one outcome.
    pub fn add(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Secure => self.secure += 1,
            Outcome::Insecure => self.insecure += 1,
            Outcome::Bogus => self.bogus += 1,
            Outcome::ServFail => self.servfail += 1,
            Outcome::Stale => self.stale += 1,
            Outcome::NegativeHit => self.negative += 1,
            Outcome::Hijacked => self.hijacked += 1,
            Outcome::SavedByValidation => self.saved_by_validation += 1,
            Outcome::Poisoned => self.poisoned += 1,
        }
    }

    /// Folds another set of counts into this one.
    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.secure += other.secure;
        self.insecure += other.insecure;
        self.bogus += other.bogus;
        self.servfail += other.servfail;
        self.stale += other.stale;
        self.negative += other.negative;
        self.hijacked += other.hijacked;
        self.saved_by_validation += other.saved_by_validation;
        self.poisoned += other.poisoned;
    }

    /// Fraction of queries that were cryptographically protected.
    pub fn secure_share(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.secure as f64 / total as f64
        }
    }

    /// Fraction of queries the user got *an answer* for: everything but
    /// validation refusals (Bogus, SavedByValidation) and hard failures
    /// (ServFail). Stale and negative-cache serves count as available —
    /// that is the whole point of graceful degradation. Hijacked and
    /// Poisoned count too: the user *did* get an answer, which is
    /// exactly the problem.
    pub fn availability(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.secure
                + self.insecure
                + self.stale
                + self.negative
                + self.hijacked
                + self.poisoned) as f64
                / total as f64
        }
    }
}

/// Everything one load run produced.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Worker threads used.
    pub threads: usize,
    /// Stream seed.
    pub seed: u64,
    /// Queries issued.
    pub total: u64,
    /// Aggregate outcome counts.
    pub outcomes: OutcomeCounts,
    /// Outcomes attributed to the registrar each domain was bought from.
    pub by_registrar: BTreeMap<String, OutcomeCounts>,
    /// Outcomes attributed to the DNS operator serving each domain.
    pub by_operator: BTreeMap<String, OutcomeCounts>,
    /// Simulated per-query latency distribution.
    pub histogram: LatencyHistogram,
    /// Merged resolver-pool counters (attempts, timeouts, cache
    /// hits/misses, …).
    pub resolver: ResolverStatsSnapshot,
    /// Entries left in the shared cache at the end of the run.
    pub cache_entries: usize,
    /// Capacity bound of the shared cache.
    pub cache_capacity: usize,
    /// Wall-clock duration of the run, ms (host-dependent; excluded from
    /// determinism comparisons).
    pub elapsed_ms: f64,
    /// Simulated duration of the run, ms: the longest worker's summed
    /// per-query latency (deterministic).
    pub sim_elapsed_ms: u64,
}

impl TrafficReport {
    /// Wall-clock queries per second (host-dependent).
    pub fn wall_qps(&self) -> f64 {
        if self.elapsed_ms <= 0.0 {
            0.0
        } else {
            self.total as f64 / (self.elapsed_ms / 1000.0)
        }
    }

    /// Simulated-time throughput: total queries over the longest worker's
    /// summed simulated latency — the deterministic, machine-independent
    /// number the scaling sweep is judged on. Each worker models one
    /// closed-loop client pipeline, so doubling workers roughly halves
    /// the simulated duration of the same stream.
    pub fn sim_qps(&self) -> f64 {
        if self.sim_elapsed_ms == 0 {
            0.0
        } else {
            self.total as f64 / (self.sim_elapsed_ms as f64 / 1000.0)
        }
    }

    /// Shared-cache hit rate over the run.
    pub fn cache_hit_rate(&self) -> f64 {
        self.resolver.cache_hit_rate()
    }

    /// Fraction of user queries that were cryptographically protected —
    /// the query-weighted analogue of the paper's domain-weighted
    /// deployment rate.
    pub fn protection_rate(&self) -> f64 {
        self.outcomes.secure_share()
    }

    /// Fraction of user queries that got an answer at all (Secure +
    /// Insecure + Stale + NegativeHit).
    pub fn availability(&self) -> f64 {
        self.outcomes.availability()
    }

    /// The campaign summary line, including the resolver-cache counters
    /// and the degradation (stale / negative-hit) rates. The attack
    /// columns only appear when a hijack actually reached the run.
    pub fn summary_line(&self) -> String {
        let attack = if self.outcomes.hijacked + self.outcomes.saved_by_validation > 0 {
            format!(
                " {} hijacked / {} saved-by-validation;",
                self.outcomes.hijacked, self.outcomes.saved_by_validation
            )
        } else {
            String::new()
        };
        let attack = if self.outcomes.poisoned > 0 {
            format!("{attack} {} poisoned;", self.outcomes.poisoned)
        } else {
            attack
        };
        format!(
            "user traffic : {} queries, {:.1}% secure / {:.1}% insecure / {} bogus / {} servfail; \
             {:.1}% stale / {:.1}% negative-hit;{attack} \
             p50 {} ms, p99 {} ms; resolver cache {:.1}% hit rate ({} hits / {} misses, {} entries)",
            self.total,
            100.0 * self.outcomes.secure as f64 / self.total.max(1) as f64,
            100.0 * self.outcomes.insecure as f64 / self.total.max(1) as f64,
            self.outcomes.bogus,
            self.outcomes.servfail,
            100.0 * self.outcomes.stale as f64 / self.total.max(1) as f64,
            100.0 * self.outcomes.negative as f64 / self.total.max(1) as f64,
            self.histogram.p50(),
            self.histogram.p99(),
            100.0 * self.cache_hit_rate(),
            self.resolver.cache_hits,
            self.resolver.cache_misses,
            self.cache_entries,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_add_and_merge() {
        let mut a = OutcomeCounts::default();
        a.add(Outcome::Secure);
        a.add(Outcome::Secure);
        a.add(Outcome::Bogus);
        let mut b = OutcomeCounts::default();
        b.add(Outcome::Insecure);
        b.add(Outcome::ServFail);
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.secure, 2);
        assert_eq!(a.bogus, 1);
        assert_eq!(a.insecure, 1);
        assert_eq!(a.servfail, 1);
        assert!((a.secure_share() - 0.4).abs() < 1e-12);
        assert_eq!(OutcomeCounts::default().secure_share(), 0.0);
    }

    #[test]
    fn degraded_outcomes_count_toward_availability() {
        let mut counts = OutcomeCounts::default();
        counts.add(Outcome::Secure);
        counts.add(Outcome::Stale);
        counts.add(Outcome::NegativeHit);
        counts.add(Outcome::ServFail);
        counts.add(Outcome::Bogus);
        assert_eq!(counts.total(), 5);
        assert_eq!(counts.stale, 1);
        assert_eq!(counts.negative, 1);
        assert!(
            (counts.availability() - 0.6).abs() < 1e-12,
            "3 of 5 answered"
        );
        // secure_share stays honest: stale serves are not "secure".
        assert!((counts.secure_share() - 0.2).abs() < 1e-12);
        assert_eq!(OutcomeCounts::default().availability(), 0.0);
        let mut merged = OutcomeCounts::default();
        merged.merge(&counts);
        assert_eq!(merged, counts, "merge carries the degraded columns");
    }
}
