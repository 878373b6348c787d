//! The load driver: one loop, in stream order, over one validating and
//! one non-validating resolver, each behind its own bounded cache.
//!
//! ## Determinism
//!
//! The client stream is planned up front from the seed, then resolved
//! query by query on the caller's thread. Whether a query hits the
//! answer cache, and whether its miss finds the site's zone cut already
//! cached or has to pay for the referral and the DNSKEY fetch, depends
//! only on the stream. The cuts every site shares — the root's and the
//! TLDs' — are fetched before the stream starts (a running farm holds
//! them anyway: their TTLs are days, a load spans minutes), so no user
//! query is charged for them. Outcome counts, attribution, cache
//! counters and latency histograms are identical run to run, with or
//! without the fault plane, and whether or not the cache's capacity
//! bound forces evictions.
//!
//! Accounting (outcome tallies, per-actor attribution, the histogram)
//! goes into dense vectors indexed by registrar/operator id; names are
//! looked up once, when the report is built.
//!
//! Per-query latency is priced from the resolver's own accounting (UDP
//! attempts, simulated backoff, TCP fallbacks) plus a seeded per-query
//! RTT jitter sample, so a fault-plane campaign running under load
//! shows up exactly where it would in production: in the p99/p999 tail
//! and the ServFail column. The queries form one closed-loop client
//! pipeline: the simulated duration of a load is the sum of its
//! latencies.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dsec_ecosystem::World;
use dsec_resolver::{
    BreakerPolicy, Cache, CacheKey, OnPathThreat, Resolver, RetryPolicy, SpoofGuard,
};
use dsec_wire::{FnvHashSet, Name};
use dsec_workloads::TrafficMix;

use crate::account::{classify_answer, Outcome, OutcomeCounts, TrafficReport};
use crate::telemetry::LatencyHistogram;
use crate::workload::{generate_stream, TrafficPopulation};

/// Fixed price of a cache hit, simulated ms.
const CACHE_HIT_MS: u32 = 1;
/// Stub-to-resolver overhead per fresh resolution, simulated ms.
const STUB_MS: u32 = 2;
/// One UDP exchange with an authoritative server, simulated ms.
const RTT_MS: u32 = 8;
/// Extra cost of a TCP retry after truncation, simulated ms.
const TCP_MS: u32 = 25;

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Queries in the client stream.
    pub queries: u64,
    /// Stream seed.
    pub seed: u64,
    /// The workload model (TLD mix, Zipf exponent, qtype mix).
    pub mix: TrafficMix,
    /// Capacity bound of each cache.
    pub cache_capacity: usize,
    /// How fast simulated time advances under the stream, queries per
    /// simulated second (TTLs age as the stream runs).
    pub sim_qps: u32,
    /// Serve-stale horizon (RFC 8767), seconds past expiry an entry may
    /// still answer when upstream fails. 0 disables serve-stale.
    pub max_stale: u32,
    /// Per-authority circuit-breaker policy for both resolvers.
    /// `None` runs the bare retry ladder.
    pub breaker: Option<BreakerPolicy>,
    /// Offset added to the world's epoch when planning the stream,
    /// simulated seconds. Lets a follow-up phase (e.g. an outage window
    /// replayed over a warm shared cache) start where the previous
    /// phase's sim clock left off.
    pub now_offset_s: u32,
    /// Fraction of user queries handled by validating resolvers; the
    /// rest go through a non-validating resolver (no trust anchor, its
    /// own cache). 1.0 — the default — keeps the historical
    /// all-validating fleet and is byte-identical to the pre-knob
    /// driver; the Nosyk et al. measurement puts the real-world share
    /// well below that.
    pub validating_share: f64,
    /// Domains currently under attacker control. Queries for these are
    /// re-labelled after classification: a non-validating user who got
    /// an answer was [`Outcome::Hijacked`]; a validating user whose
    /// resolver refused the forged chain was
    /// [`Outcome::SavedByValidation`].
    pub captured: Vec<Name>,
    /// Anti-spoofing defense profile both resolvers run with.
    /// The default is [`SpoofGuard::hardened`] — full TXID + source-port
    /// entropy, 0x20 encoding, strict bailiwick — which leaves runs
    /// without an on-path threat byte-identical to the pre-knob driver.
    pub spoof_guard: SpoofGuard,
    /// Optional on-path attacker racing forged responses against the
    /// fleet's fresh resolutions. `None` (the default) skips the spoofing
    /// race entirely.
    pub threat: Option<OnPathThreat>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            queries: 20_000,
            seed: 0x7AF1C,
            mix: TrafficMix::default(),
            cache_capacity: 65_536,
            sim_qps: 64,
            max_stale: 0,
            breaker: None,
            now_offset_s: 0,
            validating_share: 1.0,
            captured: Vec::new(),
            spoof_guard: SpoofGuard::hardened(),
            threat: None,
        }
    }
}

impl LoadConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn tiny() -> Self {
        LoadConfig {
            queries: 2_000,
            ..LoadConfig::default()
        }
    }

    /// Does nothing: a load runs on the caller's thread. Kept because
    /// `crates/benchmark/src/workloads/traffic.rs` calls it.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Sets the stream seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the stream length (builder style).
    pub fn with_queries(mut self, queries: u64) -> Self {
        self.queries = queries.max(1);
        self
    }

    /// Sets the serve-stale horizon (builder style).
    pub fn with_max_stale(mut self, max_stale: u32) -> Self {
        self.max_stale = max_stale;
        self
    }

    /// Arms per-authority circuit breakers on both resolvers (builder
    /// style).
    pub fn with_breaker(mut self, policy: BreakerPolicy) -> Self {
        self.breaker = Some(policy);
        self
    }

    /// Sets the sim-clock offset for the stream start (builder style).
    pub fn with_now_offset(mut self, now_offset_s: u32) -> Self {
        self.now_offset_s = now_offset_s;
        self
    }

    /// Sets the validating-resolver share of the fleet (builder style).
    pub fn with_validating_share(mut self, share: f64) -> Self {
        self.validating_share = share.clamp(0.0, 1.0);
        self
    }

    /// Marks domains as attacker-controlled for outcome re-labelling
    /// (builder style).
    pub fn with_captured(mut self, captured: Vec<Name>) -> Self {
        self.captured = captured;
        self
    }

    /// Sets the fleet's anti-spoofing defense profile (builder style).
    pub fn with_spoof_guard(mut self, guard: SpoofGuard) -> Self {
        self.spoof_guard = guard;
        self
    }

    /// Arms an on-path forgery race against the fleet (builder style).
    pub fn with_threat(mut self, threat: OnPathThreat) -> Self {
        self.threat = Some(threat);
        self
    }

    /// Sim seconds the stream spans at `sim_qps` (how far the clock
    /// advances from the first query to the last).
    pub fn stream_span_s(&self) -> u32 {
        (self.queries.max(1) / self.sim_qps.max(1) as u64) as u32
    }
}

/// Deterministic per-query network jitter for fresh resolutions,
/// simulated ms: a splitmix-style hash of (stream seed, stream index),
/// so the sample drawn for query `i` is a property of the stream itself
/// — identical run to run. Most samples are a
/// small 0–15 ms spread on top of the deterministic RTT ladder; 1 in 64
/// lands a moderate +32 ms tail and 1 in 512 a far +160 ms tail, so the
/// latency percentiles separate (p50 < p99 < p999) the way real
/// resolver RTT samples do instead of collapsing onto one bucket.
fn jitter_ms(seed: u64, index: u64) -> u32 {
    let mut h = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let mut ms = (h % 16) as u32;
    if h.is_multiple_of(64) {
        ms += 32;
    }
    if h.is_multiple_of(512) {
        ms += 160;
    }
    ms
}

/// Whether stream query `index` belongs to a validating user, given the
/// fleet's `share` of validating resolvers. Like the per-query RTT
/// jitter this is a splitmix-style hash of (seed, index) — a property of
/// the stream — so the same user population shows up across runs and
/// repeated phases. The extremes short-circuit:
/// `share >= 1.0` is *exactly* the historical all-validating fleet.
pub fn validating_assignment(seed: u64, index: u64, share: f64) -> bool {
    if share >= 1.0 {
        return true;
    }
    if share <= 0.0 {
        return false;
    }
    let mut h = seed ^ 0xA77A_C0DE_0BAD_D515 ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 31;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 29;
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    ((h >> 11) as f64 / (1u64 << 53) as f64) < share
}

/// Runs the load against `world`: plans the stream and resolves it in
/// order behind a fresh bounded [`Cache`], and returns the report.
pub fn run_load(world: &World, config: &LoadConfig) -> TrafficReport {
    let cache = Arc::new(Cache::bounded(config.cache_capacity).with_max_stale(config.max_stale));
    run_load_shared(world, config, cache)
}

/// Like [`run_load`] but over a caller-supplied cache, so multi-phase
/// campaigns (warm-up, then an outage window) can carry cache state
/// between phases. The caller owns the cache's serve-stale horizon;
/// `config.max_stale` is ignored here. Combine with
/// [`LoadConfig::with_now_offset`] so the follow-up phase's sim clock
/// continues where the previous phase ended. The non-validating side of
/// the fleet (if `validating_share` < 1.0) gets a fresh cache; use
/// [`run_load_mixed`] to carry that one across phases too.
pub fn run_load_shared(world: &World, config: &LoadConfig, cache: Arc<Cache>) -> TrafficReport {
    let nv_cache = Arc::new(Cache::bounded(config.cache_capacity).with_max_stale(config.max_stale));
    run_load_mixed(world, config, cache, nv_cache)
}

/// The full-control entry point: caller-supplied caches for both sides
/// of the mixed fleet. Validating and non-validating resolvers never
/// share cache entries — a poisoned answer a non-validating user
/// accepted must not be servable to a validating one, and a validated
/// answer carries a security status the non-validating side would not
/// have computed.
pub fn run_load_mixed(
    world: &World,
    config: &LoadConfig,
    cache: Arc<Cache>,
    nv_cache: Arc<Cache>,
) -> TrafficReport {
    let population = TrafficPopulation::from_world(world);
    let stream = generate_stream(
        &population,
        &config.mix,
        config.seed,
        config.queries.max(1),
        world
            .today
            .epoch_seconds()
            .saturating_add(config.now_offset_s),
        config.sim_qps,
    );
    let trust_anchor = world.trust_anchor();
    let network = world.network.clone();

    // Captured-domain lookup as a dense per-site flag: the loop tests a
    // Vec<bool> instead of comparing names.
    let captured: FnvHashSet<&Name> = config.captured.iter().collect();
    let captured_site: Vec<bool> = population
        .sites
        .iter()
        .map(|s| captured.contains(&s.name))
        .collect();

    // Warm start: the root's and every TLD's zone cut, into each cache
    // the load will use, through resolvers of its own so its exchanges
    // are charged to no user query and to neither resolver's counters; a
    // no-op for cuts a previous phase left live.
    let warm_at = stream[0].now;
    let mut caches = vec![(&cache, trust_anchor.clone())];
    if config.validating_share < 1.0 {
        caches.push((&nv_cache, Vec::new()));
    }
    for (cache, trust_anchor) in caches {
        let warm =
            Resolver::new(network.clone(), trust_anchor).with_shared_cache(Arc::clone(cache));
        for tld in population.ranked.keys() {
            warm.prime_cut(&tld.zone(), warm_at);
        }
    }

    // `fleet[0]` validates; `fleet[1]`, the non-validating half, has no
    // trust anchor and its own cache. It is idle (and free of cache
    // traffic) at the default validating_share.
    let fleet = [(trust_anchor, Arc::clone(&cache)), (Vec::new(), nv_cache)].map(
        |(trust_anchor, cache)| {
            let mut resolver = Resolver::new(network.clone(), trust_anchor)
                .with_policy(RetryPolicy::default())
                .with_shared_cache(cache)
                .with_spoof_guard(config.spoof_guard);
            if let Some(policy) = config.breaker {
                resolver = resolver.with_breaker(policy);
            }
            if let Some(threat) = &config.threat {
                resolver = resolver.with_on_path_threat(threat.clone());
            }
            resolver
        },
    );

    let mut outcomes = OutcomeCounts::default();
    let mut by_registrar = vec![OutcomeCounts::default(); population.registrars.len()];
    let mut by_operator = vec![OutcomeCounts::default(); population.operators.len()];
    let mut histogram = LatencyHistogram::new();
    let mut sim_elapsed_ms = 0u64;
    let started = Instant::now();
    for (i, query) in stream.iter().enumerate() {
        let validating = validating_assignment(config.seed, i as u64, config.validating_share);
        let r = &fleet[usize::from(!validating)];
        let before = r.stats();
        let key = CacheKey::new(&query.qname, query.qtype);
        let result = r.resolve_cached_keyed(&key, &query.qname, query.qtype, query.now);
        let after = r.stats();
        let latency = if after.cache_hits > before.cache_hits {
            CACHE_HIT_MS
        } else {
            STUB_MS
                + RTT_MS * (after.udp_attempts - before.udp_attempts) as u32
                + (after.backoff_ms - before.backoff_ms) as u32
                + TCP_MS * (after.tcp_fallbacks - before.tcp_fallbacks) as u32
                + jitter_ms(config.seed, i as u64)
        };
        histogram.record(latency);
        sim_elapsed_ms += latency as u64;

        let outcome = match &result {
            // Degraded serves outrank the RFC 4035 class: a stale answer
            // is "available during outage", whatever its original
            // validation state.
            Ok(_) if after.stale_hits > before.stale_hits => Outcome::Stale,
            Ok(_) if after.negative_hits > before.negative_hits => Outcome::NegativeHit,
            Ok(answer) => classify_answer(answer),
            Err(_) => Outcome::ServFail,
        };
        // Attack re-labelling for captured domains: any answer a
        // non-validating user got came from the attacker; a validating
        // refusal is DNSSEC working as designed.
        let outcome = if captured_site[query.site as usize] {
            match (validating, outcome) {
                (false, Outcome::ServFail) => Outcome::ServFail,
                (false, _) => Outcome::Hijacked,
                (true, Outcome::Bogus) | (true, Outcome::ServFail) => Outcome::SavedByValidation,
                (true, other) => other,
            }
        } else {
            outcome
        };
        outcomes.add(outcome);
        let site = &population.sites[query.site as usize];
        by_registrar[site.registrar_id as usize].add(outcome);
        by_operator[site.operator_id as usize].add(outcome);
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;

    // Attribution by name, for the actors the stream reached.
    let named = |names: &[String], counts: Vec<OutcomeCounts>| -> BTreeMap<String, OutcomeCounts> {
        names
            .iter()
            .zip(counts)
            .filter(|(_, c)| c.total() > 0)
            .map(|(name, c)| (name.clone(), c))
            .collect()
    };
    let mut resolver = fleet[0].stats();
    resolver += fleet[1].stats();
    TrafficReport {
        seed: config.seed,
        total: stream.len() as u64,
        outcomes,
        by_registrar: named(&population.registrars, by_registrar),
        by_operator: named(&population.operators, by_operator),
        histogram,
        resolver,
        cache_entries: cache.len(),
        cache_capacity: config.cache_capacity,
        elapsed_ms,
        sim_elapsed_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_workloads::{build, PopulationConfig};

    #[test]
    fn a_captured_domain_flags_its_site_under_any_spelling() {
        let pw = build(&PopulationConfig::tiny());
        let population = TrafficPopulation::from_world(&pw.world);
        // The most-queried site of the stream's first TLD.
        let head = population.ranked.values().next().expect("a TLD")[0];
        let site = population.sites[head as usize].name.to_string();
        let hijacked = |captured: Option<&str>| {
            let captured = captured.map(|s| Name::parse(s).expect("valid name"));
            let config = LoadConfig::tiny()
                .with_queries(256)
                .with_validating_share(0.0)
                .with_captured(captured.into_iter().collect());
            run_load(&pw.world, &config).outcomes.hijacked
        };
        assert_eq!(hijacked(None), 0);
        let as_stored = hijacked(Some(&site));
        assert!(as_stored > 0, "the head site is queried");
        assert_eq!(hijacked(Some(&site.to_uppercase())), as_stored);
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_index() {
        for i in 0..1_000u64 {
            assert_eq!(jitter_ms(0x7AF1C, i), jitter_ms(0x7AF1C, i));
        }
        // Different seeds reshuffle the samples.
        assert!((0..1_000u64).any(|i| jitter_ms(1, i) != jitter_ms(2, i)));
    }

    #[test]
    fn jitter_spreads_with_a_bounded_tail() {
        let samples: Vec<u32> = (0..100_000u64).map(|i| jitter_ms(0x7AF1C, i)).collect();
        let max = *samples.iter().max().unwrap();
        assert!(max <= 15 + 32 + 160, "tail bounded: {max}");
        // The base spread covers the 0–15 ms band…
        for base in 0..16u32 {
            assert!(samples.contains(&base), "base value {base} ms never drawn");
        }
        // …and the tails fire at roughly their design rates (1/64, 1/512).
        let moderate = samples.iter().filter(|&&s| s >= 32).count();
        let far = samples.iter().filter(|&&s| s >= 160).count();
        assert!(
            (500..4_000).contains(&moderate),
            "moderate tail: {moderate}/100000"
        );
        assert!((50..600).contains(&far), "far tail: {far}/100000");
    }
}
