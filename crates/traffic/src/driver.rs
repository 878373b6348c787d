//! The load driver: N worker threads sharding the client stream over a
//! pool of validating resolvers behind one shared, striped cache.
//!
//! ## Sharding and determinism
//!
//! Queries are assigned to workers by the same stable case-folded FNV-1a
//! name hash ([`dsec_wire::name_hash64`]) the cache stripes on, **not**
//! round-robin — taken over the query's *site*, the registered domain.
//! Every query for a site, whatever its name and type, is therefore
//! handled by the same worker, in stream order: whether it hits the
//! shared answer cache, and whether its miss finds the site's zone cut
//! already cached or has to pay for the referral and the DNSKEY fetch,
//! depends only on the stream, never on cross-worker timing. The cuts
//! every site shares — the root's and the TLDs' — are fetched once,
//! single-threaded, before the workers start (a running farm holds them
//! anyway: their TTLs are days, a load spans minutes), so no worker's
//! query is charged for them either. Outcome counts, attribution, cache
//! counters, and latency histograms are identical run-to-run and across
//! thread counts (until the cache's capacity bound forces oldest-entry
//! eviction, whose victim order is interleaving-dependent; size the
//! bound above the working set when byte-identical histograms matter).
//!
//! ## Contention-free hot path
//!
//! Cache keys are made once, single-threaded, before the timed
//! region: workers look up precomputed [`CacheKey`]s instead of hashing
//! names per query, cache hits hand back `Arc`-shared
//! answers, and all accounting (outcome tallies, per-actor attribution,
//! histograms, resolver counters) lives in worker-private accumulators
//! indexed by dense registrar/operator ids — merged once after join.
//! The only cross-thread traffic left in the loop is the sharded cache
//! itself.
//!
//! Per-query latency is priced from the worker's own resolver
//! accounting (UDP attempts, simulated backoff, TCP fallbacks) plus a
//! seeded per-query RTT jitter sample, so a fault-plane campaign
//! running under load shows up exactly where it would in production:
//! in the p99/p999 tail and the ServFail column.

use std::sync::Arc;
use std::time::Instant;

use dsec_ecosystem::World;
use dsec_resolver::{
    BreakerPolicy, Cache, CacheKey, OnPathThreat, Resolver, RetryPolicy, SpoofGuard,
};
use dsec_wire::{name_hash64, FnvHashSet, Name};
use dsec_workloads::TrafficMix;

use crate::account::{classify_answer, Outcome, OutcomeCounts, TrafficReport};
use crate::telemetry::LatencyHistogram;
use crate::workload::{generate_stream, PlannedQuery, TrafficPopulation};

/// Fixed price of a shared-cache hit, simulated ms.
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
    /// Worker threads (each owns one resolver of the pool).
    pub threads: usize,
    /// Stream seed.
    pub seed: u64,
    /// The workload model (TLD mix, Zipf exponent, qtype mix).
    pub mix: TrafficMix,
    /// Capacity bound of the shared cache.
    pub cache_capacity: usize,
    /// How fast simulated time advances under the stream, queries per
    /// simulated second (TTLs age as the stream runs).
    pub sim_qps: u32,
    /// Workers call [`Cache::enforce_capacity`] every this many queries.
    pub evict_interval: u64,
    /// Serve-stale horizon (RFC 8767), seconds past expiry an entry may
    /// still answer when upstream fails. 0 disables serve-stale.
    pub max_stale: u32,
    /// Per-authority circuit-breaker policy for the worker resolvers.
    /// `None` runs the bare retry ladder.
    pub breaker: Option<BreakerPolicy>,
    /// Offset added to the world's epoch when planning the stream,
    /// simulated seconds. Lets a follow-up phase (e.g. an outage window
    /// replayed over a warm shared cache) start where the previous
    /// phase's sim clock left off.
    pub now_offset_s: u32,
    /// Fraction of user queries handled by validating resolvers; the
    /// rest go through a non-validating pool (no trust anchor, separate
    /// shared cache). 1.0 — the default — keeps the historical
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
    /// Anti-spoofing defense profile every worker resolver runs with.
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
            threads: 1,
            seed: 0x7AF1C,
            mix: TrafficMix::default(),
            cache_capacity: 65_536,
            sim_qps: 64,
            evict_interval: 1_024,
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

    /// Sets the worker count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
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

    /// Arms per-authority circuit breakers on every worker resolver
    /// (builder style).
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
/// — identical run-to-run and across thread counts. Most samples are a
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
/// the stream, not of worker interleaving — so the same user population
/// shows up across thread counts and repeated phases. The extremes
/// short-circuit:
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

/// Stable worker shard for a query: the cache's case-folded name hash
/// of its site, so a registered domain — every (name, type) key under
/// it, and its zone cut — belongs to exactly one worker regardless of
/// thread count.
fn shard_of(query: &PlannedQuery, population: &TrafficPopulation, threads: usize) -> usize {
    (name_hash64(&population.sites[query.site as usize].name) % threads as u64) as usize
}

/// One worker's private accumulators, merged after join. Attribution is
/// a dense `Vec` indexed by registrar/operator id — no per-query String
/// hashing or tree walks.
struct WorkerTally {
    outcomes: OutcomeCounts,
    by_registrar: Vec<OutcomeCounts>,
    by_operator: Vec<OutcomeCounts>,
    histogram: LatencyHistogram,
    sim_busy_ms: u64,
    stats: dsec_resolver::ResolverStatsSnapshot,
}

impl WorkerTally {
    fn new(registrars: usize, operators: usize) -> WorkerTally {
        WorkerTally {
            outcomes: OutcomeCounts::default(),
            by_registrar: vec![OutcomeCounts::default(); registrars],
            by_operator: vec![OutcomeCounts::default(); operators],
            histogram: LatencyHistogram::new(),
            sim_busy_ms: 0,
            stats: dsec_resolver::ResolverStatsSnapshot::default(),
        }
    }
}

/// Runs the load against `world`: plans the stream, shards it across
/// `config.threads` workers (one [`Resolver`] each, all behind one
/// bounded shared [`Cache`]), and returns the merged report.
pub fn run_load(world: &World, config: &LoadConfig) -> TrafficReport {
    let cache = Arc::new(Cache::bounded(config.cache_capacity).with_max_stale(config.max_stale));
    run_load_shared(world, config, cache)
}

/// Like [`run_load`] but over a caller-supplied shared cache, so
/// multi-phase campaigns (warm-up, then an outage window) can carry cache
/// state between phases. The caller owns the cache's serve-stale horizon;
/// `config.max_stale` is ignored here. Combine with
/// [`LoadConfig::with_now_offset`] so the follow-up phase's sim clock
/// continues where the previous phase ended. The non-validating side of
/// the fleet (if `validating_share` < 1.0) gets a fresh cache; use
/// [`run_load_mixed`] to carry that one across phases too.
pub fn run_load_shared(world: &World, config: &LoadConfig, cache: Arc<Cache>) -> TrafficReport {
    let nv_cache = Arc::new(Cache::bounded(config.cache_capacity).with_max_stale(config.max_stale));
    run_load_mixed(world, config, cache, nv_cache)
}

/// The full-control entry point: caller-supplied shared caches for both
/// sides of the mixed fleet. Validating and non-validating resolvers
/// never share cache entries — a poisoned answer a non-validating user
/// accepted must not be servable to a validating one, and a validated
/// answer carries a security status the non-validating pool would not
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

    let threads = config.threads.max(1);
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); threads];
    for (i, query) in stream.iter().enumerate() {
        shards[shard_of(query, &population, threads)].push(i);
    }

    // Key every query once, single-threaded, before the clock starts:
    // workers index this table instead of hashing names. A key belongs
    // to no cache, so both pools of a mixed fleet share the table.
    let keys: Vec<CacheKey> = stream
        .iter()
        .map(|q| CacheKey::new(&q.qname, q.qtype))
        .collect();
    let trust_anchor = world.trust_anchor();
    let network = world.network.clone();
    let evict_interval = config.evict_interval.max(1);

    // Captured-domain lookup as a dense per-site flag: the hot loop tests
    // a Vec<bool> instead of comparing names.
    let captured: FnvHashSet<&Name> = config.captured.iter().collect();
    let captured_site: Vec<bool> = population
        .sites
        .iter()
        .map(|s| captured.contains(&s.name))
        .collect();

    // Warm start: the root's and every TLD's zone cut, into each cache a
    // worker will use. Single-threaded and through resolvers of its own,
    // so its exchanges are charged to no user query and to no worker's
    // counters; a no-op for cuts a previous phase left live.
    let warm_at = stream[0].now;
    let mut pools = vec![(&cache, trust_anchor.clone())];
    if config.validating_share < 1.0 {
        pools.push((&nv_cache, Vec::new()));
    }
    for (cache, trust_anchor) in pools {
        let warm =
            Resolver::new(network.clone(), trust_anchor).with_shared_cache(Arc::clone(cache));
        for tld in population.ranked.keys() {
            warm.prime_cut(&tld.zone(), warm_at);
        }
    }

    let started = Instant::now();
    let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                let cache = Arc::clone(&cache);
                let nv_cache = Arc::clone(&nv_cache);
                let trust_anchor = trust_anchor.clone();
                let network = Arc::clone(&network);
                let stream = &stream;
                let keys = &keys;
                let population = &population;
                let captured_site = &captured_site;
                scope.spawn(move || {
                    let mut resolver = Resolver::new(network.clone(), trust_anchor)
                        .with_policy(RetryPolicy::default())
                        .with_shared_cache(cache.clone())
                        .with_spoof_guard(config.spoof_guard);
                    // The non-validating half of the fleet: no trust
                    // anchor, its own shared cache. Idle (and free of
                    // cache traffic) at the default validating_share.
                    let mut nv_resolver = Resolver::new(network, Vec::new())
                        .with_policy(RetryPolicy::default())
                        .with_shared_cache(nv_cache.clone())
                        .with_spoof_guard(config.spoof_guard);
                    if let Some(policy) = config.breaker {
                        resolver = resolver.with_breaker(policy);
                        nv_resolver = nv_resolver.with_breaker(policy);
                    }
                    if let Some(threat) = &config.threat {
                        resolver = resolver.with_on_path_threat(threat.clone());
                        nv_resolver = nv_resolver.with_on_path_threat(threat.clone());
                    }
                    let mut tally =
                        WorkerTally::new(population.registrars.len(), population.operators.len());
                    for (done, &i) in shard.iter().enumerate() {
                        let query = &stream[i];
                        let validating =
                            validating_assignment(config.seed, i as u64, config.validating_share);
                        let r = if validating { &resolver } else { &nv_resolver };
                        let before = r.stats();
                        let result =
                            r.resolve_cached_keyed(&keys[i], &query.qname, query.qtype, query.now);
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
                        tally.histogram.record(latency);
                        tally.sim_busy_ms += latency as u64;

                        let outcome = match &result {
                            // Degraded serves outrank the RFC 4035 class:
                            // a stale answer is "available during outage",
                            // whatever its original validation state.
                            Ok(_) if after.stale_hits > before.stale_hits => Outcome::Stale,
                            Ok(_) if after.negative_hits > before.negative_hits => {
                                Outcome::NegativeHit
                            }
                            Ok(answer) => classify_answer(answer),
                            Err(_) => Outcome::ServFail,
                        };
                        // Attack re-labelling for captured domains: any
                        // answer a non-validating user got came from the
                        // attacker; a validating refusal is DNSSEC
                        // working as designed.
                        let outcome = if captured_site[query.site as usize] {
                            match (validating, outcome) {
                                (false, Outcome::ServFail) => Outcome::ServFail,
                                (false, _) => Outcome::Hijacked,
                                (true, Outcome::Bogus) | (true, Outcome::ServFail) => {
                                    Outcome::SavedByValidation
                                }
                                (true, other) => other,
                            }
                        } else {
                            outcome
                        };
                        tally.outcomes.add(outcome);
                        let site = &population.sites[query.site as usize];
                        tally.by_registrar[site.registrar_id as usize].add(outcome);
                        tally.by_operator[site.operator_id as usize].add(outcome);

                        if (done as u64 + 1).is_multiple_of(evict_interval) {
                            cache.enforce_capacity(query.now);
                            nv_cache.enforce_capacity(query.now);
                        }
                    }
                    tally.stats = resolver.stats();
                    tally.stats += nv_resolver.stats();
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker does not panic"))
            .collect()
    });
    let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;

    let mut outcomes = OutcomeCounts::default();
    let mut by_registrar = std::collections::BTreeMap::new();
    let mut by_operator = std::collections::BTreeMap::new();
    let mut histogram = LatencyHistogram::new();
    let mut resolver_stats = dsec_resolver::ResolverStatsSnapshot::default();
    let mut sim_elapsed_ms = 0u64;
    for tally in &tallies {
        outcomes.merge(&tally.outcomes);
        for (id, v) in tally.by_registrar.iter().enumerate() {
            if v.total() > 0 {
                by_registrar
                    .entry(population.registrars[id].clone())
                    .or_insert_with(OutcomeCounts::default)
                    .merge(v);
            }
        }
        for (id, v) in tally.by_operator.iter().enumerate() {
            if v.total() > 0 {
                by_operator
                    .entry(population.operators[id].clone())
                    .or_insert_with(OutcomeCounts::default)
                    .merge(v);
            }
        }
        histogram.merge(&tally.histogram);
        resolver_stats += tally.stats;
        sim_elapsed_ms = sim_elapsed_ms.max(tally.sim_busy_ms);
    }

    TrafficReport {
        threads,
        seed: config.seed,
        total: stream.len() as u64,
        outcomes,
        by_registrar,
        by_operator,
        histogram,
        resolver: resolver_stats,
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
