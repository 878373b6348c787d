//! Retry, backoff, and server-health policy for the iterative resolver.
//!
//! A real scan cannot assume every authoritative server answers the first
//! packet: queries are dropped, servers flap, responses arrive truncated.
//! This module gives the resolver the same machinery production stub
//! resolvers use — bounded retries with exponential backoff, rotation
//! across every NS hostname at a zone cut, and a penalty cache that
//! steers subsequent queries toward servers that have been answering.
//!
//! Backoff is *simulated*: the resolver records how long it would have
//! waited instead of sleeping, so tests and million-domain campaigns stay
//! fast while latency accounting stays meaningful.

use std::cell::{Cell, RefCell};

use dsec_wire::{FnvHashMap, Name};

/// Knobs for the resolver's retry behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total query attempts across all servers before giving up on a
    /// zone cut.
    pub max_attempts: u32,
    /// How long to wait for each UDP response, in simulated ms.
    pub deadline_ms: u32,
    /// First retry backoff, in simulated ms.
    pub base_backoff_ms: u32,
    /// Backoff ceiling, in simulated ms.
    pub max_backoff_ms: u32,
    /// Total simulated-time budget for one top-level resolution, in ms.
    /// Per-attempt deadlines bound a single exchange, but a sustained
    /// outage can stack NS rotations, backoff, and TCP fallback far past
    /// any realistic client deadline; once the accumulated simulated
    /// latency of a resolution crosses this budget, the retry ladder
    /// stops cold and the query fails fast (counted as budget-exhausted).
    pub budget_ms: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            deadline_ms: 500,
            base_backoff_ms: 50,
            max_backoff_ms: 800,
            budget_ms: 3_000,
        }
    }
}

impl RetryPolicy {
    /// Exponential backoff before retry number `attempt` (0-based),
    /// capped at [`RetryPolicy::max_backoff_ms`].
    pub fn backoff_ms(&self, attempt: u32) -> u32 {
        let shifted = self
            .base_backoff_ms
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        shifted.min(self.max_backoff_ms)
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct ServerHealth {
    /// Consecutive-failure penalty; decays on success.
    penalty: u32,
}

/// Per-server health bookkeeping: servers that keep timing out sink to
/// the back of the candidate ordering. Owned by one resolver, like its
/// [`ResolverStats`].
#[derive(Debug, Default)]
pub struct HealthCache {
    servers: RefCell<FnvHashMap<Name, ServerHealth>>,
}

impl HealthCache {
    /// An empty cache: every server starts healthy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a successful exchange with `ns` (halves its penalty). Only
    /// servers with a recorded failure are tracked: a never-failed server
    /// must not grow the map (a million-domain campaign would otherwise
    /// accumulate an all-zero-penalty entry per server), and an entry
    /// whose penalty decays to 0 is dropped for the same reason.
    pub fn record_success(&self, ns: &Name) {
        let mut servers = self.servers.borrow_mut();
        if let Some(health) = servers.get_mut(ns) {
            health.penalty /= 2;
            if health.penalty == 0 {
                servers.remove(ns);
            }
        }
    }

    /// Records a failed exchange (timeout, error rcode) with `ns`.
    pub fn record_failure(&self, ns: &Name) {
        let mut servers = self.servers.borrow_mut();
        let health = servers.entry(ns.clone()).or_default();
        health.penalty = health.penalty.saturating_add(1);
    }

    /// How many servers currently carry a non-zero penalty entry. Bounded
    /// by the number of *failing* servers, not by campaign size.
    pub fn tracked_servers(&self) -> usize {
        self.servers.borrow().len()
    }

    /// The current penalty of `ns` (0 = healthy or unknown).
    pub fn penalty(&self, ns: &Name) -> u32 {
        self.servers.borrow().get(ns).map_or(0, |h| h.penalty)
    }

    /// Orders candidate servers healthiest-first. The sort is stable, so
    /// with no recorded failures the caller's order is preserved —
    /// keeping fault-free resolution identical to the pre-retry code.
    pub fn order(&self, servers: &[Name]) -> Vec<Name> {
        self.order_indices(servers)
            .into_iter()
            .map(|i| servers[i].clone())
            .collect()
    }

    /// Like [`HealthCache::order`], but returns positions into `servers`
    /// instead of cloned names. With no tracked failures (the fault-free
    /// hot path) this is the identity permutation and touches no name
    /// bytes at all — the per-query cost is one borrow of the map.
    pub fn order_indices(&self, servers: &[Name]) -> Vec<usize> {
        let penalties = self.servers.borrow();
        if penalties.is_empty() {
            return (0..servers.len()).collect();
        }
        let mut ordered: Vec<usize> = (0..servers.len()).collect();
        ordered.sort_by_key(|&i| penalties.get(&servers[i]).map_or(0, |h| h.penalty));
        ordered
    }
}

/// Monotonic counters describing how hard the resolver had to work.
///
/// Counters are plain [`Cell`]s: each [`Resolver`] runs on its caller's
/// thread and counts privately, and callers that run several resolvers
/// add their [`snapshot`]s (the traffic driver sums its validating and
/// non-validating resolver). `ResolverStats`, and so `Resolver`, is not
/// `Sync`.
///
/// [`Resolver`]: crate::Resolver
/// [`snapshot`]: ResolverStats::snapshot
#[derive(Debug, Default)]
pub struct ResolverStats {
    udp_attempts: Cell<u64>,
    timeouts: Cell<u64>,
    tcp_fallbacks: Cell<u64>,
    error_rcodes: Cell<u64>,
    backoff_ms: Cell<u64>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    stale_hits: Cell<u64>,
    negative_hits: Cell<u64>,
    budget_exhausted: Cell<u64>,
    breaker_trips: Cell<u64>,
    breaker_short_circuits: Cell<u64>,
    poison_races: Cell<u64>,
    poison_admitted: Cell<u64>,
    poison_scrubbed: Cell<u64>,
}

/// A point-in-time copy of [`ResolverStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStatsSnapshot {
    /// UDP query attempts issued.
    pub udp_attempts: u64,
    /// Attempts that ended in a timeout (drop, delay, downtime).
    pub timeouts: u64,
    /// Truncated responses retried over TCP.
    pub tcp_fallbacks: u64,
    /// SERVFAIL/REFUSED responses received.
    pub error_rcodes: u64,
    /// Total simulated backoff the resolver would have slept, in ms.
    pub backoff_ms: u64,
    /// [`resolve_cached`](crate::Resolver::resolve_cached) lookups served
    /// from the positive cache.
    pub cache_hits: u64,
    /// [`resolve_cached`](crate::Resolver::resolve_cached) lookups that
    /// had to resolve from the roots.
    pub cache_misses: u64,
    /// Expired-but-servable answers returned after upstream resolution
    /// failed (RFC 8767 serve-stale).
    pub stale_hits: u64,
    /// Cached NXDOMAIN/NODATA answers served without touching
    /// authorities (RFC 2308 negative caching). Also counted in
    /// `cache_hits`.
    pub negative_hits: u64,
    /// Resolutions aborted because accumulated simulated latency crossed
    /// [`RetryPolicy::budget_ms`].
    pub budget_exhausted: u64,
    /// Circuit-breaker transitions into the open state.
    pub breaker_trips: u64,
    /// Upstream attempts skipped because an authority's breaker was
    /// open (and the probe slot for the current interval was spent).
    pub breaker_short_circuits: u64,
    /// Query exchanges contested by an on-path spoofing race (an
    /// [`OnPathThreat`](crate::OnPathThreat) covered the query).
    pub poison_races: u64,
    /// Forged responses that won their race and were admitted into a
    /// resolution (the answers carry
    /// [`Answer::poisoned`](crate::Answer::poisoned)).
    pub poison_admitted: u64,
    /// Records dropped by strict bailiwick filtering
    /// ([`SpoofGuard::strict_bailiwick`](crate::SpoofGuard)).
    pub poison_scrubbed: u64,
}

impl ResolverStatsSnapshot {
    /// Whether any retry-triggering event was recorded.
    pub fn degraded(&self) -> bool {
        self.timeouts > 0 || self.tcp_fallbacks > 0 || self.error_rcodes > 0
    }

    /// Cache hits as a fraction of cached lookups (0.0 when none ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// Field-wise sum, for adding up the snapshots of several resolvers.
impl std::ops::AddAssign for ResolverStatsSnapshot {
    fn add_assign(&mut self, rhs: Self) {
        self.udp_attempts += rhs.udp_attempts;
        self.timeouts += rhs.timeouts;
        self.tcp_fallbacks += rhs.tcp_fallbacks;
        self.error_rcodes += rhs.error_rcodes;
        self.backoff_ms += rhs.backoff_ms;
        self.cache_hits += rhs.cache_hits;
        self.cache_misses += rhs.cache_misses;
        self.stale_hits += rhs.stale_hits;
        self.negative_hits += rhs.negative_hits;
        self.budget_exhausted += rhs.budget_exhausted;
        self.breaker_trips += rhs.breaker_trips;
        self.breaker_short_circuits += rhs.breaker_short_circuits;
        self.poison_races += rhs.poison_races;
        self.poison_admitted += rhs.poison_admitted;
        self.poison_scrubbed += rhs.poison_scrubbed;
    }
}

impl ResolverStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn count_attempt(&self) {
        self.udp_attempts.set(self.udp_attempts.get() + 1);
    }

    pub(crate) fn count_timeout(&self) {
        self.timeouts.set(self.timeouts.get() + 1);
    }

    pub(crate) fn count_tcp_fallback(&self) {
        self.tcp_fallbacks.set(self.tcp_fallbacks.get() + 1);
    }

    pub(crate) fn count_error_rcode(&self) {
        self.error_rcodes.set(self.error_rcodes.get() + 1);
    }

    pub(crate) fn count_backoff(&self, ms: u32) {
        self.backoff_ms.set(self.backoff_ms.get() + ms as u64);
    }

    pub(crate) fn count_cache_hit(&self) {
        self.cache_hits.set(self.cache_hits.get() + 1);
    }

    pub(crate) fn count_cache_miss(&self) {
        self.cache_misses.set(self.cache_misses.get() + 1);
    }

    pub(crate) fn count_stale_hit(&self) {
        self.stale_hits.set(self.stale_hits.get() + 1);
    }

    pub(crate) fn count_negative_hit(&self) {
        self.negative_hits.set(self.negative_hits.get() + 1);
    }

    pub(crate) fn count_budget_exhausted(&self) {
        self.budget_exhausted.set(self.budget_exhausted.get() + 1);
    }

    pub(crate) fn count_breaker_trip(&self) {
        self.breaker_trips.set(self.breaker_trips.get() + 1);
    }

    pub(crate) fn count_breaker_short_circuit(&self) {
        self.breaker_short_circuits
            .set(self.breaker_short_circuits.get() + 1);
    }

    pub(crate) fn count_poison_race(&self) {
        self.poison_races.set(self.poison_races.get() + 1);
    }

    pub(crate) fn count_poison_admitted(&self) {
        self.poison_admitted.set(self.poison_admitted.get() + 1);
    }

    pub(crate) fn count_poison_scrubbed(&self, records: u64) {
        self.poison_scrubbed
            .set(self.poison_scrubbed.get() + records);
    }

    /// A copy of the current counter values.
    pub fn snapshot(&self) -> ResolverStatsSnapshot {
        ResolverStatsSnapshot {
            udp_attempts: self.udp_attempts.get(),
            timeouts: self.timeouts.get(),
            tcp_fallbacks: self.tcp_fallbacks.get(),
            error_rcodes: self.error_rcodes.get(),
            backoff_ms: self.backoff_ms.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            stale_hits: self.stale_hits.get(),
            negative_hits: self.negative_hits.get(),
            budget_exhausted: self.budget_exhausted.get(),
            breaker_trips: self.breaker_trips.get(),
            breaker_short_circuits: self.breaker_short_circuits.get(),
            poison_races: self.poison_races.get(),
            poison_admitted: self.poison_admitted.get(),
            poison_scrubbed: self.poison_scrubbed.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_ms(0), 50);
        assert_eq!(policy.backoff_ms(1), 100);
        assert_eq!(policy.backoff_ms(2), 200);
        assert_eq!(policy.backoff_ms(3), 400);
        assert_eq!(policy.backoff_ms(4), 800);
        assert_eq!(policy.backoff_ms(10), 800, "capped");
        assert_eq!(policy.backoff_ms(40), 800, "shift overflow capped");
    }

    #[test]
    fn health_ordering_is_stable_without_failures() {
        let health = HealthCache::new();
        let servers = vec![name("ns1.a.net"), name("ns2.a.net"), name("ns3.a.net")];
        assert_eq!(health.order(&servers), servers);
    }

    #[test]
    fn failing_server_sinks_in_ordering() {
        let health = HealthCache::new();
        let servers = vec![name("ns1.a.net"), name("ns2.a.net")];
        health.record_failure(&name("ns1.a.net"));
        health.record_failure(&name("ns1.a.net"));
        assert_eq!(
            health.order(&servers),
            vec![name("ns2.a.net"), name("ns1.a.net")]
        );
        // Successes decay the penalty back down.
        health.record_success(&name("ns1.a.net"));
        health.record_success(&name("ns1.a.net"));
        assert_eq!(health.penalty(&name("ns1.a.net")), 0);
        assert_eq!(health.order(&servers), servers);
        // ...and the fully recovered server is no longer tracked at all.
        assert_eq!(health.tracked_servers(), 0);
    }

    #[test]
    fn success_on_healthy_server_does_not_grow_cache() {
        let health = HealthCache::new();
        for i in 0..100 {
            health.record_success(&name(&format!("ns{i}.a.net")));
        }
        assert_eq!(health.tracked_servers(), 0);
        assert_eq!(health.penalty(&name("ns7.a.net")), 0);
    }

    #[test]
    fn entries_are_dropped_once_penalty_decays_to_zero() {
        let health = HealthCache::new();
        health.record_failure(&name("ns1.a.net"));
        health.record_failure(&name("ns1.a.net"));
        health.record_failure(&name("ns1.a.net"));
        assert_eq!(health.tracked_servers(), 1);
        health.record_success(&name("ns1.a.net")); // 3 → 1
        assert_eq!(health.tracked_servers(), 1);
        health.record_success(&name("ns1.a.net")); // 1 → 0: dropped
        assert_eq!(health.tracked_servers(), 0);
        // A dropped server behaves exactly like an unknown one.
        assert_eq!(health.penalty(&name("ns1.a.net")), 0);
    }

    #[test]
    fn health_and_breaker_state_follow_the_server_in_any_spelling() {
        use crate::breaker::{BreakerPolicy, BreakerSet};
        let spellings = [name("ns1.a.net"), name("NS1.A.Net")];
        for (first, second) in [
            (&spellings[0], &spellings[1]),
            (&spellings[1], &spellings[0]),
        ] {
            let health = HealthCache::new();
            let breakers = BreakerSet::new(BreakerPolicy {
                failure_threshold: 2,
                probe_interval_s: 10,
            });
            health.record_failure(first);
            health.record_failure(second);
            assert_eq!((health.penalty(second), health.tracked_servers()), (2, 1));
            assert_eq!(
                health.order_indices(&[second.clone(), name("ns2.a.net")]),
                [1, 0]
            );
            breakers.record_failure(first, 100);
            assert!(
                breakers.record_failure(second, 100),
                "one streak: the second failure trips"
            );
            assert!(breakers.allow(first, 100), "the half-open probe");
            assert!(!breakers.allow(second, 101), "same bucket, same breaker");
            assert!(
                breakers.record_success(second, 102),
                "closes the open breaker"
            );
            assert_eq!(breakers.open_count(), 0);
        }
    }

    #[test]
    fn snapshots_sum_field_by_field() {
        // Field k holds `base + k · step`: non-zero and distinct, so a
        // counter summed into the wrong field (or not at all) shows. No
        // `..Default::default()`: a new counter must be listed here.
        let numbered = |base: u64, step: u64| ResolverStatsSnapshot {
            udp_attempts: base + step,
            timeouts: base + 2 * step,
            tcp_fallbacks: base + 3 * step,
            error_rcodes: base + 4 * step,
            backoff_ms: base + 5 * step,
            cache_hits: base + 6 * step,
            cache_misses: base + 7 * step,
            stale_hits: base + 8 * step,
            negative_hits: base + 9 * step,
            budget_exhausted: base + 10 * step,
            breaker_trips: base + 11 * step,
            breaker_short_circuits: base + 12 * step,
            poison_races: base + 13 * step,
            poison_admitted: base + 14 * step,
            poison_scrubbed: base + 15 * step,
        };
        let mut sum = numbered(100, 1);
        sum += numbered(1_000, 2);
        assert_eq!(sum, numbered(1_100, 3));
    }

    #[test]
    fn stats_snapshot_tracks_counters() {
        let stats = ResolverStats::new();
        assert!(!stats.snapshot().degraded());
        stats.count_attempt();
        stats.count_timeout();
        stats.count_backoff(150);
        let snap = stats.snapshot();
        assert_eq!(snap.udp_attempts, 1);
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.backoff_ms, 150);
        assert!(snap.degraded());
    }
}
