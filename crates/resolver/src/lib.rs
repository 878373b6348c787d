//! # dsec-resolver — a validating iterative resolver
//!
//! Walks the delegation tree from the configured root hints over a
//! [`dsec_authserver::Network`], maintaining the DNSSEC chain of trust from
//! a configured trust anchor (the root KSK's DS). Every zone cut is either
//! *securely delegated* (signed DS that chains to the child's DNSKEYs),
//! *insecurely delegated* (provably no DS), or *bogus* (broken link).
//!
//! Like production validators, a bogus chain yields SERVFAIL unless the
//! query sets the CD (checking disabled) bit. This is exactly the failure
//! mode the paper warns partial deployments cause once a DS exists but the
//! zone data cannot be validated.
//!
//! Also like production validators, the cached entry point
//! ([`Resolver::resolve_cached`]) does not repeat that walk per query:
//! the [`Cache`] remembers each zone cut it crossed — NS set,
//! authenticated keys or the Insecure/Bogus verdict — for the TTLs and
//! signature validity it was built from, and a miss resumes at the
//! deepest one. [`Resolver::resolve`] always walks from the roots.

#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod diagnose;
pub mod exchange;
pub mod retry;
pub mod spoofguard;

use dsec_authserver::Network;
use dsec_crypto::DigestType;
use dsec_dnssec::validate::ValidationError;
use dsec_dnssec::{authenticate_dnskeys, validate_rrset};
use dsec_wire::{
    group_rrsets, DnskeyRdata, DsRdata, Message, Name, RData, Rcode, Record, RrSet, RrType,
    RrsigRdata,
};

pub use breaker::{BreakerEvent, BreakerPolicy, BreakerSet, Transition};
use cache::ZoneCut;
pub use cache::{Cache, CacheKey};
pub use diagnose::{
    capture_kind, diagnose, CaptureKind, Diagnosis, DsLink, SignatureState, ZoneDiagnosis,
};
pub use exchange::{Exchange, ExchangeOutcome};
pub use retry::{HealthCache, ResolverStats, ResolverStatsSnapshot, RetryPolicy};
pub use spoofguard::{OnPathThreat, SpoofGuard, POISON_A, POISON_AAAA, POISON_TTL};

/// The RFC 4035 security state of a resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Security {
    /// Every link from the trust anchor validated.
    Secure,
    /// The chain was cleanly broken by an unsigned delegation (or no trust
    /// anchor is configured) — ordinary unsigned DNS.
    Insecure,
    /// A link exists but does not validate; the answer must not be trusted.
    Bogus(ValidationError),
}

impl Security {
    /// True for [`Security::Secure`].
    pub fn is_secure(&self) -> bool {
        matches!(self, Security::Secure)
    }
}

/// The outcome of one resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Answer-section records (empty on negative answers and SERVFAIL).
    pub records: Vec<Record>,
    /// Final response code seen (or synthesized SERVFAIL on bogus).
    pub rcode: Rcode,
    /// Chain security for the answer.
    pub security: Security,
    /// Referral chain walked, outermost first (for diagnostics).
    pub chain: Vec<Name>,
    /// For negative (empty-answer) responses: the RFC 2308 negative TTL,
    /// `min(SOA record TTL, SOA minimum)` captured from the authority
    /// section. `None` when the response carried no SOA (or the answer
    /// is positive) — the cache falls back to a short default.
    pub negative_ttl: Option<u32>,
    /// True when an on-path attacker's forged response won the spoofing
    /// race and was admitted into this resolution (see
    /// [`spoofguard::OnPathThreat`]). A validating chain still turns the
    /// forgery into [`Security::Bogus`]; on non-validating paths the flag
    /// is the only trace that the records are attacker-controlled.
    pub poisoned: bool,
}

/// Errors that abort resolution before any answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// No root hints configured.
    NoRootHints,
    /// Every candidate nameserver for some zone was unreachable.
    AllServersUnreachable(String),
    /// The referral/CNAME walk exceeded the step budget (loop suspected).
    TooManySteps,
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::NoRootHints => write!(f, "no root hints configured"),
            ResolveError::AllServersUnreachable(zone) => {
                write!(f, "all nameservers unreachable for {zone}")
            }
            ResolveError::TooManySteps => write!(f, "resolution exceeded step budget"),
        }
    }
}

impl std::error::Error for ResolveError {}

use std::sync::Arc;

/// A validating iterative resolver bound to a network.
///
/// A `Resolver` runs on its caller's thread: its stats, query-id
/// counters, health and breaker state are `Cell`s and `RefCell`s, so it
/// is `Send` but not `Sync`. Resolvers share state only through the
/// [`Cache`] (see [`Resolver::with_shared_cache`]).
pub struct Resolver {
    network: Arc<Network>,
    /// Trust anchor: DS records for the root KSK. Empty → no validation.
    trust_anchor: Vec<DsRdata>,
    /// Checking-disabled: return bogus data instead of SERVFAIL.
    pub checking_disabled: bool,
    /// Step budget for referrals + CNAME chases.
    max_steps: usize,
    cache: Arc<Cache>,
    next_id: std::cell::Cell<u16>,
    /// Retry/backoff knobs for each zone-cut exchange.
    policy: retry::RetryPolicy,
    /// Per-server penalty cache steering retries toward live servers.
    health: retry::HealthCache,
    /// Attempt/timeout/fallback accounting.
    stats: retry::ResolverStats,
    /// Per-authority circuit breakers (None = always query).
    breaker: Option<breaker::BreakerSet>,
    /// Simulated ms spent so far in the current top-level resolution,
    /// checked against [`RetryPolicy::budget_ms`].
    budget_spent: std::cell::Cell<u32>,
    /// Anti-spoofing defense profile (entropy, 0x20, bailiwick).
    spoof_guard: SpoofGuard,
    /// The on-path spoofing threat this resolver is exposed to, if any.
    threat: Option<OnPathThreat>,
    /// Set by [`Resolver::guard_response`] when a forged response was
    /// substituted; consumed when the terminal answer is built so the
    /// [`Answer::poisoned`] flag lands on exactly that resolution.
    forged_in_flight: std::cell::Cell<bool>,
}

impl Resolver {
    /// A resolver with a trust anchor (pass an empty vec for a
    /// non-validating resolver).
    pub fn new(network: Arc<Network>, trust_anchor: Vec<DsRdata>) -> Self {
        Resolver {
            network,
            trust_anchor,
            checking_disabled: false,
            max_steps: 48,
            cache: Arc::new(Cache::new()),
            next_id: std::cell::Cell::new(1),
            policy: retry::RetryPolicy::default(),
            health: retry::HealthCache::new(),
            stats: retry::ResolverStats::new(),
            breaker: None,
            budget_spent: std::cell::Cell::new(0),
            spoof_guard: SpoofGuard::default(),
            threat: None,
            forged_in_flight: std::cell::Cell::new(false),
        }
    }

    /// Replaces the anti-spoofing defense profile (builder style). The
    /// default is [`SpoofGuard::hardened`].
    pub fn with_spoof_guard(mut self, guard: SpoofGuard) -> Self {
        self.spoof_guard = guard;
        self
    }

    /// Exposes this resolver to an on-path spoofing threat (builder
    /// style). Without a threat no forged packets exist and the guard
    /// logic is skipped entirely on the hot path.
    pub fn with_on_path_threat(mut self, threat: OnPathThreat) -> Self {
        self.threat = Some(threat);
        self
    }

    /// The active anti-spoofing defense profile.
    pub fn spoof_guard(&self) -> &SpoofGuard {
        &self.spoof_guard
    }

    /// Replaces the retry policy (builder style).
    pub fn with_policy(mut self, policy: retry::RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables per-authority circuit breaking (builder style). Breaker
    /// state is private to this resolver: two resolvers sharing a cache
    /// learn about an outage independently.
    pub fn with_breaker(mut self, policy: breaker::BreakerPolicy) -> Self {
        self.breaker = Some(breaker::BreakerSet::new(policy));
        self
    }

    /// The circuit-breaker set, when enabled.
    pub fn breaker(&self) -> Option<&breaker::BreakerSet> {
        self.breaker.as_ref()
    }

    /// Replaces the positive cache with a caller-owned one (builder
    /// style). Resolvers handed clones of the same `Arc` share one
    /// cache: any one's answers — and the zone cuts its walks left
    /// behind — serve them all, which is how the traffic plane carries a
    /// cache across a warm-up and the phases of a load. Both carry the
    /// verdict of the trust anchor they were resolved under, so share a
    /// cache only among resolvers configured alike.
    pub fn with_shared_cache(mut self, cache: Arc<Cache>) -> Self {
        self.cache = cache;
        self
    }

    /// Attempt/timeout/TCP-fallback counters accumulated so far.
    pub fn stats(&self) -> retry::ResolverStatsSnapshot {
        self.stats.snapshot()
    }

    /// The per-server health cache.
    pub fn health(&self) -> &retry::HealthCache {
        &self.health
    }

    /// Access to the positive cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Resolves with the cache consulted first: a live answer is served
    /// as is, and a miss walks from the deepest live zone cut the cache
    /// holds at or above `qname` (see [`Resolver::resolve`] for the walk
    /// that ignores the cache altogether).
    pub fn resolve_cached(
        &self,
        qname: &Name,
        qtype: RrType,
        now: u32,
    ) -> Result<Answer, ResolveError> {
        self.resolve_cached_keyed(&CacheKey::new(qname, qtype), qname, qtype, now)
            .map(|answer| (*answer).clone())
    }

    /// Like [`Resolver::resolve_cached`], but with a precomputed
    /// [`CacheKey`] (of the same `qname` and `qtype`) and a shared,
    /// copy-free answer: a hit is one map probe plus a refcount bump, no
    /// record cloning. The traffic driver keys each query once and uses
    /// the key on both the lookup and the insert.
    pub fn resolve_cached_keyed(
        &self,
        key: &CacheKey,
        qname: &Name,
        qtype: RrType,
        now: u32,
    ) -> Result<Arc<Answer>, ResolveError> {
        if let Some(hit) = self.cache.get_shared(key, now) {
            self.stats.count_cache_hit();
            if hit.records.is_empty() && matches!(hit.rcode, Rcode::NxDomain | Rcode::NoError) {
                // A cached NXDOMAIN/NODATA served without touching
                // authorities (RFC 2308).
                self.stats.count_negative_hit();
            }
            return Ok(hit);
        }
        self.stats.count_cache_miss();
        match self.resolve_budgeted(qname, qtype, now, Some(&self.cache)) {
            Ok(answer) => {
                let answer = Arc::new(answer);
                self.cache.put_shared(key, &answer, now);
                Ok(answer)
            }
            Err(e) => {
                // RFC 8767 serve-stale: on *transport* failure only (a
                // bogus chain still SERVFAILs through the Ok path above —
                // staleness must never mask a validation failure), fall
                // back to an expired entry within the stale horizon.
                if let Some(stale) = self.cache.get_stale(key, now) {
                    self.stats.count_stale_hit();
                    return Ok(stale);
                }
                Err(e)
            }
        }
    }

    /// Fetches and caches the zone cuts from the root down to `zone`,
    /// the way [`Resolver::resolve_cached`] would on its first miss under
    /// it, without caching an answer or counting a lookup. A no-op when
    /// `zone`'s cut is already live. The traffic driver calls this for
    /// the root and the TLDs before its stream starts, so no user query
    /// is charged for those shared fetches.
    pub fn prime_cut(&self, zone: &Name, now: u32) {
        let live = self
            .cache
            .deepest_cut(zone, RrType::Ns, now)
            .is_some_and(|cut| cut.apex == *zone);
        if !live {
            let _ = self.resolve_budgeted(zone, RrType::Ns, now, Some(&self.cache));
        }
    }

    /// Resolves (qname, qtype) from the roots, validating along the way.
    /// The cache is neither read nor written — answers and zone cuts
    /// alike — so a caller that changes the world and asks again at the
    /// same `now` gets the new verdict. The whole walk — every zone cut,
    /// DNSKEY fetch, retry, backoff, and CNAME chase — shares one
    /// [`RetryPolicy::budget_ms`] latency budget; once the accumulated
    /// simulated time crosses it, remaining retry ladders are cut short
    /// (counted as budget-exhausted).
    pub fn resolve(&self, qname: &Name, qtype: RrType, now: u32) -> Result<Answer, ResolveError> {
        self.resolve_budgeted(qname, qtype, now, None)
    }

    /// One budgeted resolution. `cuts` is the cache whose zone cuts the
    /// walk may start from and adds to; `None` walks from the roots and
    /// leaves nothing behind.
    fn resolve_budgeted(
        &self,
        qname: &Name,
        qtype: RrType,
        now: u32,
        cuts: Option<&Cache>,
    ) -> Result<Answer, ResolveError> {
        self.budget_spent.set(0);
        let result = self.resolve_within_budget(qname, qtype, now, cuts);
        if self.budget_spent.get() >= self.policy.budget_ms {
            self.stats.count_budget_exhausted();
        }
        result
    }

    fn resolve_within_budget(
        &self,
        qname: &Name,
        qtype: RrType,
        now: u32,
        cuts: Option<&Cache>,
    ) -> Result<Answer, ResolveError> {
        let mut chain = Vec::new();
        let mut cname_budget = 8;
        let mut current_qname = qname.clone();
        let mut all_records = Vec::new();
        loop {
            let (mut answer, target) =
                self.resolve_no_cname(&current_qname, qtype, now, &mut chain, cuts)?;
            all_records.append(&mut answer.records);
            match target {
                Some(next)
                    if cname_budget > 0 && !matches!(answer.security, Security::Bogus(_)) =>
                {
                    cname_budget -= 1;
                    current_qname = next;
                }
                _ => return Ok(self.finish(answer, all_records, chain)),
            }
        }
    }

    fn finish(&self, answer: Answer, records: Vec<Record>, chain: Vec<Name>) -> Answer {
        let mut a = answer;
        a.chain = chain;
        if matches!(a.security, Security::Bogus(_)) && !self.checking_disabled {
            a.records = Vec::new();
            a.rcode = Rcode::ServFail;
            return a;
        }
        a.records = records;
        a
    }

    /// One walk to the answer without CNAME chasing: from the deepest
    /// live cut `cuts` holds at or above `qname`, else from the root
    /// hints. Returns the answer and, if the answer is a CNAME for
    /// another qtype, the target.
    ///
    /// A cached cut saves the queries that established it, nothing else:
    /// its servers are asked through [`Resolver::query_any`] like any
    /// others, so breakers, health ordering, the latency budget and the
    /// spoof guard's bailiwick apply there unchanged.
    fn resolve_no_cname(
        &self,
        qname: &Name,
        qtype: RrType,
        now: u32,
        chain: &mut Vec<Name>,
        cuts: Option<&Cache>,
    ) -> Result<(Answer, Option<Name>), ResolveError> {
        // A cut is stored once it is settled: it and every cut above it
        // came with a lifetime, i.e. its verdict rests on data. A verdict
        // that rests on a fetch nobody answered is an outage — caching
        // it would outlive the outage.
        let mut settled = true;
        let mut admit = |cut: ZoneCut, lifetime: Option<u32>| {
            let cut = Arc::new(cut);
            settled &= lifetime.is_some();
            if let (Some(cache), true, Some(lifetime)) = (cuts, settled, lifetime) {
                cache.put_cut(&cut, lifetime, now);
            }
            cut
        };
        let mut cut = match cuts.and_then(|cache| cache.deepest_cut(qname, qtype, now)) {
            Some(cut) => cut,
            None => {
                let (root, lifetime) = self.root_cut(now)?;
                admit(root, lifetime)
            }
        };

        for _ in 0..self.max_steps {
            let resp = self
                .query_any(&cut.servers, qname, qtype, now, &cut.apex)
                .ok_or_else(|| ResolveError::AllServersUnreachable(cut.apex.to_string()))?;

            // A bogus delegation can never be repaired further down, but
            // resolution continues so CD-mode callers still get the
            // (untrusted) data.
            if let Some((next, lifetime)) = self.follow_referral(&cut, &resp, now) {
                cut = admit(next, lifetime);
                continue;
            }

            // Terminal answer.
            let security = self.validate_answer(&resp, &cut.apex, &cut.keys, now);
            let cname_target = resp.answers.iter().find_map(|r| match &r.rdata {
                RData::Cname(t) if qtype != RrType::Cname => Some(t.clone()),
                _ => None,
            });
            let has_direct_answer = resp.answers.iter().any(|r| r.rtype() == qtype);
            let negative_ttl = if resp.answers.is_empty() {
                soa_negative_ttl(&resp)
            } else {
                None
            };
            let records = resp
                .answers
                .iter()
                .filter(|r| r.rtype() != RrType::Rrsig)
                .cloned()
                .collect();
            let poisoned = self.forged_in_flight.take();
            if poisoned {
                self.stats.count_poison_admitted();
            }
            chain.extend(cut.chain.iter().cloned());
            return Ok((
                Answer {
                    records,
                    rcode: resp.rcode,
                    security,
                    chain: Vec::new(),
                    negative_ttl,
                    poisoned,
                },
                if has_direct_answer {
                    None
                } else {
                    cname_target
                },
            ));
        }
        Err(ResolveError::TooManySteps)
    }

    /// The root's cut — hints, and the DNSKEYs the trust anchor
    /// authenticates — with the lifetime it may be cached for (see
    /// [`Resolver::chain_to_zone`]).
    fn root_cut(&self, now: u32) -> Result<(ZoneCut, Option<u32>), ResolveError> {
        let servers = self.network.root_hints();
        if servers.is_empty() {
            return Err(ResolveError::NoRootHints);
        }
        let (keys, lifetime) = if self.trust_anchor.is_empty() {
            (Err(Security::Insecure), Some(u32::MAX))
        } else {
            self.chain_to_zone(&Name::root(), &servers, &self.trust_anchor, now)
        };
        let root = ZoneCut {
            apex: Name::root(),
            servers,
            keys,
            chain: vec![Name::root()],
        };
        Ok((root, lifetime))
    }

    /// Reads `resp` as a referral out of `parent`'s zone and steps across
    /// it; `None` when it is not a referral. With the child's cut comes
    /// the lifetime it may be cached for: the NS set's TTL, capped by
    /// whatever the trust chain's step used ([`Resolver::chain_across`]);
    /// `None` when that step ended in an outage.
    fn follow_referral(
        &self,
        parent: &ZoneCut,
        resp: &Message,
        now: u32,
    ) -> Option<(ZoneCut, Option<u32>)> {
        if !resp.answers.is_empty() || resp.flags.authoritative {
            return None;
        }
        let ns_records: Vec<&Record> = resp
            .authorities
            .iter()
            .filter(|r| r.rtype() == RrType::Ns)
            .collect();
        let apex = ns_records.first()?.name.clone();
        let servers: Vec<Name> = ns_records
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Ns(host) => Some(host.clone()),
                _ => None,
            })
            .collect();
        let (keys, lifetime) = match &parent.keys {
            Ok(parent_keys) => self.chain_across(parent, parent_keys, &apex, &servers, resp, now),
            Err(state) => (Err(state.clone()), Some(u32::MAX)),
        };
        let mut chain = parent.chain.clone();
        chain.push(apex.clone());
        let child = ZoneCut {
            apex,
            servers,
            keys,
            chain,
        };
        Some((child, lifetime.map(|l| l.min(min_ttl(ns_records)))))
    }

    /// The trust chain's step across a referral out of a secure `parent`:
    /// validates the DS RRset `resp` carries for `apex` with the parent's
    /// keys, then fetches `apex`'s DNSKEYs and authenticates them against
    /// it. The verdict's lifetime is the smaller of the DS and DNSKEY
    /// TTLs, capped by the remaining validity of the signatures over
    /// both (see [`Resolver::chain_to_zone`] for `None`).
    fn chain_across(
        &self,
        parent: &ZoneCut,
        parent_keys: &[DnskeyRdata],
        apex: &Name,
        servers: &[Name],
        resp: &Message,
        now: u32,
    ) -> (Result<Vec<DnskeyRdata>, Security>, Option<u32>) {
        let ds_records: Vec<Record> = resp
            .authorities
            .iter()
            .filter(|r| r.rtype() == RrType::Ds && r.name == *apex)
            .cloned()
            .collect();
        if ds_records.is_empty() {
            // Unsigned delegation → insecure subtree.
            return (Err(Security::Insecure), Some(u32::MAX));
        }
        let ds_ttl = min_ttl(&ds_records);
        let ds_rrset = RrSet::new(ds_records).expect("non-empty DS set");
        let ds_sigs: Vec<_> = resp
            .authorities
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Rrsig(s) if s.type_covered == RrType::Ds && r.name == *apex => {
                    Some(s.clone())
                }
                _ => None,
            })
            .collect();
        // Validate the DS RRset signature with parent keys.
        match validate_rrset(&ds_rrset, &ds_sigs, parent_keys, &parent.apex, now) {
            Ok(()) => {
                let ds: Vec<DsRdata> = ds_rrset
                    .records()
                    .iter()
                    .filter_map(|r| match &r.rdata {
                        RData::Ds(ds) => Some(ds.clone()),
                        _ => None,
                    })
                    .collect();
                let (keys, lifetime) = self.chain_to_zone(apex, servers, &ds, now);
                let ds_lifetime = ds_ttl.min(signature_lifetime(&ds_sigs, now));
                (keys, lifetime.map(|l| l.min(ds_lifetime)))
            }
            Err(e) => (Err(Security::Bogus(e)), Some(ds_ttl)),
        }
    }

    /// Fetches `zone`'s DNSKEY RRset from its servers and authenticates it
    /// against `ds_records`. The second value is how long the verdict may
    /// be cached: the DNSKEY TTL, capped by the remaining validity of the
    /// signatures over it — or `None` when no server gave an answer to
    /// judge (no response at all, or only SERVFAIL/REFUSED). That is an
    /// outage, not a fact about the zone: the caller gets the same
    /// `MissingDnskey` verdict as ever, but must not remember it.
    fn chain_to_zone(
        &self,
        zone: &Name,
        servers: &[Name],
        ds_records: &[DsRdata],
        now: u32,
    ) -> (Result<Vec<DnskeyRdata>, Security>, Option<u32>) {
        let missing = Err(Security::Bogus(ValidationError::MissingDnskey));
        let resp = match self.query_any(servers, zone, RrType::Dnskey, now, zone) {
            Some(resp) if !matches!(resp.rcode, Rcode::ServFail | Rcode::Refused) => resp,
            _ => return (missing, None),
        };
        let dnskey_records: Vec<Record> = resp
            .answers
            .iter()
            .filter(|r| r.rtype() == RrType::Dnskey)
            .cloned()
            .collect();
        if dnskey_records.is_empty() {
            // The zone answered, and has no keys: a negative answer.
            let ttl = soa_negative_ttl(&resp).unwrap_or(cache::DEFAULT_NEGATIVE_TTL);
            return (missing, Some(ttl.min(cache::MAX_NEGATIVE_TTL)));
        }
        let ttl = min_ttl(&dnskey_records);
        let dnskey_rrset = RrSet::new(dnskey_records).expect("uniform DNSKEY set");
        let sigs: Vec<_> = resp
            .answers
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Rrsig(s) if s.type_covered == RrType::Dnskey => Some(s.clone()),
                _ => None,
            })
            .collect();
        let keys = match authenticate_dnskeys(zone, &dnskey_rrset, &sigs, ds_records, now) {
            Ok(keys) => Ok(keys),
            Err(ValidationError::UnsupportedAlgorithm(_)) => Err(Security::Insecure),
            Err(e) => Err(Security::Bogus(e)),
        };
        (keys, Some(ttl.min(signature_lifetime(&sigs, now))))
    }

    /// Validates the answer (or negative-answer) sections with the current
    /// zone keys.
    fn validate_answer(
        &self,
        resp: &Message,
        zone: &Name,
        zone_keys: &Result<Vec<DnskeyRdata>, Security>,
        now: u32,
    ) -> Security {
        let keys = match zone_keys {
            Ok(keys) => keys,
            Err(state) => return state.clone(),
        };
        // Validate every non-RRSIG RRset in the answer section; negative
        // answers validate the authority section (SOA/NSEC).
        let section = if resp.answers.is_empty() {
            &resp.authorities
        } else {
            &resp.answers
        };
        let sigs: Vec<_> = section
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Rrsig(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        for rrset in group_rrsets(section) {
            if rrset.rtype() == RrType::Rrsig {
                continue;
            }
            if let Err(e) = validate_rrset(&rrset, &sigs, keys, zone, now) {
                return Security::Bogus(e);
            }
        }
        Security::Secure
    }

    /// Applies the on-path threat model to an accepted response: the
    /// deterministic Kaminsky race (a won race substitutes the attacker's
    /// forged response for the legitimate one), then strict-bailiwick
    /// scrubbing of whichever response survives. When no threat is
    /// configured no forged packets exist, so this is a single branch on
    /// the hot path.
    fn guard_response(&self, response: Message, query: &Message, bailiwick: &Name) -> Message {
        let Some(threat) = &self.threat else {
            return response;
        };
        let Some(q) = query.questions.first() else {
            return response;
        };
        let mut resp = response;
        if threat.covers(&q.name, q.qtype) {
            self.stats.count_poison_race();
            if threat.race_won(&self.spoof_guard, &q.name, q.qtype) {
                resp = threat.forged_response(query);
                self.forged_in_flight.set(true);
            }
        }
        let scrubbed = self.spoof_guard.scrub_response(&mut resp, bailiwick);
        if scrubbed > 0 {
            self.stats.count_poison_scrubbed(scrubbed as u64);
        }
        resp
    }

    /// Asks the zone cut's servers through one [`Exchange`] (DESIGN.md
    /// §18.1: the retry ladder and the REFUSED rule), with this
    /// resolver's health ordering, breakers, counters and resolution-wide
    /// latency budget. A usable answer goes through
    /// [`Resolver::guard_response`]; an error rcode that is all that came
    /// back reaches the caller as it is.
    fn query_any(
        &self,
        servers: &[Name],
        qname: &Name,
        qtype: RrType,
        now: u32,
        bailiwick: &Name,
    ) -> Option<Message> {
        let id = self.next_id.get();
        self.next_id.set(id.wrapping_add(1));
        let query = Message::query(id, qname.clone(), qtype, true);
        let exchange = Exchange {
            health: Some(&self.health),
            breaker: self.breaker.as_ref(),
            stats: Some(&self.stats),
            spent: Some(&self.budget_spent),
            ..Exchange::new(&self.network, self.policy, Some(now))
        };
        match exchange.ask(servers, &query) {
            ExchangeOutcome::Answered { response, .. }
                if !matches!(response.rcode, Rcode::ServFail | Rcode::Refused) =>
            {
                Some(self.guard_response(response, &query, bailiwick))
            }
            outcome => outcome.into_response(),
        }
    }
}

/// The trust anchor (root KSK DS) for a root zone signed with `root_keys`.
pub fn trust_anchor_for(root_keys: &dsec_dnssec::ZoneKeys) -> Vec<DsRdata> {
    vec![root_keys.ds(DigestType::Sha256)]
}

/// RFC 2308: a negative answer's cacheable lifetime is
/// min(SOA record TTL, SOA minimum), taken from the SOA the authority
/// attached to the NXDOMAIN/NODATA response.
fn soa_negative_ttl(resp: &Message) -> Option<u32> {
    resp.authorities.iter().find_map(|r| match &r.rdata {
        RData::Soa(soa) => Some(r.ttl.min(soa.minimum)),
        _ => None,
    })
}

/// The smallest TTL among `records` (`u32::MAX` for none).
fn min_ttl<'a>(records: impl IntoIterator<Item = &'a Record>) -> u32 {
    records.into_iter().map(|r| r.ttl).min().unwrap_or(u32::MAX)
}

/// Seconds until the first of `sigs` still inside its validity window
/// runs out (`u32::MAX` when none is): the validation they carried at
/// `now` is only known to repeat until then.
fn signature_lifetime(sigs: &[RrsigRdata], now: u32) -> u32 {
    sigs.iter()
        .filter(|s| s.expiration >= now)
        .map(|s| s.expiration - now)
        .min()
        .unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_authserver::Authority;
    use dsec_crypto::Algorithm;
    use dsec_dnssec::{sign_zone, SignerConfig, ZoneKeys};
    use dsec_wire::{SoaRdata, Zone};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    const NOW: u32 = 1_450_000_000;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn soa(zone: &str) -> Record {
        let owner = if zone == "." {
            Name::root()
        } else {
            name(zone)
        };
        Record::new(
            owner,
            3600,
            RData::Soa(SoaRdata {
                mname: name("ns1.invalid"),
                rname: name("hostmaster.invalid"),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        )
    }

    /// A three-level signed hierarchy: . → com → example.com.
    struct World {
        network: Arc<Network>,
        root_keys: ZoneKeys,
        com_auth: Arc<Authority>,
        example_auth: Arc<Authority>,
    }

    fn build_world(sign_example: bool, upload_example_ds: bool) -> World {
        build_world_valid_for(sign_example, upload_example_ds, 90 * 86400)
    }

    /// [`build_world`] with every signature expiring `validity_s` after
    /// `NOW - 100`.
    fn build_world_valid_for(
        sign_example: bool,
        upload_example_ds: bool,
        validity_s: u32,
    ) -> World {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let cfg = SignerConfig::valid_from(NOW - 100, validity_s);

        let root_keys =
            ZoneKeys::generate_default(&mut rng, Name::root(), Algorithm::RsaSha256).unwrap();
        let com_keys =
            ZoneKeys::generate_default(&mut rng, name("com"), Algorithm::RsaSha256).unwrap();
        let example_keys =
            ZoneKeys::generate_default(&mut rng, name("example.com"), Algorithm::RsaSha256)
                .unwrap();

        // example.com zone.
        let mut example = Zone::new(name("example.com"));
        example.add(soa("example.com")).unwrap();
        example
            .add(Record::new(
                name("example.com"),
                3600,
                RData::Ns(name("ns1.operator.net")),
            ))
            .unwrap();
        example
            .add(Record::new(
                name("www.example.com"),
                300,
                RData::A("192.0.2.80".parse().unwrap()),
            ))
            .unwrap();
        example
            .add(Record::new(
                name("alias.example.com"),
                300,
                RData::Cname(name("www.example.com")),
            ))
            .unwrap();
        if sign_example {
            sign_zone(&mut example, &example_keys, &cfg).unwrap();
        }

        // com zone: delegation (+DS if uploaded).
        let mut com = Zone::new(name("com"));
        com.add(soa("com")).unwrap();
        com.add(Record::new(
            name("com"),
            3600,
            RData::Ns(name("a.gtld-servers.net")),
        ))
        .unwrap();
        com.add(Record::new(
            name("example.com"),
            172800,
            RData::Ns(name("ns1.operator.net")),
        ))
        .unwrap();
        if upload_example_ds {
            com.add(Record::new(
                name("example.com"),
                86400,
                RData::Ds(example_keys.ds(DigestType::Sha256)),
            ))
            .unwrap();
        }
        sign_zone(&mut com, &com_keys, &cfg).unwrap();

        // root zone.
        let mut root = Zone::new(Name::root());
        root.add(soa(".")).unwrap();
        root.add(Record::new(
            Name::root(),
            3600,
            RData::Ns(name("a.root-servers.net")),
        ))
        .unwrap();
        root.add(Record::new(
            name("com"),
            172800,
            RData::Ns(name("a.gtld-servers.net")),
        ))
        .unwrap();
        root.add(Record::new(
            name("com"),
            86400,
            RData::Ds(com_keys.ds(DigestType::Sha256)),
        ))
        .unwrap();
        sign_zone(&mut root, &root_keys, &cfg).unwrap();

        let network = Arc::new(Network::new());
        let root_auth = Authority::new();
        root_auth.upsert_zone(root);
        network.register(name("a.root-servers.net"), Arc::new(root_auth));
        let com_auth = Arc::new(Authority::new());
        com_auth.upsert_zone(com);
        network.register(name("a.gtld-servers.net"), com_auth.clone());
        let example_auth = Arc::new(Authority::new());
        example_auth.upsert_zone(example);
        network.register(name("ns1.operator.net"), example_auth.clone());
        network.set_root_hints(vec![name("a.root-servers.net")]);

        World {
            network,
            root_keys,
            com_auth,
            example_auth,
        }
    }

    #[test]
    fn secure_resolution_end_to_end() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(answer.rcode, Rcode::NoError);
        assert_eq!(answer.security, Security::Secure);
        assert_eq!(answer.records.len(), 1);
        assert_eq!(
            answer.chain,
            vec![Name::root(), name("com"), name("example.com")]
        );
    }

    #[test]
    fn unsigned_leaf_is_insecure() {
        let w = build_world(false, false);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(answer.security, Security::Insecure);
        assert_eq!(answer.records.len(), 1, "insecure data still resolves");
    }

    #[test]
    fn partial_deployment_resolves_but_is_insecure() {
        // The paper's "partially deployed": signed zone, no DS uploaded.
        let w = build_world(true, false);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(answer.security, Security::Insecure);
        assert_eq!(answer.records.len(), 1);
    }

    #[test]
    fn ds_without_signatures_is_bogus_servfail() {
        // DS uploaded but the child zone was never signed: a validating
        // resolver must SERVFAIL — the domain goes dark for DNSSEC users.
        let w = build_world(false, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(answer.rcode, Rcode::ServFail);
        assert!(matches!(answer.security, Security::Bogus(_)));
        assert!(answer.records.is_empty());
    }

    #[test]
    fn checking_disabled_returns_bogus_data() {
        let w = build_world(false, true);
        let mut resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        resolver.checking_disabled = true;
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert!(matches!(answer.security, Security::Bogus(_)));
        assert_eq!(answer.records.len(), 1, "CD returns data despite bogus");
    }

    #[test]
    fn no_trust_anchor_means_insecure() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), Vec::new());
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(answer.security, Security::Insecure);
    }

    #[test]
    fn wrong_trust_anchor_is_bogus() {
        let w = build_world(true, true);
        let mut rng = StdRng::seed_from_u64(4242);
        let fake_root =
            ZoneKeys::generate_default(&mut rng, Name::root(), Algorithm::RsaSha256).unwrap();
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&fake_root));
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(answer.rcode, Rcode::ServFail);
    }

    #[test]
    fn cname_is_chased_securely() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let answer = resolver
            .resolve(&name("alias.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(answer.security, Security::Secure);
        assert!(answer.records.iter().any(|r| r.rtype() == RrType::Cname));
        assert!(answer.records.iter().any(|r| r.rtype() == RrType::A));
    }

    #[test]
    fn nxdomain_propagates() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let answer = resolver
            .resolve(&name("missing.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(answer.rcode, Rcode::NxDomain);
        assert!(answer.records.is_empty());
    }

    #[test]
    fn expired_signatures_turn_bogus() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let after_expiry = NOW + 120 * 86400;
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, after_expiry)
            .unwrap();
        assert_eq!(answer.rcode, Rcode::ServFail);
    }

    #[test]
    fn tampered_zone_data_detected() {
        // Overwrite the A record *after* signing: the RRSIG no longer
        // matches → bogus.
        let w = build_world(true, true);
        w.example_auth.with_zone_mut(&name("example.com"), |z| {
            z.remove_rrset(&name("www.example.com"), RrType::A);
            z.add(Record::new(
                name("www.example.com"),
                300,
                RData::A("203.0.113.66".parse().unwrap()), // hijack
            ))
            .unwrap();
        });
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(
            answer.rcode,
            Rcode::ServFail,
            "hijacked data must not validate"
        );
    }

    #[test]
    fn unreachable_nameserver_reported() {
        let w = build_world(true, true);
        w.network.deregister(&name("ns1.operator.net"));
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let err = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap_err();
        assert!(matches!(err, ResolveError::AllServersUnreachable(_)));
    }

    #[test]
    fn missing_root_hints_reported() {
        let w = build_world(true, true);
        w.network.set_root_hints(Vec::new());
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        assert_eq!(
            resolver.resolve(&name("www.example.com"), RrType::A, NOW),
            Err(ResolveError::NoRootHints)
        );
    }

    #[test]
    fn diagnose_healthy_chain() {
        let w = build_world(true, true);
        let report = crate::diagnose::diagnose(
            &w.network,
            &trust_anchor_for(&w.root_keys),
            &name("example.com"),
            NOW,
        );
        assert!(report.is_secure(), "{report}");
        assert_eq!(report.zones.len(), 3);
        assert!(report.zones.iter().all(|z| z.link_ok));
        assert!(report.advice.is_empty());
        let text = report.to_string();
        assert!(text.contains("verdict: Secure"));
    }

    #[test]
    fn diagnose_partial_deployment() {
        let w = build_world(true, false);
        let report = crate::diagnose::diagnose(
            &w.network,
            &trust_anchor_for(&w.root_keys),
            &name("example.com"),
            NOW,
        );
        assert_eq!(report.verdict, Security::Insecure);
        let leaf = report.zones.last().unwrap();
        assert_eq!(leaf.ds_link, crate::diagnose::DsLink::Absent);
        assert!(matches!(
            leaf.signatures,
            crate::diagnose::SignatureState::Valid { .. }
        ));
        assert!(report.advice.iter().any(|a| a.contains("partially")));
    }

    #[test]
    fn diagnose_unsigned_domain() {
        let w = build_world(false, false);
        let report = crate::diagnose::diagnose(
            &w.network,
            &trust_anchor_for(&w.root_keys),
            &name("example.com"),
            NOW,
        );
        assert_eq!(report.verdict, Security::Insecure);
        let leaf = report.zones.last().unwrap();
        assert!(leaf.keys.is_empty());
        assert_eq!(leaf.signatures, crate::diagnose::SignatureState::Unsigned);
    }

    #[test]
    fn diagnose_ds_mismatch() {
        let w = build_world(false, true); // DS uploaded, zone unsigned
        let report = crate::diagnose::diagnose(
            &w.network,
            &trust_anchor_for(&w.root_keys),
            &name("example.com"),
            NOW,
        );
        assert!(matches!(report.verdict, Security::Bogus(_)));
        assert!(report
            .advice
            .iter()
            .any(|a| a.contains("SERVFAIL") || a.contains("unsigned")));
    }

    #[test]
    fn diagnose_expired_signatures() {
        let w = build_world(true, true);
        let later = NOW + 120 * 86_400;
        let report = crate::diagnose::diagnose(
            &w.network,
            &trust_anchor_for(&w.root_keys),
            &name("example.com"),
            later,
        );
        assert!(matches!(report.verdict, Security::Bogus(_)));
        assert!(report
            .zones
            .iter()
            .any(|z| z.signatures == crate::diagnose::SignatureState::Expired));
        assert!(report.advice.iter().any(|a| a.contains("re-sign")));
    }

    #[test]
    fn diagnose_retries_an_injected_servfail() {
        // The SERVFAIL carries no zone data: read as the DNSKEY answer it
        // would make the healthy zone look unsigned.
        let w = build_world(true, true);
        w.network.faults().enable(36);
        w.network.faults().script(
            &name("ns1.operator.net"),
            [dsec_authserver::Fault::ServFail],
        );
        let anchor = trust_anchor_for(&w.root_keys);
        let report = crate::diagnose::diagnose(&w.network, &anchor, &name("example.com"), NOW);
        assert!(report.is_secure(), "{report}");
    }

    #[test]
    fn diagnose_sees_an_outage_window_over_its_clock() {
        let w = build_world(true, true);
        w.network.faults().enable(37);
        w.network
            .faults()
            .schedule_down(&name("ns1.operator.net"), NOW - 10, NOW + 10);
        let anchor = trust_anchor_for(&w.root_keys);
        let report = crate::diagnose::diagnose(&w.network, &anchor, &name("example.com"), NOW);
        assert!(!report.is_secure(), "{report}");
        assert!(report
            .advice
            .iter()
            .any(|a| a.contains("no nameserver answered")));
    }

    #[test]
    fn retries_through_dropped_packets() {
        // Two dropped packets in a row on the leaf's only server: the
        // resolver backs off, retries, and still validates the chain.
        let w = build_world(true, true);
        let ns = name("ns1.operator.net");
        w.network.faults().enable(3);
        w.network.faults().script(
            &ns,
            [dsec_authserver::Fault::Drop, dsec_authserver::Fault::Drop],
        );
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(answer.security, Security::Secure);
        assert_eq!(answer.records.len(), 1);
        let stats = resolver.stats();
        assert_eq!(stats.timeouts, 2);
        assert!(stats.backoff_ms > 0, "backoff accounted for retries");
    }

    #[test]
    fn dead_fleet_yields_servfail_with_unreachable_diagnosis() {
        let w = build_world(true, true);
        w.network.faults().enable(4);
        for ns in [
            "a.root-servers.net",
            "a.gtld-servers.net",
            "ns1.operator.net",
        ] {
            w.network.faults().set_down(&name(ns), true);
        }
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys))
            .with_policy(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            });
        // Transport failure is a hard error, distinct from a lookup
        // failure, and names the zone cut that never answered.
        match resolver.resolve(&name("www.example.com"), RrType::A, NOW) {
            Err(ResolveError::AllServersUnreachable(zone)) => assert_eq!(zone, "."),
            other => panic!("expected AllServersUnreachable, got {other:?}"),
        }
        assert!(resolver.stats().timeouts > 0, "the retry budget was spent");
    }

    #[test]
    fn truncation_triggers_single_tcp_fallback() {
        let w = build_world(true, true);
        let ns = name("ns1.operator.net");
        w.network.faults().enable(5);
        w.network
            .faults()
            .script(&ns, [dsec_authserver::Fault::Truncate]);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(answer.security, Security::Secure, "TCP answer validates");
        assert_eq!(
            w.network.tcp_query_count(),
            1,
            "exactly one TCP fallback for one truncation"
        );
        assert_eq!(resolver.stats().tcp_fallbacks, 1);
    }

    #[test]
    fn robust_resolution_reports_clean_and_retried_paths() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let clean = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(clean.security, Security::Secure);
        let before = resolver.stats();
        assert_eq!(
            (before.timeouts, before.tcp_fallbacks, before.error_rcodes),
            (0, 0, 0),
            "a clean path counts no retry"
        );

        w.network.faults().enable(6);
        w.network
            .faults()
            .script(&name("a.gtld-servers.net"), [dsec_authserver::Fault::Drop]);
        let retried = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(retried.security, Security::Secure);
        let after = resolver.stats();
        assert_eq!(after.timeouts, 1, "the dropped exchange was retried once");
        assert_eq!(
            after.udp_attempts - before.udp_attempts,
            before.udp_attempts + 1,
            "the same walk plus the one retry"
        );
    }

    #[test]
    fn failing_server_is_deprioritized_across_queries() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        w.network.faults().enable(7);
        w.network.faults().set_down(&name("ns1.operator.net"), true);
        let _ = resolver.resolve(&name("www.example.com"), RrType::A, NOW);
        let penalty_while_down = resolver.health().penalty(&name("ns1.operator.net"));
        assert!(penalty_while_down > 0, "timeouts accumulate penalty");
        w.network
            .faults()
            .set_down(&name("ns1.operator.net"), false);
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(answer.security, Security::Secure);
        assert!(
            resolver.health().penalty(&name("ns1.operator.net")) < penalty_while_down,
            "successes decay the penalty"
        );
    }

    #[test]
    fn negative_answers_cached_under_soa_minimum() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let first = resolver
            .resolve_cached(&name("missing.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(first.rcode, Rcode::NxDomain);
        assert_eq!(
            first.negative_ttl,
            Some(300),
            "min(SOA TTL 3600, minimum 300)"
        );
        let queries = w.network.query_count();
        // Within the SOA minimum, the repeat miss is a negative hit.
        let hit = resolver
            .resolve_cached(&name("missing.example.com"), RrType::A, NOW + 299)
            .unwrap();
        assert_eq!(hit.rcode, Rcode::NxDomain);
        assert_eq!(
            w.network.query_count(),
            queries,
            "served from negative cache"
        );
        assert_eq!(resolver.stats().negative_hits, 1);
        // Past it, authorities are consulted again.
        let _ = resolver
            .resolve_cached(&name("missing.example.com"), RrType::A, NOW + 300)
            .unwrap();
        assert!(w.network.query_count() > queries);
    }

    #[test]
    fn stale_answer_served_during_outage_window() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys))
            .with_shared_cache(Arc::new(Cache::bounded(64).with_max_stale(3600)));
        let warm = resolver
            .resolve_cached(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(warm.security, Security::Secure);
        // Whole fleet goes dark; the www A record (TTL 300) has expired.
        w.network.faults().enable(21);
        for ns in [
            "a.root-servers.net",
            "a.gtld-servers.net",
            "ns1.operator.net",
        ] {
            w.network.faults().set_down(&name(ns), true);
        }
        let stale = resolver
            .resolve_cached(&name("www.example.com"), RrType::A, NOW + 400)
            .unwrap();
        assert_eq!(
            stale.records, warm.records,
            "stale serve returns the old data"
        );
        assert_eq!(resolver.stats().stale_hits, 1);
        // Past the stale horizon, the transport failure propagates:
        // serve-stale never resurrects entries beyond max_stale.
        assert!(resolver
            .resolve_cached(&name("www.example.com"), RrType::A, NOW + 300 + 3600 + 10)
            .is_err());
    }

    #[test]
    fn stale_serve_does_not_mask_bogus_servfail() {
        // DS uploaded but the zone unsigned: validation fails, answers
        // SERVFAIL through the Ok path — and the SERVFAIL is what gets
        // cached and re-served, never a stale "good" answer.
        let w = build_world(false, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys))
            .with_shared_cache(Arc::new(Cache::bounded(64).with_max_stale(3600)));
        let bogus = resolver
            .resolve_cached(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        assert_eq!(bogus.rcode, Rcode::ServFail);
        assert_eq!(resolver.stats().stale_hits, 0);
    }

    #[test]
    fn breaker_trips_during_window_and_recloses_after() {
        let w = build_world(true, true);
        w.network.faults().enable(22);
        let ns = name("ns1.operator.net");
        w.network.faults().schedule_down(&ns, NOW, NOW + 100);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys))
            .with_breaker(BreakerPolicy::default());
        // During the window, failures accumulate and the breaker trips;
        // further attempts in the same sim-second short-circuit.
        let _ = resolver.resolve(&name("www.example.com"), RrType::A, NOW + 10);
        assert!(resolver.stats().breaker_trips >= 1);
        assert_eq!(resolver.breaker().unwrap().open_count(), 1);
        let _ = resolver.resolve(&name("www.example.com"), RrType::A, NOW + 10);
        assert!(resolver.stats().breaker_short_circuits > 0);
        // After the window, the first probe succeeds and the breaker
        // re-closes — full recovery, validated answer.
        let answer = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW + 200)
            .unwrap();
        assert_eq!(answer.security, Security::Secure);
        assert_eq!(resolver.breaker().unwrap().open_count(), 0);
        let kinds: Vec<Transition> = resolver
            .breaker()
            .unwrap()
            .transitions()
            .iter()
            .map(|e| e.transition)
            .collect();
        assert!(kinds.contains(&Transition::Trip));
        assert!(kinds.contains(&Transition::Probe));
        assert!(kinds.contains(&Transition::Close));
    }

    #[test]
    fn sustained_outage_exhausts_latency_budget() {
        let w = build_world(true, true);
        w.network.faults().enable(23);
        for ns in [
            "a.root-servers.net",
            "a.gtld-servers.net",
            "ns1.operator.net",
        ] {
            w.network.faults().set_down(&name(ns), true);
        }
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let err = resolver
            .resolve(&name("www.example.com"), RrType::A, NOW)
            .unwrap_err();
        assert!(matches!(err, ResolveError::AllServersUnreachable(_)));
        let stats = resolver.stats();
        assert_eq!(stats.budget_exhausted, 1, "the 3s budget was crossed once");
        // Without the budget, the walk would burn 8 attempts on the root
        // DNSKEY fetch and 8 more on the root zone cut; the budget cuts
        // it off well before that.
        assert!(
            stats.udp_attempts <= 6,
            "attempts {} not clamped",
            stats.udp_attempts
        );
    }

    /// Queries a from-the-root walk to a name in example.com sends: a
    /// DNSKEY fetch and one question per zone on the way down.
    const FULL_WALK: u64 = 6;

    fn www() -> Name {
        name("www.example.com")
    }

    #[test]
    fn second_miss_under_a_cached_zone_asks_one_question() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let first = resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        assert_eq!(first, resolver.resolve(&www(), RrType::A, NOW).unwrap());
        assert_eq!(resolver.cache().cut_count(), 3, "root, com, example.com");
        assert_eq!(resolver.cache().len(), 1, "cuts are not answers");

        // NODATA, NXDOMAIN, the apex, a CNAME chase (two walks), and a DS
        // (which the parent side of the cut answers): each is what the
        // walk from the root returns — chain included — for one question
        // per walk instead of six.
        for (qname, qtype, questions) in [
            (www(), RrType::Aaaa, 1),
            (name("missing.example.com"), RrType::A, 1),
            (name("example.com"), RrType::Ns, 1),
            (name("alias.example.com"), RrType::A, 2),
            (name("example.com"), RrType::Ds, 1),
        ] {
            let before = w.network.query_count();
            let cached = resolver.resolve_cached(&qname, qtype, NOW + 1).unwrap();
            assert_eq!(
                w.network.query_count() - before,
                questions,
                "{qname} {qtype:?}"
            );
            let from_root = resolver.resolve(&qname, qtype, NOW + 1).unwrap();
            assert_eq!(cached, from_root, "{qname} {qtype:?}");
            assert_eq!(cached.security, Security::Secure);
        }
        assert_eq!(resolver.stats().cache_misses, 6, "every one of them a miss");
    }

    #[test]
    fn non_validating_walks_resume_at_cached_cuts_too() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), Vec::new());
        resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        let before = w.network.query_count();
        let cached = resolver.resolve_cached(&www(), RrType::Aaaa, NOW).unwrap();
        assert_eq!(w.network.query_count() - before, 1);
        assert_eq!(cached, resolver.resolve(&www(), RrType::Aaaa, NOW).unwrap());
        assert_eq!(cached.security, Security::Insecure);
    }

    #[test]
    fn cut_expires_with_its_shortest_ttl() {
        // NS 172,800 s, DS 86,400 s, DNSKEY 3,600 s: the keys go first.
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        let before = w.network.query_count();
        resolver
            .resolve_cached(&www(), RrType::Aaaa, NOW + 3_599)
            .unwrap();
        assert_eq!(w.network.query_count() - before, 1, "live until the TTL");
        let before = w.network.query_count();
        let answer = resolver
            .resolve_cached(&www(), RrType::Mx, NOW + 3_600)
            .unwrap();
        assert_eq!(w.network.query_count() - before, FULL_WALK, "expired at it");
        assert_eq!(answer.security, Security::Secure);

        // An unsigned delegation has no DS or DNSKEY to wait for: its cut
        // lives as long as the NS set, capped at one day like any entry.
        let w = build_world(false, false);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        let before = w.network.query_count();
        resolver
            .resolve_cached(&www(), RrType::Aaaa, NOW + 86_399)
            .unwrap();
        // The root's and com's keys are long gone, example.com's cut is not.
        assert_eq!(w.network.query_count() - before, 1);
        let before = w.network.query_count();
        resolver
            .resolve_cached(&www(), RrType::Mx, NOW + 86_400)
            .unwrap();
        assert_eq!(w.network.query_count() - before, FULL_WALK - 1);
    }

    #[test]
    fn cut_never_outlives_the_signatures_it_was_validated_with() {
        // Every RRSIG expires at NOW + 900, well inside every TTL.
        let w = build_world_valid_for(true, true, 1_000);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        let before = w.network.query_count();
        resolver
            .resolve_cached(&www(), RrType::Aaaa, NOW + 899)
            .unwrap();
        assert_eq!(w.network.query_count() - before, 1);
        // At the expiration second the signatures still verify, but the
        // cuts are gone: the chain is rebuilt rather than trusted.
        let before = w.network.query_count();
        let last = resolver
            .resolve_cached(&www(), RrType::Mx, NOW + 900)
            .unwrap();
        assert_eq!(w.network.query_count() - before, FULL_WALK);
        assert_eq!(last.security, Security::Secure);
        assert_eq!(
            resolver.cache().cut_count(),
            3,
            "and nothing was stored for 0 s"
        );
        // One second on nothing validates, and no cached key says otherwise.
        let expired = resolver
            .resolve_cached(&www(), RrType::Txt, NOW + 901)
            .unwrap();
        assert_eq!(expired.rcode, Rcode::ServFail);
        assert!(matches!(
            expired.security,
            Security::Bogus(ValidationError::Expired { .. })
        ));
    }

    #[test]
    fn bogus_cut_stays_servfail_without_refetching() {
        // DS uploaded, zone never signed: the DNSKEY fetch is answered
        // (NODATA), so the verdict is data and is remembered.
        let w = build_world(false, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys))
            .with_shared_cache(Arc::new(Cache::bounded(64).with_max_stale(3600)));
        let first = resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        assert_eq!(first.rcode, Rcode::ServFail);
        let before = w.network.query_count();
        let second = resolver
            .resolve_cached(&www(), RrType::Aaaa, NOW + 1)
            .unwrap();
        assert_eq!(
            w.network.query_count() - before,
            1,
            "no second DNSKEY fetch"
        );
        assert_eq!(second.rcode, Rcode::ServFail);
        assert_eq!(
            second.security,
            Security::Bogus(ValidationError::MissingDnskey)
        );
        assert_eq!(
            second,
            resolver.resolve(&www(), RrType::Aaaa, NOW + 1).unwrap()
        );
        // …for the negative TTL of that NODATA (SOA minimum, 300 s).
        let before = w.network.query_count();
        resolver
            .resolve_cached(&www(), RrType::Mx, NOW + 300)
            .unwrap();
        assert_eq!(
            w.network.query_count() - before,
            3,
            "referral, DNSKEY, question"
        );
        assert_eq!(resolver.stats().stale_hits, 0);
    }

    #[test]
    fn stale_serve_does_not_mask_a_chain_that_broke_under_a_cached_cut() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys))
            .with_shared_cache(Arc::new(Cache::bounded(64).with_max_stale(3600)));
        let good = resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        assert_eq!(good.security, Security::Secure);
        w.example_auth.with_zone_mut(&name("example.com"), |z| {
            z.remove_rrset(&www(), RrType::A);
            z.add(Record::new(
                www(),
                300,
                RData::A("203.0.113.66".parse().unwrap()),
            ))
            .unwrap();
        });
        // The answer (TTL 300) has expired into the stale horizon; the
        // cut (3,600 s) is live, and its keys refuse the new data.
        let refused = resolver
            .resolve_cached(&www(), RrType::A, NOW + 400)
            .unwrap();
        assert_eq!(refused.rcode, Rcode::ServFail);
        assert!(refused.records.is_empty());
        assert_eq!(resolver.stats().stale_hits, 0);
    }

    #[test]
    fn dnskey_fetch_nobody_answered_is_not_remembered() {
        let w = build_world(true, true);
        w.network.faults().enable(31);
        let ns = name("ns1.operator.net");
        w.network.faults().schedule_down(&ns, NOW, NOW + 100);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        // The referral into example.com is processed, its DNSKEY fetch
        // times out, and so does the question.
        assert!(matches!(
            resolver.resolve_cached(&www(), RrType::A, NOW + 10),
            Err(ResolveError::AllServersUnreachable(_))
        ));
        assert_eq!(resolver.cache().cut_count(), 2, "root and com only");
        // A remembered `MissingDnskey` would make this ServFail until the
        // DS expired; the outage is over, so is its effect.
        let after = resolver
            .resolve_cached(&www(), RrType::A, NOW + 200)
            .unwrap();
        assert_eq!(after.security, Security::Secure);
        assert_eq!(resolver.cache().cut_count(), 3);

        // Same for a fleet that answers, but only with SERVFAIL.
        let w = build_world(true, true);
        w.network.faults().enable(32);
        w.network.faults().script(
            &ns,
            std::iter::repeat_n(dsec_authserver::Fault::ServFail, 16),
        );
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let during = resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        assert_eq!(during.rcode, Rcode::ServFail);
        assert_eq!(resolver.cache().cut_count(), 2);
        let after = resolver.resolve_cached(&www(), RrType::Aaaa, NOW).unwrap();
        assert_eq!(after.security, Security::Secure);
    }

    #[test]
    fn nothing_below_an_unsettled_cut_is_remembered() {
        // com's DNSKEY fetch is lost (both attempts of a two-attempt
        // ladder), its referral then arrives: example.com inherits a
        // verdict that is really com's outage.
        let w = build_world(true, true);
        w.network.faults().enable(35);
        w.network.faults().script(
            &name("a.gtld-servers.net"),
            [dsec_authserver::Fault::Drop, dsec_authserver::Fault::Drop],
        );
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys))
            .with_policy(RetryPolicy {
                max_attempts: 2,
                budget_ms: u32::MAX,
                ..RetryPolicy::default()
            });
        let during = resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        assert_eq!(
            during.security,
            Security::Bogus(ValidationError::MissingDnskey)
        );
        assert_eq!(
            resolver.cache().cut_count(),
            1,
            "the root's, settled before the loss"
        );
        let after = resolver.resolve_cached(&www(), RrType::Aaaa, NOW).unwrap();
        assert_eq!(after.security, Security::Secure);
        assert_eq!(resolver.cache().cut_count(), 3);
    }

    #[test]
    fn breaker_still_guards_a_cached_cut() {
        let w = build_world(true, true);
        w.network.faults().enable(33);
        let ns = name("ns1.operator.net");
        w.network.faults().schedule_down(&ns, NOW + 5, NOW + 100);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys))
            .with_breaker(BreakerPolicy::default());
        resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        // The walk starts at example.com's cached cut, straight into the
        // outage: the failures trip the breaker…
        assert!(resolver
            .resolve_cached(&www(), RrType::Aaaa, NOW + 10)
            .is_err());
        assert_eq!(resolver.stats().breaker_trips, 1);
        // …and the next walk from the same cut is short-circuited without
        // a packet leaving.
        let before = w.network.query_count();
        assert!(resolver
            .resolve_cached(&www(), RrType::Mx, NOW + 10)
            .is_err());
        assert!(resolver.stats().breaker_short_circuits > 0);
        assert_eq!(w.network.query_count(), before);
        // Recovery: the half-open probe goes to the cached cut's server.
        let after = resolver
            .resolve_cached(&www(), RrType::Mx, NOW + 200)
            .unwrap();
        assert_eq!(after.security, Security::Secure);
        assert_eq!(resolver.breaker().unwrap().open_count(), 0);
    }

    #[test]
    fn resolve_sees_a_changed_world_where_resolve_cached_keeps_its_ttl() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        // The registry withdraws the DS: example.com is now insecure.
        w.com_auth.with_zone_mut(&name("com"), |z| {
            z.remove_rrset(&name("example.com"), RrType::Ds);
        });
        let walked = resolver.resolve(&www(), RrType::Aaaa, NOW).unwrap();
        assert_eq!(
            walked.security,
            Security::Insecure,
            "resolve() reads no cut"
        );
        let cached = resolver.resolve_cached(&www(), RrType::Aaaa, NOW).unwrap();
        assert_eq!(
            cached.security,
            Security::Secure,
            "the cached cut has not expired"
        );
        assert_eq!(resolver.cache().cut_count(), 3, "and resolve() wrote none");
        // Past the cut's lifetime the cached path agrees.
        let later = resolver
            .resolve_cached(&www(), RrType::Mx, NOW + 3_600)
            .unwrap();
        assert_eq!(later.security, Security::Insecure);
        // `resolve()` on a fresh resolver leaves the cache empty.
        let fresh = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        fresh.resolve(&www(), RrType::A, NOW).unwrap();
        assert_eq!(fresh.cache().cut_count() + fresh.cache().len(), 0);
    }

    #[test]
    fn flushing_an_origin_forgets_the_cuts_under_it() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        assert_eq!(
            resolver.cache().flush_origin(&name("com")),
            3,
            "2 cuts, 1 answer"
        );
        assert_eq!(resolver.cache().cut_count(), 1, "the root's stays");
        let before = w.network.query_count();
        resolver.resolve_cached(&www(), RrType::A, NOW).unwrap();
        assert_eq!(w.network.query_count() - before, FULL_WALK - 1);
    }

    #[test]
    fn priming_fetches_the_cuts_once_and_caches_no_answer() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        resolver.prime_cut(&name("com"), NOW);
        assert_eq!(resolver.cache().cut_count(), 2);
        assert_eq!(resolver.cache().len(), 0);
        assert_eq!(resolver.stats().cache_misses, 0);
        let primed = w.network.query_count();
        resolver.prime_cut(&name("com"), NOW + 10);
        assert_eq!(w.network.query_count(), primed, "live: nothing to do");
        let answer = resolver
            .resolve_cached(&www(), RrType::A, NOW + 10)
            .unwrap();
        assert_eq!(
            w.network.query_count() - primed,
            3,
            "referral, DNSKEY, question"
        );
        assert_eq!(
            answer,
            resolver.resolve(&www(), RrType::A, NOW + 10).unwrap()
        );
    }

    #[test]
    fn refused_is_asked_once_per_server_while_servfail_is_retried() {
        // ns1.operator.net answers, but serves no zone: lame.
        let w = build_world(false, false);
        w.network
            .register(name("ns1.operator.net"), Arc::new(Authority::new()));
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let answer = resolver.resolve(&www(), RrType::A, NOW).unwrap();
        assert_eq!(
            answer.rcode,
            Rcode::Refused,
            "the rcode still reaches the caller"
        );
        assert_eq!(answer.security, Security::Insecure);
        let stats = resolver.stats();
        assert_eq!(stats.error_rcodes, 1, "not max_attempts of them");
        assert_eq!(stats.udp_attempts, FULL_WALK - 1, "no DNSKEY fetch: no DS");

        // SERVFAIL is the fault plane's transient: the same server is
        // asked again and the third try validates.
        let w = build_world(true, true);
        w.network.faults().enable(34);
        w.network.faults().script(
            &name("ns1.operator.net"),
            [
                dsec_authserver::Fault::ServFail,
                dsec_authserver::Fault::ServFail,
            ],
        );
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let answer = resolver.resolve(&www(), RrType::A, NOW).unwrap();
        assert_eq!(answer.security, Security::Secure);
        assert_eq!(resolver.stats().error_rcodes, 2);
        assert_eq!(resolver.stats().udp_attempts, FULL_WALK + 2);
    }

    #[test]
    fn cache_round_trip() {
        let w = build_world(true, true);
        let resolver = Resolver::new(w.network.clone(), trust_anchor_for(&w.root_keys));
        let a1 = resolver
            .resolve_cached(&name("www.example.com"), RrType::A, NOW)
            .unwrap();
        let queries_after_first = w.network.query_count();
        let a2 = resolver
            .resolve_cached(&name("www.example.com"), RrType::A, NOW + 10)
            .unwrap();
        assert_eq!(a1.records, a2.records);
        assert_eq!(
            w.network.query_count(),
            queries_after_first,
            "second hit from cache"
        );
        // After TTL expiry the network is consulted again.
        let _ = resolver
            .resolve_cached(&name("www.example.com"), RrType::A, NOW + 10_000)
            .unwrap();
        assert!(w.network.query_count() > queries_after_first);
    }
}
