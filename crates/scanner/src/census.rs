//! Per-actor censuses: which registrar or DNS operator each DNSSEC
//! outcome attributes to.
//!
//! Three censuses share one shape. Each row is keyed by an actor — the
//! registrar the domain was bought from, or the DNS operator in the
//! registry's operator column (the NS-derived
//! [`operator_of`](crate::operator_of) key every snapshot cell uses) —
//! and exists only once one of its counters is non-zero. Counts come
//! from one fold over the always-logged `world.events` and one sweep
//! over the registered domains for live signals a real-world scanner
//! could measure without any event log:
//!
//! - [`rollover_census`], per operator: rollover phases, abrupt key
//!   replacements, off-schedule DS swaps, lapsed signatures.
//! - [`takeover_census`], per registrar: forged DS/NS acceptances and
//!   their detection, plus a registry DS that matches none of the served
//!   DNSKEYs and a delegation that drifted off its hosting arrangement.
//! - [`poison_census`], per registrar: cached A answers that diverge
//!   from what the delegated nameservers serve. A poisoner leaves no
//!   registry trace, and the registrar's channel had no part in it; the
//!   row shows which registrar's *customers* absorbed the damage.
//!
//! The sweep reads through one [`Exchange`] (DESIGN.md §18.1) and skips
//! what nobody served: a DNSKEY fetch that went unanswered or came back
//! SERVFAIL-only is no DS mismatch (the scan's rule), and a name whose
//! authoritative exchange ends with only an error rcode is not compared.
//! [`census_table`] renders any of the three.

use std::collections::BTreeMap;
use std::iter;
use std::net::Ipv4Addr;

use dsec_dnssec::ds_matches;
use dsec_ecosystem::{Domain, DomainId, Event, RolloverStyle, World};
use dsec_resolver::{Cache, Exchange, ExchangeOutcome, RetryPolicy};
use dsec_wire::{Message, Name, RData, Rcode, Record, RrType};

/// Rollover behaviour tallies for one DNS operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorRolloverStats {
    /// Completed pre-publish ZSK rollovers (no DS leg).
    pub prepublish_zsk: u64,
    /// Completed double-signature KSK rollovers.
    pub double_signature_ksk: u64,
    /// Completed algorithm rollovers.
    pub algorithm: u64,
    /// Abrupt key replacements (no rollover choreography at all).
    pub abrupt: u64,
    /// DS swaps that landed off the planned day (a mistimed registrar
    /// leg — each one risks, and past the double-signature window
    /// guarantees, a bogus window).
    pub off_schedule_ds: u64,
    /// RRSIG validity lapses observed mid-rollover (stalled operator).
    pub expired_signatures: u64,
}

impl OperatorRolloverStats {
    /// Completed choreographed rollovers of any style.
    pub fn completed(&self) -> u64 {
        self.prepublish_zsk + self.double_signature_ksk + self.algorithm
    }

    /// Lifecycle incidents that open (or threaten) bogus windows.
    pub fn incidents(&self) -> u64 {
        self.abrupt + self.off_schedule_ds + self.expired_signatures
    }
}

/// Takeover-related tallies for one registrar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistrarTakeoverStats {
    /// Forged-email DS updates the channel accepted.
    pub forged_ds_accepted: u64,
    /// Forged-email NS redelegations the channel accepted.
    pub forged_ns_accepted: u64,
    /// Takeover attempts the channel authentication repelled.
    pub attacks_repelled: u64,
    /// Hijacks noticed (monitoring / registrant report).
    pub hijacks_detected: u64,
    /// Hijacks rolled back to the pre-attack DS/NS state.
    pub hijacks_remediated: u64,
    /// Live observation: domains whose registry DS matches none of the
    /// DNSKEYs currently served (the scanner-visible DS/DNSKEY
    /// mismatch a forged-DS capture leaves behind).
    pub ds_dnskey_mismatch: u64,
    /// Live observation: domains whose delegation NS set differs from
    /// what their hosting arrangement should publish (the NS drift a
    /// forged redelegation leaves behind).
    pub ns_drift: u64,
}

impl RegistrarTakeoverStats {
    /// Forgeries that got through the channel, either vector.
    pub fn captures(&self) -> u64 {
        self.forged_ds_accepted + self.forged_ns_accepted
    }

    /// Captures not yet rolled back.
    pub fn outstanding(&self) -> u64 {
        self.captures().saturating_sub(self.hijacks_remediated)
    }
}

/// Poison tallies for one registrar's customer domains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistrarPoisonStats {
    /// Probed names with a cached A answer to compare.
    pub cached_names: u64,
    /// Cached answers whose A records diverge from the authoritative
    /// wire answer — poisoned entries.
    pub poisoned_names: u64,
}

impl RegistrarPoisonStats {
    /// Fraction of compared cache entries that were poisoned.
    pub fn poison_rate(&self) -> f64 {
        if self.cached_names == 0 {
            0.0
        } else {
            self.poisoned_names as f64 / self.cached_names as f64
        }
    }
}

/// Who a census row attributes to.
#[derive(Debug, Clone, Copy)]
enum Actor {
    /// The registrar's display name.
    Registrar,
    /// The registry's operator column for the current delegation.
    Operator,
}

impl Actor {
    /// The row key for the domain `entry`, or `"(unknown)"` once it has
    /// left the world. The operator is read by row.
    fn key(self, world: &World, entry: Option<(DomainId, &Domain)>) -> String {
        let Some((id, d)) = entry else {
            return "(unknown)".into();
        };
        match self {
            Actor::Registrar => world.registrar(d.registrar).name.clone(),
            Actor::Operator => {
                let registry = world.registry(id.tld());
                registry.operators()[registry.operator_at(id.row()) as usize].to_string()
            }
        }
    }
}

/// Tallies the event log: `tally` names the domain an event is about
/// and the counter it bumps, or `None` for events this census ignores.
fn fold<S: Default>(
    world: &World,
    actor: Actor,
    tally: impl Fn(&Event) -> Option<(&Name, fn(&mut S))>,
) -> BTreeMap<String, S> {
    let mut census = BTreeMap::new();
    for (_, event) in world.events.entries() {
        if let Some((domain, count)) = tally(event) {
            let key = actor.key(world, world.entry(domain));
            count(census.entry(key).or_default());
        }
    }
    census
}

/// Sweeps every registered domain in store order into `census`:
/// `observe` returns the update for the domain's row, or `None` when it
/// saw nothing to count.
fn sweep<S: Default, F: FnOnce(&mut S)>(
    world: &World,
    actor: Actor,
    mut census: BTreeMap<String, S>,
    mut observe: impl FnMut(DomainId, &Domain) -> Option<F>,
) -> BTreeMap<String, S> {
    for (id, d) in world.entries() {
        if let Some(count) = observe(id, d) {
            count(census.entry(actor.key(world, Some((id, d)))).or_default());
        }
    }
    census
}

/// Builds the rollover census: the world's key-lifecycle events under
/// the owning operator's key. Counts are cumulative over the world's
/// whole history and deterministic.
pub fn rollover_census(world: &World) -> BTreeMap<String, OperatorRolloverStats> {
    fold::<OperatorRolloverStats>(world, Actor::Operator, |event| {
        Some(match event {
            Event::RolloverCompleted { domain, style } => match style {
                RolloverStyle::PrePublishZsk => (domain, |s| s.prepublish_zsk += 1),
                RolloverStyle::DoubleSignatureKsk => (domain, |s| s.double_signature_ksk += 1),
                RolloverStyle::Algorithm => (domain, |s| s.algorithm += 1),
            },
            Event::RolloverAbrupt { domain } => (domain, |s| s.abrupt += 1),
            Event::RolloverDsSwapped {
                domain,
                on_schedule: false,
            } => (domain, |s| s.off_schedule_ds += 1),
            Event::SignatureExpired { domain } => (domain, |s| s.expired_signatures += 1),
            _ => return None,
        })
    })
}

/// Builds the takeover census: the attack-lifecycle events under each
/// victim's registrar, then one sweep for the two live takeover
/// signatures (DS/DNSKEY mismatch, NS drift). Deterministic: the sweep
/// reads a consistent world.
pub fn takeover_census(world: &World) -> BTreeMap<String, RegistrarTakeoverStats> {
    let events = fold::<RegistrarTakeoverStats>(world, Actor::Registrar, |event| {
        Some(match event {
            Event::ForgedEmailAccepted { domain, .. } => (domain, |s| s.forged_ds_accepted += 1),
            Event::ForgedNsAccepted { domain, .. } => (domain, |s| s.forged_ns_accepted += 1),
            Event::AttackRepelled { domain } => (domain, |s| s.attacks_repelled += 1),
            Event::HijackDetected { domain } => (domain, |s| s.hijacks_detected += 1),
            Event::HijackRemediated { domain } => (domain, |s| s.hijacks_remediated += 1),
            _ => return None,
        })
    });
    sweep(world, Actor::Registrar, events, |id, d| {
        let mismatch = ds_mismatch(world, id, d);
        let drift = world
            .expected_ns_hosts(&d.name)
            .is_some_and(|mut expected| {
                let mut actual = world.registry(id.tld()).ns_at(id.row());
                actual.sort();
                expected.sort();
                !actual.is_empty() && actual != expected
            });
        (mismatch || drift).then_some(move |s: &mut RegistrarTakeoverStats| {
            s.ds_dnskey_mismatch += u64::from(mismatch);
            s.ns_drift += u64::from(drift);
        })
    })
}

/// Whether `d`'s registry DS matches none of the DNSKEYs its servers
/// answer with. A fetch nobody answered, or one that came back
/// SERVFAIL-only, observed nothing and is no mismatch.
fn ds_mismatch(world: &World, id: DomainId, d: &Domain) -> bool {
    if !world.registry(id.tld()).has_ds_at(id.row()) {
        return false;
    }
    let (obs, outcome) = world.observe_at(id, &d.name, 1);
    match &outcome {
        ExchangeOutcome::Unreachable => return false,
        ExchangeOutcome::Answered { response, .. } if response.rcode == Rcode::ServFail => {
            return false
        }
        _ => {}
    }
    let served = obs.dnskey_rrset.iter().flat_map(|set| set.records());
    !obs.ds_set.iter().any(|ds| {
        served.clone().any(|r| match &r.rdata {
            RData::Dnskey(k) => ds_matches(&d.name, k, ds) == Some(true),
            _ => false,
        })
    })
}

/// Builds the poison census: for every registered domain, probes the
/// shared resolver `cache` at the apex and `www` for an A answer as of
/// `now` (sim seconds) and compares it byte-for-byte against the
/// authoritative wire answer. Divergent entries tally as poisoned under
/// the domain's registrar. Deterministic: the cache reads don't mutate
/// entry state and the sweep visits domains in store order.
pub fn poison_census(
    world: &World,
    cache: &Cache,
    now: u32,
) -> BTreeMap<String, RegistrarPoisonStats> {
    sweep(world, Actor::Registrar, BTreeMap::new(), |id, d| {
        let (mut cached, mut poisoned) = (0, 0);
        for qname in iter::once(d.name.clone()).chain(d.name.child("www").ok()) {
            let Some(answer) = cache.get(&qname, RrType::A, now) else {
                continue;
            };
            let Some(served) = authoritative_a(world, id, &qname) else {
                continue;
            };
            cached += 1;
            poisoned += u64::from(sorted_a(&answer.records, &qname) != served);
        }
        (cached > 0).then_some(move |s: &mut RegistrarPoisonStats| {
            s.cached_names += cached;
            s.poisoned_names += poisoned;
        })
    })
}

/// The sorted A RDATA set `d`'s delegated nameservers serve for
/// `qname`, asked under the resolver's [`RetryPolicy`] (a lame server
/// is skipped, a SERVFAIL retried), or `None` when nothing
/// authoritative answered.
fn authoritative_a(world: &World, id: DomainId, qname: &Name) -> Option<Vec<Ipv4Addr>> {
    let query = Message::query(0, qname.clone(), RrType::A, true);
    let now = world.today.epoch_seconds();
    let response = Exchange::new(&world.network, RetryPolicy::default(), now)
        .ask(&world.registry(id.tld()).ns_at(id.row()), &query)
        .into_response()
        .filter(|r| !matches!(r.rcode, Rcode::ServFail | Rcode::Refused))?;
    Some(sorted_a(&response.answers, qname))
}

/// The sorted addresses of the A records owned by `qname`.
fn sorted_a(records: &[Record], qname: &Name) -> Vec<Ipv4Addr> {
    let mut addrs: Vec<Ipv4Addr> = records
        .iter()
        .filter(|r| r.name == *qname)
        .filter_map(|r| match r.rdata {
            RData::A(addr) => Some(addr),
            _ => None,
        })
        .collect();
    addrs.sort();
    addrs
}

/// What [`census_table`] needs to print one census's rows.
pub trait CensusRow {
    /// The column header line, newline included.
    const HEADER: &'static str;
    /// The one line an empty census renders, newline included.
    const EMPTY: &'static str;
    /// Sort rank: higher ranks print first.
    fn rank(&self) -> u64;
    /// The fixed-width cells after the key column.
    fn cells(&self) -> String;
}

impl CensusRow for OperatorRolloverStats {
    const HEADER: &'static str = "operator              prepub-zsk  double-ksk  algorithm  abrupt  off-sched-ds  expired-sigs\n";
    const EMPTY: &'static str = "no key-lifecycle events logged\n";

    fn rank(&self) -> u64 {
        self.completed()
    }

    fn cells(&self) -> String {
        format!(
            "{:>11} {:>11} {:>10} {:>7} {:>13} {:>13}",
            self.prepublish_zsk,
            self.double_signature_ksk,
            self.algorithm,
            self.abrupt,
            self.off_schedule_ds,
            self.expired_signatures,
        )
    }
}

impl CensusRow for RegistrarTakeoverStats {
    const HEADER: &'static str = "registrar             forged-ds  forged-ns  repelled  detected  remediated  ds-mismatch  ns-drift\n";
    const EMPTY: &'static str = "no takeover activity observed\n";

    fn rank(&self) -> u64 {
        self.captures()
    }

    fn cells(&self) -> String {
        format!(
            "{:>10} {:>10} {:>9} {:>9} {:>11} {:>12} {:>9}",
            self.forged_ds_accepted,
            self.forged_ns_accepted,
            self.attacks_repelled,
            self.hijacks_detected,
            self.hijacks_remediated,
            self.ds_dnskey_mismatch,
            self.ns_drift,
        )
    }
}

impl CensusRow for RegistrarPoisonStats {
    const HEADER: &'static str = "registrar                cached  poisoned  poison-rate\n";
    const EMPTY: &'static str = "no cached answers to compare\n";

    fn rank(&self) -> u64 {
        self.poisoned_names
    }

    fn cells(&self) -> String {
        format!(
            "{:>10} {:>9} {:>11.4}",
            self.cached_names,
            self.poisoned_names,
            self.poison_rate(),
        )
    }
}

/// Renders a census as a fixed-width table, one row per key: higher
/// [`CensusRow::rank`] first, ties in ascending key order. An empty
/// census renders its one explanatory line.
pub fn census_table<S: CensusRow>(census: &BTreeMap<String, S>) -> String {
    if census.is_empty() {
        return S::EMPTY.into();
    }
    let mut rows: Vec<(&String, &S)> = census.iter().collect();
    // Stable over the map's ascending keys, so ties keep key order.
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.rank()));
    let mut out = String::from(S::HEADER);
    for (key, s) in rows {
        out.push_str(&format!("{key:<20} {}\n", s.cells()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_ecosystem::{
        DsSubmission, DsTiming, ExternalDs, Hosting, OperatorDnssec, Plan, RegistrarId,
        RegistrarPolicy, RolloverPlan, Tld, TldPolicy, TldRole, UploadOutcome, WorldConfig,
        ALL_TLDS,
    };
    use dsec_resolver::{Answer, Security, POISON_A};

    fn world_with(
        name: &str,
        operator_dnssec: OperatorDnssec,
        external_ds: ExternalDs,
    ) -> (World, RegistrarId) {
        let mut w = World::new(WorldConfig {
            key_pool: 2,
            ..WorldConfig::default()
        });
        let policy = RegistrarPolicy {
            operator_dnssec,
            external_ds,
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        };
        let domain = Name::parse(&format!("{}.net", name.to_ascii_lowercase())).unwrap();
        let r = w.add_registrar(name, domain, policy);
        (w, r)
    }

    fn census_world() -> (World, Name, Name) {
        let (mut w, r) = world_with(
            "CensusReg",
            OperatorDnssec::Default,
            ExternalDs::Web { validates: true },
        );
        let mut buy = |label: &str| {
            w.purchase(
                r,
                label,
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                format!("{label}@x.com"),
            )
            .unwrap()
        };
        let (a, b) = (buy("alpha"), buy("beta"));
        (w, a, b)
    }

    /// A victim signed by its owner, its DS accepted over a mail channel
    /// that checks no sender.
    fn lax_world() -> (World, Name) {
        let (mut w, r) = world_with(
            "LaxMail",
            OperatorDnssec::Unsupported,
            ExternalDs::Email {
                verifies_sender: false,
                accepts_foreign_sender: false,
                validates: false,
            },
        );
        let v = w
            .purchase(r, "victim", Tld::Com, Hosting::Owner, "owner@victim.com")
            .unwrap();
        let ds = w.owner_sign_zone(&v).unwrap();
        let ok = w.upload_ds(&v, ds, mail_from("owner@victim.com")).unwrap();
        assert_eq!(ok, UploadOutcome::Accepted);
        (w, v)
    }

    fn mail_from(actual: &str) -> DsSubmission {
        DsSubmission::Email {
            claimed_from: "owner@victim.com".into(),
            actual_from: actual.into(),
        }
    }

    fn probed_world() -> (World, Name) {
        let (mut w, r) = world_with("Probed", OperatorDnssec::Unsupported, ExternalDs::Ticket);
        let v = w
            .purchase(r, "victim", Tld::Com, Hosting::Owner, "owner@victim.com")
            .unwrap();
        (w, v)
    }

    fn answer_with(records: Vec<Record>) -> Answer {
        Answer {
            records,
            rcode: Rcode::NoError,
            security: Security::Insecure,
            chain: Vec::new(),
            negative_ttl: None,
            poisoned: false,
        }
    }

    #[test]
    fn rollover_census_counts_styles_and_incidents_per_operator() {
        let (mut w, a, b) = census_world();
        let plan = RolloverPlan::correct(RolloverStyle::DoubleSignatureKsk, w.today.plus_days(1))
            .with_ds_timing(DsTiming::Late { days: 5 });
        let done = plan.actual_swap().unwrap().plus_days(1);
        w.schedule_rollover(&a, plan).unwrap();
        w.roll_keys_abrupt(&b).unwrap();
        w.advance_to(done);

        let census = rollover_census(&w);
        let ops: Vec<&String> = census.keys().collect();
        assert_eq!(
            ops.len(),
            1,
            "both domains host on the registrar's operator: {ops:?}"
        );
        let stats = census.values().next().unwrap();
        assert_eq!(stats.double_signature_ksk, 1);
        assert_eq!(stats.abrupt, 1);
        assert_eq!(stats.off_schedule_ds, 1, "the late DS swap is an incident");
        assert_eq!(stats.completed(), 1);
        assert_eq!(stats.incidents(), 2);

        let table = census_table(&census);
        assert!(table.contains("censusreg"), "{table}");
        assert!(table.lines().count() >= 2);
    }

    #[test]
    fn quiet_world_has_empty_rollover_census() {
        let (w, _, _) = census_world();
        let census = rollover_census(&w);
        assert!(census.is_empty());
        assert!(census_table(&census).contains("no key-lifecycle events"));
    }

    #[test]
    fn clean_world_has_empty_takeover_census() {
        let (w, _) = lax_world();
        assert!(takeover_census(&w).is_empty());
        assert!(census_table(&takeover_census(&w)).contains("no takeover activity"));
    }

    #[test]
    fn forged_ds_shows_up_as_capture_and_live_mismatch() {
        let (mut w, v) = lax_world();
        let forged = dsec_wire::DsRdata {
            key_tag: 31337,
            algorithm: 8,
            digest_type: 2,
            digest: vec![0x66; 32],
        };
        let out = w
            .upload_ds(&v, forged, mail_from("mallory@attacker.example"))
            .unwrap();
        assert_eq!(out, UploadOutcome::Accepted);

        let census = takeover_census(&w);
        let stats = census.get("LaxMail").expect("attributed to the registrar");
        assert_eq!(stats.forged_ds_accepted, 1);
        assert_eq!(
            stats.ds_dnskey_mismatch, 1,
            "live DS/DNSKEY mismatch observed"
        );
        assert_eq!(stats.ns_drift, 0);
        assert_eq!(stats.captures(), 1);
        assert_eq!(stats.outstanding(), 1);
        let table = census_table(&census);
        assert!(table.contains("LaxMail"), "{table}");
    }

    #[test]
    fn forged_ns_shows_up_as_drift() {
        let (mut w, v) = lax_world();
        let evil = Name::parse("ns1.mallory-dns.example").unwrap();
        let out = w
            .submit_ns_change(
                &v,
                std::slice::from_ref(&evil),
                mail_from("mallory@attacker.example"),
            )
            .unwrap();
        assert_eq!(out, UploadOutcome::Accepted);

        let census = takeover_census(&w);
        let stats = census.get("LaxMail").expect("attributed to the registrar");
        assert_eq!(stats.forged_ns_accepted, 1);
        assert_eq!(stats.ns_drift, 1, "delegation drifted off the hosting plan");
    }

    #[test]
    fn unanswered_dnskey_fetch_is_no_ds_mismatch() {
        let (w, v) = lax_world();
        w.fault_plane().enable(1);
        for ns in w.registry(Tld::Com).ns_of(&v) {
            w.fault_plane().set_down(&ns, true);
        }
        let census = takeover_census(&w);
        assert!(
            census.is_empty(),
            "a timeout observed no DNSKEY: {census:?}"
        );
    }

    #[test]
    fn faithful_cache_entries_are_not_poisoned() {
        let (w, v) = probed_world();
        let www = v.child("www").unwrap();
        let served = authoritative_a(&w, w.entry(&v).unwrap().0, &www).expect("zone serves www");
        assert!(!served.is_empty());
        let cache = Cache::new();
        let records: Vec<Record> = served
            .iter()
            .map(|a| Record::new(www.clone(), 300, RData::A(*a)))
            .collect();
        cache.put(&www, RrType::A, &answer_with(records), 0);

        let census = poison_census(&w, &cache, 10);
        let stats = census.get("Probed").expect("registrar row");
        assert_eq!(stats.cached_names, 1);
        assert_eq!(stats.poisoned_names, 0);
        assert_eq!(stats.poison_rate(), 0.0);
    }

    #[test]
    fn diverging_cache_entry_tallies_as_poisoned() {
        let (w, v) = probed_world();
        let www = v.child("www").unwrap();
        let cache = Cache::new();
        let forged = vec![Record::new(www.clone(), 300, RData::A(POISON_A))];
        cache.put(&www, RrType::A, &answer_with(forged), 0);

        let census = poison_census(&w, &cache, 10);
        let stats = census.get("Probed").expect("registrar row");
        assert_eq!(stats.cached_names, 1);
        assert_eq!(
            stats.poisoned_names, 1,
            "forged bytes diverge from the wire"
        );
        let table = census_table(&census);
        assert!(table.contains("Probed"), "{table}");
    }

    #[test]
    fn empty_cache_yields_empty_poison_census() {
        let (w, _) = probed_world();
        assert!(poison_census(&w, &Cache::new(), 0).is_empty());
    }

    /// Four rows: the top rank keyed last, two tied on rank, one ranked
    /// zero.
    fn rows<S>(rows: [(&str, S); 4]) -> BTreeMap<String, S> {
        rows.into_iter().map(|(k, s)| (k.to_string(), s)).collect()
    }

    #[test]
    fn rollover_table_orders_by_completed_then_key() {
        let census = rows([
            (
                "zeta.net.",
                OperatorRolloverStats {
                    prepublish_zsk: 1,
                    double_signature_ksk: 1,
                    algorithm: 1,
                    ..Default::default()
                },
            ),
            (
                "beta.net.",
                OperatorRolloverStats {
                    prepublish_zsk: 1,
                    abrupt: 2,
                    ..Default::default()
                },
            ),
            (
                "alpha.net.",
                OperatorRolloverStats {
                    double_signature_ksk: 1,
                    off_schedule_ds: 1,
                    expired_signatures: 4,
                    ..Default::default()
                },
            ),
            (
                "gamma.net.",
                OperatorRolloverStats {
                    abrupt: 1,
                    ..Default::default()
                },
            ),
        ]);
        assert_eq!(
            census_table(&census),
            concat!(
                "operator              prepub-zsk  double-ksk  algorithm  abrupt  off-sched-ds  expired-sigs\n",
                "zeta.net.                      1           1          1       0             0             0\n",
                "alpha.net.                     0           1          0       0             1             4\n",
                "beta.net.                      1           0          0       2             0             0\n",
                "gamma.net.                     0           0          0       1             0             0\n",
            )
        );
        let empty: BTreeMap<String, OperatorRolloverStats> = BTreeMap::new();
        assert_eq!(census_table(&empty), "no key-lifecycle events logged\n");
    }

    #[test]
    fn takeover_table_orders_by_captures_then_key() {
        let census = rows([
            (
                "Zeta",
                RegistrarTakeoverStats {
                    forged_ds_accepted: 2,
                    forged_ns_accepted: 1,
                    hijacks_detected: 1,
                    hijacks_remediated: 1,
                    ds_dnskey_mismatch: 1,
                    ..Default::default()
                },
            ),
            (
                "Beta",
                RegistrarTakeoverStats {
                    forged_ns_accepted: 1,
                    ns_drift: 1,
                    ..Default::default()
                },
            ),
            (
                "Alpha",
                RegistrarTakeoverStats {
                    forged_ds_accepted: 1,
                    attacks_repelled: 3,
                    ds_dnskey_mismatch: 1,
                    ..Default::default()
                },
            ),
            (
                "Gamma",
                RegistrarTakeoverStats {
                    attacks_repelled: 5,
                    ..Default::default()
                },
            ),
        ]);
        assert_eq!(
            census_table(&census),
            concat!(
                "registrar             forged-ds  forged-ns  repelled  detected  remediated  ds-mismatch  ns-drift\n",
                "Zeta                          2          1         0         1           1            1         0\n",
                "Alpha                         1          0         3         0           0            1         0\n",
                "Beta                          0          1         0         0           0            0         1\n",
                "Gamma                         0          0         5         0           0            0         0\n",
            )
        );
        let empty: BTreeMap<String, RegistrarTakeoverStats> = BTreeMap::new();
        assert_eq!(census_table(&empty), "no takeover activity observed\n");
    }

    #[test]
    fn poison_table_orders_by_poisoned_then_key() {
        let stats = |cached_names, poisoned_names| RegistrarPoisonStats {
            cached_names,
            poisoned_names,
        };
        let census = rows([
            ("Zeta", stats(4, 3)),
            ("Beta", stats(2, 1)),
            ("Alpha", stats(3, 1)),
            ("Gamma", stats(7, 0)),
        ]);
        assert_eq!(
            census_table(&census),
            concat!(
                "registrar                cached  poisoned  poison-rate\n",
                "Zeta                          4         3      0.7500\n",
                "Alpha                         3         1      0.3333\n",
                "Beta                          2         1      0.5000\n",
                "Gamma                         7         0      0.0000\n",
            )
        );
        let empty: BTreeMap<String, RegistrarPoisonStats> = BTreeMap::new();
        assert_eq!(census_table(&empty), "no cached answers to compare\n");
    }
}
