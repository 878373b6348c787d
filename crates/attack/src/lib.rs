//! The registrar-compromise attack plane: scheduled, campaign-scale
//! takeovers through the registrar channels the paper probed.
//!
//! `examples/hijack_demo.rs` showed the *mechanism* — a forged `From:`
//! header slipping a DS record past an unauthenticated email channel.
//! This crate promotes that one-shot demo into a first-class attacker
//! model, mirroring the rollover plane's day-pinned state machine:
//!
//! * an [`AttackPlan`] pins a takeover attempt to a launch day, picks a
//!   vector (forged DS submission, or a forged NS change that
//!   redelegates the domain to attacker-run authorities), and
//!   optionally schedules detection + remediation;
//! * an [`AttackCampaign`] drives any number of plans alongside the
//!   world's daily tick, pushes each submission through the victim
//!   registrar's *configured* channel — so whether a forgery lands is
//!   decided by that registrar's calibrated [`ExternalDs`]
//!   authentication policy, exactly like the legitimate path — and runs
//!   the attacker's authoritative infrastructure: an [`Authority`]
//!   registered in the world's `Network` serving forged zones for
//!   every captured domain, signed with attacker-held keys the parent
//!   DS does not match;
//! * detection restores the pre-attack DS/NS state through the same
//!   registry mutation path as everything else, so the delegation
//!   generations stay coherent (DESIGN.md §9).
//!
//! What a capture *means* for users is measured by the traffic plane:
//! validating resolvers refuse the forged chain (`SavedByValidation`),
//! non-validating resolvers hand the attacker's records to the user
//! (`Hijacked`). Experiment E-A1 wires the three planes together.

#![warn(missing_docs)]

pub mod onpath;

pub use onpath::{OnPathCampaign, OnPathPhase, OnPathVector};

use std::collections::BTreeMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dsec_authserver::Authority;
use dsec_crypto::Algorithm;
use dsec_dnssec::{sign_zone, ZoneKeys};
use dsec_ecosystem::{ActionError, DsSubmission, Event, ExternalDs, SimDate, UploadOutcome, World};
use dsec_wire::{DsRdata, Name, RData, Record, SoaRdata, Zone};

/// How a takeover is attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackVector {
    /// Forge a DS submission: the parent then vouches for a key the
    /// attacker holds. On its own this takes the domain *offline* for
    /// validating users (DS mismatch → Bogus) without redirecting
    /// anyone — the sabotage half of the paper's §5.3 anecdote.
    ForgedDs,
    /// Forge an NS change: the delegation moves to attacker authorities
    /// serving a forged zone. Validating users are saved by the
    /// unchanged parent DS; non-validating users are hijacked.
    ForgedNs {
        /// Park the forged NS hosts inside the victim operator's
        /// namespace (`ns66.<operator>`) instead of an attacker-branded
        /// one, so the takeover is invisible to infrastructure-ranking
        /// heuristics — the stealthy variant.
        stealthy: bool,
    },
}

/// Where one plan is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackPhase {
    /// Waiting for the launch day.
    Scheduled,
    /// The forgery landed; the attacker holds the delegation.
    Captured,
    /// The registrar's channel authentication rejected the forgery.
    Repelled,
    /// Detected and remediated: pre-attack DS/NS state restored.
    Restored,
}

/// One day-pinned takeover attempt against one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackPlan {
    /// The vector to try.
    pub vector: AttackVector,
    /// The day the forgery is submitted.
    pub launch: SimDate,
    /// Days after a successful capture until the hijack is noticed and
    /// remediated. `None` leaves the attacker in control.
    pub detect_after_days: Option<u32>,
}

impl AttackPlan {
    /// A plan launching on `launch`, never detected.
    pub fn new(vector: AttackVector, launch: SimDate) -> AttackPlan {
        AttackPlan {
            vector,
            launch,
            detect_after_days: None,
        }
    }

    /// Schedules detection `days` after a successful capture (builder
    /// style).
    pub fn with_detection(mut self, days: u32) -> AttackPlan {
        self.detect_after_days = Some(days);
        self
    }
}

/// The live state of one scheduled plan.
#[derive(Debug, Clone)]
pub struct AttackState {
    /// The plan being driven.
    pub plan: AttackPlan,
    /// Current phase.
    pub phase: AttackPhase,
    /// Day the forgery landed, if it did.
    pub captured_on: Option<SimDate>,
    /// Day the pre-attack state came back, if it did.
    pub restored_on: Option<SimDate>,
    /// Registry DS set before the attack (for remediation).
    original_ds: Vec<DsRdata>,
    /// Registry NS set before the attack (for remediation).
    original_ns: Vec<Name>,
    /// The forged NS hosts actually installed (ForgedNs only).
    forged_ns: Vec<Name>,
}

/// A campaign: attacker identity + infrastructure + scheduled plans.
///
/// Drive it in lockstep with the world clock — `world.tick()` then
/// `campaign.tick(&mut world)` — or let [`AttackCampaign::advance_to`]
/// do both.
pub struct AttackCampaign {
    /// The envelope sender of every forged mail.
    mailbox: String,
    /// The attacker's nameserver base domain (loud variant).
    ns_domain: Name,
    /// The attacker's authoritative server, shared by all captures.
    authority: Rc<Authority>,
    /// Attacker-held zone keys, shared across captures (rebound per
    /// zone). The parent DS never matches them — that mismatch is what
    /// validating resolvers catch.
    keys: ZoneKeys,
    /// One plan per domain.
    states: BTreeMap<Name, AttackState>,
}

impl AttackCampaign {
    /// A campaign for `mallory@attacker.example` with keys drawn from a
    /// fixed seed (determinism: same campaign, same forged zones).
    pub fn new() -> AttackCampaign {
        AttackCampaign::with_seed(0x00A7_7AC4)
    }

    /// A campaign whose attacker keys derive from `seed`.
    pub fn with_seed(seed: u64) -> AttackCampaign {
        let ns_domain = Name::parse("mallory-dns.example").expect("valid name");
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = ZoneKeys::generate_default(&mut rng, ns_domain.clone(), Algorithm::RsaSha256)
            .expect("keygen succeeds");
        AttackCampaign {
            mailbox: "mallory@attacker.example".to_string(),
            ns_domain,
            authority: Rc::new(Authority::new()),
            keys,
            states: BTreeMap::new(),
        }
    }

    /// The attacker's authoritative server.
    pub fn authority(&self) -> &Rc<Authority> {
        &self.authority
    }

    /// Schedules a plan against `domain`. One live plan per domain.
    pub fn schedule(&mut self, domain: Name, plan: AttackPlan) {
        let state = AttackState {
            plan,
            phase: AttackPhase::Scheduled,
            captured_on: None,
            restored_on: None,
            original_ds: Vec::new(),
            original_ns: Vec::new(),
            forged_ns: Vec::new(),
        };
        self.states.insert(domain, state);
    }

    /// The state of the plan against `domain`, if one is scheduled.
    pub fn state(&self, domain: &Name) -> Option<&AttackState> {
        self.states.get(domain)
    }

    /// Domains the attacker currently controls (any vector).
    pub fn captured(&self) -> Vec<Name> {
        self.states
            .iter()
            .filter(|(_, s)| s.phase == AttackPhase::Captured)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Captured domains whose *data* the attacker serves (ForgedNs):
    /// the set the traffic plane should re-label outcomes for. A
    /// ForgedDs capture only sabotages validation — the victim's real
    /// operator still answers — so it is excluded here.
    pub fn hijacked_zones(&self) -> Vec<Name> {
        self.states
            .iter()
            .filter(|(_, s)| {
                s.phase == AttackPhase::Captured
                    && matches!(s.plan.vector, AttackVector::ForgedNs { .. })
            })
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Runs one campaign day against the world's current date: launches
    /// plans whose day has come, remediates captures whose detection
    /// day has come. Call after `world.tick()`.
    pub fn tick(&mut self, world: &mut World) {
        let today = world.today;
        let due: Vec<Name> = self
            .states
            .iter()
            .filter(|(_, s)| match s.phase {
                AttackPhase::Scheduled => today >= s.plan.launch,
                // Detection counts from the capture, which is later than
                // the launch day when a plan is scheduled in the past.
                AttackPhase::Captured => s
                    .plan
                    .detect_after_days
                    .zip(s.captured_on)
                    .is_some_and(|(days, on)| today >= on.plus_days(days)),
                _ => false,
            })
            .map(|(k, _)| k.clone())
            .collect();
        for domain in due {
            let mut state = self.states.remove(&domain).expect("key just listed");
            match state.phase {
                AttackPhase::Scheduled => self.launch(world, &domain, &mut state),
                AttackPhase::Captured => self.remediate(world, &domain, &mut state),
                _ => unreachable!("only due phases were selected"),
            }
            self.states.insert(domain, state);
        }
    }

    /// Advances the world day by day to `until`, running the campaign
    /// after each world tick.
    pub fn advance_to(&mut self, world: &mut World, until: SimDate) {
        while world.today < until {
            world.tick();
            self.tick(world);
        }
    }

    // ---------------------------------------------------------- internals --

    /// Submits the forgery for one plan and applies its consequences.
    fn launch(&mut self, world: &mut World, domain: &Name, state: &mut AttackState) {
        let Some(d) = world.domain(domain) else {
            state.phase = AttackPhase::Repelled;
            return;
        };
        let tld = d.tld;
        let channel = world.registrar(d.registrar).policy.external_ds.clone();
        let registrant_email = world
            .registrant_email(domain)
            .expect("the world holds the domain");

        // Snapshot what remediation will restore.
        state.original_ds = world.registry(tld).ds_of(domain);
        state.original_ns = world.registry(tld).ns_of(domain);

        let outcome = match state.plan.vector {
            AttackVector::ForgedDs => {
                self.submit_forged_ds(world, domain, &channel, &registrant_email)
            }
            AttackVector::ForgedNs { stealthy } => {
                self.submit_forged_ns(world, domain, &channel, &registrant_email, state, stealthy)
            }
        };

        if outcome == Ok(UploadOutcome::Accepted) {
            state.phase = AttackPhase::Captured;
            state.captured_on = Some(world.today);
            if matches!(state.plan.vector, AttackVector::ForgedNs { .. }) {
                let host = state
                    .forged_ns
                    .first()
                    .cloned()
                    .unwrap_or_else(|| self.loud_host());
                self.serve_forged_zone(world, domain, host);
            }
        } else {
            state.phase = AttackPhase::Repelled;
            world.events.record(
                world.today,
                Event::AttackRepelled {
                    domain: domain.clone(),
                },
            );
        }
    }

    /// A forged DS pushed through the registrar's own channel. The DS
    /// points at the attacker's KSK, so a capture leaves the parent
    /// vouching for a key the victim's zone is not signed with.
    fn submit_forged_ds(
        &mut self,
        world: &mut World,
        domain: &Name,
        channel: &ExternalDs,
        registrant_email: &str,
    ) -> Result<UploadOutcome, ActionError> {
        // The fetch channel derives the DS from the served DNSKEY — it
        // cannot carry attacker-chosen rdata at all.
        let Some(via) = forged_submission(channel, registrant_email, &self.mailbox) else {
            return Ok(UploadOutcome::ChannelUnsupported);
        };
        let forged = self.keys_for(domain).ds(dsec_crypto::DigestType::Sha256);
        world.upload_ds(domain, forged, via)
    }

    /// A forged NS change: only the email channel can be exercised
    /// remotely (the others imply an authenticated portal session or a
    /// live agent), so every non-email policy repels this vector.
    fn submit_forged_ns(
        &mut self,
        world: &mut World,
        domain: &Name,
        channel: &ExternalDs,
        registrant_email: &str,
        state: &mut AttackState,
        stealthy: bool,
    ) -> Result<UploadOutcome, ActionError> {
        if !matches!(channel, ExternalDs::Email { .. }) {
            return Ok(UploadOutcome::ChannelUnsupported);
        }
        let via = DsSubmission::Email {
            claimed_from: registrant_email.to_string(),
            actual_from: self.mailbox.clone(),
        };
        let host = if stealthy {
            // ns66.<victim's operator domain>: same operator key for
            // ranking heuristics, different machine entirely.
            state
                .original_ns
                .first()
                .and_then(|ns| ns.parent())
                .and_then(|op| op.child("ns66").ok())
                .unwrap_or_else(|| self.loud_host())
        } else {
            self.loud_host()
        };
        state.forged_ns = vec![host];
        world.submit_ns_change(domain, &state.forged_ns, via)
    }

    /// The attacker-branded nameserver hostname.
    fn loud_host(&self) -> Name {
        self.ns_domain.child("ns1").expect("ns1 fits")
    }

    /// The campaign keys rebound to `domain`.
    fn keys_for(&self, domain: &Name) -> ZoneKeys {
        let mut keys = self.keys.clone();
        keys.zone = domain.clone();
        keys
    }

    /// Builds, signs, and serves the forged zone for a captured domain,
    /// and registers the forged NS host in the world's network. The
    /// zone is signed with the attacker's keys: answers *look*
    /// DNSSEC-complete, but the unchanged parent DS does not match —
    /// which is exactly what a validating resolver refuses.
    fn serve_forged_zone(&mut self, world: &mut World, domain: &Name, host: Name) {
        let keys = self.keys_for(domain);
        let mut zone = forged_zone(domain, &host);
        sign_zone(&mut zone, &keys, &world.signer_config()).expect("attacker keys match zone");
        self.authority.upsert_zone(zone);
        world.network.register(host, self.authority.clone());
    }

    /// Detection day: restore the pre-attack DS/NS through the registry
    /// (bumping the delegation generation like any legitimate change),
    /// drop the forged zone, and log the lifecycle.
    fn remediate(&mut self, world: &mut World, domain: &Name, state: &mut AttackState) {
        let today = world.today;
        world.events.record(
            today,
            Event::HijackDetected {
                domain: domain.clone(),
            },
        );
        if let Some(d) = world.domain(domain) {
            let (tld, sponsor) = (d.tld, d.sponsor);
            let registry = world.registry_mut(tld);
            if !state.original_ns.is_empty() {
                let _ = registry.set_ns(sponsor, domain, &state.original_ns);
            }
            if state.original_ds.is_empty() {
                let _ = registry.remove_ds(sponsor, domain);
            } else {
                let _ = registry.set_ds(sponsor, domain, &state.original_ds);
            }
        }
        self.authority.remove_zone(domain);
        world.events.record(
            today,
            Event::HijackRemediated {
                domain: domain.clone(),
            },
        );
        state.phase = AttackPhase::Restored;
        state.restored_on = Some(today);
    }
}

impl Default for AttackCampaign {
    fn default() -> Self {
        AttackCampaign::new()
    }
}

/// The forged submission for a channel, if the channel can be forged
/// remotely at all. Email forges the `From:` header; web forms, chat,
/// and tickets take anonymous input (their defense, if any, is DS
/// validation, which `upload_ds` applies); the fetch channel reads the
/// zone itself and is returned as `None`.
fn forged_submission(
    channel: &ExternalDs,
    registrant_email: &str,
    mailbox: &str,
) -> Option<DsSubmission> {
    match channel {
        ExternalDs::Email { .. } => Some(DsSubmission::Email {
            claimed_from: registrant_email.to_string(),
            actual_from: mailbox.to_string(),
        }),
        ExternalDs::Web { .. } => Some(DsSubmission::Web),
        ExternalDs::Chat { .. } => Some(DsSubmission::Chat),
        ExternalDs::Ticket => Some(DsSubmission::Ticket),
        ExternalDs::FetchDnskey | ExternalDs::Unsupported => None,
    }
}

/// The attacker's zone for a captured domain: every record type the
/// traffic mix queries resolves to attacker-controlled values, at the
/// apex and under `www`.
fn forged_zone(domain: &Name, ns_host: &Name) -> Zone {
    let mut zone = Zone::new(domain.clone());
    zone.add(Record::new(
        domain.clone(),
        3600,
        RData::Soa(SoaRdata {
            mname: ns_host.clone(),
            rname: Name::parse("hostmaster.invalid").expect("valid name"),
            serial: 666,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        }),
    ))
    .expect("SOA fits");
    zone.add(Record::new(
        domain.clone(),
        3600,
        RData::Ns(ns_host.clone()),
    ))
    .expect("NS fits");
    let mx = Name::parse("mail.mallory-dns.example").expect("valid name");
    for owner in [domain.clone(), domain.child("www").expect("www fits")] {
        zone.add(Record::new(
            owner.clone(),
            300,
            RData::A("203.0.113.66".parse().expect("valid v4")),
        ))
        .expect("A fits");
        zone.add(Record::new(
            owner.clone(),
            300,
            RData::Aaaa("2001:db8::66".parse().expect("valid v6")),
        ))
        .expect("AAAA fits");
        zone.add(Record::new(
            owner,
            300,
            RData::Mx {
                preference: 0,
                exchange: mx.clone(),
            },
        ))
        .expect("MX fits");
    }
    zone
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_ecosystem::{
        Hosting, OperatorDnssec, RegistrarPolicy, Tld, TldPolicy, TldRole, WorldConfig,
    };

    #[test]
    fn a_plan_is_found_and_replaced_under_any_spelling_of_its_domain() {
        let plan = |day| AttackPlan::new(AttackVector::ForgedNs { stealthy: false }, SimDate(day));
        let name = |s: &str| Name::parse(s).expect("valid name");
        let mut campaign = AttackCampaign::new();
        // (scheduled as, looked up — and rescheduled — as)
        let rows = [("victim.com", "VICTIM.Com"), ("Other.NL", "other.nl")];
        for (day, (scheduled_as, asked_as)) in (1u32..).zip(rows) {
            campaign.schedule(name(scheduled_as), plan(day));
            assert_eq!(
                campaign.state(&name(asked_as)).map(|s| s.plan.launch),
                Some(SimDate(day))
            );
            // One live plan per domain: the other spelling replaces it.
            campaign.schedule(name(asked_as), plan(day + 100));
            assert_eq!(campaign.states.len(), day as usize);
            let replaced = campaign.state(&name(scheduled_as)).map(|s| s.plan.launch);
            assert_eq!(replaced, Some(SimDate(day + 100)));
        }
        assert!(campaign.state(&name("victim.net")).is_none());
    }

    #[test]
    fn detection_counts_from_the_capture_day_not_the_launch_day() {
        let mut world = World::new(WorldConfig::default());
        let registrar = world.add_registrar(
            "MailReg",
            Name::parse("mailreg.net").expect("valid name"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Unsupported,
                external_ds: ExternalDs::Email {
                    verifies_sender: false,
                    accepts_foreign_sender: true,
                    validates: false,
                },
                tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
            },
        );
        let victim = world
            .purchase(
                registrar,
                "victim",
                Tld::Com,
                Hosting::Owner,
                "o@victim.com",
            )
            .expect("a fresh name");
        // Launch day four days before the campaign's first tick: the
        // forgery lands on that tick, late.
        let captured = world.today.plus_days(1);
        let late = SimDate(captured.0 - 4);
        let mut campaign = AttackCampaign::new();
        let plan = AttackPlan::new(AttackVector::ForgedDs, late).with_detection(3);
        campaign.schedule(victim.clone(), plan);
        campaign.advance_to(&mut world, captured);
        assert_eq!(campaign.state(&victim).unwrap().captured_on, Some(captured));

        campaign.advance_to(&mut world, captured.plus_days(2));
        let state = campaign.state(&victim).unwrap();
        assert_eq!(state.phase, AttackPhase::Captured, "restored early");
        campaign.advance_to(&mut world, captured.plus_days(3));
        let state = campaign.state(&victim).unwrap();
        assert_eq!(state.phase, AttackPhase::Restored);
        assert_eq!(state.restored_on, Some(captured.plus_days(3)));
    }
}
