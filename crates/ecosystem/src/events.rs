//! The ecosystem event log: what happened, when, to whom.
//!
//! High-volume population events (purchases, routine signings) are counted
//! but not logged individually unless verbose logging is on; security-
//! relevant events (forged email accepted, DS installed on the wrong
//! domain) are always logged — they are the paper's anecdotes.

use std::collections::BTreeMap;

use dsec_wire::Name;

use crate::clock::SimDate;
use crate::rollover::RolloverStyle;
use crate::RegistrarId;

/// Something that happened in the world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A domain was purchased.
    Purchased {
        /// The domain.
        domain: Name,
        /// From which registrar.
        registrar: RegistrarId,
    },
    /// A zone was signed (DNSKEY+RRSIG published).
    Signed {
        /// The domain.
        domain: Name,
    },
    /// A DS RRset reached the registry.
    DsPublished {
        /// The domain.
        domain: Name,
    },
    /// A DS upload attempt was rejected.
    DsRejected {
        /// The domain.
        domain: Name,
        /// Why.
        reason: String,
    },
    /// SECURITY: a support agent installed a DS on a different customer's
    /// domain (the paper's chat anecdote, §5.3).
    DsOnWrongDomain {
        /// Domain the DS was meant for.
        intended: Name,
        /// Domain that actually received it.
        victim: Name,
    },
    /// SECURITY: an unauthenticated (forgeable) email updated a DS record.
    ForgedEmailAccepted {
        /// The affected domain.
        domain: Name,
        /// The address the mail claimed to come from.
        claimed_from: String,
    },
    /// A reseller's partner migration completed for one domain at renewal.
    PartnerMigrated {
        /// The domain.
        domain: Name,
        /// New registrar of record.
        new_sponsor: RegistrarId,
    },
    /// A registry CDS scan applied a child-requested DS change.
    CdsApplied {
        /// The domain.
        domain: Name,
    },
    /// A third-party-operated domain's owner failed to relay the DS to the
    /// registrar (the 40% failure of §7).
    RelayDropped {
        /// The domain.
        domain: Name,
    },
    /// A scheduled rollover started serving its transitional key set.
    RolloverPrepared {
        /// The domain.
        domain: Name,
        /// The choreography in use.
        style: RolloverStyle,
    },
    /// The parent DS moved to the new keys (the registrar/registry leg).
    RolloverDsSwapped {
        /// The domain.
        domain: Name,
        /// Whether the swap happened on the planned day (`false` marks a
        /// mistimed registrar).
        on_schedule: bool,
    },
    /// Old key material withdrawn; the rollover finished.
    RolloverCompleted {
        /// The domain.
        domain: Name,
        /// The choreography that ran.
        style: RolloverStyle,
    },
    /// Keys were replaced outright without coordinating the DS — the
    /// classic broken rollover.
    RolloverAbrupt {
        /// The domain.
        domain: Name,
    },
    /// A zone's RRSIGs lapsed (stalled signer / rollover frozen mid-way):
    /// validating resolvers now see the domain as bogus.
    SignatureExpired {
        /// The domain.
        domain: Name,
    },
    /// A delegation's NS set changed through a registrar channel.
    NsChanged {
        /// The domain.
        domain: Name,
    },
    /// SECURITY: an unauthenticated (forgeable) email redelegated a
    /// domain's NS set — the classic registrar-channel takeover.
    ForgedNsAccepted {
        /// The affected domain.
        domain: Name,
        /// The address the mail claimed to come from.
        claimed_from: String,
    },
    /// SECURITY: a takeover attempt bounced off the registrar's
    /// authentication policy (the attack plane's negative space).
    AttackRepelled {
        /// The targeted domain.
        domain: Name,
    },
    /// SECURITY: a hijack was noticed (monitoring / registrant report).
    HijackDetected {
        /// The captured domain.
        domain: Name,
    },
    /// SECURITY: the registrar restored the pre-attack DS/NS state.
    HijackRemediated {
        /// The recovered domain.
        domain: Name,
    },
    /// SECURITY: an on-path attacker started racing forged responses
    /// against resolutions under a zone (the Kaminsky-style campaign).
    PoisonRaceLaunched {
        /// The zone whose subtree is contested.
        zone: Name,
    },
    /// SECURITY: the on-path forgery campaign against a zone ended.
    PoisonRaceEnded {
        /// The zone that is no longer contested.
        zone: Name,
    },
    /// A successor root trust anchor was published alongside the old one
    /// (RFC 5011 AddPend: the hold-down clock starts).
    TrustAnchorPublished {
        /// Day the new anchor becomes trusted by followers.
        trusted_on: SimDate,
    },
    /// The hold-down elapsed: RFC 5011 followers now trust the new
    /// anchor.
    TrustAnchorPromoted,
    /// The old root trust anchor was revoked and the zone re-signed with
    /// the successor only.
    TrustAnchorRevoked {
        /// Whether followers already trusted the successor when the old
        /// anchor went away (`false` marks a mistimed roll: validators
        /// are stranded until promotion).
        followers_ready: bool,
    },
}

impl Event {
    /// Short machine-readable kind, used for counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Purchased { .. } => "purchased",
            Event::Signed { .. } => "signed",
            Event::DsPublished { .. } => "ds_published",
            Event::DsRejected { .. } => "ds_rejected",
            Event::DsOnWrongDomain { .. } => "ds_on_wrong_domain",
            Event::ForgedEmailAccepted { .. } => "forged_email_accepted",
            Event::PartnerMigrated { .. } => "partner_migrated",
            Event::CdsApplied { .. } => "cds_applied",
            Event::RelayDropped { .. } => "relay_dropped",
            Event::RolloverPrepared { .. } => "rollover_prepared",
            Event::RolloverDsSwapped { .. } => "rollover_ds_swapped",
            Event::RolloverCompleted { .. } => "rollover_completed",
            Event::RolloverAbrupt { .. } => "rollover_abrupt",
            Event::SignatureExpired { .. } => "signature_expired",
            Event::NsChanged { .. } => "ns_changed",
            Event::ForgedNsAccepted { .. } => "forged_ns_accepted",
            Event::AttackRepelled { .. } => "attack_repelled",
            Event::HijackDetected { .. } => "hijack_detected",
            Event::HijackRemediated { .. } => "hijack_remediated",
            Event::PoisonRaceLaunched { .. } => "poison_race_launched",
            Event::PoisonRaceEnded { .. } => "poison_race_ended",
            Event::TrustAnchorPublished { .. } => "trust_anchor_published",
            Event::TrustAnchorPromoted => "trust_anchor_promoted",
            Event::TrustAnchorRevoked { .. } => "trust_anchor_revoked",
        }
    }

    /// Whether the event is always logged regardless of verbosity.
    pub fn is_security_relevant(&self) -> bool {
        matches!(
            self,
            Event::DsOnWrongDomain { .. }
                | Event::ForgedEmailAccepted { .. }
                | Event::ForgedNsAccepted { .. }
                | Event::AttackRepelled { .. }
                | Event::HijackDetected { .. }
                | Event::HijackRemediated { .. }
                | Event::PoisonRaceLaunched { .. }
                | Event::PoisonRaceEnded { .. }
        )
    }

    /// Key-lifecycle transitions (rollover phases, abrupt rolls, expired
    /// signatures). Logged unconditionally — like security events — so
    /// the scanner can classify per-operator rollover style from the log
    /// even in quiet population runs.
    pub fn is_key_lifecycle(&self) -> bool {
        matches!(
            self,
            Event::RolloverPrepared { .. }
                | Event::RolloverDsSwapped { .. }
                | Event::RolloverCompleted { .. }
                | Event::RolloverAbrupt { .. }
                | Event::SignatureExpired { .. }
                | Event::TrustAnchorPublished { .. }
                | Event::TrustAnchorPromoted
                | Event::TrustAnchorRevoked { .. }
        )
    }
}

/// The log plus per-kind counters.
#[derive(Debug, Default)]
pub struct EventLog {
    /// Logged events with their dates.
    entries: Vec<(SimDate, Event)>,
    /// Always-on counters per event kind.
    counters: BTreeMap<&'static str, u64>,
    /// Log every event (tests / probe runs) or only security events
    /// (population runs).
    pub verbose: bool,
}

impl EventLog {
    /// A quiet log (counters always on, entries only for security events).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event.
    pub fn record(&mut self, date: SimDate, event: Event) {
        *self.counters.entry(event.kind()).or_default() += 1;
        if self.verbose || event.is_security_relevant() || event.is_key_lifecycle() {
            self.entries.push((date, event));
        }
    }

    /// The logged entries.
    pub fn entries(&self) -> &[(SimDate, Event)] {
        &self.entries
    }

    /// Counter for one kind.
    pub fn count(&self, kind: &str) -> u64 {
        self.counters.get(kind).copied().unwrap_or(0)
    }

    /// All counters.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn quiet_log_keeps_security_events_only() {
        let mut log = EventLog::new();
        log.record(
            SimDate(0),
            Event::Purchased {
                domain: name("x.com"),
                registrar: RegistrarId(1),
            },
        );
        log.record(
            SimDate(1),
            Event::ForgedEmailAccepted {
                domain: name("x.com"),
                claimed_from: "evil@attacker.net".into(),
            },
        );
        assert_eq!(log.entries().len(), 1);
        assert_eq!(log.count("purchased"), 1);
        assert_eq!(log.count("forged_email_accepted"), 1);
        assert_eq!(log.count("nonexistent"), 0);
    }

    #[test]
    fn lifecycle_events_always_logged() {
        let mut log = EventLog::new();
        log.record(
            SimDate(3),
            Event::RolloverPrepared {
                domain: name("x.com"),
                style: RolloverStyle::DoubleSignatureKsk,
            },
        );
        log.record(
            SimDate(5),
            Event::RolloverDsSwapped {
                domain: name("x.com"),
                on_schedule: false,
            },
        );
        log.record(
            SimDate(9),
            Event::SignatureExpired {
                domain: name("x.com"),
            },
        );
        assert_eq!(
            log.entries().len(),
            3,
            "quiet log still keeps lifecycle events"
        );
        assert_eq!(log.count("rollover_prepared"), 1);
        assert_eq!(log.count("rollover_ds_swapped"), 1);
        assert_eq!(log.count("signature_expired"), 1);
    }

    #[test]
    fn verbose_log_keeps_everything() {
        let mut log = EventLog::new();
        log.verbose = true;
        log.record(
            SimDate(0),
            Event::Signed {
                domain: name("x.com"),
            },
        );
        assert_eq!(log.entries().len(), 1);
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(
            Event::DsOnWrongDomain {
                intended: name("a.com"),
                victim: name("b.com")
            }
            .kind(),
            "ds_on_wrong_domain"
        );
        assert!(Event::DsOnWrongDomain {
            intended: name("a.com"),
            victim: name("b.com")
        }
        .is_security_relevant());
    }
}
