//! A DNSViz / DNSSEC-Debugger-style chain diagnosis (the tooling the
//! paper's §3 points administrators at): walk root → … → domain and
//! report, per zone, the keys found, the DS linkage, and the signature
//! state, with actionable advice for each failure mode the study
//! documents.
//!
//! Every question goes through one [`Exchange`] (DESIGN.md §18.1)
//! stamped with the diagnosis clock, under the resolver's own
//! [`RetryPolicy`]: a dropped packet or an injected SERVFAIL is retried,
//! a lame server is skipped, and an outage window over `now` is an
//! outage, exactly as the validating resolver would see the chain at
//! that moment.

use std::fmt;

use dsec_authserver::Network;
use dsec_crypto::Algorithm;
use dsec_dnssec::validate::{covering_rrsigs, ValidationError};
use dsec_dnssec::{authenticate_dnskeys, ds_matches};
use dsec_wire::{DnskeyRdata, DsRdata, Message, Name, RData, Record, RrSet, RrType};

use crate::{Exchange, RetryPolicy};

/// One DNSKEY as seen at a zone apex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyInfo {
    /// RFC 4034 key tag.
    pub tag: u16,
    /// Algorithm mnemonic.
    pub algorithm: String,
    /// SEP (KSK) bit set.
    pub is_ksk: bool,
}

/// The DS linkage state of one zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsLink {
    /// The root: anchored by the configured trust anchor.
    TrustAnchor {
        /// Whether the anchor matched a served KSK.
        matched: bool,
    },
    /// No DS at the parent: insecure delegation (the paper's "partial
    /// deployment" when the zone itself is signed).
    Absent,
    /// DS present and matching a served DNSKEY.
    Matched {
        /// The matched key tag.
        tag: u16,
    },
    /// DS present but matching nothing served — the copy/paste-error /
    /// hijack signature.
    Mismatched {
        /// Key tags the DS records reference.
        ds_tags: Vec<u16>,
    },
}

/// The DNSKEY RRset signature state of one zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignatureState {
    /// No DNSKEY published at all.
    Unsigned,
    /// Signed and currently valid; seconds until expiry.
    Valid {
        /// Seconds until the covering signature expires.
        expires_in: u32,
    },
    /// Signed but outside the validity window.
    Expired,
    /// Signed but the cryptography fails.
    Invalid,
    /// DNSKEYs present but no covering RRSIG.
    MissingRrsig,
}

/// Diagnosis of one zone on the chain.
#[derive(Debug, Clone)]
pub struct ZoneDiagnosis {
    /// The zone apex.
    pub zone: Name,
    /// Keys served at the apex.
    pub keys: Vec<KeyInfo>,
    /// DS linkage from the parent.
    pub ds_link: DsLink,
    /// Signature state of the DNSKEY RRset.
    pub signatures: SignatureState,
    /// Whether this link authenticates under the chain so far.
    pub link_ok: bool,
}

/// A whole-chain diagnosis.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// The diagnosed domain.
    pub target: Name,
    /// Per-zone reports, root first.
    pub zones: Vec<ZoneDiagnosis>,
    /// Overall verdict.
    pub verdict: crate::Security,
    /// Actionable advice, one line per finding.
    pub advice: Vec<String>,
}

impl Diagnosis {
    /// True when every link validates.
    pub fn is_secure(&self) -> bool {
        self.verdict.is_secure()
    }
}

/// Walks the delegation chain to `target` and diagnoses every link.
pub fn diagnose(network: &Network, trust_anchor: &[DsRdata], target: &Name, now: u32) -> Diagnosis {
    let mut zones = Vec::new();
    let mut advice = Vec::new();
    let mut verdict = crate::Security::Secure;
    let mut chain_broken = false;

    // The chain of zones: root, then each suffix of target.
    let apexes: Vec<Name> = (0..=target.label_count())
        .map(|depth| target.trim_to(depth))
        .collect();

    let exchange = Exchange::new(network, RetryPolicy::default(), Some(now));
    let query_any = |servers: &[Name], qname: &Name, rtype: RrType| {
        let query = Message::query(0, qname.clone(), rtype, true);
        exchange.ask(servers, &query).into_response()
    };
    let mut servers = network.root_hints();
    let mut parent_ds: Vec<DsRdata> = trust_anchor.to_vec();
    let mut is_root = true;

    for apex in apexes {
        let Some(resp) = query_any(&servers, &apex, RrType::Dnskey) else {
            advice.push(format!("{apex}: no nameserver answered"));
            verdict = crate::Security::Bogus(ValidationError::MissingDnskey);
            break;
        };

        // Is this apex actually a zone (or just a non-cut label)?
        let dnskey_records: Vec<Record> = resp
            .answers
            .iter()
            .filter(|r| r.rtype() == RrType::Dnskey)
            .cloned()
            .collect();
        let keys: Vec<KeyInfo> = dnskey_records
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Dnskey(k) => Some(key_info(k)),
                _ => None,
            })
            .collect();

        let sigs = covering_rrsigs(
            RrSet::new(
                resp.answers
                    .iter()
                    .filter(|r| r.rtype() == RrType::Rrsig)
                    .cloned()
                    .collect(),
            )
            .ok()
            .as_ref(),
            RrType::Dnskey,
        );

        let signatures = if dnskey_records.is_empty() {
            SignatureState::Unsigned
        } else if sigs.is_empty() {
            SignatureState::MissingRrsig
        } else {
            let best_expiry = sigs.iter().map(|s| s.expiration).max().unwrap_or(0);
            if best_expiry < now {
                SignatureState::Expired
            } else {
                SignatureState::Valid {
                    expires_in: best_expiry - now,
                }
            }
        };

        // DS linkage.
        let dnskeys: Vec<DnskeyRdata> = dnskey_records
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Dnskey(k) => Some(k.clone()),
                _ => None,
            })
            .collect();
        let matched_tag = parent_ds.iter().find_map(|ds| {
            dnskeys
                .iter()
                .find(|k| ds_matches(&apex, k, ds) == Some(true))
                .map(|k| k.key_tag())
        });
        let ds_link = if is_root {
            DsLink::TrustAnchor {
                matched: matched_tag.is_some(),
            }
        } else if parent_ds.is_empty() {
            DsLink::Absent
        } else {
            match matched_tag {
                Some(tag) => DsLink::Matched { tag },
                None => DsLink::Mismatched {
                    ds_tags: parent_ds.iter().map(|d| d.key_tag).collect(),
                },
            }
        };

        // Authenticate the link when a chain is still alive.
        let mut link_ok = false;
        if !chain_broken && !parent_ds.is_empty() && dnskey_records.is_empty() && !is_root {
            // A DS with no DNSKEY behind it: the domain is dark for
            // validators.
            verdict = crate::Security::Bogus(ValidationError::MissingDnskey);
            chain_broken = true;
            advice.push(format!(
                "{apex}: the parent publishes a DS but the zone serves no \
                 DNSKEY — validating resolvers will SERVFAIL; remove the DS \
                 or sign the zone"
            ));
        }
        if !chain_broken && !parent_ds.is_empty() && !dnskey_records.is_empty() {
            let rrset = RrSet::new(dnskey_records.clone()).expect("uniform DNSKEY set");
            match authenticate_dnskeys(&apex, &rrset, &sigs, &parent_ds, now) {
                Ok(_) => link_ok = true,
                Err(e) => {
                    verdict = crate::Security::Bogus(e);
                    chain_broken = true;
                }
            }
        } else if !chain_broken
            && parent_ds.is_empty()
            && matches!(verdict, crate::Security::Secure)
        {
            verdict = crate::Security::Insecure;
        }

        // Advice per finding.
        match (&ds_link, &signatures) {
            (DsLink::Absent, SignatureState::Valid { .. }) => advice.push(format!(
                "{apex}: zone is signed but the parent has no DS — partially \
                 deployed; upload the DS record via your registrar"
            )),
            (DsLink::Absent, SignatureState::Unsigned) => {}
            (DsLink::Mismatched { ds_tags }, _) => advice.push(format!(
                "{apex}: the parent DS (tags {ds_tags:?}) matches no served \
                 DNSKEY — validating resolvers will SERVFAIL; re-upload the \
                 correct DS (or investigate an unauthorized change)"
            )),
            (_, SignatureState::Expired) => advice.push(format!(
                "{apex}: DNSKEY signatures have expired — re-sign the zone"
            )),
            (_, SignatureState::MissingRrsig) => advice.push(format!(
                "{apex}: DNSKEYs are published but unsigned — sign the zone"
            )),
            _ => {}
        }

        zones.push(ZoneDiagnosis {
            zone: apex.clone(),
            keys,
            ds_link,
            signatures,
            link_ok,
        });
        is_root = false;

        if apex == *target {
            break;
        }

        // Fetch the referral for the next zone down: NS + DS at the cut.
        let next = &apexes_child(&apex, target);
        let Some(resp) = query_any(&servers, next, RrType::Ns) else {
            break;
        };
        let referral_ns: Vec<Name> = resp
            .answers
            .iter()
            .chain(resp.authorities.iter())
            .filter_map(|r| match &r.rdata {
                RData::Ns(h) if r.name == *next => Some(h.clone()),
                _ => None,
            })
            .collect();
        let Some(ds_resp) = query_any(&servers, next, RrType::Ds) else {
            break;
        };
        parent_ds = ds_resp
            .answers
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Ds(ds) => Some(ds.clone()),
                _ => None,
            })
            .collect();
        if !referral_ns.is_empty() {
            servers = referral_ns;
        }
    }

    if matches!(verdict, crate::Security::Secure)
        && zones.last().map(|z| z.keys.is_empty()).unwrap_or(true)
    {
        verdict = crate::Security::Insecure;
    }

    Diagnosis {
        target: target.clone(),
        zones,
        verdict,
        advice,
    }
}

/// The next apex below `current` on the way to `target`.
fn apexes_child(current: &Name, target: &Name) -> Name {
    target.trim_to(current.label_count() + 1)
}

fn key_info(k: &DnskeyRdata) -> KeyInfo {
    KeyInfo {
        tag: k.key_tag(),
        algorithm: Algorithm::from_number(k.algorithm).mnemonic(),
        is_ksk: k.is_ksk(),
    }
}

/// How a wrong answer got wrong — the three capture planes a chaos
/// campaign must tell apart when assigning blame.
///
/// `Hijacked` (registrar channel) and `Poisoned` (on-path) both hand the
/// user attacker-controlled records, but the fix lives with a different
/// party: the registrar's DS/NS authentication for the former, the
/// resolver operator's entropy/bailiwick hardening for the latter.
/// `Bogus` is the validator refusing to serve either kind of forgery —
/// an availability loss, not an integrity loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureKind {
    /// The answer matches the registrant's intended data.
    Clean,
    /// On-path capture: a forged response won the spoofing race and the
    /// resolver admitted it ([`Answer::poisoned`](crate::Answer)).
    Poisoned,
    /// Registrar-channel capture: the chain looks clean (or merely
    /// insecure) but the served records disagree with the registrant's
    /// authoritative data — a forged-DS/forged-NS takeover.
    Hijacked,
    /// The validator caught a broken chain and withheld the answer.
    Bogus,
}

impl CaptureKind {
    /// One-line explanation naming the responsible plane.
    pub fn explanation(&self) -> &'static str {
        match self {
            CaptureKind::Clean => "answer matches the registrant's data",
            CaptureKind::Poisoned => {
                "on-path capture: a forged response beat the resolver's \
                 entropy — harden txid/port/0x20, enable strict bailiwick"
            }
            CaptureKind::Hijacked => {
                "registrar-channel capture: served records diverge from the \
                 registrant's — audit the registrar's DS/NS change \
                 authentication"
            }
            CaptureKind::Bogus => {
                "validation failure: the chain is broken, the validator \
                 withheld the answer (availability loss, integrity intact)"
            }
        }
    }
}

impl fmt::Display for CaptureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            CaptureKind::Clean => "clean",
            CaptureKind::Poisoned => "poisoned",
            CaptureKind::Hijacked => "hijacked",
            CaptureKind::Bogus => "bogus",
        };
        write!(f, "{label}: {}", self.explanation())
    }
}

/// Classifies how `answer` relates to the registrant's intended records
/// (`expected`, when known — pass `None` to skip the hijack check).
///
/// Precedence: an admitted forgery is `Poisoned` regardless of what the
/// records happen to say; a bogus chain is the validator speaking; only
/// a clean-looking answer whose records diverge from `expected` is the
/// registrar-channel `Hijacked` signature.
pub fn capture_kind(answer: &crate::Answer, expected: Option<&[Record]>) -> CaptureKind {
    if answer.poisoned {
        return CaptureKind::Poisoned;
    }
    if matches!(answer.security, crate::Security::Bogus(_)) {
        return CaptureKind::Bogus;
    }
    if let Some(expected) = expected {
        let served: Vec<&Record> = answer
            .records
            .iter()
            .filter(|r| r.rtype() != RrType::Rrsig)
            .collect();
        let legit: Vec<&Record> = expected
            .iter()
            .filter(|r| r.rtype() != RrType::Rrsig)
            .collect();
        if served != legit {
            return CaptureKind::Hijacked;
        }
    }
    CaptureKind::Clean
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chain diagnosis for {}", self.target)?;
        for z in &self.zones {
            let link = match &z.ds_link {
                DsLink::TrustAnchor { matched: true } => "anchor ✓".to_string(),
                DsLink::TrustAnchor { matched: false } => "anchor ✗".to_string(),
                DsLink::Absent => "no DS (insecure delegation)".to_string(),
                DsLink::Matched { tag } => format!("DS → key {tag} ✓"),
                DsLink::Mismatched { ds_tags } => format!("DS tags {ds_tags:?} match NOTHING"),
            };
            let sig = match &z.signatures {
                SignatureState::Unsigned => "unsigned".to_string(),
                SignatureState::Valid { expires_in } => {
                    format!("signatures valid ({}d left)", expires_in / 86_400)
                }
                SignatureState::Expired => "signatures EXPIRED".to_string(),
                SignatureState::Invalid => "signatures INVALID".to_string(),
                SignatureState::MissingRrsig => "DNSKEY without RRSIG".to_string(),
            };
            writeln!(
                f,
                "  {:<24} {} keys; {}; {}{}",
                z.zone.to_string(),
                z.keys.len(),
                link,
                sig,
                if z.link_ok { "; link ok" } else { "" }
            )?;
        }
        writeln!(f, "verdict: {:?}", self.verdict)?;
        for a in &self.advice {
            writeln!(f, "  advice: {a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod capture_tests {
    use super::*;
    use crate::{Answer, Security};
    use dsec_wire::Rcode;

    fn answer(records: Vec<Record>, security: Security, poisoned: bool) -> Answer {
        Answer {
            records,
            rcode: Rcode::NoError,
            security,
            chain: Vec::new(),
            negative_ttl: None,
            poisoned,
        }
    }

    fn a_record(name: &str, ip: &str) -> Record {
        Record::new(
            Name::parse(name).unwrap(),
            300,
            RData::A(ip.parse().unwrap()),
        )
    }

    #[test]
    fn matching_records_are_clean() {
        let legit = vec![a_record("www.example.nl", "192.0.2.80")];
        let served = answer(legit.clone(), Security::Insecure, false);
        assert_eq!(capture_kind(&served, Some(&legit)), CaptureKind::Clean);
        assert_eq!(capture_kind(&served, None), CaptureKind::Clean);
    }

    #[test]
    fn poisoned_flag_wins_over_everything() {
        let legit = vec![a_record("www.example.nl", "192.0.2.80")];
        let served = answer(legit.clone(), Security::Insecure, true);
        assert_eq!(capture_kind(&served, Some(&legit)), CaptureKind::Poisoned);
    }

    #[test]
    fn diverging_records_are_the_hijack_signature() {
        let legit = vec![a_record("www.example.nl", "192.0.2.80")];
        let forged = vec![a_record("www.example.nl", "203.0.113.66")];
        let served = answer(forged, Security::Insecure, false);
        assert_eq!(capture_kind(&served, Some(&legit)), CaptureKind::Hijacked);
        // Without a baseline the divergence is invisible.
        let served = answer(
            vec![a_record("www.example.nl", "203.0.113.66")],
            Security::Insecure,
            false,
        );
        assert_eq!(capture_kind(&served, None), CaptureKind::Clean);
    }

    #[test]
    fn bogus_chain_is_the_validator_speaking() {
        use dsec_dnssec::validate::ValidationError;
        let served = answer(
            Vec::new(),
            Security::Bogus(ValidationError::MissingRrsig),
            false,
        );
        assert_eq!(capture_kind(&served, None), CaptureKind::Bogus);
        // Each kind explains itself distinctly.
        for kind in [
            CaptureKind::Clean,
            CaptureKind::Poisoned,
            CaptureKind::Hijacked,
            CaptureKind::Bogus,
        ] {
            assert!(!kind.to_string().is_empty());
        }
    }
}
