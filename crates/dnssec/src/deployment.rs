//! The paper's deployment taxonomy (Figure 1): **not deployed**,
//! **partially deployed** (DNSKEY + RRSIGs but no DS in the parent — cannot
//! be validated), and **fully deployed** (complete, verifiable chain), plus
//! the misconfiguration cases its §3 related work quantifies.

use dsec_wire::{DsRdata, Name, RrSet, RrsigRdata};

use crate::validate::{authenticate_dnskeys, ValidationError};

/// What a measurement observed about one domain's DNSSEC state.
///
/// This mirrors one OpenINTEL row: the DNSKEY RRset (if any), the RRSIGs
/// over it, and the DS RRset published in the parent zone.
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// The domain's DNSKEY RRset, if it publishes one.
    pub dnskey_rrset: Option<RrSet>,
    /// RRSIGs over the DNSKEY RRset.
    pub dnskey_rrsigs: Vec<RrsigRdata>,
    /// DS records in the parent zone.
    pub ds_set: Vec<DsRdata>,
}

impl Observation {
    /// True if the domain publishes at least one DNSKEY — the paper's
    /// "attempts to deploy DNSSEC" predicate (Table 1's percentage).
    pub fn has_dnskey(&self) -> bool {
        self.dnskey_rrset.is_some()
    }

    /// True if the parent publishes at least one DS.
    pub fn has_ds(&self) -> bool {
        !self.ds_set.is_empty()
    }

    /// The open interval around `now` free of RRSIG inception/expiration
    /// edges: [`classify`]'s RFC 4035 time check cannot change its answer
    /// for this observation while `window.0 < now < window.1`, so a
    /// memoized verdict is reusable exactly that long.
    pub fn validity_window(&self, now: u32) -> (i64, i64) {
        let now = i64::from(now);
        let mut window = (i64::MIN, i64::MAX);
        for sig in &self.dnskey_rrsigs {
            for edge in [i64::from(sig.inception), i64::from(sig.expiration)] {
                if edge <= now {
                    window.0 = window.0.max(edge);
                }
                if edge >= now {
                    window.1 = window.1.min(edge);
                }
            }
        }
        window
    }
}

/// Why a deployment with all record kinds present still fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Misconfiguration {
    /// DNSKEY present but not signed (no RRSIG over the DNSKEY RRset).
    MissingRrsig,
    /// The DS in the parent matches none of the child's DNSKEYs — e.g. the
    /// registrar accepted a corrupted or stale DS upload.
    DsMismatch,
    /// Covering signatures exist but are outside their validity window.
    ExpiredSignature,
    /// Covering signatures exist but are cryptographically invalid.
    BadSignature,
}

/// The paper's per-domain deployment state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeploymentStatus {
    /// No DNSKEY published: the domain does not attempt DNSSEC.
    NotDeployed,
    /// DNSKEY + RRSIGs published but no DS uploaded: cannot validate.
    /// (Figure 1's "partial deployment".)
    PartiallyDeployed,
    /// Complete, cryptographically verified chain link.
    FullyDeployed,
    /// All pieces present, but the chain does not validate.
    Misconfigured(Misconfiguration),
    /// Signed with an algorithm the validator does not support: treated
    /// as insecure (neither validated nor bogus).
    InsecureUnsupported,
}

impl DeploymentStatus {
    /// The paper counts a domain as "attempting DNSSEC" when a DNSKEY is
    /// published, regardless of outcome.
    pub fn attempts_dnssec(&self) -> bool {
        !matches!(self, DeploymentStatus::NotDeployed)
    }

    /// Only a fully deployed domain provides DNSSEC's security benefit.
    pub fn is_secure(&self) -> bool {
        matches!(self, DeploymentStatus::FullyDeployed)
    }

    /// Partial or misconfigured: publishes DNSSEC material that cannot be
    /// used (the paper's headline finding — ~30% of signed .com/.net/.org
    /// domains are in this state).
    pub fn is_broken_attempt(&self) -> bool {
        matches!(
            self,
            DeploymentStatus::PartiallyDeployed | DeploymentStatus::Misconfigured(_)
        )
    }
}

/// Classifies one domain observation at validation time `now`.
pub fn classify(owner: &Name, obs: &Observation, now: u32) -> DeploymentStatus {
    let Some(dnskey_rrset) = &obs.dnskey_rrset else {
        return DeploymentStatus::NotDeployed;
    };
    if obs.ds_set.is_empty() {
        // DNSKEY but no DS: partial if it at least signs, misconfigured if
        // the keys are unsigned even locally.
        if obs.dnskey_rrsigs.is_empty() {
            return DeploymentStatus::Misconfigured(Misconfiguration::MissingRrsig);
        }
        return DeploymentStatus::PartiallyDeployed;
    }
    if obs.dnskey_rrsigs.is_empty() {
        return DeploymentStatus::Misconfigured(Misconfiguration::MissingRrsig);
    }
    match authenticate_dnskeys(owner, dnskey_rrset, &obs.dnskey_rrsigs, &obs.ds_set, now) {
        Ok(_) => DeploymentStatus::FullyDeployed,
        Err(ValidationError::Expired { .. }) | Err(ValidationError::NotYetValid { .. }) => {
            DeploymentStatus::Misconfigured(Misconfiguration::ExpiredSignature)
        }
        Err(ValidationError::DsPointsNowhere { .. }) | Err(ValidationError::NoDsMatch) => {
            DeploymentStatus::Misconfigured(Misconfiguration::DsMismatch)
        }
        Err(ValidationError::UnsupportedAlgorithm(_)) => DeploymentStatus::InsecureUnsupported,
        Err(ValidationError::MissingRrsig) => {
            DeploymentStatus::Misconfigured(Misconfiguration::MissingRrsig)
        }
        Err(_) => DeploymentStatus::Misconfigured(Misconfiguration::BadSignature),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ZoneKeys;
    use crate::signer::{sign_rrset, SignerConfig};
    use dsec_crypto::{Algorithm, DigestType};
    use dsec_wire::RData;

    const NOW: u32 = 1_450_000_000;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn keys() -> ZoneKeys {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        ZoneKeys::generate_default(&mut rng, name("example.com"), Algorithm::RsaSha256).unwrap()
    }

    fn full_observation(k: &ZoneKeys) -> Observation {
        let set = RrSet::new(k.dnskey_records(3600)).unwrap();
        let cfg = SignerConfig::valid_from(NOW - 100, 30 * 86400);
        let rec = sign_rrset(&set, &k.ksk, k.ksk_tag(), &k.zone, &cfg);
        let RData::Rrsig(sig) = rec.rdata else {
            unreachable!()
        };
        Observation {
            dnskey_rrset: Some(set),
            dnskey_rrsigs: vec![sig],
            ds_set: vec![k.ds(DigestType::Sha256)],
        }
    }

    #[test]
    fn unsigned_domain_is_not_deployed() {
        let status = classify(&name("example.com"), &Observation::default(), NOW);
        assert_eq!(status, DeploymentStatus::NotDeployed);
        assert!(!status.attempts_dnssec());
        assert!(!status.is_secure());
    }

    #[test]
    fn full_chain_is_fully_deployed() {
        let k = keys();
        let obs = full_observation(&k);
        let status = classify(&k.zone, &obs, NOW);
        assert_eq!(status, DeploymentStatus::FullyDeployed);
        assert!(status.is_secure());
        assert!(!status.is_broken_attempt());
    }

    #[test]
    fn missing_ds_is_partial() {
        // The paper's central misdeployment: DNSKEY+RRSIG published, DS
        // never uploaded (≈30% of signed .com domains).
        let k = keys();
        let mut obs = full_observation(&k);
        obs.ds_set.clear();
        let status = classify(&k.zone, &obs, NOW);
        assert_eq!(status, DeploymentStatus::PartiallyDeployed);
        assert!(status.attempts_dnssec());
        assert!(status.is_broken_attempt());
        assert!(!status.is_secure());
    }

    #[test]
    fn missing_rrsig_is_misconfigured() {
        let k = keys();
        let mut obs = full_observation(&k);
        obs.dnskey_rrsigs.clear();
        assert_eq!(
            classify(&k.zone, &obs, NOW),
            DeploymentStatus::Misconfigured(Misconfiguration::MissingRrsig)
        );
    }

    #[test]
    fn unsigned_keys_without_ds_are_misconfigured_not_partial() {
        let k = keys();
        let mut obs = full_observation(&k);
        obs.dnskey_rrsigs.clear();
        obs.ds_set.clear();
        assert_eq!(
            classify(&k.zone, &obs, NOW),
            DeploymentStatus::Misconfigured(Misconfiguration::MissingRrsig)
        );
    }

    #[test]
    fn wrong_ds_is_ds_mismatch() {
        let k = keys();
        let mut obs = full_observation(&k);
        obs.ds_set[0].digest[0] ^= 0xFF;
        assert_eq!(
            classify(&k.zone, &obs, NOW),
            DeploymentStatus::Misconfigured(Misconfiguration::DsMismatch)
        );
    }

    #[test]
    fn expired_signature_detected() {
        let k = keys();
        let obs = full_observation(&k);
        let far_future = NOW + 365 * 86400;
        assert_eq!(
            classify(&k.zone, &obs, far_future),
            DeploymentStatus::Misconfigured(Misconfiguration::ExpiredSignature)
        );
    }

    #[test]
    fn unsupported_ds_digest_is_insecure() {
        let k = keys();
        let mut obs = full_observation(&k);
        obs.ds_set[0].digest_type = 200;
        assert_eq!(
            classify(&k.zone, &obs, NOW),
            DeploymentStatus::InsecureUnsupported
        );
    }

    #[test]
    fn garbage_ds_from_sloppy_registrar_breaks_domain() {
        // Table 2 finding: 10 of 12 web-upload registrars accept arbitrary
        // bytes as a DS record; model the resulting domain state.
        let k = keys();
        let mut obs = full_observation(&k);
        obs.ds_set = vec![DsRdata {
            key_tag: 0xBEEF,
            algorithm: 8,
            digest_type: 2,
            digest: b"pasted the wrong thing".to_vec(),
        }];
        let status = classify(&k.zone, &obs, NOW);
        assert_eq!(
            status,
            DeploymentStatus::Misconfigured(Misconfiguration::DsMismatch)
        );
        assert!(status.is_broken_attempt());
    }
}
