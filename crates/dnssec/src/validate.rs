//! RRSIG and chain-link validation (RFC 4035 §5).
//!
//! The unit of work is one link: authenticate a DNSKEY RRset against the
//! parent's DS RRset, then validate arbitrary RRsets under those keys. The
//! full root-to-leaf walk lives in `dsec-resolver`; the *paper-level*
//! deployment classification lives in [`crate::deployment`].

use dsec_crypto::Algorithm;
use dsec_wire::{DnskeyRdata, DsRdata, Name, RData, RrSet, RrsigRdata};

use crate::keys::ds_matches;

/// Why validation of an RRset failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// No RRSIG covered the RRset.
    MissingRrsig,
    /// No DNSKEY was available at the signer.
    MissingDnskey,
    /// RRSIGs exist but none matches an available DNSKEY (key tag or
    /// algorithm mismatch).
    NoMatchingKey {
        /// Key tags the RRSIGs referenced.
        wanted_tags: Vec<u16>,
    },
    /// A candidate signature was cryptographically wrong.
    BadSignature,
    /// The signature window has passed.
    Expired {
        /// Expiration from the RRSIG.
        expiration: u32,
        /// Validation time.
        now: u32,
    },
    /// The signature window has not begun.
    NotYetValid {
        /// Inception from the RRSIG.
        inception: u32,
        /// Validation time.
        now: u32,
    },
    /// The RRSIG's signer is not the expected zone apex.
    WrongSigner {
        /// Signer field of the RRSIG.
        signer: String,
        /// Expected apex.
        expected: String,
    },
    /// No DS record matches any DNSKEY (broken chain link).
    NoDsMatch,
    /// The DS RRset exists but the child has no DNSKEY with the SEP role
    /// that hashes to it.
    DsPointsNowhere {
        /// Key tags the DS records referenced.
        ds_tags: Vec<u16>,
    },
    /// Every covering RRSIG / DS used an algorithm this validator does not
    /// implement — RFC 4035 treats the zone as insecure, not bogus.
    UnsupportedAlgorithm(u8),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::MissingRrsig => write!(f, "no covering RRSIG"),
            ValidationError::MissingDnskey => write!(f, "no DNSKEY at signer"),
            ValidationError::NoMatchingKey { wanted_tags } => {
                write!(f, "no DNSKEY matches RRSIG key tags {wanted_tags:?}")
            }
            ValidationError::BadSignature => write!(f, "signature verification failed"),
            ValidationError::Expired { expiration, now } => {
                write!(f, "signature expired at {expiration}, validated at {now}")
            }
            ValidationError::NotYetValid { inception, now } => {
                write!(
                    f,
                    "signature not valid before {inception}, validated at {now}"
                )
            }
            ValidationError::WrongSigner { signer, expected } => {
                write!(f, "RRSIG signer {signer} is not the zone apex {expected}")
            }
            ValidationError::NoDsMatch => write!(f, "no DS matches any DNSKEY"),
            ValidationError::DsPointsNowhere { ds_tags } => {
                write!(f, "DS key tags {ds_tags:?} reference no present DNSKEY")
            }
            ValidationError::UnsupportedAlgorithm(a) => {
                write!(f, "unsupported algorithm {a} (zone treated as insecure)")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Verifies one RRSIG over one RRset with one specific DNSKEY.
pub fn verify_rrsig_with_key(
    rrset: &RrSet,
    rrsig: &RrsigRdata,
    dnskey: &DnskeyRdata,
    now: u32,
) -> Result<(), ValidationError> {
    if rrsig.expiration < now {
        return Err(ValidationError::Expired {
            expiration: rrsig.expiration,
            now,
        });
    }
    if rrsig.inception > now {
        return Err(ValidationError::NotYetValid {
            inception: rrsig.inception,
            now,
        });
    }
    if !dnskey.is_zone_key() || dnskey.protocol != 3 {
        return Err(ValidationError::BadSignature);
    }
    let algorithm = Algorithm::from_number(rrsig.algorithm);
    if !algorithm.is_supported() {
        return Err(ValidationError::UnsupportedAlgorithm(rrsig.algorithm));
    }
    let mut message = rrsig.signed_prefix();
    message.extend_from_slice(&rrset.canonical_wire(rrsig.original_ttl));
    match dsec_crypto::verify(algorithm, &dnskey.public_key, &message, &rrsig.signature) {
        Ok(true) => Ok(()),
        Ok(false) => Err(ValidationError::BadSignature),
        Err(dsec_crypto::CryptoError::UnsupportedAlgorithm(a)) => {
            Err(ValidationError::UnsupportedAlgorithm(a))
        }
        Err(dsec_crypto::CryptoError::MalformedKey(_)) => Err(ValidationError::BadSignature),
    }
}

/// Extracts the RRSIG RDATA covering `rtype` from a set of RRSIG records.
pub fn covering_rrsigs(rrsig_set: Option<&RrSet>, rtype: dsec_wire::RrType) -> Vec<RrsigRdata> {
    rrsig_set
        .map(|set| {
            set.records()
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::Rrsig(s) if s.type_covered == rtype => Some(s.clone()),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Validates an RRset: succeeds if *any* covering RRSIG verifies under
/// *any* provided DNSKEY with a matching (tag, algorithm), and the signer
/// field names `apex`.
///
/// Error reporting prefers the most specific failure observed.
pub fn validate_rrset(
    rrset: &RrSet,
    rrsigs: &[RrsigRdata],
    dnskeys: &[DnskeyRdata],
    apex: &Name,
    now: u32,
) -> Result<(), ValidationError> {
    let covering: Vec<&RrsigRdata> = rrsigs
        .iter()
        .filter(|s| s.type_covered == rrset.rtype())
        .collect();
    if covering.is_empty() {
        return Err(ValidationError::MissingRrsig);
    }
    if dnskeys.is_empty() {
        return Err(ValidationError::MissingDnskey);
    }
    let mut best: Option<ValidationError> = None;
    let mut matched_any_key = false;
    for rrsig in &covering {
        if rrsig.signer_name != *apex {
            keep_best(
                &mut best,
                ValidationError::WrongSigner {
                    signer: rrsig.signer_name.to_string(),
                    expected: apex.to_string(),
                },
            );
            continue;
        }
        for key in dnskeys {
            if key.key_tag() != rrsig.key_tag || key.algorithm != rrsig.algorithm {
                continue;
            }
            matched_any_key = true;
            match verify_rrsig_with_key(rrset, rrsig, key, now) {
                Ok(()) => return Ok(()),
                Err(e) => keep_best(&mut best, e),
            }
        }
    }
    if !matched_any_key && best.is_none() {
        return Err(ValidationError::NoMatchingKey {
            wanted_tags: covering.iter().map(|s| s.key_tag).collect(),
        });
    }
    Err(best.unwrap_or(ValidationError::BadSignature))
}

/// Prefers more diagnostic errors over less diagnostic ones.
fn keep_best(slot: &mut Option<ValidationError>, err: ValidationError) {
    let rank = |e: &ValidationError| match e {
        ValidationError::Expired { .. } | ValidationError::NotYetValid { .. } => 3,
        ValidationError::BadSignature => 2,
        ValidationError::UnsupportedAlgorithm(_) => 1,
        _ => 0,
    };
    if slot.as_ref().is_none_or(|old| rank(&err) > rank(old)) {
        *slot = Some(err);
    }
}

/// Authenticates a DNSKEY RRset against the parent's DS RRset: some DS must
/// match a present DNSKEY, and that DNSKEY must have signed the DNSKEY
/// RRset. Returns the full list of now-trusted DNSKEYs.
///
/// This is the chain link of RFC 4035 §5.2/5.3; the paper's "fully
/// deployed" criterion is exactly that this function succeeds at the SLD.
pub fn authenticate_dnskeys(
    owner: &Name,
    dnskey_rrset: &RrSet,
    rrsigs: &[RrsigRdata],
    ds_set: &[DsRdata],
    now: u32,
) -> Result<Vec<DnskeyRdata>, ValidationError> {
    let dnskeys: Vec<DnskeyRdata> = dnskey_rrset
        .records()
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Dnskey(k) => Some(k.clone()),
            _ => None,
        })
        .collect();
    if dnskeys.is_empty() {
        return Err(ValidationError::MissingDnskey);
    }
    if ds_set.is_empty() {
        return Err(ValidationError::NoDsMatch);
    }
    // Find the DS ↔ DNSKEY anchor(s).
    let mut anchors: Vec<&DnskeyRdata> = Vec::new();
    let mut any_supported_ds = false;
    for ds in ds_set {
        for key in &dnskeys {
            match ds_matches(owner, key, ds) {
                Some(true) => {
                    any_supported_ds = true;
                    anchors.push(key);
                }
                Some(false) => {
                    any_supported_ds = true;
                }
                None => {}
            }
        }
    }
    if !any_supported_ds {
        // Every DS used an unknown digest type → insecure.
        return Err(ValidationError::UnsupportedAlgorithm(
            ds_set.first().map(|d| d.algorithm).unwrap_or(0),
        ));
    }
    if anchors.is_empty() {
        return Err(ValidationError::DsPointsNowhere {
            ds_tags: ds_set.iter().map(|d| d.key_tag).collect(),
        });
    }
    // The anchored key must have signed the DNSKEY RRset.
    let anchor_keys: Vec<DnskeyRdata> = anchors.into_iter().cloned().collect();
    validate_rrset(dnskey_rrset, rrsigs, &anchor_keys, owner, now)?;
    Ok(dnskeys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ZoneKeys;
    use crate::signer::{sign_rrset, SignerConfig};
    use dsec_crypto::DigestType;
    use dsec_wire::{Record, RrType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const NOW: u32 = 1_450_000_000;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn keys() -> ZoneKeys {
        let mut rng = StdRng::seed_from_u64(10);
        ZoneKeys::generate_default(&mut rng, name("example.com"), Algorithm::RsaSha256).unwrap()
    }

    fn config() -> SignerConfig {
        SignerConfig::valid_from(NOW - 1000, 86400 * 30)
    }

    fn a_rrset() -> RrSet {
        RrSet::new(vec![Record::new(
            name("www.example.com"),
            300,
            RData::A("192.0.2.1".parse().unwrap()),
        )])
        .unwrap()
    }

    fn signed(rrset: &RrSet, k: &ZoneKeys) -> RrsigRdata {
        let rec = sign_rrset(rrset, &k.zsk, k.zsk_tag(), &k.zone, &config());
        match rec.rdata {
            RData::Rrsig(s) => s,
            _ => unreachable!(),
        }
    }

    #[test]
    fn valid_signature_verifies() {
        let k = keys();
        let set = a_rrset();
        let sig = signed(&set, &k);
        assert_eq!(
            validate_rrset(&set, &[sig], &[k.zsk_dnskey()], &k.zone, NOW),
            Ok(())
        );
    }

    #[test]
    fn missing_rrsig_reported() {
        let k = keys();
        let set = a_rrset();
        assert_eq!(
            validate_rrset(&set, &[], &[k.zsk_dnskey()], &k.zone, NOW),
            Err(ValidationError::MissingRrsig)
        );
    }

    #[test]
    fn missing_dnskey_reported() {
        let k = keys();
        let set = a_rrset();
        let sig = signed(&set, &k);
        assert_eq!(
            validate_rrset(&set, &[sig], &[], &k.zone, NOW),
            Err(ValidationError::MissingDnskey)
        );
    }

    #[test]
    fn tampered_rrset_fails() {
        let k = keys();
        let set = a_rrset();
        let sig = signed(&set, &k);
        let tampered = RrSet::new(vec![Record::new(
            name("www.example.com"),
            300,
            RData::A("192.0.2.2".parse().unwrap()),
        )])
        .unwrap();
        assert_eq!(
            validate_rrset(&tampered, &[sig], &[k.zsk_dnskey()], &k.zone, NOW),
            Err(ValidationError::BadSignature)
        );
    }

    #[test]
    fn expired_signature_fails() {
        let k = keys();
        let set = a_rrset();
        let sig = signed(&set, &k);
        let later = sig.expiration + 1;
        assert!(matches!(
            validate_rrset(&set, &[sig], &[k.zsk_dnskey()], &k.zone, later),
            Err(ValidationError::Expired { .. })
        ));
    }

    #[test]
    fn premature_signature_fails() {
        let k = keys();
        let set = a_rrset();
        let sig = signed(&set, &k);
        let before = sig.inception - 1;
        assert!(matches!(
            validate_rrset(&set, &[sig], &[k.zsk_dnskey()], &k.zone, before),
            Err(ValidationError::NotYetValid { .. })
        ));
    }

    #[test]
    fn wrong_key_reports_no_match() {
        let k = keys();
        let mut rng = StdRng::seed_from_u64(99);
        let other = ZoneKeys::generate_default(&mut rng, name("example.com"), Algorithm::RsaSha256)
            .unwrap();
        let set = a_rrset();
        let sig = signed(&set, &k);
        assert!(matches!(
            validate_rrset(&set, &[sig], &[other.zsk_dnskey()], &k.zone, NOW),
            Err(ValidationError::NoMatchingKey { .. })
        ));
    }

    #[test]
    fn wrong_signer_reported() {
        let k = keys();
        let set = a_rrset();
        let sig = signed(&set, &k);
        let wrong_apex = name("evil.com");
        assert!(matches!(
            validate_rrset(&set, &[sig], &[k.zsk_dnskey()], &wrong_apex, NOW),
            Err(ValidationError::WrongSigner { .. })
        ));
    }

    #[test]
    fn ttl_in_cache_does_not_break_validation() {
        // Records may be served with a decremented TTL; validation uses the
        // RRSIG's original_ttl, so a different record TTL must still verify.
        let k = keys();
        let set = a_rrset();
        let sig = signed(&set, &k);
        let aged = RrSet::new(vec![Record::new(
            name("www.example.com"),
            120, // decremented from 300
            RData::A("192.0.2.1".parse().unwrap()),
        )])
        .unwrap();
        assert_eq!(
            validate_rrset(&aged, &[sig], &[k.zsk_dnskey()], &k.zone, NOW),
            Ok(())
        );
    }

    fn dnskey_rrset_and_sig(k: &ZoneKeys) -> (RrSet, RrsigRdata) {
        let set = RrSet::new(k.dnskey_records(3600)).unwrap();
        let rec = sign_rrset(&set, &k.ksk, k.ksk_tag(), &k.zone, &config());
        let RData::Rrsig(sig) = rec.rdata else {
            unreachable!()
        };
        (set, sig)
    }

    #[test]
    fn chain_link_authenticates() {
        let k = keys();
        let (set, sig) = dnskey_rrset_and_sig(&k);
        let ds = k.ds(DigestType::Sha256);
        let trusted = authenticate_dnskeys(&k.zone, &set, &[sig], &[ds], NOW).unwrap();
        assert_eq!(trusted.len(), 2);
    }

    #[test]
    fn chain_link_fails_without_ds() {
        let k = keys();
        let (set, sig) = dnskey_rrset_and_sig(&k);
        assert_eq!(
            authenticate_dnskeys(&k.zone, &set, &[sig], &[], NOW),
            Err(ValidationError::NoDsMatch)
        );
    }

    #[test]
    fn chain_link_fails_with_mismatched_ds() {
        let k = keys();
        let mut rng = StdRng::seed_from_u64(123);
        let other = ZoneKeys::generate_default(&mut rng, name("example.com"), Algorithm::RsaSha256)
            .unwrap();
        let (set, sig) = dnskey_rrset_and_sig(&k);
        let wrong_ds = other.ds(DigestType::Sha256);
        assert!(matches!(
            authenticate_dnskeys(&k.zone, &set, &[sig], &[wrong_ds], NOW),
            Err(ValidationError::DsPointsNowhere { .. })
        ));
    }

    #[test]
    fn chain_link_fails_when_dnskey_signed_by_zsk_only() {
        // The DS anchors the KSK; a DNSKEY RRset signed only by the ZSK
        // cannot be chained (the anchor never signed it).
        let k = keys();
        let set = RrSet::new(k.dnskey_records(3600)).unwrap();
        let rec = sign_rrset(&set, &k.zsk, k.zsk_tag(), &k.zone, &config());
        let RData::Rrsig(sig) = rec.rdata else {
            unreachable!()
        };
        let ds = k.ds(DigestType::Sha256);
        assert!(authenticate_dnskeys(&k.zone, &set, &[sig], &[ds], NOW).is_err());
    }

    #[test]
    fn chain_link_with_garbage_ds_data() {
        // The paper found most registrars accept arbitrary bytes as DS
        // records; such a DS breaks the whole chain.
        let k = keys();
        let (set, sig) = dnskey_rrset_and_sig(&k);
        let garbage = DsRdata {
            key_tag: 1111,
            algorithm: 8,
            digest_type: 2,
            digest: b"copy paste error here".to_vec(),
        };
        assert!(matches!(
            authenticate_dnskeys(&k.zone, &set, &[sig], &[garbage], NOW),
            Err(ValidationError::DsPointsNowhere { .. })
        ));
    }

    #[test]
    fn unknown_ds_digest_type_is_insecure() {
        let k = keys();
        let (set, sig) = dnskey_rrset_and_sig(&k);
        let mut ds = k.ds(DigestType::Sha256);
        ds.digest_type = 250;
        assert!(matches!(
            authenticate_dnskeys(&k.zone, &set, &[sig], &[ds], NOW),
            Err(ValidationError::UnsupportedAlgorithm(_))
        ));
    }

    #[test]
    fn covering_rrsigs_filters_by_type() {
        let k = keys();
        let set = a_rrset();
        let sig_record = sign_rrset(&set, &k.zsk, k.zsk_tag(), &k.zone, &config());
        let rrsig_set = RrSet::new(vec![sig_record]).unwrap();
        assert_eq!(covering_rrsigs(Some(&rrsig_set), RrType::A).len(), 1);
        assert_eq!(covering_rrsigs(Some(&rrsig_set), RrType::Aaaa).len(), 0);
        assert_eq!(covering_rrsigs(None, RrType::A).len(), 0);
    }

    #[test]
    fn revoked_zone_key_flag_rejected() {
        // A DNSKEY without the zone-key bit must not validate anything.
        let k = keys();
        let set = a_rrset();
        let sig = signed(&set, &k);
        let mut bad_key = k.zsk_dnskey();
        bad_key.flags &= !dsec_wire::rdata::DNSKEY_FLAG_ZONE;
        // Key tag changes with flags, so force the original tag path by
        // checking verify_rrsig_with_key directly.
        assert_eq!(
            verify_rrsig_with_key(&set, &sig, &bad_key, NOW),
            Err(ValidationError::BadSignature)
        );
    }
}
