//! CDS / CDNSKEY automation (RFC 7344, RFC 8078): the in-band channel that
//! lets a child zone tell its parent which DS records to publish — removing
//! the error-prone human relay the paper blames for partial deployments.
//!
//! A registry that supports this (the paper knew of exactly one, `.cz`)
//! periodically scans child zones for CDS/CDNSKEY RRsets, authenticates
//! them with the *currently trusted* chain, and applies the requested
//! change. This module implements that decision procedure.

use dsec_crypto::{Algorithm, DigestType};
use dsec_wire::{DnskeyRdata, DsRdata, Name, RData, RrSet, RrsigRdata};

use crate::keys::make_ds;
use crate::validate::{validate_rrset, ValidationError};

/// What the parent should do after scanning a child's CDS/CDNSKEY.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdsAction {
    /// No CDS/CDNSKEY present: leave the DS RRset alone.
    NoChange,
    /// Replace the DS RRset with these records.
    ReplaceDs(Vec<DsRdata>),
    /// RFC 8078 §4: the child requested DS *deletion* (algorithm 0 CDS).
    DeleteDs,
}

/// Why a CDS/CDNSKEY scan was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdsError {
    /// The CDS/CDNSKEY RRset is not signed, or not signed by a key the
    /// parent already trusts (RFC 7344 §4.1: must be validated with the
    /// current chain).
    NotAuthenticated(ValidationError),
    /// RFC 8078 forbids bootstrapping *deletion* together with other CDS
    /// records.
    MixedDeleteAndUpdate,
    /// A CDS referenced an unsupported digest type, so the parent cannot
    /// reproduce the digest.
    UnsupportedDigest(u8),
    /// CDS and CDNSKEY were both published but disagree.
    CdsCdnskeyMismatch,
}

/// One child-zone scan input.
#[derive(Debug, Clone, Default)]
pub struct CdsScan {
    /// The child's CDS RRset, if published.
    pub cds: Option<RrSet>,
    /// The child's CDNSKEY RRset, if published.
    pub cdnskey: Option<RrSet>,
    /// RRSIGs over those RRsets.
    pub rrsigs: Vec<RrsigRdata>,
    /// DNSKEYs already chained from the parent's current DS (the trust
    /// anchor set for authenticating the change).
    pub trusted_keys: Vec<DnskeyRdata>,
}

/// Decides the parent-side action for a child scan (RFC 7344 §6.2).
pub fn process_scan(child: &Name, scan: &CdsScan, now: u32) -> Result<CdsAction, CdsError> {
    let (Some(_) | None, Some(_) | None) = (&scan.cds, &scan.cdnskey);
    if scan.cds.is_none() && scan.cdnskey.is_none() {
        return Ok(CdsAction::NoChange);
    }

    // Authenticate whichever sets are present with the current chain.
    for set in [&scan.cds, &scan.cdnskey].into_iter().flatten() {
        validate_rrset(set, &scan.rrsigs, &scan.trusted_keys, child, now)
            .map_err(CdsError::NotAuthenticated)?;
    }

    // Extract the requested DS set from CDS (preferred) or CDNSKEY.
    let from_cds: Option<Vec<DsRdata>> = scan.cds.as_ref().map(|set| {
        set.records()
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Cds(ds) => Some(ds.clone()),
                _ => None,
            })
            .collect()
    });
    let from_cdnskey: Option<Result<Vec<DsRdata>, CdsError>> = scan.cdnskey.as_ref().map(|set| {
        set.records()
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Cdnskey(k) => Some(k.clone()),
                _ => None,
            })
            .map(|k| cdnskey_to_ds(child, &k))
            .collect()
    });

    let requested: Vec<DsRdata> = match (from_cds, from_cdnskey) {
        (Some(cds), Some(cdnskey)) => {
            let cdnskey = cdnskey?;
            // Publishing both is redundant-but-legal; they must agree
            // (compare as sets, ignoring order).
            let mut a = cds.clone();
            let mut b = cdnskey;
            a.sort_by(cmp_ds);
            b.sort_by(cmp_ds);
            if a != b {
                return Err(CdsError::CdsCdnskeyMismatch);
            }
            cds
        }
        (Some(cds), None) => cds,
        (None, Some(cdnskey)) => cdnskey?,
        (None, None) => return Ok(CdsAction::NoChange),
    };

    // RFC 8078: algorithm 0 means "delete the DS RRset".
    let deletes = requested
        .iter()
        .filter(|ds| Algorithm::from_number(ds.algorithm) == Algorithm::Delete)
        .count();
    if deletes > 0 {
        if deletes != requested.len() {
            return Err(CdsError::MixedDeleteAndUpdate);
        }
        return Ok(CdsAction::DeleteDs);
    }
    for ds in &requested {
        if !DigestType::from_number(ds.digest_type).is_supported() {
            return Err(CdsError::UnsupportedDigest(ds.digest_type));
        }
    }
    Ok(CdsAction::ReplaceDs(requested))
}

/// Derives the DS a CDNSKEY implies (SHA-256, the modern default).
fn cdnskey_to_ds(child: &Name, key: &DnskeyRdata) -> Result<DsRdata, CdsError> {
    if Algorithm::from_number(key.algorithm) == Algorithm::Delete {
        // The RFC 8078 delete sentinel as a CDNSKEY.
        return Ok(DsRdata {
            key_tag: 0,
            algorithm: 0,
            digest_type: 0,
            digest: Vec::new(),
        });
    }
    make_ds(child, key, DigestType::Sha256).ok_or(CdsError::UnsupportedDigest(2))
}

fn cmp_ds(a: &DsRdata, b: &DsRdata) -> std::cmp::Ordering {
    (a.key_tag, a.algorithm, a.digest_type, &a.digest).cmp(&(
        b.key_tag,
        b.algorithm,
        b.digest_type,
        &b.digest,
    ))
}

/// Builds the RFC 8078 "delete DS" CDS record content.
pub fn delete_sentinel_cds() -> DsRdata {
    DsRdata {
        key_tag: 0,
        algorithm: 0,
        digest_type: 0,
        digest: vec![0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ZoneKeys;
    use crate::signer::{sign_rrset, SignerConfig};
    use dsec_wire::{Record, RrType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const NOW: u32 = 1_460_000_000;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn keys() -> ZoneKeys {
        let mut rng = StdRng::seed_from_u64(77);
        ZoneKeys::generate_default(&mut rng, name("example.com"), Algorithm::RsaSha256).unwrap()
    }

    fn sign_set(set: &RrSet, k: &ZoneKeys) -> RrsigRdata {
        let cfg = SignerConfig::valid_from(NOW - 100, 30 * 86400);
        let rec = sign_rrset(set, &k.zsk, k.zsk_tag(), &k.zone, &cfg);
        let RData::Rrsig(s) = rec.rdata else {
            unreachable!()
        };
        s
    }

    fn cds_set(k: &ZoneKeys, ds: DsRdata) -> (RrSet, RrsigRdata) {
        let set = RrSet::new(vec![Record::new(k.zone.clone(), 3600, RData::Cds(ds))]).unwrap();
        let sig = sign_set(&set, k);
        (set, sig)
    }

    #[test]
    fn no_cds_means_no_change() {
        let scan = CdsScan::default();
        assert_eq!(
            process_scan(&name("example.com"), &scan, NOW),
            Ok(CdsAction::NoChange)
        );
    }

    #[test]
    fn valid_cds_replaces_ds() {
        let k = keys();
        let new_ds = k.ds(DigestType::Sha256);
        let (set, sig) = cds_set(&k, new_ds.clone());
        let scan = CdsScan {
            cds: Some(set),
            cdnskey: None,
            rrsigs: vec![sig],
            trusted_keys: vec![k.ksk_dnskey(), k.zsk_dnskey()],
        };
        assert_eq!(
            process_scan(&k.zone, &scan, NOW),
            Ok(CdsAction::ReplaceDs(vec![new_ds]))
        );
    }

    #[test]
    fn unsigned_cds_is_rejected() {
        let k = keys();
        let (set, _) = cds_set(&k, k.ds(DigestType::Sha256));
        let scan = CdsScan {
            cds: Some(set),
            cdnskey: None,
            rrsigs: vec![],
            trusted_keys: vec![k.ksk_dnskey(), k.zsk_dnskey()],
        };
        assert!(matches!(
            process_scan(&k.zone, &scan, NOW),
            Err(CdsError::NotAuthenticated(ValidationError::MissingRrsig))
        ));
    }

    #[test]
    fn cds_signed_by_untrusted_key_is_rejected() {
        // An attacker-controlled key signs the CDS: the parent must refuse
        // because the signer is not chained from the current DS.
        let k = keys();
        let mut rng = StdRng::seed_from_u64(88);
        let attacker =
            ZoneKeys::generate_default(&mut rng, name("example.com"), Algorithm::RsaSha256)
                .unwrap();
        let set = RrSet::new(vec![Record::new(
            k.zone.clone(),
            3600,
            RData::Cds(attacker.ds(DigestType::Sha256)),
        )])
        .unwrap();
        let sig = sign_set(&set, &attacker);
        let scan = CdsScan {
            cds: Some(set),
            cdnskey: None,
            rrsigs: vec![sig],
            trusted_keys: vec![k.ksk_dnskey(), k.zsk_dnskey()], // real keys
        };
        assert!(matches!(
            process_scan(&k.zone, &scan, NOW),
            Err(CdsError::NotAuthenticated(_))
        ));
    }

    #[test]
    fn delete_sentinel_requests_deletion() {
        let k = keys();
        let (set, sig) = cds_set(&k, delete_sentinel_cds());
        let scan = CdsScan {
            cds: Some(set),
            cdnskey: None,
            rrsigs: vec![sig],
            trusted_keys: vec![k.ksk_dnskey(), k.zsk_dnskey()],
        };
        assert_eq!(process_scan(&k.zone, &scan, NOW), Ok(CdsAction::DeleteDs));
    }

    #[test]
    fn mixed_delete_and_update_rejected() {
        let k = keys();
        let set = RrSet::new(vec![
            Record::new(k.zone.clone(), 3600, RData::Cds(delete_sentinel_cds())),
            Record::new(k.zone.clone(), 3600, RData::Cds(k.ds(DigestType::Sha256))),
        ])
        .unwrap();
        let sig = sign_set(&set, &k);
        let scan = CdsScan {
            cds: Some(set),
            cdnskey: None,
            rrsigs: vec![sig],
            trusted_keys: vec![k.ksk_dnskey(), k.zsk_dnskey()],
        };
        assert_eq!(
            process_scan(&k.zone, &scan, NOW),
            Err(CdsError::MixedDeleteAndUpdate)
        );
    }

    #[test]
    fn cdnskey_alone_derives_ds() {
        let k = keys();
        let set = RrSet::new(vec![Record::new(
            k.zone.clone(),
            3600,
            RData::Cdnskey(k.ksk_dnskey()),
        )])
        .unwrap();
        let sig = sign_set(&set, &k);
        let scan = CdsScan {
            cds: None,
            cdnskey: Some(set),
            rrsigs: vec![sig],
            trusted_keys: vec![k.ksk_dnskey(), k.zsk_dnskey()],
        };
        let action = process_scan(&k.zone, &scan, NOW).unwrap();
        assert_eq!(action, CdsAction::ReplaceDs(vec![k.ds(DigestType::Sha256)]));
    }

    #[test]
    fn matching_cds_and_cdnskey_accepted() {
        let k = keys();
        let cds = RrSet::new(vec![Record::new(
            k.zone.clone(),
            3600,
            RData::Cds(k.ds(DigestType::Sha256)),
        )])
        .unwrap();
        let cdnskey = RrSet::new(vec![Record::new(
            k.zone.clone(),
            3600,
            RData::Cdnskey(k.ksk_dnskey()),
        )])
        .unwrap();
        let sigs = vec![sign_set(&cds, &k), sign_set(&cdnskey, &k)];
        let scan = CdsScan {
            cds: Some(cds),
            cdnskey: Some(cdnskey),
            rrsigs: sigs,
            trusted_keys: vec![k.ksk_dnskey(), k.zsk_dnskey()],
        };
        assert!(matches!(
            process_scan(&k.zone, &scan, NOW),
            Ok(CdsAction::ReplaceDs(_))
        ));
    }

    #[test]
    fn disagreeing_cds_and_cdnskey_rejected() {
        let k = keys();
        let mut rng = StdRng::seed_from_u64(89);
        let other = ZoneKeys::generate_default(&mut rng, name("example.com"), Algorithm::RsaSha256)
            .unwrap();
        let cds = RrSet::new(vec![Record::new(
            k.zone.clone(),
            3600,
            RData::Cds(other.ds(DigestType::Sha256)),
        )])
        .unwrap();
        let cdnskey = RrSet::new(vec![Record::new(
            k.zone.clone(),
            3600,
            RData::Cdnskey(k.ksk_dnskey()),
        )])
        .unwrap();
        let sigs = vec![sign_set(&cds, &k), sign_set(&cdnskey, &k)];
        let scan = CdsScan {
            cds: Some(cds),
            cdnskey: Some(cdnskey),
            rrsigs: sigs,
            trusted_keys: vec![k.ksk_dnskey(), k.zsk_dnskey()],
        };
        assert_eq!(
            process_scan(&k.zone, &scan, NOW),
            Err(CdsError::CdsCdnskeyMismatch)
        );
    }

    #[test]
    fn unsupported_digest_rejected() {
        let k = keys();
        let mut ds = k.ds(DigestType::Sha256);
        ds.digest_type = 77;
        let (set, sig) = cds_set(&k, ds);
        let scan = CdsScan {
            cds: Some(set),
            cdnskey: None,
            rrsigs: vec![sig],
            trusted_keys: vec![k.ksk_dnskey(), k.zsk_dnskey()],
        };
        assert_eq!(
            process_scan(&k.zone, &scan, NOW),
            Err(CdsError::UnsupportedDigest(77))
        );
    }

    #[test]
    fn expired_cds_signature_rejected() {
        let k = keys();
        let (set, sig) = cds_set(&k, k.ds(DigestType::Sha256));
        let scan = CdsScan {
            cds: Some(set),
            cdnskey: None,
            rrsigs: vec![sig],
            trusted_keys: vec![k.ksk_dnskey(), k.zsk_dnskey()],
        };
        let much_later = NOW + 365 * 86400;
        assert!(matches!(
            process_scan(&k.zone, &scan, much_later),
            Err(CdsError::NotAuthenticated(ValidationError::Expired { .. }))
        ));
    }

    #[test]
    fn rrtype_constants_are_correct() {
        // Guard against the CDS/CDNSKEY type numbers regressing.
        assert_eq!(RrType::Cds.number(), 59);
        assert_eq!(RrType::Cdnskey.number(), 60);
    }
}
