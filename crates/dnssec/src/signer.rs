//! Zone signing (RFC 4035 §2): RRSIG generation, DNSKEY publication, and
//! the NSEC chain for authenticated denial.

use dsec_wire::rdata::{Nsec3ParamRdata, Nsec3Rdata};
use dsec_wire::rrtype::TypeBitmap;
use dsec_wire::{Name, RData, Record, RrSet, RrType, RrsigRdata, Zone};

use dsec_crypto::SigningKey;

use crate::keys::ZoneKeys;
use crate::nsec3::{nsec3_hash, Nsec3Config};
use crate::DnssecError;

/// Signing parameters.
#[derive(Debug, Clone)]
pub struct SignerConfig {
    /// Signature inception (epoch seconds).
    pub inception: u32,
    /// Signature expiration (epoch seconds).
    pub expiration: u32,
    /// Whether to build the NSEC chain.
    pub nsec: bool,
    /// Use RFC 5155 NSEC3 denial instead of NSEC (overrides `nsec`).
    pub nsec3: Option<Nsec3Config>,
    /// TTL for the DNSKEY RRset.
    pub dnskey_ttl: u32,
}

impl SignerConfig {
    /// A config valid from `now` for `validity_secs`, with NSEC enabled.
    pub fn valid_from(now: u32, validity_secs: u32) -> Self {
        SignerConfig {
            inception: now,
            expiration: now.saturating_add(validity_secs),
            nsec: true,
            nsec3: None,
            dnskey_ttl: 3600,
        }
    }

    /// The same config with NSEC3 denial (RFC 5155).
    pub fn with_nsec3(mut self, config: Nsec3Config) -> Self {
        self.nsec3 = Some(config);
        self
    }
}

/// Computes the RRSIG record for one RRset with one key.
///
/// The signed data is `RRSIG_RDATA_prefix ‖ canonical RRset`
/// (RFC 4034 §3.1.8.1).
pub fn sign_rrset(
    rrset: &RrSet,
    key: &SigningKey,
    key_tag: u16,
    signer_name: &Name,
    config: &SignerConfig,
) -> Record {
    let rrsig = RrsigRdata {
        type_covered: rrset.rtype(),
        algorithm: key.algorithm.number(),
        labels: rrset.name().label_count() as u8,
        original_ttl: rrset.ttl(),
        expiration: config.expiration,
        inception: config.inception,
        key_tag,
        signer_name: signer_name.clone(),
        signature: Vec::new(),
    };
    let mut message = rrsig.signed_prefix();
    message.extend_from_slice(&rrset.canonical_wire(rrset.ttl()));
    let signature = key.sign(&message);
    Record::new(
        rrset.name().clone(),
        rrset.ttl(),
        RData::Rrsig(RrsigRdata { signature, ..rrsig }),
    )
}

/// The key material for one signing pass, generalised to mid-rollover
/// states where two key sets coexist (RFC 6781 §4): which DNSKEYs to
/// publish, which keys sign the DNSKEY RRset (KSK side), and which keys
/// sign everything else (ZSK side).
///
/// A steady-state zone is `SigningSet::single`; a double-signature
/// rollover serves `SigningSet::double` (both generations published and
/// signing, so validation succeeds under *either* parent DS); a
/// pre-publish ZSK rollover serves `SigningSet::prepublish` (the incoming
/// ZSK is published so caches learn it, but only the active keys sign).
#[derive(Debug, Clone)]
pub struct SigningSet {
    /// Zone the set signs.
    pub zone: Name,
    /// DNSKEY RDATAs to publish at the apex.
    pub dnskeys: Vec<dsec_wire::DnskeyRdata>,
    /// Keys (with their tags) producing RRSIGs over the DNSKEY RRset.
    pub ksk_signers: Vec<(SigningKey, u16)>,
    /// Keys (with their tags) producing RRSIGs over every other RRset.
    pub zsk_signers: Vec<(SigningKey, u16)>,
}

impl SigningSet {
    /// Steady state: one KSK/ZSK pair, exactly what [`sign_zone`] does.
    pub fn single(keys: &ZoneKeys) -> Self {
        SigningSet {
            zone: keys.zone.clone(),
            dnskeys: vec![keys.ksk_dnskey(), keys.zsk_dnskey()],
            ksk_signers: vec![(keys.ksk.clone(), keys.ksk_tag())],
            zsk_signers: vec![(keys.zsk.clone(), keys.zsk_tag())],
        }
    }

    /// Double-signature rollover (RFC 6781 §4.1.2, also the conservative
    /// algorithm-rollover shape of RFC 6781 §4.1.4): both generations are
    /// published and *both* sign, so the DNSKEY RRset authenticates under
    /// the old DS and the new DS alike, and every answer carries an RRSIG
    /// from each ZSK. The parent DS can swap at any point in the window
    /// without a bogus moment.
    pub fn double(old: &ZoneKeys, new: &ZoneKeys) -> Result<Self, DnssecError> {
        if old.zone != new.zone {
            return Err(DnssecError::KeyZoneMismatch {
                key_zone: new.zone.to_string(),
                zone: old.zone.to_string(),
            });
        }
        Ok(SigningSet {
            zone: old.zone.clone(),
            dnskeys: vec![
                old.ksk_dnskey(),
                old.zsk_dnskey(),
                new.ksk_dnskey(),
                new.zsk_dnskey(),
            ],
            ksk_signers: vec![
                (old.ksk.clone(), old.ksk_tag()),
                (new.ksk.clone(), new.ksk_tag()),
            ],
            zsk_signers: vec![
                (old.zsk.clone(), old.zsk_tag()),
                (new.zsk.clone(), new.zsk_tag()),
            ],
        })
    }

    /// Pre-publish ZSK rollover (RFC 6781 §4.1.1.1): the incoming ZSK is
    /// published next to the active pair so caches learn it one TTL ahead
    /// of use, but only the active keys produce signatures. The KSK (and
    /// hence the DS) does not change.
    pub fn prepublish(active: &ZoneKeys, incoming: &ZoneKeys) -> Result<Self, DnssecError> {
        if active.zone != incoming.zone {
            return Err(DnssecError::KeyZoneMismatch {
                key_zone: incoming.zone.to_string(),
                zone: active.zone.to_string(),
            });
        }
        Ok(SigningSet {
            zone: active.zone.clone(),
            dnskeys: vec![
                active.ksk_dnskey(),
                active.zsk_dnskey(),
                incoming.zsk_dnskey(),
            ],
            ksk_signers: vec![(active.ksk.clone(), active.ksk_tag())],
            zsk_signers: vec![(active.zsk.clone(), active.zsk_tag())],
        })
    }
}

/// Signs a zone in place: publishes the DNSKEY RRset, signs every
/// authoritative RRset (KSK over DNSKEY, ZSK over the rest), and builds
/// the NSEC chain when configured.
///
/// Skips what RFC 4035 says must not be signed: delegation NS RRsets and
/// glue (names at/below a zone cut other than the cut's DS/NSEC).
pub fn sign_zone(
    zone: &mut Zone,
    keys: &ZoneKeys,
    config: &SignerConfig,
) -> Result<(), DnssecError> {
    sign_zone_set(zone, &SigningSet::single(keys), config)
}

/// Signs a zone with an arbitrary [`SigningSet`] — the rollover-aware
/// generalisation of [`sign_zone`]. Every RRset gets one RRSIG per
/// applicable signer.
pub fn sign_zone_set(
    zone: &mut Zone,
    set: &SigningSet,
    config: &SignerConfig,
) -> Result<(), DnssecError> {
    if set.zone != *zone.origin() {
        return Err(DnssecError::KeyZoneMismatch {
            key_zone: set.zone.to_string(),
            zone: zone.origin().to_string(),
        });
    }
    // Drop any stale DNSSEC material from a previous signing pass.
    let owners = zone.owner_names();
    for owner in &owners {
        zone.remove_rrset(owner, RrType::Rrsig);
        zone.remove_rrset(owner, RrType::Nsec);
        zone.remove_rrset(owner, RrType::Nsec3);
    }
    zone.remove_rrset(&set.zone, RrType::Dnskey);
    zone.remove_rrset(&set.zone, RrType::Nsec3Param);

    // Publish DNSKEYs.
    for dnskey in &set.dnskeys {
        zone.add(Record::new(
            set.zone.clone(),
            config.dnskey_ttl,
            RData::Dnskey(dnskey.clone()),
        ))
        .map_err(DnssecError::Wire)?;
    }

    // Identify zone cuts so delegations and glue are left unsigned.
    let cuts: Vec<Name> = zone
        .rrsets()
        .filter(|set| set.rtype() == RrType::Ns && set.name() != zone.origin())
        .map(|set| set.name().clone())
        .collect();

    // NSEC3 chain (RFC 5155) when configured: hash every authoritative
    // owner, link the hashes circularly in hash order, and advertise the
    // parameters with an apex NSEC3PARAM.
    if let Some(nsec3) = &config.nsec3 {
        let auth_owners: Vec<Name> = zone
            .owner_names()
            .into_iter()
            .filter(|n| is_authoritative(n, zone.origin(), &cuts))
            .collect();
        let mut hashed: Vec<([u8; 20], Name)> = auth_owners
            .iter()
            .map(|owner| {
                (
                    nsec3_hash(owner, &nsec3.salt, nsec3.iterations),
                    owner.clone(),
                )
            })
            .collect();
        hashed.sort_by_key(|a| a.0);
        for (i, (hash, owner)) in hashed.iter().enumerate() {
            let next = hashed[(i + 1) % hashed.len()].0;
            let mut listed: Vec<RrType> = zone.types_at(owner).iter().collect();
            listed.push(RrType::Rrsig);
            if owner == zone.origin() {
                listed.push(RrType::Nsec3Param);
            }
            let owner_label = dsec_crypto::base32::encode_hex(hash);
            let hashed_owner = zone
                .origin()
                .child(&owner_label)
                .map_err(DnssecError::Wire)?;
            zone.add(Record::new(
                hashed_owner,
                config.dnskey_ttl,
                RData::Nsec3(Nsec3Rdata {
                    hash_algorithm: 1,
                    flags: 0,
                    iterations: nsec3.iterations,
                    salt: nsec3.salt.clone(),
                    next_hashed: next.to_vec(),
                    types: TypeBitmap::from_types(listed),
                }),
            ))
            .map_err(DnssecError::Wire)?;
        }
        zone.add(Record::new(
            set.zone.clone(),
            config.dnskey_ttl,
            RData::Nsec3Param(Nsec3ParamRdata {
                hash_algorithm: 1,
                flags: 0,
                iterations: nsec3.iterations,
                salt: nsec3.salt.clone(),
            }),
        ))
        .map_err(DnssecError::Wire)?;
    }

    // NSEC chain over authoritative owner names (canonical order).
    if config.nsec && config.nsec3.is_none() {
        let auth_owners: Vec<Name> = zone
            .owner_names()
            .into_iter()
            .filter(|n| is_authoritative(n, zone.origin(), &cuts))
            .collect();
        for (i, owner) in auth_owners.iter().enumerate() {
            let next = auth_owners[(i + 1) % auth_owners.len()].clone();
            let mut types = zone.types_at(owner);
            let mut listed: Vec<RrType> = types.iter().collect();
            listed.push(RrType::Nsec);
            listed.push(RrType::Rrsig);
            types = TypeBitmap::from_types(listed);
            zone.add(Record::new(
                owner.clone(),
                config.dnskey_ttl,
                RData::Nsec { next, types },
            ))
            .map_err(DnssecError::Wire)?;
        }
    }

    // Sign every authoritative RRset: one RRSIG per applicable signer.
    let rrsets: Vec<RrSet> = zone.rrsets().collect();
    for rrset in rrsets {
        if !is_authoritative(rrset.name(), zone.origin(), &cuts) {
            continue;
        }
        // Delegation NS RRsets are not signed (the child is authoritative);
        // DS at a cut *is* signed by the parent, handled by the cut check.
        if rrset.rtype() == RrType::Ns && rrset.name() != zone.origin() {
            continue;
        }
        let signers = if rrset.rtype() == RrType::Dnskey {
            &set.ksk_signers
        } else {
            &set.zsk_signers
        };
        for (key, tag) in signers {
            let rrsig = sign_rrset(&rrset, key, *tag, &set.zone, config);
            zone.add(rrsig).map_err(DnssecError::Wire)?;
        }
    }
    Ok(())
}

/// An owner name is authoritative unless it lies strictly below a zone cut.
/// The cut owner itself is authoritative for DS/NSEC (and its NS set is
/// excluded separately).
fn is_authoritative(name: &Name, origin: &Name, cuts: &[Name]) -> bool {
    debug_assert!(name.is_subdomain_of(origin));
    !cuts.iter().any(|cut| name.is_strict_subdomain_of(cut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ZoneKeys;
    use dsec_crypto::Algorithm;
    use dsec_wire::SoaRdata;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn test_zone() -> Zone {
        let mut z = Zone::new(name("example.com"));
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Soa(SoaRdata {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        ))
        .unwrap();
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Ns(name("ns1.example.com")),
        ))
        .unwrap();
        z.add(Record::new(
            name("www.example.com"),
            300,
            RData::A("192.0.2.10".parse().unwrap()),
        ))
        .unwrap();
        z
    }

    fn test_keys() -> ZoneKeys {
        let mut rng = StdRng::seed_from_u64(2);
        ZoneKeys::generate_default(&mut rng, name("example.com"), Algorithm::RsaSha256).unwrap()
    }

    fn config() -> SignerConfig {
        SignerConfig::valid_from(1_450_000_000, 30 * 86400)
    }

    #[test]
    fn signing_adds_dnskey_rrsig_nsec() {
        let mut zone = test_zone();
        sign_zone(&mut zone, &test_keys(), &config()).unwrap();
        assert!(zone.rrset(&name("example.com"), RrType::Dnskey).is_some());
        assert!(zone.rrset(&name("example.com"), RrType::Rrsig).is_some());
        assert!(zone.rrset(&name("example.com"), RrType::Nsec).is_some());
        assert!(zone
            .rrset(&name("www.example.com"), RrType::Rrsig)
            .is_some());
        assert!(zone.rrset(&name("www.example.com"), RrType::Nsec).is_some());
    }

    #[test]
    fn every_authoritative_rrset_has_a_signature() {
        let mut zone = test_zone();
        sign_zone(&mut zone, &test_keys(), &config()).unwrap();
        for rrset in zone.rrsets().collect::<Vec<_>>() {
            if rrset.rtype() == RrType::Rrsig {
                continue;
            }
            let sigs = zone
                .rrset(rrset.name(), RrType::Rrsig)
                .expect("rrsigs present");
            let covered = sigs
                .records()
                .iter()
                .any(|r| matches!(&r.rdata, RData::Rrsig(s) if s.type_covered == rrset.rtype()));
            assert!(
                covered,
                "no RRSIG covering {} {}",
                rrset.name(),
                rrset.rtype()
            );
        }
    }

    #[test]
    fn dnskey_signed_by_ksk_others_by_zsk() {
        let mut zone = test_zone();
        let keys = test_keys();
        sign_zone(&mut zone, &keys, &config()).unwrap();
        let sigs = zone.rrset(&name("example.com"), RrType::Rrsig).unwrap();
        for record in sigs.records() {
            let RData::Rrsig(sig) = &record.rdata else {
                panic!()
            };
            if sig.type_covered == RrType::Dnskey {
                assert_eq!(sig.key_tag, keys.ksk_tag());
            } else {
                assert_eq!(sig.key_tag, keys.zsk_tag());
            }
        }
    }

    #[test]
    fn rrsig_fields_are_consistent() {
        let mut zone = test_zone();
        let cfg = config();
        sign_zone(&mut zone, &test_keys(), &cfg).unwrap();
        let sigs = zone.rrset(&name("www.example.com"), RrType::Rrsig).unwrap();
        let RData::Rrsig(sig) = &sigs.records()[0].rdata else {
            panic!()
        };
        assert_eq!(sig.labels, 3);
        assert_eq!(sig.original_ttl, 300);
        assert_eq!(sig.inception, cfg.inception);
        assert_eq!(sig.expiration, cfg.expiration);
        assert_eq!(sig.signer_name, name("example.com"));
    }

    #[test]
    fn delegations_and_glue_are_not_signed() {
        let mut zone = test_zone();
        // A delegation to a child zone with glue.
        zone.add(Record::new(
            name("child.example.com"),
            3600,
            RData::Ns(name("ns1.child.example.com")),
        ))
        .unwrap();
        zone.add(Record::new(
            name("ns1.child.example.com"),
            3600,
            RData::A("192.0.2.99".parse().unwrap()),
        ))
        .unwrap();
        sign_zone(&mut zone, &test_keys(), &config()).unwrap();
        // The cut owner may carry RRSIGs (over its NSEC/DS) but never over
        // the delegation NS set itself; glue is entirely unsigned.
        if let Some(sigs) = zone.rrset(&name("child.example.com"), RrType::Rrsig) {
            assert!(!sigs
                .records()
                .iter()
                .any(|r| matches!(&r.rdata, RData::Rrsig(s) if s.type_covered == RrType::Ns)));
        }
        assert!(zone
            .rrset(&name("ns1.child.example.com"), RrType::Rrsig)
            .is_none());
        // And no NSEC for glue.
        assert!(zone
            .rrset(&name("ns1.child.example.com"), RrType::Nsec)
            .is_none());
    }

    #[test]
    fn ds_at_delegation_is_signed() {
        let mut zone = test_zone();
        zone.add(Record::new(
            name("child.example.com"),
            3600,
            RData::Ns(name("ns1.child.example.com")),
        ))
        .unwrap();
        zone.add(Record::new(
            name("child.example.com"),
            3600,
            RData::Ds(dsec_wire::DsRdata {
                key_tag: 1,
                algorithm: 8,
                digest_type: 2,
                digest: vec![0; 32],
            }),
        ))
        .unwrap();
        sign_zone(&mut zone, &test_keys(), &config()).unwrap();
        let sigs = zone
            .rrset(&name("child.example.com"), RrType::Rrsig)
            .unwrap();
        assert!(sigs
            .records()
            .iter()
            .any(|r| matches!(&r.rdata, RData::Rrsig(s) if s.type_covered == RrType::Ds)));
        assert!(!sigs
            .records()
            .iter()
            .any(|r| matches!(&r.rdata, RData::Rrsig(s) if s.type_covered == RrType::Ns)));
    }

    #[test]
    fn nsec_chain_is_circular_and_ordered() {
        let mut zone = test_zone();
        zone.add(Record::new(
            name("mail.example.com"),
            300,
            RData::A("192.0.2.20".parse().unwrap()),
        ))
        .unwrap();
        sign_zone(&mut zone, &test_keys(), &config()).unwrap();
        // Walk the chain from the apex; it must return to the apex after
        // visiting every authoritative name exactly once.
        let mut visited = Vec::new();
        let mut cursor = name("example.com");
        loop {
            let nsec = zone.rrset(&cursor, RrType::Nsec).expect("nsec exists");
            let RData::Nsec { next, .. } = &nsec.records()[0].rdata else {
                panic!()
            };
            visited.push(cursor.clone());
            cursor = next.clone();
            if cursor == name("example.com") {
                break;
            }
            assert!(visited.len() <= 10, "nsec chain does not terminate");
        }
        assert_eq!(visited.len(), 3); // apex, mail, www
    }

    #[test]
    fn nsec_bitmap_includes_rrsig_and_nsec() {
        let mut zone = test_zone();
        sign_zone(&mut zone, &test_keys(), &config()).unwrap();
        let nsec = zone.rrset(&name("www.example.com"), RrType::Nsec).unwrap();
        let RData::Nsec { types, .. } = &nsec.records()[0].rdata else {
            panic!()
        };
        assert!(types.contains(RrType::A));
        assert!(types.contains(RrType::Rrsig));
        assert!(types.contains(RrType::Nsec));
        assert!(!types.contains(RrType::Dnskey));
    }

    #[test]
    fn resigning_is_idempotent_in_structure() {
        let mut zone = test_zone();
        let keys = test_keys();
        sign_zone(&mut zone, &keys, &config()).unwrap();
        let first_len = zone.len();
        sign_zone(&mut zone, &keys, &config()).unwrap();
        assert_eq!(
            zone.len(),
            first_len,
            "re-signing must not accumulate records"
        );
    }

    #[test]
    fn wrong_zone_keys_are_rejected() {
        let mut zone = test_zone();
        let mut rng = StdRng::seed_from_u64(3);
        let keys =
            ZoneKeys::generate_default(&mut rng, name("other.com"), Algorithm::RsaSha256).unwrap();
        assert!(matches!(
            sign_zone(&mut zone, &keys, &config()),
            Err(DnssecError::KeyZoneMismatch { .. })
        ));
    }

    #[test]
    fn nsec3_chain_replaces_nsec() {
        let mut zone = test_zone();
        let keys = test_keys();
        let cfg = config().with_nsec3(crate::nsec3::Nsec3Config::new(10, vec![0xAA, 0xBB]));
        sign_zone(&mut zone, &keys, &cfg).unwrap();
        // No NSEC anywhere; NSEC3PARAM at the apex.
        assert!(zone.rrset(&name("example.com"), RrType::Nsec).is_none());
        assert!(zone
            .rrset(&name("example.com"), RrType::Nsec3Param)
            .is_some());
        // One NSEC3 per authoritative owner (apex + www), at hashed names.
        let nsec3s: Vec<_> = zone
            .rrsets()
            .filter(|set| set.rtype() == RrType::Nsec3)
            .collect();
        assert_eq!(nsec3s.len(), 2);
        for set in &nsec3s {
            // Hashed owner: 32-char base32hex label directly under apex.
            assert_eq!(set.name().label_count(), 3);
            assert_eq!(set.name().labels().next().unwrap().len(), 32);
            // Each NSEC3 RRset is signed.
            let sigs = zone.rrset(set.name(), RrType::Rrsig).expect("nsec3 signed");
            assert!(sigs
                .records()
                .iter()
                .any(|r| matches!(&r.rdata, RData::Rrsig(s) if s.type_covered == RrType::Nsec3)));
        }
        // The chain is circular over the two hashes.
        let hashes: Vec<Vec<u8>> = nsec3s
            .iter()
            .map(|set| match &set.records()[0].rdata {
                RData::Nsec3(n) => n.next_hashed.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_ne!(hashes[0], hashes[1]);
        // The apex NSEC3 carries the hashed owner of www and vice versa;
        // verify via the nsec3 hash function.
        let salt = [0xAA, 0xBB];
        let apex_hash = crate::nsec3::nsec3_hash(&name("example.com"), &salt, 10);
        let www_hash = crate::nsec3::nsec3_hash(&name("www.example.com"), &salt, 10);
        assert!(hashes.contains(&apex_hash.to_vec()));
        assert!(hashes.contains(&www_hash.to_vec()));
    }

    #[test]
    fn nsec3_zone_fully_validates() {
        let mut zone = test_zone();
        let keys = test_keys();
        let cfg = config().with_nsec3(crate::nsec3::Nsec3Config::new(5, vec![0x01]));
        sign_zone(&mut zone, &keys, &cfg).unwrap();
        let dnskeys = [keys.ksk_dnskey(), keys.zsk_dnskey()];
        for rrset in zone.rrsets().collect::<Vec<_>>() {
            if rrset.rtype() == RrType::Rrsig {
                continue;
            }
            let sigs = crate::validate::covering_rrsigs(
                zone.rrset(rrset.name(), RrType::Rrsig).as_ref(),
                rrset.rtype(),
            );
            assert!(
                crate::validate::validate_rrset(&rrset, &sigs, &dnskeys, &keys.zone, 1_450_000_500)
                    .is_ok(),
                "unvalidatable {} {}",
                rrset.name(),
                rrset.rtype()
            );
        }
    }

    fn second_keys() -> ZoneKeys {
        let mut rng = StdRng::seed_from_u64(7);
        ZoneKeys::generate_default(&mut rng, name("example.com"), Algorithm::RsaSha256).unwrap()
    }

    /// The full chain check a validating resolver performs: DS → DNSKEY
    /// RRset → answer RRSIG, at `now`.
    fn chain_validates(zone: &Zone, ds: &dsec_wire::DsRdata, now: u32) -> bool {
        let apex = name("example.com");
        let dnskey_set = zone.rrset(&apex, RrType::Dnskey).unwrap();
        let dnskey_sigs = crate::validate::covering_rrsigs(
            zone.rrset(&apex, RrType::Rrsig).as_ref(),
            RrType::Dnskey,
        );
        let Ok(trusted) = crate::validate::authenticate_dnskeys(
            &apex,
            &dnskey_set,
            &dnskey_sigs,
            std::slice::from_ref(ds),
            now,
        ) else {
            return false;
        };
        let www = name("www.example.com");
        let a_set = zone.rrset(&www, RrType::A).unwrap();
        let a_sigs =
            crate::validate::covering_rrsigs(zone.rrset(&www, RrType::Rrsig).as_ref(), RrType::A);
        crate::validate::validate_rrset(&a_set, &a_sigs, &trusted, &apex, now).is_ok()
    }

    #[test]
    fn double_signature_validates_under_either_ds() {
        let old = test_keys();
        let new = second_keys();
        let mut zone = test_zone();
        let set = SigningSet::double(&old, &new).unwrap();
        sign_zone_set(&mut zone, &set, &config()).unwrap();
        // Four DNSKEYs served, and the chain closes under the old DS *and*
        // the new DS — the whole point of the double-signature window.
        assert_eq!(
            zone.rrset(&name("example.com"), RrType::Dnskey)
                .unwrap()
                .records()
                .len(),
            4
        );
        let now = 1_450_000_500;
        let old_ds = old.ds(dsec_crypto::DigestType::Sha256);
        let new_ds = new.ds(dsec_crypto::DigestType::Sha256);
        assert!(
            chain_validates(&zone, &old_ds, now),
            "old DS must still validate"
        );
        assert!(
            chain_validates(&zone, &new_ds, now),
            "new DS must already validate"
        );
    }

    #[test]
    fn single_set_rejects_the_other_generations_ds() {
        let old = test_keys();
        let new = second_keys();
        let mut zone = test_zone();
        sign_zone(&mut zone, &old, &config()).unwrap();
        let now = 1_450_000_500;
        assert!(chain_validates(
            &zone,
            &old.ds(dsec_crypto::DigestType::Sha256),
            now
        ));
        assert!(
            !chain_validates(&zone, &new.ds(dsec_crypto::DigestType::Sha256), now),
            "a DS swapped before the zone serves the new keys must go bogus"
        );
    }

    #[test]
    fn prepublish_publishes_incoming_zsk_without_signing_with_it() {
        let active = test_keys();
        let incoming = second_keys();
        let mut zone = test_zone();
        let set = SigningSet::prepublish(&active, &incoming).unwrap();
        sign_zone_set(&mut zone, &set, &config()).unwrap();
        let dnskeys = zone.rrset(&name("example.com"), RrType::Dnskey).unwrap();
        assert_eq!(dnskeys.records().len(), 3, "active pair + incoming ZSK");
        // Only the active keys produce signatures.
        for rrset in zone.rrsets().collect::<Vec<_>>() {
            if rrset.rtype() != RrType::Rrsig {
                continue;
            }
            for r in rrset.records() {
                let RData::Rrsig(sig) = &r.rdata else {
                    panic!()
                };
                assert!(
                    sig.key_tag == active.ksk_tag() || sig.key_tag == active.zsk_tag(),
                    "incoming ZSK must not sign during pre-publish"
                );
            }
        }
        // And the chain still closes under the unchanged DS.
        assert!(chain_validates(
            &zone,
            &active.ds(dsec_crypto::DigestType::Sha256),
            1_450_000_500
        ));
    }

    #[test]
    fn mixed_zone_sets_reject_construction() {
        let a = test_keys();
        let mut rng = StdRng::seed_from_u64(9);
        let b =
            ZoneKeys::generate_default(&mut rng, name("other.com"), Algorithm::RsaSha256).unwrap();
        assert!(matches!(
            SigningSet::double(&a, &b),
            Err(DnssecError::KeyZoneMismatch { .. })
        ));
        assert!(matches!(
            SigningSet::prepublish(&a, &b),
            Err(DnssecError::KeyZoneMismatch { .. })
        ));
    }

    #[test]
    fn expired_window_fails_the_chain() {
        let keys = test_keys();
        let mut zone = test_zone();
        let cfg = SignerConfig::valid_from(1_450_000_000, 10 * 86400);
        sign_zone(&mut zone, &keys, &cfg).unwrap();
        let ds = keys.ds(dsec_crypto::DigestType::Sha256);
        assert!(chain_validates(&zone, &ds, cfg.expiration - 1));
        assert!(
            !chain_validates(&zone, &ds, cfg.expiration + 1),
            "a stalled signer's zone must go bogus once RRSIGs expire"
        );
    }

    #[test]
    fn nsec_can_be_disabled() {
        let mut zone = test_zone();
        let mut cfg = config();
        cfg.nsec = false;
        sign_zone(&mut zone, &test_keys(), &cfg).unwrap();
        assert!(zone.rrset(&name("example.com"), RrType::Nsec).is_none());
    }
}
