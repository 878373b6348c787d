//! Zone key management: KSK/ZSK pairs, DNSKEY records, and DS generation.
//!
//! Follows the split-key convention the paper describes (§2): the KSK signs
//! the DNSKEY RRset and is referenced by the parent's DS record; the ZSK
//! signs everything else.

use rand::RngCore;

use dsec_crypto::{Algorithm, DigestType, SigningKey};
use dsec_wire::{DnskeyRdata, DsRdata, Name, RData, Record};

use crate::DnssecError;

/// Default RSA modulus size for simulation keys (fast; not secure).
pub const DEFAULT_KEY_BITS: usize = 512;

/// The signing keys of one zone: a KSK and a ZSK.
#[derive(Debug, Clone)]
pub struct ZoneKeys {
    /// Zone these keys sign (owner of the DNSKEY RRset).
    pub zone: Name,
    /// Key-signing key (SEP bit set; hashed into the parent DS).
    pub ksk: SigningKey,
    /// Zone-signing key.
    pub zsk: SigningKey,
}

impl ZoneKeys {
    /// Generates a fresh KSK/ZSK pair for `zone`.
    pub fn generate(
        rng: &mut dyn RngCore,
        zone: Name,
        algorithm: Algorithm,
        bits: usize,
    ) -> Result<Self, DnssecError> {
        Ok(ZoneKeys {
            zone,
            ksk: SigningKey::generate(rng, algorithm, bits)?,
            zsk: SigningKey::generate(rng, algorithm, bits)?,
        })
    }

    /// Generates with the simulation default key size.
    pub fn generate_default(
        rng: &mut dyn RngCore,
        zone: Name,
        algorithm: Algorithm,
    ) -> Result<Self, DnssecError> {
        Self::generate(rng, zone, algorithm, DEFAULT_KEY_BITS)
    }

    /// The KSK's DNSKEY RDATA.
    pub fn ksk_dnskey(&self) -> DnskeyRdata {
        DnskeyRdata {
            flags: DnskeyRdata::ksk_flags(),
            protocol: 3,
            algorithm: self.ksk.algorithm.number(),
            public_key: self.ksk.public_key_wire(),
        }
    }

    /// The ZSK's DNSKEY RDATA.
    pub fn zsk_dnskey(&self) -> DnskeyRdata {
        DnskeyRdata {
            flags: DnskeyRdata::zsk_flags(),
            protocol: 3,
            algorithm: self.zsk.algorithm.number(),
            public_key: self.zsk.public_key_wire(),
        }
    }

    /// The two DNSKEY records for the zone apex.
    pub fn dnskey_records(&self, ttl: u32) -> Vec<Record> {
        vec![
            Record::new(self.zone.clone(), ttl, RData::Dnskey(self.ksk_dnskey())),
            Record::new(self.zone.clone(), ttl, RData::Dnskey(self.zsk_dnskey())),
        ]
    }

    /// The DS RDATA for the KSK — what the registrar must upload to the
    /// parent registry to complete the chain of trust.
    pub fn ds(&self, digest_type: DigestType) -> DsRdata {
        make_ds(&self.zone, &self.ksk_dnskey(), digest_type)
            .expect("supported digest type for own DS")
    }

    /// The key tag of the KSK (as referenced by DS and RRSIG records).
    pub fn ksk_tag(&self) -> u16 {
        self.ksk_dnskey().key_tag()
    }

    /// The key tag of the ZSK.
    pub fn zsk_tag(&self) -> u16 {
        self.zsk_dnskey().key_tag()
    }
}

/// Computes the DS RDATA for (`owner`, `dnskey`) with `digest_type`
/// (RFC 4034 §5.1.4: digest over canonical owner name ‖ DNSKEY RDATA).
pub fn make_ds(owner: &Name, dnskey: &DnskeyRdata, digest_type: DigestType) -> Option<DsRdata> {
    let mut material = owner.to_canonical_wire();
    material.extend_from_slice(&dnskey.to_wire());
    let digest = digest_type.digest(&material)?;
    Some(DsRdata {
        key_tag: dnskey.key_tag(),
        algorithm: dnskey.algorithm,
        digest_type: digest_type.number(),
        digest,
    })
}

/// Checks whether `ds` is a correct digest of (`owner`, `dnskey`).
///
/// Returns `None` when the digest type is unsupported (the validator maps
/// that to insecure rather than bogus, per RFC 4035 §5.2).
pub fn ds_matches(owner: &Name, dnskey: &DnskeyRdata, ds: &DsRdata) -> Option<bool> {
    let digest_type = DigestType::from_number(ds.digest_type);
    if !digest_type.is_supported() {
        return None;
    }
    let expected = make_ds(owner, dnskey, digest_type)?;
    Some(
        expected.key_tag == ds.key_tag
            && expected.digest == ds.digest
            && dnskey.algorithm == ds.algorithm,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys() -> ZoneKeys {
        let mut rng = StdRng::seed_from_u64(1);
        ZoneKeys::generate_default(
            &mut rng,
            Name::parse("example.com").unwrap(),
            Algorithm::RsaSha256,
        )
        .unwrap()
    }

    #[test]
    fn ksk_and_zsk_have_conventional_flags() {
        let k = keys();
        assert!(k.ksk_dnskey().is_ksk());
        assert!(k.ksk_dnskey().is_zone_key());
        assert!(!k.zsk_dnskey().is_ksk());
        assert!(k.zsk_dnskey().is_zone_key());
        assert_eq!(k.ksk_dnskey().flags, 257);
        assert_eq!(k.zsk_dnskey().flags, 256);
    }

    #[test]
    fn dnskey_records_live_at_apex() {
        let k = keys();
        let records = k.dnskey_records(3600);
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.name, k.zone);
            assert_eq!(r.ttl, 3600);
        }
    }

    #[test]
    fn ds_matches_own_ksk() {
        let k = keys();
        let ds = k.ds(DigestType::Sha256);
        assert_eq!(ds.key_tag, k.ksk_tag());
        assert_eq!(ds_matches(&k.zone, &k.ksk_dnskey(), &ds), Some(true));
        // The ZSK does not match the KSK's DS.
        assert_eq!(ds_matches(&k.zone, &k.zsk_dnskey(), &ds), Some(false));
    }

    #[test]
    fn ds_is_owner_sensitive() {
        let k = keys();
        let ds = k.ds(DigestType::Sha256);
        let other = Name::parse("other.com").unwrap();
        assert_eq!(ds_matches(&other, &k.ksk_dnskey(), &ds), Some(false));
    }

    #[test]
    fn ds_digest_types_differ() {
        let k = keys();
        let sha1 = k.ds(DigestType::Sha1);
        let sha256 = k.ds(DigestType::Sha256);
        assert_ne!(sha1.digest, sha256.digest);
        assert_eq!(sha1.digest.len(), 20);
        assert_eq!(sha256.digest.len(), 32);
        assert_eq!(sha1.key_tag, sha256.key_tag);
    }

    #[test]
    fn unsupported_digest_type_is_none() {
        let k = keys();
        let mut ds = k.ds(DigestType::Sha256);
        ds.digest_type = 99;
        assert_eq!(ds_matches(&k.zone, &k.ksk_dnskey(), &ds), None);
    }

    #[test]
    fn corrupted_ds_digest_fails() {
        let k = keys();
        let mut ds = k.ds(DigestType::Sha256);
        ds.digest[0] ^= 0xFF;
        assert_eq!(ds_matches(&k.zone, &k.ksk_dnskey(), &ds), Some(false));
    }

    #[test]
    fn ds_owner_case_insensitive() {
        let k = keys();
        let ds = k.ds(DigestType::Sha256);
        let upper = Name::parse("EXAMPLE.COM").unwrap();
        assert_eq!(ds_matches(&upper, &k.ksk_dnskey(), &ds), Some(true));
    }

    #[test]
    fn key_tags_usually_differ() {
        let k = keys();
        assert_ne!(k.ksk_tag(), k.zsk_tag());
    }
}
