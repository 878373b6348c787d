//! # dsec-dnssec — the DNSSEC engine
//!
//! Everything between raw records and the measurement layer:
//!
//! - [`keys`]: KSK/ZSK management and DS generation;
//! - [`signer`]: zone signing with RRSIG + NSEC (RFC 4035 §2);
//! - [`validate`]: RRSIG verification and DS↔DNSKEY chain links
//!   (RFC 4035 §5) with typed failure reasons;
//! - [`deployment`]: the paper's not/partial/full/misconfigured taxonomy;
//! - [`cds`]: CDS/CDNSKEY automated delegation maintenance
//!   (RFC 7344 / RFC 8078);
//! - [`ADD_HOLD_DOWN_DAYS`]: the RFC 5011 add hold-down a trust-anchor
//!   follower applies (the follower itself is the ecosystem's
//!   `World::trust_anchor` over an `AnchorRollPlan`).
//!
//! Signatures are real RSA over real canonical RRset bytes (via
//! `dsec-crypto`), so a "misconfigured" domain in the simulation is a
//! domain whose chain genuinely fails cryptographic validation.

#![warn(missing_docs)]

pub mod cds;
pub mod deployment;
pub mod keys;
pub mod nsec3;
pub mod signer;
pub mod validate;

pub use cds::{process_scan, CdsAction, CdsError, CdsScan};
pub use deployment::{classify, DeploymentStatus, Misconfiguration, Observation};
pub use keys::{ds_matches, make_ds, ZoneKeys, DEFAULT_KEY_BITS};
pub use nsec3::{hashed_owner_name, nsec3_hash, Nsec3Config};
pub use signer::{sign_rrset, sign_zone, sign_zone_set, SignerConfig, SigningSet};
pub use validate::{authenticate_dnskeys, validate_rrset, ValidationError};

/// RFC 5011 `add_hold_down_time`, in simulation days: how long a
/// follower keeps a newly published root key in AddPend before trusting
/// it. The RFC requires 30 days minimum; the simulation uses exactly
/// that.
pub const ADD_HOLD_DOWN_DAYS: u32 = 30;

/// Errors from key management and signing.
#[derive(Debug)]
pub enum DnssecError {
    /// The crypto layer rejected the operation.
    Crypto(dsec_crypto::CryptoError),
    /// The wire layer rejected a constructed record.
    Wire(dsec_wire::WireError),
    /// Keys for one zone were used to sign another.
    KeyZoneMismatch {
        /// Zone the keys belong to.
        key_zone: String,
        /// Zone being signed.
        zone: String,
    },
}

impl From<dsec_crypto::CryptoError> for DnssecError {
    fn from(e: dsec_crypto::CryptoError) -> Self {
        DnssecError::Crypto(e)
    }
}

impl From<dsec_wire::WireError> for DnssecError {
    fn from(e: dsec_wire::WireError) -> Self {
        DnssecError::Wire(e)
    }
}

impl std::fmt::Display for DnssecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnssecError::Crypto(e) => write!(f, "crypto error: {e}"),
            DnssecError::Wire(e) => write!(f, "wire error: {e}"),
            DnssecError::KeyZoneMismatch { key_zone, zone } => {
                write!(f, "keys for {key_zone} cannot sign zone {zone}")
            }
        }
    }
}

impl std::error::Error for DnssecError {}

#[cfg(test)]
mod proptests {
    use crate::keys::ZoneKeys;
    use crate::signer::{sign_rrset, sign_zone, SignerConfig};
    use crate::validate::validate_rrset;
    use dsec_crypto::Algorithm;
    use dsec_wire::{Name, RData, Record, RrSet, RrType, Zone};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    const NOW: u32 = 1_450_000_000;

    /// Key generation is the slow part; share one pair across cases.
    fn keys() -> &'static ZoneKeys {
        static KEYS: OnceLock<ZoneKeys> = OnceLock::new();
        KEYS.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(2024);
            ZoneKeys::generate_default(
                &mut rng,
                Name::parse("example.com").unwrap(),
                Algorithm::RsaSha256,
            )
            .unwrap()
        })
    }

    fn label() -> impl Strategy<Value = String> {
        proptest::string::string_regex("[a-z0-9]{1,12}").unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The signer/validator round-trip holds for arbitrary RRsets:
        /// whatever we sign validates, and any single-byte mutation of the
        /// RDATA no longer validates.
        #[test]
        fn sign_then_validate_round_trip(l in label(), ip in any::<[u8; 4]>(), ttl in 1u32..86400) {
            let k = keys();
            let owner = k.zone.child(&l).unwrap();
            let set = RrSet::new(vec![Record::new(owner, ttl, RData::A(ip.into()))]).unwrap();
            let rec = sign_rrset(&set, &k.zsk, k.zsk_tag(), &k.zone, &SignerConfig::valid_from(NOW, 86400));
            let RData::Rrsig(sig) = rec.rdata else { unreachable!() };
            prop_assert!(validate_rrset(&set, std::slice::from_ref(&sig), &[k.zsk_dnskey()], &k.zone, NOW).is_ok());

            // Mutate one byte of the address — the signature must break.
            let mut bad_ip = ip;
            bad_ip[0] ^= 1;
            let bad = RrSet::new(vec![Record::new(set.name().clone(), ttl, RData::A(bad_ip.into()))]).unwrap();
            prop_assert!(validate_rrset(&bad, &[sig], &[k.zsk_dnskey()], &k.zone, NOW).is_err());
        }

        /// Signing a whole zone leaves every authoritative RRset verifiable
        /// under the published DNSKEYs.
        #[test]
        fn signed_zones_fully_validate(labels in proptest::collection::hash_set(label(), 1..6)) {
            let k = keys();
            let mut zone = Zone::new(k.zone.clone());
            zone.add(Record::new(k.zone.clone(), 300, RData::Ns(Name::parse("ns1.op.net").unwrap()))).unwrap();
            for l in &labels {
                let owner = k.zone.child(l).unwrap();
                zone.add(Record::new(owner, 300, RData::A("192.0.2.7".parse().unwrap()))).unwrap();
            }
            sign_zone(&mut zone, k, &SignerConfig::valid_from(NOW, 86400)).unwrap();
            let dnskeys = [k.ksk_dnskey(), k.zsk_dnskey()];
            for rrset in zone.rrsets().collect::<Vec<_>>() {
                if rrset.rtype() == RrType::Rrsig {
                    continue;
                }
                let sigs = crate::validate::covering_rrsigs(
                    zone.rrset(rrset.name(), RrType::Rrsig).as_ref(),
                    rrset.rtype(),
                );
                prop_assert!(
                    validate_rrset(&rrset, &sigs, &dnskeys, &k.zone, NOW).is_ok(),
                    "unvalidatable {} {}", rrset.name(), rrset.rtype()
                );
            }
        }
    }
}
