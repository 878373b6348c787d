//! Typed RDATA for every record type the study needs (RFC 1035, RFC 4034,
//! RFC 7344), plus an opaque fallback for everything else.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use dsec_crypto::base64;

use crate::name::Name;
use crate::rrtype::{RrType, TypeBitmap};
use crate::wire::{WireReader, WireWriter};
use crate::WireError;

/// DNSKEY flags bit for "Zone Key" (bit 7 of the flags field).
pub const DNSKEY_FLAG_ZONE: u16 = 0x0100;
/// DNSKEY flags bit for "Secure Entry Point" (KSK marker, bit 15).
pub const DNSKEY_FLAG_SEP: u16 = 0x0001;

/// DNSKEY RDATA (RFC 4034 §2). Also used verbatim for CDNSKEY (RFC 7344).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DnskeyRdata {
    /// Flags: zone-key bit 0x0100; SEP (KSK) bit 0x0001.
    pub flags: u16,
    /// Protocol; must be 3 for DNSSEC.
    pub protocol: u8,
    /// IANA algorithm number.
    pub algorithm: u8,
    /// Public key material (RFC 3110 format for RSA).
    pub public_key: Vec<u8>,
}

impl DnskeyRdata {
    /// Conventional ZSK flags (zone key, no SEP).
    pub fn zsk_flags() -> u16 {
        DNSKEY_FLAG_ZONE
    }

    /// Conventional KSK flags (zone key + SEP).
    pub fn ksk_flags() -> u16 {
        DNSKEY_FLAG_ZONE | DNSKEY_FLAG_SEP
    }

    /// True if the SEP (KSK) bit is set.
    pub fn is_ksk(&self) -> bool {
        self.flags & DNSKEY_FLAG_SEP != 0
    }

    /// True if the zone-key bit is set (required for validation use).
    pub fn is_zone_key(&self) -> bool {
        self.flags & DNSKEY_FLAG_ZONE != 0
    }

    /// RDATA wire encoding (also the input to the key-tag computation).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.public_key.len());
        out.extend_from_slice(&self.flags.to_be_bytes());
        out.push(self.protocol);
        out.push(self.algorithm);
        out.extend_from_slice(&self.public_key);
        out
    }

    /// RFC 4034 Appendix B key tag of this key.
    pub fn key_tag(&self) -> u16 {
        dsec_crypto::key_tag(&self.to_wire())
    }
}

/// DS RDATA (RFC 4034 §5). Also used verbatim for CDS (RFC 7344).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DsRdata {
    /// Key tag of the referenced DNSKEY.
    pub key_tag: u16,
    /// Algorithm number of the referenced DNSKEY.
    pub algorithm: u8,
    /// Digest type number.
    pub digest_type: u8,
    /// The digest itself.
    pub digest: Vec<u8>,
}

/// RRSIG RDATA (RFC 4034 §3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RrsigRdata {
    /// The type of the RRset this signature covers.
    pub type_covered: RrType,
    /// Algorithm of the signing DNSKEY.
    pub algorithm: u8,
    /// Label count of the owner name (wildcard detection).
    pub labels: u8,
    /// The original TTL of the covered RRset.
    pub original_ttl: u32,
    /// Expiration time (seconds since the UNIX epoch).
    pub expiration: u32,
    /// Inception time (seconds since the UNIX epoch).
    pub inception: u32,
    /// Key tag of the signing DNSKEY.
    pub key_tag: u16,
    /// Owner of the signing DNSKEY.
    pub signer_name: Name,
    /// The signature bytes.
    pub signature: Vec<u8>,
}

impl RrsigRdata {
    /// The RDATA prefix covered by the signature (everything up to and
    /// excluding the signature field), with the signer name canonicalized.
    pub fn signed_prefix(&self) -> Vec<u8> {
        let mut w = WireWriter::uncompressed();
        w.put_u16(self.type_covered.number());
        w.put_u8(self.algorithm);
        w.put_u8(self.labels);
        w.put_u32(self.original_ttl);
        w.put_u32(self.expiration);
        w.put_u32(self.inception);
        w.put_u16(self.key_tag);
        w.put_bytes(&self.signer_name.to_canonical_wire());
        w.into_bytes()
    }
}

/// NSEC3 RDATA (RFC 5155 §3). The owner name carries the base32hex hash;
/// the RDATA carries the parameters, the next hash, and the type bitmap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Nsec3Rdata {
    /// Hash algorithm (1 = SHA-1, the only defined value).
    pub hash_algorithm: u8,
    /// Flags (bit 0 = opt-out).
    pub flags: u8,
    /// Additional hash iterations.
    pub iterations: u16,
    /// Salt (empty = no salt).
    pub salt: Vec<u8>,
    /// Hash of the next owner in hash order (raw bytes, not base32hex).
    pub next_hashed: Vec<u8>,
    /// Types present at the original owner.
    pub types: TypeBitmap,
}

/// NSEC3PARAM RDATA (RFC 5155 §4): the zone-apex advertisement of the
/// NSEC3 parameters in use.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Nsec3ParamRdata {
    /// Hash algorithm (1 = SHA-1).
    pub hash_algorithm: u8,
    /// Flags (must be 0 here).
    pub flags: u8,
    /// Additional hash iterations.
    pub iterations: u16,
    /// Salt.
    pub salt: Vec<u8>,
}

/// SOA RDATA (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SoaRdata {
    /// Primary nameserver.
    pub mname: Name,
    /// Responsible mailbox (encoded as a name).
    pub rname: Name,
    /// Zone serial number.
    pub serial: u32,
    /// Secondary refresh interval (seconds).
    pub refresh: u32,
    /// Retry interval (seconds).
    pub retry: u32,
    /// Expiry (seconds).
    pub expire: u32,
    /// Negative-caching TTL (seconds).
    pub minimum: u32,
}

/// Typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Authoritative nameserver.
    Ns(Name),
    /// Alias.
    Cname(Name),
    /// Start of authority.
    Soa(SoaRdata),
    /// Mail exchange.
    Mx {
        /// Preference (lower wins).
        preference: u16,
        /// Exchange host.
        exchange: Name,
    },
    /// Text strings (each ≤ 255 bytes).
    Txt(Vec<Vec<u8>>),
    /// DNSSEC public key.
    Dnskey(DnskeyRdata),
    /// Delegation signer.
    Ds(DsRdata),
    /// Signature.
    Rrsig(RrsigRdata),
    /// Authenticated denial.
    Nsec {
        /// Next owner name in canonical order.
        next: Name,
        /// Types present at this owner.
        types: TypeBitmap,
    },
    /// Hashed authenticated denial (RFC 5155).
    Nsec3(Nsec3Rdata),
    /// NSEC3 parameters at the apex (RFC 5155).
    Nsec3Param(Nsec3ParamRdata),
    /// Child DS (RFC 7344): same wire form as DS.
    Cds(DsRdata),
    /// Child DNSKEY (RFC 7344): same wire form as DNSKEY.
    Cdnskey(DnskeyRdata),
    /// Opaque RDATA for types this library does not model.
    Unknown {
        /// The record type.
        rtype: RrType,
        /// Raw RDATA bytes.
        data: Vec<u8>,
    },
}

impl RData {
    /// The record type this RDATA belongs to.
    pub fn rtype(&self) -> RrType {
        match self {
            RData::A(_) => RrType::A,
            RData::Aaaa(_) => RrType::Aaaa,
            RData::Ns(_) => RrType::Ns,
            RData::Cname(_) => RrType::Cname,
            RData::Soa(_) => RrType::Soa,
            RData::Mx { .. } => RrType::Mx,
            RData::Txt(_) => RrType::Txt,
            RData::Dnskey(_) => RrType::Dnskey,
            RData::Ds(_) => RrType::Ds,
            RData::Rrsig(_) => RrType::Rrsig,
            RData::Nsec { .. } => RrType::Nsec,
            RData::Nsec3(_) => RrType::Nsec3,
            RData::Nsec3Param(_) => RrType::Nsec3Param,
            RData::Cds(_) => RrType::Cds,
            RData::Cdnskey(_) => RrType::Cdnskey,
            RData::Unknown { rtype, .. } => *rtype,
        }
    }

    /// Encodes the RDATA into `w`. Embedded names follow the writer's
    /// compression setting except for DNSSEC types, which never compress
    /// (RFC 3597 §4).
    pub fn encode(&self, w: &mut WireWriter) {
        match self {
            RData::A(a) => w.put_bytes(&a.octets()),
            RData::Aaaa(a) => w.put_bytes(&a.octets()),
            RData::Ns(n) => w.put_name(n),
            RData::Cname(n) => w.put_name(n),
            RData::Soa(soa) => {
                w.put_name(&soa.mname);
                w.put_name(&soa.rname);
                w.put_u32(soa.serial);
                w.put_u32(soa.refresh);
                w.put_u32(soa.retry);
                w.put_u32(soa.expire);
                w.put_u32(soa.minimum);
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                w.put_u16(*preference);
                w.put_name(exchange);
            }
            RData::Txt(strings) => {
                for s in strings {
                    w.put_u8(s.len() as u8);
                    w.put_bytes(s);
                }
            }
            RData::Dnskey(k) | RData::Cdnskey(k) => w.put_bytes(&k.to_wire()),
            RData::Ds(ds) | RData::Cds(ds) => {
                w.put_u16(ds.key_tag);
                w.put_u8(ds.algorithm);
                w.put_u8(ds.digest_type);
                w.put_bytes(&ds.digest);
            }
            RData::Rrsig(sig) => {
                w.put_bytes(&sig.signed_prefix_raw());
                w.put_bytes(&sig.signature);
            }
            RData::Nsec { next, types } => {
                // NSEC next-name never compresses.
                let mut inner = WireWriter::uncompressed();
                inner.put_name(next);
                w.put_bytes(&inner.into_bytes());
                w.put_bytes(&types.to_wire());
            }
            RData::Nsec3(n) => {
                w.put_u8(n.hash_algorithm);
                w.put_u8(n.flags);
                w.put_u16(n.iterations);
                w.put_u8(n.salt.len() as u8);
                w.put_bytes(&n.salt);
                w.put_u8(n.next_hashed.len() as u8);
                w.put_bytes(&n.next_hashed);
                w.put_bytes(&n.types.to_wire());
            }
            RData::Nsec3Param(p) => {
                w.put_u8(p.hash_algorithm);
                w.put_u8(p.flags);
                w.put_u16(p.iterations);
                w.put_u8(p.salt.len() as u8);
                w.put_bytes(&p.salt);
            }
            RData::Unknown { data, .. } => w.put_bytes(data),
        }
    }

    /// The plain wire encoding as a standalone byte vector (no compression).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::uncompressed();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Canonical RDATA form for DNSSEC (RFC 4034 §6.2): no compression and
    /// embedded names lowercased for the types that list requires.
    pub fn to_canonical_wire(&self) -> Vec<u8> {
        let canonical = match self {
            RData::Ns(n) => RData::Ns(n.to_canonical()),
            RData::Cname(n) => RData::Cname(n.to_canonical()),
            RData::Mx {
                preference,
                exchange,
            } => RData::Mx {
                preference: *preference,
                exchange: exchange.to_canonical(),
            },
            RData::Soa(soa) => RData::Soa(SoaRdata {
                mname: soa.mname.to_canonical(),
                rname: soa.rname.to_canonical(),
                ..soa.clone()
            }),
            RData::Rrsig(sig) => RData::Rrsig(RrsigRdata {
                signer_name: sig.signer_name.to_canonical(),
                ..sig.clone()
            }),
            RData::Nsec { next, types } => RData::Nsec {
                next: next.to_canonical(),
                types: types.clone(),
            },
            other => other.clone(),
        };
        canonical.to_wire()
    }

    /// Decodes RDATA of type `rtype` from `r`; the RDATA occupies exactly
    /// `rdlen` bytes starting at the current position (names inside may
    /// point backwards into the surrounding message).
    pub fn decode(rtype: RrType, r: &mut WireReader<'_>, rdlen: usize) -> Result<Self, WireError> {
        let end = r.position() + rdlen;
        if r.remaining() < rdlen {
            return Err(WireError::Truncated);
        }
        let rdata = match rtype {
            RrType::A => {
                let b = r.get_bytes(4)?;
                RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            RrType::Aaaa => {
                let b: [u8; 16] = r.get_bytes(16)?.try_into().unwrap();
                RData::Aaaa(Ipv6Addr::from(b))
            }
            RrType::Ns => RData::Ns(r.get_name()?),
            RrType::Cname => RData::Cname(r.get_name()?),
            RrType::Soa => RData::Soa(SoaRdata {
                mname: r.get_name()?,
                rname: r.get_name()?,
                serial: r.get_u32()?,
                refresh: r.get_u32()?,
                retry: r.get_u32()?,
                expire: r.get_u32()?,
                minimum: r.get_u32()?,
            }),
            RrType::Mx => RData::Mx {
                preference: r.get_u16()?,
                exchange: r.get_name()?,
            },
            RrType::Txt => {
                let mut strings = Vec::new();
                while r.position() < end {
                    let len = r.get_u8()? as usize;
                    strings.push(r.get_bytes(len)?.to_vec());
                }
                RData::Txt(strings)
            }
            RrType::Dnskey | RrType::Cdnskey => {
                if rdlen < 4 {
                    return Err(WireError::Truncated);
                }
                let k = DnskeyRdata {
                    flags: r.get_u16()?,
                    protocol: r.get_u8()?,
                    algorithm: r.get_u8()?,
                    public_key: r.get_bytes(end - r.position())?.to_vec(),
                };
                if rtype == RrType::Dnskey {
                    RData::Dnskey(k)
                } else {
                    RData::Cdnskey(k)
                }
            }
            RrType::Ds | RrType::Cds => {
                if rdlen < 4 {
                    return Err(WireError::Truncated);
                }
                let ds = DsRdata {
                    key_tag: r.get_u16()?,
                    algorithm: r.get_u8()?,
                    digest_type: r.get_u8()?,
                    digest: r.get_bytes(end - r.position())?.to_vec(),
                };
                if rtype == RrType::Ds {
                    RData::Ds(ds)
                } else {
                    RData::Cds(ds)
                }
            }
            RrType::Rrsig => {
                let type_covered = RrType::from_number(r.get_u16()?);
                let algorithm = r.get_u8()?;
                let labels = r.get_u8()?;
                let original_ttl = r.get_u32()?;
                let expiration = r.get_u32()?;
                let inception = r.get_u32()?;
                let key_tag = r.get_u16()?;
                let signer_name = r.get_name()?;
                if r.position() > end {
                    return Err(WireError::Truncated);
                }
                let signature = r.get_bytes(end - r.position())?.to_vec();
                RData::Rrsig(RrsigRdata {
                    type_covered,
                    algorithm,
                    labels,
                    original_ttl,
                    expiration,
                    inception,
                    key_tag,
                    signer_name,
                    signature,
                })
            }
            RrType::Nsec => {
                let next = r.get_name()?;
                if r.position() > end {
                    return Err(WireError::Truncated);
                }
                let types = TypeBitmap::from_wire(r.get_bytes(end - r.position())?)?;
                RData::Nsec { next, types }
            }
            RrType::Nsec3 => {
                if rdlen < 6 {
                    return Err(WireError::Truncated);
                }
                let hash_algorithm = r.get_u8()?;
                let flags = r.get_u8()?;
                let iterations = r.get_u16()?;
                let salt_len = r.get_u8()? as usize;
                let salt = r.get_bytes(salt_len)?.to_vec();
                let hash_len = r.get_u8()? as usize;
                let next_hashed = r.get_bytes(hash_len)?.to_vec();
                if r.position() > end {
                    return Err(WireError::Truncated);
                }
                let types = TypeBitmap::from_wire(r.get_bytes(end - r.position())?)?;
                RData::Nsec3(Nsec3Rdata {
                    hash_algorithm,
                    flags,
                    iterations,
                    salt,
                    next_hashed,
                    types,
                })
            }
            RrType::Nsec3Param => {
                if rdlen < 5 {
                    return Err(WireError::Truncated);
                }
                let hash_algorithm = r.get_u8()?;
                let flags = r.get_u8()?;
                let iterations = r.get_u16()?;
                let salt_len = r.get_u8()? as usize;
                let salt = r.get_bytes(salt_len)?.to_vec();
                RData::Nsec3Param(Nsec3ParamRdata {
                    hash_algorithm,
                    flags,
                    iterations,
                    salt,
                })
            }
            other => RData::Unknown {
                rtype: other,
                data: r.get_bytes(rdlen)?.to_vec(),
            },
        };
        if r.position() != end {
            return Err(WireError::RdataLengthMismatch {
                expected: rdlen,
                actual: r.position() + rdlen - end,
            });
        }
        Ok(rdata)
    }
}

impl RrsigRdata {
    /// The RDATA fields before the signature, signer name *not* lowercased
    /// (used for plain wire encoding; signing uses [`Self::signed_prefix`]).
    fn signed_prefix_raw(&self) -> Vec<u8> {
        let mut w = WireWriter::uncompressed();
        w.put_u16(self.type_covered.number());
        w.put_u8(self.algorithm);
        w.put_u8(self.labels);
        w.put_u32(self.original_ttl);
        w.put_u32(self.expiration);
        w.put_u32(self.inception);
        w.put_u16(self.key_tag);
        w.put_name(&self.signer_name);
        w.into_bytes()
    }
}

impl fmt::Display for RData {
    /// Zone-file presentation form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Ns(n) => write!(f, "{n}"),
            RData::Cname(n) => write!(f, "{n}"),
            RData::Soa(s) => write!(
                f,
                "{} {} {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RData::Txt(strings) => {
                let mut first = true;
                for s in strings {
                    if !first {
                        write!(f, " ")?;
                    }
                    write!(f, "\"{}\"", escape_txt(s))?;
                    first = false;
                }
                Ok(())
            }
            RData::Dnskey(k) | RData::Cdnskey(k) => write!(
                f,
                "{} {} {} {}",
                k.flags,
                k.protocol,
                k.algorithm,
                base64::encode(&k.public_key)
            ),
            RData::Ds(d) | RData::Cds(d) => write!(
                f,
                "{} {} {} {}",
                d.key_tag,
                d.algorithm,
                d.digest_type,
                hex(&d.digest)
            ),
            RData::Rrsig(s) => write!(
                f,
                "{} {} {} {} {} {} {} {} {}",
                s.type_covered,
                s.algorithm,
                s.labels,
                s.original_ttl,
                s.expiration,
                s.inception,
                s.key_tag,
                s.signer_name,
                base64::encode(&s.signature)
            ),
            RData::Nsec { next, types } => write!(f, "{next} {types}"),
            RData::Nsec3(n) => write!(
                f,
                "{} {} {} {} {} {}",
                n.hash_algorithm,
                n.flags,
                n.iterations,
                if n.salt.is_empty() {
                    "-".into()
                } else {
                    hex(&n.salt)
                },
                dsec_crypto::base32::encode_hex(&n.next_hashed),
                n.types
            ),
            RData::Nsec3Param(p) => write!(
                f,
                "{} {} {} {}",
                p.hash_algorithm,
                p.flags,
                p.iterations,
                if p.salt.is_empty() {
                    "-".into()
                } else {
                    hex(&p.salt)
                },
            ),
            RData::Unknown { data, .. } => {
                // RFC 3597 unknown-type presentation.
                write!(f, "\\# {} {}", data.len(), hex(data))
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02X}")).collect()
}

fn escape_txt(s: &[u8]) -> String {
    s.iter()
        .flat_map(|&b| match b {
            b'"' => "\\\"".chars().collect::<Vec<_>>(),
            b'\\' => "\\\\".chars().collect(),
            0x20..=0x7e => vec![b as char],
            _ => format!("\\{b:03}").chars().collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn round_trip(rdata: RData) {
        let wire = rdata.to_wire();
        let mut r = WireReader::new(&wire);
        let back = RData::decode(rdata.rtype(), &mut r, wire.len()).unwrap();
        assert_eq!(back, rdata);
        assert!(r.is_at_end());
    }

    #[test]
    fn a_round_trip() {
        round_trip(RData::A("192.0.2.1".parse().unwrap()));
    }

    #[test]
    fn aaaa_round_trip() {
        round_trip(RData::Aaaa("2001:db8::1".parse().unwrap()));
    }

    #[test]
    fn ns_cname_mx_round_trip() {
        round_trip(RData::Ns(name("ns1.example.com")));
        round_trip(RData::Cname(name("alias.example.com")));
        round_trip(RData::Mx {
            preference: 10,
            exchange: name("mail.example.com"),
        });
    }

    #[test]
    fn soa_round_trip() {
        round_trip(RData::Soa(SoaRdata {
            mname: name("ns1.example.com"),
            rname: name("hostmaster.example.com"),
            serial: 2016123100,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 3600,
        }));
    }

    #[test]
    fn txt_round_trip() {
        round_trip(RData::Txt(vec![b"hello".to_vec(), b"world".to_vec()]));
        round_trip(RData::Txt(vec![vec![]]));
    }

    #[test]
    fn dnskey_round_trip_and_flags() {
        let k = DnskeyRdata {
            flags: DnskeyRdata::ksk_flags(),
            protocol: 3,
            algorithm: 8,
            public_key: vec![1, 2, 3, 4, 5],
        };
        assert!(k.is_ksk());
        assert!(k.is_zone_key());
        round_trip(RData::Dnskey(k.clone()));
        round_trip(RData::Cdnskey(k));
        let zsk = DnskeyRdata {
            flags: DnskeyRdata::zsk_flags(),
            protocol: 3,
            algorithm: 8,
            public_key: vec![9],
        };
        assert!(!zsk.is_ksk());
    }

    #[test]
    fn ds_round_trip() {
        let ds = DsRdata {
            key_tag: 60485,
            algorithm: 8,
            digest_type: 2,
            digest: vec![0xAB; 32],
        };
        round_trip(RData::Ds(ds.clone()));
        round_trip(RData::Cds(ds));
    }

    #[test]
    fn rrsig_round_trip() {
        round_trip(RData::Rrsig(RrsigRdata {
            type_covered: RrType::A,
            algorithm: 8,
            labels: 2,
            original_ttl: 3600,
            expiration: 1483228800,
            inception: 1480550400,
            key_tag: 12345,
            signer_name: name("example.com"),
            signature: vec![7; 64],
        }));
    }

    #[test]
    fn nsec_round_trip() {
        round_trip(RData::Nsec {
            next: name("b.example.com"),
            types: TypeBitmap::from_types([RrType::A, RrType::Rrsig, RrType::Nsec]),
        });
    }

    #[test]
    fn nsec3_round_trip() {
        round_trip(RData::Nsec3(Nsec3Rdata {
            hash_algorithm: 1,
            flags: 1,
            iterations: 12,
            salt: vec![0xaa, 0xbb, 0xcc, 0xdd],
            next_hashed: vec![0x1A; 20],
            types: TypeBitmap::from_types([RrType::A, RrType::Rrsig]),
        }));
        // Empty salt is legal.
        round_trip(RData::Nsec3(Nsec3Rdata {
            hash_algorithm: 1,
            flags: 0,
            iterations: 0,
            salt: vec![],
            next_hashed: vec![0x2B; 20],
            types: TypeBitmap::from_types([RrType::Soa]),
        }));
    }

    #[test]
    fn nsec3param_round_trip() {
        round_trip(RData::Nsec3Param(Nsec3ParamRdata {
            hash_algorithm: 1,
            flags: 0,
            iterations: 12,
            salt: vec![0xaa, 0xbb],
        }));
    }

    #[test]
    fn nsec3_display_uses_base32hex_and_dash_salt() {
        let n = RData::Nsec3(Nsec3Rdata {
            hash_algorithm: 1,
            flags: 0,
            iterations: 0,
            salt: vec![],
            next_hashed: b"foobar".to_vec(),
            types: TypeBitmap::from_types([RrType::A]),
        });
        assert_eq!(n.to_string(), "1 0 0 - cpnmuoj1e8 A");
    }

    #[test]
    fn unknown_round_trip() {
        round_trip(RData::Unknown {
            rtype: RrType::Unknown(999),
            data: vec![1, 2, 3],
        });
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        // An A record with 5 RDATA bytes.
        let wire = [192, 0, 2, 1, 9];
        let mut r = WireReader::new(&wire);
        assert!(RData::decode(RrType::A, &mut r, 5).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let wire = [192, 0];
        let mut r = WireReader::new(&wire);
        assert!(RData::decode(RrType::A, &mut r, 4).is_err());
        let mut r2 = WireReader::new(&[0, 1, 2]);
        assert!(RData::decode(RrType::Dnskey, &mut r2, 3).is_err());
    }

    #[test]
    fn canonical_lowercases_embedded_names() {
        let rd = RData::Ns(name("NS1.Example.COM"));
        let canon = rd.to_canonical_wire();
        assert_eq!(canon, b"\x03ns1\x07example\x03com\x00".to_vec());
        // A-record canonical form equals plain form.
        let a = RData::A("192.0.2.1".parse().unwrap());
        assert_eq!(a.to_canonical_wire(), a.to_wire());
    }

    #[test]
    fn key_tag_changes_with_material() {
        let k1 = DnskeyRdata {
            flags: 256,
            protocol: 3,
            algorithm: 8,
            public_key: vec![1, 2, 3],
        };
        let k2 = DnskeyRdata {
            public_key: vec![1, 2, 4],
            ..k1.clone()
        };
        assert_ne!(k1.key_tag(), k2.key_tag());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            RData::A("192.0.2.1".parse().unwrap()).to_string(),
            "192.0.2.1"
        );
        let ds = RData::Ds(DsRdata {
            key_tag: 1,
            algorithm: 8,
            digest_type: 2,
            digest: vec![0xde, 0xad],
        });
        assert_eq!(ds.to_string(), "1 8 2 DEAD");
        let txt = RData::Txt(vec![b"a\"b".to_vec()]);
        assert_eq!(txt.to_string(), "\"a\\\"b\"");
        let unk = RData::Unknown {
            rtype: RrType::Unknown(999),
            data: vec![1, 2],
        };
        assert_eq!(unk.to_string(), "\\# 2 0102");
    }
}
