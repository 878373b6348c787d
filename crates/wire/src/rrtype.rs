//! Resource record types and classes (RFC 1035 §3.2, IANA DNS parameters),
//! plus the RFC 4034 §4.1.2 type bitmap used by NSEC records.

use std::fmt;

/// A resource record TYPE, by IANA number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RrType {
    /// IPv4 host address (1).
    A,
    /// Authoritative nameserver (2).
    Ns,
    /// Canonical name alias (5).
    Cname,
    /// Start of authority (6).
    Soa,
    /// Mail exchange (15).
    Mx,
    /// Text strings (16).
    Txt,
    /// IPv6 host address (28).
    Aaaa,
    /// EDNS(0) pseudo-RR (41).
    Opt,
    /// Delegation signer (43).
    Ds,
    /// DNSSEC signature (46).
    Rrsig,
    /// Authenticated denial of existence (47).
    Nsec,
    /// DNSSEC public key (48).
    Dnskey,
    /// Hashed authenticated denial, RFC 5155 (50).
    Nsec3,
    /// NSEC3 zone parameters, RFC 5155 (51).
    Nsec3Param,
    /// Child DS for automated delegation maintenance, RFC 7344 (59).
    Cds,
    /// Child DNSKEY, RFC 7344 (60).
    Cdnskey,
    /// Any other type, preserved by number.
    Unknown(u16),
}

impl RrType {
    /// IANA TYPE number.
    pub fn number(self) -> u16 {
        match self {
            RrType::A => 1,
            RrType::Ns => 2,
            RrType::Cname => 5,
            RrType::Soa => 6,
            RrType::Mx => 15,
            RrType::Txt => 16,
            RrType::Aaaa => 28,
            RrType::Opt => 41,
            RrType::Ds => 43,
            RrType::Rrsig => 46,
            RrType::Nsec => 47,
            RrType::Dnskey => 48,
            RrType::Nsec3 => 50,
            RrType::Nsec3Param => 51,
            RrType::Cds => 59,
            RrType::Cdnskey => 60,
            RrType::Unknown(n) => n,
        }
    }

    /// Maps an IANA number to a type.
    pub fn from_number(n: u16) -> Self {
        match n {
            1 => RrType::A,
            2 => RrType::Ns,
            5 => RrType::Cname,
            6 => RrType::Soa,
            15 => RrType::Mx,
            16 => RrType::Txt,
            28 => RrType::Aaaa,
            41 => RrType::Opt,
            43 => RrType::Ds,
            46 => RrType::Rrsig,
            47 => RrType::Nsec,
            48 => RrType::Dnskey,
            50 => RrType::Nsec3,
            51 => RrType::Nsec3Param,
            59 => RrType::Cds,
            60 => RrType::Cdnskey,
            other => RrType::Unknown(other),
        }
    }
}

impl fmt::Display for RrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrType::A => write!(f, "A"),
            RrType::Ns => write!(f, "NS"),
            RrType::Cname => write!(f, "CNAME"),
            RrType::Soa => write!(f, "SOA"),
            RrType::Mx => write!(f, "MX"),
            RrType::Txt => write!(f, "TXT"),
            RrType::Aaaa => write!(f, "AAAA"),
            RrType::Opt => write!(f, "OPT"),
            RrType::Ds => write!(f, "DS"),
            RrType::Rrsig => write!(f, "RRSIG"),
            RrType::Nsec => write!(f, "NSEC"),
            RrType::Dnskey => write!(f, "DNSKEY"),
            RrType::Nsec3 => write!(f, "NSEC3"),
            RrType::Nsec3Param => write!(f, "NSEC3PARAM"),
            RrType::Cds => write!(f, "CDS"),
            RrType::Cdnskey => write!(f, "CDNSKEY"),
            RrType::Unknown(n) => write!(f, "TYPE{n}"),
        }
    }
}

/// A resource record CLASS. Only `IN` matters here; others are preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrClass {
    /// The Internet (1).
    In,
    /// Anything else, by number.
    Unknown(u16),
}

impl RrClass {
    /// IANA CLASS number.
    pub fn number(self) -> u16 {
        match self {
            RrClass::In => 1,
            RrClass::Unknown(n) => n,
        }
    }

    /// Maps an IANA number to a class.
    pub fn from_number(n: u16) -> Self {
        match n {
            1 => RrClass::In,
            other => RrClass::Unknown(other),
        }
    }
}

impl fmt::Display for RrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrClass::In => write!(f, "IN"),
            RrClass::Unknown(n) => write!(f, "CLASS{n}"),
        }
    }
}

/// An RFC 4034 §4.1.2 type bitmap, as found in NSEC RDATA.
///
/// Stored as a sorted, deduplicated list of type numbers; converts to and
/// from the window-block wire encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TypeBitmap {
    types: Vec<u16>,
}

impl TypeBitmap {
    /// Builds from any iterator of types; sorts and deduplicates.
    pub fn from_types(types: impl IntoIterator<Item = RrType>) -> Self {
        let mut v: Vec<u16> = types.into_iter().map(RrType::number).collect();
        v.sort_unstable();
        v.dedup();
        TypeBitmap { types: v }
    }

    /// True iff the bitmap contains `t`.
    pub fn contains(&self, t: RrType) -> bool {
        self.types.binary_search(&t.number()).is_ok()
    }

    /// Iterates the contained types in ascending numeric order.
    pub fn iter(&self) -> impl Iterator<Item = RrType> + '_ {
        self.types.iter().map(|&n| RrType::from_number(n))
    }

    /// Number of contained types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True iff no types are present.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Encodes as RFC 4034 window blocks.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.types.len() {
            let window = (self.types[i] >> 8) as u8;
            // Collect the bitmap for this 256-type window.
            let mut bitmap = [0u8; 32];
            let mut max_byte = 0usize;
            while i < self.types.len() && (self.types[i] >> 8) as u8 == window {
                let low = (self.types[i] & 0xff) as usize;
                bitmap[low / 8] |= 0x80 >> (low % 8);
                max_byte = low / 8;
                i += 1;
            }
            out.push(window);
            out.push((max_byte + 1) as u8);
            out.extend_from_slice(&bitmap[..=max_byte]);
        }
        out
    }

    /// Decodes RFC 4034 window blocks.
    pub fn from_wire(mut data: &[u8]) -> Result<Self, crate::WireError> {
        let mut types = Vec::new();
        let mut last_window: i32 = -1;
        while !data.is_empty() {
            if data.len() < 2 {
                return Err(crate::WireError::Truncated);
            }
            let window = data[0];
            let len = data[1] as usize;
            if len == 0 || len > 32 || data.len() < 2 + len {
                return Err(crate::WireError::BadTypeBitmap);
            }
            if (window as i32) <= last_window {
                return Err(crate::WireError::BadTypeBitmap);
            }
            last_window = window as i32;
            for (byte_idx, &byte) in data[2..2 + len].iter().enumerate() {
                for bit in 0..8 {
                    if byte & (0x80 >> bit) != 0 {
                        types.push(((window as u16) << 8) | (byte_idx * 8 + bit) as u16);
                    }
                }
            }
            data = &data[2 + len..];
        }
        Ok(TypeBitmap { types })
    }
}

impl fmt::Display for TypeBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for t in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_number_round_trip() {
        for n in 0..300u16 {
            assert_eq!(RrType::from_number(n).number(), n);
        }
    }

    #[test]
    fn type_display() {
        assert_eq!(RrType::Cdnskey.to_string(), "CDNSKEY");
        assert_eq!(RrType::Unknown(999).to_string(), "TYPE999");
    }

    #[test]
    fn class_round_trip() {
        assert_eq!(RrClass::from_number(1), RrClass::In);
        assert_eq!(RrClass::from_number(3).number(), 3);
        assert_eq!(RrClass::In.to_string(), "IN");
    }

    #[test]
    fn bitmap_round_trip() {
        let bm = TypeBitmap::from_types([
            RrType::A,
            RrType::Ns,
            RrType::Rrsig,
            RrType::Nsec,
            RrType::Unknown(1234),
        ]);
        let wire = bm.to_wire();
        let back = TypeBitmap::from_wire(&wire).unwrap();
        assert_eq!(back, bm);
        assert!(back.contains(RrType::A));
        assert!(back.contains(RrType::Unknown(1234)));
        assert!(!back.contains(RrType::Mx));
    }

    #[test]
    fn bitmap_dedups_and_sorts() {
        let bm = TypeBitmap::from_types([RrType::Ns, RrType::A, RrType::Ns]);
        assert_eq!(bm.len(), 2);
        let listed: Vec<RrType> = bm.iter().collect();
        assert_eq!(listed, vec![RrType::A, RrType::Ns]);
    }

    #[test]
    fn bitmap_empty() {
        let bm = TypeBitmap::default();
        assert!(bm.is_empty());
        assert!(bm.to_wire().is_empty());
        assert_eq!(TypeBitmap::from_wire(&[]).unwrap(), bm);
    }

    #[test]
    fn bitmap_rejects_malformed() {
        assert!(TypeBitmap::from_wire(&[0]).is_err()); // truncated header
        assert!(TypeBitmap::from_wire(&[0, 0]).is_err()); // zero length
        assert!(TypeBitmap::from_wire(&[0, 33]).is_err()); // oversize window
        assert!(TypeBitmap::from_wire(&[0, 2, 0xff]).is_err()); // short data
                                                                // Windows must be strictly increasing.
        assert!(TypeBitmap::from_wire(&[1, 1, 0x80, 0, 1, 0x80]).is_err());
    }

    #[test]
    fn bitmap_display() {
        let bm = TypeBitmap::from_types([RrType::Ns, RrType::A]);
        assert_eq!(bm.to_string(), "A NS");
    }

    #[test]
    fn bitmap_rfc4034_example_shape() {
        // A/MX/RRSIG/NSEC/TYPE1234 example from RFC 4034 §4.3.
        let bm = TypeBitmap::from_types([
            RrType::A,
            RrType::Mx,
            RrType::Rrsig,
            RrType::Nsec,
            RrType::Unknown(1234),
        ]);
        let wire = bm.to_wire();
        // Expected: window 0 block (6 bytes of bitmap) then window 4 block.
        assert_eq!(wire[0], 0x00);
        assert_eq!(wire[1], 0x06);
        assert_eq!(&wire[2..8], &[0x40, 0x01, 0x00, 0x00, 0x00, 0x03]);
        assert_eq!(wire[8], 0x04);
        assert_eq!(wire[9], 0x1b);
    }
}
