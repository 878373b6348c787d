//! # dsec-wire — the DNS substrate
//!
//! A standalone, sans-I/O DNS data-model and wire-format layer in the style
//! of smoltcp: everything is plain data plus encode/decode, with no sockets,
//! no runtime, and explicit typed errors.
//!
//! - [`name`]: domain names with RFC 4034 §6.1 canonical ordering, and
//!   the stable cross-run name hash cache keys carry;
//! - [`fnv`]: an FNV-1a hasher for simulator-internal Name-keyed maps;
//! - [`rrtype`]: TYPE/CLASS registries and the NSEC type bitmap;
//! - [`rdata`]: typed RDATA for A/AAAA/NS/CNAME/SOA/MX/TXT/DNSKEY/DS/
//!   RRSIG/NSEC/CDS/CDNSKEY plus an opaque RFC 3597 fallback;
//! - [`record`]: records, RRsets, and the canonical RRset stream DNSSEC
//!   signs;
//! - [`wire`]: the low-level reader/writer with RFC 1035 name compression;
//! - [`message`]: full messages with EDNS(0) and the DO/AD/CD bits;
//! - [`zone`]: the zone model with a master-file text form.

#![warn(missing_docs)]

pub mod fnv;
pub mod message;
pub mod name;
pub mod rdata;
pub mod record;
pub mod rrtype;
pub mod wire;
pub mod zone;

pub use fnv::{draw, FnvBuildHasher, FnvHashMap, FnvHashSet, FnvHasher};
pub use message::{Edns, Flags, Message, Opcode, Question, Rcode};
pub use name::{name_hash64, Labels, Name};
pub use rdata::{DnskeyRdata, DsRdata, RData, RrsigRdata, SoaRdata};
pub use record::{group_rrsets, Record, RrSet};
pub use rrtype::{RrClass, RrType, TypeBitmap};
pub use wire::{WireReader, WireWriter};
pub use zone::{Owner, Zone};

/// Errors from parsing or constructing DNS data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before a complete value was read.
    Truncated,
    /// A label of zero length appeared inside a name's text form.
    EmptyLabel,
    /// A label exceeded 63 octets.
    LabelTooLong(usize),
    /// A name exceeded 255 wire octets.
    NameTooLong(usize),
    /// A `\`-escape in a name's text form was malformed.
    BadEscape,
    /// A compression pointer pointed forward (or at itself).
    BadPointer,
    /// Compression pointers formed a loop.
    PointerLoop,
    /// Reserved label type bits (0x40/0x80) were used.
    BadLabelType(u8),
    /// An NSEC type bitmap violated the window-block grammar.
    BadTypeBitmap,
    /// RDATA did not occupy exactly RDLENGTH bytes.
    RdataLengthMismatch {
        /// RDLENGTH from the record header.
        expected: usize,
        /// Bytes the typed parser actually consumed.
        actual: usize,
    },
    /// A message carried more than one OPT record.
    DuplicateOpt,
    /// Bytes remained after the last section.
    TrailingBytes(usize),
    /// An RRset constructor was given zero records.
    EmptyRrSet,
    /// An RRset constructor was given records with mixed (name, class, type).
    MixedRrSet,
    /// A record's owner is not at/below the zone origin.
    OutOfZone {
        /// The offending owner name.
        name: String,
        /// The zone origin.
        origin: String,
    },
    /// A registry zone holds records only at its apex, and below it one
    /// delegation row per child: a record below the apex, or a row for
    /// a name that is not a new child.
    RegistryRow {
        /// The offending name.
        name: String,
        /// The zone origin.
        origin: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::EmptyLabel => write!(f, "empty label"),
            WireError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63"),
            WireError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255"),
            WireError::BadEscape => write!(f, "malformed escape sequence"),
            WireError::BadPointer => write!(f, "compression pointer does not point backwards"),
            WireError::PointerLoop => write!(f, "compression pointer loop"),
            WireError::BadLabelType(b) => write!(f, "reserved label type {b:#04x}"),
            WireError::BadTypeBitmap => write!(f, "malformed NSEC type bitmap"),
            WireError::RdataLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "RDATA length mismatch: RDLENGTH {expected}, parsed {actual}"
                )
            }
            WireError::DuplicateOpt => write!(f, "more than one OPT record"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::EmptyRrSet => write!(f, "RRset must contain at least one record"),
            WireError::MixedRrSet => {
                write!(f, "RRset records must share owner, class, and type")
            }
            WireError::OutOfZone { name, origin } => {
                write!(f, "{name} is outside zone {origin}")
            }
            WireError::RegistryRow { name, origin } => {
                write!(
                    f,
                    "{name} is not a new delegation row of registry zone {origin}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy for a random valid label string (letters/digits/hyphen).
    fn label_str() -> impl Strategy<Value = String> {
        proptest::string::string_regex("[a-zA-Z0-9-]{1,20}").unwrap()
    }

    fn arb_name() -> impl Strategy<Value = Name> {
        proptest::collection::vec(label_str(), 0..5)
            .prop_map(|labels| Name::parse(&labels.join(".")).unwrap())
    }

    /// Strategy for short names over a tiny alphabet: the octets the
    /// canonical key escapes or ends labels with (`0x00`, `0x01`), their
    /// neighbour, both cases of one letter, and the extremes — so label
    /// prefix ties, label-count ties and case-only differences are
    /// common.
    fn arb_raw_name() -> impl Strategy<Value = Name> {
        const OCTETS: [u8; 8] = [0x00, 0x01, 0x02, b'a', b'A', b'-', 0x7f, 0xff];
        let label = proptest::collection::vec(0..OCTETS.len(), 1..5)
            .prop_map(|picks| picks.into_iter().map(|i| OCTETS[i]).collect::<Vec<u8>>());
        proptest::collection::vec(label, 0..5).prop_map(|labels| Name::from_labels(labels).unwrap())
    }

    fn arb_rdata() -> impl Strategy<Value = RData> {
        prop_oneof![
            any::<[u8; 4]>().prop_map(|b| RData::A(b.into())),
            any::<[u8; 16]>().prop_map(|b| RData::Aaaa(b.into())),
            arb_name().prop_map(RData::Ns),
            arb_name().prop_map(RData::Cname),
            (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
                preference,
                exchange
            }),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..50), 1..4)
                .prop_map(RData::Txt),
            (
                any::<u16>(),
                any::<u8>(),
                any::<u8>(),
                proptest::collection::vec(any::<u8>(), 1..64)
            )
                .prop_map(|(key_tag, algorithm, digest_type, digest)| RData::Ds(
                    DsRdata {
                        key_tag,
                        algorithm,
                        digest_type,
                        digest
                    }
                )),
            (
                any::<u16>(),
                any::<u8>(),
                proptest::collection::vec(any::<u8>(), 1..64)
            )
                .prop_map(|(flags, algorithm, public_key)| RData::Dnskey(
                    DnskeyRdata {
                        flags,
                        protocol: 3,
                        algorithm,
                        public_key
                    }
                )),
        ]
    }

    proptest! {
        // Many cases: an encoding that drops the escape or the terminator
        // disagrees only on a few shapes of pair.
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn canonical_key_orders_like_canonical_cmp(a in arb_raw_name(), b in arb_raw_name()) {
            let (mut ka, mut kb) = (Vec::new(), Vec::new());
            a.canonical_key(&mut ka);
            b.canonical_key(&mut kb);
            prop_assert_eq!(ka.cmp(&kb), a.canonical_cmp(&b), "{:?} vs {:?}", a, b);
        }

        #[test]
        fn canonical_key_orders_siblings_like_canonical_cmp(
            parent in arb_raw_name(),
            x in arb_raw_name(),
            y in arb_raw_name(),
        ) {
            // `x`'s and `y`'s first labels under one parent, spelled in
            // its case or in upper case: the pairs `canonical_cmp` takes
            // its sibling shortcut on.
            let child = |of: &Name, upper: bool| {
                let parent = parent.labels().map(|label| {
                    let mut label = label.to_vec();
                    if upper {
                        label.make_ascii_uppercase();
                    }
                    label
                });
                Name::from_labels(of.labels().take(1).map(<[u8]>::to_vec).chain(parent)).unwrap()
            };
            let (a, b) = (child(&x, false), child(&y, true));
            let (mut ka, mut kb) = (Vec::new(), Vec::new());
            a.canonical_key(&mut ka);
            b.canonical_key(&mut kb);
            prop_assert_eq!(ka.cmp(&kb), a.canonical_cmp(&b), "{:?} vs {:?}", a, b);
        }
    }

    proptest! {
        #[test]
        fn name_text_round_trip(n in arb_name()) {
            let text = n.to_string();
            prop_assert_eq!(Name::parse(&text).unwrap(), n);
        }

        #[test]
        fn name_wire_round_trip(n in arb_name()) {
            let mut w = WireWriter::uncompressed();
            w.put_name(&n);
            let buf = w.into_bytes();
            let mut r = WireReader::new(&buf);
            prop_assert_eq!(r.get_name().unwrap(), n);
        }

        #[test]
        fn canonical_cmp_is_total_order(a in arb_name(), b in arb_name(), c in arb_name()) {
            use std::cmp::Ordering;
            // Antisymmetry
            prop_assert_eq!(a.canonical_cmp(&b), b.canonical_cmp(&a).reverse());
            // Transitivity (only check the Less chain)
            if a.canonical_cmp(&b) == Ordering::Less && b.canonical_cmp(&c) == Ordering::Less {
                prop_assert_eq!(a.canonical_cmp(&c), Ordering::Less);
            }
            // Reflexivity via equality
            prop_assert_eq!(a.canonical_cmp(&a), Ordering::Equal);
        }

        #[test]
        fn rdata_wire_round_trip(rd in arb_rdata()) {
            let wire = rd.to_wire();
            let mut r = WireReader::new(&wire);
            let back = RData::decode(rd.rtype(), &mut r, wire.len()).unwrap();
            prop_assert_eq!(back, rd);
        }

        #[test]
        fn record_wire_round_trip(n in arb_name(), ttl in any::<u32>(), rd in arb_rdata()) {
            let rec = Record::new(n, ttl, rd);
            let mut w = WireWriter::new();
            rec.encode(&mut w);
            let buf = w.into_bytes();
            let mut r = WireReader::new(&buf);
            prop_assert_eq!(Record::decode(&mut r).unwrap(), rec);
        }

        #[test]
        fn message_wire_round_trip(
            id in any::<u16>(),
            qname in arb_name(),
            records in proptest::collection::vec((arb_name(), any::<u32>(), arb_rdata()), 0..6),
            dnssec_ok in any::<bool>(),
        ) {
            let mut msg = Message::query(id, qname, RrType::A, dnssec_ok);
            for (n, ttl, rd) in records {
                msg.answers.push(Record::new(n, ttl, rd));
            }
            let back = Message::from_wire(&msg.to_wire()).unwrap();
            prop_assert_eq!(back, msg);
        }

        #[test]
        fn decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Message::from_wire(&data);
        }
    }
}
