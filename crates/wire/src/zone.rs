//! Zone model: the set of RRsets a single organization serves, with a
//! master-file style text form (serialize and parse).
//!
//! The registry/registrar simulation manipulates zones through this type:
//! TLD registries hold delegation-only zones (NS + DS per child), and DNS
//! operators hold the customer zones that get signed.

use std::collections::BTreeMap;
use std::fmt;

use crate::name::Name;
use crate::rdata::{DnskeyRdata, DsRdata, Nsec3ParamRdata, Nsec3Rdata, RData, RrsigRdata, SoaRdata};
use crate::record::{Record, RrSet};
use crate::rrtype::{RrType, TypeBitmap};
use crate::WireError;

/// A DNS zone: an origin name and the records at or below it.
///
/// Records are indexed by (owner, type); each index entry is a non-empty
/// record list forming one RRset. Owner names are stored in canonical
/// (lowercase) form for lookup purposes; the records keep their case.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Zone {
    origin: Name,
    records: BTreeMap<(Name, u16), Vec<Record>>,
}

impl Zone {
    /// An empty zone rooted at `origin`.
    pub fn new(origin: Name) -> Self {
        Zone {
            origin,
            records: BTreeMap::new(),
        }
    }

    /// The zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Index key for *insertion*: owners are stored in canonical form so
    /// iteration APIs hand out lowercase names.
    fn key(name: &Name, rtype: RrType) -> (Name, u16) {
        (name.to_canonical(), rtype.number())
    }

    /// Index key for *lookup*: `Name`'s `Ord`/`Eq` already fold ASCII
    /// case, so probing skips the per-label lowercase allocation that
    /// `to_canonical` pays.
    fn probe(name: &Name, rtype: RrType) -> (Name, u16) {
        (name.clone(), rtype.number())
    }

    /// Adds a record. Returns an error if the owner is outside the zone.
    /// Exact duplicates are ignored (DNS RRsets are sets).
    pub fn add(&mut self, record: Record) -> Result<(), WireError> {
        if !record.name.is_subdomain_of(&self.origin) {
            return Err(WireError::OutOfZone {
                name: record.name.to_string(),
                origin: self.origin.to_string(),
            });
        }
        let entry = self
            .records
            .entry(Self::key(&record.name, record.rtype()))
            .or_default();
        if !entry.contains(&record) {
            entry.push(record);
        }
        Ok(())
    }

    /// Removes the whole RRset at (name, rtype); returns how many records
    /// were removed.
    pub fn remove_rrset(&mut self, name: &Name, rtype: RrType) -> usize {
        self.records
            .remove(&Self::probe(name, rtype))
            .map_or(0, |v| v.len())
    }

    /// The index entries owned by `name`, any type. The index orders by
    /// owner first, so they are one contiguous range: O(log n) to find,
    /// however large the zone.
    fn at(&self, name: &Name) -> impl Iterator<Item = (&(Name, u16), &Vec<Record>)> {
        self.records
            .range((name.clone(), 0)..=(name.clone(), u16::MAX))
    }

    /// Removes every record owned by `name`, of any type.
    pub fn remove_name(&mut self, name: &Name) -> usize {
        let keys: Vec<_> = self.at(name).map(|(key, _)| key.clone()).collect();
        keys.into_iter()
            .map(|k| self.records.remove(&k).map_or(0, |v| v.len()))
            .sum()
    }

    /// The RRset at (name, rtype), if any, as an owned [`RrSet`].
    pub fn rrset(&self, name: &Name, rtype: RrType) -> Option<RrSet> {
        self.records
            .get(&Self::probe(name, rtype))
            .map(|v| RrSet::new(v.clone()).expect("zone index entries are valid RRsets"))
    }

    /// The records at (name, rtype), if any, borrowed — the query hot
    /// path's lookup, which clones nothing.
    pub fn rrset_records(&self, name: &Name, rtype: RrType) -> Option<&[Record]> {
        self.records
            .get(&Self::probe(name, rtype))
            .map(Vec::as_slice)
    }

    /// All records at `name`, any type.
    pub fn records_at(&self, name: &Name) -> Vec<Record> {
        self.at(name).flat_map(|(_, v)| v.iter().cloned()).collect()
    }

    /// True if any record exists at `name` (of any type), or underneath it.
    pub fn name_exists(&self, name: &Name) -> bool {
        // In canonical order a name's descendants follow it directly, so
        // the first owner at or after `name` decides.
        self.records
            .range((name.clone(), 0)..)
            .next()
            .is_some_and(|((owner, _), _)| owner.is_subdomain_of(name))
    }

    /// Iterates every record in canonical owner order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.values().flatten()
    }

    /// Iterates every RRset in canonical owner order.
    pub fn rrsets(&self) -> impl Iterator<Item = RrSet> + '_ {
        self.records
            .values()
            .map(|v| RrSet::new(v.clone()).expect("zone index entries are valid RRsets"))
    }

    /// Total record count.
    pub fn len(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    /// True when the zone holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All distinct owner names, canonical order.
    pub fn owner_names(&self) -> Vec<Name> {
        let mut names: Vec<Name> = self.records.keys().map(|(n, _)| n.clone()).collect();
        names.dedup();
        names
    }

    /// Distinct owner names exactly one label below the origin, canonical
    /// order — a parent zone's delegation points. Clones only the
    /// matching names, so enumerating a TLD zone's 10⁵ delegations does
    /// not also copy every other owner in the zone.
    pub fn child_names(&self) -> Vec<Name> {
        let depth = self.origin.label_count() + 1;
        let mut names: Vec<Name> = self
            .records
            .keys()
            .filter(|(n, _)| n.label_count() == depth)
            .map(|(n, _)| n.clone())
            .collect();
        names.dedup();
        names
    }

    /// The types present at `name`, as an NSEC-style bitmap.
    pub fn types_at(&self, name: &Name) -> TypeBitmap {
        TypeBitmap::from_types(self.at(name).map(|(&(_, t), _)| RrType::from_number(t)))
    }

    /// Finds the deepest delegation (an NS RRset strictly below the origin,
    /// at or above `qname`). Returns the cut owner and its NS set.
    pub fn find_delegation(&self, qname: &Name) -> Option<(Name, RrSet)> {
        let mut cut = qname.to_canonical();
        loop {
            if !cut.is_strict_subdomain_of(&self.origin) {
                return None;
            }
            if let Some(set) = self.rrset(&cut, RrType::Ns) {
                return Some((cut, set));
            }
            cut = cut.parent()?;
        }
    }

    /// Serializes to a master-file style text form, one record per line,
    /// preceded by an `$ORIGIN` directive.
    pub fn to_text(&self) -> String {
        let mut out = format!("$ORIGIN {}\n", self.origin);
        for record in self.iter() {
            out.push_str(&record.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses the text form produced by [`Zone::to_text`] (absolute owner
    /// names, `name ttl class type rdata` per line, `;` comments).
    pub fn from_text(text: &str) -> Result<Self, WireError> {
        let mut origin: Option<Name> = None;
        let mut records = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let mut tokens = tokenize(line);
            if line.starts_with("$ORIGIN") {
                tokens.remove(0);
                let o = tokens.first().ok_or(WireError::ZoneSyntax {
                    line: lineno + 1,
                    what: "missing $ORIGIN argument",
                })?;
                origin = Some(Name::parse(o)?);
                continue;
            }
            if tokens.len() < 4 {
                return Err(WireError::ZoneSyntax {
                    line: lineno + 1,
                    what: "expected: name ttl class type rdata",
                });
            }
            let name = Name::parse(&tokens[0])?;
            let ttl: u32 = tokens[1].parse().map_err(|_| WireError::ZoneSyntax {
                line: lineno + 1,
                what: "bad TTL",
            })?;
            if !tokens[2].eq_ignore_ascii_case("IN") {
                return Err(WireError::ZoneSyntax {
                    line: lineno + 1,
                    what: "only class IN is supported",
                });
            }
            let rtype = RrType::parse(&tokens[3]).ok_or(WireError::ZoneSyntax {
                line: lineno + 1,
                what: "unknown record type",
            })?;
            let rdata = parse_rdata(rtype, &tokens[4..]).map_err(|_| WireError::ZoneSyntax {
                line: lineno + 1,
                what: "bad RDATA",
            })?;
            records.push(Record::new(name, ttl, rdata));
        }
        let origin = origin.ok_or(WireError::ZoneSyntax {
            line: 0,
            what: "missing $ORIGIN",
        })?;
        let mut zone = Zone::new(origin);
        for record in records {
            zone.add(record)?;
        }
        Ok(zone)
    }
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

/// Strips a `;` comment, ignoring semicolons inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ';' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Splits a zone-file line into tokens, honoring double quotes for TXT.
fn tokenize(line: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in line.chars() {
        if escaped {
            // Keep the escape intact; TXT parsing unescapes later.
            current.push('\\');
            current.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => {
                escaped = true;
            }
            '"' => {
                in_quotes = !in_quotes;
                // Keep quote markers so TXT parsing can distinguish
                // quoted empty strings.
                current.push('"');
            }
            c if c.is_whitespace() && !in_quotes => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Parses RDATA presentation tokens for `rtype`.
fn parse_rdata(rtype: RrType, t: &[String]) -> Result<RData, ()> {
    let tok = |i: usize| -> Result<&str, ()> { t.get(i).map(String::as_str).ok_or(()) };
    let num = |i: usize| -> Result<u32, ()> { tok(i)?.parse().map_err(|_| ()) };
    Ok(match rtype {
        RrType::A => RData::A(tok(0)?.parse().map_err(|_| ())?),
        RrType::Aaaa => RData::Aaaa(tok(0)?.parse().map_err(|_| ())?),
        RrType::Ns => RData::Ns(Name::parse(tok(0)?).map_err(|_| ())?),
        RrType::Cname => RData::Cname(Name::parse(tok(0)?).map_err(|_| ())?),
        RrType::Soa => RData::Soa(SoaRdata {
            mname: Name::parse(tok(0)?).map_err(|_| ())?,
            rname: Name::parse(tok(1)?).map_err(|_| ())?,
            serial: num(2)?,
            refresh: num(3)?,
            retry: num(4)?,
            expire: num(5)?,
            minimum: num(6)?,
        }),
        RrType::Mx => RData::Mx {
            preference: num(0)? as u16,
            exchange: Name::parse(tok(1)?).map_err(|_| ())?,
        },
        RrType::Txt => {
            let mut strings = Vec::new();
            for s in t {
                let inner = s.strip_prefix('"').and_then(|x| x.strip_suffix('"'));
                strings.push(unescape_txt(inner.unwrap_or(s))?);
            }
            RData::Txt(strings)
        }
        RrType::Dnskey | RrType::Cdnskey => {
            let key = DnskeyRdata {
                flags: num(0)? as u16,
                protocol: num(1)? as u8,
                algorithm: num(2)? as u8,
                public_key: dsec_crypto::base64::decode(&t[3..].join("")).map_err(|_| ())?,
            };
            if rtype == RrType::Dnskey {
                RData::Dnskey(key)
            } else {
                RData::Cdnskey(key)
            }
        }
        RrType::Ds | RrType::Cds => {
            let ds = DsRdata {
                key_tag: num(0)? as u16,
                algorithm: num(1)? as u8,
                digest_type: num(2)? as u8,
                digest: parse_hex(&t[3..].join("")).ok_or(())?,
            };
            if rtype == RrType::Ds {
                RData::Ds(ds)
            } else {
                RData::Cds(ds)
            }
        }
        RrType::Rrsig => RData::Rrsig(RrsigRdata {
            type_covered: RrType::parse(tok(0)?).ok_or(())?,
            algorithm: num(1)? as u8,
            labels: num(2)? as u8,
            original_ttl: num(3)?,
            expiration: num(4)?,
            inception: num(5)?,
            key_tag: num(6)? as u16,
            signer_name: Name::parse(tok(7)?).map_err(|_| ())?,
            signature: dsec_crypto::base64::decode(&t[8..].join("")).map_err(|_| ())?,
        }),
        RrType::Nsec => {
            let next = Name::parse(tok(0)?).map_err(|_| ())?;
            let mut types = Vec::new();
            for s in &t[1..] {
                types.push(RrType::parse(s).ok_or(())?);
            }
            RData::Nsec {
                next,
                types: TypeBitmap::from_types(types),
            }
        }
        RrType::Nsec3 => {
            let salt = if tok(3)? == "-" {
                Vec::new()
            } else {
                parse_hex(tok(3)?).ok_or(())?
            };
            let next_hashed = dsec_crypto::base32::decode_hex(tok(4)?).ok_or(())?;
            let mut types = Vec::new();
            for s in &t[5..] {
                types.push(RrType::parse(s).ok_or(())?);
            }
            RData::Nsec3(Nsec3Rdata {
                hash_algorithm: num(0)? as u8,
                flags: num(1)? as u8,
                iterations: num(2)? as u16,
                salt,
                next_hashed,
                types: TypeBitmap::from_types(types),
            })
        }
        RrType::Nsec3Param => {
            let salt = if tok(3)? == "-" {
                Vec::new()
            } else {
                parse_hex(tok(3)?).ok_or(())?
            };
            RData::Nsec3Param(Nsec3ParamRdata {
                hash_algorithm: num(0)? as u8,
                flags: num(1)? as u8,
                iterations: num(2)? as u16,
                salt,
            })
        }
        other => {
            // RFC 3597: \# <len> <hex>
            if tok(0)? != "\\#" {
                return Err(());
            }
            let len: usize = tok(1)?.parse().map_err(|_| ())?;
            let data = parse_hex(&t[2..].join("")).ok_or(())?;
            if data.len() != len {
                return Err(());
            }
            RData::Unknown { rtype: other, data }
        }
    })
}

/// Reverses the TXT presentation escaping: `\\`, `\"`, and `\DDD`.
fn unescape_txt(s: &str) -> Result<Vec<u8>, ()> {
    let mut out = Vec::with_capacity(s.len());
    let mut bytes = s.bytes();
    while let Some(b) = bytes.next() {
        if b != b'\\' {
            out.push(b);
            continue;
        }
        let next = bytes.next().ok_or(())?;
        if next.is_ascii_digit() {
            let d2 = bytes.next().ok_or(())?;
            let d3 = bytes.next().ok_or(())?;
            if !d2.is_ascii_digit() || !d3.is_ascii_digit() {
                return Err(());
            }
            let v = (next - b'0') as u32 * 100 + (d2 - b'0') as u32 * 10 + (d3 - b'0') as u32;
            if v > 255 {
                return Err(());
            }
            out.push(v as u8);
        } else {
            out.push(next);
        }
    }
    Ok(out)
}

fn parse_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_zone() -> Zone {
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

    #[test]
    fn add_and_lookup() {
        let z = sample_zone();
        assert_eq!(z.len(), 3);
        let set = z.rrset(&name("www.example.com"), RrType::A).unwrap();
        assert_eq!(set.len(), 1);
        assert!(z.rrset(&name("www.example.com"), RrType::Aaaa).is_none());
        assert!(z.rrset(&name("other.example.com"), RrType::A).is_none());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let z = sample_zone();
        assert!(z.rrset(&name("WWW.EXAMPLE.COM"), RrType::A).is_some());
    }

    #[test]
    fn add_rejects_out_of_zone() {
        let mut z = sample_zone();
        let err = z.add(Record::new(
            name("example.org"),
            60,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
        assert!(err.is_err());
    }

    #[test]
    fn duplicate_records_are_ignored() {
        let mut z = sample_zone();
        let rec = Record::new(
            name("www.example.com"),
            300,
            RData::A("192.0.2.10".parse().unwrap()),
        );
        z.add(rec).unwrap();
        assert_eq!(z.rrset(&name("www.example.com"), RrType::A).unwrap().len(), 1);
    }

    #[test]
    fn remove_rrset_and_name() {
        let mut z = sample_zone();
        assert_eq!(z.remove_rrset(&name("www.example.com"), RrType::A), 1);
        assert_eq!(z.remove_rrset(&name("www.example.com"), RrType::A), 0);
        assert_eq!(z.remove_name(&name("example.com")), 2);
        assert!(z.is_empty());
    }

    /// In canonical order `b.example.com` sits between `b.a.example.com`
    /// and its own child `a.b.example.com`, with `b.c.example.com` after:
    /// neighbours that share its first label. Per-owner operations must
    /// touch exactly its own range.
    #[test]
    fn per_owner_operations_touch_only_that_owner() {
        let mut z = Zone::new(name("example.com"));
        let a = |owner: &str, last: u8| {
            Record::new(name(owner), 300, RData::A([192, 0, 2, last].into()))
        };
        for owner in ["b.a.example.com", "b.example.com", "a.b.example.com", "b.c.example.com"] {
            z.add(a(owner, 1)).unwrap();
        }
        z.add(a("B.example.com", 2)).unwrap();
        z.add(Record::new(name("b.example.com"), 300, RData::Txt(vec![b"x".to_vec()])))
            .unwrap();

        let at_b = z.records_at(&name("B.Example.com"));
        assert_eq!(at_b.len(), 3);
        assert!(at_b.iter().all(|r| r.name == name("b.example.com")));
        let types = z.types_at(&name("b.example.com"));
        assert_eq!(types.iter().collect::<Vec<_>>(), vec![RrType::A, RrType::Txt]);
        assert!(z.records_at(&name("c.example.com")).is_empty());

        assert_eq!(z.remove_name(&name("B.example.COM")), 3);
        assert_eq!(z.remove_name(&name("b.example.com")), 0);
        assert_eq!(
            z.owner_names(),
            vec![name("b.a.example.com"), name("a.b.example.com"), name("b.c.example.com")]
        );
        // `b.example.com` holds no records any more but still has a child.
        assert!(z.name_exists(&name("b.example.com")));
        assert!(z.name_exists(&name("c.example.com")));
        assert!(!z.name_exists(&name("d.example.com")));
        assert!(!z.name_exists(&name("a.example.org")));
    }

    #[test]
    fn name_exists_includes_descendants() {
        let z = sample_zone();
        assert!(z.name_exists(&name("example.com")));
        assert!(z.name_exists(&name("www.example.com")));
        assert!(!z.name_exists(&name("nope.example.com")));
    }

    #[test]
    fn types_at_owner() {
        let z = sample_zone();
        let types = z.types_at(&name("example.com"));
        assert!(types.contains(RrType::Soa));
        assert!(types.contains(RrType::Ns));
        assert!(!types.contains(RrType::A));
    }

    #[test]
    fn find_delegation() {
        let mut tld = Zone::new(name("com"));
        tld.add(Record::new(
            name("example.com"),
            172800,
            RData::Ns(name("ns1.example-dns.net")),
        ))
        .unwrap();
        let (cut, set) = tld.find_delegation(&name("www.example.com")).unwrap();
        assert_eq!(cut, name("example.com"));
        assert_eq!(set.len(), 1);
        // Queries for the zone apex of the TLD itself find no delegation.
        assert!(tld.find_delegation(&name("com")).is_none());
        assert!(tld.find_delegation(&name("other.com")).is_none());
    }

    #[test]
    fn text_round_trip() {
        let z = sample_zone();
        let text = z.to_text();
        let back = Zone::from_text(&text).unwrap();
        assert_eq!(back, z);
    }

    #[test]
    fn text_round_trip_dnssec_types() {
        let mut z = Zone::new(name("example.com"));
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Dnskey(DnskeyRdata {
                flags: 257,
                protocol: 3,
                algorithm: 8,
                public_key: vec![1, 2, 3, 4, 5, 6, 7, 8],
            }),
        ))
        .unwrap();
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Ds(DsRdata {
                key_tag: 60485,
                algorithm: 8,
                digest_type: 2,
                digest: vec![0xAB; 32],
            }),
        ))
        .unwrap();
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Rrsig(RrsigRdata {
                type_covered: RrType::Dnskey,
                algorithm: 8,
                labels: 2,
                original_ttl: 3600,
                expiration: 1483228800,
                inception: 1480550400,
                key_tag: 60485,
                signer_name: name("example.com"),
                signature: vec![9; 64],
            }),
        ))
        .unwrap();
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Nsec {
                next: name("www.example.com"),
                types: TypeBitmap::from_types([RrType::Soa, RrType::Dnskey]),
            },
        ))
        .unwrap();
        let back = Zone::from_text(&z.to_text()).unwrap();
        assert_eq!(back, z);
    }

    #[test]
    fn text_round_trip_nsec3() {
        let mut z = Zone::new(name("example.com"));
        z.add(Record::new(
            name("0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.example.com"),
            3600,
            RData::Nsec3(Nsec3Rdata {
                hash_algorithm: 1,
                flags: 0,
                iterations: 12,
                salt: vec![0xAA, 0xBB, 0xCC, 0xDD],
                next_hashed: vec![0x5C; 20],
                types: TypeBitmap::from_types([RrType::A, RrType::Rrsig]),
            }),
        ))
        .unwrap();
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Nsec3Param(Nsec3ParamRdata {
                hash_algorithm: 1,
                flags: 0,
                iterations: 12,
                salt: vec![],
            }),
        ))
        .unwrap();
        let back = Zone::from_text(&z.to_text()).unwrap();
        assert_eq!(back, z);
    }

    #[test]
    fn text_round_trip_txt_and_unknown() {
        let mut z = Zone::new(name("example.com"));
        z.add(Record::new(
            name("example.com"),
            60,
            RData::Txt(vec![b"v=spf1 -all".to_vec()]),
        ))
        .unwrap();
        z.add(Record::new(
            name("example.com"),
            60,
            RData::Unknown {
                rtype: RrType::Unknown(999),
                data: vec![0xde, 0xad],
            },
        ))
        .unwrap();
        let back = Zone::from_text(&z.to_text()).unwrap();
        assert_eq!(back, z);
    }

    #[test]
    fn parse_rejects_syntax_errors() {
        assert!(Zone::from_text("example.com. 60 IN A 192.0.2.1").is_err()); // no $ORIGIN
        assert!(Zone::from_text("$ORIGIN example.com.\nfoo").is_err());
        assert!(Zone::from_text("$ORIGIN example.com.\nx.example.com. abc IN A 192.0.2.1").is_err());
        assert!(Zone::from_text("$ORIGIN example.com.\nx.example.com. 60 CH A 192.0.2.1").is_err());
        assert!(Zone::from_text("$ORIGIN example.com.\nx.example.com. 60 IN A notanip").is_err());
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let z = Zone::from_text(
            "; header comment\n$ORIGIN example.com.\n\nwww.example.com. 60 IN A 192.0.2.1 ; inline\n",
        )
        .unwrap();
        assert_eq!(z.len(), 1);
    }
}
