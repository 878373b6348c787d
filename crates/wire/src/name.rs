//! Domain names (RFC 1035 §3.1) with DNSSEC canonical ordering (RFC 4034 §6.1).
//!
//! A [`Name`] is always *absolute* (rooted). Labels preserve the case they
//! were created with, but equality, hashing, and ordering are ASCII
//! case-insensitive, as the DNS requires. The canonical form used for
//! signing lowercases every label.
//!
//! A name is one immutable, shared buffer holding its labels in
//! uncompressed wire format (`\x03www\x07example\x03com`, no terminating
//! zero) plus the offset its first label starts at. Every label suffix of
//! a name is the same buffer at a larger offset, so `clone`, [`Name::parent`],
//! [`Name::second_level`] and [`Name::to_canonical`] of a lowercase name
//! bump a reference count and allocate nothing (DESIGN.md §7.2).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::WireError;

/// Maximum length of a domain name in wire octets (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;
/// Maximum length of a single label in octets.
pub const MAX_LABEL_LEN: usize = 63;
/// Longest flat form: a full name minus its terminating zero octet.
const MAX_FLAT_LEN: usize = MAX_NAME_LEN - 1;
/// Most labels a name can have (each takes a length octet and ≥ 1 octet).
const MAX_LABELS: usize = MAX_FLAT_LEN / 2;

/// An absolute domain name: a sequence of labels, most-specific first.
///
/// `Name::root()` is the empty sequence. Equality/ordering are
/// case-insensitive; [`Name::canonical_cmp`] implements the RFC 4034 §6.1
/// canonical ordering (by reversed label sequence), which differs from the
/// derived lexicographic order and is what `Ord` delegates to so that
/// sorted collections of names agree with DNSSEC.
#[derive(Clone)]
pub struct Name {
    /// Length-prefixed labels, most-specific first. Possibly shared with
    /// names that have more leading labels than this one.
    buf: Arc<[u8]>,
    /// Where this name's first length octet sits in `buf` (`buf.len()`
    /// for the root). Always on a label boundary.
    start: u8,
}

/// Accumulates validated labels into a stack buffer; the one place the
/// label and name length limits are enforced.
pub(crate) struct NameBuilder {
    flat: [u8; MAX_FLAT_LEN],
    len: usize,
}

impl NameBuilder {
    pub(crate) fn new() -> Self {
        NameBuilder {
            flat: [0; MAX_FLAT_LEN],
            len: 0,
        }
    }

    /// Appends one label, rejecting it as soon as it would break a limit
    /// (so a decoder chasing pointers never accumulates past 255 octets).
    pub(crate) fn push_label(&mut self, label: &[u8]) -> Result<(), WireError> {
        if label.is_empty() {
            return Err(WireError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(label.len()));
        }
        let end = self.len + 1 + label.len();
        if end > MAX_FLAT_LEN {
            return Err(WireError::NameTooLong(end + 1));
        }
        self.flat[self.len] = label.len() as u8;
        self.flat[self.len + 1..end].copy_from_slice(label);
        self.len = end;
        Ok(())
    }

    /// Appends the labels of an existing name.
    fn push_name(&mut self, name: &Name) -> Result<(), WireError> {
        let tail = name.flat();
        let end = self.len + tail.len();
        if end > MAX_FLAT_LEN {
            return Err(WireError::NameTooLong(end + 1));
        }
        self.flat[self.len..end].copy_from_slice(tail);
        self.len = end;
        Ok(())
    }

    pub(crate) fn finish(&self) -> Name {
        Name::from_flat(&self.flat[..self.len])
    }
}

/// Borrowing iterator over a name's labels, most-specific first.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, tail) = self.rest.split_first()?;
        let (label, rest) = tail.split_at(usize::from(len));
        self.rest = rest;
        Some(label)
    }
}

impl Name {
    /// The DNS root (`.`).
    pub fn root() -> Self {
        static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
        Name {
            buf: EMPTY.get_or_init(|| Arc::from([])).clone(),
            start: 0,
        }
    }

    /// Wraps flat labels already known to be valid.
    fn from_flat(flat: &[u8]) -> Name {
        if flat.is_empty() {
            return Name::root();
        }
        Name {
            buf: Arc::from(flat),
            start: 0,
        }
    }

    /// This name's labels in uncompressed wire format, without the
    /// terminating zero octet.
    pub(crate) fn flat(&self) -> &[u8] {
        &self.buf[usize::from(self.start)..]
    }

    /// The label suffix starting `skip` octets into [`Name::flat`]; `skip`
    /// must be on a label boundary.
    pub(crate) fn suffix_at(&self, skip: usize) -> Name {
        let start = usize::from(self.start) + skip;
        assert!(start <= self.buf.len(), "suffix past the end of the name");
        Name {
            buf: Arc::clone(&self.buf),
            // Within the buffer, whose length (≤ 254) fits the `u8`.
            start: start as u8,
        }
    }

    /// Parses a presentation-format name. A trailing dot is optional; the
    /// result is always absolute. `"."` and `""` both give the root.
    ///
    /// Supports `\.`, `\\`, and `\DDD` escapes.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        if s.is_empty() || s == "." {
            return Ok(Name::root());
        }
        let mut name = NameBuilder::new();
        let mut label = [0u8; MAX_LABEL_LEN];
        let mut len = 0;
        let mut chars = s.bytes();
        while let Some(b) = chars.next() {
            let octet = match b {
                b'.' => {
                    name.push_label(&label[..len])?;
                    len = 0;
                    continue;
                }
                b'\\' => {
                    let next = chars.next().ok_or(WireError::BadEscape)?;
                    if next.is_ascii_digit() {
                        let d2 = chars.next().ok_or(WireError::BadEscape)?;
                        let d3 = chars.next().ok_or(WireError::BadEscape)?;
                        if !d2.is_ascii_digit() || !d3.is_ascii_digit() {
                            return Err(WireError::BadEscape);
                        }
                        let v = (next - b'0') as u32 * 100
                            + (d2 - b'0') as u32 * 10
                            + (d3 - b'0') as u32;
                        u8::try_from(v).map_err(|_| WireError::BadEscape)?
                    } else {
                        next
                    }
                }
                other => other,
            };
            if len == MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(len + 1));
            }
            label[len] = octet;
            len += 1;
        }
        if len > 0 {
            name.push_label(&label[..len])?;
        }
        Ok(name.finish())
    }

    /// Builds a name from raw label octets (most-specific first); each
    /// label must be 1–63 octets and the whole name at most 255.
    pub fn from_labels<I>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        let mut name = NameBuilder::new();
        for label in labels {
            name.push_label(label.as_ref())?;
        }
        Ok(name.finish())
    }

    /// Labels as raw octets, most-specific first.
    pub fn labels(&self) -> Labels<'_> {
        Labels { rest: self.flat() }
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.flat().is_empty()
    }

    /// Length in wire-format octets (including the terminating zero).
    pub fn wire_len(&self) -> usize {
        self.flat().len() + 1
    }

    /// The parent zone cut (`example.com.` → `com.`); `None` for the root.
    pub fn parent(&self) -> Option<Name> {
        let &len = self.flat().first()?;
        Some(self.suffix_at(1 + usize::from(len)))
    }

    /// Prepends a label (`www` + `example.com.` → `www.example.com.`).
    pub fn child(&self, label: &str) -> Result<Name, WireError> {
        let mut name = NameBuilder::new();
        name.push_label(label.as_bytes())?;
        name.push_name(self)?;
        Ok(name.finish())
    }

    /// True if `self` equals `other` or is underneath it
    /// (`www.example.com.` is a subdomain of `example.com.` and of `.`).
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        let (flat, tail) = (self.flat(), other.flat());
        let Some(skip) = flat.len().checked_sub(tail.len()) else {
            return false;
        };
        if !flat[skip..].eq_ignore_ascii_case(tail) {
            return false;
        }
        // Labels are arbitrary octets, so matching bytes are not enough:
        // the label `a\003com` ends in the bytes of `com.` without being
        // under it. `skip` must be where one of our labels starts.
        let mut pos = 0;
        while pos < skip {
            pos += 1 + usize::from(flat[pos]);
        }
        pos == skip
    }

    /// True if `self` is *strictly* underneath `other`.
    pub fn is_strict_subdomain_of(&self, other: &Name) -> bool {
        self.flat().len() > other.flat().len() && self.is_subdomain_of(other)
    }

    /// The ancestor (or `self`) made of the last `labels` labels:
    /// `a.b.example.com.` trimmed to 2 is `example.com.`, to 0 the root.
    /// Identity for names that are already that short.
    pub fn trim_to(&self, labels: usize) -> Name {
        let flat = self.flat();
        let mut skip = 0;
        for _ in labels..self.label_count() {
            skip += 1 + usize::from(flat[skip]);
        }
        self.suffix_at(skip)
    }

    /// Second-level-domain view: for `ns1.foo.example.com.` returns
    /// `example.com.`; identity for names with ≤ 2 labels.
    ///
    /// This is the grouping key the paper (§4.2) uses to identify the DNS
    /// operator from NS records.
    pub fn second_level(&self) -> Name {
        self.trim_to(2)
    }

    /// RFC 4034 §6.1 canonical ordering: compare label sequences starting
    /// from the root (i.e., reversed), case-insensitively, shorter
    /// sequence first on prefix ties.
    pub fn canonical_cmp(&self, other: &Name) -> Ordering {
        let (a, b) = (self.flat(), other.flat());
        // Siblings — the names of one zone's delegations — differ in
        // their first label only: compare it without parsing the rest.
        if let (Some(&la), Some(&lb)) = (a.first(), b.first()) {
            let (first_a, parent_a) = a[1..].split_at(usize::from(la));
            let (first_b, parent_b) = b[1..].split_at(usize::from(lb));
            if parent_a.eq_ignore_ascii_case(parent_b) {
                return cmp_folded(first_a, first_b);
            }
        }
        let (mut a_starts, mut b_starts) = ([0u8; MAX_LABELS], [0u8; MAX_LABELS]);
        let a_count = label_starts(a, &mut a_starts);
        let b_count = label_starts(b, &mut b_starts);
        let a_from_root = a_starts[..a_count].iter().rev();
        let b_from_root = b_starts[..b_count].iter().rev();
        for (&sa, &sb) in a_from_root.zip(b_from_root) {
            let la = label_at(a, sa).iter().map(u8::to_ascii_lowercase);
            let lb = label_at(b, sb).iter().map(u8::to_ascii_lowercase);
            match la.cmp(lb) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        a_count.cmp(&b_count)
    }

    /// Appends this name's canonical sort key to `out`: plain byte order
    /// on two keys is [`Name::canonical_cmp`] on their names, so a sort
    /// of many names can encode each once instead of re-parsing both
    /// names on every comparison.
    ///
    /// The key holds the labels from the root, lowercased, each closed
    /// by `0x00`. Label octets `0x00` and `0x01` are written as
    /// `0x01 0x01` and `0x01 0x02`, so no label octet encodes to the
    /// terminator and a label sorts before every longer label it
    /// prefixes.
    pub fn canonical_key(&self, out: &mut Vec<u8>) {
        let flat = self.flat();
        let mut starts = [0u8; MAX_LABELS];
        let count = label_starts(flat, &mut starts);
        for &start in starts[..count].iter().rev() {
            for &octet in label_at(flat, start) {
                match octet {
                    0x00 | 0x01 => out.extend_from_slice(&[0x01, octet + 1]),
                    _ => out.push(octet.to_ascii_lowercase()),
                }
            }
            out.push(0x00);
        }
    }

    /// The same name with all labels lowercased (the canonical form used
    /// when hashing owner names into DS digests and signing RRsets).
    /// Shares this name's buffer when it is lowercase already.
    pub fn to_canonical(&self) -> Name {
        let flat = self.flat();
        if !flat.iter().any(u8::is_ascii_uppercase) {
            return self.clone();
        }
        Name::from_flat(fold_case(flat, &mut [0; MAX_FLAT_LEN]))
    }

    /// Uncompressed canonical wire form (lowercased, no pointers) —
    /// exactly what DNSSEC digests and signatures consume.
    pub fn to_canonical_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend(self.flat().iter().map(u8::to_ascii_lowercase));
        out.push(0);
        out
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::root()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // One case-insensitive pass over both buffers, length octets
        // included. Legal only because a length octet is at most 63, below
        // `b'A'` (65): folding never changes one, so two buffers that match
        // this way split into the same labels.
        self.flat().eq_ignore_ascii_case(other.flat())
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal names differ at most in case, so feed the hasher one
        // folded slice.
        let flat = self.flat();
        if !flat.iter().any(u8::is_ascii_uppercase) {
            return state.write(flat);
        }
        state.write(fold_case(flat, &mut [0; MAX_FLAT_LEN]));
    }
}

/// Notes where each label of `flat` starts, on the stack: labels are
/// stored front to back but compared and keyed back to front. Returns
/// the label count.
fn label_starts(flat: &[u8], starts: &mut [u8; MAX_LABELS]) -> usize {
    let (mut pos, mut count) = (0, 0);
    while pos < flat.len() {
        starts[count] = pos as u8;
        count += 1;
        pos += 1 + usize::from(flat[pos]);
    }
    count
}

/// `a` against `b` as if both were lowercased: the order of two labels.
/// Octets equal as they stand are skipped eight at a time; the fold
/// starts at the first block that differs.
fn cmp_folded(a: &[u8], b: &[u8]) -> Ordering {
    let len = a.len().min(b.len());
    let mut at = 0;
    while at + 8 <= len && a[at..at + 8] == b[at..at + 8] {
        at += 8;
    }
    let (a, b) = (&a[at..], &b[at..]);
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| !x.eq_ignore_ascii_case(y))
    {
        Some(i) => a[i].to_ascii_lowercase().cmp(&b[i].to_ascii_lowercase()),
        None => a.len().cmp(&b.len()),
    }
}

/// The label whose length octet sits at `start` in `flat`.
fn label_at(flat: &[u8], start: u8) -> &[u8] {
    let start = usize::from(start);
    &flat[start + 1..start + 1 + usize::from(flat[start])]
}

/// `flat` lowercased into `out`, in one pass over the whole buffer, length
/// octets included: those are at most 63, below `b'A'` (65), so folding
/// leaves them alone.
fn fold_case<'a>(flat: &[u8], out: &'a mut [u8; MAX_FLAT_LEN]) -> &'a [u8] {
    let out = &mut out[..flat.len()];
    out.copy_from_slice(flat);
    out.make_ascii_lowercase();
    out
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical_cmp(other)
    }
}

/// Seeded tallies and event-log digests hash the `{:?}` of values that
/// contain names (`tests/tick_incremental.rs`), so this reproduces, byte
/// for byte, what `#[derive(Debug)]` printed for the former
/// `Name { labels: Vec<Label> }` over `Label(Vec<u8>)`.
impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Label<'a>(&'a [u8]);
        impl fmt::Debug for Label<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_tuple("Label").field(&self.0).finish()
            }
        }
        struct LabelList<'a>(&'a Name);
        impl fmt::Debug for LabelList<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.labels().map(Label)).finish()
            }
        }
        f.debug_struct("Name")
            .field("labels", &LabelList(self))
            .finish()
    }
}

impl fmt::Display for Name {
    /// Presentation format with `\.`, `\\`, and `\DDD` escaping.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for label in self.labels() {
            for &b in label {
                match b {
                    b'.' => write!(f, "\\.")?,
                    b'\\' => write!(f, "\\\\")?,
                    0x21..=0x7e => write!(f, "{}", b as char)?,
                    _ => write!(f, "\\{b:03}")?,
                }
            }
            write!(f, ".")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

/// A stable, case-insensitive 64-bit FNV-1a hash over a name's labels.
///
/// Identical for names that compare equal (ASCII case folded per label,
/// labels separated by an `0xff` sentinel that cannot appear *as a
/// length-prefix boundary* ambiguity since labels are hashed in order).
/// Deterministic across processes and platforms — resolver cache keys
/// carry it, so the same key always lands in the same place
/// run-to-run.
pub fn name_hash64(name: &Name) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for label in name.labels() {
        for &b in label {
            hash ^= b.to_ascii_lowercase() as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash ^= 0xff;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(name("example.com").to_string(), "example.com.");
        assert_eq!(name("example.com.").to_string(), "example.com.");
        assert_eq!(name(".").to_string(), ".");
        assert_eq!(name("").to_string(), ".");
        assert_eq!(name("WWW.Example.COM").to_string(), "WWW.Example.COM.");
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(name("Example.COM"), name("example.com"));
        assert_ne!(name("example.com"), name("example.org"));
    }

    #[test]
    fn escapes_round_trip() {
        let n = Name::parse("a\\.b.example").unwrap();
        assert_eq!(n.label_count(), 2);
        assert_eq!(n.labels().next(), Some(&b"a.b"[..]));
        assert_eq!(n.to_string(), "a\\.b.example.");
        let re = Name::parse(&n.to_string()).unwrap();
        assert_eq!(re, n);
    }

    #[test]
    fn decimal_escape() {
        let n = Name::parse("\\001\\255.x").unwrap();
        assert_eq!(n.labels().next(), Some(&[1u8, 255][..]));
        assert_eq!(Name::parse(&n.to_string()).unwrap(), n);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Name::parse("a..b").is_err());
        assert!(Name::parse(&"a".repeat(64)).is_err());
        assert!(Name::parse("x\\").is_err());
        assert!(Name::parse("x\\25").is_err());
        assert!(Name::parse("x\\999").is_err());
        // 255-octet limit: 4 × 63-byte labels + dots exceeds it.
        let long = vec!["a".repeat(63); 4].join(".");
        assert!(Name::parse(&long).is_err());
    }

    #[test]
    fn parent_and_child() {
        let n = name("www.example.com");
        assert_eq!(n.parent().unwrap(), name("example.com"));
        assert_eq!(name("com").parent().unwrap(), Name::root());
        assert!(Name::root().parent().is_none());
        assert_eq!(name("example.com").child("www").unwrap(), n);
    }

    #[test]
    fn subdomain_relations() {
        assert!(name("www.example.com").is_subdomain_of(&name("example.com")));
        assert!(name("example.com").is_subdomain_of(&name("example.com")));
        assert!(name("example.com").is_subdomain_of(&Name::root()));
        assert!(!name("example.com").is_subdomain_of(&name("example.org")));
        assert!(!name("notexample.com").is_subdomain_of(&name("example.com")));
        assert!(name("www.example.com").is_strict_subdomain_of(&name("example.com")));
        assert!(!name("example.com").is_strict_subdomain_of(&name("example.com")));
    }

    #[test]
    fn second_level_grouping() {
        // The paper's operator-identification rule.
        assert_eq!(
            name("ns01.domaincontrol.com").second_level(),
            name("domaincontrol.com")
        );
        assert_eq!(name("a.b.c.ovh.net").second_level(), name("ovh.net"));
        assert_eq!(name("example.com").second_level(), name("example.com"));
        assert_eq!(name("com").second_level(), name("com"));
    }

    #[test]
    fn canonical_order_rfc4034_example() {
        // RFC 4034 §6.1 example ordering.
        let sorted = [
            "example",
            "a.example",
            "yljkjljk.a.example",
            "Z.a.example",
            "zABC.a.EXAMPLE",
            "z.example",
            "\\001.z.example",
            "*.z.example",
            "\\200.z.example",
        ];
        for w in sorted.windows(2) {
            let a = Name::parse(w[0]).unwrap();
            let b = Name::parse(w[1]).unwrap();
            assert_eq!(a.canonical_cmp(&b), Ordering::Less, "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn canonical_key_layout() {
        let key = |s: &str| {
            let mut out = Vec::new();
            Name::parse(s).unwrap().canonical_key(&mut out);
            out
        };
        assert_eq!(key("."), b"");
        assert_eq!(key("WWW.Example.com"), b"com\0example\0www\0");
        assert_eq!(key("a\\000\\001\\002.x"), b"x\0a\x01\x01\x01\x02\x02\0");
    }

    #[test]
    fn ord_is_canonical() {
        let mut names = [name("z.example"), name("a.example"), name("example")];
        names.sort();
        assert_eq!(
            names.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
            vec!["example.", "a.example.", "z.example."]
        );
    }

    #[test]
    fn canonical_wire_is_lowercase() {
        let n = name("WwW.ExAmPlE.CoM");
        let wire = n.to_canonical_wire();
        assert_eq!(wire, b"\x03www\x07example\x03com\x00".to_vec());
    }

    #[test]
    fn wire_len() {
        assert_eq!(Name::root().wire_len(), 1);
        assert_eq!(name("example.com").wire_len(), 13);
    }

    #[test]
    fn hash_folds_case_and_separates_labels() {
        assert_eq!(
            name_hash64(&name("www.example.com")),
            name_hash64(&name("WWW.EXAMPLE.com"))
        );
        assert_ne!(name_hash64(&name("ab.c")), name_hash64(&name("a.bc")));
        assert_ne!(
            name_hash64(&name("example.com")),
            name_hash64(&name("example.net"))
        );
        // Root hashes to the FNV offset basis — stable across runs.
        assert_eq!(name_hash64(&Name::root()), 0xcbf2_9ce4_8422_2325);
    }
}
