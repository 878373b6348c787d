//! Low-level wire-format reader and writer (RFC 1035 §4.1.4 compression).
//!
//! [`WireWriter`] appends big-endian integers, raw bytes, and domain names,
//! optionally compressing names with pointers to earlier occurrences.
//! [`WireReader`] is a cursor over a full message buffer — it must see the
//! whole message because compression pointers reference absolute offsets.

use crate::name::{Name, NameBuilder};
use crate::WireError;

/// Maximum pointer offset (14 bits).
const MAX_POINTER: usize = 0x3FFF;

/// Serializes DNS wire data with optional name compression.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// Every label suffix written so far with the offset of its first
    /// occurrence (for compression pointers). A suffix shares its name's
    /// buffer and compares case-insensitively; a message holds a handful,
    /// so a linear probe beats hashing them.
    name_offsets: Vec<(Name, u16)>,
    /// When false (the canonical/RDATA-signing mode), names are never
    /// compressed.
    compression: bool,
}

impl WireWriter {
    /// A writer with compression enabled (message building).
    pub fn new() -> Self {
        WireWriter {
            buf: Vec::with_capacity(512),
            name_offsets: Vec::new(),
            compression: true,
        }
    }

    /// A writer that never emits compression pointers. Required for RDATA
    /// of DNSSEC-signed types (RFC 3597 §4: new types must not compress).
    pub fn uncompressed() -> Self {
        WireWriter {
            compression: false,
            ..Self::new()
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a domain name, emitting a compression pointer when a suffix
    /// of the name was already written (and compression is enabled).
    pub fn put_name(&mut self, name: &Name) {
        let flat = name.flat();
        if !self.compression {
            self.buf.extend_from_slice(flat);
            self.buf.push(0);
            return;
        }
        let mut pos = 0;
        while pos < flat.len() {
            let known = self
                .name_offsets
                .iter()
                .find(|(suffix, _)| suffix.flat().eq_ignore_ascii_case(&flat[pos..]));
            if let Some(&(_, offset)) = known {
                self.put_u16(0xC000 | offset);
                return;
            }
            if self.buf.len() <= MAX_POINTER {
                self.name_offsets
                    .push((name.suffix_at(pos), self.buf.len() as u16));
            }
            let next = pos + 1 + usize::from(flat[pos]);
            self.buf.extend_from_slice(&flat[pos..next]);
            pos = next;
        }
        self.buf.push(0);
    }

    /// Overwrites a previously written big-endian u16 at `offset`
    /// (used to patch RDLENGTH after RDATA is serialized).
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        self.buf[offset..offset + 2].copy_from_slice(&v.to_be_bytes());
    }
}

/// A cursor over a DNS message buffer with pointer-chasing name decoding.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when the cursor is at the end.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Advances the cursor to an absolute position (for bounded sub-reads).
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.data.len() {
            return Err(WireError::Truncated);
        }
        self.pos = pos;
        Ok(())
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.data.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian u16.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let hi = self.get_u8()? as u16;
        let lo = self.get_u8()? as u16;
        Ok((hi << 8) | lo)
    }

    /// Reads a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let hi = self.get_u16()? as u32;
        let lo = self.get_u16()? as u32;
        Ok((hi << 16) | lo)
    }

    /// Reads `len` raw bytes.
    pub fn get_bytes(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < len {
            return Err(WireError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads a (possibly compressed) domain name, chasing pointers with a
    /// hop limit so malicious loops cannot hang the decoder.
    pub fn get_name(&mut self) -> Result<Name, WireError> {
        let mut name = NameBuilder::new();
        let mut pos = self.pos;
        let mut jumped = false;
        let mut hops = 0;
        loop {
            let len = *self.data.get(pos).ok_or(WireError::Truncated)? as usize;
            match len {
                0 => {
                    pos += 1;
                    if !jumped {
                        self.pos = pos;
                    }
                    return Ok(name.finish());
                }
                l if l & 0xC0 == 0xC0 => {
                    let lo = *self.data.get(pos + 1).ok_or(WireError::Truncated)? as usize;
                    let target = ((len & 0x3F) << 8) | lo;
                    if !jumped {
                        self.pos = pos + 2;
                        jumped = true;
                    }
                    // Pointers must go strictly backwards; combined with the
                    // hop cap this bounds the walk.
                    if target >= pos {
                        return Err(WireError::BadPointer);
                    }
                    hops += 1;
                    if hops > 128 {
                        return Err(WireError::PointerLoop);
                    }
                    pos = target;
                }
                l if l & 0xC0 != 0 => return Err(WireError::BadLabelType(len as u8)),
                l => {
                    let start = pos + 1;
                    let end = start + l;
                    if end > self.data.len() {
                        return Err(WireError::Truncated);
                    }
                    // Rejects the name the moment it outgrows 255 octets,
                    // however many pointers are still to chase.
                    name.push_label(&self.data[start..end])?;
                    pos = end;
                    if !jumped {
                        self.pos = pos;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn integers_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_bytes(&[1, 2, 3]);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_bytes(3).unwrap(), &[1, 2, 3]);
        assert!(r.is_at_end());
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn name_round_trip_uncompressed() {
        let mut w = WireWriter::uncompressed();
        w.put_name(&name("www.example.com"));
        w.put_name(&name("example.com"));
        let buf = w.into_bytes();
        // No pointers: total length is full encodings.
        assert_eq!(buf.len(), 17 + 13);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_name().unwrap(), name("www.example.com"));
        assert_eq!(r.get_name().unwrap(), name("example.com"));
    }

    #[test]
    fn compression_reuses_suffix() {
        let mut w = WireWriter::new();
        w.put_name(&name("www.example.com"));
        w.put_name(&name("mail.example.com"));
        w.put_name(&name("example.com"));
        let buf = w.into_bytes();
        // Second name: "mail" label (5) + pointer (2); third: pointer only.
        assert_eq!(buf.len(), 17 + 7 + 2);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_name().unwrap(), name("www.example.com"));
        assert_eq!(r.get_name().unwrap(), name("mail.example.com"));
        assert_eq!(r.get_name().unwrap(), name("example.com"));
        assert!(r.is_at_end());
    }

    #[test]
    fn compression_is_case_insensitive() {
        let mut w = WireWriter::new();
        w.put_name(&name("EXAMPLE.com"));
        w.put_name(&name("example.COM"));
        let buf = w.into_bytes();
        assert_eq!(buf.len(), 13 + 2);
    }

    #[test]
    fn root_name() {
        let mut w = WireWriter::new();
        w.put_name(&Name::root());
        let buf = w.into_bytes();
        assert_eq!(buf, vec![0]);
        let mut r = WireReader::new(&buf);
        assert!(r.get_name().unwrap().is_root());
    }

    #[test]
    fn reader_rejects_forward_pointer() {
        // Pointer to itself.
        let buf = [0xC0, 0x00];
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.get_name(), Err(WireError::BadPointer)));
    }

    #[test]
    fn reader_rejects_pointer_loop() {
        // Two pointers bouncing: 0 -> ... can't loop forward, so craft
        // a label then pointer back into itself indirectly.
        // offset 0: label "a", offset 2: pointer to 0 → name "a" then "a"...
        // That resolves: a -> pointer(0) -> reads label a again -> pointer...
        let buf = [1, b'a', 0xC0, 0x00];
        let mut r = WireReader::new(&buf);
        r.seek(2).unwrap();
        // pointer at 2 goes to 0, reads "a", then hits pointer at 2 again —
        // but target 0 < pos 2 each time... the cycle a(0)→ptr(2)→a(0) is
        // caught by the hop cap.
        assert!(r.get_name().is_err());
    }

    #[test]
    fn reader_rejects_bad_label_type() {
        let buf = [0x80, 0x01];
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.get_name(), Err(WireError::BadLabelType(_))));
    }

    #[test]
    fn reader_rejects_truncated_label() {
        let buf = [5, b'a', b'b'];
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.get_name(), Err(WireError::Truncated)));
    }

    #[test]
    fn patch_u16() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(7);
        w.patch_u16(0, 0xBEEF);
        assert_eq!(w.into_bytes(), vec![0xBE, 0xEF, 7]);
    }

    #[test]
    fn pointer_only_emitted_within_range() {
        // Names written past offset 0x3FFF must not be recorded as targets.
        let mut w = WireWriter::new();
        w.put_bytes(&vec![0u8; 0x4000]);
        w.put_name(&name("deep.example"));
        w.put_name(&name("deep.example"));
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        r.seek(0x4000).unwrap();
        assert_eq!(r.get_name().unwrap(), name("deep.example"));
        assert_eq!(r.get_name().unwrap(), name("deep.example"));
    }
}
