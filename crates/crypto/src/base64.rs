//! Base64 (RFC 4648) encode/decode.
//!
//! DNSKEY and RRSIG RDATA are presented in base64 in zone files and reports;
//! this is the shared implementation used by the wire crate's text forms.

/// Base64 alphabet (standard, with padding).
const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes `data` as padded standard base64.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(triple >> 18) as usize & 0x3f] as char);
        out.push(ALPHABET[(triple >> 12) as usize & 0x3f] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(triple >> 6) as usize & 0x3f] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[triple as usize & 0x3f] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes padded or unpadded standard base64; whitespace is ignored
/// (zone-file presentation splits key material across whitespace).
pub fn decode(s: &str) -> Result<Vec<u8>, Base64Error> {
    let mut out = Vec::with_capacity(s.len() / 4 * 3);
    let mut acc: u32 = 0;
    let mut bits = 0u8;
    let mut padding_seen = false;
    for c in s.bytes() {
        if c.is_ascii_whitespace() {
            continue;
        }
        if c == b'=' {
            padding_seen = true;
            continue;
        }
        if padding_seen {
            return Err(Base64Error::DataAfterPadding);
        }
        let v = decode_char(c).ok_or(Base64Error::InvalidCharacter(c as char))?;
        acc = (acc << 6) | v as u32;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    // Leftover bits must be zero padding bits (< 6 of them used).
    if bits >= 6 || (acc & ((1 << bits) - 1)) != 0 {
        return Err(Base64Error::TrailingBits);
    }
    Ok(out)
}

fn decode_char(c: u8) -> Option<u8> {
    match c {
        b'A'..=b'Z' => Some(c - b'A'),
        b'a'..=b'z' => Some(c - b'a' + 26),
        b'0'..=b'9' => Some(c - b'0' + 52),
        b'+' => Some(62),
        b'/' => Some(63),
        _ => None,
    }
}

/// Errors from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base64Error {
    /// A byte outside the base64 alphabet (and not whitespace/padding).
    InvalidCharacter(char),
    /// Non-padding data appeared after an `=` padding character.
    DataAfterPadding,
    /// The input length left non-zero dangling bits.
    TrailingBits,
}

impl std::fmt::Display for Base64Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Base64Error::InvalidCharacter(c) => write!(f, "invalid base64 character {c:?}"),
            Base64Error::DataAfterPadding => write!(f, "base64 data after padding"),
            Base64Error::TrailingBits => write!(f, "invalid base64 length (dangling bits)"),
        }
    }
}

impl std::error::Error for Base64Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        let cases = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, enc) in cases {
            assert_eq!(encode(plain.as_bytes()), enc);
            assert_eq!(decode(enc).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn decode_ignores_whitespace() {
        assert_eq!(decode("Zm9v\n YmFy").unwrap(), b"foobar");
    }

    #[test]
    fn decode_unpadded() {
        assert_eq!(decode("Zm9vYg").unwrap(), b"foob");
    }

    #[test]
    fn decode_rejects_invalid() {
        assert!(matches!(
            decode("Zm9*"),
            Err(Base64Error::InvalidCharacter('*'))
        ));
        assert!(matches!(
            decode("Zg==Zg"),
            Err(Base64Error::DataAfterPadding)
        ));
        assert!(matches!(decode("Z"), Err(Base64Error::TrailingBits)));
        // 'h' = 33 -> low bits non-zero for 1-byte output
        assert!(matches!(decode("Zh=="), Err(Base64Error::TrailingBits)));
    }

    #[test]
    fn binary_round_trip() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }
}
