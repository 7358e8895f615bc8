//! Certificate serial numbers.
//!
//! A serial number is a positive integer assigned uniquely to every
//! CA-issued certificate, represented by at most 20 bytes (RFC 5280; paper
//! footnote 1). The paper's dataset analysis (§VII-A) found 3-byte serials
//! most common (32 %), so workloads default to 3 bytes.

use ritm_crypto::hex;

/// Maximum encoded length of a serial number in bytes.
pub const MAX_SERIAL_LEN: usize = 20;

/// Error returned when constructing a [`SerialNumber`] from invalid bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerialError {
    /// Serial numbers must contain at least one byte.
    Empty,
    /// Serial numbers are limited to [`MAX_SERIAL_LEN`] bytes.
    TooLong(usize),
}

impl core::fmt::Display for SerialError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SerialError::Empty => f.write_str("serial number must not be empty"),
            SerialError::TooLong(n) => {
                write!(f, "serial number of {n} bytes exceeds the 20-byte maximum")
            }
        }
    }
}

impl std::error::Error for SerialError {}

/// A certificate serial number: 1–20 bytes, compared lexicographically —
/// the sort order of dictionary leaves (paper §III).
///
/// Invariant: `bytes` past `len` are zero. Every constructor goes through
/// [`SerialNumber::new`], which zero-fills them; the derived `Eq` and
/// `Hash` and the integer comparison in `Ord` rely on it.
///
/// # Examples
///
/// ```
/// use ritm_dictionary::SerialNumber;
/// # fn main() -> Result<(), ritm_dictionary::SerialError> {
/// let a = SerialNumber::new(&[0x07, 0x3e, 0x10])?;
/// let b = SerialNumber::new(&[0x07, 0x3e, 0x11])?;
/// assert!(a < b);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SerialNumber {
    bytes: [u8; MAX_SERIAL_LEN],
    len: u8,
}

impl SerialNumber {
    /// Creates a serial number from raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] when `bytes` is empty or longer than 20 bytes.
    pub fn new(bytes: &[u8]) -> Result<Self, SerialError> {
        if bytes.is_empty() {
            return Err(SerialError::Empty);
        }
        if bytes.len() > MAX_SERIAL_LEN {
            return Err(SerialError::TooLong(bytes.len()));
        }
        let mut buf = [0u8; MAX_SERIAL_LEN];
        buf[..bytes.len()].copy_from_slice(bytes);
        Ok(SerialNumber {
            bytes: buf,
            len: bytes.len() as u8,
        })
    }

    /// Creates a 3-byte serial from an integer (the common case in the
    /// paper's dataset). Only the low 24 bits are used.
    pub fn from_u24(v: u32) -> Self {
        let b = v.to_be_bytes();
        SerialNumber::new(&b[1..]).expect("3 bytes is always valid")
    }

    /// Creates an 8-byte serial from an integer.
    pub fn from_u64(v: u64) -> Self {
        SerialNumber::new(&v.to_be_bytes()).expect("8 bytes is always valid")
    }

    /// The serial's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Encoded length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always `false`: serials have at least one byte.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The serial of `len` bytes at the front of `window`; the bytes past
    /// them are ignored. A fixed-size copy and a mask instead of
    /// [`SerialNumber::new`]'s length-dependent copy: the serial log reads
    /// every leaf a proof carries through here. `len` must be 1–20, as
    /// every length the log wrote from a serial is; debug builds check it.
    pub(crate) fn from_window(window: &[u8; MAX_SERIAL_LEN], len: usize) -> Self {
        debug_assert!((1..=MAX_SERIAL_LEN).contains(&len), "serial length {len}");
        let mut bytes = *window;
        for (i, b) in bytes.iter_mut().enumerate() {
            if i >= len {
                *b = 0;
            }
        }
        SerialNumber {
            bytes,
            len: len as u8,
        }
    }

    /// Bit `i` of the serial's trie key: each byte as `1‖b` (9 bits, most
    /// significant first), then a final `0`; bits past the key read `0`.
    /// Keys compare as serials do — a prefix first — and no key is a prefix
    /// of another, so two distinct serials differ at [`Self::crit_bit`].
    pub fn key_bit(&self, i: usize) -> bool {
        let (byte, bit) = (i / 9, i % 9);
        byte < self.len() && (bit == 0 || (self.bytes[byte] >> (8 - bit)) & 1 == 1)
    }

    /// The first key bit at which this serial and a *different* `other`
    /// differ: the bit a crit-bit trie splits the two at.
    pub fn crit_bit(&self, other: &Self) -> usize {
        let (a, b) = (self.as_bytes(), other.as_bytes());
        let common = a.iter().zip(b).take_while(|(x, y)| x == y).count();
        match (a.get(common), b.get(common)) {
            (Some(x), Some(y)) => 9 * common + 1 + (x ^ y).leading_zeros() as usize,
            _ => 9 * common,
        }
    }
}

impl PartialOrd for SerialNumber {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SerialNumber {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Lexicographic over the meaningful bytes, as the paper sorts leaves:
        // the zero-padded buffer as a big-endian `u128` and `u32`, then the
        // length, which breaks the tie a proper prefix leaves.
        let key = |s: &Self| {
            let (head, tail) = s.bytes.split_at(16);
            let head = u128::from_be_bytes(head.try_into().expect("16 bytes"));
            let tail = u32::from_be_bytes(tail.try_into().expect("4 bytes"));
            (head, tail, s.len)
        };
        key(self).cmp(&key(other))
    }
}

impl core::fmt::Debug for SerialNumber {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SerialNumber({})", hex::encode(self.as_bytes()))
    }
}

impl core::fmt::Display for SerialNumber {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&hex::encode(self.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        let a = SerialNumber::new(&[1]).unwrap();
        let b = SerialNumber::new(&[1, 0]).unwrap();
        let c = SerialNumber::new(&[2]).unwrap();
        assert!(a < b, "prefix sorts first");
        assert!(b < c);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(SerialNumber::new(&[]), Err(SerialError::Empty));
    }

    #[test]
    fn too_long_rejected() {
        assert_eq!(SerialNumber::new(&[0u8; 21]), Err(SerialError::TooLong(21)));
        assert!(SerialNumber::new(&[0u8; 20]).is_ok());
    }

    #[test]
    fn from_u24_is_three_bytes() {
        let s = SerialNumber::from_u24(0x073e10);
        assert_eq!(s.as_bytes(), &[0x07, 0x3e, 0x10]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn from_u24_truncates_high_bits() {
        assert_eq!(
            SerialNumber::from_u24(0xff_aabbcc),
            SerialNumber::from_u24(0xaabbcc)
        );
    }

    #[test]
    fn display_is_hex() {
        let s = SerialNumber::new(&[0xde, 0xad]).unwrap();
        assert_eq!(s.to_string(), "dead");
    }

    #[test]
    fn key_bits_order_like_serials() {
        let serials: Vec<SerialNumber> = [&[0u8][..], &[0, 0], &[1], &[1, 0], &[1, 0x80], &[0xff]]
            .iter()
            .map(|b| SerialNumber::new(b).unwrap())
            .collect();
        let key = |s: &SerialNumber| {
            (0..9 * s.len() + 1)
                .map(|i| s.key_bit(i))
                .collect::<Vec<_>>()
        };
        for a in &serials {
            assert!(!a.key_bit(9 * a.len()), "terminator of {a}");
            for b in serials.iter().filter(|b| *b != a) {
                let c = a.crit_bit(b);
                assert_eq!(c, b.crit_bit(a));
                assert_eq!(key(a)[..c], key(b)[..c], "{a} and {b} agree before {c}");
                assert_ne!(a.key_bit(c), b.key_bit(c));
                assert_eq!(a < b, b.key_bit(c), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn distinct_lengths_are_distinct() {
        let a = SerialNumber::new(&[0, 0]).unwrap();
        let b = SerialNumber::new(&[0, 0, 0]).unwrap();
        assert_ne!(a, b);
    }
}
