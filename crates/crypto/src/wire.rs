//! Deterministic byte-level encoding helpers.
//!
//! Everything RITM signs or hashes (signed roots, proofs, TLS messages) needs
//! a canonical byte representation, so all wire formats in this workspace are
//! hand-rolled big-endian TLV-style encodings built on these two types.

/// Error produced when decoding runs off the end of the buffer or meets an
/// invalid value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Human-readable description of what failed to decode.
    pub context: &'static str,
    /// Offset at which decoding failed.
    pub offset: usize,
}

impl DecodeError {
    /// Creates a decode error.
    pub fn new(context: &'static str, offset: usize) -> Self {
        DecodeError { context, offset }
    }
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "decode error at offset {}: {}",
            self.offset, self.context
        )
    }
}

impl std::error::Error for DecodeError {}

/// An append-only encoder.
///
/// # Examples
///
/// ```
/// use ritm_crypto::wire::Writer;
/// let mut w = Writer::new();
/// w.u16(0x0303);
/// w.bytes(&[1, 2, 3]);
/// assert_eq!(w.into_bytes(), vec![0x03, 0x03, 1, 2, 3]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Wraps an existing buffer, appending after its current contents —
    /// how encoders reuse pooled scratch without an intermediate copy
    /// (`mem::take` the scratch in, [`into_bytes`](Writer::into_bytes) it
    /// back out).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a 24-bit big-endian length (TLS handshake convention).
    ///
    /// # Panics
    ///
    /// Panics if `v >= 2^24`.
    pub fn u24(&mut self, v: u32) -> &mut Self {
        assert!(v < 1 << 24, "u24 overflow");
        self.buf.extend_from_slice(&v.to_be_bytes()[1..]);
        self
    }

    /// Appends a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends `v` as a minimal LEB128 varint: seven bits per byte, low
    /// group first, the high bit set on every byte but the last
    /// ([`varint_len`] bytes).
    pub fn varint(&mut self, mut v: u64) -> &mut Self {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8)
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a `u8`-length-prefixed byte string.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() > 255`.
    pub fn vec8(&mut self, v: &[u8]) -> &mut Self {
        assert!(v.len() <= u8::MAX as usize, "vec8 overflow");
        self.u8(v.len() as u8);
        self.bytes(v)
    }

    /// Appends a `u16`-length-prefixed byte string.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() > 65535`.
    pub fn vec16(&mut self, v: &[u8]) -> &mut Self {
        assert!(v.len() <= u16::MAX as usize, "vec16 overflow");
        self.u16(v.len() as u16);
        self.bytes(v)
    }

    /// Appends a `u24`-length-prefixed byte string.
    pub fn vec24(&mut self, v: &[u8]) -> &mut Self {
        self.u24(v.len() as u32);
        self.bytes(v)
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Bytes [`Writer::varint`] takes for `v`: one per started 7-bit group.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// A cursor-based decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::new(context, self.pos));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, DecodeError> {
        let b = self.take(2, context)?;
        Ok(u16::from_be_bytes(b.try_into().expect("2 bytes")))
    }

    /// Reads a 24-bit big-endian value.
    pub fn u24(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(3, context)?;
        Ok(u32::from_be_bytes([0, b[0], b[1], b[2]]))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, context)?;
        Ok(u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, context)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a [`Writer::varint`], accepting only the minimal encoding —
    /// no trailing zero group, nothing past 64 bits — so every value has
    /// exactly one byte string.
    pub fn varint(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8(context)?;
            let group = u64::from(b & 0x7f);
            if (shift == 63 && b > 1) || (shift > 0 && b == 0) {
                return Err(DecodeError::new(context, start));
            }
            v |= group << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        unreachable!("the tenth byte is at most 1")
    }

    /// Reads exactly `N` bytes into an array.
    pub fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], DecodeError> {
        let b = self.take(N, context)?;
        Ok(b.try_into().expect("N bytes"))
    }

    /// Reads `n` raw bytes.
    pub fn slice(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        self.take(n, context)
    }

    /// Reads a `u8`-length-prefixed byte string.
    pub fn vec8(&mut self, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.u8(context)? as usize;
        self.take(n, context)
    }

    /// Reads a `u16`-length-prefixed byte string.
    pub fn vec16(&mut self, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.u16(context)? as usize;
        self.take(n, context)
    }

    /// Reads a `u24`-length-prefixed byte string.
    pub fn vec24(&mut self, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.u24(context)? as usize;
        self.take(n, context)
    }

    /// Validates a decoded element count against the bytes actually left:
    /// each element needs at least `min_elem_bytes` to encode, so any count
    /// exceeding `remaining / min_elem_bytes` is forged. Call this before
    /// sizing an allocation or loop by an attacker-controlled count.
    pub fn check_count(
        &self,
        count: usize,
        min_elem_bytes: usize,
        context: &'static str,
    ) -> Result<(), DecodeError> {
        if count.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(DecodeError::new(context, self.pos));
        }
        Ok(())
    }

    /// Fails unless the reader is fully consumed — catches trailing garbage.
    pub fn finish(&self, context: &'static str) -> Result<(), DecodeError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(DecodeError::new(context, self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut w = Writer::new();
        w.u8(1)
            .u16(2)
            .u24(3)
            .u32(4)
            .u64(5)
            .vec8(b"abc")
            .vec16(b"de")
            .vec24(b"f");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 1);
        assert_eq!(r.u16("b").unwrap(), 2);
        assert_eq!(r.u24("c").unwrap(), 3);
        assert_eq!(r.u32("d").unwrap(), 4);
        assert_eq!(r.u64("e").unwrap(), 5);
        assert_eq!(r.vec8("f").unwrap(), b"abc");
        assert_eq!(r.vec16("g").unwrap(), b"de");
        assert_eq!(r.vec24("h").unwrap(), b"f");
        assert!(r.finish("end").is_ok());
    }

    #[test]
    fn truncated_input_errors_with_offset() {
        // vec8 claims 5 bytes but only 1 follows (failure offset = 1).
        let mut r = Reader::new(&[5, 9]);
        let err = r.clone().vec8("v").unwrap_err();
        assert_eq!(err.offset, 1);
        // The same bytes read fine as a u16.
        assert_eq!(r.u16("ok").unwrap(), 0x0509);
    }

    #[test]
    fn varints_round_trip_at_every_group_boundary() {
        for shift in 0..64 {
            for v in [(1u64 << shift) - 1, 1 << shift, (1 << shift) + 1, u64::MAX] {
                let mut w = Writer::new();
                w.varint(v);
                let bytes = w.into_bytes();
                assert_eq!(bytes.len(), varint_len(v), "{v}");
                let mut r = Reader::new(&bytes);
                assert_eq!(r.varint("v").unwrap(), v);
                assert!(r.finish("end").is_ok());
            }
        }
    }

    #[test]
    fn varints_accept_only_the_minimal_encoding() {
        // Zero padded to two bytes, 1 padded to three, a value past 64 bits,
        // and a group that never ends.
        for bytes in [&[0x80, 0x00][..], &[0x81, 0x80, 0x00], &[0xff; 10], &[0x80]] {
            assert!(Reader::new(bytes).varint("v").is_err(), "{bytes:?}");
        }
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(Reader::new(&max).varint("v").unwrap(), u64::MAX);
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let r = Reader::new(&[1, 2, 3]);
        assert!(r.finish("trailing").is_err());
    }

    #[test]
    #[should_panic(expected = "u24 overflow")]
    fn u24_overflow_panics() {
        Writer::new().u24(1 << 24);
    }

    #[test]
    fn array_read() {
        let mut r = Reader::new(&[9, 8, 7]);
        let a: [u8; 2] = r.array("a").unwrap();
        assert_eq!(a, [9, 8]);
        assert!(r.array::<2>("b").is_err());
    }

    #[test]
    fn error_display() {
        let e = DecodeError::new("bad thing", 12);
        let s = format!("{e}");
        assert!(s.contains("12") && s.contains("bad thing"));
    }

    #[test]
    fn check_count_bounds_by_remaining() {
        let r = Reader::new(&[0; 10]);
        assert!(r.check_count(5, 2, "ok").is_ok());
        assert!(r.check_count(6, 2, "too many").is_err());
        assert!(r.check_count(10, 0, "min clamps to 1").is_ok());
        assert!(r.check_count(11, 0, "min clamps to 1").is_err());
        // Overflow-safe: a huge count must not wrap into acceptance.
        assert!(r.check_count(usize::MAX, 20, "overflow").is_err());
    }
}
