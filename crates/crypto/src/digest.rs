//! The 20-byte truncated SHA-256 digest used throughout RITM.
//!
//! The paper (§VI) truncates SHA-256 output to its first 20 bytes for hash
//! trees and hash chains, trading collision margin for bandwidth. This module
//! provides the [`Digest20`] newtype plus the `H(.)` convenience functions
//! used by the authenticated dictionary and freshness chains.
//!
//! Everything here hashes through [`sha256::digest`], which compresses a
//! message of at most [`sha256::ONE_BLOCK_MAX`] (55) bytes exactly once and
//! never allocates. Every fixed-shape `H(.)` in RITM fits: a chain link is
//! 20 bytes, [`Digest20::hash_pair`] 40, a dictionary node 41, a leaf at most
//! 30 — so each costs one compression, on the CPU's SHA extensions where it
//! has them (see [`sha256`]'s module docs for the dispatch).

use crate::hex;
use crate::sha256;

/// Length in bytes of the truncated digest (paper §VI).
pub const DIGEST_LEN: usize = 20;

/// A 20-byte truncated SHA-256 digest — the `H(.)` of the paper.
///
/// # Examples
///
/// ```
/// use ritm_crypto::digest::Digest20;
/// let d = Digest20::hash(b"hello");
/// assert_eq!(d.as_bytes().len(), 20);
/// assert_eq!(d, Digest20::hash(b"hello"));
/// assert_ne!(d, Digest20::hash(b"world"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest20([u8; DIGEST_LEN]);

impl Digest20 {
    /// The all-zero digest, used as padding sentinel in tree internals.
    pub const ZERO: Digest20 = Digest20([0; DIGEST_LEN]);

    /// Hashes `data` with SHA-256 and truncates to 20 bytes.
    pub fn hash(data: impl AsRef<[u8]>) -> Self {
        let full = sha256::digest(data);
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(&full[..DIGEST_LEN]);
        Digest20(out)
    }

    /// Hashes the concatenation of two digests — the interior-node rule of
    /// the dictionary hash tree.
    pub fn hash_pair(left: &Digest20, right: &Digest20) -> Self {
        let mut buf = [0u8; DIGEST_LEN * 2];
        buf[..DIGEST_LEN].copy_from_slice(&left.0);
        buf[DIGEST_LEN..].copy_from_slice(&right.0);
        Digest20::hash(buf)
    }

    /// Creates a digest from raw bytes (e.g. parsed off the wire).
    pub const fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest20(bytes)
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Consumes the digest, returning the raw bytes.
    pub fn into_bytes(self) -> [u8; DIGEST_LEN] {
        self.0
    }

    /// Parses a digest from a 40-character hexadecimal string.
    ///
    /// # Errors
    ///
    /// Returns [`hex::ParseHexError`] on malformed or wrong-length input.
    pub fn from_hex(s: &str) -> Result<Self, hex::ParseHexError> {
        Ok(Digest20(hex::decode_array(s)?))
    }
}

impl AsRef<[u8]> for Digest20 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest20 {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest20(bytes)
    }
}

impl core::fmt::Debug for Digest20 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Digest20({})", hex::encode(self.0))
    }
}

impl core::fmt::Display for Digest20 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&hex::encode(self.0))
    }
}

/// Applies `H` once: truncated SHA-256.
pub fn h(data: impl AsRef<[u8]>) -> Digest20 {
    Digest20::hash(data)
}

/// Applies `H` iteratively `m` times: `H^m(x)` with `H^0(x) = x` interpreted
/// as the digest of iterating zero times over an initial digest.
pub fn h_iter(x: Digest20, m: u64) -> Digest20 {
    let mut cur = x;
    for _ in 0..m {
        cur = Digest20::hash(cur.as_bytes());
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_is_prefix_of_sha256() {
        let full = sha256::digest(b"ritm");
        let d = Digest20::hash(b"ritm");
        assert_eq!(d.as_bytes()[..], full[..20]);
    }

    #[test]
    fn hash_pair_is_order_sensitive() {
        let a = Digest20::hash(b"a");
        let b = Digest20::hash(b"b");
        assert_ne!(Digest20::hash_pair(&a, &b), Digest20::hash_pair(&b, &a));
    }

    #[test]
    fn h_iter_zero_is_identity() {
        let x = Digest20::hash(b"x");
        assert_eq!(h_iter(x, 0), x);
    }

    #[test]
    fn h_iter_composes() {
        let x = Digest20::hash(b"seed");
        assert_eq!(h_iter(h_iter(x, 3), 4), h_iter(x, 7));
    }

    #[test]
    fn hex_round_trip() {
        let d = Digest20::hash(b"round trip");
        assert_eq!(Digest20::from_hex(&d.to_string()).unwrap(), d);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Digest20::ZERO).is_empty());
    }
}
