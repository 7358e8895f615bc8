//! The RITM status payload — the body of one `RitmStatus` TLS record and of
//! the protocol's status responses.
//!
//! Moved here from `ritm-agent` (which re-exports it) when the wire protocol
//! grew its own crate: the payload is a wire format shared by the RA that
//! injects it, the protocol endpoints that serve it, and the client that
//! validates it.

use ritm_crypto::wire::{DecodeError, Reader, Writer};
use ritm_dictionary::{MultiRevocationStatus, RevocationStatus, SignedRoot};

/// Marker byte separating individual statuses from the compressed section
/// in an encoded [`StatusPayload`]. Individual-status counts are capped
/// below it, so legacy single-status payloads decode unchanged.
const MULTI_SECTION_MARKER: u8 = 0xFF;

/// The payload of one `RitmStatus` record: statuses for each certificate of
/// the chain, leaf first (one entry unless the RA proves the full chain).
/// Same-CA chain runs may instead be carried as compressed
/// [`MultiRevocationStatus`] entries in [`StatusPayload::multi`]; the
/// individual statuses cover the chain positions not covered by a
/// compressed entry, in chain order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatusPayload {
    /// Individual revocation statuses, aligned with the (uncompressed)
    /// certificate-chain positions.
    pub statuses: Vec<RevocationStatus>,
    /// Compressed same-CA chain segments: the RA proves every same-CA run
    /// of two or more certificates after the leaf as one entry, so this is
    /// empty only for chains without such a run.
    pub multi: Vec<MultiRevocationStatus>,
}

impl StatusPayload {
    /// A payload of individual statuses only (the classic form).
    pub fn single(statuses: Vec<RevocationStatus>) -> Self {
        StatusPayload {
            statuses,
            multi: Vec::new(),
        }
    }

    /// Total certificates covered (individual + compressed).
    pub fn covered(&self) -> usize {
        self.statuses.len() + self.multi.iter().map(|m| m.serials.len()).sum::<usize>()
    }

    /// `true` when the payload proves nothing.
    pub fn is_empty(&self) -> bool {
        self.statuses.is_empty() && self.multi.is_empty()
    }

    /// The signed root of the payload's first entry — what the multi-RA
    /// freshness comparison (§VIII) keys on.
    pub fn primary_root(&self) -> Option<&SignedRoot> {
        self.statuses
            .first()
            .map(|s| &s.signed_root)
            .or_else(|| self.multi.first().map(|m| &m.signed_root))
    }

    /// Exact encoded size in bytes, computed without serializing.
    pub fn encoded_len(&self) -> usize {
        1 + self
            .statuses
            .iter()
            .map(|s| 3 + s.encoded_len())
            .sum::<usize>()
            + if self.multi.is_empty() {
                0
            } else {
                2 + self
                    .multi
                    .iter()
                    .map(|m| 3 + m.encoded_len())
                    .sum::<usize>()
            }
    }

    /// Encodes the payload (pre-sized; never reallocates). Payloads without
    /// compressed entries encode byte-identically to the legacy format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Appends the encoding to an existing writer (protocol envelopes
    /// embed payloads without an intermediate buffer).
    ///
    /// # Panics
    ///
    /// Panics when the payload holds ≥255 individual or >255 compressed
    /// entries (chains are single digits in practice).
    pub fn encode_into(&self, w: &mut Writer) {
        // Hard asserts (not debug): a silent `as u8` truncation would emit
        // an undecodable payload; chains are single digits in practice.
        assert!(
            self.statuses.len() < MULTI_SECTION_MARKER as usize,
            "status count overflow"
        );
        w.u8(self.statuses.len() as u8);
        for s in &self.statuses {
            w.vec24(&s.to_bytes());
        }
        if !self.multi.is_empty() {
            assert!(self.multi.len() <= u8::MAX as usize, "multi count overflow");
            w.u8(MULTI_SECTION_MARKER);
            w.u8(self.multi.len() as u8);
            for m in &self.multi {
                w.vec24(&m.to_bytes());
            }
        }
    }

    /// Decodes a payload. (Envelopes embed the payload length-prefixed, so
    /// the whole input is always exactly one payload; trailing bytes are
    /// rejected because the multi section is recognized by non-emptiness.)
    ///
    /// # Errors
    ///
    /// Returns a wire [`DecodeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let n = r.u8("status count")? as usize;
        if n >= MULTI_SECTION_MARKER as usize {
            return Err(DecodeError::new("status count reserved", 0));
        }
        // Each status needs at least its 3-byte length prefix.
        r.check_count(n, 3, "status count exceeds buffer")?;
        let mut statuses = Vec::with_capacity(n);
        for _ in 0..n {
            let raw = r.vec24("status entry")?;
            statuses.push(RevocationStatus::from_bytes(raw)?);
        }
        let mut multi = Vec::new();
        if !r.is_done() {
            let marker = r.u8("multi section marker")?;
            if marker != MULTI_SECTION_MARKER {
                return Err(DecodeError::new("bad multi section marker", r.position()));
            }
            let m = r.u8("multi status count")? as usize;
            r.check_count(m, 3, "multi status count exceeds buffer")?;
            for _ in 0..m {
                let raw = r.vec24("multi status entry")?;
                multi.push(MultiRevocationStatus::from_bytes(raw)?);
            }
        }
        r.finish("status payload trailing")?;
        Ok(StatusPayload { statuses, multi })
    }
}
