//! The typed protocol error taxonomy.
//!
//! Every failure a RITM endpoint can report travels the wire as a
//! [`crate::RitmResponse::Error`] carrying one of these variants, so a
//! client can distinguish "object not published yet" (benign, retry next Δ)
//! from "my protocol version is too new" (negotiate down) from "this
//! endpoint does not serve that request" (misrouted) without string
//! matching. Client-side failures that never cross the wire (socket errors,
//! malformed *response* frames) live in [`TransportError`] instead.

use ritm_crypto::wire::{DecodeError, Reader, Writer};
use ritm_dictionary::CaId;

/// A typed, wire-encodable protocol error (the server half of the taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The request's version byte is outside the server's supported window.
    /// Carries both sides so the client can renegotiate.
    UnsupportedVersion {
        /// Version the client asked for.
        requested: u8,
        /// Highest version this server speaks.
        supported: u8,
    },
    /// The request body failed to decode at the given offset.
    Malformed {
        /// Byte offset at which decoding failed.
        offset: u32,
    },
    /// The named CA is not known to this endpoint.
    UnknownCa(CaId),
    /// The CA is known but the requested object is not (yet) available.
    NotFound,
    /// The request kind is valid but this endpoint does not serve it
    /// (e.g. asking a CDN edge for a revocation status).
    Unsupported,
    /// The endpoint is at capacity; retry later.
    Busy,
    /// The endpoint failed internally (stored object undecodable, lock
    /// poisoned, ...). Nothing actionable for the client.
    Internal,
    /// The response was built but could not be framed: its encoding is
    /// `len` bytes against the framing cap `max`
    /// ([`crate::MAX_FRAME_LEN`]). Catch-up pages are clamped to fit, so
    /// this names a server that built an unframeable reply, not a gap too
    /// large to close.
    ResponseTooLarge {
        /// Encoded size the response would have had.
        len: u64,
        /// The frame-body cap it exceeded.
        max: u64,
    },
    /// The server dropped this connection because no frame arrived within
    /// its keepalive window. Sent best-effort as a goodbye before the
    /// close; a client seeing it should reconnect rather than retry on
    /// the same socket.
    IdleTimeout {
        /// The keepalive window, in milliseconds.
        after_ms: u64,
    },
}

impl core::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtoError::UnsupportedVersion {
                requested,
                supported,
            } => write!(
                f,
                "protocol version {requested} unsupported (server speaks up to {supported})"
            ),
            ProtoError::Malformed { offset } => {
                write!(f, "malformed request (decode failed at offset {offset})")
            }
            ProtoError::UnknownCa(ca) => write!(f, "unknown CA {ca}"),
            ProtoError::NotFound => f.write_str("object not found"),
            ProtoError::Unsupported => f.write_str("request not served by this endpoint"),
            ProtoError::Busy => f.write_str("endpoint at capacity"),
            ProtoError::Internal => f.write_str("internal server error"),
            ProtoError::ResponseTooLarge { len, max } => {
                write!(
                    f,
                    "response of {len} bytes exceeds the {max}-byte frame cap"
                )
            }
            ProtoError::IdleTimeout { after_ms } => {
                write!(f, "connection idle past the {after_ms}ms keepalive window")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

// Wire codes. Gaps are reserved for future taxonomy growth.
const CODE_UNSUPPORTED_VERSION: u8 = 0x01;
const CODE_MALFORMED: u8 = 0x02;
const CODE_UNKNOWN_CA: u8 = 0x03;
const CODE_NOT_FOUND: u8 = 0x04;
const CODE_UNSUPPORTED: u8 = 0x05;
const CODE_BUSY: u8 = 0x06;
const CODE_INTERNAL: u8 = 0x07;
const CODE_RESPONSE_TOO_LARGE: u8 = 0x08;
const CODE_IDLE_TIMEOUT: u8 = 0x09;

impl ProtoError {
    /// Exact encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            ProtoError::UnsupportedVersion { .. } => 2,
            ProtoError::Malformed { .. } => 4,
            ProtoError::UnknownCa(_) => 8,
            ProtoError::ResponseTooLarge { .. } => 16,
            ProtoError::IdleTimeout { .. } => 8,
            _ => 0,
        }
    }

    /// Appends the error to a wire writer.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            ProtoError::UnsupportedVersion {
                requested,
                supported,
            } => {
                w.u8(CODE_UNSUPPORTED_VERSION);
                w.u8(*requested);
                w.u8(*supported);
            }
            ProtoError::Malformed { offset } => {
                w.u8(CODE_MALFORMED);
                w.u32(*offset);
            }
            ProtoError::UnknownCa(ca) => {
                w.u8(CODE_UNKNOWN_CA);
                w.bytes(&ca.0);
            }
            ProtoError::NotFound => {
                w.u8(CODE_NOT_FOUND);
            }
            ProtoError::Unsupported => {
                w.u8(CODE_UNSUPPORTED);
            }
            ProtoError::Busy => {
                w.u8(CODE_BUSY);
            }
            ProtoError::Internal => {
                w.u8(CODE_INTERNAL);
            }
            ProtoError::ResponseTooLarge { len, max } => {
                w.u8(CODE_RESPONSE_TOO_LARGE);
                w.u64(*len);
                w.u64(*max);
            }
            ProtoError::IdleTimeout { after_ms } => {
                w.u8(CODE_IDLE_TIMEOUT);
                w.u64(*after_ms);
            }
        }
    }

    /// Decodes one error from the reader.
    ///
    /// A code this decoder does not know (a *newer* peer's taxonomy
    /// growth) is not a wire error: the remaining bytes — the unknown
    /// variant's fields; the error is always the final field of a frame —
    /// are consumed and the result degrades to [`ProtoError::Internal`],
    /// so old clients keep interoperating across taxonomy extensions
    /// (exactly how [`ProtoError::ResponseTooLarge`] was introduced).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when a *known* code's fields are truncated.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8("proto error code")? {
            CODE_UNSUPPORTED_VERSION => ProtoError::UnsupportedVersion {
                requested: r.u8("requested version")?,
                supported: r.u8("supported version")?,
            },
            CODE_MALFORMED => ProtoError::Malformed {
                offset: r.u32("malformed offset")?,
            },
            CODE_UNKNOWN_CA => ProtoError::UnknownCa(CaId(r.array("unknown ca id")?)),
            CODE_NOT_FOUND => ProtoError::NotFound,
            CODE_UNSUPPORTED => ProtoError::Unsupported,
            CODE_BUSY => ProtoError::Busy,
            CODE_INTERNAL => ProtoError::Internal,
            CODE_RESPONSE_TOO_LARGE => ProtoError::ResponseTooLarge {
                len: r.u64("oversized response len")?,
                max: r.u64("frame cap")?,
            },
            CODE_IDLE_TIMEOUT => ProtoError::IdleTimeout {
                after_ms: r.u64("keepalive window ms")?,
            },
            _ => {
                let rest = r.remaining();
                let _ = r.slice(rest, "unknown error fields")?;
                ProtoError::Internal
            }
        })
    }
}

/// A client-side transport failure: the request never produced a decodable
/// response. Server-reported failures arrive as
/// [`crate::RitmResponse::Error`] instead and are *not* transport errors.
#[derive(Debug)]
pub enum TransportError {
    /// The socket (or simulated path) failed before a response arrived.
    Io(std::io::Error),
    /// A response frame arrived but did not decode.
    BadResponse(DecodeError),
    /// The response's version byte is outside the client's window.
    VersionMismatch {
        /// Version byte the response carried.
        got: u8,
    },
    /// The transport is closed (server shut down, simulator drained without
    /// delivering a reply).
    NoResponse,
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport I/O failure: {e}"),
            TransportError::BadResponse(e) => write!(f, "undecodable response: {e}"),
            TransportError::VersionMismatch { got } => {
                write!(f, "response speaks unknown protocol version {got}")
            }
            TransportError::NoResponse => f.write_str("no response arrived"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<DecodeError> for TransportError {
    fn from(e: DecodeError) -> Self {
        TransportError::BadResponse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_errors() -> Vec<ProtoError> {
        vec![
            ProtoError::UnsupportedVersion {
                requested: 9,
                supported: 1,
            },
            ProtoError::Malformed { offset: 77 },
            ProtoError::UnknownCa(CaId(*b"someCA!!")),
            ProtoError::NotFound,
            ProtoError::Unsupported,
            ProtoError::Busy,
            ProtoError::Internal,
            ProtoError::ResponseTooLarge {
                len: 40_000_000,
                max: 1 << 25,
            },
            ProtoError::IdleTimeout { after_ms: 60_000 },
        ]
    }

    #[test]
    fn round_trip_every_variant() {
        for e in all_errors() {
            let mut w = Writer::new();
            e.encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), e.encoded_len(), "{e:?}");
            let mut r = Reader::new(&bytes);
            assert_eq!(ProtoError::decode(&mut r).unwrap(), e);
            assert!(r.is_done());
        }
    }

    #[test]
    fn unknown_code_degrades_to_internal_and_consumes_its_fields() {
        // A future taxonomy variant (code 0xEE with 3 field bytes) must
        // decode — as Internal — with its fields consumed, so the frame's
        // trailing-bytes check still passes on old clients.
        let mut r = Reader::new(&[0xEE, 1, 2, 3]);
        assert_eq!(ProtoError::decode(&mut r), Ok(ProtoError::Internal));
        assert!(r.is_done());
    }

    #[test]
    fn display_is_informative() {
        for e in all_errors() {
            assert!(!format!("{e}").is_empty());
        }
    }
}
