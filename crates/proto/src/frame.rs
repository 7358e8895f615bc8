//! Response frames whose bodies may be shared rather than owned.
//!
//! The hot serving path answers thousands of identical `GetStatus`
//! requests per publish. Encoding each reply into its own `Vec<u8>` (the
//! [`Service::handle_frame`](crate::Service::handle_frame) contract)
//! costs an allocation and a full copy per request even when the bytes
//! are identical. A [`Frame`] separates the reply into:
//!
//! * a tiny per-connection **header** — `u32 len ‖ version ‖ [u32 id]`,
//!   at most 9 bytes, stored inline — which differs per request only in
//!   the envelope version and echoed request id, and
//! * the **body** tail (`kind ‖ fields`), which is identical for every
//!   requester and can therefore be one cached `Arc<[u8]>` shared across
//!   all connections and both envelope versions ([`Body::Shared`]).
//!
//! Lifetime rule for shared bodies: the `Arc` keeps the encoding alive
//! until the last writer drains it, so a cache may drop or replace its
//! entry at any time — connections mid-write are unaffected, and nobody
//! ever mutates the shared bytes (the per-connection differences live
//! entirely in the header). `ritm-rt`'s `FrameWriter::queue_shared`
//! writes header + body with one vectored syscall, no coalescing copy.

use crate::message::{PROTOCOL_V2, PROTOCOL_VERSION};
use ritm_rt::FrameWriter;
use std::sync::Arc;

/// Longest frame header: `u32 len ‖ version ‖ u32 request-id`.
pub const FRAME_HEADER_MAX: usize = 9;

/// The payload bytes of a [`Frame`]: owned when freshly encoded, shared
/// when served from the encoded-response cache.
#[derive(Debug, Clone)]
pub enum Body {
    /// A complete frame owned by this reply alone (header included — the
    /// ordinary `to_frame_for` encoding).
    Owned(Vec<u8>),
    /// The version-independent body tail (`kind ‖ fields`), shared with
    /// the cache and every other connection serving the same reply.
    Shared(Arc<[u8]>),
}

/// One encoded reply frame, cheap to hand around: either a plain owned
/// frame, or an inline header over a shared body.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Meaningful only for [`Body::Shared`]; empty for owned frames
    /// (their header is part of the owned bytes).
    header: [u8; FRAME_HEADER_MAX],
    header_len: u8,
    body: Body,
}

impl Frame {
    /// Wraps a fully encoded frame (length prefix included) — the path
    /// for replies that are built per-request anyway.
    pub fn from_bytes(frame: Vec<u8>) -> Self {
        Frame {
            header: [0; FRAME_HEADER_MAX],
            header_len: 0,
            body: Body::Owned(frame),
        }
    }

    /// Builds a frame over a cached shared body (`kind ‖ fields`, from
    /// [`RitmResponse::to_shared_body`]), stamping the per-connection
    /// header: length prefix, envelope `version`, and — for v2 — the
    /// echoed `request_id`. The body bytes are never copied.
    ///
    /// [`RitmResponse::to_shared_body`]: crate::RitmResponse::to_shared_body
    pub fn shared(version: u8, request_id: u32, body: Arc<[u8]>) -> Self {
        debug_assert!(version == PROTOCOL_VERSION || version == PROTOCOL_V2);
        let id_len = if version >= PROTOCOL_V2 { 4 } else { 0 };
        // Body length on the wire counts the version byte and optional id.
        let body_len = 1 + id_len + body.len();
        let mut header = [0u8; FRAME_HEADER_MAX];
        header[..4].copy_from_slice(&(body_len as u32).to_be_bytes());
        header[4] = version;
        if id_len == 4 {
            header[5..9].copy_from_slice(&request_id.to_be_bytes());
        }
        Frame {
            header,
            header_len: (5 + id_len) as u8,
            body: Body::Shared(body),
        }
    }

    /// The inline header (empty for owned frames).
    pub fn header(&self) -> &[u8] {
        &self.header[..self.header_len as usize]
    }

    /// The frame's body storage.
    pub fn body(&self) -> &Body {
        &self.body
    }

    /// Total wire length of the frame (header + body).
    pub fn len(&self) -> usize {
        self.header_len as usize
            + match &self.body {
                Body::Owned(v) => v.len(),
                Body::Shared(b) => b.len(),
            }
    }

    /// Whether the frame carries no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coalesces into one contiguous byte vector — byte-identical to what
    /// `to_frame_for` would have produced. For tests; the event path
    /// writes the parts without joining them.
    pub fn to_vec(&self) -> Vec<u8> {
        match &self.body {
            Body::Owned(v) => v.clone(),
            Body::Shared(b) => [self.header(), b].concat(),
        }
    }

    /// Queues the frame onto `writer`: owned frames as one owned segment,
    /// shared frames as inline header + shared body (the body bytes go
    /// out by reference, never copied into the writer).
    pub fn queue_onto(self, writer: &mut FrameWriter) {
        match self.body {
            Body::Owned(v) => writer.queue(v),
            Body::Shared(b) => writer.queue_shared(&self.header[..self.header_len as usize], b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ProtoError;
    use crate::message::RitmResponse;

    #[test]
    fn shared_frames_match_the_plain_encoders_for_both_versions() {
        let resp = RitmResponse::Error(ProtoError::NotFound);
        let body = resp.to_shared_body();
        let v1 = Frame::shared(PROTOCOL_VERSION, 0, Arc::clone(&body));
        assert_eq!(v1.to_vec(), resp.to_frame());
        assert_eq!(v1.len(), resp.to_frame().len());
        let v2 = Frame::shared(PROTOCOL_V2, 0xDEAD_BEEF, Arc::clone(&body));
        assert_eq!(v2.to_vec(), resp.to_frame_for(PROTOCOL_V2, 0xDEAD_BEEF));
        // One shared body, any number of stamped headers: +4 bytes for v2,
        // exactly the request id.
        assert_eq!(v2.len(), v1.len() + 4);
    }

    #[test]
    fn queue_onto_writes_shared_and_owned_frames_byte_identically() {
        let resp = RitmResponse::Error(ProtoError::NotFound);
        let shared = Frame::shared(PROTOCOL_V2, 7, resp.to_shared_body());
        let owned = Frame::from_bytes(resp.to_frame());
        let mut writer = FrameWriter::new();
        let expected_len = shared.len() + owned.len();
        shared.queue_onto(&mut writer);
        owned.queue_onto(&mut writer);
        assert_eq!(writer.buffered_bytes(), expected_len);
        let mut wire = Vec::new();
        loop {
            match writer.poll_write(&mut wire) {
                ritm_rt::FrameWrite::Done => break,
                ritm_rt::FrameWrite::WouldBlock => continue,
                ritm_rt::FrameWrite::Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let mut expected = resp.to_frame_for(PROTOCOL_V2, 7);
        expected.extend_from_slice(&resp.to_frame());
        assert_eq!(wire, expected);
    }
}
