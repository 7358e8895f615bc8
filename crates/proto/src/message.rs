//! Versioned, length-delimited request/response envelopes.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! frame    := u32 BE body length ‖ body
//! body(v1) := version=1 (u8) ‖ kind (u8) ‖ fields
//! body(v2) := version=2 (u8) ‖ request_id (u32 BE) ‖ kind (u8) ‖ fields
//! ```
//!
//! The version byte comes first so that a server can always answer a frame
//! from the future with a typed
//! [`ProtoError::UnsupportedVersion`] instead of
//! misparsing it; kinds below `0x80` are requests, kinds at or above it are
//! responses. All field counts are validated against the bytes actually
//! present (`check_count`) before sizing any allocation, so a forged count
//! can never balloon memory or panic the decoder.
//!
//! **v2** adds a 4-byte `request_id` right after the version byte; the
//! server echoes both back on the matching response. The id is opaque to
//! the server (no uniqueness requirement — correlation is the client's
//! problem), and it is what makes *out-of-order* completion safe: a
//! multiplexed client matches replies by id instead of arrival order, so
//! one slow request no longer head-of-line-blocks the rest of its
//! connection. v1 remains fully supported and byte-identical to before —
//! [`RitmRequest::to_frame`]/[`RitmResponse::to_frame`] still emit v1, and
//! v1 peers negotiate down transparently (see `EventTransport`).

use crate::error::{ProtoError, TransportError};
use crate::payload::StatusPayload;
use ritm_crypto::wire::{varint_len, DecodeError, Reader, Writer};
use ritm_dictionary::root::SIGNED_ROOT_LEN;
use ritm_dictionary::{
    CaId, FreshnessStatement, RefreshMessage, RevocationIssuance, SerialNumber, SignedRoot,
};

/// The baseline protocol version: the id-less in-order envelope every
/// peer speaks. [`RitmRequest::to_frame`]/[`RitmResponse::to_frame`] emit
/// this version, byte-identical to every release since PR 4.
pub const PROTOCOL_VERSION: u8 = 1;

/// The multiplexed envelope: carries a per-frame `request_id` echoed on
/// the response, enabling out-of-order completion. Emitted by
/// [`RitmRequest::to_frame_v2`] / [`RitmResponse::to_frame_for`].
pub const PROTOCOL_V2: u8 = 2;

/// The oldest version this crate still accepts. Bump together with
/// [`MAX_SUPPORTED_VERSION`] only on a breaking wire change.
pub const MIN_SUPPORTED_VERSION: u8 = 1;

/// The newest version this crate accepts (and reports in
/// [`ProtoError::UnsupportedVersion`] as its ceiling).
pub const MAX_SUPPORTED_VERSION: u8 = PROTOCOL_V2;

/// Upper bound on one frame body. Generous enough for a full catch-up
/// page ([`MAX_PAGE_LIMIT`] serials of up to 20 bytes each), small enough
/// that a hostile length prefix cannot drive an allocation into the
/// gigabytes.
///
/// A response that would exceed this cap degrades to a typed
/// [`ProtoError::ResponseTooLarge`] (carrying the would-be size and this
/// cap) at the service choke point. Catch-up never reaches it: a gap of
/// any size is served as `Update` pages that each fit.
pub const MAX_FRAME_LEN: usize = 1 << 25;

/// Upper bound servers clamp a page `limit` to: the dictionary's batch
/// cap ([`ritm_dictionary::MAX_BATCH`]), since a page never cuts a batch.
/// Serials encode to at most 21 bytes each, so a page of `MAX_PAGE_LIMIT`
/// serials plus the fixed `Update` overhead is guaranteed to fit
/// [`MAX_FRAME_LEN`] regardless of what limit the client asked for.
pub const MAX_PAGE_LIMIT: u32 = ritm_dictionary::MAX_BATCH as u32;

/// Upper bound on a `GetMultiStatus` chain. One below the status payload's
/// `0xFF` section marker, so even a fully-uncompressed response stays
/// encodable — the request decoder rejects longer chains as malformed
/// instead of letting response encoding panic.
pub const MAX_CHAIN_LEN: usize = 254;

const REQ_FETCH_DELTA: u8 = 0x01;
const REQ_GET_STATUS: u8 = 0x04;
const REQ_GET_MULTI_STATUS: u8 = 0x05;
const REQ_GET_SIGNED_ROOT: u8 = 0x06;
const REQ_GET_MANIFEST: u8 = 0x07;
const REQ_PULL: u8 = 0x0A;
// Retired, never reuse: 0x02 (`FetchFreshness`), 0x03 (the unpaged
// `CatchUp`), 0x08 (`CatchUpPaged`), 0x09 (`GossipRoots`), 0x82
// (`Freshness`) and 0x89 (`GossipAck`). They decode as unknown kinds.

const RESP_DELTA: u8 = 0x81;
const RESP_STATUS: u8 = 0x84;
const RESP_SIGNED_ROOT: u8 = 0x86;
const RESP_MANIFEST: u8 = 0x87;
const RESP_DELTA_PAGE: u8 = 0x88;
const RESP_UPDATE: u8 = 0x8A;
const RESP_ERROR: u8 = 0xEE;

/// `Update` flags: bit 0 says a signed root follows the serials; bits 1–2
/// name the refresh slot's content. Every other bit must be clear.
const UPDATE_ROOT: u8 = 1;
const UPDATE_FRESHNESS: u8 = 1 << 1;
const UPDATE_NEW_ROOT: u8 = 2 << 1;

/// One request an endpoint can serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RitmRequest {
    /// The latest issuance bundle for a CA. No product endpoint sends or
    /// answers it, nor `Delta` or `DeltaPage` (servers reply
    /// `Unsupported`); the benchmark package still frames all three, and
    /// they go once it counts and times `Update` (ROADMAP 2-II(i)).
    FetchDelta {
        /// CA whose feed is pulled.
        ca: CaId,
    },
    /// One certificate's full revocation status (proof + root + freshness).
    GetStatus {
        /// Issuing CA.
        ca: CaId,
        /// Certificate serial to prove.
        serial: SerialNumber,
    },
    /// Statuses for a whole certificate chain. The RA answers the leaf
    /// with an individual status and each same-CA run of two or more
    /// certificates after it with one multiproof.
    GetMultiStatus {
        /// `(issuer, serial)` per chain position, leaf first.
        chain: Vec<(CaId, SerialNumber)>,
        /// Decoded and ignored: the RA composes every chain by the rule
        /// above, whatever this byte says. It stays on the wire so that
        /// existing encoders keep their frame layout.
        compress: bool,
    },
    /// The CA's current signed root (consistency monitoring, bootstrap).
    GetSignedRoot {
        /// CA whose root is requested.
        ca: CaId,
    },
    /// The `/RITM.json` bootstrap manifest (§VIII).
    GetManifest {
        /// CA whose manifest is requested.
        ca: CaId,
    },
    /// The RA's one request per CA per Δ (§III: the RA reports "the number
    /// of valid consecutive revocations it has observed"): the serials
    /// after `have` in pages of about `limit`, and the current refresh
    /// message, in one [`RitmResponse::Update`]. A gap of any size — even
    /// one whose whole bundle would blow past [`MAX_FRAME_LEN`] — converges
    /// in bounded pages, each under a root the CA published. `have` and
    /// `limit` travel as varints.
    Pull {
        /// CA whose feed is pulled.
        ca: CaId,
        /// Consecutive revocations the requester already holds.
        have: u64,
        /// Serials the requester wants at most in one page. Pages end at
        /// batch boundaries, so a batch larger than this arrives whole.
        limit: u32,
    },
}

/// One response. Kind `0xEE` carries the typed error taxonomy; everything
/// else is the success payload for the matching request.
#[derive(Debug, Clone, PartialEq)]
pub enum RitmResponse {
    /// An issuance bundle. No product endpoint sends it; kept for the
    /// benchmark package, as [`RitmRequest::FetchDelta`] says.
    Delta(RevocationIssuance),
    /// A status payload (answers `GetStatus` and `GetMultiStatus`).
    Status(StatusPayload),
    /// A signed root (answers `GetSignedRoot`).
    SignedRoot(SignedRoot),
    /// Opaque manifest bytes (answers `GetManifest`).
    Manifest(Vec<u8>),
    /// One catch-up page as an issuance bundle ending at a (possibly
    /// historical) signed root, plus how many serials remain beyond it.
    /// No product endpoint sends it — catch-up pages travel as
    /// [`RitmResponse::Update`]; kept for the benchmark package, as
    /// [`RitmRequest::FetchDelta`] says.
    DeltaPage {
        /// The page's issuance bundle; its signed root covers exactly the
        /// dictionary prefix the requester holds after applying it.
        issuance: RevocationIssuance,
        /// Serials still missing after this page.
        remaining: u64,
    },
    /// The answer to a `Pull`.
    Update(Update),
    /// The request failed; see [`ProtoError`].
    Error(ProtoError),
}

/// The answer to [`RitmRequest::Pull`]: what the requester is missing, in
/// one message. On the wire:
///
/// ```text
/// flags (u8) ‖ count (varint) ‖ count × (len u8 ‖ serial)
///   ‖ [signed root, iff flags bit 0] ‖ remaining (varint)
///   ‖ [refresh: 20-byte statement iff bits 1–2 = 1, signed root iff = 2]
/// ```
///
/// For an up-to-date requester the whole v1 frame is 9 bytes plus the
/// refresh: length, version, kind, flags, a zero count, a zero remaining.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Update {
    /// The serials after the requester's `have`, numbered from `have + 1`,
    /// up to a published batch boundary. Empty when nothing is new.
    pub serials: Vec<SerialNumber>,
    /// The root the CA signed at that boundary (or its rotation, at the
    /// feed's head): present exactly when `serials` is non-empty.
    pub signed_root: Option<SignedRoot>,
    /// Serials still missing after these (`0` = caught up).
    pub remaining: u64,
    /// The CA's current refresh message, when the requester reaches the
    /// feed's head with this update and does not already hold it as the
    /// carried root's own period-0 anchor.
    pub refresh: Option<RefreshMessage>,
}

impl Update {
    /// What a feed server answers `Pull { have, .. }` with, given `page` —
    /// the feed's page after `have` and the serials remaining beyond it
    /// ([`ritm_dictionary::issuance_page`]), `None` for a feed with nothing
    /// published — and the CA's current `refresh` message. A requester
    /// ahead of the server gets an empty update; the refresh is left out
    /// mid-feed (it belongs to the head's root) and where the carried root
    /// already implies it.
    pub fn answer(
        have: u64,
        page: Option<(RevocationIssuance, u64)>,
        refresh: Option<RefreshMessage>,
    ) -> Self {
        let (serials, signed_root, remaining) = match page {
            Some((page, _)) if page.first_number <= have => return Update::default(),
            None if have > 0 => return Update::default(),
            Some((page, remaining)) if !page.serials.is_empty() => {
                (page.serials, Some(page.signed_root), remaining)
            }
            _ => (Vec::new(), None, 0),
        };
        let implied = |msg: &RefreshMessage| match (msg, &signed_root) {
            (RefreshMessage::Freshness(f), Some(root)) => {
                *f == FreshnessStatement::new(root.anchor)
            }
            (RefreshMessage::NewRoot(r), Some(root)) => r == root,
            (_, None) => false,
        };
        Update {
            serials,
            signed_root,
            remaining,
            refresh: refresh.filter(|msg| remaining == 0 && !implied(msg)),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + varint_len(self.serials.len() as u64)
            + self.serials.iter().map(|s| 1 + s.len()).sum::<usize>()
            + self.signed_root.map_or(0, |_| SIGNED_ROOT_LEN)
            + varint_len(self.remaining)
            + match self.refresh {
                None => 0,
                Some(RefreshMessage::Freshness(_)) => 20,
                Some(RefreshMessage::NewRoot(_)) => SIGNED_ROOT_LEN,
            }
    }

    fn encode(&self, w: &mut Writer) {
        let refresh_flag = match self.refresh {
            None => 0,
            Some(RefreshMessage::Freshness(_)) => UPDATE_FRESHNESS,
            Some(RefreshMessage::NewRoot(_)) => UPDATE_NEW_ROOT,
        };
        let root_flag = if self.signed_root.is_some() {
            UPDATE_ROOT
        } else {
            0
        };
        w.u8(root_flag | refresh_flag);
        w.varint(self.serials.len() as u64);
        for s in &self.serials {
            encode_serial(w, s);
        }
        if let Some(root) = &self.signed_root {
            w.bytes(&root.to_bytes());
        }
        w.varint(self.remaining);
        match &self.refresh {
            None => {}
            Some(RefreshMessage::Freshness(f)) => {
                w.bytes(&f.to_bytes());
            }
            Some(RefreshMessage::NewRoot(root)) => {
                w.bytes(&root.to_bytes());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let flags_pos = r.position();
        let flags = r.u8("update flags")?;
        if flags & !(UPDATE_ROOT | UPDATE_FRESHNESS | UPDATE_NEW_ROOT) != 0
            || flags & (UPDATE_FRESHNESS | UPDATE_NEW_ROOT) == UPDATE_FRESHNESS | UPDATE_NEW_ROOT
        {
            return Err(DecodeError::new("unknown update flags", flags_pos));
        }
        let count_pos = r.position();
        let count = usize::try_from(r.varint("update serial count")?)
            .map_err(|_| DecodeError::new("update serial count exceeds buffer", count_pos))?;
        // Each serial costs at least 2 bytes (length + 1 data byte).
        r.check_count(count, 2, "update serial count exceeds buffer")?;
        let mut serials = Vec::with_capacity(count);
        for _ in 0..count {
            serials.push(decode_serial(r)?);
        }
        let signed_root = if flags & UPDATE_ROOT != 0 {
            Some(SignedRoot::decode(r)?)
        } else {
            None
        };
        let remaining = r.varint("update remaining")?;
        let refresh = match flags & (UPDATE_FRESHNESS | UPDATE_NEW_ROOT) {
            UPDATE_FRESHNESS => Some(RefreshMessage::Freshness(FreshnessStatement::decode(r)?)),
            UPDATE_NEW_ROOT => Some(RefreshMessage::NewRoot(SignedRoot::decode(r)?)),
            _ => None,
        };
        Ok(Update {
            serials,
            signed_root,
            remaining,
            refresh,
        })
    }
}

fn encode_ca(w: &mut Writer, ca: &CaId) {
    w.bytes(&ca.0);
}

fn decode_ca(r: &mut Reader<'_>) -> Result<CaId, DecodeError> {
    Ok(CaId(r.array("ca id")?))
}

fn encode_serial(w: &mut Writer, s: &SerialNumber) {
    w.vec8(s.as_bytes());
}

fn decode_serial(r: &mut Reader<'_>) -> Result<SerialNumber, DecodeError> {
    let pos = r.position();
    let raw = r.vec8("serial bytes")?;
    SerialNumber::new(raw).map_err(|_| DecodeError::new("invalid serial", pos))
}

impl RitmRequest {
    /// Short name of the request kind (for logs and metrics).
    pub fn kind_name(&self) -> &'static str {
        match self {
            RitmRequest::FetchDelta { .. } => "fetch_delta",
            RitmRequest::GetStatus { .. } => "get_status",
            RitmRequest::GetMultiStatus { .. } => "get_multi_status",
            RitmRequest::GetSignedRoot { .. } => "get_signed_root",
            RitmRequest::GetManifest { .. } => "get_manifest",
            RitmRequest::Pull { .. } => "pull",
        }
    }

    /// Exact encoded body length (version + kind + fields), computed
    /// without serializing.
    pub fn encoded_len(&self) -> usize {
        2 + match self {
            RitmRequest::FetchDelta { .. }
            | RitmRequest::GetSignedRoot { .. }
            | RitmRequest::GetManifest { .. } => 8,
            RitmRequest::Pull { have, limit, .. } => {
                8 + varint_len(*have) + varint_len(u64::from(*limit))
            }
            RitmRequest::GetStatus { serial, .. } => 8 + 1 + serial.len(),
            RitmRequest::GetMultiStatus { chain, .. } => {
                1 + chain.iter().map(|(_, s)| 8 + 1 + s.len()).sum::<usize>() + 1
            }
        }
    }

    fn encode_body(&self, w: &mut Writer, version: u8, request_id: u32) {
        w.u8(version);
        if version >= PROTOCOL_V2 {
            w.u32(request_id);
        }
        self.encode_fields(w);
    }

    /// The version-independent tail of the body: `kind ‖ fields`.
    fn encode_fields(&self, w: &mut Writer) {
        match self {
            RitmRequest::FetchDelta { ca } => {
                w.u8(REQ_FETCH_DELTA);
                encode_ca(w, ca);
            }
            RitmRequest::GetStatus { ca, serial } => {
                w.u8(REQ_GET_STATUS);
                encode_ca(w, ca);
                encode_serial(w, serial);
            }
            RitmRequest::GetMultiStatus { chain, compress } => {
                w.u8(REQ_GET_MULTI_STATUS);
                assert!(chain.len() <= MAX_CHAIN_LEN, "chain length overflow");
                w.u8(chain.len() as u8);
                for (ca, serial) in chain {
                    encode_ca(w, ca);
                    encode_serial(w, serial);
                }
                w.u8(u8::from(*compress));
            }
            RitmRequest::GetSignedRoot { ca } => {
                w.u8(REQ_GET_SIGNED_ROOT);
                encode_ca(w, ca);
            }
            RitmRequest::GetManifest { ca } => {
                w.u8(REQ_GET_MANIFEST);
                encode_ca(w, ca);
            }
            RitmRequest::Pull { ca, have, limit } => {
                w.u8(REQ_PULL);
                encode_ca(w, ca);
                w.varint(*have);
                w.varint(u64::from(*limit));
            }
        }
    }

    /// Encodes the baseline v1 frame (`u32` length prefix + versioned
    /// body), pre-sized to [`RitmRequest::encoded_len`] plus the prefix.
    /// Byte-identical to every pre-v2 release.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.encoded_len());
        self.to_frame_into(&mut out);
        out
    }

    /// Appends the v1 frame to `out` — how a whole flight of requests is
    /// encoded into one reusable scratch buffer with no per-request
    /// allocation. Byte-identical to [`RitmRequest::to_frame`].
    fn to_frame_into(&self, out: &mut Vec<u8>) {
        let body_len = self.encoded_len();
        let before = out.len();
        out.reserve(4 + body_len);
        let mut w = Writer::from_vec(std::mem::take(out));
        w.u32(body_len as u32);
        self.encode_body(&mut w, PROTOCOL_VERSION, 0);
        *out = w.into_bytes();
        debug_assert_eq!(out.len() - before, 4 + body_len);
    }

    /// Encodes the multiplexed v2 frame, tagging the body with
    /// `request_id` (echoed back on the matching response).
    pub fn to_frame_v2(&self, request_id: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 4 + self.encoded_len());
        self.to_frame_v2_into(request_id, &mut out);
        out
    }

    /// Appends the v2 frame to `out`; byte-identical to
    /// [`RitmRequest::to_frame_v2`].
    pub fn to_frame_v2_into(&self, request_id: u32, out: &mut Vec<u8>) {
        let body_len = 4 + self.encoded_len();
        let before = out.len();
        out.reserve(4 + body_len);
        let mut w = Writer::from_vec(std::mem::take(out));
        w.u32(body_len as u32);
        self.encode_body(&mut w, PROTOCOL_V2, request_id);
        *out = w.into_bytes();
        debug_assert_eq!(out.len() - before, 4 + body_len);
    }

    /// Decodes a request frame *body* (without the length prefix), applying
    /// version negotiation. Accepts both envelope versions; a v2 body's
    /// request id is skipped — use [`RequestEnvelope::decode`] to keep it.
    ///
    /// # Errors
    ///
    /// [`ProtoError::UnsupportedVersion`] when the version byte is outside
    /// `[MIN_SUPPORTED_VERSION, MAX_SUPPORTED_VERSION]`;
    /// [`ProtoError::Malformed`] on any decode failure (never panics).
    pub fn decode_body(body: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(body);
        let version = r.u8("request version").map_err(|e| ProtoError::Malformed {
            offset: e.offset as u32,
        })?;
        if !(MIN_SUPPORTED_VERSION..=MAX_SUPPORTED_VERSION).contains(&version) {
            return Err(ProtoError::UnsupportedVersion {
                requested: version,
                supported: MAX_SUPPORTED_VERSION,
            });
        }
        if version >= PROTOCOL_V2 {
            r.u32("request id").map_err(|e| ProtoError::Malformed {
                offset: e.offset as u32,
            })?;
        }
        Self::decode_fields(&mut r).map_err(|e| ProtoError::Malformed {
            offset: e.offset as u32,
        })
    }

    fn decode_fields(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let pos = r.position();
        let req = match r.u8("request kind")? {
            REQ_FETCH_DELTA => RitmRequest::FetchDelta { ca: decode_ca(r)? },
            REQ_GET_STATUS => RitmRequest::GetStatus {
                ca: decode_ca(r)?,
                serial: decode_serial(r)?,
            },
            REQ_GET_MULTI_STATUS => {
                let len_pos = r.position();
                let n = r.u8("chain length")? as usize;
                if n > MAX_CHAIN_LEN {
                    // An uncompressed response for a longer chain could not
                    // be encoded (payload counts cap below the 0xFF section
                    // marker): refuse at the request boundary.
                    return Err(DecodeError::new(
                        "chain length exceeds MAX_CHAIN_LEN",
                        len_pos,
                    ));
                }
                // Each entry needs ≥ 8 (CA) + 1 (len) + 1 (serial) bytes.
                r.check_count(n, 10, "chain length exceeds buffer")?;
                let mut chain = Vec::with_capacity(n);
                for _ in 0..n {
                    chain.push((decode_ca(r)?, decode_serial(r)?));
                }
                let compress = r.u8("compress flag")? != 0;
                RitmRequest::GetMultiStatus { chain, compress }
            }
            REQ_GET_SIGNED_ROOT => RitmRequest::GetSignedRoot { ca: decode_ca(r)? },
            REQ_GET_MANIFEST => RitmRequest::GetManifest { ca: decode_ca(r)? },
            REQ_PULL => {
                let ca = decode_ca(r)?;
                let have = r.varint("pull have")?;
                let limit_pos = r.position();
                let limit = u32::try_from(r.varint("pull limit")?)
                    .map_err(|_| DecodeError::new("pull limit exceeds u32", limit_pos))?;
                RitmRequest::Pull { ca, have, limit }
            }
            _ => return Err(DecodeError::new("unknown request kind", pos)),
        };
        r.finish("request trailing bytes")?;
        Ok(req)
    }
}

/// Best-effort peek at a request body's envelope header, for *tagging
/// replies* — including error replies to bodies that do not decode.
/// Returns the version the reply should be encoded in and the request id
/// to echo (0 when the body carries none or is too short to tell). An
/// unsupported future version maps to a v1 reply, exactly what a peer
/// probing upward can always parse.
pub fn peek_request_envelope(body: &[u8]) -> (u8, u32) {
    match body.first() {
        Some(&PROTOCOL_V2) if body.len() >= 5 => (
            PROTOCOL_V2,
            u32::from_be_bytes(body[1..5].try_into().expect("4 bytes")),
        ),
        _ => (PROTOCOL_VERSION, 0),
    }
}

/// One decoded request envelope: the version to answer in, the request id
/// to echo, and the decode outcome (a typed error, never a panic). This is
/// what an out-of-order server spawns a handler task around — the reply
/// tag survives even when the body is garbage.
#[derive(Debug)]
pub struct RequestEnvelope {
    /// Version the reply must be encoded in (the request's own version,
    /// or v1 when the request's version is unsupported).
    pub reply_version: u8,
    /// Request id to echo (0 for v1 bodies).
    pub request_id: u32,
    /// The decoded request, or the typed error to answer with.
    pub request: Result<RitmRequest, ProtoError>,
}

impl RequestEnvelope {
    /// Decodes a request frame *body* (without the length prefix),
    /// keeping the reply tag. Never fails: an undecodable body yields an
    /// envelope whose `request` is the typed error to send back.
    pub fn decode(body: &[u8]) -> Self {
        let (reply_version, request_id) = peek_request_envelope(body);
        RequestEnvelope {
            reply_version,
            request_id,
            request: RitmRequest::decode_body(body),
        }
    }
}

impl RitmResponse {
    /// Short name of the response kind (for logs and metrics).
    pub fn kind_name(&self) -> &'static str {
        match self {
            RitmResponse::Delta(_) => "delta",
            RitmResponse::Status(_) => "status",
            RitmResponse::SignedRoot(_) => "signed_root",
            RitmResponse::Manifest(_) => "manifest",
            RitmResponse::DeltaPage { .. } => "delta_page",
            RitmResponse::Update(_) => "update",
            RitmResponse::Error(_) => "error",
        }
    }

    /// Exact encoded body length (version + kind + fields), computed
    /// without serializing. Embedded payloads carry a `u32` length so a
    /// full catch-up bundle (tens of MB) encodes without any 24-bit cap —
    /// [`MAX_FRAME_LEN`] is the only size bound, enforced as a typed error
    /// at the framing layer, never as a panic.
    pub fn encoded_len(&self) -> usize {
        2 + match self {
            RitmResponse::Delta(iss) => 4 + iss.encoded_len(),
            RitmResponse::Status(p) => 4 + p.encoded_len(),
            RitmResponse::SignedRoot(_) => SIGNED_ROOT_LEN,
            RitmResponse::Manifest(m) => 4 + m.len(),
            RitmResponse::DeltaPage { issuance, .. } => 4 + issuance.encoded_len() + 8,
            RitmResponse::Update(u) => u.encoded_len(),
            RitmResponse::Error(e) => e.encoded_len(),
        }
    }

    fn encode_body(&self, w: &mut Writer, version: u8, request_id: u32) {
        w.u8(version);
        if version >= PROTOCOL_V2 {
            w.u32(request_id);
        }
        self.encode_fields(w);
    }

    /// The version-independent tail of the body: `kind ‖ fields`.
    fn encode_fields(&self, w: &mut Writer) {
        match self {
            RitmResponse::Delta(iss) => {
                w.u8(RESP_DELTA);
                w.u32(iss.encoded_len() as u32);
                iss.encode_into(w);
            }
            RitmResponse::Status(p) => {
                w.u8(RESP_STATUS);
                w.u32(p.encoded_len() as u32);
                p.encode_into(w);
            }
            RitmResponse::SignedRoot(sr) => {
                w.u8(RESP_SIGNED_ROOT);
                w.bytes(&sr.to_bytes());
            }
            RitmResponse::Manifest(m) => {
                w.u8(RESP_MANIFEST);
                w.u32(m.len() as u32);
                w.bytes(m);
            }
            RitmResponse::DeltaPage {
                issuance,
                remaining,
            } => {
                w.u8(RESP_DELTA_PAGE);
                w.u32(issuance.encoded_len() as u32);
                issuance.encode_into(w);
                w.u64(*remaining);
            }
            RitmResponse::Update(u) => {
                w.u8(RESP_UPDATE);
                u.encode(w);
            }
            RitmResponse::Error(e) => {
                w.u8(RESP_ERROR);
                e.encode(w);
            }
        }
    }

    /// Encodes the baseline v1 frame (`u32` length prefix + versioned
    /// body), pre-sized to [`RitmResponse::encoded_len`] plus the prefix.
    /// Byte-identical to every pre-v2 release.
    pub fn to_frame(&self) -> Vec<u8> {
        self.to_frame_for(PROTOCOL_VERSION, 0)
    }

    /// Encodes the frame in the given envelope `version` — the reply tag a
    /// server got from [`RequestEnvelope`] — echoing `request_id` when the
    /// version carries one.
    pub fn to_frame_for(&self, version: u8, request_id: u32) -> Vec<u8> {
        let body_len = self.encoded_len() + if version >= PROTOCOL_V2 { 4 } else { 0 };
        let mut out = Vec::with_capacity(4 + body_len);
        self.to_frame_for_into(version, request_id, &mut out);
        out
    }

    /// Appends the frame in the given envelope `version` to `out`;
    /// byte-identical to [`RitmResponse::to_frame_for`].
    fn to_frame_for_into(&self, version: u8, request_id: u32, out: &mut Vec<u8>) {
        let body_len = self.encoded_len() + if version >= PROTOCOL_V2 { 4 } else { 0 };
        let before = out.len();
        out.reserve(4 + body_len);
        let mut w = Writer::from_vec(std::mem::take(out));
        w.u32(body_len as u32);
        self.encode_body(&mut w, version, request_id);
        *out = w.into_bytes();
        debug_assert_eq!(out.len() - before, 4 + body_len);
    }

    /// Encodes the version-independent portion of the body — `kind ‖
    /// fields`, everything after the version byte and optional request id
    /// — as shared bytes. This is the part of a reply that is identical
    /// for every connection and both envelope versions, so one encoding
    /// can be cached and served to all of them; [`crate::Frame::shared`]
    /// stamps the per-connection header (length, version, id) in front
    /// without copying the body.
    pub fn to_shared_body(&self) -> std::sync::Arc<[u8]> {
        // encoded_len counts version + kind + fields; the shared portion
        // drops the 1-byte version.
        let mut w = Writer::with_capacity(self.encoded_len() - 1);
        self.encode_fields(&mut w);
        std::sync::Arc::from(w.into_bytes())
    }

    /// Decodes a response frame *body* (without the length prefix).
    /// Accepts both envelope versions; a v2 body's echoed request id is
    /// skipped — use [`RitmResponse::decode_envelope`] to correlate.
    ///
    /// # Errors
    ///
    /// [`TransportError::VersionMismatch`] when the server answered in a
    /// version this client cannot parse; [`TransportError::BadResponse`] on
    /// any decode failure (never panics).
    pub fn decode_body(body: &[u8]) -> Result<Self, TransportError> {
        Self::decode_envelope(body).map(|(_, _, resp)| resp)
    }

    /// Decodes a response frame *body*, returning the envelope version,
    /// the echoed request id (0 for v1), and the response — what a
    /// multiplexed client needs to route replies arriving out of order.
    ///
    /// # Errors
    ///
    /// Same contract as [`RitmResponse::decode_body`].
    pub fn decode_envelope(body: &[u8]) -> Result<(u8, u32, Self), TransportError> {
        let mut r = Reader::new(body);
        let version = r.u8("response version")?;
        if !(MIN_SUPPORTED_VERSION..=MAX_SUPPORTED_VERSION).contains(&version) {
            return Err(TransportError::VersionMismatch { got: version });
        }
        let request_id = if version >= PROTOCOL_V2 {
            r.u32("echoed request id")?
        } else {
            0
        };
        Ok((version, request_id, Self::decode_fields(&mut r)?))
    }

    fn decode_fields(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let pos = r.position();
        let resp = match r.u8("response kind")? {
            RESP_DELTA => {
                let raw = read_embedded(r, "issuance bytes")?;
                RitmResponse::Delta(RevocationIssuance::from_bytes(raw)?)
            }
            RESP_STATUS => {
                let raw = read_embedded(r, "status payload bytes")?;
                RitmResponse::Status(StatusPayload::from_bytes(raw)?)
            }
            RESP_SIGNED_ROOT => RitmResponse::SignedRoot(SignedRoot::decode(r)?),
            RESP_MANIFEST => RitmResponse::Manifest(read_embedded(r, "manifest bytes")?.to_vec()),
            RESP_DELTA_PAGE => {
                let raw = read_embedded(r, "page issuance bytes")?;
                RitmResponse::DeltaPage {
                    issuance: RevocationIssuance::from_bytes(raw)?,
                    remaining: r.u64("page remaining")?,
                }
            }
            RESP_UPDATE => RitmResponse::Update(Update::decode(r)?),
            RESP_ERROR => RitmResponse::Error(ProtoError::decode(r)?),
            _ => return Err(DecodeError::new("unknown response kind", pos)),
        };
        r.finish("response trailing bytes")?;
        Ok(resp)
    }
}

/// Reads a `u32`-length-prefixed embedded payload. The length is bounded
/// by the bytes actually present (the frame layer already capped the body
/// at [`MAX_FRAME_LEN`]), so a forged length cannot oversize anything.
fn read_embedded<'a>(r: &mut Reader<'a>, context: &'static str) -> Result<&'a [u8], DecodeError> {
    let len = r.u32(context)? as usize;
    r.slice(len, context)
}

/// Splits one frame off the front of `bytes`, returning `(body, rest)`.
/// Rejects bodies longer than [`MAX_FRAME_LEN`] *before* any allocation.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation or an oversized length prefix.
pub fn split_frame(bytes: &[u8]) -> Result<(&[u8], &[u8]), DecodeError> {
    if bytes.len() < 4 {
        return Err(DecodeError::new("frame length prefix truncated", 0));
    }
    let len = u32::from_be_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(DecodeError::new("frame exceeds MAX_FRAME_LEN", 0));
    }
    if bytes.len() < 4 + len {
        return Err(DecodeError::new("frame body truncated", 4));
    }
    Ok((&bytes[4..4 + len], &bytes[4 + len..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frame_is_exactly_presized() {
        let req = RitmRequest::GetStatus {
            ca: CaId::from_name("FrameCA"),
            serial: SerialNumber::from_u24(77),
        };
        let frame = req.to_frame();
        assert_eq!(frame.len(), 4 + req.encoded_len());
        assert_eq!(frame.capacity(), frame.len(), "pre-sized, no realloc");
        let (body, rest) = split_frame(&frame).unwrap();
        assert!(rest.is_empty());
        assert_eq!(RitmRequest::decode_body(body).unwrap(), req);
    }

    #[test]
    fn future_version_is_negotiated_not_panicked() {
        let req = RitmRequest::FetchDelta {
            ca: CaId::from_name("VerCA"),
        };
        let mut frame = req.to_frame();
        frame[4] = 9; // version byte sits right after the length prefix
        let (body, _) = split_frame(&frame).unwrap();
        assert_eq!(
            RitmRequest::decode_body(body),
            Err(ProtoError::UnsupportedVersion {
                requested: 9,
                supported: MAX_SUPPORTED_VERSION,
            })
        );
        // The reply tag for an unsupported version falls back to v1/id 0 —
        // the one envelope any probing peer can parse.
        assert_eq!(peek_request_envelope(body), (PROTOCOL_VERSION, 0));
    }

    #[test]
    fn v2_frames_carry_and_echo_the_request_id() {
        let req = RitmRequest::GetStatus {
            ca: CaId::from_name("IdCA"),
            serial: SerialNumber::from_u24(3),
        };
        let frame = req.to_frame_v2(0xDEAD_BEEF);
        assert_eq!(frame.len(), 4 + 4 + req.encoded_len(), "v2 adds 4 bytes");
        let (body, _) = split_frame(&frame).unwrap();
        assert_eq!(peek_request_envelope(body), (PROTOCOL_V2, 0xDEAD_BEEF));
        let env = RequestEnvelope::decode(body);
        assert_eq!(env.reply_version, PROTOCOL_V2);
        assert_eq!(env.request_id, 0xDEAD_BEEF);
        assert_eq!(env.request, Ok(req));

        let resp = RitmResponse::Error(ProtoError::NotFound);
        let reply = resp.to_frame_for(PROTOCOL_V2, 0xDEAD_BEEF);
        let (rbody, _) = split_frame(&reply).unwrap();
        assert_eq!(
            RitmResponse::decode_envelope(rbody).unwrap(),
            (PROTOCOL_V2, 0xDEAD_BEEF, resp.clone())
        );
        // The id-skipping decoder still accepts the same bytes.
        assert_eq!(RitmResponse::decode_body(rbody).unwrap(), resp);
        // And the v1 framing of the same response is byte-identical to the
        // id-less encoder — negotiation down costs nothing.
        assert_eq!(resp.to_frame_for(PROTOCOL_VERSION, 77), resp.to_frame());
    }

    #[test]
    fn truncated_v2_header_is_malformed_with_a_v1_reply_tag() {
        // Version byte says v2 but the id is cut short: decodable only as
        // an error, and the reply tag must fall back to v1/id 0 (there is
        // no id to echo).
        let body = [PROTOCOL_V2, 0x01, 0x02];
        assert_eq!(peek_request_envelope(&body), (PROTOCOL_VERSION, 0));
        let env = RequestEnvelope::decode(&body);
        assert_eq!(env.reply_version, PROTOCOL_VERSION);
        assert!(matches!(env.request, Err(ProtoError::Malformed { .. })));
    }

    #[test]
    fn retired_kinds_are_unknown_kinds() {
        // Well-formed v2 bodies as the retired kinds framed them — the
        // freshness pull 0x02 (ca), the unpaged catch-up 0x03 (ca ‖ have),
        // the paged catch-up 0x08 (ca ‖ u64 have ‖ u32 limit), the gossip
        // request 0x09 and reply 0x89 (an empty root vector), and the
        // freshness reply 0x82 (tag 0 ‖ 20-byte statement) — must now fail
        // as unknown kinds at the kind byte, right after the 4-byte id.
        let body = |kind: u8, fields: &[u8]| [&[PROTOCOL_V2, 0, 0, 0, 7, kind], fields].concat();
        for request in [
            body(0x02, &[7; 8]),
            body(0x03, &[7; 16]),
            body(0x08, &[7; 20]),
            body(0x09, &[0, 0]),
        ] {
            assert_eq!(
                RitmRequest::decode_body(&request),
                Err(ProtoError::Malformed { offset: 5 })
            );
        }
        for reply in [body(0x89, &[0, 0]), body(0x82, &[0; 21])] {
            match RitmResponse::decode_body(&reply) {
                Err(TransportError::BadResponse(e)) => {
                    assert_eq!((e.context, e.offset), ("unknown response kind", 5));
                }
                other => panic!("expected an unknown response kind, got {other:?}"),
            }
        }
    }

    #[test]
    fn chain_past_max_len_is_malformed_not_a_panic() {
        // 255 structurally-valid entries: accepted lengths stop at 254 so
        // even an uncompressed response stays encodable.
        let mut w = Writer::new();
        w.u8(PROTOCOL_VERSION);
        w.u8(0x05); // GetMultiStatus
        w.u8(255);
        for i in 0..255u32 {
            w.bytes(&CaId::from_name("ChainCA").0);
            w.vec8(SerialNumber::from_u24(i).as_bytes());
        }
        w.u8(0); // compress = false
        let err = RitmRequest::decode_body(w.as_bytes()).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed { .. }));

        // The boundary itself is fine.
        let chain: Vec<(CaId, SerialNumber)> = (0..super::MAX_CHAIN_LEN as u32)
            .map(|i| (CaId::from_name("ChainCA"), SerialNumber::from_u24(i)))
            .collect();
        let req = RitmRequest::GetMultiStatus {
            chain,
            compress: false,
        };
        let frame = req.to_frame();
        let (body, _) = split_frame(&frame).unwrap();
        assert_eq!(RitmRequest::decode_body(body).unwrap(), req);
    }

    #[test]
    fn forged_chain_count_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u8(PROTOCOL_VERSION);
        w.u8(0x05); // GetMultiStatus
        w.u8(250); // claims 250 entries, but nothing follows
        let err = RitmRequest::decode_body(w.as_bytes()).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed { .. }));
    }

    #[test]
    fn into_encoders_append_byte_identically() {
        let req = RitmRequest::GetMultiStatus {
            chain: vec![
                (CaId::from_name("IntoCA"), SerialNumber::from_u24(1)),
                (CaId::from_name("IntoCA"), SerialNumber::from_u24(2)),
            ],
            compress: true,
        };
        // Appending after existing scratch contents leaves them intact and
        // produces the exact to_frame bytes after them.
        let mut scratch = b"prefix".to_vec();
        req.to_frame_into(&mut scratch);
        req.to_frame_v2_into(42, &mut scratch);
        let mut expected = b"prefix".to_vec();
        expected.extend_from_slice(&req.to_frame());
        expected.extend_from_slice(&req.to_frame_v2(42));
        assert_eq!(scratch, expected);

        let key = ritm_crypto::ed25519::SigningKey::from_seed([7u8; 32]);
        let digest = ritm_crypto::digest::Digest20::hash(b"into");
        let root = SignedRoot::create(&key, CaId::from_name("IntoCA"), digest, 1, digest, 1_000);
        let resp = RitmResponse::SignedRoot(root);
        let mut scratch = Vec::new();
        resp.to_frame_for_into(PROTOCOL_VERSION, 0, &mut scratch);
        resp.to_frame_for_into(PROTOCOL_V2, 7, &mut scratch);
        let mut expected = resp.to_frame();
        expected.extend_from_slice(&resp.to_frame_for(PROTOCOL_V2, 7));
        assert_eq!(scratch, expected);
    }

    #[test]
    fn shared_body_is_the_version_independent_frame_tail() {
        let resp = RitmResponse::Error(ProtoError::NotFound);
        let body = resp.to_shared_body();
        assert_eq!(body.len(), resp.encoded_len() - 1);
        // v1 frame = len ‖ version ‖ shared body.
        let v1 = resp.to_frame();
        assert_eq!(&v1[5..], &body[..]);
        // v2 frame = len ‖ version ‖ id ‖ shared body.
        let v2 = resp.to_frame_for(PROTOCOL_V2, 0xAB);
        assert_eq!(&v2[9..], &body[..]);
    }

    #[test]
    fn oversized_frame_prefix_rejected() {
        let mut bytes = vec![0xFF; 8];
        bytes[0..4].copy_from_slice(&(u32::MAX).to_be_bytes());
        assert!(split_frame(&bytes).is_err());
    }
}
