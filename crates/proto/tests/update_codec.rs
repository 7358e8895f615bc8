//! The `Pull` / `Update` codec against hostile bytes: decoding is total
//! (random, truncated and flipped bodies are errors, never panics), a
//! forged serial count is refused before anything is sized by it, and
//! every value has exactly one encoding — a varint padded with an empty
//! 7-bit group is rejected.

use proptest::prelude::*;
use ritm_crypto::digest::Digest20;
use ritm_crypto::ed25519::SigningKey;
use ritm_crypto::wire::Writer;
use ritm_dictionary::{CaId, FreshnessStatement, RefreshMessage, SerialNumber, SignedRoot};
use ritm_proto::{split_frame, RitmRequest, RitmResponse, Update, PROTOCOL_VERSION};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes this thread allocates while it is measuring.
struct CountingAlloc;

thread_local! {
    /// `Some(bytes allocated so far)` while this thread is measuring.
    static ALLOCATED: Cell<Option<usize>> = const { Cell::new(None) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get().map(|n| n + layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get().map(|n| n + new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the bytes it allocated on this
/// thread (frees not subtracted).
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATED.with(|a| a.set(Some(0)));
    let out = f();
    let bytes = ALLOCATED.with(|a| a.replace(None)).expect("measuring");
    (out, bytes)
}

/// The `Update` response kind byte.
const UPDATE: u8 = 0x8A;

fn root() -> SignedRoot {
    let key = SigningKey::from_seed([5u8; 32]);
    let digest = Digest20::hash(b"update codec");
    SignedRoot::create(&key, CaId::from_name("CodecCA"), digest, 9, digest, 1_000)
}

/// An update with `n` serials of `len` bytes, `root` present or not, and
/// the refresh slot holding nothing, a statement or a rotated root.
fn update(n: usize, len: usize, with_root: bool, refresh: u8, remaining: u64) -> Update {
    let serials = (0..n)
        .map(|i| {
            let mut b = vec![0x40; len];
            b[len - 1] = i as u8;
            SerialNumber::new(&b).expect("1..=20 bytes")
        })
        .collect();
    Update {
        serials,
        signed_root: with_root.then(root),
        remaining,
        refresh: match refresh % 3 {
            0 => None,
            1 => Some(RefreshMessage::Freshness(FreshnessStatement::new(
                Digest20::hash(b"statement"),
            ))),
            _ => Some(RefreshMessage::NewRoot(root())),
        },
    }
}

/// A v1 response body: version ‖ kind ‖ fields.
fn body(update: &Update) -> Vec<u8> {
    let frame = RitmResponse::Update(update.clone()).to_frame();
    let (body, _) = split_frame(&frame).expect("a whole frame");
    body.to_vec()
}

/// `update`'s body written field by field, the varint numbered `padded`
/// (0 = the serial count, 1 = `remaining`) with an empty 7-bit group
/// appended.
fn padded_body(update: &Update, padded: Option<usize>) -> Vec<u8> {
    let mut w = Writer::new();
    let varint = |w: &mut Writer, v: u64, field: usize| {
        let mut bytes = Writer::new();
        bytes.varint(v);
        let mut bytes = bytes.into_bytes();
        if padded == Some(field) {
            *bytes.last_mut().expect("a varint has a byte") |= 0x80;
            bytes.push(0);
        }
        w.bytes(&bytes);
    };
    let full = body(update);
    // version ‖ kind ‖ flags are the body's first three bytes.
    w.bytes(&full[..3]);
    varint(&mut w, update.serials.len() as u64, 0);
    for s in &update.serials {
        w.vec8(s.as_bytes());
    }
    if let Some(root) = &update.signed_root {
        w.bytes(&root.to_bytes());
    }
    varint(&mut w, update.remaining, 1);
    match &update.refresh {
        None => {}
        Some(RefreshMessage::Freshness(f)) => {
            w.bytes(&f.to_bytes());
        }
        Some(RefreshMessage::NewRoot(r)) => {
            w.bytes(&r.to_bytes());
        }
    }
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever follows the kind byte, decoding returns, allocates at most
    /// a bounded amount per input byte, and what it accepts re-encodes to
    /// the input.
    #[test]
    fn update_decoding_is_total_and_bounded(
        mode in 0u8..3,
        count in any::<u64>(),
        tail in prop::collection::vec(any::<u8>(), 0..400),
        n in 0usize..40,
        len in 1usize..21,
        with_root in any::<bool>(),
        refresh in any::<u8>(),
        cut in any::<u16>(),
    ) {
        let input = match mode {
            0 => [&[PROTOCOL_VERSION, UPDATE][..], &tail].concat(),
            1 => {
                // A forged count in front of whatever bytes follow.
                let mut w = Writer::new();
                w.u8(PROTOCOL_VERSION).u8(UPDATE).u8(refresh % 8).varint(count).bytes(&tail);
                w.into_bytes()
            }
            _ => {
                let mut bytes = body(&update(n, len, with_root, refresh, count));
                bytes.truncate(cut as usize % (bytes.len() + 1));
                bytes.extend_from_slice(&tail[..tail.len() % 24]);
                bytes
            }
        };
        // A serial costs at least 2 input bytes and one `SerialNumber`.
        let per_byte = std::mem::size_of::<SerialNumber>().div_ceil(2) + 1;
        let (decoded, bytes) = allocated_by(|| RitmResponse::decode_body(&input));
        prop_assert!(bytes <= per_byte * input.len(), "{} B for {} B", bytes, input.len());
        if let Ok(response) = decoded {
            prop_assert!(matches!(response, RitmResponse::Update(_)));
            let frame = response.to_frame();
            prop_assert_eq!(&frame[4..], &input[..]);
        }
    }

    /// Flipping any byte after the version of an honest update, by any
    /// mask, never panics the decoder, and whatever still decodes is a
    /// different update: no two byte strings carry the same one.
    #[test]
    fn flipped_update_bytes_never_panic(
        n in 0usize..12,
        len in 1usize..21,
        with_root in any::<bool>(),
        refresh in any::<u8>(),
        remaining in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let honest = update(n, len, with_root, refresh, remaining);
        let bytes = body(&honest);
        for pos in 1..bytes.len() {
            for m in [0x01, 0x80, 0xff, mask] {
                let mut flipped = bytes.clone();
                flipped[pos] ^= m;
                if let Ok(RitmResponse::Update(u)) = RitmResponse::decode_body(&flipped) {
                    prop_assert_ne!(u, honest.clone(), "byte {} ^ {:#x}", pos, m);
                }
            }
        }
    }

    /// Each integer has one encoding: padding the serial count or
    /// `remaining` of an honest update, or `have` or `limit` of a pull,
    /// with an empty 7-bit group is rejected, while the unpadded encoding
    /// is the codec's own bytes.
    #[test]
    fn non_minimal_varints_are_rejected(
        n in 0usize..300,
        with_root in any::<bool>(),
        refresh in any::<u8>(),
        remaining in any::<u64>(),
        have in any::<u64>(),
        limit in any::<u32>(),
        field in 0usize..2,
    ) {
        let honest = update(n, 3, with_root, refresh, remaining);
        prop_assert_eq!(padded_body(&honest, None), body(&honest));
        prop_assert!(RitmResponse::decode_body(&padded_body(&honest, Some(field))).is_err());

        let pull = RitmRequest::Pull { ca: CaId::from_name("CodecCA"), have, limit };
        let frame = pull.to_frame();
        let (pull_body, _) = split_frame(&frame).expect("a whole frame");
        prop_assert_eq!(RitmRequest::decode_body(pull_body), Ok(pull));
        // version ‖ kind ‖ 8-byte CA, then the two varints.
        let mut w = Writer::new();
        w.bytes(&pull_body[..10]);
        for (i, v) in [have, u64::from(limit)].into_iter().enumerate() {
            let mut bytes = Writer::new();
            bytes.varint(v);
            let mut bytes = bytes.into_bytes();
            if i == field {
                *bytes.last_mut().expect("a varint has a byte") |= 0x80;
                bytes.push(0);
            }
            w.bytes(&bytes);
        }
        prop_assert!(RitmRequest::decode_body(w.as_bytes()).is_err());
    }
}

#[test]
fn a_limit_past_u32_and_unknown_flags_are_malformed() {
    let mut w = Writer::new();
    w.u8(PROTOCOL_VERSION)
        .u8(0x0A)
        .bytes(&CaId::from_name("CodecCA").0);
    w.varint(7).varint(u64::from(u32::MAX) + 1);
    assert!(RitmRequest::decode_body(w.as_bytes()).is_err());
    // Bits 3..8 are unassigned, and refresh code 3 names nothing.
    for flags in [0x08, 0x80, 0x06, 0x07] {
        let input = [PROTOCOL_VERSION, UPDATE, flags, 0, 0];
        assert!(RitmResponse::decode_body(&input).is_err(), "{flags:#x}");
    }
    // The smallest update: nothing new, nothing remaining, no refresh.
    assert_eq!(
        RitmResponse::decode_body(&[PROTOCOL_VERSION, UPDATE, 0, 0, 0]).unwrap(),
        RitmResponse::Update(Update::default())
    );
}
