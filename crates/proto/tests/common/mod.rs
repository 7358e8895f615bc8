//! Shared envelope generators for the protocol integration tests: one
//! request and one response per wire kind, rng-varied, over a real
//! dictionary world (so responses carry structurally-valid signed roots,
//! proofs, and freshness statements). Used by both the codec round-trip
//! suite (`roundtrip.rs`) and the resumable-framing suite (`framing.rs`).
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{
    CaDictionary, CaId, MirrorDictionary, RefreshMessage, RevocationIssuance, SerialNumber,
};
use ritm_proto::{ProtoError, RitmRequest, RitmResponse, StatusPayload, Update};

pub const T0: u64 = 1_000_000;

fn arbitrary_serial(rng: &mut StdRng) -> SerialNumber {
    let len = rng.gen_range(1usize..21);
    let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    SerialNumber::new(&bytes).expect("1..=20 bytes is valid")
}

fn arbitrary_ca(rng: &mut StdRng) -> CaId {
    let mut b = [0u8; 8];
    rng.fill_bytes(&mut b);
    CaId(b)
}

/// One request per wire kind, with rng-varied fields.
pub fn requests(rng: &mut StdRng) -> Vec<RitmRequest> {
    let chain_len = rng.gen_range(0usize..8);
    let chain: Vec<(CaId, SerialNumber)> = (0..chain_len)
        .map(|_| (arbitrary_ca(rng), arbitrary_serial(rng)))
        .collect();
    vec![
        RitmRequest::FetchDelta {
            ca: arbitrary_ca(rng),
        },
        RitmRequest::FetchFreshness {
            ca: arbitrary_ca(rng),
        },
        RitmRequest::CatchUpPaged {
            ca: arbitrary_ca(rng),
            have: rng.gen(),
            limit: rng.gen(),
        },
        RitmRequest::GetStatus {
            ca: arbitrary_ca(rng),
            serial: arbitrary_serial(rng),
        },
        RitmRequest::GetMultiStatus {
            chain,
            compress: rng.gen(),
        },
        RitmRequest::GetSignedRoot {
            ca: arbitrary_ca(rng),
        },
        RitmRequest::GetManifest {
            ca: arbitrary_ca(rng),
        },
        RitmRequest::Pull {
            ca: arbitrary_ca(rng),
            have: rng.gen::<u64>() >> rng.gen_range(0u32..64),
            limit: rng.gen(),
        },
    ]
}

/// A real dictionary world, so responses carry structurally-valid signed
/// roots, proofs, and freshness statements (round-tripping is still purely
/// syntactic, but realistic shapes exercise the embedded codecs).
pub fn world(seed: u64, n: u32) -> (CaDictionary, MirrorDictionary) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ca = CaDictionary::new(
        CaId::from_name("PropProtoCA"),
        SigningKey::from_seed([1u8; 32]),
        10,
        128,
        &mut rng,
        T0,
    );
    let mut m = MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
    m.set_delta(10);
    if n > 0 {
        let serials: Vec<SerialNumber> = (0..n).map(|i| SerialNumber::from_u24(i * 3)).collect();
        let iss = ca.insert(&serials, &mut rng, T0 + 1).unwrap();
        m.apply_issuance(&iss, T0 + 1).unwrap();
    }
    (ca, m)
}

/// One response per wire kind (both refresh tags, single and compressed
/// status payloads, every error variant), with rng-varied content.
pub fn responses(rng: &mut StdRng) -> Vec<RitmResponse> {
    let n = rng.gen_range(0u32..40);
    let (mut ca, mirror) = world(rng.gen(), n);
    let mut inner = StdRng::seed_from_u64(rng.gen());

    let iss_serials: Vec<SerialNumber> = (0..rng.gen_range(0u32..30))
        .map(|_| arbitrary_serial(rng))
        .collect();
    let issuance = RevocationIssuance {
        first_number: rng.gen(),
        serials: iss_serials,
        signed_root: *mirror.signed_root(),
    };

    let single = mirror.prove(&arbitrary_serial(rng));
    let multi_serials: Vec<SerialNumber> = (0..rng.gen_range(1u32..5))
        .map(|i| SerialNumber::from_u24(i * 7 + 1))
        .collect();
    let multi = mirror.prove_multi(&multi_serials);
    let payload = StatusPayload {
        statuses: vec![single],
        multi: vec![multi],
    };

    let refresh = ca.refresh(&mut inner, T0 + 11);

    let page_serials: Vec<SerialNumber> = (0..rng.gen_range(0u32..30))
        .map(|_| arbitrary_serial(rng))
        .collect();
    let page = RevocationIssuance {
        first_number: rng.gen(),
        serials: page_serials,
        signed_root: *mirror.signed_root(),
    };

    let (update_serials, update_refresh) = (page.serials.clone(), refresh.clone());
    let mut out = vec![
        RitmResponse::Delta(issuance),
        RitmResponse::DeltaPage {
            issuance: page,
            remaining: rng.gen(),
        },
        RitmResponse::Freshness(refresh),
        RitmResponse::Freshness(RefreshMessage::NewRoot(*mirror.signed_root())),
        RitmResponse::Status(payload),
        RitmResponse::Status(StatusPayload::default()),
        RitmResponse::SignedRoot(*mirror.signed_root()),
        RitmResponse::Manifest((0..rng.gen_range(0usize..200)).map(|_| rng.gen()).collect()),
        RitmResponse::Update(Update {
            serials: update_serials,
            signed_root: Some(*mirror.signed_root()),
            remaining: rng.gen::<u64>() >> rng.gen_range(0u32..64),
            refresh: Some(RefreshMessage::NewRoot(*mirror.signed_root())),
        }),
        RitmResponse::Update(Update {
            refresh: Some(update_refresh),
            ..Update::default()
        }),
        RitmResponse::Update(Update::default()),
    ];
    out.extend(
        [
            ProtoError::UnsupportedVersion {
                requested: rng.gen(),
                supported: rng.gen(),
            },
            ProtoError::Malformed { offset: rng.gen() },
            ProtoError::UnknownCa(arbitrary_ca(rng)),
            ProtoError::NotFound,
            ProtoError::Unsupported,
            ProtoError::Busy,
            ProtoError::Internal,
            ProtoError::ResponseTooLarge {
                len: rng.gen(),
                max: rng.gen(),
            },
            ProtoError::IdleTimeout {
                after_ms: rng.gen(),
            },
        ]
        .map(RitmResponse::Error),
    );
    out
}
