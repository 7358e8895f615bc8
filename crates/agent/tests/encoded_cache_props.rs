//! Encoded-response cache staleness property: after ANY interleaving of
//! issuance batches, freshness-only refreshes, and serves, a response
//! served from the `StatusServer`'s encoded cache must decode to exactly
//! the current snapshot's signed root and freshness statement — never to
//! an older one. This is the invariant the generation-keyed cache exists
//! to uphold: epochs alone cannot key the cache (a freshness refresh
//! changes the served bytes without advancing the epoch), so the cell's
//! publication generation must.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::StatusServer;
use ritm_crypto::digest::Digest20;
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, FreshnessStatement, MirrorDictionary, SerialNumber};
use ritm_proto::{RitmResponse, PROTOCOL_VERSION};

const DELTA: u64 = 10;
const T0: u64 = 1_000_000;

/// One step of the interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Insert `n` fresh serials and publish the new snapshot (epoch and
    /// generation both advance).
    Batch(u8),
    /// Republish with a new freshness statement, same epoch and tree
    /// (only the generation advances — the adversarial case).
    Refresh,
    /// Serve one serial through the encoded cache and check its root.
    Serve(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1..8u8).prop_map(Op::Batch),
        Just(Op::Refresh),
        (0..96u8).prop_map(Op::Serve),
    ]
}

/// Decodes a cached shared body (`kind ‖ fields`) the way a peer would:
/// prefix the envelope version byte and run the normal body decoder.
fn decode_shared(body: &[u8]) -> RitmResponse {
    let mut framed = Vec::with_capacity(1 + body.len());
    framed.push(PROTOCOL_VERSION);
    framed.extend_from_slice(body);
    RitmResponse::decode_body(&framed).expect("cached body must decode")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cached_encoded_responses_are_never_stale(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut rng = StdRng::seed_from_u64(61);
        let mut ca = CaDictionary::new(
            CaId::from_name("EncPropCA"),
            SigningKey::from_seed([6u8; 32]),
            DELTA,
            64,
            &mut rng,
            T0,
        );
        let ca_id = ca.ca();
        let mut m =
            MirrorDictionary::new(ca_id, ca.verifying_key(), *ca.signed_root()).unwrap();
        m.set_delta(DELTA);
        let server = StatusServer::new();
        prop_assert!(server.publish(m.snapshot()));

        let mut now = T0;
        let mut next_serial = 0u32;
        for op in ops {
            match op {
                Op::Batch(n) => {
                    now += 1;
                    let serials: Vec<SerialNumber> = (0..n as u32)
                        .map(|i| SerialNumber::from_u24(next_serial + i))
                        .collect();
                    next_serial += n as u32;
                    let iss = ca.insert(&serials, &mut rng, now).unwrap();
                    m.apply_issuance(&iss, now).unwrap();
                    prop_assert!(server.publish(m.snapshot()));
                }
                Op::Refresh => {
                    now += 1;
                    let snap = server.snapshot(&ca_id).unwrap();
                    let fresher =
                        FreshnessStatement::new(Digest20::hash(now.to_be_bytes()));
                    prop_assert!(server.publish_refresh(
                        &ca_id,
                        *snap.signed_root(),
                        fresher
                    ));
                }
                Op::Serve(s) => {
                    let serial = SerialNumber::from_u24(s as u32);
                    let body = server.encoded_status(&ca_id, &serial).unwrap();
                    let RitmResponse::Status(payload) = decode_shared(&body) else {
                        panic!("expected a status response");
                    };
                    let current = server.snapshot(&ca_id).unwrap();
                    prop_assert_eq!(
                        &payload.statuses[0].signed_root,
                        current.signed_root(),
                        "cached root is stale"
                    );
                    prop_assert_eq!(
                        &payload.statuses[0].freshness,
                        current.freshness(),
                        "cached freshness is stale"
                    );
                }
            }
        }
    }
}
