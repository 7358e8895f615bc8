//! Encoded-response cache staleness property: after ANY interleaving of
//! issuance batches, freshness-only refreshes, mirror re-installs and
//! serves across two CAs, a body the RA's `StatusServer` serves must
//! decode to exactly its mirror's current signed root and freshness
//! statement — never to an older one. Each CA's bodies live in its
//! publication beside the snapshot they were encoded from, so a publish
//! (a same-epoch refresh included) or an install must drop them all; a
//! re-installed mirror restarts its epoch below the one it replaces, so no
//! epoch may key the bodies either.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{RaConfig, RevocationAgent};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{
    CaDictionary, CaId, MirrorDictionary, RevocationIssuance, SerialNumber, SignedRoot,
};
use ritm_proto::{RitmResponse, PROTOCOL_VERSION};

const DELTA: u64 = 10;
const T0: u64 = 1_000_000;
const CAS: usize = 2;

/// One step of the interleaving; the first field picks the CA.
#[derive(Debug, Clone)]
enum Op {
    /// Insert `n` fresh serials and apply them through the RA's write
    /// guard, which publishes (the epoch advances).
    Batch(usize, u8),
    /// A real `CaDictionary::refresh`, applied through the write guard:
    /// same epoch and tree, new freshness (the adversarial case).
    Refresh(usize),
    /// Install a fresh mirror holding the first `keep` (mod batches + 1)
    /// of the CA's batches: its epoch restarts at or below the old one.
    Reinstall(usize, u8),
    /// Serve one serial through the encoded cache and check its root.
    Serve(usize, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Serves are listed twice, so about two ops in five are serves.
    prop_oneof![
        (0..CAS, 1..8u8).prop_map(|(c, n)| Op::Batch(c, n)),
        (0..CAS).prop_map(Op::Refresh),
        (0..CAS, 0..=255u8).prop_map(|(c, k)| Op::Reinstall(c, k)),
        (0..CAS, 0..16u8).prop_map(|(c, s)| Op::Serve(c, s)),
        (0..CAS, 0..16u8).prop_map(|(c, s)| Op::Serve(c, s)),
    ]
}

/// One CA and the batches it has issued, with how many of them the RA's
/// current mirror holds.
struct Feed {
    ca: CaDictionary,
    genesis: SignedRoot,
    batches: Vec<RevocationIssuance>,
    applied: usize,
    next_serial: u32,
}

impl Feed {
    fn new(name: &str, seed: u8, rng: &mut StdRng) -> Self {
        let ca = CaDictionary::new(
            CaId::from_name(name),
            SigningKey::from_seed([seed; 32]),
            DELTA,
            64,
            rng,
            T0,
        );
        Feed {
            genesis: *ca.signed_root(),
            ca,
            batches: Vec::new(),
            applied: 0,
            next_serial: 0,
        }
    }

    /// A fresh mirror of the CA holding its first `keep` batches.
    fn mirror(&self, keep: usize, now: u64) -> MirrorDictionary {
        let mut m =
            MirrorDictionary::new(self.ca.ca(), self.ca.verifying_key(), self.genesis).unwrap();
        m.set_delta(DELTA);
        for batch in &self.batches[..keep] {
            m.apply_issuance(batch, now).unwrap();
        }
        m
    }

    /// Applies the batches the RA's mirror lacks, as a sync round would.
    fn catch_up(&mut self, ra: &mut RevocationAgent, now: u64) {
        let mut mirror = ra.mirror_mut(&self.ca.ca()).unwrap();
        for batch in &self.batches[self.applied..] {
            mirror.apply_issuance(batch, now).unwrap();
        }
        self.applied = self.batches.len();
    }
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
        let mut feeds = [
            Feed::new("EncPropCA", 6, &mut rng),
            Feed::new("EncPropCB", 7, &mut rng),
        ];
        let mut ra = RevocationAgent::new(RaConfig { delta: DELTA, ..Default::default() });
        for feed in &feeds {
            ra.install_mirror(feed.ca.ca(), feed.mirror(0, T0));
        }
        let server = ra.status_server();

        let mut now = T0;
        for op in ops {
            match op {
                Op::Batch(c, n) => {
                    now += 1;
                    let feed = &mut feeds[c];
                    feed.catch_up(&mut ra, now);
                    let serials: Vec<SerialNumber> = (0..n as u32)
                        .map(|i| SerialNumber::from_u24(feed.next_serial + i))
                        .collect();
                    feed.next_serial += n as u32;
                    feed.batches.push(feed.ca.insert(&serials, &mut rng, now).unwrap());
                    feed.catch_up(&mut ra, now);
                }
                Op::Refresh(c) => {
                    // A whole period on: the statement is always a new one.
                    now += DELTA;
                    let feed = &mut feeds[c];
                    feed.catch_up(&mut ra, now);
                    let epoch = ra.mirror(&feed.ca.ca()).unwrap().epoch();
                    let msg = feed.ca.refresh(&mut rng, now);
                    ra.mirror_mut(&feed.ca.ca())
                        .unwrap()
                        .apply_refresh(&msg, now)
                        .unwrap();
                    prop_assert_eq!(ra.mirror(&feed.ca.ca()).unwrap().epoch(), epoch);
                }
                Op::Reinstall(c, keep) => {
                    let feed = &mut feeds[c];
                    feed.applied = keep as usize % (feed.batches.len() + 1);
                    ra.install_mirror(feed.ca.ca(), feed.mirror(feed.applied, now));
                }
                Op::Serve(c, s) => {
                    let ca = feeds[c].ca.ca();
                    let serial = SerialNumber::from_u24(s as u32);
                    let body = server.encoded_status(&ca, &serial).unwrap();
                    let RitmResponse::Status(payload) = decode_shared(&body) else {
                        panic!("expected a status response");
                    };
                    let mirror = ra.mirror(&ca).unwrap();
                    prop_assert_eq!(
                        &payload.statuses[0].signed_root,
                        mirror.signed_root(),
                        "cached root is stale"
                    );
                    prop_assert_eq!(
                        &payload.statuses[0].freshness,
                        mirror.freshness(),
                        "cached freshness is stale"
                    );
                }
            }
        }
    }
}
