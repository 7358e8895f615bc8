//! End-to-end gossip mesh over the wire protocol: two fleet nodes
//! exchange `GossipRoots`/`GossipAck` through real frames (loopback
//! transport), a lagging node is flagged stale under the `RootTracker`
//! rule, an injected equivocation surfaces as a split view, and the
//! fleet health report aggregates all of it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{RaConfig, RevocationAgent};
use ritm_cdn::Region;
use ritm_crypto::digest::Digest20;
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, SerialNumber, SignedRoot};
use ritm_fleet::{FleetHealthReport, FleetNode, GossipAnomaly, PinnedGossipPeer};
use ritm_proto::{Body, Loopback, RitmRequest, Service};

const T0: u64 = 1_397_000_000;

fn serials(range: core::ops::Range<u64>) -> Vec<SerialNumber> {
    range.map(SerialNumber::from_u64).collect()
}

#[test]
fn gossip_detects_stale_peer_and_split_view_across_the_wire() {
    let mut rng = StdRng::seed_from_u64(42);
    let key = SigningKey::from_seed([9u8; 32]);
    let mut ca = CaDictionary::new(
        CaId::from_name("MeshCA"),
        key.clone(),
        10,
        128,
        &mut rng,
        T0,
    );
    let genesis = *ca.signed_root();

    let mut node_a = FleetNode::new(
        "ra-a",
        Region::Europe,
        RevocationAgent::new(RaConfig::default()),
    );
    let mut node_b = FleetNode::new(
        "ra-b",
        Region::Japan,
        RevocationAgent::new(RaConfig::default()),
    );
    node_a.follow(ca.ca(), ca.verifying_key(), genesis).unwrap();
    node_b.follow(ca.ca(), ca.verifying_key(), genesis).unwrap();

    // Two issuance batches. Node A applies both; node B is pinned at the
    // first (its sync lane "wedged").
    let first = ca.insert(&serials(1..40), &mut rng, T0 + 1).unwrap();
    let second = ca.insert(&serials(40..70), &mut rng, T0 + 2).unwrap();
    for node in [&mut node_a, &mut node_b] {
        node.ra
            .mirror_mut(&ca.ca())
            .unwrap()
            .apply_issuance(&first, T0 + 1)
            .unwrap();
    }
    node_a
        .ra
        .mirror_mut(&ca.ca())
        .unwrap()
        .apply_issuance(&second, T0 + 2)
        .unwrap();
    node_a.publish_local();
    node_b.publish_local();

    // A gossips with B over real frames: B acks with its (older) root,
    // and A's ledger flags B stale.
    let mut to_b = Loopback::new(node_b.service());
    let anomalies = node_a.gossip_with("ra-b", &mut to_b).unwrap().unwrap();
    assert!(
        matches!(&anomalies[..], [GossipAnomaly::StalePeer { peer, .. }] if peer == "ra-b"),
        "expected exactly one stale-peer flag, got {anomalies:?}"
    );

    // B gossips with A: B pushed its stale root to A's service (recorded
    // inbound) and learned the newer root from A's ack — B's own ledger
    // now knows it is behind the fleet.
    let mut to_a = Loopback::new(node_a.service());
    let anomalies = node_b.gossip_with("ra-a", &mut to_a).unwrap().unwrap();
    assert!(anomalies.is_empty(), "the fresher root advances quietly");
    let b_ledger = node_b.ledger().lock().unwrap();
    assert_eq!(
        b_ledger.newest(&ca.ca()).unwrap().size,
        ca.len() as u64,
        "B's ledger tracks the fleet-newest root"
    );
    assert_eq!(b_ledger.stale_peers(), vec!["ra-b".to_string()]);
    drop(b_ledger);

    // B catches up and re-announces in both directions (A's ledger also
    // remembers the stale inbound push and needs the fresh one): the
    // fleet view converges.
    node_b
        .ra
        .mirror_mut(&ca.ca())
        .unwrap()
        .apply_issuance(&second, T0 + 2)
        .unwrap();
    node_b.publish_local();
    node_a
        .gossip_with("ra-b", &mut Loopback::new(node_b.service()))
        .unwrap();
    node_b
        .gossip_with("ra-a", &mut Loopback::new(node_a.service()))
        .unwrap();
    assert!(node_a.ledger().lock().unwrap().is_converged());

    // Injected split view: a validly-signed root of the same size but a
    // different digest (an equivocating CA or a poisoned mirror path).
    let current = *node_a.ra.mirror(&ca.ca()).unwrap().signed_root();
    let forked = SignedRoot::create(
        &key,
        ca.ca(),
        Digest20::hash(b"forked-view"),
        current.size,
        Digest20::hash(b"forked-anchor"),
        current.timestamp,
    );
    let pinned = PinnedGossipPeer {
        roots: vec![(ca.ca(), forked)],
    };
    let anomalies = node_a
        .gossip_with("ra-evil", &mut Loopback::new(&pinned))
        .unwrap()
        .unwrap();
    assert!(
        matches!(&anomalies[..], [GossipAnomaly::SplitView { size, .. }] if *size == current.size)
    );

    // Serve a hot status twice through A's service, as frames (the entry
    // an event server uses): the fleet service must not lose the status
    // service's encoded-response cache, so both replies share one body.
    let svc = node_a.service();
    let frame = RitmRequest::GetStatus {
        ca: ca.ca(),
        serial: SerialNumber::from_u64(1),
    }
    .to_frame_v2(1);
    let (first, second) = (svc.serve_frame(&frame), svc.serve_frame(&frame));
    match (first.body(), second.body()) {
        (Body::Shared(a), Body::Shared(b)) => assert!(std::sync::Arc::ptr_eq(a, b)),
        other => panic!("expected two shared bodies, got {other:?}"),
    }

    let report = FleetHealthReport::aggregate([&node_a, &node_b]);
    assert_eq!(report.shards.len(), 2);
    assert_eq!(report.gossip.split_views, 1);
    assert!(report.encoded_cache.hits >= 1, "second fetch must hit");
    assert!(
        !report.is_converged(),
        "the injected fork keeps the fleet un-converged"
    );

    // A plain status server (no gossip lane) answers Unsupported — and
    // the gossiping side reports it as a non-gossiping peer, not an
    // outage.
    let plain = ritm_agent::StatusService::new(node_b.ra.status_server());
    let outcome = node_a
        .gossip_with("ra-old", &mut Loopback::new(&plain))
        .unwrap();
    assert!(outcome.is_none());
}
