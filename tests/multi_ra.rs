//! Integration test for the §VIII "Multiple RAs" rules on a real simulated
//! path: two independently-installed RAs between client and server must not
//! double-inject, the fresher dictionary wins, and an upstream status whose
//! root is not authentic never displaces ours.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm::agent::{
    FlowTable, InterceptConfig, InterceptStats, RaConfig, RevocationAgent, StatusServer,
};
use ritm::ca::CertificationAuthority;
use ritm::cdn::network::Cdn;
use ritm::client::{AbortReason, DowngradePolicy, RitmClient, RitmClientConfig, RitmEvent};
use ritm::core::nodes::{ClientNode, ServerNode};
use ritm::crypto::SigningKey;
use ritm::dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber, SignedRoot};
use ritm::net::middlebox::MiddleboxNode;
use ritm::net::sim::{Path, Simulator};
use ritm::net::tcp::{Addr, FourTuple, SocketAddr};
use ritm::net::time::{SimDuration, SimTime};
use ritm::tls::certificate::{Certificate, CertificateChain, TrustAnchors};
use ritm::tls::connection::ServerContext;
use ritm::tls::engine::ServerEngine;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

const T0: u64 = 1_397_000_000;
const DELTA: u64 = 10;

#[test]
fn two_ras_on_path_inject_exactly_one_status() {
    let mut rng = StdRng::seed_from_u64(81);
    let mut cdn = Cdn::new(SimDuration::from_secs(DELTA));
    let ca = CertificationAuthority::new(
        "MultiCA",
        SigningKey::from_seed([1u8; 32]),
        DELTA,
        1 << 12,
        &mut cdn,
        &mut rng,
        T0,
    );

    // Two RAs bootstrap from the same genesis and stay in sync; each puts
    // its interception lane on the path.
    let make_ra = || {
        let mut ra = RevocationAgent::new(RaConfig {
            delta: DELTA,
            ..Default::default()
        });
        ra.follow_ca(ca.id(), ca.verifying_key(), *ca.dictionary().signed_root())
            .unwrap();
        Rc::new(RefCell::new(FlowTable::new(
            ra.status_server(),
            InterceptConfig {
                delta: DELTA,
                ..Default::default()
            },
        )))
    };
    let ra_near_client = make_ra();
    let ra_near_server = make_ra();

    // Server cert + TLS endpoints.
    let server_key = SigningKey::from_seed([2u8; 32]);
    let leaf = Certificate::issue(
        &SigningKey::from_seed([1u8; 32]),
        ca.id(),
        ritm::dictionary::SerialNumber::from_u24(0x77),
        "example.com",
        T0 - 100,
        T0 + 1_000_000,
        server_key.verifying_key(),
        false,
    );
    // NOTE: the CA signing key and CertificationAuthority share the seed, so
    // the issued leaf verifies against ca.verifying_key().
    let ctx = ServerContext::new(CertificateChain(vec![leaf]), [7u8; 20]);

    let mut anchors = TrustAnchors::new();
    anchors.add(ca.id(), ca.verifying_key());
    let mut ca_keys: HashMap<CaId, _> = HashMap::new();
    ca_keys.insert(ca.id(), ca.verifying_key());
    let config = RitmClientConfig {
        server_name: "example.com".into(),
        anchors,
        ca_keys,
        delta: DELTA,
        policy: DowngradePolicy::AlwaysRequire,
    };

    let tuple = FourTuple {
        client: SocketAddr::new(1, 9001),
        server: SocketAddr::new(2, 443),
    };
    let client = RitmClient::new(config, [5u8; 32], None);
    let client_node = Rc::new(RefCell::new(ClientNode::new(client, tuple)));
    let server_node = Rc::new(RefCell::new(ServerNode::new(
        ServerEngine::new(ctx, [6u8; 32]),
        tuple,
    )));

    let mut sim = Simulator::new();
    sim.set_now(SimTime::from_secs(T0 + 1));
    let c = sim.add_node(Box::new(client_node.clone()));
    let m1 = sim.add_node(Box::new(MiddleboxNode::new(ra_near_client.clone())));
    let m2 = sim.add_node(Box::new(MiddleboxNode::new(ra_near_server.clone())));
    let s = sim.add_node(Box::new(server_node.clone()));
    sim.add_path(
        Addr(1),
        Addr(2),
        Path::new(
            vec![c, m1, m2, s],
            vec![
                SimDuration::from_millis(2),
                SimDuration::from_millis(25),
                SimDuration::from_millis(2),
            ],
        ),
    );

    let first = client_node.borrow_mut().start_segment();
    sim.inject(c, first);
    sim.run_to_quiescence();

    let node = client_node.borrow();
    assert!(node.client.is_established(), "events: {:?}", node.events);
    let accepted = node
        .events
        .iter()
        .filter(|(_, e)| matches!(e, RitmEvent::StatusAccepted))
        .count();
    assert_eq!(
        accepted, 1,
        "exactly one status validated: {:?}",
        node.events
    );

    // The server-side RA injected; the client-side RA left it in place.
    let near_server = ra_near_server.borrow().stats();
    let near_client = ra_near_client.borrow().stats();
    assert_eq!(near_server.statuses_injected, 1);
    assert_eq!(near_server.statuses_left_in_place, 0);
    assert_eq!(near_client.statuses_injected, 0);
    assert_eq!(near_client.statuses_left_in_place, 1);
    assert_eq!(near_client.statuses_replaced, 0);
}

/// A serial [`mirrored_ca`] revokes, and one it does not.
const REVOKED: u32 = 0x10;
const NOT_REVOKED: u32 = 0x11;

/// A CA that revoked the even serials below `2 × revocations`, and its
/// mirror.
fn mirrored_ca(name: &str, seed: u8, revocations: u32) -> (CaDictionary, MirrorDictionary) {
    let mut rng = StdRng::seed_from_u64(u64::from(seed));
    let mut ca = CaDictionary::new(
        CaId::from_name(name),
        SigningKey::from_seed([seed; 32]),
        DELTA,
        64,
        &mut rng,
        T0,
    );
    let mut mirror = MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
    mirror.set_delta(DELTA);
    let serials: Vec<SerialNumber> = (0..revocations)
        .map(|i| SerialNumber::from_u24(i * 2))
        .collect();
    let issuance = ca.insert(&serials, &mut rng, T0).unwrap();
    mirror.apply_issuance(&issuance, T0).unwrap();
    (ca, mirror)
}

fn serving(mirror: &MirrorDictionary) -> Arc<StatusServer> {
    let server = Arc::new(StatusServer::new());
    assert!(server.publish(mirror.snapshot()));
    server
}

/// A status server that staples statuses from `mirror`'s tree under
/// `root` instead of the mirror's own: what an upstream forger (or a
/// confused upstream RA) serves.
fn serving_under(mirror: &MirrorDictionary, root: SignedRoot) -> Arc<StatusServer> {
    let server = Arc::new(StatusServer::new());
    let snapshot = mirror.snapshot();
    assert!(server.publish(snapshot.with_root_and_freshness(root, *snapshot.freshness())));
    server
}

/// One handshake for `serial` of `ca` over client → our lane → upstream
/// lane → server (which does not confirm RITM support). Both lanes staple
/// rather than reset, so the verdict is the client's. Returns the client's
/// events and our lane's counters.
fn handshake(
    ca: &CaDictionary,
    serial: u32,
    policy: DowngradePolicy,
    ours: Arc<StatusServer>,
    upstream: Arc<StatusServer>,
) -> (Vec<RitmEvent>, InterceptStats) {
    let lane = |status| {
        Rc::new(RefCell::new(FlowTable::new(
            status,
            InterceptConfig {
                delta: DELTA,
                reset_revoked: false,
                ..Default::default()
            },
        )))
    };
    let (ours, upstream) = (lane(ours), lane(upstream));
    let ca_key = SigningKey::from_seed([1u8; 32]);
    assert_eq!(ca_key.verifying_key(), ca.verifying_key());
    let server_key = SigningKey::from_seed([2u8; 32]);
    let leaf = Certificate::issue(
        &ca_key,
        ca.ca(),
        SerialNumber::from_u24(serial),
        "example.com",
        T0 - 100,
        T0 + 1_000_000,
        server_key.verifying_key(),
        false,
    );
    let ctx = ServerContext::new(CertificateChain(vec![leaf]), [7u8; 20]);
    let mut anchors = TrustAnchors::new();
    anchors.add(ca.ca(), ca.verifying_key());
    let config = RitmClientConfig {
        server_name: "example.com".into(),
        anchors,
        ca_keys: HashMap::from([(ca.ca(), ca.verifying_key())]),
        delta: DELTA,
        policy,
    };
    let tuple = FourTuple {
        client: SocketAddr::new(1, 9001),
        server: SocketAddr::new(2, 443),
    };
    let client = RitmClient::new(config, [5u8; 32], None);
    let client_node = Rc::new(RefCell::new(ClientNode::new(client, tuple)));
    let server_node = Rc::new(RefCell::new(ServerNode::new(
        ServerEngine::new(ctx, [6u8; 32]),
        tuple,
    )));
    let mut sim = Simulator::new();
    sim.set_now(SimTime::from_secs(T0 + 1));
    let c = sim.add_node(Box::new(client_node.clone()));
    let m1 = sim.add_node(Box::new(MiddleboxNode::new(ours.clone())));
    let m2 = sim.add_node(Box::new(MiddleboxNode::new(upstream)));
    let s = sim.add_node(Box::new(server_node));
    let hop = SimDuration::from_millis(2);
    sim.add_path(
        Addr(1),
        Addr(2),
        Path::new(vec![c, m1, m2, s], vec![hop, hop, hop]),
    );
    let first = client_node.borrow_mut().start_segment();
    sim.inject(c, first);
    sim.run_to_quiescence();
    let events = client_node
        .borrow()
        .events
        .iter()
        .map(|(_, e)| e.clone())
        .collect();
    let stats = ours.borrow().stats();
    (events, stats)
}

const POLICIES: [DowngradePolicy; 3] = [
    DowngradePolicy::AllowMissing,
    DowngradePolicy::RequireIfServerConfirms,
    DowngradePolicy::AlwaysRequire,
];

#[test]
fn forged_fresher_upstream_status_cannot_hide_a_revocation() {
    // Upstream of our lane, a forger staples a status whose root claims
    // `size = u64::MAX`: "fresher" than anything, but not signed. Our lane
    // replaces it, so the client sees our presence proof and aborts with
    // `Revoked` under every policy — never established, never
    // `MissingStatus`.
    let (ca, mirror) = mirrored_ca("MultiCA", 1, 20);
    let forged = SignedRoot {
        size: u64::MAX,
        ..*mirror.signed_root()
    };
    for policy in POLICIES {
        let upstream = serving_under(&mirror, forged);
        let (events, stats) = handshake(&ca, REVOKED, policy, serving(&mirror), upstream);
        assert!(
            events.contains(&RitmEvent::Aborted(AbortReason::Revoked {
                serial: SerialNumber::from_u24(REVOKED),
            })),
            "{policy:?}: {events:?}"
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, RitmEvent::Established { .. })),
            "{policy:?}: {events:?}"
        );
        assert_eq!(
            (stats.statuses_replaced, stats.statuses_left_in_place),
            (1, 0),
            "{policy:?}"
        );
    }
}

#[test]
fn cross_ca_upstream_status_is_replaced() {
    // Upstream staples a genuinely signed, larger root — of another CA.
    // It proves nothing about this chain, so our lane replaces it and the
    // client, which requires a status, validates ours.
    let (ca, mirror) = mirrored_ca("MultiCA", 1, 20);
    let (_, other) = mirrored_ca("OtherCA", 3, 40);
    assert!(other.signed_root().size > mirror.signed_root().size);
    let upstream = serving_under(&mirror, *other.signed_root());
    let (events, stats) = handshake(
        &ca,
        NOT_REVOKED,
        DowngradePolicy::AlwaysRequire,
        serving(&mirror),
        upstream,
    );
    assert!(events.contains(&RitmEvent::StatusAccepted), "{events:?}");
    assert!(
        events.contains(&RitmEvent::Established { resumed: false }),
        "{events:?}"
    );
    assert_eq!(stats.statuses_replaced, 1);
    assert_eq!(stats.statuses_left_in_place, 0);
}

#[test]
fn authentic_upstream_status_at_least_as_fresh_stays_in_place() {
    // The same root signed by the pinned key, identical or not (a later
    // signature over a larger dictionary), is left where it is.
    let (ca, mirror) = mirrored_ca("MultiCA", 1, 20);
    let (_, ahead) = mirrored_ca("MultiCA", 1, 30);
    for upstream in [serving(&mirror), serving(&ahead)] {
        let (events, stats) = handshake(
            &ca,
            NOT_REVOKED,
            DowngradePolicy::AlwaysRequire,
            serving(&mirror),
            upstream,
        );
        assert!(events.contains(&RitmEvent::StatusAccepted), "{events:?}");
        assert_eq!(stats.statuses_replaced, 0);
        assert_eq!(stats.statuses_left_in_place, 1);
    }
}
