//! Integration test for the §VIII "Multiple RAs" rules on a real simulated
//! path: two independently-installed RAs between client and server must not
//! double-inject, and the fresher dictionary wins.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm::agent::{FlowTable, InterceptConfig, RaConfig, RevocationAgent};
use ritm::ca::CertificationAuthority;
use ritm::cdn::network::Cdn;
use ritm::client::{DowngradePolicy, RitmClient, RitmClientConfig, RitmEvent};
use ritm::core::nodes::{ClientNode, ServerNode};
use ritm::crypto::SigningKey;
use ritm::dictionary::CaId;
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
