//! The interception lane's contract, as one property: whatever the
//! handshake kind (full or abbreviated), however many lanes sit on the path
//! (one, or two with the upstream one equal / staler / fresher — §VIII
//! "Multiple RAs") and however both directions are fragmented (in order,
//! down to one-byte segments),
//!
//! * a strict client (`AlwaysRequire`) establishes with **exactly one**
//!   accepted status, carrying the freshest root any lane on the path has;
//! * every lane's server→client output is contiguously sequenced and
//!   parses as whole TLS records;
//! * a later client ACK comes out in the server's sequence space — also
//!   after the downstream lane replaced a status with a *shorter* one (the
//!   fresher mirror holds serial 500, so the chain's serials 501–505 prove
//!   absence between two sibling leaves, a shorter proof than the staler
//!   mirror's absence between 114 and 999).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{FlowTable, InterceptConfig, StatusServer};
use ritm_client::{DowngradePolicy, RitmClient, RitmClientConfig, RitmEvent};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};
use ritm_net::middlebox::Middlebox;
use ritm_net::tcp::{Direction, FourTuple, SocketAddr, TcpSegment};
use ritm_net::time::SimTime;
use ritm_tls::{
    Action, Certificate, CertificateChain, ServerContext, ServerEngine, TlsRecord, TrustAnchors,
};
use std::collections::HashMap;
use std::sync::Arc;

const DELTA: u64 = 10;
const T0: u64 = 1_000_000;
const NOW: u64 = T0 + 3;

/// What the lane nearer the server knows, relative to the one nearer the
/// client.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Upstream {
    /// No second lane on the path.
    Absent,
    Equal,
    Staler,
    Fresher,
}

/// One lane plus what it has sent toward the client so far.
struct Lane {
    table: FlowTable,
    next_seq: Option<u64>,
    stream: Vec<u8>,
}

impl Lane {
    fn new(mirror: &MirrorDictionary) -> Self {
        let status = Arc::new(StatusServer::new());
        assert!(status.publish(mirror.snapshot()));
        let config = InterceptConfig {
            delta: DELTA,
            ..Default::default()
        };
        Lane {
            table: FlowTable::new(status, config),
            next_seq: None,
            stream: Vec::new(),
        }
    }
}

/// Carries `seg` across every lane in its direction of travel (`lanes[0]` is
/// nearest the client), checking each lane's output on the way.
fn pass(lanes: &mut [Lane], seg: TcpSegment) -> Result<Vec<TcpSegment>, TestCaseError> {
    let direction = seg.direction;
    let mut order: Vec<usize> = (0..lanes.len()).collect();
    if direction == Direction::ToClient {
        order.reverse();
    }
    let mut wave = vec![seg];
    for i in order {
        let lane = &mut lanes[i];
        let mut next = Vec::new();
        for seg in wave {
            for out in lane.table.process(seg, SimTime::from_secs(NOW)) {
                prop_assert!(!out.flags.rst, "lane {i} reset a benign flow");
                prop_assert_eq!(out.direction, direction);
                if direction == Direction::ToClient {
                    prop_assert_eq!(
                        out.seq,
                        lane.next_seq.unwrap_or(out.seq),
                        "lane {} left a gap or an overlap",
                        i
                    );
                    lane.next_seq = Some(out.seq_end());
                    lane.stream.extend_from_slice(&out.payload);
                }
                next.push(out);
            }
        }
        wave = next;
    }
    Ok(wave)
}

/// Cuts `bytes` into segments of the sizes `cuts` yields.
fn fragments(bytes: &[u8], cuts: &mut impl Iterator<Item = usize>) -> Vec<Vec<u8>> {
    let mut rest = bytes;
    let mut out = Vec::new();
    while !rest.is_empty() {
        let n = cuts.next().expect("cycled").min(rest.len());
        out.push(rest[..n].to_vec());
        rest = &rest[n..];
    }
    out
}

/// One handshake across `lanes`; returns the client's events.
fn handshake(
    lanes: &mut [Lane],
    tuple: FourTuple,
    client: &mut RitmClient,
    ctx: Arc<ServerContext>,
    cuts: &mut impl Iterator<Item = usize>,
) -> Result<Vec<RitmEvent>, TestCaseError> {
    for lane in lanes.iter_mut() {
        lane.next_seq = None;
        lane.stream.clear();
    }
    let mut server = ServerEngine::new(ctx, [3u8; 32]);
    let mut events = Vec::new();
    // Bytes each endpoint has sent, and the last byte the client received
    // (in its own view of the stream).
    let (mut sent_up, mut sent_down, mut client_got) = (0u64, 0u64, 0u64);
    let mut up = client.start().to_bytes();
    for _ in 0..8 {
        let mut down = Vec::new();
        for chunk in fragments(&up, cuts) {
            let seg = TcpSegment::data(tuple, Direction::ToServer, sent_up, client_got, chunk);
            sent_up = seg.seq_end();
            for out in pass(lanes, seg)? {
                for action in server.feed(NOW, &out.payload) {
                    if let Action::SendBytes(bytes) = action {
                        down.extend(bytes);
                    }
                }
            }
        }
        up.clear();
        for chunk in fragments(&down, cuts) {
            let seg = TcpSegment::data(tuple, Direction::ToClient, sent_down, sent_up, chunk);
            sent_down = seg.seq_end();
            for out in pass(lanes, seg)? {
                client_got = out.seq_end();
                let (out, evs) = client
                    .feed(NOW, &out.payload)
                    .map_err(|e| TestCaseError::fail(format!("client: {e:?} after {events:?}")))?;
                up.extend(out);
                events.extend(evs);
            }
        }
        if up.is_empty() && client.is_established() {
            break;
        }
    }
    for (i, lane) in lanes.iter().enumerate() {
        prop_assert!(
            TlsRecord::parse_stream(&lane.stream).is_ok(),
            "lane {} split a record",
            i
        );
    }
    // The client acknowledges everything it got; the server must read that
    // as everything it sent.
    let ack = TcpSegment::data(tuple, Direction::ToServer, sent_up, client_got, Vec::new());
    let acked = pass(lanes, ack)?;
    prop_assert_eq!(acked.len(), 1);
    prop_assert_eq!(acked[0].ack, sent_down, "ack not in the server's space");
    Ok(events)
}

fn upstream_strategy() -> impl Strategy<Value = Upstream> {
    prop_oneof![
        Just(Upstream::Absent),
        Just(Upstream::Equal),
        Just(Upstream::Staler),
        Just(Upstream::Fresher),
    ]
}

fn cut_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), 1..16usize, 16..700usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn strict_client_gets_exactly_one_freshest_status(
        upstream in upstream_strategy(),
        cuts in prop::collection::vec(cut_strategy(), 1..10),
    ) {
        // A CA, a mirror of it at 9 revocations and one at 10.
        let mut rng = StdRng::seed_from_u64(5);
        let ca_key = SigningKey::from_seed([1u8; 32]);
        let mut ca = CaDictionary::new(
            CaId::from_name("PropCA"),
            ca_key.clone(),
            DELTA,
            64,
            &mut rng,
            T0,
        );
        let mut stale =
            MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
        stale.set_delta(DELTA);
        let revoked: Vec<SerialNumber> = (0..8)
            .map(|i| SerialNumber::from_u24(100 + 2 * i))
            .chain([SerialNumber::from_u24(999)])
            .collect();
        let iss = ca.insert(&revoked, &mut rng, T0 + 1).unwrap();
        stale.apply_issuance(&iss, T0 + 1).unwrap();
        let mut fresh = stale.clone();
        let iss = ca.insert(&[SerialNumber::from_u24(500)], &mut rng, T0 + 2).unwrap();
        fresh.apply_issuance(&iss, T0 + 2).unwrap();
        let freshest = fresh.signed_root().size;

        // lanes[0] is nearest the client. Against the fresh mirror the
        // chain's serials fall between the sibling leaves 500 and 999, so
        // replacing a stale upstream status shrinks the stream.
        let (near_client, near_server) = match upstream {
            Upstream::Absent => (&fresh, None),
            Upstream::Equal => (&fresh, Some(&fresh)),
            Upstream::Staler => (&fresh, Some(&stale)),
            Upstream::Fresher => (&stale, Some(&fresh)),
        };
        let mut lanes = vec![Lane::new(near_client)];
        lanes.extend(near_server.map(Lane::new));

        // A server with a three-certificate chain under that CA (the two
        // above the leaf are what compression folds into one multiproof),
        // and a strict client.
        let server_key = SigningKey::from_seed([2u8; 32]);
        let issue = |serial: u32, subject: &str, key, is_ca| {
            Certificate::issue(
                &ca_key,
                ca.ca(),
                SerialNumber::from_u24(serial),
                subject,
                T0 - 100,
                T0 + 1_000_000,
                key,
                is_ca,
            )
        };
        let chain = CertificateChain(vec![
            issue(501, "example.com", server_key.verifying_key(), false),
            issue(503, "PropCA", ca_key.verifying_key(), true),
            issue(505, "PropCA", ca_key.verifying_key(), true),
        ]);
        let ctx = ServerContext::new(chain, [7u8; 20]);
        let mut anchors = TrustAnchors::new();
        anchors.add(ca.ca(), ca.verifying_key());
        let config = RitmClientConfig {
            server_name: "example.com".into(),
            anchors,
            ca_keys: HashMap::from([(ca.ca(), ca.verifying_key())]),
            delta: DELTA,
            policy: DowngradePolicy::AlwaysRequire,
        };
        let tuple = |port| FourTuple {
            client: SocketAddr::new(1, port),
            server: SocketAddr::new(2, 443),
        };
        let mut cuts = cuts.into_iter().cycle();

        // Full handshake, then an abbreviated one on its session.
        let mut resume = None;
        for (port, resumed) in [(9001, false), (9002, true)] {
            let mut client = RitmClient::new(config.clone(), [port as u8; 32], resume.take());
            let events = handshake(&mut lanes, tuple(port), &mut client, ctx.clone(), &mut cuts)?;
            prop_assert!(client.is_established(), "{:?}", events);
            prop_assert!(events.contains(&RitmEvent::Established { resumed }), "{:?}", events);
            let accepted = events
                .iter()
                .filter(|e| matches!(e, RitmEvent::StatusAccepted))
                .count();
            prop_assert_eq!(accepted, 1, "{:?}", events);
            if upstream == Upstream::Staler {
                prop_assert!(
                    lanes[0].stream.len() < lanes[1].stream.len(),
                    "the replacement was meant to shrink the stream"
                );
            }
            prop_assert_eq!(
                client.root_tracker().newest(&ca.ca()).map(|(size, _)| size),
                Some(freshest)
            );
            resume = client.resumption_data(NOW);
        }

        // Who stapled what (§VIII), over the two handshakes.
        let near_client = lanes[0].table.stats();
        let expect = |injected, replaced, left| {
            (near_client.statuses_injected, near_client.statuses_replaced, near_client.statuses_left_in_place)
                == (injected, replaced, left)
        };
        prop_assert!(
            match upstream {
                Upstream::Absent => expect(2, 0, 0),
                Upstream::Staler => expect(2, 2, 0),
                Upstream::Equal | Upstream::Fresher => expect(0, 0, 2),
            },
            "{:?}", near_client
        );
        if let Some(near_server) = lanes.get(1) {
            prop_assert_eq!(near_server.table.stats().statuses_injected, 2);
            prop_assert_eq!(near_client.flows_tracked, near_server.table.stats().flows_tracked);
        }
    }
}
