//! Acceptance: the full CA → CDN edge → RA sync → client status fetch
//! pipeline runs entirely through `Service`/`Transport` over (a) the
//! in-process loopback, (b) the `ritm-net` simulator, and (c) the
//! event-driven `EventServer`/`EventTransport` pair (non-blocking sockets,
//! ≤2 server threads, pipelined flights) — and the transports move
//! byte-identical envelopes: same signed roots, same revocation verdicts,
//! same request and response byte counts. The event lane speaks envelope
//! v2 (multiplexed, request-id tagged), so every frame is exactly 4 bytes
//! larger in each direction and nothing else differs. Plus version
//! negotiation: an unknown-version request yields a typed
//! `ProtoError::UnsupportedVersion` response, never a panic or a silent
//! drop, and the socket it arrived on keeps answering v1 frames in order.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{RaConfig, RevocationAgent, StatusService, SyncReport};
use ritm_ca::{CertificationAuthority, Manifest};
use ritm_cdn::network::Cdn;
use ritm_cdn::regions::Region;
use ritm_cdn::service::EdgeService;
use ritm_client::validator::{RootTracker, Verdict};
use ritm_dictionary::{SerialNumber, SignedRoot};
use ritm_net::time::{SimDuration, SimTime};
use ritm_proto::event::{EventServer, EventTransport};
use ritm_proto::sim::SimTransport;
use ritm_proto::{
    split_frame, Loopback, ProtoError, RitmRequest, RitmResponse, Service, Transport,
    MAX_SUPPORTED_VERSION,
};
use std::collections::HashMap;
use std::sync::Arc;

const T0: u64 = 1_397_000_000;
const DELTA: u64 = 10;
const REVOKED: u32 = 17; // issuance order → serial 17 is revoked
const VALID: u32 = 40;

/// Everything one pipeline run produced, for cross-transport comparison.
#[derive(Debug, PartialEq)]
struct PipelineOutcome {
    sync: SyncReport,
    mirrored_root: SignedRoot,
    manifest_delta: u64,
    status_meta_bytes: (u64, u64),
    payload_bytes: Vec<u8>,
    revoked_verdict: Verdict,
    valid_verdict: Verdict,
}

/// Builds the identical world every transport serves: a CA that issued 60
/// certificates, revoked 30 of them, and published a freshness refresh.
/// Also returns the genesis root RAs bootstrap from.
fn build_world() -> (CertificationAuthority, Cdn, SignedRoot) {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut cdn = Cdn::new(SimDuration::from_secs(DELTA));
    let mut ca = CertificationAuthority::new(
        "TransportCA",
        ritm_crypto::ed25519::SigningKey::from_seed([7u8; 32]),
        DELTA,
        1 << 12,
        &mut cdn,
        &mut rng,
        T0,
    );
    let genesis = *ca.dictionary().signed_root();
    let key = ritm_crypto::ed25519::SigningKey::from_seed([8u8; 32]).verifying_key();
    let serials: Vec<SerialNumber> = (0..60)
        .map(|i| {
            ca.issue_certificate(&format!("host{i}.example"), key, 0, u64::MAX)
                .serial
        })
        .collect();
    let to_revoke: Vec<SerialNumber> = serials.iter().step_by(2).copied().collect();
    ca.revoke(&to_revoke, &mut cdn, &mut rng, T0 + 1).unwrap();
    ca.refresh(&mut cdn, &mut rng, T0 + 2).unwrap();
    (ca, cdn, genesis)
}

/// Runs RA sync + client fetches against arbitrary transports built from
/// the two services by `make_edge_transport` / `make_status_transport`.
fn run_pipeline<TE, TS>(
    ca: &CertificationAuthority,
    genesis: SignedRoot,
    mut edge_transport: TE,
    make_status_transport: impl FnOnce(StatusService) -> TS,
) -> PipelineOutcome
where
    TE: Transport,
    TS: Transport,
{
    // RA bootstrap + sync, entirely through the transport.
    let mut ra = RevocationAgent::new(RaConfig {
        delta: DELTA,
        ..Default::default()
    });
    ra.follow_ca(ca.id(), ca.verifying_key(), genesis).unwrap();
    let sync = ra.sync_via(&mut edge_transport, SimTime::from_secs(T0 + 2));
    assert_eq!(sync.issuances_applied, 1);
    assert_eq!(sync.revocations_applied, 30);
    // The period-0 statement is the batch root's own anchor: the update
    // carrying the batch leaves it out.
    assert_eq!(sync.freshness_applied, 0);
    assert_eq!(sync.transport_failures, 0);
    let mirrored_root = *ra.mirror(&ca.id()).unwrap().signed_root();

    // Client bootstrap: the manifest over the same edge transport.
    let manifest = match edge_transport
        .round_trip(&RitmRequest::GetManifest { ca: ca.id() })
        .unwrap()
        .response
    {
        RitmResponse::Manifest(bytes) => {
            Manifest::from_json_signed(std::str::from_utf8(&bytes).unwrap(), &ca.verifying_key())
                .expect("manifest verifies")
        }
        other => panic!("expected manifest, got {other:?}"),
    };

    // Client status fetches against the RA's read path.
    let mut status_transport = make_status_transport(StatusService::new(ra.status_server()));
    let mut keys = HashMap::new();
    keys.insert(ca.id(), ca.verifying_key());
    let mut tracker = RootTracker::new();
    let revoked_chain = [(ca.id(), SerialNumber::from_u24(REVOKED))];
    let fetched = ritm_client::fetch_and_validate(
        &mut status_transport,
        &revoked_chain,
        &keys,
        DELTA,
        T0 + 3,
        &mut tracker,
    )
    .expect("revoked fetch validates");
    let valid_chain = [(ca.id(), SerialNumber::from_u24(VALID))];
    let valid = ritm_client::fetch_and_validate(
        &mut status_transport,
        &valid_chain,
        &keys,
        DELTA,
        T0 + 3,
        &mut tracker,
    )
    .expect("valid fetch validates");

    PipelineOutcome {
        sync,
        mirrored_root,
        manifest_delta: manifest.delta,
        status_meta_bytes: (fetched.meta.request_bytes, fetched.meta.response_bytes),
        payload_bytes: fetched.payload.to_bytes(),
        revoked_verdict: fetched.verdict,
        valid_verdict: valid.verdict,
    }
}

/// Strips the transport-dependent latency so the remaining outcome must be
/// bit-identical across transports.
fn normalized(mut o: PipelineOutcome) -> PipelineOutcome {
    o.sync.latency = SimDuration::ZERO;
    o
}

fn run_loopback() -> PipelineOutcome {
    let (ca, cdn, genesis) = build_world();
    let edge = EdgeService::new(cdn, Region::Europe, 99);
    edge.set_now(SimTime::from_secs(T0 + 2));
    run_pipeline(&ca, genesis, Loopback::new(edge), Loopback::new)
}

fn run_simulated() -> PipelineOutcome {
    let (ca, cdn, genesis) = build_world();
    let edge = EdgeService::new(cdn, Region::Europe, 99);
    edge.set_now(SimTime::from_secs(T0 + 2));
    run_pipeline(
        &ca,
        genesis,
        SimTransport::new(edge, SimDuration::from_millis(15)),
        |status| SimTransport::new(status, SimDuration::from_millis(3)),
    )
}

fn run_event() -> (PipelineOutcome, u64, usize) {
    let (ca, cdn, genesis) = build_world();
    let edge = Arc::new(EdgeService::new(cdn, Region::Europe, 99));
    edge.set_now(SimTime::from_secs(T0 + 2));
    let edge_server = EventServer::spawn(Arc::clone(&edge) as Arc<dyn Service>, 2).unwrap();
    let threads = edge_server.thread_count();
    let edge_transport = EventTransport::connect(edge_server.addr()).unwrap();

    let mut status_server_slot = None;
    let outcome = run_pipeline(&ca, genesis, edge_transport, |status| {
        let server = EventServer::spawn(Arc::new(status) as Arc<dyn Service>, 2).unwrap();
        let t = EventTransport::connect(server.addr()).unwrap();
        status_server_slot = Some(server);
        t
    });
    let served = edge_server.shutdown() + status_server_slot.unwrap().shutdown();
    (outcome, served, threads)
}

#[test]
fn pipeline_is_transport_invariant() {
    let loopback = normalized(run_loopback());
    let simulated = normalized(run_simulated());
    let (event, event_served, event_threads) = run_event();
    let mut event = normalized(event);

    // Identical signed roots, verdicts, payload bytes, and byte counts.
    assert_eq!(loopback, simulated);

    // The v2 event lane moved the exact same protocol bytes plus the
    // 4-byte request id per frame, each direction: sync is one `Pull` up
    // and one `Update` down (+4/+4), a status fetch one each (+4/+4).
    // Nothing but the envelope overhead may differ.
    assert_eq!(
        event.sync.bytes_uploaded,
        loopback.sync.bytes_uploaded + 4,
        "v2 sync upload must cost exactly one id per request frame"
    );
    assert_eq!(
        event.sync.bytes_downloaded,
        loopback.sync.bytes_downloaded + 4,
        "v2 sync download must cost exactly one id per response frame"
    );
    assert_eq!(event.status_meta_bytes.0, loopback.status_meta_bytes.0 + 4);
    assert_eq!(event.status_meta_bytes.1, loopback.status_meta_bytes.1 + 4);
    event.sync.bytes_uploaded -= 4;
    event.sync.bytes_downloaded -= 4;
    event.status_meta_bytes.0 -= 4;
    event.status_meta_bytes.1 -= 4;
    assert_eq!(loopback, event);
    assert_eq!(loopback.mirrored_root.size, 30);
    assert!(
        matches!(loopback.revoked_verdict, Verdict::Revoked { serial, .. }
        if serial == SerialNumber::from_u24(REVOKED))
    );
    assert_eq!(loopback.valid_verdict, Verdict::AllValid);
    assert_eq!(loopback.manifest_delta, DELTA);
    assert!(loopback.sync.bytes_downloaded > 0 && loopback.sync.bytes_uploaded > 0);
    // The event lane really served every round trip over its sockets:
    // sync (1) + manifest (1) on the edge server, two status fetches on
    // the status server — from ≤2 OS threads per server.
    assert_eq!(event_served, 4);
    assert!(event_threads <= 2, "event server must stay on ≤2 threads");
}

#[test]
fn flight_scratch_encoding_is_byte_identical_to_per_frame_encoding() {
    // The event transport encodes a whole flight into one pooled scratch
    // buffer (`to_frame_v2_into`) written as a single segment. The wire
    // must not be able to tell: the scratch bytes are exactly the
    // concatenation of the per-request frames, and the recorded
    // per-request lengths match the individual encodings.
    let ca = ritm_dictionary::CaId::from_name("FlightCA");
    let reqs: Vec<RitmRequest> = (0..7u32)
        .map(|i| RitmRequest::GetStatus {
            ca,
            serial: SerialNumber::from_u24(i * 3),
        })
        .chain(std::iter::once(RitmRequest::GetSignedRoot { ca }))
        .collect();

    // A multiplexed flight with consecutive ids.
    let base = 41u32;
    let mut scratch = Vec::new();
    let mut lens = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let before = scratch.len();
        req.to_frame_v2_into(base.wrapping_add(i as u32), &mut scratch);
        lens.push(scratch.len() - before);
    }
    let mut expected = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let frame = req.to_frame_v2(base.wrapping_add(i as u32));
        assert_eq!(lens[i], frame.len(), "request {i} length mismatch");
        expected.extend_from_slice(&frame);
    }
    assert_eq!(scratch, expected, "v2 flight scratch differs from frames");
}

#[test]
fn unknown_version_yields_typed_error_on_every_transport() {
    let (ca, cdn, _) = build_world();
    let edge = Arc::new(EdgeService::new(cdn, Region::Europe, 99));
    edge.set_now(SimTime::from_secs(T0 + 2));

    // Craft a FetchDelta frame claiming protocol version 42.
    let mut frame = RitmRequest::FetchDelta { ca: ca.id() }.to_frame();
    frame[4] = 42;

    // In-process: straight through the service choke point.
    let resp_frame = edge.handle_frame(&frame);
    let (body, _) = split_frame(&resp_frame).unwrap();
    assert_eq!(
        RitmResponse::decode_body(body).unwrap(),
        RitmResponse::Error(ProtoError::UnsupportedVersion {
            requested: 42,
            supported: MAX_SUPPORTED_VERSION,
        })
    );

    // Event-driven server: the same reply bytes over a blocking client
    // socket (the server side is non-blocking; the wire is the wire).
    let server = EventServer::spawn(Arc::clone(&edge) as Arc<dyn Service>, 2).unwrap();
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        let read_reply = |stream: &mut std::net::TcpStream| {
            let mut prefix = [0u8; 4];
            stream.read_exact(&mut prefix).unwrap();
            let mut reply = prefix.to_vec();
            reply.resize(4 + u32::from_be_bytes(prefix) as usize, 0);
            stream.read_exact(&mut reply[4..]).unwrap();
            reply
        };
        stream.write_all(&frame).unwrap();
        assert_eq!(read_reply(&mut stream), resp_frame);

        // The connection stays usable: a pipelined burst of three v1
        // frames, written at once, is answered inline and in request
        // order, each reply byte-identical to the in-process one.
        let burst = [
            RitmRequest::GetSignedRoot { ca: ca.id() }.to_frame(),
            RitmRequest::GetManifest { ca: ca.id() }.to_frame(),
            RitmRequest::FetchDelta { ca: ca.id() }.to_frame(),
        ];
        stream.write_all(&burst.concat()).unwrap();
        for request in &burst {
            assert_eq!(read_reply(&mut stream), edge.handle_frame(request));
        }
    }
    assert_eq!(server.shutdown(), 4);
}

#[test]
fn pull_and_update_are_byte_identical_on_every_lane() {
    // The RA's one sync kind, answered behind, mid-batch, level and ahead:
    // every lane returns the same `Update`, in frames of the same size (the
    // event lane's v2 envelope adds its 4-byte id each way).
    let (ca, cdn, _) = build_world();
    let edge = Arc::new(EdgeService::new(cdn, Region::Europe, 99));
    edge.set_now(SimTime::from_secs(T0 + 2));
    let pulls: Vec<RitmRequest> = [0, 7, 30, 99]
        .into_iter()
        .map(|have| RitmRequest::Pull {
            ca: ca.id(),
            have,
            limit: 16,
        })
        .collect();
    let server = EventServer::spawn(Arc::clone(&edge) as Arc<dyn Service>, 2).unwrap();
    let loopback = Loopback::new(Arc::clone(&edge)).round_trip_many(&pulls);
    let simulated =
        SimTransport::new(Arc::clone(&edge), SimDuration::from_millis(5)).round_trip_many(&pulls);
    let event = EventTransport::connect(server.addr())
        .unwrap()
        .round_trip_many(&pulls);
    for (i, req) in pulls.iter().enumerate() {
        let lo = loopback[i].as_ref().unwrap();
        let sim = simulated[i].as_ref().unwrap();
        let ev = event[i].as_ref().unwrap();
        assert!(matches!(lo.response, RitmResponse::Update(_)), "pull {i}");
        assert_eq!(lo.response, sim.response, "pull {i}");
        assert_eq!(lo.response, ev.response, "pull {i}");
        let (req_len, resp_len) = (req.to_frame().len(), lo.response.to_frame().len());
        assert_eq!(
            (lo.meta.request_bytes, lo.meta.response_bytes),
            (req_len as u64, resp_len as u64)
        );
        assert_eq!(
            (sim.meta.request_bytes, sim.meta.response_bytes),
            (lo.meta.request_bytes, lo.meta.response_bytes)
        );
        assert_eq!(
            (ev.meta.request_bytes, ev.meta.response_bytes),
            (lo.meta.request_bytes + 4, lo.meta.response_bytes + 4)
        );
    }
    let serials = |i: usize| match &loopback[i].as_ref().unwrap().response {
        RitmResponse::Update(u) => (u.serials.len(), u.remaining, u.refresh.is_some()),
        other => panic!("expected an update, got {other:?}"),
    };
    // The one batch whole from 0, its rest from mid-batch, then only the
    // freshness statement, then nothing for a requester ahead.
    assert_eq!(
        [serials(0), serials(1), serials(2), serials(3)],
        [(30, 0, false), (23, 0, false), (0, 0, true), (0, 0, false)]
    );
    assert_eq!(server.shutdown(), 4);
}
