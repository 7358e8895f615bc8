//! fleet-smoke: a 3-shard RA fleet over real OS sockets on one shared
//! 2-thread runtime. One shard is killed mid-run and the router spills its
//! traffic to a replica; the shard restarts a full issuance batch behind,
//! peer gossip flags it stale across the wire, a `RootTracker` client
//! refuses its replayed root, and after catch-up the restarted shard
//! gossips back to a converged fleet.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{RaConfig, RevocationAgent};
use ritm_cdn::{FleetRouter, Region};
use ritm_client::{FetchError, RootTracker, ValidationError, Verdict};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};
use ritm_fleet::{FleetNode, GossipAnomaly, HashRing, ShardKey};
use ritm_proto::{EventServer, EventServerConfig, EventTransport};
use std::collections::HashMap;
use std::sync::Arc;

const T0: u64 = 1_397_000_000;

fn node(name: &str, region: Region) -> FleetNode {
    FleetNode::new(
        name,
        region,
        RevocationAgent::new(RaConfig { delta: 10, region }),
    )
}

fn serve(n: &FleetNode, handle: &ritm_rt::Handle) -> EventServer {
    EventServer::spawn_on(n.service(), handle, EventServerConfig::default())
        .expect("bind fleet shard")
}

#[test]
fn fleet_survives_kill_restart_and_never_serves_stale() {
    // One CA, two issuance batches: the restarted shard comes back pinned
    // at the first batch.
    let mut rng = StdRng::seed_from_u64(23);
    let key = SigningKey::from_seed([5u8; 32]);
    let ca_id = CaId::from_name("SmokeCA");
    let mut ca = CaDictionary::new(ca_id, key.clone(), 10, 1 << 8, &mut rng, T0);
    let genesis = *ca.signed_root();
    let mut mirror = MirrorDictionary::new(ca_id, key.verifying_key(), genesis).unwrap();
    mirror.set_delta(10);
    let batch1: Vec<SerialNumber> = (0..40).map(SerialNumber::from_u64).collect();
    let iss1 = ca.insert(&batch1, &mut rng, T0 + 1).unwrap();
    mirror.apply_issuance(&iss1, T0 + 1).unwrap();
    let stale_mirror = mirror.clone();
    let batch2: Vec<SerialNumber> = (40..70).map(SerialNumber::from_u64).collect();
    let iss2 = ca.insert(&batch2, &mut rng, T0 + 2).unwrap();
    mirror.apply_issuance(&iss2, T0 + 2).unwrap();

    // Three shards, every one mirroring the CA (replication factor 3 for
    // one CA keeps the kill scenario deterministic).
    let names = ["ra-0", "ra-1", "ra-2"];
    let regions = [Region::Europe, Region::NorthAmerica, Region::Japan];
    let mut nodes: Vec<FleetNode> = names
        .iter()
        .zip(regions)
        .map(|(name, region)| node(name, region))
        .collect();
    for n in &mut nodes {
        n.adopt(ca_id, key.verifying_key(), mirror.clone());
    }
    for n in &nodes {
        n.publish_local();
    }

    let ring = HashRing::with_nodes(names);
    let mut router: FleetRouter<HashRing> = FleetRouter::new(ring, 3);
    for n in &nodes {
        router.set_home(Arc::from(n.name()), n.region());
    }

    // Real sockets on ONE shared 2-thread runtime.
    let runtime = ritm_rt::Runtime::new(2);
    let handle = runtime.handle();
    let mut servers: HashMap<String, EventServer> = nodes
        .iter()
        .map(|n| (n.name().to_string(), serve(n, &handle)))
        .collect();

    let ca_keys: HashMap<_, _> = [(ca_id, key.verifying_key())].into();
    let mut tracker = RootTracker::new();
    let serial = SerialNumber::from_u64(2); // revoked in batch 1
    let point = ShardKey::ca(ca_id).point();

    // A healthy fetch through the routed primary: revoked verdict, fresh
    // root accepted into the tracker.
    let route = router.route(Region::Europe, point).expect("fleet is up");
    assert!(!route.spilled);
    let primary = route.node.to_string();
    let mut t = EventTransport::connect(servers[&primary].addr()).unwrap();
    let fetched = ritm_client::fetch_and_validate(
        &mut t,
        &[(ca_id, serial)],
        &ca_keys,
        10,
        T0 + 3,
        &mut tracker,
    )
    .expect("primary serves");
    assert!(matches!(fetched.verdict, Verdict::Revoked { serial: s, .. } if s == serial));
    drop(t);

    // Kill the primary: its listener goes away and the router spills the
    // next fetch to a replica, which serves the same fresh root.
    servers.remove(&primary).unwrap().shutdown();
    router.mark_down(Arc::from(primary.as_str()));
    let route = router
        .route(Region::Europe, point)
        .expect("replicas remain");
    assert!(route.spilled, "router must spill off the dead primary");
    let replica = route.node.to_string();
    assert_ne!(replica, primary);
    let mut t = EventTransport::connect(servers[&replica].addr()).unwrap();
    let fetched = ritm_client::fetch_and_validate(
        &mut t,
        &[(ca_id, serial)],
        &ca_keys,
        10,
        T0 + 3,
        &mut tracker,
    )
    .expect("replica serves during the outage");
    assert!(matches!(fetched.verdict, Verdict::Revoked { .. }));
    drop(t);

    // Restart the killed shard one batch behind (its snapshot predates
    // batch 2), on a fresh socket.
    let idx = nodes.iter().position(|n| n.name() == primary).unwrap();
    let mut restarted = node(&primary, regions[idx]);
    restarted.adopt(ca_id, key.verifying_key(), stale_mirror);
    restarted.publish_local();
    servers.insert(primary.clone(), serve(&restarted, &handle));

    // A peer gossips with the restarted shard across the wire and flags
    // it stale.
    let mut t = EventTransport::connect(servers[&primary].addr()).unwrap();
    let peer = nodes.iter_mut().find(|n| n.name() != primary).unwrap();
    let anomalies = peer
        .gossip_with(&primary, &mut t)
        .expect("gossip transport")
        .expect("restarted shard speaks gossip");
    assert!(
        anomalies
            .iter()
            .any(|a| matches!(a, GossipAnomaly::StalePeer { peer, .. } if *peer == primary)),
        "peer ledger must flag the restarted shard: {anomalies:?}"
    );
    drop(t);

    // The client's tracker has already accepted the batch-2 root — the
    // restarted shard's replayed root is refused outright.
    let mut t = EventTransport::connect(servers[&primary].addr()).unwrap();
    let err = ritm_client::fetch_and_validate(
        &mut t,
        &[(ca_id, serial)],
        &ca_keys,
        10,
        T0 + 3,
        &mut tracker,
    )
    .expect_err("a stale root must never validate");
    assert!(
        matches!(
            err,
            FetchError::Validation(ValidationError::RootRegression { .. })
        ),
        "unexpected failure shape: {err:?}"
    );
    drop(t);

    // Catch-up: the restarted shard applies the missed batch, republishes,
    // and announces itself back to the fleet; the peer's ledger converges.
    restarted
        .ra
        .mirror_mut(&ca_id)
        .unwrap()
        .apply_issuance(&iss2, T0 + 4)
        .unwrap();
    restarted.publish_local();
    let peer_name = peer.name().to_string();
    let mut t = EventTransport::connect(servers[&peer_name].addr()).unwrap();
    restarted
        .gossip_with(&peer_name, &mut t)
        .expect("gossip transport")
        .expect("peer acks the recovered shard");
    drop(t);
    // Staleness is tracked per peer label: the peer re-gossips with the
    // recovered shard so the fresh view replaces the stale one recorded
    // under that shard's name.
    let mut t = EventTransport::connect(servers[&primary].addr()).unwrap();
    let anomalies = peer
        .gossip_with(&primary, &mut t)
        .expect("gossip transport")
        .expect("recovered shard speaks gossip");
    assert!(
        anomalies.is_empty(),
        "recovered shard must gossip clean: {anomalies:?}"
    );
    drop(t);
    {
        let ledger = peer.ledger().lock().unwrap();
        assert!(
            ledger.is_converged(),
            "fleet must re-converge after catch-up: {:?}",
            ledger.stale_peers()
        );
    }

    // Back in rotation: the router routes to it without spilling, and the
    // same tracker now accepts its root.
    router.mark_up(&Arc::from(primary.as_str()));
    let route = router.route(Region::Europe, point).expect("fleet is whole");
    assert!(!route.spilled);
    assert_eq!(route.node.to_string(), primary);
    let mut t = EventTransport::connect(servers[&primary].addr()).unwrap();
    let fetched = ritm_client::fetch_and_validate(
        &mut t,
        &[(ca_id, serial)],
        &ca_keys,
        10,
        T0 + 5,
        &mut tracker,
    )
    .expect("recovered shard serves fresh statuses");
    assert!(matches!(fetched.verdict, Verdict::Revoked { .. }));
    drop(t);

    for (_, server) in servers.drain() {
        server.shutdown();
    }
    runtime.shutdown();
}
