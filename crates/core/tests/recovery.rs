//! Kill-a-node-mid-sync recovery (the CI `recovery-smoke` step).
//!
//! The robustness story end to end, over real OS sockets and the
//! event-driven serving stack, with deterministic fault injection on every
//! sync flight:
//!
//! * **CA crash** — the CA dies mid-append with an RA mid-catch-up. It
//!   restarts from its issuance log (torn tail truncated), the RA follows
//!   it to its new address, and paged catch-up with retry/backoff
//!   converges both to identical signed roots.
//! * **RA crash** — the RA dies with a gap outstanding. It restarts from
//!   its own issuance log (one record appended per sync, in the CA's log
//!   framing), serves immediately at the last logged root, and closes only
//!   the remaining gap; a torn last record resumes at the record before
//!   it, and a corrupted only record falls back to a fresh bootstrap —
//!   both still converge.
//!
//! Throughout, a client pins every served root in a [`RootTracker`]: no
//! endpoint ever serves a root older than one the client already accepted.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{RaConfig, RevocationAgent, StatusService, SyncPolicy};
use ritm_ca::wal::{decode_records, encode_record};
use ritm_ca::{CaService, CertificationAuthority, IssuanceLog, TailState};
use ritm_cdn::network::Cdn;
use ritm_client::{fetch_status, RootTracker};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaId, SerialNumber, SignedRoot};
use ritm_net::time::{SimDuration, SimTime};
use ritm_proto::event::{EventServer, EventTransport};
use ritm_proto::fault::{FaultPlan, FaultTransport};
use ritm_proto::Service;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const T0: u64 = 1_000_000;
const DELTA: u64 = 10;
const BATCH: u32 = 40;

fn wal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ritm-recovery-{}-{}.log", std::process::id(), tag))
}

fn signing_key() -> SigningKey {
    SigningKey::from_seed([21u8; 32])
}

/// A CA named `name` with a 2^16-link chain, created at `T0`.
fn new_ca(name: &str, cdn: &mut Cdn, rng: &mut StdRng) -> CertificationAuthority {
    CertificationAuthority::new(name, signing_key(), DELTA, 1 << 16, cdn, rng, T0)
}

/// Issues `n` fresh certificates and revokes them in one batch at `now`.
fn revoke_batch(
    ca: &mut CertificationAuthority,
    cdn: &mut Cdn,
    rng: &mut StdRng,
    n: u32,
    now: u64,
) {
    let subject_key = SigningKey::from_seed([7u8; 32]).verifying_key();
    let serials: Vec<SerialNumber> = (0..n)
        .map(|i| {
            ca.issue_certificate(&format!("s{now}-{i}.com"), subject_key, 0, u64::MAX)
                .serial
        })
        .collect();
    ca.revoke(&serials, cdn, rng, now).unwrap().unwrap();
}

/// An RA with no mirror yet, running at the CA's Δ.
fn fresh_ra() -> RevocationAgent {
    RevocationAgent::new(RaConfig {
        delta: DELTA,
        ..Default::default()
    })
}

/// Paged catch-up at `page_limit` serials a page, default retries.
fn paged(page_limit: u32) -> SyncPolicy {
    SyncPolicy {
        page_limit,
        ..Default::default()
    }
}

/// Appends what `ra` applied for `ca` since `persisted` revocations to its
/// issuance log, as an RA does after every sync; returns the new count.
fn append_applied(log: &mut IssuanceLog, ra: &RevocationAgent, ca: CaId, persisted: u64) -> u64 {
    let mirror = ra.mirror(&ca).unwrap();
    log.append(&mirror.issuance_since(persisted)).unwrap();
    mirror.len() as u64
}

/// Spawns an event server over the shared CA handle, clocked at `now`.
fn spawn_ca_server(
    shared: &Arc<Mutex<CertificationAuthority>>,
    now: u64,
) -> (Arc<CaService>, EventServer) {
    let svc = Arc::new(CaService::new(Arc::clone(shared)));
    svc.set_now(now);
    let server = EventServer::spawn(Arc::clone(&svc) as Arc<dyn Service>, 1).unwrap();
    (svc, server)
}

/// Fetches `serial`'s status from an RA endpoint, validates it, asserts it
/// is revoked, and pins the served root in `tracker` — which fails the
/// test if the root is older than any root this client already saw.
fn check_revoked(
    transport: &mut EventTransport,
    tracker: &mut RootTracker,
    ca: CaId,
    key: &ritm_crypto::ed25519::VerifyingKey,
    serial: SerialNumber,
    now: u64,
) -> SignedRoot {
    let (payload, _) = fetch_status(transport, &[(ca, serial)]).unwrap();
    let status = &payload.statuses[0];
    let outcome = status.validate(&serial, key, DELTA, now).unwrap();
    assert!(outcome.is_revoked(), "serial {serial} must be revoked");
    tracker
        .observe(&status.signed_root)
        .expect("served root must never regress");
    status.signed_root
}

#[test]
fn ca_killed_mid_sync_restarts_from_log_and_converges() {
    let path = wal_path("ca-crash");
    let _ = std::fs::remove_file(&path);
    let mut rng = StdRng::seed_from_u64(901);
    let mut cdn = Cdn::new(SimDuration::from_secs(5));

    // A CA with an attached issuance log, 5 batches deep (200 revocations).
    let (log, scan) = IssuanceLog::open(&path).unwrap();
    assert!(scan.records.is_empty());
    let mut ca = new_ca("CrashCA", &mut cdn, &mut rng);
    ca.attach_wal(log);
    let genesis = *ca.dictionary().signed_root();
    let (ca_id, key) = (ca.id(), ca.verifying_key());
    for b in 0..5u64 {
        revoke_batch(&mut ca, &mut cdn, &mut rng, BATCH, T0 + 1 + b);
    }
    let shared = Arc::new(Mutex::new(ca));
    let (_svc, server) = spawn_ca_server(&shared, T0 + 6);

    // An RA begins catching up over a lossy link — and is interrupted
    // after a single page (`max_pages: 1`), leaving it mid-sync.
    let mut ra = fresh_ra();
    ra.follow_ca(ca_id, key, genesis).unwrap();
    let mut sync_t = FaultTransport::new(
        EventTransport::connect(server.addr()).unwrap(),
        FaultPlan::lossy(0.25),
        77,
    );
    let interrupted = SyncPolicy {
        max_pages: 1,
        ..paged(64)
    };
    ra.sync_via_with(&mut sync_t, SimTime::from_secs(T0 + 6), &interrupted);
    let partial = ra.mirror(&ca_id).unwrap().len();
    assert!(
        partial > 0 && partial < 200,
        "expected a mid-sync mirror, got {partial}/200"
    );

    // A client pins the partially-synced root.
    let ra_server =
        EventServer::spawn(Arc::new(StatusService::new(ra.status_server())), 1).unwrap();
    let mut client = EventTransport::connect(ra_server.addr()).unwrap();
    let mut tracker = RootTracker::new();
    check_revoked(
        &mut client,
        &mut tracker,
        ca_id,
        &key,
        SerialNumber::from_u24(1),
        T0 + 6,
    );

    // Kill the CA: socket gone, in-memory dictionary gone, and the log
    // left with a torn tail as if the process died mid-append.
    server.shutdown();
    drop(shared);
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    }

    // Restart: scan truncates the torn tail, replay rebuilds the
    // dictionary, and the CA keeps issuing (past its pre-crash serials).
    let (log2, scan2) = IssuanceLog::open(&path).unwrap();
    assert_eq!(scan2.tail, TailState::Torn);
    assert_eq!(scan2.records.len(), 5);
    let mut ca2 = CertificationAuthority::recover(
        "CrashCA",
        signing_key(),
        DELTA,
        1 << 16,
        &scan2.records,
        &mut cdn,
        &mut rng,
        T0 + 20,
    )
    .unwrap();
    assert_eq!(ca2.revocation_count(), 200);
    ca2.attach_wal(log2);
    ca2.set_next_serial(5 * BATCH + 1);
    revoke_batch(&mut ca2, &mut cdn, &mut rng, BATCH, T0 + 21);
    let shared2 = Arc::new(Mutex::new(ca2));
    let (_svc2, server2) = spawn_ca_server(&shared2, T0 + 22);

    // The RA follows the restarted CA to its new address and converges
    // under the same injected faults.
    sync_t.inner_mut().reconnect_to(server2.addr()).unwrap();
    let report = ra.sync_via_with(&mut sync_t, SimTime::from_secs(T0 + 22), &paged(64));
    assert_eq!(report.gave_up, 0, "bounded retry must absorb the faults");
    assert_eq!(report.rejected, 0);
    assert_eq!(report.catchups, 1);
    assert!(report.catchup_pages >= 2, "gap must close in pages");
    let mirror = ra.mirror(&ca_id).unwrap();
    assert_eq!(mirror.len(), 240);
    assert_eq!(
        mirror.signed_root(),
        shared2.lock().unwrap().dictionary().signed_root(),
        "RA and recovered CA must converge to identical signed roots"
    );

    // The client sees only forward movement: pre-crash and post-crash
    // revocations both served, root strictly newer than the pinned one.
    check_revoked(
        &mut client,
        &mut tracker,
        ca_id,
        &key,
        SerialNumber::from_u24(1),
        T0 + 22,
    );
    let newest = check_revoked(
        &mut client,
        &mut tracker,
        ca_id,
        &key,
        SerialNumber::from_u24(5 * BATCH + 3),
        T0 + 22,
    );
    assert_eq!(newest.size, 240);

    ra_server.shutdown();
    server2.shutdown();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn ra_killed_mid_sync_resumes_from_its_log_and_converges() {
    let path = wal_path("ra-crash");
    let _ = std::fs::remove_file(&path);
    let mut rng = StdRng::seed_from_u64(902);
    let mut cdn = Cdn::new(SimDuration::from_secs(5));
    let mut ca = new_ca("RaCrashCA", &mut cdn, &mut rng);
    let genesis = *ca.dictionary().signed_root();
    let (ca_id, key) = (ca.id(), ca.verifying_key());
    for b in 0..2u64 {
        revoke_batch(&mut ca, &mut cdn, &mut rng, BATCH, T0 + 1 + b);
    }
    let shared = Arc::new(Mutex::new(ca));
    let (svc, server) = spawn_ca_server(&shared, T0 + 3);

    // RA #1 syncs twice (80, then 120 revocations) and appends what each
    // pass applied to its issuance log — the durability point a production
    // RA would hit after every pass.
    let mut ra1 = fresh_ra();
    ra1.follow_ca(ca_id, key, genesis).unwrap();
    let (mut log, _) = IssuanceLog::open(&path).unwrap();
    let mut sync_t = FaultTransport::new(
        EventTransport::connect(server.addr()).unwrap(),
        FaultPlan::lossy(0.25),
        31,
    );
    ra1.sync_via_with(&mut sync_t, SimTime::from_secs(T0 + 3), &paged(64));
    let mut persisted = append_applied(&mut log, &ra1, ca_id, 0);
    assert_eq!(persisted, 80);
    revoke_batch(
        &mut shared.lock().unwrap(),
        &mut cdn,
        &mut rng,
        BATCH,
        T0 + 4,
    );
    svc.set_now(T0 + 5);
    ra1.sync_via_with(&mut sync_t, SimTime::from_secs(T0 + 5), &paged(64));
    persisted = append_applied(&mut log, &ra1, ca_id, persisted);
    assert_eq!(persisted, 120);
    drop(log);

    // A client pins the last logged root.
    let ra1_server =
        EventServer::spawn(Arc::new(StatusService::new(ra1.status_server())), 1).unwrap();
    let mut client = EventTransport::connect(ra1_server.addr()).unwrap();
    let mut tracker = RootTracker::new();
    check_revoked(
        &mut client,
        &mut tracker,
        ca_id,
        &key,
        SerialNumber::from_u24(1),
        T0 + 5,
    );

    // The CA keeps revoking while the RA is down (the gap), then the RA
    // dies with those batches unsynced.
    for b in 0..2u64 {
        let mut ca = shared.lock().unwrap();
        revoke_batch(&mut ca, &mut cdn, &mut rng, BATCH, T0 + 10 + b);
    }
    svc.set_now(T0 + 12);
    ra1_server.shutdown();
    drop(ra1);

    // RA #2 resumes from its log: it serves immediately at the last
    // logged root (never older than what the client pinned) …
    let (mut log, scan) = IssuanceLog::open(&path).unwrap();
    assert_eq!((scan.records.len(), scan.tail), (2, TailState::Clean));
    let mut ra2 = fresh_ra();
    assert_eq!(ra2.resume_ca(key, &scan.records).unwrap(), ca_id);
    assert_eq!(ra2.mirror(&ca_id).unwrap().len(), 120);
    let ra2_server =
        EventServer::spawn(Arc::new(StatusService::new(ra2.status_server())), 1).unwrap();
    client.reconnect_to(ra2_server.addr()).unwrap();
    check_revoked(
        &mut client,
        &mut tracker,
        ca_id,
        &key,
        SerialNumber::from_u24(1),
        T0 + 12,
    );

    // … then closes exactly the remaining gap, paged, under faults.
    let report = ra2.sync_via_with(&mut sync_t, SimTime::from_secs(T0 + 12), &paged(32));
    assert_eq!(report.gave_up, 0);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.catchups, 1);
    assert!(report.catchup_pages >= 2);
    assert_eq!(
        report.revocations_applied, 80,
        "resume means only the gap is re-downloaded"
    );
    let ca_root = *shared.lock().unwrap().dictionary().signed_root();
    assert_eq!(ra2.mirror(&ca_id).unwrap().len(), 200);
    assert_eq!(ra2.mirror(&ca_id).unwrap().signed_root(), &ca_root);
    let newest = check_revoked(
        &mut client,
        &mut tracker,
        ca_id,
        &key,
        SerialNumber::from_u24(150),
        T0 + 12,
    );
    assert_eq!(newest.size, 200);
    assert_eq!(append_applied(&mut log, &ra2, ca_id, persisted), 200);
    let only_record = ra2.mirror(&ca_id).unwrap().issuance_since(0);
    drop(log);

    // A crash mid-append tears the last record: the log's open truncates
    // it, the RA resumes at the previous record, and the gap closes.
    let torn_len = std::fs::metadata(&path).unwrap().len() - 3;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(torn_len)
        .unwrap();
    let (_, scan) = IssuanceLog::open(&path).unwrap();
    assert_eq!((scan.records.len(), scan.tail), (2, TailState::Torn));
    let mut ra3 = fresh_ra();
    ra3.resume_ca(key, &scan.records).unwrap();
    assert_eq!(ra3.mirror(&ca_id).unwrap().len(), 120);
    let report = ra3.sync_via_with(&mut sync_t, SimTime::from_secs(T0 + 12), &paged(64));
    assert_eq!(report.gave_up, 0);
    assert_eq!(report.revocations_applied, 80);
    assert_eq!(ra3.mirror(&ca_id).unwrap().signed_root(), &ca_root);

    // Corrupting a log's only record leaves nothing to resume from, and
    // the fallback — fresh bootstrap plus full catch-up — still converges.
    let mut corrupt = encode_record(&only_record);
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    let scan = decode_records(&corrupt);
    assert_eq!(scan.tail, TailState::Corrupt);
    let mut ra4 = fresh_ra();
    assert!(ra4.resume_ca(key, &scan.records).is_err());
    ra4.follow_ca(ca_id, key, genesis).unwrap();
    let report = ra4.sync_via_with(&mut sync_t, SimTime::from_secs(T0 + 12), &paged(64));
    assert_eq!(report.gave_up, 0);
    assert_eq!(
        report.revocations_applied, 200,
        "full re-download from zero"
    );
    assert_eq!(ra4.mirror(&ca_id).unwrap().signed_root(), &ca_root);

    ra2_server.shutdown();
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}
