//! Concurrency stress test for the RA's shared state: the
//! snapshot-published proof path must serve concurrent readers correct,
//! monotonically-fresh statuses while a writer applies revocation batches.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::ra::{RaConfig, RevocationAgent};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, SerialNumber};
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn snapshot_readers_race_one_writer_without_stale_roots() {
    // One writer revokes in batches and republishes snapshots; N reader
    // threads serve proofs from the shared StatusServer the whole time.
    // Invariants checked on every read:
    //  * the composed status always verifies against its own signed root;
    //  * no reader ever observes a root older than one it already saw
    //    (per-reader monotonicity);
    //  * no reader ever observes a root older than the writer's latest
    //    *published* batch (no stale root past the swap).
    const BATCHES: u64 = 30;
    const BATCH_SIZE: u32 = 20;
    const READERS: usize = 8;
    const T0: u64 = 1_000_000;

    let mut rng = StdRng::seed_from_u64(97);
    let mut ca = CaDictionary::new(
        CaId::from_name("RaceCA"),
        SigningKey::from_seed([4u8; 32]),
        10,
        1 << 12,
        &mut rng,
        T0,
    );
    let ca_id = ca.ca();
    let ca_key = ca.verifying_key();
    let mut ra: RevocationAgent = RevocationAgent::new(RaConfig::default());
    ra.follow_ca(ca_id, ca_key, *ca.signed_root()).unwrap();

    let server = ra.status_server();
    // Size of the newest batch the writer has *published* (guard dropped).
    let published = AtomicU64::new(0);
    let done = AtomicU64::new(0);

    std::thread::scope(|s| {
        let published = &published;
        let done = &done;
        let server_ref = &server;

        s.spawn(move || {
            for b in 0..BATCHES {
                let serials: Vec<SerialNumber> = (0..BATCH_SIZE)
                    .map(|i| SerialNumber::from_u24(b as u32 * BATCH_SIZE + i))
                    .collect();
                let now = T0 + b + 1;
                let iss = ca.insert(&serials, &mut rng, now).expect("fresh serials");
                ra.mirror_mut(&ca_id)
                    .expect("mirrored")
                    .apply_issuance(&iss, now)
                    .expect("valid issuance");
                // The mirror_mut guard dropped: the snapshot is published.
                published.store((b + 1) * BATCH_SIZE as u64, Ordering::SeqCst);
            }
            done.store(1, Ordering::SeqCst);
        });

        for r in 0..READERS {
            s.spawn(move || {
                let mut newest_seen = 0u64;
                let mut query = r as u32; // start readers on different serials
                let mut reads = 0u64;
                loop {
                    let floor = published.load(Ordering::SeqCst);
                    let finished = done.load(Ordering::SeqCst) == 1;
                    let serial = SerialNumber::from_u24(query % (BATCHES as u32 * BATCH_SIZE));
                    let status = server_ref
                        .snapshot(&ca_id)
                        .expect("CA is mirrored")
                        .status(&serial);
                    let size = status.signed_root.size;
                    assert!(
                        size >= floor,
                        "stale root served past the swap: size {size} < published {floor}"
                    );
                    assert!(
                        size >= newest_seen,
                        "root regressed for one reader: {size} < {newest_seen}"
                    );
                    newest_seen = size;
                    // Full client-side validation at the status's own time:
                    // signature, proof against root, freshness.
                    let now = status.signed_root.timestamp + 1;
                    let outcome = status
                        .validate(&serial, &ca_key, 10, now)
                        .expect("served status must verify");
                    // Every serial below the root's size is revoked.
                    assert_eq!(
                        outcome.is_revoked(),
                        u64::from(query % (BATCHES as u32 * BATCH_SIZE)) < size
                    );
                    query = query.wrapping_add(7);
                    reads += 1;
                    if finished && reads >= 200 {
                        break;
                    }
                }
                assert!(newest_seen >= BATCHES * BATCH_SIZE as u64 / 2);
            });
        }
    });

    // After the race the final epoch's data is what readers are served.
    let final_snap = server.snapshot(&ca_id).expect("published");
    assert_eq!(final_snap.len() as u64, BATCHES * BATCH_SIZE as u64);
}
