//! Snapshot/publish lifecycle property test: random issuance batches,
//! tampered-batch rollbacks, freshness refreshes, and root rotations are
//! driven through `mirror_mut` (which republishes on drop) and served back
//! through the `StatusServer`. Every served status must validate against
//! its own snapshot's root, served epochs must never regress, and the
//! mirror's structurally-shared tree must stay bit-identical to a dense
//! rebuild oracle of the issuance log.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::ra::{RaConfig, RevocationAgent};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::tree::{Leaf, MerkleTree};
use ritm_dictionary::{CaDictionary, CaId, RevocationProof, SerialNumber, UpdateError};

const DELTA: u64 = 10;
const T0: u64 = 1_000_000;

/// Dense-rebuild oracle over the issuance log (serials in issuance order,
/// numbered from 1).
fn oracle_of(log: &[SerialNumber]) -> MerkleTree {
    MerkleTree::from_leaves(log.iter().zip(1..).map(|(s, n)| Leaf::new(*s, n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lifecycle_serves_self_consistent_statuses(
        ops in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(0u32..4_000, 1..25)),
            1..16,
        ),
    ) {
        let mut rng = StdRng::seed_from_u64(31);
        // Short chain so refreshes regularly rotate the root.
        let mut ca = CaDictionary::new(
            CaId::from_name("LifecycleCA"),
            SigningKey::from_seed([3u8; 32]),
            DELTA,
            4,
            &mut rng,
            T0,
        );
        let ca_id = ca.ca();
        let key = ca.verifying_key();
        let mut ra = RevocationAgent::new(RaConfig { delta: DELTA, ..Default::default() });
        ra.follow_ca(ca_id, key, *ca.signed_root()).unwrap();
        let server = ra.status_server();

        let mut log: Vec<SerialNumber> = Vec::new();
        let mut now = T0;
        let mut last_epoch = server.snapshot(&ca_id).expect("genesis published").epoch();

        for (action, payload) in &ops {
            now += 1;
            match action % 4 {
                0 | 1 => {
                    // Issuance batch (random serials; middle insertions and
                    // appends both occur).
                    let serials: Vec<SerialNumber> =
                        payload.iter().map(|&v| SerialNumber::from_u24(v)).collect();
                    if let Ok(iss) = ca.insert(&serials, &mut rng, now) {
                        ra.mirror_mut(&ca_id).unwrap().apply_issuance(&iss, now).unwrap();
                        log.extend(iss.serials.iter().copied());
                    }
                }
                2 => {
                    // Tampered batch: the mirror must roll the application
                    // back (remove_sorted_batch path), reject, and then
                    // accept the honest bytes.
                    let serials: Vec<SerialNumber> =
                        payload.iter().map(|&v| SerialNumber::from_u24(v)).collect();
                    if let Ok(iss) = ca.insert(&serials, &mut rng, now) {
                        let mut tampered = iss.clone();
                        tampered.serials[0] = SerialNumber::from_u24(0xF0_0000);
                        let err = ra
                            .mirror_mut(&ca_id)
                            .unwrap()
                            .apply_issuance(&tampered, now)
                            .unwrap_err();
                        prop_assert!(matches!(
                            err,
                            UpdateError::RootMismatch | UpdateError::DuplicateSerial
                        ));
                        ra.mirror_mut(&ca_id).unwrap().apply_issuance(&iss, now).unwrap();
                        log.extend(iss.serials.iter().copied());
                    }
                }
                _ => {
                    // Periodic refresh: freshness statement, or a root
                    // rotation once the short chain is exhausted.
                    now += DELTA;
                    let msg = ca.refresh(&mut rng, now);
                    ra.mirror_mut(&ca_id).unwrap().apply_refresh(&msg, now).unwrap();
                }
            }

            // The published snapshot tracks the oracle and never regresses.
            let snap = server.snapshot(&ca_id).expect("published");
            prop_assert!(snap.epoch() >= last_epoch, "served epoch regressed");
            last_epoch = snap.epoch();
            let oracle = oracle_of(&log);
            prop_assert_eq!(snap.signed_root().root, oracle.root());
            prop_assert_eq!(snap.len(), oracle.len());

            // Served statuses validate against their own snapshot's root,
            // agree with the model, and carry audit paths bit-identical to
            // the dense oracle's.
            let mut queries: Vec<SerialNumber> = payload
                .iter()
                .take(4)
                .map(|&v| SerialNumber::from_u24(v.wrapping_mul(3) % 5_000))
                .collect();
            if let Some(first) = log.first() {
                queries.push(*first);
            }
            for q in &queries {
                let status = server.snapshot(&ca_id).expect("mirrored CA").status(q);
                let outcome = status
                    .validate(q, &key, DELTA, now)
                    .expect("served status must validate against its own root");
                prop_assert_eq!(outcome.is_revoked(), log.contains(q), "verdict diverged");
                let from_oracle = RevocationProof::generate(&oracle, q);
                prop_assert_eq!(
                    status.proof.to_bytes(),
                    from_oracle.to_bytes(),
                    "audit path diverged from dense oracle"
                );
            }
        }
    }
}
