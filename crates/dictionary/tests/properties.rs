//! Property-based tests for the authenticated dictionary: the dictionary
//! must agree with a trivial set-model for *every* query, and no byte-level
//! tampering of a revocation status may survive client validation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_crypto::SigningKey;
use ritm_dictionary::chunk::CHUNK;
use ritm_dictionary::persistent::PersistentTree;
use ritm_dictionary::tree::{Leaf, MerkleTree};
use ritm_dictionary::{
    CaDictionary, CaId, MirrorDictionary, ProvenStatus, RevocationStatus, SerialNumber,
};
use std::collections::BTreeSet;

const DELTA: u64 = 10;
const T0: u64 = 1_000_000;

fn setup(batches: &[Vec<u32>]) -> (CaDictionary, MirrorDictionary, BTreeSet<u32>) {
    let mut rng = StdRng::seed_from_u64(42);
    let mut ca = CaDictionary::new(
        CaId::from_name("PropCA"),
        SigningKey::from_seed([1u8; 32]),
        DELTA,
        256,
        &mut rng,
        T0,
    );
    let mut ra = MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
    ra.set_delta(DELTA);
    let mut model = BTreeSet::new();
    for (i, batch) in batches.iter().enumerate() {
        let serials: Vec<SerialNumber> = batch.iter().map(|&v| SerialNumber::from_u24(v)).collect();
        let now = T0 + i as u64 + 1;
        if let Some(iss) = ca.insert(&serials, &mut rng, now) {
            ra.apply_issuance(&iss, now).unwrap();
        }
        model.extend(batch.iter().copied().map(|v| v & 0x00ff_ffff));
    }
    // Bring the mirror's freshness up to the validation time used by the
    // properties (T0 + 100); otherwise statuses are *correctly* rejected as
    // stale (>2Δ old).
    let msg = ca.refresh(&mut rng, T0 + 100);
    ra.apply_refresh(&msg, T0 + 100).unwrap();
    (ca, ra, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any insertion history and any query, the RA's proof verifies and
    /// its verdict matches a plain set model.
    #[test]
    fn dictionary_agrees_with_set_model(
        batches in prop::collection::vec(prop::collection::vec(0u32..5_000, 0..40), 0..6),
        queries in prop::collection::vec(0u32..6_000, 1..30),
    ) {
        let (ca, ra, model) = setup(&batches);
        let now = T0 + 100;
        for q in queries {
            let serial = SerialNumber::from_u24(q);
            let status = ra.prove(&serial);
            let outcome = status
                .validate(&serial, &ca.verifying_key(), DELTA, now)
                .expect("honest proof must validate");
            prop_assert_eq!(
                outcome.is_revoked(),
                model.contains(&q),
                "query {} disagreed with model", q
            );
            if let ProvenStatus::Revoked { number } = outcome {
                prop_assert!(number >= 1 && number <= model.len() as u64);
            }
        }
    }

    /// Status messages survive an encode/decode round trip bit-exactly.
    #[test]
    fn status_encoding_round_trips(
        batch in prop::collection::vec(0u32..10_000, 1..200),
        query in 0u32..12_000,
    ) {
        let (_ca, ra, _model) = setup(&[batch]);
        let serial = SerialNumber::from_u24(query);
        let status = ra.prove(&serial);
        let bytes = status.to_bytes();
        let back = RevocationStatus::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, status);
    }

    /// Flipping any single byte of an encoded status must never yield a
    /// *different verdict that still validates*: tampering is either caught
    /// by decode/validation, or decodes back to an equivalent valid status.
    #[test]
    fn tampered_status_never_flips_verdict(
        batch in prop::collection::vec(0u32..2_000, 1..50),
        query in 0u32..2_500,
        flip_byte in any::<u8>(),
        flip_pos_seed in any::<u16>(),
    ) {
        let (ca, ra, model) = setup(&[batch]);
        let serial = SerialNumber::from_u24(query);
        let status = ra.prove(&serial);
        let honest_revoked = model.contains(&query);
        let mut bytes = status.to_bytes();
        let pos = flip_pos_seed as usize % bytes.len();
        if flip_byte == bytes[pos] {
            return Ok(()); // no-op flip
        }
        bytes[pos] = flip_byte;
        if let Ok(tampered) = RevocationStatus::from_bytes(&bytes) {
            if let Ok(outcome) =
                tampered.validate(&serial, &ca.verifying_key(), DELTA, T0 + 100)
            {
                prop_assert_eq!(
                    outcome.is_revoked(),
                    honest_revoked,
                    "tampering at byte {} flipped the verdict", pos
                );
            }
        }
    }

    /// The incremental engine is bit-identical to full rebuilds: for any
    /// sequence of batches, `apply_sorted_batch` produces the same root and
    /// the same audit path for every leaf as a from-scratch `rebuild`, and
    /// the epoch advances with every applied batch.
    #[test]
    fn incremental_batches_match_full_rebuild(
        batches in prop::collection::vec(prop::collection::vec(0u32..10_000, 1..60), 1..8),
    ) {
        let mut incremental = MerkleTree::new();
        let mut number = 0u64;
        let mut epochs_seen = vec![incremental.epoch()];
        for batch in &batches {
            // Canonicalize like the dictionary layer: drop serials already
            // present (and intra-batch duplicates), number in issuance
            // order, sort by serial.
            let mut fresh: Vec<Leaf> = Vec::new();
            for &v in batch {
                let serial = SerialNumber::from_u24(v);
                if incremental.find(&serial).is_none()
                    && fresh.iter().all(|l| l.serial != serial)
                {
                    number += 1;
                    fresh.push(Leaf::new(serial, number));
                }
            }
            fresh.sort_by_key(|l| l.serial);
            let epoch_before = incremental.epoch();
            let fast_path = incremental.apply_sorted_batch(&fresh);
            prop_assert!(fast_path, "canonical batches must take the incremental path");
            if fresh.is_empty() {
                prop_assert_eq!(incremental.epoch(), epoch_before);
            } else {
                prop_assert!(incremental.epoch() > epoch_before, "epoch must advance per batch");
            }
            epochs_seen.push(incremental.epoch());

            // Reference: identical leaves, rebuilt from scratch.
            let mut reference = MerkleTree::new();
            reference.extend_leaves(incremental.leaves().iter().copied());
            reference.rebuild();
            prop_assert_eq!(reference.root(), incremental.root());
            prop_assert_eq!(reference.len(), incremental.len());
            for i in 0..incremental.len() {
                prop_assert_eq!(
                    reference.audit_path(i),
                    incremental.audit_path(i),
                    "audit path {} diverged after batch", i
                );
            }
        }
        prop_assert!(
            epochs_seen.windows(2).all(|w| w[0] <= w[1]),
            "epoch must never regress: {:?}", epochs_seen
        );
    }

    /// Rolling back a batch (`remove_sorted_batch`) restores the exact
    /// pre-batch root and audit paths — the mirror's verify-then-commit
    /// guarantee without an O(n) scratch clone.
    #[test]
    fn batch_rollback_restores_previous_tree(
        initial in prop::collection::vec(0u32..5_000, 1..80),
        batch in prop::collection::vec(5_000u32..6_000, 1..30),
    ) {
        let mut tree = MerkleTree::new();
        let mut leaves: Vec<Leaf> = initial
            .iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .enumerate()
            .map(|(i, &v)| Leaf::new(SerialNumber::from_u24(v), i as u64 + 1))
            .collect();
        leaves.sort_by_key(|l| l.serial);
        tree.apply_sorted_batch(&leaves);
        let root_before = tree.root();
        let paths_before: Vec<_> = (0..tree.len()).map(|i| tree.audit_path(i)).collect();

        let fresh: Vec<Leaf> = batch
            .iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .enumerate()
            .map(|(i, &v)| Leaf::new(SerialNumber::from_u24(v), 1_000 + i as u64))
            .collect();
        tree.apply_sorted_batch(&fresh);
        prop_assert_ne!(tree.root(), root_before);
        let serials: Vec<SerialNumber> = fresh.iter().map(|l| l.serial).collect();
        let removed = tree.remove_sorted_batch(&serials);
        prop_assert_eq!(removed, fresh.len());
        prop_assert_eq!(tree.root(), root_before);
        for (i, path) in paths_before.iter().enumerate() {
            prop_assert_eq!(&tree.audit_path(i), path);
        }
    }

    /// A `MultiProof` over any query set is bit-equivalent to verifying each
    /// serial's individual audit path against the same root: same verdict
    /// per serial (presence *and* absence), same acceptance — and after the
    /// dictionary advances an epoch, both the multiproof and every
    /// individual proof are rejected against the new root.
    #[test]
    fn multiproof_equivalent_to_individual_paths(
        batch in prop::collection::vec(0u32..5_000, 0..100),
        queries in prop::collection::vec(0u32..6_000, 1..12),
        growth in prop::collection::vec(6_000u32..6_500, 1..4),
    ) {
        // Canonical tree construction (unique serials, issuance numbering).
        let mut tree = MerkleTree::new();
        let mut number = 0u64;
        let mut fresh: Vec<Leaf> = Vec::new();
        for &v in &batch {
            let serial = SerialNumber::from_u24(v);
            if fresh.iter().all(|l| l.serial != serial) {
                number += 1;
                fresh.push(Leaf::new(serial, number));
            }
        }
        fresh.sort_by_key(|l| l.serial);
        tree.apply_sorted_batch(&fresh);

        let serials: Vec<SerialNumber> =
            queries.iter().map(|&v| SerialNumber::from_u24(v)).collect();
        let root = tree.root();
        let size = tree.len() as u64;

        let mp = ritm_dictionary::MultiProof::generate(&tree, &serials);
        let multi_statuses = mp
            .verify(&serials, &root, size)
            .expect("honest multiproof must verify");
        prop_assert_eq!(multi_statuses.len(), serials.len());
        for (serial, multi_status) in serials.iter().zip(&multi_statuses) {
            let single = ritm_dictionary::RevocationProof::generate(&tree, serial)
                .verify(serial, &root, size)
                .expect("honest single proof must verify");
            prop_assert_eq!(*multi_status, single, "serial {:?} diverged", serial);
        }

        // Wire round trip is bit-exact and size-exact.
        let bytes = mp.to_bytes();
        prop_assert_eq!(bytes.len(), mp.encoded_len());
        let back = ritm_dictionary::MultiProof::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &mp);

        // Cross-epoch rejection: grow the dictionary, and the old proof
        // must fail against the new root exactly like every old single
        // proof does.
        let singles: Vec<_> = serials
            .iter()
            .map(|s| ritm_dictionary::RevocationProof::generate(&tree, s))
            .collect();
        let grow: Vec<Leaf> = growth
            .iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .enumerate()
            .map(|(i, &v)| Leaf::new(SerialNumber::from_u24(v), number + i as u64 + 1))
            .collect();
        tree.apply_sorted_batch(&grow);
        let new_root = tree.root();
        let new_size = tree.len() as u64;
        prop_assert!(
            mp.verify(&serials, &new_root, new_size).is_err(),
            "stale multiproof accepted across epochs"
        );
        for (serial, single) in serials.iter().zip(&singles) {
            prop_assert!(
                single.verify(serial, &new_root, new_size).is_err(),
                "stale single proof accepted across epochs for {:?}", serial
            );
        }
    }

    /// The structurally-shared tree is bit-equivalent to the dense one:
    /// over a random interleaving of batches, rollbacks, and publishes
    /// (clones), both trees produce identical roots, audit paths, and
    /// multiproof bytes — and every published snapshot keeps serving its
    /// frozen epoch's exact root and paths while the writer keeps mutating.
    #[test]
    fn persistent_tree_matches_dense_over_interleavings(
        rounds in prop::collection::vec(
            (
                prop::collection::vec(0u32..8_000, 0..60), // batch serials
                any::<u8>(),                               // action selector
            ),
            1..10,
        ),
        queries in prop::collection::vec(0u32..9_000, 1..10),
    ) {
        let mut dense = MerkleTree::new();
        let mut persistent = PersistentTree::new();
        let mut number = 0u64;
        // Published snapshots with the dense root frozen at publish time.
        let mut published: Vec<(PersistentTree, ritm_crypto::digest::Digest20, usize)> = Vec::new();
        let serials_of = |q: &[u32]| -> Vec<SerialNumber> {
            q.iter().map(|&v| SerialNumber::from_u24(v)).collect()
        };

        for (batch, action) in &rounds {
            // Canonicalize like the dictionary layer: unique fresh serials,
            // numbered in issuance order, sorted by serial.
            let mut fresh: Vec<Leaf> = Vec::new();
            for &v in batch {
                let serial = SerialNumber::from_u24(v);
                if dense.find(&serial).is_none() && fresh.iter().all(|l| l.serial != serial) {
                    number += 1;
                    fresh.push(Leaf::new(serial, number));
                }
            }
            fresh.sort_by_key(|l| l.serial);
            prop_assert_eq!(dense.apply_sorted_batch(&fresh), persistent.apply_sorted_batch(&fresh));

            match action % 3 {
                0 => {
                    // Publish: freeze the persistent tree (O(chunks) clone).
                    published.push((persistent.clone(), dense.root(), dense.len()));
                }
                1 if !fresh.is_empty() => {
                    // Roll the batch straight back out of both trees.
                    let serials: Vec<SerialNumber> = fresh.iter().map(|l| l.serial).collect();
                    prop_assert_eq!(
                        dense.remove_sorted_batch(&serials),
                        persistent.remove_sorted_batch(&serials)
                    );
                }
                _ => {}
            }

            // Bit-equivalence after every round.
            prop_assert_eq!(dense.root(), persistent.root());
            prop_assert_eq!(dense.len(), persistent.len());
            for i in 0..dense.len() {
                prop_assert_eq!(dense.audit_path(i), persistent.audit_path(i), "path {}", i);
            }
            let qs = serials_of(&queries);
            let mp_dense = ritm_dictionary::MultiProof::generate(&dense, &qs);
            let mp_persistent = ritm_dictionary::MultiProof::generate(&persistent, &qs);
            prop_assert_eq!(
                mp_dense.to_bytes(),
                mp_persistent.to_bytes(),
                "multiproof bytes diverged"
            );
            for q in &qs {
                prop_assert_eq!(
                    ritm_dictionary::RevocationProof::generate(&dense, q).to_bytes(),
                    ritm_dictionary::RevocationProof::generate(&persistent, q).to_bytes()
                );
            }
        }

        // Every snapshot published along the way still serves its frozen
        // state — later copy-on-write mutations must never reach into a
        // shared chunk.
        for (snap, root, len) in &published {
            prop_assert_eq!(snap.root(), *root);
            prop_assert_eq!(snap.len(), *len);
            if *len > 0 {
                let i = len - 1;
                let path = snap.audit_path(i);
                let got = ritm_dictionary::tree::root_from_path(
                    i,
                    *len,
                    snap.leaf(i).hash(),
                    &path,
                );
                prop_assert_eq!(got, Some(*root), "published snapshot path broke");
            }
        }
    }

    /// The persistent tree's whole-chunk merge at the chunk boundaries it
    /// creates: a dictionary of `k·CHUNK − 1`, `k·CHUNK` or `k·CHUNK + 1`
    /// leaves, a dirty front just before, at or just after a chunk edge,
    /// and a batch of `CHUNK − 1`, `CHUNK` or `CHUNK + 1` leaves (or a
    /// couple), clustered in one gap or spread, with a snapshot published
    /// before the batch and held across it. Persistent ≡ dense (root, every
    /// audit path, multiproof bytes); every chunk left of the front stays
    /// shared with the snapshot; and rolling the batch back — what a mirror
    /// does when the batch's signed root does not commit to it — leaves the
    /// tree bit-identical to the snapshot.
    #[test]
    fn persistent_merge_at_chunk_boundaries(
        k in 1usize..=3,
        len_edge in 0usize..3,
        front_chunk in 0usize..=3,
        front_edge in 0usize..3,
        batch_pick in 0usize..5,
        stride_pick in 0usize..3,
    ) {
        let batch_len = [1, 2, CHUNK - 1, CHUNK, CHUNK + 1][batch_pick];
        let stride = [0, 1, 7][stride_pick];
        // Base leaf i has serial (i + 1) << 16; a batch leaf aimed at gap g
        // (just before base leaf g) has serial (g << 16) + 1 + offset.
        let n = k * CHUNK + len_edge - 1;
        let front = (front_chunk * CHUNK + front_edge).saturating_sub(1).min(n);
        let base: Vec<Leaf> = (0..n)
            .map(|i| Leaf::new(SerialNumber::from_u64(((i + 1) as u64) << 16), i as u64 + 1))
            .collect();
        let mut batch: Vec<Leaf> = (0..batch_len)
            .map(|j| {
                let (gap, offset) = if stride == 0 { (front, j) } else { (front + stride * j, 0) };
                let serial = SerialNumber::from_u64(((gap as u64) << 16) + 1 + offset as u64);
                Leaf::new(serial, (n + j) as u64 + 1)
            })
            .collect();
        batch.sort_by_key(|l| l.serial);

        let mut dense = MerkleTree::new();
        let mut persistent = PersistentTree::new();
        dense.apply_sorted_batch(&base);
        persistent.apply_sorted_batch(&base);
        let snapshot = persistent.clone();
        let levels = 1 + (usize::BITS - (n + batch_len - 1).leading_zeros()) as usize;

        prop_assert!(dense.apply_sorted_batch(&batch));
        prop_assert!(persistent.apply_sorted_batch(&batch));
        prop_assert_eq!(persistent.root(), dense.root());
        prop_assert_eq!(persistent.len(), n + batch_len);
        for i in 0..dense.len() {
            prop_assert_eq!(persistent.leaf(i), dense.leaves()[i]);
            prop_assert_eq!(persistent.audit_path(i), dense.audit_path(i), "path {}", i);
        }
        let probes = [0, front.saturating_sub(1), front, CHUNK - 1, CHUNK, CHUNK + 1, dense.len() - 1];
        let mut queries: Vec<SerialNumber> = probes
            .iter()
            .map(|&i| dense.leaves()[i.min(dense.len() - 1)].serial)
            .collect();
        queries.push(SerialNumber::from_u64(((front as u64) << 16) + 0x8000)); // absent
        queries.push(SerialNumber::from_u64(u64::MAX)); // absent, past the end
        prop_assert_eq!(
            ritm_dictionary::MultiProof::generate(&persistent, &queries).to_bytes(),
            ritm_dictionary::MultiProof::generate(&dense, &queries).to_bytes()
        );

        // Leaves and level 0 are cut at the front, level l at front >> l:
        // every whole chunk left of that cut is still the snapshot's.
        let left_of_front = front / CHUNK
            + (0..levels).map(|l| (front >> l) / CHUNK).sum::<usize>();
        prop_assert_eq!(persistent.shared_chunks_with(&snapshot), left_of_front);
        prop_assert_eq!(snapshot.len(), n);
        for i in [0, front.saturating_sub(1), n - 1] {
            prop_assert_eq!(
                ritm_dictionary::tree::root_from_path(i, n, snapshot.leaf(i).hash(), &snapshot.audit_path(i)),
                Some(snapshot.root())
            );
        }

        // A forged signed root: one batch leaf's revocation number changed.
        let mut forged_batch = batch.clone();
        forged_batch[0].number += 1;
        let mut forged = MerkleTree::new();
        forged.apply_sorted_batch(&base);
        forged.apply_sorted_batch(&forged_batch);
        prop_assert_ne!(persistent.root(), forged.root());
        // Roll back as the mirror does, serials in issuance order.
        let mut issued: Vec<Leaf> = batch.clone();
        issued.sort_by_key(|l| l.number);
        let serials: Vec<SerialNumber> = issued.iter().map(|l| l.serial).collect();
        prop_assert_eq!(persistent.remove_sorted_batch(&serials), batch_len);
        prop_assert_eq!(dense.remove_sorted_batch(&serials), batch_len);
        prop_assert_eq!(persistent.root(), snapshot.root());
        prop_assert_eq!(persistent.len(), n);
        for i in 0..n {
            prop_assert_eq!(persistent.leaf(i), snapshot.leaf(i));
            let path = persistent.audit_path(i);
            prop_assert_eq!(&path, &snapshot.audit_path(i), "path {} after rollback", i);
            prop_assert_eq!(&path, &dense.audit_path(i));
        }
    }

    /// A replayed (stale) signed root from before the latest insert must not
    /// validate a serial revoked afterwards as "not revoked" *with current
    /// freshness* — the freshness statement is bound to the new root.
    #[test]
    fn stale_root_cannot_masquerade_as_fresh(
        first in prop::collection::vec(0u32..1_000, 1..20),
        victim in 1_000u32..1_100,
    ) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ca = CaDictionary::new(
            CaId::from_name("ReplayCA"),
            SigningKey::from_seed([2u8; 32]),
            DELTA,
            256,
            &mut rng,
            T0,
        );
        let mut ra = MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
        ra.set_delta(DELTA);
        let serials: Vec<SerialNumber> = first.iter().map(|&v| SerialNumber::from_u24(v)).collect();
        if let Some(iss) = ca.insert(&serials, &mut rng, T0 + 1) {
            ra.apply_issuance(&iss, T0 + 1).unwrap();
        }
        // Snapshot the old status for the victim before it is revoked.
        let victim_serial = SerialNumber::from_u24(victim);
        let old_status = ra.prove(&victim_serial);

        // CA revokes the victim; much later, the old status must be stale.
        ca.insert(&[victim_serial], &mut rng, T0 + 2);
        let much_later = T0 + 2 + 3 * DELTA;
        let res = old_status.validate(&victim_serial, &ca.verifying_key(), DELTA, much_later);
        prop_assert!(res.is_err(), "stale absence status accepted at +3Δ");
    }
}
