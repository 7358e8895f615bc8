//! Property-based tests for the authenticated dictionary: the dictionary
//! must agree with a trivial set-model for *every* query, and no byte-level
//! tampering of a revocation status may survive client validation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_crypto::wire::Writer;
use ritm_crypto::{Digest20, SigningKey};
use ritm_dictionary::chunk::CHUNK;
use ritm_dictionary::persistent::PersistentTree;
use ritm_dictionary::proof::PROOF_FORMAT;
use ritm_dictionary::tree::{empty_root, node_hash, Leaf, MerkleTree};
use ritm_dictionary::{
    CaDictionary, CaId, MirrorDictionary, MultiProof, ProvenStatus, RefreshMessage,
    RevocationIssuance, RevocationProof, RevocationStatus, SerialNumber, SignedRoot, UpdateError,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeSet, HashSet};

/// Counts the bytes the measuring thread allocates, and only while it
/// measures: the tests of this binary run concurrently.
struct CountingAlloc;

thread_local! {
    /// `Some(bytes allocated so far)` while this thread is measuring.
    static ALLOCATED: Cell<Option<usize>> = const { Cell::new(None) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get().map(|n| n + layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get().map(|n| n + new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the bytes it allocated on this
/// thread (frees not subtracted).
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATED.with(|a| a.set(Some(0)));
    let out = f();
    let bytes = ALLOCATED.with(|a| a.replace(None)).expect("measuring");
    (out, bytes)
}

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
    /// sequence of batches, `PersistentTree::apply_sorted_batch` produces
    /// the same root and the same audit path for every leaf as the
    /// reference built from scratch, and the epoch advances with every
    /// applied batch.
    #[test]
    fn incremental_batches_match_full_rebuild(
        batches in prop::collection::vec(prop::collection::vec(0u32..10_000, 1..60), 1..8),
    ) {
        let mut incremental = PersistentTree::new();
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

            // Reference: identical leaves, built from scratch.
            let reference = MerkleTree::from_leaves(incremental.iter_leaves().copied());
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
        let mut tree = PersistentTree::new();
        let mut leaves: Vec<Leaf> = initial
            .iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .enumerate()
            .map(|(i, &v)| Leaf::new(SerialNumber::from_u24(v), i as u64 + 1))
            .collect();
        leaves.sort_by_key(|l| l.serial);
        tree.apply_sorted_batch(&leaves);
        let reference = MerkleTree::from_leaves(leaves);
        prop_assert_eq!(tree.root(), reference.root());

        let fresh: Vec<Leaf> = batch
            .iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .enumerate()
            .map(|(i, &v)| Leaf::new(SerialNumber::from_u24(v), (tree.len() + 1 + i) as u64))
            .collect();
        tree.apply_sorted_batch(&fresh);
        prop_assert_ne!(tree.root(), reference.root());
        let serials: Vec<SerialNumber> = fresh.iter().map(|l| l.serial).collect();
        let removed = tree.remove_sorted_batch(&serials);
        prop_assert_eq!(removed, fresh.len());
        prop_assert_eq!(tree.root(), reference.root());
        for i in 0..reference.len() {
            prop_assert_eq!(tree.audit_path(i), reference.audit_path(i));
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
        let mut number = 0u64;
        let mut fresh: Vec<Leaf> = Vec::new();
        for &v in &batch {
            let serial = SerialNumber::from_u24(v);
            if fresh.iter().all(|l| l.serial != serial) {
                number += 1;
                fresh.push(Leaf::new(serial, number));
            }
        }
        let tree = MerkleTree::from_leaves(fresh);

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
        let tree = MerkleTree::from_leaves(tree.leaves().iter().chain(&grow).copied());
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

    /// The structurally-shared tree is bit-equivalent to the reference:
    /// over a random interleaving of batches, rollbacks, and publishes
    /// (clones), it holds the leaves a plain model says it should, and its
    /// root, audit paths, and proof and multiproof bytes equal those of a
    /// `MerkleTree` built from scratch after every step — and every
    /// published snapshot keeps serving its frozen epoch's exact root and
    /// paths while the writer keeps mutating.
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
        let mut persistent = PersistentTree::new();
        // The leaves the tree should hold, in no particular order.
        let mut model: Vec<Leaf> = Vec::new();
        let mut number = 0u64;
        // Published snapshots with the reference root frozen at publish time.
        let mut published: Vec<(PersistentTree, ritm_crypto::digest::Digest20, usize)> = Vec::new();
        let qs: Vec<SerialNumber> = queries.iter().map(|&v| SerialNumber::from_u24(v)).collect();

        for (batch, action) in &rounds {
            // Canonicalize like the dictionary layer: unique fresh serials,
            // numbered in issuance order, sorted by serial.
            let mut fresh: Vec<Leaf> = Vec::new();
            for &v in batch {
                let serial = SerialNumber::from_u24(v);
                if persistent.find(&serial).is_none() && fresh.iter().all(|l| l.serial != serial) {
                    number += 1;
                    fresh.push(Leaf::new(serial, number));
                }
            }
            fresh.sort_by_key(|l| l.serial);
            prop_assert!(persistent.apply_sorted_batch(&fresh));
            model.extend_from_slice(&fresh);

            if action % 3 == 1 && !fresh.is_empty() {
                // Roll the batch straight back out.
                let serials: Vec<SerialNumber> = fresh.iter().map(|l| l.serial).collect();
                prop_assert_eq!(persistent.remove_sorted_batch(&serials), fresh.len());
                model.truncate(model.len() - fresh.len());
                number -= fresh.len() as u64;
            }

            // Bit-equivalence with the reference after every round.
            let reference = MerkleTree::from_leaves(model.iter().copied());
            prop_assert!(persistent.iter_leaves().eq(reference.leaves()), "leaves diverged");
            prop_assert_eq!(persistent.root(), reference.root());
            for i in 0..reference.len() {
                prop_assert_eq!(persistent.audit_path(i), reference.audit_path(i), "path {}", i);
            }
            prop_assert_eq!(
                ritm_dictionary::MultiProof::generate(&reference, &qs).to_bytes(),
                ritm_dictionary::MultiProof::generate(&persistent, &qs).to_bytes(),
                "multiproof bytes diverged"
            );
            for q in &qs {
                prop_assert_eq!(
                    ritm_dictionary::RevocationProof::generate(&reference, q).to_bytes(),
                    ritm_dictionary::RevocationProof::generate(&persistent, q).to_bytes()
                );
            }

            if action % 3 == 0 {
                // Publish: freeze the persistent tree (O(chunks) clone).
                published.push((persistent.clone(), reference.root(), reference.len()));
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
    /// before the batch and held across it. Persistent ≡ reference (root,
    /// every audit path, multiproof bytes); every chunk left of the front stays
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

        let mut persistent = PersistentTree::new();
        persistent.apply_sorted_batch(&base);
        let snapshot = persistent.clone();
        let levels = 1 + (usize::BITS - (n + batch_len - 1).leading_zeros()) as usize;

        prop_assert!(persistent.apply_sorted_batch(&batch));
        let reference = MerkleTree::from_leaves(base.iter().chain(&batch).copied());
        prop_assert_eq!(persistent.root(), reference.root());
        prop_assert_eq!(persistent.len(), n + batch_len);
        for i in 0..reference.len() {
            prop_assert_eq!(persistent.leaf(i), reference.leaves()[i]);
            prop_assert_eq!(persistent.audit_path(i), reference.audit_path(i), "path {}", i);
        }
        let probes = [0, front.saturating_sub(1), front, CHUNK - 1, CHUNK, CHUNK + 1, reference.len() - 1];
        let mut queries: Vec<SerialNumber> = probes
            .iter()
            .map(|&i| reference.leaves()[i.min(reference.len() - 1)].serial)
            .collect();
        queries.push(SerialNumber::from_u64(((front as u64) << 16) + 0x8000)); // absent
        queries.push(SerialNumber::from_u64(u64::MAX)); // absent, past the end
        prop_assert_eq!(
            ritm_dictionary::MultiProof::generate(&persistent, &queries).to_bytes(),
            ritm_dictionary::MultiProof::generate(&reference, &queries).to_bytes()
        );

        // Leaves and level 0 are cut at the front, level l at front >> l:
        // every whole chunk left of that cut is still the snapshot's. Only
        // level 0 and levels >= 3 are stored.
        let left_of_front = front / CHUNK
            + (0..levels)
                .filter(|&l| l == 0 || l >= 3)
                .map(|l| (front >> l) / CHUNK)
                .sum::<usize>();
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
        let forged = MerkleTree::from_leaves(base.iter().chain(&forged_batch).copied());
        prop_assert_ne!(persistent.root(), forged.root());
        // Roll back as the mirror does, serials in issuance order.
        let mut issued: Vec<Leaf> = batch.clone();
        issued.sort_by_key(|l| l.number);
        let serials: Vec<SerialNumber> = issued.iter().map(|l| l.serial).collect();
        prop_assert_eq!(persistent.remove_sorted_batch(&serials), batch_len);
        let reference = MerkleTree::from_leaves(base);
        prop_assert_eq!(persistent.root(), snapshot.root());
        prop_assert_eq!(persistent.root(), reference.root());
        prop_assert_eq!(persistent.len(), n);
        for i in 0..n {
            prop_assert_eq!(persistent.leaf(i), snapshot.leaf(i));
            let path = persistent.audit_path(i);
            prop_assert_eq!(&path, &snapshot.audit_path(i), "path {} after rollback", i);
            prop_assert_eq!(&path, &reference.audit_path(i));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `SerialNumber`'s order over its zero-padded bytes is the byte order
    /// of its meaningful bytes, and equality is `cmp`'s `Equal`. Pairs share
    /// a prefix of 0–20 bytes and end in short tails drawn mostly from
    /// `00` (the padding byte) and `ff`, so prefix pairs, trailing zeros and
    /// 20-byte serials come up in every case.
    #[test]
    fn serial_order_is_byte_order(
        pairs in prop::collection::vec(
            (
                prop::collection::vec(edge_byte(), 0..=20usize),
                prop::collection::vec(edge_byte(), 0..4usize),
                prop::collection::vec(edge_byte(), 0..4usize),
            ),
            1..64usize,
        ),
    ) {
        for (prefix, tail_a, tail_b) in &pairs {
            let (a, b) = (joined(prefix, tail_a), joined(prefix, tail_b));
            prop_assert_eq!(a.cmp(&b), a.as_bytes().cmp(b.as_bytes()), "{} vs {}", a, b);
            prop_assert_eq!(a == b, a.cmp(&b).is_eq(), "{} vs {}", a, b);
        }
    }

    /// The dictionaries' batch checks decide exactly what the per-serial
    /// `HashSet` checks they replaced decided: `insert` skips the same
    /// serials and numbers the rest in input order; `apply_issuance` and
    /// `restore` reject the same batches with the same error, and `replay`
    /// stops at the same record. A rejected update leaves the mirror's tree
    /// as it was. Along the way the CA's tree is held to the reference
    /// `MerkleTree` over the same log: its root, its proof bytes for
    /// `queries`, and the root every catch-up page is signed over, pages
    /// cut mid-batch included; every page's and every `issuance_since`
    /// reply's serials are the model log's.
    #[test]
    fn batch_checks_agree_with_the_hashset_algorithm(
        history in prop::collection::vec(prop::collection::vec(colliding_serial(), 0..12usize), 0..4usize),
        batch in prop::collection::vec(colliding_serial(), 0..16usize),
        wrong_root in any::<bool>(),
        queries in prop::collection::vec(colliding_serial(), 1..6usize),
    ) {
        let key = SigningKey::from_seed([4u8; 32]);
        let ca_id = CaId::from_name("BatchCA");
        let mut rng = StdRng::seed_from_u64(11);
        let mut ca = CaDictionary::new(ca_id, key.clone(), DELTA, 256, &mut rng, T0);
        let mut mirror = MirrorDictionary::new(ca_id, ca.verifying_key(), *ca.signed_root()).unwrap();
        let mut log: Vec<SerialNumber> = Vec::new();
        let mut records = Vec::new();
        for (i, serials) in history.iter().enumerate() {
            let now = T0 + 1 + i as u64;
            let added = hashset_insert(&log, serials);
            match ca.insert(serials, &mut rng, now) {
                None => prop_assert!(added.is_empty(), "insert skipped {:?}", added),
                Some(iss) => {
                    prop_assert_eq!(iss.first_number, log.len() as u64 + 1);
                    prop_assert_eq!(&iss.serials, &added);
                    log.extend_from_slice(&added);
                    prop_assert_eq!(iss.signed_root.root, reference_root(&log));
                    prop_assert_eq!(iss.signed_root.size, log.len() as u64);
                    let reference = reference_tree(&log);
                    prop_assert_eq!(ca.signed_root().root, reference.root());
                    for q in &queries {
                        let status = ca.prove(q, now).expect("fresh at its own timestamp");
                        prop_assert_eq!(
                            status.proof.to_bytes(),
                            RevocationProof::generate(&reference, q).to_bytes()
                        );
                    }
                    mirror.apply_issuance(&iss, now).unwrap();
                    records.push(iss);
                }
            }
        }
        for have in 0..=log.len() {
            // The packed log reads back as the plain model log.
            prop_assert_eq!(&ca.issuance_since(have as u64).serials[..], &log[have..]);
            for limit in 1..=3 {
                let (page, _) = ca.issuance_page(have as u64, limit);
                let end = have + page.serials.len();
                prop_assert_eq!(&page.serials[..], &log[have..end]);
                prop_assert_eq!(page.signed_root.size, end as u64);
                prop_assert_eq!(page.signed_root.root, reference_tree(&log[..end]).root());
            }
        }

        // `batch` as it stands, under a valid signature over the root it
        // would give (or a corrupted one): only the batch check and the
        // root check can reject it.
        let mut all = log.clone();
        all.extend_from_slice(&batch);
        let mut root = *reference_root(&all).as_bytes();
        if wrong_root {
            root[0] ^= 1;
        }
        let now = T0 + 50;
        let signed_root = SignedRoot::create(
            &key,
            ca_id,
            Digest20::from_bytes(root),
            all.len() as u64,
            ca.signed_root().anchor,
            now,
        );
        let crafted = RevocationIssuance {
            first_number: log.len() as u64 + 1,
            serials: batch.clone(),
            signed_root,
        };
        let expected = if hashset_has_duplicate(&log, &batch) {
            Err(UpdateError::DuplicateSerial)
        } else if wrong_root {
            Err(UpdateError::RootMismatch)
        } else {
            Ok(())
        };

        let before = mirror.clone();
        prop_assert_eq!(mirror.apply_issuance(&crafted, now), expected);
        if expected.is_err() {
            prop_assert_eq!(mirror.len(), before.len());
            prop_assert_eq!(mirror.signed_root(), before.signed_root());
            prop_assert_eq!(mirror.issuance_since(0).serials, log.clone());
            // A rotation over the old content is accepted only if the
            // tree's root is the old root again.
            let rotated = SignedRoot::create(
                &key,
                ca_id,
                reference_root(&log),
                log.len() as u64,
                ca.signed_root().anchor,
                now,
            );
            let mut probe = mirror.clone();
            prop_assert_eq!(probe.apply_refresh(&RefreshMessage::NewRoot(rotated), now), Ok(()));
        }

        let restored = MirrorDictionary::restore(ca.verifying_key(), DELTA, &all, signed_root);
        prop_assert_eq!(restored.map(|m| *m.signed_root()), expected.map(|()| signed_root));

        records.push(crafted);
        let replayed = CaDictionary::replay(ca_id, key, DELTA, 256, &records, &mut rng, now);
        let expected_stop = match expected {
            Ok(()) if !batch.is_empty() => None,
            _ => Some(records.len() - 1),
        };
        prop_assert_eq!(replayed.as_ref().err().copied(), expected_stop);
        if let Ok(dict) = replayed {
            prop_assert_eq!(dict.len(), all.len());
            prop_assert_eq!(dict.signed_root().root, reference_root(&all));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The tree's 8-byte entries compare serial prefixes and read the log
    /// only on a tie. Over serials that tie: ones sharing a 4-byte prefix,
    /// ones of every length from 1 to 20 bytes under one first byte, and
    /// `[1,2,3]` padded with 0–17 zero bytes, batches applied one by one
    /// land on the reference's root, leaves, audit paths and multiproof
    /// bytes; `find` and `lower_bound` agree with a byte-order search of
    /// the reference's leaves; and the log reads back in issuance order.
    #[test]
    fn prefix_ties_match_the_reference(
        batches in prop::collection::vec(prop::collection::vec(tie_serial(), 1..40), 1..5),
        queries in prop::collection::vec(tie_serial(), 1..12),
    ) {
        let mut tree = PersistentTree::new();
        let mut log: Vec<SerialNumber> = Vec::new();
        for batch in &batches {
            let mut fresh: Vec<Leaf> = Vec::new();
            for s in batch {
                if tree.find(s).is_none() && fresh.iter().all(|l| l.serial != *s) {
                    fresh.push(Leaf::new(*s, (log.len() + fresh.len() + 1) as u64));
                }
            }
            log.extend(fresh.iter().map(|l| l.serial));
            fresh.sort_by_key(|l| l.serial);
            prop_assert!(tree.apply_sorted_batch(&fresh));

            let reference = reference_tree(&log);
            prop_assert_eq!(tree.root(), reference.root());
            prop_assert_eq!(tree.root(), reference_root(&log));
            for i in 0..reference.len() {
                prop_assert_eq!(tree.leaf(i), reference.leaves()[i]);
                prop_assert_eq!(tree.audit_path(i), reference.audit_path(i), "path {}", i);
            }
            let leaves = reference.leaves();
            for q in queries.iter().chain(&log) {
                let below = leaves.partition_point(|l| l.serial.as_bytes() < q.as_bytes());
                prop_assert_eq!(tree.lower_bound(q), below, "lower_bound {:?}", q);
                let at = leaves.iter().position(|l| l.serial == *q);
                prop_assert_eq!(tree.find(q), at, "find {:?}", q);
            }
            prop_assert_eq!(
                ritm_dictionary::MultiProof::generate(&tree, &queries).to_bytes(),
                ritm_dictionary::MultiProof::generate(&reference, &queries).to_bytes()
            );
            prop_assert_eq!(tree.log().range(0, tree.len()), log.clone());
        }
    }

    /// A mirror that rejects a validly signed batch whose serials do not
    /// match its root rolls the batch back out of its tree and its log:
    /// `len()`, `root()` and `issuance_since(0).serials` read as before,
    /// a snapshot published before the batch proves every serial (and a
    /// few absent ones) byte-identically, and the genuine batch then
    /// applies.
    #[test]
    fn rejected_batch_leaves_the_mirror_and_its_snapshot_intact(
        initial in prop::collection::vec(0u32..50_000, 1..300),
        batch in prop::collection::vec(0u32..50_000, 1..40),
        forged_at in any::<u8>(),
    ) {
        let (mut ca, mut mirror, _) = setup(&[initial]);
        let serials: Vec<SerialNumber> = batch.iter().map(|&v| SerialNumber::from_u24(v)).collect();
        let Some(genuine) = ca.insert(&serials, &mut StdRng::seed_from_u64(9), T0 + 100) else {
            return Ok(());
        };
        // One serial swapped for one nobody revoked: same signed root.
        let mut forged = genuine.clone();
        let at = forged_at as usize % forged.serials.len();
        forged.serials[at] = SerialNumber::from_u24(0x80_0000 + at as u32);

        let snapshot = mirror.snapshot();
        let (len, root) = (mirror.len(), *mirror.signed_root());
        let in_order = mirror.issuance_since(0).serials;
        let mut probes = in_order.clone();
        probes.extend(forged.serials.iter().chain(&genuine.serials).copied());
        probes.push(SerialNumber::from_u24(0));
        probes.push(SerialNumber::from_u24(0xff_ffff));
        let proofs: Vec<Vec<u8>> = probes.iter().map(|s| snapshot.proof(s).to_bytes()).collect();

        prop_assert_eq!(
            mirror.apply_issuance(&forged, T0 + 100),
            Err(UpdateError::RootMismatch)
        );
        prop_assert_eq!(mirror.len(), len);
        prop_assert_eq!(mirror.signed_root().root, root.root);
        prop_assert_eq!(mirror.issuance_since(0).serials, in_order.clone());
        // The mirror's own paths, hence its tree's root, are the old ones.
        for (s, proof) in probes.iter().zip(&proofs) {
            prop_assert_eq!(&snapshot.proof(s).to_bytes(), proof, "snapshot proof of {:?}", s);
            prop_assert_eq!(&mirror.proof(s).to_bytes(), proof, "mirror proof of {:?}", s);
        }

        mirror.apply_issuance(&genuine, T0 + 100).unwrap();
        let mut grown = in_order;
        grown.extend(&genuine.serials);
        prop_assert_eq!(mirror.issuance_since(0).serials, grown);
        for (s, proof) in probes.iter().zip(&proofs) {
            prop_assert_eq!(&snapshot.proof(s).to_bytes(), proof);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decoding attacker bytes never panics, and allocates no more than the
    /// input pays for: a leaf takes at least 4 encoded bytes, so its
    /// decoded entry may cost `size_of::<(u64, Leaf)>() / 4` bytes per
    /// input byte, and a 20-byte sibling no more than its encoding. Inputs
    /// are random, random behind the format byte, counts up to 2^64 behind
    /// it, and honest proofs cut short or extended.
    #[test]
    fn proof_decoding_is_total_and_bounded(
        mode in 0u8..4,
        count in any::<u64>(),
        tail in prop::collection::vec(any::<u8>(), 0..400),
        leaves in 0usize..200,
        query in 0u32..500,
        cut in any::<u16>(),
    ) {
        let input = match mode {
            0 => tail,
            1 => [&[PROOF_FORMAT][..], &tail].concat(),
            2 => {
                let mut w = Writer::new();
                w.u8(PROOF_FORMAT).varint(count % 3).bytes(&tail).varint(count);
                w.into_bytes()
            }
            _ => {
                let tree = tree_of(&(0..leaves as u32).map(|i| i * 2 + 1).collect::<Vec<_>>());
                let mut bytes = MultiProof::generate(&tree, &[SerialNumber::from_u24(query)])
                    .to_bytes();
                bytes.truncate(cut as usize % (bytes.len() + 1));
                bytes.extend_from_slice(&tail[..tail.len() % 24]);
                bytes
            }
        };
        let per_byte = std::mem::size_of::<(u64, Leaf)>().div_ceil(4);
        let (single, bytes) = allocated_by(|| RevocationProof::from_bytes(&input));
        prop_assert!(bytes <= per_byte * input.len(), "{} B for {} B", bytes, input.len());
        let (multi, bytes) = allocated_by(|| MultiProof::from_bytes(&input));
        prop_assert!(bytes <= per_byte * input.len(), "{} B for {} B", bytes, input.len());
        if multi.as_ref().is_ok_and(|m| !m.siblings.is_empty()) {
            prop_assert!(bytes > 0, "the allocator counts nothing");
        }
        // One codec: the single form is the multi form of at most two leaves.
        if let Ok(single) = single {
            prop_assert_eq!(single.to_bytes(), input.clone());
        }
        if let Ok(multi) = multi {
            prop_assert_eq!(multi.to_bytes(), input);
        }
    }

    /// Every single-byte change to an honest encoded proof is caught:
    /// `from_bytes` rejects it, or `verify` does for the same serial, root
    /// and size. Each byte is flipped by four masks.
    #[test]
    fn every_byte_flip_of_a_proof_is_rejected(
        serials in prop::collection::vec(0u32..2_000, 0..300),
        query in 0u32..2_100,
        mask in 1u8..=255,
    ) {
        let tree = tree_of(&serials);
        let (root, size) = (tree.root(), tree.len() as u64);
        let serial = SerialNumber::from_u24(query);
        let bytes = RevocationProof::generate(&tree, &serial).to_bytes();
        for pos in 0..bytes.len() {
            for m in [0x01, 0x80, 0xff, mask] {
                let mut flipped = bytes.clone();
                flipped[pos] ^= m;
                if let Ok(proof) = RevocationProof::from_bytes(&flipped) {
                    prop_assert!(
                        proof.verify(&serial, &root, size).is_err(),
                        "byte {} ^ {:#x} of {} still verifies", pos, m, bytes.len()
                    );
                }
            }
        }
    }

    /// Each integer has one encoding: padding any varint of an honest proof
    /// (a count, a leaf index or a revocation number) with an empty 7-bit
    /// group is rejected, while the unpadded re-encoding is the proof's own
    /// bytes.
    #[test]
    fn non_minimal_varints_are_rejected(
        serials in prop::collection::vec(0u32..100_000, 1..400),
        queries in prop::collection::vec(0u32..100_100, 1..4),
        field in any::<usize>(),
    ) {
        let tree = tree_of(&serials);
        let queries: Vec<SerialNumber> =
            queries.into_iter().map(SerialNumber::from_u24).collect();
        let proof = MultiProof::generate(&tree, &queries);
        let fields = 2 + 2 * proof.leaves.len();
        prop_assert_eq!(encode_padding(&proof, None), proof.to_bytes());
        let padded = encode_padding(&proof, Some(field % fields));
        prop_assert!(MultiProof::from_bytes(&padded).is_err());
        if queries.len() == 1 {
            let single = RevocationProof::generate(&tree, &queries[0]);
            prop_assert_eq!(single.to_bytes(), proof.to_bytes());
            prop_assert!(RevocationProof::from_bytes(&padded).is_err());
        }
    }

    /// The verdict of a decoded one-serial proof is set membership, for a
    /// serial below the first leaf, above the last, between two, present,
    /// and any serial of an empty dictionary, on 0, 1, 2^k and 2^k + 1
    /// leaves.
    #[test]
    fn proof_verdict_is_set_membership(
        k in 0u32..9,
        shape in 0usize..4,
        gaps in prop::collection::vec(2u32..9, 257..258),
        picks in prop::collection::vec(any::<usize>(), 3..4),
    ) {
        let n = [0, 1, 1 << k, (1 << k) + 1][shape];
        // Strictly ascending serials from 10 with gaps of at least 2, so
        // every adjacent pair has a serial strictly between.
        let serials: Vec<u32> = gaps[..n]
            .iter()
            .scan(10u32, |at, gap| {
                *at += gap;
                Some(*at)
            })
            .collect();
        let tree = tree_of(&serials);
        let (root, size) = (tree.root(), n as u64);
        let mut queries = vec![0, 5, u32::MAX >> 8];
        if let (Some(first), Some(last)) = (serials.first(), serials.last()) {
            let i = picks[0] % n;
            queries.extend([first - 1, last + 1, serials[i]]);
            if n > 1 {
                let j = picks[1] % (n - 1);
                queries.push(serials[j] + 1);
                queries.push(serials[j + 1] - 1);
            }
        }
        let model: BTreeSet<u32> = serials.iter().copied().collect();
        for q in queries {
            let serial = SerialNumber::from_u24(q);
            let bytes = RevocationProof::generate(&tree, &serial).to_bytes();
            let verdict = RevocationProof::from_bytes(&bytes)
                .expect("honest proof decodes")
                .verify(&serial, &root, size)
                .expect("honest proof verifies");
            prop_assert_eq!(verdict.is_revoked(), model.contains(&q), "n {} query {}", n, q);
        }
    }
}

/// The reference tree over `serials` (first occurrences, numbered in
/// order).
fn tree_of(serials: &[u32]) -> MerkleTree {
    let mut seen = BTreeSet::new();
    let unique: Vec<SerialNumber> = serials
        .iter()
        .filter(|&&s| seen.insert(s))
        .map(|&s| SerialNumber::from_u24(s))
        .collect();
    reference_tree(&unique)
}

/// `proof` in the documented grammar — format byte; leaf count; per leaf
/// index, serial and number; sibling count; siblings — with varint
/// `padded` (counted in that order) written one empty group longer than
/// it needs.
fn encode_padding(proof: &MultiProof, padded: Option<usize>) -> Vec<u8> {
    let mut out = vec![PROOF_FORMAT];
    let mut field = 0;
    let mut varint = |out: &mut Vec<u8>, v: u64| {
        let mut w = Writer::new();
        w.varint(v);
        let mut bytes = w.into_bytes();
        if padded == Some(field) {
            *bytes.last_mut().expect("a varint has a byte") |= 0x80;
            bytes.push(0);
        }
        field += 1;
        out.extend_from_slice(&bytes);
    };
    varint(&mut out, proof.leaves.len() as u64);
    for (index, leaf) in &proof.leaves {
        varint(&mut out, *index);
        out.push(leaf.serial.len() as u8);
        out.extend_from_slice(leaf.serial.as_bytes());
        varint(&mut out, leaf.number);
    }
    varint(&mut out, proof.siblings.len() as u64);
    for sibling in &proof.siblings {
        out.extend_from_slice(sibling.as_bytes());
    }
    out
}

/// Serials whose 4-byte prefixes tie: a shared `12 34 56 78` and a tail
/// of up to 3 edge bytes; 1–20 bytes under the first byte `12`; or
/// `[1, 2, 3]` padded with 0–17 zero bytes.
fn tie_serial() -> impl Strategy<Value = SerialNumber> {
    prop_oneof![
        prop::collection::vec(edge_byte(), 0..4)
            .prop_map(|tail| joined(&[0x12, 0x34, 0x56, 0x78], &tail)),
        prop::collection::vec(edge_byte(), 0..20).prop_map(|tail| joined(&[0x12], &tail)),
        prop::collection::vec(Just(0u8), 0..18).prop_map(|zeros| joined(&[1, 2, 3], &zeros)),
    ]
}

/// A byte biased toward the ones a padded-integer order could confuse:
/// `00` (what `SerialNumber` pads with), `01` and `ff`.
fn edge_byte() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0x00u8), Just(0x01u8), Just(0xffu8), any::<u8>()]
}

/// `prefix ‖ tail`, cut to 20 bytes; an empty result becomes `00`.
fn joined(prefix: &[u8], tail: &[u8]) -> SerialNumber {
    let mut bytes = [prefix, tail].concat();
    bytes.truncate(20);
    if bytes.is_empty() {
        bytes.push(0x00);
    }
    SerialNumber::new(&bytes).unwrap()
}

/// Mostly 1–3-byte serials over `00`, `01` and `ff` (39 in all, so batches
/// repeat serials and meet the tree's, and hold prefix pairs), now and then
/// a random 20-byte one.
fn colliding_serial() -> impl Strategy<Value = SerialNumber> {
    let short = || {
        prop::collection::vec(0usize..3, 1..=3usize).prop_map(|digits| {
            let bytes: Vec<u8> = digits.iter().map(|&d| [0x00, 0x01, 0xff][d]).collect();
            SerialNumber::new(&bytes).unwrap()
        })
    };
    prop_oneof![
        short(),
        short(),
        any::<[u8; 20]>().prop_map(|b| SerialNumber::new(&b).unwrap()),
    ]
}

/// `CaDictionary::insert`'s rule as the per-serial `HashSet` check wrote
/// it: the first occurrence of each serial not yet in `log`, in input order.
fn hashset_insert(log: &[SerialNumber], serials: &[SerialNumber]) -> Vec<SerialNumber> {
    let present: HashSet<&SerialNumber> = log.iter().collect();
    let mut in_batch = HashSet::new();
    serials
        .iter()
        .filter(|s| !present.contains(s) && in_batch.insert(**s))
        .copied()
        .collect()
}

/// The per-serial `HashSet` check of an update: does `serials` repeat a
/// serial or carry one already in `log`?
fn hashset_has_duplicate(log: &[SerialNumber], serials: &[SerialNumber]) -> bool {
    let present: HashSet<&SerialNumber> = log.iter().collect();
    let mut in_batch = HashSet::new();
    serials
        .iter()
        .any(|s| present.contains(s) || !in_batch.insert(*s))
}

/// The reference tree over `log`, numbered in log order.
fn reference_tree(log: &[SerialNumber]) -> MerkleTree {
    MerkleTree::from_leaves(log.iter().zip(1..).map(|(&s, n)| Leaf::new(s, n)))
}

/// The root by definition, independent of `SerialNumber`'s `Ord`: leaves
/// numbered in `log` order and sorted by their bytes, hashed, then paired
/// level by level with an odd node promoted.
fn reference_root(log: &[SerialNumber]) -> Digest20 {
    let mut leaves: Vec<Leaf> = log
        .iter()
        .zip(1u64..)
        .map(|(&s, n)| Leaf::new(s, n))
        .collect();
    leaves.sort_by(|a, b| a.serial.as_bytes().cmp(b.serial.as_bytes()));
    let mut level: Vec<Digest20> = leaves.iter().map(Leaf::hash).collect();
    if level.is_empty() {
        return empty_root();
    }
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [left, right] => node_hash(left, right),
                [odd] => *odd,
                _ => unreachable!("chunks(2)"),
            })
            .collect();
    }
    level[0]
}
