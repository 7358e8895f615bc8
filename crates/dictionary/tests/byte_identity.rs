//! Byte identity of everything the dictionary hashes.
//!
//! The leaf hash, the node hash and the hash chain are pinned to values
//! recorded at commit `c0e06c3`, when every digest came from the scalar
//! streaming SHA-256 and `Leaf::hash` built its preimage in a `Vec`. A
//! faster compression function, a one-block padding path or a stack
//! preimage may change how a digest is computed, never which digest: CAs,
//! RAs, clients, WALs and snapshots written by an older build must keep
//! agreeing with this one.
//!
//! The tree's shape is a versioned exception. The roots below were
//! recorded when the dictionary became a crit-bit trie (proof format 6);
//! over the same leaves the sorted positional tree (format 5) had
//! `13bb9ec3…` (build), `798f2cd8…` (batched) and `c6c3b238…` (edge). The
//! leaf and node hashes did not change with it. The inputs are generated by a PRNG
//! written out here, so they cannot drift with a vendored crate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_crypto::{Digest20, HashChain, SigningKey};
use ritm_dictionary::persistent::PersistentTree;
use ritm_dictionary::tree::{Leaf, MerkleTree, TreeReader};
use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};
use std::collections::BTreeSet;

const BUILD_ROOT: &str = "52457c8d0d85ac98b6e545b5874e71e40fbe2fa5";
const BATCHED_ROOT: &str = "df8105e38c0b1da32dcf257e0debb815c3ece9f7";
const CHAIN_ANCHOR: &str = "6362c6b413c32fd0e4b0703568cf78bea1571338";
/// Serials a zero-padded order could confuse, over the crit-bit trie.
const EDGE_ROOT: &str = "e11f9dfa0e1bac17e958ffa43e69d1606cc8eeda";

/// SplitMix64.
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// 10 000 three-byte serials in a seeded order; revocation numbers follow
/// that order, as they would had a CA revoked them one by one.
fn permuted_leaves() -> Vec<Leaf> {
    let mut rng = Seeded(2016);
    let mut values: Vec<u32> = (0..10_000).map(|i| i * 1_677).collect();
    for i in (1..values.len()).rev() {
        values.swap(i, rng.below(i as u64 + 1) as usize);
    }
    values
        .iter()
        .zip(1u64..)
        .map(|(&v, number)| Leaf::new(SerialNumber::from_u24(v), number))
        .collect()
}

/// 200 batches of 1–64 fresh serials of every length from 2 to 20 bytes,
/// each batch sorted as `apply_sorted_batch` requires.
fn seeded_batches(present: &mut BTreeSet<SerialNumber>) -> Vec<Vec<Leaf>> {
    let mut rng = Seeded(360);
    let mut number = present.len() as u64;
    (0..200)
        .map(|_| {
            let mut batch = BTreeSet::new();
            for _ in 0..1 + rng.below(64) {
                let mut bytes = [0u8; 20];
                for chunk in bytes.chunks_mut(8) {
                    let word = rng.next().to_be_bytes();
                    chunk.copy_from_slice(&word[..chunk.len()]);
                }
                let len = 2 + rng.below(19) as usize;
                let serial = SerialNumber::new(&bytes[..len]).unwrap();
                if present.insert(serial) {
                    batch.insert(serial);
                }
            }
            batch
                .into_iter()
                .map(|serial| {
                    number += 1;
                    Leaf::new(serial, number)
                })
                .collect()
        })
        .collect()
}

#[test]
fn roots_are_the_ones_recorded_before_the_hash_kernel_changed() {
    let leaves = permuted_leaves();
    let reference = MerkleTree::from_leaves(leaves.iter().copied());
    assert_eq!(reference.len(), 10_000);
    assert_eq!(reference.root().to_string(), BUILD_ROOT);

    let mut persistent = PersistentTree::from_sorted_leaves(reference.leaves().iter().copied());
    assert_eq!(persistent.root(), reference.root());

    let mut present: BTreeSet<SerialNumber> = leaves.iter().map(|l| l.serial).collect();
    let batches = seeded_batches(&mut present);
    assert!(batches.iter().all(|b| !b.is_empty()));
    for batch in &batches {
        persistent.apply_sorted_batch(batch);
    }
    assert_eq!(persistent.len(), present.len());
    assert_eq!(persistent.root().to_string(), BATCHED_ROOT);

    // Nothing incremental left to hide behind: a from-scratch build of the
    // final leaf set lands on the same recorded root.
    let logged = persistent.log().range(0, persistent.len());
    let rebuilt =
        MerkleTree::from_leaves(logged.into_iter().zip(1..).map(|(s, n)| Leaf::new(s, n)));
    assert_eq!(rebuilt.root().to_string(), BATCHED_ROOT);
}

/// Serials that differ only by a trailing `00`, by being a prefix, or at
/// the last of 20 bytes — the pairs an order over the zero-padded bytes
/// could get wrong — listed in revocation order, which is not sorted.
const EDGE_SERIALS: [&[u8]; 8] = [
    &[0x01, 0x00],
    &[0xff; 20],
    &[0x00, 0x00],
    &[0x01, 0xff],
    &[0x02],
    &[0x01],
    &[0x01, 0x00, 0x00],
    &[0x00],
];

#[test]
fn edge_serials_sort_and_hash_as_recorded_before_the_serial_order_changed() {
    let serials: Vec<SerialNumber> = EDGE_SERIALS
        .iter()
        .map(|b| SerialNumber::new(b).unwrap())
        .collect();
    let reference =
        MerkleTree::from_leaves(serials.iter().zip(1u64..).map(|(&s, n)| Leaf::new(s, n)));
    let sorted: Vec<&[u8]> = reference
        .leaves()
        .iter()
        .map(|l| l.serial.as_bytes())
        .collect();
    let expected: [&[u8]; 8] = [
        &[0x00],
        &[0x00, 0x00],
        &[0x01],
        &[0x01, 0x00],
        &[0x01, 0x00, 0x00],
        &[0x01, 0xff],
        &[0x02],
        &[0xff; 20],
    ];
    assert_eq!(sorted, expected);
    assert_eq!(reference.root().to_string(), EDGE_ROOT);

    // The dictionaries sort their own batches: the CA's insert, the
    // mirror's update and a restore from the issuance order all land on
    // the recorded root.
    let mut rng = StdRng::seed_from_u64(7);
    let key = SigningKey::from_seed([3; 32]);
    let ca_id = CaId::from_name("EdgeCA");
    let mut ca = CaDictionary::new(ca_id, key, 10, 16, &mut rng, 1_000);
    let mut mirror = MirrorDictionary::new(ca_id, ca.verifying_key(), *ca.signed_root()).unwrap();
    let issuance = ca.insert(&serials, &mut rng, 1_001).unwrap();
    assert_eq!(issuance.serials, serials);
    assert_eq!(issuance.signed_root.root.to_string(), EDGE_ROOT);
    mirror.apply_issuance(&issuance, 1_001).unwrap();
    assert_eq!(mirror.signed_root().root.to_string(), EDGE_ROOT);
    let restored = MirrorDictionary::restore(
        ca.verifying_key(),
        10,
        &mirror.issuance_since(0).serials,
        issuance.signed_root,
    )
    .unwrap();
    assert_eq!(restored.signed_root().root.to_string(), EDGE_ROOT);
}

#[test]
fn chain_anchor_is_the_one_recorded_before_the_hash_kernel_changed() {
    let chain = HashChain::from_seed([7; 20], 360);
    assert_eq!(chain.anchor().to_string(), CHAIN_ANCHOR);
}

#[test]
fn leaf_hash_is_the_digest_of_the_documented_preimage() {
    for len in 1..=20u8 {
        let bytes: Vec<u8> = (0..len).map(|i| i.wrapping_mul(29) ^ len).collect();
        let leaf = Leaf::new(
            SerialNumber::new(&bytes).unwrap(),
            0x0102_0304_0506_0708 * u64::from(len),
        );
        let mut preimage = vec![0x00, len];
        preimage.extend_from_slice(&bytes);
        preimage.extend_from_slice(&leaf.number.to_be_bytes());
        assert_eq!(
            leaf.hash(),
            Digest20::hash(&preimage),
            "serial of {len} bytes"
        );
    }
}
