//! The structurally-shared (persistent) crit-bit trie: the one tree both
//! dictionaries write through.
//!
//! [`PersistentTree`]'s shape depends only on its set of serials
//! ([`crate::tree`]). A batch inserts each serial structurally (one new
//! node where its key leaves the trie), then rehashes every node on their
//! paths once, bottom-up: O(b·log n). A bulk load into an empty tree builds
//! the trie from the sorted serials in one stack pass, hashing each node
//! once.
//!
//! A child reference to a leaf is its revocation number into the tree's
//! [`SerialLog`], the one copy of each serial; leaf hashes are recomputed
//! from it. A node keeps its digest only above [`SMALL`] leaves (about a
//! quarter of the nodes); the rest are hashed on demand. Small (9-byte) and
//! big (29-byte) nodes live in separate arenas; a small node that outgrows
//! [`SMALL`] moves to the big one and its slot is reused.
//!
//! The arenas and the log are copy-on-write [`ChunkedVec`]s: cloning the
//! tree (a mirror's snapshot, and its verify-then-commit batch) costs
//! O(chunks) `Arc` bumps, and a batch after a clone copies each arena chunk
//! holding a node on its paths once. The CA never clones its tree.

use crate::chunk::ChunkedVec;
use crate::issuance_log::SerialLog;
use crate::tree::{node_hash, Leaf, TreeReader};
use ritm_crypto::digest::Digest20;

/// The most leaves under a node whose digest is not stored.
pub const SMALL: usize = 4;

/// Nodes per arena chunk, what a batch copies per node on its paths once a
/// snapshot shares the arena (1024 cost a storm's mirror a third more).
pub const NODE_CHUNK: usize = 256;

/// Tag of a reference to a leaf; the low 31 bits are its revocation number
/// minus one.
const LEAF: u32 = 1 << 31;
/// Tag of a reference to a big node; the low 30 bits are its index.
const BIG: u32 = 1 << 30;

/// A node reference: a leaf, or a node of the small or the big arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ref(u32);

/// What a [`Ref`] points at, with its index.
enum Kind {
    Leaf(usize),
    Small(usize),
    Big(usize),
}

impl Ref {
    fn kind(self) -> Kind {
        if self.0 & LEAF != 0 {
            Kind::Leaf((self.0 & !LEAF) as usize)
        } else if self.0 & BIG != 0 {
            Kind::Big((self.0 & !BIG) as usize)
        } else {
            Kind::Small(self.0 as usize)
        }
    }

    fn node(index: usize, tag: u32) -> Ref {
        assert!(
            index < BIG as usize,
            "a trie arena holds at most 2^30 nodes"
        );
        Ref(index as u32 | tag)
    }
}

/// An internal node: the key bit it splits at and its children, packed
/// into 9 bytes.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed)]
struct Inner {
    children: [Ref; 2],
    crit: u8,
}

/// An internal node over more than [`SMALL`] leaves, with its digest: 29
/// bytes.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed)]
struct BigNode {
    inner: Inner,
    digest: Digest20,
}

/// A subtree built bottom-up by the bulk load.
#[derive(Clone, Copy)]
struct Built {
    at: Ref,
    size: usize,
    digest: Digest20,
}

/// A crit-bit trie over dictionary leaves with `Arc`-chunked,
/// copy-on-write storage. Cheap to clone; clones share every untouched
/// chunk with their ancestor.
///
/// Every mutating operation leaves the tree proof-ready, so there is no
/// `rebuild()` step and the root never panics.
///
/// Leaf numbers are revocation numbers: a tree of `n` leaves carries the
/// numbers `1..=n`, and every batch continues them (see
/// [`PersistentTree::apply_sorted_batch`]).
#[derive(Debug, Clone, Default)]
pub struct PersistentTree {
    top: Option<Ref>,
    /// Nodes over at most [`SMALL`] leaves.
    small: ChunkedVec<Inner, NODE_CHUNK>,
    /// Nodes over more, with their digests.
    big: ChunkedVec<BigNode, NODE_CHUNK>,
    /// Small slots a promotion to the big arena left free.
    free: Vec<usize>,
    /// Every leaf's serial, by revocation number.
    log: SerialLog,
    /// Monotonic content version, bumped by every batch.
    epoch: u64,
}

impl PersistentTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        PersistentTree::default()
    }

    /// Builds a tree from leaves sorted by serial and numbered `1..=n` in
    /// any order.
    ///
    /// # Panics
    ///
    /// As [`PersistentTree::apply_sorted_batch`].
    pub fn from_sorted_leaves(leaves: impl IntoIterator<Item = Leaf>) -> Self {
        let mut tree = PersistentTree::new();
        tree.apply_sorted_batch(&leaves.into_iter().collect::<Vec<_>>());
        tree
    }

    /// Monotonic content version: bumped by every call that changes the
    /// leaves, so proofs generated at one epoch remain valid exactly while
    /// `epoch()` is unchanged.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The serials by revocation number — the one serial store, which
    /// snapshots share and catch-up pages read.
    pub fn log(&self) -> &SerialLog {
        &self.log
    }

    /// Inserts a batch of new leaves: each structurally, then one rehash of
    /// the nodes on their paths, each once. Into an empty tree it is a bulk
    /// load that hashes every node once.
    ///
    /// # Panics
    ///
    /// Panics, leaving the tree unchanged, unless the batch is strictly
    /// sorted by serial and its numbers are exactly `len() + 1 ..= len() +
    /// batch.len()` (in any order); and panics when a serial is already
    /// present. Both dictionaries' batch checks guarantee all three.
    pub fn apply_sorted_batch(&mut self, batch: &[Leaf]) {
        assert!(
            batch.windows(2).all(|w| w[0].serial < w[1].serial),
            "a batch is strictly sorted by serial"
        );
        self.log.append_numbered(batch);
        match self.top {
            _ if batch.is_empty() => return,
            None => self.build(batch),
            Some(_) => {
                let mut path = Vec::new();
                for leaf in batch {
                    self.insert(leaf, &mut path);
                }
                self.rehash(self.top.expect("non-empty"), batch);
            }
        }
        self.epoch += 1;
    }

    /// Builds the trie over `leaves` (sorted, into an empty tree): the
    /// trie over sorted keys splits at the smallest crit bit of adjacent
    /// keys, so one pass keeps the open right spine on a stack and closes
    /// a node as soon as a smaller crit bit arrives.
    fn build(&mut self, leaves: &[Leaf]) {
        let built = |leaf: &Leaf| Built {
            at: Ref(LEAF | (leaf.number as u32 - 1)),
            size: 1,
            digest: leaf.hash(),
        };
        let mut spine: Vec<(u8, Built)> = Vec::new();
        let mut last = built(&leaves[0]);
        for pair in leaves.windows(2) {
            let crit = pair[0].serial.crit_bit(&pair[1].serial) as u8;
            while let Some(&(c, left)) = spine.last().filter(|(c, _)| *c > crit) {
                spine.pop();
                last = self.join(c, left, last);
            }
            spine.push((crit, last));
            last = built(&pair[1]);
        }
        while let Some((c, left)) = spine.pop() {
            last = self.join(c, left, last);
        }
        self.top = Some(last.at);
    }

    /// Stores the node splitting at `crit` over two built subtrees.
    fn join(&mut self, crit: u8, left: Built, right: Built) -> Built {
        let inner = Inner {
            children: [left.at, right.at],
            crit,
        };
        let (size, digest) = (
            left.size + right.size,
            node_hash(&left.digest, &right.digest),
        );
        let at = if size > SMALL {
            self.push_big(inner, digest)
        } else {
            self.push_small(inner)
        };
        Built { at, size, digest }
    }

    /// Inserts `leaf` (already in the log) structurally: a new node where
    /// its key first leaves the trie, and every small ancestor that now
    /// holds more than [`SMALL`] leaves moved to the big arena. `path` is
    /// scratch for the ancestors. Digests on the path are left stale for
    /// [`PersistentTree::rehash`].
    fn insert(&mut self, leaf: &Leaf, path: &mut Vec<(Ref, bool)>) {
        let new = Ref(LEAF | (leaf.number as u32 - 1));
        let serial = &leaf.serial;
        let (closest, _) = self
            .descend(|crit| serial.key_bit(crit))
            .expect("a non-empty tree");
        let other = self.leaf(closest).serial;
        assert_ne!(other, *serial, "serial already in the tree");
        let crit = serial.crit_bit(&other);
        path.clear();
        let mut at = self.top.expect("a non-empty tree");
        while let Some(node) = self.inner(at).filter(|n| usize::from(n.crit) < crit) {
            let right = serial.key_bit(node.crit.into());
            path.push((at, right));
            at = node.children[usize::from(right)];
        }
        let mut children = [at; 2];
        children[usize::from(serial.key_bit(crit))] = new;
        let inner = Inner {
            children,
            crit: crit as u8,
        };
        let mut child = if self.size(at) + 1 > SMALL {
            self.push_big(inner, Digest20::ZERO)
        } else {
            self.push_small(inner)
        };
        // Hang the new node where `at` hung. Big ancestors stay put; a
        // small one is rewritten where its child moved, and moves itself
        // once it outgrows SMALL.
        let mut moved = true;
        while let Some((parent, right)) = path.pop() {
            if moved {
                self.inner_mut(parent).children[usize::from(right)] = child;
            }
            let Kind::Small(i) = parent.kind() else {
                return;
            };
            moved = self.size(parent) > SMALL;
            if !moved {
                return;
            }
            self.free.push(i);
            child = self.push_big(*self.small.get(i), Digest20::ZERO);
        }
        self.top = Some(child);
    }

    /// Rehashes the nodes on the paths of `batch` (sorted, all inside the
    /// subtree at `at`) once each, bottom-up, storing big nodes' digests;
    /// returns `at`'s digest.
    fn rehash(&mut self, at: Ref, batch: &[Leaf]) -> Digest20 {
        if batch.is_empty() {
            return self.digest(at);
        }
        let Some(node) = self.inner(at) else {
            // A leaf with a batch key under it is that key's own new leaf.
            return batch[0].hash();
        };
        let mid = batch.partition_point(|l| !l.serial.key_bit(node.crit.into()));
        let left = self.rehash(node.children[0], &batch[..mid]);
        let digest = node_hash(&left, &self.rehash(node.children[1], &batch[mid..]));
        if let Kind::Big(i) = at.kind() {
            self.big.get_mut(i).digest = digest;
        }
        digest
    }

    /// Leaves under `at`, counted up to `SMALL + 1`: a big node counts as
    /// that.
    fn size(&self, at: Ref) -> usize {
        match at.kind() {
            Kind::Leaf(_) => 1,
            Kind::Small(i) => self
                .small
                .get(i)
                .children
                .map(|c| self.size(c))
                .iter()
                .sum(),
            Kind::Big(_) => SMALL + 1,
        }
    }

    fn push_small(&mut self, inner: Inner) -> Ref {
        let i = match self.free.pop() {
            Some(i) => {
                *self.small.get_mut(i) = inner;
                i
            }
            None => self.small.push(inner),
        };
        Ref::node(i, 0)
    }

    fn push_big(&mut self, inner: Inner, digest: Digest20) -> Ref {
        Ref::node(self.big.push(BigNode { inner, digest }), BIG)
    }

    fn inner(&self, at: Ref) -> Option<Inner> {
        match at.kind() {
            Kind::Leaf(_) => None,
            Kind::Small(i) => Some(*self.small.get(i)),
            Kind::Big(i) => Some(self.big.get(i).inner),
        }
    }

    fn inner_mut(&mut self, at: Ref) -> &mut Inner {
        match at.kind() {
            Kind::Leaf(_) => unreachable!("a leaf has no children"),
            Kind::Small(i) => self.small.get_mut(i),
            Kind::Big(i) => &mut self.big.get_mut(i).inner,
        }
    }

    /// Chunks (across both node arenas) this tree shares with `other` —
    /// what a published snapshot keeps alive for free. The log's are
    /// counted by [`SerialLog::shared_chunks_with`].
    pub fn shared_chunks_with(&self, other: &Self) -> usize {
        self.small.shared_chunks_with(&other.small) + self.big.shared_chunks_with(&other.big)
    }

    /// Total chunks across both node arenas.
    pub fn chunk_count(&self) -> usize {
        self.small.chunk_count() + self.big.chunk_count()
    }

    /// Approximate reachable heap bytes (shared chunks counted in full) —
    /// the §VII-D memory metric.
    pub fn memory_bytes(&self) -> usize {
        self.small.heap_bytes()
            + self.big.heap_bytes()
            + self.free.capacity() * core::mem::size_of::<usize>()
            + self.log.heap_bytes()
    }

    /// Bytes to persist just the revocation data (serial bytes plus an
    /// 8-byte revocation number per entry) — the paper's "storage" metric.
    pub fn storage_bytes(&self) -> usize {
        (0..self.len()).map(|i| self.log.get(i).len() + 8).sum()
    }
}

impl TreeReader for PersistentTree {
    type Node = Ref;

    fn len(&self) -> usize {
        self.log.len()
    }

    fn top(&self) -> Option<Ref> {
        self.top
    }

    fn split(&self, at: Ref) -> Option<(usize, [Ref; 2])> {
        self.inner(at).map(|n| (n.crit.into(), n.children))
    }

    fn leaf(&self, at: Ref) -> Leaf {
        let Kind::Leaf(i) = at.kind() else {
            panic!("not a leaf")
        };
        Leaf::new(self.log.get(i), i as u64 + 1)
    }

    fn digest(&self, at: Ref) -> Digest20 {
        match at.kind() {
            Kind::Leaf(_) => self.leaf(at).hash(),
            Kind::Small(i) => {
                let [left, right] = self.small.get(i).children;
                node_hash(&self.digest(left), &self.digest(right))
            }
            Kind::Big(i) => self.big.get(i).digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{slots_materialized, CHUNK};
    use crate::proof::MultiProof;
    use crate::serial::SerialNumber;
    use crate::tree::tests::in_order;
    use crate::tree::{leaf_hash_calls, node_hash_calls, MerkleTree};
    use std::collections::BTreeSet;

    fn leaves(serials: impl IntoIterator<Item = u32>) -> Vec<Leaf> {
        let mut out: Vec<Leaf> = serials
            .into_iter()
            .enumerate()
            .map(|(i, s)| Leaf::new(SerialNumber::from_u24(s), i as u64 + 1))
            .collect();
        out.sort_by_key(|l| l.serial);
        out
    }

    /// `batch` renumbered to continue a tree of `len` leaves.
    fn numbered_from(len: usize, batch: Vec<Leaf>) -> Vec<Leaf> {
        (batch.into_iter().zip(len as u64 + 1..))
            .map(|(l, n)| Leaf::new(l.serial, n))
            .collect()
    }

    /// The reference over `t`'s leaves, read from its log.
    fn reference_of(t: &PersistentTree) -> MerkleTree {
        let logged = t.log().range(0, t.len()).into_iter().zip(1..);
        MerkleTree::from_leaves(logged.map(|(s, n)| Leaf::new(s, n)))
    }

    /// Leaves, root and the proof bytes for `queries` equal the reference's.
    fn assert_matches(t: &PersistentTree, reference: &MerkleTree, queries: &[SerialNumber]) {
        assert_eq!(in_order(t, t.top()), reference.leaves(), "leaves");
        assert_eq!(t.root(), reference.root());
        assert_eq!(t.len(), reference.len());
        for q in queries {
            assert_eq!(
                MultiProof::generate(t, &[*q]).to_bytes(),
                MultiProof::generate(reference, &[*q]).to_bytes(),
                "proof of {q}"
            );
        }
        assert_eq!(
            MultiProof::generate(t, queries).to_bytes(),
            MultiProof::generate(reference, queries).to_bytes()
        );
    }

    /// Every leaf's serial, and the serial one above each.
    fn probes(t: &MerkleTree) -> Vec<SerialNumber> {
        let mut out: Vec<SerialNumber> = t.leaves().iter().map(|l| l.serial).collect();
        out.extend(t.leaves().iter().map(|l| {
            let mut bytes = l.serial.as_bytes().to_vec();
            bytes.push(0);
            SerialNumber::new(&bytes[..bytes.len().min(20)]).unwrap()
        }));
        out.push(SerialNumber::from_u24(0));
        out
    }

    #[test]
    fn matches_dense_for_all_small_sizes() {
        for n in 0..=33u32 {
            let batch = leaves((0..n).map(|i| i * 3 + 1));
            let mut p = PersistentTree::new();
            p.apply_sorted_batch(&batch);
            let d = MerkleTree::from_leaves(batch.iter().copied());
            assert_matches(&p, &d, &probes(&d));
            // The same leaves one at a time, through the incremental path.
            let mut q = PersistentTree::new();
            for leaf in leaves((0..n).map(|i| i * 3 + 1)).iter().rev() {
                let renumbered = Leaf::new(leaf.serial, q.len() as u64 + 1);
                q.apply_sorted_batch(&[renumbered]);
            }
            let serials = |leaves: &[Leaf]| leaves.iter().map(|l| l.serial).collect::<Vec<_>>();
            assert_eq!(serials(&in_order(&q, q.top())), serials(&batch));
            assert_eq!(q.root(), reference_of(&q).root(), "n = {n}");
        }
    }

    #[test]
    fn append_and_merge_batches_match_dense() {
        let mut p = PersistentTree::new();
        let first = leaves((0..CHUNK as u32 + 100).map(|i| i * 4 + 2));
        p.apply_sorted_batch(&first);
        // A merge batch landing in the middle, then a pure append.
        let mid = numbered_from(first.len(), leaves((0..50u32).map(|i| i * 8 + 3)));
        p.apply_sorted_batch(&mid);
        let tail = numbered_from(p.len(), leaves((0..70u32).map(|i| 0x400000 + i)));
        p.apply_sorted_batch(&tail);
        let d = MerkleTree::from_leaves(first.iter().chain(&mid).chain(&tail).copied());
        assert_matches(&p, &d, &probes(&d));
        assert_eq!(p.epoch(), 3, "one bump per applied batch");
    }

    #[test]
    fn prefix_ties_match_dense() {
        // Serials that tie on long prefixes: 1–20 bytes of `12 34 56 78`
        // then `00`/`ff`, `[1,2,3]` with 0–2 trailing zeros, and 1–20 bytes
        // of `ff`. Two batches, each numbered on from the tree's length.
        let mut serials: Vec<SerialNumber> = Vec::new();
        for len in 1..=20 {
            let mut bytes = vec![0x12, 0x34, 0x56, 0x78];
            bytes.resize(len.max(4), if len % 2 == 0 { 0x00 } else { 0xff });
            bytes.truncate(len);
            serials.push(SerialNumber::new(&bytes).unwrap());
            serials.push(SerialNumber::new(&vec![0xff; len]).unwrap());
        }
        for zeros in [&[][..], &[0], &[0, 0]] {
            serials.push(SerialNumber::new(&[&[1, 2, 3][..], zeros].concat()).unwrap());
        }
        serials.sort();
        serials.dedup();
        let numbered: Vec<Leaf> = serials
            .iter()
            .zip(1..)
            .map(|(&s, n)| Leaf::new(s, n))
            .collect();
        let (odd, even): (Vec<Leaf>, Vec<Leaf>) =
            numbered.iter().partition(|l| l.serial.len() % 2 == 1);
        let mut t = PersistentTree::new();
        t.apply_sorted_batch(&numbered_from(0, odd.clone()));
        t.apply_sorted_batch(&numbered_from(odd.len(), even));
        let reference = reference_of(&t);
        assert_eq!(
            reference
                .leaves()
                .iter()
                .map(|l| l.serial)
                .collect::<Vec<_>>(),
            serials
        );
        let absent = [
            SerialNumber::new(&[0x12, 0x34, 0x57]).unwrap(),
            SerialNumber::new(&[0x12, 0x34, 0x56, 0x78, 0x01]).unwrap(),
            SerialNumber::new(&[1, 2, 3, 0, 0, 0]).unwrap(),
            SerialNumber::new(&[1, 2, 2, 0xff]).unwrap(),
            SerialNumber::new(&[0]).unwrap(),
        ];
        for s in &serials {
            assert_eq!(t.find(s).map(|l| l.serial), Some(*s), "find {s:?}");
        }
        for s in &absent {
            assert_eq!(t.find(s), None, "find {s:?}");
        }
        let queries: Vec<SerialNumber> = serials.iter().chain(&absent).copied().collect();
        assert_matches(&t, &reference, &queries);
    }

    #[test]
    #[should_panic(expected = "batch numbers must be exactly 5..=6")]
    fn a_batch_that_skips_a_number_panics() {
        let mut t = PersistentTree::from_sorted_leaves(leaves([1, 2, 3, 4]));
        t.apply_sorted_batch(&[
            Leaf::new(SerialNumber::from_u24(8), 5),
            Leaf::new(SerialNumber::from_u24(9), 7),
        ]);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn an_unsorted_batch_panics() {
        let mut t = PersistentTree::from_sorted_leaves(leaves([1, 2, 3, 4]));
        t.apply_sorted_batch(&[
            Leaf::new(SerialNumber::from_u24(9), 5),
            Leaf::new(SerialNumber::from_u24(8), 6),
        ]);
    }

    #[test]
    #[should_panic(expected = "serial already in the tree")]
    fn a_serial_already_present_panics() {
        let mut t = PersistentTree::from_sorted_leaves(leaves([1, 2, 3, 4]));
        t.apply_sorted_batch(&[Leaf::new(SerialNumber::from_u24(3), 5)]);
    }

    #[test]
    fn rebuild_matches_incremental_across_chunk_boundaries() {
        // 4 609 leaves: both arenas span several chunks. A bulk build, the
        // same leaves inserted after a first one, and the reference must
        // land on the same tree.
        let n = 4_609u32;
        let first: Vec<Leaf> = (0..n)
            .map(|i| Leaf::new(SerialNumber::from_u24(i * 2), i as u64 + 1))
            .collect();
        let rebuilt = PersistentTree::from_sorted_leaves(first.iter().copied());
        let mut incremental = PersistentTree::from_sorted_leaves(first[..1].iter().copied());
        incremental.apply_sorted_batch(&first[1..]);
        let reference = MerkleTree::from_leaves(first.iter().copied());
        let queries: Vec<SerialNumber> = [0u32, 1, 4095, 4096, 2 * n - 2, 2 * n]
            .map(SerialNumber::from_u24)
            .to_vec();
        assert_matches(&rebuilt, &reference, &queries);
        assert_matches(&incremental, &reference, &queries);

        // A second large batch interleaved with the first.
        let batch: Vec<Leaf> = (0..4_107u32)
            .map(|i| Leaf::new(SerialNumber::from_u24(i * 2 + 1), (n + i) as u64 + 1))
            .collect();
        incremental.apply_sorted_batch(&batch);
        let reference = MerkleTree::from_leaves(first.iter().chain(&batch).copied());
        assert_matches(&incremental, &reference, &queries);
    }

    #[test]
    fn rebuild_counts_every_leaf_hash_on_the_calling_thread() {
        // `leaf_hash_calls` is per thread, so it counts every hash only if
        // the bulk build never hands leaves to another thread; and the bulk
        // build hashes every leaf and every node exactly once.
        let all = leaves(0..10_000u32);
        let (leaves_before, nodes_before) = (leaf_hash_calls(), node_hash_calls());
        let t = PersistentTree::from_sorted_leaves(all);
        assert_eq!(leaf_hash_calls() - leaves_before, 10_000);
        assert_eq!(node_hash_calls() - nodes_before, 9_999);
        assert_eq!(t.len(), 10_000);
    }

    #[test]
    fn apply_sorted_batch_counts_every_leaf_hash_on_the_calling_thread() {
        // Each new leaf once, and the one old leaf beside them, whose hash
        // no node stores.
        let mut t = PersistentTree::from_sorted_leaves(leaves([1]));
        let batch: Vec<Leaf> = (0..5_000u32)
            .map(|i| Leaf::new(SerialNumber::from_u24(i + 2), i as u64 + 2))
            .collect();
        let before = leaf_hash_calls();
        t.apply_sorted_batch(&batch);
        assert_eq!(leaf_hash_calls() - before, 5_001);
    }

    /// The internal nodes of `t` on the walks of `serials`, each once.
    fn nodes_on_paths(t: &PersistentTree, serials: &[SerialNumber]) -> BTreeSet<(bool, usize)> {
        let mut nodes = BTreeSet::new();
        for s in serials {
            let mut at = t.top.expect("non-empty");
            while let Some(node) = t.inner(at) {
                nodes.insert(match at.kind() {
                    Kind::Big(i) => (true, i),
                    Kind::Small(i) => (false, i),
                    Kind::Leaf(_) => unreachable!(),
                });
                at = node.children[usize::from(s.key_bit(node.crit.into()))];
            }
        }
        nodes
    }

    #[test]
    fn batches_rehash_each_dirty_node_once() {
        // A batch hashes each node on its serials' paths once, plus at most
        // SMALL − 1 nodes of a clean small subtree beside each: O(b·log n),
        // whatever the dictionary's size or where the serials land.
        for n in [CHUNK - 1, 3 * CHUNK + 1, 20 * CHUNK] {
            let scatter =
                |i: usize| SerialNumber::from_u64((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut base: Vec<Leaf> = (0..n)
                .map(|i| Leaf::new(scatter(i), i as u64 + 1))
                .collect();
            base.sort_by_key(|l| l.serial);
            let base = PersistentTree::from_sorted_leaves(base);
            for b in [1, 4, 100] {
                let mut batch: Vec<Leaf> = (n..n + b)
                    .map(|i| Leaf::new(scatter(i), i as u64 + 1))
                    .collect();
                batch.sort_by_key(|l| l.serial);
                let mut t = base.clone();
                let before = node_hash_calls();
                t.apply_sorted_batch(&batch);
                let spent = node_hash_calls() - before;
                let serials: Vec<SerialNumber> = batch.iter().map(|l| l.serial).collect();
                let dirty = nodes_on_paths(&t, &serials).len() as u64;
                assert!(spent >= dirty, "{b} into {n}: {spent} < {dirty}");
                assert!(
                    spent <= SMALL as u64 * dirty,
                    "{b} into {n}: {spent} > {SMALL}·{dirty}"
                );
                assert!(
                    dirty <= b as u64 * 40,
                    "{b} into {n}: {dirty} nodes on the paths"
                );
                assert_eq!(t.root(), reference_of(&t).root());
            }
        }
    }

    #[test]
    fn storage_accounting() {
        let t = PersistentTree::from_sorted_leaves(leaves([1, 2, 3, 4]));
        // 4 leaves × (3-byte serial + 8-byte number)
        assert_eq!(t.storage_bytes(), 4 * 11);
        assert!(t.memory_bytes() > t.storage_bytes());
    }

    #[test]
    fn clone_is_structural_sharing_not_copy() {
        let base = leaves((0..(4 * CHUNK) as u32).map(|i| i * 2));
        let mut p = PersistentTree::new();
        p.apply_sorted_batch(&base);
        let before = slots_materialized();
        let snap = p.clone();
        assert_eq!(
            slots_materialized(),
            before,
            "publish (clone) must materialize zero slots"
        );
        assert_eq!(snap.shared_chunks_with(&p), p.chunk_count());

        // Mutating the original must not disturb the clone.
        let tail = numbered_from(4 * CHUNK, leaves((0..10u32).map(|i| 0x700000 + i)));
        let root_snap = snap.root();
        p.apply_sorted_batch(&tail);
        assert_ne!(p.root(), root_snap);
        assert_eq!(snap.root(), root_snap, "retained snapshot unchanged");
        assert_eq!(snap.len(), 4 * CHUNK);
        assert_eq!(snap.root(), reference_of(&snap).root());
    }

    #[test]
    fn publish_after_batch_materializes_the_batch_in_the_log() {
        // The log is shared with every published snapshot: a batch after a
        // publish writes its own entries plus at most one copied tail
        // chunk per log sequence (bytes and offsets), a republish writes
        // nothing, and the first snapshot keeps reading every entry it had.
        let n = 16 * CHUNK;
        let b = 100usize;
        let mut p = PersistentTree::from_sorted_leaves(leaves((0..n as u32).map(|i| i * 2)));
        let published = p.clone();
        assert_eq!(published.log().shared_chunks_with(p.log()), 4 * 16 + 16);
        let batch: Vec<Leaf> = (0..b as u32)
            .map(|i| Leaf::new(SerialNumber::from_u24(1 + 2 * i), (n + 1) as u64 + i as u64))
            .collect();

        let mut log = p.log().clone();
        let before = slots_materialized();
        log.append_numbered(&batch);
        let written = (slots_materialized() - before) as usize;
        // 4 bytes and one offset per 3-byte serial.
        assert!(written <= 5 * b + 2 * CHUNK, "{written} log slots");

        p.apply_sorted_batch(&batch);
        let before = slots_materialized();
        let republished = p.clone();
        assert_eq!(slots_materialized() - before, 0);

        assert_eq!(published.log().len(), n);
        assert_eq!(published.root(), reference_of(&published).root());
        assert_eq!(published.log().range(0, n), republished.log().range(0, n));
        assert_eq!(republished.log().len(), n + b);
        assert_eq!(republished.log().range(n, n + b), serials_by_number(&batch));
    }

    /// The serials of `batch` in revocation-number order.
    fn serials_by_number(batch: &[Leaf]) -> Vec<SerialNumber> {
        let mut by_number = batch.to_vec();
        by_number.sort_by_key(|l| l.number);
        by_number.iter().map(|l| l.serial).collect()
    }

    #[test]
    fn publish_after_batch_allocates_batch_not_dictionary() {
        // After publishing (clone), a b-leaf batch into an n-leaf tree
        // materializes its new nodes, one copy of each node chunk holding a
        // node on its paths, and its log entries — never the dictionary.
        let n = 64 * CHUNK;
        let scatter =
            |i: usize| SerialNumber::from_u64((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut base: Vec<Leaf> = (0..n)
            .map(|i| Leaf::new(scatter(i), i as u64 + 1))
            .collect();
        base.sort_by_key(|l| l.serial);
        let mut p = PersistentTree::from_sorted_leaves(base);
        for b in [1usize, 4, 100] {
            let published = p.clone(); // everything shared: worst case for CoW
            let mut batch: Vec<Leaf> = (0..b)
                .map(|i| Leaf::new(scatter(p.len() + i), (p.len() + i) as u64 + 1))
                .collect();
            batch.sort_by_key(|l| l.serial);
            let serials: Vec<SerialNumber> = batch.iter().map(|l| l.serial).collect();
            let chunks: BTreeSet<(bool, usize)> = nodes_on_paths(&p, &serials)
                .into_iter()
                .map(|(big, i)| (big, i / NODE_CHUNK))
                .collect();
            let before = slots_materialized();
            p.apply_sorted_batch(&batch);
            let applied = (slots_materialized() - before) as usize;
            // New nodes: one per leaf plus the small ones promoted; the log
            // as above.
            let bound = chunks.len() * NODE_CHUNK + (SMALL + 1) * b + 5 * b + 2 * CHUNK;
            assert!(
                applied <= bound,
                "apply {b}: {applied} slots, bound {bound}"
            );
            if b <= 4 {
                assert!(applied < n / 2, "apply {b}: {applied} slots into {n}");
            }

            // And the follow-up publish is again allocation-free.
            let before = slots_materialized();
            let republished = p.clone();
            assert_eq!(slots_materialized() - before, 0);
            drop(published);
            assert_eq!(republished.root(), reference_of(&p).root());
        }
    }

    #[test]
    fn any_order_or_batching_of_one_set_reaches_one_tree() {
        let serials: Vec<SerialNumber> = (0..600u32)
            .map(|i| SerialNumber::from_u24(i.wrapping_mul(40_503) % 50_000))
            .collect();
        let reference =
            MerkleTree::from_leaves(serials.iter().zip(1..).map(|(&s, n)| Leaf::new(s, n)));
        for cut in [1, 7, 100, 599, 600] {
            let mut t = PersistentTree::new();
            for part in [&serials[..cut], &serials[cut..]] {
                let mut batch =
                    numbered_from(t.len(), part.iter().map(|&s| Leaf::new(s, 0)).collect());
                batch.sort_by_key(|l| l.serial);
                t.apply_sorted_batch(&batch);
            }
            assert_eq!(t.root(), reference.root(), "cut at {cut}");
        }
    }

    #[test]
    fn a_comb_of_one_bit_serials_is_as_deep_as_its_keys() {
        // 20-byte serials with one bit set each, plus zero: every pair
        // splits at a different bit, so the trie is a 160-deep comb — about
        // as deep as 20-byte keys allow — and proofs still verify.
        let mut serials: Vec<SerialNumber> = (0..160)
            .map(|bit| {
                let mut bytes = [0u8; 20];
                bytes[bit / 8] = 0x80 >> (bit % 8);
                SerialNumber::new(&bytes).unwrap()
            })
            .collect();
        serials.push(SerialNumber::new(&[0; 20]).unwrap());
        let leaves: Vec<Leaf> = serials
            .iter()
            .zip(1..)
            .map(|(&s, n)| Leaf::new(s, n))
            .collect();
        let mut sorted = leaves.clone();
        sorted.sort_by_key(|l| l.serial);
        let t = PersistentTree::from_sorted_leaves(sorted);
        let reference = MerkleTree::from_leaves(leaves);
        let mut queries = serials.clone();
        queries.push(SerialNumber::new(&[0x01; 20]).unwrap());
        queries.push(SerialNumber::new(&[0, 0, 0, 1]).unwrap());
        assert_matches(&t, &reference, &queries);
        let deepest = queries
            .iter()
            .map(|q| MultiProof::generate(&t, &[*q]).leaves[0].0.len());
        assert!(deepest.max().unwrap() >= 160);
        let proof = MultiProof::generate(&t, &queries);
        let verdicts = proof.verify(&queries, &t.root(), t.len() as u64).unwrap();
        assert_eq!(
            verdicts.iter().filter(|v| v.is_revoked()).count(),
            serials.len()
        );
    }
}
