//! The structurally-shared (persistent) sorted-leaf hash tree used by
//! mirrors and snapshots.
//!
//! [`PersistentTree`] is semantically identical to the dense
//! [`crate::tree::MerkleTree`] — same leaf/node hashing, same incremental
//! batch application, same epochs — but stores its leaves and interior
//! levels in copy-on-write [`ChunkedVec`]s. Cloning the tree (what snapshot
//! publication does) costs O(chunks) `Arc` bumps instead of an O(n) level
//! copy, and a mutation after a clone copies only the chunks it dirties:
//! publishing after a b-leaf append batch into an n-leaf dictionary
//! allocates O(b·log n + chunks), not O(n).
//!
//! Writes move whole chunk slices: a batch copies the suffix right of its
//! dirty front out with [`ChunkedVec::suffix_to_vec`], merges it with the
//! batch run by run, and re-appends through [`ChunkedVec::extend`], which
//! fills a chunk at a time; each level rehash reads its children the same
//! way. The dense tree is still somewhat cheaper per write, because its
//! levels are contiguous and nothing is copied out: a 5-serial batch into
//! 50k random leaves measured 2.1–2.4 ms on the dense tree and 3.0–3.2 ms
//! here, publish included (5.7 ms before the bulk path), on a 2-CPU Xeon
//! with SHA extensions. The CA keeps the dense tree, since it never clones.
//!
//! Bit-equivalence with the dense tree (identical roots, audit paths, and
//! multiproof bytes over arbitrary batch/remove/publish interleavings) is
//! proptested in `tests/properties.rs`.

use crate::chunk::ChunkedVec;
use crate::parallel::HashPool;
use crate::serial::SerialNumber;
use crate::tree::{empty_root, node_hash, Leaf, TreeReader};
use ritm_crypto::digest::Digest20;

/// A Merkle tree over sorted dictionary leaves with `Arc`-chunked,
/// copy-on-write storage. Cheap to clone; clones share every untouched
/// chunk with their ancestor.
///
/// Unlike the dense tree, the interior levels are *always* valid: every
/// mutating operation leaves the tree proof-ready, so there is no
/// `rebuild()` step and [`PersistentTree::root`] never panics.
#[derive(Debug, Clone, Default)]
pub struct PersistentTree {
    /// Leaves sorted lexicographically by serial.
    leaves: ChunkedVec<Leaf>,
    /// `levels[0]` = leaf hashes, `levels.last()` = `[root]`; empty for an
    /// empty tree.
    levels: Vec<ChunkedVec<Digest20>>,
    /// Monotonic content version; bumped exactly like the dense tree's.
    epoch: u64,
}

impl PersistentTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        PersistentTree::default()
    }

    /// Builds a tree from leaves already sorted by serial.
    pub fn from_sorted_leaves(leaves: impl IntoIterator<Item = Leaf>, pool: &HashPool) -> Self {
        let mut tree = PersistentTree::new();
        tree.rebuild_from(leaves.into_iter().collect(), pool);
        tree
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// `true` if the tree holds no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Monotonic content version (same semantics as
    /// [`crate::tree::MerkleTree::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The leaf at `index`.
    pub fn leaf(&self, index: usize) -> Leaf {
        *self.leaves.get(index)
    }

    /// Iterates the sorted leaves.
    pub fn iter_leaves(&self) -> impl Iterator<Item = &Leaf> {
        self.leaves.iter()
    }

    /// The current root ([`empty_root`] for an empty tree).
    pub fn root(&self) -> Digest20 {
        match self.levels.last() {
            Some(top) => *top.get(0),
            None => empty_root(),
        }
    }

    /// Binary-searches for `serial`, returning the leaf index if revoked.
    pub fn find(&self, serial: &SerialNumber) -> Option<usize> {
        self.leaves.binary_search_by(|l| l.serial.cmp(serial)).ok()
    }

    /// Index of the first leaf with serial `>= serial`.
    pub fn lower_bound(&self, serial: &SerialNumber) -> usize {
        self.leaves.partition_point(|l| l.serial < *serial)
    }

    /// The audit path (bottom-up sibling hashes) for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn audit_path(&self, index: usize) -> Vec<Digest20> {
        assert!(index < self.len(), "leaf index out of bounds");
        let mut path = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = idx ^ 1;
            if sibling < level.len() {
                path.push(*level.get(sibling));
            }
            idx /= 2;
        }
        path
    }

    /// Applies a batch of new leaves on the global [`HashPool`]; see
    /// [`PersistentTree::apply_sorted_batch_with`].
    pub fn apply_sorted_batch(&mut self, batch: &[Leaf]) -> bool {
        self.apply_sorted_batch_with(batch, HashPool::global())
    }

    /// Applies a batch of new leaves, copying only the chunks whose
    /// contents change and rehashing only node paths at or after the first
    /// changed position — the persistent counterpart of
    /// [`crate::tree::MerkleTree::apply_sorted_batch_with`], with identical
    /// results and epoch behaviour. Returns `true` when the incremental
    /// path ran (`batch` strictly sorted, no serial already present);
    /// otherwise the tree is rebuilt from scratch, which is always correct.
    pub fn apply_sorted_batch_with(&mut self, batch: &[Leaf], pool: &HashPool) -> bool {
        if batch.is_empty() {
            return true;
        }
        let invariants_hold = batch.windows(2).all(|w| w[0].serial < w[1].serial)
            && batch.iter().all(|l| self.find(&l.serial).is_none());
        if !invariants_hold {
            let mut all: Vec<Leaf> = self.leaves.iter().copied().collect();
            all.extend_from_slice(batch);
            all.sort_by_key(|l| l.serial);
            self.rebuild_from(all, pool);
            self.epoch += 1;
            return false;
        }

        let batch_hashes = pool.map_range(0, batch.len(), |i| batch[i].hash());
        let dirty_from = self.lower_bound(&batch[0].serial);
        if self.levels.is_empty() {
            self.levels.push(ChunkedVec::new());
        }
        // Positions at/after the dirty front shift, so that suffix is copied
        // out (whole chunk slices), cut, and re-appended merged with the
        // batch — a chunk at a time; values are copied, but no old leaf is
        // rehashed. A pure append (the common issuance pattern) has an empty
        // suffix: only the tail chunk is ever copied.
        let old_leaves = self.leaves.suffix_to_vec(dirty_from);
        let old_hashes = self.levels[0].suffix_to_vec(dirty_from);
        self.leaves.truncate(dirty_from);
        self.levels[0].truncate(dirty_from);
        // Alternate runs: the old leaves that sort before batch[j], then the
        // batch leaves that sort before the next old leaf — two binary
        // searches per run instead of a comparison per element.
        let (mut from, mut j) = (0, 0);
        while j < batch.len() {
            let to = from + old_leaves[from..].partition_point(|l| l.serial < batch[j].serial);
            let end = match old_leaves.get(to) {
                Some(next) => j + batch[j..].partition_point(|l| l.serial < next.serial),
                None => batch.len(),
            };
            self.leaves
                .extend(old_leaves[from..to].iter().chain(&batch[j..end]).copied());
            self.levels[0].extend(
                old_hashes[from..to]
                    .iter()
                    .chain(&batch_hashes[j..end])
                    .copied(),
            );
            (from, j) = (to, end);
        }
        self.leaves.extend(old_leaves[from..].iter().copied());
        self.levels[0].extend(old_hashes[from..].iter().copied());
        self.rehash_levels_from(dirty_from, pool);
        self.epoch += 1;
        true
    }

    /// Removes the leaves carrying `serials`, splicing retained hashes and
    /// rehashing interior nodes only from the first removed position (same
    /// fixed algorithm as [`crate::tree::MerkleTree::remove_sorted_batch`]:
    /// no retained leaf is rehashed, and duplicate-serial leaves cannot
    /// leave a stale hash left of the rehash front). Returns how many
    /// leaves were removed.
    pub fn remove_sorted_batch(&mut self, serials: &[SerialNumber]) -> usize {
        let Some(first) = crate::tree::rollback_front(
            serials,
            |s| self.leaves.binary_search_by(|l| l.serial.cmp(s)).ok(),
            |i| self.leaves.get(i).serial,
        ) else {
            return 0;
        };
        let before = self.len();
        let doomed: std::collections::HashSet<&SerialNumber> = serials.iter().collect();
        let (kept_leaves, kept_hashes): (Vec<Leaf>, Vec<Digest20>) = self
            .leaves
            .suffix_to_vec(first)
            .into_iter()
            .zip(self.levels[0].suffix_to_vec(first))
            .filter(|(leaf, _)| !doomed.contains(&leaf.serial))
            .unzip();
        self.leaves.truncate(first);
        self.levels[0].truncate(first);
        self.leaves.extend(kept_leaves);
        self.levels[0].extend(kept_hashes);
        let removed = before - self.len();
        if self.leaves.is_empty() {
            self.levels.clear();
        } else {
            self.rehash_levels_from(first, HashPool::global());
        }
        self.epoch += 1;
        removed
    }

    /// Rebuilds everything from `leaves` (sorted by serial) — the fallback
    /// when incremental invariants do not hold.
    fn rebuild_from(&mut self, leaves: Vec<Leaf>, pool: &HashPool) {
        self.levels.clear();
        let hashes = pool.map_range(0, leaves.len(), |i| leaves[i].hash());
        self.leaves = leaves.into_iter().collect();
        if self.leaves.is_empty() {
            return;
        }
        self.levels.push(hashes.into_iter().collect());
        self.rehash_levels_from(0, pool);
    }

    /// Rebuilds interior levels above valid level-0 hashes, recomputing
    /// only nodes whose subtree includes a position `>= dirty_from` —
    /// chunks fully left of the dirty front stay shared with any clone.
    fn rehash_levels_from(&mut self, mut dirty_from: usize, pool: &HashPool) {
        let mut k = 0;
        while self.levels[k].len() > 1 {
            let child_len = self.levels[k].len();
            let parent_len = child_len.div_ceil(2);
            dirty_from /= 2;
            if self.levels.len() == k + 1 {
                self.levels.push(ChunkedVec::new());
            }
            let (children, parents) = self.levels.split_at_mut(k + 1);
            let parent = &mut parents[0];
            parent.truncate(dirty_from.min(parent_len));
            // The children under the dirty parents, as one flat slice.
            let start = parent.len();
            let child = children[k].suffix_to_vec(2 * start);
            let fresh = pool.map_range(0, parent_len - start, |j| match child.get(2 * j + 1) {
                Some(right) => node_hash(&child[2 * j], right),
                None => child[2 * j], // odd node promoted
            });
            parent.extend(fresh);
            k += 1;
        }
        self.levels.truncate(k + 1);
        debug_assert_eq!(self.levels[0].len(), self.leaves.len());
        debug_assert_eq!(self.levels.last().expect("non-empty").len(), 1);
    }

    /// Chunks (across leaves and all levels) this tree shares with `other`
    /// — what a published snapshot keeps alive for free.
    pub fn shared_chunks_with(&self, other: &Self) -> usize {
        self.leaves.shared_chunks_with(&other.leaves)
            + self
                .levels
                .iter()
                .zip(&other.levels)
                .map(|(a, b)| a.shared_chunks_with(b))
                .sum::<usize>()
    }

    /// Total chunks across leaves and levels.
    pub fn chunk_count(&self) -> usize {
        self.leaves.chunk_count()
            + self
                .levels
                .iter()
                .map(ChunkedVec::chunk_count)
                .sum::<usize>()
    }

    /// Approximate reachable heap bytes (shared chunks counted in full) —
    /// the §VII-D memory metric.
    pub fn memory_bytes(&self) -> usize {
        self.leaves.heap_bytes()
            + self
                .levels
                .iter()
                .map(ChunkedVec::heap_bytes)
                .sum::<usize>()
    }

    /// Bytes to persist just the revocation data — the paper's "storage"
    /// metric (matches the dense tree's accounting).
    pub fn storage_bytes(&self) -> usize {
        self.leaves.iter().map(|l| l.serial.len() + 8).sum()
    }
}

impl TreeReader for PersistentTree {
    fn len(&self) -> usize {
        PersistentTree::len(self)
    }

    fn leaf(&self, index: usize) -> Leaf {
        PersistentTree::leaf(self, index)
    }

    fn find(&self, serial: &SerialNumber) -> Option<usize> {
        PersistentTree::find(self, serial)
    }

    fn lower_bound(&self, serial: &SerialNumber) -> usize {
        PersistentTree::lower_bound(self, serial)
    }

    fn audit_path(&self, index: usize) -> Vec<Digest20> {
        PersistentTree::audit_path(self, index)
    }

    fn level_node(&self, level: usize, index: usize) -> Digest20 {
        *self.levels[level].get(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{slots_materialized, CHUNK};
    use crate::tree::MerkleTree;

    fn leaves(serials: impl IntoIterator<Item = u32>) -> Vec<Leaf> {
        let mut out: Vec<Leaf> = serials
            .into_iter()
            .enumerate()
            .map(|(i, s)| Leaf::new(SerialNumber::from_u24(s), i as u64 + 1))
            .collect();
        out.sort_by_key(|l| l.serial);
        out
    }

    fn dense_of(t: &PersistentTree) -> MerkleTree {
        let mut d = MerkleTree::new();
        d.extend_leaves(t.iter_leaves().copied());
        d.rebuild();
        d
    }

    #[test]
    fn matches_dense_for_all_small_sizes() {
        for n in 0..=33u32 {
            let batch = leaves((0..n).map(|i| i * 3 + 1));
            let mut p = PersistentTree::new();
            assert!(p.apply_sorted_batch(&batch) || batch.is_empty());
            let d = {
                let mut d = MerkleTree::new();
                d.apply_sorted_batch(&batch);
                d
            };
            assert_eq!(p.root(), d.root(), "n = {n}");
            for i in 0..p.len() {
                assert_eq!(p.audit_path(i), d.audit_path(i), "n = {n}, i = {i}");
                assert_eq!(p.leaf(i), d.leaves()[i]);
            }
        }
    }

    #[test]
    fn append_and_merge_batches_match_dense() {
        let mut p = PersistentTree::new();
        let mut d = MerkleTree::new();
        let first = leaves((0..CHUNK as u32 + 100).map(|i| i * 4 + 2));
        assert!(p.apply_sorted_batch(&first));
        d.apply_sorted_batch(&first);
        // A merge batch landing in the middle, then a pure append.
        let mid = leaves((0..50u32).map(|i| i * 8 + 3));
        let mid: Vec<Leaf> = mid
            .into_iter()
            .enumerate()
            .map(|(i, l)| Leaf::new(l.serial, 10_000 + i as u64))
            .collect();
        assert!(p.apply_sorted_batch(&mid));
        d.apply_sorted_batch(&mid);
        let tail = leaves((0..70u32).map(|i| 0x400000 + i));
        assert!(p.apply_sorted_batch(&tail));
        d.apply_sorted_batch(&tail);
        assert_eq!(p.root(), d.root());
        assert_eq!(p.epoch(), d.epoch(), "both bump once per applied batch");
        for i in [0usize, 1, CHUNK - 1, CHUNK, p.len() - 1] {
            assert_eq!(p.audit_path(i), d.audit_path(i), "path {i}");
        }
    }

    #[test]
    fn unsorted_batch_falls_back_and_still_matches() {
        let batch = leaves([9, 1, 5, 3]);
        let mut shuffled = batch.clone();
        shuffled.swap(0, 3);
        let mut p = PersistentTree::new();
        assert!(!p.apply_sorted_batch(&shuffled));
        let mut d = MerkleTree::new();
        d.apply_sorted_batch(&shuffled);
        assert_eq!(p.root(), d.root());
    }

    #[test]
    fn remove_matches_dense_and_restores_root() {
        let base = leaves((0..500u32).map(|i| i * 2));
        let mut p = PersistentTree::new();
        p.apply_sorted_batch(&base);
        let root_before = p.root();
        let batch: Vec<Leaf> = (0..30u32)
            .map(|i| Leaf::new(SerialNumber::from_u24(i * 16 + 1), 600 + i as u64))
            .collect();
        p.apply_sorted_batch(&batch);
        assert_ne!(p.root(), root_before);
        let serials: Vec<SerialNumber> = batch.iter().map(|l| l.serial).collect();
        assert_eq!(p.remove_sorted_batch(&serials), 30);
        assert_eq!(p.root(), root_before);
        assert_eq!(p.root(), dense_of(&p).root());
        // Removing absent serials is a no-op that does not bump the epoch.
        let e = p.epoch();
        assert_eq!(p.remove_sorted_batch(&[SerialNumber::from_u24(1)]), 0);
        assert_eq!(p.epoch(), e);
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
        let tail = leaves((0..10u32).map(|i| 0x700000 + i));
        let tail: Vec<Leaf> = tail
            .into_iter()
            .enumerate()
            .map(|(i, l)| Leaf::new(l.serial, 9_000 + i as u64))
            .collect();
        let root_snap = snap.root();
        p.apply_sorted_batch(&tail);
        assert_ne!(p.root(), root_snap);
        assert_eq!(snap.root(), root_snap, "retained snapshot unchanged");
        assert_eq!(snap.len(), 4 * CHUNK);
        assert_eq!(snap.root(), dense_of(&snap).root());
    }

    #[test]
    fn publish_after_batch_allocates_batch_not_dictionary() {
        // The acceptance assertion: after publishing (clone), a b-leaf
        // append batch into an n-leaf tree materializes
        // O(b·log n + dirty chunks·CHUNK) slots — bounded per level by the
        // batch plus one copied boundary chunk — never O(n).
        let n = 16 * CHUNK; // 16_384 leaves, 15 levels
        let b = 100usize;
        let base = leaves((0..n as u32).map(|i| i * 2));
        let mut p = PersistentTree::new();
        p.apply_sorted_batch(&base);
        let published = p.clone(); // everything shared: worst case for CoW

        let batch: Vec<Leaf> = (0..b as u32)
            .map(|i| {
                Leaf::new(
                    SerialNumber::from_u24((2 * n) as u32 + 1 + i),
                    (n + 1) as u64 + i as u64,
                )
            })
            .collect();
        let before = slots_materialized();
        assert!(p.apply_sorted_batch(&batch));
        let applied = (slots_materialized() - before) as usize;
        let levels = p.levels.len();
        let bound = (levels + 1) * (b + CHUNK);
        assert!(
            applied <= bound,
            "apply materialized {applied} slots, bound {bound} (n = {n})"
        );
        assert!(applied < n / 2, "apply cost must not scale with n");

        // And the follow-up publish is again allocation-free.
        let before = slots_materialized();
        let republished = p.clone();
        assert_eq!(slots_materialized() - before, 0);
        drop(published);
        assert_eq!(republished.root(), dense_of(&p).root());
    }
}
