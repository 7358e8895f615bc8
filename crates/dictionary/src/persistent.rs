//! The structurally-shared (persistent) sorted-leaf hash tree: the one tree
//! both dictionaries write through.
//!
//! [`PersistentTree`] stores its leaves, interior levels and serial log in
//! copy-on-write [`ChunkedVec`]s. Cloning the tree (what the mirror's
//! snapshot publication does) costs O(chunks) `Arc` bumps instead of an
//! O(n) level copy, and a mutation after a clone copies only the chunks it
//! dirties: publishing after a b-leaf append batch into an n-leaf
//! dictionary allocates O(b·log n + chunks), not O(n). The CA never clones
//! its tree, so it only pays the chunked layout.
//!
//! Writes move whole chunk slices: a batch keeps the old leaves and hashes
//! readable through a clone, cuts the tree at its dirty front, and
//! re-appends the suffix merged with the batch run by run through
//! [`ChunkedVec::extend_from_range`] and [`ChunkedVec::extend_from_slice`],
//! so each value is copied once, a chunk slice at a time.
//!
//! Only tree level 0 (the leaf hashes) and levels ≥ 3 are stored; levels 1
//! and 2 — 15 of every 20 bytes of interior nodes — are hashed from level 0
//! on demand, which adds 4 node hashes to an audit path. Level 0 must stay:
//! a batch copies the leaf hashes right of its front, shifted, instead of
//! rehashing them, so without it every batch would rehash about half the
//! dictionary's leaves. Rebuilding level 3 from level 0 computes the same
//! level-1 and level-2 nodes the stored levels used to, only without
//! keeping them, so the write path does no extra hashing.
//!
//! Each serial is held once, on the CA and the RA alike: in the tree's
//! [`SerialLog`], by revocation number. The sorted leaf array holds 8 bytes
//! per leaf, the serial's first 4 bytes (big-endian) and its revocation
//! number, instead of a 32-byte [`Leaf`]. A search compares prefixes and
//! reads the log only when they tie, and [`PersistentTree::leaf`] rebuilds
//! a leaf from its entry and the log in O(1). That layout sets the one new
//! rule: a batch's numbers must be exactly `len + 1 ..= len + b`, in any
//! order, which both dictionaries' batch checks already guarantee. The
//! leaf hash still covers the whole serial and its `u64` number, so no
//! digest, root or proof byte depends on the layout. Numbers are `u32` and
//! log offsets too, so a tree holds at most 4 GiB of log: more than 200 M
//! 20-byte serials.
//!
//! The log is chunked like the rest, so a snapshot shares it, and a
//! rollback truncates it copy-on-write without reaching into a snapshot
//! taken before the batch.
//!
//! Bit-equivalence with the built-once reference [`crate::tree::MerkleTree`]
//! (identical roots, audit paths, and multiproof bytes over arbitrary
//! batch/remove/publish interleavings) is proptested in
//! `tests/properties.rs`.

use crate::chunk::ChunkedVec;
use crate::issuance_log::SerialLog;
use crate::serial::SerialNumber;
use crate::tree::{empty_root, node_hash, Leaf, TreeReader};
use core::cmp::Ordering;
use ritm_crypto::digest::Digest20;

/// The lowest stored level above level 0: levels `1..STORED_FROM` are
/// computed on demand (see the module docs).
const STORED_FROM: usize = 3;

/// One leaf of the sorted array: the serial's first 4 bytes and the
/// revocation number that finds the whole serial in the log.
#[derive(Debug, Clone, Copy)]
struct Entry {
    prefix: u32,
    number: u32,
}

impl Entry {
    fn of(leaf: &Leaf) -> Self {
        Entry {
            prefix: leaf.serial.prefix(),
            number: leaf.number as u32,
        }
    }
}

/// A Merkle tree over sorted dictionary leaves with `Arc`-chunked,
/// copy-on-write storage. Cheap to clone; clones share every untouched
/// chunk with their ancestor.
///
/// The stored levels are *always* valid: every mutating operation leaves
/// the tree proof-ready, so there is no `rebuild()` step and
/// [`PersistentTree::root`] never panics.
///
/// Leaf numbers are revocation numbers: a tree of `n` leaves carries the
/// numbers `1..=n`, and every batch continues them (see
/// [`PersistentTree::apply_sorted_batch`]).
#[derive(Debug, Clone, Default)]
pub struct PersistentTree {
    /// The leaves sorted lexicographically by serial, each as an [`Entry`].
    entries: ChunkedVec<Entry>,
    /// `levels[k]` is tree level `k`: `levels[0]` the leaf hashes,
    /// `levels.last()` the root's level. Levels `1..STORED_FROM` are
    /// always empty (computed by [`node`]); empty for an empty tree.
    levels: Vec<ChunkedVec<Digest20>>,
    /// Every leaf's serial, by revocation number.
    log: SerialLog,
    /// Monotonic content version, bumped by every call that changes the
    /// leaves.
    epoch: u64,
}

impl PersistentTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        PersistentTree::default()
    }

    /// Builds a tree from leaves already sorted by serial and numbered
    /// `1..=n` in any order.
    ///
    /// # Panics
    ///
    /// Panics when the numbers are not exactly `1..=n`.
    pub fn from_sorted_leaves(leaves: impl IntoIterator<Item = Leaf>) -> Self {
        let leaves: Vec<Leaf> = leaves.into_iter().collect();
        let mut tree = PersistentTree::new();
        tree.log.append_numbered(&leaves);
        tree.rebuild_from(&leaves);
        tree
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the tree holds no leaves.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Monotonic content version: bumped by every call that changes the
    /// leaves, so audit paths and proofs generated at one epoch remain
    /// valid exactly while `epoch()` is unchanged.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The leaf at `index`, rebuilt from its entry and the log.
    pub fn leaf(&self, index: usize) -> Leaf {
        let number = self.entries.get(index).number;
        Leaf::new(self.log.get(number as usize - 1), number.into())
    }

    /// Iterates the sorted leaves.
    pub fn iter_leaves(&self) -> Leaves<'_> {
        Leaves {
            tree: self,
            next: 0,
        }
    }

    /// The serials by revocation number — the one serial store, which
    /// snapshots share and catch-up pages read.
    pub fn log(&self) -> &SerialLog {
        &self.log
    }

    /// The current root ([`empty_root`] for an empty tree).
    pub fn root(&self) -> Digest20 {
        match self.levels.len() {
            0 => empty_root(),
            height => node(&self.levels, height - 1, 0),
        }
    }

    /// Binary-searches for `serial`, returning the leaf index if revoked.
    pub fn find(&self, serial: &SerialNumber) -> Option<usize> {
        let prefix = serial.prefix();
        self.entries
            .binary_search_by(|e| compare(&self.log, e, serial, prefix))
            .ok()
    }

    /// Index of the first leaf with serial `>= serial`.
    pub fn lower_bound(&self, serial: &SerialNumber) -> usize {
        lower_bound(&self.entries, &self.log, serial)
    }

    /// The audit path (bottom-up sibling hashes) for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn audit_path(&self, index: usize) -> Vec<Digest20> {
        assert!(index < self.len(), "leaf index out of bounds");
        let top = self.levels.len() - 1;
        let mut path = Vec::with_capacity(top);
        for k in 0..top {
            let sibling = (index >> k) ^ 1;
            if sibling < level_len(self.len(), k) {
                path.push(node(&self.levels, k, sibling));
            }
        }
        path
    }

    /// Applies a batch of new leaves, copying only the chunks whose
    /// contents change and rehashing only node paths at or after the first
    /// changed position: no old leaf is rehashed, and nodes strictly left
    /// of the front are reused. Returns `true` when the incremental path
    /// ran (`batch` strictly sorted, no serial already present); otherwise
    /// the tree is rebuilt from scratch, which is always correct.
    ///
    /// # Panics
    ///
    /// Panics, leaving the tree unchanged, unless the batch's numbers are
    /// exactly `len() + 1 ..= len() + batch.len()` (in any order) — the
    /// issuance numbering both dictionaries check before they get here.
    pub fn apply_sorted_batch(&mut self, batch: &[Leaf]) -> bool {
        if batch.is_empty() {
            return true;
        }
        assert_eq!(
            self.log.len(),
            self.len(),
            "removed leaves left a gap in the numbers"
        );
        let invariants_hold = batch.windows(2).all(|w| w[0].serial < w[1].serial)
            && batch.iter().all(|l| self.find(&l.serial).is_none());
        self.log.append_numbered(batch);
        if !invariants_hold {
            let mut all: Vec<Leaf> = self.iter_leaves().collect();
            all.extend_from_slice(batch);
            all.sort_by_key(|l| l.serial);
            self.rebuild_from(&all);
            self.epoch += 1;
            return false;
        }

        let dirty_from = self.lower_bound(&batch[0].serial);
        if self.levels.is_empty() {
            self.levels.push(ChunkedVec::new());
        }
        // Positions at/after the dirty front shift. A clone keeps the old
        // sequences readable (O(chunks) `Arc` bumps); the tree is cut at the
        // front and re-appended merged with the batch, whole slices at a
        // time: values are copied once, and no old leaf is rehashed. A pure
        // append (the common issuance pattern) has nothing to re-append.
        let (old_entries, old_hashes) = (self.entries.clone(), self.levels[0].clone());
        self.entries.truncate(dirty_from);
        self.levels[0].truncate(dirty_from);
        // Alternate runs: the old leaves that sort before batch[j], then the
        // batch leaves that sort before the next old leaf — two binary
        // searches per run instead of a comparison per element.
        let (mut from, mut j) = (dirty_from, 0);
        while j < batch.len() {
            let to = lower_bound(&old_entries, &self.log, &batch[j].serial);
            let end = if to < old_entries.len() {
                let next = self.log.get(old_entries.get(to).number as usize - 1);
                j + batch[j..].partition_point(|l| l.serial < next)
            } else {
                batch.len()
            };
            self.entries.extend_from_range(&old_entries, from..to);
            self.levels[0].extend_from_range(&old_hashes, from..to);
            self.entries.extend(batch[j..end].iter().map(Entry::of));
            self.levels[0].extend(batch[j..end].iter().map(Leaf::hash));
            (from, j) = (to, end);
        }
        self.entries
            .extend_from_range(&old_entries, from..old_entries.len());
        self.levels[0].extend_from_range(&old_hashes, from..old_hashes.len());
        self.rehash_levels_from(dirty_from);
        self.epoch += 1;
        true
    }

    /// Removes the leaves carrying `serials`, splicing retained hashes and
    /// rehashing interior nodes only from the first removed position — the
    /// mirror's verify-then-commit rollback. No retained leaf is rehashed.
    /// The log drops every number above the largest one kept, copy-on-write,
    /// so a clone taken before the removal still reads all of them.
    /// Returns how many leaves were removed.
    pub fn remove_sorted_batch(&mut self, serials: &[SerialNumber]) -> usize {
        // The rehash front is the first removed *position*. The unsorted
        // fallback can leave duplicate-serial leaves, and a binary search
        // may hit the later one: walk each hit back over its duplicates, or
        // a stale hash would stay left of the front.
        let Some(first) = serials
            .iter()
            .filter_map(|s| {
                let mut i = self.find(s)?;
                while i > 0 && self.leaf(i - 1).serial == *s {
                    i -= 1;
                }
                Some(i)
            })
            .min()
        else {
            return 0;
        };
        let before = self.len();
        let doomed: std::collections::HashSet<&SerialNumber> = serials.iter().collect();
        let mut lowest_removed = u32::MAX;
        let (kept_entries, kept_hashes): (Vec<Entry>, Vec<Digest20>) = self
            .entries
            .suffix_to_vec(first)
            .into_iter()
            .zip(self.levels[0].suffix_to_vec(first))
            .filter(|(entry, _)| {
                let removed = doomed.contains(&self.log.get(entry.number as usize - 1));
                if removed {
                    lowest_removed = lowest_removed.min(entry.number);
                }
                !removed
            })
            .unzip();
        self.entries.truncate(first);
        self.levels[0].truncate(first);
        self.entries.extend(kept_entries);
        self.levels[0].extend(kept_hashes);
        let removed = before - self.len();
        // Removing the latest numbers (a rolled-back batch) keeps the log
        // at the new length; anything else keeps it up to the largest
        // number left.
        let keep = if lowest_removed as usize > self.log.len() - removed {
            self.log.len() - removed
        } else {
            self.entries
                .iter()
                .map(|e| e.number as usize)
                .max()
                .unwrap_or(0)
        };
        self.log.truncate(keep);
        if self.entries.is_empty() {
            self.levels.clear();
        } else {
            self.rehash_levels_from(first);
        }
        self.epoch += 1;
        removed
    }

    /// Rebuilds the entries and levels from `leaves` (sorted by serial,
    /// every serial already in the log) — the bulk load, and the fallback
    /// when incremental invariants do not hold.
    fn rebuild_from(&mut self, leaves: &[Leaf]) {
        self.levels.clear();
        self.entries = leaves.iter().map(Entry::of).collect();
        if leaves.is_empty() {
            return;
        }
        self.levels.push(leaves.iter().map(Leaf::hash).collect());
        self.rehash_levels_from(0);
    }

    /// Rebuilds the stored interior levels above valid level-0 hashes,
    /// recomputing only nodes whose subtree includes a position
    /// `>= dirty_from` — chunks fully left of the dirty front stay shared
    /// with any clone. Level [`STORED_FROM`] is hashed straight from level
    /// 0 through the unstored levels between them.
    fn rehash_levels_from(&mut self, dirty_from: usize) {
        let n = self.entries.len();
        let height = level_count(n);
        self.levels.resize_with(height, ChunkedVec::new);
        for k in STORED_FROM..height {
            let (below, level) = self.levels.split_at_mut(k);
            let level = &mut level[0];
            let len = level_len(n, k);
            level.truncate((dirty_from >> k).min(len));
            let start = level.len();
            level.extend((start..len).map(|j| parent(below, k, j)));
        }
        debug_assert_eq!(self.levels[0].len(), n);
        debug_assert_eq!(level_len(n, height - 1), 1);
    }

    /// Chunks (across the sorted entries and all stored levels) this tree
    /// shares with `other` — what a published snapshot keeps alive for
    /// free. The log's are counted by [`SerialLog::shared_chunks_with`].
    pub fn shared_chunks_with(&self, other: &Self) -> usize {
        self.entries.shared_chunks_with(&other.entries)
            + self
                .levels
                .iter()
                .zip(&other.levels)
                .map(|(a, b)| a.shared_chunks_with(b))
                .sum::<usize>()
    }

    /// Total chunks across the sorted entries and the stored levels.
    pub fn chunk_count(&self) -> usize {
        self.entries.chunk_count()
            + self
                .levels
                .iter()
                .map(ChunkedVec::chunk_count)
                .sum::<usize>()
    }

    /// Approximate reachable heap bytes (shared chunks counted in full) —
    /// the §VII-D memory metric.
    pub fn memory_bytes(&self) -> usize {
        self.entries.heap_bytes()
            + self
                .levels
                .iter()
                .map(ChunkedVec::heap_bytes)
                .sum::<usize>()
            + self.log.heap_bytes()
    }

    /// Bytes to persist just the revocation data (serial bytes plus an
    /// 8-byte revocation number per entry) — the paper's "storage" metric.
    pub fn storage_bytes(&self) -> usize {
        self.iter_leaves().map(|l| l.serial.len() + 8).sum()
    }
}

/// The leaves of a [`PersistentTree`] in sorted order, each rebuilt by
/// value from its entry and the log.
#[derive(Debug, Clone)]
pub struct Leaves<'a> {
    tree: &'a PersistentTree,
    next: usize,
}

impl Leaves<'_> {
    /// The iterator itself: the leaves are already values, so there is
    /// nothing to copy. It keeps `iter_leaves().copied()` — the spelling
    /// for an iterator of `&Leaf` — meaning what it says.
    pub fn copied(self) -> Self {
        self
    }
}

impl Iterator for Leaves<'_> {
    type Item = Leaf;

    fn next(&mut self) -> Option<Leaf> {
        (self.next < self.tree.len()).then(|| {
            self.next += 1;
            self.tree.leaf(self.next - 1)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.tree.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Leaves<'_> {}

/// How the leaf `entry` sorts against `serial`, whose prefix is `prefix`:
/// by the prefixes, and by the whole serial from `log` only on a tie.
fn compare(log: &SerialLog, entry: &Entry, serial: &SerialNumber, prefix: u32) -> Ordering {
    entry
        .prefix
        .cmp(&prefix)
        .then_with(|| log.get(entry.number as usize - 1).cmp(serial))
}

/// Index of the first of `entries` whose serial is `>= serial`.
fn lower_bound(entries: &ChunkedVec<Entry>, log: &SerialLog, serial: &SerialNumber) -> usize {
    let prefix = serial.prefix();
    entries.partition_point(|e| compare(log, e, serial, prefix) == Ordering::Less)
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
        node(&self.levels, level, index)
    }
}

/// Levels of a tree over `n ≥ 1` leaves, level 0 and the root's included.
fn level_count(n: usize) -> usize {
    1 + (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Nodes on level `k` of a tree over `n` leaves.
fn level_len(n: usize, k: usize) -> usize {
    n.div_ceil(1 << k)
}

/// Node `j` of level `k`: read from `levels` where that level is stored,
/// otherwise hashed from level 0 by [`parent`].
fn node(levels: &[ChunkedVec<Digest20>], k: usize, j: usize) -> Digest20 {
    if k == 0 || k >= STORED_FROM {
        *levels[k].get(j)
    } else {
        parent(levels, k, j)
    }
}

/// Node `j` of level `k` hashed from its children on level `k − 1`; an odd
/// last child is promoted unchanged. `levels` needs to hold level 0 and the
/// stored levels below `k` only.
fn parent(levels: &[ChunkedVec<Digest20>], k: usize, j: usize) -> Digest20 {
    let left = node(levels, k - 1, 2 * j);
    if 2 * j + 1 < level_len(levels[0].len(), k - 1) {
        node_hash(&left, &node(levels, k - 1, 2 * j + 1))
    } else {
        left
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{slots_materialized, CHUNK};
    use crate::tree::{leaf_hash_calls, node_hash_calls, MerkleTree};

    fn leaves(serials: impl IntoIterator<Item = u32>) -> Vec<Leaf> {
        let mut out: Vec<Leaf> = serials
            .into_iter()
            .enumerate()
            .map(|(i, s)| Leaf::new(SerialNumber::from_u24(s), i as u64 + 1))
            .collect();
        out.sort_by_key(|l| l.serial);
        out
    }

    fn reference_of(t: &PersistentTree) -> MerkleTree {
        MerkleTree::from_leaves(t.iter_leaves().copied())
    }

    /// Root and the audit paths at `indices` equal the reference's.
    fn assert_matches(t: &PersistentTree, reference: &MerkleTree, indices: &[usize]) {
        assert_eq!(t.root(), reference.root());
        assert_eq!(t.len(), reference.len());
        for &i in indices {
            assert_eq!(t.audit_path(i), reference.audit_path(i), "path {i}");
        }
    }

    #[test]
    fn matches_dense_for_all_small_sizes() {
        for n in 0..=33u32 {
            let batch = leaves((0..n).map(|i| i * 3 + 1));
            let mut p = PersistentTree::new();
            assert!(p.apply_sorted_batch(&batch));
            let d = MerkleTree::from_leaves(batch.iter().copied());
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
        let first = leaves((0..CHUNK as u32 + 100).map(|i| i * 4 + 2));
        assert!(p.apply_sorted_batch(&first));
        // A merge batch landing in the middle, then a pure append.
        let mid = leaves((0..50u32).map(|i| i * 8 + 3));
        let mid: Vec<Leaf> = mid
            .into_iter()
            .enumerate()
            .map(|(i, l)| Leaf::new(l.serial, (first.len() + 1 + i) as u64))
            .collect();
        assert!(p.apply_sorted_batch(&mid));
        let tail: Vec<Leaf> = leaves((0..70u32).map(|i| 0x400000 + i))
            .into_iter()
            .enumerate()
            .map(|(i, l)| Leaf::new(l.serial, (p.len() + 1 + i) as u64))
            .collect();
        assert!(p.apply_sorted_batch(&tail));
        let d = MerkleTree::from_leaves(first.iter().chain(&mid).chain(&tail).copied());
        assert_matches(&p, &d, &[0, 1, CHUNK - 1, CHUNK, p.len() - 1]);
        assert_eq!(p.epoch(), 3, "one bump per applied batch");
    }

    #[test]
    fn prefix_ties_match_dense() {
        // Serials whose 4-byte prefixes tie: 1–20 bytes of `12 34 56 78`
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
        let renumber = |batch: &[Leaf], first: usize| -> Vec<Leaf> {
            (batch.iter().zip(first..))
                .map(|(l, n)| Leaf::new(l.serial, n as u64))
                .collect()
        };
        let mut t = PersistentTree::new();
        assert!(t.apply_sorted_batch(&renumber(&odd, 1)));
        assert!(t.apply_sorted_batch(&renumber(&even, odd.len() + 1)));
        let reference = reference_of(&t);
        assert_eq!(
            reference
                .leaves()
                .iter()
                .map(|l| l.serial)
                .collect::<Vec<_>>(),
            serials
        );
        assert_matches(&t, &reference, &(0..t.len()).collect::<Vec<_>>());
        let absent = [
            SerialNumber::new(&[0x12, 0x34, 0x57]).unwrap(),
            SerialNumber::new(&[0x12, 0x34, 0x56, 0x78, 0x01]).unwrap(),
            SerialNumber::new(&[1, 2, 3, 0, 0, 0]).unwrap(),
            SerialNumber::new(&[1, 2, 2, 0xff]).unwrap(),
            SerialNumber::new(&[0]).unwrap(),
        ];
        for (i, s) in serials.iter().enumerate() {
            assert_eq!(t.find(s), Some(i), "find {s:?}");
            assert_eq!(t.lower_bound(s), i, "lower_bound {s:?}");
        }
        for s in &absent {
            assert_eq!(t.find(s), None, "find {s:?}");
            assert_eq!(t.lower_bound(s), serials.partition_point(|x| x < s));
        }
        let queries: Vec<SerialNumber> = serials.iter().chain(&absent).copied().collect();
        assert_eq!(
            crate::proof::MultiProof::generate(&t, &queries).to_bytes(),
            crate::proof::MultiProof::generate(&reference, &queries).to_bytes()
        );
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
    fn unsorted_batch_falls_back_and_still_matches() {
        let batch = leaves([9, 1, 5, 3]);
        let mut shuffled = batch.clone();
        shuffled.swap(0, 3);
        let mut p = PersistentTree::new();
        assert!(!p.apply_sorted_batch(&shuffled));
        assert_eq!(p.root(), MerkleTree::from_leaves(shuffled).root());
    }

    #[test]
    fn remove_matches_dense_and_restores_root() {
        let base = leaves((0..500u32).map(|i| i * 2));
        let mut p = PersistentTree::new();
        p.apply_sorted_batch(&base);
        let root_before = p.root();
        let batch: Vec<Leaf> = (0..30u32)
            .map(|i| Leaf::new(SerialNumber::from_u24(i * 16 + 1), 501 + i as u64))
            .collect();
        p.apply_sorted_batch(&batch);
        assert_ne!(p.root(), root_before);
        let serials: Vec<SerialNumber> = batch.iter().map(|l| l.serial).collect();
        assert_eq!(p.remove_sorted_batch(&serials), 30);
        assert_eq!(p.root(), root_before);
        assert_eq!(p.root(), reference_of(&p).root());
        // Removing absent serials is a no-op that does not bump the epoch.
        let e = p.epoch();
        assert_eq!(p.remove_sorted_batch(&[SerialNumber::from_u24(1)]), 0);
        assert_eq!(p.epoch(), e);
    }

    #[test]
    fn rebuild_matches_incremental_across_chunk_boundaries() {
        // 4 609 leaves: level 0 spans five chunks, and odd nodes are
        // promoted on several levels. A bulk build, one incremental batch
        // from empty and the reference must land on the same tree.
        let n = 4_609u32;
        let first: Vec<Leaf> = (0..n)
            .map(|i| Leaf::new(SerialNumber::from_u24(i * 2), i as u64 + 1))
            .collect();
        let rebuilt = PersistentTree::from_sorted_leaves(first.iter().copied());
        let mut incremental = PersistentTree::new();
        assert!(incremental.apply_sorted_batch(&first));
        let reference = MerkleTree::from_leaves(first.iter().copied());
        let probes = [0usize, 1, 4095, 4096, n as usize - 1];
        assert_matches(&rebuilt, &reference, &probes);
        assert_matches(&incremental, &reference, &probes);

        // A second large batch interleaved with the first: merged run by
        // run on one side, sorted and built from scratch on the other.
        let batch: Vec<Leaf> = (0..4_107u32)
            .map(|i| Leaf::new(SerialNumber::from_u24(i * 2 + 1), (n + i) as u64 + 1))
            .collect();
        assert!(incremental.apply_sorted_batch(&batch));
        let reference = MerkleTree::from_leaves(first.iter().chain(&batch).copied());
        assert_matches(
            &incremental,
            &reference,
            &[0, 1, 4095, 4096, reference.len() - 1],
        );
    }

    #[test]
    fn rebuild_counts_every_leaf_hash_on_the_calling_thread() {
        // `leaf_hash_calls` is per thread, so it counts every hash only if
        // the bulk build never hands leaves to another thread.
        let all = leaves(0..10_000u32);
        let before = leaf_hash_calls();
        let t = PersistentTree::from_sorted_leaves(all);
        assert_eq!(leaf_hash_calls() - before, 10_000);
        assert_eq!(t.len(), 10_000);
    }

    #[test]
    fn apply_sorted_batch_counts_every_leaf_hash_on_the_calling_thread() {
        let mut t = PersistentTree::from_sorted_leaves(leaves([1]));
        let batch: Vec<Leaf> = (0..5_000u32)
            .map(|i| Leaf::new(SerialNumber::from_u24(i + 2), i as u64 + 2))
            .collect();
        let before = leaf_hash_calls();
        assert!(t.apply_sorted_batch(&batch));
        assert_eq!(leaf_hash_calls() - before, 5_000);
    }

    /// The node hashes a full rehash from `front` costs over `n` leaves
    /// when every level is stored, Σ_{k≥1} (len_k − ⌊front/2^k⌋), plus 4:
    /// hashing level 3 from level 0 starts at a multiple of 8 leaves, up to
    /// 3 level-1 and 1 level-2 nodes left of the front.
    fn node_hash_bound(n: usize, front: usize) -> u64 {
        let right_of_front: usize = (1..level_count(n))
            .map(|k| level_len(n, k) - (front >> k))
            .sum();
        right_of_front as u64 + 4
    }

    #[test]
    fn batches_hash_only_the_nodes_right_of_their_front() {
        // Base leaf i has serial (i + 1) << 16; a batch aimed at gap `front`
        // (just before base leaf `front`) sorts there as one run.
        for n in [CHUNK - 1, CHUNK + 1, 3 * CHUNK - 1, 3 * CHUNK + 1] {
            let base =
                PersistentTree::from_sorted_leaves((0..n).map(|i| {
                    Leaf::new(SerialNumber::from_u64(((i + 1) as u64) << 16), i as u64 + 1)
                }));
            for b in [1, CHUNK - 1, CHUNK + 1] {
                for front in [0, n / 2, n] {
                    let batch: Vec<Leaf> = (0..b)
                        .map(|j| {
                            let serial = ((front as u64) << 16) + 1 + j as u64;
                            Leaf::new(SerialNumber::from_u64(serial), (n + j) as u64 + 1)
                        })
                        .collect();
                    let mut t = base.clone();
                    let before = node_hash_calls();
                    assert!(t.apply_sorted_batch(&batch));
                    let spent = node_hash_calls() - before;
                    let bound = node_hash_bound(n + b, front);
                    assert!(
                        spent <= bound,
                        "apply {b} at {front} of {n}: {spent} > {bound}"
                    );

                    let serials: Vec<SerialNumber> = batch.iter().map(|l| l.serial).collect();
                    let before = node_hash_calls();
                    assert_eq!(t.remove_sorted_batch(&serials), b);
                    let spent = node_hash_calls() - before;
                    let bound = node_hash_bound(n, front);
                    assert!(
                        spent <= bound,
                        "remove {b} at {front} of {n}: {spent} > {bound}"
                    );
                    assert_eq!(t.root(), base.root());
                }
            }
        }
    }

    #[test]
    fn rollback_rehashes_no_retained_leaves() {
        // Regression: remove_sorted_batch used to rehash every retained
        // leaf at/after the rehash front — rolling back a small batch near
        // the front cost O(n) leaf hashes. The fixed path splices the
        // still-valid hashes and must compute ZERO leaf hashes.
        let n = 4096u32;
        let base = leaves((0..n).map(|i| i * 2 + 10));
        let mut t = PersistentTree::from_sorted_leaves(base.iter().copied());
        let root_before_batch = t.root();
        // Batch lands near the front of the sort order.
        let batch: Vec<Leaf> = (0..4u32)
            .map(|i| Leaf::new(SerialNumber::from_u24(i * 2 + 11), (n + i) as u64 + 1))
            .collect();
        assert!(t.apply_sorted_batch(&batch));

        let serials: Vec<SerialNumber> = batch.iter().map(|l| l.serial).collect();
        let hashes_before = leaf_hash_calls();
        assert_eq!(t.remove_sorted_batch(&serials), 4);
        assert_eq!(
            leaf_hash_calls() - hashes_before,
            0,
            "rollback must splice retained leaf hashes, not recompute them"
        );
        assert_eq!(t.root(), root_before_batch);
        assert_eq!(t.root(), MerkleTree::from_leaves(base).root());
    }

    #[test]
    fn duplicate_serial_rollback_leaves_no_stale_hash() {
        // Regression: a batch that repeats a present serial takes the
        // unsorted fallback, which keeps both leaves, and a binary search
        // may land on the *later* duplicate. Deriving the rehash front from
        // it left a stale hash at the earlier duplicate's position. Layout
        // [1, 2, 2, 3]: binary search for 2 lands on index 2 while index 1
        // is also removed.
        let mut t = PersistentTree::from_sorted_leaves(leaves([1, 2, 3]));
        let repeat = Leaf::new(SerialNumber::from_u24(2), 4);
        assert!(
            !t.apply_sorted_batch(&[repeat]),
            "a repeat takes the fallback"
        );
        assert_eq!(t.len(), 4);
        assert_eq!(
            t.find(&repeat.serial),
            Some(2),
            "the search hits the later 2"
        );
        assert_eq!(t.remove_sorted_batch(&[repeat.serial]), 2);
        assert_eq!(t.len(), 2);
        // The surviving tree must be bit-identical to a fresh build of the
        // remaining leaves (stale level-0 hashes would change the root).
        assert_matches(&t, &reference_of(&t), &[0, 1]);
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
        let tail = leaves((0..10u32).map(|i| 0x700000 + i));
        let tail: Vec<Leaf> = tail
            .into_iter()
            .enumerate()
            .map(|(i, l)| Leaf::new(l.serial, (4 * CHUNK + 1 + i) as u64))
            .collect();
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
        // nothing, and rolling the batch back out of a clone leaves both
        // snapshots reading every entry they had.
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

        assert!(p.apply_sorted_batch(&batch));
        let before = slots_materialized();
        let republished = p.clone();
        assert_eq!(slots_materialized() - before, 0);

        let serials: Vec<SerialNumber> = batch.iter().map(|l| l.serial).collect();
        let mut rolled_back = republished.clone();
        assert_eq!(rolled_back.remove_sorted_batch(&serials), b);
        assert_eq!(rolled_back.log().len(), n);
        assert_eq!(rolled_back.root(), published.root());
        assert_eq!(published.log().range(0, n), rolled_back.log().range(0, n));
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
        assert_eq!(republished.root(), reference_of(&p).root());
    }
}
