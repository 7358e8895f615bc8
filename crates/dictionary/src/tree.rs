//! The sorted-leaf hash tree underlying RITM's authenticated dictionary.
//!
//! Every leaf is a revoked serial number concatenated with its revocation
//! number (paper §III). Leaves are kept sorted lexicographically by serial so
//! that both presence and absence can be proven with logarithmic-size audit
//! paths. Interior nodes hash their children; an odd node at the end of a
//! level is promoted unchanged (RFC 6962 style), so the tree handles any leaf
//! count.

use crate::parallel::HashPool;
use crate::serial::{SerialNumber, MAX_SERIAL_LEN};
use ritm_crypto::digest::{Digest20, DIGEST_LEN};
use ritm_crypto::sha256;

/// Domain-separation prefix for leaf hashes.
const LEAF_PREFIX: u8 = 0x00;
/// Domain-separation prefix for interior-node hashes.
const NODE_PREFIX: u8 = 0x01;

thread_local! {
    static LEAF_HASHES: core::cell::Cell<u64> = const { core::cell::Cell::new(0) };
}

/// Leaf hashes computed by this thread so far (monotonic; measure work as a
/// delta). Instrumentation for the O(b·log n) complexity regression tests:
/// rollback and incremental batches must never rehash retained leaves.
pub fn leaf_hash_calls() -> u64 {
    LEAF_HASHES.with(core::cell::Cell::get)
}

/// A dictionary leaf: a revoked serial plus its consecutive revocation
/// number (1-based insertion order, paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Leaf {
    /// Serial number of the revoked certificate.
    pub serial: SerialNumber,
    /// Position of this revocation in the CA's issuance order, starting at 1.
    pub number: u64,
}

impl Leaf {
    /// Creates a leaf.
    pub fn new(serial: SerialNumber, number: u64) -> Self {
        Leaf { serial, number }
    }

    /// The domain-separated leaf hash
    /// `H(0x00 ‖ len(serial) ‖ serial ‖ number)`.
    pub fn hash(&self) -> Digest20 {
        LEAF_HASHES.with(|c| c.set(c.get() + 1));
        let serial = self.serial.as_bytes();
        let mut buf = [0u8; 2 + MAX_SERIAL_LEN + 8];
        buf[0] = LEAF_PREFIX;
        buf[1] = serial.len() as u8;
        buf[2..2 + serial.len()].copy_from_slice(serial);
        let end = 2 + serial.len() + 8;
        buf[end - 8..end].copy_from_slice(&self.number.to_be_bytes());
        Digest20::hash(&buf[..end])
    }
}

/// Hashes an interior node from its two children:
/// `H(0x01 ‖ left ‖ right)`.
///
/// The 41-byte message is written straight into its one SHA-256 block,
/// padding included (`0x80`, zeros, bit length 328), so a node costs one
/// compression and no other copy — every tree rehash and every audit-path
/// check is a run of these.
pub fn node_hash(left: &Digest20, right: &Digest20) -> Digest20 {
    const MESSAGE_LEN: usize = 1 + 2 * DIGEST_LEN;
    let mut block = [0u8; sha256::BLOCK_LEN];
    block[0] = NODE_PREFIX;
    block[1..1 + DIGEST_LEN].copy_from_slice(left.as_bytes());
    block[1 + DIGEST_LEN..MESSAGE_LEN].copy_from_slice(right.as_bytes());
    block[MESSAGE_LEN] = 0x80;
    block[sha256::BLOCK_LEN - 8..].copy_from_slice(&(MESSAGE_LEN as u64 * 8).to_be_bytes());
    let full = sha256::digest_padded_block(&block);
    let mut out = [0u8; DIGEST_LEN];
    out.copy_from_slice(&full[..DIGEST_LEN]);
    Digest20::from_bytes(out)
}

/// The root reported for an empty dictionary (no revocations yet).
pub fn empty_root() -> Digest20 {
    Digest20::hash([LEAF_PREFIX, 0xff])
}

/// A Merkle tree over sorted dictionary leaves.
///
/// The tree owns its leaves and caches every interior level so audit paths
/// are O(log n) lookups. Batches can be applied incrementally with
/// [`MerkleTree::apply_sorted_batch`], which only rehashes the node paths at
/// or after the first changed leaf position — for the common append-heavy
/// revocation pattern (fresh serials sort after old ones) that is
/// O(b·log n) per batch of b instead of the O(n) of a full
/// [`MerkleTree::rebuild`].
///
/// Every content change bumps a monotonic [`MerkleTree::epoch`], which
/// snapshot publication orders on.
///
/// # Examples
///
/// ```
/// use ritm_dictionary::{tree::{Leaf, MerkleTree}, SerialNumber};
/// let mut t = MerkleTree::new();
/// t.insert_sorted(Leaf::new(SerialNumber::from_u24(5), 1));
/// t.insert_sorted(Leaf::new(SerialNumber::from_u24(2), 2));
/// t.rebuild();
/// assert_eq!(t.len(), 2);
/// assert!(t.find(&SerialNumber::from_u24(5)).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MerkleTree {
    /// Leaves sorted lexicographically by serial.
    leaves: Vec<Leaf>,
    /// `levels[0]` = leaf hashes, `levels.last()` = `[root]`. Empty for an
    /// empty tree. Invalidated (empty) between `insert_sorted` and `rebuild`.
    levels: Vec<Vec<Digest20>>,
    /// Monotonic content version, bumped by every mutating call.
    epoch: u64,
}

impl MerkleTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        MerkleTree::default()
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// `true` if the tree holds no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The sorted leaves.
    pub fn leaves(&self) -> &[Leaf] {
        &self.leaves
    }

    /// Monotonic content version: bumped by every mutating call, so audit
    /// paths and proofs generated at one epoch remain valid exactly while
    /// `epoch()` is unchanged.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Inserts a leaf preserving the sort order; the interior levels are
    /// invalidated until [`MerkleTree::rebuild`] runs. Duplicate serials are
    /// allowed by the structure (callers reject them at the dictionary
    /// layer).
    pub fn insert_sorted(&mut self, leaf: Leaf) {
        let pos = self.leaves.partition_point(|l| l.serial < leaf.serial);
        self.leaves.insert(pos, leaf);
        self.levels.clear();
        self.epoch += 1;
    }

    /// Bulk-inserts a batch of leaves with one re-sort — O((n+k)·log(n+k))
    /// instead of the O(n·k) of repeated [`MerkleTree::insert_sorted`];
    /// essential for Heartbleed-scale issuance batches. Levels are
    /// invalidated until [`MerkleTree::rebuild`] runs.
    pub fn extend_leaves(&mut self, leaves: impl IntoIterator<Item = Leaf>) {
        self.leaves.extend(leaves);
        self.leaves.sort_by_key(|a| a.serial);
        self.levels.clear();
        self.epoch += 1;
    }

    /// Recomputes all interior levels. Idempotent (does not bump the epoch
    /// unless leaves were invalidated since the last build). Large trees are
    /// hashed on the global [`HashPool`]; use [`MerkleTree::rebuild_with`]
    /// to control the worker count explicitly.
    pub fn rebuild(&mut self) {
        self.rebuild_with(HashPool::global());
    }

    /// [`MerkleTree::rebuild`] on an explicit pool: leaf hashing and each
    /// interior level fan out across the pool's workers (contiguous chunks,
    /// joined in order, so the result is bit-identical to sequential).
    pub fn rebuild_with(&mut self, pool: &HashPool) {
        self.levels.clear();
        if self.leaves.is_empty() {
            return;
        }
        let leaves = &self.leaves;
        self.levels
            .push(pool.map_range(0, leaves.len(), |i| leaves[i].hash()));
        self.rehash_levels_from(0, pool);
    }

    /// Applies a batch of new leaves, rehashing only the node paths at or
    /// after the first changed leaf position. Interior nodes strictly left
    /// of the insertion front are reused, so appending b fresh (largest-yet)
    /// serials into an n-leaf tree costs O(b·log n) hashes instead of the
    /// O(n) of [`MerkleTree::rebuild`].
    ///
    /// The fast path requires the incremental invariants: the tree's levels
    /// are valid, and `batch` is strictly sorted by serial with no serial
    /// already present. When any invariant fails the call falls back to
    /// [`MerkleTree::extend_leaves`] + [`MerkleTree::rebuild`], which is
    /// always correct; the return value reports which path ran (`true` =
    /// incremental).
    pub fn apply_sorted_batch(&mut self, batch: &[Leaf]) -> bool {
        self.apply_sorted_batch_with(batch, HashPool::global())
    }

    /// [`MerkleTree::apply_sorted_batch`] on an explicit pool: the batch's
    /// leaf hashes (and the rehashed interior suffix) fan out across the
    /// pool's workers when the batch is large.
    pub fn apply_sorted_batch_with(&mut self, batch: &[Leaf], pool: &HashPool) -> bool {
        if batch.is_empty() {
            return true;
        }
        let invariants_hold = (self.leaves.is_empty() || !self.levels.is_empty())
            && batch.windows(2).all(|w| w[0].serial < w[1].serial)
            && batch.iter().all(|l| self.find(&l.serial).is_none());
        if !invariants_hold {
            self.extend_leaves(batch.iter().copied());
            self.rebuild_with(pool);
            return false;
        }

        let batch_hashes = pool.map_range(0, batch.len(), |i| batch[i].hash());
        let dirty_from = self.leaves.partition_point(|l| l.serial < batch[0].serial);
        let old_len = self.leaves.len();
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        // Grow both arrays by b and merge from the back: old leaves right of
        // the front move right by the number of batch leaves that sort
        // after them, batch leaves drop into the gaps, and nothing left of
        // `dirty_from` moves. No old leaf is rehashed and no full-size
        // buffer is allocated. A pure append (fresh serials sort after
        // every existing leaf — the common issuance pattern) skips the loop.
        self.leaves.extend_from_slice(batch);
        self.levels[0].extend_from_slice(&batch_hashes);
        let hashes = &mut self.levels[0];
        let (mut old, mut new) = (old_len, batch.len());
        while old > dirty_from {
            let write = old + new - 1;
            if batch[new - 1].serial > self.leaves[old - 1].serial {
                new -= 1;
                self.leaves[write] = batch[new];
                hashes[write] = batch_hashes[new];
            } else {
                old -= 1;
                self.leaves[write] = self.leaves[old];
                hashes[write] = hashes[old];
            }
        }
        // Every moved old leaf sorts after batch[0] (dirty_from is its lower
        // bound), so the batch's head is what remains for the gap.
        self.leaves[dirty_from..dirty_from + new].copy_from_slice(&batch[..new]);
        hashes[dirty_from..dirty_from + new].copy_from_slice(&batch_hashes[..new]);
        self.rehash_levels_from(dirty_from, pool);
        self.epoch += 1;
        true
    }

    /// Removes the leaves carrying `serials` (those present), splicing the
    /// retained leaves' still-valid hashes out of level 0 and rehashing only
    /// the interior nodes at or after the first *removed* position — the
    /// rollback companion to [`MerkleTree::apply_sorted_batch`] used by
    /// verify-then-commit mirrors. No retained leaf is ever rehashed, so
    /// rolling back a batch costs O(moves + interior rehash), never O(n)
    /// leaf hashes. Returns how many leaves were removed.
    pub fn remove_sorted_batch(&mut self, serials: &[SerialNumber]) -> usize {
        // The rehash front is the first removed *position*, not `find(s)`:
        // with duplicate-serial leaves a later duplicate may be hit first,
        // which would leave a stale hash to its left (see rollback_front).
        let Some(first) = rollback_front(
            serials,
            |s| self.leaves.binary_search_by(|l| l.serial.cmp(s)).ok(),
            |i| self.leaves[i].serial,
        ) else {
            return 0;
        };
        let before = self.leaves.len();
        let doomed: std::collections::HashSet<&SerialNumber> = serials.iter().collect();
        if self.levels.is_empty() {
            // Levels were already invalid; leave the rebuild to the caller.
            self.leaves.retain(|l| !doomed.contains(&l.serial));
            self.epoch += 1;
            return before - self.leaves.len();
        }
        // Compact leaves and their level-0 hashes together in one pass from
        // the first removed position.
        let mut write = first;
        for read in first..before {
            let leaf = self.leaves[read];
            if doomed.contains(&leaf.serial) {
                continue;
            }
            self.leaves[write] = leaf;
            self.levels[0][write] = self.levels[0][read];
            write += 1;
        }
        self.leaves.truncate(write);
        self.levels[0].truncate(write);
        let removed = before - write;
        if self.leaves.is_empty() {
            self.levels.clear();
        } else {
            self.rehash_levels_from(first, HashPool::global());
        }
        self.epoch += 1;
        removed
    }

    /// Rebuilds the interior levels above valid level-0 hashes, recomputing
    /// only nodes whose subtree includes a position `>= dirty_from` and
    /// reusing everything to the left. Wide dirty spans within a level are
    /// hashed in parallel on `pool` (each parent node depends only on its
    /// two children, so a level is embarrassingly parallel).
    fn rehash_levels_from(&mut self, mut dirty_from: usize, pool: &HashPool) {
        let mut k = 0;
        while self.levels[k].len() > 1 {
            let child_len = self.levels[k].len();
            let parent_len = child_len.div_ceil(2);
            dirty_from /= 2;
            if self.levels.len() == k + 1 {
                self.levels.push(Vec::with_capacity(parent_len));
            }
            let (children, parents) = self.levels.split_at_mut(k + 1);
            let child = &children[k];
            let parent = &mut parents[0];
            parent.truncate(dirty_from.min(parent_len));
            let fresh = pool.map_range(parent.len(), parent_len, |j| {
                if 2 * j + 1 < child_len {
                    node_hash(&child[2 * j], &child[2 * j + 1])
                } else {
                    child[2 * j] // odd node promoted
                }
            });
            parent.extend(fresh);
            k += 1;
        }
        self.levels.truncate(k + 1);
        debug_assert_eq!(self.levels[0].len(), self.leaves.len());
        debug_assert_eq!(self.levels.last().expect("non-empty").len(), 1);
    }

    /// The current root. For an empty tree this is [`empty_root`].
    ///
    /// # Panics
    ///
    /// Panics if leaves were inserted without a subsequent
    /// [`MerkleTree::rebuild`].
    pub fn root(&self) -> Digest20 {
        if self.leaves.is_empty() {
            return empty_root();
        }
        assert!(
            !self.levels.is_empty(),
            "tree was modified; call rebuild() before root()"
        );
        self.levels.last().expect("non-empty levels")[0]
    }

    /// Binary-searches for `serial`, returning the leaf index if revoked.
    pub fn find(&self, serial: &SerialNumber) -> Option<usize> {
        self.leaves.binary_search_by(|l| l.serial.cmp(serial)).ok()
    }

    /// Index of the first leaf with serial `>= serial` (== `len()` when all
    /// are smaller). Used for absence proofs.
    pub fn lower_bound(&self, serial: &SerialNumber) -> usize {
        self.leaves.partition_point(|l| l.serial < *serial)
    }

    /// The audit path (bottom-up sibling hashes) for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds or the tree needs a rebuild.
    pub fn audit_path(&self, index: usize) -> Vec<Digest20> {
        assert!(index < self.leaves.len(), "leaf index out of bounds");
        assert!(
            !self.levels.is_empty(),
            "call rebuild() before audit_path()"
        );
        let mut path = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = idx ^ 1;
            if sibling < level.len() {
                path.push(level[sibling]);
            }
            idx /= 2;
        }
        path
    }

    /// The cached hashes of `level` (0 = leaf hashes); used by the
    /// multiproof generator to read sibling nodes directly.
    ///
    /// # Panics
    ///
    /// Panics if the tree needs a rebuild or `level` is out of range.
    pub(crate) fn level_hashes(&self, level: usize) -> &[Digest20] {
        assert!(
            !self.levels.is_empty(),
            "call rebuild() before reading level hashes"
        );
        &self.levels[level]
    }

    /// Approximate heap usage of the interior levels plus leaf storage, for
    /// the §VII-D storage/memory experiment.
    pub fn memory_bytes(&self) -> usize {
        let node_bytes: usize = self
            .levels
            .iter()
            .map(|l| l.len() * core::mem::size_of::<Digest20>())
            .sum();
        node_bytes + self.leaves.len() * core::mem::size_of::<Leaf>()
    }

    /// Bytes needed to persist just the revocation data (serial bytes plus
    /// an 8-byte revocation number per entry) — the paper's "storage"
    /// metric.
    pub fn storage_bytes(&self) -> usize {
        self.leaves.iter().map(|l| l.serial.len() + 8).sum()
    }
}

/// Derives the rollback rehash front: the first *position* any of
/// `serials` occupies, walking each binary-search hit back over
/// duplicate-serial leaves (allowed by the structure) so no removed
/// position can lie left of the front. Shared by the dense and persistent
/// `remove_sorted_batch` implementations — the walk-back subtlety must
/// never diverge between them. `search` is the tree's binary search;
/// `serial_at` reads the leaf serial at an index.
pub(crate) fn rollback_front(
    serials: &[SerialNumber],
    search: impl Fn(&SerialNumber) -> Option<usize>,
    serial_at: impl Fn(usize) -> SerialNumber,
) -> Option<usize> {
    let mut first = usize::MAX;
    for s in serials {
        if let Some(mut i) = search(s) {
            while i > 0 && serial_at(i - 1) == *s {
                i -= 1;
            }
            first = first.min(i);
        }
    }
    (first != usize::MAX).then_some(first)
}

/// Read access to a proof-ready sorted-leaf hash tree.
///
/// Proof generation ([`crate::proof::RevocationProof::generate`],
/// [`crate::proof::MultiProof::generate`]) is written against this trait so
/// it works identically over the dense [`MerkleTree`] (CA side) and the
/// structurally-shared [`crate::persistent::PersistentTree`] (mirror /
/// snapshot side).
pub trait TreeReader {
    /// Number of leaves.
    fn len(&self) -> usize;

    /// `true` when the tree holds no leaves.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The leaf at `index` (sorted order).
    fn leaf(&self, index: usize) -> Leaf;

    /// Index of `serial`'s leaf, if revoked.
    fn find(&self, serial: &SerialNumber) -> Option<usize>;

    /// Index of the first leaf with serial `>= serial`.
    fn lower_bound(&self, serial: &SerialNumber) -> usize;

    /// Bottom-up sibling hashes for leaf `index`.
    fn audit_path(&self, index: usize) -> Vec<Digest20>;

    /// The cached hash at `(level, index)` (level 0 = leaf hashes).
    fn level_node(&self, level: usize, index: usize) -> Digest20;
}

impl TreeReader for MerkleTree {
    fn len(&self) -> usize {
        MerkleTree::len(self)
    }

    fn leaf(&self, index: usize) -> Leaf {
        self.leaves[index]
    }

    fn find(&self, serial: &SerialNumber) -> Option<usize> {
        MerkleTree::find(self, serial)
    }

    fn lower_bound(&self, serial: &SerialNumber) -> usize {
        MerkleTree::lower_bound(self, serial)
    }

    fn audit_path(&self, index: usize) -> Vec<Digest20> {
        MerkleTree::audit_path(self, index)
    }

    fn level_node(&self, level: usize, index: usize) -> Digest20 {
        self.level_hashes(level)[index]
    }
}

/// Recomputes a root from a leaf hash and its audit path.
///
/// Returns `None` when the path length is inconsistent with `(index, size)`.
pub fn root_from_path(
    index: usize,
    size: usize,
    leaf_hash: Digest20,
    path: &[Digest20],
) -> Option<Digest20> {
    if index >= size || size == 0 {
        return None;
    }
    let mut idx = index;
    let mut level_len = size;
    let mut hash = leaf_hash;
    let mut elems = path.iter();
    while level_len > 1 {
        let sibling = idx ^ 1;
        if sibling < level_len {
            let sib = elems.next()?;
            hash = if idx.is_multiple_of(2) {
                node_hash(&hash, sib)
            } else {
                node_hash(sib, &hash)
            };
        }
        idx /= 2;
        level_len = level_len.div_ceil(2);
    }
    if elems.next().is_some() {
        return None;
    }
    Some(hash)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(serials: &[u32]) -> MerkleTree {
        let mut t = MerkleTree::new();
        for (i, s) in serials.iter().enumerate() {
            t.insert_sorted(Leaf::new(SerialNumber::from_u24(*s), i as u64 + 1));
        }
        t.rebuild();
        t
    }

    #[test]
    fn empty_tree_has_defined_root() {
        let t = MerkleTree::new();
        assert_eq!(t.root(), empty_root());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = tree_with(&[42]);
        assert_eq!(t.root(), t.leaves()[0].hash());
    }

    #[test]
    fn leaves_stay_sorted() {
        let t = tree_with(&[9, 1, 5, 3, 7]);
        let serials: Vec<_> = t.leaves().iter().map(|l| l.serial).collect();
        let mut sorted = serials.clone();
        sorted.sort();
        assert_eq!(serials, sorted);
    }

    #[test]
    fn insertion_order_preserved_in_numbers() {
        let t = tree_with(&[9, 1, 5]);
        // serial 1 was inserted second -> number 2.
        let idx = t.find(&SerialNumber::from_u24(1)).unwrap();
        assert_eq!(t.leaves()[idx].number, 2);
    }

    #[test]
    fn root_changes_on_insert() {
        let a = tree_with(&[1, 2, 3]);
        let b = tree_with(&[1, 2, 3, 4]);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn audit_paths_verify_for_all_sizes() {
        for n in 1..=33u32 {
            let serials: Vec<u32> = (0..n).map(|i| i * 3 + 1).collect();
            let t = tree_with(&serials);
            for i in 0..t.len() {
                let path = t.audit_path(i);
                let got = root_from_path(i, t.len(), t.leaves()[i].hash(), &path);
                assert_eq!(got, Some(t.root()), "n = {n}, i = {i}");
            }
        }
    }

    #[test]
    fn audit_path_rejects_wrong_index() {
        let t = tree_with(&[1, 2, 3, 4, 5]);
        let path = t.audit_path(2);
        let h = t.leaves()[2].hash();
        // Right leaf hash, wrong claimed index.
        let got = root_from_path(3, t.len(), h, &path);
        assert_ne!(got, Some(t.root()));
    }

    #[test]
    fn audit_path_rejects_truncated_path() {
        let t = tree_with(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut path = t.audit_path(0);
        path.pop();
        assert_eq!(
            root_from_path(0, t.len(), t.leaves()[0].hash(), &path),
            None
        );
    }

    #[test]
    fn audit_path_rejects_extended_path() {
        let t = tree_with(&[1, 2, 3, 4]);
        let mut path = t.audit_path(0);
        path.push(Digest20::hash(b"extra"));
        assert_eq!(
            root_from_path(0, t.len(), t.leaves()[0].hash(), &path),
            None
        );
    }

    #[test]
    fn root_from_path_bounds() {
        assert_eq!(root_from_path(0, 0, Digest20::ZERO, &[]), None);
        assert_eq!(root_from_path(5, 5, Digest20::ZERO, &[]), None);
    }

    #[test]
    fn leaf_hash_depends_on_number() {
        let s = SerialNumber::from_u24(7);
        assert_ne!(Leaf::new(s, 1).hash(), Leaf::new(s, 2).hash());
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A leaf hash must never equal an interior hash of the same bytes.
        let a = Digest20::hash(b"a");
        let b = Digest20::hash(b"b");
        let node = node_hash(&a, &b);
        let mut concat = Vec::new();
        concat.extend_from_slice(a.as_bytes());
        concat.extend_from_slice(b.as_bytes());
        assert_ne!(node, Digest20::hash(&concat));
    }

    #[test]
    fn node_hash_is_the_prefixed_pair_digest() {
        // The hand-padded block must hash exactly the 41-byte message.
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x4e4f_4445);
        for i in 0..10_000 {
            let mut pair = [0u8; 2 * DIGEST_LEN];
            rng.fill_bytes(&mut pair);
            let left = Digest20::from_bytes(pair[..DIGEST_LEN].try_into().unwrap());
            let right = Digest20::from_bytes(pair[DIGEST_LEN..].try_into().unwrap());
            let mut message = vec![NODE_PREFIX];
            message.extend_from_slice(&pair);
            assert_eq!(
                node_hash(&left, &right),
                Digest20::hash(&message),
                "pair {i}"
            );
        }
    }

    #[test]
    fn storage_accounting() {
        let t = tree_with(&[1, 2, 3, 4]);
        // 4 leaves × (3-byte serial + 8-byte number)
        assert_eq!(t.storage_bytes(), 4 * 11);
        assert!(t.memory_bytes() > t.storage_bytes());
    }

    #[test]
    #[should_panic(expected = "rebuild")]
    fn stale_root_panics() {
        let mut t = tree_with(&[1]);
        t.insert_sorted(Leaf::new(SerialNumber::from_u24(2), 2));
        let _ = t.root();
    }

    #[test]
    fn parallel_rebuild_matches_sequential() {
        // Above PAR_THRESHOLD leaves so the pool actually fans out; the
        // parallel chunking must be invisible in the resulting tree.
        let n = crate::parallel::PAR_THRESHOLD as u32 + 513;
        let mut seq = MerkleTree::new();
        seq.extend_leaves((0..n).map(|i| Leaf::new(SerialNumber::from_u24(i * 2), i as u64 + 1)));
        let mut par = seq.clone();
        seq.rebuild_with(&HashPool::sequential());
        par.rebuild_with(&HashPool::new(4));
        assert_eq!(seq.root(), par.root());
        for i in [0usize, 1, 4095, 4096, n as usize - 1] {
            assert_eq!(seq.audit_path(i), par.audit_path(i), "path {i}");
        }

        // Incremental batches through a multi-worker pool stay identical too.
        let batch: Vec<Leaf> = (0..crate::parallel::PAR_THRESHOLD as u32 + 11)
            .map(|i| Leaf::new(SerialNumber::from_u24(n * 2 + 1 + i), (n + i) as u64 + 1))
            .collect();
        assert!(seq.apply_sorted_batch_with(&batch, &HashPool::sequential()));
        assert!(par.apply_sorted_batch_with(&batch, &HashPool::new(4)));
        assert_eq!(seq.root(), par.root());
    }

    #[test]
    fn rollback_rehashes_no_retained_leaves() {
        // Regression: remove_sorted_batch used to rehash every retained
        // leaf at/after the rehash front — rolling back a small batch near
        // the front cost O(n) leaf hashes. The fixed path splices the
        // still-valid hashes and must compute ZERO leaf hashes.
        let n = 4096u32;
        let mut t = tree_with(&(0..n).map(|i| i * 2 + 10).collect::<Vec<_>>());
        // Batch lands near the front of the sort order.
        let batch: Vec<Leaf> = (0..4u32)
            .map(|i| Leaf::new(SerialNumber::from_u24(i * 2 + 11), (n + i) as u64 + 1))
            .collect();
        assert!(t.apply_sorted_batch(&batch));
        let root_before_batch = tree_with(&(0..n).map(|i| i * 2 + 10).collect::<Vec<_>>()).root();

        let serials: Vec<SerialNumber> = batch.iter().map(|l| l.serial).collect();
        let hashes_before = leaf_hash_calls();
        assert_eq!(t.remove_sorted_batch(&serials), 4);
        assert_eq!(
            leaf_hash_calls() - hashes_before,
            0,
            "rollback must splice retained leaf hashes, not recompute them"
        );
        assert_eq!(t.root(), root_before_batch);
    }

    #[test]
    fn duplicate_serial_rollback_leaves_no_stale_hash() {
        // Regression: `insert_sorted` allows duplicate serials, and a
        // binary search may land on the *later* duplicate. Deriving the
        // rehash front from it left a stale hash at the earlier duplicate's
        // position. Layout [1, 2, 2, 3]: binary search for 2 lands on
        // index 2 while index 1 is also removed.
        let mut t = MerkleTree::new();
        for (i, s) in [1u32, 2, 2, 3].iter().enumerate() {
            t.insert_sorted(Leaf::new(SerialNumber::from_u24(*s), i as u64 + 1));
        }
        t.rebuild();
        assert_eq!(t.remove_sorted_batch(&[SerialNumber::from_u24(2)]), 2);
        assert_eq!(t.len(), 2);
        // The surviving tree must be bit-identical to a fresh build of the
        // remaining leaves (stale level-0 hashes would change the root).
        let mut reference = MerkleTree::new();
        reference.extend_leaves(t.leaves().iter().copied());
        reference.rebuild();
        assert_eq!(t.root(), reference.root());
        assert_eq!(t.audit_path(0), reference.audit_path(0));
        assert_eq!(t.audit_path(1), reference.audit_path(1));
    }

    #[test]
    fn rebuild_is_idempotent() {
        let mut t = tree_with(&[5, 6, 7]);
        let r = t.root();
        t.rebuild();
        assert_eq!(t.root(), r);
    }
}
