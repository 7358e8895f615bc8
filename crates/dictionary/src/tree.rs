//! The sorted-leaf hash tree underlying RITM's authenticated dictionary.
//!
//! Every leaf is a revoked serial number concatenated with its revocation
//! number (paper §III). Leaves are kept sorted lexicographically by serial so
//! that both presence and absence can be proven with logarithmic-size audit
//! paths. Interior nodes hash their children; an odd node at the end of a
//! level is promoted unchanged (RFC 6962 style), so the tree handles any leaf
//! count.
//!
//! This module holds what every tree shares: the leaf and node hashes,
//! [`root_from_path`], and the [`TreeReader`] trait proofs are generated
//! against. Both dictionaries write through
//! [`crate::persistent::PersistentTree`]; [`MerkleTree`] here is the
//! built-once reference tests compare it with.

use crate::serial::{SerialNumber, MAX_SERIAL_LEN};
use ritm_crypto::digest::{Digest20, DIGEST_LEN};
use ritm_crypto::sha256;

/// Domain-separation prefix for leaf hashes.
const LEAF_PREFIX: u8 = 0x00;
/// Domain-separation prefix for interior-node hashes.
const NODE_PREFIX: u8 = 0x01;

thread_local! {
    static LEAF_HASHES: core::cell::Cell<u64> = const { core::cell::Cell::new(0) };
    static NODE_HASHES: core::cell::Cell<u64> = const { core::cell::Cell::new(0) };
}

/// Leaf hashes computed by this thread so far (monotonic; measure work as a
/// delta). Instrumentation for the O(b·log n) complexity regression tests:
/// rollback and incremental batches must never rehash retained leaves.
pub fn leaf_hash_calls() -> u64 {
    LEAF_HASHES.with(core::cell::Cell::get)
}

/// Interior-node hashes ([`node_hash`]) computed by this thread so far
/// (monotonic; measure work as a delta): a batch must rehash only the
/// nodes at or right of its front.
pub fn node_hash_calls() -> u64 {
    NODE_HASHES.with(core::cell::Cell::get)
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

/// A leaf equals a borrowed leaf with the same serial and number, so the
/// by-value leaves of [`crate::PersistentTree::iter_leaves`] compare with a
/// slice of leaves.
impl PartialEq<&Leaf> for Leaf {
    fn eq(&self, other: &&Leaf) -> bool {
        self == *other
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
    NODE_HASHES.with(|c| c.set(c.get() + 1));
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

/// A Merkle tree over sorted dictionary leaves, built once and then only
/// read: the reference the dictionaries' [`PersistentTree`] is tested
/// against.
///
/// [`MerkleTree::from_leaves`] sorts the leaves and hashes every level with
/// the definition alone (pair, promote the odd node, repeat), so its roots,
/// audit paths and proofs are what any incremental write path must
/// reproduce.
///
/// [`PersistentTree`]: crate::persistent::PersistentTree
///
/// # Examples
///
/// ```
/// use ritm_dictionary::{tree::{Leaf, MerkleTree}, SerialNumber};
/// let t = MerkleTree::from_leaves([
///     Leaf::new(SerialNumber::from_u24(5), 1),
///     Leaf::new(SerialNumber::from_u24(2), 2),
/// ]);
/// assert_eq!(t.len(), 2);
/// assert!(t.find(&SerialNumber::from_u24(5)).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MerkleTree {
    /// Leaves sorted lexicographically by serial.
    leaves: Vec<Leaf>,
    /// `levels[0]` = leaf hashes, `levels.last()` = `[root]`; empty for an
    /// empty tree.
    levels: Vec<Vec<Digest20>>,
}

impl MerkleTree {
    /// Sorts `leaves` by serial (stably, so duplicate serials keep their
    /// order) and hashes every level.
    pub fn from_leaves(leaves: impl IntoIterator<Item = Leaf>) -> Self {
        let mut leaves: Vec<Leaf> = leaves.into_iter().collect();
        leaves.sort_by_key(|l| l.serial);
        let mut level: Vec<Digest20> = leaves.iter().map(Leaf::hash).collect();
        let mut levels = Vec::new();
        while level.len() > 1 {
            let parent = level
                .chunks(2)
                .map(|pair| match *pair {
                    [left, right] => node_hash(&left, &right),
                    [odd] => odd, // odd node promoted
                    _ => unreachable!("chunks(2)"),
                })
                .collect();
            levels.push(core::mem::replace(&mut level, parent));
        }
        if !level.is_empty() {
            levels.push(level);
        }
        MerkleTree { leaves, levels }
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

    /// The root. For an empty tree this is [`empty_root`].
    pub fn root(&self) -> Digest20 {
        self.levels.last().map_or_else(empty_root, |top| top[0])
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
    /// Panics if `index` is out of bounds.
    pub fn audit_path(&self, index: usize) -> Vec<Digest20> {
        assert!(index < self.leaves.len(), "leaf index out of bounds");
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
}

/// Read access to a proof-ready sorted-leaf hash tree.
///
/// Proof generation ([`crate::proof::RevocationProof::generate`],
/// [`crate::proof::MultiProof::generate`]) is written against this trait so
/// it works identically over the dictionaries'
/// [`crate::persistent::PersistentTree`] and the reference [`MerkleTree`].
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

    /// The node hash at `(level, index)` (level 0 = leaf hashes), read
    /// from storage or computed from the levels below it.
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
        self.levels[level][index]
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
        MerkleTree::from_leaves(
            serials
                .iter()
                .zip(1..)
                .map(|(s, n)| Leaf::new(SerialNumber::from_u24(*s), n)),
        )
    }

    #[test]
    fn empty_tree_has_defined_root() {
        let t = MerkleTree::default();
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
    fn rebuild_is_idempotent() {
        let t = tree_with(&[5, 6, 7]);
        let rebuilt = MerkleTree::from_leaves(t.leaves().iter().copied());
        assert_eq!(rebuilt.root(), t.root());
        assert_eq!(rebuilt.leaves(), t.leaves());
    }
}
