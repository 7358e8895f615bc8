//! The hash tree underlying RITM's authenticated dictionary: a binary
//! crit-bit (Patricia) trie over the revoked serials.
//!
//! Every leaf is a revoked serial number concatenated with its revocation
//! number (paper §III). The trie keys each serial by its bits
//! ([`SerialNumber::key_bit`]: each byte as `1‖b`, then a final `0`), and
//! each internal node splits its leaves at the first bit where they differ.
//! So the leaves read left to right in serial order, as the paper's sorted
//! tree keeps them, and the shape — hence the root — depends only on the
//! set of leaves, never on the order or the batches they arrived in. A
//! leaf hashes as `H(0x00 ‖ len ‖ serial ‖ number)` and a node as
//! `H(0x01 ‖ left ‖ right)`.
//!
//! This module holds what every tree shares: the hashes, [`Path`], and the
//! [`TreeReader`] trait proofs are generated against. Both dictionaries
//! write through [`crate::persistent::PersistentTree`]; [`MerkleTree`] here
//! is the built-once reference tests compare it with.

use crate::serial::SerialNumber;
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
/// delta). Instrumentation for the complexity regression tests: a bulk load
/// hashes each leaf once, on the calling thread.
pub fn leaf_hash_calls() -> u64 {
    LEAF_HASHES.with(core::cell::Cell::get)
}

/// Interior-node hashes ([`node_hash`]) computed by this thread so far
/// (monotonic; measure work as a delta): a batch must rehash only the
/// nodes on its serials' paths, each once.
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
    /// `H(0x00 ‖ len(serial) ‖ serial ‖ number)`: at most 30 bytes, hashed
    /// in one block like [`node_hash`]'s message. Proofs hash the leaves
    /// under small subtrees on demand, so this is on the read path.
    pub fn hash(&self) -> Digest20 {
        LEAF_HASHES.with(|c| c.set(c.get() + 1));
        let serial = self.serial.as_bytes();
        let mut block = [0u8; sha256::BLOCK_LEN];
        block[0] = LEAF_PREFIX;
        block[1] = serial.len() as u8;
        block[2..2 + serial.len()].copy_from_slice(serial);
        let end = 2 + serial.len() + 8;
        block[end - 8..end].copy_from_slice(&self.number.to_be_bytes());
        one_block(block, end)
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
    let mut block = [0u8; sha256::BLOCK_LEN];
    block[0] = NODE_PREFIX;
    block[1..1 + DIGEST_LEN].copy_from_slice(left.as_bytes());
    block[1 + DIGEST_LEN..1 + 2 * DIGEST_LEN].copy_from_slice(right.as_bytes());
    one_block(block, 1 + 2 * DIGEST_LEN)
}

/// The truncated digest of the `len`-byte message at the front of
/// `block` (zero past it, `len` at most 55): its padding written in place,
/// one compression.
fn one_block(mut block: [u8; sha256::BLOCK_LEN], len: usize) -> Digest20 {
    block[len] = 0x80;
    block[sha256::BLOCK_LEN - 8..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
    let full = sha256::digest_padded_block(&block);
    let mut out = [0u8; DIGEST_LEN];
    out.copy_from_slice(&full[..DIGEST_LEN]);
    Digest20::from_bytes(out)
}

/// The root reported for an empty dictionary (no revocations yet).
pub fn empty_root() -> Digest20 {
    Digest20::hash([LEAF_PREFIX, 0xff])
}

/// Bytes of a [`Path`]: room for the 181 key bits of a 20-byte serial, more
/// than any trie over such keys is deep.
const PATH_BYTES: usize = 23;

/// A node's address: the directions from the root, `false` for left, packed
/// most significant bit first. Paths order as their nodes do left to right
/// (a path before the paths it prefixes); bits past `len` are always zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Path {
    bits: [u8; PATH_BYTES],
    len: u8,
}

impl Path {
    /// The most directions a path holds.
    pub const MAX_LEN: usize = 8 * PATH_BYTES;

    /// The path of `len` directions packed in `bytes`, or `None` unless
    /// `bytes` is exactly `len.div_ceil(8)` long with zero padding bits —
    /// every path has one encoding.
    pub fn from_packed(len: usize, bytes: &[u8]) -> Option<Self> {
        let mut path = Path::default();
        if len > Self::MAX_LEN || bytes.len() != len.div_ceil(8) {
            return None;
        }
        path.bits[..bytes.len()].copy_from_slice(bytes);
        path.len = len as u8;
        (path
            .packed()
            .last()
            .map_or(0, |b| b.trailing_zeros() as usize)
            >= 8 * bytes.len() - len)
            .then_some(path)
    }

    /// The directions, packed as [`Path::from_packed`] reads them.
    pub fn packed(&self) -> &[u8] {
        &self.bits[..self.len().div_ceil(8)]
    }

    /// Number of directions.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` for the root's path.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Direction `i`: `true` for right (`false` past the end).
    pub fn bit(&self, i: usize) -> bool {
        i < self.len() && self.bits[i / 8] & (0x80 >> (i % 8)) != 0
    }

    /// Appends one direction.
    ///
    /// # Panics
    ///
    /// Panics when the path already holds [`Path::MAX_LEN`] directions.
    pub fn push(&mut self, right: bool) {
        let i = self.len();
        assert!(i < Self::MAX_LEN, "path deeper than any trie");
        self.bits[i / 8] |= u8::from(right) << (7 - i % 8);
        self.len += 1;
    }

    /// The first `len` directions.
    pub fn prefix(mut self, len: usize) -> Self {
        while self.len() > len {
            self.len -= 1;
            self.bits[self.len() / 8] &= !(0x80 >> (self.len() % 8));
        }
        self
    }

    /// This path continued with `right` up to [`Path::MAX_LEN`]: where a
    /// walk from its last node turning `right` at every node ends.
    pub fn toward(mut self, right: bool) -> Self {
        let at = self.len();
        if right && at < Self::MAX_LEN {
            self.bits[at / 8] |= 0xff >> (at % 8);
            self.bits[at / 8 + 1..].fill(0xff);
        }
        self.len = Self::MAX_LEN as u8;
        self
    }

    /// `true` when every direction is `right`: the path of the leftmost
    /// (`false`) or rightmost (`true`) leaf under the root.
    pub fn all(&self, right: bool) -> bool {
        (0..self.len()).all(|i| self.bit(i) == right)
    }
}

/// Read access to a proof-ready crit-bit trie: what proofs are generated
/// against, over the dictionaries' [`crate::persistent::PersistentTree`]
/// and the reference [`MerkleTree`] alike.
pub trait TreeReader {
    /// A handle on one node, leaf or internal.
    type Node: Copy;

    /// Number of leaves.
    fn len(&self) -> usize;

    /// `true` when the tree holds no leaves.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The root node; `None` for an empty tree.
    fn top(&self) -> Option<Self::Node>;

    /// An internal node's crit bit and `[left, right]` children; `None` for
    /// a leaf.
    fn split(&self, node: Self::Node) -> Option<(usize, [Self::Node; 2])>;

    /// The leaf at a leaf node.
    fn leaf(&self, node: Self::Node) -> Leaf;

    /// The node's hash, read from storage or computed from below.
    fn digest(&self, node: Self::Node) -> Digest20;

    /// The root hash ([`empty_root`] for an empty tree).
    fn root(&self) -> Digest20 {
        self.top().map_or_else(empty_root, |top| self.digest(top))
    }

    /// Walks from the root, turning `next(crit)` at every node, to a leaf;
    /// returns the leaf's node and path. `None` for an empty tree.
    fn descend(&self, mut next: impl FnMut(usize) -> bool) -> Option<(Self::Node, Path)> {
        let (mut at, mut path) = (self.top()?, Path::default());
        while let Some((crit, children)) = self.split(at) {
            let right = next(crit);
            path.push(right);
            at = children[usize::from(right)];
        }
        Some((at, path))
    }

    /// `serial`'s leaf, if revoked: one walk along its key bits and one
    /// comparison.
    fn find(&self, serial: &SerialNumber) -> Option<Leaf> {
        let (at, _) = self.descend(|crit| serial.key_bit(crit))?;
        Some(self.leaf(at)).filter(|l| l.serial == *serial)
    }
}

/// A crit-bit trie over dictionary leaves, built once and then only read:
/// the reference the dictionaries' [`PersistentTree`] is tested against.
///
/// [`MerkleTree::from_leaves`] sorts the leaves and splits them recursively
/// at the first bit where they differ, hashing every node with the
/// definition alone, so its roots and proofs are what any incremental write
/// path must reproduce.
///
/// [`PersistentTree`]: crate::persistent::PersistentTree
///
/// # Examples
///
/// ```
/// use ritm_dictionary::tree::{Leaf, MerkleTree, TreeReader};
/// use ritm_dictionary::SerialNumber;
/// let t = MerkleTree::from_leaves([
///     Leaf::new(SerialNumber::from_u24(5), 1),
///     Leaf::new(SerialNumber::from_u24(2), 2),
/// ]);
/// assert_eq!(t.len(), 2);
/// assert!(t.find(&SerialNumber::from_u24(5)).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MerkleTree {
    /// Leaves sorted by serial.
    leaves: Vec<Leaf>,
    /// Every node with its hash; the root last.
    nodes: Vec<(RefNode, Digest20)>,
}

/// A [`MerkleTree`] node: a leaf's index, or a crit bit and the indices of
/// two nodes.
#[derive(Debug, Clone, Copy)]
enum RefNode {
    Leaf(usize),
    Inner(usize, [usize; 2]),
}

impl MerkleTree {
    /// Sorts `leaves` by serial and builds the trie over them.
    ///
    /// # Panics
    ///
    /// Panics when two leaves share a serial.
    pub fn from_leaves(leaves: impl IntoIterator<Item = Leaf>) -> Self {
        let mut leaves: Vec<Leaf> = leaves.into_iter().collect();
        leaves.sort_by_key(|l| l.serial);
        assert!(
            leaves.windows(2).all(|w| w[0].serial != w[1].serial),
            "a trie holds each serial once"
        );
        let mut tree = MerkleTree {
            leaves,
            nodes: Vec::new(),
        };
        if !tree.leaves.is_empty() {
            tree.build(0, tree.leaves.len());
        }
        tree
    }

    /// Builds the subtree over `leaves[from..to]`, returning its node.
    fn build(&mut self, from: usize, to: usize) -> usize {
        let node = if to - from == 1 {
            (RefNode::Leaf(from), self.leaves[from].hash())
        } else {
            let crit = self.leaves[from]
                .serial
                .crit_bit(&self.leaves[to - 1].serial);
            let mid = from + self.leaves[from..to].partition_point(|l| !l.serial.key_bit(crit));
            let children = [self.build(from, mid), self.build(mid, to)];
            let digest = node_hash(&self.nodes[children[0]].1, &self.nodes[children[1]].1);
            (RefNode::Inner(crit, children), digest)
        };
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// The sorted leaves.
    pub fn leaves(&self) -> &[Leaf] {
        &self.leaves
    }
}

impl TreeReader for MerkleTree {
    type Node = usize;

    fn len(&self) -> usize {
        self.leaves.len()
    }

    fn top(&self) -> Option<usize> {
        self.nodes.len().checked_sub(1)
    }

    fn split(&self, node: usize) -> Option<(usize, [usize; 2])> {
        match self.nodes[node].0 {
            RefNode::Leaf(_) => None,
            RefNode::Inner(crit, children) => Some((crit, children)),
        }
    }

    fn leaf(&self, node: usize) -> Leaf {
        match self.nodes[node].0 {
            RefNode::Leaf(i) => self.leaves[i],
            RefNode::Inner(..) => panic!("not a leaf"),
        }
    }

    fn digest(&self, node: usize) -> Digest20 {
        self.nodes[node].1
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::proof::{MultiProof, ProofError, ProvenStatus};

    fn tree_with(serials: &[u32]) -> MerkleTree {
        MerkleTree::from_leaves(
            serials
                .iter()
                .zip(1..)
                .map(|(s, n)| Leaf::new(SerialNumber::from_u24(*s), n)),
        )
    }

    /// The leaves under `node`, left to right.
    pub(crate) fn in_order<T: TreeReader>(t: &T, node: Option<T::Node>) -> Vec<Leaf> {
        match node.map(|n| (n, t.split(n))) {
            None => Vec::new(),
            Some((n, None)) => vec![t.leaf(n)],
            Some((_, Some((_, [left, right])))) => {
                let mut out = in_order(t, Some(left));
                out.extend(in_order(t, Some(right)));
                out
            }
        }
    }

    /// The audit path of the leaf for `serial`: its one-leaf proof.
    fn audit_path(t: &MerkleTree, serial: u32) -> MultiProof {
        let proof = MultiProof::generate(t, &[SerialNumber::from_u24(serial)]);
        assert_eq!(proof.leaves.len(), 1);
        proof
    }

    /// What `proof` proves about `serial` against `t`'s root.
    fn verdict(
        t: &MerkleTree,
        proof: &MultiProof,
        serial: u32,
    ) -> Result<ProvenStatus, ProofError> {
        let statuses =
            proof.verify(&[SerialNumber::from_u24(serial)], &t.root(), t.len() as u64)?;
        Ok(statuses[0])
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
        assert_eq!(in_order(&t, t.top()), t.leaves(), "in-order walk");
    }

    #[test]
    fn insertion_order_preserved_in_numbers() {
        let t = tree_with(&[9, 1, 5]);
        // serial 1 was inserted second -> number 2.
        assert_eq!(t.find(&SerialNumber::from_u24(1)).unwrap().number, 2);
        assert_eq!(t.find(&SerialNumber::from_u24(2)), None);
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
            for (i, &s) in serials.iter().enumerate() {
                let proof = audit_path(&t, s);
                let number = i as u64 + 1;
                assert_eq!(verdict(&t, &proof, s), Ok(ProvenStatus::Revoked { number }));
                // The path is the leaf's directions: one sibling per turn.
                assert_eq!(proof.leaves[0].0.len(), proof.siblings.len(), "n = {n}");
            }
        }
    }

    #[test]
    fn audit_path_rejects_wrong_index() {
        // The right leaf with its siblings, at another leaf's address.
        let t = tree_with(&[1, 2, 3, 4, 5]);
        let mut proof = audit_path(&t, 3);
        proof.leaves[0].0 = audit_path(&t, 4).leaves[0].0;
        assert!(verdict(&t, &proof, 3).is_err());
    }

    #[test]
    fn audit_path_rejects_truncated_path() {
        let t = tree_with(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut proof = audit_path(&t, 1);
        proof.siblings.pop();
        assert_eq!(verdict(&t, &proof, 1), Err(ProofError::MalformedPath));
    }

    #[test]
    fn audit_path_rejects_extended_path() {
        let t = tree_with(&[1, 2, 3, 4]);
        let mut proof = audit_path(&t, 1);
        proof.siblings.push(Digest20::hash(b"extra"));
        assert_eq!(verdict(&t, &proof, 1), Err(ProofError::MalformedPath));
        // A path that runs on past its leaf names an internal node instead.
        let mut proof = audit_path(&t, 1);
        proof.leaves[0].0.push(false);
        assert!(verdict(&t, &proof, 1).is_err());
    }

    #[test]
    fn root_from_path_bounds() {
        // A path is at most `Path::MAX_LEN` directions, packed in exactly
        // the bytes they need with zero padding.
        assert_eq!(Path::from_packed(0, &[]), Some(Path::default()));
        assert_eq!(Path::from_packed(1, &[0x80]).map(|p| p.bit(0)), Some(true));
        assert_eq!(Path::from_packed(1, &[0x40]), None, "padding bit set");
        assert_eq!(Path::from_packed(9, &[0]), None, "a byte short");
        assert_eq!(Path::from_packed(8, &[0, 0]), None, "a byte over");
        let full = [0xff; PATH_BYTES];
        assert!(Path::from_packed(Path::MAX_LEN, &full).is_some_and(|p| p.all(true)));
        assert_eq!(
            Path::from_packed(Path::MAX_LEN + 1, &[0; PATH_BYTES + 1]),
            None
        );
        // No leaf folds to the root of an empty tree, and a non-empty tree
        // needs one.
        let proof = audit_path(&tree_with(&[1]), 1);
        let empty = MultiProof::default();
        let q = [SerialNumber::from_u24(1)];
        assert!(proof.verify(&q, &empty_root(), 0).is_err());
        assert!(empty.verify(&q, &tree_with(&[1]).root(), 1).is_err());
    }

    #[test]
    fn paths_order_like_their_nodes() {
        let path = |bits: &[bool]| {
            let mut p = Path::default();
            bits.iter().for_each(|&b| p.push(b));
            p
        };
        let (l, lr, r) = (path(&[false]), path(&[false, true]), path(&[true]));
        assert!(l < lr && lr < r);
        assert_eq!(lr.prefix(1), l);
        assert!(path(&[true, true]).all(true) && path(&[]).all(false));
    }

    #[test]
    fn every_node_splits_at_the_first_bit_its_leaves_differ() {
        // Leaves under a node agree before its crit bit and are split by it,
        // so the in-order walk is the sorted order.
        let t = tree_with(&[0x010203, 0x010200, 0xff0000, 0x000001, 0x010204]);
        for node in 0..t.nodes.len() {
            if let Some((crit, children)) = t.split(node) {
                for (side, child) in children.into_iter().enumerate() {
                    let under = in_order(&t, Some(child));
                    assert!(under.iter().all(|l| l.serial.key_bit(crit) == (side == 1)));
                }
            }
        }
        assert_eq!(in_order(&t, t.top()), t.leaves());
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
