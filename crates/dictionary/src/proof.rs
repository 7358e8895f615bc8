//! Presence and absence proofs over the authenticated dictionary.
//!
//! The prover (an RA) is untrusted: a client verifies every proof against a
//! CA-signed root (paper §III, "Revocation Lists"). The dictionary's
//! crit-bit trie ([`crate::tree`]) reads its leaves left to right in serial
//! order, so a serial is proven revoked by its own leaf, and proven absent
//! by the two adjacent leaves enclosing it, by the first or last leaf, or —
//! for an empty dictionary — by the well-known empty root.
//!
//! Each leaf comes with its [`Path`] from the root. Leaf and node hashes are
//! domain-separated, so a path that folds to the root ends at a real leaf,
//! and paths alone show adjacency: a predecessor's is `X·0·1*` and its
//! successor's `X·1·0*`; the first leaf's is all left, the last's all right.
//!
//! There is one proof form, [`MultiProof`]: the leaves that answer a set of
//! queries plus every sibling their paths need, once each, left to right;
//! the verifier folds it from the root down. A [`RevocationProof`] is its
//! one-serial case (at most two leaves).
//!
//! Both encode with one grammar (integers as minimal LEB128 varints; a path
//! packed most significant bit first, with zero padding):
//!
//! ```text
//! proof  = format:u8 (= PROOF_FORMAT)
//!          leaf_count:varint  leaf*  sibling_count:varint  digest20*
//! leaf   = depth:u8  path:byte[⌈depth/8⌉]  serial_len:u8  serial  number:varint
//! ```

use crate::serial::SerialNumber;
use crate::tree::{empty_root, node_hash, Leaf, Path, TreeReader};
use ritm_crypto::digest::{Digest20, DIGEST_LEN};
use ritm_crypto::wire::{varint_len, DecodeError, Reader, Writer};

/// The byte every encoded proof starts with. Retired, never to be reused:
/// 0–4, the tags of the five-variant single-serial proof, and 5, the
/// multiproof over the sorted positional tree that addressed leaves by
/// index. They decode as unknown.
pub const PROOF_FORMAT: u8 = 6;

/// Fewest bytes a leaf encodes to: an empty path's depth, serial length,
/// serial and number.
const MIN_LEAF_LEN: usize = 4;

/// Outcome of a successful proof verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvenStatus {
    /// The certificate is revoked (presence proven).
    Revoked {
        /// The revocation number assigned by the CA.
        number: u64,
    },
    /// The certificate is not revoked (absence proven).
    NotRevoked,
}

impl ProvenStatus {
    /// Convenience predicate.
    pub fn is_revoked(&self) -> bool {
        matches!(self, ProvenStatus::Revoked { .. })
    }
}

/// Why a proof failed to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofError {
    /// The recomputed root differs from the trusted root.
    RootMismatch,
    /// The paths and siblings do not fold to one root, or leaves are
    /// claimed for an empty dictionary (or none for a non-empty one).
    MalformedPath,
    /// The proven leaves do not bound the queried serial (an absence claim
    /// without the boundary leaf it needs).
    SerialOutOfRange,
    /// Leaves out of order, or a pair claimed adjacent that is not.
    WrongIndex,
}

impl core::fmt::Display for ProofError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ProofError::RootMismatch => "recomputed root does not match trusted root",
            ProofError::MalformedPath => "proof shape inconsistent with the tree",
            ProofError::SerialOutOfRange => "proven leaves do not bound the queried serial",
            ProofError::WrongIndex => "proof paths violate ordering/adjacency requirements",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ProofError {}

/// A proof for one serial: the one-serial case of [`MultiProof`] — the
/// serial's leaf, or the one or two leaves that enclose it (none for an
/// empty dictionary), with the same siblings, codec and checks. The leaves
/// are held inline, so building a proof allocates only its siblings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationProof {
    /// The answering leaves, ascending, in `leaves[..len]`; the slots past
    /// `len` hold [`unused_slot`], so equal proofs compare equal.
    leaves: [(Path, Leaf); 2],
    len: usize,
    siblings: Vec<Digest20>,
}

impl RevocationProof {
    /// Builds the proof for `serial` against `tree` (RA-side `prove`,
    /// Fig. 2). Works over any [`TreeReader`] backend.
    pub fn generate<T: TreeReader>(tree: &T, serial: &SerialNumber) -> Self {
        let (targets, n) = targets(tree, serial);
        let (mut leaves, mut len) = ([unused_slot(); 2], 0);
        let siblings = gather(tree, &targets[..n], |leaf| {
            leaves[len] = leaf;
            len += 1;
        });
        RevocationProof {
            leaves,
            len,
            siblings,
        }
    }

    /// Verifies this proof for `serial` against a trusted `(root, size)`
    /// pair taken from a validated signed root.
    ///
    /// # Errors
    ///
    /// Returns a [`ProofError`] describing the first check that failed.
    pub fn verify(
        &self,
        serial: &SerialNumber,
        root: &Digest20,
        size: u64,
    ) -> Result<ProvenStatus, ProofError> {
        let parts = self.parts();
        parts.authenticate(root, size)?;
        answer(parts.leaves, serial)
    }

    /// Serializes the proof (part of the revocation status piggybacked onto
    /// TLS traffic; its size drives the §VII-D communication overhead).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.parts().to_bytes()
    }

    /// Parses a proof from bytes: a [`MultiProof`] of at most two leaves.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let MultiProof { leaves, siblings } = MultiProof::decode(bytes, 2)?;
        let mut slots = [unused_slot(); 2];
        slots[..leaves.len()].copy_from_slice(&leaves);
        Ok(RevocationProof {
            leaves: slots,
            len: leaves.len(),
            siblings,
        })
    }

    /// Exact encoded size in bytes, computed without serializing.
    pub fn encoded_len(&self) -> usize {
        self.parts().encoded_len()
    }

    fn parts(&self) -> Parts<'_> {
        Parts {
            leaves: &self.leaves[..self.len],
            siblings: &self.siblings,
        }
    }
}

/// A compressed proof for a *set* of serials against one root.
///
/// A certificate chain of k serials would otherwise ship k independent
/// [`RevocationProof`]s whose paths share most of their sibling nodes (all
/// paths meet at the root). A `MultiProof` carries the union of the leaves
/// needed to answer every query — the revoked leaf for a present serial;
/// the enclosing/boundary leaves for an absent one — plus each sibling hash
/// **once**, left to right. This is the §VII-D communication-overhead
/// optimization for multi-certificate chains (Fig. 7).
///
/// Verification recomputes the root in one top-down fold over the leaves'
/// paths, then answers each query from the authenticated leaf set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiProof {
    /// Included leaves with their paths, strictly ascending.
    pub leaves: Vec<(Path, Leaf)>,
    /// Deduplicated sibling hashes, left to right.
    pub siblings: Vec<Digest20>,
}

impl MultiProof {
    /// Builds the compressed proof for `serials` against `tree`.
    ///
    /// Queries may arrive in any order and may repeat; the needed leaves
    /// are deduplicated. For an empty tree the proof is empty (the
    /// [`empty_root`] answers every query).
    pub fn generate<T: TreeReader>(tree: &T, serials: &[SerialNumber]) -> Self {
        let mut wanted = Vec::with_capacity(2 * serials.len());
        for serial in serials {
            let (found, n) = targets(tree, serial);
            wanted.extend_from_slice(&found[..n]);
        }
        wanted.sort_unstable();
        wanted.dedup();
        let mut leaves = Vec::with_capacity(wanted.len());
        let siblings = gather(tree, &wanted, |leaf| leaves.push(leaf));
        MultiProof { leaves, siblings }
    }

    /// Verifies the proof for `serials` against a trusted `(root, size)`
    /// pair, returning one [`ProvenStatus`] per query, aligned with the
    /// input order.
    ///
    /// # Errors
    ///
    /// Returns the first failed check as a [`ProofError`].
    pub fn verify(
        &self,
        serials: &[SerialNumber],
        root: &Digest20,
        size: u64,
    ) -> Result<Vec<ProvenStatus>, ProofError> {
        if serials.is_empty() {
            // Nothing is claimed, so there is nothing to check — and
            // `generate` over an empty query set produces an empty proof,
            // which must round-trip.
            return Ok(Vec::new());
        }
        self.parts().authenticate(root, size)?;
        serials
            .iter()
            .map(|serial| answer(&self.leaves, serial))
            .collect()
    }

    /// Exact encoded size in bytes, computed without serializing.
    pub fn encoded_len(&self) -> usize {
        self.parts().encoded_len()
    }

    /// Serializes the proof (pre-sized; never reallocates).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.parts().to_bytes()
    }

    /// Parses a proof from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Self::decode(bytes, usize::MAX)
    }

    /// Parses a proof of at most `max_leaves` leaves. Every count is checked
    /// against the bytes left before anything is allocated for it.
    fn decode(bytes: &[u8], max_leaves: usize) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.u8("proof format")? != PROOF_FORMAT {
            return Err(DecodeError::new("unknown proof format", 0));
        }
        let leaf_count = count(&mut r, "proof leaf count")?;
        if leaf_count > max_leaves {
            return Err(DecodeError::new("proof holds too many leaves", 1));
        }
        r.check_count(leaf_count, MIN_LEAF_LEN, "proof leaf count exceeds buffer")?;
        let mut leaves = Vec::with_capacity(leaf_count);
        for _ in 0..leaf_count {
            let depth = usize::from(r.u8("proof leaf depth")?);
            let packed = r.slice(depth.div_ceil(8), "proof leaf path")?;
            let path = Path::from_packed(depth, packed)
                .ok_or_else(|| DecodeError::new("invalid path", r.position()))?;
            let serial = SerialNumber::new(r.vec8("proof leaf serial")?)
                .map_err(|_| DecodeError::new("invalid serial", r.position()))?;
            let number = r.varint("proof leaf number")?;
            leaves.push((path, Leaf { serial, number }));
        }
        let sib_count = count(&mut r, "proof sibling count")?;
        r.check_count(sib_count, DIGEST_LEN, "proof sibling count exceeds buffer")?;
        let mut siblings = Vec::with_capacity(sib_count);
        for _ in 0..sib_count {
            siblings.push(Digest20::from_bytes(r.array("proof sibling")?));
        }
        r.finish("proof trailing bytes")?;
        Ok(MultiProof { leaves, siblings })
    }

    fn parts(&self) -> Parts<'_> {
        Parts {
            leaves: &self.leaves,
            siblings: &self.siblings,
        }
    }
}

/// The leaves and siblings of either proof, as the codec and the checks
/// see them.
struct Parts<'a> {
    leaves: &'a [(Path, Leaf)],
    siblings: &'a [Digest20],
}

impl Parts<'_> {
    /// Checks that the leaves and siblings fold to `root` of a `size`-leaf
    /// tree.
    fn authenticate(&self, root: &Digest20, size: u64) -> Result<(), ProofError> {
        if size == 0 || self.leaves.is_empty() {
            if size != 0 || !self.siblings.is_empty() || !self.leaves.is_empty() {
                return Err(ProofError::MalformedPath);
            }
            return if *root == empty_root() {
                Ok(())
            } else {
                Err(ProofError::RootMismatch)
            };
        }
        // Paths and serials strictly ascending together: an honest trie
        // reads its leaves in serial order, so any violation is a forgery.
        for w in self.leaves.windows(2) {
            if w[0].0 >= w[1].0 || w[0].1.serial >= w[1].1.serial {
                return Err(ProofError::WrongIndex);
            }
        }
        let mut sibs = self.siblings.iter();
        let folded = fold(self.leaves, 0, &mut sibs)?;
        if sibs.next().is_some() {
            return Err(ProofError::MalformedPath);
        }
        if folded != *root {
            return Err(ProofError::RootMismatch);
        }
        Ok(())
    }

    /// Exact encoded size in bytes, computed without serializing.
    fn encoded_len(&self) -> usize {
        1 + varint_len(self.leaves.len() as u64)
            + self
                .leaves
                .iter()
                .map(|(p, l)| 1 + p.packed().len() + 1 + l.serial.len() + varint_len(l.number))
                .sum::<usize>()
            + varint_len(self.siblings.len() as u64)
            + DIGEST_LEN * self.siblings.len()
    }

    /// Serializes the proof (pre-sized; never reallocates).
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        w.u8(PROOF_FORMAT).varint(self.leaves.len() as u64);
        for (path, leaf) in self.leaves {
            w.u8(path.len() as u8)
                .bytes(path.packed())
                .vec8(leaf.serial.as_bytes())
                .varint(leaf.number);
        }
        w.varint(self.siblings.len() as u64);
        for d in self.siblings {
            w.bytes(d.as_bytes());
        }
        w.into_bytes()
    }
}

/// The hash of the node at depth `depth` above `leaves` (non-empty,
/// ascending, sharing their first `depth` directions). Each node down to
/// where the paths part (or to the one leaf) takes one sibling: left ones
/// top-down before the subtree, right ones bottom-up after it.
fn fold(
    leaves: &[(Path, Leaf)],
    depth: usize,
    sibs: &mut core::slice::Iter<'_, Digest20>,
) -> Result<Digest20, ProofError> {
    let (first, last) = (&leaves[0].0, &leaves[leaves.len() - 1].0);
    let fork = match leaves {
        [_] => first.len(),
        _ => (depth..first.len().min(last.len()))
            .find(|&i| first.bit(i) != last.bit(i))
            // A path that ends above the fork ends at an internal node.
            .ok_or(ProofError::MalformedPath)?,
    };
    let lefts = (depth..fork).filter(|&i| first.bit(i)).count();
    let left_sibs = take(sibs, lefts)?;
    let mut hash = match leaves {
        [(_, leaf)] => leaf.hash(),
        _ => {
            let mid = leaves.partition_point(|(path, _)| !path.bit(fork));
            let left = fold(&leaves[..mid], fork + 1, sibs)?;
            node_hash(&left, &fold(&leaves[mid..], fork + 1, sibs)?)
        }
    };
    let right_sibs = take(sibs, fork - depth - lefts)?;
    let (mut left, mut right) = (lefts, 0);
    for i in (depth..fork).rev() {
        hash = if first.bit(i) {
            left -= 1;
            node_hash(&left_sibs[left], &hash)
        } else {
            right += 1;
            node_hash(&hash, &right_sibs[right - 1])
        };
    }
    Ok(hash)
}

/// The next `n` siblings.
fn take<'a>(
    sibs: &mut core::slice::Iter<'a, Digest20>,
    n: usize,
) -> Result<&'a [Digest20], ProofError> {
    let (taken, rest) = sibs
        .as_slice()
        .split_at_checked(n)
        .ok_or(ProofError::MalformedPath)?;
    *sibs = rest.iter();
    Ok(taken)
}

/// What fills a [`RevocationProof`]'s unused leaf slots.
fn unused_slot() -> (Path, Leaf) {
    (Path::default(), Leaf::new(SerialNumber::from_u24(0), 0))
}

/// A varint count (saturating on targets narrower than 64 bits, where
/// [`Reader::check_count`] then rejects it).
fn count(r: &mut Reader<'_>, context: &'static str) -> Result<usize, DecodeError> {
    Ok(usize::try_from(r.varint(context)?).unwrap_or(usize::MAX))
}

/// Paths [`Path::toward`] the leaves that answer `serial` (its own leaf,
/// or the first, the last or the adjacent pair enclosing it), ascending.
///
/// A walk along the serial's key bits ends at the leaf sharing its longest
/// key prefix. The serial would join the subtree at the first node on that
/// walk splitting at or after their first differing bit, as its leftmost or
/// rightmost leaf: one neighbour is that subtree's extreme leaf, the other
/// the extreme leaf past the walk's last turn the other way.
fn targets<T: TreeReader>(tree: &T, serial: &SerialNumber) -> ([Path; 2], usize) {
    let (mut crits, mut depth) = ([0u8; Path::MAX_LEN], 0);
    let walk = tree.descend(|crit| {
        crits[depth] = crit as u8;
        depth += 1;
        serial.key_bit(crit)
    });
    let Some((at, path)) = walk else {
        return ([Path::default(); 2], 0);
    };
    let other = tree.leaf(at).serial;
    if other == *serial {
        return ([path; 2], 1);
    }
    let crit = serial.crit_bit(&other);
    let depth = crits[..path.len()].partition_point(|&c| usize::from(c) < crit);
    // `above`: the serial sorts after every leaf of the subtree it joins.
    let above = serial.key_bit(crit);
    let near = path.prefix(depth).toward(above);
    let Some(turn) = (0..depth).rev().find(|&i| path.bit(i) != above) else {
        return ([near; 2], 1);
    };
    let mut beyond = path.prefix(turn);
    beyond.push(above);
    let far = beyond.toward(!above);
    if above {
        ([near, far], 2)
    } else {
        ([far, near], 2)
    }
}

/// Walks to the leaves at `targets` (ascending), handing each leaf and its
/// path to `found` once, left to right, and returns the siblings that fold
/// them up to the root, in the order [`fold`] takes them.
fn gather<T: TreeReader>(
    tree: &T,
    targets: &[Path],
    mut found: impl FnMut((Path, Leaf)),
) -> Vec<Digest20> {
    fn walk<T: TreeReader>(
        tree: &T,
        node: T::Node,
        path: Path,
        targets: &[Path],
        found: &mut impl FnMut((Path, Leaf)),
        out: &mut Vec<Digest20>,
    ) {
        let Some((_, children)) = tree.split(node) else {
            return found((path, tree.leaf(node)));
        };
        let mid = targets.partition_point(|t| !t.bit(path.len()));
        for (right, part) in [(false, &targets[..mid]), (true, &targets[mid..])] {
            let child = children[usize::from(right)];
            if part.is_empty() {
                out.push(tree.digest(child));
            } else {
                let mut below = path;
                below.push(right);
                walk(tree, child, below, part, found, out);
            }
        }
    }
    let mut out = Vec::with_capacity(24 * targets.len());
    if let (Some(top), false) = (tree.top(), targets.is_empty()) {
        walk(tree, top, Path::default(), targets, &mut found, &mut out);
    }
    out
}

/// The verdict for `serial` from `leaves`, already authenticated (an empty
/// list only ever authenticates for an empty dictionary).
fn answer(leaves: &[(Path, Leaf)], serial: &SerialNumber) -> Result<ProvenStatus, ProofError> {
    if leaves.is_empty() {
        return Ok(ProvenStatus::NotRevoked);
    }
    let j = leaves.partition_point(|(_, l)| l.serial < *serial);
    if j < leaves.len() && leaves[j].1.serial == *serial {
        Ok(ProvenStatus::Revoked {
            number: leaves[j].1.number,
        })
    } else if j == 0 && !leaves[0].0.all(false) {
        // Absent below the smallest included leaf: only sound if that leaf
        // is the tree's first.
        Err(ProofError::SerialOutOfRange)
    } else if j == leaves.len() && !leaves[j - 1].0.all(true) {
        // Absent above the largest included leaf: it must be the last.
        Err(ProofError::SerialOutOfRange)
    } else if 0 < j && j < leaves.len() && !adjacent(&leaves[j - 1].0, &leaves[j].0) {
        // Strictly between two included leaves: they must be adjacent.
        Err(ProofError::WrongIndex)
    } else {
        Ok(ProvenStatus::NotRevoked)
    }
}

/// Whether leaf paths `pred < succ` are adjacent left to right: `X·0·1*`
/// and `X·1·0*`.
fn adjacent(pred: &Path, succ: &Path) -> bool {
    let fork = (0..pred.len().min(succ.len())).find(|&i| pred.bit(i) != succ.bit(i));
    fork.is_some_and(|x| {
        !pred.bit(x)
            && (x + 1..pred.len()).all(|i| pred.bit(i))
            && (x + 1..succ.len()).all(|i| !succ.bit(i))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::MerkleTree;

    fn tree_with(serials: &[u32]) -> MerkleTree {
        MerkleTree::from_leaves(
            serials
                .iter()
                .zip(1..)
                .map(|(s, n)| Leaf::new(SerialNumber::from_u24(*s), n)),
        )
    }

    fn sn(v: u32) -> SerialNumber {
        SerialNumber::from_u24(v)
    }

    /// The one-serial proof made of the leaves of `t` for `present` serials
    /// (honest or forged), with the siblings that fold them.
    fn proof_of(t: &MerkleTree, present: &[u32]) -> RevocationProof {
        let wanted: Vec<Path> = present
            .iter()
            .map(|&s| match targets(t, &sn(s)) {
                (found, 1) => found[0],
                _ => panic!("{s} is not a leaf"),
            })
            .collect();
        let (mut leaves, mut len) = ([unused_slot(); 2], 0);
        let siblings = gather(t, &wanted, |leaf| {
            leaves[len] = leaf;
            len += 1;
        });
        RevocationProof {
            leaves,
            len,
            siblings,
        }
    }

    /// The leaves a proof carries, without their paths.
    fn leaves_of(p: &RevocationProof) -> Vec<Leaf> {
        p.parts().leaves.iter().map(|&(_, l)| l).collect()
    }

    #[test]
    fn presence_proof_verifies() {
        let t = tree_with(&[10, 20, 30, 40, 50]);
        let p = RevocationProof::generate(&t, &sn(30));
        let status = p.verify(&sn(30), &t.root(), t.len() as u64).unwrap();
        assert_eq!(status, ProvenStatus::Revoked { number: 3 });
    }

    #[test]
    fn absence_between_verifies() {
        // 25 falls between 20 and 30, which share a parent under the root's
        // left child: the proof carries the leaves 10 and 40 as siblings.
        let t = tree_with(&[10, 20, 30, 40]);
        let p = RevocationProof::generate(&t, &sn(25));
        assert_eq!(p.len, 2);
        assert_eq!(p.siblings, vec![t.leaves()[0].hash(), t.leaves()[3].hash()]);
        assert_eq!(
            p.verify(&sn(25), &t.root(), 4),
            Ok(ProvenStatus::NotRevoked)
        );
    }

    #[test]
    fn absence_below_and_above() {
        let t = tree_with(&[10, 20, 30]);
        let below = RevocationProof::generate(&t, &sn(5));
        assert_eq!(leaves_of(&below), [t.leaves()[0]]);
        assert!(below.parts().leaves[0].0.all(false), "the leftmost leaf");
        assert!(below.verify(&sn(5), &t.root(), 3).is_ok());

        let above = RevocationProof::generate(&t, &sn(99));
        assert_eq!(leaves_of(&above), [t.leaves()[2]]);
        assert!(above.parts().leaves[0].0.all(true), "the rightmost leaf");
        assert!(above.verify(&sn(99), &t.root(), 3).is_ok());
    }

    #[test]
    fn empty_dictionary_absence() {
        let t = MerkleTree::default();
        let p = RevocationProof::generate(&t, &sn(1));
        assert_eq!(p.to_bytes(), vec![PROOF_FORMAT, 0, 0]);
        assert!(p.verify(&sn(1), &t.root(), 0).is_ok());
        // But the same proof must not pass for a non-empty dictionary.
        let t2 = tree_with(&[1]);
        assert_eq!(
            p.verify(&sn(1), &t2.root(), 1),
            Err(ProofError::MalformedPath)
        );
    }

    #[test]
    fn absence_proof_rejected_for_revoked_serial() {
        // A malicious RA tries to hide a revocation by presenting a
        // *neighbouring* pair as if the serial were absent: the pair holds
        // the serial's own leaf, which answers "revoked".
        let t = tree_with(&[10, 20, 30, 40]);
        let fake = proof_of(&t, &[10, 20]);
        assert!(fake.verify(&sn(20), &t.root(), 4).unwrap().is_revoked());
        // Without its leaf, the pair around it is not adjacent.
        let fake = proof_of(&t, &[10, 30]);
        assert_eq!(
            fake.verify(&sn(20), &t.root(), 4),
            Err(ProofError::WrongIndex)
        );
    }

    #[test]
    fn nonadjacent_pair_rejected() {
        // Leaves 10 and 30 exist, 20 exists between them but the RA skips it.
        let t = tree_with(&[10, 20, 30]);
        let fake = proof_of(&t, &[10, 30]);
        assert_eq!(
            fake.verify(&sn(15), &t.root(), 3),
            Err(ProofError::WrongIndex)
        );
    }

    #[test]
    fn proof_from_stale_tree_rejected() {
        // Proof generated before an insert must fail against the new root.
        let old = tree_with(&[10, 20, 30]);
        let proof = RevocationProof::generate(&old, &sn(25));
        let new = tree_with(&[10, 20, 25, 30]);
        assert!(proof.verify(&sn(25), &new.root(), 4).is_err());
        let swapped = tree_with(&[10, 20, 31]);
        assert_eq!(
            proof.verify(&sn(25), &swapped.root(), 3),
            Err(ProofError::RootMismatch)
        );
    }

    #[test]
    fn wrong_serial_for_presence_rejected() {
        let t = tree_with(&[10, 20]);
        let p = RevocationProof::generate(&t, &sn(10));
        assert_eq!(
            p.verify(&sn(20), &t.root(), 2),
            Err(ProofError::SerialOutOfRange)
        );
    }

    #[test]
    fn below_proof_with_interior_index_rejected() {
        let t = tree_with(&[10, 20, 30]);
        let fake = proof_of(&t, &[20]);
        assert_eq!(
            fake.verify(&sn(5), &t.root(), 3),
            Err(ProofError::SerialOutOfRange)
        );
    }

    #[test]
    fn encoding_round_trips() {
        let t = tree_with(&[10, 20, 30, 40, 50, 60, 70]);
        for q in [10u32, 15, 5, 99, 40] {
            let p = RevocationProof::generate(&t, &sn(q));
            let bytes = p.to_bytes();
            assert_eq!(RevocationProof::from_bytes(&bytes).unwrap(), p, "query {q}");
            // One codec: the single proof is the one-serial multiproof.
            assert_eq!(bytes, MultiProof::generate(&t, &[sn(q)]).to_bytes());
        }
    }

    #[test]
    fn encoded_len_is_exact_for_all_variants() {
        // Present, between, below, above, and the empty dictionary; with
        // indices and numbers past one varint byte.
        let t = tree_with(&(0..300u32).map(|i| i * 2).collect::<Vec<_>>());
        for q in [300u32, 301, 0, 9_999] {
            let p = RevocationProof::generate(&t, &sn(q));
            assert_eq!(p.to_bytes().len(), p.encoded_len(), "query {q}");
        }
        let empty = RevocationProof::generate(&MerkleTree::default(), &sn(1));
        assert_eq!(empty.to_bytes().len(), empty.encoded_len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(RevocationProof::from_bytes(&[]).is_err());
        for tag in 0..=5 {
            assert!(RevocationProof::from_bytes(&[tag, 0, 0]).is_err(), "{tag}");
        }
        let t = tree_with(&[10]);
        let mut good = RevocationProof::generate(&t, &sn(10)).to_bytes();
        good.push(0); // trailing byte
        assert!(RevocationProof::from_bytes(&good).is_err());
        // Three leaves are a multiproof, never a single-serial proof.
        let t = tree_with(&[10, 20, 30]);
        let three = MultiProof::generate(&t, &[sn(10), sn(20), sn(30)]).to_bytes();
        assert!(MultiProof::from_bytes(&three).is_ok());
        let err = RevocationProof::from_bytes(&three).unwrap_err();
        assert!(err.context.contains("too many leaves"), "{err}");
    }

    #[test]
    fn forged_path_length_rejected_before_allocation() {
        // A one-leaf proof claiming 2^32 siblings with no digests behind
        // it must fail the count check up front.
        let mut w = Writer::new();
        w.u8(PROOF_FORMAT).varint(1).varint(0).vec8(&[1]).varint(1);
        w.varint(1 << 32);
        let err = RevocationProof::from_bytes(w.as_bytes()).unwrap_err();
        assert!(err.context.contains("sibling count"), "{err}");
    }

    #[test]
    fn non_minimal_varints_rejected() {
        let t = tree_with(&[10, 20, 30]);
        let good = RevocationProof::generate(&t, &sn(20)).to_bytes();
        // format, leaf count 1: pad the count to two bytes.
        assert_eq!(good[..2], [PROOF_FORMAT, 1]);
        let mut padded = vec![PROOF_FORMAT, 0x81, 0x00];
        padded.extend_from_slice(&good[2..]);
        assert!(RevocationProof::from_bytes(&padded).is_err());
    }

    #[test]
    fn extra_or_missing_siblings_rejected() {
        // Each proof has one shape: a sibling too many or too few is
        // malformed, not ignored.
        let t = tree_with(&[10, 20, 30, 40, 50]);
        let honest = RevocationProof::generate(&t, &sn(25));
        let mut extra = honest.clone();
        extra.siblings.push(Digest20::ZERO);
        let mut short = honest.clone();
        short.siblings.pop();
        for forged in [extra, short] {
            assert_eq!(
                forged.verify(&sn(25), &t.root(), 5),
                Err(ProofError::MalformedPath)
            );
        }
    }

    #[test]
    fn multiproof_mixed_presence_absence_verifies() {
        let t = tree_with(&[10, 20, 30, 40, 50, 60, 70, 80]);
        let queries = [sn(30), sn(35), sn(5), sn(99), sn(80)];
        let mp = MultiProof::generate(&t, &queries);
        let statuses = mp.verify(&queries, &t.root(), t.len() as u64).unwrap();
        assert!(statuses[0].is_revoked());
        assert_eq!(statuses[1], ProvenStatus::NotRevoked);
        assert_eq!(statuses[2], ProvenStatus::NotRevoked);
        assert_eq!(statuses[3], ProvenStatus::NotRevoked);
        assert!(statuses[4].is_revoked());
        // Each verdict matches the individual proof for the same serial.
        for (q, st) in queries.iter().zip(&statuses) {
            let single = RevocationProof::generate(&t, q)
                .verify(q, &t.root(), t.len() as u64)
                .unwrap();
            assert_eq!(*st, single, "query {q:?}");
        }
    }

    #[test]
    fn multiproof_compresses_shared_siblings() {
        // 5 absent serials: each single proof already ships its pair's
        // shared siblings once (so the bar is 70 %, not the 60 % it was
        // against two full paths per pair); the multiproof also shares the
        // siblings the five pairs have in common.
        let t = tree_with(&(0..1024u32).map(|i| i * 2).collect::<Vec<_>>());
        let queries: Vec<SerialNumber> = [101u32, 301, 501, 701, 901].map(sn).to_vec();
        let mp = MultiProof::generate(&t, &queries);
        let individual: usize = queries
            .iter()
            .map(|q| RevocationProof::generate(&t, q).encoded_len())
            .sum();
        let compressed = mp.encoded_len();
        assert!(
            compressed * 10 <= individual * 7,
            "multiproof {compressed}B must be ≤70% of {individual}B"
        );
        assert!(mp.verify(&queries, &t.root(), 1024).is_ok());
    }

    #[test]
    fn multiproof_round_trips() {
        let t = tree_with(&[10, 20, 30, 40, 50]);
        let queries = [sn(20), sn(25), sn(99)];
        let mp = MultiProof::generate(&t, &queries);
        let back = MultiProof::from_bytes(&mp.to_bytes()).unwrap();
        assert_eq!(back, mp);
        assert_eq!(mp.to_bytes().len(), mp.encoded_len());
    }

    #[test]
    fn multiproof_empty_tree() {
        let t = MerkleTree::default();
        let queries = [sn(1), sn(2)];
        let mp = MultiProof::generate(&t, &queries);
        let statuses = mp.verify(&queries, &t.root(), 0).unwrap();
        assert_eq!(statuses, vec![ProvenStatus::NotRevoked; 2]);
        // The empty proof must not pass against a non-empty dictionary.
        let t2 = tree_with(&[1]);
        assert!(mp.verify(&queries, &t2.root(), 1).is_err());
    }

    #[test]
    fn multiproof_empty_query_set_round_trips() {
        // No queries → nothing claimed → trivially valid, on both empty
        // and non-empty trees.
        let t = tree_with(&[10, 20, 30]);
        let mp = MultiProof::generate(&t, &[]);
        assert_eq!(mp.verify(&[], &t.root(), 3).unwrap(), vec![]);
        let empty = MerkleTree::default();
        let mp = MultiProof::generate(&empty, &[]);
        assert_eq!(mp.verify(&[], &empty.root(), 0).unwrap(), vec![]);
    }

    #[test]
    fn multiproof_cross_epoch_rejected() {
        let old = tree_with(&[10, 20, 30]);
        let queries = [sn(20), sn(25)];
        let mp = MultiProof::generate(&old, &queries);
        // A new leaf changes the root; so does a same-shape change of one
        // leaf. Either way the stale proof dies.
        let new = tree_with(&[10, 20, 25, 30]);
        assert!(mp.verify(&queries, &new.root(), 4).is_err());
        let swapped = tree_with(&[10, 20, 31]);
        assert_eq!(
            mp.verify(&queries, &swapped.root(), 3),
            Err(ProofError::RootMismatch)
        );
    }

    #[test]
    fn multiproof_forged_count_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u8(PROOF_FORMAT).varint(1 << 32); // leaf count, no bytes behind it
        let err = MultiProof::from_bytes(w.as_bytes()).unwrap_err();
        assert!(err.context.contains("leaf count"), "{err}");
    }

    #[test]
    fn multiproof_forged_gap_rejected() {
        // An RA omits leaf 20 and presents (10, 30) as adjacent to hide a
        // revocation between them: the indices give it away.
        let t = tree_with(&[10, 20, 30]);
        let honest = MultiProof::generate(&t, &[sn(10), sn(30)]);
        assert_eq!(
            honest.verify(&[sn(15)], &t.root(), 3),
            Err(ProofError::WrongIndex)
        );
    }

    #[test]
    fn multiproof_boundary_absence_requires_boundary_leaf() {
        let t = tree_with(&[10, 20, 30]);
        // A proof including only the middle leaf cannot answer "5 absent".
        let mp = MultiProof::generate(&t, &[sn(20)]);
        assert_eq!(
            mp.verify(&[sn(5)], &t.root(), 3),
            Err(ProofError::SerialOutOfRange)
        );
        assert_eq!(
            mp.verify(&[sn(99)], &t.root(), 3),
            Err(ProofError::SerialOutOfRange)
        );
    }

    #[test]
    fn proof_size_is_logarithmic() {
        // Paper §VII-D: proof size is logarithmic in dictionary size.
        let small = tree_with(&(0..16u32).collect::<Vec<_>>());
        let big = tree_with(&(0..1024u32).collect::<Vec<_>>());
        let ps = RevocationProof::generate(&small, &sn(3)).encoded_len();
        let pb = RevocationProof::generate(&big, &sn(3)).encoded_len();
        // 1024/16 = 64x more leaves but only +6 path entries (120 bytes).
        assert!(pb > ps);
        assert!(pb - ps <= 6 * 20 + 8, "growth should be ~6 digests");
    }

    #[test]
    fn paths_must_be_canonical_and_end_at_leaves() {
        let t = tree_with(&[10, 20, 30, 40, 50]);
        let honest = MultiProof::generate(&t, &[sn(30)]);
        // The leaf's path with a padding bit set does not decode.
        let mut bytes = honest.to_bytes();
        let depth = honest.leaves[0].0.len();
        assert!(!depth.is_multiple_of(8));
        bytes[3] |= 1;
        assert!(MultiProof::from_bytes(&bytes).is_err());
        // A path one step short names an internal node: its hash is a node
        // hash, never the leaf's.
        let mut short = honest.clone();
        short.leaves[0].0 = short.leaves[0].0.prefix(depth - 1);
        short.siblings.pop();
        assert!(short.verify(&[sn(30)], &t.root(), 5).is_err());
        // Two leaves on one path: the shorter one would be internal.
        let mut nested = MultiProof::generate(&t, &[sn(30), sn(40)]);
        nested.leaves[0].0 = nested.leaves[1].0.prefix(1);
        assert!(nested.verify(&[sn(30)], &t.root(), 5).is_err());
    }
}
