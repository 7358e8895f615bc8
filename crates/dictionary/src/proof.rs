//! Presence and absence proofs over the authenticated dictionary.
//!
//! The prover (an RA) is untrusted: a client verifies every proof against a
//! CA-signed root (paper §III, "Revocation Lists"). Because leaves are sorted
//! by serial, a serial is proven revoked by its own leaf, and proven absent
//! by the adjacent pair of leaves enclosing it, by a boundary leaf, or — for
//! an empty dictionary — by the well-known empty root.
//!
//! There is one proof form, [`MultiProof`]: the leaves that answer a set of
//! queries plus the union of their audit paths, each sibling once. A
//! [`RevocationProof`] is a multiproof for one serial (at most two leaves),
//! so an absence between two leaves ships their shared siblings once.
//!
//! Both encode with one grammar (integers as minimal LEB128 varints):
//!
//! ```text
//! proof  = format:u8 (= PROOF_FORMAT)
//!          leaf_count:varint  leaf*  sibling_count:varint  digest20*
//! leaf   = index:varint  serial_len:u8  serial  number:varint
//! ```

use crate::serial::SerialNumber;
use crate::tree::{empty_root, node_hash, Leaf, TreeReader};
use ritm_crypto::digest::{Digest20, DIGEST_LEN};
use ritm_crypto::wire::{varint_len, DecodeError, Reader, Writer};

/// The byte every encoded proof starts with. Values 0–4 were the tags of the
/// retired five-variant single-serial proof and now decode as unknown.
pub const PROOF_FORMAT: u8 = 5;

/// Fewest bytes a leaf encodes to: a one-byte index, serial length, serial
/// and number.
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
    /// The leaves and siblings do not fit the claimed tree size.
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
            ProofError::MalformedPath => "proof shape inconsistent with the tree size",
            ProofError::SerialOutOfRange => "proven leaves do not bound the queried serial",
            ProofError::WrongIndex => "proof indices violate ordering/adjacency requirements",
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
    leaves: [(u64, Leaf); 2],
    len: usize,
    siblings: Vec<Digest20>,
}

impl RevocationProof {
    /// Builds the proof for `serial` against `tree` (RA-side `prove`,
    /// Fig. 2). Works over any [`TreeReader`] backend.
    pub fn generate<T: TreeReader>(tree: &T, serial: &SerialNumber) -> Self {
        let (leaves, len) = answering_leaves(tree, serial);
        let mut frontier = leaves.map(|(i, _)| i as usize);
        let siblings = match len {
            // One leaf's siblings are its audit path, which the tree reads
            // in a tighter loop than the general fold.
            1 => tree.audit_path(frontier[0]),
            _ => siblings(tree, &mut frontier[..len]),
        };
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
        let (parts, mut nodes) = (self.parts(), [(0, Digest20::ZERO); 2]);
        parts.authenticate(root, size, &mut nodes[..self.len])?;
        answer(parts.leaves, serial, size)
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
/// [`RevocationProof`]s whose audit paths share most of their sibling
/// nodes (all paths meet at the root). A `MultiProof` carries the union
/// of the leaves needed to answer every query — the revoked leaf for a
/// present serial; the enclosing/boundary leaves for an absent one — plus
/// each sibling hash **once**, in a canonical bottom-up order. This is the
/// §VII-D communication-overhead optimization for multi-certificate chains
/// (Fig. 7).
///
/// Verification recomputes the root in one bottom-up sweep that combines
/// included nodes with each other where possible and consumes the sibling
/// stream otherwise, then answers each query from the authenticated leaf
/// set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiProof {
    /// Included leaves with their indices, strictly ascending by index.
    pub leaves: Vec<(u64, Leaf)>,
    /// Deduplicated sibling hashes, bottom-up, ascending index per level.
    pub siblings: Vec<Digest20>,
}

impl MultiProof {
    /// Builds the compressed proof for `serials` against `tree`.
    ///
    /// Queries may arrive in any order and may repeat; the needed leaves
    /// are deduplicated. For an empty tree the proof is empty (the
    /// [`empty_root`] answers every query).
    pub fn generate<T: TreeReader>(tree: &T, serials: &[SerialNumber]) -> Self {
        let mut leaves = Vec::with_capacity(2 * serials.len());
        for serial in serials {
            let (answering, n) = answering_leaves(tree, serial);
            leaves.extend_from_slice(&answering[..n]);
        }
        leaves.sort_unstable_by_key(|&(i, _)| i);
        leaves.dedup_by_key(|&mut (i, _)| i);
        let mut frontier: Vec<usize> = leaves.iter().map(|&(i, _)| i as usize).collect();
        let siblings = siblings(tree, &mut frontier);
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
        let mut nodes = vec![(0, Digest20::ZERO); self.leaves.len()];
        self.parts().authenticate(root, size, &mut nodes)?;
        serials
            .iter()
            .map(|serial| answer(&self.leaves, serial, size))
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
            let index = r.varint("proof leaf index")?;
            let serial = SerialNumber::new(r.vec8("proof leaf serial")?)
                .map_err(|_| DecodeError::new("invalid serial", r.position()))?;
            let number = r.varint("proof leaf number")?;
            leaves.push((index, Leaf { serial, number }));
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
    leaves: &'a [(u64, Leaf)],
    siblings: &'a [Digest20],
}

impl Parts<'_> {
    /// Checks that the leaves and siblings fold to `root` of a `size`-leaf
    /// tree, using `nodes` (one slot per leaf) for the running nodes.
    fn authenticate(
        &self,
        root: &Digest20,
        size: u64,
        nodes: &mut [(u64, Digest20)],
    ) -> Result<(), ProofError> {
        if size == 0 {
            if !self.leaves.is_empty() || !self.siblings.is_empty() {
                return Err(ProofError::MalformedPath);
            }
            return if *root == empty_root() {
                Ok(())
            } else {
                Err(ProofError::RootMismatch)
            };
        }
        // Structural sanity: indices strictly ascending and in range, and
        // leaf serials strictly ascending in index order (an honest sorted
        // tree guarantees this; any violation is a forgery).
        match self.leaves.last() {
            Some(&(last, _)) if last < size => {}
            _ => return Err(ProofError::MalformedPath),
        }
        for w in self.leaves.windows(2) {
            if w[0].0 >= w[1].0 || w[0].1.serial >= w[1].1.serial {
                return Err(ProofError::WrongIndex);
            }
        }
        for (node, (index, leaf)) in nodes.iter_mut().zip(self.leaves) {
            *node = (*index, leaf.hash());
        }
        // Fold level by level in place: each pass writes a level's nodes
        // over the level below, which holds at least as many.
        let (mut n, mut level_len) = (nodes.len(), size);
        let mut sibs = self.siblings.iter();
        while level_len > 1 {
            let (mut i, mut out) = (0, 0);
            while i < n {
                let (idx, h) = nodes[i];
                let sib = idx ^ 1;
                let combined = if idx % 2 == 0 && i + 1 < n && nodes[i + 1].0 == sib {
                    i += 1;
                    node_hash(&h, &nodes[i].1)
                } else if sib < level_len {
                    let s = sibs.next().ok_or(ProofError::MalformedPath)?;
                    if idx % 2 == 0 {
                        node_hash(&h, s)
                    } else {
                        node_hash(s, &h)
                    }
                } else {
                    h // odd node promoted
                };
                nodes[out] = (idx / 2, combined);
                (i, out) = (i + 1, out + 1);
            }
            n = out;
            level_len = level_len.div_ceil(2);
        }
        if sibs.next().is_some() || n != 1 {
            return Err(ProofError::MalformedPath);
        }
        if nodes[0].1 != *root {
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
                .map(|(i, l)| varint_len(*i) + 1 + l.serial.len() + varint_len(l.number))
                .sum::<usize>()
            + varint_len(self.siblings.len() as u64)
            + DIGEST_LEN * self.siblings.len()
    }

    /// Serializes the proof (pre-sized; never reallocates).
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        w.u8(PROOF_FORMAT).varint(self.leaves.len() as u64);
        for (index, leaf) in self.leaves {
            w.varint(*index)
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

/// What fills a [`RevocationProof`]'s unused leaf slots.
fn unused_slot() -> (u64, Leaf) {
    (0, Leaf::new(SerialNumber::from_u24(0), 0))
}

/// A varint count (saturating on targets narrower than 64 bits, where
/// [`Reader::check_count`] then rejects it).
fn count(r: &mut Reader<'_>, context: &'static str) -> Result<usize, DecodeError> {
    Ok(usize::try_from(r.varint(context)?).unwrap_or(usize::MAX))
}

/// The leaves that answer `serial`, ascending: its own leaf if revoked,
/// otherwise the first leaf, the last leaf, or the adjacent pair enclosing
/// it. One search answers both cases (a present serial is its own lower
/// bound), and each leaf is read once.
fn answering_leaves<T: TreeReader>(tree: &T, serial: &SerialNumber) -> ([(u64, Leaf); 2], usize) {
    let unused = unused_slot();
    if tree.is_empty() {
        return ([unused; 2], 0);
    }
    let at = |i: usize| (i as u64, tree.leaf(i));
    let lb = tree.lower_bound(serial);
    if lb == tree.len() {
        return ([at(lb - 1), unused], 1);
    }
    let upper = at(lb);
    if upper.1.serial == *serial || lb == 0 {
        ([upper, unused], 1)
    } else {
        ([at(lb - 1), upper], 2)
    }
}

/// The siblings that fold `frontier` (strictly ascending leaf indices) up
/// to the root, bottom-up and ascending per level. `frontier` is scratch:
/// each level overwrites the one below.
fn siblings<T: TreeReader>(tree: &T, frontier: &mut [usize]) -> Vec<Digest20> {
    let mut level_len = tree.len();
    let depth = (usize::BITS - level_len.saturating_sub(1).leading_zeros()) as usize;
    let mut out = Vec::with_capacity(frontier.len() * depth);
    let (mut n, mut level) = (frontier.len(), 0);
    while level_len > 1 {
        let (mut i, mut next) = (0, 0);
        while i < n {
            let idx = frontier[i];
            let sib = idx ^ 1;
            if i + 1 < n && frontier[i + 1] == sib {
                i += 1; // both children included: combined internally
            } else if sib < level_len {
                out.push(tree.level_node(level, sib));
            }
            frontier[next] = idx / 2;
            (i, next) = (i + 1, next + 1);
        }
        n = next;
        level_len = level_len.div_ceil(2);
        level += 1;
    }
    out
}

/// The verdict for `serial` from `leaves`, already authenticated against a
/// `size`-leaf tree (an empty list only ever authenticates for size 0).
fn answer(
    leaves: &[(u64, Leaf)],
    serial: &SerialNumber,
    size: u64,
) -> Result<ProvenStatus, ProofError> {
    if leaves.is_empty() {
        return Ok(ProvenStatus::NotRevoked);
    }
    let j = leaves.partition_point(|(_, l)| l.serial < *serial);
    if j < leaves.len() && leaves[j].1.serial == *serial {
        Ok(ProvenStatus::Revoked {
            number: leaves[j].1.number,
        })
    } else if j == 0 && leaves[0].0 != 0 {
        // Absent below the smallest included leaf: only sound if that leaf
        // is the tree's first.
        Err(ProofError::SerialOutOfRange)
    } else if j == leaves.len() && leaves[j - 1].0 != size - 1 {
        // Absent above the largest included leaf: it must be the last.
        Err(ProofError::SerialOutOfRange)
    } else if 0 < j && j < leaves.len() && leaves[j - 1].0 + 1 != leaves[j].0 {
        // Strictly between two included leaves: they must be adjacent.
        Err(ProofError::WrongIndex)
    } else {
        Ok(ProvenStatus::NotRevoked)
    }
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

    /// The one-serial proof with the given leaf indices of `t` (honest or
    /// forged), with the siblings that fold them.
    fn proof_of(t: &MerkleTree, indices: &[usize]) -> RevocationProof {
        let mut leaves = [unused_slot(); 2];
        for (slot, &i) in leaves.iter_mut().zip(indices) {
            *slot = (i as u64, t.leaves()[i]);
        }
        RevocationProof {
            leaves,
            len: indices.len(),
            siblings: siblings(t, &mut indices.to_vec()),
        }
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
        // 25 falls between leaves 1 and 2 of 4: their paths meet at level
        // 2, so the proof carries d + t − 2 = 2 + 2 − 2 = 2 siblings, not 4.
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
        assert_eq!(below.parts().leaves, vec![(0, t.leaves()[0])]);
        assert!(below.verify(&sn(5), &t.root(), 3).is_ok());

        let above = RevocationProof::generate(&t, &sn(99));
        assert_eq!(above.parts().leaves, vec![(2, t.leaves()[2])]);
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
        let fake = proof_of(&t, &[0, 1]);
        assert!(fake.verify(&sn(20), &t.root(), 4).unwrap().is_revoked());
        // Without its leaf, the pair around it is not adjacent.
        let fake = proof_of(&t, &[0, 2]);
        assert_eq!(
            fake.verify(&sn(20), &t.root(), 4),
            Err(ProofError::WrongIndex)
        );
    }

    #[test]
    fn nonadjacent_pair_rejected() {
        // Leaves 10 and 30 exist, 20 exists between them but the RA skips it.
        let t = tree_with(&[10, 20, 30]);
        let fake = proof_of(&t, &[0, 2]);
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
        let fake = proof_of(&t, &[1]);
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
        for tag in 0..=4 {
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
        // format, leaf count 1, index 1: pad the index to two bytes.
        assert_eq!(good[..3], [PROOF_FORMAT, 1, 1]);
        let mut padded = good[..2].to_vec();
        padded.extend_from_slice(&[0x81, 0x00]);
        padded.extend_from_slice(&good[3..]);
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
        // Size change reshapes the sweep (MalformedPath); same-size content
        // change yields RootMismatch. Either way the stale proof dies.
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
}
