//! Presence and absence proofs over the authenticated dictionary.
//!
//! The prover (an RA) is untrusted: a client verifies every proof against a
//! CA-signed root (paper §III, "Revocation Lists"). Because leaves are sorted
//! by serial, absence is proven either by an adjacent pair of leaves
//! enclosing the queried serial, or by a boundary leaf, or — for an empty
//! dictionary — by the well-known empty root.

use crate::serial::SerialNumber;
use crate::tree::{empty_root, node_hash, root_from_path, Leaf, TreeReader};
use ritm_crypto::digest::Digest20;
use ritm_crypto::wire::{DecodeError, Reader, Writer};

/// An audit path proving one leaf's membership at a given index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresenceProof {
    /// The leaf being proven.
    pub leaf: Leaf,
    /// Index of the leaf in the sorted leaf sequence.
    pub index: u64,
    /// Bottom-up sibling hashes.
    pub path: Vec<Digest20>,
}

impl PresenceProof {
    /// Builds the proof for leaf `index` of `tree` (the dictionaries'
    /// persistent tree or the reference — any [`TreeReader`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn generate<T: TreeReader>(tree: &T, index: usize) -> Self {
        PresenceProof {
            leaf: tree.leaf(index),
            index: index as u64,
            path: tree.audit_path(index),
        }
    }

    /// Recomputes the root this proof commits to, given the tree size.
    fn implied_root(&self, size: u64) -> Option<Digest20> {
        root_from_path(
            self.index as usize,
            size as usize,
            self.leaf.hash(),
            &self.path,
        )
    }

    /// Exact encoded size in bytes, computed without serializing — used to
    /// pre-size [`Writer`] buffers on the proof-injection hot path.
    pub fn encoded_len(&self) -> usize {
        8 + 1 + self.leaf.serial.len() + 8 + 2 + 20 * self.path.len()
    }

    fn encode(&self, w: &mut Writer) {
        w.u64(self.index);
        w.vec8(self.leaf.serial.as_bytes());
        w.u64(self.leaf.number);
        w.u16(self.path.len() as u16);
        for d in &self.path {
            w.bytes(d.as_bytes());
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let index = r.u64("presence index")?;
        let serial_bytes = r.vec8("presence serial")?;
        let serial = SerialNumber::new(serial_bytes)
            .map_err(|_| DecodeError::new("invalid serial", r.position()))?;
        let number = r.u64("presence number")?;
        let path_len = r.u16("presence path len")? as usize;
        r.check_count(path_len, 20, "presence path exceeds buffer")?;
        let mut path = Vec::with_capacity(path_len);
        for _ in 0..path_len {
            path.push(Digest20::from_bytes(r.array("presence path digest")?));
        }
        Ok(PresenceProof {
            leaf: Leaf { serial, number },
            index,
            path,
        })
    }
}

/// A proof that a serial is or is not in the dictionary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RevocationProof {
    /// The serial is revoked: membership proof of its leaf.
    Present(PresenceProof),
    /// The dictionary holds no revocations at all.
    AbsentEmpty,
    /// The serial sorts before every revoked serial; proof of leaf 0.
    AbsentBelow(PresenceProof),
    /// The serial sorts after every revoked serial; proof of the last leaf.
    AbsentAbove(PresenceProof),
    /// The serial falls strictly between two adjacent leaves.
    AbsentBetween(PresenceProof, PresenceProof),
}

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
    /// The audit path shape does not match the claimed index/size.
    MalformedPath,
    /// The proven leaf does not relate to the queried serial as claimed
    /// (e.g. an "absent" proof whose bounds do not enclose the serial).
    SerialOutOfRange,
    /// A boundary proof used an interior index, or adjacency does not hold.
    WrongIndex,
    /// An `AbsentEmpty` proof was offered for a non-empty dictionary.
    NotEmpty,
}

impl core::fmt::Display for ProofError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ProofError::RootMismatch => "recomputed root does not match trusted root",
            ProofError::MalformedPath => "audit path inconsistent with index and tree size",
            ProofError::SerialOutOfRange => "proven leaves do not bound the queried serial",
            ProofError::WrongIndex => "proof indices violate boundary/adjacency requirements",
            ProofError::NotEmpty => "empty-dictionary proof for a non-empty dictionary",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ProofError {}

impl RevocationProof {
    /// Builds the proof for `serial` against `tree` (RA-side `prove`,
    /// Fig. 2). Works over any [`TreeReader`] backend.
    pub fn generate<T: TreeReader>(tree: &T, serial: &SerialNumber) -> Self {
        if tree.is_empty() {
            return RevocationProof::AbsentEmpty;
        }
        // One search answers both cases: a present serial is its own lower
        // bound. The leaf there is read once, for the test and the proof.
        let lb = tree.lower_bound(serial);
        if lb == tree.len() {
            return RevocationProof::AbsentAbove(PresenceProof::generate(tree, lb - 1));
        }
        let upper = PresenceProof {
            leaf: tree.leaf(lb),
            index: lb as u64,
            path: tree.audit_path(lb),
        };
        if upper.leaf.serial == *serial {
            RevocationProof::Present(upper)
        } else if lb == 0 {
            RevocationProof::AbsentBelow(upper)
        } else {
            RevocationProof::AbsentBetween(PresenceProof::generate(tree, lb - 1), upper)
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
        let check_path = |p: &PresenceProof| -> Result<(), ProofError> {
            let implied = p.implied_root(size).ok_or(ProofError::MalformedPath)?;
            if implied == *root {
                Ok(())
            } else {
                Err(ProofError::RootMismatch)
            }
        };
        match self {
            RevocationProof::Present(p) => {
                if p.leaf.serial != *serial {
                    return Err(ProofError::SerialOutOfRange);
                }
                check_path(p)?;
                Ok(ProvenStatus::Revoked {
                    number: p.leaf.number,
                })
            }
            RevocationProof::AbsentEmpty => {
                if size != 0 {
                    return Err(ProofError::NotEmpty);
                }
                if *root != empty_root() {
                    return Err(ProofError::RootMismatch);
                }
                Ok(ProvenStatus::NotRevoked)
            }
            RevocationProof::AbsentBelow(p) => {
                if p.index != 0 {
                    return Err(ProofError::WrongIndex);
                }
                if *serial >= p.leaf.serial {
                    return Err(ProofError::SerialOutOfRange);
                }
                check_path(p)?;
                Ok(ProvenStatus::NotRevoked)
            }
            RevocationProof::AbsentAbove(p) => {
                if size == 0 || p.index != size - 1 {
                    return Err(ProofError::WrongIndex);
                }
                if *serial <= p.leaf.serial {
                    return Err(ProofError::SerialOutOfRange);
                }
                check_path(p)?;
                Ok(ProvenStatus::NotRevoked)
            }
            RevocationProof::AbsentBetween(lo, hi) => {
                if lo.index + 1 != hi.index {
                    return Err(ProofError::WrongIndex);
                }
                if !(lo.leaf.serial < *serial && *serial < hi.leaf.serial) {
                    return Err(ProofError::SerialOutOfRange);
                }
                check_path(lo)?;
                check_path(hi)?;
                Ok(ProvenStatus::NotRevoked)
            }
        }
    }

    /// Serializes the proof (part of the revocation status piggybacked onto
    /// TLS traffic; its size drives the §VII-D communication overhead). The
    /// buffer is pre-sized to [`RevocationProof::encoded_len`], so encoding
    /// never reallocates.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        match self {
            RevocationProof::Present(p) => {
                w.u8(0);
                p.encode(&mut w);
            }
            RevocationProof::AbsentEmpty => {
                w.u8(1);
            }
            RevocationProof::AbsentBelow(p) => {
                w.u8(2);
                p.encode(&mut w);
            }
            RevocationProof::AbsentAbove(p) => {
                w.u8(3);
                p.encode(&mut w);
            }
            RevocationProof::AbsentBetween(lo, hi) => {
                w.u8(4);
                lo.encode(&mut w);
                hi.encode(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Parses a proof from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8("proof tag")?;
        let proof = match tag {
            0 => RevocationProof::Present(PresenceProof::decode(&mut r)?),
            1 => RevocationProof::AbsentEmpty,
            2 => RevocationProof::AbsentBelow(PresenceProof::decode(&mut r)?),
            3 => RevocationProof::AbsentAbove(PresenceProof::decode(&mut r)?),
            4 => RevocationProof::AbsentBetween(
                PresenceProof::decode(&mut r)?,
                PresenceProof::decode(&mut r)?,
            ),
            _ => return Err(DecodeError::new("unknown proof tag", 0)),
        };
        r.finish("proof trailing bytes")?;
        Ok(proof)
    }

    /// Exact encoded size in bytes, computed without serializing.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            RevocationProof::Present(p)
            | RevocationProof::AbsentBelow(p)
            | RevocationProof::AbsentAbove(p) => p.encoded_len(),
            RevocationProof::AbsentEmpty => 0,
            RevocationProof::AbsentBetween(lo, hi) => lo.encoded_len() + hi.encoded_len(),
        }
    }
}

/// A compressed proof for a *set* of serials against one root.
///
/// A certificate chain of k serials would otherwise ship k independent
/// [`RevocationProof`]s whose audit paths share most of their sibling
/// nodes (all paths meet at the root, and an absence proof's adjacent pair
/// shares its entire path above level 0). A `MultiProof` carries the union
/// of the leaves needed to answer every query — the revoked leaf for a
/// present serial; the enclosing/boundary leaves for an absent one — plus
/// each sibling hash **once**, in a canonical bottom-up order. This is the
/// §VII-D communication-overhead optimization for multi-certificate chains
/// (Fig. 7).
///
/// Verification recomputes the root in one bottom-up sweep that combines
/// included nodes with each other where possible and consumes the sibling
/// stream otherwise, then answers each query from the authenticated leaf
/// set with exactly the same presence/absence rules as the single-serial
/// proofs.
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
        let mut needed = std::collections::BTreeMap::new();
        if tree.is_empty() {
            return MultiProof::default();
        }
        for serial in serials {
            if let Some(idx) = tree.find(serial) {
                needed.insert(idx, tree.leaf(idx));
            } else {
                let lb = tree.lower_bound(serial);
                if lb == 0 {
                    needed.insert(0, tree.leaf(0));
                } else if lb == tree.len() {
                    needed.insert(tree.len() - 1, tree.leaf(tree.len() - 1));
                } else {
                    needed.insert(lb - 1, tree.leaf(lb - 1));
                    needed.insert(lb, tree.leaf(lb));
                }
            }
        }
        let mut frontier: Vec<usize> = needed.keys().copied().collect();
        let mut siblings = Vec::new();
        let mut level_len = tree.len();
        let mut level = 0usize;
        while level_len > 1 {
            let mut next = Vec::with_capacity(frontier.len());
            let mut i = 0;
            while i < frontier.len() {
                let idx = frontier[i];
                let sib = idx ^ 1;
                if i + 1 < frontier.len() && frontier[i + 1] == sib {
                    i += 2; // both children included: combined internally
                } else {
                    if sib < level_len {
                        siblings.push(tree.level_node(level, sib));
                    }
                    i += 1;
                }
                next.push(idx / 2);
            }
            next.dedup();
            frontier = next;
            level_len = level_len.div_ceil(2);
            level += 1;
        }
        MultiProof {
            leaves: needed.into_iter().map(|(i, l)| (i as u64, l)).collect(),
            siblings,
        }
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
        if size == 0 {
            if !self.leaves.is_empty() || !self.siblings.is_empty() {
                return Err(ProofError::MalformedPath);
            }
            if *root != empty_root() {
                return Err(ProofError::RootMismatch);
            }
            return Ok(vec![ProvenStatus::NotRevoked; serials.len()]);
        }
        // Structural sanity: indices strictly ascending and in range, and
        // leaf serials strictly ascending in index order (an honest sorted
        // tree guarantees this; any violation is a forgery).
        if self.leaves.is_empty() {
            return Err(ProofError::MalformedPath);
        }
        for w in self.leaves.windows(2) {
            if w[0].0 >= w[1].0 || w[0].1.serial >= w[1].1.serial {
                return Err(ProofError::WrongIndex);
            }
        }
        if self.leaves.last().expect("non-empty").0 >= size {
            return Err(ProofError::MalformedPath);
        }

        // One bottom-up sweep authenticates every included leaf at once.
        let mut nodes: Vec<(usize, Digest20)> = self
            .leaves
            .iter()
            .map(|(i, l)| (*i as usize, l.hash()))
            .collect();
        let mut level_len = size as usize;
        let mut sibs = self.siblings.iter();
        while level_len > 1 {
            let mut next: Vec<(usize, Digest20)> = Vec::with_capacity(nodes.len());
            let mut i = 0;
            while i < nodes.len() {
                let (idx, h) = nodes[i];
                let sib = idx ^ 1;
                let combined = if idx % 2 == 0 && i + 1 < nodes.len() && nodes[i + 1].0 == sib {
                    let right = nodes[i + 1].1;
                    i += 2;
                    node_hash(&h, &right)
                } else if sib < level_len {
                    let s = sibs.next().ok_or(ProofError::MalformedPath)?;
                    i += 1;
                    if idx % 2 == 0 {
                        node_hash(&h, s)
                    } else {
                        node_hash(s, &h)
                    }
                } else {
                    i += 1;
                    h // odd node promoted
                };
                next.push((idx / 2, combined));
            }
            nodes = next;
            level_len = level_len.div_ceil(2);
        }
        if sibs.next().is_some() || nodes.len() != 1 {
            return Err(ProofError::MalformedPath);
        }
        if nodes[0].1 != *root {
            return Err(ProofError::RootMismatch);
        }

        // Answer each query from the authenticated leaf set with the same
        // rules as the single-serial absence proofs.
        let mut out = Vec::with_capacity(serials.len());
        for serial in serials {
            let j = self.leaves.partition_point(|(_, l)| l.serial < *serial);
            if j < self.leaves.len() && self.leaves[j].1.serial == *serial {
                out.push(ProvenStatus::Revoked {
                    number: self.leaves[j].1.number,
                });
            } else if j == 0 {
                // Absent below the smallest included leaf: only sound if
                // that leaf is the tree's first (index 0).
                if self.leaves[0].0 != 0 {
                    return Err(ProofError::SerialOutOfRange);
                }
                out.push(ProvenStatus::NotRevoked);
            } else if j == self.leaves.len() {
                // Absent above the largest included leaf: must be the
                // tree's last (index size-1).
                if self.leaves[j - 1].0 != size - 1 {
                    return Err(ProofError::SerialOutOfRange);
                }
                out.push(ProvenStatus::NotRevoked);
            } else {
                // Strictly between two included leaves: they must be
                // adjacent in the tree.
                if self.leaves[j - 1].0 + 1 != self.leaves[j].0 {
                    return Err(ProofError::WrongIndex);
                }
                out.push(ProvenStatus::NotRevoked);
            }
        }
        Ok(out)
    }

    /// Exact encoded size in bytes, computed without serializing.
    pub fn encoded_len(&self) -> usize {
        2 + self
            .leaves
            .iter()
            .map(|(_, l)| 8 + 1 + l.serial.len() + 8)
            .sum::<usize>()
            + 2
            + 20 * self.siblings.len()
    }

    /// Serializes the proof (pre-sized; never reallocates).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Encodes into an existing writer (for embedding in larger messages).
    ///
    /// # Panics
    ///
    /// Panics when a count exceeds `u16::MAX` (silent truncation would
    /// emit an undecodable proof).
    pub fn encode(&self, w: &mut Writer) {
        assert!(
            self.leaves.len() <= u16::MAX as usize,
            "multiproof leaf count overflow"
        );
        assert!(
            self.siblings.len() <= u16::MAX as usize,
            "multiproof sibling count overflow"
        );
        w.u16(self.leaves.len() as u16);
        for (idx, leaf) in &self.leaves {
            w.u64(*idx);
            w.vec8(leaf.serial.as_bytes());
            w.u64(leaf.number);
        }
        w.u16(self.siblings.len() as u16);
        for d in &self.siblings {
            w.bytes(d.as_bytes());
        }
    }

    /// Parses a proof from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let proof = Self::decode(&mut r)?;
        r.finish("multiproof trailing bytes")?;
        Ok(proof)
    }

    /// Parses from a reader (for embedding).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let leaf_count = r.u16("multiproof leaf count")? as usize;
        // Each leaf costs at least 8 + 1 + 1 + 8 bytes.
        r.check_count(leaf_count, 18, "multiproof leaf count exceeds buffer")?;
        let mut leaves = Vec::with_capacity(leaf_count);
        for _ in 0..leaf_count {
            let index = r.u64("multiproof leaf index")?;
            let serial_bytes = r.vec8("multiproof leaf serial")?;
            let serial = SerialNumber::new(serial_bytes)
                .map_err(|_| DecodeError::new("invalid serial", r.position()))?;
            let number = r.u64("multiproof leaf number")?;
            leaves.push((index, Leaf { serial, number }));
        }
        let sib_count = r.u16("multiproof sibling count")? as usize;
        r.check_count(sib_count, 20, "multiproof sibling count exceeds buffer")?;
        let mut siblings = Vec::with_capacity(sib_count);
        for _ in 0..sib_count {
            siblings.push(Digest20::from_bytes(r.array("multiproof sibling")?));
        }
        Ok(MultiProof { leaves, siblings })
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

    #[test]
    fn presence_proof_verifies() {
        let t = tree_with(&[10, 20, 30, 40, 50]);
        let p = RevocationProof::generate(&t, &sn(30));
        let status = p.verify(&sn(30), &t.root(), t.len() as u64).unwrap();
        assert!(status.is_revoked());
    }

    #[test]
    fn absence_between_verifies() {
        let t = tree_with(&[10, 20, 30]);
        let p = RevocationProof::generate(&t, &sn(25));
        assert!(matches!(p, RevocationProof::AbsentBetween(_, _)));
        let status = p.verify(&sn(25), &t.root(), 3).unwrap();
        assert_eq!(status, ProvenStatus::NotRevoked);
    }

    #[test]
    fn absence_below_and_above() {
        let t = tree_with(&[10, 20, 30]);
        let below = RevocationProof::generate(&t, &sn(5));
        assert!(matches!(below, RevocationProof::AbsentBelow(_)));
        assert!(below.verify(&sn(5), &t.root(), 3).is_ok());

        let above = RevocationProof::generate(&t, &sn(99));
        assert!(matches!(above, RevocationProof::AbsentAbove(_)));
        assert!(above.verify(&sn(99), &t.root(), 3).is_ok());
    }

    #[test]
    fn empty_dictionary_absence() {
        let t = MerkleTree::default();
        let p = RevocationProof::generate(&t, &sn(1));
        assert_eq!(p, RevocationProof::AbsentEmpty);
        assert!(p.verify(&sn(1), &t.root(), 0).is_ok());
        // But the same proof must not pass for a non-empty dictionary.
        let t2 = tree_with(&[1]);
        assert_eq!(p.verify(&sn(1), &t2.root(), 1), Err(ProofError::NotEmpty));
    }

    #[test]
    fn absence_proof_rejected_for_revoked_serial() {
        // A malicious RA tries to hide a revocation by presenting a
        // *neighbouring* pair as if the serial were absent.
        let t = tree_with(&[10, 20, 30, 40]);
        let fake = RevocationProof::AbsentBetween(
            PresenceProof::generate(&t, 0),
            PresenceProof::generate(&t, 1),
        );
        // 20 IS revoked; the pair (10, 20) cannot enclose it strictly.
        assert_eq!(
            fake.verify(&sn(20), &t.root(), 4),
            Err(ProofError::SerialOutOfRange)
        );
    }

    #[test]
    fn nonadjacent_pair_rejected() {
        // Leaves 10 and 30 exist, 20 exists between them but the RA skips it.
        let t = tree_with(&[10, 20, 30]);
        let fake = RevocationProof::AbsentBetween(
            PresenceProof::generate(&t, 0),
            PresenceProof::generate(&t, 2),
        );
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
        assert_eq!(
            proof.verify(&sn(25), &new.root(), 4),
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
        let fake = RevocationProof::AbsentBelow(PresenceProof::generate(&t, 1));
        assert_eq!(
            fake.verify(&sn(5), &t.root(), 3),
            Err(ProofError::WrongIndex)
        );
    }

    #[test]
    fn encoding_round_trips() {
        let t = tree_with(&[10, 20, 30, 40, 50, 60, 70]);
        for q in [10u32, 15, 5, 99, 40] {
            let p = RevocationProof::generate(&t, &sn(q));
            let bytes = p.to_bytes();
            let back = RevocationProof::from_bytes(&bytes).unwrap();
            assert_eq!(back, p, "query {q}");
        }
        let empty = RevocationProof::AbsentEmpty;
        assert_eq!(
            RevocationProof::from_bytes(&empty.to_bytes()).unwrap(),
            empty
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(RevocationProof::from_bytes(&[]).is_err());
        assert!(RevocationProof::from_bytes(&[9]).is_err());
        let t = tree_with(&[10]);
        let mut good = RevocationProof::generate(&t, &sn(10)).to_bytes();
        good.push(0); // trailing byte
        assert!(RevocationProof::from_bytes(&good).is_err());
    }

    #[test]
    fn forged_path_length_rejected_before_allocation() {
        // A presence proof claiming a 0xffff-digest path (1.3 MB) with an
        // empty tail must fail the count check up front.
        let mut w = Writer::new();
        w.u8(0); // Present tag
        w.u64(0); // index
        w.vec8(&[1]); // serial
        w.u64(1); // number
        w.u16(u16::MAX); // forged path length, no path bytes follow
        let err = RevocationProof::from_bytes(w.as_bytes()).unwrap_err();
        assert!(err.context.contains("path"), "{err}");
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
        // 5 absent serials: individually each needs an AbsentBetween pair
        // (two full audit paths); the multiproof ships each sibling once.
        let t = tree_with(&(0..1024u32).map(|i| i * 2).collect::<Vec<_>>());
        let queries: Vec<SerialNumber> = [101u32, 301, 501, 701, 901].map(sn).to_vec();
        let mp = MultiProof::generate(&t, &queries);
        let individual: usize = queries
            .iter()
            .map(|q| RevocationProof::generate(&t, q).encoded_len())
            .sum();
        let compressed = mp.encoded_len();
        assert!(
            compressed * 10 <= individual * 6,
            "multiproof {compressed}B must be ≤60% of {individual}B"
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
    fn multiproof_forged_gap_rejected() {
        // An RA omits leaf 20 and presents (10, 30) as adjacent to hide a
        // revocation between them: the indices give it away.
        let t = tree_with(&[10, 20, 30]);
        let honest = MultiProof::generate(&t, &[sn(10), sn(30)]);
        // Forge: drop the middle leaf and claim 15 absent.
        let forged = MultiProof {
            leaves: honest.leaves.clone(),
            siblings: honest.siblings.clone(),
        };
        assert_eq!(
            forged.verify(&[sn(15)], &t.root(), 3),
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
    fn multiproof_forged_count_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u16(u16::MAX); // leaf count with no bytes behind it
        let err = MultiProof::from_bytes(w.as_bytes()).unwrap_err();
        assert!(err.context.contains("count"), "{err}");
    }

    #[test]
    fn encoded_len_is_exact_for_all_variants() {
        let t = tree_with(&[10, 20, 30, 40, 50]);
        for q in [10u32, 15, 5, 99] {
            let p = RevocationProof::generate(&t, &sn(q));
            assert_eq!(p.to_bytes().len(), p.encoded_len(), "query {q}");
        }
        let empty = RevocationProof::AbsentEmpty;
        assert_eq!(empty.to_bytes().len(), empty.encoded_len());
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
