//! The authenticated dictionary — Fig. 2 of the paper.
//!
//! [`CaDictionary`] is the trusted, CA-side structure implementing `insert`
//! and `refresh`; [`MirrorDictionary`] is the untrusted copy every RA keeps,
//! implementing `update` and `prove`. Both write through the same
//! structurally-shared [`PersistentTree`], whose packed serial log is each
//! side's one copy of its serials: the CA's catch-up pages and the mirror's
//! persisted serial list read ranges of it.

use crate::freshness::{FreshnessError, FreshnessStatement};
use crate::issuance_log::SerialLog;
use crate::persistent::PersistentTree;
use crate::proof::{ProofError, ProvenStatus, RevocationProof};
use crate::root::{CaId, SignedRoot};
use crate::serial::SerialNumber;
use crate::tree::Leaf;
use rand::RngCore;
use ritm_crypto::digest::Digest20;
use ritm_crypto::ed25519::{SigningKey, VerifyingKey};
use ritm_crypto::hashchain::HashChain;
use ritm_crypto::wire::{DecodeError, Reader, Writer};

/// A revocation issuance message: the revoked serials plus the new signed
/// root (first row of Tab. I).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationIssuance {
    /// Revocation number of the first serial in `serials`; the batch covers
    /// numbers `first_number .. first_number + serials.len()`.
    pub first_number: u64,
    /// Newly revoked serials, in issuance order.
    pub serials: Vec<SerialNumber>,
    /// The root signed over the dictionary including this batch.
    pub signed_root: SignedRoot,
}

impl RevocationIssuance {
    /// Exact encoded size in bytes, computed without serializing.
    pub fn encoded_len(&self) -> usize {
        8 + 4
            + self.serials.iter().map(|s| 1 + s.len()).sum::<usize>()
            + crate::root::SIGNED_ROOT_LEN
    }

    /// Serializes the issuance for dissemination (pre-sized to
    /// [`RevocationIssuance::encoded_len`]; never reallocates).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Appends the encoding to an existing writer (protocol envelopes
    /// embed issuances without an intermediate buffer).
    pub fn encode_into(&self, w: &mut Writer) {
        w.u64(self.first_number);
        w.u32(self.serials.len() as u32);
        for s in &self.serials {
            w.vec8(s.as_bytes());
        }
        w.bytes(&self.signed_root.to_bytes());
    }

    /// Parses an issuance message.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let first_number = r.u64("issuance first number")?;
        let count = r.u32("issuance count")? as usize;
        // Each serial costs at least 2 bytes (length prefix + 1 data byte),
        // so a count not covered by the remaining buffer is forged; checking
        // here keeps the allocation and the parse loop attacker-independent.
        r.check_count(count, 2, "issuance count exceeds buffer")?;
        let mut serials = Vec::with_capacity(count);
        for _ in 0..count {
            let raw = r.vec8("issuance serial")?;
            serials.push(
                SerialNumber::new(raw)
                    .map_err(|_| DecodeError::new("invalid serial", r.position()))?,
            );
        }
        let signed_root = SignedRoot::decode(&mut r)?;
        r.finish("issuance trailing bytes")?;
        Ok(RevocationIssuance {
            first_number,
            serials,
            signed_root,
        })
    }
}

/// What a CA disseminates at each period boundary (rows of Tab. I).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefreshMessage {
    /// Nothing new was revoked: only a freshness statement.
    Freshness(FreshnessStatement),
    /// The hash chain was exhausted: a brand-new signed root.
    NewRoot(SignedRoot),
}

/// The most serials one issuance batch may carry. A page of the issuance
/// feed never cuts a batch, so this bounds every page a server answers
/// with: 2^20 serials of up to 21 encoded bytes fit one wire frame.
pub const MAX_BATCH: usize = 1 << 20;

/// Why [`CaDictionary::insert`] disseminates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// Every serial was already revoked (or repeated in the batch).
    NothingNew,
    /// More than [`MAX_BATCH`] new serials: the batch is refused whole and
    /// the dictionary is unchanged. Revoke them in several calls.
    TooLarge {
        /// The distinct new serials the batch carried.
        serials: usize,
    },
}

impl core::fmt::Display for InsertError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InsertError::NothingNew => f.write_str("every serial was already revoked"),
            InsertError::TooLarge { serials } => write!(
                f,
                "batch of {serials} new serials exceeds the {MAX_BATCH}-serial cap"
            ),
        }
    }
}

impl std::error::Error for InsertError {}

/// The full revocation status an RA sends to a client — Eq. (3):
/// `proof, {root, n, H^m(v), t}_{K⁻_CA}, H^(m-p)(v)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationStatus {
    /// Presence/absence proof for the queried serial.
    pub proof: RevocationProof,
    /// The signed root the proof commits to.
    pub signed_root: SignedRoot,
    /// The latest freshness statement for that root.
    pub freshness: FreshnessStatement,
}

/// Why a [`RevocationStatus`] failed client-side validation (§III step 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusError {
    /// The signed root's signature is invalid (step 5b precondition).
    BadSignature,
    /// The proof does not verify against the signed root (step 5b).
    BadProof(ProofError),
    /// The freshness statement is older than 2Δ or forged (step 5c).
    NotFresh(FreshnessError),
}

impl core::fmt::Display for StatusError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StatusError::BadSignature => f.write_str("signed root signature invalid"),
            StatusError::BadProof(e) => write!(f, "revocation proof invalid: {e}"),
            StatusError::NotFresh(e) => write!(f, "freshness check failed: {e}"),
        }
    }
}

impl std::error::Error for StatusError {}

/// The signature half of status validation (§III step 5b's precondition).
fn verify_signature(signed_root: &SignedRoot, ca_key: &VerifyingKey) -> Result<(), StatusError> {
    signed_root
        .verify(ca_key)
        .map_err(|_| StatusError::BadSignature)
}

/// The rest of status validation, under a root whose signature has already
/// verified: the proof against `(root, size)` (step 5b), then the freshness
/// statement against the root's anchor (step 5c). Single and compressed
/// statuses differ only in `prove`.
fn under_verified_root<T>(
    signed_root: &SignedRoot,
    freshness: &FreshnessStatement,
    delta: u64,
    now: u64,
    prove: impl FnOnce(&Digest20, u64) -> Result<T, ProofError>,
) -> Result<T, StatusError> {
    let status = prove(&signed_root.root, signed_root.size).map_err(StatusError::BadProof)?;
    freshness
        .verify(signed_root, delta, now)
        .map_err(StatusError::NotFresh)?;
    Ok(status)
}

impl RevocationStatus {
    /// Client-side validation (§III step 5): signature, proof, freshness.
    ///
    /// Returns the proven status on success.
    ///
    /// # Errors
    ///
    /// Returns the first failed check as a [`StatusError`].
    pub fn validate(
        &self,
        serial: &SerialNumber,
        ca_key: &VerifyingKey,
        delta: u64,
        now: u64,
    ) -> Result<ProvenStatus, StatusError> {
        verify_signature(&self.signed_root, ca_key)?;
        self.validate_under_verified_root(serial, delta, now)
    }

    /// [`RevocationStatus::validate`] without the signature check: the
    /// proof and the freshness statement, for a caller that has already
    /// verified these exact `signed_root` bytes under the CA's key.
    ///
    /// # Errors
    ///
    /// Returns the first failed check as a [`StatusError`].
    pub fn validate_under_verified_root(
        &self,
        serial: &SerialNumber,
        delta: u64,
        now: u64,
    ) -> Result<ProvenStatus, StatusError> {
        under_verified_root(
            &self.signed_root,
            &self.freshness,
            delta,
            now,
            |root, size| self.proof.verify(serial, root, size),
        )
    }

    /// Serializes the status (this is the payload piggybacked onto TLS; its
    /// size is the paper's 500–900 byte figure, §VII-D). Pre-sized to
    /// [`RevocationStatus::encoded_len`]; never reallocates.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        w.vec16(&self.proof.to_bytes());
        w.bytes(&self.signed_root.to_bytes());
        w.bytes(&self.freshness.to_bytes());
        w.into_bytes()
    }

    /// Parses a status message.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let proof_bytes = r.vec16("status proof")?;
        let proof = RevocationProof::from_bytes(proof_bytes)?;
        let signed_root = SignedRoot::decode(&mut r)?;
        let freshness = FreshnessStatement::decode(&mut r)?;
        r.finish("status trailing bytes")?;
        Ok(RevocationStatus {
            proof,
            signed_root,
            freshness,
        })
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        2 + self.proof.encoded_len() + crate::root::SIGNED_ROOT_LEN + 20
    }
}

/// A compressed revocation status for several serials of **one** CA's
/// chain: a single [`crate::proof::MultiProof`] plus one signed root and one freshness
/// statement instead of `k` independent [`RevocationStatus`] objects.
///
/// This is the wire form of the §VIII certificate-chain optimization: the
/// audit paths of a chain's serials share most of their sibling nodes, and
/// the root/freshness pair is common to all of them, so the compressed
/// status shrinks the per-handshake communication overhead (Fig. 7)
/// substantially for multi-certificate chains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiRevocationStatus {
    /// The serials covered, in chain order.
    pub serials: Vec<SerialNumber>,
    /// One compressed proof answering every serial.
    pub proof: crate::proof::MultiProof,
    /// The signed root the proof commits to.
    pub signed_root: SignedRoot,
    /// The latest freshness statement for that root.
    pub freshness: FreshnessStatement,
}

impl MultiRevocationStatus {
    /// Client-side validation: signature, compressed proof, freshness —
    /// each checked **once** for the whole serial set.
    ///
    /// Returns one proven status per covered serial, aligned with
    /// [`MultiRevocationStatus::serials`].
    ///
    /// # Errors
    ///
    /// Returns the first failed check as a [`StatusError`].
    pub fn validate(
        &self,
        ca_key: &VerifyingKey,
        delta: u64,
        now: u64,
    ) -> Result<Vec<ProvenStatus>, StatusError> {
        verify_signature(&self.signed_root, ca_key)?;
        self.validate_under_verified_root(delta, now)
    }

    /// [`MultiRevocationStatus::validate`] without the signature check: the
    /// compressed proof and the freshness statement, for a caller that has
    /// already verified these exact `signed_root` bytes under the CA's key.
    ///
    /// # Errors
    ///
    /// Returns the first failed check as a [`StatusError`].
    pub fn validate_under_verified_root(
        &self,
        delta: u64,
        now: u64,
    ) -> Result<Vec<ProvenStatus>, StatusError> {
        under_verified_root(
            &self.signed_root,
            &self.freshness,
            delta,
            now,
            |root, size| self.proof.verify(&self.serials, root, size),
        )
    }

    /// Exact encoded size in bytes, computed without serializing.
    pub fn encoded_len(&self) -> usize {
        1 + self.serials.iter().map(|s| 1 + s.len()).sum::<usize>()
            + 3
            + self.proof.encoded_len()
            + crate::root::SIGNED_ROOT_LEN
            + 20
    }

    /// Serializes the compressed status (pre-sized; never reallocates).
    ///
    /// # Panics
    ///
    /// Panics when more than 255 serials are covered (a silent truncation
    /// would emit an undecodable payload; real chains are single digits).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        assert!(
            self.serials.len() <= u8::MAX as usize,
            "multi status serial count overflow"
        );
        w.u8(self.serials.len() as u8);
        for s in &self.serials {
            w.vec8(s.as_bytes());
        }
        w.vec24(&self.proof.to_bytes());
        w.bytes(&self.signed_root.to_bytes());
        w.bytes(&self.freshness.to_bytes());
        w.into_bytes()
    }

    /// Parses a compressed status.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let n = r.u8("multi status serial count")? as usize;
        r.check_count(n, 2, "multi status serial count exceeds buffer")?;
        let mut serials = Vec::with_capacity(n);
        for _ in 0..n {
            let raw = r.vec8("multi status serial")?;
            serials.push(
                SerialNumber::new(raw)
                    .map_err(|_| DecodeError::new("invalid serial", r.position()))?,
            );
        }
        let proof_bytes = r.vec24("multi status proof")?;
        let proof = crate::proof::MultiProof::from_bytes(proof_bytes)?;
        let signed_root = SignedRoot::decode(&mut r)?;
        let freshness = FreshnessStatement::decode(&mut r)?;
        r.finish("multi status trailing bytes")?;
        Ok(MultiRevocationStatus {
            serials,
            proof,
            signed_root,
            freshness,
        })
    }
}

/// The CA-side authenticated dictionary (trusted; Fig. 2 `insert` and
/// `refresh`).
#[derive(Debug)]
pub struct CaDictionary {
    ca: CaId,
    key: SigningKey,
    /// The tree, whose serial log by number (1-based) also serves RA
    /// catch-up sync.
    tree: PersistentTree,
    /// Historical `(end_count, signed_root)` per applied batch, in
    /// ascending `end_count` order — the per-version roots paged catch-up
    /// replies anchor to. Fed by [`CaDictionary::insert`] and by log
    /// replay after a crash.
    batch_roots: Vec<(u64, SignedRoot)>,
    chain: HashChain,
    chain_len: u64,
    delta: u64,
    signed_root: SignedRoot,
}

impl CaDictionary {
    /// Creates an empty dictionary and signs its genesis root.
    ///
    /// `chain_len` is the paper's `m` parameter — how many Δ-periods one
    /// hash chain covers before a new signed root is required.
    pub fn new<R: RngCore + ?Sized>(
        ca: CaId,
        key: SigningKey,
        delta: u64,
        chain_len: u64,
        rng: &mut R,
        now: u64,
    ) -> Self {
        let tree = PersistentTree::new();
        let chain = HashChain::generate(rng, chain_len);
        let signed_root = SignedRoot::create(&key, ca, tree.root(), 0, chain.anchor(), now);
        CaDictionary {
            ca,
            key,
            tree,
            batch_roots: Vec::new(),
            chain,
            chain_len,
            delta,
            signed_root,
        }
    }

    /// Reconstructs a dictionary from a replayed sequence of issuance
    /// records (a crash-recovery log). Each record is verified exactly the
    /// way a mirror would verify it — signature, contiguous numbering, no
    /// duplicate serials, and the rebuilt root matching the record's signed
    /// root — so a corrupt or forged log can never resurrect a dictionary
    /// that disagrees with what was disseminated.
    ///
    /// The hash-chain preimages die with the crashed process, so recovery
    /// rotates: a fresh chain is generated and a new root (same tree, same
    /// size, new anchor, timestamp `now`) is signed — exactly the
    /// [`RefreshMessage::NewRoot`] rotation mirrors already follow.
    ///
    /// # Errors
    ///
    /// The index of the first record that failed verification. The partial
    /// dictionary is discarded; callers typically truncate the log there
    /// and replay again.
    pub fn replay<R: RngCore + ?Sized>(
        ca: CaId,
        key: SigningKey,
        delta: u64,
        chain_len: u64,
        records: &[RevocationIssuance],
        rng: &mut R,
        now: u64,
    ) -> Result<Self, usize> {
        let verifying = key.verifying_key();
        let mut dict = CaDictionary::new(ca, key, delta, chain_len, rng, now);
        for (i, rec) in records.iter().enumerate() {
            let sr = &rec.signed_root;
            let ok = sr.ca == ca
                && sr.verify(&verifying).is_ok()
                && rec.first_number == dict.tree.len() as u64 + 1
                && !rec.serials.is_empty()
                && rec.serials.len() <= MAX_BATCH;
            if !ok {
                return Err(i);
            }
            let Some(batch) = checked_batch(&rec.serials, rec.first_number, |s| {
                dict.tree.find(s).is_some()
            }) else {
                return Err(i);
            };
            dict.tree.apply_sorted_batch(&batch);
            if dict.tree.root() != sr.root || dict.tree.len() as u64 != sr.size {
                return Err(i);
            }
            dict.batch_roots.push((dict.tree.len() as u64, *sr));
        }
        // Post-replay rotation: the recovered dictionary signs the same
        // content under a fresh chain.
        dict.signed_root = SignedRoot::create(
            &dict.key,
            dict.ca,
            dict.tree.root(),
            dict.tree.len() as u64,
            dict.chain.anchor(),
            now,
        );
        Ok(dict)
    }

    /// The CA identifier.
    pub fn ca(&self) -> CaId {
        self.ca
    }

    /// The CA's verifying key (what clients and RAs pin).
    pub fn verifying_key(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// The dissemination period Δ.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Number of revocations issued so far.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` if nothing has been revoked.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The latest signed root.
    pub fn signed_root(&self) -> &SignedRoot {
        &self.signed_root
    }

    /// Monotonic content epoch of the underlying tree (see
    /// [`PersistentTree::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.tree.epoch()
    }

    /// Whether `serial` is already revoked.
    pub fn contains(&self, serial: &SerialNumber) -> bool {
        self.tree.find(serial).is_some()
    }

    /// Fig. 2 `insert`, batched: revokes `serials` (duplicates and
    /// already-revoked serials are skipped), applies them to the tree,
    /// rotates the hash chain, and returns the issuance message to
    /// disseminate.
    ///
    /// # Errors
    ///
    /// [`InsertError::NothingNew`] when every serial was already revoked;
    /// [`InsertError::TooLarge`] when more than [`MAX_BATCH`] serials are
    /// new. Either way the dictionary is unchanged.
    pub fn insert<R: RngCore + ?Sized>(
        &mut self,
        serials: &[SerialNumber],
        rng: &mut R,
        now: u64,
    ) -> Result<RevocationIssuance, InsertError> {
        let first_number = self.tree.len() as u64 + 1;
        // Sorted by (serial, input index), the first occurrence of a repeat
        // leads its run; `number` holds the input index until renumbering.
        let mut batch: Vec<Leaf> = serials
            .iter()
            .zip(0..)
            .map(|(&s, i)| Leaf::new(s, i))
            .collect();
        batch.sort_unstable_by(by_serial_then_number);
        batch.dedup_by(|later, first| later.serial == first.serial);
        batch.retain(|l| self.tree.find(&l.serial).is_none());
        if batch.is_empty() {
            return Err(InsertError::NothingNew);
        }
        if batch.len() > MAX_BATCH {
            return Err(InsertError::TooLarge {
                serials: batch.len(),
            });
        }
        // Number the survivors in input order: `number[i]` is input `i`'s
        // revocation number, or 0 if it was skipped.
        let mut number = vec![0; serials.len()];
        batch.iter().for_each(|l| number[l.number as usize] = 1);
        let mut added = Vec::with_capacity(batch.len());
        for (s, n) in serials.iter().zip(&mut number).filter(|(_, n)| **n != 0) {
            *n = first_number + added.len() as u64;
            added.push(*s);
        }
        batch
            .iter_mut()
            .for_each(|l| l.number = number[l.number as usize]);
        self.tree.apply_sorted_batch(&batch);
        self.chain = HashChain::generate(rng, self.chain_len);
        self.signed_root = SignedRoot::create(
            &self.key,
            self.ca,
            self.tree.root(),
            self.tree.len() as u64,
            self.chain.anchor(),
            now,
        );
        self.batch_roots
            .push((self.tree.len() as u64, self.signed_root));
        Ok(RevocationIssuance {
            first_number,
            serials: added,
            signed_root: self.signed_root,
        })
    }

    /// Fig. 2 `refresh`: called at least every Δ when there is no new
    /// revocation. Returns either the next freshness statement or, when the
    /// chain is exhausted (`p ≥ m`), a brand-new signed root.
    pub fn refresh<R: RngCore + ?Sized>(&mut self, rng: &mut R, now: u64) -> RefreshMessage {
        let p = now.saturating_sub(self.signed_root.timestamp) / self.delta.max(1);
        match self.chain.statement(p) {
            Ok(value) => RefreshMessage::Freshness(FreshnessStatement::new(value)),
            Err(_) => {
                self.chain = HashChain::generate(rng, self.chain_len);
                self.signed_root = SignedRoot::create(
                    &self.key,
                    self.ca,
                    self.tree.root(),
                    self.tree.len() as u64,
                    self.chain.anchor(),
                    now,
                );
                RefreshMessage::NewRoot(self.signed_root)
            }
        }
    }

    /// Current freshness statement for time `now` (what an edge server would
    /// hand out between refreshes).
    pub fn current_freshness(&self, now: u64) -> Option<FreshnessStatement> {
        let p = now.saturating_sub(self.signed_root.timestamp) / self.delta.max(1);
        self.chain.statement(p).ok().map(FreshnessStatement::new)
    }

    /// Replays the issuance of every revocation after `have` (the RA's count
    /// of consecutive valid revocations) — the catch-up half of the paper's
    /// synchronization protocol.
    pub fn issuance_since(&self, have: u64) -> RevocationIssuance {
        issuance_since(&self.tree, have, self.signed_root)
    }

    /// One page of the issuance feed for an RA holding `have` consecutive
    /// revocations, under the feed's one page rule ([`issuance_page`]):
    /// whole batches only, each under the root this CA published for it.
    /// Returns the page and how many serials remain beyond it (`0` =
    /// caught up). Signs nothing.
    pub fn issuance_page(&self, have: u64, limit: u32) -> (RevocationIssuance, u64) {
        issuance_page(
            self.tree.log(),
            &self.batch_roots,
            self.signed_root,
            have,
            limit,
        )
    }

    /// Builds a full revocation status (Eq. 3) directly from the CA's own
    /// tree — used in tests and by the origin server.
    pub fn prove(&self, serial: &SerialNumber, now: u64) -> Option<RevocationStatus> {
        Some(RevocationStatus {
            proof: RevocationProof::generate(&self.tree, serial),
            signed_root: self.signed_root,
            freshness: self.current_freshness(now)?,
        })
    }

    /// Paper §VII-D storage metric: bytes to persist the revocation data.
    pub fn storage_bytes(&self) -> usize {
        self.tree.storage_bytes()
    }

    /// Paper §VII-D memory metric: bytes to hold the built dictionary
    /// (its serial log included) and its per-batch roots.
    pub fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes()
            + self.batch_roots.capacity() * core::mem::size_of::<(u64, SignedRoot)>()
    }
}

/// Why an RA rejected an update (Fig. 2 `update`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// Signature on the new root is invalid.
    BadSignature,
    /// The root's timestamp regressed or is too far in the future.
    BadTimestamp,
    /// The issuance numbering does not continue the local copy — the RA is
    /// desynchronized and must request a catch-up (sync protocol, §III).
    Desynchronized {
        /// Consecutive revocations the RA has.
        have: u64,
        /// First number in the received batch.
        got: u64,
    },
    /// Rebuilt root or size does not match the signed root — the message is
    /// corrupt or the CA equivocated.
    RootMismatch,
    /// A serial in the batch is already present — violates append-only
    /// uniqueness.
    DuplicateSerial,
    /// Issuance was for a different CA's dictionary.
    WrongCa,
}

impl core::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UpdateError::BadSignature => f.write_str("issuance signature invalid"),
            UpdateError::BadTimestamp => f.write_str("issuance timestamp not acceptable"),
            UpdateError::Desynchronized { have, got } => write!(
                f,
                "desynchronized: have {have} consecutive revocations, batch starts at {got}"
            ),
            UpdateError::RootMismatch => f.write_str("rebuilt root does not match signed root"),
            UpdateError::DuplicateSerial => f.write_str("duplicate serial in issuance"),
            UpdateError::WrongCa => f.write_str("issuance for a different CA"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Maximum tolerated clock skew (seconds) when judging root timestamps.
pub const MAX_TIMESTAMP_SKEW: u64 = 300;

/// An RA's untrusted mirror of one CA dictionary (Fig. 2 `update` and
/// `prove`).
///
/// The mirror's tree is a structurally-shared [`PersistentTree`]: freezing
/// a [`crate::snapshot::DictionarySnapshot`] for publication clones only
/// the chunk spine (O(chunks) `Arc` bumps), and subsequent batches
/// copy-on-write only the chunks they dirty — publish cost tracks the
/// batch, not the dictionary.
#[derive(Debug, Clone)]
pub struct MirrorDictionary {
    ca: CaId,
    ca_key: VerifyingKey,
    tree: PersistentTree,
    delta: u64,
    signed_root: SignedRoot,
    freshness: FreshnessStatement,
}

impl MirrorDictionary {
    /// Bootstraps a mirror from the CA's genesis signed root (size 0).
    ///
    /// # Errors
    ///
    /// [`UpdateError::BadSignature`] if the root is not validly signed;
    /// [`UpdateError::RootMismatch`] if it does not commit to an empty tree.
    pub fn new(ca: CaId, ca_key: VerifyingKey, genesis: SignedRoot) -> Result<Self, UpdateError> {
        genesis
            .verify(&ca_key)
            .map_err(|_| UpdateError::BadSignature)?;
        if genesis.ca != ca {
            return Err(UpdateError::WrongCa);
        }
        let tree = PersistentTree::new();
        if genesis.size != 0 || genesis.root != tree.root() {
            return Err(UpdateError::RootMismatch);
        }
        Ok(MirrorDictionary {
            ca,
            ca_key,
            tree,
            delta: 0, // set by set_delta or inherited from config
            signed_root: genesis,
            freshness: FreshnessStatement::new(genesis.anchor),
        })
    }

    /// Restores a mirror of the CA that `signed_root` names from persisted
    /// parts: the serials in issuance order plus the last accepted signed
    /// root. The tree is rebuilt from
    /// scratch and accepted only if it reproduces the signed root exactly —
    /// a tampered log can never resurrect a mirror that disagrees with
    /// what the CA signed. The freshness statement is re-derived from the
    /// root's anchor (the restored RA refreshes on its next sync).
    ///
    /// `ca_key` comes from the caller's pinned configuration, never from
    /// the persisted bytes themselves.
    ///
    /// # Errors
    ///
    /// See [`UpdateError`]; the same checks an `update` would run.
    pub fn restore(
        ca_key: VerifyingKey,
        delta: u64,
        serials: &[SerialNumber],
        signed_root: SignedRoot,
    ) -> Result<Self, UpdateError> {
        signed_root
            .verify(&ca_key)
            .map_err(|_| UpdateError::BadSignature)?;
        let leaves = checked_batch(serials, 1, |_| false).ok_or(UpdateError::DuplicateSerial)?;
        let mut tree = PersistentTree::new();
        tree.apply_sorted_batch(&leaves);
        if tree.root() != signed_root.root || tree.len() as u64 != signed_root.size {
            return Err(UpdateError::RootMismatch);
        }
        let freshness = FreshnessStatement::new(signed_root.anchor);
        Ok(MirrorDictionary {
            ca: signed_root.ca,
            ca_key,
            tree,
            delta,
            signed_root,
            freshness,
        })
    }

    /// Every mirrored revocation after `have`, under the mirror's current
    /// signed root — the record an RA appends to its issuance log so that
    /// [`MirrorDictionary::restore`] can rebuild and re-verify the tree
    /// after a restart. `issuance_since(0).serials` is every serial in
    /// issuance order; a record with no serials persists a rotated root.
    pub fn issuance_since(&self, have: u64) -> RevocationIssuance {
        issuance_since(&self.tree, have, self.signed_root)
    }

    /// Sets the dissemination period Δ (from the CA manifest, §VIII).
    pub fn set_delta(&mut self, delta: u64) {
        self.delta = delta;
    }

    /// The dissemination period Δ the mirror runs with.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// The CA this mirror tracks.
    pub fn ca(&self) -> CaId {
        self.ca
    }

    /// Number of revocations mirrored.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` when no revocation has been mirrored yet.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Latest accepted signed root.
    pub fn signed_root(&self) -> &SignedRoot {
        &self.signed_root
    }

    /// Monotonic content epoch: advances whenever the mirrored tree is
    /// mutated (every accepted issuance; a rejected one rolls content back
    /// but still advances the epoch, harmlessly). Freshness-only refreshes
    /// do not advance it — audit paths stay valid across them.
    pub fn epoch(&self) -> u64 {
        self.tree.epoch()
    }

    /// Latest accepted freshness statement.
    pub fn freshness(&self) -> &FreshnessStatement {
        &self.freshness
    }

    /// Fig. 2 `update`: verifies and applies an issuance batch.
    ///
    /// The tree is rebuilt with the new serials and the changes are kept
    /// only if the rebuilt root and size match the signed root exactly.
    ///
    /// # Errors
    ///
    /// See [`UpdateError`]; on any error the mirror is left unchanged.
    pub fn apply_issuance(
        &mut self,
        issuance: &RevocationIssuance,
        now: u64,
    ) -> Result<(), UpdateError> {
        let sr = &issuance.signed_root;
        if sr.ca != self.ca {
            return Err(UpdateError::WrongCa);
        }
        sr.verify(&self.ca_key)
            .map_err(|_| UpdateError::BadSignature)?;
        if sr.timestamp < self.signed_root.timestamp || sr.timestamp > now + MAX_TIMESTAMP_SKEW {
            return Err(UpdateError::BadTimestamp);
        }
        let have = self.tree.len() as u64;
        if issuance.first_number != have + 1 {
            return Err(UpdateError::Desynchronized {
                have,
                got: issuance.first_number,
            });
        }
        let batch = checked_batch(&issuance.serials, issuance.first_number, |s| {
            self.tree.find(s).is_some()
        })
        .ok_or(UpdateError::DuplicateSerial)?;
        // Verify-then-commit without an O(n) scratch clone: apply the batch
        // incrementally, and roll it back (removing exactly the inserted
        // leaves) if the resulting root does not match the signed root.
        self.tree.apply_sorted_batch(&batch);
        if self.tree.root() != sr.root || self.tree.len() as u64 != sr.size {
            self.tree.remove_sorted_batch(&issuance.serials);
            return Err(UpdateError::RootMismatch);
        }
        self.signed_root = *sr;
        self.freshness = FreshnessStatement::new(sr.anchor);
        Ok(())
    }

    /// Applies a periodic refresh message (freshness statement or root
    /// rotation).
    ///
    /// # Errors
    ///
    /// [`UpdateError::BadSignature`] / [`UpdateError::RootMismatch`] for a
    /// bad rotated root; a stale or off-chain freshness statement is
    /// reported as `RootMismatch` since it does not commit to our anchor.
    pub fn apply_refresh(&mut self, msg: &RefreshMessage, now: u64) -> Result<(), UpdateError> {
        match msg {
            RefreshMessage::Freshness(stmt) => {
                stmt.verify(&self.signed_root, self.delta.max(1), now)
                    .map_err(|_| UpdateError::RootMismatch)?;
                self.freshness = *stmt;
                Ok(())
            }
            RefreshMessage::NewRoot(sr) => {
                if sr.ca != self.ca {
                    return Err(UpdateError::WrongCa);
                }
                sr.verify(&self.ca_key)
                    .map_err(|_| UpdateError::BadSignature)?;
                // A rotation must not change the content.
                if sr.root != self.tree.root() || sr.size != self.tree.len() as u64 {
                    return Err(UpdateError::RootMismatch);
                }
                if sr.timestamp < self.signed_root.timestamp
                    || sr.timestamp > now + MAX_TIMESTAMP_SKEW
                {
                    return Err(UpdateError::BadTimestamp);
                }
                self.signed_root = *sr;
                self.freshness = FreshnessStatement::new(sr.anchor);
                Ok(())
            }
        }
    }

    /// Whether `serial` is currently mirrored as revoked.
    pub fn contains(&self, serial: &SerialNumber) -> bool {
        self.tree.find(serial).is_some()
    }

    /// Generates the bare audit-path proof for `serial` — the cacheable
    /// part of a status; it stays valid while [`MirrorDictionary::epoch`]
    /// is unchanged.
    pub fn proof(&self, serial: &SerialNumber) -> RevocationProof {
        RevocationProof::generate(&self.tree, serial)
    }

    /// Fig. 2 `prove`: builds the revocation status (Eq. 3) for `serial`.
    pub fn prove(&self, serial: &SerialNumber) -> RevocationStatus {
        RevocationStatus {
            proof: self.proof(serial),
            signed_root: self.signed_root,
            freshness: self.freshness,
        }
    }

    /// Builds a compressed status covering all of `serials` with one proof,
    /// one signed root, and one freshness statement (§VIII chains).
    pub fn prove_multi(&self, serials: &[SerialNumber]) -> MultiRevocationStatus {
        MultiRevocationStatus {
            serials: serials.to_vec(),
            proof: crate::proof::MultiProof::generate(&self.tree, serials),
            signed_root: self.signed_root,
            freshness: self.freshness,
        }
    }

    /// Freezes the mirror's current state into an immutable
    /// [`crate::snapshot::DictionarySnapshot`] for lock-free serving. With
    /// the structurally-shared tree this is O(chunks) `Arc` bumps — no
    /// leaf or level data is copied — so writers can republish after every
    /// batch at any issuance frequency (publishers swap it in with
    /// [`crate::snapshot::SnapshotCell::publish`]).
    pub fn snapshot(&self) -> crate::snapshot::DictionarySnapshot {
        crate::snapshot::DictionarySnapshot::new(
            self.ca,
            self.ca_key,
            self.epoch(),
            self.tree.clone(),
            self.signed_root,
            self.freshness,
        )
    }

    /// Count of consecutive revocations held — what the RA reports to an
    /// edge server when requesting catch-up.
    pub fn consecutive_count(&self) -> u64 {
        self.tree.len() as u64
    }

    /// Paper §VII-D storage metric.
    pub fn storage_bytes(&self) -> usize {
        self.tree.storage_bytes()
    }

    /// Paper §VII-D memory metric.
    pub fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes()
    }
}

/// One page of an issuance feed — `log`, every serial by revocation
/// number, and `batch_roots`, the `(end_count, signed_root)` published at
/// each batch boundary, ascending — for a requester holding `have`
/// consecutive revocations (clamped to the log's length). Returns the
/// page and how many serials remain beyond it (`0` = caught up).
///
/// The page rule every feed server (the CA and the CDN origin) answers
/// with: a page ends at the largest batch boundary within `have + limit`;
/// when none is, the enclosing batch is served whole — so a page is at
/// most `max(limit, MAX_BATCH)` serials, and every root a mirror applies
/// is one the CA published. A page ending at the log's length carries
/// `latest` instead, so a rotation since the last batch is never
/// regressed. A requester at (or past) the end gets an empty page under
/// `latest`.
pub fn issuance_page(
    log: &SerialLog,
    batch_roots: &[(u64, SignedRoot)],
    latest: SignedRoot,
    have: u64,
    limit: u32,
) -> (RevocationIssuance, u64) {
    let total = log.len() as u64;
    let have = have.min(total);
    let target = have.saturating_add(u64::from(limit.max(1)));
    // The largest boundary within the limit, else the first one past
    // `have`: the end of the batch `have` sits in.
    let hi = batch_roots.partition_point(|(end, _)| *end <= target);
    let within = batch_roots[..hi].last().filter(|(end, _)| *end > have);
    let enclosing = || batch_roots.get(batch_roots.partition_point(|(end, _)| *end <= have));
    let (end, signed_root) = match within.or_else(enclosing) {
        Some(&(end, _)) if end >= total => (total, latest),
        Some(&(end, root)) => (end, root),
        None => (total, latest),
    };
    let page = RevocationIssuance {
        first_number: have + 1,
        serials: log.range(have as usize, end as usize),
        signed_root,
    };
    (page, total - end)
}

/// The revocations after `have` in `tree`'s log, numbered from `have + 1`
/// (`have` clamped to the tree's size), under `signed_root`.
fn issuance_since(tree: &PersistentTree, have: u64, signed_root: SignedRoot) -> RevocationIssuance {
    let len = tree.len();
    let idx = usize::try_from(have).map_or(len, |h| h.min(len));
    RevocationIssuance {
        first_number: idx as u64 + 1,
        serials: tree.log().range(idx, len),
        signed_root,
    }
}

/// The leaves for `serials`, numbered in input order from `first_number`
/// and sorted by serial — or `None` when a serial repeats in the batch or
/// is already `present`. The one duplicate check of every bulk load: a
/// mirror's update and restore, and the CA's log replay.
fn checked_batch(
    serials: &[SerialNumber],
    first_number: u64,
    present: impl Fn(&SerialNumber) -> bool,
) -> Option<Vec<Leaf>> {
    let mut batch: Vec<Leaf> = serials
        .iter()
        .zip(first_number..)
        .map(|(&s, n)| Leaf::new(s, n))
        .collect();
    batch.sort_unstable_by(by_serial_then_number);
    let distinct = batch.windows(2).all(|w| w[0].serial != w[1].serial);
    (distinct && !batch.iter().any(|l| present(&l.serial))).then_some(batch)
}

/// Leaves by serial, and repeats of one serial by number.
fn by_serial_then_number(a: &Leaf, b: &Leaf) -> core::cmp::Ordering {
    a.serial.cmp(&b.serial).then(a.number.cmp(&b.number))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const DELTA: u64 = 10;
    const T0: u64 = 1_000_000;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn ca_dict(rng: &mut StdRng) -> CaDictionary {
        CaDictionary::new(
            CaId::from_name("TestCA"),
            SigningKey::from_seed([1u8; 32]),
            DELTA,
            64,
            rng,
            T0,
        )
    }

    fn mirror_of(ca: &CaDictionary) -> MirrorDictionary {
        let mut m = MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root())
            .expect("genesis bootstrap");
        m.set_delta(DELTA);
        m
    }

    fn serials(range: core::ops::Range<u32>) -> Vec<SerialNumber> {
        range.map(SerialNumber::from_u24).collect()
    }

    #[test]
    fn insert_update_prove_round_trip() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);

        let iss = ca.insert(&serials(1..6), &mut rng, T0 + 1).unwrap();
        ra.apply_issuance(&iss, T0 + 1).unwrap();
        assert_eq!(ra.len(), 5);
        assert_eq!(ra.signed_root(), ca.signed_root());

        // Revoked serial → presence proof validates as revoked.
        let status = ra.prove(&SerialNumber::from_u24(3));
        let res = status
            .validate(
                &SerialNumber::from_u24(3),
                &ca.verifying_key(),
                DELTA,
                T0 + 2,
            )
            .unwrap();
        assert!(res.is_revoked());

        // Unrevoked serial → absence proof validates as not revoked.
        let status = ra.prove(&SerialNumber::from_u24(100));
        let res = status
            .validate(
                &SerialNumber::from_u24(100),
                &ca.verifying_key(),
                DELTA,
                T0 + 2,
            )
            .unwrap();
        assert_eq!(res, ProvenStatus::NotRevoked);
    }

    #[test]
    fn duplicate_insert_skipped() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        ca.insert(&serials(1..4), &mut rng, T0 + 1).unwrap();
        assert_eq!(
            ca.insert(&serials(1..4), &mut rng, T0 + 2),
            Err(InsertError::NothingNew)
        );
        assert_eq!(ca.len(), 3);
        // Partial overlap only adds the new ones.
        let iss = ca.insert(&serials(3..6), &mut rng, T0 + 3).unwrap();
        assert_eq!(iss.serials.len(), 2);
        assert_eq!(iss.first_number, 4);
    }

    #[test]
    fn refresh_yields_freshness_then_rotates() {
        let mut rng = rng();
        // Chain of length 3 rotates quickly.
        let mut ca = CaDictionary::new(
            CaId::from_name("ShortChain"),
            SigningKey::from_seed([2u8; 32]),
            DELTA,
            3,
            &mut rng,
            T0,
        );
        match ca.refresh(&mut rng, T0 + DELTA) {
            RefreshMessage::Freshness(_) => {}
            other => panic!("expected freshness, got {other:?}"),
        }
        match ca.refresh(&mut rng, T0 + 3 * DELTA) {
            RefreshMessage::NewRoot(sr) => assert_eq!(sr.timestamp, T0 + 3 * DELTA),
            other => panic!("expected rotation, got {other:?}"),
        }
    }

    #[test]
    fn mirror_applies_refresh_messages() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);

        let msg = ca.refresh(&mut rng, T0 + DELTA);
        ra.apply_refresh(&msg, T0 + DELTA).unwrap();

        // After rotation the mirror follows along too.
        let mut ca2 = CaDictionary::new(
            CaId::from_name("R"),
            SigningKey::from_seed([5u8; 32]),
            DELTA,
            2,
            &mut rng,
            T0,
        );
        let mut ra2 = {
            let mut m =
                MirrorDictionary::new(ca2.ca(), ca2.verifying_key(), *ca2.signed_root()).unwrap();
            m.set_delta(DELTA);
            m
        };
        let msg = ca2.refresh(&mut rng, T0 + 5 * DELTA);
        assert!(matches!(msg, RefreshMessage::NewRoot(_)));
        ra2.apply_refresh(&msg, T0 + 5 * DELTA).unwrap();
        assert_eq!(ra2.signed_root(), ca2.signed_root());
    }

    #[test]
    fn desynchronized_mirror_detects_gap_and_catches_up() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);

        let iss1 = ca.insert(&serials(1..4), &mut rng, T0 + 1).unwrap();
        let iss2 = ca.insert(&serials(10..14), &mut rng, T0 + 2).unwrap();

        // RA missed iss1; applying iss2 reports desync with have = 0.
        let err = ra.apply_issuance(&iss2, T0 + 2).unwrap_err();
        assert_eq!(err, UpdateError::Desynchronized { have: 0, got: 4 });

        // Catch-up: CA replays everything after `have`.
        let catchup = ca.issuance_since(ra.consecutive_count());
        ra.apply_issuance(&catchup, T0 + 3).unwrap();
        assert_eq!(ra.len(), 7);
        assert_eq!(ra.signed_root(), ca.signed_root());
        drop(iss1);
    }

    #[test]
    fn tampered_issuance_rejected_and_mirror_unchanged() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);

        let mut iss = ca.insert(&serials(1..5), &mut rng, T0 + 1).unwrap();
        // Attacker swaps a serial: rebuilt root will differ.
        iss.serials[0] = SerialNumber::from_u24(999);
        let err = ra.apply_issuance(&iss, T0 + 1).unwrap_err();
        assert_eq!(err, UpdateError::RootMismatch);
        assert_eq!(ra.len(), 0, "failed update must not change the mirror");
    }

    #[test]
    fn reordered_issuance_rejected() {
        // Revocation reordering attack (§V "Misbehaving CA"): same serials,
        // different order → different numbering → different leaf hashes.
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);
        let mut iss = ca.insert(&serials(1..5), &mut rng, T0 + 1).unwrap();
        iss.serials.swap(0, 3);
        assert_eq!(
            ra.apply_issuance(&iss, T0 + 1),
            Err(UpdateError::RootMismatch)
        );
    }

    #[test]
    fn forged_signature_rejected() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);
        let mut iss = ca.insert(&serials(1..3), &mut rng, T0 + 1).unwrap();
        // Attacker signs with their own key.
        let evil = SigningKey::from_seed([9u8; 32]);
        iss.signed_root = SignedRoot::create(
            &evil,
            ca.ca(),
            iss.signed_root.root,
            iss.signed_root.size,
            iss.signed_root.anchor,
            iss.signed_root.timestamp,
        );
        assert_eq!(
            ra.apply_issuance(&iss, T0 + 1),
            Err(UpdateError::BadSignature)
        );
    }

    #[test]
    fn timestamp_regression_rejected() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);
        let iss = ca.insert(&serials(1..3), &mut rng, T0 - 10);
        // Genesis was at T0; an older root must not be accepted.
        assert_eq!(
            ra.apply_issuance(&iss.unwrap(), T0),
            Err(UpdateError::BadTimestamp)
        );
    }

    #[test]
    fn future_timestamp_rejected() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);
        let iss = ca
            .insert(&serials(1..3), &mut rng, T0 + MAX_TIMESTAMP_SKEW + 100)
            .unwrap();
        assert_eq!(ra.apply_issuance(&iss, T0), Err(UpdateError::BadTimestamp));
    }

    #[test]
    fn status_encoding_round_trips_and_size_matches_paper() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);
        // Dictionary comparable to the paper's largest CRL (339,557 entries
        // would be slow here; use 4096 and check the log-scaling claim).
        let batch: Vec<SerialNumber> = (0..4096u32).map(SerialNumber::from_u24).collect();
        let iss = ca.insert(&batch, &mut rng, T0 + 1).unwrap();
        ra.apply_issuance(&iss, T0 + 1).unwrap();

        let status = ra.prove(&SerialNumber::from_u24(5000));
        let bytes = status.to_bytes();
        assert_eq!(bytes.len(), status.encoded_len());
        let back = RevocationStatus::from_bytes(&bytes).unwrap();
        assert_eq!(back, status);
        // Paper §VII-D: status for the largest CRL is 500–900 bytes; a
        // 4096-entry dictionary (12 path levels) is 401 bytes as a
        // one-serial multiproof.
        assert!(bytes.len() < 420, "status was {} bytes", bytes.len());
    }

    #[test]
    fn issuance_encoding_round_trips() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let iss = ca.insert(&serials(1..10), &mut rng, T0 + 1).unwrap();
        let back = RevocationIssuance::from_bytes(&iss.to_bytes()).unwrap();
        assert_eq!(back, iss);
    }

    #[test]
    fn forged_issuance_count_rejected_before_allocation() {
        // 8-byte first_number + a count claiming u32::MAX serials with no
        // bytes behind it: must fail the count check, not loop or allocate.
        let mut w = ritm_crypto::wire::Writer::new();
        w.u64(1).u32(u32::MAX);
        let err = RevocationIssuance::from_bytes(w.as_bytes()).unwrap_err();
        assert!(err.context.contains("count"), "{err}");

        // A count still exceeding the (tiny) remaining buffer is also caught.
        let mut w = ritm_crypto::wire::Writer::new();
        w.u64(1).u32(50).vec8(&[7]);
        assert!(RevocationIssuance::from_bytes(w.as_bytes()).is_err());
    }

    #[test]
    fn stale_freshness_fails_validation() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);
        let iss = ca.insert(&serials(1..4), &mut rng, T0 + 1).unwrap();
        ra.apply_issuance(&iss, T0 + 1).unwrap();

        // RA never refreshes; 3Δ later its stored statement is too old.
        let status = ra.prove(&SerialNumber::from_u24(1));
        let res = status.validate(
            &SerialNumber::from_u24(1),
            &ca.verifying_key(),
            DELTA,
            T0 + 1 + 3 * DELTA,
        );
        assert!(matches!(res, Err(StatusError::NotFresh(_))));

        // After applying the current refresh, validation succeeds again.
        let msg = ca.refresh(&mut rng, T0 + 1 + 3 * DELTA);
        ra.apply_refresh(&msg, T0 + 1 + 3 * DELTA).unwrap();
        let status = ra.prove(&SerialNumber::from_u24(1));
        assert!(status
            .validate(
                &SerialNumber::from_u24(1),
                &ca.verifying_key(),
                DELTA,
                T0 + 1 + 3 * DELTA
            )
            .is_ok());
    }

    #[test]
    fn issuance_pages_converge_at_batch_boundaries() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);
        // Three batches of 4, 6, 5 serials.
        ca.insert(&serials(1..5), &mut rng, T0 + 1).unwrap();
        ca.insert(&serials(10..16), &mut rng, T0 + 2).unwrap();
        ca.insert(&serials(20..25), &mut rng, T0 + 3).unwrap();

        // Page with limit 7: boundaries at 4, 10, 15 → pages end at 4
        // (boundary ≤ 0+7), 10 (≤ 4+7), 15 (≤ 10+7).
        let mut pages = 0;
        loop {
            let have = ra.consecutive_count();
            let (page, remaining) = ca.issuance_page(have, 7);
            assert!(page.serials.len() <= 7);
            ra.apply_issuance(&page, T0 + 4).unwrap();
            pages += 1;
            if remaining == 0 {
                break;
            }
        }
        assert_eq!(pages, 3);
        assert_eq!(ra.consecutive_count(), 15);
        assert_eq!(ra.signed_root(), ca.signed_root());
    }

    #[test]
    fn batch_above_the_limit_is_served_whole() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);
        // One batch of 50 at limit 16: served whole under its own root.
        let iss = ca.insert(&serials(0..50), &mut rng, T0 + 1).unwrap();
        ca.insert(&serials(60..64), &mut rng, T0 + 2).unwrap();

        let (page, remaining) = ca.issuance_page(0, 16);
        assert_eq!(page, iss);
        assert_eq!(remaining, 4);
        // From mid-batch (a requester whose pages came from elsewhere):
        // the rest of the enclosing batch, still under its published root.
        let (page, remaining) = ca.issuance_page(20, 1);
        assert_eq!((page.first_number, page.serials.len()), (21, 30));
        assert_eq!(page.signed_root, iss.signed_root);
        assert_eq!(remaining, 4);
        ra.apply_issuance(&ca.issuance_page(0, 16).0, T0 + 2)
            .unwrap();
        ra.apply_issuance(&ca.issuance_page(50, 16).0, T0 + 2)
            .unwrap();
        assert_eq!(ra.signed_root(), ca.signed_root());
    }

    #[test]
    fn oversized_batch_is_refused_whole() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let too_many: Vec<SerialNumber> = (1..=MAX_BATCH as u32 + 1)
            .map(SerialNumber::from_u24)
            .collect();
        let before = *ca.signed_root();
        assert_eq!(
            ca.insert(&too_many, &mut rng, T0 + 1),
            Err(InsertError::TooLarge {
                serials: MAX_BATCH + 1
            })
        );
        assert_eq!((ca.len(), *ca.signed_root()), (0, before));
        // The cap itself is accepted.
        let iss = ca.insert(&too_many[..MAX_BATCH], &mut rng, T0 + 1).unwrap();
        assert_eq!(iss.serials.len(), MAX_BATCH);
    }

    #[test]
    fn page_after_rotation_carries_current_root() {
        let mut rng = rng();
        // Chain of length 2 rotates quickly.
        let mut ca = CaDictionary::new(
            CaId::from_name("RotCA"),
            SigningKey::from_seed([3u8; 32]),
            DELTA,
            2,
            &mut rng,
            T0,
        );
        let mut ra = {
            let mut m =
                MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
            m.set_delta(DELTA);
            m
        };
        ca.insert(&serials(1..6), &mut rng, T0 + 1).unwrap();
        let msg = ca.refresh(&mut rng, T0 + 1 + 5 * DELTA);
        assert!(matches!(msg, RefreshMessage::NewRoot(_)));

        // The final page must anchor to the rotated root, not the root
        // recorded at the batch boundary.
        let (page, remaining) = ca.issuance_page(0, 100);
        assert_eq!(remaining, 0);
        assert_eq!(page.signed_root, *ca.signed_root());
        ra.apply_issuance(&page, T0 + 1 + 5 * DELTA).unwrap();
        assert_eq!(ra.signed_root(), ca.signed_root());
    }

    #[test]
    fn replay_reconstructs_dictionary_and_pages() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let iss1 = ca.insert(&serials(1..8), &mut rng, T0 + 1).unwrap();
        let iss2 = ca.insert(&serials(20..30), &mut rng, T0 + 2).unwrap();
        let records = vec![iss1, iss2];

        let ca2 = CaDictionary::replay(
            ca.ca(),
            SigningKey::from_seed([1u8; 32]),
            DELTA,
            64,
            &records,
            &mut rng,
            T0 + 50,
        )
        .expect("clean replay");
        // Same content, rotated root (fresh chain, new timestamp).
        assert_eq!(ca2.len(), ca.len());
        assert_eq!(ca2.signed_root().root, ca.signed_root().root);
        assert_eq!(ca2.signed_root().timestamp, T0 + 50);
        assert_ne!(ca2.signed_root().anchor, ca.signed_root().anchor);

        // A mirror can still page-sync from the recovered dictionary.
        let genesis = SignedRoot::create(
            &SigningKey::from_seed([1u8; 32]),
            ca2.ca(),
            crate::tree::empty_root(),
            0,
            ca2.signed_root().anchor,
            T0,
        );
        let mut ra = MirrorDictionary::new(ca2.ca(), ca2.verifying_key(), genesis).unwrap();
        ra.set_delta(DELTA);
        loop {
            let (page, remaining) = ca2.issuance_page(ra.consecutive_count(), 6);
            ra.apply_issuance(&page, T0 + 51).unwrap();
            if remaining == 0 {
                break;
            }
        }
        assert_eq!(ra.signed_root(), ca2.signed_root());
    }

    #[test]
    fn replay_rejects_tampered_record() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let iss1 = ca.insert(&serials(1..5), &mut rng, T0 + 1).unwrap();
        let mut iss2 = ca.insert(&serials(10..15), &mut rng, T0 + 2).unwrap();
        iss2.serials[0] = SerialNumber::from_u24(999);
        let err = CaDictionary::replay(
            ca.ca(),
            SigningKey::from_seed([1u8; 32]),
            DELTA,
            64,
            &[iss1, iss2],
            &mut rng,
            T0 + 3,
        )
        .unwrap_err();
        assert_eq!(err, 1, "second record is the corrupt one");
    }

    #[test]
    fn mirror_restore_round_trips_and_rejects_tampering() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);
        let iss = ca.insert(&serials(1..30), &mut rng, T0 + 1).unwrap();
        ra.apply_issuance(&iss, T0 + 1).unwrap();

        let saved = ra.issuance_since(0).serials;
        assert_eq!(saved, iss.serials, "issuance order must be preserved");

        let back = MirrorDictionary::restore(ca.verifying_key(), DELTA, &saved, *ra.signed_root())
            .expect("clean restore");
        assert_eq!(back.signed_root(), ra.signed_root());
        assert_eq!(back.consecutive_count(), ra.consecutive_count());

        // A snapshot with a swapped serial must not restore.
        let mut evil = saved.clone();
        evil[0] = SerialNumber::from_u24(999);
        assert_eq!(
            MirrorDictionary::restore(ca.verifying_key(), DELTA, &evil, *ra.signed_root())
                .unwrap_err(),
            UpdateError::RootMismatch
        );
    }

    #[test]
    fn ca_prove_matches_mirror_prove() {
        let mut rng = rng();
        let mut ca = ca_dict(&mut rng);
        let mut ra = mirror_of(&ca);
        let iss = ca.insert(&serials(1..20), &mut rng, T0 + 1).unwrap();
        ra.apply_issuance(&iss, T0 + 1).unwrap();
        let s = SerialNumber::from_u24(7);
        let from_ca = ca.prove(&s, T0 + 2).unwrap();
        let from_ra = ra.prove(&s);
        assert_eq!(from_ca.proof, from_ra.proof);
        assert_eq!(from_ca.signed_root, from_ra.signed_root);
    }
}
