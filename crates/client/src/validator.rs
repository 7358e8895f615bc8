//! Client-side revocation-status validation — §III step 5 of the paper.
//!
//! The server's certificate is accepted only when (a) it passes standard
//! chain validation (done by `ritm-tls`), (b) the revocation status carries
//! a valid *absence* proof against a validly-signed root, and (c) the
//! freshness statement is no older than 2Δ.

use ritm_crypto::ed25519::VerifyingKey;
use ritm_dictionary::{CaId, SerialNumber, SignedRoot, StatusError};
use ritm_proto::StatusPayload;
use std::collections::HashMap;

/// The verdict from validating a status payload against a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every certificate of the chain has a fresh absence proof.
    AllValid,
    /// Some certificate is revoked — the connection must be aborted.
    Revoked {
        /// The revoked certificate's serial.
        serial: SerialNumber,
        /// Its revocation number at the CA.
        number: u64,
    },
}

/// Why a status payload was rejected (distinct from a *revoked* verdict:
/// rejection means the payload proves nothing either way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Payload covers a different number of certificates than expected.
    ChainLengthMismatch {
        /// Statuses in the payload.
        got: usize,
        /// Certificates expected.
        expected: usize,
    },
    /// No pinned key for the CA named in a status.
    UnknownCa(CaId),
    /// A status referenced the wrong CA for its chain position.
    CaMismatch,
    /// The underlying status failed (bad signature / proof / freshness).
    Status(StatusError),
    /// The status carries an older dictionary epoch (smaller size, or equal
    /// size with an older timestamp) than one this client already accepted
    /// for the CA — a replayed root.
    RootRegression {
        /// The CA whose root regressed.
        ca: CaId,
    },
    /// The status arrived before the server's certificate while the client
    /// already held as many early statuses as it buffers; it was dropped
    /// unread.
    PendingFull {
        /// Early statuses the client buffers at most.
        cap: usize,
    },
}

impl core::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ValidationError::ChainLengthMismatch { got, expected } => {
                write!(f, "payload has {got} statuses for {expected} certificates")
            }
            ValidationError::UnknownCa(ca) => write!(f, "no pinned key for CA {ca}"),
            ValidationError::CaMismatch => {
                f.write_str("status CA does not match certificate issuer")
            }
            ValidationError::Status(e) => write!(f, "status invalid: {e}"),
            ValidationError::RootRegression { ca } => {
                write!(
                    f,
                    "signed root for CA {ca} regressed behind an already-seen epoch"
                )
            }
            ValidationError::PendingFull { cap } => {
                write!(f, "{cap} statuses already wait for the certificate")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a status payload for a certificate chain (leaf first).
///
/// A payload may cover only the leaf (the default RA behaviour) or the whole
/// chain (§VIII); it must be a prefix of the chain either way.
///
/// # Errors
///
/// Returns [`ValidationError`] when the payload proves nothing; a
/// *successful* return may still carry the [`Verdict::Revoked`] verdict.
pub fn validate_payload(
    payload: &StatusPayload,
    chain: &[(CaId, SerialNumber)],
    ca_keys: &HashMap<CaId, VerifyingKey>,
    delta: u64,
    now: u64,
) -> Result<Verdict, ValidationError> {
    validate_payload_tracked(
        payload,
        chain,
        ca_keys,
        delta,
        now,
        &mut RootTracker::disabled(),
    )
}

/// A client's record of the newest dictionary epoch it has accepted per CA,
/// and of the signed root it last verified for each.
///
/// **Replay protection.** The incremental dictionary engine tags every
/// batch with a new epoch; on the wire that epoch is observable as the
/// signed root's `(size, timestamp)` pair, which grows monotonically at an
/// honest CA (dictionaries are append-only). Tracking the largest accepted
/// pair lets a client reject *replayed* roots: an attacker (or a stale
/// upstream RA) re-serving a still-fresh status from before the latest
/// revocation batch. Within the paper's 2Δ freshness window such a replay
/// would otherwise validate.
///
/// **The verified-root memo.** Eq. 2's hash-chain freshness exists so that
/// a CA re-signs its root only when it revokes: between revocations every
/// status carries the same signed root beside a new freshness statement.
/// The tracker therefore keeps, per CA, the pinned key and the exact
/// [`SignedRoot`] of the last accepted payload (the root is fixed-length,
/// so equal fields are equal bytes).
/// - *What is skipped:* the Ed25519 check of a status's signed root, when
///   that root and the caller's pinned key for its CA both equal the CA's
///   entry — for single statuses and compressed multi-statuses alike.
/// - *What always runs:* the proof against the root, the freshness walk
///   and the regression check, on every status. A root that differs in any
///   byte, or a different pinned key, is verified in full.
/// - *When it is written:* only in the commit half of validation's
///   check-then-commit, with the epochs — on acceptance, including a
///   [`Verdict::Revoked`] one. A rejected payload leaves it untouched.
/// - *Its bound:* one entry per CA in the caller's key map, because a
///   status naming a CA without a pinned key is rejected
///   ([`ValidationError::UnknownCa`]) before anything is recorded.
///
/// The untracked [`validate_payload`] uses a tracker that records nothing,
/// so it always pays the full (cold) cost.
#[derive(Debug, Clone, Default)]
pub struct RootTracker {
    /// CA → newest accepted `(size, timestamp)`.
    seen: HashMap<CaId, (u64, u64)>,
    /// CA → the pinned key and the signed root last verified under it.
    verified: HashMap<CaId, (VerifyingKey, SignedRoot)>,
    disabled: bool,
}

impl RootTracker {
    /// A tracker that starts with no observations.
    pub fn new() -> Self {
        RootTracker::default()
    }

    /// A tracker that accepts everything and memoises nothing (used by the
    /// untracked [`validate_payload`] entry point).
    fn disabled() -> Self {
        RootTracker {
            disabled: true,
            ..RootTracker::default()
        }
    }

    /// Whether `root` is older than an epoch already known for its CA
    /// (`newer` overrides the stored state, letting callers dry-run a
    /// multi-status payload).
    fn regresses(&self, root: &SignedRoot, newer: Option<&SignedRoot>) -> bool {
        if self.disabled {
            return false;
        }
        match newer
            .map(|r| (r.size, r.timestamp))
            .or_else(|| self.newest(&root.ca))
        {
            Some((size, ts)) => root.size < size || (root.size == size && root.timestamp < ts),
            None => false,
        }
    }

    /// Whether `root` is, byte for byte, the root last verified under `key`
    /// for its CA.
    fn memoised(&self, root: &SignedRoot, key: &VerifyingKey) -> bool {
        self.verified
            .get(&root.ca)
            .is_some_and(|(k, r)| k == key && r == root)
    }

    /// Records `root` as accepted; rejects epoch regressions. The root's
    /// signature is not checked here, so it does not enter the memo.
    ///
    /// # Errors
    ///
    /// [`ValidationError::RootRegression`] when `root` is older than the
    /// newest accepted root for the same CA.
    pub fn observe(&mut self, root: &SignedRoot) -> Result<(), ValidationError> {
        if self.disabled {
            return Ok(());
        }
        if self.regresses(root, None) {
            return Err(ValidationError::RootRegression { ca: root.ca });
        }
        self.seen.insert(root.ca, (root.size, root.timestamp));
        Ok(())
    }

    /// The newest accepted `(size, timestamp)` for `ca`, if any.
    pub fn newest(&self, ca: &CaId) -> Option<(u64, u64)> {
        self.seen.get(ca).copied()
    }

    /// Records a payload's already-regression-checked, signature-verified
    /// roots, the newest per CA (the commit half of validation's
    /// check-then-commit).
    fn commit(&mut self, pending: &HashMap<CaId, (VerifyingKey, &SignedRoot)>) {
        if self.disabled {
            return;
        }
        for (ca, (key, root)) in pending {
            self.seen.insert(*ca, (root.size, root.timestamp));
            self.verified.insert(*ca, (*key, **root));
        }
    }
}

/// [`validate_payload`] plus replay protection: every status root must be at
/// least as new as the newest this client already accepted (per CA), and
/// accepted roots advance the tracker. A root the tracker has already
/// verified, byte for byte under the same key, skips its signature check
/// (see [`RootTracker`]).
///
/// # Errors
///
/// As [`validate_payload`], plus [`ValidationError::RootRegression`].
pub fn validate_payload_tracked(
    payload: &StatusPayload,
    chain: &[(CaId, SerialNumber)],
    ca_keys: &HashMap<CaId, VerifyingKey>,
    delta: u64,
    now: u64,
    tracker: &mut RootTracker,
) -> Result<Verdict, ValidationError> {
    if payload.is_empty() || payload.covered() > chain.len() {
        return Err(ValidationError::ChainLengthMismatch {
            got: payload.covered(),
            expected: chain.len(),
        });
    }
    // Two-phase check-then-commit: validate every entry (regression checks
    // run against the tracker state *plus* the earlier entries of this
    // payload), and only record once the payload is accepted — a payload
    // rejected at any point leaves the tracker untouched. A `Revoked`
    // verdict is an acceptance: the roots validated up to that point are
    // committed, so a client fed only revoked verdicts still refuses a
    // later replay of an older root.
    //
    // Coverage walks the chain in order: a compressed multi-status whose
    // first serial matches the current position consumes its whole run of
    // chain entries (all must share its CA and match its serials exactly);
    // otherwise the next individual status covers the position. Coverage
    // may end early (a leaf-only payload is a valid prefix), but every
    // payload entry must be consumed.
    let mut pending: HashMap<CaId, (VerifyingKey, &SignedRoot)> = HashMap::new();
    let mut singles = payload.statuses.iter();
    let mut multis = payload.multi.iter().peekable();
    let mut pos = 0;
    while pos < chain.len() {
        let (ca, serial) = chain[pos];
        // A multi entry is consumed here only when its *whole* run matches
        // the chain slice starting at this position; a first-serial match
        // alone is ambiguous when the chain repeats a serial (the entry
        // might belong to a later position), so mismatching runs fall
        // through to individual-status coverage.
        let next_multi_matches_here = multis.peek().is_some_and(|m| {
            m.signed_root.ca == ca
                && m.serials.first() == Some(&serial)
                && pos + m.serials.len() <= chain.len()
                && m.serials
                    .iter()
                    .zip(&chain[pos..pos + m.serials.len()])
                    .all(|(ms, (cca, cserial))| *cca == ca && ms == cserial)
        });
        if next_multi_matches_here {
            let m = multis.next().expect("peeked");
            let end = pos + m.serials.len();
            let key = ca_keys.get(&ca).ok_or(ValidationError::UnknownCa(ca))?;
            let sr = &m.signed_root;
            let outcomes = if tracker.memoised(sr, key) {
                m.validate_under_verified_root(delta, now)
            } else {
                m.validate(key, delta, now)
            }
            .map_err(ValidationError::Status)?;
            if tracker.regresses(sr, pending.get(&ca).map(|(_, r)| *r)) {
                return Err(ValidationError::RootRegression { ca });
            }
            pending.insert(ca, (*key, sr));
            for (outcome, (_, cserial)) in outcomes.iter().zip(&chain[pos..end]) {
                if let ritm_dictionary::ProvenStatus::Revoked { number } = outcome {
                    tracker.commit(&pending);
                    return Ok(Verdict::Revoked {
                        serial: *cserial,
                        number: *number,
                    });
                }
            }
            pos = end;
            continue;
        }
        let Some(status) = singles.next() else {
            break; // prefix coverage ends here
        };
        if status.signed_root.ca != ca {
            return Err(ValidationError::CaMismatch);
        }
        let key = ca_keys.get(&ca).ok_or(ValidationError::UnknownCa(ca))?;
        let sr = &status.signed_root;
        let outcome = if tracker.memoised(sr, key) {
            status.validate_under_verified_root(&serial, delta, now)
        } else {
            status.validate(&serial, key, delta, now)
        }
        .map_err(ValidationError::Status)?;
        if tracker.regresses(sr, pending.get(&ca).map(|(_, r)| *r)) {
            return Err(ValidationError::RootRegression { ca });
        }
        pending.insert(ca, (*key, sr));
        if let ritm_dictionary::ProvenStatus::Revoked { number } = outcome {
            tracker.commit(&pending);
            return Ok(Verdict::Revoked { serial, number });
        }
        pos += 1;
    }
    // Every entry must have matched a chain position.
    if singles.next().is_some() || multis.next().is_some() {
        return Err(ValidationError::ChainLengthMismatch {
            got: payload.covered(),
            expected: chain.len(),
        });
    }
    tracker.commit(&pending);
    Ok(Verdict::AllValid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::{CaDictionary, MirrorDictionary};

    const T0: u64 = 1_000_000;
    const DELTA: u64 = 10;

    struct Fixture {
        ca: CaDictionary,
        mirror: MirrorDictionary,
        keys: HashMap<CaId, VerifyingKey>,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(51);
        let mut ca = CaDictionary::new(
            CaId::from_name("VCA"),
            SigningKey::from_seed([1u8; 32]),
            DELTA,
            1 << 12,
            &mut rng,
            T0,
        );
        let mut mirror =
            MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
        mirror.set_delta(DELTA);
        let serials: Vec<SerialNumber> = (50..60u32).map(SerialNumber::from_u24).collect();
        let iss = ca.insert(&serials, &mut rng, T0 + 1).unwrap();
        mirror.apply_issuance(&iss, T0 + 1).unwrap();
        let mut keys = HashMap::new();
        keys.insert(ca.ca(), ca.verifying_key());
        Fixture { ca, mirror, keys }
    }

    fn payload_for(f: &Fixture, serial: u32) -> StatusPayload {
        StatusPayload::single(vec![f.mirror.prove(&SerialNumber::from_u24(serial))])
    }

    fn multi_payload_for(f: &Fixture, serials: &[u32]) -> StatusPayload {
        let serials: Vec<SerialNumber> =
            serials.iter().map(|&v| SerialNumber::from_u24(v)).collect();
        StatusPayload {
            statuses: vec![],
            multi: vec![f.mirror.prove_multi(&serials)],
        }
    }

    fn chain_of(f: &Fixture, serials: &[u32]) -> Vec<(CaId, SerialNumber)> {
        serials
            .iter()
            .map(|&v| (f.ca.ca(), SerialNumber::from_u24(v)))
            .collect()
    }

    #[test]
    fn compressed_chain_all_absent_accepted() {
        let f = fixture();
        let chain = chain_of(&f, &[200, 300, 400]);
        let payload = multi_payload_for(&f, &[200, 300, 400]);
        let v = validate_payload(&payload, &chain, &f.keys, DELTA, T0 + 2).unwrap();
        assert_eq!(v, Verdict::AllValid);
    }

    #[test]
    fn compressed_chain_detects_revoked() {
        let f = fixture();
        // 55 is revoked in the fixture.
        let chain = chain_of(&f, &[200, 55, 400]);
        let payload = multi_payload_for(&f, &[200, 55, 400]);
        let v = validate_payload(&payload, &chain, &f.keys, DELTA, T0 + 2).unwrap();
        assert!(
            matches!(v, Verdict::Revoked { serial, .. } if serial == SerialNumber::from_u24(55))
        );
    }

    #[test]
    fn compressed_entry_must_match_chain_serials() {
        let f = fixture();
        // Proof covers (200, 300) but the chain presents (200, 301): the
        // entry matches no chain run, is never consumed, and the payload
        // is rejected for covering nothing that exists.
        let chain = chain_of(&f, &[200, 301]);
        let payload = multi_payload_for(&f, &[200, 300]);
        let err = validate_payload(&payload, &chain, &f.keys, DELTA, T0 + 2).unwrap_err();
        assert!(matches!(err, ValidationError::ChainLengthMismatch { .. }));
    }

    #[test]
    fn repeated_serial_chain_routes_multi_to_its_own_run() {
        // Chain [(A,s),(A,s),(A,x)]: the RA proves the leaf individually
        // and compresses positions 1-2 as [s, x]. The multi's first serial
        // equals position 0's serial, but its full run only matches at
        // position 1 — the validator must not misroute it.
        let f = fixture();
        let s = 200u32;
        let x = 300u32;
        let chain = chain_of(&f, &[s, s, x]);
        let payload = StatusPayload {
            statuses: vec![f.mirror.prove(&SerialNumber::from_u24(s))],
            multi: vec![f
                .mirror
                .prove_multi(&[SerialNumber::from_u24(s), SerialNumber::from_u24(x)])],
        };
        let v = validate_payload(&payload, &chain, &f.keys, DELTA, T0 + 2).unwrap();
        assert_eq!(v, Verdict::AllValid);
    }

    #[test]
    fn compressed_entry_longer_than_chain_rejected() {
        let f = fixture();
        let chain = chain_of(&f, &[200]);
        let payload = multi_payload_for(&f, &[200, 300]);
        let err = validate_payload(&payload, &chain, &f.keys, DELTA, T0 + 2).unwrap_err();
        assert!(matches!(err, ValidationError::ChainLengthMismatch { .. }));
    }

    #[test]
    fn mixed_single_and_compressed_coverage() {
        let f = fixture();
        // Leaf proven individually, the two intermediates compressed.
        let chain = chain_of(&f, &[200, 300, 400]);
        let payload = StatusPayload {
            statuses: vec![f.mirror.prove(&SerialNumber::from_u24(200))],
            multi: vec![f
                .mirror
                .prove_multi(&[SerialNumber::from_u24(300), SerialNumber::from_u24(400)])],
        };
        let round = StatusPayload::from_bytes(&payload.to_bytes()).unwrap();
        assert_eq!(round, payload, "mixed payload must round-trip");
        let v = validate_payload(&round, &chain, &f.keys, DELTA, T0 + 2).unwrap();
        assert_eq!(v, Verdict::AllValid);
    }

    #[test]
    fn replayed_compressed_root_rejected_by_tracker() {
        let mut f = fixture();
        let mut rng = StdRng::seed_from_u64(57);
        let chain = chain_of(&f, &[200, 300]);
        let mut tracker = RootTracker::new();
        let old_payload = multi_payload_for(&f, &[200, 300]);

        let iss =
            f.ca.insert(&[SerialNumber::from_u24(900)], &mut rng, T0 + 2)
                .unwrap();
        f.mirror.apply_issuance(&iss, T0 + 2).unwrap();
        let v = validate_payload_tracked(
            &multi_payload_for(&f, &[200, 300]),
            &chain,
            &f.keys,
            DELTA,
            T0 + 3,
            &mut tracker,
        )
        .unwrap();
        assert_eq!(v, Verdict::AllValid);
        assert_eq!(tracker.newest(&f.ca.ca()), Some((11, T0 + 2)));

        let err =
            validate_payload_tracked(&old_payload, &chain, &f.keys, DELTA, T0 + 3, &mut tracker)
                .unwrap_err();
        assert_eq!(err, ValidationError::RootRegression { ca: f.ca.ca() });
    }

    #[test]
    fn revoked_verdict_still_advances_tracker() {
        // A client that only ever sees revoked verdicts must still build
        // replay protection: the root validated on the revoked path is
        // committed, so a later replay of an older root is refused.
        let mut f = fixture();
        let mut rng = StdRng::seed_from_u64(58);
        let chain = chain_of(&f, &[55]); // revoked serial
        let mut tracker = RootTracker::new();
        let old_payload = payload_for(&f, 55);

        let iss =
            f.ca.insert(&[SerialNumber::from_u24(901)], &mut rng, T0 + 2)
                .unwrap();
        f.mirror.apply_issuance(&iss, T0 + 2).unwrap();
        let v = validate_payload_tracked(
            &payload_for(&f, 55),
            &chain,
            &f.keys,
            DELTA,
            T0 + 3,
            &mut tracker,
        )
        .unwrap();
        assert!(matches!(v, Verdict::Revoked { number: 6, .. }));
        assert_eq!(tracker.newest(&f.ca.ca()), Some((11, T0 + 2)));

        let err =
            validate_payload_tracked(&old_payload, &chain, &f.keys, DELTA, T0 + 3, &mut tracker)
                .unwrap_err();
        assert_eq!(err, ValidationError::RootRegression { ca: f.ca.ca() });
    }

    #[test]
    fn valid_absence_accepted() {
        let f = fixture();
        let chain = [(f.ca.ca(), SerialNumber::from_u24(200))];
        let v = validate_payload(&payload_for(&f, 200), &chain, &f.keys, DELTA, T0 + 2).unwrap();
        assert_eq!(v, Verdict::AllValid);
    }

    #[test]
    fn revoked_detected() {
        let f = fixture();
        let chain = [(f.ca.ca(), SerialNumber::from_u24(55))];
        let v = validate_payload(&payload_for(&f, 55), &chain, &f.keys, DELTA, T0 + 2).unwrap();
        assert!(matches!(v, Verdict::Revoked { number: 6, .. }));
    }

    #[test]
    fn stale_freshness_rejected() {
        let f = fixture();
        let chain = [(f.ca.ca(), SerialNumber::from_u24(200))];
        let err = validate_payload(
            &payload_for(&f, 200),
            &chain,
            &f.keys,
            DELTA,
            T0 + 1 + 3 * DELTA,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ValidationError::Status(StatusError::NotFresh(_))
        ));
    }

    #[test]
    fn unknown_ca_rejected() {
        let f = fixture();
        let chain = [(f.ca.ca(), SerialNumber::from_u24(200))];
        let err = validate_payload(
            &payload_for(&f, 200),
            &chain,
            &HashMap::new(),
            DELTA,
            T0 + 2,
        )
        .unwrap_err();
        assert!(matches!(err, ValidationError::UnknownCa(_)));
    }

    #[test]
    fn mismatched_chain_rejected() {
        let f = fixture();
        // Status is for VCA's dictionary but the chain claims another CA.
        let chain = [(CaId::from_name("OtherCA"), SerialNumber::from_u24(200))];
        let err =
            validate_payload(&payload_for(&f, 200), &chain, &f.keys, DELTA, T0 + 2).unwrap_err();
        assert_eq!(err, ValidationError::CaMismatch);
    }

    #[test]
    fn proof_for_wrong_serial_rejected() {
        let f = fixture();
        // RA (maliciously) sends the absence proof for 200 while the chain's
        // leaf is actually revoked serial 55.
        let chain = [(f.ca.ca(), SerialNumber::from_u24(55))];
        let err =
            validate_payload(&payload_for(&f, 200), &chain, &f.keys, DELTA, T0 + 2).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::Status(StatusError::BadProof(_))
        ));
    }

    #[test]
    fn replayed_older_root_rejected_by_tracker() {
        let mut f = fixture();
        let mut rng = StdRng::seed_from_u64(52);
        let chain = [(f.ca.ca(), SerialNumber::from_u24(200))];
        let mut tracker = RootTracker::new();

        // Snapshot a status from the current (size 10) dictionary.
        let old_payload = payload_for(&f, 200);

        // The CA revokes one more serial; the mirror catches up, and the
        // client accepts a status at the new epoch (size 11).
        let iss =
            f.ca.insert(&[SerialNumber::from_u24(900)], &mut rng, T0 + 2)
                .unwrap();
        f.mirror.apply_issuance(&iss, T0 + 2).unwrap();
        let v = validate_payload_tracked(
            &payload_for(&f, 200),
            &chain,
            &f.keys,
            DELTA,
            T0 + 3,
            &mut tracker,
        )
        .unwrap();
        assert_eq!(v, Verdict::AllValid);
        assert_eq!(tracker.newest(&f.ca.ca()), Some((11, T0 + 2)));

        // Replaying the still-fresh pre-revocation status must now fail,
        // even though untracked validation would accept it.
        let err =
            validate_payload_tracked(&old_payload, &chain, &f.keys, DELTA, T0 + 3, &mut tracker)
                .unwrap_err();
        assert_eq!(err, ValidationError::RootRegression { ca: f.ca.ca() });
        assert!(validate_payload(&old_payload, &chain, &f.keys, DELTA, T0 + 3).is_ok());
    }

    #[test]
    fn intra_payload_regression_rejected_without_advancing_tracker() {
        // A payload whose second status (same CA) is older than its first:
        // rejected as a regression, and the tracker records neither.
        let mut f = fixture();
        let mut rng = StdRng::seed_from_u64(53);
        let old_status = f.mirror.prove(&SerialNumber::from_u24(200));
        let iss =
            f.ca.insert(&[SerialNumber::from_u24(900)], &mut rng, T0 + 2)
                .unwrap();
        f.mirror.apply_issuance(&iss, T0 + 2).unwrap();
        let new_status = f.mirror.prove(&SerialNumber::from_u24(200));

        let payload = StatusPayload::single(vec![new_status, old_status]);
        let chain = [
            (f.ca.ca(), SerialNumber::from_u24(200)),
            (f.ca.ca(), SerialNumber::from_u24(200)),
        ];
        let mut tracker = RootTracker::new();
        let err = validate_payload_tracked(&payload, &chain, &f.keys, DELTA, T0 + 3, &mut tracker)
            .unwrap_err();
        assert_eq!(err, ValidationError::RootRegression { ca: f.ca.ca() });
        assert_eq!(
            tracker.newest(&f.ca.ca()),
            None,
            "rejected payload must not poison the tracker"
        );
    }

    #[test]
    fn tracker_not_poisoned_by_rejected_payload() {
        let f = fixture();
        let mut tracker = RootTracker::new();
        // A payload failing CA-mismatch must record nothing.
        let chain = [(CaId::from_name("OtherCA"), SerialNumber::from_u24(200))];
        let err = validate_payload_tracked(
            &payload_for(&f, 200),
            &chain,
            &f.keys,
            DELTA,
            T0 + 2,
            &mut tracker,
        )
        .unwrap_err();
        assert_eq!(err, ValidationError::CaMismatch);
        assert_eq!(tracker.newest(&f.ca.ca()), None);
    }

    /// The byte ranges of a signed root's fixed encoding that
    /// [`memo_on_and_memo_off_agree`] flips: signature, root, size, anchor
    /// and timestamp.
    const ROOT_FIELDS: [std::ops::Range<usize>; 5] = [64..128, 8..28, 28..36, 36..56, 56..64];

    /// Freshness statements relative to the expected period: on time, one
    /// early or late (accepted), and skipped periods both ways up to the
    /// stale (> 2Δ) ones.
    const SKEWS: [i64; 7] = [0, 0, 0, 1, -1, 2, -3];

    /// Two CAs, each with its dictionary and a mirror kept in step, and
    /// everything handed to the client so far.
    struct Differential {
        rng: StdRng,
        cas: Vec<(CaDictionary, MirrorDictionary)>,
        now: u64,
        next_serial: u32,
        /// Every single status built so far, per CA.
        singles: Vec<Vec<(SerialNumber, ritm_dictionary::RevocationStatus)>>,
        /// Every payload presented so far, with its chain.
        presented: Vec<(StatusPayload, Vec<(CaId, SerialNumber)>)>,
    }

    impl Differential {
        fn new(seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let revoked: Vec<SerialNumber> = (50..60u32).map(SerialNumber::from_u24).collect();
            let cas = ["DiffA", "DiffB"]
                .iter()
                .zip(1u8..)
                .map(|(name, seed)| {
                    let mut ca = CaDictionary::new(
                        CaId::from_name(name),
                        SigningKey::from_seed([seed; 32]),
                        DELTA,
                        1 << 12,
                        &mut rng,
                        T0,
                    );
                    let mut mirror =
                        MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root())
                            .unwrap();
                    mirror.set_delta(DELTA);
                    let iss = ca.insert(&revoked, &mut rng, T0 + 1).unwrap();
                    mirror.apply_issuance(&iss, T0 + 1).unwrap();
                    (ca, mirror)
                })
                .collect();
            Differential {
                rng,
                cas,
                now: T0 + 1,
                next_serial: 1_000,
                singles: vec![Vec::new(), Vec::new()],
                presented: Vec::new(),
            }
        }

        fn id(&self, ca: usize) -> CaId {
            self.cas[ca].0.ca()
        }

        fn revoke(&mut self, ca: usize) {
            self.next_serial += 1;
            let serial = SerialNumber::from_u24(self.next_serial);
            let (dict, mirror) = &mut self.cas[ca];
            let iss = dict.insert(&[serial], &mut self.rng, self.now).unwrap();
            mirror.apply_issuance(&iss, self.now).unwrap();
        }

        /// The CA's statement for the period `now` expects, moved by a
        /// random skew.
        fn statement(&mut self, ca: usize) -> ritm_dictionary::FreshnessStatement {
            let skew = SKEWS[self.rng.gen_range(0..SKEWS.len())];
            let dict = &self.cas[ca].0;
            let ts = dict.signed_root().timestamp;
            let period = (((self.now - ts) / DELTA) as i64 + skew).max(0) as u64;
            dict.current_freshness(ts + period * DELTA).unwrap()
        }

        /// A chain of one to three certificates, each from a random CA, some
        /// revoked (50..60), covered by singles and compressed runs.
        fn current(&mut self) -> (StatusPayload, Vec<(CaId, SerialNumber)>) {
            const SERIALS: [u32; 6] = [55, 59, 200, 300, 400, 500];
            let len = self.rng.gen_range(1..=3usize);
            let positions: Vec<(usize, SerialNumber)> = (0..len)
                .map(|_| {
                    let ca = self.rng.gen_range(0..2usize);
                    let serial = SERIALS[self.rng.gen_range(0..SERIALS.len())];
                    (ca, SerialNumber::from_u24(serial))
                })
                .collect();
            let mut payload = StatusPayload::default();
            let mut pos = 0;
            while pos < len {
                let ca = positions[pos].0;
                let run = positions[pos..]
                    .iter()
                    .take_while(|(c, _)| *c == ca)
                    .count();
                if run > 1 && self.rng.gen_bool(0.5) {
                    let serials: Vec<SerialNumber> =
                        positions[pos..pos + run].iter().map(|(_, s)| *s).collect();
                    let mut multi = self.cas[ca].1.prove_multi(&serials);
                    multi.freshness = self.statement(ca);
                    payload.multi.push(multi);
                    pos += run;
                } else {
                    let serial = positions[pos].1;
                    let mut status = self.cas[ca].1.prove(&serial);
                    status.freshness = self.statement(ca);
                    self.singles[ca].push((serial, status.clone()));
                    payload.statuses.push(status);
                    pos += 1;
                }
            }
            let chain = positions.iter().map(|(ca, s)| (self.id(*ca), *s)).collect();
            (payload, chain)
        }

        /// Two certificates of `ca`: a current status and the latest one
        /// handed out under an older root, in either order (new first is
        /// an in-payload regression).
        fn mixed_age(&mut self, ca: usize) -> (StatusPayload, Vec<(CaId, SerialNumber)>) {
            let current = *self.cas[ca].1.signed_root();
            let old = self.singles[ca]
                .iter()
                .rev()
                .find(|(_, status)| status.signed_root != current)
                .cloned();
            let Some((old_serial, old_status)) = old else {
                return self.current();
            };
            let serial = SerialNumber::from_u24(200);
            let mut status = self.cas[ca].1.prove(&serial);
            status.freshness = self.statement(ca);
            let id = self.id(ca);
            let (mut statuses, mut chain) = (
                vec![status, old_status],
                vec![(id, serial), (id, old_serial)],
            );
            if self.rng.gen_bool(0.5) {
                statuses.reverse();
                chain.reverse();
            }
            (StatusPayload::single(statuses), chain)
        }

        /// A current payload with one bit of one status's signed root
        /// flipped.
        fn flipped(&mut self) -> (StatusPayload, Vec<(CaId, SerialNumber)>, SignedRoot) {
            let (mut payload, chain) = self.current();
            let field = ROOT_FIELDS[self.rng.gen_range(0..ROOT_FIELDS.len())].clone();
            let byte = self.rng.gen_range(field);
            let bit = self.rng.gen_range(0..8u32);
            let root = match payload.statuses.first_mut() {
                Some(status) => &mut status.signed_root,
                None => &mut payload.multi[0].signed_root,
            };
            let original = *root;
            let mut bytes = root.to_bytes();
            bytes[byte] ^= 1 << bit;
            *root = SignedRoot::from_bytes(&bytes).unwrap();
            (payload, chain, original)
        }
    }

    #[test]
    fn memo_on_and_memo_off_agree() {
        // One long-lived tracker (memo on) against the same calls with the
        // memo cleared before each (memo off): every input gets the same
        // `Result`, both trackers hold the same epochs, a rejected payload
        // leaves the memo as it was, and the memo never outgrows the pinned
        // keys.
        let mut tally: HashMap<String, u32> = HashMap::new();
        for seed in 0..3 {
            let mut d = Differential::new(seed);
            let pinned: HashMap<CaId, VerifyingKey> = d
                .cas
                .iter()
                .map(|(ca, _)| (ca.ca(), ca.verifying_key()))
                .collect();
            let other = SigningKey::from_seed([9u8; 32]).verifying_key();
            let (mut on, mut off) = (RootTracker::new(), RootTracker::new());
            for step in 0..200 {
                d.now += d.rng.gen_range(0..=DELTA / 2);
                let mut keys = pinned.clone();
                let mut flipped_root = None;
                let (kind, (payload, chain)) = match d.rng.gen_range(0..20u32) {
                    0..=6 => ("current", d.current()),
                    7..=9 => {
                        let (payload, chain, original) = d.flipped();
                        flipped_root = Some(original);
                        ("flipped", (payload, chain))
                    }
                    10 | 11 => {
                        let ca = d.rng.gen_range(0..2usize);
                        keys.insert(d.id(ca), other);
                        ("other key", d.current())
                    }
                    12 | 13 => {
                        // Recent payloads, so that some are still fresh.
                        let back = d.rng.gen_range(1..=6usize);
                        match d.presented.len().checked_sub(back).map(|i| &d.presented[i]) {
                            Some(old) => ("replay", old.clone()),
                            None => ("current", d.current()),
                        }
                    }
                    14..=16 => {
                        let ca = d.rng.gen_range(0..2usize);
                        ("mixed age", d.mixed_age(ca))
                    }
                    _ => {
                        // The memo may still hold the CA's previous root,
                        // which the payload presents beside the new one.
                        let ca = d.rng.gen_range(0..2usize);
                        d.revoke(ca);
                        ("after revoke", d.mixed_age(ca))
                    }
                };
                let roots = payload
                    .statuses
                    .iter()
                    .map(|s| &s.signed_root)
                    .chain(payload.multi.iter().map(|m| &m.signed_root));
                let hits = roots
                    .filter(|r| keys.get(&r.ca).is_some_and(|k| on.memoised(r, k)))
                    .count() as u32;
                *tally.entry("memo hits".into()).or_default() += hits;
                if flipped_root.is_some_and(|r| on.memoised(&r, &pinned[&r.ca])) {
                    *tally.entry("flipped after memo".into()).or_default() += 1;
                }

                let memo_before = on.verified.clone();
                let got_on =
                    validate_payload_tracked(&payload, &chain, &keys, DELTA, d.now, &mut on);
                off.verified.clear();
                let got_off =
                    validate_payload_tracked(&payload, &chain, &keys, DELTA, d.now, &mut off);
                assert_eq!(got_on, got_off, "seed {seed} step {step} ({kind})");
                assert_eq!(on.seen, off.seen, "seed {seed} step {step} ({kind})");
                if got_on.is_err() {
                    assert_eq!(on.verified, memo_before, "seed {seed} step {step} ({kind})");
                }
                assert!(on.verified.len() <= pinned.len());
                assert!(on.verified.keys().all(|ca| pinned.contains_key(ca)));
                let outcome = match &got_on {
                    Ok(Verdict::AllValid) => "valid".to_string(),
                    Ok(Verdict::Revoked { .. }) => "revoked".to_string(),
                    Err(ValidationError::Status(e)) => format!("{e:?}"),
                    Err(e) => format!("{e:?}")
                        .split([' ', '(', '{'])
                        .next()
                        .unwrap()
                        .into(),
                };
                if hits > 0 && outcome == "RootRegression" {
                    *tally
                        .entry("regression beside a memo hit".into())
                        .or_default() += 1;
                }
                *tally.entry(outcome).or_default() += 1;
                d.presented.push((payload, chain));
            }
        }
        for outcome in [
            "memo hits",
            "flipped after memo",
            "valid",
            "revoked",
            "BadSignature",
            "NotFresh(Stale)",
            "RootRegression",
            "regression beside a memo hit",
        ] {
            assert!(
                tally.get(outcome).copied().unwrap_or(0) > 0,
                "no {outcome} among {tally:?}"
            );
        }
    }

    #[test]
    fn empty_payload_rejected() {
        let f = fixture();
        let chain = [(f.ca.ca(), SerialNumber::from_u24(200))];
        let err = validate_payload(&StatusPayload::default(), &chain, &f.keys, DELTA, T0 + 2)
            .unwrap_err();
        assert!(matches!(err, ValidationError::ChainLengthMismatch { .. }));
    }
}
