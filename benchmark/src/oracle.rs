//! The correctness oracle shared by all workloads.
//!
//! The generator owns the ground truth — which `(CA, serial)` pairs it has
//! revoked so far — and every verdict the system returns is compared with
//! it. A status is also validated cryptographically (root signature under
//! the pinned CA key, audit path against that root, freshness within 2Δ),
//! but only the first time its bytes are seen: the hot workload asks for
//! the same eight statuses thousands of times, and a 130 µs signature
//! check per request would measure the oracle, not the system. Validation
//! runs after the timed span has closed. One [`RootTracker`] per client
//! asserts that no endpoint ever serves a root older than one already
//! accepted.
//!
//! Anything that goes wrong — transport error, wrong response kind, bad
//! signature, stale root, verdict that contradicts the ground truth, CA and
//! RA roots that differ — is one failed operation; any failed operation
//! makes the command exit non-zero.

use ritm_client::{validate_payload_tracked, RootTracker, Verdict};
use ritm_crypto::ed25519::VerifyingKey;
use ritm_dictionary::{CaId, RevocationStatus, SerialNumber, SignedRoot};
use ritm_proto::{RitmResponse, RoundTrip, StatusPayload, TransportError};
use std::collections::{HashMap, HashSet};

pub struct Oracle {
    revoked: HashSet<(CaId, SerialNumber)>,
    keys: HashMap<CaId, VerifyingKey>,
    delta: u64,
    tracker: RootTracker,
    /// Signed roots whose signature has been checked, by encoding.
    root_ok: HashMap<Vec<u8>, bool>,
    /// Proven verdict (revoked?) per distinct `serial ‖ status` encoding;
    /// `None` when validation failed.
    verdicts: HashMap<Vec<u8>, Option<bool>>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Oracle {
    pub fn new(delta: u64) -> Self {
        Oracle {
            revoked: HashSet::new(),
            keys: HashMap::new(),
            delta,
            tracker: RootTracker::new(),
            root_ok: HashMap::new(),
            verdicts: HashMap::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    pub fn pin(&mut self, ca: CaId, key: VerifyingKey) {
        self.keys.insert(ca, key);
    }

    /// The client's own validation of a stapled payload (the call the
    /// handshake workload times): pinned keys, 2Δ freshness, and this
    /// client's root tracker.
    pub fn validate_payload(
        &mut self,
        payload: &StatusPayload,
        chain: &[(CaId, SerialNumber)],
        now: u64,
    ) -> Result<Verdict, String> {
        validate_payload_tracked(
            payload,
            chain,
            &self.keys,
            self.delta,
            now,
            &mut self.tracker,
        )
        .map_err(|e| e.to_string())
    }

    /// Ground truth: the generator revoked `serial`.
    pub fn revoke(&mut self, ca: CaId, serial: SerialNumber) {
        self.revoked.insert((ca, serial));
    }

    pub fn is_revoked(&self, ca: CaId, serial: SerialNumber) -> bool {
        self.revoked.contains(&(ca, serial))
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }

    /// A new client facing a new world (the next repetition): no ground
    /// truth, no accepted roots, no memo — the operation counts carry on.
    pub fn new_client(&mut self) {
        self.revoked.clear();
        self.tracker = RootTracker::new();
        self.forget_statuses();
    }

    /// Drops the memoised verdicts: after a publish every status carries a
    /// new root, so the old encodings cannot recur.
    pub fn forget_statuses(&mut self) {
        self.verdicts.clear();
        self.root_ok.clear();
    }

    /// Counts one operation; `ok == false` is a failure described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
        ok
    }

    /// One `GetStatus` reply: must be a single validated status whose
    /// verdict matches the ground truth. Returns the proven verdict.
    pub fn check_status(
        &mut self,
        ca: CaId,
        serial: SerialNumber,
        reply: &Result<RoundTrip, TransportError>,
        now: u64,
    ) -> Option<bool> {
        let verdict = match reply {
            Ok(RoundTrip {
                response: RitmResponse::Status(p),
                ..
            }) if p.statuses.len() == 1 && p.multi.is_empty() => {
                self.validate(ca, serial, &p.statuses[0], now)
            }
            Ok(rt) => Err(format!("GetStatus answered {}", rt.response.kind_name())),
            Err(e) => Err(format!("transport: {e}")),
        };
        let expected = self.is_revoked(ca, serial);
        match verdict {
            Ok(proven) => {
                self.check(proven == expected, || {
                    format!("serial {serial:?}: proven revoked={proven}, ground truth {expected}")
                });
                Some(proven)
            }
            Err(why) => {
                self.check(false, || format!("serial {serial:?}: {why}"));
                None
            }
        }
    }

    /// Full validation of one status, memoised by its bytes; the root is
    /// run past the tracker every time.
    pub fn validate(
        &mut self,
        ca: CaId,
        serial: SerialNumber,
        status: &RevocationStatus,
        now: u64,
    ) -> Result<bool, String> {
        let root = status.signed_root;
        if root.ca != ca {
            return Err("status names another CA".into());
        }
        self.tracker
            .observe(&root)
            .map_err(|e| format!("stale root served: {e}"))?;
        let mut key = serial.as_bytes().to_vec();
        key.extend_from_slice(&status.to_bytes());
        if let Some(v) = self.verdicts.get(&key) {
            return v.ok_or_else(|| "status failed validation before".to_owned());
        }
        let outcome = self.validate_uncached(ca, serial, status, &root, now);
        self.verdicts.insert(key, outcome.as_ref().ok().copied());
        outcome
    }

    fn validate_uncached(
        &mut self,
        ca: CaId,
        serial: SerialNumber,
        status: &RevocationStatus,
        root: &SignedRoot,
        now: u64,
    ) -> Result<bool, String> {
        let ca_key = *self.keys.get(&ca).ok_or("no pinned key for the CA")?;
        let signed = *self
            .root_ok
            .entry(root.to_bytes())
            .or_insert_with(|| root.verify(&ca_key).is_ok());
        if !signed {
            return Err("signed root does not verify under the pinned key".into());
        }
        let proven = status
            .proof
            .verify(&serial, &root.root, root.size)
            .map_err(|e| format!("proof: {e}"))?;
        status
            .freshness
            .verify(root, self.delta, now)
            .map_err(|e| format!("freshness: {e}"))?;
        Ok(proven.is_revoked())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{self, DELTA, T0};
    use ritm_proto::{StatusPayload, TransportMeta};

    fn reply(status: RevocationStatus) -> Result<RoundTrip, TransportError> {
        Ok(RoundTrip {
            response: RitmResponse::Status(StatusPayload::single(vec![status])),
            meta: TransportMeta::default(),
        })
    }

    #[test]
    fn verdicts_are_compared_with_the_ground_truth() {
        let serials: Vec<SerialNumber> = (1..=50).map(|i| SerialNumber::from_u24(i * 2)).collect();
        let dict = world::Dictionary::build("OracleCA", 1, &serials, 7);
        let mirror = dict.mirror();
        let (ca, revoked, absent) = (dict.id, serials[3], SerialNumber::from_u24(7));

        let mut oracle = Oracle::new(DELTA);
        oracle.pin(ca, dict.key);
        for s in &serials {
            oracle.revoke(ca, *s);
        }
        assert_eq!(
            oracle.check_status(ca, revoked, &reply(mirror.prove(&revoked)), T0 + 1),
            Some(true)
        );
        assert_eq!(
            oracle.check_status(ca, absent, &reply(mirror.prove(&absent)), T0 + 1),
            Some(false)
        );
        // Asked again: answered from the memo, still counted.
        oracle.check_status(ca, revoked, &reply(mirror.prove(&revoked)), T0 + 1);
        assert_eq!((oracle.attempted(), oracle.failed()), (3, 0));

        // A deliberately wrong expectation: the generator "forgets" it
        // revoked the serial, so the system's correct answer is a failure.
        let mut flipped = Oracle::new(DELTA);
        flipped.pin(ca, dict.key);
        flipped.check_status(ca, revoked, &reply(mirror.prove(&revoked)), T0 + 1);
        assert_eq!((flipped.attempted(), flipped.failed()), (1, 1));
        assert!(flipped
            .first_failure()
            .unwrap()
            .contains("ground truth false"));
    }

    #[test]
    fn a_status_for_another_serial_or_an_unpinned_key_fails() {
        let serials: Vec<SerialNumber> = (1..=50).map(|i| SerialNumber::from_u24(i * 2)).collect();
        let dict = world::Dictionary::build("OracleCA", 1, &serials, 7);
        let mirror = dict.mirror();
        let mut oracle = Oracle::new(DELTA);
        // No key pinned yet.
        oracle.check_status(
            dict.id,
            serials[0],
            &reply(mirror.prove(&serials[0])),
            T0 + 1,
        );
        assert_eq!(oracle.failed(), 1);
        oracle.forget_statuses();
        oracle.pin(dict.id, dict.key);
        oracle.revoke(dict.id, serials[0]);
        oracle.revoke(dict.id, serials[1]);
        // Proof for serials[1] presented for serials[0].
        oracle.check_status(
            dict.id,
            serials[0],
            &reply(mirror.prove(&serials[1])),
            T0 + 1,
        );
        assert_eq!(oracle.failed(), 2);
        // Stale by more than 2Δ.
        oracle.check_status(
            dict.id,
            serials[0],
            &reply(mirror.prove(&serials[0])),
            T0 + 1 + 3 * DELTA,
        );
        assert_eq!(oracle.failed(), 3);
        oracle.check_status(
            dict.id,
            serials[0],
            &Err(TransportError::NoResponse),
            T0 + 1,
        );
        assert_eq!((oracle.attempted(), oracle.failed()), (4, 4));
    }
}
