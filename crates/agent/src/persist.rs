//! Resuming RA mirrors from their issuance logs.
//!
//! A crashed RA would otherwise re-download every CA's dictionary from
//! serial 1. Its durable state is the CA's own record, in the CA's
//! write-ahead framing (`ritm_ca::IssuanceLog`: length ‖ CRC-32 ‖ record):
//! after each sync the caller appends
//! [`MirrorDictionary::issuance_since`]`(persisted)`, every revocation
//! applied since the last record under the mirror's current signed root
//! (none, for a rotated root). This crate touches no file. After a restart
//! [`RevocationAgent::resume_ca`] rebuilds the mirror from the records the
//! log scan kept — a torn tail resumes at the record before it — and paged
//! catch-up ([`crate::sync`]) closes only the gap since the crash.
//!
//! The CRC catches torn writes and bit rot; [`MirrorDictionary::restore`]
//! catches tampering, under a CA key pinned by the caller, never read from
//! the log.

use crate::ra::RevocationAgent;
use ritm_crypto::ed25519::VerifyingKey;
use ritm_dictionary::{CaId, MirrorDictionary, RevocationIssuance, UpdateError};

impl RevocationAgent {
    /// Resumes mirroring a CA from its issuance-log records: checks that
    /// they number revocations `1..` without a gap, rebuilds the tree from
    /// their serials, and verifies it against the **last** record's signed
    /// root under the caller-pinned `key` — one signature and one batch
    /// check however many records there are. Then installs the mirror (with
    /// this RA's configured Δ) and publishes its snapshot for readers.
    /// Returns the resumed [`CaId`].
    ///
    /// # Errors
    ///
    /// [`UpdateError::Desynchronized`] if there is no record or a record
    /// does not continue the previous one; otherwise see
    /// [`MirrorDictionary::restore`]. The agent is left untouched, so the
    /// caller can fall back to a fresh [`RevocationAgent::follow_ca`]
    /// bootstrap.
    pub fn resume_ca(
        &mut self,
        key: VerifyingKey,
        records: &[RevocationIssuance],
    ) -> Result<CaId, UpdateError> {
        let last = records
            .last()
            .ok_or(UpdateError::Desynchronized { have: 0, got: 0 })?;
        let mut have = 0u64;
        let mut serials = Vec::new();
        for record in records {
            let gap = UpdateError::Desynchronized {
                have,
                got: record.first_number,
            };
            if have.checked_add(1) != Some(record.first_number) {
                return Err(gap);
            }
            have = have.checked_add(record.serials.len() as u64).ok_or(gap)?;
            serials.extend_from_slice(&record.serials);
        }
        let mirror = MirrorDictionary::restore(key, self.config.delta, &serials, last.signed_root)?;
        let ca = mirror.ca();
        self.install_mirror(ca, mirror);
        Ok(ca)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ra::RaConfig;
    use crate::sync::tests::{issue_and_revoke, sync, world, World, T0};
    use ritm_ca::wal::{decode_records, encode_record};
    use ritm_ca::{IssuanceLog, TailState};
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::{RefreshMessage, SerialNumber, SignedRoot};

    /// An RA that synced `batches` batches of 5 revocations and logged a
    /// record after each pass, and its log.
    fn synced_world(batches: u32) -> (World, Vec<RevocationIssuance>) {
        let mut w = world();
        let mut records = Vec::new();
        for b in 0..batches {
            // 10 s apart: past the edges' 5 s cache TTL.
            let now = T0 + 10 * u64::from(b + 1);
            issue_and_revoke(&mut w, b * 5..(b + 1) * 5, now);
            sync(&mut w, now);
            persist(&w, &mut records);
        }
        (w, records)
    }

    /// Appends the mirror's revocations since the last record, as a caller
    /// does after every sync.
    fn persist(w: &World, records: &mut Vec<RevocationIssuance>) {
        let persisted = records
            .last()
            .map_or(0, |r| r.first_number - 1 + r.serials.len() as u64);
        records.push(w.ra.mirror(&w.ca.id()).unwrap().issuance_since(persisted));
    }

    /// Resumes a fresh RA from `records`: its mirror's size and signed root.
    fn resume(
        key: VerifyingKey,
        records: &[RevocationIssuance],
    ) -> Result<(usize, SignedRoot), UpdateError> {
        let mut ra = RevocationAgent::new(RaConfig::default());
        let ca = ra.resume_ca(key, records)?;
        let mirror = ra.mirror(&ca).unwrap();
        assert_eq!(mirror.delta(), RaConfig::default().delta);
        Ok((mirror.len(), *mirror.signed_root()))
    }

    #[test]
    fn log_resume_round_trips() {
        let (mut w, mut records) = synced_world(4);
        // Once the hash chain runs out the CA rotates to a new root over
        // the same 20 revocations, logged as a record with no serials.
        let now = T0 + 10 * (1 << 16) + 50;
        let msg = w.ca.refresh(&mut w.cdn, &mut w.rng, now).unwrap();
        assert!(matches!(msg, RefreshMessage::NewRoot(_)));
        sync(&mut w, now);
        persist(&w, &mut records);
        assert!(records[4].serials.is_empty());

        let path = std::env::temp_dir().join(format!("ritm-ra-log-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = IssuanceLog::open(&path).unwrap();
        for record in &records {
            log.append(record).unwrap();
        }
        let (_, scan) = IssuanceLog::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!((&scan.records, scan.tail), (&records, TailState::Clean));
        let root = *w.ca.dictionary().signed_root();
        assert_eq!(resume(w.ca.verifying_key(), &scan.records), Ok((20, root)));
    }

    #[test]
    fn every_corrupt_byte_is_rejected_not_misparsed() {
        let (w, records) = synced_world(2);
        let key = w.ca.verifying_key();
        let first = resume(key, &records[..1]).unwrap();
        let both = resume(key, &records).unwrap();
        let image: Vec<u8> = records.iter().flat_map(encode_record).collect();
        // Flipping any single byte drops the record it lands in and every
        // record after it: the resumed mirror is a persisted prefix, or
        // there is none — never a different mirror.
        let mut resumed_at_first = 0;
        for i in 0..image.len() {
            let mut tampered = image.clone();
            tampered[i] ^= 1 << (i % 8);
            if let Ok(state) = resume(key, &decode_records(&tampered).records) {
                assert!(state == first || state == both, "byte {i} misparsed");
                resumed_at_first += usize::from(state == first);
            }
        }
        assert_eq!(resumed_at_first, encode_record(&records[1]).len());
    }

    #[test]
    fn internally_consistent_forgery_fails_root_verification() {
        let (w, mut forged) = synced_world(4);
        // An attacker who recomputes the CRC can forge a *parseable* log —
        // swap one serial and re-frame. Resume must still reject it: the
        // rebuilt tree no longer matches the signed root.
        forged[0].serials[0] = SerialNumber::from_u24(0xDEAD77);
        let image: Vec<u8> = forged.iter().flat_map(encode_record).collect();
        let scan = decode_records(&image);
        assert_eq!(scan.records, forged, "forgery should parse cleanly");
        let err = resume(w.ca.verifying_key(), &scan.records);
        assert_eq!(err, Err(UpdateError::RootMismatch));
    }

    #[test]
    fn wrong_pinned_key_is_rejected() {
        let (_, records) = synced_world(4);
        let other = SigningKey::from_seed([9u8; 32]).verifying_key();
        assert_eq!(resume(other, &records), Err(UpdateError::BadSignature));
    }

    #[test]
    fn missing_or_gapped_records_are_desynchronized() {
        let (w, records) = synced_world(3);
        let key = w.ca.verifying_key();
        let desync = |have, got| Err(UpdateError::Desynchronized { have, got });
        assert_eq!(resume(key, &[]), desync(0, 0));
        let gapped = [records[0].clone(), records[2].clone()];
        assert_eq!(resume(key, &gapped), desync(5, 11));
        let mut hostile = records[0].clone();
        hostile.first_number = 0;
        assert_eq!(resume(key, &[hostile]), desync(0, 0));
    }

    #[test]
    fn resumed_mirror_serves_and_keeps_syncing() {
        let (mut w, records) = synced_world(4);
        w.ra = RevocationAgent::new(RaConfig::default());
        w.ra.resume_ca(w.ca.verifying_key(), &records).unwrap();
        // The resumed mirror takes the next pass like a live one.
        issue_and_revoke(&mut w, 100..101, T0 + 50);
        assert_eq!(sync(&mut w, T0 + 50).revocations_applied, 1);
        assert_eq!(
            w.ra.mirror(&w.ca.id()).unwrap().signed_root(),
            w.ca.dictionary().signed_root()
        );
    }
}
