//! Crash-durable RA mirror snapshots.
//!
//! The RA's mirrors live in memory; a crashed RA would otherwise have to
//! re-download every CA's dictionary from serial 1. This module persists
//! the minimum that [`MirrorDictionary::restore`] needs — the serials in
//! issuance order plus the last accepted signed root — so a restarted RA
//! resumes from its snapshot and closes only the gap since the crash via
//! paged catch-up ([`crate::sync`]).
//!
//! ## Snapshot framing
//!
//! ```text
//! "RAS1" ‖ body ‖ u32 BE CRC-32 of body
//! body = ca (8 bytes) ‖ u64 delta ‖ u32 count ‖ count × vec8 serial
//!        ‖ signed root (SIGNED_ROOT_LEN bytes)
//! ```
//!
//! The CRC catches torn writes and bit rot; *integrity against tampering*
//! comes from [`MirrorDictionary::restore`] itself, which rebuilds the tree
//! and rejects any snapshot that does not reproduce the CA-signed root.
//! The CA's verifying key is deliberately **not** part of the snapshot —
//! [`RevocationAgent::resume_ca`] takes it from the caller's pinned
//! configuration, so a forged snapshot file can never substitute a key.

use crate::ra::RevocationAgent;
use ritm_crypto::crc32::crc32;
use ritm_crypto::ed25519::VerifyingKey;
use ritm_crypto::wire::{DecodeError, Reader, Writer};
use ritm_dictionary::root::SIGNED_ROOT_LEN;
use ritm_dictionary::{CaId, MirrorDictionary, SerialNumber, SignedRoot, UpdateError};

/// Snapshot file magic (`"RAS1"`: Revocation Agent Snapshot, version 1).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"RAS1";

/// The persisted state of one mirror — everything
/// [`MirrorDictionary::restore`] needs except the CA key, which stays with
/// the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirrorSnapshot {
    /// The CA the mirror tracks.
    pub ca: CaId,
    /// Dissemination period Δ the mirror ran with.
    pub delta: u64,
    /// Every mirrored serial, in issuance order (numbers `1..=count`).
    pub serials: Vec<SerialNumber>,
    /// The last signed root the mirror accepted.
    pub signed_root: SignedRoot,
}

impl MirrorSnapshot {
    /// Captures a mirror's persistent state.
    pub fn capture(mirror: &MirrorDictionary) -> Self {
        MirrorSnapshot {
            ca: mirror.ca(),
            delta: mirror.delta(),
            serials: mirror.serials_in_issuance_order(),
            signed_root: *mirror.signed_root(),
        }
    }

    /// Serializes the snapshot (magic ‖ body ‖ CRC-32).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Writer::with_capacity(8 + 8 + 4 + self.serials.len() * 21 + SIGNED_ROOT_LEN);
        body.bytes(&self.ca.0);
        body.u64(self.delta);
        body.u32(self.serials.len() as u32);
        for s in &self.serials {
            body.vec8(s.as_bytes());
        }
        body.bytes(&self.signed_root.to_bytes());
        let body = body.into_bytes();
        let mut out = Vec::with_capacity(4 + body.len() + 4);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_be_bytes());
        out
    }

    /// Parses a snapshot, verifying the magic and the body CRC.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on a wrong magic, a CRC mismatch (torn or rotted
    /// file), a malformed body, or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < 8 || bytes[..4] != SNAPSHOT_MAGIC {
            return Err(DecodeError::new("snapshot magic", 0));
        }
        let body = &bytes[4..bytes.len() - 4];
        let crc = u32::from_be_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        if crc32(body) != crc {
            return Err(DecodeError::new("snapshot crc", bytes.len() - 4));
        }
        let mut r = Reader::new(body);
        let ca = CaId(r.array("snapshot ca")?);
        let delta = r.u64("snapshot delta")?;
        let count = r.u32("snapshot serial count")? as usize;
        // Each serial costs ≥ 2 wire bytes; a forged count cannot force an
        // oversized allocation past what the buffer itself already holds.
        r.check_count(count, 2, "snapshot serial count")?;
        let mut serials = Vec::with_capacity(count);
        for _ in 0..count {
            let raw = r.vec8("snapshot serial")?;
            let serial = SerialNumber::new(raw)
                .map_err(|_| DecodeError::new("snapshot serial bytes", r.position()))?;
            serials.push(serial);
        }
        let root_bytes = r.slice(SIGNED_ROOT_LEN, "snapshot signed root")?;
        let signed_root = SignedRoot::from_bytes(root_bytes)?;
        r.finish("snapshot trailing bytes")?;
        Ok(MirrorSnapshot {
            ca,
            delta,
            serials,
            signed_root,
        })
    }

    /// Rebuilds the mirror, verifying the rebuilt tree against the signed
    /// root under the caller-pinned `ca_key`.
    ///
    /// # Errors
    ///
    /// See [`MirrorDictionary::restore`] — a tampered snapshot surfaces as
    /// [`UpdateError::RootMismatch`] or [`UpdateError::BadSignature`].
    pub fn restore(&self, ca_key: VerifyingKey) -> Result<MirrorDictionary, UpdateError> {
        MirrorDictionary::restore(self.ca, ca_key, self.delta, &self.serials, self.signed_root)
    }
}

/// Why [`RevocationAgent::resume_ca`] rejected a snapshot. Either way the
/// caller's fallback is the same: bootstrap fresh via
/// [`RevocationAgent::follow_ca`] and let paged catch-up close the full gap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The snapshot bytes did not parse (torn file, CRC mismatch, garbage).
    Decode(DecodeError),
    /// The snapshot parsed but did not reproduce a validly-signed root.
    Restore(UpdateError),
}

impl core::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ResumeError::Decode(e) => write!(f, "snapshot decode failed: {e}"),
            ResumeError::Restore(e) => write!(f, "snapshot restore rejected: {e:?}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl RevocationAgent {
    /// Serializes one mirror's persistent state, or `None` if the CA is not
    /// followed. Write the bytes wherever durability lives (a file, a KV
    /// store); feed them back through [`RevocationAgent::resume_ca`] after
    /// a restart.
    pub fn snapshot_mirror(&self, ca: &CaId) -> Option<Vec<u8>> {
        self.mirror(ca)
            .map(|m| MirrorSnapshot::capture(m).to_bytes())
    }

    /// Resumes mirroring a CA from snapshot bytes: decodes, rebuilds, and
    /// verifies the tree against the snapshot's signed root under the
    /// caller-pinned `key`, then installs the mirror (with this RA's
    /// configured Δ) and publishes its snapshot for readers. Returns the
    /// resumed [`CaId`].
    ///
    /// # Errors
    ///
    /// [`ResumeError`] if the bytes are corrupt or fail verification; the
    /// agent is left untouched, so the caller can fall back to a fresh
    /// [`RevocationAgent::follow_ca`] bootstrap.
    pub fn resume_ca(&mut self, key: VerifyingKey, bytes: &[u8]) -> Result<CaId, ResumeError> {
        let snapshot = MirrorSnapshot::from_bytes(bytes).map_err(ResumeError::Decode)?;
        let mut mirror = snapshot.restore(key).map_err(ResumeError::Restore)?;
        mirror.set_delta(self.config.delta);
        let ca = snapshot.ca;
        self.install_mirror(ca, mirror);
        Ok(ca)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ra::RaConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_ca::CertificationAuthority;
    use ritm_cdn::network::Cdn;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_net::time::SimDuration;

    const T0: u64 = 1_000_000;

    struct World {
        ca: CertificationAuthority,
        cdn: Cdn,
        ra: RevocationAgent,
        rng: StdRng,
    }

    fn synced_world() -> World {
        let mut rng = StdRng::seed_from_u64(77);
        let mut cdn = Cdn::new(SimDuration::from_secs(5));
        let mut ca = CertificationAuthority::new(
            "PersistCA",
            SigningKey::from_seed([3u8; 32]),
            10,
            64,
            &mut cdn,
            &mut rng,
            T0,
        );
        let mut ra = RevocationAgent::new(RaConfig::default());
        ra.follow_ca(ca.id(), ca.verifying_key(), *ca.dictionary().signed_root())
            .unwrap();
        let key = SigningKey::from_seed([7u8; 32]).verifying_key();
        for batch in 0..4u64 {
            let serials: Vec<SerialNumber> = (0..5)
                .map(|i| {
                    ca.issue_certificate(&format!("b{batch}s{i}.com"), key, 0, u64::MAX)
                        .serial
                })
                .collect();
            let now = T0 + 1 + batch;
            let iss = ca
                .revoke(&serials, &mut cdn, &mut rng, now)
                .unwrap()
                .unwrap();
            let id = ca.id();
            ra.mirror_mut(&id)
                .unwrap()
                .apply_issuance(&iss, now)
                .unwrap();
        }
        World { ca, cdn, ra, rng }
    }

    #[test]
    fn snapshot_resume_round_trips() {
        let w = synced_world();
        let id = w.ca.id();
        let bytes = w.ra.snapshot_mirror(&id).unwrap();

        let mut ra2 = RevocationAgent::new(RaConfig::default());
        let resumed = ra2.resume_ca(w.ca.verifying_key(), &bytes).unwrap();
        assert_eq!(resumed, id);
        let before = w.ra.mirror(&id).unwrap();
        let after = ra2.mirror(&id).unwrap();
        assert_eq!(after.len(), before.len());
        assert_eq!(after.signed_root(), before.signed_root());
        assert_eq!(
            after.serials_in_issuance_order(),
            before.serials_in_issuance_order()
        );
    }

    #[test]
    fn unknown_ca_yields_no_snapshot() {
        let w = synced_world();
        assert!(w.ra.snapshot_mirror(&CaId::from_name("Nobody")).is_none());
    }

    #[test]
    fn every_corrupt_byte_is_rejected_not_misparsed() {
        let w = synced_world();
        let bytes = w.ra.snapshot_mirror(&w.ca.id()).unwrap();
        // Flipping any single byte must surface as an error — never a
        // silently different mirror. Most flips die at the CRC; flips in
        // the CRC field itself die against the body's checksum.
        for i in 0..bytes.len() {
            let mut tampered = bytes.clone();
            tampered[i] ^= 0x01;
            let mut ra2 = RevocationAgent::new(RaConfig::default());
            let err = ra2.resume_ca(w.ca.verifying_key(), &tampered);
            assert!(err.is_err(), "byte {i} accepted");
        }
    }

    #[test]
    fn internally_consistent_forgery_fails_root_verification() {
        let w = synced_world();
        let id = w.ca.id();
        let bytes = w.ra.snapshot_mirror(&id).unwrap();
        // An attacker who recomputes the CRC can forge a *parseable*
        // snapshot — swap one serial and re-frame. Restore must still
        // reject it: the rebuilt tree no longer matches the signed root.
        let mut snap = MirrorSnapshot::from_bytes(&bytes).unwrap();
        snap.serials[0] = SerialNumber::from_u24(0xDEAD77);
        let forged = snap.to_bytes();
        assert_eq!(
            MirrorSnapshot::from_bytes(&forged).unwrap(),
            snap,
            "forgery should parse cleanly"
        );
        let mut ra2 = RevocationAgent::new(RaConfig::default());
        assert_eq!(
            ra2.resume_ca(w.ca.verifying_key(), &forged),
            Err(ResumeError::Restore(UpdateError::RootMismatch))
        );
    }

    #[test]
    fn wrong_pinned_key_is_rejected() {
        let w = synced_world();
        let bytes = w.ra.snapshot_mirror(&w.ca.id()).unwrap();
        let other = SigningKey::from_seed([9u8; 32]).verifying_key();
        let mut ra2 = RevocationAgent::new(RaConfig::default());
        assert_eq!(
            ra2.resume_ca(other, &bytes),
            Err(ResumeError::Restore(UpdateError::BadSignature))
        );
    }

    #[test]
    fn resumed_mirror_serves_and_keeps_syncing() {
        let mut w = synced_world();
        let id = w.ca.id();
        let bytes = w.ra.snapshot_mirror(&id).unwrap();

        let mut ra2 = RevocationAgent::new(RaConfig::default());
        ra2.resume_ca(w.ca.verifying_key(), &bytes).unwrap();
        // The resumed mirror accepts the next issuance like a live one.
        let key = SigningKey::from_seed([7u8; 32]).verifying_key();
        let serial = w.ca.issue_certificate("fresh.com", key, 0, u64::MAX).serial;
        let now = T0 + 100;
        let iss =
            w.ca.revoke(&[serial], &mut w.cdn, &mut w.rng, now)
                .unwrap()
                .unwrap();
        ra2.mirror_mut(&id)
            .unwrap()
            .apply_issuance(&iss, now)
            .unwrap();
        assert_eq!(
            ra2.mirror(&id).unwrap().signed_root(),
            w.ca.dictionary().signed_root()
        );
    }
}
