//! The certification authority: issues certificates, revokes them into its
//! authenticated dictionary, and keeps the dictionary fresh through the CDN.

use crate::manifest::Manifest;
use rand::RngCore;
use ritm_cdn::network::Cdn;
use ritm_cdn::origin::PublishError;
use ritm_crypto::ed25519::{SigningKey, VerifyingKey};
use ritm_dictionary::{
    CaDictionary, CaId, InsertError, RefreshMessage, RevocationIssuance, SerialNumber,
};
use ritm_tls::certificate::Certificate;
use std::collections::HashSet;

/// Errors from CA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaError {
    /// The serial is unknown to this CA.
    UnknownSerial(SerialNumber),
    /// The batch held more new serials than one issuance may carry
    /// ([`ritm_dictionary::MAX_BATCH`]); nothing was revoked.
    BatchTooLarge(usize),
    /// The CDN refused the publish.
    Publish(PublishError),
    /// The attached issuance log failed to persist a record. The in-memory
    /// dictionary is ahead of stable storage at this point — treat as
    /// fatal and restart from the log.
    Wal(std::io::ErrorKind),
}

impl core::fmt::Display for CaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CaError::UnknownSerial(s) => write!(f, "serial {s} was not issued by this CA"),
            CaError::BatchTooLarge(n) => write!(f, "batch of {n} new serials is too large"),
            CaError::Publish(e) => write!(f, "distribution point rejected publish: {e}"),
            CaError::Wal(k) => write!(f, "issuance log append failed: {k:?}"),
        }
    }
}

impl std::error::Error for CaError {}

impl From<PublishError> for CaError {
    fn from(e: PublishError) -> Self {
        CaError::Publish(e)
    }
}

/// A certification authority participating in RITM.
///
/// Owns the signing key, the registry of issued serials, and the
/// authenticated dictionary; pushes every dictionary change to the CDN
/// origin.
pub struct CertificationAuthority {
    name: String,
    id: CaId,
    key: SigningKey,
    dictionary: CaDictionary,
    /// Serials this CA issued and has not revoked: `revoke` asks whether
    /// this CA issued a serial and nothing reads the certificate back, so
    /// it is not kept. A revoked serial moves to the dictionary, which
    /// holds it anyway, so no revocation is held twice.
    unrevoked: HashSet<SerialNumber>,
    next_serial: u32,
    delta: u64,
    /// Crash-durability hook: when attached, every issuance is appended
    /// (and synced) here before dissemination.
    wal: Option<crate::wal::IssuanceLog>,
}

impl core::fmt::Debug for CertificationAuthority {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CertificationAuthority")
            .field("name", &self.name)
            .field("id", &self.id)
            .field("unrevoked", &self.unrevoked.len())
            .field("revoked", &self.dictionary.len())
            .field("epoch", &self.dictionary.epoch())
            .finish()
    }
}

impl CertificationAuthority {
    /// Creates a CA with a fresh dictionary and registers it with the CDN
    /// origin (publishing its bootstrap manifest, §VIII).
    pub fn new<R: RngCore + ?Sized>(
        name: &str,
        key: SigningKey,
        delta: u64,
        chain_len: u64,
        cdn: &mut Cdn,
        rng: &mut R,
        now: u64,
    ) -> Self {
        let id = CaId::from_name(name);
        let dictionary = CaDictionary::new(id, key.clone(), delta, chain_len, rng, now);
        Self::with_engine(name, key, delta, dictionary, cdn)
    }

    /// Rebuilds a crashed CA from its replayed issuance log (typically the
    /// records a [`crate::wal::IssuanceLog::open`] scan recovered). Each
    /// record is re-verified mirror-grade; the hash chain is rotated (its
    /// preimages died with the old process) and a fresh root over the same
    /// content is signed at `now` — the standard `NewRoot` rotation every
    /// mirror already follows. The certificate-issuance registry is not
    /// log-persisted; harnesses continuing to issue after recovery bump
    /// [`CertificationAuthority::set_next_serial`] past their pre-crash
    /// range.
    ///
    /// # Errors
    ///
    /// The index of the first log record that failed verification
    /// (see [`CaDictionary::replay`]).
    #[allow(clippy::too_many_arguments)]
    pub fn recover<R: RngCore + ?Sized>(
        name: &str,
        key: SigningKey,
        delta: u64,
        chain_len: u64,
        records: &[RevocationIssuance],
        cdn: &mut Cdn,
        rng: &mut R,
        now: u64,
    ) -> Result<Self, usize> {
        let id = CaId::from_name(name);
        let dictionary =
            CaDictionary::replay(id, key.clone(), delta, chain_len, records, rng, now)?;
        Ok(Self::with_engine(name, key, delta, dictionary, cdn))
    }

    /// Wraps an already-built dictionary into a CA and registers it with the
    /// CDN origin (publishing its bootstrap manifest, §VIII). The
    /// dictionary's CA id must be derived from `name`.
    pub fn with_engine(
        name: &str,
        key: SigningKey,
        delta: u64,
        dictionary: CaDictionary,
        cdn: &mut Cdn,
    ) -> Self {
        let id = CaId::from_name(name);
        cdn.origin.register_ca(id, key.verifying_key());
        let ca = CertificationAuthority {
            name: name.to_owned(),
            id,
            key,
            dictionary,
            unrevoked: HashSet::new(),
            next_serial: 1,
            delta,
            wal: None,
        };
        cdn.origin.publish_manifest(id, ca.manifest_json());
        ca
    }

    /// The CA's identifier.
    pub fn id(&self) -> CaId {
        self.id
    }

    /// The CA's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The CA's public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// The dissemination period Δ (possibly CA-local, §VIII).
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// The CA's bootstrap manifest (the object published to the CDN at
    /// creation; re-derivable at any time for direct manifest endpoints).
    pub fn manifest(&self) -> Manifest {
        Manifest {
            ca_name: self.name.clone(),
            ca: self.id,
            delta: self.delta,
            cdn_address: format!("cdn.example/{}", self.id),
        }
    }

    /// The signed `/RITM.json` manifest bytes (§VIII).
    pub fn manifest_json(&self) -> Vec<u8> {
        self.manifest().to_json_signed(&self.key).into_bytes()
    }

    /// Read access to the dictionary (e.g. for bootstrap signed roots).
    pub fn dictionary(&self) -> &CaDictionary {
        &self.dictionary
    }

    /// The dictionary's monotonic content epoch.
    pub fn epoch(&self) -> u64 {
        self.dictionary.epoch()
    }

    /// Attaches an open issuance log: from now on every revocation batch
    /// is appended (and synced) to it *before* dissemination, making the
    /// CA restartable via [`CertificationAuthority::recover`].
    pub fn attach_wal(&mut self, wal: crate::wal::IssuanceLog) {
        self.wal = Some(wal);
    }

    /// Overrides the next certificate serial — used after
    /// [`CertificationAuthority::recover`], whose log carries revocations
    /// but not the issuance registry, to jump past the pre-crash range.
    pub fn set_next_serial(&mut self, next: u32) {
        self.next_serial = next;
    }

    /// Issues a server certificate with the next 3-byte serial (the
    /// dominant size in the paper's dataset, §VII-A).
    pub fn issue_certificate(
        &mut self,
        subject: &str,
        subject_key: VerifyingKey,
        not_before: u64,
        not_after: u64,
    ) -> Certificate {
        let serial = SerialNumber::from_u24(self.next_serial);
        self.next_serial += 1;
        let cert = Certificate::issue(
            &self.key,
            self.id,
            serial,
            subject,
            not_before,
            not_after,
            subject_key,
            false,
        );
        self.unrevoked.insert(serial);
        cert
    }

    /// Revokes certificates by serial and publishes the issuance to the CDN
    /// (Fig. 2 `insert` + dissemination step 1 of Fig. 1).
    ///
    /// # Errors
    ///
    /// [`CaError::UnknownSerial`] for serials this CA never issued;
    /// [`CaError::BatchTooLarge`] for more new serials than one batch may
    /// carry; [`CaError::Publish`] if the origin rejects the message.
    pub fn revoke<R: RngCore + ?Sized>(
        &mut self,
        serials: &[SerialNumber],
        cdn: &mut Cdn,
        rng: &mut R,
        now: u64,
    ) -> Result<Option<RevocationIssuance>, CaError> {
        for s in serials {
            if !self.unrevoked.contains(s) && !self.dictionary.contains(s) {
                return Err(CaError::UnknownSerial(*s));
            }
        }
        let issuance = match self.dictionary.insert(serials, rng, now) {
            Ok(issuance) => issuance,
            Err(InsertError::NothingNew) => return Ok(None),
            Err(InsertError::TooLarge { serials }) => return Err(CaError::BatchTooLarge(serials)),
        };
        // Durability before dissemination: once a peer can observe this
        // batch, a restart must be able to replay it.
        if let Some(wal) = &mut self.wal {
            wal.append(&issuance).map_err(|e| CaError::Wal(e.kind()))?;
        }
        for s in &issuance.serials {
            self.unrevoked.remove(s);
        }
        cdn.origin.publish_issuance(self.id, &issuance)?;
        // Keep the freshness object in sync with the new chain.
        if let Some(f) = self.dictionary.current_freshness(now) {
            cdn.origin
                .publish_freshness(self.id, &RefreshMessage::Freshness(f))?;
        }
        Ok(Some(issuance))
    }

    /// Periodic refresh (Fig. 2 `refresh`): publishes either the next
    /// freshness statement or a rotated signed root.
    ///
    /// # Errors
    ///
    /// [`CaError::Publish`] if the origin rejects the message.
    pub fn refresh<R: RngCore + ?Sized>(
        &mut self,
        cdn: &mut Cdn,
        rng: &mut R,
        now: u64,
    ) -> Result<RefreshMessage, CaError> {
        let msg = self.dictionary.refresh(rng, now);
        cdn.origin.publish_freshness(self.id, &msg)?;
        Ok(msg)
    }

    /// Whether a serial is currently revoked.
    pub fn is_revoked(&self, serial: &SerialNumber) -> bool {
        self.dictionary.contains(serial)
    }

    /// Number of revocations issued.
    pub fn revocation_count(&self) -> usize {
        self.dictionary.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_net::time::SimDuration;

    fn setup() -> (CertificationAuthority, Cdn, StdRng) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cdn = Cdn::new(SimDuration::from_secs(10));
        let ca = CertificationAuthority::new(
            "AuthorityCA",
            SigningKey::from_seed([4u8; 32]),
            10,
            1024,
            &mut cdn,
            &mut rng,
            1_000,
        );
        (ca, cdn, rng)
    }

    #[test]
    fn issue_then_revoke_round_trip() {
        let (mut ca, mut cdn, mut rng) = setup();
        let subject_key = SigningKey::from_seed([7u8; 32]).verifying_key();
        let cert = ca.issue_certificate("example.com", subject_key, 500, 2_000_000);
        assert!(!ca.is_revoked(&cert.serial));

        let iss = ca
            .revoke(&[cert.serial], &mut cdn, &mut rng, 1_001)
            .unwrap()
            .unwrap();
        assert!(ca.is_revoked(&cert.serial));
        assert_eq!(iss.serials, vec![cert.serial]);

        // The issuance is in the CDN's feed.
        assert_eq!(cdn.origin.fetch_page(ca.id(), 0, 64), Some((iss, 0)));
    }

    #[test]
    fn issued_registry_keeps_serials_not_certificates() {
        let (mut ca, mut cdn, mut rng) = setup();
        let k = SigningKey::from_seed([7u8; 32]).verifying_key();
        let serials: Vec<SerialNumber> = (0..1_000)
            .map(|i| {
                ca.issue_certificate(&format!("host{i}.example"), k, 500, 2_000_000)
                    .serial
            })
            .collect();
        assert!(format!("{ca:?}").contains("unrevoked: 1000"));

        let half = &serials[..500];
        let iss = ca.revoke(half, &mut cdn, &mut rng, 1_001).unwrap().unwrap();
        assert_eq!(iss.serials.len(), 500);
        assert_eq!(ca.revocation_count(), 500);
        assert!(half.iter().all(|s| ca.is_revoked(s)));
        assert!(format!("{ca:?}").contains("unrevoked: 500"));
        assert!(serials[500..].iter().all(|s| !ca.is_revoked(s)));

        // A serial this CA never issued is refused, alone or inside a batch
        // of known ones, and refuses the whole batch.
        let unissued = SerialNumber::from_u24(5_000_000);
        for batch in [vec![unissued], vec![serials[600], unissued]] {
            let err = ca.revoke(&batch, &mut cdn, &mut rng, 1_002).unwrap_err();
            assert_eq!(err, CaError::UnknownSerial(unissued));
        }
        assert!(!ca.is_revoked(&serials[600]));

        // Re-revoking is still recognised as issued — and is a no-op.
        assert_eq!(ca.revoke(&half[..10], &mut cdn, &mut rng, 1_003), Ok(None));
        assert_eq!(ca.revocation_count(), 500);
    }

    #[test]
    fn revoking_unknown_serial_fails() {
        let (mut ca, mut cdn, mut rng) = setup();
        let err = ca
            .revoke(&[SerialNumber::from_u24(999)], &mut cdn, &mut rng, 1_001)
            .unwrap_err();
        assert!(matches!(err, CaError::UnknownSerial(_)));
    }

    #[test]
    fn double_revocation_is_noop() {
        let (mut ca, mut cdn, mut rng) = setup();
        let k = SigningKey::from_seed([7u8; 32]).verifying_key();
        let cert = ca.issue_certificate("a.com", k, 500, 2_000_000);
        ca.revoke(&[cert.serial], &mut cdn, &mut rng, 1_001)
            .unwrap();
        let second = ca
            .revoke(&[cert.serial], &mut cdn, &mut rng, 1_002)
            .unwrap();
        assert!(second.is_none());
        assert_eq!(ca.revocation_count(), 1);
    }

    #[test]
    fn serials_are_unique_and_sequential() {
        let (mut ca, _, _) = setup();
        let k = SigningKey::from_seed([7u8; 32]).verifying_key();
        let c1 = ca.issue_certificate("a.com", k, 0, 10);
        let c2 = ca.issue_certificate("b.com", k, 0, 10);
        assert_ne!(c1.serial, c2.serial);
        assert_eq!(c1.serial, SerialNumber::from_u24(1));
        assert_eq!(c2.serial, SerialNumber::from_u24(2));
    }

    #[test]
    fn refresh_publishes_to_cdn() {
        let (mut ca, mut cdn, mut rng) = setup();
        let msg = ca.refresh(&mut cdn, &mut rng, 1_050).unwrap();
        assert!(matches!(msg, RefreshMessage::Freshness(_)));
        use ritm_cdn::origin::ContentKey;
        assert!(cdn
            .origin
            .fetch(&ContentKey::Freshness { ca: ca.id() })
            .is_some());
    }

    #[test]
    fn manifest_is_published_at_creation() {
        let (ca, cdn, _) = setup();
        use ritm_cdn::origin::ContentKey;
        let raw = cdn
            .origin
            .fetch(&ContentKey::Manifest { ca: ca.id() })
            .expect("manifest published");
        let manifest =
            Manifest::from_json_signed(std::str::from_utf8(raw).unwrap(), &ca.verifying_key())
                .expect("manifest verifies");
        assert_eq!(manifest.delta, 10);
        assert_eq!(manifest.ca, ca.id());
    }

    #[test]
    fn certificates_validate_against_ca_key() {
        let (mut ca, _, _) = setup();
        let k = SigningKey::from_seed([7u8; 32]).verifying_key();
        let cert = ca.issue_certificate("site.org", k, 100, 10_000);
        assert!(cert.verify(&ca.verifying_key(), 5_000).is_ok());
        assert!(cert.verify(&ca.verifying_key(), 20_000).is_err());
    }
}
