//! Certificates and chains.
//!
//! A compact substitute for X.509/DER (README, "Substitutions"): the fields
//! RITM actually inspects — serial number, issuing CA, validity window,
//! subject, public key — in a deterministic binary encoding, signed with
//! Ed25519 by the issuer. RAs parse these straight off `Certificate`
//! handshake messages, exercising the same DPI code path as the paper's
//! Scapy-based prototype.

use ritm_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use ritm_crypto::wire::{DecodeError, Reader, Writer};
use ritm_dictionary::{CaId, SerialNumber};

/// A certificate binding a subject name and key, issued by a CA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Serial number unique within the issuing CA.
    pub serial: SerialNumber,
    /// Issuing CA.
    pub issuer: CaId,
    /// Subject (domain name, or CA name for intermediate/root certs).
    pub subject: String,
    /// Start of validity (Unix seconds).
    pub not_before: u64,
    /// End of validity (Unix seconds).
    pub not_after: u64,
    /// Subject's public key.
    pub public_key: VerifyingKey,
    /// `true` if the subject may itself issue certificates.
    pub is_ca: bool,
    /// Issuer's signature over the canonical to-be-signed encoding.
    pub signature: Signature,
}

/// Why a certificate or chain failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// The signature does not verify under the supplied issuer key.
    BadSignature,
    /// The certificate is not yet valid or has expired.
    OutsideValidity {
        /// Time at which validation ran.
        now: u64,
    },
    /// The chain is empty.
    EmptyChain,
    /// A non-leaf link is not marked as a CA certificate.
    NotACa(String),
    /// Chain issuer/subject linkage is broken at the named subject.
    BrokenChain(String),
    /// No trust anchor matches the chain's root issuer.
    UntrustedRoot(CaId),
}

impl core::fmt::Display for CertError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CertError::BadSignature => f.write_str("certificate signature invalid"),
            CertError::OutsideValidity { now } => {
                write!(f, "certificate outside its validity window at {now}")
            }
            CertError::EmptyChain => f.write_str("certificate chain is empty"),
            CertError::NotACa(s) => write!(f, "intermediate '{s}' is not a CA certificate"),
            CertError::BrokenChain(s) => write!(f, "chain linkage broken at '{s}'"),
            CertError::UntrustedRoot(ca) => write!(f, "no trust anchor for root issuer {ca}"),
        }
    }
}

impl std::error::Error for CertError {}

impl Certificate {
    fn tbs_bytes(
        serial: &SerialNumber,
        issuer: &CaId,
        subject: &str,
        not_before: u64,
        not_after: u64,
        public_key: &VerifyingKey,
        is_ca: bool,
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(b"RITM-CERT-v1");
        w.vec8(serial.as_bytes());
        w.bytes(&issuer.0);
        w.vec16(subject.as_bytes());
        w.u64(not_before);
        w.u64(not_after);
        w.bytes(public_key.as_bytes());
        w.u8(is_ca as u8);
        w.into_bytes()
    }

    /// Issues a certificate signed by `issuer_key`.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        issuer_key: &SigningKey,
        issuer: CaId,
        serial: SerialNumber,
        subject: &str,
        not_before: u64,
        not_after: u64,
        public_key: VerifyingKey,
        is_ca: bool,
    ) -> Self {
        let tbs = Self::tbs_bytes(
            &serial,
            &issuer,
            subject,
            not_before,
            not_after,
            &public_key,
            is_ca,
        );
        Certificate {
            serial,
            issuer,
            subject: subject.to_owned(),
            not_before,
            not_after,
            public_key,
            is_ca,
            signature: issuer_key.sign(&tbs),
        }
    }

    /// Verifies the issuer's signature and the validity window.
    ///
    /// # Errors
    ///
    /// [`CertError::BadSignature`] or [`CertError::OutsideValidity`].
    pub fn verify(&self, issuer_key: &VerifyingKey, now: u64) -> Result<(), CertError> {
        let tbs = Self::tbs_bytes(
            &self.serial,
            &self.issuer,
            &self.subject,
            self.not_before,
            self.not_after,
            &self.public_key,
            self.is_ca,
        );
        issuer_key
            .verify(&tbs, &self.signature)
            .map_err(|_| CertError::BadSignature)?;
        if now < self.not_before || now > self.not_after {
            return Err(CertError::OutsideValidity { now });
        }
        Ok(())
    }

    /// Exact encoded size in bytes, computed without serializing.
    pub fn encoded_len(&self) -> usize {
        1 + self.serial.len() // vec8 serial
            + 8 // issuer
            + 2 + self.subject.len() // vec16 subject
            + 8 + 8 // validity window
            + self.public_key.as_bytes().len()
            + 1 // is_ca
            + self.signature.as_bytes().len()
    }

    /// Serializes the certificate (pre-sized to
    /// [`Certificate::encoded_len`]; never reallocates).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        w.vec8(self.serial.as_bytes());
        w.bytes(&self.issuer.0);
        w.vec16(self.subject.as_bytes());
        w.u64(self.not_before);
        w.u64(self.not_after);
        w.bytes(self.public_key.as_bytes());
        w.u8(self.is_ca as u8);
        w.bytes(self.signature.as_bytes());
        w.into_bytes()
    }

    /// Parses a certificate from a reader.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let serial_raw = r.vec8("cert serial")?;
        let serial = SerialNumber::new(serial_raw)
            .map_err(|_| DecodeError::new("invalid cert serial", r.position()))?;
        let issuer = CaId(r.array("cert issuer")?);
        let subject_raw = r.vec16("cert subject")?;
        let subject = String::from_utf8(subject_raw.to_vec())
            .map_err(|_| DecodeError::new("cert subject not utf-8", r.position()))?;
        let not_before = r.u64("cert not_before")?;
        let not_after = r.u64("cert not_after")?;
        let public_key = VerifyingKey::from_bytes(r.array("cert public key")?);
        let is_ca = r.u8("cert is_ca")? != 0;
        let signature = Signature::from_bytes(r.array("cert signature")?);
        Ok(Certificate {
            serial,
            issuer,
            subject,
            not_before,
            not_after,
            public_key,
            is_ca,
            signature,
        })
    }

    /// Parses a certificate from raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed or trailing input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let c = Self::decode(&mut r)?;
        r.finish("cert trailing bytes")?;
        Ok(c)
    }
}

/// A certificate chain, leaf first (TLS `Certificate` message order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateChain(pub Vec<Certificate>);

/// A set of pinned `(CaId, key)` trust anchors.
#[derive(Debug, Clone, Default)]
pub struct TrustAnchors {
    anchors: Vec<(CaId, VerifyingKey)>,
}

impl TrustAnchors {
    /// Creates an empty anchor set.
    pub fn new() -> Self {
        TrustAnchors::default()
    }

    /// Pins a CA key.
    pub fn add(&mut self, ca: CaId, key: VerifyingKey) {
        self.anchors.push((ca, key));
    }

    /// Looks up the key for `ca`.
    fn key_of(&self, ca: CaId) -> Option<&VerifyingKey> {
        self.anchors.iter().find(|(c, _)| *c == ca).map(|(_, k)| k)
    }
}

impl CertificateChain {
    /// The leaf (server) certificate.
    pub fn leaf(&self) -> Option<&Certificate> {
        self.0.first()
    }

    /// Standard chain validation (the client's step 5a): signature linkage
    /// leaf → … → root, CA flags, validity windows, and a trust-anchor match
    /// for the final issuer.
    ///
    /// # Errors
    ///
    /// The first failing [`CertError`], walking from the leaf up.
    pub fn validate(&self, anchors: &TrustAnchors, now: u64) -> Result<(), CertError> {
        if self.0.is_empty() {
            return Err(CertError::EmptyChain);
        }
        for (i, cert) in self.0.iter().enumerate() {
            match self.0.get(i + 1) {
                Some(parent) => {
                    if !parent.is_ca {
                        return Err(CertError::NotACa(parent.subject.clone()));
                    }
                    if CaId::from_name(&parent.subject) != cert.issuer {
                        return Err(CertError::BrokenChain(cert.subject.clone()));
                    }
                    cert.verify(&parent.public_key, now)?;
                }
                None => {
                    // Root of the presented chain: must match a trust anchor.
                    let key = anchors
                        .key_of(cert.issuer)
                        .ok_or(CertError::UntrustedRoot(cert.issuer))?;
                    cert.verify(key, now)?;
                }
            }
        }
        Ok(())
    }

    /// Exact encoded size in bytes, computed without serializing.
    pub fn encoded_len(&self) -> usize {
        1 + self.0.iter().map(|c| 2 + c.encoded_len()).sum::<usize>()
    }

    /// Serializes the chain as carried in a TLS `Certificate` message
    /// (pre-sized to [`CertificateChain::encoded_len`]; never reallocates).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        w.u8(self.0.len() as u8);
        for c in &self.0 {
            w.vec16(&c.to_bytes());
        }
        w.into_bytes()
    }

    /// Parses a chain.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let n = r.u8("chain length")? as usize;
        // Each certificate needs at least its 2-byte length prefix.
        r.check_count(n, 2, "chain length exceeds buffer")?;
        let mut certs = Vec::with_capacity(n);
        for _ in 0..n {
            let raw = r.vec16("chain cert")?;
            certs.push(Certificate::from_bytes(raw)?);
        }
        r.finish("chain trailing bytes")?;
        Ok(CertificateChain(certs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: u64 = 1_400_000_000;

    struct Pki {
        root_key: SigningKey,
        inter_key: SigningKey,
        leaf_key: SigningKey,
        chain: CertificateChain,
        anchors: TrustAnchors,
    }

    /// Builds the three-certificate chain the paper calls the common case.
    fn pki() -> Pki {
        let root_key = SigningKey::from_seed([1u8; 32]);
        let inter_key = SigningKey::from_seed([2u8; 32]);
        let leaf_key = SigningKey::from_seed([3u8; 32]);
        let root_ca = CaId::from_name("RootCA");
        let inter_ca = CaId::from_name("InterCA");

        let inter_cert = Certificate::issue(
            &root_key,
            root_ca,
            SerialNumber::from_u24(1),
            "InterCA",
            NOW - 1000,
            NOW + 1_000_000,
            inter_key.verifying_key(),
            true,
        );
        let leaf_cert = Certificate::issue(
            &inter_key,
            inter_ca,
            SerialNumber::from_u24(0x073e10),
            "example.com",
            NOW - 100,
            NOW + 100_000,
            leaf_key.verifying_key(),
            false,
        );
        // Self-signed root.
        let root_cert = Certificate::issue(
            &root_key,
            root_ca,
            SerialNumber::from_u24(0),
            "RootCA",
            NOW - 10_000,
            NOW + 10_000_000,
            root_key.verifying_key(),
            true,
        );
        let mut anchors = TrustAnchors::new();
        anchors.add(root_ca, root_key.verifying_key());
        Pki {
            root_key,
            inter_key,
            leaf_key,
            chain: CertificateChain(vec![leaf_cert, inter_cert, root_cert]),
            anchors,
        }
    }

    #[test]
    fn valid_chain_validates() {
        let p = pki();
        p.chain.validate(&p.anchors, NOW).unwrap();
    }

    #[test]
    fn expired_leaf_rejected() {
        let p = pki();
        let err = p.chain.validate(&p.anchors, NOW + 200_000).unwrap_err();
        assert!(matches!(err, CertError::OutsideValidity { .. }));
    }

    #[test]
    fn not_yet_valid_rejected() {
        let p = pki();
        assert!(p.chain.validate(&p.anchors, NOW - 500).is_err());
    }

    #[test]
    fn untrusted_root_rejected() {
        let p = pki();
        let empty = TrustAnchors::new();
        assert!(matches!(
            p.chain.validate(&empty, NOW),
            Err(CertError::UntrustedRoot(_))
        ));
    }

    #[test]
    fn tampered_subject_rejected() {
        let mut p = pki();
        p.chain.0[0].subject = "evil.com".into();
        assert_eq!(
            p.chain.validate(&p.anchors, NOW),
            Err(CertError::BadSignature)
        );
    }

    #[test]
    fn swapped_key_rejected() {
        let mut p = pki();
        let other = SigningKey::from_seed([9u8; 32]);
        p.chain.0[0].public_key = other.verifying_key();
        assert_eq!(
            p.chain.validate(&p.anchors, NOW),
            Err(CertError::BadSignature)
        );
        let _unused = &p.leaf_key;
    }

    #[test]
    fn non_ca_intermediate_rejected() {
        let p = pki();
        // Re-issue the intermediate with is_ca = false.
        let bad_inter = Certificate::issue(
            &p.root_key,
            CaId::from_name("RootCA"),
            SerialNumber::from_u24(1),
            "InterCA",
            NOW - 1000,
            NOW + 1_000_000,
            p.inter_key.verifying_key(),
            false,
        );
        let chain = CertificateChain(vec![p.chain.0[0].clone(), bad_inter, p.chain.0[2].clone()]);
        assert!(matches!(
            chain.validate(&p.anchors, NOW),
            Err(CertError::NotACa(_))
        ));
    }

    #[test]
    fn broken_linkage_rejected() {
        let p = pki();
        // Drop the intermediate: the leaf's issuer no longer matches.
        let chain = CertificateChain(vec![p.chain.0[0].clone(), p.chain.0[2].clone()]);
        assert!(matches!(
            chain.validate(&p.anchors, NOW),
            Err(CertError::BrokenChain(_))
        ));
    }

    #[test]
    fn empty_chain_rejected() {
        let p = pki();
        assert_eq!(
            CertificateChain(vec![]).validate(&p.anchors, NOW),
            Err(CertError::EmptyChain)
        );
    }

    #[test]
    fn encoding_round_trips() {
        let p = pki();
        let bytes = p.chain.to_bytes();
        let back = CertificateChain::from_bytes(&bytes).unwrap();
        assert_eq!(back, p.chain);
        back.validate(&p.anchors, NOW).unwrap();
    }

    #[test]
    fn single_cert_round_trip() {
        let p = pki();
        let c = &p.chain.0[0];
        assert_eq!(&Certificate::from_bytes(&c.to_bytes()).unwrap(), c);
    }

    #[test]
    fn truncated_cert_rejected() {
        let p = pki();
        let bytes = p.chain.0[0].to_bytes();
        assert!(Certificate::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }
}
