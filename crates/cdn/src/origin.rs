//! The CDN origin (the paper's "distribution point", Fig. 1).
//!
//! CAs publish revocation issuances and freshness statements here under
//! versioned keys; edge servers pull on demand. The origin verifies CA
//! signatures before accepting content (§III: "The distribution point
//! verifies this message and initiates the dissemination process").

use ritm_crypto::ed25519::VerifyingKey;
use ritm_dictionary::{CaId, RefreshMessage, RevocationIssuance, SerialLog, SignedRoot};
use std::collections::HashMap;

/// Content key addressing one CA's dissemination feed.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContentKey {
    /// The issuance batch that brought the dictionary to `version` (`n`).
    Issuance {
        /// CA whose dictionary this is.
        ca: CaId,
        /// Dictionary size after the batch.
        version: u64,
    },
    /// The latest freshness statement for a CA.
    Freshness {
        /// CA whose statement this is.
        ca: CaId,
    },
    /// The latest full update bundle (what an RA's periodic pull fetches:
    /// every issuance it is missing plus the current freshness statement).
    Latest {
        /// CA whose feed this is.
        ca: CaId,
    },
    /// The `/RITM.json` bootstrap manifest (§VIII).
    Manifest {
        /// CA whose manifest this is.
        ca: CaId,
    },
}

/// Why the origin refused a publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishError {
    /// CA not registered with the distribution point.
    UnknownCa,
    /// The signed root in the message did not verify.
    BadSignature,
}

impl core::fmt::Display for PublishError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PublishError::UnknownCa => f.write_str("CA not registered at distribution point"),
            PublishError::BadSignature => f.write_str("issuance signature rejected by origin"),
        }
    }
}

impl std::error::Error for PublishError {}

/// The origin store.
#[derive(Debug, Default)]
pub struct Origin {
    keys: HashMap<CaId, VerifyingKey>,
    content: HashMap<ContentKey, Vec<u8>>,
    /// Full revocation log per CA (in issuance order) — what lets the
    /// origin answer the catch-up requests of the paper's synchronization
    /// protocol ("the RA contacts an edge server specifying the number of
    /// valid consecutive revocations it has observed", §III). Packed, as
    /// the dictionaries hold theirs.
    logs: HashMap<CaId, SerialLog>,
    /// Per-CA `(end_count, signed_root)` at each published batch boundary,
    /// ascending — the historical roots paged catch-up replies anchor to.
    boundary_roots: HashMap<CaId, Vec<(u64, SignedRoot)>>,
    latest_root: HashMap<CaId, SignedRoot>,
    /// Bytes uploaded by CAs (origin ingress, for completeness of the cost
    /// model; CloudFront ingress was free).
    pub ingress_bytes: u64,
}

impl Origin {
    /// Creates an empty origin.
    pub fn new() -> Self {
        Origin::default()
    }

    /// Registers a CA's verifying key (out-of-band trust setup).
    pub fn register_ca(&mut self, ca: CaId, key: VerifyingKey) {
        self.keys.insert(ca, key);
    }

    /// Publishes a revocation issuance, after verifying the CA's signature.
    ///
    /// Stores it both under its version key and as part of the `Latest`
    /// bundle (issuance bytes followed by the freshness bytes, refreshed by
    /// [`Origin::publish_refresh`]).
    ///
    /// # Errors
    ///
    /// See [`PublishError`].
    pub fn publish_issuance(
        &mut self,
        ca: CaId,
        issuance: &RevocationIssuance,
    ) -> Result<(), PublishError> {
        let key = self.keys.get(&ca).ok_or(PublishError::UnknownCa)?;
        issuance
            .signed_root
            .verify(key)
            .map_err(|_| PublishError::BadSignature)?;
        let log = self.logs.entry(ca).or_default();
        if issuance.first_number != log.len() as u64 + 1 {
            // A CA must publish batches in order; anything else is a bug or
            // an equivocation attempt and is refused.
            return Err(PublishError::BadSignature);
        }
        log.extend(&issuance.serials);
        self.boundary_roots
            .entry(ca)
            .or_default()
            .push((log.len() as u64, issuance.signed_root));
        self.latest_root.insert(ca, issuance.signed_root);
        let bytes = issuance.to_bytes();
        self.ingress_bytes += bytes.len() as u64;
        self.content.insert(
            ContentKey::Issuance {
                ca,
                version: issuance.signed_root.size,
            },
            bytes.clone(),
        );
        self.content.insert(ContentKey::Latest { ca }, bytes);
        Ok(())
    }

    /// One page of the catch-up replay for an RA holding `have`
    /// consecutive revocations: roughly `limit` serials ending at a
    /// published batch boundary, anchored to the root recorded there.
    /// Returns the page's [`RevocationIssuance`] and how many serials
    /// remain beyond it (`0` = caught up).
    ///
    /// The origin holds no signing key, so it can only anchor pages to
    /// roots the CA actually published: when a single batch alone exceeds
    /// `limit`, that batch is served whole (the limit is soft here; the
    /// CA's own endpoint can synthesize true mid-batch cuts).
    pub fn fetch_page(&self, ca: CaId, have: u64, limit: u32) -> Option<(RevocationIssuance, u64)> {
        let log = self.logs.get(&ca)?;
        let latest = self.latest_root.get(&ca)?;
        let total = log.len() as u64;
        let have = have.min(total);
        if have == total {
            let issuance = RevocationIssuance {
                first_number: have + 1,
                serials: Vec::new(),
                signed_root: *latest,
            };
            return Some((issuance, 0));
        }
        let roots = self.boundary_roots.get(&ca)?;
        let target = have.saturating_add((limit as u64).max(1)).min(total);
        let hi = roots.partition_point(|(end, _)| *end <= target);
        let end = match roots[..hi].last().map(|(e, _)| *e).filter(|e| *e > have) {
            Some(e) => e,
            // No boundary within the limit: serve the enclosing batch whole.
            None => {
                let lo = roots.partition_point(|(e, _)| *e <= have);
                roots.get(lo).map(|(e, _)| *e)?
            }
        };
        let signed_root = if end == total {
            *latest
        } else {
            let i = roots.binary_search_by_key(&end, |(e, _)| *e).ok()?;
            roots[i].1
        };
        let issuance = RevocationIssuance {
            first_number: have + 1,
            serials: log.range(have as usize, end as usize),
            signed_root,
        };
        Some((issuance, total - end))
    }

    /// Publishes a periodic refresh (freshness statement or rotated root).
    ///
    /// # Errors
    ///
    /// See [`PublishError`]. Freshness statements are hash-chain values
    /// whose authenticity RAs check against their signed root; the origin
    /// stores them opaquely.
    pub fn publish_refresh(&mut self, ca: CaId, msg: &RefreshMessage) -> Result<(), PublishError> {
        if !self.keys.contains_key(&ca) {
            return Err(PublishError::UnknownCa);
        }
        let bytes = match msg {
            RefreshMessage::Freshness(f) => {
                let mut b = vec![0u8];
                b.extend_from_slice(&f.to_bytes());
                b
            }
            RefreshMessage::NewRoot(sr) => {
                sr.verify(self.keys.get(&ca).expect("checked above"))
                    .map_err(|_| PublishError::BadSignature)?;
                self.latest_root.insert(ca, *sr);
                let mut b = vec![1u8];
                b.extend_from_slice(&sr.to_bytes());
                b
            }
        };
        self.ingress_bytes += bytes.len() as u64;
        self.content.insert(ContentKey::Freshness { ca }, bytes);
        Ok(())
    }

    /// Publishes a CA's bootstrap manifest (opaque JSON, §VIII).
    pub fn publish_manifest(&mut self, ca: CaId, manifest_bytes: Vec<u8>) {
        self.ingress_bytes += manifest_bytes.len() as u64;
        self.content
            .insert(ContentKey::Manifest { ca }, manifest_bytes);
    }

    /// Publishes arbitrary bytes under a key without CA verification — for
    /// measurement workloads (e.g. the fixed-size revocation messages of the
    /// Fig. 5 download experiment) and tests.
    pub fn publish_raw(&mut self, key: ContentKey, bytes: Vec<u8>) {
        self.ingress_bytes += bytes.len() as u64;
        self.content.insert(key, bytes);
    }

    /// Fetches content (what edge servers call on a cache miss).
    pub fn fetch(&self, key: &ContentKey) -> Option<&[u8]> {
        self.content.get(key).map(Vec::as_slice)
    }

    /// The latest verified signed root for `ca`, if it ever published one
    /// (serves the wire protocol's `GetSignedRoot` and consistency
    /// monitors comparing roots across vantage points).
    pub fn signed_root(&self, ca: &CaId) -> Option<&SignedRoot> {
        self.latest_root.get(ca)
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.content.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::{CaDictionary, SerialNumber};

    fn ca_dict() -> (CaDictionary, StdRng) {
        let mut rng = StdRng::seed_from_u64(3);
        let ca = CaDictionary::new(
            CaId::from_name("OriginCA"),
            SigningKey::from_seed([1u8; 32]),
            10,
            64,
            &mut rng,
            1_000,
        );
        (ca, rng)
    }

    #[test]
    fn publish_and_fetch_issuance() {
        let (mut ca, mut rng) = ca_dict();
        let mut origin = Origin::new();
        origin.register_ca(ca.ca(), ca.verifying_key());
        let iss = ca
            .insert(&[SerialNumber::from_u24(5)], &mut rng, 1_001)
            .unwrap();
        origin.publish_issuance(ca.ca(), &iss).unwrap();
        let got = origin
            .fetch(&ContentKey::Issuance {
                ca: ca.ca(),
                version: 1,
            })
            .unwrap();
        assert_eq!(got, iss.to_bytes());
        assert_eq!(
            origin.fetch(&ContentKey::Latest { ca: ca.ca() }).unwrap(),
            iss.to_bytes()
        );
        assert!(origin.ingress_bytes > 0);
    }

    #[test]
    fn unregistered_ca_rejected() {
        let (mut ca, mut rng) = ca_dict();
        let mut origin = Origin::new();
        let iss = ca
            .insert(&[SerialNumber::from_u24(5)], &mut rng, 1_001)
            .unwrap();
        assert_eq!(
            origin.publish_issuance(ca.ca(), &iss),
            Err(PublishError::UnknownCa)
        );
    }

    #[test]
    fn forged_issuance_rejected() {
        let (mut ca, mut rng) = ca_dict();
        let mut origin = Origin::new();
        // Register the *wrong* key: the genuine CA's signature must fail.
        let other = SigningKey::from_seed([9u8; 32]);
        origin.register_ca(ca.ca(), other.verifying_key());
        let iss = ca
            .insert(&[SerialNumber::from_u24(5)], &mut rng, 1_001)
            .unwrap();
        assert_eq!(
            origin.publish_issuance(ca.ca(), &iss),
            Err(PublishError::BadSignature)
        );
    }

    #[test]
    fn refresh_overwrites_freshness() {
        let (mut ca, mut rng) = ca_dict();
        let mut origin = Origin::new();
        origin.register_ca(ca.ca(), ca.verifying_key());
        let m1 = ca.refresh(&mut rng, 1_010);
        origin.publish_refresh(ca.ca(), &m1).unwrap();
        let first = origin
            .fetch(&ContentKey::Freshness { ca: ca.ca() })
            .unwrap()
            .to_vec();
        let m2 = ca.refresh(&mut rng, 1_020);
        origin.publish_refresh(ca.ca(), &m2).unwrap();
        let second = origin
            .fetch(&ContentKey::Freshness { ca: ca.ca() })
            .unwrap();
        assert_ne!(first, second);
        assert_eq!(origin.object_count(), 1, "freshness key is overwritten");
    }

    #[test]
    fn missing_content_is_none() {
        let origin = Origin::new();
        assert!(origin
            .fetch(&ContentKey::Latest {
                ca: CaId::from_name("X")
            })
            .is_none());
    }
}
