//! The CDN origin (the paper's "distribution point", Fig. 1).
//!
//! CAs publish revocation issuances and freshness statements here under
//! versioned keys; edge servers pull on demand. The origin verifies CA
//! signatures before accepting content (§III: "The distribution point
//! verifies this message and initiates the dissemination process").

use ritm_crypto::ed25519::VerifyingKey;
use ritm_dictionary::{
    issuance_page, CaId, FreshnessStatement, RefreshMessage, RevocationIssuance, SerialLog,
    SignedRoot,
};
use std::collections::HashMap;

/// Decodes a stored refresh object (tag byte + body), the form
/// [`Origin::publish_refresh`] stores it in.
fn decode_refresh(bytes: &[u8]) -> Option<RefreshMessage> {
    let (tag, body) = bytes.split_first()?;
    match tag {
        0 => FreshnessStatement::from_bytes(body)
            .ok()
            .map(RefreshMessage::Freshness),
        1 => SignedRoot::from_bytes(body)
            .ok()
            .map(RefreshMessage::NewRoot),
        _ => None,
    }
}

/// Content key addressing one CA's dissemination feed.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContentKey {
    /// The issuance batch that brought the dictionary to `version` (`n`).
    /// The origin keeps no per-batch objects (its feed serves every
    /// batch); measurement workloads publish their own under this key
    /// with [`Origin::publish_raw`].
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
    /// The `/RITM.json` bootstrap manifest (§VIII).
    Manifest {
        /// CA whose manifest this is.
        ca: CaId,
    },
    /// The answer to a conditional pull from an RA holding `have`
    /// revocations (§III sync), at most `limit` to a page, while the CA's
    /// feed is at `version` ([`Origin::feed_version`]): built by the origin
    /// per request, cached by edges like any object — and never served
    /// once the CA publishes again, since the key then changes.
    Pull {
        /// CA whose feed is pulled.
        ca: CaId,
        /// Consecutive revocations the RA holds.
        have: u64,
        /// The page limit asked for.
        limit: u32,
        /// The feed's version when the answer was built.
        version: u64,
    },
}

/// Why the origin refused a publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishError {
    /// CA not registered with the distribution point.
    UnknownCa,
    /// The signed root in the message did not verify.
    BadSignature,
    /// A validly signed batch that does not continue the CA's published
    /// log: its first revocation number is not the next one.
    OutOfOrder {
        /// The revocation number the next batch must start at.
        expected: u64,
        /// The number this batch starts at.
        got: u64,
    },
}

impl core::fmt::Display for PublishError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PublishError::UnknownCa => f.write_str("CA not registered at distribution point"),
            PublishError::BadSignature => f.write_str("issuance signature rejected by origin"),
            PublishError::OutOfOrder { expected, got } => write!(
                f,
                "issuance batch starts at revocation {got}, origin expected {expected}"
            ),
        }
    }
}

impl std::error::Error for PublishError {}

/// One CA's issuance feed at the origin: every serial once, by revocation
/// number (packed, as the dictionaries hold theirs), and the signed root
/// published at each batch boundary.
#[derive(Debug, Default)]
struct Feed {
    log: SerialLog,
    /// `(end_count, signed_root)` per published batch, ascending.
    batch_roots: Vec<(u64, SignedRoot)>,
    /// Publishes so far, issuances and refreshes alike.
    version: u64,
}

/// The origin store.
#[derive(Debug, Default)]
pub struct Origin {
    keys: HashMap<CaId, VerifyingKey>,
    content: HashMap<ContentKey, Vec<u8>>,
    /// Each CA's issuance feed — what lets the origin answer the pulls of
    /// the paper's synchronization protocol ("the RA contacts an edge
    /// server specifying the number of valid consecutive revocations it
    /// has observed", §III).
    feeds: HashMap<CaId, Feed>,
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

    /// Publishes a revocation issuance, after verifying the CA's signature:
    /// appends it to the CA's feed.
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
        let feed = self.feeds.entry(ca).or_default();
        let expected = feed.log.len() as u64 + 1;
        if issuance.first_number != expected {
            // A CA must publish batches in order; anything else is a bug or
            // an equivocation attempt and is refused.
            return Err(PublishError::OutOfOrder {
                expected,
                got: issuance.first_number,
            });
        }
        feed.log.extend(&issuance.serials);
        feed.version += 1;
        feed.batch_roots
            .push((feed.log.len() as u64, issuance.signed_root));
        self.latest_root.insert(ca, issuance.signed_root);
        self.ingress_bytes += issuance.encoded_len() as u64;
        Ok(())
    }

    /// One page of `ca`'s feed for an RA holding `have` consecutive
    /// revocations, under the feed's one page rule
    /// ([`ritm_dictionary::issuance_page`]: whole batches, each under the
    /// root the CA published for it). Returns the page and how many serials
    /// remain beyond it (`0` = caught up); `None` before the CA's first
    /// publish.
    pub fn fetch_page(&self, ca: CaId, have: u64, limit: u32) -> Option<(RevocationIssuance, u64)> {
        let feed = self.feeds.get(&ca)?;
        let latest = self.latest_root.get(&ca)?;
        Some(issuance_page(
            &feed.log,
            &feed.batch_roots,
            *latest,
            have,
            limit,
        ))
    }

    /// How many times `ca` has published an issuance or a refresh: what
    /// an answer built from its feed is current for.
    pub fn feed_version(&self, ca: CaId) -> u64 {
        self.feeds.get(&ca).map_or(0, |f| f.version)
    }

    /// The CA's current refresh message, as last published.
    pub fn refresh(&self, ca: CaId) -> Option<RefreshMessage> {
        decode_refresh(self.fetch(&ContentKey::Freshness { ca })?)
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
        self.feeds.entry(ca).or_default().version += 1;
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
    #[cfg(test)]
    fn object_count(&self) -> usize {
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
        // The batch lives in the feed only: no stored object at all.
        assert_eq!(origin.fetch_page(ca.ca(), 0, 64), Some((iss.clone(), 0)));
        let by_version = ContentKey::Issuance {
            ca: ca.ca(),
            version: 1,
        };
        assert!(origin.fetch(&by_version).is_none());
        assert_eq!(origin.object_count(), 0);
        // Ingress counts the batch's encoding, as a CA uploads it.
        assert_eq!(origin.ingress_bytes, iss.to_bytes().len() as u64);
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
    fn out_of_order_batch_is_not_a_forgery() {
        let (mut ca, mut rng) = ca_dict();
        let mut origin = Origin::new();
        origin.register_ca(ca.ca(), ca.verifying_key());
        let first = ca
            .insert(&[SerialNumber::from_u24(5)], &mut rng, 1_001)
            .unwrap();
        let second = ca
            .insert(&[SerialNumber::from_u24(6)], &mut rng, 1_002)
            .unwrap();
        let err = origin.publish_issuance(ca.ca(), &second).unwrap_err();
        assert_eq!(
            err,
            PublishError::OutOfOrder {
                expected: 1,
                got: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "issuance batch starts at revocation 2, origin expected 1"
        );
        // Nothing was stored, so the batches still publish in order.
        origin.publish_issuance(ca.ca(), &first).unwrap();
        origin.publish_issuance(ca.ca(), &second).unwrap();
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
            .fetch(&ContentKey::Manifest {
                ca: CaId::from_name("X")
            })
            .is_none());
    }
}
