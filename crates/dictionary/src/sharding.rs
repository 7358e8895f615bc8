//! Expiry-based dictionary sharding (paper §VIII, "Ever-growing
//! dictionaries").
//!
//! A CA may split revocations across several dictionaries, each dedicated to
//! certificates expiring before a given time. Since the CA/B Forum bounds
//! certificate lifetime (39 months at the time of the paper), RAs can delete
//! a whole shard once every certificate it covers has expired, bounding RA
//! storage without giving up the append-only property *within* each shard.

use crate::dictionary::{CaDictionary, RevocationIssuance};
use crate::root::CaId;
use crate::serial::SerialNumber;
use rand::{RngCore, SeedableRng};
use ritm_crypto::ed25519::SigningKey;
use std::collections::BTreeMap;

/// Seconds per expiry bucket. One quarter keeps the shard count small while
/// letting RAs reclaim space regularly.
pub const DEFAULT_BUCKET_SECS: u64 = 90 * 24 * 3600;

/// A CA maintaining one dictionary per certificate-expiry bucket.
#[derive(Debug)]
pub struct ShardedCa {
    ca: CaId,
    key: SigningKey,
    delta: u64,
    chain_len: u64,
    bucket_secs: u64,
    /// Bucket start time → dictionary for certs expiring within the bucket.
    shards: BTreeMap<u64, CaDictionary>,
}

impl ShardedCa {
    /// Creates a sharded CA. Shards are created lazily on first revocation.
    pub fn new(ca: CaId, key: SigningKey, delta: u64, chain_len: u64, bucket_secs: u64) -> Self {
        assert!(bucket_secs > 0, "bucket size must be positive");
        ShardedCa {
            ca,
            key,
            delta,
            chain_len,
            bucket_secs,
            shards: BTreeMap::new(),
        }
    }

    /// The CA identity shared by all shards (each shard gets a derived id).
    pub fn ca(&self) -> CaId {
        self.ca
    }

    /// Identifier of the shard for a certificate expiring at `expiry`.
    pub fn shard_id(&self, expiry: u64) -> CaId {
        let bucket = self.bucket_of(expiry);
        let mut name = Vec::with_capacity(16);
        name.extend_from_slice(&self.ca.0);
        name.extend_from_slice(&bucket.to_be_bytes());
        let d = ritm_crypto::digest::Digest20::hash(&name);
        let mut id = [0u8; 8];
        id.copy_from_slice(&d.as_bytes()[..8]);
        CaId(id)
    }

    fn bucket_of(&self, expiry: u64) -> u64 {
        expiry / self.bucket_secs
    }

    /// Revokes `serial` for a certificate expiring at `expiry`, routing it
    /// to (and lazily creating) the right shard.
    pub fn revoke<R: RngCore + ?Sized>(
        &mut self,
        serial: SerialNumber,
        expiry: u64,
        rng: &mut R,
        now: u64,
    ) -> Option<(CaId, RevocationIssuance)> {
        let bucket = self.bucket_of(expiry);
        let shard_id = self.shard_id(expiry);
        let delta = self.delta;
        let chain_len = self.chain_len;
        let key = self.key.clone();
        let dict = self
            .shards
            .entry(bucket)
            .or_insert_with(|| CaDictionary::new(shard_id, key, delta, chain_len, rng, now));
        dict.insert(&[serial], rng, now).map(|iss| (shard_id, iss))
    }

    /// Batch-revokes `(serial, expiry)` pairs, routing each to its expiry
    /// bucket and inserting one batch per shard, in bucket order: shards
    /// are independent dictionaries (own tree, own hash chain, own signed
    /// root), so a Heartbleed-scale revocation storm spanning several
    /// buckets costs one insert and one re-signature per shard.
    ///
    /// Missing shards are created first; each shard's insert then runs
    /// with its own RNG seeded from the caller's. Returns the issuances in
    /// bucket order (deterministic; shards where every serial was already
    /// revoked are omitted).
    pub fn revoke_batch_sharded<R: RngCore + ?Sized>(
        &mut self,
        entries: &[(SerialNumber, u64)],
        rng: &mut R,
        now: u64,
    ) -> Vec<(CaId, RevocationIssuance)> {
        let mut by_bucket: BTreeMap<u64, Vec<SerialNumber>> = BTreeMap::new();
        for (serial, expiry) in entries {
            by_bucket
                .entry(self.bucket_of(*expiry))
                .or_default()
                .push(*serial);
        }
        // Missing shards draw their hash chains from the caller's RNG
        // first; the per-shard seeds follow, in bucket order.
        for &bucket in by_bucket.keys() {
            if !self.shards.contains_key(&bucket) {
                let dict = CaDictionary::new(
                    self.shard_id(bucket * self.bucket_secs),
                    self.key.clone(),
                    self.delta,
                    self.chain_len,
                    rng,
                    now,
                );
                self.shards.insert(bucket, dict);
            }
        }
        let mut issued = Vec::new();
        for (bucket, serials) in by_bucket {
            // One RNG per shard, seeded from the caller's stream in bucket
            // order (deterministic given the caller's seed).
            let mut shard_rng = rand::rngs::StdRng::seed_from_u64(rng.next_u64());
            let dict = self.shards.get_mut(&bucket).expect("created above");
            if let Some(iss) = dict.insert(&serials, &mut shard_rng, now) {
                issued.push((dict.ca(), iss));
            }
        }
        issued
    }

    /// Number of live shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total revocations across shards.
    pub fn total_revocations(&self) -> usize {
        self.shards.values().map(CaDictionary::len).sum()
    }

    /// Drops every shard whose bucket ended before `now` — all certificates
    /// it covered have expired, so its revocations are moot (RA-side
    /// reclamation from §VIII).
    ///
    /// Returns the number of shards (and revocations) dropped.
    pub fn prune_expired(&mut self, now: u64) -> (usize, usize) {
        let cutoff = now / self.bucket_secs;
        let expired: Vec<u64> = self.shards.range(..cutoff).map(|(b, _)| *b).collect();
        let mut dropped_revs = 0;
        for b in &expired {
            if let Some(d) = self.shards.remove(b) {
                dropped_revs += d.len();
            }
        }
        (expired.len(), dropped_revs)
    }

    /// Total §VII-D storage across shards.
    pub fn storage_bytes(&self) -> usize {
        self.shards.values().map(CaDictionary::storage_bytes).sum()
    }

    /// Iterates over `(bucket_start, dictionary)` pairs.
    pub fn shards(&self) -> impl Iterator<Item = (&u64, &CaDictionary)> {
        self.shards.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BUCKET: u64 = 100;

    fn sharded() -> (ShardedCa, StdRng) {
        (
            ShardedCa::new(
                CaId::from_name("ShardedCA"),
                SigningKey::from_seed([6u8; 32]),
                10,
                64,
                BUCKET,
            ),
            StdRng::seed_from_u64(11),
        )
    }

    #[test]
    fn routes_by_expiry() {
        let (mut ca, mut rng) = sharded();
        ca.revoke(SerialNumber::from_u24(1), 50, &mut rng, 0);
        ca.revoke(SerialNumber::from_u24(2), 150, &mut rng, 0);
        ca.revoke(SerialNumber::from_u24(3), 160, &mut rng, 0);
        assert_eq!(ca.shard_count(), 2);
        assert_eq!(ca.total_revocations(), 3);
    }

    #[test]
    fn shard_ids_differ_per_bucket_and_ca() {
        let (ca, _) = sharded();
        assert_eq!(ca.shard_id(10), ca.shard_id(90));
        assert_ne!(ca.shard_id(10), ca.shard_id(110));
        let other = ShardedCa::new(
            CaId::from_name("Other"),
            SigningKey::from_seed([7u8; 32]),
            10,
            64,
            BUCKET,
        );
        assert_ne!(ca.shard_id(10), other.shard_id(10));
    }

    #[test]
    fn pruning_drops_expired_buckets_only() {
        let (mut ca, mut rng) = sharded();
        ca.revoke(SerialNumber::from_u24(1), 50, &mut rng, 0); // bucket 0
        ca.revoke(SerialNumber::from_u24(2), 150, &mut rng, 0); // bucket 1
        ca.revoke(SerialNumber::from_u24(3), 250, &mut rng, 0); // bucket 2

        let (shards, revs) = ca.prune_expired(199);
        assert_eq!((shards, revs), (1, 1), "only bucket 0 fully expired");
        assert_eq!(ca.shard_count(), 2);

        let (shards, _) = ca.prune_expired(1_000);
        assert_eq!(shards, 2);
        assert_eq!(ca.total_revocations(), 0);
    }

    #[test]
    fn same_serial_different_shards_allowed() {
        // Serial uniqueness is per dictionary; shards are separate
        // dictionaries.
        let (mut ca, mut rng) = sharded();
        assert!(ca
            .revoke(SerialNumber::from_u24(7), 50, &mut rng, 0)
            .is_some());
        assert!(ca
            .revoke(SerialNumber::from_u24(7), 150, &mut rng, 0)
            .is_some());
        // But within a shard duplicates are rejected.
        assert!(ca
            .revoke(SerialNumber::from_u24(7), 60, &mut rng, 0)
            .is_none());
    }

    #[test]
    fn storage_shrinks_after_prune() {
        let (mut ca, mut rng) = sharded();
        for i in 0..10u32 {
            ca.revoke(SerialNumber::from_u24(i), 50, &mut rng, 0);
        }
        let before = ca.storage_bytes();
        ca.prune_expired(500);
        assert!(ca.storage_bytes() < before);
        assert_eq!(ca.storage_bytes(), 0);
    }

    #[test]
    fn parallel_sharded_batch_matches_sequential_routing() {
        // The same entries applied via revoke_batch_sharded (one batch per
        // shard) and via per-entry revoke must land in the same shards
        // with the same revocations.
        let (mut par, _) = sharded();
        let (mut seq, mut rng_seq) = sharded();
        let entries: Vec<(SerialNumber, u64)> = (0..40u32)
            .map(|i| (SerialNumber::from_u24(i), (i as u64 % 4) * BUCKET + 10))
            .collect();

        let mut rng_par = StdRng::seed_from_u64(11);
        let issued = par.revoke_batch_sharded(&entries, &mut rng_par, 0);
        assert_eq!(issued.len(), 4, "one issuance per touched bucket");

        for (serial, expiry) in &entries {
            seq.revoke(*serial, *expiry, &mut rng_seq, 0);
        }
        assert_eq!(par.shard_count(), seq.shard_count());
        assert_eq!(par.total_revocations(), seq.total_revocations());
        for ((b1, d1), (b2, d2)) in par.shards().zip(seq.shards()) {
            assert_eq!(b1, b2);
            assert_eq!(d1.signed_root().root, d2.signed_root().root, "bucket {b1}");
            assert_eq!(d1.ca(), d2.ca());
        }

        // Re-applying the same serials yields nothing new.
        let again = par.revoke_batch_sharded(&entries, &mut rng_par, 1);
        assert!(again.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_panics() {
        ShardedCa::new(
            CaId::from_name("X"),
            SigningKey::from_seed([1u8; 32]),
            10,
            64,
            0,
        );
    }
}
