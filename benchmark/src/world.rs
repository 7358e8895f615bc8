//! Parameters and builders the workloads share.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{RaConfig, RevocationAgent};
use ritm_crypto::ed25519::{SigningKey, VerifyingKey};
use ritm_dictionary::{
    CaDictionary, CaId, MirrorDictionary, RevocationIssuance, SerialNumber, SignedRoot,
};

/// Dissemination period Δ in seconds (the paper's evaluation value).
pub const DELTA: u64 = 10;

/// Simulated wall-clock origin. Workloads advance it by Δ per write round.
pub const T0: u64 = 1_400_000_000;

/// Hash-chain length `m`: one hour of Δ-periods. Every revocation batch
/// regenerates the chain (`m` SHA-256 calls, ~0.43 µs each here), so a
/// day-long chain (8640) would make each `revoke` ~3.8 ms of hashing and
/// bury the signature, tree and log work the write workloads exist to show.
pub const CHAIN_LEN: u64 = 360;

/// An RA with no mirrors yet, on the benchmark's Δ.
pub fn new_ra() -> RevocationAgent {
    RevocationAgent::new(RaConfig {
        delta: DELTA,
        ..RaConfig::default()
    })
}

/// A CA dictionary populated at dictionary level (no certificates issued),
/// with what an RA needs to mirror it.
pub struct Dictionary {
    pub id: CaId,
    pub signing: SigningKey,
    pub key: VerifyingKey,
    pub genesis: SignedRoot,
    /// The one issuance that carries the whole base population.
    pub base: RevocationIssuance,
    pub dict: CaDictionary,
}

impl Dictionary {
    /// Builds the dictionary of CA `name` over `serials` (distinct).
    /// `key_byte` fixes the CA key; `rng_seed` the hash-chain preimages.
    pub fn build(name: &str, key_byte: u8, serials: &[SerialNumber], rng_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let signing = SigningKey::from_seed([key_byte; 32]);
        let id = CaId::from_name(name);
        let mut dict = CaDictionary::new(id, signing.clone(), DELTA, CHAIN_LEN, &mut rng, T0);
        let genesis = *dict.signed_root();
        let base = dict
            .insert(serials, &mut rng, T0)
            .expect("a non-empty base population");
        assert_eq!(
            base.serials.len(),
            serials.len(),
            "base serials are distinct"
        );
        Dictionary {
            id,
            key: signing.verifying_key(),
            signing,
            genesis,
            base,
            dict,
        }
    }

    /// A fresh mirror holding the base population.
    pub fn mirror(&self) -> MirrorDictionary {
        let mut m = MirrorDictionary::new(self.id, self.key, self.genesis)
            .expect("the genesis root verifies under its own key");
        m.set_delta(DELTA);
        m.apply_issuance(&self.base, T0)
            .expect("the base issuance verifies");
        m
    }

    /// Makes `ra` mirror this dictionary (out of band, as a warm standby
    /// would be seeded) and publish its snapshot for readers.
    pub fn install(&self, ra: &mut RevocationAgent) {
        ra.follow_ca(self.id, self.key, self.genesis)
            .expect("the genesis root verifies under its own key");
        ra.mirror_mut(&self.id)
            .expect("just followed")
            .apply_issuance(&self.base, T0)
            .expect("the base issuance verifies");
    }
}
