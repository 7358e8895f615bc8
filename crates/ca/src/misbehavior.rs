//! A deliberately misbehaving CA for the §V attack experiments.
//!
//! The equivocating CA maintains two divergent dictionary versions of the
//! same size — one that hides a revocation — and shows different versions to
//! different parts of the system. Consistency checking (exchanging latest
//! signed roots) must catch it: two validly-signed roots with equal `n` and
//! different root hashes are transferable proof of misbehavior.

use rand::RngCore;
use ritm_crypto::ed25519::{SigningKey, VerifyingKey};
use ritm_dictionary::{CaDictionary, CaId, RevocationStatus, SerialNumber, SignedRoot};

/// Which view of the equivocating CA a victim is shown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// The honest view: the revocation is present.
    Honest,
    /// The forked view: the target revocation is hidden.
    Hiding,
}

/// A CA running two dictionaries of equal size to hide one revocation.
pub struct EquivocatingCa {
    honest: CaDictionary,
    hiding: CaDictionary,
    target: SerialNumber,
}

impl core::fmt::Debug for EquivocatingCa {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EquivocatingCa")
            .field("ca", &self.honest.ca())
            .field("target", &self.target)
            .finish()
    }
}

impl EquivocatingCa {
    /// Builds the fork: both views revoke `cover` serials (so the sizes
    /// match), but only the honest view revokes `target`.
    ///
    /// `cover` must contain at least one serial; the hiding view substitutes
    /// an extra cover serial for the target to keep `n` identical.
    ///
    /// # Panics
    ///
    /// Panics if `cover` is empty or contains `target`.
    #[allow(clippy::too_many_arguments)] // the fork setup is inherently wide
    pub fn new<R: RngCore + ?Sized>(
        name: &str,
        key: SigningKey,
        delta: u64,
        chain_len: u64,
        target: SerialNumber,
        cover: &[SerialNumber],
        substitute: SerialNumber,
        rng: &mut R,
        now: u64,
    ) -> Self {
        assert!(!cover.is_empty(), "need cover revocations");
        assert!(!cover.contains(&target), "target must not be in cover");
        assert!(
            !cover.contains(&substitute) && substitute != target,
            "substitute must be distinct"
        );
        let id = CaId::from_name(name);
        let mut honest = CaDictionary::new(id, key.clone(), delta, chain_len, rng, now);
        let mut hiding = CaDictionary::new(id, key, delta, chain_len, rng, now);

        let mut honest_batch = cover.to_vec();
        honest_batch.push(target);
        honest
            .insert(&honest_batch, rng, now + 1)
            .expect("cover plus target is a fresh batch");

        let mut hiding_batch = cover.to_vec();
        hiding_batch.push(substitute);
        hiding
            .insert(&hiding_batch, rng, now + 1)
            .expect("cover plus substitute is a fresh batch");

        debug_assert_eq!(honest.len(), hiding.len(), "views must have equal n");
        EquivocatingCa {
            honest,
            hiding,
            target,
        }
    }

    /// The CA id.
    pub fn ca(&self) -> CaId {
        self.honest.ca()
    }

    /// The CA's public key (genuine — both views are validly signed).
    pub fn verifying_key(&self) -> VerifyingKey {
        self.honest.verifying_key()
    }

    /// The serial being hidden from part of the system.
    pub fn target(&self) -> SerialNumber {
        self.target
    }

    /// The signed root a victim in `view` sees.
    pub fn signed_root(&self, view: View) -> SignedRoot {
        match view {
            View::Honest => *self.honest.signed_root(),
            View::Hiding => *self.hiding.signed_root(),
        }
    }

    /// A full revocation status for `serial` as served from `view`.
    pub fn prove(&self, view: View, serial: &SerialNumber, now: u64) -> Option<RevocationStatus> {
        match view {
            View::Honest => self.honest.prove(serial, now),
            View::Hiding => self.hiding.prove(serial, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_dictionary::consistency::{Observation, RootObservatory};

    fn equivocator() -> (EquivocatingCa, StdRng) {
        let mut rng = StdRng::seed_from_u64(13);
        let cover: Vec<SerialNumber> = (10..15u32).map(SerialNumber::from_u24).collect();
        let ca = EquivocatingCa::new(
            "EvilCA",
            SigningKey::from_seed([6u8; 32]),
            10,
            128,
            SerialNumber::from_u24(1),
            &cover,
            SerialNumber::from_u24(99),
            &mut rng,
            1_000,
        );
        (ca, rng)
    }

    #[test]
    fn views_disagree_on_target_only() {
        let (ca, _) = equivocator();
        let target = ca.target();
        let honest = ca
            .prove(View::Honest, &target, 1_002)
            .unwrap()
            .validate(&target, &ca.verifying_key(), 10, 1_002)
            .unwrap();
        assert!(honest.is_revoked(), "honest view shows the revocation");

        let hiding = ca
            .prove(View::Hiding, &target, 1_002)
            .unwrap()
            .validate(&target, &ca.verifying_key(), 10, 1_002)
            .unwrap();
        assert!(!hiding.is_revoked(), "hiding view conceals it");

        // A cover serial agrees in both views.
        let cover = SerialNumber::from_u24(12);
        for view in [View::Honest, View::Hiding] {
            let outcome = ca
                .prove(view, &cover, 1_002)
                .unwrap()
                .validate(&cover, &ca.verifying_key(), 10, 1_002)
                .unwrap();
            assert!(outcome.is_revoked());
        }
    }

    #[test]
    fn both_views_sign_validly_with_equal_size() {
        let (ca, _) = equivocator();
        let a = ca.signed_root(View::Honest);
        let b = ca.signed_root(View::Hiding);
        assert_eq!(a.size, b.size);
        assert_ne!(a.root, b.root);
        assert!(a.verify(&ca.verifying_key()).is_ok());
        assert!(b.verify(&ca.verifying_key()).is_ok());
    }

    #[test]
    fn consistency_check_produces_proof() {
        let (ca, _) = equivocator();
        let mut obs = RootObservatory::new();
        obs.register_ca(ca.ca(), ca.verifying_key());
        assert_eq!(obs.observe(ca.signed_root(View::Honest)), Observation::New);
        match obs.observe(ca.signed_root(View::Hiding)) {
            Observation::Equivocation(proof) => {
                assert!(proof.verify(&ca.verifying_key()));
            }
            other => panic!("expected equivocation proof, got {other:?}"),
        }
    }
}
