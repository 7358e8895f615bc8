//! RA-side consistency monitoring (paper §III "Consistency Checking",
//! §V "Misbehaving CA").
//!
//! An RA periodically compares its locally-stored signed roots against
//! copies downloaded from random edge servers or exchanged with peer RAs.
//! Because dictionaries are append-only, comparing the *latest roots of
//! equal size* suffices: any fork forces the CA to keep signing two
//! divergent versions, which this monitor turns into a transferable
//! [`EquivocationProof`] reported to, e.g., software vendors.

use crate::ra::RevocationAgent;
use ritm_dictionary::consistency::{EquivocationProof, Observation, RootObservatory};
use ritm_dictionary::{CaId, SignedRoot};

/// A misbehavior report ready to hand to a vendor or auditor.
#[derive(Debug, Clone, PartialEq)]
pub struct MisbehaviorReport {
    /// The offending CA.
    pub ca: CaId,
    /// The cryptographic proof.
    pub proof: EquivocationProof,
    /// Where the conflicting root was obtained (free-form: "edge:eu-1",
    /// "peer-ra:203.0.113.7", "client-gossip").
    pub source: String,
}

/// Consistency monitor an RA (or auditor) runs beside its mirrors.
#[derive(Debug, Default)]
pub struct ConsistencyMonitor {
    observatory: RootObservatory,
    reports: Vec<MisbehaviorReport>,
    /// Roots checked so far.
    pub checks: u64,
}

impl ConsistencyMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        ConsistencyMonitor::default()
    }

    /// Registers a CA key so its roots can be validated.
    pub fn register_ca(&mut self, ca: CaId, key: ritm_crypto::ed25519::VerifyingKey) {
        self.observatory.register_ca(ca, key);
    }

    /// Feeds one externally-obtained signed root; returns a report if it
    /// proves equivocation against previous observations.
    pub fn check(&mut self, root: SignedRoot, source: &str) -> Option<MisbehaviorReport> {
        self.checks += 1;
        match self.observatory.observe(root) {
            Observation::Equivocation(proof) => {
                let report = MisbehaviorReport {
                    ca: proof.ca(),
                    proof: *proof,
                    source: source.to_owned(),
                };
                self.reports.push(report.clone());
                Some(report)
            }
            _ => None,
        }
    }

    /// Compares the RA's own mirrors against a peer's roots — the "RAs can
    /// randomly contact … other RAs and compare their locally-stored
    /// statements" procedure. Seeds the observatory with the local view
    /// first so a conflicting peer view is caught.
    pub fn cross_check_with_peer(
        &mut self,
        local: &RevocationAgent,
        peer_roots: &[SignedRoot],
        source: &str,
    ) -> Vec<MisbehaviorReport> {
        let cas: Vec<CaId> = local.followed_cas().copied().collect();
        for ca in cas {
            if let Some(mirror) = local.mirror(&ca) {
                self.check(*mirror.signed_root(), "local-mirror");
            }
        }
        peer_roots
            .iter()
            .filter_map(|r| self.check(*r, source))
            .collect()
    }

    /// Every report collected so far.
    pub fn reports(&self) -> &[MisbehaviorReport] {
        &self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ra::RaConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_ca::misbehavior::{EquivocatingCa, View};
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::SerialNumber;

    fn equivocator() -> EquivocatingCa {
        let mut rng = StdRng::seed_from_u64(41);
        let cover: Vec<SerialNumber> = (10..15u32).map(SerialNumber::from_u24).collect();
        EquivocatingCa::new(
            "EvilCA",
            SigningKey::from_seed([6u8; 32]),
            10,
            128,
            SerialNumber::from_u24(1),
            &cover,
            SerialNumber::from_u24(99),
            &mut rng,
            1_000,
        )
    }

    #[test]
    fn edge_cross_check_catches_fork() {
        let ca = equivocator();
        let mut monitor = ConsistencyMonitor::new();
        monitor.register_ca(ca.ca(), ca.verifying_key());

        // RA's own view is the hiding one; the random edge serves honest.
        assert!(monitor
            .check(ca.signed_root(View::Hiding), "local")
            .is_none());
        let report = monitor
            .check(ca.signed_root(View::Honest), "edge:us-east-1")
            .expect("fork detected");
        assert_eq!(report.ca, ca.ca());
        assert!(report.proof.verify(&ca.verifying_key()));
        assert_eq!(report.source, "edge:us-east-1");
        assert_eq!(monitor.reports().len(), 1);
    }

    #[test]
    fn honest_ca_never_reported() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut dict = ritm_dictionary::CaDictionary::new(
            CaId::from_name("HonestCA"),
            SigningKey::from_seed([2u8; 32]),
            10,
            1 << 10,
            &mut rng,
            1_000,
        );
        let mut monitor = ConsistencyMonitor::new();
        monitor.register_ca(dict.ca(), dict.verifying_key());
        for i in 0..5u32 {
            monitor.check(*dict.signed_root(), "edge");
            dict.insert(&[SerialNumber::from_u24(i)], &mut rng, 1_001 + i as u64)
                .unwrap();
        }
        assert!(monitor.reports().is_empty());
        assert_eq!(monitor.checks, 5);
    }

    #[test]
    fn peer_ra_cross_check() {
        let ca = equivocator();
        // Local RA mirrors... we emulate by seeding a monitor with the
        // hiding root through an RA whose mirror we cannot forge; use the
        // direct path: local sees Hiding, peer sends Honest.
        let local = {
            let mut ra = RevocationAgent::new(RaConfig::default());
            // follow_ca with a non-genesis root fails; the monitor path that
            // matters is the peer comparison, so seed with checks directly.
            let _ = &mut ra;
            ra
        };
        let mut monitor = ConsistencyMonitor::new();
        monitor.register_ca(ca.ca(), ca.verifying_key());
        monitor.check(ca.signed_root(View::Hiding), "local-mirror");
        let reports =
            monitor.cross_check_with_peer(&local, &[ca.signed_root(View::Honest)], "peer-ra:7");
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].source, "peer-ra:7");
    }
}
