//! The Fig. 6 / Fig. 7 cost model is the wire: an RA following a CA of
//! 20 000 revocations syncs over `Loopback` to an `EdgeService`, and every
//! Δ uploads exactly `bytes_per_pull(b).request` bytes and downloads
//! exactly `bytes_per_pull(b).response`, framing included, for
//! b ∈ {0, 1, 100} new revocations.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{RaConfig, RevocationAgent, SyncPolicy, SyncReport};
use ritm_bench::bytes_per_pull;
use ritm_ca::CertificationAuthority;
use ritm_cdn::{Cdn, EdgeService};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, SerialNumber};
use ritm_net::time::{SimDuration, SimTime};
use ritm_proto::Loopback;

const DELTA: u64 = 10;
const T0: u64 = 1_400_000_000;
/// Revoked before the RA's first sync: a 3-byte varint count.
const BASE: u32 = 20_000;

fn sync(ra: &mut RevocationAgent, cdn: &mut Cdn, now: u64) -> SyncReport {
    let edge = EdgeService::new(cdn, ra.config.region, 1);
    edge.set_now(SimTime::from_secs(now));
    ra.sync_via_with(
        &mut Loopback::new(edge),
        SimTime::from_secs(now),
        &SyncPolicy::default(),
    )
}

#[test]
fn every_delta_moves_the_modelled_bytes() {
    let mut rng = StdRng::seed_from_u64(7);
    let key = SigningKey::from_seed([3u8; 32]);
    let id = CaId::from_name("ModelCA");
    let mut dict = CaDictionary::new(id, key.clone(), DELTA, 1 << 16, &mut rng, T0);
    let genesis = *dict.signed_root();
    let base: Vec<SerialNumber> = (1..=BASE).map(SerialNumber::from_u24).collect();
    let base = dict.insert(&base, &mut rng, T0).unwrap();
    let mut cdn = Cdn::new(SimDuration::ZERO);
    let mut ca = CertificationAuthority::with_engine("ModelCA", key, DELTA, dict, &mut cdn);
    cdn.origin.publish_issuance(id, &base).unwrap();
    ca.set_next_serial(BASE + 1);
    let mut ra = RevocationAgent::new(RaConfig {
        delta: DELTA,
        ..Default::default()
    });
    ra.follow_ca(id, ca.verifying_key(), genesis).unwrap();
    let mut now = T0;
    assert_eq!(
        sync(&mut ra, &mut cdn, now).revocations_applied,
        BASE as u64
    );

    let subject = SigningKey::from_seed([9u8; 32]).verifying_key();
    for b in [0u32, 1, 100, 0] {
        now += DELTA;
        if b == 0 {
            ca.refresh(&mut cdn, &mut rng, now).unwrap();
        } else {
            let serials: Vec<SerialNumber> = (0..b)
                .map(|_| {
                    ca.issue_certificate("r.example", subject, 0, u64::MAX)
                        .serial
                })
                .collect();
            ca.revoke(&serials, &mut cdn, &mut rng, now).unwrap();
        }
        let report = sync(&mut ra, &mut cdn, now);
        assert_eq!(
            (report.revocations_applied, report.rejected),
            (u64::from(b), 0)
        );
        let modelled = bytes_per_pull(u64::from(b));
        assert_eq!(
            report.bytes_uploaded, modelled.request,
            "{b} new revocations: request"
        );
        assert_eq!(
            report.bytes_downloaded, modelled.response,
            "{b} new revocations: response"
        );
        assert_eq!(
            ra.mirror(&id).unwrap().signed_root(),
            ca.dictionary().signed_root()
        );
    }
    assert!(
        bytes_per_pull(0).total() <= 50,
        "an idle Δ costs {:?}",
        bytes_per_pull(0)
    );
}
