//! Integration tests for the dissemination pipeline (§III, Fig. 1):
//! multiple CAs publishing through one CDN, RAs in different regions
//! converging, catch-up after partitions, and the cost ledger.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm::agent::{RaConfig, RevocationAgent, SyncReport};
use ritm::ca::CertificationAuthority;
use ritm::cdn::network::Cdn;
use ritm::cdn::regions::Region;
use ritm::cdn::service::EdgeService;
use ritm::crypto::SigningKey;
use ritm::dictionary::SerialNumber;
use ritm::net::time::{SimDuration, SimTime};
use ritm::proto::Loopback;

const T0: u64 = 1_397_000_000;
const DELTA: u64 = 10;

fn make_ca(name: &str, seed: u8, cdn: &mut Cdn, rng: &mut StdRng) -> CertificationAuthority {
    CertificationAuthority::new(
        name,
        SigningKey::from_seed([seed; 32]),
        DELTA,
        1 << 12,
        cdn,
        rng,
        T0,
    )
}

fn make_ra(region: Region, cas: &[&CertificationAuthority]) -> RevocationAgent {
    let mut ra = RevocationAgent::new(RaConfig {
        delta: DELTA,
        region,
    });
    for ca in cas {
        ra.follow_ca(ca.id(), ca.verifying_key(), *ca.dictionary().signed_root())
            .expect("bootstrap");
    }
    ra
}

/// One sync pass over the wire protocol (borrowed edge service behind an
/// in-process loopback transport).
fn sync(ra: &mut RevocationAgent, cdn: &mut Cdn, now: u64) -> SyncReport {
    let service = EdgeService::new(&mut *cdn, ra.config.region, 7);
    service.set_now(SimTime::from_secs(now));
    let mut transport = Loopback::new(service);
    ra.sync_via(&mut transport, SimTime::from_secs(now))
}

fn revoke_fresh(
    ca: &mut CertificationAuthority,
    n: u32,
    cdn: &mut Cdn,
    rng: &mut StdRng,
    now: u64,
) -> Vec<SerialNumber> {
    let key = SigningKey::from_seed([99u8; 32]).verifying_key();
    let serials: Vec<SerialNumber> = (0..n)
        .map(|i| {
            ca.issue_certificate(&format!("s{i}.x"), key, 0, u64::MAX)
                .serial
        })
        .collect();
    ca.revoke(&serials, cdn, rng, now)
        .expect("revocation accepted");
    serials
}

#[test]
fn regional_ras_converge_on_multiple_cas() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut cdn = Cdn::new(SimDuration::from_secs(DELTA));
    let mut ca1 = make_ca("CA-One", 1, &mut cdn, &mut rng);
    let mut ca2 = make_ca("CA-Two", 2, &mut cdn, &mut rng);

    let mut ras: Vec<RevocationAgent> = [Region::Europe, Region::AsiaPacific, Region::SouthAmerica]
        .into_iter()
        .map(|r| make_ra(r, &[&ca1, &ca2]))
        .collect();

    revoke_fresh(&mut ca1, 50, &mut cdn, &mut rng, T0 + 1);
    revoke_fresh(&mut ca2, 30, &mut cdn, &mut rng, T0 + 2);

    for ra in &mut ras {
        let report = sync(ra, &mut cdn, T0 + 3);
        assert_eq!(report.revocations_applied, 80);
        assert_eq!(ra.mirror(&ca1.id()).unwrap().len(), 50);
        assert_eq!(ra.mirror(&ca2.id()).unwrap().len(), 30);
        assert_eq!(
            ra.mirror(&ca1.id()).unwrap().signed_root(),
            ca1.dictionary().signed_root()
        );
    }
    // All three regions were billed.
    assert!(cdn.ledger.bytes_in(Region::Europe) > 0);
    assert!(cdn.ledger.bytes_in(Region::AsiaPacific) > 0);
    assert!(cdn.ledger.bytes_in(Region::SouthAmerica) > 0);
}

#[test]
fn edge_caching_collapses_same_region_pulls() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut cdn = Cdn::new(SimDuration::from_secs(60));
    let mut ca = make_ca("CacheCA", 3, &mut cdn, &mut rng);
    // 20 RAs in the same region bootstrap from genesis, then the CA revokes.
    let mut ras: Vec<RevocationAgent> = (0..20).map(|_| make_ra(Region::Europe, &[&ca])).collect();
    revoke_fresh(&mut ca, 10, &mut cdn, &mut rng, T0 + 1);
    for ra in &mut ras {
        sync(ra, &mut cdn, T0 + 2);
    }
    let edge = cdn.edge(Region::Europe);
    assert!(
        edge.hit_ratio() > 0.9,
        "edge must absorb same-region pulls (hit ratio {})",
        edge.hit_ratio()
    );
    // Origin transferred each object roughly once.
    assert!(edge.origin_bytes < edge.served_bytes / 5);
}

#[test]
fn partitioned_ra_catches_up() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut cdn = Cdn::new(SimDuration::from_secs(DELTA));
    let mut ca = make_ca("PartCA", 4, &mut cdn, &mut rng);
    let mut ra = make_ra(Region::Europe, &[&ca]);

    // RA sees the first batch.
    revoke_fresh(&mut ca, 5, &mut cdn, &mut rng, T0 + 1);
    sync(&mut ra, &mut cdn, T0 + 2);
    assert_eq!(ra.mirror(&ca.id()).unwrap().len(), 5);

    // Network partition: RA misses three more batches.
    for k in 0..3u64 {
        revoke_fresh(&mut ca, 7, &mut cdn, &mut rng, T0 + 10 + k);
    }

    // Reconnect: a single pull repairs the gap, all three batches in one
    // update under the CA's current root.
    let report = sync(&mut ra, &mut cdn, T0 + 20);
    assert_eq!(ra.mirror(&ca.id()).unwrap().len(), 26);
    assert_eq!(
        (report.issuances_applied, report.revocations_applied),
        (1, 21)
    );
    assert_eq!(
        ra.mirror(&ca.id()).unwrap().signed_root(),
        ca.dictionary().signed_root()
    );
}

#[test]
fn proofs_from_synced_mirror_validate_for_all_queries() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut cdn = Cdn::new(SimDuration::from_secs(DELTA));
    let mut ca = make_ca("ProofCA", 5, &mut cdn, &mut rng);
    let mut ra = make_ra(Region::NorthAmerica, &[&ca]);
    let revoked = revoke_fresh(&mut ca, 100, &mut cdn, &mut rng, T0 + 1);
    sync(&mut ra, &mut cdn, T0 + 2);

    // Every revoked serial proves present; fresh serials prove absent.
    let mirror = ra.mirror(&ca.id()).unwrap();
    for s in revoked.iter().take(20) {
        let outcome = mirror
            .prove(s)
            .validate(s, &ca.verifying_key(), DELTA, T0 + 3)
            .expect("validates");
        assert!(outcome.is_revoked());
    }
    for v in [0x500000u32, 0x600000, 0x700000] {
        let s = SerialNumber::from_u24(v);
        let outcome = mirror
            .prove(&s)
            .validate(&s, &ca.verifying_key(), DELTA, T0 + 3)
            .expect("validates");
        assert!(!outcome.is_revoked());
    }
}

#[test]
fn ledger_bills_what_ras_download() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut cdn = Cdn::new(SimDuration::ZERO); // no caching: every byte billed
    let mut ca = make_ca("BillCA", 6, &mut cdn, &mut rng);
    let mut ra = make_ra(Region::Japan, &[&ca]);
    revoke_fresh(&mut ca, 1000, &mut cdn, &mut rng, T0 + 1);
    let report = sync(&mut ra, &mut cdn, T0 + 2);
    // The ledger bills the content bytes the edge served; the report counts
    // full envelope bytes (the length prefix too), so it exceeds the bill
    // by a small bounded per-response overhead.
    assert!(report.bytes_downloaded > cdn.ledger.total_bytes());
    assert!(report.bytes_downloaded < cdn.ledger.total_bytes() + 64);
    assert!(cdn.ledger.bandwidth_cost_usd() > 0.0);
    assert_eq!(cdn.ledger.total_requests(), 1, "one pull");
}
