//! Quickstart: the whole RITM pipeline in one file, without the packet
//! simulator — CA maintains a dictionary, disseminates over the CDN, an RA
//! mirrors it, and a client validates the RA's proofs.
//!
//! Run with: `cargo run --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm::agent::{RaConfig, RevocationAgent};
use ritm::ca::CertificationAuthority;
use ritm::cdn::network::Cdn;
use ritm::cdn::service::EdgeService;
use ritm::client::{validate_payload, Verdict};
use ritm::crypto::SigningKey;
use ritm::net::time::{SimDuration, SimTime};
use ritm::proto::Loopback;
use std::collections::HashMap;

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    let delta = 10u64; // Δ = 10 s: near-instant revocation
    let now = 1_397_000_000u64;

    // 1. A CA joins RITM: it registers with the CDN's distribution point
    //    and publishes its bootstrap manifest (§VIII).
    let mut cdn = Cdn::new(SimDuration::from_secs(delta));
    let mut ca = CertificationAuthority::new(
        "ExampleCA",
        SigningKey::from_seed([1u8; 32]),
        delta,
        8_640, // one day of freshness periods per hash chain
        &mut cdn,
        &mut rng,
        now,
    );
    println!(
        "CA '{}' online, dictionary genesis signed at t={now}",
        ca.name()
    );

    // 2. The CA issues certificates to two websites.
    let good_key = SigningKey::from_seed([2u8; 32]);
    let good = ca.issue_certificate(
        "good.example",
        good_key.verifying_key(),
        now,
        now + 86_400 * 90,
    );
    let bad_key = SigningKey::from_seed([3u8; 32]);
    let bad = ca.issue_certificate(
        "compromised.example",
        bad_key.verifying_key(),
        now,
        now + 86_400 * 90,
    );
    println!(
        "issued: good.example (serial {}), compromised.example (serial {})",
        good.serial, bad.serial
    );

    // 3. An RA starts mirroring the CA (it learned about it from the
    //    manifest) and pulls from its regional edge server every Δ.
    let mut ra = RevocationAgent::new(RaConfig {
        delta,
        ..Default::default()
    });
    ra.follow_ca(ca.id(), ca.verifying_key(), *ca.dictionary().signed_root())
        .expect("genesis verifies");

    // 4. compromised.example loses its key; the CA revokes within one Δ.
    ca.revoke(&[bad.serial], &mut cdn, &mut rng, now + 3)
        .expect("revocation accepted");
    // The RA speaks the versioned wire protocol: here the regional edge is
    // exposed as an in-process service behind a loopback transport (the
    // same envelopes travel a simulated path or a real TCP socket).
    let report = {
        let edge = EdgeService::new(&mut cdn, ra.config.region, 7);
        edge.set_now(SimTime::from_secs(now + delta));
        let mut transport = Loopback::new(edge);
        ra.sync_via(&mut transport, SimTime::from_secs(now + delta))
    };
    println!(
        "RA pulled {} envelope bytes from the CDN in {:.3}s: {} new revocation(s)",
        report.bytes_downloaded,
        report.latency.as_secs_f64(),
        report.revocations_applied,
    );

    // 5. Clients connecting through the RA receive proofs piggybacked on
    //    the TLS handshake and validate them against the CA's key alone.
    let mut ca_keys = HashMap::new();
    ca_keys.insert(ca.id(), ca.verifying_key());
    let check_time = now + delta + 1;

    for cert in [&good, &bad] {
        let chain = [(ca.id(), cert.serial)];
        let payload = ra
            .status_server()
            .build_status(&chain, true)
            .expect("CA is mirrored");
        println!(
            "status for {} is {} bytes on the wire",
            cert.subject,
            payload.to_bytes().len()
        );
        let verdict = validate_payload(&payload, &chain, &ca_keys, delta, check_time);
        match &verdict {
            Ok(Verdict::AllValid) => println!("  -> {}: fresh absence proof, ACCEPT", cert.subject),
            Ok(Verdict::Revoked { number, .. }) => {
                println!(
                    "  -> {}: REVOKED (revocation #{number}), connection refused",
                    cert.subject
                )
            }
            Err(e) => println!("  -> {}: status rejected ({e})", cert.subject),
        }
        let revoked = matches!(verdict, Ok(Verdict::Revoked { .. }));
        assert_eq!(revoked, cert.serial == bad.serial, "{verdict:?}");
        assert!(verdict.is_ok(), "{verdict:?}");
    }
}
