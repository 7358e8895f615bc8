//! Table III: detailed processing time (µs) of every RITM operation on the
//! TLS fast path, 500 repetitions each, plus the §VII-D dictionary-update
//! timings and the derived throughput numbers.
//!
//! | entity | operation                  | paper avg (µs) |
//! |--------|----------------------------|----------------|
//! | RA     | TLS detection (DPI)        | 2.93           |
//! | RA     | certificate parsing (DPI)  | 19.95          |
//! | RA     | proof construction         | 67.17          |
//! | client | proof validation           | 54.51          |
//! | client | sig. + freshness valid.    | 197.27         |

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_bench::{print_table, stats};
use ritm_crypto::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};
use ritm_tls::certificate::{Certificate, CertificateChain};
use ritm_tls::handshake::{HandshakeMessage, ServerHello};
use ritm_tls::record::{ContentType, TlsRecord};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 500;
const T0: u64 = 1_397_000_000;
const DELTA: u64 = 10;
/// The largest observed CRL (the paper benchmarks against it).
const DICT_SIZE: u32 = 339_557;

fn time_op<F: FnMut()>(mut f: F) -> Vec<f64> {
    for _ in 0..20 {
        f(); // warm-up
    }
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let ca_key = SigningKey::from_seed([1u8; 32]);

    eprintln!("building a {DICT_SIZE}-entry dictionary (largest observed CRL)...");
    let mut ca = CaDictionary::new(
        CaId::from_name("T3CA"),
        ca_key.clone(),
        DELTA,
        1 << 10,
        &mut rng,
        T0,
    );
    let genesis = *ca.signed_root();
    let serials: Vec<SerialNumber> = (0..DICT_SIZE).map(SerialNumber::from_u24).collect();
    let iss = ca.insert(&serials, &mut rng, T0 + 1).expect("insert");
    let mut mirror = MirrorDictionary::new(ca.ca(), ca.verifying_key(), genesis).expect("genesis");
    mirror.set_delta(DELTA);
    mirror
        .apply_issuance(&iss, T0 + 1)
        .expect("mirror catches up");

    // --- RA: TLS detection (per-packet classify on non-handshake traffic).
    let app_record = TlsRecord::new(ContentType::ApplicationData, vec![0x17; 1_200]).to_bytes();
    let http = b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n".to_vec();
    let detection = time_op(|| {
        black_box(ritm_agent::dpi::classify(black_box(&app_record)));
        black_box(ritm_agent::dpi::classify(black_box(&http)));
    });

    // --- RA: certificate parsing — a 3-cert chain, "the most common
    //     number" per the paper.
    let inter_key = SigningKey::from_seed([2u8; 32]);
    let leaf_key = SigningKey::from_seed([3u8; 32]);
    let root_cert = Certificate::issue(
        &ca_key,
        ca.ca(),
        SerialNumber::from_u24(0xfffff0),
        "T3CA",
        T0 - 100,
        T0 + 1_000_000,
        ca_key.verifying_key(),
        true,
    );
    let inter = Certificate::issue(
        &ca_key,
        ca.ca(),
        SerialNumber::from_u24(0xfffff1),
        "Inter",
        T0 - 100,
        T0 + 1_000_000,
        inter_key.verifying_key(),
        true,
    );
    let leaf = Certificate::issue(
        &inter_key,
        CaId::from_name("Inter"),
        SerialNumber::from_u24(0x123456),
        "example.com",
        T0 - 100,
        T0 + 1_000_000,
        leaf_key.verifying_key(),
        false,
    );
    let flight = TlsRecord::new(
        ContentType::Handshake,
        HandshakeMessage::encode_all(&[
            HandshakeMessage::ServerHello(ServerHello {
                version: 0x0303,
                random: [7u8; 32],
                session_id: vec![1; 32],
                cipher_suite: 0xc02f,
                extensions: vec![],
            }),
            HandshakeMessage::Certificate(CertificateChain(vec![leaf, inter, root_cert])),
            HandshakeMessage::ServerHelloDone,
        ]),
    )
    .to_bytes();
    let parsing = time_op(|| {
        black_box(ritm_agent::dpi::classify(black_box(&flight)));
    });

    // --- RA: proof construction over the full-size dictionary.
    let query = SerialNumber::from_u24(0xabcdef); // not revoked → absence proof
    let construction = time_op(|| {
        black_box(mirror.prove(black_box(&query)));
    });

    // --- Client: proof validation (path recomputation only). The query
    //     sorts above every serial (0 .. DICT_SIZE), so its absence proof
    //     is the last leaf and its one audit path.
    let status = mirror.prove(&query);
    let validation = time_op(|| {
        black_box(
            status
                .proof
                .verify(&query, &status.signed_root.root, status.signed_root.size)
                .expect("valid proof"),
        );
    });

    // --- Client: signature + freshness validation.
    let vk = ca.verifying_key();
    let sig_fresh = time_op(|| {
        status.signed_root.verify(&vk).expect("valid signature");
        status
            .freshness
            .verify(&status.signed_root, DELTA, T0 + 2)
            .expect("fresh");
    });

    println!(
        "Table III: detailed processing time in µs ({REPS} reps, {DICT_SIZE}-entry dictionary)"
    );
    println!();
    let rows: Vec<Vec<String>> = [
        ("RA", "TLS detection (DPI)", &detection, 2.93),
        ("RA", "certificate parsing (DPI)", &parsing, 19.95),
        ("RA", "proof construction", &construction, 67.17),
        ("client", "proof validation", &validation, 54.51),
        ("client", "sig. + freshness valid.", &sig_fresh, 197.27),
    ]
    .iter()
    .map(|(entity, op, samples, paper)| {
        let s = stats(samples);
        vec![
            entity.to_string(),
            op.to_string(),
            format!("{:.2}", s.max),
            format!("{:.2}", s.min),
            format!("{:.2}", s.mean),
            format!("{paper:.2}"),
        ]
    })
    .collect();
    print_table(
        &["entity", "operation", "max", "min", "avg", "paper avg"],
        &rows,
    );

    // --- §VII-D: dictionary update with 1,000 new revocations (CA insert /
    //     RA update+verify), on the average-size dictionary (5,440 entries).
    println!();
    println!("§VII-D: dictionary update with 1,000 new revocations (ms), avg-size dictionary");
    let mut ins_samples = Vec::new();
    let mut upd_samples = Vec::new();
    for rep in 0..20 {
        let mut ca2 = CaDictionary::new(
            CaId::from_name("AvgCA"),
            SigningKey::from_seed([9u8; 32]),
            DELTA,
            1 << 10,
            &mut rng,
            T0,
        );
        let genesis2 = *ca2.signed_root();
        let base: Vec<SerialNumber> = (0..5_440u32)
            .map(|i| SerialNumber::from_u24(i * 7 + rep))
            .collect();
        let iss0 = ca2.insert(&base, &mut rng, T0 + 1).expect("base insert");
        let mut m2 = MirrorDictionary::new(ca2.ca(), ca2.verifying_key(), genesis2).unwrap();
        m2.set_delta(DELTA);
        m2.apply_issuance(&iss0, T0 + 1).unwrap();

        let batch: Vec<SerialNumber> = (0..1_000u32)
            .map(|i| SerialNumber::from_u24(0x800000 + i * 3 + rep))
            .collect();
        let t = Instant::now();
        let iss1 = ca2.insert(&batch, &mut rng, T0 + 2).expect("batch insert");
        ins_samples.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        m2.apply_issuance(&iss1, T0 + 2).expect("batch update");
        upd_samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let ins = stats(&ins_samples);
    let upd = stats(&upd_samples);
    println!(
        "  CA insert(1000): max {:.2} / min {:.2} / avg {:.2}   (paper: 3.88/2.75/2.93)",
        ins.max, ins.min, ins.mean
    );
    println!(
        "  RA update(1000): max {:.2} / min {:.2} / avg {:.2}   (paper: 5.87/2.62/2.84)",
        upd.max, upd.min, upd.mean
    );

    // --- Incremental engine summary: batch apply vs full rebuild, on the
    //     same largest-CRL dictionary.
    println!();
    println!("incremental dictionary engine ({DICT_SIZE}-entry dictionary):");
    {
        use ritm_dictionary::tree::{Leaf, MerkleTree};
        use ritm_dictionary::PersistentTree;
        let leaves: Vec<Leaf> = (0..DICT_SIZE)
            .map(|i| Leaf::new(SerialNumber::from_u24(i * 2), i as u64 + 1))
            .collect();
        let batch: Vec<Leaf> = (0..100u32)
            .map(|i| {
                Leaf::new(
                    SerialNumber::from_u24(DICT_SIZE * 2 + 1 + i),
                    (DICT_SIZE + i) as u64 + 1,
                )
            })
            .collect();
        let base = PersistentTree::from_sorted_leaves(leaves.iter().copied());

        let reps = 10;
        let mut full = Vec::new();
        let mut incr = Vec::new();
        for _ in 0..reps {
            let started = Instant::now();
            black_box(MerkleTree::from_leaves(leaves.iter().chain(&batch).copied()).root());
            full.push(started.elapsed().as_secs_f64() * 1e3);

            let mut t = base.clone();
            let started = Instant::now();
            t.apply_sorted_batch(&batch);
            incr.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let full_ms = stats(&full).mean;
        let incr_ms = stats(&incr).mean;
        println!(
            "  apply 100-serial batch: full rebuild {:.3} ms, incremental {:.4} ms  ({:.0}x speedup)",
            full_ms,
            incr_ms,
            full_ms / incr_ms.max(1e-9)
        );
    }

    // --- Derived throughput (§VII-D).
    println!();
    let det = stats(&detection).mean;
    let hs = stats(&parsing).mean + stats(&construction).mean + det;
    let val = stats(&validation).mean + stats(&sig_fresh).mean;
    println!("derived throughput:");
    println!(
        "  RA non-TLS packets/s:          {:>12.0}   (paper: >340,000)",
        1e6 / det * 2.0 // time_op classified two packets per rep
    );
    println!(
        "  RA RITM handshakes/s:          {:>12.0}   (paper: >50,000)",
        1e6 / hs
    );
    println!(
        "  client status validations/s:   {:>12.0}   (paper: ~4,000)",
        1e6 / val
    );
    println!();
    println!(
        "RITM adds ~{:.0} µs client-side per handshake — <1% of a ~30 ms TLS handshake",
        val
    );
}
