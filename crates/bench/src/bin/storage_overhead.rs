//! §VII-D storage overhead: bytes an RA needs to *store* the revocation
//! data versus the memory needed to *build and keep* all dictionaries, for
//! the full ISC dataset (1,381,992 revocations across 254 dictionaries) and
//! for the 10-million-revocation projection.
//!
//! Paper: "the storage overhead is slightly above 4 MB and the memory ...
//! is 36 MB (for 10 million revocations this overhead is 30 MB and 260 MB)".
//!
//! Then the CA's crash recovery at the dataset's size: the wall time of
//! `CaDictionary::replay` over its 1,381,992 revocations logged as
//! 100-serial issuance records, every signature, number and intermediate
//! root checked.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_bench::print_table;
use ritm_crypto::SigningKey;
use ritm_dictionary::{
    CaDictionary, CaId, MirrorDictionary, RevocationIssuance, SerialNumber, MAX_BATCH,
};
use ritm_workloads::isc::IscDataset;
use std::time::Instant;

const T0: u64 = 1_397_000_000;

/// Builds every dictionary of the dataset (scaled by `scale`), mirrors it as
/// an RA does, and sums the mirrors' storage/memory metrics. 3-byte serials
/// per the paper's analysis setting.
fn measure(scale: f64) -> (usize, usize, u64) {
    let mut rng = StdRng::seed_from_u64(9);
    let dataset = IscDataset::synthesize();
    let mut storage = 0usize;
    let mut memory = 0usize;
    let mut total = 0u64;
    let mut next_serial = 0u32;
    for (i, &size) in dataset.sizes.iter().enumerate() {
        let n = ((size as f64 * scale).round() as u64).max(1);
        let mut ca = CaDictionary::new(
            CaId::from_name(&format!("CA{i}")),
            SigningKey::from_seed([i as u8; 32]),
            10,
            1 << 8,
            &mut rng,
            T0,
        );
        let serials: Vec<SerialNumber> = (0..n)
            .map(|_| {
                next_serial = next_serial.wrapping_add(1);
                SerialNumber::from_u24(next_serial)
            })
            .collect();
        let mut mirror = MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root())
            .expect("genesis root");
        // The 10-million projection's largest CRL exceeds one batch.
        for batch in serials.chunks(MAX_BATCH) {
            let issuance = ca.insert(batch, &mut rng, T0 + 1).expect("fresh serials");
            mirror
                .apply_issuance(&issuance, T0 + 1)
                .expect("the CA's own issuance");
        }
        storage += mirror.storage_bytes();
        memory += mirror.memory_bytes();
        total += mirror.len() as u64;
    }
    (storage, memory, total)
}

/// Seconds `CaDictionary::replay` takes over `total` 3-byte revocations
/// issued in 100-serial records, and how many records that was.
fn replay_seconds(total: u32) -> (f64, usize) {
    let mut rng = StdRng::seed_from_u64(9);
    let key = SigningKey::from_seed([7; 32]);
    let ca_id = CaId::from_name("ReplayCA");
    let mut ca = CaDictionary::new(ca_id, key.clone(), 10, 1 << 8, &mut rng, T0);
    // An odd multiplier is a bijection on 24 bits: distinct, scattered.
    let serials: Vec<SerialNumber> = (0..total)
        .map(|i| SerialNumber::from_u24(i.wrapping_mul(0x9e_3779)))
        .collect();
    let records: Vec<RevocationIssuance> = serials
        .chunks(100)
        .map(|batch| ca.insert(batch, &mut rng, T0 + 1).expect("fresh serials"))
        .collect();
    let started = Instant::now();
    let replayed = CaDictionary::replay(ca_id, key, 10, 1 << 8, &records, &mut rng, T0 + 2)
        .expect("the CA's own log");
    let seconds = started.elapsed().as_secs_f64();
    assert_eq!(replayed.signed_root().root, ca.signed_root().root);
    (seconds, records.len())
}

fn main() {
    println!("§VII-D storage/memory overhead at an RA (3-byte serials, 254 dictionaries)");
    println!();
    let mut rows = Vec::new();
    // Full ISC dataset.
    let (storage, memory, total) = measure(1.0);
    rows.push(vec![
        format!("{total}"),
        format!("{:.1}", storage as f64 / 1e6),
        format!("{:.1}", memory as f64 / 1e6),
        "4 / 36".into(),
    ]);
    // 10-million-revocation projection (scale the same shape up ~7.24x).
    let scale = 10_000_000.0 / total as f64;
    let (storage10, memory10, total10) = measure(scale);
    rows.push(vec![
        format!("{total10}"),
        format!("{:.1}", storage10 as f64 / 1e6),
        format!("{:.1}", memory10 as f64 / 1e6),
        "30 / 260".into(),
    ]);
    print_table(
        &[
            "revocations",
            "storage (MB)",
            "memory (MB)",
            "paper storage/mem (MB)",
        ],
        &rows,
    );
    println!();
    println!(
        "shape: both metrics linear in revocations (x{:.2} revocations -> x{:.2} storage, x{:.2} memory)",
        total10 as f64 / total as f64,
        storage10 as f64 / storage as f64,
        memory10 as f64 / memory as f64,
    );
    println!("note: our storage includes an 8-byte revocation number per entry, and our");
    println!("memory keeps each serial once in a packed log and a crit-bit trie that stores");
    println!("a node's digest only above 4 leaves (leaf hashes and the rest are hashed on");
    println!("demand); constants differ, scaling matches (README, Substitutions)");

    println!();
    let (seconds, records) = replay_seconds(total as u32);
    print_table(
        &["CA replay", "records", "wall time (s)", "bound (s)"],
        &[vec![
            format!("{total} revocations"),
            format!("{records} x 100 serials"),
            format!("{seconds:.1}"),
            "60".into(),
        ]],
    );
}
