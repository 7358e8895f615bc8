//! §VII-D storage overhead: bytes an RA needs to *store* the revocation
//! data versus the memory needed to *build and keep* all dictionaries, for
//! the full ISC dataset (1,381,992 revocations across 254 dictionaries) and
//! for the 10-million-revocation projection.
//!
//! Paper: "the storage overhead is slightly above 4 MB and the memory ...
//! is 36 MB (for 10 million revocations this overhead is 30 MB and 260 MB)".

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_bench::print_table;
use ritm_crypto::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};
use ritm_workloads::isc::IscDataset;

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
        let issuance = ca
            .insert(&serials, &mut rng, T0 + 1)
            .expect("fresh serials");
        mirror
            .apply_issuance(&issuance, T0 + 1)
            .expect("the CA's own issuance");
        storage += mirror.storage_bytes();
        memory += mirror.memory_bytes();
        total += mirror.len() as u64;
    }
    (storage, memory, total)
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
    println!("memory keeps each serial once in a packed log, an 8-byte sorted entry per leaf,");
    println!("the leaf hashes and tree levels >= 3 (levels 1 and 2 are hashed on demand);");
    println!("constants differ, scaling matches (README, Substitutions)");
}
