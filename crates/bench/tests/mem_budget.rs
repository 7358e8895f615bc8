//! Memory budget of the dictionaries (the CI `mem-budget` smoke): the live
//! heap bytes per leaf of a `CaDictionary` and of a `MirrorDictionary`, as
//! the allocator sees them, and the transient peak of a bulk load.
//!
//! Each per-leaf figure is a slope between a 20k- and a 40k-leaf
//! dictionary, so fixed costs (keys, hash chains, the last partly filled
//! chunk of each sequence) cancel out. Both dictionaries hold the same
//! tree: an 8-byte entry per leaf (serial prefix and revocation number),
//! level 0 and levels ≥ 3, and each serial once, in the tree's packed log.
//! The gates:
//! - with 3-byte serials, a mirror and a CA each hold at most 43.5 B per
//!   leaf (measured 41.4);
//! - with 16-byte serials, at most 57 B per leaf (measured 55.0), below
//!   the 58.5 and 75.6 B the mirror and the CA held when every leaf carried
//!   a whole `SerialNumber` and the CA a second copy in its own log;
//! - each dictionary's `memory_bytes()` self-report is within 2 B per leaf
//!   of the allocator's slope;
//! - a 40k-leaf `apply_issuance` peaks at most 34 B per leaf above what it
//!   leaves live: the sorted batch of leaves, and no second per-leaf copy
//!   such as a vector of their hashes;
//! - a 100-leaf mirror holds at most 16 KiB in all: a sequence's last
//!   chunk is sized to its contents, not allocated whole;
//! - a `GetStatus` reply the RA's encoded cache holds for a serial that is
//!   not revoked, out of a 40k-leaf dictionary, costs at most 660 B,
//!   cache entry included (measured 628.1; 965.2 when an absence proof
//!   shipped two full audit paths);
//! - the CDN origin holds a published 3-byte revocation, in 100-serial
//!   batches, in at most 11 B: its feed's log entry plus a share of the
//!   batch's signed root (measured 10.0; 16.0 when it also kept every
//!   batch's encoded bytes);
//! - a CDN edge copies a cached 1 MiB object once per hit (a peak of two
//!   copies when the hit cloned the clone) and holds two copies on a miss,
//!   its cache's and the caller's (three when the miss cloned the fetched
//!   body for its return).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::StatusServer;
use ritm_cdn::{ContentKey, EdgeServer, Origin, Region};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};
use ritm_net::time::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Tracks the live and peak heap bytes of the thread being measured, and
/// only while it is being measured: this binary's tests run concurrently,
/// and a process-wide tally would mix them. Test binaries get their own
/// allocator instance, so this never taints the library crates.
struct LiveBytesAlloc;

#[derive(Clone, Copy)]
struct Tally {
    live: i64,
    peak: i64,
}

thread_local! {
    /// `Some` while this thread is being measured.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

fn note(delta: i64) {
    TALLY.with(|tally| {
        if let Some(mut t) = tally.get() {
            t.live += delta;
            t.peak = t.peak.max(t.live);
            tally.set(Some(t));
        }
    });
}

unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytesAlloc = LiveBytesAlloc;

/// Runs `f` and returns its result with the bytes it left live and the
/// most it held at once, both relative to its start.
fn measured<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|tally| tally.set(Some(Tally { live: 0, peak: 0 })));
    let out = f();
    let tally = TALLY.with(|tally| tally.take()).expect("still measuring");
    (out, tally)
}

const T0: u64 = 1_000_000;
const SMALL: usize = 20_000;
const LARGE: usize = 40_000;

/// One size's measurements.
struct Sample {
    ca_live: i64,
    ca_reported: usize,
    mirror_live: i64,
    mirror_peak_above_live: i64,
    mirror_reported: usize,
}

/// Distinct 3-byte serials; an odd stride scatters them over the 24-bit
/// space.
fn three_bytes(i: u32) -> SerialNumber {
    SerialNumber::from_u24(i.wrapping_mul(7_919))
}

/// Distinct 16-byte serials, scattered the same way in their first bytes.
fn sixteen_bytes(i: u32) -> SerialNumber {
    let mut bytes = [0u8; 16];
    bytes[..4].copy_from_slice(&i.wrapping_mul(7_919).rotate_left(8).to_be_bytes());
    bytes[4..12].copy_from_slice(
        &u64::from(i)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .to_be_bytes(),
    );
    bytes[12..].copy_from_slice(&i.to_be_bytes());
    SerialNumber::new(&bytes).unwrap()
}

/// Builds a CA and its mirror over `n` distinct serials in one batch,
/// measuring the CA's insert and the mirror's `apply_issuance`.
fn sample(n: usize, serial: fn(u32) -> SerialNumber) -> Sample {
    let mut rng = StdRng::seed_from_u64(5);
    let mut ca = CaDictionary::new(
        CaId::from_name("MemCA"),
        SigningKey::from_seed([5u8; 32]),
        10,
        64,
        &mut rng,
        T0,
    );
    let genesis = *ca.signed_root();
    let serials: Vec<SerialNumber> = (0..n as u32).map(serial).collect();
    let ((), ca_tally) = measured(|| {
        ca.insert(&serials, &mut rng, T0 + 1)
            .expect("fresh serials");
    });
    let issuance = ca.issuance_since(0);
    let (mirror, mirror_tally) = measured(|| {
        let mut m = MirrorDictionary::new(ca.ca(), ca.verifying_key(), genesis).unwrap();
        m.apply_issuance(&issuance, T0 + 1).unwrap();
        m
    });
    assert_eq!(mirror.len(), n);
    Sample {
        ca_live: ca_tally.live,
        ca_reported: ca.memory_bytes(),
        mirror_live: mirror_tally.live,
        mirror_peak_above_live: mirror_tally.peak - mirror_tally.live,
        mirror_reported: mirror.memory_bytes(),
    }
}

/// Bytes per leaf between the two sizes.
fn slope(small: f64, large: f64) -> f64 {
    (large - small) / (LARGE - SMALL) as f64
}

/// Per-leaf slopes of the CA and the mirror, and how far each one's
/// `memory_bytes()` slope is from it.
struct Slopes {
    mirror: f64,
    ca: f64,
    mirror_reported: f64,
    ca_reported: f64,
}

fn slopes(small: &Sample, large: &Sample) -> Slopes {
    Slopes {
        mirror: slope(small.mirror_live as f64, large.mirror_live as f64),
        ca: slope(small.ca_live as f64, large.ca_live as f64),
        mirror_reported: slope(small.mirror_reported as f64, large.mirror_reported as f64),
        ca_reported: slope(small.ca_reported as f64, large.ca_reported as f64),
    }
}

/// Asserts the per-leaf budget and the `memory_bytes()` agreement.
fn assert_within(s: &Slopes, budget: f64, serials: &str) {
    println!(
        "{serials} serials, live B/leaf: mirror {:.2} (memory_bytes {:.2}), CA {:.2} \
         (memory_bytes {:.2})",
        s.mirror, s.mirror_reported, s.ca, s.ca_reported
    );
    assert!(
        s.mirror <= budget,
        "{serials}: mirror holds {:.2} B/leaf, budget {budget}",
        s.mirror
    );
    assert!(
        s.ca <= budget,
        "{serials}: CA holds {:.2} B/leaf, budget {budget}",
        s.ca
    );
    assert!(
        (s.mirror_reported - s.mirror).abs() <= 2.0,
        "{serials}: mirror memory_bytes() says {:.2} B/leaf, the allocator {:.2}",
        s.mirror_reported,
        s.mirror
    );
    assert!(
        (s.ca_reported - s.ca).abs() <= 2.0,
        "{serials}: CA memory_bytes() says {:.2} B/leaf, the allocator {:.2}",
        s.ca_reported,
        s.ca
    );
}

#[test]
fn dictionaries_stay_within_their_bytes_per_leaf() {
    let (small, large) = (sample(SMALL, three_bytes), sample(LARGE, three_bytes));
    assert_within(&slopes(&small, &large), 43.5, "3-byte");
    let peak = large.mirror_peak_above_live as f64 / LARGE as f64;
    println!("apply_issuance peak above live {peak:.2} B/leaf");
    assert!(
        peak <= 34.0,
        "a {LARGE}-leaf apply_issuance peaks {peak:.2} B/leaf above live, budget 34"
    );
}

#[test]
fn long_serials_cost_less_than_a_serial_per_leaf() {
    let (small, large) = (sample(SMALL, sixteen_bytes), sample(LARGE, sixteen_bytes));
    assert_within(&slopes(&small, &large), 57.0, "16-byte");
}

#[test]
fn a_small_mirror_has_a_small_fixed_cost() {
    let s = sample(100, three_bytes);
    println!("100-leaf mirror: {} B live", s.mirror_live);
    assert!(
        s.mirror_live <= 16 * 1024,
        "a 100-leaf mirror holds {} B, budget 16 KiB",
        s.mirror_live
    );
}

#[test]
fn a_cached_encoded_status_costs_its_bytes() {
    const CACHED: u32 = 4_096;
    let mut rng = StdRng::seed_from_u64(5);
    let mut ca = CaDictionary::new(
        CaId::from_name("MemCA"),
        SigningKey::from_seed([5u8; 32]),
        10,
        64,
        &mut rng,
        T0,
    );
    let genesis = *ca.signed_root();
    let serials: Vec<SerialNumber> = (0..LARGE as u32).map(three_bytes).collect();
    let issuance = ca
        .insert(&serials, &mut rng, T0 + 1)
        .expect("fresh serials");
    let mut mirror = MirrorDictionary::new(ca.ca(), ca.verifying_key(), genesis).unwrap();
    mirror.apply_issuance(&issuance, T0 + 1).unwrap();
    let server = StatusServer::new();
    assert!(server.publish(mirror.snapshot()));
    // `three_bytes` multiplies by an odd stride below 2^24, so serials past
    // the dictionary's are distinct from every revoked one.
    let ((), tally) = measured(|| {
        for i in LARGE as u32..LARGE as u32 + CACHED {
            server
                .encoded_status(&ca.ca(), &three_bytes(i))
                .expect("mirrored");
        }
    });
    assert_eq!(server.encoded_cache_stats().misses, u64::from(CACHED));
    let per_status = tally.live as f64 / f64::from(CACHED);
    println!("cached encoded status (not revoked, {LARGE} leaves): {per_status:.1} B");
    assert!(
        per_status <= 660.0,
        "a cached encoded status holds {per_status:.1} B, budget 660"
    );
}

/// Live bytes an origin holds after `n` 3-byte revocations are published
/// to it in 100-serial batches.
fn origin_live(n: usize) -> i64 {
    const BATCH: usize = 100;
    let mut rng = StdRng::seed_from_u64(5);
    let mut ca = CaDictionary::new(
        CaId::from_name("MemCA"),
        SigningKey::from_seed([5u8; 32]),
        10,
        64,
        &mut rng,
        T0,
    );
    let serials: Vec<SerialNumber> = (0..n as u32).map(three_bytes).collect();
    let batches: Vec<_> = serials
        .chunks(BATCH)
        .map(|batch| ca.insert(batch, &mut rng, T0 + 1).expect("fresh serials"))
        .collect();
    let mut origin = Origin::new();
    origin.register_ca(ca.ca(), ca.verifying_key());
    let ((), tally) = measured(|| {
        for batch in &batches {
            origin.publish_issuance(ca.ca(), batch).expect("in order");
        }
    });
    assert_eq!(
        origin.fetch_page(ca.ca(), 0, 1).map(|(_, r)| r),
        Some(n as u64 - BATCH as u64)
    );
    tally.live
}

#[test]
fn an_origin_holds_a_revocation_once() {
    let per_revocation = slope(origin_live(SMALL) as f64, origin_live(LARGE) as f64);
    println!("origin, 3-byte serials in 100-serial batches: {per_revocation:.2} B/revocation");
    assert!(
        per_revocation <= 11.0,
        "the origin holds {per_revocation:.2} B per revocation, budget 11"
    );
}

#[test]
fn an_edge_copies_a_cached_object_once() {
    const BODY: usize = 1 << 20;
    let mut rng = StdRng::seed_from_u64(5);
    let mut edge = EdgeServer::new(Region::Europe, SimDuration::from_secs(60));
    let key = ContentKey::Manifest {
        ca: CaId::from_name("MemCA"),
    };
    let now = SimTime::from_secs(T0);
    let (miss, missed) = measured(|| edge.pull_with(&key, now, &mut rng, || Some(vec![7; BODY])));
    let (hit, hitting) = measured(|| edge.pull_with(&key, now, &mut rng, || None));
    let (miss, hit) = (miss.expect("fetched"), hit.expect("cached"));
    assert!(!miss.1.cache_hit && hit.1.cache_hit);
    assert_eq!(hit.0, miss.0);
    let copies = |bytes: i64| bytes as f64 / BODY as f64;
    println!(
        "edge, {BODY} B object: miss peak {:.2} copies, hit peak {:.2}",
        copies(missed.peak),
        copies(hitting.peak)
    );
    assert!(
        copies(hitting.peak) < 1.5,
        "an edge hit peaked at {:.2} copies of the body, budget 1",
        copies(hitting.peak)
    );
    assert!(
        copies(missed.peak) < 2.5,
        "an edge miss peaked at {:.2} copies of the body, budget 2",
        copies(missed.peak)
    );
}
