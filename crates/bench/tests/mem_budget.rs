//! Memory budget of the dictionaries (the CI `mem-budget` smoke): the live
//! heap bytes per leaf of a `CaDictionary` and of a `MirrorDictionary`, as
//! the allocator sees them, and the transient peak of a bulk load.
//!
//! Each figure is a slope between a 20k- and a 40k-leaf dictionary of
//! 3-byte serials, so fixed costs (keys, hash chains, the last partly
//! filled chunk of each level) cancel out. The gates:
//! - a mirror holds at most 61 B per leaf and a CA at most 66 (the tree
//!   stores level 0 and levels ≥ 3 only; the CA's log is packed);
//! - each dictionary's `memory_bytes()` self-report is within 2 B per leaf
//!   of the allocator's slope;
//! - a 40k-leaf `apply_issuance` peaks at most 34 B per leaf above what it
//!   leaves live: the sorted batch of leaves, and no second per-leaf copy
//!   such as a vector of their hashes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};
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

/// Builds a CA and its mirror over `n` distinct 3-byte serials in one
/// batch, measuring the CA's insert and the mirror's `apply_issuance`.
fn sample(n: usize) -> Sample {
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
    // An odd stride scatters the serials over the 24-bit space.
    let serials: Vec<SerialNumber> = (0..n as u32)
        .map(|i| SerialNumber::from_u24(i.wrapping_mul(7_919)))
        .collect();
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

#[test]
fn dictionaries_stay_within_their_bytes_per_leaf() {
    let (small, large) = (sample(SMALL), sample(LARGE));
    let mirror = slope(small.mirror_live as f64, large.mirror_live as f64);
    let ca = slope(small.ca_live as f64, large.ca_live as f64);
    let mirror_reported = slope(small.mirror_reported as f64, large.mirror_reported as f64);
    let ca_reported = slope(small.ca_reported as f64, large.ca_reported as f64);
    let peak = large.mirror_peak_above_live as f64 / LARGE as f64;
    println!(
        "live B/leaf: mirror {mirror:.2} (memory_bytes {mirror_reported:.2}), \
         CA {ca:.2} (memory_bytes {ca_reported:.2}); \
         apply_issuance peak above live {peak:.2} B/leaf"
    );
    assert!(mirror <= 61.0, "mirror holds {mirror:.2} B/leaf, budget 61");
    assert!(ca <= 66.0, "CA holds {ca:.2} B/leaf, budget 66");
    assert!(
        (mirror_reported - mirror).abs() <= 2.0,
        "mirror memory_bytes() says {mirror_reported:.2} B/leaf, the allocator {mirror:.2}"
    );
    assert!(
        (ca_reported - ca).abs() <= 2.0,
        "CA memory_bytes() says {ca_reported:.2} B/leaf, the allocator {ca:.2}"
    );
    assert!(
        peak <= 34.0,
        "a {LARGE}-leaf apply_issuance peaks {peak:.2} B/leaf above live, budget 34"
    );
}
