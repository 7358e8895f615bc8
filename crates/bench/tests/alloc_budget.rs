//! Allocation budget on the hot serving path (the CI `alloc-budget`
//! smoke): answering a hot-serial `GetStatus` frame from the encoded
//! cache must cost ZERO heap allocations — the request decodes into
//! inline fields, the returned `Frame` is a stamped header plus a shared
//! `Arc` clone of the cached body, and nothing else on the path may
//! allocate. This pins the zero-copy claim as a number, not a vibe: a
//! regression that quietly re-introduces a per-request encode or copy
//! fails here, not in a benchmark someone has to read. The budget is
//! exactly zero because anything looser lets one copy of the body per
//! request (1 allocation) through.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{StatusServer, StatusService};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};
use ritm_proto::Service;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the allocations of the thread being measured, and only while it
/// is being measured: this binary's tests run concurrently on the
/// container's two CPUs, and a process-wide counter put the sibling test's
/// `build_service()` (a 10k-leaf dictionary) inside this test's window.
/// Test binaries get their own allocator instance, so this never taints the
/// library crates.
struct CountingAlloc;

thread_local! {
    /// `Some(n)` while this thread is being measured.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    ALLOCS.with(|count| count.set(count.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|count| count.set(Some(0)));
    f();
    ALLOCS.with(|count| count.take()).expect("still counting")
}

const T0: u64 = 1_000_000;
const LEAVES: u32 = 10_000;
const ITERATIONS: u64 = 100;

fn build_service() -> (CaId, StatusService) {
    let mut rng = StdRng::seed_from_u64(42);
    let mut ca = CaDictionary::new(
        CaId::from_name("AllocCA"),
        SigningKey::from_seed([9u8; 32]),
        10,
        64,
        &mut rng,
        T0,
    );
    let mut m = MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
    m.set_delta(10);
    let serials: Vec<SerialNumber> = (0..LEAVES).map(SerialNumber::from_u24).collect();
    let iss = ca.insert(&serials, &mut rng, T0 + 1).unwrap();
    m.apply_issuance(&iss, T0 + 1).unwrap();
    let server = StatusServer::new();
    assert!(server.publish(m.snapshot()));
    (ca.ca(), StatusService::new(Arc::new(server)))
}

#[test]
fn hot_serial_get_status_stays_within_the_alloc_budget() {
    let (ca, svc) = build_service();
    let serial = SerialNumber::from_u24(LEAVES / 2);
    let req = ritm_proto::RitmRequest::GetStatus { ca, serial };
    let frame_v2 = req.to_frame_v2(7);

    // The hot path must also survive type erasure: a blanket impl that
    // forgot to forward `serve_frame`/`serve_envelope` would silently
    // fall back to build-and-encode here and blow the budget.
    let erased: Arc<dyn Service> = Arc::new(svc.clone());

    // Warm: first call builds the proof, payload, and encoding.
    let warm = erased.serve_frame(&frame_v2);
    // The owned and zero-copy paths agree on the wire before we count.
    assert_eq!(warm.to_vec(), svc.handle_frame(&frame_v2));

    let spent = allocations_in(|| {
        for _ in 0..ITERATIONS {
            let resp = erased.serve_frame(&frame_v2);
            assert!(!resp.is_empty());
        }
    });
    assert_eq!(
        spent, 0,
        "hot-serial GetStatus spent {spent} allocations over {ITERATIONS} \
         requests — the budget is none"
    );

    // Sanity: the cache really was hit every iteration.
    let stats = svc.server().encoded_cache_stats();
    assert!(stats.hits >= ITERATIONS, "encoded cache hits: {stats:?}");
}

#[test]
fn build_and_encode_path_costs_more_than_the_cached_path() {
    // The counting allocator doubles as a cheap comparator: the owned
    // `handle_frame` path (payload assembly + encode per request) must
    // allocate strictly more than the cached `serve_frame` path, or the
    // cache is not actually saving work.
    let (ca, svc) = build_service();
    let serial = SerialNumber::from_u24(LEAVES / 4);
    let req = ritm_proto::RitmRequest::GetStatus { ca, serial };
    let frame = req.to_frame_v2(9);
    let _ = svc.serve_frame(&frame); // warm both caches

    let cached = allocations_in(|| {
        for _ in 0..ITERATIONS {
            let _ = svc.serve_frame(&frame);
        }
    });
    let owned = allocations_in(|| {
        for _ in 0..ITERATIONS {
            let _ = svc.handle_frame(&frame);
        }
    });

    assert!(
        cached < owned,
        "cached path ({cached} allocs) must beat build-and-encode ({owned})"
    );
}
