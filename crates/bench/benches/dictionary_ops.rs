//! Criterion benchmarks for the authenticated dictionary itself: insert and
//! update scaling (§VII-D), an ablation over dictionary size showing the
//! logarithmic proof cost that Table III relies on, the incremental engine
//! against full rebuilds (10k/100k/1M leaves), proof construction,
//! compressed chain multiproofs vs independent audit paths, concurrent
//! snapshot-based proof serving vs a serialized `&mut`-style baseline, and
//! structurally-shared snapshot publication (`snapshot_publish/persistent`)
//! vs the PR 2 dense deep-clone baseline (`snapshot_publish/dense`), and
//! the event-driven serving stack over real sockets (`event_serve`: single
//! round trips, 8-deep in-order v1 flights, the same flight multiplexed on
//! envelope v2, and a slow-`CatchUp` head-of-line scenario the v2
//! out-of-order server overlaps away).
//!
//! With `BENCH_JSON=BENCH_dictionary.json` every result lands in a JSON
//! perf-trajectory file; `BENCH_SMOKE=1` shrinks sizes and samples for CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{StatusServer, StatusService};
use ritm_crypto::SigningKey;
use ritm_dictionary::tree::{Leaf, MerkleTree};
use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};
use ritm_proto::event::{EventServer, EventTransport};
use ritm_proto::{Loopback, RitmRequest, RitmResponse, Service, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counts every allocation so `status_serve_hot/allocs_per_request` is a
/// recorded number, not a claim. Criterion benches are separate binaries,
/// so the one-atomic-per-alloc tax stays inside this file's numbers (and
/// is identical across the compared paths).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const T0: u64 = 1_397_000_000;
/// The acceptance scenario: one Δ's worth of revocations landing in a
/// CDN-scale dictionary.
const BATCH: u32 = 100;

fn built_tree(n: u32) -> MerkleTree {
    let mut tree = MerkleTree::new();
    let leaves: Vec<Leaf> = (0..n)
        .map(|i| Leaf::new(SerialNumber::from_u24(i * 2), i as u64 + 1))
        .collect();
    tree.apply_sorted_batch(&leaves);
    tree
}

fn fresh_batch(n: u32) -> Vec<Leaf> {
    // Fresh serials sort after every existing leaf (serials grow with
    // issuance), the engine's common case.
    (0..BATCH)
        .map(|i| Leaf::new(SerialNumber::from_u24(n * 2 + 1 + i), (n + i) as u64 + 1))
        .collect()
}

fn built_pair(n: u32) -> (CaDictionary, MirrorDictionary) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut ca = CaDictionary::new(
        CaId::from_name("DictBench"),
        SigningKey::from_seed([1u8; 32]),
        10,
        1 << 8,
        &mut rng,
        T0,
    );
    let genesis = *ca.signed_root();
    let serials: Vec<SerialNumber> = (0..n).map(|i| SerialNumber::from_u24(i * 2)).collect();
    let iss = ca.insert(&serials, &mut rng, T0 + 1).expect("insert");
    let mut mirror = MirrorDictionary::new(ca.ca(), ca.verifying_key(), genesis).unwrap();
    mirror.set_delta(10);
    mirror.apply_issuance(&iss, T0 + 1).unwrap();
    (ca, mirror)
}

fn bench_insert_1000(c: &mut Criterion) {
    // §VII-D: "to insert 1,000 new revocations ... 2.93 ms on average" —
    // against the average-size (5,440-entry) dictionary.
    c.bench_function("ca_insert_1000_into_avg_dict", |b| {
        b.iter_batched(
            || {
                let (ca, _) = built_pair(5_440);
                let batch: Vec<SerialNumber> = (0..1_000u32)
                    .map(|i| SerialNumber::from_u24(0x800000 + i))
                    .collect();
                (ca, batch, StdRng::seed_from_u64(9))
            },
            |(mut ca, batch, mut rng)| {
                black_box(ca.insert(&batch, &mut rng, T0 + 2));
            },
            criterion::BatchSize::LargeInput,
        )
    });

    c.bench_function("ra_update_1000_into_avg_dict", |b| {
        b.iter_batched(
            || {
                let (mut ca, mirror) = built_pair(5_440);
                let batch: Vec<SerialNumber> = (0..1_000u32)
                    .map(|i| SerialNumber::from_u24(0x800000 + i))
                    .collect();
                let mut rng = StdRng::seed_from_u64(9);
                let iss = ca.insert(&batch, &mut rng, T0 + 2).expect("insert");
                (mirror, iss)
            },
            |(mut mirror, iss)| {
                mirror.apply_issuance(&iss, T0 + 2).expect("update");
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

fn bench_prove_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("prove_vs_dict_size");
    let sizes: &[u32] = if criterion::smoke_mode() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 339_557]
    };
    for &n in sizes {
        let (_, mirror) = built_pair(n);
        let query = SerialNumber::from_u24(0x700001); // absent (odd serial)
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(mirror.prove(black_box(&query))))
        });
    }
    g.finish();
}

/// Tree sizes for the heavyweight benches: trimmed in smoke mode so the CI
/// pass finishes in seconds.
fn heavy_sizes() -> &'static [u32] {
    if criterion::smoke_mode() {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    }
}

fn bench_incremental_vs_rebuild(c: &mut Criterion) {
    let mut g = c.benchmark_group("apply_100_batch");
    for &n in heavy_sizes() {
        // Slow at 1M (a full rebuild is ~2n hashes); fewer samples there.
        g.sample_size(if n >= 1_000_000 { 10 } else { 20 });
        let base = built_tree(n);
        let batch = fresh_batch(n);
        g.bench_with_input(BenchmarkId::new("full_rebuild", n), &n, |b, _| {
            b.iter_batched(
                || {
                    let mut t = base.clone();
                    t.extend_leaves(batch.iter().copied());
                    t
                },
                |mut t| {
                    t.rebuild();
                    black_box(t.root())
                },
                criterion::BatchSize::LargeInput,
            )
        });
        g.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut t| {
                    t.apply_sorted_batch(&batch);
                    black_box(t.root())
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_prove_hot_serial(c: &mut Criterion) {
    let mut g = c.benchmark_group("prove_hot_serial");
    for &n in heavy_sizes() {
        g.sample_size(if n >= 1_000_000 { 10 } else { 20 });
        let (_, mirror) = built_pair(n);
        let query = SerialNumber::from_u24(0x700001); // absent (odd serial)
        g.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            b.iter(|| black_box(mirror.proof(black_box(&query))))
        });
    }
    g.finish();
}

fn bench_status_validation(c: &mut Criterion) {
    let (ca, mirror) = built_pair(100_000);
    let query = SerialNumber::from_u24(0x700001);
    let status = mirror.prove(&query);
    let key = ca.verifying_key();
    c.bench_function("client_full_status_validation_100k", |b| {
        b.iter(|| status.validate(&query, &key, 10, T0 + 2).expect("valid"))
    });
}

/// Compressed 5-serial chain multiproof vs 5 independent audit paths: time
/// to generate, and — the Fig. 7 claim — encoded bytes. The serials are
/// absent (the common chain case: none of the chain's certificates is
/// revoked), where each independent proof ships an adjacent *pair* of
/// paths and compression pays off most.
fn bench_multiproof_chain(c: &mut Criterion) {
    let n: u32 = if criterion::smoke_mode() {
        10_000
    } else {
        100_000
    };
    let (_, mirror) = built_pair(n);
    // Odd serials are absent; spread them across the tree.
    let chain: Vec<SerialNumber> = (0..5u32)
        .map(|i| SerialNumber::from_u24(i * (n / 4) * 2 + 1001))
        .collect();

    c.bench_function(&format!("multiproof_generate_5chain/{n}"), |b| {
        b.iter(|| black_box(mirror.prove_multi(black_box(&chain))))
    });
    c.bench_function(&format!("individual_5proofs_generate/{n}"), |b| {
        b.iter(|| {
            for s in &chain {
                black_box(mirror.prove(black_box(s)));
            }
        })
    });

    // Byte-size comparison (proof-only, per the acceptance criterion, and
    // full wire statuses including root/freshness dedup).
    let multi = mirror.prove_multi(&chain);
    let proof_bytes = multi.proof.encoded_len();
    let individual_proof_bytes: usize = chain
        .iter()
        .map(|s| mirror.prove(s).proof.encoded_len())
        .sum();
    let status_bytes = multi.encoded_len();
    let individual_status_bytes: usize = chain.iter().map(|s| mirror.prove(s).encoded_len()).sum();
    println!(
        "multiproof_5chain/{n}: proof {proof_bytes} B vs individual {individual_proof_bytes} B \
         ({:.1}%); status {status_bytes} B vs {individual_status_bytes} B ({:.1}%)",
        100.0 * proof_bytes as f64 / individual_proof_bytes as f64,
        100.0 * status_bytes as f64 / individual_status_bytes as f64,
    );
    criterion::json_record(
        "multiproof_5chain_proof_bytes",
        Some(n as u64),
        Some(5),
        proof_bytes as f64,
        "bytes",
    );
    criterion::json_record(
        "individual_5chain_proof_bytes",
        Some(n as u64),
        Some(5),
        individual_proof_bytes as f64,
        "bytes",
    );
    criterion::json_record(
        "multiproof_5chain_status_bytes",
        Some(n as u64),
        Some(5),
        status_bytes as f64,
        "bytes",
    );
    criterion::json_record(
        "individual_5chain_status_bytes",
        Some(n as u64),
        Some(5),
        individual_status_bytes as f64,
        "bytes",
    );
    assert!(
        proof_bytes * 10 <= individual_proof_bytes * 6,
        "acceptance: multiproof must be ≤60% of independent paths"
    );
}

/// Snapshot publication cost: the PR 2 baseline deep-cloned the mirror's
/// dense tree per published epoch — O(n) memcpy (~40 MB of levels at 1M
/// leaves) to change a few hundred leaves. The structurally-shared
/// `PersistentTree` publishes with O(chunks) `Arc` bumps instead, so the
/// cost tracks the batch/chunk count, not the dictionary. Both variants
/// are measured after the same `BATCH`-leaf issuance batch; the acceptance
/// criterion is persistent ≥10x faster than dense at 1M leaves.
fn bench_snapshot_publish(c: &mut Criterion) {
    let mut g = c.benchmark_group("snapshot_publish");
    for &n in heavy_sizes() {
        g.sample_size(if n >= 1_000_000 { 10 } else { 20 });

        // Dense baseline: the deep clone a `MerkleTree`-backed snapshot
        // paid (tree clone + Arc allocation, off the read path).
        let mut dense = built_tree(n);
        dense.apply_sorted_batch(&fresh_batch(n));
        g.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
            b.iter(|| black_box(std::sync::Arc::new(dense.clone())))
        });

        // Persistent path: what `MirrorDictionary::snapshot()` does now.
        // Drive the mirror through a real issuance so the measured state
        // is exactly "publish after a BATCH-leaf batch".
        let (mut ca, mut mirror) = built_pair(n);
        let batch: Vec<SerialNumber> = fresh_batch(n).iter().map(|l| l.serial).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let iss = ca.insert(&batch, &mut rng, T0 + 2).expect("batch");
        mirror.apply_issuance(&iss, T0 + 2).expect("batch applies");
        g.bench_with_input(BenchmarkId::new("persistent", n), &n, |b, _| {
            b.iter(|| black_box(mirror.snapshot()))
        });

        if n >= 1_000_000 {
            // Acceptance: publishing after a 100-leaf batch into a 1M-leaf
            // dictionary must be ≥10x faster than the deep-clone baseline.
            let start = Instant::now();
            for _ in 0..5 {
                black_box(std::sync::Arc::new(dense.clone()));
            }
            let dense_ns = start.elapsed().as_nanos() as f64 / 5.0;
            let start = Instant::now();
            for _ in 0..500 {
                black_box(mirror.snapshot());
            }
            let persistent_ns = start.elapsed().as_nanos() as f64 / 500.0;
            println!(
                "snapshot_publish/1M: dense {dense_ns:.0} ns vs persistent {persistent_ns:.0} ns \
                 ({:.0}x)",
                dense_ns / persistent_ns
            );
            criterion::json_record(
                "snapshot_publish_speedup",
                Some(n as u64),
                Some(BATCH as u64),
                dense_ns / persistent_ns,
                "x",
            );
            assert!(
                dense_ns >= 10.0 * persistent_ns,
                "acceptance: persistent publish must be ≥10x faster than deep clone"
            );
        }
    }
    g.finish();
}

/// Concurrent proof serving: N reader threads against (a) the lock-free
/// snapshot path (`StatusServer`, `&self`) and (b) a serialized baseline
/// where every reader must take one big lock around the mirror — the shape
/// the pre-snapshot RA forced via `&mut self`. The hot-set workload (256
/// serials, mostly cache hits after warm-up) models many flows presenting
/// the same server certificates.
fn bench_concurrent_serving(_c: &mut Criterion) {
    let n: u32 = if criterion::smoke_mode() {
        10_000
    } else {
        100_000
    };
    let ops_per_thread: u32 = if criterion::smoke_mode() {
        2_000
    } else {
        20_000
    };
    let (ca, mirror) = built_pair(n);
    let ca_id = ca.ca();
    let hot_set = 256u32;

    let server = StatusServer::new();
    assert!(server.publish(mirror.snapshot()));
    let baseline = std::sync::Mutex::new(mirror);

    for threads in [1u32, 2, 4, 8] {
        let snapshot_ns = {
            let start = Instant::now();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let server = &server;
                    s.spawn(move || {
                        for i in 0..ops_per_thread {
                            let q = SerialNumber::from_u24(((t * 131 + i) % hot_set) * 2 + 1);
                            black_box(server.status_for(&ca_id, &q).expect("mirrored"));
                        }
                    });
                }
            });
            start.elapsed().as_nanos() as f64 / (threads as f64 * ops_per_thread as f64)
        };
        let serialized_ns = {
            let start = Instant::now();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let baseline = &baseline;
                    s.spawn(move || {
                        for i in 0..ops_per_thread {
                            let q = SerialNumber::from_u24(((t * 131 + i) % hot_set) * 2 + 1);
                            let guard = baseline.lock().expect("baseline lock");
                            black_box(guard.prove(&q));
                        }
                    });
                }
            });
            start.elapsed().as_nanos() as f64 / (threads as f64 * ops_per_thread as f64)
        };
        println!(
            "concurrent_serve/{threads}threads/{n}: snapshot {snapshot_ns:.0} ns/op, \
             serialized {serialized_ns:.0} ns/op ({:.2}x)",
            serialized_ns / snapshot_ns
        );
        criterion::json_record(
            &format!("concurrent_serve_snapshot/{threads}threads"),
            Some(n as u64),
            Some(threads as u64),
            snapshot_ns,
            "ns/op",
        );
        criterion::json_record(
            &format!("concurrent_serve_serialized/{threads}threads"),
            Some(n as u64),
            Some(threads as u64),
            serialized_ns,
            "ns/op",
        );
    }
}

/// The wire protocol's per-request overhead on the serving path: envelope
/// encode/decode for the hot request kinds (`GetStatus`, `FetchDelta`) and
/// a full loopback `Service::handle` round trip against the RA's status
/// endpoint — tracked in BENCH_dictionary.json from the protocol PR onward.
fn bench_protocol_roundtrip(c: &mut Criterion) {
    let n: u32 = if criterion::smoke_mode() {
        10_000
    } else {
        100_000
    };
    let (ca, mirror) = built_pair(n);
    let ca_id = ca.ca();

    let mut g = c.benchmark_group("protocol_roundtrip");

    // Envelope encode+decode: GetStatus (the smallest hot request).
    let get_status = RitmRequest::GetStatus {
        ca: ca_id,
        serial: SerialNumber::from_u24(0x700001),
    };
    g.bench_function("encode_get_status", |b| {
        b.iter(|| black_box(black_box(&get_status).to_frame()))
    });
    let status_frame = get_status.to_frame();
    g.bench_function("decode_get_status", |b| {
        b.iter(|| {
            let (body, _) = ritm_proto::split_frame(black_box(&status_frame)).expect("framed");
            black_box(RitmRequest::decode_body(body).expect("decodes"))
        })
    });

    // Envelope encode+decode: a BATCH-serial FetchDelta response (what an
    // RA downloads per Δ during a revocation burst).
    let issuance = ca.issuance_since((n - BATCH) as u64);
    let delta_resp = RitmResponse::Delta(issuance);
    g.bench_function("encode_fetch_delta_response", |b| {
        b.iter(|| black_box(black_box(&delta_resp).to_frame()))
    });
    let delta_frame = delta_resp.to_frame();
    g.bench_function("decode_fetch_delta_response", |b| {
        b.iter(|| {
            let (body, _) = ritm_proto::split_frame(black_box(&delta_frame)).expect("framed");
            black_box(RitmResponse::decode_body(body).expect("decodes"))
        })
    });

    // Full loopback round trip through the RA's status endpoint: envelope
    // decode + snapshot proof build (cache-hot) + envelope encode.
    let server = StatusServer::new();
    assert!(server.publish(mirror.snapshot()));
    let mut transport = Loopback::new(StatusService::new(Arc::new(server)));
    g.bench_function("loopback_get_status", |b| {
        b.iter(|| black_box(transport.round_trip(&get_status).expect("served")))
    });
    // And the raw frame path (what a TCP worker executes per request).
    let service = StatusService::new(transport.service().server().clone());
    g.bench_function("handle_frame_get_status", |b| {
        b.iter(|| black_box(service.handle_frame(black_box(&status_frame))))
    });
    g.finish();
}

/// Paged catch-up serving cost (PR 7): one `issuance_page` is the CA-side
/// unit of work while an RA closes a gap — a serial-range slice plus a
/// synthesized historical signed root. Measured mid-gap (the worst case:
/// the synthesized root is for a tree state no cached root matches) at two
/// page sizes, plus whole-gap accounting: how many pages and how many
/// response bytes close a from-genesis gap at the default page limit —
/// every page holding under `MAX_FRAME_LEN` regardless of dictionary size.
fn bench_catchup_paged(c: &mut Criterion) {
    let mut g = c.benchmark_group("catchup_paged");
    for &n in heavy_sizes() {
        g.sample_size(if n >= 1_000_000 { 10 } else { 20 });
        let (ca, _) = built_pair(n);
        for limit in [1u32 << 12, 1 << 16] {
            g.bench_with_input(BenchmarkId::new(format!("page{limit}"), n), &n, |b, _| {
                b.iter(|| black_box(ca.issuance_page(black_box((n / 2) as u64), limit)))
            });
        }

        let limit = 1u32 << 16;
        let (mut have, mut pages, mut bytes) = (0u64, 0u64, 0u64);
        loop {
            let (issuance, remaining) = ca.issuance_page(have, limit);
            if issuance.serials.is_empty() {
                break;
            }
            have += issuance.serials.len() as u64;
            pages += 1;
            let frame = RitmResponse::DeltaPage {
                issuance,
                remaining,
            }
            .encoded_len();
            assert!(frame < ritm_proto::MAX_FRAME_LEN, "page must fit a frame");
            bytes += frame as u64;
            if remaining == 0 {
                break;
            }
        }
        assert_eq!(have, n as u64, "pages must cover the whole gap");
        criterion::json_record(
            "catchup_paged/full_gap_pages",
            Some(n as u64),
            Some(limit as u64),
            pages as f64,
            "pages",
        );
        criterion::json_record(
            "catchup_paged/full_gap_bytes",
            Some(n as u64),
            Some(limit as u64),
            bytes as f64,
            "bytes",
        );
    }
    g.finish();
}

/// Delays `CatchUp` by ~1ms (a stand-in for a large delta rebuild) and
/// delegates everything else — the head-of-line blocker the multiplexed
/// envelope exists to defeat.
struct SlowCatchUp(Arc<StatusService>);

impl ritm_proto::Service for SlowCatchUp {
    fn handle(&self, req: RitmRequest) -> RitmResponse {
        if matches!(req, RitmRequest::CatchUp { .. }) {
            std::thread::sleep(std::time::Duration::from_millis(1));
            return RitmResponse::Error(ritm_proto::ProtoError::NotFound);
        }
        self.0.handle(req)
    }
}

/// The event-driven serving stack end to end over real OS sockets: one
/// `EventServer` (≤2 threads) in front of the RA's status endpoint, a
/// non-blocking client. Tracks (a) the single-request round trip — the
/// per-request cost of the reactor/codec machinery vs the in-process
/// `loopback_get_status` number above — and (b) an 8-deep in-order v1
/// flight (the transport pinned to v1, so the number stays comparable
/// across the envelope-v2 change), (c) the same flight multiplexed on
/// envelope v2 (per-frame request ids, out-of-order completion), and
/// (d) the payoff case: a ~1ms `CatchUp` heading the flight, which
/// in-order serving would add wholesale to every status behind it but
/// out-of-order completion overlaps with all 8.
fn bench_event_serve(c: &mut Criterion) {
    let n: u32 = if criterion::smoke_mode() {
        10_000
    } else {
        100_000
    };
    let (ca, mirror) = built_pair(n);
    let server = StatusServer::new();
    assert!(server.publish(mirror.snapshot()));
    let service = Arc::new(StatusService::new(Arc::new(server)));
    let event_server =
        EventServer::spawn(Arc::clone(&service) as Arc<dyn ritm_proto::Service>, 2).unwrap();
    // Pinned to v1: byte-identical to the pre-v2 client, so these two
    // records keep their baseline meaning.
    let mut transport = EventTransport::connect_pinned_v1(event_server.addr()).unwrap();

    let get_status = RitmRequest::GetStatus {
        ca: ca.ca(),
        serial: SerialNumber::from_u24(0x700001),
    };

    let mut g = c.benchmark_group("event_serve");
    g.bench_function("roundtrip_get_status", |b| {
        b.iter(|| black_box(transport.round_trip(&get_status).expect("served")))
    });
    let flight: Vec<RitmRequest> = (0..8u32)
        .map(|i| RitmRequest::GetStatus {
            ca: ca.ca(),
            serial: SerialNumber::from_u24(0x700001 + i * 2),
        })
        .collect();
    g.bench_function("pipelined_8x_get_status", |b| {
        b.iter(|| {
            for r in transport.round_trip_many(black_box(&flight)) {
                black_box(r.expect("served"));
            }
        })
    });

    // The same flight on envelope v2: +4 id bytes per frame buys
    // out-of-order completion (invisible here — statuses are uniform —
    // but the overhead must stay in the noise vs the v1 number).
    let mut mux = EventTransport::connect(event_server.addr()).unwrap();
    g.bench_function("multiplexed_8x_get_status", |b| {
        b.iter(|| {
            for r in mux.round_trip_many(black_box(&flight)) {
                black_box(r.expect("served"));
            }
        })
    });

    // The HOL case: a ~1ms CatchUp ahead of the 8 statuses. Multiplexed,
    // the statuses complete while it sleeps, so the flight costs ~max
    // (≈1ms), not sum (≈1ms + 8 statuses serialized behind it).
    let slow_server = EventServer::spawn(
        Arc::new(SlowCatchUp(Arc::clone(&service))) as Arc<dyn ritm_proto::Service>,
        2,
    )
    .unwrap();
    let mut slow_mux = EventTransport::connect(slow_server.addr()).unwrap();
    let mut hol_flight = vec![RitmRequest::CatchUp {
        ca: ca.ca(),
        have: 0,
    }];
    hol_flight.extend(flight.iter().cloned());
    g.bench_function("slow_catchup_plus_8x_get_status", |b| {
        b.iter(|| {
            for r in slow_mux.round_trip_many(black_box(&hol_flight)) {
                black_box(r.expect("served"));
            }
        })
    });
    g.finish();
    drop(slow_mux);
    slow_server.shutdown();
    drop((transport, mux));
    event_server.shutdown();
}

/// The zero-copy hot path against the classic one, in process: answering
/// a hot-serial `GetStatus` frame from the encoded-response cache
/// (`serve_frame` — one cache lookup, one `Arc` clone, a 9-byte stamped
/// header) vs building, assembling, and encoding the same response per
/// request (`handle_frame`). Also records allocations per hot request
/// (the counting allocator above) and the encoded-cache hit rate the run
/// produced — the numbers the alloc-budget test pins as hard bounds.
fn bench_status_serve_hot(c: &mut Criterion) {
    let n: u32 = if criterion::smoke_mode() {
        10_000
    } else {
        100_000
    };
    let (ca, mirror) = built_pair(n);
    let server = StatusServer::new();
    assert!(server.publish(mirror.snapshot()));
    let svc = StatusService::new(Arc::new(server));
    let req = RitmRequest::GetStatus {
        ca: ca.ca(),
        serial: SerialNumber::from_u24(0x700001),
    };
    let frame = req.to_frame_v2(3);

    let mut g = c.benchmark_group("status_serve_hot");
    g.bench_with_input(BenchmarkId::new("build_and_encode", n), &frame, |b, f| {
        b.iter(|| black_box(svc.handle_frame(black_box(f))))
    });
    // Warm the encoded cache, and prove the two paths agree on the wire
    // before timing them against each other.
    let warm = svc.serve_frame(&frame);
    assert_eq!(warm.to_vec(), svc.handle_frame(&frame));
    g.bench_with_input(BenchmarkId::new("encoded_cache_hit", n), &frame, |b, f| {
        b.iter(|| black_box(svc.serve_frame(black_box(f))))
    });
    g.finish();

    const PROBE: u64 = 1_000;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..PROBE {
        black_box(svc.serve_frame(&frame));
    }
    let allocs_per_req = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / PROBE as f64;
    criterion::json_record(
        "status_serve_hot/allocs_per_request",
        Some(n as u64),
        Some(1),
        allocs_per_req,
        "allocs",
    );
    criterion::json_record(
        "status_serve_hot/encoded_hit_rate",
        Some(n as u64),
        Some(1),
        svc.server().encoded_cache_stats().hit_rate(),
        "ratio",
    );
}

/// Sustained hot-status throughput through the whole event stack: one
/// multiplexed v2 connection keeping 64 requests in flight against the
/// encoded-response cache, over real OS sockets. Records requests/sec
/// alongside the criterion timing. (CI pins the container to one core,
/// so this is the single-core serving ceiling — reader/writer/service
/// all time-sliced — not a contention measurement.)
fn bench_throughput(c: &mut Criterion) {
    let n: u32 = if criterion::smoke_mode() {
        10_000
    } else {
        100_000
    };
    let (ca, mirror) = built_pair(n);
    let server = StatusServer::new();
    assert!(server.publish(mirror.snapshot()));
    let service = Arc::new(StatusService::new(Arc::new(server)));
    let event_server =
        EventServer::spawn(Arc::clone(&service) as Arc<dyn ritm_proto::Service>, 2).unwrap();
    let mut mux = EventTransport::connect(event_server.addr()).unwrap();
    // 64-deep flight over 8 hot serials: after the first flight every
    // request is an encoded-cache hit served as a shared body.
    let flight: Vec<RitmRequest> = (0..64u32)
        .map(|i| RitmRequest::GetStatus {
            ca: ca.ca(),
            serial: SerialNumber::from_u24(0x700001 + (i % 8) * 2),
        })
        .collect();

    let mut g = c.benchmark_group("throughput");
    g.bench_function("event_64deep_hot_status", |b| {
        b.iter(|| {
            for r in mux.round_trip_many(black_box(&flight)) {
                black_box(r.expect("served"));
            }
        })
    });
    g.finish();

    let rounds: u32 = if criterion::smoke_mode() { 20 } else { 200 };
    let started = Instant::now();
    let mut served = 0u64;
    for _ in 0..rounds {
        for r in mux.round_trip_many(&flight) {
            r.expect("served");
            served += 1;
        }
    }
    criterion::json_record(
        "throughput/requests_per_sec",
        Some(n as u64),
        Some(64),
        served as f64 / started.elapsed().as_secs_f64(),
        "req/s",
    );
    drop(mux);
    event_server.shutdown();
}

/// The interception lane at Table III granularity: full sans-io handshakes
/// per second with the `FlowTable` middlebox inline (segment-level, so the
/// number isolates RA work from kernel socket noise) vs the same engine
/// pair back-to-back, plus the exact bytes one stapled status record adds
/// to a handshake.
fn bench_handshake(c: &mut Criterion) {
    use ritm_agent::intercept::{FlowTable, InterceptConfig};
    use ritm_net::middlebox::Middlebox;
    use ritm_net::tcp::{Direction, FourTuple, SocketAddr, TcpFlags, TcpSegment};
    use ritm_net::time::SimTime;
    use ritm_tls::certificate::{Certificate, CertificateChain, TrustAnchors};
    use ritm_tls::connection::{ClientConfig, ServerContext};
    use ritm_tls::engine::{Action, ClientEngine, ServerEngine};

    let n: u32 = if criterion::smoke_mode() {
        10_000
    } else {
        100_000
    };
    let (ca, mirror) = built_pair(n);
    let status = Arc::new(StatusServer::new());
    assert!(status.publish(mirror.snapshot()));

    let ca_key = SigningKey::from_seed([1u8; 32]);
    let server_key = SigningKey::from_seed([2u8; 32]);
    let leaf = Certificate::issue(
        &ca_key,
        ca.ca(),
        SerialNumber::from_u24(0x700001), // absent from the dictionary
        "bench.example.com",
        T0,
        T0 + 100_000,
        server_key.verifying_key(),
        false,
    );
    let chain = CertificateChain(vec![leaf]);
    let mut anchors = TrustAnchors::new();
    anchors.add(ca.ca(), ca_key.verifying_key());
    let config = ClientConfig {
        server_name: "bench.example.com".into(),
        anchors,
        enable_ritm: true,
    };
    let tuple = FourTuple {
        client: SocketAddr::new(0x0a00_0001, 9000),
        server: SocketAddr::new(0x0a00_0002, 443),
    };
    let now = SimTime::from_secs(T0 + 2);

    // One full handshake; segments flow through `table` when present.
    // Returns (bytes the client saw, statuses the client saw).
    let run_one = |table: Option<&mut FlowTable>| -> (u64, u32) {
        let ctx = ServerContext::new(chain.clone(), [9u8; 20]);
        let mut client = ClientEngine::new(config.clone(), [2u8; 32], None);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut table = table;
        let mut to_server = client.start().to_bytes();
        let mut seq_cs = 0u64;
        let mut seq_sc = 0u64;
        let mut client_saw = 0u64;
        let mut statuses = 0u32;
        for _ in 0..8 {
            let seg = TcpSegment {
                tuple,
                direction: Direction::ToServer,
                seq: seq_cs,
                ack: 0,
                flags: TcpFlags::default(),
                payload: std::mem::take(&mut to_server),
            };
            seq_cs += seg.payload.len() as u64;
            let outs = match table.as_deref_mut() {
                Some(t) => t.process(seg, now),
                None => vec![seg],
            };
            let mut flight = Vec::new();
            for out in outs {
                for action in server.feed(T0 + 2, &out.payload) {
                    if let Action::SendBytes(b) = action {
                        flight.extend_from_slice(&b);
                    }
                }
            }
            let seg = TcpSegment {
                tuple,
                direction: Direction::ToClient,
                seq: seq_sc,
                ack: 0,
                flags: TcpFlags::default(),
                payload: flight,
            };
            seq_sc += seg.payload.len() as u64;
            let outs = match table.as_deref_mut() {
                Some(t) => t.process(seg, now),
                None => vec![seg],
            };
            for out in outs {
                client_saw += out.payload.len() as u64;
                for action in client.feed(T0 + 2, &out.payload) {
                    match action {
                        Action::SendBytes(b) => to_server.extend_from_slice(&b),
                        Action::RitmStatus(_) => statuses += 1,
                        Action::Abort { alert } => panic!("bench abort: {alert:?}"),
                        _ => {}
                    }
                }
            }
            if client.is_established() && to_server.is_empty() {
                break;
            }
        }
        assert!(client.is_established() && server.is_established());
        // Close the flow so the table can be reused across iterations.
        if let Some(t) = table {
            let fin = TcpSegment {
                tuple,
                direction: Direction::ToServer,
                seq: seq_cs,
                ack: 0,
                flags: TcpFlags {
                    fin: true,
                    ..TcpFlags::default()
                },
                payload: Vec::new(),
            };
            t.process(fin, now);
        }
        (client_saw, statuses)
    };

    let mut g = c.benchmark_group("handshake");
    g.bench_function("engines_direct", |b| b.iter(|| black_box(run_one(None))));
    let mut table = FlowTable::new(Arc::clone(&status), InterceptConfig::default());
    g.bench_function("engines_through_middlebox", |b| {
        b.iter(|| black_box(run_one(Some(&mut table))))
    });
    g.finish();

    // Table III shape: the exact byte overhead one stapled status adds.
    let (direct_bytes, s0) = run_one(None);
    let mut table = FlowTable::new(status, InterceptConfig::default());
    let (stapled_bytes, s1) = run_one(Some(&mut table));
    assert_eq!((s0, s1), (0, 1), "middlebox staples exactly one status");
    criterion::json_record(
        "handshake_bytes_added_per_handshake",
        Some(n as u64),
        Some(1),
        (stapled_bytes - direct_bytes) as f64,
        "bytes",
    );
    criterion::json_record(
        "handshake_bytes_baseline",
        Some(n as u64),
        Some(1),
        direct_bytes as f64,
        "bytes",
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_insert_1000, bench_prove_scaling, bench_incremental_vs_rebuild,
        bench_prove_hot_serial, bench_status_validation, bench_snapshot_publish,
        bench_multiproof_chain, bench_concurrent_serving, bench_protocol_roundtrip,
        bench_catchup_paged, bench_event_serve, bench_status_serve_hot, bench_throughput,
        bench_handshake
}
criterion_main!(benches);
