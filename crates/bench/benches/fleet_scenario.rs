//! The §VIII fleet scenario as a closed-loop macro-benchmark: a sharded RA
//! fleet (consistent-hash placement, signed-root gossip, one shard pinned
//! stale and one killed mid-run) serving a zipf-distributed population of
//! one million clients. Reports the Fig. 7 headline — wire bytes per user
//! per day — plus fleet-wide and per-shard encoded-cache hit rates, status
//! latency percentiles, and router spillover counters.
//!
//! Hand-rolled main (no criterion sampling): one cold run is the
//! measurement, mirroring how the paper reports a day of traffic. With
//! `BENCH_JSON=... BENCH_JSON_APPEND=1` the records merge into the same
//! trajectory file the criterion benches write; `BENCH_SMOKE=1` shrinks
//! the population for CI.

use criterion::{flush_json, json_record, smoke_mode};
use ritm_core::{FleetOptions, FleetWorld};
use std::time::Instant;

fn main() {
    let smoke = smoke_mode();
    let opts = if smoke {
        FleetOptions {
            seed: 7,
            shards: 3,
            cas: 8,
            revocations: 8_000,
            clients: 80_000,
            hot_serials: 1024,
            lane_threshold: 1_500,
            validate_every: 256,
            ..FleetOptions::default()
        }
    } else {
        FleetOptions {
            seed: 7,
            clients: 1_000_000,
            ..FleetOptions::default()
        }
    };

    let build_start = Instant::now();
    let mut world = FleetWorld::new(&opts);
    let build = build_start.elapsed();

    let run_start = Instant::now();
    let report = world.run(&opts);
    let run = run_start.elapsed();
    let req_per_sec = report.requests as f64 / run.as_secs_f64().max(1e-9);

    println!(
        "fleet_scenario: {} shards, {} CAs, {} clients ({} requests) — built in {:.2?}, ran in {:.2?} ({:.0} req/s)",
        opts.shards, opts.cas, report.clients, report.requests, build, run, req_per_sec,
    );
    println!(
        "  bytes/user/day {:.1}  encoded-cache hit {:.3}  latency mean {:.2} ms p99 {:.2} ms",
        report.bytes_per_user_day,
        report.encoded_hit_rate,
        report.mean_status_latency_ms,
        report.p99_status_latency_ms,
    );
    println!(
        "  stale shard {:?} (rejections {})  killed shard {:?} (spilled {}, cross-region {}, unroutable {})",
        report.stale_shard,
        report.stale_rejections,
        report.killed_shard,
        report.router.spilled,
        report.router.cross_region,
        report.router.unroutable,
    );
    for (shard, rate) in &report.per_shard_encoded_hit_rate {
        println!("  shard {shard}: encoded-cache hit {rate:.3}");
    }
    assert!(
        report.requests >= report.clients,
        "closed loop must serve every client"
    );
    assert!(
        report.router.unroutable == 0,
        "every point must keep a live replica"
    );
    assert!(
        report.health.is_converged(),
        "fleet must re-converge after heal"
    );

    let n = Some(report.clients);
    json_record(
        "fleet/bytes_per_user_day",
        n,
        None,
        report.bytes_per_user_day,
        "bytes",
    );
    json_record(
        "fleet/encoded_hit_rate",
        n,
        None,
        report.encoded_hit_rate,
        "fraction",
    );
    json_record(
        "fleet/status_latency_mean",
        n,
        None,
        report.mean_status_latency_ms,
        "ms",
    );
    json_record(
        "fleet/status_latency_p99",
        n,
        None,
        report.p99_status_latency_ms,
        "ms",
    );
    json_record("fleet/requests_per_sec", n, None, req_per_sec, "req/s");
    json_record(
        "fleet/router_spilled",
        n,
        None,
        report.router.spilled as f64,
        "requests",
    );
    json_record(
        "fleet/stale_rejections",
        n,
        None,
        report.stale_rejections as f64,
        "requests",
    );
    for (shard, rate) in &report.per_shard_encoded_hit_rate {
        json_record(
            &format!("fleet/shard_hit_rate/{shard}"),
            n,
            None,
            *rate,
            "fraction",
        );
    }
    flush_json();
}
