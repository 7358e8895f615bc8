//! `revocation_storm` — the write path only, with `rt` absent.
//!
//! A real `CertificationAuthority` with a write-ahead log revokes and
//! refreshes into a `Cdn` origin; the RA pulls through an `EdgeService`
//! over the in-process `Loopback` transport (byte-identical to the socket
//! lanes) with `sync_via_with`; after every synced round the RA's mirror
//! root must equal the CA's root bit for bit.
//!
//! The seed fixes a block of 100 rounds on a 40k-leaf base: every 4th
//! round is freshness-only; the other rounds revoke a batch whose size is
//! heavy-tailed — eight peaks shaped like Fig. 4's 16–17 April profile
//! (`heartbleed::peak_days_six_hourly`, rescaled to 800 revocations per
//! block) among handfuls of 1–8 — and in every 50 rounds the RA skips five
//! and recovers through `CatchUpPaged` with a page limit of 4 096. The run
//! is as many whole blocks as fit the time, so bytes per revocation are an
//! exact count for a seed: Fig. 7's y-axis.
//!
//! `ca`, `dictionary`, `crypto`, `cdn` and `proto`'s large-message codec
//! do all the work; the status read path does none.

use super::{count, higher, lower, overhead, pooled, Budget, Common, Outcome, Params};
use crate::gen::{self, InputHash};
use crate::metrics::Values;
use crate::micro;
use crate::oracle::Oracle;
use crate::shadow::{self, Shadow};
use crate::stats::{self, Samples, Sorted};
use crate::trace::{self, Tracer};
use crate::world::{Dictionary, DELTA};
use crate::wrap::{self, Traffic};
use crate::writepath::{Round, RoundOutcome, Spec, WritePath};
use ritm_dictionary::SerialNumber;
use ritm_proto::Loopback;
use ritm_workloads::heartbleed;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASE_LEAVES: u32 = 40_000;
const UNIVERSE: u32 = 1_000_000;
const ROUNDS_PER_BLOCK: usize = 100;
/// Revocations the eight peak rounds of a block share.
const PEAK_TOTAL: u64 = 800;
/// In every window of this many rounds the RA misses the last few.
const SKIP_WINDOW: usize = 50;
const SKIPPED: usize = 5;
const PAGE_LIMIT: u32 = 4_096;
const WARMUP_ROUNDS: usize = 10;

struct Plan {
    base: Vec<SerialNumber>,
    /// Serials to revoke, in order, as `u24` values; never in `base`.
    fresh: Vec<u32>,
    rounds: Vec<Round>,
    hash: u64,
}

fn plan(seed: u64) -> Plan {
    let mut rng = gen::stream(seed, "revocation_storm");
    let perm = gen::permutation(&mut rng, 1, UNIVERSE);
    let base: Vec<SerialNumber> = perm[..BASE_LEAVES as usize]
        .iter()
        .map(|v| SerialNumber::from_u24(*v))
        .collect();
    let fresh = perm[BASE_LEAVES as usize..].to_vec();

    let revoking: Vec<usize> = (0..ROUNDS_PER_BLOCK).filter(|r| r % 4 != 3).collect();
    let peaks =
        heartbleed::rescale_to_total(&heartbleed::peak_days_six_hourly(&mut rng), PEAK_TOTAL);
    // Handfuls: the sizes 1..=8 in equal numbers, in seeded order.
    let mut sizes: Vec<usize> = (0..revoking.len() - peaks.len())
        .map(|i| 1 + i % 8)
        .collect();
    sizes.extend(peaks.iter().map(|b| b.count as usize));
    gen::shuffle(&mut rng, &mut sizes);
    let mut rounds = vec![Round::Freshness; ROUNDS_PER_BLOCK];
    for (r, size) in revoking.iter().zip(&sizes) {
        rounds[*r] = Round::Revoke(*size);
    }
    let mut hash = InputHash::new();
    for s in &base {
        hash.feed_bytes(s.as_bytes());
    }
    for size in &sizes {
        hash.feed(*size as u64);
    }
    for v in &fresh[..4_096] {
        hash.feed(u64::from(*v));
    }
    Plan {
        base,
        fresh,
        rounds,
        hash: hash.finish(),
    }
}

/// One round's outcome against what must hold: the CA call covered the
/// whole batch, and on a synced round the RA's root equals the CA's.
fn judge(out: &RoundOutcome, oracle: &mut Oracle, op: u64) {
    oracle.check(out.ca_ok, || {
        format!("round {op}: the CA call failed or fell short")
    });
    if let Some(equal) = out.roots_equal {
        oracle.check(equal, || {
            format!("round {op}: RA root differs from the CA root")
        });
    }
}

/// Whether the RA misses round `r` of a block.
fn ra_skips(r: usize) -> bool {
    r % SKIP_WINDOW >= SKIP_WINDOW - SKIPPED
}

struct RepResult {
    /// CA call start → RA root equal, every synced round.
    round_ms: Sorted,
    /// The same, revoking rounds the RA pulls at once (the budget's op).
    revoke_round_us: Samples,
    revoke_us: Samples,
    refresh_us: Samples,
    sync_apply_us: Samples,
    revocations: u64,
    /// System time: CA call start → RA root equal, summed over the rounds.
    busy_s: f64,
    /// Block 0 — every run completes it, so its counts are exact for a
    /// seed: RA↔edge traffic, revocations, synced rounds.
    block0: (Traffic, u64, u64),
    transport_errors: u64,
    edge_us: Samples,
    shadow: Option<Shadow>,
}

pub fn run(p: &Params) -> Outcome {
    let shared = Instant::now();
    let plan = plan(p.seed);
    let mut oracle = Oracle::new(DELTA);
    let shared = shared.elapsed();

    let tracer = Arc::new(Tracer::new(p.trace));
    let mut common = Common::default();
    let (mut untraced, mut traced): (Vec<RepResult>, Vec<RepResult>) = (Vec::new(), Vec::new());
    for (rep_no, rep) in p.reps().into_iter().enumerate() {
        let setup = Instant::now();
        let wal = |tag: &str| {
            crate::out_dir().join(format!("storm-{}-{rep_no}{tag}.wal", std::process::id()))
        };
        let mut traced_edge = None;
        let mut world = WritePath::build(
            Spec {
                ca_name: "StormCA",
                base: &plan.base,
                fresh: plan.fresh.clone(),
                seed: p.seed,
                page_limit: PAGE_LIMIT,
                wal_path: wal(""),
            },
            &tracer,
            |edge| {
                let generation = Arc::new(AtomicU64::new(0));
                let (mounted, handle) = wrap::mount(
                    Arc::clone(edge),
                    rep.traced,
                    &tracer,
                    "cdn.serve",
                    &generation,
                );
                traced_edge = handle;
                Loopback::new(mounted)
            },
        );
        let mut shadow = rep.traced.then(|| {
            Shadow::new(
                &Dictionary::build("StormCA", 3, &plan.base, p.seed),
                wal("-shadow"),
            )
        });
        let mut round_ms = Samples::with_capacity(1 << 14);
        let mut result = RepResult {
            round_ms: Samples::default().sorted(),
            revoke_round_us: Samples::with_capacity(1 << 14),
            revoke_us: Samples::with_capacity(1 << 14),
            refresh_us: Samples::with_capacity(1 << 12),
            sync_apply_us: Samples::with_capacity(1 << 14),
            revocations: 0,
            busy_s: 0.0,
            block0: (Traffic::default(), 0, 0),
            transport_errors: 0,
            edge_us: Samples::default(),
            shadow: None,
        };

        // Set-up ends with the RA caught up on the base (one 40k-serial
        // `Delta` frame) and the last rounds of a block, skips included, so
        // the first timed block opens on the same gap as every later one.
        let warm_from = ROUNDS_PER_BLOCK - WARMUP_ROUNDS;
        let base_pull = (Round::Freshness, true);
        let tail = plan.rounds[warm_from..]
            .iter()
            .enumerate()
            .map(|(i, kind)| (*kind, !ra_skips(warm_from + i)));
        for (kind, sync) in std::iter::once(base_pull).chain(tail) {
            let out = world.round(kind, sync, &tracer, false, 0);
            judge(&out, &mut oracle, 0);
            if let (Some(shadow), Some(issuance)) = (shadow.as_mut(), &out.issuance) {
                shadow.observe(issuance, world.now);
            }
        }
        // Every repetition is charged the plan's one-off build as well.
        common.setup_done(setup - shared);

        let deadline = Instant::now() + Duration::from_secs_f64(rep.seconds);
        let before = world.transport.traffic();
        let (mut op, mut blocks, mut synced_rounds) = (0u64, 0u64, 0u64);
        while Instant::now() < deadline {
            for (r, kind) in plan.rounds.iter().enumerate() {
                let out = world.round(*kind, !ra_skips(r), &tracer, rep.traced, op);
                judge(&out, &mut oracle, op);
                let us = |d: Duration| d.as_nanos() as f64 / 1e3;
                match kind {
                    Round::Freshness => result.refresh_us.push(us(out.ca_call)),
                    Round::Revoke(_) => result.revoke_us.push(us(out.ca_call)),
                }
                if let Some((took, wire)) = out.sync {
                    round_ms.push(us(out.round) / 1e3);
                    if matches!(kind, Round::Revoke(_)) && r % SKIP_WINDOW != 0 {
                        result.revoke_round_us.push(us(out.round));
                    }
                    result.sync_apply_us.push(us(took - wire));
                    synced_rounds += 1;
                }
                result.busy_s += out.round.as_secs_f64();
                result.revocations += out.serials.len() as u64;
                if let (Some(shadow), Some(issuance)) = (shadow.as_mut(), &out.issuance) {
                    shadow.observe(issuance, world.now);
                }
                op += 1;
            }
            if blocks == 0 {
                let traffic = world.transport.traffic().since(&before);
                result.block0 = (traffic, result.revocations, synced_rounds);
            }
            blocks += 1;
        }
        result.round_ms = round_ms.sorted();
        result.transport_errors = world.transport.traffic().transport_errors;
        oracle.check(result.transport_errors == 0, || {
            "a sync round trip failed".into()
        });
        if let Some(t) = &traced_edge {
            result.edge_us = t.take_times().other;
        }
        result.shadow = shadow;
        if rep.traced {
            &mut traced
        } else {
            &mut untraced
        }
        .push(result);
    }

    let p50_ms = lower(&untraced, |r| r.round_ms.median());
    let p95_ms = lower(&untraced, |r| r.round_ms.percentile(95.0));
    let samples = count(&untraced, |r| r.round_ms.len());
    let revocations = count(&untraced, |r| r.revocations as usize);
    // The generator's own work between rounds (issuing the certificates it
    // is about to revoke) is not the system's time and is left out.
    let revocations_per_s = higher(&untraced, |r| r.revocations as f64 / r.busy_s);
    let (traffic, block_revocations, block_synced) = untraced[0].block0;
    let bytes_per_revocation =
        (traffic.request_bytes + traffic.response_bytes) as f64 / block_revocations as f64;
    let mut values = Values::default();
    values.set("op_p50_us", p50_ms * 1e3, samples);
    values.set("op_tail_us", p95_ms * 1e3, samples);
    values.set("ops_per_s", revocations_per_s, revocations);
    values.set(
        "wire_bytes_per_op",
        bytes_per_revocation,
        block_revocations as usize,
    );
    common.fill(&mut values);
    values.set("sync_round_p50_ms", p50_ms, samples);
    values.set("revocations_per_s", revocations_per_s, revocations);
    values.set(
        "dissem_bytes_per_revocation",
        bytes_per_revocation,
        block_revocations as usize,
    );

    let mut budgets = Vec::new();
    if p.trace {
        values.set(
            "bench.trace_overhead",
            overhead(p50_ms, lower(&traced, |r| r.round_ms.median())),
            count(&traced, |r| r.round_ms.len()),
        );
        let revoke = pooled(&untraced, |r| &r.revoke_us);
        let refresh = pooled(&untraced, |r| &r.refresh_us);
        let apply = pooled(&untraced, |r| &r.sync_apply_us);
        let edge = pooled(&traced, |r| &r.edge_us);
        values.set("ca.revoke_us", revoke.median(), revoke.len());
        values.set("ca.refresh_us", refresh.median(), refresh.len());
        values.set("agent.sync_apply_us", apply.median(), apply.len());
        values.set("cdn.edge_serve_us", edge.median() / 1e3, edge.len());
        values.set(
            "agent.sync_flights_per_round",
            traffic.flights as f64 / block_synced as f64,
            block_synced as usize,
        );
        values.set("agent.catchup_pages", traffic.catchup_pages as f64, 1);
        let shadows: Vec<&Shadow> = traced.iter().filter_map(|r| r.shadow.as_ref()).collect();
        shadow::report(&shadows, &mut values);
        let probe = Dictionary::build("StormCA", 3, &plan.base[..1_000], p.seed);
        micro::crypto(&mut values, &probe);

        let spans = tracer.finish();
        let ops = trace::per_op_layers(&spans, "round");
        // The typical round: a revocation the RA pulls at once (freshness
        // rounds and catch-up recoveries have budgets of their own shape).
        let typical: Vec<_> = ops
            .iter()
            .filter(|op| op.contains_key("ca.revoke") && op.contains_key("agent.sync"))
            .collect();
        let layer = |name: &str| {
            let us: Vec<f64> = typical
                .iter()
                .map(|op| op.get(name).copied().unwrap_or(0) as f64 / 1e3)
                .collect();
            stats::median_of(&us)
        };
        budgets.push(Budget {
            operation: "revoke + sync round (revocation_storm)",
            layers: vec![
                ("ca.revoke (sign, insert, chain, fsync)", layer("ca.revoke")),
                ("agent.sync (verify, apply, publish)", layer("agent.sync")),
                ("proto.transport (loopback codec)", layer("proto.transport")),
                ("cdn.serve (edge pull, encode)", layer("cdn.serve")),
            ],
            observed_us: pooled(&untraced, |r| &r.revoke_round_us).median(),
            residual_to: "generator (between spans)",
        });
        crate::write_trace("revocation_storm", &spans);
    }

    Outcome::new(
        values,
        &oracle,
        plan.hash,
        vec![("sync round (ms)", pooled(&untraced, |r| &r.round_ms))],
        budgets,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_block_is_a_function_of_the_seed_with_a_fixed_total() {
        let (a, b, c) = (plan(3), plan(3), plan(4));
        assert_eq!(a.hash, b.hash);
        assert_ne!(a.hash, c.hash);
        assert_eq!(a.rounds, b.rounds);
        let total = |p: &Plan| -> usize {
            p.rounds
                .iter()
                .map(|r| match r {
                    Round::Revoke(n) => *n,
                    Round::Freshness => 0,
                })
                .sum()
        };
        assert_eq!(total(&a), total(&c));
        assert_eq!(
            a.rounds.iter().filter(|r| **r == Round::Freshness).count(),
            25
        );
        let peak = a
            .rounds
            .iter()
            .filter_map(|r| match r {
                Round::Revoke(n) => Some(*n),
                Round::Freshness => None,
            })
            .max()
            .unwrap();
        assert!(
            peak > 100,
            "the largest batch of a block is a peak, got {peak}"
        );
        let base: std::collections::HashSet<_> = a.base.iter().collect();
        assert!(a.fresh[..10_000]
            .iter()
            .all(|v| !base.contains(&SerialNumber::from_u24(*v))));
    }

    #[test]
    fn the_ra_misses_the_last_five_rounds_of_every_fifty() {
        let skipped: Vec<usize> = (0..100).filter(|r| ra_skips(*r)).collect();
        assert_eq!(skipped, vec![45, 46, 47, 48, 49, 95, 96, 97, 98, 99]);
    }
}
