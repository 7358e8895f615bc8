//! `status_churn` — reads beside writes, over real sockets.
//!
//! A real `CertificationAuthority` (write-ahead log attached) publishes to
//! a `Cdn`; its `EdgeService` and the RA's `StatusService` are both mounted
//! on one shared two-thread runtime. The generator drives two client
//! connections. On the first it sends 64-deep multiplexed `GetStatus`
//! flights whose serials are Zipf(1.0) over a seeded permutation of a
//! million serials — revoked, valid and never issued, so presence and
//! absence proofs — a working set far beyond the RA's 16 384-entry
//! encoded-response cache. After every 20th flight it revokes a batch of
//! 100 at the CA and has the RA pull it from the edge on the second
//! connection (`sync_via_with`): the republish bumps the snapshot
//! generation and the encoded cache goes cold. The next flight carries one
//! of the serials just revoked.
//!
//! The flights of a cycle go out back to back; their replies are kept and
//! run past the oracle only when the last has landed. Validating between
//! flights left the servers idle for a few milliseconds each time, and how
//! far the reactor's back-off had got in that pause — that is, how fast
//! the oracle ran — decided the next flight's latency.
//!
//! A cycle is 20 flights and one round (not the issue's 60: rounds and
//! visibility samples are what a run is short of, ~37 a repetition this
//! way); the run is as many whole cycles as fit the time. Base population 60k at dictionary level.
//!
//! Reads and writes share the `agent` and `dictionary` structures here and
//! nowhere else: a read-path gain that costs publishes (or the reverse)
//! shows on this workload only.

use super::{count, lower, overhead, pooled, Budget, Common, Outcome, Params};
use crate::gen::{self, InputHash, Zipf};
use crate::metrics::Values;
use crate::micro;
use crate::oracle::Oracle;
use crate::shadow::{self, Shadow};
use crate::stats::{self, Samples, Sorted};
use crate::sys;
use crate::trace::{self, Tracer, NO_PARENT};
use crate::world::{self, Dictionary, DELTA};
use crate::wrap::{self, ServeTimes, Traffic};
use crate::writepath::{Round, Spec, WritePath};
use rand::rngs::StdRng;
use ritm_agent::StatusService;
use ritm_dictionary::{CaId, SerialNumber};
use ritm_proto::{
    EventServer, EventServerConfig, EventTransport, RitmRequest, RoundTrip, Transport,
    TransportError,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASE_LEAVES: u32 = 60_000;
const UNIVERSE: u32 = 1_000_000;
const DEPTH: usize = 64;
const FLIGHTS_PER_CYCLE: usize = 20;
const BATCH: usize = 100;
/// Enough to negotiate the version and fill the buffer pools; the encoded
/// cache cannot be filled (the working set is 60 times its size).
const WARMUP_FLIGHTS: usize = 20;
/// A flight slower than this met a reactor back-off, not work.
const STALL_US: f64 = 10_000.0;

struct Plan {
    base: Vec<SerialNumber>,
    /// Serials to revoke during the run, in order; never in `base`.
    fresh: Vec<u32>,
    /// Popularity rank → serial.
    by_rank: Vec<u32>,
    zipf: Zipf,
    hash: u64,
}

fn plan(seed: u64) -> Plan {
    let mut rng = gen::stream(seed, "status_churn");
    let perm = gen::permutation(&mut rng, 1, UNIVERSE);
    let base: Vec<SerialNumber> = perm[..BASE_LEAVES as usize]
        .iter()
        .map(|v| SerialNumber::from_u24(*v))
        .collect();
    let fresh = perm[BASE_LEAVES as usize..].to_vec();
    let by_rank = gen::permutation(&mut rng, 1, UNIVERSE);
    let mut hash = InputHash::new();
    for v in perm[..BASE_LEAVES as usize + 4_096]
        .iter()
        .chain(&by_rank[..4_096])
    {
        hash.feed(u64::from(*v));
    }
    Plan {
        base,
        fresh,
        by_rank,
        zipf: Zipf::new(UNIVERSE as usize, 1.0),
        hash: hash.finish(),
    }
}

impl Plan {
    /// The next flight's serials: Zipf draws, the first replaced by
    /// `carry` (a serial of the batch just revoked) when there is one.
    fn flight(&self, rng: &mut StdRng, carry: Option<SerialNumber>) -> Vec<SerialNumber> {
        let mut serials: Vec<SerialNumber> = (0..DEPTH)
            .map(|_| SerialNumber::from_u24(self.by_rank[self.zipf.sample(rng)]))
            .collect();
        if let Some(s) = carry {
            serials[0] = s;
        }
        serials
    }
}

/// One landed 64-deep flight, kept until the oracle has seen it.
struct Flight {
    serials: Vec<SerialNumber>,
    replies: Vec<Result<RoundTrip, TransportError>>,
    took: Duration,
    landed: Instant,
}

impl Flight {
    /// Runs every reply past the oracle. Returns the flight's frame bytes
    /// and the proven verdict of its first serial (the carried one).
    fn settle(&self, ca: CaId, now: u64, oracle: &mut Oracle) -> (u64, Option<bool>) {
        let mut bytes = 0u64;
        let mut carried = None;
        for (i, (serial, reply)) in self.serials.iter().zip(&self.replies).enumerate() {
            if let Ok(rt) = reply {
                bytes += rt.meta.request_bytes + rt.meta.response_bytes;
            }
            let verdict = oracle.check_status(ca, *serial, reply, now);
            if i == 0 {
                carried = verdict;
            }
        }
        (bytes, carried)
    }
}

struct RepResult {
    flight_us: Sorted,
    round_ms: Sorted,
    visible_ms: Sorted,
    statuses: u64,
    read_s: f64,
    /// Per cycle: statuses per second of flight time, flights that met a
    /// reactor stall left out.
    cycle_rps: Samples,
    /// Cycle 0 of the repetition: status frame bytes and statuses, sync
    /// traffic and revocations.
    cycle_status_bytes: u64,
    cycle_sync: Traffic,
    cpu_us_per_request: f64,
    ctx_per_request: f64,
    serve: ServeTimes,
    served_ns: f64,
    edge_us: Samples,
    revoke_us: Samples,
    sync_apply_us: Samples,
    shadow: Option<Shadow>,
}

pub fn run(p: &Params) -> Outcome {
    let shared = Instant::now();
    let plan = plan(p.seed);
    let shared = shared.elapsed();

    let tracer = Arc::new(Tracer::new(p.trace));
    let mut common = Common::default();
    let mut oracle = Oracle::new(DELTA);
    let (mut untraced, mut traced): (Vec<RepResult>, Vec<RepResult>) = (Vec::new(), Vec::new());
    for (rep_no, rep) in p.reps().into_iter().enumerate() {
        let setup = Instant::now();
        // One client's view per repetition: a fresh RA starts from the
        // base again, which an earlier repetition's tracker would call a
        // regression.
        oracle.new_client();
        let wal = |tag: &str| {
            crate::out_dir().join(format!("churn-{}-{rep_no}{tag}.wal", std::process::id()))
        };
        let runtime = ritm_rt::Executor::new(2);
        let handle = runtime.handle();
        let generation = Arc::new(AtomicU64::new(0));
        let mut servers = Vec::new();
        let mut traced_edge = None;
        let mut world = WritePath::build(
            Spec {
                ca_name: "ChurnCA",
                base: &plan.base,
                fresh: plan.fresh.clone(),
                seed: p.seed,
                page_limit: ritm_proto::MAX_PAGE_LIMIT,
                wal_path: wal(""),
            },
            &tracer,
            |edge| {
                let (mounted, times) = wrap::mount(
                    Arc::clone(edge),
                    rep.traced,
                    &tracer,
                    "cdn.serve",
                    &generation,
                );
                traced_edge = times;
                let server = EventServer::spawn_on(mounted, &handle, EventServerConfig::default())
                    .expect("bind the edge's listener");
                let transport =
                    EventTransport::connect(server.addr()).expect("connect to the edge");
                servers.push(server);
                transport
            },
        );
        oracle.pin(world.id, world.key);
        for s in &plan.base {
            oracle.revoke(world.id, *s);
        }
        let (mounted, traced_status) = wrap::mount(
            StatusService::new(world.ra.status_server()),
            rep.traced,
            &tracer,
            "agent.serve",
            &generation,
        );
        let status_server = EventServer::spawn_on(mounted, &handle, EventServerConfig::default())
            .expect("bind the RA's listener");
        let mut reader = EventTransport::connect(status_server.addr()).expect("connect to the RA");
        servers.push(status_server);
        let mut shadow = rep.traced.then(|| {
            Shadow::new(
                &Dictionary::build("ChurnCA", 3, &plan.base, p.seed),
                wal("-shadow"),
            )
        });

        // Set-up: the RA pulls the 60k base (one large `Delta` frame through
        // the runtime's big-frame path), then the warm flights.
        let first = world.round(Round::Freshness, true, &tracer, false, 0);
        oracle.check(first.ca_ok && first.roots_equal == Some(true), || {
            "the RA did not reach the CA's base root".into()
        });
        let mut draws = gen::stream(p.seed, "status_churn/flights");
        let ca = world.id;
        // A flight is timed on its own; its replies are validated by
        // `settle` once the cycle's flights have all landed, so that the
        // generator asks again at once and the servers never see a pause
        // whose length is the oracle's.
        let mut fly = |reader: &mut EventTransport,
                       carry: Option<SerialNumber>,
                       span: Option<u64>|
         -> Flight {
            let serials = plan.flight(&mut draws, carry);
            let reqs: Vec<RitmRequest> = serials
                .iter()
                .map(|&serial| RitmRequest::GetStatus { ca, serial })
                .collect();
            tracer.reserve(if span.is_some() {
                DEPTH + 2
            } else {
                usize::MAX
            });
            let root = tracer.open("flight", span.unwrap_or(0), NO_PARENT);
            let sent = Instant::now();
            let replies = reader.round_trip_many(&reqs);
            let took = sent.elapsed();
            tracer.close(root);
            Flight {
                serials,
                replies,
                took,
                landed: sent + took,
            }
        };
        let warm: Vec<Flight> = (0..WARMUP_FLIGHTS)
            .map(|_| fly(&mut reader, None, None))
            .collect();
        for flight in &warm {
            flight.settle(ca, world.now, &mut oracle);
        }
        drop(warm);
        if let Some(t) = &traced_status {
            t.take_times();
        }
        // Every repetition is charged the plan's one-off build as well.
        common.setup_done(setup - shared);

        let mut flight_us = Samples::with_capacity(1 << 14);
        let mut round_ms = Samples::with_capacity(1 << 10);
        let mut visible_ms = Samples::with_capacity(1 << 10);
        let mut r = RepResult {
            flight_us: Samples::default().sorted(),
            round_ms: Samples::default().sorted(),
            visible_ms: Samples::default().sorted(),
            statuses: 0,
            read_s: 0.0,
            cycle_rps: Samples::with_capacity(1 << 10),
            cycle_status_bytes: 0,
            cycle_sync: Traffic::default(),
            cpu_us_per_request: 0.0,
            ctx_per_request: 0.0,
            serve: ServeTimes::default(),
            served_ns: 0.0,
            edge_us: Samples::default(),
            revoke_us: Samples::with_capacity(1 << 10),
            sync_apply_us: Samples::with_capacity(1 << 10),
            shadow: None,
        };
        let (cpu0, ctx0) = (sys::cpu_time_us(), sys::voluntary_ctx_switches());
        let deadline = Instant::now() + Duration::from_secs_f64(rep.seconds);
        let mut op = 0u64;
        let mut cycle = 0u64;
        // The serial the next flight must see as revoked, and since when.
        let mut pending: Option<(SerialNumber, Instant)> = None;
        while Instant::now() < deadline {
            let sync_before = world.transport.traffic();
            let mut landed = Vec::with_capacity(FLIGHTS_PER_CYCLE);
            let mut unstalled = (0u64, Duration::ZERO);
            for _ in 0..FLIGHTS_PER_CYCLE {
                let carry = pending.take();
                let flight = fly(&mut reader, carry.map(|(s, _)| s), rep.traced.then_some(op));
                let us = flight.took.as_nanos() as f64 / 1e3;
                flight_us.push(us);
                if us <= STALL_US {
                    unstalled = (unstalled.0 + DEPTH as u64, unstalled.1 + flight.took);
                }
                r.read_s += flight.took.as_secs_f64();
                r.statuses += DEPTH as u64;
                landed.push((flight, carry));
                op += 1;
            }
            if unstalled.0 > 0 {
                r.cycle_rps
                    .push(unstalled.0 as f64 / unstalled.1.as_secs_f64());
            }
            for (flight, carry) in landed {
                let (bytes, carried) = flight.settle(ca, world.now, &mut oracle);
                // Visible once the client holds the reply that validates as
                // `Revoked`.
                if let (Some((_, since)), Some(true)) = (carry, carried) {
                    visible_ms.push((flight.landed - since).as_nanos() as f64 / 1e6);
                }
                if cycle == 0 {
                    r.cycle_status_bytes += bytes;
                }
            }
            let out = world.round(Round::Revoke(BATCH), true, &tracer, rep.traced, op);
            op += 1;
            oracle.check(out.ca_ok, || "the CA call failed or fell short".into());
            oracle.check(out.roots_equal == Some(true), || {
                "RA root differs from the CA root".into()
            });
            for s in &out.serials {
                oracle.revoke(ca, *s);
            }
            // New root, new `now`: no status encoding of the old
            // generation can recur.
            oracle.forget_statuses();
            generation.fetch_add(1, Ordering::Relaxed);
            pending = Some((out.serials[0], out.started));
            let us = |d: Duration| d.as_nanos() as f64 / 1e3;
            round_ms.push(us(out.round) / 1e3);
            r.revoke_us.push(us(out.ca_call));
            if let Some((took, wire)) = out.sync {
                r.sync_apply_us.push(us(took - wire));
            }
            if cycle == 0 {
                r.cycle_sync = world.transport.traffic().since(&sync_before);
            }
            if let (Some(shadow), Some(issuance)) = (shadow.as_mut(), &out.issuance) {
                shadow.observe(issuance, world.now);
            }
            cycle += 1;
        }
        r.flight_us = flight_us.sorted();
        r.round_ms = round_ms.sorted();
        r.visible_ms = visible_ms.sorted();
        let requests = r.statuses as f64;
        r.cpu_us_per_request = (sys::cpu_time_us() - cpu0) as f64 / requests;
        r.ctx_per_request = (sys::voluntary_ctx_switches() - ctx0) as f64 / requests;
        oracle.check(world.transport.traffic().transport_errors == 0, || {
            "a sync round trip failed".into()
        });
        if let Some(t) = &traced_status {
            r.serve = t.take_times();
            r.served_ns = r.serve.hit.sum() + r.serve.miss.sum() + r.serve.other.sum();
        }
        if let Some(t) = &traced_edge {
            r.edge_us = t.take_times().other;
        }
        r.shadow = shadow;
        if rep.traced {
            &mut traced
        } else {
            &mut untraced
        }
        .push(r);

        drop(reader);
        drop(world);
        for server in servers {
            server.shutdown();
        }
        runtime.shutdown();
    }

    // Visibility has two modes ~45 ms apart, because the sync round has
    // them: in a sixth to a half of the rounds it takes ~105 ms instead of
    // ~58 ms (most likely the RA's pull just missing a tick of the
    // backed-off reactor). Both figures are taken over the whole run's
    // samples and kept clear of that share: the median holds while it stays
    // below a half, the 95th percentile while it stays above a twentieth
    // (the 75th and the 90th sat on it, and read 93 ms in one run and
    // 133 ms in the next).
    let visible = pooled(&untraced, |r| &r.visible_ms);
    let (visible_p50, visible_p95) = (visible.median(), visible.percentile(95.0));
    let visible_n = visible.len();
    let flight_p50 = lower(&untraced, |r| r.flight_us.median());
    let flight_n = count(&untraced, |r| r.flight_us.len());
    let round_p50 = lower(&untraced, |r| r.round_ms.median());
    // The first flight after a round meets the reactor's back-off (the
    // status connection sat idle while the RA applied the batch) and is
    // left out of the rate; `rt.stall_share` has the share of such flights,
    // `op_p50_us` their cost. The rate is the median over every cycle of
    // the run: a pause of the host takes a few cycles down with it, never
    // half of them.
    let status_rps = pooled(&untraced, |r| &r.cycle_rps).median();
    let first = &untraced[0];
    let dissem =
        (first.cycle_sync.request_bytes + first.cycle_sync.response_bytes) as f64 / BATCH as f64;
    let mut values = Values::default();
    // The user-visible operation here is a revocation becoming visible to
    // a client; the read side is the throughput figure.
    values.set("op_p50_us", visible_p50 * 1e3, visible_n);
    values.set("op_tail_us", visible_p95 * 1e3, visible_n);
    values.set("ops_per_s", status_rps, flight_n);
    values.set("wire_bytes_per_op", dissem, BATCH);
    common.fill(&mut values);
    values.set("status_rps", status_rps, flight_n);
    values.set("flight_p50_us", flight_p50, flight_n);
    values.set(
        "sync_round_p50_ms",
        round_p50,
        count(&untraced, |r| r.round_ms.len()),
    );
    values.set("revocation_visible_p50_ms", visible_p50, visible_n);
    values.set("dissem_bytes_per_revocation", dissem, BATCH);

    let mut budgets = Vec::new();
    if p.trace {
        // On the flight, not on visibility: a traced run has four
        // visibility samples a repetition, and 64 server spans a flight.
        values.set(
            "bench.trace_overhead",
            overhead(flight_p50, lower(&traced, |r| r.flight_us.median())),
            count(&traced, |r| r.flight_us.len()),
        );
        let n = untraced.len();
        values.set(
            "rt.cpu_us_per_request",
            lower(&untraced, |r| r.cpu_us_per_request),
            n,
        );
        values.set(
            "rt.ctx_switches_per_request",
            lower(&untraced, |r| r.ctx_per_request),
            n,
        );
        values.set(
            "rt.stall_share",
            lower(&untraced, |r| r.flight_us.share_above(STALL_US)),
            flight_n,
        );
        values.set(
            "proto.status_frame_bytes",
            first.cycle_status_bytes as f64 / (FLIGHTS_PER_CYCLE * DEPTH) as f64,
            FLIGHTS_PER_CYCLE * DEPTH,
        );
        let hits = pooled(&traced, |r| &r.serve.hit);
        let misses = pooled(&traced, |r| &r.serve.miss);
        values.set("agent.serve_hit_ns", hits.median(), hits.len());
        values.set("agent.serve_miss_ns", misses.median(), misses.len());
        let share = |r: &RepResult| r.served_ns / 1e9 / r.read_s;
        values.set("agent.serve_share", lower(&traced, share), traced.len());
        let revoke = pooled(&untraced, |r| &r.revoke_us);
        let apply = pooled(&untraced, |r| &r.sync_apply_us);
        let edge = pooled(&traced, |r| &r.edge_us);
        values.set("ca.revoke_us", revoke.median(), revoke.len());
        values.set("agent.sync_apply_us", apply.median(), apply.len());
        values.set("cdn.edge_serve_us", edge.median() / 1e3, edge.len());
        values.set(
            "agent.sync_flights_per_round",
            first.cycle_sync.flights as f64,
            1,
        );
        let shadows: Vec<&Shadow> = traced.iter().filter_map(|r| r.shadow.as_ref()).collect();
        shadow::report(&shadows, &mut values);

        // In-process replays on the workload's own serial mix.
        let dict = Dictionary::build("ChurnCA", 3, &plan.base, p.seed);
        let snapshot = dict.mirror().snapshot();
        let mut draws = gen::stream(p.seed, "status_churn/flights");
        let mix = plan.flight(&mut draws, None);
        let revoked: std::collections::HashSet<&SerialNumber> = plan.base.iter().collect();
        let (present, absent): (Vec<SerialNumber>, Vec<SerialNumber>) = plan
            .base
            .iter()
            .take(DEPTH)
            .chain(&mix)
            .partition(|s| revoked.contains(s));
        for (name, serials) in [
            ("dictionary.prove_presence_ns", &present),
            ("dictionary.prove_absence_ns", &absent),
        ] {
            let mut i = 0;
            let ns = micro::ns_per_call(2_000, || {
                i = (i + 1) % serials.len();
                std::hint::black_box(snapshot.proof(&serials[i]));
            });
            values.set(name, ns, serials.len());
        }
        let mut ra = world::new_ra();
        dict.install(&mut ra);
        let reqs: Vec<RitmRequest> = mix
            .iter()
            .map(|&serial| RitmRequest::GetStatus {
                ca: dict.id,
                serial,
            })
            .collect();
        let path = micro::status_path(&StatusService::new(ra.status_server()), &reqs);
        values.set("proto.encode_request_ns", path.encode_request_ns, DEPTH);
        values.set("proto.decode_response_ns", path.decode_response_ns, DEPTH);
        values.set("rt.codec_read_ns", path.codec_read_ns, DEPTH);
        values.set("rt.codec_write_ns", path.codec_write_ns, DEPTH);

        let spans = tracer.finish();
        let layer_median = |ops: &[std::collections::BTreeMap<&'static str, u64>], name: &str| {
            let us: Vec<f64> = ops
                .iter()
                .map(|op| op.get(name).copied().unwrap_or(0) as f64 / 1e3)
                .collect();
            stats::median_of(&us)
        };
        let flight_ops = trace::per_op_layers(&spans, "flight");
        let per_status = |ns: f64| ns * DEPTH as f64 / 1e3;
        budgets.push(Budget {
            operation: "64-deep GetStatus flight (status_churn)",
            layers: vec![
                (
                    "proto.encode_request x64",
                    per_status(path.encode_request_ns),
                ),
                (
                    "agent.serve x64 (span self time, 2 threads)",
                    layer_median(&flight_ops, "agent.serve"),
                ),
                ("rt.codec_write x64", per_status(path.codec_write_ns)),
                ("rt.codec_read x64", per_status(path.codec_read_ns)),
                (
                    "proto.decode_response x64",
                    per_status(path.decode_response_ns),
                ),
            ],
            observed_us: flight_p50,
            residual_to: "rt (socket, reactor tick, kernel)",
        });
        let round_ops = trace::per_op_layers(&spans, "round");
        budgets.push(Budget {
            operation: "revoke 100 + sync round over sockets (status_churn)",
            layers: vec![
                (
                    "ca.revoke (sign, insert, chain, fsync)",
                    layer_median(&round_ops, "ca.revoke"),
                ),
                (
                    "agent.sync (verify, apply, publish)",
                    layer_median(&round_ops, "agent.sync"),
                ),
                (
                    "cdn.serve (edge pull, encode)",
                    layer_median(&round_ops, "cdn.serve"),
                ),
            ],
            observed_us: round_p50 * 1e3,
            residual_to: "rt + proto (sync flights on the socket)",
        });
        crate::write_trace("status_churn", &spans);
    }

    Outcome::new(
        values,
        &oracle,
        plan.hash,
        vec![
            ("revocation visible (ms)", visible),
            ("64-deep flight (us)", pooled(&untraced, |r| &r.flight_us)),
            ("sync round (ms)", pooled(&untraced, |r| &r.round_ms)),
        ],
        budgets,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flights_are_a_function_of_the_seed() {
        let (a, b, c) = (plan(9), plan(9), plan(10));
        assert_eq!(a.hash, b.hash);
        assert_ne!(a.hash, c.hash);
        let draw = |p: &Plan, seed| p.flight(&mut gen::stream(seed, "status_churn/flights"), None);
        assert_eq!(draw(&a, 9), draw(&b, 9));
        assert_ne!(draw(&a, 9), draw(&a, 10));
        let carried = a.flight(&mut gen::stream(9, "x"), Some(SerialNumber::from_u24(5)));
        assert_eq!(
            (carried.len(), carried[0]),
            (DEPTH, SerialNumber::from_u24(5))
        );
        let base: std::collections::HashSet<_> = a.base.iter().collect();
        assert!(a.fresh[..10_000]
            .iter()
            .all(|v| !base.contains(&SerialNumber::from_u24(*v))));
    }
}
