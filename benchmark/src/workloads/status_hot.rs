//! `status_hot` — the smallest message over a real socket.
//!
//! One v2 connection, depth 1: the generator sends one `GetStatus`, waits
//! for the reply, sends the next. The RA's `StatusService` is mounted on
//! an `EventServer` on a benchmark-owned two-thread runtime; its 100k-leaf
//! dictionary is built at dictionary level. Eight hot serials (four
//! revoked, four absent) are asked for round-robin, so after warm-up every
//! reply is an encoded-response-cache hit: `dictionary`, `crypto`, `ca` and
//! `tls` do nothing, and `rt`, `proto` and the kernel do all of it.

use super::{count, higher, lower, overhead, pooled, Budget, Common, Outcome, Params};
use crate::gen::{self, InputHash};
use crate::metrics::Values;
use crate::micro;
use crate::oracle::Oracle;
use crate::stats::{self, Samples, Sorted};
use crate::sys;
use crate::trace::{self, Tracer, NO_PARENT};
use crate::world::{self, Dictionary, DELTA, T0};
use crate::wrap::{self, ServeTimes};
use ritm_agent::StatusService;
use ritm_dictionary::SerialNumber;
use ritm_proto::{EventServer, EventServerConfig, EventTransport, RitmRequest, Transport};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LEAVES: u32 = 100_000;
const UNIVERSE: u32 = 1_000_000;
const HOT: usize = 8;
/// Depth-1 warm-up flights (the issue's count). The price is a noisy
/// `setup_s`: each of these flights risks a 50 ms stall.
const WARMUP_FLIGHTS: usize = 200;
const NOW: u64 = T0 + 1;
/// A round trip slower than this met a reactor back-off, not work.
const STALL_US: f64 = 10_000.0;

/// The seed's inputs: the dictionary population and the hot set.
struct Inputs {
    revoked: Vec<SerialNumber>,
    /// Four revoked then four absent serials, asked for in this order.
    hot: Vec<SerialNumber>,
    hash: u64,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = gen::stream(seed, "status_hot");
    let perm = gen::permutation(&mut rng, 1, UNIVERSE);
    let serial = |v: &u32| SerialNumber::from_u24(*v);
    let revoked: Vec<SerialNumber> = perm[..LEAVES as usize].iter().map(serial).collect();
    let mut hot: Vec<SerialNumber> = revoked[..HOT / 2].to_vec();
    hot.extend(perm[LEAVES as usize..][..HOT / 2].iter().map(serial));
    let mut hash = InputHash::new();
    for s in revoked.iter().chain(&hot) {
        hash.feed_bytes(s.as_bytes());
    }
    Inputs {
        revoked,
        hot,
        hash: hash.finish(),
    }
}

/// What one repetition measured.
struct RepResult {
    rtt_us: Sorted,
    /// Request + response frame bytes of one pass over the hot set.
    cycle_bytes: u64,
    cpu_us_per_request: f64,
    ctx_per_request: f64,
    serve: ServeTimes,
}

pub fn run(p: &Params) -> Outcome {
    let shared = Instant::now();
    let input = inputs(p.seed);
    let dict = Dictionary::build("HotCA", 1, &input.revoked, p.seed);
    let shared = shared.elapsed();
    let mut oracle = Oracle::new(DELTA);
    oracle.pin(dict.id, dict.key);
    for s in &input.revoked {
        oracle.revoke(dict.id, *s);
    }
    let reqs: Vec<RitmRequest> = input
        .hot
        .iter()
        .map(|&serial| RitmRequest::GetStatus {
            ca: dict.id,
            serial,
        })
        .collect();

    let tracer = Arc::new(Tracer::new(p.trace));
    let mut common = Common::default();
    let (mut untraced, mut traced): (Vec<RepResult>, Vec<RepResult>) = (Vec::new(), Vec::new());
    let mut op = 0u64;
    for rep in p.reps() {
        let setup = Instant::now();
        // A fresh RA, server, runtime and connection per repetition.
        let mut ra = world::new_ra();
        dict.install(&mut ra);
        let (mounted, traced_service) = wrap::mount(
            StatusService::new(ra.status_server()),
            rep.traced,
            &tracer,
            "agent.serve",
            &Arc::new(AtomicU64::new(0)),
        );
        let runtime = ritm_rt::Executor::new(2);
        let server =
            EventServer::spawn_on(mounted, &runtime.handle(), EventServerConfig::default())
                .expect("bind a loopback listener");
        let mut transport = EventTransport::connect(server.addr()).expect("connect to the server");
        for i in 0..WARMUP_FLIGHTS {
            let reply = transport.round_trip(&reqs[i % HOT]);
            oracle.check_status(dict.id, input.hot[i % HOT], &reply, NOW);
        }
        if let Some(t) = &traced_service {
            t.take_times(); // warm-up misses are not the hot path
        }
        // Every repetition is charged the inputs' one-off build as well.
        common.setup_done(setup - shared);

        let mut rtt_us = Samples::with_capacity(1 << 16);
        let mut cycle_bytes = 0u64;
        let (cpu0, ctx0) = (sys::cpu_time_us(), sys::voluntary_ctx_switches());
        let deadline = Instant::now() + Duration::from_secs_f64(rep.seconds);
        let mut cycles = 0u64;
        // Whole passes over the hot set, so byte counts are exact.
        while Instant::now() < deadline {
            for (i, req) in reqs.iter().enumerate() {
                tracer.reserve(2);
                let span = if rep.traced {
                    tracer.open("status_rtt", op, NO_PARENT)
                } else {
                    NO_PARENT
                };
                let t = Instant::now();
                let reply = transport.round_trip(req);
                rtt_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                tracer.close(span);
                op += 1;
                if cycles == 0 {
                    if let Ok(rt) = &reply {
                        cycle_bytes += rt.meta.request_bytes + rt.meta.response_bytes;
                    }
                }
                oracle.check_status(dict.id, input.hot[i], &reply, NOW);
            }
            cycles += 1;
        }
        let n = rtt_us.len() as f64;
        let result = RepResult {
            cycle_bytes,
            cpu_us_per_request: (sys::cpu_time_us() - cpu0) as f64 / n,
            ctx_per_request: (sys::voluntary_ctx_switches() - ctx0) as f64 / n,
            serve: traced_service
                .as_ref()
                .map(|t| t.take_times())
                .unwrap_or_default(),
            rtt_us: rtt_us.sorted(),
        };
        if rep.traced {
            &mut traced
        } else {
            &mut untraced
        }
        .push(result);

        drop(transport);
        let served = server.shutdown();
        runtime.shutdown();
        oracle.check(served > 0, || "the server served nothing".into());
    }

    // End-to-end figures: untraced repetitions only.
    let p50 = lower(&untraced, |r| r.rtt_us.median());
    let p99 = lower(&untraced, |r| r.rtt_us.percentile(99.0));
    let samples = count(&untraced, |r| r.rtt_us.len());
    let bytes_per_request = untraced[0].cycle_bytes as f64 / HOT as f64;
    let mut values = Values::default();
    values.set("op_p50_us", p50, samples);
    values.set("op_tail_us", p99, samples);
    // At depth 1 the rate is the reciprocal of the latency. It is taken at
    // the median round trip: a mean would be set by how many round trips
    // met the reactor's back-off (2 ms for one in ten, 50 ms for one in
    // thirty), which moved it by 40 % between identical runs.
    values.set(
        "ops_per_s",
        higher(&untraced, |r| 1e6 / r.rtt_us.median()),
        samples,
    );
    values.set("wire_bytes_per_op", bytes_per_request, HOT);
    common.fill(&mut values);
    values.set("status_rtt_p50_us", p50, samples);
    values.set("status_rtt_p99_us", p99, samples);
    values.set(
        "rt.stall_share",
        lower(&untraced, |r| r.rtt_us.share_above(STALL_US)),
        samples,
    );
    values.set("proto.status_frame_bytes", bytes_per_request, HOT);

    let mut budgets = Vec::new();
    if p.trace {
        let traced_p50 = lower(&traced, |r| r.rtt_us.median());
        let mut hits = Samples::default();
        for r in &traced {
            hits.extend(&r.serve.hit);
        }
        let hits = hits.sorted();
        values.set(
            "bench.trace_overhead",
            overhead(p50, traced_p50),
            count(&traced, |r| r.rtt_us.len()),
        );
        values.set(
            "rt.cpu_us_per_request",
            lower(&untraced, |r| r.cpu_us_per_request),
            untraced.len(),
        );
        values.set(
            "rt.ctx_switches_per_request",
            lower(&untraced, |r| r.ctx_per_request),
            untraced.len(),
        );
        values.set("agent.serve_hit_ns", hits.median(), hits.len());
        // No miss is possible after warm-up; the metric stays 0 here.

        // The in-process half: the same requests through the same calls,
        // minus the socket.
        let mut ra = world::new_ra();
        dict.install(&mut ra);
        let service = StatusService::new(ra.status_server());
        let path = micro::status_path(&service, &reqs);
        values.set("proto.encode_request_ns", path.encode_request_ns, HOT);
        values.set("proto.decode_response_ns", path.decode_response_ns, HOT);
        values.set("rt.codec_read_ns", path.codec_read_ns, HOT);
        values.set("rt.codec_write_ns", path.codec_write_ns, HOT);
        let served_ns = if hits.len() > 0 {
            hits.median()
        } else {
            path.serve_ns
        };
        let in_process_us = (path.sum_ns() - path.serve_ns + served_ns) / 1e3;
        values.set("rt.socket_residual_us", p50 - in_process_us, samples);
        values.set("agent.serve_share", served_ns / 1e3 / p50, hits.len());

        let spans = tracer.finish();
        let served_in_span: Vec<f64> = trace::per_op_layers(&spans, "status_rtt")
            .iter()
            .map(|op| op.get("agent.serve").copied().unwrap_or(0) as f64 / 1e3)
            .collect();
        budgets.push(Budget {
            operation: "GetStatus round trip, depth 1 (status_hot)",
            layers: vec![
                ("proto.encode_request", path.encode_request_ns / 1e3),
                (
                    "agent.serve (span self time)",
                    stats::median_of(&served_in_span),
                ),
                ("rt.codec_write", path.codec_write_ns / 1e3),
                ("rt.codec_read", path.codec_read_ns / 1e3),
                ("proto.decode_response", path.decode_response_ns / 1e3),
            ],
            observed_us: p50,
            residual_to: "rt (socket, reactor tick, kernel)",
        });
        crate::write_trace("status_hot", &spans);
    }

    Outcome::new(
        values,
        &oracle,
        input.hash,
        vec![(
            "GetStatus round trip (us)",
            pooled(&untraced, |r| &r.rtt_us),
        )],
        budgets,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(inputs(5).hash, inputs(5).hash);
        assert_ne!(inputs(5).hash, inputs(6).hash);
        let i = inputs(5);
        assert_eq!((i.revoked.len(), i.hot.len()), (LEAVES as usize, HOT));
        let revoked: std::collections::HashSet<_> = i.revoked.iter().collect();
        assert!(i.hot[..4].iter().all(|s| revoked.contains(s)));
        assert!(i.hot[4..].iter().all(|s| !revoked.contains(s)));
    }
}
