//! Direct timings of single public calls, on the workload's own objects:
//! the in-process halves of the budget, replayed after the traced
//! repetitions. Each figure is the median over batches of the mean time
//! per call, so one scheduler hiccup cannot move it.

use crate::metrics::Values;
use crate::world::{Dictionary, CHAIN_LEN};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_crypto::hashchain::HashChain;
use ritm_proto::{Frame, RitmRequest, RitmResponse, Service, MAX_FRAME_LEN};
use ritm_rt::{FrameRead, FrameReader, FrameWrite, FrameWriter};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 15;

/// Median over [`BATCHES`] batches of the mean nanoseconds per call of `f`;
/// each batch runs `calls` calls.
pub fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[BATCHES / 2]
}

/// What one `GetStatus` costs in process, layer by layer, in nanoseconds.
pub struct StatusPath {
    pub encode_request_ns: f64,
    pub serve_ns: f64,
    pub codec_write_ns: f64,
    pub codec_read_ns: f64,
    pub decode_response_ns: f64,
}

impl StatusPath {
    pub fn sum_ns(&self) -> f64 {
        self.encode_request_ns
            + self.serve_ns
            + self.codec_write_ns
            + self.codec_read_ns
            + self.decode_response_ns
    }
}

/// Replays `reqs` through the same calls a socket round trip makes, minus
/// the socket: v2 request encode → `Service::serve_frame` → reply through
/// the frame writer and reader → envelope decode.
pub fn status_path(service: &dyn Service, reqs: &[RitmRequest]) -> StatusPath {
    let n = reqs.len();
    let mut i = 0usize;
    let mut next = move || {
        i = (i + 1) % n;
        i
    };
    let mut buf = Vec::with_capacity(256);
    let encode_request_ns = ns_per_call(2_000, || {
        buf.clear();
        reqs[next()].to_frame_v2_into(7, &mut buf);
        black_box(&buf);
    });
    let frames: Vec<Vec<u8>> = reqs.iter().map(|r| r.to_frame_v2(7)).collect();
    let serve_ns = ns_per_call(2_000, || {
        black_box(service.serve_frame(&frames[next()]));
    });
    let replies: Vec<Frame> = frames.iter().map(|f| service.serve_frame(f)).collect();
    let mut writer = FrameWriter::new();
    let mut sink: Vec<u8> = Vec::with_capacity(4096);
    let codec_write_ns = ns_per_call(2_000, || {
        sink.clear();
        replies[next()].clone().queue_onto(&mut writer);
        while !matches!(writer.poll_write(&mut sink), FrameWrite::Done) {}
        black_box(&sink);
    });
    let wire: Vec<Vec<u8>> = replies.iter().map(Frame::to_vec).collect();
    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    let codec_read_ns = ns_per_call(2_000, || {
        let mut io = &wire[next()][..];
        match reader.poll_frame(&mut io) {
            FrameRead::Frame(f) => {
                black_box(f);
            }
            other => panic!("in-memory frame did not complete: {other:?}"),
        }
    });
    let decode_response_ns = ns_per_call(2_000, || {
        let (body, _) = ritm_proto::split_frame(&wire[next()]).expect("a whole frame");
        black_box(RitmResponse::decode_envelope(body).expect("a reply the service encoded"));
    });
    StatusPath {
        encode_request_ns,
        serve_ns,
        codec_write_ns,
        codec_read_ns,
        decode_response_ns,
    }
}

/// Signature, verification and hash-chain costs on the dictionary's own
/// signed root.
pub fn crypto(values: &mut Values, dict: &Dictionary) {
    let root = *dict.dict.signed_root();
    let msg = root.to_bytes();
    let sign = ns_per_call(40, || {
        black_box(dict.signing.sign(black_box(&msg)));
    });
    let verify = ns_per_call(40, || {
        black_box(root.verify(&dict.key)).expect("the CA's own root");
    });
    let mut rng = StdRng::seed_from_u64(1);
    let chain = ns_per_call(20, || {
        black_box(HashChain::generate(&mut rng, CHAIN_LEN));
    });
    values.set("crypto.sign_us", sign / 1e3, 40 * BATCHES);
    values.set("crypto.verify_us", verify / 1e3, 40 * BATCHES);
    values.set(
        "crypto.hashchain_ns",
        chain / CHAIN_LEN as f64,
        20 * BATCHES,
    );
}
