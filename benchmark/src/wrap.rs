//! Benchmark-owned wrappers that time and count at the two seams every
//! message crosses: the [`Service`] a server mounts and the [`Transport`]
//! a client speaks through.

use crate::stats::Samples;
use crate::trace::{Tracer, NO_PARENT};
use ritm_dictionary::SerialNumber;
use ritm_net::time::SimDuration;
use ritm_proto::message::RequestEnvelope;
use ritm_proto::{Frame, RitmRequest, RitmResponse, RoundTrip, Service, Transport, TransportError};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Service times a [`TracedService`] collected, in nanoseconds.
#[derive(Debug, Default)]
pub struct ServeTimes {
    /// `GetStatus` for a `(serial, generation)` already served once: the
    /// encoded-response cache can answer it.
    pub hit: Samples,
    /// `GetStatus` for a `(serial, generation)` not served before.
    pub miss: Samples,
    /// Every other request kind.
    pub other: Samples,
}

/// Times every request a service answers and records it as a span.
///
/// Forwards **every** `Service` method to the wrapped service's method of
/// the same name — `serve_frame` and `serve_envelope` included — so the
/// path measured is the zero-copy one the bare service would have taken,
/// and the bytes on the wire are identical.
pub struct TracedService<S> {
    inner: S,
    tracer: Arc<Tracer>,
    span: &'static str,
    /// Bumped by the generator after each publish; keys the hit/miss split.
    generation: Arc<AtomicU64>,
    seen: Mutex<HashSet<(SerialNumber, u64)>>,
    times: Mutex<ServeTimes>,
}

enum Class {
    Hit,
    Miss,
    Other,
}

impl<S: Service> TracedService<S> {
    pub fn new(
        inner: S,
        tracer: Arc<Tracer>,
        span: &'static str,
        generation: Arc<AtomicU64>,
    ) -> Self {
        TracedService {
            inner,
            tracer,
            span,
            generation,
            seen: Mutex::new(HashSet::new()),
            times: Mutex::new(ServeTimes::default()),
        }
    }

    /// Takes the service times collected so far.
    pub fn take_times(&self) -> ServeTimes {
        std::mem::take(&mut *self.times.lock().expect("serve times"))
    }

    fn classify(&self, req: Option<&RitmRequest>) -> Class {
        match req {
            Some(RitmRequest::GetStatus { serial, .. }) => {
                let generation = self.generation.load(Ordering::Relaxed);
                let mut seen = self.seen.lock().expect("seen set");
                if seen.insert((*serial, generation)) {
                    Class::Miss
                } else {
                    Class::Hit
                }
            }
            _ => Class::Other,
        }
    }

    fn timed<T>(&self, class: Class, op_id: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = self.tracer.orphan(self.span, op_id, f);
        let ns = t.elapsed().as_nanos() as f64;
        let mut times = self.times.lock().expect("serve times");
        match class {
            Class::Hit => times.hit.push(ns),
            Class::Miss => times.miss.push(ns),
            Class::Other => times.other.push(ns),
        }
        out
    }

    fn classify_frame(&self, frame: &[u8]) -> (Class, u64) {
        match ritm_proto::split_frame(frame) {
            Ok((body, _)) => {
                let (_, id) = ritm_proto::peek_request_envelope(body);
                let req = RitmRequest::decode_body(body).ok();
                (self.classify(req.as_ref()), u64::from(id))
            }
            Err(_) => (Class::Other, 0),
        }
    }
}

impl<S: Service> Service for TracedService<S> {
    fn handle(&self, req: RitmRequest) -> RitmResponse {
        let class = self.classify(Some(&req));
        self.timed(class, 0, || self.inner.handle(req))
    }

    fn take_latency(&self) -> SimDuration {
        self.inner.take_latency()
    }

    fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        let (class, id) = self.classify_frame(frame);
        self.timed(class, id, || self.inner.handle_frame(frame))
    }

    fn handle_envelope(&self, env: RequestEnvelope) -> Vec<u8> {
        let class = self.classify(env.request.as_ref().ok());
        let id = u64::from(env.request_id);
        self.timed(class, id, || self.inner.handle_envelope(env))
    }

    fn serve_frame(&self, frame: &[u8]) -> Frame {
        let (class, id) = self.classify_frame(frame);
        self.timed(class, id, || self.inner.serve_frame(frame))
    }

    fn serve_envelope(&self, env: RequestEnvelope) -> Frame {
        let class = self.classify(env.request.as_ref().ok());
        let id = u64::from(env.request_id);
        self.timed(class, id, || self.inner.serve_envelope(env))
    }
}

/// What a server mounts for one repetition: the bare service untraced,
/// the same service behind a [`TracedService`] (whose handle is returned,
/// for its service times) traced.
pub fn mount<S: Service + 'static>(
    service: S,
    traced: bool,
    tracer: &Arc<Tracer>,
    span: &'static str,
    generation: &Arc<AtomicU64>,
) -> (Arc<dyn Service>, Option<Arc<TracedService<S>>>) {
    if traced {
        let t = Arc::new(TracedService::new(
            service,
            Arc::clone(tracer),
            span,
            Arc::clone(generation),
        ));
        (Arc::clone(&t) as Arc<dyn Service>, Some(t))
    } else {
        (Arc::new(service), None)
    }
}

/// What crossed a [`CountingTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Calls to `round_trip` / `round_trip_many`.
    pub flights: u64,
    pub requests: u64,
    /// Whole encoded frames, length prefix included.
    pub request_bytes: u64,
    pub response_bytes: u64,
    /// `DeltaPage` replies (one per paged catch-up step).
    pub catchup_pages: u64,
    /// Round trips that produced no decodable response.
    pub transport_errors: u64,
    /// Wall time spent inside the wrapped transport.
    pub inside_ns: u64,
}

impl Traffic {
    /// What crossed since the `earlier` reading.
    pub fn since(&self, earlier: &Traffic) -> Traffic {
        Traffic {
            flights: self.flights - earlier.flights,
            requests: self.requests - earlier.requests,
            request_bytes: self.request_bytes - earlier.request_bytes,
            response_bytes: self.response_bytes - earlier.response_bytes,
            catchup_pages: self.catchup_pages - earlier.catchup_pages,
            transport_errors: self.transport_errors - earlier.transport_errors,
            inside_ns: self.inside_ns - earlier.inside_ns,
        }
    }
}

/// Counts frames and bytes on one client connection and times the wrapped
/// transport, so a caller's own share (`sync_via` minus the wire) can be
/// told apart. Byte counts are the exact encoded frame sizes the transport
/// reports — identical whichever transport carried them.
pub struct CountingTransport<T> {
    inner: T,
    tracer: Arc<Tracer>,
    /// The generator span the next flights belong to.
    pub parent: u32,
    /// Round / flight index stamped on the spans.
    pub op_id: u64,
    traffic: Traffic,
}

impl<T: Transport> CountingTransport<T> {
    pub fn new(inner: T, tracer: Arc<Tracer>) -> Self {
        CountingTransport {
            inner,
            tracer,
            parent: NO_PARENT,
            op_id: 0,
            traffic: Traffic::default(),
        }
    }

    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    fn account(&mut self, result: &Result<RoundTrip, TransportError>) {
        self.traffic.requests += 1;
        match result {
            Ok(rt) => {
                self.traffic.request_bytes += rt.meta.request_bytes;
                self.traffic.response_bytes += rt.meta.response_bytes;
                if matches!(rt.response, RitmResponse::DeltaPage { .. }) {
                    self.traffic.catchup_pages += 1;
                }
            }
            Err(_) => self.traffic.transport_errors += 1,
        }
    }
}

impl<T: Transport> Transport for CountingTransport<T> {
    fn round_trip(&mut self, req: &RitmRequest) -> Result<RoundTrip, TransportError> {
        let t = Instant::now();
        let span = self.tracer.open("proto.transport", self.op_id, self.parent);
        let result = self.inner.round_trip(req);
        self.tracer.close(span);
        self.traffic.inside_ns += t.elapsed().as_nanos() as u64;
        self.traffic.flights += 1;
        self.account(&result);
        result
    }

    fn round_trip_many(&mut self, reqs: &[RitmRequest]) -> Vec<Result<RoundTrip, TransportError>> {
        let t = Instant::now();
        let span = self.tracer.open("proto.transport", self.op_id, self.parent);
        let results = self.inner.round_trip_many(reqs);
        self.tracer.close(span);
        self.traffic.inside_ns += t.elapsed().as_nanos() as u64;
        self.traffic.flights += 1;
        for r in &results {
            self.account(r);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{self, Dictionary};
    use ritm_agent::StatusService;
    use ritm_dictionary::CaId;
    use ritm_proto::Loopback;

    fn services() -> (Dictionary, StatusService, TracedService<StatusService>) {
        let serials: Vec<SerialNumber> = (1..=200).map(|i| SerialNumber::from_u24(i * 3)).collect();
        let dict = Dictionary::build("WrapCA", 1, &serials, 5);
        let mut ra = world::new_ra();
        dict.install(&mut ra);
        let bare = StatusService::new(ra.status_server());
        let traced = TracedService::new(
            bare.clone(),
            Arc::new(Tracer::new(true)),
            "agent.serve",
            Arc::new(AtomicU64::new(0)),
        );
        (dict, bare, traced)
    }

    fn requests(ca: CaId) -> Vec<RitmRequest> {
        vec![
            RitmRequest::GetStatus {
                ca,
                serial: SerialNumber::from_u24(9),
            },
            RitmRequest::GetStatus {
                ca,
                serial: SerialNumber::from_u24(10),
            },
            RitmRequest::GetMultiStatus {
                chain: vec![
                    (ca, SerialNumber::from_u24(9)),
                    (ca, SerialNumber::from_u24(11)),
                ],
                compress: true,
            },
            RitmRequest::GetSignedRoot { ca },
            // Refused kinds and unknown CAs must come back identically too.
            RitmRequest::FetchDelta { ca },
            RitmRequest::GetStatus {
                ca: CaId::from_name("nobody"),
                serial: SerialNumber::from_u24(9),
            },
        ]
    }

    #[test]
    fn traced_service_answers_byte_identically_on_every_entry_point() {
        let (dict, bare, traced) = services();
        for req in requests(dict.id) {
            for frame in [req.to_frame(), req.to_frame_v2(41)] {
                assert_eq!(traced.handle_frame(&frame), bare.handle_frame(&frame));
                assert_eq!(
                    traced.serve_frame(&frame).to_vec(),
                    bare.serve_frame(&frame).to_vec()
                );
                let (body, _) = ritm_proto::split_frame(&frame).unwrap();
                assert_eq!(
                    traced
                        .serve_envelope(RequestEnvelope::decode(body))
                        .to_vec(),
                    bare.serve_envelope(RequestEnvelope::decode(body)).to_vec()
                );
                assert_eq!(
                    traced.handle_envelope(RequestEnvelope::decode(body)),
                    bare.handle_envelope(RequestEnvelope::decode(body))
                );
            }
            assert_eq!(traced.handle(req.clone()), bare.handle(req));
        }
        // Garbage in, the same typed error out.
        assert_eq!(
            traced.handle_frame(&[1, 2, 3]),
            bare.handle_frame(&[1, 2, 3])
        );
        assert_eq!(
            traced.serve_frame(&[0, 0, 0, 9, 7]).to_vec(),
            bare.serve_frame(&[0, 0, 0, 9, 7]).to_vec()
        );
    }

    #[test]
    fn the_zero_copy_path_stays_zero_copy_behind_the_wrapper() {
        let (dict, _, traced) = services();
        let frame = requests(dict.id)[0].to_frame_v2(7);
        traced.serve_frame(&frame);
        // Second time round the encoded cache answers with a shared body.
        assert!(matches!(
            traced.serve_frame(&frame).body(),
            ritm_proto::Body::Shared(_)
        ));
    }

    #[test]
    fn first_sight_of_a_serial_in_a_generation_is_a_miss() {
        let (dict, _, traced) = services();
        let reqs = requests(dict.id);
        let frame = reqs[0].to_frame_v2(1);
        traced.serve_frame(&frame);
        traced.serve_frame(&frame);
        traced.serve_frame(&reqs[3].to_frame_v2(2));
        traced.generation.fetch_add(1, Ordering::Relaxed);
        traced.serve_frame(&frame);
        let times = traced.take_times();
        assert_eq!(
            (times.miss.len(), times.hit.len(), times.other.len()),
            (2, 1, 1)
        );
        // One span per request, stamped with the request id.
        let spans = traced.tracer.finish();
        assert_eq!(
            spans.iter().map(|s| s.op_id).collect::<Vec<_>>(),
            vec![1, 1, 2, 1]
        );
        assert!(spans.iter().all(|s| s.name == "agent.serve"));
    }

    #[test]
    fn counting_transport_counts_exact_frame_bytes() {
        let (dict, bare, _) = services();
        let mut t = CountingTransport::new(Loopback::new(bare), Arc::new(Tracer::new(false)));
        let reqs = requests(dict.id);
        let one = t.round_trip(&reqs[0]).unwrap();
        let many = t.round_trip_many(&reqs[1..3]);
        let traffic = t.traffic();
        assert_eq!(
            (traffic.flights, traffic.requests, traffic.transport_errors),
            (2, 3, 0)
        );
        let want_req: u64 = reqs[..3].iter().map(|r| r.to_frame().len() as u64).sum();
        assert_eq!(traffic.request_bytes, want_req);
        let want_resp = one.meta.response_bytes
            + many
                .iter()
                .map(|r| r.as_ref().unwrap().meta.response_bytes)
                .sum::<u64>();
        assert_eq!(traffic.response_bytes, want_resp);
        assert_eq!(traffic.since(&traffic), Traffic::default());
    }
}
