//! Client-side status fetching over the wire protocol.
//!
//! The in-path deployment piggybacks statuses on TLS records, but the same
//! validation logic also backs a *pull* model: a client (or an auditor, or
//! a test harness) asks an RA endpoint for a chain's statuses through any
//! [`Transport`] and runs the full §III step-5 acceptance policy on the
//! response. This replaces the hand-fed payload plumbing the integration
//! tests used before the protocol existed — the bytes validated here are
//! exactly the bytes a real endpoint served. Multi-chain fetches
//! ([`fetch_and_validate_many`]) ride one pipelined flight; on an
//! envelope-v2 event transport the flight is multiplexed by request id,
//! so one slow chain cannot head-of-line block the others' verdicts.

use crate::validator::{validate_payload_tracked, RootTracker, ValidationError, Verdict};
use ritm_crypto::ed25519::VerifyingKey;
use ritm_dictionary::{CaId, SerialNumber};
use ritm_proto::{
    ProtoError, RitmRequest, RitmResponse, StatusPayload, Transport, TransportError, TransportMeta,
};
use std::collections::HashMap;

/// Why a status fetch produced no verdict.
#[derive(Debug)]
pub enum FetchError {
    /// The transport failed (no decodable response).
    Transport(TransportError),
    /// The endpoint answered with a typed protocol error.
    Service(ProtoError),
    /// The endpoint answered with a non-status response kind.
    UnexpectedResponse(&'static str),
    /// The payload arrived but failed the acceptance policy.
    Validation(ValidationError),
}

impl core::fmt::Display for FetchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FetchError::Transport(e) => write!(f, "status fetch transport failure: {e}"),
            FetchError::Service(e) => write!(f, "endpoint refused status fetch: {e}"),
            FetchError::UnexpectedResponse(kind) => {
                write!(f, "endpoint answered with unexpected kind {kind}")
            }
            FetchError::Validation(e) => write!(f, "fetched status rejected: {e}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// A fetched-and-validated chain status.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchedStatus {
    /// The served payload (individual and/or compressed statuses).
    pub payload: StatusPayload,
    /// The acceptance-policy verdict.
    pub verdict: Verdict,
    /// Byte/latency accounting for the round trip.
    pub meta: TransportMeta,
}

/// Unwraps one completed round trip into its status payload, mapping the
/// error paths identically for the single and batched fetch entry points.
fn unwrap_status(
    rt: Result<ritm_proto::RoundTrip, ritm_proto::TransportError>,
) -> Result<(StatusPayload, TransportMeta), FetchError> {
    let rt = rt.map_err(FetchError::Transport)?;
    match rt.response {
        RitmResponse::Status(payload) => Ok((payload, rt.meta)),
        RitmResponse::Error(e) => Err(FetchError::Service(e)),
        other => Err(FetchError::UnexpectedResponse(other.kind_name())),
    }
}

/// Fetches the raw status payload for `chain` from an RA endpoint.
///
/// # Errors
///
/// [`FetchError::Transport`]/[`FetchError::Service`] when no payload came
/// back; [`FetchError::UnexpectedResponse`] on a mismatched response kind.
pub fn fetch_status<T: Transport>(
    transport: &mut T,
    chain: &[(CaId, SerialNumber)],
) -> Result<(StatusPayload, TransportMeta), FetchError> {
    unwrap_status(transport.round_trip(&status_request(chain)))
}

/// The `GetMultiStatus` request for `chain`. The RA ignores its `compress`
/// byte: a same-CA run past the leaf always comes back as one multiproof.
fn status_request(chain: &[(CaId, SerialNumber)]) -> RitmRequest {
    RitmRequest::GetMultiStatus {
        chain: chain.to_vec(),
        compress: true,
    }
}

/// Fetches `chain`'s statuses and runs the full acceptance policy
/// (signatures, absence proofs, ≤2Δ freshness, root-replay protection via
/// `tracker`).
///
/// # Errors
///
/// See [`FetchError`]. A successful return may still carry
/// [`Verdict::Revoked`] — that is a *valid* (and urgent) answer.
pub fn fetch_and_validate<T: Transport>(
    transport: &mut T,
    chain: &[(CaId, SerialNumber)],
    ca_keys: &HashMap<CaId, VerifyingKey>,
    delta: u64,
    now: u64,
    tracker: &mut RootTracker,
) -> Result<FetchedStatus, FetchError> {
    fetch_and_validate_many(transport, &[chain], ca_keys, delta, now, tracker)
        .pop()
        .expect("one chain yields one result")
}

/// Fetches and validates statuses for several independent chains in one
/// pipelined flight ([`Transport::round_trip_many`]): all `GetMultiStatus`
/// requests go onto the wire together, so on the event-driven transport N
/// chains cost ~1 RTT instead of N — the shape of a client (or terminating
/// middlebox) revalidating many open connections at a Δ boundary.
///
/// Results come back in `chains` order, each independently carrying its
/// verdict or [`FetchError`]; `tracker` is advanced across the whole
/// batch in that same order.
pub fn fetch_and_validate_many<T: Transport>(
    transport: &mut T,
    chains: &[&[(CaId, SerialNumber)]],
    ca_keys: &HashMap<CaId, VerifyingKey>,
    delta: u64,
    now: u64,
    tracker: &mut RootTracker,
) -> Vec<Result<FetchedStatus, FetchError>> {
    let reqs: Vec<RitmRequest> = chains.iter().map(|chain| status_request(chain)).collect();
    let round_trips = transport.round_trip_many(&reqs);
    chains
        .iter()
        .zip(round_trips)
        .map(|(chain, rt)| {
            let (payload, meta) = unwrap_status(rt)?;
            let verdict = validate_payload_tracked(&payload, chain, ca_keys, delta, now, tracker)
                .map_err(FetchError::Validation)?;
            Ok(FetchedStatus {
                payload,
                verdict,
                meta,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_agent::{RaConfig, RevocationAgent, StatusService};
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::CaDictionary;
    use ritm_proto::Loopback;

    const T0: u64 = 1_000_000;

    fn world(revoked: &[u32]) -> (CaDictionary, RevocationAgent, HashMap<CaId, VerifyingKey>) {
        let mut rng = StdRng::seed_from_u64(41);
        let mut ca = CaDictionary::new(
            CaId::from_name("FetchCA"),
            SigningKey::from_seed([1u8; 32]),
            10,
            1 << 10,
            &mut rng,
            T0,
        );
        let mut ra = RevocationAgent::new(RaConfig::default());
        ra.follow_ca(ca.ca(), ca.verifying_key(), *ca.signed_root())
            .unwrap();
        if !revoked.is_empty() {
            let serials: Vec<SerialNumber> =
                revoked.iter().map(|&v| SerialNumber::from_u24(v)).collect();
            let iss = ca.insert(&serials, &mut rng, T0 + 1).unwrap();
            ra.mirror_mut(&ca.ca())
                .unwrap()
                .apply_issuance(&iss, T0 + 1)
                .unwrap();
        }
        let mut keys = HashMap::new();
        keys.insert(ca.ca(), ca.verifying_key());
        (ca, ra, keys)
    }

    #[test]
    fn fetched_status_validates_end_to_end() {
        let (ca, ra, keys) = world(&[100, 102, 104]);
        let mut transport = Loopback::new(StatusService::new(ra.status_server()));
        let chain = [(ca.ca(), SerialNumber::from_u24(555))];
        let mut tracker = RootTracker::new();
        let out = fetch_and_validate(&mut transport, &chain, &keys, 10, T0 + 2, &mut tracker)
            .expect("serves and validates");
        assert_eq!(out.verdict, Verdict::AllValid);
        assert!(out.meta.response_bytes > 0);
        assert!(tracker.newest(&ca.ca()).is_some(), "tracker advanced");
    }

    #[test]
    fn revoked_serial_is_a_verdict_not_an_error() {
        let (ca, ra, keys) = world(&[100]);
        let mut transport = Loopback::new(StatusService::new(ra.status_server()));
        let chain = [(ca.ca(), SerialNumber::from_u24(100))];
        let out = fetch_and_validate(
            &mut transport,
            &chain,
            &keys,
            10,
            T0 + 2,
            &mut RootTracker::new(),
        )
        .unwrap();
        assert!(matches!(out.verdict, Verdict::Revoked { serial, .. }
            if serial == SerialNumber::from_u24(100)));
    }

    #[test]
    fn batched_chains_validate_in_order_with_one_tracker() {
        let (ca, ra, keys) = world(&[100, 102, 104]);
        let mut transport = Loopback::new(StatusService::new(ra.status_server()));
        let revoked = [(ca.ca(), SerialNumber::from_u24(102))];
        let valid = [(ca.ca(), SerialNumber::from_u24(555))];
        let stranger = [(CaId::from_name("stranger"), SerialNumber::from_u24(1))];
        let chains: [&[(CaId, SerialNumber)]; 3] = [&revoked, &valid, &stranger];
        let mut tracker = RootTracker::new();
        let results =
            fetch_and_validate_many(&mut transport, &chains, &keys, 10, T0 + 2, &mut tracker);
        assert_eq!(results.len(), 3);
        assert!(matches!(
            results[0].as_ref().unwrap().verdict,
            Verdict::Revoked { serial, .. } if serial == SerialNumber::from_u24(102)
        ));
        assert_eq!(results[1].as_ref().unwrap().verdict, Verdict::AllValid);
        // A per-chain failure stays per-chain: the batch's other results
        // are unaffected and the tracker still advanced.
        assert!(matches!(
            results[2],
            Err(FetchError::Service(ProtoError::NotFound))
        ));
        assert!(tracker.newest(&ca.ca()).is_some());
    }

    #[test]
    fn unmirrored_ca_surfaces_the_service_error() {
        let (_, ra, _) = world(&[]);
        let mut transport = Loopback::new(StatusService::new(ra.status_server()));
        let chain = [(CaId::from_name("stranger"), SerialNumber::from_u24(1))];
        match fetch_status(&mut transport, &chain) {
            // The RA stays silent about *which* CA it cannot prove.
            Err(FetchError::Service(ProtoError::NotFound)) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }
    }
}
