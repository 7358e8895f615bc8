//! TLS session resumption (paper §III: "RITM supports two mechanisms of TLS
//! resumption, namely session identifiers and session tickets").
//!
//! The server keeps a bounded cache of session ids and mints tickets; a
//! client carries the [`SessionState`] (and ticket) of the one session it
//! resumes. The abbreviated handshake skips the Certificate message, which is why the RA keeps per-connection state
//! (Eq. 4) including the serial seen at full-handshake time — resumed
//! connections still receive periodic revocation statuses.

use crate::handshake::SessionTicket;
use ritm_crypto::digest::Digest20;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Default session lifetime in seconds (also the minted ticket lifetime).
/// Sessions older than this fall back to a full handshake.
pub const SESSION_LIFETIME_SECS: u64 = 3600;

/// Data both endpoints retain about an established session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionState {
    /// The session id issued by the server.
    pub session_id: Vec<u8>,
    /// Cipher suite negotiated originally.
    pub cipher_suite: u16,
    /// Hash of the certificate chain presented originally (lets a resuming
    /// client remember which certificate the session is bound to).
    pub cert_chain_hash: Digest20,
    /// Unix time the session was established.
    pub established_at: u64,
}

impl SessionState {
    /// `true` while the session is within `lifetime` seconds of its
    /// establishment (clock skew towards the past counts as fresh).
    fn is_fresh(&self, now: u64, lifetime: u64) -> bool {
        now.saturating_sub(self.established_at) <= lifetime
    }
}

/// Sessions a [`ServerSessionCache`] holds before it forgets the oldest.
/// A constant, not a knob: no caller needs another size, and a resumption
/// that misses only costs a full handshake.
pub const SERVER_SESSION_CACHE_CAPACITY: usize = 256;

/// What the server keeps per session besides the id it is filed under.
#[derive(Debug)]
struct Slot {
    cipher_suite: u16,
    cert_chain_hash: Digest20,
    established_at: u64,
    /// Breaks ties between sessions established in the same second, in
    /// arrival order.
    seq: u64,
}

/// Server-side session cache, keyed by session id and bounded by
/// [`SERVER_SESSION_CACHE_CAPACITY`].
///
/// `by_age` orders the same sessions by establishment time, so making room
/// is popping its first entry; the id bytes are allocated once and shared
/// by both maps.
#[derive(Debug, Default)]
pub struct ServerSessionCache {
    sessions: HashMap<Arc<[u8]>, Slot>,
    by_age: BTreeMap<(u64, u64), Arc<[u8]>>,
    next_seq: u64,
    /// Secret used to mint and validate stateless tickets.
    ticket_secret: [u8; 20],
}

impl ServerSessionCache {
    /// Creates a cache with the given ticket-protection secret.
    pub fn new(ticket_secret: [u8; 20]) -> Self {
        ServerSessionCache {
            ticket_secret,
            ..ServerSessionCache::default()
        }
    }

    /// Stores a session for id-based resumption. Sessions that have
    /// outlived [`SESSION_LIFETIME_SECS`] at `state.established_at` are
    /// dropped first; if the cache is still full, the oldest-established
    /// session makes room.
    pub fn store(&mut self, state: SessionState) {
        let now = state.established_at;
        while let Some(entry) = self.by_age.first_entry() {
            let stale = now.saturating_sub(entry.key().0) > SESSION_LIFETIME_SECS;
            if !stale && self.sessions.len() < SERVER_SESSION_CACHE_CAPACITY {
                break;
            }
            self.sessions.remove(&entry.remove());
        }
        let id: Arc<[u8]> = state.session_id.into();
        let slot = Slot {
            cipher_suite: state.cipher_suite,
            cert_chain_hash: state.cert_chain_hash,
            established_at: state.established_at,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.by_age
            .insert((slot.established_at, slot.seq), Arc::clone(&id));
        if let Some(replaced) = self.sessions.insert(id, slot) {
            self.by_age.remove(&(replaced.established_at, replaced.seq));
        }
    }

    /// Looks up a session by id.
    pub fn lookup(&self, session_id: &[u8]) -> Option<SessionState> {
        let slot = self.sessions.get(session_id)?;
        Some(SessionState {
            session_id: session_id.to_vec(),
            cipher_suite: slot.cipher_suite,
            cert_chain_hash: slot.cert_chain_hash,
            established_at: slot.established_at,
        })
    }

    /// Looks up a session by id, treating sessions older than `lifetime`
    /// seconds as absent — expired entries must fall back to a full
    /// handshake exactly like unknown ids.
    pub fn lookup_fresh(&self, session_id: &[u8], now: u64, lifetime: u64) -> Option<SessionState> {
        self.lookup(session_id)
            .filter(|s| s.is_fresh(now, lifetime))
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no session is cached.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Mints a stateless session ticket: the session state authenticated by
    /// a MAC under the server's ticket secret (stand-in for RFC 5077 ticket
    /// encryption — confidentiality is not needed by the simulation).
    pub fn mint_ticket(&self, state: &SessionState, lifetime: u32) -> SessionTicket {
        let body = Self::ticket_body(state);
        let mac = self.ticket_mac(&body);
        let mut ticket = body;
        ticket.extend_from_slice(mac.as_bytes());
        SessionTicket { lifetime, ticket }
    }

    /// Validates a ticket and recovers the session state.
    pub fn accept_ticket(&self, ticket: &SessionTicket) -> Option<SessionState> {
        let t = &ticket.ticket;
        if t.len() < 20 {
            return None;
        }
        let (body, mac) = t.split_at(t.len() - 20);
        if self.ticket_mac(body).as_bytes()[..] != mac[..] {
            return None;
        }
        Self::parse_ticket_body(body)
    }

    fn ticket_body(state: &SessionState) -> Vec<u8> {
        let mut w = ritm_crypto::wire::Writer::new();
        w.vec8(&state.session_id);
        w.u16(state.cipher_suite);
        w.bytes(state.cert_chain_hash.as_bytes());
        w.u64(state.established_at);
        w.into_bytes()
    }

    fn parse_ticket_body(body: &[u8]) -> Option<SessionState> {
        let mut r = ritm_crypto::wire::Reader::new(body);
        let session_id = r.vec8("ticket session id").ok()?.to_vec();
        let cipher_suite = r.u16("ticket suite").ok()?;
        let cert_chain_hash = Digest20::from_bytes(r.array("ticket cert hash").ok()?);
        let established_at = r.u64("ticket time").ok()?;
        r.finish("ticket trailing").ok()?;
        Some(SessionState {
            session_id,
            cipher_suite,
            cert_chain_hash,
            established_at,
        })
    }

    fn ticket_mac(&self, body: &[u8]) -> Digest20 {
        let mut buf = Vec::with_capacity(20 + body.len());
        buf.extend_from_slice(&self.ticket_secret);
        buf.extend_from_slice(body);
        Digest20::hash(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(id: u8) -> SessionState {
        SessionState {
            session_id: vec![id; 32],
            cipher_suite: 0xc02f,
            cert_chain_hash: Digest20::hash([id]),
            established_at: 1_000,
        }
    }

    #[test]
    fn id_cache_round_trip() {
        let mut cache = ServerSessionCache::new([1u8; 20]);
        cache.store(state(1));
        assert_eq!(cache.lookup(&[1u8; 32]), Some(state(1)));
        assert_eq!(cache.lookup(&[2u8; 32]), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fresh_lookup_expires_old_sessions() {
        let mut cache = ServerSessionCache::new([1u8; 20]);
        cache.store(state(1)); // established_at = 1_000
        assert!(cache.lookup_fresh(&[1u8; 32], 1_000 + 3600, 3600).is_some());
        assert!(cache.lookup_fresh(&[1u8; 32], 1_000 + 3601, 3600).is_none());
        // A clock slightly behind the establishment time still resumes.
        assert!(cache.lookup_fresh(&[1u8; 32], 500, 3600).is_some());
    }

    #[test]
    fn store_makes_room_oldest_established_first() {
        let mut cache = ServerSessionCache::new([1u8; 20]);
        let session = |n: usize, at: u64| SessionState {
            session_id: (n as u64).to_be_bytes().to_vec(),
            established_at: at,
            ..state(0)
        };
        // Arrival order and establishment order differ: the first stored
        // session is the youngest.
        cache.store(session(0, 5_000));
        for n in 1..SERVER_SESSION_CACHE_CAPACITY {
            cache.store(session(n, 1_000 + n as u64));
        }
        assert_eq!(cache.len(), SERVER_SESSION_CACHE_CAPACITY);
        cache.store(session(SERVER_SESSION_CACHE_CAPACITY, 3_000));
        assert_eq!(cache.len(), SERVER_SESSION_CACHE_CAPACITY);
        assert!(cache.lookup(&1u64.to_be_bytes()).is_none(), "oldest went");
        assert!(
            cache.lookup(&0u64.to_be_bytes()).is_some(),
            "youngest stays"
        );
        assert!(cache.lookup(&2u64.to_be_bytes()).is_some());

        // Re-storing an id replaces it without growing either index.
        cache.store(session(2, 3_500));
        assert_eq!(cache.len(), SERVER_SESSION_CACHE_CAPACITY);
        assert_eq!(cache.by_age.len(), SERVER_SESSION_CACHE_CAPACITY);
        assert_eq!(
            cache.lookup(&2u64.to_be_bytes()).unwrap().established_at,
            3_500
        );
    }

    #[test]
    fn store_drops_sessions_past_their_lifetime() {
        let mut cache = ServerSessionCache::new([1u8; 20]);
        for id in 1..=3 {
            cache.store(state(id)); // established_at = 1_000
        }
        let late = SessionState {
            established_at: 1_000 + SESSION_LIFETIME_SECS + 1,
            ..state(9)
        };
        cache.store(late.clone());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.by_age.len(), 1);
        assert_eq!(cache.lookup(&[9u8; 32]), Some(late));
    }

    #[test]
    fn ticket_round_trip() {
        let cache = ServerSessionCache::new([2u8; 20]);
        let t = cache.mint_ticket(&state(3), 3600);
        assert_eq!(t.lifetime, 3600);
        assert_eq!(cache.accept_ticket(&t), Some(state(3)));
    }

    #[test]
    fn tampered_ticket_rejected() {
        let cache = ServerSessionCache::new([2u8; 20]);
        let mut t = cache.mint_ticket(&state(3), 3600);
        t.ticket[0] ^= 1;
        assert_eq!(cache.accept_ticket(&t), None);
    }

    #[test]
    fn ticket_from_other_server_rejected() {
        let a = ServerSessionCache::new([2u8; 20]);
        let b = ServerSessionCache::new([3u8; 20]);
        let t = a.mint_ticket(&state(3), 60);
        assert_eq!(b.accept_ticket(&t), None);
    }

    #[test]
    fn short_ticket_rejected() {
        let cache = ServerSessionCache::new([2u8; 20]);
        assert_eq!(
            cache.accept_ticket(&SessionTicket {
                lifetime: 1,
                ticket: vec![0; 5]
            }),
            None
        );
    }
}
