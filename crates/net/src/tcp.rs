//! TCP-like segments and the connection 4-tuple.
//!
//! RAs identify RITM-supported connections by the `(sIP, sPort, dIP, dPort)`
//! tuple (Eq. 4 of the paper) and, when piggybacking a revocation status,
//! must extend a segment's payload and adjust sequence numbers for the rest
//! of the session (§VIII, option 1/3). This module models exactly the fields
//! that machinery needs.

use ritm_crypto::wire::{DecodeError, Reader, Writer};

/// An IPv4-style address (host id) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u32);

impl core::fmt::Display for Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// A socket endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketAddr {
    /// Host address.
    pub addr: Addr,
    /// Port.
    pub port: u16,
}

impl SocketAddr {
    /// Creates an endpoint.
    pub fn new(addr: u32, port: u16) -> Self {
        SocketAddr {
            addr: Addr(addr),
            port,
        }
    }
}

impl core::fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// The connection 4-tuple as the *client* sees it (client = source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FourTuple {
    /// Client endpoint (`sIP:sPort` in Eq. 4).
    pub client: SocketAddr,
    /// Server endpoint (`dIP:dPort` in Eq. 4).
    pub server: SocketAddr,
}

impl core::fmt::Display for FourTuple {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} -> {}", self.client, self.server)
    }
}

/// Direction of a segment relative to the 4-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → server.
    ToServer,
    /// Server → client.
    ToClient,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::ToServer => Direction::ToClient,
            Direction::ToClient => Direction::ToServer,
        }
    }
}

/// TCP segment control flags (only the ones the simulation needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Connection open.
    pub syn: bool,
    /// Connection close.
    pub fin: bool,
    /// Abort.
    pub rst: bool,
}

/// A TCP-like segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Connection this segment belongs to.
    pub tuple: FourTuple,
    /// Direction of travel.
    pub direction: Direction,
    /// Sequence number of the first payload byte.
    pub seq: u64,
    /// Acknowledgement number (next expected byte from the peer).
    pub ack: u64,
    /// Control flags.
    pub flags: TcpFlags,
    /// Payload bytes (TLS records in this system).
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// A data segment.
    pub fn data(
        tuple: FourTuple,
        direction: Direction,
        seq: u64,
        ack: u64,
        payload: Vec<u8>,
    ) -> Self {
        TcpSegment {
            tuple,
            direction,
            seq,
            ack,
            flags: TcpFlags::default(),
            payload,
        }
    }

    /// Sequence number of the byte *after* this payload.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.payload.len() as u64
    }

    /// On-wire size: a 40-byte IP+TCP header plus payload (used for
    /// bandwidth accounting).
    pub fn wire_len(&self) -> usize {
        40 + self.payload.len()
    }

    /// Serializes the segment (for traces and hashing).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.tuple.client.addr.0);
        w.u16(self.tuple.client.port);
        w.u32(self.tuple.server.addr.0);
        w.u16(self.tuple.server.port);
        w.u8(match self.direction {
            Direction::ToServer => 0,
            Direction::ToClient => 1,
        });
        w.u64(self.seq);
        w.u64(self.ack);
        w.u8(u8::from(self.flags.syn)
            | u8::from(self.flags.fin) << 1
            | u8::from(self.flags.rst) << 2);
        w.vec24(&self.payload);
        w.into_bytes()
    }

    /// Parses a segment.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let tuple = FourTuple {
            client: SocketAddr::new(r.u32("client addr")?, r.u16("client port")?),
            server: SocketAddr::new(r.u32("server addr")?, r.u16("server port")?),
        };
        let direction = match r.u8("direction")? {
            0 => Direction::ToServer,
            1 => Direction::ToClient,
            _ => return Err(DecodeError::new("bad direction", r.position())),
        };
        let seq = r.u64("seq")?;
        let ack = r.u64("ack")?;
        let fl = r.u8("flags")?;
        let flags = TcpFlags {
            syn: fl & 1 != 0,
            fin: fl & 2 != 0,
            rst: fl & 4 != 0,
        };
        let payload = r.vec24("payload")?.to_vec();
        r.finish("segment trailing")?;
        Ok(TcpSegment {
            tuple,
            direction,
            seq,
            ack,
            flags,
            payload,
        })
    }
}

/// Per-connection sequence-number translation for a middlebox that changes
/// the length of the server→client stream (paper §VIII: "the RA must adjust
/// the sequence numbers of the TCP session").
///
/// The shift is signed: injecting a status record lengthens what the client
/// sees, and replacing an upstream RA's status with a shorter one shortens
/// it. With a net shift of `d` bytes toward the client:
/// * server→client segments sent after the change have their `seq` moved by
///   `+d` (the client's view of the stream is `d` bytes longer);
/// * client→server segments acknowledge `d` more bytes than the server
///   sent, so their `ack` is moved by `−d`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqTranslator {
    /// Client-side stream length minus server-side stream length so far.
    shift: i64,
}

impl SeqTranslator {
    /// Creates a no-op translator.
    pub fn new() -> Self {
        SeqTranslator::default()
    }

    /// Net bytes added to (positive) or removed from (negative) the
    /// server→client stream so far.
    pub fn shift(&self) -> i64 {
        self.shift
    }

    /// Records that the server→client stream grew by `delta` bytes
    /// (shrank, when negative) at the current position.
    pub fn shift_by(&mut self, delta: i64) {
        self.shift += delta;
    }

    /// Rewrites a segment in flight. Must be called on *every* segment of
    /// the connection after the first change.
    pub fn translate(&self, seg: &mut TcpSegment) {
        match seg.direction {
            Direction::ToClient => {
                seg.seq = seg.seq.saturating_add_signed(self.shift);
                // The server's ack of client bytes is unaffected.
            }
            Direction::ToServer => {
                seg.ack = seg.ack.saturating_add_signed(-self.shift);
            }
        }
    }
}

/// Turns one direction of a byte stream into sequenced [`TcpSegment`]s —
/// the bridge from real sockets (the event runtime's relay tasks) into the
/// segment-granular interfaces ([`Middlebox`](crate::middlebox::Middlebox),
/// flow reassembly) that expect Eq. (4)-shaped traffic.
#[derive(Debug, Clone)]
pub struct StreamSegmenter {
    tuple: FourTuple,
    direction: Direction,
    seq: u64,
}

impl StreamSegmenter {
    /// Creates a segmenter for one direction of `tuple`, starting at
    /// sequence number `isn`.
    pub fn new(tuple: FourTuple, direction: Direction, isn: u64) -> Self {
        StreamSegmenter {
            tuple,
            direction,
            seq: isn,
        }
    }

    /// Next sequence number this direction will emit.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Wraps `payload` in the next in-order segment.
    pub fn push(&mut self, payload: &[u8]) -> TcpSegment {
        let seg = TcpSegment {
            tuple: self.tuple,
            direction: self.direction,
            seq: self.seq,
            ack: 0,
            flags: TcpFlags::default(),
            payload: payload.to_vec(),
        };
        self.seq += payload.len() as u64;
        seg
    }

    /// Emits an empty FIN segment closing this direction.
    pub fn fin(&mut self) -> TcpSegment {
        let mut seg = self.push(&[]);
        seg.flags.fin = true;
        seg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FourTuple {
        FourTuple {
            client: SocketAddr::new(0x0c22_384e, 9012), // 12.34.56.78 (paper Fig. 3)
            server: SocketAddr::new(0x624c_3620, 443),  // 98.76.54.32
        }
    }

    #[test]
    fn display_matches_paper_example() {
        let t = tuple();
        assert_eq!(t.to_string(), "12.34.56.78:9012 -> 98.76.54.32:443");
    }

    #[test]
    fn segment_round_trip() {
        let seg = TcpSegment {
            tuple: tuple(),
            direction: Direction::ToClient,
            seq: 1000,
            ack: 555,
            flags: TcpFlags {
                syn: false,
                fin: true,
                rst: false,
            },
            payload: vec![1, 2, 3],
        };
        assert_eq!(TcpSegment::from_bytes(&seg.to_bytes()).unwrap(), seg);
    }

    #[test]
    fn seq_end_and_wire_len() {
        let seg = TcpSegment::data(tuple(), Direction::ToServer, 100, 0, vec![0; 10]);
        assert_eq!(seg.seq_end(), 110);
        assert_eq!(seg.wire_len(), 50);
    }

    #[test]
    fn translator_shifts_both_directions() {
        let mut tr = SeqTranslator::new();
        tr.shift_by(700);
        let mut down = TcpSegment::data(tuple(), Direction::ToClient, 5000, 42, vec![1]);
        tr.translate(&mut down);
        assert_eq!(down.seq, 5700);
        assert_eq!(down.ack, 42, "server's ack of client bytes untouched");

        let mut up = TcpSegment::data(tuple(), Direction::ToServer, 42, 5701, vec![]);
        tr.translate(&mut up);
        assert_eq!(up.ack, 5001, "client acks are shifted back down");
        assert_eq!(up.seq, 42);
    }

    #[test]
    fn translator_accumulates() {
        let mut tr = SeqTranslator::new();
        tr.shift_by(100);
        tr.shift_by(200);
        assert_eq!(tr.shift(), 300);
        // A shorter replacement moves the shift back down, below zero if
        // the stream ends up shorter than the server sent it.
        tr.shift_by(-350);
        assert_eq!(tr.shift(), -50);
        let mut down = TcpSegment::data(tuple(), Direction::ToClient, 5000, 42, vec![1]);
        tr.translate(&mut down);
        assert_eq!(down.seq, 4950);
        let mut up = TcpSegment::data(tuple(), Direction::ToServer, 42, 4951, vec![]);
        tr.translate(&mut up);
        assert_eq!(up.ack, 5001);
    }

    #[test]
    fn noop_translator_is_identity() {
        let tr = SeqTranslator::new();
        let orig = TcpSegment::data(tuple(), Direction::ToClient, 7, 8, vec![9]);
        let mut seg = orig.clone();
        tr.translate(&mut seg);
        assert_eq!(seg, orig);
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::ToServer.flip(), Direction::ToClient);
        assert_eq!(Direction::ToClient.flip(), Direction::ToServer);
    }

    #[test]
    fn truncated_segment_rejected() {
        let seg = TcpSegment::data(tuple(), Direction::ToServer, 1, 2, vec![3; 10]);
        let bytes = seg.to_bytes();
        assert!(TcpSegment::from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }
}
