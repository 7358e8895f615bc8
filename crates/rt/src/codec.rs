//! Incremental codecs for `u32 len ‖ body` frame envelopes.
//!
//! The blocking transports read a frame with `read_exact` — fine when the
//! thread may sleep in the kernel, useless on a non-blocking socket where
//! any read can return a prefix of a frame (or `WouldBlock` mid-prefix).
//! [`FrameReader`] accumulates bytes across any interleaving of partial
//! reads and not-ready signals and emits whole frames (length prefix
//! included, byte-identical to what the peer encoded); [`FrameWriter`]
//! drains queued frames across short writes and `WouldBlock`. Neither
//! knows anything about what the body means — framing only.
//!
//! Both ends batch syscalls: a pipelined flight costs one `read` per
//! burst of frames and one vectored `write` per burst of replies, not one
//! (or two) per frame.
//!
//! * **The read window.** Each `read` asks for up to [`READ_AHEAD`] bytes;
//!   every whole frame in the window is cut out without another syscall,
//!   and a partial frame moves to the front before the next read. A frame
//!   longer than the window grows the buffer to exactly its own end (never
//!   reading past it) and leaves with that buffer, so at a frame boundary
//!   a reader pins at most `READ_AHEAD` bytes however large past frames
//!   were. The length prefix is checked against the reader's cap before
//!   the buffer grows.
//! * **The gather.** [`FrameWriter`] queues *segments* — owned frames, or
//!   an inline header plus an `Arc`-shared body written in place — and
//!   hands up to 128 of them (64 header + body replies) to one
//!   `write_vectored`, without a coalescing copy.
//!
//! Neither end allocates per frame on a steady-state connection: small
//! frames are copied out of the window into pooled buffers, and drained
//! owned segments are recycled into a [`BufPool`] when one is attached.

use crate::pool::BufPool;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::Arc;

/// Length-prefix size: a big-endian `u32` body length.
pub const PREFIX_LEN: usize = 4;

/// Bytes one [`FrameReader`] read asks for, and the window it keeps
/// between frames: 16 KiB holds a 64-deep flight of requests, or about
/// thirty status replies, per syscall.
pub const READ_AHEAD: usize = 16 * 1024;

/// Most capacity a [`FrameReader`] keeps resident at a frame boundary. Its
/// window is [`READ_AHEAD`]; a frame larger than the window is handed off
/// in its own buffer, so one megabyte `Update` page does not pin a
/// megabyte per idle connection.
pub const DEFAULT_RETAIN_CAPACITY: usize = 64 * 1024;

const _: () = assert!(READ_AHEAD <= DEFAULT_RETAIN_CAPACITY);

/// Longest header [`FrameWriter::queue_shared`] accepts (inline storage):
/// `u32 len ‖ version ‖ u32 request-id` is 9 bytes; a little slack keeps
/// the constant honest if a header grows a field.
pub const MAX_SHARED_HEADER_LEN: usize = 12;

/// Most segments one vectored write gathers: 64 header + body replies.
const MAX_IOVECS: usize = 128;

/// Slots gathered when the queue holds no more than this many segments (a
/// few header + body replies), so a shallow write does not clear all
/// [`MAX_IOVECS`] of them.
const FEW_IOVECS: usize = 8;

/// Outcome of one [`FrameReader::poll_frame`] attempt.
#[derive(Debug)]
pub enum FrameRead {
    /// One whole frame (length prefix included).
    Frame(Vec<u8>),
    /// The socket is not ready; resume later — partial progress is kept.
    WouldBlock,
    /// Clean end of stream at a frame boundary.
    Eof,
    /// The stream failed: an I/O error, EOF mid-frame, or a length prefix
    /// past the reader's cap.
    Err(std::io::Error),
}

/// Incremental frame decoder: feed it a (non-blocking) reader as often as
/// readiness allows; it resumes exactly where the last attempt stopped.
#[derive(Debug)]
pub struct FrameReader {
    max_body_len: usize,
    /// The read window: `buf[start..filled]` is read but not yet cut into
    /// frames. Its length is [`READ_AHEAD`] once allocated, or exactly one
    /// frame's length while a frame longer than the window arrives.
    buf: Vec<u8>,
    start: usize,
    filled: usize,
    /// Source of the copied-out frame buffers, when attached.
    pool: Option<BufPool>,
}

impl FrameReader {
    /// A reader that rejects frames whose body length exceeds
    /// `max_body_len` (before allocating for the body).
    pub fn new(max_body_len: usize) -> Self {
        FrameReader {
            max_body_len,
            buf: Vec::new(),
            start: 0,
            filled: 0,
            pool: None,
        }
    }

    /// Like [`new`](FrameReader::new), drawing the buffers it hands out
    /// from `pool` (return them with [`BufPool::put`] once decoded to
    /// close the loop).
    pub fn with_pool(max_body_len: usize, pool: BufPool) -> Self {
        FrameReader {
            pool: Some(pool),
            ..FrameReader::new(max_body_len)
        }
    }

    /// Capacity (bytes) the reader currently pins. At a frame boundary it
    /// is at most [`READ_AHEAD`] however large past frames were.
    pub fn resident_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Attempts to complete the next frame from `io`. Safe to call again
    /// after [`FrameRead::WouldBlock`] — progress is kept across calls.
    /// After [`FrameRead::Err`] the stream is unusable (the frame boundary
    /// is lost).
    pub fn poll_frame(&mut self, io: &mut impl Read) -> FrameRead {
        loop {
            let window = &self.buf[self.start..self.filled];
            // Total bytes the next frame needs, as far as the prefix
            // reveals.
            let need = match window.get(..PREFIX_LEN) {
                None => PREFIX_LEN,
                Some(prefix) => {
                    let len = u32::from_be_bytes(prefix.try_into().expect("4 bytes")) as usize;
                    if len > self.max_body_len {
                        return FrameRead::Err(std::io::Error::new(
                            ErrorKind::InvalidData,
                            "frame length prefix exceeds cap",
                        ));
                    }
                    PREFIX_LEN + len
                }
            };
            if window.len() >= need {
                let frame = if self.buf.len() > READ_AHEAD {
                    // The buffer grew to hold exactly this frame: hand it
                    // off with the frame rather than pin its capacity.
                    self.filled = 0;
                    std::mem::take(&mut self.buf)
                } else {
                    let mut out = self.pool.as_ref().map_or_else(Vec::new, BufPool::get);
                    out.extend_from_slice(&window[..need]);
                    self.start += need;
                    out
                };
                return FrameRead::Frame(frame);
            }
            // No whole frame left: the partial one moves to the front and
            // the next read lands behind it. A frame longer than the window
            // is read to exactly its end, so its buffer holds it alone.
            self.buf.copy_within(self.start..self.filled, 0);
            (self.start, self.filled) = (0, self.filled - self.start);
            let end = need.max(READ_AHEAD);
            self.buf.resize(end, 0);
            match io.read(&mut self.buf[self.filled..end]) {
                Ok(0) => {
                    return if self.filled == 0 {
                        FrameRead::Eof
                    } else {
                        FrameRead::Err(std::io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "stream ended mid-frame",
                        ))
                    };
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return FrameRead::WouldBlock,
                Err(e) => return FrameRead::Err(e),
            }
        }
    }
}

/// Outcome of one [`FrameWriter::poll_write`] attempt.
#[derive(Debug)]
pub enum FrameWrite {
    /// Every queued frame is fully on the wire.
    Done,
    /// The socket is not ready; resume later — the write offset is kept.
    WouldBlock,
    /// The stream failed mid-frame.
    Err(std::io::Error),
}

/// Writes the first `N` segments of `queue` (the first from `offset` on)
/// in one vectored call.
fn write_gathered<const N: usize>(
    queue: &VecDeque<Seg>,
    offset: usize,
    io: &mut impl Write,
) -> std::io::Result<usize> {
    let mut slices = [IoSlice::new(&[]); N];
    let mut count = 0;
    for (slot, seg) in slices.iter_mut().zip(queue) {
        let s = seg.as_slice();
        *slot = IoSlice::new(if count == 0 { &s[offset..] } else { s });
        count += 1;
    }
    io.write_vectored(&slices[..count])
}

/// One queued run of bytes: a whole owned frame, a shared response body,
/// or a small inline header stamped in front of one.
#[derive(Debug)]
enum Seg {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
    Inline {
        len: u8,
        bytes: [u8; MAX_SHARED_HEADER_LEN],
    },
}

impl Seg {
    fn as_slice(&self) -> &[u8] {
        match self {
            Seg::Owned(v) => v,
            Seg::Shared(b) => b,
            Seg::Inline { len, bytes } => &bytes[..*len as usize],
        }
    }
}

/// Incremental frame encoder-side: queue whole frames, drain them across
/// short writes and not-ready signals. Up to 128 queued segments drain
/// through one vectored write, so 64 header + shared body replies go out
/// in a single syscall without a coalescing copy.
#[derive(Debug, Default)]
pub struct FrameWriter {
    queue: VecDeque<Seg>,
    /// Bytes of the front segment already written.
    offset: usize,
    written: u64,
    /// `write_vectored` calls made, `WouldBlock` attempts included.
    write_calls: u64,
    /// Queued-but-unwritten bytes across all frames (the backpressure
    /// signal: a peer that stops reading makes this grow).
    buffered: usize,
    /// Where fully-drained owned buffers are recycled, when attached.
    pool: Option<BufPool>,
}

impl FrameWriter {
    /// An empty writer.
    pub fn new() -> Self {
        FrameWriter::default()
    }

    /// An empty writer recycling fully-written owned frames into `pool`.
    pub fn with_pool(pool: BufPool) -> Self {
        FrameWriter {
            pool: Some(pool),
            ..FrameWriter::default()
        }
    }

    /// Queues one encoded frame (length prefix included) for writing.
    pub fn queue(&mut self, frame: Vec<u8>) {
        self.buffered += frame.len();
        self.queue.push_back(Seg::Owned(frame));
    }

    /// Queues a frame split as `header ‖ body`, where the body bytes are
    /// shared: they are written from the `Arc` in place — one encoded
    /// response serves any number of connections without a copy per
    /// connection. The header (at most [`MAX_SHARED_HEADER_LEN`] bytes —
    /// the per-connection part: length, version, request id) is stored
    /// inline.
    ///
    /// # Panics
    ///
    /// Panics if `header` exceeds [`MAX_SHARED_HEADER_LEN`].
    pub fn queue_shared(&mut self, header: &[u8], body: Arc<[u8]>) {
        assert!(
            header.len() <= MAX_SHARED_HEADER_LEN,
            "shared-frame header exceeds inline storage"
        );
        self.buffered += header.len() + body.len();
        if !header.is_empty() {
            let mut bytes = [0u8; MAX_SHARED_HEADER_LEN];
            bytes[..header.len()].copy_from_slice(header);
            self.queue.push_back(Seg::Inline {
                len: header.len() as u8,
                bytes,
            });
        }
        self.queue.push_back(Seg::Shared(body));
    }

    /// Whether any queued bytes remain unwritten.
    pub fn pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Queued bytes not yet handed to the OS — what a server caps to shed
    /// connections whose peers stop reading.
    pub fn buffered_bytes(&self) -> usize {
        self.buffered
    }

    /// Total bytes fully handed to the OS so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Write syscalls attempted so far (one per vectored write).
    pub fn write_calls(&self) -> u64 {
        self.write_calls
    }

    /// Pushes queued bytes into `io` until done or not ready. Safe to call
    /// again after [`FrameWrite::WouldBlock`] — the offset into the
    /// current segment is kept. Up to 128 queued segments go out per
    /// vectored write.
    pub fn poll_write(&mut self, io: &mut impl Write) -> FrameWrite {
        loop {
            // Retire fully-written front segments (recycling owned
            // buffers) so the gather below always starts mid-segment or
            // at a fresh one.
            while self
                .queue
                .front()
                .is_some_and(|seg| seg.as_slice().len() <= self.offset)
            {
                let seg = self.queue.pop_front().expect("front checked");
                self.offset = 0;
                self.recycle(seg);
            }
            if self.queue.is_empty() {
                return FrameWrite::Done;
            }
            self.write_calls += 1;
            let result = if self.queue.len() <= FEW_IOVECS {
                write_gathered::<FEW_IOVECS>(&self.queue, self.offset, io)
            } else {
                write_gathered::<MAX_IOVECS>(&self.queue, self.offset, io)
            };
            match result {
                Ok(0) => {
                    return FrameWrite::Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => {
                    self.written += n as u64;
                    self.buffered -= n;
                    self.advance(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return FrameWrite::WouldBlock,
                Err(e) => return FrameWrite::Err(e),
            }
        }
    }

    /// Consumes `n` freshly-written bytes off the front of the queue,
    /// popping (and recycling) every segment the write fully covered.
    fn advance(&mut self, mut n: usize) {
        while n > 0 {
            let front_len = self
                .queue
                .front()
                .expect("wrote more bytes than were queued")
                .as_slice()
                .len();
            let remaining = front_len - self.offset;
            if n < remaining {
                self.offset += n;
                return;
            }
            n -= remaining;
            self.offset = 0;
            let seg = self.queue.pop_front().expect("front checked");
            self.recycle(seg);
        }
    }

    fn recycle(&mut self, seg: Seg) {
        if let (Seg::Owned(buf), Some(pool)) = (seg, &self.pool) {
            pool.put(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut f = (body.len() as u32).to_be_bytes().to_vec();
        f.extend_from_slice(body);
        f
    }

    /// A reader serving a script of byte chunks interleaved with
    /// `WouldBlock` signals (`None` entries).
    struct Scripted {
        script: VecDeque<Option<Vec<u8>>>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.script.pop_front() {
                Some(Some(bytes)) => {
                    assert!(bytes.len() <= buf.len(), "script chunk exceeds ask");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(None) => Err(ErrorKind::WouldBlock.into()),
                None => Ok(0), // EOF
            }
        }
    }

    #[test]
    fn one_byte_at_a_time_with_wouldblock_between_every_byte() {
        let frames = [frame(b"hello"), frame(b""), frame(&[0xABu8; 300])];
        let all: Vec<u8> = frames.concat();
        let mut script: VecDeque<Option<Vec<u8>>> = VecDeque::new();
        for b in &all {
            script.push_back(None);
            script.push_back(Some(vec![*b]));
        }
        let mut io = Scripted { script };
        let mut reader = FrameReader::new(1 << 20);
        let mut out = Vec::new();
        loop {
            match reader.poll_frame(&mut io) {
                FrameRead::Frame(f) => out.push(f),
                FrameRead::WouldBlock => continue,
                FrameRead::Eof => break,
                FrameRead::Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(out, frames);
    }

    #[test]
    fn eof_mid_frame_is_an_error_not_a_clean_end() {
        let mut whole = frame(b"truncated");
        whole.truncate(whole.len() - 2);
        let mut io = Scripted {
            script: whole.iter().map(|b| Some(vec![*b])).collect(),
        };
        let mut reader = FrameReader::new(1 << 20);
        loop {
            match reader.poll_frame(&mut io) {
                FrameRead::Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
                    break;
                }
                FrameRead::Frame(_) | FrameRead::Eof => panic!("must error"),
                FrameRead::WouldBlock => continue,
            }
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_body_allocation() {
        let mut io = Scripted {
            script: VecDeque::from([Some((u32::MAX).to_be_bytes().to_vec())]),
        };
        let mut reader = FrameReader::new(1 << 20);
        match reader.poll_frame(&mut io) {
            FrameRead::Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData),
            other => panic!("expected error, got {other:?}"),
        }
    }

    /// Splits frames into the prefix-then-body chunks the reader asks
    /// for (the scripted reader never over-delivers).
    fn scripted(frames: &[Vec<u8>]) -> Scripted {
        let mut script = VecDeque::new();
        for f in frames {
            script.push_back(Some(f[..PREFIX_LEN].to_vec()));
            if f.len() > PREFIX_LEN {
                script.push_back(Some(f[PREFIX_LEN..].to_vec()));
            }
        }
        Scripted { script }
    }

    #[test]
    fn reader_retains_small_buffers_and_sheds_large_ones() {
        let small = frame(&[1u8; 100]);
        let large = frame(&vec![2u8; DEFAULT_RETAIN_CAPACITY + 1]);
        let mut io = scripted(&[small.clone(), small.clone(), large.clone(), small.clone()]);
        let mut reader = FrameReader::new(1 << 24);
        let mut out = Vec::new();
        loop {
            match reader.poll_frame(&mut io) {
                FrameRead::Frame(f) => out.push(f),
                FrameRead::WouldBlock => continue,
                FrameRead::Eof => break,
                FrameRead::Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(out, vec![small.clone(), small.clone(), large, small]);
        // The megagap frame took its buffer with it; at the boundary the
        // reader pins at most a small frame's worth again.
        assert!(
            reader.resident_capacity() <= DEFAULT_RETAIN_CAPACITY,
            "resident {} exceeds retain cap",
            reader.resident_capacity()
        );
    }

    #[test]
    fn pooled_reader_recycles_frame_buffers() {
        let pool = BufPool::default();
        let f = frame(&[9u8; 50]);
        let mut io = scripted(&[f.clone(), f.clone()]);
        let mut reader = FrameReader::with_pool(1 << 20, pool.clone());
        let FrameRead::Frame(first) = reader.poll_frame(&mut io) else {
            panic!("expected a frame");
        };
        assert_eq!(first, f);
        let cap = first.capacity();
        pool.put(first);
        let FrameRead::Frame(second) = reader.poll_frame(&mut io) else {
            panic!("expected a frame");
        };
        assert_eq!(second, f);
        assert_eq!(second.capacity(), cap, "second frame reused the buffer");
        assert_eq!(pool.pooled(), 0);
    }

    /// An in-memory stream that hands each read as much as it asks for,
    /// counting the reads.
    struct Counting<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    #[test]
    fn sixty_four_frames_cost_one_read_per_window() {
        // Status-reply-sized frames: 64 of them span three windows.
        let frames: Vec<Vec<u8>> = (0..64u8).map(|i| frame(&[i; 540])).collect();
        let stream = frames.concat();
        let mut io = Counting {
            bytes: &stream,
            reads: 0,
        };
        let mut reader = FrameReader::new(1 << 20);
        for f in &frames {
            match reader.poll_frame(&mut io) {
                FrameRead::Frame(got) => assert_eq!(&got, f),
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        let bound = stream.len().div_ceil(READ_AHEAD) + 1;
        assert!(
            io.reads <= bound,
            "{} reads for {} bytes (bound {bound})",
            io.reads,
            stream.len()
        );
        assert!(reader.resident_capacity() <= READ_AHEAD);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Any split of a stream of frames (small, window-sized and larger
        /// than the window), with a `WouldBlock` between every two pieces,
        /// yields the identical frames; an over-cap prefix at the end is
        /// rejected before the buffer grows for it.
        #[test]
        fn any_split_of_a_frame_stream_yields_the_same_frames(seed in proptest::prelude::any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            const CAP: usize = 3 * READ_AHEAD;
            let frames: Vec<Vec<u8>> = (0..rng.gen_range(1usize..24))
                .map(|i| {
                    let len = match rng.gen_range(0u8..4) {
                        0 => rng.gen_range(0..16),
                        1 => rng.gen_range(16..READ_AHEAD),
                        2 => rng.gen_range(READ_AHEAD - 8..READ_AHEAD + 8),
                        _ => rng.gen_range(READ_AHEAD..=CAP),
                    };
                    frame(&vec![i as u8; len])
                })
                .collect();
            let over_cap = rng.gen_bool(0.5);
            let mut stream = frames.concat();
            if over_cap {
                stream.extend_from_slice(&(CAP as u32 + 1).to_be_bytes());
                stream.extend_from_slice(&[0xEE; 64]);
            }
            let mut script = VecDeque::new();
            let mut at = 0;
            while at < stream.len() {
                let piece = rng.gen_range(1..=(stream.len() - at).min(2 * READ_AHEAD));
                script.push_back(Some(stream[at..at + piece].to_vec()));
                script.push_back(None);
                at += piece;
            }
            let mut io = Split { script };
            let mut reader = FrameReader::new(CAP);
            let mut got = Vec::new();
            let end = loop {
                match reader.poll_frame(&mut io) {
                    FrameRead::Frame(f) => got.push(f),
                    FrameRead::WouldBlock => continue,
                    other => break other,
                }
            };
            proptest::prop_assert_eq!(got, frames);
            if over_cap {
                let FrameRead::Err(e) = end else {
                    panic!("over-cap prefix accepted: {end:?}");
                };
                proptest::prop_assert_eq!(e.kind(), ErrorKind::InvalidData);
                proptest::prop_assert!(reader.resident_capacity() <= READ_AHEAD);
            } else {
                proptest::prop_assert!(matches!(end, FrameRead::Eof));
            }
        }
    }

    /// Like [`Scripted`], but a piece longer than the read's ask is split
    /// and its rest served next.
    struct Split {
        script: VecDeque<Option<Vec<u8>>>,
    }

    impl Read for Split {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.script.pop_front() {
                Some(Some(mut bytes)) => {
                    if bytes.len() > buf.len() {
                        self.script.push_front(Some(bytes.split_off(buf.len())));
                    }
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(None) => Err(ErrorKind::WouldBlock.into()),
                None => Ok(0),
            }
        }
    }

    /// A writer accepting at most `cap` bytes per call, interleaving
    /// `WouldBlock` on a stride.
    struct Dribble {
        accepted: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.cap);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A writer with a real `write_vectored`, accepting at most `cap`
    /// bytes per call across however many slices that spans — exercises
    /// the multi-segment advance accounting.
    struct Gather {
        accepted: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Gather {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut left = self.cap;
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(left);
                self.accepted.extend_from_slice(&b[..take]);
                n += take;
                left -= take;
                if left == 0 {
                    break;
                }
            }
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_and_wouldblock_resume_to_identical_bytes() {
        let frames = [frame(b"alpha"), frame(&[7u8; 129]), frame(b"")];
        let mut writer = FrameWriter::new();
        for f in &frames {
            writer.queue(f.clone());
        }
        let mut io = Dribble {
            accepted: Vec::new(),
            cap: 2,
            calls: 0,
        };
        loop {
            match writer.poll_write(&mut io) {
                FrameWrite::Done => break,
                FrameWrite::WouldBlock => continue,
                FrameWrite::Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(io.accepted, frames.concat());
        assert_eq!(writer.written(), frames.concat().len() as u64);
        assert!(!writer.pending());
        assert_eq!(writer.buffered_bytes(), 0);
    }

    #[test]
    fn buffered_bytes_tracks_the_unwritten_backlog() {
        let mut writer = FrameWriter::new();
        writer.queue(frame(&[1u8; 10]));
        writer.queue(frame(&[2u8; 6]));
        assert_eq!(writer.buffered_bytes(), 14 + 10);
        let mut io = Dribble {
            accepted: Vec::new(),
            cap: 5,
            calls: 0,
        };
        // One partial drain: the backlog shrinks by exactly what the OS
        // accepted, across frame boundaries.
        let _ = writer.poll_write(&mut io);
        assert_eq!(writer.buffered_bytes(), 24 - io.accepted.len());
    }

    #[test]
    fn shared_bodies_interleave_with_owned_frames_byte_identically() {
        let body: Arc<[u8]> = Arc::from(&[0xCDu8; 200][..]);
        let mut header = ((body.len() + 1) as u32).to_be_bytes().to_vec();
        header.push(1); // version byte, part of the frame body
        let owned = frame(b"plain");
        let mut writer = FrameWriter::new();
        writer.queue(owned.clone());
        writer.queue_shared(&header, Arc::clone(&body));
        writer.queue(owned.clone());
        assert_eq!(
            writer.buffered_bytes(),
            2 * owned.len() + header.len() + body.len()
        );
        let mut expected = owned.clone();
        expected.extend_from_slice(&header);
        expected.extend_from_slice(&body);
        expected.extend_from_slice(&owned);
        // Once through a dribbling scalar writer...
        let mut io = Dribble {
            accepted: Vec::new(),
            cap: 3,
            calls: 0,
        };
        loop {
            match writer.poll_write(&mut io) {
                FrameWrite::Done => break,
                FrameWrite::WouldBlock => continue,
                FrameWrite::Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(io.accepted, expected);
        assert_eq!(writer.buffered_bytes(), 0);
        // ...and once through a genuinely vectored one.
        let mut writer = FrameWriter::new();
        writer.queue(owned.clone());
        writer.queue_shared(&header, Arc::clone(&body));
        writer.queue(owned);
        let mut io = Gather {
            accepted: Vec::new(),
            cap: 7,
            calls: 0,
        };
        loop {
            match writer.poll_write(&mut io) {
                FrameWrite::Done => break,
                FrameWrite::WouldBlock => continue,
                FrameWrite::Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(io.accepted, expected);
        // The drained queue dropped its clone: the body was shared, not
        // copied.
        assert_eq!(Arc::strong_count(&body), 1);
    }

    #[test]
    fn drained_owned_frames_are_recycled_into_the_pool() {
        let pool = BufPool::default();
        let mut writer = FrameWriter::with_pool(pool.clone());
        writer.queue(frame(&[3u8; 40]));
        writer.queue(frame(&[4u8; 40]));
        let mut io = Gather {
            accepted: Vec::new(),
            cap: usize::MAX,
            calls: 0,
        };
        loop {
            match writer.poll_write(&mut io) {
                FrameWrite::Done => break,
                FrameWrite::WouldBlock => continue,
                FrameWrite::Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(pool.pooled(), 2, "both drained frames returned to pool");
    }

    #[test]
    fn sixty_four_shared_replies_leave_in_one_vectored_write() {
        let body: Arc<[u8]> = Arc::from(&[0x5Au8; 535][..]);
        let mut writer = FrameWriter::new();
        let mut expected = Vec::new();
        for id in 0..64u32 {
            let mut header = ((body.len() + 5) as u32).to_be_bytes().to_vec();
            header.push(2);
            header.extend_from_slice(&id.to_be_bytes());
            writer.queue_shared(&header, Arc::clone(&body));
            expected.extend_from_slice(&header);
            expected.extend_from_slice(&body);
        }
        let mut io = Gather {
            accepted: Vec::new(),
            cap: usize::MAX,
            calls: 0,
        };
        assert!(matches!(writer.poll_write(&mut io), FrameWrite::Done));
        assert_eq!(io.calls, 1, "64 replies took {} writes", io.calls);
        assert_eq!(writer.write_calls(), 1);
        assert_eq!(io.accepted, expected);
    }
}
