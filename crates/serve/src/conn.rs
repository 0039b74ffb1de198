//! Per-connection state machine for the reactor.
//!
//! A reactor connection is a pair of pumps over a nonblocking socket:
//! the *read side* feeds readiness-triggered bytes through a
//! [`FrameAccumulator`] and yields complete request payloads; the
//! *write side* drains a [`WriteBuffer`] that resumes cleanly from
//! partial writes (`EAGAIN` after `n` of `m` bytes), so a frame is
//! never interleaved with or truncated by a slow-draining peer.
//!
//! Everything here is transport-generic (`Read`/`Write` bounds, no
//! sockets), which is what makes the state machine unit-testable: the
//! tests below drive it over deliberately fragmenting transports that
//! return one byte at a time, inject `Interrupted`, and starve writes
//! with `WouldBlock` mid-frame.

use crate::proto::{FrameAccumulator, ProtoError};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::Instant;

/// Pending frames a single connection may queue behind its in-flight
/// request before the loop stops reading from it (kernel-buffer
/// backpressure: the bytes stay in the socket until the pipeline
/// drains).
pub const MAX_PENDING_FRAMES: usize = 32;

/// An outgoing byte queue that survives partial writes.
///
/// `push_frame` appends a length-prefixed frame; `flush_to` writes as
/// much as the transport accepts and remembers the cursor, so the next
/// readiness event resumes exactly where the last short write stopped.
/// This is the fix for the frame-interleaving hazard: a frame's bytes
/// are committed to the buffer atomically and leave it strictly in
/// order, no matter how the transport fragments them.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the transport.
    head: usize,
    /// Largest pending depth ever observed, bytes.
    high_water: usize,
}

impl WriteBuffer {
    /// An empty buffer.
    pub fn new() -> WriteBuffer {
        WriteBuffer::default()
    }

    /// Bytes still waiting to be written.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether everything pushed has been flushed.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Largest pending depth ever observed, bytes.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Appends one length-prefixed frame (the wire format of
    /// [`crate::proto::write_frame`]) as a single atomic unit.
    pub fn push_frame(&mut self, payload: &[u8]) {
        let len = payload.len() as u32;
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.high_water = self.high_water.max(self.pending());
    }

    /// Writes as much pending data as `w` accepts right now.
    ///
    /// Returns the bytes written by this call. `Interrupted` is retried
    /// in place; `WouldBlock`/`TimedOut` stop the flush without error
    /// (the caller re-arms for writability); any other error propagates.
    /// A transport that accepts zero bytes without erroring surfaces as
    /// `WriteZero` so a dead peer cannot spin the loop.
    pub fn flush_to<W: Write>(&mut self, w: &mut W) -> io::Result<usize> {
        let mut written = 0;
        while self.head < self.buf.len() {
            match w.write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepts no bytes",
                    ))
                }
                Ok(n) => {
                    self.head += n;
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break
                }
                Err(e) => return Err(e),
            }
        }
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > 4096 {
            // Compact occasionally so a long-lived slow reader does not
            // pin an ever-growing prefix of written bytes.
            self.buf.drain(..self.head);
            self.head = 0;
        }
        Ok(written)
    }
}

/// What one read-readiness pass produced.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadEvent {
    /// Connection stays open; frames (possibly none) were extracted.
    Open,
    /// Peer half-closed its write side (EOF); flush what is owed, then
    /// close.
    PeerClosed,
    /// Peer declared a frame beyond the cap — answer with one typed
    /// error, then close.
    FrameTooLarge(usize),
    /// Unrecoverable transport error; close immediately.
    Failed,
}

/// The per-connection state the reactor keeps per registered socket.
pub struct ConnState {
    acc: FrameAccumulator,
    /// Complete request payloads queued behind the in-flight one.
    pub pending: VecDeque<Vec<u8>>,
    /// A request from this connection is executing on the worker pool.
    pub in_flight: bool,
    /// Buffered response bytes awaiting socket writability.
    pub outbox: WriteBuffer,
    /// Close once the outbox drains (malformed peer, shed follow-up).
    pub close_after_flush: bool,
    /// The announced length of an over-cap frame read behind requests
    /// still owed an answer. Its `Error` goes out in its turn, after
    /// theirs; nothing more is read from the connection meanwhile.
    pub oversized: Option<usize>,
    /// Peer sent EOF; no more reads, close when idle.
    pub peer_closed: bool,
    /// When the partially assembled frame's first byte arrived. A frame
    /// must complete within the server's stall timeout of this instant —
    /// dripping one byte per poll cannot push the deadline out, which is
    /// what makes the timeout slow-loris-proof.
    pub frame_started: Option<Instant>,
    /// Last time the outbox made progress (slow-reader stall clock).
    pub last_write: Instant,
}

impl ConnState {
    /// Fresh state for a just-accepted connection.
    pub fn new(now: Instant) -> ConnState {
        ConnState {
            acc: FrameAccumulator::new(),
            pending: VecDeque::new(),
            in_flight: false,
            outbox: WriteBuffer::new(),
            close_after_flush: false,
            oversized: None,
            peer_closed: false,
            frame_started: None,
            last_write: now,
        }
    }

    /// Whether a request frame is partially assembled.
    pub fn mid_frame(&self) -> bool {
        self.acc.is_partial()
    }

    /// Whether the in-progress frame has been assembling for longer than
    /// `stall`: the slow-loris cut-off.
    pub fn frame_stalled(&self, stall: std::time::Duration, now: Instant) -> bool {
        self.frame_started
            .is_some_and(|t| now.duration_since(t) > stall)
    }

    /// Idle at a frame boundary with nothing owed: safe to close during
    /// drain.
    pub fn idle(&self) -> bool {
        !self.mid_frame() && !self.in_flight && self.pending.is_empty() && self.outbox.is_empty()
    }

    /// Whether the pipeline is full and reading should stop. While this
    /// holds the reactor drops `EPOLLIN` from the connection's interest
    /// — with level-triggered epoll, staying subscribed to a socket we
    /// refuse to read would re-report it on every `epoll_wait` and spin
    /// the loop hot exactly when the server is saturated. Unread bytes
    /// wait in the kernel buffer; interest is re-armed as completions
    /// shrink the queue.
    pub fn read_paused(&self) -> bool {
        self.pending.len() >= MAX_PENDING_FRAMES || self.oversized.is_some()
    }

    /// Pumps the read side after a readiness event: feeds reads through
    /// the accumulator until the transport would block, the pending
    /// queue fills ([`MAX_PENDING_FRAMES`] — backpressure by not
    /// reading), or the connection ends. Extracted payloads are appended
    /// to `frames`.
    pub fn read_ready<R: Read>(
        &mut self,
        r: &mut R,
        max_frame_bytes: usize,
        frames: &mut Vec<Vec<u8>>,
    ) -> ReadEvent {
        loop {
            if self.pending.len() + frames.len() >= MAX_PENDING_FRAMES {
                return ReadEvent::Open;
            }
            match self.acc.poll(r, max_frame_bytes) {
                Ok(Some(payload)) => {
                    self.frame_started = None;
                    frames.push(payload);
                }
                Ok(None) => {
                    // Progress without a complete frame — more bytes may
                    // already be buffered, keep pulling. The deadline is
                    // anchored to the frame's *first* byte on purpose.
                    if self.frame_started.is_none() && self.acc.is_partial() {
                        self.frame_started = Some(Instant::now());
                    }
                }
                Err(ProtoError::Io(e))
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return ReadEvent::Open;
                }
                Err(ProtoError::Io(e)) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(ProtoError::ConnectionClosed) => return ReadEvent::PeerClosed,
                Err(ProtoError::FrameTooLarge(n)) => {
                    // The frame will never be read: no stall clock runs.
                    self.frame_started = None;
                    return ReadEvent::FrameTooLarge(n);
                }
                Err(_) => return ReadEvent::Failed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_frame};

    /// A transport that accepts at most `chunk` bytes per call and
    /// injects `Interrupted` and `WouldBlock` on a schedule — the
    /// nastiest legal behaviour of a nonblocking socket.
    struct Fragmenting {
        sink: Vec<u8>,
        chunk: usize,
        calls: usize,
        interrupt_every: usize,
        block_every: usize,
    }

    impl Fragmenting {
        fn new(chunk: usize) -> Fragmenting {
            Fragmenting {
                sink: Vec::new(),
                chunk,
                calls: 0,
                interrupt_every: 3,
                block_every: 5,
            }
        }
    }

    impl Write for Fragmenting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt_every > 0 && self.calls % self.interrupt_every == 0 {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            if self.block_every > 0 && self.calls % self.block_every == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "eagain"));
            }
            let n = buf.len().min(self.chunk);
            self.sink.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Reads that hand out one byte at a time, then block.
    struct DripReader {
        data: Vec<u8>,
        pos: usize,
        per_call: usize,
    }

    impl Read for DripReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "dry"));
            }
            let n = buf.len().min(self.per_call).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn write_buffer_resumes_partial_writes_without_interleaving() {
        let mut wb = WriteBuffer::new();
        wb.push_frame(b"first frame payload");
        wb.push_frame(b"second");
        let mut t = Fragmenting::new(3);
        // Pump until drained; WouldBlock returns are re-entered like an
        // EPOLLOUT readiness event would.
        let mut guard = 0;
        while !wb.is_empty() {
            wb.flush_to(&mut t).unwrap();
            guard += 1;
            assert!(guard < 1000, "flush loop did not converge");
        }
        // The receiver sees two intact, in-order frames.
        let mut r = &t.sink[..];
        assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), b"first frame payload");
        assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), b"second");
        assert!(r.is_empty());
        assert!(wb.high_water() >= b"first frame payload".len() + b"second".len());
    }

    #[test]
    fn write_buffer_matches_write_frame_bytes_exactly() {
        // The buffer's framing must be byte-identical to the blocking
        // path's write_frame (the client's), or the two ends would
        // disagree on the wire.
        let payload = b"identical bytes please";
        let mut direct = Vec::new();
        write_frame(&mut direct, payload).unwrap();
        let mut wb = WriteBuffer::new();
        wb.push_frame(payload);
        let mut sink = Vec::new();
        wb.flush_to(&mut sink).unwrap();
        assert_eq!(sink, direct);
    }

    #[test]
    fn write_zero_is_an_error_not_a_spin() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wb = WriteBuffer::new();
        wb.push_frame(b"x");
        let err = wb.flush_to(&mut Dead).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn read_side_reassembles_one_byte_drip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"slow but valid").unwrap();
        write_frame(&mut wire, b"second frame").unwrap();
        let mut r = DripReader {
            data: wire,
            pos: 0,
            per_call: 1,
        };
        let mut conn = ConnState::new(Instant::now());
        let mut frames = Vec::new();
        // One readiness pass drains everything available (level-triggered
        // epoll re-reports anything left, but the drip reader blocks only
        // when dry).
        assert_eq!(
            conn.read_ready(&mut r, 1 << 20, &mut frames),
            ReadEvent::Open
        );
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], b"slow but valid");
        assert_eq!(frames[1], b"second frame");
        assert!(!conn.mid_frame());
    }

    #[test]
    fn oversized_frame_is_reported_and_peer_eof_detected() {
        let mut conn = ConnState::new(Instant::now());
        let mut frames = Vec::new();
        let huge = (1_000_000u32).to_le_bytes();
        let mut r = &huge[..];
        assert_eq!(
            conn.read_ready(&mut r, 1024, &mut frames),
            ReadEvent::FrameTooLarge(1_000_000)
        );
        let mut conn = ConnState::new(Instant::now());
        let empty: &[u8] = &[];
        let mut r = empty;
        assert_eq!(
            conn.read_ready(&mut r, 1024, &mut frames),
            ReadEvent::PeerClosed
        );
    }

    #[test]
    fn backpressure_stops_reading_at_the_pending_cap() {
        let mut wire = Vec::new();
        for i in 0..(MAX_PENDING_FRAMES + 10) {
            write_frame(&mut wire, format!("req {i}").as_bytes()).unwrap();
        }
        let mut r = DripReader {
            data: wire,
            pos: 0,
            per_call: 4096,
        };
        let mut conn = ConnState::new(Instant::now());
        let mut frames = Vec::new();
        assert_eq!(
            conn.read_ready(&mut r, 1 << 20, &mut frames),
            ReadEvent::Open
        );
        assert_eq!(frames.len(), MAX_PENDING_FRAMES, "cap must bound one pass");
        // The unread requests are still in the transport, not lost.
        assert!(r.pos < r.data.len());
    }

    #[test]
    fn frame_deadline_anchors_to_the_first_byte() {
        use std::time::Duration;
        let mut wire = Vec::new();
        write_frame(&mut wire, b"a slow frame").unwrap();
        let (first, rest) = wire.split_at(3);
        let mut conn = ConnState::new(Instant::now());
        let mut frames = Vec::new();
        let mut r = DripReader {
            data: first.to_vec(),
            pos: 0,
            per_call: 1,
        };
        conn.read_ready(&mut r, 1 << 20, &mut frames);
        let started = conn.frame_started.expect("mid-frame sets the anchor");
        assert!(conn.frame_stalled(Duration::ZERO, started + Duration::from_millis(1)));
        assert!(!conn.frame_stalled(Duration::from_secs(30), started + Duration::from_millis(1)));
        // More bytes arriving must NOT move the anchor…
        let mut r = DripReader {
            data: rest[..2].to_vec(),
            pos: 0,
            per_call: 1,
        };
        conn.read_ready(&mut r, 1 << 20, &mut frames);
        assert_eq!(
            conn.frame_started,
            Some(started),
            "drip must not reset the deadline"
        );
        // …and completing the frame clears it.
        let mut r = DripReader {
            data: rest[2..].to_vec(),
            pos: 0,
            per_call: 4096,
        };
        conn.read_ready(&mut r, 1 << 20, &mut frames);
        assert_eq!(frames.len(), 1);
        assert_eq!(conn.frame_started, None);
    }

    #[test]
    fn read_pauses_exactly_at_the_pending_cap() {
        let mut conn = ConnState::new(Instant::now());
        assert!(!conn.read_paused());
        for i in 0..MAX_PENDING_FRAMES {
            conn.pending.push_back(vec![i as u8]);
        }
        assert!(conn.read_paused(), "full pipeline must stop reading");
        conn.pending.pop_front();
        assert!(!conn.read_paused(), "one free slot must resume reading");
    }

    #[test]
    fn an_owed_oversized_answer_pauses_reading() {
        let mut conn = ConnState::new(Instant::now());
        assert!(!conn.read_paused());
        conn.oversized = Some(1 << 30);
        assert!(conn.read_paused());
    }

    #[test]
    fn idle_reflects_every_obligation() {
        let mut conn = ConnState::new(Instant::now());
        assert!(conn.idle());
        conn.in_flight = true;
        assert!(!conn.idle());
        conn.in_flight = false;
        conn.outbox.push_frame(b"owed");
        assert!(!conn.idle());
        let mut sink = Vec::new();
        conn.outbox.flush_to(&mut sink).unwrap();
        assert!(conn.idle());
        conn.pending.push_back(b"queued".to_vec());
        assert!(!conn.idle());
    }
}
