//! The per-connection state machine.
//!
//! A [`Connection`] owns one non-blocking [`TcpStream`] plus the two
//! buffers an event loop needs around it: a [`FrameDecoder`] on the
//! read side and a pending-output buffer on the write side. Its
//! [`Phase`] names where the connection is in the serving protocol:
//!
//! ```text
//!            +----------------------------------------------+
//!            v                                              |
//!   Reading ---(complete request line)--> AwaitingTicket    |
//!      |                                        |           |
//!      |                              (pool admits request) |
//!      |                                        v           |
//!      |                                   Streaming -------+
//!      |                                        |   (response done,
//!      |                                        |    keep-alive)
//!      +--(shed / shutdown / fatal frame)--+    |
//!                                          v    v
//!                                        Draining --(EOF | budget |
//!                                                    deadline)--> closed
//! ```
//!
//! The driver decides *when* to transition; the connection provides the
//! mechanics — partial reads into the decoder, partial writes out of
//! the buffer, half-close, and byte-budgeted discarding while draining.
//! Requests answered without pool work (`hello`, `stats`, ...) skip the
//! `AwaitingTicket`/`Streaming` detour and stay in `Reading`.

use crate::frame::{FrameDecoder, FrameError};
use crate::poller::Interest;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::time::Instant;

/// Where a connection is in its serving lifecycle (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accumulating request bytes; complete lines may be parsed.
    Reading,
    /// A parsed compute request is waiting for pool admission; request
    /// reads are paused so pipelined bytes back-pressure in the kernel.
    AwaitingTicket,
    /// Response lines are being queued and flushed as the socket
    /// accepts them.
    Streaming,
    /// Half-closed send side; discarding whatever the peer already
    /// wrote so the close cannot RST the final answer away. The
    /// connection closes at EOF, at `deadline`, or once `budget` bytes
    /// have been discarded — whichever comes first.
    Draining {
        /// Wall-clock instant after which the connection closes even
        /// if the peer keeps writing.
        deadline: Instant,
        /// Remaining bytes the drain is willing to discard.
        budget: usize,
    },
}

/// What one [`Connection::fill`] call observed.
#[derive(Debug, Clone, Copy)]
pub struct ReadOutcome {
    /// Bytes consumed from the socket.
    pub bytes: usize,
    /// Whether the peer's write side reached EOF.
    pub eof: bool,
}

/// One non-blocking connection plus its buffers and [`Phase`].
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    read_closed: bool,
    write_shutdown: bool,
}

impl Connection {
    /// Wraps an accepted stream, switching it to non-blocking mode and
    /// disabling Nagle's algorithm: a response is a burst of small
    /// lines, and holding the last one back for the peer's delayed ACK
    /// stalls every request by tens of milliseconds.
    /// `max_line` caps a single request line (see [`FrameDecoder`]).
    ///
    /// # Errors
    ///
    /// `set_nonblocking` or `set_nodelay` failures.
    pub fn new(stream: TcpStream, max_line: usize) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(max_line),
            out: Vec::new(),
            out_pos: 0,
            phase: Phase::Reading,
            read_closed: false,
            write_shutdown: false,
        })
    }

    /// The underlying descriptor, for poll registration.
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// The current lifecycle phase.
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Moves the connection to `phase`. Transitions are the driver's
    /// policy; no validation happens here.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Whether the peer's write side has reached EOF.
    #[must_use]
    pub fn read_closed(&self) -> bool {
        self.read_closed
    }

    /// Reads up to `max_bytes` from the socket. Outside
    /// [`Phase::Draining`] the bytes feed the frame decoder; while
    /// draining they are discarded against the drain budget.
    ///
    /// # Errors
    ///
    /// Socket read failures other than `WouldBlock` (which ends the
    /// call) and `Interrupted` (which retries).
    pub fn fill(&mut self, max_bytes: usize) -> io::Result<ReadOutcome> {
        let mut total = 0;
        let mut chunk = [0u8; 16 * 1024];
        while total < max_bytes {
            let want = chunk.len().min(max_bytes - total);
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => {
                    self.read_closed = true;
                    return Ok(ReadOutcome {
                        bytes: total,
                        eof: true,
                    });
                }
                Ok(n) => {
                    total += n;
                    if let Phase::Draining { budget, .. } = &mut self.phase {
                        *budget = budget.saturating_sub(n);
                        if *budget == 0 {
                            break;
                        }
                    } else {
                        self.decoder.push(&chunk[..n]);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(ReadOutcome {
            bytes: total,
            eof: false,
        })
    }

    /// The next complete request line, if one is buffered.
    ///
    /// # Errors
    ///
    /// Propagates [`FrameError`] — the driver should answer with a
    /// protocol error and retire the connection.
    pub fn next_line(&mut self) -> Result<Option<String>, FrameError> {
        self.decoder.next_line()
    }

    /// Whether any request bytes (partial or complete) are buffered.
    #[must_use]
    pub fn has_buffered_input(&self) -> bool {
        !self.decoder.is_empty()
    }

    /// Whether a complete, parseable request line is waiting.
    #[must_use]
    pub fn has_complete_line(&self) -> bool {
        self.decoder.has_complete_line()
    }

    /// Appends response bytes to the pending-output buffer. Callers
    /// follow up with [`Connection::flush`]; nothing is written here.
    pub fn queue(&mut self, bytes: &[u8]) {
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(bytes);
    }

    /// Writes as much pending output as the socket accepts right now.
    /// `Ok(true)` means the buffer fully drained.
    ///
    /// # Errors
    ///
    /// Socket write failures other than `WouldBlock` (which leaves the
    /// remainder queued) and `Interrupted` (which retries). A `Ok(0)`
    /// write surfaces as [`io::ErrorKind::WriteZero`].
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        // A response burst (a big `metrics` answer to a slow reader)
        // should not pin its high-water allocation forever.
        if self.out.capacity() > 1 << 20 {
            self.out.shrink_to(64 * 1024);
        }
        Ok(true)
    }

    /// Whether no response bytes are waiting to be written.
    #[must_use]
    pub fn out_empty(&self) -> bool {
        self.out_pos == self.out.len()
    }

    /// Response bytes waiting to be written.
    #[must_use]
    pub fn out_len(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Half-closes the send side (idempotent). The drain phase calls
    /// this after the final answer flushed, so the peer sees clean EOF
    /// rather than a reset.
    pub fn shutdown_write(&mut self) {
        if !self.write_shutdown {
            self.write_shutdown = true;
            let _ = self.stream.shutdown(Shutdown::Write);
        }
    }

    /// Whether a [`Phase::Draining`] connection is finished: EOF seen,
    /// budget spent, or deadline passed. Always `false` outside the
    /// draining phase.
    #[must_use]
    pub fn drain_expired(&self, now: Instant) -> bool {
        match self.phase {
            Phase::Draining { deadline, budget } => {
                self.read_closed || budget == 0 || now >= deadline
            }
            _ => false,
        }
    }

    /// The draining deadline, when one is pending — drivers fold these
    /// into their poll timeout.
    #[must_use]
    pub fn drain_deadline(&self) -> Option<Instant> {
        match self.phase {
            Phase::Draining { deadline, .. } => Some(deadline),
            _ => None,
        }
    }

    /// The poll interest this connection currently implies: readable
    /// only when the driver wants more request bytes (`want_read`) and
    /// EOF has not been seen; writable only while output is pending.
    #[must_use]
    pub fn interest(&self, want_read: bool) -> Interest {
        Interest {
            readable: want_read && !self.read_closed,
            writable: !self.out_empty() && !self.write_shutdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poller::Poller;
    use std::net::TcpListener;
    use std::time::Duration;

    fn pair() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = TcpStream::connect(addr).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        (Connection::new(served, 1 << 20).expect("conn"), peer)
    }

    #[test]
    fn request_lines_assemble_from_nonblocking_reads() {
        let (mut conn, mut peer) = pair();
        peer.write_all(b"{\"req\":\"hello\"}\n{\"req\"")
            .expect("write");
        // Give loopback delivery a moment, then read.
        let mut poller = Poller::new();
        poller.register(conn.fd(), Interest::READ);
        poller.poll(Some(Duration::from_secs(5))).expect("poll");
        let outcome = conn.fill(usize::MAX).expect("fill");
        assert!(outcome.bytes >= 16);
        assert!(!outcome.eof);
        assert_eq!(
            conn.next_line().expect("frame").as_deref(),
            Some("{\"req\":\"hello\"}")
        );
        assert_eq!(conn.next_line().expect("frame"), None);
        assert!(conn.has_buffered_input());
    }

    #[test]
    fn eof_is_reported_once_peer_closes() {
        let (mut conn, peer) = pair();
        drop(peer);
        let mut poller = Poller::new();
        poller.register(conn.fd(), Interest::READ);
        poller.poll(Some(Duration::from_secs(5))).expect("poll");
        let outcome = conn.fill(usize::MAX).expect("fill");
        assert!(outcome.eof);
        assert!(conn.read_closed());
        assert!(!conn.interest(true).readable);
    }

    #[test]
    fn backpressured_response_flushes_in_parts() {
        let (mut conn, mut peer) = pair();
        // Much larger than the combined kernel buffers, so the first
        // flush must leave a remainder behind.
        let payload = vec![0xABu8; 8 << 20];
        conn.queue(&payload);
        let drained = conn.flush().expect("flush");
        assert!(!drained, "8 MiB cannot fit the socket buffers");
        assert!(conn.out_len() > 0);
        assert!(conn.interest(false).writable);

        // Drain from the peer while repeatedly flushing: every byte
        // must come through, in order, without blocking anything.
        let mut received = 0usize;
        let mut poller = Poller::new();
        let mut buf = vec![0u8; 1 << 20];
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        while received < payload.len() {
            let n = peer.read(&mut buf).expect("peer read");
            assert!(n > 0);
            assert!(buf[..n].iter().all(|&b| b == 0xAB));
            received += n;
            if !conn.out_empty() {
                poller.clear();
                let slot = poller.register(conn.fd(), Interest::WRITE);
                poller.poll(Some(Duration::from_secs(10))).expect("poll");
                if poller.readiness(slot).writable() {
                    conn.flush().expect("flush");
                }
            }
        }
        assert_eq!(received, payload.len());
        assert!(conn.out_empty());
    }

    #[test]
    fn draining_discards_against_the_budget() {
        let (mut conn, mut peer) = pair();
        peer.write_all(&[b'x'; 1000]).expect("write");
        conn.set_phase(Phase::Draining {
            deadline: Instant::now() + Duration::from_secs(5),
            budget: 64,
        });
        let mut poller = Poller::new();
        poller.register(conn.fd(), Interest::READ);
        poller.poll(Some(Duration::from_secs(5))).expect("poll");
        conn.fill(usize::MAX).expect("fill");
        assert!(
            conn.drain_expired(Instant::now()),
            "budget must expire the drain"
        );
        assert!(!conn.has_buffered_input(), "drained bytes must not frame");
    }

    #[test]
    fn half_close_still_delivers_the_final_answer() {
        let (mut conn, mut peer) = pair();
        conn.queue(b"busy\n");
        assert!(conn.flush().expect("flush"));
        conn.shutdown_write();
        conn.shutdown_write(); // idempotent
        let mut answer = String::new();
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        peer.read_to_string(&mut answer).expect("read");
        assert_eq!(answer, "busy\n");
    }
}
