//! # cbrain-reactor
//!
//! A std-only event-driven connection core for the `cbrand` serving
//! daemon — the transport half of the C10K refactor. In the same
//! spirit as the in-tree JSON codec, the workspace takes no external
//! dependencies: the only FFI here is the single `poll(2)` declaration
//! in [`sys`], against the C library every Unix Rust binary already
//! links.
//!
//! The paper's accelerator wins by separating *what limits throughput*
//! (the PE array) from *what merely occupies space* (diverse layer
//! shapes). This crate applies the same split to serving: socket
//! readiness is multiplexed by one reactor over thousands of
//! descriptors, while the genuinely scarce resource — CPU time in the
//! compile/simulate pool — stays behind explicit admission. An idle
//! keep-alive connection costs a file descriptor and a buffer, never a
//! thread.
//!
//! Pieces, bottom-up:
//!
//! * [`sys`] — the raw `poll(2)` wrapper ([`sys::poll_fds`]) with
//!   `EINTR` retry and `Duration` timeouts;
//! * [`poller`] — [`Poller`], a rebuilt-per-iteration descriptor set
//!   yielding per-slot [`Readiness`];
//! * [`waker`] — [`Waker`]/[`WakeHandle`], a socketpair so pool
//!   workers can nudge a reactor blocked in `poll` (one byte per wake;
//!   `poll` folds a burst of them into one wakeup);
//! * [`frame`] — [`FrameDecoder`], incremental NDJSON line framing
//!   with a hard per-line byte cap;
//! * [`conn`] — [`Connection`], one non-blocking stream + decoder +
//!   pending-output buffer, moving through the [`Phase`] state machine
//!   (`Reading → AwaitingTicket → Streaming → …`, with `Draining` as
//!   the half-close-and-drain exit ramp that used to be a dedicated
//!   reaper thread).
//!
//! The crate is deliberately policy-free: it never decides *when* to
//! shed, admit, or close — `cbrain-serve`'s daemon drives those
//! transitions. That keeps this layer small enough to test with plain
//! loopback sockets (see each module's tests).
//!
//! # Example: one poll-driven request line
//!
//! ```
//! use cbrain_reactor::{Connection, Interest, Poller};
//! use std::io::Write;
//! use std::net::{TcpListener, TcpStream};
//! use std::os::fd::AsRawFd;
//!
//! let listener = TcpListener::bind("127.0.0.1:0")?;
//! listener.set_nonblocking(true)?;
//! let addr = listener.local_addr()?;
//!
//! // A peer writes one request line.
//! let mut peer = TcpStream::connect(addr)?;
//! peer.write_all(b"{\"req\":\"hello\"}\n")?;
//!
//! let mut poller = Poller::new();
//! let mut conn: Option<Connection> = None;
//! let line = loop {
//!     poller.clear();
//!     let listener_slot = poller.register(listener.as_raw_fd(), Interest::READ);
//!     let conn_slot = conn
//!         .as_ref()
//!         .map(|c| poller.register(c.fd(), c.interest(true)));
//!     poller.poll(None)?;
//!     if poller.readiness(listener_slot).readable() {
//!         let (stream, _) = listener.accept()?;
//!         conn = Some(Connection::new(stream, 1024)?);
//!     }
//!     if let (Some(c), Some(slot)) = (conn.as_mut(), conn_slot) {
//!         if poller.readiness(slot).readable() {
//!             c.fill(usize::MAX)?;
//!             if let Some(line) = c.next_line().map_err(std::io::Error::other)? {
//!                 break line;
//!             }
//!         }
//!     }
//! };
//! assert_eq!(line, "{\"req\":\"hello\"}");
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![cfg(unix)]

pub mod conn;
pub mod frame;
pub mod poller;
pub mod sys;
pub mod waker;

pub use conn::{Connection, Phase, ReadOutcome};
pub use frame::{FrameDecoder, FrameError};
pub use poller::{Interest, Poller, Readiness};
pub use waker::{WakeHandle, Waker};
