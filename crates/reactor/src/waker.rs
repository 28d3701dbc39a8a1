//! Cross-thread reactor wakeups over a socketpair.
//!
//! A reactor blocked in `poll(2)` only notices descriptors; threads
//! that want its attention (a pool worker with response bytes ready)
//! write one byte into the write half of a [`UnixStream::pair`] whose
//! read half sits in the poll set. Every wake writes: an unread byte
//! keeps the read half readable until the reactor drains it, so a wake
//! that happens-after a message send can never be lost. A burst of
//! wakes between two polls still costs the reactor a single wakeup,
//! because `poll` reports a readable descriptor once however many bytes
//! are waiting.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

/// The reactor-owned read half. Register [`Waker::fd`] for readability
/// and call [`Waker::drain`] every time it fires.
pub struct Waker {
    rx: UnixStream,
    /// Held here as well as by every handle: once the write half
    /// closes, `rx` reads EOF and stays readable, which would spin the
    /// reactor.
    tx: Arc<UnixStream>,
}

/// A cloneable handle other threads use to nudge the reactor.
#[derive(Clone)]
pub struct WakeHandle {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Builds the pair. Both halves are non-blocking: a full pipe must
    /// never park the waking thread (an unread byte already guarantees
    /// the reactor will wake).
    ///
    /// # Errors
    ///
    /// Socketpair creation or `set_nonblocking` failures.
    pub fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Self {
            rx,
            tx: Arc::new(tx),
        })
    }

    /// The descriptor to include (readable) in the poll set.
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// A handle for threads that need to wake this reactor.
    #[must_use]
    pub fn handle(&self) -> WakeHandle {
        WakeHandle {
            tx: Arc::clone(&self.tx),
        }
    }

    /// Consumes every buffered wakeup byte. Call it *before* reading
    /// whatever the wakers published: a wake that lands after the drain
    /// leaves its byte in the pipe and fires the next poll.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }
}

impl WakeHandle {
    /// Nudges the reactor by writing one byte. `WouldBlock` on a full
    /// pipe is ignored: the unread bytes already keep the read half
    /// readable.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::{poll_fds, PollFd, POLLIN};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn readable(fd: RawFd, timeout_ms: u64) -> bool {
        let mut fds = [PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }];
        poll_fds(&mut fds, Some(Duration::from_millis(timeout_ms))).expect("poll") > 0
    }

    #[test]
    fn wake_makes_fd_readable_and_drain_clears_it() {
        let waker = Waker::new().expect("waker");
        assert!(!readable(waker.fd(), 0), "fresh waker must be quiet");
        waker.handle().wake();
        assert!(readable(waker.fd(), 1000));
        waker.drain();
        assert!(!readable(waker.fd(), 0), "drain must consume the byte");
    }

    #[test]
    fn no_wake_is_lost_under_concurrent_senders() {
        // The reactor's mailbox pattern: senders publish, then wake; the
        // reactor polls, drains, then reads the mailbox. A wake racing a
        // drain must still leave the descriptor readable, so the reactor
        // never sleeps through a poll timeout with messages waiting.
        const SENDERS: usize = 4;
        const PER_SENDER: usize = 20_000;
        const POLL_TIMEOUT_MS: u64 = 500;
        let waker = Waker::new().expect("waker");
        let (tx, rx) = mpsc::channel::<Instant>();
        let senders: Vec<_> = (0..SENDERS)
            .map(|_| {
                let tx = tx.clone();
                let wake = waker.handle();
                std::thread::spawn(move || {
                    for _ in 0..PER_SENDER {
                        tx.send(Instant::now()).expect("receiver alive");
                        wake.wake();
                        // Spread the sends over many reactor passes, so
                        // wakes keep landing while a drain is running.
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        drop(tx);

        let mut received = 0usize;
        let mut worst_wait = Duration::ZERO;
        while received < SENDERS * PER_SENDER {
            let fired = readable(waker.fd(), POLL_TIMEOUT_MS);
            waker.drain();
            let mut got = 0usize;
            while let Ok(sent) = rx.try_recv() {
                worst_wait = worst_wait.max(sent.elapsed());
                got += 1;
            }
            assert!(
                fired || got == 0,
                "poll timed out after {POLL_TIMEOUT_MS} ms with {got} messages waiting \
                 ({received} received before): a wakeup was lost"
            );
            received += got;
        }
        for sender in senders {
            sender.join().expect("sender thread");
        }
        assert!(
            worst_wait < Duration::from_millis(POLL_TIMEOUT_MS),
            "a message waited {worst_wait:?} for the reactor"
        );
    }

    #[test]
    fn wake_after_drain_rearms() {
        let waker = Waker::new().expect("waker");
        let handle = waker.handle();
        handle.wake();
        waker.drain();
        handle.wake();
        assert!(readable(waker.fd(), 1000));
    }
}
