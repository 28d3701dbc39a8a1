//! Helpers shared by the networked end-to-end suites.

use std::io::Write;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How long one networked test may run before the watchdog fails it.
const WATCHDOG_LIMIT: Duration = Duration::from_secs(60);

/// Fails the test run if the calling test is still running after
/// [`WATCHDOG_LIMIT`]: a stalled reactor must fail the suite, never hang
/// it. Hold the returned guard for the whole test body.
#[must_use = "the watchdog stops when the guard is dropped"]
pub struct Watchdog {
    done: mpsc::Sender<()>,
    thread: Option<thread::JoinHandle<()>>,
}

/// Arms a watchdog named after the calling test's thread.
pub fn watchdog() -> Watchdog {
    let name = thread::current()
        .name()
        .unwrap_or("unnamed test")
        .to_owned();
    let start = Instant::now();
    let (done, expired) = mpsc::channel::<()>();
    let thread = thread::spawn(move || {
        if let Err(mpsc::RecvTimeoutError::Timeout) = expired.recv_timeout(WATCHDOG_LIMIT) {
            // Written straight to stderr: the harness captures `eprintln!`
            // from test threads, and that capture dies with the process.
            let _ = writeln!(
                std::io::stderr(),
                "watchdog: test `{name}` still running after {:.1?}; failing the run",
                start.elapsed()
            );
            std::process::exit(101);
        }
    });
    Watchdog {
        done,
        thread: Some(thread),
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let _ = self.done.send(());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
