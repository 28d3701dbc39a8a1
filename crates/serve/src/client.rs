//! Client side of the `cbrand` protocol.
//!
//! Connections are built through [`ClientBuilder`] ([`Client::builder`]),
//! which owns the connect/IO deadlines, the transport retry policy, the
//! `hello` handshake (with optional required capabilities), and the
//! reaction to an admission-control [`Event::Busy`] answer: sleep out
//! the daemon's hint and reconnect, up to a configurable deadline —
//! busy is backoff, not failure.
//!
//! The client reconstructs a full [`NetworkReport`] from the streamed
//! layer events, so rendering it through
//! [`cbrain::report::render_run_report`] yields output byte-identical to
//! a single-process `cbrain run` of the same request.

use crate::wire::{Event, Request, RunRequest, WireError, PROTOCOL_VERSION};
use cbrain::{LayerReport, NetworkReport, RunOptions};
use cbrain_sim::Stats;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Error from a client exchange.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure.
    Io(io::Error),
    /// The daemon sent a line the protocol does not recognize.
    Wire(WireError),
    /// The daemon reported a request failure.
    Remote(String),
    /// The stream violated the protocol (e.g. totals mismatch, missing
    /// terminal event).
    Protocol(String),
    /// The daemon shed this connection under admission control. Distinct
    /// from [`ClientError::Io`]: the daemon is alive and asks to be
    /// retried after roughly `retry_after_ms` — it must not be treated
    /// as down.
    Busy {
        /// The daemon's suggested back-off, milliseconds.
        retry_after_ms: u64,
        /// Admission-queue depth when the connection was shed.
        queue_depth: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Remote(m) => write!(f, "daemon error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Busy {
                retry_after_ms,
                queue_depth,
            } => write!(
                f,
                "daemon busy (retry in {retry_after_ms} ms, queue depth {queue_depth})"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A connection to a `cbrand` daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Monotonic request-id counter for framed submissions.
    next_id: u64,
}

impl Client {
    /// Starts building a connection to the daemon at `addr`
    /// (`host:port`). The builder's defaults — no deadlines, one
    /// connect attempt, a 30 s busy-wait, `hello` on connect — suit an
    /// interactive client; the fleet tightens them per shard.
    pub fn builder(addr: &str) -> ClientBuilder {
        ClientBuilder::new(addr)
    }

    fn from_stream(writer: TcpStream) -> io::Result<Self> {
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            reader,
            writer,
            next_id: 0,
        })
    }

    /// Performs the `hello` version exchange, returning the daemon's
    /// capability labels. [`ClientBuilder::connect`] already does this
    /// (unless [`ClientBuilder::no_handshake`] opted out); repeating it
    /// is harmless — the daemon answers every `hello`.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Remote`] on a daemon-reported version
    /// mismatch (the daemon closes the connection afterwards), or
    /// [`ClientError::Protocol`] if the answer's version disagrees with
    /// this build's [`PROTOCOL_VERSION`]. Minor-revision skew is *not*
    /// an error — minors are backwards compatible by contract.
    pub fn hello(&mut self) -> Result<Vec<String>, ClientError> {
        let terminal = self.submit(
            &Request::Hello {
                version: PROTOCOL_VERSION,
            },
            |_| {},
        )?;
        let Event::Hello { version, caps, .. } = terminal else {
            return Err(ClientError::Protocol(format!(
                "expected a `hello` event, got {terminal:?}"
            )));
        };
        if version != PROTOCOL_VERSION {
            return Err(ClientError::Protocol(format!(
                "daemon speaks protocol v{version}, this build v{PROTOCOL_VERSION}"
            )));
        }
        Ok(caps)
    }

    /// Sends one request and streams its response: `on_event` sees every
    /// non-terminal event in arrival order; the terminal event is
    /// returned ([`Event::Error`] becomes [`ClientError::Remote`]).
    ///
    /// Every request carries a fresh id; an event that echoes a
    /// *different* id is a protocol violation (requests on one
    /// connection are sequential, so stray events mean a confused peer).
    ///
    /// # Errors
    ///
    /// Returns socket, decode, or daemon-reported errors.
    pub fn submit(
        &mut self,
        request: &Request,
        mut on_event: impl FnMut(&Event),
    ) -> Result<Event, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        self.writer
            .write_all(request.encode_framed(Some(id)).as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Protocol(
                    "connection closed before a terminal event".into(),
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            let (event, echoed) = Event::decode_framed(line.trim_end_matches(['\r', '\n']))?;
            if echoed.is_some_and(|e| e != id) {
                return Err(ClientError::Protocol(format!(
                    "event answers request {:?}, expected {id}",
                    echoed.expect("checked some")
                )));
            }
            if let Event::Error { message } = event {
                return Err(ClientError::Remote(message));
            }
            if let Event::Busy {
                retry_after_ms,
                queue_depth,
            } = event
            {
                // Admission control shed this connection (the daemon
                // closes it right after); surface the hint as a typed
                // error so callers can back off instead of failing over.
                return Err(ClientError::Busy {
                    retry_after_ms,
                    queue_depth,
                });
            }
            if event.is_terminal() {
                return Ok(event);
            }
            on_event(&event);
        }
    }

    /// Runs a `simulate` request and reconstructs the [`NetworkReport`]
    /// from the stream. `on_layer` fires per layer as lines arrive (for
    /// live progress); the report is complete when this returns.
    ///
    /// # Errors
    ///
    /// Returns transport errors, daemon errors, or a
    /// [`ClientError::Protocol`] if the reconstructed totals disagree
    /// with the daemon's `done` line.
    pub fn simulate(
        &mut self,
        run: &RunRequest,
        mut on_layer: impl FnMut(&LayerReport),
    ) -> Result<NetworkReport, ClientError> {
        let mut layers: Vec<LayerReport> = Vec::new();
        let terminal = self.submit(&Request::Simulate(run.clone()), |event| {
            if let Event::Layer {
                name,
                scheme,
                stats,
                ideal_cycles,
                transform_cycles,
            } = event
            {
                let layer = LayerReport {
                    name: name.clone(),
                    scheme: *scheme,
                    stats: *stats,
                    ideal_cycles: *ideal_cycles,
                    layout_transform_cycles: *transform_cycles,
                };
                on_layer(&layer);
                layers.push(layer);
            }
        })?;
        let Event::Done {
            network,
            batch,
            cycles,
            hits,
            misses,
            ..
        } = terminal
        else {
            return Err(ClientError::Protocol(format!(
                "expected a `done` event, got {terminal:?}"
            )));
        };
        let report = assemble_report(run, network, batch, &layers, hits, misses);
        if report.cycles() != cycles {
            return Err(ClientError::Protocol(format!(
                "summed layer cycles {} disagree with daemon total {cycles}",
                report.cycles()
            )));
        }
        Ok(NetworkReport { layers, ..report })
    }
}

/// Builder for a [`Client`] connection: deadlines, transport retries,
/// busy back-off, and the capabilities the `hello` handshake must
/// confirm. Obtained from [`Client::builder`].
///
/// [`connect`](ClientBuilder::connect) distinguishes two transient
/// failure families:
///
/// * **transport errors** ([`ClientError::Io`]) consume one of
///   [`attempts`](ClientBuilder::attempts), with exponential
///   [`backoff`](ClientBuilder::backoff) between tries;
/// * **admission refusals** ([`ClientError::Busy`]) never consume an
///   attempt — the daemon is alive — and are retried after the daemon's
///   own hint until [`busy_wait`](ClientBuilder::busy_wait) is
///   exhausted, at which point the busy error surfaces to the caller.
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    addr: String,
    connect_timeout: Option<Duration>,
    io_timeout: Option<Duration>,
    attempts: u32,
    backoff: Duration,
    busy_wait: Duration,
    expect_caps: Vec<String>,
    handshake: bool,
}

/// Ceiling applied to a daemon's `retry_after_ms` hint before sleeping
/// on it: a confused (or hostile) peer must not park the client forever.
const MAX_BUSY_SLEEP: Duration = Duration::from_secs(1);

impl ClientBuilder {
    fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_owned(),
            connect_timeout: None,
            io_timeout: None,
            attempts: 1,
            backoff: Duration::from_millis(25),
            busy_wait: Duration::from_secs(30),
            expect_caps: Vec::new(),
            handshake: true,
        }
    }

    /// Bounds the TCP connect itself (and implies resolving `addr`
    /// eagerly). Without it, connect blocks at the OS's pleasure.
    #[must_use]
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Bounds every read/write on the established connection (the fleet
    /// client's per-request deadline).
    #[must_use]
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = Some(timeout);
        self
    }

    /// Total connect attempts on transport failure (minimum 1).
    #[must_use]
    pub fn attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Base pause between transport attempts; doubles per failure.
    #[must_use]
    pub fn backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Total budget for waiting out `busy` answers before giving up and
    /// surfacing [`ClientError::Busy`]. `Duration::ZERO` surfaces the
    /// first busy immediately — callers that want to orchestrate their
    /// own back-off (tests, the fleet router) use that.
    #[must_use]
    pub fn busy_wait(mut self, budget: Duration) -> Self {
        self.busy_wait = budget;
        self
    }

    /// Capabilities the daemon's `hello` answer must advertise;
    /// connecting to a daemon lacking one fails with
    /// [`ClientError::Protocol`]. Implies the handshake.
    #[must_use]
    pub fn expect_caps<I, S>(mut self, caps: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.expect_caps = caps.into_iter().map(Into::into).collect();
        self
    }

    /// Skips the `hello` exchange at connect time (raw-protocol tests).
    /// A busy daemon is then only noticed at the first `submit`.
    #[must_use]
    pub fn no_handshake(mut self) -> Self {
        self.handshake = false;
        self
    }

    /// Connects, retrying transport failures per [`attempts`] and
    /// waiting out `busy` refusals per [`busy_wait`], then (by default)
    /// performs the `hello` handshake and checks [`expect_caps`].
    ///
    /// [`attempts`]: ClientBuilder::attempts
    /// [`busy_wait`]: ClientBuilder::busy_wait
    /// [`expect_caps`]: ClientBuilder::expect_caps
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] once attempts are exhausted,
    /// [`ClientError::Busy`] once the busy budget is exhausted, or
    /// handshake errors ([`ClientError::Remote`] / `Protocol`).
    pub fn connect(&self) -> Result<Client, ClientError> {
        let busy_deadline = Instant::now().checked_add(self.busy_wait);
        let mut transport_failures: u32 = 0;
        loop {
            match self.try_connect() {
                Ok(client) => return Ok(client),
                Err(ClientError::Busy {
                    retry_after_ms,
                    queue_depth,
                }) => {
                    let hint = Duration::from_millis(retry_after_ms.max(1)).min(MAX_BUSY_SLEEP);
                    // An unrepresentable deadline (absurd busy_wait)
                    // means "unbounded".
                    let within_budget =
                        busy_deadline.is_none_or(|deadline| Instant::now() + hint <= deadline);
                    if !within_budget {
                        return Err(ClientError::Busy {
                            retry_after_ms,
                            queue_depth,
                        });
                    }
                    std::thread::sleep(hint);
                }
                Err(ClientError::Io(e)) => {
                    transport_failures += 1;
                    if transport_failures >= self.attempts {
                        return Err(ClientError::Io(e));
                    }
                    let shift = (transport_failures - 1).min(16);
                    std::thread::sleep(self.backoff.saturating_mul(1 << shift));
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// One connect + handshake attempt.
    fn try_connect(&self) -> Result<Client, ClientError> {
        let stream = match self.connect_timeout {
            Some(timeout) => {
                let resolved = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("cannot resolve {}", self.addr),
                    )
                })?;
                TcpStream::connect_timeout(&resolved, timeout)?
            }
            None => TcpStream::connect(&self.addr)?,
        };
        // Requests are single small lines; Nagle would hold each one
        // back until the daemon's delayed ACK for the previous line.
        stream.set_nodelay(true)?;
        if let Some(timeout) = self.io_timeout {
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
        }
        let mut client = Client::from_stream(stream)?;
        if self.handshake {
            let caps = client.hello()?;
            for want in &self.expect_caps {
                if !caps.iter().any(|c| c == want) {
                    return Err(ClientError::Protocol(format!(
                        "daemon lacks required capability `{want}` (has {caps:?})"
                    )));
                }
            }
        }
        Ok(client)
    }
}

/// Rebuilds a [`NetworkReport`] from streamed layers plus the request
/// that produced them. The daemon runs with default options (layout
/// planning on), so totals are exactly the per-layer sums and the energy
/// model is the default — the same arithmetic `Runner::run_network`
/// performs, applied to the same numbers.
fn assemble_report(
    run: &RunRequest,
    network: String,
    batch: u64,
    layers: &[LayerReport],
    hits: u64,
    misses: u64,
) -> NetworkReport {
    let mut totals = Stats::new();
    for layer in layers {
        totals += layer.stats;
    }
    let energy = RunOptions::default().energy.evaluate(&totals);
    NetworkReport {
        network,
        batch: batch as usize,
        policy: run.policy,
        config: run.config(),
        layers: Vec::new(),
        totals,
        energy,
        cache_hits: hits,
        cache_misses: misses,
    }
}
