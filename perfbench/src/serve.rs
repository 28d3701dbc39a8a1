//! The `serve` path: an in-process `cbrain_serve::Daemon` driven by
//! keep-alive clients built with the shipped `ClientBuilder`.

use crate::measure::{closed_loop, median, put_end_to_end, Limits, Op, Sink, Tally};
use crate::synth::{self, LayerMix};
use crate::{reference_text, Trace};
use cbrain::report::render_run_report;
use cbrain::{NetworkReport, Policy, Workload};
use cbrain_serve::json::Value;
use cbrain_serve::wire::{Event, NetworkSource, Request, RunRequest};
use cbrain_serve::{Client, Daemon, DaemonOptions};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A request's latency limit, and its deadline: the client's
/// `io_timeout`. The limit sits below the deadline so a reply that only
/// arrives because another connection's timeout stirred a stalled
/// reactor still counts as a miss.
pub const LIMITS: Limits = Limits {
    limit: Duration::from_millis(100),
    deadline: Duration::from_millis(150),
};

/// An in-process daemon on an ephemeral loopback port, persistence off.
pub struct Served {
    pub addr: String,
    thread: std::thread::JoinHandle<std::io::Result<String>>,
}

impl Served {
    pub fn spawn(jobs: usize) -> Self {
        let opts = DaemonOptions {
            jobs,
            cache_path: None,
            ..DaemonOptions::default()
        };
        let daemon = Daemon::bind("127.0.0.1:0", opts).expect("bind an in-process daemon");
        let addr = daemon.local_addr().to_string();
        let thread = std::thread::spawn(move || daemon.run());
        Self { addr, thread }
    }

    /// Asks the daemon to shut down and waits up to 2 s for it, so the
    /// next set-up does not share the process with this one's threads.
    /// A daemon that does not stop in time is left behind.
    pub fn stop(self) {
        if let Some(mut client) = connect(&self.addr) {
            let _ = client.submit(&Request::Shutdown, |_| {});
        }
        let until = Instant::now() + Duration::from_secs(2);
        while !self.thread.is_finished() && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(5));
        }
        if self.thread.is_finished() {
            let _ = self.thread.join();
        }
    }
}

/// Request `index` of the seeded mix: zoo requests with short (AlexNet)
/// and long (GoogLeNet) event streams, synthetic networks drawn from a
/// small pool (warm after first use), and fresh synthetic networks
/// (always cold compiles).
pub fn request(seed: u64, index: usize) -> RunRequest {
    let roll = synth::roll(seed, index as u64, 100);
    let network = match roll {
        0..=34 => NetworkSource::Zoo("alexnet".into()),
        35..=54 => NetworkSource::Zoo("googlenet".into()),
        55..=79 => NetworkSource::Spec(synth::spec_text(
            seed,
            synth::roll(seed, !(index as u64), 8),
        )),
        _ => NetworkSource::Spec(synth::spec_text(seed, 1000 + index as u64)),
    };
    RunRequest {
        network,
        policy: Policy::Adaptive {
            improved_inter: true,
        },
        workload: Workload::ConvAndPool,
        ..RunRequest::default()
    }
}

/// One finished request as the client saw it.
struct Reply {
    index: usize,
    latency: Duration,
    first_event: Option<Duration>,
    report: Option<NetworkReport>,
}

thread_local! {
    static CLIENT: RefCell<Option<Client>> = const { RefCell::new(None) };
}

/// The client every serving lane uses: the shipped builder with only a
/// per-request deadline set.
fn connect(addr: &str) -> Option<Client> {
    Client::builder(addr)
        .io_timeout(LIMITS.deadline)
        .connect()
        .ok()
}

fn submit(addr: &str, seed: u64, index: usize) -> Reply {
    let req = request(seed, index);
    let sent = Instant::now();
    let mut first_event = None;
    let result = CLIENT.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            *slot = connect(addr);
        }
        let client = slot.as_mut()?;
        let out = client.simulate(&req, |_| {
            first_event.get_or_insert_with(|| sent.elapsed());
        });
        if out.is_err() {
            // A half-read stream leaves the connection unusable.
            *slot = None;
        }
        out.ok()
    });
    Reply {
        index,
        latency: sent.elapsed(),
        first_event,
        report: result,
    }
}

/// Daemon-side figures from a `metrics` answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct DaemonFigures {
    pub requests_simulate: f64,
    pub request_seconds_sum: f64,
    pub ticket_wait_sum: f64,
    pub ticket_wait_count: f64,
    pub batch_size_sum: f64,
    pub batch_size_count: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub shed: f64,
    pub accepted: f64,
    pub poll_wakeups: f64,
}

impl DaemonFigures {
    pub fn minus(&self, before: &DaemonFigures) -> DaemonFigures {
        DaemonFigures {
            requests_simulate: self.requests_simulate - before.requests_simulate,
            request_seconds_sum: self.request_seconds_sum - before.request_seconds_sum,
            ticket_wait_sum: self.ticket_wait_sum - before.ticket_wait_sum,
            ticket_wait_count: self.ticket_wait_count - before.ticket_wait_count,
            batch_size_sum: self.batch_size_sum - before.batch_size_sum,
            batch_size_count: self.batch_size_count - before.batch_size_count,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            shed: self.shed - before.shed,
            accepted: self.accepted - before.accepted,
            poll_wakeups: self.poll_wakeups - before.poll_wakeups,
        }
    }
}

/// Asks a daemon for its telemetry registry. Control requests are
/// answered on the reactor thread, but the answer is still bounded by
/// the client deadline.
pub fn daemon_figures(addr: &str) -> Option<DaemonFigures> {
    let mut client = connect(addr)?;
    let Ok(Event::Metrics { metrics }) = client.submit(&Request::Metrics, |_| {}) else {
        return None;
    };
    let num = |name: &str| metrics.get(name).and_then(Value::as_f64).unwrap_or(0.0);
    let hist = |name: &str, field: &str| {
        metrics
            .get(name)
            .and_then(|h| h.get(field))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    Some(DaemonFigures {
        requests_simulate: hist("request_seconds{req=\"simulate\"}", "count"),
        request_seconds_sum: hist("request_seconds{req=\"simulate\"}", "sum"),
        ticket_wait_sum: hist("ticket_wait_seconds", "sum"),
        ticket_wait_count: hist("ticket_wait_seconds", "count"),
        batch_size_sum: hist("compile_batch_size", "sum"),
        batch_size_count: hist("compile_batch_size", "count"),
        cache_hits: num("cache_hits_total"),
        cache_misses: num("cache_misses_total"),
        shed: num("admission_shed_total"),
        accepted: num("admission_accepted_total"),
        poll_wakeups: num("poll_wakeups_total"),
    })
}

/// A ready `serve` path: a bound daemon, warmed up.
pub struct ServePath {
    daemon: Served,
    seed: u64,
    clients: usize,
}

impl ServePath {
    pub fn setup(seed: u64, clients: usize) -> Self {
        let daemon = Served::spawn(clients);
        // Warm-up: one request of each zoo stream length on a throwaway
        // connection, so the first timed request does not pay first-use
        // page faults. Bounded by the client deadline like any request.
        if let Some(mut c) = connect(&daemon.addr) {
            for name in ["alexnet", "googlenet"] {
                let req = RunRequest {
                    network: NetworkSource::Zoo(name.into()),
                    ..request(seed, 0)
                };
                if c.simulate(&req, |_| {}).is_err() {
                    break;
                }
            }
        }
        Self {
            daemon,
            seed,
            clients,
        }
    }

    pub fn stop(self) {
        self.daemon.stop();
    }

    /// Runs the closed loop for `window` and records the path's metrics.
    /// Returns the operation tally.
    pub fn run(&self, window: Duration, trace: Option<&Trace>, sink: &mut Sink) -> Tally {
        let before = daemon_figures(&self.daemon.addr).unwrap_or_default();
        let (addr, seed) = (self.daemon.addr.clone(), self.seed);
        let trace_c = trace.cloned();
        let collected = closed_loop(
            self.clients,
            window,
            LIMITS.deadline + Duration::from_millis(250),
            {
                move |i| {
                    let t = Instant::now();
                    let reply = submit(&addr, seed, i);
                    if let Some(trace) = &trace_c {
                        trace.span("client.request", t);
                    }
                    reply
                }
            },
        );
        let after = daemon_figures(&self.daemon.addr).unwrap_or_default();

        // Output check: every reply against an in-process Runner of the
        // same request, memoized per distinct request.
        let mut expected: HashMap<usize, Arc<String>> = HashMap::new();
        let mut by_text: HashMap<String, Arc<String>> = HashMap::new();
        let mut tally = Tally::default();
        let mut ops = Vec::new();
        let mut ttfe = Vec::new();
        let mut mix = LayerMix::default();
        let mut warm = 0usize;
        let mut finished = 0usize;
        for r in &collected.done {
            let req = request(self.seed, r.index);
            let want = expected.entry(r.index).or_insert_with(|| {
                let key = format!("{req:?}");
                Arc::clone(
                    by_text
                        .entry(key)
                        .or_insert_with(|| Arc::new(reference_text(&req))),
                )
            });
            let ok = r.report.as_ref().is_some_and(|got| {
                let mut got = got.clone();
                got.cache_hits = 0;
                got.cache_misses = 0;
                render_run_report(&got, true) == **want
            });
            if let Some(rep) = r.report.as_ref().filter(|_| ok) {
                finished += 1;
                warm += usize::from(rep.cache_misses == 0);
            }
            mix.add(&crate::resolve(&req.network), 16);
            tally.record(r.report.is_some(), ok);
            ops.push(Op::finished(ok, r.latency, LIMITS));
            ttfe.push(match (ok, r.first_event) {
                (true, Some(t)) => t.as_secs_f64(),
                _ => r.latency.max(LIMITS.deadline).as_secs_f64(),
            });
        }
        for &elapsed in &collected.outstanding {
            tally.record(false, false);
            ops.push(Op::finished(false, elapsed, LIMITS));
            ttfe.push(elapsed.max(LIMITS.deadline).as_secs_f64());
        }
        let s = crate::measure::summarize(&ops, LIMITS);
        put_end_to_end(sink, s.attempted, collected.elapsed, &s.latencies_s);
        sink.put("serve.ttfe_p50_ms", median(&ttfe) * 1e3, "ms");
        let good = s.attempted - s.missed;
        sink.put(
            "serve.goodput_rps",
            good as f64 / collected.elapsed.as_secs_f64(),
            "1/s",
        );
        sink.put(
            "serve.failed_share",
            s.missed as f64 / s.attempted.max(1) as f64,
            "share",
        );

        let d = after.minus(&before);
        let requests = d.requests_simulate.max(1.0);
        let request_ms = d.request_seconds_sum / requests * 1e3;
        sink.put("daemon.request_ms_mean", request_ms, "ms");
        // Every request as the client saw it (a failed one at its
        // deadline) against the daemon's own view of its service time.
        let client_ms = s.latencies_s.iter().sum::<f64>() / s.latencies_s.len().max(1) as f64 * 1e3;
        sink.put("serve.transport_gap_ms", client_ms - request_ms, "ms");
        sink.put(
            "reactor.poll_wakeups_per_request",
            d.poll_wakeups / requests,
            "count",
        );
        sink.put(
            "daemon.ticket_wait_ms_mean",
            d.ticket_wait_sum / d.ticket_wait_count.max(1.0) * 1e3,
            "ms",
        );
        sink.put(
            "batch.batch_size_mean",
            d.batch_size_sum / d.batch_size_count.max(1.0),
            "count",
        );
        sink.put(
            "daemon.cache_hit_ratio",
            d.cache_hits / (d.cache_hits + d.cache_misses).max(1.0),
            "share",
        );
        sink.put("admission.shed_per_request", d.shed / requests, "count");
        sink.note("serve.warm_share", warm as f64 / finished.max(1) as f64);
        crate::put_mix(sink, "serve", &mix);

        if let Some(trace) = trace {
            self.trace_layers(trace, sink);
        }
        tally
    }

    /// Traced extras: connect + hello, and wire encode/decode per event.
    fn trace_layers(&self, trace: &Trace, sink: &mut Sink) {
        let mut connects = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let client = connect(&self.daemon.addr);
            trace.span("client.connect_hello", t);
            if client.is_some() {
                connects.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        sink.put("client.connect_hello_ms", median(&connects), "ms");

        // Wire codec on the events of a GoogLeNet run, encoded and
        // decoded outside the daemon.
        let req = RunRequest {
            network: NetworkSource::Zoo("googlenet".into()),
            ..request(self.seed, 0)
        };
        let runner = crate::reference_runner(&req);
        let report = runner
            .run_network(&crate::resolve(&req.network), req.policy)
            .expect("zoo networks run");
        let events: Vec<Event> = report
            .layers
            .iter()
            .map(|l| Event::Layer {
                name: l.name.clone(),
                scheme: l.scheme,
                stats: l.stats,
                ideal_cycles: l.ideal_cycles,
                transform_cycles: l.layout_transform_cycles,
            })
            .collect();
        let rounds = 50;
        let t = Instant::now();
        let mut lines = Vec::new();
        for _ in 0..rounds {
            lines = events.iter().map(|e| e.encode_framed(Some(1))).collect();
        }
        let encode = t.elapsed();
        trace.span("wire.encode", t);
        let t = Instant::now();
        for _ in 0..rounds {
            for line in &lines {
                std::hint::black_box(Event::decode_framed(line).expect("own encoding decodes"));
            }
        }
        let decode = t.elapsed();
        trace.span("wire.decode", t);
        let n = (rounds * events.len()) as f64;
        sink.put("wire.encode_us", encode.as_secs_f64() * 1e6 / n, "us");
        sink.put("wire.decode_us", decode.as_secs_f64() * 1e6 / n, "us");
    }
}
