//! End-to-end tests of the `cbrand` serving daemon over loopback TCP:
//! streamed client reports must be byte-identical to a single-process
//! [`Runner`], and the persisted cache must make a daemon restart warm.

mod common;

use cbrain::report::render_run_report;
use cbrain::{RunOptions, Runner};
use cbrain_serve::daemon::{Daemon, DaemonOptions};
use cbrain_serve::json::Value;
use cbrain_serve::wire::{Event, NetworkSource, Request, RunRequest};
use cbrain_serve::{Client, ClientError};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

/// The report a fresh single-process runner renders for `run`.
fn direct_report(run: &RunRequest, breakdown: bool) -> String {
    let net = match &run.network {
        NetworkSource::Zoo(name) => cbrain::model::zoo::by_name(name).expect("zoo network"),
        NetworkSource::Spec(text) => cbrain::model::spec::parse(text).expect("valid spec"),
    };
    let runner = Runner::with_options(
        run.config(),
        RunOptions {
            workload: run.workload,
            batch: run.batch,
            jobs: 1,
            ..RunOptions::default()
        },
    );
    let report = runner.run_network(&net, run.policy).expect("compiles");
    render_run_report(&report, breakdown)
}

#[test]
fn two_concurrent_clients_render_byte_identical_reports() {
    let _watchdog = common::watchdog();
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 2,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());

    // Two different (network, PE) pairs, so the requests share no layer
    // key: each client's hit/miss line — part of the rendered report —
    // must then match a fresh single-process run exactly, no matter how
    // the daemon interleaves them.
    let runs = [
        RunRequest {
            network: NetworkSource::Zoo("alexnet".into()),
            ..RunRequest::default()
        },
        RunRequest {
            network: NetworkSource::Zoo("nin".into()),
            pe: (32, 32),
            ..RunRequest::default()
        },
    ];
    thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .map(|run| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::builder(&addr).connect().expect("connect");
                    let mut streamed_layers = 0usize;
                    let report = client
                        .simulate(run, |_layer| streamed_layers += 1)
                        .expect("simulate");
                    assert!(streamed_layers > 0, "layer events should stream");
                    assert_eq!(streamed_layers, report.layers.len());
                    render_run_report(&report, true)
                })
            })
            .collect();
        for (run, handle) in runs.iter().zip(handles) {
            let remote = handle.join().expect("client thread");
            assert_eq!(remote, direct_report(run, true));
        }
    });

    let mut client = Client::builder(&addr).connect().expect("connect");
    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

/// A small sequential network on which the adaptive policy picks both
/// functional executor families: a strided kernel-partition layer (`c1`,
/// Din 3), a padded 3x3 and a 1x1 improved-inter layer (`c2`, `c3`,
/// Din 16) and a grouped partition layer (`c4`, Din 12 per group).
const FORWARD_SPEC: &str = "\
network fwdnet input 3x35x35
conv c1 @3x35x35 out=16 k=7 s=2 pad=0 groups=1
conv c2 @16x15x15 out=16 k=3 s=1 pad=1 groups=1
conv c3 @16x15x15 out=24 k=1 s=1 pad=0 groups=1
conv c4 @24x15x15 out=32 k=3 s=1 pad=1 groups=2
fc head @32x15x15 out=10
";

#[test]
fn forward_request_matches_in_process_forward_bit_for_bit() {
    use cbrain::forward::{forward, NetworkWeights};
    use cbrain::model::Tensor3;
    use cbrain_compiler::Scheme;

    let _watchdog = common::watchdog();
    let daemon = Daemon::bind("127.0.0.1:0", DaemonOptions::default()).expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());

    let run = RunRequest {
        network: NetworkSource::Spec(FORWARD_SPEC.into()),
        ..RunRequest::default()
    };
    let seed = 0x00F0_2A4D;
    let mut client = Client::builder(&addr).connect().expect("connect");
    let remote = client
        .submit(
            &Request::Forward {
                run: run.clone(),
                seed,
            },
            |_| {},
        )
        .expect("forward");
    let Event::Forward {
        output_len,
        checksum,
        head,
    } = remote
    else {
        panic!("expected a forward event, got {remote:?}");
    };

    // The same pass in process, seeded the way the daemon seeds it.
    let net = cbrain::model::spec::parse(FORWARD_SPEC).expect("valid spec");
    let input = Tensor3::random(net.input(), seed);
    let weights = NetworkWeights::random(&net, seed + 1);
    let local = forward(&net, &input, &weights, run.policy, &run.config()).expect("forward");
    let schemes: Vec<Option<Scheme>> = local.schemes.iter().map(|(_, s)| *s).collect();
    assert!(schemes.contains(&Some(Scheme::Partition)), "{schemes:?}");
    assert!(
        schemes.contains(&Some(Scheme::InterImproved)),
        "{schemes:?}"
    );

    let local_checksum: f64 = local.output.iter().map(|v| f64::from(*v)).sum();
    assert_eq!(output_len, local.output.len() as u64);
    assert_eq!(checksum.to_bits(), local_checksum.to_bits());
    let local_head: Vec<u64> = local
        .output
        .iter()
        .take(8)
        .map(|v| f64::from(*v).to_bits())
        .collect();
    let remote_head: Vec<u64> = head.iter().map(|v| v.to_bits()).collect();
    assert_eq!(remote_head, local_head);

    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

/// This process's current thread count, if the platform exposes it.
fn os_thread_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn overloaded_daemon_sheds_with_busy_yet_every_client_converges() {
    let _watchdog = common::watchdog();
    // A deliberately tiny daemon: 2 connection workers and a queue of
    // one, so 8 concurrent clients can overflow admission.
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 1,
            workers: 2,
            queue_depth: 1,
            busy_retry_ms: 5,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    assert_eq!(daemon.workers(), 2);
    let addr = daemon.local_addr().to_string();
    let threads_before = os_thread_count();
    let server = thread::spawn(move || daemon.run());

    // Eight clients over eight DISTINCT PE shapes: the PE config is
    // part of every layer key, so no request shares a key with another
    // (two networks at the same PE can share pool/conv keys!) and each
    // client's hit/miss line must match a fresh single-process run no
    // matter how the overloaded daemon interleaves or sheds them.
    let pes = [
        (16, 16),
        (32, 32),
        (16, 32),
        (32, 16),
        (8, 8),
        (8, 16),
        (16, 8),
        (24, 24),
    ];
    let runs: Vec<RunRequest> = pes
        .iter()
        .enumerate()
        .map(|(i, &pe)| RunRequest {
            network: NetworkSource::Zoo(if i % 2 == 0 { "alexnet" } else { "nin" }.to_owned()),
            pe,
            ..RunRequest::default()
        })
        .collect();

    // Three silent connections (workers + queue depth) hold occupancy
    // at the high-water mark: a connection that never completed a
    // request counts as load, so the clients below are shed until these
    // close. That makes the overflow certain however fast the daemon
    // serves each request.
    let mut silent: Option<Vec<std::net::TcpStream>> = Some(
        (0..3)
            .map(|_| std::net::TcpStream::connect(&addr).expect("silent connect"))
            .collect(),
    );

    let busy_seen = AtomicU64::new(0);
    let mut peak_threads = os_thread_count();
    thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .map(|run| {
                let addr = addr.clone();
                let busy_seen = &busy_seen;
                scope.spawn(move || {
                    // A zero busy budget surfaces every shed answer so
                    // the test can count them; the manual retry loop
                    // then honours the daemon's hint by hand.
                    loop {
                        match Client::builder(&addr).busy_wait(Duration::ZERO).connect() {
                            Ok(mut client) => {
                                let report = client.simulate(run, |_| {}).expect("simulate");
                                return render_run_report(&report, true);
                            }
                            Err(ClientError::Busy { retry_after_ms, .. }) => {
                                busy_seen.fetch_add(1, Ordering::SeqCst);
                                thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                            }
                            Err(e) => panic!("unexpected client failure: {e}"),
                        }
                    }
                })
            })
            .collect();
        while handles.iter().any(|h| !h.is_finished()) {
            if busy_seen.load(Ordering::SeqCst) >= 1 {
                // Shedding was observed: free the seats so the clients
                // converge.
                drop(silent.take());
            }
            peak_threads = peak_threads.max(os_thread_count());
            thread::sleep(Duration::from_millis(5));
        }
        for (run, handle) in runs.iter().zip(handles) {
            let remote = handle.join().expect("client thread");
            assert_eq!(
                remote,
                direct_report(run, true),
                "overload broke byte-identity"
            );
        }
    });

    // The fixed worker pool must keep the daemon's thread count flat:
    // 8 client threads + accept + 2 workers + shed reaper + slack, not
    // a thread per accepted-or-shed connection.
    if let (Some(before), Some(peak)) = (threads_before, peak_threads) {
        assert!(
            peak <= before + 13,
            "thread count unbounded under overload: {before} before, {peak} at peak"
        );
    }

    // The daemon must have shed at least once (8 clients into a queue
    // of one), and the clients must have seen it as `busy`.
    assert!(
        busy_seen.load(Ordering::SeqCst) >= 1,
        "no client ever observed a busy answer"
    );
    let mut client = Client::builder(&addr).connect().expect("connect");
    let stats = client.submit(&Request::Stats, |_| {}).expect("stats");
    let Event::Stats { accepted, shed, .. } = stats else {
        panic!("expected stats, got {stats:?}");
    };
    assert!(shed >= 1, "daemon counters never recorded a shed");
    assert!(accepted >= 8, "every client converged, so accepted >= 8");
    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn progress_counters_track_runs_and_settle_idle() {
    let _watchdog = common::watchdog();
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 2,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());

    let progress = |client: &mut Client| {
        let terminal = client.submit(&Request::Progress, |_| {}).expect("progress");
        let Event::Progress {
            runs_active,
            runs_done,
            layers_done,
            layers_total,
        } = terminal
        else {
            panic!("expected progress, got {terminal:?}");
        };
        (runs_active, runs_done, layers_done, layers_total)
    };

    // An idle daemon reports all zeroes.
    let mut client = Client::builder(&addr).connect().expect("connect");
    assert_eq!(progress(&mut client), (0, 0, 0, 0));

    // During a run, a second connection must see it counted: poll from
    // inside the layer-stream callback, where the run is active by
    // construction.
    let mut poller = Client::builder(&addr).connect().expect("connect");
    let mut mid_run = None;
    let run = RunRequest {
        network: NetworkSource::Zoo("alexnet".into()),
        ..RunRequest::default()
    };
    client
        .simulate(&run, |_layer| {
            if mid_run.is_none() {
                mid_run = Some(progress(&mut poller));
            }
        })
        .expect("simulate");
    // The daemon may already have finished the (fast) run by the time
    // the poll lands, so accept both sides of that race — but demand a
    // consistent snapshot either way.
    let (active, done, layers_done, layers_total) = mid_run.expect("layer events streamed");
    assert_eq!(active + done, 1, "exactly one run was submitted");
    if active == 1 {
        assert!(layers_total > 0, "active run must contribute layer cells");
        assert!(layers_done <= layers_total);
    } else {
        assert_eq!(
            (layers_done, layers_total),
            (0, 0),
            "finished run must unwind"
        );
    }

    // After the run finishes its contribution unwinds: one run done,
    // nothing active, no layer cells in flight.
    assert_eq!(progress(&mut client), (0, 1, 0, 0));

    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

/// Submits a `metrics` request and returns the decoded registry object.
fn fetch_metrics(client: &mut Client) -> Value {
    let terminal = client.submit(&Request::Metrics, |_| {}).expect("metrics");
    let Event::Metrics { metrics } = terminal else {
        panic!("expected metrics, got {terminal:?}");
    };
    metrics
}

/// The u64 payload of a named counter in a metrics object.
fn counter(metrics: &Value, name: &str) -> u64 {
    metrics
        .get(name)
        .unwrap_or_else(|| panic!("metric `{name}` missing"))
        .as_u64()
        .unwrap_or_else(|| panic!("metric `{name}` is not a u64"))
}

#[test]
fn metrics_request_is_sorted_and_agrees_with_stats() {
    let _watchdog = common::watchdog();
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 2,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());

    let mut client = Client::builder(&addr).connect().expect("connect");
    let run = RunRequest {
        network: NetworkSource::Zoo("alexnet".into()),
        ..RunRequest::default()
    };
    let report = client.simulate(&run, |_| {}).expect("simulate");

    let metrics = fetch_metrics(&mut client);
    let Value::Obj(members) = &metrics else {
        panic!("metrics must be an object");
    };
    // Sorted, duplicate-free member names — the diff-stability contract.
    assert!(
        members.windows(2).all(|w| w[0].0 < w[1].0),
        "metrics keys must be strictly sorted"
    );

    // The registry view and the v2.1 stats view must agree: both are
    // fed by the same counters.
    let stats = client.submit(&Request::Stats, |_| {}).expect("stats");
    let Event::Stats {
        entries,
        hits,
        misses,
        ..
    } = stats
    else {
        panic!("expected stats, got {stats:?}");
    };
    assert_eq!(counter(&metrics, "cache_hits_total"), hits);
    assert_eq!(counter(&metrics, "cache_misses_total"), misses);
    assert_eq!(counter(&metrics, "cache_entries"), entries);
    assert_eq!(
        counter(&metrics, "cache_misses_total"),
        report.cache_misses,
        "a lone client's misses are the daemon's misses"
    );
    assert!(counter(&metrics, "requests_total") >= 2);
    assert_eq!(counter(&metrics, "admission_shed_total"), 0);
    assert_eq!(counter(&metrics, "progress_runs_done_total"), 1);
    // The per-request histograms exist for every request kind, as
    // nested objects with a bucket map.
    let sim = metrics
        .get("request_seconds{req=\"simulate\"}")
        .expect("simulate latency histogram");
    assert_eq!(counter(sim, "count"), 1);
    assert!(sim.get("buckets").is_some());

    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

/// One plain HTTP/1.0 GET against the metrics listener; returns
/// (status line, body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let status = head.lines().next().expect("status line").to_owned();
    (status, body.to_owned())
}

#[test]
fn prometheus_scrape_is_byte_stable_and_sorted() {
    let _watchdog = common::watchdog();
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 2,
            metrics_addr: Some("127.0.0.1:0".to_owned()),
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let scrape_addr = daemon
        .metrics_addr()
        .expect("metrics listener bound")
        .to_string();
    let server = thread::spawn(move || daemon.run());

    let mut client = Client::builder(&addr).connect().expect("connect");
    let run = RunRequest {
        network: NetworkSource::Zoo("nin".into()),
        ..RunRequest::default()
    };
    client.simulate(&run, |_| {}).expect("simulate");

    // Two scrapes of an idle daemon must be byte-identical — the
    // exposition carries no timestamps and sampling mutates nothing.
    let (status, first) = http_get(&scrape_addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let (_, second) = http_get(&scrape_addr, "/metrics");
    assert_eq!(first, second, "idle scrapes must not drift");

    // Text-format sanity: HELP/TYPE lines present, series names sorted.
    assert!(first.starts_with("# HELP "), "{first}");
    let series: Vec<&str> = first
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert!(series.iter().any(|l| l.starts_with("cache_misses_total ")));
    assert!(series
        .iter()
        .any(|l| l.starts_with("request_seconds_bucket{req=\"simulate\"")));
    let families: Vec<&str> = first
        .lines()
        .filter_map(|l| l.strip_prefix("# HELP "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut sorted = families.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(families, sorted, "families must render sorted, once each");

    // Anything else is a 404, not a hang or a crash.
    let (status, _) = http_get(&scrape_addr, "/other");
    assert!(status.contains("404"), "{status}");

    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn shed_flood_counts_exactly_in_metrics() {
    let _watchdog = common::watchdog();
    // Same overload shape as the shedding test above, but the assertion
    // under test is the *metrics* contract: every `busy` line a client
    // observed is one shed connection, so `admission_shed_total` must
    // equal the observed count exactly — no double counting, no misses.
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 1,
            workers: 2,
            queue_depth: 1,
            busy_retry_ms: 5,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());

    let busy_seen = AtomicU64::new(0);
    let runs: Vec<RunRequest> = [(16, 16), (32, 32), (8, 8), (24, 24), (8, 16), (16, 8)]
        .iter()
        .map(|&pe| RunRequest {
            network: NetworkSource::Zoo("nin".into()),
            pe,
            ..RunRequest::default()
        })
        .collect();
    thread::scope(|scope| {
        for run in &runs {
            let addr = addr.clone();
            let busy_seen = &busy_seen;
            scope.spawn(move || loop {
                match Client::builder(&addr).busy_wait(Duration::ZERO).connect() {
                    Ok(mut client) => {
                        client.simulate(run, |_| {}).expect("simulate");
                        return;
                    }
                    Err(ClientError::Busy { retry_after_ms, .. }) => {
                        busy_seen.fetch_add(1, Ordering::SeqCst);
                        thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                    }
                    Err(e) => panic!("unexpected client failure: {e}"),
                }
            });
        }
    });

    let mut client = Client::builder(&addr).connect().expect("connect");
    let metrics = fetch_metrics(&mut client);
    assert_eq!(
        counter(&metrics, "admission_shed_total"),
        busy_seen.load(Ordering::SeqCst),
        "every busy line is exactly one shed connection"
    );
    assert!(
        counter(&metrics, "admission_accepted_total") >= runs.len() as u64,
        "every client eventually got in"
    );
    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn slow_loris_writers_and_stalled_readers_do_not_delay_other_clients() {
    let _watchdog = common::watchdog();
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 1,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());

    let stop = std::sync::atomic::AtomicBool::new(false);
    let run = RunRequest {
        network: NetworkSource::Zoo("alexnet".into()),
        ..RunRequest::default()
    };
    thread::scope(|scope| {
        // A slow-loris writer: dribbles a request one byte at a time and
        // never finishes the line. In a thread-per-connection daemon this
        // parks a worker; here it must cost a descriptor and nothing else.
        let loris_addr = addr.clone();
        let loris_stop = &stop;
        scope.spawn(move || {
            let mut socket = std::net::TcpStream::connect(&loris_addr).expect("connect loris");
            let line = Request::Stats.encode();
            // Never send the last byte, let alone the newline.
            for byte in line.as_bytes()[..line.len() - 1].iter().cycle() {
                if loris_stop.load(Ordering::SeqCst) {
                    return;
                }
                if socket.write_all(std::slice::from_ref(byte)).is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(5));
            }
        });

        // A stalled reader: submits a full compute request and then never
        // reads a byte of the streamed answer. A distinct PE shape keeps
        // its layer keys out of the honest client's hit/miss line.
        let stalled_run = RunRequest {
            pe: (32, 32),
            ..run.clone()
        };
        let stalled_addr = addr.clone();
        let stalled_stop = &stop;
        scope.spawn(move || {
            let mut socket = std::net::TcpStream::connect(&stalled_addr).expect("connect stalled");
            let mut line = Request::Simulate(stalled_run).encode();
            line.push('\n');
            socket.write_all(line.as_bytes()).expect("send request");
            while !stalled_stop.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_millis(5));
            }
        });

        // Both hostile peers in flight: a normal client must still get a
        // byte-identical report, promptly. Collect, then release the
        // hostile threads BEFORE asserting — a failed assert must not
        // leave the scope joining threads that never stop.
        thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        let outcome = Client::builder(&addr).connect().and_then(|mut client| {
            let report = client.simulate(&run, |_| {})?;
            let elapsed = started.elapsed();
            client.submit(&Request::Shutdown, |_| {})?;
            Ok((render_run_report(&report, true), elapsed))
        });
        stop.store(true, Ordering::SeqCst);
        let (remote, elapsed) = outcome.expect("honest client");
        assert_eq!(
            remote,
            direct_report(&run, true),
            "hostile peers broke byte-identity"
        );
        assert!(
            elapsed < Duration::from_secs(10),
            "a loris and a stalled reader delayed an honest client by {elapsed:?}"
        );
    });
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn idle_soak_keepalive_connections_stay_cheap_under_flood() {
    let _watchdog = common::watchdog();
    // The C10K shape: hundreds of proven keep-alive connections parked
    // on the daemon while a compute flood hits the same tiny pool. Idle
    // peers must cost a descriptor (never a thread), shed accounting
    // must stay exact, and reports must stay byte-identical. The ci
    // harness reruns this test with CBRAIN_TELEMETRY=off — counters and
    // gauges still count there; only span timing goes dark.
    const IDLE_CONNS: usize = 500;
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 1,
            workers: 2,
            queue_depth: 1,
            busy_retry_ms: 5,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let threads_before = os_thread_count();
    let server = thread::spawn(move || daemon.run());

    // Open the idle herd serially: each connection completes the
    // connect-time `hello` before the next one dials, proving itself
    // idle rather than reading as an unproven arrival the admission
    // logic would shed as a connection storm.
    let idle: Vec<Client> = (0..IDLE_CONNS)
        .map(|n| {
            Client::builder(&addr)
                .connect()
                .unwrap_or_else(|e| panic!("idle connect {n}: {e}"))
        })
        .collect();
    let threads_idle = os_thread_count();
    if let (Some(before), Some(now)) = (threads_before, threads_idle) {
        assert!(
            now <= before + 8,
            "{IDLE_CONNS} idle connections grew threads: {before} before, {now} now"
        );
    }

    // The connection gauges see the herd: this metrics client is one
    // more proven connection on top of it.
    let busy_seen = AtomicU64::new(0);
    let connect_counted = |busy_seen: &AtomicU64| loop {
        match Client::builder(&addr).busy_wait(Duration::ZERO).connect() {
            Ok(client) => return client,
            Err(ClientError::Busy { retry_after_ms, .. }) => {
                busy_seen.fetch_add(1, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
            }
            Err(e) => panic!("unexpected client failure: {e}"),
        }
    };
    let mut client = connect_counted(&busy_seen);
    let metrics = fetch_metrics(&mut client);
    assert_eq!(
        counter(&metrics, "connections_open"),
        IDLE_CONNS as u64 + 1,
        "connections_open must count the idle herd plus this client"
    );
    assert!(counter(&metrics, "connections_idle") >= IDLE_CONNS as u64);
    drop(client);

    // Concurrent flood into workers=2/queue_depth=1: sheds are certain;
    // every busy line a client saw must be exactly one shed connection.
    let runs: Vec<RunRequest> = [(16, 16), (32, 32), (8, 8), (24, 24)]
        .iter()
        .map(|&pe| RunRequest {
            network: NetworkSource::Zoo("nin".into()),
            pe,
            ..RunRequest::default()
        })
        .collect();
    let mut peak_threads = os_thread_count();
    thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .map(|run| {
                let busy_seen = &busy_seen;
                let connect_counted = &connect_counted;
                scope.spawn(move || {
                    let mut client = connect_counted(busy_seen);
                    let report = client.simulate(run, |_| {}).expect("simulate");
                    render_run_report(&report, true)
                })
            })
            .collect();
        while handles.iter().any(|h| !h.is_finished()) {
            peak_threads = peak_threads.max(os_thread_count());
            thread::sleep(Duration::from_millis(5));
        }
        for (run, handle) in runs.iter().zip(handles) {
            let remote = handle.join().expect("flood client");
            assert_eq!(
                remote,
                direct_report(run, true),
                "flood over an idle herd broke byte-identity"
            );
        }
    });
    // Flat under flood too: the 4 flood client threads live in this
    // process; the daemon itself adds nothing per connection.
    if let (Some(before), Some(peak)) = (threads_before, peak_threads) {
        assert!(
            peak <= before + 12,
            "thread count grew with load: {before} before, {peak} at peak"
        );
    }

    let mut client = connect_counted(&busy_seen);
    let metrics = fetch_metrics(&mut client);
    assert_eq!(
        counter(&metrics, "admission_shed_total"),
        busy_seen.load(Ordering::SeqCst),
        "every busy line is exactly one shed connection"
    );
    drop(idle);
    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn daemon_restart_serves_from_persisted_cache() {
    let _watchdog = common::watchdog();
    let dir = std::env::temp_dir().join(format!("cbrand_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cache_file = dir.join("compiled-layers.bin");
    let run = Request::Simulate(RunRequest {
        network: NetworkSource::Zoo("alexnet".into()),
        ..RunRequest::default()
    });
    let opts = DaemonOptions {
        jobs: 2,
        cache_path: Some(cache_file.clone()),
        ..DaemonOptions::default()
    };

    let done = |addr: &str| {
        let mut client = Client::builder(addr).connect().expect("connect");
        let terminal = client.submit(&run, |_| {}).expect("simulate");
        client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
        let Event::Done { hits, misses, .. } = terminal else {
            panic!("expected done, got {terminal:?}");
        };
        (hits, misses)
    };

    // Cold daemon: every layer compiles.
    let daemon = Daemon::bind("127.0.0.1:0", opts.clone()).expect("bind");
    assert!(
        daemon.load_note().contains("cold start"),
        "{}",
        daemon.load_note()
    );
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());
    let (_, cold_misses) = done(&addr);
    assert!(cold_misses > 0, "cold run must compile");
    let note = server.join().expect("server thread").expect("clean exit");
    assert!(note.contains("saved"), "{note}");
    assert!(cache_file.exists());

    // Restarted daemon: the persisted file answers everything.
    let daemon = Daemon::bind("127.0.0.1:0", opts).expect("bind");
    assert!(
        daemon.load_note().contains("loaded"),
        "{}",
        daemon.load_note()
    );
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());
    let (warm_hits, warm_misses) = done(&addr);
    assert_eq!(warm_misses, 0, "warm restart must not recompile");
    assert!(warm_hits > 0);
    server.join().expect("server thread").expect("clean exit");

    std::fs::remove_dir_all(&dir).ok();
}
