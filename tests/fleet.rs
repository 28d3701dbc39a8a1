//! End-to-end tests of the sharded `cbrand` fleet: a three-shard
//! scatter/gather run must render reports byte-identical to a
//! single-process [`Runner`], survive shard deaths mid-sequence, and
//! reject peers speaking another protocol version.

mod common;

use cbrain::report::render_run_report;
use cbrain::{Policy, RunOptions, Runner};
use cbrain_fleet::{FleetRouter, RetryPolicy};
use cbrain_model::{zoo, Network};
use cbrain_serve::daemon::{Daemon, DaemonOptions};
use cbrain_serve::json::Value;
use cbrain_serve::wire::{Event, NetworkSource, Request, RunRequest};
use cbrain_serve::{Client, ClientError};
use cbrain_sim::AcceleratorConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

/// Boots one in-process `cbrand` shard on an ephemeral loopback port.
fn shard() -> (String, thread::JoinHandle<std::io::Result<String>>) {
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 2,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    (addr, thread::spawn(move || daemon.run()))
}

fn shutdown(addr: &str) {
    let mut client = Client::builder(addr)
        .connect()
        .expect("connect for shutdown");
    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
}

/// Retry parameters tight enough to keep dead-shard tests fast.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 2,
        backoff: Duration::from_millis(1),
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(10),
        busy_wait: Duration::from_millis(100),
    }
}

/// The report a fresh single-process runner renders.
fn direct_report(net: &Network, policy: Policy) -> String {
    let runner = Runner::with_options(
        AcceleratorConfig::paper_16_16(),
        RunOptions {
            jobs: 1,
            ..RunOptions::default()
        },
    );
    let report = runner.run_network(net, policy).expect("compiles");
    render_run_report(&report, true)
}

/// The report a fleet run over `router` renders.
fn fleet_report(router: &std::sync::Arc<FleetRouter>, net: &Network, policy: Policy) -> String {
    let report = cbrain_fleet::run_network_on_fleet(
        router,
        net,
        policy,
        AcceleratorConfig::paper_16_16(),
        RunOptions::default(),
    )
    .expect("fleet run");
    render_run_report(&report, true)
}

#[test]
fn three_shard_fleet_is_byte_identical_for_every_zoo_network() {
    let _watchdog = common::watchdog();
    let (a, ha) = shard();
    let (b, hb) = shard();
    let (c, hc) = shard();
    let router = std::sync::Arc::new(FleetRouter::with_policy(
        vec![a.clone(), b.clone(), c.clone()],
        0,
        fast_retry(),
        1,
    ));
    for (addr, outcome) in router.probe_shards() {
        outcome.unwrap_or_else(|e| panic!("probe of {addr} failed: {e}"));
    }

    let adpa2 = Policy::Adaptive {
        improved_inter: true,
    };
    for net in zoo::all() {
        assert_eq!(
            fleet_report(&router, &net, adpa2),
            direct_report(&net, adpa2),
            "{} under adpa-2",
            net.name()
        );
    }
    // Search policies send other batch shapes: the Oracle's four keys
    // per conv layer, and the pruned oracle's batched first visits
    // followed by one-key tail compiles.
    for policy in [Policy::Oracle, Policy::OraclePruned] {
        for net in [zoo::alexnet(), zoo::nin()] {
            assert_eq!(
                fleet_report(&router, &net, policy),
                direct_report(&net, policy),
                "{} under {policy:?}",
                net.name()
            );
        }
    }
    assert!(
        router.shard_states().iter().all(|s| !s.is_down()),
        "healthy shards must stay up"
    );

    // Per-shard router metrics exist for all three shards (ring order)
    // and a healthy fleet records no failures. The same counters are
    // registered process-globally under labeled names, so a scrape of
    // this process would expose them too.
    assert_eq!(router.shard_metrics().len(), 3);
    for m in router.shard_metrics() {
        assert_eq!(m.downmarks.get(), 0, "no healthy shard was down-marked");
        assert_eq!(m.reroutes.get(), 0, "no key left its preferred shard");
    }
    let global = cbrain::telemetry::Registry::global().samples();
    for addr in [&a, &b, &c] {
        let name = format!("router_downmarks_total{{shard=\"{addr}\"}}");
        assert!(
            global.iter().any(|s| s.name == name),
            "global registry must carry {name}"
        );
    }

    // Every entry a shard holds was compiled there by `compile_keys`,
    // and each of those compiles must count as exactly one cache miss.
    for addr in [&a, &b, &c] {
        let mut client = Client::builder(addr).connect().expect("connect");
        let terminal = client.submit(&Request::Metrics, |_| {}).expect("metrics");
        let Event::Metrics { metrics } = terminal else {
            panic!("expected metrics, got {terminal:?}");
        };
        let read = |name: &str| {
            metrics
                .get(name)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("metric `{name}` missing"))
        };
        let compiled = read("cache_entries");
        assert!(compiled > 0, "shard {addr} compiled nothing");
        assert_eq!(
            read("cache_misses_total"),
            compiled,
            "shard {addr}: one miss per compiled entry"
        );
    }

    for addr in [&a, &b, &c] {
        shutdown(addr);
    }
    for handle in [ha, hb, hc] {
        handle.join().expect("server thread").expect("clean exit");
    }
}

#[test]
fn fleet_survives_a_shard_dying_mid_run() {
    let _watchdog = common::watchdog();
    // Shard `rogue` accepts connections and immediately drops them — a
    // daemon crashing mid-exchange. Its keys must reroute to the two
    // real shards without perturbing a single report byte.
    let rogue_listener = TcpListener::bind("127.0.0.1:0").expect("bind rogue");
    let rogue = rogue_listener.local_addr().expect("addr").to_string();
    thread::spawn(move || {
        for stream in rogue_listener.incoming() {
            drop(stream);
        }
    });
    let (a, ha) = shard();
    let (b, hb) = shard();
    let router = std::sync::Arc::new(FleetRouter::with_policy(
        vec![rogue.clone(), a.clone(), b.clone()],
        0,
        fast_retry(),
        1,
    ));
    let adpa2 = Policy::Adaptive {
        improved_inter: true,
    };
    let net = zoo::vgg16();
    assert_eq!(
        fleet_report(&router, &net, adpa2),
        direct_report(&net, adpa2)
    );
    assert!(
        router.shard_states()[0].is_down(),
        "the crashing shard must be marked down"
    );
    assert!(!router.shard_states()[1].is_down());
    assert!(!router.shard_states()[2].is_down());
    // The failover is visible in the router metrics: the rogue shard
    // took a down-mark, its keys rerouted, and the transport retries
    // before the mark were counted — all without costing a report byte.
    let rogue_metrics = &router.shard_metrics()[0];
    assert_eq!(rogue_metrics.downmarks.get(), 1, "one down-mark per death");
    assert!(rogue_metrics.reroutes.get() > 0, "its keys moved elsewhere");
    assert!(rogue_metrics.retries.get() > 0, "retries precede the mark");
    assert_eq!(router.shard_metrics()[1].downmarks.get(), 0);
    assert_eq!(router.shard_metrics()[2].downmarks.get(), 0);

    // Now kill a *real* shard between runs: connection-refused is the
    // other transport failure mode, and the survivor plus local
    // fallback must still render the identical report.
    shutdown(&a);
    ha.join().expect("server thread").expect("clean exit");
    let net = zoo::alexnet();
    assert_eq!(
        fleet_report(&router, &net, adpa2),
        direct_report(&net, adpa2)
    );
    assert!(
        router.shard_states()[1].is_down(),
        "killed shard marked down"
    );
    assert_eq!(
        router.shard_metrics()[1].downmarks.get(),
        1,
        "connection-refused advances the killed shard's down-mark counter"
    );
    assert!(router.shard_metrics()[1].reroutes.get() > 0);

    shutdown(&b);
    hb.join().expect("server thread").expect("clean exit");
}

#[test]
fn busy_shard_is_backed_off_but_never_marked_down() {
    let _watchdog = common::watchdog();
    // A fake shard that sheds every connection: one unsolicited `busy`
    // line, a half-close, then a drain to EOF — exactly the daemon's
    // admission-control shed path.
    let busy_listener = TcpListener::bind("127.0.0.1:0").expect("bind busy shard");
    let busy_addr = busy_listener.local_addr().expect("addr").to_string();
    thread::spawn(move || {
        for stream in busy_listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = stream.write_all(b"{\"ev\":\"busy\",\"retry_after_ms\":1,\"queue_depth\":1}\n");
            let _ = stream.shutdown(Shutdown::Write);
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let mut sink = [0u8; 1024];
            while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
        }
    });

    let (real, handle) = shard();
    let router = std::sync::Arc::new(FleetRouter::with_policy(
        vec![busy_addr.clone(), real.clone()],
        0,
        fast_retry(),
        1,
    ));

    // The probe sees `busy` — proof of life, not a failure: the shard
    // must stay in rotation while the reachable peer probes clean.
    let outcomes = router.probe_shards();
    assert!(
        matches!(outcomes[0].1, Err(ClientError::Busy { .. })),
        "expected a busy probe outcome, got {:?}",
        outcomes[0].1
    );
    assert!(outcomes[1].1.is_ok(), "{:?}", outcomes[1].1);
    assert!(
        !router.shard_states()[0].is_down(),
        "a busy shard must not be marked down"
    );

    // A full run: keys preferring the busy shard wait out the policy's
    // busy budget, then reroute to the real shard for this batch —
    // without perturbing a single report byte or down-marking anyone.
    let adpa2 = Policy::Adaptive {
        improved_inter: true,
    };
    let net = zoo::alexnet();
    assert_eq!(
        fleet_report(&router, &net, adpa2),
        direct_report(&net, adpa2)
    );
    assert!(
        !router.shard_states()[0].is_down(),
        "busy answers mid-run must not mark the shard down"
    );
    assert!(!router.shard_states()[1].is_down());
    assert!(
        router.shard_metrics()[0].busy_backoffs.get() > 0,
        "the shed answers were counted as busy backoffs"
    );
    assert_eq!(
        router.shard_metrics()[0].downmarks.get(),
        0,
        "busy is never a down-mark"
    );

    shutdown(&real);
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn hello_version_mismatch_is_rejected_and_the_connection_closed() {
    let _watchdog = common::watchdog();
    let (addr, handle) = shard();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"{\"req\":\"hello\",\"version\":999}\n")
        .expect("send rogue hello");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read answer");
    assert!(line.contains("error"), "{line}");
    assert!(line.contains("mismatch"), "{line}");
    line.clear();
    let n = reader.read_line(&mut line).expect("read eof");
    assert_eq!(n, 0, "daemon must close the connection, got {line:?}");

    // A well-versioned hello on a fresh connection still works.
    let mut client = Client::builder(&addr)
        .no_handshake()
        .connect()
        .expect("connect");
    let caps = client.hello().expect("hello");
    assert!(caps.iter().any(|c| c == "compile_keys"), "{caps:?}");

    shutdown(&addr);
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn evict_request_bounds_the_daemon_cache() {
    let _watchdog = common::watchdog();
    let (addr, handle) = shard();
    let mut client = Client::builder(&addr).connect().expect("connect");
    let run = RunRequest {
        network: NetworkSource::Zoo("alexnet".into()),
        ..RunRequest::default()
    };
    client.simulate(&run, |_| {}).expect("simulate");

    let before = match client.submit(&Request::Stats, |_| {}).expect("stats") {
        Event::Stats { entries, .. } => entries,
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(before > 2, "alexnet must cache more than 2 layers");

    let terminal = client
        .submit(&Request::Evict { max: 2 }, |_| {})
        .expect("evict");
    let Event::Evicted { evicted, entries } = terminal else {
        panic!("expected evicted, got {terminal:?}");
    };
    assert_eq!(evicted, before - 2);
    assert_eq!(entries, 2);

    match client.submit(&Request::Stats, |_| {}).expect("stats") {
        Event::Stats { entries, .. } => assert_eq!(entries, 2),
        other => panic!("expected stats, got {other:?}"),
    }

    shutdown(&addr);
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn ring_layout_is_identical_across_router_instances() {
    // Two independently constructed routers (e.g. two fleet clients on
    // different machines) must agree on every key's shard.
    let shards = vec!["h1:1".to_owned(), "h2:2".to_owned(), "h3:3".to_owned()];
    let x = FleetRouter::new(shards.clone(), 42);
    let y = FleetRouter::new(shards, 42);
    for key_hash in (0u64..4096).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
        assert_eq!(x.ring().preference(key_hash), y.ring().preference(key_hash));
    }
}
