//! The `fleet` path: two in-process shard daemons, and seeded networks
//! run through `run_network_on_fleet` with a fresh `FleetRouter` per
//! run, as `cbrain fleet-client` does.

use crate::measure::{closed_loop, put_end_to_end, Limits, Op, Sink, Tally};
use crate::serve::{daemon_figures, DaemonFigures, Served};
use crate::synth::{self, LayerMix};
use crate::{masked, put_mix, Trace};
use cbrain::{NetworkReport, Policy, RunOptions, Runner};
use cbrain_fleet::{run_network_on_fleet, FleetRouter};
use cbrain_model::{spec, zoo, Network};
use cbrain_sim::AcceleratorConfig;
use cbrain_telemetry::{Registry, SampleValue};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Shards in the fleet.
const SHARDS: usize = 2;

/// Latency limit and deadline of one fleet run. The router keeps its
/// default `RetryPolicy`; a run still going at the deadline is counted
/// failed and abandoned to finish (or stall) on its own thread.
pub const LIMITS: Limits = Limits {
    limit: Duration::from_millis(150),
    deadline: Duration::from_millis(300),
};

const POLICY: Policy = Policy::Adaptive {
    improved_inter: true,
};

/// Network `index` of the seeded mix: of every five runs, three use a
/// seeded zoo network (warm on the shards after first use) and two a
/// fresh synthetic network (cold compiles). The fixed proportion keeps
/// the shards' cache growth, and so peak memory, from varying by seed.
fn network(seed: u64, index: usize) -> Network {
    let zoo_names = [
        "alexnet",
        "googlenet",
        "vgg16",
        "resnet18",
        "mobilenet_dw",
        "nin",
    ];
    match index % 5 {
        0..=2 => {
            zoo::by_name(zoo_names[synth::roll(seed, index as u64, 6) as usize]).expect("zoo name")
        }
        _ => spec::parse(&synth::spec_text(seed, 5000 + index as u64))
            .expect("generated specs parse"),
    }
}

/// Sum of every `router_<what>_total{shard=...}` counter in the global
/// registry, across shards.
fn router_total(what: &str) -> f64 {
    let prefix = format!("router_{what}_total{{");
    Registry::global()
        .samples()
        .iter()
        .filter(|s| s.name.starts_with(&prefix))
        .map(|s| match s.value {
            SampleValue::Counter(n) => n as f64,
            _ => 0.0,
        })
        .sum()
}

fn router_counters() -> [f64; 4] {
    ["retries", "downmarks", "reroutes", "busy_backoffs"].map(router_total)
}

/// One fleet run as the client saw it.
struct Run {
    index: usize,
    latency: Duration,
    report: Option<NetworkReport>,
    degraded: bool,
}

pub struct FleetPath {
    daemons: Vec<Served>,
    shards: Vec<String>,
    seed: u64,
}

/// One fleet run on a helper thread, waited on for at most the deadline.
fn one_run(shards: &[String], seed: u64, index: usize, net: Network) -> Run {
    let (tx, rx) = mpsc::channel();
    let shards = shards.to_vec();
    let before = router_counters();
    let sent = Instant::now();
    std::thread::spawn(move || {
        let router = Arc::new(FleetRouter::new(shards, seed));
        let out = run_network_on_fleet(
            &router,
            &net,
            POLICY,
            AcceleratorConfig::paper_16_16(),
            RunOptions::default(),
        );
        let _ = tx.send(out.ok());
    });
    let report = rx.recv_timeout(LIMITS.deadline).ok().flatten();
    Run {
        index,
        latency: sent.elapsed(),
        report,
        degraded: router_counters() != before,
    }
}

impl FleetPath {
    pub fn setup(seed: u64) -> Self {
        let daemons: Vec<Served> = (0..SHARDS).map(|_| Served::spawn(1)).collect();
        let shards: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
        // Warm-up: one AlexNet run, bounded like any other.
        let _ = one_run(&shards, seed, usize::MAX, zoo::alexnet());
        Self {
            daemons,
            shards,
            seed,
        }
    }

    pub fn stop(self) {
        for d in self.daemons {
            d.stop();
        }
    }

    pub fn run(&self, window: Duration, trace: Option<&Trace>, sink: &mut Sink) -> Tally {
        let before: Vec<DaemonFigures> = self
            .shards
            .iter()
            .map(|a| daemon_figures(a).unwrap_or_default())
            .collect();
        let scatter_before = scatter();
        let counters_before = router_counters();
        let (shards, seed) = (self.shards.clone(), self.seed);
        let trace_c = trace.cloned();
        let collected = closed_loop(1, window, LIMITS.deadline + Duration::from_millis(250), {
            move |i| {
                let t = Instant::now();
                let run = one_run(&shards, seed, i, network(seed, i));
                if let Some(trace) = &trace_c {
                    trace.span("fleet.run", t);
                }
                run
            }
        });
        let scatter_after = scatter();
        let counters_after = router_counters();
        let after: Vec<DaemonFigures> = self
            .shards
            .iter()
            .map(|a| daemon_figures(a).unwrap_or_default())
            .collect();

        // Output check: each report against an in-process Runner.
        let mut tally = Tally::default();
        let mut ops = Vec::new();
        let mut degraded = 0usize;
        let mut mix = LayerMix::default();
        for r in &collected.done {
            let net = network(self.seed, r.index);
            let ok = r.report.as_ref().is_some_and(|got| {
                let want = Runner::new(AcceleratorConfig::paper_16_16())
                    .run_network(&net, POLICY)
                    .expect("reference run succeeds");
                masked(got.clone()) == masked(want)
            });
            tally.record(r.report.is_some(), ok);
            ops.push(Op::finished(ok, r.latency, LIMITS));
            degraded += usize::from(r.degraded);
            mix.add(&net, 16);
        }
        for &elapsed in &collected.outstanding {
            tally.record(false, false);
            ops.push(Op::finished(false, elapsed, LIMITS));
            degraded += 1;
        }
        let s = crate::measure::summarize(&ops, LIMITS);
        let runs = s.attempted.max(1) as f64;
        put_end_to_end(sink, s.attempted, collected.elapsed, &s.latencies_s);
        sink.put("fleet.failed_share", s.missed as f64 / runs, "share");
        sink.put("fleet.degraded_share", degraded as f64 / runs, "share");
        put_mix(sink, "fleet", &mix);

        let accepted: f64 = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.minus(b).accepted)
            .sum();
        // The closing `metrics` probe is one accept per shard.
        let accepted = accepted - self.shards.len() as f64;
        sink.put("router.connects_per_run", accepted / runs, "count");
        for (i, what) in ["retries", "downmarks", "reroutes"].iter().enumerate() {
            let delta = counters_after[i] - counters_before[i];
            sink.put(format!("router.{what}_per_run"), delta / runs, "count");
        }
        let (n, sum) = (
            scatter_after.0 - scatter_before.0,
            scatter_after.1 - scatter_before.1,
        );
        sink.put("router.scatter_ms_mean", sum / n.max(1.0) * 1e3, "ms");
        tally
    }
}

/// `(count, sum)` of the global `router_scatter_seconds` histogram.
fn scatter() -> (f64, f64) {
    Registry::global()
        .samples()
        .iter()
        .find(|s| s.name == "router_scatter_seconds")
        .map_or((0.0, 0.0), |s| match s.value {
            SampleValue::Histogram { count, sum, .. } => (count as f64, sum),
            _ => (0.0, 0.0),
        })
}
