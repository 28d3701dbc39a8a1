//! End-to-end and per-layer benchmark of the C-Brain reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|forward|serve|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload exercises one path (sweep, forward, serve, fleet). An
//! untraced run sets it up several times (`setup_s` is the median), then
//! measures it for `--seconds` and prints the end-to-end metrics. A
//! traced run prints the per-layer metrics of every path instead. The
//! last stdout line is the JSON result; the line before it records the
//! host facts. See `perfbench/README.md` for the metric map.

mod fleet;
mod forward;
mod measure;
mod serve;
mod sweep;
mod synth;

use cbrain::report::render_run_report;
use cbrain::{RunOptions, Runner};
use cbrain_model::{spec, zoo, Network};
use cbrain_serve::wire::{NetworkSource, RunRequest};
use measure::{median, Sink};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use synth::LayerMix;

/// Hard ceiling on one process: past it the watchdog ends the process
/// with a failure instead of letting a stuck thread hang the caller.
const WATCHDOG: Duration = Duration::from_secs(170);

/// The workloads, one per path.
const WORKLOADS: [&str; 4] = ["sweep", "forward", "serve", "fleet"];

/// How long a traced run probes each path other than the named one.
const PROBE: Duration = Duration::from_millis(1500);

/// Set-up runs at least `MIN_SETUPS` times and until `SETUP_BUDGET`
/// has passed, at most `MAX_SETUPS` times; `setup_s` is the median. A
/// cheap set-up (sweep's is ~20 ms) thus gets enough samples for a
/// steady median, and an expensive one (forward's is ~0.5 s) no more
/// than it needs.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 60;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// The end-to-end metrics every untraced run prints, each measured on
/// the named workload's own path.
const END_TO_END: [&str; 4] = ["setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms"];

/// Spans recorded around calls into the crates, shared across threads.
#[derive(Clone, Default)]
pub struct Trace {
    spans: Arc<Mutex<Vec<(&'static str, Duration)>>>,
}

impl Trace {
    /// Records a span named `name` that started at `start` and ends now.
    pub fn span(&self, name: &'static str, start: Instant) {
        let d = start.elapsed();
        self.spans.lock().expect("trace lock").push((name, d));
    }

    /// Per-name `count` and total milliseconds, sorted by name.
    fn summary(&self) -> String {
        let mut agg: std::collections::BTreeMap<&str, (u64, f64)> = Default::default();
        for (name, d) in self.spans.lock().expect("trace lock").iter() {
            let e = agg.entry(name).or_default();
            e.0 += 1;
            e.1 += d.as_secs_f64() * 1e3;
        }
        agg.iter()
            .map(|(n, (c, ms))| format!("{n} count={c} total_ms={ms:.3}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Resolves a request's network the way the daemon does.
pub fn resolve(source: &NetworkSource) -> Network {
    match source {
        NetworkSource::Zoo(name) => zoo::by_name(name).expect("mix names zoo networks"),
        NetworkSource::Spec(text) => spec::parse(text).expect("generated specs parse"),
    }
}

/// An in-process runner configured exactly as the daemon configures one
/// for `req`.
pub fn reference_runner(req: &RunRequest) -> Runner {
    Runner::with_options(
        req.config(),
        RunOptions {
            workload: req.workload,
            batch: req.batch,
            ..RunOptions::default()
        },
    )
}

/// The report an in-process `Runner` renders for `req`, with the cache
/// provenance (`cache Nh/Mm`) zeroed: a warm cache legitimately differs
/// from a cold one there, which is still an open question for the
/// byte-identity contract, so every comparison leaves it out.
pub fn reference_text(req: &RunRequest) -> String {
    let report = reference_runner(req)
        .run_network(&resolve(&req.network), req.policy)
        .expect("reference run succeeds");
    masked(report)
}

/// `render_run_report` with the cache provenance zeroed.
pub fn masked(mut report: cbrain::NetworkReport) -> String {
    report.cache_hits = 0;
    report.cache_misses = 0;
    render_run_report(&report, true)
}

/// Records a workload's measured layer shares as notes.
pub fn put_mix(sink: &mut Sink, workload: &str, mix: &LayerMix) {
    for (category, share) in mix.shares() {
        sink.note(format!("{workload}.{category}"), share);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// Removes every `CBRAIN_*` variable so the run sees the defaults:
/// persistence off unless a path is given, SIMD dispatch on, telemetry on.
fn pin_environment() -> Vec<String> {
    let pinned: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("CBRAIN_"))
        .collect();
    for k in &pinned {
        std::env::remove_var(k);
    }
    pinned
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn host_facts(nproc: usize, unset: &[String]) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".into(), |c| c.trim().to_owned());
    format!(
        "host: {{\"nproc\": {nproc}, \"simd\": \"{}\", \"rustc\": \"{rustc}\", \"commit\": \"{commit}\", \
         \"cache_persistence\": \"off (sweep persists to a temp file in the checkout)\", \
         \"unset_env\": \"{}\", \"telemetry\": \"default (on)\"}}",
        cbrain_simd::Backend::active().name(),
        unset.join(",")
    )
}

/// The named workload's path, set up and ready to measure.
enum Path {
    Sweep(sweep::SweepPath),
    Forward(forward::ForwardPath),
    Serve(serve::ServePath),
    Fleet(fleet::FleetPath),
}

impl Path {
    fn setup(workload: &str, seed: u64, nproc: usize) -> Path {
        match workload {
            "sweep" => Path::Sweep(sweep::SweepPath::setup(seed)),
            "forward" => Path::Forward(forward::ForwardPath::setup(seed)),
            "serve" => Path::Serve(serve::ServePath::setup(seed, nproc)),
            _ => Path::Fleet(fleet::FleetPath::setup(seed)),
        }
    }

    fn stop(self) {
        match self {
            Path::Serve(p) => p.stop(),
            Path::Fleet(p) => p.stop(),
            Path::Sweep(_) | Path::Forward(_) => {}
        }
    }

    fn run(&self, window: Duration, trace: Option<&Trace>, sink: &mut Sink) -> measure::Tally {
        match self {
            Path::Sweep(p) => p.run(window, trace, sink),
            Path::Forward(p) => p.run(window, trace, sink),
            Path::Serve(p) => p.run(window, trace, sink),
            Path::Fleet(p) => p.run(window, trace, sink),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload sweep|forward|serve|fleet --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("watchdog: run exceeded {WATCHDOG:?}; a thread is stuck");
        std::process::exit(3);
    });
    let unset = pin_environment();
    let nproc = cbrain::available_jobs();

    let mut setup_times = Vec::new();
    let mut path: Option<Path> = None;
    let setups_start = Instant::now();
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS && setups_start.elapsed() < SETUP_BUDGET)
    {
        // Tear the previous set-up down first, so peak memory and the
        // thread count hold one.
        if let Some(previous) = path.take() {
            previous.stop();
        }
        let t = Instant::now();
        path = Some(Path::setup(&args.workload, args.seed, nproc));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut path = path.expect("at least one set-up");
    if let Path::Forward(p) = &mut path {
        // The reference logits: computed once, outside the timed set-up
        // (they are the benchmark's oracle, not the system's work).
        p.compute_reference();
    }

    let window = Duration::from_secs(args.seconds);
    let mut sink = Sink::default();
    sink.put("setup_s", median(&setup_times), "s");
    let tally = if args.trace {
        traced(&args, nproc, &path, window, &mut sink)
    } else {
        path.run(window, None, &mut sink)
    };
    let end_to_end = !args.trace;
    sink.retain(|name| END_TO_END.contains(&name) == end_to_end);
    let _ = std::fs::remove_dir_all(sweep::TMP_DIR);
    println!("inputs: {}", sink.notes_json());
    println!("{}", host_facts(nproc, &unset));
    // `correct` is about answers: a timed-out operation is a failure but
    // not a wrong answer.
    let correct = tally.wrong == 0;
    println!(
        "{}",
        sink.to_json(correct, tally.attempted.max(1), tally.failed)
    );
    // Detached client threads of a stalled daemon may still be blocked;
    // leave without waiting for them.
    std::process::exit(0);
}

/// The traced run: the named path untraced for half the window, then
/// traced for the other half (the difference is the tracing overhead),
/// then a short traced probe of every other path so each per-layer
/// metric is present.
fn traced(
    args: &Args,
    nproc: usize,
    path: &Path,
    window: Duration,
    sink: &mut Sink,
) -> measure::Tally {
    let trace = Trace::default();
    let half = window / 2;
    let mut untraced = Sink::default();
    let mut tally = path.run(half, None, &mut untraced);
    tally.add(path.run(half, Some(&trace), sink));
    // Both halves report their op rate over the timed operations only,
    // so the traced half's extra layer probes do not count as overhead.
    let rate = |s: &Sink| s.get("ops_per_s").unwrap_or(f64::NAN);
    sink.put(
        "trace.overhead_pct",
        (rate(&untraced) / rate(sink) - 1.0) * 100.0,
        "%",
    );
    // Peak memory of the named path, taken before the probes below.
    sink.put("process.peak_rss_mb", peak_rss_mb(), "MB");
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let mut probe = Path::setup(other, args.seed, nproc);
        if let Path::Forward(p) = &mut probe {
            p.compute_reference();
        }
        // `attempted` and `failed` count the named workload only; a
        // probe's failures show in its path's per-layer metrics (the
        // `*.failed_share` of serve and fleet). A wrong answer from a
        // probe still makes the whole run incorrect.
        tally.wrong += probe.run(PROBE, Some(&trace), sink).wrong;
    }
    eprintln!("spans:\n{}", trace.summary());
    tally
}
