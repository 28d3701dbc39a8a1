//! Shared measurement plumbing: operation records, percentiles, the
//! metric sink, and the closed loop that keeps every run inside
//! its time box even when the system under test stalls.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Latency limit and deadline of one networked path.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// A reply later than this misses the latency limit.
    pub limit: Duration,
    /// The client stops waiting here (`io_timeout` for a daemon client).
    pub deadline: Duration,
}

/// One timed operation as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Finished, and its output matched the reference.
    pub ok: bool,
    /// Client-observed latency. A failed operation enters at
    /// `max(observed, deadline)`.
    pub latency: Duration,
}

impl Op {
    pub fn finished(ok: bool, latency: Duration, limits: Limits) -> Self {
        Self {
            ok,
            latency: if ok {
                latency
            } else {
                latency.max(limits.deadline)
            },
        }
    }
}

/// Summary of one path's operations.
#[derive(Debug, Clone)]
pub struct Summary {
    pub attempted: usize,
    /// Failed, wrong, or later than the latency limit.
    pub missed: usize,
    /// Every latency, seconds, as entered in the percentiles.
    pub latencies_s: Vec<f64>,
}

/// Nearest-rank percentile of an unsorted sample (`q` in 0..=1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn summarize(ops: &[Op], limits: Limits) -> Summary {
    let lat: Vec<f64> = ops.iter().map(|o| o.latency.as_secs_f64()).collect();
    Summary {
        attempted: ops.len(),
        missed: ops
            .iter()
            .filter(|o| !o.ok || o.latency > limits.limit)
            .count(),
        latencies_s: lat,
    }
}

/// Records the end-to-end metrics of the named path: operations per
/// second over `elapsed`, and the latency median and 90th percentile.
pub fn put_end_to_end(sink: &mut Sink, attempted: usize, elapsed: Duration, latencies_s: &[f64]) {
    sink.put("ops_per_s", attempted as f64 / elapsed.as_secs_f64(), "1/s");
    sink.put("latency_p50_ms", percentile(latencies_s, 0.5) * 1e3, "ms");
    sink.put("latency_p90_ms", percentile(latencies_s, 0.9) * 1e3, "ms");
}

/// Named metrics with units, printed as the run's last line.
#[derive(Debug, Default)]
pub struct Sink {
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// Input properties (layer shares, warm share): recorded with every
    /// result, but not metrics with a better direction.
    notes: BTreeMap<String, f64>,
}

impl Sink {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64) {
        self.notes.insert(name.into(), value);
    }

    /// The notes as one JSON object.
    pub fn notes_json(&self) -> String {
        let body: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:.4}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Keeps only the metrics whose name satisfies `keep`.
    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.metrics.retain(|k, _| keep(k));
    }

    /// The result object: `{"correct", "attempted", "failed", "metrics"}`.
    /// A metric that could not be measured (NaN) is written as `null`.
    pub fn to_json(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let v = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_owned()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// What the closed loop collected: every finished operation's
/// record, plus the elapsed time of each operation still outstanding
/// when the loop stopped waiting.
#[derive(Debug)]
pub struct Collected<R> {
    pub done: Vec<R>,
    pub outstanding: Vec<Duration>,
    /// From the first operation's start until the loop stopped.
    pub elapsed: Duration,
}

/// Per-client state the loop shares with one worker thread.
struct Lane<R> {
    done: Mutex<Vec<R>>,
    started: Mutex<Option<Instant>>,
}

/// Closed-loop load: `clients` worker threads each call `step` back to
/// back until `window` closes. `step(index)` runs operation number
/// `index` of a shared, increasing sequence and returns its record.
///
/// The loop waits at most `grace` past the window for outstanding
/// operations. Any still outstanding then is reported in
/// [`Collected::outstanding`] and its thread is left behind: a stalled
/// daemon may never answer it, and the process exits without it.
pub fn closed_loop<R, F>(clients: usize, window: Duration, grace: Duration, step: F) -> Collected<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    let step = Arc::new(step);
    let next = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let lanes: Vec<_> = (0..clients)
        .map(|_| {
            let lane = Arc::new(Lane {
                done: Mutex::new(Vec::new()),
                started: Mutex::new(None),
            });
            let (l, s, n, st) = (
                Arc::clone(&lane),
                Arc::clone(&step),
                Arc::clone(&next),
                Arc::clone(&stop),
            );
            let handle = std::thread::spawn(move || {
                while !st.load(Ordering::SeqCst) {
                    *l.started.lock().expect("lane lock") = Some(Instant::now());
                    let record = s(n.fetch_add(1, Ordering::SeqCst));
                    let mut started = l.started.lock().expect("lane lock");
                    l.done.lock().expect("lane lock").push(record);
                    *started = None;
                }
            });
            (lane, handle)
        })
        .collect();
    std::thread::sleep(window.saturating_sub(start.elapsed()));
    stop.store(true, Ordering::SeqCst);
    let give_up = start + window + grace;
    while Instant::now() < give_up && lanes.iter().any(|(_, h)| !h.is_finished()) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut out = Collected {
        done: Vec::new(),
        outstanding: Vec::new(),
        elapsed: start.elapsed(),
    };
    for (lane, handle) in lanes {
        if handle.is_finished() {
            handle.join().expect("client thread panicked");
        }
        let started = lane.started.lock().expect("lane lock");
        if let Some(t) = *started {
            out.outstanding.push(t.elapsed());
        }
        out.done.append(&mut lane.done.lock().expect("lane lock"));
    }
    out
}

/// Operation outcomes of one path.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: usize,
    /// Timed out, errored, or answered wrongly.
    pub failed: usize,
    /// Answered, but the output did not match the reference.
    pub wrong: usize,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// One operation: `answered` if it returned an output, `ok` if that
    /// output matched the reference.
    pub fn record(&mut self, answered: bool, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
        self.wrong += usize::from(answered && !ok);
    }
}
