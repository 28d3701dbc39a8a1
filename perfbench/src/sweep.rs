//! The `sweep` path: the paper-reproduction loop, an in-process
//! `cbrain::Runner` over the zoo plus seeded synthetic CNNs.

use crate::measure::{percentile, Sink, Tally};
use crate::synth::{self, LayerMix};
use crate::{put_mix, Trace};
use cbrain::{CompiledLayerCache, NetworkReport, Policy, Runner, Scheme};
use cbrain_model::{spec, zoo, Network};
use cbrain_sim::{AcceleratorConfig, Machine};
use std::path::Path;
use std::time::{Duration, Instant};

/// Scratch directory (inside the checkout) for the persisted cache.
pub const TMP_DIR: &str = ".perfbench-tmp";

/// Synthetic networks added to the six zoo networks.
const SYNTHETIC: u64 = 12;

const POLICIES: [Policy; 3] = [
    Policy::Adaptive {
        improved_inter: true,
    },
    Policy::Oracle,
    Policy::OraclePruned,
];

/// One cold + warm pass of a network under a policy, already checked.
struct Pass {
    /// Index of the `(network, policy)` cell in the seeded order.
    cell: usize,
    net: usize,
    cold: Duration,
    warm: Duration,
    /// Cache hits and misses of the cold and warm runs together.
    hits: u64,
    misses: u64,
    ok: bool,
}

/// Whether two reports agree on everything but the policy label and
/// the cache provenance (hit and miss counts).
fn same_result(a: &NetworkReport, b: &NetworkReport) -> bool {
    a.network == b.network
        && a.batch == b.batch
        && a.config == b.config
        && a.totals == b.totals
        && a.energy == b.energy
        && a.layers.len() == b.layers.len()
        && a.layers.iter().zip(&b.layers).all(|(x, y)| {
            x.name == y.name
                && x.scheme == y.scheme
                && x.stats == y.stats
                && x.ideal_cycles == y.ideal_cycles
                && x.layout_transform_cycles == y.layout_transform_cycles
        })
}

pub struct SweepPath {
    nets: Vec<Network>,
    /// `(network, policy)` cells in a seeded order.
    order: Vec<(usize, Policy)>,
    /// Each network's `oracle` report, the reference `oracle-pruned`
    /// must match.
    oracle: Vec<NetworkReport>,
    cfg: AcceleratorConfig,
}

impl SweepPath {
    pub fn setup(seed: u64) -> Self {
        let mut nets = zoo::all();
        nets.extend(
            (0..SYNTHETIC)
                .map(|i| spec::parse(&synth::spec_text(seed, i)).expect("generated specs parse")),
        );
        let mut order: Vec<(usize, Policy)> = (0..nets.len())
            .flat_map(|n| POLICIES.iter().map(move |&p| (n, p)))
            .collect();
        // Seeded Fisher-Yates shuffle.
        for i in (1..order.len()).rev() {
            let j = synth::roll(seed, i as u64, i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let cfg = AcceleratorConfig::paper_16_16();
        let oracle = nets
            .iter()
            .map(|n| {
                Runner::new(cfg)
                    .run_network(n, Policy::Oracle)
                    .expect("oracle runs")
            })
            .collect();
        let path = Self {
            nets,
            order,
            oracle,
            cfg,
        };
        // Warm-up: every cell once, so first-use page faults and lazy
        // statics are paid before the timed window.
        for cell in 0..path.order.len() {
            path.pass(cell, None);
        }
        path
    }

    /// A fresh runner with one compile job. With `jobs = nproc` every
    /// cold run spawned scoped pool threads for a work-list of a few
    /// layers; on a shared 2-vCPU host that hand-off, not the compiler,
    /// set the pace, and the same seed measured anywhere from 360 to
    /// 1470 networks/s.
    fn runner(&self) -> Runner {
        Runner::new(self.cfg)
    }

    /// Runs one cell cold, then warm, and checks it: the warm report
    /// must equal the cold one, and `oracle-pruned` must equal `oracle`.
    fn pass(&self, cell: usize, trace: Option<&Trace>) -> Pass {
        let (net, policy) = self.order[cell];
        let runner = self.runner();
        let t = Instant::now();
        let cold_report = runner
            .run_network(&self.nets[net], policy)
            .expect("sweep networks run");
        let cold = t.elapsed();
        let t2 = Instant::now();
        let warm_report = runner
            .run_network(&self.nets[net], policy)
            .expect("sweep networks run");
        let warm = t2.elapsed();
        if let Some(trace) = trace {
            trace.span("runner.cold_run", t);
            trace.span("runner.warm_run", t2);
        }
        let mut ok =
            same_result(&cold_report, &warm_report) && cold_report.policy == warm_report.policy;
        if policy == Policy::OraclePruned {
            ok &= same_result(&cold_report, &self.oracle[net]);
        }
        Pass {
            cell,
            net,
            cold,
            warm,
            hits: cold_report.cache_hits + warm_report.cache_hits,
            misses: cold_report.cache_misses + warm_report.cache_misses,
            ok,
        }
    }

    pub fn run(&self, window: Duration, trace: Option<&Trace>, sink: &mut Sink) -> Tally {
        let start = Instant::now();
        let mut passes = Vec::new();
        let mut i = 0;
        while passes.is_empty() || start.elapsed() < window {
            passes.push(self.pass(i % self.order.len(), trace));
            i += 1;
        }
        let elapsed = start.elapsed();

        let mut tally = Tally::default();
        for p in &passes {
            tally.record(true, p.ok);
        }

        // Cells differ in size by orders of magnitude, so a percentile
        // over all passes can sit in a gap between clusters and jump with
        // small shifts. Each percentile is taken per cell instead, and
        // the cells are combined by geometric mean, so each weighs the same.
        let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); self.order.len()];
        for p in &passes {
            per_cell[p.cell].push((p.cold + p.warm).as_secs_f64());
        }
        let geomean_ms = |q: f64| {
            let logs: Vec<f64> = per_cell
                .iter()
                .filter(|runs| !runs.is_empty())
                .map(|runs| percentile(runs, q).ln())
                .collect();
            (logs.iter().sum::<f64>() / logs.len() as f64).exp() * 1e3
        };
        sink.put(
            "ops_per_s",
            passes.len() as f64 / elapsed.as_secs_f64(),
            "1/s",
        );
        sink.put("latency_p50_ms", geomean_ms(0.5), "ms");
        sink.put("latency_p90_ms", geomean_ms(0.9), "ms");
        let mean_us = |f: &dyn Fn(&Pass) -> Duration| {
            passes.iter().map(|p| f(p).as_secs_f64()).sum::<f64>() / passes.len() as f64 * 1e6
        };
        sink.put("runner.cold_run_us", mean_us(&|p| p.cold), "us");
        sink.put("runner.warm_run_us", mean_us(&|p| p.warm), "us");
        let (hits, misses) = passes
            .iter()
            .fold((0u64, 0u64), |(h, m), p| (h + p.hits, m + p.misses));
        sink.put(
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "share",
        );
        let mut mix = LayerMix::default();
        for p in &passes {
            mix.add(&self.nets[p.net], self.cfg.pe.tin);
        }
        put_mix(sink, "sweep", &mix);

        if let Some(trace) = trace {
            self.trace_layers(trace, sink);
        }
        tally
    }

    /// Traced extras: every (layer, scheme) compile cell and its
    /// simulation, timed from outside the runner, and a persist round
    /// trip of the cache the sweep fills.
    fn trace_layers(&self, trace: &Trace, sink: &mut Sink) {
        let machine = Machine::new(self.cfg);
        let (mut compile_s, mut sim_s, mut cells, mut ops, mut cycles) =
            (0.0, 0.0, 0u64, 0u64, 0u64);
        for net in &self.nets {
            for layer in net.conv_layers() {
                for scheme in Scheme::ALL {
                    let t = Instant::now();
                    let Ok(compiled) =
                        cbrain_compiler::compile_layer_batched(layer, scheme, &self.cfg, 1)
                    else {
                        continue;
                    };
                    compile_s += t.elapsed().as_secs_f64();
                    trace.span("compiler.compile", t);
                    cells += 1;
                    ops += compiled
                        .program
                        .tiles
                        .iter()
                        .map(|t| t.ops.len() as u64)
                        .sum::<u64>();
                    let t = Instant::now();
                    let stats = machine.run(&compiled.program);
                    sim_s += t.elapsed().as_secs_f64();
                    trace.span("sim.simulate", t);
                    cycles += stats.cycles;
                }
            }
        }
        let cells_f = cells.max(1) as f64;
        sink.put("compiler.compile_us", compile_s / cells_f * 1e6, "us");
        sink.put("compiler.macro_ops", ops as f64 / cells_f, "count");
        sink.put("sim.simulate_us", sim_s / cells_f * 1e6, "us");
        sink.put(
            "sim.cycles_per_host_s",
            cycles as f64 / sim_s.max(1e-12),
            "1/s",
        );

        // Useful-to-attempted ratio of the pruned oracle: its compiles
        // over the full oracle's, each network on a fresh cache.
        let (mut pruned, mut full) = (0u64, 0u64);
        for net in &self.nets {
            let misses = |p| {
                self.runner()
                    .run_network(net, p)
                    .expect("oracle runs")
                    .cache_misses
            };
            pruned += misses(Policy::OraclePruned);
            full += misses(Policy::Oracle);
        }
        sink.put(
            "runner.oracle_pruned_compile_ratio",
            pruned as f64 / full.max(1) as f64,
            "ratio",
        );

        let cache = CompiledLayerCache::shared();
        let runner = self.runner().with_cache(std::sync::Arc::clone(&cache));
        for net in &self.nets {
            for policy in POLICIES {
                runner.run_network(net, policy).expect("sweep networks run");
            }
        }
        let _ = std::fs::create_dir_all(TMP_DIR);
        let path = Path::new(TMP_DIR).join(format!("cache-{}.bin", std::process::id()));
        let t = Instant::now();
        cbrain::persist::save(&cache, &path).expect("save the sweep cache");
        sink.put("persist.save_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
        trace.span("persist.save", t);
        let fresh = CompiledLayerCache::new();
        let t = Instant::now();
        cbrain::persist::load_into(&fresh, &path).expect("load the sweep cache");
        sink.put("persist.load_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
        trace.span("persist.load", t);
        let _ = std::fs::remove_file(&path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_result_ignores_cache_provenance_but_not_schemes() {
        let runner = Runner::new(AcceleratorConfig::paper_16_16());
        let net = zoo::alexnet();
        let inter = runner.run_network(&net, Policy::PAPER_ARMS[0]).unwrap();
        let adpa2 = runner.run_network(&net, Policy::PAPER_ARMS[4]).unwrap();
        assert!(!same_result(&inter, &adpa2));
        let warm = NetworkReport {
            cache_hits: adpa2.cache_hits + 7,
            cache_misses: 0,
            ..adpa2.clone()
        };
        assert!(same_result(&adpa2, &warm));
    }
}
