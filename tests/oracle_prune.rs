//! The pruned oracle must be indistinguishable from the exhaustive one
//! in every report field except the compile counters — and must actually
//! compile less.

use cbrain::compiler::cost::analytic_cost;
use cbrain::compiler::ConvGeometry;
use cbrain::{
    compile_cache_entry, CompileBackend, CompiledLayerCache, LayerKey, Policy, RunError,
    RunOptions, Runner, Scheme, Workload,
};
use cbrain_model::{zoo, Layer, LayerKind};
use cbrain_sim::AcceleratorConfig;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

fn fresh(workload: Workload) -> Runner {
    Runner::with_options(
        AcceleratorConfig::paper_16_16(),
        RunOptions {
            workload,
            ..RunOptions::default()
        },
    )
}

#[test]
fn pruned_oracle_picks_identical_schemes_on_every_zoo_network() {
    for net in zoo::all() {
        // Fresh runners: neither policy may lean on the other's cache.
        let oracle = fresh(Workload::ConvAndPool)
            .run_network(&net, Policy::Oracle)
            .unwrap();
        let pruned = fresh(Workload::ConvAndPool)
            .run_network(&net, Policy::OraclePruned)
            .unwrap();
        assert_eq!(oracle.layers.len(), pruned.layers.len(), "{}", net.name());
        for (a, b) in oracle.layers.iter().zip(&pruned.layers) {
            assert_eq!(a.name, b.name, "{}", net.name());
            assert_eq!(a.scheme, b.scheme, "{}/{}", net.name(), a.name);
            assert_eq!(a.stats, b.stats, "{}/{}", net.name(), a.name);
        }
        assert_eq!(oracle.totals, pruned.totals, "{}", net.name());
        assert_eq!(oracle.cycles(), pruned.cycles(), "{}", net.name());
    }
}

#[test]
fn pruning_compiles_strictly_less_than_the_exhaustive_sweep() {
    let mut any_pruned = false;
    for net in zoo::all() {
        let oracle = fresh(Workload::ConvAndPool)
            .run_network(&net, Policy::Oracle)
            .unwrap();
        let pruned = fresh(Workload::ConvAndPool)
            .run_network(&net, Policy::OraclePruned)
            .unwrap();
        assert!(
            pruned.cache_misses <= oracle.cache_misses,
            "{}: pruned {} vs oracle {}",
            net.name(),
            pruned.cache_misses,
            oracle.cache_misses
        );
        if pruned.cache_misses < oracle.cache_misses {
            any_pruned = true;
        }
    }
    // The bound must bite somewhere across the zoo, or the "pruned"
    // oracle is just the slow one with extra steps.
    assert!(any_pruned, "analytic bound never pruned a single compile");
}

#[test]
fn pruned_oracle_repeat_run_is_all_hits() {
    let r = fresh(Workload::ConvAndPool);
    let net = zoo::alexnet();
    let first = r.run_network(&net, Policy::OraclePruned).unwrap();
    let second = r.run_network(&net, Policy::OraclePruned).unwrap();
    assert!(first.cache_misses > 0);
    assert_eq!(second.cache_misses, 0);
    assert_eq!(second.cycles(), first.cycles());
}

/// Every scheme with its analytic compute-cycle lower bound (batch 1),
/// cheapest first; ties keep `Scheme::ALL` order.
fn bound_order(layer: &Layer, cfg: &AcceleratorConfig) -> Vec<(u64, Scheme)> {
    let geom = ConvGeometry::from_layer(layer).unwrap();
    let mut order: Vec<(u64, Scheme)> = Scheme::ALL
        .into_iter()
        .map(|s| (analytic_cost(&geom, s, cfg).compute_cycles, s))
        .collect();
    order.sort_by_key(|&(bound, _)| bound);
    order
}

#[test]
fn a_probe_that_beats_every_other_bound_is_the_only_compile() {
    let cfg = AcceleratorConfig::paper_16_16();
    let opts = RunOptions::default();
    let mut decisive = 0;
    for net in zoo::all() {
        for layer in net.conv_layers() {
            let order = bound_order(layer, &cfg);
            let key = LayerKey::new(layer, order[0].1, &cfg, &opts);
            let cycles = compile_cache_entry(layer, &key).unwrap().stats.cycles;
            if order[1..].iter().all(|&(bound, _)| bound > cycles) {
                decisive += 1;
                let r = fresh(Workload::ConvAndPool);
                r.run_layer(layer, Policy::OraclePruned).unwrap();
                assert_eq!(r.cache().misses(), 1, "{}/{}", net.name(), layer.name);
            }
        }
    }
    // MobileNet-DW's depthwise layers have such decisive probes.
    assert!(decisive > 0, "no zoo layer has a decisive probe");
}

/// Records each work-list's keys, then compiles it in-process.
#[derive(Debug, Default)]
struct CountingBackend {
    calls: Mutex<Vec<Vec<LayerKey>>>,
}

impl CompileBackend for CountingBackend {
    fn compile_batch(
        &self,
        cache: &CompiledLayerCache,
        worklist: Vec<(LayerKey, Layer)>,
    ) -> Result<(), RunError> {
        self.calls
            .lock()
            .unwrap()
            .push(worklist.iter().map(|(key, _)| *key).collect());
        for (key, layer) in worklist {
            cache.insert(key, compile_cache_entry(&layer, &key)?);
        }
        Ok(())
    }
}

#[test]
fn first_visits_compile_as_one_batch_and_each_tail_key_alone() {
    let cfg = AcceleratorConfig::paper_16_16();
    let opts = RunOptions::default();
    for net in zoo::all() {
        // The first visit of every conv+pool layer, deduplicated in layer
        // order: the cheapest-bound scheme, or the fixed non-conv key.
        let mut first_visits: Vec<LayerKey> = Vec::new();
        for layer in net.layers() {
            let scheme = match layer.kind {
                LayerKind::FullyConnected(_) => continue,
                LayerKind::Conv(_) => bound_order(layer, &cfg)[0].1,
                _ => Scheme::Inter,
            };
            let key = LayerKey::new(layer, scheme, &cfg, &opts);
            if !first_visits.contains(&key) {
                first_visits.push(key);
            }
        }

        let backend = Arc::new(CountingBackend::default());
        let report = fresh(Workload::ConvAndPool)
            .with_compile_backend(Arc::clone(&backend) as Arc<dyn CompileBackend>)
            .run_network(&net, Policy::OraclePruned)
            .unwrap();
        let calls = backend.calls.lock().unwrap();
        assert!(
            calls[0] == first_visits,
            "{}: first batch has {} keys, want the {} first visits",
            net.name(),
            calls[0].len(),
            first_visits.len()
        );
        let firsts: HashSet<LayerKey> = first_visits.into_iter().collect();
        for tail in &calls[1..] {
            assert_eq!(tail.len(), 1, "{}", net.name());
            assert!(!firsts.contains(&tail[0]), "{}", net.name());
        }
        let compiled: usize = calls.iter().map(Vec::len).sum();
        assert_eq!(compiled as u64, report.cache_misses, "{}", net.name());
    }
}
