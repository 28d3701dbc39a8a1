//! The `forward` path: functional `cbrain::forward::forward` on NiN and
//! AlexNet, one seeded image per operation, on one thread.

use crate::measure::{median, percentile, Sink, Tally};
use crate::synth::LayerMix;
use crate::{put_mix, Trace};
use cbrain::forward::{forward, NetworkWeights};
use cbrain::Policy;
use cbrain_model::{zoo, LayerKind, Network, Tensor3};
use cbrain_sim::AcceleratorConfig;
use std::time::{Duration, Instant};

const POLICY: Policy = Policy::Adaptive {
    improved_inter: true,
};

struct Model {
    net: Network,
    weights: NetworkWeights,
    image: Tensor3,
    macs: u64,
}

pub struct ForwardPath {
    models: Vec<Model>,
    cfg: AcceleratorConfig,
    /// Reference logits per model, from [`ForwardPath::compute_reference`].
    reference: Vec<Vec<f32>>,
}

impl ForwardPath {
    pub fn setup(seed: u64) -> Self {
        let models = [zoo::nin(), zoo::alexnet()]
            .into_iter()
            .enumerate()
            .map(|(i, net)| {
                let s = seed.wrapping_mul(1000).wrapping_add(i as u64);
                Model {
                    weights: NetworkWeights::random(&net, s),
                    image: Tensor3::random(net.input(), s ^ 0x5eed),
                    macs: net.total_macs().expect("zoo networks are valid"),
                    net,
                }
            })
            .collect();
        Self {
            models,
            cfg: AcceleratorConfig::paper_16_16(),
            reference: Vec::new(),
        }
    }

    fn infer(&self, m: &Model) -> Vec<f32> {
        forward(&m.net, &m.image, &m.weights, POLICY, &self.cfg)
            .expect("zoo networks run forward")
            .output
    }

    /// Computes the reference forward every operation is checked against.
    pub fn compute_reference(&mut self) {
        self.reference = self.models.iter().map(|m| self.infer(m)).collect();
    }

    /// Alternates the models, one image per operation, until `window`
    /// has passed and every model ran equally often.
    pub fn run(&self, window: Duration, trace: Option<&Trace>, sink: &mut Sink) -> Tally {
        let start = Instant::now();
        let mut tally = Tally::default();
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); self.models.len()];
        let (mut macs, mut busy) = (0u64, 0.0);
        let mut mix = LayerMix::default();
        let mut i = 0;
        while i % self.models.len() != 0 || i == 0 || start.elapsed() < window {
            let k = i % self.models.len();
            let m = &self.models[k];
            let t = Instant::now();
            let out = self.infer(m);
            let d = t.elapsed().as_secs_f64();
            if let Some(trace) = trace {
                trace.span("forward.image", t);
            }
            let ok = out == self.reference[k];
            tally.record(true, ok);
            times[k].push(d);
            busy += d;
            macs += m.macs;
            mix.add(&m.net, self.cfg.pe.tin);
            i += 1;
        }
        // The two models' latencies form two clusters; each percentile is
        // taken per model and averaged, so it never lands in the gap.
        let per_model = |f: &dyn Fn(&[f64]) -> f64| {
            times.iter().map(|t| f(t)).sum::<f64>() / times.len() as f64 * 1e3
        };
        sink.put("ops_per_s", i as f64 / start.elapsed().as_secs_f64(), "1/s");
        sink.put("latency_p50_ms", per_model(&median), "ms");
        sink.put("latency_p90_ms", per_model(&|t| percentile(t, 0.9)), "ms");
        let gmac_per_s = macs as f64 / busy / 1e9;
        sink.put("forward.gmac_per_s", gmac_per_s, "GMAC/s");
        put_mix(sink, "forward", &mix);
        if let Some(trace) = trace {
            self.trace_layers(trace, sink, gmac_per_s);
        }
        tally
    }

    /// Traced extras: each conv/FC layer run alone through `forward` (a
    /// one-layer network with the same shapes), and the machine peak
    /// from an in-cache `simd::dot`.
    fn trace_layers(&self, trace: &Trace, sink: &mut Sink, gmac_per_s: f64) {
        for m in &self.models {
            for (i, layer) in m.net.layers().iter().enumerate() {
                if !matches!(
                    layer.kind,
                    LayerKind::Conv(_) | LayerKind::FullyConnected(_)
                ) {
                    continue;
                }
                let single = Network::new(layer.name.clone(), layer.input, vec![layer.clone()]);
                let weights = NetworkWeights::random(&single, i as u64);
                let image = Tensor3::random(layer.input, i as u64);
                let t = Instant::now();
                let out = forward(&single, &image, &weights, POLICY, &self.cfg)
                    .expect("single layers run");
                let secs = t.elapsed().as_secs_f64();
                trace.span("forward.layer", t);
                std::hint::black_box(out);
                let macs = layer.macs().expect("zoo layers are valid") as f64;
                let base = format!("forward.{}.{}", m.net.name(), layer.name);
                sink.put(format!("{base}.ms"), secs * 1e3, "ms");
                sink.put(format!("{base}.gmac_per_s"), macs / secs / 1e9, "GMAC/s");
            }
        }
        let peak = simd_peak(trace);
        sink.put("simd.peak_gmac_per_s", peak, "GMAC/s");
        sink.put("forward.peak_fraction", gmac_per_s / peak, "share");
    }
}

/// Multiply-accumulates per second of `simd::dot` on two 1024-float
/// vectors that stay in L1, best of several rounds.
fn simd_peak(trace: &Trace) -> f64 {
    let a: Vec<f32> = (0..1024).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..1024).map(|i| (i % 5) as f32 * 0.5).collect();
    let reps = 20_000;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..reps {
            acc += cbrain_simd::dot(std::hint::black_box(&a), std::hint::black_box(&b));
        }
        std::hint::black_box(acc);
        best = best.min(t.elapsed().as_secs_f64());
        trace.span("simd.dot", t);
    }
    (reps * a.len()) as f64 / best / 1e9
}
