//! Per-kernel SIMD microbenchmark: times every vectorized hot loop twice —
//! once with SIMD dispatch forced on, once pinned to the scalar fallback —
//! and reports the per-kernel wall-clock ratio plus a byte-identity check
//! between the two legs (a digest over the output bit patterns).
//!
//! On a single-CPU CI container the timings are noise-dominated; the
//! byte-identity column is the load-bearing output there (see
//! `EXPERIMENTS.md`). Run `scripts/bench_kernels.sh` on a quiet multi-core
//! host for meaningful speedups.
//!
//! ```text
//! cargo run --release -p cbrain-bench --bin bench_kernels
//! cargo run --release -p cbrain-bench --bin bench_kernels -- --json
//! cargo run --release -p cbrain-bench --bin bench_kernels -- --samples 9
//! ```

use std::hint::black_box;
use std::time::Instant;

use cbrain::functional::{improved_inter_forward, partition_forward, unrolled_forward};
use cbrain_compiler::{compile_conv, Scheme};
use cbrain_model::rng::XorShift64;
use cbrain_model::{reference, simd, zoo, ConvParams, ConvWeights, FcParams, Tensor3, TensorShape};
use cbrain_sim::{AcceleratorConfig, Machine};

/// One benchmarked kernel: median seconds per leg plus the digest check.
struct Row {
    name: &'static str,
    simd_s: f64,
    scalar_s: f64,
    identical: bool,
}

/// FNV-1a over a byte stream — enough to certify the two legs produced
/// the same bits (elementwise bit-parity is proven by `tests/prop_simd.rs`;
/// this is the honesty check that the bench ran what it claims).
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1_0000_01b3)
    })
}

fn digest_f32(values: &[f32]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Runs one leg: pins the backend, takes one warm-up (whose digest is
/// kept), then reports the median of `samples` timed runs.
fn leg(force_scalar: bool, samples: usize, f: &dyn Fn() -> u64) -> (f64, u64) {
    simd::set_force_scalar(Some(force_scalar));
    let digest = f();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], digest)
}

fn run_pair(name: &'static str, samples: usize, f: &dyn Fn() -> u64) -> Row {
    let (simd_s, simd_digest) = leg(false, samples, f);
    let (scalar_s, scalar_digest) = leg(true, samples, f);
    simd::set_force_scalar(None);
    Row {
        name,
        simd_s,
        scalar_s,
        identical: simd_digest == scalar_digest,
    }
}

fn random_tensor(shape: TensorShape, seed: u64) -> Tensor3 {
    let mut rng = XorShift64::seed_from_u64(seed);
    Tensor3::from_fn(shape, |_, _, _| rng.range_f32(-1.0, 1.0))
}

fn rows(samples: usize) -> Vec<Row> {
    let mut out = Vec::new();

    // Rowized axpy path of the naive reference (3x3 stride-1, the shape
    // that dominates VGG/GoogLeNet).
    let p3 = ConvParams::new(32, 32, 3, 1, 1);
    let in3 = random_tensor(TensorShape::new(32, 56, 56), 1);
    let w3 = ConvWeights::random(&p3, 2);
    let b3: Vec<f32> = (0..p3.out_maps).map(|o| o as f32 * 0.01).collect();
    out.push(run_pair("conv_reference_3x3_s1", samples, &|| {
        let o = reference::conv_forward(&in3, &w3, Some(&b3), &p3).unwrap();
        digest_f32(o.as_slice())
    }));

    // Pure-axpy 1x1 (NiN / GoogLeNet reduce layers).
    let p1 = ConvParams::new(64, 64, 1, 1, 0);
    let in1 = random_tensor(TensorShape::new(64, 56, 56), 3);
    let w1 = ConvWeights::random(&p1, 4);
    out.push(run_pair("conv_reference_1x1", samples, &|| {
        let o = reference::conv_forward(&in1, &w1, None, &p1).unwrap();
        digest_f32(o.as_slice())
    }));

    // im2col consumer: the unrolled (Intra) executor's dot over each
    // contiguous kernel run.
    out.push(run_pair("im2col_unrolled_3x3", samples, &|| {
        let o = unrolled_forward(&in3, &w3, Some(&b3), &p3).unwrap();
        digest_f32(o.as_slice())
    }));

    // The shared conv_rows microkernel through the scheme executors:
    // strided kernel partitioning at AlexNet conv1's shape, and
    // improved-inter on the narrow rows of AlexNet conv3 (13 px) and
    // NiN cccp7 (6 px), where most pixels sit in the masked tail.
    let pp = ConvParams::new(3, 96, 11, 4, 0);
    let inp = random_tensor(TensorShape::new(3, 227, 227), 7);
    let wp = ConvWeights::random(&pp, 8);
    out.push(run_pair("partition_11x11_s4", samples, &|| {
        let o = partition_forward(&inp, &wp, None, &pp).unwrap();
        digest_f32(o.as_slice())
    }));
    let p13 = ConvParams::new(256, 384, 3, 1, 1);
    let in13 = random_tensor(TensorShape::new(256, 13, 13), 9);
    let w13 = ConvWeights::random(&p13, 10);
    out.push(run_pair("improved_inter_3x3_w13", samples, &|| {
        let o = improved_inter_forward(&in13, &w13, None, &p13).unwrap();
        digest_f32(o.as_slice())
    }));
    let p6 = ConvParams::new(1024, 1024, 1, 1, 0);
    let in6 = random_tensor(TensorShape::new(1024, 6, 6), 11);
    let w6 = ConvWeights::random(&p6, 12);
    out.push(run_pair("improved_inter_1x1_w6", samples, &|| {
        let o = improved_inter_forward(&in6, &w6, None, &p6).unwrap();
        digest_f32(o.as_slice())
    }));

    // Fully-connected dot (AlexNet/VGG head shape, scaled down 4x).
    let pfc = FcParams::new(4096, 256);
    let fc_in: Vec<f32> = {
        let mut rng = XorShift64::seed_from_u64(5);
        (0..pfc.in_features)
            .map(|_| rng.range_f32(-1.0, 1.0))
            .collect()
    };
    let fc_w: Vec<f32> = {
        let mut rng = XorShift64::seed_from_u64(6);
        (0..pfc.in_features * pfc.out_features)
            .map(|_| rng.range_f32(-0.1, 0.1))
            .collect()
    };
    out.push(run_pair("fc_dot_4096x256", samples, &|| {
        let o = reference::fc_forward(&fc_in, &fc_w, None, &pfc).unwrap();
        digest_f32(&o)
    }));

    // Multiply-burst accounting: the untraced cycle simulator charging a
    // whole compiled layer through the bulk `mac_dot` scratch path.
    let cfg = AcceleratorConfig::paper_16_16();
    let machine = Machine::new(cfg);
    let net = zoo::vgg16();
    let layer = net.layer("conv3_2").expect("layer exists");
    let compiled = compile_conv(layer, Scheme::Inter, &cfg).expect("compiles");
    out.push(run_pair("mac_burst_sim_vgg_conv3_2", samples, &|| {
        let stats = machine.run(&compiled.program);
        fnv1a(format!("{stats:?}").bytes())
    }));

    out
}

fn main() {
    let mut json = false;
    let mut samples = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--samples" => {
                samples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("error: --samples needs a positive integer");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("error: unknown argument {other:?}");
                eprintln!("usage: bench_kernels [--json] [--samples N]");
                std::process::exit(2);
            }
        }
    }

    simd::set_force_scalar(Some(false));
    let backend = simd::Backend::active().name();
    simd::set_force_scalar(None);
    let rows = rows(samples);

    if json {
        println!("{{");
        println!("  \"backend\": \"{backend}\",");
        println!("  \"samples\": {samples},");
        println!("  \"kernels\": {{");
        for (i, r) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            println!(
                "    \"{}\": {{\"simd_s\": {:.6}, \"scalar_s\": {:.6}, \"speedup\": {:.3}, \"byte_identical\": {}}}{comma}",
                r.name,
                r.simd_s,
                r.scalar_s,
                r.scalar_s / r.simd_s,
                r.identical
            );
        }
        println!("  }}");
        println!("}}");
    } else {
        println!("SIMD kernel microbench — simd backend: {backend}, scalar leg pinned via the CBRAIN_FORCE_SCALAR override");
        println!(
            "{:<26} {:>12} {:>14} {:>9}   byte-identical",
            "kernel", "simd median", "scalar median", "speedup"
        );
        for r in &rows {
            println!(
                "{:<26} {:>10.3}ms {:>12.3}ms {:>8.2}x   {}",
                r.name,
                r.simd_s * 1e3,
                r.scalar_s * 1e3,
                r.scalar_s / r.simd_s,
                if r.identical { "yes" } else { "NO" }
            );
        }
    }

    if rows.iter().any(|r| !r.identical) {
        eprintln!("error: a kernel produced different bytes under the two backends");
        std::process::exit(1);
    }
}
