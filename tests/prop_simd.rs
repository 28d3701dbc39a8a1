//! SIMD differential property suite: every kernel in `cbrain_simd`, and
//! every hot loop rewired onto it, must agree **bit-for-bit** between the
//! forced-scalar fallback and the runtime-detected SIMD backend — on
//! *arbitrary* floats, not just the integer-valued tensors the
//! conformance matrix uses. That is the SIMD layer's contract: both paths
//! evaluate one canonical expression graph (vertical lanes, zero-padded
//! tails, fixed fold tree, no FMA), so IEEE-754 makes them identical.
//!
//! Geometry coverage follows the lane math: widths `0..=2*lanes+1` hit
//! every remainder class on both sides of a full vector, channel counts
//! are odd, and depthwise `k == 1` layers get their own cells.
//!
//! The force-scalar override is process-global, so every test that flips
//! it serializes on one mutex and restores the environment default before
//! releasing it.

use cbrain_model::rng::XorShift64;
use cbrain_model::simd;
use cbrain_model::{reference, ConvParams, ConvWeights, EltwiseOp, FcParams, Tensor3, TensorShape};
use std::sync::Mutex;

static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once pinned to the scalar fallback and once with SIMD
/// dispatch forced on, restoring the environment default afterwards.
fn with_both_backends<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    simd::set_force_scalar(Some(true));
    assert_eq!(simd::Backend::active(), simd::Backend::Scalar);
    let scalar = f();
    simd::set_force_scalar(Some(false));
    let vector = f();
    simd::set_force_scalar(None);
    (scalar, vector)
}

fn assert_bits_eq(scalar: &[f32], vector: &[f32], what: &str) {
    assert_eq!(scalar.len(), vector.len(), "{what}: length");
    for (i, (a, b)) in scalar.iter().zip(vector).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: bit divergence at {i}: scalar {a} vs simd {b}"
        );
    }
}

fn random_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = XorShift64::seed_from_u64(seed);
    (0..n).map(|_| rng.range_f32(-2.0, 2.0)).collect()
}

// ---------------------------------------------------------------------
// Kernel-level differentials across every lane-remainder width.
// ---------------------------------------------------------------------

#[test]
fn axpy_bitwise_across_remainder_widths() {
    for n in 0..=2 * simd::F32_LANES + 1 {
        let xs = random_f32(n, 0xA11 + n as u64);
        let base = random_f32(n, 0xB22 + n as u64);
        let a = 0.731f32;
        let (s, v) = with_both_backends(|| {
            let mut dst = base.clone();
            simd::axpy(&mut dst, a, &xs);
            dst
        });
        assert_bits_eq(&s, &v, &format!("axpy n={n}"));
    }
}

#[test]
fn add_assign_bitwise_across_remainder_widths() {
    for n in 0..=2 * simd::F32_LANES + 1 {
        let xs = random_f32(n, 0xC33 + n as u64);
        let base = random_f32(n, 0xD44 + n as u64);
        let (s, v) = with_both_backends(|| {
            let mut dst = base.clone();
            simd::add_assign(&mut dst, &xs);
            dst
        });
        assert_bits_eq(&s, &v, &format!("add_assign n={n}"));
    }
}

#[test]
fn relu_bitwise_including_negative_zero_and_nan() {
    for n in 0..=2 * simd::F32_LANES + 1 {
        let mut vals = random_f32(n, 0xE55 + n as u64);
        // Salt the interesting edge values into deterministic slots.
        for (i, v) in vals.iter_mut().enumerate() {
            match i % 5 {
                0 => *v = -0.0,
                1 => *v = f32::NAN,
                2 => *v = -*v,
                _ => {}
            }
        }
        let (s, v) = with_both_backends(|| {
            let mut dst = vals.clone();
            simd::relu(&mut dst);
            dst
        });
        assert_bits_eq(&s, &v, &format!("relu n={n}"));
        // Canonical select semantics hold in both backends.
        for x in &s {
            assert!(x.to_bits() == 0 || *x > 0.0);
        }
    }
}

#[test]
fn dot_bitwise_across_remainder_widths() {
    for n in 0..=3 * simd::F32_LANES + 1 {
        let a = random_f32(n, 0xF66 + n as u64);
        let b = random_f32(n, 0x177 + n as u64);
        let (s, v) = with_both_backends(|| simd::dot(&a, &b));
        assert_eq!(s.to_bits(), v.to_bits(), "dot n={n}: {s} vs {v}");
    }
}

#[test]
fn dot_f64_bitwise_across_remainder_widths() {
    for n in 0..=3 * simd::F64_LANES + 1 {
        let mut rng = XorShift64::seed_from_u64(0x288 + n as u64);
        let a: Vec<f64> = (0..n).map(|_| rng.range_f32(-2.0, 2.0) as f64).collect();
        let b: Vec<f64> = (0..n)
            .map(|_| rng.range_f32(-2.0, 2.0) as f64 * 0.37)
            .collect();
        let (s, v) = with_both_backends(|| simd::dot_f64(&a, &b));
        assert_eq!(s.to_bits(), v.to_bits(), "dot_f64 n={n}: {s} vs {v}");
    }
}

#[test]
fn mac_dot_equal_across_widths_and_wrapping() {
    for n in 0..=11 {
        let mut rng = XorShift64::seed_from_u64(0x399 + n as u64);
        let bursts: Vec<u64> = (0..n).map(|_| rng.next_u64() >> 20).collect();
        let factors: Vec<u32> = (0..n).map(|_| (rng.next_u64() % 4096) as u32).collect();
        let (s, v) = with_both_backends(|| simd::mac_dot(&bursts, &factors));
        assert_eq!(s, v, "mac_dot n={n}");
    }
    let big = [u64::MAX, u64::MAX - 7, 1 << 63, 3];
    let f = [11u32, u32::MAX, 2, 9];
    let (s, v) = with_both_backends(|| simd::mac_dot(&big, &f));
    assert_eq!(s, v, "mac_dot wrapping edge");
}

#[test]
fn conv_rows_bitwise_across_blocks_tails_and_term_counts() {
    // Rows on both sides of the 4-map register block, every pixel tail of
    // the 16-pixel block, empty/single/odd term lists, and a leading
    // dimension wider than the row.
    for rows in 1..=9 {
        for width in 0..=33 {
            for terms in [0, 1, 3, 7] {
                let ld = width + 5;
                let seed = ((rows * 64 + width) * 8 + terms) as u64;
                let src = random_f32(width + 4 * terms + 9, 0x10C + seed);
                let offs: Vec<usize> = (0..terms).map(|t| (t * 7 + 2) % (4 * terms + 9)).collect();
                let w = random_f32(terms * rows, 0x20D + seed);
                let base = random_f32((rows - 1) * ld + width, 0x30E + seed);
                let (s, v) = with_both_backends(|| {
                    let mut acc = base.clone();
                    simd::conv_rows(&mut acc, ld, rows, width, &w, &src, &offs);
                    acc
                });
                assert_bits_eq(
                    &s,
                    &v,
                    &format!("conv_rows rows={rows} width={width} terms={terms}"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hot-loop differentials: conv reference, im2col, fc, eltwise, relu.
// ---------------------------------------------------------------------

/// Geometries chosen to hit lane remainders in the output rows (widths
/// 1..=17 around the 8-lane vector), odd channel counts, grouped and
/// depthwise layers (including k == 1), strided layers (the per-pixel
/// path) and pad >= 1 border spans.
fn conv_cases() -> Vec<(ConvParams, TensorShape)> {
    let mut cases = Vec::new();
    // Unit-stride 3x3 across every output-row remainder class.
    for w in 1..=2 * simd::F32_LANES + 1 {
        cases.push((ConvParams::new(3, 2, 3, 1, 1), TensorShape::new(3, 4, w)));
    }
    // Odd channel counts, 1x1 and 5x5, pad 0 and 2.
    cases.push((ConvParams::new(5, 3, 1, 1, 0), TensorShape::new(5, 3, 13)));
    cases.push((ConvParams::new(7, 5, 5, 1, 2), TensorShape::new(7, 6, 11)));
    // Grouped and depthwise, k == 3 and the degenerate k == 1.
    cases.push((
        ConvParams::grouped(6, 4, 3, 1, 1, 2),
        TensorShape::new(6, 5, 9),
    ));
    cases.push((
        ConvParams::depthwise(5, 3, 1, 1),
        TensorShape::new(5, 4, 10),
    ));
    cases.push((
        ConvParams::depthwise(3, 1, 1, 0),
        TensorShape::new(3, 2, 17),
    ));
    // Strided layers: the reference's per-pixel loop, and the executors'
    // polyphase taps.
    cases.push((ConvParams::new(3, 4, 11, 4, 0), TensorShape::new(3, 23, 23)));
    cases.push((ConvParams::new(4, 3, 3, 2, 1), TensorShape::new(4, 9, 9)));
    // Narrow rows and output groups that are not a multiple of the
    // microkernel's 4-map block: widths 6 and 13 (NiN conv4, AlexNet
    // conv3), a 16 + 2 strided tail, a 33-wide 1x1 and a grouped
    // strided layer with 7 maps per group.
    cases.push((ConvParams::new(4, 6, 3, 1, 1), TensorShape::new(4, 3, 6)));
    cases.push((ConvParams::new(3, 9, 3, 1, 1), TensorShape::new(3, 3, 13)));
    cases.push((ConvParams::new(3, 5, 11, 4, 0), TensorShape::new(3, 15, 79)));
    cases.push((ConvParams::new(7, 7, 1, 1, 0), TensorShape::new(7, 2, 33)));
    cases.push((
        ConvParams::grouped(4, 14, 3, 2, 1, 2),
        TensorShape::new(4, 5, 27),
    ));
    cases
}

#[test]
fn conv_reference_bitwise_scalar_vs_simd() {
    for (ci, (p, shape)) in conv_cases().into_iter().enumerate() {
        let seed = 0x5EED + ci as u64 * 7919;
        let input = Tensor3::random(shape, seed);
        let weights = ConvWeights::random(&p, seed ^ 0xF1);
        let mut rng = XorShift64::seed_from_u64(seed ^ 0xB1A5);
        let bias: Vec<f32> = (0..p.out_maps).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let (s, v) = with_both_backends(|| {
            reference::conv_forward(&input, &weights, Some(&bias), &p).expect("valid case")
        });
        assert_bits_eq(s.as_slice(), v.as_slice(), &format!("conv case {ci} {p:?}"));
    }
}

type Executor<'a> = (&'a str, Box<dyn Fn() -> Tensor3 + 'a>);

#[test]
fn scheme_executors_bitwise_scalar_vs_simd() {
    use cbrain::functional::{
        improved_inter_forward, inter_forward, partition_forward, unrolled_forward,
    };
    for (ci, (p, shape)) in conv_cases().into_iter().enumerate() {
        let seed = 0xFEED + ci as u64 * 104729;
        let input = Tensor3::random(shape, seed);
        let weights = ConvWeights::random(&p, seed ^ 0x33);
        let mut rng = XorShift64::seed_from_u64(seed ^ 0x77);
        let bias: Vec<f32> = (0..p.out_maps).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let executors: [Executor<'_>; 4] = [
            (
                "inter",
                Box::new(|| {
                    inter_forward(&input, &weights, Some(&bias), &p, 3).expect("valid case")
                }),
            ),
            (
                "improved-inter",
                Box::new(|| {
                    improved_inter_forward(&input, &weights, Some(&bias), &p).expect("valid case")
                }),
            ),
            (
                "unrolled",
                Box::new(|| {
                    unrolled_forward(&input, &weights, Some(&bias), &p).expect("valid case")
                }),
            ),
            (
                "partition",
                Box::new(|| {
                    partition_forward(&input, &weights, Some(&bias), &p).expect("valid case")
                }),
            ),
        ];
        for (name, run) in &executors {
            let (s, v) = with_both_backends(run);
            assert_bits_eq(
                s.as_slice(),
                v.as_slice(),
                &format!("{name} case {ci} {p:?}"),
            );
        }
    }
}

#[test]
fn unroll_windows_bitwise_scalar_vs_simd() {
    for (ci, (p, shape)) in conv_cases().into_iter().enumerate() {
        let input = Tensor3::random(shape, 0x1AB + ci as u64);
        let (s, v) = with_both_backends(|| {
            reference::unroll_windows(&input, p.kernel, p.stride, p.pad).expect("valid case")
        });
        assert_eq!((s.1, s.2), (v.1, v.2));
        assert_bits_eq(&s.0, &v.0, &format!("unroll case {ci}"));
    }
}

#[test]
fn fc_bitwise_scalar_vs_simd_at_odd_widths() {
    for in_features in [1, 3, 7, 8, 9, 16, 17, 33] {
        let p = FcParams::new(in_features, 5);
        let input = random_f32(in_features, 0x4CC + in_features as u64);
        let weights = random_f32(in_features * 5, 0x5DD + in_features as u64);
        let bias = random_f32(5, 0x6EE);
        let (s, v) = with_both_backends(|| {
            reference::fc_forward(&input, &weights, Some(&bias), &p).expect("valid case")
        });
        assert_bits_eq(&s, &v, &format!("fc in={in_features}"));
    }
}

#[test]
fn eltwise_and_relu_bitwise_scalar_vs_simd() {
    let shape = TensorShape::new(3, 5, 11);
    let a = Tensor3::random(shape, 0x7FF);
    let b = Tensor3::random(shape, 0x800);
    let (s, v) = with_both_backends(|| {
        let mut out = reference::eltwise_forward(&a, &b, EltwiseOp::Add).expect("shapes match");
        out.relu_in_place();
        out
    });
    assert_bits_eq(s.as_slice(), v.as_slice(), "eltwise+relu");
}

// ---------------------------------------------------------------------
// Simulator differentials: PE issue values and machine statistics.
// ---------------------------------------------------------------------

#[test]
fn pe_issue_bitwise_scalar_vs_simd() {
    use cbrain_sim::pe::PeArray;
    use cbrain_sim::PeConfig;
    let array = PeArray::new(PeConfig::new(16, 4));
    let mut rng = XorShift64::seed_from_u64(0x91A);
    for segment_len in [1, 2, 4, 8, 16] {
        let data: Vec<f64> = (0..16).map(|_| rng.range_f32(-1.5, 1.5) as f64).collect();
        let lanes: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..16).map(|_| rng.range_f32(-1.5, 1.5) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
        let (s, v) = with_both_backends(|| {
            array
                .issue(&data, &refs, segment_len)
                .expect("consistent shapes")
        });
        for (lane, (ls, lv)) in s.iter().zip(&v).enumerate() {
            for (seg, (a, b)) in ls.iter().zip(lv).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "issue seg_len={segment_len} lane={lane} seg={seg}"
                );
            }
        }
    }
}

#[test]
fn machine_stats_identical_scalar_vs_simd_and_traced_vs_untraced() {
    use cbrain_sim::{AcceleratorConfig, Machine, MacroOp, Program, Tile};
    let mut rng = XorShift64::seed_from_u64(0xACE);
    let tiles: Vec<Tile> = (0..9)
        .map(|i| {
            let mut ops: Vec<MacroOp> = (0..=i % 5)
                .map(|_| MacroOp::MacBurst {
                    bursts: 1 + rng.next_u64() % 1000,
                    active_lanes: 1 + (rng.next_u64() % 256) as u32,
                    input_reads: (rng.next_u64() % 17) as u32,
                    input_requests: 1 + (rng.next_u64() % 4) as u32,
                    weight_reads: (rng.next_u64() % 257) as u32,
                    psum_reads: (rng.next_u64() % 17) as u32,
                    output_writes: (rng.next_u64() % 17) as u32,
                })
                .collect();
            ops.push(MacroOp::AddStore {
                count: rng.next_u64() % 100,
            });
            Tile {
                dram_read_bytes: rng.next_u64() % 4096,
                dram_write_bytes: rng.next_u64() % 1024,
                ops,
            }
        })
        .collect();
    let prog = Program::new("prop", tiles);
    let machine = Machine::new(AcceleratorConfig::paper_16_16());
    let (s, v) = with_both_backends(|| machine.run(&prog));
    assert_eq!(s, v, "stats diverge between scalar and SIMD accounting");
    let (traced, _) = machine.run_traced(&prog, 4096);
    assert_eq!(s, traced, "bulk accounting diverges from the traced path");
}

// ---------------------------------------------------------------------
// The suite's own preconditions.
// ---------------------------------------------------------------------

#[test]
fn force_scalar_env_knob_is_exposed_through_env_config() {
    // The typed accessor and the dispatch-time read must agree on the
    // variable name and truth values.
    assert_eq!(cbrain::config::ENV_FORCE_SCALAR, simd::ENV_FORCE_SCALAR);
    let cfg = cbrain::config::EnvConfig::from_lookup(|k| {
        (k == simd::ENV_FORCE_SCALAR).then(|| "on".to_owned())
    });
    assert!(cfg.force_scalar());
}

#[test]
fn active_backend_reports_a_name() {
    // Sanity: whatever hardware CI runs on, dispatch resolves somewhere.
    let name = simd::Backend::active().name();
    assert!(["scalar", "sse2", "avx2", "neon"].contains(&name), "{name}");
}
