//! Randomized tests: every mapping scheme computes the same convolution
//! as the reference sliding window, for arbitrary layer parameters.
//!
//! Cases are drawn from the in-tree deterministic RNG (the build
//! environment has no registry access, so `proptest` is unavailable);
//! each test replays a fixed seed sequence, so failures reproduce
//! exactly.

use cbrain::functional::{improved_inter_forward, partition_forward, unrolled_forward};
use cbrain_model::rng::XorShift64;
use cbrain_model::{reference, ConvParams, ConvWeights, Tensor3, TensorShape};

/// One random small-but-interesting conv configuration. Strides never
/// exceed kernels (model invariant), inputs always fit the kernel.
fn random_conv(rng: &mut XorShift64) -> (ConvParams, TensorShape, u64) {
    let groups = rng.range_usize(1, 2);
    let ing = rng.range_usize(1, 4); // in maps per group
    let outg = rng.range_usize(1, 6); // out maps per group
    let k = rng.range_usize(1, 7);
    let s = rng.range_usize(1, k);
    let pad = rng.range_usize(1, 3);
    let extra = rng.range_usize(0, 10); // input extent beyond the kernel
    let seed = rng.next_u64();
    let params = ConvParams::grouped(ing * groups, outg * groups, k, s, pad, groups);
    let extent = k + extra;
    (params, TensorShape::new(ing * groups, extent, extent), seed)
}

fn max_diff(
    params: &ConvParams,
    shape: TensorShape,
    seed: u64,
    f: impl Fn(
        &Tensor3,
        &ConvWeights,
        Option<&[f32]>,
        &ConvParams,
    ) -> Result<Tensor3, cbrain_model::ModelError>,
) -> f32 {
    let input = Tensor3::random(shape, seed);
    let weights = ConvWeights::random(params, seed ^ 0xDEAD);
    let bias: Vec<f32> = (0..params.out_maps)
        .map(|i| (i as f32) * 0.25 - 1.0)
        .collect();
    let truth =
        reference::conv_forward(&input, &weights, Some(&bias), params).expect("reference computes");
    let ours = f(&input, &weights, Some(&bias), params).expect("scheme computes");
    ours.max_abs_diff(&truth)
}

#[test]
fn partition_equals_reference() {
    let mut rng = XorShift64::seed_from_u64(0x5041_5254);
    for _ in 0..64 {
        let (params, shape, seed) = random_conv(&mut rng);
        let diff = max_diff(&params, shape, seed, partition_forward);
        assert!(diff < 1e-3, "diff={diff} params={params:?}");
    }
}

#[test]
fn unrolled_equals_reference() {
    let mut rng = XorShift64::seed_from_u64(0x554E_524C);
    for _ in 0..64 {
        let (params, shape, seed) = random_conv(&mut rng);
        let diff = max_diff(&params, shape, seed, unrolled_forward);
        assert!(diff < 1e-3, "diff={diff} params={params:?}");
    }
}

#[test]
fn improved_inter_equals_reference() {
    let mut rng = XorShift64::seed_from_u64(0x494E_5452);
    for _ in 0..64 {
        let (params, shape, seed) = random_conv(&mut rng);
        let diff = max_diff(&params, shape, seed, improved_inter_forward);
        assert!(diff < 1e-3, "diff={diff} params={params:?}");
    }
}

#[test]
fn schemes_agree_with_each_other() {
    let mut rng = XorShift64::seed_from_u64(0x4147_5245);
    for _ in 0..64 {
        let (params, shape, seed) = random_conv(&mut rng);
        let input = Tensor3::random(shape, seed);
        let weights = ConvWeights::random(&params, seed ^ 0xBEEF);
        let a = partition_forward(&input, &weights, None, &params).expect("computes");
        let b = unrolled_forward(&input, &weights, None, &params).expect("computes");
        let c = improved_inter_forward(&input, &weights, None, &params).expect("computes");
        assert!(a.max_abs_diff(&b) < 1e-3, "params={params:?}");
        assert!(b.max_abs_diff(&c) < 1e-3, "params={params:?}");
    }
}

/// One random depthwise geometry: groups == in_maps == out_maps, so the
/// per-group input depth is exactly 1 — the geometry that forces
/// Algorithm 2 down the kernel-partition path.
fn random_depthwise(rng: &mut XorShift64) -> (ConvParams, TensorShape, u64) {
    let maps = rng.range_usize(2, 10);
    let k = rng.range_usize(1, 5);
    let s = rng.range_usize(1, k);
    let pad = rng.range_usize(0, 2);
    let extra = rng.range_usize(0, 8);
    let seed = rng.next_u64();
    let params = ConvParams::depthwise(maps, k, s, pad);
    let extent = k + extra;
    (params, TensorShape::new(maps, extent, extent), seed)
}

/// Every scheme executor handles depthwise (`Din_group = 1`) geometries
/// and agrees with the reference.
#[test]
fn depthwise_schemes_equal_reference() {
    let mut rng = XorShift64::seed_from_u64(0xD3_971);
    for _ in 0..64 {
        let (params, shape, seed) = random_depthwise(&mut rng);
        assert_eq!(params.in_maps_per_group(), 1);
        for f in [partition_forward, unrolled_forward, improved_inter_forward] {
            let diff = max_diff(&params, shape, seed, f);
            assert!(diff < 1e-3, "diff={diff} params={params:?}");
        }
    }
}

/// Eq. 2 over random depthwise/grouped geometries: `g = ceil(k / s)`, and
/// the sub-kernel grid tiles the kernel with every weight position claimed
/// by exactly one sub-kernel (no overlap, no hole).
#[test]
fn partition_subkernels_tile_the_kernel_without_overlap() {
    use cbrain::partition_math::partition;
    let mut rng = XorShift64::seed_from_u64(0xE92_711);
    for _ in 0..256 {
        let k = rng.range_usize(1, 16);
        let s = rng.range_usize(1, k);
        let (g, ks) = partition(k, s);
        assert_eq!(g, k.div_ceil(s), "k={k} s={s}");
        let mut claimed = vec![0u32; k * k];
        for gy in 0..g {
            for gx in 0..g {
                for ky in 0..ks {
                    for kx in 0..ks {
                        let (wy, wx) = (gy * ks + ky, gx * ks + kx);
                        if wy < k && wx < k {
                            claimed[wy * k + wx] += 1;
                        }
                    }
                }
            }
        }
        for (pos, &count) in claimed.iter().enumerate() {
            assert_eq!(count, 1, "k={k} s={s} pos={pos}");
        }
    }
}

/// Eq. 1 over random depthwise geometries: the analytical duplication
/// factor matches the actual unrolled-buffer footprint the intra scheme
/// materializes.
#[test]
fn unroll_inflation_matches_materialized_footprint() {
    use cbrain::partition_math::unroll_duplication;
    let mut rng = XorShift64::seed_from_u64(0xF007);
    for _ in 0..64 {
        let (params, shape, seed) = random_depthwise(&mut rng);
        if params.pad != 0 {
            continue; // Eq. 1 is stated for unpadded maps
        }
        let input = Tensor3::random(shape, seed);
        let (buf, wy, wx) =
            reference::unroll_windows(&input, params.kernel, params.stride, 0).expect("unrolls");
        let k2 = params.kernel * params.kernel;
        assert_eq!(buf.len(), shape.maps * wy * wx * k2);
        let t = unroll_duplication(shape.width, shape.height, params.kernel, params.stride);
        let measured = buf.len() as f64 / shape.elems() as f64;
        assert!(
            (t - measured).abs() < 1e-9,
            "t={t} measured={measured} params={params:?}"
        );
    }
}

/// The PE-level partitioned execution (segmented adder trees, packed
/// windows, add-and-store accumulation) matches the reference too.
#[test]
fn pe_level_partition_equals_reference() {
    use cbrain::functional::partition_forward_on_pe;
    use cbrain_sim::PeConfig;
    let mut rng = XorShift64::seed_from_u64(0x5045_5045);
    for _ in 0..32 {
        let inm = rng.range_usize(1, 3);
        let outm = rng.range_usize(1, 5);
        let k = rng.range_usize(2, 6);
        let extra = rng.range_usize(0, 6);
        let seed = rng.next_u64();
        // Pick a stride whose sub-window (s*s) fits 16 lanes.
        let s = if k >= 4 { 2 } else { 1 };
        let params = ConvParams::new(inm, outm, k, s, 0);
        let extent = k + extra;
        let input = Tensor3::random(TensorShape::new(inm, extent, extent), seed);
        let weights = ConvWeights::random(&params, seed ^ 0xF00D);
        let truth =
            reference::conv_forward(&input, &weights, None, &params).expect("reference computes");
        let ours = partition_forward_on_pe(&input, &weights, &params, PeConfig::new(16, 4))
            .expect("PE execution computes");
        let diff = ours.max_abs_diff(&truth);
        assert!(diff < 1e-3, "diff={diff} k={k} s={s}");
    }
}

/// FNV-1a over the output's `f32` bit patterns.
fn fnv_bits(t: &Tensor3) -> u64 {
    t.as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1_0000_01b3)
        })
}

/// Pins the exact output bits of the partition, inter (`tin = 16`) and
/// improved-inter executors on seeded random floats, so any rewrite of
/// their loop nests must keep every executor's per-pixel term order and
/// add-and-store points. The geometries cover the strided partition
/// path (11x11 s4), a padded grouped strided layer, unit-stride rows 6
/// and 13 wide, a 1x1 layer, a depthwise strided layer and an output
/// group of 6 maps (not a multiple of 4). The constants were recorded
/// from the per-pixel and `axpy` executors these loops replaced; the
/// scalar and SIMD backends agree bitwise, so both CI legs check them.
#[test]
fn executor_output_bits_are_pinned() {
    use cbrain::functional::inter_forward;
    let cases = [
        (ConvParams::new(3, 8, 11, 4, 0), TensorShape::new(3, 31, 31)),
        (
            ConvParams::grouped(6, 8, 5, 2, 2, 2),
            TensorShape::new(6, 15, 15),
        ),
        (ConvParams::new(5, 7, 3, 1, 1), TensorShape::new(5, 6, 6)),
        (ConvParams::new(5, 7, 3, 1, 1), TensorShape::new(5, 5, 13)),
        (ConvParams::new(9, 5, 1, 1, 0), TensorShape::new(9, 6, 6)),
        (
            ConvParams::depthwise(6, 3, 2, 1),
            TensorShape::new(6, 11, 11),
        ),
        (
            ConvParams::grouped(4, 12, 3, 1, 1, 2),
            TensorShape::new(4, 7, 9),
        ),
    ];
    // (partition, inter tin=16, improved-inter) per case.
    const GOLDEN: [[u64; 3]; 7] = [
        [0x5320b3e6a7f44f28, 0xfec8ac9cba687533, 0xca2609cba1691104],
        [0xfedcc40aed0fed49, 0xb580b3ec228d0333, 0xafa25ecc315a9820],
        [0x3fb314328e35e27c, 0xc6c39e8b9c71e5af, 0x3fb314328e35e27c],
        [0x56616d773bcf84ff, 0x1395c29e5bd6e47f, 0x56616d773bcf84ff],
        [0x2c05abbcf10019f2, 0x2c05abbcf10019f2, 0x2c05abbcf10019f2],
        [0xd2c97f76a69f8b20, 0xace61dd2adf4bbcf, 0x4260dde491c30c27],
        [0x51a1b49e0ace275e, 0x1b9a559f0a33870c, 0x51a1b49e0ace275e],
    ];
    let mut got = Vec::new();
    for (ci, (params, shape)) in cases.iter().enumerate() {
        let seed = 0x60_1D + ci as u64 * 7919;
        let input = Tensor3::random(*shape, seed);
        let weights = ConvWeights::random(params, seed ^ 0xA5);
        let mut rng = XorShift64::seed_from_u64(seed ^ 0xB1A5);
        let bias: Vec<f32> = (0..params.out_maps)
            .map(|_| rng.range_f32(-1.0, 1.0))
            .collect();
        let b = Some(bias.as_slice());
        got.push([
            fnv_bits(&partition_forward(&input, &weights, b, params).expect("computes")),
            fnv_bits(&inter_forward(&input, &weights, b, params, 16).expect("computes")),
            fnv_bits(&improved_inter_forward(&input, &weights, b, params).expect("computes")),
        ]);
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|h| format!("[{:#018x}, {:#018x}, {:#018x}]", h[0], h[1], h[2]))
        .collect();
    assert_eq!(
        got,
        GOLDEN,
        "executor bits moved; now:\n{}",
        rendered.join(",\n")
    );
}
