//! Data-accurate executions of each mapping scheme.
//!
//! The performance simulator never touches values; this module proves the
//! *mathematical* claims: kernel partitioning (Algorithm 1), data
//! unrolling, and the improved inter-kernel partial-sum ordering all
//! compute exactly the same convolution as the reference sliding window.
//! The PE-level variant additionally pushes values through the segmented
//! adder-tree datapath the cycle model assumes.
//!
//! The partition, inter and improved-inter executors share one engine:
//! each is a sequence of *passes*, and a pass is an ordered term list
//! `(i, ky, kx)` whose sum every output pixel builds from `+0` in a PE
//! register and then add-and-stores into the output buffer. Passes run on
//! [`simd::conv_rows`] over a zero-padded, stride-polyphase copy of the
//! input, so strided and unit-stride layers take the same loop nest. A
//! padded tap adds `±0` to a register that starts at `+0`, which cannot
//! change it for finite weights, so padding costs no bits.

use crate::partition_math::partition;
use cbrain_model::{reference, simd, ConvParams, ConvWeights, ModelError, Tensor3, TensorShape};
use cbrain_sim::pe::PeArray;
use cbrain_sim::PeConfig;

/// One kernel term of a pass: input map within the group, kernel row,
/// kernel column.
type Term = (usize, usize, usize);

/// Zero-padded, stride-polyphase copy of an input tensor: padded pixel
/// `(y, x)` of map `i` sits at `((i * hp + y) * s + x % s) * wd + x / s`.
/// A tap `(ky, kx)` of a stride-`s` window then reads one contiguous run
/// over the output columns `ox`, starting at [`Polyphase::tap`], and the
/// next output row starts [`Polyphase::row_step`] further on.
struct Polyphase {
    data: Vec<f32>,
    hp: usize,
    wd: usize,
    s: usize,
}

impl Polyphase {
    fn new(input: &Tensor3, pad: usize, s: usize) -> Self {
        let shape = input.shape();
        let hp = shape.height + 2 * pad;
        let wd = (shape.width + 2 * pad).div_ceil(s);
        let mut data = vec![0.0; shape.maps * hp * s * wd];
        for i in 0..shape.maps {
            for y in 0..shape.height {
                let row = ((i * hp + y + pad) * s) * wd;
                for phase in 0..s {
                    // The first input column whose padded column is in
                    // this phase; the phase's columns are then contiguous.
                    let x0 = (phase + s - pad % s) % s;
                    let dst = &mut data[row + phase * wd + (x0 + pad) / s..];
                    let xs = input.row(i, y).iter().skip(x0).step_by(s);
                    for (d, &v) in dst.iter_mut().zip(xs) {
                        *d = v;
                    }
                }
            }
        }
        Self { data, hp, wd, s }
    }

    /// Offset of the tap `(ky, kx)` of map `i` for output pixel `(0, 0)`.
    fn tap(&self, i: usize, ky: usize, kx: usize) -> usize {
        ((i * self.hp + ky) * self.s + kx % self.s) * self.wd + kx / self.s
    }

    /// Distance between the same tap of consecutive output rows.
    fn row_step(&self) -> usize {
        self.s * self.s * self.wd
    }
}

/// Runs `passes` in order over a bias-seeded output buffer. For each pass
/// and each group, every output pixel gets one add-and-store of
/// `Σ_t w(o, i_t, ky_t, kx_t) * x(i_t, oy*s + ky_t, ox*s + kx_t)` over the
/// padded input, summed from `+0` in term order by [`simd::conv_rows`].
fn run_passes(
    input: &Tensor3,
    weights: &ConvWeights,
    bias: Option<&[f32]>,
    params: &ConvParams,
    passes: impl Iterator<Item = Vec<Term>>,
) -> Result<Tensor3, ModelError> {
    let out_shape = params.output_shape(input.shape())?;
    let TensorShape { height, width, .. } = out_shape;
    let dec = Polyphase::new(input, params.pad, params.stride);
    // At unit stride, output row `oy + 1` reads the polyphase row after
    // row `oy`'s: with the output rows at the polyphase pitch, a whole
    // plane is one contiguous run (the pitch's extra columns are computed
    // and dropped). A strided layer takes one run per output row.
    let (pitch, lines, run) = if params.stride == 1 {
        (dec.wd, 1, (height - 1) * dec.wd + width)
    } else {
        (width, height, width)
    };
    let plane = height * pitch;
    let mut out = vec![0.0f32; out_shape.maps * plane];
    if let Some(b) = bias {
        for (o, &bv) in b.iter().enumerate().take(out_shape.maps) {
            out[o * plane..][..plane].fill(bv);
        }
    }

    let in_per_group = params.in_maps_per_group();
    let out_per_group = params.out_maps_per_group();
    let (mut taps, mut wbuf) = (Vec::new(), Vec::new());
    for terms in passes {
        for group in 0..params.groups {
            let in_base = group * in_per_group;
            taps.clear();
            taps.extend(
                terms
                    .iter()
                    .map(|&(i, ky, kx)| dec.tap(in_base + i, ky, kx)),
            );
            // The group's output maps in kernel-sized blocks `(o0, rows)`,
            // each block's weights laid out `w[t*rows + r]`.
            let end = (group + 1) * out_per_group;
            let blocks = || {
                (group * out_per_group..end)
                    .step_by(simd::CONV_ROWS_MAPS)
                    .map(move |o0| (o0, simd::CONV_ROWS_MAPS.min(end - o0)))
            };
            wbuf.clear();
            for (o0, rows) in blocks() {
                for &(i, ky, kx) in &terms {
                    wbuf.extend((o0..o0 + rows).map(|o| weights.at(o, i, ky, kx)));
                }
            }
            for line in 0..lines {
                let src = &dec.data[line * dec.row_step()..];
                let mut w = wbuf.as_slice();
                for (o0, rows) in blocks() {
                    let (block, rest) = w.split_at(rows * terms.len());
                    w = rest;
                    let acc = &mut out[o0 * plane + line * pitch..];
                    simd::conv_rows(acc, plane, rows, run, block, src, &taps);
                }
            }
        }
    }
    if pitch != width {
        // Drop the pitch's extra columns in place (rows only move left).
        for row in 1..out_shape.maps * height {
            out.copy_within(row * pitch..row * pitch + width, row * width);
        }
        out.truncate(out_shape.elems());
    }
    Ok(Tensor3::from_vec(out_shape, out))
}

/// Kernel-partitioned convolution (Algorithm 1): the `k x k` kernel is
/// split into `g x g` sub-kernels of side `ks = s`; each pass produces a
/// partial output map (`r_{i/G}` in Fig. 5d) which is accumulated into the
/// final result.
///
/// Pass `(gy, gx)` sums its sub-kernel's terms in `i -> ky -> kx` order,
/// skipping the zero-padded weights beyond `k` (Fig. 5c), then
/// add-and-stores once (Algorithm 1 line 8).
///
/// # Errors
///
/// Propagates shape/parameter errors.
///
/// # Examples
///
/// ```
/// use cbrain::functional::partition_forward;
/// use cbrain_model::{reference, ConvParams, ConvWeights, Tensor3, TensorShape};
///
/// let params = ConvParams::new(3, 4, 11, 4, 0);
/// let input = Tensor3::random(TensorShape::new(3, 43, 43), 7);
/// let weights = ConvWeights::random(&params, 8);
/// let ours = partition_forward(&input, &weights, None, &params)?;
/// let truth = reference::conv_forward(&input, &weights, None, &params)?;
/// assert!(ours.max_abs_diff(&truth) < 1e-4);
/// # Ok::<(), cbrain_model::ModelError>(())
/// ```
pub fn partition_forward(
    input: &Tensor3,
    weights: &ConvWeights,
    bias: Option<&[f32]>,
    params: &ConvParams,
) -> Result<Tensor3, ModelError> {
    params.validate("<partition>")?;
    let k = params.kernel;
    let (g, ks) = partition(k, params.stride);
    let passes = (0..g * g).map(|p| {
        let (gy, gx) = (p / g, p % g);
        let mut terms = Vec::new();
        for i in 0..params.in_maps_per_group() {
            for ky in 0..ks {
                for kx in 0..ks {
                    let (wy, wx) = (gy * ks + ky, gx * ks + kx);
                    if wy < k && wx < k {
                        terms.push((i, wy, wx));
                    }
                }
            }
        }
        terms
    });
    run_passes(input, weights, bias, params, passes)
}
/// Unrolled (im2col) convolution: the intra-kernel scheme's data layout.
/// Windows are duplicated into contiguous runs (Eq. 1's footprint cost),
/// then each output pixel is one dot product.
///
/// # Errors
///
/// Propagates shape/parameter errors. Grouped convolutions are supported.
pub fn unrolled_forward(
    input: &Tensor3,
    weights: &ConvWeights,
    bias: Option<&[f32]>,
    params: &ConvParams,
) -> Result<Tensor3, ModelError> {
    params.validate("<unrolled>")?;
    let out_shape = params.output_shape(input.shape())?;
    let (buf, wy, wx) = reference::unroll_windows(input, params.kernel, params.stride, params.pad)?;
    debug_assert_eq!((wy, wx), (out_shape.height, out_shape.width));

    let k2 = params.kernel * params.kernel;
    let in_per_group = params.in_maps_per_group();
    let out_per_group = params.out_maps_per_group();
    let windows_per_map = wy * wx;

    let mut out = Tensor3::zeros(out_shape);
    for o in 0..params.out_maps {
        let group = o / out_per_group;
        let in_base = group * in_per_group;
        for w in 0..windows_per_map {
            let mut acc = bias.map_or(0.0, |b| b[o]);
            for i in 0..in_per_group {
                // The unrolled window run and the kernel run share the
                // same (ky, kx) row-major layout: one dot product each.
                let run = &buf[((in_base + i) * windows_per_map + w) * k2..][..k2];
                acc += simd::dot(run, weights.kernel_run(o, i));
            }
            *out.at_mut(o, w / wx, w % wx) = acc;
        }
    }
    Ok(out)
}

/// Plain inter-kernel convolution with the input-map dimension walked in
/// `tin`-wide blocks: each block's window dot-product accumulates in a PE
/// register, then add-and-stores into the output buffer once per block —
/// the accumulation order of the inter-kernel hardware mapping.
///
/// The reference sliding window accumulates the whole window in one
/// running sum; this executor deliberately reorders it the way the array
/// does, so the conformance suite compares two genuinely different
/// summation orders.
///
/// # Errors
///
/// Propagates shape/parameter errors. Grouped convolutions are supported.
///
/// # Panics
///
/// Panics if `tin` is zero.
pub fn inter_forward(
    input: &Tensor3,
    weights: &ConvWeights,
    bias: Option<&[f32]>,
    params: &ConvParams,
    tin: usize,
) -> Result<Tensor3, ModelError> {
    assert!(tin > 0, "tin must be non-zero");
    params.validate("<inter>")?;
    let (k, in_per_group) = (params.kernel, params.in_maps_per_group());
    // One pass per Din block, terms in i -> ky -> kx order.
    let passes = (0..in_per_group).step_by(tin).map(|i0| {
        let block = i0..(i0 + tin).min(in_per_group);
        block
            .flat_map(|i| (0..k * k).map(move |p| (i, p / k, p % k)))
            .collect()
    });
    run_passes(input, weights, bias, params, passes)
}

/// Improved inter-kernel convolution (Sec. 4.2.2): the kernel-position loop
/// is outermost, so each output element is built from `k*k` partial sums
/// accumulated in the output buffer ("add-and-store") instead of in the PE
/// register.
///
/// # Errors
///
/// Propagates shape/parameter errors.
pub fn improved_inter_forward(
    input: &Tensor3,
    weights: &ConvWeights,
    bias: Option<&[f32]>,
    params: &ConvParams,
) -> Result<Tensor3, ModelError> {
    params.validate("<improved-inter>")?;
    let k = params.kernel;
    // One pass per (ky, kx): the weights for one kernel position are held
    // while every pixel of every output map is visited, summing over Din.
    let passes = (0..k * k).map(|p| {
        (0..params.in_maps_per_group())
            .map(|i| (i, p / k, p % k))
            .collect()
    });
    run_passes(input, weights, bias, params, passes)
}

/// Kernel-partitioned convolution executed issue-by-issue on the
/// functional PE array, including the adder-tree segmentation that packs
/// several `ks x ks` sub-windows into one issue (Sec. 4.2.1's mapping).
///
/// Supports ungrouped layers whose sub-window size does not exceed `Tin`.
///
/// # Errors
///
/// Propagates shape/parameter errors.
///
/// # Panics
///
/// Panics if `params.groups != 1` or `s * s > pe.tin` (not a meaningful
/// hardware mapping — use [`partition_forward`] for the general check).
pub fn partition_forward_on_pe(
    input: &Tensor3,
    weights: &ConvWeights,
    params: &ConvParams,
    pe: PeConfig,
) -> Result<Tensor3, ModelError> {
    assert_eq!(params.groups, 1, "PE-level check supports ungrouped only");
    let (g, ks) = partition(params.kernel, params.stride);
    let window = ks * ks;
    assert!(window <= pe.tin, "sub-window must fit the lane group");
    params.validate("<partition-pe>")?;
    let out_shape = params.output_shape(input.shape())?;
    let array = PeArray::new(pe);
    let pack = pe.tin / window;
    let pad = params.pad as isize;

    let mut out = Tensor3::zeros(out_shape);
    let windows_total = out_shape.height * out_shape.width;

    for gy in 0..g {
        for gx in 0..g {
            for i in 0..params.in_maps {
                // Sweep output maps in Tout-wide blocks with weights held.
                for o_base in (0..params.out_maps).step_by(pe.tout) {
                    let o_count = pe.tout.min(params.out_maps - o_base);
                    // Weight vector per output lane: the sub-kernel repeated
                    // per packed window.
                    let lane_weights: Vec<Vec<f64>> = (0..o_count)
                        .map(|oo| {
                            let mut w = Vec::with_capacity(pack * window);
                            for _ in 0..pack {
                                for ky in 0..ks {
                                    for kx in 0..ks {
                                        let (wy, wx) = (gy * ks + ky, gx * ks + kx);
                                        let v = if wy < params.kernel && wx < params.kernel {
                                            weights.at(o_base + oo, i, wy, wx) as f64
                                        } else {
                                            0.0
                                        };
                                        w.push(v);
                                    }
                                }
                            }
                            w
                        })
                        .collect();

                    for w_base in (0..windows_total).step_by(pack) {
                        let batch = pack.min(windows_total - w_base);
                        // Gather the packed sub-windows (contiguous in the
                        // real buffer; gathered here from the dense tensor).
                        let mut data = Vec::with_capacity(batch * window);
                        for b in 0..batch {
                            let w_idx = w_base + b;
                            let (oy, ox) = (w_idx / out_shape.width, w_idx % out_shape.width);
                            for ky in 0..ks {
                                for kx in 0..ks {
                                    let y = (oy * params.stride) as isize - pad
                                        + (gy * ks + ky) as isize;
                                    let x = (ox * params.stride) as isize - pad
                                        + (gx * ks + kx) as isize;
                                    data.push(input.at_padded(i, y, x) as f64);
                                }
                            }
                        }
                        let lanes: Vec<&[f64]> = lane_weights[..o_count]
                            .iter()
                            .map(|w| &w[..data.len()])
                            .collect();
                        let psums = array
                            .issue(&data, &lanes, window)
                            .expect("issue shapes are consistent by construction");
                        for (oo, lane) in psums.iter().enumerate() {
                            for (b, p) in lane.iter().enumerate() {
                                let w_idx = w_base + b;
                                let (oy, ox) = (w_idx / out_shape.width, w_idx % out_shape.width);
                                // add-and-store into the output buffer.
                                *out.at_mut(o_base + oo, oy, ox) += *p as f32;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain_model::TensorShape;

    const TOL: f32 = 2e-3;

    fn check_against_reference(
        params: ConvParams,
        input_shape: TensorShape,
        f: impl Fn(&Tensor3, &ConvWeights, Option<&[f32]>, &ConvParams) -> Result<Tensor3, ModelError>,
    ) {
        let input = Tensor3::random(input_shape, 11);
        let weights = ConvWeights::random(&params, 23);
        let bias: Vec<f32> = (0..params.out_maps).map(|i| i as f32 * 0.1 - 1.0).collect();
        let truth = reference::conv_forward(&input, &weights, Some(&bias), &params).unwrap();
        let ours = f(&input, &weights, Some(&bias), &params).unwrap();
        let diff = ours.max_abs_diff(&truth);
        assert!(diff < TOL, "diff={diff}");
    }

    #[test]
    fn partition_matches_reference_alexnet_c1_shape() {
        // Scaled-down AlexNet conv1: k=11, s=4.
        check_against_reference(
            ConvParams::new(3, 8, 11, 4, 0),
            TensorShape::new(3, 47, 47),
            partition_forward,
        );
    }

    #[test]
    fn partition_matches_reference_with_padding() {
        check_against_reference(
            ConvParams::new(4, 6, 5, 2, 2),
            TensorShape::new(4, 19, 19),
            partition_forward,
        );
    }

    #[test]
    fn partition_matches_reference_stride_1() {
        // VGG-style: g=3, ks=1 single-weight sub-kernels.
        check_against_reference(
            ConvParams::new(3, 4, 3, 1, 1),
            TensorShape::new(3, 12, 12),
            partition_forward,
        );
    }

    #[test]
    fn partition_matches_reference_grouped() {
        check_against_reference(
            ConvParams::grouped(6, 8, 5, 2, 1, 2),
            TensorShape::new(6, 17, 17),
            partition_forward,
        );
    }

    #[test]
    fn partition_matches_when_k_equals_s() {
        // Degenerate g=1: plain sliding window.
        check_against_reference(
            ConvParams::new(2, 3, 4, 4, 0),
            TensorShape::new(2, 16, 16),
            partition_forward,
        );
    }

    #[test]
    fn unrolled_matches_reference() {
        check_against_reference(
            ConvParams::new(3, 5, 5, 2, 1),
            TensorShape::new(3, 15, 15),
            unrolled_forward,
        );
    }

    #[test]
    fn unrolled_matches_reference_grouped() {
        check_against_reference(
            ConvParams::grouped(4, 4, 3, 1, 1, 2),
            TensorShape::new(4, 9, 9),
            unrolled_forward,
        );
    }

    #[test]
    fn inter_blocked_matches_reference() {
        check_against_reference(
            ConvParams::new(40, 6, 3, 1, 1),
            TensorShape::new(40, 9, 9),
            |i, w, b, p| inter_forward(i, w, b, p, 16),
        );
    }

    #[test]
    fn inter_blocked_matches_reference_grouped_depthwise() {
        check_against_reference(
            ConvParams::depthwise(6, 3, 2, 1),
            TensorShape::new(6, 11, 11),
            |i, w, b, p| inter_forward(i, w, b, p, 16),
        );
    }

    #[test]
    fn improved_inter_matches_reference() {
        check_against_reference(
            ConvParams::new(5, 7, 3, 1, 1),
            TensorShape::new(5, 13, 13),
            improved_inter_forward,
        );
    }

    #[test]
    fn improved_inter_matches_reference_strided() {
        check_against_reference(
            ConvParams::grouped(6, 4, 5, 2, 0, 2),
            TensorShape::new(6, 21, 21),
            improved_inter_forward,
        );
    }

    #[test]
    fn pe_level_partition_matches_reference() {
        // k=11, s=4 -> ks=4, window 16 = Tin: exactly one window per issue.
        let params = ConvParams::new(3, 8, 11, 4, 0);
        let input = Tensor3::random(TensorShape::new(3, 43, 43), 3);
        let weights = ConvWeights::random(&params, 5);
        let truth = reference::conv_forward(&input, &weights, None, &params).unwrap();
        let ours =
            partition_forward_on_pe(&input, &weights, &params, PeConfig::new(16, 16)).unwrap();
        let diff = ours.max_abs_diff(&truth);
        assert!(diff < TOL, "diff={diff}");
    }

    #[test]
    fn pe_level_partition_packs_multiple_windows() {
        // k=3, s=1 -> ks=1, window 1: 16 windows pack per issue.
        let params = ConvParams::new(2, 5, 3, 1, 1);
        let input = Tensor3::random(TensorShape::new(2, 10, 10), 13);
        let weights = ConvWeights::random(&params, 17);
        let truth = reference::conv_forward(&input, &weights, None, &params).unwrap();
        let ours =
            partition_forward_on_pe(&input, &weights, &params, PeConfig::new(16, 4)).unwrap();
        let diff = ours.max_abs_diff(&truth);
        assert!(diff < TOL, "diff={diff}");
    }

    #[test]
    fn pe_level_partition_handles_remainder_batch() {
        // windows_total not a multiple of the pack width.
        let params = ConvParams::new(1, 2, 2, 2, 0);
        let input = Tensor3::random(TensorShape::new(1, 10, 10), 29);
        let weights = ConvWeights::random(&params, 31);
        let truth = reference::conv_forward(&input, &weights, None, &params).unwrap();
        // window = 4, Tin = 12 -> pack 3; 25 windows = 8 batches + 1 rem.
        let ours =
            partition_forward_on_pe(&input, &weights, &params, PeConfig::new(12, 2)).unwrap();
        assert!(ours.max_abs_diff(&truth) < TOL);
    }
}
