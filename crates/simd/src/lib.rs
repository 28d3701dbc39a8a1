//! # cbrain-simd
//!
//! A small safe SIMD layer for the workspace's arithmetic hot loops: the
//! reference convolution, the scheme executors' register-blocked
//! microkernel, the functional PE array's segmented dot products and the
//! simulator's multiply-burst accounting.
//!
//! ## Dispatch strategy
//!
//! Every public kernel is a safe function that dispatches once per call on
//! [`Backend::active`]: AVX2 when the CPU reports it at runtime, otherwise
//! SSE2 (baseline on `x86_64`), NEON on `aarch64` (baseline there), and a
//! scalar fallback everywhere else. `CBRAIN_FORCE_SCALAR=1` (or a
//! programmatic [`set_force_scalar`] override, which wins over the
//! environment) pins the scalar fallback so differential tests can compare
//! the two paths inside one process.
//!
//! ## The bit-exactness contract
//!
//! Every kernel computes one *canonical* floating-point expression graph,
//! and every backend — including the scalar fallback — evaluates exactly
//! that graph:
//!
//! * element-wise kernels ([`axpy`], [`add_assign`], [`relu`]) perform the
//!   same independent per-element operation in every backend, so lanes
//!   cannot interact;
//! * the convolution microkernel ([`conv_rows`]) sums every output
//!   element's terms from `+0.0` in ascending term order in that
//!   element's own lane and adds the sum to the accumulator once; its
//!   register block spans output pixels and output maps, never the
//!   reduction axis, so block and lane widths cannot reorder anything;
//! * reductions ([`dot`], [`dot_f64`]) accumulate into a fixed number of
//!   *vertical* partial sums ([`F32_LANES`] / [`F64_LANES`]), zero-pad the
//!   tail block, and fold the partials in one fixed tree order. The scalar
//!   fallback maintains the same lane array and folds it in the same
//!   order, and narrower vector units (SSE2/NEON) run two registers side
//!   by side to preserve the 8-wide (f32) / 4-wide (f64) lane layout.
//!
//! IEEE-754 multiplies and adds are exact per lane (no FMA contraction is
//! used anywhere), so every backend returns bit-identical results on
//! arbitrary inputs — not merely on the integer-valued tensors the
//! conformance suite feeds (where *any* summation order is exact because
//! all partial sums are integers far below 2^24). `tests/prop_simd.rs`
//! enforces the bit-for-bit contract across lane-remainder geometries.
//!
//! Integer kernels ([`mac_dot`]) use wrapping arithmetic, which is
//! associative, so their result is order-independent by construction.
//!
//! ## Example
//!
//! ```
//! let a = [1.0f32, 2.0, 3.0, 4.0, 5.0];
//! let b = [0.5f32, 0.5, 0.5, 0.5, 0.5];
//! assert_eq!(cbrain_simd::dot(&a, &b), 7.5);
//!
//! let mut acc = [1.0f32; 5];
//! cbrain_simd::axpy(&mut acc, 2.0, &a);
//! assert_eq!(acc, [3.0, 5.0, 7.0, 9.0, 11.0]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Environment variable that pins the scalar fallback when set to `1`,
/// `true` or `on` (case-insensitive). Read once, at first dispatch; the
/// typed accessor lives in `cbrain::config::EnvConfig::force_scalar`.
pub const ENV_FORCE_SCALAR: &str = "CBRAIN_FORCE_SCALAR";

/// Number of vertical f32 accumulator lanes every [`dot`] backend uses.
pub const F32_LANES: usize = 8;

/// Number of vertical f64 accumulator lanes every [`dot_f64`] backend uses.
pub const F64_LANES: usize = 4;

/// The instruction set a kernel call executes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar fallback (also the forced differential-test path).
    Scalar,
    /// x86_64 SSE2 (baseline — always available on that architecture).
    Sse2,
    /// x86_64 AVX2, selected by runtime feature detection.
    Avx2,
    /// aarch64 NEON (baseline on that architecture).
    Neon,
}

impl Backend {
    /// The backend kernels currently dispatch to, honouring
    /// [`set_force_scalar`] first and `CBRAIN_FORCE_SCALAR` second.
    pub fn active() -> Backend {
        if scalar_forced() {
            Backend::Scalar
        } else {
            detected()
        }
    }

    /// Short lowercase name (`scalar`, `sse2`, `avx2`, `neon`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// 0 = follow the environment, 1 = force scalar, 2 = force SIMD.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Programmatic override of the scalar pin: `Some(true)` forces the scalar
/// fallback, `Some(false)` forces SIMD dispatch (where available), `None`
/// restores the `CBRAIN_FORCE_SCALAR` environment default. The override is
/// process-global; differential tests serialize around it.
pub fn set_force_scalar(force: Option<bool>) {
    let v = match force {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    OVERRIDE.store(v, Ordering::SeqCst);
}

/// Whether kernels are currently pinned to the scalar fallback.
pub fn scalar_forced() -> bool {
    match OVERRIDE.load(Ordering::SeqCst) {
        1 => true,
        2 => false,
        _ => env_forced(),
    }
}

fn env_forced() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        matches!(
            std::env::var(ENV_FORCE_SCALAR)
                .map(|v| v.trim().to_ascii_lowercase())
                .as_deref(),
            Ok("1") | Ok("true") | Ok("on")
        )
    })
}

fn detected() -> Backend {
    static DETECTED: OnceLock<Backend> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                Backend::Avx2
            } else {
                Backend::Sse2
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            Backend::Neon
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            Backend::Scalar
        }
    })
}

/// `dst[i] += a * xs[i]` for every element. Element-wise, so every backend
/// is bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(dst: &mut [f32], a: f32, xs: &[f32]) {
    assert_eq!(dst.len(), xs.len(), "axpy length mismatch");
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::axpy_avx2(dst, a, xs) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::axpy_sse2(dst, a, xs) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::axpy(dst, a, xs) },
        _ => scalar::axpy(dst, a, xs),
    }
}

/// `dst[i] += xs[i]` for every element.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_assign(dst: &mut [f32], xs: &[f32]) {
    assert_eq!(dst.len(), xs.len(), "add_assign length mismatch");
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::add_avx2(dst, xs) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::add_sse2(dst, xs) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::add(dst, xs) },
        _ => scalar::add(dst, xs),
    }
}

/// In-place ReLU with select semantics: `dst[i] = if dst[i] > 0.0
/// { dst[i] } else { 0.0 }`. Negative zero becomes `+0.0` and NaN becomes
/// `0.0` in *every* backend, so scalar and SIMD agree bitwise.
pub fn relu(dst: &mut [f32]) {
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::relu_avx2(dst) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::relu_sse2(dst) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::relu(dst) },
        _ => scalar::relu(dst),
    }
}

/// Dot product over the canonical [`F32_LANES`]-wide vertical accumulator
/// graph (see the module docs). All backends are bit-identical on
/// arbitrary inputs.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::dot_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::dot_sse2(a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::dot(a, b) },
        _ => scalar::dot(a, b),
    }
}

/// `f64` dot product over the canonical [`F64_LANES`]-wide vertical
/// accumulator graph. Used by the functional PE array's segmented
/// adder-tree reduce.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_f64 length mismatch");
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::dot_f64_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::dot_f64_sse2(a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::dot_f64(a, b) },
        _ => scalar::dot_f64(a, b),
    }
}

/// `Σ bursts[i] * factors[i]` with wrapping 64-bit arithmetic — the
/// simulator's multiply-burst accounting primitive. Wrapping integer
/// arithmetic is associative, so lane order cannot change the result;
/// only AVX2 carries a vector implementation (SSE2/NEON fall back to the
/// scalar loop, which is already bit-identical).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mac_dot(bursts: &[u64], factors: &[u32]) -> u64 {
    assert_eq!(bursts.len(), factors.len(), "mac_dot length mismatch");
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::mac_dot_avx2(bursts, factors) },
        _ => scalar::mac_dot(bursts, factors),
    }
}

/// Output maps (rows) one register block of [`conv_rows`] covers. Callers
/// that gather weights per block use it to keep each block's weights
/// contiguous.
pub const CONV_ROWS_MAPS: usize = 4;

/// Register-blocked convolution microkernel shared by the scheme
/// executors. For every `r < rows` and `x < width`:
///
/// `acc[r*ld + x] += Σ_t w[t*rows + r] * src[offs[t] + x]`
///
/// The sum starts at `+0.0` and adds its terms in ascending `t` (no FMA),
/// then lands in `acc` with one add — an add-and-store of the whole term
/// list. Lanes run across independent outputs only, never across the
/// reduction axis, so every backend is bit-identical to the scalar loop.
/// The AVX2 arm keeps a block of [`CONV_ROWS_MAPS`] rows x 16 pixels in
/// eight registers across the term list and masks the pixel tail; the
/// SSE2 arm is its 4-wide copy (blocks of 8 pixels); NEON runs the scalar
/// arm.
///
/// # Panics
///
/// Panics if `w.len() != offs.len() * rows`, if rows overlap
/// (`rows > 1 && ld < width`), if `acc` is shorter than
/// `(rows - 1) * ld + width`, or if some `offs[t] + width` exceeds
/// `src.len()`.
///
/// # Examples
///
/// ```
/// // Two output rows, three terms over a 4-pixel width.
/// let src = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
/// let offs = [0, 1, 2];
/// let w = [1.0f32, 0.0, 0.5, 1.0, 0.25, 0.0]; // w[t*2 + r]
/// let mut acc = [0.0f32; 8];
/// cbrain_simd::conv_rows(&mut acc, 4, 2, 4, &w, &src, &offs);
/// assert_eq!(acc[..4], [2.75, 4.5, 6.25, 8.0]);
/// assert_eq!(acc[4..], [2.0, 3.0, 4.0, 5.0]);
/// ```
pub fn conv_rows(
    acc: &mut [f32],
    ld: usize,
    rows: usize,
    width: usize,
    w: &[f32],
    src: &[f32],
    offs: &[usize],
) {
    assert_eq!(
        Some(w.len()),
        offs.len().checked_mul(rows),
        "conv_rows weight count mismatch"
    );
    if rows == 0 || width == 0 {
        return;
    }
    assert!(rows == 1 || ld >= width, "conv_rows rows overlap");
    let acc_need = (rows - 1)
        .checked_mul(ld)
        .and_then(|n| n.checked_add(width));
    assert!(
        acc_need.is_some_and(|n| n <= acc.len()),
        "conv_rows accumulator too short"
    );
    let src_need = offs.iter().max().map_or(Some(0), |m| m.checked_add(width));
    assert!(
        src_need.is_some_and(|n| n <= src.len()),
        "conv_rows source too short"
    );
    // SAFETY: every index the arms touch is in bounds by the asserts
    // above, and `Backend::Avx2` is only active after runtime detection.
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::conv_rows_avx2(acc, ld, rows, width, w, src, offs) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::conv_rows_sse2(acc, ld, rows, width, w, src, offs) },
        _ => scalar::conv_rows(acc, ld, rows, width, w, src, offs),
    }
}

/// The canonical scalar implementations every SIMD backend must match
/// bit-for-bit. Public (under this module) so benches and tests can time
/// and compare the fallback explicitly without toggling global state.
pub mod scalar {
    use super::{F32_LANES, F64_LANES};

    /// Scalar [`crate::conv_rows`]: per row, the term sums of a chunk of
    /// pixels build up from `+0.0` in ascending `t` and are then added to
    /// `acc` (the same per-element graph as the vector arms).
    ///
    /// # Panics
    ///
    /// Panics on any out-of-range index (the public wrapper asserts the
    /// bounds up front).
    pub fn conv_rows(
        acc: &mut [f32],
        ld: usize,
        rows: usize,
        width: usize,
        w: &[f32],
        src: &[f32],
        offs: &[usize],
    ) {
        const CHUNK: usize = 64;
        let mut part = [0.0f32; CHUNK];
        for r in 0..rows {
            for x0 in (0..width).step_by(CHUNK) {
                let part = &mut part[..CHUNK.min(width - x0)];
                part.fill(0.0);
                for (t, &off) in offs.iter().enumerate() {
                    let wt = w[t * rows + r];
                    let xs = &src[off + x0..][..part.len()];
                    for (p, &v) in part.iter_mut().zip(xs) {
                        *p += wt * v;
                    }
                }
                let dst = &mut acc[r * ld + x0..][..part.len()];
                for (d, p) in dst.iter_mut().zip(part.iter()) {
                    *d += *p;
                }
            }
        }
    }

    /// Scalar [`crate::axpy`].
    pub fn axpy(dst: &mut [f32], a: f32, xs: &[f32]) {
        for (d, x) in dst.iter_mut().zip(xs) {
            *d += a * x;
        }
    }

    /// Scalar [`crate::add_assign`].
    pub fn add(dst: &mut [f32], xs: &[f32]) {
        for (d, x) in dst.iter_mut().zip(xs) {
            *d += x;
        }
    }

    /// Scalar [`crate::relu`] (select semantics, see the public docs).
    pub fn relu(dst: &mut [f32]) {
        for v in dst {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
    }

    /// Scalar [`crate::dot`]: the canonical 8-lane vertical graph.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; F32_LANES];
        let mut i = 0;
        while i + F32_LANES <= a.len() {
            for j in 0..F32_LANES {
                acc[j] += a[i + j] * b[i + j];
            }
            i += F32_LANES;
        }
        if i < a.len() {
            let (mut ta, mut tb) = ([0.0f32; F32_LANES], [0.0f32; F32_LANES]);
            ta[..a.len() - i].copy_from_slice(&a[i..]);
            tb[..b.len() - i].copy_from_slice(&b[i..]);
            for j in 0..F32_LANES {
                acc[j] += ta[j] * tb[j];
            }
        }
        // Fixed fold tree: 8 -> 4 -> 2 -> 1, matching the vector reduces.
        let s = [
            acc[0] + acc[4],
            acc[1] + acc[5],
            acc[2] + acc[6],
            acc[3] + acc[7],
        ];
        let t = [s[0] + s[2], s[1] + s[3]];
        t[0] + t[1]
    }

    /// Scalar [`crate::dot_f64`]: the canonical 4-lane vertical graph.
    pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
        let mut acc = [0.0f64; F64_LANES];
        let mut i = 0;
        while i + F64_LANES <= a.len() {
            for j in 0..F64_LANES {
                acc[j] += a[i + j] * b[i + j];
            }
            i += F64_LANES;
        }
        if i < a.len() {
            let (mut ta, mut tb) = ([0.0f64; F64_LANES], [0.0f64; F64_LANES]);
            ta[..a.len() - i].copy_from_slice(&a[i..]);
            tb[..b.len() - i].copy_from_slice(&b[i..]);
            for j in 0..F64_LANES {
                acc[j] += ta[j] * tb[j];
            }
        }
        let s = [acc[0] + acc[2], acc[1] + acc[3]];
        s[0] + s[1]
    }

    /// Scalar [`crate::mac_dot`].
    pub fn mac_dot(bursts: &[u64], factors: &[u32]) -> u64 {
        let mut acc = 0u64;
        for (b, f) in bursts.iter().zip(factors) {
            acc = acc.wrapping_add(b.wrapping_mul(*f as u64));
        }
        acc
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! x86_64 backends. SSE2 is baseline for the architecture, so its
    //! functions need no runtime gate; the AVX2 ones are only reached
    //! after `is_x86_feature_detected!("avx2")` succeeded.

    use super::scalar;
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must run on x86_64 (SSE2 is baseline there).
    pub unsafe fn axpy_sse2(dst: &mut [f32], a: f32, xs: &[f32]) {
        let n = dst.len();
        let av = _mm_set1_ps(a);
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm_loadu_ps(dst.as_ptr().add(i));
            let x = _mm_loadu_ps(xs.as_ptr().add(i));
            _mm_storeu_ps(dst.as_mut_ptr().add(i), _mm_add_ps(d, _mm_mul_ps(av, x)));
            i += 4;
        }
        scalar::axpy(&mut dst[i..], a, &xs[i..]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(dst: &mut [f32], a: f32, xs: &[f32]) {
        let n = dst.len();
        let av = _mm256_set1_ps(a);
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let x = _mm256_loadu_ps(xs.as_ptr().add(i));
            _mm256_storeu_ps(
                dst.as_mut_ptr().add(i),
                _mm256_add_ps(d, _mm256_mul_ps(av, x)),
            );
            i += 8;
        }
        scalar::axpy(&mut dst[i..], a, &xs[i..]);
    }

    /// # Safety
    /// Caller must run on x86_64.
    pub unsafe fn add_sse2(dst: &mut [f32], xs: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm_loadu_ps(dst.as_ptr().add(i));
            let x = _mm_loadu_ps(xs.as_ptr().add(i));
            _mm_storeu_ps(dst.as_mut_ptr().add(i), _mm_add_ps(d, x));
            i += 4;
        }
        scalar::add(&mut dst[i..], &xs[i..]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_avx2(dst: &mut [f32], xs: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let x = _mm256_loadu_ps(xs.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(d, x));
            i += 8;
        }
        scalar::add(&mut dst[i..], &xs[i..]);
    }

    /// # Safety
    /// Caller must run on x86_64.
    pub unsafe fn relu_sse2(dst: &mut [f32]) {
        let n = dst.len();
        let zero = _mm_setzero_ps();
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm_loadu_ps(dst.as_ptr().add(i));
            // v > 0 ? v : +0.0 — and-mask keeps x only where the compare
            // is true, exactly the scalar select semantics.
            let mask = _mm_cmpgt_ps(v, zero);
            _mm_storeu_ps(dst.as_mut_ptr().add(i), _mm_and_ps(v, mask));
            i += 4;
        }
        scalar::relu(&mut dst[i..]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn relu_avx2(dst: &mut [f32]) {
        let n = dst.len();
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(dst.as_ptr().add(i));
            let mask = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_and_ps(v, mask));
            i += 8;
        }
        scalar::relu(&mut dst[i..]);
    }

    unsafe fn load_tail_ps(src: &[f32]) -> (__m128, __m128) {
        let mut pad = [0.0f32; 8];
        pad[..src.len()].copy_from_slice(src);
        (
            _mm_loadu_ps(pad.as_ptr()),
            _mm_loadu_ps(pad.as_ptr().add(4)),
        )
    }

    /// Fixed 4-lane horizontal fold shared by the f32 dot reduces:
    /// `s -> [s0+s2, s1+s3] -> (s0+s2)+(s1+s3)`.
    unsafe fn fold_ps(s: __m128) -> f32 {
        let t = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let r = _mm_add_ss(t, _mm_shuffle_ps(t, t, 0b01));
        _mm_cvtss_f32(r)
    }

    /// # Safety
    /// Caller must run on x86_64.
    pub unsafe fn dot_sse2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        // Two registers hold the canonical 8 vertical lanes: acc_lo is
        // lanes 0..4, acc_hi lanes 4..8.
        let mut acc_lo = _mm_setzero_ps();
        let mut acc_hi = _mm_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let a_lo = _mm_loadu_ps(a.as_ptr().add(i));
            let b_lo = _mm_loadu_ps(b.as_ptr().add(i));
            let a_hi = _mm_loadu_ps(a.as_ptr().add(i + 4));
            let b_hi = _mm_loadu_ps(b.as_ptr().add(i + 4));
            acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(a_lo, b_lo));
            acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(a_hi, b_hi));
            i += 8;
        }
        if i < n {
            let (a_lo, a_hi) = load_tail_ps(&a[i..]);
            let (b_lo, b_hi) = load_tail_ps(&b[i..]);
            acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(a_lo, b_lo));
            acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(a_hi, b_hi));
        }
        // 8 -> 4: lane j gets acc[j] + acc[j+4], then the fixed fold.
        fold_ps(_mm_add_ps(acc_lo, acc_hi))
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let av = _mm256_loadu_ps(a.as_ptr().add(i));
            let bv = _mm256_loadu_ps(b.as_ptr().add(i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
            i += 8;
        }
        if i < n {
            let mut pa = [0.0f32; 8];
            let mut pb = [0.0f32; 8];
            pa[..n - i].copy_from_slice(&a[i..]);
            pb[..n - i].copy_from_slice(&b[i..]);
            let av = _mm256_loadu_ps(pa.as_ptr());
            let bv = _mm256_loadu_ps(pb.as_ptr());
            acc = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
        }
        // 8 -> 4: low 128 lane j + high 128 lane j == acc[j] + acc[j+4].
        let s = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
        fold_ps(s)
    }

    /// # Safety
    /// Caller must run on x86_64.
    pub unsafe fn dot_f64_sse2(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        // acc01 holds canonical lanes 0..2, acc23 lanes 2..4.
        let mut acc01 = _mm_setzero_pd();
        let mut acc23 = _mm_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            let a01 = _mm_loadu_pd(a.as_ptr().add(i));
            let b01 = _mm_loadu_pd(b.as_ptr().add(i));
            let a23 = _mm_loadu_pd(a.as_ptr().add(i + 2));
            let b23 = _mm_loadu_pd(b.as_ptr().add(i + 2));
            acc01 = _mm_add_pd(acc01, _mm_mul_pd(a01, b01));
            acc23 = _mm_add_pd(acc23, _mm_mul_pd(a23, b23));
            i += 4;
        }
        if i < n {
            let mut pa = [0.0f64; 4];
            let mut pb = [0.0f64; 4];
            pa[..n - i].copy_from_slice(&a[i..]);
            pb[..n - i].copy_from_slice(&b[i..]);
            let a01 = _mm_loadu_pd(pa.as_ptr());
            let b01 = _mm_loadu_pd(pb.as_ptr());
            let a23 = _mm_loadu_pd(pa.as_ptr().add(2));
            let b23 = _mm_loadu_pd(pb.as_ptr().add(2));
            acc01 = _mm_add_pd(acc01, _mm_mul_pd(a01, b01));
            acc23 = _mm_add_pd(acc23, _mm_mul_pd(a23, b23));
        }
        // 4 -> 2 (lane j = acc[j] + acc[j+2]) -> 1.
        let s = _mm_add_pd(acc01, acc23);
        let r = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
        _mm_cvtsd_f64(r)
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_f64_avx2(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            let av = _mm256_loadu_pd(a.as_ptr().add(i));
            let bv = _mm256_loadu_pd(b.as_ptr().add(i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
            i += 4;
        }
        if i < n {
            let mut pa = [0.0f64; 4];
            let mut pb = [0.0f64; 4];
            pa[..n - i].copy_from_slice(&a[i..]);
            pb[..n - i].copy_from_slice(&b[i..]);
            let av = _mm256_loadu_pd(pa.as_ptr());
            let bv = _mm256_loadu_pd(pb.as_ptr());
            acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
        }
        // 4 -> 2: low 128 + high 128 == [acc0+acc2, acc1+acc3].
        let s = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
        let r = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
        _mm_cvtsd_f64(r)
    }

    /// # Safety
    /// Caller must have verified AVX2 support and the bounds
    /// [`crate::conv_rows`] asserts.
    #[target_feature(enable = "avx2")]
    pub unsafe fn conv_rows_avx2(
        acc: &mut [f32],
        ld: usize,
        rows: usize,
        width: usize,
        w: &[f32],
        src: &[f32],
        offs: &[usize],
    ) {
        let (acc, w, src) = (acc.as_mut_ptr(), w.as_ptr(), src.as_ptr());
        let mut r = 0;
        while r < rows {
            let n = (rows - r).min(super::CONV_ROWS_MAPS);
            let (acc, w) = (acc.add(r * ld), w.add(r));
            match n {
                4 => rows_avx2::<4>(acc, ld, rows, width, w, src, offs),
                3 => rows_avx2::<3>(acc, ld, rows, width, w, src, offs),
                2 => rows_avx2::<2>(acc, ld, rows, width, w, src, offs),
                _ => rows_avx2::<1>(acc, ld, rows, width, w, src, offs),
            }
            r += n;
        }
    }

    /// `R` rows of [`conv_rows_avx2`]: full 16-pixel blocks, then one
    /// masked tail block of 1..=16 pixels.
    ///
    /// # Safety
    /// AVX2 must be available; `acc` and `w` point at the block's first
    /// row, and the bounds [`crate::conv_rows`] asserts hold for the
    /// `R` rows from there.
    #[target_feature(enable = "avx2")]
    unsafe fn rows_avx2<const R: usize>(
        acc: *mut f32,
        ld: usize,
        rows: usize,
        width: usize,
        w: *const f32,
        src: *const f32,
        offs: &[usize],
    ) {
        let mut x = 0;
        while x + 16 <= width {
            block_avx2::<R, 2, false>(acc.add(x), ld, rows, w, src.add(x), offs, 0);
            x += 16;
        }
        let (acc, src, rem) = (acc.add(x), src.add(x), width - x);
        match rem {
            0 => {}
            1..=7 => block_avx2::<R, 1, true>(acc, ld, rows, w, src, offs, rem),
            8 => block_avx2::<R, 1, false>(acc, ld, rows, w, src, offs, 0),
            _ => block_avx2::<R, 2, true>(acc, ld, rows, w, src, offs, rem - 8),
        }
    }

    /// One register block: `R` rows x `V` vectors of 8 pixels held in
    /// `R * V` accumulators across the whole term list. With `MASKED`,
    /// the last vector covers only its first `tail` lanes.
    ///
    /// # Safety
    /// As for [`rows_avx2`], with `acc` and `src` advanced to the block's
    /// first pixel and `V * 8` (or `8 * (V - 1) + tail` when `MASKED`)
    /// pixels left in every row.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block_avx2<const R: usize, const V: usize, const MASKED: bool>(
        acc: *mut f32,
        ld: usize,
        rows: usize,
        w: *const f32,
        src: *const f32,
        offs: &[usize],
        tail: usize,
    ) {
        let mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(tail as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let mut sum = [[_mm256_setzero_ps(); V]; R];
        for (t, &off) in offs.iter().enumerate() {
            let p = src.add(off);
            let mut xs = [_mm256_setzero_ps(); V];
            for (v, x) in xs.iter_mut().enumerate() {
                *x = if MASKED && v + 1 == V {
                    _mm256_maskload_ps(p.add(8 * v), mask)
                } else {
                    _mm256_loadu_ps(p.add(8 * v))
                };
            }
            let wt = w.add(t * rows);
            for (r, s) in sum.iter_mut().enumerate() {
                let wv = _mm256_set1_ps(*wt.add(r));
                for (s, x) in s.iter_mut().zip(&xs) {
                    *s = _mm256_add_ps(*s, _mm256_mul_ps(wv, *x));
                }
            }
        }
        for (r, s) in sum.iter().enumerate() {
            for (v, s) in s.iter().enumerate() {
                let p = acc.add(r * ld + 8 * v);
                if MASKED && v + 1 == V {
                    let a = _mm256_maskload_ps(p, mask);
                    _mm256_maskstore_ps(p, mask, _mm256_add_ps(a, *s));
                } else {
                    _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), *s));
                }
            }
        }
    }

    /// # Safety
    /// Caller must run on x86_64 and uphold the bounds
    /// [`crate::conv_rows`] asserts.
    pub unsafe fn conv_rows_sse2(
        acc: &mut [f32],
        ld: usize,
        rows: usize,
        width: usize,
        w: &[f32],
        src: &[f32],
        offs: &[usize],
    ) {
        // Pixels below one 4-wide vector take the scalar arm, which
        // evaluates the same per-element graph.
        let vec_width = width & !3;
        if vec_width < width {
            scalar::conv_rows(
                &mut acc[vec_width..],
                ld,
                rows,
                width - vec_width,
                w,
                &src[vec_width..],
                offs,
            );
        }
        let (acc, w, src) = (acc.as_mut_ptr(), w.as_ptr(), src.as_ptr());
        let mut r = 0;
        while r < rows {
            let n = (rows - r).min(super::CONV_ROWS_MAPS);
            let (acc, w) = (acc.add(r * ld), w.add(r));
            match n {
                4 => rows_sse2::<4>(acc, ld, rows, vec_width, w, src, offs),
                3 => rows_sse2::<3>(acc, ld, rows, vec_width, w, src, offs),
                2 => rows_sse2::<2>(acc, ld, rows, vec_width, w, src, offs),
                _ => rows_sse2::<1>(acc, ld, rows, vec_width, w, src, offs),
            }
            r += n;
        }
    }

    /// `R` rows of [`conv_rows_sse2`] over a width that is a multiple of 4.
    ///
    /// # Safety
    /// `acc` and `w` point at the block's first row, and the bounds
    /// [`crate::conv_rows`] asserts hold for the `R` rows from there.
    unsafe fn rows_sse2<const R: usize>(
        acc: *mut f32,
        ld: usize,
        rows: usize,
        width: usize,
        w: *const f32,
        src: *const f32,
        offs: &[usize],
    ) {
        let mut x = 0;
        while x + 8 <= width {
            block_sse2::<R, 2>(acc.add(x), ld, rows, w, src.add(x), offs);
            x += 8;
        }
        if x < width {
            block_sse2::<R, 1>(acc.add(x), ld, rows, w, src.add(x), offs);
        }
    }

    /// The SSE2 register block: `R` rows x `V` vectors of 4 pixels.
    ///
    /// # Safety
    /// As for [`rows_sse2`], with `acc` and `src` advanced to the block's
    /// first pixel and `V * 4` pixels left in every row.
    #[inline]
    unsafe fn block_sse2<const R: usize, const V: usize>(
        acc: *mut f32,
        ld: usize,
        rows: usize,
        w: *const f32,
        src: *const f32,
        offs: &[usize],
    ) {
        let mut sum = [[_mm_setzero_ps(); V]; R];
        for (t, &off) in offs.iter().enumerate() {
            let p = src.add(off);
            let mut xs = [_mm_setzero_ps(); V];
            for (v, x) in xs.iter_mut().enumerate() {
                *x = _mm_loadu_ps(p.add(4 * v));
            }
            let wt = w.add(t * rows);
            for (r, s) in sum.iter_mut().enumerate() {
                let wv = _mm_set1_ps(*wt.add(r));
                for (s, x) in s.iter_mut().zip(&xs) {
                    *s = _mm_add_ps(*s, _mm_mul_ps(wv, *x));
                }
            }
        }
        for (r, s) in sum.iter().enumerate() {
            for (v, s) in s.iter().enumerate() {
                let p = acc.add(r * ld + 4 * v);
                _mm_storeu_ps(p, _mm_add_ps(_mm_loadu_ps(p), *s));
            }
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mac_dot_avx2(bursts: &[u64], factors: &[u32]) -> u64 {
        let n = bursts.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let b = _mm256_loadu_si256(bursts.as_ptr().add(i).cast());
            // Zero-extend four u32 factors into four u64 lanes.
            let f = _mm256_cvtepu32_epi64(_mm_loadu_si128(factors.as_ptr().add(i).cast()));
            // 64x32 wrapping multiply: lo32(b)*f + (hi32(b)*f << 32).
            let lo = _mm256_mul_epu32(b, f);
            let hi = _mm256_slli_epi64(_mm256_mul_epu32(_mm256_srli_epi64(b, 32), f), 32);
            acc = _mm256_add_epi64(acc, _mm256_add_epi64(lo, hi));
            i += 4;
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        let mut total = lanes[0]
            .wrapping_add(lanes[2])
            .wrapping_add(lanes[1].wrapping_add(lanes[3]));
        total = total.wrapping_add(scalar::mac_dot(&bursts[i..], &factors[i..]));
        total
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! aarch64 NEON backends (NEON is baseline on aarch64).

    use super::scalar;
    use std::arch::aarch64::*;

    /// # Safety
    /// Caller must run on aarch64.
    pub unsafe fn axpy(dst: &mut [f32], a: f32, xs: &[f32]) {
        let n = dst.len();
        let av = vdupq_n_f32(a);
        let mut i = 0;
        while i + 4 <= n {
            let d = vld1q_f32(dst.as_ptr().add(i));
            let x = vld1q_f32(xs.as_ptr().add(i));
            vst1q_f32(dst.as_mut_ptr().add(i), vaddq_f32(d, vmulq_f32(av, x)));
            i += 4;
        }
        scalar::axpy(&mut dst[i..], a, &xs[i..]);
    }

    /// # Safety
    /// Caller must run on aarch64.
    pub unsafe fn add(dst: &mut [f32], xs: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            let d = vld1q_f32(dst.as_ptr().add(i));
            let x = vld1q_f32(xs.as_ptr().add(i));
            vst1q_f32(dst.as_mut_ptr().add(i), vaddq_f32(d, x));
            i += 4;
        }
        scalar::add(&mut dst[i..], &xs[i..]);
    }

    /// # Safety
    /// Caller must run on aarch64.
    pub unsafe fn relu(dst: &mut [f32]) {
        let n = dst.len();
        let zero = vdupq_n_f32(0.0);
        let mut i = 0;
        while i + 4 <= n {
            let v = vld1q_f32(dst.as_ptr().add(i));
            // Select v where v > 0, else +0.0 (vmaxq would differ on NaN).
            let mask = vcgtq_f32(v, zero);
            vst1q_f32(dst.as_mut_ptr().add(i), vbslq_f32(mask, v, zero));
            i += 4;
        }
        scalar::relu(&mut dst[i..]);
    }

    /// # Safety
    /// Caller must run on aarch64.
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        // Canonical lanes 0..4 and 4..8 in two registers.
        let mut acc_lo = vdupq_n_f32(0.0);
        let mut acc_hi = vdupq_n_f32(0.0);
        let mut i = 0;
        while i + 8 <= n {
            let a_lo = vld1q_f32(a.as_ptr().add(i));
            let b_lo = vld1q_f32(b.as_ptr().add(i));
            let a_hi = vld1q_f32(a.as_ptr().add(i + 4));
            let b_hi = vld1q_f32(b.as_ptr().add(i + 4));
            acc_lo = vaddq_f32(acc_lo, vmulq_f32(a_lo, b_lo));
            acc_hi = vaddq_f32(acc_hi, vmulq_f32(a_hi, b_hi));
            i += 8;
        }
        if i < n {
            let mut pa = [0.0f32; 8];
            let mut pb = [0.0f32; 8];
            pa[..n - i].copy_from_slice(&a[i..]);
            pb[..n - i].copy_from_slice(&b[i..]);
            acc_lo = vaddq_f32(
                acc_lo,
                vmulq_f32(vld1q_f32(pa.as_ptr()), vld1q_f32(pb.as_ptr())),
            );
            acc_hi = vaddq_f32(
                acc_hi,
                vmulq_f32(vld1q_f32(pa.as_ptr().add(4)), vld1q_f32(pb.as_ptr().add(4))),
            );
        }
        // 8 -> 4 -> 2 -> 1 in the canonical order.
        let s = vaddq_f32(acc_lo, acc_hi);
        let t = vadd_f32(vget_low_f32(s), vget_high_f32(s));
        vget_lane_f32::<0>(t) + vget_lane_f32::<1>(t)
    }

    /// # Safety
    /// Caller must run on aarch64.
    pub unsafe fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let mut acc01 = vdupq_n_f64(0.0);
        let mut acc23 = vdupq_n_f64(0.0);
        let mut i = 0;
        while i + 4 <= n {
            let a01 = vld1q_f64(a.as_ptr().add(i));
            let b01 = vld1q_f64(b.as_ptr().add(i));
            let a23 = vld1q_f64(a.as_ptr().add(i + 2));
            let b23 = vld1q_f64(b.as_ptr().add(i + 2));
            acc01 = vaddq_f64(acc01, vmulq_f64(a01, b01));
            acc23 = vaddq_f64(acc23, vmulq_f64(a23, b23));
            i += 4;
        }
        if i < n {
            let mut pa = [0.0f64; 4];
            let mut pb = [0.0f64; 4];
            pa[..n - i].copy_from_slice(&a[i..]);
            pb[..n - i].copy_from_slice(&b[i..]);
            acc01 = vaddq_f64(
                acc01,
                vmulq_f64(vld1q_f64(pa.as_ptr()), vld1q_f64(pb.as_ptr())),
            );
            acc23 = vaddq_f64(
                acc23,
                vmulq_f64(vld1q_f64(pa.as_ptr().add(2)), vld1q_f64(pb.as_ptr().add(2))),
            );
        }
        let s = vaddq_f64(acc01, acc23);
        vgetq_lane_f64::<0>(s) + vgetq_lane_f64::<1>(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64* clone (the model crate's PRNG is not a dependency here).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn f32(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0
        }
        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
    }

    fn vec_f32(n: usize, seed: u64) -> Vec<f32> {
        let mut r = Rng(seed | 1);
        (0..n).map(|_| r.f32()).collect()
    }

    #[test]
    fn active_backend_is_forceable() {
        set_force_scalar(Some(true));
        assert_eq!(Backend::active(), Backend::Scalar);
        assert!(scalar_forced());
        set_force_scalar(None);
        #[cfg(target_arch = "x86_64")]
        {
            set_force_scalar(Some(false));
            assert_ne!(Backend::active(), Backend::Scalar);
            set_force_scalar(None);
        }
    }

    #[test]
    fn dot_matches_plain_sum_on_integers() {
        // Integer values: any summation order is exact, so the canonical
        // graph must equal the naive left-to-right sum.
        let a: Vec<f32> = (0..37).map(|i| (i % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..37).map(|i| (i % 5) as f32 - 2.0).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot(&a, &b), naive);
        assert_eq!(scalar::dot(&a, &b), naive);
    }

    #[test]
    fn axpy_and_add_match_scalar_bitwise() {
        for n in 0..=2 * F32_LANES + 1 {
            let xs = vec_f32(n, 11 + n as u64);
            let base = vec_f32(n, 101 + n as u64);
            let mut simd_dst = base.clone();
            let mut scalar_dst = base.clone();
            axpy(&mut simd_dst, 0.37, &xs);
            scalar::axpy(&mut scalar_dst, 0.37, &xs);
            for (a, b) in simd_dst.iter().zip(&scalar_dst) {
                assert_eq!(a.to_bits(), b.to_bits(), "axpy n={n}");
            }
            let mut simd_dst = base.clone();
            let mut scalar_dst = base;
            add_assign(&mut simd_dst, &xs);
            scalar::add(&mut scalar_dst, &xs);
            for (a, b) in simd_dst.iter().zip(&scalar_dst) {
                assert_eq!(a.to_bits(), b.to_bits(), "add n={n}");
            }
        }
    }

    #[test]
    fn dot_matches_scalar_bitwise_across_remainders() {
        for n in 0..=3 * F32_LANES + 1 {
            let a = vec_f32(n, 7 + n as u64);
            let b = vec_f32(n, 77 + n as u64);
            assert_eq!(
                dot(&a, &b).to_bits(),
                scalar::dot(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn dot_f64_matches_scalar_bitwise_across_remainders() {
        for n in 0..=3 * F64_LANES + 1 {
            let mut r = Rng(n as u64 + 5);
            let a: Vec<f64> = (0..n).map(|_| r.f64()).collect();
            let b: Vec<f64> = (0..n).map(|_| r.f64()).collect();
            assert_eq!(
                dot_f64(&a, &b).to_bits(),
                scalar::dot_f64(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn relu_select_semantics() {
        let mut v = vec![-1.0f32, -0.0, 0.0, 2.5, f32::NAN];
        relu(&mut v);
        assert_eq!(v[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(v[1].to_bits(), 0.0f32.to_bits(), "-0.0 becomes +0.0");
        assert_eq!(v[2].to_bits(), 0.0f32.to_bits());
        assert_eq!(v[3], 2.5);
        assert_eq!(v[4].to_bits(), 0.0f32.to_bits(), "NaN becomes 0.0");
        let mut s = vec![-1.0f32, -0.0, 0.0, 2.5, f32::NAN];
        scalar::relu(&mut s);
        for (a, b) in v.iter().zip(&s) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mac_dot_matches_scalar() {
        for n in 0..=11 {
            let mut r = Rng(n as u64 + 13);
            let bursts: Vec<u64> = (0..n).map(|_| r.next() % (1 << 40)).collect();
            let factors: Vec<u32> = (0..n).map(|_| (r.next() % 1024) as u32).collect();
            assert_eq!(
                mac_dot(&bursts, &factors),
                scalar::mac_dot(&bursts, &factors)
            );
        }
        // Wrapping parity at the 64-bit edge.
        let big = [u64::MAX, u64::MAX / 3, 1 << 63];
        let f = [7u32, 9, 2];
        assert_eq!(mac_dot(&big, &f), scalar::mac_dot(&big, &f));
    }

    /// The SSE2 arm of `conv_rows` against the scalar one, called directly
    /// because dispatch never picks it on an AVX2 host (the dispatched arm
    /// is `tests/prop_simd.rs`'s job): rows on both sides of the 4-map
    /// block, every pixel tail, `ld > width`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn conv_rows_sse2_matches_scalar_bitwise() {
        for rows in 1..=9 {
            for width in 0..=33 {
                for terms in [0, 1, 5] {
                    let ld = width + 3;
                    let seed = (rows * 64 + width) as u64 * 8 + terms as u64;
                    let src = vec_f32(width + 2 * terms + 7, seed);
                    let offs: Vec<usize> = (0..terms).map(|t| (t * 5 + 1) % 8).collect();
                    let w = vec_f32(terms * rows, seed ^ 0x77);
                    let base = vec_f32((rows - 1) * ld + width, seed ^ 0x99);
                    let mut want = base.clone();
                    scalar::conv_rows(&mut want, ld, rows, width, &w, &src, &offs);
                    let mut got = base;
                    // SAFETY: SSE2 is baseline on x86_64, and the buffers
                    // satisfy `conv_rows`'s bounds by construction (`src`
                    // covers every offset + width).
                    unsafe { x86::conv_rows_sse2(&mut got, ld, rows, width, &w, &src, &offs) };
                    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "rows={rows} width={width} terms={terms} at {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "conv_rows source too short")]
    fn conv_rows_rejects_short_source() {
        let mut acc = [0.0f32; 4];
        conv_rows(&mut acc, 4, 1, 4, &[1.0], &[0.0; 5], &[2]);
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn backend_names() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Sse2.name(), "sse2");
        assert_eq!(Backend::Neon.name(), "neon");
        assert!(!Backend::active().name().is_empty());
    }
}
