//! Runtime-dispatched SIMD microkernels behind the GEMM and KV-read paths.
//!
//! The scalar `MR = 8` microkernel in [`crate::gemm`] keeps eight independent
//! accumulators — one per packed A row — and walks the transposed panel one
//! `k` index at a time. That shape is already a vector computation: the eight
//! accumulators are one `f32x8` register, the packed panel chunk at index `l`
//! is one aligned-width load, and the `B` weight is a broadcast. The AVX2
//! kernel here exploits exactly that layout, and the AVX-512F kernel runs the
//! same loop over a `MR_WIDE = 16`-row panel in one `f32x16` register. Both
//! keep two invariants that make them **bit-identical** to the scalar
//! reference:
//!
//! * **Lanes are rows, not `k`.** Each SIMD lane accumulates one output
//!   element sequentially over ascending `l`, so the ascending-`k`
//!   accumulation contract (see [`crate::gemm`]) is preserved per element —
//!   vectorisation reorders *which elements* advance together, never the adds
//!   within one element. Lanes past the block's `mr` rows are never stored.
//! * **Separate multiply and add, never FMA.** Rust scalar `acc += x * w`
//!   rounds the product before the add (no floating-point contraction), so the
//!   SIMD kernels use `_mm256_mul_ps` + `_mm256_add_ps` (`_mm512_*` for the
//!   wide panel); a fused multiply-add would skip the intermediate rounding
//!   and drift off the scalar path by an ULP at a time.
//!
//! Dispatch is three-tiered: a process-wide default from `LAD_GEMM_KERNEL`
//! (`scalar` forces the reference path, `simd`/`auto` use the widest
//! bit-exact kernel the CPU has), a thread-local scoped override
//! ([`with_kernel`]) for tests and benches, and runtime CPUID checks, cached
//! once per process: [`simd_supported`] (AVX2 + F16C, else scalar) and
//! [`avx512_supported`] (AVX-512F, which adds the 16-row panel). The f16 dot
//! kernel ([`dot_f16`]) reorders its accumulation for throughput and is
//! therefore *bounded-error*, not bit-exact — its reference semantics are
//! [`dot_f16_scalar`].

use std::cell::Cell;
use std::sync::OnceLock;

use crate::f16::F16;
use crate::gemm::{MR, MR_WIDE};

/// Column-block width of the SIMD microkernel: four `B` rows share each packed
/// panel load, quartering panel traffic without touching per-element
/// accumulation order.
pub const NR: usize = 4;

/// Which GEMM/KV-read microkernel family to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The portable reference microkernel — always available, and the
    /// bit-exactness oracle for the SIMD f32 path.
    Scalar,
    /// The widest bit-exact SIMD kernel this CPU has: the AVX2 `f32x8`
    /// microkernel (plus F16C for fp16 KV reads), and on AVX-512F hosts the
    /// `f32x16` one for GEMM blocks of more than `MR` rows. Requests degrade
    /// to [`Kernel::Scalar`] when the CPU lacks AVX2 + F16C.
    Simd,
}

impl Kernel {
    /// Whether this kernel can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            Kernel::Scalar => true,
            Kernel::Simd => simd_supported(),
        }
    }

    /// Static name used for spans and reports.
    pub const fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Simd => "simd",
        }
    }
}

/// Runtime CPU check for the SIMD path (AVX2 + F16C on x86-64), cached after
/// the first query.
#[cfg(target_arch = "x86_64")]
pub fn simd_supported() -> bool {
    static SUPPORTED: OnceLock<bool> = OnceLock::new();
    *SUPPORTED.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c"))
}

/// Runtime CPU check for the SIMD path — always `false` off x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub fn simd_supported() -> bool {
    false
}

/// Runtime CPU check for the 16-row GEMM panel (AVX-512F on top of the
/// [`simd_supported`] set), cached after the first query.
#[cfg(target_arch = "x86_64")]
pub fn avx512_supported() -> bool {
    static SUPPORTED: OnceLock<bool> = OnceLock::new();
    *SUPPORTED.get_or_init(|| simd_supported() && is_x86_feature_detected!("avx512f"))
}

/// Runtime CPU check for the 16-row GEMM panel — always `false` off x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub fn avx512_supported() -> bool {
    false
}

/// The f32 GEMM panels the next call on this thread runs, for bench headers
/// and CI logs: a host without AVX-512F says here that the 16-row path went
/// unexercised.
pub fn gemm_panels() -> &'static str {
    match active_kernel() {
        Kernel::Simd if avx512_supported() => "16-row avx512 + 8-row avx2",
        Kernel::Simd => "8-row avx2",
        Kernel::Scalar => "8-row scalar",
    }
}

/// Process-wide default kernel, read once from `LAD_GEMM_KERNEL`
/// (`scalar` | `simd` | `auto`; unset or unrecognised means `auto`).
fn env_default() -> Kernel {
    static DEFAULT: OnceLock<Kernel> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("LAD_GEMM_KERNEL").as_deref() {
        Ok("scalar") => Kernel::Scalar,
        _ => Kernel::Simd,
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<Kernel>> = const { Cell::new(None) };
}

/// Runs `f` with `kernel` forced for every GEMM/KV-read issued *on this
/// thread*, restoring the previous selection afterwards (panic-safe).
///
/// The batch engine issues all its GEMMs on the stepping thread (pool workers
/// only fan out per-head attention dots), so scoping the override to the
/// calling thread is enough to pin a whole decode to one kernel. Forcing
/// [`Kernel::Simd`] on a CPU without AVX2 silently degrades to scalar.
pub fn with_kernel<R>(kernel: Kernel, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Kernel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(kernel))));
    f()
}

/// The kernel the next GEMM/KV-read on this thread will actually run:
/// thread-local override, else the `LAD_GEMM_KERNEL` default, degraded to
/// [`Kernel::Scalar`] when the requested path is unavailable on this CPU.
pub fn active_kernel() -> Kernel {
    let requested = OVERRIDE.with(|o| o.get()).unwrap_or_else(env_default);
    if requested.available() {
        requested
    } else {
        Kernel::Scalar
    }
}

// ---------------------------------------------------------------------------
// f32 GEMM block microkernel
// ---------------------------------------------------------------------------

/// Computes all `n` output columns for one packed `MR`-row block with the
/// AVX2 microkernel. `panel` is the `MR`-interleaved transposed A block
/// (`MR * k` long), `b_t` the full `n × k` weight matrix, and results land at
/// `c[(i0 + ii) * n + j]` for `ii < mr`.
///
/// Falls back to the scalar block when SIMD is unsupported (callers dispatch
/// via [`active_kernel`], so this is a safety net, not a hot branch).
pub(crate) fn gemm_block_f32_simd(
    i0: usize,
    mr: usize,
    n: usize,
    k: usize,
    panel: &[f32],
    b_t: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(panel.len(), MR * k);
    #[cfg(target_arch = "x86_64")]
    if simd_supported() {
        // SAFETY: AVX2 presence just checked; slice lengths are asserted by
        // the caller (`gemm_bt_into`) and re-checked by debug_assert above.
        unsafe { gemm_block_f32_avx2(i0, mr, n, k, panel, b_t, c) };
        return;
    }
    gemm_block_f32_scalar::<MR>(i0, mr, n, k, panel, b_t, c);
}

/// [`gemm_block_f32_simd`] for one packed `MR_WIDE`-row block (`panel` is
/// `MR_WIDE * k` long), on the AVX-512F `f32x16` microkernel. Falls back to
/// the scalar block when AVX-512F is unsupported (callers check
/// [`avx512_supported`], so this is a safety net, not a hot branch).
pub(crate) fn gemm_block_f32_avx512(
    i0: usize,
    mr: usize,
    n: usize,
    k: usize,
    panel: &[f32],
    b_t: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(panel.len(), MR_WIDE * k);
    #[cfg(target_arch = "x86_64")]
    if avx512_supported() {
        // SAFETY: AVX-512F presence just checked; slice lengths are asserted
        // by the caller (`gemm_bt_into`) and re-checked by debug_assert above.
        unsafe { gemm_block_f32_avx512f(i0, mr, n, k, panel, b_t, c) };
        return;
    }
    gemm_block_f32_scalar::<MR_WIDE>(i0, mr, n, k, panel, b_t, c);
}

/// The scalar reference block over a `W`-row panel — the exact loop the
/// pre-SIMD kernel ran.
pub(crate) fn gemm_block_f32_scalar<const W: usize>(
    i0: usize,
    mr: usize,
    n: usize,
    k: usize,
    panel: &[f32],
    b_t: &[f32],
    c: &mut [f32],
) {
    for (j, b_row) in b_t.chunks_exact(k).enumerate().take(n) {
        // W dot products in lockstep: acc[ii] accumulates c[i0+ii][j]
        // sequentially over ascending l — the bit-exactness contract.
        let mut acc = [0.0f32; W];
        for (chunk, &w) in panel.chunks_exact(W).zip(b_row) {
            for (slot, &x) in acc.iter_mut().zip(chunk) {
                *slot += x * w;
            }
        }
        for (ii, &v) in acc[..mr].iter().enumerate() {
            c[(i0 + ii) * n + j] = v;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_block_f32_avx2(
    i0: usize,
    mr: usize,
    n: usize,
    k: usize,
    panel: &[f32],
    b_t: &[f32],
    c: &mut [f32],
) {
    use std::arch::x86_64::*;

    let p = panel.as_ptr();
    let b = b_t.as_ptr();
    let mut j = 0;
    // NR = 4 column block: four B rows stream against one panel walk, so each
    // packed load is reused four times. Per lane (= per output element) the
    // operation sequence is still mul-then-add over ascending l.
    while j + NR <= n {
        let b0 = b.add(j * k);
        let b1 = b.add((j + 1) * k);
        let b2 = b.add((j + 2) * k);
        let b3 = b.add((j + 3) * k);
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        for l in 0..k {
            let a = _mm256_loadu_ps(p.add(l * MR));
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(a, _mm256_set1_ps(*b0.add(l))));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(a, _mm256_set1_ps(*b1.add(l))));
            acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(a, _mm256_set1_ps(*b2.add(l))));
            acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(a, _mm256_set1_ps(*b3.add(l))));
        }
        store_block(acc0, i0, mr, n, j, c);
        store_block(acc1, i0, mr, n, j + 1, c);
        store_block(acc2, i0, mr, n, j + 2, c);
        store_block(acc3, i0, mr, n, j + 3, c);
        j += NR;
    }
    while j < n {
        let b0 = b.add(j * k);
        let mut acc = _mm256_setzero_ps();
        for l in 0..k {
            let a = _mm256_loadu_ps(p.add(l * MR));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(a, _mm256_set1_ps(*b0.add(l))));
        }
        store_block(acc, i0, mr, n, j, c);
        j += 1;
    }
}

/// Scatters one `f32x8` accumulator (lane `ii` = row `i0 + ii`) into column
/// `j` of `c`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn store_block(
    acc: std::arch::x86_64::__m256,
    i0: usize,
    mr: usize,
    n: usize,
    j: usize,
    c: &mut [f32],
) {
    let mut buf = [0.0f32; MR];
    std::arch::x86_64::_mm256_storeu_ps(buf.as_mut_ptr(), acc);
    scatter_column(&buf[..mr], i0, n, j, c);
}

/// The AVX2 kernel's loop over an `MR_WIDE`-row panel: one `f32x16` register
/// per column, lane = row, mul-then-add over ascending `l`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_block_f32_avx512f(
    i0: usize,
    mr: usize,
    n: usize,
    k: usize,
    panel: &[f32],
    b_t: &[f32],
    c: &mut [f32],
) {
    use std::arch::x86_64::*;

    let p = panel.as_ptr();
    let b = b_t.as_ptr();
    let mut j = 0;
    while j + NR <= n {
        let b0 = b.add(j * k);
        let b1 = b.add((j + 1) * k);
        let b2 = b.add((j + 2) * k);
        let b3 = b.add((j + 3) * k);
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        let mut acc2 = _mm512_setzero_ps();
        let mut acc3 = _mm512_setzero_ps();
        for l in 0..k {
            let a = _mm512_loadu_ps(p.add(l * MR_WIDE));
            acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(a, _mm512_set1_ps(*b0.add(l))));
            acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(a, _mm512_set1_ps(*b1.add(l))));
            acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(a, _mm512_set1_ps(*b2.add(l))));
            acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(a, _mm512_set1_ps(*b3.add(l))));
        }
        store_block_wide(acc0, i0, mr, n, j, c);
        store_block_wide(acc1, i0, mr, n, j + 1, c);
        store_block_wide(acc2, i0, mr, n, j + 2, c);
        store_block_wide(acc3, i0, mr, n, j + 3, c);
        j += NR;
    }
    while j < n {
        let b0 = b.add(j * k);
        let mut acc = _mm512_setzero_ps();
        for l in 0..k {
            let a = _mm512_loadu_ps(p.add(l * MR_WIDE));
            acc = _mm512_add_ps(acc, _mm512_mul_ps(a, _mm512_set1_ps(*b0.add(l))));
        }
        store_block_wide(acc, i0, mr, n, j, c);
        j += 1;
    }
}

/// Scatters one `f32x16` accumulator (lane `ii` = row `i0 + ii`) into
/// column `j` of `c`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn store_block_wide(
    acc: std::arch::x86_64::__m512,
    i0: usize,
    mr: usize,
    n: usize,
    j: usize,
    c: &mut [f32],
) {
    let mut buf = [0.0f32; MR_WIDE];
    std::arch::x86_64::_mm512_storeu_ps(buf.as_mut_ptr(), acc);
    scatter_column(&buf[..mr], i0, n, j, c);
}

/// Writes `lanes[ii]` to `c[(i0 + ii) * n + j]`: only the block's real rows,
/// so stale lanes past `mr` never reach `c`.
#[cfg(target_arch = "x86_64")]
fn scatter_column(lanes: &[f32], i0: usize, n: usize, j: usize, c: &mut [f32]) {
    for (ii, &v) in lanes.iter().enumerate() {
        c[(i0 + ii) * n + j] = v;
    }
}

// ---------------------------------------------------------------------------
// f16 KV dot kernels
// ---------------------------------------------------------------------------

/// Dot product of an `f32` query against an fp16-encoded key, dispatched
/// through [`active_kernel`].
///
/// The SIMD path converts eight halves at a time with F16C and keeps four
/// independent accumulators, so it **reorders the summation** relative to
/// [`dot_f16_scalar`] — this kernel is *bounded-error* (see the error-bound
/// tests), not bit-exact. The scalar path is the reference semantics.
///
/// # Panics
///
/// Panics if `q.len() != bits.len()`.
pub fn dot_f16(q: &[f32], bits: &[u16]) -> f32 {
    assert_eq!(q.len(), bits.len(), "dot_f16: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active_kernel() == Kernel::Simd {
        // SAFETY: Kernel::Simd is only active when AVX2+F16C are present.
        return unsafe { dot_f16_avx2(q, bits) };
    }
    dot_f16_scalar(q, bits)
}

/// Reference fp16 dot: decode each half exactly to `f32`, then multiply-add
/// sequentially in ascending index order — the same shape as
/// [`crate::vector::dot`] over a decoded key.
///
/// # Panics
///
/// Panics if `q.len() != bits.len()`.
pub fn dot_f16_scalar(q: &[f32], bits: &[u16]) -> f32 {
    assert_eq!(q.len(), bits.len(), "dot_f16: length mismatch");
    let mut acc = 0.0f32;
    for (&x, &b) in q.iter().zip(bits) {
        acc += x * F16::from_bits(b).to_f32();
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
unsafe fn dot_f16_avx2(q: &[f32], bits: &[u16]) -> f32 {
    use std::arch::x86_64::*;

    let n = q.len();
    let qp = q.as_ptr();
    let bp = bits.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    let mut i = 0;
    while i + 32 <= n {
        let h0 = _mm256_cvtph_ps(_mm_loadu_si128(bp.add(i).cast()));
        let h1 = _mm256_cvtph_ps(_mm_loadu_si128(bp.add(i + 8).cast()));
        let h2 = _mm256_cvtph_ps(_mm_loadu_si128(bp.add(i + 16).cast()));
        let h3 = _mm256_cvtph_ps(_mm_loadu_si128(bp.add(i + 24).cast()));
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(h0, _mm256_loadu_ps(qp.add(i))));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(h1, _mm256_loadu_ps(qp.add(i + 8))));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(h2, _mm256_loadu_ps(qp.add(i + 16))));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(h3, _mm256_loadu_ps(qp.add(i + 24))));
        i += 32;
    }
    let mut acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
    while i + 8 <= n {
        let h = _mm256_cvtph_ps(_mm_loadu_si128(bp.add(i).cast()));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(h, _mm256_loadu_ps(qp.add(i))));
        i += 8;
    }
    let mut buf = [0.0f32; 8];
    _mm256_storeu_ps(buf.as_mut_ptr(), acc);
    let mut sum = buf.iter().sum::<f32>();
    while i < n {
        sum += *qp.add(i) * F16::from_bits(*bp.add(i)).to_f32();
        i += 1;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn kernel_names_and_availability() {
        assert!(Kernel::Scalar.available());
        assert_eq!(Kernel::Scalar.name(), "scalar");
        assert_eq!(Kernel::Simd.name(), "simd");
        // active_kernel never returns an unavailable kernel.
        assert!(active_kernel().available());
    }

    #[test]
    fn with_kernel_scopes_and_restores() {
        let outer = active_kernel();
        with_kernel(Kernel::Scalar, || {
            assert_eq!(active_kernel(), Kernel::Scalar);
            with_kernel(Kernel::Simd, || {
                // Degrades to scalar off-x86; either way it is available.
                assert!(active_kernel().available());
            });
            assert_eq!(active_kernel(), Kernel::Scalar);
        });
        assert_eq!(active_kernel(), outer);
    }

    #[test]
    fn with_kernel_restores_on_panic() {
        let outer = active_kernel();
        let caught = std::panic::catch_unwind(|| {
            with_kernel(Kernel::Scalar, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(active_kernel(), outer);
    }

    #[test]
    fn f16_dot_simd_is_close_to_scalar() {
        let mut rng = Rng::new(41);
        for n in [0usize, 1, 7, 8, 31, 32, 33, 64, 257] {
            let q = rng.normal_vec(n, 1.0);
            let key = rng.normal_vec(n, 1.0);
            let bits: Vec<u16> = key.iter().map(|&v| F16::from_f32(v).to_bits()).collect();
            let reference = dot_f16_scalar(&q, &bits);
            let simd = with_kernel(Kernel::Simd, || dot_f16(&q, &bits));
            let scalar = with_kernel(Kernel::Scalar, || dot_f16(&q, &bits));
            assert_eq!(scalar, reference, "scalar dispatch must be the reference");
            // Reordered f32 summation over n terms: bound the drift by a
            // generous multiple of n * eps * sum(|terms|).
            let magnitude: f32 = q
                .iter()
                .zip(&bits)
                .map(|(&x, &b)| (x * F16::from_bits(b).to_f32()).abs())
                .sum();
            let bound = f32::EPSILON * (n as f32 + 1.0) * (magnitude + 1.0);
            assert!(
                (simd - reference).abs() <= bound,
                "n={n} simd={simd} ref={reference} bound={bound}"
            );
        }
    }

    #[test]
    fn f16_dot_decodes_exact_values() {
        // Powers of two and small integers are exact in fp16, and summation
        // of exact small integers is exact in f32 in any order: both kernels
        // must agree exactly here.
        let q: Vec<f32> = (0..100).map(|i| (i % 7) as f32).collect();
        let bits: Vec<u16> = (0..100)
            .map(|i| F16::from_f32((i % 5) as f32).to_bits())
            .collect();
        let reference = dot_f16_scalar(&q, &bits);
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            let got = with_kernel(kernel, || dot_f16(&q, &bits));
            assert_eq!(got, reference, "{}", kernel.name());
        }
    }
}
