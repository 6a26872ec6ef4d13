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
//! Both GEMM kernels also prefetch the next column block's weight rows, one
//! 64-byte line per row every 16 `l` steps, so a matrix streamed from L3 or
//! DRAM arrives while the current block computes. A prefetch is a hint: it
//! changes no result and its addresses stay inside `b_t`.
//!
//! The exact f32 KV read runs two more kernels on the same two rules, with
//! other things in the lanes:
//!
//! * **Lanes are keys** ([`dot_rows_f32`]). An in-register 8×8 transpose
//!   puts element `e` of eight keys in one `f32x8`, so each lane computes
//!   one key's whole `q · k` in ascending `e`, starting from `-0.0` as
//!   `Iterator::<f32>::sum` (and so [`crate::vector::dot`]) does. The dot is
//!   never split across lanes.
//! * **Lanes are value columns** ([`weighted_rows_f64`]). 32 output columns
//!   stay in `f64` registers across every position, and each column adds
//!   `w · v` in ascending position order, as the position-major scalar loop
//!   does.
//!
//! Their gathered forms ([`dot_gather_f32`], [`weighted_gather_f64`]) run the
//! same lanes over a *listed* subset of rows — the sparse reads of the LAD
//! decoder. Only where each lane's row starts changes: eight listed keys are
//! transposed in-register, and each value column adds its products in listed
//! order.
//!
//! The two-query forms ([`dot_rows2_f32`], [`dot_gather2_f32`]) score the same
//! keys against two queries from one transposed tile: one register of
//! accumulators per query, each lane still one key in ascending element
//! order, so every dot equals the single-query kernel's. LAD uses them to
//! read each key once for its attention scores and for Alg. 1's
//! new-key-against-center dot products.
//!
//! Dispatch is three-tiered: a process-wide default from `LAD_GEMM_KERNEL`
//! (`scalar` forces the reference path, `simd`/`auto` use the widest
//! bit-exact kernel the CPU has), a thread-local scoped override
//! ([`with_kernel`]) for tests and benches, and runtime CPUID checks, cached
//! once per process: [`simd_supported`] (AVX2, else scalar) and
//! [`avx512_supported`] (AVX-512F, which adds the 16-row panel). Every kernel
//! here is bit-identical to its scalar twin, so the choice never moves an
//! output.

use std::cell::Cell;
use std::sync::OnceLock;

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
    /// microkernel and KV reads, and on AVX-512F hosts the `f32x16` one for
    /// GEMM blocks of more than `MR` rows. Requests degrade to
    /// [`Kernel::Scalar`] when the CPU lacks AVX2.
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

/// Runtime CPU check for the SIMD path (AVX2 on x86-64), cached after
/// the first query.
#[cfg(target_arch = "x86_64")]
pub fn simd_supported() -> bool {
    static SUPPORTED: OnceLock<bool> = OnceLock::new();
    *SUPPORTED.get_or_init(|| is_x86_feature_detected!("avx2"))
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
/// The batch engine issues all its GEMMs on the stepping thread, and each
/// thread it fans attention out to runs under the kernel the stepping thread
/// had active, so the fanned-out attention follows the override too: one
/// call pins a whole decode to one kernel. Forcing [`Kernel::Simd`]
/// on a CPU without AVX2 silently degrades to scalar.
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
    // operation sequence is still mul-then-add over ascending l. Every
    // PREFETCH_STRIDE steps the next block's four rows are prefetched one
    // line each, so their stream from L3/DRAM overlaps this block's compute.
    while j + NR <= n {
        let b0 = b.add(j * k);
        let b1 = b.add((j + 1) * k);
        let b2 = b.add((j + 2) * k);
        let b3 = b.add((j + 3) * k);
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let next = next_block(b, j, n, k);
        for l0 in (0..k).step_by(PREFETCH_STRIDE) {
            prefetch_lines(next, l0);
            for l in l0..k.min(l0 + PREFETCH_STRIDE) {
                let a = _mm256_loadu_ps(p.add(l * MR));
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(a, _mm256_set1_ps(*b0.add(l))));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(a, _mm256_set1_ps(*b1.add(l))));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(a, _mm256_set1_ps(*b2.add(l))));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(a, _mm256_set1_ps(*b3.add(l))));
            }
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
        let next = next_block(b, j, n, k);
        for l0 in (0..k).step_by(PREFETCH_STRIDE) {
            prefetch_lines(next, l0);
            for l in l0..k.min(l0 + PREFETCH_STRIDE) {
                let a = _mm512_loadu_ps(p.add(l * MR_WIDE));
                acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(a, _mm512_set1_ps(*b0.add(l))));
                acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(a, _mm512_set1_ps(*b1.add(l))));
                acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(a, _mm512_set1_ps(*b2.add(l))));
                acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(a, _mm512_set1_ps(*b3.add(l))));
            }
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

/// `l` steps between two prefetches of the next column block's weight rows:
/// 16 f32s are one 64-byte line, so the kernels request one line of each
/// next-block row per line of each current-block row they consume. The
/// distance (the very next `NR` block, about `NR · k · 4` bytes ahead) and
/// the `_MM_HINT_T1` hint (into L2, not L1) were chosen by measurement. At
/// the served shapes (weights streamed from L3/DRAM, 2 KB rows at k = 512)
/// two blocks ahead and `_MM_HINT_T0` were no faster. `_MM_HINT_T0` also
/// raised the in-L2 `gemm_f32_rows16` ratio (a 16-row panel at k = 512 is
/// 32 KB of a 48 KB L1, which lines pulled into L1 a block early evict),
/// and `_MM_HINT_T1` left it where it was without the prefetch.
#[cfg(target_arch = "x86_64")]
const PREFETCH_STRIDE: usize = 16;

/// Row starts of the `NR`-row column block after the one at column `j`,
/// each clamped to the last row of the `n × k` matrix at `b`, so the
/// addresses stay inside it: the last full block prefetches the tail rows,
/// or its own last row again when there is no tail.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn next_block(b: *const f32, j: usize, n: usize, k: usize) -> [*const f32; NR] {
    std::array::from_fn(|r| b.add((j + NR + r).min(n - 1) * k))
}

/// Prefetches the line holding element `l` of each row in `rows` into L2.
/// A prefetch is a hint: it never faults and changes no result.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn prefetch_lines(rows: [*const f32; NR], l: usize) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};
    for row in rows {
        _mm_prefetch::<_MM_HINT_T1>(row.add(l).cast());
    }
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
// f32 KV read kernels: scores and the weighted value sum
// ---------------------------------------------------------------------------

/// Scores every key against one query: `out[i] = qs · keys[i·d..(i+1)·d]`
/// widened exactly to `f64`, with `d = qs.len()` and `n = out.len()` keys.
/// Dispatched through [`active_kernel`].
///
/// Bit-identical to [`dot_rows_f32_scalar`] (one [`crate::vector::dot`] per
/// key). The AVX2 kernel's lanes are **keys**: an in-register 8×8 transpose
/// puts element `e` of eight keys in one `f32x8`, and each lane accumulates
/// its own key in ascending `e` with mul-then-add from `-0.0`, the start
/// value of `Iterator::<f32>::sum`. A `d % 8` tail finishes per lane in
/// scalar order, and the last `n % 8` keys run [`crate::vector::dot`].
///
/// # Panics
///
/// Panics if `keys.len() != out.len() * qs.len()`.
pub fn dot_rows_f32(qs: &[f32], keys: &[f32], out: &mut [f64]) {
    assert_eq!(
        keys.len(),
        out.len() * qs.len(),
        "dot_rows_f32: keys must hold out.len() rows of qs.len()"
    );
    #[cfg(target_arch = "x86_64")]
    if active_kernel() == Kernel::Simd {
        // SAFETY: Kernel::Simd is only active when AVX2 is present; the
        // lengths were asserted above.
        unsafe { dot_rows_f32_avx2(qs, keys, out) };
        return;
    }
    dot_rows_f32_scalar(qs, keys, out);
}

/// Reference key scoring: one sequential [`crate::vector::dot`] per key.
///
/// # Panics
///
/// Panics if `keys.len() != out.len() * qs.len()`.
pub fn dot_rows_f32_scalar(qs: &[f32], keys: &[f32], out: &mut [f64]) {
    assert_eq!(
        keys.len(),
        out.len() * qs.len(),
        "dot_rows_f32: keys must hold out.len() rows of qs.len()"
    );
    for (i, slot) in out.iter_mut().enumerate() {
        let key = &keys[i * qs.len()..(i + 1) * qs.len()];
        *slot = f64::from(crate::vector::dot(qs, key));
    }
}

/// Scores a listed subset of keys against one query:
/// `out[k] = qs · keys[idx[k]·d..(idx[k] + 1)·d]` widened exactly to `f64`,
/// with `d = qs.len()`. `idx` may be in any order and repeat. Dispatched
/// through [`active_kernel`].
///
/// Bit-identical to [`dot_gather_f32_scalar`] (one [`crate::vector::dot`] per
/// listed key): the AVX2 kernel is [`dot_rows_f32`]'s, with the eight lanes
/// fed from eight listed rows instead of eight consecutive ones.
///
/// # Panics
///
/// Panics if `qs` is empty, `out.len() != idx.len()`, or any listed index
/// is `>= keys.len() / qs.len()`.
pub fn dot_gather_f32(qs: &[f32], keys: &[f32], idx: &[usize], out: &mut [f64]) {
    assert_gather("dot_gather_f32", qs.len(), keys.len(), idx, out.len());
    #[cfg(target_arch = "x86_64")]
    if active_kernel() == Kernel::Simd {
        // SAFETY: Kernel::Simd is only active when AVX2 is present; every
        // listed row lies inside `keys` and `out` has one slot per index, as
        // asserted above.
        unsafe { dot_gather_f32_avx2(qs, keys, idx, out) };
        return;
    }
    dot_gather_f32_scalar(qs, keys, idx, out);
}

/// Reference gathered key scoring: one sequential [`crate::vector::dot`] per
/// listed key.
///
/// # Panics
///
/// As [`dot_gather_f32`].
pub fn dot_gather_f32_scalar(qs: &[f32], keys: &[f32], idx: &[usize], out: &mut [f64]) {
    assert_gather("dot_gather_f32", qs.len(), keys.len(), idx, out.len());
    let d = qs.len();
    for (slot, &i) in out.iter_mut().zip(idx) {
        *slot = f64::from(crate::vector::dot(qs, &keys[i * d..(i + 1) * d]));
    }
}

/// Scores every key against two queries from one read of the keys:
/// `out0[i] = q0 · kᵢ` and `out1[i] = q1 · kᵢ`, with `kᵢ = keys[i·d..(i+1)·d]`,
/// `d = q0.len()` and `n = out0.len()` keys. Dispatched through
/// [`active_kernel`].
///
/// Each output is bit-identical to a [`dot_rows_f32`] call with its query
/// (and to [`dot_rows2_f32_scalar`]): the AVX2 kernel transposes each
/// 8-key tile once and adds it into one accumulator register per query,
/// every lane in ascending element order from `-0.0`.
///
/// # Panics
///
/// Panics if `q1.len() != q0.len()`, `out1.len() != out0.len()`, or
/// `keys.len() != out0.len() * q0.len()`.
pub fn dot_rows2_f32(q0: &[f32], q1: &[f32], keys: &[f32], out0: &mut [f64], out1: &mut [f64]) {
    assert_pair("dot_rows2_f32", q0, q1, out0, out1);
    assert_eq!(
        keys.len(),
        out0.len() * q0.len(),
        "dot_rows2_f32: keys must hold out0.len() rows of q0.len()"
    );
    #[cfg(target_arch = "x86_64")]
    if active_kernel() == Kernel::Simd {
        // SAFETY: Kernel::Simd is only active when AVX2 is present; the
        // lengths were asserted above.
        unsafe { dot_rows2_f32_avx2(q0, q1, keys, out0, out1) };
        return;
    }
    dot_rows2_f32_scalar(q0, q1, keys, out0, out1);
}

/// Reference two-query key scoring: [`dot_rows_f32_scalar`] once per query.
///
/// # Panics
///
/// As [`dot_rows2_f32`].
pub fn dot_rows2_f32_scalar(
    q0: &[f32],
    q1: &[f32],
    keys: &[f32],
    out0: &mut [f64],
    out1: &mut [f64],
) {
    assert_pair("dot_rows2_f32", q0, q1, out0, out1);
    dot_rows_f32_scalar(q0, keys, out0);
    dot_rows_f32_scalar(q1, keys, out1);
}

/// Scores a listed subset of keys against two queries from one read of
/// them: `out0[k] = q0 · k_{idx[k]}` and `out1[k] = q1 · k_{idx[k]}`, with
/// `d = q0.len()`. `idx` may be in any order and repeat; its entries are
/// `u32`, the width LAD's center book stores positions at. Dispatched
/// through [`active_kernel`].
///
/// Each output is bit-identical to a [`dot_gather_f32`] call with its query
/// (and to [`dot_gather2_f32_scalar`]): [`dot_rows2_f32`]'s kernel with the
/// eight lanes fed from eight listed rows.
///
/// # Panics
///
/// Panics if `q0` is empty, `q1.len() != q0.len()`, `out0.len()` or
/// `out1.len()` differs from `idx.len()`, or any listed index is
/// `>= keys.len() / q0.len()`.
pub fn dot_gather2_f32(
    q0: &[f32],
    q1: &[f32],
    keys: &[f32],
    idx: &[u32],
    out0: &mut [f64],
    out1: &mut [f64],
) {
    assert_pair("dot_gather2_f32", q0, q1, out0, out1);
    assert_gather("dot_gather2_f32", q0.len(), keys.len(), idx, out0.len());
    #[cfg(target_arch = "x86_64")]
    if active_kernel() == Kernel::Simd {
        // SAFETY: Kernel::Simd is only active when AVX2 is present; every
        // listed row lies inside `keys` and both outputs have one slot per
        // index, as asserted above.
        unsafe { dot_gather2_f32_avx2(q0, q1, keys, idx, out0, out1) };
        return;
    }
    dot_gather2_f32_scalar(q0, q1, keys, idx, out0, out1);
}

/// Reference two-query gathered key scoring: one sequential
/// [`crate::vector::dot`] per listed key and query.
///
/// # Panics
///
/// As [`dot_gather2_f32`].
pub fn dot_gather2_f32_scalar(
    q0: &[f32],
    q1: &[f32],
    keys: &[f32],
    idx: &[u32],
    out0: &mut [f64],
    out1: &mut [f64],
) {
    assert_pair("dot_gather2_f32", q0, q1, out0, out1);
    assert_gather("dot_gather2_f32", q0.len(), keys.len(), idx, out0.len());
    let d = q0.len();
    for ((s0, s1), &i) in out0.iter_mut().zip(out1.iter_mut()).zip(idx) {
        let key = &keys[i as usize * d..(i as usize + 1) * d];
        *s0 = f64::from(crate::vector::dot(q0, key));
        *s1 = f64::from(crate::vector::dot(q1, key));
    }
}

/// Checks a two-query read's pairing: queries of one width, outputs of one
/// length.
fn assert_pair(name: &str, q0: &[f32], q1: &[f32], out0: &[f64], out1: &[f64]) {
    assert_eq!(q0.len(), q1.len(), "{name}: queries must share a width");
    assert_eq!(
        out0.len(),
        out1.len(),
        "{name}: one slot per key in each output"
    );
}

/// Checks a gathered read's shape: a non-empty row width `d`, one output
/// (or weight) per listed index, and every index a whole row of the arena.
/// The AVX2 gathers rely on exactly these conditions.
fn assert_gather<I: Copy + TryInto<usize>>(
    name: &str,
    d: usize,
    arena_len: usize,
    idx: &[I],
    per_index: usize,
) {
    assert!(d > 0, "{name}: rows must be non-empty");
    assert_eq!(per_index, idx.len(), "{name}: one slot per listed index");
    let rows = arena_len / d;
    assert!(
        idx.iter()
            .all(|&i| i.try_into().is_ok_and(|i: usize| i < rows)),
        "{name}: listed index out of range ({rows} rows)"
    );
}

/// The weighted value sum: `acc[j] += ws[i] · f64(values[i·d + j])` for every
/// position `i` in ascending order, with `d = acc.len()` and `n = ws.len()`.
/// Dispatched through [`active_kernel`].
///
/// Bit-identical to [`weighted_rows_f64_scalar`]. The AVX2 kernel's lanes
/// are **value columns**: 32 columns of `acc`, in eight `f64x4` registers,
/// stay in registers across all `n` positions, and each lane adds `w · v`
/// (multiply, then add) in ascending position order. Leftover columns run
/// one register per pass, and a `d % 4` column tail runs the scalar loop.
///
/// # Panics
///
/// Panics if `values.len() != ws.len() * acc.len()`.
pub fn weighted_rows_f64(ws: &[f64], values: &[f32], acc: &mut [f64]) {
    assert_eq!(
        values.len(),
        ws.len() * acc.len(),
        "weighted_rows_f64: values must hold ws.len() rows of acc.len()"
    );
    #[cfg(target_arch = "x86_64")]
    if active_kernel() == Kernel::Simd {
        let d = acc.len();
        let rows = || ws.iter().enumerate().map(move |(i, &w)| (i * d, w));
        // SAFETY: Kernel::Simd is only active when AVX2 is present; by the
        // length assertion above every row `i * d .. (i + 1) * d` lies
        // inside `values`.
        let done = unsafe { weighted_columns_avx2(rows, values, acc) };
        weighted_columns_scalar(rows(), values, acc, done);
        return;
    }
    weighted_rows_f64_scalar(ws, values, acc);
}

/// The gathered weighted value sum: for every listed `k` in order,
/// `acc[j] += ws[k] · f64(values[idx[k]·d + j])`, with `d = acc.len()`.
/// `idx` may be in any order and repeat. Dispatched through [`active_kernel`].
///
/// Bit-identical to [`weighted_gather_f64_scalar`]: the AVX2 kernel is
/// [`weighted_rows_f64`]'s (lanes = value columns, held in `f64x4`
/// registers across all listed positions), each column adding `w · v` in
/// listed order.
///
/// # Panics
///
/// Panics if `acc` is empty, `ws.len() != idx.len()`, or any listed index
/// is `>= values.len() / acc.len()`.
pub fn weighted_gather_f64(idx: &[usize], ws: &[f64], values: &[f32], acc: &mut [f64]) {
    assert_gather(
        "weighted_gather_f64",
        acc.len(),
        values.len(),
        idx,
        ws.len(),
    );
    #[cfg(target_arch = "x86_64")]
    if active_kernel() == Kernel::Simd {
        let d = acc.len();
        let rows = || idx.iter().zip(ws).map(move |(&i, &w)| (i * d, w));
        // SAFETY: Kernel::Simd is only active when AVX2 is present; every
        // listed row `i * d .. (i + 1) * d` lies inside `values`, as
        // asserted above.
        let done = unsafe { weighted_columns_avx2(rows, values, acc) };
        weighted_columns_scalar(rows(), values, acc, done);
        return;
    }
    weighted_gather_f64_scalar(idx, ws, values, acc);
}

/// Reference gathered value sum: the position-major loop over the listed
/// rows, in listed order.
///
/// # Panics
///
/// As [`weighted_gather_f64`].
pub fn weighted_gather_f64_scalar(idx: &[usize], ws: &[f64], values: &[f32], acc: &mut [f64]) {
    assert_gather(
        "weighted_gather_f64",
        acc.len(),
        values.len(),
        idx,
        ws.len(),
    );
    let d = acc.len();
    for (&i, &w) in idx.iter().zip(ws) {
        for (slot, &v) in acc.iter_mut().zip(&values[i * d..(i + 1) * d]) {
            *slot += w * f64::from(v);
        }
    }
}

/// Reference weighted value sum: the position-major loop the exact attention
/// read always ran.
///
/// # Panics
///
/// Panics if `values.len() != ws.len() * acc.len()`.
pub fn weighted_rows_f64_scalar(ws: &[f64], values: &[f32], acc: &mut [f64]) {
    assert_eq!(
        values.len(),
        ws.len() * acc.len(),
        "weighted_rows_f64: values must hold ws.len() rows of acc.len()"
    );
    if acc.is_empty() {
        return;
    }
    for (&w, row) in ws.iter().zip(values.chunks_exact(acc.len())) {
        for (slot, &v) in acc.iter_mut().zip(row) {
            *slot += w * f64::from(v);
        }
    }
}

/// Columns `from..d` of the weighted sum over `rows` (`(row start, weight)`
/// pairs, in summation order), column by column: each column is
/// independent, so this is the position-major loop's sum in the same order.
#[cfg(target_arch = "x86_64")]
fn weighted_columns_scalar(
    rows: impl Iterator<Item = (usize, f64)> + Clone,
    values: &[f32],
    acc: &mut [f64],
    from: usize,
) {
    for (j, slot) in acc.iter_mut().enumerate().skip(from) {
        for (start, w) in rows.clone() {
            *slot += w * f64::from(values[start + j]);
        }
    }
}

/// Transposes an 8-key × 8-element tile: element `e + c` of key `r`, which
/// starts at `p.add(start(r))`, comes back as `out[c]`, lane `r`, for
/// `r, c < 8`.
///
/// # Safety
///
/// AVX2 must be available, and `p.add(start(r) + e + c)` readable for every
/// such `r, c`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn transpose_keys8(
    p: *const f32,
    start: &impl Fn(usize) -> usize,
    e: usize,
) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;

    let mut out = [_mm256_setzero_ps(); 8];
    for (half, off) in [e, e + 4].into_iter().enumerate() {
        let t0 = key_pair(p, start, 0, off);
        let t1 = key_pair(p, start, 1, off);
        let t2 = key_pair(p, start, 2, off);
        let t3 = key_pair(p, start, 3, off);
        let u0 = _mm256_unpacklo_ps(t0, t1);
        let u1 = _mm256_unpackhi_ps(t0, t1);
        let u2 = _mm256_unpacklo_ps(t2, t3);
        let u3 = _mm256_unpackhi_ps(t2, t3);
        out[4 * half] = _mm256_shuffle_ps::<0x44>(u0, u2);
        out[4 * half + 1] = _mm256_shuffle_ps::<0xEE>(u0, u2);
        out[4 * half + 2] = _mm256_shuffle_ps::<0x44>(u1, u3);
        out[4 * half + 3] = _mm256_shuffle_ps::<0xEE>(u1, u3);
    }
    out
}

/// Elements `off..off + 4` of key `r` in 128-bit lane 0 and of key `r + 4`
/// in lane 1, so the in-lane 4×4 transposes of [`transpose_keys8`] leave key
/// `r` in lane `r`.
///
/// # Safety
///
/// AVX2 must be available, and `p.add(start(r) + off)[..4]` and
/// `p.add(start(r + 4) + off)[..4]` readable.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn key_pair(
    p: *const f32,
    start: &impl Fn(usize) -> usize,
    r: usize,
    off: usize,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    _mm256_insertf128_ps::<1>(
        _mm256_castps128_ps256(_mm_loadu_ps(p.add(start(r) + off))),
        _mm_loadu_ps(p.add(start(r + 4) + off)),
    )
}

/// Adds tile `tile` (lane = key, `tile[c]` = element `e0 + c`) into `acc` in
/// ascending element order, one rounded product and one rounded add each.
///
/// # Safety
///
/// AVX2 must be available, and `q[..8]` readable.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn accumulate_tile(
    mut acc: std::arch::x86_64::__m256,
    tile: &[std::arch::x86_64::__m256; 8],
    q: *const f32,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    for (c, &t) in tile.iter().enumerate() {
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(*q.add(c)), t));
    }
    acc
}

/// Scores the eight keys `keys[start(r)..][..d]` (lane `r` = key `r`)
/// against each of the `Q` queries `qs[j]`, into `outs[j][..8]`. Each tile
/// is transposed once and added into one accumulator register per query;
/// each lane accumulates its key in ascending element order from `-0.0`,
/// the `d % 8` tail in scalar order, then widens to `f64`. `start` is a
/// closure so the consecutive-rows caller keeps its strided addressing
/// after inlining.
///
/// # Safety
///
/// AVX2 must be available, every query and every `outs[j]` of lengths
/// `d` and 8, and `start(r) + d <= keys.len()` for every `r < 8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dot_keys8<const Q: usize>(
    qs: [&[f32]; Q],
    keys: &[f32],
    start: impl Fn(usize) -> usize,
    outs: [&mut [f64]; Q],
) {
    use std::arch::x86_64::*;

    let d = qs[0].len();
    let body = d - d % 8;
    let p = keys.as_ptr();
    let mut acc = [_mm256_set1_ps(-0.0); Q];
    let mut e = 0;
    // Every tile read covers elements e..e + 8 <= body <= d of each key,
    // inside `keys` by the caller's contract.
    while e < body {
        let tile = transpose_keys8(p, &start, e);
        for (a, q) in acc.iter_mut().zip(qs) {
            *a = accumulate_tile(*a, &tile, q.as_ptr().add(e));
        }
        e += 8;
    }
    for ((a, q), out) in acc.into_iter().zip(qs).zip(outs) {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), a);
        for (r, (slot, mut sum)) in out.iter_mut().zip(lanes).enumerate() {
            for e in body..d {
                sum += q[e] * keys[start(r) + e];
            }
            *slot = f64::from(sum);
        }
    }
}

/// [`dot_rows_f32`] on AVX2.
///
/// # Safety
///
/// AVX2 must be available, and `keys.len() == out.len() * qs.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_rows_f32_avx2(qs: &[f32], keys: &[f32], out: &mut [f64]) {
    let d = qs.len();
    let n = out.len();
    let mut i = 0;
    while i + 8 <= n {
        dot_keys8([qs], &keys[i * d..], |r| r * d, [&mut out[i..i + 8]]);
        i += 8;
    }
    dot_rows_f32_scalar(qs, &keys[i * d..], &mut out[i..]);
}

/// [`dot_rows2_f32`] on AVX2: blocks of eight keys through [`dot_keys8`]
/// with both queries, the last `n % 8` keys through the scalar twin.
///
/// # Safety
///
/// AVX2 must be available, `q1.len() == q0.len()`,
/// `out1.len() == out0.len()`, and `keys.len() == out0.len() * q0.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_rows2_f32_avx2(
    q0: &[f32],
    q1: &[f32],
    keys: &[f32],
    out0: &mut [f64],
    out1: &mut [f64],
) {
    let d = q0.len();
    let n = out0.len();
    let mut i = 0;
    while i + 8 <= n {
        let outs = [&mut out0[i..i + 8], &mut out1[i..i + 8]];
        dot_keys8([q0, q1], &keys[i * d..], |r| r * d, outs);
        i += 8;
    }
    dot_rows2_f32_scalar(q0, q1, &keys[i * d..], &mut out0[i..], &mut out1[i..]);
}

/// [`dot_gather_f32`] on AVX2: groups of eight listed keys through
/// [`dot_keys8`], the last `idx.len() % 8` through [`crate::vector::dot`].
///
/// # Safety
///
/// AVX2 must be available, `out.len() == idx.len()`, and
/// `(i + 1) * qs.len() <= keys.len()` for every listed `i`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_gather_f32_avx2(qs: &[f32], keys: &[f32], idx: &[usize], out: &mut [f64]) {
    let d = qs.len();
    let groups = idx.len() / 8 * 8;
    for (ids, slots) in idx[..groups]
        .chunks_exact(8)
        .zip(out[..groups].chunks_exact_mut(8))
    {
        let rows: [usize; 8] = std::array::from_fn(|r| ids[r] * d);
        dot_keys8([qs], keys, |r| rows[r], [slots]);
    }
    dot_gather_f32_scalar(qs, keys, &idx[groups..], &mut out[groups..]);
}

/// [`dot_gather2_f32`] on AVX2: groups of eight listed keys through
/// [`dot_keys8`] with both queries, the last `idx.len() % 8` through the
/// scalar twin.
///
/// # Safety
///
/// AVX2 must be available, `q1.len() == q0.len()`, both outputs of length
/// `idx.len()`, and `(i + 1) * q0.len() <= keys.len()` for every listed `i`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_gather2_f32_avx2(
    q0: &[f32],
    q1: &[f32],
    keys: &[f32],
    idx: &[u32],
    out0: &mut [f64],
    out1: &mut [f64],
) {
    let d = q0.len();
    let groups = idx.len() / 8 * 8;
    for ((ids, s0), s1) in idx[..groups]
        .chunks_exact(8)
        .zip(out0[..groups].chunks_exact_mut(8))
        .zip(out1[..groups].chunks_exact_mut(8))
    {
        let rows: [usize; 8] = std::array::from_fn(|r| ids[r] as usize * d);
        dot_keys8([q0, q1], keys, |r| rows[r], [s0, s1]);
    }
    dot_gather2_f32_scalar(
        q0,
        q1,
        keys,
        &idx[groups..],
        &mut out0[groups..],
        &mut out1[groups..],
    );
}

/// The AVX2 weighted value sum over columns `0..d - d % 4`, with
/// `d = acc.len()`: blocks of 32 columns held in eight `f64x4` registers,
/// then one register per pass, each walking `rows()` (`(row start, weight)`
/// pairs) in order. Returns the first column it did not cover.
///
/// # Safety
///
/// AVX2 must be available, and every start `rows()` yields must satisfy
/// `start + acc.len() <= values.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn weighted_columns_avx2<I: Iterator<Item = (usize, f64)>>(
    rows: impl Fn() -> I,
    values: &[f32],
    acc: &mut [f64],
) -> usize {
    let d = acc.len();
    let mut c0 = 0;
    while c0 + 32 <= d {
        weighted_block_avx2::<8>(rows(), values, acc, c0);
        c0 += 32;
    }
    while c0 + 4 <= d {
        weighted_block_avx2::<1>(rows(), values, acc, c0);
        c0 += 4;
    }
    c0
}

/// Columns `c0..c0 + 4·R` of the weighted sum on `R` `f64x4` accumulators.
///
/// # Safety
///
/// AVX2 must be available, `c0 + 4·R <= acc.len()`, and every start `rows`
/// yields must satisfy `start + acc.len() <= values.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn weighted_block_avx2<const R: usize>(
    rows: impl Iterator<Item = (usize, f64)>,
    values: &[f32],
    acc: &mut [f64],
    c0: usize,
) {
    use std::arch::x86_64::*;

    let a = acc.as_mut_ptr().add(c0);
    let mut regs = [_mm256_setzero_pd(); R];
    for (r, reg) in regs.iter_mut().enumerate() {
        *reg = _mm256_loadu_pd(a.add(4 * r));
    }
    let v = values.as_ptr().add(c0);
    for (start, w) in rows {
        let wv = _mm256_set1_pd(w);
        let row = v.add(start);
        for (r, reg) in regs.iter_mut().enumerate() {
            let x = _mm256_cvtps_pd(_mm_loadu_ps(row.add(4 * r)));
            *reg = _mm256_add_pd(*reg, _mm256_mul_pd(wv, x));
        }
    }
    for (r, reg) in regs.iter().enumerate() {
        _mm256_storeu_pd(a.add(4 * r), *reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
