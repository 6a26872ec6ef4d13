//! Scalar vs SIMD microkernel sweep over the hot decode kernels.
//!
//! Five ratios, each measured back to back in one process:
//!
//! * `gemm_f32`: the packed-panel f32 GEMM on the dominant MLP shape of the
//!   tiny bench preset (batch 8 x intermediate 512 over k = 256), scalar
//!   microkernel vs the AVX2 one. The two are required to be **bit
//!   identical** (the SIMD kernel vectorises across packed rows, never
//!   across `k`), and the SIMD side commits to a 1.5x floor.
//! * `kv_read_f16`: the attention score read `q . k_i` over a 4096-position
//!   head-dim-64 cache, f32 arenas (sequential exact dot, the scalar
//!   kernel) vs fp16 arenas (F16C convert + mul). Half the key bytes; 1.2x
//!   floor, bounded error. The SIMD f32 read (`kv_read_f32`'s score half)
//!   is compute-bound at about the fp16 read's speed, so fp16 storage buys
//!   no read speed over it at this cache-resident size.
//! * `gemm_i8`: the same MLP shape through the int8-weight kernel vs the f32
//!   SIMD kernel. Int8 quarters weight *bytes* (the win at memory-bound
//!   sizes); at this cache-resident shape with a single 8-row panel the
//!   widen-to-f32 pass cannot amortise, so the gate only guards against a
//!   pathological slowdown (0.7x floor — the first kernel cut measured
//!   0.42x from `vcvtsi2ss` dependency stalls, which this catches).
//! * `kv_read_f32`: the whole exact head read (`reference::exact_attention`:
//!   scores, max, `exp`, weighted value sum) over a 1024-position
//!   head-dim-64 f32 cache, scalar kernels vs SIMD ones (keys in the score
//!   lanes, value columns in the weighted-sum lanes). The two are required
//!   to be **bit identical**; 1.3x floor.
//! * `gemm_f32_rows16`: the row staircase — time(m = 16) ÷ time(m = 8) for
//!   the SIMD f32 GEMM at n 512 x k 512, with the m = 16 result asserted
//!   bit-identical to scalar. Sixteen rows run as one AVX-512F `f32x16`
//!   panel, so the ratio sits well under the 2x of two 8-row passes; the
//!   row carries a 1.6 **ceiling**, not a floor.
//!
//! The header names the GEMM panel widths this host runs. The run is
//! written to `BENCH_kernels.json` at the repo root as the committed
//! baseline; `bench_check` re-measures the gated ratios in quick mode. On a
//! host without AVX2+F16C the bench prints a notice and exits without
//! touching the baseline (the committed numbers come from a SIMD box, and
//! the floors are meaningless without one). On a host with AVX2 but
//! without AVX-512F it prints a skip notice for `gemm_f32_rows16` and
//! leaves the baseline untouched too, since the committed file must keep
//! that row.
//!
//! ```sh
//! cargo bench --bench gemm_kernels
//! ```

use lad_bench::{print_table, section};
use lad_core::kv::{KvCache, KvPrecision};
use lad_core::reference;
use lad_math::gemm::{gemm_bt_into, GemmScratch};
use lad_math::quant::gemm_bt_q8_into;
use lad_math::{with_kernel, Kernel, Matrix, Q8Matrix, Rng};
use std::fmt::Write as _;
use std::time::Instant;

/// MLP GEMM shape of the tiny `gemm` preset: batch 8, intermediate 512,
/// hidden 256.
const M: usize = 8;
const N: usize = 512;
const K: usize = 256;

/// Staircase shape: a square 512 x 512 projection at 8 and 16 rows.
const ROWS_N: usize = 512;
const ROWS_K: usize = 512;

/// KV read shape: head dim 64, 4096 cached positions (paper group-2 length).
const KV_DIM: usize = 64;
const KV_POSITIONS: usize = 4096;

/// Exact head read shape: head dim 64, 1024 cached positions (the
/// `long_context` prompt length).
const READ_POSITIONS: usize = 1024;

/// Committed acceptance floors and ceiling (also enforced by `bench_check`).
const SIMD_GEMM_FLOOR: f64 = 1.5;
const KV_READ_F32_FLOOR: f64 = 1.3;
const F16_READ_FLOOR: f64 = 1.2;
const I8_GEMM_FLOOR: f64 = 0.7;
const ROWS16_CEILING: f64 = 1.6;

/// How a row's ratio is gated: `speedup = baseline / variant ≥ floor`, or
/// `ratio = variant / baseline ≤ ceiling`.
#[derive(Clone, Copy)]
enum Gate {
    Floor(f64),
    Ceiling(f64),
}

struct KernelPoint {
    kind: &'static str,
    shape: String,
    baseline_us: f64,
    variant_us: f64,
    gate: Gate,
    bit_exact: bool,
}

impl KernelPoint {
    /// The gated ratio (`speedup` for a floor, `ratio` for a ceiling).
    fn value(&self) -> f64 {
        match self.gate {
            Gate::Floor(_) => self.baseline_us / self.variant_us,
            Gate::Ceiling(_) => self.variant_us / self.baseline_us,
        }
    }

    fn passes(&self) -> bool {
        match self.gate {
            Gate::Floor(floor) => self.value() >= floor,
            Gate::Ceiling(ceiling) => self.value() <= ceiling,
        }
    }
}

/// Best-of-5 mean microseconds per call over `iters` calls.
fn time_us(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up: page in buffers, settle the dispatch OnceLock
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e6 / iters as f64);
    }
    best
}

fn bench_gemm_f32(rng: &mut Rng) -> KernelPoint {
    let a = rng.normal_vec(M * K, 1.0);
    let b_t = rng.normal_vec(N * K, 1.0);
    let mut c_scalar = vec![0.0f32; M * N];
    let mut c_simd = vec![0.0f32; M * N];
    let mut scratch = GemmScratch::default();
    let baseline_us = with_kernel(Kernel::Scalar, || {
        time_us(100, || {
            gemm_bt_into(M, N, K, &a, &b_t, &mut c_scalar, &mut scratch)
        })
    });
    let variant_us = with_kernel(Kernel::Simd, || {
        time_us(100, || {
            gemm_bt_into(M, N, K, &a, &b_t, &mut c_simd, &mut scratch)
        })
    });
    assert_eq!(
        c_scalar, c_simd,
        "SIMD f32 GEMM must be bit-identical to the scalar microkernel"
    );
    KernelPoint {
        kind: "gemm_f32",
        shape: format!("m={M} n={N} k={K}"),
        baseline_us,
        variant_us,
        gate: Gate::Floor(SIMD_GEMM_FLOOR),
        bit_exact: true,
    }
}

fn bench_kv_read_f16(rng: &mut Rng) -> KernelPoint {
    let mut kv32 = KvCache::new(KV_DIM);
    let mut kv16 = KvCache::with_precision(KV_DIM, KvPrecision::F16);
    for _ in 0..KV_POSITIONS {
        let k = rng.normal_vec(KV_DIM, 1.0);
        let v = rng.normal_vec(KV_DIM, 1.0);
        kv32.push(&k, &v);
        kv16.push(&k, &v);
    }
    let q = rng.normal_vec(KV_DIM, 1.0);
    let mut s32 = Vec::with_capacity(KV_POSITIONS);
    let mut s16 = Vec::with_capacity(KV_POSITIONS);
    // The f32 side is the sequential dot this row was defined against, so
    // it runs on the scalar kernel; the SIMD f32 read is `kv_read_f32`.
    let baseline_us = with_kernel(Kernel::Scalar, || {
        time_us(200, || {
            s32.clear();
            kv32.score_keys_into(&q, &mut s32);
        })
    });
    let variant_us = with_kernel(Kernel::Simd, || {
        time_us(200, || {
            s16.clear();
            kv16.score_keys_into(&q, &mut s16);
        })
    });
    // Bounded error, not bit-exact: fp16 keys carry 11 significant bits.
    let worst = s32
        .iter()
        .zip(&s16)
        .map(|(a, b)| (a - b).abs() / a.abs().max(1.0))
        .fold(0.0f64, f64::max)
        .max(0.0);
    assert!(worst < 1e-2, "fp16 score drift {worst} out of bounds");
    KernelPoint {
        kind: "kv_read_f16",
        shape: format!("dim={KV_DIM} positions={KV_POSITIONS}"),
        baseline_us,
        variant_us,
        gate: Gate::Floor(F16_READ_FLOOR),
        bit_exact: false,
    }
}

fn bench_kv_read_f32(rng: &mut Rng) -> KernelPoint {
    let mut kv = KvCache::new(KV_DIM);
    for _ in 0..READ_POSITIONS {
        let k = rng.normal_vec(KV_DIM, 1.0);
        let v = rng.normal_vec(KV_DIM, 1.0);
        kv.push(&k, &v);
    }
    let q = rng.normal_vec(KV_DIM, 1.0);
    let mut scalar = Vec::new();
    let mut simd = Vec::new();
    let baseline_us = with_kernel(Kernel::Scalar, || {
        time_us(200, || scalar = reference::exact_attention(&q, &kv))
    });
    let variant_us = with_kernel(Kernel::Simd, || {
        time_us(200, || simd = reference::exact_attention(&q, &kv))
    });
    assert_eq!(
        scalar, simd,
        "SIMD exact attention read must be bit-identical to the scalar one"
    );
    KernelPoint {
        kind: "kv_read_f32",
        shape: format!("dim={KV_DIM} positions={READ_POSITIONS}"),
        baseline_us,
        variant_us,
        gate: Gate::Floor(KV_READ_F32_FLOOR),
        bit_exact: true,
    }
}

fn bench_gemm_i8(rng: &mut Rng) -> KernelPoint {
    let a = rng.normal_vec(M * K, 1.0);
    let w = Matrix::from_flat(N, K, rng.normal_vec(N * K, 0.1));
    let q8 = Q8Matrix::quantize(&w);
    let mut c_f32 = vec![0.0f32; M * N];
    let mut c_i8 = vec![0.0f32; M * N];
    let mut scratch = GemmScratch::default();
    let (baseline_us, variant_us) = with_kernel(Kernel::Simd, || {
        let base = time_us(100, || {
            gemm_bt_into(M, N, K, &a, w.as_slice(), &mut c_f32, &mut scratch)
        });
        let var = time_us(100, || gemm_bt_q8_into(M, &a, &q8, &mut c_i8, &mut scratch));
        (base, var)
    });
    // The int8 path approximates the weights, not the arithmetic: outputs
    // stay within the per-row quantisation bound of the f32 result.
    let worst = c_f32
        .iter()
        .zip(&c_i8)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(worst < 0.5, "int8 GEMM drift {worst} out of bounds");
    KernelPoint {
        kind: "gemm_i8",
        shape: format!("m={M} n={N} k={K}"),
        baseline_us,
        variant_us,
        gate: Gate::Floor(I8_GEMM_FLOOR),
        bit_exact: false,
    }
}

/// `None` (after a skip notice) on hosts without AVX-512F, where 16 rows run
/// as two 8-row panels and the ceiling does not apply.
fn bench_gemm_rows16(rng: &mut Rng) -> Option<KernelPoint> {
    if !lad_math::simd::avx512_supported() {
        println!(
            "gemm_f32_rows16: AVX-512F not available on this host; SKIPPED \
             (the 16-row panel went unexercised, committed row left untouched)"
        );
        return None;
    }
    let b_t = rng.normal_vec(ROWS_N * ROWS_K, 1.0);
    let a = rng.normal_vec(16 * ROWS_K, 1.0);
    let mut c8 = vec![0.0f32; 8 * ROWS_N];
    let mut c16 = vec![0.0f32; 16 * ROWS_N];
    let mut c16_scalar = vec![0.0f32; 16 * ROWS_N];
    let mut scratch = GemmScratch::default();
    let (t8, t16) = with_kernel(Kernel::Simd, || {
        let t8 = time_us(100, || {
            gemm_bt_into(
                8,
                ROWS_N,
                ROWS_K,
                &a[..8 * ROWS_K],
                &b_t,
                &mut c8,
                &mut scratch,
            )
        });
        let t16 = time_us(100, || {
            gemm_bt_into(16, ROWS_N, ROWS_K, &a, &b_t, &mut c16, &mut scratch)
        });
        (t8, t16)
    });
    with_kernel(Kernel::Scalar, || {
        gemm_bt_into(16, ROWS_N, ROWS_K, &a, &b_t, &mut c16_scalar, &mut scratch)
    });
    assert_eq!(
        c16, c16_scalar,
        "16-row SIMD f32 GEMM must be bit-identical to the scalar microkernel"
    );
    Some(KernelPoint {
        kind: "gemm_f32_rows16",
        shape: format!("m=16 vs m=8 n={ROWS_N} k={ROWS_K}"),
        baseline_us: t8,
        variant_us: t16,
        gate: Gate::Ceiling(ROWS16_CEILING),
        bit_exact: true,
    })
}

fn write_baseline(points: &[KernelPoint]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"gemm_kernels/scalar_vs_simd\",");
    let _ = writeln!(
        json,
        "  \"model\": \"microkernel shapes (MLP GEMM m={M} n={N} k={K}; KV read d={KV_DIM} n={KV_POSITIONS}; \
         exact head read d={KV_DIM} n={READ_POSITIONS}; row staircase n={ROWS_N} k={ROWS_K})\","
    );
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let (value_key, bound_key, bound) = match p.gate {
            Gate::Floor(floor) => ("speedup", "floor", floor),
            Gate::Ceiling(ceiling) => ("ratio", "ceiling", ceiling),
        };
        let _ = writeln!(
            json,
            "    {{\"kind\": \"{}\", \"shape\": \"{}\", \"baseline_us\": {:.3}, \
             \"variant_us\": {:.3}, \"{value_key}\": {:.3}, \"{bound_key}\": {bound:.2}, \
             \"bit_exact\": {}}}{comma}",
            p.kind,
            p.shape,
            p.baseline_us,
            p.variant_us,
            p.value(),
            u8::from(p.bit_exact),
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    match std::fs::write(path, json) {
        Ok(()) => println!("\nbaseline written to BENCH_kernels.json"),
        Err(e) => println!("\ncould not write BENCH_kernels.json: {e}"),
    }
}

fn main() {
    if !Kernel::Simd.available() {
        println!(
            "gemm_kernels: AVX2+F16C not available on this host; skipping \
             (committed BENCH_kernels.json left untouched)"
        );
        return;
    }
    section("gemm_kernels: scalar vs SIMD microkernels (single-threaded)");
    println!("gemm panels: {}", lad_math::simd::gemm_panels());
    let mut rng = Rng::new(0x51);
    let mut points = vec![
        bench_gemm_f32(&mut rng),
        bench_kv_read_f16(&mut rng),
        bench_gemm_i8(&mut rng),
        bench_kv_read_f32(&mut rng),
    ];
    let rows16 = bench_gemm_rows16(&mut rng);
    let complete = rows16.is_some();
    points.extend(rows16);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let gate = match p.gate {
                Gate::Floor(floor) => format!(">= {floor:.2}x"),
                Gate::Ceiling(ceiling) => format!("<= {ceiling:.2}x"),
            };
            vec![
                p.kind.to_string(),
                p.shape.clone(),
                format!("{:.2}", p.baseline_us),
                format!("{:.2}", p.variant_us),
                format!("{:.2}x", p.value()),
                gate,
                if p.bit_exact { "yes" } else { "bounded" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "kernel",
            "shape",
            "baseline us",
            "variant us",
            "ratio",
            "gate",
            "bit-exact",
        ],
        &rows,
    );
    if complete {
        write_baseline(&points);
    } else {
        println!("\nBENCH_kernels.json left untouched (no gemm_f32_rows16 row on this host)");
    }
    for p in &points {
        assert!(
            p.passes(),
            "{}: {:.2}x fails its acceptance gate",
            p.kind,
            p.value()
        );
    }
}
