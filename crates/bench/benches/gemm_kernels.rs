//! Scalar vs SIMD microkernel sweep over the hot decode kernels.
//!
//! Three ratios, each the median of interleaved baseline/variant pairs in one
//! process (`lad_bench::gates::kernel_point`, which also holds the shapes):
//!
//! * `gemm_f32`: the packed-panel f32 GEMM on the dominant MLP shape of the
//!   tiny bench preset (batch 8 x intermediate 512 over k = 256), scalar
//!   microkernel vs the AVX2 one. The two are required to be **bit
//!   identical** (the SIMD kernel vectorises across packed rows, never
//!   across `k`).
//! * `kv_read_f32`: the whole exact head read (`reference::exact_attention`:
//!   scores, max, `exp`, weighted value sum) over a 1024-position
//!   head-dim-64 f32 cache, scalar kernels vs SIMD ones (keys in the score
//!   lanes, value columns in the weighted-sum lanes). The two are required
//!   to be **bit identical**.
//! * `gemm_f32_rows16`: the row staircase — time(m = 16) ÷ time(m = 8) for
//!   the SIMD f32 GEMM at n 512 x k 512, with the m = 16 result asserted
//!   bit-identical to scalar. Sixteen rows run as one AVX-512F `f32x16`
//!   panel, so the ratio sits well under the 2x of two 8-row passes; the
//!   row carries a **ceiling**, not a floor.
//!
//! One more reading is recorded but gated by nothing: `gemm_f32_streamed`,
//! at m = 4, 10 and 16, times the SIMD GEMM over the serving ledger model's
//! whole projection sequence (about 42 MB, each matrix once, so the weights
//! stream from L3 or DRAM) against 512 x 512 GEMMs on one matrix that stays
//! in L2, per flop, and records both GFLOP/s rates and the streamed weight
//! GB/s (`lad_bench::gates::streamed_point`). It shows how far the served
//! GEMM falls from its in-cache rate.
//!
//! Each row's floor or ceiling comes from `lad_bench::gates::GATES`. The
//! header names the GEMM panel widths this host runs. The run is written to
//! `BENCH_kernels.json` at the repo root as the committed baseline. On a
//! host without AVX2, or without AVX-512F (no `gemm_f32_rows16`), the
//! bench prints a notice and leaves the baseline untouched, since the
//! committed file must keep every row.
//!
//! ```sh
//! cargo bench -p lad-bench --bench gemm_kernels
//! ```

use lad_bench::gates::{
    self, kernel_point, streamed_point, Bound, Row, GATES, KERNELS_FILE, KERNEL_ITERS,
    KERNEL_PAIRS, STREAMED_ROWS,
};
use lad_bench::{print_table, section};

fn main() {
    section("gemm_kernels: scalar vs SIMD microkernels (single-threaded)");
    println!("gemm panels: {}", lad_math::simd::gemm_panels());
    let mut table = Vec::new();
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for gate in GATES.iter().filter(|g| g.file == KERNELS_FILE) {
        let Row::Kind(kind) = gate.row else {
            unreachable!("kernel gates name one row")
        };
        let Some(p) = kernel_point(kind) else {
            missing.push(kind);
            continue;
        };
        let value = p.metric(gate.metric);
        let bound_key = match gate.bound {
            Bound::AtMost(_) => "ceiling",
            _ => "floor",
        };
        assert!(
            gate.bound.holds(value),
            "{kind}: {value:.2}x misses its gate"
        );
        table.push(vec![
            kind.to_string(),
            p.shape.clone(),
            format!("{:.2}", p.baseline_us),
            format!("{:.2}", p.variant_us),
            format!("{value:.2}x"),
            format!("{} {}", gate.metric, gate.bound),
            if gate.bit_exact { "yes" } else { "bounded" }.to_string(),
        ]);
        rows.push(format!(
            "{{\"kind\": \"{kind}\", \"shape\": \"{}\", \"baseline_us\": {:.3}, \
             \"variant_us\": {:.3}, \"{}\": {value:.3}, \"{bound_key}\": {:.2}, \
             \"bit_exact\": {}}}",
            p.shape,
            p.baseline_us,
            p.variant_us,
            gate.metric,
            gate.bound.value(),
            u8::from(gate.bit_exact),
        ));
    }
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
        &table,
    );
    if !missing.is_empty() {
        println!(
            "\n{missing:?}: this host lacks the ISA (AVX2, AVX-512F for \
             gemm_f32_rows16); SKIPPED, {KERNELS_FILE} left untouched"
        );
        return;
    }

    section("gemm_kernels: served weights streamed vs one matrix in L2 (SIMD, ungated)");
    let mut table = Vec::new();
    for m in STREAMED_ROWS {
        let p = streamed_point(m).expect("AVX2 checked above");
        table.push(vec![
            m.to_string(),
            format!("{:.1}", p.hot_us),
            format!("{:.1}", p.streamed_us),
            format!("{:.1}", p.hot_gflops),
            format!("{:.1}", p.streamed_gflops),
            format!("{:.2}", p.weight_gb_per_s),
            format!("{:.2}x", p.ratio),
        ]);
        rows.push(format!(
            "{{\"kind\": \"gemm_f32_streamed\", \"rows\": {m}, \"shape\": \"{}\", \
             \"baseline_us\": {:.3}, \"variant_us\": {:.3}, \"ratio\": {:.3}, \
             \"hot_gflops\": {:.2}, \"streamed_gflops\": {:.2}, \
             \"weight_gb_per_s\": {:.3}, \"bit_exact\": 1}}",
            p.shape,
            p.hot_us,
            p.streamed_us,
            p.ratio,
            p.hot_gflops,
            p.streamed_gflops,
            p.weight_gb_per_s,
        ));
    }
    print_table(
        &[
            "m",
            "hot us",
            "streamed us",
            "hot GFLOP/s",
            "streamed GFLOP/s",
            "weight GB/s",
            "streamed/hot",
        ],
        &table,
    );
    gates::write_baseline(
        KERNELS_FILE,
        "gemm_kernels/scalar_vs_simd",
        "microkernel shapes (MLP GEMM m=8 n=512 k=256; exact head read d=64 n=1024; \
         row staircase n=512 k=512; ledger projections streamed at m=4/10/16)",
        &[
            ("pairs", KERNEL_PAIRS.to_string()),
            ("iters_per_side", KERNEL_ITERS.to_string()),
        ],
        &rows,
    );
}
