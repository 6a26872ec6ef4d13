//! Per-sample vs cross-sample-GEMM batched decoding.
//!
//! The per-sample path (one solo `Session` per prompt, one after the other)
//! streams every weight matrix once per sample per step. The batched path
//! serves the whole batch through one `lad_serve::Engine`: every request
//! arrives at tick 0 and is admitted at once (`max_active` = batch), and
//! each tick feeds one row per request (`prefill_chunk` 1), so the
//! step-synchronous executor stacks the batch into one activation matrix
//! and streams each weight matrix once per *tick*. Both run single-threaded
//! here (`parallelism` 1) so the sweep isolates the GEMM effect from pool
//! scheduling. The paths are required to be bit-identical, so every point
//! also cross-checks tokens. Each point is the median of interleaved
//! per-sample/batched pairs (`lad_bench::gates::batch_point`).
//!
//! The run is written to `BENCH_gemm.json` at the repo root as the committed
//! baseline once the batch-8 exact point meets its gate in
//! `lad_bench::gates::GATES`.
//!
//! ```sh
//! cargo bench -p lad-bench --bench gemm_batch
//! ```

use lad_bench::gates::{self, batch_point, bench_model, BATCH_PROMPT_LEN, GEMM_FILE};
use lad_bench::{print_table, section};
use lad_core::decoder::LadConfig;
use lad_model::backend::AttentionKind;

const STEPS: usize = 32;
const PAIRS: usize = 11;

fn main() {
    let model = bench_model();
    let mut rows = Vec::new();
    for (label, kind) in [
        ("exact", AttentionKind::Exact),
        ("lad", AttentionKind::Lad(LadConfig::default())),
    ] {
        section(&format!(
            "gemm_batch: {label} (tiny preset, single-threaded)"
        ));
        let mut table = Vec::new();
        for batch in [2usize, 4, 8] {
            let p = batch_point(&model, &kind, batch, STEPS, PAIRS);
            table.push(vec![
                format!("{batch}"),
                format!("{:.3}", p.per_sample_ms),
                format!("{:.3}", p.batched_ms),
                format!("{:.2}x", p.speedup),
                format!("{}", p.ticks),
            ]);
            rows.push(format!(
                "{{\"kind\": \"{label}\", \"batch\": {batch}, \"per_sample_ms_per_token\": {:.4}, \
                 \"batched_ms_per_token\": {:.4}, \"speedup\": {:.3}, \"ticks\": {}}}",
                p.per_sample_ms, p.batched_ms, p.speedup, p.ticks,
            ));
        }
        print_table(
            &[
                "batch",
                "per-sample ms/tok",
                "batched ms/tok",
                "speedup",
                "ticks",
            ],
            &table,
        );
    }
    gates::write_baseline(
        GEMM_FILE,
        "gemm_batch/per_sample_vs_batched",
        "tiny gemm preset (2 layers, 256 hidden, 4 heads)",
        &[
            ("prompt_len", BATCH_PROMPT_LEN.to_string()),
            ("steps", STEPS.to_string()),
            ("pairs", PAIRS.to_string()),
        ],
        &rows,
    );
}
