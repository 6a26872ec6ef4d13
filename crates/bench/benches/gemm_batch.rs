//! Per-sample vs cross-sample-GEMM batched decoding.
//!
//! The per-sample path (`lad_bench::decode_per_sample`: one solo `Session`
//! per prompt, one after the other) streams every weight matrix once per
//! sample per step. The batched path serves the whole batch through one
//! `lad_serve::Engine`: every request arrives at tick 0 and is admitted at
//! once (`max_active` = batch), and each tick feeds one row per request
//! (`prefill_chunk` 1), so the step-synchronous executor stacks the batch
//! into one activation matrix and streams each weight matrix once per
//! *tick*. Both run single-threaded here (`parallelism` 1) so the sweep
//! isolates the GEMM effect from pool scheduling. The paths are required to
//! be bit-identical, so every point also cross-checks tokens.
//!
//! The run is written to `BENCH_gemm.json` at the repo root as the committed
//! baseline, and the batch-8 point asserts the acceptance floor of a 1.3x
//! per-token speedup on the tiny preset.
//!
//! ```sh
//! cargo bench -p lad-bench --bench gemm_batch
//! ```

use lad_accel::paged::{BlockPool, BLOCK_TOKENS};
use lad_bench::{decode_per_sample, print_table, section};
use lad_core::decoder::LadConfig;
use lad_model::backend::AttentionKind;
use lad_model::config::ModelConfig;
use lad_model::transformer::Model;
use lad_serve::{Engine, Request, ServeConfig};
use std::fmt::Write as _;
use std::time::Instant;

const PROMPT_LEN: usize = 32;
const STEPS: usize = 32;

/// One measured point of the batch sweep, as written to the JSON baseline.
struct GemmPoint {
    kind: &'static str,
    batch: usize,
    per_sample_ms: f64,
    batched_ms: f64,
    speedup: f64,
    /// Engine ticks the batched serve took (one step each).
    ticks: usize,
}

fn prompts(batch: usize) -> Vec<Vec<u32>> {
    (0..batch)
        .map(|s| {
            (0..PROMPT_LEN as u32)
                .map(|i| (i * 31 + 5 + s as u32 * 17) % 256)
                .collect()
        })
        .collect()
}

/// Serves every prompt through one `Engine` for `STEPS` tokens each: all
/// requests arrive at tick 0 and are admitted together, each tick feeds one
/// row per request, and the pool holds every request whole. Returns the
/// generated tokens per prompt (prompt order) and the ticks served.
fn serve_batch(
    model: &Model,
    kind: &AttentionKind,
    prompts: &[Vec<u32>],
) -> (Vec<Vec<u32>>, usize) {
    let model_cfg = model.config();
    let block_bytes = model_cfg.layers * 2 * model_cfg.hidden * 2 * BLOCK_TOKENS;
    let blocks = prompts.len() * BlockPool::blocks_for(PROMPT_LEN + STEPS);
    let cfg = ServeConfig {
        max_active: prompts.len(),
        prefill_chunk: 1,
        parallelism: 1,
        ..ServeConfig::default()
    };
    let pool = BlockPool::new(model_cfg, blocks * block_bytes);
    let mut engine = Engine::new(model, kind, pool, cfg);
    for (id, prompt) in prompts.iter().enumerate() {
        engine.submit(Request::new(id as u64, prompt.clone(), STEPS));
    }
    let mut report = engine.run();
    report.outcomes.sort_by_key(|o| o.id);
    let streams = report.outcomes.into_iter().map(|o| o.tokens).collect();
    (streams, report.steps)
}

/// Best-of-3 wall-clock for one decode closure, in seconds per token.
fn time_per_token<R>(total_tokens: f64, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() / total_tokens);
        out = Some(r);
    }
    (out.expect("at least one timed run"), best)
}

fn sweep(model: &Model, kind: &AttentionKind, label: &'static str, points: &mut Vec<GemmPoint>) {
    section(&format!(
        "gemm_batch: {label} (tiny preset, single-threaded)"
    ));
    let mut rows = Vec::new();
    for batch in [2usize, 4, 8] {
        let prompts = prompts(batch);
        let total_tokens = (batch * (PROMPT_LEN + STEPS)) as f64;
        let (per_sample, per_sample_t) = time_per_token(total_tokens, || {
            decode_per_sample(model, kind, &prompts, STEPS)
        });
        let ((batched, ticks), batched_t) =
            time_per_token(total_tokens, || serve_batch(model, kind, &prompts));
        assert_eq!(
            per_sample, batched,
            "batch={batch}: batched serve diverged from per-sample decoding"
        );
        let speedup = per_sample_t / batched_t;
        rows.push(vec![
            format!("{batch}"),
            format!("{:.3}", per_sample_t * 1e3),
            format!("{:.3}", batched_t * 1e3),
            format!("{speedup:.2}x"),
            format!("{ticks}"),
        ]);
        points.push(GemmPoint {
            kind: label,
            batch,
            per_sample_ms: per_sample_t * 1e3,
            batched_ms: batched_t * 1e3,
            speedup,
            ticks,
        });
    }
    print_table(
        &[
            "batch",
            "per-sample ms/tok",
            "batched ms/tok",
            "speedup",
            "ticks",
        ],
        &rows,
    );
}

/// Writes the sweep baseline to `BENCH_gemm.json` at the repo root.
fn write_baseline(points: &[GemmPoint]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"gemm_batch/per_sample_vs_batched\",");
    let _ = writeln!(
        json,
        "  \"model\": \"tiny gemm preset (2 layers, 256 hidden, 4 heads)\","
    );
    let _ = writeln!(json, "  \"prompt_len\": {PROMPT_LEN},");
    let _ = writeln!(json, "  \"steps\": {STEPS},");
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"kind\": \"{}\", \"batch\": {}, \"per_sample_ms_per_token\": {:.4}, \
             \"batched_ms_per_token\": {:.4}, \"speedup\": {:.3}, \"ticks\": {}}}{comma}",
            p.kind, p.batch, p.per_sample_ms, p.batched_ms, p.speedup, p.ticks,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    match std::fs::write(path, json) {
        Ok(()) => println!("\nbaseline written to BENCH_gemm.json"),
        Err(e) => println!("\ncould not write BENCH_gemm.json: {e}"),
    }
}

fn main() {
    // 256 hidden keeps each weight matrix well past L1, so the per-sample
    // path's repeated weight streaming is visible at small batch sizes.
    let model = Model::random(ModelConfig::tiny("gemm", 2, 256, 4), 7);
    let mut points = Vec::new();
    sweep(&model, &AttentionKind::Exact, "exact", &mut points);
    sweep(
        &model,
        &AttentionKind::Lad(LadConfig::default()),
        "lad",
        &mut points,
    );
    write_baseline(&points);

    // Acceptance floor: at batch 8 the batched engine must beat per-sample
    // decoding by >= 1.3x per token on the exact backend.
    let floor = points
        .iter()
        .find(|p| p.kind == "exact" && p.batch == 8)
        .expect("batch-8 exact point measured");
    println!(
        "\nbatch-8 exact speedup: {:.2}x (acceptance floor 1.30x)",
        floor.speedup
    );
    assert!(
        floor.speedup >= 1.3,
        "batched GEMM speedup {:.2}x below the 1.3x acceptance floor",
        floor.speedup
    );
}
