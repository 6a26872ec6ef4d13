//! Bench regression gate: `cargo run -p lad-bench --bin bench_check`.
//!
//! Reads the committed `BENCH_*.json` baselines at the repo root, validates
//! their schemas, then re-runs the gated measurements in quick mode and
//! fails — nonzero exit — if any measured ratio crosses its acceptance
//! floor or ceiling:
//!
//! * the `gemm_batch` batch-8 per-sample vs batched-GEMM per-token speedup
//!   (floor 1.3x);
//! * the `spec_decode` draft/verify vs plain-decode speedup at the best
//!   draft depth (floor 1.0x — speculation must never lose), with mean
//!   accepted length > 1.0 (the verifier must accept real draft tokens,
//!   not just the bonus token);
//! * the `gemm_kernels` microkernel ratios: SIMD f32 GEMM at least 1.5x the
//!   scalar microkernel on the MLP shape (and bit-identical to it), the
//!   fp16 KV score read at least 1.2x the sequential f32 read, the whole
//!   exact head read (`reference::exact_attention`, d 64 × n 1024) at least
//!   1.3x faster on the SIMD kernels than on scalar (and bit-identical to
//!   it), and the SIMD GEMM's row staircase time(m = 16) ÷ time(m = 8) at
//!   most 1.6 (the 16-row AVX-512F panel). The section names the GEMM panel
//!   widths this host runs. Skipped (with a notice) on hosts without
//!   AVX2+F16C, and the staircase alone on hosts without AVX-512F, where
//!   only the committed numbers are checked;
//! * the `obs_overhead` enabled-recorder cost: serving steps/s with spans,
//!   metrics and the request timeline all recording may run at most 5%
//!   behind the recorders-off run of the identical workload;
//! * the `backend_quality` quality-per-byte-moved ratios of the sparse
//!   backend zoo: on every (dataset, length) cell the best non-exact
//!   backend holds 0.95x of exact attention's agreement per KV megabyte
//!   moved, and somewhere in the sweep a sparse backend beats exact by
//!   1.2x. This gate is fully deterministic (traffic counters, not timers),
//!   so the quick re-measurement runs one small cell in-process and must
//!   reproduce the effect exactly.
//!
//! Additionally, every `BENCH_*.json` at the repo root must be one this
//! binary knows how to gate — a new committed baseline without a matching
//! gate here fails the run.
//!
//! The gates compare **ratios, not absolute times**: both sides of each
//! comparison run in the same process on the same machine back to back, so
//! CI noise that slows the box slows both sides and cancels out. That is
//! what makes these non-flaky smokes — large effects gated at loose floors,
//! measured as ratios.

use lad_accel::paged::{BlockPool, BLOCK_TOKENS};
use lad_bench::{decode_per_sample, section};
use lad_core::decoder::LadConfig;
use lad_core::kv::{KvCache, KvPrecision};
use lad_core::reference;
use lad_eval::backends::backend_quality_report;
use lad_eval::datasets::alpaca_shaped;
use lad_math::gemm::{gemm_bt_into, GemmScratch};
use lad_math::{with_kernel, Kernel, Rng};
use lad_model::backend::AttentionKind;
use lad_model::batch::decode_batch_gemm;
use lad_model::config::ModelConfig;
use lad_model::spec::SpecConfig;
use lad_model::transformer::Model;
use lad_obs::json::{self, Value};
use lad_serve::{Engine, Request, ServeConfig};
use std::time::Instant;

/// Acceptance floor the `gemm_batch` bench commits to (batch-8 exact).
const SPEEDUP_FLOOR: f64 = 1.3;

/// Acceptance floor the `spec_decode` bench commits to: at its best draft
/// depth, speculative decoding must at least match plain decoding.
const SPEC_FLOOR: f64 = 1.0;

/// Acceptance floor of the `gemm_kernels` SIMD f32 GEMM row (vs scalar).
const SIMD_GEMM_FLOOR: f64 = 1.5;

/// Acceptance floor of the `gemm_kernels` fp16 KV score read row (vs f32).
const F16_READ_FLOOR: f64 = 1.2;

/// Acceptance floor of the `gemm_kernels` exact f32 head read row (SIMD vs
/// scalar kernels).
const KV_READ_F32_FLOOR: f64 = 1.3;

/// Ceiling of the `gemm_kernels` row staircase row: SIMD f32 GEMM
/// time(m = 16) ÷ time(m = 8) at n 512 × k 512, on AVX-512F hosts.
const ROWS16_CEILING: f64 = 1.6;

/// Ceiling on the enabled-recorder serving overhead (percent) committed
/// by the `obs_overhead` bench.
const OBS_OVERHEAD_CEILING_PCT: f64 = 5.0;

/// Per-cell floor of the `backend_quality` bench: the best non-exact
/// backend must stay within 5% of exact attention on quality per megabyte
/// of KV traffic.
const BACKEND_QPB_FLOOR: f64 = 0.95;

/// Sweep-wide floor of the `backend_quality` bench: somewhere a sparse
/// backend must beat exact attention outright on quality per byte moved.
const BACKEND_HERO_FLOOR: f64 = 1.2;

/// Every committed baseline this binary gates. Any other `BENCH_*.json` at
/// the repo root is a baseline without a floor, and fails the run.
const KNOWN_BASELINES: [&str; 5] = [
    "BENCH_gemm.json",
    "BENCH_spec.json",
    "BENCH_kernels.json",
    "BENCH_backends.json",
    "BENCH_obs.json",
];

/// Quick-mode decode length: half the committed run, same prompt length.
/// Only the ratio matters, so the shorter run does not move the gate.
const PROMPT_LEN: usize = 32;
const STEPS: usize = 16;
const BATCH: usize = 8;

fn fail(msg: &str) -> ! {
    eprintln!("bench_check: FAIL: {msg}");
    std::process::exit(1);
}

fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn load(name: &str) -> Value {
    let path = repo_root().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    json::parse(&text).unwrap_or_else(|e| fail(&format!("{name}: {e}")))
}

/// Requires `doc` to carry the common baseline envelope plus, per result
/// row, every field in `required` with a numeric value. Returns the rows.
fn check_schema<'a>(name: &str, doc: &'a Value, required: &[&str]) -> &'a [Value] {
    for field in ["bench", "model"] {
        if doc.get(field).and_then(Value::as_str).is_none() {
            fail(&format!("{name}: missing string field '{field}'"));
        }
    }
    if doc.get("host_cores").and_then(Value::as_u64).is_none() {
        fail(&format!("{name}: missing numeric field 'host_cores'"));
    }
    let results = doc
        .get("results")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(&format!("{name}: missing results array")));
    if results.is_empty() {
        fail(&format!("{name}: empty results array"));
    }
    for (i, row) in results.iter().enumerate() {
        if row.get("kind").and_then(Value::as_str).is_none() {
            fail(&format!("{name}: results[{i}]: missing string 'kind'"));
        }
        for field in required {
            match row.get(field).and_then(Value::as_f64) {
                Some(v) if v.is_finite() => {}
                _ => fail(&format!(
                    "{name}: results[{i}]: missing/invalid numeric '{field}'"
                )),
            }
        }
    }
    results
}

/// The committed batch-8 exact speedup from `BENCH_gemm.json`.
fn recorded_speedup(results: &[Value]) -> f64 {
    let row = results
        .iter()
        .find(|r| {
            r.get("kind").and_then(Value::as_str) == Some("exact")
                && r.get("batch").and_then(Value::as_u64) == Some(BATCH as u64)
        })
        .unwrap_or_else(|| fail("BENCH_gemm.json: no exact batch-8 row"));
    row.get("speedup")
        .and_then(Value::as_f64)
        .expect("validated above")
}

/// The committed enabled-recorder overhead (percent, with its ceiling)
/// from `BENCH_obs.json`.
fn recorded_obs_overhead(results: &[Value]) -> (f64, f64) {
    let row = results
        .iter()
        .find(|r| r.get("kind").and_then(Value::as_str) == Some("recorder_on"))
        .unwrap_or_else(|| fail("BENCH_obs.json: no recorder_on row"));
    let overhead = row
        .get("overhead_pct")
        .and_then(Value::as_f64)
        .expect("validated above");
    let ceiling = row
        .get("max_overhead_pct")
        .and_then(Value::as_f64)
        .expect("validated above");
    (overhead, ceiling)
}

/// The committed best speculative (speedup, mean accepted length) from
/// `BENCH_spec.json`, taken over every non-plain row.
fn recorded_spec_best(results: &[Value]) -> (String, f64, f64) {
    results
        .iter()
        .filter(|r| r.get("kind").and_then(Value::as_str) != Some("plain"))
        .map(|r| {
            (
                r.get("kind")
                    .and_then(Value::as_str)
                    .expect("validated above")
                    .to_string(),
                r.get("speedup_vs_plain")
                    .and_then(Value::as_f64)
                    .expect("validated above"),
                r.get("mean_accepted_len")
                    .and_then(Value::as_f64)
                    .expect("validated above"),
            )
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or_else(|| fail("BENCH_spec.json: no speculative row"))
}

/// Validates the `BENCH_kernels.json` rows: every row meets its own
/// recorded gate (`speedup ≥ floor`, or `ratio ≤ ceiling`), and the four
/// hard-gated kinds are present with gates no weaker than this binary's
/// constants (a committed baseline cannot quietly lower the bar). Returns
/// the recorded (simd-gemm, f16-read, f32-read, rows16) ratios.
fn check_kernel_rows(results: &[Value]) -> (f64, f64, f64, f64) {
    let field = |row: &Value, name: &str| -> Option<f64> { row.get(name).and_then(Value::as_f64) };
    fn kind(row: &Value) -> &str {
        row.get("kind")
            .and_then(Value::as_str)
            .expect("validated above")
    }
    for row in results {
        let kind = kind(row);
        match (
            field(row, "speedup"),
            field(row, "floor"),
            field(row, "ratio"),
            field(row, "ceiling"),
        ) {
            (Some(speedup), Some(floor), None, None) if speedup < floor => fail(&format!(
                "BENCH_kernels.json: {kind} records {speedup:.2}x, below its own \
                 {floor:.2}x floor — the baseline itself regressed"
            )),
            (None, None, Some(ratio), Some(ceiling)) if ratio > ceiling => fail(&format!(
                "BENCH_kernels.json: {kind} records {ratio:.2}x, above its own \
                 {ceiling:.2}x ceiling — the baseline itself regressed"
            )),
            (Some(_), Some(_), None, None) | (None, None, Some(_), Some(_)) => {}
            _ => fail(&format!(
                "BENCH_kernels.json: {kind} needs either speedup + floor or ratio + ceiling"
            )),
        }
    }
    let find = |name: &str| -> &Value {
        results
            .iter()
            .find(|r| kind(r) == name)
            .unwrap_or_else(|| fail(&format!("BENCH_kernels.json: no {name} row")))
    };
    let floored = |name: &str, min_floor: f64| -> f64 {
        let row = find(name);
        if field(row, "floor").unwrap_or(f64::NEG_INFINITY) < min_floor {
            fail(&format!(
                "BENCH_kernels.json: {name} floor weakened below {min_floor:.2}x"
            ));
        }
        field(row, "speedup").expect("validated above")
    };
    let gemm = floored("gemm_f32", SIMD_GEMM_FLOOR);
    let f16 = floored("kv_read_f16", F16_READ_FLOOR);
    let f32_read = floored("kv_read_f32", KV_READ_F32_FLOOR);
    if field(find("kv_read_f32"), "bit_exact") != Some(1.0) {
        fail("BENCH_kernels.json: kv_read_f32 must record bit_exact: 1");
    }
    let rows16_row = find("gemm_f32_rows16");
    if field(rows16_row, "ceiling").unwrap_or(f64::INFINITY) > ROWS16_CEILING {
        fail(&format!(
            "BENCH_kernels.json: gemm_f32_rows16 ceiling loosened above {ROWS16_CEILING:.2}x"
        ));
    }
    let rows16 = field(rows16_row, "ratio").expect("validated above");
    (gemm, f16, f32_read, rows16)
}

/// Validates the committed `BENCH_backends.json` rows: agreements are
/// fractions, every (dataset, gen_len) cell has an exact row that is its
/// own reference, the cell's best non-exact quality-per-byte ratio meets
/// the per-cell floor, and the H2O family actually evicted. Returns the
/// recorded sweep-wide best ratio.
fn check_backend_rows(results: &[Value]) -> f64 {
    let field = |row: &Value, name: &str| -> f64 {
        row.get(name)
            .and_then(Value::as_f64)
            .expect("validated above")
    };
    let mut cells: Vec<(String, u64)> = Vec::new();
    let mut evictions = 0.0;
    for row in results {
        let agreement = field(row, "agreement");
        if !(0.0..=1.0).contains(&agreement) {
            fail("BENCH_backends.json: agreement outside [0, 1]");
        }
        evictions += field(row, "evictions");
        let kind = row
            .get("kind")
            .and_then(Value::as_str)
            .expect("validated above");
        if kind == "exact"
            && (agreement != 1.0 || (field(row, "qpb_ratio_vs_exact") - 1.0).abs() > 1e-6)
        {
            fail("BENCH_backends.json: an exact row is not its own reference");
        }
        let cell = (
            row.get("dataset")
                .and_then(Value::as_str)
                .unwrap_or_else(|| fail("BENCH_backends.json: row missing string 'dataset'"))
                .to_string(),
            field(row, "gen_len") as u64,
        );
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    if evictions <= 0.0 {
        fail("BENCH_backends.json: the H2O rows never evicted");
    }
    let mut hero = f64::NEG_INFINITY;
    for (dataset, gen_len) in &cells {
        let best = results
            .iter()
            .filter(|r| {
                r.get("dataset").and_then(Value::as_str) == Some(dataset)
                    && field(r, "gen_len") as u64 == *gen_len
                    && r.get("kind").and_then(Value::as_str) != Some("exact")
            })
            .map(|r| field(r, "qpb_ratio_vs_exact"))
            .fold(f64::NEG_INFINITY, f64::max);
        if best < BACKEND_QPB_FLOOR {
            fail(&format!(
                "BENCH_backends.json: {dataset}/g{gen_len} records a best non-exact \
                 quality-per-byte ratio of {best:.2}x, below the {BACKEND_QPB_FLOOR:.2}x \
                 floor — the baseline itself regressed"
            ));
        }
        hero = hero.max(best);
    }
    if hero < BACKEND_HERO_FLOOR {
        fail(&format!(
            "BENCH_backends.json: sweep-best quality-per-byte ratio {hero:.2}x never \
             reached the {BACKEND_HERO_FLOOR:.2}x floor — no sparse backend beat exact"
        ));
    }
    hero
}

/// Quick re-measurement of the backend-zoo quality-per-byte effect: the
/// committed sweep's hero cell (alpaca-shaped, gen 32), four backends,
/// in-process. The traffic counters are deterministic, so unlike the timed
/// gates this one must reproduce exactly; it pins that H2O eviction still
/// beats exact attention per KV byte moved on the short-prompt workload.
fn measure_backend_qpb() -> (f64, f64) {
    let model = Model::random(ModelConfig::tiny("backend-bench", 2, 256, 4), 7);
    let mut bench = alpaca_shaped(256, 2, 23);
    bench.gen_len = 32;
    let kinds = vec![
        ("exact".to_string(), AttentionKind::Exact),
        ("lad".to_string(), AttentionKind::Lad(LadConfig::default())),
        ("topk-16".to_string(), AttentionKind::topk(16)),
        ("h2o-8+4".to_string(), AttentionKind::h2o_budget(8, 4)),
    ];
    let rows = backend_quality_report(&model, &[bench], &kinds);
    let exact_qpb = rows[0].quality_per_mbyte_moved();
    if rows[0].backend != "exact" || rows[0].agreement != 1.0 {
        fail("backend_quality re-measure: exact row is not its own reference");
    }
    if rows[3].evictions == 0 {
        fail("backend_quality re-measure: the H2O cell never evicted");
    }
    let best = rows[1..]
        .iter()
        .map(|r| r.quality_per_mbyte_moved() / exact_qpb)
        .fold(f64::NEG_INFINITY, f64::max);
    let h2o = rows[3].quality_per_mbyte_moved() / exact_qpb;
    (best, h2o)
}

/// Fails on any `BENCH_*.json` at the repo root this binary has no gate
/// for — committed baselines must never be floor-less.
fn check_no_ungated_baselines() {
    let entries = std::fs::read_dir(repo_root())
        .unwrap_or_else(|e| fail(&format!("cannot list repo root: {e}")));
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("BENCH_")
            && name.ends_with(".json")
            && !KNOWN_BASELINES.contains(&name.as_ref())
        {
            fail(&format!(
                "{name} is committed but bench_check has no gate for it — \
                 add a schema check and an acceptance floor"
            ));
        }
    }
}

/// Best-of-5 mean microseconds per call over `iters` calls.
fn time_us(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
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

/// Quick re-measurement of the two gated microkernel ratios, same shapes as
/// the committed `gemm_kernels` bench at a quarter of the iterations.
/// Returns (simd-gemm speedup, f16-read speedup).
fn measure_kernel_ratios() -> (f64, f64) {
    const M: usize = 8;
    const N: usize = 512;
    const K: usize = 256;
    const KV_DIM: usize = 64;
    const KV_POSITIONS: usize = 4096;
    let mut rng = Rng::new(0x51);
    let a = rng.normal_vec(M * K, 1.0);
    let b_t = rng.normal_vec(N * K, 1.0);
    let mut c_scalar = vec![0.0f32; M * N];
    let mut c_simd = vec![0.0f32; M * N];
    let mut scratch = GemmScratch::default();
    let scalar_us = with_kernel(Kernel::Scalar, || {
        time_us(25, || {
            gemm_bt_into(M, N, K, &a, &b_t, &mut c_scalar, &mut scratch)
        })
    });
    let simd_us = with_kernel(Kernel::Simd, || {
        time_us(25, || {
            gemm_bt_into(M, N, K, &a, &b_t, &mut c_simd, &mut scratch)
        })
    });
    if c_scalar != c_simd {
        fail("SIMD f32 GEMM diverged from the scalar microkernel (must be bit-identical)");
    }
    let mut kv32 = KvCache::new(KV_DIM);
    let mut kv16 = KvCache::with_precision(KV_DIM, KvPrecision::F16);
    for _ in 0..KV_POSITIONS {
        let key = rng.normal_vec(KV_DIM, 1.0);
        let value = rng.normal_vec(KV_DIM, 1.0);
        kv32.push(&key, &value);
        kv16.push(&key, &value);
    }
    let q = rng.normal_vec(KV_DIM, 1.0);
    let mut scores = Vec::with_capacity(KV_POSITIONS);
    // The committed row's f32 side is the sequential (scalar-kernel) dot.
    let f32_us = with_kernel(Kernel::Scalar, || {
        time_us(50, || {
            scores.clear();
            kv32.score_keys_into(&q, &mut scores);
        })
    });
    let f16_us = with_kernel(Kernel::Simd, || {
        time_us(50, || {
            scores.clear();
            kv16.score_keys_into(&q, &mut scores);
        })
    });
    (scalar_us / simd_us, f32_us / f16_us)
}

/// Quick re-measurement of the exact f32 head read, same shape as the
/// committed `gemm_kernels` row at a quarter of its iterations: scalar
/// kernels ÷ SIMD kernels, with the outputs required bit-identical.
fn measure_kv_read_f32() -> f64 {
    const KV_DIM: usize = 64;
    const POSITIONS: usize = 1024;
    let mut rng = Rng::new(0x32);
    let mut kv = KvCache::new(KV_DIM);
    for _ in 0..POSITIONS {
        let key = rng.normal_vec(KV_DIM, 1.0);
        let value = rng.normal_vec(KV_DIM, 1.0);
        kv.push(&key, &value);
    }
    let q = rng.normal_vec(KV_DIM, 1.0);
    let mut scalar = Vec::new();
    let mut simd = Vec::new();
    let scalar_us = with_kernel(Kernel::Scalar, || {
        time_us(50, || scalar = reference::exact_attention(&q, &kv))
    });
    let simd_us = with_kernel(Kernel::Simd, || {
        time_us(50, || simd = reference::exact_attention(&q, &kv))
    });
    if scalar != simd {
        fail("SIMD exact attention read diverged from the scalar kernels (must be bit-identical)");
    }
    scalar_us / simd_us
}

/// Quick re-measurement of the row staircase, same shape as the committed
/// `gemm_kernels` row at half its iterations: SIMD f32 GEMM time(m = 16) ÷
/// time(m = 8), with the 16-row result required bit-identical to scalar.
/// `None` on hosts without AVX-512F, where the 16-row panel does not exist.
fn measure_rows16() -> Option<f64> {
    const N: usize = 512;
    const K: usize = 512;
    if !lad_math::simd::avx512_supported() {
        return None;
    }
    let mut rng = Rng::new(0x16);
    let b_t = rng.normal_vec(N * K, 1.0);
    let a = rng.normal_vec(16 * K, 1.0);
    let mut c8 = vec![0.0f32; 8 * N];
    let mut c16 = vec![0.0f32; 16 * N];
    let mut c16_scalar = vec![0.0f32; 16 * N];
    let mut scratch = GemmScratch::default();
    let (t8, t16) = with_kernel(Kernel::Simd, || {
        let t8 = time_us(50, || {
            gemm_bt_into(8, N, K, &a[..8 * K], &b_t, &mut c8, &mut scratch)
        });
        let t16 = time_us(50, || {
            gemm_bt_into(16, N, K, &a, &b_t, &mut c16, &mut scratch)
        });
        (t8, t16)
    });
    with_kernel(Kernel::Scalar, || {
        gemm_bt_into(16, N, K, &a, &b_t, &mut c16_scalar, &mut scratch)
    });
    if c16 != c16_scalar {
        fail("16-row SIMD f32 GEMM diverged from the scalar microkernel (must be bit-identical)");
    }
    Some(t16 / t8)
}

/// Quick serving workload for the recorder-overhead re-measurement: two
/// waves of four ragged requests against a batch budget of 4, so the
/// engine admits mid-flight, retires raggedly and back-fills freed slots
/// while every recorder is on. (id, prompt_len, max_tokens,
/// arrival_step.)
const SERVE_WORKLOAD: [(u64, usize, usize, usize); 8] = [
    (0, 12, 24, 0),
    (1, 8, 8, 0),
    (2, 14, 40, 1),
    (3, 9, 12, 2),
    (4, 10, 16, 8),
    (5, 12, 32, 8),
    (6, 7, 8, 9),
    (7, 11, 20, 10),
];

fn serve_requests() -> Vec<Request> {
    SERVE_WORKLOAD
        .iter()
        .map(|&(id, plen, max, at)| {
            let prompt: Vec<u32> = (0..plen)
                .map(|i| ((i as u64 * 37 + 5 + id * 13) % 256) as u32)
                .collect();
            Request::new(id, prompt, max).arriving_at(at)
        })
        .collect()
}

/// Quick spec re-measurement: the same model/prompt recipe as the
/// committed `spec_decode` bench at half the decode length, each run served
/// as the only request of an engine that prefills the prompt in one tick.
/// Returns the best speculative speedup over plain decoding (recency and
/// ngram-pool drafters at K = 4) and that run's mean accepted length; token
/// streams are asserted identical to the plain run.
fn measure_spec_speedup() -> (f64, f64) {
    const SPEC_STEPS: usize = 128;
    let model_cfg = ModelConfig::tiny("spec-bench", 2, 256, 4);
    let model = Model::random(model_cfg.clone(), 7);
    let kind = AttentionKind::Exact;
    let prompt: Vec<u32> = (0..16u32).map(|i| (i * 31 + 5) % 256).collect();
    let block_bytes = model_cfg.layers * 2 * model_cfg.hidden * 2 * BLOCK_TOKENS;
    let serve_cfg = ServeConfig {
        prefill_chunk: prompt.len(),
        ..ServeConfig::default()
    };
    let run = |cfg: &SpecConfig| {
        time_per_token(SPEC_STEPS as f64, || {
            let blocks = BlockPool::blocks_for(prompt.len() + SPEC_STEPS);
            let pool = BlockPool::new(&model_cfg, blocks * block_bytes);
            let mut engine = Engine::new(&model, &kind, pool, serve_cfg.clone());
            engine
                .submit(Request::new(0, prompt.clone(), SPEC_STEPS).with_speculation(cfg.clone()));
            engine.run()
        })
    };
    let (plain, plain_t) = run(&SpecConfig::recency(0));
    [SpecConfig::recency(4), SpecConfig::ngram(4)]
        .iter()
        .map(|cfg| {
            let (report, t) = run(cfg);
            if report.outcomes[0].tokens != plain.outcomes[0].tokens {
                fail("speculative decode diverged from the plain stream");
            }
            (plain_t / t, report.mean_accepted_len())
        })
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("two speculative configs measured")
}

/// Quick recorder-overhead re-measurement: the serving workload above,
/// best-of-3 steps/s with every recorder off vs on, same process.
fn measure_obs_overhead_pct(model: &Model) -> f64 {
    let model_cfg = ModelConfig::tiny("gemm", 2, 256, 4);
    let cfg = ServeConfig {
        max_active: 4,
        prefill_chunk: 1,
        ..ServeConfig::default()
    };
    let block_bytes = model_cfg.layers * 2 * model_cfg.hidden * 2 * BLOCK_TOKENS;
    let serve = || {
        let pool = BlockPool::new(&model_cfg, 256 * block_bytes);
        let mut engine = Engine::new(model, &AttentionKind::Exact, pool, cfg.clone());
        for req in serve_requests() {
            engine.submit(req);
        }
        engine.run()
    };
    let best = |on: bool| -> f64 {
        lad_obs::set_enabled(on);
        lad_obs::metrics::set_metrics_enabled(on);
        lad_obs::timeline::set_timeline_enabled(on);
        let mut top = 0.0f64;
        for _ in 0..3 {
            let r = serve();
            top = top.max(r.steps as f64 / r.wall.as_secs_f64().max(1e-12));
        }
        lad_obs::set_enabled(false);
        lad_obs::metrics::set_metrics_enabled(false);
        lad_obs::timeline::set_timeline_enabled(false);
        top
    };
    let off = best(false);
    let on = best(true);
    let _ = lad_obs::drain();
    let _ = lad_obs::timeline::drain_timeline();
    (off - on) / off * 100.0
}

/// Best-of-3 wall-clock seconds per token for one decode closure.
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

fn main() {
    section("bench_check: committed baseline schemas");
    let gemm_doc = load("BENCH_gemm.json");
    let gemm_results = check_schema(
        "BENCH_gemm.json",
        &gemm_doc,
        &[
            "batch",
            "per_sample_ms_per_token",
            "batched_ms_per_token",
            "speedup",
            "gemm_calls",
            "sync_barriers",
        ],
    );
    let spec_doc = load("BENCH_spec.json");
    let spec_results = check_schema(
        "BENCH_spec.json",
        &spec_doc,
        &[
            "ms_per_token",
            "speedup_vs_plain",
            "acceptance_rate",
            "mean_accepted_len",
            "rounds",
            "forward_steps",
            "drafted",
            "accepted",
        ],
    );
    let kernels_doc = load("BENCH_kernels.json");
    let kernel_results = check_schema(
        "BENCH_kernels.json",
        &kernels_doc,
        &["baseline_us", "variant_us", "bit_exact"],
    );
    let obs_doc = load("BENCH_obs.json");
    let obs_results = check_schema(
        "BENCH_obs.json",
        &obs_doc,
        &["steps_per_s", "overhead_pct", "max_overhead_pct"],
    );
    let backends_doc = load("BENCH_backends.json");
    let backend_results = check_schema(
        "BENCH_backends.json",
        &backends_doc,
        &[
            "gen_len",
            "agreement",
            "mbytes_moved",
            "evictions",
            "quality_per_mbyte",
            "qpb_ratio_vs_exact",
        ],
    );
    println!(
        "BENCH_gemm.json / BENCH_spec.json / BENCH_kernels.json / BENCH_backends.json / \
         BENCH_obs.json: schemas ok"
    );
    check_no_ungated_baselines();
    println!("no ungated BENCH_*.json at the repo root");

    let recorded_backend_hero = check_backend_rows(backend_results);
    println!(
        "recorded backend-zoo best quality-per-byte ratio: {recorded_backend_hero:.2}x \
         (per-cell floor {BACKEND_QPB_FLOOR:.2}x, sweep floor {BACKEND_HERO_FLOOR:.2}x)"
    );

    let (recorded_simd_gemm, recorded_f16_read, recorded_f32_read, recorded_rows16) =
        check_kernel_rows(kernel_results);
    println!(
        "recorded microkernel ratios: gemm_f32 {recorded_simd_gemm:.2}x \
         (floor {SIMD_GEMM_FLOOR:.2}x), kv_read_f16 {recorded_f16_read:.2}x \
         (floor {F16_READ_FLOOR:.2}x), kv_read_f32 {recorded_f32_read:.2}x \
         (floor {KV_READ_F32_FLOOR:.2}x), gemm_f32_rows16 {recorded_rows16:.2}x \
         (ceiling {ROWS16_CEILING:.2}x)"
    );

    let (recorded_obs, recorded_obs_ceiling) = recorded_obs_overhead(obs_results);
    println!(
        "recorded enabled-recorder overhead: {recorded_obs:.2}% \
         (ceiling {OBS_OVERHEAD_CEILING_PCT:.1}%)"
    );
    if recorded_obs_ceiling > OBS_OVERHEAD_CEILING_PCT {
        fail(&format!(
            "BENCH_obs.json commits a {recorded_obs_ceiling:.1}% ceiling, weaker than \
             this binary's {OBS_OVERHEAD_CEILING_PCT:.1}% gate"
        ));
    }
    if recorded_obs > OBS_OVERHEAD_CEILING_PCT {
        fail(&format!(
            "committed recorder overhead {recorded_obs:.2}% exceeds the \
             {OBS_OVERHEAD_CEILING_PCT:.1}% ceiling — the baseline itself regressed"
        ));
    }

    let (spec_kind, recorded_spec, recorded_accept_len) = recorded_spec_best(spec_results);
    println!(
        "recorded best speculative speedup: {recorded_spec:.2}x ({spec_kind}, \
         {recorded_accept_len:.2} tokens/round; floor {SPEC_FLOOR:.2}x)"
    );
    if recorded_spec < SPEC_FLOOR {
        fail(&format!(
            "committed speculative baseline records {recorded_spec:.2}x, below the \
             {SPEC_FLOOR:.2}x floor — the baseline itself regressed"
        ));
    }
    if recorded_accept_len <= 1.0 {
        fail(&format!(
            "committed speculative baseline records {recorded_accept_len:.2} accepted \
             tokens/round — the verifier never accepted a real draft token"
        ));
    }

    let recorded = recorded_speedup(gemm_results);
    println!("recorded batch-8 exact speedup: {recorded:.2}x (floor {SPEEDUP_FLOOR:.2}x)");
    if recorded < SPEEDUP_FLOOR {
        fail(&format!(
            "committed baseline records {recorded:.2}x, below the {SPEEDUP_FLOOR:.2}x floor — \
             the baseline itself regressed"
        ));
    }

    section("bench_check: quick re-measurement (gemm_batch, exact, batch 8)");
    // Same model, seed and prompts as the committed `gemm_batch` bench.
    let model = Model::random(ModelConfig::tiny("gemm", 2, 256, 4), 7);
    let kind = AttentionKind::Exact;
    let prompts: Vec<Vec<u32>> = (0..BATCH)
        .map(|s| {
            (0..PROMPT_LEN as u32)
                .map(|i| (i * 31 + 5 + s as u32 * 17) % 256)
                .collect()
        })
        .collect();
    let total_tokens = (BATCH * (PROMPT_LEN + STEPS)) as f64;
    let (per_sample, per_sample_t) = time_per_token(total_tokens, || {
        decode_per_sample(&model, &kind, &prompts, STEPS)
    });
    let (batched, batched_t) = time_per_token(total_tokens, || {
        decode_batch_gemm(&model, &kind, &prompts, STEPS, 1)
    });
    if per_sample != batched.sequences {
        fail("batched-GEMM decode diverged from per-sample decoding");
    }
    let measured = per_sample_t / batched_t;
    println!(
        "per-sample {:.3} ms/tok, batched {:.3} ms/tok -> speedup {measured:.2}x \
         (recorded {recorded:.2}x, floor {SPEEDUP_FLOOR:.2}x)",
        per_sample_t * 1e3,
        batched_t * 1e3,
    );
    if measured < SPEEDUP_FLOOR {
        fail(&format!(
            "measured speedup {measured:.2}x regressed below the {SPEEDUP_FLOOR:.2}x floor \
             (baseline recorded {recorded:.2}x)"
        ));
    }

    section("bench_check: quick re-measurement (obs_overhead, recorders on vs off)");
    let obs_overhead = measure_obs_overhead_pct(&model);
    println!(
        "enabled-recorder overhead {obs_overhead:.2}% (recorded {recorded_obs:.2}%, \
         ceiling {OBS_OVERHEAD_CEILING_PCT:.1}%)"
    );
    if obs_overhead > OBS_OVERHEAD_CEILING_PCT {
        fail(&format!(
            "measured recorder overhead {obs_overhead:.2}% exceeds the \
             {OBS_OVERHEAD_CEILING_PCT:.1}% ceiling (baseline recorded \
             {recorded_obs:.2}%)"
        ));
    }

    section("bench_check: quick re-measurement (spec_decode, draft/verify vs plain)");
    let (spec_ratio, accept_len) = measure_spec_speedup();
    println!(
        "best speculative speedup {spec_ratio:.2}x, {accept_len:.2} tokens/round \
         (recorded {recorded_spec:.2}x, floor {SPEC_FLOOR:.2}x)"
    );
    if spec_ratio < SPEC_FLOOR {
        fail(&format!(
            "measured speculative speedup {spec_ratio:.2}x regressed below the \
             {SPEC_FLOOR:.2}x floor (baseline recorded {recorded_spec:.2}x)"
        ));
    }
    if accept_len <= 1.0 {
        fail(&format!(
            "measured accepted length {accept_len:.2} tokens/round — the verifier \
             never accepted a real draft token"
        ));
    }

    section("bench_check: quick re-measurement (backend_quality, one alpaca cell)");
    let (backend_best, backend_h2o) = measure_backend_qpb();
    println!(
        "best non-exact qpb ratio {backend_best:.2}x, h2o-8+4 {backend_h2o:.2}x \
         (recorded sweep best {recorded_backend_hero:.2}x, floor {BACKEND_QPB_FLOOR:.2}x)"
    );
    if backend_best < BACKEND_QPB_FLOOR {
        fail(&format!(
            "measured backend-zoo quality-per-byte ratio {backend_best:.2}x regressed \
             below the {BACKEND_QPB_FLOOR:.2}x floor (baseline recorded \
             {recorded_backend_hero:.2}x sweep best)"
        ));
    }
    if backend_h2o < BACKEND_HERO_FLOOR {
        fail(&format!(
            "measured H2O quality-per-byte ratio {backend_h2o:.2}x regressed below the \
             {BACKEND_HERO_FLOOR:.2}x hero floor — eviction no longer pays for itself \
             on the hero cell"
        ));
    }

    section("bench_check: quick re-measurement (gemm_kernels, scalar vs SIMD)");
    println!("gemm panels: {}", lad_math::simd::gemm_panels());
    if Kernel::Simd.available() {
        let (simd_gemm, f16_read) = measure_kernel_ratios();
        println!(
            "gemm_f32 {simd_gemm:.2}x (recorded {recorded_simd_gemm:.2}x, floor \
             {SIMD_GEMM_FLOOR:.2}x), kv_read_f16 {f16_read:.2}x (recorded \
             {recorded_f16_read:.2}x, floor {F16_READ_FLOOR:.2}x)"
        );
        if simd_gemm < SIMD_GEMM_FLOOR {
            fail(&format!(
                "measured SIMD GEMM speedup {simd_gemm:.2}x regressed below the \
                 {SIMD_GEMM_FLOOR:.2}x floor (baseline recorded {recorded_simd_gemm:.2}x)"
            ));
        }
        if f16_read < F16_READ_FLOOR {
            fail(&format!(
                "measured fp16 KV read speedup {f16_read:.2}x regressed below the \
                 {F16_READ_FLOOR:.2}x floor (baseline recorded {recorded_f16_read:.2}x)"
            ));
        }
        let f32_read = measure_kv_read_f32();
        println!(
            "kv_read_f32 {f32_read:.2}x (recorded {recorded_f32_read:.2}x, floor \
             {KV_READ_F32_FLOOR:.2}x)"
        );
        if f32_read < KV_READ_F32_FLOOR {
            fail(&format!(
                "measured SIMD exact head read speedup {f32_read:.2}x regressed below the \
                 {KV_READ_F32_FLOOR:.2}x floor (baseline recorded {recorded_f32_read:.2}x)"
            ));
        }
        match measure_rows16() {
            Some(rows16) => {
                println!(
                    "gemm_f32_rows16 {rows16:.2}x (recorded {recorded_rows16:.2}x, ceiling \
                     {ROWS16_CEILING:.2}x)"
                );
                if rows16 > ROWS16_CEILING {
                    fail(&format!(
                        "measured 16-row GEMM staircase {rows16:.2}x rose above the \
                         {ROWS16_CEILING:.2}x ceiling (baseline recorded {recorded_rows16:.2}x)"
                    ));
                }
            }
            None => println!(
                "gemm_f32_rows16: AVX-512F not available on this host; SKIPPED the \
                 staircase re-measurement (the 16-row panel went unexercised; the \
                 committed row was still checked above)"
            ),
        }
    } else {
        println!(
            "AVX2+F16C not available on this host; skipping the microkernel \
             re-measurement, kv_read_f32 included (committed floors were still \
             enforced above)"
        );
    }
    println!("\nbench_check: OK");
}
