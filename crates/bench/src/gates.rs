//! The gated measurements: one implementation of every workload a committed
//! `BENCH_*.json` baseline records, the one timing estimator behind every
//! timed ratio, and the one table of bounds.
//!
//! The five recorders (`benches/{gemm_batch, gemm_kernels, spec_decode,
//! obs_overhead, backend_quality}.rs`) run these workloads at full size and
//! write their baseline with each row's bound taken from [`GATES`];
//! `bench_check` walks [`GATES`], checks each committed row against its bound
//! and re-measures it at quick size. Both sides time the same code the same
//! way, and every bound is declared once, here.
//!
//! Every timed gate is a **ratio of two sides measured in the same process**
//! by [`interleaved_ratio`]: back-to-back pairs, alternating which side runs
//! first, and the median of the per-pair ratios. A host hiccup lands inside
//! one pair instead of on one side, and one slow pair cannot move the median.

use lad_accel::paged::{BlockPool, BLOCK_TOKENS};
use lad_core::decoder::LadConfig;
use lad_core::kv::KvCache;
use lad_core::reference;
use lad_eval::backends::backend_quality_report;
use lad_eval::datasets::alpaca_shaped;
use lad_math::gemm::{gemm_bt_into, GemmScratch};
use lad_math::{with_kernel, Kernel, Rng};
use lad_model::backend::AttentionKind;
use lad_model::config::ModelConfig;
use lad_model::spec::SpecConfig;
use lad_model::transformer::{Model, Session};
use lad_obs::json::{self, Value};
use lad_serve::{Engine, Request, ServeConfig, ServeReport};
use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;
use Bound::{Above, AtLeast, AtMost};

/// Committed baseline of the `gemm_batch` recorder.
pub const GEMM_FILE: &str = "BENCH_gemm.json";
/// Committed baseline of the `spec_decode` recorder.
pub const SPEC_FILE: &str = "BENCH_spec.json";
/// Committed baseline of the `gemm_kernels` recorder.
pub const KERNELS_FILE: &str = "BENCH_kernels.json";
/// Committed baseline of the `obs_overhead` recorder.
pub const OBS_FILE: &str = "BENCH_obs.json";
/// Committed baseline of the `backend_quality` recorder.
pub const BACKENDS_FILE: &str = "BENCH_backends.json";

/// How a gated value must compare with its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A floor: the value must be at least this.
    AtLeast(f64),
    /// A strict floor: the value must exceed this.
    Above(f64),
    /// A ceiling: the value must be at most this.
    AtMost(f64),
}

impl Bound {
    /// The bound's number.
    pub fn value(self) -> f64 {
        match self {
            Bound::AtLeast(v) | Bound::Above(v) | Bound::AtMost(v) => v,
        }
    }

    /// Whether `v` meets the bound.
    pub fn holds(self, v: f64) -> bool {
        match self {
            Bound::AtLeast(b) => v >= b,
            Bound::Above(b) => v > b,
            Bound::AtMost(b) => v <= b,
        }
    }

    /// The worst of several values under this bound: the smallest against a
    /// floor, the largest against a ceiling.
    pub fn worst(self, values: impl IntoIterator<Item = f64>) -> f64 {
        let values = values.into_iter();
        match self {
            Bound::AtMost(_) => values.fold(f64::NEG_INFINITY, f64::max),
            _ => values.fold(f64::INFINITY, f64::min),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(v) => write!(f, ">= {v:.2}"),
            Bound::Above(v) => write!(f, "> {v:.2}"),
            Bound::AtMost(v) => write!(f, "<= {v:.2}"),
        }
    }
}

/// Which committed rows of a baseline a gate's bound applies to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Row {
    /// Every row of this `kind`.
    Kind(&'static str),
    /// The row of this `kind` at this `batch`.
    Batch(&'static str, u64),
    /// Within each group of rows that agree on the `per` fields, the row
    /// with the largest `by` among those whose `kind` is not `except`.
    Best {
        by: &'static str,
        except: &'static str,
        per: &'static [&'static str],
    },
}

impl Row {
    /// The committed rows this selects from a baseline's `results`.
    pub fn select<'a>(&self, rows: &'a [Value]) -> Vec<&'a Value> {
        fn kind(r: &Value) -> Option<&str> {
            r.get("kind").and_then(Value::as_str)
        }
        let num = |r: &Value, f: &str| r.get(f).and_then(Value::as_f64).unwrap_or(f64::NAN);
        match *self {
            Row::Kind(k) => rows.iter().filter(|r| kind(r) == Some(k)).collect(),
            Row::Batch(k, batch) => rows
                .iter()
                .filter(|r| kind(r) == Some(k))
                .filter(|r| r.get("batch").and_then(Value::as_u64) == Some(batch))
                .collect(),
            Row::Best { by, except, per } => {
                let mut best: Vec<&Value> = Vec::new();
                for r in rows.iter().filter(|r| kind(r) != Some(except)) {
                    match best
                        .iter_mut()
                        .find(|b| per.iter().all(|f| b.get(f) == r.get(f)))
                    {
                        Some(b) if num(r, by) > num(b, by) => *b = r,
                        Some(_) => {}
                        None => best.push(r),
                    }
                }
                best
            }
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Row::Kind(k) => write!(f, "{k}"),
            Row::Batch(k, batch) => write!(f, "{k} batch {batch}"),
            Row::Best { by, except, per } => {
                write!(f, "max {by} non-{except}")?;
                if !per.is_empty() {
                    write!(f, " per {}", per.join("/"))?;
                }
                Ok(())
            }
        }
    }
}

/// One gated quantity of a committed baseline.
pub struct Gate {
    /// Baseline file at the repo root.
    pub file: &'static str,
    /// The committed rows the bound applies to.
    pub row: Row,
    /// Numeric field of those rows.
    pub metric: &'static str,
    /// The bound, declared only here.
    pub bound: Bound,
    /// The measurement asserts bit-identity, and the committed row must
    /// record `bit_exact: 1`.
    pub bit_exact: bool,
    /// Quick re-measurement of `metric`, yielding `None` on a host without
    /// the kernels it times; `None` when only the recorder measures it.
    pub measure: Option<fn() -> Option<f64>>,
}

/// Best-of rows: the fastest speculative row; the best non-exact backend
/// of the sweep and of each (dataset, gen_len) cell; the most evictions.
#[rustfmt::skip]
mod best {
    use super::Row;
    pub const SPEC: Row = Row::Best { by: "speedup_vs_plain", except: "plain", per: &[] };
    pub const QPB: Row = Row::Best { by: "qpb_ratio_vs_exact", except: "exact", per: &[] };
    pub const CELL_QPB: Row = Row::Best { by: "qpb_ratio_vs_exact", except: "exact", per: &["dataset", "gen_len"] };
    pub const EVICTIONS: Row = Row::Best { by: "evictions", except: "exact", per: &[] };
}

/// Every gated quantity of every committed baseline: (file, row, metric,
/// bound, bit_exact, measure). A `BENCH_*.json` at the repo root that no
/// gate names fails `bench_check`.
#[rustfmt::skip]
pub static GATES: [Gate; 10] = [
    Gate { file: GEMM_FILE, row: Row::Batch("exact", 8), metric: "speedup", bound: AtLeast(1.3), bit_exact: false,
        measure: Some(|| Some(batch_point(&bench_model(), &AttentionKind::Exact, 8, 16, 5).speedup)) },
    Gate { file: SPEC_FILE, row: best::SPEC, metric: "speedup_vs_plain", bound: AtLeast(1.0), bit_exact: false,
        measure: Some(|| Some(quick_spec().0)) },
    Gate { file: SPEC_FILE, row: best::SPEC, metric: "mean_accepted_len", bound: Above(1.0), bit_exact: false,
        measure: Some(|| Some(quick_spec().1)) },
    Gate { file: KERNELS_FILE, row: Row::Kind("gemm_f32"), metric: "speedup", bound: AtLeast(1.5), bit_exact: true,
        measure: Some(|| kernel_point("gemm_f32").map(|p| p.speedup)) },
    Gate { file: KERNELS_FILE, row: Row::Kind("kv_read_f32"), metric: "speedup", bound: AtLeast(1.3), bit_exact: true,
        measure: Some(|| kernel_point("kv_read_f32").map(|p| p.speedup)) },
    Gate { file: KERNELS_FILE, row: Row::Kind("gemm_f32_rows16"), metric: "ratio", bound: AtMost(1.6), bit_exact: true,
        measure: Some(|| kernel_point("gemm_f32_rows16").map(|p| p.metric("ratio"))) },
    Gate { file: OBS_FILE, row: Row::Kind("recorder_on"), metric: "overhead_pct", bound: AtMost(5.0), bit_exact: false,
        measure: Some(|| Some(obs_point(&bench_model()).overhead_pct)) },
    Gate { file: BACKENDS_FILE, row: best::CELL_QPB, metric: "qpb_ratio_vs_exact", bound: AtLeast(0.95), bit_exact: false,
        measure: Some(|| Some(hero_cell().best)) },
    Gate { file: BACKENDS_FILE, row: best::QPB, metric: "qpb_ratio_vs_exact", bound: AtLeast(1.2), bit_exact: false,
        measure: Some(|| Some(hero_cell().h2o)) },
    Gate { file: BACKENDS_FILE, row: best::EVICTIONS, metric: "evictions", bound: Above(0.0), bit_exact: false,
        measure: Some(|| Some(hero_cell().h2o_evictions)) },
];

/// Fields in which a committed row echoes its gate's bound.
const BOUND_FIELDS: [&str; 3] = ["floor", "ceiling", "max_overhead_pct"];

impl Gate {
    /// The value `rows` record for this gate: the worst under the bound
    /// over the selected rows. Errs if no row is selected, a selected row
    /// lacks the metric, lacks `bit_exact: 1` where the gate asserts
    /// bit-identity, or echoes a bound other than this gate's. Whether the
    /// value meets the bound is left to the caller.
    pub fn recorded(&self, rows: &[Value]) -> Result<f64, String> {
        let num = |row: &Value, field: &str| row.get(field).and_then(Value::as_f64);
        let selected = self.row.select(rows);
        if selected.is_empty() {
            return Err(format!("no {} row", self.row));
        }
        for row in &selected {
            if self.bit_exact && num(row, "bit_exact") != Some(1.0) {
                return Err("must record bit_exact: 1".to_string());
            }
            for field in BOUND_FIELDS {
                match num(row, field) {
                    Some(v) if v != self.bound.value() => {
                        return Err(format!("records {field} {v}, not {}", self.bound))
                    }
                    _ => {}
                }
            }
        }
        let values: Option<Vec<f64>> = selected.iter().map(|r| num(r, self.metric)).collect();
        let values = values.ok_or_else(|| format!("no numeric '{}'", self.metric))?;
        Ok(self.bound.worst(values))
    }
}

// ---------------------------------------------------------------------------
// The estimator
// ---------------------------------------------------------------------------

/// One interleaved measurement of a baseline side against a variant side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    /// Median cost of the baseline side, in the unit its closure returns.
    pub baseline: f64,
    /// Median cost of the variant side.
    pub variant: f64,
    /// Median over the pairs of `baseline / variant`. The pair count is odd,
    /// so this is one pair's ratio and `1 / speedup` is exactly the median
    /// `variant / baseline`.
    pub speedup: f64,
}

/// The one estimator behind every timed gate: runs `pairs` back-to-back
/// (baseline, variant) pairs, the baseline first in even pairs and the
/// variant first in odd ones, and returns the median per-pair ratio with
/// each side's median cost. Each closure runs its side once and returns
/// its cost (for instance from `time_per_call`). `pairs` must be odd.
pub fn interleaved_ratio(
    mut baseline: impl FnMut() -> f64,
    mut variant: impl FnMut() -> f64,
    pairs: usize,
) -> Paired {
    assert!(
        pairs % 2 == 1,
        "an odd pair count keeps the median one pair"
    );
    let (mut base, mut var, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pairs {
        let (b, v) = if i % 2 == 0 {
            let b = baseline();
            (b, variant())
        } else {
            let v = variant();
            (baseline(), v)
        };
        base.push(b);
        var.push(v);
        ratios.push(b / v);
    }
    Paired {
        baseline: median(base),
        variant: median(var),
        speedup: median(ratios),
    }
}

/// The middle value (the upper one of an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Mean wall seconds per call of `f` over `iters` back-to-back calls.
fn time_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

// ---------------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------------

/// The recorders' model: the tiny preset (2 layers, 256 hidden, 4 heads),
/// seed 7. At 256 hidden each weight matrix is well past L1, so repeated
/// weight streaming shows at small batch sizes.
pub fn bench_model() -> Model {
    Model::random(ModelConfig::tiny("bench", 2, 256, 4), 7)
}

/// A paged pool of `blocks` KV blocks for `model`.
fn block_pool(model: &Model, blocks: usize) -> BlockPool {
    let cfg = model.config();
    BlockPool::new(cfg, blocks * cfg.layers * 2 * cfg.hidden * 2 * BLOCK_TOKENS)
}

/// Prompt length of the batch workload.
pub const BATCH_PROMPT_LEN: usize = 32;

/// The batch workload's `batch` prompts.
fn batch_prompts(batch: usize) -> Vec<Vec<u32>> {
    (0..batch as u32)
        .map(|s| {
            (0..BATCH_PROMPT_LEN as u32)
                .map(|i| (i * 31 + 5 + s * 17) % 256)
                .collect()
        })
        .collect()
}

/// Serves every prompt through one `Engine` for `steps` tokens each: all
/// requests arrive at tick 0 and are admitted together (`max_active` =
/// batch), each tick feeds one row per request (`prefill_chunk` 1), the run
/// is single-threaded (`parallelism` 1) and the pool holds every request
/// whole. Returns the generated tokens per prompt, prompt order, and the
/// ticks served.
fn serve_batch(
    model: &Model,
    kind: &AttentionKind,
    prompts: &[Vec<u32>],
    steps: usize,
) -> (Vec<Vec<u32>>, usize) {
    let cfg = ServeConfig {
        max_active: prompts.len(),
        prefill_chunk: 1,
        parallelism: 1,
        ..ServeConfig::default()
    };
    let blocks = prompts.len() * BlockPool::blocks_for(BATCH_PROMPT_LEN + steps);
    let mut engine = Engine::new(model, kind, block_pool(model, blocks), cfg);
    for (id, prompt) in prompts.iter().enumerate() {
        engine.submit(Request::new(id as u64, prompt.clone(), steps));
    }
    let mut report = engine.run();
    report.outcomes.sort_by_key(|o| o.id);
    let streams = report.outcomes.into_iter().map(|o| o.tokens).collect();
    (streams, report.steps)
}

/// The per-sample baseline the batched-GEMM speedup is measured against:
/// every prompt greedy-decoded alone through a fresh sequential [`Session`],
/// one after the other, so each weight matrix streams once per sample per
/// step. Returns the generated tokens per prompt, prompt order.
fn decode_per_sample(
    model: &Model,
    kind: &AttentionKind,
    prompts: &[Vec<u32>],
    steps: usize,
) -> Vec<Vec<u32>> {
    prompts
        .iter()
        .map(|prompt| Session::new(model, kind).generate_greedy(prompt, steps))
        .collect()
}

/// One point of the batch sweep.
pub struct BatchPoint {
    /// Median per-sample milliseconds per (prompt + generated) token.
    pub per_sample_ms: f64,
    /// Median batched milliseconds per token.
    pub batched_ms: f64,
    /// Median per-pair per-sample ÷ batched time.
    pub speedup: f64,
    /// Engine ticks the batched serve took.
    pub ticks: usize,
}

/// Per-sample `Session` decodes (`decode_per_sample`) against one batched
/// serve of `batch` prompts, `pairs` interleaved pairs; asserts the two
/// paths' streams bit-identical.
pub fn batch_point(
    model: &Model,
    kind: &AttentionKind,
    batch: usize,
    steps: usize,
    pairs: usize,
) -> BatchPoint {
    let prompts = batch_prompts(batch);
    let tokens = (batch * (BATCH_PROMPT_LEN + steps)) as f64;
    let (mut per_sample, mut batched) = (Vec::new(), (Vec::new(), 0));
    let p = interleaved_ratio(
        || {
            time_per_call(1, || {
                per_sample = decode_per_sample(model, kind, &prompts, steps)
            }) / tokens
        },
        || time_per_call(1, || batched = serve_batch(model, kind, &prompts, steps)) / tokens,
        pairs,
    );
    assert_eq!(
        per_sample, batched.0,
        "batch {batch}: batched serve diverged from per-sample decoding"
    );
    BatchPoint {
        per_sample_ms: p.baseline * 1e3,
        batched_ms: p.variant * 1e3,
        speedup: p.speedup,
        ticks: batched.1,
    }
}

/// Prompt length of the speculation workload.
pub const SPEC_PROMPT_LEN: usize = 16;

/// Serves the speculation prompt as the only request of an engine under
/// `cfg`: one tick prefills the whole prompt, every later tick is one
/// verify round, and the pool holds prompt + `steps`.
pub fn serve_spec(model: &Model, cfg: &SpecConfig, steps: usize) -> ServeReport {
    let prompt: Vec<u32> = (0..SPEC_PROMPT_LEN as u32)
        .map(|i| (i * 31 + 5) % 256)
        .collect();
    let serve_cfg = ServeConfig {
        prefill_chunk: prompt.len(),
        ..ServeConfig::default()
    };
    let pool = block_pool(model, BlockPool::blocks_for(prompt.len() + steps));
    let mut engine = Engine::new(model, &AttentionKind::Exact, pool, serve_cfg);
    engine.submit(Request::new(0, prompt, steps).with_speculation(cfg.clone()));
    engine.run()
}

/// One speculative configuration against plain decoding.
pub struct SpecPoint {
    /// The speculative run's report (deterministic counts).
    pub report: ServeReport,
    /// Median plain milliseconds per generated token.
    pub plain_ms: f64,
    /// Median speculative milliseconds per generated token.
    pub ms: f64,
    /// Median per-pair plain ÷ speculative time.
    pub speedup: f64,
}

/// `cfg` against the same engine at draft depth 0, `pairs` interleaved
/// pairs of `steps`-token serves; asserts the speculative stream identical
/// to the plain one.
pub fn spec_point(model: &Model, cfg: &SpecConfig, steps: usize, pairs: usize) -> SpecPoint {
    let serve = |cfg: &SpecConfig, out: &mut Option<ServeReport>| {
        time_per_call(1, || *out = Some(serve_spec(model, cfg, steps))) / steps as f64
    };
    let (mut plain, mut spec) = (None, None);
    let p = interleaved_ratio(
        || serve(&SpecConfig::recency(0), &mut plain),
        || serve(cfg, &mut spec),
        pairs,
    );
    let (plain, report) = (plain.expect("pairs > 0"), spec.expect("pairs > 0"));
    assert_eq!(
        report.outcomes[0].tokens, plain.outcomes[0].tokens,
        "speculative decode diverged from the plain stream"
    );
    SpecPoint {
        report,
        plain_ms: p.baseline * 1e3,
        ms: p.variant * 1e3,
        speedup: p.speedup,
    }
}

/// Quick speculation re-measurement, run once per process: the recency and
/// ngram-pool drafters at K = 4 over 128 tokens, and the faster one's
/// (speedup, mean accepted length).
fn quick_spec() -> (f64, f64) {
    static QUICK_SPEC: OnceLock<(f64, f64)> = OnceLock::new();
    *QUICK_SPEC.get_or_init(|| {
        let model = bench_model();
        [SpecConfig::recency(4), SpecConfig::ngram(4)]
            .iter()
            .map(|cfg| {
                let p = spec_point(&model, cfg, 128, 7);
                (p.speedup, p.report.mean_accepted_len())
            })
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .expect("two drafters")
    })
}

/// The recorder-overhead workload: two waves of four ragged requests
/// against a batch budget of 4, so the engine admits mid-flight, retires
/// raggedly and back-fills freed slots. (id, prompt_len, max_tokens,
/// arrival_step.)
pub const OBS_WORKLOAD: [(u64, usize, usize, usize); 8] = [
    (0, 12, 24, 0),
    (1, 8, 8, 0),
    (2, 14, 40, 1),
    (3, 9, 12, 2),
    (4, 10, 16, 8),
    (5, 12, 32, 8),
    (6, 7, 8, 9),
    (7, 11, 20, 10),
];

/// The requests of [`OBS_WORKLOAD`].
fn obs_requests() -> Vec<Request> {
    OBS_WORKLOAD
        .iter()
        .map(|&(id, plen, max, at)| {
            let prompt: Vec<u32> = (0..plen)
                .map(|i| ((i as u64 * 37 + 5 + id * 13) % 256) as u32)
                .collect();
            Request::new(id, prompt, max).arriving_at(at)
        })
        .collect()
}

/// Serves [`OBS_WORKLOAD`] with spans, metrics and the request timeline all
/// set to `on`, and turns them off again.
fn serve_obs(model: &Model, on: bool) -> ServeReport {
    let set = |on| {
        lad_obs::set_enabled(on);
        lad_obs::metrics::set_metrics_enabled(on);
        lad_obs::timeline::set_timeline_enabled(on);
    };
    let cfg = ServeConfig {
        max_active: 4,
        prefill_chunk: 1,
        ..ServeConfig::default()
    };
    let mut engine = Engine::new(model, &AttentionKind::Exact, block_pool(model, 256), cfg);
    for req in obs_requests() {
        engine.submit(req);
    }
    set(on);
    let report = engine.run();
    set(false);
    report
}

/// Off/on pairs of the recorder-overhead estimate, recorder and
/// `bench_check` alike.
pub const OBS_PAIRS: usize = 41;

/// Recorders off against recorders on.
pub struct ObsPoint {
    /// Median steps per second with every recorder off.
    pub off_steps_per_s: f64,
    /// Median steps per second with every recorder on.
    pub on_steps_per_s: f64,
    /// `(1 − median per-pair on/off steps/s) × 100`: the median per-pair
    /// percentage the enabled run falls behind.
    pub overhead_pct: f64,
}

/// `serve_obs` off against on, [`OBS_PAIRS`] interleaved pairs, timed by
/// the engine's own wall clock per step; the recorded events are discarded.
pub fn obs_point(model: &Model) -> ObsPoint {
    let per_step = |on| {
        let r = serve_obs(model, on);
        r.wall.as_secs_f64() / r.steps as f64
    };
    let p = interleaved_ratio(|| per_step(false), || per_step(true), OBS_PAIRS);
    let _ = lad_obs::drain();
    let _ = lad_obs::timeline::drain_timeline();
    ObsPoint {
        off_steps_per_s: 1.0 / p.baseline,
        on_steps_per_s: 1.0 / p.variant,
        overhead_pct: (1.0 - p.speedup) * 100.0,
    }
}

/// The backend zoo's hero cell, re-measured deterministically (traffic
/// counters, not timers).
struct HeroCell {
    /// Best non-exact quality-per-byte ratio to exact.
    best: f64,
    /// `h2o-8+4`'s quality-per-byte ratio to exact.
    h2o: f64,
    /// `h2o-8+4`'s evictions.
    h2o_evictions: f64,
}

/// The committed sweep's hero cell (alpaca-shaped, gen 32) under exact, LAD,
/// `topk-16` and `h2o-8+4`, run once per process; asserts exact is its own
/// reference.
fn hero_cell() -> &'static HeroCell {
    static HERO: OnceLock<HeroCell> = OnceLock::new();
    HERO.get_or_init(|| {
        let mut bench = alpaca_shaped(256, 2, 23);
        bench.gen_len = 32;
        let kinds = [
            ("exact".to_string(), AttentionKind::Exact),
            ("lad".to_string(), AttentionKind::Lad(LadConfig::default())),
            ("topk-16".to_string(), AttentionKind::topk(16)),
            ("h2o-8+4".to_string(), AttentionKind::h2o_budget(8, 4)),
        ];
        let rows = backend_quality_report(&bench_model(), &[bench], &kinds);
        assert!(
            rows[0].backend == "exact" && rows[0].agreement == 1.0,
            "exact row is not its own reference"
        );
        let ratio =
            |i: usize| rows[i].quality_per_mbyte_moved() / rows[0].quality_per_mbyte_moved();
        HeroCell {
            best: (1..rows.len()).map(ratio).fold(f64::NEG_INFINITY, f64::max),
            h2o: ratio(3),
            h2o_evictions: rows[3].evictions as f64,
        }
    })
}

// ---------------------------------------------------------------------------
// Microkernels
// ---------------------------------------------------------------------------

/// Each microkernel row is [`KERNEL_PAIRS`] interleaved pairs of
/// [`KERNEL_ITERS`] back-to-back calls per side, in the recorder and in
/// `bench_check` alike. Both numbers move the `gemm_f32_rows16` ratio: its
/// AVX-512 and AVX2 sides run at different core frequencies and each block
/// starts at the one the other side left, so the block length shifts the
/// ratio, and a run of fewer pairs averages over less of a shared host's
/// drifting load.
pub const KERNEL_ITERS: usize = 50;

/// Interleaved pairs per microkernel row.
pub const KERNEL_PAIRS: usize = 101;

/// One microkernel row.
pub struct KernelPoint {
    /// Shape label written to the baseline.
    pub shape: String,
    /// Median baseline microseconds per call.
    pub baseline_us: f64,
    /// Median variant microseconds per call.
    pub variant_us: f64,
    /// Median per-pair baseline ÷ variant time.
    pub speedup: f64,
}

impl KernelPoint {
    /// The row's gated `metric`: `speedup`, or its inverse `ratio` (variant
    /// ÷ baseline time).
    pub fn metric(&self, metric: &str) -> f64 {
        match metric {
            "ratio" => 1.0 / self.speedup,
            _ => self.speedup,
        }
    }
}

/// MLP GEMM shape of the tiny preset: batch 8, intermediate 512, hidden 256.
const M: usize = 8;
const N: usize = 512;
const K: usize = 256;
/// Row staircase shape: a square 512 x 512 projection at 8 and 16 rows.
const ROWS_NK: usize = 512;
/// Head dim and positions of the exact head read (`long_context` prompt).
const KV_DIM: usize = 64;
const READ_POSITIONS: usize = 1024;

/// Times `baseline` under `kernels.0` against `variant` under `kernels.1`.
fn kernel_pair(
    shape: String,
    kernels: (Kernel, Kernel),
    mut baseline: impl FnMut(),
    mut variant: impl FnMut(),
) -> KernelPoint {
    let p = interleaved_ratio(
        || with_kernel(kernels.0, || time_per_call(KERNEL_ITERS, &mut baseline)),
        || with_kernel(kernels.1, || time_per_call(KERNEL_ITERS, &mut variant)),
        KERNEL_PAIRS,
    );
    KernelPoint {
        shape,
        baseline_us: p.baseline * 1e6,
        variant_us: p.variant * 1e6,
        speedup: p.speedup,
    }
}

/// A filled cache of `positions` random keys/values.
fn kv_cache(rng: &mut Rng, positions: usize) -> KvCache {
    let mut kv = KvCache::new(KV_DIM);
    for _ in 0..positions {
        let (k, v) = (rng.normal_vec(KV_DIM, 1.0), rng.normal_vec(KV_DIM, 1.0));
        kv.push(&k, &v);
    }
    kv
}

/// Measures the `BENCH_kernels.json` row `kind`, asserting its correctness
/// contract. `None` on a host without AVX2, and for
/// `gemm_f32_rows16` without AVX-512F, where the 16-row panel does not
/// exist.
///
/// * `gemm_f32`: the MLP GEMM, scalar vs SIMD microkernel, bit-identical.
/// * `kv_read_f32`: the whole exact head read (`reference::exact_attention`),
///   scalar vs SIMD kernels, bit-identical.
/// * `gemm_f32_rows16`: the SIMD GEMM at m = 8 vs m = 16, with the m = 16
///   result bit-identical to scalar.
pub fn kernel_point(kind: &str) -> Option<KernelPoint> {
    if !Kernel::Simd.available() {
        return None;
    }
    let (scalar, simd) = (Kernel::Scalar, Kernel::Simd);
    let mut rng = Rng::new(0x51);
    let (mut s1, mut s2) = (GemmScratch::default(), GemmScratch::default());
    let point = match kind {
        "gemm_f32" => {
            let (a, b_t) = (rng.normal_vec(M * K, 1.0), rng.normal_vec(N * K, 1.0));
            let (mut c1, mut c2) = (vec![0.0f32; M * N], vec![0.0f32; M * N]);
            let point = kernel_pair(
                format!("m={M} n={N} k={K}"),
                (scalar, simd),
                || gemm_bt_into(M, N, K, &a, &b_t, &mut c1, &mut s1),
                || gemm_bt_into(M, N, K, &a, &b_t, &mut c2, &mut s2),
            );
            assert_eq!(c1, c2, "SIMD f32 GEMM must be bit-identical to scalar");
            point
        }
        "kv_read_f32" => {
            let kv = kv_cache(&mut rng, READ_POSITIONS);
            let q = rng.normal_vec(KV_DIM, 1.0);
            let (mut out1, mut out2) = (Vec::new(), Vec::new());
            let point = kernel_pair(
                format!("dim={KV_DIM} positions={READ_POSITIONS}"),
                (scalar, simd),
                || out1 = reference::exact_attention(&q, &kv),
                || out2 = reference::exact_attention(&q, &kv),
            );
            assert_eq!(
                out1, out2,
                "SIMD exact head read must be bit-identical to scalar"
            );
            point
        }
        "gemm_f32_rows16" => {
            if !lad_math::simd::avx512_supported() {
                return None;
            }
            let (n, k) = (ROWS_NK, ROWS_NK);
            let (a, b_t) = (rng.normal_vec(16 * k, 1.0), rng.normal_vec(n * k, 1.0));
            let (mut c8, mut c16) = (vec![0.0f32; 8 * n], vec![0.0f32; 16 * n]);
            let point = kernel_pair(
                format!("m=16 vs m=8 n={n} k={k}"),
                (simd, simd),
                || gemm_bt_into(8, n, k, &a[..8 * k], &b_t, &mut c8, &mut s1),
                || gemm_bt_into(16, n, k, &a, &b_t, &mut c16, &mut s2),
            );
            let mut c16_scalar = vec![0.0f32; 16 * n];
            with_kernel(scalar, || {
                gemm_bt_into(16, n, k, &a, &b_t, &mut c16_scalar, &mut s1)
            });
            assert_eq!(
                c16, c16_scalar,
                "16-row SIMD f32 GEMM must be bit-identical to scalar"
            );
            point
        }
        other => panic!("no microkernel row named {other}"),
    };
    Some(point)
}

/// The served model's projections, `(n, k, count)`: per layer of the 4-layer,
/// 512-hidden serving-ledger model, q, k, v and out (512 × 512), gate and up
/// (1024 × 512) and down (512 × 1024), then the 256 × 512 unembedding. About
/// 42 MB of f32 weights, far past L2.
const SERVED_PROJECTIONS: [(usize, usize, usize); 4] = [
    (512, 512, 16),
    (1024, 512, 8),
    (512, 1024, 4),
    (256, 512, 1),
];

/// Row counts of the streamed-weights reading: a decode tick of 4 rows, one
/// of 10 (an 8-row panel plus a tail, or one 16-row panel) and a full
/// 16-row tick.
pub const STREAMED_ROWS: [usize; 3] = [4, 10, 16];

/// Interleaved pairs of the streamed-weights reading.
const STREAMED_PAIRS: usize = 21;

/// The SIMD f32 GEMM with its weights streamed against the same GEMM on one
/// cache-resident matrix. Recorded, not gated.
pub struct StreamedPoint {
    /// Shape label written to the baseline.
    pub shape: String,
    /// Microseconds the sequence's flops take at the cache-resident rate.
    pub hot_us: f64,
    /// Median microseconds per pass over the whole sequence.
    pub streamed_us: f64,
    /// GFLOP/s on the cache-resident matrix.
    pub hot_gflops: f64,
    /// GFLOP/s over the streamed sequence.
    pub streamed_gflops: f64,
    /// Weight bytes per second over the streamed sequence, in GB/s.
    pub weight_gb_per_s: f64,
    /// Median per-pair streamed ÷ hot time for the same flops.
    pub ratio: f64,
}

/// Times `m` rows through every served projection once, each on its own
/// weight matrix (`SERVED_PROJECTIONS`, so the weights come from L3 or
/// DRAM), against 512 × 512 GEMMs of the same `m` on one matrix that stays
/// in L2, `STREAMED_PAIRS` interleaved pairs compared per flop. Asserts
/// the streamed outputs bit-identical to the scalar kernel's. `None` on a
/// host without AVX2.
pub fn streamed_point(m: usize) -> Option<StreamedPoint> {
    if !Kernel::Simd.available() {
        return None;
    }
    let mut rng = Rng::new(0x5e);
    let shapes: Vec<(usize, usize)> = SERVED_PROJECTIONS
        .iter()
        .flat_map(|&(n, k, count)| std::iter::repeat_n((n, k), count))
        .collect();
    let weights: Vec<Vec<f32>> = shapes
        .iter()
        .map(|&(n, k)| rng.normal_vec(n * k, 1.0))
        .collect();
    let a = rng.normal_vec(m * 1024, 1.0);
    let mut outs: Vec<Vec<f32>> = shapes.iter().map(|&(n, _)| vec![0.0; m * n]).collect();
    let mut scratch = GemmScratch::default();
    let stream = |outs: &mut [Vec<f32>], scratch: &mut GemmScratch| {
        for ((&(n, k), w), c) in shapes.iter().zip(&weights).zip(outs.iter_mut()) {
            gemm_bt_into(m, n, k, &a[..m * k], w, c, scratch);
        }
    };
    let (hot_nk, hot_calls) = (ROWS_NK, 40);
    let hot_w = rng.normal_vec(hot_nk * hot_nk, 1.0);
    let mut hot_c = vec![0.0f32; m * hot_nk];
    let mut hot_scratch = GemmScratch::default();
    let flops = |nk: usize| 2.0 * (m * nk) as f64;
    let streamed_flops: f64 = shapes.iter().map(|&(n, k)| flops(n * k)).sum();
    let hot_flops = flops(hot_nk * hot_nk) * hot_calls as f64;
    let p = with_kernel(Kernel::Simd, || {
        interleaved_ratio(
            || {
                time_per_call(hot_calls, || {
                    gemm_bt_into(
                        m,
                        hot_nk,
                        hot_nk,
                        &a[..m * hot_nk],
                        &hot_w,
                        &mut hot_c,
                        &mut hot_scratch,
                    )
                }) * hot_calls as f64
                    / hot_flops
            },
            || time_per_call(1, || stream(&mut outs, &mut scratch)) / streamed_flops,
            STREAMED_PAIRS,
        )
    });
    let mut scalar_outs = outs.clone();
    with_kernel(Kernel::Scalar, || stream(&mut scalar_outs, &mut scratch));
    assert_eq!(
        outs, scalar_outs,
        "streamed SIMD f32 GEMMs must be bit-identical to scalar"
    );
    let weight_bytes: usize = shapes.iter().map(|&(n, k)| n * k * 4).sum();
    let streamed_s = p.variant * streamed_flops;
    Some(StreamedPoint {
        shape: format!(
            "m={m} ledger projections {:.1} MB vs m={m} n={hot_nk} k={hot_nk} in L2",
            weight_bytes as f64 / 1e6
        ),
        hot_us: p.baseline * streamed_flops * 1e6,
        streamed_us: streamed_s * 1e6,
        hot_gflops: 1e-9 / p.baseline,
        streamed_gflops: 1e-9 / p.variant,
        weight_gb_per_s: weight_bytes as f64 / streamed_s / 1e9,
        ratio: 1.0 / p.speedup,
    })
}

// ---------------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------------

/// The repository root, where the committed baselines live.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Checks every gate of `file` on the result `rows` (JSON objects), then
/// writes `file` at the repo root: the envelope `bench_check` validates
/// (`bench`, `model`, the `extra` fields, `host_cores`) and the rows. A run
/// that misses a gate panics before writing anything.
pub fn write_baseline(
    file: &str,
    bench: &str,
    model: &str,
    extra: &[(&str, String)],
    rows: &[String],
) {
    let parsed: Vec<Value> = rows
        .iter()
        .map(|r| json::parse(r).unwrap_or_else(|e| panic!("{file} row {r}: {e}")))
        .collect();
    println!();
    for gate in GATES.iter().filter(|g| g.file == file) {
        let value = gate
            .recorded(&parsed)
            .unwrap_or_else(|e| panic!("{file} {}: {e}", gate.row));
        println!("{} {}: {value:.3} ({})", gate.row, gate.metric, gate.bound);
        assert!(
            gate.bound.holds(value),
            "{file} {} {} misses its gate",
            gate.row,
            gate.metric
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = format!("{{\n  \"bench\": \"{bench}\",\n  \"model\": \"{model}\",\n");
    for (key, value) in extra {
        json += &format!("  \"{key}\": {value},\n");
    }
    json += &format!("  \"host_cores\": {cores},\n  \"results\": [\n    ");
    json += &rows.join(",\n    ");
    json += "\n  ]\n}\n";
    match std::fs::write(repo_root().join(file), json) {
        Ok(()) => println!("baseline written to {file}"),
        Err(e) => println!("could not write {file}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Runs the estimator over injected per-call costs, logging call order.
    fn run(base: &[f64], var: &[f64]) -> (Paired, Vec<char>) {
        let log = RefCell::new(Vec::new());
        let (mut b, mut v) = (base.iter(), var.iter());
        let p = interleaved_ratio(
            || {
                log.borrow_mut().push('b');
                *b.next().unwrap()
            },
            || {
                log.borrow_mut().push('v');
                *v.next().unwrap()
            },
            base.len(),
        );
        (p, log.into_inner())
    }

    #[test]
    fn order_alternates_between_pairs() {
        let (_, log) = run(&[1.0; 5], &[1.0; 5]);
        assert_eq!(log.iter().collect::<String>(), "bvvbbvvbbv");
    }

    #[test]
    fn result_is_the_median_of_per_pair_ratios() {
        // Per-pair ratios 4, 1, 2: the median is 2, while the ratio of the
        // per-side medians is 4 / 1 here and 8 / 8 below.
        let (p, _) = run(&[4.0, 8.0, 2.0], &[1.0, 8.0, 1.0]);
        assert_eq!(p.speedup, 2.0);
        assert_eq!((p.baseline, p.variant), (4.0, 1.0));
        let (p, _) = run(&[4.0, 8.0, 20.0], &[1.0, 8.0, 10.0]);
        assert_eq!(p.speedup, 2.0);
        assert_eq!((p.baseline, p.variant), (8.0, 8.0));
    }

    #[test]
    fn one_inflated_pair_does_not_move_the_result() {
        // Per-pair ratios 2, 2, 2, 1.9, 2.1: a hiccup on either side of any
        // one pair sends its ratio to an extreme, and the median stays 2.
        let base = [3.0, 3.0, 3.0, 2.85, 3.15];
        let var = [1.5; 5];
        let (clean, _) = run(&base, &var);
        assert_eq!(clean.speedup, 2.0);
        for i in 0..base.len() {
            let (mut slow_base, mut slow_var) = (base, var);
            slow_base[i] *= 50.0;
            assert_eq!(run(&slow_base, &var).0.speedup, clean.speedup);
            slow_var[i] *= 50.0;
            assert_eq!(run(&base, &slow_var).0.speedup, clean.speedup);
        }
    }

    #[test]
    #[should_panic(expected = "odd pair count")]
    fn even_pair_counts_are_rejected() {
        run(&[1.0; 4], &[1.0; 4]);
    }

    #[test]
    fn gates_are_unique_and_check_their_rows() {
        for (i, g) in GATES.iter().enumerate() {
            assert!(g.file.starts_with("BENCH_") && g.file.ends_with(".json"));
            assert!(
                GATES[..i]
                    .iter()
                    .all(|o| (o.file, o.row, o.metric) != (g.file, g.row, g.metric)),
                "duplicate gate"
            );
        }
        let rows: Vec<Value> = [
            r#"{"kind": "gemm_f32", "speedup": 2.0, "floor": 1.5, "bit_exact": 1}"#,
            r#"{"kind": "kv_read_f32", "speedup": 2.0, "floor": 1.0, "bit_exact": 1}"#,
            r#"{"kind": "gemm_f32_rows16", "ratio": 1.2, "ceiling": 1.6, "bit_exact": 0}"#,
        ]
        .iter()
        .map(|r| json::parse(r).unwrap())
        .collect();
        let gate = |kind| GATES.iter().find(|g| g.row == Row::Kind(kind)).unwrap();
        assert_eq!(gate("gemm_f32").recorded(&rows), Ok(2.0));
        assert!(gate("kv_read_f32")
            .recorded(&rows)
            .unwrap_err()
            .contains("floor"));
        assert!(gate("gemm_f32_rows16")
            .recorded(&rows)
            .unwrap_err()
            .contains("bit_exact"));
        assert!(gate("kv_read_f32")
            .recorded(&rows[..1])
            .unwrap_err()
            .contains("no kv_read_f32 row"));
    }

    #[test]
    fn best_rows_are_picked_per_group() {
        let rows: Vec<Value> = [
            r#"{"kind": "exact", "dataset": "a", "qpb_ratio_vs_exact": 1.0}"#,
            r#"{"kind": "h2o", "dataset": "a", "qpb_ratio_vs_exact": 1.3}"#,
            r#"{"kind": "lad", "dataset": "a", "qpb_ratio_vs_exact": 0.99}"#,
            r#"{"kind": "exact", "dataset": "b", "qpb_ratio_vs_exact": 1.0}"#,
            r#"{"kind": "lad", "dataset": "b", "qpb_ratio_vs_exact": 0.97}"#,
        ]
        .iter()
        .map(|r| json::parse(r).unwrap())
        .collect();
        let per = Row::Best {
            by: "qpb_ratio_vs_exact",
            except: "exact",
            per: &["dataset"],
        };
        let picked: Vec<f64> = per
            .select(&rows)
            .iter()
            .map(|r| r.get("qpb_ratio_vs_exact").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(picked, [1.3, 0.97]);
        assert_eq!(best::QPB.select(&rows).len(), 1);
        assert_eq!(AtLeast(0.95).worst(picked), 0.97);
    }
}
