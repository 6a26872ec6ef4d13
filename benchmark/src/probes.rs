//! Host ceiling, fixed-shape kernel probes and the analytic accelerator
//! model — direct calls into single layers, independent of the workload
//! seed, so a per-layer change can be read without the serving loop around
//! it. Only traced runs pay for them (≈ 10 s).

use lad_accel::config::AccelConfig;
use lad_accel::gpu::GpuBaseline;
use lad_accel::perf::{evaluate_best_batch, Platform};
use lad_accel::workload::workload_stats;
use lad_core::decoder::LadConfig;
use lad_math::gemm::{gemm_bt_into, GemmScratch};
use lad_math::stats::geomean;
use lad_math::Rng;
use lad_model::backend::AttentionKind;
use lad_model::batch::BatchSession;
use lad_model::config::ModelConfig;
use lad_model::transformer::{Model, Session};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, ratio};

/// STREAM triad (`a = b + s·c`) over three f32 arrays totalling 256 MB;
/// best of five passes, counting the conventional 3 × 4 bytes per element.
fn stream_gb_per_s() -> f64 {
    let len = 256 * 1024 * 1024 / 4 / 3;
    let b = vec![1.0f32; len];
    let c = vec![2.0f32; len];
    let mut a = vec![0.0f32; len];
    let mut best = f64::MAX;
    for pass in 0..5 {
        let s = pass as f32;
        let started = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        black_box(&mut a);
        best = best.min(started.elapsed().as_secs_f64());
    }
    (len * 12) as f64 / best / 1e9
}

/// GFLOP/s of `gemm_bt_into` at `m × 512 · (1024 × 512)ᵀ` — one projection
/// of the ledger model at batch `m`; median of 15 timed batches.
fn gemm_gflops(m: usize) -> f64 {
    let (n, k) = (1024, 512);
    let mut rng = Rng::new(0x6e33);
    let a = rng.normal_vec(m * k, 1.0);
    let b_t = rng.normal_vec(n * k, 0.05);
    let mut c = vec![0.0f32; m * n];
    let mut scratch = GemmScratch::default();
    let reps = 40;
    let mut rates = Vec::new();
    for _ in 0..15 {
        let started = Instant::now();
        for _ in 0..reps {
            gemm_bt_into(m, n, k, black_box(&a), &b_t, &mut c, &mut scratch);
            black_box(&mut c);
        }
        let flops = (2 * m * n * k * reps) as f64;
        rates.push(flops / started.elapsed().as_secs_f64() / 1e9);
    }
    median(&rates)
}

fn probe_model() -> Model {
    Model::random(ModelConfig::tiny("probe", 1, 512, 8), 11)
}

/// Solo decode at context ≈ 1024 on a 1-layer 512-hidden model: exact vs
/// LAD step time, and LAD's counts from `Session::last_stats` (the counts
/// repeat exactly from run to run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadProbe {
    pub step_ms_exact: f64,
    pub step_ms_lad: f64,
    /// |J| / n: cached active positions per key, mean over the timed steps.
    pub active_frac: f64,
    /// Share of active positions already active one step earlier.
    pub hit_ratio: f64,
    /// LAD KV bytes moved ÷ exact KV bytes moved over the timed steps.
    pub bytes_ratio: f64,
}

fn lad_probe() -> LadProbe {
    let model = probe_model();
    let mut rng = Rng::new(0x1ad);
    let tokens: Vec<u32> = (0..1024).map(|_| rng.index(256) as u32).collect();
    let (warm, timed) = tokens.split_at(960);
    // (median step ms, Σ bytes moved, Σ active, Σ new_active, Σ n) over `timed`.
    let run = |kind: &AttentionKind| {
        let mut session = Session::new(&model, kind);
        for &t in warm {
            session.step(t);
        }
        let mut ms = Vec::new();
        let (mut bytes, mut active, mut new_active, mut n) = (0usize, 0usize, 0usize, 0usize);
        for &t in timed {
            let started = Instant::now();
            black_box(session.step(t));
            ms.push(started.elapsed().as_secs_f64() * 1e3);
            for s in session.last_stats() {
                bytes += s.bytes_moved;
                active += s.active;
                new_active += s.new_active;
                n += s.n;
            }
        }
        (median(&ms), bytes, active, new_active, n)
    };
    let exact = run(&AttentionKind::Exact);
    let lad = run(&AttentionKind::Lad(LadConfig::default()));
    LadProbe {
        step_ms_exact: exact.0,
        step_ms_lad: lad.0,
        active_frac: ratio(lad.2 as f64, lad.4 as f64),
        hit_ratio: 1.0 - ratio(lad.3 as f64, lad.2 as f64),
        bytes_ratio: ratio(lad.1 as f64, exact.1 as f64),
    }
}

/// Million `BlockPool` operations per second over an admit / append /
/// truncate / release cycle (the accounting every serving tick performs).
fn blockpool_mops() -> f64 {
    let cfg = crate::workload::model_config();
    let mut pool = crate::workload::by_name("mixed_pressure")
        .expect("workload exists")
        .pool(&cfg);
    let cycles = 20_000;
    let mut ops = 0u64;
    let started = Instant::now();
    for _ in 0..cycles {
        let id = pool.admit(40).expect("empty pool admits");
        for _ in 0..24 {
            black_box(pool.append_token(id));
        }
        pool.truncate(id, 48);
        pool.release(id);
        ops += 27;
    }
    black_box(&pool);
    ops as f64 / started.elapsed().as_secs_f64() / 1e6
}

/// `BatchSession::step` at batch 4, context ≈ 512: time at parallelism 1 ÷
/// time at parallelism 2 (> 1 means the head-level fan-out pays).
fn fanout_speedup_p2() -> f64 {
    let model = probe_model();
    let mut rng = Rng::new(0xfa2);
    let tokens: Vec<u32> = (0..544).map(|_| rng.index(256) as u32).collect();
    let mut sessions = [1usize, 2].map(|p| BatchSession::new(&model, &AttentionKind::Exact, 4, p));
    let mut ms = [Vec::new(), Vec::new()];
    for (i, &t) in tokens.iter().enumerate() {
        let row = [(0, t), (1, t), (2, t), (3, t)];
        for (session, ms) in sessions.iter_mut().zip(&mut ms) {
            let started = Instant::now();
            session.step(&row);
            if i >= 512 {
                ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    ratio(median(&ms[0]), median(&ms[1]))
}

/// The analytic accelerator model (simulated time, repeats exactly):
/// LAD-3.5 over vLLM-GPU, geomean over the paper models at KV 2560–4096.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelSim {
    pub attn_speedup_g2: f64,
    pub e2e_speedup_g2: f64,
    /// Host time the simulation took, ms.
    pub host_ms: f64,
}

fn accel_sim() -> AccelSim {
    let started = Instant::now();
    let vllm = Platform::Gpu(GpuBaseline::Vllm);
    let lad = Platform::Lad(AccelConfig::lad_3_5());
    let (mut attn, mut e2e) = (Vec::new(), Vec::new());
    for n in [2560, 3072, 4096] {
        let stats = workload_stats(n, 0x1ad);
        for model in ModelConfig::paper_models() {
            if n > model.max_seq {
                continue;
            }
            let base = evaluate_best_batch(&vllm, &model, n, &stats);
            let ours = evaluate_best_batch(&lad, &model, n, &stats);
            attn.push(ours.attn_tokens_per_s / base.attn_tokens_per_s);
            e2e.push(ours.e2e_tokens_per_s / base.e2e_tokens_per_s);
        }
    }
    AccelSim {
        attn_speedup_g2: geomean(&attn),
        e2e_speedup_g2: geomean(&e2e),
        host_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// Every probe, measured once per traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probes {
    pub cores: usize,
    pub stream_gb_per_s: f64,
    pub gemm_m1_gflops: f64,
    pub gemm_m8_gflops: f64,
    pub lad: LadProbe,
    pub blockpool_mops: f64,
    pub fanout_speedup_p2: f64,
    pub accel: AccelSim,
}

impl Probes {
    pub fn measure() -> Probes {
        Probes {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            stream_gb_per_s: stream_gb_per_s(),
            gemm_m1_gflops: gemm_gflops(1),
            gemm_m8_gflops: gemm_gflops(8),
            lad: lad_probe(),
            blockpool_mops: blockpool_mops(),
            fanout_speedup_p2: fanout_speedup_p2(),
            accel: accel_sim(),
        }
    }
}
