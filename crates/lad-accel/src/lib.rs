//! LAD accelerator simulator and baselines (paper Sec. IV–V).
//!
//! Models the LAD accelerator — six tiles with EAS/APID/MD/AC pipeline
//! modules, VPUs and SRAM on a shared HBM2 stack — together with the GPU
//! software baselines and the ideal accelerator the paper compares against.
//! The tile runs the algorithm of [`lad_core::decoder::LadAttention`]; this
//! crate prices it (Eq. 7 stage latencies, HBM traffic, energy) from the
//! decoder's per-row counts ([`lad_core::stats::StepStats`]) rather than
//! re-implementing it.
//!
//! | module | paper artefact |
//! |---|---|
//! | [`config`] | tile/accelerator configurations (LAD-1.5/2.5/3.5) |
//! | [`hbm`] | analytic HBM2 bandwidth + energy model (Ramulator substitute) |
//! | [`asic`] | per-module area/power (Table III, DC+CACTI substitute) |
//! | [`traffic`] | per-step HBM byte accounting (Fig. 8 left) |
//! | [`pipeline`] | the 6-stage attention pipeline; Eq. 7 ([`pipeline::stage_cycles`]) |
//! | [`schedule`] | the end-to-end step schedule (Fig. 6) |
//! | [`gpu`] | A100 rooflines: vLLM / Qserve / H2O / LAD-GPU |
//! | [`workload`] | calibrated trace statistics per KV length |
//! | [`perf`] | end-to-end evaluation: Fig. 7 / 8 / 9 / 10 |
//! | [`paged`] | paged KV block pool (the vLLM baseline's allocator) |
//!
//! # Example
//!
//! ```
//! use lad_accel::config::AccelConfig;
//! use lad_accel::perf::{evaluate_best_batch, Platform};
//! use lad_accel::gpu::GpuBaseline;
//! use lad_accel::workload::workload_stats;
//! use lad_model::config::ModelConfig;
//!
//! let model = ModelConfig::llama2_7b();
//! let stats = workload_stats(2048, 1);
//! let gpu = evaluate_best_batch(&Platform::Gpu(GpuBaseline::Vllm), &model, 2048, &stats);
//! let lad = evaluate_best_batch(&Platform::Lad(AccelConfig::lad_2_5()), &model, 2048, &stats);
//! assert!(lad.attn_tokens_per_s > gpu.attn_tokens_per_s);
//! ```

pub mod asic;
pub mod config;
pub mod gpu;
pub mod hbm;
pub mod paged;
pub mod perf;
pub mod pipeline;
pub mod schedule;
pub mod traffic;
pub mod workload;

pub use config::AccelConfig;
pub use gpu::{GpuBaseline, GpuConfig};
pub use hbm::HbmConfig;
pub use perf::{evaluate, evaluate_best_batch, PerfResult, Platform};
pub use traffic::AttentionTraffic;
