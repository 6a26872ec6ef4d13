//! Facade crate for the LAD (Locality Aware Decoding) reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and downstream
//! users can depend on a single crate:
//!
//! * [`math`] — numerical substrate (linear algebra, SIMD kernels, PWL exp).
//! * [`core`] — the LAD attention algorithm itself.
//! * [`model`] — the transformer substrate with pluggable attention backends.
//! * [`trace`] — synthetic attention-trace generation and statistics.
//! * [`accel`] — the LAD accelerator simulator and GPU baselines.
//! * [`eval`] — ROUGE / perplexity / dataset tooling.
//! * [`obs`] — zero-cost-when-off tracing spans, metrics and request
//!   timelines, latency histograms, and one JSON exporter per recorder.
//! * [`serve`] — continuous-batching serving engine (FIFO admission,
//!   chunked prefill, recompute preemption, TTFT/ITL/deadline metrics).

pub use lad_accel as accel;
pub use lad_core as core;
pub use lad_eval as eval;
pub use lad_math as math;
pub use lad_model as model;
pub use lad_obs as obs;
pub use lad_serve as serve;
pub use lad_trace as trace;
