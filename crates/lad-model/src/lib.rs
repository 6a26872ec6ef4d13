//! Decoder-only transformer substrate for the LAD reproduction.
//!
//! Provides a from-scratch transformer ([`transformer::Model`]) with seeded
//! random weights and a per-sample decode [`transformer::Session`] whose
//! attention heads run one of five pluggable backends
//! ([`backend::AttentionKind`]): exact softmax, LAD, Qserve-KV4, top-k and
//! H2O. Exact, LAD, Qserve-KV4 and H2O are the
//! paper's comparison set.
//!
//! Config presets ([`config::ModelConfig`]) carry the real dimensions of the
//! paper's four evaluation models for analytic accelerator modelling;
//! functional experiments use [`config::ModelConfig::tiny`] because no
//! pretrained checkpoints are available offline (see `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use lad_model::backend::AttentionKind;
//! use lad_model::config::ModelConfig;
//! use lad_model::transformer::{Model, Session};
//!
//! let model = Model::random(ModelConfig::tiny("demo", 2, 32, 2), 1);
//! let mut exact = Session::new(&model, &AttentionKind::Exact);
//! let mut lad = Session::new(
//!     &model,
//!     &AttentionKind::Lad(lad_core::decoder::LadConfig::default()),
//! );
//! let a = exact.generate_greedy(&[1, 2, 3], 8);
//! let b = lad.generate_greedy(&[1, 2, 3], 8);
//! assert_eq!(a.len(), b.len());
//! ```

pub mod backend;
pub mod batch;
pub mod config;
pub mod layers;
pub mod sampling;
pub mod spec;
pub mod transformer;

pub use backend::{AttentionKind, HeadState, HeadStepOutput};
pub use batch::{BatchSession, Run, StepOutcome};
pub use config::{MlpKind, ModelConfig, NormKind, PositionKind};
pub use sampling::{generate, Sampler};
pub use spec::{DraftPolicy, Drafter, SpecConfig};
pub use transformer::{argmax, log_prob, Model, Session};
