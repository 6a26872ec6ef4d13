//! # LAD — Locality Aware Decoding
//!
//! Implementation of the attention algorithm from *"LAD: Efficient
//! Accelerator for Generative Inference of LLM with Locality Aware Decoding"*
//! (HPCA 2025).
//!
//! LAD exploits **inter-decoding-step numerical locality**: a position's
//! attention score keeps falling into the same sub-interval of `(-inf, 0]`
//! across decoding steps. Replacing softmax's `exp` with a piecewise-linear
//! approximation turns the attention output into a linear functional of the
//! keys and values, so every position that stays in its **mode interval** can
//! be folded into six fixed-size intermediate caches (`A`–`F`, [`cache`]).
//! Each decoding step then reads only the keys/values of **active positions**
//! — the handful whose score left its mode interval — cutting KV-cache
//! traffic from `O(n·d)` to `O(|J|·d)`.
//!
//! ## Module map
//!
//! | module | paper section | content |
//! |---|---|---|
//! | [`kv`] | Eq. 1 | the per-head KV cache |
//! | [`modes`] | Sec. III-E | interval counters and mode tracking |
//! | [`centers`] | Alg. 1 | dynamic key directional centers |
//! | [`cache`] | Eq. 4–6 | the six intermediate caches |
//! | [`decoder`] | Sec. III-E, Fig. 3 | the per-step LAD state machine |
//! | [`mod@reference`] | Eq. 2–3 | exact and direct-PWL oracles |
//! | [`locality`] | Sec. II-B, Fig. 2 | numerical-locality analysis |
//! | [`stats`] | Sec. IV | per-step instrumentation for the accelerator |
//!
//! ## Quickstart
//!
//! ```
//! use lad_core::decoder::{LadAttention, LadConfig};
//! use lad_math::pwl::PwlExp;
//! use lad_math::Rng;
//!
//! let dim = 32;
//! let mut head = LadAttention::new(dim, LadConfig::new(PwlExp::accurate_default()));
//! let mut rng = Rng::new(7);
//! for _ in 0..64 {
//!     let q = rng.normal_vec(dim, 1.0);
//!     let k = rng.normal_vec(dim, 1.0);
//!     let v = rng.normal_vec(dim, 1.0);
//!     let step = head.step(&q, &k, &v);
//!     assert_eq!(step.output.len(), dim);
//! }
//! // Only a fraction of cached positions needed their keys/values re-read.
//! assert!(head.kv().len() == 64);
//! ```

pub mod audit;
pub mod cache;
pub mod centers;
pub mod decoder;
pub mod kv;
pub mod locality;
pub mod modes;
pub mod reference;
pub mod stats;

pub use audit::{audit_stream, AuditReport, QkvStream, QkvTriple};
pub use cache::IntermediateCache;
pub use centers::CenterBook;
pub use decoder::{Identification, LadAttention, LadConfig, StepOutput};
pub use kv::KvCache;
pub use locality::{LocalityAnalyzer, LocalityReport};
pub use modes::ModeTracker;
pub use stats::{StatsSummary, StepStats};
