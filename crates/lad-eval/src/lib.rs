//! Evaluation tooling for the LAD reproduction.
//!
//! * [`rouge`] — ROUGE-1/2/L/Lsum over token sequences (paper Table I).
//! * [`quality`] — perplexity, multiple-choice accuracy and generation
//!   fidelity harnesses (paper Tables I and II).
//! * [`backends`] — quality-per-byte-**moved** scorecards for the sparse
//!   attention backend zoo (exact, LAD, top-k, H2O) from the per-step
//!   traffic counters.
//! * [`datasets`] — seeded synthetic prompt sets and corpora shaped after the
//!   paper's benchmark suites (alpaca/gsm8k/mmlu, wikitext2/openbookQA/
//!   lambada) — see `DESIGN.md` for the substitution rationale.
//!
//! # Example
//!
//! ```
//! use lad_eval::rouge::RougeScores;
//!
//! let reference = vec![1u32, 2, 3, 4, 5, 6];
//! let mut candidate = reference.clone();
//! candidate[3] = 9;
//! let scores = RougeScores::compute(&reference, &candidate, None);
//! assert!(scores.rouge1 > 0.8);
//! ```

pub mod backends;
pub mod datasets;
pub mod quality;
pub mod report;
pub mod rouge;

pub use backends::{backend_quality_report, backend_zoo, BackendQualityRow};
pub use datasets::{ChoiceTask, PromptSet, TokenSampler};
pub use quality::{choice_accuracy, generation_fidelity, mean_nll, perplexity};
pub use report::Table;
pub use rouge::RougeScores;
