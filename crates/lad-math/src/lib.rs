//! Numerical substrate for the LAD reproduction.
//!
//! This crate provides the low-level numerical building blocks that the rest of
//! the workspace is built on:
//!
//! * [`vector`] — dense vector kernels (dot products, norms, cosine similarity,
//!   scaled accumulation) over `f32` slices.
//! * [`matrix`] — a row-major dense [`matrix::Matrix`] with the vector-matrix
//!   and outer-product operations the intermediate caches need.
//! * [`gemm`] — cache-blocked matrix-matrix kernels with a bit-exact
//!   ascending-`k` accumulation contract, so batched projections agree with
//!   per-sample `matvec` calls bit for bit.
//! * [`simd`] — runtime-dispatched AVX2 microkernels behind the same
//!   interfaces (`LAD_GEMM_KERNEL`, [`with_kernel`]): the f32 GEMM and the
//!   f32 KV read (key scores, weighted value sum, over all rows or a listed
//!   subset) are bit-identical to scalar.
//! * [`pwl`] — piecewise-linear approximation of `exp` on `(-inf, 0]` with
//!   closed-form least-squares segment fitting (paper Sec. III-A).
//! * [`softmax`] — numerically stable softmax and its PWL counterpart.
//! * [`rng`] — a tiny deterministic PRNG (SplitMix64 / xoshiro256**) so the
//!   substrate stays dependency-free while experiments remain reproducible.
//! * [`stats`] — summary statistics used throughout the evaluation (geometric
//!   mean, quantiles, histograms).
//!
//! # Example
//!
//! ```
//! use lad_math::pwl::PwlExp;
//!
//! let pwl = PwlExp::accurate_default();
//! let y = pwl.eval(-0.5);
//! assert!((y - (-0.5f64).exp()).abs() < 0.002);
//! ```

pub mod gemm;
pub mod matrix;
pub mod pwl;
pub mod rng;
pub mod simd;
pub mod softmax;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;
pub use pwl::{PwlExp, Segment};
pub use rng::Rng;
pub use simd::{with_kernel, Kernel};
