//! Transformer layer primitives: normalisation, activations, linear layers
//! and rotary position embeddings.
//!
//! These are the operators the LAD accelerator's SFM and VPUs execute
//! (paper Sec. IV-B): LayerNorm/RMSNorm, RoPE, GELU/SiLU and dense
//! projections.

use lad_math::gemm::{gemm_bt_into, GemmScratch};
use lad_math::simd::{active_kernel, Kernel};
use lad_math::{Matrix, Rng};

/// LayerNorm with learned scale (`gamma`) and shift (`beta`).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    eps: f32,
}

impl LayerNorm {
    /// Identity-initialised LayerNorm of width `dim`.
    pub fn new(dim: usize) -> LayerNorm {
        LayerNorm {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            eps: 1e-5,
        }
    }

    /// Applies `gamma · (x − E[x]) / √(V[x] + eps) + beta`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the layer width.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; x.len()];
        self.forward_into(x, &mut out);
        out
    }

    /// In-place [`LayerNorm::forward`]: writes into `out` (overwritten), so
    /// reused scratch rows never allocate. Bit-identical to `forward`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `out.len()` differs from the layer width.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.gamma.len(), "layernorm: width mismatch");
        assert_eq!(out.len(), self.gamma.len(), "layernorm: output mismatch");
        let n = x.len() as f32;
        let mean = x.iter().sum::<f32>() / n;
        let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv = 1.0 / (var + self.eps).sqrt();
        for (slot, ((&v, &g), &b)) in out
            .iter_mut()
            .zip(x.iter().zip(&self.gamma).zip(&self.beta))
        {
            *slot = g * (v - mean) * inv + b;
        }
    }
}

/// RMSNorm with learned scale.
#[derive(Debug, Clone, PartialEq)]
pub struct RmsNorm {
    gamma: Vec<f32>,
    eps: f32,
}

impl RmsNorm {
    /// Identity-initialised RMSNorm of width `dim`.
    pub fn new(dim: usize) -> RmsNorm {
        RmsNorm {
            gamma: vec![1.0; dim],
            eps: 1e-5,
        }
    }

    /// Applies `gamma · x / rms(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the layer width.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; x.len()];
        self.forward_into(x, &mut out);
        out
    }

    /// In-place [`RmsNorm::forward`]: writes into `out` (overwritten), so
    /// reused scratch rows never allocate. Bit-identical to `forward`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `out.len()` differs from the layer width.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.gamma.len(), "rmsnorm: width mismatch");
        assert_eq!(out.len(), self.gamma.len(), "rmsnorm: output mismatch");
        let n = x.len() as f32;
        let ms = x.iter().map(|&v| v * v).sum::<f32>() / n;
        let inv = 1.0 / (ms + self.eps).sqrt();
        for (slot, (&v, &g)) in out.iter_mut().zip(x.iter().zip(&self.gamma)) {
            *slot = g * v * inv;
        }
    }
}

/// Tanh-approximated GELU (the OPT activation).
pub fn gelu(x: f32) -> f32 {
    let c = (2.0f32 / std::f32::consts::PI).sqrt();
    0.5 * x * (1.0 + (c * (x + 0.044_715 * x * x * x)).tanh())
}

/// SiLU (swish) activation used by LLaMA's SwiGLU MLP.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// A dense projection `y = W · x` (no bias; row-major `out × in` `f32`
/// weight).
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weight: Matrix,
}

impl Linear {
    /// Random initialisation with scale `1/√fan_in` (keeps activations
    /// bounded through depth).
    pub fn random(out_dim: usize, in_dim: usize, rng: &mut Rng) -> Linear {
        let scale = 1.0 / (in_dim as f32).sqrt();
        let data = rng.normal_vec(out_dim * in_dim, scale);
        Linear {
            weight: Matrix::from_flat(out_dim, in_dim, data),
        }
    }

    /// Bytes of weight data a forward pass streams: the `f32` matrix.
    pub fn weight_bytes(&self) -> usize {
        std::mem::size_of::<f32>() * self.weight.rows() * self.weight.cols()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Applies the projection.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.out_dim()];
        self.forward_into(x, &mut out);
        out
    }

    /// Allocation-free [`Linear::forward`]: writes `W · x` into `out`
    /// (overwritten). Bit-identical to `forward`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()` or `out.len() != out_dim()`.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        self.weight.matvec_into(x, out);
    }

    /// Cross-sample batched projection: treats `x` as a row-major
    /// `batch × in_dim` activation matrix and writes the row-major
    /// `batch × out_dim` result into `out` with **one** blocked GEMM, so the
    /// weight matrix is streamed once per packed row panel (8 rows, or 16
    /// on AVX-512F hosts; see [`lad_math::gemm`]) instead of once per sample. Row `s` of the result is bit-identical to
    /// `forward(row s)` (the [`lad_math::gemm`] accumulation contract).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != batch * in_dim()` or
    /// `out.len() != batch * out_dim()`.
    pub fn forward_batch_into(
        &self,
        batch: usize,
        x: &[f32],
        out: &mut [f32],
        scratch: &mut GemmScratch,
    ) {
        let _span = lad_obs::span(gemm_kernel_span());
        gemm_bt_into(
            batch,
            self.out_dim(),
            self.in_dim(),
            x,
            self.weight.as_slice(),
            out,
            scratch,
        );
    }
}

/// Static span name for the microkernel a batched projection will actually
/// run, so traces attribute GEMM time to the kernel taken.
fn gemm_kernel_span() -> &'static str {
    match active_kernel() {
        Kernel::Scalar => "kernel.gemm_f32_scalar",
        Kernel::Simd => "kernel.gemm_f32_simd",
    }
}

/// Rotary position embedding for one head vector (`dim` must be even).
///
/// Rotates consecutive pairs `(x[2i], x[2i+1])` by `position · θᵢ` with
/// `θᵢ = base^(−2i/dim)` — the LLaMA formulation the SFM implements
/// (paper Sec. IV-B(6)).
///
/// # Panics
///
/// Panics if `x.len()` is odd.
pub fn rope(x: &[f32], position: usize, base: f32) -> Vec<f32> {
    let mut out = x.to_vec();
    rope_in_place(&mut out, position, base);
    out
}

/// In-place [`rope`]: rotates `x` directly, so per-head projection spans can
/// be rotated inside their shared buffer without allocating.
///
/// # Panics
///
/// Panics if `x.len()` is odd.
pub fn rope_in_place(x: &mut [f32], position: usize, base: f32) {
    assert!(x.len().is_multiple_of(2), "rope: dimension must be even");
    let d = x.len();
    for i in 0..d / 2 {
        let theta = (position as f32) * base.powf(-2.0 * i as f32 / d as f32);
        let (sin, cos) = theta.sin_cos();
        let (even, odd) = (x[2 * i], x[2 * i + 1]);
        x[2 * i] = even * cos - odd * sin;
        x[2 * i + 1] = even * sin + odd * cos;
    }
}

/// Standard RoPE base.
pub const ROPE_BASE: f32 = 10_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let ln = LayerNorm::new(4);
        let y = ln.forward(&[1.0, 2.0, 3.0, 4.0]);
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        let var: f32 = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rmsnorm_unit_rms() {
        let norm = RmsNorm::new(3);
        let y = norm.forward(&[3.0, 0.0, 4.0]);
        let ms: f32 = y.iter().map(|v| v * v).sum::<f32>() / 3.0;
        assert!((ms - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_reference_points() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
        // Asymptotically identity for large x.
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn silu_reference_points() {
        assert!(silu(0.0).abs() < 1e-7);
        assert!((silu(1.0) - 0.7311).abs() < 1e-3);
        assert!(silu(-20.0).abs() < 1e-3);
    }

    #[test]
    fn linear_shapes_and_determinism() {
        let mut rng1 = Rng::new(5);
        let mut rng2 = Rng::new(5);
        let a = Linear::random(3, 2, &mut rng1);
        let b = Linear::random(3, 2, &mut rng2);
        assert_eq!(a, b);
        assert_eq!(a.out_dim(), 3);
        assert_eq!(a.in_dim(), 2);
        assert_eq!(a.forward(&[1.0, 0.0]).len(), 3);
    }

    #[test]
    fn forward_into_variants_match_allocating_forward() {
        let mut rng = Rng::new(9);
        let x: Vec<f32> = rng.normal_vec(6, 1.0);
        let ln = LayerNorm::new(6);
        let mut out = vec![7.0f32; 6];
        ln.forward_into(&x, &mut out);
        assert_eq!(out, ln.forward(&x));
        let rn = RmsNorm::new(6);
        rn.forward_into(&x, &mut out);
        assert_eq!(out, rn.forward(&x));
        let lin = Linear::random(4, 6, &mut rng);
        let mut out = vec![7.0f32; 4];
        lin.forward_into(&x, &mut out);
        assert_eq!(out, lin.forward(&x));
    }

    #[test]
    fn batched_projection_rows_match_per_sample_forward() {
        let mut rng = Rng::new(10);
        let lin = Linear::random(5, 8, &mut rng);
        let batch = 3;
        let x: Vec<f32> = rng.normal_vec(batch * 8, 1.0);
        let mut out = vec![0.0f32; batch * 5];
        lin.forward_batch_into(batch, &x, &mut out, &mut GemmScratch::default());
        for s in 0..batch {
            assert_eq!(
                &out[s * 5..(s + 1) * 5],
                &lin.forward(&x[s * 8..(s + 1) * 8])[..],
                "sample {s}"
            );
        }
    }

    #[test]
    fn rope_preserves_norm() {
        let x = vec![1.0, 2.0, -0.5, 0.25];
        let y = rope(&x, 17, ROPE_BASE);
        let nx: f32 = x.iter().map(|v| v * v).sum();
        let ny: f32 = y.iter().map(|v| v * v).sum();
        assert!((nx - ny).abs() < 1e-4);
    }

    #[test]
    fn rope_in_place_matches_rope() {
        let x = vec![0.9f32, -0.2, 1.3, 0.4, -0.8, 0.05];
        for pos in [0usize, 1, 17, 999] {
            let mut y = x.clone();
            rope_in_place(&mut y, pos, ROPE_BASE);
            assert_eq!(y, rope(&x, pos, ROPE_BASE));
        }
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let x = vec![0.3, -0.7, 1.1, 0.0];
        assert_eq!(rope(&x, 0, ROPE_BASE), x);
    }

    #[test]
    fn rope_relative_dot_products() {
        // The defining property: <rope(q, m), rope(k, n)> depends only on
        // m - n.
        let q = vec![0.5, -1.0, 0.25, 0.75];
        let k = vec![1.0, 0.5, -0.5, 0.3];
        let dot = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        let d1 = dot(&rope(&q, 10, ROPE_BASE), &rope(&k, 7, ROPE_BASE));
        let d2 = dot(&rope(&q, 23, ROPE_BASE), &rope(&k, 20, ROPE_BASE));
        assert!((d1 - d2).abs() < 1e-4);
    }
}
