//! Dense vector kernels over `f32` slices.
//!
//! These are the primitive operations the VPU (vector processing unit) in the
//! LAD accelerator performs — dot products (`DP`), element-wise multiplication
//! (`EM`) and scalar scaling (`S`) — plus the norms and cosine similarity the
//! directional-center extraction (paper Alg. 1) relies on.

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
///
/// # Example
///
/// ```
/// assert_eq!(lad_math::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm of a vector.
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine of the angle between two vectors.
///
/// Returns 0.0 when either vector has zero norm — a zero key has no direction
/// and must never be treated as collinear with anything.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// `out += scale * x` (the BLAS `axpy`).
///
/// # Panics
///
/// Panics if `out.len() != x.len()`.
pub fn axpy(out: &mut [f32], scale: f32, x: &[f32]) {
    assert_eq!(out.len(), x.len(), "axpy: length mismatch");
    for (o, v) in out.iter_mut().zip(x) {
        *o += scale * v;
    }
}

/// Element-wise product, writing into a fresh vector (the VPU `EM` op).
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn elementwise_mul(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "elementwise_mul: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

/// `scale * x` into a fresh vector (the VPU `S` op).
pub fn scale(x: &[f32], factor: f32) -> Vec<f32> {
    x.iter().map(|v| v * factor).collect()
}

/// Element-wise sum into a fresh vector.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise difference `a - b` into a fresh vector.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Maximum absolute element-wise difference between two vectors.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Relative L2 distance `||a - b|| / max(||b||, eps)`.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn relative_l2(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "relative_l2: length mismatch");
    let mut num = 0.0f32;
    let mut den = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        num += (x - y) * (x - y);
        den += y * y;
    }
    num.sqrt() / den.sqrt().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm_is_euclidean() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(norm(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn cosine_range_and_degenerate() {
        assert!((cosine(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-3.0, 0.0]) + 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut out = vec![1.0, 1.0];
        axpy(&mut out, 2.0, &[3.0, -1.0]);
        assert_eq!(out, vec![7.0, -1.0]);
    }

    #[test]
    fn elementwise_and_scale() {
        assert_eq!(elementwise_mul(&[1.0, 2.0], &[3.0, 4.0]), vec![3.0, 8.0]);
        assert_eq!(scale(&[1.0, -2.0], 0.5), vec![0.5, -1.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = [1.5f32, -2.0, 3.25];
        let b = [0.5f32, 2.0, -1.25];
        assert_eq!(sub(&add(&a, &b), &b), a.to_vec());
    }

    #[test]
    fn distances() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
        assert!(relative_l2(&[1.0, 0.0], &[1.0, 0.0]) < 1e-9);
        assert!((relative_l2(&[2.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
    }
}
