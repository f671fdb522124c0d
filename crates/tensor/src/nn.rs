//! Non-GEMM transformer operators: softmax, layer normalization, GELU.
//!
//! The paper notes (Section IV-A) that "transformer-based models have layer
//! normalization and softmax which limits the range of values" — a property
//! Mokey's activation profiling relies on — so these operators must be
//! numerically faithful, not stubs.

use crate::Matrix;

/// Fused linear layer: `x · w + bias` in one row pass.
///
/// The bias is pre-loaded into the GEMM accumulators
/// ([`Matrix::matmul_bias`]), so no separate broadcast pass or output
/// clone runs. Like every GEMM kernel, output row `i` depends only on
/// input row `i`, `w`, and `bias` — batches of sequences stacked into one
/// tall activation matrix reproduce their solo rows bit for bit.
///
/// # Panics
///
/// Panics if `x.cols() != w.rows()` or `bias.len() != w.cols()`.
///
/// # Example
///
/// ```
/// use mokey_tensor::{nn, Matrix};
///
/// let x = Matrix::from_rows(&[&[1.0, 2.0]]);
/// let w = Matrix::from_rows(&[&[1.0], &[1.0]]);
/// assert_eq!(nn::linear(&x, &w, &[0.5]).as_slice(), &[3.5]);
/// ```
pub fn linear(x: &Matrix, w: &Matrix, bias: &[f32]) -> Matrix {
    x.matmul_bias(w, bias)
}

/// Row-wise numerically-stable softmax, in place.
///
/// Each row is shifted by its maximum before exponentiation so large logits
/// cannot overflow, then normalized to sum to 1.
///
/// # Example
///
/// ```
/// use mokey_tensor::{nn, Matrix};
///
/// let mut m = Matrix::from_rows(&[&[0.0, 0.0, f32::ln(2.0)]]);
/// nn::softmax_rows(&mut m);
/// assert!((m[(0, 2)] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(m: &mut Matrix) {
    let cols = m.cols();
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        debug_assert!(sum > 0.0, "softmax row of width {cols} summed to zero");
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// Row-wise layer normalization with learned scale (`gamma`) and shift
/// (`beta`): `y = gamma · (x − mean) / sqrt(var + eps) + beta`.
///
/// # Panics
///
/// Panics if `gamma` or `beta` width differs from `m.cols()`.
pub fn layer_norm(m: &mut Matrix, gamma: &[f32], beta: &[f32], eps: f32) {
    assert_eq!(gamma.len(), m.cols(), "gamma width mismatch");
    assert_eq!(beta.len(), m.cols(), "beta width mismatch");
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let n = row.len() as f32;
        let mean: f32 = row.iter().sum::<f32>() / n;
        let var: f32 = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n;
        let inv = (var + eps).sqrt().recip();
        for ((x, g), b) in row.iter_mut().zip(gamma).zip(beta) {
            *x = g * (*x - mean) * inv + b;
        }
    }
}

/// GELU activation (tanh approximation, as used by BERT):
/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// Hyperbolic-tangent pooler activation applied element-wise.
pub fn tanh_inplace(m: &mut Matrix) {
    m.map_inplace(f32::tanh);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_fn(4, 9, |r, c| (r as f32) - (c as f32) * 0.3);
        softmax_rows(&mut m);
        for r in 0..m.rows() {
            let sum: f32 = m.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            assert!(m.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_overflow_safe() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let mut b = Matrix::from_rows(&[&[1001.0, 1002.0, 1003.0]]);
        softmax_rows(&mut a);
        softmax_rows(&mut b);
        assert!(a.max_abs_diff(&b) < 1e-6);
        assert!(b.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn layer_norm_zero_mean_unit_std() {
        let mut m = Matrix::from_fn(3, 64, |r, c| (r * 64 + c) as f32 * 0.1 - 2.0);
        let gamma = vec![1.0; 64];
        let beta = vec![0.0; 64];
        layer_norm(&mut m, &gamma, &beta, 1e-6);
        for r in 0..m.rows() {
            let mean: f32 = m.row(r).iter().sum::<f32>() / 64.0;
            let var: f32 = m.row(r).iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }

    #[test]
    fn layer_norm_applies_gamma_beta() {
        let mut m = Matrix::from_rows(&[&[0.0, 1.0]]);
        layer_norm(&mut m, &[2.0, 2.0], &[10.0, 10.0], 1e-9);
        // Normalized row is [-1, 1]; scaled/shifted: [8, 12].
        assert!((m[(0, 0)] - 8.0).abs() < 1e-3);
        assert!((m[(0, 1)] - 12.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_reference_points() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(1.0) - 0.841_192).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.158_808).abs() < 1e-3);
        // Asymptotes: identity for large x, zero for very negative x.
        assert!((gelu(6.0) - 6.0).abs() < 1e-3);
        assert!(gelu(-6.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "gamma width mismatch")]
    fn layer_norm_width_mismatch_panics() {
        let mut m = Matrix::zeros(1, 3);
        layer_norm(&mut m, &[1.0], &[0.0, 0.0, 0.0], 1e-6);
    }
}
