//! Index-domain compute kernels (paper Section II-D, Eq. 1–6).
//!
//! Because every Gaussian centroid has the form `θ(a^i + b)·s + m`, the dot
//! product of two quantized vectors decomposes into four histogram-counted
//! terms plus constants:
//!
//! ```text
//! Σ A·W = s_A·s_W·[SoI + b·SoA1 + b·SoW1 + b²·PoM1]
//!       + s_A·m_W·[SoA2 + b·PoM2]
//!       + s_W·m_A·[SoW2 + b·PoM3]
//!       + n_G·m_A·m_W
//!       + Σ_outlier-pairs decode(A)·decode(W)
//! ```
//!
//! where, over the Gaussian-pair subset,
//! `SoI = Σ θ_Aθ_W a^(i_A+i_W)` (15-entry histogram of exponent sums),
//! `SoA1 = Σ θ_Aθ_W a^(i_A)`, `SoA2 = Σ θ_A a^(i_A)` (8-entry histograms),
//! symmetrically for `SoW1`/`SoW2`, and `PoM1..3` are signed counts. Pairs
//! containing an outlier operand bypass the decomposition and are
//! multiply-accumulated on their looked-up centroids, exactly as the OPP
//! unit does in hardware.
//!
//! The decomposition is **algebraically exact**: [`dot_indexed`] equals
//! [`dot_decoded`] to f64 rounding, which the property tests enforce. The
//! fixed-point variant [`dot_indexed_fixed`] additionally snaps every
//! constant and the post-processing arithmetic to 16-bit grids, emulating
//! the paper's integer datapath (Section II-F).

use crate::dict::TensorDict;
use crate::encode::{Code, QuantizedTensor};
use mokey_fixed::{snap_to_grid, QFormat};
use mokey_tensor::Matrix;

/// The histogram state accumulated while streaming one dot product —
/// functionally, the contents of one GPE's Counter Register Files plus the
/// OPP's outlier accumulator.
///
/// Field names follow the paper. Counters are wide (`i64`) here; the
/// hardware model in `mokey-accel` accounts for the narrow 8-bit CRFs and
/// their drain cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct DotBreakdown {
    /// `SoI` histogram: signed count per exponent sum `i_A + i_W ∈ [0, 14]`.
    pub soi: Vec<i64>,
    /// `SoA1` histogram: signed (`θ_Aθ_W`) count per activation index.
    pub soa1: Vec<i64>,
    /// `SoA2` histogram: activation-sign (`θ_A`) count per activation index.
    pub soa2: Vec<i64>,
    /// `SoW1` histogram: signed (`θ_Aθ_W`) count per weight index.
    pub sow1: Vec<i64>,
    /// `SoW2` histogram: weight-sign (`θ_W`) count per weight index.
    pub sow2: Vec<i64>,
    /// `PoM1 = Σ θ_Aθ_W` over Gaussian pairs.
    pub pom1: i64,
    /// `PoM2 = Σ θ_A` over Gaussian pairs.
    pub pom2: i64,
    /// `PoM3 = Σ θ_W` over Gaussian pairs.
    pub pom3: i64,
    /// Number of Gaussian pairs (the `n` of `n·m_A·m_W`).
    pub gaussian_pairs: i64,
    /// Number of pairs routed to the outlier path.
    pub outlier_pairs: i64,
    /// Direct multiply-accumulate of outlier pairs on decoded centroids.
    pub outlier_acc: f64,
}

impl DotBreakdown {
    /// Empty breakdown for a curve with `half_len` magnitudes.
    pub fn new(half_len: usize) -> Self {
        Self {
            soi: vec![0; 2 * half_len - 1],
            soa1: vec![0; half_len],
            soa2: vec![0; half_len],
            sow1: vec![0; half_len],
            sow2: vec![0; half_len],
            pom1: 0,
            pom2: 0,
            pom3: 0,
            gaussian_pairs: 0,
            outlier_pairs: 0,
            outlier_acc: 0.0,
        }
    }

    /// Streams one `(activation, weight)` code pair into the histograms —
    /// one GPE lane-cycle.
    pub fn accumulate(&mut self, ca: Code, cw: Code, a_dict: &TensorDict, w_dict: &TensorDict) {
        if ca.is_outlier() || cw.is_outlier() {
            self.outlier_pairs += 1;
            self.outlier_acc += a_dict.decode_code(ca) * w_dict.decode_code(cw);
            return;
        }
        let sa = ca.sign();
        let sw = cw.sign();
        let s = sa * sw;
        self.soi[(ca.index() + cw.index()) as usize] += s;
        self.soa1[ca.index() as usize] += s;
        self.soa2[ca.index() as usize] += sa;
        self.sow1[cw.index() as usize] += s;
        self.sow2[cw.index() as usize] += sw;
        self.pom1 += s;
        self.pom2 += sa;
        self.pom3 += sw;
        self.gaussian_pairs += 1;
    }

    /// Post-processing: reduces the histograms to the scalar dot product
    /// (the OPP's weighted-reduction pass), in exact `f64`.
    pub fn reduce(&self, a_dict: &TensorDict, w_dict: &TensorDict) -> f64 {
        let curve = a_dict.curve();
        debug_assert_eq!(curve.a, w_dict.curve().a, "tensors must share the fitted curve");
        let a = curve.a;
        let b = curve.b;
        let (sa, ma) = (a_dict.scale(), a_dict.shift());
        let (sw, mw) = (w_dict.scale(), w_dict.shift());

        let soi_v: f64 =
            self.soi.iter().enumerate().map(|(e, &c)| c as f64 * a.powi(e as i32)).sum();
        let weigh = |hist: &[i64]| -> f64 {
            hist.iter().enumerate().map(|(i, &c)| c as f64 * a.powi(i as i32)).sum()
        };
        let soa1_v = weigh(&self.soa1);
        let soa2_v = weigh(&self.soa2);
        let sow1_v = weigh(&self.sow1);
        let sow2_v = weigh(&self.sow2);

        sa * sw * (soi_v + b * soa1_v + b * sow1_v + b * b * self.pom1 as f64)
            + sa * mw * (soa2_v + b * self.pom2 as f64)
            + sw * ma * (sow2_v + b * self.pom3 as f64)
            + self.gaussian_pairs as f64 * ma * mw
            + self.outlier_acc
    }

    /// Fixed-point post-processing: every LUT base, coefficient, and
    /// intermediate accumulation is snapped to the stated grids before use,
    /// emulating the 16-bit datapath of Section II-F. Histogram counts stay
    /// exact integers (they are counters in hardware).
    pub fn reduce_fixed(&self, a_dict: &TensorDict, w_dict: &TensorDict, out: QFormat) -> f64 {
        let curve = a_dict.curve();
        let a = curve.a;
        let b = curve.b;
        let (sa, ma) = (a_dict.scale(), a_dict.shift());
        let (sw, mw) = (w_dict.scale(), w_dict.shift());

        // G-LUT bases a^e stored as 16-bit fixed point (Eq. 7 applied to the
        // base range [1, a^max]).
        let max_e = self.soi.len() - 1;
        let base_fmt = QFormat::for_range(16, 0.0, a.powi(max_e as i32));
        let lut = |e: usize| snap_to_grid(a.powi(e as i32), base_fmt.frac_bits());

        // Counter × base products accumulate in a 32-bit register; model the
        // grid of that accumulator.
        let acc_frac = base_fmt.frac_bits();
        let reduce_hist = |hist: &[i64]| -> f64 {
            let mut acc = 0.0;
            for (e, &c) in hist.iter().enumerate() {
                acc = snap_to_grid(acc + c as f64 * lut(e), acc_frac);
            }
            acc
        };
        let soi_v = reduce_hist(&self.soi);
        let soa1_v = reduce_hist(&self.soa1);
        let soa2_v = reduce_hist(&self.soa2);
        let sow1_v = reduce_hist(&self.sow1);
        let sow2_v = reduce_hist(&self.sow2);

        // Per-layer constants are quantized to 16-bit fixed point during
        // profiling (Section II-F); pick each constant's own Eq. 7 format.
        let k16 = |v: f64| -> f64 {
            if v == 0.0 {
                return 0.0;
            }
            let fmt = QFormat::for_range(16, -v.abs(), v.abs());
            snap_to_grid(v, fmt.frac_bits())
        };
        let b_fx = k16(b);
        let b2_fx = k16(b * b);
        let sasw = k16(sa * sw);
        let samw = k16(sa * mw);
        let swma = k16(sw * ma);
        let mamw = k16(ma * mw);

        let term_g = snap_to_grid(
            soi_v + b_fx * soa1_v + b_fx * sow1_v + b2_fx * self.pom1 as f64,
            acc_frac,
        );
        let term_a = snap_to_grid(soa2_v + b_fx * self.pom2 as f64, acc_frac);
        let term_w = snap_to_grid(sow2_v + b_fx * self.pom3 as f64, acc_frac);

        let result = sasw * term_g
            + samw * term_a
            + swma * term_w
            + mamw * self.gaussian_pairs as f64
            + self.outlier_acc;
        snap_to_grid(result, out.frac_bits())
    }
}

/// Index-domain dot product of two quantized vectors — the paper's
/// histogram method, exact in `f64`.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Example
///
/// ```
/// use mokey_core::{curve::ExpCurve, dict::TensorDict, encode::QuantizedTensor, kernels};
/// use mokey_tensor::init::GaussianMixture;
///
/// let a = GaussianMixture::activation_like(0.1, 1.0).sample_matrix(1, 256, 1);
/// let w = GaussianMixture::weight_like(0.0, 0.05).sample_matrix(1, 256, 2);
/// let curve = ExpCurve::paper();
/// let qa = QuantizedTensor::encode_with_own_dict(&a, &curve, &Default::default()).unwrap();
/// let qw = QuantizedTensor::encode_with_own_dict(&w, &curve, &Default::default()).unwrap();
/// let indexed = kernels::dot_indexed(qa.codes(), qa.dict(), qw.codes(), qw.dict());
/// let reference = kernels::dot_decoded(qa.codes(), qa.dict(), qw.codes(), qw.dict());
/// assert!((indexed - reference).abs() < 1e-9 * reference.abs().max(1.0));
/// ```
pub fn dot_indexed(
    a_codes: &[Code],
    a_dict: &TensorDict,
    w_codes: &[Code],
    w_dict: &TensorDict,
) -> f64 {
    dot_breakdown(a_codes, a_dict, w_codes, w_dict).reduce(a_dict, w_dict)
}

/// Builds the full histogram breakdown for one dot product (exposed for the
/// hardware simulator and the tests).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_breakdown(
    a_codes: &[Code],
    a_dict: &TensorDict,
    w_codes: &[Code],
    w_dict: &TensorDict,
) -> DotBreakdown {
    assert_eq!(a_codes.len(), w_codes.len(), "dot length mismatch");
    let mut bd = DotBreakdown::new(a_dict.curve().half_len);
    for (&ca, &cw) in a_codes.iter().zip(w_codes) {
        bd.accumulate(ca, cw, a_dict, w_dict);
    }
    bd
}

/// Reference dot product on decoded centroids (what a conventional MAC array
/// would compute after dictionary lookup).
///
/// Accumulates in four independent lanes (lane `l` sums pairs `i ≡ l mod 4`
/// over the 4-wide prefix) combined as `(s0 + s1) + (s2 + s3)` with the
/// remainder added sequentially — the same fixed reduction structure as
/// `mokey_tensor::dot`, so results are deterministic across runs and
/// independent of how callers block the surrounding GEMM. The order is
/// pinned by `dot_decoded_lane_reduction_order_is_pinned`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_decoded(
    a_codes: &[Code],
    a_dict: &TensorDict,
    w_codes: &[Code],
    w_dict: &TensorDict,
) -> f64 {
    assert_eq!(a_codes.len(), w_codes.len(), "dot length mismatch");
    let mut ca = a_codes.chunks_exact(4);
    let mut cw = w_codes.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (xa, xw) in (&mut ca).zip(&mut cw) {
        s0 += a_dict.decode_code(xa[0]) * w_dict.decode_code(xw[0]);
        s1 += a_dict.decode_code(xa[1]) * w_dict.decode_code(xw[1]);
        s2 += a_dict.decode_code(xa[2]) * w_dict.decode_code(xw[2]);
        s3 += a_dict.decode_code(xa[3]) * w_dict.decode_code(xw[3]);
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    for (&x, &y) in ca.remainder().iter().zip(cw.remainder()) {
        acc += a_dict.decode_code(x) * w_dict.decode_code(y);
    }
    acc
}

/// Index-domain dot product with the fixed-point post-processing datapath
/// (16-bit LUTs and constants, output snapped to `out`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_indexed_fixed(
    a_codes: &[Code],
    a_dict: &TensorDict,
    w_codes: &[Code],
    w_dict: &TensorDict,
    out: QFormat,
) -> f64 {
    dot_breakdown(a_codes, a_dict, w_codes, w_dict).reduce_fixed(a_dict, w_dict, out)
}

/// Index-domain GEMM: `A (M×K) · W (K×N)` entirely through the histogram
/// kernels. `W` is stored row-major `K×N` as usual.
///
/// This is the bit-faithful-but-slow path; [`matmul_decoded`] computes the
/// numerically identical result through a dense GEMM on decoded centroids
/// (equivalence is property-tested), which the transformer-scale
/// experiments use.
///
/// # Panics
///
/// Panics if inner dimensions differ.
pub fn matmul_indexed(a: &QuantizedTensor, w: &QuantizedTensor) -> Matrix {
    assert_eq!(a.cols(), w.rows(), "matmul_indexed inner dimension mismatch");
    let (m, n) = (a.rows(), w.cols());
    let mut out = Matrix::zeros(m, n);
    // Gather W into one flat column-major buffer (a single allocation) so
    // the inner loop sweeps contiguous columns.
    let w_cols = crate::lut::ColMajorCodes::from_tensor(w);
    for i in 0..m {
        let a_row = a.row_codes(i);
        for j in 0..n {
            out[(i, j)] = dot_indexed(a_row, a.dict(), w_cols.col(j), w.dict()) as f32;
        }
    }
    out
}

/// GEMM on decoded centroids — numerically identical to [`matmul_indexed`]
/// (up to f32 accumulation order) but runs at dense-GEMM speed.
pub fn matmul_decoded(a: &QuantizedTensor, w: &QuantizedTensor) -> Matrix {
    a.decode().matmul(&w.decode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::ExpCurve;
    use mokey_tensor::init::GaussianMixture;

    fn quantized_pair(n: usize, seed: u64) -> (QuantizedTensor, QuantizedTensor) {
        let curve = ExpCurve::paper();
        let a = GaussianMixture::activation_like(0.3, 1.2).sample_matrix(1, n, seed);
        let w = GaussianMixture::weight_like(-0.01, 0.06).sample_matrix(1, n, seed + 1000);
        (
            QuantizedTensor::encode_with_own_dict(&a, &curve, &Default::default()).unwrap(),
            QuantizedTensor::encode_with_own_dict(&w, &curve, &Default::default()).unwrap(),
        )
    }

    #[test]
    fn indexed_equals_decoded_reference() {
        for seed in 0..5 {
            let (qa, qw) = quantized_pair(512, seed);
            let indexed = dot_indexed(qa.codes(), qa.dict(), qw.codes(), qw.dict());
            let reference = dot_decoded(qa.codes(), qa.dict(), qw.codes(), qw.dict());
            assert!(
                (indexed - reference).abs() <= 1e-9 * reference.abs().max(1.0),
                "seed {seed}: indexed {indexed} vs reference {reference}"
            );
        }
    }

    #[test]
    fn breakdown_counts_are_consistent() {
        let (qa, qw) = quantized_pair(1000, 7);
        let bd = dot_breakdown(qa.codes(), qa.dict(), qw.codes(), qw.dict());
        assert_eq!(bd.gaussian_pairs + bd.outlier_pairs, 1000);
        // |PoM1| cannot exceed the Gaussian pair count.
        assert!(bd.pom1.abs() <= bd.gaussian_pairs);
        // Histogram mass: Σ|soa1| ≤ gaussian pairs, and the unsigned totals
        // of SoA1 and SoA2 agree (same events, different signs).
        let mass = |h: &[i64]| h.iter().map(|c| c.abs()).sum::<i64>();
        assert!(mass(&bd.soa1) <= bd.gaussian_pairs);
        assert_eq!(bd.soa1.iter().sum::<i64>(), bd.pom1);
        assert_eq!(bd.soa2.iter().sum::<i64>(), bd.pom2);
        assert_eq!(bd.sow1.iter().sum::<i64>(), bd.pom1);
        assert_eq!(bd.sow2.iter().sum::<i64>(), bd.pom3);
        // SoI mass equals gaussian pairs in the unsigned sense only when no
        // cancellation occurred inside a bin, but the signed sum must match
        // PoM1 (every pair contributes its sign exactly once).
        assert_eq!(bd.soi.iter().sum::<i64>(), bd.pom1);
    }

    #[test]
    fn outlier_pairs_bypass_histograms() {
        let (qa, qw) = quantized_pair(2000, 3);
        let bd = dot_breakdown(qa.codes(), qa.dict(), qw.codes(), qw.dict());
        assert!(bd.outlier_pairs > 0, "fixture should contain outliers");
        // Paper: "less than 4% of the multiplications in BERT" involve an
        // outlier; our mixtures should stay in single digits.
        let frac = bd.outlier_pairs as f64 / 2000.0;
        assert!(frac < 0.12, "outlier pair fraction {frac}");
    }

    #[test]
    fn fixed_point_path_tracks_float_path() {
        let (qa, qw) = quantized_pair(768, 11);
        let float = dot_indexed(qa.codes(), qa.dict(), qw.codes(), qw.dict());
        // Output format sized for the observed magnitude.
        let out = QFormat::for_range(16, -float.abs() * 2.0 - 1.0, float.abs() * 2.0 + 1.0);
        let fixed = dot_indexed_fixed(qa.codes(), qa.dict(), qw.codes(), qw.dict(), out);
        let tol = float.abs().max(1.0) * 0.02 + out.resolution();
        assert!((fixed - float).abs() < tol, "fixed {fixed} vs float {float} (tol {tol})");
    }

    #[test]
    fn matmul_indexed_matches_decoded_gemm() {
        let curve = ExpCurve::paper();
        let a = GaussianMixture::activation_like(0.0, 1.0).sample_matrix(6, 64, 21);
        let w = GaussianMixture::weight_like(0.0, 0.05).sample_matrix(64, 5, 22);
        let qa = QuantizedTensor::encode_with_own_dict(&a, &curve, &Default::default()).unwrap();
        let qw = QuantizedTensor::encode_with_own_dict(&w, &curve, &Default::default()).unwrap();
        let indexed = matmul_indexed(&qa, &qw);
        let decoded = matmul_decoded(&qa, &qw);
        assert_eq!(indexed.shape(), (6, 5));
        assert!(indexed.max_abs_diff(&decoded) < 1e-3);
    }

    #[test]
    fn dot_decoded_lane_reduction_order_is_pinned() {
        // The lane structure must stay fixed: lane l sums pairs i ≡ l
        // (mod 4), combined as (s0+s1)+(s2+s3), remainder sequential.
        // Reproduce it by hand on real quantized data and demand exact
        // equality — a reordered reduction would drift in the last ulps.
        let (qa, qw) = quantized_pair(1003, 13);
        let decode =
            |i: usize| qa.dict().decode_code(qa.codes()[i]) * qw.dict().decode_code(qw.codes()[i]);
        let n4 = qa.codes().len() / 4 * 4;
        let mut lanes = [0.0f64; 4];
        for i in 0..n4 {
            lanes[i % 4] += decode(i);
        }
        let mut expected = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for i in n4..qa.codes().len() {
            expected += decode(i);
        }
        let actual = dot_decoded(qa.codes(), qa.dict(), qw.codes(), qw.dict());
        assert!(
            actual.to_bits() == expected.to_bits(),
            "reduction order changed: {actual} vs {expected}"
        );
    }

    #[test]
    fn empty_dot_is_zero() {
        let (qa, qw) = quantized_pair(4, 0);
        let zero = dot_indexed(&[], qa.dict(), &[], qw.dict());
        assert_eq!(zero, 0.0);
    }

    #[test]
    fn quantized_dot_approximates_fp_dot() {
        // End-to-end sanity: the quantized dot product tracks the original
        // floating-point dot product with small relative error.
        let curve = ExpCurve::paper();
        let a = GaussianMixture::activation_like(0.2, 1.0).sample_matrix(1, 4096, 5);
        let w = GaussianMixture::weight_like(0.0, 0.04).sample_matrix(1, 4096, 6);
        let fp: f64 =
            a.as_slice().iter().zip(w.as_slice()).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum();
        let qa = QuantizedTensor::encode_with_own_dict(&a, &curve, &Default::default()).unwrap();
        let qw = QuantizedTensor::encode_with_own_dict(&w, &curve, &Default::default()).unwrap();
        let q = dot_indexed(qa.codes(), qa.dict(), qw.codes(), qw.dict());
        // 4-bit quantization of both operands: expect a few percent of the
        // vector norm. Scale tolerance by ||a||·||w||/sqrt(n).
        let na: f64 = a.as_slice().iter().map(|&x| f64::from(x).powi(2)).sum::<f64>().sqrt();
        let nw: f64 = w.as_slice().iter().map(|&x| f64::from(x).powi(2)).sum::<f64>().sqrt();
        let tol = 0.05 * na * nw / (4096f64).sqrt();
        assert!((q - fp).abs() < tol, "quantized {q} vs fp {fp}, tol {tol}");
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn mismatched_lengths_panic() {
        let (qa, qw) = quantized_pair(8, 1);
        let _ = dot_indexed(&qa.codes()[..4], qa.dict(), qw.codes(), qw.dict());
    }
}
