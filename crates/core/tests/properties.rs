//! Property-based tests for the Mokey core: the index-domain decomposition
//! must be *exactly* the decoded dot product, for arbitrary code streams and
//! dictionary statistics — this is the paper's central algebraic claim
//! (Eq. 1–6).

use mokey_core::curve::ExpCurve;
use mokey_core::dict::{OutlierPolicy, TensorDict, TensorDictConfig};
use mokey_core::encode::{Code, QuantizedTensor};
use mokey_core::kernels;
use mokey_core::lut::{matmul_lut_bias, PairLut, SKIP_CODE};
use mokey_core::quantizer::OutputQuantizer;
use mokey_tensor::Matrix;
use proptest::prelude::*;

/// Arbitrary tensors with varied mean/std and tail heaviness.
fn tensor_strategy() -> impl Strategy<Value = Vec<f32>> {
    (
        -2.0f64..2.0,                                    // mean
        0.01f64..3.0,                                    // std
        prop::collection::vec(-4.0f64..4.0, 32..256),    // z-scores
        prop::collection::vec(prop::bool::ANY, 32..256), // tail flags
    )
        .prop_map(|(mean, std, zs, tails)| {
            zs.iter()
                .zip(tails.iter().cycle())
                .map(|(&z, &tail)| {
                    let scale = if tail && z.abs() > 3.0 { 5.0 } else { 1.0 };
                    (mean + z * std * scale) as f32
                })
                .collect()
        })
}

fn dict_for(values: &[f32], policy: OutlierPolicy) -> TensorDict {
    let config = TensorDictConfig { policy, ..Default::default() };
    TensorDict::for_values(values, &ExpCurve::paper(), &config).expect("non-degenerate fixture")
}

/// Operands for the served LUT kernel: `m×k` activation code bytes with the
/// rows flagged in `skip_mask` overwritten by `SKIP_CODE` padding, the
/// encoded activations and `k×n` weights, their pair LUT and a bias row.
fn padded_lut_operands(
    a_vals: &[f32],
    w_vals: &[f32],
    (m, k, n): (usize, usize, usize),
    skip_mask: &[bool],
    outlier_heavy: bool,
) -> (Vec<u8>, QuantizedTensor, QuantizedTensor, PairLut, Vec<f32>) {
    let policy =
        if outlier_heavy { OutlierPolicy::Fraction(0.2) } else { OutlierPolicy::CurveMidpoint };
    let a = Matrix::from_vec(m, k, a_vals[..m * k].to_vec());
    let w = Matrix::from_vec(k, n, w_vals[..k * n].to_vec());
    let qa = QuantizedTensor::encode(&a, &dict_for(a_vals, policy));
    let qw = QuantizedTensor::encode(&w, &dict_for(w_vals, policy));
    let lut = PairLut::new(qa.dict(), qw.dict());
    let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.05 - 0.1).collect();
    let mut a_bits: Vec<u8> = qa.codes().iter().map(|c| c.to_bits()).collect();
    for r in (0..m).filter(|&r| skip_mask[r]) {
        a_bits[r * k..(r + 1) * k].fill(SKIP_CODE);
    }
    (a_bits, qa, qw, lut, bias)
}

proptest! {
    /// THE invariant: index-domain == decoded reference, exactly.
    #[test]
    fn indexed_dot_equals_decoded_dot(
        a_vals in tensor_strategy(),
        w_vals in tensor_strategy(),
    ) {
        let n = a_vals.len().min(w_vals.len());
        let a = Matrix::from_vec(1, n, a_vals[..n].to_vec());
        let w = Matrix::from_vec(1, n, w_vals[..n].to_vec());
        let qa = QuantizedTensor::encode(&a, &dict_for(a.as_slice(), OutlierPolicy::CurveMidpoint));
        let qw = QuantizedTensor::encode(&w, &dict_for(w.as_slice(), OutlierPolicy::CurveMidpoint));
        let indexed = kernels::dot_indexed(qa.codes(), qa.dict(), qw.codes(), qw.dict());
        let decoded = kernels::dot_decoded(qa.codes(), qa.dict(), qw.codes(), qw.dict());
        let tol = 1e-9 * decoded.abs().max(1.0);
        prop_assert!((indexed - decoded).abs() <= tol,
            "indexed {indexed} != decoded {decoded}");
    }

    /// Same invariant with the Gaussian-only policy (no outlier path at
    /// all — pure histogram arithmetic).
    #[test]
    fn indexed_dot_exact_without_outliers(
        a_vals in tensor_strategy(),
        w_vals in tensor_strategy(),
    ) {
        let n = a_vals.len().min(w_vals.len());
        let a = Matrix::from_vec(1, n, a_vals[..n].to_vec());
        let w = Matrix::from_vec(1, n, w_vals[..n].to_vec());
        let qa = QuantizedTensor::encode(&a, &dict_for(a.as_slice(), OutlierPolicy::Disabled));
        let qw = QuantizedTensor::encode(&w, &dict_for(w.as_slice(), OutlierPolicy::Disabled));
        let indexed = kernels::dot_indexed(qa.codes(), qa.dict(), qw.codes(), qw.dict());
        let decoded = kernels::dot_decoded(qa.codes(), qa.dict(), qw.codes(), qw.dict());
        prop_assert!((indexed - decoded).abs() <= 1e-9 * decoded.abs().max(1.0));
    }

    /// Encode/decode round-trip error for bulk (non-clamped) values is
    /// bounded by half the largest centroid gap.
    #[test]
    fn roundtrip_error_bounded(values in tensor_strategy()) {
        let dict = dict_for(&values, OutlierPolicy::CurveMidpoint);
        let centroids = dict.signed_centroids();
        let lo = centroids.first().unwrap().0;
        let hi = centroids.last().unwrap().0;
        let max_gap = centroids.windows(2).map(|w| w[1].0 - w[0].0).fold(0.0, f64::max);
        for &v in &values {
            let fv = f64::from(v);
            if fv > lo && fv < hi {
                let err = (dict.decode_code(dict.encode_value(v)) - fv).abs();
                prop_assert!(err <= max_gap / 2.0 + 1e-9);
            }
        }
    }

    /// Codes always round-trip through their packed bit forms, including
    /// the 4-bit memory form.
    #[test]
    fn code_bits_roundtrip(outlier in prop::bool::ANY, neg in prop::bool::ANY, idx in 0u8..8) {
        let c = Code::new(outlier, neg, idx);
        prop_assert_eq!(Code::from_bits(c.to_bits()), c);
        prop_assert_eq!(Code::from_bits4(c.to_bits4(), outlier), c);
    }

    /// `encode_value` is monotone: a larger input never decodes to a
    /// smaller centroid, from subnormals out to ±f32::MAX and ±∞.
    #[test]
    fn encode_value_is_monotone_over_wide_magnitudes(
        values in tensor_strategy(),
        bits in prop::collection::vec(0u32..=u32::MAX, 1..64),
        policy in 0usize..3,
    ) {
        let policy = [
            OutlierPolicy::CurveMidpoint,
            OutlierPolicy::Fraction(0.2),
            OutlierPolicy::Disabled,
        ][policy];
        let dict = dict_for(&values, policy);
        let mut probes: Vec<f32> =
            bits.iter().map(|&b| f32::from_bits(b)).filter(|v| !v.is_nan()).collect();
        probes.extend_from_slice(&values);
        for v in [0.0f32, 1e9, 1e18, f32::MAX, f32::INFINITY] {
            probes.extend([v, -v]);
        }
        probes.sort_by(f32::total_cmp);
        let decoded: Vec<f64> =
            probes.iter().map(|&v| dict.decode_code(dict.encode_value(v))).collect();
        for (d, p) in decoded.windows(2).zip(probes.windows(2)) {
            prop_assert!(d[0] <= d[1], "{} -> {} but {} -> {}", p[0], d[0], p[1], d[1]);
        }
    }

    /// The comparator table equals `encode_value` code for code, through
    /// the scalar and both slice encoders: on every threshold and the
    /// `f32` either side of it, ±0, subnormals, ±∞, far outliers and
    /// random bit patterns, at scales from 0.0005 to 120 and with an empty
    /// outlier table.
    #[test]
    fn comparator_table_equals_encode_value(
        values in tensor_strategy(),
        scale in 0usize..3,
        policy in 0usize..4,
        bits in prop::collection::vec(0u32..=u32::MAX, 1..64),
    ) {
        let scale = [1.0f32, 0.05, 40.0][scale];
        let values: Vec<f32> = values.iter().map(|v| v * scale).collect();
        let policy = [
            OutlierPolicy::CurveMidpoint,
            OutlierPolicy::Fraction(0.2),
            OutlierPolicy::Threshold(2.0),
            OutlierPolicy::Disabled,
        ][policy];
        let dict = dict_for(&values, policy);
        let engine = OutputQuantizer::new(dict.clone());
        prop_assert!(engine.comparator_count() <= 31);
        let mut probes: Vec<f32> =
            bits.iter().map(|&b| f32::from_bits(b)).filter(|v| !v.is_nan()).collect();
        for &t in engine.thresholds() {
            probes.extend([t.next_down(), t, t.next_up()]);
        }
        probes.extend_from_slice(&values);
        for v in [
            0.0f32,
            f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            1e18,
            1e30,
            f32::MAX,
            f32::INFINITY,
        ] {
            probes.extend([v, -v]);
        }
        let expect: Vec<u8> = probes.iter().map(|&v| dict.encode_value(v).to_bits()).collect();
        for (&v, &e) in probes.iter().zip(&expect) {
            prop_assert_eq!(engine.quantize(v).to_bits(), e, "value {}", v);
        }
        let mut bits = vec![0u8; probes.len()];
        engine.encode_slice(&probes, &mut bits);
        prop_assert_eq!(&bits, &expect);
        let mut quantized = probes.clone();
        engine.quantize_slice(&mut quantized, Some(&mut bits));
        prop_assert_eq!(&bits, &expect);
        for (&q, &e) in quantized.iter().zip(&expect) {
            let centroid = dict.decode_code(Code::from_bits(e)) as f32;
            prop_assert_eq!(q.to_bits(), centroid.to_bits());
        }
    }

    /// The Fig. 7 hardware quantizer and the software encoder agree on
    /// every probe value.
    #[test]
    fn output_quantizer_matches_encoder(
        values in tensor_strategy(),
        probes in prop::collection::vec(-20.0f32..20.0, 1..64),
    ) {
        let dict = dict_for(&values, OutlierPolicy::CurveMidpoint);
        let engine = OutputQuantizer::new(dict.clone());
        for &p in &probes {
            prop_assert_eq!(engine.quantize(p), dict.encode_value(p));
        }
    }

    /// Histogram mass conservation: every pair lands in exactly one place.
    #[test]
    fn breakdown_mass_conserved(
        a_vals in tensor_strategy(),
        w_vals in tensor_strategy(),
    ) {
        let n = a_vals.len().min(w_vals.len());
        let a = Matrix::from_vec(1, n, a_vals[..n].to_vec());
        let w = Matrix::from_vec(1, n, w_vals[..n].to_vec());
        let qa = QuantizedTensor::encode(&a, &dict_for(a.as_slice(), OutlierPolicy::CurveMidpoint));
        let qw = QuantizedTensor::encode(&w, &dict_for(w.as_slice(), OutlierPolicy::CurveMidpoint));
        let bd = kernels::dot_breakdown(qa.codes(), qa.dict(), qw.codes(), qw.dict());
        prop_assert_eq!(bd.gaussian_pairs + bd.outlier_pairs, n as i64);
        prop_assert_eq!(bd.soi.iter().sum::<i64>(), bd.pom1);
        prop_assert_eq!(bd.soa1.iter().sum::<i64>(), bd.pom1);
        prop_assert_eq!(bd.sow1.iter().sum::<i64>(), bd.pom1);
        prop_assert_eq!(bd.soa2.iter().sum::<i64>(), bd.pom2);
        prop_assert_eq!(bd.sow2.iter().sum::<i64>(), bd.pom3);
    }

    /// The served LUT kernel is bit-identical to the dense float GEMM on
    /// decoded operands, row for row — including packed layouts where some
    /// rows are never-encoded padding (the skip sentinel) and must emit the
    /// bias without disturbing their neighbours.
    #[test]
    fn matmul_lut_bias_equals_dense_gemm_with_padding_rows(
        a_vals in tensor_strategy(),
        w_vals in tensor_strategy(),
        m in 1usize..6,
        n in 1usize..7,
        skip_mask in prop::collection::vec(prop::bool::ANY, 6),
        outlier_heavy in prop::bool::ANY,
    ) {
        let k = (a_vals.len() / m).min(w_vals.len() / n).max(1);
        prop_assume!(a_vals.len() >= m * k && w_vals.len() >= k * n);
        let (a_bits, qa, qw, lut, bias) =
            padded_lut_operands(&a_vals, &w_vals, (m, k, n), &skip_mask, outlier_heavy);
        let fast = matmul_lut_bias(&a_bits, m, k, &qw, &bias, &lut);
        let reference = qa.decode().matmul_bias(&qw.decode(), &bias);
        for (r, &skipped) in skip_mask.iter().enumerate().take(m) {
            if skipped {
                prop_assert_eq!(fast.row(r), bias.as_slice());
            } else {
                for (x, y) in fast.row(r).iter().zip(reference.row(r)) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "row {} diverged", r);
                }
            }
        }
    }

    /// The served LUT kernel's quad path is bit-identical to its row path
    /// (the same rows as one-row calls) and to the dense float GEMM on
    /// decoded operands, row for row — across `m` on both sides of the quad
    /// height, with `SKIP_CODE` padding rows landing anywhere inside or
    /// across its 4-row quads.
    #[test]
    fn matmul_lut_bias_counter_equals_dense_gemm_with_padding_rows(
        a_vals in tensor_strategy(),
        w_vals in tensor_strategy(),
        m in 1usize..10,
        n in 1usize..7,
        skip_mask in prop::collection::vec(prop::bool::ANY, 10),
        outlier_heavy in prop::bool::ANY,
    ) {
        let k = (a_vals.len() / m).min(w_vals.len() / n).max(1);
        prop_assume!(a_vals.len() >= m * k && w_vals.len() >= k * n);
        let (a_bits, qa, qw, lut, bias) =
            padded_lut_operands(&a_vals, &w_vals, (m, k, n), &skip_mask, outlier_heavy);
        let fast = matmul_lut_bias(&a_bits, m, k, &qw, &bias, &lut);
        let reference = qa.decode().matmul_bias(&qw.decode(), &bias);
        for (r, &skipped) in skip_mask.iter().enumerate().take(m) {
            let row_path = matmul_lut_bias(&a_bits[r * k..(r + 1) * k], 1, k, &qw, &bias, &lut);
            for (x, y) in fast.row(r).iter().zip(row_path.row(0)) {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                    "quad path vs row path diverged at row {} of {}", r, m);
            }
            if skipped {
                prop_assert_eq!(fast.row(r), bias.as_slice());
            } else {
                for (x, y) in fast.row(r).iter().zip(reference.row(r)) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "row {} diverged", r);
                }
            }
        }
    }

    /// Quantizing twice is idempotent: decode∘encode∘decode∘encode =
    /// decode∘encode.
    #[test]
    fn quantization_idempotent(values in tensor_strategy()) {
        let dict = dict_for(&values, OutlierPolicy::CurveMidpoint);
        let m = Matrix::from_vec(1, values.len(), values.clone());
        let once = QuantizedTensor::encode(&m, &dict).decode();
        let twice = QuantizedTensor::encode(&once, &dict).decode();
        prop_assert!(once.max_abs_diff(&twice) < 1e-5);
    }
}
