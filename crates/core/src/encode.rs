//! Tensor encoding: values → 5-bit codes and back (paper Sections II-A and
//! III-A).
//!
//! Off-chip, Mokey stores 4-bit indexes plus a compact outlier-pointer
//! stream (the `mokey-memlayout` crate implements that container). On-chip
//! "the values can be expanded to 5b (dictionary selection/1b, sign/1b,
//! centroid index/3b) indexes" — [`Code`] is that 5-bit form.

use crate::dict::{DictError, TensorDict};
use crate::quantizer::OutputQuantizer;
use mokey_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A 5-bit Mokey code: dictionary-select bit, sign bit, 3-bit index.
///
/// Packed as `0b000D_SIII` in a byte: `D` selects Gaussian (0) or Outlier
/// (1), `S` is the sign (1 = negative, matching the paper's
/// "0: positive, 1: negative"), `III` the magnitude index.
///
/// # Example
///
/// ```
/// use mokey_core::encode::Code;
///
/// // The paper's example: 0b1011 (4-bit form) = negative, index 3.
/// let c = Code::new(false, true, 3);
/// assert!(c.is_negative());
/// assert_eq!(c.index(), 3);
/// assert_eq!(c.to_bits(), 0b01011);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Code(u8);

impl Code {
    const SIGN_BIT: u8 = 0b0000_1000;
    pub(crate) const DICT_BIT: u8 = 0b0001_0000;
    const INDEX_MASK: u8 = 0b0000_0111;

    /// Builds a code from its three fields.
    ///
    /// # Panics
    ///
    /// Panics if `index > 7` — indexes are 3 bits.
    pub fn new(outlier: bool, negative: bool, index: u8) -> Self {
        assert!(index <= Self::INDEX_MASK, "index {index} does not fit in 3 bits");
        let mut bits = index;
        if negative {
            bits |= Self::SIGN_BIT;
        }
        if outlier {
            bits |= Self::DICT_BIT;
        }
        Self(bits)
    }

    /// Reconstructs a code from its packed 5-bit form.
    ///
    /// # Panics
    ///
    /// Panics if bits above the low 5 are set.
    pub fn from_bits(bits: u8) -> Self {
        assert!(bits < 32, "code bits {bits:#b} exceed 5 bits");
        Self(bits)
    }

    /// The packed 5-bit representation.
    pub fn to_bits(self) -> u8 {
        self.0
    }

    /// `true` when the code indexes the outlier dictionary.
    pub fn is_outlier(self) -> bool {
        self.0 & Self::DICT_BIT != 0
    }

    /// `true` for negative values (sign bit set).
    pub fn is_negative(self) -> bool {
        self.0 & Self::SIGN_BIT != 0
    }

    /// The sign as ±1, convenient for the histogram kernels.
    pub fn sign(self) -> i64 {
        if self.is_negative() {
            -1
        } else {
            1
        }
    }

    /// The 3-bit magnitude index.
    pub fn index(self) -> u8 {
        self.0 & Self::INDEX_MASK
    }

    /// The 4-bit memory form (sign + index), used by the off-chip container
    /// where the dictionary-select bit lives in the pointer stream instead.
    pub fn to_bits4(self) -> u8 {
        self.0 & (Self::SIGN_BIT | Self::INDEX_MASK)
    }

    /// Rebuilds the 5-bit code from the 4-bit memory form plus the
    /// outlier flag recovered from the pointer stream.
    ///
    /// # Panics
    ///
    /// Panics if bits above the low 4 are set.
    pub fn from_bits4(bits: u8, outlier: bool) -> Self {
        assert!(bits < 16, "4-bit form {bits:#b} exceeds 4 bits");
        Self::new(outlier, bits & Self::SIGN_BIT != 0, bits & Self::INDEX_MASK)
    }
}

/// A quantized tensor: shape, per-value [`Code`]s, and the [`TensorDict`]
/// that decodes them.
///
/// # Example
///
/// ```
/// use mokey_core::{curve::ExpCurve, dict::TensorDict, encode::QuantizedTensor};
/// use mokey_tensor::init::GaussianMixture;
///
/// let w = GaussianMixture::weight_like(0.0, 0.1).sample_matrix(16, 16, 3);
/// let dict = TensorDict::for_values(w.as_slice(), &ExpCurve::paper(), &Default::default())
///     .expect("non-degenerate tensor");
/// let q = QuantizedTensor::encode(&w, &dict);
/// assert_eq!(q.shape(), (16, 16));
/// assert!(q.outlier_fraction() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    rows: usize,
    cols: usize,
    codes: Vec<Code>,
    dict: TensorDict,
}

impl QuantizedTensor {
    /// Encodes a matrix with the given dictionary, through the
    /// dictionary's comparator table ([`OutputQuantizer`]).
    pub fn encode(matrix: &Matrix, dict: &TensorDict) -> Self {
        OutputQuantizer::new(dict.clone()).quantize_matrix(matrix)
    }

    /// Assembles a tensor from codes already produced for `dict`.
    pub(crate) fn from_codes(rows: usize, cols: usize, codes: Vec<Code>, dict: TensorDict) -> Self {
        debug_assert_eq!(codes.len(), rows * cols);
        Self { rows, cols, codes, dict }
    }

    /// Convenience: builds the dictionary from the matrix itself, then
    /// encodes (the weight-quantization path, where values are statically
    /// known).
    ///
    /// # Errors
    ///
    /// Returns a [`DictError`] when the matrix is a degenerate tensor
    /// (empty, constant, or non-finite).
    pub fn encode_with_own_dict(
        matrix: &Matrix,
        curve: &crate::curve::ExpCurve,
        config: &crate::dict::TensorDictConfig,
    ) -> Result<Self, DictError> {
        let dict = TensorDict::for_values(matrix.as_slice(), curve, config)?;
        Ok(Self::encode(matrix, &dict))
    }

    /// Decodes back to a dense matrix of centroid values.
    pub fn decode(&self) -> Matrix {
        let data = self.codes.iter().map(|&c| self.dict.decode_code(c) as f32).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Decodes into a caller-owned buffer (cleared first), avoiding the
    /// per-tensor output allocation of [`QuantizedTensor::decode`] when a
    /// pipeline streams many tensors through one scratch buffer.
    pub fn decode_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.codes.len());
        out.extend(self.codes.iter().map(|&c| self.dict.decode_code(c) as f32));
    }

    /// Shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// All codes, row-major.
    pub fn codes(&self) -> &[Code] {
        &self.codes
    }

    /// Codes of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_codes(&self, r: usize) -> &[Code] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// The dictionary pair used for decoding.
    pub fn dict(&self) -> &TensorDict {
        &self.dict
    }

    /// Number of values encoded as outliers.
    pub fn outlier_count(&self) -> usize {
        self.codes.iter().filter(|c| c.is_outlier()).count()
    }

    /// Fraction of values encoded as outliers (paper Table I's "OT %").
    pub fn outlier_fraction(&self) -> f64 {
        if self.codes.is_empty() {
            0.0
        } else {
            self.outlier_count() as f64 / self.codes.len() as f64
        }
    }

    /// Payload bits in the off-chip container form: 4 bits per value plus
    /// the outlier-pointer stream (6-bit count + 6 bits per outlier per
    /// group of 64; see `mokey-memlayout` for the exact packing this
    /// estimate mirrors).
    pub fn payload_bits(&self) -> usize {
        let groups = self.codes.len().div_ceil(64);
        self.codes.len() * 4 + groups * 6 + self.outlier_count() * 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::ExpCurve;
    use mokey_tensor::init::GaussianMixture;

    fn sample_tensor() -> (Matrix, TensorDict) {
        let m = GaussianMixture::weight_like(0.02, 0.08).sample_matrix(32, 48, 9);
        let dict =
            TensorDict::for_values(m.as_slice(), &ExpCurve::paper(), &Default::default()).unwrap();
        (m, dict)
    }

    #[test]
    fn code_bit_packing_roundtrips() {
        for outlier in [false, true] {
            for negative in [false, true] {
                for index in 0..8u8 {
                    let c = Code::new(outlier, negative, index);
                    assert_eq!(Code::from_bits(c.to_bits()), c);
                    assert_eq!(c.is_outlier(), outlier);
                    assert_eq!(c.is_negative(), negative);
                    assert_eq!(c.index(), index);
                    assert_eq!(Code::from_bits4(c.to_bits4(), outlier), c);
                }
            }
        }
    }

    #[test]
    fn sign_helper_matches_paper_convention() {
        assert_eq!(Code::new(false, false, 0).sign(), 1);
        assert_eq!(Code::new(false, true, 0).sign(), -1);
    }

    #[test]
    fn encode_decode_preserves_shape_and_bounds_error() {
        let (m, dict) = sample_tensor();
        let q = QuantizedTensor::encode(&m, &dict);
        let d = q.decode();
        assert_eq!(d.shape(), m.shape());
        // RMS error must be far below the tensor's std.
        let rms = {
            let se: f64 = m
                .as_slice()
                .iter()
                .zip(d.as_slice())
                .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                .sum();
            (se / m.len() as f64).sqrt()
        };
        assert!(rms < 0.08 * 0.5, "rms {rms} too large");
    }

    #[test]
    fn decode_into_matches_decode_and_reuses_buffer() {
        let (m, dict) = sample_tensor();
        let q = QuantizedTensor::encode(&m, &dict);
        let mut buf = vec![9.0f32; 10_000]; // pre-filled and oversized on purpose
        q.decode_into(&mut buf);
        assert_eq!(buf.as_slice(), q.decode().as_slice());
    }

    #[test]
    fn decode_values_are_dictionary_centroids() {
        let (m, dict) = sample_tensor();
        let q = QuantizedTensor::encode(&m, &dict);
        let centroids: Vec<f64> = dict.signed_centroids().iter().map(|(v, _)| *v).collect();
        for &v in q.decode().as_slice() {
            let nearest =
                centroids.iter().map(|&c| (c - f64::from(v)).abs()).fold(f64::INFINITY, f64::min);
            assert!(nearest < 1e-5, "decoded value {v} is not a centroid");
        }
    }

    #[test]
    fn row_codes_match_flat_codes() {
        let (m, dict) = sample_tensor();
        let q = QuantizedTensor::encode(&m, &dict);
        assert_eq!(q.row_codes(3), &q.codes()[3 * 48..4 * 48]);
    }

    #[test]
    fn payload_bits_reflect_compression() {
        let (m, dict) = sample_tensor();
        let q = QuantizedTensor::encode(&m, &dict);
        let fp16_bits = m.len() * 16;
        // ~4.2 bits/value vs 16 -> compression near 3.8x.
        let ratio = fp16_bits as f64 / q.payload_bits() as f64;
        assert!(ratio > 3.0, "compression ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "does not fit in 3 bits")]
    fn code_index_overflow_panics() {
        let _ = Code::new(false, false, 8);
    }

    #[test]
    #[should_panic(expected = "exceed 5 bits")]
    fn code_from_bits_overflow_panics() {
        let _ = Code::from_bits(32);
    }
}
