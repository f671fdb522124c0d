//! Index-domain LUT GEMM: the software analogue of the paper's
//! counter/LUT datapath.
//!
//! A [`Code`] occupies 5 bits, so an (activation-dictionary, weight-
//! dictionary) pair admits a **dense product table** over all 32 × 32 code
//! bit-patterns — outliers included — of ~4 KB, comfortably L1-resident.
//! With that [`PairLut`] in hand, a GEMM on quantized operands never
//! decodes: the inner loop is a table gather indexed by code bits, exactly
//! the arithmetic-on-indices execution the paper's accelerator performs in
//! hardware (Section II-D), minus the histogram factorization that
//! [`crate::kernels::dot_indexed`] models faithfully-but-slowly.
//!
//! [`matmul_lut_bias`] is the one index-domain GEMM. It mirrors the
//! reduction of `mokey_tensor::Matrix::matmul_bias` (the `nn::linear` hot
//! path) — bias pre-loaded, ascending `k`, one f32 add per contributing
//! element, zero activations skipped — so per output row it equals
//! `matmul_bias` on the decoded operands to the bit. That is what lets
//! index-domain serving return byte-identical responses to decoded-path
//! serving.

use crate::dict::TensorDict;
use crate::encode::{Code, QuantizedTensor};
use mokey_tensor::Matrix;

/// Number of distinct 5-bit code patterns, and the stride of one LUT row.
pub const CODE_PATTERNS: usize = 32;

/// Sentinel byte in an activation code buffer marking a row that was never
/// encoded (a packed batch's padding rows). [`matmul_lut_bias`] emits the
/// bias for such a row and skips its dot products entirely; nothing
/// downstream reads padding rows, and valid rows are unaffected because
/// every kernel computes each output row independently.
pub const SKIP_CODE: u8 = 0xFF;

/// Mask that keeps a code byte inside the 32-pattern table.
const PATTERN_MASK: usize = CODE_PATTERNS - 1;

/// Decoded centroid value of every valid 5-bit pattern of one dictionary:
/// f64 exact values, their f32 casts, and validity flags.
///
/// Bit patterns whose magnitude index exceeds the dictionary's G or OT
/// table decode to `0.0` and are flagged invalid; [`TensorDict::encode_value`]
/// never produces them, so real code streams never read those entries.
fn decode_table(dict: &TensorDict) -> ([f64; CODE_PATTERNS], [bool; CODE_PATTERNS]) {
    let mut vals = [0.0f64; CODE_PATTERNS];
    let mut valid = [false; CODE_PATTERNS];
    for bits in 0..CODE_PATTERNS as u8 {
        let code = Code::from_bits(bits);
        let table = if code.is_outlier() { dict.ot_magnitudes() } else { dict.g_magnitudes() };
        if (code.index() as usize) < table.len() {
            vals[bits as usize] = dict.decode_code(code);
            valid[bits as usize] = true;
        }
    }
    (vals, valid)
}

/// A 32-entry decode table for one dictionary: code bits → `f32` centroid.
///
/// Entry `bits` holds exactly `dict.decode_code(code) as f32`, so routing
/// the executors' per-layer activation decodes through one shared table
/// (built once at preparation) is bit-identical to calling
/// [`TensorDict::decode_code`] per value — it just skips the per-value
/// table-select branch and `f64` arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeLut {
    vals: [f32; CODE_PATTERNS],
}

impl DecodeLut {
    /// Builds the table for a dictionary.
    pub fn new(dict: &TensorDict) -> Self {
        let (f64s, _) = decode_table(dict);
        let mut vals = [0.0f32; CODE_PATTERNS];
        for (v, &d) in vals.iter_mut().zip(&f64s) {
            *v = d as f32;
        }
        Self { vals }
    }

    /// The `f32` centroid of a code (identical bits to
    /// `dict.decode_code(code) as f32`).
    #[inline]
    pub fn value(&self, code: Code) -> f32 {
        self.vals[code.to_bits() as usize & PATTERN_MASK]
    }
}

/// The dense `decode(ca) · decode(cw)` product table of one
/// (activation-dict, weight-dict) pair, over all 32 × 32 code bit-patterns
/// — outliers included — in ~4.1 KB ([`bytes`](Self::bytes) reports
/// 4 128), L1-resident:
///
/// * `f32` products — `(decode_a(ca) as f32) * (decode_w(cw) as f32)`,
///   the exact multiply the dense float GEMM performs on decoded
///   operands, feeding [`matmul_lut_bias`];
/// * per-activation-code zero flags mirroring the float kernel's
///   zero-operand skip (`a == 0.0` never contributes an addition there,
///   so the LUT kernel must skip the same codes to keep identical bits).
#[derive(Clone, PartialEq)]
pub struct PairLut {
    prod_f32: Vec<f32>,
    a_zero: [bool; CODE_PATTERNS],
}

impl PairLut {
    /// Builds the product table for a dictionary pair. Patterns invalid
    /// for either dictionary hold `0.0` (never indexed by real streams).
    pub fn new(a_dict: &TensorDict, w_dict: &TensorDict) -> Self {
        let (a_vals, a_valid) = decode_table(a_dict);
        let (w_vals, _) = decode_table(w_dict);
        let mut prod_f32 = vec![0.0f32; CODE_PATTERNS * CODE_PATTERNS];
        let mut a_zero = [false; CODE_PATTERNS];
        for ca in 0..CODE_PATTERNS {
            a_zero[ca] = a_valid[ca] && (a_vals[ca] as f32) == 0.0;
            for cw in 0..CODE_PATTERNS {
                prod_f32[ca * CODE_PATTERNS + cw] = (a_vals[ca] as f32) * (w_vals[cw] as f32);
            }
        }
        Self { prod_f32, a_zero }
    }

    /// The f32 product `(decode_a(ca) as f32) * (decode_w(cw) as f32)`.
    #[inline]
    pub fn product_f32(&self, ca: Code, cw: Code) -> f32 {
        self.prod_f32[(ca.to_bits() as usize & PATTERN_MASK) * CODE_PATTERNS
            + (cw.to_bits() as usize & PATTERN_MASK)]
    }

    /// One activation code's f32 product row (32 entries, indexed by
    /// weight-code bits).
    #[inline]
    fn f32_row(&self, ca_bits: u8) -> &[f32] {
        let base = (ca_bits as usize & PATTERN_MASK) * CODE_PATTERNS;
        &self.prod_f32[base..base + CODE_PATTERNS]
    }

    /// `true` when the activation code decodes to `0.0f32` — the float
    /// GEMM's zero-skip would drop every product with it.
    #[inline]
    pub fn activation_is_zero(&self, ca_bits: u8) -> bool {
        self.a_zero[ca_bits as usize & PATTERN_MASK]
    }

    /// Approximate heap footprint, for cache accounting.
    pub fn bytes(&self) -> usize {
        self.prod_f32.len() * 4 + self.a_zero.len()
    }
}

impl std::fmt::Debug for PairLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PairLut({}x{}, {} bytes)", CODE_PATTERNS, CODE_PATTERNS, self.bytes())
    }
}

/// A quantized matrix's codes gathered into one flat **column-major**
/// buffer — a single allocation holding every column contiguously: the
/// weight-side layout of the histogram kernel
/// [`crate::kernels::matmul_indexed`], which sweeps whole columns per
/// output scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct ColMajorCodes {
    rows: usize,
    cols: usize,
    codes: Vec<Code>,
}

impl ColMajorCodes {
    /// Transposes a quantized tensor's row-major codes into the flat
    /// column-major buffer (one allocation total).
    pub fn from_tensor(w: &QuantizedTensor) -> Self {
        let (rows, cols) = w.shape();
        let src = w.codes();
        let mut codes = vec![Code::from_bits(0); rows * cols];
        for r in 0..rows {
            let row = &src[r * cols..(r + 1) * cols];
            for (j, &c) in row.iter().enumerate() {
                codes[j * rows + r] = c;
            }
        }
        Self { rows, cols, codes }
    }

    /// Rows of the original (row-major) tensor — the GEMM's `K` dimension.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the original tensor — the GEMM's `N` dimension.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Column `j` as a contiguous code slice of length `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn col(&self, j: usize) -> &[Code] {
        assert!(j < self.cols, "column {j} out of bounds");
        &self.codes[j * self.rows..(j + 1) * self.rows]
    }
}

/// Activation rows per quad of [`matmul_lut_bias`] (its quad body is
/// written out for four rows): a quad of encoded rows loads and masks
/// each weight row's code bytes once instead of once per row. A GEMM
/// with fewer rows never forms a quad and runs on the row path alone —
/// which is why index-domain GEMMs at least this tall are attributed to
/// the counter array and shorter ones to the pair-LUT gather.
pub const QUAD_ROWS: usize = 4;

/// Index-domain fused GEMM + bias mirroring
/// `mokey_tensor::Matrix::matmul_bias` bit for bit: the bias is pre-loaded
/// into each output row, `k` is swept in ascending order with exactly one
/// f32 addition per contributing element, and activation codes decoding to
/// `0.0f32` are skipped — the float kernel's zero-operand skip, applied in
/// the code domain. Because each added term is the table's
/// `(decode_a as f32) * (decode_w as f32)` product (the exact multiply the
/// float kernel performs), every output row equals
/// `decoded_a.matmul_bias(&decoded_w, bias)` to the bit.
///
/// Rows are taken [`QUAD_ROWS`] at a time — the paper's per-weight-code
/// counter reduction (Section II-D) made rowful: within a quad of encoded
/// rows the `k`/`j` loops interchange so each weight row's codes are
/// loaded once for all four rows. The ragged tail, any quad holding a
/// padding row, and any GEMM under four rows (a decode step, a head) run
/// the row path, one pair-LUT gather per MAC. Either way every element
/// receives at most one add per `k`, in ascending `k`, so the path never
/// changes a bit of the output.
///
/// `a_bits` holds `m × k` activation code bytes row-major. A row whose
/// first byte is [`SKIP_CODE`] was never encoded (packed padding): it gets
/// the bias and no dot products. `w` is the row-major quantized weight
/// (`k × n`).
///
/// # Panics
///
/// Panics if `a_bits` is not `m × k`, `w` is not `k × n`, or the bias is
/// not `n` wide.
pub fn matmul_lut_bias(
    a_bits: &[u8],
    m: usize,
    k: usize,
    w: &QuantizedTensor,
    bias: &[f32],
    lut: &PairLut,
) -> Matrix {
    assert_eq!(a_bits.len(), m * k, "activation code buffer is not {m}x{k}");
    assert_eq!(w.rows(), k, "matmul_lut_bias inner dimension mismatch");
    let n = w.cols();
    assert_eq!(bias.len(), n, "bias width mismatch");
    let mut data = Vec::with_capacity(m * n);
    for _ in 0..m {
        data.extend_from_slice(bias);
    }
    if n == 0 {
        return Matrix::from_vec(m, n, data);
    }
    let w_codes = w.codes();
    for (qi, chunk) in data.chunks_mut(QUAD_ROWS * n).enumerate() {
        let i0 = qi * QUAD_ROWS;
        let full_quad = chunk.len() == QUAD_ROWS * n
            && (0..QUAD_ROWS).all(|t| a_bits.get((i0 + t) * k) != Some(&SKIP_CODE));
        if full_quad {
            let (r0, rest) = chunk.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3) = rest.split_at_mut(n);
            for kk in 0..k {
                let ca = [
                    a_bits[i0 * k + kk],
                    a_bits[(i0 + 1) * k + kk],
                    a_bits[(i0 + 2) * k + kk],
                    a_bits[(i0 + 3) * k + kk],
                ];
                let live = [
                    !lut.activation_is_zero(ca[0]),
                    !lut.activation_is_zero(ca[1]),
                    !lut.activation_is_zero(ca[2]),
                    !lut.activation_is_zero(ca[3]),
                ];
                let w_row = &w_codes[kk * n..(kk + 1) * n];
                if live == [true; 4] {
                    // All four rows contribute at this k: the weight row's
                    // codes are loaded and masked once for the whole quad.
                    let p0 = lut.f32_row(ca[0]);
                    let p1 = lut.f32_row(ca[1]);
                    let p2 = lut.f32_row(ca[2]);
                    let p3 = lut.f32_row(ca[3]);
                    let quad =
                        r0.iter_mut().zip(r1.iter_mut()).zip(r2.iter_mut()).zip(r3.iter_mut());
                    for ((((o0, o1), o2), o3), &cw) in quad.zip(w_row) {
                        let ci = cw.to_bits() as usize & PATTERN_MASK;
                        *o0 += p0[ci];
                        *o1 += p1[ci];
                        *o2 += p2[ci];
                        *o3 += p3[ci];
                    }
                } else {
                    // A zero-skip in the quad: per-row adds for this k only.
                    let quad = [&mut *r0, &mut *r1, &mut *r2, &mut *r3];
                    for ((o_row, &c), live) in quad.into_iter().zip(&ca).zip(live) {
                        if live {
                            add_product_row(lut.f32_row(c), w_row, o_row);
                        }
                    }
                }
            }
        } else {
            // The row path, for the ragged tail or a quad holding
            // SKIP_CODE padding rows (which keep their bias): one pair-LUT
            // product row per contributing `k`.
            for (r, o_row) in chunk.chunks_mut(n).enumerate() {
                let a_row = &a_bits[(i0 + r) * k..(i0 + r + 1) * k];
                if a_row.first() == Some(&SKIP_CODE) {
                    continue;
                }
                for (&ca, w_row) in a_row.iter().zip(w_codes.chunks_exact(n)) {
                    debug_assert!(ca != SKIP_CODE, "skip sentinel inside an encoded row");
                    if !lut.activation_is_zero(ca) {
                        add_product_row(lut.f32_row(ca), w_row, o_row);
                    }
                }
            }
        }
    }
    Matrix::from_vec(m, n, data)
}

/// Adds one activation code's products against one weight row of codes
/// into an output row, `o[j] += prod_row[w_row[j]]` — the step both of
/// [`matmul_lut_bias`]'s paths share for a row that contributes alone.
#[inline]
fn add_product_row(prod_row: &[f32], w_row: &[Code], o_row: &mut [f32]) {
    for (o, &cw) in o_row.iter_mut().zip(w_row) {
        *o += prod_row[cw.to_bits() as usize & PATTERN_MASK];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::ExpCurve;
    use crate::dict::{OutlierPolicy, TensorDictConfig};
    use crate::kernels::matmul_indexed;
    use mokey_tensor::init::GaussianMixture;

    fn quantized_pair(
        m: usize,
        k: usize,
        n: usize,
        seed: u64,
    ) -> (QuantizedTensor, QuantizedTensor) {
        let curve = ExpCurve::paper();
        let a = GaussianMixture::activation_like(0.3, 1.2).sample_matrix(m, k, seed);
        let w = GaussianMixture::weight_like(-0.01, 0.06).sample_matrix(k, n, seed + 1000);
        (
            QuantizedTensor::encode_with_own_dict(&a, &curve, &Default::default()).unwrap(),
            QuantizedTensor::encode_with_own_dict(&w, &curve, &Default::default()).unwrap(),
        )
    }

    fn code_bytes(q: &QuantizedTensor) -> Vec<u8> {
        q.codes().iter().map(|c| c.to_bits()).collect()
    }

    /// The same GEMM as `m` one-row calls — every row on the row path.
    fn one_row_calls(
        a_bits: &[u8],
        m: usize,
        k: usize,
        w: &QuantizedTensor,
        bias: &[f32],
        lut: &PairLut,
    ) -> Vec<f32> {
        (0..m)
            .flat_map(|i| {
                matmul_lut_bias(&a_bits[i * k..(i + 1) * k], 1, k, w, bias, lut).into_vec()
            })
            .collect()
    }

    fn assert_bits_eq(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}");
        }
    }

    #[test]
    fn decode_lut_matches_decode_code_for_every_valid_pattern() {
        let (qa, qw) = quantized_pair(4, 64, 4, 3);
        for dict in [qa.dict(), qw.dict()] {
            let lut = DecodeLut::new(dict);
            for bits in 0..32u8 {
                let code = Code::from_bits(bits);
                let table =
                    if code.is_outlier() { dict.ot_magnitudes() } else { dict.g_magnitudes() };
                if (code.index() as usize) < table.len() {
                    assert_eq!(
                        lut.value(code).to_bits(),
                        (dict.decode_code(code) as f32).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn pair_lut_products_match_decoded_products() {
        let (qa, qw) = quantized_pair(4, 64, 4, 7);
        let lut = PairLut::new(qa.dict(), qw.dict());
        assert_eq!(lut.bytes(), 4128);
        for &ca in qa.codes() {
            for &cw in qw.codes() {
                let expect32 =
                    (qa.dict().decode_code(ca) as f32) * (qw.dict().decode_code(cw) as f32);
                assert_eq!(lut.product_f32(ca, cw).to_bits(), expect32.to_bits());
            }
        }
    }

    #[test]
    fn pair_lut_handles_short_and_empty_outlier_tables() {
        // Disabled outlier policy → empty OT table; every OT bit-pattern is
        // invalid and must build (as 0.0) without panicking.
        let curve = ExpCurve::paper();
        let vals = GaussianMixture::weight_like(0.0, 0.05).sample_matrix(32, 32, 5);
        let config = TensorDictConfig { policy: OutlierPolicy::Disabled, ..Default::default() };
        let no_ot = TensorDict::for_values(vals.as_slice(), &curve, &config).unwrap();
        assert!(no_ot.ot_magnitudes().is_empty());
        let with_ot = TensorDict::for_values(vals.as_slice(), &curve, &Default::default()).unwrap();
        let lut = PairLut::new(&no_ot, &with_ot);
        // An outlier activation pattern is invalid for the G-only dict: its
        // products are 0.0, yet it is not flagged as a zero activation
        // (the flag only covers valid patterns).
        let ot_code = Code::new(true, false, 0);
        let g_code = Code::new(false, false, 3);
        assert_eq!(lut.product_f32(ot_code, g_code), 0.0);
        assert!(!lut.activation_is_zero(ot_code.to_bits()));
        // Likewise an outlier weight pattern against the G-only weights.
        let rev = PairLut::new(&with_ot, &no_ot);
        assert_eq!(rev.product_f32(g_code, ot_code), 0.0);
    }

    #[test]
    fn col_major_codes_match_per_column_gather() {
        let (_, qw) = quantized_pair(2, 48, 7, 11);
        let cols = ColMajorCodes::from_tensor(&qw);
        assert_eq!((cols.rows(), cols.cols()), qw.shape());
        for j in 0..qw.cols() {
            let expect: Vec<Code> = (0..qw.rows()).map(|r| qw.row_codes(r)[j]).collect();
            assert_eq!(cols.col(j), expect.as_slice());
        }
    }

    #[test]
    fn matmul_lut_tracks_matmul_indexed_numerically() {
        // The served f32 kernel against the histogram reference (exact f64
        // reduction): equal up to f32 accumulation rounding.
        let (qa, qw) = quantized_pair(5, 96, 9, 31);
        let lut = PairLut::new(qa.dict(), qw.dict());
        let fast = matmul_lut_bias(&code_bytes(&qa), 5, 96, &qw, &[0.0; 9], &lut);
        let slow = matmul_indexed(&qa, &qw);
        assert_eq!(fast.shape(), slow.shape());
        assert!(fast.max_abs_diff(&slow) < 1e-4, "diff {}", fast.max_abs_diff(&slow));
    }

    #[test]
    fn matmul_lut_bias_is_bit_identical_to_dense_matmul_bias() {
        let (qa, qw) = quantized_pair(9, 300, 33, 41);
        let lut = PairLut::new(qa.dict(), qw.dict());
        let bias: Vec<f32> = (0..33).map(|j| j as f32 * 0.01 - 0.15).collect();
        let fast = matmul_lut_bias(&code_bytes(&qa), 9, 300, &qw, &bias, &lut);
        let reference = qa.decode().matmul_bias(&qw.decode(), &bias);
        assert_eq!(fast.shape(), reference.shape());
        assert_bits_eq(fast.as_slice(), reference.as_slice());
    }

    #[test]
    fn matmul_lut_bias_skip_rows_emit_bias_and_leave_others_identical() {
        let (qa, qw) = quantized_pair(5, 64, 8, 47);
        let lut = PairLut::new(qa.dict(), qw.dict());
        let bias = [0.5f32, -1.0, 0.25, 2.0, 0.0, 1.5, -0.75, 0.125];
        let mut a_bits = code_bytes(&qa);
        // Mark rows 1 and 4 as never-encoded padding.
        for r in [1usize, 4] {
            for b in &mut a_bits[r * 64..(r + 1) * 64] {
                *b = SKIP_CODE;
            }
        }
        let out = matmul_lut_bias(&a_bits, 5, 64, &qw, &bias, &lut);
        for r in [1usize, 4] {
            assert_eq!(out.row(r), &bias);
        }
        // Valid rows are bit-identical to the dense reference (row
        // independence: padding rows never influence neighbours).
        let reference = qa.decode().matmul_bias(&qw.decode(), &bias);
        for r in [0usize, 2, 3] {
            assert_bits_eq(out.row(r), reference.row(r));
        }
    }

    #[test]
    fn matmul_lut_bias_zero_centroid_skip_matches_float_zero_skip() {
        // A dictionary whose shift/scale land a centroid exactly on 0.0f32
        // exercises the zero-skip parity: the float kernel skips a == 0.0,
        // the LUT kernel must skip the same codes. With Gaussian-mixture
        // activations a zero centroid is unlikely; the invariant itself
        // (flag ⇔ decoded f32 is 0.0) always holds.
        let (qa, qw) = quantized_pair(4, 128, 6, 53);
        let lut = PairLut::new(qa.dict(), qw.dict());
        let decode = DecodeLut::new(qa.dict());
        for bits in 0..32u8 {
            let code = Code::from_bits(bits);
            let table = if code.is_outlier() {
                qa.dict().ot_magnitudes()
            } else {
                qa.dict().g_magnitudes()
            };
            if (code.index() as usize) < table.len() {
                assert_eq!(lut.activation_is_zero(bits), decode.value(code) == 0.0);
            }
        }
    }

    #[test]
    fn matmul_lut_bias_counter_is_bit_identical_to_row_kernel() {
        // 11 rows: two full quads plus a 3-row tail; k = 300 exercises a
        // long ascending reduction. The quad path must equal the same rows
        // as one-row calls (the row path) and the dense reference.
        let (qa, qw) = quantized_pair(11, 300, 33, 83);
        let lut = PairLut::new(qa.dict(), qw.dict());
        let bias: Vec<f32> = (0..33).map(|j| j as f32 * 0.01 - 0.15).collect();
        let a_bits = code_bytes(&qa);
        let fast = matmul_lut_bias(&a_bits, 11, 300, &qw, &bias, &lut);
        let row_path = one_row_calls(&a_bits, 11, 300, &qw, &bias, &lut);
        let dense = qa.decode().matmul_bias(&qw.decode(), &bias);
        assert_bits_eq(fast.as_slice(), &row_path);
        assert_bits_eq(fast.as_slice(), dense.as_slice());
    }

    #[test]
    fn matmul_lut_bias_counter_skip_rows_emit_bias_within_a_panel() {
        // Skip rows inside and across quad boundaries (row 1 in quad 0,
        // row 7 ending quad 1, row 8 starting the ragged tail) must emit
        // the bias while their neighbours stay bit-identical to one-row
        // calls.
        let (qa, qw) = quantized_pair(10, 64, 8, 89);
        let lut = PairLut::new(qa.dict(), qw.dict());
        let bias = [0.5f32, -1.0, 0.25, 2.0, 0.0, 1.5, -0.75, 0.125];
        let mut a_bits = code_bytes(&qa);
        for r in [1usize, 7, 8] {
            for b in &mut a_bits[r * 64..(r + 1) * 64] {
                *b = SKIP_CODE;
            }
        }
        let fast = matmul_lut_bias(&a_bits, 10, 64, &qw, &bias, &lut);
        for r in [1usize, 7, 8] {
            assert_eq!(fast.row(r), &bias);
        }
        assert_bits_eq(fast.as_slice(), &one_row_calls(&a_bits, 10, 64, &qw, &bias, &lut));
    }

    #[test]
    fn counter_kernels_handle_empty_shapes() {
        // Zero rows on either side of the quad height, and a zero-width
        // weight under a quad-sized activation.
        let (qa, qw) = quantized_pair(4, 8, 3, 97);
        let lut = PairLut::new(qa.dict(), qw.dict());
        let out = matmul_lut_bias(&[], 0, 8, &qw, &[0.0; 3], &lut);
        assert_eq!(out.shape(), (0, 3));
        let no_cols = QuantizedTensor::encode(&Matrix::zeros(8, 0), qw.dict());
        let out = matmul_lut_bias(&code_bytes(&qa), 4, 8, &no_cols, &[], &lut);
        assert_eq!(out.shape(), (4, 0));
    }

    #[test]
    fn empty_and_degenerate_shapes_are_handled() {
        let (qa, qw) = quantized_pair(1, 8, 3, 61);
        let lut = PairLut::new(qa.dict(), qw.dict());
        // Zero-row activation: empty output.
        let out = matmul_lut_bias(&[], 0, 8, &qw, &[0.0; 3], &lut);
        assert_eq!(out.shape(), (0, 3));
        // Zero inner dimension: every row is the bias, on the quad path
        // (4 rows) and the row path (1 and 5 rows) alike.
        let no_k = QuantizedTensor::encode(&Matrix::zeros(0, 3), qw.dict());
        let bias = [0.5f32, -1.0, 0.25];
        for m in [1usize, 4, 5] {
            let out = matmul_lut_bias(&[], m, 0, &no_k, &bias, &lut);
            assert_eq!(out.shape(), (m, 3));
            for r in 0..m {
                assert_eq!(out.row(r), &bias);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_lut_shape_mismatch_panics() {
        let (qa, qw) = quantized_pair(2, 8, 2, 71);
        let (qa2, _) = quantized_pair(2, 16, 2, 73);
        let lut = PairLut::new(qa.dict(), qw.dict());
        let _ = matmul_lut_bias(&code_bytes(&qa2), 2, 16, &qw, &[0.0; 2], &lut);
    }
}
