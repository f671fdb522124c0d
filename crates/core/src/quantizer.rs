//! The output-activation quantization engine (paper Fig. 7), and the
//! encoder every served activation, KV and weight encode runs through.
//!
//! "An output activation OA is compared with every centroid from both the G
//! and the OT dictionaries. Since the dictionary values are sorted … a
//! leading-one detector drives two 32-to-1 multiplexers … selecting the two
//! corresponding 16b centroids CL and CH … OA is subtracted from each … to
//! find the smaller of the two. The relative position of this centroid is
//! then encoded as a 5b index."
//!
//! [`OutputQuantizer`] is that engine with the subtract-and-pick stage
//! folded into its comparator inputs. Between two adjacent centroids the
//! nearest one flips at one input value, so the comparators compare
//! against those decision points (at most 31 `f32` thresholds) instead of
//! the centroids, and the count of thresholds at or below a value selects
//! its code directly. The thresholds are read off the specification,
//! [`TensorDict::encode_value`], by bisection over the ordered `f32` bit
//! patterns, so the table equals it code for code on every non-NaN `f32`.
//! The slice encoders compare 16 values at a time against every
//! threshold, one `u32` count per lane, then gather each value's code bits
//! and decoded centroid from a 32-slot table.

use crate::dict::TensorDict;
use crate::encode::{Code, QuantizedTensor};
use crate::lut::DecodeLut;
use mokey_tensor::Matrix;

/// Values the slice encoders compare against the thresholds at once.
const LANES: usize = 16;

/// Slots of the code table: one per compare count, `0..=31`.
const SLOTS: usize = 32;

/// Keeps a compare count inside the slot table.
const SLOT_MASK: usize = SLOTS - 1;

/// Maps an `f32` to a `u32` that orders like the `f32` total order
/// (`-∞ < … < -0 < +0 < … < +∞`, NaNs outside that range).
fn ordered_key(v: f32) -> u32 {
    let bits = v.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// Inverse of [`ordered_key`].
fn from_ordered_key(key: u32) -> f32 {
    f32::from_bits(if key >> 31 == 1 { key & !(1 << 31) } else { !key })
}

/// The comparator table of one tensor's dictionary pair: the Fig. 7
/// engine, and the encoder the server runs.
///
/// # Example
///
/// ```
/// use mokey_core::{curve::ExpCurve, dict::TensorDict, quantizer::OutputQuantizer};
///
/// let values: Vec<f32> = (0..512).map(|i| ((i as f32) * 0.37).sin()).collect();
/// let dict = TensorDict::for_values(&values, &ExpCurve::paper(), &Default::default()).unwrap();
/// let engine = OutputQuantizer::new(dict.clone());
/// let code = engine.quantize(0.4);
/// assert_eq!(code, dict.encode_value(0.4));
///
/// // In place: values become their decoded centroids, codes land in `bits`.
/// let mut acts = vec![0.4f32, -1.3, 7.5];
/// let mut bits = [0u8; 3];
/// let outliers = engine.quantize_slice(&mut acts, Some(&mut bits));
/// assert_eq!(bits[1], dict.encode_value(-1.3).to_bits());
/// assert_eq!(acts[1], dict.decode_code(dict.encode_value(-1.3)) as f32);
/// assert!(outliers <= 3);
/// ```
#[derive(Debug, Clone)]
pub struct OutputQuantizer {
    dict: TensorDict,
    decode: DecodeLut,
    /// Ascending; entry `i` is the smallest `f32` whose code is slot
    /// `i + 1`'s.
    thresholds: Vec<f32>,
    /// Code bits of each compare count (slot 0 is the code of `-∞`).
    slot_bits: [u8; SLOTS],
    /// Decoded centroid of each slot's code (`DecodeLut`'s value).
    slot_values: [f32; SLOTS],
}

impl OutputQuantizer {
    /// Builds the comparator table for a dictionary pair. Each threshold
    /// is found by bisecting [`TensorDict::encode_value`] over the ordered
    /// `f32` bit patterns between `-∞` and `+∞` (about 32 probes per
    /// threshold), which relies on `encode_value` being monotone.
    ///
    /// # Panics
    ///
    /// Panics if the codes change more than 31 times between `-∞` and
    /// `+∞`, which a monotone encoder over at most 32 centroids cannot do.
    pub fn new(dict: TensorDict) -> Self {
        let decode = DecodeLut::new(&dict);
        let code_at = |key: u32| dict.encode_value(from_ordered_key(key)).to_bits();
        let last = ordered_key(f32::INFINITY);
        let end_code = code_at(last);
        let mut thresholds = Vec::new();
        let mut slot_bits = [0u8; SLOTS];
        let mut below = ordered_key(f32::NEG_INFINITY);
        let mut code = code_at(below);
        slot_bits[0] = code;
        while code != end_code {
            assert!(thresholds.len() < SLOTS - 1, "encode_value is not monotone");
            // `below` has `code`; `above` is the smallest key known not to.
            let mut above = last;
            while above - below > 1 {
                let mid = below + (above - below) / 2;
                if code_at(mid) == code {
                    below = mid;
                } else {
                    above = mid;
                }
            }
            thresholds.push(from_ordered_key(above));
            code = code_at(above);
            slot_bits[thresholds.len()] = code;
            below = above;
        }
        let slot_values = slot_bits.map(|bits| decode.value(Code::from_bits(bits)));
        Self { dict, decode, thresholds, slot_bits, slot_values }
    }

    /// The dictionary this engine encodes into.
    pub fn dict(&self) -> &TensorDict {
        &self.dict
    }

    /// The decode table of the dictionary.
    pub fn decode(&self) -> &DecodeLut {
        &self.decode
    }

    /// The comparator inputs, ascending: the smallest `f32` at which the
    /// code changes.
    pub fn thresholds(&self) -> &[f32] {
        &self.thresholds
    }

    /// Number of comparators (31 for the paper's 16+16-entry
    /// configuration: one per boundary between adjacent centroids).
    pub fn comparator_count(&self) -> usize {
        self.thresholds.len()
    }

    /// Quantizes one output activation: the count of thresholds at or
    /// below it selects its code.
    ///
    /// # Panics
    ///
    /// Panics on NaN, as [`TensorDict::encode_value`] does.
    pub fn quantize(&self, oa: f32) -> Code {
        if oa.is_nan() {
            return self.dict.encode_value(oa);
        }
        let count = self.thresholds.partition_point(|&t| t <= oa);
        Code::from_bits(self.slot_bits[count])
    }

    /// Compare counts of one chunk of at most [`LANES`] values: lane `l`
    /// counts the thresholds at or below `chunk[l]` (lanes past a short
    /// chunk count zeros and are ignored). A chunk holding a NaN goes to
    /// [`TensorDict::encode_value`], which panics on it.
    #[inline]
    fn counts(&self, chunk: &[f32]) -> [u32; LANES] {
        let mut lanes = [0.0f32; LANES];
        lanes[..chunk.len()].copy_from_slice(chunk);
        if lanes.iter().fold(false, |nan, v| nan | v.is_nan()) {
            for &v in chunk {
                self.dict.encode_value(v);
            }
            unreachable!("encode_value panics on NaN");
        }
        let mut counts = [0u32; LANES];
        for &t in &self.thresholds {
            for (count, &v) in counts.iter_mut().zip(&lanes) {
                *count += u32::from(v >= t);
            }
        }
        counts
    }

    /// Encodes `values` into `bits` (one 5-bit code pattern per value) and
    /// returns how many values encode as outliers.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ, or on NaN.
    pub fn encode_slice(&self, values: &[f32], bits: &mut [u8]) -> usize {
        assert_eq!(values.len(), bits.len(), "one code per value");
        let mut outliers = 0;
        for (chunk, out) in values.chunks(LANES).zip(bits.chunks_mut(LANES)) {
            for (b, &count) in out.iter_mut().zip(&self.counts(chunk)) {
                *b = self.slot_bits[count as usize & SLOT_MASK];
                outliers += usize::from(*b & Code::DICT_BIT != 0);
            }
        }
        outliers
    }

    /// Quantizes `values` in place: each becomes its decoded centroid
    /// (bit-identical to `dict.decode_code(dict.encode_value(v)) as f32`),
    /// and its code bits go to `bits` when given. Returns how many values
    /// encode as outliers.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is given with a different length, or on NaN.
    pub fn quantize_slice(&self, values: &mut [f32], mut bits: Option<&mut [u8]>) -> usize {
        if let Some(bits) = &bits {
            assert_eq!(values.len(), bits.len(), "one code per value");
        }
        let mut outliers = 0;
        for (i, chunk) in values.chunks_mut(LANES).enumerate() {
            let slots = self.counts(chunk).map(|count| count as usize & SLOT_MASK);
            if let Some(bits) = bits.as_deref_mut() {
                for (b, &slot) in bits[i * LANES..][..chunk.len()].iter_mut().zip(&slots) {
                    *b = self.slot_bits[slot];
                }
            }
            for (v, &slot) in chunk.iter_mut().zip(&slots) {
                *v = self.slot_values[slot];
                outliers += usize::from(self.slot_bits[slot] & Code::DICT_BIT != 0);
            }
        }
        outliers
    }

    /// Quantizes a whole output-activation matrix.
    pub fn quantize_matrix(&self, m: &Matrix) -> QuantizedTensor {
        let mut bits = vec![0u8; m.len()];
        self.encode_slice(m.as_slice(), &mut bits);
        let codes = bits.into_iter().map(Code::from_bits).collect();
        QuantizedTensor::from_codes(m.rows(), m.cols(), codes, self.dict.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::ExpCurve;
    use mokey_tensor::init::GaussianMixture;

    fn engine() -> OutputQuantizer {
        let vals = GaussianMixture::activation_like(0.2, 1.5).sample_matrix(64, 64, 77);
        let dict = TensorDict::for_values(vals.as_slice(), &ExpCurve::paper(), &Default::default())
            .unwrap();
        OutputQuantizer::new(dict)
    }

    #[test]
    fn hardware_path_matches_software_encoder() {
        let e = engine();
        let probe = GaussianMixture::activation_like(0.2, 1.5).sample_matrix(32, 32, 78);
        for &v in probe.as_slice() {
            assert_eq!(e.quantize(v), e.dict().encode_value(v), "divergence at value {v}");
        }
    }

    #[test]
    fn extreme_values_clamp_to_ladder_ends() {
        let e = engine();
        let last = e.dict().ot_magnitudes().len() - 1;
        for v in [1e9, 1e18, f32::MAX, f32::INFINITY] {
            let lo = e.quantize(-v);
            let hi = e.quantize(v);
            assert!(lo.is_negative());
            assert!(!hi.is_negative());
            assert!(lo.is_outlier() && hi.is_outlier());
            assert_eq!((lo.index() as usize, hi.index() as usize), (last, last));
            assert_eq!((lo, hi), (e.dict().encode_value(-v), e.dict().encode_value(v)));
        }
    }

    #[test]
    fn ladder_is_sorted_and_sized() {
        let e = engine();
        assert!(e.comparator_count() <= 32);
        assert!(e.comparator_count() >= 16);
        assert!(e.thresholds().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn quantize_matrix_equals_encode() {
        let e = engine();
        let m = GaussianMixture::activation_like(0.2, 1.5).sample_matrix(8, 8, 79);
        let via_engine = e.quantize_matrix(&m);
        let via_encode = QuantizedTensor::encode(&m, e.dict());
        assert_eq!(via_engine, via_encode);
        for (&code, &v) in via_engine.codes().iter().zip(m.as_slice()) {
            assert_eq!(code, e.dict().encode_value(v), "divergence at value {v}");
        }
    }

    #[test]
    fn slice_encoders_match_the_specification_across_chunk_tails() {
        let e = engine();
        let dict = e.dict();
        let probe = GaussianMixture::activation_like(0.2, 1.5).sample_matrix(1, 50, 80);
        for len in [0, 1, 15, 16, 17, 33, 50] {
            let values = &probe.as_slice()[..len];
            let codes: Vec<Code> = values.iter().map(|&v| dict.encode_value(v)).collect();
            let expect_bits: Vec<u8> = codes.iter().map(|c| c.to_bits()).collect();
            let expect_values: Vec<u32> =
                codes.iter().map(|&c| (dict.decode_code(c) as f32).to_bits()).collect();
            let expect_outliers = codes.iter().filter(|c| c.is_outlier()).count();

            let mut bits = vec![0xAA; len];
            assert_eq!(e.encode_slice(values, &mut bits), expect_outliers);
            assert_eq!(bits, expect_bits);

            let mut quantized = values.to_vec();
            let mut bits = vec![0xAA; len];
            assert_eq!(e.quantize_slice(&mut quantized, Some(&mut bits)), expect_outliers);
            assert_eq!(bits, expect_bits);
            assert_eq!(quantized.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), expect_values);

            let mut quantized = values.to_vec();
            assert_eq!(e.quantize_slice(&mut quantized, None), expect_outliers);
            assert_eq!(quantized.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), expect_values);
        }
    }

    #[test]
    #[should_panic(expected = "finite magnitudes")]
    fn nan_in_a_chunk_panics_like_the_specification() {
        let mut values = vec![0.5f32; 20];
        values[17] = f32::NAN;
        engine().quantize_slice(&mut values, None);
    }

    #[test]
    #[should_panic(expected = "finite magnitudes")]
    fn nan_scalar_panics_like_the_specification() {
        engine().quantize(f32::NAN);
    }

    #[test]
    fn quantize_centroid_is_identity() {
        let e = engine();
        for (value, code) in e.dict().signed_centroids() {
            assert_eq!(e.quantize(value as f32), code, "centroid {value} did not map to itself");
        }
    }
}
