//! Per-tensor dictionary generation (paper Sections II-C and II-E).
//!
//! "Mokey fits the Golden Dictionary (GD) to each tensor by first
//! determining the mean (m) and the standard deviation (s) of the tensor's
//! values … A simple linear transformation of GD is all that is needed:
//! `GD × s + m`." Each tensor carries **two** dictionaries: a Gaussian (G)
//! dictionary — the fitted exponential curve — for the bulk, and an Outlier
//! (OT) dictionary for the rare wide-range values.
//!
//! [`TensorDict::encode_value`] is the specification of encoding: the
//! nearest centroid across both tables, computed per value in `f64`. Nothing
//! serves through it. Every activation, KV and weight encode runs through
//! the dictionary's comparator table,
//! [`OutputQuantizer`](crate::quantizer::OutputQuantizer), which is built
//! from `encode_value` and equals it code for code.

use crate::curve::ExpCurve;
use crate::encode::Code;
use mokey_clustering::ward_agglomerative;
use mokey_tensor::stats::Summary;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a per-tensor dictionary could not be built.
///
/// Degenerate tensors used to panic (empty) or silently produce a
/// unit-scale dictionary (constant); both now surface as typed errors so
/// pipeline consumers can attach the tensor name and fail cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DictError {
    /// The tensor had no values.
    Empty,
    /// Every value is (numerically) identical: the standard deviation is
    /// zero, so the `GD·s + m` transform collapses and no meaningful
    /// dictionary exists.
    Constant,
    /// The tensor contained NaN or infinite values.
    NonFinite,
}

impl fmt::Display for DictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DictError::Empty => write!(f, "cannot build a dictionary for zero values"),
            DictError::Constant => {
                write!(f, "tensor is constant (zero variance); no dictionary transform exists")
            }
            DictError::NonFinite => write!(f, "tensor contains NaN or infinite values"),
        }
    }
}

impl std::error::Error for DictError {}

/// Reusable buffers for dictionary construction.
///
/// Building a [`TensorDict`] needs three transient `Vec`s (normalized
/// magnitudes, a sorted copy for the [`OutlierPolicy::Fraction`] cut, and
/// the outlier subset). A pipeline quantizing thousands of tensors hands
/// each worker one `DictScratch` so those buffers are allocated once per
/// worker instead of three times per tensor.
#[derive(Debug, Default)]
pub struct DictScratch {
    zmags: Vec<f64>,
    sorted: Vec<f64>,
    outliers: Vec<f64>,
}

impl DictScratch {
    /// A scratch arena with empty buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// How the Gaussian/outlier boundary is chosen during dictionary
/// construction.
///
/// The paper widens the exponent range to `int = 45` to cover outliers and
/// gives them a dedicated 16-entry dictionary; the precise cut is a design
/// parameter, so we expose the obvious policies (and use them in the
/// ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OutlierPolicy {
    /// Cut halfway between the outermost Gaussian magnitude `a^(h−1)+b` and
    /// the next exponential step `a^h+b`. This is the natural reading of
    /// the paper's scheme and the default.
    CurveMidpoint,
    /// Explicit cut in normalized (`z = (x−m)/s`) space.
    Threshold(f64),
    /// Choose the cut so that the given fraction of observed values falls
    /// in the outlier set.
    Fraction(f64),
    /// No outlier dictionary: everything quantizes to the Gaussian curve
    /// (values beyond its range clamp to the outermost bin). Used by the
    /// G-only ablation.
    Disabled,
}

/// Construction parameters for [`TensorDict`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TensorDictConfig {
    /// Outlier split policy.
    pub policy: OutlierPolicy,
    /// Maximum OT dictionary magnitudes (paper: 16 entries = 8 magnitudes +
    /// sign).
    pub max_outlier_magnitudes: usize,
    /// Exponent cap for outlier coverage (paper: "we need to widen the
    /// index range to int = 45"). Normalized values beyond `a^cap + b`
    /// clamp.
    pub max_exponent: u32,
}

impl Default for TensorDictConfig {
    fn default() -> Self {
        Self { policy: OutlierPolicy::CurveMidpoint, max_outlier_magnitudes: 8, max_exponent: 45 }
    }
}

/// A per-tensor dictionary pair: the scaled/shifted exponential curve (G)
/// plus a clustered outlier dictionary (OT).
///
/// A stored [`Code`] decodes as `θ · magnitude[idx] · s + m`, where the
/// magnitude comes from the G curve or the OT table according to the code's
/// dictionary bit (paper Eq. 1/2).
///
/// # Example
///
/// ```
/// use mokey_core::{curve::ExpCurve, dict::TensorDict};
///
/// let values: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.618).sin() * 0.1).collect();
/// let dict = TensorDict::for_values(&values, &ExpCurve::paper(), &Default::default())
///     .expect("non-degenerate tensor");
/// let code = dict.encode_value(0.05);
/// let back = dict.decode_code(code);
/// assert!((back - 0.05).abs() < 0.03);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorDict {
    curve: ExpCurve,
    scale: f64,
    shift: f64,
    /// Cached Gaussian magnitudes `a^i + b` (z-space), ascending.
    g_magnitudes: Vec<f64>,
    /// Outlier magnitudes (z-space), ascending; may be empty.
    ot_magnitudes: Vec<f64>,
    /// z-space boundary used when the dictionary was *built* (encoding uses
    /// nearest-centroid-overall, matching the Fig. 7 hardware).
    cutoff: f64,
}

impl TensorDict {
    /// Builds the dictionary pair for a concrete value set (weights, or
    /// profiled activation samples).
    ///
    /// # Errors
    ///
    /// Returns a [`DictError`] when the tensor is empty, constant, or
    /// contains non-finite values.
    pub fn for_values(
        values: &[f32],
        curve: &ExpCurve,
        config: &TensorDictConfig,
    ) -> Result<Self, DictError> {
        let summary = Summary::of(values);
        Self::from_stats(&summary, values, curve, config)
    }

    /// Builds the dictionary pair from precomputed statistics plus a sample
    /// of values (the profiler's reservoir) used for outlier clustering.
    ///
    /// # Errors
    ///
    /// Returns a [`DictError`] when the summary describes an empty,
    /// constant, or non-finite tensor.
    pub fn from_stats(
        summary: &Summary,
        samples: &[f32],
        curve: &ExpCurve,
        config: &TensorDictConfig,
    ) -> Result<Self, DictError> {
        Self::from_stats_scratch(summary, samples, curve, config, &mut DictScratch::new())
    }

    /// [`TensorDict::from_stats`] with caller-owned scratch buffers — the
    /// hot path for pipelines that build thousands of dictionaries, where
    /// per-tensor `Vec` churn would dominate.
    ///
    /// # Errors
    ///
    /// Returns a [`DictError`] when the summary describes an empty,
    /// constant, or non-finite tensor.
    pub fn from_stats_scratch(
        summary: &Summary,
        samples: &[f32],
        curve: &ExpCurve,
        config: &TensorDictConfig,
        scratch: &mut DictScratch,
    ) -> Result<Self, DictError> {
        if summary.count() == 0 {
            return Err(DictError::Empty);
        }
        let shift = summary.mean();
        let scale = summary.std();
        if !shift.is_finite() || !scale.is_finite() || !summary.min().is_finite() {
            return Err(DictError::NonFinite);
        }
        if scale <= 1e-30 {
            return Err(DictError::Constant);
        }
        let g_magnitudes = curve.magnitudes();
        let g_max = *g_magnitudes.last().expect("curve has at least one magnitude");

        let z_cap = curve.power(config.max_exponent as usize) + curve.b;
        scratch.zmags.clear();
        scratch
            .zmags
            .extend(samples.iter().map(|&v| ((f64::from(v) - shift) / scale).abs().min(z_cap)));

        let cutoff = match config.policy {
            OutlierPolicy::Disabled => f64::INFINITY,
            OutlierPolicy::CurveMidpoint => (g_max + curve.power(curve.half_len) + curve.b) / 2.0,
            OutlierPolicy::Threshold(t) => t,
            OutlierPolicy::Fraction(f) => {
                let f = f.clamp(0.0, 1.0);
                scratch.sorted.clear();
                scratch.sorted.extend_from_slice(&scratch.zmags);
                scratch.sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite z"));
                let idx = ((scratch.sorted.len() as f64) * (1.0 - f)) as usize;
                scratch.sorted.get(idx).copied().unwrap_or(f64::INFINITY)
            }
        };

        scratch.outliers.clear();
        scratch.outliers.extend(scratch.zmags.iter().copied().filter(|&z| z > cutoff));
        let ot_magnitudes =
            if scratch.outliers.is_empty() || config.policy == OutlierPolicy::Disabled {
                Vec::new()
            } else {
                let k = config.max_outlier_magnitudes.min(scratch.outliers.len()).max(1);
                let clustering = ward_agglomerative(&scratch.outliers, k);
                clustering.centroids().to_vec()
            };

        Ok(Self { curve: *curve, scale, shift, g_magnitudes, ot_magnitudes, cutoff })
    }

    /// Reconstructs a dictionary from its stored parts (the wire format of
    /// `mokey-memlayout`'s archive): the Gaussian magnitudes are recomputed
    /// from the curve, everything else is explicit.
    ///
    /// # Panics
    ///
    /// Panics if `ot_magnitudes` is unsorted or `scale` is not positive.
    pub fn from_parts(
        curve: ExpCurve,
        scale: f64,
        shift: f64,
        ot_magnitudes: Vec<f64>,
        cutoff: f64,
    ) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        assert!(
            ot_magnitudes.windows(2).all(|w| w[0] <= w[1]),
            "outlier magnitudes must be sorted"
        );
        let g_magnitudes = curve.magnitudes();
        Self { curve, scale, shift, g_magnitudes, ot_magnitudes, cutoff }
    }

    /// The shared exponential curve.
    pub fn curve(&self) -> &ExpCurve {
        &self.curve
    }

    /// Per-tensor scale `s` (the standard deviation).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Per-tensor shift `m` (the mean).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Gaussian magnitudes in z-space (`a^i + b`), ascending.
    pub fn g_magnitudes(&self) -> &[f64] {
        &self.g_magnitudes
    }

    /// Outlier magnitudes in z-space, ascending (empty when the tensor had
    /// no outliers or the policy disabled them).
    pub fn ot_magnitudes(&self) -> &[f64] {
        &self.ot_magnitudes
    }

    /// The z-space boundary used at construction time.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Encodes one value to its nearest centroid across **both**
    /// dictionaries (ties prefer Gaussian), exactly as the Fig. 7 output
    /// quantization engine does in hardware.
    ///
    /// A magnitude past the last entry of both tables clamps to the end
    /// of the table whose last magnitude is larger. Comparing the two
    /// distances there would be the same choice, except that far out
    /// (|z| ≳ 2^53) the `f64` subtractions round both distances to one
    /// value and the tie would pick the Gaussian end.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn encode_value(&self, value: f32) -> Code {
        let z = (f64::from(value) - self.shift) / self.scale;
        let negative = z < 0.0;
        let az = z.abs();
        let (gi, gd) = nearest(&self.g_magnitudes, az);
        let (Some(&g_last), Some(&ot_last)) = (self.g_magnitudes.last(), self.ot_magnitudes.last())
        else {
            return Code::new(false, negative, gi as u8);
        };
        if az > g_last && az > ot_last {
            return if ot_last > g_last {
                Code::new(true, negative, (self.ot_magnitudes.len() - 1) as u8)
            } else {
                Code::new(false, negative, gi as u8)
            };
        }
        let (oi, od) = nearest(&self.ot_magnitudes, az);
        if gd <= od {
            Code::new(false, negative, gi as u8)
        } else {
            Code::new(true, negative, oi as u8)
        }
    }

    /// Decodes a code back to a floating-point value:
    /// `θ · magnitude · s + m`.
    ///
    /// # Panics
    ///
    /// Panics if an outlier code arrives while the OT dictionary is empty,
    /// or the index exceeds the dictionary.
    pub fn decode_code(&self, code: Code) -> f64 {
        let table = if code.is_outlier() { &self.ot_magnitudes } else { &self.g_magnitudes };
        let mag = *table
            .get(code.index() as usize)
            .unwrap_or_else(|| panic!("code {code:?} indexes outside the dictionary"));
        let signed = if code.is_negative() { -mag } else { mag };
        signed * self.scale + self.shift
    }

    /// The full signed centroid list (value space), ascending, paired with
    /// the code that produces each.
    pub fn signed_centroids(&self) -> Vec<(f64, Code)> {
        let mut out = Vec::with_capacity(2 * (self.g_magnitudes.len() + self.ot_magnitudes.len()));
        for (table, is_ot) in [(&self.g_magnitudes, false), (&self.ot_magnitudes, true)] {
            for (i, &m) in table.iter().enumerate() {
                out.push((m * self.scale + self.shift, Code::new(is_ot, false, i as u8)));
                out.push((-m * self.scale + self.shift, Code::new(is_ot, true, i as u8)));
            }
        }
        out.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite centroids"));
        out
    }

    /// A 64-bit content fingerprint (FNV-1a over every field that affects
    /// decoding: curve constants, scale/shift, both magnitude tables, and
    /// the cutoff). Two dictionaries with equal fingerprints decode every
    /// code identically, so the fingerprint pair keys the session-level
    /// [`PairLut`](crate::lut::PairLut) cache across models.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = FNV_OFFSET;
        let mut eat = |bits: u64| {
            for byte in bits.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.curve.a.to_bits());
        eat(self.curve.b.to_bits());
        eat(self.curve.half_len as u64);
        eat(self.scale.to_bits());
        eat(self.shift.to_bits());
        eat(self.g_magnitudes.len() as u64);
        for &m in &self.g_magnitudes {
            eat(m.to_bits());
        }
        eat(self.ot_magnitudes.len() as u64);
        for &m in &self.ot_magnitudes {
            eat(m.to_bits());
        }
        eat(self.cutoff.to_bits());
        h
    }

    /// Metadata footprint in bits: G dictionary (half × 16b), OT dictionary
    /// (half × 16b), plus scale/shift constants (2 × 16b). Paper Section
    /// II-G: "the space needed for this metadata pales in comparison with
    /// the size of the respective tensors."
    pub fn metadata_bits(&self) -> usize {
        (self.g_magnitudes.len() + self.ot_magnitudes.len() + 2) * 16
    }
}

/// Index and distance of the nearest entry in an ascending table.
fn nearest(table: &[f64], value: f64) -> (usize, f64) {
    debug_assert!(!table.is_empty());
    match table.binary_search_by(|m| m.partial_cmp(&value).expect("finite magnitudes")) {
        Ok(i) => (i, 0.0),
        Err(i) => {
            if i == 0 {
                (0, (table[0] - value).abs())
            } else if i == table.len() {
                (table.len() - 1, (value - table[table.len() - 1]).abs())
            } else {
                let lo = (value - table[i - 1]).abs();
                let hi = (table[i] - value).abs();
                if lo <= hi {
                    (i - 1, lo)
                } else {
                    (i, hi)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mokey_tensor::init::GaussianMixture;

    fn weight_values() -> Vec<f32> {
        GaussianMixture::weight_like(0.01, 0.05).sample_matrix(100, 100, 42).into_vec()
    }

    #[test]
    fn linear_transform_matches_paper_form() {
        let values = weight_values();
        let curve = ExpCurve::paper();
        let dict = TensorDict::for_values(&values, &curve, &Default::default()).unwrap();
        // Decoded G centroid i must equal ±(a^i + b)·s + m exactly.
        for i in 0..8u8 {
            let pos = dict.decode_code(Code::new(false, false, i));
            let expect = (curve.a.powi(i32::from(i)) + curve.b) * dict.scale() + dict.shift();
            assert!((pos - expect).abs() < 1e-12);
            let neg = dict.decode_code(Code::new(false, true, i));
            let expect_neg = -(curve.a.powi(i32::from(i)) + curve.b) * dict.scale() + dict.shift();
            assert!((neg - expect_neg).abs() < 1e-12);
        }
    }

    #[test]
    fn encode_decode_error_bounded_for_bulk_values() {
        let values = weight_values();
        let dict =
            TensorDict::for_values(&values, &ExpCurve::paper(), &Default::default()).unwrap();
        // For in-range values the error is at most half the largest gap
        // between adjacent signed centroids.
        let centroids = dict.signed_centroids();
        let max_gap = centroids.windows(2).map(|w| w[1].0 - w[0].0).fold(0.0, f64::max);
        let lo = centroids.first().unwrap().0;
        let hi = centroids.last().unwrap().0;
        for &v in values.iter().filter(|&&v| f64::from(v) > lo && f64::from(v) < hi) {
            let err = (dict.decode_code(dict.encode_value(v)) - f64::from(v)).abs();
            assert!(err <= max_gap / 2.0 + 1e-9, "error {err} exceeds half max gap {max_gap}");
        }
    }

    #[test]
    fn outlier_fraction_matches_paper_ballpark_for_weights() {
        let values = weight_values();
        let dict =
            TensorDict::for_values(&values, &ExpCurve::paper(), &Default::default()).unwrap();
        let outliers = values.iter().filter(|&&v| dict.encode_value(v).is_outlier()).count() as f64;
        let frac = outliers / values.len() as f64;
        // Paper Table I: 1.2%–1.6% for weights. Allow a generous band.
        assert!(frac > 0.001 && frac < 0.05, "weight outlier fraction {frac}");
    }

    #[test]
    fn ot_magnitudes_sit_beyond_g_range() {
        let values = weight_values();
        let dict =
            TensorDict::for_values(&values, &ExpCurve::paper(), &Default::default()).unwrap();
        let g_max = *dict.g_magnitudes().last().unwrap();
        assert!(!dict.ot_magnitudes().is_empty());
        for &m in dict.ot_magnitudes() {
            assert!(m > g_max, "OT magnitude {m} inside G range (max {g_max})");
        }
    }

    #[test]
    fn disabled_policy_has_no_outliers() {
        let values = weight_values();
        let config = TensorDictConfig { policy: OutlierPolicy::Disabled, ..Default::default() };
        let dict = TensorDict::for_values(&values, &ExpCurve::paper(), &config).unwrap();
        assert!(dict.ot_magnitudes().is_empty());
        assert!(values.iter().all(|&v| !dict.encode_value(v).is_outlier()));
    }

    #[test]
    fn fraction_policy_hits_requested_rate() {
        let values = weight_values();
        let config =
            TensorDictConfig { policy: OutlierPolicy::Fraction(0.05), ..Default::default() };
        let dict = TensorDict::for_values(&values, &ExpCurve::paper(), &config).unwrap();
        let frac = values.iter().filter(|&&v| dict.encode_value(v).is_outlier()).count() as f64
            / values.len() as f64;
        assert!((frac - 0.05).abs() < 0.02, "fraction {frac} vs requested 0.05");
    }

    #[test]
    fn degenerate_tensors_are_rejected_with_typed_errors() {
        let curve = ExpCurve::paper();
        let config = TensorDictConfig::default();
        assert_eq!(TensorDict::for_values(&[], &curve, &config), Err(DictError::Empty));
        assert_eq!(
            TensorDict::for_values(&[3.0f32; 100], &curve, &config),
            Err(DictError::Constant)
        );
        assert_eq!(
            TensorDict::for_values(&[0.1, f32::NAN, 0.2], &curve, &config),
            Err(DictError::NonFinite)
        );
        assert_eq!(
            TensorDict::for_values(&[0.1, f32::INFINITY], &curve, &config),
            Err(DictError::NonFinite)
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_buffers() {
        let values = weight_values();
        let curve = ExpCurve::paper();
        let mut scratch = DictScratch::new();
        for policy in
            [OutlierPolicy::CurveMidpoint, OutlierPolicy::Fraction(0.03), OutlierPolicy::Disabled]
        {
            let config = TensorDictConfig { policy, ..Default::default() };
            let summary = Summary::of(&values);
            let fresh = TensorDict::from_stats(&summary, &values, &curve, &config).unwrap();
            let reused =
                TensorDict::from_stats_scratch(&summary, &values, &curve, &config, &mut scratch)
                    .unwrap();
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn extreme_values_clamp_to_outermost_bin() {
        let values = weight_values();
        let dict =
            TensorDict::for_values(&values, &ExpCurve::paper(), &Default::default()).unwrap();
        let last = dict.ot_magnitudes().len() - 1;
        // 1e18 and f32::MAX sit past 2^53 in z-space, where the two
        // distances to the table ends round to one value.
        for v in [1e6, 1e18, f32::MAX, f32::INFINITY] {
            for (value, negative) in [(v, false), (-v, true)] {
                let code = dict.encode_value(value);
                assert!(code.is_outlier(), "{value} did not clamp to the outlier table");
                assert_eq!(code.is_negative(), negative, "{value} lost its sign");
                assert_eq!(code.index() as usize, last, "{value} did not clamp to the last bin");
            }
        }
    }

    #[test]
    fn signed_centroids_sorted_and_complete() {
        let values = weight_values();
        let dict =
            TensorDict::for_values(&values, &ExpCurve::paper(), &Default::default()).unwrap();
        let c = dict.signed_centroids();
        assert_eq!(c.len(), 2 * (8 + dict.ot_magnitudes().len()));
        assert!(c.windows(2).all(|w| w[0].0 <= w[1].0));
        // Every centroid decodes to itself.
        for (v, code) in &c {
            assert!((dict.decode_code(*code) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn fingerprint_tracks_content_not_identity() {
        let values = weight_values();
        let curve = ExpCurve::paper();
        let d1 = TensorDict::for_values(&values, &curve, &Default::default()).unwrap();
        let d2 = TensorDict::for_values(&values, &curve, &Default::default()).unwrap();
        assert_eq!(d1.fingerprint(), d2.fingerprint());
        // A different tensor (different stats) must fingerprint differently.
        let other: Vec<f32> = values.iter().map(|v| v * 1.5 + 0.01).collect();
        let d3 = TensorDict::for_values(&other, &curve, &Default::default()).unwrap();
        assert_ne!(d1.fingerprint(), d3.fingerprint());
        // And so must a policy change that empties the OT table.
        let config = TensorDictConfig { policy: OutlierPolicy::Disabled, ..Default::default() };
        let d4 = TensorDict::for_values(&values, &curve, &config).unwrap();
        assert_ne!(d1.fingerprint(), d4.fingerprint());
    }

    #[test]
    fn metadata_is_small() {
        let values = weight_values();
        let dict =
            TensorDict::for_values(&values, &ExpCurve::paper(), &Default::default()).unwrap();
        assert!(dict.metadata_bits() <= (8 + 8 + 2) * 16);
    }
}
