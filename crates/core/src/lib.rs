//! Mokey quantization — the primary contribution of the ISCA 2022 paper
//! *"Mokey: Enabling Narrow Fixed-Point Inference for Out-of-the-Box
//! Floating-Point Transformer Models"*.
//!
//! Mokey quantizes **all** weights and activations of a transformer to 4-bit
//! indexes into 16-entry dictionaries of 16-bit fixed-point centroids,
//! without fine-tuning, and — its most innovative aspect — performs the bulk
//! of multiply-accumulate work **directly on the indexes** because the
//! centroids are constrained to an exponential curve `±(a^i + b)·s + m`.
//!
//! The pipeline, module by module (paper Section II):
//!
//! 1. [`golden`] — generate the model-independent **Golden Dictionary** by
//!    agglomerative clustering of a random `N(0,1)` sample (Fig. 2).
//! 2. [`curve`] — fit the exponential `a^i + b` to the dictionary half
//!    (Fig. 3; paper reports `a = 1.179`, `b = −0.977`).
//! 3. [`dict`] — derive a per-tensor dictionary pair (Gaussian + Outlier) by
//!    the linear transform `GD·s + m` plus outlier clustering (Section II-C,
//!    II-E).
//! 4. [`encode`] — map tensors to 5-bit codes `(dict, sign, index)` and back
//!    (Section III-A stores these as 4b + pointer metadata off-chip; the
//!    [`mokey-memlayout`](https://docs.rs) crate implements that container).
//! 5. [`profile`] — the one-batch activation profiling run that supplies
//!    mean/std/outlier statistics for runtime tensors (Section II, Step 2).
//! 6. [`kernels`] — the index-domain dot product and GEMM: histogram
//!    counting of exponent sums (`SoI`, `SoA1`, `SoW1`, `PoM1`) plus
//!    precomputed constants, in both exact-`f64` and emulated 16-bit
//!    fixed-point datapaths (Section II-D, Eq. 1–6).
//!    [`lut`] — the fast production variant: dense 32×32 per-dictionary-
//!    pair product tables so GEMMs gather precomputed products instead of
//!    decoding, bit-identical to the decoded reference by construction.
//! 7. [`quantizer`] — the output-activation quantization engine of Fig. 7:
//!    a comparator table per dictionary, the encoder every served
//!    activation, KV and weight encode runs through.
//! 8. [`metrics`] — quantization-error metrics shared by the evaluation.
//!
//! # Quickstart
//!
//! ```
//! use mokey_core::{golden::GoldenDictionary, curve::ExpCurve, dict::TensorDict};
//! use mokey_core::encode::QuantizedTensor;
//! use mokey_tensor::init::GaussianMixture;
//!
//! // One-time, model-independent setup.
//! let gd = GoldenDictionary::generate(&Default::default());
//! let curve = ExpCurve::fit(&gd);
//!
//! // Quantize a weight-like tensor.
//! let w = GaussianMixture::weight_like(0.0, 0.05).sample_matrix(64, 64, 1);
//! let dict = TensorDict::for_values(w.as_slice(), &curve, &Default::default())
//!     .expect("non-degenerate tensor");
//! let q = QuantizedTensor::encode(&w, &dict);
//! let restored = q.decode();
//! assert!(w.max_abs_diff(&restored) < 0.25); // bounded by outlier bins
//! ```

pub mod curve;
pub mod dict;
pub mod encode;
pub mod golden;
pub mod kernels;
pub mod lut;
pub mod metrics;
pub mod profile;
pub mod quantizer;

pub use curve::{ExpCurve, PAPER_A, PAPER_B};
pub use dict::{DictError, DictScratch, OutlierPolicy, TensorDict, TensorDictConfig};
pub use encode::{Code, QuantizedTensor};
pub use golden::{GoldenConfig, GoldenDictionary};
pub use lut::{ColMajorCodes, DecodeLut, PairLut, SKIP_CODE};
pub use profile::{ActivationProfiler, ProfileConfig};
