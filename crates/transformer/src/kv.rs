//! The quantized KV-cache backing autoregressive decode.
//!
//! Mokey quantizes *activations* on the fly with per-tensor
//! dictionaries; K and V projections are just activations, so the cache
//! stores each position's K/V rows as the 5-bit **codes** the encoding
//! hook produced (`L{li}.attn.k` / `L{li}.attn.v` dictionaries), not as
//! floats — 5 bits per value instead of 32. At attention time a row is
//! rematerialized through the tensor's
//! [`DecodeLut`] (one table gather per
//! value), which reproduces the hook's float output bit-exactly; the
//! incremental step therefore computes the same attention a full
//! recompute of the prefix would.

use crate::exec::CapturedCodes;
use mokey_core::encode::Code;
use mokey_core::lut::DecodeLut;
use mokey_tensor::Matrix;

/// Which of a layer's two cached tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kv {
    K = 0,
    V = 1,
}

/// Per-layer quantized K/V storage for one generation, growing one row
/// per decoded token (plus the whole prompt at prefill).
#[derive(Debug, Clone)]
pub struct KvCache {
    /// Each layer's K and V code rows, indexed by [`Kv`].
    layers: Vec<[Vec<u8>; 2]>,
    hidden: usize,
}

impl KvCache {
    /// An empty cache for `layers` encoder layers of width `hidden`.
    pub fn new(layers: usize, hidden: usize) -> Self {
        Self::with_capacity(layers, hidden, 0)
    }

    /// An empty cache with room for `positions` rows per layer, so a
    /// generation whose length is known up front never reallocates it.
    pub fn with_capacity(layers: usize, hidden: usize, positions: usize) -> Self {
        let tensor = || Vec::with_capacity(positions * hidden);
        Self { layers: (0..layers).map(|_| [tensor(), tensor()]).collect(), hidden }
    }

    /// Number of layers the cache covers.
    pub fn layers(&self) -> usize {
        self.layers.len()
    }

    /// Cached positions (rows) in one layer. All layers agree between
    /// steps; mid-step, K rows of the layers already visited are one row
    /// ahead.
    pub fn positions(&self, li: usize) -> usize {
        self.layers[li][Kv::K as usize].len() / self.hidden
    }

    /// Cache size in bytes (one byte per stored 5-bit code).
    pub fn bytes(&self) -> usize {
        self.layers.iter().flatten().map(Vec::len).sum()
    }

    /// Appends captured K and V code rows (one row per position — a
    /// whole prompt at prefill, a single row per decode step).
    ///
    /// # Panics
    ///
    /// Panics if the captures disagree with the cache width or with each
    /// other.
    pub fn append(&mut self, li: usize, k: &CapturedCodes, v: &CapturedCodes) {
        assert_eq!(k.cols, self.hidden, "K capture width mismatch");
        assert_eq!(v.cols, self.hidden, "V capture width mismatch");
        assert_eq!(k.rows, v.rows, "K/V row count mismatch");
        self.append_codes(li, Kv::K, &k.bits);
        self.append_codes(li, Kv::V, &v.bits);
    }

    /// Appends raw row-major code rows (`hidden` codes per position) of
    /// one tensor — one session's row of a fused decode step's capture.
    pub(crate) fn append_codes(&mut self, li: usize, which: Kv, codes: &[u8]) {
        assert_eq!(codes.len() % self.hidden, 0, "code rows mismatch");
        self.layers[li][which as usize].extend_from_slice(codes);
    }

    /// Rematerializes one layer's K rows (`positions × hidden`) through
    /// the tensor's decode table — bit-identical to the floats the
    /// encoding hook emitted when each row was cached.
    pub fn decode_k(&self, li: usize, lut: &DecodeLut) -> Matrix {
        self.decode(li, Kv::K, lut)
    }

    /// Rematerializes one layer's V rows (`positions × hidden`).
    pub fn decode_v(&self, li: usize, lut: &DecodeLut) -> Matrix {
        self.decode(li, Kv::V, lut)
    }

    fn decode(&self, li: usize, which: Kv, lut: &DecodeLut) -> Matrix {
        let bits = &self.layers[li][which as usize];
        let mut m = Matrix::zeros(bits.len() / self.hidden, self.hidden);
        self.decode_into(li, which, lut, m.as_mut_slice());
        m
    }

    /// Rematerializes one tensor's rows of one layer into the leading
    /// values of `out` (row-major) — a session's block of a fused decode
    /// step's K or V matrix, written in place.
    pub(crate) fn decode_into(&self, li: usize, which: Kv, lut: &DecodeLut, out: &mut [f32]) {
        let bits = &self.layers[li][which as usize];
        assert!(out.len() >= bits.len(), "decode destination too small");
        for (slot, &b) in out.iter_mut().zip(bits) {
            *slot = lut.value(Code::from_bits(b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mokey_core::curve::ExpCurve;
    use mokey_core::dict::TensorDict;
    use mokey_tensor::init::GaussianMixture;

    #[test]
    fn append_then_decode_reproduces_hook_floats() {
        let sample = GaussianMixture::activation_like(0.0, 1.0).sample_matrix(4, 8, 1);
        let dict =
            TensorDict::for_values(sample.as_slice(), &ExpCurve::paper(), &Default::default())
                .unwrap();
        let lut = DecodeLut::new(&dict);
        // Encode two rows the way the hook does, keeping bits + floats.
        let raw = GaussianMixture::activation_like(0.0, 1.0).sample_matrix(2, 8, 2);
        let mut bits = Vec::new();
        let mut floats = Vec::new();
        for &v in raw.as_slice() {
            let code = dict.encode_value(v);
            bits.push(code.to_bits());
            floats.push(lut.value(code));
        }
        let mut cache = KvCache::new(1, 8);
        let cap = CapturedCodes { bits: bits.clone(), rows: 2, cols: 8 };
        cache.append(0, &cap, &cap);
        assert_eq!(cache.positions(0), 2);
        assert_eq!(cache.bytes(), 2 * 2 * 8);
        assert_eq!(cache.decode_k(0, &lut).as_slice(), floats.as_slice());
        assert_eq!(cache.decode_v(0, &lut).as_slice(), floats.as_slice());
        // A second single-row append lands after the first two rows.
        let one = CapturedCodes { bits: bits[..8].to_vec(), rows: 1, cols: 8 };
        cache.append(0, &one, &one);
        assert_eq!(cache.positions(0), 3);
        assert_eq!(cache.decode_k(0, &lut).row(2), &floats[..8]);
    }
}
