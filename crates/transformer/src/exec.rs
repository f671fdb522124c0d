//! Execution hooks: one forward-pass implementation, three behaviours.
//!
//! Every forward — a solo [`Model::forward`](crate::Model::forward)
//! (a pack of one), a packed batch, and a decode step — runs the one
//! encoder-layer step in [`crate::model`], which routes every activation
//! tensor, weight lookup, and GEMM output through an [`Executor`]'s
//! layout-aware hooks:
//!
//! * [`FpExecutor`] — identity hooks: the FP32 reference path.
//! * [`ProfilingExecutor`] — observes activations and GEMM output ranges
//!   into an [`ActivationProfiler`] (the paper's one-batch profiling run).
//! * [`QuantizedExecutor`] — Mokey inference: activations are quantized to
//!   codes and decoded to centroids at every GEMM input, weights are
//!   replaced by their decoded centroid matrices, and GEMM outputs snap to
//!   the per-tensor 16-bit fixed-point grid (paper Eq. 7/8). Numerically,
//!   this is exactly the index-domain datapath — the equivalence is
//!   property-tested in `mokey-core::kernels`. Its encode and snap loops
//!   each exist once, in the layout-aware hooks; the whole-matrix hooks
//!   call them with [`PackedLayout::whole`].

use crate::model::{Model, TaskOutput};
use crate::packed::{PackedBatch, PackedLayout};
use mokey_core::dict::TensorDict;
use mokey_core::encode::QuantizedTensor;
use mokey_core::lut::{matmul_lut_bias, PairLut, QUAD_ROWS, SKIP_CODE};
use mokey_core::profile::ActivationProfiler;
use mokey_core::quantizer::OutputQuantizer;
use mokey_fixed::{snap_to_grid, QFormat};
use mokey_tensor::Matrix;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Hooks invoked by the shared encoder-layer step.
///
/// All methods default to the identity, so the FP path costs nothing.
/// The model calls only the `*_packed` hooks, which receive a
/// [`PackedLayout`] mapping matrix regions to requests (a solo forward
/// and a decode step are packs of one). They default to the whole-matrix
/// hooks, which is correct for any executor that neither skips padding
/// nor attributes work per request (identity and profiling executors);
/// an executor that does both implements the `*_packed` hooks.
pub trait Executor {
    /// Observes/transforms a named activation tensor before it feeds a
    /// GEMM.
    fn activation(&mut self, _name: &str, m: Matrix) -> Matrix {
        m
    }

    /// Returns a replacement for a named weight tensor, if this executor
    /// substitutes weights (quantized execution).
    fn weight_override(&self, _name: &str) -> Option<&Matrix> {
        None
    }

    /// Observes/transforms a named GEMM output (bias already added).
    fn gemm_output(&mut self, _name: &str, m: Matrix) -> Matrix {
        m
    }

    /// Packed-batch variant of [`Executor::activation`].
    fn activation_packed(&mut self, name: &str, m: Matrix, _layout: &PackedLayout) -> Matrix {
        self.activation(name, m)
    }

    /// Packed-batch variant of [`Executor::gemm_output`].
    fn gemm_output_packed(&mut self, name: &str, m: Matrix, _layout: &PackedLayout) -> Matrix {
        self.gemm_output(name, m)
    }

    /// Optionally computes a fused GEMM + bias itself, replacing the
    /// float `x·W + b` entirely (the index-domain LUT path). Returning
    /// `None` keeps the default float GEMM; either way the result is
    /// still routed through [`Executor::gemm_output`].
    fn linear(
        &mut self,
        _weight_name: &str,
        _x: &Matrix,
        _w: &Matrix,
        _b: &[f32],
    ) -> Option<Matrix> {
        None
    }

    /// Packed-batch variant of [`Executor::linear`].
    fn linear_packed(
        &mut self,
        weight_name: &str,
        x: &Matrix,
        w: &Matrix,
        b: &[f32],
        _layout: &PackedLayout,
    ) -> Option<Matrix> {
        self.linear(weight_name, x, w, b)
    }
}

/// How a [`QuantizedExecutor`] evaluates the projection/FFN GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Decode codes to centroid floats and run the dense float GEMM
    /// (the reference path).
    #[default]
    Decoded,
    /// Keep activations as codes and run every projection/FFN GEMM
    /// through the one index-domain kernel ([`matmul_lut_bias`]), which
    /// gathers precomputed centroid products from per-dictionary-pair
    /// tables ([`mokey_core::lut::PairLut`]) — bit-identical to
    /// [`ExecMode::Decoded`] by construction, falling back to it for any
    /// GEMM without retained weight codes.
    IndexDomain,
}

/// The FP32 reference path: every hook is the identity.
#[derive(Debug, Clone, Copy, Default)]
pub struct FpExecutor;

impl Executor for FpExecutor {}

/// Records every activation and GEMM-output distribution into an
/// [`ActivationProfiler`] — the paper's profiling run over a single batch.
///
/// GEMM outputs are recorded under `"<weight name>.out"`; their ranges
/// later define the Eq. 7 output fixed-point formats.
#[derive(Debug)]
pub struct ProfilingExecutor<'a> {
    profiler: &'a mut ActivationProfiler,
}

impl<'a> ProfilingExecutor<'a> {
    /// Wraps a profiler for one or more forward passes.
    pub fn new(profiler: &'a mut ActivationProfiler) -> Self {
        Self { profiler }
    }
}

impl Executor for ProfilingExecutor<'_> {
    fn activation(&mut self, name: &str, m: Matrix) -> Matrix {
        self.profiler.observe(name, &m);
        m
    }

    fn gemm_output(&mut self, name: &str, m: Matrix) -> Matrix {
        self.profiler.observe(&format!("{name}.out"), &m);
        m
    }
}

/// Everything the index-domain path retains for one projection/FFN GEMM:
/// the weight's codes, the product table for its (activation, weight)
/// dictionary pair, and which activation tensor feeds it.
#[derive(Debug, Clone)]
pub struct LutLinear {
    /// Name of the activation tensor this weight multiplies.
    pub act_name: String,
    /// The weight's codes (row-major, `k × n` like the decoded matrix).
    pub codes: QuantizedTensor,
    /// Dense product table over the (activation-dict, weight-dict) pair.
    pub lut: Arc<PairLut>,
}

/// Everything the quantized path needs, shared read-only across worker
/// threads. Build with [`QuantizedContext::new`]; optionally attach
/// index-domain LUT state with [`QuantizedContext::set_index_domain`].
#[derive(Debug, Clone)]
pub struct QuantizedContext {
    /// Decoded centroid weight matrices (present when weights are
    /// quantized).
    pub weights: BTreeMap<String, Matrix>,
    /// Per-GEMM-output 16-bit fixed-point formats (Eq. 7 from profiled
    /// ranges).
    pub out_formats: BTreeMap<String, QFormat>,
    /// Per-activation-tensor comparator tables (present when activations
    /// are quantized), each owning its dictionary and decode table: the
    /// one encoder every activation and K/V encode runs through.
    act_tables: BTreeMap<String, OutputQuantizer>,
    /// Index-domain state, keyed by weight name (empty until
    /// [`QuantizedContext::set_index_domain`]).
    pub(crate) luts: BTreeMap<String, LutLinear>,
    /// Activation tensors whose codes the index-domain executor must
    /// retain (the `act_name`s of `luts`).
    pub(crate) encoded_acts: BTreeSet<String>,
}

/// Names of the activation tensors that can feed a weight's GEMM, in
/// lookup order (only `head.proj` has two candidates — the head variant
/// decides which one exists).
pub(crate) fn feeding_activations(weight_name: &str) -> Vec<String> {
    if let Some(pre) = weight_name
        .strip_suffix(".attn.wq")
        .or_else(|| weight_name.strip_suffix(".attn.wk"))
        .or_else(|| weight_name.strip_suffix(".attn.wv"))
    {
        vec![format!("{pre}.attn.input")]
    } else if let Some(pre) = weight_name.strip_suffix(".attn.wo") {
        vec![format!("{pre}.attn.context")]
    } else if let Some(pre) = weight_name.strip_suffix(".ffn.w1") {
        vec![format!("{pre}.ffn.input")]
    } else if let Some(pre) = weight_name.strip_suffix(".ffn.w2") {
        vec![format!("{pre}.ffn.mid")]
    } else if weight_name == "head.pooler" {
        vec!["head.cls".to_string()]
    } else if weight_name == "head.proj" {
        vec!["head.pooled".to_string(), "head.span_input".to_string()]
    } else {
        Vec::new()
    }
}

/// Largest fraction of a pack's rows that may be padding before a shorter
/// request is excluded from it. Zero pad waste is always achieved for
/// same-length groups; the budget lets near-length requests (as the
/// serving batcher's length buckets produce) share one pack instead of
/// fragmenting into singletons.
const PACK_WASTE_LIMIT: f64 = 0.25;

/// How a batch was executed: packed tensor-level groups vs requests run
/// alone, plus the padding the packs carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackStats {
    /// Packed groups executed (each is one tall GEMM per projection).
    pub packed_batches: usize,
    /// Requests served inside packed groups.
    pub packed_requests: usize,
    /// Requests that ran alone, as a pack of one (singletons and
    /// degenerate sequences).
    pub solo_requests: usize,
    /// Padding rows carried by the packs.
    pub pad_rows: usize,
    /// Total rows (valid + padding) of all packs.
    pub packed_rows: usize,
}

impl PackStats {
    /// Merges counters from another batch.
    pub fn merge(&mut self, other: &PackStats) {
        self.packed_batches += other.packed_batches;
        self.packed_requests += other.packed_requests;
        self.solo_requests += other.solo_requests;
        self.pad_rows += other.pad_rows;
        self.packed_rows += other.packed_rows;
    }

    /// Fraction of packed rows that were padding (0 when nothing packed).
    pub fn pad_waste_fraction(&self) -> f64 {
        if self.packed_rows == 0 {
            0.0
        } else {
            self.pad_rows as f64 / self.packed_rows as f64
        }
    }
}

/// The result of one batched execution: per-request outputs and counters,
/// merged batch counters, and how the batch was packed.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Per-request `(output, stats)` pairs, in submission order.
    pub results: Vec<(TaskOutput, QuantizedStats)>,
    /// Merged activation-encoding counters for the whole batch.
    pub total: QuantizedStats,
    /// Packed-execution accounting.
    pub packing: PackStats,
}

impl QuantizedContext {
    /// Builds a context from the session products, building each
    /// activation dictionary's comparator table once.
    pub fn new(
        weights: BTreeMap<String, Matrix>,
        act_dicts: BTreeMap<String, TensorDict>,
        out_formats: BTreeMap<String, QFormat>,
    ) -> Self {
        let act_tables =
            act_dicts.into_iter().map(|(name, dict)| (name, OutputQuantizer::new(dict))).collect();
        Self {
            weights,
            out_formats,
            act_tables,
            luts: BTreeMap::new(),
            encoded_acts: BTreeSet::new(),
        }
    }

    /// The activation dictionaries, by tensor name (empty when
    /// activations are not quantized).
    pub fn act_dicts(&self) -> impl Iterator<Item = (&str, &TensorDict)> {
        self.act_tables.iter().map(|(name, table)| (name.as_str(), table.dict()))
    }

    /// The dictionary of a named activation tensor, if it is quantized.
    pub fn act_dict(&self, name: &str) -> Option<&TensorDict> {
        self.act_table(name).map(OutputQuantizer::dict)
    }

    /// The comparator table of a named activation tensor, if it is
    /// quantized.
    pub(crate) fn act_table(&self, name: &str) -> Option<&OutputQuantizer> {
        self.act_tables.get(name)
    }

    /// Attaches index-domain state: per-weight codes and pair-LUTs.
    /// [`ExecMode::IndexDomain`] execution serves every listed weight's
    /// GEMM from its table and falls back to the decoded float GEMM for
    /// the rest.
    pub fn set_index_domain(&mut self, luts: BTreeMap<String, LutLinear>) {
        self.encoded_acts = luts.values().map(|l| l.act_name.clone()).collect();
        self.luts = luts;
    }

    /// Whether any GEMM has index-domain state attached.
    pub fn has_index_domain(&self) -> bool {
        !self.luts.is_empty()
    }

    /// Index-domain state of a named weight, if retained.
    pub fn lut_linear(&self, weight_name: &str) -> Option<&LutLinear> {
        self.luts.get(weight_name)
    }

    /// Runs a coalesced batch of requests — the serving engine's batched
    /// path. Requests are grouped by sequence length (shorter requests
    /// may join a longer group while padding stays within
    /// `PACK_WASTE_LIMIT` (25% per request); each group runs through the
    /// packed tensor-level forward pass ([`Model::forward_packed`]), so
    /// every projection/FFN GEMM executes once per group instead of once
    /// per sequence. A singleton is a pack of one.
    ///
    /// Outputs **and per-request counters** are bit-identical to running
    /// each request alone, regardless of grouping — the layout-aware
    /// executor hooks encode exactly the elements a solo run would.
    pub fn infer_batch(&self, model: &Model, batch: &[Vec<usize>]) -> BatchRun {
        self.infer_batch_mode(model, batch, ExecMode::Decoded)
    }

    /// [`QuantizedContext::infer_batch`] with an explicit execution mode.
    /// [`ExecMode::IndexDomain`] results are bit-identical to
    /// [`ExecMode::Decoded`] (outputs and counters) — the LUT kernel
    /// reproduces the float GEMM's reduction exactly.
    pub fn infer_batch_mode(
        &self,
        model: &Model,
        batch: &[Vec<usize>],
        mode: ExecMode,
    ) -> BatchRun {
        let mut order: Vec<usize> = (0..batch.len()).collect();
        // Longest first; stable, so equal lengths keep submission order.
        order.sort_by_key(|&i| std::cmp::Reverse(batch[i].len()));
        let mut results: Vec<Option<(TaskOutput, QuantizedStats)>> =
            batch.iter().map(|_| None).collect();
        let mut total = QuantizedStats::default();
        let mut packing = PackStats::default();
        let mut start = 0;
        while start < order.len() {
            let max_len = batch[order[start]].len();
            let mut end = start + 1;
            while end < order.len() {
                let pad = max_len - batch[order[end]].len();
                if batch[order[end]].is_empty() || pad as f64 > PACK_WASTE_LIMIT * max_len as f64 {
                    break;
                }
                end += 1;
            }
            let group = &order[start..end];
            let refs: Vec<&[usize]> = group.iter().map(|&i| batch[i].as_slice()).collect();
            // The accounted plan IS the executed plan: one `PackedBatch`
            // drives both the metrics and the forward pass. A group of
            // one is a pack of one, accounted as a solo request.
            let pack = PackedBatch::new(&refs);
            if group.len() >= 2 {
                packing.packed_batches += 1;
                packing.packed_requests += pack.requests();
                packing.packed_rows += pack.total_rows();
                packing.pad_rows += pack.pad_rows();
            } else {
                packing.solo_requests += 1;
            }
            let (outs, exec_stats) = self.infer_packed_planned(model, &pack, &refs, mode);
            // The executor's own counters count each shared GEMM once;
            // the per-request entries count it once per request (their
            // activation counters sum to the same values).
            total.merge(&exec_stats);
            for (&i, pair) in group.iter().zip(outs) {
                results[i] = Some(pair);
            }
            start = end;
        }
        BatchRun {
            results: results.into_iter().map(|r| r.expect("every request executed")).collect(),
            total,
            packing,
        }
    }

    /// Runs one packed group through a fresh executor, returning each
    /// request's output with its own activation-encoding counters.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, or if a batch of two or more
    /// contains an empty sequence.
    pub fn infer_packed(
        &self,
        model: &Model,
        batch: &[&[usize]],
    ) -> Vec<(TaskOutput, QuantizedStats)> {
        self.infer_packed_planned(model, &PackedBatch::new(batch), batch, ExecMode::Decoded).0
    }

    /// [`QuantizedContext::infer_packed`] with an already-built pack plan
    /// (so `infer_batch` executes exactly the plan it accounted). Also
    /// returns the executor's merged counters, which — unlike the
    /// per-request entries — count each shared GEMM once.
    fn infer_packed_planned(
        &self,
        model: &Model,
        pack: &PackedBatch,
        batch: &[&[usize]],
        mode: ExecMode,
    ) -> (Vec<(TaskOutput, QuantizedStats)>, QuantizedStats) {
        let mut exec = QuantizedExecutor::with_mode(self, mode);
        let hidden = model.forward_packed(&mut exec, pack, batch);
        let outputs = model.apply_head_packed(&mut exec, &hidden, pack);
        let exec_stats = exec.stats();
        let mut per_request = exec.take_per_request();
        per_request.resize(batch.len(), QuantizedStats::default());
        (outputs.into_iter().zip(per_request).collect(), exec_stats)
    }
}

/// Counters describing one quantized forward pass.
///
/// Equality compares only the activation-encoding counters (`act_values`,
/// `act_outliers`): those describe *what* was computed and are pinned
/// bit-identical across execution modes, batching, and kernel paths.
/// The kernel-attribution counters record *how* index-domain GEMMs were
/// served — they legitimately differ between [`ExecMode`]s and shapes, so
/// they stay out of the equality the mode/batching equivalence tests
/// assert.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantizedStats {
    /// Activation values encoded.
    pub act_values: usize,
    /// Of those, how many hit the outlier dictionary (Table I's "A OT %").
    pub act_outliers: usize,
    /// Index-domain GEMMs under [`QUAD_ROWS`] rows (lone decode steps,
    /// heads): [`matmul_lut_bias`] serves them on its row path alone, one
    /// pair-LUT gather per MAC. A request's own counters count every
    /// GEMM its rows went through, shared or not.
    pub pair_lut_gemms: usize,
    /// Index-domain GEMMs of at least [`QUAD_ROWS`] rows, which
    /// [`matmul_lut_bias`] serves on its counter-array quad path.
    pub counter_array_gemms: usize,
}

impl PartialEq for QuantizedStats {
    fn eq(&self, other: &Self) -> bool {
        self.act_values == other.act_values && self.act_outliers == other.act_outliers
    }
}

impl Eq for QuantizedStats {}

impl QuantizedStats {
    /// Merges counters from another pass.
    pub fn merge(&mut self, other: &QuantizedStats) {
        self.act_values += other.act_values;
        self.act_outliers += other.act_outliers;
        self.pair_lut_gemms += other.pair_lut_gemms;
        self.counter_array_gemms += other.counter_array_gemms;
    }

    /// Counters accumulated since an earlier snapshot (`earlier` must be
    /// a prefix of this accumulation, as in the batched execution loop).
    pub fn diff(&self, earlier: &QuantizedStats) -> QuantizedStats {
        QuantizedStats {
            act_values: self.act_values - earlier.act_values,
            act_outliers: self.act_outliers - earlier.act_outliers,
            pair_lut_gemms: self.pair_lut_gemms - earlier.pair_lut_gemms,
            counter_array_gemms: self.counter_array_gemms - earlier.counter_array_gemms,
        }
    }

    /// Outlier fraction (0 when nothing was encoded).
    pub fn outlier_fraction(&self) -> f64 {
        if self.act_values == 0 {
            0.0
        } else {
            self.act_outliers as f64 / self.act_values as f64
        }
    }
}

/// The code form of one encoded activation tensor, retained by the
/// index-domain executor so the following GEMM can run on codes. Packed
/// padding rows (never encoded) are filled with
/// [`SKIP_CODE`](mokey_core::lut::SKIP_CODE).
#[derive(Debug, Clone)]
struct ActCodes {
    bits: Vec<u8>,
    rows: usize,
    cols: usize,
}

/// The codes of one activation tensor harvested through
/// [`QuantizedExecutor::capture`] — exactly the codes the encoding hook
/// produced, so decoding them through the tensor's
/// [`DecodeLut`](mokey_core::lut::DecodeLut) reproduces the hook's float
/// output bit-exactly. This is how the decode KV-cache stores K/V rows.
#[derive(Debug, Clone)]
pub struct CapturedCodes {
    /// Row-major 5-bit code patterns (`rows × cols`).
    pub bits: Vec<u8>,
    /// Rows of the captured tensor.
    pub rows: usize,
    /// Columns of the captured tensor.
    pub cols: usize,
}

/// Mokey quantized inference.
#[derive(Debug)]
pub struct QuantizedExecutor<'a> {
    ctx: &'a QuantizedContext,
    stats: QuantizedStats,
    /// Per-request counters, filled by the packed hooks (empty until a
    /// packed forward pass runs).
    per_request: Vec<QuantizedStats>,
    mode: ExecMode,
    /// Retained activation codes, by activation name (index mode only;
    /// only names in the context's `encoded_acts` are kept).
    act_codes: BTreeMap<String, ActCodes>,
    /// Activation names whose codes the caller asked to harvest
    /// (mode-independent, unlike `act_codes`).
    capture_names: BTreeSet<String>,
    /// Harvested codes, drained via [`QuantizedExecutor::take_captured`].
    captured: BTreeMap<String, CapturedCodes>,
}

impl<'a> QuantizedExecutor<'a> {
    /// Creates an executor over a shared context (decoded mode).
    pub fn new(ctx: &'a QuantizedContext) -> Self {
        Self::with_mode(ctx, ExecMode::Decoded)
    }

    /// Creates an executor with an explicit execution mode.
    pub fn with_mode(ctx: &'a QuantizedContext, mode: ExecMode) -> Self {
        Self {
            ctx,
            stats: QuantizedStats::default(),
            per_request: Vec::new(),
            mode,
            act_codes: BTreeMap::new(),
            capture_names: BTreeSet::new(),
            captured: BTreeMap::new(),
        }
    }

    /// Asks the encoding hook to harvest the codes of the named
    /// activation tensors (in either [`ExecMode`]). Each forward pass
    /// overwrites a name's previous capture; drain with
    /// [`QuantizedExecutor::take_captured`]. Names without an activation
    /// dictionary are never captured (the hook doesn't encode them).
    pub fn capture(&mut self, names: impl IntoIterator<Item = String>) {
        self.capture_names.extend(names);
    }

    /// Drains the harvested codes of one captured activation tensor
    /// (`None` if the name was not captured since the last drain).
    pub fn take_captured(&mut self, name: &str) -> Option<CapturedCodes> {
        self.captured.remove(name)
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> QuantizedStats {
        self.stats
    }

    /// Whether this activation's codes must be retained for a following
    /// index-domain GEMM.
    fn retains(&self, name: &str) -> bool {
        self.mode == ExecMode::IndexDomain && self.ctx.encoded_acts.contains(name)
    }

    /// Drains the per-request counters a packed forward pass accumulated
    /// (one entry per request that encoded at least one value).
    pub fn take_per_request(&mut self) -> Vec<QuantizedStats> {
        std::mem::take(&mut self.per_request)
    }

    fn request_stats(&mut self, count: usize) -> &mut [QuantizedStats] {
        if self.per_request.len() < count {
            self.per_request.resize(count, QuantizedStats::default());
        }
        &mut self.per_request
    }
}

impl Executor for QuantizedExecutor<'_> {
    fn activation(&mut self, name: &str, m: Matrix) -> Matrix {
        let layout = PackedLayout::whole(m.rows());
        self.activation_packed(name, m, &layout)
    }

    fn weight_override(&self, name: &str) -> Option<&Matrix> {
        self.ctx.weights.get(name)
    }

    fn gemm_output(&mut self, name: &str, m: Matrix) -> Matrix {
        let layout = PackedLayout::whole(m.rows());
        self.gemm_output_packed(name, m, &layout)
    }

    fn linear(&mut self, weight_name: &str, x: &Matrix, w: &Matrix, b: &[f32]) -> Option<Matrix> {
        self.linear_packed(weight_name, x, w, b, &PackedLayout::whole(x.rows()))
    }

    /// Activation encoding: each value of every request's valid region is
    /// encoded through the tensor's comparator table and replaced by its
    /// decoded centroid, and the counters are attributed to the owning
    /// request. A full-width row band is one slice; a column-trimmed
    /// region encodes row by row. Padding rows pass through raw, and the
    /// masked zero probabilities beyond a request's true length stay
    /// exactly `0.0` so the zero-skipping GEMM kernels drop them.
    /// Retained and captured codes come out of the same pass and mark
    /// never-encoded elements with [`SKIP_CODE`], which tells the LUT
    /// kernel to emit their bias rows without decoding anything.
    fn activation_packed(&mut self, name: &str, m: Matrix, layout: &PackedLayout) -> Matrix {
        let Some(table) = self.ctx.act_table(name) else {
            return m;
        };
        let retain = self.retains(name);
        let capture = self.capture_names.contains(name);
        let keep = retain || capture;
        let (rows, width) = (m.rows(), m.cols());
        let mut bits = if keep { vec![SKIP_CODE; rows * width] } else { Vec::new() };
        let mut out = m;
        let values = out.as_mut_slice();
        let mut deltas = vec![QuantizedStats::default(); layout.regions.len()];
        for (region, delta) in layout.regions.iter().zip(&mut deltas) {
            let cols = region.cols.unwrap_or(width);
            for &(start, count) in &region.row_blocks {
                // One slice per full-width band, else one per row's prefix.
                let (slices, len) = if cols == width { (1, count * width) } else { (count, cols) };
                for r in start..start + slices {
                    let span = r * width..r * width + len;
                    let codes = keep.then(|| &mut bits[span.clone()]);
                    delta.act_outliers += table.quantize_slice(&mut values[span], codes);
                    delta.act_values += len;
                }
            }
        }
        for (slot, delta) in self.request_stats(deltas.len()).iter_mut().zip(&deltas) {
            slot.merge(delta);
        }
        for delta in &deltas {
            self.stats.merge(delta);
        }
        if capture {
            let harvest = if retain { bits.clone() } else { std::mem::take(&mut bits) };
            self.captured
                .insert(name.to_string(), CapturedCodes { bits: harvest, rows, cols: width });
        }
        if retain {
            self.act_codes.insert(name.to_string(), ActCodes { bits, rows, cols: width });
        }
        out
    }

    /// Output snapping: valid regions snap to the Eq. 7 grid; padding
    /// rows are left raw (nothing reads them).
    fn gemm_output_packed(&mut self, name: &str, m: Matrix, layout: &PackedLayout) -> Matrix {
        let Some(fmt) = self.ctx.out_formats.get(name) else {
            return m;
        };
        let frac = fmt.frac_bits();
        let mut out = m;
        layout.map_valid(&mut out, |v| snap_to_grid(f64::from(v), frac) as f32);
        out
    }

    /// Index-domain GEMM: gathers precomputed centroid products for the
    /// retained activation codes instead of multiplying decoded floats.
    /// Bit-identical to the float `x·W + b` on this executor's decoded
    /// operands — [`matmul_lut_bias`] reproduces `matmul_bias`'s exact
    /// reduction (ascending-`k`, one add per element, identical
    /// zero-skip). [`QuantizedStats`] attributes the GEMM to the kernel's
    /// quad or row path by its height, once in the executor's counters
    /// and once for every request of `layout`. Returns `None` (float
    /// fallback) whenever the weight has no retained codes or the
    /// retained activation doesn't match.
    fn linear_packed(
        &mut self,
        weight_name: &str,
        x: &Matrix,
        _w: &Matrix,
        b: &[f32],
        layout: &PackedLayout,
    ) -> Option<Matrix> {
        if self.mode != ExecMode::IndexDomain {
            return None;
        }
        let entry = self.ctx.luts.get(weight_name)?;
        let stored = self.act_codes.get(&entry.act_name)?;
        let (k, n) = entry.codes.shape();
        if stored.rows != x.rows() || stored.cols != x.cols() || k != x.cols() || b.len() != n {
            return None;
        }
        let quad = stored.rows >= QUAD_ROWS;
        let out =
            matmul_lut_bias(&stored.bits, stored.rows, stored.cols, &entry.codes, b, &entry.lut);
        let requests = layout.regions.len();
        self.request_stats(requests);
        for stats in std::iter::once(&mut self.stats).chain(&mut self.per_request[..requests]) {
            if quad {
                stats.counter_array_gemms += 1;
            } else {
                stats.pair_lut_gemms += 1;
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mokey_core::curve::ExpCurve;
    use mokey_core::profile::ProfileConfig;
    use mokey_tensor::init::GaussianMixture;

    #[test]
    fn fp_executor_is_identity() {
        let m = GaussianMixture::pure(0.0, 1.0).sample_matrix(4, 4, 1);
        let mut e = FpExecutor;
        assert_eq!(e.activation("x", m.clone()), m);
        assert_eq!(e.gemm_output("x", m.clone()), m);
        assert!(e.weight_override("x").is_none());
    }

    #[test]
    fn profiling_executor_records_everything() {
        let mut profiler = ActivationProfiler::new(ProfileConfig::default());
        let m = GaussianMixture::pure(0.5, 2.0).sample_matrix(8, 8, 2);
        {
            let mut e = ProfilingExecutor::new(&mut profiler);
            let _ = e.activation("a", m.clone());
            let _ = e.gemm_output("w", m.clone());
        }
        assert_eq!(profiler.profile("a").unwrap().seen(), 64);
        assert_eq!(profiler.profile("w.out").unwrap().seen(), 64);
    }

    #[test]
    fn quantized_executor_decodes_to_centroids_and_counts() {
        let m = GaussianMixture::activation_like(0.0, 1.0).sample_matrix(16, 16, 3);
        let dict =
            TensorDict::for_values(m.as_slice(), &ExpCurve::paper(), &Default::default()).unwrap();
        let mut act_dicts = BTreeMap::new();
        act_dicts.insert("a".to_string(), dict.clone());
        let ctx = QuantizedContext::new(BTreeMap::new(), act_dicts, BTreeMap::new());
        let mut e = QuantizedExecutor::new(&ctx);
        let out = e.activation("a", m.clone());
        assert_eq!(e.stats().act_values, 256);
        // Every output value must be a signed centroid.
        let centroids: Vec<f64> = dict.signed_centroids().iter().map(|(v, _)| *v).collect();
        for &v in out.as_slice() {
            let d =
                centroids.iter().map(|&c| (c - f64::from(v)).abs()).fold(f64::INFINITY, f64::min);
            assert!(d < 1e-5, "{v} is not a centroid");
        }
        // Unknown tensors pass through untouched.
        let untouched = e.activation("unknown", m.clone());
        assert_eq!(untouched, m);
    }

    #[test]
    fn batched_execution_is_bit_identical_to_per_request() {
        use crate::config::ModelConfig;
        use crate::model::Head;
        use crate::quantize::QuantizedModel;
        use crate::QuantizeSpec;

        let config = ModelConfig {
            name: "exec-batch".into(),
            layers: 1,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 200,
            max_seq: 16,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 3);
        let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, 50 + s)).collect();
        let (qm, _) =
            QuantizedModel::prepare(&model, QuantizeSpec::weights_and_activations(), &profile);
        let batch: Vec<Vec<usize>> = (0..5).map(|s| model.random_tokens(10, 400 + s)).collect();
        let run = qm.context().infer_batch(&model, &batch);
        assert_eq!(run.results.len(), 5);
        // Five same-length requests form one packed group, zero padding.
        assert_eq!(run.packing.packed_batches, 1);
        assert_eq!(run.packing.packed_requests, 5);
        assert_eq!(run.packing.solo_requests, 0);
        assert_eq!(run.packing.pad_rows, 0);
        let mut merged = QuantizedStats::default();
        for (tokens, (out, stats)) in batch.iter().zip(&run.results) {
            // Per-request outputs and counters match a solo run exactly.
            let (solo_out, solo_stats) = qm.infer(tokens);
            assert_eq!(out, &solo_out);
            assert_eq!(stats, &solo_stats);
            merged.merge(stats);
        }
        assert_eq!(run.total, merged);
    }

    #[test]
    fn ragged_batches_pack_with_bounded_padding() {
        use crate::config::ModelConfig;
        use crate::model::Head;
        use crate::quantize::QuantizedModel;
        use crate::QuantizeSpec;

        let config = ModelConfig {
            name: "exec-ragged".into(),
            layers: 1,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 200,
            max_seq: 16,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 3);
        let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, 50 + s)).collect();
        let (qm, _) =
            QuantizedModel::prepare(&model, QuantizeSpec::weights_and_activations(), &profile);
        // Lengths 16/14/13 pack together (waste ≤ 25% of 16 per request);
        // length 4 is too short and runs solo.
        let batch: Vec<Vec<usize>> = [16usize, 14, 13, 4]
            .iter()
            .enumerate()
            .map(|(i, &len)| model.random_tokens(len, 700 + i as u64))
            .collect();
        let run = qm.context().infer_batch(&model, &batch);
        assert_eq!(run.packing.packed_batches, 1);
        assert_eq!(run.packing.packed_requests, 3);
        assert_eq!(run.packing.solo_requests, 1);
        assert_eq!(run.packing.pad_rows, (16 - 14) + (16 - 13));
        assert_eq!(run.packing.packed_rows, 3 * 16);
        // Masked packing must still be bit-identical, counters included.
        for (tokens, (out, stats)) in batch.iter().zip(&run.results) {
            let (solo_out, solo_stats) = qm.infer(tokens);
            assert_eq!(out, &solo_out, "ragged pack diverged for len {}", tokens.len());
            assert_eq!(stats, &solo_stats);
        }
    }

    #[test]
    fn capture_on_a_ragged_pack_matches_each_solo_capture() {
        use crate::config::ModelConfig;
        use crate::model::Head;
        use crate::quantize::QuantizedModel;
        use crate::QuantizeSpec;

        let config = ModelConfig {
            name: "exec-capture".into(),
            layers: 2,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 200,
            max_seq: 16,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 6);
        let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, 40 + s)).collect();
        let (qm, _) =
            QuantizedModel::prepare(&model, QuantizeSpec::weights_and_activations(), &profile);
        let names: Vec<String> =
            (0..2).flat_map(|li| [format!("L{li}.attn.k"), format!("L{li}.attn.v")]).collect();
        let batch: Vec<Vec<usize>> = [12usize, 9, 11]
            .iter()
            .enumerate()
            .map(|(i, &len)| model.random_tokens(len, 600 + i as u64))
            .collect();
        let refs: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
        let pack = PackedBatch::new(&refs);
        for mode in [ExecMode::Decoded, ExecMode::IndexDomain] {
            let mut packed = QuantizedExecutor::with_mode(qm.context(), mode);
            packed.capture(names.clone());
            let _ = model.forward_packed(&mut packed, &pack, &refs);
            let mut solos: Vec<QuantizedExecutor<'_>> = refs
                .iter()
                .map(|tokens| {
                    let mut solo = QuantizedExecutor::with_mode(qm.context(), mode);
                    solo.capture(names.clone());
                    let _ = model.forward(&mut solo, tokens);
                    solo
                })
                .collect();
            for name in &names {
                let got = packed.take_captured(name).expect("packed forward captures");
                assert_eq!((got.rows, got.cols), (pack.total_rows(), config.hidden));
                for (bi, solo) in solos.iter_mut().enumerate() {
                    let want = solo.take_captured(name).expect("solo forward captures");
                    let (base, len, w) = (pack.row_of(bi), pack.len_of(bi), got.cols);
                    assert_eq!(&got.bits[base * w..(base + len) * w], want.bits.as_slice());
                    // Padding rows were never encoded.
                    let pad = &got.bits[(base + len) * w..(base + pack.seq()) * w];
                    assert!(pad.iter().all(|&b| b == SKIP_CODE), "{name} request {bi}");
                }
            }
        }
    }

    #[test]
    fn index_domain_solo_is_bit_identical_and_actually_uses_luts() {
        use crate::config::ModelConfig;
        use crate::model::Head;
        use crate::quantize::QuantizedModel;
        use crate::QuantizeSpec;

        let config = ModelConfig {
            name: "exec-lut".into(),
            layers: 2,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 200,
            max_seq: 16,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 9);
        let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, 60 + s)).collect();
        let (qm, _) =
            QuantizedModel::prepare(&model, QuantizeSpec::weights_and_activations(), &profile);
        // Every projection/FFN weight plus both head weights is retained.
        assert_eq!(qm.context().luts.len(), 2 * 6 + 2);
        let tokens = model.random_tokens(11, 901);
        let mut exec = QuantizedExecutor::with_mode(qm.context(), ExecMode::IndexDomain);
        let hidden = model.forward(&mut exec, &tokens);
        let out = model.apply_head(&mut exec, &hidden);
        // Every retained GEMM ran on codes — nothing fell back: the 11-row
        // layer GEMMs take the kernel's counter-array quad path and the
        // one-row head GEMMs its pair-LUT row path.
        let stats = exec.stats();
        assert_eq!(stats.counter_array_gemms + stats.pair_lut_gemms, 2 * 6 + 2);
        assert_eq!(stats.counter_array_gemms, 2 * 6);
        assert_eq!(stats.pair_lut_gemms, 2);
        let (decoded_out, decoded_stats) = qm.infer(&tokens);
        assert_eq!(out, decoded_out);
        assert_eq!(exec.stats(), decoded_stats);
        // Decoded mode served nothing from LUT kernels.
        assert_eq!(decoded_stats.counter_array_gemms, 0);
        assert_eq!(decoded_stats.pair_lut_gemms, 0);
    }

    #[test]
    fn index_domain_kernel_attribution_by_gemm_height() {
        // A GEMM of at least `QUAD_ROWS` rows counts as a counter-array
        // GEMM, a shorter one as a pair-LUT GEMM; the serving benchmark
        // reports both counts per forward.
        use crate::config::ModelConfig;
        use crate::decode::DecodeSession;
        use crate::model::Head;
        use crate::quantize::QuantizedModel;
        use crate::QuantizeSpec;

        let config = ModelConfig {
            name: "exec-lut-attribution".into(),
            layers: 2,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 200,
            max_seq: 16,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 13);
        let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, 110 + s)).collect();
        let (qm, _) =
            QuantizedModel::prepare(&model, QuantizeSpec::weights_and_activations(), &profile);
        let ctx = qm.context();
        let attribution = |s: QuantizedStats| (s.counter_array_gemms, s.pair_lut_gemms);

        // One packed group of four: every layer GEMM and, at exactly
        // `QUAD_ROWS` pooled rows, both head GEMMs take the quad path.
        let batch: Vec<Vec<usize>> = [12usize, 11, 10, 12]
            .iter()
            .enumerate()
            .map(|(i, &len)| model.random_tokens(len, 120 + i as u64))
            .collect();
        let decoded = ctx.infer_batch_mode(&model, &batch, ExecMode::Decoded);
        let indexed = ctx.infer_batch_mode(&model, &batch, ExecMode::IndexDomain);
        assert_eq!(indexed.packing.packed_batches, 1);
        assert_eq!(decoded.results, indexed.results);
        assert_eq!(attribution(indexed.total), (2 * 6 + 2, 0));
        assert_eq!(attribution(decoded.total), (0, 0));

        // One solo forward + head: 9-row layer GEMMs, one-row head GEMMs.
        let tokens = model.random_tokens(9, 130);
        let mut exec = QuantizedExecutor::with_mode(ctx, ExecMode::IndexDomain);
        let out = model.infer(&mut exec, &tokens);
        assert_eq!((out, exec.stats()), qm.infer(&tokens));
        assert_eq!(attribution(exec.stats()), (2 * 6, 2));

        // One decode step: a one-row pass through every layer GEMM.
        let prompt = model.random_tokens(6, 140);
        let sessions = [ExecMode::Decoded, ExecMode::IndexDomain].map(|mode| {
            let mut session = DecodeSession::prefill(&model, ctx, &prompt, 2, None, mode);
            let prefill = session.stats();
            session.step(&model, ctx);
            let step = session.stats().diff(&prefill);
            (session.into_result(), step)
        });
        let [(d_result, d_step), (i_result, i_step)] = sessions;
        assert_eq!(d_result, i_result);
        assert_eq!(d_step, i_step);
        assert_eq!(attribution(i_step), (0, 2 * 6));
        assert_eq!(attribution(d_step), (0, 0));
    }

    #[test]
    fn index_domain_batch_is_bit_identical_to_decoded_batch() {
        use crate::config::ModelConfig;
        use crate::model::Head;
        use crate::quantize::QuantizedModel;
        use crate::QuantizeSpec;

        let config = ModelConfig {
            name: "exec-lut-batch".into(),
            layers: 1,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 200,
            max_seq: 16,
        };
        // Span head: exercises the `head.span_input` feeding path too.
        let model = Model::synthesize(&config, Head::Span, 5);
        let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, 70 + s)).collect();
        let (qm, _) =
            QuantizedModel::prepare(&model, QuantizeSpec::weights_and_activations(), &profile);
        // Ragged lengths: a packed group with padding rows plus a solo.
        let batch: Vec<Vec<usize>> = [16usize, 14, 13, 4]
            .iter()
            .enumerate()
            .map(|(i, &len)| model.random_tokens(len, 800 + i as u64))
            .collect();
        let decoded = qm.context().infer_batch_mode(&model, &batch, ExecMode::Decoded);
        let indexed = qm.context().infer_batch_mode(&model, &batch, ExecMode::IndexDomain);
        assert_eq!(decoded.packing, indexed.packing);
        assert_eq!(decoded.total, indexed.total);
        for ((d_out, d_stats), (i_out, i_stats)) in decoded.results.iter().zip(&indexed.results) {
            assert_eq!(d_out, i_out);
            assert_eq!(d_stats, i_stats);
        }
    }

    #[test]
    fn index_domain_without_retained_codes_falls_back_to_decoded() {
        use crate::config::ModelConfig;
        use crate::model::Head;
        use crate::quantize::QuantizedModel;
        use crate::QuantizeSpec;

        let config = ModelConfig {
            name: "exec-lut-fallback".into(),
            layers: 1,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 200,
            max_seq: 16,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 4);
        // Weights-only quantization has no activation dictionaries, so
        // nothing is retained; index mode must be a clean no-op.
        let (qm, _) = QuantizedModel::prepare(&model, QuantizeSpec::weights_only(), &[]);
        assert!(!qm.context().has_index_domain());
        let tokens = model.random_tokens(10, 77);
        let mut exec = QuantizedExecutor::with_mode(qm.context(), ExecMode::IndexDomain);
        let hidden = model.forward(&mut exec, &tokens);
        let out = model.apply_head(&mut exec, &hidden);
        assert_eq!(exec.stats().counter_array_gemms + exec.stats().pair_lut_gemms, 0);
        assert_eq!(out, qm.infer(&tokens).0);
    }

    #[test]
    fn gemm_output_snaps_to_grid() {
        let mut out_formats = BTreeMap::new();
        out_formats.insert("w".to_string(), QFormat::new(16, 4));
        let ctx = QuantizedContext::new(BTreeMap::new(), BTreeMap::new(), out_formats);
        let mut e = QuantizedExecutor::new(&ctx);
        let m = Matrix::from_rows(&[&[0.3, 1.26]]);
        let snapped = e.gemm_output("w", m);
        assert_eq!(snapped.as_slice(), &[0.3125, 1.25]);
    }
}
