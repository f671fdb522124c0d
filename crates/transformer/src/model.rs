//! The encoder-stack model: synthetic weights, faithful forward pass.
//!
//! Weight distributions follow the bell-shaped-with-rare-outliers character
//! the paper exploits (Section II: "most of values are densely populated
//! around their mean … and a small fraction of values (covering a wider
//! range) are outliers"), via [`GaussianMixture::weight_like`].

use crate::config::ModelConfig;
use crate::exec::Executor;
use crate::kv::Kv;
use crate::packed::{fused_attention_context, fused_attention_scores, PackedBatch, PackedLayout};
use mokey_tensor::init::GaussianMixture;
use mokey_tensor::{nn, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Task head attached after the encoder stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// CLS pooler + classifier over `classes` labels (MNLI-style).
    Classification {
        /// Number of output classes (3 for MNLI).
        classes: usize,
    },
    /// CLS pooler + scalar regressor (STS-B-style).
    Regression,
    /// Per-token start/end span logits (SQuAD-style).
    Span,
}

/// Output of a task head.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutput {
    /// Class logits (length = `classes`).
    Logits(Vec<f32>),
    /// Scalar regression score.
    Score(f32),
    /// Per-position start and end logits.
    Span(Vec<f32>, Vec<f32>),
}

/// One encoder layer's parameters.
#[derive(Debug, Clone)]
pub struct EncoderLayer {
    /// Query/key/value/output projections, each `hidden × hidden`.
    pub wq: Matrix,
    pub bq: Vec<f32>,
    pub wk: Matrix,
    pub bk: Vec<f32>,
    pub wv: Matrix,
    pub bv: Vec<f32>,
    pub wo: Matrix,
    pub bo: Vec<f32>,
    /// Post-attention layer norm.
    pub ln1_gamma: Vec<f32>,
    pub ln1_beta: Vec<f32>,
    /// Feed-forward: `hidden × ff` then `ff × hidden`.
    pub w1: Matrix,
    pub b1: Vec<f32>,
    pub w2: Matrix,
    pub b2: Vec<f32>,
    /// Post-FFN layer norm.
    pub ln2_gamma: Vec<f32>,
    pub ln2_beta: Vec<f32>,
}

/// Where an encoder layer's attention keys and values come from.
pub(crate) trait KvSource<E: ?Sized> {
    /// Given layer `li`'s freshly encoded K or V rows (laid out like the
    /// pack's queries), returns the packed K or V matrix the layer
    /// attends over ([`PackedBatch::kv_rows`] rows, see [`PackedBatch`]).
    /// A layer asks for its keys, drops them once the scores exist, and
    /// only then asks for its values.
    fn history(&mut self, li: usize, which: Kv, exec: &mut E, fresh: Matrix) -> Matrix;
}

/// An encoder pass attends over the pack's own rows.
struct OwnRows;

impl<E: ?Sized> KvSource<E> for OwnRows {
    fn history(&mut self, _li: usize, _which: Kv, _exec: &mut E, fresh: Matrix) -> Matrix {
        fresh
    }
}

/// A complete synthetic model: embeddings, encoder stack, task head.
///
/// # Example
///
/// ```
/// use mokey_transformer::{Head, Model, ModelConfig};
/// use mokey_transformer::exec::FpExecutor;
///
/// let config = ModelConfig::bert_base().scaled(12, 12); // tiny
/// let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 1);
/// let tokens: Vec<usize> = (0..16).map(|i| i * 7 % config.vocab).collect();
/// let out = model.forward(&mut FpExecutor, &tokens);
/// assert_eq!(out.shape(), (16, config.hidden));
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    config: ModelConfig,
    head: Head,
    /// Token embedding table, `vocab × hidden`.
    pub token_embedding: Matrix,
    /// Position embedding table, `max_seq × hidden`.
    pub position_embedding: Matrix,
    emb_ln_gamma: Vec<f32>,
    emb_ln_beta: Vec<f32>,
    /// Encoder layers.
    pub layers: Vec<EncoderLayer>,
    /// Pooler weight (classification/regression heads).
    pub pooler_w: Matrix,
    pooler_b: Vec<f32>,
    /// Head projection: `hidden × classes`, `hidden × 1`, or `hidden × 2`.
    pub head_w: Matrix,
    head_b: Vec<f32>,
}

fn vec_normal(n: usize, mean: f64, std: f64, rng: &mut StdRng) -> Vec<f32> {
    let d = Normal::new(mean, std).expect("valid normal");
    (0..n).map(|_| d.sample(rng) as f32).collect()
}

impl Model {
    /// Generates a model with seeded synthetic weights.
    ///
    /// Linear weights use the outlier-bearing mixture at Xavier-ish scale;
    /// layer-norm gains sit near 1 and biases near 0, as in trained
    /// checkpoints.
    pub fn synthesize(config: &ModelConfig, head: Head, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = config.hidden;
        let mat = |rows: usize, cols: usize, rng: &mut StdRng| {
            let std = (2.0 / (rows + cols) as f64).sqrt();
            GaussianMixture::weight_like(0.0, std).sample_matrix_with(rows, cols, rng)
        };
        let layers = (0..config.layers)
            .map(|_| EncoderLayer {
                wq: mat(h, h, &mut rng),
                bq: vec_normal(h, 0.0, 0.02, &mut rng),
                wk: mat(h, h, &mut rng),
                bk: vec_normal(h, 0.0, 0.02, &mut rng),
                wv: mat(h, h, &mut rng),
                bv: vec_normal(h, 0.0, 0.02, &mut rng),
                wo: mat(h, h, &mut rng),
                bo: vec_normal(h, 0.0, 0.02, &mut rng),
                ln1_gamma: vec_normal(h, 1.0, 0.1, &mut rng),
                ln1_beta: vec_normal(h, 0.0, 0.05, &mut rng),
                w1: mat(h, config.ff, &mut rng),
                b1: vec_normal(config.ff, 0.0, 0.02, &mut rng),
                w2: mat(config.ff, h, &mut rng),
                b2: vec_normal(h, 0.0, 0.02, &mut rng),
                ln2_gamma: vec_normal(h, 1.0, 0.1, &mut rng),
                ln2_beta: vec_normal(h, 0.0, 0.05, &mut rng),
            })
            .collect();
        let head_cols = match head {
            Head::Classification { classes } => classes,
            Head::Regression => 1,
            Head::Span => 2,
        };
        Self {
            config: config.clone(),
            head,
            token_embedding: GaussianMixture::weight_like(0.0, 0.05).sample_matrix_with(
                config.vocab,
                h,
                &mut rng,
            ),
            position_embedding: GaussianMixture::weight_like(0.0, 0.02).sample_matrix_with(
                config.max_seq,
                h,
                &mut rng,
            ),
            emb_ln_gamma: vec_normal(h, 1.0, 0.1, &mut rng),
            emb_ln_beta: vec_normal(h, 0.0, 0.05, &mut rng),
            layers,
            pooler_w: mat(h, h, &mut rng),
            pooler_b: vec_normal(h, 0.0, 0.02, &mut rng),
            // Wider head weights give the synthetic tasks confident logit
            // margins, as trained classifiers have.
            head_w: GaussianMixture::weight_like(0.0, 0.3)
                .sample_matrix_with(h, head_cols, &mut rng),
            head_b: vec_normal(head_cols, 0.0, 0.02, &mut rng),
        }
    }

    /// The architecture.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The attached task head.
    pub fn head(&self) -> Head {
        self.head
    }

    /// Embeds a packed batch (token + position embeddings, layer norm):
    /// request `i`'s tokens occupy rows `[i·S, i·S + len_i)` of a
    /// `(B·S) × hidden` matrix at positions starting from its attention
    /// history ([`PackedBatch::past_of`]). Padding rows stay zero — layer
    /// norm turns them into harmless constants and nothing ever reads
    /// them back.
    ///
    /// # Panics
    ///
    /// Panics on out-of-vocabulary tokens, positions beyond `max_seq`, or
    /// a batch that does not match `pack`.
    pub fn embed(&self, pack: &PackedBatch, batch: &[&[usize]]) -> Matrix {
        assert_eq!(batch.len(), pack.requests(), "batch does not match pack");
        let mut x = Matrix::zeros(pack.total_rows(), self.config.hidden);
        for (bi, tokens) in batch.iter().enumerate() {
            assert_eq!(tokens.len(), pack.len_of(bi), "batch does not match pack");
            let start = pack.past_of(bi);
            assert!(start + tokens.len() <= self.config.max_seq, "sequence too long");
            for (i, &t) in tokens.iter().enumerate() {
                assert!(t < self.config.vocab, "token {t} out of vocabulary");
                let emb = self.token_embedding.row(t);
                let pos = self.position_embedding.row(start + i);
                for ((o, &e), &p) in x.row_mut(pack.row_of(bi) + i).iter_mut().zip(emb).zip(pos) {
                    *o = e + p;
                }
            }
        }
        nn::layer_norm(&mut x, &self.emb_ln_gamma, &self.emb_ln_beta, 1e-6);
        x
    }

    /// Full forward pass through the encoder stack, with every GEMM input,
    /// GEMM output, and weight routed through the [`Executor`] hooks.
    /// Returns the final hidden states (`seq × hidden`). This is
    /// [`Model::forward_packed`] over a pack of one.
    pub fn forward(&self, exec: &mut dyn Executor, tokens: &[usize]) -> Matrix {
        let batch = [tokens];
        self.forward_packed(exec, &PackedBatch::new(&batch), &batch)
    }

    /// Applies the task head to final hidden states ([`Model::forward`]'s
    /// output) — [`Model::apply_head_packed`] over a pack of one.
    pub fn apply_head(&self, exec: &mut dyn Executor, hidden: &Matrix) -> TaskOutput {
        let pack = PackedBatch::with_history(vec![hidden.rows()], vec![0]);
        self.apply_head_packed(exec, hidden, &pack).pop().expect("one output per request")
    }

    /// Convenience: forward + head in one call.
    pub fn infer(&self, exec: &mut dyn Executor, tokens: &[usize]) -> TaskOutput {
        let hidden = self.forward(exec, tokens);
        self.apply_head(exec, &hidden)
    }

    /// Packed forward pass: one `(B·S) × hidden` activation matrix runs
    /// every projection and FFN GEMM once per **batch**, and attention
    /// runs block-diagonal **fused** — one region-strided kernel
    /// invocation per layer per stage (Q·K^T with the padding mask,
    /// softmax, P·V) instead of per sequence. Padded key positions are
    /// driven to `−∞` before the softmax, so masked probabilities are
    /// exactly `0.0` and padded value rows contribute nothing. Each
    /// request's valid rows are what it computes alone (see the
    /// [`packed`](crate::packed) module docs for why).
    ///
    /// # Panics
    ///
    /// Panics if `pack` carries attention history (a decode step's keys
    /// come from its KV cache, not from the pack).
    pub fn forward_packed(
        &self,
        exec: &mut dyn Executor,
        pack: &PackedBatch,
        batch: &[&[usize]],
    ) -> Matrix {
        assert_eq!(pack.kv_width(), pack.seq(), "an encoder pass has no attention history");
        let x = self.embed(pack, batch);
        self.encoder_stack(exec, pack, x, &mut OwnRows)
    }

    /// The encoder layer stack — the one layer body every forward runs:
    /// encoder packs (a solo forward is a pack of one) and decode steps
    /// (one query row per request over its KV history, supplied by `kv`).
    pub(crate) fn encoder_stack<E: Executor + ?Sized>(
        &self,
        exec: &mut E,
        pack: &PackedBatch,
        mut x: Matrix,
        kv: &mut dyn KvSource<E>,
    ) -> Matrix {
        let heads = self.config.heads;
        let dh = self.config.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();
        let rows = pack.rows_layout();
        let probs_layout = pack.probs_layout(heads);
        for (li, layer) in self.layers.iter().enumerate() {
            let pre = format!("L{li}");
            // --- Attention ---
            let input = exec.activation_packed(&format!("{pre}.attn.input"), x, &rows);
            let q =
                self.linear(exec, &format!("{pre}.attn.wq"), &input, &layer.wq, &layer.bq, &rows);
            let k =
                self.linear(exec, &format!("{pre}.attn.wk"), &input, &layer.wk, &layer.bk, &rows);
            let v =
                self.linear(exec, &format!("{pre}.attn.wv"), &input, &layer.wv, &layer.bv, &rows);
            let q = exec.activation_packed(&format!("{pre}.attn.q"), q, &rows);
            let k = exec.activation_packed(&format!("{pre}.attn.k"), k, &rows);
            let v = exec.activation_packed(&format!("{pre}.attn.v"), v, &rows);

            // Fused block-diagonal attention: one region-strided kernel
            // invocation per stage — Q·K^T with the padding mask, one
            // softmax over the whole (request-major, then head-major)
            // probability matrix, then P·V — bit-identical to the
            // per-sequence formulation (see `packed::fused_attention_scores`).
            // The key history is dropped before the value history is
            // built, so a decode step holds only one of them at a time.
            let keys = kv.history(li, Kv::K, exec, k);
            let mut probs = fused_attention_scores(&q, &keys, pack, heads, dh, scale);
            drop(keys);
            nn::softmax_rows(&mut probs);
            let probs = exec.activation_packed(&format!("{pre}.attn.probs"), probs, &probs_layout);
            let values = kv.history(li, Kv::V, exec, v);
            let context =
                fused_attention_context(&probs, &values, pack, heads, dh, self.config.hidden);
            let context = exec.activation_packed(&format!("{pre}.attn.context"), context, &rows);
            let attn_out =
                self.linear(exec, &format!("{pre}.attn.wo"), &context, &layer.wo, &layer.bo, &rows);
            let mut x1 = attn_out.add(&input);
            nn::layer_norm(&mut x1, &layer.ln1_gamma, &layer.ln1_beta, 1e-6);

            // --- Feed-forward ---
            let ffn_in = exec.activation_packed(&format!("{pre}.ffn.input"), x1, &rows);
            let mut mid =
                self.linear(exec, &format!("{pre}.ffn.w1"), &ffn_in, &layer.w1, &layer.b1, &rows);
            nn::gelu_inplace(&mut mid);
            let mid = exec.activation_packed(&format!("{pre}.ffn.mid"), mid, &rows);
            let ffn_out =
                self.linear(exec, &format!("{pre}.ffn.w2"), &mid, &layer.w2, &layer.b2, &rows);
            let mut x2 = ffn_out.add(&ffn_in);
            nn::layer_norm(&mut x2, &layer.ln2_gamma, &layer.ln2_beta, 1e-6);
            x = x2;
        }
        x
    }

    /// Applies the task head to every request of a packed batch.
    pub fn apply_head_packed(
        &self,
        exec: &mut dyn Executor,
        hidden: &Matrix,
        pack: &PackedBatch,
    ) -> Vec<TaskOutput> {
        let nb = pack.requests();
        match self.head {
            Head::Classification { .. } | Head::Regression => {
                let cls_layout = pack.cls_layout();
                // Gather every request's CLS row into one B × hidden GEMM.
                let mut cls = Matrix::zeros(nb, self.config.hidden);
                for bi in 0..nb {
                    cls.row_mut(bi).copy_from_slice(hidden.row(pack.row_of(bi)));
                }
                let cls = exec.activation_packed("head.cls", cls, &cls_layout);
                let mut pooled = self.linear(
                    exec,
                    "head.pooler",
                    &cls,
                    &self.pooler_w,
                    &self.pooler_b,
                    &cls_layout,
                );
                nn::tanh_inplace(&mut pooled);
                let pooled = exec.activation_packed("head.pooled", pooled, &cls_layout);
                let logits = self.linear(
                    exec,
                    "head.proj",
                    &pooled,
                    &self.head_w,
                    &self.head_b,
                    &cls_layout,
                );
                (0..nb)
                    .map(|bi| match self.head {
                        Head::Classification { .. } => TaskOutput::Logits(logits.row(bi).to_vec()),
                        _ => TaskOutput::Score(logits[(bi, 0)]),
                    })
                    .collect()
            }
            Head::Span => {
                let rows = pack.rows_layout();
                let hs = exec.activation_packed("head.span_input", hidden.clone(), &rows);
                let logits = self.linear(exec, "head.proj", &hs, &self.head_w, &self.head_b, &rows);
                (0..nb)
                    .map(|bi| {
                        let base = pack.row_of(bi);
                        let len = pack.len_of(bi);
                        let start = (0..len).map(|r| logits[(base + r, 0)]).collect();
                        let end = (0..len).map(|r| logits[(base + r, 1)]).collect();
                        TaskOutput::Span(start, end)
                    })
                    .collect()
            }
        }
    }

    /// Packed forward + head: one tall GEMM per projection for the whole
    /// batch, outputs (and, for quantizing executors, per-request
    /// counters) bit-identical to per-request [`Model::infer`].
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, or if a batch of two or more
    /// contains an empty sequence.
    pub fn infer_packed(&self, exec: &mut dyn Executor, batch: &[&[usize]]) -> Vec<TaskOutput> {
        let pack = PackedBatch::new(batch);
        let hidden = self.forward_packed(exec, &pack, batch);
        self.apply_head_packed(exec, &hidden, &pack)
    }

    /// One fused GEMM + bias ([`nn::linear`]), routed through the
    /// executor: the weight may be substituted (quantized), the GEMM
    /// served by the executor itself (index domain), and the output
    /// snapped to a fixed-point grid. `layout` maps the rows of `x` to
    /// requests, so padding rows are skipped and work is attributed per
    /// request.
    fn linear<E: Executor + ?Sized>(
        &self,
        exec: &mut E,
        weight_name: &str,
        x: &Matrix,
        w: &Matrix,
        b: &[f32],
        layout: &PackedLayout,
    ) -> Matrix {
        let out = match exec.linear_packed(weight_name, x, w, b, layout) {
            Some(out) => out,
            None => {
                let w_eff = exec.weight_override(weight_name).unwrap_or(w);
                nn::linear(x, w_eff, b)
            }
        };
        exec.gemm_output_packed(weight_name, out, layout)
    }

    /// Names and references of every quantizable weight tensor (the
    /// paper's "parameters and embeddings").
    pub fn weight_tensors(&self) -> Vec<(String, &Matrix)> {
        let mut out: Vec<(String, &Matrix)> = vec![
            ("embedding.token".into(), &self.token_embedding),
            ("embedding.position".into(), &self.position_embedding),
            ("head.pooler".into(), &self.pooler_w),
            ("head.proj".into(), &self.head_w),
        ];
        for (li, layer) in self.layers.iter().enumerate() {
            let pre = format!("L{li}");
            out.push((format!("{pre}.attn.wq"), &layer.wq));
            out.push((format!("{pre}.attn.wk"), &layer.wk));
            out.push((format!("{pre}.attn.wv"), &layer.wv));
            out.push((format!("{pre}.attn.wo"), &layer.wo));
            out.push((format!("{pre}.ffn.w1"), &layer.w1));
            out.push((format!("{pre}.ffn.w2"), &layer.w2));
        }
        out
    }

    /// Generates a random in-vocabulary token sequence.
    pub fn random_tokens(&self, len: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len.min(self.config.max_seq)).map(|_| rng.gen_range(0..self.config.vocab)).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::exec::FpExecutor;

    /// One hook call: hook kind, tensor name, and matrix shape (for
    /// `linear`, the GEMM's output shape).
    pub(crate) type HookCall = (&'static str, String, usize, usize);

    /// An identity executor that logs every hook the model calls.
    #[derive(Default)]
    pub(crate) struct HookLog(pub(crate) Vec<HookCall>);

    impl Executor for HookLog {
        fn activation(&mut self, name: &str, m: Matrix) -> Matrix {
            self.0.push(("act", name.to_string(), m.rows(), m.cols()));
            m
        }

        fn gemm_output(&mut self, name: &str, m: Matrix) -> Matrix {
            self.0.push(("snap", name.to_string(), m.rows(), m.cols()));
            m
        }

        fn linear(&mut self, name: &str, x: &Matrix, w: &Matrix, _b: &[f32]) -> Option<Matrix> {
            self.0.push(("linear", name.to_string(), x.rows(), w.cols()));
            None
        }
    }

    /// The hooks one encoder layer calls for `n` query rows attending
    /// over `width` key positions. These names are the stage boundaries
    /// the benchmark's traced replay keys its stage accounting on
    /// (`L0.attn.input` ends the embedding, `.attn.probs`/`.attn.context`
    /// end attention, `.attn.input`/`.ffn.input` end a layer norm,
    /// `.ffn.mid` ends GELU), so they must not drift.
    pub(crate) fn layer_hooks(
        config: &ModelConfig,
        li: usize,
        n: usize,
        width: usize,
    ) -> Vec<HookCall> {
        let (h, ff) = (config.hidden, config.ff);
        let act = |name: &str, rows, cols| ("act", format!("L{li}.{name}"), rows, cols);
        let gemm = |name: &str, cols| {
            [
                ("linear", format!("L{li}.{name}"), n, cols),
                ("snap", format!("L{li}.{name}"), n, cols),
            ]
        };
        let mut calls = vec![act("attn.input", n, h)];
        calls.extend(gemm("attn.wq", h));
        calls.extend(gemm("attn.wk", h));
        calls.extend(gemm("attn.wv", h));
        calls.extend([act("attn.q", n, h), act("attn.k", n, h), act("attn.v", n, h)]);
        calls.extend([act("attn.probs", config.heads * n, width), act("attn.context", n, h)]);
        calls.extend(gemm("attn.wo", h));
        calls.push(act("ffn.input", n, h));
        calls.extend(gemm("ffn.w1", ff));
        calls.push(act("ffn.mid", n, ff));
        calls.extend(gemm("ffn.w2", h));
        calls
    }

    #[test]
    fn solo_and_pack_of_one_emit_the_same_hook_sequence() {
        let (config, model) = tiny();
        let tokens = model.random_tokens(9, 12);
        let mut solo = HookLog::default();
        let hidden = model.forward(&mut solo, &tokens);
        let _ = model.apply_head(&mut solo, &hidden);
        let mut packed = HookLog::default();
        let batch = [tokens.as_slice()];
        let pack = PackedBatch::new(&batch);
        let hidden = model.forward_packed(&mut packed, &pack, &batch);
        let _ = model.apply_head_packed(&mut packed, &hidden, &pack);
        assert_eq!(solo.0, packed.0);

        let mut expected: Vec<HookCall> =
            (0..config.layers).flat_map(|li| layer_hooks(&config, li, 9, 9)).collect();
        let h = config.hidden;
        expected.extend([
            ("act", "head.cls".to_string(), 1, h),
            ("linear", "head.pooler".to_string(), 1, h),
            ("snap", "head.pooler".to_string(), 1, h),
            ("act", "head.pooled".to_string(), 1, h),
            ("linear", "head.proj".to_string(), 1, 3),
            ("snap", "head.proj".to_string(), 1, 3),
        ]);
        assert_eq!(solo.0, expected);
    }

    fn tiny() -> (ModelConfig, Model) {
        let config = ModelConfig {
            name: "tiny".into(),
            layers: 2,
            hidden: 64,
            heads: 2,
            ff: 128,
            vocab: 500,
            max_seq: 64,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 7);
        (config, model)
    }

    #[test]
    fn forward_shapes_are_correct() {
        let (config, model) = tiny();
        let tokens = model.random_tokens(20, 1);
        let hidden = model.forward(&mut FpExecutor, &tokens);
        assert_eq!(hidden.shape(), (20, config.hidden));
    }

    #[test]
    fn forward_is_deterministic() {
        let (_, model) = tiny();
        let tokens = model.random_tokens(16, 2);
        let a = model.forward(&mut FpExecutor, &tokens);
        let b = model.forward(&mut FpExecutor, &tokens);
        assert_eq!(a, b);
    }

    #[test]
    fn different_inputs_give_different_outputs() {
        let (_, model) = tiny();
        let a = model.forward(&mut FpExecutor, &model.random_tokens(16, 3));
        let b = model.forward(&mut FpExecutor, &model.random_tokens(16, 4));
        assert!(a.max_abs_diff(&b) > 1e-3);
    }

    #[test]
    fn hidden_states_are_normalized_and_finite() {
        let (config, model) = tiny();
        let hidden = model.forward(&mut FpExecutor, &model.random_tokens(12, 5));
        assert!(hidden.as_slice().iter().all(|x| x.is_finite()));
        // Post-layer-norm rows have bounded scale.
        for r in 0..hidden.rows() {
            let ss: f32 = hidden.row(r).iter().map(|x| x * x).sum::<f32>() / config.hidden as f32;
            assert!(ss < 10.0, "row {r} rms too large: {}", ss.sqrt());
        }
    }

    #[test]
    fn classification_head_emits_logits() {
        let (_, model) = tiny();
        let out = model.infer(&mut FpExecutor, &model.random_tokens(10, 6));
        match out {
            TaskOutput::Logits(l) => assert_eq!(l.len(), 3),
            other => panic!("expected logits, got {other:?}"),
        }
    }

    #[test]
    fn span_head_emits_position_logits() {
        let config = tiny().0;
        let model = Model::synthesize(&config, Head::Span, 8);
        let out = model.infer(&mut FpExecutor, &model.random_tokens(10, 6));
        match out {
            TaskOutput::Span(s, e) => {
                assert_eq!(s.len(), 10);
                assert_eq!(e.len(), 10);
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn weight_tensor_inventory_is_complete() {
        let (config, model) = tiny();
        let tensors = model.weight_tensors();
        // 4 (embeddings + heads) + 6 per layer.
        assert_eq!(tensors.len(), 4 + 6 * config.layers);
    }

    #[test]
    #[should_panic(expected = "no attention history")]
    fn forward_packed_rejects_a_decode_step_pack() {
        let (_, model) = tiny();
        let batch: [&[usize]; 1] = [&[3]];
        let _ = model.forward_packed(&mut FpExecutor, &PackedBatch::decode_step(&[4]), &batch);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_token_panics() {
        let (_, model) = tiny();
        let batch: [&[usize]; 1] = [&[10_000]];
        let _ = model.embed(&PackedBatch::new(&batch), &batch);
    }
}
