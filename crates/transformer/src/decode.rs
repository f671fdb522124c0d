//! Autoregressive greedy decode over a quantized KV-cache.
//!
//! The serving engine's one-shot requests run a single encoder pass;
//! this module adds the other dominant traffic shape: **generation**.
//! A [`DecodeSession`] prefills the prompt through the existing
//! [`Model::forward`] (bidirectional over the prompt, exactly the
//! encoder semantics every other path uses), harvesting each layer's
//! K/V activation codes into a [`KvCache`]; every subsequent token is
//! then computed *incrementally* by the model's one encoder-layer step.
//! A step is one query row per session ([`PackedBatch::decode_step`])
//! whose keys and values are that session's cached K/V rows plus its
//! own — with the very same executor hooks (`dictionary encode →
//! decode`, weight substitution, Eq. 7/8 output snapping, and the
//! pair-LUT GEMM path under [`ExecMode::IndexDomain`]) and fused
//! attention kernels the full forward pass uses.
//! [`DecodeSession::step_batch`] advances many sessions with one such
//! pass, so the projection and FFN GEMMs run once at `N` rows (and the
//! index-domain counter-array quad path engages from four sessions on);
//! [`DecodeSession::step`] is the same pass over one session.
//!
//! Attention semantics are prefix-LM style and self-consistent with the
//! cache: prompt positions attend only to the prompt (their K/V are
//! frozen at prefill), and each generated position attends to the
//! prompt plus every earlier generated position plus itself. Because
//! the cache stores *codes* and rematerializes floats through the same
//! [`DecodeLut`] the encoding hook used,
//! the incremental step is bit-identical to a from-scratch recompute of
//! the entire prefix — pinned by [`generate_reference`], which re-runs
//! prefill plus every earlier step from scratch each token, carrying
//! K/V as plain floats instead of cached codes.

use crate::exec::{ExecMode, Executor, QuantizedContext, QuantizedExecutor, QuantizedStats};
use crate::kv::{Kv, KvCache};
use crate::model::{KvSource, Model};
use crate::packed::PackedBatch;
use mokey_core::lut::DecodeLut;
use mokey_tensor::{dot, Matrix};

/// A finished generation: the sampled tokens, the final hidden row the
/// last token was sampled from, and the activation-encoding counters
/// (prefill plus every incremental step).
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateResult {
    /// Greedily sampled tokens, in order (includes the EOS token when
    /// generation stopped on it).
    pub tokens: Vec<usize>,
    /// The `1 × hidden` state the final token was sampled from.
    pub hidden: Matrix,
    /// Merged activation-encoding counters.
    pub stats: QuantizedStats,
}

/// One in-flight generation: prompt prefilled, K/V codes cached,
/// advancing one greedy token per [`DecodeSession::step`].
///
/// The session owns no borrows — model and context are passed to each
/// call — so it can ride through a serving queue between steps.
#[derive(Debug, Clone)]
pub struct DecodeSession {
    mode: ExecMode,
    prompt_len: usize,
    /// Prompt plus every *advanced* generated token (= cached positions).
    tokens: Vec<usize>,
    generated: Vec<usize>,
    max_tokens: usize,
    eos: Option<usize>,
    cache: KvCache,
    last_hidden: Matrix,
    stats: QuantizedStats,
    done: bool,
}

impl DecodeSession {
    /// Prefills the prompt (one full [`Model::forward`] pass) and caches
    /// every layer's K/V codes. `max_tokens` bounds the generation;
    /// `eos` optionally stops it early. Generation also stops when the
    /// cache reaches the model's `max_seq`.
    ///
    /// # Panics
    ///
    /// Panics on an empty prompt, a prompt longer than `max_seq`, or a
    /// context without K/V activation dictionaries (decode stores codes,
    /// so it requires activation quantization).
    pub fn prefill(
        model: &Model,
        ctx: &QuantizedContext,
        prompt: &[usize],
        max_tokens: usize,
        eos: Option<usize>,
        mode: ExecMode,
    ) -> Self {
        assert!(!prompt.is_empty(), "decode needs a non-empty prompt");
        assert!(
            ctx.act_dicts.contains_key("L0.attn.k"),
            "decode requires activation quantization (K/V dictionaries)"
        );
        let tensors = kv_tensors(ctx, model.config().layers);
        let mut exec = QuantizedExecutor::with_mode(ctx, mode);
        exec.capture(tensors.iter().flat_map(|t| t.names.clone()));
        let hidden = model.forward(&mut exec, prompt);
        // The prompt plus every generated token but the last is cached.
        let positions =
            prompt.len().saturating_add(max_tokens.saturating_sub(1)).min(model.config().max_seq);
        let mut cache = KvCache::with_capacity(tensors.len(), model.config().hidden, positions);
        for (li, t) in tensors.iter().enumerate() {
            let [k, v] = t
                .names
                .each_ref()
                .map(|name| exec.take_captured(name).expect("captured K/V codes"));
            cache.append(li, &k, &v);
        }
        Self {
            mode,
            prompt_len: prompt.len(),
            tokens: prompt.to_vec(),
            generated: Vec::new(),
            max_tokens,
            eos,
            cache,
            last_hidden: hidden.slice_rows(prompt.len() - 1, 1),
            stats: exec.stats(),
            done: max_tokens == 0,
        }
    }

    /// Samples the next greedy token and, unless that finishes the
    /// generation, advances the cache one position with it. Returns the
    /// sampled token. This is [`DecodeSession::step_batch`] over one
    /// session.
    ///
    /// # Panics
    ///
    /// Panics if the session is already [`DecodeSession::is_done`].
    pub fn step(&mut self, model: &Model, ctx: &QuantizedContext) -> usize {
        Self::step_batch(&mut [self], model, ctx)[0]
    }

    /// Steps every session at once: samples each one's next greedy token,
    /// then advances every session that is not finished by it with **one**
    /// fused layer-stack pass — one query row per session over its own
    /// cached history ([`PackedBatch::decode_step`]), so each projection
    /// and FFN GEMM runs once at `N` rows. Returns the sampled tokens in
    /// session order. Tokens, hidden rows, caches and counters are
    /// bit-identical to stepping each session alone.
    ///
    /// # Panics
    ///
    /// Panics if any session is already [`DecodeSession::is_done`], or
    /// if the sessions were prefilled in different [`ExecMode`]s.
    pub fn step_batch(
        sessions: &mut [&mut DecodeSession],
        model: &Model,
        ctx: &QuantizedContext,
    ) -> Vec<usize> {
        let tokens = sessions.iter_mut().map(|s| s.sample(model)).collect();
        let mut live: Vec<&mut DecodeSession> =
            sessions.iter_mut().filter(|s| !s.done).map(|s| &mut **s).collect();
        if !live.is_empty() {
            advance(&mut live, model, ctx);
        }
        tokens
    }

    /// Samples the next greedy token and decides whether it finishes the
    /// generation.
    fn sample(&mut self, model: &Model) -> usize {
        assert!(!self.done, "decode session already finished");
        let t = greedy_token(model, self.last_hidden.row(0));
        self.generated.push(t);
        self.done = self.generated.len() >= self.max_tokens
            || Some(t) == self.eos
            || self.tokens.len() >= model.config().max_seq;
        t
    }

    /// Whether generation has stopped (max tokens, EOS, or a full
    /// cache).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The prompt length this session was prefilled with.
    pub fn prompt_len(&self) -> usize {
        self.prompt_len
    }

    /// Tokens generated so far.
    pub fn generated(&self) -> &[usize] {
        &self.generated
    }

    /// Merged activation-encoding counters (prefill + steps so far).
    pub fn stats(&self) -> QuantizedStats {
        self.stats
    }

    /// Current KV-cache size in bytes (one byte per stored 5-bit code).
    pub fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// Consumes the session into its result.
    pub fn into_result(self) -> GenerateResult {
        GenerateResult { tokens: self.generated, hidden: self.last_hidden, stats: self.stats }
    }
}

/// Greedy generation end-to-end: prefill, then step until done.
pub fn generate(
    model: &Model,
    ctx: &QuantizedContext,
    prompt: &[usize],
    max_tokens: usize,
    eos: Option<usize>,
    mode: ExecMode,
) -> GenerateResult {
    let mut session = DecodeSession::prefill(model, ctx, prompt, max_tokens, eos, mode);
    while !session.is_done() {
        session.step(model, ctx);
    }
    session.into_result()
}

/// The no-cache reference oracle: every token re-runs the **entire
/// prefix from scratch** — a fresh prefill forward plus a fresh
/// incremental pass per earlier token — carrying K/V as plain float
/// matrices harvested straight from the executor hooks instead of
/// cached codes. [`generate`] must match it bit-for-bit (tokens, final
/// hidden row, and counters); the decode proptest pins exactly that.
pub fn generate_reference(
    model: &Model,
    ctx: &QuantizedContext,
    prompt: &[usize],
    max_tokens: usize,
    eos: Option<usize>,
    mode: ExecMode,
) -> GenerateResult {
    assert!(!prompt.is_empty(), "decode needs a non-empty prompt");
    let layers = model.config().layers;
    let mut generated: Vec<usize> = Vec::new();
    loop {
        // Re-run the full prefix: prefill, then replay every generated
        // token at its position with float-carried K/V.
        let mut exec = QuantizedExecutor::with_mode(ctx, mode);
        let mut rec = KvRecorder {
            inner: &mut exec,
            k: vec![Matrix::zeros(0, 0); layers],
            v: vec![Matrix::zeros(0, 0); layers],
        };
        let full = model.forward(&mut rec, prompt);
        let (mut kf, mut vf) = (rec.k, rec.v);
        let mut iter_stats = exec.stats();
        let mut last = full.slice_rows(prompt.len() - 1, 1);
        for (i, &t) in generated.iter().enumerate() {
            let mut step_exec = QuantizedExecutor::with_mode(ctx, mode);
            let mut kv = FloatBacked { k: &mut kf, v: &mut vf };
            let pack = PackedBatch::decode_step(&[prompt.len() + i]);
            last = step_pass(model, &mut step_exec, &mut kv, &pack, &[t]);
            iter_stats.merge(&step_exec.stats());
        }
        if generated.len() >= max_tokens {
            // Only reachable with max_tokens == 0 (otherwise the break
            // below fires first).
            return GenerateResult { tokens: generated, hidden: last, stats: iter_stats };
        }
        let t = greedy_token(model, last.row(0));
        generated.push(t);
        let done = generated.len() >= max_tokens
            || Some(t) == eos
            || prompt.len() + generated.len() > model.config().max_seq;
        if done {
            return GenerateResult { tokens: generated, hidden: last, stats: iter_stats };
        }
    }
}

/// Greedy next-token choice: tied-embedding logits (final hidden row
/// dotted with every token-embedding row), argmax with lowest-index
/// tie-break.
fn greedy_token(model: &Model, hidden: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_score = f32::NEG_INFINITY;
    for t in 0..model.config().vocab {
        let score = dot(hidden, model.token_embedding.row(t));
        if score > best_score {
            best = t;
            best_score = score;
        }
    }
    best
}

/// One fused incremental pass: each session in `live` runs its last
/// sampled token at its next cache position, as one query row of a
/// shared decode-step pack. Capture names and decode tables are resolved
/// once for the pack, and each session's counters come from the
/// executor's per-request attribution.
fn advance(live: &mut [&mut DecodeSession], model: &Model, ctx: &QuantizedContext) {
    let mode = live[0].mode;
    assert!(live.iter().all(|s| s.mode == mode), "fused sessions must share an execution mode");
    let positions: Vec<usize> = live.iter().map(|s| s.tokens.len()).collect();
    let tokens: Vec<usize> =
        live.iter().map(|s| *s.generated.last().expect("a sampled token")).collect();
    let pack = PackedBatch::decode_step(&positions);
    let tensors = kv_tensors(ctx, model.config().layers);
    let mut exec = QuantizedExecutor::with_mode(ctx, mode);
    exec.capture(tensors.iter().flat_map(|t| t.names.clone()));
    let hidden = {
        let caches = live.iter_mut().map(|s| &mut s.cache).collect();
        let mut kv = CodeBacked { tensors: &tensors, caches, pack: &pack };
        step_pass(model, &mut exec, &mut kv, &pack, &tokens)
    };
    let mut per_request = exec.take_per_request();
    per_request.resize(live.len(), QuantizedStats::default());
    for (i, (session, stats)) in live.iter_mut().zip(&per_request).enumerate() {
        session.last_hidden = hidden.slice_rows(pack.row_of(i), 1);
        session.tokens.push(tokens[i]);
        session.stats.merge(stats);
    }
}

/// One layer's K and V activation tensors: the names their codes are
/// captured under and the tables that rematerialize them.
struct KvTensors {
    names: [String; 2],
    luts: [DecodeLut; 2],
}

fn kv_tensors(ctx: &QuantizedContext, layers: usize) -> Vec<KvTensors> {
    (0..layers)
        .map(|li| {
            let names = ["k", "v"].map(|which| format!("L{li}.attn.{which}"));
            let luts = names
                .each_ref()
                .map(|name| ctx.act_decode.get(name).copied().expect("K/V activation dictionary"));
            KvTensors { names, luts }
        })
        .collect()
}

/// One decode step's layer-stack pass: request `i` of `pack` (a
/// [`PackedBatch::decode_step`]) runs `tokens[i]` through [`Model`]'s one
/// encoder layer body as a single query row attending over its
/// [`PackedBatch::past_of`] positions of K/V history (from `kv`) plus
/// itself.
fn step_pass<E: Executor + ?Sized>(
    model: &Model,
    exec: &mut E,
    kv: &mut dyn KvSource<E>,
    pack: &PackedBatch,
    tokens: &[usize],
) -> Matrix {
    let batch: Vec<&[usize]> = tokens.iter().map(std::slice::from_ref).collect();
    let x = model.embed(pack, &batch);
    model.encoder_stack(exec, pack, x, kv)
}

/// Production K/V history for a fused step over `N` sessions: row `i` of
/// the step's captured K (or V) codes joins session `i`'s code cache, and
/// each session's whole history is rematerialized through the tensor's
/// decode table into its `past_i + 1` rows of the packed K (or V)
/// matrix, starting at the pack's [`PackedBatch::kv_row_of`]`(i)`.
struct CodeBacked<'c> {
    tensors: &'c [KvTensors],
    caches: Vec<&'c mut KvCache>,
    pack: &'c PackedBatch,
}

impl KvSource<QuantizedExecutor<'_>> for CodeBacked<'_> {
    fn history(
        &mut self,
        li: usize,
        which: Kv,
        exec: &mut QuantizedExecutor<'_>,
        _fresh: Matrix,
    ) -> Matrix {
        let tensor = &self.tensors[li];
        let codes = exec.take_captured(&tensor.names[which as usize]).expect("captured K/V codes");
        let hidden = codes.cols;
        let mut m = Matrix::zeros(self.pack.kv_rows(), hidden);
        for (i, cache) in self.caches.iter_mut().enumerate() {
            cache.append_codes(li, which, &codes.bits[i * hidden..(i + 1) * hidden]);
            let block = self.pack.kv_row_of(i) * hidden..self.pack.kv_row_of(i + 1) * hidden;
            cache.decode_into(
                li,
                which,
                &tensor.luts[which as usize],
                &mut m.as_mut_slice()[block],
            );
        }
        m
    }
}

/// The reference oracle's K/V history: plain float matrices, extended by
/// each step's hook outputs. Everything else in the step is shared with
/// [`CodeBacked`], so a divergence is a cache bug.
struct FloatBacked<'c> {
    k: &'c mut Vec<Matrix>,
    v: &'c mut Vec<Matrix>,
}

impl<E: ?Sized> KvSource<E> for FloatBacked<'_> {
    fn history(&mut self, li: usize, which: Kv, _exec: &mut E, fresh: Matrix) -> Matrix {
        let history = match which {
            Kv::K => &mut self.k[li],
            Kv::V => &mut self.v[li],
        };
        *history = push_row(history, &fresh);
        history.clone()
    }
}

fn push_row(m: &Matrix, row: &Matrix) -> Matrix {
    if m.rows() == 0 {
        return row.clone();
    }
    let mut out = Matrix::zeros(m.rows() + 1, m.cols());
    for r in 0..m.rows() {
        out.row_mut(r).copy_from_slice(m.row(r));
    }
    out.row_mut(m.rows()).copy_from_slice(row.row(0));
    out
}

/// Wraps a [`QuantizedExecutor`], recording the float K/V matrices the
/// hooks emit during a prefill forward — the reference oracle's
/// cache-free K/V source.
struct KvRecorder<'a, 'b> {
    inner: &'b mut QuantizedExecutor<'a>,
    k: Vec<Matrix>,
    v: Vec<Matrix>,
}

fn layer_of(name: &str, suffix: &str) -> Option<usize> {
    name.strip_suffix(suffix)?.strip_prefix('L')?.parse().ok()
}

impl Executor for KvRecorder<'_, '_> {
    fn activation(&mut self, name: &str, m: Matrix) -> Matrix {
        let out = self.inner.activation(name, m);
        if let Some(li) = layer_of(name, ".attn.k") {
            self.k[li] = out.clone();
        } else if let Some(li) = layer_of(name, ".attn.v") {
            self.v[li] = out.clone();
        }
        out
    }

    fn weight_override(&self, name: &str) -> Option<&Matrix> {
        self.inner.weight_override(name)
    }

    fn gemm_output(&mut self, name: &str, m: Matrix) -> Matrix {
        self.inner.gemm_output(name, m)
    }

    fn linear(&mut self, weight_name: &str, x: &Matrix, w: &Matrix, b: &[f32]) -> Option<Matrix> {
        self.inner.linear(weight_name, x, w, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::Head;
    use crate::quantize::{QuantizeSpec, QuantizedModel};

    fn decodable() -> (Model, QuantizedContext) {
        let config = ModelConfig {
            name: "decode-test".into(),
            layers: 2,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 120,
            max_seq: 24,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 11);
        let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, 30 + s)).collect();
        let (qm, _) =
            QuantizedModel::prepare(&model, QuantizeSpec::weights_and_activations(), &profile);
        let ctx = qm.into_context();
        (model, ctx)
    }

    #[test]
    fn a_decode_step_is_one_layer_stack_pass_at_one_query_row() {
        use crate::model::tests::{layer_hooks, HookLog};
        let (model, _) = decodable();
        let config = model.config();
        let (layers, hidden) = (config.layers, config.hidden);
        // Five cached positions of arbitrary float history per layer.
        let history = || vec![Matrix::zeros(5, hidden); layers];
        let (mut k, mut v) = (history(), history());
        let mut log = HookLog::default();
        let pack = PackedBatch::decode_step(&[5]);
        let row =
            step_pass(&model, &mut log, &mut FloatBacked { k: &mut k, v: &mut v }, &pack, &[7]);
        assert_eq!(row.shape(), (1, hidden));
        let expected: Vec<_> = (0..layers).flat_map(|li| layer_hooks(config, li, 1, 6)).collect();
        assert_eq!(log.0, expected);
        // The step's own K/V row joined each layer's history.
        assert!(k.iter().chain(&v).all(|m| m.rows() == 6));
    }

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let (model, ctx) = decodable();
        let prompt = model.random_tokens(6, 1);
        let a = generate(&model, &ctx, &prompt, 5, None, ExecMode::Decoded);
        let b = generate(&model, &ctx, &prompt, 5, None, ExecMode::Decoded);
        assert_eq!(a, b);
        assert_eq!(a.tokens.len(), 5);
        assert!(a.tokens.iter().all(|&t| t < model.config().vocab));
        assert!(a.stats.act_values > 0);
    }

    #[test]
    fn index_domain_decode_is_bit_identical_to_decoded() {
        let (model, ctx) = decodable();
        let prompt = model.random_tokens(5, 2);
        let dec = generate(&model, &ctx, &prompt, 4, None, ExecMode::Decoded);
        let idx = generate(&model, &ctx, &prompt, 4, None, ExecMode::IndexDomain);
        assert_eq!(dec, idx);
    }

    #[test]
    fn incremental_matches_full_prefix_recompute() {
        let (model, ctx) = decodable();
        for mode in [ExecMode::Decoded, ExecMode::IndexDomain] {
            let prompt = model.random_tokens(7, 3);
            let inc = generate(&model, &ctx, &prompt, 6, None, mode);
            let reference = generate_reference(&model, &ctx, &prompt, 6, None, mode);
            assert_eq!(inc, reference, "mode {mode:?}");
        }
    }

    #[test]
    fn eos_stops_generation_and_is_included() {
        let (model, ctx) = decodable();
        let prompt = model.random_tokens(6, 4);
        // Find what the unconstrained second token is, then declare it EOS.
        let free = generate(&model, &ctx, &prompt, 3, None, ExecMode::Decoded);
        assert_eq!(free.tokens.len(), 3);
        let eos = free.tokens[1];
        let stopped = generate(&model, &ctx, &prompt, 8, Some(eos), ExecMode::Decoded);
        // Generation halts at the first occurrence of the EOS token
        // (greedy decode may emit it earlier than index 1).
        let cut = free.tokens.iter().position(|&t| t == eos).unwrap();
        assert_eq!(stopped.tokens, free.tokens[..=cut].to_vec());
    }

    #[test]
    fn generation_stops_at_max_seq() {
        let (model, ctx) = decodable();
        let max_seq = model.config().max_seq;
        let prompt = model.random_tokens(max_seq - 2, 5);
        // Room to advance twice; the third sample cannot be cached.
        let out = generate(&model, &ctx, &prompt, 100, None, ExecMode::Decoded);
        assert_eq!(out.tokens.len(), 3);
        let reference = generate_reference(&model, &ctx, &prompt, 100, None, ExecMode::Decoded);
        assert_eq!(out, reference);
    }

    #[test]
    fn zero_max_tokens_yields_prefill_only() {
        let (model, ctx) = decodable();
        let prompt = model.random_tokens(5, 6);
        let out = generate(&model, &ctx, &prompt, 0, None, ExecMode::Decoded);
        assert!(out.tokens.is_empty());
        let reference = generate_reference(&model, &ctx, &prompt, 0, None, ExecMode::Decoded);
        assert_eq!(out, reference);
    }

    #[test]
    fn session_steps_match_one_shot_generate() {
        let (model, ctx) = decodable();
        let prompt = model.random_tokens(6, 7);
        let mut session = DecodeSession::prefill(&model, &ctx, &prompt, 4, None, ExecMode::Decoded);
        let mut tokens = Vec::new();
        while !session.is_done() {
            tokens.push(session.step(&model, &ctx));
        }
        assert!(session.cache_bytes() > 0);
        let result = session.into_result();
        assert_eq!(result.tokens, tokens);
        assert_eq!(result, generate(&model, &ctx, &prompt, 4, None, ExecMode::Decoded));
    }
}
