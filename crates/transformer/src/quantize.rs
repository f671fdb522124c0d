//! The end-to-end Mokey pipeline over a model (paper Section II-G):
//! profile → build per-tensor dictionaries → pre-encode weights → run.
//!
//! All flow construction lives in [`mokey_pipeline::QuantSession`]; this
//! module adapts [`Model`] to the pipeline's [`ModelAdapter`] and wraps
//! the session products in a ready-to-infer [`QuantizedModel`].

use crate::exec::{
    ExecMode, LutLinear, ProfilingExecutor, QuantizedContext, QuantizedExecutor, QuantizedStats,
};
use crate::model::{Model, TaskOutput};
use mokey_core::dict::TensorDict;
use mokey_core::profile::ActivationProfiler;
use mokey_pipeline::{ModelAdapter, PipelineError, QuantSession};
use mokey_tensor::Matrix;

pub use mokey_pipeline::{QuantizationReport, QuantizeSpec};

impl ModelAdapter for Model {
    type Input = Vec<usize>;

    fn named_weights(&self) -> Vec<(String, &Matrix)> {
        self.weight_tensors()
    }

    fn run_profile(&self, profiler: &mut ActivationProfiler, tokens: &Vec<usize>) {
        let mut exec = ProfilingExecutor::new(profiler);
        let hidden = self.forward(&mut exec, tokens);
        let _ = self.apply_head(&mut exec, &hidden);
    }
}

/// A model prepared for Mokey inference.
///
/// # Example
///
/// ```
/// use mokey_transformer::{Head, Model, ModelConfig, QuantizeSpec, QuantizedModel};
///
/// let config = ModelConfig::bert_base().scaled(12, 12);
/// let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 1);
/// let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(16, s)).collect();
/// let (qmodel, report) = QuantizedModel::prepare(
///     &model, QuantizeSpec::weights_and_activations(), &profile);
/// assert!(report.weight_outlier_percent() < 5.0);
/// let (out, stats) = qmodel.infer(&model.random_tokens(16, 99));
/// assert!(stats.act_values > 0);
/// # let _ = out;
/// ```
#[derive(Debug)]
pub struct QuantizedModel<'m> {
    model: &'m Model,
    ctx: QuantizedContext,
}

impl<'m> QuantizedModel<'m> {
    /// Prepares quantized inference with a default session (paper curve
    /// constants, automatic parallelism): profiles activations over the
    /// given sequences (the paper uses a single batch of 8), builds
    /// dictionaries, and pre-encodes weights.
    ///
    /// # Panics
    ///
    /// Panics when the flow fails (degenerate tensor, or activation
    /// quantization without profiling sequences); use
    /// [`QuantizedModel::prepare_with_session`] to handle those as typed
    /// errors.
    pub fn prepare(
        model: &'m Model,
        spec: QuantizeSpec,
        profile_inputs: &[Vec<usize>],
    ) -> (Self, QuantizationReport) {
        let session = QuantSession::with_defaults();
        Self::prepare_with_session(&session, model, spec, profile_inputs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Prepares quantized inference through an existing [`QuantSession`],
    /// sharing its curve, configuration, and dictionary cache (repeated
    /// preparations of the same model reuse cached weight dictionaries).
    ///
    /// # Errors
    ///
    /// Propagates the session's [`PipelineError`] (degenerate tensor, or
    /// missing profiling inputs).
    pub fn prepare_with_session(
        session: &QuantSession,
        model: &'m Model,
        spec: QuantizeSpec,
        profile_inputs: &[Vec<usize>],
    ) -> Result<(Self, QuantizationReport), PipelineError> {
        let mq = session.quantize_model(model, spec, profile_inputs)?;
        let weights = mq.decode_weights(session);
        // Index-domain retention: keep the codes of every weight whose
        // feeding activation is quantized, and build (or fetch from the
        // session's cross-model cache) the product table for each
        // (activation-dict, weight-dict) pair.
        let mut luts = std::collections::BTreeMap::new();
        for (name, q) in &mq.weights {
            for act_name in crate::exec::feeding_activations(name) {
                if let Some(act_dict) = mq.act_dicts.get(&act_name) {
                    let lut = session.pair_lut(act_dict, q.dict());
                    luts.insert(name.clone(), LutLinear { act_name, codes: q.clone(), lut });
                    break;
                }
            }
        }
        let mut ctx = QuantizedContext::new(weights, mq.act_dicts, mq.out_formats);
        ctx.set_index_domain(luts);
        Ok((Self { model, ctx }, mq.report))
    }

    /// The underlying FP model.
    pub fn model(&self) -> &Model {
        self.model
    }

    /// The quantization context (dictionaries, decoded weights, formats).
    pub fn context(&self) -> &QuantizedContext {
        &self.ctx
    }

    /// The activation dictionary of a named tensor, if present.
    pub fn act_dict(&self, name: &str) -> Option<&TensorDict> {
        self.ctx.act_dict(name)
    }

    /// Quantized inference on one sequence, returning the head output and
    /// the activation-encoding counters.
    pub fn infer(&self, tokens: &[usize]) -> (TaskOutput, QuantizedStats) {
        self.infer_mode(tokens, ExecMode::Decoded)
    }

    /// [`QuantizedModel::infer`] with an explicit execution mode.
    /// [`ExecMode::IndexDomain`] output and counters are bit-identical to
    /// [`ExecMode::Decoded`].
    pub fn infer_mode(&self, tokens: &[usize], mode: ExecMode) -> (TaskOutput, QuantizedStats) {
        let mut exec = QuantizedExecutor::with_mode(&self.ctx, mode);
        let hidden = self.model.forward(&mut exec, tokens);
        let out = self.model.apply_head(&mut exec, &hidden);
        (out, exec.stats())
    }

    /// Releases the borrowed model and hands out the owned quantization
    /// context, so session products outlive the preparation call (the
    /// serving engine pairs the context with an owned model).
    pub fn into_context(self) -> QuantizedContext {
        self.ctx
    }

    /// Quantized forward pass only (final hidden states).
    pub fn forward(&self, tokens: &[usize]) -> (mokey_tensor::Matrix, QuantizedStats) {
        let mut exec = QuantizedExecutor::new(&self.ctx);
        let hidden = self.model.forward(&mut exec, tokens);
        (hidden, exec.stats())
    }
}

/// Runs FP inference over many sequences in parallel.
pub fn infer_fp_batch(model: &Model, inputs: &[Vec<usize>]) -> Vec<TaskOutput> {
    mokey_pipeline::parallel::map(inputs, mokey_pipeline::Parallelism::Auto, |tokens| {
        let mut exec = crate::exec::FpExecutor;
        let hidden = model.forward(&mut exec, tokens);
        model.apply_head(&mut exec, &hidden)
    })
}

/// Runs quantized inference over many sequences in parallel, merging the
/// activation counters.
pub fn infer_quantized_batch(
    qmodel: &QuantizedModel<'_>,
    inputs: &[Vec<usize>],
) -> (Vec<TaskOutput>, QuantizedStats) {
    let results = mokey_pipeline::parallel::map(inputs, mokey_pipeline::Parallelism::Auto, |t| {
        qmodel.infer(t)
    });
    let mut stats = QuantizedStats::default();
    let mut outputs = Vec::with_capacity(results.len());
    for (out, s) in results {
        stats.merge(&s);
        outputs.push(out);
    }
    (outputs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::exec::FpExecutor;
    use crate::model::Head;
    use mokey_pipeline::Parallelism;

    fn tiny_model() -> Model {
        let config = ModelConfig {
            name: "tiny".into(),
            layers: 2,
            hidden: 64,
            heads: 2,
            ff: 128,
            vocab: 300,
            max_seq: 32,
        };
        Model::synthesize(&config, Head::Classification { classes: 3 }, 11)
    }

    fn profile_inputs(model: &Model) -> Vec<Vec<usize>> {
        (0..4).map(|s| model.random_tokens(16, 1000 + s)).collect()
    }

    #[test]
    fn weight_only_quantization_reports_outliers() {
        let model = tiny_model();
        let (qm, report) = QuantizedModel::prepare(&model, QuantizeSpec::weights_only(), &[]);
        assert!(report.weight_values > 0);
        let pct = report.weight_outlier_percent();
        assert!(pct > 0.1 && pct < 6.0, "weight OT% {pct}");
        assert_eq!(qm.context().act_dicts().count(), 0);
        assert_eq!(report.weight_outlier_fractions.len(), model.weight_tensors().len());
    }

    #[test]
    fn quantized_outputs_track_fp_outputs() {
        let model = tiny_model();
        let (qm, _) = QuantizedModel::prepare(
            &model,
            QuantizeSpec::weights_and_activations(),
            &profile_inputs(&model),
        );
        let tokens = model.random_tokens(16, 5000);
        let fp = match model.infer(&mut FpExecutor, &tokens) {
            TaskOutput::Logits(l) => l,
            _ => unreachable!(),
        };
        let (q, stats) = qm.infer(&tokens);
        let TaskOutput::Logits(q) = q else { unreachable!() };
        assert!(stats.act_values > 0);
        // Quantized logits correlate strongly with FP logits.
        let cos = mokey_core::metrics::cosine_similarity(&fp, &q);
        assert!(cos > 0.8, "cosine {cos}; fp {fp:?} q {q:?}");
    }

    #[test]
    fn activation_outlier_rate_in_paper_band() {
        let model = tiny_model();
        let (qm, _) = QuantizedModel::prepare(
            &model,
            QuantizeSpec::weights_and_activations(),
            &profile_inputs(&model),
        );
        let mut stats = QuantizedStats::default();
        for s in 0..4 {
            let (_, st) = qm.infer(&model.random_tokens(16, 7000 + s));
            stats.merge(&st);
        }
        let pct = 100.0 * stats.outlier_fraction();
        // Paper Table I: 1.7–4.5%. Synthetic activations may run a little
        // wider; enforce a sane band.
        assert!(pct > 0.2 && pct < 12.0, "activation OT% {pct}");
    }

    #[test]
    fn batch_inference_matches_sequential() {
        let model = tiny_model();
        let inputs: Vec<Vec<usize>> = (0..6).map(|s| model.random_tokens(12, 100 + s)).collect();
        let batch = infer_fp_batch(&model, &inputs);
        for (tokens, out) in inputs.iter().zip(&batch) {
            let direct = model.infer(&mut FpExecutor, tokens);
            assert_eq!(&direct, out);
        }
    }

    #[test]
    fn quantized_batch_merges_stats() {
        let model = tiny_model();
        let (qm, _) = QuantizedModel::prepare(
            &model,
            QuantizeSpec::weights_and_activations(),
            &profile_inputs(&model),
        );
        let inputs: Vec<Vec<usize>> = (0..4).map(|s| model.random_tokens(12, 200 + s)).collect();
        let (outputs, stats) = infer_quantized_batch(&qm, &inputs);
        assert_eq!(outputs.len(), 4);
        let mut expect = QuantizedStats::default();
        for tokens in &inputs {
            expect.merge(&qm.infer(tokens).1);
        }
        assert_eq!(stats, expect);
    }

    #[test]
    fn serial_and_parallel_sessions_prepare_identical_contexts() {
        let model = tiny_model();
        let profile = profile_inputs(&model);
        let spec = QuantizeSpec::weights_and_activations();
        let serial = QuantSession::builder().parallelism(Parallelism::Serial).build();
        let parallel = QuantSession::builder().parallelism(Parallelism::Threads(3)).build();
        let (qs, rs) =
            QuantizedModel::prepare_with_session(&serial, &model, spec, &profile).unwrap();
        let (qp, rp) =
            QuantizedModel::prepare_with_session(&parallel, &model, spec, &profile).unwrap();
        assert_eq!(qs.context().weights, qp.context().weights);
        assert!(qs.context().act_dicts().eq(qp.context().act_dicts()));
        assert_eq!(rs.weight_outliers, rp.weight_outliers);
        assert_eq!(rs.weight_outlier_fractions, rp.weight_outlier_fractions);
    }

    #[test]
    fn shared_session_reuses_cached_weight_dictionaries() {
        let model = tiny_model();
        let session = QuantSession::builder().parallelism(Parallelism::Serial).build();
        let (_, r1) = QuantizedModel::prepare_with_session(
            &session,
            &model,
            QuantizeSpec::weights_only(),
            &[],
        )
        .unwrap();
        let misses_after_first = session.cache_stats().misses;
        assert_eq!(misses_after_first, model.weight_tensors().len());
        let (_, r2) = QuantizedModel::prepare_with_session(
            &session,
            &model,
            QuantizeSpec::weights_only(),
            &[],
        )
        .unwrap();
        // Second preparation is served entirely from the cache.
        assert_eq!(session.cache_stats().misses, misses_after_first);
        assert_eq!(session.cache_stats().hits, misses_after_first);
        assert_eq!(r1.weight_outliers, r2.weight_outliers);
    }

    #[test]
    #[should_panic(expected = "requires at least one profiling sequence")]
    fn activation_quant_without_profile_panics() {
        let model = tiny_model();
        let _ = QuantizedModel::prepare(&model, QuantizeSpec::weights_and_activations(), &[]);
    }
}
