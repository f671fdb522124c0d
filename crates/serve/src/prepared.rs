//! [`PreparedModel`]: a model quantized **once** and then shared
//! read-only by every serving worker.
//!
//! `mokey_transformer::QuantizedModel` borrows the model it wraps, which
//! is the right shape for one-shot evaluation but not for a long-lived
//! engine; `PreparedModel` owns both halves (the FP model for the
//! forward-pass structure, the `QuantizedContext` for decoded centroid
//! weights, activation dictionaries, and output formats), so it can be
//! handed to a worker pool, stored behind an `Arc`, or kept for the
//! process lifetime. Thread-safety is pinned at compile time below.

use mokey_pipeline::{PipelineError, QuantSession, QuantizationReport, QuantizeSpec};
use mokey_transformer::exec::{
    BatchRun, ExecMode, QuantizedContext, QuantizedExecutor, QuantizedStats,
};
use mokey_transformer::quantize::QuantizedModel;
use mokey_transformer::{Model, TaskOutput};

/// A quantized model ready to serve concurrent inference requests.
///
/// # Example
///
/// ```
/// use mokey_serve::PreparedModel;
/// use mokey_transformer::{Head, Model, ModelConfig, QuantizeSpec};
///
/// let config = ModelConfig::bert_base().scaled(16, 16);
/// let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 1);
/// let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, s)).collect();
/// let prepared =
///     PreparedModel::prepare(model, QuantizeSpec::weights_and_activations(), &profile)
///         .expect("non-degenerate model");
/// let (out, stats) = prepared.infer(&prepared.model().random_tokens(12, 99));
/// assert!(stats.act_values > 0);
/// # let _ = out;
/// ```
#[derive(Debug)]
pub struct PreparedModel {
    model: Model,
    ctx: QuantizedContext,
    report: QuantizationReport,
}

// Workers share one `&PreparedModel`; a future non-Sync field (interior
// mutability, an `Rc`) must be caught at compile time, not in a data race.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedModel>();
};

impl PreparedModel {
    /// Quantizes `model` through a default [`QuantSession`] (paper curve
    /// constants) and takes ownership of the result.
    ///
    /// # Errors
    ///
    /// Propagates the session's [`PipelineError`] (degenerate tensor, or
    /// activation quantization without profiling inputs).
    pub fn prepare(
        model: Model,
        spec: QuantizeSpec,
        profile_inputs: &[Vec<usize>],
    ) -> Result<Self, PipelineError> {
        let session = QuantSession::with_defaults();
        Self::prepare_with_session(&session, model, spec, profile_inputs)
    }

    /// Quantizes `model` through an existing session (shared curve,
    /// configuration, and dictionary cache), then takes ownership of both
    /// the model and the session products.
    ///
    /// # Errors
    ///
    /// Propagates the session's [`PipelineError`].
    pub fn prepare_with_session(
        session: &QuantSession,
        model: Model,
        spec: QuantizeSpec,
        profile_inputs: &[Vec<usize>],
    ) -> Result<Self, PipelineError> {
        let (qm, report) =
            QuantizedModel::prepare_with_session(session, &model, spec, profile_inputs)?;
        let ctx = qm.into_context();
        Ok(Self { model, ctx, report })
    }

    /// The owned FP model (forward-pass structure, config, tokenizer
    /// helpers).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The quantization context (decoded centroid weights, activation
    /// dictionaries, output fixed-point formats).
    pub fn context(&self) -> &QuantizedContext {
        &self.ctx
    }

    /// The preparation-time quantization report.
    pub fn quantization_report(&self) -> &QuantizationReport {
        &self.report
    }

    /// Vocabulary size (requests with out-of-vocabulary tokens are
    /// rejected at admission).
    pub fn vocab(&self) -> usize {
        self.model.config().vocab
    }

    /// Maximum sequence length (longer requests are rejected at
    /// admission).
    pub fn max_seq(&self) -> usize {
        self.model.config().max_seq
    }

    /// Quantized inference on a single request.
    pub fn infer(&self, tokens: &[usize]) -> (TaskOutput, QuantizedStats) {
        let mut exec = QuantizedExecutor::new(&self.ctx);
        let out = self.model.infer(&mut exec, tokens);
        (out, exec.stats())
    }

    /// Quantized inference over a coalesced batch (the engine's batched
    /// path): same-length-bucketed groups run through the packed
    /// tensor-level forward pass, singletons as a pack of one through the
    /// same pass. Every output and per-request counter is bit-identical to a
    /// solo [`PreparedModel::infer`]; the returned [`BatchRun`] also
    /// reports how the batch was packed.
    pub fn infer_batch(&self, batch: &[Vec<usize>]) -> BatchRun {
        self.ctx.infer_batch(&self.model, batch)
    }

    /// [`PreparedModel::infer_batch`] with an explicit execution mode
    /// ([`ExecMode::IndexDomain`] runs the projection/FFN GEMMs on codes
    /// via pair-LUTs; outputs and counters stay bit-identical).
    pub fn infer_batch_mode(&self, batch: &[Vec<usize>], mode: ExecMode) -> BatchRun {
        self.ctx.infer_batch_mode(&self.model, batch, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mokey_transformer::{Head, ModelConfig};

    fn prepared() -> PreparedModel {
        let config = ModelConfig {
            name: "prepared-test".into(),
            layers: 1,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 200,
            max_seq: 24,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 9);
        let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, 70 + s)).collect();
        PreparedModel::prepare(model, QuantizeSpec::weights_and_activations(), &profile)
            .expect("non-degenerate model")
    }

    #[test]
    fn prepared_model_matches_borrowing_quantized_model() {
        let p = prepared();
        let tokens = p.model().random_tokens(12, 500);
        let (via_prepared, stats) = p.infer(&tokens);
        // Same context, same model → identical outputs to the borrowing
        // wrapper it was built from.
        let mut exec = QuantizedExecutor::new(p.context());
        let direct = p.model().infer(&mut exec, &tokens);
        assert_eq!(via_prepared, direct);
        assert_eq!(stats, exec.stats());
    }

    #[test]
    fn batch_outputs_are_bit_identical_to_solo_runs() {
        let p = prepared();
        let batch: Vec<Vec<usize>> = (0..4).map(|s| p.model().random_tokens(10, 900 + s)).collect();
        let run = p.infer_batch(&batch);
        assert_eq!(run.packing.packed_requests, 4, "same-length batch should pack");
        let mut merged = QuantizedStats::default();
        for (tokens, (out, stats)) in batch.iter().zip(&run.results) {
            let (solo, solo_stats) = p.infer(tokens);
            assert_eq!(out, &solo);
            assert_eq!(stats, &solo_stats);
            merged.merge(stats);
        }
        assert_eq!(run.total, merged);
    }

    #[test]
    fn prepare_shares_a_session_cache() {
        let session =
            QuantSession::builder().parallelism(mokey_pipeline::Parallelism::Serial).build();
        let config = ModelConfig {
            name: "prepared-cache".into(),
            layers: 1,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 200,
            max_seq: 24,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 9);
        let weights = model.weight_tensors().len();
        let p1 = PreparedModel::prepare_with_session(
            &session,
            model.clone(),
            QuantizeSpec::weights_only(),
            &[],
        )
        .unwrap();
        assert_eq!(session.cache_stats().misses, weights);
        let p2 =
            PreparedModel::prepare_with_session(&session, model, QuantizeSpec::weights_only(), &[])
                .unwrap();
        assert_eq!(session.cache_stats().misses, weights, "second prepare rebuilt dictionaries");
        assert_eq!(p1.context().weights, p2.context().weights);
    }
}
