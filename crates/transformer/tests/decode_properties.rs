//! Property test pinning the decode subsystem's central claim: greedy
//! generation through the **incremental quantized KV-cache** is
//! bit-identical to a reference decode that re-runs the entire prefix
//! from scratch every step (fresh prefill + float-carried K/V), across
//! random prompt lengths, step budgets, EOS choices, and both
//! [`ExecMode`]s.
//!
//! Tokens, the final hidden row, *and* the activation-encoding counters
//! must all agree — the cache stores 5-bit codes and rematerializes
//! floats through the same decode tables the hooks used, so any
//! divergence is cache bookkeeping gone wrong.

use mokey_transformer::decode::{generate, generate_reference};
use mokey_transformer::quantize::QuantizedModel;
use mokey_transformer::{
    DecodeSession, ExecMode, Head, Model, ModelConfig, QuantizeSpec, QuantizedContext,
};
use proptest::prelude::*;
use std::sync::OnceLock;

const VOCAB: usize = 120;
const MAX_SEQ: usize = 20;

fn fixture() -> &'static (Model, QuantizedContext) {
    static FIXTURE: OnceLock<(Model, QuantizedContext)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = ModelConfig {
            name: "decode-prop".into(),
            layers: 2,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: VOCAB,
            max_seq: MAX_SEQ,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 17);
        let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, 90 + s)).collect();
        let (qm, _) =
            QuantizedModel::prepare(&model, QuantizeSpec::weights_and_activations(), &profile);
        let ctx = qm.into_context();
        (model, ctx)
    })
}

proptest! {
    /// Incremental KV-cache decode ≡ full-prefix-recompute decode,
    /// bit-for-bit, in both execution modes.
    #[test]
    fn incremental_decode_matches_full_prefix_recompute(
        prompt_len in 1usize..12,
        max_tokens in 0usize..7,
        prompt_seed in 0u64..10_000,
        index_domain in prop::bool::ANY,
        with_eos in prop::bool::ANY,
        eos in 0usize..VOCAB,
    ) {
        let (model, ctx) = fixture();
        let mode = if index_domain { ExecMode::IndexDomain } else { ExecMode::Decoded };
        let eos = with_eos.then_some(eos);
        let prompt = model.random_tokens(prompt_len, prompt_seed);
        let incremental = generate(model, ctx, &prompt, max_tokens, eos, mode);
        let reference = generate_reference(model, ctx, &prompt, max_tokens, eos, mode);
        prop_assert!(
            incremental == reference,
            "cache decode diverged from full recompute: prompt_len {prompt_len}, \
             max_tokens {max_tokens}, seed {prompt_seed}, mode {mode:?}, eos {eos:?}\n\
             incremental tokens {:?}\nreference tokens  {:?}",
            incremental.tokens, reference.tokens
        );
        prop_assert!(incremental.tokens.len() <= max_tokens);
    }

    /// Long generations saturate the cache at `max_seq` and still agree
    /// with the recompute oracle at the boundary.
    #[test]
    fn decode_agrees_at_the_max_seq_boundary(
        slack in 0usize..4,
        prompt_seed in 0u64..10_000,
        index_domain in prop::bool::ANY,
    ) {
        let (model, ctx) = fixture();
        let mode = if index_domain { ExecMode::IndexDomain } else { ExecMode::Decoded };
        let prompt = model.random_tokens(MAX_SEQ - 1 - slack, prompt_seed);
        // A budget far past the cache capacity: the max_seq stop rule
        // must fire in both implementations at the same token.
        let incremental = generate(model, ctx, &prompt, 3 * MAX_SEQ, None, mode);
        let reference = generate_reference(model, ctx, &prompt, 3 * MAX_SEQ, None, mode);
        prop_assert!(incremental == reference, "boundary divergence at slack {slack}");
        prop_assert_eq!(incremental.tokens.len(), slack + 2);
    }

    /// Fused multi-session steps ≡ one solo `generate` per session: the
    /// sessions share every `step_batch` pass (one query row each, over
    /// histories of different lengths) until each one finishes on its
    /// own budget, EOS or the `max_seq` boundary, and tokens, the final
    /// hidden bits and the counters all match.
    #[test]
    fn fused_steps_match_solo_generation(
        specs in prop::collection::vec((1usize..MAX_SEQ, 0usize..24, 0u64..10_000, 0usize..10), 1..=6),
        index_domain in prop::bool::ANY,
    ) {
        let (model, ctx) = fixture();
        let mode = if index_domain { ExecMode::IndexDomain } else { ExecMode::Decoded };
        let mut sessions = Vec::new();
        let mut solo = Vec::new();
        for &(prompt_len, max_tokens, seed, eos_at) in &specs {
            let prompt = model.random_tokens(prompt_len, seed);
            // An EOS the unconstrained run emits, so some sessions stop on it.
            let free = generate(model, ctx, &prompt, max_tokens, None, mode);
            let eos = free.tokens.get(eos_at).copied();
            solo.push(generate(model, ctx, &prompt, max_tokens, eos, mode));
            sessions.push(DecodeSession::prefill(model, ctx, &prompt, max_tokens, eos, mode));
        }
        loop {
            let mut live: Vec<&mut DecodeSession> =
                sessions.iter_mut().filter(|s| !s.is_done()).collect();
            if live.is_empty() {
                break;
            }
            let tokens = DecodeSession::step_batch(&mut live, model, ctx);
            let last: Vec<usize> = live.iter().map(|s| *s.generated().last().unwrap()).collect();
            prop_assert_eq!(tokens, last);
        }
        for (i, (session, expected)) in sessions.into_iter().zip(&solo).enumerate() {
            let fused = session.into_result();
            prop_assert_eq!(&fused.tokens, &expected.tokens, "session {} tokens", i);
            let bits = |r: &mokey_transformer::GenerateResult| -> Vec<u32> {
                r.hidden.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            prop_assert_eq!(bits(&fused), bits(expected), "session {} hidden bits", i);
            prop_assert_eq!(fused.stats, expected.stats, "session {} counters", i);
        }
    }
}
