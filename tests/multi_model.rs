//! Multi-model serving acceptance: two models registered behind one
//! shared `QuantSession` and served concurrently through one worker pool
//! must produce outputs **bit-identical** to each model served alone,
//! with per-model metrics summing to the aggregate and the shared
//! dictionary cache actually reused across models.

use mokey_pipeline::{Parallelism, QuantSession};
use mokey_serve::{
    serve, serve_registry, ModelId, ModelRegistry, ModelServeConfig, RegistryError, ServeConfig,
    ServeHandle, ServeReport, SubmitError,
};
use mokey_transformer::model::{Head, Model};
use mokey_transformer::{ModelConfig, QuantizeSpec};
use std::time::Duration;

fn config() -> ModelConfig {
    ModelConfig {
        name: "multi-itest".into(),
        layers: 2,
        hidden: 64,
        heads: 2,
        ff: 128,
        vocab: 400,
        max_seq: 32,
    }
}

/// Two task heads over the same synthesized encoder (same config + seed
/// → identical-stats encoder/embedding tensors), registered through one
/// serially-counted session.
fn two_head_registry() -> (ModelRegistry, ModelId, ModelId) {
    let session = QuantSession::builder().parallelism(Parallelism::Serial).build();
    let mut registry = ModelRegistry::with_session(session);
    let spec = QuantizeSpec::weights_and_activations();
    let config = config();
    let profile: Vec<Vec<usize>> = (0..3)
        .map(|s| Model::synthesize(&config, Head::Span, 17).random_tokens(16, 600 + s))
        .collect();
    let sentiment = registry
        .register(
            "sentiment",
            Model::synthesize(&config, Head::Classification { classes: 3 }, 17),
            spec,
            &profile,
        )
        .expect("first model registers");
    let topic = registry
        .register(
            "topic",
            Model::synthesize(&config, Head::Classification { classes: 5 }, 17),
            spec,
            &profile,
        )
        .expect("second model registers");
    (registry, sentiment, topic)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 3,
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        queue_capacity: 32,
        ..ServeConfig::default()
    }
}

#[test]
fn concurrent_two_model_load_is_bit_identical_to_each_model_served_alone() {
    let (registry, sentiment, topic) = two_head_registry();
    const PER_MODEL: usize = 10;

    // Deterministic per-model traffic (same vocab, so one stream per
    // model keeps the comparison honest).
    let traffic: Vec<(ModelId, Vec<Vec<usize>>)> = [sentiment, topic]
        .iter()
        .map(|&id| {
            let model = registry.get(id).unwrap().model();
            let requests: Vec<Vec<usize>> = (0..PER_MODEL)
                .map(|s| model.random_tokens(12 + (s % 3) * 4, 8_000 + s as u64))
                .collect();
            (id, requests)
        })
        .collect();

    // Concurrent: one client thread per model, interleaving submissions
    // into the one tagged queue / worker pool. Each client submits its
    // whole stream before waiting, so batches really coalesce.
    let (collected, report) = serve_registry(&registry, serve_config(), |handle| {
        std::thread::scope(|scope| {
            let clients: Vec<_> = traffic
                .iter()
                .map(|(id, requests)| {
                    scope.spawn(move || {
                        let tickets: Vec<_> = requests
                            .iter()
                            .map(|tokens| {
                                handle.submit_to(*id, tokens.clone()).expect("valid request")
                            })
                            .collect();
                        requests
                            .iter()
                            .zip(tickets)
                            .map(|(tokens, ticket)| (*id, tokens.clone(), ticket.wait()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients.into_iter().flat_map(|c| c.join().expect("client panicked")).collect::<Vec<_>>()
        })
    });
    assert_eq!(collected.len(), 2 * PER_MODEL);

    // Reference 1: each model alone, direct inference.
    for (id, tokens, response) in &collected {
        assert_eq!(response.model, *id);
        let (reference, reference_stats) = registry.get(*id).unwrap().infer(tokens);
        assert_eq!(response.output, reference, "multi-model output diverged for {tokens:?}");
        assert_eq!(response.stats, reference_stats, "per-request counters diverged");
    }

    // Reference 2: each model alone through its own single-model engine —
    // the router must change scheduling only, never a bit of any answer.
    for (id, requests) in &traffic {
        let prepared = registry.get(*id).unwrap();
        let (solo_outputs, solo_report) = serve(prepared, serve_config(), |handle| {
            let tickets: Vec<_> =
                requests.iter().map(|t| handle.submit(t.clone()).unwrap()).collect();
            tickets.into_iter().map(|t| t.wait().output).collect::<Vec<_>>()
        });
        assert_eq!(solo_report.completed, PER_MODEL as u64);
        let routed: Vec<_> = collected
            .iter()
            .filter(|(rid, _, _)| rid == id)
            .map(|(_, _, r)| r.output.clone())
            .collect();
        assert_eq!(routed, solo_outputs, "router changed a bit for {:?}", registry.name(*id));
    }

    assert_per_model_sums_to_aggregate(&report);
    assert_eq!(report.aggregate.completed, 2 * PER_MODEL as u64);
    assert_eq!(report.model("sentiment").unwrap().completed, PER_MODEL as u64);
    assert_eq!(report.model("topic").unwrap().completed, PER_MODEL as u64);
}

/// Counter columns recorded per model must sum exactly to the aggregate
/// (the engine records every event into both scopes).
fn assert_per_model_sums_to_aggregate(report: &ServeReport) {
    let sum = |f: fn(&mokey_serve::MetricsReport) -> u64| -> u64 {
        report.per_model.iter().map(|(_, r)| f(r)).sum()
    };
    assert_eq!(sum(|r| r.submitted), report.aggregate.submitted);
    assert_eq!(sum(|r| r.completed), report.aggregate.completed);
    assert_eq!(sum(|r| r.rejected_full), report.aggregate.rejected_full);
    assert_eq!(sum(|r| r.rejected_quota), report.aggregate.rejected_quota);
    assert_eq!(sum(|r| r.rejected_invalid), report.aggregate.rejected_invalid);
    assert_eq!(sum(|r| r.batches_formed), report.aggregate.batches_formed);
    assert_eq!(sum(|r| r.packed_batches), report.aggregate.packed_batches);
    assert_eq!(sum(|r| r.packed_requests), report.aggregate.packed_requests);
    assert_eq!(sum(|r| r.solo_requests), report.aggregate.solo_requests);
    assert_eq!(sum(|r| r.act_values), report.aggregate.act_values);
    assert_eq!(sum(|r| r.act_outliers), report.aggregate.act_outliers);
}

#[test]
fn shared_session_gives_cross_model_dictionary_cache_hits() {
    let (registry, sentiment, topic) = two_head_registry();
    // The two heads share every encoder/embedding tensor bit-for-bit, so
    // the second registration must have been served from the first's
    // cached dictionaries.
    let stats = registry.cache_stats();
    assert!(stats.hits >= 1, "no cross-model dictionary-cache hit: {stats:?}");
    let second = registry.get(topic).unwrap().quantization_report();
    assert!(second.dict_cache.hits >= 1, "second model's report shows no reuse");
    // And the reuse is exactly the shared-weight count: everything but
    // the task head.
    let shared = registry.get(sentiment).unwrap().model().weight_tensors().len() - 1;
    assert_eq!(second.dict_cache.hits, shared);
    assert_eq!(second.dict_cache.misses, 1);
    // The session-level report the registry exposes tells the same story.
    assert_eq!(registry.session().report().cache, stats);
}

#[test]
fn duplicate_registration_is_rejected_without_shadowing() {
    let (mut registry, sentiment, _) = two_head_registry();
    let err = registry
        .register(
            "sentiment",
            Model::synthesize(&config(), Head::Classification { classes: 3 }, 99),
            QuantizeSpec::weights_only(),
            &[],
        )
        .unwrap_err();
    assert_eq!(err, RegistryError::DuplicateModel { name: "sentiment".into() });
    assert_eq!(registry.len(), 2, "failed registration must not mutate the registry");
    assert_eq!(registry.lookup("sentiment"), Some(sentiment));
}

#[test]
fn per_model_metrics_isolate_rejections_and_mixed_validity_traffic() {
    let (registry, sentiment, topic) = two_head_registry();
    let (_, report) = serve_registry(&registry, serve_config(), |handle| {
        // Valid sentiment traffic, invalid topic traffic.
        let ok = registry.get(sentiment).unwrap().model().random_tokens(16, 5);
        let ticket = handle.submit_to(sentiment, ok).unwrap();
        assert!(matches!(
            handle.submit_to(topic, vec![]),
            Err(mokey_serve::SubmitError::EmptySequence)
        ));
        assert!(matches!(
            handle.submit_to(topic, vec![9_999]),
            Err(mokey_serve::SubmitError::TokenOutOfVocab { token: 9_999, vocab: 400 })
        ));
        ticket.wait()
    });
    assert_eq!(report.model("sentiment").unwrap().completed, 1);
    assert_eq!(report.model("sentiment").unwrap().rejected_invalid, 0);
    assert_eq!(report.model("topic").unwrap().rejected_invalid, 2);
    assert_eq!(report.model("topic").unwrap().completed, 0);
    assert_per_model_sums_to_aggregate(&report);
}

/// Regression (PR 5 bug): ids from a different registry used to alias
/// positionally and route silently to whatever model occupied that slot.
/// They must bounce with `UnknownModel` instead.
#[test]
fn cross_registry_model_ids_are_rejected_not_silently_aliased() {
    let (registry, sentiment, _) = two_head_registry();
    let (foreign_registry, foreign_sentiment, foreign_topic) = two_head_registry();
    assert_eq!(sentiment.index(), foreign_sentiment.index());
    assert_ne!(sentiment, foreign_sentiment, "ids must carry registry identity");

    let tokens = registry.get(sentiment).unwrap().model().random_tokens(12, 44);
    let ((), report) = serve_registry(&registry, serve_config(), |handle| {
        // Both foreign ids bounce, in-range position notwithstanding.
        for foreign in [foreign_sentiment, foreign_topic] {
            assert_eq!(
                handle.submit_to(foreign, tokens.clone()).unwrap_err(),
                SubmitError::UnknownModel { model: foreign }
            );
        }
        // The engine's own ids still route.
        handle.submit_to(sentiment, tokens.clone()).unwrap().wait();
    });
    assert_eq!(report.aggregate.completed, 1);
    assert_eq!(report.aggregate.submitted, 1);
    // The foreign registry still resolves its own ids.
    assert!(foreign_registry.get(foreign_sentiment).is_some());
}

/// A flooding model is capped by its admission quota: the victim model
/// keeps queue space and every shed request gets a typed rejection.
#[test]
fn flooding_model_is_quota_capped_and_victim_keeps_queue_space() {
    let (mut registry, flooder, victim) = two_head_registry();
    registry.set_serve_config(
        flooder,
        ModelServeConfig { queue_quota: Some(3), ..ModelServeConfig::default() },
    );
    // Tight shared capacity: without the quota the flooder could own all
    // 8 slots and the victim's blocking submit would stall behind it.
    let config = ServeConfig {
        workers: 1,
        max_batch: 2,
        max_wait: Duration::from_millis(1),
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let flood_tokens = registry.get(flooder).unwrap().model().random_tokens(12, 7);
    let victim_tokens = registry.get(victim).unwrap().model().random_tokens(12, 8);
    let ((), report) = serve_registry(&registry, config, |handle| {
        let mut kept = Vec::new();
        let mut shed = 0u64;
        for _ in 0..40 {
            match handle.submit_to(flooder, flood_tokens.clone()) {
                Ok(t) => kept.push(t),
                Err(SubmitError::ModelQuotaExceeded { model, quota }) => {
                    assert_eq!(model, flooder);
                    assert_eq!(quota, 3);
                    shed += 1;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert!(shed > 0, "a 40-deep flood against quota 3 must shed");
        // The flooder never holds more than its quota of the queue, so
        // the victim's submission is admitted without blocking on flood
        // traffic.
        assert!(handle.model_queue_depth(flooder).unwrap() <= 3);
        let t = handle.submit_to(victim, victim_tokens.clone()).unwrap();
        t.wait();
        for t in kept {
            t.wait();
        }
    });
    assert_eq!(report.model("topic").unwrap().rejected_quota, 0);
    assert!(report.model("sentiment").unwrap().rejected_quota > 0);
    assert_per_model_sums_to_aggregate(&report);
}

/// Per-model `ServeConfig` overrides: the overridden model batches by
/// its own policy while the other model keeps the engine default.
#[test]
fn per_model_batching_overrides_do_not_leak_across_models() {
    let (mut registry, small, big) = two_head_registry();
    registry.set_serve_config(
        small,
        ModelServeConfig { max_batch: Some(1), ..ModelServeConfig::default() },
    );
    let config = ServeConfig {
        workers: 1,
        max_batch: 8,
        max_wait: Duration::from_millis(50),
        queue_capacity: 32,
        ..ServeConfig::default()
    };
    let small_tokens = registry.get(small).unwrap().model().random_tokens(12, 1);
    let big_tokens = registry.get(big).unwrap().model().random_tokens(12, 2);
    let (sizes, _) = serve_registry(&registry, config, |handle| {
        let mut tickets = Vec::new();
        for _ in 0..5 {
            tickets.push((small, handle.submit_to(small, small_tokens.clone()).unwrap()));
            tickets.push((big, handle.submit_to(big, big_tokens.clone()).unwrap()));
        }
        tickets.into_iter().map(|(id, t)| (id, t.wait().batch_size)).collect::<Vec<_>>()
    });
    assert!(
        sizes.iter().all(|(id, s)| *id != small || *s == 1),
        "overridden model coalesced past its cap: {sizes:?}"
    );
    assert!(
        sizes.iter().any(|(id, s)| *id == big && *s > 1),
        "default-policy model failed to coalesce under a 1-worker backlog: {sizes:?}"
    );
}

/// The same report family taken live from a running engine: the
/// aggregate, and each model's scope in registration order.
fn live_report(handle: &ServeHandle<'_>, models: &[(&str, ModelId)]) -> ServeReport {
    ServeReport {
        aggregate: handle.metrics(),
        per_model: models
            .iter()
            .map(|&(name, id)| (name.to_owned(), handle.model_metrics(id).unwrap()))
            .collect(),
    }
}

/// The non-blocking one-shot path: a full shared queue bounces with
/// `QueueFull`, counted in `rejected_full` for the model and the
/// aggregate alike.
#[test]
fn try_submit_to_a_full_queue_bounces_and_is_counted_per_model() {
    let (registry, sentiment, _) = two_head_registry();
    // One worker, singleton batches and two queue slots: rapid-fire
    // submissions outrun the worker within a few attempts.
    let config = ServeConfig {
        workers: 1,
        max_batch: 1,
        max_wait: Duration::from_millis(1),
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let tokens = registry.get(sentiment).unwrap().model().random_tokens(16, 3);
    let (bounced, report) = serve_registry(&registry, config, |handle| {
        let mut tickets = Vec::new();
        let mut bounced = 0u64;
        for _ in 0..1_000 {
            match handle.try_submit_to(sentiment, tokens.clone()) {
                Ok(ticket) => tickets.push(ticket),
                Err(SubmitError::QueueFull) => {
                    bounced += 1;
                    break;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert!(bounced > 0, "1000 rapid submissions never filled a 2-slot queue");
        for ticket in tickets {
            ticket.wait();
        }
        bounced
    });
    assert_eq!(report.aggregate.rejected_full, bounced);
    assert_eq!(report.model("sentiment").unwrap().rejected_full, bounced);
    assert_eq!(report.model("topic").unwrap().rejected_full, 0);
    assert_eq!(report.aggregate.completed, report.aggregate.submitted);
    assert_per_model_sums_to_aggregate(&report);
}

/// The blocking generation path sheds at the model's admission quota
/// just like one-shots do, and counts it in `rejected_quota`.
#[test]
fn generation_at_model_quota_is_shed_and_counted() {
    let (mut registry, sentiment, topic) = two_head_registry();
    registry.set_serve_config(
        sentiment,
        ModelServeConfig { queue_quota: Some(1), ..ModelServeConfig::default() },
    );
    let config = ServeConfig { workers: 1, ..serve_config() };
    let prompt = registry.get(sentiment).unwrap().model().random_tokens(8, 4);
    let busy = registry.get(topic).unwrap().model().random_tokens(16, 5);
    let (shed, report) = serve_registry(&registry, config, |handle| {
        // A topic backlog keeps the single worker busy, so an accepted
        // generation stays queued and holds sentiment's one slot.
        let tickets: Vec<_> =
            (0..4).map(|_| handle.submit_to(topic, busy.clone()).unwrap()).collect();
        let mut generations = Vec::new();
        let mut shed = 0u64;
        for _ in 0..200 {
            match handle.submit_generate_to(sentiment, prompt.clone(), 4, None) {
                Ok(ticket) => generations.push(ticket),
                Err(SubmitError::ModelQuotaExceeded { model, quota }) => {
                    assert_eq!((model, quota), (sentiment, 1));
                    shed += 1;
                    break;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert!(shed > 0, "no generation was shed at a quota of 1");
        for ticket in tickets {
            ticket.wait();
        }
        for generation in generations {
            assert_eq!(generation.wait().tokens.len(), 4);
        }
        shed
    });
    assert_eq!(report.aggregate.rejected_quota, shed);
    assert_eq!(report.model("sentiment").unwrap().rejected_quota, shed);
    assert_eq!(report.model("topic").unwrap().rejected_quota, 0);
    assert_per_model_sums_to_aggregate(&report);
}

/// `metrics()`, `model_metrics()` and `queue_depth()` read from inside a
/// running engine: after mixed traffic (served, invalid, shed and
/// generated), the live per-model columns sum to the live aggregate.
#[test]
fn live_per_model_metrics_sum_to_the_live_aggregate() {
    let (mut registry, sentiment, topic) = two_head_registry();
    registry.set_serve_config(
        topic,
        ModelServeConfig { queue_quota: Some(1), ..ModelServeConfig::default() },
    );
    let models = [("sentiment", sentiment), ("topic", topic)];
    let tokens = registry.get(sentiment).unwrap().model().random_tokens(12, 6);
    let ((), report) =
        serve_registry(&registry, ServeConfig { workers: 1, ..serve_config() }, |handle| {
            let mut tickets = Vec::new();
            for _ in 0..6 {
                tickets.push(handle.submit_to(sentiment, tokens.clone()).unwrap());
                // Quota 1 on topic: some of these may be shed.
                if let Ok(ticket) = handle.submit_to(topic, tokens.clone()) {
                    tickets.push(ticket);
                }
            }
            assert!(handle.submit_to(topic, vec![]).is_err());
            assert!(handle.submit_generate_to(sentiment, tokens.clone(), 0, None).is_err());
            let generation = handle.submit_generate_to(sentiment, tokens.clone(), 3, None).unwrap();
            // Mid-run: the live aggregate has seen every accepted submission.
            let live = handle.metrics();
            assert_eq!(live.submitted, tickets.len() as u64 + 1);
            assert!(handle.queue_depth() <= live.submitted as usize);
            // Once every claim is answered the engine is idle: counters are
            // final and the queue is empty.
            tickets.into_iter().for_each(|t| drop(t.wait()));
            generation.wait();
            assert_eq!(handle.queue_depth(), 0);
            let live = live_report(handle, &models);
            assert_per_model_sums_to_aggregate(&live);
            assert_eq!(live.aggregate.completed, live.aggregate.submitted);
            assert_eq!(live.aggregate.rejected_invalid, 2);
            assert_eq!(live.model("topic").unwrap().rejected_invalid, 1);
            assert_eq!(live.aggregate.generated_tokens, 3);
        });
    assert_per_model_sums_to_aggregate(&report);
}
