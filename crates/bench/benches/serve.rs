//! Throughput/latency baseline for the `mokey-serve` engine: seeded
//! multi-client load swept over `max_batch ∈ {1, 8, 16}` on one model,
//! plus a two-model registry sweep (per-model requests/second and
//! cross-model dictionary-cache hits), a **fairness** sweep (a flooding
//! model with and without an admission quota vs the victim model's solo
//! p99), a **decode** sweep (seeded generations through the fused
//! per-token decode slices, once per execution mode — decoded-GEMM vs
//! index-domain LUT — with tokens/second and per-generated-token
//! p50/p99 recorded per mode, plus
//! a mixed decode + one-shot scenario pinning the one-shot p99 within
//! 4x of its solo baseline), and a **network** sweep (the same seeded
//! load through the TCP frontend's wire protocol vs in-process
//! submission), reported with
//! p50/p99 latency and packed-execution counters (packed batches, pad
//! waste) and written to `BENCH_serve.json` at the workspace root so
//! future PRs have a serving-perf trajectory to compare against.
//! `host_parallelism` is recorded so the trajectory is interpretable
//! across machines.
//!
//! `cargo bench -p mokey-bench --bench serve -- --quick-check` keeps the
//! per-run load full-size (the batching assertion needs steady-state
//! margins, not coalescing-latency noise) but runs fewer repetitions,
//! shrinks the criterion sampling, and never rewrites the committed
//! baseline. It **asserts** three properties: batching pays (best
//! requests/second at `max_batch = 8` at least the `max_batch = 1`
//! figure on multi-core hosts, parity within noise on a single core);
//! an admission quota keeps a flooded victim's p99 near its solo
//! baseline; and the socket path's throughput stays within ~10% of
//! in-process submission (a relaxed floor under `--quick-check`, where
//! fewer repetitions leave more scheduler noise).

use criterion::{criterion_group, criterion_main, Criterion};
use mokey_serve::{
    drive_socket_clients, serve, serve_net, serve_registry, ExecMode, LoadGen, MetricsReport,
    ModelRegistry, ModelServeConfig, NetConfig, PreparedModel, ServeConfig, ServeReport,
    SocketLoadReport,
};
use mokey_transformer::model::{Head, Model};
use mokey_transformer::{ModelConfig, QuantizeSpec};
use std::path::PathBuf;
use std::time::Duration;

/// Workspace root: the first ancestor whose `Cargo.toml` declares
/// `[workspace]` (mirrors `mokey_eval::report::results_dir`).
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for _ in 0..4 {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            break;
        }
    }
    PathBuf::from(".")
}

fn quick_check() -> bool {
    std::env::args().any(|a| a == "--quick-check")
}

/// The single-model substrate lives in a registry so the same prepared
/// weights serve both the in-process sweeps (via [`ModelRegistry::get`])
/// and the TCP frontend (which resolves the model by wire name).
fn prepare() -> ModelRegistry {
    let config = ModelConfig::bert_base().scaled(6, 6);
    let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 2025);
    let profile: Vec<Vec<usize>> = (0..4).map(|s| model.random_tokens(24, 500 + s)).collect();
    let mut registry = ModelRegistry::new();
    registry
        .register("classify", model, QuantizeSpec::weights_and_activations(), &profile)
        .expect("non-degenerate model");
    registry
}

/// Two task heads over one encoder behind one shared session; returns
/// the registry plus the cross-model dictionary-cache hits the second
/// registration scored.
fn prepare_registry() -> (ModelRegistry, usize) {
    let config = ModelConfig::bert_base().scaled(6, 6);
    let profile: Vec<Vec<usize>> = (0..4)
        .map(|s| Model::synthesize(&config, Head::Span, 2025).random_tokens(24, 500 + s))
        .collect();
    let spec = QuantizeSpec::weights_and_activations();
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "sentiment",
            Model::synthesize(&config, Head::Classification { classes: 3 }, 2025),
            spec,
            &profile,
        )
        .expect("non-degenerate model");
    registry
        .register(
            "topic",
            Model::synthesize(&config, Head::Classification { classes: 5 }, 2025),
            spec,
            &profile,
        )
        .expect("non-degenerate model");
    let hits = registry.cache_stats().hits;
    (registry, hits)
}

/// Drives interleaved two-model load (one client thread per model per
/// `clients` count) through a registry engine.
fn run_multi_model_load(
    registry: &ModelRegistry,
    max_batch: usize,
    clients_per_model: usize,
    requests_per_client: usize,
) -> ServeReport {
    let config = ServeConfig {
        workers: 2,
        max_batch,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let ((), report) = serve_registry(registry, config, |handle| {
        std::thread::scope(|scope| {
            for (id, _, prepared) in registry.iter() {
                for c in 0..clients_per_model {
                    let model = prepared.model();
                    scope.spawn(move || {
                        let mut traffic =
                            LoadGen::new(model, 9500 + id.index() as u64 * 100 + c as u64);
                        let tickets: Vec<_> = traffic
                            .requests(requests_per_client)
                            .into_iter()
                            .map(|t| handle.submit_to(id, t).expect("valid request"))
                            .collect();
                        for ticket in tickets {
                            let _ = ticket.wait();
                        }
                    });
                }
            }
        })
    });
    report
}

/// Drives `requests` seeded requests from `clients` client threads
/// through an engine at the given batching setting and execution mode.
fn run_load_mode(
    prepared: &PreparedModel,
    max_batch: usize,
    clients: usize,
    requests_per_client: usize,
    mode: ExecMode,
) -> MetricsReport {
    let config = ServeConfig {
        workers: 2,
        max_batch,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        mode,
        ..ServeConfig::default()
    };
    let ((), report) = serve(prepared, config, |handle| {
        std::thread::scope(|scope| {
            for c in 0..clients {
                scope.spawn(move || {
                    let mut traffic = LoadGen::new(prepared.model(), 9000 + c as u64);
                    let tickets: Vec<_> = traffic
                        .requests(requests_per_client)
                        .into_iter()
                        .map(|t| handle.submit(t).expect("valid request"))
                        .collect();
                    for ticket in tickets {
                        let _ = ticket.wait();
                    }
                });
            }
        })
    });
    report
}

/// [`run_load_mode`] on the default decoded-GEMM execution path.
fn run_load(
    prepared: &PreparedModel,
    max_batch: usize,
    clients: usize,
    requests_per_client: usize,
) -> MetricsReport {
    run_load_mode(prepared, max_batch, clients, requests_per_client, ExecMode::Decoded)
}

/// Drives seeded decode traffic: `clients` threads each submit
/// `gens_per_client` generations (prompt from the LoadGen band, up to
/// `max_new` new tokens, no EOS) and stream them to completion on the
/// given execution mode. The engine report carries the decode figures:
/// generated tokens, decode slices, tokens/second, and the
/// per-generated-token latency histogram.
fn run_decode_load(
    prepared: &PreparedModel,
    clients: usize,
    gens_per_client: usize,
    max_new: usize,
    mode: ExecMode,
) -> MetricsReport {
    let config = ServeConfig {
        workers: 2,
        max_batch: 8,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        mode,
        ..ServeConfig::default()
    };
    let ((), report) = serve(prepared, config, |handle| {
        std::thread::scope(|scope| {
            for c in 0..clients {
                scope.spawn(move || {
                    let mut traffic = LoadGen::new(prepared.model(), 9700 + c as u64);
                    let tickets: Vec<_> = traffic
                        .generates(gens_per_client, max_new)
                        .into_iter()
                        .map(|(prompt, max_tokens)| {
                            handle.submit_generate(prompt, max_tokens, None).expect("admitted")
                        })
                        .collect();
                    for ticket in tickets {
                        let _ = ticket.wait();
                    }
                });
            }
        })
    });
    report
}

/// One mixed-traffic scenario on the fairness substrate (one worker,
/// tiny batches): `gen_threads` closed-loop decode clients each run
/// `gens_per_thread` sequential generations against "sentiment" — each
/// generation re-entering the queue between tokens — while "topic" runs
/// its sequential closed loop of one-shots. Closed-loop generators keep
/// steady decode pressure (always `gen_threads` generations in flight)
/// without the t=0 prefill herd a fully pipelined burst would park in
/// front of the victim's first request. Per-token re-entry is what
/// keeps the victim's p99 bounded: a one-shot never waits behind more
/// than the in-flight token slices, each one fused step.
fn run_mixed_decode_load(
    registry: &ModelRegistry,
    gen_threads: usize,
    gens_per_thread: usize,
    max_new: usize,
    victim_requests: usize,
) -> ServeReport {
    let config = ServeConfig {
        workers: 1,
        max_batch: 2,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let generator = registry.lookup("sentiment").expect("registered");
    let victim = registry.lookup("topic").expect("registered");
    let ((), report) = serve_registry(registry, config, |handle| {
        std::thread::scope(|scope| {
            for g in 0..gen_threads {
                let model = registry.get(generator).unwrap().model();
                scope.spawn(move || {
                    let mut traffic = LoadGen::new(model, 4300 + g as u64);
                    for (prompt, max_tokens) in traffic.generates(gens_per_thread, max_new) {
                        let ticket = handle
                            .submit_generate_to(generator, prompt, max_tokens, None)
                            .expect("generation admitted");
                        let _ = ticket.wait();
                    }
                });
            }
            let model = registry.get(victim).unwrap().model();
            scope.spawn(move || {
                let mut traffic = LoadGen::new(model, 4200);
                for tokens in traffic.requests(victim_requests) {
                    let ticket = handle.submit_to(victim, tokens).expect("victim admitted");
                    let _ = ticket.wait();
                }
            });
        })
    });
    report
}

/// The same seeded, pipelined load as [`run_load`], but through the TCP
/// frontend: every request crosses the wire protocol twice.
fn run_socket_load(
    registry: &ModelRegistry,
    max_batch: usize,
    clients: usize,
    requests_per_client: usize,
) -> SocketLoadReport {
    let config = ServeConfig {
        workers: 2,
        max_batch,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let model = registry.get(registry.lookup("classify").expect("registered")).unwrap().model();
    let (load, _report) = serve_net(registry, config, NetConfig::default(), |net| {
        drive_socket_clients(
            &net.addr().to_string(),
            model,
            "classify",
            clients,
            requests_per_client,
            9000,
        )
        .expect("socket load")
    })
    .expect("bind loopback");
    load
}

/// One fairness scenario on a single-worker engine: "sentiment" floods
/// `flood_requests` pipelined submissions while "topic" (the victim)
/// runs a closed loop of `victim_requests` sequential requests. With
/// `flood_requests = 0` this measures the victim's solo baseline. The
/// flooder's admission quota — or its absence — comes from the
/// registry's per-model serve config, set by the caller.
fn run_fairness_load(
    registry: &ModelRegistry,
    flood_requests: usize,
    victim_requests: usize,
) -> ServeReport {
    let config = ServeConfig {
        workers: 1,
        max_batch: 2,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let flooder = registry.lookup("sentiment").expect("registered");
    let victim = registry.lookup("topic").expect("registered");
    let ((), report) = serve_registry(registry, config, |handle| {
        std::thread::scope(|scope| {
            if flood_requests > 0 {
                let model = registry.get(flooder).unwrap().model();
                scope.spawn(move || {
                    let mut traffic = LoadGen::new(model, 4100);
                    // Quota-shed submissions are the point of the
                    // capped scenario; only admitted tickets are waited.
                    let tickets: Vec<_> = traffic
                        .requests(flood_requests)
                        .into_iter()
                        .filter_map(|t| handle.submit_to(flooder, t).ok())
                        .collect();
                    for ticket in tickets {
                        let _ = ticket.wait();
                    }
                });
            }
            let model = registry.get(victim).unwrap().model();
            scope.spawn(move || {
                let mut traffic = LoadGen::new(model, 4200);
                for tokens in traffic.requests(victim_requests) {
                    let ticket = handle.submit_to(victim, tokens).expect("victim admitted");
                    let _ = ticket.wait();
                }
            });
        })
    });
    report
}

/// The victim model's p99 out of a fairness run's per-model metrics.
fn victim_p99(report: &ServeReport) -> Duration {
    report
        .per_model
        .iter()
        .find(|(name, _)| name == "topic")
        .map(|(_, r)| r.latency_p99)
        .expect("victim served")
}

fn bench(c: &mut Criterion) {
    let bench_registry = prepare();
    let prepared =
        bench_registry.get(bench_registry.lookup("classify").expect("registered")).unwrap();
    let quick = quick_check();
    // The quick load still has to reach batching steady state — a
    // handful of requests would measure coalescing latency, not
    // throughput (and the rps(8) ≥ rps(1) assertion needs the margin to
    // clear scheduler noise, so the quick *per-run* load matches the
    // full one; quick mode economizes on repetitions instead).
    let (clients, per_client) = (4, 16);

    // Bit-identity check: the batched engine path must produce exactly
    // the sequential single-request outputs (the acceptance invariant of
    // the serving subsystem).
    let probe = LoadGen::new(prepared.model(), 31).requests(6);
    let (engine_outputs, _) =
        serve(prepared, ServeConfig { max_batch: 6, ..ServeConfig::default() }, |handle| {
            let tickets: Vec<_> = probe.iter().map(|t| handle.submit(t.clone()).unwrap()).collect();
            tickets.into_iter().map(|t| t.wait().output).collect::<Vec<_>>()
        });
    for (tokens, out) in probe.iter().zip(&engine_outputs) {
        assert_eq!(out, &prepared.infer(tokens).0, "engine output diverged from sequential");
    }

    // The baseline: the same seeded load swept over the batching
    // settings. Each setting takes the best of five runs, with the
    // repetitions *interleaved* across settings (1, 8, 16, 1, 8, 16, …)
    // so a slow window on a noisy host depresses every setting equally
    // instead of sinking whichever one it landed on — the committed
    // trajectory (and the CI assertion) reflects capability, not
    // scheduler noise.
    const SETTINGS: [usize; 3] = [1, 8, 16];
    let reps = if quick { 3 } else { 5 };
    let mut best_report: std::collections::BTreeMap<usize, MetricsReport> =
        std::collections::BTreeMap::new();
    for _ in 0..reps {
        for max_batch in SETTINGS {
            let report = run_load(prepared, max_batch, clients, per_client);
            let slot = best_report.entry(max_batch).or_insert(report);
            if report.requests_per_sec > slot.requests_per_sec {
                *slot = report;
            }
        }
    }
    let mut settings_json = Vec::new();
    let mut best_by_batch = std::collections::BTreeMap::new();
    for max_batch in SETTINGS {
        let report = best_report[&max_batch];
        best_by_batch.insert(max_batch, report.requests_per_sec);
        println!(
            "[serve] max_batch {:>2}: {:>7.1} req/s, mean batch {:.2}, {} packed batches, pad waste {:.2}%, p50 {:.3} ms, p99 {:.3} ms",
            max_batch,
            report.requests_per_sec,
            report.mean_batch_size,
            report.packed_batches,
            100.0 * report.pad_waste,
            report.latency_p50.as_secs_f64() * 1e3,
            report.latency_p99.as_secs_f64() * 1e3,
        );
        settings_json.push(format!(
            "    {{\n      \"max_batch\": {},\n      \"clients\": {},\n      \"requests\": {},\n      \"requests_per_sec\": {:.1},\n      \"mean_batch_size\": {:.3},\n      \"batches_formed\": {},\n      \"packed_batches\": {},\n      \"packed_requests\": {},\n      \"pad_waste\": {:.4},\n      \"latency_p50_ms\": {:.3},\n      \"latency_p99_ms\": {:.3},\n      \"values_per_sec\": {:.0}\n    }}",
            max_batch,
            clients,
            clients * per_client,
            report.requests_per_sec,
            report.mean_batch_size,
            report.batches_formed,
            report.packed_batches,
            report.packed_requests,
            report.pad_waste,
            report.latency_p50.as_secs_f64() * 1e3,
            report.latency_p99.as_secs_f64() * 1e3,
            report.values_per_sec,
        ));
    }
    // Batching must keep paying; this runs in CI via --quick-check. On a
    // host with ≥2 cores the packed tall GEMMs now thread (they cross the
    // parallel row-chunk threshold; solo per-request shapes stay below
    // it), so max_batch=8 has a structural advantage the solo loop cannot
    // reach and must win outright. A single core cannot thread anything —
    // there the packed path can only tie the solo loop (GEMM zero-skipping
    // already drops pad rows), and strict ≥ on a true tie is a coin flip,
    // so the assertion requires parity within measurement noise instead;
    // it still fails on any real batching regression.
    let single_core = std::thread::available_parallelism().map_or(1, |n| n.get()) < 2;
    let floor = if single_core { 0.95 } else { 1.0 };
    let (rps1, rps8) = (best_by_batch[&1], best_by_batch[&8]);
    println!(
        "[serve] batching margin: {:+.1}% (max_batch=8 vs 1, {})",
        100.0 * (rps8 - rps1) / rps1,
        if single_core { "single-core parity check" } else { "multi-core strict check" },
    );
    assert!(
        rps8 >= rps1 * floor,
        "batching lost throughput: max_batch=8 at {rps8:.1} req/s vs max_batch=1 at {rps1:.1} req/s"
    );

    // The execution-mode sweep: the identical load at max_batch 8 on the
    // decoded-GEMM path vs the index-domain LUT path (projection/FFN
    // GEMMs on codes via pair-LUTs). Outputs are bit-identical either
    // way — the integration tests pin that — so this records the pure
    // throughput trade: in software a dense f32 GEMM on decoded
    // centroids vectorizes better than a table gather per MAC, while the
    // LUT path is the faithful software view of the accelerator's
    // index-domain datapath (and beats the histogram kernel by an order
    // of magnitude; see `BENCH_kernels.json`).
    let mut mode_json = Vec::new();
    for (label, mode) in [("decoded", ExecMode::Decoded), ("index_domain", ExecMode::IndexDomain)] {
        let mut best: Option<MetricsReport> = None;
        for _ in 0..reps {
            let report = run_load_mode(prepared, 8, clients, per_client, mode);
            assert_eq!(
                report.completed,
                (clients * per_client) as u64,
                "{label} mode dropped requests"
            );
            if best.as_ref().is_none_or(|b| report.values_per_sec > b.values_per_sec) {
                best = Some(report);
            }
        }
        let report = best.expect("mode runs executed");
        println!(
            "[serve] mode {label:<12}: {:>7.1} req/s, {:>12.0} values/s, p50 {:.3} ms, p99 {:.3} ms",
            report.requests_per_sec,
            report.values_per_sec,
            report.latency_p50.as_secs_f64() * 1e3,
            report.latency_p99.as_secs_f64() * 1e3,
        );
        mode_json.push(format!(
            "    {{\n      \"mode\": \"{label}\",\n      \"max_batch\": 8,\n      \"requests_per_sec\": {:.1},\n      \"values_per_sec\": {:.0},\n      \"latency_p50_ms\": {:.3},\n      \"latency_p99_ms\": {:.3}\n    }}",
            report.requests_per_sec,
            report.values_per_sec,
            report.latency_p50.as_secs_f64() * 1e3,
            report.latency_p99.as_secs_f64() * 1e3,
        ));
    }

    // The two-model registry sweep: same per-model load through one
    // shared worker pool, recording per-model requests/second and the
    // cross-model dictionary-cache hits scored at registration.
    let (mut registry, cross_model_hits) = prepare_registry();
    let mut multi_best: Option<ServeReport> = None;
    for _ in 0..if quick { 2 } else { 3 } {
        let report = run_multi_model_load(&registry, 8, 2, per_client / 2);
        if multi_best
            .as_ref()
            .is_none_or(|b| report.aggregate.requests_per_sec > b.aggregate.requests_per_sec)
        {
            multi_best = Some(report);
        }
    }
    let multi = multi_best.expect("three runs executed");
    println!(
        "[serve] 2-model  : {:>7.1} req/s aggregate, {} cross-model dict-cache hits",
        multi.aggregate.requests_per_sec, cross_model_hits,
    );
    let mut per_model_json = Vec::new();
    for (name, r) in &multi.per_model {
        println!(
            "[serve]   {name:<10}: {:>7.1} req/s, {} completed, p99 {:.3} ms",
            r.requests_per_sec,
            r.completed,
            r.latency_p99.as_secs_f64() * 1e3,
        );
        per_model_json.push(format!(
            "      {{\n        \"model\": \"{name}\",\n        \"requests_per_sec\": {:.1},\n        \"completed\": {},\n        \"latency_p99_ms\": {:.3}\n      }}",
            r.requests_per_sec,
            r.completed,
            r.latency_p99.as_secs_f64() * 1e3,
        ));
    }
    assert!(cross_model_hits > 0, "identical-stats tensors failed to hit the shared dict cache");

    // The fairness sweep: can a flooding model starve another model's
    // latency? One worker, tiny batches, a deep shared queue.
    // "sentiment" floods pipelined requests while "topic" (the victim)
    // runs a sequential closed loop. Without a quota the flood parks
    // tens of requests ahead of every victim arrival; with a
    // `queue_quota` on the flooder, everything beyond the cap is shed at
    // admission and the victim's p99 stays near its solo baseline. Each
    // scenario takes the best (lowest victim p99) of a few runs so the
    // committed figures reflect the policy, not a scheduler hiccup.
    let (flood_requests, victim_requests) = (200, 16);
    let fair_reps = if quick { 2 } else { 3 };
    let solo_p99 = (0..fair_reps)
        .map(|_| victim_p99(&run_fairness_load(&registry, 0, victim_requests)))
        .min()
        .expect("solo runs executed");
    let flooded_p99 = (0..fair_reps)
        .map(|_| victim_p99(&run_fairness_load(&registry, flood_requests, victim_requests)))
        .min()
        .expect("flooded runs executed");
    let flooder_quota = 2;
    let flooder_id = registry.lookup("sentiment").expect("registered");
    registry.set_serve_config(
        flooder_id,
        ModelServeConfig { queue_quota: Some(flooder_quota), ..ModelServeConfig::default() },
    );
    let mut capped_best: Option<ServeReport> = None;
    for _ in 0..fair_reps {
        let report = run_fairness_load(&registry, flood_requests, victim_requests);
        if capped_best.as_ref().is_none_or(|b| victim_p99(&report) < victim_p99(b)) {
            capped_best = Some(report);
        }
    }
    registry.set_serve_config(flooder_id, ModelServeConfig::default());
    let capped = capped_best.expect("capped runs executed");
    let capped_p99 = victim_p99(&capped);
    let flood_shed = capped.aggregate.rejected_quota;
    println!(
        "[serve] fairness : victim p99 solo {:.3} ms | flooded {:.3} ms | quota({flooder_quota}) {:.3} ms ({flood_shed} of {flood_requests} flood requests shed)",
        solo_p99.as_secs_f64() * 1e3,
        flooded_p99.as_secs_f64() * 1e3,
        capped_p99.as_secs_f64() * 1e3,
    );
    assert!(flood_shed > 0, "the admission quota never shed a {flood_requests}-request flood");
    // The quota bounds how much flood work a victim request can queue
    // behind (quota + one in-flight batch), so its p99 is the solo
    // figure plus a small constant — nothing like the unbounded case
    // (observed ~37× solo on a single core). 4× + 10 ms gives the
    // constant generous noise headroom while staying an order of
    // magnitude below what an uncapped flood inflicts.
    assert!(
        capped_p99.as_secs_f64() <= solo_p99.as_secs_f64() * 4.0 + 0.010,
        "quota failed to protect the victim: p99 {:.3} ms under a capped flood vs {:.3} ms solo",
        capped_p99.as_secs_f64() * 1e3,
        solo_p99.as_secs_f64() * 1e3,
    );

    // The decode sweep: seeded generations through the fused per-token
    // decode slices, run once per execution mode — the decoded-GEMM
    // default and the index-domain LUT path (decode steps hit the
    // quantized KV cache either way; outputs are pinned bit-identical by
    // the integration tests). Each generation prefills once, then
    // re-enters the queue per token; tokens/second per mode and the
    // per-generated-token latency percentiles are the committed figures.
    let (decode_clients, gens_per_client, max_new) = (4, 4, 8);
    let mut decode_mode_json = Vec::new();
    let mut decode_by_mode: Vec<(&str, MetricsReport)> = Vec::new();
    for (label, mode) in [("decoded", ExecMode::Decoded), ("index_domain", ExecMode::IndexDomain)] {
        let mut decode_best: Option<MetricsReport> = None;
        for _ in 0..if quick { 2 } else { 3 } {
            let report = run_decode_load(prepared, decode_clients, gens_per_client, max_new, mode);
            assert_eq!(
                report.completed,
                (decode_clients * gens_per_client) as u64,
                "{label} decode load dropped generations"
            );
            assert!(report.generated_tokens > 0, "{label} decode load produced no tokens");
            if decode_best.as_ref().is_none_or(|b| report.tokens_per_sec > b.tokens_per_sec) {
                decode_best = Some(report);
            }
        }
        let report = decode_best.expect("decode runs executed");
        println!(
            "[serve] decode {label:<12}: {:>7.1} tokens/s ({} tokens in {} slices), per-token p50 {:.3} ms, p99 {:.3} ms",
            report.tokens_per_sec,
            report.generated_tokens,
            report.decode_steps,
            report.per_token_p50.as_secs_f64() * 1e3,
            report.per_token_p99.as_secs_f64() * 1e3,
        );
        decode_mode_json.push(format!(
            "      {{\n        \"mode\": \"{label}\",\n        \"tokens_per_sec\": {:.1},\n        \"per_token_p50_ms\": {:.3},\n        \"per_token_p99_ms\": {:.3}\n      }}",
            report.tokens_per_sec,
            report.per_token_p50.as_secs_f64() * 1e3,
            report.per_token_p99.as_secs_f64() * 1e3,
        ));
        decode_by_mode.push((label, report));
    }
    // The headline decode figures stay on the decoded-GEMM default so
    // the committed trajectory remains comparable across PRs.
    let decode = decode_by_mode[0].1;

    // Mixed decode + one-shot fairness: concurrent generations on one
    // model must not starve another model's one-shot latency, because
    // every generation yields the worker back after each token. The
    // victim's p99 under mixed load is asserted within 4x of its solo
    // baseline (the fairness solo run: same worker/batch config, same
    // seeded closed loop), plus the same 10 ms noise constant the quota
    // check uses.
    let (gen_threads, gens_per_thread) = (3, 4);
    let mixed_p99 = (0..fair_reps)
        .map(|_| {
            victim_p99(&run_mixed_decode_load(
                &registry,
                gen_threads,
                gens_per_thread,
                max_new,
                victim_requests,
            ))
        })
        .min()
        .expect("mixed runs executed");
    let mixed_ratio = mixed_p99.as_secs_f64() / solo_p99.as_secs_f64().max(1e-9);
    println!(
        "[serve] mixed    : one-shot p99 {:.3} ms under {gen_threads} closed-loop generation streams vs {:.3} ms solo ({mixed_ratio:.2}x)",
        mixed_p99.as_secs_f64() * 1e3,
        solo_p99.as_secs_f64() * 1e3,
    );
    assert!(
        mixed_p99.as_secs_f64() <= solo_p99.as_secs_f64() * 4.0 + 0.010,
        "per-token decode slices failed to protect one-shots: p99 {:.3} ms mixed vs {:.3} ms solo",
        mixed_p99.as_secs_f64() * 1e3,
        solo_p99.as_secs_f64() * 1e3,
    );

    // The network sweep: the identical pipelined load (same clients ×
    // requests, max_batch 8) driven through the TCP frontend instead of
    // in-process submission. Every request pays two wire crossings and
    // the per-connection reader/writer hop; throughput must stay within
    // ~10% of the in-process figure (relaxed under --quick-check, where
    // fewer repetitions leave more scheduler noise on a busy host).
    let mut net_best: Option<SocketLoadReport> = None;
    for _ in 0..if quick { 2 } else { 3 } {
        let load = run_socket_load(&bench_registry, 8, clients, per_client);
        assert_eq!(load.completed, (clients * per_client) as u64, "socket load dropped requests");
        assert_eq!(load.rejected, 0, "socket load saw rejections on an uncapped model");
        if net_best.as_ref().is_none_or(|b| load.requests_per_sec > b.requests_per_sec) {
            net_best = Some(load);
        }
    }
    let net = net_best.expect("network runs executed");
    let wire_ratio = net.requests_per_sec / rps8;
    println!(
        "[serve] network  : {:>7.1} req/s over TCP ({:.1}% of {:.1} in-process), p50 {:.3} ms, p99 {:.3} ms",
        net.requests_per_sec,
        100.0 * wire_ratio,
        rps8,
        net.latency_p50.as_secs_f64() * 1e3,
        net.latency_p99.as_secs_f64() * 1e3,
    );
    let mut per_connection_json = Vec::new();
    for (i, conn) in net.per_connection.iter().enumerate() {
        println!(
            "[serve]   conn {i}    : {:>3} completed, p50 {:.3} ms, p99 {:.3} ms",
            conn.completed,
            conn.latency_p50.as_secs_f64() * 1e3,
            conn.latency_p99.as_secs_f64() * 1e3,
        );
        per_connection_json.push(format!(
            "      {{\n        \"completed\": {},\n        \"latency_p50_ms\": {:.3},\n        \"latency_p99_ms\": {:.3}\n      }}",
            conn.completed,
            conn.latency_p50.as_secs_f64() * 1e3,
            conn.latency_p99.as_secs_f64() * 1e3,
        ));
    }
    // Target is ~90% of in-process (observed ~91% on a single core); the
    // floor sits a few points under it so a scheduler hiccup on a shared
    // host doesn't fail a healthy wire path, and much lower under
    // --quick-check where best-of-2 absorbs less noise.
    let net_floor = if quick { 0.7 } else { 0.85 };
    assert!(
        wire_ratio >= net_floor,
        "wire throughput fell to {:.1}% of in-process ({:.1} vs {rps8:.1} req/s; floor {:.0}%)",
        100.0 * wire_ratio,
        net.requests_per_sec,
        100.0 * net_floor,
    );

    // A quick-check pass (CI) exercises the path but must not replace
    // the committed full-load baseline with shrunken numbers.
    if quick {
        println!("[serve] quick check: baseline not rewritten");
    } else {
        let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let multi_model_json = format!(
            "  \"multi_model\": {{\n    \"models\": 2,\n    \"max_batch\": 8,\n    \"cross_model_dict_cache_hits\": {},\n    \"aggregate_requests_per_sec\": {:.1},\n    \"per_model\": [\n{}\n    ]\n  }}",
            cross_model_hits,
            multi.aggregate.requests_per_sec,
            per_model_json.join(",\n"),
        );
        let fairness_json = format!(
            "  \"fairness\": {{\n    \"workers\": 1,\n    \"max_batch\": 2,\n    \"flood_requests\": {flood_requests},\n    \"victim_requests\": {victim_requests},\n    \"flooder_quota\": {flooder_quota},\n    \"victim_p99_solo_ms\": {:.3},\n    \"victim_p99_flooded_ms\": {:.3},\n    \"victim_p99_quota_ms\": {:.3},\n    \"flood_shed\": {flood_shed}\n  }}",
            solo_p99.as_secs_f64() * 1e3,
            flooded_p99.as_secs_f64() * 1e3,
            capped_p99.as_secs_f64() * 1e3,
        );
        let decode_json = format!(
            "  \"decode\": {{\n    \"clients\": {decode_clients},\n    \"generations\": {},\n    \"max_new_tokens\": {max_new},\n    \"generated_tokens\": {},\n    \"decode_steps\": {},\n    \"tokens_per_sec\": {:.1},\n    \"per_token_p50_ms\": {:.3},\n    \"per_token_p99_ms\": {:.3},\n    \"exec_modes\": [\n{}\n    ],\n    \"mixed_oneshot_p99_solo_ms\": {:.3},\n    \"mixed_oneshot_p99_ms\": {:.3},\n    \"mixed_oneshot_p99_ratio\": {:.3}\n  }}",
            decode_clients * gens_per_client,
            decode.generated_tokens,
            decode.decode_steps,
            decode.tokens_per_sec,
            decode.per_token_p50.as_secs_f64() * 1e3,
            decode.per_token_p99.as_secs_f64() * 1e3,
            decode_mode_json.join(",\n"),
            solo_p99.as_secs_f64() * 1e3,
            mixed_p99.as_secs_f64() * 1e3,
            mixed_ratio,
        );
        let network_json = format!(
            "  \"network\": {{\n    \"clients\": {},\n    \"requests\": {},\n    \"max_batch\": 8,\n    \"requests_per_sec\": {:.1},\n    \"in_process_requests_per_sec\": {:.1},\n    \"wire_ratio\": {:.3},\n    \"latency_p50_ms\": {:.3},\n    \"latency_p99_ms\": {:.3},\n    \"per_connection\": [\n{}\n    ]\n  }}",
            clients,
            clients * per_client,
            net.requests_per_sec,
            rps8,
            wire_ratio,
            net.latency_p50.as_secs_f64() * 1e3,
            net.latency_p99.as_secs_f64() * 1e3,
            per_connection_json.join(",\n"),
        );
        let baseline = format!(
            "{{\n  \"bench\": \"serve_engine\",\n  \"model\": \"{}\",\n  \"workers\": 2,\n  \"host_parallelism\": {},\n  \"settings\": [\n{}\n  ],\n  \"exec_modes\": [\n{}\n  ],\n{},\n{},\n{},\n{}\n}}\n",
            prepared.model().config().name,
            host_parallelism,
            settings_json.join(",\n"),
            mode_json.join(",\n"),
            multi_model_json,
            fairness_json,
            decode_json,
            network_json,
        );
        let path = workspace_root().join("BENCH_serve.json");
        match std::fs::write(&path, baseline) {
            Ok(()) => println!("[serve] baseline written to {}", path.display()),
            Err(e) => println!("[serve] could not write {}: {e}", path.display()),
        }
    }

    let mut group = c.benchmark_group("serve");
    group.sample_size(if quick { 2 } else { 10 });
    group.bench_function("engine_batch1", |b| b.iter(|| run_load(prepared, 1, 2, 4).completed));
    group.bench_function("engine_batch8", |b| b.iter(|| run_load(prepared, 8, 2, 4).completed));
    group.bench_function("prepared_infer_solo", |b| {
        let tokens = prepared.model().random_tokens(24, 77);
        b.iter(|| prepared.infer(&tokens))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
