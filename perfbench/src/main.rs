//! The serving benchmark: one workload per invocation against a
//! `ModelRegistry` of BERT-Base/s6x6 behind the TCP frontend.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload classify-wire --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! traffic with spans recorded, replays it in-process through a timing
//! executor, and reports the per-layer metrics. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. See
//! `perfbench/README.md` for what each metric means.

mod client;
mod replay;
mod stats;
mod trace;

use client::{Answer, Gen, Prompt, ShotPhase};
use mokey_serve::{
    serve_net, Frame, GenSummary, LoadGen, ModelRegistry, ModelServeConfig, NetConfig,
    PreparedModel, ServeConfig, ServeReport,
};
use mokey_transformer::exec::QuantizedStats;
use mokey_transformer::{ExecMode, Head, Model, ModelConfig, QuantizeSpec, TaskOutput};
use replay::{ForwardPass, HOOK_STAGES, MODEL_STAGES};
use stats::{mean, median, ms, quantile, ratio, windowed_quantile, windowed_rate, Windowed};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use trace::Trace;

/// The registered model name every request addresses.
const MODEL_NAME: &str = "classify";
/// Weights and profiling inputs are fixed; only the traffic follows
/// `--seed`, so every seed measures the same model.
const MODEL_SEED: u64 = 2025;
const PROFILE_SEED: u64 = 500;
/// Registrations per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// How often the monitor samples the resident set while serving.
const RSS_PERIOD: Duration = Duration::from_millis(10);
/// Share of `--seconds` spent in the first phase (open loop or
/// interactive); the rest goes to the saturation or batch phase.
const FIRST_PHASE_SHARE: f64 = 0.8;
/// Requests in flight during the one-shot saturation phase.
const WINDOW: usize = 32;
/// Upper bound on saturation throughput, for pre-generating requests.
const MAX_RPS: f64 = 3000.0;
/// Generation shape: prompts of 8–16 tokens, 96 new tokens, no EOS.
const PROMPT_LEN: (usize, usize) = (8, 16);
const NEW_TOKENS: usize = 96;
/// Generations each connection pipelines in the batch phase.
const GEN_WINDOW: usize = 8;
/// Upper bound on generations per connection per second, for
/// pre-generating prompts.
const MAX_GENS_PER_S: f64 = 200.0;
/// Requests replayed through the timing executor, rounds per mode, and
/// generations replayed through `DecodeSession`.
const REPLAY_REQUESTS: usize = 64;
const REPLAY_ROUNDS: usize = 3;
const REPLAY_GENERATIONS: usize = 2;
/// Frames timed through the wire codec, and passes over them.
const FRAME_SAMPLE: usize = 512;
const FRAME_ROUNDS: usize = 20;

/// Span request ids: each phase gets its own range.
const OPEN_BASE: u64 = 1;
const SAT_BASE: u64 = 1 << 32;
const GEN_BASE: [u64; 2] = [2 << 32, 3 << 32];
const BATCH_OFFSET: u64 = 1 << 24;
const REPLAY_BASE: [u64; 3] = [8 << 32, 9 << 32, 10 << 32];

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("first_p50_ms", "ms"),
    ("first_p90_ms", "ms"),
    ("out_p50_ms", "ms"),
    ("out_p99_ms", "ms"),
    ("peak_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 39] = [
    ("pipeline.profiling_ms", "ms"),
    ("pipeline.dict_fit_ms", "ms"),
    ("pipeline.encode_ms", "ms"),
    ("pipeline.dicts_built", "count"),
    ("pipeline.pair_luts_built", "count"),
    ("engine.queue_wait_p50_ms", "ms"),
    ("engine.queue_wait_p99_ms", "ms"),
    ("engine.exec_p50_ms", "ms"),
    ("engine.mean_batch_size", "requests"),
    ("engine.packed_frac", "fraction"),
    ("engine.pad_waste", "fraction"),
    ("engine.gens_per_slice", "count"),
    ("engine.rejected", "count"),
    ("net.overhead_p50_ms", "ms"),
    ("net.frame_encode_us", "us"),
    ("net.frame_decode_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("transformer.forward_ms", "ms"),
    ("transformer.act_ms", "ms"),
    ("transformer.act_share", "fraction"),
    ("transformer.linear_ms", "ms"),
    ("transformer.snap_ms", "ms"),
    ("transformer.other_ms", "ms"),
    ("transformer.attention_ms", "ms"),
    ("transformer.layernorm_ms", "ms"),
    ("transformer.gelu_ms", "ms"),
    ("transformer.accounted_frac", "fraction"),
    ("transformer.prefill_ms", "ms"),
    ("transformer.step_p50_ms", "ms"),
    ("transformer.step_growth", "ratio"),
    ("transformer.kv_bytes_per_token", "B"),
    ("core.encode_ns_per_value", "ns"),
    ("core.outlier_frac", "fraction"),
    ("core.counter_gemms", "count"),
    ("core.pair_lut_gemms", "count"),
    ("core.lut_gmacs", "GMAC/s"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.out_p50_ms", "ms"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ClassifyWire,
    GenerateStream,
    ClassifyIndex,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "classify-wire" => Some(Self::ClassifyWire),
            "generate-stream" => Some(Self::GenerateStream),
            "classify-index" => Some(Self::ClassifyIndex),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ClassifyWire => "classify-wire",
            Self::GenerateStream => "generate-stream",
            Self::ClassifyIndex => "classify-index",
        }
    }

    /// The execution mode the registered model is served in.
    fn mode(self) -> ExecMode {
        match self {
            Self::ClassifyIndex => ExecMode::IndexDomain,
            _ => ExecMode::Decoded,
        }
    }

    /// The open-loop phase's fixed rate (req/s): well below saturation, so
    /// the tail reflects serving a request rather than a queue that grows
    /// whenever the shared host slows down.
    fn rate(self) -> f64 {
        match self {
            Self::ClassifyWire => 100.0,
            Self::ClassifyIndex => 70.0,
            Self::GenerateStream => 0.0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One metric value with the number of samples behind it and, for a
/// windowed figure, the value of each window.
#[derive(Debug, Clone)]
struct Value {
    value: f64,
    samples: usize,
    windows: Option<Windowed>,
}

#[derive(Default)]
struct Metrics(BTreeMap<&'static str, Value>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, Value { value, samples, windows: None });
    }

    fn set_windowed(&mut self, name: &'static str, w: Windowed, samples: usize) {
        self.0.insert(name, Value { value: w.value, samples, windows: Some(w) });
    }
}

/// Sent / succeeded / failed for one phase.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseCount {
    sent: usize,
    ok: usize,
    rejected: usize,
    lost: usize,
    wrong: usize,
}

impl PhaseCount {
    fn failed(&self) -> usize {
        self.rejected + self.lost + self.wrong
    }
}

/// Everything a workload run produced besides its metrics.
struct Outcome {
    phases: Vec<(&'static str, PhaseCount)>,
    /// Traced replay outputs that differed from the served ones.
    replay_mismatches: usize,
    /// Notes for the run metadata.
    meta: Vec<(&'static str, String)>,
    lines: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <classify-wire|generate-stream|classify-index> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut trace = Trace::new(args.trace);
    let mut metrics = Metrics::default();

    let (registry, setup_times) = setup(args.workload, &mut trace);

    metrics.set("setup_s", median(&setup_times), setup_times.len());
    let report = registry.session().report();
    metrics.set("pipeline.profiling_ms", ms(report.stages.profiling), 1);
    metrics.set("pipeline.dict_fit_ms", ms(report.stages.dict_fit), 1);
    metrics.set("pipeline.encode_ms", ms(report.stages.encode), 1);
    metrics.set("pipeline.dicts_built", report.dicts_built as f64, 1);
    metrics.set("pipeline.pair_luts_built", report.pair_luts.misses as f64, 1);

    let outcome = match args.workload {
        Workload::GenerateStream => run_generate(&args, &registry, &mut trace, &mut metrics),
        _ => run_classify(&args, &registry, &mut trace, &mut metrics),
    };

    let attempted: usize = outcome.phases.iter().map(|(_, c)| c.sent).sum();
    let failed: usize =
        outcome.phases.iter().map(|(_, c)| c.failed()).sum::<usize>() + outcome.replay_mismatches;
    let wrong: usize = outcome.phases.iter().map(|(_, c)| c.wrong).sum();
    let correct = wrong == 0 && outcome.replay_mismatches == 0;

    print_meta(&args, &outcome.meta);
    for (name, c) in &outcome.phases {
        println!(
            "phase {name}: sent {} succeeded {} failed {} (rejected {}, transport {}, wrong {})",
            c.sent,
            c.ok,
            c.failed(),
            c.rejected,
            c.lost,
            c.wrong
        );
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    println!(
        "failed_frac {} ({failed} of {attempted}; replay mismatches {})",
        ratio(failed as f64, attempted as f64),
        outcome.replay_mismatches
    );
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(v) = metrics.0.get(name) {
            let windows =
                v.windows.as_ref().map_or(String::new(), |w| format!(", windows {}", w.show()));
            println!("metric {name} = {} {unit} (samples {}{windows})", v.value, v.samples);
        }
    }
    if args.trace {
        let path = trace_path(&args);
        match trace.write_jsonl(&path) {
            Ok(()) => {
                println!("trace: {} spans written to {}", trace.spans().len(), path.display())
            }
            Err(e) => println!("trace: could not write {}: {e}", path.display()),
        }
    }
    let fields: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let v = metrics.0.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(v.value))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The benchmark model and its profiling inputs.
fn model() -> (Model, Vec<Vec<usize>>) {
    let config = ModelConfig::bert_base().scaled(6, 6);
    let model = Model::synthesize(&config, Head::Classification { classes: 3 }, MODEL_SEED);
    let profile = LoadGen::new(&model, PROFILE_SEED).with_lengths(24, 24).requests(4);
    (model, profile)
}

/// Registers the workload's model `SETUP_REPS` times, each into a fresh
/// registry (a fresh session and dictionary cache), and keeps the last.
fn setup(workload: Workload, trace: &mut Trace) -> (ModelRegistry, Vec<f64>) {
    let (model, profile) = model();
    let serve = match workload {
        Workload::ClassifyIndex => {
            ModelServeConfig { mode: Some(ExecMode::IndexDomain), ..ModelServeConfig::default() }
        }
        _ => ModelServeConfig::default(),
    };
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        // One registry alive at a time, as in a server that registers once.
        drop(kept.take());
        let model = model.clone();
        let start = Instant::now();
        let mut registry = ModelRegistry::new();
        registry
            .register_with(
                MODEL_NAME,
                model,
                QuantizeSpec::weights_and_activations(),
                &profile,
                serve,
            )
            .expect("the benchmark model registers");
        let end = Instant::now();
        trace.record("pipeline.register", start, end, None, rep as u64);
        times.push((end - start).as_secs_f64());
        kept = Some(registry);
    }
    (kept.expect("at least one registration"), times)
}

fn served_model(registry: &ModelRegistry) -> &PreparedModel {
    registry.get(registry.lookup(MODEL_NAME).expect("registered")).expect("registered")
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the loopback frontend");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
}

/// Bit-exact equality of two task outputs.
fn same_bits(a: &TaskOutput, b: &TaskOutput) -> bool {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (a, b) {
        (TaskOutput::Logits(x), TaskOutput::Logits(y)) => bits(x) == bits(y),
        (TaskOutput::Score(x), TaskOutput::Score(y)) => x.to_bits() == y.to_bits(),
        (TaskOutput::Span(s1, e1), TaskOutput::Span(s2, e2)) => {
            bits(s1) == bits(s2) && bits(e1) == bits(e2)
        }
        _ => false,
    }
}

/// Runs `f` over `items` on two threads, preserving order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let half = items.len().div_ceil(2);
    let (a, b) = items.split_at(half);
    std::thread::scope(|scope| {
        let left = scope.spawn(|| a.iter().map(&f).collect::<Vec<_>>());
        let mut right: Vec<R> = b.iter().map(&f).collect();
        let mut out = left.join().expect("checker thread panicked");
        out.append(&mut right);
        out
    })
}

/// Counts one one-shot phase and checks every served output against
/// `PreparedModel::infer`.
fn check_shots(prepared: &PreparedModel, phase: &ShotPhase, requests: &[Vec<usize>]) -> PhaseCount {
    let served: Vec<(&Vec<usize>, &TaskOutput)> =
        phase.served().map(|(s, output, ..)| (&requests[s.index], output)).collect();
    let wrong = par_map(&served, |(tokens, output)| !same_bits(&prepared.infer(tokens).0, output))
        .into_iter()
        .filter(|&w| w)
        .count();
    let mut count = PhaseCount { sent: phase.shots.len(), wrong, ..PhaseCount::default() };
    for shot in &phase.shots {
        match shot.answer {
            Answer::Served { .. } => {}
            Answer::Rejected => count.rejected += 1,
            Answer::Lost => count.lost += 1,
        }
    }
    count.ok = served.len() - wrong;
    count
}

/// Counts one generation phase and checks every generation's tokens
/// against `mokey_transformer::generate`.
fn check_gens(prepared: &PreparedModel, mode: ExecMode, gens: &[(&Gen, &Prompt)]) -> PhaseCount {
    let finished: Vec<_> = gens.iter().filter(|(g, _)| g.ok()).collect();
    let wrong = par_map(&finished, |(g, (prompt, max_tokens))| {
        let expected = mokey_transformer::generate(
            prepared.model(),
            prepared.context(),
            prompt,
            *max_tokens,
            None,
            mode,
        );
        expected.tokens != g.tokens
            || g.summary.is_none_or(|s: GenSummary| s.steps == 0)
            || g.token_times.len() != g.tokens.len()
    })
    .into_iter()
    .filter(|&w| w)
    .count();
    PhaseCount {
        sent: gens.len(),
        ok: finished.len() - wrong,
        rejected: gens.iter().filter(|(g, _)| g.rejected.is_some()).count(),
        lost: gens.iter().filter(|(g, _)| g.lost).count(),
        wrong,
    }
}

fn run_classify(
    args: &Args,
    registry: &ModelRegistry,
    trace: &mut Trace,
    metrics: &mut Metrics,
) -> Outcome {
    let prepared = served_model(registry);
    let rate = args.workload.rate();
    let open_secs = args.seconds * FIRST_PHASE_SHARE;
    let sat_secs = args.seconds - open_secs;
    let mut traffic = LoadGen::new(prepared.model(), args.seed);
    let open_requests = traffic.requests((rate * open_secs).round().max(1.0) as usize);
    let sat_requests = traffic.requests((MAX_RPS * sat_secs).ceil() as usize);

    let (served, rss) = with_rss_peak(|| {
        serve_net(registry, ServeConfig::default(), NetConfig::default(), |net| {
            let stream = connect(net.addr());
            let open =
                client::open_loop(&stream, MODEL_NAME, &open_requests, rate, OPEN_BASE, trace);
            let sat = client::saturate(
                &stream,
                MODEL_NAME,
                &sat_requests,
                WINDOW,
                Duration::from_secs_f64(sat_secs),
                SAT_BASE,
                trace,
            );
            (open, sat)
        })
    });
    let ((open, sat), report) = served.expect("bind the loopback frontend");
    metrics.set("rss_peak_mb", rss, 1);

    let open_count = check_shots(prepared, &open, &open_requests);
    let sat_count = check_shots(prepared, &sat, &sat_requests);

    // End to end: latency from the due time at the fixed rate, per
    // window of due times; for a one-shot request the first output is the
    // whole answer.
    let latencies: Vec<(Instant, f64)> =
        open.served().filter_map(|(s, ..)| s.latency().map(|l| (s.due, ms(l)))).collect();
    let n = latencies.len();
    let (start, end) = (open.start, open.deadline);
    let p50 = windowed_quantile(&latencies, start, end, 0.50);
    metrics.set_windowed("first_p50_ms", p50.clone(), n);
    metrics.set_windowed("first_p90_ms", windowed_quantile(&latencies, start, end, 0.90), n);
    metrics.set_windowed("out_p50_ms", p50.clone(), n);
    metrics.set_windowed("out_p99_ms", windowed_quantile(&latencies, start, end, 0.99), n);
    metrics.set("trace.out_p50_ms", p50.value, n);
    let answered: Vec<Instant> = sat.served().filter_map(|(s, ..)| s.received).collect();
    let in_window = answered.iter().filter(|&&r| r <= sat.deadline).count();
    let window_secs = (sat.deadline - sat.start).as_secs_f64();
    metrics.set_windowed(
        "peak_per_s",
        windowed_rate(&answered, sat.start, sat.deadline),
        in_window,
    );

    // Engine and wire, from the reply frames of the open-loop phase.
    let waits: Vec<f64> = open.served().map(|(.., wait, _)| ms(wait)).collect();
    let execs: Vec<f64> =
        open.served().map(|(.., wait, lat)| ms(lat.saturating_sub(wait))).collect();
    let overheads: Vec<f64> = open
        .served()
        .filter_map(|(s, .., lat)| s.received.map(|r| ms((r - s.sent).saturating_sub(lat))))
        .collect();
    let late: Vec<f64> =
        open.shots.iter().map(|s| ms(s.sent.saturating_duration_since(s.due))).collect();
    metrics.set("engine.queue_wait_p50_ms", median(&waits), waits.len());
    metrics.set("engine.queue_wait_p99_ms", quantile(&waits, 0.99), waits.len());
    metrics.set("engine.exec_p50_ms", median(&execs), execs.len());
    metrics.set("net.overhead_p50_ms", median(&overheads), overheads.len());
    let late_p99 = quantile(&late, 0.99);
    metrics.set("loadgen.late_p99_ms", late_p99, late.len());
    // Batch-weighted mean batch size: each batch of b requests answers b
    // replies that each report b.
    let inverse: f64 = sat.served().map(|(_, _, b, ..)| 1.0 / f64::from(b.max(1))).sum();
    let sat_served = sat.served().count();
    metrics.set("engine.mean_batch_size", ratio(sat_served as f64, inverse), sat_served);
    engine_report_metrics(&report, metrics);

    let mut lines = vec![
        format!(
            "open-loop: {} req at {rate} req/s over {:.2} s, late p99 {late_p99:.3} ms",
            open.shots.len(),
            (open.deadline - open.start).as_secs_f64()
        ),
        format!(
            "saturation: window {WINDOW}, {in_window} answered in {window_secs:.2} s{}",
            if sat.exhausted { " (request pool exhausted: raise MAX_RPS)" } else { "" }
        ),
    ];
    let sender_bound = late_p99 > 1e3 / rate;
    let mut replay_mismatches = 0;
    if args.trace {
        let served: BTreeMap<usize, &TaskOutput> =
            sat.served().map(|(s, output, ..)| (s.index, output)).collect();
        let replayed: Vec<usize> = served.keys().copied().take(REPLAY_REQUESTS).collect();
        let requests: Vec<Vec<usize>> = replayed.iter().map(|&i| sat_requests[i].clone()).collect();
        let expected: Vec<&TaskOutput> = replayed.iter().map(|i| served[i]).collect();
        let batch = metrics.0["engine.mean_batch_size"].value.round().max(1.0) as usize;
        let groups = replay::plan_groups(&requests, batch, ServeConfig::default().length_bucket);
        let (mismatches, table) = forward_metrics(
            args.workload.mode(),
            prepared,
            &requests,
            &groups,
            &expected,
            trace,
            metrics,
        );
        replay_mismatches += mismatches;
        lines.extend(table);
        let prompts = LoadGen::new(prepared.model(), args.seed)
            .with_lengths(PROMPT_LEN.0, PROMPT_LEN.1)
            .generates(REPLAY_GENERATIONS, NEW_TOKENS);
        decode_metrics(args.workload.mode(), prepared, &prompts, None, trace, metrics);

        let mut frames: Vec<Frame> = Vec::new();
        for (phase, requests, base) in
            [(&open, &open_requests, OPEN_BASE), (&sat, &sat_requests, SAT_BASE)]
        {
            for s in phase.shots.iter().take(FRAME_SAMPLE / 2) {
                let corr = client::corr_of(base, s.index);
                frames.push(Frame::Request {
                    corr,
                    model: MODEL_NAME.into(),
                    tokens: requests[s.index].clone(),
                });
                if let Answer::Served { output, batch_size, queue_wait, latency, stats } = &s.answer
                {
                    frames.push(Frame::Response {
                        corr,
                        output: output.clone(),
                        batch_size: *batch_size,
                        queue_wait: *queue_wait,
                        latency: *latency,
                        stats: *stats,
                    });
                }
            }
        }
        frame_metrics(&frames, trace, metrics);
    }

    Outcome {
        phases: vec![("open-loop", open_count), ("saturation", sat_count)],
        replay_mismatches,
        meta: vec![
            ("fixed_rate_rps", format!("{rate}")),
            ("window", format!("{WINDOW}")),
            ("generator_threads", "2".into()),
            ("connections", "1".into()),
            ("sender_bound", format!("{sender_bound}")),
        ],
        lines,
    }
}

fn run_generate(
    args: &Args,
    registry: &ModelRegistry,
    trace: &mut Trace,
    metrics: &mut Metrics,
) -> Outcome {
    let prepared = served_model(registry);
    let mode = args.workload.mode();
    let inter_secs = args.seconds * FIRST_PHASE_SHARE;
    let batch_secs = args.seconds - inter_secs;
    // Each connection draws its own seeded stream: the interactive
    // phase's prompts, then the batch phase's.
    let mut inter_prompts: Vec<Vec<Prompt>> = Vec::new();
    let mut batch_prompts: Vec<Vec<Prompt>> = Vec::new();
    for c in 0..2u64 {
        let mut traffic = LoadGen::new(prepared.model(), args.seed.wrapping_mul(2).wrapping_add(c))
            .with_lengths(PROMPT_LEN.0, PROMPT_LEN.1);
        let per_conn = |secs: f64| (MAX_GENS_PER_S * secs).ceil() as usize;
        inter_prompts.push(traffic.generates(per_conn(inter_secs), NEW_TOKENS));
        batch_prompts.push(traffic.generates(per_conn(batch_secs), NEW_TOKENS));
    }

    let traced = trace.enabled();
    let (served, rss) = with_rss_peak(|| {
        serve_net(registry, ServeConfig::default(), NetConfig::default(), |net| {
            let streams = [connect(net.addr()), connect(net.addr())];
            let phase = |window: usize, secs: f64, lists: &[Vec<Prompt>], offset: u64| {
                let start = Instant::now();
                let deadline = start + Duration::from_secs_f64(secs);
                let results: Vec<(Vec<Gen>, Trace)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..2)
                        .map(|c| {
                            let stream = &streams[c];
                            let list = &lists[c];
                            scope.spawn(move || {
                                let mut spans = Trace::new(traced);
                                let gens = client::generate_conn(
                                    stream,
                                    MODEL_NAME,
                                    list,
                                    window,
                                    deadline,
                                    GEN_BASE[c] + offset,
                                    &mut spans,
                                );
                                (gens, spans)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("generation client panicked"))
                        .collect()
                });
                (results, (start, deadline))
            };
            let (inter, inter_window) = phase(1, inter_secs, &inter_prompts, 0);
            let (batch, batch_window) = phase(GEN_WINDOW, batch_secs, &batch_prompts, BATCH_OFFSET);
            (inter, inter_window, batch, batch_window)
        })
    });
    let ((inter, inter_window, batch, batch_window), report) =
        served.expect("bind the loopback frontend");
    metrics.set("rss_peak_mb", rss, 1);

    let (inter, inter_spans): (Vec<Vec<Gen>>, Vec<Trace>) = inter.into_iter().unzip();
    let (batch, batch_spans): (Vec<Vec<Gen>>, Vec<Trace>) = batch.into_iter().unzip();
    for spans in inter_spans.into_iter().chain(batch_spans) {
        trace.absorb(spans);
    }
    let mut inter_gens: Vec<(&Gen, &Prompt)> = Vec::new();
    let mut batch_gens: Vec<(&Gen, &Prompt)> = Vec::new();
    for (c, (gi, gb)) in inter.iter().zip(&batch).enumerate() {
        inter_gens.extend(gi.iter().map(|g| (g, &inter_prompts[c][g.index])));
        batch_gens.extend(gb.iter().map(|g| (g, &batch_prompts[c][g.index])));
    }
    let inter_count = check_gens(prepared, mode, &inter_gens);
    let batch_count = check_gens(prepared, mode, &batch_gens);

    let ok: Vec<&Gen> = inter_gens.iter().map(|(g, _)| *g).filter(|g| g.ok()).collect();
    let ttft: Vec<(Instant, f64)> = ok
        .iter()
        .filter_map(|g| {
            g.token_times.first().map(|t| (g.sent, ms(t.saturating_duration_since(g.sent))))
        })
        .collect();
    let itl: Vec<(Instant, f64)> =
        ok.iter().flat_map(|g| g.token_times.windows(2).map(|w| (w[1], ms(w[1] - w[0])))).collect();
    let (inter_start, inter_end) = inter_window;
    let itl_p50 = windowed_quantile(&itl, inter_start, inter_end, 0.50);
    metrics.set("trace.out_p50_ms", itl_p50.value, itl.len());
    metrics.set_windowed(
        "first_p50_ms",
        windowed_quantile(&ttft, inter_start, inter_end, 0.50),
        ttft.len(),
    );
    metrics.set_windowed(
        "first_p90_ms",
        windowed_quantile(&ttft, inter_start, inter_end, 0.90),
        ttft.len(),
    );
    metrics.set_windowed("out_p50_ms", itl_p50, itl.len());
    metrics.set_windowed(
        "out_p99_ms",
        windowed_quantile(&itl, inter_start, inter_end, 0.99),
        itl.len(),
    );
    let (window_start, window_end) = batch_window;
    let token_times: Vec<Instant> =
        batch_gens.iter().flat_map(|(g, _)| g.token_times.iter().copied()).collect();
    let tokens_in_window =
        token_times.iter().filter(|&&t| t >= window_start && t <= window_end).count();
    let window_secs = (window_end - window_start).as_secs_f64();
    metrics.set_windowed(
        "peak_per_s",
        windowed_rate(&token_times, window_start, window_end),
        tokens_in_window,
    );

    let summaries: Vec<(&Gen, GenSummary)> =
        ok.iter().filter_map(|g| g.summary.map(|s| (*g, s))).collect();
    let waits: Vec<f64> = summaries.iter().map(|(_, s)| ms(s.queue_wait)).collect();
    let execs: Vec<f64> = summaries
        .iter()
        .map(|(g, s)| ms(s.latency.saturating_sub(s.queue_wait)) / g.tokens.len().max(1) as f64)
        .collect();
    let overheads: Vec<f64> = summaries
        .iter()
        .filter_map(|(g, s)| g.finished.map(|f| ms((f - g.sent).saturating_sub(s.latency))))
        .collect();
    let late: Vec<f64> = inter_gens
        .iter()
        .chain(&batch_gens)
        .map(|(g, _)| ms(g.sent.saturating_duration_since(g.ready)))
        .collect();
    metrics.set("engine.queue_wait_p50_ms", median(&waits), waits.len());
    metrics.set("engine.queue_wait_p99_ms", quantile(&waits, 0.99), waits.len());
    metrics.set("engine.exec_p50_ms", median(&execs), execs.len());
    metrics.set("net.overhead_p50_ms", median(&overheads), overheads.len());
    metrics.set("loadgen.late_p99_ms", quantile(&late, 0.99), late.len());
    metrics.set("engine.mean_batch_size", report.aggregate.mean_batch_size, 0);
    engine_report_metrics(&report, metrics);

    let mut lines = vec![
        format!(
            "interactive: {} generations on 2 connections, {} TTFT and {} ITL samples",
            inter_gens.len(),
            ttft.len(),
            itl.len()
        ),
        format!(
            "batch: window {GEN_WINDOW} per connection, {} generations, {tokens_in_window} tokens in {window_secs:.2} s",
            batch_gens.len()
        ),
    ];

    let mut replay_mismatches = 0;
    if args.trace {
        // The engine prefills each prompt with a solo forward: replay the
        // interactive prompts as groups of one.
        let replayed: Vec<&Prompt> =
            inter_gens.iter().map(|(_, p)| *p).take(REPLAY_REQUESTS).collect();
        let requests: Vec<Vec<usize>> = replayed.iter().map(|(p, _)| p.clone()).collect();
        let reference: Vec<TaskOutput> = requests.iter().map(|r| prepared.infer(r).0).collect();
        let expected: Vec<&TaskOutput> = reference.iter().collect();
        let groups: Vec<Vec<usize>> = (0..requests.len()).map(|i| vec![i]).collect();
        let (mismatches, table) =
            forward_metrics(mode, prepared, &requests, &groups, &expected, trace, metrics);
        replay_mismatches += mismatches;
        lines.extend(table);
        let decoded: Vec<(&Gen, &Prompt)> =
            inter_gens.iter().filter(|(g, _)| g.ok()).take(REPLAY_GENERATIONS).copied().collect();
        let prompts: Vec<Prompt> = decoded.iter().map(|(_, p)| (*p).clone()).collect();
        let served: Vec<&[usize]> = decoded.iter().map(|(g, _)| g.tokens.as_slice()).collect();
        replay_mismatches +=
            decode_metrics(mode, prepared, &prompts, Some(&served), trace, metrics);

        let mut frames: Vec<Frame> = Vec::new();
        for (g, (prompt, max_tokens)) in inter_gens.iter().chain(&batch_gens) {
            if frames.len() >= FRAME_SAMPLE {
                break;
            }
            let corr = g.index as u64;
            frames.push(Frame::Generate {
                corr,
                model: MODEL_NAME.into(),
                prompt: prompt.clone(),
                max_tokens: *max_tokens as u32,
                eos: None,
            });
            for (index, &token) in g.tokens.iter().enumerate() {
                frames.push(Frame::Generated {
                    corr,
                    index: index as u32,
                    token: token as u32,
                    summary: None,
                });
            }
            if let Some(summary) = g.summary {
                frames.push(Frame::Generated {
                    corr,
                    index: g.tokens.len() as u32,
                    token: 0,
                    summary: Some(summary),
                });
            }
        }
        frame_metrics(&frames, trace, metrics);
    }

    Outcome {
        phases: vec![("interactive", inter_count), ("batch", batch_count)],
        replay_mismatches,
        meta: vec![
            ("new_tokens", format!("{NEW_TOKENS}")),
            ("gen_window", format!("{GEN_WINDOW}")),
            ("generator_threads", "2".into()),
            ("connections", "2".into()),
            ("sender_bound", "false (closed loop)".into()),
        ],
        lines,
    }
}

/// Engine counters from the `ServeReport` of the whole run.
fn engine_report_metrics(report: &ServeReport, metrics: &mut Metrics) {
    let r = &report.aggregate;
    metrics.set(
        "engine.packed_frac",
        ratio(r.packed_requests as f64, r.completed as f64),
        r.completed as usize,
    );
    metrics.set("engine.pad_waste", r.pad_waste, r.packed_batches as usize);
    metrics.set(
        "engine.gens_per_slice",
        ratio(r.generated_tokens as f64, r.decode_steps as f64),
        r.decode_steps as usize,
    );
    metrics.set(
        "engine.rejected",
        (r.rejected_full + r.rejected_quota + r.rejected_invalid) as f64,
        1,
    );
}

/// Stage figures of one mode's replay, per forward.
struct StageTable {
    forwards: usize,
    forward_ms: f64,
    stage_ms: BTreeMap<&'static str, f64>,
    accounted: f64,
    untraced_ms: f64,
    stats: QuantizedStats,
    macs_per_forward: f64,
    rows_per_forward: f64,
}

impl StageTable {
    fn stage(&self, name: &str) -> f64 {
        self.stage_ms.get(name).copied().unwrap_or(0.0)
    }

    fn other(&self) -> f64 {
        self.forward_ms - HOOK_STAGES.iter().map(|s| self.stage(s)).sum::<f64>()
    }
}

/// Replays `groups` in `mode`, `REPLAY_ROUNDS` times untraced and traced
/// in turn, and checks every replayed output against `expected`.
fn replay_mode(
    mode: ExecMode,
    prepared: &PreparedModel,
    requests: &[Vec<usize>],
    groups: &[Vec<usize>],
    expected: &[&TaskOutput],
    trace: &mut Trace,
    request_base: u64,
) -> (StageTable, usize) {
    let mut spans = Trace::new(true);
    let mut untraced = Duration::ZERO;
    let mut mismatches = 0;
    let mut last = ForwardPass::default();
    let (model, ctx) = (prepared.model(), prepared.context());
    for round in 0..REPLAY_ROUNDS {
        let base = request_base + (round * groups.len()) as u64;
        let plain = replay::forward_pass(model, ctx, requests, groups, mode, None, base);
        let timed =
            replay::forward_pass(model, ctx, requests, groups, mode, Some(&mut spans), base);
        untraced += plain.wall;
        for pass in [&plain, &timed] {
            mismatches +=
                pass.outputs.iter().filter(|(i, out)| !same_bits(out, expected[*i])).count();
        }
        last = timed;
    }
    let summary = spans.summary();
    let forwards = last.forwards * REPLAY_ROUNDS;
    let per = |d: Duration| ms(d) / forwards.max(1) as f64;
    let forward = summary.get("transformer.forward").copied().unwrap_or_default();
    let stage_ms = HOOK_STAGES
        .iter()
        .chain(MODEL_STAGES.iter())
        .map(|&name| (name, summary.get(name).map_or(0.0, |t| per(t.total))))
        .collect();
    let rows: usize = groups
        .iter()
        .map(|g| if g.len() == 1 { requests[g[0]].len() } else { g.len() * requests[g[0]].len() })
        .sum();
    let table = StageTable {
        forwards: last.forwards,
        forward_ms: per(forward.total),
        stage_ms,
        accounted: 1.0 - ratio(forward.self_time.as_secs_f64(), forward.total.as_secs_f64()),
        untraced_ms: per(untraced),
        stats: last.stats,
        macs_per_forward: last.macs as f64 / last.forwards.max(1) as f64,
        rows_per_forward: rows as f64 / groups.len().max(1) as f64,
    };
    trace.absorb(spans);
    (table, mismatches)
}

/// Replays the workload's forwards in both modes: the workload's own mode
/// gives the transformer and `mokey-core` encode figures, the decoded
/// replay gives `tensor.gemm_gflops`, and the index-domain replay gives
/// the LUT kernel figures. Returns mismatches and the printed stage table.
fn forward_metrics(
    own: ExecMode,
    prepared: &PreparedModel,
    requests: &[Vec<usize>],
    groups: &[Vec<usize>],
    expected: &[&TaskOutput],
    trace: &mut Trace,
    metrics: &mut Metrics,
) -> (usize, Vec<String>) {
    let replay = |mode, trace: &mut Trace, base| {
        replay_mode(mode, prepared, requests, groups, expected, trace, base)
    };
    let (decoded, m1) = replay(ExecMode::Decoded, trace, REPLAY_BASE[0]);
    let (index, m2) = replay(ExecMode::IndexDomain, trace, REPLAY_BASE[1]);
    let t = if own == ExecMode::IndexDomain { &index } else { &decoded };
    let n = t.forwards * REPLAY_ROUNDS;
    metrics.set("transformer.forward_ms", t.forward_ms, n);
    metrics.set("transformer.act_ms", t.stage("transformer.act"), n);
    metrics.set("transformer.act_share", ratio(t.stage("transformer.act"), t.forward_ms), n);
    metrics.set("transformer.linear_ms", t.stage("transformer.linear"), n);
    metrics.set("transformer.snap_ms", t.stage("transformer.snap"), n);
    metrics.set("transformer.other_ms", t.other(), n);
    metrics.set("transformer.attention_ms", t.stage("transformer.attention"), n);
    metrics.set("transformer.layernorm_ms", t.stage("transformer.layernorm"), n);
    metrics.set("transformer.gelu_ms", t.stage("transformer.gelu"), n);
    metrics.set("transformer.accounted_frac", t.accounted, n);
    metrics.set("trace.overhead_frac", t.forward_ms / t.untraced_ms - 1.0, n);
    let values = t.stats.act_values as f64 / t.forwards.max(1) as f64;
    metrics.set("core.encode_ns_per_value", ratio(t.stage("transformer.act") * 1e6, values), n);
    metrics.set("core.outlier_frac", t.stats.outlier_fraction(), t.stats.act_values);
    let per_forward = |c: usize| c as f64 / index.forwards.max(1) as f64;
    metrics.set("core.counter_gemms", per_forward(index.stats.counter_array_gemms), index.forwards);
    metrics.set("core.pair_lut_gemms", per_forward(index.stats.pair_lut_gemms), index.forwards);
    metrics.set(
        "core.lut_gmacs",
        ratio(index.macs_per_forward, index.stage("transformer.linear") * 1e6),
        index.forwards,
    );
    metrics.set(
        "tensor.gemm_gflops",
        ratio(2.0 * decoded.macs_per_forward, decoded.stage("transformer.linear") * 1e6),
        decoded.forwards,
    );

    let row = |label: &str, f: &dyn Fn(&StageTable) -> f64| {
        format!("| {label} | {:.2} | {:.2} |", f(&decoded), f(&index))
    };
    let lines = vec![
        format!(
            "stage table: ms per forward over {} groups ({:.1} rows per forward), {} rounds, host_parallelism {}",
            decoded.forwards,
            decoded.rows_per_forward,
            REPLAY_ROUNDS,
            host_parallelism()
        ),
        "| Stage | Decoded | Index-domain |".into(),
        "|---|---|---|".into(),
        row("Total", &|t| t.forward_ms),
        row("act", &|t| t.stage("transformer.act")),
        row("linear", &|t| t.stage("transformer.linear")),
        row("snap", &|t| t.stage("transformer.snap")),
        row("other", &|t| t.other()),
        row("  attention", &|t| t.stage("transformer.attention")),
        row("  layernorm", &|t| t.stage("transformer.layernorm")),
        row("  gelu", &|t| t.stage("transformer.gelu")),
        row("  embed", &|t| t.stage("transformer.embed")),
        row("  head", &|t| t.stage("transformer.head")),
        row("Untraced total", &|t| t.untraced_ms),
        format!(
            "stage accounting: named stages cover {:.1}% (decoded) / {:.1}% (index-domain) of traced forward time; >= 95% required: {}",
            100.0 * decoded.accounted,
            100.0 * index.accounted,
            if decoded.accounted >= 0.95 && index.accounted >= 0.95 { "PASS" } else { "FAIL" }
        ),
    ];
    (m1 + m2, lines)
}

/// Times `DecodeSession::prefill` and every `step` for `prompts`; when the
/// served tokens are given, counts generations that differ from them.
fn decode_metrics(
    mode: ExecMode,
    prepared: &PreparedModel,
    prompts: &[Prompt],
    served: Option<&[&[usize]]>,
    trace: &mut Trace,
    metrics: &mut Metrics,
) -> usize {
    let run = replay::decode_pass(
        prepared.model(),
        prepared.context(),
        prompts,
        mode,
        trace,
        REPLAY_BASE[2],
    );
    let prefill: Vec<f64> = run.prefill.iter().copied().map(ms).collect();
    let steps: Vec<f64> = run.steps.iter().flatten().copied().map(ms).collect();
    let growth: Vec<f64> = run
        .steps
        .iter()
        .filter(|s| s.len() >= 10)
        .map(|s| {
            let tenth = s.len() / 10;
            let avg = |d: &[Duration]| mean(&d.iter().copied().map(ms).collect::<Vec<_>>());
            ratio(avg(&s[s.len() - tenth..]), avg(&s[..tenth]))
        })
        .collect();
    metrics.set("transformer.prefill_ms", median(&prefill), prefill.len());
    metrics.set("transformer.step_p50_ms", median(&steps), steps.len());
    metrics.set("transformer.step_growth", mean(&growth), growth.len());
    metrics.set("transformer.kv_bytes_per_token", run.kv_bytes_per_token, prompts.len());
    served.map_or(0, |served| {
        run.tokens.iter().zip(served).filter(|(a, b)| a.as_slice() != **b).count()
    })
}

fn frame_metrics(frames: &[Frame], trace: &mut Trace, metrics: &mut Metrics) {
    let (encode, decode) = client::time_frames(frames, FRAME_ROUNDS, trace);
    metrics.set("net.frame_encode_us", encode, frames.len() * FRAME_ROUNDS);
    metrics.set("net.frame_decode_us", decode, frames.len() * FRAME_ROUNDS);
}

/// This process's resident set (`VmRSS`), in MB.
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` while a monitor thread samples the resident set every
/// [`RSS_PERIOD`]; returns `f`'s result and the largest sample in MB. The
/// process high-water mark would report set-up instead: registering the
/// model repeatedly for `setup_s` peaks above serving.
fn with_rss_peak<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut peak = 0.0f64;
            loop {
                peak = peak.max(rss_mb());
                if done.load(Ordering::SeqCst) {
                    break peak;
                }
                std::thread::sleep(RSS_PERIOD);
            }
        });
        let out = f();
        done.store(true, Ordering::SeqCst);
        (out, monitor.join().expect("resident-set monitor panicked"))
    })
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPUs this process may run on (what `nproc` prints).
fn nproc() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")) else {
        return host_parallelism();
    };
    list.trim()
        .split(',')
        .map(|part| match part.split_once('-') {
            Some((a, b)) => {
                b.parse::<usize>().unwrap_or(0).saturating_sub(a.parse().unwrap_or(0)) + 1
            }
            None => usize::from(!part.is_empty()),
        })
        .sum()
}

/// The checked-out commit when run from a git work tree, else "unknown".
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn print_meta(args: &Args, extra: &[(&'static str, String)]) {
    let mut fields = vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc().to_string()),
        ("host_parallelism", host_parallelism().to_string()),
        ("workers", ServeConfig::default().workers.to_string()),
        ("git_commit", git_commit()),
    ];
    fields.extend(extra.iter().cloned());
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("meta: {}", body.join(" "));
}

/// Where a traced run writes its spans: under the build directory, which
/// the repository ignores.
fn trace_path(args: &Args) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    dir.join("perfbench-trace").join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed))
}
