//! Kernel microbenchmarks: the served index-domain GEMM versus the served
//! float GEMM and the histogram reference — the software view of what the
//! Mokey PE does in hardware — plus encode/quantizer throughput.
//!
//! The GEMM comparison sweeps transformer-projection-like shapes
//! (`192×128×{128,512}`: a packed `(batch·seq)×hidden` activation against
//! a square projection and a 4× FFN expansion) across the kernels the
//! server runs, all producing the same quantized result:
//!
//! * **decoded** — `Matrix::matmul_bias` on operands decoded once up
//!   front, which is what `nn::linear` runs on the pre-decoded weights in
//!   `ExecMode::Decoded`, at the default GEMM threading;
//! * **decoded_serial** — the same GEMM pinned sequential
//!   (`set_gemm_parallel_threshold(usize::MAX)`), the fair single-core
//!   comparison for the LUT kernel, which never spawns threads;
//! * **indexed** — the histogram kernel, bit-faithful to the paper's PE
//!   datapath but slow in software (here driven through
//!   [`kernels::dot_indexed`] with the column-major weight gather and the
//!   output buffer hoisted out of the timing loop);
//! * **lut** — the served index-domain kernel ([`lut::matmul_lut_bias`])
//!   on activation code bytes: one `M`-row call, so full quads take the
//!   counter-array quad path;
//! * **lut_row_calls** — the same kernel as `M` one-row calls, every row
//!   on the pair-LUT row path (what a decode step runs).
//!
//! A second section times the fused block-diagonal packed attention
//! ([`mokey_transformer::packed::fused_attention_scores`] /
//! [`fused_attention_context`]) against the per-sequence `slice_block` +
//! GEMM formulation it replaced, at a serve-like ragged pack.
//!
//! Best-of-N values/sec (MACs per second) per kernel land in
//! `BENCH_kernels.json` at the workspace root, with the host's
//! parallelism. The run **asserts** the LUT kernel beats the histogram
//! kernel — ≥5× at `192×128×512` in a full run, a relaxed ≥2× under
//! `--quick-check` (CI), where fewer repetitions absorb less scheduler
//! noise — that one `M`-row LUT call is no slower than `M` one-row calls,
//! and that fused attention is no slower than the per-sequence
//! formulation (both floors are host-parallelism-aware: a multi-core host
//! relaxes them to near-parity because noisy neighbours hit the
//! longer-running side harder). Every run prints a one-line perf diff
//! against the committed baseline; quick mode never rewrites it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mokey_bench::{activation_matrix, quantize, weight_matrix};
use mokey_core::kernels;
use mokey_core::lut::{self, ColMajorCodes, PairLut};
use mokey_core::quantizer::OutputQuantizer;
use mokey_tensor::{gemm_parallel_threshold, nn, set_gemm_parallel_threshold, Matrix};
use mokey_transformer::packed::{fused_attention_context, fused_attention_scores, PackedBatch};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Workspace root: the first ancestor whose `Cargo.toml` declares
/// `[workspace]` (mirrors the serve bench).
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

/// Best-of-`reps` wall-clock for `iters` calls of `f`, as MAC values/sec.
fn values_per_sec(macs: usize, reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    (macs as f64) / best
}

/// [`values_per_sec`] for two closures whose repetitions alternate, so a
/// burst of host noise lands on both sides of the comparison alike.
fn paired_values_per_sec(
    macs: usize,
    reps: usize,
    iters: usize,
    mut f: impl FnMut(),
    mut g: impl FnMut(),
) -> (f64, f64) {
    let (mut best_f, mut best_g) = (0.0f64, 0.0f64);
    for _ in 0..reps {
        best_f = best_f.max(values_per_sec(macs, 1, iters, &mut f));
        best_g = best_g.max(values_per_sec(macs, 1, iters, &mut g));
    }
    (best_f, best_g)
}

struct GemmRow {
    kernel: &'static str,
    vps: f64,
}

/// Naive line-oriented parse of a committed `BENCH_kernels.json`: pairs
/// each `"kernel"` name with the `"values_per_sec"` that follows it, in
/// file order. Hand-rolled like the writer — the bench deliberately has
/// no JSON dependency.
fn parse_baseline_kernels(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut last_kernel = String::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"kernel\": \"") {
            if let Some(name) = rest.strip_suffix("\",").or_else(|| rest.strip_suffix('\"')) {
                last_kernel = name.to_string();
            }
        } else if let Some(rest) = line.strip_prefix("\"values_per_sec\": ") {
            if let Ok(v) = rest.trim_end_matches(',').parse::<f64>() {
                out.push((last_kernel.clone(), v));
            }
        }
    }
    out
}

/// One-line perf summary against the committed baseline: per kernel name,
/// the ratio of this run's values/sec to the committed ones, matched in
/// file order (so both sweep shapes pair up as `a/b`). Kernels with no
/// committed counterpart print as `new`.
fn perf_diff_line(committed: &[(String, f64)], measured: &[(String, f64)]) -> String {
    if committed.is_empty() {
        return "[kernels] no committed BENCH_kernels.json baseline to diff against".into();
    }
    let mut parts = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for (name, _) in measured {
        if seen.contains(&name.as_str()) {
            continue;
        }
        seen.push(name);
        let news: Vec<f64> = measured.iter().filter(|(n, _)| n == name).map(|&(_, v)| v).collect();
        let olds: Vec<f64> = committed.iter().filter(|(n, _)| n == name).map(|&(_, v)| v).collect();
        if olds.is_empty() {
            parts.push(format!("{name} new"));
        } else {
            let ratios: Vec<String> =
                news.iter().zip(&olds).map(|(n, o)| format!("{:.2}x", n / o)).collect();
            parts.push(format!("{name} {}", ratios.join("/")));
        }
    }
    format!("[kernels] vs committed baseline: {}", parts.join(" | "))
}

fn bench(c: &mut Criterion) {
    let quick = quick_check();

    // ------------------------------------------------------------------
    // The GEMM kernel comparison at packed projection shapes, each side
    // timed as the server runs it: the float GEMM on pre-decoded operands
    // (threaded and serial) against the LUT kernel on code bytes.
    // ------------------------------------------------------------------
    const M: usize = 192;
    const K: usize = 128;
    let (reps, iters) = if quick { (2, 1) } else { (3, 3) };
    let mut shapes_json = Vec::new();
    let mut measured: Vec<(String, f64)> = Vec::new();
    let mut lut_speedup_at_512 = 0.0f64;
    let mut quad_vs_rows_at_512 = 0.0f64;
    for n in [128usize, 512] {
        let a = activation_matrix(M, K);
        let w = weight_matrix(K, n);
        let qa = quantize(&a);
        let qw = quantize(&w);
        let pair = PairLut::new(qa.dict(), qw.dict());
        let w_cols = ColMajorCodes::from_tensor(&qw);
        let a_bits: Vec<u8> = qa.codes().iter().map(|c| c.to_bits()).collect();
        let bias = vec![0.0f32; n];
        let macs = M * K * n;

        let (a_dec, w_dec) = (qa.decode(), qw.decode());
        let decoded_vps = values_per_sec(macs, reps, iters, || {
            black_box(a_dec.matmul_bias(&w_dec, &bias));
        });
        let threshold = gemm_parallel_threshold();
        set_gemm_parallel_threshold(usize::MAX);
        let decoded_serial_vps = values_per_sec(macs, reps, iters, || {
            black_box(a_dec.matmul_bias(&w_dec, &bias));
        });
        set_gemm_parallel_threshold(threshold);
        // The histogram kernel is orders of magnitude slower; one call per
        // measurement keeps the sweep tolerable without hurting best-of-N.
        // The column-major weight gather (which `kernels::matmul_indexed`
        // rebuilds on every call) and the output buffer are hoisted out of
        // the timing loop, so its ratio measures the datapath, not setup.
        let mut indexed_out = vec![0.0f32; M * n];
        let indexed_vps = values_per_sec(macs, reps, 1, || {
            for i in 0..M {
                let a_row = qa.row_codes(i);
                for (j, out) in indexed_out[i * n..(i + 1) * n].iter_mut().enumerate() {
                    *out = kernels::dot_indexed(a_row, qa.dict(), w_cols.col(j), qw.dict()) as f32;
                }
            }
            black_box(&indexed_out);
        });
        let (lut_vps, row_calls_vps) = paired_values_per_sec(
            macs,
            reps,
            iters,
            || {
                black_box(lut::matmul_lut_bias(&a_bits, M, K, &qw, &bias, &pair));
            },
            || {
                for row in a_bits.chunks_exact(K) {
                    black_box(lut::matmul_lut_bias(row, 1, K, &qw, &bias, &pair));
                }
            },
        );

        let rows = [
            GemmRow { kernel: "decoded", vps: decoded_vps },
            GemmRow { kernel: "decoded_serial", vps: decoded_serial_vps },
            GemmRow { kernel: "indexed", vps: indexed_vps },
            GemmRow { kernel: "lut", vps: lut_vps },
            GemmRow { kernel: "lut_row_calls", vps: row_calls_vps },
        ];
        for r in &rows {
            measured.push((r.kernel.to_string(), r.vps));
        }
        let speedup = lut_vps / indexed_vps;
        let quad_vs_rows = lut_vps / row_calls_vps;
        if n == 512 {
            lut_speedup_at_512 = speedup;
            quad_vs_rows_at_512 = quad_vs_rows;
        }
        println!(
            "[kernels] {M}x{K}x{n}: decoded {:>10.0} | decoded_serial {:>10.0} | indexed {:>10.0} | lut {:>10.0} | lut_row_calls {:>10.0} MAC/s (lut {:.1}x indexed, {:.2}x decoded, {:.2}x decoded_serial, {:.2}x row calls)",
            decoded_vps,
            decoded_serial_vps,
            indexed_vps,
            lut_vps,
            row_calls_vps,
            speedup,
            lut_vps / decoded_vps,
            lut_vps / decoded_serial_vps,
            quad_vs_rows,
        );
        let kernel_json = rows
            .iter()
            .map(|r| {
                format!(
                    "        {{\n          \"kernel\": \"{}\",\n          \"values_per_sec\": {:.0}\n        }}",
                    r.kernel, r.vps,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        shapes_json.push(format!(
            "    {{\n      \"m\": {M},\n      \"k\": {K},\n      \"n\": {n},\n      \"macs\": {macs},\n      \"kernels\": [\n{kernel_json}\n      ],\n      \"lut_speedup_vs_indexed\": {:.2},\n      \"lut_speedup_vs_decoded\": {:.3},\n      \"lut_speedup_vs_decoded_serial\": {:.3},\n      \"lut_speedup_vs_row_calls\": {:.2},\n      \"pair_lut_bytes\": {}\n    }}",
            speedup,
            lut_vps / decoded_vps,
            lut_vps / decoded_serial_vps,
            quad_vs_rows,
            pair.bytes(),
        ));
    }
    // The whole point of the index-domain path: a table gather must beat
    // replaying the histogram datapath in software, by a wide margin.
    let speedup_floor = if quick { 2.0 } else { 5.0 };
    assert!(
        lut_speedup_at_512 >= speedup_floor,
        "matmul_lut_bias only {lut_speedup_at_512:.2}x matmul_indexed at {M}x{K}x512 (floor {speedup_floor}x)"
    );
    // The quad path exists to beat the row path on rowful GEMMs: one
    // M-row call must be no slower than M one-row calls of the same
    // kernel. Host-parallelism-aware floor: on a multi-core host (or under
    // quick-check's few repetitions) scheduler noise lands
    // disproportionately on the longer-running side, so the bar relaxes
    // to parity; a dedicated single-core run must show a real win.
    let host_par = std::thread::available_parallelism().map_or(1, |p| p.get());
    let quad_floor = if quick || host_par > 1 { 1.0 } else { 1.2 };
    assert!(
        quad_vs_rows_at_512 >= quad_floor,
        "one {M}-row matmul_lut_bias call only {quad_vs_rows_at_512:.2}x {M} one-row calls at {M}x{K}x512 (floor {quad_floor}x, host_parallelism {host_par})"
    );

    // ------------------------------------------------------------------
    // Fused block-diagonal packed attention vs the per-sequence
    // `slice_block` + GEMM formulation it replaced, at a serve-like
    // ragged pack (8 requests, max seq 24, 4 heads of 32). The
    // per-sequence side is timed exactly as `forward_packed` used to run
    // it — per-(request, head) Q/K/V block copies and small GEMMs —
    // because those copies *are* the cost the fused kernel removes.
    // ------------------------------------------------------------------
    let att_lens: [usize; 8] = [24, 20, 16, 24, 12, 18, 24, 22];
    let att_batch: Vec<Vec<usize>> = att_lens.iter().map(|&l| vec![0usize; l]).collect();
    let pack = PackedBatch::new(&att_batch);
    let (heads, dh) = (4usize, 32usize);
    let hidden = heads * dh;
    let (s, nb) = (pack.seq(), pack.requests());
    let q = activation_matrix(nb * s, hidden);
    let k = weight_matrix(nb * s, hidden).scale(20.0);
    let v = activation_matrix(nb * s, hidden).scale(0.5);
    let att_scale = 1.0 / (dh as f32).sqrt();
    // Q·K^T and P·V are each nb·heads·s·s·dh MACs per pass.
    let att_macs = 2 * nb * heads * s * s * dh;
    let (att_reps, att_iters) = if quick { (2, 2) } else { (3, 8) };

    let mut per_seq_probs = Matrix::zeros(nb * heads * s, s);
    let mut per_seq_ctx = Matrix::zeros(nb * s, hidden);
    let per_seq_vps = values_per_sec(att_macs, att_reps, att_iters, || {
        for bi in 0..nb {
            let len = pack.len_of(bi);
            let base = pack.row_of(bi);
            for hd in 0..heads {
                let qh = q.slice_block(base, s, hd * dh, dh);
                let kh = k.slice_block(base, s, hd * dh, dh);
                let mut scores = qh.matmul_transposed(&kh).scale(att_scale);
                for r in 0..s {
                    for sc in &mut scores.row_mut(r)[len..] {
                        *sc = f32::NEG_INFINITY;
                    }
                }
                nn::softmax_rows(&mut scores);
                let probs_base = (bi * heads + hd) * s;
                for r in 0..s {
                    per_seq_probs.row_mut(probs_base + r).copy_from_slice(scores.row(r));
                }
                let vh = v.slice_block(base, s, hd * dh, dh);
                let ctx_h = scores.matmul(&vh);
                for r in 0..s {
                    per_seq_ctx.row_mut(base + r)[hd * dh..(hd + 1) * dh]
                        .copy_from_slice(ctx_h.row(r));
                }
            }
        }
        black_box((&per_seq_probs, &per_seq_ctx));
    });
    let fused_vps = values_per_sec(att_macs, att_reps, att_iters, || {
        let mut probs = fused_attention_scores(&q, &k, &pack, heads, dh, att_scale);
        nn::softmax_rows(&mut probs);
        black_box(fused_attention_context(&probs, &v, &pack, heads, dh, hidden));
    });
    let fused_speedup = fused_vps / per_seq_vps;
    println!(
        "[kernels] attention {nb}x{s} h{heads}xd{dh}: per_sequence {:>10.0} MAC/s | fused {:>10.0} MAC/s (fused {:.2}x per_sequence)",
        per_seq_vps, fused_vps, fused_speedup,
    );
    measured.push(("attention_per_sequence".to_string(), per_seq_vps));
    measured.push(("attention_fused".to_string(), fused_vps));
    // Fusing exists to win; the floor is host-parallelism-aware for the
    // same reason as the quad-path bar above.
    let fused_floor = if quick || host_par > 1 { 0.9 } else { 1.0 };
    assert!(
        fused_speedup >= fused_floor,
        "fused attention only {fused_speedup:.2}x per-sequence at {nb}x{s} h{heads}xd{dh} (floor {fused_floor}x, host_parallelism {host_par})"
    );
    let attention_json = format!(
        "  \"attention\": {{\n    \"requests\": {nb},\n    \"seq\": {s},\n    \"heads\": {heads},\n    \"head_dim\": {dh},\n    \"macs\": {att_macs},\n    \"kernels\": [\n      {{\n        \"kernel\": \"attention_per_sequence\",\n        \"values_per_sec\": {per_seq_vps:.0}\n      }},\n      {{\n        \"kernel\": \"attention_fused\",\n        \"values_per_sec\": {fused_vps:.0}\n      }}\n    ],\n    \"fused_speedup_vs_per_sequence\": {fused_speedup:.2}\n  }}",
    );

    // One-line perf diff against the committed baseline — read *before*
    // a full run overwrites it. CI (quick mode) surfaces this line as the
    // regression-at-a-glance summary.
    let baseline_path = workspace_root().join("BENCH_kernels.json");
    let committed = std::fs::read_to_string(&baseline_path).unwrap_or_default();
    println!("{}", perf_diff_line(&parse_baseline_kernels(&committed), &measured));

    if quick {
        println!("[kernels] quick check: baseline not rewritten");
    } else {
        let baseline = format!(
            "{{\n  \"bench\": \"kernels_gemm\",\n  \"host_parallelism\": {host_par},\n  \"shapes\": [\n{}\n  ],\n{attention_json}\n}}\n",
            shapes_json.join(",\n"),
        );
        match std::fs::write(&baseline_path, baseline) {
            Ok(()) => println!("[kernels] baseline written to {}", baseline_path.display()),
            Err(e) => println!("[kernels] could not write {}: {e}", baseline_path.display()),
        }
    }

    // Dot-product paths at attention/FFN-like depths.
    let mut group = c.benchmark_group("dot_product");
    group.sample_size(if quick { 2 } else { 20 });
    for k in [256usize, 1024, 4096] {
        let a = activation_matrix(1, k);
        let w = weight_matrix(1, k);
        let qa = quantize(&a);
        let qw = quantize(&w);
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("indexed", k), &k, |b, _| {
            b.iter(|| black_box(kernels::dot_indexed(qa.codes(), qa.dict(), qw.codes(), qw.dict())))
        });
        group.bench_with_input(BenchmarkId::new("decoded", k), &k, |b, _| {
            b.iter(|| black_box(kernels::dot_decoded(qa.codes(), qa.dict(), qw.codes(), qw.dict())))
        });
        group.bench_with_input(BenchmarkId::new("fp32", k), &k, |b, _| {
            b.iter(|| {
                let mut acc = 0.0f32;
                for (x, y) in a.as_slice().iter().zip(w.as_slice()) {
                    acc += x * y;
                }
                black_box(acc)
            })
        });
    }
    group.finish();

    // GEMM paths under criterion (smaller shape than the JSON sweep so
    // the histogram kernel stays affordable at criterion sample counts).
    let a = activation_matrix(32, 256);
    let w = weight_matrix(256, 64);
    let qa = quantize(&a);
    let qw = quantize(&w);
    let pair = PairLut::new(qa.dict(), qw.dict());
    let a_bits: Vec<u8> = qa.codes().iter().map(|c| c.to_bits()).collect();
    let bias = [0.0f32; 64];
    let mut gemm = c.benchmark_group("gemm_32x256x64");
    gemm.sample_size(if quick { 2 } else { 20 });
    gemm.bench_function("indexed", |b| b.iter(|| black_box(kernels::matmul_indexed(&qa, &qw))));
    gemm.bench_function("decoded", |b| b.iter(|| black_box(kernels::matmul_decoded(&qa, &qw))));
    gemm.bench_function("lut", |b| {
        b.iter(|| black_box(lut::matmul_lut_bias(&a_bits, 32, 256, &qw, &bias, &pair)))
    });
    gemm.bench_function("fp32", |b| b.iter(|| black_box(a.matmul(&w))));
    gemm.finish();

    // Encode/quantizer throughput (the Fig. 7 engine).
    let acts = activation_matrix(64, 256);
    let dict = quantize(&acts).dict().clone();
    let engine = OutputQuantizer::new(dict.clone());
    let mut enc = c.benchmark_group("encode");
    enc.sample_size(if quick { 2 } else { 20 });
    enc.throughput(Throughput::Elements(acts.len() as u64));
    enc.bench_function("dictionary_encode", |b| {
        b.iter(|| {
            for &v in acts.as_slice() {
                black_box(dict.encode_value(v));
            }
        })
    });
    enc.bench_function("output_quantizer_engine", |b| {
        b.iter(|| {
            for &v in acts.as_slice() {
                black_box(engine.quantize(v));
            }
        })
    });
    enc.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
