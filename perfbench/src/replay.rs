//! The traced replay: a workload's requests run again in-process, through
//! the same `mokey-transformer` entry points the engine calls, with a
//! timing [`Executor`] wrapped around `QuantizedExecutor`.
//!
//! The executor hooks mark every stage boundary of a forward pass: the
//! activation hook is the `mokey-core` dictionary encode/decode, the
//! linear hook plus the float GEMM that follows a declined hook is the
//! projection/FFN GEMM (`mokey-tensor` when decoded, the `mokey-core` LUT
//! kernels in index-domain mode), and the output hook is the fixed-point
//! snap. The model's own work between hooks (embedding, attention,
//! LayerNorm, GELU, head glue) is attributed by the hook that ends it.

use crate::trace::{SpanId, Trace};
use mokey_tensor::Matrix;
use mokey_transformer::exec::{Executor, QuantizedStats};
use mokey_transformer::{
    DecodeSession, ExecMode, Model, PackedBatch, PackedLayout, QuantizedContext, QuantizedExecutor,
    TaskOutput,
};
use std::time::{Duration, Instant};

/// Span names of the forward-pass stages, in table order.
pub const HOOK_STAGES: [&str; 3] = ["transformer.act", "transformer.linear", "transformer.snap"];
pub const MODEL_STAGES: [&str; 5] = [
    "transformer.embed",
    "transformer.attention",
    "transformer.layernorm",
    "transformer.gelu",
    "transformer.head",
];

/// Which model stage ran between the previous hook and the hook (or
/// marker) named `next`. `None` is hook dispatch glue (name formatting,
/// weight lookup), left in the forward span's self time.
fn stage_before(next: &str) -> Option<&'static str> {
    if next == "L0.attn.input" {
        Some("transformer.embed")
    } else if next.ends_with(".attn.probs") || next.ends_with(".attn.context") {
        Some("transformer.attention")
    } else if next.ends_with(".attn.input") || next.ends_with(".ffn.input") || next == END_FORWARD {
        Some("transformer.layernorm")
    } else if next.ends_with(".ffn.mid") {
        Some("transformer.gelu")
    } else if next.starts_with("head.") || next == END_HEAD {
        Some("transformer.head")
    } else {
        None
    }
}

const END_FORWARD: &str = "end.forward";
const END_HEAD: &str = "end.head";

/// `QuantizedExecutor` with a span around every hook. With no trace it
/// only delegates.
struct TimedExecutor<'c, 't> {
    inner: QuantizedExecutor<'c>,
    trace: Option<&'t mut Trace>,
    parent: Option<SpanId>,
    request: u64,
    /// End of the previous hook.
    last: Instant,
    /// Start of a float GEMM the linear hook declined.
    float_gemm: Option<Instant>,
    /// Multiply-accumulates of every projection GEMM, from its shape.
    macs: u64,
}

impl TimedExecutor<'_, '_> {
    fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.record(name, start, end, self.parent, self.request);
        }
    }

    /// Closes the model-side gap that ends at the hook named `next`.
    fn gap(&mut self, next: &str) -> Instant {
        let now = Instant::now();
        if let Some(stage) = stage_before(next) {
            self.span(stage, self.last, now);
        }
        self.last = now;
        now
    }

    fn timed<T>(&mut self, name: &str, stage: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if self.trace.is_none() {
            return f(self);
        }
        let start = self.gap(name);
        let out = f(self);
        let end = Instant::now();
        self.span(stage, start, end);
        self.last = end;
        out
    }

    fn linear_with(
        &mut self,
        name: &str,
        x: &Matrix,
        w: &Matrix,
        f: impl FnOnce(&mut QuantizedExecutor<'_>) -> Option<Matrix>,
    ) -> Option<Matrix> {
        self.macs += (x.rows() * x.cols() * w.cols()) as u64;
        if self.trace.is_none() {
            return f(&mut self.inner);
        }
        let start = self.gap(name);
        let out = f(&mut self.inner);
        match out {
            Some(_) => {
                let end = Instant::now();
                self.span("transformer.linear", start, end);
                self.last = end;
            }
            // The model runs the float GEMM next; it ends when the
            // output hook is called.
            None => self.float_gemm = Some(start),
        }
        out
    }

    fn snap_with(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut QuantizedExecutor<'_>) -> Matrix,
    ) -> Matrix {
        if self.trace.is_none() {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        if let Some(gemm) = self.float_gemm.take() {
            self.span("transformer.linear", gemm, start);
        } else {
            self.gap(name);
        }
        let out = f(&mut self.inner);
        let end = Instant::now();
        self.span("transformer.snap", start, end);
        self.last = end;
        out
    }
}

impl Executor for TimedExecutor<'_, '_> {
    fn activation(&mut self, name: &str, m: Matrix) -> Matrix {
        self.timed(name, "transformer.act", |s| s.inner.activation(name, m))
    }

    fn weight_override(&self, name: &str) -> Option<&Matrix> {
        self.inner.weight_override(name)
    }

    fn gemm_output(&mut self, name: &str, m: Matrix) -> Matrix {
        self.snap_with(name, |inner| inner.gemm_output(name, m))
    }

    fn activation_packed(&mut self, name: &str, m: Matrix, layout: &PackedLayout) -> Matrix {
        self.timed(name, "transformer.act", |s| s.inner.activation_packed(name, m, layout))
    }

    fn gemm_output_packed(&mut self, name: &str, m: Matrix, layout: &PackedLayout) -> Matrix {
        self.snap_with(name, |inner| inner.gemm_output_packed(name, m, layout))
    }

    fn linear(&mut self, weight_name: &str, x: &Matrix, w: &Matrix, b: &[f32]) -> Option<Matrix> {
        self.linear_with(weight_name, x, w, |inner| inner.linear(weight_name, x, w, b))
    }

    fn linear_packed(
        &mut self,
        weight_name: &str,
        x: &Matrix,
        w: &Matrix,
        b: &[f32],
        layout: &PackedLayout,
    ) -> Option<Matrix> {
        self.linear_with(weight_name, x, w, |inner| {
            inner.linear_packed(weight_name, x, w, b, layout)
        })
    }
}

/// Largest share of a pack's rows that may be padding, as in
/// `QuantizedContext::infer_batch_mode`.
const PACK_WASTE_LIMIT: f64 = 0.25;

/// Splits a workload's request stream into the groups the engine executes:
/// batches of up to `max_batch` requests from one length bucket in arrival
/// order, each split into packs the way `infer_batch_mode` does (longest
/// first, padding within [`PACK_WASTE_LIMIT`]). A group of one runs solo.
pub fn plan_groups(requests: &[Vec<usize>], max_batch: usize, bucket: usize) -> Vec<Vec<usize>> {
    let mut open: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut batches: Vec<Vec<usize>> = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        let key = r.len() / bucket.max(1);
        let slot = match open.iter().position(|(k, _)| *k == key) {
            Some(slot) => slot,
            None => {
                open.push((key, Vec::new()));
                open.len() - 1
            }
        };
        open[slot].1.push(i);
        if open[slot].1.len() >= max_batch.max(1) {
            batches.push(open.remove(slot).1);
        }
    }
    batches.extend(open.into_iter().map(|(_, b)| b));
    let mut groups = Vec::new();
    for mut batch in batches {
        batch.sort_by_key(|&i| std::cmp::Reverse(requests[i].len()));
        let mut start = 0;
        while start < batch.len() {
            let max_len = requests[batch[start]].len();
            let mut end = start + 1;
            while end < batch.len()
                && ((max_len - requests[batch[end]].len()) as f64)
                    <= PACK_WASTE_LIMIT * max_len as f64
            {
                end += 1;
            }
            groups.push(batch[start..end].to_vec());
            start = end;
        }
    }
    groups
}

/// One pass of a replay over every group.
#[derive(Debug, Default)]
pub struct ForwardPass {
    /// `(request index, output)` for every replayed request.
    pub outputs: Vec<(usize, TaskOutput)>,
    pub stats: QuantizedStats,
    pub forwards: usize,
    pub wall: Duration,
    pub macs: u64,
}

/// Runs every group once through `forward_packed` + `apply_head_packed`
/// (or `forward` + `apply_head` for a group of one), timing each group as
/// one `transformer.forward` span when `trace` is given.
pub fn forward_pass(
    model: &Model,
    ctx: &QuantizedContext,
    requests: &[Vec<usize>],
    groups: &[Vec<usize>],
    mode: ExecMode,
    mut trace: Option<&mut Trace>,
    request_base: u64,
) -> ForwardPass {
    let mut pass = ForwardPass::default();
    for (g, group) in groups.iter().enumerate() {
        let request = request_base + g as u64;
        let start = Instant::now();
        let parent = trace
            .as_deref_mut()
            .and_then(|t| t.record("transformer.forward", start, start, None, request));
        let mut exec = TimedExecutor {
            inner: QuantizedExecutor::with_mode(ctx, mode),
            trace: trace.as_deref_mut(),
            parent,
            request,
            last: start,
            float_gemm: None,
            macs: 0,
        };
        let outputs = if let [single] = group.as_slice() {
            let hidden = model.forward(&mut exec, &requests[*single]);
            exec.gap(END_FORWARD);
            let out = model.apply_head(&mut exec, &hidden);
            exec.gap(END_HEAD);
            vec![out]
        } else {
            let refs: Vec<&[usize]> = group.iter().map(|&i| requests[i].as_slice()).collect();
            let pack = PackedBatch::new(&refs);
            let hidden = model.forward_packed(&mut exec, &pack, &refs);
            exec.gap(END_FORWARD);
            let out = model.apply_head_packed(&mut exec, &hidden, &pack);
            exec.gap(END_HEAD);
            out
        };
        let end = Instant::now();
        pass.stats.merge(&exec.inner.stats());
        pass.macs += exec.macs;
        drop(exec);
        if let (Some(t), Some(id)) = (trace.as_deref_mut(), parent) {
            t.close(id, end);
        }
        pass.wall += end - start;
        pass.forwards += 1;
        pass.outputs.extend(group.iter().copied().zip(outputs));
    }
    pass
}

/// Timed generations through `DecodeSession::prefill` / `step`.
#[derive(Debug, Default)]
pub struct DecodeReplay {
    pub prefill: Vec<Duration>,
    /// Per generation, the duration of every step that advanced the cache.
    pub steps: Vec<Vec<Duration>>,
    pub tokens: Vec<Vec<usize>>,
    pub kv_bytes_per_token: f64,
    pub stats: QuantizedStats,
}

pub fn decode_pass(
    model: &Model,
    ctx: &QuantizedContext,
    prompts: &[crate::client::Prompt],
    mode: ExecMode,
    trace: &mut Trace,
    request_base: u64,
) -> DecodeReplay {
    let mut out = DecodeReplay::default();
    let mut kv_bytes = 0usize;
    let mut positions = 0usize;
    for (g, (prompt, max_tokens)) in prompts.iter().enumerate() {
        let request = request_base + g as u64;
        let start = Instant::now();
        let parent = trace.record("transformer.generate", start, start, None, request);
        let mut session = DecodeSession::prefill(model, ctx, prompt, *max_tokens, None, mode);
        let prefilled = Instant::now();
        trace.record("transformer.prefill", start, prefilled, parent, request);
        out.prefill.push(prefilled - start);
        let mut steps = Vec::new();
        while !session.is_done() {
            let t0 = Instant::now();
            session.step(model, ctx);
            let t1 = Instant::now();
            trace.record("transformer.step", t0, t1, parent, request);
            // The final step samples without advancing the cache.
            if !session.is_done() {
                steps.push(t1 - t0);
            }
        }
        if let Some(id) = parent {
            trace.close(id, Instant::now());
        }
        kv_bytes += session.cache_bytes();
        positions += session.prompt_len() + session.generated().len() - 1;
        out.stats.merge(&session.stats());
        out.steps.push(steps);
        out.tokens.push(session.into_result().tokens);
    }
    out.kv_bytes_per_token = kv_bytes as f64 / positions.max(1) as f64;
    out
}
