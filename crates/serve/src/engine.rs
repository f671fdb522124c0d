//! The serving engine: tagged submission queue → dynamic batcher →
//! scoped worker pool, shared by every registered model.
//!
//! ```text
//!  clients                      engine (std::thread::scope)
//!  ───────                      ─────────────────────────────────────────
//!  submit_to(model, …) ──▶      TaggedQueue<ModelId, Request>
//!  submit(…) = model #0              │ one global FIFO, capacity-bounded
//!        │                          │ pop_batch_grouped: leader = oldest
//!        ▼                          │ request, batch = same
//!     Ticket ◀── mpsc ──  worker:   ▼ (model, length-bucket) only
//!        wait()           any worker runs any model's batch through
//!                         that model's PreparedModel::infer_batch
//!                                   │
//!                                   ▼
//!                         Metrics (per-model + aggregate: latency
//!                         histograms, batches, queue depth, values/sec)
//! ```
//!
//! Everything is in-process and synchronous: [`serve`] /
//! [`serve_registry`] own the worker threads inside a
//! `std::thread::scope`, so shutdown is structural — when the driver
//! closure returns, the queue closes, workers drain the accepted
//! backlog, and the scope joins them before returning. No accepted
//! request is ever dropped.
//!
//! Batches never mix models: the batcher coalesces only requests for the
//! leader's `(model, length-bucket)` pair, and because the leader is the
//! *globally* oldest request, a lightly-loaded model is never starved by
//! a heavily-loaded one.
//!
//! Besides one-shot encoder requests, the engine serves **generations**
//! ([`ServeHandle::submit_generate`]): autoregressive greedy decode over
//! a quantized KV-cache ([`DecodeSession`]). A generation does not camp
//! on a worker until it finishes — each service slice advances it one
//! token and then *re-enqueues* it, so in-flight generations interleave
//! with one-shot traffic and with each other at token granularity.
//! Decode slices batch generations for the same model together but never
//! mix with one-shot batches, and a decode slice is **one fused step**:
//! it prefills the generations that are new, then advances all of them
//! with a single [`DecodeSession::step_batch`] pass, so the projection
//! and FFN GEMMs run once at one row per generation. A generation slice
//! never waits for stragglers — it takes the generations already queued
//! and runs — so [`ServeConfig::max_wait`] is never added to a token's
//! latency (iteration-level scheduling). If a finished step cannot
//! re-enter the queue (capacity, quota, or shutdown), the worker
//! finishes that generation inline — an accepted generation, like any
//! accepted request, is never dropped.

use crate::metrics::{Metrics, MetricsReport, ServeReport};
use crate::prepared::PreparedModel;
use crate::queue::{PushError, TaggedQueue};
use crate::registry::{next_registry_nonce, ModelId, ModelRegistry, ModelServeConfig};
use mokey_transformer::exec::QuantizedStats;
use mokey_transformer::{DecodeSession, ExecMode, TaskOutput};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Engine sizing: worker pool, batcher, and admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads executing batches (minimum 1). Workers are not
    /// pinned to models: any worker executes any model's batch.
    pub workers: usize,
    /// Largest batch the dynamic batcher coalesces.
    pub max_batch: usize,
    /// How long an underfull one-shot batch waits for stragglers.
    /// Applies to one-shot batches only: a decode slice runs the
    /// generations already queued at once.
    pub max_wait: Duration,
    /// Submission-queue capacity, shared across all models (admission
    /// control / backpressure threshold).
    pub queue_capacity: usize,
    /// Width of the length buckets the batcher groups by: requests whose
    /// token counts fall in the same `length_bucket`-wide band coalesce
    /// into one batch, so the executor can pack them into a single
    /// seq×batch GEMM with bounded padding. `0` disables bucketing
    /// (batches form FIFO regardless of length). Batches additionally
    /// never mix models, whatever this is set to.
    pub length_bucket: usize,
    /// How workers evaluate the projection/FFN GEMMs:
    /// [`ExecMode::Decoded`] (dense float GEMMs over decoded centroids,
    /// the default) or [`ExecMode::IndexDomain`] (LUT GEMMs over retained
    /// codes — bit-identical responses, typically faster). Per-model
    /// overrides via
    /// [`ModelServeConfig::mode`](crate::ModelServeConfig::mode).
    pub mode: ExecMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            queue_capacity: 128,
            length_bucket: 8,
            mode: ExecMode::Decoded,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity (only `try_submit`; `submit` blocks
    /// instead).
    QueueFull,
    /// The engine is shutting down.
    ShuttingDown,
    /// The target [`ModelId`] is not registered with this engine —
    /// either its slot is out of range or the id was minted by a
    /// *different* registry (ids carry registry identity and never alias
    /// across registries).
    UnknownModel {
        /// The id that failed to resolve.
        model: ModelId,
    },
    /// The target model is at its admission quota
    /// ([`ModelServeConfig::queue_quota`](crate::ModelServeConfig)): it
    /// already occupies its full share of the submission queue, so this
    /// request is shed instead of letting one model starve the others of
    /// queue space. Returned by blocking and non-blocking submission
    /// alike — quota rejection never blocks.
    ModelQuotaExceeded {
        /// The model at quota.
        model: ModelId,
        /// Its configured quota.
        quota: usize,
    },
    /// The request carries no tokens (a forward pass needs at least the
    /// CLS position).
    EmptySequence,
    /// The request exceeds the target model's maximum sequence length.
    SequenceTooLong {
        /// Submitted sequence length.
        len: usize,
        /// The model's limit.
        max_seq: usize,
    },
    /// The request contains a token outside the target model's
    /// vocabulary.
    TokenOutOfVocab {
        /// The offending token id.
        token: usize,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// A generation was submitted to a model prepared without activation
    /// quantization: the KV-cache stores activation *codes*, so decode
    /// requires K/V dictionaries.
    DecodeUnsupported {
        /// The model that cannot decode.
        model: ModelId,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue is at capacity"),
            SubmitError::ShuttingDown => write!(f, "serving engine is shutting down"),
            SubmitError::UnknownModel { model } => {
                write!(f, "{model} is not registered with this engine")
            }
            SubmitError::ModelQuotaExceeded { model, quota } => {
                write!(f, "{model} is at its admission quota of {quota} queued requests")
            }
            SubmitError::EmptySequence => write!(f, "request carries no tokens"),
            SubmitError::SequenceTooLong { len, max_seq } => {
                write!(f, "sequence of {len} tokens exceeds the model maximum of {max_seq}")
            }
            SubmitError::TokenOutOfVocab { token, vocab } => {
                write!(f, "token {token} is outside the vocabulary of {vocab}")
            }
            SubmitError::DecodeUnsupported { model } => {
                write!(f, "{model} was prepared without activation quantization; decode needs K/V dictionaries")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id [`ServeHandle::submit`] assigned.
    pub id: u64,
    /// The model that served this request.
    pub model: ModelId,
    /// The task-head output.
    pub output: TaskOutput,
    /// This request's activation-encoding counters.
    pub stats: QuantizedStats,
    /// How many requests shared the batch.
    pub batch_size: usize,
    /// Submission → batch-formed wait.
    pub queue_wait: Duration,
    /// Submission → response latency.
    pub latency: Duration,
}

/// A claim on a future [`Response`].
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// The id the engine assigned to this request.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives. Accepted requests are always
    /// answered — shutdown drains the queue.
    pub fn wait(self) -> Response {
        self.rx.recv().expect("serving engine dropped an accepted request")
    }
}

/// One finished generation.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateResponse {
    /// The id [`ServeHandle::submit_generate`] assigned.
    pub id: u64,
    /// The model that served this generation.
    pub model: ModelId,
    /// Every greedily sampled token, in order (includes the EOS token
    /// when generation stopped on it).
    pub tokens: Vec<usize>,
    /// Queue passes this generation consumed (prefill slice plus one per
    /// re-entry). Less than `tokens.len()` when a failed re-enqueue made
    /// a worker finish the tail inline.
    pub steps: usize,
    /// Merged activation-encoding counters (prefill + every step).
    pub stats: QuantizedStats,
    /// Submission → first service slice.
    pub queue_wait: Duration,
    /// Submission → final token.
    pub latency: Duration,
}

/// One event on a generation stream.
#[derive(Debug, Clone, PartialEq)]
pub enum GenUpdate {
    /// A token was sampled (`index` counts from 0).
    Token {
        /// Position of this token within the generation.
        index: usize,
        /// The sampled token id.
        token: usize,
    },
    /// The generation finished; no further updates follow.
    Done(GenerateResponse),
}

/// A claim on a generation's token stream.
#[derive(Debug)]
pub struct GenTicket {
    id: u64,
    rx: mpsc::Receiver<GenUpdate>,
}

impl GenTicket {
    /// The id the engine assigned to this generation.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the next update. Tokens arrive in order;
    /// [`GenUpdate::Done`] is always the final update.
    pub fn next(&self) -> GenUpdate {
        self.rx.recv().expect("serving engine dropped an accepted generation")
    }

    /// Blocks until the generation finishes, discarding the per-token
    /// stream (the final response carries every token anyway).
    pub fn wait(self) -> GenerateResponse {
        loop {
            if let GenUpdate::Done(response) = self.next() {
                return response;
            }
        }
    }
}

struct Request {
    id: u64,
    tokens: Vec<usize>,
    accepted_at: Instant,
    tx: mpsc::Sender<Response>,
}

/// Where an in-flight generation is in its lifecycle: accepted but not
/// yet prefilled, or running with a live KV-cache.
enum GenState {
    Pending { prompt: Vec<usize>, max_tokens: usize, eos: Option<usize> },
    Running(DecodeSession),
}

/// One in-flight generation riding the submission queue between steps.
struct GenJob {
    id: u64,
    state: GenState,
    accepted_at: Instant,
    /// When the previous token was sampled (accept time before the
    /// first), anchoring per-token latency.
    last_token_at: Instant,
    /// Set at the first service slice.
    queue_wait: Option<Duration>,
    /// Queue passes so far.
    steps: usize,
    tx: mpsc::Sender<GenUpdate>,
}

/// What the submission queue carries: a one-shot encoder request or an
/// in-flight generation between steps. The batch key separates the two,
/// so batches are always homogeneous.
enum WorkItem {
    OneShot(Request),
    Generate(Box<GenJob>),
}

/// The claim a submission mints — a [`Ticket`] for a one-shot, a
/// [`GenTicket`] for a generation — with the queue item that answers it
/// over a fresh channel, so one enqueue path serves both kinds.
trait Claim: Sized {
    fn mint(id: u64, tokens: Vec<usize>, max_tokens: usize, eos: Option<usize>)
        -> (WorkItem, Self);
}

impl Claim for Ticket {
    fn mint(id: u64, tokens: Vec<usize>, _: usize, _: Option<usize>) -> (WorkItem, Self) {
        let (tx, rx) = mpsc::channel();
        let request = Request { id, tokens, accepted_at: Instant::now(), tx };
        (WorkItem::OneShot(request), Ticket { id, rx })
    }
}

impl Claim for GenTicket {
    fn mint(
        id: u64,
        prompt: Vec<usize>,
        max_tokens: usize,
        eos: Option<usize>,
    ) -> (WorkItem, Self) {
        let (tx, rx) = mpsc::channel();
        let accepted_at = Instant::now();
        let job = GenJob {
            id,
            state: GenState::Pending { prompt, max_tokens, eos },
            accepted_at,
            last_token_at: accepted_at,
            queue_wait: None,
            steps: 0,
            tx,
        };
        (WorkItem::Generate(Box::new(job)), GenTicket { id, rx })
    }
}

/// One registered model inside a running engine: the prepared model, its
/// batching policy (per-model overrides already resolved against the
/// engine-global [`ServeConfig`]), and its own metrics scope.
struct ModelSlot<'m> {
    name: &'m str,
    model: &'m PreparedModel,
    /// This model's batch cap ([`ModelServeConfig::max_batch`] or the
    /// engine default).
    max_batch: usize,
    /// This model's length-bucket width ([`ModelServeConfig::length_bucket`]
    /// or the engine default).
    length_bucket: usize,
    /// This model's admission quota, if capped.
    queue_quota: Option<usize>,
    /// This model's execution mode ([`ModelServeConfig::mode`] or the
    /// engine default).
    mode: ExecMode,
    metrics: Metrics,
}

struct Shared<'m> {
    slots: Vec<ModelSlot<'m>>,
    config: ServeConfig,
    /// The registry identity this engine serves: ids resolve against it,
    /// so foreign-registry ids bounce instead of aliasing positionally.
    nonce: u32,
    queue: TaggedQueue<ModelId, WorkItem>,
    /// Aggregate across every model; per-model counters live in the
    /// slots. Every event is recorded into both scopes.
    metrics: Metrics,
    next_id: AtomicU64,
}

impl Shared<'_> {
    /// Records one event into a model's metrics and into the aggregate —
    /// the one place that keeps each per-model counter column summing to
    /// the aggregate.
    fn record(&self, slot: &ModelSlot<'_>, event: impl Fn(&Metrics)) {
        event(&self.metrics);
        event(&slot.metrics);
    }
}

/// The client face of a running engine: submit requests (to any
/// registered model), read live metrics. `Sync`, so one handle can drive
/// many client threads.
pub struct ServeHandle<'e> {
    shared: &'e Shared<'e>,
}

impl ServeHandle<'_> {
    /// Resolves a client-supplied id to its canonical engine-scoped form
    /// plus the slot it addresses. The canonical id is what tags the
    /// queue entry, so unscoped ([`ModelId::DEFAULT`]) and
    /// registry-minted submissions to the same model share one quota and
    /// one batching group.
    fn slot(&self, model: ModelId) -> Result<(ModelId, &ModelSlot<'_>), SubmitError> {
        // An unknown id has no metrics scope to account against (and
        // counting it only in the aggregate would break the per-model
        // columns summing to the aggregate), so it is bounced uncounted.
        let resolved =
            model.resolve(self.shared.nonce).ok_or(SubmitError::UnknownModel { model })?;
        let slot =
            self.shared.slots.get(resolved.index()).ok_or(SubmitError::UnknownModel { model })?;
        Ok((resolved, slot))
    }

    /// Admission for every submission. A one-shot is a submission with
    /// no token budget and no EOS; a generation's `budget` must be
    /// non-zero and fit the model's sequence limit together with the
    /// prompt, its EOS token (if any) must be in vocabulary, and the
    /// model must have K/V activation dictionaries.
    fn admit(
        &self,
        model: ModelId,
        slot: &ModelSlot<'_>,
        tokens: &[usize],
        budget: Option<usize>,
        eos: Option<usize>,
    ) -> Result<(), SubmitError> {
        let len = tokens.len().saturating_add(budget.unwrap_or(0));
        let (max_seq, vocab) = (slot.model.max_seq(), slot.model.vocab());
        let err = if tokens.is_empty() || budget == Some(0) {
            SubmitError::EmptySequence
        } else if len > max_seq {
            SubmitError::SequenceTooLong { len, max_seq }
        } else if let Some(&token) = tokens.iter().chain(&eos).find(|&&t| t >= vocab) {
            SubmitError::TokenOutOfVocab { token, vocab }
        } else if budget.is_some() && slot.model.context().act_dict("L0.attn.k").is_none() {
            SubmitError::DecodeUnsupported { model }
        } else {
            return Ok(());
        };
        self.shared.record(slot, Metrics::note_rejected_invalid);
        Err(err)
    }

    /// The one enqueue path behind every submission: resolve the model,
    /// admit, mint the id, the claim and its reply channel, push (waiting
    /// for space when `blocking`), and account the outcome.
    fn enqueue<C: Claim>(
        &self,
        model: ModelId,
        tokens: Vec<usize>,
        budget: Option<usize>,
        eos: Option<usize>,
        blocking: bool,
    ) -> Result<C, SubmitError> {
        let (model, slot) = self.slot(model)?;
        self.admit(model, slot, &tokens, budget, eos)?;
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let (item, claim) = C::mint(id, tokens, budget.unwrap_or(0), eos);
        let queue = &self.shared.queue;
        let pushed =
            if blocking { queue.push_blocking(model, item) } else { queue.try_push(model, item) };
        let (event, outcome): (fn(&Metrics), _) = match pushed {
            Ok(_) => (Metrics::note_submitted, Ok(claim)),
            Err(PushError::Full(_)) => (Metrics::note_rejected_full, Err(SubmitError::QueueFull)),
            Err(PushError::QuotaExceeded(_)) => {
                let quota = slot.queue_quota.unwrap_or(0).max(1);
                (
                    Metrics::note_rejected_quota,
                    Err(SubmitError::ModelQuotaExceeded { model, quota }),
                )
            }
            Err(PushError::Closed(_)) => return Err(SubmitError::ShuttingDown),
        };
        self.shared.record(slot, event);
        outcome
    }

    /// Submits a request to the default model ([`ModelId::DEFAULT`] — the
    /// single-model convenience), blocking while the queue is at capacity
    /// (backpressure).
    ///
    /// # Errors
    ///
    /// Everything [`ServeHandle::submit_to`] can return.
    pub fn submit(&self, tokens: Vec<usize>) -> Result<Ticket, SubmitError> {
        self.enqueue(ModelId::DEFAULT, tokens, None, None, true)
    }

    /// Submits a request to the default model without blocking.
    ///
    /// # Errors
    ///
    /// Everything [`ServeHandle::try_submit_to`] can return.
    pub fn try_submit(&self, tokens: Vec<usize>) -> Result<Ticket, SubmitError> {
        self.enqueue(ModelId::DEFAULT, tokens, None, None, false)
    }

    /// Submits a request to a specific registered model, blocking while
    /// the queue is at capacity (backpressure).
    ///
    /// `model` must come from the registry this engine serves — ids carry
    /// their minting registry's identity, so a foreign id bounces with
    /// [`SubmitError::UnknownModel`] instead of aliasing positionally.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownModel`], validation failures
    /// ([`SubmitError::SequenceTooLong`] /
    /// [`SubmitError::TokenOutOfVocab`] /
    /// [`SubmitError::EmptySequence`]),
    /// [`SubmitError::ModelQuotaExceeded`] when the model is at its
    /// admission quota (quota rejection never blocks — blocking would let
    /// the flooder camp on shared capacity), or
    /// [`SubmitError::ShuttingDown`].
    pub fn submit_to(&self, model: ModelId, tokens: Vec<usize>) -> Result<Ticket, SubmitError> {
        self.enqueue(model, tokens, None, None, true)
    }

    /// Submits a request to a specific registered model without blocking
    /// (admission control).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at capacity, plus everything
    /// [`ServeHandle::submit_to`] can return.
    pub fn try_submit_to(&self, model: ModelId, tokens: Vec<usize>) -> Result<Ticket, SubmitError> {
        self.enqueue(model, tokens, None, None, false)
    }

    /// Submits a generation to the default model, blocking while the
    /// queue is at capacity. The prompt is prefilled once; every
    /// subsequent token is decoded incrementally over the quantized
    /// KV-cache, with the generation re-entering the queue between
    /// tokens so it interleaves with other traffic.
    ///
    /// # Errors
    ///
    /// Everything [`ServeHandle::submit_generate_to`] can return.
    pub fn submit_generate(
        &self,
        prompt: Vec<usize>,
        max_tokens: usize,
        eos: Option<usize>,
    ) -> Result<GenTicket, SubmitError> {
        self.enqueue(ModelId::DEFAULT, prompt, Some(max_tokens), eos, true)
    }

    /// Submits a generation to a specific registered model, blocking
    /// while the queue is at capacity.
    ///
    /// `max_tokens` bounds the generation (it must be non-zero and
    /// `prompt.len() + max_tokens` must fit the model's `max_seq`);
    /// `eos`, when given, stops it early (the EOS token is included in
    /// the response).
    ///
    /// # Errors
    ///
    /// Everything [`ServeHandle::submit_to`] can return, plus
    /// [`SubmitError::DecodeUnsupported`] for a model prepared without
    /// activation quantization. [`SubmitError::EmptySequence`] also
    /// covers `max_tokens == 0`, and [`SubmitError::SequenceTooLong`]
    /// reports `prompt.len() + max_tokens` against `max_seq`.
    pub fn submit_generate_to(
        &self,
        model: ModelId,
        prompt: Vec<usize>,
        max_tokens: usize,
        eos: Option<usize>,
    ) -> Result<GenTicket, SubmitError> {
        self.enqueue(model, prompt, Some(max_tokens), eos, true)
    }

    /// Submits a generation to a specific registered model without
    /// blocking (admission control).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at capacity, plus everything
    /// [`ServeHandle::submit_generate_to`] can return.
    pub fn try_submit_generate_to(
        &self,
        model: ModelId,
        prompt: Vec<usize>,
        max_tokens: usize,
        eos: Option<usize>,
    ) -> Result<GenTicket, SubmitError> {
        self.enqueue(model, prompt, Some(max_tokens), eos, false)
    }

    /// Current submission-queue depth (all models).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Number of models this engine serves.
    pub fn model_count(&self) -> usize {
        self.shared.slots.len()
    }

    /// Live aggregate metrics snapshot.
    pub fn metrics(&self) -> MetricsReport {
        self.shared.metrics.snapshot(self.shared.queue.peak_depth())
    }

    /// Live metrics snapshot for one registered model. `None` for
    /// foreign-registry or out-of-range ids.
    pub fn model_metrics(&self, model: ModelId) -> Option<MetricsReport> {
        let (_, slot) = self.slot(model).ok()?;
        Some(slot.metrics.snapshot(self.shared.queue.peak_depth()))
    }

    /// Current submission-queue occupancy of one registered model —
    /// what its admission quota is charged against.
    pub fn model_queue_depth(&self, model: ModelId) -> Option<usize> {
        let (model, _) = self.slot(model).ok()?;
        Some(self.shared.queue.tag_depth(model))
    }
}

fn worker_loop(shared: &Shared<'_>) {
    // Batching policy is the *leader's* model's: its batch cap and its
    // length-bucket width (per-model overrides resolved at startup).
    let max_batch = |model: ModelId| shared.slots[model.index()].max_batch;
    // The key's leading bool splits one-shot requests from generations,
    // so a popped batch is always homogeneous. Decode slices ignore
    // length buckets — every step is one row regardless of the prefix.
    let key = |model: ModelId, item: &WorkItem| {
        let bucket = shared.slots[model.index()].length_bucket;
        match item {
            WorkItem::OneShot(r) => (false, r.tokens.len().checked_div(bucket).unwrap_or(0)),
            WorkItem::Generate(_) => (true, 0),
        }
    };
    // A generation slice takes whatever is already queued and never waits
    // for stragglers: every in-flight generation re-enters the queue after
    // each token, so waiting would only add the wait to every token.
    let max_wait = |&(generation, _): &(bool, usize)| {
        if generation {
            Duration::ZERO
        } else {
            shared.config.max_wait
        }
    };
    while let Some((model, batch)) = shared.queue.pop_batch_by(max_batch, max_wait, key) {
        let slot = &shared.slots[model.index()];
        let formed_at = Instant::now();
        let mut requests = Vec::new();
        let mut jobs = Vec::new();
        for item in batch {
            match item {
                WorkItem::OneShot(r) => requests.push(r),
                WorkItem::Generate(j) => jobs.push(*j),
            }
        }
        if !requests.is_empty() {
            serve_oneshot_batch(shared, model, slot, formed_at, requests);
        }
        if !jobs.is_empty() {
            serve_decode_slice(shared, model, slot, formed_at, jobs);
        }
    }
}

fn serve_oneshot_batch(
    shared: &Shared<'_>,
    model: ModelId,
    slot: &ModelSlot<'_>,
    formed_at: Instant,
    batch: Vec<Request>,
) {
    shared.record(slot, |m| m.note_batch(batch.len()));
    let batch_size = batch.len();
    let (requests, tokens): (Vec<_>, Vec<_>) =
        batch.into_iter().map(|r| ((r.id, r.accepted_at, r.tx), r.tokens)).unzip();
    let run = slot.model.infer_batch_mode(&tokens, slot.mode);
    shared.record(slot, |m| m.note_packing(&run.packing));
    for ((id, accepted_at, tx), (output, stats)) in requests.into_iter().zip(run.results) {
        let queue_wait = formed_at.duration_since(accepted_at);
        let latency = accepted_at.elapsed();
        shared.record(slot, |m| m.note_completed(latency, queue_wait, &stats));
        // A client that dropped its ticket just doesn't read the
        // response; the request still counts as served.
        let _ = tx.send(Response { id, model, output, stats, batch_size, queue_wait, latency });
    }
}

/// One decode slice: prefill the popped generations that are new, then
/// advance every one of them a single token with one fused
/// [`DecodeSession::step_batch`] pass, and re-enqueue the unfinished ones
/// so they interleave with other traffic instead of camping on this
/// worker.
fn serve_decode_slice(
    shared: &Shared<'_>,
    model: ModelId,
    slot: &ModelSlot<'_>,
    formed_at: Instant,
    mut jobs: Vec<GenJob>,
) {
    shared.record(slot, Metrics::note_decode_step);
    let (m, ctx) = (slot.model.model(), slot.model.context());
    for job in &mut jobs {
        job.steps += 1;
        if job.queue_wait.is_none() {
            job.queue_wait = Some(formed_at.duration_since(job.accepted_at));
        }
        if let GenState::Pending { prompt, max_tokens, eos } = &job.state {
            let session = DecodeSession::prefill(m, ctx, prompt, *max_tokens, *eos, slot.mode);
            job.state = GenState::Running(session);
        }
    }
    let mut sessions: Vec<&mut DecodeSession> = jobs.iter_mut().map(GenJob::session).collect();
    let tokens = DecodeSession::step_batch(&mut sessions, m, ctx);
    for (mut job, token) in jobs.into_iter().zip(tokens) {
        if stream_token(shared, slot, &mut job, token) {
            finish_generation(shared, model, slot, job);
            continue;
        }
        // Unfinished: back into the queue behind whatever arrived since.
        // If re-entry fails (capacity, quota, shutdown), finish inline —
        // an accepted generation is never dropped, and parking it would
        // deadlock a drain.
        match shared.queue.try_push(model, WorkItem::Generate(Box::new(job))) {
            Ok(_) => {}
            Err(
                PushError::Full(item) | PushError::QuotaExceeded(item) | PushError::Closed(item),
            ) => {
                let WorkItem::Generate(boxed) = item else { unreachable!() };
                let mut job = *boxed;
                loop {
                    let token = job.session().step(m, ctx);
                    if stream_token(shared, slot, &mut job, token) {
                        break;
                    }
                }
                finish_generation(shared, model, slot, job);
            }
        }
    }
}

impl GenJob {
    fn session(&mut self) -> &mut DecodeSession {
        let GenState::Running(session) = &mut self.state else {
            unreachable!("generation stepped before prefill")
        };
        session
    }
}

/// Streams one sampled token and records per-token metrics. Returns
/// whether the generation just finished.
fn stream_token(shared: &Shared<'_>, slot: &ModelSlot<'_>, job: &mut GenJob, token: usize) -> bool {
    let session = job.session();
    let index = session.generated().len() - 1;
    let done = session.is_done();
    let now = Instant::now();
    let inter_token = now.duration_since(job.last_token_at);
    job.last_token_at = now;
    shared.record(slot, |m| m.note_generated(inter_token));
    // A client that dropped its ticket just doesn't read the stream.
    let _ = job.tx.send(GenUpdate::Token { index, token });
    done
}

fn finish_generation(shared: &Shared<'_>, model: ModelId, slot: &ModelSlot<'_>, job: GenJob) {
    let GenState::Running(session) = job.state else {
        unreachable!("generation finished before prefill")
    };
    let stats = session.stats();
    let result = session.into_result();
    let queue_wait = job.queue_wait.unwrap_or_default();
    let latency = job.accepted_at.elapsed();
    shared.record(slot, |m| m.note_completed(latency, queue_wait, &stats));
    let _ = job.tx.send(GenUpdate::Done(GenerateResponse {
        id: job.id,
        model,
        tokens: result.tokens,
        steps: job.steps,
        stats,
        queue_wait,
        latency,
    }));
}

/// The engine core shared by [`serve`] and [`serve_registry`]: spins up
/// the worker pool over the given model slots, runs the driver, drains,
/// and snapshots every metrics scope.
fn run_engine<'m, R, F>(
    models: Vec<(&'m str, &'m PreparedModel, ModelServeConfig)>,
    nonce: u32,
    config: ServeConfig,
    f: F,
) -> (R, ServeReport)
where
    F: FnOnce(&ServeHandle<'_>) -> R,
{
    assert!(!models.is_empty(), "the serving engine needs at least one model");
    let config = ServeConfig { workers: config.workers.max(1), ..config };
    let shared = Shared {
        slots: models
            .into_iter()
            .map(|(name, model, serve)| ModelSlot {
                name,
                model,
                max_batch: serve.max_batch.unwrap_or(config.max_batch),
                length_bucket: serve.length_bucket.unwrap_or(config.length_bucket),
                queue_quota: serve.queue_quota,
                mode: serve.mode.unwrap_or(config.mode),
                metrics: Metrics::new(),
            })
            .collect(),
        config,
        nonce,
        queue: TaggedQueue::new(config.queue_capacity),
        metrics: Metrics::new(),
        next_id: AtomicU64::new(0),
    };
    for (index, slot) in shared.slots.iter().enumerate() {
        if slot.queue_quota.is_some() {
            shared.queue.set_quota(ModelId::scoped(nonce, index), slot.queue_quota);
        }
    }
    /// Closes the queue when dropped — including during unwinding, so a
    /// panicking driver closure can't leave workers parked on the
    /// condvar while the scope waits to join them.
    struct CloseOnDrop<'a>(&'a TaggedQueue<ModelId, WorkItem>);
    impl Drop for CloseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.close();
        }
    }

    let out = std::thread::scope(|scope| {
        for _ in 0..config.workers {
            scope.spawn(|| worker_loop(&shared));
        }
        // Structural shutdown: when the driver returns (or panics), the
        // guard stops admissions, workers drain the backlog, and the
        // scope joins them.
        let _shutdown = CloseOnDrop(&shared.queue);
        let handle = ServeHandle { shared: &shared };
        f(&handle)
    });
    let peak = shared.queue.peak_depth();
    let report = ServeReport {
        aggregate: shared.metrics.snapshot(peak),
        per_model: shared
            .slots
            .iter()
            .map(|slot| (slot.name.to_owned(), slot.metrics.snapshot(peak)))
            .collect(),
    };
    (out, report)
}

/// Runs a single-model serving engine around `model` for the lifetime of
/// the driver closure `f` — the convenience wrapper over the multi-model
/// engine for the common one-checkpoint deployment.
///
/// The model is registered as [`ModelId::DEFAULT`], which is where
/// [`ServeHandle::submit`] routes, so single-model callers never mention
/// model ids. Workers start before `f` runs and keep serving while it
/// executes; when `f` returns, the queue closes (new submissions fail
/// with [`SubmitError::ShuttingDown`]), the workers drain every accepted
/// request, and the scope joins them. Returns the closure's result and
/// the final (aggregate) metrics.
///
/// # Example
///
/// ```
/// use mokey_serve::{serve, PreparedModel, ServeConfig};
/// use mokey_transformer::{Head, Model, ModelConfig, QuantizeSpec};
///
/// let config = ModelConfig::bert_base().scaled(16, 16);
/// let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 1);
/// let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, s)).collect();
/// let prepared =
///     PreparedModel::prepare(model, QuantizeSpec::weights_and_activations(), &profile).unwrap();
/// let (outputs, report) = serve(&prepared, ServeConfig::default(), |handle| {
///     let tickets: Vec<_> = (0..4)
///         .map(|s| handle.submit(prepared.model().random_tokens(12, s)).unwrap())
///         .collect();
///     tickets.into_iter().map(|t| t.wait().output).collect::<Vec<_>>()
/// });
/// assert_eq!(outputs.len(), 4);
/// assert_eq!(report.completed, 4);
/// ```
pub fn serve<R, F>(model: &PreparedModel, config: ServeConfig, f: F) -> (R, MetricsReport)
where
    F: FnOnce(&ServeHandle<'_>) -> R,
{
    let name = model.model().config().name.as_str();
    // A single-model engine still gets a fresh registry identity, so its
    // unscoped default route resolves consistently and foreign registry
    // ids bounce.
    let nonce = next_registry_nonce();
    let (out, report) =
        run_engine(vec![(name, model, ModelServeConfig::default())], nonce, config, f);
    (out, report.aggregate)
}

/// Runs a multi-model serving engine over every model in `registry` for
/// the lifetime of the driver closure `f`.
///
/// All models share one submission queue, one worker pool, and one
/// batcher; batches never mix models, and the globally oldest request
/// always leads the next batch (no model can starve another). Returns
/// the closure's result and a [`ServeReport`] with the aggregate plus
/// per-model metrics.
///
/// # Panics
///
/// Panics if the registry is empty.
///
/// # Example
///
/// ```
/// use mokey_serve::{serve_registry, ModelRegistry, ServeConfig};
/// use mokey_transformer::{Head, Model, ModelConfig, QuantizeSpec};
///
/// let config = ModelConfig::bert_base().scaled(16, 16);
/// let profile: Vec<Vec<usize>> = (0..2)
///     .map(|s| Model::synthesize(&config, Head::Span, 1).random_tokens(12, s))
///     .collect();
/// let mut registry = ModelRegistry::new();
/// let spec = QuantizeSpec::weights_and_activations();
/// let sentiment = registry
///     .register(
///         "sentiment",
///         Model::synthesize(&config, Head::Classification { classes: 3 }, 1),
///         spec,
///         &profile,
///     )
///     .unwrap();
/// let topic = registry
///     .register(
///         "topic",
///         Model::synthesize(&config, Head::Classification { classes: 5 }, 1),
///         spec,
///         &profile,
///     )
///     .unwrap();
/// let ((), report) = serve_registry(&registry, ServeConfig::default(), |handle| {
///     let tokens = registry.get(sentiment).unwrap().model().random_tokens(12, 9);
///     let a = handle.submit_to(sentiment, tokens.clone()).unwrap();
///     let b = handle.submit_to(topic, tokens).unwrap();
///     assert_ne!(a.wait().output, b.wait().output);
/// });
/// assert_eq!(report.aggregate.completed, 2);
/// assert_eq!(report.model("sentiment").unwrap().completed, 1);
/// ```
pub fn serve_registry<R, F>(registry: &ModelRegistry, config: ServeConfig, f: F) -> (R, ServeReport)
where
    F: FnOnce(&ServeHandle<'_>) -> R,
{
    assert!(!registry.is_empty(), "serve_registry needs at least one registered model");
    run_engine(
        registry
            .iter()
            .map(|(id, name, model)| (name, model, registry.serve_config(id).unwrap_or_default()))
            .collect(),
        registry.nonce(),
        config,
        f,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mokey_pipeline::QuantizeSpec;
    use mokey_transformer::{Head, Model, ModelConfig};

    fn test_config() -> ModelConfig {
        ModelConfig {
            name: "engine-test".into(),
            layers: 1,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 150,
            max_seq: 16,
        }
    }

    fn prepared() -> PreparedModel {
        let model = Model::synthesize(&test_config(), Head::Classification { classes: 3 }, 13);
        let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(10, 30 + s)).collect();
        PreparedModel::prepare(model, QuantizeSpec::weights_and_activations(), &profile)
            .expect("non-degenerate model")
    }

    fn two_model_registry() -> (ModelRegistry, ModelId, ModelId) {
        let mut registry = ModelRegistry::new();
        let spec = QuantizeSpec::weights_and_activations();
        let config = test_config();
        let profile: Vec<Vec<usize>> = (0..2)
            .map(|s| Model::synthesize(&config, Head::Span, 13).random_tokens(10, 30 + s))
            .collect();
        let a = registry
            .register(
                "classify",
                Model::synthesize(&config, Head::Classification { classes: 3 }, 13),
                spec,
                &profile,
            )
            .unwrap();
        let b = registry
            .register("span", Model::synthesize(&config, Head::Span, 14), spec, &profile)
            .unwrap();
        (registry, a, b)
    }

    #[test]
    fn serves_requests_and_reports_metrics() {
        let p = prepared();
        let config = ServeConfig {
            workers: 2,
            max_batch: 4,
            max_wait: Duration::from_millis(2),
            queue_capacity: 16,
            ..ServeConfig::default()
        };
        let inputs: Vec<Vec<usize>> = (0..10).map(|s| p.model().random_tokens(10, s)).collect();
        let (responses, report) = serve(&p, config, |handle| {
            let tickets: Vec<_> =
                inputs.iter().map(|t| handle.submit(t.clone()).unwrap()).collect();
            tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
        });
        assert_eq!(responses.len(), 10);
        for (tokens, response) in inputs.iter().zip(&responses) {
            assert_eq!(response.output, p.infer(tokens).0, "engine output diverged");
            assert_eq!(response.model.index(), 0);
            assert!(response.batch_size >= 1);
            assert!(response.latency >= response.queue_wait);
        }
        assert_eq!(report.submitted, 10);
        assert_eq!(report.completed, 10);
        assert!(report.batches_formed >= 1);
        assert!(report.act_values > 0);
    }

    #[test]
    fn invalid_requests_are_rejected_at_admission() {
        let p = prepared();
        let ((), report) = serve(&p, ServeConfig::default(), |handle| {
            let too_long = vec![1usize; p.max_seq() + 1];
            assert_eq!(
                handle.submit(too_long).unwrap_err(),
                SubmitError::SequenceTooLong { len: p.max_seq() + 1, max_seq: p.max_seq() }
            );
            let oov = vec![p.vocab() + 5];
            assert_eq!(
                handle.submit(oov).unwrap_err(),
                SubmitError::TokenOutOfVocab { token: p.vocab() + 5, vocab: p.vocab() }
            );
            // An id past the slot table is a typed error, not a panic.
            let past = ModelId { registry: 0, index: 7 };
            assert_eq!(
                handle.submit_to(past, vec![1, 2, 3]).unwrap_err(),
                SubmitError::UnknownModel { model: past }
            );
        });
        assert_eq!(report.submitted, 0);
        assert_eq!(report.rejected_invalid, 2);
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let p = prepared();
        let (ids, _) = serve(&p, ServeConfig::default(), |handle| {
            (0..5)
                .map(|s| handle.submit(p.model().random_tokens(8, s)).unwrap().id())
                .collect::<Vec<_>>()
        });
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn panicking_driver_closes_the_engine_instead_of_deadlocking() {
        let p = prepared();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve(&p, ServeConfig::default(), |handle| {
                let _ = handle.submit(p.model().random_tokens(8, 1)).unwrap();
                panic!("driver failed");
            })
        }));
        // Without the close-on-drop guard the workers would wait on the
        // queue forever and this join would hang; with it the panic
        // propagates after the backlog drains.
        assert!(result.is_err());
    }

    #[test]
    fn max_batch_one_forms_singleton_batches() {
        let p = prepared();
        let config = ServeConfig {
            workers: 2,
            max_batch: 1,
            max_wait: Duration::from_millis(5),
            queue_capacity: 16,
            ..ServeConfig::default()
        };
        let ((), report) = serve(&p, config, |handle| {
            let tickets: Vec<_> = (0..6)
                .map(|s| handle.submit(p.model().random_tokens(10, 100 + s)).unwrap())
                .collect();
            for t in tickets {
                assert_eq!(t.wait().batch_size, 1);
            }
        });
        assert_eq!(report.batches_formed, 6);
        assert_eq!(report.max_batch_size, 1);
        assert!((report.mean_batch_size - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_models_share_one_pool_and_report_per_model_metrics() {
        let (registry, a, b) = two_model_registry();
        let config = ServeConfig {
            workers: 2,
            max_batch: 4,
            max_wait: Duration::from_millis(2),
            queue_capacity: 32,
            ..ServeConfig::default()
        };
        let (responses, report) = serve_registry(&registry, config, |handle| {
            // Interleave submissions across the two models.
            let tickets: Vec<_> = (0..12)
                .map(|s| {
                    let model = if s % 2 == 0 { a } else { b };
                    let tokens = registry.get(model).unwrap().model().random_tokens(10, s as u64);
                    (model, tokens.clone(), handle.submit_to(model, tokens).unwrap())
                })
                .collect();
            tickets
                .into_iter()
                .map(|(model, tokens, t)| (model, tokens, t.wait()))
                .collect::<Vec<_>>()
        });
        for (model, tokens, response) in &responses {
            assert_eq!(response.model, *model);
            let (reference, reference_stats) = registry.get(*model).unwrap().infer(tokens);
            assert_eq!(response.output, reference, "multi-model output diverged");
            assert_eq!(response.stats, reference_stats);
        }
        assert_eq!(report.aggregate.completed, 12);
        assert_eq!(report.per_model.len(), 2);
        assert_eq!(report.model("classify").unwrap().completed, 6);
        assert_eq!(report.model("span").unwrap().completed, 6);
        let summed: u64 = report.per_model.iter().map(|(_, r)| r.batches_formed).sum();
        assert_eq!(summed, report.aggregate.batches_formed);
    }

    #[test]
    fn batches_never_mix_models_even_without_length_bucketing() {
        let (registry, a, b) = two_model_registry();
        // One worker + long straggler window + bucketing off: maximal
        // pressure to coalesce across models. Uniform lengths, so only
        // the model tag separates the traffic.
        let config = ServeConfig {
            workers: 1,
            max_batch: 8,
            max_wait: Duration::from_millis(50),
            queue_capacity: 32,
            length_bucket: 0,
            ..ServeConfig::default()
        };
        let (responses, _) = serve_registry(&registry, config, |handle| {
            let tickets: Vec<_> = (0..10)
                .map(|s| {
                    let model = if s % 2 == 0 { a } else { b };
                    let tokens = registry.get(model).unwrap().model().random_tokens(12, s as u64);
                    (model, tokens.clone(), handle.submit_to(model, tokens).unwrap())
                })
                .collect();
            tickets
                .into_iter()
                .map(|(model, tokens, t)| (model, tokens, t.wait()))
                .collect::<Vec<_>>()
        });
        for (model, tokens, response) in &responses {
            let (reference, _) = registry.get(*model).unwrap().infer(tokens);
            assert_eq!(&response.output, &reference, "cross-model batch contamination");
        }
    }

    #[test]
    fn single_model_serve_reports_the_models_name_in_registry_form() {
        let (registry, a, _) = two_model_registry();
        // model_metrics and model_count are live inside the driver.
        let ((), report) = serve_registry(&registry, ServeConfig::default(), |handle| {
            assert_eq!(handle.model_count(), 2);
            let tokens = registry.get(a).unwrap().model().random_tokens(8, 3);
            handle.submit_to(a, tokens).unwrap().wait();
            assert_eq!(handle.model_metrics(a).unwrap().completed, 1);
            assert!(handle.model_metrics(ModelId { registry: 0, index: 9 }).is_none());
        });
        assert_eq!(report.per_model[0].0, "classify");
        assert_eq!(report.per_model[1].0, "span");
        assert_eq!(report.model("span").unwrap().completed, 0);
    }

    #[test]
    fn cross_registry_ids_bounce_with_unknown_model() {
        let (registry_a, a, _) = two_model_registry();
        let (registry_b, foreign, _) = two_model_registry();
        // Same position, different registry: must be a typed rejection,
        // never a silent route to whatever occupies that slot here.
        assert_eq!(a.index(), foreign.index());
        let ((), report) = serve_registry(&registry_a, ServeConfig::default(), |handle| {
            let tokens = registry_a.get(a).unwrap().model().random_tokens(8, 3);
            assert_eq!(
                handle.submit_to(foreign, tokens.clone()).unwrap_err(),
                SubmitError::UnknownModel { model: foreign }
            );
            assert_eq!(
                handle.try_submit_to(foreign, tokens.clone()).unwrap_err(),
                SubmitError::UnknownModel { model: foreign }
            );
            assert!(handle.model_metrics(foreign).is_none());
            assert!(handle.model_queue_depth(foreign).is_none());
            // The engine still serves its own ids.
            handle.submit_to(a, tokens).unwrap().wait();
        });
        assert_eq!(report.aggregate.completed, 1);
        drop(registry_b);
    }

    #[test]
    fn model_at_quota_is_shed_without_blocking() {
        let (mut registry, a, b) = two_model_registry();
        registry.set_serve_config(
            a,
            ModelServeConfig { queue_quota: Some(2), ..ModelServeConfig::default() },
        );
        // One slow worker + singleton batches: rapid-fire submissions
        // back up behind the in-flight inference, so model a's occupancy
        // reaches its quota of 2 and further pushes must shed — not
        // block, and not consume shared capacity model b needs.
        let config = ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            queue_capacity: 8,
            ..ServeConfig::default()
        };
        let ((), report) = serve_registry(&registry, config, |handle| {
            let tokens = registry.get(a).unwrap().model().random_tokens(8, 3);
            // Saturate the single worker with a backlog so pushed
            // requests stay queued long enough to observe the quota.
            let mut tickets = Vec::new();
            let mut shed = 0;
            for _ in 0..16 {
                match handle.submit_to(a, tokens.clone()) {
                    Ok(t) => tickets.push(t),
                    Err(SubmitError::ModelQuotaExceeded { model, quota }) => {
                        assert_eq!(model.index(), a.index());
                        assert_eq!(quota, 2);
                        shed += 1;
                    }
                    Err(other) => panic!("unexpected rejection: {other}"),
                }
            }
            // With quota 2 and a 1-wide worker, at least some of the 16
            // rapid-fire submissions must be shed — and none may block.
            assert!(shed > 0, "no submission was shed by the quota");
            // The victim model is unaffected by a's quota.
            let vt = registry.get(b).unwrap().model().random_tokens(8, 4);
            let victim = handle.submit_to(b, vt).unwrap();
            victim.wait();
            for t in tickets {
                t.wait();
            }
        });
        assert_eq!(
            report.aggregate.rejected_quota,
            report.model("classify").unwrap().rejected_quota
        );
        assert!(report.aggregate.rejected_quota > 0);
        assert_eq!(report.model("span").unwrap().rejected_quota, 0);
        assert_eq!(
            report.aggregate.completed + report.aggregate.rejected_quota,
            17,
            "every submission either served or shed: {}",
            report.aggregate.dump()
        );
    }

    #[test]
    fn per_model_max_batch_override_caps_that_models_batches_only() {
        let (mut registry, a, b) = two_model_registry();
        registry.set_serve_config(
            a,
            ModelServeConfig { max_batch: Some(1), ..ModelServeConfig::default() },
        );
        // Engine-global max_batch 8 with a generous straggler window and
        // one worker: model b may coalesce, model a must never.
        let config = ServeConfig {
            workers: 1,
            max_batch: 8,
            max_wait: Duration::from_millis(50),
            queue_capacity: 32,
            ..ServeConfig::default()
        };
        let (batch_sizes, _) = serve_registry(&registry, config, |handle| {
            let ta = registry.get(a).unwrap().model().random_tokens(12, 1);
            let tb = registry.get(b).unwrap().model().random_tokens(12, 2);
            let mut tickets = Vec::new();
            for _ in 0..6 {
                tickets.push((a, handle.submit_to(a, ta.clone()).unwrap()));
                tickets.push((b, handle.submit_to(b, tb.clone()).unwrap()));
            }
            tickets.into_iter().map(|(id, t)| (id, t.wait().batch_size)).collect::<Vec<_>>()
        });
        for (id, batch_size) in &batch_sizes {
            if id == &a {
                assert_eq!(*batch_size, 1, "override ignored: model a coalesced");
            }
        }
        // And the un-overridden model did coalesce under the backlog.
        assert!(
            batch_sizes.iter().any(|(id, s)| id == &b && *s > 1),
            "expected model b to coalesce under a 1-worker backlog: {batch_sizes:?}"
        );
    }

    #[test]
    fn generations_match_direct_decode_and_stream_tokens_in_order() {
        let p = prepared();
        let prompt = p.model().random_tokens(6, 11);
        let max_tokens = 5;
        let reference = mokey_transformer::generate(
            p.model(),
            p.context(),
            &prompt,
            max_tokens,
            None,
            ExecMode::default(),
        );
        let (response, report) = serve(&p, ServeConfig::default(), |handle| {
            let ticket = handle.submit_generate(prompt.clone(), max_tokens, None).unwrap();
            // Token updates arrive strictly in index order, then Done.
            let mut streamed = Vec::new();
            loop {
                match ticket.next() {
                    GenUpdate::Token { index, token } => {
                        assert_eq!(index, streamed.len(), "out-of-order token update");
                        streamed.push(token);
                    }
                    GenUpdate::Done(response) => {
                        assert_eq!(streamed, response.tokens, "stream diverged from summary");
                        return response;
                    }
                }
            }
        });
        assert_eq!(response.tokens, reference.tokens, "served decode diverged from direct");
        assert_eq!(response.stats, reference.stats);
        assert!(response.steps >= 1);
        assert!(response.latency >= response.queue_wait);
        assert_eq!(report.generated_tokens, max_tokens as u64);
        assert!(report.decode_steps >= 1);
        assert_eq!(report.completed, 1, "a finished generation counts as one completion");
        assert!(report.tokens_per_sec > 0.0);
    }

    #[test]
    fn a_lone_generation_never_waits_for_stragglers() {
        let p = prepared();
        let prompt = p.model().random_tokens(5, 31);
        let reference = mokey_transformer::generate(
            p.model(),
            p.context(),
            &prompt,
            6,
            None,
            ExecMode::default(),
        );
        // A one-shot batch would wait 5 s for company; a generation slice
        // must not, or every token would cost the wait.
        let config =
            ServeConfig { workers: 1, max_wait: Duration::from_secs(5), ..ServeConfig::default() };
        let start = Instant::now();
        let (response, report) = serve(&p, config, |handle| {
            handle.submit_generate(prompt.clone(), 6, None).unwrap().wait()
        });
        assert!(start.elapsed() < Duration::from_secs(5), "took {:?}", start.elapsed());
        assert_eq!(response.tokens, reference.tokens);
        assert_eq!(response.stats, reference.stats);
        assert_eq!(report.generated_tokens, 6);
    }

    #[test]
    fn concurrent_generations_fuse_and_match_solo_decode() {
        let p = prepared();
        // Prompts of 3..=8 tokens with budgets of 3..=8 new tokens.
        let jobs: Vec<(Vec<usize>, usize)> =
            (0..6).map(|i| (p.model().random_tokens(3 + i, 40 + i as u64), 3 + i)).collect();
        for mode in [ExecMode::Decoded, ExecMode::IndexDomain] {
            let config = ServeConfig {
                workers: 1,
                max_wait: Duration::from_millis(500),
                mode,
                ..ServeConfig::default()
            };
            let (responses, report) = serve(&p, config, |handle| {
                // The lone worker sits in this one-shot's straggler wait
                // while every generation queues, so the first decode slice
                // prefills and steps all six together.
                let gate = handle.submit(p.model().random_tokens(4, 50)).unwrap();
                let tickets: Vec<GenTicket> = jobs
                    .iter()
                    .map(|(prompt, budget)| {
                        handle.submit_generate(prompt.clone(), *budget, None).unwrap()
                    })
                    .collect();
                gate.wait();
                tickets.into_iter().map(GenTicket::wait).collect::<Vec<_>>()
            });
            for ((prompt, budget), response) in jobs.iter().zip(&responses) {
                let solo = mokey_transformer::generate(
                    p.model(),
                    p.context(),
                    prompt,
                    *budget,
                    None,
                    mode,
                );
                assert_eq!(response.tokens, solo.tokens, "mode {mode:?}");
                assert_eq!(response.stats, solo.stats, "mode {mode:?}");
            }
            let total: usize = jobs.iter().map(|(_, budget)| budget).sum();
            assert_eq!(report.generated_tokens, total as u64);
            assert!(
                report.generated_tokens > report.decode_steps,
                "no slice fused: {} tokens in {} slices",
                report.generated_tokens,
                report.decode_steps
            );
        }
    }

    #[test]
    fn generations_interleave_with_oneshot_traffic_bit_identically() {
        let (registry, a, b) = two_model_registry();
        let config = ServeConfig {
            workers: 2,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_capacity: 32,
            ..ServeConfig::default()
        };
        let pa = registry.get(a).unwrap();
        let pb = registry.get(b).unwrap();
        let prompt = pa.model().random_tokens(5, 21);
        let gen_reference = mokey_transformer::generate(
            pa.model(),
            pa.context(),
            &prompt,
            6,
            None,
            ExecMode::default(),
        );
        let oneshots: Vec<Vec<usize>> = (0..8).map(|s| pb.model().random_tokens(9, s)).collect();
        let ((gen_a, gen_b, responses), report) = serve_registry(&registry, config, |handle| {
            // Two concurrent generations on model a racing a stream of
            // one-shots on model b through the same worker pool.
            let ga = handle.submit_generate_to(a, prompt.clone(), 6, None).unwrap();
            let gb = handle.submit_generate_to(a, prompt.clone(), 6, None).unwrap();
            let tickets: Vec<_> =
                oneshots.iter().map(|t| handle.submit_to(b, t.clone()).unwrap()).collect();
            let responses = tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>();
            (ga.wait(), gb.wait(), responses)
        });
        // Same prompt, greedy decode: both generations and the direct
        // reference must agree exactly, regardless of interleaving.
        assert_eq!(gen_a.tokens, gen_reference.tokens);
        assert_eq!(gen_b.tokens, gen_reference.tokens);
        for (tokens, response) in oneshots.iter().zip(&responses) {
            assert_eq!(response.output, pb.infer(tokens).0, "one-shot contaminated by decode");
        }
        assert_eq!(report.aggregate.completed, 10);
        assert_eq!(report.aggregate.generated_tokens, 12);
        assert_eq!(report.model("classify").unwrap().generated_tokens, 12);
        assert_eq!(report.model("span").unwrap().generated_tokens, 0);
        let summed: u64 = report.per_model.iter().map(|(_, r)| r.decode_steps).sum();
        assert_eq!(summed, report.aggregate.decode_steps);
    }

    #[test]
    fn generate_admission_rejects_invalid_and_unquantized() {
        let p = prepared();
        let ((), report) = serve(&p, ServeConfig::default(), |handle| {
            // Zero new tokens is an empty generation.
            assert_eq!(
                handle.submit_generate(vec![1, 2], 0, None).unwrap_err(),
                SubmitError::EmptySequence
            );
            assert_eq!(
                handle.submit_generate(vec![], 3, None).unwrap_err(),
                SubmitError::EmptySequence
            );
            // The budget is prompt + max_tokens against max_seq.
            assert_eq!(
                handle.submit_generate(vec![1; 10], 10, None).unwrap_err(),
                SubmitError::SequenceTooLong { len: 20, max_seq: p.max_seq() }
            );
            // EOS participates in vocabulary validation.
            assert_eq!(
                handle.submit_generate(vec![1, 2], 3, Some(p.vocab() + 1)).unwrap_err(),
                SubmitError::TokenOutOfVocab { token: p.vocab() + 1, vocab: p.vocab() }
            );
        });
        assert_eq!(report.submitted, 0);
        assert_eq!(report.rejected_invalid, 4);
        assert_eq!(report.generated_tokens, 0);

        // A weights-only model has no activation dictionaries, so there
        // is nothing to encode K/V rows with: typed rejection, no panic.
        let model = Model::synthesize(&test_config(), Head::Classification { classes: 3 }, 13);
        let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(10, 30 + s)).collect();
        let wo = PreparedModel::prepare(model, QuantizeSpec::weights_only(), &profile)
            .expect("weights-only prepares");
        let ((), _) = serve(&wo, ServeConfig::default(), |handle| {
            match handle.submit_generate(vec![1, 2, 3], 2, None).unwrap_err() {
                SubmitError::DecodeUnsupported { .. } => {}
                other => panic!("expected DecodeUnsupported, got {other}"),
            }
        });
    }

    #[test]
    fn eos_stops_a_generation_early_when_emitted() {
        let p = prepared();
        let prompt = p.model().random_tokens(4, 7);
        // Run the reference decode once, then declare its first sampled
        // token as EOS: the served generation must stop right there.
        let free_run = mokey_transformer::generate(
            p.model(),
            p.context(),
            &prompt,
            8,
            None,
            ExecMode::default(),
        );
        let eos = free_run.tokens[0];
        let (response, report) = serve(&p, ServeConfig::default(), |handle| {
            handle.submit_generate(prompt.clone(), 8, Some(eos)).unwrap().wait()
        });
        assert_eq!(response.tokens, vec![eos], "generation must stop at the EOS token");
        assert_eq!(report.generated_tokens, 1);
    }
}
