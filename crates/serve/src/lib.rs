//! `mokey-serve`: an in-process batching inference-serving engine over a
//! quantized transformer.
//!
//! The paper's deployment story is cheap narrow fixed-point inference
//! for *out-of-the-box* checkpoints — many heterogeneous models sharing
//! the same arithmetic; this crate is the layer that *serves* them. A
//! model is quantized once into a [`PreparedModel`] (decoded centroid
//! weights + cached activation dictionaries, shareable across threads),
//! or several models are registered into a [`ModelRegistry`] behind one
//! shared `QuantSession` dictionary cache; then [`serve`] (one model) or
//! [`serve_registry`] (all of them, one worker pool, model-tagged queue,
//! per-model + aggregate metrics) runs a queue → batcher → worker-pool
//! engine around them:
//!
//! * **admission control** — [`ServeHandle`] validates every submission
//!   (vocabulary, sequence length, token budget) on one admission path,
//!   and a model-tagged [`TaggedQueue`](queue::TaggedQueue) bounds the
//!   backlog; [`ServeHandle::submit`] applies backpressure by blocking,
//!   [`ServeHandle::try_submit`] bounces with
//!   [`SubmitError::QueueFull`];
//! * **dynamic batching** — workers coalesce up to
//!   [`ServeConfig::max_batch`] requests, waiting at most
//!   [`ServeConfig::max_wait`] for one-shot stragglers, and run the whole batch
//!   through one `QuantizedExecutor` (activations re-encoded on the fly
//!   via the cached dictionaries); batched outputs are **bit-identical**
//!   to solo execution, so batching is purely a throughput decision;
//! * **autoregressive decode** — [`ServeHandle::submit_generate`] runs
//!   greedy generation over a quantized KV-cache
//!   ([`mokey_transformer::DecodeSession`]): the prompt prefills once,
//!   each later token is decoded incrementally, and between tokens the
//!   generation *re-enters the queue*, so decode interleaves with
//!   one-shot traffic at token granularity while a [`GenTicket`] streams
//!   the tokens back; each decode slice advances every generation it
//!   popped with one fused step, without waiting for stragglers;
//! * **structural shutdown** — workers live in a `std::thread::scope`;
//!   when the driver closure returns, the queue closes and the accepted
//!   backlog is drained before [`serve`] returns. No accepted request is
//!   dropped;
//! * **observability** — [`MetricsReport`] captures request/batch
//!   counters, queue depth, values/sec, and a log-scale latency
//!   histogram (p50/p90/p99), dumpable as plain text.
//!
//! The engine itself is in-process and synchronous — no async runtime —
//! which keeps tests hermetic. [`serve_net`] wraps it in a TCP frontend:
//! length-prefixed binary [wire] frames, one acceptor plus reader/writer
//! threads per connection translating frames into
//! [`ServeHandle::submit_to`] calls, graceful close-then-drain shutdown.
//! Clients address models by registered name; responses cross the wire
//! bit-exactly (f32 as raw IEEE-754 bits). Per-model admission quotas
//! ([`ModelServeConfig::queue_quota`]) keep one flooding client from
//! starving other models of queue space, and [`ModelId`]s carry their
//! minting registry's identity so cross-registry ids bounce with
//! [`SubmitError::UnknownModel`] instead of silently aliasing.
//!
//! # Quickstart
//!
//! ```
//! use mokey_serve::{serve, LoadGen, PreparedModel, ServeConfig};
//! use mokey_transformer::{Head, Model, ModelConfig, QuantizeSpec};
//!
//! let config = ModelConfig::bert_base().scaled(16, 16);
//! let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 1);
//! let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, s)).collect();
//! let prepared =
//!     PreparedModel::prepare(model, QuantizeSpec::weights_and_activations(), &profile).unwrap();
//!
//! let mut traffic = LoadGen::new(prepared.model(), 42);
//! let (_, report) = serve(&prepared, ServeConfig::default(), |handle| {
//!     let tickets: Vec<_> =
//!         traffic.requests(6).into_iter().map(|t| handle.submit(t).unwrap()).collect();
//!     for ticket in tickets {
//!         let response = ticket.wait();
//!         assert!(response.stats.act_values > 0);
//!     }
//! });
//! assert_eq!(report.completed, 6);
//! println!("{}", report.dump());
//! ```

pub mod engine;
pub mod loadgen;
pub mod metrics;
pub mod net;
pub mod prepared;
pub mod queue;
pub mod registry;
pub mod wire;

pub use engine::{
    serve, serve_registry, GenTicket, GenUpdate, GenerateResponse, Response, ServeConfig,
    ServeHandle, SubmitError, Ticket,
};
pub use loadgen::{drive_socket_clients, LoadGen, SocketConnectionReport, SocketLoadReport};
pub use metrics::{LatencyHistogram, Metrics, MetricsReport, ServeReport};
pub use mokey_transformer::ExecMode;
pub use net::{serve_net, NetConfig, NetHandle};
pub use prepared::PreparedModel;
pub use registry::{ModelId, ModelRegistry, ModelServeConfig, RegistryError};
pub use wire::{
    read_frame, write_frame, Frame, GenSummary, GenerateOutcome, NetClient, ReadFrameError,
    ServerReply, WireError, WireErrorCode,
};
