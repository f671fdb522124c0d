//! The TCP serving frontend: a listener + per-connection reader/writer
//! threads translating [wire](crate::wire) frames into engine
//! submissions.
//!
//! ```text
//!  client ──TCP──▶ acceptor thread ──▶ connection thread (reader)
//!                                           │ read_frame → name lookup
//!                                           │ → submit_to /
//!                                           │   submit_generate_to
//!                                           ▼
//!                                      writer thread: wait Tickets,
//!                                      write response/error frames,
//!                                      stream Generated tokens
//! ```
//!
//! Everything is plain `std::net` blocking I/O on scoped threads — no
//! async runtime, consistent with the engine's `std::thread::scope`
//! design. Backpressure propagates naturally: a connection whose
//! requests hit the model's admission quota gets typed error frames,
//! while shared-capacity backpressure blocks that connection's reader
//! (and therefore, via TCP flow control, the client).
//!
//! Shutdown is graceful and structural, mirroring the engine's
//! close-then-drain: when the driver closure returns, the listener stops
//! accepting, open connections are read-shutdown (unblocking parked
//! readers), every in-flight request drains through the still-running
//! workers, the writer threads flush the responses, and only then does
//! the engine close. No accepted request is ever dropped.

use crate::engine::{GenTicket, GenUpdate, ServeConfig, ServeHandle, Ticket};
use crate::metrics::ServeReport;
use crate::registry::{ModelId, ModelRegistry};
use crate::serve_registry;
use crate::wire::{
    read_frame, write_frame, Frame, GenSummary, ReadFrameError, WireError, WireErrorCode,
    CORR_CONNECTION, DEFAULT_MAX_FRAME_BYTES,
};
use std::collections::HashMap;
use std::io::{self, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Frontend sizing: where to listen and how defensive to be.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listen address; port 0 picks a free port (read the bound address
    /// back from [`NetHandle::addr`]).
    pub addr: String,
    /// Largest frame either direction may carry; an oversized length
    /// prefix is rejected before allocation.
    pub max_frame_bytes: usize,
    /// Per-connection write timeout (`None` = block indefinitely). A
    /// client that stops reading its responses eventually errors its
    /// writer instead of wedging shutdown.
    pub write_timeout: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// The driver's view of a running network frontend.
pub struct NetHandle<'a, 'e> {
    addr: SocketAddr,
    engine: &'a ServeHandle<'e>,
    accepted: &'a AtomicU64,
    conns: &'a OpenConns,
}

impl<'e> NetHandle<'_, 'e> {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The in-process engine handle — local submissions and live metrics
    /// work alongside socket traffic.
    pub fn engine(&self) -> &ServeHandle<'e> {
        self.engine
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections open right now: accepted and still being served.
    pub fn open_connections(&self) -> usize {
        self.conns.lock().expect("conn list poisoned").len()
    }
}

/// A clone of every open connection's socket, keyed by accept order, so
/// shutdown can unblock readers parked in `read` via `Shutdown::Read`.
/// Each connection removes its own entry when it ends.
type OpenConns = Mutex<HashMap<u64, TcpStream>>;

/// What one request's journey through a connection produced: either a
/// claim on a future engine response or an immediate typed rejection.
/// The writer thread serializes these in submission order per
/// connection.
enum Outcome {
    Pending(u64, Ticket),
    /// A generation's token stream: the writer drains the ticket into
    /// one `Generated` frame per token plus the closing summary frame.
    /// Replies queued behind a streaming generation wait for it — a
    /// connection's responses are strictly ordered.
    PendingGen(u64, GenTicket),
    Reject(u64, WireErrorCode, String),
}

/// Runs the multi-model engine with a TCP frontend for the lifetime of
/// the driver closure `f`.
///
/// Clients address models by their registered *name* (resolved to
/// [`ModelId`]s at the boundary, so wire traffic can never alias across
/// registries). When `f` returns, the frontend shuts down gracefully:
/// listener closed, open connections read-shutdown, accepted requests
/// drained and their responses flushed, then the engine itself drains.
///
/// # Errors
///
/// Returns the bind/listen failure. Per-connection I/O errors never
/// fail the server; they end that connection.
///
/// # Example
///
/// ```
/// use mokey_serve::{serve_net, ModelRegistry, NetClient, NetConfig, ServeConfig, ServerReply};
/// use mokey_transformer::{Head, Model, ModelConfig, QuantizeSpec};
///
/// let config = ModelConfig::bert_base().scaled(16, 16);
/// let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 1);
/// let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, s)).collect();
/// let mut registry = ModelRegistry::new();
/// registry
///     .register("classify", model, QuantizeSpec::weights_and_activations(), &profile)
///     .unwrap();
/// let tokens = registry.iter().next().unwrap().2.model().random_tokens(12, 9);
/// let (reply, report) = serve_net(
///     &registry,
///     ServeConfig::default(),
///     NetConfig::default(),
///     |net| {
///         let mut client = NetClient::connect(&net.addr().to_string()).unwrap();
///         client.call(1, "classify", &tokens).unwrap()
///     },
/// )
/// .unwrap();
/// assert!(matches!(reply, ServerReply::Response { .. }));
/// assert_eq!(report.aggregate.completed, 1);
/// ```
pub fn serve_net<R, F>(
    registry: &ModelRegistry,
    config: ServeConfig,
    net: NetConfig,
    f: F,
) -> io::Result<(R, ServeReport)>
where
    F: FnOnce(&NetHandle<'_, '_>) -> R,
{
    let listener = TcpListener::bind(&net.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let names: HashMap<String, ModelId> =
        registry.iter().map(|(id, name, _)| (name.to_owned(), id)).collect();
    let shutdown = AtomicBool::new(false);
    let accepted = AtomicU64::new(0);

    Ok(serve_registry(registry, config, |handle| {
        let conns = OpenConns::default();
        std::thread::scope(|scope| {
            let acceptor = scope.spawn(|| {
                while !shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let id = accepted.fetch_add(1, Ordering::Relaxed);
                            // Without a clone, shutdown could not unblock
                            // this connection's reader: close it unserved.
                            let Ok(clone) = stream.try_clone() else { continue };
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_write_timeout(net.write_timeout);
                            conns.lock().expect("conn list poisoned").insert(id, clone);
                            let (names, conns, max) = (&names, &conns, net.max_frame_bytes);
                            scope.spawn(move || {
                                serve_connection(stream, handle, names, max);
                                conns.lock().expect("conn list poisoned").remove(&id);
                            });
                        }
                        // Nothing pending (`WouldBlock`), or a transient
                        // failure such as running out of file
                        // descriptors: back off and keep polling.
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
            });

            // Graceful drain: stop accepting first (joining the acceptor
            // closes the race where a just-accepted socket misses the
            // shutdown), then unblock every parked reader. Connection
            // threads finish their in-flight requests and flush before
            // the scope joins them; only after that does the engine's
            // own close-then-drain run. The sequence lives in a drop
            // guard so a panicking driver closure still runs it — the
            // scope would otherwise wait forever on the polling
            // acceptor.
            struct DrainOnDrop<'s, 'a> {
                shutdown: &'a AtomicBool,
                conns: &'a OpenConns,
                acceptor: Option<std::thread::ScopedJoinHandle<'s, ()>>,
            }
            impl Drop for DrainOnDrop<'_, '_> {
                fn drop(&mut self) {
                    self.shutdown.store(true, Ordering::SeqCst);
                    if let Some(acceptor) = self.acceptor.take() {
                        let _ = acceptor.join();
                    }
                    if let Ok(conns) = self.conns.lock() {
                        for conn in conns.values() {
                            let _ = conn.shutdown(Shutdown::Read);
                        }
                    }
                }
            }
            let _drain =
                DrainOnDrop { shutdown: &shutdown, conns: &conns, acceptor: Some(acceptor) };
            f(&NetHandle { addr, engine: handle, accepted: &accepted, conns: &conns })
        })
    }))
}

/// One connection's lifetime: this thread reads and routes frames, a
/// sibling writer thread waits tickets and writes replies, so a slow
/// model never stops the connection from accepting pipelined requests.
fn serve_connection(
    mut stream: TcpStream,
    engine: &ServeHandle<'_>,
    names: &HashMap<String, ModelId>,
    max_frame_bytes: usize,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Outcome>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut w = BufWriter::new(write_half);
            let mut client_gone = false;
            let emit = |w: &mut BufWriter<TcpStream>, gone: &mut bool, frame: &Frame| {
                if !*gone && write_frame(w, frame, max_frame_bytes).is_err() {
                    *gone = true;
                }
            };
            while let Ok(outcome) = rx.recv() {
                // A vanished client stops the writing but never the
                // waiting: every accepted ticket is still claimed (and
                // every generation stream drained), so the engine's
                // drain accounting stays exact.
                match outcome {
                    Outcome::Pending(corr, ticket) => {
                        let frame = Frame::from_response(corr, ticket.wait());
                        emit(&mut w, &mut client_gone, &frame);
                    }
                    Outcome::PendingGen(corr, ticket) => loop {
                        match ticket.next() {
                            GenUpdate::Token { index, token } => {
                                let frame = Frame::Generated {
                                    corr,
                                    index: index as u32,
                                    token: token as u32,
                                    summary: None,
                                };
                                emit(&mut w, &mut client_gone, &frame);
                            }
                            GenUpdate::Done(response) => {
                                let frame = Frame::Generated {
                                    corr,
                                    index: response.tokens.len() as u32,
                                    token: 0,
                                    summary: Some(GenSummary::from_response(&response)),
                                };
                                emit(&mut w, &mut client_gone, &frame);
                                break;
                            }
                        }
                    },
                    Outcome::Reject(corr, code, message) => {
                        let frame = Frame::Error { corr, code, message };
                        emit(&mut w, &mut client_gone, &frame);
                    }
                }
            }
        });

        loop {
            let (code, message) = match read_frame(&mut stream, max_frame_bytes) {
                Ok(Some(frame)) => match route(engine, names, frame) {
                    Some(outcome) => match tx.send(outcome) {
                        Ok(()) => continue,
                        Err(_) => break,
                    },
                    // Response/error/generated frames only flow server →
                    // client.
                    None => (
                        WireErrorCode::MalformedFrame,
                        "clients may only send request frames".into(),
                    ),
                },
                Ok(None) | Err(ReadFrameError::Io(_)) => break, // hangup or transport failure
                Err(ReadFrameError::Wire(e)) => connection_error(&e),
            };
            let _ = tx.send(Outcome::Reject(CORR_CONNECTION, code, message));
            break;
        }
        // Dropping the sender lets the writer drain its backlog and
        // exit; the scope joins it, so the connection never outlives its
        // in-flight responses.
        drop(tx);
    });
}

/// Routes one client frame: resolves its model name and submits it to
/// the engine. An unknown name or a refused submission becomes a typed
/// [`Outcome::Reject`] under the frame's `corr`; `None` for a frame kind
/// only servers send.
fn route(
    engine: &ServeHandle<'_>,
    names: &HashMap<String, ModelId>,
    frame: Frame,
) -> Option<Outcome> {
    let (corr, model, tokens, budget) = match frame {
        Frame::Request { corr, model, tokens } => (corr, model, tokens, None),
        Frame::Generate { corr, model, prompt, max_tokens, eos } => {
            (corr, model, prompt, Some((max_tokens, eos)))
        }
        _ => return None,
    };
    let Some(&id) = names.get(&model) else {
        let message = format!("no model registered as {model:?}");
        return Some(Outcome::Reject(corr, WireErrorCode::UnknownModel, message));
    };
    let submitted = match budget {
        None => engine.submit_to(id, tokens).map(|ticket| Outcome::Pending(corr, ticket)),
        Some((max_tokens, eos)) => engine
            .submit_generate_to(id, tokens, max_tokens as usize, eos.map(|t| t as usize))
            .map(|ticket| Outcome::PendingGen(corr, ticket)),
    };
    Some(submitted.unwrap_or_else(|err| {
        Outcome::Reject(corr, WireErrorCode::from_submit_error(&err), err.to_string())
    }))
}

/// The connection-level error frame for bytes that do not form a frame
/// this server serves. A well-framed payload with an unknown tag gets the
/// dedicated kind error, not a generic malformed complaint, so newer
/// clients can tell "old server" from "corrupt stream".
fn connection_error(e: &WireError) -> (WireErrorCode, String) {
    let code = match e {
        WireError::UnsupportedTag { .. } => WireErrorCode::UnsupportedKind,
        WireError::FrameTooLarge { .. } => WireErrorCode::FrameTooLarge,
        WireError::Truncated | WireError::Malformed { .. } => WireErrorCode::MalformedFrame,
    };
    (code, e.to_string())
}
