//! The mokey-serve wire protocol: length-prefixed binary frames over a
//! byte stream.
//!
//! Every frame is a little-endian `u32` payload length followed by that
//! many payload bytes. The first payload byte is the frame tag:
//!
//! ```text
//!  0x01 Request   [corr u64][name_len u16][name bytes][ntokens u32][token u32 ×n]
//!  0x02 Response  [corr u64][batch u32][queue_wait µs u64][latency µs u64]
//!                 [act_values u64][act_outliers u64][output]
//!  0x03 Error     [corr u64][code u16][msg_len u32][msg bytes]
//!  0x04 Generate  [corr u64][name_len u16][name bytes][max_tokens u32]
//!                 [has_eos u8][eos u32 if has_eos][nprompt u32][token u32 ×n]
//!  0x05 Generated [corr u64][index u32][token u32][done u8]
//!                 [steps u32][queue_wait µs u64][latency µs u64]
//!                 [act_values u64][act_outliers u64]     ← done frames only
//! ```
//!
//! A `Generate` request is answered by a *stream* of `Generated` frames
//! sharing its `corr`: one per sampled token (`done = 0`, `token` the
//! sampled id, `index` counting from 0), then a final summary frame
//! (`done = 1`, `index` = token count, `token` unused) carrying the
//! generation's step count, waits, and encoding counters. A tag outside
//! the table is a *recognizably framed but unsupported* request kind and
//! bounces with [`WireErrorCode::UnsupportedKind`], distinct from
//! [`WireErrorCode::MalformedFrame`] (bytes that fail to decode).
//!
//! `corr` is a client-chosen correlation id echoed verbatim in the
//! matching response or error, so clients may pipeline arbitrarily many
//! requests per connection. Correlation id `0` is reserved for
//! connection-level error frames (malformed framing, oversized frame)
//! that cannot be attributed to a request.
//!
//! `[output]` encodes a [`TaskOutput`]: a kind byte (`1` logits, `2`
//! score, `3` span) followed by `f32` values carried as raw IEEE-754 bits
//! (`u32`), so outputs cross the wire **bit-exactly** — the engine's
//! bit-identity guarantee survives the network hop.
//!
//! Both sides enforce a maximum frame size; an overlong length prefix is
//! rejected *before* allocating, so a hostile peer cannot make the
//! server balloon memory with a 4 GiB length word.

use crate::engine::{GenerateResponse, Response, SubmitError};
use mokey_transformer::exec::QuantizedStats;
use mokey_transformer::TaskOutput;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Frame tag for a client request.
pub const TAG_REQUEST: u8 = 0x01;
/// Frame tag for a server response.
pub const TAG_RESPONSE: u8 = 0x02;
/// Frame tag for a server error.
pub const TAG_ERROR: u8 = 0x03;
/// Frame tag for a client generation request.
pub const TAG_GENERATE: u8 = 0x04;
/// Frame tag for a server generation event (token or final summary).
pub const TAG_GENERATED: u8 = 0x05;

/// Default cap on a single frame's payload (1 MiB) — far above any
/// legitimate request (max_seq × 4 bytes) yet small enough that a
/// hostile length prefix cannot balloon allocation.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Correlation id used for connection-level error frames that cannot be
/// attributed to any request (malformed framing, oversized frame).
pub const CORR_CONNECTION: u64 = 0;

/// Typed reason codes carried by error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum WireErrorCode {
    /// The requested model name is not registered.
    UnknownModel = 1,
    /// The shared submission queue is at capacity.
    QueueFull = 2,
    /// The model is at its admission quota.
    QuotaExceeded = 3,
    /// The request carried no tokens.
    EmptySequence = 4,
    /// The request exceeds the model's maximum sequence length.
    SequenceTooLong = 5,
    /// A token is outside the model's vocabulary.
    TokenOutOfVocab = 6,
    /// The server is draining and no longer admits requests.
    ShuttingDown = 7,
    /// The frame could not be decoded.
    MalformedFrame = 8,
    /// The frame's declared length exceeds the configured maximum.
    FrameTooLarge = 9,
    /// The frame was well-formed but its tag names a request kind this
    /// server does not support (e.g. a newer protocol revision).
    UnsupportedKind = 10,
    /// The target model was prepared without activation quantization, so
    /// it cannot serve generations (the KV-cache stores activation
    /// codes).
    DecodeUnsupported = 11,
}

impl WireErrorCode {
    /// Decodes a reason code from its wire value.
    pub fn from_u16(code: u16) -> Option<Self> {
        Some(match code {
            1 => Self::UnknownModel,
            2 => Self::QueueFull,
            3 => Self::QuotaExceeded,
            4 => Self::EmptySequence,
            5 => Self::SequenceTooLong,
            6 => Self::TokenOutOfVocab,
            7 => Self::ShuttingDown,
            8 => Self::MalformedFrame,
            9 => Self::FrameTooLarge,
            10 => Self::UnsupportedKind,
            11 => Self::DecodeUnsupported,
            _ => return None,
        })
    }

    /// Maps an engine-side rejection to its wire code.
    pub fn from_submit_error(err: &SubmitError) -> Self {
        match err {
            SubmitError::QueueFull => Self::QueueFull,
            SubmitError::ShuttingDown => Self::ShuttingDown,
            SubmitError::UnknownModel { .. } => Self::UnknownModel,
            SubmitError::ModelQuotaExceeded { .. } => Self::QuotaExceeded,
            SubmitError::EmptySequence => Self::EmptySequence,
            SubmitError::SequenceTooLong { .. } => Self::SequenceTooLong,
            SubmitError::TokenOutOfVocab { .. } => Self::TokenOutOfVocab,
            SubmitError::DecodeUnsupported { .. } => Self::DecodeUnsupported,
        }
    }
}

/// One decoded frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: run `tokens` through the model registered as
    /// `model`, answer with the same `corr`.
    Request {
        /// Client-chosen correlation id (echoed in the reply; avoid 0,
        /// which is reserved for connection-level errors).
        corr: u64,
        /// The registered model name to route to.
        model: String,
        /// The input token ids.
        tokens: Vec<usize>,
    },
    /// Server → client: the answered request.
    Response {
        /// Echo of the request's correlation id.
        corr: u64,
        /// The task-head output, bit-exact.
        output: TaskOutput,
        /// How many requests shared the batch.
        batch_size: u32,
        /// Submission → batch-formed wait.
        queue_wait: Duration,
        /// Submission → response latency (server-side).
        latency: Duration,
        /// The request's activation-encoding counters.
        stats: QuantizedStats,
    },
    /// Server → client: the request (or, with `corr` 0, the connection)
    /// was rejected.
    Error {
        /// Echo of the request's correlation id, or [`CORR_CONNECTION`].
        corr: u64,
        /// The typed reason.
        code: WireErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Client → server: generate up to `max_tokens` greedy tokens from
    /// `prompt`, answered by a stream of [`Frame::Generated`] frames.
    Generate {
        /// Client-chosen correlation id shared by every frame of the
        /// generation's stream.
        corr: u64,
        /// The registered model name to route to.
        model: String,
        /// The prompt token ids.
        prompt: Vec<usize>,
        /// Token budget (must be non-zero; `prompt + max_tokens` must
        /// fit the model's `max_seq`).
        max_tokens: u32,
        /// Optional early-stop token.
        eos: Option<u32>,
    },
    /// Server → client: one generation event — a sampled token, or the
    /// stream's final summary.
    Generated {
        /// Echo of the generation's correlation id.
        corr: u64,
        /// Token position within the generation (the summary frame
        /// carries the total token count here).
        index: u32,
        /// The sampled token id (unused — zero — on the summary frame).
        token: u32,
        /// `Some` exactly on the stream's final frame.
        summary: Option<GenSummary>,
    },
}

/// The closing summary of a generation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenSummary {
    /// Queue passes the generation consumed server-side.
    pub steps: u32,
    /// Submission → first service slice (server-side).
    pub queue_wait: Duration,
    /// Submission → final token (server-side).
    pub latency: Duration,
    /// Merged activation-encoding counters (prefill + every step).
    pub stats: QuantizedStats,
}

impl GenSummary {
    /// Builds the wire summary from an answered engine generation.
    pub fn from_response(response: &GenerateResponse) -> Self {
        Self {
            steps: response.steps as u32,
            queue_wait: response.queue_wait,
            latency: response.latency,
            stats: response.stats,
        }
    }
}

/// Why a frame could not be decoded.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended mid-frame (inside the length prefix or payload).
    Truncated,
    /// The length prefix exceeds the configured maximum frame size.
    FrameTooLarge {
        /// The declared payload length.
        declared: usize,
        /// The configured cap.
        max: usize,
    },
    /// The payload does not decode as any known frame.
    Malformed {
        /// What failed, for diagnostics.
        detail: &'static str,
    },
    /// The frame was well-formed at the framing layer but its tag names
    /// a kind this endpoint does not implement — kept distinct from
    /// [`WireError::Malformed`] so servers can answer with the typed
    /// [`WireErrorCode::UnsupportedKind`] instead of a generic decode
    /// failure.
    UnsupportedTag {
        /// The unrecognized tag byte.
        tag: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::FrameTooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte maximum")
            }
            WireError::Malformed { detail } => write!(f, "malformed frame: {detail}"),
            WireError::UnsupportedTag { tag } => {
                write!(f, "unsupported frame tag 0x{tag:02x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A decode failure lifted into `io::Error` space for socket loops.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The bytes arrived but do not form a valid frame.
    Wire(WireError),
}

impl fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadFrameError::Io(e) => write!(f, "i/o error reading frame: {e}"),
            ReadFrameError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadFrameError {}

impl From<io::Error> for ReadFrameError {
    fn from(e: io::Error) -> Self {
        ReadFrameError::Io(e)
    }
}

impl From<WireError> for ReadFrameError {
    fn from(e: WireError) -> Self {
        ReadFrameError::Wire(e)
    }
}

/// Little-endian byte writer for frame payloads.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(tag: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.push(tag);
        Self { buf }
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32_bits(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    fn f32_vec(&mut self, v: &[f32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.f32_bits(x);
        }
    }
    /// `[name_len u16][name bytes]`.
    fn name(&mut self, name: &str) {
        self.u16(name.len() as u16);
        self.bytes(name.as_bytes());
    }
    /// `[n u32][token u32 ×n]`.
    fn tokens(&mut self, tokens: &[usize]) {
        self.u32(tokens.len() as u32);
        for &t in tokens {
            self.u32(t as u32);
        }
    }
    /// `[queue_wait µs u64][latency µs u64][act_values u64][act_outliers u64]`.
    fn timing(&mut self, queue_wait: Duration, latency: Duration, stats: &QuantizedStats) {
        self.u64(queue_wait.as_micros() as u64);
        self.u64(latency.as_micros() as u64);
        self.u64(stats.act_values as u64);
        self.u64(stats.act_outliers as u64);
    }
}

/// Little-endian cursor over a frame payload.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(WireError::Malformed { detail: what }),
        }
    }
    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().expect("2 bytes")))
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }
    fn f32_bits(&mut self, what: &'static str) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32(what)?))
    }
    fn f32_vec(&mut self, what: &'static str) -> Result<Vec<f32>, WireError> {
        let n = self.u32(what)? as usize;
        // The remaining payload bounds the element count: a hostile
        // length can't trigger a huge reserve.
        if n.checked_mul(4).is_none_or(|bytes| bytes > self.buf.len() - self.pos) {
            return Err(WireError::Malformed { detail: what });
        }
        (0..n).map(|_| self.f32_bits(what)).collect()
    }
    fn name(&mut self) -> Result<String, WireError> {
        let len = self.u16("model name length")? as usize;
        let name = self.take(len, "model name bytes")?;
        let name = std::str::from_utf8(name)
            .map_err(|_| WireError::Malformed { detail: "model name utf-8" })?;
        Ok(name.to_owned())
    }
    fn tokens(&mut self, count: &'static str, each: &'static str) -> Result<Vec<usize>, WireError> {
        let n = self.u32(count)? as usize;
        // The payload length bounds the count: a hostile count can't
        // trigger a huge reserve.
        if n.checked_mul(4).is_none_or(|bytes| bytes > self.buf.len()) {
            return Err(WireError::Malformed { detail: count });
        }
        (0..n).map(|_| self.u32(each).map(|t| t as usize)).collect()
    }
    /// The waits and activation counters; the wire carries the
    /// per-request counters only, kernel attribution is server-side
    /// diagnostics.
    fn timing(&mut self) -> Result<(Duration, Duration, QuantizedStats), WireError> {
        let queue_wait = Duration::from_micros(self.u64("queue wait")?);
        let latency = Duration::from_micros(self.u64("latency")?);
        let stats = QuantizedStats {
            act_values: self.u64("act values")? as usize,
            act_outliers: self.u64("act outliers")? as usize,
            ..QuantizedStats::default()
        };
        Ok((queue_wait, latency, stats))
    }
    fn finished(&self, what: &'static str) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed { detail: what })
        }
    }
}

impl Frame {
    /// Encodes this frame's payload (tag byte included, length prefix
    /// not).
    pub fn encode_payload(&self) -> Vec<u8> {
        match self {
            Frame::Request { corr, model, tokens } => {
                let mut e = Enc::new(TAG_REQUEST);
                e.u64(*corr);
                e.name(model);
                e.tokens(tokens);
                e.buf
            }
            Frame::Response { corr, output, batch_size, queue_wait, latency, stats } => {
                let mut e = Enc::new(TAG_RESPONSE);
                e.u64(*corr);
                e.u32(*batch_size);
                e.timing(*queue_wait, *latency, stats);
                match output {
                    TaskOutput::Logits(v) => {
                        e.buf.push(1);
                        e.f32_vec(v);
                    }
                    TaskOutput::Score(s) => {
                        e.buf.push(2);
                        e.f32_bits(*s);
                    }
                    TaskOutput::Span(start, end) => {
                        e.buf.push(3);
                        e.f32_vec(start);
                        e.f32_vec(end);
                    }
                }
                e.buf
            }
            Frame::Error { corr, code, message } => {
                let mut e = Enc::new(TAG_ERROR);
                e.u64(*corr);
                e.u16(*code as u16);
                e.u32(message.len() as u32);
                e.bytes(message.as_bytes());
                e.buf
            }
            Frame::Generate { corr, model, prompt, max_tokens, eos } => {
                let mut e = Enc::new(TAG_GENERATE);
                e.u64(*corr);
                e.name(model);
                e.u32(*max_tokens);
                match eos {
                    Some(t) => {
                        e.buf.push(1);
                        e.u32(*t);
                    }
                    None => e.buf.push(0),
                }
                e.tokens(prompt);
                e.buf
            }
            Frame::Generated { corr, index, token, summary } => {
                let mut e = Enc::new(TAG_GENERATED);
                e.u64(*corr);
                e.u32(*index);
                e.u32(*token);
                match summary {
                    None => e.buf.push(0),
                    Some(s) => {
                        e.buf.push(1);
                        e.u32(s.steps);
                        e.timing(s.queue_wait, s.latency, &s.stats);
                    }
                }
                e.buf
            }
        }
    }

    /// Decodes a frame from its payload bytes (tag byte included, length
    /// prefix not).
    ///
    /// # Errors
    ///
    /// [`WireError::UnsupportedTag`] on an unrecognized tag;
    /// [`WireError::Malformed`] on a short payload, invalid UTF-8 name,
    /// out-of-range count, or trailing garbage.
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
        let mut d = Dec::new(payload);
        let frame = match d.u8("frame tag")? {
            TAG_REQUEST => {
                let corr = d.u64("request corr id")?;
                let model = d.name()?;
                let tokens = d.tokens("token count", "token id")?;
                Frame::Request { corr, model, tokens }
            }
            TAG_RESPONSE => {
                let corr = d.u64("response corr id")?;
                let batch_size = d.u32("batch size")?;
                let (queue_wait, latency, stats) = d.timing()?;
                let output = match d.u8("output kind")? {
                    1 => TaskOutput::Logits(d.f32_vec("logits")?),
                    2 => TaskOutput::Score(d.f32_bits("score")?),
                    3 => TaskOutput::Span(d.f32_vec("span start")?, d.f32_vec("span end")?),
                    _ => return Err(WireError::Malformed { detail: "output kind" }),
                };
                Frame::Response { corr, output, batch_size, queue_wait, latency, stats }
            }
            TAG_ERROR => {
                let corr = d.u64("error corr id")?;
                let code = WireErrorCode::from_u16(d.u16("error code")?)
                    .ok_or(WireError::Malformed { detail: "error code" })?;
                let msg_len = d.u32("message length")? as usize;
                let message = std::str::from_utf8(d.take(msg_len, "message bytes")?)
                    .map_err(|_| WireError::Malformed { detail: "message utf-8" })?
                    .to_owned();
                Frame::Error { corr, code, message }
            }
            TAG_GENERATE => {
                let corr = d.u64("generate corr id")?;
                let model = d.name()?;
                let max_tokens = d.u32("max tokens")?;
                let eos = match d.u8("eos flag")? {
                    0 => None,
                    1 => Some(d.u32("eos token")?),
                    _ => return Err(WireError::Malformed { detail: "eos flag" }),
                };
                let prompt = d.tokens("prompt count", "prompt token")?;
                Frame::Generate { corr, model, prompt, max_tokens, eos }
            }
            TAG_GENERATED => {
                let corr = d.u64("generated corr id")?;
                let index = d.u32("token index")?;
                let token = d.u32("token id")?;
                let summary = match d.u8("done flag")? {
                    0 => None,
                    1 => {
                        let steps = d.u32("steps")?;
                        let (queue_wait, latency, stats) = d.timing()?;
                        Some(GenSummary { steps, queue_wait, latency, stats })
                    }
                    _ => return Err(WireError::Malformed { detail: "done flag" }),
                };
                Frame::Generated { corr, index, token, summary }
            }
            tag => return Err(WireError::UnsupportedTag { tag }),
        };
        d.finished("trailing bytes")?;
        Ok(frame)
    }

    /// Builds the response frame for an answered engine request.
    pub fn from_response(corr: u64, response: Response) -> Frame {
        Frame::Response {
            corr,
            output: response.output,
            batch_size: response.batch_size as u32,
            queue_wait: response.queue_wait,
            latency: response.latency,
            stats: response.stats,
        }
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates the writer's failure; [`io::ErrorKind::InvalidInput`] when
/// the encoded frame exceeds `max_frame_bytes`.
pub fn write_frame(w: &mut impl Write, frame: &Frame, max_frame_bytes: usize) -> io::Result<()> {
    let payload = frame.encode_payload();
    if payload.len() > max_frame_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the {max_frame_bytes}-byte maximum", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up between frames).
///
/// # Errors
///
/// [`ReadFrameError::Wire`] with [`WireError::Truncated`] when the
/// stream ends *inside* a frame, [`WireError::FrameTooLarge`] before any
/// oversized payload is read, [`WireError::Malformed`] on a payload that
/// does not decode; [`ReadFrameError::Io`] on transport failure.
pub fn read_frame(
    r: &mut impl Read,
    max_frame_bytes: usize,
) -> Result<Option<Frame>, ReadFrameError> {
    let mut len = [0u8; 4];
    // A clean EOF before any length byte is a graceful hangup; one after
    // some bytes is truncation.
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let declared = u32::from_le_bytes(len) as usize;
    if declared > max_frame_bytes {
        return Err(WireError::FrameTooLarge { declared, max: max_frame_bytes }.into());
    }
    let mut payload = vec![0u8; declared];
    if let Err(e) = r.read_exact(&mut payload) {
        return if e.kind() == io::ErrorKind::UnexpectedEof {
            Err(WireError::Truncated.into())
        } else {
            Err(e.into())
        };
    }
    Ok(Some(Frame::decode_payload(&payload)?))
}

/// What the server answered for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerReply {
    /// The request was served.
    Response {
        /// The task-head output, bit-exact.
        output: TaskOutput,
        /// How many requests shared the batch.
        batch_size: u32,
        /// Submission → batch-formed wait (server-side).
        queue_wait: Duration,
        /// Submission → response latency (server-side).
        latency: Duration,
        /// The request's activation-encoding counters.
        stats: QuantizedStats,
    },
    /// The request was rejected with a typed reason.
    Rejected {
        /// The reason code.
        code: WireErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// How a [`NetClient::generate`] call ended.
#[derive(Debug, Clone, PartialEq)]
pub enum GenerateOutcome {
    /// The generation ran to completion.
    Generated {
        /// Every sampled token, in stream order.
        tokens: Vec<usize>,
        /// The stream's closing summary.
        summary: GenSummary,
    },
    /// The generation was rejected with a typed reason.
    Rejected {
        /// The reason code.
        code: WireErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// A blocking client for the wire protocol: one `TcpStream`, framed
/// writes and reads. Requests may be pipelined — send many, then match
/// replies by correlation id.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    max_frame_bytes: usize,
}

impl NetClient {
    /// Connects to a serving frontend.
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, max_frame_bytes: DEFAULT_MAX_FRAME_BYTES })
    }

    /// Sends one request frame without waiting for the reply
    /// (pipelining).
    ///
    /// # Errors
    ///
    /// Propagates the transport failure.
    pub fn send(&mut self, corr: u64, model: &str, tokens: &[usize]) -> io::Result<()> {
        let frame = Frame::Request { corr, model: model.to_owned(), tokens: tokens.to_vec() };
        write_frame(&mut self.stream, &frame, self.max_frame_bytes)
    }

    /// Receives the next reply frame, whatever request it answers.
    ///
    /// # Errors
    ///
    /// `io::ErrorKind::UnexpectedEof` when the server hung up,
    /// `InvalidData` on an undecodable or non-reply frame.
    pub fn recv(&mut self) -> io::Result<(u64, ServerReply)> {
        match self.read_reply("server closed the connection")? {
            Frame::Response { corr, output, batch_size, queue_wait, latency, stats } => {
                Ok((corr, ServerReply::Response { output, batch_size, queue_wait, latency, stats }))
            }
            Frame::Error { corr, code, message } => {
                Ok((corr, ServerReply::Rejected { code, message }))
            }
            Frame::Request { .. } | Frame::Generate { .. } => {
                Err(io::Error::new(io::ErrorKind::InvalidData, "server sent a request frame"))
            }
            Frame::Generated { .. } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "generation frame outside a generate call (mixed pipelining is unsupported)",
            )),
        }
    }

    /// One synchronous request/reply round trip.
    ///
    /// # Errors
    ///
    /// Everything [`NetClient::send`] and [`NetClient::recv`] can fail
    /// with, plus `InvalidData` when the reply's correlation id does not
    /// match (the connection is carrying pipelined traffic).
    pub fn call(&mut self, corr: u64, model: &str, tokens: &[usize]) -> io::Result<ServerReply> {
        self.send(corr, model, tokens)?;
        let (got, reply) = self.recv()?;
        if got != corr && got != CORR_CONNECTION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply for corr {got} while awaiting {corr}"),
            ));
        }
        Ok(reply)
    }

    /// Sends one generation request frame without waiting for the token
    /// stream.
    ///
    /// # Errors
    ///
    /// Propagates the transport failure.
    pub fn send_generate(
        &mut self,
        corr: u64,
        model: &str,
        prompt: &[usize],
        max_tokens: usize,
        eos: Option<usize>,
    ) -> io::Result<()> {
        let frame = Frame::Generate {
            corr,
            model: model.to_owned(),
            prompt: prompt.to_vec(),
            max_tokens: max_tokens as u32,
            eos: eos.map(|t| t as u32),
        };
        write_frame(&mut self.stream, &frame, self.max_frame_bytes)
    }

    /// One synchronous generation: sends the request and drains its
    /// token stream until the summary (or error) frame. Do not pipeline
    /// other calls on the connection while a generation is in flight.
    ///
    /// # Errors
    ///
    /// Transport failures, `UnexpectedEof` when the server hangs up
    /// mid-stream, and `InvalidData` on out-of-order frames (a token
    /// index skipping, a foreign correlation id, or a non-generation
    /// frame).
    pub fn generate(
        &mut self,
        corr: u64,
        model: &str,
        prompt: &[usize],
        max_tokens: usize,
        eos: Option<usize>,
    ) -> io::Result<GenerateOutcome> {
        self.send_generate(corr, model, prompt, max_tokens, eos)?;
        let mut tokens = Vec::new();
        loop {
            match self.read_reply("server closed mid-generation")? {
                Frame::Generated { corr: got, index, token, summary } if got == corr => {
                    if index as usize != tokens.len() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("token index {index} out of order (expected {})", tokens.len()),
                        ));
                    }
                    match summary {
                        None => tokens.push(token as usize),
                        Some(summary) => return Ok(GenerateOutcome::Generated { tokens, summary }),
                    }
                }
                Frame::Error { corr: got, code, message }
                    if got == corr || got == CORR_CONNECTION =>
                {
                    return Ok(GenerateOutcome::Rejected { code, message })
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected frame during generation: {other:?}"),
                    ))
                }
            }
        }
    }

    /// Reads the next frame, lifting a decode failure to `InvalidData` and
    /// a hangup to `UnexpectedEof` with `hangup` as its message.
    fn read_reply(&mut self, hangup: &str) -> io::Result<Frame> {
        read_frame(&mut self.stream, self.max_frame_bytes)
            .map_err(|e| match e {
                ReadFrameError::Io(e) => e,
                ReadFrameError::Wire(e) => io::Error::new(io::ErrorKind::InvalidData, e),
            })?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, hangup))
    }

    /// The underlying stream, for timeouts or shutdown.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let payload = frame.encode_payload();
        assert_eq!(Frame::decode_payload(&payload), Ok(frame.clone()));
        // And through the framed stream layer.
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame, DEFAULT_MAX_FRAME_BYTES).unwrap();
        let got = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(got, Some(frame));
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        round_trip(Frame::Request {
            corr: 7,
            model: "sentiment".into(),
            tokens: vec![0, 1, 399, 42],
        });
        round_trip(Frame::Response {
            corr: u64::MAX,
            output: TaskOutput::Logits(vec![0.25, -1.5e-30, f32::MIN_POSITIVE, -0.0]),
            batch_size: 5,
            queue_wait: Duration::from_micros(123),
            latency: Duration::from_micros(4567),
            stats: QuantizedStats {
                act_values: 999,
                act_outliers: 27,
                ..QuantizedStats::default()
            },
        });
        round_trip(Frame::Response {
            corr: 1,
            output: TaskOutput::Score(f32::NEG_INFINITY),
            batch_size: 1,
            queue_wait: Duration::ZERO,
            latency: Duration::ZERO,
            stats: QuantizedStats { act_values: 0, act_outliers: 0, ..QuantizedStats::default() },
        });
        round_trip(Frame::Response {
            corr: 2,
            output: TaskOutput::Span(vec![1.0, 2.0], vec![]),
            batch_size: 2,
            queue_wait: Duration::from_micros(1),
            latency: Duration::from_micros(2),
            stats: QuantizedStats { act_values: 4, act_outliers: 1, ..QuantizedStats::default() },
        });
        round_trip(Frame::Error {
            corr: 0,
            code: WireErrorCode::MalformedFrame,
            message: "frame tag".into(),
        });
        round_trip(Frame::Generate {
            corr: 11,
            model: "storyteller".into(),
            prompt: vec![4, 0, 17, 255],
            max_tokens: 12,
            eos: Some(9),
        });
        round_trip(Frame::Generate {
            corr: 12,
            model: "storyteller".into(),
            prompt: vec![1],
            max_tokens: 1,
            eos: None,
        });
        round_trip(Frame::Generated { corr: 11, index: 0, token: 42, summary: None });
        round_trip(Frame::Generated {
            corr: 11,
            index: 5,
            token: 0,
            summary: Some(GenSummary {
                steps: 5,
                queue_wait: Duration::from_micros(77),
                latency: Duration::from_micros(8_123),
                stats: QuantizedStats {
                    act_values: 4_096,
                    act_outliers: 12,
                    ..QuantizedStats::default()
                },
            }),
        });
    }

    #[test]
    fn nan_payloads_survive_bit_exactly() {
        // NaN != NaN, so compare bits, not values.
        let frame = Frame::Response {
            corr: 3,
            output: TaskOutput::Score(f32::from_bits(0x7fc0_dead)),
            batch_size: 1,
            queue_wait: Duration::ZERO,
            latency: Duration::ZERO,
            stats: QuantizedStats { act_values: 0, act_outliers: 0, ..QuantizedStats::default() },
        };
        let decoded = Frame::decode_payload(&frame.encode_payload()).unwrap();
        match decoded {
            Frame::Response { output: TaskOutput::Score(s), .. } => {
                assert_eq!(s.to_bits(), 0x7fc0_dead);
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn unknown_tags_are_unsupported_not_malformed() {
        // A recognizably framed payload with a tag outside the table is
        // a *kind* problem, not a decoding problem — it must surface as
        // UnsupportedTag so servers answer with UnsupportedKind.
        assert_eq!(Frame::decode_payload(&[0x09]), Err(WireError::UnsupportedTag { tag: 0x09 }));
        assert_eq!(Frame::decode_payload(&[0xFF]), Err(WireError::UnsupportedTag { tag: 0xFF }));
        // Every implemented tag stays decodable (if only to a Malformed
        // complaint about the truncated body, never UnsupportedTag).
        for tag in [TAG_REQUEST, TAG_RESPONSE, TAG_ERROR, TAG_GENERATE, TAG_GENERATED] {
            assert!(
                matches!(Frame::decode_payload(&[tag]), Err(WireError::Malformed { .. })),
                "tag 0x{tag:02x} should be known"
            );
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // Empty payload.
        assert!(Frame::decode_payload(&[]).is_err());
        // Truncated request: claims 4 tokens, carries none.
        let mut bad =
            Frame::Request { corr: 1, model: "m".into(), tokens: vec![] }.encode_payload();
        let len = bad.len();
        bad[len - 4..].copy_from_slice(&4u32.to_le_bytes());
        assert!(Frame::decode_payload(&bad).is_err());
        // Trailing garbage after a valid frame.
        let mut ok =
            Frame::Request { corr: 1, model: "m".into(), tokens: vec![3] }.encode_payload();
        ok.push(0xFF);
        assert!(matches!(
            Frame::decode_payload(&ok),
            Err(WireError::Malformed { detail: "trailing bytes" })
        ));
        // Invalid UTF-8 model name.
        let mut bad_name =
            Frame::Request { corr: 1, model: "mm".into(), tokens: vec![] }.encode_payload();
        bad_name[11] = 0xFF; // first name byte (tag 1 + corr 8 + len 2)
        assert!(matches!(
            Frame::decode_payload(&bad_name),
            Err(WireError::Malformed { detail: "model name utf-8" })
        ));
        // An out-of-range eos flag on a Generate frame.
        let mut bad_gen = Frame::Generate {
            corr: 1,
            model: "m".into(),
            prompt: vec![2],
            max_tokens: 3,
            eos: None,
        }
        .encode_payload();
        bad_gen[16] = 7; // eos flag (tag 1 + corr 8 + len 2 + name 1 + max_tokens 4)
        assert!(matches!(
            Frame::decode_payload(&bad_gen),
            Err(WireError::Malformed { detail: "eos flag" })
        ));
        // An out-of-range done flag on a Generated frame.
        let mut bad_done =
            Frame::Generated { corr: 1, index: 0, token: 3, summary: None }.encode_payload();
        let flag = bad_done.len() - 1;
        bad_done[flag] = 2;
        assert!(matches!(
            Frame::decode_payload(&bad_done),
            Err(WireError::Malformed { detail: "done flag" })
        ));
    }

    #[test]
    fn oversized_frames_bounce_before_allocation() {
        // A 4 GiB-ish length prefix must be rejected from the 4 length
        // bytes alone.
        let mut stream: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        match read_frame(&mut stream, 1024) {
            Err(ReadFrameError::Wire(WireError::FrameTooLarge { declared, max })) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // Writing an over-limit frame is refused client-side too.
        let frame = Frame::Request { corr: 1, model: "m".into(), tokens: vec![0; 100] };
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &frame, 16).is_err());
        assert!(out.is_empty(), "nothing may hit the wire for a refused frame");
    }

    #[test]
    fn truncation_is_distinguished_from_clean_eof() {
        // Clean EOF at a frame boundary.
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty, 1024), Ok(None)));
        // EOF inside the length prefix.
        let mut partial: &[u8] = &[3, 0];
        assert!(matches!(
            read_frame(&mut partial, 1024),
            Err(ReadFrameError::Wire(WireError::Truncated))
        ));
        // EOF inside the payload.
        let frame = Frame::Request { corr: 9, model: "m".into(), tokens: vec![1, 2] };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame, 1024).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024),
            Err(ReadFrameError::Wire(WireError::Truncated))
        ));
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            WireErrorCode::UnknownModel,
            WireErrorCode::QueueFull,
            WireErrorCode::QuotaExceeded,
            WireErrorCode::EmptySequence,
            WireErrorCode::SequenceTooLong,
            WireErrorCode::TokenOutOfVocab,
            WireErrorCode::ShuttingDown,
            WireErrorCode::MalformedFrame,
            WireErrorCode::FrameTooLarge,
            WireErrorCode::UnsupportedKind,
            WireErrorCode::DecodeUnsupported,
        ] {
            assert_eq!(WireErrorCode::from_u16(code as u16), Some(code));
        }
        assert_eq!(WireErrorCode::from_u16(0), None);
        assert_eq!(WireErrorCode::from_u16(999), None);
    }
}
