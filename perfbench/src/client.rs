//! The load generator: seeded requests over the wire protocol, at most two
//! threads and two TCP connections, every reply kept for checking.
//!
//! Replies on one connection arrive in submission order (the server's
//! per-connection writer serialises them), so a reader expects exactly
//! one reply per request its writer has put on the wire.

use crate::trace::Trace;
use mokey_serve::wire::DEFAULT_MAX_FRAME_BYTES;
use mokey_serve::{read_frame, write_frame, Frame, GenSummary, WireErrorCode};
use mokey_transformer::exec::QuantizedStats;
use mokey_transformer::TaskOutput;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A generation request: prompt tokens and the new-token budget.
pub type Prompt = (Vec<usize>, usize);

/// How one one-shot request ended.
#[derive(Debug, Clone)]
pub enum Answer {
    Served {
        output: TaskOutput,
        batch_size: u32,
        queue_wait: Duration,
        latency: Duration,
        stats: QuantizedStats,
    },
    Rejected,
    /// No reply: the connection failed first.
    Lost,
}

/// One one-shot request as the client saw it.
#[derive(Debug, Clone)]
pub struct Shot {
    /// Position in the phase's request list.
    pub index: usize,
    /// When the request was due: its schedule slot in the open loop, the
    /// moment the window opened in the saturation phase.
    pub due: Instant,
    pub sent: Instant,
    pub received: Option<Instant>,
    pub answer: Answer,
}

impl Shot {
    /// Client-observed latency from the due time.
    pub fn latency(&self) -> Option<Duration> {
        self.received.map(|r| r.saturating_duration_since(self.due))
    }
}

/// One phase of one-shot traffic.
#[derive(Debug)]
pub struct ShotPhase {
    pub start: Instant,
    pub deadline: Instant,
    pub shots: Vec<Shot>,
    /// Whether the phase used up its pre-generated requests before the
    /// deadline (the saturation window then ran dry early).
    pub exhausted: bool,
}

impl ShotPhase {
    pub fn served(&self) -> impl Iterator<Item = (&Shot, &TaskOutput, u32, Duration, Duration)> {
        self.shots.iter().filter_map(|s| match &s.answer {
            Answer::Served { output, batch_size, queue_wait, latency, .. } => {
                Some((s, output, *batch_size, *queue_wait, *latency))
            }
            _ => None,
        })
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Request-id base of each phase, so spans of different phases never
/// share an id.
pub fn corr_of(base: u64, index: usize) -> u64 {
    base + index as u64
}

/// What the writer tells the reader about each request on the wire.
struct Sent {
    index: usize,
    due: Instant,
    sent: Instant,
}

/// Window accounting shared by the writer and the reader of the
/// saturation phase.
struct Window {
    answered: Mutex<usize>,
    changed: Condvar,
    reader_done: AtomicBool,
}

impl Window {
    fn new() -> Self {
        Self {
            answered: Mutex::new(0),
            changed: Condvar::new(),
            reader_done: AtomicBool::new(false),
        }
    }
}

/// Open loop: one writer sends `requests` at a fixed `rate` from a
/// schedule; one reader collects the replies. Latency counts from each
/// request's due time, so a stall also charges the requests queued
/// behind it.
pub fn open_loop(
    stream: &TcpStream,
    model: &str,
    requests: &[Vec<usize>],
    rate: f64,
    corr_base: u64,
    trace: &mut Trace,
) -> ShotPhase {
    // A short lead so the first slot is not already late.
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + Duration::from_secs_f64(requests.len() as f64 / rate);
    let schedule = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let shots = run_window(stream, model, requests, corr_base, trace, &Window::new(), |i| {
        let due = schedule(i);
        sleep_until(due);
        Some(due)
    });
    ShotPhase { start, deadline, shots, exhausted: false }
}

/// Saturation: the same writer/reader pair keeps `window` requests in
/// flight until `duration` has passed.
pub fn saturate(
    stream: &TcpStream,
    model: &str,
    requests: &[Vec<usize>],
    window: usize,
    duration: Duration,
    corr_base: u64,
    trace: &mut Trace,
) -> ShotPhase {
    let start = Instant::now();
    let deadline = start + duration;
    let state = Window::new();
    let shots = run_window(stream, model, requests, corr_base, trace, &state, |i| {
        let mut answered = state.answered.lock().expect("window lock poisoned");
        while i >= *answered + window && !state.reader_done.load(Ordering::SeqCst) {
            answered = state.changed.wait(answered).expect("window lock poisoned");
        }
        drop(answered);
        let now = Instant::now();
        (now < deadline).then_some(now)
    });
    let exhausted = shots.len() == requests.len();
    ShotPhase { start, deadline, shots, exhausted }
}

/// The writer/reader pair behind both one-shot phases. `pace(i)` blocks
/// until request `i` may go out and returns its due time, or `None` to
/// stop sending.
fn run_window(
    stream: &TcpStream,
    model: &str,
    requests: &[Vec<usize>],
    corr_base: u64,
    trace: &mut Trace,
    window: &Window,
    mut pace: impl FnMut(usize) -> Option<Instant> + Send,
) -> Vec<Shot> {
    let traced = trace.enabled();
    let (tx, rx) = mpsc::channel::<Sent>();
    let (writer_trace, (shots, reader_trace)) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut spans = Trace::new(traced);
            let mut w = stream;
            for (index, tokens) in requests.iter().enumerate() {
                let Some(due) = pace(index) else { break };
                let sent = Instant::now();
                let corr = corr_of(corr_base, index);
                let frame =
                    Frame::Request { corr, model: model.to_owned(), tokens: tokens.clone() };
                if write_frame(&mut w, &frame, DEFAULT_MAX_FRAME_BYTES).is_err() {
                    break;
                }
                spans.record("wire.write_frame", sent, Instant::now(), None, corr);
                if tx.send(Sent { index, due, sent }).is_err() {
                    break;
                }
            }
            spans
        });
        let reader = scope.spawn(move || {
            let mut spans = Trace::new(traced);
            let mut r = stream;
            let mut shots = Vec::new();
            let mut connection_ok = true;
            for Sent { index, due, sent } in rx {
                let corr = corr_of(corr_base, index);
                let (received, answer) = if connection_ok {
                    let frame = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES);
                    let received = Instant::now();
                    match frame {
                        Ok(Some(Frame::Response {
                            corr: got,
                            output,
                            batch_size,
                            queue_wait,
                            latency,
                            stats,
                        })) if got == corr => (
                            Some(received),
                            Answer::Served { output, batch_size, queue_wait, latency, stats },
                        ),
                        Ok(Some(Frame::Error { corr: got, .. })) if got == corr => {
                            (Some(received), Answer::Rejected)
                        }
                        _ => {
                            connection_ok = false;
                            (None, Answer::Lost)
                        }
                    }
                } else {
                    (None, Answer::Lost)
                };
                if let Some(received) = received {
                    spans.record("client.request", due, received, None, corr);
                }
                shots.push(Shot { index, due, sent, received, answer });
                *window.answered.lock().expect("window lock poisoned") += 1;
                window.changed.notify_one();
            }
            window.reader_done.store(true, Ordering::SeqCst);
            window.changed.notify_one();
            (shots, spans)
        });
        let writer_trace = writer.join().expect("writer thread panicked");
        (writer_trace, reader.join().expect("reader thread panicked"))
    });
    trace.absorb(reader_trace);
    trace.absorb(writer_trace);
    trace.link("wire.write_frame", "client.request");
    shots
}

/// One generation as the client saw it.
#[derive(Debug, Clone)]
pub struct Gen {
    /// Position in the connection's prompt list.
    pub index: usize,
    /// When the client became free to send it (previous completion, or
    /// the phase start).
    pub ready: Instant,
    pub sent: Instant,
    pub token_times: Vec<Instant>,
    pub tokens: Vec<usize>,
    pub summary: Option<GenSummary>,
    pub rejected: Option<WireErrorCode>,
    pub lost: bool,
    pub finished: Option<Instant>,
}

impl Gen {
    pub fn ok(&self) -> bool {
        self.summary.is_some() && self.rejected.is_none() && !self.lost
    }
}

/// One connection of a generation phase: keeps up to `window`
/// generations in flight until `deadline`, then drains them. With
/// `window = 1` it is a closed loop of one user.
pub fn generate_conn(
    stream: &TcpStream,
    model: &str,
    prompts: &[Prompt],
    window: usize,
    deadline: Instant,
    corr_base: u64,
    trace: &mut Trace,
) -> Vec<Gen> {
    let mut gens: Vec<Gen> = Vec::new();
    let mut in_flight: VecDeque<usize> = VecDeque::new();
    let mut w = stream;
    let mut r = stream;
    let mut next = 0;
    let mut ready = Instant::now();
    let mut broken = false;
    loop {
        while !broken && in_flight.len() < window && next < prompts.len() {
            if Instant::now() >= deadline {
                break;
            }
            let (prompt, max_tokens) = &prompts[next];
            let corr = corr_of(corr_base, next);
            let frame = Frame::Generate {
                corr,
                model: model.to_owned(),
                prompt: prompt.clone(),
                max_tokens: *max_tokens as u32,
                eos: None,
            };
            let sent = Instant::now();
            if write_frame(&mut w, &frame, DEFAULT_MAX_FRAME_BYTES).is_err() {
                broken = true;
                break;
            }
            trace.record("wire.write_frame", sent, Instant::now(), None, corr);
            gens.push(Gen {
                index: next,
                ready,
                sent,
                token_times: Vec::new(),
                tokens: Vec::new(),
                summary: None,
                rejected: None,
                lost: false,
                finished: None,
            });
            in_flight.push_back(gens.len() - 1);
            next += 1;
        }
        if in_flight.is_empty() {
            break;
        }
        let frame =
            if broken { None } else { read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES).ok().flatten() };
        let now = Instant::now();
        let slot = frame.as_ref().and_then(|f| match f {
            Frame::Generated { corr, .. } | Frame::Error { corr, .. } => {
                in_flight.iter().copied().find(|&g| corr_of(corr_base, gens[g].index) == *corr)
            }
            _ => None,
        });
        match (frame, slot) {
            (Some(Frame::Generated { token, summary: None, .. }), Some(g)) => {
                gens[g].tokens.push(token as usize);
                gens[g].token_times.push(now);
            }
            (Some(Frame::Generated { summary: Some(summary), .. }), Some(g)) => {
                gens[g].summary = Some(summary);
                gens[g].finished = Some(now);
                in_flight.retain(|&x| x != g);
                ready = now;
            }
            (Some(Frame::Error { code, .. }), Some(g)) => {
                gens[g].rejected = Some(code);
                gens[g].finished = Some(now);
                in_flight.retain(|&x| x != g);
                ready = now;
            }
            _ => {
                // Transport failure or a frame no generation expects:
                // everything still in flight is lost.
                broken = true;
                for g in in_flight.drain(..) {
                    gens[g].lost = true;
                }
            }
        }
    }
    for g in &gens {
        let corr = corr_of(corr_base, g.index);
        let Some(end) = g.finished else { continue };
        let parent = trace.record("client.generate", g.sent, end, None, corr);
        if let Some(&first) = g.token_times.first() {
            trace.record("client.first_token", g.sent, first, parent, corr);
        }
    }
    trace.link("wire.write_frame", "client.generate");
    gens
}

/// Mean microseconds per frame of `Frame::encode_payload` and of
/// `Frame::decode_payload`, over `rounds` passes of the workload's own
/// frames.
pub fn time_frames(frames: &[Frame], rounds: usize, trace: &mut Trace) -> (f64, f64) {
    let payloads: Vec<Vec<u8>> = frames.iter().map(Frame::encode_payload).collect();
    let mut encode = Duration::ZERO;
    let mut decode = Duration::ZERO;
    for round in 0..rounds as u64 {
        let t0 = Instant::now();
        for frame in frames {
            std::hint::black_box(std::hint::black_box(frame).encode_payload());
        }
        let t1 = Instant::now();
        for payload in &payloads {
            let frame = Frame::decode_payload(std::hint::black_box(payload));
            std::hint::black_box(frame.expect("the workload's own frames decode"));
        }
        let t2 = Instant::now();
        trace.record("net.frame_encode", t0, t1, None, round);
        trace.record("net.frame_decode", t1, t2, None, round);
        encode += t1 - t0;
        decode += t2 - t1;
    }
    let per_frame = |d: Duration| d.as_secs_f64() * 1e6 / (rounds * frames.len()).max(1) as f64;
    (per_frame(encode), per_frame(decode))
}
