//! Network serving acceptance: traffic through the TCP frontend must be
//! **bit-identical** to direct inference, rejections must come back as
//! typed error frames, and hostile or vanishing clients must never leak
//! an in-flight slot or deadlock the graceful drain.

use mokey_serve::{
    drive_socket_clients, serve_net, ExecMode, Frame, GenerateOutcome, ModelRegistry,
    ModelServeConfig, NetClient, NetConfig, PreparedModel, ServeConfig, ServerReply, WireError,
    WireErrorCode,
};
use mokey_transformer::model::{Head, Model};
use mokey_transformer::{ModelConfig, QuantizeSpec, TaskOutput};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn model_config() -> ModelConfig {
    ModelConfig {
        name: "net-itest".into(),
        layers: 2,
        hidden: 64,
        heads: 2,
        ff: 128,
        vocab: 400,
        max_seq: 32,
    }
}

fn registry() -> ModelRegistry {
    let config = model_config();
    let profile: Vec<Vec<usize>> = (0..3)
        .map(|s| Model::synthesize(&config, Head::Span, 17).random_tokens(16, 600 + s))
        .collect();
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "classify",
            Model::synthesize(&config, Head::Classification { classes: 3 }, 17),
            QuantizeSpec::weights_and_activations(),
            &profile,
        )
        .expect("model registers");
    registry
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        ..ServeConfig::default()
    }
}

fn prepared(registry: &ModelRegistry) -> &PreparedModel {
    registry.get(registry.lookup("classify").unwrap()).unwrap()
}

#[test]
fn wire_responses_are_bit_identical_to_direct_inference() {
    let registry = registry();
    let requests: Vec<Vec<usize>> = (0..8)
        .map(|s| prepared(&registry).model().random_tokens(12 + s % 3, 70 + s as u64))
        .collect();
    let (replies, report) = serve_net(&registry, serve_config(), NetConfig::default(), |net| {
        let mut client = NetClient::connect(&net.addr().to_string()).unwrap();
        let replies = requests
            .iter()
            .enumerate()
            .map(|(i, tokens)| client.call(1 + i as u64, "classify", tokens).unwrap())
            .collect::<Vec<_>>();
        // Only checked after the first round trip: connect() returns
        // on the handshake, before the acceptor has polled.
        assert_eq!(net.accepted(), 1);
        replies
    })
    .unwrap();
    assert_eq!(report.aggregate.completed, 8);
    for (tokens, reply) in requests.iter().zip(&replies) {
        let (reference, reference_stats) = prepared(&registry).infer(tokens);
        match reply {
            ServerReply::Response { output, stats, batch_size, queue_wait, latency } => {
                assert_eq!(output, &reference, "wire output diverged for {tokens:?}");
                assert_eq!(stats, &reference_stats);
                assert!(*batch_size >= 1);
                assert!(latency >= queue_wait);
            }
            ServerReply::Rejected { code, message } => {
                panic!("valid request rejected: {code:?} {message}")
            }
        }
    }
}

#[test]
fn index_domain_serving_is_bit_identical_over_the_wire() {
    let registry = registry();
    assert!(
        prepared(&registry).context().has_index_domain(),
        "weights+activations quantization should retain LUT state"
    );
    let requests: Vec<Vec<usize>> = (0..8)
        .map(|s| prepared(&registry).model().random_tokens(10 + s % 4, 300 + s as u64))
        .collect();
    let run = |mode: ExecMode| {
        let config = ServeConfig { mode, ..serve_config() };
        let (replies, report) = serve_net(&registry, config, NetConfig::default(), |net| {
            let mut client = NetClient::connect(&net.addr().to_string()).unwrap();
            requests
                .iter()
                .enumerate()
                .map(|(i, tokens)| client.call(1 + i as u64, "classify", tokens).unwrap())
                .collect::<Vec<_>>()
        })
        .unwrap();
        assert_eq!(report.aggregate.completed, requests.len() as u64);
        replies
    };
    let decoded = run(ExecMode::Decoded);
    let indexed = run(ExecMode::IndexDomain);
    for ((tokens, d), x) in requests.iter().zip(&decoded).zip(&indexed) {
        match (d, x) {
            (
                ServerReply::Response { output: out_d, stats: stats_d, .. },
                ServerReply::Response { output: out_x, stats: stats_x, .. },
            ) => {
                assert_eq!(out_x, out_d, "index-domain wire output diverged for {tokens:?}");
                assert_eq!(stats_x, stats_d, "per-request stats diverged for {tokens:?}");
            }
            other => panic!("expected two responses, got {other:?}"),
        }
    }
}

#[test]
fn pipelined_clients_all_drain_bit_identically() {
    let registry = registry();
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 6;
    let (load, report) = serve_net(&registry, serve_config(), NetConfig::default(), |net| {
        drive_socket_clients(
            &net.addr().to_string(),
            prepared(&registry).model(),
            "classify",
            CLIENTS,
            PER_CLIENT,
            9_000,
        )
        .unwrap()
    })
    .unwrap();
    assert_eq!(load.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(load.rejected, 0);
    assert_eq!(load.per_connection.len(), CLIENTS);
    assert!(load.requests_per_sec > 0.0);
    assert!(load.latency_p99 >= load.latency_p50);
    assert_eq!(report.aggregate.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(report.aggregate.submitted, report.aggregate.completed);
}

#[test]
fn unknown_model_and_invalid_requests_come_back_as_typed_error_frames() {
    let registry = registry();
    let ((), report) = serve_net(&registry, serve_config(), NetConfig::default(), |net| {
        let mut client = NetClient::connect(&net.addr().to_string()).unwrap();
        // Unknown model name.
        match client.call(1, "nonexistent", &[1, 2, 3]).unwrap() {
            ServerReply::Rejected { code: WireErrorCode::UnknownModel, message } => {
                assert!(message.contains("nonexistent"), "unhelpful message: {message}")
            }
            other => panic!("expected UnknownModel, got {other:?}"),
        }
        // Empty sequence.
        assert!(matches!(
            client.call(2, "classify", &[]).unwrap(),
            ServerReply::Rejected { code: WireErrorCode::EmptySequence, .. }
        ));
        // Out-of-vocabulary token.
        assert!(matches!(
            client.call(3, "classify", &[400]).unwrap(),
            ServerReply::Rejected { code: WireErrorCode::TokenOutOfVocab, .. }
        ));
        // Over-long sequence.
        assert!(matches!(
            client.call(4, "classify", &vec![0; 33]).unwrap(),
            ServerReply::Rejected { code: WireErrorCode::SequenceTooLong, .. }
        ));
        // The connection keeps serving valid traffic afterwards.
        let tokens = prepared(&registry).model().random_tokens(12, 5);
        assert!(matches!(
            client.call(5, "classify", &tokens).unwrap(),
            ServerReply::Response { .. }
        ));
    })
    .unwrap();
    assert_eq!(report.aggregate.completed, 1);
    assert_eq!(report.aggregate.rejected_invalid, 3);
}

#[test]
fn malformed_frames_get_a_connection_error_frame_then_a_close() {
    let registry = registry();
    serve_net(&registry, serve_config(), NetConfig::default(), |net| {
        let mut stream = TcpStream::connect(net.addr()).unwrap();
        // A known tag (Request, 0x01) with a truncated body.
        stream.write_all(&1u32.to_le_bytes()).unwrap();
        stream.write_all(&[0x01]).unwrap();
        let reply = mokey_serve::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
        match reply {
            Frame::Error { corr, code, .. } => {
                assert_eq!(corr, 0, "connection-level errors carry corr 0");
                assert_eq!(code, WireErrorCode::MalformedFrame);
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        // The server closes the connection after a framing error.
        assert!(matches!(mokey_serve::read_frame(&mut stream, 1 << 20), Ok(None)));
    })
    .unwrap();
}

#[test]
fn unknown_frame_tags_get_unsupported_kind_not_malformed() {
    let registry = registry();
    serve_net(&registry, serve_config(), NetConfig::default(), |net| {
        let mut stream = TcpStream::connect(net.addr()).unwrap();
        // A tag this protocol version has never assigned: the client
        // may be newer than the server, so the answer distinguishes
        // "I don't speak that" from "you sent garbage".
        stream.write_all(&1u32.to_le_bytes()).unwrap();
        stream.write_all(&[0x7F]).unwrap();
        let reply = mokey_serve::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
        match reply {
            Frame::Error { corr, code, message } => {
                assert_eq!(corr, 0, "connection-level errors carry corr 0");
                assert_eq!(code, WireErrorCode::UnsupportedKind);
                assert!(message.contains("0x7f"), "message should name the tag: {message}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        assert!(matches!(mokey_serve::read_frame(&mut stream, 1 << 20), Ok(None)));
    })
    .unwrap();
}

#[test]
fn generation_over_the_wire_matches_direct_decode_token_for_token() {
    let registry = registry();
    let p = prepared(&registry);
    let prompt = p.model().random_tokens(10, 91);
    let reference =
        mokey_transformer::generate(p.model(), p.context(), &prompt, 6, None, ExecMode::default());
    let ((), report) = serve_net(&registry, serve_config(), NetConfig::default(), |net| {
        let mut client = NetClient::connect(&net.addr().to_string()).unwrap();
        match client.generate(1, "classify", &prompt, 6, None).unwrap() {
            GenerateOutcome::Generated { tokens, summary } => {
                assert_eq!(tokens, reference.tokens, "wire decode diverged from direct decode");
                assert_eq!(summary.stats, reference.stats);
                assert!(summary.steps >= 1);
                assert!(summary.latency >= summary.queue_wait);
            }
            GenerateOutcome::Rejected { code, message } => {
                panic!("valid generation rejected: {code:?} {message}")
            }
        }
        // One-shot traffic still flows on the same connection after a
        // streamed generation.
        let tokens = p.model().random_tokens(12, 92);
        assert!(matches!(
            client.call(2, "classify", &tokens).unwrap(),
            ServerReply::Response { .. }
        ));
        // Generation rejections come back as typed error frames.
        assert!(matches!(
            client.generate(3, "nonexistent", &prompt, 4, None).unwrap(),
            GenerateOutcome::Rejected { code: WireErrorCode::UnknownModel, .. }
        ));
        assert!(matches!(
            client.generate(4, "classify", &prompt, 64, None).unwrap(),
            GenerateOutcome::Rejected { code: WireErrorCode::SequenceTooLong, .. }
        ));
    })
    .unwrap();
    assert_eq!(report.aggregate.generated_tokens, reference.tokens.len() as u64);
    assert!(report.aggregate.decode_steps >= 1);
    assert_eq!(report.aggregate.completed, 2, "one generation + one one-shot");
}

#[test]
fn pipelined_generations_on_one_connection_match_direct_decode() {
    let registry = registry();
    let p = prepared(&registry);
    // Six prompts of different lengths, all in flight at once on one
    // connection, so decode slices fuse generations with different
    // histories.
    let jobs: Vec<(Vec<usize>, usize)> =
        (0..6).map(|i| (p.model().random_tokens(4 + 3 * i, 140 + i as u64), 5 + i)).collect();
    for mode in [ExecMode::Decoded, ExecMode::IndexDomain] {
        let config = ServeConfig { mode, ..serve_config() };
        let (streams, report) = serve_net(&registry, config, NetConfig::default(), |net| {
            let mut client = NetClient::connect(&net.addr().to_string()).unwrap();
            for (corr, (prompt, budget)) in jobs.iter().enumerate() {
                client.send_generate(corr as u64, "classify", prompt, *budget, None).unwrap();
            }
            let mut streams = vec![(Vec::new(), None); jobs.len()];
            let mut open = jobs.len();
            let mut stream = client.stream();
            while open > 0 {
                match mokey_serve::read_frame(&mut stream, 1 << 20).unwrap().unwrap() {
                    Frame::Generated { corr, index, token, summary } => {
                        let (tokens, done) = &mut streams[corr as usize];
                        match summary {
                            None => {
                                assert_eq!(
                                    index as usize,
                                    tokens.len(),
                                    "corr {corr} out of order"
                                );
                                tokens.push(token as usize);
                            }
                            Some(summary) => {
                                *done = Some(summary);
                                open -= 1;
                            }
                        }
                    }
                    other => panic!("unexpected frame: {other:?}"),
                }
            }
            streams
        })
        .unwrap();
        for ((prompt, budget), (tokens, summary)) in jobs.iter().zip(&streams) {
            let direct =
                mokey_transformer::generate(p.model(), p.context(), prompt, *budget, None, mode);
            assert_eq!(tokens, &direct.tokens, "mode {mode:?}: wire stream diverged");
            assert_eq!(summary.expect("a summary").stats, direct.stats, "mode {mode:?}");
        }
        let total: usize = jobs.iter().map(|(_, budget)| budget).sum();
        assert_eq!(report.aggregate.generated_tokens, total as u64);
        assert!(
            report.aggregate.generated_tokens > report.aggregate.decode_steps,
            "no slice fused"
        );
    }
}

#[test]
fn oversized_frames_bounce_before_the_server_allocates() {
    let registry = registry();
    let net = NetConfig { max_frame_bytes: 4096, ..NetConfig::default() };
    serve_net(&registry, serve_config(), net, |net| {
        let mut stream = TcpStream::connect(net.addr()).unwrap();
        // Declare a 64 MiB frame; the server must reject it from the
        // length prefix alone, without waiting for (or allocating) the
        // payload.
        stream.write_all(&(64u32 << 20).to_le_bytes()).unwrap();
        let reply = mokey_serve::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
        assert!(matches!(reply, Frame::Error { corr: 0, code: WireErrorCode::FrameTooLarge, .. }));
        assert!(matches!(mokey_serve::read_frame(&mut stream, 1 << 20), Ok(None)));
    })
    .unwrap();
}

#[test]
fn truncated_frame_then_disconnect_neither_leaks_nor_deadlocks_drain() {
    let registry = registry();
    let tokens = prepared(&registry).model().random_tokens(12, 3);
    let ((), report) = serve_net(&registry, serve_config(), NetConfig::default(), |net| {
        // Client A: submits a valid request, then hangs up mid-frame —
        // 4 length bytes claiming a payload it never sends.
        {
            let mut client = NetClient::connect(&net.addr().to_string()).unwrap();
            assert!(matches!(
                client.call(1, "classify", &tokens).unwrap(),
                ServerReply::Response { .. }
            ));
            let mut raw = client.stream().try_clone().unwrap();
            raw.write_all(&100u32.to_le_bytes()).unwrap();
            // Dropping both handles closes the socket with the frame
            // unfinished.
        }
        // Client B: submits and vanishes *before reading the response* —
        // the engine must still serve it (no leaked in-flight slot) and
        // shutdown must still drain.
        {
            let mut client = NetClient::connect(&net.addr().to_string()).unwrap();
            client.send(1, "classify", &tokens).unwrap();
        }
        // A healthy client still gets served after both misbehaviors.
        let mut client = NetClient::connect(&net.addr().to_string()).unwrap();
        assert!(matches!(
            client.call(1, "classify", &tokens).unwrap(),
            ServerReply::Response { .. }
        ));
    })
    .unwrap();
    // Every accepted request completed — including the vanished
    // client's. (It may or may not have been *submitted* before the
    // socket closed, so compare submitted to completed rather than
    // pinning a count.)
    assert_eq!(report.aggregate.submitted, report.aggregate.completed);
    assert!(report.aggregate.completed >= 2);
}

#[test]
fn per_model_quota_applies_over_the_wire() {
    let mut registry = registry();
    let id = registry.lookup("classify").unwrap();
    registry.set_serve_config(
        id,
        ModelServeConfig { queue_quota: Some(1), ..ModelServeConfig::default() },
    );
    let config = ServeConfig { workers: 1, max_batch: 1, ..serve_config() };
    let tokens = prepared(&registry).model().random_tokens(12, 3);
    let (outcome, report) = serve_net(&registry, config, NetConfig::default(), |net| {
        let mut client = NetClient::connect(&net.addr().to_string()).unwrap();
        // Pipeline a burst; with quota 1 and one slow worker some must
        // come back as QuotaExceeded error frames.
        for i in 0..24u64 {
            client.send(1 + i, "classify", &tokens).unwrap();
        }
        let mut served = 0u64;
        let mut shed = 0u64;
        for _ in 0..24 {
            match client.recv().unwrap().1 {
                ServerReply::Response { .. } => served += 1,
                ServerReply::Rejected { code: WireErrorCode::QuotaExceeded, .. } => shed += 1,
                other => panic!("unexpected reply: {other:?}"),
            }
        }
        (served, shed)
    })
    .unwrap();
    let (served, shed) = outcome;
    assert_eq!(served + shed, 24);
    assert!(served >= 1, "quota must not starve the model entirely");
    assert!(shed >= 1, "a 24-deep burst against quota 1 must shed");
    assert_eq!(report.aggregate.rejected_quota, shed);
    assert_eq!(report.aggregate.completed, served);
}

/// Regression: every accepted socket used to keep a clone in the
/// shutdown list until the server stopped, so sequential clients leaked
/// one descriptor each, and the first failed `accept` (out of
/// descriptors) ended the acceptor for good.
#[test]
fn closed_connections_release_their_sockets_and_the_server_keeps_answering() {
    let registry = registry();
    let tokens = prepared(&registry).model().random_tokens(12, 5);
    let call = |addr: &str, corr: u64| {
        let mut client = NetClient::connect(addr).unwrap();
        let reply = client.call(corr, "classify", &tokens).unwrap();
        assert!(matches!(reply, ServerReply::Response { .. }), "call {corr}: {reply:?}");
        client
    };
    let ((), report) = serve_net(&registry, serve_config(), NetConfig::default(), |net| {
        let addr = net.addr().to_string();
        for corr in 1..=50 {
            drop(call(&addr, corr));
        }
        // Each connection ends on its own thread once its client hangs
        // up; give the last ones a bounded time to finish.
        let deadline = Instant::now() + Duration::from_secs(10);
        while net.open_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(net.open_connections(), 0, "closed connections still hold their sockets");
        assert_eq!(net.accepted(), 50);
        // The engine still answers, and a live connection is counted.
        let _client = call(&addr, 51);
        assert_eq!(net.open_connections(), 1);
    })
    .unwrap();
    assert_eq!(report.aggregate.completed, 51);
}

/// Lowercase-ASCII strings of lengths in `range`, within the vendored
/// proptest's strategy vocabulary (no regex strategies offline).
fn name_strategy(range: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(97u8..=122, range)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ascii"))
}

proptest! {
    /// Frame encode → decode is the identity for any request/error and
    /// for responses over arbitrary f32 bit patterns.
    #[test]
    fn frame_roundtrip_is_identity(
        corr in 0u64..=u64::MAX,
        name in name_strategy(1..12),
        tokens in proptest::collection::vec(0usize..u32::MAX as usize, 0..64),
        logit_bits in proptest::collection::vec(0u32..=u32::MAX, 0..16),
        code_raw in 1u16..=11,
        message in name_strategy(0..40),
    ) {
        let request = Frame::Request { corr, model: name, tokens };
        prop_assert_eq!(
            Frame::decode_payload(&request.encode_payload()).unwrap(),
            request
        );

        let response = Frame::Response {
            corr,
            output: TaskOutput::Logits(
                logit_bits.iter().map(|&b| f32::from_bits(b)).collect(),
            ),
            batch_size: (corr % 16) as u32 + 1,
            queue_wait: Duration::from_micros(corr % 1_000_000),
            latency: Duration::from_micros(corr % 10_000_000),
            stats: mokey_transformer::exec::QuantizedStats {
                act_values: (corr % 100_000) as usize,
                act_outliers: (corr % 1_000) as usize,
                ..Default::default()
            },
        };
        // NaN payloads break `==`; compare re-encoded bytes instead,
        // which is the stronger bit-exactness claim anyway.
        let decoded = Frame::decode_payload(&response.encode_payload()).unwrap();
        prop_assert_eq!(decoded.encode_payload(), response.encode_payload());

        let error = Frame::Error {
            corr,
            code: WireErrorCode::from_u16(code_raw).unwrap(),
            message,
        };
        prop_assert_eq!(Frame::decode_payload(&error.encode_payload()).unwrap(), error);
    }

    /// No payload, however corrupted, may panic the decoder — it either
    /// decodes or returns a typed `WireError`.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        payload in proptest::collection::vec(0u8..=u8::MAX, 0..256),
    ) {
        match Frame::decode_payload(&payload) {
            Ok(frame) => {
                // Whatever decoded must re-encode to the same bytes.
                prop_assert_eq!(frame.encode_payload(), payload);
            }
            Err(WireError::Malformed { .. }) => {}
            // A fuzzed first byte may land on a tag this protocol
            // version has not assigned; that is the one other legal
            // rejection class.
            Err(WireError::UnsupportedTag { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }
}
