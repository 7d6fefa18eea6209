//! `llm_wire_generate`: a chat-style caller on one loopback connection
//! sends `Generate` for `llm_tiny` and sends the next only after the
//! `done` frame of the last arrives (closed loop, one thread).

use crate::common::{llm_engine, timed_setups};
use crate::spans::Tracer;
use crate::{stats, wire};
use oxbar_serve::protocol::{read_message, write_message};
use oxbar_serve::{ClientFrame, ServerFrame};
use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

/// Decode steps per sequence.
pub const STEPS: u64 = 32;

/// What one `llm_wire_generate` pass measured.
#[derive(Debug, Clone, Default)]
pub struct LlmWire {
    /// Each set-up's duration, s.
    pub setup_s: Vec<f64>,
    /// Sequences sent.
    pub attempted: u64,
    /// Sequences refused, shed, cut short by the read deadline, or
    /// decoded to other tokens than the in-process engine's.
    pub failed: u64,
    /// Sequences whose tokens differed from the in-process engine's.
    pub mismatches: u64,
    /// Send to first token frame, ms, per completed sequence.
    pub ttft_ms: Vec<f64>,
    /// Send to `done` frame, ms, per completed sequence.
    pub seq_ms: Vec<f64>,
    /// Gaps between consecutive token frames of a sequence, ms.
    pub gaps_ms: Vec<f64>,
    /// Token frames received.
    pub tokens: u64,
    /// Wall time of the closed loop, s.
    pub wall_s: f64,
    /// Median of sequence latency minus the in-process engine's time for
    /// the same sequence, ms.
    pub residual_p50_ms: Option<f64>,
    /// Server engine retries and sheds, asked over the wire.
    pub retries: u64,
    /// See `retries`.
    pub sheds: u64,
}

/// One sequence as the client saw it.
struct Sequence {
    tokens: Vec<u64>,
    /// When the send began.
    begin: Instant,
    /// Seconds after `begin` that the send ended.
    sent: f64,
    /// Seconds after `begin` that each token frame arrived.
    arrived: Vec<f64>,
}

/// Sends one `Generate` and reads its token frames; `None` when the
/// sequence ended without a `done` frame.
fn generate(
    stream: &mut std::net::TcpStream,
    tag: u64,
    prompt: u64,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Option<Sequence> {
    let frame = ClientFrame::Generate {
        tag,
        // llm_tiny is the only model the server admits.
        model: 0,
        prompt,
        steps: STEPS,
        arrival: tag,
        interval: 1,
    };
    let begin = Instant::now();
    tracer
        .time("protocol.write_message", parent, || {
            write_message(stream, &frame)
        })
        .ok()?;
    let sent = begin.elapsed().as_secs_f64();
    let (mut tokens, mut arrived) = (Vec::new(), Vec::new());
    loop {
        match read_message::<ServerFrame>(stream).ok()? {
            ServerFrame::Completion {
                tag: t,
                sequence: Some(token),
                ..
            } if t == tag => {
                tokens.push(token.token);
                arrived.push(begin.elapsed().as_secs_f64());
                if token.done {
                    return Some(Sequence {
                        tokens,
                        begin,
                        sent,
                        arrived,
                    });
                }
            }
            ServerFrame::Error { .. } | ServerFrame::Shed { .. } => return None,
            _ => {}
        }
    }
}

/// Runs `setups` set-ups (keeping the last), then closed-loop sequences
/// until `seconds` have passed (at least one), then checks every
/// sequence's tokens against an in-process engine.
///
/// # Errors
///
/// A set-up that cannot bind, connect or handshake.
pub fn run(seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> io::Result<LlmWire> {
    let mut out = LlmWire::default();
    let mut vocab = 1;
    let (setup_s, (server, mut stream)) = timed_setups(setups, || {
        let (engine, llm) = llm_engine(tracer);
        vocab = engine
            .registry()
            .spec(llm)
            .lm
            .as_ref()
            .map_or(1, |w| w.config.vocab) as u64;
        wire::serve(engine)
    })?;
    out.setup_s = setup_s;

    let phase = tracer.open("loadgen.llm_wire_generate", None);
    let start = Instant::now();
    // (prompt, tokens, sequence latency from the end of the send, ms)
    let mut done: Vec<(u64, Vec<u64>, f64)> = Vec::new();
    while out.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        let tag = out.attempted;
        let prompt = (seed.wrapping_add(tag)) % vocab;
        out.attempted += 1;
        let Some(seq) = generate(&mut stream, tag, prompt, tracer, phase) else {
            out.failed += 1;
            break;
        };
        let (first, last) = (seq.arrived[0], seq.arrived[seq.arrived.len() - 1]);
        let at = |s: f64| seq.begin + Duration::from_secs_f64(s);
        tracer.record("server.sequence", at(seq.sent), at(last), phase);
        out.ttft_ms.push(first * 1e3);
        out.seq_ms.push(last * 1e3);
        out.gaps_ms
            .extend(seq.arrived.windows(2).map(|w| (w[1] - w[0]) * 1e3));
        out.tokens += seq.tokens.len() as u64;
        done.push((prompt, seq.tokens, (last - seq.sent) * 1e3));
    }
    out.wall_s = start.elapsed().as_secs_f64();
    tracer.close(phase);
    if out.failed == 0 {
        (out.retries, out.sheds) = wire::retries_and_sheds(&mut stream)?;
    }
    drop(stream);
    server.shutdown();

    // The oracle: each distinct prompt decoded once in process.
    let replay = tracer.open("loadgen.llm_replay", None);
    let (mut oracle, llm) = llm_engine(&mut tracer.fork());
    let mut expected: BTreeMap<u64, (Vec<u64>, f64)> = BTreeMap::new();
    let (mut wire_ms, mut engine_ms) = (Vec::new(), Vec::new());
    for (prompt, tokens, latency) in &done {
        let (want, engine) = expected.entry(*prompt).or_insert_with(|| {
            let begin = Instant::now();
            let id = tracer
                .time("engine.begin_sequence", replay, || {
                    oracle.begin_sequence(llm, *prompt as u32, STEPS as usize, 0, 1)
                })
                .expect("the oracle begins every generated sequence");
            tracer.time("engine.drain_traced", replay, || oracle.drain_traced());
            let ms = begin.elapsed().as_secs_f64() * 1e3;
            let want = oracle
                .sequence_tokens(id)
                .iter()
                .map(|&t| u64::from(t))
                .collect();
            (want, ms)
        });
        if want != tokens {
            out.mismatches += 1;
        }
        wire_ms.push(*latency);
        engine_ms.push(*engine);
    }
    tracer.close(replay);
    out.residual_p50_ms = stats::residual_p50_ms(&wire_ms, &engine_ms);
    out.failed += out.mismatches;
    Ok(out)
}
