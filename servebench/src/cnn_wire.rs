//! `cnn_wire_open`: the stock catalog served over one loopback TCP
//! connection in open loop, one writer thread sending on a fixed
//! schedule and one reader thread collecting replies.

use crate::common::{catalog_shapes, cnn_engine, cnn_request, timed_setups, WARM_BUDGET};
use crate::spans::Tracer;
use crate::{stats, wire};
use oxbar_nn::reference::Tensor3;
use oxbar_serve::protocol::{read_message, write_message};
use oxbar_serve::{ClientFrame, InferRequest, ModelId, ServerFrame};
use std::collections::BTreeMap;
use std::io::{self, Cursor};
use std::time::{Duration, Instant};

/// Offered load. On a 2-core shared VM the wire path saturated near
/// 1.2k req/s and ran bimodal at 600 req/s. At 400 req/s, spells of
/// 25–30% CPU steal pushed it into overload (p50 of 0.2–0.9 s). At
/// 200 req/s, while other tenants halved the cores' speed, p90 ranged
/// over 5.5–19 ms between runs. 100 req/s leaves headroom for both.
pub const RATE_PER_S: f64 = 100.0;

/// Requests per latency window: one second of traffic, the fewest that
/// put ten samples beyond p90. The gated percentiles are medians over
/// windows (see [`stats::windowed_percentile`]).
pub const WINDOW: usize = 100;

/// Requests whose frames are re-encoded and decoded in memory to time
/// the protocol layer.
const PROBE_FRAMES: usize = 256;

/// One answered request, as the reader saw it.
#[derive(Debug, Clone)]
struct Reply {
    /// Seconds after the schedule began.
    answered: f64,
    batch_seq: u64,
    batch_size: u64,
    output: Tensor3,
}

/// What one `cnn_wire_open` pass measured.
#[derive(Debug, Clone, Default)]
pub struct CnnWire {
    /// Each set-up's duration, s.
    pub setup_s: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, shed, unanswered before the deadline, or
    /// answered wrongly.
    pub failed: u64,
    /// Answers that differed from the in-process oracle.
    pub mismatches: u64,
    /// Latency from each answered request's due time, ms.
    pub latencies_ms: Vec<f64>,
    /// How late the writer sent each request, ms.
    pub late_ms: Vec<f64>,
    /// Mean `batch_size` of the completions.
    pub batch_size_mean: f64,
    /// Median wire latency (from the send) minus the engine-side time
    /// of the same request in the in-process replay, ms.
    pub residual_p50_ms: Option<f64>,
    /// Server engine retries and sheds, asked over the wire.
    pub retries: u64,
    /// See `retries`.
    pub sheds: u64,
    /// Mean encoded request and reply frame sizes, bytes (traced only).
    pub request_bytes: f64,
    /// See `request_bytes`.
    pub reply_bytes: f64,
}

/// Runs `setups` set-ups (keeping the last), then `seconds` of open-loop
/// traffic, then checks every answer against an in-process engine fed
/// the same requests, batch by batch as the server formed them.
///
/// # Errors
///
/// A set-up that cannot bind, connect or handshake.
pub fn run(seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> io::Result<CnnWire> {
    let mut out = CnnWire::default();
    let mut shapes = Vec::new();
    let (setup_s, (server, mut stream)) = timed_setups(setups, || {
        let engine = cnn_engine(WARM_BUDGET, true, tracer);
        shapes = catalog_shapes(&engine);
        wire::serve(engine)
    })?;
    out.setup_s = setup_s;

    let n = (RATE_PER_S * seconds).round() as usize;
    out.attempted = n as u64;
    let phase = tracer.open("loadgen.cnn_wire_open", None);
    let mut writer_stream = stream.try_clone()?;
    let mut reader_stream = stream.try_clone()?;
    let mut writer_tracer = tracer.fork();
    let start = Instant::now();
    let (sent, replies) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut sent: Vec<(f64, f64)> = Vec::with_capacity(n);
            for i in 0..n {
                let (model, input) = cnn_request(&shapes, seed, i as u64);
                let due = start + Duration::from_secs_f64(i as f64 / RATE_PER_S);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let frame = ClientFrame::Infer {
                    tag: i as u64,
                    model,
                    arrival: i as u64,
                    deadline: None,
                    input,
                };
                let begin = Instant::now();
                let written = writer_tracer.time("protocol.write_message", None, || {
                    write_message(&mut writer_stream, &frame)
                });
                sent.push((
                    begin.duration_since(start).as_secs_f64(),
                    start.elapsed().as_secs_f64(),
                ));
                if written.is_err() {
                    break;
                }
            }
            sent
        });
        let reader = s.spawn(|| {
            let mut replies: Vec<Option<Reply>> = vec![None; n];
            let mut terminal = 0;
            while terminal < n {
                match read_message::<ServerFrame>(&mut reader_stream) {
                    Ok(ServerFrame::Completion {
                        tag,
                        batch_seq,
                        batch_size,
                        output,
                        ..
                    }) => {
                        terminal += 1;
                        if let Some(slot) = replies.get_mut(tag as usize) {
                            *slot = Some(Reply {
                                answered: start.elapsed().as_secs_f64(),
                                batch_seq,
                                batch_size,
                                output,
                            });
                        }
                    }
                    Ok(ServerFrame::Error { .. } | ServerFrame::Shed { .. }) => terminal += 1,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            replies
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    tracer.absorb(writer_tracer, phase);
    for (i, reply) in replies.iter().enumerate() {
        if let (Some(r), Some(&(_, sent_end))) = (reply, sent.get(i)) {
            let at = |s: f64| start + Duration::from_secs_f64(s);
            tracer.record("server.request", at(sent_end), at(r.answered), phase);
        }
    }
    tracer.close(phase);
    (out.retries, out.sheds) = wire::retries_and_sheds(&mut stream)?;
    drop(stream);
    server.shutdown();

    out.late_ms = sent
        .iter()
        .enumerate()
        .map(|(i, &(begin, _))| stats::due_latency_ms(RATE_PER_S, i, begin))
        .collect();
    let answered: Vec<(usize, &Reply)> = replies
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
        .collect();
    out.latencies_ms = answered
        .iter()
        .map(|&(i, r)| stats::due_latency_ms(RATE_PER_S, i, r.answered))
        .collect();
    let sizes: Vec<f64> = answered.iter().map(|(_, r)| r.batch_size as f64).collect();
    out.batch_size_mean = stats::mean(&sizes);

    // The oracle: a fresh warm engine fed the same requests, one drain
    // per server batch. Its submit-to-drain-end time per request is the
    // engine-side time the wire latency is compared against.
    let replay = tracer.open("loadgen.cnn_wire_replay", None);
    let mut oracle = cnn_engine(WARM_BUDGET, true, &mut tracer.fork());
    let mut batches: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for &(i, r) in &answered {
        batches.entry(r.batch_seq).or_default().push(i);
    }
    let mut wire_ms = Vec::with_capacity(answered.len());
    let mut engine_ms = Vec::with_capacity(answered.len());
    for members in batches.values() {
        let mut submitted = Vec::with_capacity(members.len());
        for &i in members {
            let (model, input) = cnn_request(&shapes, seed, i as u64);
            let request = InferRequest {
                model: ModelId(model),
                input,
                arrival: i as u64,
                deadline: None,
            };
            let begin = Instant::now();
            let id = tracer
                .time("engine.try_submit", replay, || oracle.try_submit(request))
                .expect("the oracle accepts every generated request");
            submitted.push((i, id, begin));
        }
        let trace = tracer.time("engine.drain_traced", replay, || oracle.drain_traced());
        let end = Instant::now();
        for (i, id, begin) in submitted {
            let reply = replies[i].as_ref().expect("answered");
            let same = trace
                .completions
                .iter()
                .find(|c| c.id == id)
                .is_some_and(|c| c.output == reply.output);
            if !same {
                out.mismatches += 1;
            }
            wire_ms.push((reply.answered - sent[i].1) * 1e3);
            engine_ms.push(end.duration_since(begin).as_secs_f64() * 1e3);
        }
    }
    tracer.close(replay);
    out.residual_p50_ms = stats::residual_p50_ms(&wire_ms, &engine_ms);
    out.failed = (n - answered.len()) as u64 + out.mismatches;

    if tracer.on() {
        probe_protocol(&mut out, &answered, &shapes, seed, tracer);
    }
    Ok(out)
}

/// Re-encodes and decodes the first answered requests' frames against
/// in-memory buffers: one `protocol.encode` span (request and reply
/// frame) and one `protocol.decode` span per request.
fn probe_protocol(
    out: &mut CnnWire,
    answered: &[(usize, &Reply)],
    shapes: &[oxbar_nn::TensorShape],
    seed: u64,
    tracer: &mut Tracer,
) {
    let probe = tracer.open("loadgen.protocol_probe", None);
    let (mut request_bytes, mut reply_bytes) = (Vec::new(), Vec::new());
    for &(i, r) in answered.iter().take(PROBE_FRAMES) {
        let (model, input) = cnn_request(shapes, seed, i as u64);
        let request = ClientFrame::Infer {
            tag: i as u64,
            model,
            arrival: i as u64,
            deadline: None,
            input,
        };
        let reply = ServerFrame::Completion {
            tag: i as u64,
            batch_seq: r.batch_seq,
            batch_size: r.batch_size,
            output: r.output.clone(),
            sequence: None,
        };
        let (mut req_buf, mut rep_buf) = (Vec::new(), Vec::new());
        tracer.time("protocol.encode", probe, || {
            write_message(&mut req_buf, &request).expect("in-memory write");
            write_message(&mut rep_buf, &reply).expect("in-memory write");
        });
        let (req_back, rep_back) = tracer.time("protocol.decode", probe, || {
            (
                read_message::<ClientFrame>(&mut Cursor::new(&req_buf)),
                read_message::<ServerFrame>(&mut Cursor::new(&rep_buf)),
            )
        });
        assert_eq!(req_back.as_ref(), Ok(&request), "request frame round-trips");
        assert_eq!(rep_back.as_ref(), Ok(&reply), "reply frame round-trips");
        request_bytes.push(req_buf.len() as f64);
        reply_bytes.push(rep_buf.len() as f64);
    }
    tracer.close(probe);
    out.request_bytes = stats::mean(&request_bytes);
    out.reply_bytes = stats::mean(&reply_bytes);
}
