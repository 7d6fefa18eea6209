//! `cnn_offline`: in-process batch inference, the paper's own IPS
//! setting. The whole trace is submitted, then drained, in two phases
//! over the same requests: *warm* (everything resident) and *thrash*
//! (a third of the catalog fits, so models evict and reprogram).

use crate::common::{
    catalog_shapes, cnn_engine, cnn_request, policy, timed_setups, workers, THRASH_BUDGET,
    WARM_BUDGET,
};
use crate::host::HostClock;
use crate::spans::Tracer;
use oxbar_nn::reference::Tensor3;
use oxbar_serve::{form_batches, route_rounds, EngineStats, InferRequest, ModelId, ServeEngine};
use std::time::Instant;

/// Requests in the offline trace.
pub const REQUESTS: usize = 600;

/// Share of the phase's seconds spent on warm drains; thrash drains
/// take the rest. On a 2-core host a warm drain lasts 0.2–0.4 s and a
/// thrash drain 3–6 s, depending on the load other tenants put on it.
const WARM_SHARE: f64 = 0.45;

/// Fewest warm drains per pass: one warm drain's scaled throughput
/// varies by several percent, so their median needs several.
const MIN_WARM_DRAINS: usize = 8;

/// Times each batcher call is repeated in a traced run.
const BATCHER_REPEATS: usize = 200;

/// What one `cnn_offline` pass measured.
#[derive(Debug, Clone, Default)]
pub struct Offline {
    /// Each warm set-up's duration, s.
    pub setup_s: Vec<f64>,
    /// Requests submitted across all repetitions.
    pub attempted: u64,
    /// Requests missing from a drain or answered differently from the
    /// first warm drain.
    pub failed: u64,
    /// Completions whose output differed from the first warm drain's.
    pub mismatches: u64,
    /// Inferences per CPU-second the drain used (all threads), scaled to
    /// a host of nominal speed (see [`host`]), one per warm drain.
    pub warm_ips: Vec<f64>,
    /// The same for thrash drains.
    pub thrash_ips: Vec<f64>,
    /// The host's speed relative to nominal around each drain, warm
    /// then thrash.
    pub host_speed: Vec<f64>,
    /// `DrainTrace.batch_ms` of every warm drain.
    pub warm_batch_ms: Vec<f64>,
    /// Engine statistics after the first thrash drain (a fresh engine
    /// each repetition, so they repeat exactly).
    pub thrash_stats: Option<EngineStats>,
    /// Engine statistics after the last warm drain.
    pub warm_stats: Option<EngineStats>,
}

/// What one drain of the trace gave.
struct Drained {
    /// Outputs in request order.
    outputs: Vec<Option<Tensor3>>,
    /// The drain's `DrainTrace.batch_ms`.
    batch_ms: Vec<f64>,
    /// Requests per CPU-second of the drain, scaled to nominal host
    /// speed.
    ips: f64,
    /// The host's speed relative to nominal around the drain.
    host_speed: f64,
}

/// Submits `trace` and drains it, timing the drain on `clock`.
fn drain(
    engine: &mut ServeEngine,
    trace: &[InferRequest],
    clock: &mut HostClock,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Drained {
    let ids: Vec<_> = trace
        .iter()
        .map(|r| {
            let r = r.clone();
            tracer
                .time("engine.try_submit", parent, || engine.try_submit(r))
                .expect("the engine accepts every generated request")
        })
        .collect();
    let scaled =
        clock.measure(|| tracer.time("engine.drain_traced", parent, || engine.drain_traced()));
    let drained = scaled.value;
    let mut outputs = vec![None; trace.len()];
    for c in drained.completions {
        if let Some(slot) = ids.iter().position(|&id| id == c.id) {
            outputs[slot] = Some(c.output);
        }
    }
    Drained {
        outputs,
        batch_ms: drained.batch_ms,
        ips: trace.len() as f64 / scaled.cpu_s,
        host_speed: scaled.speed,
    }
}

/// Runs `setups` warm set-ups (keeping the last), then warm drains of
/// the trace for [`WARM_SHARE`] of `seconds` (at least
/// [`MIN_WARM_DRAINS`]), then thrash drains, each on a fresh engine, for
/// the rest (at least one). Every drain's outputs must equal the first
/// warm drain's.
#[must_use]
pub fn run(seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> Offline {
    let mut out = Offline::default();
    let (setup_s, mut warm) = timed_setups(setups, || Ok(cnn_engine(WARM_BUDGET, true, tracer)))
        .expect("building an engine cannot fail");
    out.setup_s = setup_s;
    let shapes = catalog_shapes(&warm);
    let trace: Vec<InferRequest> = (0..REQUESTS as u64)
        .map(|i| {
            let (model, input) = cnn_request(&shapes, seed, i);
            InferRequest {
                model: ModelId(model),
                input,
                arrival: i,
                deadline: None,
            }
        })
        .collect();

    let mut clock = HostClock::new(workers());
    let begin = Instant::now();
    let mut reference: Option<Vec<Option<Tensor3>>> = None;
    while out.warm_ips.len() < MIN_WARM_DRAINS
        || begin.elapsed().as_secs_f64() < seconds * WARM_SHARE
    {
        let phase = tracer.open("loadgen.offline_warm", None);
        let drained = drain(&mut warm, &trace, &mut clock, tracer, phase);
        tracer.close(phase);
        out.warm_ips.push(drained.ips);
        out.host_speed.push(drained.host_speed);
        out.warm_batch_ms.extend(drained.batch_ms);
        let reference = reference.get_or_insert_with(|| drained.outputs.clone());
        out.mismatches += mismatches(reference, &drained.outputs);
        out.attempted += REQUESTS as u64;
    }
    let reference = reference.expect("at least one warm drain");
    while out.thrash_ips.is_empty() || begin.elapsed().as_secs_f64() < seconds {
        let mut thrash = cnn_engine(THRASH_BUDGET, false, tracer);
        let phase = tracer.open("loadgen.offline_thrash", None);
        let drained = drain(&mut thrash, &trace, &mut clock, tracer, phase);
        tracer.close(phase);
        out.thrash_ips.push(drained.ips);
        out.host_speed.push(drained.host_speed);
        out.mismatches += mismatches(&reference, &drained.outputs);
        out.thrash_stats.get_or_insert_with(|| thrash.stats());
        out.attempted += REQUESTS as u64;
    }
    out.warm_stats = Some(warm.stats());
    out.failed = out.mismatches;
    if tracer.on() {
        probe_batcher(&trace, tracer);
    }
    out
}

/// Completions missing or differing from `reference`.
fn mismatches(reference: &[Option<Tensor3>], outputs: &[Option<Tensor3>]) -> u64 {
    reference
        .iter()
        .zip(outputs)
        .filter(|(r, o)| r.is_none() || r != o)
        .count() as u64
}

/// Times `form_batches` and `route_rounds` on the trace's queue.
fn probe_batcher(trace: &[InferRequest], tracer: &mut Tracer) {
    let queue: Vec<(ModelId, u64)> = trace.iter().map(|r| (r.model, r.arrival)).collect();
    let policy = policy();
    let probe = tracer.open("loadgen.batcher_probe", None);
    for _ in 0..BATCHER_REPEATS {
        let batches = tracer.time("batcher.form_batches", probe, || {
            form_batches(std::hint::black_box(&queue), policy)
        });
        let rounds = tracer.time("batcher.route_rounds", probe, || {
            route_rounds(std::hint::black_box(&batches), workers(), |_| 0)
        });
        std::hint::black_box(rounds);
    }
    tracer.close(probe);
}
