//! The configuration every workload shares, and the request generator
//! that derives each workload's inputs from the benchmark seed.

use crate::host::HostClock;
use crate::spans::Tracer;
use oxbar_nn::reference::Tensor3;
use oxbar_nn::{synthetic, TensorShape};
use oxbar_serve::request::request_seed;
use oxbar_serve::{catalog, BatchPolicy, ModelId, ServeConfig, ServeEngine, SimConfig};
use std::time::Instant;

/// Runs `build` `setups` times (at least once), timing each in CPU
/// seconds scaled to nominal host speed (see [`HostClock`]), and keeps
/// the last result. The previous result is dropped before the next
/// build starts, outside its timing.
///
/// # Errors
///
/// The first error `build` returns.
pub fn timed_setups<T>(
    setups: usize,
    mut build: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<(Vec<f64>, T)> {
    let mut clock = HostClock::new(workers());
    let mut times = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups.max(1) {
        drop(last.take());
        let built = clock.measure(&mut build);
        times.push(built.cpu_s);
        last = Some(built.value?);
    }
    Ok((times, last.expect("at least one set-up")))
}

/// Cell budget that keeps the whole stock catalog (411,454 cells)
/// resident on the one chip.
pub const WARM_BUDGET: usize = 4_000_000;

/// Cell budget of about a third of the stock catalog, so models evict
/// and reprogram.
pub const THRASH_BUDGET: usize = 137_151;

/// Relative traffic weights of the stock catalog's four models, in
/// admission order: lenet5, alexnet_fc_sample, vgg16_conv_sample,
/// mobilenet_dw_sample.
pub const MIX: [u64; 4] = [3, 2, 2, 3];

/// Engine worker threads: at most two, and never more than the host's
/// cores.
#[must_use]
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Noisy 128×128 device physics on one sim thread.
#[must_use]
pub fn device() -> SimConfig {
    SimConfig::noisy(128, 128).with_threads(1)
}

/// Batches of up to 16 requests arriving within 8 ticks.
#[must_use]
pub fn policy() -> BatchPolicy {
    BatchPolicy::new(16, 8)
}

/// The common configuration: [`device`] physics, [`policy`] batching,
/// one chip, pipelined prewarm on.
#[must_use]
pub fn serve_config(budget: usize) -> ServeConfig {
    ServeConfig::new(device())
        .with_policy(policy())
        .with_cache_budget(budget)
        .with_workers(workers())
        .with_prewarm(true)
}

/// An engine with the stock catalog admitted. With `warm`, every
/// model's tiles are programmed now (one `cluster.prewarm` span each),
/// so the first request finds them resident.
#[must_use]
pub fn cnn_engine(budget: usize, warm: bool, tracer: &mut Tracer) -> ServeEngine {
    let mut engine = ServeEngine::new(serve_config(budget));
    for spec in catalog::stock_catalog() {
        engine.admit(spec).expect("stock catalog models admit");
    }
    if warm {
        for m in 0..engine.registry().len() {
            let name = format!(
                "cluster.prewarm.{}",
                engine.registry().spec(ModelId(m)).name
            );
            let start = Instant::now();
            engine.registry().prewarm(ModelId(m));
            tracer.record(&name, start, Instant::now(), None);
        }
    }
    engine
}

/// An engine serving only `llm_tiny`, its dense stack programmed now.
#[must_use]
pub fn llm_engine(tracer: &mut Tracer) -> (ServeEngine, ModelId) {
    let mut engine = ServeEngine::new(serve_config(WARM_BUDGET));
    let llm = engine.admit(catalog::llm_tiny()).expect("llm_tiny admits");
    let start = Instant::now();
    engine.registry().prewarm(llm);
    tracer.record("cluster.prewarm.llm_tiny", start, Instant::now(), None);
    (engine, llm)
}

/// The input shape of each stock-catalog model, in admission order.
#[must_use]
pub fn catalog_shapes(engine: &ServeEngine) -> Vec<TensorShape> {
    (0..engine.registry().len())
        .map(|m| engine.input_shape(ModelId(m)))
        .collect()
}

/// Request `index` of the CNN trace for `seed`: a model and a synthetic
/// 6-bit input. Every block of ten consecutive requests holds the
/// [`MIX`] counts exactly, in a seeded order, so a trace's model mix
/// does not vary with the seed. A pure function of its arguments, so
/// the load generator and the oracle build the same request
/// independently.
#[must_use]
pub fn cnn_request(shapes: &[TensorShape], seed: u64, index: u64) -> (usize, Tensor3) {
    let block_len: u64 = MIX.iter().sum();
    let mut slots: Vec<usize> = (0..MIX.len())
        .flat_map(|m| std::iter::repeat_n(m, MIX[m] as usize))
        .collect();
    // Fisher–Yates over the block's slots, keyed by (seed, block).
    let block = index / block_len;
    for k in (1..slots.len()).rev() {
        let j = request_seed(seed ^ block.rotate_left(17), k as u64) % (k as u64 + 1);
        slots.swap(k, j as usize);
    }
    let model = slots[(index % block_len) as usize];
    let input = synthetic::activations(shapes[model], 6, request_seed(seed ^ 0x1a9d, index));
    (model, input)
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
///
/// # Panics
///
/// Panics if the kernel does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
