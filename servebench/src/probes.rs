//! Direct calls into the lower layers' public functions, each wrapped
//! in a span, for the per-layer figures a served request cannot isolate:
//! whole-network forward passes on cold and warm executors, decode
//! steps, one PCM programming pass and one batched crossbar MVM.

use crate::common::device;
use crate::spans::Tracer;
use oxbar_nn::synthetic;
use oxbar_nn::transformer::KvCache;
use oxbar_pcm::array::{Parallelism, PcmArray};
use oxbar_photonics::crossbar::{CrossbarConfig, CrossbarSimulator};
use oxbar_photonics::transfer::CompiledCrossbar;
use oxbar_serve::catalog;
use oxbar_serve::request::request_seed;
use oxbar_sim::llm::lm_step;
use oxbar_sim::DeviceExecutor;
use std::hint::black_box;

/// Fresh executors timed per model for the cold forward pass.
const COLD_REPEATS: usize = 3;
/// Forward passes timed per model on a warm executor.
const WARM_REPEATS: usize = 20;
/// Sequences decoded step by step on a warm executor.
const LM_SEQUENCES: usize = 2;
/// Decode steps per sequence, as the `llm_wire_generate` workload asks.
const LM_STEPS: usize = 32;
/// PCM programming passes and batched MVM calls timed.
const KERNEL_REPEATS: usize = 50;
/// Windows per batched MVM call, as one full serving batch drives them.
pub const MVM_WINDOWS: usize = 16;
/// The crossbar tile edge.
pub const TILE: usize = 128;

/// The deterministic counts the probes observe.
#[derive(Debug, Clone, Default)]
pub struct ProbeCounts {
    /// Fold tiles programmed by one cold forward pass of each catalog
    /// model, summed over the catalog.
    pub tiles_programmed: u64,
    /// PCM cells written by those passes.
    pub cells_programmed: u64,
}

/// Runs every probe, recording `sim.executor.forward_cold.<model>`,
/// `sim.executor.forward_warm.<model>`, `sim.llm.lm_step`,
/// `pcm.program_codes` and `photonics.run_normalized_batch` spans.
pub fn run(seed: u64, tracer: &mut Tracer) -> ProbeCounts {
    let probe = tracer.open("loadgen.layer_probe", None);
    let counts = forwards(seed, tracer, probe);
    decode_steps(seed, tracer, probe);
    pcm_program(seed, tracer, probe);
    crossbar_mvm(seed, tracer, probe);
    tracer.close(probe);
    counts
}

fn forwards(seed: u64, tracer: &mut Tracer, parent: Option<usize>) -> ProbeCounts {
    let mut counts = ProbeCounts::default();
    for (m, spec) in catalog::stock_catalog().into_iter().enumerate() {
        let input = synthetic::activations(spec.network.input(), 6, request_seed(seed, m as u64));
        let cold_name = format!("sim.executor.forward_cold.{}", spec.name);
        for repeat in 0..COLD_REPEATS {
            let fresh = DeviceExecutor::new(device());
            let forward = tracer
                .time(&cold_name, parent, || {
                    fresh.forward(&spec.network, &input, &spec.filters)
                })
                .expect("catalog models execute");
            if repeat == 0 {
                for stats in forward.layers.iter().filter_map(|l| l.stats.as_ref()) {
                    counts.tiles_programmed += stats.tiles as u64;
                    counts.cells_programmed += stats.cells_programmed as u64;
                }
            }
        }
        let warm = DeviceExecutor::new(device());
        warm.prewarm(&spec.network, &spec.filters);
        let _ = warm.forward(&spec.network, &input, &spec.filters);
        let warm_name = format!("sim.executor.forward_warm.{}", spec.name);
        for _ in 0..WARM_REPEATS {
            let forward = tracer.time(&warm_name, parent, || {
                warm.forward(&spec.network, black_box(&input), &spec.filters)
            });
            black_box(forward.expect("catalog models execute"));
        }
    }
    counts
}

fn decode_steps(seed: u64, tracer: &mut Tracer, parent: Option<usize>) {
    let spec = catalog::llm_tiny();
    let weights = spec
        .lm
        .as_ref()
        .expect("llm_tiny carries transformer weights");
    let executor = DeviceExecutor::new(device());
    executor.prewarm(&spec.network, &spec.filters);
    for s in 0..LM_SEQUENCES {
        let mut cache = KvCache::new(&weights.config);
        let mut token = (request_seed(seed, s as u64) % weights.config.vocab as u64) as u32;
        for pos in 0..LM_STEPS {
            let outcome = tracer
                .time("sim.llm.lm_step", parent, || {
                    lm_step(
                        &executor,
                        &spec.network,
                        &spec.filters,
                        weights,
                        &cache,
                        token,
                        pos,
                    )
                })
                .expect("a healthy executor decodes");
            cache.apply(&outcome);
            token = outcome.next_token;
        }
    }
}

/// One 128×128 block of level codes drawn from `seed`.
fn codes(seed: u64, max_code: u64) -> Vec<Vec<u8>> {
    (0..TILE)
        .map(|i| {
            (0..TILE)
                .map(|j| (request_seed(seed, (i * TILE + j) as u64) % (max_code + 1)) as u8)
                .collect()
        })
        .collect()
}

fn pcm_program(seed: u64, tracer: &mut Tracer, parent: Option<usize>) {
    let pristine = PcmArray::pristine(TILE, TILE);
    let max_code = u64::from(pristine.level_table().max_code());
    let block = codes(seed, max_code);
    for _ in 0..KERNEL_REPEATS {
        // Programming a pristine copy writes every changed cell; a
        // reprogram of the same codes would be free under delta
        // programming.
        let mut array = pristine.clone();
        let report = tracer.time("pcm.program_codes", parent, || {
            array.program_codes(black_box(&block), Parallelism::FullArray)
        });
        black_box(report);
    }
}

/// The crossbar the noisy device compiles for one tile: phase errors,
/// trimming and compensated losses as in [`device`].
fn noisy_crossbar(seed: u64) -> CrossbarSimulator {
    let noise = device().noise;
    let mut config = CrossbarConfig::new(TILE, TILE)
        .with_phase_error_sigma(noise.phase_sigma_rad)
        .with_phase_error_seed(seed)
        .with_trim_resolution(noise.trim_resolution_rad);
    if noise.with_losses {
        config = config.with_losses(true).with_path_loss_compensation(true);
    }
    CrossbarSimulator::new(config)
}

fn crossbar_mvm(seed: u64, tracer: &mut Tracer, parent: Option<usize>) {
    let sim = noisy_crossbar(seed);
    let unit = |k: u64| (request_seed(seed ^ 0x3c3c, k) % 64) as f64 / 63.0;
    let weights: Vec<Vec<f64>> = (0..TILE)
        .map(|i| (0..TILE).map(|j| unit((i * TILE + j) as u64)).collect())
        .collect();
    let compiled = CompiledCrossbar::new(&sim, &weights);
    let drives: Vec<f64> = (0..MVM_WINDOWS * TILE)
        .map(|k| unit(1 << 20 | k as u64))
        .collect();
    let mut out = vec![0.0; MVM_WINDOWS * TILE];
    for _ in 0..KERNEL_REPEATS {
        tracer.time("photonics.run_normalized_batch", parent, || {
            compiled.run_normalized_batch(black_box(&drives), &mut out);
        });
        black_box(&out);
    }
}

/// Multiply-accumulates per 128×128 window: one per cell.
pub const MVM_MACS_PER_WINDOW: usize = TILE * TILE;

/// Bytes one window moves through the kernel, computed from tensor
/// sizes: the complex gain matrix (two `f64` planes) read once per call
/// and shared by its windows, plus the window's drive and output
/// vectors.
pub const MVM_BYTES_PER_WINDOW: usize = TILE * TILE * 2 * 8 / MVM_WINDOWS + 2 * TILE * 8;
