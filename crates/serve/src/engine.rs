//! The serving engine: a submission queue, the dynamic batcher, and a
//! deterministic parallel scheduler over a cluster of chips.

use crate::batcher::{form_batches, route_rounds, Batch, BatchPolicy};
use crate::cluster::{
    AdmitError, ChipHealth, ChipId, ChipStats, Cluster, ModelCacheStats, ModelSpec, PlacementPolicy,
};
use crate::request::{Completion, InferRequest, ModelId, RequestId, SequenceId, TokenCompletion};
use oxbar_core::dse::parallel_map;
use oxbar_nn::reference::Tensor3;
use oxbar_nn::transformer::{KvCache, StepOutcome};
use oxbar_nn::TensorShape;
use oxbar_sim::llm::lm_step;
use oxbar_sim::{DeviceExecutor, ExecError, FaultEvent, FaultPlan, InjectedFault, SimConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How many times one request's execute retries through transient tile
/// faults before the batch escalates to failover.
const MAX_TILE_RETRIES: usize = 3;

/// Runs `attempt` until it succeeds, retrying in place through transient
/// tile faults at most [`MAX_TILE_RETRIES`] times. Any other error, or a
/// transient past the bound, propagates.
fn retry_transient<T>(mut attempt: impl FnMut() -> Result<T, ExecError>) -> Result<T, ExecError> {
    let mut retries = 0;
    loop {
        match attempt() {
            Err(ExecError::TileFault { .. }) if retries < MAX_TILE_RETRIES => retries += 1,
            result => return result,
        }
    }
}

/// Hard per-sequence cap on decode steps, so a hostile `Generate` cannot
/// pin the engine in an unbounded token loop.
pub const MAX_SEQUENCE_STEPS: usize = 1024;

/// Tiles one drain plans for recalibration per chip — bounds the total
/// off-path reprogramming a single drain commits to.
const MAX_RECALS_PER_DRAIN: usize = 16;

/// Tiles one recalibration stage reprograms per chip per round, so the
/// stage stays shorter than the round it hides behind.
const MAX_RECAL_TILES_PER_ROUND: usize = 4;

/// Full configuration of a [`ServeEngine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Device configuration every admitted model's executor derives from
    /// (per-model seeds are mixed in at admission).
    pub device: SimConfig,
    /// How the batcher coalesces the queue.
    pub policy: BatchPolicy,
    /// Global weight-stationary budget, in crossbar cells, shared by all
    /// admitted models (the hardware's finite PCM tile capacity).
    pub cache_budget_cells: usize,
    /// Worker threads for batch dispatch (0 = all cores, 1 = serial).
    /// Results are byte-identical regardless of the worker count.
    pub workers: usize,
    /// Pipelined tile programming: while a batch round executes, a
    /// scheduler stage prewarms the tile cache of the next distinct model
    /// in the queue, so a model switch no longer stalls its first batch
    /// on PCM programming. Outputs and eviction sequences are identical
    /// with it on or off — the stage is skipped whenever prewarming could
    /// not fit the global cell budget.
    pub prewarm: bool,
    /// Drift-aware online recalibration: when the device config ages
    /// resident tiles ([`oxbar_sim::NoiseModel::drift_tick`] and a drift
    /// exponent both non-zero), the scheduler reprograms the oldest
    /// tiles that crossed the accuracy budget back to fresh-program
    /// state, off the critical path, during the same stage slots the
    /// prewarmer uses. Decisions are keyed on the global dispatch
    /// counter at single-threaded drain boundaries — never wall clock —
    /// so outputs, eviction sequences, and stats are byte-identical
    /// across worker counts; with aging disabled the flag is
    /// structurally inert (on or off, nothing changes). On by default.
    pub recalibration: bool,
    /// Per-chip weight-stationary budgets, in cells. Empty (the default)
    /// means a single chip of `cache_budget_cells` — the pre-cluster
    /// configuration, byte-identical to it. With two or more entries the
    /// engine serves a multi-chip [`Cluster`]: models place onto chips at
    /// admission, rounds route across chips, and over-budget chips
    /// migrate models to siblings before evicting.
    pub chip_budgets: Vec<usize>,
    /// How admitted models place onto chips (ignored on a single chip).
    pub placement: PlacementPolicy,
    /// Deterministic fault schedule, keyed on the engine's global batch
    /// dispatch counter: an event with round `r` lands just before the
    /// `r`-th batch dispatched since engine creation. Keying on dispatch
    /// sequence — never wall clock — keeps failover, shedding, and
    /// recovery decisions byte-identical across worker counts. Empty by
    /// default: a no-fault engine is byte-identical to one without this
    /// field.
    pub fault_plan: FaultPlan,
    /// Ticks of schedule slip a failed-over batch is charged when the
    /// deadline shedder decides whether a re-routed request can still
    /// make its deadline: a member is shed iff its deadline precedes the
    /// batch's latest arrival plus this penalty. Applies **only** to
    /// batches re-routed off a failed chip — no-fault scheduling never
    /// sheds. The default of 0 sheds only requests that provably could
    /// not complete (deadline before arrival).
    pub failover_penalty: u64,
}

impl ServeConfig {
    /// A serving configuration with the default batching policy (batches
    /// of up to 16 within an 8-tick window), the simulator's 4M-cell
    /// weight-stationary budget, and serial dispatch.
    #[must_use]
    pub fn new(device: SimConfig) -> Self {
        Self {
            device,
            policy: BatchPolicy::new(16, 8),
            cache_budget_cells: 4_000_000,
            workers: 1,
            prewarm: true,
            recalibration: true,
            chip_budgets: Vec::new(),
            placement: PlacementPolicy::FirstFit,
            fault_plan: FaultPlan::new(),
            failover_penalty: 0,
        }
    }

    /// Overrides the batching policy.
    #[must_use]
    pub fn with_policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the global weight-stationary cell budget.
    #[must_use]
    pub fn with_cache_budget(mut self, cells: usize) -> Self {
        self.cache_budget_cells = cells;
        self
    }

    /// Overrides the dispatch worker count (0 = all cores, 1 = serial).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables/disables the pipelined prewarm stage (on by default).
    #[must_use]
    pub fn with_prewarm(mut self, prewarm: bool) -> Self {
        self.prewarm = prewarm;
        self
    }

    /// Enables/disables drift-aware online recalibration (on by
    /// default; inert unless the device config ages tiles).
    #[must_use]
    pub fn with_recalibration(mut self, recalibration: bool) -> Self {
        self.recalibration = recalibration;
        self
    }

    /// Serves a multi-chip cluster with the given per-chip cell budgets
    /// (an empty list falls back to one chip of the global budget).
    #[must_use]
    pub fn with_chips(mut self, chip_budgets: Vec<usize>) -> Self {
        self.chip_budgets = chip_budgets;
        self
    }

    /// Overrides the model→chip placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Schedules a deterministic fault plan (empty by default).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Overrides the failover deadline penalty, in ticks.
    #[must_use]
    pub fn with_failover_penalty(mut self, ticks: u64) -> Self {
        self.failover_penalty = ticks;
        self
    }

    /// The effective per-chip budgets: `chip_budgets`, or one chip of
    /// `cache_budget_cells` when empty.
    #[must_use]
    pub fn effective_chip_budgets(&self) -> Vec<usize> {
        if self.chip_budgets.is_empty() {
            vec![self.cache_budget_cells]
        } else {
            self.chip_budgets.clone()
        }
    }
}

/// Aggregate serving statistics since engine creation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Requests completed across all drains.
    pub requests: u64,
    /// Batches dispatched across all drains.
    pub batches: u64,
    /// Whole-model cache evictions forced by the global budget.
    pub evictions: u64,
    /// Pipelined prewarm stages dispatched (one per round that had a
    /// budget-safe next-model target).
    pub prewarms: u64,
    /// Tiles programmed + compiled off the critical path by those stages.
    pub prewarmed_tiles: u64,
    /// Summed cache occupancy across models, in cells.
    pub occupancy_cells: usize,
    /// The global cell budget.
    pub budget_cells: usize,
    /// Per-model tile-cache statistics, in admission order.
    pub models: Vec<ModelCacheStats>,
    /// Cross-chip model migrations (snapshot-based moves an over-budget
    /// chip made instead of evicting; always 0 on a single chip).
    pub migrations: u64,
    /// Per-chip statistics, in chip-index order (one entry on a
    /// single-chip engine).
    pub chips: Vec<ChipStats>,
    /// Fault-driven re-executions: transient tile-fault retries plus
    /// batches re-routed off a failed chip (each re-route counts once).
    pub retries: u64,
    /// Requests shed instead of served — re-routed members whose
    /// deadline could not survive the failover penalty, or members with
    /// no healthy chip left to run on. Shed requests complete with a
    /// structured notice, never silently.
    pub sheds: u64,
    /// Models recovered by snapshot/restore after losing every serving
    /// residency (the PCM-non-volatility path).
    pub recoveries: u64,
    /// Total wall-clock milliseconds spent inside those recoveries
    /// (observational only; nothing branches on it).
    pub recovery_ms: f64,
    /// Autoregressive sequences begun (finished or not).
    pub sequences: u64,
    /// Decode-step tokens emitted across all sequences.
    pub tokens: u64,
    /// Recalibration stages planned (one per chip per drain that had
    /// over-budget tiles to reprogram).
    pub recalibrations: u64,
    /// Tiles reprogrammed back to fresh-program state by those stages.
    pub recalibrated_tiles: u64,
    /// Chips promoted to [`ChipHealth::Degraded`] by the drift health
    /// monitor (one per Healthy→Degraded transition, not per tile).
    pub drift_budget_breaches: u64,
    /// Degraded→Healthy transitions made by the drift heal pass once a
    /// chip's resident tiles were all recalibrated back under budget.
    pub drift_heals: u64,
    /// Prewarm/recalibration stage threads that panicked. A panicked
    /// stage is skipped — its work was advisory — and serving continues.
    pub stage_panics: u64,
}

impl EngineStats {
    /// Tile-level cache hit rate aggregated over every model.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.models.iter().fold((0u64, 0u64), |(h, m), s| {
            (h + s.cache.hits, m + s.cache.misses)
        });
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Mean requests per dispatched batch.
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// Why [`ServeEngine::try_submit`] refused a request.
///
/// Submission rejection is *structured*, never a panic: the serving edge
/// hands untrusted client input to the engine, and a misbehaving client
/// must not be able to crash it. Note that an out-of-order arrival tick
/// is deliberately **not** an error — concurrent network connections
/// routinely deliver non-monotonic ticks, so admission orders the queue
/// by arrival instead (see [`ServeEngine::try_submit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The request names a model this engine never admitted.
    UnknownModel(ModelId),
    /// The input tensor's shape does not match the model's input layer.
    ShapeMismatch {
        /// The model the request targeted.
        model: ModelId,
        /// The shape the model's input layer requires.
        expected: TensorShape,
        /// The shape the request carried.
        got: TensorShape,
    },
    /// The input tensor is internally inconsistent: its data length does
    /// not equal its shape's element count (possible only for tensors
    /// deserialized from an untrusted wire payload — in-process
    /// construction validates on [`oxbar_nn::reference::Tensor3::new`]).
    MalformedTensor {
        /// Elements the declared shape requires.
        expected: usize,
        /// Data values actually carried.
        got: usize,
    },
    /// A sequence operation targeted a model that is not an
    /// autoregressive language model ([`ModelSpec::lm`] is `None`).
    NotLanguageModel(ModelId),
    /// The prompt token is outside the model's vocabulary.
    BadToken {
        /// The model the sequence targeted.
        model: ModelId,
        /// The offending token.
        token: u32,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// The requested decode-step count is zero or above
    /// [`MAX_SEQUENCE_STEPS`].
    BadSteps {
        /// The step count the request carried.
        steps: usize,
        /// The per-sequence cap.
        max: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownModel(model) => write!(f, "unknown model {model:?}"),
            Self::ShapeMismatch {
                model,
                expected,
                got,
            } => write!(
                f,
                "input shape must match the model: {model:?} expects {expected}, got {got}"
            ),
            Self::MalformedTensor { expected, got } => write!(
                f,
                "malformed tensor: shape declares {expected} elements, data carries {got}"
            ),
            Self::NotLanguageModel(model) => {
                write!(f, "model {model:?} is not a language model")
            }
            Self::BadToken {
                model,
                token,
                vocab,
            } => write!(
                f,
                "token {token} outside the {vocab}-token vocabulary of {model:?}"
            ),
            Self::BadSteps { steps, max } => {
                write!(f, "sequence steps must be in 1..={max}, got {steps}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Everything one [`ServeEngine::drain_traced`] call observed: the
/// completions, each batch's measured wall time, and the dispatch rounds
/// the scheduler actually ran — the inputs
/// [`crate::loadgen::replay_latencies`] needs to replay the concurrent
/// queueing timeline faithfully.
#[derive(Debug, Clone)]
pub struct DrainTrace {
    /// One completion per request, in dispatch order.
    pub completions: Vec<Completion>,
    /// Measured wall-clock execution time of each batch (ms), indexed by
    /// `batch_seq`.
    pub batch_ms: Vec<f64>,
    /// The dispatch rounds: `rounds[k]` holds the `batch_seq` values that
    /// executed concurrently in round `k` (ascending). Every batch
    /// appears in exactly one round.
    pub rounds: Vec<Vec<usize>>,
    /// Requests shed by the fault handler instead of completed, in
    /// dispatch order. Empty on a no-fault drain. Every queued request
    /// lands in exactly one of `completions` or `sheds` — nothing is
    /// silently lost.
    pub sheds: Vec<ShedNotice>,
}

/// A request the engine shed instead of served: its batch was re-routed
/// off a failed chip and the member either could not meet its deadline
/// under the failover penalty or had no healthy chip left to run on.
///
/// The notice carries everything the serving edge needs to answer the
/// client explicitly — shedding is a structured completion, never a
/// hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedNotice {
    /// The request that was shed.
    pub id: RequestId,
    /// The model it targeted.
    pub model: ModelId,
    /// Its arrival tick.
    pub arrival: u64,
    /// Its advisory deadline, if any.
    pub deadline: Option<u64>,
    /// Human-readable reason for the shed.
    pub detail: String,
}

struct Queued {
    id: RequestId,
    request: InferRequest,
    /// Set when this queue entry is one decode step of an autoregressive
    /// sequence (index into `ServeEngine::sequences`); the entry then
    /// executes as an [`lm_step`] against the sequence's KV cache instead
    /// of a network forward.
    sequence: Option<u64>,
}

/// One live autoregressive generation session. Exactly one decode step
/// per sequence is ever queued or in flight: step `t + 1` enters the
/// queue only when step `t`'s completion is absorbed, so the KV cache an
/// executing step reads is always settled.
struct Sequence {
    model: ModelId,
    cache: KvCache,
    /// Steps completed so far (= the position the next step decodes at).
    pos: usize,
    /// Total decode steps this sequence runs.
    steps: usize,
    /// The token the next step feeds (the prompt, then each emitted
    /// token).
    next_token: u32,
    /// Ticks between successive token arrivals.
    interval: u64,
    /// Arrival tick of the next step to enqueue.
    next_arrival: u64,
    /// Every token emitted so far, in order — the sequence's output
    /// stream.
    tokens: Vec<u32>,
    /// No further steps will run (completed or shed).
    finished: bool,
    /// The fault handler shed a step mid-sequence (terminates the
    /// sequence: later steps would decode against a hole in the cache).
    shed: bool,
}

/// One executed batch member: the completion plus, for a token step, the
/// device outcome the serial completion loop applies to the sequence
/// (KV-cache append, next-token advance, next-step submission).
struct Executed {
    completion: Completion,
    outcome: Option<(u64, StepOutcome)>,
}

/// Where a batch executes, as resolved by the drain-start fault walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FateChip {
    /// Execute on this cluster chip.
    Fixed(usize),
    /// Execute wherever the model currently resides — used after a
    /// snapshot recovery, whose destination chip is picked at run time.
    Primary,
    /// Every member is shed; nothing executes.
    Shed,
}

/// One drain's planned recalibration work for one chip: the tiles whose
/// programming age the drain boundary already reset, still awaiting
/// their eager reprogram in a stage slot.
struct RecalPlan {
    chip: usize,
    tiles: Vec<(ModelId, usize, usize)>,
}

/// One round's slice of a chip's recalibration plan: `(chip, tiles)`.
type RecalChunk = (usize, Vec<(ModelId, usize, usize)>);

/// The fault plan's verdict for one batch.
///
/// Fates are computed in global dispatch-sequence order before any round
/// runs, from the fault plan alone — so which chip serves a batch, which
/// members are shed, and where recoveries happen are pure functions of
/// the trace and the plan, identical for every worker count.
struct BatchFate {
    chip: FateChip,
    /// Queue slots (batch members) shed by the deadline rule, ascending.
    shed: Vec<usize>,
    /// The failed chip this batch was re-routed away from, if any.
    failed_from: Option<usize>,
    /// The batch absorbs one armed transient tile fault: its first
    /// execute fails once and retries in place, byte-identically.
    transient: bool,
    /// Snapshot-recover the model before this batch runs.
    recover: bool,
}

/// A deterministic, multi-model, batched inference engine over the
/// device-level simulator.
///
/// The life of a request: [`ServeEngine::submit`] appends it to the
/// queue; [`ServeEngine::drain`] coalesces the queue into same-model
/// batches ([`form_batches`]), dispatches batch rounds across workers
/// with the order-preserving [`parallel_map`], executes every request on
/// its model's weight-stationary [`oxbar_sim::DeviceExecutor`], and
/// enforces the global cell budget between rounds (LRU whole-model
/// eviction).
///
/// # Determinism
///
/// Outputs are byte-identical across worker counts and batching policies
/// because every stochastic quantity is pinned to a stable key, never to
/// execution order: a model's PCM programming and phase noise derive from
/// its admission seed ([`oxbar_sim::config::tile_seed`] per tile), and a
/// trace's inputs derive from per-request seeds
/// ([`crate::request::request_seed`]). Caching and eviction change only
/// *work*, not results, so a concurrent drain equals a serial replay of
/// the same trace — the property `crates/serve/tests/determinism.rs`
/// pins down.
///
/// # Examples
///
/// ```
/// use oxbar_serve::{catalog, ServeConfig, ServeEngine};
/// use oxbar_sim::SimConfig;
/// use oxbar_nn::synthetic;
///
/// let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
/// let model = engine.admit(catalog::lenet5_model()).unwrap();
/// let input = synthetic::activations(engine.input_shape(model), 6, 1);
/// engine.submit_simple(model, input);
/// let done = engine.drain();
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].output.shape().elements(), 10);
/// ```
pub struct ServeEngine {
    config: ServeConfig,
    registry: Cluster,
    queue: Vec<Queued>,
    next_id: u64,
    requests: u64,
    batches: u64,
    prewarms: u64,
    prewarmed_tiles: u64,
    retries: u64,
    sheds: u64,
    /// Next fault-plan round (global dispatch sequence number) the fate
    /// walk has not consumed yet.
    fault_cursor: u64,
    /// Transient tile faults armed on each chip but not yet absorbed by
    /// a batch (events can outpace a chip's traffic within one drain).
    pending_transients: Vec<u64>,
    /// Every sequence ever begun, indexed by [`SequenceId`].
    sequences: Vec<Sequence>,
    /// Decode steps completed across all sequences.
    tokens: u64,
    /// Recalibration stages planned across all drains.
    recalibrations: u64,
    /// Tiles reprogrammed back to baseline by those stages.
    recalibrated_tiles: u64,
    /// Healthy→Degraded promotions by the drift health monitor.
    drift_budget_breaches: u64,
    /// Degraded→Healthy transitions by the drift heal pass.
    drift_heals: u64,
    /// Stage threads (prewarm or recal) that panicked and were skipped.
    stage_panics: u64,
    /// The accuracy budget in dispatch ticks, fixed by the device
    /// config at construction (`None` = aging inactive or unbounded —
    /// either way the drift machinery is structurally inert).
    drift_budget_ticks: Option<u64>,
}

impl ServeEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        let budgets = config.effective_chip_budgets();
        let registry = Cluster::new(config.device.clone(), &budgets, config.placement);
        let drift_budget_ticks = DeviceExecutor::new(config.device.clone()).drift_budget_ticks();
        Self {
            config,
            registry,
            queue: Vec::new(),
            next_id: 0,
            requests: 0,
            batches: 0,
            prewarms: 0,
            prewarmed_tiles: 0,
            retries: 0,
            sheds: 0,
            fault_cursor: 0,
            pending_transients: vec![0; budgets.len()],
            sequences: Vec::new(),
            tokens: 0,
            recalibrations: 0,
            recalibrated_tiles: 0,
            drift_budget_breaches: 0,
            drift_heals: 0,
            stage_panics: 0,
            drift_budget_ticks,
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Admits a model into the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitError`] for residual networks or filter banks that
    /// do not cover the network.
    pub fn admit(&mut self, spec: ModelSpec) -> Result<ModelId, AdmitError> {
        self.registry.admit(spec)
    }

    /// Admits a model only if some chip has committed room for its full
    /// weight-stationary footprint — the admission-control variant the
    /// network server uses, so a catalog can never be oversubscribed past
    /// the cluster's cell budgets at admission time.
    ///
    /// # Errors
    ///
    /// Everything [`Self::admit`] returns, plus
    /// [`AdmitError::Capacity`] when no chip can commit the model.
    pub fn admit_strict(&mut self, spec: ModelSpec) -> Result<ModelId, AdmitError> {
        self.registry.admit_strict(spec)
    }

    /// The input tensor shape requests for `id` must carry.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this engine.
    #[must_use]
    pub fn input_shape(&self, id: ModelId) -> oxbar_nn::TensorShape {
        self.registry.input_shape(id)
    }

    /// The model cluster (for reports and catalog introspection). On a
    /// default configuration this is a single-chip cluster.
    #[must_use]
    pub fn registry(&self) -> &Cluster {
        &self.registry
    }

    /// Enqueues a request, returning its [`RequestId`], or a structured
    /// [`SubmitError`] for a request the engine cannot serve.
    ///
    /// Admission keeps the queue ordered by arrival tick: a request whose
    /// tick precedes already-queued ones is *inserted in order* (after
    /// every queued request with an equal-or-earlier tick, so equal ticks
    /// keep submission order). Concurrent connections routinely deliver
    /// non-monotonic ticks — ordered insertion makes that a non-event
    /// instead of the panic it used to be, and the batcher's
    /// non-decreasing-arrival precondition holds by construction.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownModel`] for a model id this engine never
    /// admitted, [`SubmitError::ShapeMismatch`] when the input tensor's
    /// shape differs from the model's input layer, and
    /// [`SubmitError::MalformedTensor`] when the tensor's data length
    /// contradicts its own declared shape (possible only for tensors that
    /// bypassed [`oxbar_nn::reference::Tensor3::new`], e.g. wire
    /// deserialization).
    pub fn try_submit(&mut self, request: InferRequest) -> Result<RequestId, SubmitError> {
        if request.model.0 >= self.registry.len() {
            return Err(SubmitError::UnknownModel(request.model));
        }
        let expected = self.registry.input_shape(request.model);
        let got = request.input.shape();
        if got != expected {
            return Err(SubmitError::ShapeMismatch {
                model: request.model,
                expected,
                got,
            });
        }
        if request.input.data().len() != expected.elements() {
            return Err(SubmitError::MalformedTensor {
                expected: expected.elements(),
                got: request.input.data().len(),
            });
        }
        Ok(self.enqueue(request, None))
    }

    /// Appends a validated request to the queue in arrival order.
    fn enqueue(&mut self, request: InferRequest, sequence: Option<u64>) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let pos = self
            .queue
            .partition_point(|q| q.request.arrival <= request.arrival);
        self.queue.insert(
            pos,
            Queued {
                id,
                request,
                sequence,
            },
        );
        id
    }

    /// Begins an autoregressive generation sequence: `steps` greedy
    /// decode steps starting from `prompt`, the first arriving at
    /// `arrival` and each subsequent token `interval` ticks after the
    /// previous one completes. Token steps ride the ordinary queue — they
    /// batch with CNN traffic, route across chips, retry through
    /// transient faults, and fail over to replicas like any request — but
    /// step `t + 1` is submitted only when step `t` completes, so one
    /// sequence is a long-lived chain of requests rather than a burst.
    ///
    /// Token steps carry no deadline: a generation session is an open
    /// stream, not a deadline-bound query, so the failover shedder never
    /// drops one unless *no* healthy chip remains.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownModel`] for an unadmitted model,
    /// [`SubmitError::NotLanguageModel`] when the model has no
    /// transformer weights, [`SubmitError::BadSteps`] for a zero or
    /// over-cap step count, and [`SubmitError::BadToken`] for a prompt
    /// outside the vocabulary.
    pub fn begin_sequence(
        &mut self,
        model: ModelId,
        prompt: u32,
        steps: usize,
        arrival: u64,
        interval: u64,
    ) -> Result<SequenceId, SubmitError> {
        if model.0 >= self.registry.len() {
            return Err(SubmitError::UnknownModel(model));
        }
        let spec = self.registry.spec(model);
        let Some(weights) = spec.lm.as_ref() else {
            return Err(SubmitError::NotLanguageModel(model));
        };
        if steps == 0 || steps > MAX_SEQUENCE_STEPS {
            return Err(SubmitError::BadSteps {
                steps,
                max: MAX_SEQUENCE_STEPS,
            });
        }
        let vocab = weights.config.vocab;
        if prompt as usize >= vocab {
            return Err(SubmitError::BadToken {
                model,
                token: prompt,
                vocab,
            });
        }
        let cache = KvCache::new(&weights.config);
        let seq_id = self.sequences.len() as u64;
        self.sequences.push(Sequence {
            model,
            cache,
            pos: 0,
            steps,
            next_token: prompt,
            interval,
            next_arrival: arrival,
            tokens: Vec::new(),
            finished: false,
            shed: false,
        });
        self.enqueue(token_request(model, prompt, arrival), Some(seq_id));
        Ok(SequenceId(seq_id))
    }

    /// The tokens sequence `id` has emitted so far, in decode order.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this engine.
    #[must_use]
    pub fn sequence_tokens(&self, id: SequenceId) -> &[u32] {
        &self.sequences[usize::try_from(id.0).expect("sequence id fits usize")].tokens
    }

    /// Whether sequence `id` has finished (completed every step, or was
    /// terminated by the fault handler — see [`Self::sequence_shed`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this engine.
    #[must_use]
    pub fn sequence_finished(&self, id: SequenceId) -> bool {
        self.sequences[usize::try_from(id.0).expect("sequence id fits usize")].finished
    }

    /// Whether the fault handler shed a step of sequence `id`,
    /// terminating it early.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this engine.
    #[must_use]
    pub fn sequence_shed(&self, id: SequenceId) -> bool {
        self.sequences[usize::try_from(id.0).expect("sequence id fits usize")].shed
    }

    /// Enqueues a request, returning its [`RequestId`].
    ///
    /// Infallible wrapper over [`Self::try_submit`] for in-process
    /// callers that construct requests from their own admitted ids.
    /// Out-of-order arrival ticks are fine — they insert in order.
    ///
    /// # Panics
    ///
    /// Panics if the model id is unknown or the input shape does not
    /// match the model (a caller bug; network edges use
    /// [`Self::try_submit`] and report [`SubmitError`] on the wire).
    pub fn submit(&mut self, request: InferRequest) -> RequestId {
        match self.try_submit(request) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Enqueues a request with no deadline, arriving at the same tick as
    /// the last queued request (tick 0 on an empty queue) — handy when
    /// the caller drives the engine round by round.
    pub fn submit_simple(
        &mut self,
        model: ModelId,
        input: oxbar_nn::reference::Tensor3,
    ) -> RequestId {
        let arrival = self.queue.last().map_or(0, |q| q.request.arrival);
        self.submit(InferRequest {
            model,
            input,
            arrival,
            deadline: None,
        })
    }

    /// Requests currently queued (submitted but not yet drained).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Processes the whole queue: forms batches, dispatches them in
    /// rounds of `workers`, enforces the cache budget between rounds, and
    /// returns one [`Completion`] per request in dispatch order (batch by
    /// batch; ascending [`RequestId`] within a batch).
    ///
    /// Dispatch order is a pure function of the queue and the policy;
    /// outputs are byte-identical for any worker count.
    pub fn drain(&mut self) -> Vec<Completion> {
        self.drain_timed().0
    }

    /// Like [`Self::drain`], additionally returning each batch's measured
    /// wall-clock execution time in milliseconds, indexed by `batch_seq`.
    ///
    /// The timings are observational only — nothing in the engine branches
    /// on them, so outputs stay deterministic. Feed them to
    /// [`crate::loadgen::replay_latencies`] to recover per-request
    /// latencies under a tick schedule.
    ///
    /// A batch's time measures its *execution* — window dedupe, batched
    /// MVMs, readout, accumulation. With the pipelined scheduler on
    /// ([`ServeConfig::prewarm`]), PCM programming for upcoming models
    /// runs on a concurrent prewarm stage and is deliberately not part of
    /// any batch's execution time (that is the point of the pipeline:
    /// programming leaves the serving critical path). Callers that want
    /// the end-to-end figure including off-path programming should time
    /// the whole drain call.
    pub fn drain_timed(&mut self) -> (Vec<Completion>, Vec<f64>) {
        let trace = self.drain_traced();
        (trace.completions, trace.batch_ms)
    }

    /// Like [`Self::drain_timed`], additionally returning the dispatch
    /// rounds the scheduler ran — which batches executed concurrently.
    ///
    /// The rounds are what make a latency replay honest: batches in one
    /// round run *in parallel* (via [`parallel_map`] across the worker
    /// pool), so a serial sum of their wall times overstates the
    /// pipeline's occupancy. Feed `rounds` to
    /// [`crate::loadgen::replay_latencies`].
    ///
    /// A drain runs **to idle**: completing one decode step of a
    /// sequence submits the next, so the scheduler keeps making passes
    /// over the regrown queue until no request — CNN or token — remains.
    /// Passes merge into one trace with continuous `batch_seq` numbering.
    pub fn drain_traced(&mut self) -> DrainTrace {
        let mut trace = self.drain_pass();
        while !self.queue.is_empty() {
            let more = self.drain_pass();
            let offset = trace.batch_ms.len();
            trace
                .completions
                .extend(more.completions.into_iter().map(|mut c| {
                    c.batch_seq += offset;
                    c
                }));
            trace.batch_ms.extend(more.batch_ms);
            trace.rounds.extend(
                more.rounds
                    .into_iter()
                    .map(|round| round.into_iter().map(|seq| seq + offset).collect()),
            );
            trace.sheds.extend(more.sheds);
        }
        trace
    }

    /// One scheduler pass over the current queue (the pre-sequence
    /// `drain_traced` body): batch, route, execute, enforce budgets.
    /// Token-step completions may submit follow-up requests — the
    /// [`Self::drain_traced`] loop picks those up in the next pass.
    fn drain_pass(&mut self) -> DrainTrace {
        let queue = std::mem::take(&mut self.queue);
        let keys: Vec<(ModelId, u64)> = queue
            .iter()
            .map(|q| (q.request.model, q.request.arrival))
            .collect();
        let batches = form_batches(&keys, self.config.policy);
        let workers = effective_workers(self.config.workers);
        let mut completions = Vec::with_capacity(queue.len());
        let mut timings = vec![0.0; batches.len()];
        let mut shed_notices: Vec<ShedNotice> = Vec::new();
        let round_size = workers.max(1);
        let seq_base = self.batches;
        // Drift bookkeeping at the drain boundary (single-threaded):
        // the virtual tile clock advances to the global dispatch
        // counter — a pure function of the trace, identical for every
        // worker count — then chips recalibrated back under the
        // accuracy budget heal, chips whose resident tiles crossed it
        // degrade, and the drain's recalibration plan is fixed. The
        // plan marks its tiles immediately (resetting their programming
        // age), so the compiled state every later readout derives is
        // decided here; the stage work riding the rounds below only
        // moves the reprogramming off the critical path. With aging
        // disabled all four calls are structurally inert.
        self.registry.set_clocks(seq_base);
        self.drift_heal_pass();
        self.drift_monitor_pass();
        let mut recal_plans = self.plan_recalibration();
        // Resolve the fault plan into one fate per batch, in global
        // dispatch-sequence order: which chip serves it, whether it
        // absorbs a transient, which members are shed. Doing this before
        // any round runs makes every fault decision a pure function of
        // the trace and the plan — identical for every worker count.
        let (fates, leftover_transients) = self.plan_fates(&batches, &queue, seq_base);
        // Batches route into rounds chip-aware: each round prefers
        // batches on distinct chips, so concurrent workers drive
        // different arrays. Replicated models spread successive batches
        // across their replicas (the fate's chip); on one chip this is
        // exactly `batches.chunks(round_size)`.
        let rounds = route_rounds(&batches, round_size, |b: &Batch| match fates[b.seq].chip {
            FateChip::Fixed(c) => c,
            FateChip::Primary | FateChip::Shed => self.registry.chip_of(b.model).0,
        });
        let mut pending = vec![true; batches.len()];
        // Pipeline fill: program the first models' tiles before the first
        // round dispatches, so not even batch 0 stalls on programming.
        if self.config.prewarm {
            for target in self.prewarm_targets(&batches, &pending, &[]) {
                self.run_prewarm_stage(target);
            }
        }
        // A chip kill is staged across two single-threaded round
        // boundaries: routing, recovery, and stats see the failure as
        // soon as the first post-kill batch's round arrives (`marks`),
        // but its executors die only once every pre-kill batch has
        // drained (`injections`) — round minimum sequence numbers are
        // strictly increasing, so a pre-kill batch can never trail the
        // injection point.
        let mut mark_cursor = self.fault_cursor;
        let mut inject_cursor = self.fault_cursor;
        for round_indices in &rounds {
            for &i in round_indices {
                pending[i] = false;
            }
            let min_seq = seq_base + *round_indices.first().expect("rounds are non-empty") as u64;
            let max_seq = seq_base + *round_indices.last().expect("rounds are non-empty") as u64;
            self.apply_fault_marks(&mut mark_cursor, max_seq);
            self.apply_fault_injections(&mut inject_cursor, min_seq);
            // Recoveries and transient arming, in dispatch-sequence
            // order at this single-threaded boundary.
            for &i in round_indices {
                let fate = &fates[i];
                if fate.recover
                    && self
                        .registry
                        .serving_residencies(batches[i].model)
                        .is_empty()
                {
                    self.registry.recover(batches[i].model);
                }
                if fate.transient {
                    if let FateChip::Fixed(chip) = fate.chip {
                        if let Some(exec) =
                            self.registry.executor_on(batches[i].model, ChipId(chip))
                        {
                            exec.inject_fault(InjectedFault::TileTransient { layer: 0, tile: 0 });
                        }
                    }
                }
            }
            let round: Vec<&Batch> = round_indices.iter().map(|&i| &batches[i]).collect();
            let targets = if self.config.prewarm {
                self.prewarm_targets(&batches, &pending, &round)
            } else {
                Vec::new()
            };
            // The next slice of planned recalibration work (at most one
            // stage per chip per round). A chip that failed since the
            // plan was fixed has its pending recals dropped structurally
            // here — never dispatched, never retried.
            let recal_chunks = self.take_recal_chunks(&mut recal_plans);
            // The prewarm stages program upcoming models' tiles (at most
            // one stage per chip) while this round executes — concurrent
            // threads when the dispatch pool has more than one worker; on
            // a serial configuration the scheduler interleaves the stages
            // between rounds instead of oversubscribing the core. Either
            // way every stage completes before the round's
            // budget-enforcement point, so the cache state every eviction
            // decision sees is deterministic, and the per-chip budget
            // guard in `prewarm_targets` guarantees a stage can never
            // force an eviction that lazy compilation would not have.
            let concurrent = workers > 1;
            let registry = &self.registry;
            let fates_ref = &fates;
            let (executed, stage_results, recal_panics) = std::thread::scope(|scope| {
                let stages: Vec<_> = if concurrent {
                    targets
                        .iter()
                        .map(|&model| scope.spawn(move || registry.prewarm(model)))
                        .collect()
                } else {
                    Vec::new()
                };
                let recals: Vec<_> = if concurrent {
                    recal_chunks
                        .iter()
                        .map(|&(chip, ref tiles)| {
                            scope.spawn(move || Self::run_recal_chunk(registry, chip, tiles))
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                let executed = parallel_map(&round, workers, |_, batch| {
                    let start = std::time::Instant::now();
                    let done = self.execute_fated(batch, &queue, &fates_ref[batch.seq]);
                    (done, start.elapsed().as_secs_f64() * 1e3)
                });
                // A panicked stage is contained at its join: stage work
                // is advisory (a skipped prewarm or recal only costs
                // latency, never correctness), so the scheduler counts
                // the panic and keeps serving instead of unwinding.
                let stage_results: Vec<Option<usize>> =
                    stages.into_iter().map(|h| h.join().ok()).collect();
                let recal_panics: u64 = recals
                    .into_iter()
                    .map(|h| u64::from(h.join().is_err()))
                    .sum();
                (executed, stage_results, recal_panics)
            });
            self.stage_panics += recal_panics;
            if concurrent {
                for prewarmed in stage_results {
                    match prewarmed {
                        Some(prewarmed) => {
                            self.prewarms += 1;
                            self.prewarmed_tiles += prewarmed as u64;
                        }
                        None => self.stage_panics += 1,
                    }
                }
            } else {
                for target in targets {
                    self.run_prewarm_stage(target);
                }
                for (chip, tiles) in &recal_chunks {
                    Self::run_recal_chunk(&self.registry, *chip, tiles);
                }
            }
            for (batch, (result, ms)) in round.iter().zip(executed) {
                self.registry.touch(batch.model);
                timings[batch.seq] = ms;
                let fate = &fates[batch.seq];
                // Planned fault bookkeeping: a re-route charges one
                // retry to the failed chip; planned sheds complete with
                // a structured notice.
                if fate.transient {
                    if let FateChip::Fixed(chip) = fate.chip {
                        self.retries += 1;
                        self.registry.note_retry(ChipId(chip));
                    }
                }
                if let Some(from) = fate.failed_from {
                    // A re-route only counts as a retry if something
                    // actually re-executes.
                    if !matches!(fate.chip, FateChip::Shed) && fate.shed.len() < batch.members.len()
                    {
                        self.retries += 1;
                        self.registry.note_retry(ChipId(from));
                    }
                }
                if !fate.shed.is_empty() {
                    let chip = fate
                        .failed_from
                        .unwrap_or_else(|| self.registry.chip_of(batch.model).0);
                    let detail = if matches!(fate.chip, FateChip::Shed) {
                        format!("no healthy chip left after chip {chip} failed")
                    } else {
                        format!(
                            "deadline unreachable after chip {chip} failed \
                             (failover penalty {} ticks)",
                            self.config.failover_penalty
                        )
                    };
                    self.shed_members(batch, &queue, &fate.shed, chip, &detail, &mut shed_notices);
                }
                match result {
                    Ok(done) => self.absorb_executions(done, &mut completions),
                    Err(failed_chip) => {
                        // The planned chip refused execution — a kill
                        // landed ahead of the plan (e.g. on a recovery
                        // destination). Re-resolve serially: surviving
                        // replicas, then snapshot recovery, then shed.
                        let (done, extra_ms) = self.execute_with_failover(
                            batch,
                            &queue,
                            fate,
                            failed_chip,
                            &mut shed_notices,
                        );
                        timings[batch.seq] += extra_ms;
                        self.absorb_executions(done, &mut completions);
                    }
                }
            }
            self.registry.enforce_budget();
        }
        // Recal work the rounds did not reach (short drains) flushes
        // here, so every tile the plan marked is reprogrammed within its
        // drain — the eager/lazy split never changes the cache counters.
        self.flush_recal_plans(&recal_plans);
        // Catch up fault state the round walk did not reach (events at
        // the tail of the drain), so stats read between drains agree
        // with the plan.
        if let Some(last) = batches.len().checked_sub(1) {
            let last_seq = seq_base + last as u64;
            self.apply_fault_marks(&mut mark_cursor, last_seq);
            self.apply_fault_injections(&mut inject_cursor, last_seq);
            self.fault_cursor = last_seq + 1;
        }
        self.pending_transients = leftover_transients;
        self.requests += completions.len() as u64;
        self.batches += batches.len() as u64;
        DrainTrace {
            completions,
            batch_ms: timings,
            rounds,
            sheds: shed_notices,
        }
    }

    /// Resolves the fault plan into one [`BatchFate`] per batch, walking
    /// batches in global dispatch-sequence order. Returns the fates and
    /// the per-chip transient faults still armed after the walk.
    ///
    /// The walk is pure: it reads cluster state but mutates nothing, so
    /// the plan every round later executes is fixed before the first
    /// round runs.
    fn plan_fates(
        &self,
        batches: &[Batch],
        queue: &[Queued],
        seq_base: u64,
    ) -> (Vec<BatchFate>, Vec<u64>) {
        let chips = self.registry.chip_count();
        let mut failed: Vec<bool> = (0..chips)
            .map(|c| self.registry.chip_health(ChipId(c)) == ChipHealth::Failed)
            .collect();
        let mut degraded: Vec<bool> = (0..chips)
            .map(|c| self.registry.chip_health(ChipId(c)) == ChipHealth::Degraded)
            .collect();
        let mut armed = self.pending_transients.clone();
        // Per-model residency chips; `None` marks "wherever the snapshot
        // recovery lands" (a non-failed chip by construction).
        let mut homes: Vec<Option<Vec<Option<usize>>>> = vec![None; self.registry.len()];
        let mut cursor = self.fault_cursor;
        let mut fates = Vec::with_capacity(batches.len());
        for (idx, batch) in batches.iter().enumerate() {
            let seq = seq_base + idx as u64;
            for event in self.config.fault_plan.events() {
                if event.round() < cursor || event.round() > seq || event.chip() >= chips {
                    continue;
                }
                match event {
                    FaultEvent::ChipKill { .. } => failed[event.chip()] = true,
                    FaultEvent::Drift { .. } => degraded[event.chip()] = true,
                    FaultEvent::TileTransient { .. } => armed[event.chip()] += 1,
                }
            }
            cursor = seq + 1;
            let home = homes[batch.model.0].get_or_insert_with(|| {
                self.registry
                    .residencies(batch.model)
                    .iter()
                    .map(|c| Some(c.0))
                    .collect()
            });
            // Serving preference: healthy replicas first, then degraded,
            // then failed; slot order within a class. A recovered home
            // (`None`) counts healthy. Requests load-balance across the
            // whole list by dispatch sequence, so replicas share traffic
            // and a failure only re-routes the failed chip's share.
            let rank = |h: &Option<usize>| match *h {
                None => 0,
                Some(c) if failed[c] => 2,
                Some(c) if degraded[c] => 1,
                Some(_) => 0,
            };
            let mut order: Vec<Option<usize>> = Vec::with_capacity(home.len());
            for class in 0..3 {
                order.extend(home.iter().filter(|h| rank(h) == class).copied());
            }
            let nominal = order[seq as usize % order.len()];
            let mut fate = match nominal {
                None => BatchFate {
                    chip: FateChip::Primary,
                    shed: Vec::new(),
                    failed_from: None,
                    transient: false,
                    recover: false,
                },
                Some(chip) if !failed[chip] => BatchFate {
                    chip: FateChip::Fixed(chip),
                    shed: Vec::new(),
                    failed_from: None,
                    transient: false,
                    recover: false,
                },
                Some(chip) => {
                    // Failover: re-route to the best surviving replica.
                    // Members whose deadline cannot absorb the re-route
                    // penalty are shed — the only path that ever sheds.
                    let target = order.iter().copied().find(|o| o.is_none_or(|t| !failed[t]));
                    let max_arrival = batch
                        .members
                        .iter()
                        .map(|&s| queue[s].request.arrival)
                        .max()
                        .unwrap_or(0);
                    let horizon = max_arrival.saturating_add(self.config.failover_penalty);
                    let shed: Vec<usize> = batch
                        .members
                        .iter()
                        .copied()
                        .filter(|&s| queue[s].request.deadline.is_some_and(|d| d < horizon))
                        .collect();
                    match target {
                        Some(t) => BatchFate {
                            chip: t.map_or(FateChip::Primary, FateChip::Fixed),
                            shed,
                            failed_from: Some(chip),
                            transient: false,
                            recover: false,
                        },
                        None if failed.iter().all(|&f| f) => BatchFate {
                            chip: FateChip::Shed,
                            shed: batch.members.clone(),
                            failed_from: Some(chip),
                            transient: false,
                            recover: false,
                        },
                        None => {
                            *home = vec![None];
                            BatchFate {
                                chip: FateChip::Primary,
                                shed,
                                failed_from: Some(chip),
                                transient: false,
                                recover: true,
                            }
                        }
                    }
                }
            };
            if let FateChip::Fixed(chip) = fate.chip {
                if armed[chip] > 0 && fate.shed.len() < batch.members.len() {
                    armed[chip] -= 1;
                    fate.transient = true;
                }
            }
            fates.push(fate);
        }
        (fates, armed)
    }

    /// The fault-plan events with rounds in `[*cursor, through]` on
    /// chips this cluster has, advancing the cursor past `through` — the
    /// window walk both halves of fault application share.
    fn fault_window(&self, cursor: &mut u64, through: u64) -> Vec<FaultEvent> {
        if *cursor > through {
            return Vec::new();
        }
        let chips = self.registry.chip_count();
        let events = self
            .config
            .fault_plan
            .events()
            .iter()
            .filter(|e| e.round() >= *cursor && e.round() <= through && e.chip() < chips)
            .copied()
            .collect();
        *cursor = through + 1;
        events
    }

    /// Applies the health-marking half of kill/degrade events with
    /// rounds in `[*cursor, through]`, advancing the cursor. Routing,
    /// recovery destinations, and stats see the failure from here on.
    fn apply_fault_marks(&mut self, cursor: &mut u64, through: u64) {
        for event in self.fault_window(cursor, through) {
            match event {
                FaultEvent::ChipKill { chip, .. } => self.registry.mark_chip_failed(ChipId(chip)),
                FaultEvent::Drift { chip, .. } => self.registry.degrade_chip(ChipId(chip)),
                FaultEvent::TileTransient { .. } => {}
            }
        }
    }

    /// Applies the executor-killing half of kill events with rounds in
    /// `[*cursor, before]`, advancing the cursor. `before` is the
    /// current round's minimum dispatch sequence: every batch planned
    /// before the kill has already drained, so no in-flight execute can
    /// be corrupted.
    fn apply_fault_injections(&mut self, cursor: &mut u64, before: u64) {
        for event in self.fault_window(cursor, before) {
            if let FaultEvent::ChipKill { chip, .. } = event {
                self.registry.inject_chip_failure(ChipId(chip));
            }
        }
    }

    /// Folds a batch's executions into the completion list, advancing
    /// any sequences whose decode steps just finished. Runs serially at
    /// the round boundary — sequence state never mutates inside the
    /// parallel region.
    fn absorb_executions(&mut self, executed: Vec<Executed>, completions: &mut Vec<Completion>) {
        for e in executed {
            if let Some((seq_id, outcome)) = e.outcome {
                self.advance_sequence(seq_id, &outcome);
            }
            completions.push(e.completion);
        }
    }

    /// Applies one finished decode step: extends the KV cache, records
    /// the emitted token, and — if the sequence still has steps left —
    /// enqueues the next token request (the autoregressive feedback
    /// edge: step `t + 1` enters the queue only now).
    fn advance_sequence(&mut self, seq_id: u64, outcome: &StepOutcome) {
        self.tokens += 1;
        let sequence = &mut self.sequences[usize::try_from(seq_id).expect("sequence id")];
        sequence.cache.apply(outcome);
        sequence.pos += 1;
        sequence.tokens.push(outcome.next_token);
        sequence.next_token = outcome.next_token;
        if sequence.pos < sequence.steps {
            sequence.next_arrival = sequence.next_arrival.saturating_add(sequence.interval);
            let model = sequence.model;
            let token = sequence.next_token;
            let arrival = sequence.next_arrival;
            self.enqueue(token_request(model, token, arrival), Some(seq_id));
        } else {
            sequence.finished = true;
        }
    }

    /// Records shed members: engine + chip counters and one structured
    /// notice per request.
    fn shed_members(
        &mut self,
        batch: &Batch,
        queue: &[Queued],
        slots: &[usize],
        chip: usize,
        detail: &str,
        notices: &mut Vec<ShedNotice>,
    ) {
        for &slot in slots {
            let q = &queue[slot];
            self.sheds += 1;
            self.registry.note_shed(ChipId(chip));
            if let Some(seq_id) = q.sequence {
                // Shedding a decode step ends its whole sequence: no
                // further token is enqueued, and the client is told via
                // the notice (plus the `shed` accessor).
                let sequence = &mut self.sequences[usize::try_from(seq_id).expect("sequence id")];
                sequence.finished = true;
                sequence.shed = true;
            }
            notices.push(ShedNotice {
                id: q.id,
                model: batch.model,
                arrival: q.request.arrival,
                deadline: q.request.deadline,
                detail: detail.to_string(),
            });
        }
    }

    /// Serial fallback when a batch's planned chip refused execution at
    /// run time: walk the surviving replicas, then snapshot-recover,
    /// then shed what remains. Returns the completions and the extra
    /// wall time spent.
    fn execute_with_failover(
        &mut self,
        batch: &Batch,
        queue: &[Queued],
        fate: &BatchFate,
        failed_chip: usize,
        notices: &mut Vec<ShedNotice>,
    ) -> (Vec<Executed>, f64) {
        let start = std::time::Instant::now();
        self.retries += 1;
        self.registry.note_retry(ChipId(failed_chip));
        let mut avoid = vec![failed_chip];
        let mut recovered = false;
        loop {
            let candidate = self
                .registry
                .serving_residencies(batch.model)
                .into_iter()
                .map(|c| c.0)
                .find(|c| !avoid.contains(c));
            let Some(chip) = candidate else {
                if recovered || self.registry.recover(batch.model).is_none() {
                    // Nothing left to run on: shed every surviving member.
                    let remaining: Vec<usize> = batch
                        .members
                        .iter()
                        .copied()
                        .filter(|s| !fate.shed.contains(s))
                        .collect();
                    let detail = format!("no healthy chip left after chip {failed_chip} failed");
                    self.shed_members(batch, queue, &remaining, failed_chip, &detail, notices);
                    return (Vec::new(), start.elapsed().as_secs_f64() * 1e3);
                }
                // A fresh restore is healthy even on a chip whose old
                // executors died, so retry the full serving list.
                recovered = true;
                avoid.clear();
                continue;
            };
            let executor = self
                .registry
                .executor_on(batch.model, ChipId(chip))
                .expect("serving residency has an executor");
            match self.execute_on(batch, queue, executor, &fate.shed) {
                Ok(done) => return (done, start.elapsed().as_secs_f64() * 1e3),
                Err(_) => {
                    avoid.push(chip);
                    self.retries += 1;
                    self.registry.note_retry(ChipId(chip));
                }
            }
        }
    }

    /// Runs one prewarm stage synchronously, updating the stage counters.
    fn run_prewarm_stage(&mut self, target: ModelId) {
        let prewarmed = self.registry.prewarm(target);
        self.prewarms += 1;
        self.prewarmed_tiles += prewarmed as u64;
    }

    /// Whether the device config ages resident tiles with a bounded
    /// accuracy budget — the master gate on the drift machinery. False
    /// keeps every drift pass structurally inert.
    fn drift_aging_active(&self) -> bool {
        self.drift_budget_ticks.is_some()
    }

    /// Whether any resident tile on `chip` is older than the accuracy
    /// budget (its worst-case transmission may have slipped past half an
    /// LSB since programming).
    fn chip_over_budget(&self, chip: usize) -> bool {
        let Some(budget) = self.drift_budget_ticks else {
            return false;
        };
        (0..self.registry.len()).any(|m| {
            self.registry
                .executor_on(ModelId(m), ChipId(chip))
                .and_then(DeviceExecutor::max_tile_age)
                .is_some_and(|age| age > budget)
        })
    }

    /// Heals drift-degraded chips whose resident tiles are all back
    /// under the accuracy budget (recalibrated in an earlier drain).
    /// Runs at the drain boundary *before* the monitor, so a heal and a
    /// re-breach in the same drain resolve to Degraded, and the
    /// Degraded→Healthy transition is visible between drains (the wire
    /// server broadcasts it like any other health change).
    fn drift_heal_pass(&mut self) {
        if !self.drift_aging_active() {
            return;
        }
        for chip in 0..self.registry.chip_count() {
            if self.registry.chip_health(ChipId(chip)) == ChipHealth::Degraded
                && !self.chip_over_budget(chip)
            {
                self.drift_heals += 1;
                self.registry.heal_chip(ChipId(chip));
            }
        }
    }

    /// The drift health monitor: promotes a healthy chip to
    /// [`ChipHealth::Degraded`] when any resident tile's projected error
    /// crossed the accuracy budget, counting one breach per promotion.
    fn drift_monitor_pass(&mut self) {
        if !self.drift_aging_active() {
            return;
        }
        for chip in 0..self.registry.chip_count() {
            if self.registry.chip_health(ChipId(chip)) == ChipHealth::Healthy
                && self.chip_over_budget(chip)
            {
                self.drift_budget_breaches += 1;
                self.registry.degrade_chip(ChipId(chip));
            }
        }
    }

    /// Fixes this drain's recalibration plan: per serving chip, the
    /// oldest over-budget tiles (bounded per drain), oldest first with a
    /// stable `(model, layer, tile)` tiebreak. Every selected tile is
    /// **marked** here — its programming age resets at this
    /// single-threaded boundary, so the state later readouts derive is
    /// decided by the plan alone; the returned plans only carry the
    /// reprogramming work to the stage slots. Chips already failed are
    /// skipped structurally (a recal never targets a dead chip).
    fn plan_recalibration(&mut self) -> Vec<RecalPlan> {
        if !self.config.recalibration || !self.drift_aging_active() {
            return Vec::new();
        }
        let budget = self.drift_budget_ticks.unwrap_or(u64::MAX);
        let mut plans = Vec::new();
        for chip in 0..self.registry.chip_count() {
            if !self.registry.chip_health(ChipId(chip)).serves() {
                continue;
            }
            // (age, model, layer, tile) over-budget candidates.
            let mut candidates: Vec<(u64, usize, usize, usize)> = Vec::new();
            for model in 0..self.registry.len() {
                let Some(exec) = self.registry.executor_on(ModelId(model), ChipId(chip)) else {
                    continue;
                };
                candidates.extend(
                    exec.tile_ages()
                        .into_iter()
                        .filter(|info| info.age_ticks > budget)
                        .map(|info| (info.age_ticks, model, info.layer, info.tile)),
                );
            }
            if candidates.is_empty() {
                continue;
            }
            candidates.sort_unstable_by(|a, b| {
                b.0.cmp(&a.0)
                    .then_with(|| (a.1, a.2, a.3).cmp(&(b.1, b.2, b.3)))
            });
            candidates.truncate(MAX_RECALS_PER_DRAIN);
            let mut tiles = Vec::with_capacity(candidates.len());
            for &(_, model, layer, tile) in &candidates {
                if let Some(exec) = self.registry.executor_on(ModelId(model), ChipId(chip)) {
                    if exec.mark_recalibrated(layer, tile) {
                        self.recalibrated_tiles += 1;
                        tiles.push((ModelId(model), layer, tile));
                    }
                }
            }
            if !tiles.is_empty() {
                self.recalibrations += 1;
                plans.push(RecalPlan { chip, tiles });
            }
        }
        plans
    }

    /// Pops the next round's slice of recal work: up to
    /// [`MAX_RECAL_TILES_PER_ROUND`] tiles per chip. Plans whose chip
    /// failed since the drain boundary are dropped structurally — their
    /// remaining tiles are cleared, never dispatched or retried.
    fn take_recal_chunks(&self, plans: &mut [RecalPlan]) -> Vec<RecalChunk> {
        let mut chunks = Vec::new();
        for plan in plans {
            if plan.tiles.is_empty() {
                continue;
            }
            if !self.registry.chip_health(ChipId(plan.chip)).serves() {
                plan.tiles.clear();
                continue;
            }
            let take = plan.tiles.len().min(MAX_RECAL_TILES_PER_ROUND);
            chunks.push((plan.chip, plan.tiles.drain(..take).collect()));
        }
        chunks
    }

    /// Reprograms one chunk of recalibration work: the eager
    /// re-derivation of tiles the drain's plan already marked. Safe to
    /// run concurrently with the round — re-derivation is single-flight
    /// against the execution path, and the resulting state is
    /// bit-identical whether this stage or a lazy read gets there first.
    fn run_recal_chunk(registry: &Cluster, chip: usize, tiles: &[(ModelId, usize, usize)]) {
        for &(model, layer, tile) in tiles {
            if let Some(exec) = registry.executor_on(model, ChipId(chip)) {
                exec.rederive_tile(layer, tile);
            }
        }
    }

    /// Serially reprograms any planned recal work the rounds did not
    /// reach, so a plan always completes within its drain (dead chips
    /// excepted — their work is dropped).
    fn flush_recal_plans(&self, plans: &[RecalPlan]) {
        for plan in plans {
            if plan.tiles.is_empty() || !self.registry.chip_health(ChipId(plan.chip)).serves() {
                continue;
            }
            Self::run_recal_chunk(&self.registry, plan.chip, &plan.tiles);
        }
    }

    /// Picks the prewarm-stage targets to run alongside the current
    /// round: at most one model per chip, chosen as the first pending
    /// (not-yet-dispatched) model in queue order that is not executing in
    /// the round, is not fully resident, and whose missing tiles are
    /// guaranteed to fit its *chip's* cell budget even after every round
    /// model on that chip finishes compiling its own tiles. The first
    /// eligible candidate per chip decides — if it does not fit, the chip
    /// gets no stage this round. The guard is conservative on purpose: a
    /// skipped prewarm only costs speed, while an over-eager one could
    /// evict (or migrate) and change the engine's eviction sequence. On a
    /// single chip this reproduces the pre-cluster single-target stage
    /// exactly.
    fn prewarm_targets(
        &self,
        batches: &[Batch],
        pending: &[bool],
        round: &[&Batch],
    ) -> Vec<ModelId> {
        let chips = self.registry.chip_count();
        let in_round = |m: ModelId| round.iter().any(|b| b.model == m);
        // Worst-case per-chip occupancy once this round's own lazy
        // compiles land.
        let mut projected: Vec<usize> = (0..chips)
            .map(|c| self.registry.chip_occupancy(ChipId(c)))
            .collect();
        let mut counted: Vec<ModelId> = Vec::new();
        for batch in round {
            if !counted.contains(&batch.model) {
                counted.push(batch.model);
                projected[self.registry.chip_of(batch.model).0] += self
                    .registry
                    .footprint_cells(batch.model)
                    .saturating_sub(self.registry.resident_cells(batch.model));
            }
        }
        let mut decided = vec![false; chips];
        let mut targets = Vec::new();
        for (idx, batch) in batches.iter().enumerate() {
            if decided.iter().all(|&d| d) {
                break;
            }
            let model = batch.model;
            if !pending[idx] || in_round(model) {
                continue;
            }
            let chip = self.registry.chip_of(model).0;
            if decided[chip] || self.registry.chip_health(ChipId(chip)) == ChipHealth::Failed {
                continue;
            }
            let missing = self
                .registry
                .footprint_cells(model)
                .saturating_sub(self.registry.resident_cells(model));
            if missing == 0 {
                continue;
            }
            decided[chip] = true;
            if projected[chip] + missing <= self.registry.chip(ChipId(chip)).budget() {
                targets.push(model);
            }
        }
        targets
    }

    /// Executes a batch per its fate. `Err(chip)` reports a chip that
    /// refused execution at run time (handled by the serial failover
    /// fallback at the round boundary — never inside the parallel
    /// region, so recovery stays deterministic).
    fn execute_fated(
        &self,
        batch: &Batch,
        queue: &[Queued],
        fate: &BatchFate,
    ) -> Result<Vec<Executed>, usize> {
        if matches!(fate.chip, FateChip::Shed) || fate.shed.len() >= batch.members.len() {
            return Ok(Vec::new());
        }
        let (chip, executor) = match fate.chip {
            FateChip::Fixed(c) => match self.registry.executor_on(batch.model, ChipId(c)) {
                Some(exec) => (c, exec),
                // The residency moved (migration) since planning; the
                // primary executor is output-identical.
                None => (
                    self.registry.chip_of(batch.model).0,
                    self.registry.executor(batch.model),
                ),
            },
            FateChip::Primary | FateChip::Shed => (
                self.registry.chip_of(batch.model).0,
                self.registry.executor(batch.model),
            ),
        };
        self.execute_on(batch, queue, executor, &fate.shed)
            .map_err(|_| chip)
    }

    /// Runs every non-shed member of a batch on one executor, retrying
    /// through transient tile faults (bounded at [`MAX_TILE_RETRIES`] per
    /// member — a one-shot transient needs exactly one). CNN members run
    /// through one [`oxbar_sim::BatchScope`] that lives as long as the
    /// batch, so each of the model's tiles is programmed at most once per
    /// batch even when the chip budget cannot keep it. Members carrying a
    /// sequence id run one decode step via [`lm_step`] instead of a CNN
    /// forward; reading `self.sequences` here is safe because a sequence
    /// has at most one step in flight per pass.
    fn execute_on(
        &self,
        batch: &Batch,
        queue: &[Queued],
        executor: &DeviceExecutor,
        shed: &[usize],
    ) -> Result<Vec<Executed>, ExecError> {
        let spec = self.registry.spec(batch.model);
        let survivors: Vec<usize> = batch
            .members
            .iter()
            .copied()
            .filter(|s| !shed.contains(s))
            .collect();
        let scope = executor.batch_scope();
        let mut out = Vec::with_capacity(survivors.len());
        for &slot in &survivors {
            let q = &queue[slot];
            if let Some(seq_id) = q.sequence {
                let sequence = &self.sequences[usize::try_from(seq_id).expect("sequence id")];
                let weights = spec.lm.as_ref().expect("sequence targets a language model");
                let step = retry_transient(|| {
                    lm_step(
                        executor,
                        &spec.network,
                        &spec.filters,
                        weights,
                        &sequence.cache,
                        sequence.next_token,
                        sequence.pos,
                    )
                })?;
                let completion = Completion {
                    id: q.id,
                    model: batch.model,
                    arrival: q.request.arrival,
                    deadline: q.request.deadline,
                    output: Tensor3::new(TensorShape::flat(step.logits.len()), step.logits.clone()),
                    batch_seq: batch.seq,
                    batch_size: survivors.len(),
                    sequence: Some(TokenCompletion {
                        sequence: SequenceId(seq_id),
                        step: sequence.pos,
                        token: step.next_token,
                        done: sequence.pos + 1 >= sequence.steps,
                    }),
                };
                out.push(Executed {
                    completion,
                    outcome: Some((seq_id, step)),
                });
                continue;
            }
            let forward = retry_transient(|| {
                scope.try_forward(&spec.network, &q.request.input, &spec.filters)
            })?;
            out.push(Executed {
                completion: Completion {
                    id: q.id,
                    model: batch.model,
                    arrival: q.request.arrival,
                    deadline: q.request.deadline,
                    output: forward.output,
                    batch_seq: batch.seq,
                    batch_size: survivors.len(),
                    sequence: None,
                },
                outcome: None,
            });
        }
        Ok(out)
    }

    /// Aggregate statistics since engine creation.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests: self.requests,
            batches: self.batches,
            evictions: self.registry.evictions(),
            prewarms: self.prewarms,
            prewarmed_tiles: self.prewarmed_tiles,
            occupancy_cells: self.registry.occupancy(),
            budget_cells: self.registry.budget(),
            models: self.registry.cache_stats(),
            migrations: self.registry.migrations(),
            chips: self.registry.chip_stats(),
            retries: self.retries,
            sheds: self.sheds,
            recoveries: self.registry.recoveries(),
            recovery_ms: self.registry.recovery_ms(),
            sequences: self.sequences.len() as u64,
            tokens: self.tokens,
            recalibrations: self.recalibrations,
            recalibrated_tiles: self.recalibrated_tiles,
            drift_budget_breaches: self.drift_budget_breaches,
            drift_heals: self.drift_heals,
            stage_panics: self.stage_panics,
        }
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("models", &self.registry.len())
            .field("queued", &self.queue.len())
            .field("requests", &self.requests)
            .field("batches", &self.batches)
            .finish()
    }
}

/// Builds the queued request for one decode step of a sequence. The
/// input tensor carries only the step's token — the engine keys the real
/// state (the KV cache) off the sequence id — and the deadline is `None`:
/// token steps are never deadline-shed, only all-chips-failed can shed
/// them.
fn token_request(model: ModelId, token: u32, arrival: u64) -> InferRequest {
    InferRequest {
        model,
        input: Tensor3::new(TensorShape::flat(1), vec![i64::from(token)]),
        arrival,
        deadline: None,
    }
}

/// Resolves a worker count (0 = all cores).
fn effective_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    } else {
        workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use oxbar_nn::synthetic;

    #[test]
    fn drain_completes_every_request_once() {
        let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
        let lenet = engine.admit(catalog::lenet5_model()).unwrap();
        let mobile = engine.admit(catalog::mobilenet_sample()).unwrap();
        for i in 0..6u64 {
            let model = if i % 2 == 0 { lenet } else { mobile };
            let input = synthetic::activations(engine.input_shape(model), 6, i);
            engine.submit(InferRequest {
                model,
                input,
                arrival: i,
                deadline: Some(i + 100),
            });
        }
        assert_eq!(engine.queued(), 6);
        let done = engine.drain();
        assert_eq!(engine.queued(), 0);
        let mut ids: Vec<u64> = done.iter().map(|c| c.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
        let stats = engine.stats();
        assert_eq!(stats.requests, 6);
        assert!(stats.batches <= 4, "same-model requests coalesce");
        assert!(stats.mean_batch_size() > 1.0);
    }

    #[test]
    fn second_drain_is_weight_stationary() {
        let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
        let lenet = engine.admit(catalog::lenet5_model()).unwrap();
        let input = synthetic::activations(engine.input_shape(lenet), 6, 0);
        engine.submit_simple(lenet, input.clone());
        engine.drain();
        let cold_misses = engine.stats().models[0].cache.misses;
        engine.submit_simple(lenet, input);
        engine.drain();
        let stats = engine.stats();
        assert_eq!(stats.models[0].cache.misses, cold_misses, "no recompiles");
        assert!(stats.hit_rate() > 0.0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    #[should_panic(expected = "input shape must match")]
    fn wrong_shape_is_rejected_at_submit() {
        let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
        let lenet = engine.admit(catalog::lenet5_model()).unwrap();
        let wrong = synthetic::activations(oxbar_nn::TensorShape::new(4, 4, 1), 6, 0);
        engine.submit_simple(lenet, wrong);
    }

    #[test]
    fn try_submit_returns_structured_errors() {
        let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
        let lenet = engine.admit(catalog::lenet5_model()).unwrap();
        let shape = engine.input_shape(lenet);
        let unknown = engine.try_submit(InferRequest {
            model: ModelId(7),
            input: synthetic::activations(shape, 6, 0),
            arrival: 0,
            deadline: None,
        });
        assert_eq!(unknown, Err(SubmitError::UnknownModel(ModelId(7))));
        let wrong_shape = oxbar_nn::TensorShape::new(4, 4, 1);
        let mismatch = engine.try_submit(InferRequest {
            model: lenet,
            input: synthetic::activations(wrong_shape, 6, 0),
            arrival: 0,
            deadline: None,
        });
        assert_eq!(
            mismatch,
            Err(SubmitError::ShapeMismatch {
                model: lenet,
                expected: shape,
                got: wrong_shape,
            })
        );
        assert_eq!(engine.queued(), 0, "rejected requests never queue");
    }

    #[test]
    fn out_of_order_submissions_insert_in_arrival_order() {
        let mut engine = ServeEngine::new(
            ServeConfig::new(SimConfig::ideal(64, 64)).with_policy(BatchPolicy::SINGLE),
        );
        let lenet = engine.admit(catalog::lenet5_model()).unwrap();
        // A misbehaving (or merely concurrent) client stream: ticks
        // arrive 5, 2, 9, 2 — non-monotonic and with a duplicate.
        for (i, arrival) in [5u64, 2, 9, 2].into_iter().enumerate() {
            let input = synthetic::activations(engine.input_shape(lenet), 6, i as u64);
            engine
                .try_submit(InferRequest {
                    model: lenet,
                    input,
                    arrival,
                    deadline: None,
                })
                .expect("out-of-order ticks are not an error");
        }
        let done = engine.drain();
        let order: Vec<(u64, u64)> = done.iter().map(|c| (c.arrival, c.id.0)).collect();
        // Queue drains in arrival order; the two tick-2 requests keep
        // their submission order (id 1 before id 3).
        assert_eq!(order, vec![(2, 1), (2, 3), (5, 0), (9, 2)]);
    }

    #[test]
    fn sequence_decodes_match_the_oracle_and_finish() {
        use oxbar_nn::transformer::{generate, OracleEngine};
        let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
        let spec = catalog::llm_tiny();
        let weights = spec.lm.clone().expect("llm_tiny is a language model");
        let llm = engine.admit(spec).unwrap();
        let seq = engine.begin_sequence(llm, 3, 8, 0, 1).unwrap();
        let done = engine.drain();
        assert!(engine.sequence_finished(seq));
        assert!(!engine.sequence_shed(seq));

        let mut oracle = OracleEngine::new(&weights);
        let want: Vec<u32> = generate(&weights, &mut oracle, 3, 8)
            .expect("oracle is infallible")
            .into_iter()
            .map(|s| s.next_token)
            .collect();
        assert_eq!(
            engine.sequence_tokens(seq),
            &want[..],
            "ideal device == oracle"
        );

        // Every step surfaced as a Completion on the sequence, in step
        // order, with `done` exactly on the last.
        let steps: Vec<(usize, u32, bool)> = done
            .iter()
            .filter_map(|c| c.sequence.as_ref())
            .filter(|t| t.sequence == seq)
            .map(|t| (t.step, t.token, t.done))
            .collect();
        assert_eq!(steps.len(), 8);
        for (i, (step, token, last)) in steps.iter().enumerate() {
            assert_eq!(*step, i, "steps complete in order");
            assert_eq!(*token, want[i]);
            assert_eq!(*last, i == 7, "done marks exactly the final step");
        }
        let stats = engine.stats();
        assert_eq!(stats.sequences, 1);
        assert_eq!(stats.tokens, 8);
    }

    #[test]
    fn mixed_cnn_and_llm_drain_is_worker_invariant() {
        let run = |workers: usize| {
            let mut engine =
                ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)).with_workers(workers));
            let lenet = engine.admit(catalog::lenet5_model()).unwrap();
            let llm = engine.admit(catalog::llm_tiny()).unwrap();
            let a = engine.begin_sequence(llm, 1, 6, 0, 1).unwrap();
            let b = engine.begin_sequence(llm, 9, 6, 0, 1).unwrap();
            for i in 0..4u64 {
                let input = synthetic::activations(engine.input_shape(lenet), 6, i);
                engine.submit(InferRequest {
                    model: lenet,
                    input,
                    arrival: i,
                    deadline: Some(i + 100),
                });
            }
            let done = engine.drain();
            let tokens = (
                engine.sequence_tokens(a).to_vec(),
                engine.sequence_tokens(b).to_vec(),
            );
            (done, tokens)
        };
        let (done1, tokens1) = run(1);
        let (done4, tokens4) = run(4);
        assert_eq!(tokens1, tokens4, "token streams are worker-invariant");
        assert_eq!(done1, done4, "mixed traffic is byte-identical");
        assert_eq!(
            done1.len(),
            4 + 12,
            "4 CNN requests + 2 sequences x 6 steps"
        );
    }

    #[test]
    fn begin_sequence_rejects_structured() {
        let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
        let lenet = engine.admit(catalog::lenet5_model()).unwrap();
        let llm = engine.admit(catalog::llm_tiny()).unwrap();
        assert_eq!(
            engine.begin_sequence(ModelId(9), 0, 4, 0, 1),
            Err(SubmitError::UnknownModel(ModelId(9)))
        );
        assert_eq!(
            engine.begin_sequence(lenet, 0, 4, 0, 1),
            Err(SubmitError::NotLanguageModel(lenet))
        );
        assert_eq!(
            engine.begin_sequence(llm, 0, 0, 0, 1),
            Err(SubmitError::BadSteps {
                steps: 0,
                max: MAX_SEQUENCE_STEPS
            })
        );
        assert_eq!(
            engine.begin_sequence(llm, 77, 4, 0, 1),
            Err(SubmitError::BadToken {
                model: llm,
                token: 77,
                vocab: 32
            })
        );
        assert_eq!(engine.queued(), 0, "rejected sequences never queue");
    }
}
