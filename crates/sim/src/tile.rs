//! One fold-tile through the full device chain: PCM programming →
//! crossbar MVM (compiled transfer matrix or field walk) → TIA/ADC
//! readout → signed recovery.
//!
//! After PCM programming the tile is a fixed linear operator, so the
//! default engine compiles it once
//! ([`oxbar_photonics::transfer::CompiledCrossbar`]) and executes every
//! pixel drive — positive and negative passes — as one batched MVM over a
//! flat row-major drive matrix, with a duplicate-window cache in front
//! (padded convolutions produce many identical and all-zero windows). The
//! cell-by-cell field walk ([`CrossbarSimulator::run`]) stays available as
//! the oracle via [`MvmEngine::FieldWalk`].

use crate::arena::ExecArena;
use crate::config::{Readout, SimConfig};
use oxbar_dataflow::tiles::{TileGeometry, WeightTile, WeightTiles};
use oxbar_electronics::tia::Tia;
use oxbar_electronics::UnsignedQuantizer;
use oxbar_nn::mapping::MappedWeights;
use oxbar_pcm::array::Parallelism;
use oxbar_pcm::drift::DriftModel;
use oxbar_pcm::variation::DeviceVariation;
use oxbar_pcm::{PcmArray, ProgramReport};
use oxbar_photonics::crossbar::{CrossbarConfig, CrossbarSimulator};
use oxbar_photonics::transfer::CompiledCrossbar;
use oxbar_units::Time;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Chunked FNV-style hasher for drive-window dedupe keys — the default
/// SipHash dominates the cache lookup at im2col window sizes.
#[derive(Default)]
struct WindowHasher(u64);

impl std::hash::Hasher for WindowHasher {
    fn finish(&self) -> u64 {
        // Final avalanche (splitmix-style) so sequential windows spread.
        let mut z = self.0;
        z ^= z >> 33;
        z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        z ^ (z >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0 ^ 0xCBF2_9CE4_8422_2325;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut tail = u64::from(bytes.len() as u8);
        for (k, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * (k + 1));
        }
        self.0 = (h ^ tail).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One [`WindowHasher`] pass over a window's bytes (the dedupe-table
/// probe hash).
fn hash_window(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = WindowHasher::default();
    h.write(bytes);
    h.finish()
}

/// Full-scale photocurrent assumed at the balanced receiver (A). The TIA
/// turns it into the ADC's full-scale voltage; the value cancels out of the
/// normalized transfer function and only anchors the analog chain.
const FULL_SCALE_CURRENT_A: f64 = 100e-6;

/// The signed partial sums one tile contributes.
#[derive(Debug, Clone)]
pub struct TileOutcome {
    /// `partials[pixel][c]` for the tile's logical columns `c` (output
    /// channels `col_offset + c` within the tile's group).
    pub partials: Vec<Vec<i64>>,
    /// PCM programming statistics for this tile.
    pub program: ProgramReport,
}

/// The per-pixel crossbar drive for one tile: unsigned input codes for the
/// tile's row slice, split into positive and negative passes (signed
/// activations run as `v = v⁺ − v⁻`, two unipolar crossbar cycles).
///
/// Windows are stored as flat row-major matrices (`pixels × rows`) so the
/// batched MVM and the duplicate-window cache read them without per-pixel
/// indirection or allocation.
#[derive(Debug, Clone)]
pub struct TileDrive {
    pub(crate) rows: usize,
    pub(crate) pixels: usize,
    /// Positive-part codes, `pixels × rows` row-major.
    pub(crate) positive: Vec<u8>,
    /// Negative-part codes; meaningful only when `has_negative`. Kept as
    /// a plain buffer (not an `Option`) so a pooled drive bouncing
    /// between signed and unsigned layers never drops its capacity.
    pub(crate) negative: Vec<u8>,
    /// Whether a negative pass exists (any input value < 0).
    pub(crate) has_negative: bool,
}

impl TileDrive {
    /// An empty drive (no rows, no pixels) — the rest state of the
    /// reusable drive buffers an [`crate::arena::ExecArena`] holds.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            rows: 0,
            pixels: 0,
            positive: Vec::new(),
            negative: Vec::new(),
            has_negative: false,
        }
    }
    /// Wraps flat row-major (`pixels × rows`) drive matrices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero, `positive` is not a whole number of
    /// windows, or `negative` differs in length.
    #[must_use]
    pub fn new(rows: usize, positive: Vec<u8>, negative: Option<Vec<u8>>) -> Self {
        assert!(rows > 0, "drive windows must have rows");
        assert_eq!(
            positive.len() % rows,
            0,
            "drive matrix must be pixels × {rows} row-major"
        );
        if let Some(negative) = &negative {
            assert_eq!(
                negative.len(),
                positive.len(),
                "negative pass must cover the same pixels"
            );
        }
        Self {
            rows,
            pixels: positive.len() / rows,
            positive,
            has_negative: negative.is_some(),
            negative: negative.unwrap_or_default(),
        }
    }

    /// Builds a drive from per-pixel windows (convenience for tests).
    ///
    /// # Panics
    ///
    /// Panics if the windows are empty or ragged.
    #[must_use]
    pub fn from_windows(positive: &[Vec<u8>], negative: Option<&[Vec<u8>]>) -> Self {
        let rows = positive.first().map_or(0, Vec::len);
        let flatten = |windows: &[Vec<u8>]| {
            windows
                .iter()
                .flat_map(|w| {
                    assert_eq!(w.len(), rows, "ragged drive window");
                    w.iter().copied()
                })
                .collect()
        };
        Self::new(rows, flatten(positive), negative.map(flatten))
    }

    /// Window length (the tile's row count).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of pixels driven.
    #[must_use]
    pub fn pixels(&self) -> usize {
        self.pixels
    }

    /// The positive-pass window of pixel `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn positive(&self, p: usize) -> &[u8] {
        &self.positive[p * self.rows..(p + 1) * self.rows]
    }

    /// The negative-pass window of pixel `p`, if a negative pass exists.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn negative(&self, p: usize) -> Option<&[u8]> {
        self.has_negative
            .then(|| &self.negative[p * self.rows..(p + 1) * self.rows])
    }

    /// Whether a negative pass exists.
    #[must_use]
    pub fn has_negative(&self) -> bool {
        self.has_negative
    }

    /// Window `w` in execution order: the positive passes occupy
    /// `0..pixels`, the negative passes `pixels..2×pixels`.
    pub(crate) fn window(&self, w: usize) -> &[u8] {
        if w < self.pixels {
            self.positive(w)
        } else {
            self.negative(w - self.pixels)
                .expect("window index implies a negative pass")
        }
    }
}

/// Which crossbar MVM implementation a tile runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MvmEngine {
    /// Compile the programmed tile into a transfer matrix once, dedupe
    /// identical drive windows, and execute the batch as dense MVMs (the
    /// default fast path).
    #[default]
    Compiled,
    /// The compiled transfer matrix without the duplicate-window cache
    /// (every window recomputed; used to pin the cache's transparency).
    CompiledNoCache,
    /// The cell-by-cell field-propagation oracle
    /// ([`CrossbarSimulator::run`]) — the reference the compiled path is
    /// validated against, and the baseline the `device_mvm` bench times.
    FieldWalk,
}

/// The per-tile device state after PCM programming: mapped codes, the
/// programming report, the as-read transmissions, and the seeded crossbar
/// simulator.
struct ProgrammedTile {
    mapped: MappedWeights,
    program: ProgramReport,
    transmissions: Vec<Vec<f64>>,
    sim: CrossbarSimulator,
}

/// Maps the tile weights, programs the PCM array, and builds the seeded
/// tile-sized crossbar simulator at the config's `drift_elapsed`.
fn program_tile(values: &[Vec<i8>], config: &SimConfig, seed: u64) -> ProgrammedTile {
    program_tile_at(values, config, seed, config.noise.drift_elapsed)
}

/// [`program_tile`] at an explicit drift elapsed time, overriding the
/// config's `drift_elapsed`. This is the aging/recalibration entry point:
/// an aged readout re-derives the *same* programming stream (the RNG is a
/// pure function of the seed, independent of elapsed) at a later drift
/// time, and a recalibration re-derives it at the baseline — making a
/// recalibrated tile bit-exact to a freshly programmed one.
fn program_tile_at(
    values: &[Vec<i8>],
    config: &SimConfig,
    seed: u64,
    elapsed: Time,
) -> ProgrammedTile {
    let rows = values.len();
    let mapped = MappedWeights::map(values, config.mapping, config.q());
    let pcols = mapped.physical_cols();

    // The unipolar levels are already integer codes of the array's level
    // table, so program directly from codes (value-identical to the float
    // round trip: `quantize_weight(u / table_max) == u` exactly). With
    // neither programming variation nor drift the whole program-and-read
    // chain collapses into the per-code table (`noise_free_readout`).
    let device = config.device();
    let (transmissions, program) = if config.noise.pcm_sigma == 0.0 && config.noise.drift_nu == 0.0
    {
        PcmArray::noise_free_readout(
            rows,
            pcols,
            device,
            config.weight_bits,
            mapped.unipolar(),
            Parallelism::FullArray,
        )
    } else {
        // Fused noisy program-and-readout: value-identical to
        // program-codes → drift → transmissions, without materializing
        // the array (the RNG stream and per-cell float ops are
        // unchanged).
        let variation = DeviceVariation::new(config.noise.pcm_sigma, 0.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
        let drift = (config.noise.drift_nu > 0.0)
            .then(|| (DriftModel::new(config.noise.drift_nu), elapsed));
        PcmArray::noisy_readout(
            rows,
            pcols,
            device,
            config.weight_bits,
            mapped.unipolar(),
            Parallelism::FullArray,
            (config.noise.pcm_sigma > 0.0).then_some((&variation, &mut rng)),
            drift.as_ref().map(|(model, elapsed)| (model, *elapsed)),
        )
    };

    let mut xbar = CrossbarConfig::new(rows, pcols)
        .with_phase_error_sigma(config.noise.phase_sigma_rad)
        .with_phase_error_seed(seed)
        .with_trim_resolution(config.noise.trim_resolution_rad);
    if config.noise.with_losses {
        xbar = xbar.with_losses(true).with_path_loss_compensation(true);
    }
    ProgrammedTile {
        mapped,
        program,
        transmissions,
        sim: CrossbarSimulator::new(xbar),
    }
}

/// The column readout chain: TIA + optional ADC, and the scale that undoes
/// the architecture normalization — the exact integer column output is
/// `y_norm · rows · v_max · table_max / t_max`.
struct ReadoutChain {
    tia: Tia,
    /// The ADC's LSB step (analog volts); `None` for exact readout. The
    /// step is hoisted out of the per-column loop — the quantizer would
    /// otherwise recompute it (a division) twice per digitized value.
    adc_lsb: Option<f64>,
    full_scale_v: f64,
    scale: f64,
}

impl ReadoutChain {
    fn new(config: &SimConfig, rows: usize) -> Self {
        let tia = Tia::paper_default();
        let full_scale_v = tia.output_voltage(FULL_SCALE_CURRENT_A);
        let adc_lsb = match config.readout {
            Readout::Exact => None,
            Readout::Adc { bits } => Some(
                UnsignedQuantizer::new(bits, full_scale_v)
                    .expect("valid ADC resolution")
                    .lsb(),
            ),
        };
        let scale = rows as f64 * config.v_max() as f64 * f64::from(config.table_max())
            / config.device().max_transmission();
        Self {
            tia,
            adc_lsb,
            full_scale_v,
            scale,
        }
    }

    fn digitize(&self, y: f64) -> i64 {
        let digitized = match self.adc_lsb {
            None => y,
            Some(lsb) => {
                // Inlined `UnsignedQuantizer::reconstruct` on the hoisted
                // LSB: identical clamp/divide/round/multiply sequence
                // (the rounded code is ≤ 2¹⁶ − 1, exactly representable,
                // so skipping the integer cast changes nothing).
                let current = y.clamp(0.0, 1.0) * FULL_SCALE_CURRENT_A;
                let v = self.tia.output_voltage(current);
                let code = (v.clamp(0.0, self.full_scale_v) / lsb).round();
                (code * lsb) / self.full_scale_v
            }
        };
        (digitized * self.scale).round() as i64
    }
}

/// A weight tile after PCM programming and transfer-matrix compilation:
/// the weight-stationary device state. Compiling is `O(N × M)` and happens
/// once; every [`CompiledTile::execute`] afterwards is a batched dense MVM
/// — executors cache these across pixel batches and images, mirroring the
/// hardware, where a programmed PCM tile serves many inferences.
#[derive(Debug, Clone)]
pub struct CompiledTile {
    /// The signed weight codes this state was compiled from, stored
    /// column-major (`cols × rows` flat; column `c` is the contiguous
    /// filter slice it came from) so cache-hit validation is a straight
    /// slice compare against the filter bank — no tile materialization.
    values: Vec<i8>,
    /// Rows of the value matrix (`values.len() / rows` columns).
    value_rows: usize,
    mapped: MappedWeights,
    program: ProgramReport,
    compiled: CompiledCrossbar,
}

impl CompiledTile {
    /// Programs the tile and compiles its transfer matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tile weights exceed the configured code range.
    #[must_use]
    pub fn compile(tile: &WeightTile, config: &SimConfig, seed: u64) -> Self {
        Self::compile_at(tile, config, seed, config.noise.drift_elapsed)
    }

    /// [`Self::compile`] at an explicit drift elapsed time. Aged readouts
    /// compile at `drift_elapsed + age · drift_tick`; a recalibration
    /// compiles at the baseline `drift_elapsed`, which is bit-exact to a
    /// fresh program because every stochastic draw is a pure function of
    /// the seed.
    ///
    /// # Panics
    ///
    /// Panics if the tile weights exceed the configured code range.
    #[must_use]
    pub fn compile_at(tile: &WeightTile, config: &SimConfig, seed: u64, elapsed: Time) -> Self {
        let programmed = program_tile_at(&tile.values, config, seed, elapsed);
        let (rows, cols) = (tile.rows(), tile.cols());
        let mut values = Vec::with_capacity(rows * cols);
        for c in 0..cols {
            values.extend((0..rows).map(|r| tile.values[r][c]));
        }
        Self {
            values,
            value_rows: rows,
            compiled: CompiledCrossbar::new(&programmed.sim, &programmed.transmissions),
            mapped: programmed.mapped,
            program: programmed.program,
        }
    }

    /// The signed weight codes this state was compiled from, as a flat
    /// column-major (`cols × rows`) matrix — the non-volatile PCM codes a
    /// chip snapshot serializes.
    #[must_use]
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// Rows of [`Self::values`] (the tile's logical row count).
    #[must_use]
    pub fn value_rows(&self) -> usize {
        self.value_rows
    }

    /// Whether this compiled state was built from exactly these weights
    /// (cache-hit validation).
    #[must_use]
    pub fn matches(&self, tile: &WeightTile) -> bool {
        let (rows, cols) = (tile.rows(), tile.cols());
        rows == self.value_rows
            && cols * rows == self.values.len()
            && self
                .values
                .chunks_exact(rows.max(1))
                .enumerate()
                .all(|(c, col)| col.iter().enumerate().all(|(r, &v)| tile.values[r][c] == v))
    }

    /// [`Self::matches`] against the filter bank directly: column `c` of
    /// the compiled values must equal the contiguous filter slice
    /// [`WeightTiles::filter_column`] returns for `geom` — the
    /// zero-materialization validation the serving hot path runs on every
    /// cache hit.
    #[must_use]
    pub fn matches_bank(&self, tiles: &WeightTiles<'_>, geom: &TileGeometry) -> bool {
        geom.rows == self.value_rows
            && geom.cols * geom.rows == self.values.len()
            && (0..geom.cols)
                .all(|c| tiles.filter_column(geom, c) == &self.values[c * geom.rows..][..geom.rows])
    }

    /// Crossbar cells this compiled state holds (`rows × physical cols`).
    #[must_use]
    pub fn cells(&self) -> usize {
        self.compiled.rows() * self.compiled.cols()
    }

    /// The tile's PCM programming report (what programming this state
    /// cost when it was compiled).
    #[must_use]
    pub fn program(&self) -> ProgramReport {
        self.program
    }

    /// Logical (signed) output columns per pixel — the width of the
    /// partials this tile produces.
    #[must_use]
    pub fn logical_cols(&self) -> usize {
        self.mapped.logical_cols()
    }

    /// Executes all pixel drives as one batched MVM (with the
    /// duplicate-window cache unless `dedupe` is off) and recovers signed
    /// partial sums.
    ///
    /// Allocating convenience wrapper over [`Self::execute_into`]; hot
    /// paths pool an [`ExecArena`] and call that directly.
    ///
    /// # Panics
    ///
    /// Panics if the drive's window length disagrees with the tile rows.
    #[must_use]
    pub fn execute(&self, drive: &TileDrive, config: &SimConfig, dedupe: bool) -> TileOutcome {
        let mut arena = ExecArena::default();
        self.execute_into(drive, config, dedupe, &mut arena);
        TileOutcome {
            partials: arena
                .partial_rows(self.mapped.logical_cols())
                .map(<[i64]>::to_vec)
                .collect(),
            program: self.program,
        }
    }

    /// [`Self::execute`] writing every intermediate and the per-pixel
    /// partials into a caller-owned [`ExecArena`] — the allocation-free
    /// serving hot path. A warm arena (one that has already served a tile
    /// of this size) is reused without touching the heap; the results
    /// land in [`ExecArena::partials`] as a flat `pixels × logical cols`
    /// matrix and are byte-identical to [`Self::execute`] for any arena
    /// history.
    ///
    /// # Panics
    ///
    /// Panics if the drive's window length disagrees with the tile rows.
    pub fn execute_into(
        &self,
        drive: &TileDrive,
        config: &SimConfig,
        dedupe: bool,
        arena: &mut ExecArena,
    ) {
        let rows = self.compiled.rows();
        let pcols = self.compiled.cols();
        assert_eq!(drive.rows(), rows, "windows must match tile rows");
        let readout = ReadoutChain::new(config, rows);
        let v_max = config.v_max() as f64;
        let pixels = drive.pixels();

        // Index every drive window (all positive passes, then all negative
        // passes) into a deduplicated window list, via the arena's
        // open-addressing table (≤ 0.5 load factor, linear probing over
        // the window bytes). The cache is adaptive: if the first windows
        // show no duplicates at all (e.g. an unpadded conv), hashing is
        // turned off for the rest — the result is identical either way,
        // only the work differs.
        const DEDUPE_PROBE: usize = 64;
        let mut dedupe = dedupe;
        let window_count = pixels * if drive.has_negative() { 2 } else { 1 };
        arena.unique_of.clear();
        arena.uniques.clear();
        let table_len = (2 * window_count).next_power_of_two();
        arena.table.clear();
        arena.table.resize(table_len, u32::MAX);
        let mask = table_len.wrapping_sub(1);
        for w in 0..window_count {
            let bytes = drive.window(w);
            let id = if dedupe {
                let mut idx = (hash_window(bytes) as usize) & mask;
                let id = loop {
                    let slot = arena.table[idx];
                    if slot == u32::MAX {
                        let id = u32::try_from(arena.uniques.len()).expect("window count fits u32");
                        arena.table[idx] = id;
                        arena.uniques.push(w as u32);
                        break id;
                    }
                    if drive.window(arena.uniques[slot as usize] as usize) == bytes {
                        break slot;
                    }
                    idx = (idx + 1) & mask;
                };
                if w + 1 == DEDUPE_PROBE && arena.uniques.len() == DEDUPE_PROBE {
                    dedupe = false;
                }
                id
            } else {
                arena.uniques.push(w as u32);
                (arena.uniques.len() - 1) as u32
            };
            arena.unique_of.push(id);
        }

        // One batched MVM over the flat row-major drive matrix of the
        // unique windows. All-dark windows skip the analog chain entirely
        // (they produce exactly zero in every column). Every buffer is
        // fully rewritten, so stale arena contents can never leak into
        // results.
        let n_uniques = arena.uniques.len();
        arena.drives.resize(n_uniques * rows, 0.0);
        arena.dark.clear();
        arena.dark.resize(n_uniques, false);
        for (u, &windex) in arena.uniques.iter().enumerate() {
            let window = drive.window(windex as usize);
            let dst = &mut arena.drives[u * rows..][..rows];
            if window.iter().all(|&v| v == 0) {
                arena.dark[u] = true;
                dst.fill(0.0);
                continue;
            }
            for (d, &v) in dst.iter_mut().zip(window) {
                *d = f64::from(v) / v_max;
            }
        }
        arena.ys.resize(n_uniques * pcols, 0.0);
        self.compiled
            .run_normalized_batch_with(&arena.drives, &mut arena.ys, &mut arena.scratch);

        // Digitize the batched column outputs and recover each unique
        // window's signed partials once, into a flat matrix.
        let lcols = self.mapped.logical_cols();
        arena.raw.resize(pcols, 0);
        arena.recovered.resize(n_uniques * lcols, 0);
        for (u, &windex) in arena.uniques.iter().enumerate() {
            if arena.dark[u] {
                arena.raw.fill(0);
            } else {
                for (r, &y) in arena.raw.iter_mut().zip(&arena.ys[u * pcols..][..pcols]) {
                    *r = readout.digitize(y);
                }
            }
            self.mapped.recover_into(
                &arena.raw,
                drive.window(windex as usize),
                &mut arena.recovered[u * lcols..][..lcols],
            );
        }

        // Assemble per-pixel partials — positive pass minus (optional)
        // negative pass — recovered straight into the flat partials
        // matrix, no per-pixel buffers.
        arena.partials.resize(pixels * lcols, 0);
        let (unique_of, recovered, partials) =
            (&arena.unique_of, &arena.recovered, &mut arena.partials);
        for (p, out) in partials.chunks_exact_mut(lcols).enumerate() {
            let pos = &recovered[unique_of[p] as usize * lcols..][..lcols];
            if drive.has_negative() {
                let neg = &recovered[unique_of[pixels + p] as usize * lcols..][..lcols];
                for (o, (&a, &b)) in out.iter_mut().zip(pos.iter().zip(neg)) {
                    *o = a - b;
                }
            } else {
                out.copy_from_slice(pos);
            }
        }
    }
}

/// Executes one weight tile against its input windows on the default
/// (compiled transfer-matrix) engine.
///
/// The tile's signed weights are mapped to unipolar codes, programmed into
/// a PCM array (with the config's variation/drift), propagated through a
/// tile-sized crossbar (with the config's phase errors/losses, seeded from
/// `seed`), read out per column, and recovered to signed integer partial
/// sums.
///
/// # Panics
///
/// Panics if the drive's window lengths disagree with the tile geometry.
#[must_use]
pub fn run_tile(
    tile: &WeightTile,
    drive: &TileDrive,
    config: &SimConfig,
    seed: u64,
) -> TileOutcome {
    run_tile_with(tile, drive, config, seed, MvmEngine::Compiled)
}

/// [`run_tile`] with an explicit [`MvmEngine`].
///
/// # Panics
///
/// Panics if the drive's window lengths disagree with the tile geometry.
#[must_use]
pub fn run_tile_with(
    tile: &WeightTile,
    drive: &TileDrive,
    config: &SimConfig,
    seed: u64,
    engine: MvmEngine,
) -> TileOutcome {
    match engine {
        MvmEngine::Compiled | MvmEngine::CompiledNoCache => CompiledTile::compile(
            tile, config, seed,
        )
        .execute(drive, config, engine == MvmEngine::Compiled),
        MvmEngine::FieldWalk => {
            let rows = tile.rows();
            assert_eq!(drive.rows(), rows, "windows must match tile rows");
            let programmed = program_tile(&tile.values, config, seed);
            let pcols = programmed.mapped.physical_cols();
            let readout = ReadoutChain::new(config, rows);
            let v_max = config.v_max() as f64;
            let mvm = |codes: &[u8]| -> Vec<i64> {
                if codes.iter().all(|&v| v == 0) {
                    // An all-dark drive produces exactly zero in every column.
                    return vec![0; pcols];
                }
                let inputs: Vec<f64> = codes.iter().map(|&v| f64::from(v) / v_max).collect();
                let ys = programmed
                    .sim
                    .run_normalized(&inputs, &programmed.transmissions);
                ys.iter().map(|&y| readout.digitize(y)).collect()
            };
            let pixels = drive.pixels();
            let mut partials = Vec::with_capacity(pixels);
            for p in 0..pixels {
                let raw_pos = mvm(drive.positive(p));
                let mut recovered = programmed.mapped.recover(&raw_pos, drive.positive(p));
                if let Some(negative) = drive.negative(p) {
                    let raw_neg = mvm(negative);
                    let rec_neg = programmed.mapped.recover(&raw_neg, negative);
                    for (r, n) in recovered.iter_mut().zip(rec_neg) {
                        *r -= n;
                    }
                }
                partials.push(recovered);
            }
            TileOutcome {
                partials,
                program: programmed.program,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oxbar_dataflow::tiles::WeightTiles;
    use oxbar_dataflow::FoldPlan;
    use oxbar_nn::synthetic;
    use oxbar_nn::{Conv2d, TensorShape};

    fn signed_mac(tile: &WeightTile, window: &[i64]) -> Vec<i64> {
        (0..tile.cols())
            .map(|c| {
                (0..tile.rows())
                    .map(|r| i64::from(tile.values[r][c]) * window[r])
                    .sum()
            })
            .collect()
    }

    #[test]
    fn ideal_tile_is_bit_exact_for_unsigned_windows() {
        let conv = Conv2d::new("c", TensorShape::new(1, 1, 40), 1, 1, 12, 1, 0);
        let bank = synthetic::filter_bank(&conv, 6, 3);
        let plan = FoldPlan::plan(&conv, 32, 8, 1);
        let config = SimConfig::ideal(32, 8);
        let tiles: Vec<_> = WeightTiles::new(&conv, &bank.weights, &plan).collect();
        assert!(tiles.len() > 1, "fold coverage");
        for (t, tile) in tiles.iter().enumerate() {
            let window: Vec<u8> = (0..tile.rows()).map(|r| (r * 7 % 64) as u8).collect();
            let drive = TileDrive::from_windows(std::slice::from_ref(&window), None);
            let out = run_tile(tile, &drive, &config, 99 + t as u64);
            let expected = signed_mac(
                tile,
                &window.iter().map(|&v| i64::from(v)).collect::<Vec<_>>(),
            );
            assert_eq!(out.partials[0], expected, "tile {t}");
            assert_eq!(
                out.program.cells_programmed,
                tile.rows() * tile.cols(),
                "offset mapping programs one cell per weight"
            );
        }
    }

    #[test]
    fn signed_windows_split_into_two_passes_exactly() {
        let conv = Conv2d::new("c", TensorShape::new(1, 1, 24), 1, 1, 6, 1, 0);
        let bank = synthetic::filter_bank(&conv, 6, 11);
        let plan = FoldPlan::plan(&conv, 32, 8, 1);
        let tile = WeightTiles::new(&conv, &bank.weights, &plan)
            .next()
            .unwrap();
        let window: Vec<i64> = (0..tile.rows() as i64).map(|r| (r % 13) - 6).collect();
        let drive = TileDrive::from_windows(
            &[window.iter().map(|&v| v.max(0) as u8).collect()],
            Some(&[window.iter().map(|&v| (-v).max(0) as u8).collect()]),
        );
        let out = run_tile(&tile, &drive, &SimConfig::ideal(32, 8), 5);
        assert_eq!(out.partials[0], signed_mac(&tile, &window));
    }

    #[test]
    fn differential_mapping_is_also_exact() {
        use oxbar_nn::mapping::WeightMapping;
        let conv = Conv2d::new("c", TensorShape::new(1, 1, 16), 1, 1, 4, 1, 0);
        let bank = synthetic::filter_bank(&conv, 6, 21);
        let plan = FoldPlan::plan(&conv, 32, 16, 2);
        let tile = WeightTiles::new(&conv, &bank.weights, &plan)
            .next()
            .unwrap();
        let window: Vec<u8> = (0..tile.rows()).map(|r| (r * 11 % 64) as u8).collect();
        let drive = TileDrive::from_windows(std::slice::from_ref(&window), None);
        let config = SimConfig::ideal(32, 16).with_mapping(WeightMapping::Differential);
        let out = run_tile(&tile, &drive, &config, 1);
        let expected = signed_mac(
            &tile,
            &window.iter().map(|&v| i64::from(v)).collect::<Vec<_>>(),
        );
        assert_eq!(out.partials[0], expected);
    }

    #[test]
    fn noise_perturbs_but_stays_reproducible() {
        let conv = Conv2d::new("c", TensorShape::new(1, 1, 64), 1, 1, 8, 1, 0);
        let bank = synthetic::filter_bank(&conv, 6, 31);
        let plan = FoldPlan::plan(&conv, 64, 8, 1);
        let tile = WeightTiles::new(&conv, &bank.weights, &plan)
            .next()
            .unwrap();
        let window: Vec<u8> = (0..tile.rows()).map(|r| (r * 5 % 64) as u8).collect();
        let drive = TileDrive::from_windows(std::slice::from_ref(&window), None);
        let config = SimConfig::noisy(64, 8);
        let a = run_tile(&tile, &drive, &config, 77);
        let b = run_tile(&tile, &drive, &config, 77);
        assert_eq!(a.partials, b.partials, "same seed, same result");
        let c = run_tile(&tile, &drive, &config, 78);
        assert_ne!(a.partials, c.partials, "different seed perturbs");
        let exact = signed_mac(
            &tile,
            &window.iter().map(|&v| i64::from(v)).collect::<Vec<_>>(),
        );
        assert_ne!(a.partials[0], exact, "noise shifts the MAC");
        // ... but not catastrophically: within a few percent of full scale.
        let full_scale = tile.rows() as f64 * 63.0 * 31.0;
        for (got, want) in a.partials[0].iter().zip(&exact) {
            assert!(((got - want).abs() as f64) < 0.05 * full_scale);
        }
    }
}
