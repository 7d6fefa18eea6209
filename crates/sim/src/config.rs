//! Configuration for the device-level inference pipeline.

use oxbar_nn::mapping::WeightMapping;
use oxbar_pcm::PcmCell;
use oxbar_units::Time;
use serde::{Deserialize, Serialize};

/// How a column's analog output becomes a digital partial sum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Readout {
    /// An idealized converter with unbounded resolution: the normalized
    /// column output is scaled and rounded to the nearest integer. This is
    /// the mode in which the pipeline is *bit-exact* against the integer
    /// reference executor.
    Exact,
    /// The physical receive chain: the column amplitude drives a
    /// photocurrent into the paper's TIA, whose output voltage is
    /// digitized by a uniform `bits`-resolution ADC before the digital
    /// accumulator.
    Adc {
        /// ADC resolution in bits (1..=16).
        bits: u8,
    },
}

/// The device non-idealities applied during a run.
///
/// [`NoiseModel::NONE`] is the ideal chain; [`NoiseModel::paper_typical`]
/// turns on every physical effect at the magnitudes the fidelity study
/// (`oxbar-core::fidelity`) uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// PCM cycle-to-cycle programming sigma (crystalline-fraction units).
    pub pcm_sigma: f64,
    /// Amorphous-drift exponent ν (0 disables drift).
    pub drift_nu: f64,
    /// How long programmed weights sit before being read.
    pub drift_elapsed: Time,
    /// Physical time each virtual scheduler tick adds to a resident
    /// tile's age ([`Time::ZERO`] disables aging). When non-zero and
    /// `drift_nu > 0`, cached tiles re-derive their drifted transmissions
    /// at `drift_elapsed + age · drift_tick`, where age counts dispatch
    /// ticks since the tile was programmed — never wall clock, so aged
    /// readouts stay byte-identical across thread counts and reruns.
    pub drift_tick: Time,
    /// Per-cell phase-error sigma (radians).
    pub phase_sigma_rad: f64,
    /// Thermal-trimmer quantization step (radians); 0 disables trimming.
    pub trim_resolution_rad: f64,
    /// Component losses with path-loss pre-compensation enabled.
    pub with_losses: bool,
    /// Use the realistic GST device (0.3 dB amorphous floor, 40 dB
    /// extinction) instead of the idealized lossless/infinite-extinction
    /// cell. The realistic device cannot express weight code 0 exactly —
    /// its extinction floor is the dominant systematic error in an
    /// otherwise noise-free chain.
    pub realistic_device: bool,
}

impl NoiseModel {
    /// The ideal chain: no variation, drift, phase error, or loss, and an
    /// idealized PCM device whose 64 levels are exact.
    pub const NONE: Self = Self {
        pcm_sigma: 0.0,
        drift_nu: 0.0,
        drift_elapsed: Time::ZERO,
        drift_tick: Time::ZERO,
        phase_sigma_rad: 0.0,
        trim_resolution_rad: 0.0,
        with_losses: false,
        realistic_device: false,
    };

    /// Every physical effect at typical magnitudes: 1% PCM programming
    /// sigma, ν = 0.01 drift over one hour, 0.02 rad phase error with
    /// 0.01 rad trimmers, compensated losses, realistic device.
    #[must_use]
    pub fn paper_typical() -> Self {
        Self {
            pcm_sigma: 0.01,
            drift_nu: 0.01,
            drift_elapsed: Time::from_seconds(3600.0),
            drift_tick: Time::ZERO,
            phase_sigma_rad: 0.02,
            trim_resolution_rad: 0.01,
            with_losses: true,
            realistic_device: true,
        }
    }

    /// Whether every knob is at its ideal setting.
    #[must_use]
    pub fn is_ideal(&self) -> bool {
        *self == Self::NONE
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::NONE
    }
}

/// Full configuration of the device-level executor.
///
/// # Examples
///
/// ```
/// use oxbar_sim::SimConfig;
///
/// let cfg = SimConfig::ideal(128, 128);
/// assert_eq!(cfg.q(), 31);       // INT6 signed weight range
/// assert_eq!(cfg.v_max(), 63);   // INT6 unsigned activation range
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Crossbar rows (N) available per tile.
    pub array_rows: usize,
    /// Crossbar columns (M) available per tile.
    pub array_cols: usize,
    /// Signed→unipolar weight mapping scheme.
    pub mapping: WeightMapping,
    /// Activation precision in bits (the paper's INT6).
    pub activation_bits: u8,
    /// Weight precision in bits (the paper's INT6).
    pub weight_bits: u8,
    /// Column readout model.
    pub readout: Readout,
    /// Device non-idealities.
    pub noise: NoiseModel,
    /// Base seed; per-tile streams derive deterministically from it.
    pub seed: u64,
    /// Worker threads for per-tile execution (0 = all cores, 1 = serial).
    /// Results are byte-identical regardless of the thread count.
    pub threads: usize,
}

impl SimConfig {
    /// An ideal (bit-exact) pipeline on an `rows × cols` array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn ideal(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        Self {
            array_rows: rows,
            array_cols: cols,
            mapping: WeightMapping::Offset,
            activation_bits: 6,
            weight_bits: 6,
            readout: Readout::Exact,
            noise: NoiseModel::NONE,
            seed: 0,
            threads: 0,
        }
    }

    /// A noisy pipeline: [`NoiseModel::paper_typical`] devices read out
    /// through the TIA and a 12-bit ADC.
    #[must_use]
    pub fn noisy(rows: usize, cols: usize) -> Self {
        Self {
            readout: Readout::Adc { bits: 12 },
            noise: NoiseModel::paper_typical(),
            ..Self::ideal(rows, cols)
        }
    }

    /// Overrides the weight mapping.
    #[must_use]
    pub fn with_mapping(mut self, mapping: WeightMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Overrides the readout model.
    #[must_use]
    pub fn with_readout(mut self, readout: Readout) -> Self {
        self.readout = readout;
        self
    }

    /// Overrides the noise model.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Overrides the per-tick aging rate (see [`NoiseModel::drift_tick`]).
    #[must_use]
    pub fn with_drift_tick(mut self, tick: Time) -> Self {
        self.noise.drift_tick = tick;
        self
    }

    /// Overrides the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the thread count (0 = all cores, 1 = serial).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The signed weight-code bound `Q = 2^(bits−1) − 1` (31 for INT6).
    #[must_use]
    pub fn q(&self) -> i8 {
        ((1i16 << (self.weight_bits - 1)) - 1) as i8
    }

    /// The unsigned activation ceiling `2^bits − 1` (63 for INT6).
    #[must_use]
    pub fn v_max(&self) -> i64 {
        (1i64 << self.activation_bits) - 1
    }

    /// The PCM level-table code ceiling `2^weight_bits − 1`; unipolar
    /// weight codes are programmed as `u / table_max` of full scale so the
    /// level quantization is the identity on integer codes.
    #[must_use]
    pub fn table_max(&self) -> u16 {
        (1u16 << self.weight_bits) - 1
    }

    /// The PCM device the tiles are built from.
    ///
    /// The idealized cell is lossless when amorphous and has 320 dB
    /// extinction, which makes every level — including code 0 — exact to
    /// machine precision; the realistic cell is the paper's GST patch.
    #[must_use]
    pub fn device(&self) -> PcmCell {
        if self.noise.realistic_device {
            PcmCell::pristine()
        } else {
            PcmCell::pristine().with_loss_range(0.0, 320.0)
        }
    }
}

/// Derives the deterministic seed for one tile of one layer.
///
/// Every stochastic element of a tile (phase-error draw, PCM programming
/// variation) is seeded from this value, so per-tile execution is
/// reproducible and independent of scheduling order — the property that
/// makes parallel execution byte-identical to serial.
#[must_use]
pub fn tile_seed(base: u64, layer_index: usize, tile_index: usize) -> u64 {
    // SplitMix64-style mixing of the three coordinates.
    let mut z = base
        .wrapping_add((layer_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((tile_index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_preset_is_ideal() {
        let cfg = SimConfig::ideal(64, 64);
        assert!(cfg.noise.is_ideal());
        assert_eq!(cfg.readout, Readout::Exact);
        assert_eq!(cfg.table_max(), 63);
    }

    #[test]
    fn noisy_preset_turns_everything_on() {
        let cfg = SimConfig::noisy(64, 64);
        assert!(!cfg.noise.is_ideal());
        assert!(cfg.noise.realistic_device);
        assert_eq!(cfg.readout, Readout::Adc { bits: 12 });
    }

    #[test]
    fn ideal_device_levels_are_exact() {
        let cfg = SimConfig::ideal(8, 8);
        let device = cfg.device();
        assert!((device.max_transmission() - 1.0).abs() < 1e-12);
        assert!(device.min_transmission() < 1e-15);
    }

    #[test]
    fn tile_seeds_are_distinct_and_stable() {
        let a = tile_seed(42, 0, 0);
        assert_eq!(a, tile_seed(42, 0, 0));
        assert_ne!(a, tile_seed(42, 0, 1));
        assert_ne!(a, tile_seed(42, 1, 0));
        assert_ne!(a, tile_seed(43, 0, 0));
    }
}
