//! Serializable snapshots of a chip's programmed tile state.
//!
//! A PCM crossbar is **non-volatile**: once programmed, the array state
//! persists with no standby power, so "what is resident on this chip" is
//! durable state worth capturing. A [`ChipSnapshot`] records everything
//! needed to reconstruct an executor's weight-stationary cache
//! bit-exactly — the signed weight codes of every resident tile, the
//! per-tile seed its stochastic streams (PCM programming variation,
//! phase errors) were drawn from, and the admission-time
//! configuration — without touching the original filter banks.
//!
//! [`crate::DeviceExecutor::snapshot`] captures a chip;
//! [`crate::DeviceExecutor::restore`] rebuilds one. Because every tile is
//! a deterministic function of `(codes, config, seed)`, the
//! restored chip's forward passes are byte-identical to the source chip's
//! — the property multi-chip serving uses to *migrate* a hot model
//! between chips without replaying its admission history.

use crate::config::SimConfig;
use oxbar_pcm::ProgramReport;
use serde::{Deserialize, Serialize};

/// One resident tile of a [`ChipSnapshot`]: the non-volatile codes plus
/// the deterministic seed that reconstructs its compiled state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileSnapshot {
    /// Network layer index the tile belongs to.
    pub layer: usize,
    /// Fold-tile index within the layer.
    pub tile: usize,
    /// The per-tile seed ([`crate::config::tile_seed`]) the tile's
    /// stochastic streams were drawn from.
    pub seed: u64,
    /// Logical rows of the signed code matrix.
    pub rows: usize,
    /// Signed weight codes, flat column-major (`cols × rows`) — exactly
    /// [`crate::tile::CompiledTile::values`].
    pub values: Vec<i8>,
    /// The programming report of the original compile; restore verifies
    /// its recompile against this record.
    pub program: ProgramReport,
}

/// A full serializable image of one executor's programmed tile state.
///
/// Produced by [`crate::DeviceExecutor::snapshot`], consumed by
/// [`crate::DeviceExecutor::restore`]. Round-trips through the workspace
/// serde shim (`serde_json`), so chips can be persisted, shipped between
/// processes, or migrated between cluster slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipSnapshot {
    /// The executor's full configuration, **including** its admission
    /// seed (`config.seed`) — per-tile seeds derive from it.
    pub config: SimConfig,
    /// The weight-stationary cell budget the cache admits against.
    pub cache_budget: usize,
    /// Lifetime cache-hit counter at capture time.
    pub hits: u64,
    /// Lifetime cache-miss counter at capture time.
    pub misses: u64,
    /// Every resident tile, in deterministic `(layer, tile)` order.
    pub tiles: Vec<TileSnapshot>,
}

impl ChipSnapshot {
    /// Total crossbar cells of compiled state the snapshot carries
    /// (what the restored cache's occupancy will be).
    #[must_use]
    pub fn cells(&self) -> usize {
        self.tiles
            .iter()
            .map(|t| {
                let cols = t.values.len().checked_div(t.rows).unwrap_or(0);
                t.rows * cols * self.config.mapping.columns_per_output()
            })
            .sum()
    }
}
