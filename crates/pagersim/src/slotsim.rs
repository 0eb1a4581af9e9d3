//! Plan-driven simulation of the out-of-core vector manager.
//!
//! [`SlotCacheSim`] is `ooc_core`'s `SlotTable` — the bookkeeping every
//! `VectorManager` runs — with no slot buffers and no store behind it, so
//! its counters are the manager's by construction. This module keeps the
//! simulator's historical home and its positional [`SimGeometry`] builder.

use ooc_core::OocConfig;
pub use ooc_core::SlotCacheSim;

/// Slot geometry and policy switches of one simulated manager: an
/// [`OocConfig`] with an exact slot count, under the manager's defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimGeometry {
    /// Managed items.
    pub n_items: usize,
    /// Vector width in `f64`s (feeds the byte counters only).
    pub width: usize,
    /// RAM slots.
    pub n_slots: usize,
    /// §3.4 read skipping.
    pub read_skipping: bool,
    /// Write every evicted vector back even if clean.
    pub always_write_back: bool,
}

impl SimGeometry {
    /// Geometry with the manager's defaults. Panics on what
    /// `OocConfigBuilder::build` rejects: empty geometry or a slot count
    /// outside `[3, max(n_items, 3)]`.
    pub fn new(n_items: usize, width: usize, n_slots: usize) -> Self {
        let cfg = OocConfig::builder(n_items, width)
            .slots(n_slots)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        SimGeometry {
            n_items,
            width,
            n_slots,
            read_skipping: cfg.read_skipping,
            always_write_back: cfg.always_write_back,
        }
    }

    /// Toggle §3.4 read skipping.
    pub fn read_skipping(mut self, on: bool) -> Self {
        self.read_skipping = on;
        self
    }

    /// Toggle unconditional write-back on eviction.
    pub fn always_write_back(mut self, on: bool) -> Self {
        self.always_write_back = on;
        self
    }

    /// No effect; kept until ROADMAP item 1 re-bases `benchmark/`.
    pub fn window(self, _window: usize) -> Self {
        self
    }
}

impl From<SimGeometry> for OocConfig {
    fn from(geo: SimGeometry) -> OocConfig {
        OocConfig {
            n_items: geo.n_items,
            width: geo.width,
            n_slots: geo.n_slots,
            read_skipping: geo.read_skipping,
            always_write_back: geo.always_write_back,
        }
    }
}
