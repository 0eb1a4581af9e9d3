//! What the benchmark measures: the geometry, the workloads and the two
//! metric tables. `BENCHMARK.json` and `spec.json` repeat the names; the
//! `check` subcommand holds all three equal.

use crate::json::{self, Value};
use ooc_core::StrategyKind;
use phylo_plf::{EngineSpec, Residency};

/// Size of the simulated dataset and of the out-of-core RAM budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    pub name: &'static str,
    pub n_taxa: usize,
    pub n_sites: usize,
    /// Slot RAM of the out-of-core workloads (`file-limit`), in bytes.
    pub budget_bytes: u64,
}

/// The measured geometry: 1022 ancestral vectors of about 256.5 KiB,
/// 256 MiB in all, against a 64 MiB budget (f = 0.25).
pub const FULL: Geometry = Geometry {
    name: "full",
    n_taxa: 1024,
    n_sites: 2052,
    budget_bytes: 64 << 20,
};

/// The smoke geometry of `--quick` and of the package's tests: 46 vectors
/// of at most 37.5 KiB against a budget of about a quarter of them.
pub const QUICK: Geometry = Geometry {
    name: "quick",
    n_taxa: 48,
    n_sites: 300,
    budget_bytes: 420 << 10,
};

/// Γ shape of the simulation and of every engine.
pub const ALPHA: f64 = 0.8;
/// Γ categories (the paper always uses 4).
pub const N_CATS: usize = 4;
/// Mean branch length of the simulated tree.
pub const MEAN_BRANCH: f64 = 0.12;

/// SPR rearrangement radius of a `search-ooc` unit.
pub const SPR_RADIUS: u32 = 5;
/// Newton–Raphson iterations per re-optimised branch.
pub const NR_ITER: u32 = 8;
/// Improvement a candidate must show over the current lnL to be applied.
pub const SPR_EPSILON: f64 = 1e-3;

/// Blocks the timed region is cut into for `units_per_s`.
pub const BLOCKS: usize = 10;
/// Floor of the timed unit count at the full geometry.
pub const MIN_TIMED_UNITS: usize = 200;
/// Timed and warm-up units of a `--quick` run.
pub const QUICK_UNITS: usize = 10;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 11;
/// Units of each twin probe at the end of `trav-ooc`'s traced run.
pub const PROBE_UNITS: usize = 25;

pub const FLUSH_POLICY: &str = "fresh vector file per set-up on the checkout's filesystem; \
     no fsync in the timed region; page cache warm (sandbox numbers, not a device's)";

/// A workload of the program, as `BENCHMARK.json` lists them. `trav-ooc`'s
/// `exp` twin is not one: it is a probe of the traced run (README.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TravInram,
    TravOoc,
    SearchOoc,
}

impl Workload {
    /// In `BENCHMARK.json`'s order.
    pub const ALL: [Workload; 3] = [Workload::TravInram, Workload::TravOoc, Workload::SearchOoc];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TravInram => "trav-inram",
            Workload::TravOoc => "trav-ooc",
            Workload::SearchOoc => "search-ooc",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_search(self) -> bool {
        self == Workload::SearchOoc
    }

    pub fn is_ooc(self) -> bool {
        self != Workload::TravInram
    }

    /// The engine a user would declare for this workload. One thread:
    /// no I/O workers, one shard.
    pub fn engine_spec(self, geom: &Geometry) -> EngineSpec {
        EngineSpec {
            residency: if self.is_ooc() {
                Residency::FileLimit {
                    limit_bytes: geom.budget_bytes,
                }
            } else {
                Residency::InRam
            },
            strategy: StrategyKind::Lru,
            shards: 1,
            io_threads: 0,
            compression: None,
            alpha: ALPHA,
            n_cats: N_CATS,
            ..EngineSpec::default()
        }
    }

    /// Units per second of `--seconds`, frozen in `spec.json` after one
    /// calibration on the builder's box so that the timed region lasts
    /// about `--seconds` there. The count is fixed, not the time: a faster
    /// program finishes sooner and every count repeats exactly.
    pub fn units_per_run_second(self) -> f64 {
        frozen()
            .get("units_per_run_second")
            .and_then(|t| t.get(self.name()))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("spec.json: no units_per_run_second for {}", self.name()))
    }

    /// Timed units of an untraced run of `seconds`: a multiple of
    /// [`BLOCKS`], never below [`MIN_TIMED_UNITS`].
    pub fn timed_units(self, seconds: u32) -> usize {
        let raw = (self.units_per_run_second() * f64::from(seconds)).round() as usize;
        raw.max(MIN_TIMED_UNITS).div_ceil(BLOCKS) * BLOCKS
    }
}

/// Warm-up units ahead of `timed` timed ones: 5 %, at least 3.
pub fn warmup_units(timed: usize) -> usize {
    (timed / 20).max(3)
}

/// The committed `spec.json`, parsed once.
pub fn frozen() -> &'static Value {
    static SPEC: std::sync::OnceLock<Value> = std::sync::OnceLock::new();
    SPEC.get_or_init(|| {
        json::parse(include_str!("../spec.json")).expect("benchmark/spec.json is valid JSON")
    })
}

/// `(evaluated, applied)` frozen for a `search-ooc` run of `units` timed
/// units at the full geometry on `seed`, if `spec.json` has that row.
pub fn frozen_search_counts(seed: u64, units: usize) -> Option<(u64, u64)> {
    frozen()
        .get("search_counts")?
        .as_arr()?
        .iter()
        .find(|row| {
            row.get("seed").and_then(Value::as_f64) == Some(seed as f64)
                && row.get("units").and_then(Value::as_f64) == Some(units as f64)
        })
        .and_then(|row| {
            Some((
                row.get("evaluated")?.as_f64()? as u64,
                row.get("applied")?.as_f64()? as u64,
            ))
        })
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, measured with tracing off. Bounds follow the rule
/// in README.md ("Bounds") from the committed A/A run.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("units_per_s", "1/s", "higher", 0.25),
    e2e("unit_ms_p50", "ms", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.05),
];

/// Per-layer metrics, from the traced run. A metric that does not exist on
/// a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 60] = [
    layer("driver.trace_overhead_frac", "ratio", "lower"),
    layer("driver.budget_residual_frac", "ratio", "lower"),
    layer("driver.unit_ms_p90", "ms", "lower"),
    layer("driver.runq_wait_frac", "ratio", "lower"),
    layer("driver.cpu_ms_per_unit", "ms", "lower"),
    layer("io.read_mib_per_unit", "MiB", "lower"),
    layer("io.write_mib_per_unit", "MiB", "lower"),
    layer("io.disk_mib", "MiB", "lower"),
    layer("plf.kernels.newview_ii_ns_per_pattern", "ns", "lower"),
    layer("plf.kernels.newview_ti_ns_per_pattern", "ns", "lower"),
    layer("plf.kernels.newview_tt_ns_per_pattern", "ns", "lower"),
    layer("plf.kernels.evaluate_ns_per_pattern", "ns", "lower"),
    layer("plf.kernels.derivative_ns_per_pattern", "ns", "lower"),
    layer("plf.kernels.bytes_per_pattern_computed", "B", "lower"),
    layer("plf.kernels.flops_per_byte_computed", "flop/B", "higher"),
    layer("plf.engine.combines", "count", "lower"),
    layer("plf.engine.pattern_updates", "count", "lower"),
    layer("plf.engine.lease_busy_s", "s", "lower"),
    layer("plf.engine.self_s", "s", "lower"),
    layer("core.manager.requests", "count", "lower"),
    layer("core.manager.hits", "count", "higher"),
    layer("core.manager.misses", "count", "lower"),
    layer("core.manager.evictions", "count", "lower"),
    layer("core.manager.skipped_reads", "count", "higher"),
    layer("core.manager.cold_loads", "count", "lower"),
    layer("core.manager.staged_loads", "count", "higher"),
    layer("core.manager.miss_rate", "ratio", "lower"),
    layer("core.manager.skip_fraction", "ratio", "higher"),
    layer("core.manager.dirty_evict_frac", "ratio", "lower"),
    layer("core.manager.acquire_s", "s", "lower"),
    layer("core.manager.self_s", "s", "lower"),
    layer("core.manager.self_ns_per_request", "ns", "lower"),
    layer("core.strategy.misses_over_opt", "ratio", "lower"),
    layer("core.store.reads", "count", "lower"),
    layer("core.store.writes", "count", "lower"),
    layer("core.store.read_mib", "MiB", "lower"),
    layer("core.store.write_mib", "MiB", "lower"),
    layer("core.store.read_busy_s", "s", "lower"),
    layer("core.store.write_busy_s", "s", "lower"),
    layer("core.store.read_us_p50", "us", "lower"),
    layer("core.store.write_us_p50", "us", "lower"),
    layer("core.store.write_us_p90", "us", "lower"),
    layer("core.store.flush_s", "s", "lower"),
    layer("core.store.cold_read_mibps", "MiB/s", "higher"),
    layer("core.compress.codec_s", "s", "lower"),
    layer("core.compress.ratio", "ratio", "higher"),
    layer("core.compress.encode_ns_per_f64", "ns", "lower"),
    layer("core.compress.decode_ns_per_f64", "ns", "lower"),
    layer("core.compress.twin_unit_ms_p50", "ms", "lower"),
    layer("core.prefetch.twin_unit_ms_p50", "ms", "lower"),
    layer("core.prefetch.twin_peak_rss_mib", "MiB", "lower"),
    layer("core.prefetch.blocked_s", "s", "lower"),
    layer("core.prefetch.worker_busy_s", "s", "lower"),
    layer("core.prefetch.overlap_frac", "ratio", "higher"),
    layer("core.prefetch.staged_hit_frac", "ratio", "higher"),
    layer("core.obs.recorder_overhead_frac", "ratio", "lower"),
    layer("search.evaluated", "count", "lower"),
    layer("search.applied", "count", "higher"),
    layer("search.eval_us_p50", "us", "lower"),
    layer("search.nr_us_p50", "us", "lower"),
];

/// Count metrics: they must repeat exactly for one `(seed, units)`.
pub const COUNT_METRICS: [&str; 14] = [
    "plf.engine.combines",
    "plf.engine.pattern_updates",
    "core.manager.requests",
    "core.manager.hits",
    "core.manager.misses",
    "core.manager.evictions",
    "core.manager.skipped_reads",
    "core.manager.cold_loads",
    "core.manager.staged_loads",
    "core.store.reads",
    "core.store.writes",
    "core.strategy.misses_over_opt",
    "search.evaluated",
    "search.applied",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_counts_are_block_multiples_above_the_floor() {
        for w in Workload::ALL {
            for seconds in [1, 10, 30, 60] {
                let n = w.timed_units(seconds);
                assert!(
                    n >= MIN_TIMED_UNITS && n % BLOCKS == 0,
                    "{} {seconds}",
                    w.name()
                );
            }
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(warmup_units(200), 10);
        assert_eq!(warmup_units(20), 3);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for c in COUNT_METRICS {
            assert!(PER_LAYER.iter().any(|m| m.name == c), "{c} not declared");
        }
    }
}
