//! Access-pattern replay with modelled disk costs.
//!
//! The paper's Figure 5 runs five full tree traversals on datasets of
//! 1–32 GB against 1–2 GB of RAM. Re-running that verbatim needs tens of
//! gigabytes of physical I/O; instead we *replay* the exact vector access
//! sequence of the traversals — through the out-of-core manager's own
//! bookkeeping ([`simulate`], which the tuner's model shares) and the real
//! page-reclaim machinery — pricing each counted store operation with a
//! [`DiskModel`] and adding a calibrated per-vector compute cost. The
//! scaled-down real-I/O runs (same binary, `--real`) validate that the
//! model reproduces the measured shape.

use ooc_core::{
    AccessRecord, DiskModel, Intent, OocConfig, OocStats, ReplacementStrategy, StrategyKind,
};
use pager_sim::{PageStats, PagedArena, SlotCacheSim, PAGE_SIZE};
use phylo_plf::kernels::newview::newview_inner_inner;
use phylo_plf::kernels::Dims;
use phylo_tree::traverse::{plan_traversal, Orientation, TraversalPlan};
use phylo_tree::Tree;
use serde::Serialize;
use std::time::Instant;

/// The access pattern of one full traversal plus its root evaluation, as
/// the engine issues it (the paper's `-f z` mode recomputes every vector
/// per traversal).
#[derive(Debug, Clone)]
pub struct TraversalPattern {
    plan: TraversalPlan,
    /// Number of inner nodes.
    pub n_items: usize,
}

/// Extract the full-traversal access pattern of a tree.
pub fn full_traversal_pattern(tree: &Tree) -> TraversalPattern {
    let mut orient = Orientation::new(tree.n_inner());
    TraversalPattern {
        plan: plan_traversal(tree, tree.default_root_edge(), &mut orient, true),
        n_items: tree.n_inner(),
    }
}

impl TraversalPattern {
    /// The traversal as pin groups — one per session the live engine
    /// opens (each stored combine, then the root evaluation), the shape
    /// [`pager_sim::SlotCacheSim::access_group`] consumes.
    pub fn pin_groups(&self) -> Vec<Vec<AccessRecord>> {
        self.plan.pin_groups().map(Iterator::collect).collect()
    }

    /// Kernel invocations per traversal: every combine, the ones whose
    /// vectors their readers rebuild included.
    pub fn combines(&self) -> usize {
        self.plan.steps.len()
    }

    /// The modelled cost of `k` traversals: the I/O charged, plus the
    /// calibrated compute cost of every combine.
    fn priced(
        &self,
        width: usize,
        k: usize,
        per_f64: f64,
        io_secs: f64,
        io_ops: u64,
    ) -> ReplayResult {
        let compute_secs = per_f64 * width as f64 * (self.combines() * k) as f64;
        ReplayResult {
            io_secs,
            io_ops,
            compute_secs,
            total_secs: io_secs + compute_secs,
        }
    }
}

/// Outcome of a replay.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ReplayResult {
    /// Modelled I/O time in seconds.
    pub io_secs: f64,
    /// Store/swap operations charged.
    pub io_ops: u64,
    /// Modelled compute time in seconds.
    pub compute_secs: f64,
    /// Total modelled wall time.
    pub total_secs: f64,
}

/// Calibrate the cost of one `newview` per `f64` of vector width by timing
/// the real inner/inner kernel. Returns seconds per f64.
pub fn calibrate_newview_secs_per_f64() -> f64 {
    use phylo_models::{DiscreteGamma, PMatrices, ReversibleModel};
    let dims = Dims {
        n_patterns: 2000,
        n_states: 4,
        n_cats: 4,
    };
    let model = ReversibleModel::jc69();
    let eigen = model.eigen();
    let gamma = DiscreteGamma::new(1.0, 4);
    let mut pm = PMatrices::new(4, 4);
    pm.update(&eigen, &gamma, 0.1);
    let left = vec![0.5f64; dims.width()];
    let right = vec![0.25f64; dims.width()];
    let scale = vec![0u32; dims.n_patterns];
    let mut parent = vec![0.0f64; dims.width()];
    let mut scale_p = vec![0u32; dims.n_patterns];
    let mut combine = || {
        newview_inner_inner(
            &dims,
            &mut parent,
            &mut scale_p,
            &left,
            &scale,
            &pm,
            &right,
            &scale,
            &pm,
        );
        std::hint::black_box(&parent);
    };
    // Warm-up + timed reps.
    let reps = 12;
    combine();
    let t0 = Instant::now();
    for _ in 0..reps {
        combine();
    }
    let dt = t0.elapsed().as_secs_f64() / reps as f64;
    dt / dims.width() as f64
}

/// Replay `rounds` full traversals through the out-of-core manager's own
/// bookkeeping and return what it counted — the one traversal replay,
/// behind Figure 5's model and the tuner's. `geometry` carries the
/// write-back mode: the paper's unconditional swap for the figure, dirty
/// tracking for the tuner. Under `oracle` the strategy sees the whole run
/// up front (with NextUse: Belady, a floor on any strategy's misses). No
/// vector is allocated, whatever the budget.
pub fn simulate(
    pattern: &TraversalPattern,
    geometry: impl Into<OocConfig>,
    strategy: Box<dyn ReplacementStrategy>,
    rounds: usize,
    oracle: bool,
) -> OocStats {
    let plan = pattern.plan.lower(pattern.n_items);
    let mut sim = SlotCacheSim::new(geometry, strategy);
    if oracle {
        sim.install_oracle_plan(plan.repeated(rounds));
    }
    sim.run_rounds(&plan, &pattern.pin_groups(), rounds);
    *sim.stats()
}

/// [`simulate`] `k` full traversals under a `-L` budget in the paper's
/// swap mode, every counted whole-vector transfer charged to a modelled
/// disk.
pub fn replay_ooc(
    pattern: &TraversalPattern,
    width: usize,
    ram_limit_bytes: u64,
    kind: StrategyKind,
    disk: DiskModel,
    k: usize,
    compute_secs_per_f64: f64,
) -> (ReplayResult, OocStats) {
    let cfg = OocConfig::builder(pattern.n_items, width)
        .byte_limit(ram_limit_bytes)
        .build()
        .expect("valid out-of-core config");
    let stats = simulate(pattern, cfg, kind.build(None), k, false);
    let io_ops = stats.disk_reads + stats.disk_writes;
    // Charged per transfer, each rounded down to whole nanoseconds.
    let io_secs = (io_ops * disk.op_cost_ns(width as u64 * 8)) as f64 / 1e9;
    let result = pattern.priced(width, k, compute_secs_per_f64, io_secs, io_ops);
    (result, stats)
}

/// Replay `k` full traversals through the virtual paging arena (standard
/// implementation: children read, parent written, all at page granularity
/// with CLOCK reclaim and no application knowledge).
pub fn replay_paged(
    pattern: &TraversalPattern,
    width: usize,
    phys_bytes: usize,
    disk: DiskModel,
    k: usize,
    compute_secs_per_f64: f64,
) -> (ReplayResult, PageStats) {
    let bytes = width * 8;
    let mut arena = PagedArena::new_virtual(pattern.n_items * bytes, phys_bytes);
    let groups = pattern.pin_groups();
    for _ in 0..k {
        for rec in groups.iter().flatten() {
            let write = rec.intent == Intent::Write;
            arena
                .touch_range(rec.item as usize * bytes, bytes, write)
                .unwrap();
        }
    }
    let stats = *arena.stats();
    let io_ops = stats.major_faults + stats.writebacks;
    // Cost model of 2010-era swap behaviour: the kernel's swap readahead /
    // writeback clustering (vm.page-cluster = 3) moves 8-page clusters per
    // device request, so a sequential same-kind run pays one seek per 8
    // pages plus streaming transfer; a discontiguous page pays a full seek.
    const SWAP_CLUSTER: f64 = 8.0;
    let sequential = stats.sequential_major_faults + stats.sequential_writebacks;
    let random = io_ops - sequential;
    let transfer_ns = (PAGE_SIZE as u64 * 1_000_000_000 / disk.bandwidth_bytes_per_sec) as f64;
    let io_secs = (random as f64 * disk.op_cost_ns(PAGE_SIZE as u64) as f64
        + sequential as f64 * (transfer_ns + disk.seek_ns as f64 / SWAP_CLUSTER))
        / 1e9;
    let result = pattern.priced(width, k, compute_secs_per_f64, io_secs, io_ops);
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_tree::build::random_topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pattern(n: usize) -> TraversalPattern {
        let tree = random_topology(n, 0.1, &mut StdRng::seed_from_u64(1));
        full_traversal_pattern(&tree)
    }

    #[test]
    fn pattern_covers_every_stored_vector_once() {
        let p = pattern(50);
        assert_eq!(p.combines(), 48);
        let groups = p.pin_groups();
        let mut written: Vec<u32> = groups
            .iter()
            .flatten()
            .filter(|r| r.intent == Intent::Write)
            .map(|r| r.item)
            .collect();
        let rebuilt = p.plan.steps.iter().filter(|s| s.is_rebuilt()).count();
        assert!(rebuilt > 0);
        assert_eq!(written.len(), 48 - rebuilt);
        written.sort_unstable();
        written.dedup();
        assert_eq!(written.len(), 48 - rebuilt);
        // One producer: the groups are the plan, cut into sessions.
        let flat: Vec<AccessRecord> = groups.into_iter().flatten().collect();
        assert_eq!(flat, p.plan.lower(p.n_items).records());
    }

    #[test]
    fn ooc_replay_when_fitting_does_no_io_after_warmup() {
        let p = pattern(20);
        let width = 1024;
        let (res, stats) = replay_ooc(
            &p,
            width,
            (p.n_items * width * 8) as u64, // everything fits
            StrategyKind::Lru,
            DiskModel::hdd_2010(),
            3,
            1e-9,
        );
        assert_eq!(stats.disk_reads, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(res.io_ops, 0);
        assert!(res.compute_secs > 0.0);
    }

    #[test]
    fn oversubscribed_replay_paging_costs_dominate() {
        // 8x oversubscription: the paged replay must charge far more I/O
        // time than the out-of-core replay at identical geometry, because
        // read skipping removes all reads in full traversals and vector
        // transfers amortise seeks.
        let p = pattern(64);
        let width = 64 * 1024; // 512 KiB vectors
        let total = (p.n_items * width * 8) as u64;
        let budget = total / 8;
        let disk = DiskModel::hdd_2010();
        let c = 1e-9;
        let (ooc, ostats) = replay_ooc(&p, width, budget, StrategyKind::Lru, disk, 5, c);
        let (paged, pstats) = replay_paged(&p, width, budget as usize, disk, 5, c);
        assert!(ostats.misses > 0 && pstats.major_faults > 0);
        assert!(
            paged.io_secs > ooc.io_secs,
            "paging {} vs ooc {}",
            paged.io_secs,
            ooc.io_secs
        );
        // Every modelled transfer costs at least the seek latency.
        assert!(ooc.io_ops > 0);
        assert!(ooc.io_secs >= ooc.io_ops as f64 * disk.seek_ns as f64 / 1e9);
        // Identical compute charge.
        assert_eq!(ooc.compute_secs, paged.compute_secs);
    }

    #[test]
    fn calibration_is_sane() {
        let c = calibrate_newview_secs_per_f64();
        // Between 10 ps and 2 µs per f64 — wide enough for debug builds.
        assert!(c > 1e-11 && c < 2e-6, "calibrated {c}");
    }
}
