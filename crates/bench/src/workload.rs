//! The canonical search workload driving the miss-rate experiments.
//!
//! Figures 2–4 of the paper instrument RAxML tree searches on the 1288-
//! and 1908-taxon datasets. Our equivalent: a fixed, seeded hill-climbing
//! workload (lazy SPR rounds + branch smoothing) over a simulated dataset
//! of the same geometry, executed out-of-core with the strategy and memory
//! fraction under test. The workload is deterministic, so every (strategy,
//! f) cell sees the *identical* access request stream — exactly the
//! property that makes the paper's miss-rate comparison meaningful.

use ooc_core::{AccessPlan, MemStore, OocConfig, OocStats, Recorder, StrategyKind, VectorManager};
use phylo_ooc::plf::oracle::build_strategy;
use phylo_ooc::run::MetricsFile;
use phylo_ooc::setup::Dataset;
use phylo_plf::{OocStore, PlfEngine};
use phylo_search::lazy_spr_round;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::Serialize;

/// Knobs of the miss-rate workload.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WorkloadSpec {
    /// Lazy SPR rounds.
    pub spr_rounds: usize,
    /// Rearrangement radius.
    pub radius: u32,
    /// Branch-smoothing passes per round.
    pub smooth_passes: usize,
    /// Newton iterations per branch.
    pub nr_iter: u32,
    /// Seed for the subtree visiting order.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            spr_rounds: 1,
            radius: 5,
            smooth_passes: 1,
            nr_iter: 8,
            seed: 11,
        }
    }
}

/// Result of one workload cell.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CellResult {
    /// Strategy label.
    pub strategy: &'static str,
    /// Memory fraction `f`.
    pub fraction: f64,
    /// Slots actually allocated (`m`).
    pub n_slots: usize,
    /// Final log-likelihood (must agree across all cells of a sweep).
    pub lnl: f64,
    /// Miss rate over the instrumented phase.
    pub miss_rate: f64,
    /// Read rate (misses that performed a store read).
    pub read_rate: f64,
    /// Fraction of would-be reads avoided by read skipping.
    pub skip_fraction: f64,
    /// Raw request count.
    pub requests: u64,
    /// Raw miss count.
    pub misses: u64,
    /// Store reads.
    pub disk_reads: u64,
    /// Store writes.
    pub disk_writes: u64,
}

/// How one workload cell participates in the two-pass Belady oracle.
enum Pass {
    /// Plain online run (every heuristic strategy).
    Online,
    /// Record the access stream of the measured phase.
    Record,
    /// Replay with the recorded full-run plan installed as the oracle.
    Replay(AccessPlan),
}

/// Run the workload out-of-core with an explicit manager configuration
/// (callers tweak `read_skipping` etc.) and return the statistics of the
/// steady-state phase (a warm-up full evaluation is excluded, mirroring
/// the paper's focus on search-time behaviour).
///
/// The NextUse cell runs twice: a recording pass (under LRU) captures the
/// exact access stream the deterministic workload produces, then the
/// measured pass replays it with the full-run plan installed as the
/// manager's oracle — true Belady/OPT replacement, guaranteed to
/// lower-bound every online strategy on the identical stream (a per-plan
/// NextUse is greedy across traversal boundaries and measurably is not).
///
/// The optional recorder `obs` is attached *after* the warm-up evaluation
/// (whose counters are reset), so the emitted events and histograms
/// reconcile exactly with the cell's reported [`OocStats`]: demand-read
/// events == `disk_reads`, write-back events == `disk_writes`. The NextUse
/// recording pass is never observed — only the measured replay is.
pub fn run_search_workload(
    data: &Dataset,
    cfg: OocConfig,
    kind: StrategyKind,
    spec: &WorkloadSpec,
    obs: Option<&Recorder>,
) -> CellResult {
    if kind == StrategyKind::NextUse {
        let (_, recording) = run_pass(data, cfg, StrategyKind::Lru, spec, Pass::Record, None);
        let plan = recording.expect("recording pass must yield a plan");
        run_pass(data, cfg, kind, spec, Pass::Replay(plan), obs).0
    } else {
        run_pass(data, cfg, kind, spec, Pass::Online, obs).0
    }
}

/// The miss-rate sweep behind Figures 2–4 and the supplement: the search
/// workload once per (fraction × strategy × read-skipping) cell, returned
/// in that nesting order — every cell over the identical request stream.
/// `scope` names a cell's metrics scope from its nominal fraction, its
/// resolved manager configuration and its strategy. Cells run in parallel
/// unless `--metrics` is on: one shared JSONL stream means they must not
/// interleave.
pub fn sweep(
    data: &Dataset,
    workload: &WorkloadSpec,
    fractions: &[f64],
    strategies: &[StrategyKind],
    read_skipping: &[bool],
    metrics: &MetricsFile,
    scope: impl Fn(f64, &OocConfig, StrategyKind) -> String + Sync,
) -> Vec<CellResult> {
    let mut cells = Vec::new();
    for &f in fractions {
        for &kind in strategies {
            for &skip in read_skipping {
                let cfg = OocConfig::builder(data.n_items(), data.width(0))
                    .fraction(f)
                    .read_skipping(skip)
                    .build()
                    .expect("valid out-of-core config");
                cells.push((f, cfg, kind));
            }
        }
    }
    let run_one = |&(f, cfg, kind): &(f64, OocConfig, StrategyKind)| {
        let rec = metrics
            .recorder(scope(f, &cfg, kind))
            .expect("metrics stream");
        run_search_workload(data, cfg, kind, workload, rec.as_ref())
    };
    if metrics.enabled() {
        cells.iter().map(run_one).collect()
    } else {
        cells.par_iter().map(run_one).collect()
    }
}

fn run_pass(
    data: &Dataset,
    mut cfg: OocConfig,
    kind: StrategyKind,
    spec: &WorkloadSpec,
    pass: Pass,
    obs: Option<&Recorder>,
) -> (CellResult, Option<AccessPlan>) {
    cfg.n_items = data.n_items();
    cfg.width = data.width(0);
    let (strategy, handle) = build_strategy(kind, &data.tree);
    let manager = VectorManager::new(cfg, strategy, MemStore::new(cfg.n_items, cfg.width));
    let mut engine = PlfEngine::new(
        data.tree.clone(),
        data.comp(),
        data.model().clone(),
        data.alpha,
        data.n_cats,
        OocStore::new(manager),
    );

    // Warm-up: populate every vector once, then reset counters. The
    // workload runs over an in-RAM MemStore, so I/O errors are impossible.
    let _ = engine
        .log_likelihood()
        .expect("MemStore workload cannot fail on I/O");
    engine.store_mut().manager_mut().reset_stats();
    // Observe only the measured phase: attaching after the warm-up reset
    // keeps the event stream reconcilable with the reported counters.
    if let Some(rec) = obs {
        engine.store_mut().manager_mut().set_recorder(rec.clone());
        engine.set_recorder(rec.clone());
    }
    match pass {
        Pass::Record => engine.store_mut().manager_mut().start_recording(),
        Pass::Replay(plan) => engine.store_mut().manager_mut().install_oracle_plan(plan),
        Pass::Online => {}
    }

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut lnl = 0.0;
    for _ in 0..spec.spr_rounds {
        let round = lazy_spr_round(&mut engine, spec.radius, spec.nr_iter, 1e-3, &mut rng)
            .expect("MemStore workload cannot fail on I/O");
        lnl = round.lnl;
        if spec.smooth_passes > 0 {
            lnl = engine
                .smooth_branches(spec.smooth_passes, spec.nr_iter)
                .expect("MemStore workload cannot fail on I/O");
        }
        // Not `set_shared_tree`: a snapshot per round is the cadence the
        // committed Fig. 2–4 / supplement goldens were measured under.
        if let Some(h) = &handle {
            h.update(engine.tree());
        }
    }

    let recorded = engine.store_mut().manager_mut().take_recording();
    let recording = if recorded.is_empty() {
        None
    } else {
        Some(recorded)
    };
    let stats: OocStats = *engine.store().manager().stats();
    if let Some(rec) = obs {
        MetricsFile::finish(rec, Some(&stats)).expect("metrics stream");
    }
    let cell = CellResult {
        strategy: kind.label(),
        fraction: engine.store().manager().config().n_slots as f64 / data.n_items() as f64,
        n_slots: engine.store().manager().config().n_slots,
        lnl,
        miss_rate: stats.miss_rate(),
        read_rate: stats.read_rate(),
        skip_fraction: stats.skip_fraction(),
        requests: stats.requests,
        misses: stats.misses,
        disk_reads: stats.disk_reads,
        disk_writes: stats.disk_writes,
    };
    (cell, recording)
}

/// The four strategies in the paper's legend order, plus NextUse
/// (Belady's OPT over the submitted access plan) — the lower bound the
/// heuristics are judged against.
pub fn all_strategies() -> [StrategyKind; 5] {
    [
        StrategyKind::Topological,
        StrategyKind::Lfu,
        StrategyKind::Random { seed: 1 },
        StrategyKind::Lru,
        StrategyKind::NextUse,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_ooc::setup::{simulate_dataset, DatasetSpec};

    #[test]
    fn workload_is_deterministic_and_exact() {
        let data = simulate_dataset(&DatasetSpec {
            n_taxa: 20,
            n_sites: 120,
            seed: 1,
            ..Default::default()
        });
        let spec = WorkloadSpec {
            spr_rounds: 1,
            radius: 3,
            ..Default::default()
        };
        let cfg = OocConfig::builder(data.n_items(), data.width(0))
            .fraction(0.25)
            .build()
            .expect("valid out-of-core config");
        let a = run_search_workload(&data, cfg, StrategyKind::Lru, &spec, None);
        let b = run_search_workload(&data, cfg, StrategyKind::Lru, &spec, None);
        assert_eq!(a.lnl.to_bits(), b.lnl.to_bits());
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.misses, b.misses);

        // Different strategy, identical likelihood trajectory.
        let c = run_search_workload(&data, cfg, StrategyKind::Lfu, &spec, None);
        assert_eq!(a.lnl.to_bits(), c.lnl.to_bits());
        assert_eq!(a.requests, c.requests, "request stream must be identical");
    }

    #[test]
    fn more_memory_fewer_misses() {
        let data = simulate_dataset(&DatasetSpec {
            n_taxa: 24,
            n_sites: 100,
            seed: 2,
            ..Default::default()
        });
        let spec = WorkloadSpec {
            spr_rounds: 1,
            radius: 3,
            ..Default::default()
        };
        let mut rates = Vec::new();
        let mut transfers = 0; // of the last cell, f = 1.0
        for f in [0.25, 0.5, 0.75, 1.0] {
            let cfg = OocConfig::builder(data.n_items(), data.width(0))
                .fraction(f)
                .build()
                .expect("valid out-of-core config");
            let r = run_search_workload(&data, cfg, StrategyKind::Lru, &spec, None);
            rates.push(r.miss_rate);
            transfers = r.disk_reads + r.disk_writes;
        }
        assert!(rates[0] >= rates[1] && rates[1] >= rates[2] && rates[2] >= rates[3]);
        // The only misses left at f = 1.0 are cold loads: a node that was
        // rebuilt (no bytes) for the warm-up's root is first stored when
        // the search re-roots so that its class flips.
        assert_eq!(transfers, 0, "f = 1.0 must not touch the store");
    }
}
