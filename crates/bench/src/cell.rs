//! The cell runner: the one place this crate builds an engine to time it.
//!
//! Every timed experiment cell — Figure 5's real / sharded / partitioned /
//! compression / tuned-profile cells, the ablations, `correctness` and the
//! tuner's probes — is the same sequence: resolve an [`EngineSpec`]
//! through [`EngineSpec::build`], attach one metrics scope per partition,
//! time the workload, snapshot the residency counters, close the scopes.
//! [`run_cell`] is that sequence; a new experiment is a spec, a scope name
//! and a workload closure.

use crate::metrics::MetricsFile;
use ooc_core::{MonotonicClock, NullSink, OocStats, Recorder, StallAttribution};
use phylo_ooc::plf::{BuildContext, DynEngine, EngineSpec, LikelihoodEngine, PartSpec};
use phylo_ooc::setup::{self, Dataset, PartitionedDataset};
use phylo_tree::Tree;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// What a cell runs on: one tree and the data partitions over it.
pub struct CellInput<'a> {
    tree: &'a Tree,
    parts: Vec<PartSpec<'a>>,
    observed: bool,
}

impl<'a> CellInput<'a> {
    /// A simulated single-partition dataset (its one scope is the cell's).
    pub fn dataset(data: &'a Dataset) -> Self {
        CellInput {
            tree: &data.tree,
            parts: setup::part_specs(data),
            observed: false,
        }
    }

    /// A partitioned dataset (one scope per partition, `<scope>/<name>`).
    pub fn partitioned(data: &'a PartitionedDataset) -> Self {
        CellInput {
            tree: &data.tree,
            parts: setup::partitioned_part_specs(data),
            observed: false,
        }
    }

    /// Record even without `--metrics` (into a null sink): for cells that
    /// read their own histograms or stall attribution back.
    pub fn observed(mut self) -> Self {
        self.observed = true;
        self
    }
}

/// Outcome of one cell.
pub struct Cell {
    /// Wall seconds of the workload closure (build and teardown excluded).
    pub secs: f64,
    /// What the workload closure returned — by convention its final lnL.
    pub lnl: f64,
    /// Residency counters merged over partitions and shards (`None` for
    /// non-managed residencies).
    pub stats: Option<OocStats>,
    /// Residency counters per partition, in partition order.
    pub part_stats: Vec<Option<OocStats>>,
    /// The first partition's recorder, when the cell had one.
    pub rec: Option<Recorder>,
    /// Compute-vs-stall split of the workload ([`CellInput::observed`]
    /// cells only).
    pub attribution: Option<StallAttribution>,
}

/// The Figure 5 workload: `count` full traversals, returning the last lnL.
pub fn full_traversals(count: usize) -> impl FnOnce(&mut Box<dyn DynEngine>) -> f64 {
    move |engine| {
        engine
            .full_traversals(count)
            .expect("full traversal failed")
    }
}

/// Build `spec` over `input` (backing files at `path`, for the residencies
/// that need one), run `work` on the engine under the clock, and close the
/// cell's metrics scopes: `scope` for an unnamed partition, `scope/<name>`
/// for a named one.
pub fn run_cell(
    spec: &EngineSpec,
    input: &CellInput<'_>,
    path: Option<PathBuf>,
    scope: &str,
    metrics: &MetricsFile,
    work: impl FnOnce(&mut Box<dyn DynEngine>) -> f64,
) -> Cell {
    // One recorder per partition — all of them or none: `--metrics` and
    // `observed` are both cell-wide.
    let mut recs: HashMap<String, Recorder> = HashMap::new();
    for part in &input.parts {
        let scope = match part.name.as_str() {
            "" => scope.to_owned(),
            name => format!("{scope}/{name}"),
        };
        let rec = metrics.recorder(scope.clone()).or_else(|| {
            input
                .observed
                .then(|| Recorder::scoped(MonotonicClock::new(), NullSink, scope))
        });
        if let Some(rec) = rec {
            recs.insert(part.name.clone(), rec);
        }
    }
    let mut ctx = BuildContext {
        vector_path: path,
        ..BuildContext::new()
    };
    if !recs.is_empty() {
        let recs = recs.clone();
        ctx = ctx.recorders(move |name| recs[name].clone());
    }
    let mut engine = spec
        .build(input.tree, &input.parts, &ctx)
        .unwrap_or_else(|e| panic!("{scope}: cannot build engine: {e}"))
        .engine;

    let rec = recs.get(&input.parts[0].name).cloned();
    let observer = rec.as_ref().filter(|_| input.observed);
    let t0_ns = observer.map(Recorder::now);
    let t0 = Instant::now();
    let lnl = work(&mut engine);
    let secs = t0.elapsed().as_secs_f64();
    let attribution = observer
        .zip(t0_ns)
        .map(|(rec, t0_ns)| rec.attribution(rec.now().saturating_sub(t0_ns)));

    // Snapshot the counters, then tear the engine down *before* closing
    // the scopes: a pipelined store drains its queued write-backs on drop,
    // and those belong in the stream (and in `rec`'s histograms) too.
    let part_stats = engine.partition_ooc_stats();
    let stats = engine.ooc_stats();
    drop(engine);
    for (part, stats) in input.parts.iter().zip(&part_stats) {
        if let Some(rec) = recs.get(&part.name) {
            MetricsFile::finish(rec, stats.as_ref());
        }
    }
    Cell {
        secs,
        lnl,
        stats,
        part_stats,
        rec,
        attribution,
    }
}
