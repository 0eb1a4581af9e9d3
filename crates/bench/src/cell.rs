//! The cell runner: the one place this crate builds an engine to time it.
//!
//! Every timed experiment cell — Figure 5's real and tuned-profile cells,
//! the ablations, `correctness` and the tuner's probes — is one call of
//! [`phylo_ooc::run::run`]: an [`EngineSpec`], one metrics scope per partition, a workload under the
//! clock, the residency counters, the teardown. [`run_cell`] is that call
//! with this crate's conventions: the workload returns its final lnL, and
//! a cell that cannot be built or fails is a panic, not an error path.

use phylo_ooc::plf::{DynEngine, EngineSpec};
use phylo_ooc::run::{run, Job, MetricsFile, Run};
use phylo_ooc::setup::Dataset;
use std::path::PathBuf;

/// What a cell runs on.
pub struct CellInput<'a> {
    data: &'a Dataset,
    observed: bool,
}

impl<'a> CellInput<'a> {
    /// A dataset: one scope per partition — the cell's for an unnamed
    /// partition, `<scope>/<name>` for a named one.
    pub fn dataset(data: &'a Dataset) -> Self {
        CellInput {
            data,
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

/// Outcome of one cell; `value` is what the workload closure returned —
/// by convention its final lnL.
pub type Cell = Run<f64>;

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
/// cell's metrics scopes under `scope`.
pub fn run_cell(
    spec: &EngineSpec,
    input: &CellInput<'_>,
    path: Option<PathBuf>,
    scope: &str,
    metrics: &MetricsFile,
    work: impl FnOnce(&mut Box<dyn DynEngine>) -> f64,
) -> Cell {
    let job = Job {
        scope,
        metrics,
        observed: input.observed,
        vector_path: path,
        ..Job::new(spec, input.data)
    };
    run(job, |engine, _| Ok(work(engine))).unwrap_or_else(|e| panic!("{scope}: {e}"))
}
