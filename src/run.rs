//! The one run path above [`EngineSpec::build`].
//!
//! `phylo-ooc likelihood|search`, every `ooc-serve` job and every timed
//! `ooc-bench` cell are the same sequence: open one metrics scope per
//! partition, head each with the engine profile, build, run the workload,
//! snapshot the residency counters, tear the engine down, close the
//! scopes, remove the vector files. [`run`] is that sequence; a caller is
//! a spec, a scope name and a closure. It is the only place outside tests
//! and examples that calls [`EngineSpec::build`], so two rules live here
//! and nowhere else:
//!
//! * **Recorder lifetime.** A run records only when someone will read it:
//!   into the [`MetricsFile`] when one is given, into a null sink when the
//!   caller asked to be [`Job::observed`], otherwise not at all (no
//!   recorder is attached, so the instrumented paths cost nothing). The
//!   engine is dropped *before* the scopes close: a pipelined store drains
//!   its queued write-backs on drop, and those belong in the stream.
//! * **Vector-file lifetime.** The files a build creates (named by
//!   [`phylo_plf::BuiltEngine::vector_files`]) hold evicted vectors only
//!   while the engine lives; they are removed when the run ends, whether
//!   it succeeded, failed or was cancelled.

use crate::args::Args;
use crate::setup::{self, Dataset};
use ooc_core::{
    CancelToken, JsonlSink, MonotonicClock, NullSink, OocStats, Recorder, StallAttribution,
    TenantGrant,
};
use phylo_plf::{BuildContext, DynEngine, EngineSpec, LikelihoodEngine};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The optional JSONL metrics stream of one invocation (`--metrics FILE`):
/// per-op latency events, histogram dumps and final counter snapshots, one
/// `scope` label per measured configuration, so `ooc-bench check` can
/// validate and reconcile the stream scope by scope.
///
/// The first recorder truncates the file; every recorder appends through
/// its own `O_APPEND` handle, so several *live* recorders (one per
/// partition of the same run) interleave whole lines without clobbering
/// each other. That only composes within a *sequential* sweep —
/// experiments that normally run cells in parallel drop to sequential
/// execution when the stream is [`enabled`](MetricsFile::enabled).
pub struct MetricsFile {
    path: Option<PathBuf>,
    created: AtomicBool,
}

/// The stream of a run that records nothing.
static NO_METRICS: MetricsFile = MetricsFile {
    path: None,
    created: AtomicBool::new(true),
};

impl MetricsFile {
    /// Stream to `path`, truncating it first; `None` records nothing.
    pub fn new(path: Option<PathBuf>) -> Self {
        MetricsFile {
            path,
            created: AtomicBool::new(false),
        }
    }

    /// Append to `path` and never truncate it: a service's stream outlives
    /// any one run.
    pub fn appending(path: Option<PathBuf>) -> Self {
        MetricsFile {
            path,
            created: AtomicBool::new(true),
        }
    }

    /// Read `--metrics FILE` from a parsed command line.
    pub fn from_args(args: &Args) -> Self {
        let path = args.string("metrics");
        Self::new((!path.is_empty()).then(|| PathBuf::from(path)))
    }

    /// Is there a stream at all?
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// A real-clock recorder scoped to one measured configuration, or
    /// `None` without a stream.
    pub fn recorder(&self, scope: impl Into<String>) -> Result<Option<Recorder>, String> {
        let Some(path) = &self.path else {
            return Ok(None);
        };
        if !self.created.swap(true, Ordering::SeqCst) {
            std::fs::File::create(path)
                .map_err(|e| format!("cannot create metrics file '{}': {e}", path.display()))?;
        }
        let sink = JsonlSink::append(path)
            .map_err(|e| format!("cannot open metrics file '{}': {e}", path.display()))?;
        Ok(Some(Recorder::scoped(MonotonicClock::new(), sink, scope)))
    }

    /// Close out one scope's recorder: emit the reconciliation counter
    /// snapshot (when there is one), dump the per-op latency histograms
    /// and flush the stream.
    pub fn finish(rec: &Recorder, stats: Option<&OocStats>) -> Result<(), String> {
        if let Some(s) = stats {
            rec.emit_stats(s);
        }
        rec.finish()
            .map_err(|e| format!("cannot write metrics: {e}"))
    }
}

/// One run: what to build, over what data, and where its by-products go.
pub struct Job<'a> {
    /// The engine to build.
    pub spec: &'a EngineSpec,
    /// The tree and the p ≥ 1 partitions over it.
    pub data: &'a Dataset,
    /// Scope base: partition `name` records under `scope` (unnamed),
    /// `scope/<name>`, or `<name>` when the base is empty.
    pub scope: &'a str,
    /// The metrics stream the scopes go to.
    pub metrics: &'a MetricsFile,
    /// Record even without a stream (into a null sink): for callers that
    /// read their own histograms or stall attribution back.
    pub observed: bool,
    /// Base path for the residencies that keep a backing file.
    pub vector_path: Option<PathBuf>,
    /// Arena grant the managers charge their slots against.
    pub tenant: Option<TenantGrant>,
    /// Token that aborts the run at its next backing-store transfer.
    pub cancel: Option<CancelToken>,
}

impl<'a> Job<'a> {
    /// `spec` over `data`, unscoped and unrecorded, with no backing file.
    pub fn new(spec: &'a EngineSpec, data: &'a Dataset) -> Self {
        Job {
            spec,
            data,
            scope: "",
            metrics: &NO_METRICS,
            observed: false,
            vector_path: None,
            tenant: None,
            cancel: None,
        }
    }
}

/// Outcome of one run.
pub struct Run<T> {
    /// What the workload closure returned.
    pub value: T,
    /// Wall seconds of the workload closure (build and teardown excluded).
    pub secs: f64,
    /// Residency counters merged over partitions and shards (`None` for
    /// non-managed residencies).
    pub stats: Option<OocStats>,
    /// Residency counters per partition, in partition order.
    pub part_stats: Vec<Option<OocStats>>,
    /// The partitions' recorders, in partition order; empty when the run
    /// recorded nothing.
    pub recs: Vec<Recorder>,
    /// Compute-vs-stall split of the workload per recorder.
    pub attribution: Vec<StallAttribution>,
}

/// Build `job.spec` over `job.data`, run `work` on the engine (and the
/// partitions' recorders, if any) under the clock, and tear everything
/// down again (module docs). An error from the build, the workload or the
/// metrics stream is returned after the teardown.
pub fn run<T>(
    job: Job<'_>,
    work: impl FnOnce(&mut Box<dyn DynEngine>, &[Recorder]) -> Result<T, String>,
) -> Result<Run<T>, String> {
    let parts = setup::part_specs(job.data);
    let mut recs = Vec::new();
    if job.metrics.enabled() || job.observed {
        let profile = job.spec.to_toml();
        for part in &parts {
            let scope = match (job.scope, part.name.as_str()) {
                (base, "") => base.to_owned(),
                ("", name) => name.to_owned(),
                (base, name) => format!("{base}/{name}"),
            };
            let rec = match job.metrics.recorder(scope.as_str())? {
                Some(rec) => rec,
                None => Recorder::scoped(MonotonicClock::new(), NullSink, scope),
            };
            // Head the scope with the exact configuration that produced it.
            rec.emit_profile(&profile);
            recs.push(rec);
        }
    }
    let mut ctx = BuildContext {
        vector_path: job.vector_path,
        tenant: job.tenant,
        cancel: job.cancel,
        recorders: None,
    };
    if !recs.is_empty() {
        let by_name: HashMap<String, Recorder> = parts
            .iter()
            .map(|p| p.name.clone())
            .zip(recs.iter().cloned())
            .collect();
        ctx = ctx.recorders(move |name| by_name[name].clone());
    }
    let built = job
        .spec
        .build(&job.data.tree, &parts, &ctx)
        .map_err(|e| e.to_string())?;
    let mut engine = built.engine;

    let t0_ns: Vec<u64> = recs.iter().map(Recorder::now).collect();
    let t0 = Instant::now();
    let result = work(&mut engine, &recs);
    let secs = t0.elapsed().as_secs_f64();
    let attribution = recs
        .iter()
        .zip(t0_ns)
        .map(|(rec, t0_ns)| rec.attribution(rec.now().saturating_sub(t0_ns)))
        .collect();

    let part_stats = engine.partition_ooc_stats();
    let stats = engine.ooc_stats();
    drop(engine);
    let mut closed = Ok(());
    for (rec, stats) in recs.iter().zip(&part_stats) {
        closed = closed.and(MetricsFile::finish(rec, stats.as_ref()));
    }
    for file in &built.vector_files {
        let _ = std::fs::remove_file(file);
    }
    let value = result?;
    closed?;
    Ok(Run {
        value,
        secs,
        stats,
        part_stats,
        recs,
        attribution,
    })
}
