//! `ooc-serve` — a multi-tenant likelihood service over one shared slot
//! arena.
//!
//! The paper bounds *one* analysis to a RAM fraction `f`; a server runs
//! *many* concurrent analyses against one physical memory budget. This
//! crate composes the pieces the lower layers already provide:
//!
//! * **admission control** — every job declares its slot-RAM demand
//!   (`EngineSpec::memory_demand`) before construction; the
//!   [`SlotArena`] either grants it (reserving the 3-slots-per-manager
//!   pinned floor) or rejects the job outright — an ungrantable job is a
//!   *rejected* job, never an OOM;
//! * **fair cross-tenant eviction** — each tenant's managers charge slot
//!   buffers against an elastic allowance (largest-remainder share of the
//!   arena surplus); when admissions shrink an allowance, the tenant
//!   trims its own residency, never its neighbors' (see
//!   `ooc_core::arena`);
//! * **bounded job queue with cancellation** — a condvar-backed queue of
//!   fixed depth; each job carries a [`CancelToken`] enforced at every
//!   backing-store transfer, so a cancelled traversal aborts at the next
//!   I/O and the grant is released;
//! * **batched evaluation** — evaluate-only queries
//!   ([`JobKind::EvaluateBatch`]) run one full traversal, then score every
//!   requested root branch against the cached vectors;
//! * **per-tenant observability** — each job gets metrics scopes
//!   `tenant/job-N[/partition]` in the existing JSONL schema, headed by a
//!   `profile` record carrying the exact `EngineSpec` TOML, so noisy
//!   neighbors are attributable with `ooc-bench check`.
//!
//! Engines are constructed *exclusively* through [`EngineSpec`]: a job is
//! a dataset description plus a TOML profile plus a job kind.

use ooc_core::{
    AdmissionError, ArenaCounters, CancelToken, JsonlSink, MemorySink, MonotonicClock, OocStats,
    Recorder, SlotArena,
};
use parking_lot::{Condvar, Mutex};
use phylo_ooc::setup::{self, Dataset, DatasetSpec, PartitionedDataset};
use phylo_plf::{BuildContext, EngineSpec, LikelihoodEngine, PartSpec};
use phylo_search::hillclimb::{hill_climb_observed, SearchConfig};
use phylo_seq::PartitionKind;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

pub mod net;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total slot-RAM budget shared by every concurrent tenant (the
    /// server-wide analogue of the paper's `-L` flag).
    pub arena_bytes: u64,
    /// Worker threads draining the job queue (= max concurrent engines).
    pub workers: usize,
    /// Bounded job-queue depth; submissions beyond it are refused with
    /// [`SubmitError::QueueFull`] instead of buffering without bound.
    pub queue_depth: usize,
    /// Per-tenant JSONL metrics stream (appended; scopes
    /// `tenant/job-N[/partition]`). `None` disables metrics.
    pub metrics_path: Option<PathBuf>,
    /// Directory for file-backed vector stores of file-residency jobs.
    pub scratch_dir: PathBuf,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            arena_bytes: 64 << 20,
            workers: 2,
            queue_depth: 64,
            metrics_path: None,
            scratch_dir: std::env::temp_dir(),
        }
    }
}

/// One partition of a job's dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionRequest {
    /// `"dna"`, `"protein"` or `"codon"`.
    pub kind: String,
    /// Sites in this partition (codon sites for codon partitions).
    pub n_sites: usize,
}

/// The dataset a job runs on — the repo's standard simulated stand-in for
/// an uploaded alignment (deterministic in `seed`, so solo and served
/// runs of the same request see bit-identical data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetRequest {
    /// Taxa (tree tips).
    pub n_taxa: usize,
    /// Alignment sites (ignored when `partitions` is given).
    pub n_sites: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Optional partition list; present ⇒ a partitioned analysis.
    pub partitions: Option<Vec<PartitionRequest>>,
}

/// What to do with the engine once admitted and built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// `traversals` full traversals; returns the final joint lnL plus
    /// per-partition lnLs.
    Likelihood {
        /// Full traversals to run (≥ 1).
        traversals: usize,
    },
    /// Branch-length smoothing passes (Newton–Raphson per branch).
    SmoothBranches {
        /// Smoothing passes over all branches.
        passes: usize,
        /// Newton iterations per branch.
        nr_iter: u32,
    },
    /// Lazy-SPR hill-climbing tree search.
    Search {
        /// Maximum SPR rounds.
        max_rounds: usize,
        /// SPR rearrangement radius.
        spr_radius: u32,
    },
    /// Evaluate-only batch: one full traversal caches every vector, then
    /// each listed root half-edge is scored against the cache.
    EvaluateBatch {
        /// Root half-edges to evaluate (tree half-edge indices).
        roots: Vec<u32>,
    },
}

/// A job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Tenant label; prefixes the job's metrics scopes.
    pub tenant: String,
    /// The dataset to analyse.
    pub dataset: DatasetRequest,
    /// Engine profile: [`EngineSpec`] TOML (see `EngineSpec::to_toml`).
    pub profile: String,
    /// The work to run.
    pub job: JobKind,
}

/// Terminal (or in-flight) state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// In the queue, not yet started.
    Queued,
    /// A worker is running it.
    Running,
    /// Completed.
    Done {
        /// Joint log-likelihood.
        lnl: f64,
        /// Per-partition log-likelihoods (one entry if unpartitioned).
        partition_lnls: Vec<f64>,
        /// Batch-evaluation results (`EvaluateBatch` only).
        batch: Option<Vec<f64>>,
    },
    /// Admission control refused the memory grant (never an OOM).
    Rejected {
        /// Why (demand vs. arena state).
        reason: String,
    },
    /// Cancelled before or during execution; the arena grant is released.
    Cancelled,
    /// The job errored (bad profile, I/O failure, …).
    Failed {
        /// The error.
        error: String,
    },
}

impl JobStatus {
    /// Has the job reached a terminal state?
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// Why a submission was refused at the front door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — back off and resubmit.
    QueueFull,
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct JobState {
    status: Mutex<JobStatus>,
    done: Condvar,
    cancel: CancelToken,
}

impl JobState {
    fn set(&self, status: JobStatus) {
        *self.status.lock() = status;
        self.done.notify_all();
    }
}

struct QueuedJob {
    id: u64,
    req: JobRequest,
    state: Arc<JobState>,
}

/// Bounded MPMC job queue: `try_push` refuses at capacity (the shim
/// crates ship no bounded channel, and the refusal semantics — reject,
/// don't buffer unboundedly — are the point, so the queue is explicit:
/// a `VecDeque` under a mutex with a condvar for the blocking pop).
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    cap: usize,
}

struct QueueInner {
    q: VecDeque<QueuedJob>,
    closed: bool,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                q: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn try_push(&self, job: QueuedJob) -> Result<(), SubmitError> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.q.len() >= self.cap {
            return Err(SubmitError::QueueFull);
        }
        inner.q.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Block for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<QueuedJob> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(job) = inner.q.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            self.ready.wait(&mut inner);
        }
    }

    /// Drop a still-queued job; false if it already left the queue.
    fn remove(&self, id: u64) -> bool {
        let mut inner = self.inner.lock();
        let before = inner.q.len();
        inner.q.retain(|j| j.id != id);
        inner.q.len() != before
    }

    fn close(&self) {
        self.inner.lock().closed = true;
        self.ready.notify_all();
    }
}

/// The service: a shared arena, a bounded queue, and worker threads that
/// admit → build → run → release.
pub struct Service {
    cfg: ServeConfig,
    arena: SlotArena,
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    jobs: Mutex<HashMap<u64, Arc<JobState>>>,
}

impl Service {
    /// Start the service: allocate the arena and spawn the worker pool.
    pub fn start(cfg: ServeConfig) -> Result<Service, String> {
        let arena = SlotArena::new(cfg.arena_bytes).map_err(|e| e.to_string())?;
        let queue = Arc::new(JobQueue::new(cfg.queue_depth));
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let queue = queue.clone();
                let arena = arena.clone();
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("ooc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&queue, arena, cfg))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Service {
            cfg,
            arena,
            queue,
            workers,
            next_id: AtomicU64::new(1),
            jobs: Mutex::new(HashMap::new()),
        })
    }

    /// Enqueue a job; returns its id. Refuses (rather than blocks) when
    /// the bounded queue is full.
    pub fn submit(&self, req: JobRequest) -> Result<u64, SubmitError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(JobState {
            status: Mutex::new(JobStatus::Queued),
            done: Condvar::new(),
            cancel: CancelToken::new(),
        });
        self.jobs.lock().insert(id, state.clone());
        match self.queue.try_push(QueuedJob { id, req, state }) {
            Ok(()) => Ok(id),
            Err(e) => {
                self.jobs.lock().remove(&id);
                Err(e)
            }
        }
    }

    /// Cancel a job. A still-queued job is finalized immediately (it
    /// leaves the queue and `wait` returns without blocking behind
    /// whatever occupies the workers); a running job aborts at its next
    /// backing-store transfer. Returns false for unknown ids.
    pub fn cancel(&self, id: u64) -> bool {
        match self.jobs.lock().get(&id) {
            Some(state) => {
                state.cancel.cancel();
                self.queue.remove(id);
                let mut status = state.status.lock();
                if matches!(*status, JobStatus::Queued) {
                    *status = JobStatus::Cancelled;
                    state.done.notify_all();
                }
                true
            }
            None => false,
        }
    }

    /// Current status of a job.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let jobs = self.jobs.lock();
        jobs.get(&id).map(|s| s.status.lock().clone())
    }

    /// Block until the job reaches a terminal state and return it.
    pub fn wait(&self, id: u64) -> Option<JobStatus> {
        let state = self.jobs.lock().get(&id).cloned()?;
        let mut status = state.status.lock();
        while !status.is_terminal() {
            state.done.wait(&mut status);
        }
        Some(status.clone())
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Arena counters: admissions, rejections, releases, fair evictions.
    pub fn counters(&self) -> ArenaCounters {
        self.arena.counters()
    }

    /// Tenants currently holding grants.
    pub fn n_tenants(&self) -> usize {
        self.arena.n_tenants()
    }

    /// The shared arena's total byte budget.
    pub fn arena_bytes(&self) -> u64 {
        self.arena.total_bytes()
    }

    /// Drain the queue and stop the workers (running jobs finish; queued
    /// jobs still run — cancel them first for a fast stop).
    pub fn shutdown(mut self) {
        self.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(queue: &JobQueue, arena: SlotArena, cfg: ServeConfig) {
    while let Some(job) = queue.pop() {
        if job.state.cancel.is_cancelled() {
            job.state.set(JobStatus::Cancelled);
            continue;
        }
        job.state.set(JobStatus::Running);
        let outcome = run_job(&job, &arena, &cfg);
        // A cancellation surfacing as an I/O error is a Cancelled outcome,
        // not a failure.
        let outcome = match outcome {
            JobStatus::Failed { .. } | JobStatus::Done { .. } | JobStatus::Rejected { .. }
                if job.state.cancel.is_cancelled() =>
            {
                JobStatus::Cancelled
            }
            other => other,
        };
        job.state.set(outcome);
    }
}

/// The job's dataset, either flat or partitioned.
enum JobData {
    Single(Dataset),
    Partitioned(PartitionedDataset),
}

impl JobData {
    fn tree(&self) -> &phylo_tree::Tree {
        match self {
            JobData::Single(d) => &d.tree,
            JobData::Partitioned(d) => &d.tree,
        }
    }

    fn part_specs(&self) -> Vec<PartSpec<'_>> {
        match self {
            JobData::Single(d) => setup::part_specs(d),
            JobData::Partitioned(d) => setup::partitioned_part_specs(d),
        }
    }
}

fn build_dataset(req: &DatasetRequest, spec: &EngineSpec) -> Result<JobData, String> {
    let ds = DatasetSpec {
        n_taxa: req.n_taxa,
        n_sites: req.n_sites,
        seed: req.seed,
        alpha: spec.alpha,
        n_cats: spec.n_cats,
        ..DatasetSpec::default()
    };
    match &req.partitions {
        None => {
            if req.n_sites == 0 {
                return Err("dataset needs n_sites > 0 (or a partition list)".into());
            }
            Ok(JobData::Single(setup::simulate_dataset(&ds)))
        }
        Some(parts) => {
            if parts.is_empty() {
                return Err("partition list must not be empty".into());
            }
            let parts = parts
                .iter()
                .map(|p| {
                    let kind = match p.kind.as_str() {
                        "dna" => PartitionKind::Dna,
                        "protein" => PartitionKind::Protein,
                        "codon" => PartitionKind::Codon,
                        other => return Err(format!("unknown partition kind '{other}'")),
                    };
                    Ok((kind, p.n_sites))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(JobData::Partitioned(setup::simulate_partitioned_dataset(
                &ds, &parts,
            )))
        }
    }
}

/// Run a request's dataset + profile *solo* — no arena, no queue, no
/// tenancy — and return `(joint lnL, per-partition lnLs)` after
/// `traversals` full traversals. This is the ground truth a served
/// [`JobKind::Likelihood`] job must reproduce **bit-identically**:
/// residency and contention never change computed values.
pub fn solo_likelihood(
    dataset: &DatasetRequest,
    profile: &str,
    traversals: usize,
    scratch: &std::path::Path,
) -> Result<(f64, Vec<f64>), String> {
    let spec = EngineSpec::from_toml(profile).map_err(|e| e.to_string())?;
    let data = build_dataset(dataset, &spec)?;
    let parts = data.part_specs();
    let ctx = BuildContext::new().vector_path(scratch);
    let built = spec
        .build(data.tree(), &parts, &ctx)
        .map_err(|e| e.to_string())?;
    let mut engine = built.engine;
    let lnl = engine
        .full_traversals(traversals.max(1))
        .map_err(|e| e.to_string())?;
    let partition_lnls = engine.partition_lnls().map_err(|e| e.to_string())?;
    drop(engine);
    let _ = std::fs::remove_file(scratch);
    Ok((lnl, partition_lnls))
}

/// Per-scope recorder factory that also emits the job's `profile` header
/// record (exactly one per scope) and remembers every recorder it handed
/// out so stats can be reconciled and histograms flushed at job end.
struct ScopeRecorders {
    metrics_path: Option<PathBuf>,
    scope_base: String,
    profile: String,
    handed_out: Mutex<Vec<(String, Recorder)>>,
}

impl ScopeRecorders {
    fn scope_of(&self, part: &str) -> String {
        if part.is_empty() {
            self.scope_base.clone()
        } else {
            format!("{}/{part}", self.scope_base)
        }
    }

    fn make(&self, part: &str) -> Recorder {
        let scope = self.scope_of(part);
        let rec = match &self.metrics_path {
            Some(path) => match JsonlSink::append(path) {
                Ok(sink) => Recorder::scoped(MonotonicClock::new(), sink, scope.clone()),
                // A broken metrics file must not fail the job: fall back
                // to an in-memory sink (metrics lost, likelihoods not).
                Err(_) => {
                    Recorder::scoped(MonotonicClock::new(), MemorySink::new().0, scope.clone())
                }
            },
            None => Recorder::scoped(MonotonicClock::new(), MemorySink::new().0, scope.clone()),
        };
        rec.emit_profile(&self.profile);
        self.handed_out.lock().push((scope, rec.clone()));
        rec
    }

    fn finish(&self, stats: &[(String, Option<OocStats>)]) {
        let handed = self.handed_out.lock();
        for (scope, rec) in handed.iter() {
            if let Some((_, Some(s))) = stats.iter().find(|(sc, _)| sc == scope) {
                rec.emit_stats(s);
            }
            let _ = rec.finish();
        }
    }
}

fn run_job(job: &QueuedJob, arena: &SlotArena, cfg: &ServeConfig) -> JobStatus {
    let fail = |e: String| JobStatus::Failed { error: e };

    let spec = match EngineSpec::from_toml(&job.req.profile) {
        Ok(s) => s,
        Err(e) => return fail(e.to_string()),
    };
    let data = match build_dataset(&job.req.dataset, &spec) {
        Ok(d) => d,
        Err(e) => return fail(e),
    };
    let parts = data.part_specs();
    let tree = data.tree();

    // Admission control: size the job, then ask the arena *before* paying
    // for construction. A refusal is a job outcome, not an error path.
    let (want, min) = match spec.memory_demand(tree, &parts) {
        Ok(d) => d,
        Err(e) => return fail(e.to_string()),
    };
    let label = format!("{}/job-{}", job.req.tenant, job.id);
    let grant = match arena.admit(&label, want, min) {
        Ok(g) => g,
        Err(e @ AdmissionError::Insufficient { .. }) => {
            return JobStatus::Rejected {
                reason: e.to_string(),
            }
        }
        Err(e) => return fail(e.to_string()),
    };

    let recorders = Arc::new(ScopeRecorders {
        metrics_path: cfg.metrics_path.clone(),
        scope_base: label.clone(),
        profile: spec.to_toml(),
        handed_out: Mutex::new(Vec::new()),
    });

    let scratch = cfg.scratch_dir.join(format!(
        "{}-job{}.vec",
        job.req.tenant.replace('/', "_"),
        job.id
    ));
    let rec_factory = recorders.clone();
    let ctx = BuildContext::new()
        .vector_path(&scratch)
        .tenant(grant)
        .cancel(job.state.cancel.clone())
        .recorders(move |part| rec_factory.make(part));

    let built = match spec.build(tree, &parts, &ctx) {
        Ok(b) => b,
        Err(e) => return fail(e.to_string()),
    };
    let mut engine = built.engine;

    let result = execute_kind(&job.req.job, &mut engine, tree.n_half_edges());

    // Reconcile stats into each partition's scope, flush histograms.
    let names: Vec<String> = parts.iter().map(|p| p.name.clone()).collect();
    let stats: Vec<(String, Option<OocStats>)> = names
        .iter()
        .zip(engine.partition_ooc_stats())
        .map(|(n, s)| (recorders.scope_of(n), s))
        .collect();
    recorders.finish(&stats);

    drop(engine); // release the grant before reporting
    let _ = std::fs::remove_file(&scratch);

    match result {
        Ok(status) => status,
        Err(e) => fail(e.to_string()),
    }
}

fn execute_kind(
    kind: &JobKind,
    engine: &mut Box<dyn phylo_plf::DynEngine>,
    n_half_edges: usize,
) -> Result<JobStatus, ooc_core::OocError> {
    match kind {
        JobKind::Likelihood { traversals } => {
            let lnl = engine.full_traversals((*traversals).max(1))?;
            let partition_lnls = engine.partition_lnls()?;
            Ok(JobStatus::Done {
                lnl,
                partition_lnls,
                batch: None,
            })
        }
        JobKind::SmoothBranches { passes, nr_iter } => {
            let lnl = engine.smooth_branches((*passes).max(1), (*nr_iter).max(1))?;
            let partition_lnls = engine.partition_lnls()?;
            Ok(JobStatus::Done {
                lnl,
                partition_lnls,
                batch: None,
            })
        }
        JobKind::Search {
            max_rounds,
            spr_radius,
        } => {
            let cfg = SearchConfig {
                max_rounds: (*max_rounds).max(1),
                spr_radius: (*spr_radius).max(1),
                ..SearchConfig::default()
            };
            let stats = hill_climb_observed(engine, &cfg, None)?;
            Ok(JobStatus::Done {
                lnl: stats.final_lnl,
                partition_lnls: engine.partition_lnls()?,
                batch: None,
            })
        }
        JobKind::EvaluateBatch { roots } => {
            // One full traversal caches every ancestral vector; each root
            // then scores against the cache (partial traversal only).
            let lnl = engine.log_likelihood()?;
            let mut batch = Vec::with_capacity(roots.len());
            for &r in roots {
                if (r as usize) >= n_half_edges {
                    return Ok(JobStatus::Failed {
                        error: format!("root half-edge {r} out of range (< {n_half_edges})"),
                    });
                }
                batch.push(engine.log_likelihood_at(r, false)?);
            }
            Ok(JobStatus::Done {
                lnl,
                partition_lnls: engine.partition_lnls()?,
                batch: Some(batch),
            })
        }
    }
}
