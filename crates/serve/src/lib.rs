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

use ooc_core::{AdmissionError, ArenaCounters, CancelToken, JsonlSink, SlotArena};
use parking_lot::{Condvar, Mutex};
use phylo_ooc::run::{run, Job, MetricsFile, Run};
use phylo_ooc::setup::{self, Dataset, DatasetSpec};
use phylo_plf::{EngineSpec, LikelihoodEngine};
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

fn build_dataset(req: &DatasetRequest, spec: &EngineSpec) -> Result<Dataset, String> {
    let parts = match &req.partitions {
        None if req.n_sites == 0 => {
            return Err("dataset needs n_sites > 0 (or a partition list)".into())
        }
        None => Vec::new(),
        Some(parts) if parts.is_empty() => return Err("partition list must not be empty".into()),
        Some(parts) => parts
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
            .collect::<Result<Vec<_>, String>>()?,
    };
    Ok(setup::simulate_dataset(&DatasetSpec {
        n_taxa: req.n_taxa,
        n_sites: req.n_sites,
        seed: req.seed,
        alpha: spec.alpha,
        n_cats: spec.n_cats,
        parts,
        ..DatasetSpec::default()
    }))
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
    let job = Job {
        vector_path: Some(scratch.to_owned()),
        ..Job::new(&spec, &data)
    };
    let run = run(job, |engine, _| {
        let lnl = engine.full_traversals(traversals.max(1));
        lnl.and_then(|lnl| Ok((lnl, engine.partition_lnls()?)))
            .map_err(|e| e.to_string())
    })?;
    Ok(run.value)
}

fn run_job(job: &QueuedJob, arena: &SlotArena, cfg: &ServeConfig) -> JobStatus {
    match admit_and_run(job, arena, cfg) {
        Ok(run) => run.value,
        Err(status) => status,
    }
}

/// Admit → build → run → release, as one [`run`] call; `Err` is the job's
/// outcome when it never produced one of its own (refused, or failed).
fn admit_and_run(
    job: &QueuedJob,
    arena: &SlotArena,
    cfg: &ServeConfig,
) -> Result<Run<JobStatus>, JobStatus> {
    let fail = |e: String| JobStatus::Failed { error: e };

    let spec = EngineSpec::from_toml(&job.req.profile).map_err(|e| fail(e.to_string()))?;
    let data = build_dataset(&job.req.dataset, &spec).map_err(fail)?;

    // Admission control: size the job, then ask the arena *before* paying
    // for construction. A refusal is a job outcome, not an error path.
    let (want, min) = spec
        .memory_demand(&data.tree, &setup::part_specs(&data))
        .map_err(|e| fail(e.to_string()))?;
    let label = format!("{}/job-{}", job.req.tenant, job.id);
    let grant = arena.admit(&label, want, min).map_err(|e| match e {
        AdmissionError::Insufficient { .. } => JobStatus::Rejected {
            reason: e.to_string(),
        },
        _ => fail(e.to_string()),
    })?;

    // A broken metrics file must not fail the job: metrics lost,
    // likelihoods not.
    let usable = |path: &PathBuf| JsonlSink::append(path).is_ok();
    let metrics = MetricsFile::appending(cfg.metrics_path.clone().filter(usable));
    let scratch = cfg.scratch_dir.join(format!(
        "{}-job{}.vec",
        job.req.tenant.replace('/', "_"),
        job.id
    ));
    // The runner drops the engine — releasing the grant — and removes the
    // job's vector files before the outcome is reported.
    let n_half_edges = data.tree.n_half_edges();
    let served = Job {
        scope: &label,
        metrics: &metrics,
        vector_path: Some(scratch),
        tenant: Some(grant),
        cancel: Some(job.state.cancel.clone()),
        ..Job::new(&spec, &data)
    };
    run(served, |engine, _| {
        execute_kind(&job.req.job, engine, n_half_edges).map_err(|e| e.to_string())
    })
    .map_err(fail)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A run records only when someone will read it: without a metrics
    /// stream a served job's engine and managers carry no recorder at all
    /// (it used to get an in-memory sink that grew with every miss and
    /// eviction, outside the arena budget, and that nobody read).
    #[test]
    fn a_job_records_only_into_a_metrics_stream() {
        let dir = tempfile::tempdir().unwrap();
        let arena = SlotArena::new(8 << 20).unwrap();
        let job = QueuedJob {
            id: 1,
            req: JobRequest {
                tenant: "t".into(),
                dataset: DatasetRequest {
                    n_taxa: 10,
                    n_sites: 0,
                    seed: 3,
                    partitions: Some(vec![
                        PartitionRequest {
                            kind: "dna".into(),
                            n_sites: 120,
                        },
                        PartitionRequest {
                            kind: "protein".into(),
                            n_sites: 30,
                        },
                    ]),
                },
                profile: "residency = \"ooc-mem\"\nfraction = 0.4\n".into(),
                job: JobKind::Likelihood { traversals: 1 },
            },
            state: Arc::new(JobState {
                status: Mutex::new(JobStatus::Running),
                done: Condvar::new(),
                cancel: CancelToken::new(),
            }),
        };
        let mut cfg = ServeConfig {
            scratch_dir: dir.path().to_owned(),
            ..ServeConfig::default()
        };
        let silent = admit_and_run(&job, &arena, &cfg).unwrap();
        assert!(matches!(silent.value, JobStatus::Done { .. }));
        assert!(silent.recs.is_empty() && silent.attribution.is_empty());
        assert!(silent.part_stats.iter().all(Option::is_some));

        cfg.metrics_path = Some(dir.path().join("m.jsonl"));
        let streamed = admit_and_run(&job, &arena, &cfg).unwrap();
        assert_eq!(streamed.value, silent.value, "recording changes no value");
        let scopes: Vec<&str> = streamed.recs.iter().map(|r| r.scope()).collect();
        assert_eq!(scopes, ["t/job-1/p0_dna", "t/job-1/p1_prot"]);
        assert_eq!(arena.n_tenants(), 0, "both grants released");
    }
}
