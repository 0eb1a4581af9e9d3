//! Declarative engine construction: one [`EngineSpec`] describing *what*
//! to run, resolved into a boxed [`DynEngine`] that runs it.
//!
//! The paper's experiment matrix is combinatorial — arity (blocks,
//! partitions) × residency (in-RAM, out-of-core over memory or files,
//! OS-paged) × replacement strategy × I/O pipeline. [`EngineSpec`] spans
//! it with orthogonal axes:
//!
//! * **residency** — [`Residency`]: where ancestral vectors live and how
//!   much RAM they may occupy (fraction `f` or the paper's `-L` byte
//!   budget);
//! * **strategy** — [`StrategyKind`], with tree oracles wired automatically
//!   for the strategies that rank by topology;
//! * **shards** — pattern-parallel shards per partition;
//! * **io_threads** — write-behind worker threads retiring dirty
//!   evictions beside compute (a bounded queue, see
//!   [`ooc_core::PrefetchingStore`]);
//! * **compression** — the lossless APV codec behind the backing store;
//! * **partitions** — not an axis of the spec at all: [`EngineSpec::build`]
//!   takes the partition list as data, so the same profile drives a
//!   single-gene and a 100-gene analysis.
//!
//! Every spec resolves to **one type**: a [`PlfEngine`] of `p ≥ 1`
//! partitions of `k ≥ 1` column blocks each under one tree
//! ([`PlfEngine::with_layout`]; a single-gene serial run is its
//! `p = 1, k = 1` case, see `crate::engine` for why arity 1 is free).
//! Only the per-block store type differs between residencies
//! ([`InRamStore`], [`PagedStore`], or [`OocStore`] over a type-erased
//! [`BackingStore`]); the result is boxed once as a [`Box<dyn DynEngine>`],
//! which is what lets a *service* hold engines of any residency in one
//! table. Construction-time concerns that used to be ad-hoc
//! (observability recorders, multi-tenant arena grants, cooperative
//! cancellation) enter through [`BuildContext`]. Not axes: the kernel
//! backend (auto-detected; `OOC_PLF_KERNEL` overrides it) and the paper's
//! swap / no-read-skipping modes ([`OocConfig`] switches of the figures).
//!
//! A spec round-trips through a flat TOML profile ([`EngineSpec::to_toml`]
//! / [`EngineSpec::from_toml`]) so runs are reproducible from a file and
//! every metrics stream can embed the exact configuration that produced it
//! (the `"profile"` JSONL record).

use crate::engine::{Part, PartLayout};
use crate::likelihood_api::LikelihoodEngine;
use crate::oracle::SharedTree;
use crate::store_api::{AncestralStore, InRamStore, OocStore, PagedStore};
use crate::PlfEngine;
use ooc_core::{
    compressed_capacity_f64s, split_budget, validate_byte_budget, BackingStore, CancelToken,
    CancellingStore, CompressingStore, CompressionMode, FileStore, MemStore, OocConfig, OocResult,
    PrefetchingStore, Recorder, StrategyKind, TenantGrant, VectorManager,
};
use phylo_models::ReversibleModel;
use phylo_seq::CompressedAlignment;
use phylo_tree::spr::{NniUndo, SprUndo};
use phylo_tree::{HalfEdgeId, Tree};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// DynEngine: the object-safe engine surface
// ---------------------------------------------------------------------------

/// Everything a job runner needs from an engine, object-safe: the search
/// surface ([`LikelihoodEngine`]) and the per-partition reports jobs ask
/// for beyond it. Implemented by the one type the spec resolves to, so a
/// service queues heterogeneous jobs against one `Box<dyn DynEngine>`
/// table.
pub trait DynEngine: LikelihoodEngine + Send {
    /// Per-partition log-likelihoods in partition order (a single
    /// unpartitioned engine reports one value).
    fn partition_lnls(&mut self) -> OocResult<Vec<f64>>;

    /// `count` full traversals (every vector recomputed each time),
    /// returning the last log-likelihood — the paper's Figure 5 workload.
    fn full_traversals(&mut self, count: usize) -> OocResult<f64> {
        let mut lnl = 0.0;
        for _ in 0..count {
            self.invalidate_all();
            lnl = self.log_likelihood()?;
        }
        Ok(lnl)
    }

    /// Out-of-core statistics per partition, in partition order — so stats
    /// can be reconciled against each partition's own metrics scope
    /// (`None` entries for non-managed members).
    fn partition_ooc_stats(&self) -> Vec<Option<ooc_core::OocStats>>;
}

impl<S: AncestralStore + Send> DynEngine for PlfEngine<S> {
    /// Each value is bit-identical to an engine of that partition alone:
    /// partitions never exchange data.
    fn partition_lnls(&mut self) -> OocResult<Vec<f64>> {
        let root = self.tree().default_root_edge();
        Ok(self.evaluate(root, false)?.collect())
    }

    fn partition_ooc_stats(&self) -> Vec<Option<ooc_core::OocStats>> {
        let of = |part: &Part<S>| part.blocks.iter().map(|b| b.store.ooc_stats()).sum();
        self.parts.iter().map(of).collect()
    }
}

// Searches and job runners are generic over `E: LikelihoodEngine`; forward
// through the box so a built engine can be handed to them as it is.
impl LikelihoodEngine for Box<dyn DynEngine> {
    fn tree(&self) -> &Tree {
        (**self).tree()
    }
    fn alpha(&self) -> f64 {
        (**self).alpha()
    }
    fn set_alpha(&mut self, alpha: f64) {
        (**self).set_alpha(alpha)
    }
    fn invalidate_all(&mut self) {
        (**self).invalidate_all()
    }
    fn log_likelihood(&mut self) -> OocResult<f64> {
        (**self).log_likelihood()
    }
    fn log_likelihood_at(&mut self, root_he: HalfEdgeId, full: bool) -> OocResult<f64> {
        (**self).log_likelihood_at(root_he, full)
    }
    fn set_branch_length(&mut self, h: HalfEdgeId, len: f64) {
        (**self).set_branch_length(h, len)
    }
    fn optimize_branch(&mut self, h: HalfEdgeId, max_iter: u32) -> OocResult<(f64, f64)> {
        (**self).optimize_branch(h, max_iter)
    }
    fn smooth_branches(&mut self, passes: usize, nr_iter: u32) -> OocResult<f64> {
        (**self).smooth_branches(passes, nr_iter)
    }
    fn optimize_alpha(&mut self, tol: f64, max_iter: u32) -> OocResult<(f64, f64)> {
        (**self).optimize_alpha(tol, max_iter)
    }
    fn apply_spr(
        &mut self,
        prune_dir: HalfEdgeId,
        target: HalfEdgeId,
        graft_lens: Option<(f64, f64)>,
    ) -> SprUndo {
        (**self).apply_spr(prune_dir, target, graft_lens)
    }
    fn undo_spr(&mut self, prune_dir: HalfEdgeId, undo: &SprUndo) {
        (**self).undo_spr(prune_dir, undo)
    }
    fn apply_nni(&mut self, h: HalfEdgeId, variant: u8) -> NniUndo {
        (**self).apply_nni(h, variant)
    }
    fn undo_nni(&mut self, undo: &NniUndo) {
        (**self).undo_nni(undo)
    }
    fn ooc_stats(&self) -> Option<ooc_core::OocStats> {
        (**self).ooc_stats()
    }
    fn reset_ooc_stats(&mut self) {
        (**self).reset_ooc_stats()
    }
}

// ---------------------------------------------------------------------------
// The spec
// ---------------------------------------------------------------------------

/// Where ancestral vectors live, and under which RAM ceiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Residency {
    /// Everything resident (the standard RAxML baseline).
    InRam,
    /// Out-of-core manager over an in-memory backing store (pure miss-rate
    /// measurements), holding fraction `f` of vectors in slots.
    OocMem {
        /// RAM fraction `f` of vectors kept in slots.
        fraction: f64,
    },
    /// Out-of-core manager over real backing file(s), fraction-sized.
    File {
        /// RAM fraction `f` of vectors kept in slots.
        fraction: f64,
    },
    /// Out-of-core manager over real backing file(s) under the paper's
    /// `-L` byte budget, split across partitions proportionally to their
    /// vector footprints and evenly across shards.
    FileLimit {
        /// Total slot RAM in bytes.
        limit_bytes: u64,
    },
    /// OS-paging baseline: vectors in a demand-paged arena with this much
    /// physical memory (Figure 5's "standard implementation").
    Paged {
        /// Physical bytes of the paged arena.
        phys_bytes: u64,
    },
}

impl Residency {
    /// Stable profile keyword.
    pub fn name(&self) -> &'static str {
        match self {
            Residency::InRam => "inram",
            Residency::OocMem { .. } => "ooc-mem",
            Residency::File { .. } => "file",
            Residency::FileLimit { .. } => "file-limit",
            Residency::Paged { .. } => "paged",
        }
    }

    fn needs_path(&self) -> bool {
        matches!(
            self,
            Residency::File { .. } | Residency::FileLimit { .. } | Residency::Paged { .. }
        )
    }
}

/// A declarative engine configuration. See the module docs for the axes;
/// [`Default`] is a serial in-RAM engine under auto-detected kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// Vector residency and RAM ceiling.
    pub residency: Residency,
    /// Replacement strategy for out-of-core residencies (ignored by
    /// `inram`/`paged`). Tree oracles are wired automatically.
    pub strategy: StrategyKind,
    /// Pattern-parallel column blocks per partition (1 = one block, run
    /// inline on the caller's thread).
    pub shards: usize,
    /// Write-behind worker threads per shard (0 = synchronous write-back;
    /// requires a file-backed residency).
    pub io_threads: usize,
    /// Γ shape parameter at construction.
    pub alpha: f64,
    /// Discrete Γ categories.
    pub n_cats: usize,
    /// Scale-exponent-aware APV compression behind the backing store
    /// (`None` = raw `f64`s), bit-exact. Requires a managed residency —
    /// slots hold decoded vectors, so in-RAM and OS-paged runs have
    /// nothing to compress.
    pub compression: Option<CompressionMode>,
}

impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec {
            residency: Residency::InRam,
            strategy: StrategyKind::Lru,
            shards: 1,
            io_threads: 0,
            alpha: 0.8,
            n_cats: 4,
            compression: None,
        }
    }
}

/// Why a spec could not be validated, parsed or built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid engine spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<ooc_core::OocConfigError> for SpecError {
    fn from(e: ooc_core::OocConfigError) -> Self {
        SpecError(e.to_string())
    }
}

impl From<std::io::Error> for SpecError {
    fn from(e: std::io::Error) -> Self {
        SpecError(format!("backing-store I/O failed: {e}"))
    }
}

/// Creating the backing vector file is the build's most likely I/O
/// failure — name the path, not just the errno.
fn vector_file_error(path: &Path, e: std::io::Error) -> SpecError {
    SpecError(format!(
        "cannot create vector file '{}': {e}",
        path.display()
    ))
}

/// One partition's data, borrowed for the duration of a build.
pub struct PartSpec<'a> {
    /// Partition name (labels reports and backing files).
    pub name: String,
    /// Pattern-compressed alignment of this partition's columns.
    pub comp: &'a CompressedAlignment,
    /// The partition's substitution model.
    pub model: &'a ReversibleModel,
}

/// Construction-time context: everything orthogonal to the spec axes that
/// an engine may need wired in — backing-file location, observability,
/// multi-tenant memory grants and cooperative cancellation.
#[derive(Default)]
pub struct BuildContext {
    /// Base path for file-backed residencies (with several partitions,
    /// partition `i` takes extension `p<i>`). Required for `file`,
    /// `file-limit` and `paged`.
    pub vector_path: Option<PathBuf>,
    /// Arena grant every manager charges its slot buffers against
    /// (multi-tenant mode; see [`ooc_core::SlotArena`]).
    pub tenant: Option<TenantGrant>,
    /// Cancellation token enforced at every backing-store transfer.
    pub cancel: Option<CancelToken>,
    /// Recorder per partition name; attached to the partition's member
    /// engine and every residency layer under it.
    #[allow(clippy::type_complexity)]
    pub recorders: Option<Box<dyn Fn(&str) -> Recorder + Send + Sync>>,
}

impl BuildContext {
    /// An empty context (in-memory residencies, no instrumentation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the backing-file base path.
    pub fn vector_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.vector_path = Some(path.into());
        self
    }

    /// Attach a tenant grant (multi-tenant slot arena).
    pub fn tenant(mut self, grant: TenantGrant) -> Self {
        self.tenant = Some(grant);
        self
    }

    /// Attach a cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attach a per-partition recorder factory.
    pub fn recorders(mut self, f: impl Fn(&str) -> Recorder + Send + Sync + 'static) -> Self {
        self.recorders = Some(Box::new(f));
        self
    }
}

/// A resolved engine and what it left on disk.
pub struct BuiltEngine {
    /// The engine, type-erased.
    pub engine: Box<dyn DynEngine>,
    /// The backing files the build created (one per partition for the
    /// file-backed residencies, none otherwise). They hold evicted vectors
    /// only while the engine lives; whoever owns the run removes them.
    pub vector_files: Vec<PathBuf>,
}

/// The manager store type every out-of-core build resolves to.
type DynStore = Box<dyn BackingStore + Send>;

/// One partition as [`EngineSpec::assemble`] hands it to a store factory.
struct PartSite<'a> {
    /// Position in the partition list (and in the per-partition budgets).
    index: usize,
    part: &'a PartSpec<'a>,
    /// Vector width of each shard, in shard order.
    widths: &'a [usize],
    /// The partition's backing file, for the file-backed residencies.
    path: Option<&'a Path>,
    /// The partition's recorder, when the context hands them out.
    rec: Option<Recorder>,
}

impl EngineSpec {
    /// Validate the axis combination (cheap; [`EngineSpec::build`] and
    /// [`EngineSpec::from_toml`] both call this).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.shards == 0 {
            return Err(SpecError("shards must be at least 1".into()));
        }
        if self.n_cats == 0 {
            return Err(SpecError("n_cats must be at least 1".into()));
        }
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(SpecError(format!(
                "alpha must be positive, got {}",
                self.alpha
            )));
        }
        match self.residency {
            Residency::OocMem { fraction } | Residency::File { fraction } => {
                if !(fraction > 0.0 && fraction <= 1.0) {
                    return Err(SpecError(format!(
                        "fraction must be in (0, 1], got {fraction}"
                    )));
                }
            }
            Residency::FileLimit { limit_bytes } => validate_byte_budget(limit_bytes)?,
            Residency::Paged { phys_bytes } => {
                validate_byte_budget(phys_bytes)?;
                if self.shards > 1 {
                    return Err(SpecError("paged residency cannot be sharded".into()));
                }
            }
            Residency::InRam => {}
        }
        if self.io_threads > 0
            && !matches!(
                self.residency,
                Residency::File { .. } | Residency::FileLimit { .. }
            )
        {
            return Err(SpecError(format!(
                "io_threads requires a file-backed residency, got '{}'",
                self.residency.name()
            )));
        }
        if self.compression.is_some()
            && matches!(self.residency, Residency::InRam | Residency::Paged { .. })
        {
            return Err(SpecError(format!(
                "compression requires a managed residency \
                 (ooc-mem | file | file-limit), got '{}'",
                self.residency.name()
            )));
        }
        Ok(())
    }

    /// Slot-RAM demand of this spec over the given data: `(want, min)`
    /// bytes, where `want` is what the engine would occupy unconstrained
    /// (every manager's full slot allocation; total vector bytes for
    /// `inram`, the arena size for `paged`) and `min` the guaranteed floor
    /// admission control must promise (each manager's 3 pinned slots).
    /// This is what a service hands to [`ooc_core::SlotArena::admit`]
    /// *before* paying for construction.
    pub fn memory_demand(
        &self,
        tree: &Tree,
        parts: &[PartSpec<'_>],
    ) -> Result<(u64, u64), SpecError> {
        self.validate()?;
        if parts.is_empty() {
            return Err(SpecError("need at least one partition".into()));
        }
        let n_items = tree.n_inner() as u64;
        let budgets = self.partition_budgets(tree, parts);
        let mut want = 0u64;
        let mut min = 0u64;
        for (i, part) in parts.iter().enumerate() {
            for width in self.block_widths(part.comp) {
                let w = width as u64;
                match self.residency {
                    Residency::InRam => {
                        want += n_items * w * 8;
                        min += n_items * w * 8;
                    }
                    Residency::Paged { phys_bytes } => {
                        want += phys_bytes;
                        min += phys_bytes;
                    }
                    _ => {
                        let cfg =
                            self.ooc_config(tree.n_inner(), width, budgets.as_ref().map(|b| b[i]))?;
                        want += cfg.n_slots as u64 * w * 8;
                        min += 3 * w * 8;
                    }
                }
            }
        }
        Ok((want, min))
    }

    /// Per-partition resident slot counts the spec resolves to — the
    /// CLI's "N of M vectors in RAM" report without building anything.
    /// `None` entries for non-managed residencies (in-RAM, paged); the
    /// count is per shard manager (the smallest, when the pattern split is
    /// uneven).
    pub fn slot_counts(
        &self,
        tree: &Tree,
        parts: &[PartSpec<'_>],
    ) -> Result<Vec<Option<usize>>, SpecError> {
        self.validate()?;
        if matches!(self.residency, Residency::InRam | Residency::Paged { .. }) {
            return Ok(vec![None; parts.len()]);
        }
        let budgets = self.partition_budgets(tree, parts);
        parts
            .iter()
            .enumerate()
            .map(|(i, part)| {
                let budget = budgets.as_ref().map(|b| b[i]);
                self.block_widths(part.comp)
                    .into_iter()
                    .map(|w| Ok(self.ooc_config(tree.n_inner(), w, budget)?.n_slots))
                    .collect::<Result<Vec<_>, SpecError>>()
                    .map(|slots| slots.into_iter().min())
            })
            .collect()
    }

    /// Resolve the spec over `tree` and `parts` into a boxed engine: one
    /// [`PlfEngine`], whatever the arities (see the module docs). The
    /// residency only chooses the per-block store type.
    pub fn build(
        &self,
        tree: &Tree,
        parts: &[PartSpec<'_>],
        ctx: &BuildContext,
    ) -> Result<BuiltEngine, SpecError> {
        self.validate()?;
        if parts.is_empty() {
            return Err(SpecError("need at least one partition".into()));
        }
        if self.residency.needs_path() && ctx.vector_path.is_none() {
            return Err(SpecError(format!(
                "residency '{}' needs BuildContext::vector_path",
                self.residency.name()
            )));
        }
        // The one place that knows where vector files live: a single
        // partition keeps the path as given (callers reopen exactly that
        // file); several take `p<i>`.
        let vector_files: Vec<PathBuf> = match &ctx.vector_path {
            Some(base) if self.residency.needs_path() => (0..parts.len())
                .map(|i| match parts.len() {
                    1 => base.clone(),
                    _ => base.with_extension(format!("p{i}")),
                })
                .collect(),
            _ => Vec::new(),
        };
        let n_items = tree.n_inner();
        let files = &vector_files;
        let engine = match self.residency {
            Residency::InRam => self.assemble(tree, parts, files, ctx, None, |site| {
                let stores = site.widths.iter().map(|&w| InRamStore::new(n_items, w));
                Ok(stores.collect())
            }),
            Residency::Paged { phys_bytes } => {
                self.assemble(tree, parts, files, ctx, None, |site| {
                    // `validate` holds paged residency to one block: one
                    // arena holds the partition's full-width vectors.
                    let (w, phys) = (site.widths[0], phys_bytes as usize);
                    let path = site.path.expect("checked above");
                    let arena = pager_sim::PagedArena::new(n_items * w * 8, phys, path)?;
                    Ok(vec![PagedStore::new(arena, n_items, w)])
                })
            }
            _ => {
                let budgets = self.partition_budgets(tree, parts);
                // One snapshot for every manager's oracle: the engine owns
                // the one tree and keeps it fresh.
                let shared = SharedTree::for_strategy(self.strategy, tree);
                self.assemble(tree, parts, files, ctx, shared.clone(), |site| {
                    let budget = budgets.as_ref().map(|b| b[site.index]);
                    self.managed_stores(n_items, site, budget, ctx, shared.as_ref())
                })
            }
        };
        match engine {
            Ok(engine) => Ok(BuiltEngine {
                engine,
                vector_files,
            }),
            Err(e) => {
                // A failed build leaves nothing behind.
                for file in &vector_files {
                    let _ = std::fs::remove_file(file);
                }
                Err(e)
            }
        }
    }

    /// The one assembly routine: per partition, take one store per column
    /// block from `stores`; the engine over them gets `shared`, the tree
    /// snapshot their replacement strategies rank by, to keep fresh.
    fn assemble<S: AncestralStore + Send + 'static>(
        &self,
        tree: &Tree,
        parts: &[PartSpec<'_>],
        vector_files: &[PathBuf],
        ctx: &BuildContext,
        shared: Option<SharedTree>,
        mut stores: impl FnMut(&PartSite<'_>) -> Result<Vec<S>, SpecError>,
    ) -> Result<Box<dyn DynEngine>, SpecError> {
        let layouts = parts.iter().enumerate().map(|(index, part)| {
            let site = PartSite {
                index,
                part,
                widths: &self.block_widths(part.comp),
                path: vector_files.get(index).map(PathBuf::as_path),
                rec: ctx.recorders.as_ref().map(|f| f(&part.name)),
            };
            // The engine's recorder carries combine-batch spans (and, past
            // one block, the barrier spans); the residency layers have
            // their own.
            Ok(PartLayout {
                comp: part.comp,
                model: part.model,
                stores: stores(&site)?,
                recorder: site.rec,
            })
        });
        let layouts = layouts.collect::<Result<Vec<_>, SpecError>>()?;
        let mut engine = PlfEngine::with_layout(tree.clone(), layouts, self.alpha, self.n_cats);
        if let Some(shared) = shared {
            engine.set_shared_tree(shared);
        }
        Ok(Box::new(engine))
    }

    /// Per-partition `-L` budgets (largest-remainder split over vector
    /// footprints), or `None` for non-budgeted residencies.
    fn partition_budgets(&self, tree: &Tree, parts: &[PartSpec<'_>]) -> Option<Vec<u64>> {
        let Residency::FileLimit { limit_bytes } = self.residency else {
            return None;
        };
        let n_items = tree.n_inner() as u64;
        let weights: Vec<u64> = parts
            .iter()
            .map(|p| {
                let dims = PlfEngine::<InRamStore>::dims_for(p.comp, self.n_cats);
                n_items * dims.width() as u64 * 8
            })
            .collect();
        Some(split_budget(limit_bytes, &weights))
    }

    /// Per-block vector widths of one partition (they sum to its full
    /// width). The sizing reports and the build both read this.
    fn block_widths(&self, comp: &CompressedAlignment) -> Vec<usize> {
        let dims = PlfEngine::<InRamStore>::block_dims(comp, self.n_cats, self.shards);
        dims.iter().map(|d| d.width()).collect()
    }

    /// The out-of-core config of one manager under this spec.
    fn ooc_config(
        &self,
        n_items: usize,
        width: usize,
        partition_budget: Option<u64>,
    ) -> Result<OocConfig, SpecError> {
        // Engines track dirtiness; the paper's unconditional swap (the
        // builder's default) is a figure preset, not a spec axis.
        let builder = OocConfig::builder(n_items, width).always_write_back(false);
        let builder = match self.residency {
            Residency::OocMem { fraction } | Residency::File { fraction } => {
                builder.fraction(fraction)
            }
            Residency::FileLimit { .. } => {
                let budget = partition_budget.expect("file-limit build passes a budget");
                let per_shard = (budget / self.shards as u64).max(1);
                builder.byte_limit(per_shard)
            }
            _ => unreachable!("ooc_config only called for managed residencies"),
        };
        Ok(builder.build()?)
    }

    /// The width one manager's *inner* backing store is created with: the
    /// logical width raw, or the worst-case encoded capacity under
    /// [`EngineSpec::compression`].
    fn backing_width(&self, width: usize, stride: usize) -> usize {
        match self.compression {
            Some(mode) => compressed_capacity_f64s(width, stride, mode),
            None => width,
        }
    }

    /// One partition's managed stores, one per shard: memory, or one region
    /// of the partition's vector file, behind [`Self::shard_store`] and
    /// under a [`VectorManager`] of its own.
    fn managed_stores(
        &self,
        n_items: usize,
        site: &PartSite<'_>,
        partition_budget: Option<u64>,
        ctx: &BuildContext,
        shared: Option<&SharedTree>,
    ) -> Result<Vec<OocStore<DynStore>>, SpecError> {
        let stride = PlfEngine::<InRamStore>::dims_for(site.part.comp, self.n_cats).site_stride();
        // Backing stores are provisioned at the (worst-case) encoded
        // capacity; the managers still see logical widths.
        let caps: Vec<usize> = site
            .widths
            .iter()
            .map(|&w| self.backing_width(w, stride))
            .collect();
        // One file region per shard, or none at all: the shards of an
        // in-memory residency each get a `MemStore` below.
        let mut regions = match self.residency {
            Residency::OocMem { .. } => Vec::new(),
            _ => {
                let path = site.path.expect("checked in build");
                FileStore::create_regions(path, n_items, &caps)
                    .map_err(|e| vector_file_error(path, e))?
            }
        }
        .into_iter();
        let rec = site.rec.as_ref();
        site.widths
            .iter()
            .zip(caps)
            .map(|(&w, cap)| {
                let cfg = self.ooc_config(n_items, w, partition_budget)?;
                let store = match regions.next() {
                    Some(region) => {
                        let workers = (0..self.io_threads)
                            .map(|_| region.try_clone())
                            .collect::<std::io::Result<Vec<_>>>()?;
                        self.shard_store(region, workers, n_items, w, stride, ctx, rec)
                    }
                    None => {
                        let mem = MemStore::new(n_items, cap);
                        self.shard_store(mem, Vec::new(), n_items, w, stride, ctx, rec)
                    }
                };
                let strategy = self.strategy.build(shared.map(SharedTree::oracle));
                let mut mgr = VectorManager::new(cfg, strategy, store);
                if let Some(grant) = &ctx.tenant {
                    mgr.attach_tenant(grant.clone());
                }
                // The manager carries its own recorder (demand-read /
                // write-back spans, per-access histograms).
                if let Some(r) = rec {
                    mgr.set_recorder(r.clone());
                }
                Ok(OocStore::new(mgr))
            })
            .collect()
    }

    /// One shard's manager store, type-erased: `backing` behind the spec's
    /// compression codec, the write-behind queue (one worker per handle in
    /// `workers`, second handles onto `backing`; none = no queue) and
    /// cancellation. The codec sits *below* the queue: queued vectors are
    /// decoded ones and worker threads encode off the demand path, each
    /// through its own scratch-buffered [`CompressingStore`] handle.
    #[allow(clippy::too_many_arguments)]
    fn shard_store<B: BackingStore + Send + 'static>(
        &self,
        backing: B,
        workers: Vec<B>,
        n_items: usize,
        width: usize,
        stride: usize,
        ctx: &BuildContext,
        rec: Option<&Recorder>,
    ) -> DynStore {
        match self.compression {
            Some(mode) => {
                let mut cs = CompressingStore::new(backing, n_items, width, stride, mode);
                if let Some(r) = rec {
                    cs.set_recorder(r.clone());
                }
                let workers = workers.into_iter().map(|w| cs.handle_over(w)).collect();
                Self::pipeline(cs, workers, n_items, width, ctx)
            }
            None => Self::pipeline(backing, workers, n_items, width, ctx),
        }
    }

    /// The top of [`Self::shard_store`]'s chain: the write-behind queue
    /// when there are worker handles, then cancellation, then the box.
    fn pipeline<S: BackingStore + Send + 'static>(
        store: S,
        workers: Vec<S>,
        n_items: usize,
        width: usize,
        ctx: &BuildContext,
    ) -> DynStore {
        if workers.is_empty() {
            return Self::cancellable(store, ctx);
        }
        Self::cancellable(
            PrefetchingStore::with_pool(store, workers, n_items, width),
            ctx,
        )
    }

    /// Type-erase one manager store, wrapping cancellation around it.
    fn cancellable<S: BackingStore + Send + 'static>(store: S, ctx: &BuildContext) -> DynStore {
        match &ctx.cancel {
            Some(token) => Box::new(CancellingStore::new(store, token.clone())),
            None => Box::new(store),
        }
    }
}

// ---------------------------------------------------------------------------
// TOML profile round-trip
// ---------------------------------------------------------------------------

impl EngineSpec {
    /// Serialize to a flat TOML profile (hand-rolled — the workspace adds
    /// no TOML dependency). Stable key order; [`EngineSpec::from_toml`]
    /// round-trips it exactly.
    pub fn to_toml(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("# ooc-plf engine profile\n");
        out.push_str(&format!("residency = \"{}\"\n", self.residency.name()));
        match self.residency {
            Residency::OocMem { fraction } | Residency::File { fraction } => {
                out.push_str(&format!("fraction = {fraction}\n"));
            }
            Residency::FileLimit { limit_bytes } => {
                out.push_str(&format!("limit_bytes = {limit_bytes}\n"));
            }
            Residency::Paged { phys_bytes } => {
                out.push_str(&format!("phys_bytes = {phys_bytes}\n"));
            }
            Residency::InRam => {}
        }
        let (strategy, seed) = match self.strategy {
            StrategyKind::Random { seed } => ("random", Some(seed)),
            StrategyKind::Lru => ("lru", None),
            StrategyKind::Lfu => ("lfu", None),
            StrategyKind::Topological => ("topological", None),
            StrategyKind::NextUse => ("next-use", None),
        };
        out.push_str(&format!("strategy = \"{strategy}\"\n"));
        if let Some(seed) = seed {
            out.push_str(&format!("seed = {seed}\n"));
        }
        out.push_str(&format!("shards = {}\n", self.shards));
        out.push_str(&format!("io_threads = {}\n", self.io_threads));
        out.push_str(&format!("alpha = {}\n", self.alpha));
        out.push_str(&format!("n_cats = {}\n", self.n_cats));
        out.push_str(&format!(
            "compression = \"{}\"\n",
            self.compression.map_or("none", |m| m.name())
        ));
        out
    }

    /// Parse a flat TOML profile produced by [`EngineSpec::to_toml`] (or
    /// written by hand). Unknown keys, a key given twice and malformed
    /// values are errors; omitted keys keep their [`Default`] values.
    pub fn from_toml(text: &str) -> Result<EngineSpec, SpecError> {
        const KNOWN: [&str; 11] = [
            "residency",
            "fraction",
            "limit_bytes",
            "phys_bytes",
            "strategy",
            "seed",
            "shards",
            "io_threads",
            "alpha",
            "n_cats",
            "compression",
        ];
        let mut keys: Vec<(&str, &str)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The spec is the flat key block at the top of the profile;
            // the first `[section]` header ends it. Tuned profiles append
            // a `[tune]` section of provenance the engine ignores.
            if line.starts_with('[') {
                break;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(SpecError(format!(
                    "profile line {}: expected 'key = value', got '{raw}'",
                    lineno + 1
                )));
            };
            let key = key.trim();
            if !KNOWN.contains(&key) {
                return Err(SpecError(format!("unknown profile key '{key}'")));
            }
            if keys.iter().any(|(k, _)| *k == key) {
                return Err(SpecError(format!("duplicate profile key '{key}'")));
            }
            let value = value.trim();
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .unwrap_or(value);
            keys.push((key, value));
        }
        let find = |k: &str| keys.iter().find(|(key, _)| *key == k).map(|(_, v)| *v);
        let parse_u64 = |k: &str| -> Result<Option<u64>, SpecError> {
            find(k)
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| SpecError(format!("key '{k}': invalid integer '{v}'")))
                })
                .transpose()
        };
        let parse_f64 = |k: &str| -> Result<Option<f64>, SpecError> {
            find(k)
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|_| SpecError(format!("key '{k}': invalid number '{v}'")))
                })
                .transpose()
        };

        let mut spec = EngineSpec::default();
        if let Some(name) = find("residency") {
            spec.residency = match name {
                "inram" => Residency::InRam,
                "ooc-mem" => Residency::OocMem {
                    fraction: parse_f64("fraction")?.ok_or_else(|| {
                        SpecError("residency 'ooc-mem' needs key 'fraction'".into())
                    })?,
                },
                "file" => Residency::File {
                    fraction: parse_f64("fraction")?
                        .ok_or_else(|| SpecError("residency 'file' needs key 'fraction'".into()))?,
                },
                "file-limit" => Residency::FileLimit {
                    limit_bytes: parse_u64("limit_bytes")?.ok_or_else(|| {
                        SpecError("residency 'file-limit' needs key 'limit_bytes'".into())
                    })?,
                },
                "paged" => Residency::Paged {
                    phys_bytes: parse_u64("phys_bytes")?.ok_or_else(|| {
                        SpecError("residency 'paged' needs key 'phys_bytes'".into())
                    })?,
                },
                other => {
                    return Err(SpecError(format!(
                        "unknown residency '{other}': expected \
                         inram | ooc-mem | file | file-limit | paged"
                    )))
                }
            };
        }
        if let Some(name) = find("strategy") {
            let seed = parse_u64("seed")?.unwrap_or(0);
            spec.strategy = StrategyKind::from_name(name, seed).ok_or_else(|| {
                SpecError(format!(
                    "unknown strategy '{name}': expected \
                     random | lru | lfu | topological | next-use"
                ))
            })?;
        }
        if let Some(v) = parse_u64("shards")? {
            spec.shards = v as usize;
        }
        if let Some(v) = parse_u64("io_threads")? {
            spec.io_threads = v as usize;
        }
        if let Some(v) = parse_f64("alpha")? {
            spec.alpha = v;
        }
        if let Some(v) = parse_u64("n_cats")? {
            spec.n_cats = v as usize;
        }
        if let Some(name) = find("compression") {
            spec.compression = match name {
                "none" | "" => None,
                other => Some(CompressionMode::from_name(other).ok_or_else(|| {
                    SpecError(format!(
                        "unknown compression '{other}': expected none | exp"
                    ))
                })?),
            };
        }
        spec.validate()?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// SpecSpace: the autotuner's candidate grid
// ---------------------------------------------------------------------------

/// A declarative grid over the [`EngineSpec`] axes — the autotuner's
/// search space. Every axis is a list of values to try; the cartesian
/// product over all axes, stamped onto `base` (which supplies the axes a
/// space does not sweep, `alpha` and `n_cats`), is the
/// candidate set. Axes the caller leaves as singletons contribute no
/// combinations, so a space is exactly as wide as its interesting axes.
#[derive(Debug, Clone)]
pub struct SpecSpace {
    /// Values for the non-swept axes.
    pub base: EngineSpec,
    /// Residency candidates.
    pub residencies: Vec<Residency>,
    /// Replacement-strategy candidates.
    pub strategies: Vec<StrategyKind>,
    /// Shard-count candidates.
    pub shards: Vec<usize>,
    /// I/O-thread candidates.
    pub io_threads: Vec<usize>,
    /// Compression candidates.
    pub compressions: Vec<Option<CompressionMode>>,
}

impl SpecSpace {
    /// The degenerate space containing exactly `base`: every axis a
    /// singleton of the base's value. Widen the axes of interest from
    /// here.
    pub fn around(base: EngineSpec) -> Self {
        SpecSpace {
            residencies: vec![base.residency],
            strategies: vec![base.strategy],
            shards: vec![base.shards],
            io_threads: vec![base.io_threads],
            compressions: vec![base.compression],
            base,
        }
    }

    /// Size of the full cartesian product (before validity filtering).
    pub fn len(&self) -> usize {
        self.residencies.len()
            * self.strategies.len()
            * self.shards.len()
            * self.io_threads.len()
            * self.compressions.len()
    }

    /// Whether any axis is empty (the product is then empty too).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every spec in the product, valid or not, in a deterministic order
    /// (residency-major, matching the field order of this struct).
    pub fn enumerate(&self) -> Vec<EngineSpec> {
        let mut out = Vec::with_capacity(self.len());
        for &residency in &self.residencies {
            for &strategy in &self.strategies {
                for &shards in &self.shards {
                    for &io_threads in &self.io_threads {
                        for &compression in &self.compressions {
                            out.push(EngineSpec {
                                residency,
                                strategy,
                                shards,
                                io_threads,
                                compression,
                                ..self.base.clone()
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The product filtered through [`EngineSpec::validate`]: the
    /// buildable candidates plus the count of combinations the validator
    /// rejected (incoherent axis products — paged+sharded, pipelined
    /// in-memory stores, compressed unmanaged residencies — are expected
    /// in a wide grid and reported, not errored).
    pub fn enumerate_valid(&self) -> (Vec<EngineSpec>, usize) {
        let mut valid = Vec::new();
        let mut invalid = 0usize;
        for spec in self.enumerate() {
            if spec.validate().is_ok() {
                valid.push(spec);
            } else {
                invalid += 1;
            }
        }
        (valid, invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_specs() -> Vec<EngineSpec> {
        vec![
            EngineSpec::default(),
            EngineSpec {
                residency: Residency::OocMem { fraction: 0.25 },
                strategy: StrategyKind::Random { seed: 11 },
                ..Default::default()
            },
            EngineSpec {
                residency: Residency::File { fraction: 0.5 },
                strategy: StrategyKind::NextUse,
                shards: 4,
                io_threads: 2,
                ..Default::default()
            },
            EngineSpec {
                residency: Residency::FileLimit {
                    limit_bytes: 1 << 20,
                },
                strategy: StrategyKind::Topological,
                shards: 2,
                alpha: 1.2,
                n_cats: 8,
                ..Default::default()
            },
            EngineSpec {
                residency: Residency::Paged {
                    phys_bytes: 1 << 16,
                },
                ..Default::default()
            },
            EngineSpec {
                residency: Residency::File { fraction: 0.3 },
                compression: Some(CompressionMode::Exp),
                io_threads: 1,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn toml_round_trips_every_axis_combination() {
        for spec in all_specs() {
            let text = spec.to_toml();
            let back =
                EngineSpec::from_toml(&text).unwrap_or_else(|e| panic!("{e} in profile:\n{text}"));
            assert_eq!(back, spec, "round-trip drifted for:\n{text}");
        }
    }

    #[test]
    fn from_toml_applies_defaults_for_omitted_keys() {
        let spec = EngineSpec::from_toml("strategy = \"lfu\"\n").unwrap();
        assert_eq!(spec.strategy, StrategyKind::Lfu);
        assert_eq!(spec.residency, Residency::InRam);
        assert_eq!(spec.shards, 1);
    }

    #[test]
    fn default_has_exactly_seven_axes() {
        // Exhaustive on purpose (no `..`): an eighth field must fail to
        // compile here before it can appear unnoticed.
        let EngineSpec {
            residency,
            strategy,
            shards,
            io_threads,
            alpha,
            n_cats,
            compression,
        } = EngineSpec::default();
        assert_eq!(residency, Residency::InRam);
        assert_eq!(strategy, StrategyKind::Lru);
        assert_eq!((shards, io_threads, n_cats), (1, 0, 4));
        assert_eq!(alpha, 0.8);
        assert_eq!(compression, None);
    }

    #[test]
    fn from_toml_rejects_malformed_profiles() {
        assert!(EngineSpec::from_toml("residency = \"floppy\"").is_err());
        assert!(EngineSpec::from_toml("residency = \"ooc-mem\"").is_err()); // no fraction
        assert!(EngineSpec::from_toml("nonsense_key = 3").is_err());
        assert!(EngineSpec::from_toml("shards = banana").is_err());
        assert!(EngineSpec::from_toml("just a line").is_err());
        // A key given twice used to keep its first value silently.
        let err =
            EngineSpec::from_toml("shards = 2\nstrategy = \"lfu\"\nshards = 4\n").unwrap_err();
        assert!(err.to_string().contains("duplicate profile key 'shards'"));
        // Validation runs on parse: zero byte budgets error like the
        // builder does (shared validate_byte_budget).
        let err =
            EngineSpec::from_toml("residency = \"file-limit\"\nlimit_bytes = 0\n").unwrap_err();
        assert!(err.to_string().contains("byte budget must be positive"));
    }

    #[test]
    fn validate_rejects_incoherent_axes() {
        let bad = EngineSpec {
            shards: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = EngineSpec {
            io_threads: 2, // pipeline over an in-memory store
            residency: Residency::OocMem { fraction: 0.5 },
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = EngineSpec {
            residency: Residency::Paged { phys_bytes: 4096 },
            shards: 2,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = EngineSpec {
            residency: Residency::OocMem { fraction: 1.5 },
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        // Compression has no managed store to live behind for in-RAM or
        // OS-paged residencies.
        let bad = EngineSpec {
            compression: Some(CompressionMode::Exp),
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = EngineSpec {
            residency: Residency::Paged { phys_bytes: 4096 },
            compression: Some(CompressionMode::Exp),
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn from_toml_stops_at_first_section_header() {
        // A tuned profile: the flat spec block plus a `[tune]` provenance
        // section whose keys are NOT spec keys and must be ignored.
        let text = "residency = \"file-limit\"\nlimit_bytes = 1048576\n\
                    strategy = \"next-use\"\n\n\
                    [tune]\nschema = \"bench-tune-v1\"\npruned = 12\n\
                    measured_secs = 0.25\n";
        let spec = EngineSpec::from_toml(text).unwrap();
        assert_eq!(
            spec.residency,
            Residency::FileLimit {
                limit_bytes: 1 << 20
            }
        );
        assert_eq!(spec.strategy, StrategyKind::NextUse);
        // Everything after the header is invisible — including keys that
        // would otherwise be rejected as unknown.
        assert!(EngineSpec::from_toml("[tune]\nnonsense_key = 3\n").is_ok());
    }

    #[test]
    fn spec_space_product_and_validity_filter() {
        let base = EngineSpec::default();
        let singleton = SpecSpace::around(base.clone());
        assert_eq!(singleton.len(), 1);
        assert!(!singleton.is_empty());
        assert_eq!(singleton.enumerate(), vec![base.clone()]);

        let mut space = SpecSpace::around(base);
        space.residencies = vec![
            Residency::FileLimit {
                limit_bytes: 1 << 20,
            },
            Residency::Paged {
                phys_bytes: 1 << 16,
            },
        ];
        space.strategies = vec![StrategyKind::Lru, StrategyKind::NextUse];
        space.shards = vec![1, 2];
        space.io_threads = vec![0, 1];
        assert_eq!(space.len(), 16);
        assert_eq!(space.enumerate().len(), 16);
        let (valid, invalid) = space.enumerate_valid();
        assert_eq!(valid.len() + invalid, 16);
        // Paged residency is incompatible with shards > 1 and with
        // io_threads > 0: of its 8 combinations only (1 shard, 0 threads)
        // per strategy survives.
        assert_eq!(
            valid
                .iter()
                .filter(|s| matches!(s.residency, Residency::Paged { .. }))
                .count(),
            2
        );
        assert_eq!(invalid, 6);
        for spec in &valid {
            spec.validate().unwrap();
        }
        // Deterministic order: residency-major.
        assert!(matches!(valid[0].residency, Residency::FileLimit { .. }));
    }

    #[test]
    fn from_toml_rejects_unknown_compression() {
        let err =
            EngineSpec::from_toml("residency = \"file\"\nfraction = 0.5\ncompression = \"zip\"\n")
                .unwrap_err();
        assert!(err.to_string().contains("unknown compression"));
    }
}
