//! Out-of-core management of ancestral probability vectors — the primary
//! contribution of *Computing the Phylogenetic Likelihood Function
//! Out-of-Core* (Izquierdo-Carrasco & Stamatakis, 2011), reimplemented as a
//! standalone library.
//!
//! The PLF's memory footprint is dominated by `n` equally sized ancestral
//! probability vectors. This crate keeps only `m = f·n` of them in RAM
//! ("slots") and the rest in a backing store (normally a single binary
//! file), exchanging whole vectors on demand:
//!
//! * [`VectorManager`] — the bookkeeping structure (the paper's `map`):
//!   per-item location table, slot pool, pinning, swap orchestration. All
//!   out-of-core complexity is encapsulated behind vector-access calls,
//!   mirroring the paper's `getxvector()`.
//! * [`slot_table`] — the manager's policy core: the data-free
//!   [`SlotTable`] decides which operations an access causes, generic over
//!   a [`DataPlane`] that moves the bytes; [`SlotCacheSim`] is the same
//!   table with nothing behind it.
//! * [`plan`] — the access-plan IR: the traversal's access pattern as an
//!   ordered `{item, intent}` sequence with first/last-access analysis,
//!   consumed by the manager through a plan cursor (read-skip flags,
//!   plan-aware replacement).
//! * [`strategy`] — the four replacement strategies evaluated in the paper:
//!   Random, LRU, LFU and Topological (most-distant-node-in-the-tree),
//!   plus NextUse (Belady's OPT over the access plan), the miss-rate
//!   lower bound the heuristics are judged against.
//! * [`store`] — backing stores: one binary file with positioned I/O
//!   ([`store::FileStore`]) and in-memory ([`store::MemStore`]) for
//!   measuring pure miss rates.
//! * [`compress`] — scale-exponent-aware APV compression behind the store
//!   trait ([`CompressingStore`]): shared-exponent headers and a
//!   site-block alias table for repeated columns, shrinking the bytes
//!   every backend moves, losslessly.
//! * read skipping (§3.4): vectors known a priori to be overwritten on
//!   first access are swapped in without reading the file.
//! * [`diskmodel`] — a disk cost model so paper-scale (32 GB) geometries
//!   can be replayed without 32 GB of physical I/O.
//! * [`prefetch`] — a bounded write-behind queue: dirty evictions are
//!   written by worker threads while the kernels run (the read-ahead half
//!   of the paper's §5 prefetch thread had nothing left to fetch and is
//!   retired).
//! * [`error`], [`fault`], [`retry`] — fault tolerance: store I/O failures
//!   surface as contextual [`OocError`]s instead of panics,
//!   [`FaultInjectingStore`] injects deterministic failure schedules for
//!   testing, and [`RetryingStore`] absorbs transient errors with bounded
//!   retries.
//! * [`obs`] — stall-attribution observability: log2-bucketed latency
//!   histograms, tracing spans with an injectable clock, and a lossless
//!   JSONL event stream, threaded through every layer that touches bytes.
//! * [`json`] — the workspace's one JSON value, parser and escape helper
//!   (the service's wire protocol and the JSONL validator both read with it).

pub mod aligned;
pub mod arena;
pub mod cancel;
pub mod compress;
pub mod diskmodel;
pub mod error;
pub mod fault;
pub mod json;
pub mod manager;
pub mod obs;
pub mod plan;
pub mod prefetch;
pub mod retry;
pub mod shard;
pub mod slot_table;
pub mod stats;
pub mod store;
pub mod strategy;

pub use aligned::{AlignedBuf, APV_ALIGN};
pub use arena::{AdmissionError, ArenaCounters, SlotArena, TenantGrant};
pub use cancel::{CancelToken, CancellingStore};
pub use compress::{
    compressed_capacity_f64s, CompressingStore, CompressionCounters, CompressionMode,
};
pub use diskmodel::DiskModel;
pub use error::{OocError, OocOp, OocResult};
pub use fault::{FaultInjectingStore, FaultKind, FaultOp, FaultPlan, FaultRule, FaultStats};
pub use manager::{
    validate_byte_budget, Intent, ItemId, OocConfig, OocConfigBuilder, OocConfigError,
    PinnedSession, SlotId, VectorManager, DEFAULT_PREFETCH_WINDOW, MAX_PINS,
};
pub use obs::{
    Clock, Event, EventSink, JsonlSink, LatencyHistogram, ManualClock, MemorySink, MonotonicClock,
    NullSink, Recorder, StallAttribution, StallKind,
};
pub use plan::{AccessPlan, AccessRecord, PlanCursor};
pub use prefetch::{PrefetchStats, PrefetchingStore};
pub use retry::{RetryPolicy, RetryStats, RetryingStore};
pub use shard::{even_ranges, par_each_mut, parallelism, split_budget, split_budget_checked};
pub use slot_table::{DataPlane, NullPlane, SlotCacheSim, SlotTable};
pub use stats::OocStats;
pub use store::{BackingStore, FileStore, MemStore};
pub use strategy::{EvictionView, ReplacementStrategy, StrategyKind, TopologyOracle};
