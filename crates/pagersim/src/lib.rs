//! Virtual-memory paging simulator — the "standard implementation using
//! paging" baseline of the paper's Figure 5.
//!
//! The paper compares its out-of-core implementation against stock RAxML on
//! a 2 GB machine with 36 GB of swap, where the OS pages ancestral vectors
//! in and out at page granularity with no application knowledge. Inside a
//! build sandbox we cannot reconfigure swap, so this crate reproduces the
//! *mechanism* faithfully instead:
//!
//! * a flat virtual address space backed by a real swap file,
//! * a fixed pool of 4 KiB physical frames,
//! * CLOCK (second-chance) reclaim — the classic approximation of the
//!   kernel's page replacement,
//! * demand paging with real positioned file I/O per 4 KiB page, and
//! * fault / writeback counters matching the paper's reported
//!   page-fault numbers (346 861 faults at 2 GB growing to 902 489 at 5 GB).
//!
//! The contrast this sets up is exactly the paper's: the pager moves many
//! small scattered pages and evicts without application knowledge, while
//! the out-of-core manager moves few large vectors and pins what the
//! current computation needs.

pub mod arena;
pub mod slotsim;
pub mod stats;

pub use arena::{PagedArena, PAGE_SIZE};
pub use slotsim::{SimGeometry, SlotCacheSim};
pub use stats::PageStats;
