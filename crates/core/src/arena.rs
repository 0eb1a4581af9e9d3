//! Shared slot arena: one global byte budget, many concurrent tenants.
//!
//! The paper bounds a *single* analysis to a fixed RAM fraction `f` (or the
//! `-L` byte limit). A long-running likelihood service instead runs many
//! analyses at once against **one** budget, so the per-job limit becomes a
//! dynamic grant handed out by this arena:
//!
//! * **Admission control** — [`SlotArena::admit`] accepts a job only if its
//!   *guaranteed minimum* (enough slot RAM for every manager's 3 pinned
//!   vectors) still fits next to the minimums of all running tenants.
//!   Ungrantable jobs are *rejected up front* instead of OOM-ing the
//!   process mid-traversal.
//! * **Fair apportionment** — the budget left over after all minimums are
//!   guaranteed (the *surplus*) is split across tenants proportionally to
//!   their outstanding demand (`want − min`) with the same largest-remainder
//!   arithmetic the partitioned engine uses for its per-partition `-L`
//!   budgets ([`crate::shard::split_budget`]), recomputed on every
//!   admission and release. A tenant's **allowance** is therefore elastic:
//!   it shrinks when a new tenant is admitted and grows back when one
//!   leaves.
//! * **RAII release** — [`TenantGrant`] is a cheaply cloneable handle; the
//!   last clone dropped (engine drop, job completion *or cancellation
//!   mid-traversal*) removes the tenant and re-spreads its allowance, so
//!   the arena is always reusable afterwards.
//!
//! The arena tracks *bytes*, not slots: managers of different vector widths
//! (partitions, shards) charge their actual slot-buffer sizes against one
//! grant. `VectorManager::attach_tenant` allocates slot buffers lazily,
//! charges the grant on occupation, and trims residency back (counted here
//! as [`ArenaCounters::fair_evictions`]) whenever the allowance shrinks
//! below usage — see the manager docs for the eviction mechanics.

use crate::manager::{validate_byte_budget, OocConfigError};
use crate::shard::split_budget;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Why [`SlotArena::admit`] refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant's guaranteed minimum does not fit next to the minimums
    /// of the already-admitted tenants.
    Insufficient {
        /// Bytes the job needs guaranteed (its managers' pinned floors).
        min_bytes: u64,
        /// Bytes already promised to running tenants.
        reserved_bytes: u64,
        /// The arena's total budget.
        total_bytes: u64,
    },
    /// The request itself is malformed (zero/overflowing byte budget) —
    /// the same validation [`crate::OocConfig::builder`] and
    /// [`crate::shard::split_budget_checked`] apply.
    Invalid(OocConfigError),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Insufficient {
                min_bytes,
                reserved_bytes,
                total_bytes,
            } => write!(
                f,
                "admission rejected: {min_bytes} B minimum cannot be guaranteed \
                 ({reserved_bytes} B of {total_bytes} B already promised)"
            ),
            AdmissionError::Invalid(e) => write!(f, "admission rejected: {e}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Arena-level counters, cumulative since construction. Exposed for the
/// serve smoke checks: a healthy multi-tenant run shows nonzero
/// `admissions` and (under contention) nonzero `fair_evictions`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaCounters {
    /// Tenants admitted.
    pub admissions: u64,
    /// Jobs refused by admission control.
    pub rejections: u64,
    /// Tenants released (all grant clones dropped).
    pub releases: u64,
    /// Evictions forced by cross-tenant pressure rather than a manager's
    /// own slot capacity: an allowance shrank below usage (trim), or a
    /// charge for a free slot was refused.
    pub fair_evictions: u64,
}

/// One admitted tenant's shared ledger entry.
struct TenantEntry {
    label: String,
    /// Guaranteed bytes (never redistributed away).
    min: u64,
    /// Bytes the tenant would use unconstrained (its full slot demand).
    want: u64,
    /// Current allowance: `min` + fair share of the surplus, `≤ want`.
    allowed: AtomicU64,
    /// Bytes of slot buffers currently charged by the tenant's managers.
    used: AtomicU64,
}

struct ArenaInner {
    total: u64,
    tenants: Mutex<Vec<Arc<TenantEntry>>>,
    admissions: AtomicU64,
    rejections: AtomicU64,
    releases: AtomicU64,
    fair_evictions: AtomicU64,
}

impl ArenaInner {
    /// Recompute every tenant's allowance: guaranteed minimum plus a
    /// largest-remainder share of the surplus, proportional to outstanding
    /// demand and capped at `want`. Caller holds the tenants lock.
    fn redistribute(&self, tenants: &[Arc<TenantEntry>]) {
        if tenants.is_empty() {
            return;
        }
        let min_sum: u64 = tenants.iter().map(|t| t.min).sum();
        debug_assert!(min_sum <= self.total, "admission let minimums overflow");
        let surplus = self.total - min_sum;
        let weights: Vec<u64> = tenants.iter().map(|t| t.want - t.min).collect();
        let shares = split_budget(surplus, &weights);
        for (t, share) in tenants.iter().zip(shares) {
            let allowed = (t.min + share).min(t.want);
            t.allowed.store(allowed, Ordering::Release);
        }
    }
}

/// The shared arena (cheaply cloneable handle). See the module docs.
#[derive(Clone)]
pub struct SlotArena {
    inner: Arc<ArenaInner>,
}

impl SlotArena {
    /// An arena over `total_bytes` of slot RAM. Rejects a zero/overflowing
    /// budget with the same validation as [`crate::OocConfig::builder`].
    pub fn new(total_bytes: u64) -> Result<SlotArena, OocConfigError> {
        validate_byte_budget(total_bytes)?;
        Ok(SlotArena {
            inner: Arc::new(ArenaInner {
                total: total_bytes,
                tenants: Mutex::new(Vec::new()),
                admissions: AtomicU64::new(0),
                rejections: AtomicU64::new(0),
                releases: AtomicU64::new(0),
                fair_evictions: AtomicU64::new(0),
            }),
        })
    }

    /// Admit a tenant wanting `want_bytes` of slot RAM, of which
    /// `min_bytes` must be *guaranteed* (the pinned-slot floors of its
    /// managers). Returns the grant on success; rejects — without touching
    /// any running tenant — if the minimum cannot be promised.
    pub fn admit(
        &self,
        label: impl Into<String>,
        want_bytes: u64,
        min_bytes: u64,
    ) -> Result<TenantGrant, AdmissionError> {
        let label = label.into();
        if let Err(e) = validate_byte_budget(want_bytes) {
            self.inner.rejections.fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::Invalid(e));
        }
        if min_bytes > want_bytes {
            self.inner.rejections.fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::Invalid(OocConfigError::new(format!(
                "guaranteed minimum ({min_bytes} B) exceeds requested budget ({want_bytes} B)"
            ))));
        }
        let mut tenants = self.inner.tenants.lock().expect("arena lock poisoned");
        let reserved: u64 = tenants.iter().map(|t| t.min).sum();
        if reserved + min_bytes > self.inner.total {
            self.inner.rejections.fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::Insufficient {
                min_bytes,
                reserved_bytes: reserved,
                total_bytes: self.inner.total,
            });
        }
        let entry = Arc::new(TenantEntry {
            label,
            min: min_bytes,
            want: want_bytes,
            allowed: AtomicU64::new(min_bytes),
            used: AtomicU64::new(0),
        });
        tenants.push(entry.clone());
        self.inner.redistribute(&tenants);
        drop(tenants);
        self.inner.admissions.fetch_add(1, Ordering::Relaxed);
        Ok(TenantGrant {
            shared: Arc::new(GrantShared {
                entry,
                arena: self.inner.clone(),
            }),
        })
    }

    /// Cumulative counters.
    pub fn counters(&self) -> ArenaCounters {
        ArenaCounters {
            admissions: self.inner.admissions.load(Ordering::Relaxed),
            rejections: self.inner.rejections.load(Ordering::Relaxed),
            releases: self.inner.releases.load(Ordering::Relaxed),
            fair_evictions: self.inner.fair_evictions.load(Ordering::Relaxed),
        }
    }

    /// The arena's byte budget.
    pub fn total_bytes(&self) -> u64 {
        self.inner.total
    }

    /// Bytes currently charged across all tenants.
    pub fn used_bytes(&self) -> u64 {
        let tenants = self.inner.tenants.lock().expect("arena lock poisoned");
        tenants.iter().map(|t| t.used.load(Ordering::Relaxed)).sum()
    }

    /// Number of currently admitted tenants.
    pub fn n_tenants(&self) -> usize {
        self.inner
            .tenants
            .lock()
            .expect("arena lock poisoned")
            .len()
    }
}

impl std::fmt::Debug for SlotArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotArena")
            .field("total_bytes", &self.inner.total)
            .field("n_tenants", &self.n_tenants())
            .field("counters", &self.counters())
            .finish()
    }
}

/// Drop-guarded membership: removing the entry and re-spreading its
/// allowance happens exactly once, when the last [`TenantGrant`] clone
/// goes away.
struct GrantShared {
    entry: Arc<TenantEntry>,
    arena: Arc<ArenaInner>,
}

impl Drop for GrantShared {
    fn drop(&mut self) {
        let mut tenants = self.arena.tenants.lock().expect("arena lock poisoned");
        tenants.retain(|t| !Arc::ptr_eq(t, &self.entry));
        self.arena.redistribute(&tenants);
        drop(tenants);
        self.arena.releases.fetch_add(1, Ordering::Relaxed);
    }
}

/// A tenant's elastic memory grant, shared by every `VectorManager` of one
/// job's engine (clone per manager). All methods are thread-safe: sharded
/// managers charge and release concurrently.
#[derive(Clone)]
pub struct TenantGrant {
    shared: Arc<GrantShared>,
}

impl TenantGrant {
    /// The tenant's label (for metrics scopes and reports).
    pub fn label(&self) -> &str {
        &self.shared.entry.label
    }

    /// Current allowance in bytes (elastic; shrinks under contention).
    pub fn allowed_bytes(&self) -> u64 {
        self.shared.entry.allowed.load(Ordering::Acquire)
    }

    /// Bytes currently charged.
    pub fn used_bytes(&self) -> u64 {
        self.shared.entry.used.load(Ordering::Acquire)
    }

    /// How far usage exceeds the (possibly shrunk) allowance. Managers trim
    /// occupied slots until this returns to zero.
    ///
    /// The pair is snapshotted under the arena's rebalance lock: every
    /// store to `allowed` happens inside `redistribute`, whose callers
    /// hold that lock, so `allowed` cannot move between the two loads.
    /// Two independent `Acquire` loads could interleave with a concurrent
    /// `release` + rebalance and pair a *pre-release* `used` with a
    /// *post-shrink* `allowed`, reporting phantom overage and triggering a
    /// spurious fair-eviction trim.
    pub fn overage(&self) -> u64 {
        let _allowed_frozen = self
            .shared
            .arena
            .tenants
            .lock()
            .expect("arena lock poisoned");
        self.used_bytes().saturating_sub(self.allowed_bytes())
    }

    /// Try to charge `bytes` against the allowance; `false` (and no charge)
    /// if the allowance would be exceeded.
    pub fn try_charge(&self, bytes: u64) -> bool {
        let entry = &self.shared.entry;
        let allowed = entry.allowed.load(Ordering::Acquire);
        let mut used = entry.used.load(Ordering::Acquire);
        loop {
            if used + bytes > allowed {
                return false;
            }
            match entry.used.compare_exchange_weak(
                used,
                used + bytes,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => used = actual,
            }
        }
    }

    /// Charge unconditionally — the manager's pinned floor (a combine's
    /// three vectors must always fit, admission guaranteed bytes for them).
    /// Any transient overshoot shows up in [`TenantGrant::overage`] and is
    /// trimmed back at the next opportunity.
    pub fn charge_forced(&self, bytes: u64) {
        self.shared.entry.used.fetch_add(bytes, Ordering::AcqRel);
    }

    /// Return `bytes` previously charged.
    pub fn release(&self, bytes: u64) {
        let prev = self.shared.entry.used.fetch_sub(bytes, Ordering::AcqRel);
        debug_assert!(prev >= bytes, "tenant released more than it charged");
    }

    /// Record an eviction forced by cross-tenant pressure (see
    /// [`ArenaCounters::fair_evictions`]).
    pub fn note_fair_eviction(&self) {
        self.shared
            .arena
            .fair_evictions
            .fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for TenantGrant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantGrant")
            .field("label", &self.label())
            .field("allowed_bytes", &self.allowed_bytes())
            .field("used_bytes", &self.used_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_arena_is_rejected() {
        assert!(SlotArena::new(0).is_err());
    }

    #[test]
    fn admission_grants_and_releases() {
        let arena = SlotArena::new(1000).unwrap();
        let g = arena.admit("a", 800, 200).unwrap();
        assert_eq!(arena.n_tenants(), 1);
        // Sole tenant: full surplus flows to it, capped at want.
        assert_eq!(g.allowed_bytes(), 800);
        drop(g);
        assert_eq!(arena.n_tenants(), 0);
        let c = arena.counters();
        assert_eq!((c.admissions, c.releases, c.rejections), (1, 1, 0));
    }

    #[test]
    fn minimums_are_guaranteed_and_overflow_rejected() {
        let arena = SlotArena::new(1000).unwrap();
        let _a = arena.admit("a", 900, 600).unwrap();
        let _b = arena.admit("b", 500, 300).unwrap();
        // 600 + 300 promised; a third minimum of 200 cannot be.
        let err = arena.admit("c", 400, 200).unwrap_err();
        match err {
            AdmissionError::Insufficient {
                min_bytes,
                reserved_bytes,
                total_bytes,
            } => {
                assert_eq!((min_bytes, reserved_bytes, total_bytes), (200, 900, 1000));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(arena.counters().rejections, 1);
        // The running tenants were not disturbed.
        assert_eq!(arena.n_tenants(), 2);
    }

    #[test]
    fn surplus_is_split_by_outstanding_demand() {
        let arena = SlotArena::new(1000).unwrap();
        let a = arena.admit("a", 700, 100).unwrap(); // demand 600
        let b = arena.admit("b", 400, 100).unwrap(); // demand 300
                                                     // Surplus 800 split 2:1 -> a: 100+533, b: 100+267 (largest
                                                     // remainder, exact sum).
        assert_eq!(a.allowed_bytes() + b.allowed_bytes(), 1000);
        assert!(a.allowed_bytes() > b.allowed_bytes());
        // b leaves: a's allowance grows back toward want.
        drop(b);
        assert_eq!(a.allowed_bytes(), 700);
    }

    #[test]
    fn allowance_is_capped_at_want() {
        let arena = SlotArena::new(10_000).unwrap();
        let a = arena.admit("a", 500, 100).unwrap();
        assert_eq!(a.allowed_bytes(), 500);
    }

    #[test]
    fn charges_respect_allowance_and_forced_overage_trims() {
        let arena = SlotArena::new(1000).unwrap();
        let a = arena.admit("a", 1000, 100).unwrap();
        assert!(a.try_charge(600));
        assert!(a.try_charge(400));
        assert!(!a.try_charge(1)); // allowance exhausted
        assert_eq!(a.used_bytes(), 1000);
        assert_eq!(arena.used_bytes(), 1000);
        // A second tenant shrinks a's allowance below its usage.
        let b = arena.admit("b", 500, 100).unwrap();
        assert!(a.overage() > 0);
        assert!(b.allowed_bytes() >= 100);
        // a trims (as its managers would) until the overage clears.
        while a.overage() > 0 {
            a.release(100);
            a.note_fair_eviction();
        }
        assert!(arena.counters().fair_evictions > 0);
        assert!(!a.try_charge(1000)); // still constrained
        drop(b);
        assert!(a.try_charge(100)); // grows back after release
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let arena = SlotArena::new(1000).unwrap();
        assert!(matches!(
            arena.admit("z", 0, 0),
            Err(AdmissionError::Invalid(_))
        ));
        assert!(matches!(
            arena.admit("z", 100, 200),
            Err(AdmissionError::Invalid(_))
        ));
        assert_eq!(arena.counters().rejections, 2);
    }

    #[test]
    fn grant_clones_share_one_membership() {
        let arena = SlotArena::new(1000).unwrap();
        let a = arena.admit("a", 800, 100).unwrap();
        let a2 = a.clone();
        drop(a);
        assert_eq!(arena.n_tenants(), 1, "clone keeps the tenant alive");
        a2.charge_forced(50);
        assert_eq!(arena.used_bytes(), 50);
        drop(a2);
        assert_eq!(arena.n_tenants(), 0);
        assert_eq!(arena.counters().releases, 1);
    }

    #[test]
    fn concurrent_charges_never_exceed_allowance() {
        let arena = SlotArena::new(100_000).unwrap();
        let g = arena.admit("a", 10_000, 3_000).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let g = g.clone();
                std::thread::spawn(move || {
                    let mut charged = 0u64;
                    for _ in 0..1000 {
                        if g.try_charge(7) {
                            charged += 7;
                        }
                    }
                    charged
                })
            })
            .collect();
        let total: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(g.used_bytes(), total);
        assert!(total <= 10_000);
    }

    /// Interleaving regression for the `overage` snapshot: the mutator
    /// keeps the invariant `used ≤ allowed` at every instant (it charges
    /// only while solo and releases before admitting a rival that shrinks
    /// the allowance), so *any consistent* snapshot shows zero overage.
    /// The old two-load implementation could pair a pre-release `used`
    /// (800) with a post-shrink `allowed` (300) and report 500 bytes of
    /// phantom overage — which a manager would answer with a spurious
    /// fair-eviction trim.
    #[test]
    fn overage_snapshot_is_consistent_under_rebalance() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        let arena = SlotArena::new(1000).unwrap();
        let a = arena.admit("a", 900, 300).unwrap();
        a.charge_forced(300); // the tenant's permanent floor (≤ its min)
        let stop = Arc::new(AtomicBool::new(false));
        // Statistic only: the writer waits on it, no data is published.
        let checks = Arc::new(AtomicU64::new(0));
        let reader = {
            let a = a.clone();
            let stop = Arc::clone(&stop);
            let checks = Arc::clone(&checks);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    assert_eq!(a.overage(), 0, "phantom overage from a torn snapshot");
                    checks.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        // At least 2000 rebalances, and as many more as it takes for the
        // reader to get scheduled and race one: on a loaded two-core box
        // it may not run at all within the first 2000.
        const MAX_ROUNDS: u32 = 10_000_000;
        let mut rounds = 0u32;
        while rounds < 2000 || checks.load(Ordering::Relaxed) == 0 {
            assert!(
                rounds < MAX_ROUNDS,
                "reader thread made no check in {MAX_ROUNDS} rebalances"
            );
            if rounds >= 2000 {
                std::thread::yield_now();
            }
            a.charge_forced(500); // solo: allowed is 900, used peaks at 800
            a.release(500);
            // Admitting `b` shrinks a's allowance to its 300-byte min —
            // legal only because `a` released first.
            let b = arena.admit("b", 700, 700).unwrap();
            drop(b);
            rounds += 1;
        }
        stop.store(true, Ordering::Release);
        reader.join().unwrap();
    }
}
