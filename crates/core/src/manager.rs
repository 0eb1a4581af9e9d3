//! The out-of-core vector manager — the paper's `map` structure plus
//! `getxvector()` logic.
//!
//! `n` fixed-width vectors ("items", one per ancestral node) are kept either
//! in one of `m` RAM slots or in a [`BackingStore`]. Every access goes
//! through the manager. *Which* operations an access causes — hit
//! tracking, victim selection via a [`ReplacementStrategy`], pinning of
//! the vectors of the current likelihood combine, read skipping for
//! write-only first accesses, statistics — is decided by the data-free
//! [`SlotTable`]; this module adds the bytes: the slot buffers, the store,
//! the tenant grant and the recorder, as the table's [`DataPlane`].

use crate::aligned::AlignedBuf;
use crate::arena::TenantGrant;
use crate::error::OocResult;
use crate::obs::{Recorder, StallKind};
use crate::plan::{AccessPlan, AccessRecord};
use crate::slot_table::{DataPlane, SlotTable};
use crate::stats::OocStats;
use crate::store::BackingStore;
use crate::strategy::ReplacementStrategy;
use std::io;

/// Dense id of a managed vector (= inner-node index in the PLF).
pub type ItemId = u32;
/// Index of a RAM slot, `0..m`.
pub type SlotId = u32;

/// What the caller will do with the acquired vector. `Write` promises the
/// entire vector is overwritten before any read, which licenses read
/// skipping on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// Vector contents will be read.
    Read,
    /// Vector will be completely overwritten before being read.
    Write,
}

/// Sizing and behaviour configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OocConfig {
    /// Number of managed vectors, `n` (= inner nodes of the tree).
    pub n_items: usize,
    /// Vector width in `f64` elements (`w = width · 8` bytes).
    pub width: usize,
    /// Number of RAM slots, `m`; the paper requires `m ≥ 3`.
    pub n_slots: usize,
    /// Enable §3.4 read skipping (on by default; Figure 3 compares off/on).
    pub read_skipping: bool,
    /// Write every evicted vector back even if it was never modified while
    /// resident — the paper's unconditional swap behaviour (default). Off =
    /// dirty tracking, an ablation this implementation adds.
    pub always_write_back: bool,
}

/// No effect; kept until ROADMAP item 1 re-bases `benchmark/`.
pub const DEFAULT_PREFETCH_WINDOW: usize = 16;

/// Most vectors one session pins: the two children and the parent of a
/// Felsenstein combine — what the paper's `m ≥ 3` minimum guarantees fit.
pub const MAX_PINS: usize = 3;

impl OocConfig {
    /// Start building a config for `n_items` vectors of `width` doubles.
    /// Sizing (slots, RAM fraction or byte limit) and behaviour flags are
    /// set on the [`OocConfigBuilder`]; validation happens once, in
    /// [`OocConfigBuilder::build`].
    pub fn builder(n_items: usize, width: usize) -> OocConfigBuilder {
        OocConfigBuilder {
            n_items,
            width,
            sizing: Sizing::AllResident,
            read_skipping: true,
            always_write_back: true,
        }
    }

    /// RAM actually allocated for slots, in bytes (`m · w`).
    pub fn slot_bytes(&self) -> u64 {
        self.n_slots as u64 * self.width as u64 * 8
    }

    /// Bytes the full vector set would need (`n · w`).
    pub fn total_bytes(&self) -> u64 {
        self.n_items as u64 * self.width as u64 * 8
    }

    /// The geometry invariant, stated once: a non-empty item space of
    /// non-empty vectors and `3 ≤ m ≤ max(n, 3)` slots — RAM must hold the
    /// three pinned vectors of one combine, and never more slots than
    /// items. [`OocConfigBuilder::build`] reports it, [`SlotTable::new`]
    /// (so every manager and simulator) asserts it.
    pub fn validate(&self) -> Result<(), OocConfigError> {
        if self.n_items == 0 {
            return Err(OocConfigError::new("n_items must be positive"));
        }
        if self.width == 0 {
            return Err(OocConfigError::new("vector width must be positive"));
        }
        let m = self.n_slots;
        if m < 3 {
            return Err(OocConfigError::new(format!(
                "{m} slots requested but the paper's pinning minimum is 3 \
                 (parent + two children of one combine)"
            )));
        }
        if m > self.n_items.max(3) {
            return Err(OocConfigError::new(format!(
                "{m} slots requested for {} items (more slots than items)",
                self.n_items
            )));
        }
        Ok(())
    }
}

/// How the builder determines the slot count.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sizing {
    /// No limit requested: every vector gets a slot.
    AllResident,
    /// Exact slot count (validated, not clamped).
    Slots(usize),
    /// The paper's `f` parameter: `m = f·n`, clamped to `[3, n]`.
    Fraction(f64),
    /// The paper's `-L` flag: at most this many bytes of slot RAM,
    /// clamped to `[3, n]` slots.
    ByteLimit(u64),
}

/// A rejected [`OocConfigBuilder::build`], with the paper's constraint that
/// was violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OocConfigError(String);

impl OocConfigError {
    /// Build from a message (crate-internal: every byte-budget entry point
    /// reports through this one error type so callers see identical
    /// failures regardless of path).
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        OocConfigError(msg.into())
    }
}

/// The single validation every byte-budget entry point shares:
/// [`OocConfigBuilder::byte_limit`], [`crate::shard::split_budget_checked`]
/// and [`crate::arena::SlotArena`] admission all funnel a requested budget
/// through here, so a zero or overflowing budget produces the *same*
/// [`OocConfigError`] no matter which path received it.
pub fn validate_byte_budget(bytes: u64) -> Result<(), OocConfigError> {
    if bytes == 0 {
        return Err(OocConfigError::new("byte budget must be positive"));
    }
    // Positioned I/O offsets are signed 64-bit; a budget beyond i64::MAX
    // can overflow offset arithmetic long before any allocation fails.
    if bytes > i64::MAX as u64 {
        return Err(OocConfigError::new(format!(
            "byte budget {bytes} overflows signed I/O offset arithmetic"
        )));
    }
    Ok(())
}

impl std::fmt::Display for OocConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid out-of-core config: {}", self.0)
    }
}

impl std::error::Error for OocConfigError {}

/// Builder for [`OocConfig`] — the single construction path. Geometry
/// errors (fewer than the paper's 3-slot pinning minimum, more slots than
/// items, empty geometry) are reported by [`OocConfigBuilder::build`]
/// instead of panicking deep inside the manager.
#[derive(Debug, Clone)]
pub struct OocConfigBuilder {
    n_items: usize,
    width: usize,
    sizing: Sizing,
    read_skipping: bool,
    always_write_back: bool,
}

impl OocConfigBuilder {
    /// Exactly `m` slots. Rejected at build time unless `3 ≤ m ≤ max(n, 3)`
    /// — RAM must hold the three pinned vectors of one combine.
    pub fn slots(mut self, m: usize) -> Self {
        self.sizing = Sizing::Slots(m);
        self
    }

    /// The paper's `f` parameter: keep `m = f·n` vectors in RAM
    /// (clamped to `[3, n]`).
    pub fn fraction(mut self, f: f64) -> Self {
        self.sizing = Sizing::Fraction(f);
        self
    }

    /// The paper's `-L` flag: allocate at most `bytes` of RAM for slots
    /// (clamped to `[3, n]` slots).
    pub fn byte_limit(mut self, bytes: u64) -> Self {
        self.sizing = Sizing::ByteLimit(bytes);
        self
    }

    /// Enable or disable §3.4 read skipping (on by default).
    pub fn read_skipping(mut self, on: bool) -> Self {
        self.read_skipping = on;
        self
    }

    /// Paper-style unconditional write-back on eviction (on by default);
    /// off switches to dirty tracking.
    pub fn always_write_back(mut self, on: bool) -> Self {
        self.always_write_back = on;
        self
    }

    /// No effect; kept until ROADMAP item 1 re-bases `benchmark/`.
    pub fn prefetch_window(self, _window: usize) -> Self {
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<OocConfig, OocConfigError> {
        let max_slots = self.n_items.max(3);
        let n_slots = match self.sizing {
            Sizing::AllResident => max_slots,
            Sizing::Slots(m) => m,
            Sizing::Fraction(f) => {
                if f.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err(OocConfigError(format!("fraction {f} must be positive")));
                }
                ((self.n_items as f64 * f).round() as usize).clamp(3, max_slots)
            }
            Sizing::ByteLimit(bytes) => {
                validate_byte_budget(bytes)?;
                // A zero width is rejected by `validate` below.
                let per_slot = (self.width as u64 * 8).max(1);
                ((bytes / per_slot) as usize).clamp(3, max_slots)
            }
        };
        let cfg = OocConfig {
            n_items: self.n_items,
            width: self.width,
            n_slots,
            read_skipping: self.read_skipping,
            always_write_back: self.always_write_back,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

/// The real [`DataPlane`]: slot buffers over a backing store, optionally
/// charged to a tenant grant and observed by a recorder.
struct StorePlane<S: BackingStore> {
    /// Vector width in `f64`s.
    width: usize,
    /// Slot arena: every buffer is 64-byte aligned ([`crate::aligned`]) so
    /// the SIMD kernels' site strides never straddle cache lines.
    slots: Vec<AlignedBuf>,
    store: S,
    /// Multi-tenant mode ([`VectorManager::attach_tenant`]): slot buffers
    /// are allocated lazily and charged against this elastic grant; when
    /// the grant's allowance shrinks below usage, occupied slots are
    /// trimmed back (fair cross-tenant eviction). `None` = classic
    /// single-tenant behaviour, buffers eagerly allocated.
    tenant: Option<TenantGrant>,
    /// Observability: when attached, per-access hit/miss/evict latency
    /// lands in histograms and every store transfer becomes an attributed
    /// span (see [`crate::obs`]). `None` costs nothing on the hot path.
    obs: Option<Recorder>,
}

impl<S: BackingStore> StorePlane<S> {
    /// One slot buffer's RAM cost in bytes (the arena charging unit, and
    /// the size of every transfer).
    fn slot_bytes(&self) -> u64 {
        self.width as u64 * 8
    }
}

impl<S: BackingStore> DataPlane for StorePlane<S> {
    fn write_back(&mut self, item: ItemId, slot: SlotId) -> io::Result<()> {
        let t0 = self.now();
        self.store.write(item, &self.slots[slot as usize])?;
        // Success only, and one op name for eviction and flush, so
        // write-back events == disk_writes.
        if let Some(rec) = &self.obs {
            rec.span_at("manager", "write-back", StallKind::WriteBack, t0)
                .item(item)
                .bytes(self.slot_bytes())
                .finish();
        }
        Ok(())
    }

    fn read(&mut self, item: ItemId, slot: SlotId) -> io::Result<()> {
        let t0 = self.now();
        self.store.read(item, &mut self.slots[slot as usize])?;
        // Success only, so demand-read events == disk_reads.
        if let Some(rec) = &self.obs {
            rec.span_at("manager", "demand-read", StallKind::DemandRead, t0)
                .item(item)
                .bytes(self.slot_bytes())
                .finish();
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        let t0 = self.now();
        self.store.flush()?;
        if let Some(rec) = &self.obs {
            rec.span_at("manager", "flush", StallKind::WriteBack, t0)
                .finish();
        }
        Ok(())
    }

    fn zero(&mut self, slot: SlotId) {
        self.slots[slot as usize].fill(0.0);
    }

    fn over_allowance(&self) -> bool {
        self.tenant.as_ref().is_some_and(|g| g.overage() > 0)
    }

    fn try_occupy(&mut self, slot: SlotId) -> bool {
        let Some(grant) = &self.tenant else {
            return true;
        };
        let s = slot as usize;
        if self.slots[s].len() == self.width {
            // Buffer retained from an earlier occupation — already paid.
            return true;
        }
        if !grant.try_charge(self.slot_bytes()) {
            return false;
        }
        self.slots[s] = AlignedBuf::zeroed(self.width);
        true
    }

    fn force_occupy(&mut self, slot: SlotId) {
        if let Some(grant) = &self.tenant {
            grant.charge_forced(self.slot_bytes());
        }
        self.slots[slot as usize] = AlignedBuf::zeroed(self.width);
    }

    fn fair_eviction(&mut self, slot: SlotId, release: bool) {
        let Some(grant) = &self.tenant else {
            return;
        };
        if release {
            // Free the buffer so the released bytes flow to the tenant
            // that is owed them.
            self.slots[slot as usize] = AlignedBuf::zeroed(0);
            grant.release(self.slot_bytes());
        }
        grant.note_fair_eviction();
    }

    fn now(&self) -> u64 {
        self.obs.as_ref().map_or(0, |r| r.now())
    }

    /// Far too frequent for one event each; the histogram keeps every
    /// observation. Unattributed: the stall part of a miss or an eviction
    /// is already covered by its demand-read / write-back span.
    fn latency(&self, op: &'static str, since: u64) {
        if let Some(rec) = &self.obs {
            rec.span_at("manager", op, StallKind::Compute, since)
                .hist_only()
                .unattributed()
                .finish();
        }
    }
}

/// Out-of-core vector manager over a backing store `S`: the shared
/// [`SlotTable`] plus the plane that holds the bytes.
pub struct VectorManager<S: BackingStore> {
    table: SlotTable,
    plane: StorePlane<S>,
}

impl<S: BackingStore> VectorManager<S> {
    /// Create a manager. Panics unless `3 ≤ m ≤ max(n, 3)` (the paper's
    /// constraint: RAM must hold at least the three vectors of one
    /// combine); see [`OocConfig::validate`].
    pub fn new(cfg: OocConfig, strategy: Box<dyn ReplacementStrategy>, store: S) -> Self {
        VectorManager {
            table: SlotTable::new(cfg, strategy),
            plane: StorePlane {
                width: cfg.width,
                slots: (0..cfg.n_slots)
                    .map(|_| AlignedBuf::zeroed(cfg.width))
                    .collect(),
                store,
                tenant: None,
                obs: None,
            },
        }
    }

    /// Attach an observability recorder: per-access latency histograms
    /// plus attributed demand-read/write-back spans from now on.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.plane.obs = Some(rec);
    }

    /// Join a shared slot arena under `grant` (multi-tenant mode):
    ///
    /// * slot buffers become *lazy* — RAM is allocated (and charged against
    ///   the grant) only when a slot is first occupied, so `n_slots` is a
    ///   cap, not a reservation;
    /// * when the grant's allowance shrinks below what this manager (plus
    ///   its sibling managers on the same grant) has charged, the next
    ///   load trims occupied, unpinned slots back via the replacement
    ///   strategy — evictions attributed to *cross-tenant pressure*, not
    ///   this manager's own capacity;
    /// * a combine's pinned floor (3 slots) is never trimmed and charges
    ///   unconditionally: admission guaranteed those bytes.
    ///
    /// Residency never changes computed values, so a tenant-constrained
    /// run stays bit-identical to a solo run of the same job. Attach
    /// before first use (typically right after construction); buffers of
    /// already-occupied slots are charged as-is.
    pub fn attach_tenant(&mut self, grant: TenantGrant) {
        for (s, occupant) in self.table.slot_items().iter().enumerate() {
            if occupant.is_none() {
                self.plane.slots[s] = AlignedBuf::zeroed(0);
            } else {
                grant.charge_forced(self.plane.slot_bytes());
            }
        }
        self.plane.tenant = Some(grant);
    }

    /// The attached tenant grant, if any.
    pub fn tenant(&self) -> Option<&TenantGrant> {
        self.plane.tenant.as_ref()
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.plane.obs.as_ref()
    }

    /// Configuration in effect.
    pub fn config(&self) -> &OocConfig {
        self.table.config()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &OocStats {
        self.table.stats()
    }

    /// Reset statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.table.reset_stats();
    }

    /// Name of the replacement strategy.
    pub fn strategy_name(&self) -> &'static str {
        self.table.strategy_name()
    }

    /// Borrow the backing store (e.g. to read a virtual I/O clock).
    pub fn store(&self) -> &S {
        &self.plane.store
    }

    /// Items currently resident in RAM.
    pub fn resident_items(&self) -> Vec<ItemId> {
        self.table.slot_items().iter().flatten().copied().collect()
    }

    /// Is `item` currently resident?
    pub fn is_resident(&self, item: ItemId) -> bool {
        self.table.slot_of(item).is_some()
    }

    /// Submit the access plan of an upcoming traversal. The manager derives
    /// everything from the plan's own analysis instead of trusting
    /// caller-maintained lists: read-skip flags from the write-first items
    /// (§3.4), and the plan positions feed any plan-aware replacement
    /// strategy (NextUse). Submitting a new plan replaces the previous one.
    pub fn begin_plan(&mut self, plan: AccessPlan) {
        self.table.begin_plan(plan);
    }

    /// Record every subsequent access (item and intent, in order) until
    /// [`VectorManager::take_recording`] — pass one of the two-pass Belady
    /// oracle: the recorded stream of a deterministic workload is the
    /// exact future an identical re-run will produce.
    pub fn start_recording(&mut self) {
        self.table.start_recording();
    }

    /// Stop recording and return the recorded access stream as a plan
    /// (empty if recording was never started).
    pub fn take_recording(&mut self) -> AccessPlan {
        self.table.take_recording()
    }

    /// Install a full-run oracle plan — pass two: replay the workload whose
    /// access stream `plan` holds (recorded via
    /// [`VectorManager::start_recording`] on an identical run). The
    /// replacement strategy sees this plan with a position that advances on
    /// every access, while per-traversal [`VectorManager::begin_plan`]
    /// submissions keep driving read skipping only. With the
    /// NextUse strategy this is true Belady/OPT replacement: every
    /// eviction knows the complete future, so its miss rate lower-bounds
    /// every online strategy on the same stream.
    pub fn install_oracle_plan(&mut self, plan: AccessPlan) {
        self.table.install_oracle_plan(plan);
    }

    /// Lease a set of vectors, pinned for the lifetime of the returned
    /// [`PinnedSession`]. Each pin carries its access intent, which drives
    /// hit/miss accounting and §3.4 read skipping exactly like the
    /// individual acquisitions it replaces — pin order is access order, so
    /// a Felsenstein combine pins `[read left, read right, write parent]`
    /// to match its lowered plan. Nothing stays pinned if any acquisition
    /// fails; the session unpins everything on drop.
    ///
    /// On error the manager's bookkeeping is untouched by the failed step:
    /// a failed eviction write leaves the victim resident and dirty, a
    /// failed load read leaves the slot unoccupied and the item in the
    /// store — either way every later access sees consistent state.
    ///
    /// Panics if there are more than [`MAX_PINS`] pins (the paper's `m ≥ 3`
    /// minimum exists precisely so one combine's three pins always fit) or
    /// they name the same item twice.
    pub fn session(&mut self, pins: &[AccessRecord]) -> OocResult<PinnedSession<'_, S>> {
        assert!(pins.len() <= MAX_PINS, "{} pins cannot fit", pins.len());
        self.table.pin_group(&mut self.plane, pins)?;
        let mut held = [None; MAX_PINS];
        for (h, rec) in held.iter_mut().zip(pins) {
            let slot = self.table.slot_of(rec.item);
            *h = Some((rec.item, slot.expect("pinned items are resident")));
        }
        Ok(PinnedSession {
            pins: held,
            mgr: self,
        })
    }

    /// Copy a vector's current contents out (for tests and checkpointing).
    pub fn read_into(&mut self, item: ItemId, out: &mut [f64]) -> OocResult<()> {
        let s = self
            .table
            .ensure_resident(&mut self.plane, item, Intent::Read)?;
        out.copy_from_slice(&self.plane.slots[s as usize]);
        Ok(())
    }

    /// Overwrite a vector (counts as a write access).
    pub fn write_vector(&mut self, item: ItemId, data: &[f64]) -> OocResult<()> {
        let s = self
            .table
            .ensure_resident(&mut self.plane, item, Intent::Write)?;
        self.plane.slots[s as usize].copy_from_slice(data);
        Ok(())
    }

    /// Write every dirty resident vector to the store without evicting.
    ///
    /// Stops at the first failure; successfully flushed slots stay clean,
    /// the failing one stays dirty, so a retry resumes where it stopped.
    pub fn flush(&mut self) -> OocResult<()> {
        self.table.flush(&mut self.plane)
    }
}

/// A lease over a set of pinned vectors, created by
/// [`VectorManager::session`]. While the session lives, none of its
/// vectors can be chosen as an eviction victim; dropping it releases every
/// pin. Accessors take item ids (not slots), so callers never see the
/// slot indirection.
pub struct PinnedSession<'m, S: BackingStore> {
    mgr: &'m mut VectorManager<S>,
    /// Held inline: a session is opened per combine.
    pins: [Option<(ItemId, SlotId)>; MAX_PINS],
}

impl<S: BackingStore> std::fmt::Debug for PinnedSession<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedSession")
            .field("pins", &self.pins)
            .finish_non_exhaustive()
    }
}

impl<S: BackingStore> PinnedSession<'_, S> {
    fn slot_of(&self, item: ItemId) -> SlotId {
        self.pins
            .iter()
            .flatten()
            .find(|&&(i, _)| i == item)
            .map(|&(_, s)| s)
            .unwrap_or_else(|| panic!("item {item} is not pinned in this session"))
    }

    /// Items pinned by this session, in pin order.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.pins.iter().flatten().map(|&(item, _)| item)
    }

    /// Shared view of a pinned vector.
    pub fn read(&self, item: ItemId) -> &[f64] {
        &self.mgr.plane.slots[self.slot_of(item) as usize]
    }

    /// Mutable view of a pinned vector (marks its slot dirty).
    pub fn write(&mut self, item: ItemId) -> &mut [f64] {
        let slot = self.slot_of(item);
        self.mgr.table.mark_dirty(slot);
        &mut self.mgr.plane.slots[slot as usize]
    }

    /// The combine shape: one mutable target plus up to two shared source
    /// views, all simultaneously borrowed (tips have no ancestral vector,
    /// hence the `Option`s). All three must be pinned in this session and
    /// the sources must not alias the target.
    pub fn rw(
        &mut self,
        target: ItemId,
        src1: Option<ItemId>,
        src2: Option<ItemId>,
    ) -> (&mut [f64], Option<&[f64]>, Option<&[f64]>) {
        let ts = self.slot_of(target);
        let s1 = src1.map(|i| self.slot_of(i));
        let s2 = src2.map(|i| self.slot_of(i));
        assert!(
            Some(ts) != s1 && Some(ts) != s2,
            "combine target {target} aliases a source"
        );
        self.mgr.table.mark_dirty(ts);
        // SAFETY: ts, s1, s2 index distinct slots (distinct pinned items
        // map to distinct slots, and aliasing was rejected above) and each
        // slot is an independently boxed buffer, so one mutable and two
        // shared borrows cannot overlap.
        let base = self.mgr.plane.slots.as_mut_ptr();
        let tbuf: &mut [f64] = unsafe { &mut *base.add(ts as usize) };
        let b1: Option<&[f64]> = s1.map(|s| unsafe { &(**base.add(s as usize)) });
        let b2: Option<&[f64]> = s2.map(|s| unsafe { &(**base.add(s as usize)) });
        (tbuf, b1, b2)
    }
}

impl<S: BackingStore> Drop for PinnedSession<'_, S> {
    fn drop(&mut self) {
        for &(_, slot) in self.pins.iter().flatten() {
            self.mgr.table.unpin(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OocOp;
    use crate::store::MemStore;
    use crate::strategy::StrategyKind;

    fn manager(n: usize, m: usize, width: usize) -> VectorManager<MemStore> {
        VectorManager::new(
            OocConfig::builder(n, width).slots(m).build().unwrap(),
            StrategyKind::Lru.build(None),
            MemStore::new(n, width),
        )
    }

    fn fill(item: ItemId, width: usize) -> Vec<f64> {
        (0..width).map(|i| item as f64 * 100.0 + i as f64).collect()
    }

    #[test]
    fn data_survives_eviction_cycles() {
        let (n, m, w) = (20usize, 3usize, 16usize);
        let mut mgr = manager(n, m, w);
        for item in 0..n as u32 {
            mgr.write_vector(item, &fill(item, w)).unwrap();
        }
        // Everything but the last three now lives in the store.
        let mut buf = vec![0.0; w];
        for item in 0..n as u32 {
            mgr.read_into(item, &mut buf).unwrap();
            assert_eq!(buf, fill(item, w), "item {item} corrupted");
        }
    }

    #[test]
    fn hit_does_not_touch_store() {
        let mut mgr = manager(10, 4, 8);
        mgr.write_vector(0, &fill(0, 8)).unwrap();
        let before = *mgr.stats();
        let mut buf = vec![0.0; 8];
        mgr.read_into(0, &mut buf).unwrap();
        let delta = mgr.stats().since(&before);
        assert_eq!(delta.requests, 1);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.disk_reads, 0);
        assert_eq!(delta.disk_writes, 0);
    }

    #[test]
    fn miss_reads_from_store() {
        let mut mgr = manager(10, 3, 8);
        for item in 0..10 {
            mgr.write_vector(item, &fill(item, 8)).unwrap();
        }
        assert!(!mgr.is_resident(0));
        let before = *mgr.stats();
        let mut buf = vec![0.0; 8];
        mgr.read_into(0, &mut buf).unwrap();
        let delta = mgr.stats().since(&before);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.disk_reads, 1);
        assert_eq!(buf, fill(0, 8));
    }

    #[test]
    fn write_intent_skips_read() {
        let mut mgr = manager(10, 3, 8);
        for item in 0..10 {
            mgr.write_vector(item, &fill(item, 8)).unwrap();
        }
        let before = *mgr.stats();
        mgr.write_vector(0, &fill(0, 8)).unwrap(); // miss, but write-only
        let delta = mgr.stats().since(&before);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.disk_reads, 0);
        assert_eq!(delta.skipped_reads, 1);
    }

    #[test]
    fn read_skipping_can_be_disabled() {
        let cfg = OocConfig::builder(10, 8)
            .slots(3)
            .read_skipping(false)
            .build()
            .unwrap();
        let mut mgr = VectorManager::new(cfg, StrategyKind::Lru.build(None), MemStore::new(10, 8));
        for item in 0..10 {
            mgr.write_vector(item, &fill(item, 8)).unwrap();
        }
        let before = *mgr.stats();
        mgr.write_vector(0, &fill(0, 8)).unwrap();
        let delta = mgr.stats().since(&before);
        assert_eq!(delta.disk_reads, 1, "disabled skipping must read");
        assert_eq!(delta.skipped_reads, 0);
    }

    #[test]
    fn traversal_flag_skips_first_read_only() {
        let mut mgr = manager(10, 3, 8);
        for item in 0..10 {
            mgr.write_vector(item, &fill(item, 8)).unwrap();
        }
        use crate::plan::{AccessPlan, AccessRecord};
        mgr.begin_plan(AccessPlan::from_records(vec![AccessRecord::write(4)], 10));
        let before = *mgr.stats();
        // Even a Read-intent access skips, because the plan promises the
        // traversal overwrites it first (we respect the caller's claim).
        let mut buf = vec![0.0; 8];
        mgr.read_into(4, &mut buf).unwrap();
        let d1 = mgr.stats().since(&before);
        assert_eq!(d1.skipped_reads, 1);
        // Evict 4 again; the flag was consumed, so the next read is real.
        for item in 5..9 {
            mgr.read_into(item, &mut buf).unwrap();
        }
        assert!(!mgr.is_resident(4));
        let before = *mgr.stats();
        mgr.read_into(4, &mut buf).unwrap();
        assert_eq!(mgr.stats().since(&before).disk_reads, 1);
    }

    #[test]
    fn session_combine_pins_all_three() {
        let (n, m, w) = (30usize, 3usize, 4usize);
        let mut mgr = manager(n, m, w);
        for item in 0..n as u32 {
            mgr.write_vector(item, &fill(item, w)).unwrap();
        }
        // With exactly 3 slots, a combine session pins everything; the
        // combine must still succeed and see the right child data.
        let mut sess = mgr
            .session(&[
                AccessRecord::read(7),
                AccessRecord::read(13),
                AccessRecord::write(0),
            ])
            .unwrap();
        let (p, l, r) = sess.rw(0, Some(7), Some(13));
        assert_eq!(l.unwrap(), &fill(7, w)[..]);
        assert_eq!(r.unwrap(), &fill(13, w)[..]);
        for (i, x) in p.iter_mut().enumerate() {
            *x = l.unwrap()[i] + r.unwrap()[i];
        }
        drop(sess);
        let mut buf = vec![0.0; w];
        mgr.read_into(0, &mut buf).unwrap();
        let expect: Vec<f64> = (0..w).map(|i| fill(7, w)[i] + fill(13, w)[i]).collect();
        assert_eq!(buf, expect);
        // Pins must be released once the session is dropped.
        assert!(!mgr.table.any_pinned());
    }

    #[test]
    fn session_combine_handles_tip_children() {
        let mut mgr = manager(5, 3, 4);
        let mut sess = mgr.session(&[AccessRecord::write(2)]).unwrap();
        let (p, l, r) = sess.rw(2, None, None);
        assert!(l.is_none() && r.is_none());
        p.fill(9.0);
        drop(sess);
        let mut buf = vec![0.0; 4];
        mgr.read_into(2, &mut buf).unwrap();
        assert_eq!(buf, vec![9.0; 4]);
    }

    #[test]
    fn session_reads_pair() {
        let mut mgr = manager(10, 3, 4);
        mgr.write_vector(1, &fill(1, 4)).unwrap();
        mgr.write_vector(2, &fill(2, 4)).unwrap();
        let sess = mgr
            .session(&[AccessRecord::read(1), AccessRecord::read(2)])
            .unwrap();
        let dot: f64 = sess
            .read(1)
            .iter()
            .zip(sess.read(2).iter())
            .map(|(x, y)| x * y)
            .sum();
        drop(sess);
        let expect: f64 = fill(1, 4)
            .iter()
            .zip(fill(2, 4).iter())
            .map(|(x, y)| x * y)
            .sum();
        assert_eq!(dot, expect);
    }

    #[test]
    #[should_panic(expected = "pinned twice")]
    fn session_rejects_duplicate_pins() {
        let mut mgr = manager(10, 3, 4);
        let _ = mgr.session(&[AccessRecord::read(1), AccessRecord::write(1)]);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn session_rejects_more_pins_than_slots() {
        let mut mgr = manager(10, 3, 4);
        let _ = mgr.session(&[
            AccessRecord::read(0),
            AccessRecord::read(1),
            AccessRecord::read(2),
            AccessRecord::write(3),
        ]);
    }

    #[test]
    #[should_panic(expected = "not pinned in this session")]
    fn session_read_of_unpinned_item_panics() {
        let mut mgr = manager(10, 3, 4);
        let sess = mgr.session(&[AccessRecord::read(1)]).unwrap();
        let _ = sess.read(2);
    }

    #[test]
    fn cold_load_zeroes_buffer() {
        let mut mgr = manager(5, 3, 6);
        let mut buf = vec![42.0; 6];
        mgr.read_into(0, &mut buf).unwrap();
        assert_eq!(buf, vec![0.0; 6]);
        assert_eq!(mgr.stats().cold_loads, 1);
    }

    #[test]
    fn always_write_back_matches_paper_swap() {
        // Default: clean vectors are written back on eviction (a swap).
        let mut mgr = manager(6, 3, 4);
        for item in 0..6 {
            mgr.write_vector(item, &fill(item, 4)).unwrap();
        }
        let writes_swap = mgr.stats().disk_writes;

        // Dirty tracking: reading items back evicts clean copies silently.
        let cfg = OocConfig::builder(6, 4)
            .slots(3)
            .always_write_back(false)
            .build()
            .unwrap();
        let mut mgr2 = VectorManager::new(cfg, StrategyKind::Lru.build(None), MemStore::new(6, 4));
        for item in 0..6 {
            mgr2.write_vector(item, &fill(item, 4)).unwrap();
        }
        let mut buf = vec![0.0; 4];
        mgr2.flush().unwrap(); // clean the resident dirty vectors first
        let w_before = mgr2.stats().disk_writes;
        for item in 0..6 {
            mgr2.read_into(item, &mut buf).unwrap(); // reads only, evictions stay clean
        }
        assert_eq!(
            mgr2.stats().disk_writes,
            w_before,
            "clean evictions must not write with dirty tracking"
        );
        assert!(writes_swap >= 3, "paper-mode swap must write evictees");
        // Data still correct afterwards.
        for item in 0..6 {
            mgr2.read_into(item, &mut buf).unwrap();
            assert_eq!(buf, fill(item, 4));
        }
    }

    #[test]
    fn stats_identity_requests_eq_hits_plus_misses() {
        let mut mgr = manager(15, 4, 8);
        let mut buf = vec![0.0; 8];
        for round in 0..3 {
            for item in 0..15 {
                if (item + round) % 2 == 0 {
                    mgr.write_vector(item, &fill(item, 8)).unwrap();
                } else {
                    mgr.read_into(item, &mut buf).unwrap();
                }
            }
        }
        let s = mgr.stats();
        assert_eq!(s.requests, s.hits + s.misses);
        assert_eq!(s.misses, s.disk_reads + s.skipped_reads + s.cold_loads);
    }

    #[test]
    fn fraction_and_byte_limit_sizing() {
        let c = OocConfig::builder(1000, 64).fraction(0.25).build().unwrap();
        assert_eq!(c.n_slots, 250);
        let c = OocConfig::builder(10, 64).fraction(0.01).build().unwrap();
        assert_eq!(c.n_slots, 3, "clamped to minimum");
        let c = OocConfig::builder(1000, 128)
            .byte_limit(1_000_000_000)
            .build()
            .unwrap();
        assert_eq!(c.n_slots, 1000, "clamped to n_items");
        let c = OocConfig::builder(1_000_000, 160_000)
            .byte_limit(1_000_000_000)
            .build()
            .unwrap();
        // 1 GB / (160000*8 B) = 781 slots — the paper's -L 1GB geometry.
        assert_eq!(c.n_slots, 781);
        // No sizing request at all: everything resident.
        let c = OocConfig::builder(40, 8).build().unwrap();
        assert_eq!(c.n_slots, 40);
    }

    #[test]
    fn builder_rejects_bad_geometry() {
        let err = OocConfig::builder(10, 8).slots(2).build().unwrap_err();
        assert!(err.to_string().contains("pinning minimum is 3"));
        assert!(OocConfig::builder(10, 8).slots(11).build().is_err());
        assert!(OocConfig::builder(0, 8).build().is_err());
        assert!(OocConfig::builder(10, 0).build().is_err());
        assert!(OocConfig::builder(10, 8).fraction(0.0).build().is_err());
        // Tiny item counts still admit the 3-slot minimum.
        let c = OocConfig::builder(1, 8).slots(3).build().unwrap();
        assert_eq!(c.n_slots, 3);
    }

    #[test]
    fn m_equals_n_never_misses_after_warmup() {
        let n = 8;
        let mut mgr = manager(n, n, 4);
        for item in 0..n as u32 {
            mgr.write_vector(item, &fill(item, 4)).unwrap();
        }
        mgr.reset_stats();
        let mut buf = vec![0.0; 4];
        for _ in 0..5 {
            for item in 0..n as u32 {
                mgr.read_into(item, &mut buf).unwrap();
            }
        }
        assert_eq!(mgr.stats().miss_rate(), 0.0);
        assert_eq!(mgr.stats().io_ops(), 0);
    }

    fn faulty_manager(
        n: usize,
        m: usize,
        width: usize,
        plan: crate::fault::FaultPlan,
    ) -> VectorManager<crate::fault::FaultInjectingStore<MemStore>> {
        VectorManager::new(
            OocConfig::builder(n, width).slots(m).build().unwrap(),
            StrategyKind::Lru.build(None),
            crate::fault::FaultInjectingStore::new(MemStore::new(n, width), plan),
        )
    }

    #[test]
    fn failed_eviction_write_leaves_bookkeeping_consistent() {
        let (n, m, w) = (6usize, 3usize, 4usize);
        // The very first store write (= first eviction write-back) fails
        // permanently once; everything after succeeds.
        let mut mgr = faulty_manager(n, m, w, crate::fault::FaultPlan::permanent_writes(0, 1));
        for item in 0..3u32 {
            mgr.write_vector(item, &fill(item, w)).unwrap();
        }
        let stats_before = *mgr.stats();
        let resident_before = {
            let mut r = mgr.resident_items();
            r.sort_unstable();
            r
        };

        // Slot pressure: this needs an eviction, whose write-back fails.
        let err = mgr.write_vector(3, &fill(3, w)).unwrap_err();
        assert_eq!(err.op, OocOp::Write);
        assert_eq!(err.item, Some(0), "LRU victim is item 0");
        assert!(err.slot.is_some());
        assert!(err.to_string().contains("eviction write-back"));

        // The victim must still be resident and nothing about the slots
        // may have changed; the failed request is visible only in stats.
        let mut resident_now = mgr.resident_items();
        resident_now.sort_unstable();
        assert_eq!(resident_now, resident_before);
        assert!(mgr.is_resident(0));
        assert!(!mgr.is_resident(3));
        let delta = mgr.stats().since(&stats_before);
        assert_eq!(delta.evictions, 0, "failed eviction must not count");
        assert_eq!(delta.disk_writes, 0);
        assert_eq!(delta.io_errors, 1);
        assert!(!mgr.table.any_pinned(), "no pins may leak");

        // The fault was one-shot: retrying the same access now succeeds
        // and every vector still holds the right data.
        mgr.write_vector(3, &fill(3, w)).unwrap();
        let mut buf = vec![0.0; w];
        for item in 0..4u32 {
            mgr.read_into(item, &mut buf).unwrap();
            assert_eq!(buf, fill(item, w), "item {item} corrupted");
        }
    }

    #[test]
    fn failed_load_read_leaves_item_in_store() {
        let (n, m, w) = (6usize, 3usize, 4usize);
        let mut mgr = faulty_manager(n, m, w, crate::fault::FaultPlan::transient_reads(0, 1));
        for item in 0..n as u32 {
            mgr.write_vector(item, &fill(item, w)).unwrap();
        }
        assert!(!mgr.is_resident(0));
        let mut buf = vec![0.0; w];
        let err = mgr.read_into(0, &mut buf).unwrap_err();
        assert_eq!(err.op, OocOp::Read);
        assert_eq!(err.item, Some(0));
        assert!(err.is_transient());
        assert!(!mgr.is_resident(0), "failed load must not claim residency");
        assert!(!mgr.table.any_pinned());

        // Window passed: the same read now succeeds with intact data.
        mgr.read_into(0, &mut buf).unwrap();
        assert_eq!(buf, fill(0, w));
    }

    #[test]
    fn session_releases_pins_on_error() {
        let (n, m, w) = (8usize, 3usize, 4usize);
        // The first store read fails permanently; the session below pins a
        // resident child first, then fails acquiring the second child.
        let plan = crate::fault::FaultPlan::none().with(crate::fault::FaultRule::Window {
            op: crate::fault::FaultOp::Read,
            start: 0,
            count: 1,
            kind: crate::fault::FaultKind::Permanent,
        });
        let mut mgr = faulty_manager(n, m, w, plan);
        for item in 0..n as u32 {
            mgr.write_vector(item, &fill(item, w)).unwrap();
        }
        // LRU residents are now items 5, 6, 7: child 5 hits (and is
        // pinned), child 1 needs a store read, which fails.
        assert!(mgr.is_resident(5) && !mgr.is_resident(1));
        let combine = [
            AccessRecord::read(5),
            AccessRecord::read(1),
            AccessRecord::write(0),
        ];
        let err = mgr.session(&combine).unwrap_err();
        assert_eq!(err.op, OocOp::Read);
        assert_eq!(err.item, Some(1));
        assert!(
            !mgr.table.any_pinned(),
            "pins must be released when a later acquisition fails"
        );
        // Recovery: same combine works once the fault window has passed.
        let mut sess = mgr.session(&combine).unwrap();
        let (p, l, r) = sess.rw(0, Some(5), Some(1));
        assert_eq!(l.unwrap(), &fill(5, w)[..]);
        assert_eq!(r.unwrap(), &fill(1, w)[..]);
        p.fill(1.0);
    }

    #[test]
    fn begin_plan_derives_skip_flags_from_write_first() {
        use crate::plan::{AccessPlan, AccessRecord};
        let mut mgr = manager(10, 3, 8);
        for item in 0..10 {
            mgr.write_vector(item, &fill(item, 8)).unwrap();
        }
        // Item 4 is written before it is read; item 1 is read first.
        let plan = AccessPlan::from_records(
            vec![
                AccessRecord::read(1),
                AccessRecord::write(4),
                AccessRecord::read(4),
            ],
            10,
        );
        mgr.begin_plan(plan);
        let before = *mgr.stats();
        let mut buf = vec![0.0; 8];
        // Read-intent access to 4 skips the store read: the plan promises
        // the traversal overwrites it first.
        mgr.read_into(4, &mut buf).unwrap();
        assert_eq!(mgr.stats().since(&before).skipped_reads, 1);
        // Item 1 is read-first: a real store read.
        let before = *mgr.stats();
        mgr.read_into(1, &mut buf).unwrap();
        let d = mgr.stats().since(&before);
        assert_eq!(d.disk_reads, 1);
        assert_eq!(d.skipped_reads, 0);
        assert_eq!(mgr.stats().plans, 1);
    }

    #[test]
    fn begin_plan_replaces_stale_plan_state() {
        use crate::plan::{AccessPlan, AccessRecord};
        let mut mgr = manager(10, 3, 8);
        for item in 0..10 {
            mgr.write_vector(item, &fill(item, 8)).unwrap();
        }
        // First plan marks 4 write-first, but is abandoned.
        mgr.begin_plan(AccessPlan::from_records(vec![AccessRecord::write(4)], 10));
        // Second plan reads 4: the stale skip flag must be cleared.
        mgr.begin_plan(AccessPlan::from_records(vec![AccessRecord::read(4)], 10));
        let before = *mgr.stats();
        let mut buf = vec![0.0; 8];
        mgr.read_into(4, &mut buf).unwrap();
        let d = mgr.stats().since(&before);
        assert_eq!(d.disk_reads, 1, "stale write-first flag must not leak");
        assert_eq!(d.skipped_reads, 0);
        assert_eq!(buf, fill(4, 8));
    }

    #[test]
    fn next_use_strategy_follows_plan_end_to_end() {
        use crate::plan::{AccessPlan, AccessRecord};
        let (n, m, w) = (8usize, 3usize, 4usize);
        let mut mgr = VectorManager::new(
            OocConfig::builder(n, w).slots(m).build().unwrap(),
            StrategyKind::NextUse.build(None),
            MemStore::new(n, w),
        );
        for item in 0..n as u32 {
            mgr.write_vector(item, &fill(item, w)).unwrap();
        }
        // Residents now are the last three written: 5, 6, 7.
        // Plan: 5 and 6 are reused immediately, 7 much later. Belady must
        // evict 7 when 0 is loaded.
        let plan = AccessPlan::from_records(
            vec![
                AccessRecord::read(5),
                AccessRecord::read(6),
                AccessRecord::read(0),
                AccessRecord::read(5),
                AccessRecord::read(6),
                AccessRecord::read(7),
            ],
            n,
        );
        mgr.begin_plan(plan);
        let mut buf = vec![0.0; w];
        mgr.read_into(5, &mut buf).unwrap();
        mgr.read_into(6, &mut buf).unwrap();
        mgr.read_into(0, &mut buf).unwrap(); // must evict 7 (farthest use)
        assert!(!mgr.is_resident(7), "Belady evicts the farthest next use");
        assert!(mgr.is_resident(5) && mgr.is_resident(6));
        // The rest of the plan: 5 and 6 hit, 7 misses once.
        let before = *mgr.stats();
        mgr.read_into(5, &mut buf).unwrap();
        mgr.read_into(6, &mut buf).unwrap();
        mgr.read_into(7, &mut buf).unwrap();
        let d = mgr.stats().since(&before);
        assert_eq!(d.hits, 2);
        assert_eq!(d.misses, 1);
        assert_eq!(buf, fill(7, w));
    }

    #[test]
    fn recording_captures_the_access_stream() {
        let mut mgr = manager(6, 3, 4);
        for item in 0..6 {
            mgr.write_vector(item, &fill(item, 4)).unwrap();
        }
        mgr.start_recording();
        let mut buf = vec![0.0; 4];
        mgr.read_into(1, &mut buf).unwrap();
        mgr.write_vector(2, &fill(2, 4)).unwrap();
        mgr.read_into(1, &mut buf).unwrap();
        let plan = mgr.take_recording();
        use crate::plan::AccessRecord;
        assert_eq!(
            plan.records(),
            &[
                AccessRecord::read(1),
                AccessRecord::write(2),
                AccessRecord::read(1),
            ]
        );
        assert!(
            mgr.take_recording().is_empty(),
            "taking the recording stops it"
        );
    }

    #[test]
    fn oracle_plan_carries_next_use_across_traversal_boundaries() {
        use crate::plan::{AccessPlan, AccessRecord};
        // The stream spans two traversals: the first touches 0,1,2,3,5;
        // the second re-reads 0. At the eviction (loading 5 with items
        // 0,1,2,3 resident and four slots) a per-plan NextUse sees every
        // candidate as never-used-again and falls back to LRU, evicting 0
        // — exactly the vector the next traversal needs. The full-run
        // oracle knows better and keeps 0.
        let traversal1 = || {
            vec![
                AccessRecord::read(0),
                AccessRecord::read(1),
                AccessRecord::read(2),
                AccessRecord::read(3),
                AccessRecord::read(5),
            ]
        };
        let full_stream = {
            let mut r = traversal1();
            r.push(AccessRecord::read(0));
            AccessPlan::from_records(r, 6)
        };
        let run = |oracle: Option<AccessPlan>| {
            let mut mgr = VectorManager::new(
                OocConfig::builder(6, 4).slots(4).build().unwrap(),
                StrategyKind::NextUse.build(None),
                MemStore::new(6, 4),
            );
            for item in 0..6 {
                mgr.write_vector(item, &fill(item, 4)).unwrap();
            }
            // Make 0,1,2,3 the residents, oldest-first for LRU.
            let mut buf = vec![0.0; 4];
            for item in 0..4 {
                mgr.read_into(item, &mut buf).unwrap();
            }
            if let Some(plan) = oracle {
                mgr.install_oracle_plan(plan);
            }
            // Per-traversal submission happens either way (skip flags
            // always come from it; only replacement is overridden).
            mgr.begin_plan(AccessPlan::from_records(traversal1(), 6));
            for item in [0, 1, 2, 3, 5] {
                mgr.read_into(item, &mut buf).unwrap();
            }
            mgr.begin_plan(AccessPlan::from_records(vec![AccessRecord::read(0)], 6));
            mgr.is_resident(0)
        };
        assert!(
            !run(None),
            "per-plan NextUse greedily evicts 0 at the plan boundary"
        );
        // The oracle stream starts where the replay starts: the residency
        // warm-up happened before install, exactly like the benchmarks.
        assert!(run(Some(full_stream)), "the oracle keeps 0 resident");
    }

    #[test]
    fn a_mixed_plan_skip_flags_its_write_first_items() {
        use crate::plan::AccessPlan;
        let (n, m, w) = (10usize, 3usize, 4usize);
        let mut mgr = manager(n, m, w);
        for item in 0..n as u32 {
            mgr.write_vector(item, &fill(item, w)).unwrap();
        }
        let records: Vec<AccessRecord> = (0..4)
            .map(AccessRecord::read)
            .chain([8, 9].map(AccessRecord::write))
            .collect();
        mgr.begin_plan(AccessPlan::from_records(records, n));
        // Write-first items get the skip flag: reading the plan's reads
        // evicts 8, and its next (read-intent) access skips the store
        // read because the plan promised to overwrite it.
        let mut buf = vec![0.0; w];
        for item in 0..4u32 {
            mgr.read_into(item, &mut buf).unwrap();
        }
        assert!(!mgr.is_resident(8));
        let before = *mgr.stats();
        mgr.read_into(8, &mut buf).unwrap();
        assert_eq!(mgr.stats().since(&before).skipped_reads, 1);
    }

    #[test]
    fn flush_writes_dirty_residents() {
        let mut mgr = manager(5, 3, 4);
        mgr.write_vector(0, &fill(0, 4)).unwrap();
        let before = mgr.stats().disk_writes;
        mgr.flush().unwrap();
        assert_eq!(mgr.stats().disk_writes, before + 1);
        // Second flush is a no-op (nothing dirty).
        let before = mgr.stats().disk_writes;
        mgr.flush().unwrap();
        assert_eq!(mgr.stats().disk_writes, before);
    }

    #[test]
    fn tenant_slots_allocate_lazily_and_charge_on_occupation() {
        use crate::arena::SlotArena;
        let (n, m, w) = (10usize, 6usize, 8usize);
        let slot_cost = w as u64 * 8;
        let arena = SlotArena::new(slot_cost * 100).unwrap();
        let grant = arena.admit("t", slot_cost * 10, slot_cost * 3).unwrap();
        let mut mgr = manager(n, m, w);
        mgr.attach_tenant(grant.clone());
        assert_eq!(grant.used_bytes(), 0, "no occupation, no charge");
        mgr.write_vector(0, &fill(0, w)).unwrap();
        assert_eq!(grant.used_bytes(), slot_cost);
        mgr.write_vector(1, &fill(1, w)).unwrap();
        mgr.write_vector(2, &fill(2, w)).unwrap();
        assert_eq!(grant.used_bytes(), 3 * slot_cost);
        // Re-touching a resident item charges nothing further.
        let mut buf = vec![0.0; w];
        mgr.read_into(0, &mut buf).unwrap();
        assert_eq!(grant.used_bytes(), 3 * slot_cost);
    }

    #[test]
    fn tenant_constrained_manager_stays_correct() {
        use crate::arena::SlotArena;
        let (n, m, w) = (20usize, 10usize, 8usize);
        let slot_cost = w as u64 * 8;
        // Allowance covers only 4 of the 10 slots the manager could use.
        let arena = SlotArena::new(slot_cost * 4).unwrap();
        let grant = arena.admit("t", slot_cost * 4, slot_cost * 3).unwrap();
        let mut mgr = manager(n, m, w);
        mgr.attach_tenant(grant.clone());
        for item in 0..n as u32 {
            mgr.write_vector(item, &fill(item, w)).unwrap();
        }
        assert!(
            grant.used_bytes() <= slot_cost * 4,
            "usage {} exceeds allowance {}",
            grant.used_bytes(),
            slot_cost * 4
        );
        // Every value still reads back exactly (residency never changes
        // computed values).
        let mut buf = vec![0.0; w];
        for item in 0..n as u32 {
            mgr.read_into(item, &mut buf).unwrap();
            assert_eq!(buf, fill(item, w), "item {item} corrupted under tenancy");
        }
        assert!(
            arena.counters().fair_evictions > 0,
            "charge refusals must surface as fair evictions"
        );
    }

    #[test]
    fn shrinking_allowance_trims_residency() {
        use crate::arena::SlotArena;
        let (n, m, w) = (12usize, 8usize, 8usize);
        let slot_cost = w as u64 * 8;
        let arena = SlotArena::new(slot_cost * 11).unwrap();
        let grant = arena.admit("a", slot_cost * 8, slot_cost * 3).unwrap();
        let mut mgr = manager(n, m, w);
        mgr.attach_tenant(grant.clone());
        for item in 0..8u32 {
            mgr.write_vector(item, &fill(item, w)).unwrap();
        }
        assert_eq!(mgr.resident_items().len(), 8);
        // A second tenant claims most of the budget: a's allowance drops.
        let _b = arena.admit("b", slot_cost * 8, slot_cost * 8).unwrap();
        assert!(grant.overage() > 0);
        let before = arena.counters().fair_evictions;
        // The next load trims back to the allowance before proceeding.
        let mut buf = vec![0.0; w];
        mgr.read_into(8, &mut buf).unwrap();
        assert_eq!(grant.overage(), 0, "trim must clear the overage");
        assert!(mgr.resident_items().len() < 8);
        assert!(arena.counters().fair_evictions > before);
        // Data written before the trim is still intact.
        for item in 0..8u32 {
            mgr.read_into(item, &mut buf).unwrap();
            assert_eq!(buf, fill(item, w), "item {item} corrupted by trim");
        }
    }

    #[test]
    fn pinned_floor_charges_forced_even_when_refused() {
        use crate::arena::SlotArena;
        let (n, w) = (10usize, 8usize);
        let slot_cost = w as u64 * 8;
        // Allowance below the 3-slot pinned floor: the floor still works.
        let arena = SlotArena::new(slot_cost * 2).unwrap();
        let grant = arena.admit("t", slot_cost * 2, slot_cost).unwrap();
        let mut mgr = manager(n, 3, w);
        mgr.attach_tenant(grant.clone());
        for item in 0..3u32 {
            mgr.write_vector(item, &fill(item, w)).unwrap();
        }
        // All three pinned-floor slots occupied despite the tight grant;
        // the overshoot is visible, not a failure.
        assert_eq!(mgr.resident_items().len(), 3);
        assert!(grant.used_bytes() >= 3 * slot_cost);
    }
}
