//! The policy core of the out-of-core manager: the paper's `getxvector()`
//! written once, with no vector data in sight.
//!
//! [`SlotTable`] owns everything that decides *which* operations a run
//! performs — the item→slot map, pins, dirty bits, read-skip flags, the
//! plan cursor, the oracle plan, the recording log, the
//! replacement strategy and the [`OocStats`]. A [`DataPlane`] owns
//! everything that moves bytes and can fail. Three drivers share the one
//! table: [`crate::VectorManager`] (slot buffers over a
//! [`crate::BackingStore`]), [`SlotCacheSim`] (the [`NullPlane`]: the
//! autotuner's model and Belady replays) and the bench crate's Figure 5
//! replay (a plane that only advances a disk clock). Their counters agree
//! because they run the same code, not because a test holds two copies
//! equal.
//!
//! Ordering contract: a fallible plane call always happens *before* the
//! table commits the step it belongs to. A failed write-back leaves the
//! victim resident and dirty, a failed read leaves the slot empty and the
//! item in the store — every later access sees consistent state.

use crate::error::{OocError, OocOp, OocResult};
use crate::manager::{Intent, ItemId, OocConfig, SlotId};
use crate::plan::{AccessPlan, AccessRecord, PlanCursor};
use crate::stats::OocStats;
use crate::strategy::{EvictionView, ReplacementStrategy};
use std::io;

/// The byte-moving half of a manager, as the [`SlotTable`] sees it. Only
/// the two transfers are required; everything else defaults to "no such
/// layer" so a data-free plane is two lines.
pub trait DataPlane {
    /// Write the vector in `slot` out as `item` (eviction write-back or
    /// flush).
    fn write_back(&mut self, item: ItemId, slot: SlotId) -> io::Result<()>;

    /// Fill `slot` with the stored vector of `item` (a demand read).
    fn read(&mut self, item: ItemId, slot: SlotId) -> io::Result<()>;

    /// Push written-back vectors down to durable storage.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Give `slot` deterministic contents for an item no one has computed
    /// yet (the caller may break the write-before-read contract).
    fn zero(&mut self, _slot: SlotId) {}

    /// Tenancy: residency is charged beyond what the tenant is currently
    /// allowed, so occupied slots should be given back.
    fn over_allowance(&self) -> bool {
        false
    }

    /// Tenancy: may residency grow into empty `slot`? `false` asks the
    /// table to recycle an occupied slot instead.
    fn try_occupy(&mut self, _slot: SlotId) -> bool {
        true
    }

    /// Tenancy: occupy empty `slot` regardless — the table is at its
    /// pinned floor, recycling is impossible.
    fn force_occupy(&mut self, _slot: SlotId) {}

    /// Tenancy: the table just evicted from `slot` because of another
    /// tenant, not its own capacity; with `release` the slot stays empty
    /// and its RAM goes back to the arena.
    fn fair_eviction(&mut self, _slot: SlotId, _release: bool) {}

    /// Clock for [`DataPlane::latency`].
    fn now(&self) -> u64 {
        0
    }

    /// One `op` (`"hit"`, `"miss"`, `"evict"`) ran from `since` until now.
    fn latency(&self, _op: &'static str, _since: u64) {}
}

/// The plane that moves nothing: every transfer succeeds, nothing is
/// stored.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullPlane;

impl DataPlane for NullPlane {
    fn write_back(&mut self, _item: ItemId, _slot: SlotId) -> io::Result<()> {
        Ok(())
    }

    fn read(&mut self, _item: ItemId, _slot: SlotId) -> io::Result<()> {
        Ok(())
    }
}

/// Where an item currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Location {
    /// Never computed anywhere yet.
    Unmaterialized,
    /// Resident in a RAM slot.
    InSlot(SlotId),
    /// Valid data in the backing store only.
    InStore,
}

/// The data-free bookkeeping of one manager. See the module docs.
pub struct SlotTable {
    cfg: OocConfig,
    slot_item: Vec<Option<ItemId>>,
    pinned: Vec<bool>,
    dirty: Vec<bool>,
    loc: Vec<Location>,
    /// Store holds valid data for this item.
    materialized: Vec<bool>,
    /// Next load of this item may skip the store read (derived from the
    /// plan's write-first analysis by [`SlotTable::begin_plan`], consumed
    /// on first access).
    skip_read: Vec<bool>,
    /// Cursor over the active access plan, if one was submitted.
    cursor: Option<PlanCursor>,
    /// When set, every access is appended here (pass one of the two-pass
    /// Belady oracle used by the benchmarks).
    recording: Option<Vec<AccessRecord>>,
    /// Full-run oracle plan and the index of the next access (pass two):
    /// while installed, the replacement strategy sees *this* plan and a
    /// position that advances on every access, instead of the
    /// per-traversal submissions.
    oracle: Option<(AccessPlan, usize)>,
    strategy: Box<dyn ReplacementStrategy>,
    stats: OocStats,
}

impl SlotTable {
    /// An empty table. Panics if `cfg` breaks the geometry invariant
    /// ([`OocConfig::validate`]) — configs from
    /// [`crate::OocConfigBuilder::build`] never do.
    pub fn new(cfg: OocConfig, strategy: Box<dyn ReplacementStrategy>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        SlotTable {
            slot_item: vec![None; cfg.n_slots],
            pinned: vec![false; cfg.n_slots],
            dirty: vec![false; cfg.n_slots],
            loc: vec![Location::Unmaterialized; cfg.n_items],
            materialized: vec![false; cfg.n_items],
            skip_read: vec![false; cfg.n_items],
            cursor: None,
            recording: None,
            oracle: None,
            strategy,
            cfg,
            stats: OocStats::default(),
        }
    }

    /// Configuration in effect.
    pub fn config(&self) -> &OocConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &OocStats {
        &self.stats
    }

    /// Reset statistics (e.g. after a warm-up phase).
    pub(crate) fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Name of the replacement strategy.
    pub(crate) fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Occupant of every slot, in slot order.
    pub(crate) fn slot_items(&self) -> &[Option<ItemId>] {
        &self.slot_item
    }

    /// The slot `item` is resident in, if any.
    pub(crate) fn slot_of(&self, item: ItemId) -> Option<SlotId> {
        match self.loc[item as usize] {
            Location::InSlot(slot) => Some(slot),
            _ => None,
        }
    }

    /// The caller wrote into `slot` through a mutable view.
    pub(crate) fn mark_dirty(&mut self, slot: SlotId) {
        self.dirty[slot as usize] = true;
    }

    /// Release one pin.
    pub(crate) fn unpin(&mut self, slot: SlotId) {
        self.pinned[slot as usize] = false;
    }

    #[cfg(test)]
    pub(crate) fn any_pinned(&self) -> bool {
        self.pinned.iter().any(|&p| p)
    }

    /// Record every subsequent access (item and intent, in order) until
    /// [`SlotTable::take_recording`].
    pub(crate) fn start_recording(&mut self) {
        self.recording = Some(Vec::new());
    }

    /// Stop recording and return the recorded access stream as a plan
    /// (empty if recording was never started).
    pub(crate) fn take_recording(&mut self) -> AccessPlan {
        let records = self.recording.take().unwrap_or_default();
        AccessPlan::from_records(records, self.cfg.n_items)
    }

    /// Install a full-run oracle plan: the replacement strategy follows
    /// this plan, with a position that advances on every access, while
    /// per-traversal [`SlotTable::begin_plan`] submissions keep driving
    /// read skipping only. With the NextUse strategy this is
    /// Belady/OPT: its miss count lower-bounds every online strategy on
    /// the same access string.
    pub fn install_oracle_plan(&mut self, plan: AccessPlan) {
        assert!(
            plan.n_items() <= self.cfg.n_items,
            "oracle plan geometry ({}) exceeds manager geometry ({})",
            plan.n_items(),
            self.cfg.n_items
        );
        self.strategy.on_plan(&plan);
        self.strategy.on_plan_pos(0);
        self.oracle = Some((plan, 0));
    }

    /// Submit the access plan of an upcoming traversal, replacing the
    /// previous one. Everything is derived from the plan's own analysis:
    /// read-skip flags from the write-first items (§3.4), plan positions
    /// for a plan-aware strategy.
    ///
    /// Contract: a plan whose first access to an item is a write declares
    /// the item's present contents dead — even if the plan is later
    /// abandoned. The same fact that lets the load skip the read lets a
    /// resident copy skip its write-back: its dirty bit is cleared here;
    /// installing a plan moves no data. (`always_write_back`, the paper's
    /// swap mode, still writes every victim.)
    pub fn begin_plan(&mut self, plan: AccessPlan) {
        assert!(
            plan.n_items() <= self.cfg.n_items,
            "plan geometry ({}) exceeds manager geometry ({})",
            plan.n_items(),
            self.cfg.n_items
        );
        self.stats.plans += 1;
        // Flags from an abandoned plan must not leak into this one.
        self.skip_read.fill(false);
        for &item in plan.write_first_items() {
            self.skip_read[item as usize] = true;
            if let Location::InSlot(slot) = self.loc[item as usize] {
                self.dirty[slot as usize] = false;
            }
        }
        // An installed full-run oracle outranks per-traversal plans for
        // replacement decisions; the strategy keeps following it.
        if self.oracle.is_none() {
            self.strategy.on_plan(&plan);
        }
        self.cursor = Some(PlanCursor::new(plan));
    }

    /// Walk the plan cursor past this access and notify the strategy of
    /// the new position. Recording and the full-run oracle position
    /// piggyback on the same chokepoint: every access flows through here
    /// exactly once.
    fn advance_plan(&mut self, item: ItemId, intent: Intent) {
        if let Some(log) = &mut self.recording {
            log.push(AccessRecord { item, intent });
        }
        if let Some((plan, pos)) = &mut self.oracle {
            debug_assert!(
                *pos >= plan.len() || plan.records()[*pos].item == item,
                "oracle replay drift at position {pos}: planned item {}, got {item}",
                plan.records()[*pos].item,
            );
            *pos += 1;
            self.strategy.on_plan_pos(*pos);
            return;
        }
        let Some(cursor) = self.cursor.as_mut() else {
            return;
        };
        if cursor.advance(item).is_some() {
            self.strategy.on_plan_pos(cursor.pos());
        }
    }

    /// Ensure `item` is resident and return its slot. The paper's
    /// `getxvector()` without the pointer return; pinned slots are never
    /// chosen as victims. On error see the module's ordering contract.
    pub(crate) fn ensure_resident<P: DataPlane>(
        &mut self,
        plane: &mut P,
        item: ItemId,
        intent: Intent,
    ) -> OocResult<SlotId> {
        let t0 = plane.now();
        self.stats.requests += 1;
        self.advance_plan(item, intent);
        if let Location::InSlot(slot) = self.loc[item as usize] {
            self.stats.hits += 1;
            self.strategy.on_access(item, slot);
            if intent == Intent::Write {
                self.dirty[slot as usize] = true;
            }
            self.skip_read[item as usize] = false;
            plane.latency("hit", t0);
            return Ok(slot);
        }
        self.stats.misses += 1;
        let slot = self.load(plane, item, intent)?;
        plane.latency("miss", t0);
        Ok(slot)
    }

    /// Occupied slot count (tenancy only; O(m)).
    fn occupied_slots(&self) -> usize {
        self.slot_item.iter().flatten().count()
    }

    /// Is any occupied slot evictable right now? (Tenancy only; O(m).)
    fn has_eviction_candidate(&self) -> bool {
        self.slot_item
            .iter()
            .zip(&self.pinned)
            .any(|(occupant, &pinned)| occupant.is_some() && !pinned)
    }

    /// Pick a victim via the replacement strategy and evict it.
    fn evict_victim<P: DataPlane>(
        &mut self,
        plane: &mut P,
        requested: ItemId,
    ) -> OocResult<SlotId> {
        let view = EvictionView {
            slot_item: &self.slot_item,
            pinned: &self.pinned,
        };
        let victim = self.strategy.choose_victim(requested, &view);
        assert!(
            !self.pinned[victim as usize] && self.slot_item[victim as usize].is_some(),
            "strategy chose an illegal victim"
        );
        self.evict(plane, victim)?;
        Ok(victim)
    }

    /// Bring a non-resident item into a slot, evicting if necessary.
    fn load<P: DataPlane>(
        &mut self,
        plane: &mut P,
        item: ItemId,
        intent: Intent,
    ) -> OocResult<SlotId> {
        // Multi-tenant trim: while the tenant has more charged than it is
        // now allowed (another tenant was admitted since), give occupied,
        // unpinned slots back — never below the 3-slot pinned floor.
        // These are the arena's fair cross-tenant evictions; this table's
        // own slot capacity played no part.
        while plane.over_allowance() && self.occupied_slots() > 3 && self.has_eviction_candidate() {
            let victim = self.evict_victim(plane, item)?;
            plane.fair_eviction(victim, true);
        }
        let empty = self
            .slot_item
            .iter()
            .position(|occupant| occupant.is_none())
            .map(|e| e as SlotId);
        let slot = match empty {
            Some(e) if plane.try_occupy(e) => e,
            // Refusal is only useful if eviction can recycle a buffer;
            // below the pinned floor (or with every occupant pinned) the
            // occupation is forced — admission guaranteed a combine's
            // three slots.
            Some(e) if !self.has_eviction_candidate() || self.occupied_slots() < 3 => {
                plane.force_occupy(e);
                e
            }
            Some(_) => {
                // A free slot exists but the tenant allowance refused the
                // bytes: recycle an occupied buffer instead. Capacity was
                // not the constraint — cross-tenant pressure was.
                let victim = self.evict_victim(plane, item)?;
                plane.fair_eviction(victim, false);
                victim
            }
            None => self.evict_victim(plane, item)?,
        };
        match self.loc[item as usize] {
            Location::Unmaterialized => {
                self.stats.cold_loads += 1;
                // A write overwrites the whole vector (the `Intent::Write`
                // promise); only a read of a never-computed item needs
                // deterministic contents.
                if intent == Intent::Read {
                    plane.zero(slot);
                }
            }
            Location::InStore => {
                let skip = self.cfg.read_skipping
                    && (self.skip_read[item as usize] || intent == Intent::Write);
                if skip {
                    self.stats.skipped_reads += 1;
                } else {
                    // The slot is still unoccupied at this point, so a
                    // failed read leaves `item` safely in the store.
                    plane.read(item, slot).map_err(|e| {
                        self.stats.io_errors += 1;
                        OocError::item_op(OocOp::Read, item, "slot load", e).with_slot(slot)
                    })?;
                    self.stats.disk_reads += 1;
                    self.stats.bytes_read += self.cfg.width as u64 * 8;
                }
            }
            Location::InSlot(_) => unreachable!("load called on resident item"),
        }
        let s = slot as usize;
        self.slot_item[s] = Some(item);
        self.loc[item as usize] = Location::InSlot(slot);
        self.dirty[s] = intent == Intent::Write;
        self.skip_read[item as usize] = false;
        self.strategy.on_load(item, slot);
        self.strategy.on_access(item, slot);
        Ok(slot)
    }

    /// Write the occupant of `slot` back; on failure nothing changed.
    fn write_back<P: DataPlane>(
        &mut self,
        plane: &mut P,
        slot: SlotId,
        item: ItemId,
        context: &'static str,
    ) -> OocResult<()> {
        plane.write_back(item, slot).map_err(|e| {
            self.stats.io_errors += 1;
            OocError::item_op(OocOp::Write, item, context, e).with_slot(slot)
        })?;
        self.stats.disk_writes += 1;
        self.stats.bytes_written += self.cfg.width as u64 * 8;
        self.materialized[item as usize] = true;
        Ok(())
    }

    /// Evict the occupant of `slot`, writing it back per configuration.
    fn evict<P: DataPlane>(&mut self, plane: &mut P, slot: SlotId) -> OocResult<()> {
        let s = slot as usize;
        let item = self.slot_item[s].expect("evicting empty slot");
        let t0 = plane.now();
        if self.dirty[s] || self.cfg.always_write_back {
            self.write_back(plane, slot, item, "eviction write-back")?;
        }
        self.loc[item as usize] = if self.materialized[item as usize] {
            Location::InStore
        } else {
            Location::Unmaterialized
        };
        self.slot_item[s] = None;
        self.dirty[s] = false;
        self.stats.evictions += 1;
        self.strategy.on_evict(item, slot);
        plane.latency("evict", t0);
        Ok(())
    }

    /// Acquire and pin every record of `pins`, in order — pin order is
    /// access order, so a Felsenstein combine pins `[read left, read
    /// right, write parent]` to match its lowered plan. Each pin's intent
    /// drives hit/miss accounting and §3.4 read skipping exactly like a
    /// lone [`SlotTable::ensure_resident`]. Nothing stays pinned if an
    /// acquisition fails.
    ///
    /// Panics if the pins exceed the slot count (the paper's `m ≥ 3`
    /// minimum exists precisely so one combine's three pins always fit) or
    /// name the same item twice.
    pub(crate) fn pin_group<P: DataPlane>(
        &mut self,
        plane: &mut P,
        pins: &[AccessRecord],
    ) -> OocResult<()> {
        assert!(
            pins.len() <= self.cfg.n_slots,
            "{} pins cannot fit in {} slots",
            pins.len(),
            self.cfg.n_slots
        );
        for (i, rec) in pins.iter().enumerate() {
            assert!(
                pins[..i].iter().all(|p| p.item != rec.item),
                "item {} pinned twice in one session",
                rec.item
            );
            match self.ensure_resident(plane, rec.item, rec.intent) {
                Ok(slot) => self.pinned[slot as usize] = true,
                Err(e) => {
                    self.unpin_group(&pins[..i]);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Release the pins of a group acquired by [`SlotTable::pin_group`].
    pub(crate) fn unpin_group(&mut self, pins: &[AccessRecord]) {
        for rec in pins {
            if let Some(slot) = self.slot_of(rec.item) {
                self.unpin(slot);
            }
        }
    }

    /// Serve one pin group and release it: what a
    /// [`crate::VectorManager::session`] followed by the session's drop
    /// does to the bookkeeping.
    pub fn access_group<P: DataPlane>(
        &mut self,
        plane: &mut P,
        pins: &[AccessRecord],
    ) -> OocResult<()> {
        self.pin_group(plane, pins)?;
        self.unpin_group(pins);
        Ok(())
    }

    /// Write every dirty resident vector out without evicting, then flush
    /// the plane. Stops at the first failure; written slots stay clean,
    /// the failing one stays dirty, so a retry resumes where it stopped.
    pub fn flush<P: DataPlane>(&mut self, plane: &mut P) -> OocResult<()> {
        for s in 0..self.cfg.n_slots {
            if let Some(item) = self.slot_item[s] {
                if self.dirty[s] {
                    self.write_back(plane, s as SlotId, item, "flush")?;
                    self.dirty[s] = false;
                }
            }
        }
        plane.flush().map_err(|e| {
            self.stats.io_errors += 1;
            OocError::store_op(OocOp::Flush, "store flush", e)
        })
    }
}

/// The manager with the data plane removed: a [`SlotTable`] over the
/// [`NullPlane`]. Driven by the same inputs as [`crate::VectorManager`]
/// (an [`AccessPlan`] per traversal, pin groups in access order, a
/// [`ReplacementStrategy`]), it reports that manager's [`OocStats`] over
/// the same access string without allocating a single vector.
///
/// That is what lets the autotuner *prune by model*: replaying a
/// candidate's plan here yields its true miss/read/write-back counts in
/// microseconds instead of seconds, and replaying under NextUse with a
/// full-run oracle plan yields a miss count no online strategy can beat —
/// a certified lower bound on the candidate's I/O.
pub struct SlotCacheSim {
    table: SlotTable,
}

impl SlotCacheSim {
    /// A fresh simulation of a manager configured by `cfg`, choosing
    /// victims via `strategy`.
    pub fn new(cfg: impl Into<OocConfig>, strategy: Box<dyn ReplacementStrategy>) -> Self {
        SlotCacheSim {
            table: SlotTable::new(cfg.into(), strategy),
        }
    }

    /// The simulated counters so far.
    pub fn stats(&self) -> &OocStats {
        self.table.stats()
    }

    /// The configuration this simulation runs under.
    pub fn config(&self) -> &OocConfig {
        self.table.config()
    }

    /// See [`SlotTable::begin_plan`].
    pub fn begin_plan(&mut self, plan: AccessPlan) {
        self.table.begin_plan(plan);
    }

    /// See [`SlotTable::install_oracle_plan`].
    pub fn install_oracle_plan(&mut self, plan: AccessPlan) {
        self.table.install_oracle_plan(plan);
    }

    /// See [`SlotTable::access_group`].
    pub fn access_group(&mut self, pins: &[AccessRecord]) {
        self.table
            .access_group(&mut NullPlane, pins)
            .expect("the null plane cannot fail");
    }

    /// One unpinned access (a single-record group).
    pub fn access(&mut self, item: ItemId, intent: Intent) {
        self.access_group(&[AccessRecord { item, intent }]);
    }

    /// See [`SlotTable::flush`].
    pub fn flush(&mut self) {
        self.table
            .flush(&mut NullPlane)
            .expect("the null plane cannot fail");
    }

    /// Run `rounds` rounds of a traversal-shaped workload: each round
    /// submits `plan` and serves every group of `groups` in order — the
    /// exact shape `full_traversals` drives through a real engine.
    pub fn run_rounds(&mut self, plan: &AccessPlan, groups: &[Vec<AccessRecord>], rounds: usize) {
        for _ in 0..rounds {
            self.begin_plan(plan.clone());
            for group in groups {
                self.access_group(group);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;

    /// A combine-per-item chain workload: item i reads i-1 and writes i.
    fn chain_groups(n: usize) -> Vec<Vec<AccessRecord>> {
        (1..n as ItemId)
            .map(|i| vec![AccessRecord::read(i - 1), AccessRecord::write(i)])
            .collect()
    }

    fn chain_plan(n: usize) -> AccessPlan {
        let records = chain_groups(n).into_iter().flatten().collect();
        AccessPlan::from_records(records, n)
    }

    fn geo(n: usize, slots: usize) -> crate::OocConfigBuilder {
        OocConfig::builder(n, 64).slots(slots)
    }

    fn sim(n: usize, slots: usize, kind: StrategyKind) -> SlotCacheSim {
        SlotCacheSim::new(geo(n, slots).build().unwrap(), kind.build(None))
    }

    #[test]
    fn miss_identity_holds() {
        let n = 32;
        let mut s = sim(n, 5, StrategyKind::Lru);
        s.run_rounds(&chain_plan(n), &chain_groups(n), 3);
        let st = *s.stats();
        assert!(st.misses > 0);
        assert_eq!(st.misses, st.disk_reads + st.skipped_reads + st.cold_loads);
        assert_eq!(st.requests, st.hits + st.misses);
        assert_eq!(st.plans, 3);
    }

    /// A plane that records which items were transferred.
    #[derive(Default)]
    struct LoggingPlane {
        written: Vec<ItemId>,
        read: Vec<ItemId>,
    }

    impl DataPlane for LoggingPlane {
        fn write_back(&mut self, item: ItemId, _slot: SlotId) -> io::Result<()> {
            self.written.push(item);
            Ok(())
        }

        fn read(&mut self, item: ItemId, _slot: SlotId) -> io::Result<()> {
            self.read.push(item);
            Ok(())
        }
    }

    /// Items 0, 1, 2 resident and dirty in a 3-slot table, then a plan
    /// whose first access to 0 is a write, to 1 a read, and which never
    /// mentions 2.
    fn three_dirty_residents_then_a_plan(always_write_back: bool) -> (SlotTable, LoggingPlane) {
        let cfg = geo(8, 3)
            .always_write_back(always_write_back)
            .build()
            .unwrap();
        let mut table = SlotTable::new(cfg, StrategyKind::Lru.build(None));
        let mut plane = LoggingPlane::default();
        for item in 0..3 {
            table
                .access_group(&mut plane, &[AccessRecord::write(item)])
                .unwrap();
        }
        let plan = vec![
            AccessRecord::write(0),
            AccessRecord::read(1),
            AccessRecord::write(1),
            AccessRecord::write(3),
        ];
        table.begin_plan(AccessPlan::from_records(plan, 8));
        (table, plane)
    }

    #[test]
    fn begin_plan_cleans_resident_write_first_items_only() {
        let (mut table, mut plane) = three_dirty_residents_then_a_plan(false);
        let dirty_of = |t: &SlotTable, item| t.dirty[t.slot_of(item).unwrap() as usize];
        assert!(
            !dirty_of(&table, 0),
            "write-first: present contents are dead"
        );
        assert!(dirty_of(&table, 1), "read-first keeps its dirty bit");
        assert!(dirty_of(&table, 2), "off-plan keeps its dirty bit");
        // Evict all three: only the two live vectors are written back.
        for item in 4..7 {
            table
                .access_group(&mut plane, &[AccessRecord::write(item)])
                .unwrap();
        }
        plane.written.sort_unstable();
        assert_eq!(plane.written, [1, 2]);
        let st = *table.stats();
        assert_eq!((st.evictions, st.disk_writes), (3, 2));
        // The cleaned item was never materialised: writing it again is a
        // cold load, not a read.
        table
            .access_group(&mut plane, &[AccessRecord::write(0)])
            .unwrap();
        assert!(plane.read.is_empty());
        let st = *table.stats();
        assert_eq!(st.misses, st.disk_reads + st.skipped_reads + st.cold_loads);
    }

    #[test]
    fn flush_after_begin_plan_skips_the_cleaned_slots() {
        let (mut table, mut plane) = three_dirty_residents_then_a_plan(false);
        table.flush(&mut plane).unwrap();
        plane.written.sort_unstable();
        assert_eq!(plane.written, [1, 2]);
        // The planned write makes the slot dirty again.
        table
            .access_group(&mut plane, &[AccessRecord::write(0)])
            .unwrap();
        table.flush(&mut plane).unwrap();
        assert_eq!(plane.written, [1, 2, 0]);
    }

    #[test]
    fn swap_mode_still_writes_a_cleaned_victim() {
        let (mut table, mut plane) = three_dirty_residents_then_a_plan(true);
        for item in 4..7 {
            table
                .access_group(&mut plane, &[AccessRecord::write(item)])
                .unwrap();
        }
        plane.written.sort_unstable();
        assert_eq!(plane.written, [0, 1, 2]);
    }

    #[test]
    fn everything_fits_no_io_after_warmup() {
        let n = 16;
        let mut s = sim(n, n, StrategyKind::Lru);
        s.run_rounds(&chain_plan(n), &chain_groups(n), 4);
        assert_eq!(s.stats().disk_reads, 0);
        assert_eq!(s.stats().evictions, 0);
        assert_eq!(s.stats().cold_loads, n as u64);
    }

    #[test]
    fn read_skipping_toggles_reads() {
        let n = 24;
        let run = |skip: bool| {
            let mut s = SlotCacheSim::new(
                geo(n, 4).read_skipping(skip).build().unwrap(),
                StrategyKind::Lru.build(None),
            );
            s.run_rounds(&chain_plan(n), &chain_groups(n), 3);
            *s.stats()
        };
        let with = run(true);
        let without = run(false);
        assert!(with.skipped_reads > 0);
        assert_eq!(without.skipped_reads, 0);
        assert!(with.disk_reads < without.disk_reads);
        // Skipping never changes the miss count, only its resolution.
        assert_eq!(with.misses, without.misses);
    }

    #[test]
    fn dirty_tracking_halves_write_backs_on_read_heavy_plans() {
        let n = 24;
        let run = |awb: bool| {
            let mut s = SlotCacheSim::new(
                geo(n, 4).always_write_back(awb).build().unwrap(),
                StrategyKind::Lru.build(None),
            );
            // Round-robin reads only: nothing is ever dirty after round 1.
            let groups: Vec<Vec<AccessRecord>> = (0..n as ItemId)
                .map(|i| vec![AccessRecord::read(i)])
                .collect();
            let plan = AccessPlan::from_records(groups.iter().flatten().copied().collect(), n);
            s.run_rounds(&plan, &groups, 3);
            *s.stats()
        };
        assert!(run(true).disk_writes > run(false).disk_writes);
    }

    #[test]
    fn oracle_next_use_lower_bounds_heuristics() {
        let n = 48;
        let plan = chain_plan(n);
        let groups = chain_groups(n);
        let rounds = 4;
        let mut oracle = sim(n, 6, StrategyKind::NextUse);
        oracle.install_oracle_plan(plan.repeated(rounds));
        oracle.run_rounds(&plan, &groups, rounds);
        for kind in [
            StrategyKind::Random { seed: 9 },
            StrategyKind::Lru,
            StrategyKind::Lfu,
        ] {
            let mut s = sim(n, 6, kind);
            s.run_rounds(&plan, &groups, rounds);
            assert!(
                oracle.stats().misses <= s.stats().misses,
                "oracle {} vs {} under {:?}",
                oracle.stats().misses,
                s.stats().misses,
                kind
            );
        }
    }

    #[test]
    #[should_panic(expected = "pinning minimum is 3")]
    fn hand_built_config_is_checked_too() {
        let cfg = OocConfig {
            n_slots: 2,
            ..geo(8, 3).build().unwrap()
        };
        let _ = SlotTable::new(cfg, StrategyKind::Lru.build(None));
    }
}
