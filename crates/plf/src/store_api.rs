//! Pluggable residency backends for ancestral probability vectors.
//!
//! The engine only ever touches vectors through the [`AncestralStore`]
//! session API: it leases the vectors of one kernel invocation (pins with
//! intents, in access order), works on the borrowed buffers, and finishes
//! the lease. Three backends implement it:
//!
//! * [`InRamStore`] — everything resident, the standard RAxML baseline,
//! * [`OocStore`] — the paper's out-of-core manager
//!   ([`ooc_core::VectorManager`]), whose [`ooc_core::PinnedSession`] is
//!   the lease,
//! * [`PagedStore`] — vectors in a [`pager_sim::PagedArena`], reproducing
//!   the "standard implementation using OS paging" baseline of Figure 5.
//!
//! Because the numerical kernels are identical, the paper's correctness
//! check applies verbatim: all three must produce bit-identical
//! log-likelihoods.

use ooc_core::{
    AccessPlan, AccessRecord, AlignedBuf, BackingStore, Intent, OocError, OocOp, OocResult,
    OocStats, VectorManager, MAX_PINS,
};
use pager_sim::PagedArena;

/// A live lease over the pinned vectors of one kernel invocation. Vectors
/// are addressed by item id; every id must be among the session's pins.
pub trait VectorSession {
    /// Shared view of a pinned vector.
    fn read(&self, item: u32) -> &[f64];

    /// The combine shape: one mutable target plus up to two shared source
    /// views, simultaneously borrowed (tips have no ancestral vector,
    /// hence the `Option`s). Sources must not alias the target.
    fn rw(
        &mut self,
        target: u32,
        src1: Option<u32>,
        src2: Option<u32>,
    ) -> (&mut [f64], Option<&[f64]>, Option<&[f64]>);

    /// End the lease, propagating any deferred write-back I/O. Dropping a
    /// session without calling this still releases the pins but loses the
    /// error (and, for scratch-based backends, the written data), so the
    /// engine always finishes explicitly after mutating.
    fn finish(self) -> OocResult<()>;
}

/// Access-pattern API over ancestral vectors, mirroring the pinning
/// semantics of the paper's `getxvector()`.
pub trait AncestralStore {
    /// The lease type handed out by [`AncestralStore::session`].
    type Session<'a>: VectorSession
    where
        Self: 'a;

    /// Vector width in `f64`s.
    fn width(&self) -> usize;

    /// Submit the access plan of an upcoming traversal: the exact ordered
    /// `{item, intent}` sequence the engine is about to issue. Residency
    /// backends derive read skipping (write-first items) and plan-aware
    /// replacement from it; backends with no residency management ignore
    /// it.
    fn submit_plan(&mut self, _plan: AccessPlan) {}

    /// Lease the given vectors (at most [`MAX_PINS`]), pinned with their
    /// intents in access order, for one kernel invocation. Fails with a
    /// contextual [`OocError`] if the backend could not materialise a
    /// vector; nothing stays pinned in that case.
    fn session(&mut self, pins: &[AccessRecord]) -> OocResult<Self::Session<'_>>;

    /// Residency statistics, if this backend keeps them ([`OocStore`]
    /// does; the baselines return `None`).
    fn ooc_stats(&self) -> Option<OocStats> {
        None
    }

    /// Zero the residency counters (e.g. after a warm-up phase); a no-op
    /// for backends that keep none.
    fn reset_ooc_stats(&mut self) {}
}

/// All vectors permanently resident (standard implementation).
pub struct InRamStore {
    width: usize,
    /// Empty until the item's first pin: the engine never pins a vector it
    /// does not store (a rebuilt one), and an aligned zeroed allocation touches
    /// every page it covers.
    vectors: Vec<AlignedBuf>,
}

impl InRamStore {
    /// Room for `n_items` vectors of `width` doubles. Each is allocated —
    /// zeroed and 64-byte-aligned ([`ooc_core::APV_ALIGN`]) like the
    /// manager's slot arena, so SIMD kernels see the same alignment in
    /// every backend — at its first pin, and stays resident from then on.
    pub fn new(n_items: usize, width: usize) -> Self {
        InRamStore {
            width,
            vectors: (0..n_items).map(|_| AlignedBuf::zeroed(0)).collect(),
        }
    }

    /// Total heap bytes held by vectors.
    pub fn bytes(&self) -> u64 {
        self.vectors.iter().map(|v| v.len() as u64 * 8).sum()
    }
}

/// Lease over an [`InRamStore`]: no residency to manage, but the same
/// pin-set discipline (bounds, duplicates, aliasing) is enforced so
/// contract violations surface in the cheapest backend too.
pub struct InRamSession<'a> {
    vectors: &'a mut [AlignedBuf],
    pins: [Option<u32>; MAX_PINS],
}

impl InRamSession<'_> {
    fn check_pinned(&self, item: u32) {
        assert!(
            self.pins.contains(&Some(item)),
            "item {item} is not pinned in this session"
        );
    }
}

impl VectorSession for InRamSession<'_> {
    fn read(&self, item: u32) -> &[f64] {
        self.check_pinned(item);
        &self.vectors[item as usize]
    }

    fn rw(
        &mut self,
        target: u32,
        src1: Option<u32>,
        src2: Option<u32>,
    ) -> (&mut [f64], Option<&[f64]>, Option<&[f64]>) {
        self.check_pinned(target);
        if let Some(s) = src1 {
            self.check_pinned(s);
            assert_ne!(s, target, "source {s} aliases target");
        }
        if let Some(s) = src2 {
            self.check_pinned(s);
            assert_ne!(s, target, "source {s} aliases target");
        }
        // SAFETY: target, src1, src2 were bounds-checked at session
        // creation and are pairwise distinct indices into separately
        // allocated buffers, so the mutable and shared borrows cannot
        // alias.
        let base = self.vectors.as_mut_ptr();
        let tv: &mut [f64] = unsafe { &mut *base.add(target as usize) };
        let s1: Option<&[f64]> = src1.map(|i| unsafe { &(**base.add(i as usize)) });
        let s2: Option<&[f64]> = src2.map(|i| unsafe { &(**base.add(i as usize)) });
        (tv, s1, s2)
    }

    fn finish(self) -> OocResult<()> {
        Ok(())
    }
}

impl AncestralStore for InRamStore {
    type Session<'a> = InRamSession<'a>;

    fn width(&self) -> usize {
        self.width
    }

    fn session(&mut self, pins: &[AccessRecord]) -> OocResult<InRamSession<'_>> {
        let n = self.vectors.len();
        assert!(pins.len() <= MAX_PINS, "{} pins in one session", pins.len());
        let mut items = [None; MAX_PINS];
        for (pos, rec) in pins.iter().enumerate() {
            assert!(
                (rec.item as usize) < n,
                "item {} out of range {n}",
                rec.item
            );
            assert!(
                !items.contains(&Some(rec.item)),
                "item {} pinned twice in one session",
                rec.item
            );
            items[pos] = Some(rec.item);
            let vector = &mut self.vectors[rec.item as usize];
            if vector.len() != self.width {
                *vector = AlignedBuf::zeroed(self.width);
            }
        }
        Ok(InRamSession {
            vectors: &mut self.vectors,
            pins: items,
        })
    }
}

/// Vectors managed out-of-core by [`ooc_core::VectorManager`].
pub struct OocStore<S: BackingStore> {
    manager: VectorManager<S>,
}

impl<S: BackingStore> OocStore<S> {
    /// Wrap a configured manager.
    pub fn new(manager: VectorManager<S>) -> Self {
        OocStore { manager }
    }

    /// Access the manager (statistics, store clock, ...).
    pub fn manager(&self) -> &VectorManager<S> {
        &self.manager
    }

    /// Mutable access (e.g. to reset statistics between phases).
    pub fn manager_mut(&mut self) -> &mut VectorManager<S> {
        &mut self.manager
    }
}

/// Lease over an [`OocStore`]: a thin veneer over the manager's own
/// [`ooc_core::PinnedSession`], which holds the slot pins.
pub struct OocSession<'a, S: BackingStore>(ooc_core::PinnedSession<'a, S>);

impl<S: BackingStore> VectorSession for OocSession<'_, S> {
    fn read(&self, item: u32) -> &[f64] {
        self.0.read(item)
    }

    fn rw(
        &mut self,
        target: u32,
        src1: Option<u32>,
        src2: Option<u32>,
    ) -> (&mut [f64], Option<&[f64]>, Option<&[f64]>) {
        self.0.rw(target, src1, src2)
    }

    fn finish(self) -> OocResult<()> {
        // Slots are written back on eviction / flush; releasing the pins
        // (on drop) is all that is needed here.
        Ok(())
    }
}

impl<S: BackingStore> AncestralStore for OocStore<S> {
    type Session<'a>
        = OocSession<'a, S>
    where
        S: 'a;

    fn width(&self) -> usize {
        self.manager.config().width
    }

    fn submit_plan(&mut self, plan: AccessPlan) {
        self.manager.begin_plan(plan);
    }

    fn session(&mut self, pins: &[AccessRecord]) -> OocResult<OocSession<'_, S>> {
        Ok(OocSession(self.manager.session(pins)?))
    }

    fn ooc_stats(&self) -> Option<OocStats> {
        Some(*self.manager.stats())
    }

    fn reset_ooc_stats(&mut self) {
        self.manager.reset_stats();
    }
}

/// Vectors living in a demand-paged arena (the OS-paging baseline). Every
/// session copies whole vectors between the arena (touching its pages) and
/// per-pin scratch buffers; when the arena's physical memory is exhausted,
/// each copy triggers page-granularity swap I/O with no application
/// knowledge — the behaviour the paper's Figure 5 measures for "Standard".
pub struct PagedStore {
    arena: PagedArena,
    width: usize,
    scratch: [AlignedBuf; 3],
}

impl PagedStore {
    /// Place `n_items` vectors of `width` doubles in `arena`, which must
    /// have at least `n_items · width · 8` bytes of virtual space.
    pub fn new(arena: PagedArena, n_items: usize, width: usize) -> Self {
        assert!(arena.total_bytes() >= n_items * width * 8);
        PagedStore {
            arena,
            width,
            scratch: [
                AlignedBuf::zeroed(width),
                AlignedBuf::zeroed(width),
                AlignedBuf::zeroed(width),
            ],
        }
    }

    /// The underlying arena (fault statistics).
    pub fn arena(&self) -> &PagedArena {
        &self.arena
    }
}

/// Lease over a [`PagedStore`]: read pins were staged into scratch
/// buffers at creation (faulting arena pages in), write pins are copied
/// back to the arena by [`VectorSession::finish`].
pub struct PagedSession<'a> {
    arena: &'a mut PagedArena,
    width: usize,
    scratch: &'a mut [AlignedBuf; 3],
    pins: Vec<AccessRecord>,
}

impl PagedSession<'_> {
    fn pos_of(&self, item: u32) -> usize {
        self.pins
            .iter()
            .position(|rec| rec.item == item)
            .unwrap_or_else(|| panic!("item {item} is not pinned in this session"))
    }
}

impl VectorSession for PagedSession<'_> {
    fn read(&self, item: u32) -> &[f64] {
        &self.scratch[self.pos_of(item)]
    }

    fn rw(
        &mut self,
        target: u32,
        src1: Option<u32>,
        src2: Option<u32>,
    ) -> (&mut [f64], Option<&[f64]>, Option<&[f64]>) {
        let tp = self.pos_of(target);
        let p1 = src1.map(|i| self.pos_of(i));
        let p2 = src2.map(|i| self.pos_of(i));
        assert!(
            Some(tp) != p1 && Some(tp) != p2,
            "target {target} aliases a source"
        );
        // SAFETY: tp, p1, p2 are pairwise distinct indices (pins are
        // duplicate-free) into separately allocated scratch buffers, so
        // the mutable and shared borrows cannot alias.
        let base = self.scratch.as_mut_ptr();
        let tv: &mut [f64] = unsafe { &mut *base.add(tp) };
        let s1: Option<&[f64]> = p1.map(|p| unsafe { &(**base.add(p)) });
        let s2: Option<&[f64]> = p2.map(|p| unsafe { &(**base.add(p)) });
        (tv, s1, s2)
    }

    fn finish(self) -> OocResult<()> {
        for (pos, rec) in self.pins.iter().enumerate() {
            if rec.intent == Intent::Write {
                self.arena
                    .write_f64s(rec.item as usize * self.width, &self.scratch[pos])
                    .map_err(|e| OocError::item_op(OocOp::Write, rec.item, "arena write", e))?;
            }
        }
        Ok(())
    }
}

impl AncestralStore for PagedStore {
    type Session<'a> = PagedSession<'a>;

    fn width(&self) -> usize {
        self.width
    }

    fn session(&mut self, pins: &[AccessRecord]) -> OocResult<PagedSession<'_>> {
        assert!(
            pins.len() <= self.scratch.len(),
            "{} pins exceed the paged store's {} scratch buffers",
            pins.len(),
            self.scratch.len()
        );
        for (pos, rec) in pins.iter().enumerate() {
            assert!(
                pins[..pos].iter().all(|p| p.item != rec.item),
                "item {} pinned twice in one session",
                rec.item
            );
            if rec.intent == Intent::Read {
                self.arena
                    .read_f64s(rec.item as usize * self.width, &mut self.scratch[pos])
                    .map_err(|e| OocError::item_op(OocOp::Read, rec.item, "arena read", e))?;
            }
        }
        Ok(PagedSession {
            arena: &mut self.arena,
            width: self.width,
            scratch: &mut self.scratch,
            pins: pins.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_core::{MemStore, OocConfig, StrategyKind};

    /// One write access via a single-pin session.
    fn write_one<S: AncestralStore>(store: &mut S, item: u32, f: impl FnOnce(&mut [f64])) {
        let mut sess = store.session(&[AccessRecord::write(item)]).unwrap();
        let (buf, _, _) = sess.rw(item, None, None);
        f(buf);
        sess.finish().unwrap();
    }

    fn check_store<S: AncestralStore>(store: &mut S, n: usize) {
        let w = store.width();
        // Write every vector through single-pin sessions.
        for item in 0..n as u32 {
            write_one(store, item, |buf| {
                for (i, x) in buf.iter_mut().enumerate() {
                    *x = item as f64 + i as f64 * 0.5;
                }
            });
        }
        // Combine 0 and 1 into 2 through a three-pin session.
        let mut sess = store
            .session(&[
                AccessRecord::read(0),
                AccessRecord::read(1),
                AccessRecord::write(2),
            ])
            .unwrap();
        let (p, l, r) = sess.rw(2, Some(0), Some(1));
        let (l, r) = (l.unwrap(), r.unwrap());
        for i in 0..w {
            p[i] = l[i] * r[i];
        }
        sess.finish().unwrap();
        let expect: Vec<f64> = (0..w)
            .map(|i| (0.0 + i as f64 * 0.5) * (1.0 + i as f64 * 0.5))
            .collect();
        let sess = store.session(&[AccessRecord::read(2)]).unwrap();
        assert_eq!(sess.read(2), &expect[..]);
        sess.finish().unwrap();
        // Pair access sees consistent data.
        let sess = store
            .session(&[AccessRecord::read(0), AccessRecord::read(1)])
            .unwrap();
        let sum = sess.read(0)[3] + sess.read(1)[3];
        sess.finish().unwrap();
        assert_eq!(sum, (0.0 + 1.5) + (1.0 + 1.5));
    }

    #[test]
    fn in_ram_store_contract() {
        let mut s = InRamStore::new(6, 32);
        check_store(&mut s, 6);
        assert_eq!(s.bytes(), 6 * 32 * 8);
        assert!(s.ooc_stats().is_none());
    }

    #[test]
    fn in_ram_store_allocates_a_vector_at_its_first_pin() {
        let mut s = InRamStore::new(6, 32);
        assert_eq!(s.bytes(), 0, "a never-pinned item holds no buffer");
        // A read of a never-written item sees zeros.
        let sess = s.session(&[AccessRecord::read(4)]).unwrap();
        assert!(sess.read(4).iter().all(|&x| x == 0.0));
        sess.finish().unwrap();
        assert_eq!(s.bytes(), 32 * 8);
        write_one(&mut s, 4, |buf| buf.fill(1.5));
        write_one(&mut s, 1, |buf| buf.fill(2.5));
        assert_eq!(s.bytes(), 2 * 32 * 8);
        // Pinning again keeps the contents.
        let sess = s.session(&[AccessRecord::read(4)]).unwrap();
        assert!(sess.read(4).iter().all(|&x| x == 1.5));
        sess.finish().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn in_ram_session_rejects_out_of_range_item() {
        let mut s = InRamStore::new(4, 8);
        let _ = s.session(&[AccessRecord::write(4)]);
    }

    #[test]
    #[should_panic(expected = "pinned twice")]
    fn in_ram_session_rejects_duplicate_pins() {
        let mut s = InRamStore::new(4, 8);
        let _ = s.session(&[AccessRecord::read(2), AccessRecord::write(2)]);
    }

    #[test]
    #[should_panic(expected = "aliases target")]
    fn in_ram_rw_rejects_source_aliasing_target() {
        let mut s = InRamStore::new(4, 8);
        let mut sess = s
            .session(&[AccessRecord::read(0), AccessRecord::write(1)])
            .unwrap();
        let _ = sess.rw(1, Some(0), Some(1));
    }

    #[test]
    #[should_panic(expected = "not pinned")]
    fn in_ram_read_requires_pin() {
        let mut s = InRamStore::new(4, 8);
        let sess = s.session(&[AccessRecord::read(0)]).unwrap();
        let _ = sess.read(3);
    }

    #[test]
    fn ooc_store_contract() {
        let mgr = VectorManager::new(
            OocConfig::builder(6, 32).slots(3).build().unwrap(),
            StrategyKind::Lru.build(None),
            MemStore::new(6, 32),
        );
        let mut s = OocStore::new(mgr);
        check_store(&mut s, 6);
        assert!(s.manager().stats().requests > 0);
        assert_eq!(s.ooc_stats().unwrap(), *s.manager().stats());
    }

    #[test]
    fn paged_store_contract() {
        let dir = tempfile::tempdir().unwrap();
        // Tiny physical memory to force paging during the contract check.
        let arena = PagedArena::new(
            6 * 32 * 8,
            2 * pager_sim::PAGE_SIZE,
            dir.path().join("swap"),
        )
        .unwrap();
        let mut s = PagedStore::new(arena, 6, 32);
        check_store(&mut s, 6);
        assert!(s.arena().stats().faults > 0);
    }
}
