//! The benchmark's own spans, recorded around the program's public
//! boundaries: [`TimedEngine`] per `LikelihoodEngine` call,
//! [`TimedAncestral`] around `submit_plan` / `session` / lease / `finish`,
//! [`TimedStore`] above and below each `BackingStore` wrapper. The wrappers
//! forward every call unchanged, so the wrapped stack computes the same
//! bits and the same `OocStats` as the unwrapped one (tests/transparency.rs).
//!
//! Spans live in memory until the run ends. A span's self time is its
//! duration minus the part its child spans cover; summed over all spans
//! that is the time inside top-level (`unit`) spans, which the driver
//! holds against the independently measured wall.

use ooc_core::{
    AccessPlan, AccessRecord, AlignedBuf, BackingStore, Intent, ItemId, OocResult, OocStats,
};
use phylo_plf::{AncestralStore, LikelihoodEngine, VectorSession};
use phylo_tree::spr::{NniUndo, SprUndo};
use phylo_tree::{HalfEdgeId, Tree};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `parent` of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: u32,
    /// The unit being run (warm-up units count from 0 as well; see
    /// [`Tracer::clear`]).
    pub unit_id: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder of the benchmark thread.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    unit: Cell<u32>,
}

impl Tracer {
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            unit: Cell::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`] before its parent.
    pub fn begin(&self, name: &'static str) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        let mut open = self.open.borrow_mut();
        let parent = open.last().copied().unwrap_or(NO_PARENT);
        open.push(id);
        let now = self.now_ns();
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            unit_id: self.unit.get(),
        });
        id
    }

    pub fn end(&self, id: u32) {
        let now = self.now_ns();
        let top = self.open.borrow_mut().pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans.borrow_mut()[id as usize].end_ns = now;
    }

    /// A span closed when the guard drops.
    pub fn scope(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            id: self.begin(name),
        }
    }

    pub fn set_unit(&self, unit: u32) {
        self.unit.set(unit);
    }

    /// Forget every closed span (end of warm-up).
    pub fn clear(&self) {
        assert!(self.open.borrow().is_empty(), "clear with open spans");
        self.spans.borrow_mut().clear();
    }

    /// Move the recorded spans out.
    pub fn take(&self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "take with open spans");
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.end(self.id);
    }
}

/// Per span name: how many, their summed durations, their summed self
/// times, and every duration (for percentiles).
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durs_ns: Vec<u64>,
}

/// Self time of each span: duration minus its direct children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(s.dur_ns());
        }
    }
    own
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += own;
        e.durs_ns.push(s.dur_ns());
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the spans:
/// every span of the first `detailed_units` units, and only the spans at
/// depth ≤ 1 (unit, engine call) of the rest, so the file stays loadable.
pub fn chrome_trace(spans: &[Span], detailed_units: u32) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for s in spans {
        let depth_le_1 = s.parent == NO_PARENT || spans[s.parent as usize].parent == NO_PARENT;
        if s.unit_id >= detailed_units && !depth_le_1 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"unit\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.unit_id
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------------
// BackingStore wrapper
// ---------------------------------------------------------------------------

/// Span names of one [`TimedStore`] position in the stack.
pub struct StoreNames {
    pub read: &'static str,
    pub write: &'static str,
    /// Flush, hints, plan installation, staged-buffer adoption.
    pub other: &'static str,
}

/// Directly above `FileStore`.
pub const STORE: StoreNames = StoreNames {
    read: "core.store.read",
    write: "core.store.write",
    other: "core.store.other",
};

/// Above `CompressingStore`: span minus the [`STORE`] child is codec time.
pub const COMPRESS: StoreNames = StoreNames {
    read: "core.compress.read",
    write: "core.compress.write",
    other: "core.compress.other",
};

/// Above `PrefetchingStore`: the time the compute thread is held by the
/// pipeline (queueing, copies, waits).
pub const PREFETCH: StoreNames = StoreNames {
    read: "core.prefetch.read",
    write: "core.prefetch.write",
    other: "core.prefetch.other",
};

/// Operations and `f64`s a [`TimedStore`] passed through.
#[derive(Debug, Default)]
pub struct StoreCounters {
    pub reads: Cell<u64>,
    pub writes: Cell<u64>,
    pub read_f64s: Cell<u64>,
    pub write_f64s: Cell<u64>,
}

impl StoreCounters {
    fn add(cell: &Cell<u64>, n: u64) {
        cell.set(cell.get() + n);
    }

    pub fn reset(&self) {
        self.reads.set(0);
        self.writes.set(0);
        self.read_f64s.set(0);
        self.write_f64s.set(0);
    }
}

/// Transparent, span-recording wrapper of any backing store.
pub struct TimedStore<S: BackingStore> {
    inner: S,
    tracer: Rc<Tracer>,
    names: &'static StoreNames,
    counters: Rc<StoreCounters>,
}

impl<S: BackingStore> TimedStore<S> {
    pub fn new(inner: S, tracer: &Rc<Tracer>, names: &'static StoreNames) -> Self {
        TimedStore {
            inner,
            tracer: Rc::clone(tracer),
            names,
            counters: Rc::default(),
        }
    }

    pub fn counters(&self) -> Rc<StoreCounters> {
        Rc::clone(&self.counters)
    }
}

impl<S: BackingStore> BackingStore for TimedStore<S> {
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
        let _g = self.tracer.scope(self.names.read);
        StoreCounters::add(&self.counters.reads, 1);
        StoreCounters::add(&self.counters.read_f64s, buf.len() as u64);
        self.inner.read(item, buf)
    }

    fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
        let _g = self.tracer.scope(self.names.write);
        StoreCounters::add(&self.counters.writes, 1);
        StoreCounters::add(&self.counters.write_f64s, buf.len() as u64);
        self.inner.write(item, buf)
    }

    fn read_batch(&mut self, first: ItemId, count: usize, buf: &mut [f64]) -> io::Result<()> {
        let _g = self.tracer.scope(self.names.read);
        StoreCounters::add(&self.counters.reads, count as u64);
        StoreCounters::add(&self.counters.read_f64s, buf.len() as u64);
        self.inner.read_batch(first, count, buf)
    }

    fn write_batch(&mut self, first: ItemId, count: usize, buf: &[f64]) -> io::Result<()> {
        let _g = self.tracer.scope(self.names.write);
        StoreCounters::add(&self.counters.writes, count as u64);
        StoreCounters::add(&self.counters.write_f64s, buf.len() as u64);
        self.inner.write_batch(first, count, buf)
    }

    fn hint(&mut self, upcoming: &[ItemId]) {
        let _g = self.tracer.scope(self.names.other);
        self.inner.hint(upcoming)
    }

    fn install_read_plan(&mut self, first_reads: &[ItemId], window: usize) -> bool {
        let _g = self.tracer.scope(self.names.other);
        self.inner.install_read_plan(first_reads, window)
    }

    fn plan_advanced(&mut self, first_reads_passed: usize) {
        let _g = self.tracer.scope(self.names.other);
        self.inner.plan_advanced(first_reads_passed)
    }

    fn take_staged(&mut self, item: ItemId) -> Option<AlignedBuf> {
        let _g = self.tracer.scope(self.names.other);
        self.inner.take_staged(item)
    }

    fn forget_hints(&mut self) {
        let _g = self.tracer.scope(self.names.other);
        self.inner.forget_hints()
    }

    fn flush(&mut self) -> io::Result<()> {
        let _g = self.tracer.scope(self.names.other);
        self.inner.flush()
    }
}

/// Busy-time counter around a store another thread drives (the prefetch
/// worker's handle), where the single-threaded [`Tracer`] cannot go.
pub struct BusyStore<S: BackingStore> {
    inner: S,
    busy_ns: Arc<AtomicU64>,
}

impl<S: BackingStore> BusyStore<S> {
    pub fn new(inner: S) -> (Self, Arc<AtomicU64>) {
        let busy_ns = Arc::new(AtomicU64::new(0));
        (
            BusyStore {
                inner,
                busy_ns: Arc::clone(&busy_ns),
            },
            busy_ns,
        )
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        // A statistic read after the worker has been joined.
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl<S: BackingStore> BackingStore for BusyStore<S> {
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
        self.timed(|s| s.read(item, buf))
    }

    fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
        self.timed(|s| s.write(item, buf))
    }

    fn read_batch(&mut self, first: ItemId, count: usize, buf: &mut [f64]) -> io::Result<()> {
        self.timed(|s| s.read_batch(first, count, buf))
    }

    fn write_batch(&mut self, first: ItemId, count: usize, buf: &[f64]) -> io::Result<()> {
        self.timed(|s| s.write_batch(first, count, buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.timed(|s| s.flush())
    }
}

// ---------------------------------------------------------------------------
// AncestralStore wrapper
// ---------------------------------------------------------------------------

/// One entry of the access string a [`TimedAncestral`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessEvent {
    /// A submitted plan: `len` records from `start` in [`AccessLog::records`].
    Plan { start: u32, len: u32 },
    /// A pin group (one session).
    Group { start: u32, len: u32 },
    /// The timed region starts here.
    TimedStart,
}

/// Everything the engine asked of its ancestral store, in order — the
/// input of the policy replay behind `core.strategy.misses_over_opt` —
/// plus the combine count.
#[derive(Debug, Default)]
pub struct AccessLog {
    pub records: RefCell<Vec<AccessRecord>>,
    pub events: RefCell<Vec<AccessEvent>>,
    /// Sessions that held a write pin since the last [`AccessLog::mark_timed`].
    pub combines: Cell<u64>,
}

impl AccessLog {
    fn push(&self, recs: &[AccessRecord], plan: bool) {
        let mut all = self.records.borrow_mut();
        let start = u32::try_from(all.len()).expect("fewer than 2^32 access records");
        let len = recs.len() as u32;
        all.extend_from_slice(recs);
        self.events.borrow_mut().push(if plan {
            AccessEvent::Plan { start, len }
        } else {
            AccessEvent::Group { start, len }
        });
    }

    /// Mark the start of the timed region and zero the combine count.
    pub fn mark_timed(&self) {
        self.events.borrow_mut().push(AccessEvent::TimedStart);
        self.combines.set(0);
    }
}

/// Transparent, span-recording wrapper of any ancestral store.
pub struct TimedAncestral<A: AncestralStore> {
    inner: A,
    tracer: Rc<Tracer>,
    log: Rc<AccessLog>,
}

impl<A: AncestralStore> TimedAncestral<A> {
    pub fn new(inner: A, tracer: &Rc<Tracer>) -> Self {
        TimedAncestral {
            inner,
            tracer: Rc::clone(tracer),
            log: Rc::default(),
        }
    }

    pub fn log(&self) -> Rc<AccessLog> {
        Rc::clone(&self.log)
    }

    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }
}

/// Lease of a [`TimedAncestral`]: the `plf.engine.lease` span runs from the
/// moment `session()` returned until `finish()` is called (or the lease is
/// dropped) — the time the engine computes on the pinned vectors.
pub struct TimedSession<'a, A: AncestralStore + 'a> {
    inner: Option<A::Session<'a>>,
    tracer: &'a Tracer,
    lease: u32,
}

impl<'a, A: AncestralStore + 'a> TimedSession<'a, A> {
    fn live(&self) -> &A::Session<'a> {
        self.inner.as_ref().expect("lease is live until finish")
    }
}

impl<'a, A: AncestralStore + 'a> VectorSession for TimedSession<'a, A> {
    fn read(&self, item: u32) -> &[f64] {
        self.live().read(item)
    }

    fn rw(
        &mut self,
        target: u32,
        src1: Option<u32>,
        src2: Option<u32>,
    ) -> (&mut [f64], Option<&[f64]>, Option<&[f64]>) {
        self.inner
            .as_mut()
            .expect("lease is live until finish")
            .rw(target, src1, src2)
    }

    fn finish(mut self) -> OocResult<()> {
        let inner = self.inner.take().expect("lease is live until finish");
        self.tracer.end(self.lease);
        let _g = self.tracer.scope("core.manager.finish");
        inner.finish()
    }
}

impl<'a, A: AncestralStore + 'a> Drop for TimedSession<'a, A> {
    fn drop(&mut self) {
        // Dropped without `finish` (an error path in the engine): the
        // lease span still has to close before its parent does.
        if self.inner.take().is_some() {
            self.tracer.end(self.lease);
        }
    }
}

impl<A: AncestralStore> AncestralStore for TimedAncestral<A> {
    type Session<'a>
        = TimedSession<'a, A>
    where
        A: 'a;

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn submit_plan(&mut self, plan: AccessPlan) {
        self.log.push(plan.records(), true);
        let _g = self.tracer.scope("core.manager.submit_plan");
        self.inner.submit_plan(plan)
    }

    fn session(&mut self, pins: &[AccessRecord]) -> OocResult<TimedSession<'_, A>> {
        self.log.push(pins, false);
        if pins.iter().any(|p| p.intent == Intent::Write) {
            self.log.combines.set(self.log.combines.get() + 1);
        }
        let acquire = self.tracer.begin("core.manager.session");
        let inner = self.inner.session(pins);
        self.tracer.end(acquire);
        let inner = inner?;
        Ok(TimedSession {
            inner: Some(inner),
            tracer: &self.tracer,
            lease: self.tracer.begin("plf.engine.lease"),
        })
    }

    fn ooc_stats(&self) -> Option<OocStats> {
        self.inner.ooc_stats()
    }

    fn reset_ooc_stats(&mut self) {
        self.inner.reset_ooc_stats()
    }
}

// ---------------------------------------------------------------------------
// LikelihoodEngine wrapper
// ---------------------------------------------------------------------------

/// Transparent wrapper recording one span per engine call.
pub struct TimedEngine<E: LikelihoodEngine> {
    inner: E,
    tracer: Rc<Tracer>,
}

impl<E: LikelihoodEngine> TimedEngine<E> {
    pub fn new(inner: E, tracer: &Rc<Tracer>) -> Self {
        TimedEngine {
            inner,
            tracer: Rc::clone(tracer),
        }
    }

    pub fn inner_mut(&mut self) -> &mut E {
        &mut self.inner
    }
}

impl<E: LikelihoodEngine> LikelihoodEngine for TimedEngine<E> {
    fn tree(&self) -> &Tree {
        self.inner.tree()
    }

    fn alpha(&self) -> f64 {
        self.inner.alpha()
    }

    fn set_alpha(&mut self, alpha: f64) {
        let _g = self.tracer.scope("plf.engine.other");
        self.inner.set_alpha(alpha)
    }

    fn invalidate_all(&mut self) {
        let _g = self.tracer.scope("plf.engine.other");
        self.inner.invalidate_all()
    }

    fn log_likelihood(&mut self) -> OocResult<f64> {
        let _g = self.tracer.scope("plf.engine.log_likelihood");
        self.inner.log_likelihood()
    }

    fn log_likelihood_at(&mut self, root_he: HalfEdgeId, full: bool) -> OocResult<f64> {
        let _g = self.tracer.scope("plf.engine.log_likelihood_at");
        self.inner.log_likelihood_at(root_he, full)
    }

    fn set_branch_length(&mut self, h: HalfEdgeId, len: f64) {
        let _g = self.tracer.scope("plf.engine.other");
        self.inner.set_branch_length(h, len)
    }

    fn optimize_branch(&mut self, h: HalfEdgeId, max_iter: u32) -> OocResult<(f64, f64)> {
        let _g = self.tracer.scope("plf.engine.optimize_branch");
        self.inner.optimize_branch(h, max_iter)
    }

    fn smooth_branches(&mut self, passes: usize, nr_iter: u32) -> OocResult<f64> {
        let _g = self.tracer.scope("plf.engine.other");
        self.inner.smooth_branches(passes, nr_iter)
    }

    fn optimize_alpha(&mut self, tol: f64, max_iter: u32) -> OocResult<(f64, f64)> {
        let _g = self.tracer.scope("plf.engine.other");
        self.inner.optimize_alpha(tol, max_iter)
    }

    fn apply_spr(
        &mut self,
        prune_dir: HalfEdgeId,
        target: HalfEdgeId,
        graft_lens: Option<(f64, f64)>,
    ) -> SprUndo {
        let _g = self.tracer.scope("plf.engine.apply_spr");
        self.inner.apply_spr(prune_dir, target, graft_lens)
    }

    fn undo_spr(&mut self, prune_dir: HalfEdgeId, undo: &SprUndo) {
        let _g = self.tracer.scope("plf.engine.undo_spr");
        self.inner.undo_spr(prune_dir, undo)
    }

    fn apply_nni(&mut self, h: HalfEdgeId, variant: u8) -> NniUndo {
        let _g = self.tracer.scope("plf.engine.other");
        self.inner.apply_nni(h, variant)
    }

    fn undo_nni(&mut self, undo: &NniUndo) {
        let _g = self.tracer.scope("plf.engine.other");
        self.inner.undo_nni(undo)
    }

    fn ooc_stats(&self) -> Option<OocStats> {
        self.inner.ooc_stats()
    }

    fn reset_ooc_stats(&mut self) {
        self.inner.reset_ooc_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            Span {
                name: "unit",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                unit_id: 0,
            },
            Span {
                name: "call",
                start_ns: 10,
                end_ns: 70,
                parent: 0,
                unit_id: 0,
            },
            Span {
                name: "io",
                start_ns: 20,
                end_ns: 50,
                parent: 1,
                unit_id: 0,
            },
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30]);
        let agg = by_name(&spans);
        assert_eq!(agg["call"].total_ns, 60);
        assert_eq!(agg["call"].self_ns, 30);
        // Self times sum to the top-level spans' durations.
        assert_eq!(agg.values().map(|a| a.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_tags_units() {
        let t = Tracer::new();
        t.set_unit(7);
        {
            let _unit = t.scope("unit");
            let _call = t.scope("call");
            let _io = t.scope("io");
        }
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[2].unit_id, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Past the detailed units only unit and engine-call spans are kept.
        let json = chrome_trace(&spans, 0);
        assert!(json.contains("\"call\"") && !json.contains("\"io\""));
        assert!(chrome_trace(&spans, 8).contains("\"io\""));
        assert!(crate::json::parse(&json).is_ok());
    }
}
