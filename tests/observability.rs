//! Deterministic stall-attribution tests: a hand-cranked [`ManualClock`]
//! shared between a simulated-latency store and the [`Recorder`] makes
//! every span duration exact, so the attribution split (demand-read vs
//! write-back vs compute) can be asserted to the
//! nanosecond for a scripted access plan — no timers, no tolerance.

use phylo_ooc::ooc::{
    BackingStore, Event, ItemId, ManualClock, MemStore, MemorySink, OocConfig, Recorder, StallKind,
    StrategyKind, VectorManager,
};
use phylo_ooc::plf::{BuildContext, EngineSpec, LikelihoodEngine, Residency};
use phylo_ooc::setup::{self, DatasetSpec};
use std::io;

const READ_NS: u64 = 1_000;
const WRITE_NS: u64 = 300;
const WIDTH: usize = 4;

/// Wraps a store and advances a shared [`ManualClock`] by a fixed cost per
/// read / write, simulating device latency the recorder can observe.
struct SimLatencyStore<S> {
    inner: S,
    clock: ManualClock,
    read_ns: u64,
    write_ns: u64,
}

impl<S: BackingStore> BackingStore for SimLatencyStore<S> {
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
        self.clock.advance(self.read_ns);
        self.inner.read(item, buf)
    }

    fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
        self.clock.advance(self.write_ns);
        self.inner.write(item, buf)
    }
}

fn sim_store(clock: &ManualClock, n_items: usize) -> SimLatencyStore<MemStore> {
    SimLatencyStore {
        inner: MemStore::new(n_items, WIDTH),
        clock: clock.clone(),
        read_ns: READ_NS,
        write_ns: WRITE_NS,
    }
}

fn count(events: &[Event], layer: &str, op: &str) -> u64 {
    events
        .iter()
        .filter(|e| e.layer == layer && e.op == op)
        .count() as u64
}

/// The scripted plan from the issue: fill the three slots with writes,
/// force two evictions and one demand read, then flush — and assert the
/// attribution splits the elapsed time exactly.
#[test]
fn scripted_plan_attributes_stalls_exactly() {
    let clock = ManualClock::new();
    let (sink, events) = MemorySink::new();
    let rec = Recorder::new(clock.clone(), sink);

    let cfg = OocConfig::builder(6, WIDTH).slots(3).build().unwrap();
    let mut mgr = VectorManager::new(cfg, StrategyKind::Lru.build(None), sim_store(&clock, 6));
    mgr.set_recorder(rec.clone());

    let v = [1.0; WIDTH];
    let mut out = [0.0; WIDTH];

    // Writes fill the three slots — write intent skips the load read.
    mgr.write_vector(0, &v).unwrap();
    mgr.write_vector(1, &v).unwrap();
    mgr.write_vector(2, &v).unwrap();
    // A hit: item 2 is resident, so no clock movement and no event.
    mgr.read_into(2, &mut out).unwrap();
    // Slot pressure: item 3 evicts item 0 (LRU), one write-back.
    mgr.write_vector(3, &v).unwrap();
    // Reading item 0 back evicts item 1 (write-back) then demand-reads.
    mgr.read_into(0, &mut out).unwrap();
    // Flush writes the two still-dirty slots (items 2 and 3).
    mgr.flush().unwrap();

    let stats = *mgr.stats();
    assert_eq!(stats.disk_reads, 1, "script: one demand read");
    assert_eq!(stats.disk_writes, 4, "script: 2 evictions + 2 flush writes");

    // Exact nanosecond attribution: every demand read costs READ_NS on
    // the manual clock, every write-back WRITE_NS.
    assert_eq!(
        rec.kind_ns(StallKind::DemandRead),
        stats.disk_reads * READ_NS
    );
    assert_eq!(
        rec.kind_ns(StallKind::WriteBack),
        stats.disk_writes * WRITE_NS
    );
    assert_eq!(rec.kind_ns(StallKind::BarrierWait), 0);

    // The whole run advanced the clock only through store I/O, so the
    // wall time decomposes with zero residual compute.
    let wall = rec.now();
    assert_eq!(wall, READ_NS + 4 * WRITE_NS);
    let attr = rec.attribution(wall);
    assert_eq!(attr.demand_read_ns, READ_NS);
    assert_eq!(attr.write_back_ns, 4 * WRITE_NS);
    assert_eq!(attr.compute_ns(), 0);
    // A consistent report never over-attributes: no overflow sample.
    assert_eq!(attr.overflow_ns(), 0);
    assert!(rec.histogram("obs", "attribution-overflow").is_none());

    // Events reconcile with the counters: one per successful transfer,
    // none for hits/misses/evictions (histogram-only).
    let events = events.lock().clone();
    assert_eq!(count(&events, "manager", "demand-read"), stats.disk_reads);
    assert_eq!(count(&events, "manager", "write-back"), stats.disk_writes);
    // Transfers plus the single store-sync span `flush` emits.
    assert_eq!(count(&events, "manager", "flush"), 1);
    assert_eq!(
        rec.events_recorded(),
        stats.disk_reads + stats.disk_writes + 1
    );

    // Histograms still saw everything, including the hist-only spans.
    let hits = rec.histogram("manager", "hit").unwrap();
    assert_eq!(hits.count(), stats.hits);
    let reads = rec.histogram("manager", "demand-read").unwrap();
    assert_eq!(reads.count(), stats.disk_reads);
    assert_eq!(reads.sum_ns(), stats.disk_reads * READ_NS);
    let writes = rec.histogram("manager", "write-back").unwrap();
    assert_eq!(writes.count(), stats.disk_writes);
    assert_eq!(writes.sum_ns(), stats.disk_writes * WRITE_NS);
}

/// Engine-level wiring: a full traversal under a recorder produces
/// combine-batch spans and manager events that reconcile with `OocStats`.
#[test]
fn engine_traversal_events_reconcile_with_stats() {
    let data = setup::simulate_dataset(&DatasetSpec {
        n_taxa: 24,
        n_sites: 120,
        seed: 17,
        ..Default::default()
    });
    let (sink, events) = MemorySink::new();
    let rec = Recorder::new(ManualClock::new(), sink);

    let spec = EngineSpec {
        residency: Residency::OocMem { fraction: 0.25 },
        strategy: StrategyKind::Lru,
        ..setup::base_spec(&data)
    };
    let handout = rec.clone();
    let ctx = BuildContext::new().recorders(move |_| handout.clone());
    let mut engine = spec
        .build(&data.tree, &setup::part_specs(&data), &ctx)
        .unwrap()
        .engine;

    engine.full_traversals(2).unwrap();

    let stats = engine.ooc_stats().expect("managed engine reports stats");
    let events = events.lock().clone();
    assert!(count(&events, "plf", "combine-batch") >= 1);
    assert_eq!(count(&events, "manager", "demand-read"), stats.disk_reads);
    assert_eq!(count(&events, "manager", "write-back"), stats.disk_writes);
    assert!(stats.miss_rate().is_finite());
    assert!(stats.read_rate().is_finite());
}

/// Satellite of the attribution fix: when the attributed stall totals
/// exceed the wall interval (overlapping spans, or a wall clock that
/// missed part of the measured work), the negative compute residual used
/// to be clamped to zero silently. It must now surface as an
/// `obs/attribution-overflow` sample carrying the excess nanoseconds.
#[test]
fn over_attribution_emits_overflow_sample() {
    let clock = ManualClock::new();
    let (sink, _events) = MemorySink::new();
    let rec = Recorder::new(clock.clone(), sink);

    let cfg = OocConfig::builder(4, WIDTH).slots(3).build().unwrap();
    let mut mgr = VectorManager::new(cfg, StrategyKind::Lru.build(None), sim_store(&clock, 4));
    mgr.set_recorder(rec.clone());

    // Four writes into three slots: one eviction write-back, WRITE_NS of
    // attributed stall on the manual clock.
    let v = [1.0; WIDTH];
    for item in 0..4 {
        mgr.write_vector(item, &v).unwrap();
    }
    assert_eq!(rec.kind_ns(StallKind::WriteBack), WRITE_NS);

    // Attribute against a wall interval shorter than the stall total —
    // the classic "timer started late" inconsistency.
    let wall = WRITE_NS / 2;
    let attr = rec.attribution(wall);
    assert_eq!(attr.compute_ns(), 0, "residual is clamped");
    assert_eq!(attr.overflow_ns(), WRITE_NS - wall);

    let overflow = rec
        .histogram("obs", "attribution-overflow")
        .expect("over-attribution must leave a trace");
    assert_eq!(overflow.count(), 1);
    assert_eq!(overflow.sum_ns(), WRITE_NS - wall);

    // A consistent re-report does not add to the counter.
    let ok = rec.attribution(2 * WRITE_NS);
    assert_eq!(ok.overflow_ns(), 0);
    let overflow = rec.histogram("obs", "attribution-overflow").unwrap();
    assert_eq!(overflow.count(), 1);
}
