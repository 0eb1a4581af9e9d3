//! Property-based parity: [`pager_sim::SlotCacheSim`] must report the
//! exact same `OocStats` as a real `ooc_core::VectorManager` over a plain
//! in-memory store, for any workload of pin groups, any replacement
//! strategy, any slot count, and any behaviour-flag combination. This
//! equality is the licence for the autotuner to prune candidates by
//! simulated traffic alone. Both sides run the same `SlotTable`, so the
//! property now guards the one thing that still differs between them —
//! the data plane — including the pipelined plane, where it pins down
//! exactly which counters a simulation can and cannot predict.

use ooc_core::{
    AccessPlan, AccessRecord, BackingStore, Intent, ItemId, MemStore, OocConfig, PrefetchingStore,
    StrategyKind, TopologyOracle, VectorManager,
};
use pager_sim::{SimGeometry, SlotCacheSim};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const N_ITEMS: usize = 12;
const WIDTH: usize = 7;

/// Deterministic stand-in for tree distances: both sides construct their
/// own instance and get identical tables, which is all the Topological
/// strategy needs.
struct FakeTopo {
    buf: Vec<u32>,
}

impl TopologyOracle for FakeTopo {
    fn distances_from(&mut self, from: ItemId) -> &[u32] {
        self.buf = (0..N_ITEMS)
            .map(|to| ((from as usize * 31 + to * 17) % 23) as u32)
            .collect();
        &self.buf
    }
}

fn build_strategy(selector: u8) -> Box<dyn ooc_core::ReplacementStrategy> {
    match selector % 5 {
        0 => StrategyKind::Random { seed: 77 }.build(None),
        1 => StrategyKind::Lru.build(None),
        2 => StrategyKind::Lfu.build(None),
        3 => StrategyKind::NextUse.build(None),
        _ => StrategyKind::Topological.build(Some(Box::new(FakeTopo { buf: Vec::new() }))),
    }
}

/// One pin group: distinct items, pin order = access order, like a
/// Felsenstein combine's `[read left, read right, write parent]`.
fn group_strategy() -> impl Strategy<Value = Vec<AccessRecord>> {
    proptest::collection::vec((0..N_ITEMS as u8, any::<bool>()), 1..=3).prop_map(|raw| {
        let mut group: Vec<AccessRecord> = Vec::new();
        for (item, write) in raw {
            if group.iter().any(|r| r.item == item as ItemId) {
                continue;
            }
            group.push(AccessRecord {
                item: item as ItemId,
                intent: if write { Intent::Write } else { Intent::Read },
            });
        }
        group
    })
}

fn plan_of(groups: &[Vec<AccessRecord>]) -> AccessPlan {
    AccessPlan::from_records(groups.iter().flatten().copied().collect(), N_ITEMS)
}

/// One `MemStore` seen through any number of handles — what a vector file
/// opened twice is to `FileStore`: the pipeline's demand path and its
/// worker thread must view the same data.
#[derive(Clone)]
struct SharedMem(Arc<Mutex<MemStore>>);

impl BackingStore for SharedMem {
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> std::io::Result<()> {
        self.0.lock().unwrap().read(item, buf)
    }
    fn write(&mut self, item: ItemId, buf: &[f64]) -> std::io::Result<()> {
        self.0.lock().unwrap().write(item, buf)
    }
}

/// The pipelined arm: the manager runs over a `PrefetchingStore`, which
/// accepts the whole plan for streaming and hands staged buffers back.
/// Every counter that says *which* operations happened must still match
/// the simulation; only how a store read was paid for may differ.
#[allow(clippy::too_many_arguments)]
fn pipelined_parity(
    groups: &[Vec<AccessRecord>],
    rounds: usize,
    n_slots: usize,
    selector: u8,
    read_skipping: bool,
    always_write_back: bool,
    window: usize,
    use_oracle: bool,
) -> Result<(), TestCaseError> {
    let plan = plan_of(groups);
    let window = window.max(1); // window 0 never installs a read plan
    let cfg = OocConfig::builder(N_ITEMS, WIDTH)
        .slots(n_slots)
        .read_skipping(read_skipping)
        .always_write_back(always_write_back)
        .prefetch_window(window)
        .build()
        .unwrap();
    let mem = SharedMem(Arc::new(Mutex::new(MemStore::new(N_ITEMS, WIDTH))));
    let store = PrefetchingStore::new(mem.clone(), mem, N_ITEMS, WIDTH);
    let mut mgr = VectorManager::new(cfg, build_strategy(selector), store);
    let mut sim = SlotCacheSim::new(cfg, build_strategy(selector));
    if use_oracle {
        mgr.install_oracle_plan(plan.repeated(rounds));
        sim.install_oracle_plan(plan.repeated(rounds));
    }

    let compare = |mgr: &ooc_core::OocStats, sim: &ooc_core::OocStats, at: &str| {
        // Whether a store read was a demand read or the adoption of a
        // buffer the worker had already staged depends on thread timing;
        // their sum does not.
        prop_assert_eq!(mgr.disk_reads + mgr.staged_loads, sim.disk_reads, "{}", at);
        prop_assert_eq!(sim.staged_loads, 0);
        let decided = |s: &ooc_core::OocStats| {
            [
                s.requests,
                s.hits,
                s.misses,
                s.evictions,
                s.skipped_reads,
                s.cold_loads,
                s.disk_writes,
                s.bytes_written,
                s.plans,
                s.io_errors,
            ]
        };
        prop_assert_eq!(decided(mgr), decided(sim), "{}", at);
        // Deliberately not compared:
        // * `bytes_read` follows the timing-dependent demand/staged split
        //   above (a staged load pays its bytes on the worker thread);
        // * `hints_issued` and `hinted_reads` differ by flow, not by
        //   chance: a streamed plan flags its whole first-read stream up
        //   front, the simulation's windowed flow flags `window` items at
        //   a time, and which loads find their flag still set follows.
        Ok(())
    };

    for round in 0..rounds {
        mgr.begin_plan(plan.clone());
        sim.begin_plan(plan.clone());
        for group in groups {
            drop(mgr.session(group).unwrap());
            sim.access_group(group);
        }
        compare(mgr.stats(), sim.stats(), &format!("after round {round}"))?;
    }
    mgr.flush().unwrap();
    sim.flush();
    compare(mgr.stats(), sim.stats(), "after flush")
}

proptest! {
    // Twice the cases the non-pipelined property had on its own: the new
    // `pipelined` input sends about half of them down the other arm.
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every one of the fifteen counters must match, round for round.
    #[test]
    fn sim_counters_equal_real_manager(
        groups in proptest::collection::vec(group_strategy(), 1..40),
        rounds in 1usize..4,
        n_slots in 3usize..10,
        selector in any::<u8>(),
        read_skipping in any::<bool>(),
        always_write_back in any::<bool>(),
        window in 0usize..24,
        use_oracle in any::<bool>(),
        pipelined in any::<bool>(),
    ) {
        if pipelined {
            return pipelined_parity(
                &groups, rounds, n_slots, selector, read_skipping, always_write_back, window,
                use_oracle,
            );
        }
        let plan = plan_of(&groups);

        let cfg = OocConfig::builder(N_ITEMS, WIDTH)
            .slots(n_slots)
            .read_skipping(read_skipping)
            .always_write_back(always_write_back)
            .prefetch_window(window)
            .build()
            .unwrap();
        let mut mgr = VectorManager::new(
            cfg,
            build_strategy(selector),
            MemStore::new(N_ITEMS, WIDTH),
        );
        let geo = SimGeometry::new(N_ITEMS, WIDTH, n_slots)
            .read_skipping(read_skipping)
            .always_write_back(always_write_back)
            .window(window);
        let mut sim = SlotCacheSim::new(geo, build_strategy(selector));

        // A full-run oracle plan only makes sense for the NextUse
        // strategy (that's the Belady configuration the tuner's lower
        // bound uses), but installing it must preserve parity regardless.
        if use_oracle {
            mgr.install_oracle_plan(plan.repeated(rounds));
            sim.install_oracle_plan(plan.repeated(rounds));
        }

        for round in 0..rounds {
            mgr.begin_plan(plan.clone());
            sim.begin_plan(plan.clone());
            for group in &groups {
                let sess = mgr.session(group).unwrap();
                drop(sess);
                sim.access_group(group);
            }
            prop_assert_eq!(
                mgr.stats(), sim.stats(),
                "diverged after round {} (strategy selector {})",
                round, selector % 5
            );
        }

        mgr.flush().unwrap();
        sim.flush();
        prop_assert_eq!(mgr.stats(), sim.stats(), "diverged after flush");

        // The simulator never talks to a store or a prefetch pipeline, so
        // these must be structurally zero on both sides.
        prop_assert_eq!(sim.stats().io_errors, 0);
        prop_assert_eq!(sim.stats().staged_loads, 0);
    }
}
