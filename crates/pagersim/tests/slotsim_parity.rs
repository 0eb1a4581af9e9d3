//! Property-based parity: [`pager_sim::SlotCacheSim`] must report the
//! exact same `OocStats` as a real `ooc_core::VectorManager`, for any
//! workload of pin groups, any replacement strategy, any slot count, any
//! behaviour-flag combination and either store stack — a plain in-memory
//! store or the write-behind queue over one. This equality is the licence
//! for the autotuner to prune candidates by simulated traffic alone. Both
//! sides run the same `SlotTable`, so the property guards the one thing
//! that still differs between them — the data plane.

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
/// opened twice is to `FileStore`: the queue's demand path and its worker
/// thread must view the same data.
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

/// Drive a manager over `store` and a simulator through the same plans
/// and groups; every counter must match, round for round.
#[allow(clippy::too_many_arguments)]
fn parity<S: BackingStore>(
    store: S,
    groups: &[Vec<AccessRecord>],
    rounds: usize,
    n_slots: usize,
    selector: u8,
    read_skipping: bool,
    always_write_back: bool,
    use_oracle: bool,
) -> Result<(), TestCaseError> {
    let plan = plan_of(groups);
    let cfg = OocConfig::builder(N_ITEMS, WIDTH)
        .slots(n_slots)
        .read_skipping(read_skipping)
        .always_write_back(always_write_back)
        .build()
        .unwrap();
    let mut mgr = VectorManager::new(cfg, build_strategy(selector), store);
    let geo = SimGeometry::new(N_ITEMS, WIDTH, n_slots)
        .read_skipping(read_skipping)
        .always_write_back(always_write_back);
    let mut sim = SlotCacheSim::new(geo, build_strategy(selector));

    // A full-run oracle plan only makes sense for the NextUse strategy
    // (that's the Belady configuration the tuner's lower bound uses), but
    // installing it must preserve parity regardless.
    if use_oracle {
        mgr.install_oracle_plan(plan.repeated(rounds));
        sim.install_oracle_plan(plan.repeated(rounds));
    }

    for round in 0..rounds {
        mgr.begin_plan(plan.clone());
        sim.begin_plan(plan.clone());
        for group in groups {
            drop(mgr.session(group).unwrap());
            sim.access_group(group);
        }
        prop_assert_eq!(
            mgr.stats(),
            sim.stats(),
            "diverged after round {} (strategy selector {})",
            round,
            selector % 5
        );
    }

    mgr.flush().unwrap();
    sim.flush();
    prop_assert_eq!(mgr.stats(), sim.stats(), "diverged after flush");

    // The simulator never talks to a store, so this must be structurally
    // zero on both sides.
    prop_assert_eq!(sim.stats().io_errors, 0);
    Ok(())
}

proptest! {
    // Twice the cases the non-pipelined property had on its own: the
    // `pipelined` input sends about half of them down the other arm.
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sim_counters_equal_real_manager(
        groups in proptest::collection::vec(group_strategy(), 1..40),
        rounds in 1usize..4,
        n_slots in 3usize..10,
        selector in any::<u8>(),
        read_skipping in any::<bool>(),
        always_write_back in any::<bool>(),
        use_oracle in any::<bool>(),
        pipelined in any::<bool>(),
    ) {
        let mem = MemStore::new(N_ITEMS, WIDTH);
        let store: Box<dyn BackingStore> = if pipelined {
            let mem = SharedMem(Arc::new(Mutex::new(mem)));
            Box::new(PrefetchingStore::with_pool(mem.clone(), vec![mem], N_ITEMS, WIDTH))
        } else {
            Box::new(mem)
        };
        parity(
            store, &groups, rounds, n_slots, selector, read_skipping, always_write_back,
            use_oracle,
        )?;
    }
}
