//! What makes the numbers repeat: count metrics are exact functions of
//! `(seed, units)`, and the block-median throughput does not move when the
//! host stalls the run once.

mod common;

use common::quick_args;
use ooc_benchmark::run::{measure, FrontDoor};
use ooc_benchmark::spec::{Workload, COUNT_METRICS};
use ooc_benchmark::traced::run_traced;
use ooc_benchmark::units::Units;
use std::time::Duration;

#[test]
fn count_metrics_repeat_exactly_for_one_seed() {
    for w in Workload::ALL {
        let a = quick_args(w, true, "steadiness");
        let (first, second) = (run_traced(&a).unwrap(), run_traced(&a).unwrap());
        assert!(first.correct && second.correct, "{}", w.name());
        assert_eq!(
            (first.attempted, first.failed),
            (second.attempted, second.failed)
        );
        for name in COUNT_METRICS {
            assert_eq!(
                first.metric(name).unwrap().to_bits(),
                second.metric(name).unwrap().to_bits(),
                "{}: {name} differs between two runs of one seed",
                w.name()
            );
        }
        let some_work = first.metric("plf.engine.combines").unwrap();
        assert!(some_work > 0.0, "{}: no combine was counted", w.name());
    }
}

#[test]
fn one_stalled_block_does_not_move_the_block_median() {
    let a = quick_args(Workload::TravInram, false, "steadiness");
    let mut door = FrontDoor::set_up(&a, false).unwrap();
    let mut units = Units::new(a.workload, &mut door.engine, a.seed).unwrap();
    let n = 200;
    measure(&mut door.engine, &mut units, n, None, &mut |_| {});
    let calm = measure(&mut door.engine, &mut units, n, None, &mut |_| {});
    let stalled = measure(&mut door.engine, &mut units, n, None, &mut |j| {
        if j == 50 {
            std::thread::sleep(Duration::from_secs(2));
        }
    });
    let mean_rate = n as f64 / (stalled.wall_ns as f64 / 1e9);
    assert!(
        mean_rate < 0.1 * calm.units_per_s(),
        "the stall should wreck the mean rate ({mean_rate} vs {})",
        calm.units_per_s()
    );
    let moved = (stalled.units_per_s() / calm.units_per_s() - 1.0).abs();
    assert!(
        moved < 0.5,
        "block-median units_per_s moved by {moved} under a 2 s stall in one block"
    );
    // The per-unit median does not see the stall either: it sits between units.
    assert!(stalled.unit_ms_p50() < 2.0 * calm.unit_ms_p50());
}
