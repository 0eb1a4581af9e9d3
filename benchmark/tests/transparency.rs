//! The wrappers change nothing: on every workload, and on the `exp` twin
//! probe, the hand-assembled, traced stack returns the same lnL bits per
//! unit, ends on the same `OocStats` and makes the same search decisions as
//! the engine `EngineSpec::build` resolves the same spec to — and the
//! out-of-core search takes exactly the steps an in-RAM engine takes.

mod common;

use common::quick_args;
use ooc_benchmark::data::Dataset;
use ooc_benchmark::run::{measure, untraced_pass};
use ooc_benchmark::spec::{Workload, QUICK_UNITS};
use ooc_benchmark::traced::{traced_pass, Stack};
use ooc_benchmark::units::Units;
use ooc_core::CompressionMode;
use phylo_plf::{BuildContext, EngineSpec, LikelihoodEngine};

#[test]
fn traced_stack_matches_the_front_door_on_every_workload() {
    for w in Workload::ALL {
        let a = quick_args(w, true, "transparency");
        let plain = untraced_pass(&a, 3, QUICK_UNITS, false).unwrap();
        let traced = traced_pass(&a, &plain.door.data, Stack::of(w), QUICK_UNITS, false).unwrap();
        assert_eq!(
            traced.timed.lnl_bits,
            plain.timed.lnl_bits,
            "{}: per-unit lnL bits differ under tracing",
            w.name()
        );
        assert!(plain.timed.lnl_bits.iter().all(Option::is_some));
        assert_eq!(
            traced.stats,
            plain.door.engine.ooc_stats(),
            "{}: OocStats differ under tracing",
            w.name()
        );
        assert_eq!(traced.search, plain.units.search_counts(), "{}", w.name());
        assert_eq!(traced.failed, 0, "{}", w.name());
        assert_eq!(w.is_ooc(), traced.stats.is_some());
    }
}

#[test]
fn exp_twin_probe_matches_the_front_door_with_compression_on() {
    let a = quick_args(Workload::TravOoc, true, "transparency");
    let data = Dataset::simulate(a.geometry(), a.seed);
    let spec = EngineSpec {
        compression: Some(CompressionMode::Exp),
        ..a.workload.engine_spec(a.geometry())
    };
    let path = a.out_dir.join("exp-front-door.bin");
    let ctx = BuildContext::new().vector_path(&path);
    let mut plain = spec.build(&data.tree, &data.parts(), &ctx).unwrap().engine;
    plain.log_likelihood().unwrap();
    let mut units = Units::new(a.workload, &mut plain, a.seed).unwrap();
    // The warm-up a quick traced pass makes.
    for _ in 0..3 {
        units.run(&mut plain).unwrap();
    }
    plain.reset_ooc_stats();
    let timed = measure(&mut plain, &mut units, QUICK_UNITS, None, &mut |_| {});
    let traced = traced_pass(&a, &data, Stack::Exp, QUICK_UNITS, false).unwrap();
    assert_eq!(traced.timed.lnl_bits, timed.lnl_bits);
    assert!(timed.lnl_bits.iter().all(Option::is_some));
    assert_eq!(traced.stats, plain.ooc_stats());
    assert_eq!(traced.failed, 0);
    assert!(
        traced.store.write_f64s < traced.outer.write_f64s,
        "the codec did not shrink what reaches the file"
    );
    drop(plain);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn out_of_core_search_takes_the_in_ram_search_s_steps() {
    let a = quick_args(Workload::SearchOoc, false, "transparency");
    let mut ooc = untraced_pass(&a, 3, 3 * QUICK_UNITS, false).unwrap();
    let data = &ooc.door.data;
    let mut inram = data.inram_engine(&data.tree);
    inram.log_likelihood().unwrap();
    let mut units = Units::new(Workload::SearchOoc, &mut inram, a.seed).unwrap();
    for _ in 0..3 {
        units.run(&mut inram).unwrap();
    }
    units.reset_counts();
    let reference = measure(&mut inram, &mut units, 3 * QUICK_UNITS, None, &mut |_| {});
    assert_eq!(ooc.timed.lnl_bits, reference.lnl_bits);
    assert_eq!(ooc.units.search_counts(), units.search_counts());
    assert!(
        units.search_counts().0 > 0,
        "the probes scored no candidate"
    );
    // And both end on the same tree: a closing full traversal agrees.
    ooc.door.engine.invalidate_all();
    inram.invalidate_all();
    assert_eq!(
        ooc.door.engine.log_likelihood().unwrap().to_bits(),
        inram.log_likelihood().unwrap().to_bits()
    );
}
