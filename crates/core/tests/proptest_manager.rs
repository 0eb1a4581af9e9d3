//! Property-based tests: the vector manager must behave exactly like a
//! plain in-RAM array under *any* access sequence, strategy, slot count,
//! and behaviour-flag combination.

use ooc_core::{AccessPlan, AccessRecord, MemStore, OocConfig, StrategyKind, VectorManager};
use proptest::prelude::*;

/// One operation of a generated access sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Overwrite item with a recognisable pattern keyed by (item, tag).
    Write(u8, u8),
    /// Read item and check it matches the last written pattern.
    Read(u8),
    /// A combine: parent := left + right element-wise.
    Combine(u8, u8, u8),
    /// Flush dirty residents.
    Flush,
    /// Announce write-only items (read-skip flags).
    Traverse(Vec<u8>),
}

fn op_strategy(n_items: u8) -> impl Strategy<Value = Op> {
    let item = 0..n_items;
    prop_oneof![
        (item.clone(), any::<u8>()).prop_map(|(i, t)| Op::Write(i, t)),
        item.clone().prop_map(Op::Read),
        (item.clone(), item.clone(), item.clone()).prop_map(|(p, l, r)| Op::Combine(p, l, r)),
        Just(Op::Flush),
        proptest::collection::vec(item, 0..4).prop_map(Op::Traverse),
    ]
}

fn pattern(item: u8, tag: u8, width: usize) -> Vec<f64> {
    (0..width)
        .map(|k| item as f64 * 1e6 + tag as f64 * 1e3 + k as f64)
        .collect()
}

fn kind_from(selector: u8) -> StrategyKind {
    match selector % 4 {
        0 => StrategyKind::Random { seed: 11 },
        1 => StrategyKind::Lru,
        2 => StrategyKind::NextUse,
        _ => StrategyKind::Lfu,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn manager_matches_oracle(
        ops in proptest::collection::vec(op_strategy(12), 1..120),
        n_slots in 3usize..12,
        selector in any::<u8>(),
        read_skipping in any::<bool>(),
        always_write_back in any::<bool>(),
    ) {
        let n_items = 12usize;
        let width = 9usize;
        let cfg = OocConfig::builder(n_items, width)
            .slots(n_slots)
            .read_skipping(read_skipping)
            .always_write_back(always_write_back)
            .build()
            .unwrap();
        let mut mgr = VectorManager::new(
            cfg,
            kind_from(selector).build(None),
            MemStore::new(n_items, width),
        );
        // Oracle: plain vectors. None = never written (manager zero-fills).
        let mut oracle: Vec<Option<Vec<f64>>> = vec![None; n_items];
        let mut buf = vec![0.0; width];

        for op in ops {
            match op {
                Op::Write(i, tag) => {
                    let data = pattern(i, tag, width);
                    mgr.write_vector(i as u32, &data).unwrap();
                    oracle[i as usize] = Some(data);
                }
                Op::Read(i) => {
                    mgr.read_into(i as u32, &mut buf).unwrap();
                    match &oracle[i as usize] {
                        Some(expect) => prop_assert_eq!(&buf, expect),
                        None => prop_assert!(buf.iter().all(|&x| x == 0.0)),
                    }
                }
                Op::Combine(p, l, r) => {
                    if p == l || p == r || l == r {
                        continue;
                    }
                    let mut sess = mgr.session(&[
                        AccessRecord::read(l as u32),
                        AccessRecord::read(r as u32),
                        AccessRecord::write(p as u32),
                    ]).unwrap();
                    let (pv, lv, rv) = sess.rw(p as u32, Some(l as u32), Some(r as u32));
                    let (lv, rv) = (lv.unwrap(), rv.unwrap());
                    for k in 0..pv.len() {
                        pv[k] = lv[k] + rv[k];
                    }
                    drop(sess);
                    let lv = oracle[l as usize].clone().unwrap_or_else(|| vec![0.0; width]);
                    let rv = oracle[r as usize].clone().unwrap_or_else(|| vec![0.0; width]);
                    oracle[p as usize] =
                        Some((0..width).map(|k| lv[k] + rv[k]).collect());
                }
                Op::Flush => mgr.flush().unwrap(),
                Op::Traverse(items) => {
                    // Claiming items are write-only is only sound if the
                    // next access really writes them; emulate that.
                    let items: Vec<u32> = items.iter().map(|&i| i as u32).collect();
                    mgr.begin_plan(AccessPlan::from_records(
                        items.iter().map(|&i| AccessRecord::write(i)).collect(),
                        n_items,
                    ));
                    for &i in &items {
                        let data = pattern(i as u8, 255, width);
                        mgr.write_vector(i, &data).unwrap();
                        oracle[i as usize] = Some(data);
                    }
                }
            }
            // Invariants that must hold after every operation.
            let s = mgr.stats();
            prop_assert_eq!(s.requests, s.hits + s.misses);
            prop_assert_eq!(
                s.misses,
                s.disk_reads + s.skipped_reads + s.cold_loads
            );
            prop_assert!(mgr.resident_items().len() <= n_slots);
        }

        // Final sweep: every item readable and equal to the oracle.
        for i in 0..n_items as u32 {
            mgr.read_into(i, &mut buf).unwrap();
            match &oracle[i as usize] {
                Some(expect) => prop_assert_eq!(&buf, expect),
                None => prop_assert!(buf.iter().all(|&x| x == 0.0)),
            }
        }
    }

    #[test]
    fn fraction_config_always_legal(n_items in 3usize..5000, f in 0.001f64..1.0) {
        let cfg = OocConfig::builder(n_items, 16).fraction(f).build().unwrap();
        prop_assert!(cfg.n_slots >= 3);
        prop_assert!(cfg.n_slots <= n_items.max(3));
    }

    #[test]
    fn byte_limit_config_always_legal(
        n_items in 3usize..5000,
        width in 1usize..100_000,
        bytes in 1u64..10_000_000_000,
    ) {
        let cfg = OocConfig::builder(n_items, width).byte_limit(bytes).build().unwrap();
        prop_assert!(cfg.n_slots >= 3);
        prop_assert!(cfg.n_slots <= n_items.max(3));
        prop_assert_eq!(cfg.width, width);
    }

    // A zero (or offset-overflowing) byte budget must be *rejected*, and
    // with the same error every other byte-budget entry point reports —
    // the shared `validate_byte_budget` path.
    #[test]
    fn degenerate_byte_limits_error_identically(
        n_items in 3usize..5000,
        width in 1usize..100_000,
    ) {
        let zero = OocConfig::builder(n_items, width).byte_limit(0).build().unwrap_err();
        let split = ooc_core::split_budget_checked(0, &[1, 2]).unwrap_err();
        prop_assert_eq!(zero.to_string(), split.to_string());
        let huge = OocConfig::builder(n_items, width)
            .byte_limit(u64::MAX)
            .build()
            .unwrap_err();
        let huge_split = ooc_core::split_budget_checked(u64::MAX, &[1, 2]).unwrap_err();
        prop_assert_eq!(huge.to_string(), huge_split.to_string());
    }
}
