//! The mechanism behind Figure 5: under the same memory budget, the
//! out-of-core manager must (a) produce identical results, (b) move far
//! fewer, far larger I/O requests than the page-granularity baseline, and
//! (c) the paging baseline's fault count must grow with memory pressure as
//! reported in the paper's §4.3.

mod common;

use phylo_ooc::ooc::StrategyKind;
use phylo_ooc::plf::LikelihoodEngine;
use phylo_ooc::setup::{self, DatasetSpec};
use phylo_ooc::tree::traverse::{plan_traversal, Orientation};

fn spec() -> DatasetSpec {
    DatasetSpec {
        n_taxa: 96,
        n_sites: 300,
        seed: 4242,
        ..Default::default()
    }
}

#[test]
fn same_budget_same_result_fewer_ops() {
    let data = setup::simulate_dataset(&spec());
    let dir = tempfile::tempdir().unwrap();
    let budget = (data.total_vector_bytes() / 4) as usize;

    let mut paged = setup::paged_engine(&data, dir.path().join("swap.bin"), budget).unwrap();
    let lnl_paged = paged.full_traversals(3).unwrap();
    let pstats = *paged.store().arena().stats();

    let mut ooc = common::ooc_file(
        &data,
        &dir.path().join("vectors.bin"),
        budget as u64,
        StrategyKind::Lru,
    );
    let lnl_ooc = ooc.full_traversals(3).unwrap();
    let ostats = ooc.ooc_stats().expect("managed engine reports stats");

    assert_eq!(lnl_paged.to_bits(), lnl_ooc.to_bits());
    assert!(pstats.major_faults > 0, "baseline must be paging");
    // Application knowledge -> an order of magnitude fewer I/O requests.
    assert!(
        ostats.io_ops() * 4 < pstats.io_ops(),
        "ooc ops {} should be well below paging ops {}",
        ostats.io_ops(),
        pstats.io_ops()
    );
    // And each out-of-core request is a whole vector, far above 4 KiB.
    assert!(data.width(0) * 8 > 4096 * 4);
}

#[test]
fn fault_counts_grow_with_dataset_size() {
    // §4.3: "the number of page faults increases from 346,861 for 2GB to
    // 902,489 for 5GB" — same phenomenon at our scale: fixed budget,
    // growing dataset, growing fault count once RAM is exceeded.
    let dir = tempfile::tempdir().unwrap();
    let budget = 1024 * 1024; // 1 MiB: exceeded by all three datasets
    let mut faults = Vec::new();
    for (i, n_sites) in [150usize, 300, 600].into_iter().enumerate() {
        let data = setup::simulate_dataset(&DatasetSpec {
            n_taxa: 64,
            n_sites,
            seed: 9,
            ..Default::default()
        });
        let mut paged =
            setup::paged_engine(&data, dir.path().join(format!("swap{i}.bin")), budget).unwrap();
        let _ = paged.full_traversals(2).unwrap();
        faults.push(paged.store().arena().stats().major_faults);
    }
    assert!(
        faults[0] < faults[1] && faults[1] < faults[2],
        "faults must grow with pressure: {faults:?}"
    );
}

#[test]
fn ooc_io_scales_with_misses_not_touches() {
    // Doubling traversals over a fitting working set must not double I/O.
    let data = setup::simulate_dataset(&DatasetSpec {
        n_taxa: 40,
        n_sites: 150,
        seed: 3,
        ..Default::default()
    });
    let mut fits = common::ooc_mem(&data, 1.0, StrategyKind::Lru);
    let _ = fits.full_traversals(4).unwrap();
    let stats = fits.ooc_stats().expect("managed engine reports stats");
    assert_eq!(
        stats.miss_rate() * stats.requests as f64,
        stats.misses as f64
    );
    let root = data.tree.default_root_edge();
    let mut orient = Orientation::new(data.n_items());
    let plan = plan_traversal(&data.tree, root, &mut orient, true);
    let stored = plan.written().count();
    assert!(stored < data.n_items(), "rebuilt vectors are never stored");
    assert_eq!(
        stats.misses as usize, stored,
        "f = 1.0: only the cold loads of the stored vectors miss"
    );
    assert_eq!(stats.disk_reads, 0, "nothing is ever evicted at f = 1.0");
}
