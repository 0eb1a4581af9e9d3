//! Partition-equivalence suite: a partitioned analysis (several data
//! blocks with their own models and alphabets sharing one tree) must
//! produce per-partition log-likelihoods bit-identical to running each
//! partition as an independent serial in-RAM analysis — for every
//! residency backend, including the pipelined sharded path. Partition
//! engines never exchange data; only scalar (lnL, d1, d2) reductions are
//! shared, so this is exact equality, not a tolerance.

mod common;

use phylo_ooc::ooc::StrategyKind;
use phylo_ooc::plf::{DynEngine, InRamStore, LikelihoodEngine, PlfEngine};
use phylo_ooc::seq::PartitionKind;
use phylo_ooc::setup::{self, Dataset, DatasetSpec};

/// Mixed DNA + protein + codon blocks on one shared tree. Codon sites are
/// codon counts (61-state columns), exercising the widest vectors.
fn mixed_data() -> Dataset {
    setup::simulate_dataset(&DatasetSpec {
        n_taxa: 14,
        seed: 2607,
        parts: vec![
            (PartitionKind::Dna, 150),
            (PartitionKind::Protein, 60),
            (PartitionKind::Codon, 20),
        ],
        ..Default::default()
    })
}

/// Typed all-in-RAM partitioned engine, assembled by hand.
fn inram_partitioned(data: &Dataset) -> PlfEngine<InRamStore> {
    common::inram_joint(data, data.parts.len(), 1)
}

/// Each partition as its own standalone serial in-RAM analysis — the
/// reference every partitioned backend must reproduce exactly.
fn independent_serial_lnls(data: &Dataset) -> Vec<f64> {
    data.parts
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let store = InRamStore::new(data.tree.n_inner(), data.width(i));
            let mut e = PlfEngine::new(
                data.tree.clone(),
                &p.comp,
                p.model.clone(),
                data.alpha,
                data.n_cats,
                store,
            );
            e.log_likelihood().expect("in-RAM run cannot fail")
        })
        .collect()
}

fn assert_bitwise(got: &[f64], want: &[f64], backend: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{backend}: partition {i} log-likelihood {g} differs from the \
             independent serial run's {w}"
        );
    }
}

#[test]
fn partitioned_lnls_bit_identical_across_residency_backends() {
    let data = mixed_data();
    let reference = independent_serial_lnls(&data);
    let dir = tempfile::tempdir().expect("tempdir");

    let mut inram = inram_partitioned(&data);
    inram.log_likelihood().expect("in-RAM traversal");
    assert_bitwise(&inram.partition_lnls().unwrap(), &reference, "inram");

    let mut ooc_mem = common::ooc_mem(&data, 0.3, StrategyKind::Lru);
    ooc_mem.log_likelihood().expect("OOC-mem traversal");
    assert_bitwise(&ooc_mem.partition_lnls().unwrap(), &reference, "ooc-mem");

    // Paper's -L flag: one byte budget split across partitions
    // proportionally to their vector footprints, one file each.
    let total: u64 = (0..data.parts.len())
        .map(|i| data.partition_vector_bytes(i))
        .sum();
    let mut file = common::ooc_file(
        &data,
        &dir.path().join("vectors.bin"),
        total / 3,
        StrategyKind::NextUse,
    );
    file.log_likelihood().expect("OOC-file traversal");
    assert_bitwise(&file.partition_lnls().unwrap(), &reference, "ooc-file");

    // The full residency stack per partition: sharded members over file
    // stores with write-behind queues.
    let mut piped = common::sharded_file(
        &data,
        &dir.path().join("piped.bin"),
        0.3,
        StrategyKind::Lru,
        3,
        2,
    );
    piped.log_likelihood().expect("pipelined traversal");
    assert_bitwise(
        &piped.partition_lnls().unwrap(),
        &reference,
        "sharded-pipelined",
    );

    // Joint likelihood is the per-partition sum, in partition order, for
    // every backend.
    let joint = inram.log_likelihood().unwrap();
    let file_joint = file.log_likelihood().unwrap();
    assert_eq!(
        file_joint,
        file.partition_lnls().unwrap().iter().sum::<f64>(),
        "file-limit: joint lnl must be the per-partition sum"
    );
    assert_eq!(joint.to_bits(), file_joint.to_bits());
    assert_eq!(joint.to_bits(), piped.log_likelihood().unwrap().to_bits());
}

#[test]
fn joint_optimisation_stays_in_lockstep_across_backends() {
    let data = mixed_data();
    let dir = tempfile::tempdir().expect("tempdir");

    let mut inram = inram_partitioned(&data);
    let mut file = common::ooc_file(
        &data,
        &dir.path().join("opt.bin"),
        u64::MAX / 2, // generous budget; residency must not matter anyway
        StrategyKind::Lru,
    );

    let lnl0 = inram.log_likelihood().unwrap();
    let s_inram = inram.smooth_branches(2, 8).expect("smoothing");
    let s_file = file.smooth_branches(2, 8).expect("smoothing");
    assert_eq!(
        s_inram.to_bits(),
        s_file.to_bits(),
        "joint branch smoothing must be residency-independent"
    );
    assert!(
        s_inram > lnl0,
        "smoothing must improve the joint likelihood"
    );

    let (a_inram, l_inram) = inram.optimize_alpha(1e-3, 40).expect("alpha");
    let (a_file, l_file) = file.optimize_alpha(1e-3, 40).expect("alpha");
    assert_eq!(a_inram.to_bits(), a_file.to_bits());
    assert_eq!(l_inram.to_bits(), l_file.to_bits());
    assert!(l_inram >= s_inram, "shared-alpha fit must not regress");

    // Both backends' one tree holds the same branch lengths afterwards.
    for h in 0..inram.tree().n_half_edges() as u32 {
        assert_eq!(
            inram.tree().branch_length(h).to_bits(),
            file.tree().branch_length(h).to_bits()
        );
    }
}
