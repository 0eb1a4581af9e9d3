//! Spec-resolution equivalence: every arity and residency `EngineSpec`
//! resolves — in-RAM or managed over memory/file/file-limit backing, one
//! shard or several, one partition or several, pipelined or not — goes
//! through one construction path and must compute exactly what hand-built
//! serial in-RAM `PlfEngine`s compute. Residency, sharding, partitioning
//! and pipelining never change computed values, so this is `assert_eq!` on
//! `f64`, no tolerance.

use ooc_core::{ManualClock, MemorySink, Recorder, StrategyKind};
use phylo_ooc::plf::{
    BuildContext, EngineSpec, InRamStore, LikelihoodEngine, PartitionedPlfEngine, PlfEngine,
    Residency,
};
use phylo_ooc::seq::PartitionKind;
use phylo_ooc::setup::{self, DatasetSpec};

fn fig2_dataset() -> setup::Dataset {
    setup::simulate_dataset(&DatasetSpec {
        n_taxa: 16,
        n_sites: 160,
        seed: 20260809,
        ..Default::default()
    })
}

fn fig2_partitioned() -> setup::PartitionedDataset {
    setup::simulate_partitioned_dataset(
        &DatasetSpec {
            n_taxa: 12,
            n_sites: 0, // per-partition lengths below
            seed: 7,
            ..Default::default()
        },
        &[(PartitionKind::Dna, 90), (PartitionKind::Protein, 40)],
    )
}

/// Resolve `spec` over the dataset and return its log-likelihood.
fn spec_lnl(spec: &EngineSpec, data: &setup::Dataset, ctx: &BuildContext) -> f64 {
    setup::build_engine(spec, data, ctx)
        .unwrap()
        .engine
        .log_likelihood()
        .unwrap()
}

/// What one engine computes over the matrix's fixed call sequence.
#[derive(Debug, PartialEq)]
struct Run {
    lnl: f64,
    partition_lnls: Vec<f64>,
    branch: (f64, f64),
    alpha: (f64, f64),
    smoothed: f64,
}

fn run<E: LikelihoodEngine>(
    engine: &mut E,
    partition_lnls: impl FnOnce(&mut E) -> Vec<f64>,
) -> Run {
    let h = engine.tree().default_root_edge();
    Run {
        lnl: engine.log_likelihood().unwrap(),
        partition_lnls: partition_lnls(engine),
        branch: engine.optimize_branch(h, 8).unwrap(),
        alpha: engine.optimize_alpha(1e-2, 8).unwrap(),
        smoothed: engine.smooth_branches(1, 2).unwrap(),
    }
}

/// The reference: one hand-built serial in-RAM engine per partition — on
/// its own for one partition, joined for several.
fn reference_run(data: &setup::PartitionedDataset, p: usize) -> Run {
    let mut members: Vec<PlfEngine<InRamStore>> = (0..p)
        .map(|i| {
            let part = &data.parts[i];
            PlfEngine::new(
                data.tree.clone(),
                &part.comp,
                part.model.clone(),
                data.alpha,
                data.n_cats,
                InRamStore::new(data.tree.n_inner(), data.width(i)),
            )
        })
        .collect();
    if p == 1 {
        return run(&mut members[0], |e| vec![e.log_likelihood().unwrap()]);
    }
    let names = (0..p).map(|i| data.parts[i].name.clone()).collect();
    run(&mut PartitionedPlfEngine::new(members, names), |e| {
        e.partition_lnls().unwrap()
    })
}

/// Every cell of residency × shards × partitions × I/O threads resolves to
/// the same partitions-of-shards shape and is bit-identical to the serial
/// reference.
#[test]
fn every_arity_and_residency_matches_hand_built_serial_members() {
    let data = fig2_partitioned();
    let all_parts = setup::partitioned_part_specs(&data);
    let dir = tempfile::tempdir().unwrap();
    let total: u64 = (0..data.parts.len())
        .map(|i| data.partition_vector_bytes(i))
        .sum();
    let residencies = [
        Residency::InRam,
        Residency::OocMem { fraction: 0.3 },
        Residency::File { fraction: 0.3 },
        Residency::FileLimit {
            limit_bytes: total / 3,
        },
    ];
    for p in [1usize, 2] {
        let want = reference_run(&data, p);
        for (r, &residency) in residencies.iter().enumerate() {
            let file_backed = matches!(
                residency,
                Residency::File { .. } | Residency::FileLimit { .. }
            );
            for shards in [1usize, 3] {
                // The pipeline needs a file to prefetch from.
                for io_threads in 0..=usize::from(file_backed) {
                    let cell = format!("{} k={shards} p={p} io={io_threads}", residency.name());
                    let spec = EngineSpec {
                        residency,
                        strategy: StrategyKind::NextUse,
                        shards,
                        io_threads,
                        ..setup::base_partitioned_spec(&data)
                    };
                    let path = dir
                        .path()
                        .join(format!("{r}-{shards}-{p}-{io_threads}.bin"));
                    let (sink, events) = MemorySink::new();
                    let rec = Recorder::new(ManualClock::new(), sink);
                    let ctx = BuildContext::new()
                        .vector_path(&path)
                        .recorders(move |_| rec.clone());
                    let built = spec.build(&data.tree, &all_parts[..p], &ctx).unwrap();

                    // One oracle handle per manager: p partitions × k shards.
                    let managers = if residency == Residency::InRam {
                        0
                    } else {
                        p * shards
                    };
                    assert_eq!(built.handles.len(), managers, "{cell}");
                    // A single partition's file is the path as given;
                    // several take extensions `p<i>`.
                    assert_eq!(path.exists(), file_backed && p == 1, "{cell}");
                    assert_eq!(
                        path.with_extension("p1").exists(),
                        file_backed && p > 1,
                        "{cell}"
                    );

                    let mut engine = built.engine;
                    let got = run(&mut engine, |e| e.partition_lnls().unwrap());
                    assert_eq!(got, want, "{cell}");

                    // Every residency shards — in-RAM too — and a single
                    // shard has no barrier to record spans around.
                    let mut sharded: Vec<u32> = events
                        .lock()
                        .iter()
                        .filter(|e| e.layer == "sharded")
                        .filter_map(|e| e.shard)
                        .collect();
                    sharded.sort_unstable();
                    sharded.dedup();
                    let expect: Vec<u32> = if shards > 1 {
                        (0..shards as u32).collect()
                    } else {
                        Vec::new()
                    };
                    assert_eq!(sharded, expect, "{cell}");
                }
            }
        }
    }
}

#[test]
fn sharded_file_pipelined_spec_matches_inram() {
    let data = fig2_dataset();
    let dir = tempfile::tempdir().unwrap();
    let reference = setup::inram_engine(&data).log_likelihood().unwrap();
    let spec = EngineSpec {
        residency: Residency::File { fraction: 0.25 },
        shards: 2,
        io_threads: 2,
        window: 8,
        ..setup::base_spec(&data)
    };
    let ctx = BuildContext::new().vector_path(dir.path().join("v.bin"));
    assert_eq!(reference, spec_lnl(&spec, &data, &ctx));
}
