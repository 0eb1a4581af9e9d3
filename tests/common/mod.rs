//! Shared spec-built engine constructors for the integration tests: thin
//! wrappers over [`EngineSpec::build`] for the configurations the suites
//! exercise repeatedly, over datasets of any partition count. Each test
//! binary compiles its own copy, so not every helper is used everywhere.
#![allow(dead_code)]

use phylo_ooc::ooc::StrategyKind;
use phylo_ooc::plf::{
    BuildContext, BuiltEngine, DynEngine, EngineSpec, InRamStore, PartLayout, PlfEngine, Residency,
};
use phylo_ooc::setup::{self, Dataset};
use std::path::Path;

/// Resolve `spec` over the dataset.
pub fn build(spec: &EngineSpec, data: &Dataset, ctx: &BuildContext) -> BuiltEngine {
    spec.build(&data.tree, &setup::part_specs(data), ctx)
        .expect("spec build")
}

/// Out-of-core engine over an in-memory backing store holding fraction
/// `f` of vectors in slots.
pub fn ooc_mem(data: &Dataset, f: f64, kind: StrategyKind) -> Box<dyn DynEngine> {
    let spec = EngineSpec {
        residency: Residency::OocMem { fraction: f },
        strategy: kind,
        ..setup::base_spec(data)
    };
    build(&spec, data, &BuildContext::new()).engine
}

/// Typed all-in-RAM engine over the dataset's first `p` partitions in `k`
/// blocks each, assembled by hand — not through the spec layer, which
/// erases the type.
pub fn inram_joint(data: &Dataset, p: usize, k: usize) -> PlfEngine<InRamStore> {
    let layout = data.parts[..p].iter().map(|part| PartLayout {
        comp: &part.comp,
        model: &part.model,
        stores: PlfEngine::<InRamStore>::block_dims(&part.comp, data.n_cats, k)
            .iter()
            .map(|d| InRamStore::new(data.tree.n_inner(), d.width()))
            .collect(),
        recorder: None,
    });
    PlfEngine::with_layout(data.tree.clone(), layout.collect(), data.alpha, data.n_cats)
}

/// Out-of-core engine over real backing files (one per partition) under
/// the paper's `-L` byte budget, split across partitions proportionally
/// to their vector footprints.
pub fn ooc_file(
    data: &Dataset,
    path: &Path,
    limit_bytes: u64,
    kind: StrategyKind,
) -> Box<dyn DynEngine> {
    let spec = EngineSpec {
        residency: Residency::FileLimit { limit_bytes },
        strategy: kind,
        ..setup::base_spec(data)
    };
    let ctx = BuildContext::new().vector_path(path);
    build(&spec, data, &ctx).engine
}

/// Sharded out-of-core engine with per-shard in-memory backing stores.
pub fn sharded_mem(
    data: &Dataset,
    f: f64,
    kind: StrategyKind,
    shards: usize,
) -> Box<dyn DynEngine> {
    let spec = EngineSpec {
        residency: Residency::OocMem { fraction: f },
        strategy: kind,
        shards,
        ..setup::base_spec(data)
    };
    build(&spec, data, &BuildContext::new()).engine
}

/// Sharded out-of-core engine over one backing file split into per-shard
/// regions, optionally pipelined by `io_threads` workers per shard.
pub fn sharded_file(
    data: &Dataset,
    path: &Path,
    f: f64,
    kind: StrategyKind,
    shards: usize,
    io_threads: usize,
) -> Box<dyn DynEngine> {
    let spec = EngineSpec {
        residency: Residency::File { fraction: f },
        strategy: kind,
        shards,
        io_threads,
        ..setup::base_spec(data)
    };
    let ctx = BuildContext::new().vector_path(path);
    build(&spec, data, &ctx).engine
}
