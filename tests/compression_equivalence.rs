//! Compression-equivalence suite for the scale-aware APV codec behind
//! the store layer. `compression = "exp"` is a lossless re-encoding
//! (shared-exponent blocks + full 52-bit mantissas), so every managed
//! residency — serial or sharded, in-memory, file or file-limit backing,
//! pipelined or not — must stay bit-identical to the uncompressed run
//! for every replacement strategy, while moving strictly fewer bytes to
//! the store than the decoded vectors hold.

mod common;

use phylo_ooc::ooc::{CompressionMode, MonotonicClock, NullSink, Recorder, StrategyKind};
use phylo_ooc::plf::{BuildContext, EngineSpec, LikelihoodEngine, Residency};
use phylo_ooc::setup::{self, DatasetSpec};

const STRATEGIES: [StrategyKind; 5] = [
    StrategyKind::Random { seed: 3 },
    StrategyKind::Lru,
    StrategyKind::Lfu,
    StrategyKind::Topological,
    StrategyKind::NextUse,
];

fn spec() -> DatasetSpec {
    DatasetSpec {
        n_taxa: 20,
        n_sites: 170, // odd: uneven shard widths when sharded
        seed: 20260809,
        ..Default::default()
    }
}

fn lnl(spec: &EngineSpec, data: &setup::Dataset, ctx: &BuildContext) -> f64 {
    common::build(spec, data, ctx)
        .engine
        .full_traversals(2)
        .unwrap()
}

#[test]
fn exp_compression_bit_identical_across_strategies() {
    let data = setup::simulate_dataset(&spec());
    let dir = tempfile::tempdir().unwrap();
    let reference = setup::inram_engine(&data).full_traversals(2).unwrap();

    for kind in STRATEGIES {
        let raw = EngineSpec {
            residency: Residency::File { fraction: 0.3 },
            strategy: kind,
            ..setup::base_spec(&data)
        };
        let exp = EngineSpec {
            compression: Some(CompressionMode::Exp),
            ..raw.clone()
        };
        let ctx_raw =
            BuildContext::new().vector_path(dir.path().join(format!("{}-raw.bin", kind.label())));
        let ctx_exp =
            BuildContext::new().vector_path(dir.path().join(format!("{}-exp.bin", kind.label())));
        let a = lnl(&raw, &data, &ctx_raw);
        let b = lnl(&exp, &data, &ctx_exp);
        assert_eq!(a.to_bits(), reference.to_bits(), "raw {}", kind.label());
        assert_eq!(
            b.to_bits(),
            reference.to_bits(),
            "exp must be bit-identical to raw (strategy {})",
            kind.label()
        );
    }
}

#[test]
fn exp_compression_bit_identical_across_residencies() {
    let data = setup::simulate_dataset(&spec());
    let dir = tempfile::tempdir().unwrap();
    let reference = setup::inram_engine(&data).full_traversals(2).unwrap();
    let base = setup::base_spec(&data);

    let cells: Vec<(&str, EngineSpec, Option<&str>)> = vec![
        (
            "ooc-mem",
            EngineSpec {
                residency: Residency::OocMem { fraction: 0.4 },
                compression: Some(CompressionMode::Exp),
                ..base.clone()
            },
            None,
        ),
        (
            "file-limit",
            EngineSpec {
                residency: Residency::FileLimit {
                    limit_bytes: data.total_vector_bytes() / 3,
                },
                compression: Some(CompressionMode::Exp),
                ..base.clone()
            },
            Some("limit.bin"),
        ),
        (
            "sharded",
            EngineSpec {
                residency: Residency::File { fraction: 0.3 },
                shards: 3,
                compression: Some(CompressionMode::Exp),
                ..base.clone()
            },
            Some("sharded.bin"),
        ),
        (
            "sharded-pipelined",
            EngineSpec {
                residency: Residency::File { fraction: 0.3 },
                shards: 2,
                io_threads: 2,
                compression: Some(CompressionMode::Exp),
                ..base.clone()
            },
            Some("piped.bin"),
        ),
        (
            "serial-pipelined",
            EngineSpec {
                residency: Residency::File { fraction: 0.3 },
                io_threads: 1,
                compression: Some(CompressionMode::Exp),
                ..base.clone()
            },
            Some("serial-piped.bin"),
        ),
    ];

    for (label, cell, path) in cells {
        // The codec's own byte histograms, as `--metrics` would see them.
        let rec = Recorder::new(MonotonicClock::new(), NullSink);
        let shared = rec.clone();
        let ctx = BuildContext::new().recorders(move |_| shared.clone());
        let ctx = match path {
            Some(p) => ctx.vector_path(dir.path().join(p)),
            None => ctx,
        };
        let got = lnl(&cell, &data, &ctx);
        assert_eq!(
            got.to_bits(),
            reference.to_bits(),
            "{label}: exp-compressed lnl diverged"
        );
        let bytes = |op: &str| rec.histogram("compress", op).map_or(0, |h| h.sum_ns());
        let (logical, disk) = (bytes("bytes-logical"), bytes("bytes-disk"));
        assert!(
            0 < disk && disk < logical,
            "{label}: compression must move fewer bytes than it holds ({disk} of {logical})"
        );
    }
}

#[test]
fn compressed_search_matches_uncompressed_topology() {
    use phylo_ooc::search::{hill_climb, SearchConfig};
    use phylo_ooc::tree::write_newick;
    let data = setup::simulate_dataset(&DatasetSpec {
        n_taxa: 14,
        n_sites: 120,
        seed: 99,
        ..Default::default()
    });
    let cfg = SearchConfig {
        spr_radius: 3,
        max_rounds: 1,
        optimize_model: false,
        seed: 11,
        ..Default::default()
    };
    let mut plain = common::ooc_mem(&data, 0.3, StrategyKind::Lru);
    let plain_stats = hill_climb(&mut plain, &cfg).unwrap();

    let spec = EngineSpec {
        residency: Residency::OocMem { fraction: 0.3 },
        compression: Some(CompressionMode::Exp),
        ..setup::base_spec(&data)
    };
    let mut packed = spec
        .build(&data.tree, &setup::part_specs(&data), &BuildContext::new())
        .unwrap()
        .engine;
    let packed_stats = hill_climb(&mut packed, &cfg).unwrap();

    assert_eq!(
        plain_stats.final_lnl.to_bits(),
        packed_stats.final_lnl.to_bits()
    );
    assert_eq!(plain_stats.spr_applied, packed_stats.spr_applied);
    let names = data.comp().alignment.names().to_vec();
    assert_eq!(
        write_newick(plain.tree(), &names),
        write_newick(packed.tree(), &names),
        "compression must not alter the search trajectory"
    );
}
