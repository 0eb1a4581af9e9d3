//! Property test for the `EngineSpec` profile format: serializing any
//! valid spec to TOML and parsing it back must reproduce the spec
//! exactly — every axis, including the `compression` field, with no
//! drift in floats (`f64::to_string` round-trips bit-exactly). Keys and
//! values the format retired are refused by name.

use phylo_ooc::ooc::{CompressionMode, StrategyKind};
use phylo_ooc::plf::{EngineSpec, Residency};
use proptest::prelude::*;

/// Any *valid* spec: the generator draws every axis independently, then
/// repairs the combinations `EngineSpec::validate` rejects (pipelines
/// need file backing, paged runs cannot shard or compress, …) so the
/// round-trip property is tested on the full accepted surface.
fn arb_spec() -> impl Strategy<Value = EngineSpec> {
    (
        (
            0u8..5,                 // residency selector
            0.01f64..1.0,           // fraction
            1u64..(1 << 40),        // byte budget
            0u8..5,                 // strategy selector
            any::<u64>(),           // random-strategy seed
            (1usize..5, 0usize..3), // shards, io_threads
        ),
        (
            0.05f64..5.0,  // alpha
            1usize..8,     // n_cats
            any::<bool>(), // compression
        ),
    )
        .prop_map(
            |((res, fraction, bytes, strat, seed, (shards, io_threads)), (alpha, n_cats, comp))| {
                let residency = match res {
                    0 => Residency::InRam,
                    1 => Residency::OocMem { fraction },
                    2 => Residency::File { fraction },
                    3 => Residency::FileLimit { limit_bytes: bytes },
                    _ => Residency::Paged { phys_bytes: bytes },
                };
                let strategy = match strat {
                    0 => StrategyKind::Random { seed },
                    1 => StrategyKind::Lru,
                    2 => StrategyKind::Lfu,
                    3 => StrategyKind::Topological,
                    _ => StrategyKind::NextUse,
                };
                let compression = comp.then_some(CompressionMode::Exp);
                // Repair the combinations validate() rejects.
                let file_backed = matches!(
                    residency,
                    Residency::File { .. } | Residency::FileLimit { .. }
                );
                let managed = file_backed || matches!(residency, Residency::OocMem { .. });
                EngineSpec {
                    residency,
                    strategy,
                    shards: if matches!(residency, Residency::Paged { .. }) {
                        1
                    } else {
                        shards
                    },
                    io_threads: if file_backed { io_threads } else { 0 },
                    alpha,
                    n_cats,
                    compression: if managed { compression } else { None },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn toml_round_trip_is_identity(spec in arb_spec()) {
        spec.validate().expect("generator only yields valid specs");
        let text = spec.to_toml();
        let parsed = EngineSpec::from_toml(&text)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n{text}"));
        prop_assert_eq!(&parsed, &spec);
        // Serialization is deterministic: a second hop is a fixpoint.
        prop_assert_eq!(parsed.to_toml(), text);
    }
}

#[test]
fn retired_keys_and_values_are_refused_by_name() {
    for (line, names) in [
        ("window = 16", "unknown profile key 'window'"),
        ("kernel = \"auto\"", "unknown profile key 'kernel'"),
        (
            "read_skipping = true",
            "unknown profile key 'read_skipping'",
        ),
        (
            "always_write_back = false",
            "unknown profile key 'always_write_back'",
        ),
        ("compression = \"exp-f32\"", "unknown compression 'exp-f32'"),
    ] {
        let text = format!("residency = \"ooc-mem\"\nfraction = 0.5\n{line}\n");
        let err = EngineSpec::from_toml(&text).unwrap_err().to_string();
        assert!(err.contains(names), "{line}: {err}");
    }
}
