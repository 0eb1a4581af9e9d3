//! **Figure 5** — execution time of five full tree traversals, standard
//! implementation (OS paging) vs out-of-core with a fixed RAM budget
//! (`-L`), as the dataset grows past physical memory. Also reports the
//! §4.3 page-fault counts (E8: 346,861 faults at 2 GB growing to 902,489
//! at 5 GB on the paper's machine).
//!
//! 1. **Real-I/O scaled runs** — the same ½×…16× dataset-to-RAM geometry
//!    as the paper at laptop scale, with a real swap file for the paging
//!    baseline and a real binary vector file for the out-of-core runs;
//!    identical log-likelihoods are asserted. `--profile tuned.toml` (a
//!    profile emitted by `ooc-bench tune`, or any `EngineSpec` TOML) adds
//!    an `ooc-tuned` column: the profile's tuned axes at each cell's RAM
//!    budget, with the same bit-identity assertion.
//! 2. **Modelled paper-scale replay** — the full 8192-taxon, 1–32 GB
//!    geometry replayed through the same manager/pager machinery against
//!    a 2010-era HDD cost model (no physical I/O), plus a calibrated
//!    compute charge.
//! 3. `--shards k` (k ≥ 2): the same workload through the sharded engine
//!    for **all five** replacement strategies, asserting bit-identical
//!    log-likelihoods against the serial engine and reporting merged
//!    per-shard residency statistics.
//! 4. `--partitioned`: a mixed DNA + protein + codon partitioned analysis
//!    on one shared tree, the byte budget split across partitions
//!    proportionally to vector footprints, per-partition log-likelihoods
//!    asserted bit-identical to independent serial in-RAM runs (one JSONL
//!    metrics scope per partition).
//! 5. `--compression`: raw vs `exp` vs `exp-f32` APV compression (serial,
//!    plus one sharded + pipelined `exp` cell). `exp` is asserted
//!    bit-identical to the raw run; `exp-f32` must stay within
//!    [`ooc_core::exp_f32_lnl_error_bound`]; every compressed cell must
//!    move strictly fewer bytes to disk than it holds logically.
//!
//! With `--metrics FILE` every real-I/O out-of-core cell streams
//! stall-attribution events, latency histograms and its final `OocStats`
//! to FILE as JSONL, one scope per cell; the modelled replay builds its
//! managers internally and is not instrumented.

use super::Command;
use crate::cell::{full_traversals, run_cell, CellInput};
use crate::replay::{
    calibrate_newview_secs_per_f64, full_traversal_pattern, replay_ooc, replay_paged,
};
use crate::report::{print_table, secs, write_json};
use ooc_core::{exp_f32_lnl_error_bound, CompressionMode, DiskModel, StrategyKind};
use phylo_ooc::args::{Args, Flag, METRICS, QUICK};
use phylo_ooc::plf::{EngineSpec, Residency};
use phylo_ooc::run::MetricsFile;
use phylo_ooc::seq::PartitionKind;
use phylo_ooc::setup::{self, Dataset, DatasetSpec};
use phylo_tree::build::random_topology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

pub const FIG5: Command = Command {
    name: "fig5",
    about: "Fig. 5: runtime of full traversals, paging vs out-of-core",
    flags: &[
        QUICK,
        Flag::int("traversals", 5, "full traversals per cell"),
        Flag::switch("skip-real", "skip part 1 (real-I/O scaled runs)"),
        Flag::switch("skip-model", "skip part 2 (modelled paper-scale replay)"),
        Flag::int("shards", 0, "part 3: sharded sweep over k >= 2 shards"),
        Flag::switch("partitioned", "part 4: DNA + protein + codon partitions"),
        Flag::switch("compression", "part 5: raw vs exp vs exp-f32 sweep"),
        Flag::text("profile", "", "EngineSpec TOML adding an ooc-tuned column"),
        Flag::int("taxa", 0, "override each part's taxa"),
        Flag::int("sites", 0, "override each part's sites (parts 3-5)"),
        Flag::int("budget-mib", 0, "override each part's RAM budget"),
        Flag::int_q("model-taxa", 8192, 1024, "part 2: taxa"),
        Flag::float("model-ram-gb", 1.0, "part 2: out-of-core -L budget"),
        Flag::float("model-machine-gb", 2.0, "part 2: machine RAM (paging)"),
        Flag::text("out-real", "fig5_real_results.json", "part 1 JSON"),
        Flag::text("out-model", "fig5_model_results.json", "part 2 JSON"),
        Flag::text("out-shards", "fig5_shards_results.json", "part 3 JSON"),
        Flag::text(
            "out-partitioned",
            "fig5_partitioned_results.json",
            "part 4 JSON",
        ),
        Flag::text(
            "out-compression",
            "fig5_compression_results.json",
            "part 5 JSON",
        ),
        METRICS,
    ],
    positional: None,
    run,
};

/// A part's `(taxa, sites, budget in bytes)`: its own `[paper, --quick]`
/// defaults unless `--taxa`, `--sites` or `--budget-mib` override them.
fn geometry(
    args: &Args,
    taxa: [u64; 2],
    sites: [u64; 2],
    budget_mib: [u64; 2],
) -> (usize, usize, u64) {
    let q = usize::from(args.flag("quick"));
    let or = |flag: &str, default: u64| match args.u64(flag) {
        0 => default,
        given => given,
    };
    (
        or("taxa", taxa[q]) as usize,
        or("sites", sites[q]) as usize,
        or("budget-mib", budget_mib[q]) * 1024 * 1024,
    )
}

fn simulate(n_taxa: usize, n_sites: usize, seed: u64) -> Dataset {
    setup::simulate_dataset(&DatasetSpec {
        n_taxa,
        n_sites,
        seed,
        ..Default::default()
    })
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The spec every out-of-core cell of this figure starts from.
fn file_limit(base: EngineSpec, budget: u64, strategy: StrategyKind) -> EngineSpec {
    EngineSpec {
        residency: Residency::FileLimit {
            limit_bytes: budget,
        },
        strategy,
        ..base
    }
}

fn run(args: &Args) -> Result<(), String> {
    let traversals = args.usize("traversals");
    // One shared JSONL stream for all real-I/O parts.
    let metrics = MetricsFile::from_args(args);
    let dir = tempfile::tempdir().expect("tempdir");

    if !args.flag("skip-real") {
        real_scaled_runs(args, traversals, &metrics, dir.path());
    }
    if !args.flag("skip-model") {
        modeled_paper_scale(args, traversals);
    }
    if args.usize("shards") >= 2 {
        sharded_sweep(args, traversals, &metrics, dir.path());
    }
    if args.flag("partitioned") {
        partitioned_smoke(args, traversals, &metrics, dir.path());
    }
    if args.flag("compression") {
        compression_sweep(args, traversals, &metrics, dir.path());
    }
    Ok(())
}

#[derive(Serialize)]
struct RealPoint {
    ratio: f64,
    total_bytes: u64,
    /// True standard implementation (plain RAM, no paging machinery) —
    /// what "Standard" costs when the dataset fits in physical memory.
    inram_secs: f64,
    paged_secs: f64,
    paged_faults: u64,
    ooc_lru_secs: f64,
    ooc_rand_secs: f64,
    /// `--profile FILE` cell: the tuned spec's axes (strategy, window,
    /// pipelining, flags, compression) at this cell's RAM budget.
    ooc_tuned_secs: Option<f64>,
    lnl: f64,
}

/// Part 1: real I/O at scaled-down geometry.
fn real_scaled_runs(args: &Args, traversals: usize, metrics: &MetricsFile, dir: &Path) {
    // Sites follow from the data/RAM ratio of each point.
    let (n_taxa, _, budget) = geometry(args, [1024, 256], [0, 0], [64, 8]);
    let ratios: &[f64] = if args.flag("quick") {
        &[0.5, 2.0, 4.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    };
    println!(
        "Figure 5 (real I/O, scaled): {n_taxa} taxa, RAM budget {:.0} MiB, {traversals} full traversals\n",
        mib(budget)
    );

    // `--profile tuned.toml` adds one more out-of-core cell per geometry:
    // the profile's tuned axes competing against the hand-picked grid at
    // the same RAM budget and dataset.
    let profile_path = args.string("profile");
    let profile: Option<EngineSpec> = (!profile_path.is_empty()).then(|| {
        let text = std::fs::read_to_string(&profile_path)
            .unwrap_or_else(|e| panic!("cannot read profile '{profile_path}': {e}"));
        EngineSpec::from_toml(&text)
            .unwrap_or_else(|e| panic!("invalid profile '{profile_path}': {e}"))
    });

    let bytes_per_site = 4 * 4 * 8; // DNA, Γ4, f64
    let mut points = Vec::new();
    for (i, &ratio) in ratios.iter().enumerate() {
        let n_sites =
            ((ratio * budget as f64) / ((n_taxa - 2) as f64 * bytes_per_site as f64)) as usize;
        let n_sites = n_sites.max(50);
        eprintln!(
            "  [{}/{}] ratio {ratio}x: simulating {n_sites} sites...",
            i + 1,
            ratios.len()
        );
        let data = simulate(n_taxa, n_sites, 8192);
        let input = CellInput::dataset(&data);
        let base = setup::base_spec(&data);
        let cell = |spec: &EngineSpec, label: &str, metrics: &MetricsFile| {
            run_cell(
                spec,
                &input,
                Some(dir.join(format!("vec_{i}_{label}.bin"))),
                &format!("fig5-real/{ratio}x/{label}"),
                metrics,
                full_traversals(traversals),
            )
        };

        // True standard: everything in RAM (the paper's baseline whenever
        // the dataset fits; beyond that the OS pages, measured next). The
        // two references are never instrumented.
        let inram = cell(&base, "in-RAM", &MetricsFile::new(None));

        // Standard over the paging arena. The fault count lives in the
        // arena, behind the concrete store type, so this one cell is built
        // by hand rather than from a spec.
        let mut paged =
            setup::paged_engine(&data, dir.join(format!("swap_{i}.bin")), budget as usize)
                .expect("failed to create swap file");
        let t0 = Instant::now();
        let lnl = paged
            .full_traversals(traversals)
            .expect("paged traversal failed");
        let paged_secs = t0.elapsed().as_secs_f64();
        let paged_faults = paged.store().arena().stats().major_faults;
        assert_eq!(
            lnl.to_bits(),
            inram.value.to_bits(),
            "paged must match in-RAM"
        );
        drop(paged);

        // Out-of-core, LRU and RAND.
        let [ooc_lru_secs, ooc_rand_secs] = [StrategyKind::Lru, StrategyKind::Random { seed: 5 }]
            .map(|kind| {
                let spec = file_limit(base.clone(), budget, kind);
                let ooc = cell(&spec, kind.label(), metrics);
                assert_eq!(
                    ooc.value.to_bits(),
                    lnl.to_bits(),
                    "results must be identical"
                );
                ooc.secs
            });

        // The tuned-profile cell, when one was given: keep the tuned axes,
        // re-budget residency to this cell and pin the model parameters to
        // the dataset's (the reference likelihood depends on them).
        let ooc_tuned_secs = profile.as_ref().map(|tuned| {
            let tuned_spec = EngineSpec {
                alpha: data.alpha,
                n_cats: data.n_cats,
                ..file_limit(tuned.clone(), budget, tuned.strategy)
            };
            let ooc = cell(&tuned_spec, "tuned", metrics);
            assert_eq!(
                ooc.value.to_bits(),
                lnl.to_bits(),
                "tuned results must be identical"
            );
            ooc.secs
        });

        points.push(RealPoint {
            ratio,
            total_bytes: data.total_vector_bytes(),
            inram_secs: inram.secs,
            paged_secs,
            paged_faults,
            ooc_lru_secs,
            ooc_rand_secs,
            ooc_tuned_secs,
            lnl,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![
                format!("{:.1}x", p.ratio),
                format!("{:.0} MiB", mib(p.total_bytes)),
                secs(p.inram_secs),
                secs(p.paged_secs),
                p.paged_faults.to_string(),
                secs(p.ooc_lru_secs),
                secs(p.ooc_rand_secs),
            ];
            let mut best_ooc = p.ooc_lru_secs.min(p.ooc_rand_secs);
            if let Some(tuned) = p.ooc_tuned_secs {
                row.push(secs(tuned));
                best_ooc = best_ooc.min(tuned);
            }
            row.push(format!("{:.2}x", p.paged_secs / best_ooc));
            row
        })
        .collect();
    let mut headers = vec![
        "data/RAM",
        "vectors",
        "in-RAM ref",
        "std(paging)",
        "pg faults",
        "ooc-LRU",
        "ooc-RAND",
    ];
    if profile.is_some() {
        headers.push("ooc-tuned");
    }
    headers.push("speedup");
    print_table(&headers, &rows);
    println!(
        "\npaper comparison: standard wins (or ties) while the data fits; once it\n\
         exceeds RAM the paging baseline degrades sharply (fault counts grow, E8)\n\
         while out-of-core times scale smoothly — >5x at the largest size in the paper.\n"
    );
    write_json(args.string("out-real"), &points);
}

#[derive(Serialize)]
struct ShardPoint {
    strategy: &'static str,
    shards: usize,
    serial_secs: f64,
    sharded_secs: f64,
    speedup: f64,
    lnl: f64,
    merged_requests: u64,
    merged_misses: u64,
    merged_disk_reads: u64,
    merged_disk_writes: u64,
}

/// Part 3 (`--shards k`): serial vs sharded-parallel out-of-core runs for
/// all five replacement strategies, asserting bit-identical likelihoods.
fn sharded_sweep(args: &Args, traversals: usize, metrics: &MetricsFile, dir: &Path) {
    let shards = args.usize("shards");
    let (n_taxa, n_sites, budget) = geometry(args, [512, 128], [2000, 600], [32, 4]);
    println!(
        "Figure 5 (sharded sweep): {n_taxa} taxa x {n_sites} sites, {shards} shards over {} worker threads, \
         RAM budget {:.0} MiB, {traversals} full traversals\n",
        ooc_core::parallelism(),
        mib(budget)
    );
    let data = simulate(n_taxa, n_sites, 8192);
    let input = CellInput::dataset(&data);

    let strategies = [
        StrategyKind::Random { seed: 5 },
        StrategyKind::Lru,
        StrategyKind::Lfu,
        StrategyKind::Topological,
        StrategyKind::NextUse,
    ];
    let mut points = Vec::new();
    for (i, kind) in strategies.into_iter().enumerate() {
        let serial_spec = file_limit(setup::base_spec(&data), budget, kind);
        // The sharded variant of the same spec: the shared recorder lands
        // on every shard manager plus the engine's shard-exec/barrier-wait
        // attribution.
        let sharded_spec = EngineSpec {
            shards,
            ..serial_spec.clone()
        };
        let cell = |spec: &EngineSpec, label: String| {
            run_cell(
                spec,
                &input,
                Some(dir.join(format!("{label}_{i}.bin"))),
                &format!("fig5-shards/{}/{label}", kind.label()),
                metrics,
                full_traversals(traversals),
            )
        };
        let serial = cell(&serial_spec, "serial".into());
        let sharded = cell(&sharded_spec, format!("sharded{shards}"));
        assert_eq!(
            sharded.value.to_bits(),
            serial.value.to_bits(),
            "{}: sharded log-likelihood must be bit-identical to serial ({} vs {})",
            kind.label(),
            sharded.value,
            serial.value
        );
        let stats = sharded
            .stats
            .expect("sharded OOC engine reports merged stats");
        points.push(ShardPoint {
            strategy: kind.label(),
            shards,
            serial_secs: serial.secs,
            sharded_secs: sharded.secs,
            speedup: serial.secs / sharded.secs,
            lnl: sharded.value,
            merged_requests: stats.requests,
            merged_misses: stats.misses,
            merged_disk_reads: stats.disk_reads,
            merged_disk_writes: stats.disk_writes,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.strategy.to_string(),
                secs(p.serial_secs),
                secs(p.sharded_secs),
                format!("{:.2}x", p.speedup),
                format!("{:.4}", p.lnl),
                p.merged_misses.to_string(),
                p.merged_disk_reads.to_string(),
                p.merged_disk_writes.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "strategy",
            "serial",
            &format!("{shards} shards"),
            "speedup",
            "lnl (bit-identical)",
            "misses",
            "reads",
            "writes",
        ],
        &rows,
    );
    println!(
        "\nall five strategies produced bit-identical log-likelihoods under {shards} shards;\n\
         merged statistics aggregate the per-shard managers.\n"
    );
    write_json(args.string("out-shards"), &points);
}

#[derive(Serialize)]
struct PartitionPoint {
    strategy: &'static str,
    partition: String,
    states: usize,
    budget_bytes: u64,
    lnl: f64,
    requests: u64,
    misses: u64,
    disk_reads: u64,
    disk_writes: u64,
}

/// Part 4 (`--partitioned`): a mixed DNA + protein + codon partitioned
/// analysis — one shared tree, one out-of-core engine per partition, one
/// `-L` byte budget split across partitions proportionally to their
/// vector footprints — asserting every partition's log-likelihood
/// bit-identical to an independent serial in-RAM run. With `--metrics`
/// each partition streams to its own JSONL scope, so `ooc-bench check`
/// reconciles every partition's residency stack separately.
fn partitioned_smoke(args: &Args, traversals: usize, metrics: &MetricsFile, dir: &Path) {
    let (n_taxa, n_sites, budget) = geometry(args, [256, 64], [1600, 400], [32, 4]);
    let data = setup::simulate_dataset(&DatasetSpec {
        n_taxa,
        n_sites,
        seed: 4242,
        // Codon sites are counted in codons; /8 keeps its (15x-per-site)
        // footprint comparable to the DNA block.
        parts: vec![
            (PartitionKind::Dna, n_sites),
            (PartitionKind::Protein, n_sites / 4),
            (PartitionKind::Codon, n_sites / 8),
        ],
        ..Default::default()
    });
    let input = CellInput::dataset(&data);
    println!(
        "Figure 5 (partitioned smoke): {n_taxa} taxa, partitions {}, RAM budget {:.0} MiB, {traversals} full traversals\n",
        data.parts
            .iter()
            .map(|p| format!("{} ({})", p.name, p.kind))
            .collect::<Vec<_>>()
            .join(", "),
        mib(budget)
    );

    // One cell: the joint lnL plus each partition's own.
    let run_parts = |spec: &EngineSpec, label: &str, metrics: &MetricsFile, count: usize| {
        let mut lnls = Vec::new();
        let cell = run_cell(
            spec,
            &input,
            Some(dir.join(format!("part_{label}.bin"))),
            &format!("fig5-partitioned/{label}"),
            metrics,
            |engine| {
                let joint = full_traversals(count)(engine);
                lnls = engine.partition_lnls().expect("traversal failed");
                joint
            },
        );
        (cell, lnls)
    };
    // Reference: each partition as its own standalone serial in-RAM run.
    let base = setup::base_spec(&data);
    let (_, reference) = run_parts(&base, "reference", &MetricsFile::new(None), 1);

    let weights: Vec<u64> = (0..data.parts.len())
        .map(|i| data.partition_vector_bytes(i))
        .collect();
    let budgets = ooc_core::split_budget(budget, &weights);

    let mut points = Vec::new();
    for kind in [StrategyKind::Lru, StrategyKind::NextUse] {
        let part_spec = file_limit(base.clone(), budget, kind);
        let (cell, lnls) = run_parts(&part_spec, kind.label(), metrics, traversals);
        assert_eq!(
            lnls.iter().sum::<f64>(),
            cell.value,
            "joint lnl must be the per-partition sum"
        );
        for (i, p) in data.parts.iter().enumerate() {
            assert_eq!(
                lnls[i].to_bits(),
                reference[i].to_bits(),
                "{}/{}: partitioned OOC log-likelihood must be bit-identical to the \
                 independent serial run ({} vs {})",
                kind.label(),
                p.name,
                lnls[i],
                reference[i]
            );
            let stats = cell.part_stats[i].expect("managed partition keeps stats");
            points.push(PartitionPoint {
                strategy: kind.label(),
                partition: p.name.clone(),
                states: p.kind.alphabet().n_states(),
                budget_bytes: budgets[i],
                lnl: lnls[i],
                requests: stats.requests,
                misses: stats.misses,
                disk_reads: stats.disk_reads,
                disk_writes: stats.disk_writes,
            });
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.strategy.to_string(),
                p.partition.clone(),
                p.states.to_string(),
                format!("{:.1} MiB", mib(p.budget_bytes)),
                format!("{:.4}", p.lnl),
                p.misses.to_string(),
                p.disk_reads.to_string(),
                p.disk_writes.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "strategy",
            "partition",
            "states",
            "budget",
            "lnl (bit-identical)",
            "misses",
            "reads",
            "writes",
        ],
        &rows,
    );
    println!(
        "\nall partitions bit-identical to independent serial in-RAM runs;\n\
         the shared byte budget was split proportionally to vector footprints.\n"
    );
    write_json(args.string("out-partitioned"), &points);
}

#[derive(Serialize)]
struct CompressionPoint {
    mode: &'static str,
    strategy: &'static str,
    config: &'static str,
    secs: f64,
    lnl: f64,
    lnl_delta: f64,
    bytes_logical: u64,
    bytes_disk: u64,
    ratio: f64,
}

/// Part 5 (`--compression`): compressed-vs-raw sweep. One raw serial
/// reference run, then `exp` (bit-exact) and `exp-f32` (error-bounded)
/// cells including one sharded + pipelined `exp` configuration. The
/// achieved compression ratio is read back from the codec's
/// `compress/bytes-*` histograms — the same ones `ooc-bench check
/// --reconcile-compression` validates when `--metrics` is on.
fn compression_sweep(args: &Args, traversals: usize, metrics: &MetricsFile, dir: &Path) {
    let (n_taxa, n_sites, budget) = geometry(args, [256, 96], [1500, 400], [16, 2]);
    println!(
        "Figure 5 (compression sweep): {n_taxa} taxa x {n_sites} sites, RAM budget {:.0} MiB, {traversals} full traversals\n",
        mib(budget)
    );
    let data = simulate(n_taxa, n_sites, 8192);
    // Every compressed cell reads its codec's byte histograms back.
    let input = CellInput::dataset(&data).observed();

    // Raw serial reference: every compressed cell is judged against this
    // log-likelihood. It is never instrumented.
    let raw_spec = file_limit(setup::base_spec(&data), budget, StrategyKind::Lru);
    let raw = run_cell(
        &raw_spec,
        &CellInput::dataset(&data),
        Some(dir.join("raw.bin")),
        "fig5-compression/none",
        &MetricsFile::new(None),
        full_traversals(traversals),
    );
    let mut points = vec![CompressionPoint {
        mode: "none",
        strategy: StrategyKind::Lru.label(),
        config: "serial",
        secs: raw.secs,
        lnl: raw.value,
        lnl_delta: 0.0,
        bytes_logical: 0,
        bytes_disk: 0,
        ratio: 1.0,
    }];

    // (mode, strategy, shards, io_threads)
    let cells = [
        (CompressionMode::Exp, StrategyKind::Lru, 1, 0),
        (CompressionMode::Exp, StrategyKind::NextUse, 1, 0),
        (CompressionMode::Exp, StrategyKind::Lru, 2, 2),
        (CompressionMode::ExpF32, StrategyKind::Lru, 1, 0),
    ];
    for (i, (mode, kind, shards, io_threads)) in cells.into_iter().enumerate() {
        let config = if shards > 1 {
            "sharded+pipelined"
        } else {
            "serial"
        };
        let cell_spec = EngineSpec {
            compression: Some(mode),
            strategy: kind,
            shards,
            io_threads,
            ..raw_spec.clone()
        };
        let cell = run_cell(
            &cell_spec,
            &input,
            Some(dir.join(format!("comp_{i}.bin"))),
            &format!("fig5-compression/{}/{}/{config}", mode.name(), kind.label()),
            metrics,
            full_traversals(traversals),
        );
        let lnl_delta = (cell.value - raw.value).abs();
        match mode {
            CompressionMode::Exp => assert_eq!(
                cell.value.to_bits(),
                raw.value.to_bits(),
                "{config}/{}: exp compression must be bit-exact ({} vs {})",
                kind.label(),
                cell.value,
                raw.value
            ),
            CompressionMode::ExpF32 => {
                let bound = exp_f32_lnl_error_bound(n_sites as u64, data.tree.n_inner() as u64);
                assert!(
                    lnl_delta <= bound,
                    "{config}/{}: exp-f32 |dlnl| {lnl_delta} exceeds the documented bound {bound}",
                    kind.label()
                );
            }
        }
        let rec = &cell.recs[0];
        let bytes = |op: &str| rec.histogram("compress", op).map_or(0, |h| h.sum_ns());
        let (bytes_logical, bytes_disk) = (bytes("bytes-logical"), bytes("bytes-disk"));
        assert!(
            bytes_disk > 0 && bytes_disk < bytes_logical,
            "{config}/{}/{}: compression must move fewer bytes than it holds \
             ({bytes_disk} of {bytes_logical})",
            mode.name(),
            kind.label()
        );
        points.push(CompressionPoint {
            mode: mode.name(),
            strategy: kind.label(),
            config,
            secs: cell.secs,
            lnl: cell.value,
            lnl_delta,
            bytes_logical,
            bytes_disk,
            ratio: bytes_logical as f64 / bytes_disk as f64,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.mode.to_string(),
                p.strategy.to_string(),
                p.config.to_string(),
                secs(p.secs),
                format!("{:.4}", p.lnl),
                format!("{:.2e}", p.lnl_delta),
                format!("{:.3}x", p.ratio),
            ]
        })
        .collect();
    print_table(
        &[
            "mode", "strategy", "config", "time", "lnl", "|dlnl|", "ratio",
        ],
        &rows,
    );
    println!(
        "\nexp cells bit-identical to the raw run (including sharded + pipelined);\n\
         exp-f32 within its documented lnl bound; every compressed cell moved\n\
         strictly fewer bytes to disk than the decoded vectors hold.\n"
    );
    write_json(args.string("out-compression"), &points);
}

#[derive(Serialize)]
struct ModelPoint {
    gb: f64,
    standard_secs: f64,
    standard_faults: u64,
    ooc_lru_secs: f64,
    ooc_rand_secs: f64,
}

/// Part 2: paper-scale geometry replayed against a disk cost model.
fn modeled_paper_scale(args: &Args, traversals: usize) {
    let n_taxa = args.usize("model-taxa");
    // The paper's test system: 2 GB physical RAM, out-of-core runs forced
    // to -L 1 GB. The standard baseline gets the machine RAM.
    let ram_gb = args.f64("model-ram-gb");
    let machine_gb = args.f64("model-machine-gb");
    let sizes_gb: &[f64] = if args.flag("quick") {
        &[1.0, 4.0]
    } else {
        &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    };
    println!(
        "Figure 5 (modelled, paper scale): {n_taxa} taxa, machine {machine_gb:.0} GB / ooc -L {ram_gb:.0} GB, {traversals} traversals, 2010 HDD model\n"
    );

    let tree = random_topology(n_taxa, 0.1, &mut StdRng::seed_from_u64(8192));
    let pattern = full_traversal_pattern(&tree);
    let disk = DiskModel::hdd_2010();
    let per_f64 = calibrate_newview_secs_per_f64();
    eprintln!(
        "  calibrated compute cost: {:.2} ns per f64 of vector width",
        per_f64 * 1e9
    );

    let ram_bytes = (ram_gb * 1e9) as u64;
    let mut points = Vec::new();
    for &gb in sizes_gb {
        let width = (gb * 1e9 / (pattern.n_items as f64 * 8.0)) as usize;
        eprintln!("  size {gb} GB: width {width} f64/vector, replaying...");
        let (paged, pstats) = replay_paged(
            &pattern,
            width,
            (machine_gb * 1e9) as usize,
            disk,
            traversals,
            per_f64,
        );
        let ooc = |kind| {
            let (r, _) = replay_ooc(&pattern, width, ram_bytes, kind, disk, traversals, per_f64);
            r.total_secs
        };
        points.push(ModelPoint {
            gb,
            standard_secs: paged.total_secs,
            standard_faults: pstats.major_faults,
            ooc_lru_secs: ooc(StrategyKind::Lru),
            ooc_rand_secs: ooc(StrategyKind::Random { seed: 5 }),
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0} GB", p.gb),
                secs(p.standard_secs),
                p.standard_faults.to_string(),
                secs(p.ooc_lru_secs),
                secs(p.ooc_rand_secs),
                format!(
                    "{:.2}x",
                    p.standard_secs / p.ooc_lru_secs.min(p.ooc_rand_secs)
                ),
            ]
        })
        .collect();
    print_table(
        &[
            "dataset",
            "standard",
            "pg faults",
            "ooc-LRU",
            "ooc-RAND",
            "speedup",
        ],
        &rows,
    );
    println!(
        "\npaper comparison (Fig. 5): identical shape — parity while fitting in RAM,\n\
         out-of-core >5x faster at 32 GB; §4.3 fault growth visible in column 3."
    );
    write_json(args.string("out-model"), &points);
}
