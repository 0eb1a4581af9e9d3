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
use ooc_core::{DiskModel, StrategyKind};
use phylo_ooc::args::{Args, Flag, METRICS, QUICK};
use phylo_ooc::plf::{EngineSpec, Residency};
use phylo_ooc::run::MetricsFile;
use phylo_ooc::setup::{self, DatasetSpec};
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
        Flag::text("profile", "", "EngineSpec TOML adding an ooc-tuned column"),
        Flag::int_q("taxa", 1024, 256, "part 1: taxa"),
        Flag::int_q("budget-mib", 64, 8, "part 1: RAM budget"),
        Flag::int_q("model-taxa", 8192, 1024, "part 2: taxa"),
        Flag::float("model-ram-gb", 1.0, "part 2: out-of-core -L budget"),
        Flag::float("model-machine-gb", 2.0, "part 2: machine RAM (paging)"),
        Flag::text("out-real", "fig5_real_results.json", "part 1 JSON"),
        Flag::text("out-model", "fig5_model_results.json", "part 2 JSON"),
        METRICS,
    ],
    positional: None,
    run,
};

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
    let metrics = MetricsFile::from_args(args);
    let dir = tempfile::tempdir().expect("tempdir");

    if !args.flag("skip-real") {
        real_scaled_runs(args, traversals, &metrics, dir.path());
    }
    if !args.flag("skip-model") {
        modeled_paper_scale(args, traversals);
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
    /// `--profile FILE` cell: the tuned spec's axes (strategy, shards,
    /// pipelining, compression) at this cell's RAM budget.
    ooc_tuned_secs: Option<f64>,
    lnl: f64,
}

/// Part 1: real I/O at scaled-down geometry.
fn real_scaled_runs(args: &Args, traversals: usize, metrics: &MetricsFile, dir: &Path) {
    // Sites follow from the data/RAM ratio of each point.
    let n_taxa = args.usize("taxa");
    let budget = args.u64("budget-mib") * 1024 * 1024;
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
        let data = setup::simulate_dataset(&DatasetSpec {
            n_taxa,
            n_sites,
            seed: 8192,
            ..Default::default()
        });
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
