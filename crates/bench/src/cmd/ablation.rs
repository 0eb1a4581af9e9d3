//! **Ablations** beyond the paper's figures, one arm per question
//! (`ooc-bench ablation <arm>`):
//!
//! * `writeback` (A5, design choice in §3.2/3.3) — the paper swaps
//!   unconditionally (every eviction writes the victim to the file); this
//!   implementation adds dirty tracking as an option. The arm quantifies
//!   the write traffic the paper's policy costs on a search workload,
//!   where many evicted vectors were only read.
//! * `mcmc` (A6, §5) — the paper claims its concepts "can be applied to
//!   all PLF-based programs (ML and Bayesian)". MCMC proposals are random
//!   rather than locality-guided, so this is the adversarial workload for
//!   the replacement strategies: miss rates rise for everyone, but the
//!   ordering and the exactness guarantee must survive.

use super::{dataset, Command};
use crate::cell::{run_cell, CellInput};
use crate::report::{pct, print_table};
use crate::workload::{all_strategies, run_search_workload, WorkloadSpec};
use ooc_core::{OocConfig, StrategyKind};
use phylo_ooc::args::{Args, Flag, METRICS, QUICK};
use phylo_ooc::plf::{EngineSpec, Residency};
use phylo_ooc::run::MetricsFile;
use phylo_ooc::search::{run_mcmc, McmcConfig};
use phylo_ooc::setup;
use rayon::prelude::*;

pub const WRITEBACK: Command = Command {
    name: "ablation writeback",
    about: "A5: unconditional swap (paper) vs dirty tracking",
    flags: &[
        QUICK,
        Flag::int_q("taxa", 640, 160, "taxa of the simulated dataset"),
        Flag::int_q("sites", 1000, 300, "alignment sites"),
        Flag::int("seed", 77, "dataset seed"),
        Flag::int("radius", 5, "SPR rearrangement radius"),
        METRICS,
    ],
    positional: None,
    run: writeback,
};

fn writeback(args: &Args) -> Result<(), String> {
    let data = dataset(args);
    let workload = WorkloadSpec {
        spr_rounds: 1,
        radius: args.usize("radius") as u32,
        ..Default::default()
    };
    println!(
        "A5 write-back ablation: search workload on {} taxa, f = 0.25\n",
        data.tree.n_tips()
    );

    let metrics = MetricsFile::from_args(args);
    let rows: Vec<_> = [
        ("unconditional swap (paper)", "unconditional", true),
        ("dirty tracking", "dirty-tracking", false),
    ]
    .into_iter()
    .map(|(label, scope, always)| {
        let cfg = OocConfig::builder(data.n_items(), data.width(0))
            .fraction(0.25)
            .always_write_back(always)
            .build()
            .expect("valid out-of-core config");
        let rec = metrics
            .recorder(format!("writeback/{scope}"))
            .expect("metrics stream");
        let r = run_search_workload(&data, cfg, StrategyKind::Lru, &workload, rec.as_ref());
        (label, r)
    })
    .collect();
    assert_eq!(
        rows[0].1.lnl.to_bits(),
        rows[1].1.lnl.to_bits(),
        "policies must not change results"
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, r)| {
            vec![
                (*label).to_owned(),
                r.misses.to_string(),
                pct(r.miss_rate),
                r.disk_reads.to_string(),
                r.disk_writes.to_string(),
            ]
        })
        .collect();
    print_table(
        &["policy", "misses", "miss rate", "reads", "writes"],
        &table,
    );

    let saved = 1.0 - rows[1].1.disk_writes as f64 / rows[0].1.disk_writes.max(1) as f64;
    println!(
        "\ndirty tracking eliminates {:.1}% of eviction writes at identical\n\
         results and identical miss rate — a cheap improvement over the\n\
         paper's unconditional swap, complementary to read skipping.",
        saved * 100.0
    );
    Ok(())
}

pub const MCMC: Command = Command {
    name: "ablation mcmc",
    about: "A6: miss rates under a Bayesian (MCMC) workload",
    flags: &[
        QUICK,
        Flag::int_q("taxa", 256, 64, "taxa of the simulated dataset"),
        Flag::int_q("sites", 600, 200, "alignment sites"),
        Flag::int("seed", 31, "dataset seed"),
        Flag::int_q("iterations", 4000, 1000, "MCMC iterations"),
        METRICS,
    ],
    positional: None,
    run: mcmc,
};

fn mcmc(args: &Args) -> Result<(), String> {
    let data = dataset(args);
    let cfg = McmcConfig {
        iterations: args.usize("iterations"),
        seed: 77,
        ..Default::default()
    };
    println!(
        "A6 MCMC workload: {} iterations on {} taxa, f = 0.25\n",
        cfg.iterations,
        data.tree.n_tips()
    );

    // Reference chain.
    let mut standard = setup::inram_engine(&data);
    let reference = run_mcmc(&mut standard, &cfg).expect("in-RAM MCMC failed");

    let metrics = MetricsFile::from_args(args);
    let input = CellInput::dataset(&data);
    let run_one = |&kind: &StrategyKind| {
        let ooc_spec = EngineSpec {
            residency: Residency::OocMem { fraction: 0.25 },
            strategy: kind,
            ..setup::base_spec(&data)
        };
        let mut accepted = 0;
        let scope = format!("mcmc/{}", kind.label());
        let cell = run_cell(&ooc_spec, &input, None, &scope, &metrics, |engine| {
            let chain = run_mcmc(engine, &cfg).expect("OOC MCMC failed");
            accepted = chain.accepted;
            chain.final_log_posterior
        });
        assert_eq!(
            cell.value.to_bits(),
            reference.final_log_posterior.to_bits(),
            "chain must be identical ({})",
            kind.label()
        );
        let m = cell.stats.expect("managed engine keeps stats");
        vec![
            kind.label().to_owned(),
            pct(m.miss_rate()),
            pct(m.read_rate()),
            m.requests.to_string(),
            accepted.to_string(),
        ]
    };
    // One shared JSONL stream means the cells must not interleave.
    let strategies = all_strategies();
    let rows: Vec<Vec<String>> = if metrics.enabled() {
        strategies.iter().map(run_one).collect()
    } else {
        strategies.par_iter().map(run_one).collect()
    };

    print_table(
        &["strategy", "miss rate", "read rate", "requests", "accepted"],
        &rows,
    );
    println!(
        "\nall chains bit-identical to the standard run (final log-posterior\n\
         {:.4}); compare the miss rates with Figure 2's ML-search numbers to\n\
         see the locality gap between hill climbing and random proposals.",
        reference.final_log_posterior
    );
    Ok(())
}
