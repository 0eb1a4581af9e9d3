//! **E5 — correctness table (§4.1)**: for every replacement strategy and
//! memory fraction, both a likelihood evaluation and a complete tree
//! search must produce results bit-identical to the standard
//! implementation. "For each run, we verified that the standard version
//! and the out-of-core version produced exactly the same results."

use super::{dataset, Command};
use crate::cell::{run_cell, CellInput};
use crate::report::print_table;
use ooc_core::StrategyKind;
use phylo_ooc::args::{Args, Flag, METRICS};
use phylo_ooc::plf::{EngineSpec, LikelihoodEngine, Residency};
use phylo_ooc::run::MetricsFile;
use phylo_ooc::search::{hill_climb, SearchConfig};
use phylo_ooc::setup;
use phylo_ooc::tree::write_newick;

pub const CORRECTNESS: Command = Command {
    name: "correctness",
    about: "E5: every strategy x f bit-identical to the standard run",
    flags: &[
        Flag::int("taxa", 32, "taxa of the simulated dataset"),
        Flag::int("sites", 250, "alignment sites"),
        Flag::int("seed", 41, "dataset seed"),
        METRICS,
    ],
    positional: None,
    run,
};

fn run(args: &Args) -> Result<(), String> {
    let data = dataset(args);
    let search_cfg = SearchConfig {
        spr_radius: 3,
        max_rounds: 1,
        optimize_model: true,
        seed: 2,
        ..Default::default()
    };
    let names = data.comp().alignment.names().to_vec();
    // One arm of the table: evaluate, search, and report what came out.
    fn arm<E: LikelihoodEngine>(
        engine: &mut E,
        cfg: &SearchConfig,
        names: &[String],
    ) -> (f64, f64, String) {
        let eval = engine.log_likelihood().expect("evaluation failed");
        let search = hill_climb(engine, cfg).expect("search failed");
        (eval, search.final_lnl, write_newick(engine.tree(), names))
    }

    eprintln!("reference run (standard implementation)...");
    let (eval_ref, search_ref, tree_ref) =
        arm(&mut setup::inram_engine(&data), &search_cfg, &names);

    let strategies = [
        StrategyKind::Random { seed: 3 },
        StrategyKind::Lru,
        StrategyKind::Lfu,
        StrategyKind::Topological,
        StrategyKind::NextUse,
    ];
    let metrics = MetricsFile::from_args(args);
    let input = CellInput::dataset(&data);
    let mut rows = Vec::new();
    let mut all_pass = true;
    for kind in strategies {
        for f in [0.25, 0.5, 0.75] {
            eprintln!("checking {} f={f}...", kind.label());
            let ooc_spec = EngineSpec {
                residency: Residency::OocMem { fraction: f },
                strategy: kind,
                ..setup::base_spec(&data)
            };
            let scope = format!("correctness/{}/f{f:.2}", kind.label());
            let mut outcome = None;
            run_cell(&ooc_spec, &input, None, &scope, &metrics, |engine| {
                let (eval, search, tree) = arm(engine, &search_cfg, &names);
                outcome = Some((eval, search, tree));
                search
            });
            let (eval, search, tree) = outcome.expect("the cell ran its workload");
            let eval_ok = eval.to_bits() == eval_ref.to_bits();
            let search_ok = search.to_bits() == search_ref.to_bits();
            let tree_ok = tree == tree_ref;
            all_pass &= eval_ok && search_ok && tree_ok;
            let mark = |ok: bool| if ok { "PASS" } else { "FAIL" }.to_owned();
            rows.push(vec![
                kind.label().to_owned(),
                format!("{f:.2}"),
                format!("{eval:.6}"),
                mark(eval_ok),
                mark(search_ok),
                mark(tree_ok),
            ]);
        }
    }

    println!(
        "\nE5 — exact-equality verification, n = {} taxa, reference lnl {eval_ref:.6}\n",
        data.tree.n_tips()
    );
    print_table(
        &[
            "strategy",
            "f",
            "lnl (eval)",
            "eval",
            "search lnl",
            "final tree",
        ],
        &rows,
    );
    if !all_pass {
        return Err("FAILURES detected — see table.".into());
    }
    println!("\nALL CONFIGURATIONS BIT-IDENTICAL to the standard implementation.");
    Ok(())
}
