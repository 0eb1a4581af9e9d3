//! `phylo-ooc` — command-line front end for out-of-core phylogenetic
//! likelihood analyses, in the spirit of the paper's modified RAxML:
//!
//! ```text
//! phylo-ooc simulate   --taxa 256 --sites 2000 --out data.phy --tree-out true.nwk
//! phylo-ooc likelihood --alignment data.phy --tree true.nwk --memory 64M
//! phylo-ooc search     --alignment data.phy --memory 25% --strategy lru --out best.nwk
//! ```
//!
//! `--memory` is the paper's `-L` flag: either an absolute slot budget
//! (`64M`, `1G`, raw bytes) or a fraction of the full vector set (`25%`).
//! Omitting it runs the standard all-in-RAM implementation.

use phylo_ooc::args::{self, Args, Command, Flag};
use phylo_ooc::models::{DiscreteGamma, ReversibleModel};
use phylo_ooc::ooc::{CompressionMode, OocError, Recorder, StrategyKind};
use phylo_ooc::plf::{DynEngine, EngineSpec, LikelihoodEngine, Residency};
use phylo_ooc::run::{self, Job, MetricsFile, Run};
use phylo_ooc::search::{hill_climb_observed, parsimony_stepwise_tree, SearchConfig};
use phylo_ooc::seq::phylip::{read_phylip_raw, write_phylip, PhylipError};
use phylo_ooc::seq::{
    compress_patterns, simulate_alignment, Alignment, CompressedAlignment, PartitionKind,
    PartitionSpec,
};
use phylo_ooc::setup::{self, Dataset, Part};
use phylo_ooc::tree::build::{random_topology, yule_like_lengths};
use phylo_ooc::tree::{parse_newick, write_newick};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::PathBuf;

const PROTEIN: Flag = Flag::switch("protein", "20-state protein data instead of DNA");

/// The flags `likelihood` and `search` share — the data, the engine axes
/// and the reports — followed by the command's own.
macro_rules! analysis_flags {
    ($($own:expr),* $(,)?) => {
        &[
            Flag::text("alignment", "", "PHYLIP alignment (required)"),
            Flag::text("tree", "", "Newick tree; search builds a parsimony start without one"),
            PROTEIN,
            Flag::text("partitions", "", "RAxML-style partition file; requires --tree"),
            Flag::text("memory", "", "slot RAM (-L): bytes, 64M, 1G, or 25% of all vectors [all]"),
            Flag::text("strategy", "lru", "rand | lru | lfu | topo | nextuse"),
            Flag::int("shards", 1, "pattern-parallel shards per partition (1 = inline)"),
            Flag::text("profile", "", "TOML engine profile; overrides the other engine flags"),
            Flag::text("vector-file", "", "where evicted vectors go during the run [a temp file]"),
            Flag::float("alpha", 0.8, "Gamma shape; search optimises it unless given"),
            Flag::int("seed", 42, "RNG seed"),
            Flag::int("io-threads", 0, "write-behind I/O workers (0 = synchronous write-back)"),
            Flag::text("compression", "", "none | exp (bit-exact); needs --memory"),
            Flag::switch("stats", "print out-of-core statistics"),
            args::METRICS,
            $($own),*
        ]
    };
}

const COMMANDS: [&Command; 4] = [
    &Command {
        name: "memsize",
        about: "§3.1 memory arithmetic: ancestral-vector requirements of an analysis",
        flags: &[
            Flag::int("taxa", 10_000, "number of taxa"),
            Flag::int("sites", 10_000, "alignment length in sites"),
            Flag::int("cats", 4, "Gamma rate categories"),
            PROTEIN,
        ],
        positional: None,
        run: cmd_memsize,
    },
    &Command {
        name: "simulate",
        about: "evolve an alignment on a random tree",
        flags: &[
            Flag::int("taxa", 64, "number of taxa"),
            Flag::int("sites", 1000, "alignment length in sites"),
            Flag::int("seed", 42, "RNG seed"),
            Flag::float("alpha", 0.8, "Gamma shape"),
            PROTEIN,
            Flag::text("out", "", "PHYLIP file to write (required)"),
            Flag::text("tree-out", "", "also write the true tree (Newick)"),
        ],
        positional: None,
        run: cmd_simulate,
    },
    &Command {
        name: "likelihood",
        about: "log-likelihood of a tree, in RAM or out-of-core",
        flags: analysis_flags![],
        positional: None,
        run: cmd_likelihood,
    },
    &Command {
        name: "search",
        about: "lazy-SPR hill-climbing tree search",
        flags: analysis_flags![
            Flag::int("radius", 5, "SPR rearrangement radius"),
            Flag::int("rounds", 8, "max SPR rounds"),
            Flag::text("out", "", "write the best tree (Newick)"),
        ],
        positional: None,
        run: cmd_search,
    },
];

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let about = "out-of-core phylogenetic likelihood analyses";
    std::process::exit(args::run("phylo-ooc", about, &COMMANDS, &tokens));
}

/// A text flag that must be given.
fn require(args: &Args, key: &str) -> Result<String, String> {
    text(args, key).ok_or_else(|| format!("missing --{key}"))
}

/// A text flag, `None` when absent.
fn text(args: &Args, key: &str) -> Option<String> {
    Some(args.string(key)).filter(|v| !v.is_empty())
}

/// `--memory`: absolute bytes (a `-L` budget) or a fraction of the full
/// vector set, both over a vector file; absent = all in RAM.
fn parse_memory(spec: &str) -> Result<Residency, String> {
    if spec.is_empty() {
        return Ok(Residency::InRam);
    }
    if let Some(pct) = spec.strip_suffix('%') {
        let f: f64 = pct.parse().map_err(|_| format!("bad --memory {spec:?}"))?;
        return Ok(Residency::File {
            fraction: f / 100.0,
        });
    }
    let (digits, mult) = match spec.as_bytes().last() {
        Some(b'K' | b'k') => (&spec[..spec.len() - 1], 1u64 << 10),
        Some(b'M' | b'm') => (&spec[..spec.len() - 1], 1 << 20),
        Some(b'G' | b'g') => (&spec[..spec.len() - 1], 1 << 30),
        _ => (spec, 1),
    };
    let limit_bytes = digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("bad --memory {spec:?}"))?;
    Ok(Residency::FileLimit { limit_bytes })
}

/// §3.1 memory arithmetic: ancestral-vector requirements for an analysis.
fn cmd_memsize(args: &Args) -> Result<(), String> {
    let n = args.usize("taxa");
    let s = args.usize("sites");
    let cats = args.usize("cats");
    let states = if args.flag("protein") { 20 } else { 4 };
    if n < 3 {
        return Err("need at least 3 taxa".into());
    }
    let per_vector = s as u64 * states as u64 * cats as u64 * 8;
    let n_vectors = (n - 2) as u64;
    let total = per_vector * n_vectors;
    let human = |b: u64| -> String {
        if b >= 1 << 30 {
            format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
        } else if b >= 1 << 20 {
            format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
        } else {
            format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64)
        }
    };
    println!(
        "ancestral probability vectors for n = {n} taxa, s = {s} sites, {states}-state model, Γ{cats}:"
    );
    println!(
        "  per vector : {} ({} doubles)",
        human(per_vector),
        s * states * cats
    );
    println!("  vectors    : {n_vectors}");
    println!("  total      : {}", human(total));
    println!(
        "\nwith --memory {} the out-of-core engine would keep 25% of the",
        human(total / 4).replace(' ', "")
    );
    println!("vectors in RAM and stream the rest from disk.");
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let n_taxa = args.usize("taxa");
    let n_sites = args.usize("sites");
    let seed = args.u64("seed");
    let out = require(args, "out")?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = random_topology(n_taxa, 0.1, &mut rng);
    yule_like_lengths(&mut tree, 0.12, 1e-5, &mut rng);
    // `--protein` evolves 20-state data (the alphabet follows the model's
    // state count); the default is the paper's DNA setting.
    let model = if args.flag("protein") {
        phylo_ooc::models::protein::synthetic_protein(seed)
    } else {
        ReversibleModel::hky85(2.5, &[0.3, 0.2, 0.2, 0.3])
    };
    let gamma = DiscreteGamma::new(args.f64("alpha"), 4);
    let aln = simulate_alignment(&tree, &model, &gamma, n_sites, &mut rng);
    let mut w = BufWriter::new(File::create(&out).map_err(|e| e.to_string())?);
    write_phylip(&mut w, &aln).map_err(|e| e.to_string())?;
    eprintln!("wrote {n_taxa} x {n_sites} alignment to {out}");
    if let Some(tree_out) = text(args, "tree-out") {
        let names: Vec<String> = aln.names().to_vec();
        std::fs::write(&tree_out, write_newick(&tree, &names)).map_err(|e| e.to_string())?;
        eprintln!("wrote true tree to {tree_out}");
    }
    Ok(())
}

/// The default model for an alignment's alphabet: HKY85 with empirical
/// base frequencies for DNA, Poisson for protein, GY94 with uniform codon
/// frequencies for codon data.
fn default_model(comp: &CompressedAlignment) -> ReversibleModel {
    match comp.alignment.alphabet().n_states() {
        4 => {
            let f = comp.alignment.empirical_freqs();
            ReversibleModel::hky85(2.5, &[f[0], f[1], f[2], f[3]])
        }
        20 => phylo_ooc::models::protein::poisson(),
        _ => phylo_ooc::models::codon::gy94_uniform(2.0, 0.5),
    }
}

/// Load the analysis: raw alignment rows, reordered to the tree's tip ids
/// (sequence `i` belongs to tip `i`), then encoded whole — DNA, or
/// 20-state under `--protein` — or, under `--partitions`, each
/// partition's column slice under its own alphabet. Returns the dataset
/// and the tip names in tip order.
fn load_dataset(args: &Args, spec: &EngineSpec) -> Result<(Dataset, Vec<String>), String> {
    let kind = if args.flag("protein") {
        PartitionKind::Protein
    } else {
        PartitionKind::Dna
    };
    let aln_path = require(args, "alignment")?;
    let file = File::open(&aln_path).map_err(|e| format!("{aln_path}: {e}"))?;
    let entries = read_phylip_raw(BufReader::new(file)).map_err(|e| e.to_string())?;
    let encode = |rows: &[(String, String)]| {
        Alignment::from_chars(kind.alphabet(), rows).map_err(|e| PhylipError::from(e).to_string())
    };
    let partitions = match text(args, "partitions") {
        None => None,
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            Some(PartitionSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        }
    };

    let (tree, names) = match text(args, "tree") {
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            parse_newick(&text).map_err(|e| e.to_string())?
        }
        // The parsimony starting tree is built from a single-alphabet
        // alignment.
        None if partitions.is_some() => {
            return Err("--partitions requires --tree (no parsimony start for mixed data)".into())
        }
        None => {
            // RAxML-style start: randomized stepwise addition under
            // parsimony (cap candidate branches to keep it O(n^2)).
            let mut rng = StdRng::seed_from_u64(args.u64("seed"));
            let comp = compress_patterns(&encode(&entries)?);
            let tree = parsimony_stepwise_tree(&comp, 0.1, 40, &mut rng);
            eprintln!("no --tree given: built a randomized parsimony starting tree");
            (tree, entries.iter().map(|(name, _)| name.clone()).collect())
        }
    };
    if tree.n_tips() != entries.len() {
        return Err(format!(
            "tree has {} tips but alignment has {} sequences",
            tree.n_tips(),
            entries.len()
        ));
    }
    let index: HashMap<&str, usize> = entries
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (n.as_str(), i))
        .collect();
    let mut reordered = Vec::with_capacity(names.len());
    for name in &names {
        let &row = index
            .get(name.as_str())
            .ok_or_else(|| format!("tip {name:?} not found in the alignment"))?;
        reordered.push((name.clone(), entries[row].1.clone()));
    }

    let part = |name: String, kind, aln: &Alignment| {
        let comp = compress_patterns(aln);
        let model = default_model(&comp);
        Part {
            name,
            kind,
            comp,
            model,
        }
    };
    let parts = match &partitions {
        None => vec![part(String::new(), kind, &encode(&reordered)?)],
        Some(pspec) => pspec
            .partitions
            .iter()
            .zip(pspec.split_chars(&reordered).map_err(|e| e.to_string())?)
            .map(|(def, aln)| part(def.name.clone(), def.kind, &aln))
            .collect(),
    };
    let data = Dataset {
        tree,
        parts,
        alpha: spec.alpha,
        n_cats: spec.n_cats,
    };
    Ok((data, names))
}

/// Resolve the engine configuration for this invocation: a TOML
/// `--profile` verbatim, or an [`EngineSpec`] assembled from the
/// individual axis flags (`--memory` → residency, `--strategy`,
/// `--shards`, `--io-threads`, `--compression`, `--alpha`).
fn cli_spec(args: &Args) -> Result<EngineSpec, String> {
    if let Some(path) = text(args, "profile") {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        return EngineSpec::from_toml(&text).map_err(|e| e.to_string());
    }
    let compression = match args.string("compression").as_str() {
        "" | "none" => None,
        name => Some(
            CompressionMode::from_name(name)
                .ok_or_else(|| format!("bad --compression {name:?}: none | exp"))?,
        ),
    };
    let strategy = args.string("strategy");
    Ok(EngineSpec {
        residency: parse_memory(&args.string("memory"))?,
        strategy: StrategyKind::from_name(&strategy, args.u64("seed"))
            .ok_or_else(|| format!("unknown strategy {strategy:?}"))?,
        shards: args.usize("shards"),
        io_threads: args.usize("io-threads"),
        alpha: args.f64("alpha"),
        n_cats: 4,
        compression,
    })
}

/// The one run behind `likelihood` and `search`: `work` on the engine
/// through [`run::run`], vector files at `--vector-file` (or a
/// per-process scratch path) for the length of the run, one `--metrics`
/// scope per partition — its name under `--partitions`, unscoped for the
/// whole alignment. `work` also gets the first scope's recorder.
fn run_analysis<T>(
    args: &Args,
    spec: &EngineSpec,
    data: &Dataset,
    work: impl FnOnce(&mut Box<dyn DynEngine>, Option<&Recorder>) -> Result<T, OocError>,
) -> Result<Run<T>, String> {
    let metrics = MetricsFile::from_args(args);
    let vector_path = text(args, "vector-file").map_or_else(
        || std::env::temp_dir().join(format!("phylo-ooc-vectors-{}.bin", std::process::id())),
        PathBuf::from,
    );
    let job = Job {
        metrics: &metrics,
        vector_path: Some(vector_path),
        ..Job::new(spec, data)
    };
    run::run(job, |engine, recs| {
        work(engine, recs.first()).map_err(|e| e.to_string())
    })
}

/// `--stats` and, under `--metrics`, each scope's stall attribution of the
/// workload's wall time (compute vs demand-read vs write-back).
fn report<T>(args: &Args, data: &Dataset, run: &Run<T>, stats_label: &str) {
    if let (true, Some(s)) = (args.flag("stats"), &run.stats) {
        eprintln!("{stats_label}{s}");
    }
    for (part, attribution) in data.parts.iter().zip(&run.attribution) {
        if !part.name.is_empty() {
            eprintln!("[{}]", part.name);
        }
        eprintln!("{attribution}");
    }
}

fn cmd_likelihood(args: &Args) -> Result<(), String> {
    let spec = cli_spec(args)?;
    let (data, _) = load_dataset(args, &spec)?;
    // `--partitions` names its blocks and reports each; the whole
    // alignment is one unnamed block.
    let partitioned = !data.parts[0].name.is_empty();
    let run = run_analysis(args, &spec, &data, |engine, _| {
        let lnl = engine.log_likelihood()?;
        let part_lnls = if partitioned {
            engine.partition_lnls()?
        } else {
            Vec::new()
        };
        Ok((lnl, part_lnls, engine.alpha()))
    })?;
    let (lnl, part_lnls, alpha) = &run.value;
    println!("log-likelihood: {lnl:.6}");
    if partitioned {
        for (part, part_lnl) in data.parts.iter().zip(part_lnls) {
            println!("  {}: {part_lnl:.6}", part.name);
        }
    } else {
        println!("alpha = {alpha:.4}");
    }
    let slots = spec
        .slot_counts(&data.tree, &setup::part_specs(&data))
        .map_err(|e| e.to_string())?;
    for (part, slots) in data.parts.iter().zip(slots) {
        let Some(slots) = slots else { continue };
        let who = match part.name.as_str() {
            "" => "out-of-core".to_owned(),
            name => format!("partition {name}"),
        };
        eprintln!("{who}: {slots} of {} vectors in RAM", data.tree.n_inner());
    }
    let label = if partitioned {
        "out-of-core (all partitions): "
    } else {
        ""
    };
    report(args, &data, &run, label);
    Ok(())
}

fn cmd_search(args: &Args) -> Result<(), String> {
    let spec = cli_spec(args)?;
    let (data, names) = load_dataset(args, &spec)?;
    let cfg = SearchConfig {
        spr_radius: args.u64("radius") as u32,
        max_rounds: args.usize("rounds"),
        optimize_model: !args.given("alpha"),
        seed: args.u64("seed"),
        ..Default::default()
    };
    let run = run_analysis(args, &spec, &data, |engine, rec| {
        let stats = hill_climb_observed(engine, &cfg, rec)?;
        Ok((stats, engine.tree().clone()))
    })?;
    let (stats, final_tree) = &run.value;
    println!(
        "search: lnl {:.4} -> {:.4} in {} round(s), {} SPRs applied ({} evaluated), alpha {:.4}",
        stats.initial_lnl,
        stats.final_lnl,
        stats.rounds,
        stats.spr_applied,
        stats.spr_evaluated,
        stats.alpha
    );
    report(args, &data, &run, "out-of-core: ");
    if let Some(out) = text(args, "out") {
        let mut w = BufWriter::new(File::create(&out).map_err(|e| e.to_string())?);
        writeln!(w, "{}", write_newick(final_tree, &names)).map_err(|e| e.to_string())?;
        eprintln!("best tree written to {out}");
    }
    Ok(())
}
