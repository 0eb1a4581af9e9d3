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

use phylo_ooc::models::{DiscreteGamma, ReversibleModel};
use phylo_ooc::ooc::{CompressionMode, Recorder, StrategyKind, DEFAULT_PREFETCH_WINDOW};
use phylo_ooc::plf::{
    BuildContext, EngineSpec, KernelBackend, LikelihoodEngine, PartSpec, Residency,
};
use phylo_ooc::search::{hill_climb_observed, parsimony_stepwise_tree, SearchConfig};
use phylo_ooc::seq::phylip::{read_phylip, read_phylip_raw, write_phylip};
use phylo_ooc::seq::{
    compress_patterns, simulate_alignment, Alignment, Alphabet, CompressedAlignment, PartitionSpec,
};
use phylo_ooc::tree::build::{random_topology, yule_like_lengths};
use phylo_ooc::tree::{parse_newick, write_newick, Tree};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "memsize" => cmd_memsize(&opts),
        "simulate" => cmd_simulate(&opts),
        "likelihood" => cmd_likelihood(&opts),
        "search" => cmd_search(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
phylo-ooc — out-of-core phylogenetic likelihood analyses

USAGE:
  phylo-ooc memsize    --taxa N --sites N [--protein] [--cats K]
  phylo-ooc simulate   --taxa N --sites N [--protein] [--seed S] --out FILE [--tree-out FILE]
  phylo-ooc likelihood --alignment FILE --tree FILE [--protein] [options]
  phylo-ooc search     --alignment FILE [--tree FILE] [--protein] [--out FILE] [options]

  --protein reads/evolves 20-state data (Poisson model; simulate uses a
  seeded synthetic reversible model); the default alphabet is DNA.

OPTIONS:
  --memory SPEC     slot memory: bytes (67108864), suffixed (64M, 1G) or
                    a fraction of all vectors (25%); omit = all in RAM
  --partitions F    RAxML-style partition file (likelihood only): lines
                    like \"DNA, gene1 = 1-400\" / \"PROT, gene2 = 401-600\"
                    / \"CODON, gene3 = 601-720\"; each partition gets its
                    own model + access plan on one shared tree, and an
                    absolute --memory budget is split across partitions
                    proportionally to their vector footprints
  --strategy NAME   rand | lru | lfu | topo | nextuse [default: lru]
  --shards N        pattern-parallel shards per partition, with or
                    without --memory (1 = inline, no threads) [default: 1]
  --profile FILE    load the engine configuration from a TOML profile
                    (see `EngineSpec::to_toml`; overrides --memory,
                    --strategy, --shards, --io-threads, --window,
                    --kernel and --alpha)
  --vector-file F   backing file for evicted vectors [default: temp file]
  --alpha A         Gamma shape                       [default: optimize/0.8]
  --radius R        SPR rearrangement radius          [default: 5]
  --rounds K        max SPR rounds                    [default: 8]
  --seed S          RNG seed                          [default: 42]
  --kernel NAME     likelihood kernel backend: scalar | generic | dna4 | avx2
                    [default: auto-detect; env OOC_PLF_KERNEL overrides]
  --io-threads N    dedicated I/O workers streaming the access plan ahead
                    of compute (plan-driven double-buffered prefetch);
                    0 = synchronous I/O on the compute thread [default: 0]
  --window W        plan lookahead window in vectors, per pipeline buffer
                    (also drives hint-based prefetch)       [default: 16]
  --compression M   APV compression behind the backing store:
                    none | exp (shared-exponent, bit-exact) | exp-f32
                    (f32 mantissas, error-bounded); needs an out-of-core
                    residency (--memory)                [default: none]
  --stats           print out-of-core statistics
  --metrics FILE    write a JSONL observability stream (per-op latency
                    events, histograms, counters) and print a stall
                    attribution (compute vs demand-read vs write-back)";

struct Opts {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Opts {
    fn parse(tokens: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {tok:?}"))?;
            if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                values.insert(key.to_owned(), tokens[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_owned());
                i += 1;
            }
        }
        Ok(Opts { values, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        }
    }

    fn u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        }
    }

    fn f64_opt(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad --{key} {v:?}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// Memory budget: absolute bytes or fraction of the full vector set.
enum MemorySpec {
    All,
    Bytes(u64),
    Fraction(f64),
}

fn parse_memory(spec: Option<&str>) -> Result<MemorySpec, String> {
    let Some(spec) = spec else {
        return Ok(MemorySpec::All);
    };
    if let Some(pct) = spec.strip_suffix('%') {
        let f: f64 = pct.parse().map_err(|_| format!("bad --memory {spec:?}"))?;
        return Ok(MemorySpec::Fraction(f / 100.0));
    }
    let (digits, mult) = match spec.as_bytes().last() {
        Some(b'K' | b'k') => (&spec[..spec.len() - 1], 1u64 << 10),
        Some(b'M' | b'm') => (&spec[..spec.len() - 1], 1 << 20),
        Some(b'G' | b'g') => (&spec[..spec.len() - 1], 1 << 30),
        _ => (spec, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad --memory {spec:?}"))?;
    Ok(MemorySpec::Bytes(n * mult))
}

fn parse_strategy(name: Option<&str>, seed: u64) -> Result<StrategyKind, String> {
    let name = name.unwrap_or("lru");
    StrategyKind::from_name(name, seed).ok_or_else(|| format!("unknown strategy {name:?}"))
}

/// §3.1 memory arithmetic: ancestral-vector requirements for an analysis.
fn cmd_memsize(opts: &Opts) -> Result<(), String> {
    let n = opts.usize("taxa", 10_000)?;
    let s = opts.usize("sites", 10_000)?;
    let cats = opts.usize("cats", 4)?;
    let states = if opts.flag("protein") { 20 } else { 4 };
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

fn cmd_simulate(opts: &Opts) -> Result<(), String> {
    let n_taxa = opts.usize("taxa", 64)?;
    let n_sites = opts.usize("sites", 1000)?;
    let seed = opts.u64("seed", 42)?;
    let out = opts.require("out")?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = random_topology(n_taxa, 0.1, &mut rng);
    yule_like_lengths(&mut tree, 0.12, 1e-5, &mut rng);
    // `--protein` evolves 20-state data (the alphabet follows the model's
    // state count); the default is the paper's DNA setting.
    let model = if opts.flag("protein") {
        phylo_ooc::models::protein::synthetic_protein(seed)
    } else {
        ReversibleModel::hky85(2.5, &[0.3, 0.2, 0.2, 0.3])
    };
    let gamma = DiscreteGamma::new(opts.f64_opt("alpha")?.unwrap_or(0.8), 4);
    let aln = simulate_alignment(&tree, &model, &gamma, n_sites, &mut rng);
    let mut w = BufWriter::new(File::create(out).map_err(|e| e.to_string())?);
    write_phylip(&mut w, &aln).map_err(|e| e.to_string())?;
    eprintln!("wrote {n_taxa} x {n_sites} alignment to {out}");
    if let Some(tree_out) = opts.get("tree-out") {
        let names: Vec<String> = aln.names().to_vec();
        std::fs::write(tree_out, write_newick(&tree, &names)).map_err(|e| e.to_string())?;
        eprintln!("wrote true tree to {tree_out}");
    }
    Ok(())
}

/// Load alignment + tree, reordering alignment rows to the tree's tip ids.
/// `--protein` reads 20-state data; the default alphabet is DNA.
fn load_inputs(opts: &Opts) -> Result<(Tree, CompressedAlignment), String> {
    let alphabet = if opts.flag("protein") {
        Alphabet::Protein
    } else {
        Alphabet::Dna
    };
    let aln_path = opts.require("alignment")?;
    let file = File::open(aln_path).map_err(|e| format!("{aln_path}: {e}"))?;
    let aln = read_phylip(BufReader::new(file), alphabet).map_err(|e| e.to_string())?;

    let (tree, names) = match opts.get("tree") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse_newick(&text).map_err(|e| e.to_string())?
        }
        None => {
            // RAxML-style start: randomized stepwise addition under
            // parsimony (cap candidate branches to keep it O(n^2)).
            let seed = opts.u64("seed", 42)?;
            let mut rng = StdRng::seed_from_u64(seed);
            let comp = compress_patterns(&aln);
            let tree = parsimony_stepwise_tree(&comp, 0.1, 40, &mut rng);
            eprintln!("no --tree given: built a randomized parsimony starting tree");
            (tree, aln.names().to_vec())
        }
    };
    if tree.n_tips() != aln.n_seqs() {
        return Err(format!(
            "tree has {} tips but alignment has {} sequences",
            tree.n_tips(),
            aln.n_seqs()
        ));
    }
    // Reorder alignment rows so sequence i belongs to tree tip i.
    let index: HashMap<&str, usize> = aln
        .names()
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut entries = Vec::with_capacity(names.len());
    for name in &names {
        let &row = index
            .get(name.as_str())
            .ok_or_else(|| format!("tip {name:?} not found in the alignment"))?;
        entries.push((name.clone(), aln.seq_chars(row)));
    }
    let reordered = Alignment::from_chars(alphabet, &entries).map_err(|e| e.to_string())?;
    Ok((tree, compress_patterns(&reordered)))
}

/// Default scratch location for the evicted-vector file (one per process;
/// best-effort cleaned up by [`cleanup_scratch`]).
fn scratch_vector_path() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("phylo-ooc-vectors-{}.bin", std::process::id()))
}

/// Remove the default scratch file, if it was created.
fn cleanup_scratch() {
    let _ = std::fs::remove_file(scratch_vector_path());
}

/// Parse `--kernel`; `None` keeps the auto-detected backend (which the
/// `OOC_PLF_KERNEL` environment variable can still override).
fn parse_kernel(opts: &Opts) -> Result<Option<KernelBackend>, String> {
    match opts.get("kernel") {
        None => Ok(None),
        Some(name) => name.parse().map(Some),
    }
}

/// Resolve the engine configuration for this invocation: a TOML
/// `--profile` verbatim, or an [`EngineSpec`] assembled from the
/// individual axis flags (`--memory` → residency, `--strategy`,
/// `--shards`, `--io-threads`, `--window`, `--kernel`, `--alpha`).
fn cli_spec(opts: &Opts, seed: u64) -> Result<EngineSpec, String> {
    if let Some(path) = opts.get("profile") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        return EngineSpec::from_toml(&text).map_err(|e| e.to_string());
    }
    let residency = match parse_memory(opts.get("memory"))? {
        MemorySpec::All => Residency::InRam,
        MemorySpec::Bytes(b) => Residency::FileLimit { limit_bytes: b },
        MemorySpec::Fraction(f) => Residency::File { fraction: f },
    };
    // I/O pipelining only applies to file-backed residency; tolerate the
    // flag on an in-RAM run the way the pre-spec CLI did.
    let io_threads = if matches!(residency, Residency::InRam) {
        0
    } else {
        opts.usize("io-threads", 0)?
    };
    let compression = match opts.get("compression") {
        None | Some("none") => None,
        Some(name) => Some(
            CompressionMode::from_name(name)
                .ok_or_else(|| format!("bad --compression {name:?}: none | exp | exp-f32"))?,
        ),
    };
    Ok(EngineSpec {
        residency,
        strategy: parse_strategy(opts.get("strategy"), seed)?,
        shards: opts.usize("shards", 1)?,
        io_threads,
        window: opts.usize("window", DEFAULT_PREFETCH_WINDOW)?,
        kernel: parse_kernel(opts)?,
        alpha: opts.f64_opt("alpha")?.unwrap_or(0.8),
        n_cats: 4,
        compression,
        ..EngineSpec::default()
    })
}

/// The vector file for evicted slots: `--vector-file`, or the process
/// scratch path.
fn vector_file(opts: &Opts) -> std::path::PathBuf {
    match opts.get("vector-file") {
        Some(p) => std::path::PathBuf::from(p),
        None => scratch_vector_path(),
    }
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

/// Build the optional JSONL observability recorder from `--metrics`.
fn make_recorder(opts: &Opts) -> Result<Option<Recorder>, String> {
    match opts.get("metrics") {
        None => Ok(None),
        Some(path) => Recorder::jsonl(path)
            .map(Some)
            .map_err(|e| format!("cannot create metrics file '{path}': {e}")),
    }
}

/// Close out a recorder: emit final counters, dump the per-op latency
/// histograms to the JSONL stream, and print a stall attribution of the
/// elapsed wall time to stderr.
fn finish_recorder(
    rec: &Recorder,
    t0: u64,
    stats: Option<&phylo_ooc::ooc::OocStats>,
) -> Result<(), String> {
    if let Some(s) = stats {
        rec.emit_stats(s);
    }
    let wall = rec.now().saturating_sub(t0);
    eprintln!("{}", rec.attribution(wall));
    rec.finish()
        .map_err(|e| format!("cannot write metrics: {e}"))
}

/// Load a partition spec plus the mixed-alphabet alignment it describes:
/// rows are read as raw characters, reordered to the tree's tip order, and
/// each partition's column slice is encoded under its own alphabet.
fn load_partitioned_inputs(
    opts: &Opts,
    spec_path: &str,
) -> Result<(Tree, PartitionSpec, Vec<CompressedAlignment>), String> {
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = PartitionSpec::parse(&text).map_err(|e| format!("{spec_path}: {e}"))?;

    let aln_path = opts.require("alignment")?;
    let file = File::open(aln_path).map_err(|e| format!("{aln_path}: {e}"))?;
    let entries = read_phylip_raw(BufReader::new(file)).map_err(|e| e.to_string())?;

    // A partitioned run needs an explicit tree: the parsimony starting
    // tree is built from a single-alphabet alignment.
    let tree_path = opts
        .get("tree")
        .ok_or("--partitions requires --tree (no parsimony start for mixed data)")?;
    let text = std::fs::read_to_string(tree_path).map_err(|e| format!("{tree_path}: {e}"))?;
    let (tree, names) = parse_newick(&text).map_err(|e| e.to_string())?;
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
    let comps = spec
        .split_chars(&reordered)
        .map_err(|e| e.to_string())?
        .iter()
        .map(compress_patterns)
        .collect();
    Ok((tree, spec, comps))
}

/// `likelihood --partitions FILE`: evaluate a partitioned analysis — one
/// shared tree, one engine per partition — and report the joint and
/// per-partition log-likelihoods. Under `--memory`, an absolute byte
/// budget is split across partitions proportionally to their vector
/// footprints (so a 61-state codon block gets ~15x the slots of an
/// equal-length DNA block); a `%` budget applies per partition. The
/// whole stack is resolved through one [`EngineSpec`].
fn cmd_likelihood_partitioned(opts: &Opts, spec_path: &str) -> Result<(), String> {
    let (tree, pspec, comps) = load_partitioned_inputs(opts, spec_path)?;
    let seed = opts.u64("seed", 42)?;
    let spec = cli_spec(opts, seed)?;
    let names: Vec<String> = pspec.partitions.iter().map(|p| p.name.clone()).collect();
    let models: Vec<ReversibleModel> = comps.iter().map(default_model).collect();
    let parts: Vec<PartSpec<'_>> = names
        .iter()
        .zip(comps.iter().zip(&models))
        .map(|(name, (comp, model))| PartSpec {
            name: name.clone(),
            comp,
            model,
        })
        .collect();

    // One recorder per partition, each with that partition's name as its
    // scope, all appending whole lines to one JSONL file, each headed by
    // the engine profile — `ooc-bench check` then reconciles every
    // partition's residency stack independently.
    let recorders: Option<HashMap<String, Recorder>> = match opts.get("metrics") {
        None => None,
        Some(path) => {
            File::create(path).map_err(|e| format!("cannot create '{path}': {e}"))?;
            let mut map = HashMap::new();
            for name in &names {
                let sink = phylo_ooc::ooc::JsonlSink::append(path)
                    .map_err(|e| format!("cannot open '{path}': {e}"))?;
                let rec =
                    Recorder::scoped(phylo_ooc::ooc::MonotonicClock::new(), sink, name.clone());
                rec.emit_profile(&spec.to_toml());
                map.insert(name.clone(), rec);
            }
            Some(map)
        }
    };

    let vector_path = vector_file(opts);
    let mut ctx = BuildContext::new().vector_path(&vector_path);
    if let Some(recs) = &recorders {
        let map = recs.clone();
        ctx = ctx.recorders(move |name| map[name].clone());
    }
    let built = spec.build(&tree, &parts, &ctx).map_err(|e| e.to_string())?;
    let mut engine = built.engine;

    for (name, slots) in names
        .iter()
        .zip(spec.slot_counts(&tree, &parts).map_err(|e| e.to_string())?)
    {
        if let Some(slots) = slots {
            eprintln!(
                "partition {}: {} of {} vectors in RAM",
                name,
                slots,
                tree.n_inner()
            );
        }
    }
    let t0s: HashMap<String, u64> = recorders
        .iter()
        .flatten()
        .map(|(name, r)| (name.clone(), r.now()))
        .collect();
    let lnl = engine.log_likelihood().map_err(|e| e.to_string())?;
    println!("log-likelihood: {lnl:.6}");
    let per = engine.partition_lnls().map_err(|e| e.to_string())?;
    for (name, part_lnl) in names.iter().zip(&per) {
        println!("  {name}: {part_lnl:.6}");
    }
    if opts.flag("stats") {
        if let Some(s) = engine.ooc_stats() {
            eprintln!("out-of-core (all partitions): {s}");
        }
    }
    if let Some(recs) = &recorders {
        let stats = engine.partition_ooc_stats();
        for (i, name) in names.iter().enumerate() {
            eprintln!("[{name}]");
            finish_recorder(&recs[name], t0s[name], stats[i].as_ref())?;
        }
    }
    drop(engine);
    for i in 0..names.len() {
        let _ = std::fs::remove_file(scratch_vector_path().with_extension(format!("p{i}")));
    }
    Ok(())
}

fn cmd_likelihood(opts: &Opts) -> Result<(), String> {
    if let Some(spec_path) = opts.get("partitions") {
        let spec_path = spec_path.to_owned();
        return cmd_likelihood_partitioned(opts, &spec_path);
    }
    let (tree, comp) = load_inputs(opts)?;
    let seed = opts.u64("seed", 42)?;
    let spec = cli_spec(opts, seed)?;
    let model = default_model(&comp);
    let parts = vec![PartSpec {
        name: String::new(),
        comp: &comp,
        model: &model,
    }];

    let recorder = make_recorder(opts)?;
    if let Some(rec) = &recorder {
        // Head the metrics stream with the exact engine configuration
        // that produced it.
        rec.emit_profile(&spec.to_toml());
    }
    let vector_path = vector_file(opts);
    let mut ctx = BuildContext::new().vector_path(&vector_path);
    if let Some(rec) = &recorder {
        let rec = rec.clone();
        ctx = ctx.recorders(move |_| rec.clone());
    }
    let built = spec.build(&tree, &parts, &ctx).map_err(|e| e.to_string())?;
    let mut engine = built.engine;
    let t0 = recorder.as_ref().map(|r| r.now());
    let lnl = engine.log_likelihood().map_err(|e| {
        cleanup_scratch();
        e.to_string()
    })?;
    println!("log-likelihood: {lnl:.6}");
    println!("alpha = {:.4}", engine.alpha());
    if let Some(Some(slots)) = spec
        .slot_counts(&tree, &parts)
        .map_err(|e| e.to_string())?
        .first()
    {
        eprintln!(
            "out-of-core: {} of {} vectors in RAM",
            slots,
            tree.n_inner()
        );
    }
    if opts.flag("stats") {
        if let Some(s) = engine.ooc_stats() {
            eprintln!("{s}");
        }
    }
    if let (Some(rec), Some(t0)) = (&recorder, t0) {
        finish_recorder(rec, t0, engine.ooc_stats().as_ref())?;
    }
    drop(engine);
    cleanup_scratch();
    Ok(())
}

fn cmd_search(opts: &Opts) -> Result<(), String> {
    let (tree, comp) = load_inputs(opts)?;
    let seed = opts.u64("seed", 42)?;
    let spec = cli_spec(opts, seed)?;
    let model = default_model(&comp);
    let parts = vec![PartSpec {
        name: String::new(),
        comp: &comp,
        model: &model,
    }];
    let cfg = SearchConfig {
        spr_radius: opts.usize("radius", 5)? as u32,
        max_rounds: opts.usize("rounds", 8)?,
        optimize_model: opts.f64_opt("alpha")?.is_none(),
        seed,
        ..Default::default()
    };

    let recorder = make_recorder(opts)?;
    if let Some(rec) = &recorder {
        rec.emit_profile(&spec.to_toml());
    }
    let vector_path = vector_file(opts);
    let mut ctx = BuildContext::new().vector_path(&vector_path);
    if let Some(rec) = &recorder {
        let rec = rec.clone();
        ctx = ctx.recorders(move |_| rec.clone());
    }
    let built = spec.build(&tree, &parts, &ctx).map_err(|e| e.to_string())?;
    let mut engine = built.engine;
    let t0 = recorder.as_ref().map(|r| r.now());
    let stats = hill_climb_observed(&mut engine, &cfg, recorder.as_ref()).map_err(|e| {
        cleanup_scratch();
        e.to_string()
    })?;
    // Keep any topology-aware strategy oracle in sync with the final tree.
    for h in &built.handles {
        h.update(engine.tree());
    }
    let mgr_stats = engine.ooc_stats();
    if let (Some(rec), Some(t0)) = (&recorder, t0) {
        finish_recorder(rec, t0, mgr_stats.as_ref())?;
    }
    let final_tree = engine.tree().clone();
    drop(engine);
    cleanup_scratch();

    println!(
        "search: lnl {:.4} -> {:.4} in {} round(s), {} SPRs applied ({} evaluated), alpha {:.4}",
        stats.initial_lnl,
        stats.final_lnl,
        stats.rounds,
        stats.spr_applied,
        stats.spr_evaluated,
        stats.alpha
    );
    if let Some(mgr) = mgr_stats {
        if opts.flag("stats") {
            eprintln!("out-of-core: {mgr}");
        }
    }
    if let Some(out) = opts.get("out") {
        let names = comp.alignment.names().to_vec();
        let mut w = BufWriter::new(File::create(out).map_err(|e| e.to_string())?);
        writeln!(w, "{}", write_newick(&final_tree, &names)).map_err(|e| e.to_string())?;
        eprintln!("best tree written to {out}");
    }
    Ok(())
}
