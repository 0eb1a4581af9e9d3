//! **`kernels`** — per-backend throughput of the PLF numerical kernels,
//! written as the committed `BENCH_kernels.json` so kernel regressions
//! (and the speedup claims of the AVX2 backend) are diffable in
//! review. The harness is plain `std::time::Instant` (calibrated iteration
//! counts, best-of-N samples), so the artifact is reproducible offline.
//!
//! ```sh
//! ooc-bench kernels                 # write BENCH_kernels.json
//! ooc-bench kernels --quick         # fast smoke run
//! ooc-bench kernels --check         # validate the existing file
//! ooc-bench kernels --kernel scalar
//! ```

use super::Command;
use crate::report::{print_table, write_json};
use ooc_core::json::{get_str, get_u64, Value};
use phylo_models::{DiscreteGamma, PMatrices, ReversibleModel};
use phylo_ooc::args::{Args, Flag, QUICK};
use phylo_plf::kernels::derivatives::{build_sumtable, SumSide};
use phylo_plf::kernels::Dims;
use phylo_plf::{KernelBackend, TipCodes};
use phylo_seq::{compress_patterns, Alignment, Alphabet};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const SCHEMA: &str = "bench-kernels-v2";

#[derive(Serialize)]
struct Baseline {
    schema: &'static str,
    detected_backend: String,
    results: Vec<BenchResult>,
    /// Per group+size: backend name -> speedup over scalar.
    speedups: Vec<Speedup>,
}

#[derive(Serialize)]
struct BenchResult {
    group: String,
    backend: String,
    n_patterns: usize,
    ns_per_iter: f64,
    patterns_per_sec: f64,
}

#[derive(Serialize)]
struct Speedup {
    group: String,
    n_patterns: usize,
    backend: String,
    vs_scalar: f64,
}

/// Calibrate an iteration count to a target sample duration, then take
/// the best (minimum) ns/iter over several samples.
fn time_ns(quick: bool, mut f: impl FnMut()) -> f64 {
    let target_ns: u128 = if quick { 1_000_000 } else { 20_000_000 };
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t.elapsed().as_nanos();
        if dt >= target_ns || iters >= 1 << 30 {
            break;
        }
        // Scale toward the target, at least doubling.
        iters = (iters * 2).max((iters as u128 * target_ns / dt.max(1)) as u64);
    }
    let samples = if quick { 3 } else { 7 };
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// A deterministic pseudo-random 8-taxon DNA alignment: with 8 diverse
/// rows almost every column is a distinct pattern, so the compressed
/// pattern count stays close to `n_sites` (cycling a short motif over two
/// identical rows would collapse to a handful of patterns and make any
/// per-pattern throughput figure meaningless).
fn random_dna_alignment(n_sites: usize) -> Alignment {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let chars = ['A', 'C', 'G', 'T', 'N'];
    let entries: Vec<(String, String)> = (0..8)
        .map(|r| {
            let seq: String = (0..n_sites).map(|_| chars[next() % chars.len()]).collect();
            (format!("t{r}"), seq)
        })
        .collect();
    Alignment::from_chars(Alphabet::Dna, &entries).unwrap()
}

/// The inputs of one kernel workload: transition matrices for the two
/// child branches, two constant child vectors with zero scalers, unit
/// pattern weights. HKY85 for DNA, seeded synthetic reversible models at
/// protein (20) and codon (61) widths — the same families the equivalence
/// proptests use.
struct Inputs {
    dims: Dims,
    pm_l: PMatrices,
    pm_r: PMatrices,
    model: ReversibleModel,
    gamma: DiscreteGamma,
    left: Vec<f64>,
    right: Vec<f64>,
    zeros: Vec<u32>,
    weights: Vec<u32>,
}

impl Inputs {
    fn new(n_patterns: usize, n_states: usize) -> Self {
        let dims = Dims {
            n_patterns,
            n_states,
            n_cats: 4,
        };
        let model = match n_states {
            4 => ReversibleModel::hky85(2.0, &[0.3, 0.2, 0.2, 0.3]),
            20 => phylo_models::protein::synthetic_protein(11),
            61 => phylo_models::codon::synthetic_codon(11),
            other => panic!("no bench model at {other} states"),
        };
        let gamma = DiscreteGamma::new(0.8, 4);
        let eigen = model.eigen();
        let mut pm_l = PMatrices::new(n_states, 4);
        let mut pm_r = PMatrices::new(n_states, 4);
        pm_l.update(&eigen, &gamma, 0.12);
        pm_r.update(&eigen, &gamma, 0.3);
        Inputs {
            left: vec![0.4; dims.width()],
            right: vec![0.3; dims.width()],
            zeros: vec![0; n_patterns],
            weights: vec![1; n_patterns],
            dims,
            pm_l,
            pm_r,
            model,
            gamma,
        }
    }
}

/// Times kernels: each group on every backend whose own code path runs
/// for the group's dimensions on this machine (`only` restricts to one).
struct Harness {
    quick: bool,
    only: Option<KernelBackend>,
    results: Vec<BenchResult>,
}

impl Harness {
    fn measure(&mut self, group: &str, dims: &Dims, mut kernel: impl FnMut(KernelBackend)) {
        for backend in KernelBackend::ALL {
            if backend.effective(dims) != backend || self.only.is_some_and(|o| o != backend) {
                continue;
            }
            let ns = time_ns(self.quick, || kernel(backend));
            self.results.push(BenchResult {
                group: group.to_owned(),
                backend: backend.name().to_owned(),
                n_patterns: dims.n_patterns,
                ns_per_iter: ns,
                patterns_per_sec: dims.n_patterns as f64 / (ns * 1e-9),
            });
        }
    }

    fn newview(&mut self, group: &str, x: &Inputs) {
        let mut parent = vec![0.0f64; x.dims.width()];
        let mut scale = vec![0u32; x.dims.n_patterns];
        self.measure(group, &x.dims, |backend| {
            backend.newview_inner_inner(
                &x.dims,
                black_box(&mut parent),
                &mut scale,
                black_box(&x.left),
                &x.zeros,
                &x.pm_l,
                black_box(&x.right),
                &x.zeros,
                &x.pm_r,
            )
        });
    }

    fn evaluate(&mut self, group: &str, x: &Inputs) {
        let mut site_out = vec![0.0f64; x.dims.n_patterns];
        self.measure(group, &x.dims, |backend| {
            backend.evaluate_inner_inner_sites(
                &x.dims,
                black_box(&x.left),
                &x.zeros,
                black_box(&x.right),
                &x.zeros,
                &x.pm_l,
                x.model.freqs(),
                &x.weights,
                &mut site_out,
            )
        });
    }
}

fn run(quick: bool, only: Option<KernelBackend>) -> Vec<BenchResult> {
    let mut h = Harness {
        quick,
        only,
        results: Vec::new(),
    };
    for n_patterns in [1000usize, 10_000] {
        let x = Inputs::new(n_patterns, 4);
        h.newview("newview_inner_inner", &x);

        // Pattern compression decides the tip kernel's pattern count.
        let codes = TipCodes::from_alignment(&compress_patterns(&random_dna_alignment(n_patterns)));
        let t = Inputs::new(codes.n_patterns(), 4);
        let mut lut = Vec::new();
        codes.build_lut(&t.pm_l, &mut lut);
        let mut parent = vec![0.0f64; t.dims.width()];
        let mut scale = vec![0u32; t.dims.n_patterns];
        h.measure("newview_tip_inner", &t.dims, |backend| {
            backend.newview_tip_inner(
                &t.dims,
                black_box(&mut parent),
                &mut scale,
                &lut,
                codes.tip(0),
                black_box(&t.left),
                &t.zeros,
                &t.pm_r,
            )
        });
    }

    let x = Inputs::new(5000, 4);
    h.evaluate("evaluate_inner_inner", &x);

    // Wide-state (protein / codon) groups: the AVX2 wide module is the
    // only non-scalar option here — the stride-16 paths must not claim
    // these dims. Fewer patterns than the DNA groups: per-pattern
    // work grows as n_states² so the same wall budget covers fewer sites.
    for n_states in [20usize, 61] {
        let wide = Inputs::new(1000, n_states);
        h.newview(&format!("newview_inner_inner_{n_states}st"), &wide);
        h.evaluate(&format!("evaluate_inner_inner_{n_states}st"), &wide);
    }

    let eigen = x.model.eigen();
    let mut sumtable = Vec::new();
    build_sumtable(
        &x.dims,
        SumSide::Inner(&x.left),
        SumSide::Inner(&x.right),
        &eigen,
        x.model.freqs(),
        &mut sumtable,
    );
    let mut out = [(); 3].map(|_| vec![0.0f64; x.dims.n_patterns]);
    h.measure("nr_derivatives", &x.dims, |backend| {
        let [out_l, out_d1, out_d2] = &mut out;
        backend.nr_derivatives_sites(
            &x.dims,
            black_box(&sumtable),
            &x.weights,
            &x.zeros,
            eigen.values(),
            x.gamma.rates(),
            black_box(0.17),
            out_l,
            out_d1,
            out_d2,
        )
    });

    h.results
}

fn speedups(results: &[BenchResult]) -> Vec<Speedup> {
    let mut out = Vec::new();
    for r in results {
        if r.backend == "scalar" {
            continue;
        }
        if let Some(base) = results
            .iter()
            .find(|b| b.backend == "scalar" && b.group == r.group && b.n_patterns == r.n_patterns)
        {
            out.push(Speedup {
                group: r.group.clone(),
                n_patterns: r.n_patterns,
                backend: r.backend.clone(),
                vs_scalar: base.ns_per_iter / r.ns_per_iter,
            });
        }
    }
    out
}

const GROUPS: [&str; 8] = [
    "newview_inner_inner",
    "newview_tip_inner",
    "evaluate_inner_inner",
    "nr_derivatives",
    "newview_inner_inner_20st",
    "evaluate_inner_inner_20st",
    "newview_inner_inner_61st",
    "evaluate_inner_inner_61st",
];

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

fn rows<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    get(v, key)?
        .as_array()
        .ok_or_else(|| format!("\"{key}\" is not an array"))
}

/// A measurement: positive and finite (the writer renders NaN and
/// infinities as `null`, which is neither).
fn measured(v: &Value, key: &str) -> Result<(), String> {
    match get(v, key)?.as_f64() {
        Some(x) if x.is_finite() && x > 0.0 => Ok(()),
        _ => Err(format!("\"{key}\" is not a positive finite number")),
    }
}

/// Validate a baseline document: it parses, carries the schema tag, every
/// measurement in it is finite, and no `(group, backend)` cell is missing
/// — `scalar` in every group, plus the file's own `detected_backend` where
/// that is a further one.
/// Returns the number of result cells.
fn check_baseline(doc: &str) -> Result<usize, String> {
    let doc = Value::parse(doc).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = get_str(&doc, "schema")?;
    if schema != SCHEMA {
        return Err(format!("schema \"{schema}\", expected \"{SCHEMA}\""));
    }
    let detected = get_str(&doc, "detected_backend")?;
    let mut cells = Vec::new();
    for r in rows(&doc, "results")? {
        let cell = (get_str(r, "group")?, get_str(r, "backend")?);
        let at = |e: String| format!("results cell {cell:?}: {e}");
        get_u64(r, "n_patterns").map_err(at)?;
        measured(r, "ns_per_iter").map_err(at)?;
        measured(r, "patterns_per_sec").map_err(at)?;
        cells.push(cell);
    }
    for s in rows(&doc, "speedups")? {
        let cell = (get_str(s, "group")?, get_str(s, "backend")?);
        measured(s, "vs_scalar").map_err(|e| format!("speedups cell {cell:?}: {e}"))?;
    }
    for group in GROUPS {
        let mut expected = vec!["scalar"];
        if detected != "scalar" {
            expected.push(detected);
        }
        for backend in expected {
            if !cells.contains(&(group, backend)) {
                return Err(format!("missing results cell ({group}, {backend})"));
            }
        }
    }
    Ok(cells.len())
}

pub const KERNELS: Command = Command {
    name: "kernels",
    about: "kernel throughput per backend; writes BENCH_kernels.json",
    flags: &[
        QUICK,
        Flag::switch("check", "validate the file named by --out and exit"),
        Flag::text("kernel", "", "measure only this backend"),
        Flag::text("out", "BENCH_kernels.json", "baseline JSON"),
    ],
    positional: None,
    run: kernels,
};

fn kernels(args: &Args) -> Result<(), String> {
    let out = args.string("out");
    if args.flag("check") {
        let doc = std::fs::read_to_string(&out).map_err(|e| format!("{out}: {e}"))?;
        let cells = check_baseline(&doc).map_err(|e| format!("{out}: {e}"))?;
        println!("{out}: ok ({cells} results, schema {SCHEMA})");
        return Ok(());
    }
    let quick = args.flag("quick");
    let only = match args.string("kernel").as_str() {
        "" => None,
        name => Some(name.parse::<KernelBackend>()?),
    };
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build — baseline numbers will be meaningless");
    }

    let results = run(quick, only);
    let speed = speedups(&results);

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.group.clone(),
                r.backend.clone(),
                r.n_patterns.to_string(),
                format!("{:.0}", r.ns_per_iter),
                format!("{:.2}", r.patterns_per_sec / 1e6),
            ]
        })
        .collect();
    print_table(
        &["group", "backend", "patterns", "ns/iter", "Mpatterns/s"],
        &rows,
    );
    if !speed.is_empty() {
        println!();
        let rows: Vec<Vec<String>> = speed
            .iter()
            .map(|s| {
                vec![
                    s.group.clone(),
                    s.backend.clone(),
                    s.n_patterns.to_string(),
                    format!("{:.2}x", s.vs_scalar),
                ]
            })
            .collect();
        print_table(&["group", "backend", "patterns", "vs scalar"], &rows);
    }

    write_json(
        &out,
        &Baseline {
            schema: SCHEMA,
            detected_backend: KernelBackend::detect().name().to_owned(),
            results,
            speedups: speed,
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A complete baseline as a machine detecting `detected` would write it.
    fn baseline(detected: &str) -> String {
        let mut results = Vec::new();
        for group in GROUPS {
            let mut backends = vec!["scalar"];
            if detected != "scalar" {
                backends.push(detected);
            }
            for backend in backends {
                results.push(BenchResult {
                    group: group.to_owned(),
                    backend: backend.to_owned(),
                    n_patterns: 1000,
                    ns_per_iter: 1234.5,
                    patterns_per_sec: 8.1e8,
                });
            }
        }
        serde_json::to_string_pretty(&Baseline {
            schema: SCHEMA,
            detected_backend: detected.to_owned(),
            speedups: speedups(&results),
            results,
        })
        .unwrap()
    }

    #[test]
    fn check_accepts_what_the_writer_writes() {
        assert_eq!(check_baseline(&baseline("avx2")), Ok(16));
        assert_eq!(check_baseline(&baseline("scalar")), Ok(8));
    }

    #[test]
    fn check_is_a_parse_not_a_substring_search() {
        let good = baseline("avx2");
        // A non-finite measurement serialises as null.
        let nan = good.replacen("\"ns_per_iter\": 1234.5", "\"ns_per_iter\": null", 1);
        assert!(check_baseline(&nan).unwrap_err().contains("ns_per_iter"));
        // A missing (group, backend) cell — with every key still present
        // somewhere in the text.
        let cell = "\"group\": \"nr_derivatives\",\n      \"backend\": \"avx2\"";
        assert!(good.contains(cell));
        let renamed = good.replacen(cell, &cell.replace("avx2", "avx512"), 1);
        let err = check_baseline(&renamed).unwrap_err();
        assert!(
            err.contains("missing results cell (nr_derivatives, avx2)"),
            "{err}"
        );
        // Truncated, mistagged, or not JSON at all.
        assert!(check_baseline(&good[..good.len() / 2]).is_err());
        assert!(check_baseline(&good.replace(SCHEMA, "bench-kernels-v1")).is_err());
        assert!(check_baseline("\"schema\": \"bench-kernels-v2\"").is_err());
    }

    #[test]
    fn speedups_are_relative_to_scalar_of_the_same_cell() {
        let cell = |backend: &str, ns: f64| BenchResult {
            group: "g".into(),
            backend: backend.into(),
            n_patterns: 10,
            ns_per_iter: ns,
            patterns_per_sec: 1.0,
        };
        let s = speedups(&[cell("scalar", 100.0), cell("avx2", 25.0)]);
        assert_eq!(s.len(), 1);
        assert_eq!((s[0].backend.as_str(), s[0].vs_scalar), ("avx2", 4.0));
    }
}
