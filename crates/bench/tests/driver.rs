//! The `ooc-bench` driver end to end: every subcommand runs (in-process,
//! at a geometry small enough for a debug build), the deterministic
//! outputs are pinned against what the fourteen binaries this driver
//! replaced produced at the same flags, `run_cell` is held to the
//! hand-written sequence it replaced, and a command line the driver does
//! not understand is refused.

use ooc_bench::cell::{full_traversals, run_cell, CellInput};
use ooc_core::json::Value;
use ooc_core::{CompressionMode, Recorder, StrategyKind};
use phylo_ooc::plf::{BuildContext, DynEngine, EngineSpec, LikelihoodEngine, Residency};
use phylo_ooc::run::{run, Job, MetricsFile};
use phylo_ooc::seq::PartitionKind;
use phylo_ooc::setup::{self, DatasetSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::process::Command;

fn data(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// Run the driver in-process; returns its exit code.
fn bench(line: &str) -> i32 {
    let tokens: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    ooc_bench::run(&tokens)
}

/// Run the built binary in `dir`; returns (exit code, stdout).
fn bench_exe(dir: &Path, args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ooc-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("cannot run ooc-bench");
    (
        out.status.code().expect("killed by a signal"),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
    )
}

/// The goldens under `tests/data` were written by the parent commit's
/// binaries in a sandbox whose `rand` is a stand-in with its own stream;
/// the simulated datasets — and so every number — differ under another
/// generator. Byte-identity is asserted where the stream matches, the
/// schema (same keys, same cells) everywhere.
fn goldens_share_our_rng() -> bool {
    let ours: u64 = StdRng::seed_from_u64(1288).gen();
    let theirs = std::fs::read_to_string(data("rng_fingerprint.txt")).unwrap();
    ours.to_string() == theirs.trim()
}

/// Keys of every object in document order, values dropped.
fn shape(v: &Value) -> Vec<String> {
    match v {
        Value::Arr(items) => items.iter().flat_map(shape).collect(),
        Value::Obj(map) => map
            .iter()
            .flat_map(|(k, v)| std::iter::once(k.clone()).chain(shape(v)))
            .collect(),
        _ => Vec::new(),
    }
}

#[test]
fn miss_rate_presets_reproduce_the_old_binaries_byte_for_byte() {
    let dir = tempfile::tempdir().unwrap();
    let same_rng = goldens_share_our_rng();
    for (cmd, taxa) in [("fig2", 16), ("fig3", 16), ("fig4", 20), ("supp1908", 16)] {
        let out = dir.path().join(format!("{cmd}.json"));
        let line = format!(
            "{cmd} --quick --taxa {taxa} --sites 40 --radius 3 --out {}",
            out.display()
        );
        assert_eq!(bench(&line), 0, "{line}");
        let got = std::fs::read_to_string(&out).unwrap();
        let want = std::fs::read_to_string(data(&format!("{cmd}.json"))).unwrap();
        if same_rng {
            assert_eq!(got, want, "{cmd}: results JSON drifted from the golden");
        } else {
            eprintln!("{cmd}: another rand stream — comparing the schema only");
        }
        let (got, want) = (Value::parse(&got).unwrap(), Value::parse(&want).unwrap());
        assert_eq!(
            shape(&got),
            shape(&want),
            "{cmd}: keys or cell count drifted"
        );
    }
}

#[test]
fn metered_sweep_reconciles_under_check() {
    let dir = tempfile::tempdir().unwrap();
    let m = dir.path().join("fig3.jsonl");
    let out = dir.path().join("fig3.json");
    let line = format!(
        "fig3 --quick --taxa 16 --sites 40 --radius 3 --out {} --metrics {}",
        out.display(),
        m.display()
    );
    assert_eq!(bench(&line), 0);
    assert_eq!(bench(&format!("check {}", m.display())), 0);
    // One scope per cell, named as the old binary named them.
    let stream = std::fs::read_to_string(&m).unwrap();
    for scope in ["fig3/LRU/f0.25/skip", "fig3/NextUse/f0.75/noskip"] {
        assert!(
            stream.contains(&format!("\"scope\":\"{scope}\"")),
            "{scope}"
        );
    }
}

#[test]
fn check_prints_what_metrics_check_printed() {
    let dir = data("");
    for (flags, expected) in [
        (vec!["check_fixture.jsonl"], "check_plain.txt"),
        (
            vec!["--reconcile-compression", "check_fixture.jsonl"],
            "check_reconcile.txt",
        ),
        (
            vec!["--summary-from", "check_fixture.jsonl"],
            "check_summary.txt",
        ),
    ] {
        let mut args = vec!["check"];
        args.extend(flags);
        let (code, stdout) = bench_exe(&dir, &args);
        assert_eq!(code, 0, "{args:?}");
        let want = std::fs::read_to_string(data(expected)).unwrap();
        assert_eq!(stdout, want, "{args:?}");
    }
    assert_eq!(
        bench_exe(&dir, &["check", "fig2.json"]).0,
        1,
        "not a stream"
    );
}

#[test]
fn what_the_driver_does_not_understand_exits_2() {
    let dir = tempfile::tempdir().unwrap();
    for line in [
        "",
        "fig6",
        "ablation tiered --quick",
        "ablation prefetch --quick",
        "pipeline --items 64",
        "check --min-prefetch-absorption 0.5 a.jsonl",
        "fig2 --quick --sedd 7",
        "fig2 --taxa 1e3",
        "fig2 --taxa",
        "fig2 stray",
        "fig5 --taxa many",
        "fig5 --shards 4",
        "tune --margin wide",
        "check a.jsonl b.jsonl",
        "kernels --bin kernels_baseline",
    ] {
        let args: Vec<&str> = line.split_whitespace().collect();
        let (code, stdout) = bench_exe(dir.path(), &args);
        assert_eq!(code, 2, "`ooc-bench {line}`");
        assert_eq!(
            stdout, "",
            "`ooc-bench {line}` must not start the experiment"
        );
    }
    assert!(
        std::fs::read_dir(dir.path()).unwrap().next().is_none(),
        "a refused command line must not leave a results file behind"
    );
    // ... in-process too, and help is not an error.
    assert_eq!(bench("fig2 --quick --sedd 7"), 2);
    assert_eq!(bench("fig5 --help"), 0);
    assert_eq!(bench("--help"), 0);
}

#[test]
fn fig5_every_part_runs() {
    let dir = tempfile::tempdir().unwrap();
    let out = |part: &str| format!("--out-{part} {}", dir.path().join(part).display());
    let tuned = dir.path().join("tuned.toml");
    let metrics = dir.path().join("tune.jsonl");
    let tune = format!(
        "tune --quick --taxa 12 --sites 80 --traversals 1 --probes 3 --out {} --metrics {}",
        tuned.display(),
        metrics.display()
    );
    assert_eq!(bench(&tune), 0);
    assert_eq!(bench(&format!("tune --check {}", tuned.display())), 0);
    assert_eq!(
        bench(&format!("check --summary-from {}", metrics.display())),
        0
    );

    // Parts 1 (with the tuned column) and 2.
    let real = format!(
        "fig5 --quick --taxa 12 --budget-mib 1 --traversals 1 --model-taxa 64 --profile {} {} {}",
        tuned.display(),
        out("real"),
        out("model")
    );
    assert_eq!(bench(&real), 0);
    let real = std::fs::read_to_string(dir.path().join("real")).unwrap();
    let real = Value::parse(&real).unwrap();
    let points = real.as_array().unwrap();
    assert_eq!(points.len(), 3, "--quick sweeps three data/RAM ratios");
    assert!(points.iter().all(|p| p.get("ooc_tuned_secs").is_some()));
}

#[test]
fn ablations_correctness_and_kernels_run() {
    let dir = tempfile::tempdir().unwrap();
    let path = |name: &str| dir.path().join(name).display().to_string();
    assert_eq!(
        bench("ablation writeback --quick --taxa 16 --sites 40 --radius 3"),
        0
    );
    let mcmc = path("mcmc.jsonl");
    let line =
        format!("ablation mcmc --quick --taxa 12 --sites 40 --iterations 100 --metrics {mcmc}");
    assert_eq!(bench(&line), 0);
    assert_eq!(bench(&format!("check {mcmc}")), 0);

    assert_eq!(bench("correctness --taxa 10 --sites 60"), 0);

    // A one-backend run is not a complete baseline: `--check` says which
    // cell is missing instead of waving through every key it can find.
    let k = path("kernels.json");
    assert_eq!(
        bench(&format!("kernels --quick --kernel avx2 --out {k}")),
        0
    );
    assert_eq!(bench(&format!("kernels --check --out {k}")), 1);
    let committed = data("../../../../BENCH_kernels.json");
    assert_eq!(
        bench(&format!("kernels --check --out {}", committed.display())),
        0
    );
}

/// `run_cell` against the sequence every binary used to spell out by
/// hand: build through `EngineSpec::build` with a vector path, time
/// `full_traversals`, read the counters.
#[test]
fn run_cell_equals_the_hand_written_sequence() {
    let dataset = setup::simulate_dataset(&DatasetSpec {
        n_taxa: 24,
        n_sites: 160,
        seed: 17,
        ..Default::default()
    });
    let dir = tempfile::tempdir().unwrap();
    let budget = dataset.total_vector_bytes() / 3;
    let file_limit = EngineSpec {
        residency: Residency::FileLimit {
            limit_bytes: budget,
        },
        strategy: StrategyKind::Lru,
        ..setup::base_spec(&dataset)
    };
    let specs = [
        ("inram", setup::base_spec(&dataset)),
        ("file-limit", file_limit.clone()),
        (
            "file-limit x 2 shards",
            EngineSpec {
                shards: 2,
                ..file_limit.clone()
            },
        ),
        (
            "exp",
            EngineSpec {
                compression: Some(CompressionMode::Exp),
                ..file_limit.clone()
            },
        ),
    ];
    let none = MetricsFile::new(None);
    let mut lnls = Vec::new();
    for (label, spec) in &specs {
        let ctx = BuildContext::new().vector_path(dir.path().join("hand.bin"));
        let built = spec.build(&dataset.tree, &setup::part_specs(&dataset), &ctx);
        let mut engine = built.unwrap().engine;
        let lnl = engine.full_traversals(3).unwrap();
        let stats = engine.ooc_stats();
        drop(engine);

        let cell = run_cell(
            spec,
            &CellInput::dataset(&dataset),
            Some(dir.path().join("cell.bin")),
            label,
            &none,
            full_traversals(3),
        );
        assert_eq!(cell.value.to_bits(), lnl.to_bits(), "{label}: lnL");
        assert_eq!(cell.stats, stats, "{label}: counters");
        assert_eq!(cell.part_stats, vec![stats], "{label}: one partition");
        assert!(
            cell.recs.is_empty() && cell.attribution.is_empty(),
            "{label}"
        );
        // An observed cell sees the same run, plus its own instruments.
        let observed = run_cell(
            spec,
            &CellInput::dataset(&dataset).observed(),
            Some(dir.path().join("cell.bin")),
            label,
            &none,
            full_traversals(3),
        );
        assert_eq!(
            observed.value.to_bits(),
            lnl.to_bits(),
            "{label}: observed lnL"
        );
        assert_eq!(observed.stats, stats, "{label}: observed counters");
        assert!(
            observed.attribution.iter().all(|a| a.wall_ns > 0) && observed.recs.len() == 1,
            "{label}"
        );
        lnls.push(lnl);
    }
    assert!(lnls.iter().all(|l| l.to_bits() == lnls[0].to_bits()));

    // Two partitions: one scope and one counter set per partition.
    let parts = setup::simulate_dataset(&DatasetSpec {
        n_taxa: 12,
        seed: 4,
        parts: vec![(PartitionKind::Dna, 64), (PartitionKind::Protein, 16)],
        ..Default::default()
    });
    let spec = EngineSpec {
        residency: Residency::FileLimit {
            limit_bytes: parts.partition_vector_bytes(0) / 2,
        },
        ..setup::base_spec(&parts)
    };
    let ctx = BuildContext::new().vector_path(dir.path().join("hand_parts.bin"));
    let built = spec.build(&parts.tree, &setup::part_specs(&parts), &ctx);
    let mut engine = built.unwrap().engine;
    let lnl = engine.full_traversals(2).unwrap();
    let part_stats = engine.partition_ooc_stats();
    let stats = engine.ooc_stats();
    drop(engine);

    let m = dir.path().join("parts.jsonl");
    let metrics = MetricsFile::new(Some(m.clone()));
    let cell = run_cell(
        &spec,
        &CellInput::dataset(&parts),
        Some(dir.path().join("cell_parts.bin")),
        "parts",
        &metrics,
        full_traversals(2),
    );
    assert_eq!(cell.value.to_bits(), lnl.to_bits());
    assert_eq!(cell.stats, stats);
    assert_eq!(cell.part_stats, part_stats);
    assert!(part_stats.iter().all(Option::is_some));
    assert_eq!(bench(&format!("check {}", m.display())), 0);
    let stream = std::fs::read_to_string(&m).unwrap();
    for part in &parts.parts {
        let scope = format!("\"scope\":\"parts/{}\"", part.name);
        assert!(stream.contains(&scope), "{scope}");
    }
}

/// `check` accepts what every front end of the runner writes: the CLI's
/// unscoped whole-alignment stream and its per-partition scopes, a served
/// job's `tenant/job-N/<partition>` scopes appended to a stream that
/// already holds another job, and a bench cell (above).
#[test]
fn check_accepts_the_stream_of_every_front_end() {
    let dir = tempfile::tempdir().unwrap();
    let spec = DatasetSpec {
        n_taxa: 12,
        n_sites: 80,
        seed: 6,
        ..Default::default()
    };
    let whole = setup::simulate_dataset(&spec);
    let parts = setup::simulate_dataset(&DatasetSpec {
        parts: vec![(PartitionKind::Dna, 64), (PartitionKind::Protein, 16)],
        ..spec
    });
    let traverse = |engine: &mut Box<dyn DynEngine>, _: &[Recorder]| {
        engine.full_traversals(2).map_err(|e| e.to_string())
    };
    let stream = |name: &str, scopes: &[&str]| {
        let path = dir.path().join(name);
        assert_eq!(bench(&format!("check {}", path.display())), 0, "{name}");
        let text = std::fs::read_to_string(&path).unwrap();
        for scope in scopes {
            let head = format!("{{\"type\":\"profile\",\"scope\":\"{scope}\"");
            assert_eq!(text.matches(&head).count(), 1, "{name}: {scope}");
        }
    };
    let exp = Some(CompressionMode::Exp);
    for (name, data, scopes, compression) in [
        ("cli.jsonl", &whole, &[""][..], None),
        ("cli-parts.jsonl", &parts, &["p0_dna", "p1_prot"][..], None),
        ("cli-exp.jsonl", &parts, &["p0_dna", "p1_prot"][..], exp),
    ] {
        let file_limit = EngineSpec {
            residency: Residency::FileLimit {
                limit_bytes: data.total_vector_bytes() / 3,
            },
            compression,
            ..setup::base_spec(data)
        };
        let metrics = MetricsFile::new(Some(dir.path().join(name)));
        let job = Job {
            metrics: &metrics,
            vector_path: Some(dir.path().join("v.bin")),
            ..Job::new(&file_limit, data)
        };
        run(job, traverse).unwrap();
        stream(name, scopes);
        if compression.is_some() {
            // Per scope: as many bytes-disk as bytes-logical samples, and
            // strictly fewer bytes.
            let path = dir.path().join(name);
            let reconcile = format!("check --reconcile-compression {}", path.display());
            assert_eq!(bench(&reconcile), 0, "{name}");
        }
    }
    let ooc_mem = EngineSpec {
        residency: Residency::OocMem { fraction: 0.4 },
        ..setup::base_spec(&parts)
    };
    for (scope, data) in [("alice/job-1", &whole), ("bob/job-2", &parts)] {
        let metrics = MetricsFile::appending(Some(dir.path().join("serve.jsonl")));
        let job = Job {
            scope,
            metrics: &metrics,
            ..Job::new(&ooc_mem, data)
        };
        run(job, traverse).unwrap();
    }
    let served = ["alice/job-1", "bob/job-2/p0_dna", "bob/job-2/p1_prot"];
    stream("serve.jsonl", &served);
}
