//! End-to-end tests of the `phylo-ooc` command-line interface.

use std::path::Path;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_phylo-ooc"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = cli().args(args).output().expect("spawn CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn simulate_into(dir: &Path) -> (String, String) {
    let aln = dir.join("d.phy").to_string_lossy().into_owned();
    let tree = dir.join("t.nwk").to_string_lossy().into_owned();
    let (ok, _, err) = run(&[
        "simulate",
        "--taxa",
        "16",
        "--sites",
        "200",
        "--seed",
        "5",
        "--out",
        &aln,
        "--tree-out",
        &tree,
    ]);
    assert!(ok, "simulate failed: {err}");
    (aln, tree)
}

#[test]
fn help_and_bad_command() {
    let (ok, out, _) = run(&["help"]);
    assert!(ok);
    assert!(out.contains("USAGE"));
    // Not understood — a command unknown or missing — is exit code 2, as
    // for `ooc-bench` and `ooc-serve`; 1 is a run that failed.
    for line in [&["frobnicate"][..], &[]] {
        let out = cli().args(line).output().expect("spawn CLI");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line:?}: {err}");
        assert!(err.contains("USAGE"), "{line:?}: {err}");
        assert_eq!(err.contains("unknown command"), !line.is_empty(), "{err}");
    }
}

#[test]
fn simulate_then_likelihood_in_ram_and_ooc_agree() {
    let dir = tempfile::tempdir().unwrap();
    let (aln, tree) = simulate_into(dir.path());

    let (ok, out_ram, err) = run(&["likelihood", "--alignment", &aln, "--tree", &tree]);
    assert!(ok, "{err}");
    let (ok, out_ooc, err) = run(&[
        "likelihood",
        "--alignment",
        &aln,
        "--tree",
        &tree,
        "--memory",
        "25%",
        "--strategy",
        "rand",
        "--stats",
    ]);
    assert!(ok, "{err}");
    let lnl = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("log-likelihood:"))
            .unwrap()
            .to_owned()
    };
    assert_eq!(lnl(&out_ram), lnl(&out_ooc), "in-RAM vs out-of-core CLI");
}

#[test]
fn search_writes_a_parseable_tree() {
    let dir = tempfile::tempdir().unwrap();
    let (aln, _) = simulate_into(dir.path());
    let best = dir.path().join("best.nwk");
    let (ok, out, err) = run(&[
        "search",
        "--alignment",
        &aln,
        "--memory",
        "50%",
        "--rounds",
        "1",
        "--radius",
        "3",
        "--seed",
        "3",
        "--alpha",
        "0.8",
        "--out",
        best.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("search: lnl"));
    let text = std::fs::read_to_string(&best).unwrap();
    let (tree, names) = phylo_ooc::tree::parse_newick(&text).expect("valid newick");
    assert_eq!(tree.n_tips(), 16);
    assert_eq!(names.len(), 16);
}

#[test]
fn memory_suffixes_accepted() {
    let dir = tempfile::tempdir().unwrap();
    let (aln, tree) = simulate_into(dir.path());
    for memory in ["1M", "300K", "100000"] {
        let (ok, out, err) = run(&[
            "likelihood",
            "--alignment",
            &aln,
            "--tree",
            &tree,
            "--memory",
            memory,
        ]);
        assert!(ok, "--memory {memory}: {err}");
        assert!(out.contains("log-likelihood:"));
    }
}

#[test]
fn bad_engine_flags_fail_with_one_rule_each() {
    let dir = tempfile::tempdir().unwrap();
    let (aln, tree) = simulate_into(dir.path());
    for (flags, names) in [
        // n * 2^30 overflows u64: used to panic (debug) or wrap (release).
        (&["--memory", "99999999999G"][..], "bad --memory"),
        (&["--memory", "lots"][..], "bad --memory"),
        // In-RAM runs have no store to pipeline or compress behind; the
        // spec's validation is the one place that says so.
        (
            &["--io-threads", "2"][..],
            "io_threads requires a file-backed residency",
        ),
        (
            &["--compression", "exp"][..],
            "compression requires a managed residency",
        ),
        (
            &["--memory", "25%", "--compression", "zip"][..],
            "bad --compression",
        ),
    ] {
        let out = cli()
            .args(["likelihood", "--alignment", &aln, "--tree", &tree])
            .args(flags)
            .output()
            .expect("spawn CLI");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {err}");
        assert!(err.contains(names), "{flags:?}: {err}");
        assert!(!err.contains("panicked"), "{flags:?}: {err}");
    }
}

#[test]
fn unwritable_vector_file_fails_with_context() {
    let dir = tempfile::tempdir().unwrap();
    let (aln, tree) = simulate_into(dir.path());
    let bad = dir.path().join("no_such_dir").join("v.bin");
    let (ok, _, err) = run(&[
        "likelihood",
        "--alignment",
        &aln,
        "--tree",
        &tree,
        "--memory",
        "25%",
        "--vector-file",
        bad.to_str().unwrap(),
    ]);
    assert!(!ok, "creating the store in a missing directory must fail");
    assert!(
        err.contains("cannot create vector file"),
        "stderr must say what failed: {err}"
    );
    assert!(
        err.contains("no_such_dir"),
        "stderr must name the offending path: {err}"
    );
}

#[test]
fn missing_inputs_fail_gracefully() {
    let (ok, _, err) = run(&["likelihood"]);
    assert!(!ok);
    assert!(err.contains("missing --alignment"));
    let (ok, _, err) = run(&[
        "likelihood",
        "--alignment",
        "/nonexistent.phy",
        "--tree",
        "/x",
    ]);
    assert!(!ok);
    assert!(err.contains("error"));
}

#[test]
fn a_mistyped_flag_is_refused_before_anything_runs() {
    let dir = tempfile::tempdir().unwrap();
    let (aln, tree) = simulate_into(dir.path());
    // `--memroy 64M` used to be accepted and ignored: the run silently
    // kept every vector in RAM.
    let out = cli()
        .args(["likelihood", "--alignment", &aln, "--tree", &tree])
        .args(["--memroy", "64M"])
        .output()
        .expect("spawn CLI");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown flag --memroy"), "{err}");
    assert!(out.stdout.is_empty(), "nothing may run");

    for (bad, names) in [
        (&["--shards", "two"][..], "--shards"),
        (&["--alpha"][..], "--alpha"),
        (&["--rounds", "3"][..], "--rounds"), // a `search` flag
        (&["--window", "8"][..], "--window"), // retired with the spec axis
        (&["--kernel", "scalar"][..], "--kernel"),
    ] {
        let out = cli()
            .args(["likelihood", "--alignment", &aln, "--tree", &tree])
            .args(bad)
            .output()
            .expect("spawn CLI");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {err}");
        assert!(err.contains(names), "{bad:?}: {err}");
    }
}

/// Files named `phylo-ooc-vectors-*` in `dir` — where a child run with
/// `TMPDIR=dir` keeps its evicted vectors.
fn scratch_vectors(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("phylo-ooc-vectors-"))
        .collect()
}

#[test]
fn out_of_core_runs_leave_no_scratch_vectors_behind() {
    let dir = tempfile::tempdir().unwrap();
    let (aln, tree) = simulate_into(dir.path());
    let tmp = dir.path().join("tmp");
    std::fs::create_dir(&tmp).unwrap();
    let one = dir.path().join("one.part");
    std::fs::write(&one, "DNA, gene = 1-200\n").unwrap();
    let two = dir.path().join("two.part");
    std::fs::write(&two, "DNA, left = 1-120\nDNA, right = 121-200\n").unwrap();

    // A one-line partition file is one partition: its vectors go to the
    // scratch path as given, which the partitioned code path never removed.
    let base = ["--alignment", &aln, "--tree", &tree, "--memory", "25%"];
    for (cmd, partitions) in [
        ("likelihood", None),
        ("likelihood", Some(&one)),
        ("likelihood", Some(&two)),
        ("search", Some(&two)),
    ] {
        let mut run = cli();
        run.env("TMPDIR", &tmp).arg(cmd).args(base);
        if let Some(file) = partitions {
            run.arg("--partitions").arg(file);
        }
        if cmd == "search" {
            run.args(["--rounds", "1", "--radius", "2"]);
        }
        let out = run.output().expect("spawn CLI");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{cmd} {partitions:?}: {err}");
        assert_eq!(
            scratch_vectors(&tmp),
            Vec::<String>::new(),
            "{cmd} {partitions:?}"
        );
    }
}

#[test]
fn search_accepts_partitions() {
    let dir = tempfile::tempdir().unwrap();
    let (aln, tree) = simulate_into(dir.path());
    let parts = dir.path().join("two.part");
    std::fs::write(&parts, "DNA, left = 1-120\nDNA, right = 121-200\n").unwrap();
    let common = ["--alignment", &aln, "--tree", &tree, "--partitions"];
    let (ok, lik, err) = run(&[&["likelihood"][..], &common, &[parts.to_str().unwrap()]].concat());
    assert!(ok, "{err}");
    assert!(
        lik.contains("  left: ") && lik.contains("  right: "),
        "{lik}"
    );
    let best = dir.path().join("best.nwk");
    let (ok, out, err) = run(&[
        &["search"][..],
        &common,
        &[parts.to_str().unwrap(), "--alpha", "0.8"],
        &["--rounds", "1", "--radius", "2", "--memory", "50%"],
        &["--out", best.to_str().unwrap()],
    ]
    .concat());
    assert!(ok, "{err}");
    // The search starts from the tree `likelihood` scored, at the same α,
    // and only ever climbs (its first report follows a smoothing pass).
    let joint = lik
        .lines()
        .next()
        .unwrap()
        .trim_start_matches("log-likelihood: ");
    let start: f64 = joint.parse().unwrap();
    let line = out.lines().find(|l| l.starts_with("search: lnl")).unwrap();
    let from: f64 = line.split_whitespace().nth(2).unwrap().parse().unwrap();
    assert!(from >= start && from < start + 50.0, "{line} vs {joint}");
    let text = std::fs::read_to_string(&best).unwrap();
    assert_eq!(phylo_ooc::tree::parse_newick(&text).unwrap().0.n_tips(), 16);
    // Without a tree there is no parsimony start for mixed data.
    let (ok, _, err) = run(&[
        "search",
        "--alignment",
        &aln,
        "--partitions",
        parts.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(err.contains("--partitions requires --tree"), "{err}");
}
