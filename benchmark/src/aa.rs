//! Runs of this build against itself: the `aa` subcommand (two sets of
//! runs of the same code, to learn what spread the host alone causes and
//! to derive the regression bounds from it) and the `baseline` subcommand
//! (one untraced and one traced run per workload, kept as one file).
//!
//! Every run is a child process of its own, started and waited for one at
//! a time, exactly as the driver starts them.

use crate::json::{self, Value};
use crate::spec::{MetricDef, Workload, END_TO_END};
use crate::stats::{iqr_over_median, median};
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Debug, Clone, PartialEq)]
pub struct AaArgs {
    /// Runs of a set use seeds `seed .. seed + RUNS`.
    pub seed: u64,
    pub seconds: u32,
    /// Where the report goes (`<out_dir>/aa.json` by default).
    pub out: Option<PathBuf>,
    pub out_dir: PathBuf,
    pub deps: String,
}

/// The spread the builder's box shows is multiplied by this before it
/// becomes a bound: the driver's host measured about 2.3× the builder's
/// spread when the first cut of this benchmark was refused.
const HOST_FACTOR: f64 = 2.5;
const BOUND_FLOOR: f64 = 0.05;
const BOUND_CEILING: f64 = 0.25;
/// Runs per set, as the driver makes them.
const RUNS: usize = 10;

/// The bounds rule: `max(0.05, 2.5 × worst spread)`, rounded up to a
/// multiple of 0.05. Above [`BOUND_CEILING`] the metric needs steadying,
/// not a wider bound.
pub fn rule_bound(worst_spread: f64) -> f64 {
    let steps = (HOST_FACTOR * worst_spread / 0.05 - 1e-9).ceil().max(1.0);
    (steps * 0.05).max(BOUND_FLOOR)
}

/// Relative amount by which `second` is worse than `first`.
pub fn worsening(m: &MetricDef, first: f64, second: f64) -> f64 {
    if m.better == "lower" {
        (second - first) / first
    } else {
        (first - second) / first
    }
}

/// Start one run of this executable as a child, wait for it, and return
/// its full record (`{"result": …, "info": …}`).
fn child_run(a: &AaArgs, workload: Workload, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--deps", &a.deps])
        .arg("--out-dir")
        .arg(&a.out_dir);
    // `output` waits for the child on every path, including a failed read.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "run of {} seed {seed} trace {} exited with {}: {}",
            workload.name(),
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("a run printed nothing")?;
    let result = json::parse(last)?;
    let record_path = a.out_dir.join(format!(
        "{}-seed{seed}-trace{}.json",
        workload.name(),
        u8::from(trace)
    ));
    let record = std::fs::read_to_string(&record_path)
        .map_err(|e| format!("cannot read {record_path:?}: {e}"))
        .and_then(|t| json::parse(&t))?;
    if record.get("result") != Some(&result) {
        return Err(format!(
            "{record_path:?} does not hold the result the run printed"
        ));
    }
    Ok(record)
}

fn metric_of(record: &Value, name: &str) -> Result<f64, String> {
    record
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("a run did not report {name}"))
}

fn write_report(path: &Path, report: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    std::fs::write(path, report.to_json_pretty()).map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// What one run contributes to the "counts repeat" comparison.
fn counts_of(record: &Value) -> Vec<Option<f64>> {
    let num = |v: Option<&Value>| v.and_then(Value::as_f64);
    let (result, info) = (record.get("result"), record.get("info"));
    vec![
        num(result.and_then(|r| r.get("attempted"))),
        num(result.and_then(|r| r.get("failed"))),
        num(info.and_then(|i| i.get("search_evaluated"))),
        num(info.and_then(|i| i.get("search_applied"))),
        num(info
            .and_then(|i| i.get("ooc_stats"))
            .and_then(|s| s.get("requests"))),
        num(info
            .and_then(|i| i.get("ooc_stats"))
            .and_then(|s| s.get("misses"))),
    ]
}

/// The values one workload × metric showed in the two sets.
struct Row {
    workload: String,
    metric: MetricDef,
    values: [Vec<f64>; 2],
}

/// What two sets of runs measured, before any judgement.
struct Collected {
    seed: u64,
    seconds: u32,
    deps: String,
    cores: usize,
    /// Every run reported `correct: true`.
    runs_correct: bool,
    /// Attempted/failed units, search counts and manager counts of each
    /// seed are the same in both sets.
    counts_repeat: bool,
    rows: Vec<Row>,
}

/// Two sets of [`RUNS`] untraced runs per workload, one child at a time.
fn collect(a: &AaArgs) -> Result<Collected, String> {
    std::fs::create_dir_all(&a.out_dir)
        .map_err(|e| format!("cannot create {:?}: {e}", a.out_dir))?;
    let mut c = Collected {
        seed: a.seed,
        seconds: a.seconds,
        deps: a.deps.clone(),
        cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
        runs_correct: true,
        counts_repeat: true,
        rows: Vec::new(),
    };
    for w in Workload::ALL {
        let mut sets: Vec<Vec<Value>> = Vec::new();
        for set in ["A", "B"] {
            let mut records = Vec::with_capacity(RUNS);
            for r in 0..RUNS {
                let seed = a.seed + r as u64;
                eprintln!("aa: {} set {set} seed {seed}", w.name());
                let record = child_run(a, w, seed, false)?;
                c.runs_correct &=
                    record.get("result").and_then(|r| r.get("correct")) == Some(&Value::Bool(true));
                records.push(record);
            }
            sets.push(records);
        }
        c.counts_repeat &= sets[0]
            .iter()
            .zip(&sets[1])
            .all(|(ra, rb)| counts_of(ra) == counts_of(rb));
        for m in END_TO_END {
            let of_set = |s: &[Value]| -> Result<Vec<f64>, String> {
                s.iter().map(|r| metric_of(r, m.name)).collect()
            };
            c.rows.push(Row {
                workload: w.name().to_string(),
                metric: m,
                values: [of_set(&sets[0])?, of_set(&sets[1])?],
            });
        }
    }
    Ok(c)
}

/// Print, per workload × end-to-end metric, each set's median, IQR/median
/// and the declared bound; apply the bounds rule; return the report and
/// whether this build agrees with itself within its own bounds.
///
/// It fails on a spread above its bound, on a second median worse than
/// the first by more than the bound, on a wrong or non-repeating run, and
/// on a declared bound below what the rule asks for — which no bound can
/// meet once the rule asks for more than [`BOUND_CEILING`]: that metric
/// has to be made steadier.
fn evaluate(c: &Collected) -> (Value, bool) {
    let mut ok = true;
    if !c.runs_correct {
        println!("FAIL  a run was not correct");
        ok = false;
    }
    if !c.counts_repeat {
        println!("FAIL  counts differ between the two sets");
        ok = false;
    }
    let mut rows = Vec::new();
    let mut worst: Vec<f64> = vec![0.0; END_TO_END.len()];
    println!(
        "{:<12} {:<16} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "IQR/med", "median B", "IQR/med", "B worse", "bound"
    );
    for row in &c.rows {
        let m = &row.metric;
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        let med = row.values.each_ref().map(|v| median(v));
        let spread = row.values.each_ref().map(|v| iqr_over_median(v));
        let drift = worsening(m, med[0], med[1]);
        let k = END_TO_END
            .iter()
            .position(|e| e.name == m.name)
            .expect("rows hold end-to-end metrics");
        worst[k] = worst[k].max(spread[0]).max(spread[1]);
        let mut verdict = "";
        if drift > bound || spread.iter().any(|&s| s > bound) {
            verdict = "  FAIL";
            ok = false;
        }
        println!(
            "{:<12} {:<16} {:>12.5} {:>8.4} {:>12.5} {:>8.4} {:>8.4} {:>6.2}{verdict}",
            row.workload, m.name, med[0], spread[0], med[1], spread[1], drift, bound
        );
        let nums = |v: &[f64]| Value::Arr(v.iter().map(|&x| Value::Num(x)).collect());
        rows.push(Value::obj([
            ("workload", Value::str(row.workload.clone())),
            ("metric", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("bound", Value::Num(bound)),
            ("median_a", Value::Num(med[0])),
            ("median_b", Value::Num(med[1])),
            ("iqr_over_median_a", Value::Num(spread[0])),
            ("iqr_over_median_b", Value::Num(spread[1])),
            ("b_worse_by", Value::Num(drift)),
            ("values_a", nums(&row.values[0])),
            ("values_b", nums(&row.values[1])),
        ]));
    }

    println!(
        "\nbounds rule: max(0.05, {HOST_FACTOR} × worst IQR/median), rounded up to 0.05, \
         at most {BOUND_CEILING}"
    );
    let mut rule = Vec::new();
    for (m, &w) in END_TO_END.iter().zip(&worst) {
        let declared = m.bound.expect("end-to-end metrics carry a bound");
        let wanted = rule_bound(w);
        let mut verdict = "";
        if wanted > BOUND_CEILING + 1e-9 {
            verdict = "  FAIL: the rule asks for more than a bound may be; steady the metric";
            ok = false;
        } else if wanted > declared + 1e-9 {
            verdict = "  FAIL: declared bound is tighter than the rule allows";
            ok = false;
        }
        println!(
            "{:<16} worst spread {:>7.4} -> rule {:>5.2}, declared {:>5.2}{verdict}",
            m.name, w, wanted, declared
        );
        rule.push((
            m.name,
            Value::obj([
                ("worst_iqr_over_median", Value::Num(w)),
                ("rule_bound", Value::Num(wanted)),
                ("declared_bound", Value::Num(declared)),
            ]),
        ));
    }
    let report = Value::obj([
        ("schema", Value::str("ooc-benchmark-aa-v1")),
        ("seed", Value::Num(c.seed as f64)),
        ("seconds", Value::Num(f64::from(c.seconds))),
        ("deps", Value::str(c.deps.clone())),
        ("cores", Value::Num(c.cores as f64)),
        ("runs_correct", Value::Bool(c.runs_correct)),
        ("counts_repeat", Value::Bool(c.counts_repeat)),
        ("pass", Value::Bool(ok)),
        ("bounds", Value::obj(rule)),
        ("rows", Value::Arr(rows)),
    ]);
    (report, ok)
}

/// The `aa` subcommand: collect two sets of runs and judge them.
pub fn aa(a: &AaArgs) -> Result<bool, String> {
    let (report, ok) = evaluate(&collect(a)?);
    let path = a.out.clone().unwrap_or_else(|| a.out_dir.join("aa.json"));
    write_report(&path, &report)?;
    println!(
        "\n{} — report in {}",
        if ok { "PASS" } else { "FAIL" },
        path.display()
    );
    Ok(ok)
}

/// One untraced and one traced run of every end-to-end workload on one
/// seed, kept together as `{"seed": …, "runs": [record, …]}`.
pub fn baseline(a: &AaArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&a.out_dir)
        .map_err(|e| format!("cannot create {:?}: {e}", a.out_dir))?;
    let mut runs = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            eprintln!(
                "baseline: {} seed {} trace {}",
                w.name(),
                a.seed,
                u8::from(trace)
            );
            let record = child_run(a, w, a.seed, trace)?;
            ok &= record.get("result").and_then(|r| r.get("correct")) == Some(&Value::Bool(true));
            runs.push(record);
        }
    }
    let report = Value::obj([
        ("schema", Value::str("ooc-benchmark-runs-v1")),
        ("seed", Value::Num(a.seed as f64)),
        ("seconds", Value::Num(f64::from(a.seconds))),
        ("deps", Value::str(a.deps.clone())),
        ("runs", Value::Arr(runs)),
    ]);
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| a.out_dir.join(format!("runs-seed{}.json", a.seed)));
    write_report(&path, &report)?;
    println!(
        "{} — {}",
        if ok { "all runs correct" } else { "FAIL" },
        path.display()
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_rule_rounds_up_in_steps_of_five_percent() {
        assert_eq!(rule_bound(0.0), 0.05);
        assert_eq!(rule_bound(0.02), 0.05);
        assert!((rule_bound(0.021) - 0.10).abs() < 1e-12);
        assert!((rule_bound(0.04) - 0.10).abs() < 1e-12);
        assert!((rule_bound(0.10) - 0.25).abs() < 1e-12);
        assert!(rule_bound(0.11) > BOUND_CEILING);
    }

    #[test]
    fn worsening_follows_the_direction() {
        let lower = &END_TO_END[2];
        let higher = &END_TO_END[1];
        assert_eq!((lower.better, higher.better), ("lower", "higher"));
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 10.0, 11.0) < 0.0);
    }
}
