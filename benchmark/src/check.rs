//! The `check` subcommand: hold `BENCHMARK.json`, `spec.json` and the
//! program's own metric tables equal; hold result files to the declared
//! metrics and to the frozen counts; and run every workload, traced and
//! untraced, at the smoke geometry to see the outputs verified live.

use crate::json::{self, Value};
use crate::run::{self, RunArgs};
use crate::spec::{self, MetricDef, Workload, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};

/// Collects findings; anything pushed through [`Report::fail`] fails the check.
struct Report {
    ok: bool,
}

impl Report {
    fn pass(&self, what: &str) {
        println!("ok    {what}");
    }

    fn fail(&mut self, what: &str) {
        println!("FAIL  {what}");
        self.ok = false;
    }

    fn expect(&mut self, cond: bool, what: &str) {
        if cond {
            self.pass(what);
        } else {
            self.fail(what);
        }
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path:?}: {e}"))
}

/// A declared metric as `BENCHMARK.json` spells it.
fn declared(m: &MetricDef) -> Value {
    let mut pairs = vec![
        ("name", Value::str(m.name)),
        ("unit", Value::str(m.unit)),
        ("better", Value::str(m.better)),
    ];
    if let Some(b) = m.bound {
        pairs.push(("bound", Value::Num(b)));
    }
    Value::obj(pairs)
}

fn check_benchmark_json(rep: &mut Report, doc: &Value) {
    let same = |key: &str, table: &[MetricDef]| {
        doc.get(key).and_then(Value::as_arr).is_some_and(|items| {
            items.len() == table.len() && items.iter().zip(table).all(|(i, m)| *i == declared(m))
        })
    };
    rep.expect(
        same("end_to_end", &END_TO_END),
        "BENCHMARK.json end_to_end equals the program's table (names, units, directions, bounds, order)",
    );
    rep.expect(
        same("per_layer", &PER_LAYER),
        "BENCHMARK.json per_layer equals the program's table (names, units, directions, order)",
    );
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .map(|ws| {
            ws.iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str))
                .collect()
        })
        .unwrap_or_default();
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    rep.expect(
        names == want,
        "BENCHMARK.json workloads are the program's workloads, in order",
    );
    rep.expect(
        doc.get("paths") == Some(&Value::Arr(vec![Value::str("benchmark")])),
        "BENCHMARK.json paths is [\"benchmark\"]",
    );
    rep.expect(
        doc.get("run_seconds").and_then(Value::as_f64) == Some(30.0),
        "BENCHMARK.json run_seconds is 30",
    );
}

fn check_spec_json(rep: &mut Report) {
    let frozen = spec::frozen();
    let listed: Vec<&str> = frozen
        .get("layers")
        .and_then(Value::as_arr)
        .map(|layers| {
            layers
                .iter()
                .filter_map(|l| l.get("metrics").and_then(Value::as_arr))
                .flatten()
                .filter_map(Value::as_str)
                .collect()
        })
        .unwrap_or_default();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    rep.expect(
        listed == want,
        "spec.json layer table lists the program's per-layer metrics, in order",
    );
    let calibrated = Workload::ALL.iter().all(|w| {
        frozen
            .get("units_per_run_second")
            .and_then(|t| t.get(w.name()))
            .and_then(Value::as_f64)
            .is_some_and(|v| v > 0.0)
    });
    rep.expect(
        calibrated,
        "spec.json freezes units_per_run_second for every workload",
    );
}

/// One `{"result": …, "info": …}` record.
fn check_record(rep: &mut Report, file: &str, record: &Value) -> Option<(String, bool)> {
    let (Some(result), Some(info)) = (record.get("result"), record.get("info")) else {
        rep.fail(&format!("{file}: a record lacks result or info"));
        return None;
    };
    let workload = info.get("workload").and_then(Value::as_str).unwrap_or("?");
    let traced = info.get("trace").and_then(Value::as_bool).unwrap_or(false);
    let seed = info.get("seed").and_then(Value::as_f64).unwrap_or(-1.0);
    let tag = format!("{file}: {workload} seed {seed} trace {}", u8::from(traced));
    let Some(w) = Workload::from_name(workload) else {
        rep.fail(&format!("{tag}: unknown workload"));
        return None;
    };
    let table: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics = result.get("metrics").and_then(Value::as_obj).unwrap_or(&[]);
    let complete = metrics.len() == table.len()
        && metrics.iter().zip(table).all(|((name, m), def)| {
            name == def.name
                && m.get("unit").and_then(Value::as_str) == Some(def.unit)
                && m.get("value").and_then(Value::as_f64).is_some_and(|v| {
                    // End-to-end metrics are never zero; a per-layer metric
                    // reads 0 where it does not exist.
                    v.is_finite() && (traced || v > 0.0)
                })
        });
    rep.expect(
        complete,
        &format!("{tag}: every declared metric, by name and unit, finite and non-zero"),
    );
    let failed = result.get("failed").and_then(Value::as_f64);
    let attempted = result.get("attempted").and_then(Value::as_f64);
    rep.expect(
        result.get("correct") == Some(&Value::Bool(true))
            && failed == Some(0.0)
            && attempted.is_some_and(|n| n >= 1.0),
        &format!(
            "{tag}: correct, 0 failed units — every unit bit-identical to the in-RAM reference"
        ),
    );
    // The frozen counts belong to the `rand` they were drawn with: the
    // stand-in and the published crate give different datasets.
    let text = |key: &str| info.get(key).and_then(Value::as_str);
    let counts_deps = spec::frozen()
        .get("search_counts_deps")
        .and_then(Value::as_str);
    let full_search = w.is_search() && text("geometry") == Some("full");
    if full_search && text("deps") != counts_deps {
        rep.pass(&format!(
            "{tag}: built with other dependencies than the frozen search counts; not compared"
        ));
    } else if full_search {
        let metric = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, m)| m.get("value"))
                .and_then(Value::as_f64)
        };
        let got = if traced {
            (metric("search.evaluated"), metric("search.applied"))
        } else {
            (
                info.get("search_evaluated").and_then(Value::as_f64),
                info.get("search_applied").and_then(Value::as_f64),
            )
        };
        let units = attempted.unwrap_or(0.0) as usize;
        match spec::frozen_search_counts(seed as u64, units) {
            Some((e, a)) => rep.expect(
                got == (Some(e as f64), Some(a as f64)),
                &format!("{tag}: search counts equal the frozen ({e} evaluated, {a} applied)"),
            ),
            None => rep.pass(&format!(
                "{tag}: no frozen search counts for ({seed}, {units} units); not compared"
            )),
        }
    }
    Some((workload.to_string(), traced))
}

fn check_result_file(rep: &mut Report, file: &str) -> Result<(), String> {
    let doc = load(Path::new(file))?;
    let Some(runs) = doc.get("runs").and_then(Value::as_arr) else {
        check_record(rep, file, &doc);
        return Ok(());
    };
    let seen: Vec<(String, bool)> = runs
        .iter()
        .filter_map(|r| check_record(rep, file, r))
        .collect();
    for w in Workload::ALL {
        for traced in [false, true] {
            rep.expect(
                seen.contains(&(w.name().to_string(), traced)),
                &format!(
                    "{file}: holds a trace-{} run of {}",
                    u8::from(traced),
                    w.name()
                ),
            );
        }
    }
    if let Some(seed) = doc.get("seed").and_then(Value::as_f64) {
        let frozen = spec::frozen()
            .get("search_counts")
            .and_then(Value::as_arr)
            .is_some_and(|rows| {
                rows.iter()
                    .any(|r| r.get("seed").and_then(Value::as_f64) == Some(seed))
            });
        rep.expect(
            frozen,
            &format!("{file}: spec.json freezes search counts for seed {seed}"),
        );
    }
    Ok(())
}

fn check_live(rep: &mut Report, out_dir: &Path) {
    for w in Workload::ALL {
        for trace in [false, true] {
            let a = RunArgs {
                workload: w,
                seed: 8192,
                seconds: 1,
                trace,
                quick: true,
                out_dir: out_dir.join("check"),
                deps: "check".into(),
            };
            let tag = format!(
                "live {} trace {} at the smoke geometry",
                w.name(),
                u8::from(trace)
            );
            match run::run(&a) {
                Ok(r) => rep.expect(
                    r.correct && r.failed == 0,
                    &format!(
                        "{tag}: {} units verified against the in-RAM engine",
                        r.attempted
                    ),
                ),
                Err(e) => rep.fail(&format!("{tag}: {e}")),
            }
        }
    }
}

/// Returns whether everything held.
pub fn check(result_files: &[String], out_dir: PathBuf) -> Result<bool, String> {
    let mut rep = Report { ok: true };
    check_benchmark_json(&mut rep, &load(Path::new("BENCHMARK.json"))?);
    check_spec_json(&mut rep);
    for file in result_files {
        check_result_file(&mut rep, file)?;
    }
    check_live(&mut rep, &out_dir);
    println!(
        "{}",
        if rep.ok {
            "check passed"
        } else {
            "check FAILED"
        }
    );
    Ok(rep.ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An untraced full-geometry `search-ooc` record on the dev seed.
    fn search_record(deps: &str, evaluated: u64, applied: u64, units: usize) -> Value {
        let metrics = END_TO_END.iter().map(|m| {
            (
                m.name,
                Value::obj([("value", Value::Num(1.0)), ("unit", Value::str(m.unit))]),
            )
        });
        Value::obj([
            (
                "result",
                Value::obj([
                    ("correct", Value::Bool(true)),
                    ("attempted", Value::Num(units as f64)),
                    ("failed", Value::Num(0.0)),
                    ("metrics", Value::obj(metrics)),
                ]),
            ),
            (
                "info",
                Value::obj([
                    ("workload", Value::str("search-ooc")),
                    ("seed", Value::Num(8192.0)),
                    ("trace", Value::Bool(false)),
                    ("geometry", Value::str("full")),
                    ("deps", Value::str(deps)),
                    ("search_evaluated", Value::Num(evaluated as f64)),
                    ("search_applied", Value::Num(applied as f64)),
                ]),
            ),
        ])
    }

    #[test]
    fn frozen_search_counts_bind_only_results_built_with_their_dependencies() {
        let units = Workload::SearchOoc.timed_units(30);
        let (e, a) = spec::frozen_search_counts(8192, units).expect("dev seed is frozen");
        let frozen_with = spec::frozen()
            .get("search_counts_deps")
            .and_then(Value::as_str)
            .expect("spec.json names the dependency set of its counts");
        for (deps, evaluated, holds) in [
            (frozen_with, e, true),
            (frozen_with, e + 1, false),
            ("some-other-rand", e + 1, true),
        ] {
            let mut rep = Report { ok: true };
            check_record(&mut rep, "test", &search_record(deps, evaluated, a, units));
            assert_eq!(rep.ok, holds, "deps {deps}, evaluated {evaluated}");
        }
    }
}
