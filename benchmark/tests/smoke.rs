//! `--quick` smoke of the built executable: every workload, traced and
//! untraced, in seconds, with the contract's result object as the last
//! line of standard output.

mod common;

use ooc_benchmark::json::{self, Value};
use ooc_benchmark::spec::{MetricDef, Workload, END_TO_END, PER_LAYER};
use std::process::Command;

fn run_quick(workload: &str, trace: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ooc-benchmark"))
        .args(["--workload", workload, "--seed", "1288", "--seconds", "1"])
        .args(["--trace", trace, "--quick", "--deps", "test", "--out-dir"])
        .arg(common::out_dir("smoke"))
        .output()
        .expect("cannot start the benchmark executable")
}

#[test]
fn every_workload_prints_the_contract_s_result_line() {
    for w in Workload::ALL {
        for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let out = run_quick(w.name(), trace);
            assert!(
                out.status.success(),
                "{} trace {trace}: {}",
                w.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).unwrap();
            let result = json::parse(stdout.lines().last().unwrap()).unwrap();
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("attempted"), Some(&Value::Num(10.0)));
            assert_eq!(result.get("failed"), Some(&Value::Num(0.0)));
            let metrics = result.get("metrics").unwrap().as_obj().unwrap();
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let declared: Vec<&str> = table.iter().map(|m: &MetricDef| m.name).collect();
            assert_eq!(names, declared, "{} trace {trace}", w.name());
            for ((_, m), def) in metrics.iter().zip(table) {
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
                let v = m.get("value").and_then(Value::as_f64).unwrap();
                assert!(v.is_finite(), "{} is not finite", def.name);
                assert!(trace == "1" || v > 0.0, "{} is zero", def.name);
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "trav-ooc-stack"][..],
        &["--workload", "trav-ooc", "--trace", "2"],
        &["--workload", "trav-ooc", "--seconds", "0"],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ooc-benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
