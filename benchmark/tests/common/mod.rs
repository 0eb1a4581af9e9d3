//! Shared by the integration tests: smoke-geometry run arguments that
//! write under cargo's per-package test directory.

// Each test binary compiles this module and uses a part of it.
#![allow(dead_code)]

use ooc_benchmark::run::RunArgs;
use ooc_benchmark::spec::Workload;
use std::path::PathBuf;

pub fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("cannot create the test output directory");
    dir
}

pub fn quick_args(workload: Workload, trace: bool, test: &str) -> RunArgs {
    RunArgs {
        workload,
        seed: 8192,
        seconds: 1,
        trace,
        quick: true,
        out_dir: out_dir(test),
        deps: "test".into(),
    }
}
