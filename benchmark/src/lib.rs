//! `ooc-benchmark`: end-to-end and per-layer benchmark of the out-of-core
//! PLF stack. See `README.md` beside this package for what is measured,
//! how, and why.

pub mod aa;
pub mod check;
pub mod data;
pub mod json;
pub mod kprobe;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod traced;
pub mod units;
