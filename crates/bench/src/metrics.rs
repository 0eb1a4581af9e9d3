//! Shared `--metrics` wiring of the `ooc-bench` experiments.
//!
//! Every experiment accepts `--metrics FILE` and streams its observability
//! records — per-op latency events, histogram dumps and final counter
//! snapshots — into one JSONL file. Each measured configuration gets its
//! own `scope` label, so a single sweep produces one stream that
//! `ooc-bench check` can validate and reconcile cell by cell (demand-read
//! events against `disk_reads`, write-back events against `disk_writes`).
//!
//! The first recorder truncates the file; later recorders append. That
//! only composes within a *sequential* sweep — experiments that normally
//! run cells in parallel drop to sequential execution when `--metrics` is
//! given (observability runs trade wall time for a clean trace).

use crate::args::Args;
use ooc_core::{JsonlSink, MonotonicClock, OocStats, Recorder};
use std::sync::atomic::{AtomicBool, Ordering};

/// The optional JSONL metrics stream of one benchmark invocation.
pub struct MetricsFile {
    path: Option<String>,
    created: AtomicBool,
}

impl MetricsFile {
    /// Stream to `path`; `None` records nothing.
    pub fn new(path: Option<String>) -> Self {
        MetricsFile {
            path,
            created: AtomicBool::new(false),
        }
    }

    /// Read `--metrics FILE` from the parsed command line.
    pub fn from_args(args: &Args) -> Self {
        let path = args.string("metrics");
        Self::new((!path.is_empty()).then_some(path))
    }

    /// Was `--metrics` given? Sweeps that normally run cells in parallel
    /// switch to sequential execution when it was.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// A real-clock recorder scoped to one measured configuration, or
    /// `None` without `--metrics`. The first call truncates the file;
    /// every recorder then appends through its own `O_APPEND` handle, so
    /// several *live* recorders (e.g. one per partition of the same run)
    /// can interleave whole lines without clobbering each other.
    pub fn recorder(&self, scope: impl Into<String>) -> Option<Recorder> {
        let path = self.path.as_ref()?;
        if !self.created.swap(true, Ordering::SeqCst) {
            std::fs::File::create(path)
                .unwrap_or_else(|e| panic!("cannot create metrics file '{path}': {e}"));
        }
        let sink = JsonlSink::append(path)
            .unwrap_or_else(|e| panic!("cannot open metrics file '{path}': {e}"));
        Some(Recorder::scoped(MonotonicClock::new(), sink, scope))
    }

    /// Close out one configuration's recorder: emit the reconciliation
    /// counter snapshot (when the cell has one), dump the per-op latency
    /// histograms and flush the stream.
    pub fn finish(rec: &Recorder, stats: Option<&OocStats>) {
        if let Some(s) = stats {
            rec.emit_stats(s);
        }
        rec.finish().expect("cannot write metrics stream");
    }
}
