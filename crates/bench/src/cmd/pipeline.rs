//! **`pipeline`** — metered end-to-end check of the plan-driven,
//! double-buffered I/O pipeline. A scripted streaming read plan is
//! executed over a deliberately slow backing store: the pipeline's
//! workers must stream the plan windows ahead of the compute cursor so
//! that nearly all residual stall time is *prefetch-wait* (waiting on an
//! in-flight staged read) rather than synchronous *demand-read* disk
//! time.
//!
//! ```sh
//! ooc-bench pipeline --metrics /tmp/pipeline.jsonl --min-absorption 0.9
//! ooc-bench check --min-prefetch-absorption 0.9 /tmp/pipeline.jsonl
//! ```
//!
//! The absorption ratio asserted here and re-derived by `check` from the
//! JSONL stream is `prefetch-wait / (prefetch-wait + demand-read)` over
//! the *attributed* stall nanoseconds — the two kinds are disjoint by
//! construction, so the ratio is well-defined.
//!
//! This is the one experiment that scripts a manager directly instead of
//! timing an engine through [`crate::cell::run_cell`]: `EngineSpec` has
//! no axis for a deliberately slow device, and the plan is not a tree
//! traversal.

use super::Command;
use ooc_core::{
    AccessPlan, AccessRecord, BackingStore, FileStore, ItemId, MonotonicClock, NullSink, OocConfig,
    PrefetchingStore, Recorder, StallKind, StrategyKind, VectorManager,
};
use phylo_ooc::args::{Args, Flag, METRICS};
use phylo_ooc::run::MetricsFile;
use std::io;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Store wrapper that sleeps per operation, modelling a slow device.
/// `read_batch` sleeps once per call: the device cost is seek-dominated,
/// so the pipeline's run coalescing genuinely pays off.
struct SlowStore<S> {
    inner: S,
    read_delay: Duration,
    write_delay: Duration,
}

impl<S: BackingStore> BackingStore for SlowStore<S> {
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
        std::thread::sleep(self.read_delay);
        self.inner.read(item, buf)
    }

    fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
        std::thread::sleep(self.write_delay);
        self.inner.write(item, buf)
    }

    fn read_batch(&mut self, first: ItemId, count: usize, buf: &mut [f64]) -> io::Result<()> {
        std::thread::sleep(self.read_delay);
        self.inner.read_batch(first, count, buf)
    }

    fn write_batch(&mut self, first: ItemId, count: usize, buf: &[f64]) -> io::Result<()> {
        std::thread::sleep(self.write_delay);
        self.inner.write_batch(first, count, buf)
    }
}

fn pattern(item: ItemId, width: usize) -> Vec<f64> {
    (0..width).map(|k| item as f64 * 1e4 + k as f64).collect()
}

pub const PIPELINE: Command = Command {
    name: "pipeline",
    about: "I/O pipeline smoke: stalls must be absorbed as prefetch-wait",
    flags: &[
        Flag::int("items", 192, "vectors in the scripted plan"),
        Flag::int("width", 256, "f64 per vector"),
        Flag::int("window", 16, "lookahead window"),
        Flag::int("io-threads", 2, "pipeline worker threads"),
        Flag::int("read-delay-us", 2_000, "modelled device read latency"),
        Flag::int("write-delay-us", 100, "modelled device write latency"),
        Flag::int("compute-us", 200, "modelled kernel time per vector"),
        Flag::float("min-absorption", 0.9, "fail below this absorption"),
        METRICS,
    ],
    positional: None,
    run,
};

fn run(args: &Args) -> Result<(), String> {
    let n_items = args.usize("items");
    let width = args.usize("width");
    let window = args.usize("window");
    let io_threads = args.usize("io-threads");
    let read_delay = Duration::from_micros(args.u64("read-delay-us"));
    let write_delay = Duration::from_micros(args.u64("write-delay-us"));
    let compute = Duration::from_micros(args.u64("compute-us"));
    let min_absorption = args.f64("min-absorption");

    let metrics = MetricsFile::from_args(args);
    let rec = metrics
        .recorder("pipeline-smoke")?
        .unwrap_or_else(|| Recorder::scoped(MonotonicClock::new(), NullSink, "pipeline-smoke"));

    let dir = tempfile::tempdir().expect("cannot create temp dir");
    let path = dir.path().join("vectors.bin");
    let main_store = SlowStore {
        inner: FileStore::create(&path, n_items, width).expect("cannot create backing file"),
        read_delay,
        write_delay,
    };
    let workers: Vec<_> = (0..io_threads.max(1))
        .map(|_| SlowStore {
            inner: FileStore::open(&path, width).expect("cannot open worker handle"),
            read_delay,
            write_delay,
        })
        .collect();
    let mut store = PrefetchingStore::with_pool(main_store, workers, n_items, width);
    store.set_recorder(rec.clone());

    let cfg = OocConfig::builder(n_items, width)
        .slots((n_items / 8).max(3))
        .prefetch_window(window)
        .build()
        .expect("valid out-of-core config");
    let mut mgr = VectorManager::new(cfg, StrategyKind::Lru.build(None), store);
    mgr.set_recorder(rec.clone());

    // Materialise every vector through the manager (evictions fold their
    // write-backs into the pipeline queue), then flush so the read phase
    // starts from disk, not from queued write-back RAM copies.
    for item in 0..n_items as ItemId {
        mgr.write_vector(item, &pattern(item, width))
            .expect("write failed");
    }
    mgr.flush().expect("flush failed");

    // The scripted streaming plan: one ordered read per item. Installing
    // it hands the full first-read sequence to the pipeline, which
    // streams it window by window ahead of this loop.
    mgr.begin_plan(AccessPlan::from_records(
        (0..n_items as ItemId).map(AccessRecord::read).collect(),
        n_items,
    ));
    let mut buf = vec![0.0; width];
    for item in 0..n_items as ItemId {
        mgr.read_into(item, &mut buf).expect("read failed");
        assert_eq!(buf, pattern(item, width), "item {item}: data corrupted");
        std::thread::sleep(compute); // modelled kernel time per vector
    }

    let stats = *mgr.stats();
    let pstats = mgr.store().stats();
    let staged_hits = pstats.staged_hits.load(Ordering::Relaxed);
    let staged_misses = pstats.staged_misses.load(Ordering::Relaxed);
    let windows = pstats.windows_streamed.load(Ordering::Relaxed);
    let wait_ns = rec.kind_ns(StallKind::PrefetchWait);
    let demand_ns = rec.kind_ns(StallKind::DemandRead);
    let absorption = if wait_ns + demand_ns == 0 {
        1.0
    } else {
        wait_ns as f64 / (wait_ns + demand_ns) as f64
    };

    println!(
        "pipeline: {n_items} items x {width} f64, window {window}, \
         {io_threads} I/O thread(s), read delay {read_delay:?}"
    );
    println!(
        "  staged: {} adopted + {} read-path hits, {} pipeline misses, {} windows streamed",
        stats.staged_loads,
        staged_hits - stats.staged_loads,
        staged_misses,
        windows
    );
    println!(
        "  stalls: prefetch-wait {:.3} ms, demand-read {:.3} ms, absorption {:.3}",
        wait_ns as f64 / 1e6,
        demand_ns as f64 / 1e6,
        absorption
    );

    MetricsFile::finish(&rec, Some(&stats))?;

    if absorption < min_absorption {
        return Err(format!(
            "absorption {absorption:.3} below required {min_absorption:.3} — \
             the pipeline is not hiding store latency"
        ));
    }
    Ok(())
}
