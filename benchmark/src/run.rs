//! One run of one workload in this process: set-up, warm-up, the timed
//! region, verification against the in-RAM reference, and the metrics.
//!
//! An untraced run (`--trace 0`) builds its engine through the program's
//! front door, [`EngineSpec::build`](phylo_plf::EngineSpec::build), with no
//! recorder and no wrapper, and yields the end-to-end metrics. The traced
//! run is in [`crate::traced`].

use crate::data::Dataset;
use crate::json::Value;
use crate::spec::{
    self, Geometry, MetricDef, Workload, BLOCKS, END_TO_END, FLUSH_POLICY, QUICK_UNITS, SETUPS,
};
use crate::stats::{median, quantile};
use crate::sys::{self, PeakRss};
use crate::trace::Tracer;
use crate::traced::run_traced;
use crate::units::Units;
use ooc_core::{MonotonicClock, NullSink, OocStats, Recorder};
use phylo_plf::{BuildContext, DynEngine, KernelBackend, LikelihoodEngine};
use phylo_tree::Tree;
use std::collections::BTreeMap;
use std::fs::File;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub(crate) const MIB: f64 = (1u64 << 20) as f64;

/// Arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    /// The smoke geometry with [`QUICK_UNITS`] units.
    pub quick: bool,
    /// Where vector files, result records and traces go.
    pub out_dir: PathBuf,
    /// `"published"` or `"stand-ins"`: which `rand`/`parking_lot`/… the
    /// build resolved (bench.sh knows; recorded in every result).
    pub deps: String,
}

impl RunArgs {
    pub fn geometry(&self) -> &'static Geometry {
        if self.quick {
            &spec::QUICK
        } else {
            &spec::FULL
        }
    }

    /// Timed units of the untraced run.
    pub fn timed_units(&self) -> usize {
        if self.quick {
            QUICK_UNITS
        } else {
            self.workload.timed_units(self.seconds)
        }
    }

    /// Timed units of the traced run: a quarter, in whole blocks.
    pub fn traced_units(&self) -> usize {
        if self.quick {
            QUICK_UNITS
        } else {
            (self.timed_units() / 4).div_ceil(BLOCKS) * BLOCKS
        }
    }
}

/// What a run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
    /// Everything else worth keeping: counts, sample sizes, the layer
    /// budget, the flush policy, how the host treated the run.
    pub info: Value,
}

impl RunResult {
    /// The contract's result object (the last line of standard output).
    pub fn result_value(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(m, v)| {
                    (
                        m.name,
                        Value::obj([("value", Value::Num(*v)), ("unit", Value::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
    }
}

// ---------------------------------------------------------------------------
// The timed region
// ---------------------------------------------------------------------------

/// Raw measurements of one timed region.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed {
    /// Wall time of each unit.
    pub unit_ns: Vec<u64>,
    /// Log-likelihood bits each unit returned; `None` for an `Err`.
    pub lnl_bits: Vec<Option<u64>>,
    /// The first error, if any unit failed.
    pub first_error: Option<String>,
    /// Units per second of each block.
    pub block_rates: Vec<f64>,
    /// Peak resident set of each unit, in KiB.
    pub rss_kib: Vec<u64>,
    pub wall_ns: u64,
    /// User + system CPU of the whole process over the region.
    pub cpu_ns: u64,
    /// Time the benchmark thread sat runnable on a run queue.
    pub runq_ns: u64,
    /// `rchar` / `wchar` deltas of the process.
    pub read_bytes: u64,
    pub write_bytes: u64,
    /// Threads alive at the end of the region.
    pub threads: usize,
}

impl Timed {
    pub fn units(&self) -> usize {
        self.unit_ns.len()
    }

    pub fn unit_ms(&self) -> Vec<f64> {
        self.unit_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
    }

    pub fn unit_ms_p50(&self) -> f64 {
        median(&self.unit_ms())
    }

    /// Median over blocks of block units / block wall: throughput that one
    /// slow spell of the host cannot move.
    pub fn units_per_s(&self) -> f64 {
        median(&self.block_rates)
    }

    pub fn cpu_ms_per_unit(&self) -> f64 {
        self.cpu_ns as f64 / 1e6 / self.units() as f64
    }

    pub fn peak_rss_mib(&self) -> f64 {
        let kib: Vec<f64> = self.rss_kib.iter().map(|&k| k as f64).collect();
        median(&kib) / 1024.0
    }

    pub fn runq_wait_frac(&self) -> f64 {
        self.runq_ns as f64 / self.wall_ns as f64
    }
}

/// Run `n` units in [`BLOCKS`] blocks, one at a time. With a tracer, each
/// unit is a top-level `unit` span. `between` runs after every unit, inside
/// its block's wall but outside the unit's (tests inject a stall there).
pub fn measure<E: LikelihoodEngine>(
    engine: &mut E,
    units: &mut Units,
    n: usize,
    tracer: Option<&Tracer>,
    between: &mut dyn FnMut(usize),
) -> Timed {
    assert!(n > 0, "a timed region needs at least one unit");
    let mut rss = PeakRss::open().expect("cannot open /proc/self/{status,clear_refs}");
    let blocks = BLOCKS.min(n);
    let mut t = Timed {
        unit_ns: Vec::with_capacity(n),
        lnl_bits: Vec::with_capacity(n),
        first_error: None,
        block_rates: Vec::with_capacity(blocks),
        rss_kib: Vec::with_capacity(n),
        wall_ns: 0,
        cpu_ns: 0,
        runq_ns: 0,
        read_bytes: 0,
        write_bytes: 0,
        threads: 0,
    };
    let (read0, write0) = sys::proc_io();
    let (_, runq0) = sys::schedstat();
    let cpu0 = sys::process_cpu_ns();
    let start = Instant::now();
    for b in 0..blocks {
        let (lo, hi) = (b * n / blocks, (b + 1) * n / blocks);
        let block_start = Instant::now();
        for j in lo..hi {
            rss.reset();
            if let Some(tr) = tracer {
                tr.set_unit(j as u32);
            }
            let t0 = Instant::now();
            let result = {
                let _span = tracer.map(|tr| tr.scope("unit"));
                units.run(engine)
            };
            t.unit_ns.push(t0.elapsed().as_nanos() as u64);
            t.rss_kib.push(rss.peak_kib());
            match result {
                Ok(lnl) => t.lnl_bits.push(Some(lnl.to_bits())),
                Err(e) => {
                    t.first_error.get_or_insert_with(|| e.to_string());
                    t.lnl_bits.push(None);
                }
            }
            between(j);
        }
        t.block_rates
            .push((hi - lo) as f64 / block_start.elapsed().as_secs_f64());
    }
    t.wall_ns = start.elapsed().as_nanos() as u64;
    t.cpu_ns = sys::process_cpu_ns() - cpu0;
    t.threads = sys::thread_count();
    t.runq_ns = sys::schedstat().1 - runq0;
    let (read1, write1) = sys::proc_io();
    t.read_bytes = read1.saturating_sub(read0);
    t.write_bytes = write1 - write0;
    t
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

/// Failed units of a timed region, judged against an in-RAM engine.
///
/// Traversal workloads: every unit's lnL must carry the bits an in-RAM
/// engine computes on the same tree. `search-ooc`: a unit fails when it
/// returned `Err` or a non-finite lnL, and the run as a whole is held to a
/// closing full traversal that must be bit-identical to an in-RAM engine's
/// on the final tree — if it is not, no unit can be vouched for and all
/// count as failed.
pub fn failed_units<E: LikelihoodEngine>(
    workload: Workload,
    data: &Dataset,
    engine: &mut E,
    timed: &Timed,
) -> (u64, Value) {
    let reference = |tree: &Tree| -> Option<u64> {
        data.inram_engine(tree)
            .log_likelihood()
            .ok()
            .map(f64::to_bits)
    };
    if !workload.is_search() {
        let want = reference(&data.tree);
        let failed = timed.lnl_bits.iter().filter(|b| **b != want).count() as u64;
        let lnl = want.map_or(f64::NAN, f64::from_bits);
        return (failed, Value::obj([("reference_lnl", Value::Num(lnl))]));
    }
    let bad_units = timed
        .lnl_bits
        .iter()
        .filter(|b| !b.is_some_and(|bits| f64::from_bits(bits).is_finite()))
        .count() as u64;
    engine.invalidate_all();
    let closing = engine.log_likelihood().ok().map(f64::to_bits);
    let want = reference(&engine.tree().clone());
    let closing_ok = closing.is_some() && closing == want;
    let failed = if closing_ok {
        bad_units
    } else {
        timed.units() as u64
    };
    let detail = Value::obj([
        (
            "closing_lnl",
            Value::Num(closing.map_or(f64::NAN, f64::from_bits)),
        ),
        (
            "reference_lnl",
            Value::Num(want.map_or(f64::NAN, f64::from_bits)),
        ),
        ("closing_traversal_bit_identical", Value::Bool(closing_ok)),
    ]);
    (failed, detail)
}

// ---------------------------------------------------------------------------
// The front door
// ---------------------------------------------------------------------------

/// A vector file that exists only as open descriptors: created, opened a
/// second time for the benchmark's own probes, and unlinked at once, so
/// that no exit path leaves it behind.
pub(crate) fn scratch_path(out_dir: &Path, tag: &str) -> PathBuf {
    // Unique per process and per call: the package's tests build several
    // engines of one workload at once.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    out_dir.join(format!("vec-{}-{k}-{tag}.bin", std::process::id()))
}

pub(crate) fn open_probe_and_unlink(path: &Path) -> Result<File, String> {
    let probe = File::open(path).map_err(|e| format!("cannot reopen vector file {path:?}: {e}"))?;
    std::fs::remove_file(path).map_err(|e| format!("cannot unlink vector file {path:?}: {e}"))?;
    Ok(probe)
}

/// An engine built the way a user builds one, and what building it cost.
pub struct FrontDoor {
    pub data: Dataset,
    pub engine: Box<dyn DynEngine>,
    /// Second descriptor of the (unlinked) vector file; `None` in RAM.
    pub file: Option<File>,
    /// Dataset simulation + engine build + vector-file creation + the
    /// first, cold full traversal.
    pub secs: f64,
}

impl FrontDoor {
    pub fn set_up(a: &RunArgs, recorder: bool) -> Result<FrontDoor, String> {
        let t0 = Instant::now();
        let geom = a.geometry();
        let data = Dataset::simulate(geom, a.seed);
        let spec = a.workload.engine_spec(geom);
        let path = scratch_path(&a.out_dir, a.workload.name());
        let mut ctx = BuildContext::new().vector_path(&path);
        if recorder {
            ctx = ctx.recorders(|_| Recorder::new(MonotonicClock::new(), NullSink));
        }
        let built = spec
            .build(&data.tree, &data.parts(), &ctx)
            .map_err(|e| e.to_string())?;
        let file = if a.workload.is_ooc() {
            Some(open_probe_and_unlink(&path)?)
        } else {
            None
        };
        let mut engine = built.engine;
        engine
            .log_likelihood()
            .map_err(|e| format!("cold traversal failed: {e}"))?;
        Ok(FrontDoor {
            data,
            engine,
            file,
            secs: t0.elapsed().as_secs_f64(),
        })
    }
}

/// A front-door engine taken through warm-up and a timed region of `n`
/// units — the whole of an untraced run except its extra set-ups, and the
/// reference a traced run compares itself against.
pub struct UntracedPass {
    pub door: FrontDoor,
    pub units: Units,
    pub timed: Timed,
}

pub fn untraced_pass(
    a: &RunArgs,
    warm: usize,
    n: usize,
    recorder: bool,
) -> Result<UntracedPass, String> {
    let mut door = FrontDoor::set_up(a, recorder)?;
    let mut units = Units::new(a.workload, &mut door.engine, a.seed).map_err(|e| e.to_string())?;
    warm_up(&mut door.engine, &mut units, warm)?;
    let timed = measure(&mut door.engine, &mut units, n, None, &mut |_| {});
    Ok(UntracedPass { door, units, timed })
}

pub(crate) fn disk_mib(file: Option<&File>) -> f64 {
    file.and_then(|f| f.metadata().ok())
        .map_or(0.0, |m| m.blocks() as f64 * 512.0 / MIB)
}

pub(crate) fn warm_up<E: LikelihoodEngine>(
    engine: &mut E,
    units: &mut Units,
    n: usize,
) -> Result<(), String> {
    for _ in 0..n {
        units
            .run(engine)
            .map_err(|e| format!("warm-up unit failed: {e}"))?;
    }
    units.reset_counts();
    engine.reset_ooc_stats();
    Ok(())
}

pub(crate) fn warmup_units(a: &RunArgs, timed: usize) -> usize {
    if a.quick {
        3
    } else {
        spec::warmup_units(timed)
    }
}

pub(crate) fn common_info(
    a: &RunArgs,
    data: &Dataset,
    timed: &Timed,
) -> Vec<(&'static str, Value)> {
    vec![
        ("workload", Value::str(a.workload.name())),
        ("seed", Value::Num(a.seed as f64)),
        ("seconds", Value::Num(f64::from(a.seconds))),
        ("trace", Value::Bool(a.trace)),
        ("geometry", Value::str(a.geometry().name)),
        ("deps", Value::str(a.deps.clone())),
        ("kernel", Value::str(KernelBackend::choose().name())),
        ("flush_policy", Value::str(FLUSH_POLICY)),
        ("loop", Value::str("closed, one client, one unit at a time")),
        ("n_patterns", Value::Num(data.n_patterns() as f64)),
        (
            "vector_mib",
            Value::Num(data.total_vector_bytes() as f64 / MIB),
        ),
        ("timed_units", Value::Num(timed.units() as f64)),
        ("timed_wall_s", Value::Num(timed.wall_ns as f64 / 1e9)),
        ("threads_at_end", Value::Num(timed.threads as f64)),
        ("runq_wait_frac", Value::Num(timed.runq_wait_frac())),
        ("cpu_ms_per_unit", Value::Num(timed.cpu_ms_per_unit())),
        (
            "block_units_per_s",
            Value::Arr(timed.block_rates.iter().map(|&r| Value::Num(r)).collect()),
        ),
    ]
}

pub(crate) fn with_values(
    defs: &[MetricDef],
    values: &BTreeMap<&str, f64>,
) -> Vec<(MetricDef, f64)> {
    defs.iter()
        .map(|m| (*m, values.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

/// `--trace 0`: the end-to-end metrics.
pub fn run_untraced(a: &RunArgs) -> Result<RunResult, String> {
    let n = a.timed_units();
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let UntracedPass {
        door:
            FrontDoor {
                data,
                mut engine,
                file,
                secs,
            },
        units,
        timed,
    } = untraced_pass(a, warmup_units(a, n), n, false)?;
    setup_secs.push(secs);
    let (evaluated, applied) = units.search_counts();
    let stats = engine.ooc_stats();
    let disk = disk_mib(file.as_ref());
    let (mut failed, verdict) = failed_units(a.workload, &data, &mut engine, &timed);
    drop(engine);
    drop(file);
    // One thread is what makes these numbers the program's and not the
    // scheduler's on a 2-core host; a run that grew a second one is not a
    // run of this benchmark.
    if timed.threads != 1 {
        failed = timed.units() as u64;
    }

    // The remaining set-ups come after the timed region so that nothing
    // they leave in the allocator shows up in its resident set.
    while setup_secs.len() < SETUPS {
        setup_secs.push(FrontDoor::set_up(a, false)?.secs);
    }

    let values = BTreeMap::from([
        ("setup_s", median(&setup_secs)),
        ("units_per_s", timed.units_per_s()),
        ("unit_ms_p50", timed.unit_ms_p50()),
        ("peak_rss_mib", timed.peak_rss_mib()),
    ]);
    let unit_ms = timed.unit_ms();
    let mut info = common_info(a, &data, &timed);
    info.extend([
        (
            "setup_samples_s",
            Value::Arr(setup_secs.iter().map(|&s| Value::Num(s)).collect()),
        ),
        ("unit_ms_samples", Value::Num(timed.units() as f64)),
        ("unit_ms_p90", Value::Num(quantile(&unit_ms, 0.9))),
        (
            "unit_ms_quantiles_5_10_25_75",
            Value::Arr(
                [0.05, 0.10, 0.25, 0.75]
                    .iter()
                    .map(|&q| Value::Num(quantile(&unit_ms, q)))
                    .collect(),
            ),
        ),
        (
            "io_write_mib_per_unit",
            Value::Num(timed.write_bytes as f64 / MIB / n as f64),
        ),
        (
            "io_read_mib_per_unit",
            Value::Num(timed.read_bytes as f64 / MIB / n as f64),
        ),
        ("disk_mib", Value::Num(disk)),
        ("search_evaluated", Value::Num(evaluated as f64)),
        ("search_applied", Value::Num(applied as f64)),
        ("ooc_stats", stats_value(stats.as_ref())),
        ("verification", verdict),
        (
            "first_error",
            timed.first_error.clone().map_or(Value::Null, Value::Str),
        ),
    ]);
    Ok(RunResult {
        correct: failed == 0,
        attempted: timed.units() as u64,
        failed,
        metrics: with_values(&END_TO_END, &values),
        info: Value::obj(info),
    })
}

fn stats_value(stats: Option<&OocStats>) -> Value {
    let Some(s) = stats else {
        return Value::Null;
    };
    Value::obj(
        [
            ("requests", s.requests),
            ("hits", s.hits),
            ("misses", s.misses),
            ("disk_reads", s.disk_reads),
            ("disk_writes", s.disk_writes),
            ("skipped_reads", s.skipped_reads),
            ("cold_loads", s.cold_loads),
            ("evictions", s.evictions),
            ("bytes_read", s.bytes_read),
            ("bytes_written", s.bytes_written),
            ("io_errors", s.io_errors),
            ("plans", s.plans),
            ("staged_loads", s.staged_loads),
        ]
        .map(|(k, v)| (k, Value::Num(v as f64))),
    )
}

/// Run as `a` says and keep the full record next to the trace.
pub fn run(a: &RunArgs) -> Result<RunResult, String> {
    std::fs::create_dir_all(&a.out_dir)
        .map_err(|e| format!("cannot create {:?}: {e}", a.out_dir))?;
    let result = if a.trace {
        run_traced(a)?
    } else {
        run_untraced(a)?
    };
    let record = Value::obj([
        ("result", result.result_value()),
        ("info", result.info.clone()),
    ]);
    let name = format!(
        "{}-seed{}-trace{}.json",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    );
    std::fs::write(a.out_dir.join(name), record.to_json_pretty())
        .map_err(|e| format!("cannot write the result record: {e}"))?;
    Ok(result)
}

/// Every metric by name with its unit, for a person (standard error).
pub fn summary(a: &RunArgs, r: &RunResult) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{} seed {} trace {} ({} geometry, deps {}): {} of {} units failed, correct = {}\n",
        a.workload.name(),
        a.seed,
        u8::from(a.trace),
        a.geometry().name,
        a.deps,
        r.failed,
        r.attempted,
        r.correct
    );
    for (m, v) in &r.metrics {
        writeln!(out, "  {:<42} {:>16.6} {}", m.name, v, m.unit)
            .expect("writing to a String cannot fail");
    }
    for key in [
        "timed_wall_s",
        "runq_wait_frac",
        "cpu_ms_per_unit",
        "threads_at_end",
    ] {
        if let Some(v) = r.info.get(key).and_then(Value::as_f64) {
            writeln!(out, "  ({key} = {v:.6})").expect("writing to a String cannot fail");
        }
    }
    out
}
