//! The traced run (`--trace 1`): the stack `EngineSpec::build` resolves a
//! workload to, assembled by hand with the wrappers of [`crate::trace`] at
//! every public boundary, run for a quarter of the units, and turned into
//! the per-layer metrics — after a short untraced pass in the same process,
//! whose per-unit median is what `driver.trace_overhead_frac` is taken
//! against. `trav-ooc`'s traced run ends with three ungated probes: its
//! `exp` twin, its pipelined twin and the program's own recorder.

use crate::data::Dataset;
use crate::json::Value;
use crate::kprobe;
use crate::run::{
    common_info, disk_mib, failed_units, measure, open_probe_and_unlink, scratch_path,
    untraced_pass, warm_up, warmup_units, with_values, FrontDoor, RunArgs, RunResult, Timed,
    UntracedPass, MIB,
};
use crate::spec::{Workload, ALPHA, N_CATS, PER_LAYER, PROBE_UNITS, QUICK_UNITS};
use crate::stats::{median, quantile};
use crate::sys;
use crate::trace::{
    by_name, chrome_trace, AccessEvent, AccessLog, BusyStore, NameStats, Span, StoreCounters,
    TimedAncestral, TimedEngine, TimedStore, Tracer, COMPRESS, PREFETCH, STORE,
};
use crate::units::Units;
use ooc_core::{
    compressed_capacity_f64s, AccessPlan, AccessRecord, BackingStore, CompressingStore,
    CompressionMode, FileStore, OocConfig, OocStats, PrefetchingStore, StrategyKind, VectorManager,
    DEFAULT_PREFETCH_WINDOW,
};
use pager_sim::{SimGeometry, SlotCacheSim};
use phylo_plf::{AncestralStore, InRamStore, LikelihoodEngine, OocStore, PlfEngine};
use std::collections::BTreeMap;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Which store stack a traced pass assembles under the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `InRamStore`, no manager.
    InRam,
    /// `FileStore`.
    Raw,
    /// `CompressingStore(exp)` over `FileStore`.
    Exp,
    /// `PrefetchingStore` with one worker over `FileStore`, window 16.
    Prefetch,
}

impl Stack {
    pub fn of(workload: Workload) -> Stack {
        match workload {
            Workload::TravInram => Stack::InRam,
            Workload::TravOoc | Workload::SearchOoc => Stack::Raw,
        }
    }
}

/// Operations and bytes through one [`TimedStore`] over the timed region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreTotals {
    pub reads: u64,
    pub writes: u64,
    pub read_f64s: u64,
    pub write_f64s: u64,
}

impl StoreTotals {
    fn of(c: &StoreCounters) -> StoreTotals {
        StoreTotals {
            reads: c.reads.get(),
            writes: c.writes.get(),
            read_f64s: c.read_f64s.get(),
            write_f64s: c.write_f64s.get(),
        }
    }
}

/// Everything one traced pass measured.
pub struct TracedPass {
    pub timed: Timed,
    /// Spans of the timed region.
    pub spans: Vec<Span>,
    pub stats: Option<OocStats>,
    /// The [`TimedStore`] directly above `FileStore`.
    pub store: StoreTotals,
    /// The [`TimedStore`] above the store wrapper (codec or pipeline);
    /// equal to `store` on the raw stack.
    pub outer: StoreTotals,
    pub combines: u64,
    pub search: (u64, u64),
    pub log: Rc<AccessLog>,
    pub n_slots: usize,
    pub failed: u64,
    pub verdict: Value,
    /// Writing the dirty slots back and `sync_data` after the region.
    pub flush_s: f64,
    pub disk_mib: f64,
    /// Sequential read of the vector file after `sync_data` +
    /// `posix_fadvise(DONTNEED)`; 0 unless probed.
    pub cold_read_mibps: f64,
    /// Busy time of the prefetch worker's store handle.
    pub worker_busy_ns: u64,
}

/// Build `TimedEngine(PlfEngine(TimedAncestral(store)))`, run the cold
/// traversal, the warm-up and `n` traced units, verify, then let `flush`
/// write the store's dirty state back.
fn drive<A: AncestralStore>(
    a: &RunArgs,
    data: &Dataset,
    store: A,
    tracer: &Rc<Tracer>,
    counters: &[Rc<StoreCounters>],
    n: usize,
    flush: impl FnOnce(&mut A) -> Result<(), String>,
) -> Result<TracedPass, String> {
    let store = TimedAncestral::new(store, tracer);
    let log = store.log();
    let plf = PlfEngine::new(
        data.tree.clone(),
        &data.comp,
        data.model.clone(),
        ALPHA,
        N_CATS,
        store,
    );
    let mut engine = TimedEngine::new(plf, tracer);
    engine
        .log_likelihood()
        .map_err(|e| format!("cold traversal failed: {e}"))?;
    let mut units = Units::new(a.workload, &mut engine, a.seed).map_err(|e| e.to_string())?;
    warm_up(&mut engine, &mut units, warmup_units(a, n))?;
    tracer.clear();
    log.mark_timed();
    counters.iter().for_each(|c| c.reset());

    let timed = measure(&mut engine, &mut units, n, Some(tracer), &mut |_| {});
    let spans = tracer.take();
    let stats = engine.ooc_stats();
    let combines = log.combines.get();
    let search = units.search_counts();
    let (failed, verdict) = failed_units(a.workload, data, &mut engine, &timed);
    let t0 = Instant::now();
    flush(engine.inner_mut().store_mut().inner_mut())?;
    let flush_s = t0.elapsed().as_secs_f64();
    Ok(TracedPass {
        timed,
        spans,
        stats,
        combines,
        search,
        log,
        failed,
        verdict,
        flush_s,
        // What only a file-backed stack has; `traced_pass` fills it in.
        store: StoreTotals::default(),
        outer: StoreTotals::default(),
        n_slots: 0,
        disk_mib: 0.0,
        cold_read_mibps: 0.0,
        worker_busy_ns: 0,
    })
}

fn drive_ooc<S: BackingStore>(
    a: &RunArgs,
    data: &Dataset,
    cfg: OocConfig,
    store: S,
    tracer: &Rc<Tracer>,
    counters: &[Rc<StoreCounters>],
    n: usize,
) -> Result<TracedPass, String> {
    let manager = VectorManager::new(cfg, StrategyKind::Lru.build(None), store);
    drive(
        a,
        data,
        OocStore::new(manager),
        tracer,
        counters,
        n,
        |s: &mut OocStore<S>| s.manager_mut().flush().map_err(|e| e.to_string()),
    )
}

/// Time a sequential read of the whole file after evicting it from the
/// page cache. A sandbox number: the device behind the checkout is
/// whatever the host gave it.
fn cold_read_mibps(file: &File) -> Result<f64, String> {
    sys::drop_file_cache(file).map_err(|e| format!("cannot evict the vector file: {e}"))?;
    let mut buf = vec![0u8; 4 << 20];
    let (mut off, t0) = (0u64, Instant::now());
    loop {
        let got = file
            .read_at(&mut buf, off)
            .map_err(|e| format!("cold read failed: {e}"))?;
        if got == 0 {
            break;
        }
        off += got as u64;
    }
    Ok(off as f64 / MIB / t0.elapsed().as_secs_f64())
}

/// Assemble `stack` by hand, exactly as `EngineSpec::build` would, with
/// the benchmark's wrappers at every boundary, and run `n` traced units.
pub fn traced_pass(
    a: &RunArgs,
    data: &Dataset,
    stack: Stack,
    n: usize,
    probe_cold_read: bool,
) -> Result<TracedPass, String> {
    let tracer = Tracer::new();
    let (n_items, width) = (data.n_items(), data.width());
    if stack == Stack::InRam {
        let ram = InRamStore::new(n_items, width);
        return drive(a, data, ram, &tracer, &[], n, |_| Ok(()));
    }

    let cfg = OocConfig::builder(n_items, width)
        .prefetch_window(DEFAULT_PREFETCH_WINDOW)
        .read_skipping(true)
        .always_write_back(false)
        .byte_limit(a.geometry().budget_bytes)
        .build()
        .map_err(|e| e.to_string())?;
    let stride = PlfEngine::<InRamStore>::dims_for(&data.comp, N_CATS).site_stride();
    let file_width = match stack {
        Stack::Exp => compressed_capacity_f64s(width, stride, CompressionMode::Exp),
        _ => width,
    };
    let path = scratch_path(&a.out_dir, &format!("{}-traced", a.workload.name()));
    let file = FileStore::create(&path, n_items, file_width)
        .map_err(|e| format!("cannot create vector file {path:?}: {e}"))?;
    let probe = open_probe_and_unlink(&path)?;

    let mut worker_busy = None;
    let (mut pass, store, outer) = match stack {
        Stack::Raw => {
            let s = TimedStore::new(file, &tracer, &STORE);
            let c = s.counters();
            let d = drive_ooc(a, data, cfg, s, &tracer, std::slice::from_ref(&c), n)?;
            (d, Rc::clone(&c), c)
        }
        Stack::Exp => {
            let below = TimedStore::new(file, &tracer, &STORE);
            let c_below = below.counters();
            let codec = CompressingStore::new(below, n_items, width, stride, CompressionMode::Exp);
            let above = TimedStore::new(codec, &tracer, &COMPRESS);
            let c_above = above.counters();
            let cs = [Rc::clone(&c_below), Rc::clone(&c_above)];
            let d = drive_ooc(a, data, cfg, above, &tracer, &cs, n)?;
            (d, c_below, c_above)
        }
        Stack::Prefetch => {
            let clone = file
                .try_clone()
                .map_err(|e| format!("cannot clone the vector file handle: {e}"))?;
            let (worker, busy) = BusyStore::new(clone);
            worker_busy = Some(busy);
            let pipeline = PrefetchingStore::with_pool(file, vec![worker], n_items, width);
            let above = TimedStore::new(pipeline, &tracer, &PREFETCH);
            let c = above.counters();
            let d = drive_ooc(a, data, cfg, above, &tracer, std::slice::from_ref(&c), n)?;
            (d, Rc::clone(&c), c)
        }
        Stack::InRam => unreachable!("handled above"),
    };
    // `drive_ooc` has dropped the engine, and with it joined any worker.
    pass.worker_busy_ns = worker_busy.map_or(0, |b| b.load(Ordering::Relaxed));
    pass.n_slots = cfg.n_slots;
    pass.store = StoreTotals::of(&store);
    pass.outer = StoreTotals::of(&outer);
    pass.disk_mib = disk_mib(Some(&probe));
    if probe_cold_read {
        pass.cold_read_mibps = cold_read_mibps(&probe)?;
    }
    Ok(pass)
}

/// Misses of the measured policy over the misses Belady's OPT would have
/// had on the same access string: the whole string the traced engine
/// issued is replayed through [`SlotCacheSim`] under `NextUse` with the
/// full-run oracle plan, and only the timed region's misses are compared.
pub fn misses_over_opt(pass: &TracedPass, data: &Dataset) -> f64 {
    let Some(stats) = pass.stats else {
        return 0.0;
    };
    let records = pass.log.records.borrow();
    let events = pass.log.events.borrow();
    let slice = |start: u32, len: u32| &records[start as usize..(start + len) as usize];
    let geo = SimGeometry::new(data.n_items(), data.width(), pass.n_slots)
        .read_skipping(true)
        .always_write_back(false)
        .window(DEFAULT_PREFETCH_WINDOW);
    let mut sim = SlotCacheSim::new(geo, StrategyKind::NextUse.build(None));
    let accesses: Vec<AccessRecord> = events
        .iter()
        .filter_map(|e| match *e {
            AccessEvent::Group { start, len } => Some(slice(start, len)),
            _ => None,
        })
        .flatten()
        .copied()
        .collect();
    sim.install_oracle_plan(AccessPlan::from_records(accesses, data.n_items()));
    let mut before_timed = 0;
    for e in events.iter() {
        match *e {
            AccessEvent::Plan { start, len } => sim.begin_plan(AccessPlan::from_records(
                slice(start, len).to_vec(),
                data.n_items(),
            )),
            AccessEvent::Group { start, len } => sim.access_group(slice(start, len)),
            AccessEvent::TimedStart => before_timed = sim.stats().misses,
        }
    }
    let opt = sim.stats().misses - before_timed;
    if opt == 0 {
        0.0
    } else {
        stats.misses as f64 / opt as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p(durs_ns: &[u64], q: f64) -> f64 {
    if durs_ns.is_empty() {
        return 0.0;
    }
    let us: Vec<f64> = durs_ns.iter().map(|&d| d as f64 / 1e3).collect();
    quantile(&us, q)
}

/// Per-layer self times of a pass, in seconds: the budget that has to sum
/// to the wall.
pub fn layer_budget(
    a: &RunArgs,
    agg: &BTreeMap<&'static str, NameStats>,
) -> Vec<(&'static str, f64)> {
    let self_s = |prefix: &str| -> f64 {
        agg.iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s.self_ns as f64 / 1e9)
            .sum()
    };
    // What a unit does outside engine calls is the search's own code on
    // `search-ooc` (candidate enumeration) and the driver's loop elsewhere.
    let unit_owner = if a.workload.is_search() {
        "search"
    } else {
        "driver"
    };
    let lease = self_s("plf.engine.lease");
    vec![
        (unit_owner, self_s("unit")),
        ("plf.engine", self_s("plf.engine.") - lease),
        ("plf.kernels (lease)", lease),
        ("core.manager", self_s("core.manager.")),
        ("core.compress", self_s("core.compress.")),
        ("core.prefetch", self_s("core.prefetch.")),
        ("core.store", self_s("core.store.")),
    ]
}

/// `--trace 1`: the per-layer metrics.
pub fn run_traced(a: &RunArgs) -> Result<RunResult, String> {
    let n = a.traced_units();
    let n_ref = n / 2;

    // Untraced reference through the front door: the same warm-up and the
    // same first units the traced pass will run.
    let UntracedPass {
        door: FrontDoor { data, .. },
        timed: reference,
        ..
    } = untraced_pass(a, warmup_units(a, n), n_ref, false)?;

    let pass = traced_pass(a, &data, Stack::of(a.workload), n, a.workload.is_ooc())?;
    std::fs::write(
        a.out_dir.join(format!("{}.trace.json", a.workload.name())),
        chrome_trace(&pass.spans, 4),
    )
    .map_err(|e| format!("cannot write the trace: {e}"))?;
    let agg = by_name(&pass.spans);
    let timed = &pass.timed;
    let wall_s = timed.wall_ns as f64 / 1e9;
    let budget = layer_budget(a, &agg);
    let accounted: f64 = budget.iter().map(|(_, s)| s).sum();
    let get = |name: &str| agg.get(name).cloned().unwrap_or_default();
    let secs = |ns: u64| ns as f64 / 1e9;

    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    let traced_prefix: Vec<f64> = timed.unit_ms()[..n_ref].to_vec();
    v.insert(
        "driver.trace_overhead_frac",
        median(&traced_prefix) / reference.unit_ms_p50() - 1.0,
    );
    v.insert(
        "driver.budget_residual_frac",
        (wall_s - accounted).abs() / wall_s,
    );
    v.insert("driver.unit_ms_p90", quantile(&timed.unit_ms(), 0.9));
    v.insert("driver.runq_wait_frac", timed.runq_wait_frac());
    v.insert("driver.cpu_ms_per_unit", reference.cpu_ms_per_unit());
    v.insert(
        "io.read_mib_per_unit",
        timed.read_bytes as f64 / MIB / n as f64,
    );
    v.insert(
        "io.write_mib_per_unit",
        timed.write_bytes as f64 / MIB / n as f64,
    );
    v.insert("io.disk_mib", pass.disk_mib);

    let k = kprobe::probe(&data, a.quick);
    v.insert("plf.kernels.newview_ii_ns_per_pattern", k.newview_ii_ns);
    v.insert("plf.kernels.newview_ti_ns_per_pattern", k.newview_ti_ns);
    v.insert("plf.kernels.newview_tt_ns_per_pattern", k.newview_tt_ns);
    v.insert("plf.kernels.evaluate_ns_per_pattern", k.evaluate_ns);
    v.insert("plf.kernels.derivative_ns_per_pattern", k.derivative_ns);
    v.insert(
        "plf.kernels.bytes_per_pattern_computed",
        k.bytes_per_pattern,
    );
    v.insert("plf.kernels.flops_per_byte_computed", k.flops_per_byte);

    let lease = get("plf.engine.lease");
    let engine_self: f64 = budget
        .iter()
        .find(|(l, _)| *l == "plf.engine")
        .map_or(0.0, |(_, s)| *s);
    v.insert("plf.engine.combines", pass.combines as f64);
    v.insert(
        "plf.engine.pattern_updates",
        (pass.combines * data.n_patterns() as u64) as f64,
    );
    v.insert("plf.engine.lease_busy_s", secs(lease.self_ns));
    v.insert("plf.engine.self_s", engine_self);

    if let Some(s) = pass.stats {
        let manager: Vec<NameStats> = ["session", "finish", "submit_plan"]
            .iter()
            .map(|op| get(&format!("core.manager.{op}")))
            .collect();
        let acquire_ns: u64 = manager.iter().map(|m| m.total_ns).sum();
        let self_ns: u64 = manager.iter().map(|m| m.self_ns).sum();
        v.insert("core.manager.requests", s.requests as f64);
        v.insert("core.manager.hits", s.hits as f64);
        v.insert("core.manager.misses", s.misses as f64);
        v.insert("core.manager.evictions", s.evictions as f64);
        v.insert("core.manager.skipped_reads", s.skipped_reads as f64);
        v.insert("core.manager.cold_loads", s.cold_loads as f64);
        v.insert("core.manager.staged_loads", s.staged_loads as f64);
        v.insert("core.manager.miss_rate", s.miss_rate());
        v.insert(
            "core.manager.skip_fraction",
            ratio(
                s.skipped_reads as f64,
                (s.skipped_reads + s.disk_reads + s.staged_loads) as f64,
            ),
        );
        v.insert(
            "core.manager.dirty_evict_frac",
            ratio(s.disk_writes as f64, s.evictions as f64),
        );
        v.insert("core.manager.acquire_s", secs(acquire_ns));
        v.insert("core.manager.self_s", secs(self_ns));
        v.insert(
            "core.manager.self_ns_per_request",
            ratio(self_ns as f64, s.requests as f64),
        );
        v.insert(
            "core.strategy.misses_over_opt",
            misses_over_opt(&pass, &data),
        );

        let (reads, writes) = (get("core.store.read"), get("core.store.write"));
        v.insert("core.store.reads", pass.store.reads as f64);
        v.insert("core.store.writes", pass.store.writes as f64);
        v.insert(
            "core.store.read_mib",
            pass.store.read_f64s as f64 * 8.0 / MIB,
        );
        v.insert(
            "core.store.write_mib",
            pass.store.write_f64s as f64 * 8.0 / MIB,
        );
        v.insert("core.store.read_busy_s", secs(reads.total_ns));
        v.insert("core.store.write_busy_s", secs(writes.total_ns));
        v.insert("core.store.read_us_p50", p(&reads.durs_ns, 0.5));
        v.insert("core.store.write_us_p50", p(&writes.durs_ns, 0.5));
        v.insert("core.store.write_us_p90", p(&writes.durs_ns, 0.9));
        v.insert("core.store.flush_s", pass.flush_s);
        v.insert("core.store.cold_read_mibps", pass.cold_read_mibps);
    }
    if a.workload.is_search() {
        v.insert("search.evaluated", pass.search.0 as f64);
        v.insert("search.applied", pass.search.1 as f64);
        v.insert(
            "search.eval_us_p50",
            p(&get("plf.engine.log_likelihood_at").durs_ns, 0.5),
        );
        v.insert(
            "search.nr_us_p50",
            p(&get("plf.engine.optimize_branch").durs_ns, 0.5),
        );
    }

    let mut failed = pass.failed;
    let mut probes = Vec::new();
    let (traced_p50, traced_verdict) = (timed.unit_ms_p50(), pass.verdict.clone());
    let mut info = common_info(a, &data, timed);
    // The main pass's spans are summarised; free them before the probes
    // measure their own resident set.
    drop(pass);

    if a.workload == Workload::TravOoc {
        let probe_units = if a.quick { QUICK_UNITS } else { PROBE_UNITS };

        // The exact twin with the codec on (`compression = exp`).
        let exp = traced_pass(a, &data, Stack::Exp, probe_units, false)?;
        compress_metrics(&mut v, &exp, &by_name(&exp.spans));
        v.insert("core.compress.twin_unit_ms_p50", exp.timed.unit_ms_p50());
        failed += exp.failed;
        probes.push(("exp_twin", exp.verdict.clone()));
        drop(exp);

        // The pipeline against its synchronous twin (this pass's own
        // numbers): one I/O worker, window 16. Ungated: on a 2-core host
        // the second thread's timing is the scheduler's.
        let pf = traced_pass(a, &data, Stack::Prefetch, probe_units, false)?;
        let pf_agg = by_name(&pf.spans);
        let blocked_ns: u64 = pf_agg
            .iter()
            .filter(|(name, _)| name.starts_with("core.prefetch."))
            .map(|(_, s)| s.total_ns)
            .sum();
        v.insert("core.prefetch.twin_unit_ms_p50", pf.timed.unit_ms_p50());
        v.insert("core.prefetch.twin_peak_rss_mib", pf.timed.peak_rss_mib());
        v.insert("core.prefetch.blocked_s", secs(blocked_ns));
        v.insert("core.prefetch.worker_busy_s", secs(pf.worker_busy_ns));
        v.insert(
            "core.prefetch.overlap_frac",
            (1.0 - ratio(blocked_ns as f64, pf.worker_busy_ns as f64)).clamp(0.0, 1.0),
        );
        if let Some(s) = pf.stats {
            v.insert(
                "core.prefetch.staged_hit_frac",
                ratio(
                    s.staged_loads as f64,
                    (s.staged_loads + s.disk_reads) as f64,
                ),
            );
        }
        failed += pf.failed;
        probes.push(("prefetch_twin", pf.verdict.clone()));
        drop(pf);

        // The program's own recorder, attached through the front door.
        let observed = untraced_pass(a, 3, probe_units, true)?.timed;
        v.insert(
            "core.obs.recorder_overhead_frac",
            observed.unit_ms_p50() / reference.unit_ms_p50() - 1.0,
        );
    }

    info.extend([
        ("traced_unit_ms_p50", Value::Num(traced_p50)),
        ("untraced_unit_ms_p50", Value::Num(reference.unit_ms_p50())),
        ("untraced_reference_units", Value::Num(n_ref as f64)),
        (
            "layer_self_s",
            Value::obj(budget.iter().map(|(l, s)| (*l, Value::Num(*s)))),
        ),
        (
            "layer_share_of_wall",
            Value::obj(budget.iter().map(|(l, s)| (*l, Value::Num(s / wall_s)))),
        ),
        ("verification", traced_verdict),
        ("probe_verification", Value::obj(probes)),
    ]);
    Ok(RunResult {
        correct: failed == 0,
        attempted: n as u64,
        failed,
        metrics: with_values(&PER_LAYER, &v),
        info: Value::obj(info),
    })
}

/// `core.compress.*` of a pass on the [`Stack::Exp`] stack: codec time is
/// the span above `CompressingStore` minus the span below it.
fn compress_metrics(
    v: &mut BTreeMap<&str, f64>,
    pass: &TracedPass,
    agg: &BTreeMap<&'static str, NameStats>,
) {
    let self_ns = |name: &str| agg.get(name).map_or(0, |s| s.self_ns) as f64;
    let (enc, dec) = (
        self_ns("core.compress.write"),
        self_ns("core.compress.read"),
    );
    v.insert(
        "core.compress.codec_s",
        (enc + dec + self_ns("core.compress.other")) / 1e9,
    );
    v.insert(
        "core.compress.ratio",
        ratio(pass.outer.write_f64s as f64, pass.store.write_f64s as f64),
    );
    v.insert(
        "core.compress.encode_ns_per_f64",
        ratio(enc, pass.outer.write_f64s as f64),
    );
    v.insert(
        "core.compress.decode_ns_per_f64",
        ratio(dec, pass.outer.read_f64s as f64),
    );
}
