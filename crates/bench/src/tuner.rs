//! The tuner behind `ooc-bench tune`: model-pruned search over the
//! [`SpecSpace`] grid.
//!
//! Exhaustively measuring an [`EngineSpec`] grid is quadratically wasteful:
//! most candidates are obviously slow, and each measurement costs seconds
//! of real I/O. The tuner spends microseconds instead of seconds on the
//! obvious ones, in three stages:
//!
//! 1. **Enumerate** — the declarative [`SpecSpace`] grid, dropping invalid
//!    axis combinations via [`EngineSpec::validate`] and resolving each
//!    survivor's slot geometry through [`EngineSpec::slot_counts`].
//! 2. **Prune by model** — replay the dataset's traversal [`ooc_core::AccessPlan`]
//!    through [`pager_sim::SlotCacheSim`] under the candidate's exact
//!    strategy (the simulator's counters equal the real
//!    manager's — see `pager-sim/tests/slotsim_parity.rs`), convert the
//!    byte traffic into I/O time with a [`DiskModel`], and lower-bound the
//!    candidate with a NextUse replay under a full-run oracle plan (the
//!    Belady configuration no online strategy beats). Probing proceeds in
//!    predicted order; a candidate whose margined lower bound already
//!    exceeds the best *measured* time is discarded unmeasured.
//! 3. **Probe the survivors** — short timed runs of the real engine
//!    (`full_traversals` over a real backing file), with an
//!    [`ooc_core::Recorder`] splitting each probe's wall time into compute
//!    vs stalls. The measured winner ships as a `bench-tune-v1` profile
//!    TOML that the CLI's `--profile` flag (and `ooc-bench fig5
//!    --profile`) loads directly.

use crate::cell::{full_traversals, run_cell, CellInput};
use crate::replay::{
    self, calibrate_newview_secs_per_f64, full_traversal_pattern, TraversalPattern,
};
use ooc_core::{BackingStore, CompressionMode, DiskModel, FileStore, OocStats};
use pager_sim::SimGeometry;
use phylo_ooc::plf::oracle::build_strategy;
use phylo_ooc::plf::{EngineSpec, Residency, SpecSpace};
use phylo_ooc::run::MetricsFile;
use phylo_ooc::setup::{self, Dataset, DatasetSpec};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Schema tag of the emitted profile's `[tune]` section.
pub const TUNE_SCHEMA: &str = "bench-tune-v1";

/// Tuning parameters beyond the search space itself.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Full traversals per probe (the Figure 5 workload length).
    pub traversals: usize,
    /// Disk cost model pricing simulated traffic.
    pub disk: DiskModel,
    /// Safety factor in `(0, 1]` applied to the modelled lower bound
    /// before comparing against measured objectives: a candidate is pruned
    /// only when `margin × bound > best_measured`. The bound's traffic
    /// half is exact (oracle replay of the same counters the objective
    /// prices); the margin mainly absorbs kernel-calibration error in the
    /// compute floor. Smaller = more cautious.
    pub margin: f64,
    /// Probe at most this many candidates (the best-predicted ones);
    /// candidates past the cap are reported as skipped, never as pruned.
    pub max_probes: usize,
    /// Calibrated kernel cost (seconds per `f64` of vector width);
    /// `None` calibrates by timing the real kernel.
    pub secs_per_f64: Option<f64>,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            traversals: 5,
            disk: DiskModel::hdd_2010(),
            margin: 0.75,
            max_probes: 16,
            secs_per_f64: None,
        }
    }
}

/// The model's view of one candidate.
#[derive(Debug, Clone, Copy)]
pub struct ModelEstimate {
    /// Simulated demand reads + write-backs (per shard manager, summed).
    pub io_ops: u64,
    /// Simulated byte traffic after the compression estimate.
    pub io_bytes: u64,
    /// Modelled I/O seconds under the candidate's own strategy.
    pub io_secs: f64,
    /// Modelled kernel seconds.
    pub compute_secs: f64,
    /// Predicted wall seconds (serial: compute + I/O; with I/O threads:
    /// reads + the slower of compute and write-backs).
    pub predicted_secs: f64,
    /// Margined lower bound: no configuration with this geometry can
    /// plausibly beat it (oracle-replay I/O floor under perfect overlap).
    pub bound_secs: f64,
}

/// What happened to one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Lower bound exceeded the best measured time — discarded unmeasured.
    Pruned,
    /// Probed on the real engine.
    Measured {
        /// The tuning objective: the probe's measured compute combined
        /// with its *actual* store traffic priced by the [`DiskModel`]
        /// (combined as the model's prediction is). Measured
        /// counters, modelled disk — the same units as the prune bound,
        /// so the comparison holds even when the machine running the
        /// tuner has a faster disk than the target.
        objective_secs: f64,
        /// Probe wall seconds on the tuning machine.
        wall_secs: f64,
        /// Wall seconds attributed to compute (wall − stalls).
        compute_secs: f64,
        /// Wall seconds attributed to I/O stalls.
        stall_secs: f64,
    },
    /// Probe cap reached before its turn.
    Skipped,
}

/// One enumerated candidate with its model estimate and outcome.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The spec.
    pub spec: EngineSpec,
    /// Short display label (strategy/shards/pipeline/codec).
    pub label: String,
    /// Model stage output.
    pub estimate: ModelEstimate,
    /// Hand-picked baseline (always probed, never pruned or skipped).
    pub baseline: bool,
    /// Measurement stage output.
    pub outcome: Outcome,
}

impl Candidate {
    /// Measured objective seconds, if probed.
    pub fn objective_secs(&self) -> Option<f64> {
        match self.outcome {
            Outcome::Measured { objective_secs, .. } => Some(objective_secs),
            _ => None,
        }
    }

    /// Measured wall seconds, if probed.
    pub fn wall_secs(&self) -> Option<f64> {
        match self.outcome {
            Outcome::Measured { wall_secs, .. } => Some(wall_secs),
            _ => None,
        }
    }
}

/// The full tuning result.
pub struct TuneOutcome {
    /// Every candidate, in probe (predicted) order.
    pub candidates: Vec<Candidate>,
    /// Index of the measured winner in `candidates`.
    pub best: usize,
    /// Grid size before validity filtering.
    pub enumerated: usize,
    /// Combinations rejected by [`EngineSpec::validate`].
    pub invalid: usize,
    /// Candidates discarded by the model bound alone.
    pub pruned: usize,
    /// Candidates measured on the real engine.
    pub probed: usize,
    /// Disk model used (calibrated or named).
    pub disk: DiskModel,
    /// Kernel cost used, seconds per `f64`.
    pub secs_per_f64: f64,
    /// Probe traversals.
    pub traversals: usize,
    /// Prune margin.
    pub margin: f64,
}

impl TuneOutcome {
    /// The winning candidate.
    pub fn winner(&self) -> &Candidate {
        &self.candidates[self.best]
    }

    /// Fraction of *valid* candidates discarded by the model bound.
    pub fn prune_fraction(&self) -> f64 {
        let valid = self.enumerated - self.invalid;
        if valid == 0 {
            0.0
        } else {
            self.pruned as f64 / valid as f64
        }
    }

    /// The tuned profile: the winner's spec TOML plus a `[tune]` section
    /// of provenance ([`TUNE_SCHEMA`]). [`EngineSpec::from_toml`] stops at
    /// the section header, so the CLI `--profile` path loads this output
    /// unchanged.
    pub fn profile_toml(&self, data: &DatasetSpec) -> String {
        use std::fmt::Write as _;
        let w = self.winner();
        let mut out = w.spec.to_toml();
        let _ = writeln!(out);
        let _ = writeln!(out, "[tune]");
        let _ = writeln!(out, "schema = \"{TUNE_SCHEMA}\"");
        let _ = writeln!(out, "dataset_taxa = {}", data.n_taxa);
        let _ = writeln!(out, "dataset_sites = {}", data.n_sites);
        let _ = writeln!(out, "dataset_seed = {}", data.seed);
        let _ = writeln!(out, "traversals = {}", self.traversals);
        let _ = writeln!(out, "disk = \"{}\"", self.disk.name());
        let _ = writeln!(out, "disk_seek_ns = {}", self.disk.seek_ns);
        let _ = writeln!(
            out,
            "disk_bandwidth_bytes_per_sec = {}",
            self.disk.bandwidth_bytes_per_sec
        );
        let _ = writeln!(out, "calib_ns_per_f64 = {:.4}", self.secs_per_f64 * 1e9);
        let _ = writeln!(out, "margin = {}", self.margin);
        let _ = writeln!(out, "enumerated = {}", self.enumerated);
        let _ = writeln!(out, "invalid = {}", self.invalid);
        let _ = writeln!(out, "pruned = {}", self.pruned);
        let _ = writeln!(out, "probed = {}", self.probed);
        let _ = writeln!(out, "prune_fraction = {:.4}", self.prune_fraction());
        let _ = writeln!(out, "predicted_secs = {:.6}", w.estimate.predicted_secs);
        let _ = writeln!(out, "bound_secs = {:.6}", w.estimate.bound_secs);
        if let Outcome::Measured {
            objective_secs,
            wall_secs,
            compute_secs,
            stall_secs,
        } = w.outcome
        {
            let _ = writeln!(out, "measured_secs = {objective_secs:.6}");
            let _ = writeln!(out, "wall_secs = {wall_secs:.6}");
            let _ = writeln!(out, "compute_secs = {compute_secs:.6}");
            let _ = writeln!(out, "stall_secs = {stall_secs:.6}");
        }
        if let Some(base) = self
            .candidates
            .iter()
            .filter(|c| c.baseline)
            .filter_map(Candidate::objective_secs)
            .fold(None::<f64>, |acc, s| Some(acc.map_or(s, |a| a.min(s))))
        {
            let _ = writeln!(out, "baseline_best_secs = {base:.6}");
        }
        out
    }
}

/// Calibrate a [`DiskModel`] from the machine the tuner runs on: time real
/// [`FileStore`] operations at two vector widths and fit seek + bandwidth
/// through the two points ([`DiskModel::fit_from_probes`]).
pub fn calibrate_disk(dir: &Path) -> DiskModel {
    fn probe(path: &Path, width: usize) -> f64 {
        let n_items = 24usize;
        let mut store = FileStore::create(path, n_items, width).expect("create probe file");
        let buf = vec![1.0f64; width];
        let mut back = vec![0.0f64; width];
        // Warm-up pass, then timed alternating write/read over all items.
        for i in 0..n_items as u32 {
            store.write(i, &buf).expect("probe write");
        }
        let reps = 3usize;
        let t0 = Instant::now();
        for _ in 0..reps {
            for i in 0..n_items as u32 {
                store.write(i, &buf).expect("probe write");
                store.read(i, &mut back).expect("probe read");
            }
        }
        std::hint::black_box(&back);
        t0.elapsed().as_nanos() as f64 / (reps * n_items * 2) as f64
    }
    let small_bytes = 4 * 1024u64; // 512 f64 — seek-dominated
    let large_bytes = 4 * 1024 * 1024u64; // 512 Ki f64 — bandwidth-dominated
    let small_ns = probe(&dir.join("probe_small.bin"), small_bytes as usize / 8);
    let large_ns = probe(&dir.join("probe_large.bin"), large_bytes as usize / 8);
    DiskModel::fit_from_probes(small_bytes, small_ns, large_bytes, large_ns)
}

/// Achieved-ratio estimate of the codec (encoded ÷ raw bytes), used for
/// *prediction only* — the probe stage measures reality: `exp` strips the
/// shared exponent (~54 of 64 bits survive).
fn compression_ratio(mode: Option<CompressionMode>) -> f64 {
    match mode {
        None => 1.0,
        Some(CompressionMode::Exp) => 54.0 / 64.0,
    }
}

fn spec_label(spec: &EngineSpec) -> String {
    let mut label = spec.strategy.label().to_owned();
    if spec.shards > 1 {
        label.push_str(&format!("/sh{}", spec.shards));
    }
    if spec.io_threads > 0 {
        label.push_str(&format!("/io{}", spec.io_threads));
    }
    if let Some(mode) = spec.compression {
        label.push('/');
        label.push_str(mode.name());
    }
    label
}

/// Search `space` over `data`: enumerate, prune by model, probe the
/// survivors. `baselines` are probed unconditionally (hand-picked configs
/// the tuned spec must beat; they also compete for the win). `metrics`
/// optionally receives one JSONL scope per probe.
pub fn tune(
    data: &Dataset,
    space: &SpecSpace,
    baselines: &[EngineSpec],
    cfg: &TuneConfig,
    metrics: &MetricsFile,
) -> TuneOutcome {
    let pattern = full_traversal_pattern(&data.tree);
    let secs_per_f64 = cfg
        .secs_per_f64
        .unwrap_or_else(calibrate_newview_secs_per_f64);
    let parallelism = ooc_core::parallelism().max(1);

    // Stage 1: enumerate. Baselines join the candidate set (deduplicated)
    // with a flag that exempts them from pruning and the probe cap.
    let enumerated = space.len();
    let (mut specs, invalid) = space.enumerate_valid();
    let mut is_baseline = vec![false; specs.len()];
    for base in baselines {
        debug_assert!(base.validate().is_ok(), "invalid baseline spec");
        match specs.iter().position(|s| s == base) {
            Some(i) => is_baseline[i] = true,
            None => {
                specs.push(base.clone());
                is_baseline.push(true);
            }
        }
    }

    // Stage 2: model. The oracle replay depends only on the slot count,
    // not on the candidate's strategy — cache it across candidates.
    let mut oracle_cache: HashMap<usize, OocStats> = HashMap::new();
    let mut candidates: Vec<Candidate> = specs
        .into_iter()
        .zip(is_baseline)
        .map(|(spec, baseline)| {
            let estimate = model_candidate(
                &spec,
                data,
                &pattern,
                cfg,
                secs_per_f64,
                parallelism,
                &mut oracle_cache,
            );
            Candidate {
                label: spec_label(&spec),
                spec,
                estimate,
                baseline,
                outcome: Outcome::Skipped,
            }
        })
        .collect();

    // Stage 3: probe in predicted order (baselines keep their slot in the
    // ordering but are probed regardless of bound or cap). The reference
    // log-likelihood guards every probe against a miscomputing config.
    candidates.sort_by(|a, b| {
        a.estimate
            .predicted_secs
            .total_cmp(&b.estimate.predicted_secs)
    });
    let lnl_ref = setup::inram_engine(data)
        .full_traversals(1)
        .expect("in-RAM reference traversal");
    let dir = tempfile::tempdir().expect("tempdir for probe backing files");
    let mut best: Option<(usize, f64)> = None;
    let (mut pruned, mut probed) = (0usize, 0usize);
    for (i, cand) in candidates.iter_mut().enumerate() {
        if !cand.baseline {
            if let Some((_, best_secs)) = best {
                if cfg.margin * cand.estimate.bound_secs > best_secs {
                    cand.outcome = Outcome::Pruned;
                    pruned += 1;
                    continue;
                }
            }
            if probed >= cfg.max_probes {
                continue; // stays Skipped
            }
        }
        let outcome = probe(
            &cand.spec,
            data,
            cfg,
            lnl_ref,
            dir.path(),
            i,
            &cand.label,
            metrics,
        );
        cand.outcome = outcome;
        probed += 1;
        if let Outcome::Measured { objective_secs, .. } = outcome {
            if best.is_none_or(|(_, b)| objective_secs < b) {
                best = Some((i, objective_secs));
            }
        }
    }
    let (best, _) = best.expect("at least one candidate must be probed");

    TuneOutcome {
        candidates,
        best,
        enumerated,
        invalid,
        pruned,
        probed,
        disk: cfg.disk,
        secs_per_f64,
        traversals: cfg.traversals,
        margin: cfg.margin,
    }
}

fn model_candidate(
    spec: &EngineSpec,
    data: &Dataset,
    pattern: &TraversalPattern,
    cfg: &TuneConfig,
    secs_per_f64: f64,
    parallelism: usize,
    oracle_cache: &mut HashMap<usize, OocStats>,
) -> ModelEstimate {
    let rounds = cfg.traversals;
    let steps = pattern.pin_groups().len();
    // Kernel cost covers the full vector width regardless of sharding;
    // shards execute combines in parallel.
    let serial_compute = secs_per_f64 * data.width(0) as f64 * (steps * rounds) as f64;
    let compute_secs = serial_compute / spec.shards.min(parallelism).max(1) as f64;

    let parts = setup::part_specs(data);
    let n_slots = spec
        .slot_counts(&data.tree, &parts)
        .expect("validated spec resolves slot counts")
        .first()
        .copied()
        .flatten();
    let Some(n_slots) = n_slots else {
        // Non-managed residency (in-RAM): no store traffic at all. The
        // tuner never models `paged` candidates — keep them out of the
        // space (the OS pager is not slot-simulable; fig5 measures it).
        assert!(
            matches!(spec.residency, Residency::InRam),
            "tuner cannot model residency '{}'",
            spec.residency.name()
        );
        return ModelEstimate {
            io_ops: 0,
            io_bytes: 0,
            io_secs: 0.0,
            compute_secs,
            predicted_secs: compute_secs,
            bound_secs: compute_secs,
        };
    };

    let ratio = compression_ratio(spec.compression);
    // One simulated manager stands for every shard: miss/eviction counts
    // depend on the slot count and access order (identical across shards),
    // while each transfer moves only that shard's slice of the width — so
    // `shards` managers moving `width/shards`-wide vectors cost the same
    // bytes and `shards ×` the per-operation seeks.
    // Dirty tracking, as `EngineSpec::build` configures its managers.
    let geo = SimGeometry::new(data.n_items(), data.width(0), n_slots).always_write_back(false);
    let replay = |kind, oracle| {
        let (strategy, _handle) = build_strategy(kind, &data.tree);
        replay::simulate(pattern, geo, strategy, rounds, oracle)
    };
    let sim = replay(spec.strategy, false);
    let io_ops = (sim.disk_reads + sim.disk_writes) * spec.shards as u64;
    let io_bytes = ((sim.bytes_read + sim.bytes_written) as f64 * ratio) as u64;
    let (read_secs, write_secs) = io_secs_of(&sim, spec.shards as u64, ratio, &cfg.disk);
    let io_secs = read_secs + write_secs;
    let predicted_secs = wall_secs(spec, compute_secs, read_secs, write_secs);

    // Lower bound: Belady replay (NextUse + full-run oracle plan) with the
    // candidate's geometry floors the miss count; perfect
    // compute/I/O overlap floors the wall time. `margin` (applied at prune
    // time) absorbs what the model cannot see.
    let oracle = *oracle_cache
        .entry(n_slots)
        .or_insert_with(|| replay(ooc_core::StrategyKind::NextUse, true));
    let (lb_reads, lb_writes) = io_secs_of(&oracle, spec.shards as u64, ratio, &cfg.disk);
    let bound_secs = compute_secs.max(lb_reads + lb_writes);

    ModelEstimate {
        io_ops,
        io_bytes,
        io_secs,
        compute_secs,
        predicted_secs,
        bound_secs,
    }
}

/// Seconds `disk` charges for the reads and for the writes of `stats`:
/// `managers` of them each issue the counted operations (1 for merged
/// statistics) to move the counted bytes between them, shrunk by the
/// compression `ratio`.
fn io_secs_of(stats: &OocStats, managers: u64, ratio: f64, disk: &DiskModel) -> (f64, f64) {
    let secs = |ops: u64, bytes: u64| {
        let bytes = (bytes as f64 * ratio) as u64;
        disk.traffic_cost_ns(ops * managers, bytes) as f64 / 1e9
    };
    (
        secs(stats.disk_reads, stats.bytes_read),
        secs(stats.disk_writes, stats.bytes_written),
    )
}

/// Wall seconds of a cell: everything in series without I/O threads; with
/// them write-backs overlap compute, reads stay on the compute thread and
/// share the one device with the writes. Never below
/// `compute.max(reads + writes)`, so the Belady bound stays a bound.
fn wall_secs(spec: &EngineSpec, compute_secs: f64, read_secs: f64, write_secs: f64) -> f64 {
    if spec.io_threads > 0 {
        read_secs + compute_secs.max(write_secs)
    } else {
        compute_secs + read_secs + write_secs
    }
}

#[allow(clippy::too_many_arguments)]
fn probe(
    spec: &EngineSpec,
    data: &Dataset,
    cfg: &TuneConfig,
    lnl_ref: f64,
    dir: &Path,
    index: usize,
    label: &str,
    metrics: &MetricsFile,
) -> Outcome {
    let cell = run_cell(
        spec,
        &CellInput::dataset(data).observed(),
        Some(dir.join(format!("probe_{index}.bin"))),
        &format!("tune-probe/{label}"),
        metrics,
        full_traversals(cfg.traversals),
    );
    assert_eq!(
        cell.value.to_bits(),
        lnl_ref.to_bits(),
        "probe '{label}' log-likelihood diverged from the in-RAM reference \
         ({} vs {lnl_ref})",
        cell.value
    );
    let att = cell.attribution[0];
    let stall_ns = att.wall_ns.saturating_sub(att.compute_ns());
    // The objective prices the probe's *achieved* traffic (the strategy's
    // real miss/write-back counts, merged across shards) on the target
    // disk, and takes the compute side from the stall attribution. That
    // keeps the objective in the bound's units: a tuner running on a
    // fast scratch disk still ranks candidates for the modelled target.
    let compute_secs = att.compute_ns() as f64 / 1e9;
    let (read_secs, write_secs) = cell.stats.map_or((0.0, 0.0), |s| {
        io_secs_of(&s, 1, compression_ratio(spec.compression), &cfg.disk)
    });
    let objective_secs = wall_secs(spec, compute_secs, read_secs, write_secs);
    Outcome::Measured {
        objective_secs,
        wall_secs: cell.secs,
        compute_secs,
        stall_secs: stall_ns as f64 / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_core::StrategyKind;

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            n_taxa: 16,
            n_sites: 120,
            seed: 9,
            ..Default::default()
        }
    }

    fn tiny_dataset() -> Dataset {
        setup::simulate_dataset(&tiny_spec())
    }

    fn tiny_space(data: &Dataset) -> (SpecSpace, u64) {
        let budget = data.total_vector_bytes() / 3;
        let base = EngineSpec {
            residency: Residency::FileLimit {
                limit_bytes: budget,
            },
            ..setup::base_spec(data)
        };
        let mut space = SpecSpace::around(base);
        space.strategies = vec![StrategyKind::Lru, StrategyKind::NextUse];
        space.compressions = vec![None, Some(CompressionMode::Exp)];
        (space, budget)
    }

    #[test]
    fn tune_finds_a_winner_and_accounts_for_every_candidate() {
        let data = tiny_dataset();
        let (space, budget) = tiny_space(&data);
        let baselines = vec![EngineSpec {
            residency: Residency::FileLimit {
                limit_bytes: budget,
            },
            strategy: StrategyKind::Lru,
            ..setup::base_spec(&data)
        }];
        let cfg = TuneConfig {
            traversals: 2,
            max_probes: 3,
            ..Default::default()
        };
        let metrics = MetricsFile::new(None);
        let outcome = tune(&data, &space, &baselines, &cfg, &metrics);
        assert_eq!(outcome.enumerated, 4);
        assert_eq!(outcome.invalid, 0);
        let measured = outcome
            .candidates
            .iter()
            .filter(|c| matches!(c.outcome, Outcome::Measured { .. }))
            .count();
        assert_eq!(measured, outcome.probed);
        assert!(outcome.probed >= 1);
        let w = outcome.winner();
        let w_secs = w.objective_secs().expect("winner was measured");
        for c in &outcome.candidates {
            if let Some(secs) = c.objective_secs() {
                assert!(w_secs <= secs, "winner {} beaten by {}", w.label, c.label);
            }
        }
        // The objective is a lower-bound-respecting quantity: the oracle
        // traffic the bound prices can never exceed what the candidate's
        // strategy actually achieved on the same disk model.
        for c in &outcome.candidates {
            if let Some(secs) = c.objective_secs() {
                assert!(
                    cfg.margin * c.estimate.bound_secs <= secs + 1e-9,
                    "{}: margined bound {} above its own measurement {}",
                    c.label,
                    cfg.margin * c.estimate.bound_secs,
                    secs
                );
            }
        }
        // Probe order is predicted order.
        for pair in outcome.candidates.windows(2) {
            assert!(pair[0].estimate.predicted_secs <= pair[1].estimate.predicted_secs);
        }
        // The profile round-trips through the CLI's spec parser.
        let profile = outcome.profile_toml(&tiny_spec());
        assert!(profile.contains(TUNE_SCHEMA));
        assert!(profile.contains("baseline_best_secs"));
        let reparsed = EngineSpec::from_toml(&profile).expect("tuned profile parses");
        assert_eq!(&reparsed, &w.spec);
    }

    #[test]
    fn bound_never_exceeds_prediction() {
        let data = tiny_dataset();
        let (space, _) = tiny_space(&data);
        let cfg = TuneConfig {
            traversals: 2,
            max_probes: 1,
            ..Default::default()
        };
        let metrics = MetricsFile::new(None);
        let outcome = tune(&data, &space, &[], &cfg, &metrics);
        for c in &outcome.candidates {
            assert!(
                c.estimate.bound_secs <= c.estimate.predicted_secs + 1e-12,
                "{}: bound {} > predicted {}",
                c.label,
                c.estimate.bound_secs,
                c.estimate.predicted_secs
            );
        }
    }

    #[test]
    fn disk_calibration_yields_a_usable_model() {
        let dir = tempfile::tempdir().unwrap();
        let model = calibrate_disk(dir.path());
        assert!(model.bandwidth_bytes_per_sec > 0);
        // A 4 MiB transfer must cost more than a 4 KiB one.
        assert!(model.op_cost_ns(4 << 20) > model.op_cost_ns(4 << 10));
    }
}
