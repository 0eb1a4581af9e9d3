//! **`check`** — schema and reconciliation validator for the JSONL
//! stall-attribution streams the `--metrics FILE` flag produces (CLI,
//! `ooc-serve` and every `ooc-bench` experiment). CI runs it after a
//! `--metrics` smoke run; it is also the offline answer to "did the
//! observability layer double-count?".
//!
//! Checks, per line:
//!
//! - the line parses as JSON with `"type"` ∈ {`event`, `hist`, `ooc-stats`,
//!   `profile`} (a NaN rate would already fail the parse — `NaN` is not
//!   JSON);
//! - `event`: required fields, `kind` is one of the five stall kinds;
//! - `hist`: bucket counts sum to `count`, `min_ns <= max_ns`;
//! - `ooc-stats`: all counters present and integral, rates finite.
//!
//! And per scope that carries an `ooc-stats` record:
//!
//! - manager `demand-read` events == `disk_reads` (a read that succeeded
//!   after retries is still ONE event and ONE counted read);
//! - manager `write-back` events == `disk_writes`.
//!
//! With `--reconcile-compression`, every scope carrying the codec's
//! `compress/bytes-logical` / `compress/bytes-disk` histograms must show
//! matching write counts and strictly fewer bytes on disk than logical
//! (the stream must contain at least one such scope), and the summary
//! prints the achieved ratio.
//!
//! With `--summary-from FILE`, the same validation runs and then every
//! scope's compute-vs-stall split — the objective `ooc-bench tune` ranks
//! probe candidates by — is re-derived *from the stream alone*: wall from
//! the `plf/combine-batch` event spans, top-level stall classes from their
//! event durations, compute as the clamped residual. This is the offline
//! cross-check that a tuned
//! profile's claimed split can be reproduced from its probe trace.
//!
//! ```sh
//! ooc-bench check metrics.jsonl
//! ooc-bench check --summary-from probe.jsonl
//! ```
//!
//! Exits non-zero with a message on the first hard failure class; prints
//! a per-scope summary on success. Lines are read with the workspace's one
//! JSON parser, [`ooc_core::json`].

use super::Command;
use ooc_core::json::{get_str, get_u64, Value};
use phylo_ooc::args::{Args, Flag};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};

// ---------------------------------------------------------------------------
// Schema checks.
// ---------------------------------------------------------------------------

const KINDS: [&str; 5] = [
    "compute",
    "demand-read",
    "write-back",
    "retry-backoff",
    "barrier-wait",
];

#[derive(Default)]
struct ScopeTally {
    events: u64,
    hists: u64,
    demand_read_events: u64,
    write_back_events: u64,
    /// Event duration totals per stall kind, indexed as [`KINDS`].
    kind_dur_ns: [u64; 5],
    /// Duration total of `plf/combine-batch` events — each one wraps a
    /// full traversal batch (compute *and* the residency stalls inside
    /// it), so their sum reconstructs the probe's wall time.
    combine_batch_ns: u64,
    /// Compression byte totals as `(writes, bytes)`: the codec samples
    /// one `compress/bytes-logical` and one `compress/bytes-disk` entry
    /// per item write, with the byte count travelling in the histogram
    /// sum.
    compress_logical: Option<(u64, u64)>,
    compress_disk: Option<(u64, u64)>,
    stats: Option<(u64, u64)>, // (disk_reads, disk_writes)
    /// Profile (engine-spec header) records seen; at most one per scope.
    profiles: u64,
}

/// A scope's compute-vs-stall split re-derived from its event stream —
/// the tuner's probe objective, reconstructed offline.
struct ObjectiveSummary {
    wall_ns: u64,
    compute_ns: u64,
    demand_read_ns: u64,
    write_back_ns: u64,
    barrier_wait_ns: u64,
    retry_backoff_ns: u64,
}

impl ObjectiveSummary {
    fn stall_ns(&self) -> u64 {
        self.demand_read_ns + self.write_back_ns + self.barrier_wait_ns + self.retry_backoff_ns
    }
}

impl ScopeTally {
    /// Re-derive the stall attribution from the stream: wall from the
    /// combine-batch spans, top-level stall classes from their event
    /// durations, and compute as the clamped residual.
    fn objective_summary(&self) -> ObjectiveSummary {
        let kind = |name: &str| self.kind_dur_ns[KINDS.iter().position(|k| *k == name).unwrap()];
        let s = ObjectiveSummary {
            wall_ns: self.combine_batch_ns,
            compute_ns: 0,
            demand_read_ns: kind("demand-read"),
            write_back_ns: kind("write-back"),
            barrier_wait_ns: kind("barrier-wait"),
            retry_backoff_ns: kind("retry-backoff"),
        };
        ObjectiveSummary {
            compute_ns: s.wall_ns.saturating_sub(s.stall_ns()),
            ..s
        }
    }
}

fn check_event(v: &Value, tally: &mut ScopeTally) -> Result<(), String> {
    let layer = get_str(v, "layer")?;
    let op = get_str(v, "op")?;
    let kind = get_str(v, "kind")?;
    let Some(kind_idx) = KINDS.iter().position(|k| *k == kind) else {
        return Err(format!("unknown stall kind '{kind}'"));
    };
    get_u64(v, "ts_ns")?;
    let dur_ns = get_u64(v, "dur_ns")?;
    get_u64(v, "bytes")?;
    get_u64(v, "n")?;
    for key in ["item", "shard"] {
        match v.get(key) {
            Some(Value::Null | Value::Int(_)) => {}
            _ => return Err(format!("field '{key}' must be null or an integer")),
        }
    }
    tally.events += 1;
    tally.kind_dur_ns[kind_idx] += dur_ns;
    if layer == "plf" && op == "combine-batch" {
        tally.combine_batch_ns += dur_ns;
    }
    if layer == "manager" && op == "demand-read" {
        tally.demand_read_events += 1;
    }
    if layer == "manager" && op == "write-back" {
        tally.write_back_events += 1;
    }
    Ok(())
}

fn check_hist(v: &Value, tally: &mut ScopeTally) -> Result<(), String> {
    let layer = get_str(v, "layer")?;
    let op = get_str(v, "op")?;
    let count = get_u64(v, "count")?;
    let sum_ns = get_u64(v, "sum_ns")?;
    match (layer, op) {
        ("compress", "bytes-logical") => {
            let (c, s) = tally.compress_logical.unwrap_or((0, 0));
            tally.compress_logical = Some((c + count, s + sum_ns));
        }
        ("compress", "bytes-disk") => {
            let (c, s) = tally.compress_disk.unwrap_or((0, 0));
            tally.compress_disk = Some((c + count, s + sum_ns));
        }
        _ => {}
    }
    let min = get_u64(v, "min_ns")?;
    let max = get_u64(v, "max_ns")?;
    if count > 0 && min > max {
        return Err(format!("histogram min_ns {min} > max_ns {max}"));
    }
    let buckets = v
        .get("buckets")
        .and_then(Value::as_array)
        .ok_or("missing or non-array field 'buckets'")?;
    let mut bucket_total = 0u64;
    for b in buckets {
        let pair = b.as_array().filter(|p| p.len() == 2);
        let pair = pair.ok_or("bucket entries must be [index, count] pairs")?;
        pair[0].as_u64().ok_or("bucket index must be an integer")?;
        bucket_total += pair[1].as_u64().ok_or("bucket count must be an integer")?;
    }
    if bucket_total != count {
        return Err(format!(
            "bucket counts sum to {bucket_total} but 'count' is {count}"
        ));
    }
    tally.hists += 1;
    Ok(())
}

const STAT_COUNTERS: [&str; 12] = [
    "requests",
    "hits",
    "misses",
    "disk_reads",
    "disk_writes",
    "skipped_reads",
    "cold_loads",
    "evictions",
    "bytes_read",
    "bytes_written",
    "io_errors",
    "plans",
];

fn check_stats(v: &Value, tally: &mut ScopeTally) -> Result<(), String> {
    for key in STAT_COUNTERS {
        get_u64(v, key)?;
    }
    for key in ["miss_rate", "read_rate"] {
        let r = v
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field '{key}'"))?;
        if !r.is_finite() {
            return Err(format!("field '{key}' is not finite: {r}"));
        }
    }
    tally.stats = Some((get_u64(v, "disk_reads")?, get_u64(v, "disk_writes")?));
    Ok(())
}

fn check_profile(v: &Value, tally: &mut ScopeTally) -> Result<(), String> {
    let profile = get_str(v, "profile")?;
    if profile.trim().is_empty() {
        return Err("field 'profile' must not be empty".into());
    }
    if tally.profiles > 0 {
        return Err("duplicate profile record for scope".into());
    }
    tally.profiles += 1;
    Ok(())
}

fn run(path: &str, reconcile_compression: bool, summary: bool) -> Result<(), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open '{path}': {e}"))?;
    let mut scopes: BTreeMap<String, ScopeTally> = BTreeMap::new();
    let mut lines = 0u64;
    for (idx, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", idx + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let v = Value::parse(&line).map_err(|e| format!("line {}: invalid JSON: {e}", idx + 1))?;
        let at = |e: String| format!("line {}: {e}", idx + 1);
        let ty = get_str(&v, "type").map_err(at)?.to_owned();
        let scope = get_str(&v, "scope").map_err(at)?.to_owned();
        let tally = scopes.entry(scope).or_default();
        match ty.as_str() {
            "event" => check_event(&v, tally).map_err(at)?,
            "hist" => check_hist(&v, tally).map_err(at)?,
            "ooc-stats" => check_stats(&v, tally).map_err(at)?,
            "profile" => check_profile(&v, tally).map_err(at)?,
            other => return Err(at(format!("unknown record type '{other}'"))),
        }
    }
    if lines == 0 {
        return Err(format!("'{path}' contains no records"));
    }

    // Reconcile event counts against the counter snapshot, per scope.
    // Every scope that went through a VectorManager must agree exactly:
    // retried ops may not double-count, and hist-only spans
    // (hits/misses/evictions) emit no events.
    for (scope, t) in &scopes {
        let Some((disk_reads, disk_writes)) = t.stats else {
            continue;
        };
        if t.demand_read_events != disk_reads {
            return Err(format!(
                "scope '{scope}': {} manager demand-read events but \
                 ooc-stats reports disk_reads = {disk_reads}",
                t.demand_read_events
            ));
        }
        if t.write_back_events != disk_writes {
            return Err(format!(
                "scope '{scope}': {} manager write-back events but \
                 ooc-stats reports disk_writes = {disk_writes}",
                t.write_back_events
            ));
        }
    }

    // Compression reconciliation (opt-in, for metered compressed smokes):
    // the codec samples both byte histograms from the same write path, so
    // their write counts must agree per scope, and the whole point of the
    // codec is that fewer bytes hit the store than the decoded vectors
    // hold — `bytes-disk` strictly below `bytes-logical`.
    if reconcile_compression {
        let mut compressed_scopes = 0usize;
        for (scope, t) in &scopes {
            let (logical, disk) = match (t.compress_logical, t.compress_disk) {
                (None, None) => continue,
                (Some(l), Some(d)) => (l, d),
                _ => {
                    return Err(format!(
                        "scope '{scope}': compression histograms are one-sided \
                         (bytes-logical {:?}, bytes-disk {:?})",
                        t.compress_logical, t.compress_disk
                    ))
                }
            };
            compressed_scopes += 1;
            if logical.0 != disk.0 {
                return Err(format!(
                    "scope '{scope}': {} bytes-logical writes but {} bytes-disk writes",
                    logical.0, disk.0
                ));
            }
            if logical.0 > 0 && disk.1 >= logical.1 {
                return Err(format!(
                    "scope '{scope}': compression moved {} bytes to disk for \
                     {} logical bytes (no shrink)",
                    disk.1, logical.1
                ));
            }
        }
        if compressed_scopes == 0 {
            return Err(format!(
                "--reconcile-compression: '{path}' carries no compress/bytes-* histograms"
            ));
        }
    }

    println!(
        "{path}: {lines} records across {} scope(s) OK",
        scopes.len()
    );
    for (scope, t) in &scopes {
        let rec = match t.stats {
            Some((r, w)) => format!("reconciled (reads {r}, writes {w})"),
            None => "no ooc-stats record (reconciliation skipped)".to_owned(),
        };
        let compression = match (t.compress_logical, t.compress_disk) {
            (Some((_, logical)), Some((_, disk))) if disk > 0 => {
                format!(
                    ", compression {:.3}x ({disk} of {logical} bytes)",
                    logical as f64 / disk as f64
                )
            }
            _ => String::new(),
        };
        println!(
            "  {scope}: {} events, {} histograms{compression} — {rec}",
            t.events, t.hists
        );
    }

    // `--summary-from`: the tuner's compute-vs-stall objective split,
    // re-derived per scope from the stream alone.
    if summary {
        let ms = |ns: u64| ns as f64 / 1e6;
        println!("\nobjective split (re-derived from events):");
        for (scope, t) in &scopes {
            let s = t.objective_summary();
            if s.wall_ns == 0 {
                println!("  {scope}: no combine-batch spans (not an engine probe scope)");
                continue;
            }
            let stall_fraction = s.stall_ns() as f64 / s.wall_ns as f64;
            println!(
                "  {scope}: wall {:.3} ms = compute {:.3} ms + stalls {:.3} ms \
                 ({:.1}% — demand-read {:.3}, write-back {:.3}, barrier {:.3}, \
                 retry {:.3})",
                ms(s.wall_ns),
                ms(s.compute_ns),
                ms(s.stall_ns()),
                stall_fraction * 100.0,
                ms(s.demand_read_ns),
                ms(s.write_back_ns),
                ms(s.barrier_wait_ns),
                ms(s.retry_backoff_ns),
            );
        }
    }
    Ok(())
}

pub const CHECK: Command = Command {
    name: "check",
    about: "validate and reconcile a --metrics JSONL stream",
    flags: &[
        Flag::switch(
            "reconcile-compression",
            "codec byte histograms must reconcile and show a shrink",
        ),
        Flag::text(
            "summary-from",
            "",
            "the stream; also print the re-derived objective split",
        ),
    ],
    positional: Some("metrics.jsonl"),
    run: check,
};

fn check(args: &Args) -> Result<(), String> {
    let summary_from = args.string("summary-from");
    let path = match (args.positional(), summary_from.as_str()) {
        (Some(path), _) => path,
        (None, "") => return Err("needs a metrics file (ooc-bench check FILE)".into()),
        (None, path) => path,
    };
    run(
        path,
        args.flag("reconcile-compression"),
        !summary_from.is_empty(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_event_line() {
        let line = r#"{"type":"event","scope":"s","ts_ns":1,"dur_ns":2,"layer":"manager","op":"demand-read","kind":"demand-read","item":7,"shard":null,"bytes":64,"n":1}"#;
        let v = Value::parse(line).unwrap();
        let mut t = ScopeTally::default();
        check_event(&v, &mut t).unwrap();
        assert_eq!(t.demand_read_events, 1);
    }

    #[test]
    fn parser_rejects_bad_kind_and_nan() {
        let bad_kind = r#"{"type":"event","scope":"s","ts_ns":1,"dur_ns":2,"layer":"x","op":"y","kind":"sleeping","item":null,"shard":null,"bytes":0,"n":1}"#;
        let v = Value::parse(bad_kind).unwrap();
        assert!(check_event(&v, &mut ScopeTally::default()).is_err());
        assert!(Value::parse(r#"{"miss_rate":NaN}"#).is_err());
    }

    #[test]
    fn stats_record_requires_every_counter() {
        let line = r#"{"type":"ooc-stats","scope":"s","requests":1,"hits":0,"misses":1,"disk_reads":1,"disk_writes":0,"skipped_reads":0,"cold_loads":0,"evictions":0,"bytes_read":8,"bytes_written":0,"io_errors":0,"plans":0,"miss_rate":1.0,"read_rate":1.0}"#;
        let mut t = ScopeTally::default();
        check_stats(&Value::parse(line).unwrap(), &mut t).unwrap();
        assert_eq!(t.stats, Some((1, 0)));
        let missing = line.replace(r#""plans":0,"#, "");
        assert!(check_stats(&Value::parse(&missing).unwrap(), &mut ScopeTally::default()).is_err());
    }

    #[test]
    fn profile_record_checks_and_rejects_duplicates() {
        let line = r#"{"type":"profile","scope":"tenant-a/job-1","profile":"backend = \"sharded\"\nshards = 4\n"}"#;
        let v = Value::parse(line).unwrap();
        let mut t = ScopeTally::default();
        check_profile(&v, &mut t).unwrap();
        assert_eq!(t.profiles, 1);
        // A second profile for the same scope is a schema violation.
        assert!(check_profile(&v, &mut t).is_err());
        // An empty profile is too.
        let empty = r#"{"type":"profile","scope":"s","profile":""}"#;
        assert!(check_profile(&Value::parse(empty).unwrap(), &mut ScopeTally::default()).is_err());
    }

    #[test]
    fn compression_hists_feed_the_tally() {
        let mut t = ScopeTally::default();
        let line = r#"{"type":"hist","scope":"s","layer":"compress","op":"bytes-logical","count":3,"sum_ns":3000,"min_ns":1000,"max_ns":1000,"buckets":[[10,3]]}"#;
        check_hist(&Value::parse(line).unwrap(), &mut t).unwrap();
        let line = r#"{"type":"hist","scope":"s","layer":"compress","op":"bytes-disk","count":3,"sum_ns":900,"min_ns":300,"max_ns":300,"buckets":[[9,3]]}"#;
        check_hist(&Value::parse(line).unwrap(), &mut t).unwrap();
        assert_eq!(t.compress_logical, Some((3, 3000)));
        assert_eq!(t.compress_disk, Some((3, 900)));
        // A second dump accumulates rather than overwrites.
        let line = r#"{"type":"hist","scope":"s","layer":"compress","op":"bytes-disk","count":1,"sum_ns":100,"min_ns":100,"max_ns":100,"buckets":[[7,1]]}"#;
        check_hist(&Value::parse(line).unwrap(), &mut t).unwrap();
        assert_eq!(t.compress_disk, Some((4, 1000)));
    }

    #[test]
    fn objective_summary_rederives_the_split() {
        let mut t = ScopeTally::default();
        // One combine batch of 10 ms wall.
        let batch = r#"{"type":"event","scope":"s","ts_ns":0,"dur_ns":10000000,"layer":"plf","op":"combine-batch","kind":"compute","item":null,"shard":null,"bytes":0,"n":21}"#;
        check_event(&Value::parse(batch).unwrap(), &mut t).unwrap();
        // 3 ms of demand reads.
        let read = r#"{"type":"event","scope":"s","ts_ns":1,"dur_ns":3000000,"layer":"manager","op":"demand-read","kind":"demand-read","item":4,"shard":null,"bytes":64,"n":1}"#;
        check_event(&Value::parse(read).unwrap(), &mut t).unwrap();
        // 2 ms of write-backs.
        let wb = r#"{"type":"event","scope":"s","ts_ns":2,"dur_ns":2000000,"layer":"manager","op":"write-back","kind":"write-back","item":5,"shard":null,"bytes":64,"n":1}"#;
        check_event(&Value::parse(wb).unwrap(), &mut t).unwrap();

        let s = t.objective_summary();
        assert_eq!(s.wall_ns, 10_000_000);
        assert_eq!(s.demand_read_ns, 3_000_000);
        assert_eq!(s.write_back_ns, 2_000_000);
        assert_eq!(s.stall_ns(), 5_000_000);
        assert_eq!(s.compute_ns, 5_000_000); // wall minus top-level stalls
    }

    #[test]
    fn hist_bucket_sum_must_match_count() {
        let line = r#"{"type":"hist","scope":"s","layer":"l","op":"o","count":3,"sum_ns":30,"min_ns":5,"max_ns":20,"buckets":[[3,2],[4,1]]}"#;
        let v = Value::parse(line).unwrap();
        check_hist(&v, &mut ScopeTally::default()).unwrap();
        let short = line.replace("[[3,2],[4,1]]", "[[3,2]]");
        let v = Value::parse(&short).unwrap();
        assert!(check_hist(&v, &mut ScopeTally::default()).is_err());
    }
}
