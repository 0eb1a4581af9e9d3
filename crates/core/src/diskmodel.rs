//! Disk cost model.
//!
//! Figure 5 of the paper runs datasets of up to 32 GB against a 2 GB-RAM
//! machine. Re-running that geometry verbatim needs tens of gigabytes of
//! physical I/O; a replay instead charges each store operation a
//! [`DiskModel`] latency + bandwidth cost against a virtual clock, so the
//! paper-scale experiment can be *replayed* (same access sequence, same
//! swap decisions) in seconds. Scaled-down runs with real I/O validate the
//! model's shape; see `crates/bench/src/{replay.rs,cmd/fig5.rs}`.

/// Latency/bandwidth cost model of one storage device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Fixed per-operation cost in nanoseconds (seek + request overhead).
    pub seek_ns: u64,
    /// Sustained transfer bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
}

impl DiskModel {
    /// A 2010-era 7200 rpm SATA disk, the class of device in the paper's
    /// test systems: ~8 ms average seek, ~100 MB/s sequential transfer.
    pub fn hdd_2010() -> Self {
        DiskModel {
            seek_ns: 8_000_000,
            bandwidth_bytes_per_sec: 100_000_000,
        }
    }

    /// A commodity SATA SSD: ~80 µs access, ~500 MB/s.
    pub fn ssd() -> Self {
        DiskModel {
            seek_ns: 80_000,
            bandwidth_bytes_per_sec: 500_000_000,
        }
    }

    /// Cost of transferring `bytes` in nanoseconds.
    pub fn op_cost_ns(&self, bytes: u64) -> u64 {
        self.seek_ns + bytes.saturating_mul(1_000_000_000) / self.bandwidth_bytes_per_sec
    }

    /// Cost of an aggregate traffic summary — `ops` operations moving
    /// `bytes` in total — in nanoseconds. This is what a simulator that
    /// only counted operations (no virtual clock) converts to time: the
    /// same sum as charging [`Self::op_cost_ns`] per operation.
    pub fn traffic_cost_ns(&self, ops: u64, bytes: u64) -> u64 {
        ops.saturating_mul(self.seek_ns)
            + bytes.saturating_mul(1_000_000_000) / self.bandwidth_bytes_per_sec
    }

    /// Stable keyword of the named presets, `"custom"` otherwise.
    pub fn name(&self) -> &'static str {
        if *self == DiskModel::hdd_2010() {
            "hdd"
        } else if *self == DiskModel::ssd() {
            "ssd"
        } else {
            "custom"
        }
    }

    /// Parse a preset keyword (the `--disk` flag of the bench binaries).
    pub fn from_name(name: &str) -> Option<DiskModel> {
        match name {
            "hdd" | "hdd-2010" => Some(DiskModel::hdd_2010()),
            "ssd" => Some(DiskModel::ssd()),
            _ => None,
        }
    }

    /// Fit a model from two timed transfer probes on the target device: a
    /// small one (seek-dominated) and a large one (bandwidth-dominated),
    /// each given as mean nanoseconds per operation. Solving
    /// `t = seek + bytes/bw` through both points separates the fixed
    /// per-operation cost from the streaming rate; degenerate inputs
    /// (equal sizes, non-monotone timings — e.g. everything served from
    /// page cache) collapse to a pure-bandwidth model with zero seek so
    /// the fit never divides by zero or goes negative.
    pub fn fit_from_probes(
        small_bytes: u64,
        small_ns_per_op: f64,
        large_bytes: u64,
        large_ns_per_op: f64,
    ) -> DiskModel {
        let db = large_bytes.saturating_sub(small_bytes) as f64;
        let dt = large_ns_per_op - small_ns_per_op;
        if db <= 0.0 || dt <= 0.0 {
            // No usable slope: charge everything to bandwidth.
            let ns = large_ns_per_op.max(1.0);
            return DiskModel {
                seek_ns: 0,
                bandwidth_bytes_per_sec: ((large_bytes.max(1) as f64 * 1e9 / ns) as u64).max(1),
            };
        }
        let bw = (db * 1e9 / dt).max(1.0);
        let seek = (small_ns_per_op - small_bytes as f64 * 1e9 / bw).max(0.0);
        DiskModel {
            seek_ns: seek as u64,
            bandwidth_bytes_per_sec: bw as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cost_combines_seek_and_transfer() {
        let m = DiskModel {
            seek_ns: 1000,
            bandwidth_bytes_per_sec: 1_000_000_000, // 1 GB/s = 1 byte/ns
        };
        assert_eq!(m.op_cost_ns(0), 1000);
        assert_eq!(m.op_cost_ns(500), 1500);
    }

    #[test]
    fn hdd_costs_dwarf_vector_math() {
        // One 1.28 MB vector (the paper's example: 10,000 sites DNA+Γ) costs
        // ~8 ms seek + ~12.8 ms transfer on the 2010 HDD model.
        let cost = DiskModel::hdd_2010().op_cost_ns(1_280_000);
        assert!(cost > 20_000_000 && cost < 22_000_000, "cost {cost}");
    }

    #[test]
    fn traffic_cost_matches_per_op_charging() {
        let m = DiskModel::hdd_2010();
        let per_op: u64 = (0..7).map(|_| m.op_cost_ns(1024)).sum();
        assert_eq!(m.traffic_cost_ns(7, 7 * 1024), per_op);
        // A transfer that is not a whole number of nanoseconds: charging
        // per operation rounds each one down (Figure 5's model keeps that),
        // the aggregate rounds once — less than 1 ns per operation apart.
        let odd = DiskModel {
            seek_ns: 9_000_000,
            bandwidth_bytes_per_sec: 110_000_000,
        };
        assert_ne!(1000 * 1_000_000_000 % odd.bandwidth_bytes_per_sec, 0);
        let (per_op, total) = (7 * odd.op_cost_ns(1000), odd.traffic_cost_ns(7, 7000));
        assert!(per_op <= total && total < per_op + 7, "{per_op} vs {total}");
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(DiskModel::from_name("hdd"), Some(DiskModel::hdd_2010()));
        assert_eq!(DiskModel::from_name("ssd"), Some(DiskModel::ssd()));
        assert_eq!(DiskModel::from_name("floppy"), None);
        assert_eq!(DiskModel::hdd_2010().name(), "hdd");
        assert_eq!(DiskModel::ssd().name(), "ssd");
        let custom = DiskModel {
            seek_ns: 1,
            bandwidth_bytes_per_sec: 2,
        };
        assert_eq!(custom.name(), "custom");
    }

    #[test]
    fn fit_recovers_a_known_model() {
        let truth = DiskModel {
            seek_ns: 100_000,
            bandwidth_bytes_per_sec: 250_000_000,
        };
        let small = 4096u64;
        let large = 4 << 20;
        let fitted = DiskModel::fit_from_probes(
            small,
            truth.op_cost_ns(small) as f64,
            large,
            truth.op_cost_ns(large) as f64,
        );
        let bw_err = (fitted.bandwidth_bytes_per_sec as f64 - truth.bandwidth_bytes_per_sec as f64)
            .abs()
            / truth.bandwidth_bytes_per_sec as f64;
        assert!(bw_err < 0.01, "bandwidth off by {bw_err}");
        assert!(
            (fitted.seek_ns as i64 - truth.seek_ns as i64).unsigned_abs() < 2_000,
            "seek {} vs {}",
            fitted.seek_ns,
            truth.seek_ns
        );
    }

    #[test]
    fn fit_degenerate_probes_fall_back_to_bandwidth() {
        // Page-cached "disk": the large probe is as fast as the small one.
        let m = DiskModel::fit_from_probes(4096, 500.0, 4 << 20, 400.0);
        assert_eq!(m.seek_ns, 0);
        assert!(m.bandwidth_bytes_per_sec > 0);
        // Equal sizes cannot produce a slope either.
        let m = DiskModel::fit_from_probes(4096, 1.0, 4096, 2.0);
        assert_eq!(m.seek_ns, 0);
    }
}
