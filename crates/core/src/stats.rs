//! Access and I/O counters.
//!
//! These counters are the raw material for every figure in the paper:
//! Figures 2 and 4 plot `miss_rate()`, Figure 3 plots `read_rate()` (which
//! equals the miss rate when read skipping is disabled), and the §3.4 claim
//! ("more than 50 % of all vector read operations and hence more than 25 %
//! of all I/O operations" are avoided) falls out of `skipped_reads`.

/// Counters kept by a [`crate::VectorManager`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OocStats {
    /// Vector accesses through the manager (the paper's "total vector
    /// requests").
    pub requests: u64,
    /// Requests satisfied from RAM.
    pub hits: u64,
    /// Requests that needed a slot swap.
    pub misses: u64,
    /// Vectors actually read from the backing store.
    pub disk_reads: u64,
    /// Vectors written to the backing store (evictions that wrote back).
    pub disk_writes: u64,
    /// Reads avoided by read skipping (the vector was materialised in the
    /// store but known to be write-only on first access).
    pub skipped_reads: u64,
    /// First-touch loads of vectors that never existed anywhere yet (no
    /// read possible, not counted as skipped).
    pub cold_loads: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Bytes read from the store.
    pub bytes_read: u64,
    /// Bytes written to the store.
    pub bytes_written: u64,
    /// Store operations that surfaced an I/O error to the caller (after
    /// any retry layer below the manager had its chance).
    pub io_errors: u64,
    /// Access plans submitted ([`crate::VectorManager::begin_plan`]).
    pub plans: u64,
    /// No effect; kept until ROADMAP item 1 re-bases `benchmark/`.
    pub staged_loads: u64,
}

impl OocStats {
    /// Fraction of requests that missed, in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.misses as f64 / self.requests as f64
        }
    }

    /// Fraction of requests that caused an actual store read, in `[0, 1]`.
    /// Equal to [`OocStats::miss_rate`] minus the effect of read skipping
    /// and cold loads.
    pub fn read_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.disk_reads as f64 / self.requests as f64
        }
    }

    /// Total store operations (reads + writes).
    pub fn io_ops(&self) -> u64 {
        self.disk_reads + self.disk_writes
    }

    /// Fraction of would-be reads that were skipped.
    pub fn skip_fraction(&self) -> f64 {
        let would_be = self.disk_reads + self.skipped_reads;
        if would_be == 0 {
            0.0
        } else {
            self.skipped_reads as f64 / would_be as f64
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = OocStats::default();
    }

    /// Difference of counters (`self - earlier`), for per-phase deltas.
    pub fn since(&self, earlier: &OocStats) -> OocStats {
        OocStats {
            requests: self.requests - earlier.requests,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            disk_reads: self.disk_reads - earlier.disk_reads,
            disk_writes: self.disk_writes - earlier.disk_writes,
            skipped_reads: self.skipped_reads - earlier.skipped_reads,
            cold_loads: self.cold_loads - earlier.cold_loads,
            evictions: self.evictions - earlier.evictions,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            io_errors: self.io_errors - earlier.io_errors,
            plans: self.plans - earlier.plans,
            staged_loads: self.staged_loads - earlier.staged_loads,
        }
    }

    /// Field-wise sum (`self + other`), the aggregate view over several
    /// managers — e.g. the per-shard managers of a sharded run. Every
    /// counter is additive, so the merged statistics of `k` disjoint shards
    /// describe the combined workload exactly.
    pub fn merged(&self, other: &OocStats) -> OocStats {
        let mut out = *self;
        out += *other;
        out
    }
}

impl std::ops::AddAssign for OocStats {
    // The single merge primitive: `Add`, `Sum` and `merged` all delegate
    // here. The exhaustive destructuring makes adding a counter without
    // merging it a compile error, so the impls can never drift.
    fn add_assign(&mut self, rhs: OocStats) {
        let OocStats {
            requests,
            hits,
            misses,
            disk_reads,
            disk_writes,
            skipped_reads,
            cold_loads,
            evictions,
            bytes_read,
            bytes_written,
            io_errors,
            plans,
            staged_loads,
        } = rhs;
        self.requests += requests;
        self.hits += hits;
        self.misses += misses;
        self.disk_reads += disk_reads;
        self.disk_writes += disk_writes;
        self.skipped_reads += skipped_reads;
        self.cold_loads += cold_loads;
        self.evictions += evictions;
        self.bytes_read += bytes_read;
        self.bytes_written += bytes_written;
        self.io_errors += io_errors;
        self.plans += plans;
        self.staged_loads += staged_loads;
    }
}

impl std::ops::Add for OocStats {
    type Output = OocStats;

    fn add(mut self, rhs: OocStats) -> OocStats {
        self += rhs;
        self
    }
}

impl std::iter::Sum for OocStats {
    fn sum<I: Iterator<Item = OocStats>>(iter: I) -> OocStats {
        iter.fold(OocStats::default(), |acc, s| acc + s)
    }
}

impl std::fmt::Display for OocStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requests={} hits={} misses={} ({:.2}%) reads={} ({:.2}%) writes={} skipped={} cold={} evictions={}",
            self.requests,
            self.hits,
            self.misses,
            self.miss_rate() * 100.0,
            self.disk_reads,
            self.read_rate() * 100.0,
            self.disk_writes,
            self.skipped_reads,
            self.cold_loads,
            self.evictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_zero_when_idle() {
        let s = OocStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.read_rate(), 0.0);
        assert_eq!(s.skip_fraction(), 0.0);
    }

    #[test]
    fn rates_computed() {
        let s = OocStats {
            requests: 200,
            hits: 180,
            misses: 20,
            disk_reads: 8,
            skipped_reads: 12,
            ..Default::default()
        };
        assert!((s.miss_rate() - 0.10).abs() < 1e-12);
        assert!((s.read_rate() - 0.04).abs() < 1e-12);
        assert!((s.skip_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts() {
        let a = OocStats {
            requests: 10,
            misses: 2,
            ..Default::default()
        };
        let b = OocStats {
            requests: 25,
            misses: 5,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.requests, 15);
        assert_eq!(d.misses, 3);
    }

    #[test]
    fn merge_is_fieldwise_sum() {
        let a = OocStats {
            requests: 10,
            hits: 6,
            misses: 4,
            disk_reads: 2,
            bytes_read: 128,
            ..Default::default()
        };
        let b = OocStats {
            requests: 5,
            hits: 1,
            misses: 4,
            disk_writes: 3,
            bytes_written: 96,
            ..Default::default()
        };
        let m = a + b;
        assert_eq!(m.requests, 15);
        assert_eq!(m.hits, 7);
        assert_eq!(m.misses, 8);
        assert_eq!(m.disk_reads, 2);
        assert_eq!(m.disk_writes, 3);
        assert_eq!(m.bytes_read, 128);
        assert_eq!(m.bytes_written, 96);
        // Sum over an iterator agrees with repeated Add, and AddAssign too.
        let total: OocStats = [a, b, a].into_iter().sum();
        let mut acc = a + b;
        acc += a;
        assert_eq!(total, acc);
        // Merging the identity is a no-op.
        assert_eq!(a + OocStats::default(), a);
    }

    #[test]
    fn field_count_guard() {
        // `AddAssign` destructures every field, so a new counter that is
        // not merged fails to compile; this guard additionally pins the
        // struct to plain u64 counters (no padding, no non-counter field
        // sneaking in) and verifies every field doubles under `x + x`.
        assert_eq!(
            std::mem::size_of::<OocStats>(),
            13 * std::mem::size_of::<u64>(),
            "OocStats gained or lost a counter: update AddAssign, since(), \
             the JSONL emitter and this guard together"
        );
        let ones = OocStats {
            requests: 1,
            hits: 1,
            misses: 1,
            disk_reads: 1,
            disk_writes: 1,
            skipped_reads: 1,
            cold_loads: 1,
            evictions: 1,
            bytes_read: 1,
            bytes_written: 1,
            io_errors: 1,
            plans: 1,
            staged_loads: 1,
        };
        let twos = OocStats {
            requests: 2,
            hits: 2,
            misses: 2,
            disk_reads: 2,
            disk_writes: 2,
            skipped_reads: 2,
            cold_loads: 2,
            evictions: 2,
            bytes_read: 2,
            bytes_written: 2,
            io_errors: 2,
            plans: 2,
            staged_loads: 2,
        };
        assert_eq!(ones + ones, twos);
        assert_eq!(ones.merged(&ones), twos);
        let mut acc = ones;
        acc += ones;
        assert_eq!(acc, twos);
        assert_eq!([ones, ones].into_iter().sum::<OocStats>(), twos);
    }

    #[test]
    fn display_contains_percentages() {
        let s = OocStats {
            requests: 100,
            misses: 25,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("25.00%"));
    }
}
