//! Deterministic fault injection for backing stores.
//!
//! [`FaultInjectingStore`] wraps any [`BackingStore`] and fails operations
//! according to a seedable, fully deterministic [`FaultPlan`]. It exists for
//! two consumers: the fault-tolerance test suites (prove that an I/O error
//! surfaces as a contextual [`crate::OocError`] instead of a panic, and that
//! manager bookkeeping survives), and bench ablations that measure the cost
//! of retries under a given error rate.

use crate::manager::ItemId;
use crate::store::BackingStore;
use std::io;

/// Which operation class a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// `read` calls.
    Read,
    /// `write` calls.
    Write,
    /// `flush` calls.
    Flush,
}

/// The error kind an injected fault reports.
///
/// `Transient` maps to [`io::ErrorKind::Interrupted`] (retryable, like
/// `EINTR`); `Permanent` maps to [`io::ErrorKind::PermissionDenied`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Retryable failure (`ErrorKind::Interrupted`).
    Transient,
    /// Non-retryable failure (`ErrorKind::PermissionDenied`).
    Permanent,
}

impl FaultKind {
    fn error_kind(self) -> io::ErrorKind {
        match self {
            FaultKind::Transient => io::ErrorKind::Interrupted,
            FaultKind::Permanent => io::ErrorKind::PermissionDenied,
        }
    }
}

/// One deterministic failure rule. Operation indices are per-class counters:
/// the first `read` ever issued through the wrapper is read #0, and so on.
#[derive(Debug, Clone, Copy)]
pub enum FaultRule {
    /// Fail operations `start .. start + count` of class `op`.
    Window {
        /// Operation class the rule matches.
        op: FaultOp,
        /// First per-class operation index to fail.
        start: u64,
        /// Number of consecutive operations to fail.
        count: u64,
        /// Error kind to report.
        kind: FaultKind,
    },
    /// Fail every operation of class `op` from index `start` on.
    From {
        /// Operation class the rule matches.
        op: FaultOp,
        /// First per-class operation index to fail.
        start: u64,
        /// Error kind to report.
        kind: FaultKind,
    },
    /// Fail `permille`/1000 of operations of class `op`, chosen by a seeded
    /// hash of the operation index — deterministic for a given seed.
    Random {
        /// Operation class the rule matches.
        op: FaultOp,
        /// Hash seed.
        seed: u64,
        /// Failure probability in permille (0..=1000).
        permille: u16,
        /// Error kind to report.
        kind: FaultKind,
    },
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultRule {
    fn matches(&self, op: FaultOp, index: u64) -> Option<FaultKind> {
        match *self {
            FaultRule::Window {
                op: o,
                start,
                count,
                kind,
            } if o == op && index >= start && index < start + count => Some(kind),
            FaultRule::From { op: o, start, kind } if o == op && index >= start => Some(kind),
            FaultRule::Random {
                op: o,
                seed,
                permille,
                kind,
            } if o == op && (splitmix64(seed ^ index) % 1000) < permille as u64 => Some(kind),
            _ => None,
        }
    }
}

/// A deterministic schedule of injected failures.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Plan with no failures.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add a rule (builder style).
    pub fn with(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Fail reads `start..start+count` with a transient error.
    pub fn transient_reads(start: u64, count: u64) -> Self {
        FaultPlan::none().with(FaultRule::Window {
            op: FaultOp::Read,
            start,
            count,
            kind: FaultKind::Transient,
        })
    }

    /// Fail writes `start..start+count` with a transient error.
    pub fn transient_writes(start: u64, count: u64) -> Self {
        FaultPlan::none().with(FaultRule::Window {
            op: FaultOp::Write,
            start,
            count,
            kind: FaultKind::Transient,
        })
    }

    /// Fail writes `start..start+count` with a permanent error.
    pub fn permanent_writes(start: u64, count: u64) -> Self {
        FaultPlan::none().with(FaultRule::Window {
            op: FaultOp::Write,
            start,
            count,
            kind: FaultKind::Permanent,
        })
    }

    fn check(&self, op: FaultOp, index: u64) -> Option<FaultKind> {
        self.rules.iter().find_map(|r| r.matches(op, index))
    }
}

/// Counters of injected faults, by operation class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads attempted through the wrapper.
    pub reads: u64,
    /// Writes attempted through the wrapper.
    pub writes: u64,
    /// Flushes attempted through the wrapper.
    pub flushes: u64,
    /// Faults injected into reads.
    pub read_faults: u64,
    /// Faults injected into writes.
    pub write_faults: u64,
    /// Faults injected into flushes.
    pub flush_faults: u64,
}

impl FaultStats {
    /// Total faults injected.
    pub fn total_faults(&self) -> u64 {
        self.read_faults + self.write_faults + self.flush_faults
    }
}

/// A [`BackingStore`] wrapper that injects failures per a [`FaultPlan`].
///
/// Failed operations do **not** reach the inner store: a faulted write
/// leaves the stored data untouched, a faulted read leaves the buffer
/// untouched — modelling a syscall that failed before transferring data.
#[derive(Debug)]
pub struct FaultInjectingStore<S> {
    inner: S,
    plan: FaultPlan,
    stats: FaultStats,
}

impl<S: BackingStore> FaultInjectingStore<S> {
    /// Wrap `inner`, failing operations per `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultInjectingStore {
            inner,
            plan,
            stats: FaultStats::default(),
        }
    }

    /// Fault counters so far.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn injected(kind: FaultKind, op: FaultOp, index: u64) -> io::Error {
        io::Error::new(
            kind.error_kind(),
            format!("injected {op:?} fault at operation {index}"),
        )
    }
}

impl<S: BackingStore> BackingStore for FaultInjectingStore<S> {
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
        let index = self.stats.reads;
        self.stats.reads += 1;
        if let Some(kind) = self.plan.check(FaultOp::Read, index) {
            self.stats.read_faults += 1;
            return Err(Self::injected(kind, FaultOp::Read, index));
        }
        self.inner.read(item, buf)
    }

    fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
        let index = self.stats.writes;
        self.stats.writes += 1;
        if let Some(kind) = self.plan.check(FaultOp::Write, index) {
            self.stats.write_faults += 1;
            return Err(Self::injected(kind, FaultOp::Write, index));
        }
        self.inner.write(item, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        let index = self.stats.flushes;
        self.stats.flushes += 1;
        if let Some(kind) = self.plan.check(FaultOp::Flush, index) {
            self.stats.flush_faults += 1;
            return Err(Self::injected(kind, FaultOp::Flush, index));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    #[test]
    fn window_rule_fails_exact_operations() {
        let mut s = FaultInjectingStore::new(MemStore::new(4, 4), FaultPlan::transient_reads(1, 2));
        let data = vec![1.0; 4];
        let mut buf = vec![0.0; 4];
        for i in 0..4 {
            s.write(i, &data).unwrap();
        }
        assert!(s.read(0, &mut buf).is_ok()); // read #0
        let e = s.read(0, &mut buf).unwrap_err(); // read #1
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        assert!(s.read(0, &mut buf).is_err()); // read #2
        assert!(s.read(0, &mut buf).is_ok()); // read #3
        assert_eq!(s.fault_stats().read_faults, 2);
        assert_eq!(s.fault_stats().reads, 4);
    }

    #[test]
    fn faulted_write_does_not_reach_inner_store() {
        let plan = FaultPlan::none().with(FaultRule::Window {
            op: FaultOp::Write,
            start: 1,
            count: 1,
            kind: FaultKind::Permanent,
        });
        let mut s = FaultInjectingStore::new(MemStore::new(2, 4), plan);
        s.write(0, &[1.0; 4]).unwrap();
        let e = s.write(0, &[2.0; 4]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::PermissionDenied);
        let mut buf = vec![0.0; 4];
        s.read(0, &mut buf).unwrap();
        assert_eq!(buf, vec![1.0; 4], "failed write must not alter stored data");
    }

    #[test]
    fn random_rule_is_deterministic_and_roughly_calibrated() {
        let plan = |seed| {
            FaultPlan::none().with(FaultRule::Random {
                op: FaultOp::Write,
                seed,
                permille: 200,
                kind: FaultKind::Transient,
            })
        };
        let run = |seed| {
            let mut s = FaultInjectingStore::new(MemStore::new(1, 2), plan(seed));
            let mut pattern = Vec::new();
            for _ in 0..1000 {
                pattern.push(s.write(0, &[0.0; 2]).is_err());
            }
            pattern
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must give the same schedule");
        let faults = a.iter().filter(|&&f| f).count();
        assert!(
            (100..350).contains(&faults),
            "~20% fault rate expected, got {faults}/1000"
        );
        let c = run(8);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn from_rule_fails_everything_after_start() {
        let plan = FaultPlan::none().with(FaultRule::From {
            op: FaultOp::Flush,
            start: 2,
            kind: FaultKind::Permanent,
        });
        let mut s = FaultInjectingStore::new(MemStore::new(1, 2), plan);
        assert!(s.flush().is_ok());
        assert!(s.flush().is_ok());
        assert!(s.flush().is_err());
        assert!(s.flush().is_err());
        assert_eq!(s.fault_stats().flush_faults, 2);
    }
}
