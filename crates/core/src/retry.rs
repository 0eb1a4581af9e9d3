//! Bounded-retry wrapper for backing stores.
//!
//! [`RetryingStore`] retries transient I/O failures (`EINTR`-class error
//! kinds) with exponential backoff before giving up, and counts what it did
//! in [`RetryStats`]. Permanent errors pass through immediately. Stacked
//! under the [`crate::VectorManager`], it turns a flaky disk into at worst a
//! slow one — the degradation mode a long likelihood search wants.

use crate::manager::ItemId;
use crate::obs::{Recorder, StallKind};
use crate::store::BackingStore;
use std::io;
use std::time::Duration;

/// Error kinds worth retrying: the syscall may succeed if reissued.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Retry policy: how many times, and how long to wait between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (3 ⇒ up to 4 attempts total).
    pub max_retries: u32,
    /// Sleep before the first retry. Doubles each further retry.
    pub initial_backoff: Duration,
}

impl RetryPolicy {
    /// `max_retries` retries with no backoff sleep (for tests and
    /// in-process stores where waiting buys nothing).
    pub fn immediate(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            initial_backoff: Duration::ZERO,
        }
    }

    fn backoff(&self, retry: u32) -> Duration {
        // Saturates instead of overflowing for absurd retry counts.
        self.initial_backoff
            .checked_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX))
            .unwrap_or(Duration::MAX)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_millis(1),
        }
    }
}

/// Counters of retry activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Individual retry attempts issued.
    pub retries: u64,
    /// Operations that failed at least once but eventually succeeded.
    pub recoveries: u64,
    /// Operations that failed even after all retries.
    pub exhausted: u64,
    /// Operations that failed with a non-transient error (no retry).
    pub permanent_failures: u64,
    /// Operations that needed more than one attempt (recovered or
    /// exhausted). This — not the attempt count — is the retry-visible op
    /// total: one logical read that recovers after 3 retries is **one**
    /// `disk_read` in [`crate::OocStats`] and one `retried_ops` here, so
    /// the two books reconcile without double-counting.
    pub retried_ops: u64,
    /// Total backoff time charged (intended sleep durations), summed.
    pub backoff_ns: u64,
}

/// A [`BackingStore`] wrapper that retries transient failures.
#[derive(Debug)]
pub struct RetryingStore<S> {
    inner: S,
    policy: RetryPolicy,
    stats: RetryStats,
    obs: Option<Recorder>,
}

impl<S: BackingStore> RetryingStore<S> {
    /// Wrap `inner` with the given policy.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        RetryingStore {
            inner,
            policy,
            stats: RetryStats::default(),
            obs: None,
        }
    }

    /// Attach an observability recorder: each backoff sleep is charged as
    /// a retry-backoff span from now on.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.obs = Some(rec);
    }

    /// Retry counters so far.
    pub fn retry_stats(&self) -> &RetryStats {
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

    fn run<T>(
        policy: &RetryPolicy,
        stats: &mut RetryStats,
        obs: Option<&Recorder>,
        mut attempt: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let mut failures = 0u32;
        loop {
            match attempt() {
                Ok(v) => {
                    if failures > 0 {
                        stats.recoveries += 1;
                        stats.retried_ops += 1;
                    }
                    return Ok(v);
                }
                Err(e) if !is_transient(&e) => {
                    stats.permanent_failures += 1;
                    return Err(e);
                }
                Err(e) => {
                    if failures >= policy.max_retries {
                        stats.exhausted += 1;
                        stats.retried_ops += failures.min(1) as u64;
                        return Err(e);
                    }
                    let backoff = policy.backoff(failures);
                    failures += 1;
                    stats.retries += 1;
                    let backoff_ns = u64::try_from(backoff.as_nanos()).unwrap_or(u64::MAX);
                    stats.backoff_ns = stats.backoff_ns.saturating_add(backoff_ns);
                    if !backoff.is_zero() {
                        // Nested kind: the sleep happens under the
                        // manager's enclosing demand-read or write-back
                        // span. Charged synthetically (intended duration)
                        // so a manual clock attributes it exactly.
                        if let Some(rec) = obs {
                            let t0 = rec.now();
                            rec.span_at("store-retry", "backoff", StallKind::RetryBackoff, t0)
                                .finish_at(t0.saturating_add(backoff_ns));
                        }
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
    }
}

impl<S: BackingStore> BackingStore for RetryingStore<S> {
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
        let (inner, policy, stats) = (&mut self.inner, &self.policy, &mut self.stats);
        Self::run(policy, stats, self.obs.as_ref(), || inner.read(item, buf))
    }

    fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
        let (inner, policy, stats) = (&mut self.inner, &self.policy, &mut self.stats);
        Self::run(policy, stats, self.obs.as_ref(), || inner.write(item, buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        let (inner, policy, stats) = (&mut self.inner, &self.policy, &mut self.stats);
        Self::run(policy, stats, self.obs.as_ref(), || inner.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjectingStore, FaultKind, FaultOp, FaultPlan, FaultRule};
    use crate::store::MemStore;

    fn flaky(plan: FaultPlan, retries: u32) -> RetryingStore<FaultInjectingStore<MemStore>> {
        RetryingStore::new(
            FaultInjectingStore::new(MemStore::new(4, 4), plan),
            RetryPolicy::immediate(retries),
        )
    }

    #[test]
    fn recovers_from_transient_schedule() {
        // Writes 0 and 1 fail transiently; retries absorb both.
        let mut s = flaky(FaultPlan::transient_writes(0, 2), 3);
        s.write(0, &[5.0; 4]).unwrap();
        let mut buf = vec![0.0; 4];
        s.read(0, &mut buf).unwrap();
        assert_eq!(buf, vec![5.0; 4]);
        assert_eq!(s.retry_stats().retries, 2);
        assert_eq!(s.retry_stats().recoveries, 1);
        assert_eq!(s.retry_stats().exhausted, 0);
        // Two attempts were absorbed, but only one logical op retried.
        assert_eq!(s.retry_stats().retried_ops, 1);
    }

    #[test]
    fn gives_up_when_retries_exhausted() {
        // Four consecutive transient failures vs 2 retries (3 attempts).
        let mut s = flaky(FaultPlan::transient_writes(0, 4), 2);
        let e = s.write(0, &[1.0; 4]).unwrap_err();
        assert!(is_transient(&e));
        assert_eq!(s.retry_stats().retries, 2);
        assert_eq!(s.retry_stats().exhausted, 1);
        assert_eq!(s.retry_stats().recoveries, 0);
        assert_eq!(s.retry_stats().retried_ops, 1);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let plan = FaultPlan::none().with(FaultRule::Window {
            op: FaultOp::Write,
            start: 0,
            count: 10,
            kind: FaultKind::Permanent,
        });
        let mut s = flaky(plan, 5);
        let e = s.write(0, &[1.0; 4]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(s.retry_stats().retries, 0);
        assert_eq!(s.retry_stats().permanent_failures, 1);
        // The failing attempt reached the injector exactly once.
        assert_eq!(s.inner().fault_stats().writes, 1);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy {
            max_retries: 100,
            initial_backoff: Duration::from_millis(2),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(2));
        assert_eq!(p.backoff(1), Duration::from_millis(4));
        assert_eq!(p.backoff(3), Duration::from_millis(16));
        assert!(p.backoff(90) > Duration::from_secs(3600));
    }
}
