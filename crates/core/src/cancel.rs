//! Cooperative job cancellation for long-running traversals.
//!
//! A tree-scale likelihood evaluation can spend minutes inside one
//! traversal; a service must be able to abort it without poisoning shared
//! state. [`CancelToken`] is the flag, [`CancellingStore`] the enforcement
//! point: every out-of-core traversal funnels through [`BackingStore`]
//! reads and writes, so failing those after cancellation surfaces a
//! contextual [`crate::OocError`] from deep inside the swap machinery
//! within one vector exchange. The manager's error discipline (failed
//! loads leave the slot unoccupied, failed write-backs leave the victim
//! resident) guarantees the abandoned engine — and any arena grant it
//! holds — can simply be dropped, leaving every shared structure
//! consistent.

use crate::store::BackingStore;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag (cheap to clone, thread-safe).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// The error a cancelled store operation reports. Deliberately *not*
    /// [`io::ErrorKind::Interrupted`]: that kind is transient and would be
    /// retried by `RetryingStore`, whereas cancellation must stick.
    fn error(&self) -> io::Error {
        io::Error::other("operation aborted: job cancelled")
    }

    /// `Err` once cancellation was requested, for use at non-store
    /// checkpoints (between traversals, smoothing passes, SPR rounds).
    pub fn check(&self) -> io::Result<()> {
        if self.is_cancelled() {
            Err(self.error())
        } else {
            Ok(())
        }
    }
}

/// A [`BackingStore`] wrapper that fails every transfer once its token is
/// cancelled.
pub struct CancellingStore<S> {
    inner: S,
    token: CancelToken,
}

impl<S: BackingStore> CancellingStore<S> {
    /// Wrap `inner`; transfers fail after `token` is cancelled.
    pub fn new(inner: S, token: CancelToken) -> Self {
        CancellingStore { inner, token }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The token this store observes.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }
}

impl<S: BackingStore> BackingStore for CancellingStore<S> {
    fn read(&mut self, item: u32, buf: &mut [f64]) -> io::Result<()> {
        self.token.check()?;
        self.inner.read(item, buf)
    }

    fn write(&mut self, item: u32, data: &[f64]) -> io::Result<()> {
        self.token.check()?;
        self.inner.write(item, data)
    }

    fn read_batch(&mut self, first: u32, count: usize, buf: &mut [f64]) -> io::Result<()> {
        self.token.check()?;
        self.inner.read_batch(first, count, buf)
    }

    fn write_batch(&mut self, first: u32, count: usize, buf: &[f64]) -> io::Result<()> {
        self.token.check()?;
        self.inner.write_batch(first, count, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        // Flush is allowed even after cancellation: it only persists bytes
        // already written and lets Drop paths complete cleanly.
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    #[test]
    fn transfers_fail_only_after_cancellation() {
        let token = CancelToken::new();
        let mut store = CancellingStore::new(MemStore::new(4, 8), token.clone());
        let data = vec![1.0; 8];
        let mut buf = vec![0.0; 8];
        store.write(0, &data).unwrap();
        store.read(0, &mut buf).unwrap();
        assert_eq!(buf, data);

        token.cancel();
        assert!(store.read(0, &mut buf).is_err());
        assert!(store.write(1, &data).is_err());
        // Not transient: a retry layer must not absorb cancellation.
        let err = store.read(0, &mut buf).unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::Interrupted);
        // Flush still succeeds (drop paths stay clean).
        store.flush().unwrap();
    }

    #[test]
    fn token_clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.check().is_err());
    }
}
