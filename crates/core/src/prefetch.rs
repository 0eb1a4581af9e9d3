//! Bounded write-behind queue over a backing store.
//!
//! [`PrefetchingStore`] wraps two (or more) instances of a store viewing
//! the same data (e.g. the same binary file opened twice): the *main*
//! instance serves reads and flushes on the caller's thread, the *worker*
//! instances are owned by background threads that retire queued writes.
//!
//! [`BackingStore::write`] copies the dirty vector into a buffer of a fixed
//! pool, parks it in the queue (newest write wins per item) and returns;
//! the workers perform the store writes in queue order, so a dirty eviction
//! does not block the compute thread. When every pool buffer is taken the
//! write waits for a worker to free one — the queue never holds more than
//! `2 · workers + 2` vectors, whatever the device's speed. Reads check the
//! queue first (read-your-writes), [`BackingStore::flush`] waits for the
//! queue to drain and retries failed write-backs on the demand path, where
//! the error can surface, and `Drop` performs a last-resort synchronous
//! write of anything still queued before the backing store closes.
//!
//! The name is historical: the read-ahead half of this module (§5 future
//! work of the paper) was retired once read skipping and rebuilt vectors
//! left it nothing to fetch; EXPERIMENTS.md A2 keeps its last numbers.

use crate::aligned::AlignedBuf;
use crate::manager::ItemId;
use crate::store::BackingStore;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Buffers in the write-behind pool of a store with `workers` threads: one
/// in flight and one queued per worker, plus two of slack so the compute
/// thread rarely meets an empty pool. A constant, not a knob: the queue's
/// RAM is `pool_size · width · 8` bytes beside the slot budget.
const fn pool_size(workers: usize) -> usize {
    2 * workers + 2
}

/// A dirty vector parked for asynchronous write-back.
struct QueuedWrite {
    /// Shared with the worker while it writes; otherwise uniquely owned,
    /// which is what lets a superseding write reuse the buffer.
    data: Arc<AlignedBuf>,
    /// Leading entries of `data` that hold the vector (prefix transfers).
    len: usize,
    /// Set when a worker-side store write of this exact buffer failed; the
    /// workers stop retrying it (`write()`/`flush()`/`Drop` retry on the
    /// demand path instead, where the error can be surfaced).
    failed: bool,
}

struct Queue {
    /// Dirty buffers awaiting write-back, newest write wins per item.
    pending_writes: HashMap<ItemId, QueuedWrite>,
    /// Pool buffers holding neither a queued nor an in-flight write.
    spares: Vec<AlignedBuf>,
}

impl Queue {
    /// Hand a buffer back to the pool unless an entry still holds it (a
    /// failed write keeps its data queued for the demand path).
    fn recycle(&mut self, data: Arc<AlignedBuf>) {
        if let Ok(buf) = Arc::try_unwrap(data) {
            self.spares.push(buf);
        }
    }
}

/// Counters of the write-behind queue.
#[derive(Debug, Default)]
pub struct PrefetchStats {
    /// Writes that had to wait for a worker: the pool was empty, or an
    /// older write of the same item was still in flight. The wait itself
    /// is write-back time in the caller's span (the manager's eviction).
    pub writes_blocked: AtomicU64,
}

/// State shared between the front end and the worker threads.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled whenever a worker finishes a write or exits: wakes a
    /// writer waiting for a pool buffer.
    cond: Condvar,
    stats: PrefetchStats,
    live_workers: AtomicUsize,
}

/// Decrements the live-worker count when a worker exits — including by
/// panic, since the guard's destructor runs during unwinding — and wakes
/// anyone waiting on queue progress so they can observe the death.
struct AliveGuard(Arc<Shared>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.live_workers.fetch_sub(1, Ordering::Release);
        self.0.cond.notify_all();
    }
}

/// A store wrapper that performs write-backs on background threads.
pub struct PrefetchingStore<S: BackingStore> {
    main: S,
    shared: Arc<Shared>,
    /// One message per parked write. Deliberately carries no data: the
    /// worker writes whatever buffer is *currently* queued for the item,
    /// so a superseded write is never flushed out of order. `None` only
    /// while dropping.
    sender: Option<Sender<ItemId>>,
    workers: Vec<JoinHandle<()>>,
    n_items: usize,
    width: usize,
}

impl<S: BackingStore> PrefetchingStore<S> {
    /// Build with a small pool of worker threads, one per store instance.
    /// All workers pull from the same ordered queue; per-item write-back
    /// ordering is preserved regardless of which worker retires a command.
    /// `n_items` and `width` must match the stores' geometry.
    pub fn with_pool<W>(main: S, worker_stores: Vec<W>, n_items: usize, width: usize) -> Self
    where
        W: BackingStore + Send + 'static,
    {
        assert!(
            !worker_stores.is_empty(),
            "PrefetchingStore needs at least one worker store"
        );
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                pending_writes: HashMap::new(),
                spares: (0..pool_size(worker_stores.len()))
                    .map(|_| AlignedBuf::zeroed(width))
                    .collect(),
            }),
            cond: Condvar::new(),
            stats: PrefetchStats::default(),
            live_workers: AtomicUsize::new(worker_stores.len()),
        });
        let (sender, receiver) = unbounded::<ItemId>();
        let workers = worker_stores
            .into_iter()
            .map(|store| {
                let shared = Arc::clone(&shared);
                let receiver = receiver.clone();
                std::thread::spawn(move || worker_main(store, shared, receiver))
            })
            .collect();
        PrefetchingStore {
            main,
            shared,
            sender: Some(sender),
            workers,
            n_items,
            width,
        }
    }

    /// Queue counters.
    pub fn stats(&self) -> &PrefetchStats {
        &self.shared.stats
    }

    /// Whether at least one worker thread is still running. Turns `false`
    /// if every worker dies (they should not — store errors are recorded,
    /// not propagated — but a health probe beats silent degradation); the
    /// store then writes synchronously through `main`.
    pub fn worker_alive(&self) -> bool {
        self.shared.live_workers.load(Ordering::Acquire) > 0
    }

    /// Items with a copy in the queue right now.
    fn queued(&self) -> Vec<ItemId> {
        let q = self.shared.queue.lock();
        q.pending_writes.keys().copied().collect()
    }

    /// Write the queued copy of `item` through `main`, where an error can
    /// surface; the copy stays queued if that fails. Only for entries no
    /// worker holds: failed ones, or any once the workers are idle or gone.
    fn write_through(&mut self, item: ItemId) -> io::Result<()> {
        let Some(qw) = self.shared.queue.lock().pending_writes.remove(&item) else {
            return Ok(());
        };
        let result = self.main.write(item, &qw.data[..qw.len]);
        let mut q = self.shared.queue.lock();
        match result {
            Ok(()) => q.recycle(qw.data),
            Err(_) => drop(q.pending_writes.insert(item, qw)),
        }
        result
    }

    /// Park `buf` in the queue as the newest contents of `item` and tell
    /// the workers, waiting for a pool buffer if none is free. `false` —
    /// with no entry for `item` left queued — when the workers are gone
    /// and the caller must write synchronously.
    fn fold(&mut self, item: ItemId, buf: &[f64]) -> io::Result<bool> {
        let mut waited = false;
        let mut q = self.shared.queue.lock();
        while self.worker_alive() {
            // A copy a worker is writing right now is waited for: two
            // writes of one item must not race to the store. One nobody
            // holds is superseded in its own buffer; its command may
            // already be retired (a failed write), so a fresh one is sent
            // either way.
            let queued = q.pending_writes.get(&item);
            if queued.is_none_or(|qw| Arc::strong_count(&qw.data) == 1) {
                let own = q.pending_writes.remove(&item).map(|qw| qw.data);
                let reuse = own.and_then(|data| Arc::try_unwrap(data).ok());
                if let Some(mut data) = reuse.or_else(|| q.spares.pop()) {
                    data[..buf.len()].copy_from_slice(buf);
                    let entry = QueuedWrite {
                        data: Arc::new(data),
                        len: buf.len(),
                        failed: false,
                    };
                    q.pending_writes.insert(item, entry);
                    let sender = self.sender.as_ref().expect("present until drop");
                    if sender.send(item).is_err() {
                        break; // the workers shut down meanwhile
                    }
                    return Ok(true);
                }
                // Pool exhausted. An entry that failed on a worker never
                // frees its buffer on its own: retry one here.
                let failed = q.pending_writes.iter().find(|(_, qw)| qw.failed);
                if let Some(other) = failed.map(|(&i, _)| i) {
                    drop(q);
                    self.write_through(other)?;
                    q = self.shared.queue.lock();
                    continue;
                }
            }
            if !waited {
                waited = true;
                self.shared
                    .stats
                    .writes_blocked
                    .fetch_add(1, Ordering::Relaxed);
            }
            // Bounded wait: a worker that dies between the health check
            // above and this wait has already notified.
            self.shared.cond.wait_for(&mut q, Duration::from_millis(1));
        }
        // Nothing is in flight any more; an older queued copy must not
        // outlive (and later overwrite) the synchronous write.
        if let Some(stale) = q.pending_writes.remove(&item) {
            q.recycle(stale.data);
        }
        Ok(false)
    }
}

impl<S: BackingStore> BackingStore for PrefetchingStore<S> {
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
        // Read-your-writes: a queued write-back is the freshest copy of
        // the item, newer than the store's.
        if let Some(qw) = self.shared.queue.lock().pending_writes.get(&item) {
            buf.copy_from_slice(&qw.data[..buf.len()]);
            return Ok(());
        }
        self.main.read(item, buf)
    }

    fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
        // Out-of-geometry write: fold nothing, let the main store produce
        // its own error synchronously.
        let in_geometry = (item as usize) < self.n_items && buf.len() <= self.width;
        if in_geometry && self.fold(item, buf)? {
            return Ok(());
        }
        self.main.write(item, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        // Wait for the workers to retire every write they still can: an
        // entry that has not failed has its command queued or in flight.
        let mut q = self.shared.queue.lock();
        while self.worker_alive() && q.pending_writes.values().any(|qw| !qw.failed) {
            self.shared.cond.wait_for(&mut q, Duration::from_millis(1));
        }
        // Anything still queued either failed on the worker store or was
        // orphaned by a worker death: retry synchronously on the demand
        // path, where the error can finally be surfaced. What a failure
        // leaves behind stays queued for the next flush.
        drop(q);
        for item in self.queued() {
            self.write_through(item)?;
        }
        self.main.flush()
    }
}

impl<S: BackingStore> Drop for PrefetchingStore<S> {
    fn drop(&mut self) {
        drop(self.sender.take()); // workers drain the queue, then recv() fails -> exit
        for handle in self.workers.drain(..) {
            if handle.join().is_err() {
                // Last-resort visibility; `worker_alive()` is the real
                // health probe, but a swallowed panic helps nobody.
                eprintln!("ooc-core: write-behind worker thread panicked");
            }
        }
        // Workers are gone; anything still queued (failed worker writes,
        // writes orphaned by a panic) gets one synchronous last chance on
        // the demand path before the backing store closes.
        for item in self.queued() {
            if self.write_through(item).is_err() {
                eprintln!("ooc-core: write-back of item {item} lost on shutdown");
            }
        }
    }
}

/// Worker side: write the queued copy of each item named on the channel.
/// On success its entry goes, on failure the entry is marked so workers
/// stop retrying it; the entry is still the buffer that was written — a
/// newer write of the item waits while one is in flight.
fn worker_main<W: BackingStore>(mut store: W, shared: Arc<Shared>, receiver: Receiver<ItemId>) {
    let _guard = AliveGuard(Arc::clone(&shared));
    while let Ok(item) = receiver.recv() {
        let queued = {
            let q = shared.queue.lock();
            q.pending_writes
                .get(&item)
                .filter(|qw| !qw.failed)
                .map(|qw| (Arc::clone(&qw.data), qw.len))
        };
        if let Some((data, len)) = queued {
            let result = store.write(item, &data[..len]);
            let mut q = shared.queue.lock();
            // Guarded, not assumed: removing some other buffer's entry
            // would lose a vector.
            let current = q.pending_writes.get_mut(&item);
            if let Some(qw) = current.filter(|qw| Arc::ptr_eq(&qw.data, &data)) {
                match result {
                    Ok(()) => drop(q.pending_writes.remove(&item)),
                    Err(_) => qw.failed = true,
                }
            }
            q.recycle(data);
            drop(q);
            shared.cond.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FileStore;

    fn reopen(path: &std::path::Path, w: usize) -> FileStore {
        FileStore::open(path, w).unwrap()
    }

    /// A pipeline over one file: the main handle plus one worker handle
    /// per `wrap` call, each wrapped as the test needs.
    fn pipeline<W: BackingStore + Send + 'static>(
        path: &std::path::Path,
        n: usize,
        w: usize,
        workers: usize,
        wrap: impl Fn(FileStore) -> W,
    ) -> PrefetchingStore<FileStore> {
        let main = FileStore::create(path, n, w).unwrap();
        let pool = (0..workers).map(|_| wrap(reopen(path, w))).collect();
        PrefetchingStore::with_pool(main, pool, n, w)
    }

    fn assert_file_holds(path: &std::path::Path, w: usize, want: &[(ItemId, f64)]) {
        let mut file = reopen(path, w);
        let mut buf = vec![0.0; w];
        for &(item, value) in want {
            file.read(item, &mut buf).unwrap();
            assert_eq!(buf, vec![value; w], "item {item}");
        }
    }

    #[test]
    fn folded_write_is_read_your_writes_before_flush() {
        let dir = tempfile::tempdir().unwrap();
        let mut store = pipeline(&dir.path().join("v.bin"), 4, 8, 1, |f| f);
        store.write(2, &[9.0; 8]).unwrap();
        // No flush: the freshest copy may still be in the write-back
        // queue and must be served from there.
        let mut buf = vec![0.0; 8];
        store.read(2, &mut buf).unwrap();
        assert_eq!(buf, vec![9.0; 8]);
    }

    #[test]
    fn flush_empties_the_queue_and_reads_fall_through() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("v.bin");
        let mut store = pipeline(&path, 4, 8, 1, |f| f);
        store.write(1, &[5.0; 8]).unwrap();
        store.flush().unwrap();
        let q = store.shared.queue.lock();
        assert!(q.pending_writes.is_empty());
        assert_eq!(q.spares.len(), pool_size(1), "every buffer is back");
        drop(q);
        assert_file_holds(&path, 8, &[(1, 5.0)]);
        let mut buf = vec![0.0; 8];
        store.read(1, &mut buf).unwrap();
        assert_eq!(buf, vec![5.0; 8]);
    }

    #[test]
    fn newest_write_wins() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("v.bin");
        let mut store = pipeline(&path, 4, 8, 1, |f| f);
        let mut buf = vec![0.0; 8];
        store.write(0, &[1.0; 8]).unwrap();
        store.write(0, &[2.0; 8]).unwrap(); // supersedes a queued copy
        store.read(0, &mut buf).unwrap();
        assert_eq!(buf, vec![2.0; 8]);
        store.flush().unwrap();
        store.write(0, &[3.0; 8]).unwrap(); // supersedes a stored copy
        store.read(0, &mut buf).unwrap();
        assert_eq!(buf, vec![3.0; 8]);
        store.flush().unwrap();
        assert_file_holds(&path, 8, &[(0, 3.0)]);
    }

    /// Worker store whose writes block on a gate until the test opens it,
    /// and which counts the writes that have started — a deterministic
    /// stand-in for a slow disk under the write-behind worker.
    type Gate = Arc<(std::sync::Mutex<(bool, usize)>, std::sync::Condvar)>;

    struct GateStore<S> {
        inner: S,
        state: Gate,
    }

    impl<S: BackingStore> BackingStore for GateStore<S> {
        fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
            self.inner.read(item, buf)
        }
        fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
            let (lock, cvar) = &*self.state;
            let mut st = lock.lock().unwrap();
            st.1 += 1;
            cvar.notify_all();
            while !st.0 {
                st = cvar.wait(st).unwrap();
            }
            drop(st);
            self.inner.write(item, buf)
        }
    }

    fn wait_for(pred: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !pred() {
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::yield_now();
        }
    }

    fn open(gate: &Gate) {
        let (lock, cvar) = &**gate;
        lock.lock().unwrap().0 = true;
        cvar.notify_all();
    }

    #[test]
    fn the_queue_is_bounded_by_the_pool() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("v.bin");
        let pool = pool_size(1);
        let n = 4 * pool;
        let gate: Gate = Arc::new(Default::default());
        let mut store = pipeline(&path, n, 8, 1, |f| GateStore {
            inner: f,
            state: Arc::clone(&gate),
        });
        let shared = Arc::clone(&store.shared);
        let done = Arc::new(AtomicUsize::new(0));
        let writer = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for i in 0..n as ItemId {
                    store.write(i, &[i as f64 + 0.25; 8]).unwrap();
                    done.fetch_add(1, Ordering::SeqCst);
                }
                store
            })
        };
        // The worker sits in its first write behind the closed gate; the
        // writer fills the pool and must then wait.
        wait_for(|| shared.stats.writes_blocked.load(Ordering::Relaxed) == 1);
        assert_eq!(done.load(Ordering::SeqCst), pool);
        {
            let q = shared.queue.lock();
            assert_eq!(q.pending_writes.len(), pool);
            assert!(q.spares.is_empty());
        }
        // The worker reaches the gate in its own time, and gets no further.
        wait_for(|| gate.0.lock().unwrap().1 == 1);
        open(&gate);
        let mut store = writer.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), n);
        store.flush().unwrap();
        assert!(shared.queue.lock().pending_writes.is_empty());
        let want: Vec<_> = (0..n as ItemId).map(|i| (i, i as f64 + 0.25)).collect();
        assert_file_holds(&path, 8, &want);
    }

    #[test]
    fn a_rewrite_waits_for_the_write_of_the_same_item_in_flight() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("v.bin");
        let gate: Gate = Arc::new(Default::default());
        let mut store = pipeline(&path, 4, 8, 2, |f| GateStore {
            inner: f,
            state: Arc::clone(&gate),
        });
        let shared = Arc::clone(&store.shared);
        store.write(3, &[1.0; 8]).unwrap();
        wait_for(|| gate.0.lock().unwrap().1 == 1);
        // Spare buffers and an idle second worker exist, yet the newer
        // copy must not overtake the older one on its way to the store.
        let writer = std::thread::spawn(move || {
            store.write(3, &[2.0; 8]).unwrap();
            store
        });
        wait_for(|| shared.stats.writes_blocked.load(Ordering::Relaxed) == 1);
        assert_eq!(gate.0.lock().unwrap().1, 1, "no second write started");
        open(&gate);
        let mut store = writer.join().unwrap();
        store.flush().unwrap();
        assert_file_holds(&path, 8, &[(3, 2.0)]);
    }

    /// Worker store whose writes sleep: folded write-backs are guaranteed
    /// to still be in flight when the test drops the store.
    struct SlowWriteStore<S> {
        inner: S,
    }

    impl<S: BackingStore> BackingStore for SlowWriteStore<S> {
        fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
            self.inner.read(item, buf)
        }
        fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
            std::thread::sleep(Duration::from_millis(10));
            self.inner.write(item, buf)
        }
    }

    #[test]
    fn drop_mid_batch_preserves_queued_write_backs() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("v.bin");
        let mut store = pipeline(&path, 4, 8, 1, |f| SlowWriteStore { inner: f });
        for i in 0..4u32 {
            store.write(i, &[i as f64 + 0.5; 8]).unwrap();
        }
        // Drop with write-backs still in flight on the slow worker: Drop
        // must join the worker (and fall back to the main store for any
        // leftovers) before the file handle closes.
        drop(store);
        let want: Vec<_> = (0..4u32).map(|i| (i, i as f64 + 0.5)).collect();
        assert_file_holds(&path, 8, &want);
    }

    /// Worker store whose writes always fail — every folded write-back is
    /// left queued for the demand path.
    struct FailingWriteStore<S> {
        inner: S,
    }

    impl<S: BackingStore> BackingStore for FailingWriteStore<S> {
        fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
            self.inner.read(item, buf)
        }
        fn write(&mut self, _item: ItemId, _buf: &[f64]) -> io::Result<()> {
            Err(io::Error::other("injected write failure"))
        }
    }

    #[test]
    fn drop_falls_back_to_main_store_when_worker_writes_fail() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("v.bin");
        let mut store = pipeline(&path, 4, 8, 1, |f| FailingWriteStore { inner: f });
        for i in 0..4u32 {
            store.write(i, &[i as f64 + 2.5; 8]).unwrap();
        }
        drop(store); // must write the failed entries via the main store
        let want: Vec<_> = (0..4u32).map(|i| (i, i as f64 + 2.5)).collect();
        assert_file_holds(&path, 8, &want);
    }

    #[test]
    fn flush_retries_failed_write_backs_on_the_demand_path() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("v.bin");
        let mut store = pipeline(&path, 4, 8, 1, |f| FailingWriteStore { inner: f });
        store.write(1, &[4.0; 8]).unwrap();
        // The worker write fails, but flush retries via the main store and
        // succeeds, so no error surfaces and the data is durable.
        store.flush().unwrap();
        assert_file_holds(&path, 8, &[(1, 4.0)]);
        let mut buf = vec![0.0; 8];
        store.read(1, &mut buf).unwrap();
        assert_eq!(buf, vec![4.0; 8]);
    }

    #[test]
    fn a_pool_full_of_failed_writes_is_retried_on_the_demand_path() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("v.bin");
        let n = 3 * pool_size(1);
        let mut store = pipeline(&path, n, 8, 1, |f| FailingWriteStore { inner: f });
        // No flush in between: once every pool buffer holds a failed
        // entry, the next write must free one itself or wait forever.
        for i in 0..n as ItemId {
            store.write(i, &[i as f64 + 7.0; 8]).unwrap();
        }
        assert!(store.shared.queue.lock().pending_writes.len() <= pool_size(1));
        store.flush().unwrap();
        let want: Vec<_> = (0..n as ItemId).map(|i| (i, i as f64 + 7.0)).collect();
        assert_file_holds(&path, 8, &want);
    }

    #[test]
    fn with_pool_spreads_work_across_workers() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("v.bin");
        let mut store = pipeline(&path, 32, 4, 3, |f| f);
        for i in 0..32u32 {
            store.write(i, &[i as f64; 4]).unwrap();
        }
        store.flush().unwrap();
        assert!(store.worker_alive());
        let want: Vec<_> = (0..32u32).map(|i| (i, i as f64)).collect();
        assert_file_holds(&path, 4, &want);
    }
}
