//! Backing stores for evicted vectors.
//!
//! The store is addressed in whole vectors ("logical blocks" in the paper's
//! terms): the logical block size is the vector width, far above the 512 B /
//! 8 KiB hardware block granularity, so every transfer is one large
//! contiguous positioned I/O — exactly the amortisation argument of §3.1.

use crate::aligned::AlignedBuf;
use crate::manager::ItemId;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

/// Reinterpret an `f64` slice as native-endian bytes.
///
/// Safety: `f64` has no invalid bit patterns and `u8` has alignment 1, so
/// viewing the same memory as bytes is always valid.
pub(crate) fn as_bytes(data: &[f64]) -> &[u8] {
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), data.len() * 8) }
}

/// Reinterpret a mutable `f64` slice as native-endian bytes.
///
/// Safety: as [`as_bytes`]; additionally any byte pattern written is a valid
/// `f64` (possibly NaN), so no invariant can be broken.
pub(crate) fn as_bytes_mut(data: &mut [f64]) -> &mut [u8] {
    unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr().cast::<u8>(), data.len() * 8) }
}

/// A vector-granularity backing store.
///
/// `item` indices are dense in `0..n_items`; every vector has the same
/// width, fixed at store construction. Reading an item that was never
/// written is a logic error the store may detect.
///
/// **Prefix transfers**: per-item `read`/`write` accept buffers *shorter*
/// than the store width and transfer only `buf.len()` leading entries of
/// the item's slot (a write leaves the slot's tail unspecified; a
/// subsequent read must not ask for more than was written). This is what
/// lets a compression wrapper ([`crate::CompressingStore`]) move only the
/// encoded payload bytes through an inner store sized for the
/// worst-case capacity. Batch transfers remain full-width per item.
pub trait BackingStore {
    /// Read the vector of `item` into `buf`.
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()>;

    /// Write the vector of `item` from `buf`.
    fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()>;

    /// Read `count` consecutive items starting at `first` into `buf`
    /// (`buf.len() == count · width`), as per-item [`BackingStore::read`]
    /// calls unless the store overrides it.
    fn read_batch(&mut self, first: ItemId, count: usize, buf: &mut [f64]) -> io::Result<()> {
        assert!(count > 0 && buf.len().is_multiple_of(count));
        let width = buf.len() / count;
        for (k, chunk) in buf.chunks_mut(width).enumerate() {
            self.read(first + k as ItemId, chunk)?;
        }
        Ok(())
    }

    /// Write `count` consecutive items starting at `first` from `buf`
    /// (`buf.len() == count · width`). The default chunks into per-item
    /// [`BackingStore::write`] calls; stores with a contiguous on-disk
    /// layout override this with one positioned transfer (§3.1's
    /// amortisation argument applied across vectors).
    fn write_batch(&mut self, first: ItemId, count: usize, buf: &[f64]) -> io::Result<()> {
        assert!(count > 0 && buf.len().is_multiple_of(count));
        let width = buf.len() / count;
        for (k, chunk) in buf.chunks(width).enumerate() {
            self.write(first + k as ItemId, chunk)?;
        }
        Ok(())
    }

    /// No effect; kept until ROADMAP item 1 re-bases `benchmark/`.
    fn hint(&mut self, _upcoming: &[ItemId]) {}

    /// No effect; kept until ROADMAP item 1 re-bases `benchmark/`.
    fn install_read_plan(&mut self, _first_reads: &[ItemId], _window: usize) -> bool {
        false
    }

    /// No effect; kept until ROADMAP item 1 re-bases `benchmark/`.
    fn plan_advanced(&mut self, _first_reads_passed: usize) {}

    /// No effect; kept until ROADMAP item 1 re-bases `benchmark/`.
    fn take_staged(&mut self, _item: ItemId) -> Option<AlignedBuf> {
        None
    }

    /// No effect; kept until ROADMAP item 1 re-bases `benchmark/`.
    fn forget_hints(&mut self) {}

    /// Flush any buffered state to durable storage.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Boxed stores forward every method (the batch defaults would otherwise
/// bypass an override), so callers can pick a store stack at runtime — e.g.
/// the CLI wrapping its vector file in a write-behind queue only when
/// `--io-threads` asks for one.
impl<S: BackingStore + ?Sized> BackingStore for Box<S> {
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
        (**self).read(item, buf)
    }

    fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
        (**self).write(item, buf)
    }

    fn read_batch(&mut self, first: ItemId, count: usize, buf: &mut [f64]) -> io::Result<()> {
        (**self).read_batch(first, count, buf)
    }

    fn write_batch(&mut self, first: ItemId, count: usize, buf: &[f64]) -> io::Result<()> {
        (**self).write_batch(first, count, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }
}

/// In-memory store: one optional buffer per item (64-byte aligned like
/// every other APV buffer, see [`crate::aligned`]). Used to measure
/// pure access-pattern statistics (miss rates are I/O-independent) and as
/// the reference implementation in tests.
#[derive(Debug)]
pub struct MemStore {
    width: usize,
    items: Vec<Option<AlignedBuf>>,
}

impl MemStore {
    /// Store for `n_items` vectors of `width` doubles.
    pub fn new(n_items: usize, width: usize) -> Self {
        MemStore {
            width,
            items: (0..n_items).map(|_| None).collect(),
        }
    }

    /// Has this item ever been written?
    pub fn contains(&self, item: ItemId) -> bool {
        self.items[item as usize].is_some()
    }
}

impl BackingStore for MemStore {
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
        debug_assert!(buf.len() <= self.width);
        match &self.items[item as usize] {
            Some(data) => {
                buf.copy_from_slice(&data[..buf.len()]);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("item {item} was never written"),
            )),
        }
    }

    fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
        debug_assert!(buf.len() <= self.width);
        match &mut self.items[item as usize] {
            Some(data) => data[..buf.len()].copy_from_slice(buf),
            slot @ None => {
                // Prefix writes still allocate the full slot so a later
                // full-width read (or wider prefix) stays in bounds.
                let mut data = AlignedBuf::zeroed(self.width);
                data[..buf.len()].copy_from_slice(buf);
                *slot = Some(data);
            }
        }
        Ok(())
    }
}

/// Single-binary-file store with positioned I/O: item `i` lives at byte
/// offset `base + i · width · 8`. This is the paper's primary
/// configuration; `base` is zero except for region stores carved out of a
/// shared file by [`FileStore::create_regions`].
#[derive(Debug)]
pub struct FileStore {
    file: File,
    width: usize,
    base: u64,
}

impl FileStore {
    /// Create (truncating) a store for `n_items` vectors of `width` doubles
    /// at `path`, pre-sizing the file.
    pub fn create<P: AsRef<Path>>(path: P, n_items: usize, width: usize) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len((n_items * width * 8) as u64)?;
        Ok(FileStore {
            file,
            width,
            base: 0,
        })
    }

    /// Open an existing store file (no truncation); used to get a second
    /// handle onto the same data, e.g. for a write-behind worker thread.
    pub fn open<P: AsRef<Path>>(path: P, width: usize) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(FileStore {
            file,
            width,
            base: 0,
        })
    }

    /// Wrap an already-open file handle.
    pub fn from_file(file: File, width: usize) -> Self {
        FileStore {
            file,
            width,
            base: 0,
        }
    }

    /// Carve one pre-sized file at `path` into `widths.len()` disjoint
    /// regions, each holding `n_items` vectors of its own width (region
    /// `k` spans bytes `[Σ_{j<k} n·wⱼ·8, Σ_{j≤k} n·wⱼ·8)`). Every region
    /// gets an independent `File` handle onto the same inode, so the
    /// returned stores can be driven from different threads — positioned
    /// I/O (`pread`/`pwrite`) needs no shared cursor. This is the sharded
    /// layout: one backing file, one region per site-range shard.
    pub fn create_regions<P: AsRef<Path>>(
        path: P,
        n_items: usize,
        widths: &[usize],
    ) -> io::Result<Vec<FileStore>> {
        assert!(!widths.is_empty(), "need at least one region");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let total: u64 = widths.iter().map(|&w| (n_items * w * 8) as u64).sum();
        file.set_len(total)?;
        let mut regions = Vec::with_capacity(widths.len());
        let mut base = 0u64;
        for &width in widths {
            regions.push(FileStore {
                file: file.try_clone()?,
                width,
                base,
            });
            base += (n_items * width * 8) as u64;
        }
        Ok(regions)
    }

    /// Byte offset of an item.
    fn offset(&self, item: ItemId) -> u64 {
        self.base + item as u64 * self.width as u64 * 8
    }

    /// A second handle onto the same store (same inode, width and region
    /// base). Positioned I/O needs no shared cursor, so the clone can be
    /// driven from another thread — this is how per-shard write-behind
    /// queues get worker handles onto region stores carved out by
    /// [`FileStore::create_regions`].
    pub fn try_clone(&self) -> io::Result<FileStore> {
        Ok(FileStore {
            file: self.file.try_clone()?,
            width: self.width,
            base: self.base,
        })
    }
}

impl BackingStore for FileStore {
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
        debug_assert!(buf.len() <= self.width);
        use std::os::unix::fs::FileExt;
        self.file
            .read_exact_at(as_bytes_mut(buf), self.offset(item))
    }

    fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
        debug_assert!(buf.len() <= self.width);
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(as_bytes(buf), self.offset(item))
    }

    fn write_batch(&mut self, first: ItemId, count: usize, buf: &[f64]) -> io::Result<()> {
        debug_assert_eq!(buf.len(), count * self.width);
        use std::os::unix::fs::FileExt;
        // Consecutive items are adjacent on disk: one positioned write
        // covers the whole run.
        self.file.write_all_at(as_bytes(buf), self.offset(first))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(item: ItemId, width: usize) -> Vec<f64> {
        (0..width)
            .map(|i| (item as f64) * 1000.0 + i as f64)
            .collect()
    }

    fn roundtrip_all<S: BackingStore>(store: &mut S, n: usize, width: usize) {
        for item in 0..n as u32 {
            store.write(item, &pattern(item, width)).unwrap();
        }
        // Overwrite one item to check in-place updates.
        let special = vec![std::f64::consts::PI; width];
        store.write(3, &special).unwrap();
        let mut buf = vec![0.0; width];
        for item in 0..n as u32 {
            store.read(item, &mut buf).unwrap();
            if item == 3 {
                assert_eq!(buf, special);
            } else {
                assert_eq!(buf, pattern(item, width));
            }
        }
        store.flush().unwrap();
    }

    #[test]
    fn mem_store_roundtrip() {
        let mut s = MemStore::new(10, 37);
        roundtrip_all(&mut s, 10, 37);
        assert!(s.contains(0));
    }

    #[test]
    fn mem_store_read_unwritten_fails() {
        let mut s = MemStore::new(4, 8);
        let mut buf = vec![0.0; 8];
        assert!(s.read(2, &mut buf).is_err());
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let mut s = FileStore::create(dir.path().join("vectors.bin"), 12, 64).unwrap();
        roundtrip_all(&mut s, 12, 64);
    }

    #[test]
    fn file_store_persists_within_handle() {
        let dir = tempfile::tempdir().unwrap();
        let mut s = FileStore::create(dir.path().join("v.bin"), 3, 16).unwrap();
        let data = pattern(2, 16);
        s.write(2, &data).unwrap();
        let mut buf = vec![0.0; 16];
        s.read(2, &mut buf).unwrap();
        assert_eq!(buf, data);
        // Items never written read back as zeros (file was pre-sized).
        s.read(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn file_store_regions_are_disjoint() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("regions.bin");
        let widths = [16usize, 24, 8];
        let n = 6usize;
        let mut regions = FileStore::create_regions(&path, n, &widths).unwrap();
        // Distinct fill per (region, item) pair; write everything, then
        // verify nothing clobbered anything else.
        for (k, store) in regions.iter_mut().enumerate() {
            for item in 0..n as u32 {
                let data: Vec<f64> = (0..widths[k])
                    .map(|i| (k * 10_000) as f64 + item as f64 * 100.0 + i as f64)
                    .collect();
                store.write(item, &data).unwrap();
            }
        }
        for (k, store) in regions.iter_mut().enumerate() {
            let mut buf = vec![0.0; widths[k]];
            for item in 0..n as u32 {
                store.read(item, &mut buf).unwrap();
                let expect: Vec<f64> = (0..widths[k])
                    .map(|i| (k * 10_000) as f64 + item as f64 * 100.0 + i as f64)
                    .collect();
                assert_eq!(buf, expect, "region {k} item {item} corrupted");
            }
        }
        // One file on disk, sized as the sum of all regions.
        let total: u64 = widths.iter().map(|&w| (n * w * 8) as u64).sum();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), total);
    }

    #[test]
    fn batch_io_matches_scalar_io() {
        // FileStore's single-transfer write override and the default
        // chunking impls must agree with per-item I/O.
        let dir = tempfile::tempdir().unwrap();
        let (n, w) = (9usize, 11usize);
        let mut file = FileStore::create(dir.path().join("batch.bin"), n, w).unwrap();
        let mut mem = MemStore::new(n, w);
        let all: Vec<f64> = (0..n as u32).flat_map(|i| pattern(i, w)).collect();
        file.write_batch(0, n, &all).unwrap();
        mem.write_batch(0, n, &all).unwrap();
        let mut buf = vec![0.0; w];
        for item in 0..n as u32 {
            file.read(item, &mut buf).unwrap();
            assert_eq!(buf, pattern(item, w));
            mem.read(item, &mut buf).unwrap();
            assert_eq!(buf, pattern(item, w));
        }
        // Partial run, offset start.
        let mut run = vec![0.0; 3 * w];
        file.read_batch(4, 3, &mut run).unwrap();
        let expect: Vec<f64> = (4..7u32).flat_map(|i| pattern(i, w)).collect();
        assert_eq!(run, expect);
        run.fill(0.0);
        mem.read_batch(4, 3, &mut run).unwrap();
        assert_eq!(run, expect);
    }

    #[test]
    fn file_store_try_clone_shares_data() {
        let dir = tempfile::tempdir().unwrap();
        let mut a = FileStore::create(dir.path().join("clone.bin"), 4, 8).unwrap();
        let mut b = a.try_clone().unwrap();
        a.write(2, &pattern(2, 8)).unwrap();
        let mut buf = vec![0.0; 8];
        b.read(2, &mut buf).unwrap();
        assert_eq!(buf, pattern(2, 8));
    }

    #[test]
    fn region_clone_preserves_base() {
        let dir = tempfile::tempdir().unwrap();
        let widths = [8usize, 8];
        let mut regions = FileStore::create_regions(dir.path().join("rc.bin"), 3, &widths).unwrap();
        regions[1].write(0, &pattern(9, 8)).unwrap();
        let mut clone = regions[1].try_clone().unwrap();
        let mut buf = vec![0.0; 8];
        clone.read(0, &mut buf).unwrap();
        assert_eq!(buf, pattern(9, 8), "clone must keep the region base");
        // Region 0 is untouched (still zeros).
        regions[0].read(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn byte_casts_roundtrip() {
        let mut data = vec![1.5f64, -2.25, 0.0, f64::MAX];
        let bytes = as_bytes(&data).to_vec();
        let mut restored = vec![0.0f64; 4];
        as_bytes_mut(&mut restored).copy_from_slice(&bytes);
        assert_eq!(restored, data);
        as_bytes_mut(&mut data)[0] ^= 0; // no-op write keeps validity
        assert_eq!(data[0], 1.5);
    }
}
