//! What the benchmark reads from the operating system: the process CPU
//! clock, `/proc/self/{status,io,schedstat,task}`, and the page-cache
//! eviction call behind the cold-read probe. Linux only.

use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const POSIX_FADV_DONTNEED: i32 = 4;

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
}

/// User + system CPU time of the whole process, every thread that ever
/// ran included, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call and the clock id is a constant Linux defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Write the file's dirty pages out and ask the kernel to drop its cached
/// pages, so the next read comes from the device.
pub fn drop_file_cache(file: &File) -> io::Result<()> {
    file.sync_data()?;
    // SAFETY: the descriptor is open for the duration of the call (it is
    // borrowed from `file`); offset 0 and length 0 mean the whole file.
    let rc = unsafe { posix_fadvise(file.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::from_raw_os_error(rc))
    }
}

/// Bytes this module read from `/proc`, so `io.read_mib_per_unit` can take
/// the benchmark's own reads out of the process's `rchar`.
static OWN_PROC_BYTES: AtomicU64 = AtomicU64::new(0);

fn read_proc(path: &str) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    OWN_PROC_BYTES.fetch_add(text.len() as u64, Ordering::Relaxed);
    text
}

fn field_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|rest| rest.trim())
}

/// `(rchar, wchar)` of the process: bytes passed to read- and write-like
/// system calls, whether or not a device was touched. The benchmark's own
/// `/proc` reads are already subtracted from `rchar`.
pub fn proc_io() -> (u64, u64) {
    let text = read_proc("/proc/self/io");
    let num = |key| {
        field_after(&text, key)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no {key} in /proc/self/io"))
    };
    let own = OWN_PROC_BYTES.load(Ordering::Relaxed);
    (num("rchar:").saturating_sub(own), num("wchar:"))
}

/// `(on_cpu_ns, run_queue_wait_ns)` of the calling process's main thread.
pub fn schedstat() -> (u64, u64) {
    let text = read_proc("/proc/self/schedstat");
    let mut it = text.split_whitespace().map(|v| v.parse::<u64>());
    match (it.next(), it.next()) {
        (Some(Ok(run)), Some(Ok(wait))) => (run, wait),
        _ => panic!("unexpected /proc/self/schedstat: {text:?}"),
    }
}

/// Threads the process has right now.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("cannot list /proc/self/task")
        .count()
}

/// Peak resident set since the last [`PeakRss::reset`], read per unit
/// through descriptors opened once.
pub struct PeakRss {
    status: File,
    clear_refs: File,
    buf: Vec<u8>,
}

impl PeakRss {
    pub fn open() -> io::Result<Self> {
        Ok(PeakRss {
            status: File::open("/proc/self/status")?,
            clear_refs: std::fs::OpenOptions::new()
                .write(true)
                .open("/proc/self/clear_refs")?,
            buf: vec![0; 4096],
        })
    }

    /// Reset the kernel's high-water mark to the current resident set.
    pub fn reset(&mut self) {
        self.clear_refs
            .write_all_at(b"5", 0)
            .expect("cannot reset VmHWM through /proc/self/clear_refs");
    }

    /// `VmHWM` in KiB.
    pub fn peak_kib(&mut self) -> u64 {
        let n = self
            .status
            .read_at(&mut self.buf, 0)
            .expect("cannot read /proc/self/status");
        OWN_PROC_BYTES.fetch_add(n as u64, Ordering::Relaxed);
        let text = std::str::from_utf8(&self.buf[..n]).expect("/proc/self/status is ASCII");
        field_after(text, "VmHWM:")
            .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
            .expect("no VmHWM in /proc/self/status")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > t0);
    }

    #[test]
    fn proc_readers_parse_this_kernel() {
        let (r, w) = proc_io();
        assert!(r > 0 || w > 0);
        let (run, _wait) = schedstat();
        assert!(run > 0);
        assert!(thread_count() >= 1);
        let mut rss = PeakRss::open().unwrap();
        rss.reset();
        let before = rss.peak_kib();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        assert!(rss.peak_kib() >= before + (60 << 10));
    }
}
