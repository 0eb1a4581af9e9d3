//! Scale-aware APV compression behind [`BackingStore`].
//!
//! Out-of-core PLF runtime tracks bytes moved, not FLOPs (paper §4), so
//! shrinking the stored representation of an ancestral probability vector
//! raises the effective RAM fraction *f* for free. Two structural facts
//! about APVs make them compressible without touching the kernels:
//!
//! 1. **Narrow exponent range.** Per-site rescaling (`plf::scaling`)
//!    multiplies a site block by 2²⁵⁶ whenever all its entries drop below
//!    2⁻²⁵⁶, so the doubles inside one site block live in a narrow band of
//!    IEEE-754 exponents. [`CompressingStore`] stores one *shared minimum
//!    exponent* per site block plus a small per-entry delta instead of 11
//!    exponent bits per double.
//! 2. **Repeated site blocks.** Pattern compression dedupes identical
//!    alignment columns globally, but identical *conditional* likelihood
//!    blocks still recur within one vector (e.g. constant-site patterns
//!    under the same subtree). An **alias table** per item stores each
//!    distinct block once and references it from every position where it
//!    repeats.
//!
//! The one mode, [`CompressionMode::Exp`], is **lossless**: decode returns
//! bit-identical doubles, so every likelihood is exactly the raw-store
//! result.
//!
//! # Encoded payload layout (per item, little-endian, byte stream)
//!
//! The block count is *not* stored — the decoder derives it from the
//! logical width (`ceil(width / stride)`), and a distinct block's entry
//! count is the length of the first position referencing it. That keeps
//! the fixed per-block overhead at 4 bytes (2 alias + 2 header) so the
//! exponent savings are not eaten by framing.
//!
//! ```text
//! u32  n_distinct          distinct blocks actually stored
//! u8   mant_bits           stored mantissa bits (52)
//! u8   alias_bytes         2 (n_blocks ≤ 65535) or 4
//! u16  reserved            0
//! u16|u32 × n_blocks       alias table: distinct index per block position
//! per distinct block (in order of first appearance):
//!   u16  min_exp | db<<11  smallest biased exponent among nonzero
//!                          entries (11 bits) + delta bit-width (4 bits)
//!   bit-packed entries, LSB-first, block padded to a byte boundary:
//!     [1][sign]                                      ±0.0
//!     [0][sign][delta: db][mantissa: mant_bits]
//! ```
//!
//! The payload is written to the inner store as a *prefix* of a slot sized
//! for the worst case ([`compressed_capacity_f64s`]); the per-item payload
//! length lives in a shared in-memory table (scratch stores are rebuilt
//! per run, so the table needs no on-disk mirror). A never-written item
//! reads back as zeros, matching [`FileStore`]'s pre-sized-file semantics.

use crate::manager::ItemId;
use crate::obs::Recorder;
use crate::store::{as_bytes, as_bytes_mut, BackingStore, FileStore};
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

const SIGN_MASK: u64 = 1 << 63;
const MANT_MASK: u64 = (1 << 52) - 1;
const EXP_MAX: u64 = 0x7FF;

/// Which encoding a [`CompressingStore`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionMode {
    /// Shared-exponent + alias-table encoding, bit-identical round trip.
    Exp,
}

impl CompressionMode {
    /// Mantissa bits stored per nonzero entry.
    pub fn mant_bits(self) -> u32 {
        match self {
            CompressionMode::Exp => 52,
        }
    }

    /// Stable config-file name (`"exp"`).
    pub fn name(self) -> &'static str {
        match self {
            CompressionMode::Exp => "exp",
        }
    }

    /// Inverse of [`CompressionMode::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "exp" => Some(CompressionMode::Exp),
            _ => None,
        }
    }
}

/// Worst-case encoded size of one item, in `f64` slots — the width the
/// inner store must be created with. Worst case: no block repeats, every
/// entry nonzero with the full 11-bit exponent delta.
pub fn compressed_capacity_f64s(width: usize, stride: usize, mode: CompressionMode) -> usize {
    let stride = stride.clamp(1, width.max(1));
    let n_blocks = width.div_ceil(stride);
    let alias_bytes = if n_blocks <= u16::MAX as usize { 2 } else { 4 };
    // flag + sign + 11-bit delta + mantissa, per entry.
    let per_entry_bits = 2 + 11 + mode.mant_bits() as usize;
    let block_bytes = 2 + (stride * per_entry_bits).div_ceil(8);
    let total_bytes = 8 + n_blocks * (alias_bytes + block_bytes);
    total_bytes.div_ceil(8)
}

/// Byte-stream totals a [`CompressingStore`] accumulates across clones
/// (worker handles share the same counters).
#[derive(Debug, Default)]
pub struct CompressionCounters {
    /// Uncompressed bytes the caller logically wrote (`width · 8` each).
    pub bytes_logical: AtomicU64,
    /// Bytes actually moved to the inner store (payload rounded up to
    /// whole `f64` words — what the positioned I/O transfers).
    pub bytes_on_disk: AtomicU64,
    /// Site blocks that aliased an earlier identical block instead of
    /// being stored again.
    pub blocks_aliased: AtomicU64,
}

impl CompressionCounters {
    /// `bytes_on_disk / bytes_logical`; 1.0 when nothing was written.
    pub fn ratio(&self) -> f64 {
        let logical = self.bytes_logical.load(Ordering::Relaxed);
        if logical == 0 {
            return 1.0;
        }
        self.bytes_on_disk.load(Ordering::Relaxed) as f64 / logical as f64
    }
}

/// A [`BackingStore`] adaptor that encodes items on write and decodes on
/// read (see the module docs for the format). The inner store must be
/// created with width [`compressed_capacity_f64s`]`(width, stride, mode)`;
/// payloads move as prefix transfers, so the bytes crossing the inner
/// store shrink with the data's actual entropy, not the worst case.
#[derive(Debug)]
pub struct CompressingStore<S> {
    inner: S,
    width: usize,
    stride: usize,
    mode: CompressionMode,
    /// Encoded payload length per item, in bytes; 0 = never written.
    /// Shared across [`CompressingStore::handle_over`] handles.
    lengths: Arc<Vec<AtomicU32>>,
    counters: Arc<CompressionCounters>,
    obs: Option<Recorder>,
    // Scratch, per handle: encoded bytes, word-padded inner I/O buffer,
    // decoded distinct blocks (+ lengths), alias table.
    enc: Vec<u8>,
    packed: Vec<f64>,
    dist: Vec<f64>,
    dist_len: Vec<usize>,
    alias: Vec<u32>,
}

impl<S: BackingStore> CompressingStore<S> {
    /// Wrap `inner` (sized for `n_items` slots of
    /// [`compressed_capacity_f64s`]`(width, stride, mode)` doubles each).
    /// `stride` is the site-block length in `f64`s (`n_cats · n_states`);
    /// exponent sharing and aliasing both work at that granularity.
    pub fn new(
        inner: S,
        n_items: usize,
        width: usize,
        stride: usize,
        mode: CompressionMode,
    ) -> Self {
        assert!(width > 0, "zero-width compressed store");
        let stride = stride.clamp(1, width);
        let cap = compressed_capacity_f64s(width, stride, mode);
        CompressingStore {
            inner,
            width,
            stride,
            mode,
            lengths: Arc::new((0..n_items).map(|_| AtomicU32::new(0)).collect()),
            counters: Arc::new(CompressionCounters::default()),
            obs: None,
            enc: Vec::with_capacity(cap * 8),
            packed: vec![0.0; cap],
            dist: Vec::new(),
            dist_len: Vec::new(),
            alias: Vec::new(),
        }
    }

    /// Shared byte counters (also visible through every clone).
    pub fn counters(&self) -> Arc<CompressionCounters> {
        Arc::clone(&self.counters)
    }

    /// Attach a recorder: every write samples `compress/bytes-logical` and
    /// `compress/bytes-disk` (byte counts travel in the histogram sums, so
    /// `ooc-bench check --reconcile-compression` can recompute the ratio).
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.obs = Some(rec);
    }

    /// A second handle onto the same compressed store, given a second
    /// handle `inner` onto its inner store: the payload-length table, byte
    /// counters and recorder are shared, scratch is private. This is how
    /// write-behind worker threads get their store handles.
    pub fn handle_over(&self, inner: S) -> Self {
        CompressingStore {
            inner,
            width: self.width,
            stride: self.stride,
            mode: self.mode,
            lengths: Arc::clone(&self.lengths),
            counters: Arc::clone(&self.counters),
            obs: self.obs.clone(),
            enc: Vec::with_capacity(self.packed.len() * 8),
            packed: vec![0.0; self.packed.len()],
            dist: Vec::new(),
            dist_len: Vec::new(),
            alias: Vec::new(),
        }
    }
}

impl CompressingStore<FileStore> {
    /// A second handle onto the same compressed store over a duplicated
    /// inner file handle ([`CompressingStore::handle_over`]).
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(self.handle_over(self.inner.try_clone()?))
    }
}

impl<S: BackingStore> BackingStore for CompressingStore<S> {
    fn read(&mut self, item: ItemId, buf: &mut [f64]) -> io::Result<()> {
        debug_assert_eq!(buf.len(), self.width);
        let len = self.lengths[item as usize].load(Ordering::Acquire) as usize;
        if len == 0 {
            // Never written: zero-fill, matching FileStore's pre-sized
            // file semantics (read-skipping makes this path unreachable
            // for live data).
            buf.fill(0.0);
            return Ok(());
        }
        let words = len.div_ceil(8);
        self.inner.read(item, &mut self.packed[..words])?;
        decode_item(
            &as_bytes(&self.packed[..words])[..len],
            self.stride,
            buf,
            &mut self.dist,
            &mut self.dist_len,
            &mut self.alias,
        )
    }

    fn write(&mut self, item: ItemId, buf: &[f64]) -> io::Result<()> {
        debug_assert_eq!(buf.len(), self.width);
        self.enc.clear();
        let (n_blocks, n_distinct) =
            encode_item(buf, self.stride, self.mode.mant_bits(), &mut self.enc);
        let len = self.enc.len();
        let words = len.div_ceil(8);
        debug_assert!(
            words <= self.packed.len(),
            "encoded payload exceeded worst-case capacity"
        );
        let pb = as_bytes_mut(&mut self.packed[..words]);
        pb[..len].copy_from_slice(&self.enc);
        pb[len..].fill(0);
        self.inner.write(item, &self.packed[..words])?;
        self.lengths[item as usize].store(len as u32, Ordering::Release);
        let logical = (self.width * 8) as u64;
        let disk = (words * 8) as u64;
        self.counters
            .bytes_logical
            .fetch_add(logical, Ordering::Relaxed);
        self.counters
            .bytes_on_disk
            .fetch_add(disk, Ordering::Relaxed);
        self.counters
            .blocks_aliased
            .fetch_add((n_blocks - n_distinct) as u64, Ordering::Relaxed);
        if let Some(rec) = &self.obs {
            rec.sample("compress", "bytes-logical", logical);
            rec.sample("compress", "bytes-disk", disk);
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// LSB-first bit packer appending to a byte vector.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    n: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter { out, acc: 0, n: 0 }
    }

    fn push(&mut self, bits: u64, count: u32) {
        debug_assert!(count <= 52 && (count == 64 || bits < (1u64 << count)));
        self.acc |= bits << self.n;
        self.n += count;
        while self.n >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.n -= 8;
        }
    }

    /// Pad to the next byte boundary.
    fn finish(self) {
        if self.n > 0 {
            self.out.push(self.acc as u8);
        }
    }
}

/// LSB-first bit reader over a byte slice.
struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    n: u32,
}

fn corrupt() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "corrupt compressed payload")
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            n: 0,
        }
    }

    fn take(&mut self, count: u32) -> io::Result<u64> {
        debug_assert!(count <= 52);
        while self.n < count {
            let b = *self.data.get(self.pos).ok_or_else(corrupt)? as u64;
            self.acc |= b << self.n;
            self.n += 8;
            self.pos += 1;
        }
        let v = self.acc & ((1u64 << count) - 1);
        self.acc >>= count;
        self.n -= count;
        Ok(v)
    }

    /// Drop padding bits up to the next byte boundary.
    fn align(&mut self) {
        let drop = self.n % 8;
        self.acc >>= drop;
        self.n -= drop;
    }
}

/// Encode one item into `out` (cleared by the caller). Returns
/// `(n_blocks, n_distinct)`.
fn encode_item(vals: &[f64], stride: usize, mant_bits: u32, out: &mut Vec<u8>) -> (usize, usize) {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};
    let stride = stride.max(1);
    let n_blocks = vals.len().div_ceil(stride);
    let mut alias: Vec<u32> = Vec::with_capacity(n_blocks);
    let mut distinct: Vec<(usize, usize)> = Vec::new(); // (start, len) into vals
    let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
    for b in 0..n_blocks {
        let start = b * stride;
        let end = (start + stride).min(vals.len());
        let block = &vals[start..end];
        let mut h = DefaultHasher::new();
        for v in block {
            v.to_bits().hash(&mut h);
        }
        let cands = index.entry(h.finish()).or_default();
        // Hash buckets are verified by bitwise comparison, so a collision
        // can never alias two different blocks.
        let found = cands.iter().copied().find(|&d| {
            let (ds, dl) = distinct[d as usize];
            dl == block.len()
                && vals[ds..ds + dl]
                    .iter()
                    .zip(block)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        match found {
            Some(d) => alias.push(d),
            None => {
                let d = distinct.len() as u32;
                distinct.push((start, end - start));
                cands.push(d);
                alias.push(d);
            }
        }
    }
    let wide_alias = n_blocks > u16::MAX as usize;
    out.extend_from_slice(&(distinct.len() as u32).to_le_bytes());
    out.push(mant_bits as u8);
    out.push(if wide_alias { 4 } else { 2 });
    out.extend_from_slice(&0u16.to_le_bytes());
    for &a in &alias {
        if wide_alias {
            out.extend_from_slice(&a.to_le_bytes());
        } else {
            out.extend_from_slice(&(a as u16).to_le_bytes());
        }
    }
    for &(start, len) in &distinct {
        let block = &vals[start..start + len];
        let mut min_exp = u64::MAX;
        let mut max_exp = 0u64;
        for &v in block {
            let bits = v.to_bits();
            if bits & !SIGN_MASK != 0 {
                let e = (bits >> 52) & EXP_MAX;
                min_exp = min_exp.min(e);
                max_exp = max_exp.max(e);
            }
        }
        let (min_exp, db) = if min_exp == u64::MAX {
            (0u64, 0u32) // all-zero block
        } else {
            let range = max_exp - min_exp;
            (min_exp, 64 - range.leading_zeros())
        };
        debug_assert!(db <= 11 && min_exp <= EXP_MAX);
        out.extend_from_slice(&((min_exp as u16) | ((db as u16) << 11)).to_le_bytes());
        let mut w = BitWriter::new(out);
        for &v in block {
            let bits = v.to_bits();
            let sign = bits >> 63;
            if bits & !SIGN_MASK == 0 {
                w.push(1, 1);
                w.push(sign, 1);
            } else {
                w.push(0, 1);
                w.push(sign, 1);
                if db > 0 {
                    w.push(((bits >> 52) & EXP_MAX) - min_exp, db);
                }
                w.push((bits & MANT_MASK) >> (52 - mant_bits), mant_bits);
            }
        }
        w.finish();
    }
    (n_blocks, distinct.len())
}

/// Decode one item payload into `out`; `dist`/`dist_len`/`alias` are
/// caller scratch. Errors with `InvalidData` on any malformed payload.
fn decode_item(
    bytes: &[u8],
    stride: usize,
    out: &mut [f64],
    dist: &mut Vec<f64>,
    dist_len: &mut Vec<usize>,
    alias: &mut Vec<u32>,
) -> io::Result<()> {
    let stride = stride.max(1);
    let n_blocks = out.len().div_ceil(stride);
    let mut r = BitReader::new(bytes);
    let n_distinct = r.take(32)? as usize;
    let mb = r.take(8)? as u32;
    let alias_bytes = r.take(8)? as usize;
    let _reserved = r.take(16)?;
    let expect_wide = n_blocks > u16::MAX as usize;
    if n_distinct > n_blocks || mb > 52 || alias_bytes != if expect_wide { 4 } else { 2 } {
        return Err(corrupt());
    }
    alias.clear();
    for _ in 0..n_blocks {
        let a = r.take(alias_bytes as u32 * 8)? as u32;
        if a as usize >= n_distinct {
            return Err(corrupt());
        }
        alias.push(a);
    }
    // A distinct block's entry count is the length of the first position
    // referencing it (dedup only ever aliases equal-length blocks).
    dist_len.clear();
    dist_len.resize(n_distinct, 0usize);
    for (b, &a) in alias.iter().enumerate() {
        let len = (out.len() - b * stride).min(stride);
        let known = &mut dist_len[a as usize];
        if *known == 0 {
            *known = len;
        } else if *known != len {
            return Err(corrupt());
        }
    }
    if dist_len.contains(&0) {
        return Err(corrupt()); // stored block never referenced
    }
    dist.clear();
    dist.resize(n_distinct * stride, 0.0);
    for d in 0..n_distinct {
        let n_entries = dist_len[d];
        let hdr = r.take(16)?;
        let min_exp = hdr & EXP_MAX;
        let db = (hdr >> 11) as u32;
        if db > 11 {
            return Err(corrupt());
        }
        for v in dist[d * stride..d * stride + n_entries].iter_mut() {
            let zero = r.take(1)?;
            let sign = r.take(1)?;
            let bits = if zero == 1 {
                sign << 63
            } else {
                let delta = if db > 0 { r.take(db)? } else { 0 };
                let m = if mb > 0 { r.take(mb)? } else { 0 };
                let e = min_exp + delta;
                if e > EXP_MAX {
                    return Err(corrupt());
                }
                (sign << 63) | (e << 52) | (m << (52 - mb))
            };
            *v = f64::from_bits(bits);
        }
        r.align();
    }
    for (b, &a) in alias.iter().enumerate() {
        let start = b * stride;
        let end = (start + stride).min(out.len());
        out[start..end]
            .copy_from_slice(&dist[a as usize * stride..a as usize * stride + (end - start)]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    /// Deterministic xorshift64* — no RNG dependency in this crate.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
        /// Likelihood-shaped value: magnitude in [2⁻³⁰⁰, 1), occasionally
        /// exactly zero.
        fn apv(&mut self) -> f64 {
            if self.next().is_multiple_of(16) {
                return 0.0;
            }
            let frac = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            let exp = -((self.next() % 300) as i32);
            (frac + 0.5) * (2f64).powi(exp)
        }
    }

    fn store(width: usize, stride: usize, mode: CompressionMode) -> CompressingStore<MemStore> {
        let cap = compressed_capacity_f64s(width, stride, mode);
        CompressingStore::new(MemStore::new(8, cap), 8, width, stride, mode)
    }

    #[test]
    fn exp_roundtrip_is_bit_identical() {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        let width = 48;
        let mut s = store(width, 16, CompressionMode::Exp);
        for item in 0..8u32 {
            let mut v: Vec<f64> = (0..width).map(|_| rng.apv()).collect();
            // Salt with every awkward bit pattern.
            v[0] = 0.0;
            v[1] = -0.0;
            v[2] = f64::INFINITY;
            v[3] = f64::NEG_INFINITY;
            v[4] = f64::NAN;
            v[5] = f64::from_bits(0x7FF0_0000_0000_0001); // signalling-ish NaN
            v[6] = f64::from_bits(1); // smallest subnormal
            v[7] = -2.5e-310; // negative subnormal
            v[8] = f64::MAX;
            v[9] = f64::MIN_POSITIVE;
            v[10] = -1.0;
            let mut back = vec![0.0; width];
            s.write(item, &v).unwrap();
            s.read(item, &mut back).unwrap();
            for (a, b) in v.iter().zip(&back) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "lossless mode must round-trip bits"
                );
            }
        }
    }

    #[test]
    fn repeated_site_blocks_alias_one_entry() {
        let stride = 8;
        let block: Vec<f64> = (0..stride).map(|i| 0.125 * (i as f64 + 1.0)).collect();
        // 6 identical blocks vs 6 distinct blocks of the same shape.
        let same: Vec<f64> = std::iter::repeat_n(block.clone(), 6).flatten().collect();
        let mut rng = Rng(42);
        let diff: Vec<f64> = (0..6 * stride).map(|_| rng.apv()).collect();
        let mut enc_same = Vec::new();
        let mut enc_diff = Vec::new();
        let (nb_s, nd_s) = encode_item(&same, stride, 52, &mut enc_same);
        let (nb_d, nd_d) = encode_item(&diff, stride, 52, &mut enc_diff);
        assert_eq!((nb_s, nd_s), (6, 1), "identical blocks share one entry");
        assert_eq!(nb_d, 6);
        assert!(nd_d > 1);
        assert!(
            enc_same.len() < enc_diff.len() / 3,
            "alias table must collapse repeats ({} vs {})",
            enc_same.len(),
            enc_diff.len()
        );
        // And the shared entry still round-trips every position.
        let mut s = store(same.len(), stride, CompressionMode::Exp);
        let mut back = vec![0.0; same.len()];
        s.write(0, &same).unwrap();
        s.read(0, &mut back).unwrap();
        assert_eq!(same, back);
        assert_eq!(s.counters().blocks_aliased.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn unwritten_items_read_as_zeros() {
        let mut s = store(24, 8, CompressionMode::Exp);
        let mut buf = vec![1.0; 24];
        s.read(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn worst_case_payload_stays_within_capacity() {
        // Adversarial input: every entry nonzero, exponents spanning the
        // full IEEE range so delta_bits hits 11, no block repeats.
        let mut rng = Rng(0xDEAD_BEEF);
        for &(width, stride) in &[(16usize, 16usize), (48, 16), (50, 16), (80, 20), (7, 3)] {
            let mode = CompressionMode::Exp;
            let vals: Vec<f64> = (0..width)
                .map(|_| {
                    let e = rng.next() % 2047;
                    let m = rng.next() & MANT_MASK;
                    let s = (rng.next() & 1) << 63;
                    f64::from_bits(s | (e << 52) | m)
                })
                .collect();
            let mut enc = Vec::new();
            encode_item(&vals, stride, mode.mant_bits(), &mut enc);
            let cap = compressed_capacity_f64s(width, stride, mode) * 8;
            assert!(
                enc.len() <= cap,
                "payload {} exceeds capacity {} (width {width}, stride {stride})",
                enc.len(),
                cap
            );
        }
    }

    #[test]
    fn file_backed_clone_shares_lengths_and_counters() {
        let dir = tempfile::tempdir().unwrap();
        let width = 32;
        let stride = 16;
        let cap = compressed_capacity_f64s(width, stride, CompressionMode::Exp);
        let file = FileStore::create(dir.path().join("c.bin"), 4, cap).unwrap();
        let mut a = CompressingStore::new(file, 4, width, stride, CompressionMode::Exp);
        let mut b = a.try_clone().unwrap();
        let mut rng = Rng(11);
        let v: Vec<f64> = (0..width).map(|_| rng.apv()).collect();
        a.write(2, &v).unwrap();
        // The clone sees the payload length written through `a` and
        // decodes the same bytes from the shared file.
        let mut back = vec![0.0; width];
        b.read(2, &mut back).unwrap();
        assert_eq!(v, back);
        let c = a.counters();
        assert_eq!(c.bytes_logical.load(Ordering::Relaxed), (width * 8) as u64);
        assert!(c.bytes_on_disk.load(Ordering::Relaxed) > 0);
        assert!(Arc::ptr_eq(&c, &b.counters()));
    }

    #[test]
    fn compresses_scale_banded_data() {
        // Post-rescaling APV data: entries within one site block share a
        // narrow exponent band (the block was rescaled as a unit), and
        // near-tip vectors repeat blocks across patterns with identical
        // subtree columns. The encoded stream must beat raw f64.
        let mut rng = Rng(5);
        let stride = 16;
        let n_patterns = 160;
        let mut vals = Vec::with_capacity(n_patterns * stride);
        for p in 0..n_patterns {
            if p % 4 == 3 {
                // Every fourth pattern repeats the previous block.
                let prev = vals[(p - 1) * stride..p * stride].to_vec();
                vals.extend(prev);
                continue;
            }
            let base = -((rng.next() % 240) as i32); // block's scale band
            for _ in 0..stride {
                let frac = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
                let spread = (rng.next() % 4) as i32; // ≤ 4 binary orders
                vals.push((frac + 0.5) * (2f64).powi(base - spread));
            }
        }
        let mut enc = Vec::new();
        encode_item(&vals, stride, 52, &mut enc);
        assert!(
            enc.len() < vals.len() * 8,
            "banded exponents must compress below raw ({} vs {})",
            enc.len(),
            vals.len() * 8
        );
        // And the exact round trip survives the slim framing.
        let mut out = vec![0.0; vals.len()];
        let (mut d, mut dl, mut al) = (Vec::new(), Vec::new(), Vec::new());
        decode_item(&enc, stride, &mut out, &mut d, &mut dl, &mut al).unwrap();
        assert_eq!(vals, out);
    }

    #[test]
    fn decode_rejects_corrupt_payloads() {
        let vals = vec![0.5; 32];
        let mut enc = Vec::new();
        encode_item(&vals, 16, 52, &mut enc);
        let mut out = vec![0.0; 32];
        let (mut d, mut dl, mut al) = (Vec::new(), Vec::new(), Vec::new());
        // Truncated payload.
        assert!(decode_item(
            &enc[..enc.len() / 2],
            16,
            &mut out,
            &mut d,
            &mut dl,
            &mut al
        )
        .is_err());
        // Distinct count exceeding the block count.
        let mut bloat = enc.clone();
        bloat[0] = 0xFF;
        assert!(decode_item(&bloat, 16, &mut out, &mut d, &mut dl, &mut al).is_err());
        // Alias out of range.
        let mut bad = enc.clone();
        bad[8] = 0xFF;
        assert!(decode_item(&bad, 16, &mut out, &mut d, &mut dl, &mut al).is_err());
    }
}
