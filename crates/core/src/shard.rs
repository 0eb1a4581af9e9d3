//! Site-range sharding: running `k` independent out-of-core managers over
//! disjoint column ranges of one alignment.
//!
//! The PLF is embarrassingly parallel across alignment sites — each
//! column's conditional likelihood depends only on that column — so an
//! alignment can be cut into `k` contiguous shards, each owning its own
//! [`crate::VectorManager`] over a disjoint region of the backing file. All
//! shards replay the *same* lowered access plan (the traversal order is a
//! property of the tree, not of the sites), and because every shard's
//! slice of each per-site result buffer is disjoint, a final reduction in
//! fixed shard order is exactly the serial left-to-right reduction —
//! results stay bit-identical to the single-manager path no matter how
//! the shards were scheduled onto threads.

use std::ops::Range;

/// Balanced partition of `n_columns` alignment columns into (at most) `k`
/// contiguous, non-empty, in-order ranges: the first `n_columns mod k` get
/// one extra column. `k` is clamped to `[1, n_columns]` so no range is ever
/// empty — a manager over zero columns has no backing geometry.
pub fn even_ranges(n_columns: usize, k: usize) -> Vec<Range<usize>> {
    assert!(n_columns > 0, "cannot shard an empty alignment");
    let k = k.clamp(1, n_columns);
    let (per, extra) = (n_columns / k, n_columns % k);
    let mut start = 0usize;
    let range = |s| {
        let len = per + usize::from(s < extra);
        start += len;
        start - len..start
    };
    (0..k).map(range).collect()
}

/// Worker count for sharded execution: `RAYON_NUM_THREADS` if set (the
/// conventional knob, honoured so CI can pin it), else the machine's
/// available parallelism, else 1.
pub fn parallelism() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f(index, item)` for every item, spread over at most
/// [`parallelism()`] scoped threads, and return the results **in item
/// order**. Each worker owns a contiguous chunk, so result placement is
/// positional and independent of scheduling; with one worker (or one
/// item) everything runs inline on the caller's thread. A panicking `f`
/// propagates out of the scope.
pub fn par_each_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    // Ask for the worker count only when there is something to spread:
    // `parallelism()` reads the environment and the cgroup CPU quota, tens
    // of microseconds that a one-shard engine would pay on every call.
    let workers = if n <= 1 { 1 } else { parallelism().min(n) };
    if workers <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let chunk = n.div_ceil(workers);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (c, (item_chunk, result_chunk)) in items
            .chunks_mut(chunk)
            .zip(results.chunks_mut(chunk))
            .enumerate()
        {
            let start = c * chunk;
            let f = &f;
            scope.spawn(move || {
                for (j, (item, slot)) in item_chunk
                    .iter_mut()
                    .zip(result_chunk.iter_mut())
                    .enumerate()
                {
                    *slot = Some(f(start + j, item));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// Divide an integer budget (slot bytes, RAM fraction in bytes, …) across
/// consumers proportionally to `weights`, by largest-remainder
/// apportionment: the shares sum to *exactly* `total`, and every consumer
/// with a non-zero weight gets at least 1 when `total` covers them. A
/// partitioned analysis uses this to split the paper's `-L` byte limit
/// across per-partition vector managers in proportion to each partition's
/// vector footprint (a 61-state codon partition needs ~15× the slot bytes
/// of a DNA partition of equal length).
pub fn split_budget(total: u64, weights: &[u64]) -> Vec<u64> {
    assert!(!weights.is_empty(), "need at least one consumer");
    let wsum: u128 = weights.iter().map(|&w| w as u128).sum();
    if wsum == 0 {
        // Degenerate: spread evenly, remainder to the front.
        let n = weights.len() as u64;
        let per = total / n;
        let extra = total % n;
        return (0..weights.len())
            .map(|i| per + u64::from((i as u64) < extra))
            .collect();
    }
    let mut shares: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let exact = total as u128 * w as u128;
        let floor = (exact / wsum) as u64;
        shares.push(floor);
        assigned += floor;
        remainders.push((exact % wsum, i));
    }
    // Hand the leftover units to the largest remainders (ties: lower
    // index first, for determinism).
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut left = total - assigned;
    for &(_, i) in &remainders {
        if left == 0 {
            break;
        }
        shares[i] += 1;
        left -= 1;
    }
    shares
}

/// [`split_budget`] behind the same byte-budget validation as
/// [`crate::OocConfig::builder`]: a zero or offset-overflowing `total`
/// errors *identically* from both paths
/// ([`crate::manager::validate_byte_budget`]), and a per-consumer share
/// that underflows to zero bytes (the budget cannot cover a nonzero-weight
/// consumer at all) is reported instead of silently handing out an
/// unusable zero budget.
pub fn split_budget_checked(
    total: u64,
    weights: &[u64],
) -> Result<Vec<u64>, crate::manager::OocConfigError> {
    use crate::manager::{validate_byte_budget, OocConfigError};
    validate_byte_budget(total)?;
    let shares = split_budget(total, weights);
    for (i, (&share, &w)) in shares.iter().zip(weights).enumerate() {
        if w > 0 && share == 0 {
            return Err(OocConfigError::new(format!(
                "byte budget {total} underflows to zero for consumer {i} \
                 (weight {w} of {})",
                weights.iter().map(|&x| x as u128).sum::<u128>()
            )));
        }
    }
    Ok(shares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{OocConfig, VectorManager};
    use crate::stats::OocStats;
    use crate::store::{FileStore, MemStore};
    use crate::strategy::StrategyKind;

    #[test]
    fn even_spec_is_balanced_and_contiguous() {
        assert_eq!(even_ranges(10, 4), [0..3, 3..6, 6..8, 8..10]);
        // k = 1 is the serial layout.
        assert_eq!(even_ranges(10, 1), vec![0..10]);
        // k > n clamps so no shard is empty.
        assert_eq!(even_ranges(3, 8), [0..1, 1..2, 2..3]);
    }

    #[test]
    fn split_budget_is_exact_and_proportional() {
        // Sums to exactly the total, proportional to weights.
        let shares = split_budget(100, &[1, 1, 2]);
        assert_eq!(shares.iter().sum::<u64>(), 100);
        assert_eq!(shares, vec![25, 25, 50]);
        // Largest remainders get the leftover units.
        let shares = split_budget(10, &[1, 1, 1]);
        assert_eq!(shares.iter().sum::<u64>(), 10);
        assert_eq!(shares, vec![4, 3, 3]);
        // Wildly uneven weights (DNA vs codon widths), huge totals.
        let shares = split_budget(1 << 40, &[16, 244]);
        assert_eq!(shares.iter().sum::<u64>(), 1 << 40);
        assert!(shares[1] > shares[0] * 15 - 64 && shares[1] < shares[0] * 16);
        // Zero weights spread evenly.
        assert_eq!(split_budget(7, &[0, 0, 0]), vec![3, 2, 2]);
    }

    #[test]
    fn par_each_mut_returns_in_item_order() {
        let mut items: Vec<usize> = (0..23).collect();
        let out = par_each_mut(&mut items, |i, x| {
            *x += 1;
            (i, *x)
        });
        for (i, &(idx, val)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(val, i + 1);
        }
        // Empty and single-item inputs run inline.
        let mut empty: Vec<usize> = vec![];
        assert!(par_each_mut(&mut empty, |_, _| ()).is_empty());
        let mut one = vec![7usize];
        assert_eq!(par_each_mut(&mut one, |_, x| *x * 2), vec![14]);
    }

    fn shard_managers(widths: &[usize], n: usize, m: usize) -> Vec<VectorManager<MemStore>> {
        widths
            .iter()
            .map(|&w| {
                VectorManager::new(
                    OocConfig::builder(n, w).slots(m).build().unwrap(),
                    StrategyKind::Lru.build(None),
                    MemStore::new(n, w),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_dispatch_matches_serial_dispatch() {
        // The same workload driven through par_each_mut and serially must
        // produce identical per-shard stats and identical data.
        let widths = [4usize, 4, 4, 4];
        let n = 10usize;
        let workload = |_s: usize, mgr: &mut VectorManager<MemStore>| {
            let w = mgr.config().width;
            for item in 0..n as u32 {
                let data: Vec<f64> = (0..w).map(|i| item as f64 + i as f64).collect();
                mgr.write_vector(item, &data).unwrap();
            }
            let mut buf = vec![0.0; w];
            for item in 0..n as u32 {
                mgr.read_into(item, &mut buf).unwrap();
            }
            *mgr.stats()
        };
        let mut par = shard_managers(&widths, n, 3);
        let par_stats = par_each_mut(&mut par, workload);
        let mut ser = shard_managers(&widths, n, 3);
        let ser_stats: Vec<OocStats> = ser
            .iter_mut()
            .enumerate()
            .map(|(s, mgr)| workload(s, mgr))
            .collect();
        assert_eq!(par_stats, ser_stats);
    }

    #[test]
    fn managers_over_file_regions_roundtrip_in_parallel() {
        let dir = tempfile::tempdir().unwrap();
        let widths = [6usize, 2];
        let n = 5usize;
        let regions = FileStore::create_regions(dir.path().join("s.bin"), n, &widths).unwrap();
        let mut shards: Vec<VectorManager<FileStore>> = regions
            .into_iter()
            .zip(widths)
            .map(|(store, w)| {
                VectorManager::new(
                    OocConfig::builder(n, w).slots(3).build().unwrap(),
                    StrategyKind::Lru.build(None),
                    store,
                )
            })
            .collect();
        par_each_mut(&mut shards, |s, mgr| {
            let w = mgr.config().width;
            for item in 0..n as u32 {
                let data = vec![(s * 100 + item as usize) as f64; w];
                mgr.write_vector(item, &data).unwrap();
            }
        });
        for (s, mgr) in shards.iter_mut().enumerate() {
            let mut buf = vec![0.0; widths[s]];
            for item in 0..n as u32 {
                mgr.read_into(item, &mut buf).unwrap();
                assert_eq!(buf, vec![(s * 100 + item as usize) as f64; widths[s]]);
            }
        }
    }

    /// Compile-time check: a manager over a Send store is Send, which is
    /// what lets scoped threads drive the shards.
    #[test]
    fn managers_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<VectorManager<MemStore>>();
        assert_send::<VectorManager<FileStore>>();
        assert_send::<VectorManager<crate::fault::FaultInjectingStore<FileStore>>>();
        assert_send::<VectorManager<crate::retry::RetryingStore<FileStore>>>();
    }
}
