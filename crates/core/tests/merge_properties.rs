//! Property tests for the merge algebra shared by [`OocStats`] and
//! [`LatencyHistogram`]: summing per-shard partials must equal the serial
//! totals, for every shard count the benchmarks use (k ∈ {1, 2, 4, 7}).
//! This is the invariant the engine's merged `ooc_stats` and the sharded
//! histogram roll-up rely on.

use ooc_core::{LatencyHistogram, OocStats};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// One simulated access observation: the counter deltas and latency one
/// manager access produces.
#[derive(Debug, Clone)]
struct Observation {
    hit: bool,
    read: bool,
    write: bool,
    latency_ns: u64,
    bytes: u64,
}

fn observation() -> impl Strategy<Value = Observation> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        // Latencies across all histogram scales, including the 0 bucket.
        prop_oneof![
            Just(0u64),
            1u64..1024,
            1024u64..1_000_000,
            1_000_000u64..10_000_000_000,
        ],
        0u64..100_000,
    )
        .prop_map(|(hit, read, write, latency_ns, bytes)| Observation {
            hit,
            read,
            write,
            latency_ns,
            bytes,
        })
}

fn apply(stats: &mut OocStats, hist: &mut LatencyHistogram, ob: &Observation) {
    stats.requests += 1;
    if ob.hit {
        stats.hits += 1;
    } else {
        stats.misses += 1;
        if ob.read {
            stats.disk_reads += 1;
            stats.bytes_read += ob.bytes;
        } else {
            stats.skipped_reads += 1;
        }
        if ob.write {
            stats.disk_writes += 1;
            stats.bytes_written += ob.bytes;
            stats.evictions += 1;
        }
    }
    hist.record(ob.latency_ns);
}

proptest! {
    /// Chunking an observation stream into k shards and summing the
    /// per-shard accumulations reproduces the serial accumulation exactly
    /// — both books, every field, any interleaving.
    #[test]
    fn sharded_sum_equals_serial(stream in proptest::collection::vec(observation(), 0..200)) {
        let mut serial_stats = OocStats::default();
        let mut serial_hist = LatencyHistogram::new();
        for ob in &stream {
            apply(&mut serial_stats, &mut serial_hist, ob);
        }
        for &k in &SHARD_COUNTS {
            let mut shard_stats = vec![OocStats::default(); k];
            let mut shard_hists = vec![LatencyHistogram::new(); k];
            for (i, ob) in stream.iter().enumerate() {
                apply(&mut shard_stats[i % k], &mut shard_hists[i % k], ob);
            }
            let merged_stats: OocStats = shard_stats.into_iter().sum();
            let merged_hist: LatencyHistogram = shard_hists.into_iter().sum();
            prop_assert_eq!(merged_stats, serial_stats, "OocStats diverged at k={}", k);
            prop_assert_eq!(merged_hist, serial_hist, "LatencyHistogram diverged at k={}", k);
            // The derived rates agree too — and are finite even when the
            // stream is empty (the requests == 0 guard).
            prop_assert!(merged_stats.miss_rate().is_finite());
            prop_assert!(merged_stats.read_rate().is_finite());
            prop_assert_eq!(merged_hist.count(), serial_hist.count());
            prop_assert_eq!(merged_hist.mean_ns().to_bits(), serial_hist.mean_ns().to_bits());
        }
    }

    /// Merging is order-insensitive: any permutation of the shard partials
    /// sums to the same totals (counter addition is commutative).
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(observation(), 0..50),
        b in proptest::collection::vec(observation(), 0..50),
    ) {
        let acc = |obs: &[Observation]| {
            let mut s = OocStats::default();
            let mut h = LatencyHistogram::new();
            for ob in obs {
                apply(&mut s, &mut h, ob);
            }
            (s, h)
        };
        let (sa, ha) = acc(&a);
        let (sb, hb) = acc(&b);
        prop_assert_eq!(sa + sb, sb + sa);
        prop_assert_eq!(ha + hb, hb + ha);
    }
}
