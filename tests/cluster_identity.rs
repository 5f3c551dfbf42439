//! Behaviour-preservation proof for the sharded streaming cluster
//! pipeline: on the full §7.1 policy suite, [`run_cluster_streaming`]
//! (router thread feeding one engine thread per shard over bounded
//! queues) must produce `ClusterReport` JSON that is **byte-identical**
//! to [`run_cluster`] (materialize every sub-trace, run the workers
//! sequentially) at shard counts 1, 2, 4 and 8.
//!
//! Determinism comes from routing order, per-shard subsequence order,
//! and worker-index-order reduction — not from scheduling luck.
//! `tests/golden_reports.rs` pins the bytes themselves. One case runs
//! the suite in a 1 GB pool per shard, so eviction, the admission queue
//! and the ladder wakes are exercised across shards too.

use rainbowcake::core::policy::Policy;
use rainbowcake::prelude::{MemMb, Micros, SimConfig};
use rainbowcake::sim::cluster::{
    run_cluster, run_cluster_streaming, ClusterReport, LocalitySharingLoad,
};
use rainbowcake_bench::{make_policy, Testbed, BASELINE_NAMES};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The sequential materialized reference for `name` on `bed`.
fn sequential(bed: &Testbed, name: &str, shards: usize) -> ClusterReport {
    let mut router = LocalitySharingLoad::default();
    let mut factory = || -> Box<dyn Policy> { make_policy(name, &bed.catalog) };
    run_cluster(
        &bed.catalog,
        &mut factory,
        &bed.trace,
        shards,
        &bed.config,
        &mut router,
    )
}

/// The sharded streaming pipeline for `name` on `bed`.
fn streamed(bed: &Testbed, name: &str, shards: usize) -> ClusterReport {
    let mut router = LocalitySharingLoad::default();
    let factory = || -> Box<dyn Policy> { make_policy(name, &bed.catalog) };
    run_cluster_streaming(
        &bed.catalog,
        &factory,
        bed.trace.iter().copied(),
        bed.trace.horizon(),
        shards,
        &bed.config,
        &mut router,
    )
    .report
}

#[test]
fn full_suite_is_byte_identical_across_shard_counts() {
    // Two paper hours keep the debug-build matrix (6 policies x 4 shard
    // counts x 2 pipelines) inside CI budget while every shard still
    // sees thousands of arrivals.
    let bed = Testbed::paper_hours(2);
    for name in BASELINE_NAMES {
        for shards in SHARD_COUNTS {
            assert_eq!(
                streamed(&bed, name, shards).to_json(),
                sequential(&bed, name, shards).to_json(),
                "{name}: streaming pipeline diverged at {shards} shards"
            );
        }
    }
}

#[test]
fn merged_streaming_report_matches_merged_sequential() {
    // The deterministic cross-shard reduction must also be invariant:
    // merging the streaming pipeline's per-worker reports gives the
    // same single-node rollup as merging the sequential pipeline's.
    let bed = Testbed::paper_hours(1);
    for shards in SHARD_COUNTS {
        assert_eq!(
            streamed(&bed, "RainbowCake", shards).merged().to_json(),
            sequential(&bed, "RainbowCake", shards).merged().to_json(),
            "merged reduction diverged at {shards} shards"
        );
    }
}

#[test]
fn suite_under_memory_pressure_is_byte_identical_across_shard_counts() {
    // At 1 GB per shard every policy evicts and queues admissions, where
    // the 240 GB default pool never does.
    let mut bed = Testbed::paper_hours(2);
    bed.config = SimConfig {
        memory_capacity: MemMb::from_gb(1),
        ..bed.config
    };
    for name in BASELINE_NAMES {
        for shards in [1, 2, 4] {
            let streaming = streamed(&bed, name, shards);
            assert_eq!(
                streaming.to_json(),
                sequential(&bed, name, shards).to_json(),
                "{name}: streaming pipeline diverged at {shards} shards under pressure"
            );
            let queued = streaming
                .merged()
                .records
                .iter()
                .filter(|r| r.queue > Micros::ZERO)
                .count();
            assert!(
                queued > 0,
                "{name} at {shards} shards queued nothing: the pool is not under pressure"
            );
        }
    }
}
