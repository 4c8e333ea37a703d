//! Cross-thread aggregation audit for the telemetry registry and the
//! executor's `OpCounters` (the PR-9 serving layer records into both from
//! many workers at once). The audit's conclusion, pinned here as a
//! stress test: every registry recording path is a single atomic RMW
//! (`fetch_add` on counters, histogram bucket/count/sum, `fetch_max` on
//! gauges) — no read-modify-write is split across non-atomic steps — and
//! `OpCounters` is value-typed per task, merged by `absorb` in a single
//! owner thread, so totals are exact, not approximate. If any of these
//! ever regresses to a torn `load; add; store`, the exact-total
//! assertions below become flaky under contention.

use std::sync::Arc;

use probdb::prelude::OpCounters;

const THREADS: usize = 8;
const OPS: u64 = 20_000;

#[test]
fn registry_counters_and_histograms_count_exactly_under_contention() {
    let reg = telemetry::registry();
    let counter = reg.counter("test.concurrency.counter");
    let histogram = reg.histogram("test.concurrency.histogram");
    let gauge = reg.gauge("test.concurrency.gauge");
    let base_count = counter.get();
    let base_histo = histogram.count();
    let base_sum = histogram.sum_ns();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let counter = Arc::clone(&counter);
            let histogram = Arc::clone(&histogram);
            let gauge = Arc::clone(&gauge);
            scope.spawn(move || {
                for i in 0..OPS {
                    counter.incr();
                    histogram.record_ns(7);
                    gauge.record_max(t as u64 * OPS + i);
                }
            });
        }
    });

    let n = THREADS as u64 * OPS;
    assert_eq!(counter.get() - base_count, n, "counter lost increments");
    assert_eq!(histogram.count() - base_histo, n, "histogram lost samples");
    assert_eq!(
        histogram.sum_ns() - base_sum,
        7 * n,
        "histogram sum drifted"
    );
    assert_eq!(gauge.get(), THREADS as u64 * OPS - 1, "gauge max torn");
}

#[test]
fn registry_handles_are_shared_not_duplicated() {
    // Two lookups under the same name must alias one atomic cell —
    // otherwise per-worker `Arc` caches (the serving layer's pattern)
    // would fork the count.
    let reg = telemetry::registry();
    let a = reg.counter("test.concurrency.alias");
    let b = reg.counter("test.concurrency.alias");
    let before = a.get();
    b.add(3);
    assert_eq!(a.get(), before + 3);
}

#[test]
fn op_counters_absorb_is_lossless_across_task_partitions() {
    // OpCounters are value-typed: each parallel task fills its own, and
    // the owner absorbs them in task order. Absorbing any partition of
    // the same per-task counters must reproduce the serial total exactly.
    let per_task: Vec<OpCounters> = (0..16)
        .map(|i| OpCounters {
            scans: i,
            index_scans: i * 2,
            rows_scanned: i * 100,
            rows_pruned: i * 7,
            complement_scans: i % 3,
            complement_rows: i * 5,
            joins: i,
            joins_build_left: i / 2,
            join_rows: i * 11,
            groups: i * 3,
            est_builds: i % 4,
            ..OpCounters::default()
        })
        .collect();

    let mut serial = OpCounters::default();
    for c in &per_task {
        serial.absorb(c);
    }

    for split in [1usize, 3, 5, 8] {
        let mut partitioned = OpCounters::default();
        let mut partials: Vec<OpCounters> = Vec::new();
        for chunk in per_task.chunks(split) {
            let mut part = OpCounters::default();
            for c in chunk {
                part.absorb(c);
            }
            partials.push(part);
        }
        for p in &partials {
            partitioned.absorb(p);
        }
        assert_eq!(
            partitioned, serial,
            "absorb lost counts when partitioned by {split}"
        );
    }
}
