//! Columnar vs. row data plane on the 100k-tuple star workload.
//!
//! The workload is the `q_hier = R(x), S(x,y)` star family at `n = 20_000`
//! roots × fanout 4 (100k tuples) — one scan-heavy join plus the
//! independent-project aggregation, the extensional hot path. Four
//! configurations:
//!
//! * `row/serial`, `row/par4` — the PR-2 row-at-a-time reference executor
//!   (`safeplan::rowref`): `Vec<(Vec<Value>, P)>` rows, `BTreeMap`
//!   grouping, build-always-right joins;
//! * `columnar/serial`, `columnar/par4` — the flat-buffer executor
//!   (serial, and the operator-DAG executor at 4 threads):
//!   contiguous value buffer + probability column, packed-key grouping,
//!   build-side selection, constant pushdown.
//!
//! The bit-for-bit correctness gates and the median speedup table come
//! from `bench_harness::measure_columnar` — the same code path
//! `report -- columnar` serializes to `BENCH_columnar.json` — so the
//! bench and the trend-tracking JSON cannot drift. The acceptance bar for
//! PR 3 is columnar ≥ 2× row single-thread.

use bench_harness::{measure_columnar, star_workload};
use criterion::{criterion_group, criterion_main, Criterion};
use safeplan::rowref::{row_execute, row_execute_parallel};
use safeplan::{build_plan, dag_query_probability, optimize, query_probability, DagOptions, Pool};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    // Gates (columnar bit-for-bit the row reference, serial and at 2/4/8
    // threads) plus the median table, shared with `report -- columnar`.
    let m = measure_columnar(20_000, 4, 7, 5);
    assert!(m.tuples >= 100_000, "{}", m.tuples);

    let (db, q) = star_workload(m.roots, m.fanout, 7);
    let plan = optimize(&build_plan(&q).unwrap());
    let probs = db.prob_vector();

    let mut group = c.benchmark_group("columnar_exec");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("row/serial", |b| {
        b.iter(|| row_execute(&db, &probs, &plan).scalar())
    });
    group.bench_function("row/par4", |b| {
        b.iter(|| {
            let pool = Pool::new(4);
            row_execute_parallel(&db, &probs, &plan, &pool).scalar()
        })
    });
    group.bench_function("columnar/serial", |b| {
        b.iter(|| query_probability(&db, &plan))
    });
    group.bench_function("columnar/par4", |b| {
        b.iter(|| dag_query_probability(&db, &plan, &DagOptions::new(4)).0)
    });
    group.finish();

    println!("\ncolumnar_exec: row vs columnar on {} tuples:", m.tuples);
    println!("  row      serial: {:.1} ms", m.row_serial_s * 1e3);
    println!(
        "  columnar serial: {:.1} ms  ({:.2}x over row)",
        m.columnar_serial_s * 1e3,
        m.speedup_serial()
    );
    println!("  row      par/4 : {:.1} ms", m.row_par4_s * 1e3);
    println!(
        "  columnar par/4 : {:.1} ms  ({:.2}x over row par/4)",
        m.columnar_par4_s * 1e3,
        m.speedup_par4()
    );
    println!("  (hardware threads available: {})", m.hardware_threads);
}

criterion_group!(benches, bench);
criterion_main!(benches);
