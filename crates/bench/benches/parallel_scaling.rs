//! Parallel executor scaling: speedup vs. thread count on a 100k-tuple
//! safe query.
//!
//! The workload is the `q_hier = R(x), S(x,y)` star family at `n = 20_000`
//! roots × fanout 4 (100k tuples): one scan-heavy join plus the
//! independent-project aggregation — the extensional hot path. `serial`
//! is the set-at-a-time executor; `par/T` runs the same (optimized) plan
//! on the operator-DAG executor over a morsel-driven pool of `T` workers. Results are
//! bit-for-bit identical across all configurations (asserted below);
//! only wall time moves.
//!
//! Besides the criterion medians, the bench prints an explicit speedup
//! table (serial time / parallel time per thread count) — on a
//! multi-core box the 4-thread row is the ≥2× acceptance gate; on a
//! single hardware thread it documents the pool's overhead instead.

use bench_harness::{star_workload, time};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use safeplan::{build_plan, dag_query_probability, optimize, query_probability, DagOptions};
use std::time::Duration;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench(c: &mut Criterion) {
    let (db, q) = star_workload(20_000, 4, 7);
    assert!(db.num_tuples() >= 100_000, "{}", db.num_tuples());
    let plan = optimize(&build_plan(&q).unwrap());

    // Correctness gate before timing: every thread count must reproduce
    // the serial scalar exactly.
    let serial_p = query_probability(&db, &plan);
    for t in THREADS {
        let (p, _) = dag_query_probability(&db, &plan, &DagOptions::new(t));
        assert_eq!(p, serial_p, "parallel executor diverged at {t} threads");
    }

    let mut group = c.benchmark_group("parallel_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("serial", |b| b.iter(|| query_probability(&db, &plan)));
    for t in THREADS {
        group.bench_with_input(BenchmarkId::new("par", t), &t, |b, &t| {
            b.iter(|| dag_query_probability(&db, &plan, &DagOptions::new(t)).0)
        });
    }
    group.finish();

    // Explicit speedup table (median-of-5 per configuration).
    let median = |f: &dyn Fn() -> f64| -> f64 {
        let mut times: Vec<f64> = (0..5).map(|_| time(f).0).collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        times[times.len() / 2]
    };
    let t_serial = median(&|| query_probability(&db, &plan));
    println!(
        "\nparallel_scaling speedup over serial ({} tuples):",
        db.num_tuples()
    );
    println!("  serial: {:.1} ms", t_serial * 1e3);
    for t in THREADS {
        let t_par = median(&|| dag_query_probability(&db, &plan, &DagOptions::new(t)).0);
        println!(
            "  {t} thread(s): {:.1} ms  speedup {:.2}x",
            t_par * 1e3,
            t_serial / t_par
        );
    }
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("  (hardware threads available: {hw})");
}

criterion_group!(benches, bench);
criterion_main!(benches);
