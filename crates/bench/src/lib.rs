//! # bench-harness — workloads and measurement helpers
//!
//! Shared infrastructure for the criterion benches and the `report` binary
//! that regenerates every table/figure of the paper (see DESIGN.md §1 for
//! the experiment index E1–E8).

use cq::{parse_query, Query, Value, Vocabulary};
use pdb::ProbDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A `(N, seconds, value)` measurement point for scaling figures.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    pub n: u64,
    pub seconds: f64,
    pub value: f64,
}

/// Build the `q_hier = R(x), S(x,y)` star workload: `n` roots, `fanout`
/// children each (the E4/E5 scaling family).
pub fn star_workload(n: u64, fanout: u64, seed: u64) -> (ProbDb, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..n {
        db.insert(r, vec![Value(i)], rng.gen_range(0.02..0.2));
        for j in 0..fanout {
            db.insert(
                s,
                vec![Value(i), Value(n + i * fanout + j)],
                rng.gen_range(0.02..0.3),
            );
        }
    }
    (db, q)
}

/// The §1.1 self-join workload for `q = R(x), S(x,y), S(x2,y2), T(x2)`
/// (inversion-free, exercised by the coverage-based safe plan).
pub fn selfjoin_workload(n: u64, seed: u64) -> (ProbDb, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y), S(x2,y2), T(x2)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let t = voc.find_relation("T").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..n {
        db.insert(r, vec![Value(i)], rng.gen_range(0.05..0.4));
        db.insert(t, vec![Value(i)], rng.gen_range(0.05..0.4));
        db.insert(s, vec![Value(i), Value(n + i)], rng.gen_range(0.05..0.4));
        db.insert(
            s,
            vec![Value(i), Value(n + (i + 1) % n)],
            rng.gen_range(0.05..0.4),
        );
    }
    (db, q)
}

/// A three-level hierarchy workload for `V(q) = 3`:
/// `R(x), S(x,y), U(x,y,z)`.
pub fn deep_workload(n: u64, fanout: u64, seed: u64) -> (ProbDb, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y), U(x,y,z)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let u = voc.find_relation("U").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..n {
        db.insert(r, vec![Value(i)], rng.gen_range(0.05..0.3));
        for j in 0..fanout {
            let y = n + i * fanout + j;
            db.insert(s, vec![Value(i), Value(y)], rng.gen_range(0.05..0.3));
            for l in 0..fanout {
                db.insert(
                    u,
                    vec![Value(i), Value(y), Value(10_000 + y * fanout + l)],
                    rng.gen_range(0.05..0.3),
                );
            }
        }
    }
    (db, q)
}

/// A bushy four-atom workload for the operator-DAG scheduler:
/// `R(x), S(x,y), U(x,y,z), V(x,w)`. The `V` scan/project subtree is
/// independent of the `S`/`U` chain, so a pipelined schedule overlaps
/// them; every relation gets `n`-proportional cardinality so every scan
/// splits into many morsels.
pub fn bushy_workload(n: u64, fanout: u64, seed: u64) -> (ProbDb, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y), U(x,y,z), V(x,w)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let u = voc.find_relation("U").unwrap();
    let v = voc.find_relation("V").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..n {
        db.insert(r, vec![Value(i)], rng.gen_range(0.05..0.3));
        for j in 0..fanout {
            let y = n + i * fanout + j;
            db.insert(s, vec![Value(i), Value(y)], rng.gen_range(0.05..0.3));
            db.insert(
                u,
                vec![Value(i), Value(y), Value(100_000 + y)],
                rng.gen_range(0.05..0.3),
            );
            db.insert(
                v,
                vec![Value(i), Value(200_000 + y)],
                rng.gen_range(0.05..0.3),
            );
        }
    }
    (db, q)
}

/// The `H_0` workload (hard query) on a bipartite-ish instance with `n`
/// left values: `R(x), S(x,y), S(x2,y2), T(y2)`.
pub fn h0_workload(n: u64, seed: u64) -> (ProbDb, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y), S(x2,y2), T(y2)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let t = voc.find_relation("T").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..n {
        db.insert(r, vec![Value(i)], rng.gen_range(0.2..0.8));
        db.insert(t, vec![Value(1000 + i)], rng.gen_range(0.2..0.8));
        // Sparse random bipartite S: two edges per left value.
        for _ in 0..2 {
            let j = rng.gen_range(0..n);
            db.insert(s, vec![Value(i), Value(1000 + j)], rng.gen_range(0.2..0.8));
        }
    }
    (db, q)
}

/// Time a closure, returning (seconds, result).
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Median of `runs` timings of `f` (seconds).
pub fn median_time(runs: usize, f: &dyn Fn() -> f64) -> f64 {
    let mut times: Vec<f64> = (0..runs).map(|_| time(f).0).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// One row-vs-columnar data-plane comparison on the star workload — the
/// shared substance of the `columnar_exec` bench and `report -- columnar`
/// (which serializes it to `BENCH_columnar.json`), so the gates and
/// configurations cannot drift between the two.
#[derive(Clone, Copy, Debug)]
pub struct ColumnarMeasurement {
    pub roots: u64,
    pub fanout: u64,
    pub tuples: usize,
    pub hardware_threads: usize,
    /// Median seconds per configuration.
    pub row_serial_s: f64,
    pub columnar_serial_s: f64,
    pub row_par4_s: f64,
    pub columnar_par4_s: f64,
}

impl ColumnarMeasurement {
    pub fn speedup_serial(&self) -> f64 {
        self.row_serial_s / self.columnar_serial_s
    }

    pub fn speedup_par4(&self) -> f64 {
        self.row_par4_s / self.columnar_par4_s
    }
}

/// Build the `roots × fanout` star workload, assert the columnar executor
/// reproduces the row-reference executor's scalar **bit for bit** (serial,
/// and the DAG executor at 2/4/8 threads), and time row/columnar serial
/// and 4-thread (median of `runs` each).
///
/// # Panics
/// If any configuration's probability diverges from the row reference.
pub fn measure_columnar(roots: u64, fanout: u64, seed: u64, runs: usize) -> ColumnarMeasurement {
    use safeplan::rowref::{row_execute, row_execute_parallel, row_query_probability};
    use safeplan::{dag_query_probability, query_probability, DagOptions, Pool};

    let (db, q) = star_workload(roots, fanout, seed);
    let plan = safeplan::optimize(&safeplan::build_plan(&q).unwrap());
    let probs = db.prob_vector();

    let row_p = row_query_probability(&db, &plan);
    assert_eq!(query_probability(&db, &plan), row_p, "columnar serial");
    for t in [2usize, 4, 8] {
        let (p, _) = dag_query_probability(&db, &plan, &DagOptions::new(t));
        assert_eq!(p, row_p, "columnar diverged at {t} threads");
    }

    ColumnarMeasurement {
        roots,
        fanout,
        tuples: db.num_tuples(),
        hardware_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        row_serial_s: median_time(runs, &|| row_execute(&db, &probs, &plan).scalar()),
        columnar_serial_s: median_time(runs, &|| query_probability(&db, &plan)),
        row_par4_s: median_time(runs, &|| {
            let pool = Pool::new(4);
            row_execute_parallel(&db, &probs, &plan, &pool).scalar()
        }),
        columnar_par4_s: median_time(runs, &|| {
            dag_query_probability(&db, &plan, &DagOptions::new(4)).0
        }),
    }
}

/// One pipelined-vs-serial executor comparison on the bushy workload —
/// the shared substance of `report -- pipeline` (which serializes it to
/// `BENCH_pipeline.json`): the serial oracle and the operator-DAG
/// executor at 1 and 4 threads, all asserted bit-for-bit equal first.
#[derive(Clone, Debug)]
pub struct PipelineMeasurement {
    pub roots: u64,
    pub fanout: u64,
    pub tuples: usize,
    pub hardware_threads: usize,
    /// Median seconds per configuration.
    pub serial_s: f64,
    /// DAG scheduler, 4 threads.
    pub dag_par4_s: f64,
    /// DAG path at threads=1 — the pipelining overhead floor (gate: must
    /// not be materially slower than the plain serial path).
    pub dag_serial_s: f64,
    /// Schedule shape of a 4-thread run.
    pub tasks: u64,
    pub max_ready: u64,
    /// Wall-clock seconds during which ≥2 tasks overlapped.
    pub overlap_s: f64,
}

impl PipelineMeasurement {
    pub fn speedup_dag_vs_serial(&self) -> f64 {
        self.serial_s / self.dag_par4_s
    }

    pub fn dag_overhead_vs_serial(&self) -> f64 {
        self.dag_serial_s / self.serial_s
    }
}

/// Build the `roots × fanout` bushy workload, assert the DAG executor
/// reproduces the serial scalar **bit for bit** at 1, 2, 4 and 8 threads,
/// and time serial / DAG at 1 thread / DAG at 4 threads (median of `runs`
/// each).
///
/// # Panics
/// If any configuration's probability diverges from the serial oracle.
pub fn measure_pipeline(roots: u64, fanout: u64, seed: u64, runs: usize) -> PipelineMeasurement {
    use safeplan::{dag_query_probability, query_probability, DagOptions};

    let (db, q) = bushy_workload(roots, fanout, seed);
    let plan = safeplan::optimize(&safeplan::build_plan(&q).unwrap());

    let serial_p = query_probability(&db, &plan);
    for threads in [1usize, 2, 4, 8] {
        let (p, _) = dag_query_probability(&db, &plan, &DagOptions::new(threads));
        assert_eq!(p, serial_p, "DAG diverged at t={threads}");
    }
    let (_, run) = dag_query_probability(&db, &plan, &DagOptions::new(4));

    PipelineMeasurement {
        roots,
        fanout,
        tuples: db.num_tuples(),
        hardware_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        serial_s: median_time(runs, &|| query_probability(&db, &plan)),
        dag_par4_s: median_time(runs, &|| {
            dag_query_probability(&db, &plan, &DagOptions::new(4)).0
        }),
        dag_serial_s: median_time(runs, &|| {
            dag_query_probability(&db, &plan, &DagOptions::new(1)).0
        }),
        tasks: run.sched.tasks,
        max_ready: run.sched.max_ready,
        overlap_s: run.sched.overlap.as_secs_f64(),
    }
}

/// One incremental-refresh vs full-re-execution comparison on the star
/// workload under churn — the shared substance of the `incremental_refresh`
/// bench and `report -- incremental` (which serializes it to
/// `BENCH_incremental.json`), so the gates and configurations cannot drift.
#[derive(Clone, Copy, Debug)]
pub struct IncrementalMeasurement {
    pub roots: u64,
    pub fanout: u64,
    pub tuples: usize,
    pub rounds: usize,
    /// Tuple-level operations per round (~1% of the database).
    pub churn_per_round: usize,
    pub hardware_threads: usize,
    /// Median seconds per round.
    pub full_reexec_s: f64,
    pub refresh_s: f64,
    /// View counters accumulated over all rounds.
    pub rows_retouched: u64,
    pub rows_avoided: u64,
    pub groups_refolded: u64,
}

impl IncrementalMeasurement {
    pub fn speedup(&self) -> f64 {
        self.full_reexec_s / self.refresh_s
    }
}

/// Build the `roots × fanout` star workload through the delta log,
/// subscribe an incremental view, then run `rounds` rounds of ~1% churn
/// (probability updates, fresh inserts, and deletes of existing tuples).
/// Every round asserts the refreshed probability is **bit-for-bit** the
/// cold columnar execution's, and times refresh vs full re-execution
/// (median over rounds).
///
/// # Panics
/// If any round's refreshed probability diverges from cold execution.
pub fn measure_incremental(
    roots: u64,
    fanout: u64,
    rounds: usize,
    seed: u64,
) -> IncrementalMeasurement {
    use incremental::{IncrementalView, RefreshOptions};
    use pdb::DeltaBatch;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let plan = safeplan::optimize(&safeplan::build_plan(&q).unwrap());
    let mut db = ProbDb::new(voc);
    let mut load = DeltaBatch::new();
    for i in 0..roots {
        load.insert(r, vec![Value(i)], rng.gen_range(0.02..0.2));
        for j in 0..fanout {
            load.insert(
                s,
                vec![Value(i), Value(roots + i * fanout + j)],
                rng.gen_range(0.02..0.3),
            );
        }
    }
    db.apply(&load);
    let tuples = db.num_tuples();
    let churn = (tuples / 100).max(1);

    let mut view = IncrementalView::new(&db, &plan).unwrap();
    let mut next_y = roots * (fanout + 1) + 1; // fresh S children
    let mut refresh_times: Vec<f64> = Vec::with_capacity(rounds);
    let mut full_times: Vec<f64> = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut batch = DeltaBatch::new();
        for c in 0..churn {
            match c % 10 {
                // 10% fresh inserts under a random existing root.
                0 => {
                    let root = rng.gen_range(0..roots);
                    batch.insert(
                        s,
                        vec![Value(root), Value(next_y)],
                        rng.gen_range(0.02..0.3),
                    );
                    next_y += 1;
                }
                // 10% deletes of random live S tuples.
                5 => {
                    let ids = db.tuples_of(s);
                    let id = ids[rng.gen_range(0..ids.len())];
                    batch.delete(s, db.tuple(id).args.clone());
                }
                // 80% probability updates (R and S, the canonical
                // probabilistic-DB churn: extractor confidences drift).
                k => {
                    let rel = if k < 3 { r } else { s };
                    let ids = db.tuples_of(rel);
                    let id = ids[rng.gen_range(0..ids.len())];
                    batch.update(rel, db.tuple(id).args.clone(), rng.gen_range(0.02..0.3));
                }
            }
        }
        db.apply(&batch);
        let (t_refresh, _) = time(|| view.refresh(&db, RefreshOptions::serial()));
        refresh_times.push(t_refresh);
        let (t_full, p_cold) = time(|| safeplan::query_probability(&db, &plan));
        full_times.push(t_full);
        assert_eq!(
            view.probability().to_bits(),
            p_cold.to_bits(),
            "round {round}: refresh must be bit-for-bit a cold execution"
        );
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };
    let counters = view.counters();
    IncrementalMeasurement {
        roots,
        fanout,
        tuples,
        rounds,
        churn_per_round: churn,
        hardware_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        full_reexec_s: median(full_times),
        refresh_s: median(refresh_times),
        rows_retouched: counters.rows_retouched,
        rows_avoided: counters.rows_avoided,
        groups_refolded: counters.groups_refolded,
    }
}

/// One traced-vs-untraced telemetry comparison on the star workload — the
/// shared substance of `report -- obs` (which serializes it to
/// `BENCH_obs.json` and the captured trace to `TRACE_obs.json`): the same
/// threaded engine evaluation timed with span tracing off and
/// forced on, plus the shape of the trace one run records.
#[derive(Clone, Debug)]
pub struct ObsMeasurement {
    pub roots: u64,
    pub fanout: u64,
    pub tuples: usize,
    pub hardware_threads: usize,
    /// Median seconds per evaluation, tracing disabled (the production
    /// default: one relaxed atomic load per instrumentation point).
    pub untraced_s: f64,
    /// Median seconds per evaluation with span tracing forced on.
    pub traced_s: f64,
    /// Spans one traced evaluation records.
    pub spans: usize,
    /// Spans dropped at [`telemetry::span::SPAN_CAP`] during that run.
    pub dropped: u64,
    /// Bytes of the Chrome trace-event JSON export of that run.
    pub trace_bytes: usize,
    /// The captured Chrome trace itself (for the `TRACE_obs.json` artifact).
    pub trace_json: String,
}

impl ObsMeasurement {
    /// Traced wall time over untraced wall time (1.0 = free).
    pub fn overhead(&self) -> f64 {
        self.traced_s / self.untraced_s
    }
}

/// Build the `roots × fanout` star workload, assert span tracing does not
/// perturb the engine's scalar (bit for bit, threads=4), and time
/// the evaluation untraced vs traced (median of `runs` each). One final
/// traced run is exported as Chrome trace JSON.
///
/// Flips the process-global tracing flag; leaves it disabled on return.
///
/// # Panics
/// If the traced probability diverges from the untraced probability.
pub fn measure_obs(roots: u64, fanout: u64, seed: u64, runs: usize) -> ObsMeasurement {
    use dichotomy::engine::{Engine, ExecOptions, Strategy};

    let (db, q) = star_workload(roots, fanout, seed);
    let engine = Engine::with_options(0, 7, ExecOptions::with_threads(4));
    let eval = || {
        engine
            .evaluate(&db, &q, Strategy::Auto)
            .expect("star workload is safe")
            .probability
    };

    telemetry::set_enabled(false);
    telemetry::clear_spans();
    let p_off = eval();
    let untraced_s = median_time(runs, &eval);

    telemetry::set_enabled(true);
    telemetry::clear_spans();
    let p_on = eval();
    assert_eq!(
        p_off.to_bits(),
        p_on.to_bits(),
        "tracing must not perturb the result"
    );
    let traced_s = median_time(runs, &eval);

    // One clean capture run for the artifact (the timing runs above left
    // spans of `runs` evaluations in the sink).
    telemetry::clear_spans();
    let _ = eval();
    let spans = telemetry::take_spans();
    let dropped = telemetry::dropped_spans();
    let trace_json = telemetry::chrome_trace(&spans);
    telemetry::clear_spans();
    telemetry::set_enabled(false);

    ObsMeasurement {
        roots,
        fanout,
        tuples: db.num_tuples(),
        hardware_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        untraced_s,
        traced_s,
        spans: spans.len(),
        dropped,
        trace_bytes: trace_json.len(),
        trace_json,
    }
}

/// Client-observed latency percentiles over one endpoint (exact, from the
/// sorted per-request samples — not histogram buckets).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    pub count: usize,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

fn summarize_ns(mut samples: Vec<u64>) -> LatencySummary {
    if samples.is_empty() {
        return LatencySummary::default();
    }
    samples.sort_unstable();
    let pick = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize];
    LatencySummary {
        count: samples.len(),
        p50_ns: pick(0.50),
        p95_ns: pick(0.95),
        p99_ns: pick(0.99),
    }
}

/// Closed-loop serving measurement: client threads driving a live
/// [`serve::Server`] over real sockets.
#[derive(Clone, Debug)]
pub struct ServeMeasurement {
    pub roots: u64,
    pub fanout: u64,
    pub tuples: usize,
    pub hardware_threads: usize,
    pub clients: usize,
    pub requests_per_client: usize,
    /// Read QPS of one closed-loop client.
    pub single_qps: f64,
    /// Aggregate QPS of `clients` closed-loop clients on the mixed
    /// workload.
    pub multi_qps: f64,
    /// `multi_qps / single_qps` — ≥ 2 with real hardware parallelism; ~1
    /// on a single hardware thread (then `warm_overhead` is the gate).
    pub qps_ratio: f64,
    pub eval: LatencySummary,
    pub rank: LatencySummary,
    pub apply: LatencySummary,
    pub watch: LatencySummary,
    /// Median direct `Engine::evaluate` call, same process, no HTTP (plan
    /// cached, result cache off) — the per-request baseline.
    pub direct_ns: u64,
    /// Median served eval that missed the result cache.
    pub served_cold_ns: u64,
    /// Median served eval that hit the result cache.
    pub served_warm_ns: u64,
    /// `served_warm_ns / direct_ns` — the per-request serving overhead
    /// once the result cache is warm (the ≤ 1.15× gate on one hardware
    /// thread; well below 1 when execution dominates).
    pub warm_overhead: f64,
    pub result_cache_hits: u64,
    pub result_cache_misses: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    /// Snapshot publications observed (from `server.publish_ns`).
    pub publish_count: u64,
    pub publish_p50_ns: u64,
    pub publish_p99_ns: u64,
    /// Client-observed eval p95 with no writer active…
    pub quiet_eval_p95_ns: u64,
    /// …and with a writer publishing epochs in a tight loop. Readers
    /// never block on `apply`, so this stays the same order of magnitude
    /// (cold re-evaluations after each publish, not lock waits).
    pub churn_eval_p95_ns: u64,
    pub churn_ratio: f64,
    /// Warm (result-cache hit) eval p95 with observability ON (access log
    /// + flight recorder + span capture, the default)…
    pub obs_warm_p95_ns: u64,
    /// …and with observability OFF (the PR-9 baseline server).
    pub baseline_warm_p95_ns: u64,
    /// `obs_warm_p95_ns / baseline_warm_p95_ns` — the always-on
    /// observability overhead (the ≤ 1.05 gate).
    pub obs_overhead_p95: f64,
    /// Metric families in the mid-run `/metrics` scrape (validated as
    /// well-formed Prometheus text exposition — the scrape panics the
    /// bench otherwise).
    pub metrics_families: usize,
    /// The raw `/metrics` scrape (report artifact).
    pub metrics_text: String,
    /// The JSONL access-log tail, one line per served request (every line
    /// re-parsed as JSON during the measurement).
    pub access_log: Vec<String>,
    /// Access-log entries flagged slow (carrying the plan summary).
    pub slow_log_lines: usize,
    /// The raw `/debug/requests` flight-recorder dump (report artifact).
    pub debug_dump: String,
    /// Requests the flight recorder had seen at dump time.
    pub debug_recorded: u64,
}

/// Per-client latency samples from the mixed phase, one `Vec` per
/// endpoint: (eval, rank, apply, watch).
type EndpointSamples = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>);

/// Drive a live server end to end and measure closed-loop serving:
///
/// 1. direct-engine baseline (no HTTP, no result cache),
/// 2. one closed-loop client on `/eval` (QPS + cold/warm split),
/// 3. `clients` closed-loop clients on a mixed eval/rank/watch/apply
///    workload (aggregate QPS + per-endpoint percentiles),
/// 4. eval latency while a writer publishes epochs in a tight loop,
/// 5. observability overhead: the phase-2 warm loop repeated against a
///    second server with observability off (the PR-9 baseline), plus a
///    mid-run `/metrics` scrape (validated as Prometheus text), the
///    access-log tail (every line re-parsed as JSON), and a
///    `/debug/requests` flight-recorder dump.
///
/// # Panics
/// If any request fails, a result-cache hit is not bit-identical to the
/// cold evaluation it memoized, the `/metrics` scrape is not valid
/// Prometheus text exposition, or an access-log line is not valid JSON.
pub fn measure_serve(
    roots: u64,
    fanout: u64,
    seed: u64,
    clients: usize,
    requests: usize,
) -> ServeMeasurement {
    use dichotomy::engine::{Engine, ExecOptions, Strategy};
    use serve::{HttpClient, ServeOptions, Server};
    use std::time::Instant;

    let (db, q) = star_workload(roots, fanout, seed);
    let tuples = db.num_tuples();
    let base_query = "R(x), S(x,y)";
    // Point queries (numeric constants — no vocabulary growth) for cache
    // variety in the mixed phase.
    let point_queries: Vec<String> = (0..8.min(roots))
        .map(|k| format!("R({k}), S({k}, y)"))
        .collect();

    // Phase 1: direct baseline. Plan once, then median per-call time.
    let direct_engine = Engine::with_options(0, 0xDA151, ExecOptions::default());
    let expected = direct_engine
        .evaluate(&db, &q, Strategy::Auto)
        .expect("star workload is safe");
    let direct_ns = {
        let mut times: Vec<u64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                let ev = direct_engine.evaluate(&db, &q, Strategy::Auto).unwrap();
                assert_eq!(ev.probability.to_bits(), expected.probability.to_bits());
                t.elapsed().as_nanos() as u64
            })
            .collect();
        times.sort_unstable();
        times[times.len() / 2]
    };

    let server = Server::start(
        db,
        ServeOptions {
            workers: clients.max(2),
            watch_timeout: std::time::Duration::from_millis(500),
            ..ServeOptions::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let eval_body = format!("{{\"query\":\"{base_query}\"}}");

    // Phase 2: one closed-loop client, reads only. Splits cold (result
    // cache miss) from warm (hit) and asserts hits are bit-identical.
    let mut client = HttpClient::connect(addr).expect("connect");
    let mut cold_ns = Vec::new();
    let mut warm_ns = Vec::new();
    let mut quiet_eval_ns = Vec::new();
    let mut cold_bits: Option<u64> = None;
    let single_start = Instant::now();
    for _ in 0..requests {
        let t = Instant::now();
        let resp = client.post("/eval", &eval_body).expect("eval");
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = telemetry::json::parse(&resp.body).expect("eval response json");
        let p = doc.get("probability").and_then(|j| j.as_f64()).unwrap();
        assert_eq!(
            p.to_bits(),
            expected.probability.to_bits(),
            "served answer diverged from the direct engine call"
        );
        let hit = doc.get("result_cache_hit") == Some(&telemetry::json::Json::Bool(true));
        if hit {
            let bits = cold_bits.expect("a hit before any cold run");
            assert_eq!(p.to_bits(), bits, "cache hit not bit-identical");
            warm_ns.push(ns);
        } else {
            cold_bits = Some(p.to_bits());
            cold_ns.push(ns);
        }
        quiet_eval_ns.push(ns);
    }
    let single_s = single_start.elapsed().as_secs_f64();
    let single_qps = requests as f64 / single_s;
    let served_cold_ns = summarize_ns(cold_ns).p50_ns;
    let served_warm_ns = summarize_ns(warm_ns.clone()).p50_ns;
    let quiet_eval_p95_ns = summarize_ns(quiet_eval_ns).p95_ns;

    // Phase 3: `clients` closed-loop clients, mixed workload. Client 0
    // interleaves applies (writer traffic); everyone else reads: evals
    // over the base + point queries, ranks, and single-update watches.
    let multi_start = Instant::now();
    let per_client: Vec<EndpointSamples> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let point_queries = &point_queries;
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let mut eval_ns = Vec::new();
                    let mut rank_ns = Vec::new();
                    let mut apply_ns = Vec::new();
                    let mut watch_ns = Vec::new();
                    for i in 0..requests {
                        let t = Instant::now();
                        if c == 0 && i % 10 == 9 {
                            let k = (i as u64) % roots;
                            let body =
                                format!("{{\"deltas\":\"~ R({k}) @ 0.{:02}\"}}", 10 + (i % 80));
                            let resp = client.post("/apply", &body).expect("apply");
                            assert_eq!(resp.status, 200, "{}", resp.body);
                            apply_ns.push(t.elapsed().as_nanos() as u64);
                        } else if i % 7 == 3 {
                            let body =
                                r#"{"query":"R(x0), S(x0,x1)","head":"x0","top":5}"#.to_string();
                            let resp = client.post("/rank", &body).expect("rank");
                            assert_eq!(resp.status, 200, "{}", resp.body);
                            rank_ns.push(t.elapsed().as_nanos() as u64);
                        } else if i % 11 == 5 {
                            let body = format!("{{\"query\":\"{base_query}\",\"updates\":1}}");
                            let resp = client.post("/watch", &body).expect("watch");
                            assert_eq!(resp.status, 200, "{}", resp.body);
                            watch_ns.push(t.elapsed().as_nanos() as u64);
                        } else {
                            let qtext = if i % 3 == 0 {
                                base_query
                            } else {
                                &point_queries[i % point_queries.len()]
                            };
                            let body = format!("{{\"query\":\"{qtext}\"}}");
                            let resp = client.post("/eval", &body).expect("eval");
                            assert_eq!(resp.status, 200, "{}", resp.body);
                            eval_ns.push(t.elapsed().as_nanos() as u64);
                        }
                    }
                    (eval_ns, rank_ns, apply_ns, watch_ns)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let multi_s = multi_start.elapsed().as_secs_f64();
    let multi_qps = (clients * requests) as f64 / multi_s;
    let mut eval_all = Vec::new();
    let mut rank_all = Vec::new();
    let mut apply_all = Vec::new();
    let mut watch_all = Vec::new();
    for (e, r, a, w) in per_client {
        eval_all.extend(e);
        rank_all.extend(r);
        apply_all.extend(a);
        watch_all.extend(w);
    }

    // Phase 4: eval latency with a writer publishing in a tight loop —
    // the no-reader-blocks-on-apply check. The writer goes through the
    // server's own apply path (writer lock + publish), the reader is a
    // plain closed-loop eval client.
    let stop_writer = std::sync::atomic::AtomicBool::new(false);
    let churn_ns: Vec<u64> = std::thread::scope(|scope| {
        let writer_handle = {
            let stop_writer = &stop_writer;
            let server = &server;
            scope.spawn(move || {
                let mut i = 0u64;
                let mut publishes = 0usize;
                while !stop_writer.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = i % roots;
                    server
                        .apply(&format!("~ R({k}) @ 0.{:02}", 10 + (i % 80)))
                        .expect("writer apply");
                    publishes += 1;
                    i += 1;
                }
                publishes
            })
        };
        let mut client = HttpClient::connect(addr).expect("connect");
        let mut samples = Vec::with_capacity(requests);
        for _ in 0..requests {
            let t = Instant::now();
            let resp = client.post("/eval", &eval_body).expect("churn eval");
            assert_eq!(resp.status, 200, "{}", resp.body);
            samples.push(t.elapsed().as_nanos() as u64);
        }
        stop_writer.store(true, std::sync::atomic::Ordering::Relaxed);
        let publishes = writer_handle.join().unwrap();
        assert!(publishes > 0, "writer never published during churn");
        samples
    });
    let churn_eval_p95_ns = summarize_ns(churn_ns).p95_ns;

    // Phase 5a: observability surfaces, scraped while the server is hot.
    // The exposition must parse — this is the "curl /metrics is valid
    // Prometheus text" gate CI enforces via the bench artifact.
    let mut client = HttpClient::connect(addr).expect("connect");
    let metrics_resp = client.get("/metrics").expect("metrics");
    assert_eq!(metrics_resp.status, 200, "{}", metrics_resp.body);
    let metrics_text = metrics_resp.body;
    let families =
        telemetry::expose::parse_exposition(&metrics_text).expect("/metrics is valid exposition");
    assert!(
        families
            .iter()
            .any(|f| f.name == "server_requests_total" && f.kind == "counter"),
        "scrape must carry the request counter"
    );
    let debug_resp = client.get("/debug/requests").expect("debug");
    assert_eq!(debug_resp.status, 200, "{}", debug_resp.body);
    let debug_dump = debug_resp.body;
    let ddoc = telemetry::json::parse(&debug_dump).expect("debug dump json");
    let debug_recorded = ddoc.get("recorded").and_then(|j| j.as_u64()).unwrap_or(0);
    let access_log = server.access_log_tail();
    let mut slow_log_lines = 0;
    for line in &access_log {
        let doc = telemetry::json::parse(line).expect("access log line is JSON");
        if doc.get("slow") == Some(&telemetry::json::Json::Bool(true)) {
            slow_log_lines += 1;
        }
    }

    // Harvest server-side cache/publish statistics.
    let stats = client.get("/stats").expect("stats");
    let sdoc = telemetry::json::parse(&stats.body).expect("stats json");
    let u64_at = |path: &[&str]| -> u64 {
        let mut j = &sdoc;
        for p in path {
            j = j.get(p).unwrap_or(&telemetry::json::Json::Null);
        }
        j.as_u64().unwrap_or(0)
    };
    drop(client);
    drop(server);

    // Phase 5b: the ≤ 5% overhead gate. Two fresh servers over the same
    // database — one with observability on (the default), one with it off
    // (the PR-9 baseline) — measured back-to-back with the requests
    // interleaved so clock drift, page-cache state, and thermal effects
    // hit both sides equally. Warm-up requests are excluded; only warm
    // (result-cache hit) samples count, and every answer on both sides
    // must stay bit-identical to the direct engine call.
    let (obs_db, _) = star_workload(roots, fanout, seed);
    let (baseline_db, _) = star_workload(roots, fanout, seed);
    let obs_server = Server::start(
        obs_db,
        ServeOptions {
            workers: clients.max(2),
            watch_timeout: std::time::Duration::from_millis(500),
            ..ServeOptions::default()
        },
    )
    .expect("obs server starts");
    let baseline_server = Server::start(
        baseline_db,
        ServeOptions {
            workers: clients.max(2),
            watch_timeout: std::time::Duration::from_millis(500),
            observability: false,
            ..ServeOptions::default()
        },
    )
    .expect("baseline server starts");
    let mut obs_client = HttpClient::connect(obs_server.addr()).expect("connect");
    let mut base_client = HttpClient::connect(baseline_server.addr()).expect("connect");
    let mut obs_warm_ns = Vec::new();
    let mut baseline_warm_ns = Vec::new();
    let warmup = 20usize;
    let measured = requests.max(300);
    for i in 0..warmup + measured {
        for (client, samples, side) in [
            (&mut obs_client, &mut obs_warm_ns, "obs"),
            (&mut base_client, &mut baseline_warm_ns, "baseline"),
        ] {
            let t = Instant::now();
            let resp = client.post("/eval", &eval_body).expect("overhead eval");
            let ns = t.elapsed().as_nanos() as u64;
            assert_eq!(resp.status, 200, "{}", resp.body);
            let doc = telemetry::json::parse(&resp.body).expect("overhead eval json");
            let p = doc.get("probability").and_then(|j| j.as_f64()).unwrap();
            assert_eq!(
                p.to_bits(),
                expected.probability.to_bits(),
                "{side} served answer diverged from the direct engine call"
            );
            let hit = doc.get("result_cache_hit") == Some(&telemetry::json::Json::Bool(true));
            if hit && i >= warmup {
                samples.push(ns);
            }
        }
    }
    drop(obs_client);
    drop(base_client);
    drop(obs_server);
    drop(baseline_server);
    let obs_warm_p95_ns = summarize_ns(obs_warm_ns).p95_ns;
    let baseline_warm_p95_ns = summarize_ns(baseline_warm_ns).p95_ns;

    ServeMeasurement {
        roots,
        fanout,
        tuples,
        hardware_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        clients,
        requests_per_client: requests,
        single_qps,
        multi_qps,
        qps_ratio: multi_qps / single_qps,
        eval: summarize_ns(eval_all),
        rank: summarize_ns(rank_all),
        apply: summarize_ns(apply_all),
        watch: summarize_ns(watch_all),
        direct_ns,
        served_cold_ns,
        served_warm_ns,
        warm_overhead: served_warm_ns as f64 / direct_ns.max(1) as f64,
        result_cache_hits: u64_at(&["result_cache", "hits"]),
        result_cache_misses: u64_at(&["result_cache", "misses"]),
        plan_hits: u64_at(&["plan_cache", "hits"]),
        plan_misses: u64_at(&["plan_cache", "misses"]),
        publish_count: u64_at(&["publish", "count"]),
        publish_p50_ns: u64_at(&["publish", "p50_ns"]),
        publish_p99_ns: u64_at(&["publish", "p99_ns"]),
        quiet_eval_p95_ns,
        churn_eval_p95_ns,
        churn_ratio: churn_eval_p95_ns as f64 / quiet_eval_p95_ns.max(1) as f64,
        obs_warm_p95_ns,
        baseline_warm_p95_ns,
        obs_overhead_p95: obs_warm_p95_ns as f64 / baseline_warm_p95_ns.max(1) as f64,
        metrics_families: families.len(),
        metrics_text,
        access_log,
        slow_log_lines,
        debug_dump,
        debug_recorded,
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the polynomial degree
/// estimate for scaling figures.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.max(1e-12).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy::engine::{Engine, Method, Strategy};

    #[test]
    fn workloads_have_expected_shapes() {
        let (db, q) = star_workload(5, 3, 1);
        assert_eq!(db.num_tuples(), 5 + 15);
        assert_eq!(q.atoms.len(), 2);
        let (db, _) = selfjoin_workload(4, 1);
        assert_eq!(db.num_tuples(), 4 * 4);
        let (db, _) = deep_workload(2, 2, 1);
        assert_eq!(db.num_tuples(), 2 + 4 + 8);
        let (db, _) = h0_workload(3, 1);
        assert!(db.num_tuples() >= 9);
    }

    #[test]
    fn engine_solves_workloads_with_expected_methods() {
        let engine = Engine::with_samples_and_seed(5_000, 3);
        let (db, q) = star_workload(10, 2, 2);
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(ev.method, Method::Extensional);
        let (db, q) = selfjoin_workload(6, 2);
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(ev.method, Method::SafePlan);
        let (db, q) = h0_workload(4, 2);
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(ev.method, Method::KarpLuby);
    }

    #[test]
    fn loglog_slope_recovers_power() {
        let pts: Vec<(f64, f64)> = (1..6).map(|i| (i as f64, (i as f64).powi(2))).collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }
}
