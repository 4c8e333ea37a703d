//! Span tracing end-to-end: a traced threaded evaluation emits a
//! well-formed span forest (named phases, per-worker lanes, children nested
//! inside parents) and exports as parseable Chrome trace-event JSON; an
//! incremental refresh and a Monte-Carlo run contribute their own phases.
//!
//! The span sink and the enabled flag are process-global, so every test
//! here serialises on one lock and drains the sink before starting.

use probdb::prelude::*;
use std::collections::HashMap;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// A hierarchical star: `R(x), S(x,y), T(x,z)` is safe (extensional), so
/// traced runs exercise the planner, the DAG scheduler, and the operator
/// kernels rather than falling back to sampling.
fn star_db(rels: u64, fanout: u64) -> (ProbDb, Query) {
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y), T(x,z)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let t = voc.find_relation("T").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..rels {
        db.insert(r, vec![Value(i)], 0.3 + 0.4 * ((i % 7) as f64 / 7.0));
        for j in 0..fanout {
            let y = i * fanout + j;
            db.insert(s, vec![Value(i), Value(y)], 0.5);
            db.insert(
                t,
                vec![Value(i), Value(y)],
                0.25 + 0.5 * ((y % 5) as f64 / 5.0),
            );
        }
    }
    (db, q)
}

/// Every recorded span closes after it opens, its parent (when any) exists,
/// lives on the same lane, and fully contains it in time.
fn assert_well_formed(spans: &[telemetry::SpanRec]) {
    let by_id: HashMap<u64, &telemetry::SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        assert!(s.end_ns >= s.start_ns, "span ends before it starts: {s:?}");
        if s.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&s.parent)
            .unwrap_or_else(|| panic!("dangling parent link: {s:?}"));
        assert_eq!(
            s.tid, p.tid,
            "child on a different lane than parent: {s:?} under {p:?}"
        );
        assert!(
            s.start_ns >= p.start_ns && s.end_ns <= p.end_ns,
            "child not nested inside parent: {s:?} under {p:?}"
        );
    }
}

#[test]
fn traced_evaluation_names_every_phase_and_nests() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    telemetry::clear_spans();

    let (db, q) = star_db(64, 4);
    let engine = Engine::with_options(0, 7, ExecOptions::with_threads(4));
    let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
    let spans = telemetry::take_spans();
    telemetry::set_enabled(false);

    assert!(ev.probability > 0.0);
    assert!(!spans.is_empty(), "tracing was on but nothing recorded");
    assert_well_formed(&spans);

    // The planner, engine, scheduler, and operator kernels all appear.
    for label in [
        "evaluate",
        "plan",
        "plan-compile",
        "classify",
        "execute",
        "scan",
        "join",
        "project",
    ] {
        assert!(
            spans.iter().any(|s| s.label == label),
            "no {label:?} span in {:?}",
            spans.iter().map(|s| &s.label).collect::<Vec<_>>()
        );
    }
    assert!(
        spans.iter().any(|s| s.label.starts_with("dag-task ")),
        "threads=4 should schedule DAG tasks"
    );

    // The phase skeleton hangs together: classify under plan-compile under
    // plan under evaluate; operator kernels under a DAG task.
    let find = |label: &str| spans.iter().find(|s| s.label == label).unwrap();
    let evaluate = find("evaluate");
    let plan = find("plan");
    let compile = find("plan-compile");
    let classify = find("classify");
    assert_eq!(plan.parent, evaluate.id);
    assert_eq!(compile.parent, plan.id);
    assert_eq!(classify.parent, compile.id);
    let parent_of = |id: u64| spans.iter().find(|s| s.id == id);
    let scan = find("scan");
    let scan_parent = parent_of(scan.parent).expect("scan has a parent");
    assert!(
        scan_parent.label.starts_with("dag-task "),
        "operator kernels run inside scheduled tasks, got {:?}",
        scan_parent.label
    );
}

#[test]
fn traced_run_uses_one_lane_per_worker() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    telemetry::clear_spans();

    let (db, q) = star_db(256, 4);
    let engine = Engine::with_options(0, 7, ExecOptions::with_threads(4));
    let _ = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
    let spans = telemetry::take_spans();
    telemetry::set_enabled(false);

    // Root spans (evaluate et al.) live on the calling thread's lane; DAG
    // tasks fan out across worker lanes. A lane is used by at most one
    // thread, so a span's id range never interleaves across lanes — here
    // we check the cheap invariant: the trace has more than one lane and
    // every lane's spans are disjoint-or-nested in time.
    let mut lanes: HashMap<u64, Vec<&telemetry::SpanRec>> = HashMap::new();
    for s in &spans {
        lanes.entry(s.tid).or_default().push(s);
    }
    assert!(
        lanes.len() > 1,
        "4 workers should populate more than one lane, got {}",
        lanes.len()
    );
    for (tid, lane) in &lanes {
        for (i, a) in lane.iter().enumerate() {
            for b in &lane[i + 1..] {
                let disjoint = a.end_ns <= b.start_ns || b.end_ns <= a.start_ns;
                let nested = (a.start_ns <= b.start_ns && b.end_ns <= a.end_ns)
                    || (b.start_ns <= a.start_ns && a.end_ns <= b.end_ns);
                assert!(
                    disjoint || nested,
                    "lane {tid}: partially overlapping spans {a:?} / {b:?}"
                );
            }
        }
    }
}

#[test]
fn chrome_trace_export_parses_and_names_lanes() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    telemetry::clear_spans();

    let (db, q) = star_db(64, 4);
    let engine = Engine::with_options(0, 7, ExecOptions::with_threads(4));
    let _ = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
    let spans = telemetry::take_spans();
    telemetry::set_enabled(false);

    let json = telemetry::chrome_trace(&spans);
    let parsed = telemetry::json::parse(&json).expect("chrome trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");

    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();

    // One "M" metadata event names each lane worker-N; every span becomes
    // one "X" complete event carrying ts/dur and its id/parent args.
    let metas: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
        .collect();
    assert_eq!(metas.len(), tids.len(), "one thread_name per lane");
    for m in &metas {
        let name = m
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(|v| v.as_str())
            .expect("metadata name");
        assert!(name.starts_with("worker-"), "lane name {name:?}");
    }
    let xs: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
        .collect();
    assert_eq!(xs.len(), spans.len(), "one complete event per span");
    for x in &xs {
        assert!(x.get("ts").is_some() && x.get("dur").is_some());
        assert!(x.get("name").and_then(|v| v.as_str()).is_some());
        let args = x.get("args").expect("span args");
        assert!(args.get("id").and_then(|v| v.as_u64()).unwrap_or(0) > 0);
    }
}

#[test]
fn incremental_refresh_records_delta_phases() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    telemetry::clear_spans();

    // The two-atom join is the shape the incremental subsystem maintains
    // delta-by-delta (the star query degrades to re-execution).
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..32u64 {
        db.insert(r, vec![Value(i)], 0.4);
        db.insert(s, vec![Value(i), Value(100 + i)], 0.5);
    }
    let engine = Engine::with_options(0, 7, ExecOptions::with_threads(2));
    let view = engine.subscribe(&db, &q).unwrap();
    assert!(view.is_incremental());
    let _ = view.read(&db).unwrap();
    telemetry::clear_spans(); // keep only the delta round

    // Mutate through the delta log (direct inserts clear it and force a
    // rebuild instead of delta propagation).
    let mut batch = pdb::DeltaBatch::new();
    batch
        .insert(r, vec![Value(9_999)], 0.5)
        .insert(s, vec![Value(9_999), Value(10_000)], 0.5);
    db.apply(&batch);
    let _ = view.read(&db).unwrap();
    let spans = telemetry::take_spans();
    telemetry::set_enabled(false);

    assert_well_formed(&spans);
    for label in [
        "view-read",
        "refresh",
        "coalesce",
        "propagate",
        "scan-delta",
    ] {
        assert!(
            spans.iter().any(|s| s.label == label),
            "no {label:?} span in {:?}",
            spans.iter().map(|s| &s.label).collect::<Vec<_>>()
        );
    }
}

#[test]
fn monte_carlo_sampling_records_rounds() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    telemetry::clear_spans();

    let (db, q) = star_db(8, 2);
    let engine = Engine::with_options(2_048, 7, ExecOptions::with_threads(2));
    let ev = engine
        .evaluate(&db, &q, Strategy::MonteCarlo { samples: 2_048 })
        .unwrap();
    let spans = telemetry::take_spans();
    telemetry::set_enabled(false);

    assert!(ev.std_error > 0.0, "forced sampling reports an error bar");
    assert!(
        spans.iter().any(|s| s.label.starts_with("mc-round ")),
        "sampling rounds should be traced: {:?}",
        spans.iter().map(|s| &s.label).collect::<Vec<_>>()
    );
}
