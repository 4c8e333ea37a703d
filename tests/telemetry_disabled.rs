//! The disabled path is inert: with tracing off, an evaluation records no
//! spans at all; and switching tracing on does not perturb results or the
//! operator counters (observation only — bit-for-bit oracles hold).
//!
//! This lives in its own test binary so the process-global flag is under
//! this file's exclusive control.

use probdb::prelude::*;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn workload() -> (ProbDb, Query) {
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y), T(y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let t = voc.find_relation("T").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..48u64 {
        db.insert(r, vec![Value(i)], 0.2 + 0.6 * ((i % 5) as f64 / 5.0));
        for j in 0..3u64 {
            let y = i * 3 + j;
            db.insert(s, vec![Value(i), Value(y)], 0.5);
            db.insert(t, vec![Value(y)], 0.4);
        }
    }
    (db, q)
}

#[test]
fn disabled_run_records_zero_spans() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(false);
    telemetry::clear_spans();

    let (db, q) = workload();
    for exec in [ExecOptions::serial(), ExecOptions::with_threads(4)] {
        let engine = Engine::with_options(0, 7, exec);
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert!(ev.probability > 0.0);
    }
    assert_eq!(telemetry::span_count(), 0, "disabled run buffered spans");
    assert!(telemetry::take_spans().is_empty());
    assert_eq!(telemetry::dropped_spans(), 0);
}

#[test]
fn tracing_does_not_drift_results_or_counters() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (db, q) = workload();
    let run = |on: bool| {
        telemetry::set_enabled(on);
        telemetry::clear_spans();
        let engine = Engine::with_options(0, 7, ExecOptions::with_threads(4));
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        telemetry::clear_spans();
        telemetry::set_enabled(false);
        ev
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(
        off.probability.to_bits(),
        on.probability.to_bits(),
        "tracing perturbed the probability"
    );
    assert_eq!(
        off.extensional, on.extensional,
        "tracing perturbed the operator counters"
    );
    assert_eq!(
        off.scheduler.as_ref().map(|s| s.tasks),
        on.scheduler.as_ref().map(|s| s.tasks)
    );
}
