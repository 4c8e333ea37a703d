//! Parallel/serial agreement: the operator-DAG executor on its
//! morsel-driven pool must return **bit-for-bit** what the serial
//! executor returns — same rows, same order, same `f64` values — for
//! every thread count, on random hierarchical self-join-free queries over
//! random databases, through every layer (raw `dag_execute`, the engine,
//! ranked retrieval, and incremental view refresh).

use dichotomy::engine::Strategy;
use probdb::prelude::{
    build_plan, dag_execute, dag_query_probability, parse_query, query_probability, ranked_answers,
    top_k, DagOptions, Engine, ExecOptions, ProbDb, Query, Value, Var, Vocabulary,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safeplan::{dag_ranked_probabilities, execute, ranked_probabilities};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Random hierarchical self-join-free query: a forest of hierarchy trees
/// where every atom's variables are a root-to-node path, each atom over a
/// fresh relation — exactly the fragment the extensional compiler accepts.
fn random_hierarchical_query(rng: &mut StdRng, voc: &mut Vocabulary) -> Query {
    fn grow(
        rng: &mut StdRng,
        voc: &mut Vocabulary,
        atoms: &mut Vec<cq::Atom>,
        path: &mut Vec<Var>,
        next_var: &mut u32,
        depth: u32,
    ) {
        for _ in 0..rng.gen_range(1..=2u32) {
            let name = format!("P{}", atoms.len());
            let rel = voc.relation(&name, path.len()).unwrap();
            let args = path.iter().map(|&v| cq::Term::Var(v)).collect();
            atoms.push(cq::Atom::new(rel, args));
        }
        if depth < 3 {
            for _ in 0..rng.gen_range(0..=2u32) {
                path.push(Var(*next_var));
                *next_var += 1;
                grow(rng, voc, atoms, path, next_var, depth + 1);
                path.pop();
            }
        }
    }
    let mut atoms = Vec::new();
    let mut next_var = 0u32;
    for _ in 0..rng.gen_range(1..=2u32) {
        let mut path = vec![Var(next_var)];
        next_var += 1;
        grow(rng, voc, &mut atoms, &mut path, &mut next_var, 1);
    }
    Query::new(atoms, vec![])
}

fn random_db(q: &Query, voc: &Vocabulary, rng: &mut StdRng) -> ProbDb {
    use pdb::generators::{random_db_for_query, RandomDbOptions};
    let opts = RandomDbOptions {
        domain: 4,
        tuples_per_relation: 20,
        prob_range: (0.05, 0.95),
    };
    random_db_for_query(q, voc, opts, rng)
}

/// Raw executor agreement on random safe queries and databases: the
/// compiled plan's whole output relation, with a tiny morsel grain so even
/// small inputs split into many morsels.
#[test]
fn dag_execute_matches_serial_on_random_hierarchical_queries() {
    let mut rng = StdRng::seed_from_u64(0x9_A7A11E1);
    for case in 0..25 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let plan = build_plan(&q).unwrap();
        for round in 0..2 {
            let db = random_db(&q, &voc, &mut rng);
            let probs = db.prob_vector();
            let serial = execute(&db, &probs, &plan);
            for threads in THREADS {
                let par = dag_execute(&db, &probs, &plan, &DagOptions::with_grain(threads, 3));
                assert_eq!(
                    serial,
                    par,
                    "case {case} round {round} threads {threads}: {}",
                    q.display(&voc)
                );
            }
        }
    }
}

/// The optimized plan's scalar at the default grain, on random
/// hierarchical SJF queries: the DAG scheduler returns the serial
/// oracle's bits and schedules at least one task.
#[test]
fn dag_matches_serial_on_random_hierarchical_queries() {
    let mut rng = StdRng::seed_from_u64(0x5AA2D);
    for case in 0..25 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let plan = safeplan::optimize(&build_plan(&q).unwrap());
        for round in 0..2 {
            let db = random_db(&q, &voc, &mut rng);
            let oracle = query_probability(&db, &plan);
            for threads in THREADS {
                let (p, run) = dag_query_probability(&db, &plan, &DagOptions::new(threads));
                assert_eq!(
                    p.to_bits(),
                    oracle.to_bits(),
                    "case {case} round {round} threads {threads}: {} ({p} vs {oracle})",
                    q.display(&voc)
                );
                assert!(run.sched.tasks >= 1, "case {case}: no tasks scheduled");
            }
        }
    }
}

/// Engine-level agreement: `ExecOptions::with_threads(n)` must not change
/// any probability the serial engine reports, across plan kinds (safe
/// extensional shapes and per-binding residual paths alike).
#[test]
fn engine_probabilities_are_thread_count_invariant() {
    let shapes = [
        "R(x)",
        "R(x), S(x,y)",
        "R(x), S(x,y), U(x,y,z)",
        "R(x), T(z,w)",
        "S(x,y), x < y",
        "S(x,x)",
        "R(x), not T(x)",
    ];
    let mut rng = StdRng::seed_from_u64(0xE9_617E);
    for shape in shapes {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, shape).unwrap();
        let db = random_db(&q, &voc, &mut rng);
        let serial = Engine::with_options(10_000, 5, ExecOptions::serial());
        let want = serial.evaluate(&db, &q, Strategy::Auto).unwrap();
        for threads in THREADS {
            let engine = Engine::with_options(10_000, 5, ExecOptions::with_threads(threads));
            let got = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
            assert_eq!(
                got.probability, want.probability,
                "{shape} diverged at {threads} threads"
            );
            assert_eq!(got.method, want.method, "{shape} at {threads} threads");
        }
    }
}

/// Ranked retrieval agreement: the batched ranked plan partitioned across
/// workers returns the identical answer list (tuples, probabilities, and
/// order) as the serial batched execution — and the same top-k.
#[test]
fn ranked_top_k_is_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(0x70_9B);
    for case in 0..10 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let vars = q.vars();
        let head = vec![vars[rng.gen_range(0..vars.len())]];
        let db = random_db(&q, &voc, &mut rng);
        let serial = Engine::with_options(10_000, 5, ExecOptions::serial());
        let want = ranked_answers(&serial, &db, &q, &head, Strategy::Auto).unwrap();
        let want_top = top_k(&serial, &db, &q, &head, 3, Strategy::Auto).unwrap();
        for threads in THREADS {
            let engine = Engine::with_options(10_000, 5, ExecOptions::with_threads(threads));
            let got = ranked_answers(&engine, &db, &q, &head, Strategy::Auto).unwrap();
            assert_eq!(want, got, "case {case} threads {threads}");
            let got_top = top_k(&engine, &db, &q, &head, 3, Strategy::Auto).unwrap();
            assert_eq!(want_top, got_top, "case {case} top-k threads {threads}");
        }
    }
}

/// The raw ranked-plan path agrees too (no engine, explicit grain).
#[test]
fn par_ranked_probabilities_match_serial() {
    let mut rng = StdRng::seed_from_u64(0xAB3);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "Director(d), Credit(d,m)").unwrap();
    let d = q.vars()[0];
    let plan = safeplan::build_ranked_plan(&q, &[d]).unwrap();
    let db = random_db(&q, &voc, &mut rng);
    let probs = db.prob_vector();
    let serial = ranked_probabilities(&db, &probs, &plan, &[d]);
    for threads in THREADS {
        let (par, _) = dag_ranked_probabilities(
            &db,
            &probs,
            &plan,
            &[d],
            &DagOptions::with_grain(threads, 2),
        );
        assert_eq!(serial, par, "threads {threads}");
    }
}

/// Ranked retrieval on random hierarchical queries: the DAG ranked path
/// returns the serial oracle's exact answer list — tuples, probability
/// bits, and order — so any top-k cut is identical.
#[test]
fn dag_ranked_top_k_matches_serial() {
    let mut rng = StdRng::seed_from_u64(0x5AA2E);
    for case in 0..10 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let vars = q.vars();
        let head = vec![vars[rng.gen_range(0..vars.len())]];
        let Ok(plan) = safeplan::build_ranked_plan(&q, &head) else {
            continue;
        };
        let db = random_db(&q, &voc, &mut rng);
        let probs = db.prob_vector();
        let oracle = ranked_probabilities(&db, &probs, &plan, &head);
        for threads in THREADS {
            let (ranked, _) =
                dag_ranked_probabilities(&db, &probs, &plan, &head, &DagOptions::new(threads));
            assert_eq!(ranked.len(), oracle.len(), "case {case} threads {threads}");
            for (i, ((tv, tp), (ov, op))) in ranked.iter().zip(&oracle).enumerate() {
                assert_eq!(tv, ov, "case {case} threads {threads} row {i} tuple");
                assert_eq!(
                    tp.to_bits(),
                    op.to_bits(),
                    "case {case} threads {threads} row {i} probability"
                );
            }
        }
    }
}

/// Engine evaluation and incremental view refresh under churn: a threaded
/// engine reproduces the serial engine's bits, and its subscribed view
/// tracks cold serial execution bit-for-bit round after round.
#[test]
fn engine_and_views_agree_across_threads() {
    let mut rng = StdRng::seed_from_u64(0x5AA2F);
    for threads in THREADS {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        for i in 0..40u64 {
            db.insert(r, vec![Value(i)], rng.gen_range(0.05..0.95));
            for j in 0..3u64 {
                db.insert(
                    s,
                    vec![Value(i), Value(100 + i * 3 + j)],
                    rng.gen_range(0.05..0.95),
                );
            }
        }
        let serial = Engine::with_options(0, 7, ExecOptions::serial());
        let tuned = Engine::with_options(0, 7, ExecOptions::with_threads(threads));
        let p0 = serial
            .evaluate(&db, &q, Strategy::Auto)
            .unwrap()
            .probability;
        let p1 = tuned.evaluate(&db, &q, Strategy::Auto).unwrap().probability;
        assert_eq!(p0.to_bits(), p1.to_bits(), "engine t={threads}");

        let view = tuned.subscribe(&db, &q).unwrap();
        assert!(view.is_incremental());
        for round in 0..3u64 {
            for i in 0..20u64 {
                let v = 10_000 * (round + 1) + i;
                db.insert(r, vec![Value(v)], rng.gen_range(0.05..0.95));
                db.insert(s, vec![Value(v), Value(v + 1)], rng.gen_range(0.05..0.95));
            }
            let refreshed = view.read(&db).unwrap().evaluation.probability;
            let cold = serial
                .evaluate(&db, &q, Strategy::Auto)
                .unwrap()
                .probability;
            assert_eq!(
                refreshed.to_bits(),
                cold.to_bits(),
                "view refresh round {round} t={threads}"
            );
        }
    }
}

/// q_hier = R(x), S(x,y) and a database holding exactly the given R and
/// S rows (duplicate inserts allowed).
fn q_hier_db(r_rows: &[(u64, f64)], s_rows: &[(u64, u64, f64)]) -> (Query, ProbDb) {
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let mut db = ProbDb::new(voc);
    for &(a, p) in r_rows {
        db.insert(r, vec![Value(a)], p);
    }
    for &(a, b, p) in s_rows {
        db.insert(s, vec![Value(a), Value(b)], p);
    }
    (q, db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for random R/1, S/2 databases, the DAG executor's
    /// compiled-plan relation at a tiny grain is bit-identical to the
    /// serial one on q_hier, at every thread count.
    #[test]
    fn dag_execute_is_bit_identical_on_random_dbs(
        r_rows in proptest::collection::vec((0u64..4, 0.05f64..0.95), 1..12),
        s_rows in proptest::collection::vec((0u64..4, 0u64..4, 0.05f64..0.95), 1..16),
    ) {
        let (q, db) = q_hier_db(&r_rows, &s_rows);
        let plan = build_plan(&q).unwrap();
        let probs = db.prob_vector();
        let serial = execute(&db, &probs, &plan);
        for threads in THREADS {
            let par = dag_execute(&db, &probs, &plan, &DagOptions::with_grain(threads, 2));
            prop_assert_eq!(&serial, &par, "threads {}", threads);
        }
    }

    /// Property: for random R/1, S/2 databases (duplicate inserts
    /// allowed), the DAG executor's optimized-plan scalar is bit-identical
    /// to the serial one on q_hier, at every thread count.
    #[test]
    fn dag_is_bit_identical_on_random_dbs(
        r_rows in proptest::collection::vec((0u64..4, 0.05f64..0.95), 1..12),
        s_rows in proptest::collection::vec((0u64..4, 0u64..4, 0.05f64..0.95), 1..16),
    ) {
        let (q, db) = q_hier_db(&r_rows, &s_rows);
        let plan = safeplan::optimize(&build_plan(&q).unwrap());
        let oracle = query_probability(&db, &plan);
        for threads in THREADS {
            let (p, _) = dag_query_probability(&db, &plan, &DagOptions::new(threads));
            prop_assert_eq!(p.to_bits(), oracle.to_bits(), "threads {}", threads);
        }
    }
}
