//! Columnar/row agreement: the columnar flat-buffer executor (PR 3) must
//! return **bit-for-bit** what the PR-2 row-at-a-time executor returns —
//! same rows, same order, same `f64` values — serially and at every
//! thread count, on random hierarchical self-join-free queries over
//! random databases, and through ranked (top-k) retrieval. The row
//! executor is preserved verbatim in `safeplan::rowref` as the oracle.

use probdb::prelude::{build_plan, dag_execute, DagOptions, ProbDb, Query, Value, Var, Vocabulary};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safeplan::rowref::{row_execute, row_ranked_probabilities, RowRelation};
use safeplan::{execute, ranked_probabilities, ProbRelation};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Assert the columnar relation is bit-for-bit the row relation.
fn assert_same(col: &ProbRelation<f64>, row: &RowRelation<f64>, ctx: &str) {
    assert_eq!(col.cols(), row.cols.as_slice(), "{ctx}: schema");
    assert_eq!(col.len(), row.rows.len(), "{ctx}: row count");
    for (i, (vals, p)) in row.rows.iter().enumerate() {
        assert_eq!(col.row(i), vals.as_slice(), "{ctx}: row {i} values");
        assert_eq!(
            col.prob(i).to_bits(),
            p.to_bits(),
            "{ctx}: row {i} probability bits ({} vs {p})",
            col.prob(i)
        );
    }
}

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

/// Columnar executor — serial and at every thread count — against the row
/// oracle, on random hierarchical SJF queries and databases.
#[test]
fn columnar_matches_row_executor_on_random_hierarchical_queries() {
    let mut rng = StdRng::seed_from_u64(0xC0_1AB5);
    for case in 0..25 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let plan = build_plan(&q).unwrap();
        for round in 0..2 {
            let db = random_db(&q, &voc, &mut rng);
            let probs = db.prob_vector();
            let oracle = row_execute(&db, &probs, &plan);
            let serial = execute(&db, &probs, &plan);
            assert_same(
                &serial,
                &oracle,
                &format!("case {case} round {round} serial: {}", q.display(&voc)),
            );
            for threads in THREADS {
                let par = dag_execute(&db, &probs, &plan, &DagOptions::with_grain(threads, 3));
                assert_same(
                    &par,
                    &oracle,
                    &format!(
                        "case {case} round {round} threads {threads}: {}",
                        q.display(&voc)
                    ),
                );
            }
        }
    }
}

/// Ranked retrieval: the columnar batched ranked path (serial and
/// partitioned across workers) returns the row oracle's exact answer list
/// — tuples, probabilities, and order — so any top-k cut is identical.
#[test]
fn columnar_ranked_top_k_matches_row_executor() {
    let mut rng = StdRng::seed_from_u64(0x70_9B5);
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
        let oracle = row_ranked_probabilities(&db, &probs, &plan, &head);
        let serial = ranked_probabilities(&db, &probs, &plan, &head);
        assert_eq!(oracle, serial, "case {case} serial ranked");
        for threads in THREADS {
            let (par, _) = safeplan::dag_ranked_probabilities(
                &db,
                &probs,
                &plan,
                &head,
                &DagOptions::with_grain(threads, 3),
            );
            assert_eq!(oracle, par, "case {case} ranked threads {threads}");
        }
        // The top-k cut (sorted by probability desc, ties by tuple) reads
        // off identical lists, so it is identical by construction; pin the
        // k=3 prefix anyway.
        let mut by_p = oracle.clone();
        by_p.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        let mut col_by_p = serial;
        col_by_p.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        assert_eq!(
            by_p.iter().take(3).collect::<Vec<_>>(),
            col_by_p.iter().take(3).collect::<Vec<_>>(),
            "case {case} top-3"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for random R/1, S/2 databases (duplicate inserts allowed —
    /// they exercise the overwrite path of the hash-keyed content index),
    /// the columnar executor is bit-identical to the row oracle on q_hier,
    /// serially and at every thread count.
    #[test]
    fn columnar_is_bit_identical_on_random_dbs(
        r_rows in proptest::collection::vec((0u64..4, 0.05f64..0.95), 1..12),
        s_rows in proptest::collection::vec((0u64..4, 0u64..4, 0.05f64..0.95), 1..16),
    ) {
        let mut voc = Vocabulary::new();
        let q = probdb::prelude::parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        for &(a, p) in &r_rows {
            db.insert(r, vec![Value(a)], p);
        }
        for &(a, b, p) in &s_rows {
            db.insert(s, vec![Value(a), Value(b)], p);
        }
        let plan = build_plan(&q).unwrap();
        let probs = db.prob_vector();
        let oracle = row_execute(&db, &probs, &plan);
        let serial = execute(&db, &probs, &plan);
        prop_assert_eq!(serial.len(), oracle.rows.len());
        prop_assert_eq!(serial.scalar().to_bits(), oracle.scalar().to_bits());
        for threads in THREADS {
            let par = dag_execute(&db, &probs, &plan, &DagOptions::with_grain(threads, 2));
            prop_assert_eq!(par.scalar().to_bits(), oracle.scalar().to_bits(),
                "threads {}", threads);
        }
    }
}
