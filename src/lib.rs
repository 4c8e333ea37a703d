//! # probdb — the Dalvi–Suciu dichotomy, as a runnable system
//!
//! A from-scratch reproduction of *"The Dichotomy of Conjunctive Queries on
//! Probabilistic Structures"* (Dalvi & Suciu, PODS 2007): every Boolean
//! conjunctive query is either PTIME or #P-complete on tuple-independent
//! probabilistic databases, and the boundary is decidable.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`cq`] — the conjunctive-query language (atoms, arithmetic predicates,
//!   homomorphisms, minimization, unification),
//! * [`pdb`] — tuple-independent probabilistic structures, possible worlds,
//!   lineage extraction, workload generators,
//! * [`lineage`] — exact weighted model counting and Monte-Carlo
//!   estimators over event DNFs,
//! * [`dichotomy`] — the paper's contribution: hierarchy analysis,
//!   coverages, inversions, erasers, the classifier — plus a MystiQ-style
//!   engine split into a **planner** (classify once, compile a
//!   `PhysicalPlan`, memoize it in an LRU cache keyed by the canonical
//!   query) and an **executor** (run the plan against any database,
//!   extensionally where the query allows),
//! * [`reductions`] — executable #P-hardness reductions from bipartite
//!   2DNF counting,
//! * [`safeplan`] — extensional safe relational-algebra plans (independent
//!   join / independent project) with a set-at-a-time executor,
//! * [`numeric`] — arbitrary-precision integers and rationals, for exact
//!   probability computation and substructure counting,
//! * [`telemetry`] — hand-rolled observability: span tracing with
//!   Chrome-trace export (`ENGINE_TRACE`, `--trace`) and the typed metrics
//!   registry behind `Evaluation::metric_set` and the CLI's `--json` mode,
//! * [`serve`] — the concurrent query service: a hand-rolled HTTP/1.1 +
//!   JSON server whose workers read wait-free epoch snapshots of the
//!   database while a single writer applies deltas and publishes new
//!   epochs (`probdb serve`).
//!
//! ## Quickstart
//!
//! ```
//! use probdb::prelude::*;
//!
//! // Vocabulary and query: "is some calibrated sensor reporting?"
//! let mut voc = Vocabulary::new();
//! let q = parse_query(&mut voc, "Sensor(s), Reading(s, v)").unwrap();
//!
//! // A small tuple-independent database.
//! let sensor = voc.find_relation("Sensor").unwrap();
//! let reading = voc.find_relation("Reading").unwrap();
//! let mut db = ProbDb::new(voc);
//! db.insert(sensor, vec![Value(1)], 0.9);
//! db.insert(reading, vec![Value(1), Value(42)], 0.5);
//!
//! // Plan once (classification + compilation, cached), then execute —
//! // here through the set-at-a-time extensional safe-plan backend.
//! let engine = Engine::new();
//! let result = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
//! assert_eq!(result.method, Method::Extensional);
//! assert!((result.probability - 0.45).abs() < 1e-12);
//! assert!(!result.cache_hit);
//!
//! // Repeated traffic — alpha-renamed variants included — skips
//! // classification entirely.
//! let again = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
//! assert!(again.cache_hit);
//! assert_eq!(engine.cache_stats().classifications, 1);
//! ```

pub use cq;
pub use dichotomy;
pub use incremental;
pub use lineage;
pub use numeric;
pub use pdb;
pub use reductions;
pub use safeplan;
pub use serve;
pub use telemetry;

/// Everything a typical user needs.
pub mod prelude {
    pub use cq::{parse_query, Query, RelId, Term, Value, Var, Vocabulary};
    pub use dichotomy::engine::{
        Engine, Evaluation, ExecOptions, Method, Strategy, ViewHandle, ViewReading,
    };
    pub use dichotomy::{
        classify, count_substructures_recurrence, eval_inversion_free, eval_recurrence,
        eval_recurrence_exact, explain_evaluation, multisim_top_k, ranked_answers,
        ranked_answers_counted, top_k, Classification, Complexity, Executor, MultiSimConfig,
        PhysicalPlan, Planner, PlannerStats, RankedAnswer, RankedPlan, RankedRun,
    };
    pub use incremental::{IncrementalView, RefreshCounters, RefreshOptions};
    pub use lineage::{exact_probability, karp_luby, naive_mc, Dnf};
    pub use numeric::{BigInt, BigUint, QRat};
    pub use pdb::{
        brute_force_probability, count_satisfying_worlds_exact, lineage_of, DeltaBatch, DeltaOp,
        EpochStore, ProbDb, RatProbs, ReaderHandle, TupleId,
    };
    pub use reductions::{count_via_hk, count_via_pattern, Bipartite2Dnf};
    pub use safeplan::{
        build_plan, dag_execute, dag_query_probability, query_probability, query_probability_exact,
        DagOptions, OpCounters, PlanNode,
    };
    pub use serve::{HttpClient, HttpResponse, ServeOptions, Server};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(s, vec![Value(1), Value(2)], 0.5);
        let engine = Engine::new();
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        let bf = brute_force_probability(&db, &q);
        assert!((ev.probability - bf).abs() < 1e-12);
    }
}
