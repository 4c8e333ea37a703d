//! The incremental view: a cached safe plan pinned together with its
//! per-operator materialized state, refreshed from the database delta log.

use crate::state::{coalesce, DeltaDetail, Node, Unsupported};
use exec_parallel::{ExecStats, Pool, DEFAULT_GRAIN};
use pdb::ProbDb;
use safeplan::{PlanNode, ProbRelation};

/// Tuning for one refresh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefreshOptions {
    /// Worker threads for morsel-parallel delta application (join probes
    /// and group refolds fan out; results stitch in morsel order, so the
    /// refreshed state is bit-for-bit the serial refresh's). 1 = inline.
    pub threads: usize,
    /// Morsel grain; tests shrink it to force multi-morsel schedules.
    pub grain: usize,
}

impl RefreshOptions {
    pub fn serial() -> Self {
        RefreshOptions {
            threads: 1,
            grain: DEFAULT_GRAIN,
        }
    }

    pub fn with_threads(threads: usize) -> Self {
        Self::with_grain(threads, DEFAULT_GRAIN)
    }

    pub fn with_grain(threads: usize, grain: usize) -> Self {
        RefreshOptions {
            threads: threads.max(1),
            grain: grain.max(1),
        }
    }
}

impl Default for RefreshOptions {
    fn default() -> Self {
        RefreshOptions::serial()
    }
}

/// What one refresh (or a lifetime of refreshes — the counters add) did:
/// the work the delta propagation performed vs the work a full
/// re-execution would have re-done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshCounters {
    /// Materialized rows written, re-probed, or refolded across all
    /// operators during delta propagation.
    pub rows_retouched: u64,
    /// Materialized rows the refresh did *not* have to touch — rows a full
    /// re-execution would have recomputed from scratch.
    pub rows_avoided: u64,
    /// Independent-project groups refolded from their stored rows.
    pub groups_refolded: u64,
    /// Delta-log batches replayed.
    pub batches_replayed: u64,
    /// Refreshes that propagated deltas.
    pub incremental_refreshes: u64,
    /// Refreshes that fell back to rebuilding the state from scratch
    /// (view behind the log's retention window, or an out-of-band mutation
    /// invalidated the log).
    pub full_rebuilds: u64,
}

impl RefreshCounters {
    pub fn absorb(&mut self, other: &RefreshCounters) {
        self.rows_retouched += other.rows_retouched;
        self.rows_avoided += other.rows_avoided;
        self.groups_refolded += other.groups_refolded;
        self.batches_replayed += other.batches_replayed;
        self.incremental_refreshes += other.incremental_refreshes;
        self.full_rebuilds += other.full_rebuilds;
    }
}

/// Everything one refresh reports besides the view state itself: the
/// delta-propagation counters plus the same pool telemetry the DAG
/// executor exposes, so the engine can surface a uniform counter set
/// whether an evaluation re-executed or refreshed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RefreshRun {
    /// Work done vs work avoided by the delta propagation.
    pub counters: RefreshCounters,
    /// Per-worker morsel timings from the refresh pool.
    pub threads: ExecStats,
}

/// A cached safe plan with materialized per-operator state, kept in sync
/// with a mutating [`ProbDb`] by replaying its delta log.
///
/// The contract (pinned by the agreement property tests): after
/// [`IncrementalView::refresh`], the view's output relation is
/// **bit-for-bit** what a cold execution of the same plan against the
/// current database returns — same rows, same order, same `f64` bits — at
/// every refresh thread count.
pub struct IncrementalView {
    plan: PlanNode,
    root: Node,
    synced: u64,
    cumulative: RefreshCounters,
}

impl std::fmt::Debug for IncrementalView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalView")
            .field("synced", &self.synced)
            .field("rows", &self.root.out().len())
            .field("counters", &self.cumulative)
            .finish()
    }
}

impl IncrementalView {
    /// Materialize the state of `plan` against the current database. Fails
    /// on plans with operators that cannot be delta-maintained (complement
    /// scans) — callers fall back to re-execution.
    pub fn new(db: &ProbDb, plan: &PlanNode) -> Result<IncrementalView, Unsupported> {
        Ok(IncrementalView {
            plan: plan.clone(),
            root: Node::build(db, plan)?,
            synced: db.version(),
            cumulative: RefreshCounters::default(),
        })
    }

    /// The database version this view reflects.
    pub fn synced_version(&self) -> u64 {
        self.synced
    }

    /// Lifetime refresh counters (each refresh's counters, summed).
    pub fn counters(&self) -> RefreshCounters {
        self.cumulative
    }

    /// The scalar probability of a Boolean view.
    ///
    /// # Panics
    /// If the plan is non-Boolean (its output has columns).
    pub fn probability(&self) -> f64 {
        let out = self.root.out();
        assert!(out.cols.is_empty(), "probability() on non-Boolean view");
        if out.is_empty() {
            0.0
        } else {
            out.prob(0)
        }
    }

    /// The view's full output relation (a copy of the materialized root
    /// buffers).
    pub fn output(&self) -> ProbRelation<f64> {
        let out = self.root.out();
        ProbRelation::from_parts(out.cols.clone(), out.data.clone(), out.probs.clone())
    }

    /// Bring the view up to the database's current version: replay the
    /// pending delta-log entries through the operator state, or rebuild
    /// from scratch when the log cannot cover the gap. Returns this
    /// refresh's counters (also folded into [`IncrementalView::counters`]).
    pub fn refresh(&mut self, db: &ProbDb, opts: RefreshOptions) -> RefreshCounters {
        self.refresh_run(db, opts).counters
    }

    /// [`IncrementalView::refresh`], also reporting the refresh pool's
    /// per-worker timings.
    pub fn refresh_run(&mut self, db: &ProbDb, opts: RefreshOptions) -> RefreshRun {
        let _span = telemetry::span("refresh");
        let mut run = RefreshRun::default();
        let c = &mut run.counters;
        if db.version() == self.synced {
            return run;
        }
        if self.synced < db.delta_log_start() {
            // The log cannot replay us (retention window passed, or an
            // out-of-band mutation cleared it): rebuild — never wrong,
            // just not incremental.
            let _span = telemetry::span("rebuild");
            self.root =
                Node::build(db, &self.plan).expect("a previously-built plan stays buildable");
            c.full_rebuilds = 1;
            c.rows_retouched = self.root.total_rows();
        } else {
            c.batches_replayed = db.changes_since(self.synced).count() as u64;
            let net = {
                let _span = telemetry::span("coalesce");
                coalesce(db.changes_since(self.synced))
            };
            let pool = Pool::with_grain(opts.threads, opts.grain);
            {
                let _span = telemetry::span("propagate");
                self.root.refresh(db, &net, &pool, DeltaDetail::Full, c);
            }
            c.incremental_refreshes = 1;
            c.rows_avoided = self.root.total_rows().saturating_sub(c.rows_retouched);
            run.threads = pool.stats();
        }
        self.synced = db.version();
        self.cumulative.absorb(&run.counters);
        run
    }
}
