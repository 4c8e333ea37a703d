//! The traced replay: a fixed prefix of the recorded request stream is
//! replayed in-process, calling each layer's public functions in the
//! order the `serve` handlers call them, with one span around each call
//! (name, start, end, parent; spans of one request share an id). Spans
//! live in memory and are written out when the run ends. Every replayed
//! answer must equal the served one bit for bit.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

use cq::{parse_query, Query, Term};
use dichotomy::engine::{Engine, ExecOptions, Strategy};
use dichotomy::{
    classify, ranked_answers_counted, ExecOutcome, Executor, Method, PhysicalPlan, ResultCache,
    ViewHandle,
};
use pdb::{EpochStore, ProbDb, ReaderHandle};
use rand::SeedableRng;
use safeplan::{OpCounters, PlanNode};
use serve::http;
use telemetry::json::escape;
use telemetry::metrics::format_f64;

use crate::check::{head_vars, load_replica, SERVED_SEED};
use crate::gen;
use crate::json::{self, Field, Json};
use crate::load::{LoadRun, Record};
use crate::report::Metric;
use crate::stats::median;
use crate::wire::raw_request;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// 0 for a root.
    pub parent: u32,
    /// Spans of one replayed request share this id.
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. With recording off, `span` only runs its
/// closure — the untraced replay the tracing overhead is measured against.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    req: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let start = self.now();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            req: self.req,
            name,
            start_ns: start,
            end_ns: start,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.now();
        self.spans[id as usize - 1].end_ns = end;
        out
    }

    /// A root span for request `req`.
    pub fn request<T>(
        &mut self,
        req: u32,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.req = req;
        self.span(name, f)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children counted once).
fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let Some(s) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == id)
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    s.dur_ns().saturating_sub(covered)
}

/// Requests replayed per workload: enough calls per layer for steady
/// medians, few enough that the replay stays a small part of a run.
fn prefix_len(workload: &str) -> usize {
    match workload {
        "star-read" => 2000,
        // Five cycles: 5 applies and 60 reads.
        "bushy-churn" => 65,
        _ => 40,
    }
}

/// Layer state the replay threads through (the handler's view of the
/// server: one engine, one epoch store, one reader).
struct State {
    engine: Engine,
    executor: Executor,
    mc_samples: u64,
    store: EpochStore,
    reader: ReaderHandle,
    view: Option<ViewHandle>,
    mismatches: Vec<String>,
    plan_calls: u64,
    plan_hits: u64,
    result_calls: u64,
    result_hits: u64,
    /// Cold extensional plans executed, with the snapshot they ran on.
    cold_plans: Vec<(PlanNode, Arc<ProbDb>)>,
    ops: OpCounters,
    lineage_vars_frac: Vec<f64>,
    ns_per_sample: Vec<f64>,
}

impl State {
    fn new(db: &ProbDb, mc_samples: u64) -> State {
        let store = EpochStore::new(db.clone());
        let reader = store.reader();
        State {
            engine: Engine::with_options(mc_samples, SERVED_SEED, ExecOptions::serial())
                .with_result_cache(),
            executor: Executor::with_tuning(SERVED_SEED, 1, 1),
            mc_samples,
            store,
            reader,
            view: None,
            mismatches: Vec::new(),
            plan_calls: 0,
            plan_hits: 0,
            result_calls: 0,
            result_hits: 0,
            cold_plans: Vec::new(),
            ops: OpCounters::default(),
            lineage_vars_frac: Vec::new(),
            ns_per_sample: Vec::new(),
        }
    }
}

/// `parse_known_query` of the handlers: parse against a clone of the
/// snapshot's vocabulary and reject names the database does not hold.
fn parse_known(snap: &ProbDb, text: &str) -> Result<Query, String> {
    let mut voc = snap.voc.clone();
    let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
    let known = snap.voc.num_relations() as u32;
    for atom in &q.atoms {
        if atom.rel.0 >= known {
            return Err("unknown relation".into());
        }
        for t in &atom.args {
            if let Term::Const(v) = *t {
                if v.is_named() && snap.voc.value_name(v).starts_with('#') {
                    return Err("unknown constant".into());
                }
            }
        }
    }
    Ok(q)
}

fn read_and_decode(t: &mut Tracer, rec: &Record) -> Result<telemetry::json::Json, String> {
    let raw = raw_request("POST", rec.req.path, &rec.req.body);
    let req = t
        .span("serve.read", |_| {
            http::read_request(&mut BufReader::new(&raw[..]), || false)
        })
        .map_err(|e| e.to_string())?
        .ok_or("empty request")?;
    t.span("telemetry.json_decode", |_| {
        telemetry::json::parse(&req.body)
    })
}

fn replay_eval(t: &mut Tracer, st: &mut State, rec: &Record, served: &Json) -> Result<(), String> {
    let doc = read_and_decode(t, rec)?;
    let qtext = doc
        .get("query")
        .and_then(|j| j.as_str())
        .ok_or("no query")?;
    let snap = t.span("pdb.snapshot", |_| st.reader.snapshot());
    let q = t.span("cq.parse", |_| parse_known(&snap, qtext))?;
    let _key = t.span("cq.canon", |_| q.cache_key());
    let (planned, plan_hit) = t
        .span("core.plan", |_| st.engine.planner().plan_tracked(&q))
        .map_err(|e| e.to_string())?;
    st.plan_calls += 1;
    st.plan_hits += u64::from(plan_hit);
    let rc = st
        .engine
        .result_cache()
        .expect("replay engine has a result cache");
    let tag = format!("auto:{}", st.mc_samples);
    let (key, cached) = t.span("core.result_lookup", |_| {
        let key = ResultCache::key(&snap, SERVED_SEED, 1, 1, &tag, &q.cache_key());
        let hit = rc.get(&key);
        (key, hit)
    });
    st.result_calls += 1;
    let result_hit = cached.is_some();
    let outcome = match cached {
        Some(o) => {
            st.result_hits += 1;
            o
        }
        None => {
            let out = t.span("core.execute", |t| match &planned.plan {
                // The executor's serial Karp–Luby path, layer by layer.
                PhysicalPlan::KarpLuby { query, samples } => {
                    let dnf = t.span("pdb.lineage", |_| pdb::lineage_of(&snap, query));
                    let probs = snap.prob_vector();
                    let mut rng = rand::rngs::StdRng::seed_from_u64(SERVED_SEED);
                    let t0 = Instant::now();
                    let est = t.span("lineage.sample", |_| {
                        lineage::karp_luby(&dnf, &probs, *samples, &mut rng)
                    });
                    st.ns_per_sample
                        .push(t0.elapsed().as_nanos() as f64 / (*samples).max(1) as f64);
                    st.lineage_vars_frac
                        .push(dnf.num_vars() as f64 / snap.num_tuples().max(1) as f64);
                    Ok(ExecOutcome {
                        probability: est.estimate,
                        std_error: est.std_error,
                        method: Method::KarpLuby,
                        parallel: None,
                        extensional: None,
                        scheduler: None,
                        sharding: None,
                    })
                }
                plan => st.executor.execute(&snap, plan),
            })?;
            if let PhysicalPlan::Extensional { plan } = &planned.plan {
                if let Some(ops) = &out.extensional {
                    st.ops.absorb(ops);
                }
                if t.on && st.cold_plans.len() < 8 && !st.cold_plans.iter().any(|(p, _)| p == plan)
                {
                    st.cold_plans.push((plan.clone(), Arc::clone(&snap)));
                }
            }
            rc.insert(key, out.clone());
            out
        }
    };
    if t.on && !plan_hit {
        // Classification runs inside `plan_tracked` on a miss; time it on
        // its own as a probe outside the request.
        t.request(u32::MAX, "probe.classify", |t| {
            t.span("core.classify", |_| classify(&q))
        })
        .map_err(|e| e.to_string())?;
    }
    let epoch = st.store.epoch();
    t.span("serve.write", |_| {
        let body = format!(
            concat!(
                "{{\"probability\":{},\"std_error\":{},\"method\":\"{}\",",
                "\"cache_hit\":{},\"result_cache_hit\":{},\"version\":{},\"epoch\":{}}}"
            ),
            format_f64(outcome.probability),
            format_f64(outcome.std_error),
            escape(&outcome.method.to_string()),
            plan_hit,
            result_hit,
            snap.version(),
            epoch,
        );
        let mut out = Vec::with_capacity(body.len() + 96);
        http::respond_json(&mut out, 200, &body).map(|()| out.len())
    })
    .map_err(|e| e.to_string())?;
    let served_p = served.f64("probability").map(f64::to_bits);
    let served_se = served.f64("std_error").map(f64::to_bits);
    if served_p != Some(outcome.probability.to_bits())
        || served_se != Some(outcome.std_error.to_bits())
    {
        return Err(format!(
            "replayed {qtext}: {} ± {}, served {served_p:?} ± {served_se:?} (bits)",
            outcome.probability, outcome.std_error
        ));
    }
    Ok(())
}

fn replay_rank(t: &mut Tracer, st: &mut State, rec: &Record, served: &Json) -> Result<(), String> {
    let doc = read_and_decode(t, rec)?;
    let qtext = doc
        .get("query")
        .and_then(|j| j.as_str())
        .ok_or("no query")?;
    let head_text = doc.get("head").and_then(|j| j.as_str()).ok_or("no head")?;
    let top = doc.get("top").and_then(|j| j.as_u64());
    let snap = t.span("pdb.snapshot", |_| st.reader.snapshot());
    let q = t.span("cq.parse", |_| parse_known(&snap, qtext))?;
    let head = head_vars(head_text);
    let _key = t.span("cq.canon", |_| q.cache_key());
    let (mut answers, _run) = t
        .span("core.rank", |_| {
            ranked_answers_counted(&st.engine, &snap, &q, &head, Strategy::Auto)
        })
        .map_err(|e| e.to_string())?;
    if let Some(k) = top {
        answers.truncate(k as usize);
    }
    t.span("serve.write", |_| {
        let rows: Vec<String> = answers
            .iter()
            .map(|a| {
                let tuple: Vec<String> = a
                    .tuple
                    .iter()
                    .map(|v| format!("\"{}\"", escape(&snap.voc.value_name(*v))))
                    .collect();
                format!(
                    "{{\"tuple\":[{}],\"probability\":{},\"std_error\":{},\"method\":\"{}\"}}",
                    tuple.join(","),
                    format_f64(a.probability),
                    format_f64(a.std_error),
                    escape(&a.method.to_string()),
                )
            })
            .collect();
        let body = format!(
            "{{\"version\":{},\"answers\":[{}]}}",
            snap.version(),
            rows.join(",")
        );
        let mut out = Vec::with_capacity(body.len() + 96);
        http::respond_json(&mut out, 200, &body).map(|()| out.len())
    })
    .map_err(|e| e.to_string())?;
    let served_answers = served.arr("answers").ok_or("no answers")?;
    let same = served_answers.len() == answers.len()
        && served_answers.iter().zip(&answers).all(|(s, a)| {
            s.f64("probability").map(f64::to_bits) == Some(a.probability.to_bits())
                && s.f64("std_error").map(f64::to_bits) == Some(a.std_error.to_bits())
        });
    if !same {
        return Err(format!(
            "replayed rank {qtext} differs from the served answers"
        ));
    }
    Ok(())
}

fn replay_apply(t: &mut Tracer, st: &mut State, rec: &Record, served: &Json) -> Result<(), String> {
    let doc = read_and_decode(t, rec)?;
    let script = doc
        .get("deltas")
        .and_then(|j| j.as_str())
        .ok_or("no deltas")?;
    let (batches, ops, version) = t.span("pdb.write", |t| {
        st.store.with_writer(|db| {
            t.span("pdb.apply", |t| {
                let mut voc = db.voc.clone();
                let batches = t
                    .span("pdb.delta_parse", |_| {
                        pdb::text::parse_delta_batches(&mut voc, script)
                    })
                    .map_err(|e| e.to_string())?;
                db.voc = voc;
                let mut version = db.version();
                for b in &batches {
                    version = db.apply(b);
                }
                Ok::<_, String>((
                    batches.len(),
                    batches.iter().map(|b| b.ops.len()).sum::<usize>(),
                    version,
                ))
            })
        })
    })?;
    let publish_ns = st.store.last_publish_ns();
    t.span("serve.write", |_| {
        let body = format!(
            "{{\"version\":{version},\"batches\":{batches},\"ops\":{ops},\"publish_ns\":{publish_ns}}}"
        );
        let mut out = Vec::new();
        http::respond_json(&mut out, 200, &body).map(|()| out.len())
    })
    .map_err(|e| e.to_string())?;
    if served.u64("version") != Some(version) {
        return Err(format!(
            "replayed apply reached version {version}, served {:?}",
            served.u64("version")
        ));
    }
    Ok(())
}

/// The watcher's refresh after a publish: read the view at the new epoch
/// and compare with the served reading of that version, if one arrived.
fn replay_refresh(t: &mut Tracer, st: &mut State, run: &LoadRun) -> Result<(), String> {
    let Some(view) = &st.view else { return Ok(()) };
    let snap = st.reader.snapshot();
    let reading = t
        .span("incremental.refresh", |_| view.read(&snap))
        .map_err(|e| e.to_string())?;
    if let Some(served) = run.readings.iter().find(|r| r.version == reading.version) {
        if served.probability.to_bits() != reading.evaluation.probability.to_bits() {
            return Err(format!(
                "refreshed view at version {} differs from the served reading",
                reading.version
            ));
        }
    }
    Ok(())
}

fn subscribe(t: &mut Tracer, st: &mut State) -> Result<(), String> {
    let snap = st.reader.snapshot();
    let mut voc = snap.voc.clone();
    let q = parse_query(&mut voc, gen::BUSHY_FOUR_ATOM).map_err(|e| e.to_string())?;
    let view = t
        .span("incremental.subscribe", |_| st.engine.subscribe(&snap, &q))
        .map_err(|e| e.to_string())?;
    view.read(&snap).map_err(|e| e.to_string())?;
    st.view = Some(view);
    Ok(())
}

/// The requests replayed: the first `prefix_len` of the recorded stream.
/// With a single writer the stream is connection A's order; otherwise
/// both connections merged by send time.
fn replayed<'a>(run: &'a LoadRun, workload: &str) -> Vec<&'a Record> {
    run.records
        .iter()
        .filter(|r| r.req.path != "/watch")
        .take(prefix_len(workload))
        .collect()
}

/// One replay pass. Returns the state, the tracer and the pass's wall
/// time.
fn pass(
    db: &ProbDb,
    mc_samples: u64,
    run: &LoadRun,
    reqs: &[&Record],
    traced: bool,
) -> (State, Tracer, f64) {
    let mut st = State::new(db, mc_samples);
    let mut t = Tracer::new(traced);
    let start = Instant::now();
    let churn = reqs.iter().any(|r| r.req.path == "/apply");
    if churn {
        if let Err(e) = t.request(u32::MAX - 1, "watch.subscribe", |t| subscribe(t, &mut st)) {
            st.mismatches.push(e);
        }
    }
    for (i, rec) in reqs.iter().enumerate() {
        let Some(served) = rec.result.as_ref().ok().and_then(|b| json::parse(b).ok()) else {
            continue;
        };
        let i = i as u32;
        let res = match rec.req.path {
            "/eval" => t.request(i, "request.eval", |t| replay_eval(t, &mut st, rec, &served)),
            "/rank" => t.request(i, "request.rank", |t| replay_rank(t, &mut st, rec, &served)),
            "/apply" => t
                .request(i, "request.apply", |t| {
                    replay_apply(t, &mut st, rec, &served)
                })
                .and_then(|()| t.request(i, "watch.refresh", |t| replay_refresh(t, &mut st, run))),
            _ => Ok(()),
        };
        if let Err(e) = res {
            st.mismatches.push(e);
        }
    }
    (st, t, start.elapsed().as_secs_f64())
}

/// Per-call self times of each safe-plan operator kind: time
/// `execute_counted` on every subtree and subtract its children.
fn operator_self_times(plans: &[(PlanNode, Arc<ProbDb>)]) -> BTreeMap<&'static str, Vec<f64>> {
    fn kind(n: &PlanNode) -> &'static str {
        match n {
            PlanNode::Scan { .. } | PlanNode::ComplementScan { .. } => "scan",
            PlanNode::IndependentJoin { .. } => "join",
            PlanNode::IndependentProject { .. } => "project",
            PlanNode::Select { .. } => "select",
            PlanNode::Certain | PlanNode::Never => "const",
        }
    }
    fn children(n: &PlanNode) -> Vec<&PlanNode> {
        match n {
            PlanNode::Select { input, .. } | PlanNode::IndependentProject { input, .. } => {
                vec![input]
            }
            PlanNode::IndependentJoin { inputs } => inputs.iter().collect(),
            _ => Vec::new(),
        }
    }
    fn subtree_ms(db: &ProbDb, probs: &[f64], n: &PlanNode) -> f64 {
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let rel = safeplan::execute_counted(db, probs, n, &mut OpCounters::default());
                std::hint::black_box(rel.len());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&runs).expect("three runs")
    }
    fn walk(
        db: &ProbDb,
        probs: &[f64],
        n: &PlanNode,
        out: &mut BTreeMap<&'static str, Vec<f64>>,
    ) -> f64 {
        let kids: f64 = children(n).iter().map(|c| walk(db, probs, c, out)).sum();
        let total = subtree_ms(db, probs, n);
        out.entry(kind(n))
            .or_default()
            .push((total - kids).max(0.0));
        total
    }
    let mut out = BTreeMap::new();
    for (plan, db) in plans {
        let probs = db.prob_vector();
        walk(db, &probs, plan, &mut out);
    }
    out
}

pub struct TraceResult {
    pub metrics: Vec<Metric>,
    pub mismatches: Vec<String>,
    pub spans: Vec<Span>,
}

/// Replay the prefix untraced, then traced, and derive the per-layer
/// metrics from the traced pass.
pub fn traced_replay(workload: &str, db_text: &str, mc_samples: u64, run: &LoadRun) -> TraceResult {
    let mut load_s = Vec::new();
    let mut db = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let d = load_replica(db_text);
        load_s.push(t0.elapsed().as_secs_f64());
        db = Some(d);
    }
    let db = db.expect("loaded");
    let reqs = replayed(run, workload);
    let (_, _, untraced_s) = pass(&db, mc_samples, run, &reqs, false);
    let (st, t, traced_s) = pass(&db, mc_samples, run, &reqs, true);
    let spans = t.spans;

    let mut m = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &spans {
        by_name.entry(s.name).or_default().push(s.dur_ns() as f64);
    }
    let mut layer = |name: &str, span: &str, unit: &'static str, scale: f64| {
        let v = by_name.get(span).cloned().unwrap_or_default();
        let med = median(&v).map(|x| x / scale);
        m.push(Metric::new(name, unit, med, v.len()));
    };
    layer("serve.read_us", "serve.read", "us", 1e3);
    layer("serve.write_us", "serve.write", "us", 1e3);
    layer(
        "telemetry.json_decode_us",
        "telemetry.json_decode",
        "us",
        1e3,
    );
    layer("cq.parse_us", "cq.parse", "us", 1e3);
    layer("cq.canon_us", "cq.canon", "us", 1e3);
    layer("core.plan_us", "core.plan", "us", 1e3);
    layer("core.classify_us", "core.classify", "us", 1e3);
    layer("core.result_lookup_us", "core.result_lookup", "us", 1e3);
    layer("core.execute_ms", "core.execute", "ms", 1e6);
    layer("core.rank_ms", "core.rank", "ms", 1e6);
    layer("pdb.snapshot_us", "pdb.snapshot", "us", 1e3);
    layer("pdb.delta_parse_us", "pdb.delta_parse", "us", 1e3);
    layer("pdb.apply_ms", "pdb.apply", "ms", 1e6);
    layer("pdb.lineage_ms", "pdb.lineage", "ms", 1e6);
    layer("lineage.sample_ms", "lineage.sample", "ms", 1e6);
    layer(
        "incremental.subscribe_ms",
        "incremental.subscribe",
        "ms",
        1e6,
    );
    layer("incremental.refresh_ms", "incremental.refresh", "ms", 1e6);

    let rate = |hits: u64, calls: u64| (calls > 0).then(|| hits as f64 / calls as f64);
    m.push(Metric::new(
        "core.plan_hit_rate",
        "ratio",
        rate(st.plan_hits, st.plan_calls),
        st.plan_calls as usize,
    ));
    m.push(Metric::new(
        "core.result_hit_rate",
        "ratio",
        rate(st.result_hits, st.result_calls),
        st.result_calls as usize,
    ));
    m.push(Metric::new(
        "pdb.load_s",
        "s",
        median(&load_s),
        load_s.len(),
    ));
    let publish: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "pdb.write")
        .map(|s| self_time_ns(&spans, s.id) as f64 / 1e6)
        .collect();
    m.push(Metric::new(
        "pdb.publish_ms",
        "ms",
        median(&publish),
        publish.len(),
    ));
    m.push(Metric::new(
        "pdb.lineage_vars_frac",
        "ratio",
        median(&st.lineage_vars_frac),
        st.lineage_vars_frac.len(),
    ));
    m.push(Metric::new(
        "lineage.ns_per_sample",
        "ns",
        median(&st.ns_per_sample),
        st.ns_per_sample.len(),
    ));

    let ops = operator_self_times(&st.cold_plans);
    for (kind, name) in [
        ("scan", "safeplan.scan_ms"),
        ("join", "safeplan.join_ms"),
        ("project", "safeplan.project_ms"),
        ("select", "safeplan.select_ms"),
    ] {
        let v = ops.get(kind).cloned().unwrap_or_default();
        m.push(Metric::new(name, "ms", median(&v), v.len()));
    }
    let cold = st.cold_plans.len();
    let extensional = cold > 0 || st.ops.scans > 0;
    m.push(Metric::new(
        "safeplan.rows_scanned",
        "count",
        extensional.then_some(st.ops.rows_scanned as f64),
        cold,
    ));
    m.push(Metric::new(
        "safeplan.rows_pruned",
        "count",
        extensional.then_some(st.ops.rows_pruned as f64),
        cold,
    ));
    let counters = st.view.as_ref().and_then(ViewHandle::counters);
    m.push(Metric::new(
        "incremental.rows_avoided_frac",
        "ratio",
        counters.and_then(|c| {
            let all = c.rows_avoided + c.rows_retouched;
            (all > 0).then(|| c.rows_avoided as f64 / all as f64)
        }),
        counters.map_or(0, |c| c.incremental_refreshes as usize),
    ));

    // Served latency minus replayed total, per replayed `/eval`.
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
    let residual: Vec<f64> = roots
        .iter()
        .filter(|s| s.name == "request.eval")
        .filter_map(|s| {
            let rec = reqs.get(s.req as usize)?;
            let served_us = (rec.end - rec.start).as_secs_f64() * 1e6;
            Some(served_us - s.dur_ns() as f64 / 1e3)
        })
        .collect();
    m.push(Metric::new(
        "serve.residual_us",
        "us",
        median(&residual),
        residual.len(),
    ));
    for (kind, root) in [
        ("eval", "request.eval"),
        ("rank", "request.rank"),
        ("apply", "request.apply"),
    ] {
        let fr: Vec<f64> = roots
            .iter()
            .filter(|s| s.name == root && s.dur_ns() > 0)
            .map(|s| self_time_ns(&spans, s.id) as f64 / s.dur_ns() as f64)
            .collect();
        m.push(Metric::new(
            &format!("trace.unattributed_frac.{kind}"),
            "ratio",
            median(&fr),
            fr.len(),
        ));
    }
    m.push(Metric::new(
        "trace.overhead",
        "ratio",
        Some(traced_s / untraced_s - 1.0),
        reqs.len(),
    ));
    TraceResult {
        metrics: m,
        mismatches: st.mismatches,
        spans,
    }
}

/// The spans as JSON lines.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,30) and [20,50) overlap → 40 covered,
        // [60,70) → 10 more, a grandchild never counts against the root,
        // and a child running past the root is clipped to it.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 3, 25, 45),
            span(5, 1, 60, 70),
            span(6, 1, 95, 130),
        ];
        assert_eq!(self_time_ns(&spans, 1), 100 - 40 - 10 - 5);
        assert_eq!(self_time_ns(&spans, 3), 30 - 20);
        assert_eq!(self_time_ns(&spans, 2), 20);
        assert_eq!(self_time_ns(&spans, 9), 0);
    }

    #[test]
    fn tracer_nests_and_shares_request_ids() {
        let mut t = Tracer::new(true);
        t.request(7, "root", |t| {
            t.span("a", |t| t.span("b", |_| ()));
            t.span("c", |_| ());
        });
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent, s.req)).collect();
        assert_eq!(
            names,
            vec![("root", 0, 7), ("a", 1, 7), ("b", 2, 7), ("c", 1, 7)]
        );
        assert!(t.spans.iter().all(|s| s.start_ns <= s.end_ns));
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 3), 3);
        assert!(off.spans.is_empty());
    }
}
