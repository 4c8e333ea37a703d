//! Output correctness, checked after the timed run and not timed: every
//! served answer is compared bit for bit against a direct `Engine` on an
//! in-process replica that loads the same text and applies the same delta
//! scripts in order. On the #P-hard side each Monte-Carlo estimate of a
//! seeded sample must also lie within 5 standard errors of the exact
//! probability.

use std::collections::BTreeMap;

use cq::{parse_query, Var, Vocabulary};
use dichotomy::engine::{Engine, ExecOptions, Strategy};
use dichotomy::ranked_answers;
use pdb::ProbDb;

use crate::gen::{self, Rng};
use crate::json::{self, Field, Json};
use crate::load::LoadRun;

/// The server's fixed Monte-Carlo seed (`serve::ServeOptions::default`).
pub const SERVED_SEED: u64 = 0xDA151;

/// Exact probabilities computed per run for the Monte-Carlo check.
const EXACT_SAMPLE: usize = 6;

/// One ranked answer as served: tuple names, probability and standard
/// error bits.
type Answer = (Vec<String>, u64, u64);

#[derive(Clone, Debug, PartialEq)]
enum Expect {
    Eval {
        p: u64,
        se: u64,
        method: String,
    },
    Rank {
        head: String,
        top: Option<u64>,
        answers: Vec<Answer>,
    },
    Watch {
        p: u64,
    },
}

#[derive(Debug, Default)]
pub struct CheckReport {
    /// Distinct (version, request) pairs compared.
    pub pairs: usize,
    pub applies: usize,
    pub mc_exact_checked: usize,
    pub mismatches: Vec<String>,
}

/// Load the served database text into a replica.
pub fn load_replica(text: &str) -> ProbDb {
    let mut voc = Vocabulary::new();
    let mut db = pdb::load_db(&mut voc, text).expect("generated database text loads");
    db.voc = voc;
    db
}

/// Apply one delta script exactly as the `/apply` handler does.
fn apply_script(db: &mut ProbDb, script: &str) -> Result<u64, String> {
    let mut voc = db.voc.clone();
    let batches = pdb::text::parse_delta_batches(&mut voc, script).map_err(|e| e.to_string())?;
    db.voc = voc;
    let mut version = db.version();
    for b in &batches {
        version = db.apply(b);
    }
    Ok(version)
}

pub fn head_vars(text: &str) -> Vec<Var> {
    text.split([' ', ','])
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.trim_start_matches('x').parse().ok().map(Var))
        .collect()
}

fn bits(j: &Json, key: &str) -> Option<u64> {
    j.f64(key).map(f64::to_bits)
}

fn served_expect(path: &str, req: &Json, resp: &Json) -> Option<(u64, String, Expect)> {
    let query = req.str("query")?.to_string();
    match path {
        "/eval" => Some((
            resp.u64("version")?,
            query,
            Expect::Eval {
                p: bits(resp, "probability")?,
                se: bits(resp, "std_error")?,
                method: resp.str("method")?.to_string(),
            },
        )),
        "/rank" => {
            let answers = resp
                .arr("answers")?
                .iter()
                .map(|a| {
                    let tuple = match a.get("tuple")? {
                        Json::Arr(t) => t
                            .iter()
                            .map(|v| match v {
                                Json::Str(s) => Some(s.clone()),
                                _ => None,
                            })
                            .collect::<Option<Vec<_>>>()?,
                        _ => return None,
                    };
                    Some((tuple, bits(a, "probability")?, bits(a, "std_error")?))
                })
                .collect::<Option<Vec<_>>>()?;
            Some((
                resp.u64("version")?,
                query,
                Expect::Rank {
                    head: req.str("head")?.to_string(),
                    top: req.u64("top"),
                    answers,
                },
            ))
        }
        _ => None,
    }
}

/// What the replica answers for `query` at its current state.
fn replica_answer(
    engine: &Engine,
    db: &ProbDb,
    query: &str,
    want: &Expect,
) -> Result<Expect, String> {
    let mut voc = db.voc.clone();
    let q = parse_query(&mut voc, query).map_err(|e| e.to_string())?;
    match want {
        Expect::Eval { .. } | Expect::Watch { .. } => {
            let ev = engine
                .evaluate(db, &q, Strategy::Auto)
                .map_err(|e| e.to_string())?;
            Ok(match want {
                Expect::Watch { .. } => Expect::Watch {
                    p: ev.probability.to_bits(),
                },
                _ => Expect::Eval {
                    p: ev.probability.to_bits(),
                    se: ev.std_error.to_bits(),
                    method: ev.method.to_string(),
                },
            })
        }
        Expect::Rank { head, top, .. } => {
            let mut answers = ranked_answers(engine, db, &q, &head_vars(head), Strategy::Auto)
                .map_err(|e| e.to_string())?;
            if let Some(k) = top {
                answers.truncate(*k as usize);
            }
            Ok(Expect::Rank {
                head: head.clone(),
                top: *top,
                answers: answers
                    .iter()
                    .map(|a| {
                        (
                            a.tuple.iter().map(|v| db.voc.value_name(*v)).collect(),
                            a.probability.to_bits(),
                            a.std_error.to_bits(),
                        )
                    })
                    .collect(),
            })
        }
    }
}

/// Check every served answer of `run` against the replica.
pub fn check(db_text: &str, mc_samples: u64, run: &LoadRun, seed: u64) -> CheckReport {
    let mut report = CheckReport::default();
    // (version, query, kind) → the served answer; duplicates must agree.
    let mut expected: BTreeMap<(u64, String, u8), Expect> = BTreeMap::new();
    let mut scripts: Vec<(String, u64)> = Vec::new();
    for r in &run.records {
        let Ok(body) = &r.result else { continue };
        let (Ok(req), Ok(resp)) = (json::parse(&r.req.body), json::parse(body)) else {
            if r.req.path != "/watch" {
                report
                    .mismatches
                    .push(format!("unparseable {} exchange", r.req.path));
            }
            continue;
        };
        if r.req.path == "/apply" {
            match (req.str("deltas"), resp.u64("version")) {
                (Some(s), Some(v)) => scripts.push((s.to_string(), v)),
                _ => report
                    .mismatches
                    .push("apply response without version".into()),
            }
            continue;
        }
        let Some((version, query, want)) = served_expect(r.req.path, &req, &resp) else {
            report
                .mismatches
                .push(format!("incomplete {} response: {body}", r.req.path));
            continue;
        };
        let kind = if r.req.path == "/eval" { 0 } else { 1 };
        let key = match &want {
            Expect::Rank { head, top, .. } => format!("{query}|{head}|{top:?}"),
            _ => query,
        };
        match expected.get(&(version, key.clone(), kind)) {
            Some(prev) if *prev != want => report
                .mismatches
                .push(format!("served two answers for {key} at version {version}")),
            Some(_) => {}
            None => {
                expected.insert((version, key, kind), want);
            }
        }
    }
    for w in &run.readings {
        let key = (w.version, gen::BUSHY_FOUR_ATOM.to_string(), 2);
        let want = Expect::Watch {
            p: w.probability.to_bits(),
        };
        match expected.get(&key) {
            Some(prev) if *prev != want => report.mismatches.push(format!(
                "watch served two readings at version {}",
                w.version
            )),
            Some(_) => {}
            None => {
                expected.insert(key, want);
            }
        }
    }

    let engine = Engine::with_options(mc_samples, SERVED_SEED, ExecOptions::serial());
    let mut db = load_replica(db_text);
    let mut scripts = scripts.into_iter();
    let mut by_version: BTreeMap<u64, Vec<(String, Expect)>> = BTreeMap::new();
    for ((v, key, _), want) in expected {
        by_version.entry(v).or_default().push((key, want));
    }
    let mut mc_pairs: Vec<(String, f64, f64)> = Vec::new();
    for (version, items) in by_version {
        while db.version() < version {
            let Some((script, served_v)) = scripts.next() else {
                break;
            };
            report.applies += 1;
            match apply_script(&mut db, &script) {
                Ok(v) if v == served_v => {}
                Ok(v) => report
                    .mismatches
                    .push(format!("apply: served version {served_v}, replica {v}")),
                Err(e) => report
                    .mismatches
                    .push(format!("replica rejected a served script: {e}")),
            }
        }
        if db.version() != version {
            report.mismatches.push(format!(
                "served version {version} never reached by the replica"
            ));
            continue;
        }
        report.pairs += items.len();
        let got = evaluate_all(&engine, &db, &items);
        for ((key, want), got) in items.iter().zip(got) {
            let query = key.split('|').next().unwrap_or(key);
            match got {
                Ok(g) if g == *want => {
                    if let Expect::Eval { p, se, .. } = want {
                        if *se != 0 {
                            mc_pairs.push((
                                query.to_string(),
                                f64::from_bits(*p),
                                f64::from_bits(*se),
                            ));
                        }
                    }
                }
                Ok(g) => report.mismatches.push(format!(
                    "version {version} {key}: served {want:?}, replica {g:?}"
                )),
                Err(e) => report
                    .mismatches
                    .push(format!("version {version} {key}: replica error {e}")),
            }
        }
    }
    for (script, served_v) in scripts {
        report.applies += 1;
        match apply_script(&mut db, &script) {
            Ok(v) if v == served_v => {}
            _ => report
                .mismatches
                .push(format!("apply to version {served_v} not reproduced")),
        }
    }
    check_mc_against_exact(&engine, &db, &mut mc_pairs, seed, &mut report);
    report
}

/// Answer every item, on two threads when there is much to do (the
/// #P-hard workload re-samples every served query).
fn evaluate_all(
    engine: &Engine,
    db: &ProbDb,
    items: &[(String, Expect)],
) -> Vec<Result<Expect, String>> {
    let one = |(key, want): &(String, Expect)| {
        replica_answer(engine, db, key.split('|').next().unwrap_or(key), want)
    };
    if items.len() < 64 {
        return items.iter().map(one).collect();
    }
    let mid = items.len() / 2;
    std::thread::scope(|s| {
        let left = s.spawn(|| items[..mid].iter().map(one).collect::<Vec<_>>());
        let mut right: Vec<_> = items[mid..].iter().map(one).collect();
        let mut out = left.join().expect("replica thread panicked");
        out.append(&mut right);
        out
    })
}

/// A seeded sample of served Monte-Carlo estimates, each within 5
/// standard errors of the exact probability. Only the hard workload
/// serves estimates, and it never writes, so the replica's final state is
/// the served one.
fn check_mc_against_exact(
    engine: &Engine,
    db: &ProbDb,
    pairs: &mut Vec<(String, f64, f64)>,
    seed: u64,
    report: &mut CheckReport,
) {
    if pairs.is_empty() {
        return;
    }
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let probs = pdb::RatProbs::from_db(db);
    let mut rng = Rng::stream(seed, 9);
    for _ in 0..EXACT_SAMPLE.min(pairs.len()) {
        let i = rng.below(pairs.len() as u64) as usize;
        let (query, p, se) = pairs.swap_remove(i);
        let mut voc = db.voc.clone();
        let q = parse_query(&mut voc, &query).expect("served query parses");
        let exact = engine.evaluate_exact(db, &probs, &q).0.to_f64();
        report.mc_exact_checked += 1;
        if (p - exact).abs() > 5.0 * se {
            report.mismatches.push(format!(
                "{query}: estimate {p} ± {se} is {:.1} standard errors from exact {exact}",
                (p - exact).abs() / se
            ));
        }
    }
}
