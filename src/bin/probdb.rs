//! The `probdb` command-line tool: classify, explain, and evaluate
//! conjunctive queries on probabilistic databases in the plain-text format
//! of `pdb::text`.
//!
//! ```text
//! probdb classify "R(x), S(x,y), T(y)"
//! probdb explain  "R(x), S(x,y), S(u,v), T(v)"
//! probdb eval db.txt "R(x), S(x,y)" [--mc-samples 100000] [--exact] [--threads N] [--json] [--trace out.json]
//! probdb count db.txt "R(x), S(x,y)"        # satisfying substructures
//! probdb plan "R(x), S(x,y)"                # the planner's physical plan
//! probdb rank db.txt "Director(d), Credit(d,m)" x0 [--top K] [--threads N]
//!                                   # head variables are x0, x1, … in
//!                                   # first-occurrence order
//! probdb apply db.txt deltas.txt [-o out.txt]   # apply delta batches
//! probdb watch db.txt "R(x), S(x,y)" deltas.txt [--threads N]
//!                                   # subscribe an incremental view, then
//!                                   # apply each batch and read through it
//! probdb serve db.txt [--addr host:port] [--workers N] [--slow-ms N] [--access-log file]
//!                                   # HTTP query service: epoch-snapshot
//!                                   # reads, single-writer applies;
//!                                   # /metrics (Prometheus), /debug/requests
//!                                   # (flight recorder), JSONL access log
//! ```
//!
//! Delta scripts hold one mutation per line — `+ R(1,2) @ 0.5` (insert),
//! `~ R(1,2) @ 0.9` (probability update), `- R(1,2)` (delete) — with blank
//! lines separating atomically-applied batches.
//!
//! `--threads N` runs extensional plans on the pipelined operator-DAG
//! executor with N morsel-driven workers (results are bit-for-bit the
//! serial answers; sampling stays deterministic per seed and thread
//! count). The `ENGINE_THREADS` environment variable sets the default.
//! The `--exact` rational path is serial-only and ignores the flag.
//!
//! Every subcommand rejects a flag it does not take: it prints the error
//! and its own usage line and exits with status 2.
//!
//! `--trace out.json` (any command) records a span trace of the run —
//! planner phases, DAG tasks, operator kernels, morsel batches,
//! incremental refresh phases, sampling rounds — and writes it as Chrome
//! trace-event JSON, loadable in Perfetto / `chrome://tracing` with one
//! lane per worker thread. `ENGINE_TRACE=1` switches tracing on without a
//! file; any other non-off value (`ENGINE_TRACE=run.json`) doubles as the
//! output path. `--json` on `eval` and `rank` replaces the human-readable
//! report with one JSON object: the result plus the evaluation's uniform
//! metric snapshot (`Evaluation::metric_set` dotted keys).
//!
//! `serve` ships with observability on: `GET /metrics` exposes the
//! telemetry registry as Prometheus text, `GET /debug/requests` dumps the
//! in-memory flight recorder, and every request writes one JSONL access
//! log line (in-memory tail; `--access-log file` appends to disk).
//! Requests at or above the slow threshold — `--slow-ms N`, env
//! `ENGINE_SLOW_MS`, default 500 — log their plan summary (method,
//! dichotomy classification, operator counters) and retain a span capture
//! served by `/debug/requests`; `"trace": true` on `/eval`/`/rank`
//! returns the request's spans inline.

use dichotomy::engine::{Engine, ExecOptions, Strategy};
use dichotomy::{classify, count_substructures_recurrence, explain, ranked_answers_counted};
use pdb::{count_satisfying_worlds_exact, load_db};
use probdb::prelude::*;
use std::process::ExitCode;

/// One subcommand's interface: its positional arguments and the flags it
/// takes, each with its value placeholder (`None` for a bare switch).
struct Command {
    name: &'static str,
    positionals: &'static str,
    flags: &'static [(&'static str, Option<&'static str>)],
}

/// Accepted by every subcommand.
const TRACE_FLAG: (&str, Option<&str>) = ("--trace", Some("out.json"));

const COMMANDS: &[Command] = &[
    Command {
        name: "classify",
        positionals: "<query>",
        flags: &[],
    },
    Command {
        name: "explain",
        positionals: "<query>",
        flags: &[],
    },
    Command {
        name: "eval",
        positionals: "<db.txt> <query>",
        flags: &[
            ("--mc-samples", Some("N")),
            ("--exact", None),
            ("--threads", Some("N")),
            ("--json", None),
        ],
    },
    Command {
        name: "count",
        positionals: "<db.txt> <query>",
        flags: &[],
    },
    Command {
        name: "plan",
        positionals: "<query>",
        flags: &[],
    },
    Command {
        name: "rank",
        positionals: "<db.txt> <query> <head-var>",
        flags: &[
            ("--top", Some("K")),
            ("--threads", Some("N")),
            ("--json", None),
        ],
    },
    Command {
        name: "apply",
        positionals: "<db.txt> <deltas.txt>",
        flags: &[("-o", Some("out.txt"))],
    },
    Command {
        name: "watch",
        positionals: "<db.txt> <query> <deltas.txt>",
        flags: &[("--threads", Some("N"))],
    },
    Command {
        name: "serve",
        positionals: "<db.txt>",
        flags: &[
            ("--addr", Some("host:port")),
            ("--workers", Some("N")),
            ("--mc-samples", Some("N")),
            ("--threads", Some("N")),
            ("--slow-ms", Some("N")),
            ("--access-log", Some("file")),
        ],
    },
];

impl Command {
    fn find(name: &str) -> Option<&'static Command> {
        COMMANDS.iter().find(|c| c.name == name)
    }

    fn all_flags(&self) -> impl Iterator<Item = &(&'static str, Option<&'static str>)> {
        self.flags.iter().chain(std::iter::once(&TRACE_FLAG))
    }

    fn usage(&self) -> String {
        let mut line = format!("probdb {} {}", self.name, self.positionals);
        for (flag, value) in self.all_flags() {
            match value {
                Some(v) => line.push_str(&format!(" [{flag} {v}]")),
                None => line.push_str(&format!(" [{flag}]")),
            }
        }
        line
    }

    /// Reject any flag this subcommand does not take. Flag values are
    /// skipped, so a value that happens to start with `-` is not
    /// mistaken for a flag.
    fn check_flags(&self, args: &[String]) -> Result<(), String> {
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with('-') || arg.len() == 1 {
                continue;
            }
            match self.all_flags().find(|(flag, _)| flag == arg) {
                Some((_, Some(_))) => {
                    rest.next();
                }
                Some((_, None)) => {}
                None => return Err(format!("{} does not take {arg}", self.name)),
            }
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            match args.first().and_then(|c| Command::find(c)) {
                Some(cmd) => eprintln!("usage: {}", cmd.usage()),
                None => {
                    let all: Vec<String> = COMMANDS.iter().map(Command::usage).collect();
                    eprintln!("usage: {}", all.join(" | "));
                }
            }
            ExitCode::from(2)
        }
    }
}

/// Parse an optional `--threads N` flag into execution options; an absent
/// flag falls back to [`ExecOptions::default`], which honors
/// `ENGINE_THREADS`.
fn exec_options(args: &[String]) -> Result<ExecOptions, String> {
    let threads = match args.iter().position(|a| a == "--threads") {
        Some(i) => {
            let n = args
                .get(i + 1)
                .ok_or("--threads needs a value")?
                .parse::<usize>()
                .map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("--threads must be at least 1".into());
            }
            n
        }
        None => ExecOptions::default().threads,
    };
    Ok(ExecOptions::with_threads(threads))
}

/// `--trace out.json`, falling back to a path-valued `ENGINE_TRACE`.
/// Either source forces span tracing on for the whole run.
fn trace_path(args: &[String]) -> Result<Option<String>, String> {
    let path = match args.iter().position(|a| a == "--trace") {
        Some(i) => Some(args.get(i + 1).ok_or("--trace needs a path")?.clone()),
        None => telemetry::env_trace_path(),
    };
    if path.is_some() {
        telemetry::set_enabled(true);
    }
    Ok(path)
}

/// Write every span recorded so far as Chrome trace-event JSON.
fn write_trace(path: &str) -> Result<(), String> {
    let spans = telemetry::take_spans();
    let json = telemetry::chrome_trace(&spans);
    std::fs::write(path, &json).map_err(|e| e.to_string())?;
    eprintln!(
        "trace: {} span(s), {} bytes -> {path}",
        spans.len(),
        json.len()
    );
    Ok(())
}

fn json_mode(args: &[String]) -> bool {
    args.iter().any(|a| a == "--json")
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing command")?;
    let cmd = Command::find(cmd).ok_or_else(|| format!("unknown command {cmd:?}"))?;
    cmd.check_flags(&args[1..])?;
    let trace = trace_path(args)?;
    dispatch(args)?;
    if let Some(path) = &trace {
        write_trace(path)?;
    }
    Ok(())
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args[0].as_str() {
        "classify" => {
            let text = args.get(1).ok_or("missing query")?;
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            let c = classify(&q).map_err(|e| e.to_string())?;
            println!("{}", c.complexity);
            Ok(())
        }
        "explain" => {
            let text = args.get(1).ok_or("missing query")?;
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            let c = classify(&q).map_err(|e| e.to_string())?;
            print!("{}", explain(&c, &voc));
            Ok(())
        }
        "eval" => {
            let path = args.get(1).ok_or("missing database file")?;
            let text = args.get(2).ok_or("missing query")?;
            let samples = match args.iter().position(|a| a == "--mc-samples") {
                Some(i) => args
                    .get(i + 1)
                    .ok_or("--mc-samples needs a value")?
                    .parse::<u64>()
                    .map_err(|e| e.to_string())?,
                None => 100_000,
            };
            let data = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let mut voc = Vocabulary::new();
            if args.iter().any(|a| a == "--exact") {
                // Exact rational path: Eq. 3 recurrence when safe, exact
                // lineage compilation otherwise. Probabilities like `1/3`
                // in the database file survive with no rounding at all.
                let (db, probs) = pdb::load_db_exact(&mut voc, &data).map_err(|e| e.to_string())?;
                let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
                let (p, how) = match eval_recurrence_exact(&db, &probs, &q) {
                    Ok(p) => (p, "eq3-recurrence"),
                    Err(_) => (
                        pdb::exact_query_probability(&db, &probs, &q),
                        "exact-lineage",
                    ),
                };
                println!("P(q) = {p}");
                println!("     ≈ {:.12}   method={how}", p.to_f64());
                return Ok(());
            }
            let db = load_db(&mut voc, &data).map_err(|e| e.to_string())?;
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            let exec = exec_options(args)?;
            let engine = Engine::with_options(samples, 0xDA151, exec);
            let ev = engine
                .evaluate(&db, &q, Strategy::Auto)
                .map_err(|e| e.to_string())?;
            if json_mode(args) {
                println!(
                    "{{\"probability\":{},\"std_error\":{},\"method\":\"{}\",\"cache_hit\":{},\"metrics\":{}}}",
                    telemetry::metrics::format_f64(ev.probability),
                    telemetry::metrics::format_f64(ev.std_error),
                    telemetry::json::escape(&ev.method.to_string()),
                    ev.cache_hit,
                    ev.metric_set().to_json()
                );
            } else {
                print!("{}", explain_evaluation(&ev));
            }
            Ok(())
        }
        "count" => {
            let path = args.get(1).ok_or("missing database file")?;
            let text = args.get(2).ok_or("missing query")?;
            let data = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let mut voc = Vocabulary::new();
            let db = load_db(&mut voc, &data).map_err(|e| e.to_string())?;
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            let n = db.num_tuples();
            // Safe queries count in PTIME via the exact rational recurrence;
            // everything else goes through exact lineage compilation.
            let (count, how) = match count_substructures_recurrence(&db, &q) {
                Ok(c) => (c, "eq3-recurrence"),
                Err(_) => (count_satisfying_worlds_exact(&db, &q), "exact-lineage"),
            };
            println!("{count} of 2^{n} substructures satisfy q   method={how}");
            Ok(())
        }
        "plan" => {
            let text = args.get(1).ok_or("missing query")?;
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            // The planner's view: classification once, then the compiled
            // physical plan the executor would run.
            let planner = Planner::new(100_000);
            let planned = planner.plan(&q).map_err(|e| e.to_string())?;
            print!("{}", planned.plan.display(&voc));
            if let PhysicalPlan::Extensional { plan } = &planned.plan {
                println!("({} operators, depth {})", plan.size(), plan.depth());
            }
            println!("classification: {}", planned.classification.complexity);
            Ok(())
        }
        "rank" => {
            let path = args.get(1).ok_or("missing database file")?;
            let text = args.get(2).ok_or("missing query")?;
            let head_name = args.get(3).ok_or("missing head variable")?;
            let k = match args.iter().position(|a| a == "--top") {
                Some(i) => Some(
                    args.get(i + 1)
                        .ok_or("--top needs a value")?
                        .parse::<usize>()
                        .map_err(|e| e.to_string())?,
                ),
                None => None,
            };
            let data = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let mut voc = Vocabulary::new();
            let db = load_db(&mut voc, &data).map_err(|e| e.to_string())?;
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            // Head variables are named x0, x1, … in parse order.
            let head_idx: usize = head_name
                .trim_start_matches('x')
                .parse()
                .map_err(|_| format!("head variable {head_name:?} should look like x0"))?;
            let head = [Var(head_idx as u32)];
            if !q.vars().contains(&head[0]) {
                return Err(format!("{head_name} does not occur in the query"));
            }
            let mut engine = Engine::new();
            engine.exec = exec_options(args)?;
            let (mut answers, ranked_run) =
                ranked_answers_counted(&engine, &db, &q, &head, Strategy::Auto)
                    .map_err(|e| e.to_string())?;
            if let Some(k) = k {
                answers.truncate(k);
            }
            if json_mode(args) {
                let rows: Vec<String> = answers
                    .iter()
                    .map(|a| {
                        let tuple: Vec<String> = a
                            .tuple
                            .iter()
                            .map(|v| format!("\"{}\"", telemetry::json::escape(&voc.value_name(*v))))
                            .collect();
                        format!(
                            "{{\"tuple\":[{}],\"probability\":{},\"std_error\":{},\"method\":\"{}\"}}",
                            tuple.join(","),
                            telemetry::metrics::format_f64(a.probability),
                            telemetry::metrics::format_f64(a.std_error),
                            telemetry::json::escape(&a.method.to_string())
                        )
                    })
                    .collect();
                println!(
                    "{{\"answers\":[{}],\"metrics\":{}}}",
                    rows.join(","),
                    ranked_run.metric_set().to_json()
                );
                return Ok(());
            }
            for a in &answers {
                let tuple: Vec<String> = a.tuple.iter().map(|v| voc.value_name(*v)).collect();
                println!(
                    "({})  p={:.6}{}  [{}]",
                    tuple.join(", "),
                    a.probability,
                    if a.std_error > 0.0 {
                        format!(" ±{:.6}", 1.96 * a.std_error)
                    } else {
                        String::new()
                    },
                    a.method
                );
            }
            let stats = engine.cache_stats();
            eprintln!(
                "planned once: {} classification(s), {} cache hit(s)",
                stats.classifications, stats.hits
            );
            Ok(())
        }
        "apply" => {
            let db_path = args.get(1).ok_or("missing database file")?;
            let delta_path = args.get(2).ok_or("missing delta file")?;
            let data = std::fs::read_to_string(db_path).map_err(|e| e.to_string())?;
            let script = std::fs::read_to_string(delta_path).map_err(|e| e.to_string())?;
            let mut voc = Vocabulary::new();
            let mut db = load_db(&mut voc, &data).map_err(|e| e.to_string())?;
            let batches = pdb::parse_delta_batches(&mut voc, &script).map_err(|e| e.to_string())?;
            db.voc = voc;
            let v0 = db.version();
            let ops: usize = batches.iter().map(pdb::DeltaBatch::len).sum();
            for batch in &batches {
                db.apply(batch);
            }
            eprintln!(
                "applied {} batch(es) / {ops} operation(s): version {v0} -> {}",
                batches.len(),
                db.version()
            );
            let dump = pdb::dump_db(&db);
            match args.iter().position(|a| a == "-o") {
                Some(i) => {
                    let out = args.get(i + 1).ok_or("-o needs a path")?;
                    std::fs::write(out, dump).map_err(|e| e.to_string())?;
                    eprintln!("wrote {out}");
                }
                None => print!("{dump}"),
            }
            Ok(())
        }
        "watch" => {
            let db_path = args.get(1).ok_or("missing database file")?;
            let text = args.get(2).ok_or("missing query")?;
            let delta_path = args.get(3).ok_or("missing delta file")?;
            let data = std::fs::read_to_string(db_path).map_err(|e| e.to_string())?;
            let script = std::fs::read_to_string(delta_path).map_err(|e| e.to_string())?;
            let mut voc = Vocabulary::new();
            let mut db = load_db(&mut voc, &data).map_err(|e| e.to_string())?;
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            let batches = pdb::parse_delta_batches(&mut voc, &script).map_err(|e| e.to_string())?;
            db.voc = voc;
            let mut engine = Engine::new();
            engine.exec = exec_options(args)?;
            let view = engine.subscribe(&db, &q).map_err(|e| e.to_string())?;
            let first = view.read(&db).map_err(|e| e.to_string())?;
            println!(
                "v{}  P(q) = {:.9}   [{}{}]",
                first.version,
                first.evaluation.probability,
                first.evaluation.method,
                if view.is_incremental() {
                    ", incremental"
                } else {
                    ", re-executing"
                }
            );
            for batch in &batches {
                db.apply(batch);
                let reading = view.read(&db).map_err(|e| e.to_string())?;
                print!(
                    "v{}  P(q) = {:.9}   ({} op(s)",
                    reading.version,
                    reading.evaluation.probability,
                    batch.len()
                );
                if let Some(c) = &reading.evaluation.incremental {
                    print!(
                        "; {} row(s) re-touched, {} avoided",
                        c.rows_retouched, c.rows_avoided
                    );
                }
                println!(")");
            }
            if let Some(c) = view.counters() {
                eprintln!(
                    "totals: {} refresh(es), {} rebuild(s), {} row(s) re-touched vs {} avoided, {} group(s) refolded",
                    c.incremental_refreshes,
                    c.full_rebuilds,
                    c.rows_retouched,
                    c.rows_avoided,
                    c.groups_refolded
                );
            }
            Ok(())
        }
        "serve" => {
            let db_path = args.get(1).ok_or("missing database file")?;
            let data = std::fs::read_to_string(db_path).map_err(|e| e.to_string())?;
            let mut voc = Vocabulary::new();
            let mut db = load_db(&mut voc, &data).map_err(|e| e.to_string())?;
            db.voc = voc;
            let mut opts = serve::ServeOptions {
                exec: exec_options(args)?,
                ..serve::ServeOptions::default()
            };
            if let Some(i) = args.iter().position(|a| a == "--addr") {
                opts.addr = args.get(i + 1).ok_or("--addr needs host:port")?.clone();
            }
            if let Some(i) = args.iter().position(|a| a == "--workers") {
                opts.workers = args
                    .get(i + 1)
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            if let Some(i) = args.iter().position(|a| a == "--mc-samples") {
                opts.mc_samples = args
                    .get(i + 1)
                    .ok_or("--mc-samples needs a value")?
                    .parse()
                    .map_err(|e| format!("--mc-samples: {e}"))?;
            }
            if let Some(i) = args.iter().position(|a| a == "--slow-ms") {
                opts.slow_ms = Some(
                    args.get(i + 1)
                        .ok_or("--slow-ms needs a value (milliseconds)")?
                        .parse()
                        .map_err(|e| format!("--slow-ms: {e}"))?,
                );
            }
            if let Some(i) = args.iter().position(|a| a == "--access-log") {
                opts.access_log_path = Some(
                    args.get(i + 1)
                        .ok_or("--access-log needs a file path")?
                        .clone(),
                );
            }
            let server = serve::Server::start(db, opts).map_err(|e| e.to_string())?;
            println!("serving on http://{}", server.addr());
            eprintln!(
                "endpoints: GET /health /stats /metrics /debug/requests; \
                 POST /eval /rank /apply /watch (Ctrl-C to stop)"
            );
            eprintln!(
                "observability: slow threshold {} ms (--slow-ms / ENGINE_SLOW_MS)",
                server.slow_ms()
            );
            // Serve until killed.
            loop {
                std::thread::park();
            }
        }
        other => unreachable!("run() accepts only listed commands, not {other:?}"),
    }
}
