//! perfbench — the repository's benchmark of the `probdb serve` query
//! service. See `perfbench/README.md` for the workloads, the metrics and
//! how to run it; `perfbench/run.py` builds the server and this program
//! and passes the server binary with `--server`.
//!
//! ```text
//! perfbench --server <probdb> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and the metrics `BENCHMARK.json` lists: its
//! `end_to_end` metrics with `--trace 0`, its `per_layer` metrics with
//! `--trace 1`. Every metric, including those that apply to only some
//! workloads, is printed by name above that line.

mod check;
mod gen;
mod json;
mod load;
mod report;
mod stats;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Field;
use report::{json_num, print_accounting, print_metric, Metric};
use wire::ServerProc;

/// Server start-ups per run (`setup_s` is their median): at least
/// `MIN_SETUPS`, and more while they fit in `SETUP_BUDGET`, so a set-up of
/// a few milliseconds is still a median of many.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 41;
const SETUP_BUDGET: std::time::Duration = std::time::Duration::from_millis(3000);

const WORKLOADS: [&str; 3] = ["star-read", "bushy-churn", "hard-mix"];

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Generated databases and span files, inside the checkout.
const OUT_DIR: &str = ".bench_out";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        server: get("--server")?.into(),
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// The metric names and units `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    doc.arr(key)
        .ok_or(format!("BENCHMARK.json has no {key}"))?
        .iter()
        .map(|m| {
            Ok((
                m.str("name").ok_or("unnamed metric")?.into(),
                m.str("unit").unwrap_or("").into(),
            ))
        })
        .collect()
}

/// The revision of the checkout, when it is a git work tree.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    match head.trim().strip_prefix("ref: ") {
        None => head.trim().to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| format!("unknown ({r})")),
    }
}

/// `(all, steal)` CPU jiffies from `/proc/stat`, where available.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let gated_e2e = declared("end_to_end")?;
    let gated_layer = declared("per_layer")?;
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    let (db_text, mc_samples, flags) = match args.workload.as_str() {
        "star-read" => (gen::star_db(args.seed), 100_000, Vec::new()),
        "bushy-churn" => (gen::bushy_db(args.seed), 100_000, Vec::new()),
        _ => (
            gen::hard_db(args.seed),
            gen::HARD_MC_SAMPLES,
            vec!["--mc-samples".to_string(), gen::HARD_MC_SAMPLES.to_string()],
        ),
    };
    // One file per workload, overwritten by each run.
    let db_path = out.join(format!("{}.db.txt", args.workload));
    std::fs::write(&db_path, &db_text).map_err(|e| format!("{}: {e}", db_path.display()))?;

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "hardware_threads {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("git_revision {}", git_revision());
    println!("server probdb serve <db> {}", flags.join(" "));
    println!(
        "load closed-loop, 2 connections, warm-up {:?}",
        load::WARMUP
    );

    let mut setup_s = Vec::new();
    let mut server = None;
    let setups_start = std::time::Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setups_start.elapsed() < SETUP_BUDGET)
    {
        drop(server.take());
        let s = ServerProc::spawn(&args.server, &db_path, &flags)
            .map_err(|e| format!("starting {}: {e}", args.server.display()))?;
        setup_s.push(s.setup_s);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr;
    let cpu_before = cpu_jiffies();
    let run = match args.workload.as_str() {
        "star-read" => {
            let streams: Vec<Box<dyn FnMut() -> gen::Req + Send>> = (0..2)
                .map(|c| {
                    let mut s = gen::StarStream::new(args.seed, c);
                    Box::new(move || s.next_req()) as Box<dyn FnMut() -> gen::Req + Send>
                })
                .collect();
            load::run_readers(addr, args.seconds, streams)
        }
        "bushy-churn" => load::run_churn(addr, args.seconds, args.seed),
        _ => {
            let windows =
                std::sync::Arc::new(std::sync::Mutex::new(gen::HardWindows::new(args.seed)));
            let streams: Vec<Box<dyn FnMut() -> gen::Req + Send>> = (0..2)
                .map(|_| {
                    let w = std::sync::Arc::clone(&windows);
                    Box::new(move || w.lock().expect("windows").next_req())
                        as Box<dyn FnMut() -> gen::Req + Send>
                })
                .collect();
            load::run_readers(addr, args.seconds, streams)
        }
    };
    if let (Some((total0, steal0)), Some((total1, steal1))) = (cpu_before, cpu_jiffies()) {
        // Time the hypervisor ran other guests while this VM wanted the
        // CPU: the share of the run's noise that comes from outside it.
        let total = total1.saturating_sub(total0).max(1);
        println!(
            "cpu steal during load {:.1}%",
            100.0 * steal1.saturating_sub(steal0) as f64 / total as f64
        );
    }
    let peak_rss = server.peak_rss_mb();
    drop(server);

    let mut metrics = report::end_to_end(&run, &setup_s, peak_rss);
    print_accounting(&run.records);

    let check = check::check(&db_text, mc_samples, &run, args.seed);
    println!(
        "correctness: {} (version, request) pairs, {} applies replayed, {} estimates checked against exact; {} mismatches",
        check.pairs,
        check.applies,
        check.mc_exact_checked,
        check.mismatches.len()
    );
    let checked = check.pairs > 0;
    let mut mismatches = check.mismatches;

    if args.trace {
        let tr = trace::traced_replay(&args.workload, &db_text, mc_samples, &run);
        println!(
            "traced replay: {} spans; {} replay mismatches",
            tr.spans.len(),
            tr.mismatches.len()
        );
        mismatches.extend(tr.mismatches);
        let spans_path = out.join(format!("spans-{}.jsonl", args.workload));
        std::fs::write(&spans_path, trace::spans_json(&tr.spans))
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        metrics.extend(tr.metrics);
    }
    for m in mismatches.iter().take(10) {
        println!("MISMATCH {m}");
    }
    for m in &metrics {
        print_metric(m);
    }

    let (attempted, failed) = report::totals(&run.records);
    if attempted == 0 {
        return Err("no request was attempted in the measured window".into());
    }
    let gated = if args.trace { &gated_layer } else { &gated_e2e };
    let fields: Vec<String> = gated
        .iter()
        .map(|(name, unit)| {
            let value = metrics
                .iter()
                .find(|m: &&Metric| &m.name == name)
                .and_then(|m| m.value);
            if value.is_none() {
                eprintln!("perfbench: {name} has no value on {}", args.workload);
            }
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        mismatches.is_empty() && checked,
        attempted,
        failed,
        fields.join(",")
    );
    Ok(())
}
