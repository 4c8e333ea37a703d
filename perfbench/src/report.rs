//! End-to-end metrics from the client-side records, failure accounting,
//! and the printed report.

use crate::json::{self, Field};
use crate::load::{Failure, LoadRun, Record};
use crate::stats::{mean, median, quantile, samples_needed};

/// Per-endpoint request accounting over the measured window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    pub attempted: usize,
    pub succeeded: usize,
    pub failed: usize,
    pub refused: usize,
}

impl Accounting {
    pub fn of(records: &[Record], path: &str) -> Accounting {
        let mut a = Accounting::default();
        for r in records.iter().filter(|r| r.measured && r.req.path == path) {
            a.attempted += 1;
            match &r.result {
                Ok(_) => a.succeeded += 1,
                Err(Failure::Failed(_)) => a.failed += 1,
                Err(Failure::Refused(_)) => a.refused += 1,
            }
        }
        a
    }
}

const ENDPOINTS: [&str; 4] = ["/eval", "/rank", "/apply", "/watch"];

/// Measured requests attempted, and of those failed or refused, over
/// every endpoint.
pub fn totals(records: &[Record]) -> (usize, usize) {
    ENDPOINTS.iter().fold((0, 0), |(a, b), p| {
        let acc = Accounting::of(records, p);
        (a + acc.attempted, b + acc.failed + acc.refused)
    })
}

/// One reported metric. `value` is `None` when unresolved (too few
/// samples for the percentile, or nothing to measure).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: Option<f64>, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        }
    }
}

fn latencies(run: &LoadRun, path: &str) -> Vec<f64> {
    run.records
        .iter()
        .filter(|r| r.measured && r.req.path == path)
        .map(Record::latency_ms)
        .collect()
}

fn percentile(name: &str, samples: &[f64], q: f64) -> Metric {
    let value = quantile(samples, q);
    if value.is_none() {
        eprintln!(
            "note: {name} unresolved: {} samples, {} needed",
            samples.len(),
            samples_needed(q)
        );
    }
    Metric::new(name, "ms", value, samples.len())
}

/// `/apply` first byte sent → first watch reading at or past the applied
/// version received. An apply that failed, or whose version never
/// reached the watcher, is a miss.
fn visible_ms(run: &LoadRun) -> Vec<f64> {
    run.records
        .iter()
        .filter(|r| r.measured && r.req.path == "/apply")
        .map(|r| {
            let version = r
                .result
                .as_ref()
                .ok()
                .and_then(|b| json::parse(b).ok()?.u64("version"));
            version
                .and_then(|v| {
                    run.readings
                        .iter()
                        .find(|x| x.version >= v && x.at >= r.start)
                })
                .map(|x| (x.at - r.start).as_secs_f64() * 1e3)
                .unwrap_or(f64::INFINITY)
        })
        .collect()
}

/// Every end-to-end metric that applies to the workload, computed from
/// the client-side records.
pub fn end_to_end(run: &LoadRun, setup_s: &[f64], peak_rss_mb: Option<f64>) -> Vec<Metric> {
    let mut out = vec![Metric::new("setup_s", "s", median(setup_s), setup_s.len())];
    let eval = latencies(run, "/eval");
    out.push(percentile("eval_p50_ms", &eval, 0.50));
    out.push(percentile("eval_p90_ms", &eval, 0.90));
    out.push(percentile("eval_p95_ms", &eval, 0.95));
    out.push(percentile("eval_p99_ms", &eval, 0.99));
    // Each workload mixes request kinds with fixed shares, so its latency
    // distribution has several modes and a percentile near the edge of one
    // jumps between them from run to run; the mean weighs each kind by its
    // share and stays put. A failure makes it a miss, as in a percentile.
    out.push(Metric::new("eval_mean_ms", "ms", mean(&eval), eval.len()));
    let rank = latencies(run, "/rank");
    if !rank.is_empty() {
        out.push(percentile("rank_p50_ms", &rank, 0.50));
        out.push(percentile("rank_p95_ms", &rank, 0.95));
    }
    let apply = latencies(run, "/apply");
    if !apply.is_empty() {
        out.push(percentile("apply_p50_ms", &apply, 0.50));
        out.push(percentile("apply_p90_ms", &apply, 0.90));
        let vis = visible_ms(run);
        out.push(percentile("visible_p50_ms", &vis, 0.50));
        out.push(percentile("visible_p90_ms", &vis, 0.90));
    }
    let reads = run
        .records
        .iter()
        .filter(|r| r.measured && r.result.is_ok())
        .filter(|r| r.req.path == "/eval" || r.req.path == "/rank")
        .count();
    out.push(Metric::new(
        "reads_per_s",
        "1/s",
        Some(reads as f64 / run.measure_secs),
        reads,
    ));
    out.push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb, 1));
    let (attempted, bad) = totals(&run.records);
    out.push(Metric::new(
        "error_rate",
        "ratio",
        (attempted > 0).then(|| bad as f64 / attempted as f64),
        attempted,
    ));
    let rel: Vec<f64> = run
        .records
        .iter()
        .filter(|r| r.measured && r.req.path == "/eval")
        .filter_map(|r| json::parse(r.result.as_ref().ok()?).ok())
        .filter_map(|d| Some((d.f64("std_error")?, d.f64("probability")?)))
        .filter(|&(se, p)| se > 0.0 && p > 0.0)
        .map(|(se, p)| se / p)
        .collect();
    if !rel.is_empty() {
        out.push(Metric::new(
            "mc_rel_stderr",
            "ratio",
            median(&rel),
            rel.len(),
        ));
    }
    out
}

pub fn print_metric(m: &Metric) {
    match m.value {
        Some(v) if v.is_finite() => println!(
            "metric {:<34} {:>14.6} {:<6} n={}",
            m.name, v, m.unit, m.samples
        ),
        Some(_) => println!(
            "metric {:<34} {:>14} {:<6} n={} (failures reach this percentile)",
            m.name, "miss", m.unit, m.samples
        ),
        None => println!(
            "metric {:<34} {:>14} {:<6} n={}",
            m.name, "unresolved", m.unit, m.samples
        ),
    }
}

pub fn print_accounting(records: &[Record]) {
    for p in ENDPOINTS {
        let a = Accounting::of(records, p);
        if a.attempted > 0 {
            println!(
                "requests {p:<7} attempted={} succeeded={} failed={} refused={}",
                a.attempted, a.succeeded, a.failed, a.refused
            );
        }
    }
    if let Some(Err(f)) = records.iter().map(|r| &r.result).find(|r| r.is_err()) {
        println!("first failure: {}", f.reason());
    }
}

/// A JSON number with all its digits; non-finite or missing values are
/// `null`, which the result line's reader refuses.
pub fn json_num(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:?}"),
        _ => "null".to_string(),
    }
}
