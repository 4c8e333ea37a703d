//! Closed-loop load: each connection sends its next request only after
//! the previous response has been read completely (`serve`'s callers
//! block on their replies). Every request is recorded with its bytes,
//! timestamps and outcome; failures are kept, never dropped.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::gen::{self, Req};
use crate::json::{self, Field};
use crate::wire::{raw_request, Conn};

/// Why a request produced no answer.
#[derive(Clone, Debug)]
pub enum Failure {
    /// The connection could not be opened.
    Refused(String),
    /// A non-200 status, an I/O error or an unreadable response.
    Failed(String),
}

impl Failure {
    pub fn reason(&self) -> &str {
        match self {
            Failure::Refused(r) | Failure::Failed(r) => r,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Record {
    pub req: Req,
    pub start: Instant,
    pub end: Instant,
    /// The 200 response body, or why there was none.
    pub result: Result<String, Failure>,
    /// Started inside the measured window (not warm-up).
    pub measured: bool,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        match self.result {
            Ok(_) => (self.end - self.start).as_secs_f64() * 1e3,
            Err(_) => f64::INFINITY,
        }
    }
}

/// One `/watch` reading, stamped when its chunk arrived.
#[derive(Clone, Debug)]
pub struct Reading {
    pub version: u64,
    pub probability: f64,
    pub at: Instant,
}

pub struct LoadRun {
    /// Every request of every connection (watch streams included), in
    /// start order.
    pub records: Vec<Record>,
    pub readings: Vec<Reading>,
    pub measure_secs: f64,
}

/// Warm-up before the measured window: connections open, hot keys reach
/// the caches, first-touch page faults are paid.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Send one request on `conn` (opening it first if needed) and record
/// the outcome. A failed connection is dropped so the next request
/// reconnects.
pub fn send(conn: &mut Option<Conn>, addr: SocketAddr, req: Req) -> Record {
    let raw = raw_request("POST", req.path, &req.body);
    if conn.is_none() {
        match Conn::connect(addr) {
            Ok(c) => *conn = Some(c),
            Err(e) => {
                let now = Instant::now();
                return Record {
                    req,
                    start: now,
                    end: now,
                    result: Err(Failure::Refused(e.to_string())),
                    measured: false,
                };
            }
        }
    }
    let before = Instant::now();
    let c = conn.as_mut().expect("connected above");
    let (start, end, result) = match c.exchange(&raw) {
        Ok(ex) if ex.status == 200 => (ex.start, ex.end, Ok(ex.body)),
        Ok(ex) => (
            ex.start,
            ex.end,
            Err(Failure::Failed(format!(
                "status {}: {}",
                ex.status, ex.body
            ))),
        ),
        Err(e) => (before, Instant::now(), Err(Failure::Failed(e.to_string()))),
    };
    if result.is_err() {
        *conn = None;
    }
    Record {
        req,
        start,
        end,
        result,
        measured: false,
    }
}

/// Drive one connection closed-loop until `until`.
fn drive(
    addr: SocketAddr,
    mut next: impl FnMut() -> Req,
    measure_start: Instant,
    until: Instant,
) -> Vec<Record> {
    let mut conn = None;
    let mut out = Vec::new();
    while Instant::now() < until {
        let mut rec = send(&mut conn, addr, next());
        rec.measured = rec.start >= measure_start;
        if matches!(rec.result, Err(Failure::Refused(_))) {
            std::thread::sleep(Duration::from_millis(5));
        }
        out.push(rec);
    }
    out
}

fn finish(mut records: Vec<Record>, readings: Vec<Reading>, secs: f64) -> LoadRun {
    records.sort_by_key(|r| r.start);
    LoadRun {
        records,
        readings,
        measure_secs: secs,
    }
}

/// Two read-only connections, each with its own request stream.
pub fn run_readers(
    addr: SocketAddr,
    secs: f64,
    streams: Vec<Box<dyn FnMut() -> Req + Send>>,
) -> LoadRun {
    let measure_start = Instant::now() + WARMUP;
    let until = measure_start + Duration::from_secs_f64(secs);
    let records = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|next| s.spawn(move || drive(addr, next, measure_start, until)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    finish(records, Vec::new(), secs)
}

/// bushy-churn: connection A cycles (one `/apply`, then three passes of
/// four reads); connection B holds a `/watch` stream on the four-atom
/// query and stamps each reading.
pub fn run_churn(addr: SocketAddr, secs: f64, seed: u64) -> LoadRun {
    let stop = AtomicBool::new(false);
    let slot: Mutex<Option<TcpStream>> = Mutex::new(None);
    let readings: Mutex<Vec<Reading>> = Mutex::default();
    let (mut records, watch_records) = std::thread::scope(|s| {
        let watcher = s.spawn(|| watch_loop(addr, &stop, &slot, &readings));
        // Start writing once the watcher holds its first reading.
        let wait_until = Instant::now() + Duration::from_secs(60);
        while readings.lock().expect("readings").is_empty() && Instant::now() < wait_until {
            std::thread::sleep(Duration::from_millis(2));
        }
        let measure_start = Instant::now() + WARMUP;
        let until = measure_start + Duration::from_secs_f64(secs);
        let mut deltas = gen::BushyDeltas::new(seed);
        let mut queue: std::collections::VecDeque<Req> = Default::default();
        let next = || {
            if queue.is_empty() {
                queue.push_back(gen::apply_req(&deltas.next_script()));
                for _ in 0..3 {
                    queue.extend(gen::bushy_pass());
                }
            }
            queue.pop_front().expect("refilled above")
        };
        let records = drive(addr, next, measure_start, until);
        // Let the watcher deliver the last published version, then cut
        // its stream.
        let last = records
            .iter()
            .filter(|r| r.req.path == "/apply")
            .filter_map(|r| r.result.as_ref().ok())
            .filter_map(|b| json::parse(b).ok()?.u64("version"))
            .max()
            .unwrap_or(0);
        let wait_until = Instant::now() + Duration::from_secs(10);
        while Instant::now() < wait_until {
            let seen = readings.lock().expect("readings").last().map(|r| r.version);
            if seen.is_some_and(|v| v >= last) {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::SeqCst);
        if let Some(sock) = slot.lock().expect("watch slot").take() {
            let _ = sock.shutdown(std::net::Shutdown::Both);
        }
        let mut watch_records = watcher.join().expect("watch thread panicked");
        for r in &mut watch_records {
            r.measured = r.start >= measure_start;
        }
        (records, watch_records)
    });
    records.extend(watch_records);
    let readings = readings.into_inner().expect("readings");
    finish(records, readings, secs)
}

/// Hold `/watch` streams until `stop`; each stream is one request record
/// (a stream cut by the client at the end counts as succeeded).
fn watch_loop(
    addr: SocketAddr,
    stop: &AtomicBool,
    slot: &Mutex<Option<TcpStream>>,
    readings: &Mutex<Vec<Reading>>,
) -> Vec<Record> {
    let req = gen::watch_req(gen::BUSHY_FOUR_ATOM, 1000, 60_000);
    let raw = raw_request("POST", req.path, &req.body);
    let mut out = Vec::new();
    loop {
        let start = Instant::now();
        let mut conn = match Conn::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                if stop.load(Ordering::SeqCst) {
                    return out;
                }
                out.push(watch_record(
                    req.clone(),
                    start,
                    Err(Failure::Refused(e.to_string())),
                ));
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        {
            let mut s = slot.lock().expect("watch slot");
            if stop.load(Ordering::SeqCst) {
                return out;
            }
            *s = conn.shutdown_handle().ok();
        }
        let result = stream(&mut conn, &raw, readings).or_else(|e| {
            if stop.load(Ordering::SeqCst) {
                Ok(())
            } else {
                Err(e)
            }
        });
        out.push(watch_record(
            req.clone(),
            start,
            result.map(|()| String::new()),
        ));
        if stop.load(Ordering::SeqCst) {
            return out;
        }
    }
}

fn stream(conn: &mut Conn, raw: &[u8], readings: &Mutex<Vec<Reading>>) -> Result<(), Failure> {
    let fail = |e: std::io::Error| Failure::Failed(e.to_string());
    if let Err((status, body)) = conn.begin_stream(raw).map_err(fail)? {
        return Err(Failure::Failed(format!("status {status}: {body}")));
    }
    while let Some(chunk) = conn.next_chunk().map_err(fail)? {
        let at = Instant::now();
        let doc = json::parse(chunk.trim()).map_err(Failure::Failed)?;
        let (Some(version), Some(probability)) = (doc.u64("version"), doc.f64("probability"))
        else {
            return Err(Failure::Failed(format!("bad watch reading {chunk:?}")));
        };
        readings.lock().expect("readings").push(Reading {
            version,
            probability,
            at,
        });
    }
    Ok(())
}

fn watch_record(req: Req, start: Instant, result: Result<String, Failure>) -> Record {
    Record {
        req,
        start,
        end: Instant::now(),
        result,
        measured: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Accounting;

    fn tiny_server() -> serve::Server {
        let mut voc = cq::Vocabulary::new();
        let mut db = pdb::load_db(&mut voc, "R(1) @ 0.5\nS(1, 2) @ 0.25\n").unwrap();
        db.voc = voc;
        serve::Server::start(
            db,
            serve::ServeOptions {
                workers: 2,
                ..serve::ServeOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn malformed_request_is_counted_failed_not_dropped() {
        let server = tiny_server();
        let addr = server.addr();
        let mut conn = None;
        let good = send(&mut conn, addr, gen::eval_req("R(x), S(x,y)"));
        let bad = send(
            &mut conn,
            addr,
            Req {
                path: "/eval",
                body: "{\"query\": ".into(),
            },
        );
        let again = send(&mut conn, addr, gen::eval_req("R(x), S(x,y)"));
        let mut records = vec![good, bad, again];
        for r in &mut records {
            r.measured = true;
        }
        assert!(records[0].result.is_ok() && records[2].result.is_ok());
        assert!(matches!(records[1].result, Err(Failure::Failed(_))));
        let acc = Accounting::of(&records, "/eval");
        assert_eq!((acc.attempted, acc.succeeded, acc.failed), (3, 2, 1));
        let lat: Vec<f64> = records.iter().map(Record::latency_ms).collect();
        assert!(
            lat[1].is_infinite(),
            "a failure enters the percentiles as a miss"
        );
        assert_eq!(lat.len(), 3);
    }

    #[test]
    fn refused_connections_are_counted() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut conn = None;
        let mut rec = send(&mut conn, addr, gen::eval_req("R(x)"));
        rec.measured = true;
        assert!(matches!(rec.result, Err(Failure::Refused(_))));
        let acc = Accounting::of(&[rec], "/eval");
        assert_eq!((acc.attempted, acc.refused), (1, 1));
    }
}
