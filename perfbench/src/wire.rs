//! The client side of the wire: a timed keep-alive HTTP/1.1 connection,
//! a `/watch` stream reader that timestamps each chunk as it arrives, and
//! the server child process (spawn, set-up time, peak RSS, stop).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Deployment variables CI exports that would change the served
/// configuration; the server always starts without them.
const STRIPPED_ENV: [&str; 5] = [
    "ENGINE_THREADS",
    "ENGINE_SHARDS",
    "ENGINE_TRACE",
    "ENGINE_RESULT_CACHE",
    "ENGINE_SLOW_MS",
];

/// The exact bytes the client sends for one request.
pub fn raw_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: probdb\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One timed exchange: `start` is taken just before the first request
/// byte is written, `end` just after the last response byte is read.
#[derive(Clone, Debug)]
pub struct Exchange {
    pub start: Instant,
    pub end: Instant,
    pub status: u16,
    pub body: String,
}

/// Response head: status plus how the body is framed.
struct Head {
    status: u16,
    content_length: usize,
    chunked: bool,
}

pub struct Conn {
    wr: TcpStream,
    rd: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let wr = TcpStream::connect(addr)?;
        wr.set_nodelay(true)?;
        let rd = BufReader::new(wr.try_clone()?);
        Ok(Conn { wr, rd })
    }

    /// A handle that can shut the socket down from another thread.
    pub fn shutdown_handle(&self) -> io::Result<TcpStream> {
        self.wr.try_clone()
    }

    /// Send `raw` and read the complete response.
    pub fn exchange(&mut self, raw: &[u8]) -> io::Result<Exchange> {
        let start = Instant::now();
        self.wr.write_all(raw)?;
        let head = self.read_head()?;
        let body = if head.chunked {
            let mut out = String::new();
            while let Some(chunk) = self.next_chunk()? {
                out.push_str(&chunk);
            }
            out
        } else {
            self.read_body(head.content_length)?
        };
        Ok(Exchange {
            start,
            end: Instant::now(),
            status: head.status,
            body,
        })
    }

    /// Send a `/watch` request and read its head. `Ok(Err(body))` is a
    /// non-streaming (error) response.
    pub fn begin_stream(&mut self, raw: &[u8]) -> io::Result<Result<(), (u16, String)>> {
        self.wr.write_all(raw)?;
        let head = self.read_head()?;
        if head.status == 200 && head.chunked {
            Ok(Ok(()))
        } else {
            let body = if head.chunked {
                String::new()
            } else {
                self.read_body(head.content_length)?
            };
            Ok(Err((head.status, body)))
        }
    }

    /// The next chunk of a chunked body; `None` after the terminal chunk.
    pub fn next_chunk(&mut self) -> io::Result<Option<String>> {
        let mut size_line = String::new();
        if self.rd.read_line(&mut size_line)? == 0 {
            return Err(eof());
        }
        let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad("chunk size"))?;
        let mut data = vec![0u8; size + 2];
        self.rd.read_exact(&mut data)?;
        if size == 0 {
            return Ok(None);
        }
        data.truncate(size);
        String::from_utf8(data)
            .map(Some)
            .map_err(|_| bad("chunk utf-8"))
    }

    fn read_head(&mut self) -> io::Result<Head> {
        let mut line = String::new();
        if self.rd.read_line(&mut line)? == 0 {
            return Err(eof());
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut head = Head {
            status,
            content_length: 0,
            chunked: false,
        };
        loop {
            line.clear();
            if self.rd.read_line(&mut line)? == 0 {
                return Err(eof());
            }
            let h = line.trim_end();
            if h.is_empty() {
                return Ok(head);
            }
            if let Some((name, value)) = h.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    head.content_length = value.parse().map_err(|_| bad("content-length"))?;
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    head.chunked = value.eq_ignore_ascii_case("chunked");
                }
            }
        }
    }

    fn read_body(&mut self, len: usize) -> io::Result<String> {
        let mut buf = vec![0u8; len];
        self.rd.read_exact(&mut buf)?;
        String::from_utf8(buf).map_err(|_| bad("body utf-8"))
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what}"))
}

fn eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed")
}

/// The `probdb serve` child process. Dropping it kills and reaps it.
pub struct ServerProc {
    child: Child,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn to the first `/health` 200.
    pub setup_s: f64,
}

impl ServerProc {
    /// Start `probdb serve <db> <flags>` with the program's defaults
    /// (ephemeral loopback port) and wait until `/health` answers 200.
    pub fn spawn(bin: &Path, db: &Path, flags: &[String]) -> io::Result<ServerProc> {
        let start = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("serve").arg(db).args(flags);
        for var in STRIPPED_ENV {
            cmd.env_remove(var);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let addr = match read_addr(&mut stdout) {
            Ok(a) => a,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut proc = ServerProc {
            child,
            _stdout: stdout,
            addr,
            setup_s: 0.0,
        };
        let deadline = start + Duration::from_secs(120);
        loop {
            let healthy = Conn::connect(addr)
                .and_then(|mut c| c.exchange(&raw_request("GET", "/health", "")))
                .map(|ex| ex.status == 200)
                .unwrap_or(false);
            if healthy {
                proc.setup_s = start.elapsed().as_secs_f64();
                return Ok(proc);
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no /health 200"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB, from `/proc`.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let kb: f64 = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }
}

fn read_addr(stdout: &mut BufReader<ChildStdout>) -> io::Result<SocketAddr> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server exited before announcing its address",
            ));
        }
        if let Some(rest) = line.trim().strip_prefix("serving on http://") {
            return rest
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad address line"));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
