//! A `pmt serve` daemon driven over real sockets: boot, raw HTTP/1.1
//! exchanges, `/metrics` scrapes, peak memory, and a stop that always
//! reaps the process.

use pmt_api::{HealthResponse, MetricsResponse, ProfilesResponse};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One HTTP reply.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// One request on its own connection (the daemon closes every
/// connection after its reply).
pub fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let raw = String::from_utf8(raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated reply"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}

fn get_json<T: serde::Deserialize>(addr: SocketAddr, path: &str) -> io::Result<T> {
    let reply = exchange(addr, "GET", path, "")?;
    if reply.status != 200 {
        return Err(io::Error::other(format!("GET {path}: {}", reply.status)));
    }
    serde_json::from_str(&reply.body).map_err(|e| io::Error::other(format!("GET {path}: {e}")))
}

/// A running daemon. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start `pmt serve` on a free port with `profile_files` registered,
    /// and return once `/healthz` and `/v1/profiles` list every name in
    /// `names`.
    pub fn boot(pmt: &Path, profile_files: &[&Path], names: &[&str]) -> io::Result<Daemon> {
        let mut cmd = Command::new(pmt);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        for file in profile_files {
            cmd.arg("--profile-file").arg(file);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("pmt serve listening on http://")
                .and_then(|a| a.parse().ok())
        });
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match addr {
            Some(addr) => daemon.addr = addr,
            None => {
                return Err(io::Error::other(format!(
                    "daemon did not report its address: {line:?}"
                )))
            }
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let health: io::Result<HealthResponse> = get_json(daemon.addr, "/healthz");
            if let Ok(h) = health {
                if h.status == "ok" && h.profiles == names.len() {
                    let listed: ProfilesResponse = get_json(daemon.addr, "/v1/profiles")?;
                    if names
                        .iter()
                        .all(|n| listed.profiles.iter().any(|p| p.name == *n))
                    {
                        return Ok(daemon);
                    }
                }
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn metrics(&self) -> io::Result<MetricsResponse> {
        get_json(self.addr, "/metrics")
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::sys::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// CPU seconds the daemon has used so far, all threads.
    pub fn cpu_s(&self) -> f64 {
        crate::sys::proc_cpu_s(&format!("/proc/{}/stat", self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
