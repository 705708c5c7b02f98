//! The server under test as a subprocess, and the closed-loop client that
//! drives it: one request out, one full response line in, then the next.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tgraph_serve::json::{self, Json};

/// The real `tgraph-serve` binary, killed and reaped when dropped.
pub struct ServerProcess {
    child: Child,
    pub addr: String,
    stderr_path: PathBuf,
    /// Held open so a later write to stdout cannot hit a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl ServerProcess {
    /// Spawns the server on a free port and waits for its `listening on`
    /// line (preloads are done by then). It inherits the driver's
    /// environment, which `main` has scrubbed of every `TGRAPH_*` variable,
    /// so the shipped defaults are what is measured.
    pub fn spawn(
        bin: &Path,
        data_dir: &Path,
        stderr_path: &Path,
        workers: usize,
        cache_mb: u64,
        preload: &str,
    ) -> Result<Self, String> {
        let stderr = std::fs::File::create(stderr_path).map_err(|e| format!("stderr file: {e}"))?;
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .args(["--workers", &workers.to_string()])
            .args([
                "--partitions",
                "4",
                "--max-inflight",
                "2",
                "--max-queue",
                "64",
            ])
            .args(["--cache-mb", &cache_mb.to_string()])
            .args(["--graphs", preload])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = ServerProcess {
            child,
            addr: String::new(),
            stderr_path: stderr_path.to_path_buf(),
            _stdout: stdout,
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => {
                server.addr = addr.to_string();
                Ok(server)
            }
            _ => Err(format!(
                "server did not report its address: {:?}; stderr: {}",
                line.trim(),
                server.stderr_text()
            )),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn stderr_text(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    /// A server that exited or panicked fails the run whatever it answered.
    pub fn health(&mut self) -> Result<(), String> {
        if let Ok(Some(status)) = self.child.try_wait() {
            return Err(format!("server exited early: {status}"));
        }
        if self.stderr_text().contains("panicked") {
            return Err("server stderr reports a panic".to_string());
        }
        Ok(())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The small fields ahead of `"result"` in a zoom response.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ZoomHeader {
    pub cache: String,
    pub total_us: u64,
    pub exec_us: u64,
    /// `optimizer.chosen`, present on `"repr":"auto"` requests.
    pub chosen: Option<String>,
}

/// One answered zoom: header, body hash, sizes and the client's clock.
#[derive(Clone, Debug)]
pub struct ZoomReply {
    pub header: ZoomHeader,
    pub result_hash: u64,
    pub response_bytes: usize,
    pub start: Instant,
    pub wall: Duration,
}

const RESULT_KEY: &[u8] = b",\"result\":";

/// Splits a zoom response line into its header and the verbatim `result`
/// bytes (the server always writes `result` last). `Err` carries the line's
/// head when the response is not `ok:true`.
pub fn split_zoom_response(line: &[u8]) -> Result<(ZoomHeader, &[u8]), String> {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let head = |l: &[u8]| String::from_utf8_lossy(&l[..l.len().min(300)]).into_owned();
    let at = line
        .windows(RESULT_KEY.len())
        .position(|w| w == RESULT_KEY)
        .ok_or_else(|| head(line))?;
    let mut header_text = String::from_utf8_lossy(&line[..at]).into_owned();
    header_text.push('}');
    let v = json::parse(&header_text).map_err(|e| format!("{e}: {}", head(line)))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(head(line));
    }
    let int = |k: &str| v.get(k).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
    let header = ZoomHeader {
        cache: v
            .get("cache")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        total_us: int("total_us"),
        exec_us: int("exec_us"),
        chosen: v
            .get("optimizer")
            .and_then(|o| o.get("chosen"))
            .and_then(Json::as_str)
            .map(str::to_string),
    };
    let body = &line[at + RESULT_KEY.len()..line.len().saturating_sub(1)];
    Ok((header, body))
}

/// One connection, used strictly request-then-response.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        // A hung server must fail the run, not the 180 s limit of the driver.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        let reader =
            BufReader::with_capacity(1 << 20, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
            line: Vec::with_capacity(1 << 20),
        })
    }

    /// Sends one request line (`request` ends with its newline, so the whole
    /// request leaves in one write) and reads the full response line.
    fn exchange(&mut self, request: &str) -> Result<(Instant, Duration), String> {
        debug_assert!(request.ends_with('\n'));
        let start = Instant::now();
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_until(b'\n', &mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 || self.line.last() != Some(&b'\n') {
            return Err("server closed the connection mid-response".to_string());
        }
        Ok((start, start.elapsed()))
    }

    pub fn zoom(&mut self, request: &str) -> Result<ZoomReply, String> {
        let (start, wall) = self.exchange(request)?;
        let (header, body) = split_zoom_response(&self.line)?;
        Ok(ZoomReply {
            header,
            result_hash: crate::util::hash_bytes(body),
            response_bytes: self.line.len(),
            start,
            wall,
        })
    }

    /// The verbatim `result` bytes of a zoom (for byte-for-byte comparisons).
    pub fn zoom_body(&mut self, request: &str) -> Result<Vec<u8>, String> {
        self.exchange(request)?;
        split_zoom_response(&self.line).map(|(_, body)| body.to_vec())
    }

    /// Any small request whose whole response is worth parsing (`stats`,
    /// `ingest`); `Err` unless it answers `ok:true`.
    pub fn call(&mut self, request: &str) -> Result<(Json, Duration), String> {
        let (_, wall) = self.exchange(request)?;
        let text = String::from_utf8_lossy(&self.line);
        let v = json::parse(text.trim()).map_err(|e| format!("{e}: {}", text.trim()))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(text.trim().to_string());
        }
        Ok((v, wall))
    }
}

/// `stats.<section>.<field>` as a number (0 when absent).
pub fn stat(stats: &Json, section: &str, field: &str) -> f64 {
    stats
        .get(section)
        .and_then(|s| s.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_header_from_verbatim_result() {
        let line = b"{\"ok\":true,\"cache\":\"hit\",\"fingerprint\":\"0x1\",\"total_us\":31,\"exec_us\":0,\"result\":{\"lifespan\":[0,2],\"vertices\":[]}}\n";
        let (h, body) = split_zoom_response(line).unwrap();
        assert_eq!(h.cache, "hit");
        assert_eq!((h.total_us, h.exec_us), (31, 0));
        assert_eq!(h.chosen, None);
        assert_eq!(body, b"{\"lifespan\":[0,2],\"vertices\":[]}");
    }

    #[test]
    fn reads_the_optimizer_choice_and_rejects_errors() {
        let line = b"{\"ok\":true,\"cache\":\"miss\",\"total_us\":9,\"exec_us\":5,\"optimizer\":{\"chosen\":\"og\"},\"result\":{}}";
        assert_eq!(
            split_zoom_response(line).unwrap().0.chosen.as_deref(),
            Some("og")
        );
        let refused = b"{\"ok\":false,\"error\":{\"kind\":\"queue_full\"}}\n";
        assert!(split_zoom_response(refused)
            .unwrap_err()
            .contains("queue_full"));
    }
}
