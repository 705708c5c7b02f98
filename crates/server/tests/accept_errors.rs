//! Regression test for the accept-loop bugfix: a transient `EMFILE` from
//! `accept(2)` must not tear the server down. Before the fix, `serve()`
//! returned on any non-`WouldBlock` accept error without even setting the
//! shutdown flag, so one fd-exhaustion blip killed the listener and leaked
//! every thread serving a connection.
//!
//! The test provokes a real `EMFILE`: it pre-creates a client socket fd
//! while the fd rlimit is high, lowers `RLIMIT_NOFILE` to the next unused
//! fd number, then `connect(2)`s on the pre-made fd (which needs no new
//! fd). The kernel completes the TCP handshake via the listen backlog, but
//! the server's `accept` has no fd to give the connection and fails with
//! `EMFILE`. After restoring the limit, the same server must accept new
//! connections and report `accept_errors >= 1`.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::fd::FromRawFd;
use std::sync::Arc;
use std::time::Duration;
use tgraph_serve::{Server, ServerConfig};

#[repr(C)]
#[derive(Clone, Copy)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

const RLIMIT_NOFILE: i32 = 7;
const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    fn close(fd: i32) -> i32;
}

#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

fn nofile_limit() -> RLimit {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim
}

fn set_nofile_cur(lim: RLimit, cur: u64) {
    let lowered = RLimit {
        rlim_cur: cur,
        rlim_max: lim.rlim_max,
    };
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lowered) }, 0);
}

fn raw_tcp_socket() -> i32 {
    let fd = unsafe { socket(AF_INET, SOCK_STREAM, 0) };
    assert!(fd >= 0, "socket() failed");
    fd
}

/// Connects a pre-created raw fd to `addr`; blocking connect succeeds as
/// soon as the kernel queues the connection in the listen backlog, even if
/// the server cannot `accept` it yet.
fn connect_raw(fd: i32, addr: std::net::SocketAddr) {
    let ip = match addr.ip() {
        std::net::IpAddr::V4(v4) => u32::from(v4).to_be(),
        other => panic!("expected v4 loopback, got {other}"),
    };
    let sa = SockAddrIn {
        sin_family: AF_INET as u16,
        sin_port: addr.port().to_be(),
        sin_addr: ip,
        sin_zero: [0; 8],
    };
    let rc = unsafe { connect(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) };
    assert_eq!(
        rc,
        0,
        "raw connect failed: {}",
        std::io::Error::last_os_error()
    );
}

fn ping(stream: &mut TcpStream) -> String {
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(b"{\"op\":\"ping\"}\n").expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("receive");
    line.trim_end().to_string()
}

fn field_i64(response: &str, path: &[&str]) -> i64 {
    let mut v = &tgraph_serve::json::parse(response).expect("response json");
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("field {key} in {response}"));
    }
    v.as_i64().unwrap_or_else(|| panic!("{path:?} not an int"))
}

/// The fd rlimit is process-wide state: this file holds one `#[test]` so
/// nothing else in the binary runs while the limit is lowered.
#[test]
fn emfile_on_accept_is_survived() {
    let server = Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: std::env::temp_dir().join("tgraph-accept-errors"),
            workers: 1,
            partitions: 1,
            max_inflight: 1,
            max_queue: 4,
            cache_bytes: 1 << 20,
        })
        .expect("bind"),
    );
    let addr = server.local_addr().expect("addr");
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };

    // Sanity roundtrip so the accept path is demonstrably live first.
    let mut warm = TcpStream::connect(addr).expect("warm connect");
    assert_eq!(ping(&mut warm), r#"{"ok":true,"pong":true}"#);

    let saved = nofile_limit();
    // The client socket that will trigger EMFILE, created while fds
    // are still plentiful.
    let trigger_fd = raw_tcp_socket();
    // The next unused fd number becomes the lowered cap, so any
    // subsequent fd allocation (the server's accept) fails.
    let probe = raw_tcp_socket();
    let cap = probe as u64;
    unsafe { close(probe) };

    set_nofile_cur(saved, cap);
    connect_raw(trigger_fd, addr);
    // Give the server time to hit accept() -> EMFILE and retry.
    std::thread::sleep(Duration::from_millis(80));
    set_nofile_cur(saved, saved.rlim_cur);

    // The handshake completed in the backlog; once fds are available
    // again the server accepts it and serves it normally.
    let mut survivor = unsafe { TcpStream::from_raw_fd(trigger_fd) };
    assert_eq!(
        ping(&mut survivor),
        r#"{"ok":true,"pong":true}"#,
        "pre-EMFILE connection served after recovery"
    );

    // And brand-new connections work too: the listener survived.
    let mut fresh = TcpStream::connect(addr).expect("post-EMFILE connect");
    stream_stats_and_shutdown(&mut fresh);
    handle.join().expect("serve thread").expect("serve loop");
}

fn stream_stats_and_shutdown(stream: &mut TcpStream) {
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut roundtrip = |line: &str| -> String {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("receive");
        response.trim_end().to_string()
    };
    let stats = roundtrip(r#"{"op":"stats"}"#);
    assert!(
        field_i64(&stats, &["server", "accept_errors"]) >= 1,
        "EMFILE counted: {stats}"
    );
    let bye = roundtrip(r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"shutting_down\":true"), "{bye}");
}
