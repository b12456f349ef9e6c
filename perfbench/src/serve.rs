//! The server under test, in a process of its own.
//!
//! `perfbench serve` builds an empty `dod_server` through the public
//! `DodServer` builder, prints its address, and serves until its stdin
//! closes. [`ServerProc`] is the parent's side: it spawns that process,
//! reads the server's memory and CPU counters from `/proc`, and stops it
//! — always waiting until it has exited.

use dod_server::DodServer;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// How the parent configures the server. It always runs one worker per
/// core and no data directory (every session is volatile); everything
/// else keeps the builder's defaults (keep-alive limit, timeouts, queue
/// depth).
pub struct ServerConfig {
    pub trace_capacity: usize,
}

/// Entry point of `perfbench serve --trace-capacity N`.
pub fn main(argv: &[String]) -> i32 {
    let mut trace_capacity = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        match (flag.as_str(), value) {
            ("--trace-capacity", Some(v)) => trace_capacity = v.parse::<usize>().ok(),
            _ => {
                eprintln!("serve: bad argument {flag:?}");
                return 2;
            }
        }
    }
    let Some(trace_capacity) = trace_capacity else {
        eprintln!("serve: --trace-capacity is required");
        return 2;
    };
    let server = match DodServer::builder()
        .workers(crate::harness::cores())
        .trace_capacity(trace_capacity)
        .bind("127.0.0.1:0")
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            return 1;
        }
    };
    let handle = server.start();
    println!("{}", handle.addr());
    // The parent closes our stdin to stop us (or dies, which closes it too).
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    handle.shutdown();
    0
}

/// A running server process.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl ServerProc {
    pub fn spawn(cfg: &ServerConfig) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--trace-capacity")
            .arg(cfg.trace_capacity.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read
            .ok()
            .and_then(|_| line.trim().parse::<SocketAddr>().ok())
        {
            Some(addr) => addr,
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not report its address (got {line:?})"));
            }
        };
        Ok(ServerProc { child, stdin, addr })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn proc_file(&self, name: &str) -> Option<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id())).ok()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = self.proc_file("status")?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// User plus system CPU seconds of every thread so far.
    pub fn cpu_secs(&self) -> Option<f64> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in USER_HZ ticks (100
        // on Linux).
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) / 100.0)
    }

    /// Graceful stop: close stdin, then wait. A server that has not
    /// exited after 30 s is killed, and still waited for.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not stop within 30 s; killed".into());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// A scratch directory for the in-process WAL replay, inside the build
/// directory (`CARGO_TARGET_DIR`, else `target`), removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let dir = base
            .join("perfbench-data")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
