//! A minimal HTTP/1.1 keep-alive client for the load generator.
//!
//! One [`Client`] is one closed-loop user: it holds at most one
//! connection, sends a request only after the previous reply is fully
//! read, and honours `Connection: close` — the server ends every
//! keep-alive connection after `keep_alive_requests` replies, and the
//! next call then opens a fresh connection and counts a reconnect. A
//! failed reconnect is an ordinary transport error of that call.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a reply may take before the call fails. Far above any
/// per-request time of the workloads; it only keeps a wedged server
/// from hanging the benchmark.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One complete reply.
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Request bytes written, head and body.
    pub bytes_out: usize,
    /// Reply bytes read, head and body.
    pub bytes_in: usize,
    /// From the first byte written to the last byte read, including a
    /// reconnect the call had to make first.
    pub latency: Duration,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// Connections opened after the first, each because the server
    /// closed the previous one.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Drops the connection; the server's worker is free once it sees
    /// the close.
    pub fn close(&mut self) {
        self.conn = None;
    }

    /// Sends one request and reads its reply. Any transport error drops
    /// the connection; nothing is retried, since a resent ingest would
    /// insert its points twice.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        request_id: Option<&str>,
    ) -> std::io::Result<Reply> {
        let started = Instant::now();
        let result = self.exchange(method, path, body, request_id);
        if result.is_err() {
            self.conn = None;
        }
        result.map(|(status, body, bytes_out, bytes_in)| Reply {
            status,
            body,
            bytes_out,
            bytes_in,
            latency: started.elapsed(),
        })
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        request_id: Option<&str>,
    ) -> std::io::Result<(u16, String, usize, usize)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n",
            body.len()
        );
        if let Some(id) = request_id {
            request.push_str("x-request-id: ");
            request.push_str(id);
            request.push_str("\r\n");
        }
        request.push_str("\r\n");
        request.push_str(body);
        conn.get_mut().write_all(request.as_bytes())?;

        let mut bytes_in = 0;
        let mut line = String::new();
        bytes_in += conn.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut content_length = None;
        let mut close = false;
        loop {
            line.clear();
            let n = conn.read_line(&mut line)?;
            if n == 0 {
                return Err(invalid("connection closed inside the reply head".into()));
            }
            bytes_in += n;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value
                    .split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case("close"));
            }
        }
        let len = content_length.ok_or_else(|| invalid("reply without content-length".into()))?;
        let mut body = vec![0u8; len];
        conn.read_exact(&mut body)?;
        bytes_in += len;
        if close {
            self.conn = None;
        }
        let body =
            String::from_utf8(body).map_err(|_| invalid("reply body is not UTF-8".into()))?;
        Ok((status, body, request.len(), bytes_in))
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}
