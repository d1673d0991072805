//! A minimal blocking HTTP/1.1 keep-alive connection: it writes
//! pre-rendered request bytes and reads one `Content-Length` response.
//! Local to the benchmark so the instrument does not change when the
//! product's client does.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The status code.
    pub status: u16,
    /// The body.
    pub body: String,
    /// Whether the server announced `connection: close`.
    pub close: bool,
}

/// A keep-alive connection to the server.
#[derive(Debug)]
pub struct Connection {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl Connection {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn open(addr: &str) -> io::Result<Self> {
        let mut conn = Self {
            addr: addr.to_string(),
            stream: None,
            buf: Vec::with_capacity(1 << 16),
        };
        conn.reconnect()?;
        Ok(conn)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        self.stream = Some(stream);
        Ok(())
    }

    /// Sends one request image and reads its response. A connection the
    /// server closed (or an I/O error) is reopened before the next
    /// exchange.
    ///
    /// # Errors
    ///
    /// Propagates socket failures and malformed responses.
    pub fn exchange(&mut self, wire: &[u8]) -> io::Result<Reply> {
        if self.stream.is_none() {
            self.reconnect()?;
        }
        let result = self.try_exchange(wire);
        if !matches!(&result, Ok(reply) if !reply.close) {
            self.stream = None;
        }
        result
    }

    fn try_exchange(&mut self, wire: &[u8]) -> io::Result<Reply> {
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(wire)?;
        self.buf.clear();
        let mut chunk = [0u8; 1 << 14];
        let head_end = loop {
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                break end;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("malformed status line in {head:?}")))?;
        let mut length = 0usize;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad(format!("malformed header {line:?}")));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| bad(format!("bad content-length {value:?}")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let total = head_end + 4 + length;
        while self.buf.len() < total {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if self.buf.len() > total {
            return Err(bad("bytes after the response body"));
        }
        let body = String::from_utf8(self.buf[head_end + 4..].to_vec())
            .map_err(|_| bad("response body is not UTF-8"))?;
        Ok(Reply {
            status,
            body,
            close,
        })
    }
}
