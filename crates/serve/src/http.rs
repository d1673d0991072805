//! A hand-rolled, std-only HTTP/1.1 layer: an **incremental** request
//! parser plus a response writer.
//!
//! The parser is a pure function of the bytes buffered so far — feeding
//! the same byte stream in any split pattern (one call, byte-at-a-time,
//! random chunks) produces the same sequence of requests and errors. The
//! property suite exploits exactly that invariant. Malformed input never
//! panics; it maps to a typed [`HttpError`] carrying the 4xx/5xx status
//! the connection answers before closing:
//!
//! | status | condition |
//! |--------|-----------|
//! | 400    | malformed start-line, header, or `Content-Length` |
//! | 411    | `POST` without a `Content-Length` |
//! | 413    | declared body larger than [`MAX_BODY_BYTES`] |
//! | 431    | header section larger than [`MAX_HEAD_BYTES`] (or more than [`MAX_HEADERS`] fields) |
//! | 501    | unknown method, or `Transfer-Encoding` (chunked bodies are not implemented) |
//! | 505    | HTTP version other than 1.0 / 1.1 |
//!
//! Keep-alive follows RFC 9112 defaults: HTTP/1.1 persists unless
//! `Connection: close`; HTTP/1.0 closes unless `Connection: keep-alive`.
//! Pipelined requests are supported — bytes past one complete request
//! stay buffered for the next [`RequestParser::next_request`] call.

use std::io::{self, Write};

/// Maximum size of the start-line + header section, in bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Maximum number of header fields per request.
pub const MAX_HEADERS: usize = 64;
/// Maximum declared `Content-Length`, in bytes.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// The request methods the server implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET` — metrics, health, session reads.
    Get,
    /// `POST` — session registration and power-delta streaming.
    Post,
    /// `DELETE` — explicit session teardown.
    Delete,
}

impl Method {
    /// The canonical token, e.g. `"GET"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        }
    }
}

/// One fully parsed request: start line, headers, and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The request target (always starts with `/`).
    pub target: String,
    /// Header fields in wire order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection persists after this exchange.
    pub keep_alive: bool,
}

impl Request {
    /// The first value of header `name` (ASCII case-insensitive lookup;
    /// stored names are already lower-case).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A protocol violation: the status the connection answers (then closes)
/// plus a human-readable reason for the JSON error body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// The 4xx/5xx status code.
    pub status: u16,
    /// What was wrong with the request.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

/// The incremental request parser: feed bytes as they arrive, pop
/// complete requests as they become available.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// A parser with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes to the buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (useful to detect trailing garbage).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete request, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes"; `Ok(Some(_))` consumes exactly
    /// one request (pipelined followers stay buffered); `Err(_)` means the
    /// buffered bytes cannot become a valid request — answer the error
    /// and close the connection.
    ///
    /// # Errors
    ///
    /// Returns the [`HttpError`] catalogued in the module docs.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        let Some(head_len) = find_head_end(&self.buf) else {
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::new(
                    431,
                    format!("header section exceeds {MAX_HEAD_BYTES} bytes"),
                ));
            }
            return Ok(None);
        };
        if head_len > MAX_HEAD_BYTES {
            return Err(HttpError::new(
                431,
                format!("header section exceeds {MAX_HEAD_BYTES} bytes"),
            ));
        }
        let (mut request, content_length) = parse_head(&self.buf[..head_len])?;
        let total = head_len + 4 + content_length;
        if self.buf.len() < total {
            return Ok(None);
        }
        request.body = self.buf[head_len + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(request))
    }
}

/// Index of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses the start-line + header section (without the terminator) into a
/// body-less request plus the declared content length.
fn parse_head(head: &[u8]) -> Result<(Request, usize), HttpError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| HttpError::new(400, "request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let start = lines.next().unwrap_or("");
    if start.bytes().any(|b| b.is_ascii_control()) {
        return Err(HttpError::new(400, "control bytes in the start line"));
    }
    let mut parts = start.split(' ');
    let (method_token, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() && !m.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::new(
                400,
                format!("malformed start line {start:?}"),
            ))
        }
    };
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => {
            return Err(HttpError::new(
                505,
                format!("unsupported protocol version {version:?}"),
            ))
        }
    };
    let method = match method_token {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "DELETE" => Method::Delete,
        other if other.bytes().all(|b| b.is_ascii_uppercase()) => {
            return Err(HttpError::new(
                501,
                format!("method {other} not implemented"),
            ));
        }
        other => return Err(HttpError::new(400, format!("malformed method {other:?}"))),
    };
    if !target.starts_with('/') {
        return Err(HttpError::new(
            400,
            format!("request target {target:?} must start with '/'"),
        ));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::new(
                431,
                format!("more than {MAX_HEADERS} header fields"),
            ));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(
                400,
                format!("header line {line:?} has no ':'"),
            ));
        };
        if name.is_empty()
            || name
                .bytes()
                .any(|b| b.is_ascii_whitespace() || b.is_ascii_control())
        {
            return Err(HttpError::new(
                400,
                format!("malformed header name {name:?}"),
            ));
        }
        let value = value.trim();
        if value.bytes().any(|b| b.is_ascii_control()) {
            return Err(HttpError::new(
                400,
                format!("control bytes in header {name:?}"),
            ));
        }
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::new(
            501,
            "transfer-encoding is not implemented; send a Content-Length body",
        ));
    }

    let mut content_length: Option<usize> = None;
    for (k, v) in &headers {
        if k != "content-length" {
            continue;
        }
        let parsed: usize = if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::new(
                400,
                format!("malformed Content-Length {v:?}"),
            ));
        } else {
            v.parse()
                .map_err(|_| HttpError::new(400, format!("malformed Content-Length {v:?}")))?
        };
        if let Some(prev) = content_length {
            if prev != parsed {
                return Err(HttpError::new(400, "conflicting Content-Length headers"));
            }
        }
        content_length = Some(parsed);
    }
    let content_length = match content_length {
        Some(n) if n > MAX_BODY_BYTES => {
            return Err(HttpError::new(
                413,
                format!("declared body of {n} bytes exceeds {MAX_BODY_BYTES}"),
            ));
        }
        Some(n) => n,
        None if method == Method::Post => {
            return Err(HttpError::new(411, "POST requires a Content-Length"));
        }
        None => 0,
    };

    let keep_alive = match headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase())
    {
        Some(v) if v.split(',').any(|t| t.trim() == "close") => false,
        Some(v) if v.split(',').any(|t| t.trim() == "keep-alive") => true,
        _ => keep_alive_default,
    };

    Ok((
        Request {
            method,
            target: target.to_string(),
            headers,
            body: Vec::new(),
            keep_alive,
        },
        content_length,
    ))
}

/// The canonical reason phrase for the status codes this server emits.
#[must_use]
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// An outgoing response: status, JSON body, connection disposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The JSON body (may be empty for 204).
    pub body: String,
    /// Whether the connection persists after writing this response.
    pub keep_alive: bool,
    /// Seconds for a `Retry-After` header (the `503` of a shed connection
    /// or registration).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response that keeps the connection alive.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            keep_alive: true,
            retry_after: None,
        }
    }

    /// The `{"error": …}` response for a protocol violation; always
    /// closes the connection (framing may be lost after a parse error).
    #[must_use]
    pub fn from_error(err: &HttpError) -> Self {
        Self {
            status: err.status,
            body: format!("{{\"error\":{}}}", serde::json::to_string(&err.message)),
            keep_alive: false,
            retry_after: None,
        }
    }

    /// An application-level error (routing, bad session id, invalid
    /// floorplan) that keeps the connection alive — framing is intact.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        Self {
            status,
            body: format!("{{\"error\":{}}}", serde::json::to_string(&message)),
            keep_alive: true,
            retry_after: None,
        }
    }

    /// An overload rejection (a `503` shed) carrying a
    /// `Retry-After` hint so well-behaved clients back off instead of
    /// hammering a saturated server.
    #[must_use]
    pub fn overloaded(status: u16, message: &str, retry_after_secs: u64) -> Self {
        Self {
            retry_after: Some(retry_after_secs),
            ..Self::error(status, message)
        }
    }

    /// Renders the full wire image (status line, headers, body) into one
    /// buffer — the form the nonblocking write path needs, where a
    /// response may leave the socket across many partial writes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let connection = if self.keep_alive {
            "keep-alive"
        } else {
            "close"
        };
        let mut out = Vec::with_capacity(128 + self.body.len());
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.body.len(),
            connection,
        );
        if let Some(secs) = self.retry_after {
            let _ = write!(out, "retry-after: {secs}\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

/// An outgoing byte queue for one nonblocking connection.
///
/// Responses are staged with [`WriteBuffer::push_response`]; the event
/// loop drains the queue with [`WriteBuffer::flush`] whenever the socket
/// accepts bytes. `WouldBlock` is not an error at this layer — it maps to
/// `Ok(0)` so the caller can tell "no progress" from "peer gone" without
/// matching on error kinds everywhere.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuffer {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether every staged byte has left the buffer.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes still waiting to be written.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Stages a response's full wire image behind whatever is queued.
    pub fn push_response(&mut self, response: &Response) {
        if self.is_empty() {
            self.buf.clear();
            self.pos = 0;
        }
        self.buf.extend_from_slice(&response.to_bytes());
    }

    /// Writes as much queued data as `w` accepts right now.
    ///
    /// Returns the number of bytes written this call; `WouldBlock` (and
    /// `Interrupted`) report `Ok(0)`. Fully drained buffers are compacted
    /// so a long-lived keep-alive connection does not grow without bound.
    ///
    /// # Errors
    ///
    /// Propagates hard I/O errors (reset, broken pipe) — the caller
    /// should drop the connection.
    pub fn flush(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let mut written = 0;
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => break,
                Ok(n) => {
                    self.pos += n;
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.is_empty() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Vec<Request>, HttpError> {
        let mut parser = RequestParser::new();
        parser.feed(bytes);
        let mut out = Vec::new();
        while let Some(req) = parser.next_request()? {
            out.push(req);
        }
        Ok(out)
    }

    #[test]
    fn parses_a_get_without_a_body() {
        let reqs = parse_all(b"GET /metrics HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, Method::Get);
        assert_eq!(reqs[0].target, "/metrics");
        assert!(reqs[0].keep_alive);
        assert!(reqs[0].body.is_empty());
        assert_eq!(reqs[0].header("Host"), Some("x"));
    }

    #[test]
    fn parses_a_post_with_a_content_length_body() {
        let reqs =
            parse_all(b"POST /sessions HTTP/1.1\r\ncontent-length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(reqs[0].body, b"{\"a\"");
    }

    #[test]
    fn partial_reads_return_need_more_until_complete() {
        let wire = b"POST /sessions HTTP/1.1\r\ncontent-length: 2\r\n\r\nok";
        let mut parser = RequestParser::new();
        for &b in &wire[..wire.len() - 1] {
            parser.feed(&[b]);
            assert_eq!(parser.next_request().unwrap(), None);
        }
        parser.feed(&wire[wire.len() - 1..]);
        let req = parser.next_request().unwrap().unwrap();
        assert_eq!(req.body, b"ok");
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn pipelined_requests_pop_in_order() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(parser.next_request().unwrap().unwrap().target, "/a");
        assert_eq!(parser.next_request().unwrap().unwrap().target, "/b");
        assert_eq!(parser.next_request().unwrap(), None);
    }

    #[test]
    fn http10_defaults_to_close_and_11_to_keep_alive() {
        let old = parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!old[0].keep_alive);
        let pinned = parse_all(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        assert!(!pinned[0].keep_alive);
        let revived = parse_all(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n").unwrap();
        assert!(revived[0].keep_alive);
    }

    #[test]
    fn malformed_inputs_map_to_the_documented_statuses() {
        let cases: &[(&[u8], u16)] = &[
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /\r\n\r\n", 400),
            (b"get / HTTP/1.1\r\n\r\n", 400),
            (b"GET x HTTP/1.1\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nno-colon\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n", 400),
            (b"POST /s HTTP/1.1\r\ncontent-length: -1\r\n\r\n", 400),
            (
                b"POST /s HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\n",
                400,
            ),
            (b"POST /s HTTP/1.1\r\n\r\n", 411),
            (b"POST /s HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n", 413),
            (b"BREW /pot HTTP/1.1\r\n\r\n", 501),
            (
                b"POST /s HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
                501,
            ),
            (b"GET / HTTP/2.0\r\n\r\n", 505),
            (b"GET / HTTP/1.1 extra\r\n\r\n", 400),
        ];
        for (wire, want) in cases {
            let got = parse_all(wire).unwrap_err();
            assert_eq!(
                got.status,
                *want,
                "{:?} → {:?}",
                String::from_utf8_lossy(wire),
                got
            );
        }
    }

    #[test]
    fn oversized_head_is_rejected_even_without_a_terminator() {
        let mut parser = RequestParser::new();
        parser.feed(&vec![b'A'; MAX_HEAD_BYTES + 1]);
        assert_eq!(parser.next_request().unwrap_err().status, 431);
    }

    #[test]
    fn too_many_headers_rejected() {
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            wire.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
        assert_eq!(parse_all(&wire).unwrap_err().status, 431);
    }

    fn wire(response: &Response) -> String {
        String::from_utf8(response.to_bytes()).unwrap()
    }

    #[test]
    fn responses_serialize_with_framing() {
        let text = wire(&Response::json(200, "{\"ok\":true}".into()));
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");
        let err = wire(&Response::from_error(&HttpError::new(400, "bad \"quote\"")));
        assert!(err.contains("connection: close"), "{err}");
        assert!(err.contains("{\"error\":\"bad \\\"quote\\\"\"}"), "{err}");
    }

    #[test]
    fn write_buffer_survives_one_byte_at_a_time_sinks() {
        struct OneByte(Vec<u8>, usize);
        impl Write for OneByte {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                // Alternate a 1-byte write with a WouldBlock, like a
                // congested nonblocking socket.
                self.1 += 1;
                if self.1.is_multiple_of(2) {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                self.0.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let first = Response::json(200, "{\"ok\":true}".into());
        let second = Response::error(404, "gone");
        let mut expected = first.to_bytes();
        expected.extend_from_slice(&second.to_bytes());
        let mut queue = WriteBuffer::new();
        queue.push_response(&first);
        queue.push_response(&second);
        assert_eq!(queue.pending(), expected.len());
        let mut sink = OneByte(Vec::new(), 0);
        while !queue.is_empty() {
            queue.flush(&mut sink).unwrap();
        }
        assert_eq!(sink.0, expected, "byte-exact across partial writes");
        assert_eq!(queue.pending(), 0);
    }

    #[test]
    fn overload_responses_carry_retry_after() {
        let text = wire(&Response::overloaded(503, "saturated", 2));
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("retry-after: 2\r\n"), "{text}");
        assert!(text.contains("\r\n\r\n{\"error\":\"saturated\"}"), "{text}");
        // Ordinary responses never emit the header.
        assert!(!wire(&Response::json(200, "{}".into())).contains("retry-after"));
    }
}
