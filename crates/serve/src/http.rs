//! Minimal HTTP/1.1 framing: just enough server-side parsing and
//! emission for the daemon's JSON API. One request per connection,
//! `Connection: close`, `Content-Length` bodies only (no chunked
//! encoding, no keep-alive, no percent-decoding — the API never needs
//! them).

use std::io::{BufRead, Read, Write};

/// Cap on the total bytes of the request line plus all headers. A
/// client streaming an endless header (or one with no newline at all)
/// used to balloon `read_line`'s buffer without bound — the 16 MiB
/// body cap only guards bytes *after* the blank line. 16 KiB is far
/// beyond anything the JSON API sends and matches common server
/// defaults.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Why a request could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The request line plus headers exceeded [`MAX_HEADER_BYTES`];
    /// answered `431 Request Header Fields Too Large`.
    HeadersTooLarge(String),
    /// Anything else — malformed framing, oversized body, socket
    /// problems; answered `400 Bad Request`.
    Bad(String),
}

impl ReadError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ReadError::HeadersTooLarge(_) => 431,
            ReadError::Bad(_) => 400,
        }
    }

    /// The front-end-ready message.
    pub fn message(&self) -> &str {
        match self {
            ReadError::HeadersTooLarge(m) | ReadError::Bad(m) => m,
        }
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl From<&str> for ReadError {
    fn from(m: &str) -> Self {
        ReadError::Bad(m.to_string())
    }
}

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The method verb, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The path without its query string.
    pub path: String,
    /// Decoded-as-is `key=value` query pairs, in order.
    pub query: Vec<(String, String)>,
    /// The raw body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A response ready to emit.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `content-type` header value (JSON everywhere except the
    /// Prometheus exposition).
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
        }
    }

    /// A Prometheus text-format v0.0.4 response.
    pub fn prometheus(body: String) -> Response {
        Response {
            status: 200,
            body: body.into_bytes(),
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// A JSON error envelope: `{"error": "<message>"}`.
    pub fn error(status: u16, message: &str) -> Response {
        let doc = subgemini::metrics::json::Value::Obj(vec![(
            "error".to_string(),
            subgemini::metrics::json::Value::Str(message.to_string()),
        )]);
        Response::json(status, doc.pretty())
    }

    /// Serializes the status line, headers, and body, in one
    /// `write_all` (an unbuffered socket would otherwise see a `write`
    /// per formatted piece of the head).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            _ => "Internal Server Error",
        };
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        w.write_all(&out)?;
        w.flush()
    }
}

/// Reads one `\n`-terminated line, charging its bytes against
/// `remaining`. The underlying read is capped at `remaining + 1`
/// bytes, so a line that never ends consumes bounded memory before it
/// is rejected.
fn read_capped_line(r: &mut impl BufRead, remaining: &mut usize) -> Result<String, ReadError> {
    let mut line = String::new();
    let mut limited = r.by_ref().take(*remaining as u64 + 1);
    limited
        .read_line(&mut line)
        .map_err(|e| ReadError::Bad(e.to_string()))?;
    if line.len() > *remaining {
        return Err(ReadError::HeadersTooLarge(format!(
            "request line and headers exceed the {MAX_HEADER_BYTES}-byte limit"
        )));
    }
    *remaining -= line.len();
    Ok(line)
}

/// Reads and parses one request from a buffered stream.
///
/// # Errors
///
/// Request line + headers over [`MAX_HEADER_BYTES`] as
/// [`ReadError::HeadersTooLarge`]; malformed framing, bodies over
/// `max_body` bytes, and socket errors as [`ReadError::Bad`].
pub fn read_request(r: &mut impl BufRead, max_body: usize) -> Result<Request, ReadError> {
    let mut header_budget = MAX_HEADER_BYTES;
    let line = read_capped_line(r, &mut header_budget)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or("empty request line")?
        .to_ascii_uppercase();
    let target = parts.next().ok_or("request line has no path")?;
    if parts.next().is_none() {
        return Err("request line has no HTTP version".into());
    }
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let query = query_text
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    let mut content_length = 0usize;
    loop {
        let header = read_capped_line(r, &mut header_budget)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::Bad("bad content-length".to_string()))?;
            }
        }
    }
    if content_length > max_body {
        return Err(ReadError::Bad(format!(
            "body of {content_length} bytes exceeds the {max_body}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)
        .map_err(|e| ReadError::Bad(e.to_string()))?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Request, ReadError> {
        read_request(&mut text.as_bytes(), 1024)
    }

    #[test]
    fn parses_request_with_body_and_query() {
        let req = parse(
            "POST /v1/circuits/chip?format=spice HTTP/1.1\r\ncontent-length: 5\r\nHost: x\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/circuits/chip");
        assert_eq!(req.query_value("format"), Some("spice"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_bodyless_get() {
        let req = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_body() {
        let err = parse("POST /x HTTP/1.1\r\ncontent-length: 9999\r\n\r\n").unwrap_err();
        assert!(err.message().contains("exceeds"), "{err}");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn caps_total_header_bytes() {
        // One endless header line, never newline-terminated: must be
        // rejected after a bounded read, not buffered forever.
        let mut text = String::from("GET /healthz HTTP/1.1\r\nx-junk: ");
        text.push_str(&"a".repeat(64 * 1024));
        let err = parse(&text).unwrap_err();
        assert!(matches!(err, ReadError::HeadersTooLarge(_)), "{err}");
        assert_eq!(err.status(), 431);

        // Many small headers that sum past the cap hit the same limit.
        let mut text = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..2048 {
            text.push_str(&format!("x-h{i}: 0123456789abcdef\r\n"));
        }
        text.push_str("\r\n");
        let err = parse(&text).unwrap_err();
        assert_eq!(err.status(), 431);

        // A request just under the cap still parses.
        let mut text = String::from("GET /healthz HTTP/1.1\r\n");
        text.push_str(&format!("x-pad: {}\r\n\r\n", "b".repeat(8 * 1024)));
        assert!(parse(&text).is_ok());
    }

    #[test]
    fn rejects_malformed_request_line() {
        assert!(parse("GET\r\n\r\n").is_err());
        assert!(parse("GET /x\r\n\r\n").is_err());
    }

    #[test]
    fn response_frames_body() {
        let mut out = Vec::new();
        Response::json(200, "{}\n".into())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 3\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}\n"), "{text}");
    }
}
