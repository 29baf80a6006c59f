//! A deliberately small HTTP/1.1 subset: request parsing over any
//! [`BufRead`] and response writing over a [`TcpStream`], enough for the serving endpoints and
//! nothing more (no chunked encoding, no continuations, no TLS).
//!
//! Zero-dependency policy: this replaces an HTTP crate, not the
//! protocol — requests are `METHOD PATH HTTP/1.x`, headers until a
//! blank line, and an optional `Content-Length` body. Every deviation
//! is a typed [`HttpError`], never a panic, so a hostile or broken
//! client can at worst get its own connection closed.

use std::io::{BufRead, Read, Write};
use std::net::TcpStream;

/// Longest accepted request body, in bytes (a 16 MiB ingest batch).
pub const MAX_BODY: usize = 16 << 20;
/// Longest accepted request line or header line, in bytes, not counting
/// its line ending.
pub const MAX_LINE: usize = 8 << 10;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target, e.g. `/predict`.
    pub path: String,
    /// Decoded body (empty without `Content-Length`).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Transport failure.
    Io(std::io::Error),
    /// The bytes were not a well-formed request.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY`].
    TooLarge(usize),
    /// The request line or a header line runs past [`MAX_LINE`] bytes.
    LineTooLong,
    /// The client closed the connection cleanly at a request boundary.
    Closed,
    /// A read timeout fired at a request boundary (nothing of a next
    /// request read yet) — the connection is idle, not broken; the
    /// caller may poll again.
    Idle,
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one line into `buf` (cleared first), reading at most
/// [`MAX_LINE`] bytes plus a CRLF, and returns it without its line
/// ending. `Ok(None)` means end of input before any byte.
///
/// `buf` keeps whatever was read when an I/O error surfaces, so the
/// caller can tell an idle connection from one that stalled mid-line.
fn read_line<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> Result<Option<String>, HttpError> {
    buf.clear();
    let limit = MAX_LINE + 2;
    reader.take(limit as u64).read_until(b'\n', buf)?;
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(if buf.len() == limit {
            HttpError::LineTooLong
        } else {
            HttpError::Malformed("eof inside a line".to_string())
        });
    }
    let text = std::str::from_utf8(buf)
        .map_err(|_| HttpError::Malformed("line is not UTF-8".to_string()))?;
    let text = text.trim_end();
    if text.len() > MAX_LINE {
        return Err(HttpError::LineTooLong);
    }
    Ok(Some(text.to_string()))
}

/// Reads one request from `reader` (a buffered reader the caller keeps
/// alive across keep-alive requests, so pipelined bytes are not lost).
///
/// Every allocation is bounded: lines by [`MAX_LINE`], the header count
/// by a fixed cap, and the body by [`MAX_BODY`] and by the bytes that
/// actually arrive — never by the declared `Content-Length` alone.
///
/// # Errors
///
/// [`HttpError::Closed`] when the connection ends cleanly at a request
/// boundary (the normal end of a keep-alive connection) and
/// [`HttpError::Idle`] when a read timeout fires there — poll again.
/// Everything else is a real error: [`HttpError::Malformed`] for
/// protocol violations (including a timeout mid-request),
/// [`HttpError::LineTooLong`] for overlong request or header lines,
/// [`HttpError::TooLarge`] for oversized bodies, [`HttpError::Io`] for
/// transport failures.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    let mut buf = Vec::new();
    let line = match read_line(reader, &mut buf) {
        Ok(Some(line)) => line,
        Ok(None) => return Err(HttpError::Closed),
        Err(HttpError::Io(e)) if is_timeout(&e) && buf.is_empty() => return Err(HttpError::Idle),
        Err(HttpError::Io(e)) if is_timeout(&e) => {
            return Err(HttpError::Malformed("timed out mid-request".to_string()))
        }
        Err(e) => return Err(e),
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
            (m.to_string(), p.to_string(), v)
        }
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line: {:?}",
                line
            )))
        }
    };
    // HTTP/1.1 defaults to keep-alive, 1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";

    let mut content_length = 0usize;
    for _ in 0..MAX_HEADERS {
        let header = match read_line(reader, &mut buf) {
            Ok(Some(header)) => header,
            Ok(None) => return Err(HttpError::Malformed("eof inside headers".to_string())),
            Err(HttpError::Io(e)) if is_timeout(&e) => {
                return Err(HttpError::Malformed("timed out in headers".to_string()))
            }
            Err(e) => return Err(e),
        };
        if header.is_empty() {
            if content_length > MAX_BODY {
                return Err(HttpError::TooLarge(content_length));
            }
            let body = read_exact_with_timeout(reader, content_length)?;
            let body = String::from_utf8(body)
                .map_err(|_| HttpError::Malformed("body is not UTF-8".to_string()))?;
            return Ok(Request {
                method,
                path,
                body,
                keep_alive,
            });
        }
        let (name, value) = match header.split_once(':') {
            Some((n, v)) => (n.trim(), v.trim()),
            None => return Err(HttpError::Malformed(format!("bad header: {:?}", header))),
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length: {:?}", value)))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    Err(HttpError::Malformed("too many headers".to_string()))
}

/// Reads exactly `len` body bytes, growing the buffer only as bytes
/// arrive.
fn read_exact_with_timeout<R: BufRead>(reader: &mut R, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    while body.len() < len {
        let chunk = match reader.fill_buf() {
            Ok([]) => return Err(HttpError::Malformed("eof inside body".to_string())),
            Ok(chunk) => chunk,
            Err(e) if is_timeout(&e) => {
                return Err(HttpError::Malformed("timed out in body".to_string()))
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        let n = chunk.len().min(len - body.len());
        body.extend_from_slice(&chunk[..n]);
        reader.consume(n);
    }
    Ok(body)
}

/// Writes one response with a JSON body.
///
/// # Errors
///
/// [`std::io::Error`] on transport failure (the caller drops the
/// connection).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    // One write per response: splitting head and body into separate
    // segments interacts with Nagle + delayed ACK and costs ~40ms per
    // round-trip on loopback.
    let response = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n{}",
        status,
        reason,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        body,
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{parse_ingest, parse_predict};
    use cascade_util::{check, prop_assert, Gen};

    fn request(path: &str, body: &str) -> Vec<u8> {
        format!(
            "POST {} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
            path,
            body.len(),
            body
        )
        .into_bytes()
    }

    /// A valid `/predict` or `/ingest` request with random contents.
    fn valid_request(g: &mut Gen) -> (Vec<u8>, bool) {
        if g.usize_in(0..2) == 0 {
            let dsts: Vec<String> = (0..g.usize_in(1..6))
                .map(|_| g.usize_in(0..50).to_string())
                .collect();
            let body = format!(
                r#"{{"src": {}, "dsts": [{}], "time": {}}}"#,
                g.usize_in(0..50),
                dsts.join(", "),
                g.usize_in(0..1000)
            );
            (request("/predict", &body), true)
        } else {
            let events: Vec<String> = (0..g.usize_in(1..6))
                .map(|i| {
                    format!(
                        r#"{{"src": {}, "dst": {}, "time": {}, "features": [{}, {}]}}"#,
                        g.usize_in(0..50),
                        g.usize_in(0..50),
                        i,
                        g.usize_in(0..9),
                        g.usize_in(0..9)
                    )
                })
                .collect();
            let body = format!(r#"{{"events": [{}]}}"#, events.join(", "));
            (request("/ingest", &body), false)
        }
    }

    /// One seeded mutation of a valid request: a generic byte mutation
    /// ([`Gen::mutate_bytes`]: bit flips, truncation, an inflated binary
    /// length field), an inflated `Content-Length`, or a header line that
    /// never ends.
    fn mutate(g: &mut Gen, mut bytes: Vec<u8>) -> Vec<u8> {
        match g.usize_in(0..3) {
            0 => g.mutate_bytes(bytes),
            1 => {
                let text = String::from_utf8(bytes).unwrap();
                let declared =
                    [MAX_BODY, MAX_BODY + 1, usize::MAX, g.usize_in(0..1 << 20)][g.usize_in(0..4)];
                let at = text.find("content-length: ").unwrap() + "content-length: ".len();
                let end = at + text[at..].find('\r').unwrap();
                format!("{}{}{}", &text[..at], declared, &text[end..]).into_bytes()
            }
            _ => {
                let at = bytes.windows(2).position(|w| w == b"\r\n").unwrap() + 2;
                let run = vec![b'x'; g.usize_in(MAX_LINE..3 * MAX_LINE)];
                bytes.splice(at..at, run);
                bytes
            }
        }
    }

    #[test]
    fn valid_requests_parse_into_valid_bodies() {
        check("http_valid_requests_parse", |g| {
            let (bytes, predict) = valid_request(g);
            let req = read_request(&mut &bytes[..])
                .map_err(|e| format!("valid request rejected: {:?}", e))?;
            prop_assert!(req.method == "POST" && req.keep_alive);
            if predict {
                prop_assert!(req.path == "/predict" && parse_predict(&req.body).is_ok());
            } else {
                prop_assert!(req.path == "/ingest" && parse_ingest(&req.body, 2).is_ok());
            }
            Ok(())
        });
    }

    #[test]
    fn mutated_requests_give_a_typed_error_or_a_bounded_request() {
        check("http_mutated_requests_are_typed", |g| {
            let (valid, _) = valid_request(g);
            let bytes = mutate(g, valid);
            match read_request(&mut &bytes[..]) {
                Ok(req) => {
                    prop_assert!(req.body.len() <= bytes.len(), "body beyond the input");
                    prop_assert!(req.method.len() + req.path.len() <= MAX_LINE);
                }
                Err(HttpError::Idle) => return Err("idle on an in-memory reader".to_string()),
                Err(HttpError::TooLarge(n)) => prop_assert!(n > MAX_BODY),
                Err(
                    HttpError::Malformed(_)
                    | HttpError::LineTooLong
                    | HttpError::Closed
                    | HttpError::Io(_),
                ) => {}
            }
            Ok(())
        });
    }

    #[test]
    fn endless_lines_stop_at_the_cap() {
        let endless_request_line = std::io::repeat(b'G');
        let endless_header = b"POST /ingest HTTP/1.1\r\nx-pad: ".chain(std::io::repeat(b'a'));
        for reader in [
            Box::new(endless_request_line) as Box<dyn Read>,
            Box::new(endless_header),
        ] {
            let mut reader = std::io::BufReader::new(reader);
            assert!(matches!(
                read_request(&mut reader),
                Err(HttpError::LineTooLong)
            ));
        }
    }

    #[test]
    fn lines_at_the_cap_are_accepted() {
        let pad = "a".repeat(MAX_LINE - "x-pad: ".len());
        let ok = format!("GET /stats HTTP/1.1\r\nx-pad: {}\r\n\r\n", pad);
        assert!(read_request(&mut ok.as_bytes()).is_ok());
        let over = format!("GET /stats HTTP/1.1\r\nx-pad: {}a\r\n\r\n", pad);
        assert!(matches!(
            read_request(&mut over.as_bytes()),
            Err(HttpError::LineTooLong)
        ));
    }

    #[test]
    fn inflated_content_length_is_a_typed_error() {
        let bytes = b"POST /ingest HTTP/1.1\r\ncontent-length: 16777216\r\n\r\n{}";
        assert!(matches!(
            read_request(&mut &bytes[..]),
            Err(HttpError::Malformed(_))
        ));
        let too_large = b"POST /ingest HTTP/1.1\r\ncontent-length: 16777217\r\n\r\n{}";
        assert!(matches!(
            read_request(&mut &too_large[..]),
            Err(HttpError::TooLarge(16_777_217))
        ));
    }
}
