//! A deliberately tiny HTTP/1.1 layer over `std::net::TcpStream`: request
//! line + headers + `Content-Length` bodies in, `Connection: close`
//! responses out. No keep-alive, no chunked encoding, no TLS — exactly the
//! surface the serve binary needs and nothing more (DESIGN §10).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Request line + headers may not exceed this many bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// A request body may not exceed this many bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path, and the raw body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client; not normalized here).
    pub method: String,
    /// The request target, e.g. `/classify`.
    pub path: String,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line or headers → 400.
    BadRequest(String),
    /// Header block or body over the hard caps → 413.
    TooLarge(String),
    /// The socket failed mid-read; there is nobody left to answer.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// Read one request from the stream.
///
/// The request line and headers share one [`MAX_HEADER_BYTES`] budget, and
/// each line is read through `take()` of what is left of it: a client that
/// never sends a newline costs at most the budget before a 413, never an
/// unbounded buffer.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEADER_BYTES;
    let line = read_head_line(&mut reader, &mut budget)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line has no path".into()))?
        .to_string();

    let mut content_length: Option<usize> = None;
    loop {
        let header = read_head_line(&mut reader, &mut budget)?;
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let n = value.trim().parse().map_err(|_| {
                    HttpError::BadRequest(format!("bad content-length {:?}", value.trim()))
                })?;
                if content_length.is_some_and(|seen| seen != n) {
                    return Err(HttpError::BadRequest(
                        "conflicting content-length headers".into(),
                    ));
                }
                content_length = Some(n);
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds {MAX_BODY_BYTES}"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;
    Ok(Request { method, path, body })
}

/// Read one newline-terminated line of the request head, reading no more
/// than `budget` bytes and charging what it read against it. Returns the
/// line without its line ending.
fn read_head_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    let n = reader
        .take(*budget as u64)
        .read_until(b'\n', &mut line)
        .map_err(HttpError::Io)?;
    *budget -= n;
    if line.last() != Some(&b'\n') {
        return Err(if *budget == 0 {
            HttpError::TooLarge(format!(
                "request line and headers exceed {MAX_HEADER_BYTES} bytes"
            ))
        } else {
            HttpError::BadRequest("connection closed mid-headers".into())
        });
    }
    let line = String::from_utf8(line)
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".into()))?;
    Ok(line.trim_end().to_string())
}

/// Write a full response and close the connection (the only mode we speak).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};

    /// Parse `raw` as the server would: one connection, the client's write
    /// half closed after the bytes.
    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        client.write_all(raw).expect("write");
        client.shutdown(Shutdown::Write).expect("half-close");
        let (mut server, _) = listener.accept().expect("accept");
        read_request(&mut server)
    }

    /// A request whose head is exactly `len` bytes: padded with one header.
    fn head_of_len(len: usize) -> Vec<u8> {
        let fixed = "GET /healthz HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
        format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(len - fixed)
        )
        .into_bytes()
    }

    #[test]
    fn head_at_the_budget_parses_and_one_byte_over_is_too_large() {
        let ok = parse(&head_of_len(MAX_HEADER_BYTES)).expect("head fits the budget");
        assert_eq!((ok.method.as_str(), ok.path.as_str()), ("GET", "/healthz"));
        assert!(matches!(
            parse(&head_of_len(MAX_HEADER_BYTES + 1)),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn request_line_without_newline_stops_at_the_budget() {
        let mut raw = b"GET /".to_vec();
        raw.resize(4 * MAX_HEADER_BYTES, b'a');
        assert!(matches!(parse(&raw), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn conflicting_content_lengths_are_rejected_and_equal_ones_accepted() {
        let conflicting =
            b"POST /classify HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 7\r\n\r\nhello";
        assert!(matches!(
            parse(conflicting),
            Err(HttpError::BadRequest(m)) if m.contains("conflicting")
        ));
        let repeated =
            b"POST /classify HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(parse(repeated).expect("equal lengths agree").body, b"hello");
    }

    #[test]
    fn truncated_and_non_utf8_heads_are_bad_requests() {
        for raw in [
            &b""[..],
            b"GET /healthz HTTP/1.1\r\nHost: x",
            b"GET /\xff HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{raw:?}"
            );
        }
    }
}
