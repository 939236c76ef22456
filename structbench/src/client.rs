//! A minimal HTTP/1.1 client for the server's `Connection: close` routes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket deadline for every request; a reply slower than this counts as a
/// failed operation.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed response.
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Send one request and read the whole response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .and_then(|_| stream.set_write_timeout(Some(TIMEOUT)))
        .map_err(|e| format!("set socket timeout: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("{method} {path}: write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: read: {e}"))?;
    parse(&raw).ok_or_else(|| format!("{method} {path}: malformed response"))
}

fn parse(raw: &[u8]) -> Option<Response> {
    let text = std::str::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some(Response {
        status,
        body: body.to_string(),
    })
}

/// `GET path`, requiring a 200.
pub fn get_ok(addr: SocketAddr, path: &str) -> Result<String, String> {
    let r = request(addr, "GET", path, "")?;
    if r.status != 200 {
        return Err(format!("GET {path}: status {}", r.status));
    }
    Ok(r.body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let r =
            parse(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 3\r\n\r\nno\n").unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.body, "no\n");
        assert!(parse(b"garbage").is_none());
    }
}
