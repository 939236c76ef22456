//! Request-head limits on a live server: a request line that never ends
//! is cut off at the header budget with a 413 instead of being buffered,
//! conflicting `Content-Length` headers get a 400, and the server keeps
//! answering afterwards.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use structmine_engine::{Engine, EngineConfig, EngineSource, MethodKind, PlmSpec};
use structmine_serve::http::MAX_HEADER_BYTES;
use structmine_serve::{ServeConfig, Server};

fn start() -> Server {
    let engine = Engine::load(EngineConfig {
        source: EngineSource::Labels(vec!["sports".into(), "business".into()]),
        method: MethodKind::Match,
        plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
        seed: None,
        exec: structmine_linalg::ExecPolicy::default(),
    })
    .expect("engine loads");
    engine.warm().expect("warm");
    Server::start(
        Arc::new(engine),
        ServeConfig {
            port: 0,
            ..Default::default()
        },
    )
    .expect("server starts")
}

/// Send `raw`, then read until the server closes: the status code.
fn status_of(addr: &SocketAddr, raw: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"))
}

fn assert_healthy(addr: &SocketAddr) {
    assert_eq!(status_of(addr, b"GET /healthz HTTP/1.1\r\n\r\n"), 200);
    let body = "the striker scored a goal";
    let classify = format!(
        "POST /classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    assert_eq!(status_of(addr, classify.as_bytes()), 200);
}

#[test]
fn oversized_heads_get_413_and_conflicting_lengths_get_400() {
    let mut server = start();
    let addr = server.addr();

    // A request line exactly one budget long with no newline: the server
    // has read everything the client sent, so its 413 arrives intact.
    let mut line = b"POST /".to_vec();
    line.resize(MAX_HEADER_BYTES, b'a');
    assert_eq!(status_of(&addr, &line), 413);
    assert_healthy(&addr);

    // A request line that never ends: the server stops reading at the
    // budget and drops the connection, so the client's writes fail long
    // before the 64 MB it tries to send.
    let mut flood = TcpStream::connect(addr).expect("connect");
    flood.write_all(b"POST /").expect("write request start");
    let chunk = vec![b'a'; 64 * 1024];
    let cut_off = (0..1024).any(|_| flood.write_all(&chunk).is_err());
    assert!(cut_off, "the server buffered a 64 MB request line");
    drop(flood);
    assert_healthy(&addr);

    let conflicting =
        b"POST /classify HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!";
    assert_eq!(status_of(&addr, conflicting), 400);
    assert_healthy(&addr);

    server.stop();
}
