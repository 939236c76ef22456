//! The HTTP server: a blocking accept loop, one handler thread per
//! connection, all classification funneled through the [`Batcher`] and
//! every ingest through one long-lived `serve-ingest` thread.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use structmine_engine::{format_prediction_line, Engine, Ingested};
use structmine_store::{context, obs};

use crate::batcher::{BatchQueue, Batcher, BatcherConfig};
use crate::http::{self, HttpError, Request};

/// Server knobs: where to listen plus the batching configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// TCP port on 127.0.0.1; `0` lets the OS pick (tests, benches).
    pub port: u16,
    /// Micro-batching knobs.
    pub batch: BatcherConfig,
    /// Socket read *and* write deadline in milliseconds
    /// (`--socket-timeout-ms`); `0` disables. A client that stalls
    /// mid-request or stops reading its response loses its connection at
    /// the deadline instead of pinning a handler thread — a slow client
    /// can never wedge the batcher or a graceful shutdown.
    pub socket_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 7878,
            batch: BatcherConfig::default(),
            socket_timeout_ms: 10_000,
        }
    }
}

/// A running server. [`Server::stop`] (also called on drop) stops
/// accepting, drains in-flight connections, then flushes the batcher and
/// finishes the ingest thread.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    batcher: Option<Batcher>,
    ingester: Option<Ingester>,
}

impl Server {
    /// Bind `127.0.0.1:port` and start serving `engine`.
    pub fn start(engine: Arc<Engine>, cfg: ServeConfig) -> std::io::Result<Server> {
        // Advertise the engine's tier so every `/healthz` body names it.
        structmine_store::health::set_precision_tier(engine.precision().name());
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let batcher = Batcher::start(Arc::clone(&engine), cfg.batch)?;
        let ingester = Ingester::start(engine)?;
        let routes = Routes {
            batch: batcher.queue(),
            ingest: ingester.tx.clone(),
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let timeout = socket_timeout(cfg.socket_timeout_ms);
        let accept_handle = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, routes, flag, timeout))?;
        Ok(Server {
            addr,
            shutdown,
            accept_handle: Some(accept_handle),
            batcher: Some(batcher),
            ingester: Some(ingester),
        })
    }

    /// The bound address (relevant with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// flush the final micro-batch, finish the ingest thread. Idempotent.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            // The loop is blocked in `accept()`: one connection to our own
            // address wakes it to see the flag (that connection is
            // dropped). If the connect fails, a client's next one does.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
        if let Some(b) = self.batcher.take() {
            b.shutdown();
        }
        if let Some(i) = self.ingester.take() {
            i.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Resolve the configured deadline: `0` means no timeout at all (`None` —
/// `set_read_timeout(Some(ZERO))` is an error, not "disabled").
fn socket_timeout(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// One ingest request for the `serve-ingest` thread, and where its reply
/// goes.
struct IngestJob {
    lines: Vec<String>,
    /// The sending connection's span path (`serve/request`): the ingest's
    /// spans nest under it, as when the connection thread ran the ingest.
    stages: Vec<String>,
    reply: mpsc::Sender<Result<Ingested, String>>,
}

/// The one long-lived thread that runs every `/ingest`.
///
/// Ingests are serialized by the engine's mutex anyway, so one thread
/// loses no concurrency. What it saves is memory: run on the connection
/// threads, overlapping ingests each encode on a cold thread-local graph
/// arena and each get their own malloc arena, and peak RSS grows with
/// their overlap (DESIGN §10).
struct Ingester {
    tx: mpsc::Sender<IngestJob>,
    handle: std::thread::JoinHandle<()>,
}

impl Ingester {
    fn start(engine: Arc<Engine>) -> std::io::Result<Ingester> {
        let (tx, rx) = mpsc::channel::<IngestJob>();
        let handle = std::thread::Builder::new()
            .name("serve-ingest".into())
            .spawn(move || {
                for job in rx {
                    let result =
                        context::with_stage_path(&job.stages, || engine.ingest(&job.lines))
                            .map_err(|e| e.to_string());
                    // A receiver may have hung up (client gone).
                    let _ = job.reply.send(result);
                }
            })?;
        Ok(Ingester { tx, handle })
    }

    /// Close the channel and wait for queued ingests to finish. Call once
    /// every connection handler (and its sender clone) is gone.
    fn shutdown(self) {
        drop(self.tx);
        let _ = self.handle.join();
    }
}

/// Where a connection handler sends the work it cannot do itself.
#[derive(Clone)]
struct Routes {
    batch: BatchQueue,
    ingest: mpsc::Sender<IngestJob>,
}

fn accept_loop(
    listener: TcpListener,
    routes: Routes,
    shutdown: Arc<AtomicBool>,
    timeout: Option<Duration>,
) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // A connection accepted once the flag is set (`stop`'s wake-up
        // among them) is dropped unanswered.
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                // Both deadlines up front: a client that stalls sending its
                // request *or* stops reading its response is disconnected,
                // so handler threads (and shutdown's join) stay bounded.
                let _ = stream.set_read_timeout(timeout);
                let _ = stream.set_write_timeout(timeout);
                let r = routes.clone();
                match std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(stream, r))
                {
                    Ok(h) => {
                        handlers.push(h);
                        // Reap finished handlers so the vec stays bounded
                        // under load.
                        handlers.retain(|h| !h.is_finished());
                    }
                    Err(e) => {
                        // Thread exhaustion is load, not corruption: the
                        // connection is closed (client retries) and the
                        // server keeps accepting.
                        obs::counter_add("serve.spawn_failures", 1);
                        obs::log_warn(&format!(
                            "[serve] spawn connection thread failed ({e}); dropping connection"
                        ));
                    }
                }
            }
            Err(e) => {
                obs::log_warn(&format!("[serve] accept error: {e}"));
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    // Drain: every accepted connection gets its response before the
    // batcher and the ingest thread (whose channels this thread's
    // `routes` keeps open) close.
    for h in handlers {
        let _ = h.join();
    }
}

/// True when an IO error is a socket deadline expiring (the two kinds the
/// platform may report for a timed-out read/write).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn handle_connection(mut stream: TcpStream, routes: Routes) {
    let _span = obs::span("serve/request");
    obs::counter_add("serve.requests", 1);
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(HttpError::Io(e)) => {
            // A stalled client hit the socket deadline (or hung up); there
            // is nobody left to answer, only the counter to bump.
            if is_timeout(&e) {
                obs::counter_add("serve.timeouts", 1);
            }
            return;
        }
        Err(e @ HttpError::BadRequest(_)) => {
            respond_text(&mut stream, 400, "Bad Request", &format!("{e}\n"));
            return;
        }
        Err(e @ HttpError::TooLarge(_)) => {
            respond_text(&mut stream, 413, "Payload Too Large", &format!("{e}\n"));
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            // Render the process health registry (DESIGN §12): degraded
            // subsystems still answer 200 with a body naming each step;
            // an unusable process fails the probe with 503.
            let (status, body) = structmine_store::health::health_body();
            let reason = if status == 200 {
                "OK"
            } else {
                "Service Unavailable"
            };
            respond_text(&mut stream, status, reason, &body);
        }
        ("GET", "/stats") => {
            let report = obs::report("structmine-serve");
            match serde_json::to_string(&report) {
                Ok(mut json) => {
                    json.push('\n');
                    send_response(&mut stream, 200, "OK", "application/json", json.as_bytes());
                }
                Err(e) => respond_text(
                    &mut stream,
                    500,
                    "Internal Server Error",
                    &format!("serialize report: {e}\n"),
                ),
            }
        }
        ("POST", "/classify") => classify_route(&mut stream, &routes.batch, &request),
        ("POST", "/ingest") => ingest_route(&mut stream, &routes.ingest, &request),
        _ => respond_text(
            &mut stream,
            404,
            "Not Found",
            "routes: GET /healthz, GET /stats, POST /classify, POST /ingest\n",
        ),
    }
}

/// `POST /classify`: body is one document per line; the response body is
/// one `label<TAB>confidence<TAB>doc` line per input document —
/// byte-identical to `structmine classify` on the same documents.
fn classify_route(stream: &mut TcpStream, queue: &BatchQueue, request: &Request) {
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => {
            respond_text(stream, 400, "Bad Request", "body must be UTF-8 text\n");
            return;
        }
    };
    let lines: Vec<String> = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.to_string())
        .collect();
    if lines.is_empty() {
        respond_text(stream, 400, "Bad Request", "no input documents\n");
        return;
    }
    let rx = match queue.submit(lines.clone()) {
        Some(rx) => rx,
        None => {
            respond_text(
                stream,
                503,
                "Service Unavailable",
                "admission queue full; retry later\n",
            );
            return;
        }
    };
    match rx.recv() {
        Ok(Ok(preds)) => {
            let mut out = String::new();
            for (pred, line) in preds.iter().zip(&lines) {
                out.push_str(&format_prediction_line(pred, line));
                out.push('\n');
            }
            send_response(stream, 200, "OK", "text/plain", out.as_bytes());
        }
        Ok(Err(msg)) => respond_text(stream, 400, "Bad Request", &format!("{msg}\n")),
        Err(_) => {
            // The reply channel disconnected with the request still
            // outstanding: the batcher thread is gone while the server is
            // accepting, so classification can never be answered again —
            // mark the process unusable and /healthz starts failing.
            structmine_store::health::set_unusable("batcher exited before replying");
            respond_text(
                stream,
                500,
                "Internal Server Error",
                "batcher exited before replying\n",
            );
        }
    }
}

/// `POST /ingest`: body is one document per line; the batch is classified
/// and stamped as the engine's next corpus generation. The response
/// is a `generation<TAB>g` receipt line followed by one prediction line per
/// document — `tail -n +2` of the body byte-matches `POST /classify` (and
/// the CLI) on the same documents, because the serving rule is frozen at
/// generation 0.
///
/// Ingestion bypasses the micro-batcher on purpose: deltas are stateful and
/// strictly ordered (generation N+1 follows N), while the batcher exists to
/// coalesce stateless per-document work. Each delta runs on the
/// `serve-ingest` thread ([`Ingester`]), in arrival order.
fn ingest_route(stream: &mut TcpStream, ingest: &mpsc::Sender<IngestJob>, request: &Request) {
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => {
            respond_text(stream, 400, "Bad Request", "body must be UTF-8 text\n");
            return;
        }
    };
    let lines: Vec<String> = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.to_string())
        .collect();
    if lines.is_empty() {
        respond_text(stream, 400, "Bad Request", "no input documents\n");
        return;
    }
    let (reply, rx) = mpsc::channel();
    let job = IngestJob {
        lines: lines.clone(),
        stages: context::stage_path(),
        reply,
    };
    // Either failure means the ingest thread is gone while the server is
    // accepting: no ingest can be answered again.
    match ingest.send(job).ok().and_then(|()| rx.recv().ok()) {
        Some(Ok(ingested)) => {
            obs::counter_add("serve.ingests", 1);
            let mut out = format!("generation\t{}\n", ingested.generation);
            for (pred, line) in ingested.predictions.iter().zip(&lines) {
                out.push_str(&format_prediction_line(pred, line));
                out.push('\n');
            }
            send_response(stream, 200, "OK", "text/plain", out.as_bytes());
        }
        Some(Err(msg)) => respond_text(stream, 400, "Bad Request", &format!("{msg}\n")),
        None => {
            structmine_store::health::set_unusable("ingest thread exited before replying");
            respond_text(
                stream,
                500,
                "Internal Server Error",
                "ingest thread exited before replying\n",
            );
        }
    }
}

fn respond_text(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    send_response(stream, status, reason, "text/plain", body.as_bytes());
    let _ = stream.flush();
}

/// Write a response, counting a write-side socket deadline under the same
/// `serve.timeouts` counter as a read-side one: a client that stops
/// reading its response is the same slowloris shape as one that stops
/// sending its request.
fn send_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) {
    if let Err(e) = http::write_response(stream, status, reason, content_type, body) {
        if is_timeout(&e) {
            obs::counter_add("serve.timeouts", 1);
        }
    }
}
