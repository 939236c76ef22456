//! `bench_serve` — load-test the in-process server and print the current
//! trajectory points to stdout as two `BENCH_serve.json` entries, to be
//! appended to that file's `entries` (methodology: EXPERIMENTS.md
//! §"Serving throughput trajectory").
//!
//! Runs a Test-tier X-Class engine on a fixed label set at **both
//! precision tiers** (DESIGN §13) — the Fast twin shares the Exact
//! engine's dataset, PLM, and serving-rule fit — then drives
//! `POST /classify` with 1, 4 and 16 concurrent clients per tier.
//! Reports docs/sec and p50/p99 request latency per concurrency level.
//! Environment knobs: `STRUCTMINE_BENCH_REQUESTS` (requests per client,
//! default 50) and `STRUCTMINE_BENCH_DOCS` (documents per request,
//! default 4).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use structmine_engine::{Engine, EngineConfig, EngineSource, MethodKind, PlmSpec};
use structmine_serve::{ServeConfig, Server};

const DOC_POOL: &[&str] = &[
    "the striker scored a goal and the keeper was offside",
    "the stock market fell as the company reported earnings",
    "the senator won the election after the campaign debate",
    "the processor chip in the new device runs fast software",
    "the band played a melody at the concert for the chorus",
    "the doctor treated the patient with a new vaccine",
    "the coach praised the team after the championship match",
    "the startup raised funding from the investor this quarter",
];

fn env_num(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One blocking HTTP request against the server; returns the body.
fn post_classify(addr: &std::net::SocketAddr, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /classify HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "request failed: {}",
        response.lines().next().unwrap_or("")
    );
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

/// Percentile over sorted microsecond latencies (nearest-rank).
fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// `YYYY-MM-DD` from the system clock (days-to-civil, Hinnant's algorithm).
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = secs as i64 / 86_400 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

struct Level {
    clients: usize,
    docs_per_sec: f64,
    p50_us: u128,
    p99_us: u128,
}

fn run_level(addr: std::net::SocketAddr, clients: usize, requests: usize, docs: usize) -> Level {
    let started = Instant::now();
    let mut latencies: Vec<u128> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(requests);
                    for r in 0..requests {
                        let body: String = (0..docs)
                            .map(|k| DOC_POOL[(c + r + k) % DOC_POOL.len()])
                            .collect::<Vec<_>>()
                            .join("\n");
                        let t = Instant::now();
                        post_classify(&addr, &body);
                        lat.push(t.elapsed().as_micros());
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    Level {
        clients,
        docs_per_sec: (clients * requests * docs) as f64 / wall,
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
    }
}

/// Load-test one engine (already warm) and return its per-level results.
fn run_tier(engine: Arc<Engine>, requests: usize, docs: usize) -> Vec<Level> {
    let tier = engine.precision().name();
    let mut server = Server::start(
        engine,
        ServeConfig {
            port: 0,
            ..Default::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    eprintln!("bench_serve: {tier} tier serving on {addr}");
    let levels: Vec<Level> = [1usize, 4, 16]
        .iter()
        .map(|&c| {
            let l = run_level(addr, c, requests, docs);
            eprintln!(
                "  {c:>2} clients: {:>8.1} docs/s, p50 {:>6} us, p99 {:>6} us",
                l.docs_per_sec, l.p50_us, l.p99_us
            );
            l
        })
        .collect();
    server.stop();
    levels
}

fn levels_json(levels: &[Level]) -> String {
    let mut out = String::new();
    for (i, l) in levels.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "        {{ \"clients\": {}, \"docs_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {} }}",
            l.clients, l.docs_per_sec, l.p50_us, l.p99_us
        ));
    }
    out
}

fn main() {
    structmine_store::obs::init();
    let requests = env_num("STRUCTMINE_BENCH_REQUESTS", 50);
    let docs = env_num("STRUCTMINE_BENCH_DOCS", 4);

    let exact = Engine::load(EngineConfig {
        source: EngineSource::Labels(
            ["sports", "business", "politics", "technology"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        ),
        method: MethodKind::XClass,
        plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
        seed: None,
        exec: structmine_linalg::ExecPolicy::default()
            .with_precision(structmine_linalg::Precision::Exact),
    })
    .expect("load engine");
    exact.warm().expect("warm engine");
    // The Fast twin shares the dataset, PLM, and (Exact-pinned) fit — the
    // comparison isolates query-time encoding, like production serving.
    let fast = exact.at_precision(structmine_linalg::Precision::Fast);

    let exact_levels = run_tier(Arc::new(exact), requests, docs);
    let fast_levels = run_tier(Arc::new(fast), requests, docs);
    let date = today();
    let entry = |precision: &str, change: &str, levels: &str| {
        format!(
            "    {{\n      \"date\": \"{date}\",\n      \"change\": \"{change}\",\n      \"tier\": \"test\",\n      \"method\": \"xclass\",\n      \"precision\": \"{precision}\",\n      \"requests_per_client\": {requests},\n      \"docs_per_request\": {docs},\n      \"levels\": [\n{levels}\n      ]\n    }}"
        )
    };
    println!(
        "{},\n{}",
        entry(
            "exact",
            "precision tiers: exact-tier measurement",
            &levels_json(&exact_levels)
        ),
        entry(
            "fast",
            "precision tiers: fast-tier measurement (same fit, fast query encode)",
            &levels_json(&fast_levels)
        ),
    );
}
