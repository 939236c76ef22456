//! `structmine-serve` — serve a label-names classifier over HTTP.
//!
//! ```text
//! structmine-serve --labels sports,business,technology [--method xclass]
//!                  [--tier test|standard] [--port 7878] [--max-batch 32]
//!                  [--flush-us 2000] [--queue-cap 64] [--threads <n>]
//!                  [--precision exact|fast] [--socket-timeout-ms 10000]
//!                  [--no-cache | --cache-dir <dir>] [--report-json <path>]
//! ```
//!
//! Every flag falls back to a `STRUCTMINE_SERVE_*` environment variable
//! (`STRUCTMINE_SERVE_PORT`, `_MAX_BATCH`, `_FLUSH_US`, `_QUEUE_CAP`,
//! `_LABELS`, `_METHOD`, `_TIER`, `_SOCKET_TIMEOUT_MS`); `--precision`
//! falls back to `STRUCTMINE_PRECISION` itself. A Fast-tier server runs
//! the accuracy-tolerance self-check after warming: it classifies the
//! engine's eval split under both tiers, and if the Fast rule drifts
//! beyond the published bounds the process marks itself unusable —
//! `/healthz` answers 503 — while Exact serving is never gated. Every
//! `/healthz` body names the active tier (`ok (precision=fast)`), as does
//! the `/stats` config fingerprint. Routes:
//! `GET /healthz` (renders the process health registry: `200 ok`,
//! `200 degraded: …`, or `503 unusable: …`), `GET /stats`
//! (live JSON run report, including generation counters), `POST /classify`
//! (one document per line in, one `label<TAB>confidence<TAB>doc` line out —
//! byte-identical to `structmine classify`), and `POST /ingest` (number the
//! documents as the corpus's next generation; a `generation<TAB>g` receipt
//! line, then the same prediction lines `/classify` would emit).
//!
//! SIGTERM / SIGINT trigger a graceful shutdown: stop accepting, answer
//! in-flight requests, flush the final micro-batch, write the JSON run
//! report (when configured), exit 0.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use structmine_engine::{Engine, EngineConfig, EngineSource, MethodKind, PlmSpec};
use structmine_plm::cache::Tier;
use structmine_serve::{BatcherConfig, ServeConfig, Server};
use structmine_store::obs;

/// Set from the signal handler; the main loop polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: one atomic store.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn install_signal_handlers() {
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: structmine-serve --labels <a,b,c> [--method xclass|lotclass|prompt|match]\n\
         \x20                       [--tier test|standard] [--port 7878] [--max-batch 32]\n\
         \x20                       [--flush-us 2000] [--queue-cap 64] [--threads <n>]\n\
         \x20                       [--precision exact|fast] [--socket-timeout-ms 10000]\n\
         \x20                       [--no-cache | --cache-dir <dir>] [--report-json <path>]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    obs::log_warn(&format!("error: {msg}"));
    std::process::exit(2);
}

/// Flag value, else `STRUCTMINE_SERVE_<NAME>`, else the default.
fn flag_or_env(flags: &std::collections::HashMap<String, String>, key: &str) -> Option<String> {
    flags.get(key).cloned().or_else(|| {
        let env = format!("STRUCTMINE_SERVE_{}", key.replace('-', "_").to_uppercase());
        std::env::var(env).ok()
    })
}

fn parse_num<T: std::str::FromStr>(name: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("bad --{name} {value}")))
}

fn main() {
    obs::init();
    install_signal_handlers();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = std::collections::HashMap::new();
    let mut i = 0;
    while i < argv.len() {
        let key = match argv[i].strip_prefix("--") {
            Some(k) => k,
            None => usage(),
        };
        if key == "help" {
            usage();
        }
        if key == "no-cache" {
            flags.insert(key.to_string(), String::new());
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).unwrap_or_else(|| usage());
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    for key in flags.keys() {
        if !matches!(
            key.as_str(),
            "labels"
                | "method"
                | "tier"
                | "port"
                | "max-batch"
                | "flush-us"
                | "queue-cap"
                | "socket-timeout-ms"
                | "threads"
                | "precision"
                | "no-cache"
                | "cache-dir"
                | "report-json"
        ) {
            fail(&format!("unknown flag --{key}"));
        }
    }

    // Environment plumbing, mirroring the CLI: these run before the global
    // store / exec policy are first read.
    if flags.contains_key("no-cache") {
        std::env::set_var("STRUCTMINE_NO_CACHE", "1");
    }
    if let Some(dir) = flags.get("cache-dir") {
        std::env::set_var("STRUCTMINE_STORE_DIR", dir);
        std::env::set_var("STRUCTMINE_PLM_CACHE_DIR", dir);
    }
    if let Some(path) = flags.get("report-json") {
        std::env::set_var(obs::REPORT_ENV, path);
    }
    // Resolve the precision tier (flag > STRUCTMINE_PRECISION env > Exact)
    // and export the resolved name so it lands in the run-report config
    // fingerprint alongside every other STRUCTMINE_* knob.
    let precision = match flags.get("precision") {
        Some(v) => structmine_linalg::Precision::parse(v).unwrap_or_else(|e| fail(&e)),
        None => structmine_linalg::Precision::from_env(),
    };
    std::env::set_var("STRUCTMINE_PRECISION", precision.name());
    let exec = match flags.get("threads") {
        Some(n) => {
            let n: usize = parse_num("threads", n);
            std::env::set_var("STRUCTMINE_THREADS", n.to_string());
            structmine_linalg::ExecPolicy::with_threads(n)
        }
        None => structmine_linalg::ExecPolicy::default(),
    }
    .with_precision(precision);

    let labels: Vec<String> = flag_or_env(&flags, "labels")
        .unwrap_or_else(|| fail("--labels a,b,c (or STRUCTMINE_SERVE_LABELS) is required"))
        .split(',')
        .map(|s| s.trim().to_lowercase())
        .filter(|s| !s.is_empty())
        .collect();
    let method_name = flag_or_env(&flags, "method").unwrap_or_else(|| "xclass".into());
    let method = MethodKind::parse(&method_name)
        .filter(|k| k.servable())
        .unwrap_or_else(|| {
            fail(&format!(
                "unknown or non-servable method {method_name} (expected xclass, lotclass, prompt, match)"
            ))
        });
    let tier = match flag_or_env(&flags, "tier") {
        Some(v) => Tier::parse(&v).unwrap_or_else(|e| fail(&e)),
        None => Tier::Test,
    };
    let cfg = ServeConfig {
        port: parse_num(
            "port",
            &flag_or_env(&flags, "port").unwrap_or_else(|| "7878".into()),
        ),
        batch: BatcherConfig {
            max_batch: parse_num(
                "max-batch",
                &flag_or_env(&flags, "max-batch").unwrap_or_else(|| "32".into()),
            ),
            flush_us: parse_num(
                "flush-us",
                &flag_or_env(&flags, "flush-us").unwrap_or_else(|| "2000".into()),
            ),
            queue_cap: parse_num(
                "queue-cap",
                &flag_or_env(&flags, "queue-cap").unwrap_or_else(|| "64".into()),
            ),
        },
        socket_timeout_ms: parse_num(
            "socket-timeout-ms",
            &flag_or_env(&flags, "socket-timeout-ms").unwrap_or_else(|| "10000".into()),
        ),
    };

    obs::log_info(&format!(
        "loading {} engine for labels {labels:?} ...",
        method.name()
    ));
    let engine = Engine::load(EngineConfig {
        source: EngineSource::Labels(labels),
        method,
        plm: PlmSpec::Pretrained(tier),
        seed: None,
        exec,
    })
    .unwrap_or_else(|e| fail(&e.to_string()));
    // Fit the serving model now so the first request doesn't pay for it.
    engine.warm().unwrap_or_else(|e| fail(&e.to_string()));
    // Fast tier: prove the approximation holds on this dataset before
    // taking traffic. The server still starts either way — an out-of-bounds
    // engine answers 503 on `/healthz` so orchestrators never route to it.
    if engine.precision() == structmine_linalg::Precision::Fast {
        match structmine_engine::tolerance::self_check(&engine) {
            Ok(report) if report.within_bounds() => {
                obs::log_info(&format!(
                    "[serve] tolerance self-check: {}",
                    report.summary()
                ));
            }
            Ok(report) => {
                let msg = format!(
                    "fast tier failed tolerance self-check ({})",
                    report.summary()
                );
                obs::log_warn(&format!("[serve] {msg}"));
                structmine_store::health::set_unusable(&msg);
            }
            Err(e) => {
                let msg = format!("fast tier tolerance self-check errored: {e}");
                obs::log_warn(&format!("[serve] {msg}"));
                structmine_store::health::set_unusable(&msg);
            }
        }
    }

    let mut server = match Server::start(Arc::new(engine), cfg) {
        Ok(s) => s,
        Err(e) => fail(&format!("bind 127.0.0.1:{}: {e}", cfg.port)),
    };
    // The smoke tests parse this line to learn the bound port (`--port 0`).
    println!("listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
    }
    obs::log_info("[serve] shutdown signal received; draining");
    server.stop();
    obs::write_report_if_configured("structmine-serve");
}
