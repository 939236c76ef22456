//! Observability: structured spans, typed counters, a leveled logger, and
//! the JSON run report (DESIGN §8).
//!
//! The workspace's determinism contract makes observability cheap to add
//! safely: timings and thread ids live **only** in the run report, never in
//! hashed artifacts or stdout tables, so enabling any of this changes no
//! output byte. The pieces:
//!
//! * **Spans** — every [`context::stage_guard`](crate::context) label is
//!   also an RAII wall-clock timer. Nested labels form a path; the global
//!   registry accumulates, per path, the invocation count, total wall time,
//!   and the set of (process-local) thread indices that closed the span.
//! * **Counters** — one registry unifying what used to be per-subsystem
//!   atomics: artifact-store hit/miss/write/fault/retry/degradation stats
//!   (mirrored by [`ArtifactStore`](crate::ArtifactStore) under its scope),
//!   parallel-execution call/item/chunk counts (from
//!   `structmine_linalg::exec`), and log-call tallies. Typed store counters
//!   use [`Counter`]; ad-hoc subsystems use [`counter_add`] with a
//!   dot-separated name.
//! * **Logger** — `STRUCTMINE_LOG=warn|info|debug` (default `info`) gates
//!   every formerly ad-hoc `eprintln!` site through [`log_warn`] /
//!   [`log_info`] / [`log_debug`]. Message text is unchanged, so existing
//!   `grep '\[artifact-store\]'` workflows keep working at the default
//!   level.
//! * **Run report** — a JSON document with a stable schema
//!   ([`REPORT_SCHEMA_VERSION`]): config fingerprint, counters, and the
//!   per-stage timing tree. Written by the CLI and every table binary when
//!   `STRUCTMINE_REPORT=<path>` (or `--report-json <path>`) is set. Two
//!   identical runs produce byte-identical reports after masking the
//!   timing/thread fields (see [`masked_report`]); everything else — stage
//!   names, counts, counters, the config fingerprint — is deterministic.
//!
//! ## Masking convention
//!
//! A report field is *volatile* (allowed to differ between two otherwise
//! identical runs, or between thread counts) iff its key ends in `_ms` or
//! any of its `.`/`_`-separated tokens equals `thread`/`threads`
//! (case-insensitive). Everything else must be byte-stable. [`masked_report`]
//! applies exactly this rule; the determinism tests and the CI smoke rely
//! on it.

use parking_lot::Mutex;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Version of the run-report schema. Bump on any structural change so
/// downstream report diffing (`BENCH_*.json` trajectories) can dispatch.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

// --------------------------------------------------------------- process

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Start the process wall clock (idempotent). Binaries call this first
/// thing in `main` so the report's `total_wall_ms` covers the whole run;
/// every other obs entry point also initializes it lazily.
pub fn init() {
    let _ = PROCESS_START.get_or_init(Instant::now);
}

fn process_elapsed() -> Duration {
    PROCESS_START.get_or_init(Instant::now).elapsed()
}

// ---------------------------------------------------------------- threads

static NEXT_THREAD_INDEX: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_INDEX: u64 = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
}

/// A small process-local index for the current thread (0 for the first
/// thread that asks, usually `main`). Only ever surfaced in masked report
/// fields — the assignment order is scheduling-dependent.
pub fn thread_index() -> u64 {
    THREAD_INDEX.with(|t| *t)
}

// --------------------------------------------------------------- counters

/// The typed counters the artifact store reports, unified here so every
/// store scope ("store", "plm", test scopes) lands in one registry under
/// `<scope>.<key>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Artifacts served from the in-process `Arc` layer.
    MemHits,
    /// Artifacts deserialized from disk.
    DiskHits,
    /// Artifacts that had to be computed.
    Misses,
    /// Artifacts written to disk.
    DiskWrites,
    /// Reads rejected by the checksum footer.
    ChecksumFailures,
    /// Reads whose body passed the checksum but failed to decode.
    DecodeFailures,
    /// Faults injected by the fault layer.
    InjectedFaults,
    /// Retries performed after transient failures.
    IoRetries,
    /// Operations that failed after every retry.
    PersistentFailures,
    /// Store demotions to memory-only (0 or 1 per store).
    Degradations,
}

impl Counter {
    /// The registry key suffix, matching the [`StatsSnapshot`](crate::StatsSnapshot)
    /// field names so report counters and the
    /// `[artifact-store]` summary line agree verbatim.
    pub fn key(self) -> &'static str {
        match self {
            Counter::MemHits => "mem_hits",
            Counter::DiskHits => "disk_hits",
            Counter::Misses => "misses",
            Counter::DiskWrites => "disk_writes",
            Counter::ChecksumFailures => "checksum_failures",
            Counter::DecodeFailures => "decode_failures",
            Counter::InjectedFaults => "injected_faults",
            Counter::IoRetries => "io_retries",
            Counter::PersistentFailures => "persistent_failures",
            Counter::Degradations => "degradations",
        }
    }
}

fn counters() -> &'static Mutex<BTreeMap<String, u64>> {
    static COUNTERS: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    COUNTERS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Add `delta` to the named counter. Names are dot-separated
/// (`scope.metric`); thread-count-dependent metrics must carry a
/// `thread`/`threads` token in their name so the masking convention covers
/// them (e.g. `exec.thread_chunks`).
pub fn counter_add(name: &str, delta: u64) {
    init();
    if delta == 0 {
        return;
    }
    let mut map = counters().lock();
    match map.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            map.insert(name.to_string(), delta);
        }
    }
}

/// Add `delta` to a typed store counter under `scope`.
pub fn count(scope: &str, c: Counter, delta: u64) {
    counter_add(&format!("{scope}.{}", c.key()), delta);
}

/// The value of one counter (0 when never touched).
pub fn counter_value(name: &str) -> u64 {
    counters().lock().get(name).copied().unwrap_or(0)
}

/// A sorted snapshot of every counter.
pub fn counters_snapshot() -> BTreeMap<String, u64> {
    counters().lock().clone()
}

// ------------------------------------------------------------------ spans

#[derive(Clone, Debug, Default)]
struct SpanStat {
    count: u64,
    total_ns: u128,
    threads: BTreeSet<u64>,
}

type SpanMap = BTreeMap<Vec<String>, SpanStat>;

fn spans() -> &'static Mutex<SpanMap> {
    static SPANS: OnceLock<Mutex<SpanMap>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Record one closed span. Called by [`context::StageGuard`]
/// (crate::context::StageGuard) on drop; `path` is the nesting path of
/// stage labels (a label itself may contain `/`, so nesting is a list, not
/// a joined string).
pub(crate) fn record_span(path: &[String], elapsed: Duration) {
    let mut map = spans().lock();
    let stat = map.entry(path.to_vec()).or_default();
    stat.count += 1;
    stat.total_ns += elapsed.as_nanos();
    stat.threads.insert(thread_index());
}

/// Open a span without any store involvement — an alias for
/// [`context::stage_guard`](crate::context::stage_guard), exported here so
/// binaries can wrap their whole run (`let _run = obs::span("bench/...")`).
pub fn span(label: &str) -> crate::context::StageGuard {
    crate::context::stage_guard(label)
}

/// Record one closed span at an explicit path, bypassing the thread-local
/// guard stack. The shard coordinator uses this to attribute each worker
/// process's lifetime (`shard/worker-<i>`) and to import spans from worker
/// run reports into its own aggregated report — work that happened in
/// another process and therefore never crossed a local guard.
pub fn record_span_at(path: &[String], elapsed: Duration) {
    init();
    record_span(path, elapsed);
}

/// Total recorded wall time of root (depth-1) spans, in nanoseconds. The
/// report's `attributed_ms` comes from this; the CI smoke asserts it covers
/// ≥ 90% of `total_wall_ms`.
fn attributed_root_ns(map: &SpanMap) -> u128 {
    map.iter()
        .filter(|(path, _)| path.len() == 1)
        .map(|(_, s)| s.total_ns)
        .sum()
}

// ----------------------------------------------------------------- logger

/// Log verbosity, parsed once from `STRUCTMINE_LOG`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Only warnings (degradations, injected crashes, report failures).
    Warn,
    /// Warnings plus progress lines and store summaries (the default —
    /// matches what the pre-obs `eprintln!` sites printed).
    Info,
    /// Everything, including per-stage diagnostics.
    Debug,
}

/// The active log level: `STRUCTMINE_LOG=warn|info|debug`, default `info`
/// (unknown values also fall back to `info`).
pub fn log_level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| match std::env::var("STRUCTMINE_LOG") {
        Ok(v) if v.eq_ignore_ascii_case("warn") => Level::Warn,
        Ok(v) if v.eq_ignore_ascii_case("debug") => Level::Debug,
        _ => Level::Info,
    })
}

fn log_at(level: Level, tag: &str, msg: &str) {
    init();
    counter_add(&format!("log.{tag}"), 1);
    if level <= log_level() {
        eprintln!("{msg}");
    }
}

/// Log at warn level (always shown unless stderr itself is discarded).
pub fn log_warn(msg: &str) {
    log_at(Level::Warn, "warn", msg);
}

/// Log at info level (shown by default; hidden under `STRUCTMINE_LOG=warn`).
pub fn log_info(msg: &str) {
    log_at(Level::Info, "info", msg);
}

/// Log at debug level (hidden by default).
pub fn log_debug(msg: &str) {
    log_at(Level::Debug, "debug", msg);
}

// ------------------------------------------------------------- run report

/// Env var naming the report path; the CLI's `--report-json` sets it.
pub const REPORT_ENV: &str = "STRUCTMINE_REPORT";

/// The configured report path, if any.
pub fn report_path() -> Option<String> {
    std::env::var(REPORT_ENV)
        .ok()
        .filter(|s| !s.trim().is_empty())
}

fn ms(ns: u128) -> f64 {
    ns as f64 / 1.0e6
}

/// The `STRUCTMINE_*` environment entries that describe this run, sorted.
/// `STRUCTMINE_REPORT` is excluded (it names the report itself, not the
/// computation).
fn config_env() -> Vec<(String, String)> {
    let mut entries: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("STRUCTMINE_") && k != REPORT_ENV)
        .collect();
    entries.sort();
    entries
}

/// Fingerprint of the run configuration: binary name plus every
/// config-relevant environment entry. Thread-count and log-level knobs are
/// excluded — they cannot change any computed output (PR 1's determinism
/// contract), so reports from 1- and 4-thread runs fingerprint identically.
fn config_fingerprint(binary: &str, env: &[(String, String)]) -> u128 {
    let mut h = crate::StableHasher::new();
    h.write_str(binary);
    for (k, v) in env {
        if k == "STRUCTMINE_THREADS" || k == "STRUCTMINE_LOG" {
            continue;
        }
        h.write_str(k);
        h.write_str(v);
    }
    h.finish()
}

fn span_tree(map: &SpanMap) -> Value {
    // Children of `prefix`, in key order (deterministic).
    fn children(map: &SpanMap, prefix: &[String]) -> Value {
        let mut nodes = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for (path, stat) in map.iter() {
            if path.len() != prefix.len() + 1 || !path.starts_with(prefix) {
                continue;
            }
            let label = path.last().expect("non-empty path").as_str();
            if !seen.insert(label) {
                continue;
            }
            nodes.push(Value::Map(vec![
                ("label".into(), Value::Str(label.to_string())),
                ("count".into(), Value::UInt(stat.count)),
                ("wall_ms".into(), Value::Float(ms(stat.total_ns))),
                (
                    "threads".into(),
                    Value::Seq(stat.threads.iter().map(|&t| Value::UInt(t)).collect()),
                ),
                ("children".into(), children(map, path)),
            ]));
        }
        Value::Seq(nodes)
    }
    children(map, &[])
}

/// Pure report assembly — everything volatile is passed in, so tests can
/// build byte-exact golden reports.
fn build_report(
    binary: &str,
    env: &[(String, String)],
    counters: &BTreeMap<String, u64>,
    span_map: &SpanMap,
    total_wall: Duration,
    created_unix_ms: u128,
) -> Value {
    let fingerprint = config_fingerprint(binary, env);
    let config = Value::Map(vec![
        (
            "fingerprint".into(),
            Value::Str(format!("{fingerprint:032x}")),
        ),
        (
            "env".into(),
            Value::Map(
                env.iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            ),
        ),
    ]);
    let counters_value = Value::Map(
        counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::UInt(v)))
            .collect(),
    );
    let spans_value = Value::Map(vec![
        (
            "total_wall_ms".into(),
            Value::Float(ms(total_wall.as_nanos())),
        ),
        (
            "attributed_ms".into(),
            Value::Float(ms(attributed_root_ns(span_map))),
        ),
        ("tree".into(), span_tree(span_map)),
    ]);
    Value::Map(vec![
        (
            "schema_version".into(),
            Value::UInt(REPORT_SCHEMA_VERSION as u64),
        ),
        ("binary".into(), Value::Str(binary.to_string())),
        (
            "created_unix_ms".into(),
            Value::UInt(created_unix_ms as u64),
        ),
        ("config".into(), config),
        ("counters".into(), counters_value),
        ("spans".into(), spans_value),
    ])
}

/// The run report for this process, from the live registries.
pub fn report(binary: &str) -> Value {
    init();
    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    build_report(
        binary,
        &config_env(),
        &counters_snapshot(),
        &spans().lock(),
        process_elapsed(),
        created,
    )
}

/// Serialize the run report and write it to `path` (parent directories are
/// created). Report I/O never goes through the artifact store, so a
/// degraded or faulted store cannot lose the report.
pub fn write_report(path: &str, binary: &str) -> Result<(), String> {
    let value = report(binary);
    let mut text = serde_json::to_string(&value).map_err(|e| format!("serialize report: {e}"))?;
    text.push('\n');
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create report dir {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("write report {path}: {e}"))
}

/// Write the run report iff `STRUCTMINE_REPORT` is set. Called by every
/// binary as its last act; failures are warnings, never a changed exit
/// code — observability must not fail a run that computed correctly.
pub fn write_report_if_configured(binary: &str) {
    if let Some(path) = report_path() {
        match write_report(&path, binary) {
            Ok(()) => log_info(&format!("[report] wrote {path}")),
            Err(e) => log_warn(&format!("[report] WARNING: {e}")),
        }
    }
}

// ------------------------------------------------- masking & validation

/// True when a report key is volatile under the masking convention: it
/// ends in `_ms`, or any `.`/`_`-separated token equals `thread`/`threads`
/// (case-insensitive) — covering `wall_ms`, `threads`,
/// `exec.thread_chunks`, `STRUCTMINE_THREADS`, …
pub fn is_masked_key(key: &str) -> bool {
    key.ends_with("_ms")
        || key
            .split(['.', '_'])
            .any(|t| t.eq_ignore_ascii_case("thread") || t.eq_ignore_ascii_case("threads"))
}

fn mask_value(v: &Value) -> Value {
    match v {
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .map(|(k, v)| {
                    if is_masked_key(k) {
                        (k.clone(), Value::Str("<masked>".into()))
                    } else {
                        (k.clone(), mask_value(v))
                    }
                })
                .collect(),
        ),
        Value::Seq(items) => Value::Seq(items.iter().map(mask_value).collect()),
        other => other.clone(),
    }
}

/// Parse a report and replace every volatile field's value with
/// `"<masked>"`. Two runs of the same configuration must produce
/// byte-identical masked reports; 1-thread and 4-thread runs may differ
/// only in the fields this masks.
pub fn masked_report(json: &str) -> Result<String, String> {
    let v: Value = serde_json::from_str(json).map_err(|e| format!("parse report: {e}"))?;
    serde_json::to_string(&mask_value(&v)).map_err(|e| format!("serialize masked: {e}"))
}

fn get<'a>(map: &'a Value, key: &str, at: &str) -> Result<&'a Value, String> {
    match map {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{at}: missing key `{key}`")),
        _ => Err(format!("{at}: expected an object")),
    }
}

fn expect_number(v: &Value, at: &str) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::UInt(u) => Ok(*u as f64),
        Value::Int(i) => Ok(*i as f64),
        _ => Err(format!("{at}: expected a number")),
    }
}

fn validate_node(node: &Value, at: &str) -> Result<(), String> {
    match get(node, "label", at)? {
        Value::Str(s) if !s.is_empty() => {}
        _ => return Err(format!("{at}: `label` must be a non-empty string")),
    }
    match get(node, "count", at)? {
        Value::UInt(n) if *n > 0 => {}
        _ => return Err(format!("{at}: `count` must be a positive integer")),
    }
    expect_number(get(node, "wall_ms", at)?, &format!("{at}.wall_ms"))?;
    match get(node, "threads", at)? {
        Value::Seq(items) if !items.is_empty() => {
            for t in items {
                if !matches!(t, Value::UInt(_)) {
                    return Err(format!("{at}: `threads` entries must be integers"));
                }
            }
        }
        _ => return Err(format!("{at}: `threads` must be a non-empty array")),
    }
    match get(node, "children", at)? {
        Value::Seq(children) => {
            for (i, c) in children.iter().enumerate() {
                validate_node(c, &format!("{at}.children[{i}]"))?;
            }
            Ok(())
        }
        _ => Err(format!("{at}: `children` must be an array")),
    }
}

/// Validate a report against the schema. Returns the parsed [`Value`] so
/// callers (the golden test, `report_check`) can inspect further.
pub fn validate_report(json: &str) -> Result<Value, String> {
    let v: Value = serde_json::from_str(json).map_err(|e| format!("parse report: {e}"))?;
    match get(&v, "schema_version", "report")? {
        Value::UInt(n) if *n == REPORT_SCHEMA_VERSION as u64 => {}
        other => {
            return Err(format!(
                "report: schema_version must be {REPORT_SCHEMA_VERSION}, got {other:?}"
            ))
        }
    }
    match get(&v, "binary", "report")? {
        Value::Str(s) if !s.is_empty() => {}
        _ => return Err("report: `binary` must be a non-empty string".into()),
    }
    let config = get(&v, "config", "report")?;
    match get(config, "fingerprint", "report.config")? {
        Value::Str(s) if s.len() == 32 && s.bytes().all(|b| b.is_ascii_hexdigit()) => {}
        _ => return Err("report.config: `fingerprint` must be 32 hex chars".into()),
    }
    match get(config, "env", "report.config")? {
        Value::Map(_) => {}
        _ => return Err("report.config: `env` must be an object".into()),
    }
    match get(&v, "counters", "report")? {
        Value::Map(entries) => {
            for (k, c) in entries {
                if !matches!(c, Value::UInt(_)) {
                    return Err(format!("report.counters: `{k}` must be an integer"));
                }
            }
        }
        _ => return Err("report: `counters` must be an object".into()),
    }
    let spans = get(&v, "spans", "report")?;
    expect_number(
        get(spans, "total_wall_ms", "report.spans")?,
        "total_wall_ms",
    )?;
    expect_number(
        get(spans, "attributed_ms", "report.spans")?,
        "attributed_ms",
    )?;
    match get(spans, "tree", "report.spans")? {
        Value::Seq(nodes) => {
            for (i, n) in nodes.iter().enumerate() {
                validate_node(n, &format!("report.spans.tree[{i}]"))?;
            }
        }
        _ => return Err("report.spans: `tree` must be an array".into()),
    }
    Ok(v)
}

/// The fraction of process wall time attributed to root spans
/// (`attributed_ms / total_wall_ms`). The CI smoke asserts ≥ 0.9: a run
/// whose time mostly escapes the span tree is not observable.
pub fn report_coverage(report: &Value) -> Result<f64, String> {
    let spans = get(report, "spans", "report")?;
    let total = expect_number(
        get(spans, "total_wall_ms", "report.spans")?,
        "total_wall_ms",
    )?;
    let attributed = expect_number(
        get(spans, "attributed_ms", "report.spans")?,
        "attributed_ms",
    )?;
    if total <= 0.0 {
        return Err("report.spans: total_wall_ms must be positive".into());
    }
    Ok(attributed / total)
}

/// The value of one `config.env` entry in a validated report, if present.
/// CI uses this to assert the precision tier landed in the config
/// fingerprint's input set (`STRUCTMINE_PRECISION`).
pub fn report_config_env(report: &Value, key: &str) -> Result<Option<String>, String> {
    let config = get(report, "config", "report")?;
    match get(config, "env", "report.config")? {
        Value::Map(entries) => {
            Ok(entries
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                }))
        }
        _ => Err("report.config: `env` must be an object".into()),
    }
}

/// The value of one counter in a validated report: `Ok(Some(v))` when the
/// counter was recorded, `Ok(None)` when absent (zero deltas never
/// materialize a counter, so absence means zero), `Err` on a malformed
/// report. CI uses this to assert prepack hit-rate > 0 on warm serve runs.
pub fn report_counter(report: &Value, name: &str) -> Result<Option<u64>, String> {
    match get(report, "counters", "report")? {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| match v {
                Value::UInt(n) => Ok(*n),
                other => Err(format!(
                    "report.counters: `{name}` must be an integer, got {other:?}"
                )),
            })
            .transpose(),
        _ => Err("report: `counters` must be an object".into()),
    }
}

/// Every stage label appearing anywhere in the report's span tree.
pub fn report_stage_labels(report: &Value) -> Result<BTreeSet<String>, String> {
    fn walk(nodes: &Value, out: &mut BTreeSet<String>) {
        if let Value::Seq(items) = nodes {
            for node in items {
                if let Ok(Value::Str(label)) = get(node, "label", "node") {
                    out.insert(label.clone());
                }
                if let Ok(children) = get(node, "children", "node") {
                    walk(children, out);
                }
            }
        }
    }
    let spans = get(report, "spans", "report")?;
    let tree = get(spans, "tree", "report.spans")?;
    let mut out = BTreeSet::new();
    walk(tree, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::with_stage_label;

    fn span_map(entries: &[(&[&str], u64, u128, &[u64])]) -> SpanMap {
        let mut map = SpanMap::new();
        for &(path, count, total_ns, threads) in entries {
            map.insert(
                path.iter().map(|s| s.to_string()).collect(),
                SpanStat {
                    count,
                    total_ns,
                    threads: threads.iter().copied().collect(),
                },
            );
        }
        map
    }

    /// The golden report: schema changes must be deliberate. Everything
    /// here is injected, so the bytes are exact.
    #[test]
    fn report_schema_golden() {
        let env = vec![
            ("STRUCTMINE_SCALE".to_string(), "0.05".to_string()),
            ("STRUCTMINE_THREADS".to_string(), "4".to_string()),
        ];
        let mut counters = BTreeMap::new();
        counters.insert("store.mem_hits".to_string(), 3);
        counters.insert("store.misses".to_string(), 2);
        let spans = span_map(&[
            (&["bench/table_x"], 1, 10_000_000, &[0]),
            (&["bench/table_x", "xclass/predict"], 2, 7_000_000, &[0]),
        ]);
        let report = build_report(
            "table_x",
            &env,
            &counters,
            &spans,
            Duration::from_millis(11),
            1_700_000_000_000,
        );
        let json = serde_json::to_string(&report).unwrap();
        let expected = concat!(
            r#"{"schema_version":1,"binary":"table_x","created_unix_ms":1700000000000,"#,
            r#""config":{"fingerprint":"9b7999a914bbb3ee672433bbba6c3103","#,
            r#""env":{"STRUCTMINE_SCALE":"0.05","STRUCTMINE_THREADS":"4"}},"#,
            r#""counters":{"store.mem_hits":3,"store.misses":2},"#,
            r#""spans":{"total_wall_ms":11.0,"attributed_ms":10.0,"#,
            r#""tree":[{"label":"bench/table_x","count":1,"wall_ms":10.0,"threads":[0],"#,
            r#""children":[{"label":"xclass/predict","count":2,"wall_ms":7.0,"threads":[0],"#,
            r#""children":[]}]}]}}"#,
        );
        assert_eq!(json, expected, "schema drift — bump REPORT_SCHEMA_VERSION");
        validate_report(&json).expect("golden report must validate");
    }

    #[test]
    fn fingerprint_ignores_thread_and_log_knobs_only() {
        let base = vec![("STRUCTMINE_SCALE".to_string(), "0.3".to_string())];
        let mut with_threads = base.clone();
        with_threads.push(("STRUCTMINE_LOG".to_string(), "debug".to_string()));
        with_threads.push(("STRUCTMINE_THREADS".to_string(), "4".to_string()));
        assert_eq!(
            config_fingerprint("b", &base),
            config_fingerprint("b", &with_threads),
            "thread/log knobs must not change the fingerprint"
        );
        let mut other = base.clone();
        other.push(("STRUCTMINE_SEEDS".to_string(), "2".to_string()));
        assert_ne!(
            config_fingerprint("b", &base),
            config_fingerprint("b", &other)
        );
        assert_ne!(
            config_fingerprint("a", &base),
            config_fingerprint("b", &base)
        );
    }

    #[test]
    fn masking_covers_timing_and_thread_fields() {
        assert!(is_masked_key("wall_ms"));
        assert!(is_masked_key("total_wall_ms"));
        assert!(is_masked_key("created_unix_ms"));
        assert!(is_masked_key("threads"));
        assert!(is_masked_key("exec.thread_chunks"));
        assert!(is_masked_key("STRUCTMINE_THREADS"));
        assert!(!is_masked_key("count"));
        assert!(!is_masked_key("store.misses"));
        assert!(!is_masked_key("label"));
        assert!(!is_masked_key("fingerprint"));
    }

    #[test]
    fn masked_reports_are_stable_across_timing_differences() {
        let env = vec![("STRUCTMINE_SCALE".to_string(), "0.1".to_string())];
        let counters = BTreeMap::new();
        let fast = span_map(&[(&["run"], 1, 1_000_000, &[0])]);
        let slow = span_map(&[(&["run"], 1, 9_000_000, &[0, 3])]);
        let a = serde_json::to_string(&build_report(
            "b",
            &env,
            &counters,
            &fast,
            Duration::from_millis(2),
            1,
        ))
        .unwrap();
        let b = serde_json::to_string(&build_report(
            "b",
            &env,
            &counters,
            &slow,
            Duration::from_millis(20),
            2,
        ))
        .unwrap();
        assert_ne!(a, b, "raw reports differ in timing fields");
        assert_eq!(
            masked_report(&a).unwrap(),
            masked_report(&b).unwrap(),
            "masked reports must be byte-identical"
        );
    }

    #[test]
    fn validation_rejects_broken_reports() {
        assert!(validate_report("not json").is_err());
        assert!(validate_report("{}").is_err());
        let wrong_version = r#"{"schema_version":99,"binary":"b","created_unix_ms":0,
            "config":{"fingerprint":"00000000000000000000000000000000","env":{}},
            "counters":{},"spans":{"total_wall_ms":1.0,"attributed_ms":1.0,"tree":[]}}"#;
        let err = validate_report(wrong_version).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn spans_record_through_stage_guards() {
        with_stage_label("obs-test/outer", || {
            with_stage_label("obs-test/inner", || {
                std::thread::sleep(Duration::from_millis(2))
            })
        });
        let map = spans().lock().clone();
        let outer = map
            .get(&vec!["obs-test/outer".to_string()])
            .expect("outer span recorded");
        assert!(outer.count >= 1);
        assert!(outer.total_ns > 0);
        assert!(!outer.threads.is_empty());
        let inner = map
            .get(&vec![
                "obs-test/outer".to_string(),
                "obs-test/inner".to_string(),
            ])
            .expect("inner span nests under outer");
        assert!(inner.total_ns <= outer.total_ns);
    }

    #[test]
    fn duplicate_nested_labels_record_once() {
        with_stage_label("obs-test/dup", || {
            with_stage_label("obs-test/dup", || {
                std::thread::sleep(Duration::from_millis(1))
            })
        });
        let map = spans().lock().clone();
        let stat = map
            .get(&vec!["obs-test/dup".to_string()])
            .expect("span recorded");
        assert_eq!(
            stat.count, 1,
            "re-entering the same label must not double-count"
        );
        assert!(
            !map.contains_key(&vec![
                "obs-test/dup".to_string(),
                "obs-test/dup".to_string()
            ]),
            "no self-nested node"
        );
    }

    #[test]
    fn counters_accumulate_by_name_and_type() {
        counter_add("obs-test.adhoc", 2);
        counter_add("obs-test.adhoc", 3);
        assert_eq!(counter_value("obs-test.adhoc"), 5);
        count("obs-test-scope", Counter::MemHits, 4);
        assert_eq!(counter_value("obs-test-scope.mem_hits"), 4);
        counter_add("obs-test.zero", 0);
        assert_eq!(counter_value("obs-test.zero"), 0);
        assert!(
            !counters_snapshot().contains_key("obs-test.zero"),
            "zero deltas must not materialize counters"
        );
    }

    #[test]
    fn live_report_validates_and_names_recorded_stages() {
        with_stage_label("obs-live/root", || {
            counter_add("obs-live.widget", 1);
        });
        let value = report("obs-unit-test");
        let json = serde_json::to_string(&value).unwrap();
        let parsed = validate_report(&json).expect("live report must be schema-valid");
        let labels = report_stage_labels(&parsed).unwrap();
        assert!(labels.contains("obs-live/root"), "labels: {labels:?}");
        masked_report(&json).expect("live report must mask cleanly");
        assert!(report_coverage(&parsed).is_ok());
    }

    #[test]
    fn report_counter_reads_present_and_absent_names() {
        counter_add("obs-counter-test.widget", 7);
        let value = report("obs-counter-test");
        let json = serde_json::to_string(&value).unwrap();
        let parsed = validate_report(&json).unwrap();
        let got = report_counter(&parsed, "obs-counter-test.widget").unwrap();
        assert!(
            got.is_some_and(|n| n >= 7),
            "recorded counter must be readable, got {got:?}"
        );
        assert_eq!(
            report_counter(&parsed, "obs-counter-test.never-recorded").unwrap(),
            None,
            "absent counters read as None (zero deltas never materialize)"
        );
    }
}
