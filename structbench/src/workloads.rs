//! The three workloads, driven from outside through the shipped binaries.
//!
//! * `classify_bulk_fast` — closed loop, 2 connections, 16-document
//!   `POST /classify` requests against `structmine-serve --precision fast
//!   --threads 1`, in segments on freshly started servers.
//! * `ingest_with_reads` — one connection posts a fixed stream of 32-doc
//!   `POST /ingest` deltas from generation 0 while a second sends
//!   single-document `POST /classify` reads open-loop at a fixed rate
//!   (Exact, `--threads 1`). The stream repeats on fresh servers until the
//!   run's time is used.
//! * `table_xclass_cold` — the `table_xclass` binary on a fresh store over
//!   the prepared PLM, at the default thread policy, `round(seconds / 9)`
//!   times.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use structmine_linalg::Precision;

use crate::client;
use crate::inputs::{self, stream_seed, Rng};
use crate::layers::{self, Rows};
use crate::procs::{self, Server};
use crate::report::Snapshot;
use crate::stats;
use crate::trace::Tracer;

/// Fresh server starts timed per run (at least); `setup_s` is their
/// median. The bulk workload runs one timed segment on each.
pub const SETUP_STARTS: usize = 11;
const BULK_CLIENTS: usize = 2;
const BULK_DOCS: usize = 16;
const BULK_POOL: usize = 512;
/// Untimed traffic before each timed bulk segment.
const WARMUP: Duration = Duration::from_millis(300);
/// Deltas per ingest stream, and documents per delta.
pub const STREAM_LEN: usize = 50;
pub const DELTA_DOCS: usize = 32;
/// Open-loop single-document reads beside the ingest stream.
const READ_RATE_HZ: f64 = 100.0;
const READ_POOL: usize = 256;
/// The X-Class table's corpus scale (as in `ci/golden`).
pub const TABLE_SCALE: f32 = 0.05;
/// An ingest stream starts only if it should end by this share of the
/// run's time.
const OVERRUN: f64 = 1.15;
/// About one cold `table_xclass` run on a 2-vCPU host; a run of `s`
/// seconds makes `round(s / TABLE_RUN_S)` of them (at least one).
const TABLE_RUN_S: f64 = 9.0;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    ClassifyBulkFast,
    IngestWithReads,
    TableXclassCold,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ClassifyBulkFast,
        Workload::IngestWithReads,
        Workload::TableXclassCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClassifyBulkFast => "classify_bulk_fast",
            Workload::IngestWithReads => "ingest_with_reads",
            Workload::TableXclassCold => "table_xclass_cold",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The tier the workload serves (and replays) at.
    pub fn precision(self) -> Precision {
        match self {
            Workload::ClassifyBulkFast => Precision::Fast,
            _ => Precision::Exact,
        }
    }

    /// Documents per `Engine::classify` call in the replay: about one
    /// micro-batch for bulk traffic, one for single-document reads.
    pub fn classify_batch(self) -> usize {
        match self {
            Workload::IngestWithReads => 1,
            _ => 2 * BULK_DOCS,
        }
    }
}

/// The documents a workload classifies (bulk pool or read pool).
pub fn replay_docs(w: Workload, seed: u64) -> Vec<String> {
    match w {
        Workload::IngestWithReads => inputs::docs(READ_POOL, stream_seed(seed, 3)),
        _ => inputs::docs(BULK_POOL, stream_seed(seed, 1)),
    }
}

/// The ingest stream: [`STREAM_LEN`] deltas of [`DELTA_DOCS`] documents.
pub fn stream_deltas(seed: u64) -> Vec<Vec<String>> {
    inputs::docs(STREAM_LEN * DELTA_DOCS, stream_seed(seed, 2))
        .chunks(DELTA_DOCS)
        .map(|c| c.to_vec())
        .collect()
}

/// Where a run lives: the built binaries, the prepared PLM and this run's
/// private scratch directory (all inside the checkout).
pub struct Ctx {
    pub seed: u64,
    pub bin_dir: PathBuf,
    pub plm_dir: PathBuf,
    pub run_dir: PathBuf,
    pub golden: PathBuf,
    next_dir: AtomicUsize,
}

impl Ctx {
    pub fn new(
        seed: u64,
        bin_dir: PathBuf,
        plm_dir: PathBuf,
        run_dir: PathBuf,
        golden: PathBuf,
    ) -> Ctx {
        Ctx {
            seed,
            bin_dir,
            plm_dir,
            run_dir,
            golden,
            next_dir: AtomicUsize::new(0),
        }
    }

    /// A new empty directory under this run's scratch directory.
    pub fn fresh_dir(&self, tag: &str) -> Result<PathBuf, String> {
        let n = self.next_dir.fetch_add(1, Ordering::Relaxed);
        let dir = self.run_dir.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// The environment of every program process: the prepared PLM, a
    /// fresh artifact store, temp files inside the checkout, quiet logs.
    pub fn env(&self, store: &Path) -> Vec<(String, String)> {
        vec![
            (
                "STRUCTMINE_PLM_CACHE_DIR".into(),
                self.plm_dir.display().to_string(),
            ),
            ("STRUCTMINE_STORE_DIR".into(), store.display().to_string()),
            ("STRUCTMINE_LOG".into(), "warn".into()),
            (
                "TMPDIR".into(),
                self.run_dir.join("tmp").display().to_string(),
            ),
        ]
    }

    fn serve_cmd(&self, w: Workload, store: &Path) -> Command {
        let args = [
            "--labels",
            "sports,business,politics,technology",
            "--method",
            "xclass",
            "--tier",
            "test",
            "--port",
            "0",
            "--precision",
            w.precision().name(),
            // One engine thread leaves the other core to the load generator.
            "--threads",
            "1",
        ];
        procs::command(
            &self.bin_dir.join("structmine-serve"),
            &args,
            &self.env(store),
        )
    }

    fn start(&self, w: Workload) -> Result<Server, String> {
        Server::start(self.serve_cmd(w, &self.fresh_dir("store")?))
    }
}

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Workload-specific figures printed beside them.
    pub extras: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is invalid, if it is.
    pub invalid: Vec<String>,
    /// Per-layer rows from the workload's own processes (traced passes).
    pub live: Rows,
    /// Live figures the coverage lines are built from.
    pub probe: HashMap<&'static str, f64>,
}

impl Outcome {
    fn e2e(&mut self, setup: &[f64], docs_per_s: f64, p50_ms: f64, rss: f64) {
        self.metrics = vec![
            ("setup_s", stats::median(setup).unwrap_or(0.0), "s"),
            ("docs_per_s", docs_per_s, "docs/s"),
            ("p50_ms", p50_ms, "ms"),
            ("rss_peak_mb", rss, "MB"),
        ];
    }

    fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extras.push((name.into(), value, unit));
    }

    /// Add the latency tail named after its percentile (`p99_ms`), with
    /// `p90_ms` beside a higher one, or note that there were too few
    /// samples.
    fn tail(&mut self, prefix: &str, sorted: &[f64]) {
        match stats::tail(sorted) {
            Some((p, v)) => {
                if p > 90.0 {
                    let p90 = stats::percentile(sorted, 90.0).expect("non-empty");
                    self.extra(format!("{prefix}p90_ms"), p90, "ms");
                }
                self.extra(format!("{prefix}p{p}_ms"), v, "ms");
            }
            None => self
                .invalid
                .push(format!("{prefix}: too few samples for a tail")),
        }
    }
}

/// Run one pass of `w` for about `seconds`.
pub fn run(ctx: &Ctx, w: Workload, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let steal = procs::steal_now();
    let mut o = match w {
        Workload::ClassifyBulkFast => classify_bulk_fast(ctx, seconds, tracer),
        Workload::IngestWithReads => ingest_with_reads(ctx, seconds, tracer),
        Workload::TableXclassCold => table_xclass_cold(ctx, seconds, tracer),
    }?;
    // Time the hypervisor gave to other guests: context for the timings,
    // which it slows, not a property of the program.
    if let Some(pct) = procs::steal_pct(steal, procs::steal_now()) {
        o.extra("host_steal_pct", pct, "%");
    }
    Ok(o)
}

/// The setup times of `n` fresh starts in a row, each stopped before the
/// next.
fn setup_times(ctx: &Ctx, w: Workload, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let server = ctx.start(w)?;
            let t = server.setup_s;
            server.stop()?;
            Ok(t)
        })
        .collect()
}

fn stats_snapshot(addr: SocketAddr) -> Result<Snapshot, String> {
    Snapshot::parse(&client::get_ok(addr, "/stats")?)
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Closed-loop `/classify` traffic: each client sends its next request
/// when the previous one completes.
struct ClosedLoop {
    rtt_ms: Vec<f64>,
    ok_docs: u64,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

fn closed_loop(
    addr: SocketAddr,
    pool: &[String],
    expected: &HashMap<String, String>,
    run_for: Duration,
    tag: u64,
    seed: u64,
    tracer: &Tracer,
) -> ClosedLoop {
    let started = Instant::now();
    let deadline = started + run_for;
    let per_client: Vec<Vec<(Instant, Instant, bool)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..BULK_CLIENTS as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::new(stream_seed(seed, tag + c));
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let docs: Vec<&str> = (0..BULK_DOCS)
                            .map(|_| pool[rng.below(pool.len())].as_str())
                            .collect();
                        let body = docs.join("\n");
                        let t0 = Instant::now();
                        let r = client::request(addr, "POST", "/classify", &body);
                        let t1 = Instant::now();
                        tracer.record("client/classify", None, t0, t1);
                        let ok = matches!(&r, Ok(r) if r.status == 200
                            && r.body == inputs::expected_body(expected, &docs));
                        out.push((t0, t1, ok));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let all: Vec<_> = per_client.into_iter().flatten().collect();
    let end = all.iter().map(|s| s.1).max().unwrap_or(started);
    let ok = all.iter().filter(|s| s.2).count() as u64;
    ClosedLoop {
        rtt_ms: all.iter().filter(|s| s.2).map(|s| ms(s.0, s.1)).collect(),
        ok_docs: ok * BULK_DOCS as u64,
        attempted: all.len() as u64,
        failed: all.len() as u64 - ok,
        wall_s: (end - started).as_secs_f64(),
    }
}

fn classify_bulk_fast(ctx: &Ctx, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let w = Workload::ClassifyBulkFast;
    let pool = replay_docs(w, ctx.seed);
    let expected = inputs::expected_lines(&inputs::engine(w.precision())?, &pool)?;
    let mut o = Outcome::default();
    let (mut setup_s, mut rss, mut rtt_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ok_docs, mut wall_s) = (0, 0.0);
    let (mut live, mut lifetime) = (Snapshot::default(), Snapshot::default());
    let mut fresh = None;
    // The run is cut into segments, each on a freshly started server, so
    // set-up samples and load alike spread over the whole run and a slow
    // stretch of the host weighs on all of them alike.
    let segment = Duration::from_secs_f64(seconds / SETUP_STARTS as f64);
    for k in 0..SETUP_STARTS as u64 {
        let server = ctx.start(w)?;
        setup_s.push(server.setup_s);
        let addr = server.addr;
        fresh.get_or_insert(stats_snapshot(addr)?);
        let warm = closed_loop(
            addr,
            &pool,
            &expected,
            WARMUP,
            100 + 10 * k,
            ctx.seed,
            &Tracer::new(false),
        );
        let before = stats_snapshot(addr)?;
        let timed = closed_loop(
            addr,
            &pool,
            &expected,
            segment,
            500 + 10 * k,
            ctx.seed,
            tracer,
        );
        let after = stats_snapshot(addr)?;
        rss.push(server.peak_mb().ok_or("read server VmHWM")?);
        server.stop()?;
        live.accumulate(&after.since(&before));
        lifetime.accumulate(&after);
        o.attempted += warm.attempted + timed.attempted;
        o.failed += warm.failed + timed.failed;
        ok_docs += timed.ok_docs;
        wall_s += timed.wall_s;
        rtt_ms.extend(timed.rtt_ms);
    }

    let lat = stats::sorted(&rtt_ms);
    o.e2e(
        &setup_s,
        ok_docs as f64 / wall_s,
        stats::percentile(&lat, 50.0).ok_or("no successful requests")?,
        stats::median(&rss).expect("one segment or more"),
    );
    o.tail("", &lat);
    o.extra("requests", lat.len() as f64, "count");
    // `live` holds one opening `/stats` request per segment.
    let d = &live;
    layers::serve_rows(d, &rtt_ms, SETUP_STARTS as u64, &mut o.live);
    layers::served_counter_rows(d, &lifetime, d.counter("serve.docs"), &mut o.live);
    let fresh = fresh.expect("one segment or more");
    o.live
        .insert("store.disk_writes", fresh.counter("store.disk_writes"));
    o.live.insert("store.misses", fresh.counter("store.misses"));
    let (n, engine_ms) = d.span("serve/batch-classify>engine/classify");
    let batches = n.max(1) as f64;
    o.probe.insert(
        "engine_ms_per_doc",
        engine_ms / d.counter("serve.docs").max(1.0),
    );
    o.probe.insert("engine_ms_per_batch", engine_ms / batches);
    o.probe
        .insert("batch_ms", d.span("serve/batch-classify").1 / batches);
    o.probe
        .insert("rtt_mean_ms", stats::mean(&rtt_ms).unwrap_or(0.0));
    Ok(o)
}

/// One ingest stream beside open-loop reads.
#[derive(Default)]
struct Stream {
    delta_ms: Vec<f64>,
    read_from_due_ms: Vec<f64>,
    read_rtt_ms: Vec<f64>,
    /// Per read, (due, sent) and (ready, sent) offsets in ms; a read is
    /// ready once it is due and the previous read has returned.
    due_sent_ms: Vec<(f64, f64)>,
    ready_sent_ms: Vec<(f64, f64)>,
    wall_s: f64,
    attempted: u64,
    failed: u64,
}

fn run_stream(
    addr: SocketAddr,
    deltas: &[Vec<String>],
    reads: &[String],
    expected: &HashMap<String, String>,
    seed: u64,
    tracer: &Tracer,
) -> Stream {
    let done = AtomicBool::new(false);
    let interval = Duration::from_secs_f64(1.0 / READ_RATE_HZ);
    let t0 = Instant::now();
    let mut s = Stream::default();
    let reader = |done: &AtomicBool| {
        let mut rng = Rng::new(stream_seed(seed, 300));
        let mut out: Vec<(Instant, Instant, Instant, Instant, bool)> = Vec::new();
        let mut prev_end = t0;
        for i in 0u32.. {
            let due = t0 + interval * i;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            if done.load(Ordering::SeqCst) {
                break;
            }
            let doc = &reads[rng.below(reads.len())];
            let ready = due.max(prev_end);
            let sent = Instant::now();
            let r = client::request(addr, "POST", "/classify", doc);
            let end = Instant::now();
            tracer.record("client/read", None, sent, end);
            let ok = matches!(&r, Ok(r) if r.status == 200
                && r.body == inputs::expected_body(expected, &[doc.as_str()]));
            out.push((due, ready, sent, end, ok));
            prev_end = end;
        }
        out
    };
    let reads_done = std::thread::scope(|scope| {
        let handle = scope.spawn(|| reader(&done));
        for (g, docs) in deltas.iter().enumerate() {
            let a = Instant::now();
            let r = client::request(addr, "POST", "/ingest", &docs.join("\n"));
            let b = Instant::now();
            tracer.record("client/ingest", None, a, b);
            let refs: Vec<&str> = docs.iter().map(|d| d.as_str()).collect();
            let want = format!(
                "generation\t{}\n{}",
                g + 1,
                inputs::expected_body(expected, &refs)
            );
            s.attempted += 1;
            if matches!(&r, Ok(r) if r.status == 200 && r.body == want) {
                s.delta_ms.push(ms(a, b));
            } else {
                s.failed += 1;
            }
        }
        s.wall_s = t0.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        handle.join().expect("reader thread panicked")
    });
    for (due, ready, sent, end, ok) in reads_done {
        s.attempted += 1;
        s.due_sent_ms.push((ms(t0, due), ms(t0, sent)));
        s.ready_sent_ms.push((ms(t0, ready), ms(t0, sent)));
        if ok {
            s.read_from_due_ms.push(ms(due, end));
            s.read_rtt_ms.push(ms(sent, end));
        } else {
            s.failed += 1;
        }
    }
    s
}

fn ingest_with_reads(ctx: &Ctx, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let w = Workload::IngestWithReads;
    let deltas = stream_deltas(ctx.seed);
    let reads = replay_docs(w, ctx.seed);
    let all: Vec<String> = deltas.iter().flatten().chain(&reads).cloned().collect();
    let expected = inputs::expected_lines(&inputs::engine(w.precision())?, &all)?;

    let mut o = Outcome::default();
    let (mut setup_s, mut rss, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut delta_ms = Vec::new();
    let (mut read_ms, mut read_rtt) = (Vec::new(), Vec::new());
    let (mut due_sent, mut ready_sent) = (Vec::new(), Vec::new());
    let mut live = Snapshot::default();
    let mut rss_growth = Vec::new();
    let mut setup_counts = None;
    let run_for = seconds;
    let mut used = 0.0;
    // At least two streams, so the delta tail has ten samples beyond p90.
    while walls.len() < 2 || used + walls.last().copied().unwrap_or(0.0) <= run_for * OVERRUN {
        let server = ctx.start(w)?;
        setup_s.push(server.setup_s);
        let addr = server.addr;
        let before = stats_snapshot(addr)?;
        setup_counts.get_or_insert_with(|| before.clone());
        let rss_before = procs::proc_mb(server.pid(), "VmRSS");
        let s = run_stream(addr, &deltas, &reads, &expected, ctx.seed, tracer);
        let rss_after = procs::proc_mb(server.pid(), "VmRSS");
        let after = stats_snapshot(addr)?;
        rss.push(server.peak_mb().ok_or("read server VmHWM")?);
        server.stop()?;
        live.accumulate(&after.since(&before));
        if let (Some(a), Some(b)) = (rss_before, rss_after) {
            rss_growth.push((b - a) / deltas.len() as f64);
        }
        used += s.wall_s;
        walls.push(s.wall_s);
        o.attempted += s.attempted;
        o.failed += s.failed;
        delta_ms.extend(s.delta_ms);
        read_ms.extend(s.read_from_due_ms);
        read_rtt.extend(s.read_rtt_ms);
        due_sent.extend(s.due_sent_ms);
        ready_sent.extend(s.ready_sent_ms);
    }
    let missing = SETUP_STARTS.saturating_sub(setup_s.len());
    setup_s.extend(setup_times(ctx, w, missing)?);

    let ingested = (delta_ms.len() * DELTA_DOCS) as f64;
    let deltas_sorted = stats::sorted(&delta_ms);
    o.e2e(
        &setup_s,
        ingested / walls.iter().sum::<f64>(),
        stats::percentile(&deltas_sorted, 50.0).ok_or("no successful ingest")?,
        stats::median(&rss).unwrap_or(0.0),
    );
    o.tail("", &deltas_sorted);
    let reads_sorted = stats::sorted(&read_ms);
    o.extra(
        "read_p50_ms",
        stats::percentile(&reads_sorted, 50.0).unwrap_or(0.0),
        "ms",
    );
    o.tail("read_", &reads_sorted);
    // Slip: how late reads went out, waits on slow earlier reads included
    // (their latency counts them). Lateness: the generator's own delay.
    let interval_ms = 1e3 / READ_RATE_HZ;
    let slip = stats::Lateness::of(&due_sent, interval_ms);
    let lateness = stats::Lateness::of(&ready_sent, interval_ms);
    o.extra("read_slip_p50_ms", slip.p50_ms, "ms");
    o.extra("read_slip_tail_ms", slip.tail_ms, "ms");
    o.extra("read_lateness_p50_ms", lateness.p50_ms, "ms");
    o.extra("read_lateness_tail_ms", lateness.tail_ms, "ms");
    o.extra("read_lateness_max_ms", lateness.max_ms, "ms");
    o.extra("reads", lateness.n as f64, "count");
    o.extra("deltas", delta_ms.len() as f64, "count");
    o.extra("streams", walls.len() as f64, "count");
    if !lateness.kept_schedule() {
        o.invalid.push(format!(
            "read generator fell behind: {} of {} reads sent over one interval after they were ready",
            lateness.missed, lateness.n
        ));
    }

    let docs = live.counter("serve.docs") + live.counter("engine.ingested_docs");
    // `live` holds one opening `/stats` request per stream.
    layers::serve_rows(&live, &read_rtt, walls.len() as u64, &mut o.live);
    layers::served_counter_rows(&live, &live, docs, &mut o.live);
    let fresh = setup_counts.expect("at least one stream ran");
    o.live
        .insert("store.disk_writes", fresh.counter("store.disk_writes"));
    o.live.insert("store.misses", fresh.counter("store.misses"));
    o.live.insert_some(
        "store.chain_probes_per_ingest",
        stats::ratio(
            live.counter_prefix_sum("store.generation."),
            live.counter("serve.ingests"),
        ),
    );
    o.live
        .insert_some("store.rss_mb_per_generation", stats::median(&rss_growth));
    let (n, ingest_ms) = live.span("serve/request>engine/ingest");
    o.probe
        .insert("engine_ingest_mean_ms", ingest_ms / (n.max(1) as f64));
    o.probe
        .insert("delta_mean_ms", stats::mean(&delta_ms).unwrap_or(0.0));
    o.probe
        .insert("read_rtt_mean_ms", stats::mean(&read_rtt).unwrap_or(0.0));
    let (bn, batch_ms) = live.span("serve/batch-classify");
    o.probe.insert("batch_ms", batch_ms / (bn.max(1) as f64));
    Ok(o)
}

/// Sum the "documents" column of the X-Class dataset-statistics table.
pub fn table_docs(stdout: &str) -> u64 {
    stdout
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            if f.len() != 5 {
                return None;
            }
            f[1].parse::<u64>().ok()?;
            f[2].parse::<u64>().ok()
        })
        .sum()
}

fn table_xclass_cold(ctx: &Ctx, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let w = Workload::TableXclassCold;
    let golden =
        std::fs::read(&ctx.golden).map_err(|e| format!("read {}: {e}", ctx.golden.display()))?;
    let setup_s = setup_times(ctx, w, SETUP_STARTS)?;

    let mut o = Outcome::default();
    let (mut walls, mut rss, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let runs = ((seconds / TABLE_RUN_S).round() as usize).max(1);
    let mut docs = 0;
    for _ in 0..runs {
        let store = ctx.fresh_dir("store")?;
        let mut env = ctx.env(&store);
        for (k, v) in [
            ("STRUCTMINE_PLM_TIER", "test"),
            ("STRUCTMINE_ADAPT_STEPS", "50"),
            ("STRUCTMINE_SCALE", "0.05"),
            ("STRUCTMINE_SEEDS", "1"),
        ] {
            env.push((k.into(), v.into()));
        }
        let report = store.join("report.json");
        if tracer.enabled() {
            env.push(("STRUCTMINE_REPORT".into(), report.display().to_string()));
        }
        let cmd = procs::command(&ctx.bin_dir.join("table_xclass"), &[], &env);
        let start = Instant::now();
        let f = procs::run_to_end(cmd)?;
        tracer.record("client/table_xclass", None, start, Instant::now());
        o.attempted += 1;
        if !(f.success && f.stdout == golden) {
            o.failed += 1;
            continue;
        }
        let n = table_docs(&String::from_utf8_lossy(&f.stdout));
        if tracer.enabled() {
            let r =
                std::fs::read_to_string(&report).map_err(|e| format!("read table report: {e}"))?;
            let snap = Snapshot::parse(&r)?;
            o.probe.insert("report_wall_ms", snap.total_wall_ms);
            layers::table_rows(&snap, n as f64, &mut o.live);
        }
        walls.push(f.wall_s);
        rss.push(f.peak_mb);
        rates.push(n as f64 / f.wall_s);
        docs = n;
        let _ = std::fs::remove_dir_all(&store);
    }
    if walls.is_empty() {
        return Err("every table_xclass run failed".into());
    }
    o.e2e(
        &setup_s,
        stats::median(&rates).expect("non-empty"),
        stats::median(&walls).expect("non-empty") * 1e3,
        stats::median(&rss).expect("non-empty"),
    );
    o.extra("table_runs", walls.len() as f64, "count");
    o.extra("table_docs_per_run", docs as f64, "count");
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_table_documents() {
        let out = "== E4 — X-Class dataset statistics ==\n   dataset        classes  documents  imbalance  criterion\n   ----\n   agnews         4        80         1.000      topics\n   yelp           2        50         1.000      sentiment\n   X-Class        1.000±0.000  0.750±0.000    0.889±0.000  0.750±0.000\n";
        assert_eq!(table_docs(out), 130);
        let golden = include_str!("../../ci/golden/table_xclass_test.out");
        assert_eq!(table_docs(golden), 777);
    }

    #[test]
    fn workloads_round_trip_their_names() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn stream_has_fixed_shape() {
        let s = stream_deltas(4);
        assert_eq!(s.len(), STREAM_LEN);
        assert!(s.iter().all(|d| d.len() == DELTA_DOCS));
        assert_eq!(s, stream_deltas(4));
    }
}
