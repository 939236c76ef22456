//! Per-layer rows. Layer names are the crate names (serve, engine, plm,
//! linalg with exec, store, textkit, nn, embed, core). Each row comes from
//! the workload's own process — counter and span deltas from `/stats` or
//! from `table_xclass`'s run report — where that process exercises the
//! layer, and otherwise from the in-process replays (`replay.rs`).

use std::collections::BTreeMap;

use crate::report::Snapshot;
use crate::stats;

/// Named values, in name order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rows(BTreeMap<String, f64>);

impl Rows {
    pub fn new() -> Rows {
        Rows::default()
    }

    pub fn insert(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Insert when the value is defined (a ratio over a zero base is not).
    pub fn insert_some(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.insert(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &f64)> {
        self.0.iter()
    }
}

impl From<BTreeMap<String, f64>> for Rows {
    fn from(map: BTreeMap<String, f64>) -> Rows {
        Rows(map)
    }
}

pub fn matmul_us(shape: &str, tier: &str) -> String {
    format!("linalg.matmul_us.{shape}.{tier}")
}

pub fn matmul_gflops(shape: &str, tier: &str) -> String {
    format!("linalg.matmul_gflops.{shape}.{tier}")
}

/// Every per-layer row: `(name, unit)`. `BENCHMARK.json` lists the same
/// names; a traced run must produce all of them.
pub fn all() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("serve.batch_docs", "docs"),
        ("serve.deadline_flush_frac", "ratio"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.accept_ms", "ms"),
        ("serve.rejections", "count"),
        ("serve.timeouts", "count"),
        ("engine.load_ms", "ms"),
        ("engine.warm_ms", "ms"),
        ("engine.selfcheck_ms", "ms"),
        ("engine.classify_us_per_doc", "us"),
        ("engine.ingest_ms_first", "ms"),
        ("engine.ingest_ms_last", "ms"),
        ("plm.encode_us_per_doc.fast", "us"),
        ("plm.encode_us_per_doc.exact", "us"),
        ("plm.encodes_per_doc", "ratio"),
        ("plm.checkpoint_load_ms", "ms"),
        ("plm.adapt_ms", "ms"),
        ("plm.doc_mean_reps_ms", "ms"),
        ("linalg.prepack.hit_frac", "ratio"),
        ("linalg.prepack.invalidations", "count"),
        ("linalg.prepack.hits_per_doc", "count"),
        ("exec.par_calls", "count"),
        ("exec.thread_chunks", "count"),
        ("store.chain_probes_per_ingest", "count"),
        ("store.rss_mb_per_generation", "MB"),
        ("store.disk_writes", "count"),
        ("store.misses", "count"),
        ("textkit.tokenize_us_per_doc", "us"),
        ("textkit.delta_apply_ms", "ms"),
        ("nn.westclass_train_ms", "ms"),
        ("embed.sgns_ms", "ms"),
        ("core.xclass_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (shape, _, _) in crate::replay::MATMUL_SHAPES {
        for tier in ["exact", "fast"] {
            v.push((matmul_us(shape, tier), "us"));
            v.push((matmul_gflops(shape, tier), "GFLOP/s"));
        }
    }
    v
}

/// Serve rows from a `/stats` delta over a phase and the client round
/// trips of that phase's `/classify` requests. Besides the workload's own
/// requests the delta holds `stats_requests` `/stats` requests (the
/// snapshots that opened each phase); `/ingest` requests are told apart
/// by their `engine/ingest` child span.
pub fn serve_rows(d: &Snapshot, classify_rtt_ms: &[f64], stats_requests: u64, rows: &mut Rows) {
    let batches = d.counter("serve.batches");
    rows.insert_some(
        "serve.batch_docs",
        stats::ratio(d.counter("serve.docs"), batches),
    );
    rows.insert_some(
        "serve.deadline_flush_frac",
        stats::ratio(d.counter("serve.flushes_deadline"), batches),
    );
    let (requests, request_ms) = d.span("serve/request");
    let classify_requests = requests as f64 - d.counter("serve.ingests") - stats_requests as f64;
    let request_mean = stats::ratio(request_ms - d.label_ms("engine/ingest"), classify_requests);
    let (batch_n, batch_ms) = d.span("serve/batch-classify");
    let batch_mean = stats::ratio(batch_ms, batch_n as f64);
    if let (Some(req), Some(batch)) = (request_mean, batch_mean) {
        rows.insert("serve.queue_wait_ms", req - batch);
    }
    if let (Some(req), Some(rtt)) = (request_mean, stats::mean(classify_rtt_ms)) {
        rows.insert("serve.accept_ms", rtt - req);
    }
    rows.insert("serve.rejections", d.counter("serve.rejections"));
    rows.insert("serve.timeouts", d.counter("serve.timeouts"));
}

/// Rows every served workload takes from its `/stats` deltas: `d` covers
/// the timed phase, `whole` is the server's report at its end, and `docs`
/// counts the documents the phase submitted.
pub fn served_counter_rows(d: &Snapshot, whole: &Snapshot, docs: f64, rows: &mut Rows) {
    program_counter_rows(whole, rows);
    rows.insert("exec.par_calls", d.counter("exec.par_calls"));
    rows.insert("exec.thread_chunks", d.counter("exec.thread_chunks"));
    rows.insert_some(
        "linalg.prepack.hits_per_doc",
        stats::ratio(d.counter("linalg.prepack.hits"), docs),
    );
    rows.insert_some(
        "plm.encodes_per_doc",
        stats::ratio(d.counter("plm.docs_encoded"), docs),
    );
}

/// Process-lifetime prepack rows from one report.
pub fn program_counter_rows(whole: &Snapshot, rows: &mut Rows) {
    let hits = whole.counter("linalg.prepack.hits");
    rows.insert_some(
        "linalg.prepack.hit_frac",
        stats::ratio(hits, hits + whole.counter("linalg.prepack.builds")),
    );
    rows.insert(
        "linalg.prepack.invalidations",
        whole.counter("linalg.prepack.invalidations"),
    );
}

/// Rows a cold `table_xclass` run's report gives: one run, `docs` table
/// documents fitted.
pub fn table_rows(r: &Snapshot, docs: f64, rows: &mut Rows) {
    program_counter_rows(r, rows);
    rows.insert("plm.adapt_ms", r.label_ms("plm/adapt"));
    rows.insert("plm.doc_mean_reps_ms", r.label_ms("plm/doc-mean-reps"));
    rows.insert("embed.sgns_ms", r.label_ms("embed/sgns-word-vectors"));
    rows.insert("nn.westclass_train_ms", r.label_ms("westclass/train"));
    rows.insert("core.xclass_ms", r.label_ms("xclass/predict"));
    rows.insert("exec.par_calls", r.counter("exec.par_calls"));
    rows.insert("exec.thread_chunks", r.counter("exec.thread_chunks"));
    rows.insert("store.disk_writes", r.counter("store.disk_writes"));
    rows.insert("store.misses", r.counter("store.misses"));
    rows.insert_some(
        "linalg.prepack.hits_per_doc",
        stats::ratio(r.counter("linalg.prepack.hits"), docs),
    );
    rows.insert_some(
        "plm.encodes_per_doc",
        stats::ratio(r.counter("plm.docs_encoded"), docs),
    );
}

/// One merged row: `(name, unit, value, source)`.
pub type Row = (String, &'static str, f64, &'static str);

/// Merge: the live value where there is one, else the replay's. Returns
/// every row, or the names that have no value.
pub fn merge(live: &Rows, replay: &Rows) -> Result<Vec<Row>, Vec<String>> {
    let mut out = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in all() {
        match (live.get(&name), replay.get(&name)) {
            (Some(v), _) => out.push((name, unit, v, "live")),
            (None, Some(v)) => out.push((name, unit, v, "replay")),
            (None, None) => missing.push(name),
        }
    }
    if missing.is_empty() {
        Ok(out)
    } else {
        Err(missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(counters: &[(&str, u64)], spans: &[(&str, u64, f64)]) -> Snapshot {
        Snapshot {
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            spans: spans
                .iter()
                .map(|&(k, n, ms)| (k.to_string(), (n, ms)))
                .collect(),
            total_wall_ms: 0.0,
        }
    }

    #[test]
    fn serve_rows_split_request_time() {
        // 10 classify requests + 2 ingests + the opening /stats request.
        let d = snap(
            &[
                ("serve.batches", 4),
                ("serve.docs", 10),
                ("serve.flushes_deadline", 1),
                ("serve.ingests", 2),
            ],
            &[
                ("serve/request", 13, 70.0),
                ("serve/request>engine/ingest", 2, 20.0),
                ("serve/batch-classify", 4, 8.0),
            ],
        );
        let mut rows = Rows::new();
        serve_rows(&d, &[6.0; 10], 1, &mut rows);
        assert_eq!(rows.get("serve.batch_docs"), Some(2.5));
        assert_eq!(rows.get("serve.deadline_flush_frac"), Some(0.25));
        // (70 - 20) / 10 = 5 ms per classify request, 2 ms per batch.
        assert_eq!(rows.get("serve.queue_wait_ms"), Some(3.0));
        assert_eq!(rows.get("serve.accept_ms"), Some(1.0));
        assert_eq!(rows.get("serve.rejections"), Some(0.0));
    }

    #[test]
    fn merge_prefers_live_and_names_gaps() {
        let mut live = Rows::new();
        let mut replay = Rows::new();
        for (name, _) in all() {
            replay.insert(&name, 1.0);
        }
        live.insert("serve.batch_docs", 31.0);
        let merged = merge(&live, &replay).unwrap();
        assert_eq!(merged.len(), all().len());
        let row = merged.iter().find(|r| r.0 == "serve.batch_docs").unwrap();
        assert_eq!((row.2, row.3), (31.0, "live"));
        let mut partial = Rows::new();
        partial.insert("serve.batch_docs", 1.0);
        let missing = merge(&Rows::new(), &partial).unwrap_err();
        assert_eq!(missing.len(), all().len() - 1);
    }

    #[test]
    fn row_names_fit_the_benchmark_limits() {
        let names = all();
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in &names {
            assert!(n.len() <= 64 && seen.insert(n.clone()), "{n}");
            assert!(u.len() <= 16);
        }
        assert_eq!(names.len(), 48);
    }
}
