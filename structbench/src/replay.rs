//! In-process replays: the traced run's second source of per-layer rows.
//! A child process (fresh store, prepared PLM) pushes the workload's seeded
//! inputs through the program's public functions, each call inside one of
//! the benchmark's own spans, and prints the rows and spans as one JSON
//! line.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use structmine_engine::{Engine, EngineConfig, EngineSource, MethodKind, PlmSpec};
use structmine_linalg::{ExecPolicy, Matrix, PackedMatrix, Precision};
use structmine_store::obs;
use structmine_text::vocab::TokenId;
use structmine_text::Doc;

use crate::inputs::{self, Rng};
use crate::layers::{self, Rows};
use crate::report::Snapshot;
use crate::trace::Tracer;
use crate::workloads::{self, Workload};
use crate::{client, stats};

/// How long each repeated micro-measurement runs.
const MIN_MEASURE: Duration = Duration::from_millis(300);

/// Single-document reads sent to the in-process server.
const SERVE_READS: usize = 150;

/// Rows per matmul: one full Test-tier context window.
pub const MATMUL_ROWS: usize = 32;

/// The Test-tier transformer block's matmul shapes `(name, K, N)`.
pub const MATMUL_SHAPES: [(&str, usize, usize); 4] = [
    ("qkv", 32, 96),
    ("attn_out", 32, 32),
    ("ffn_in", 32, 64),
    ("ffn_out", 64, 32),
];

/// Repeat `f` until [`MIN_MEASURE`] has passed; mean seconds per call.
fn per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut n = 0u32;
    while n == 0 || start.elapsed() < MIN_MEASURE {
        f();
        n += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(n)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn engine_err(what: &str) -> impl Fn(structmine_engine::EngineError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Run `f` inside a `replay/<name>` span; its value and milliseconds.
fn timed<T>(tracer: &Tracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    tracer.record(&format!("replay/{name}"), None, start, end);
    (out, ms(end - start))
}

/// Run every replay for `workload` and return its rows; spans go to
/// `tracer`.
pub fn run(workload: Workload, seed: u64, tracer: &Tracer) -> Result<Rows, String> {
    let mut rows = Rows::new();

    // Checkpoint load first, while the process cache is still cold.
    let (plm, t) = timed(tracer, "plm.checkpoint_load", || {
        structmine_plm::cache::pretrained(structmine_plm::cache::Tier::Test, 0)
    });
    rows.insert("plm.checkpoint_load_ms", t);

    let config = EngineConfig {
        source: EngineSource::Labels(inputs::LABELS.iter().map(|s| s.to_string()).collect()),
        method: MethodKind::XClass,
        plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
        seed: None,
        exec: ExecPolicy::with_threads(1).with_precision(workload.precision()),
    };
    let (engine, t) = timed(tracer, "engine.load", || Engine::load(config));
    let engine = engine.map_err(engine_err("load"))?;
    rows.insert("engine.load_ms", t);
    let (warmed, t) = timed(tracer, "engine.warm", || engine.warm());
    warmed.map_err(engine_err("warm"))?;
    rows.insert("engine.warm_ms", t);

    let fast = engine.at_precision(Precision::Fast);
    fast.warm().map_err(engine_err("warm fast twin"))?;
    let (checked, t) = timed(tracer, "engine.selfcheck", || {
        structmine_engine::tolerance::self_check(&fast)
    });
    let report = checked.map_err(engine_err("self-check"))?;
    if !report.within_bounds() {
        return Err(format!("fast tier out of tolerance: {}", report.summary()));
    }
    rows.insert("engine.selfcheck_ms", t);

    // The workload's own documents, at its tier and batch size.
    let inputs = workloads::replay_docs(workload, seed);
    let per_doc_us = |secs: f64| secs * 1e6 / inputs.len() as f64;
    let batch = workload.classify_batch();
    let mut failed = Ok(());
    let (secs, _) = timed(tracer, "engine.classify", || {
        per_call(|| {
            for chunk in inputs.chunks(batch) {
                if let Err(e) = engine.classify(chunk) {
                    failed = Err(format!("classify: {e}"));
                }
            }
        })
    });
    failed?;
    rows.insert("engine.classify_us_per_doc", per_doc_us(secs));

    let vocab = &engine.dataset().corpus.vocab;
    let tokenize = |line: &str| -> Vec<TokenId> {
        structmine_text::tokenize::encode(line, vocab)
            .into_iter()
            .filter(|&t| t != structmine_text::vocab::UNK)
            .collect()
    };
    let (secs, _) = timed(tracer, "textkit.tokenize", || {
        per_call(|| {
            for line in &inputs {
                std::hint::black_box(tokenize(line));
            }
        })
    });
    rows.insert("textkit.tokenize_us_per_doc", per_doc_us(secs));
    let token_docs: Vec<Vec<TokenId>> = inputs.iter().map(|l| tokenize(l)).collect();
    for (p, name) in [
        (Precision::Fast, "plm.encode_us_per_doc.fast"),
        (Precision::Exact, "plm.encode_us_per_doc.exact"),
    ] {
        let policy = ExecPolicy::with_threads(1).with_precision(p);
        let (secs, _) = timed(tracer, name, || {
            per_call(|| {
                std::hint::black_box(plm.encode_docs(&token_docs, &policy));
            })
        });
        rows.insert(name, per_doc_us(secs));
    }

    // The ingest stream: corpus deltas alone, then through the engine.
    let stream = workloads::stream_deltas(seed);
    let mut delta = structmine_text::DeltaCorpus::from_corpus(engine.dataset().corpus.clone());
    let mut apply_ms = Vec::new();
    for docs in &stream {
        let next = delta.next_delta(docs.iter().map(|l| Doc::from_tokens(tokenize(l))).collect());
        let (applied, t) = timed(tracer, "textkit.delta_apply", || delta.apply(next));
        applied.map_err(|e| format!("delta apply: {e}"))?;
        apply_ms.push(t);
    }
    rows.insert(
        "textkit.delta_apply_ms",
        stats::mean(&apply_ms).expect("stream is non-empty"),
    );
    drop(delta);

    let ingester = inputs::engine(Precision::Exact)?;
    let before = Snapshot::parse(&obs_json())?;
    let rss_before = crate::procs::proc_mb(std::process::id(), "VmRSS");
    let mut ingest_ms = Vec::new();
    for docs in &stream {
        let (ingested, t) = timed(tracer, "engine.ingest", || ingester.ingest(docs));
        ingested.map_err(engine_err("ingest"))?;
        ingest_ms.push(t);
    }
    let rss_after = crate::procs::proc_mb(std::process::id(), "VmRSS");
    let d = Snapshot::parse(&obs_json())?.since(&before);
    let tenth = (ingest_ms.len() / 10).max(1);
    rows.insert(
        "engine.ingest_ms_first",
        stats::mean(&ingest_ms[..tenth]).expect("non-empty"),
    );
    rows.insert(
        "engine.ingest_ms_last",
        stats::mean(&ingest_ms[ingest_ms.len() - tenth..]).expect("non-empty"),
    );
    rows.insert(
        "store.chain_probes_per_ingest",
        d.counter_prefix_sum("store.generation.") / stream.len() as f64,
    );
    if let (Some(a), Some(b)) = (rss_before, rss_after) {
        rows.insert("store.rss_mb_per_generation", (b - a) / stream.len() as f64);
    }
    drop(ingester);

    matmuls(&mut rows, tracer);
    serve(&engine, &inputs, &mut rows, tracer)?;
    table_cell(seed, &mut rows, tracer)?;

    Ok(rows)
}

/// The live obs report of this process.
fn obs_json() -> String {
    serde_json::to_string(&obs::report("structbench-replay")).expect("report serializes")
}

/// Prepacked matmuls at each block shape and tier. FLOPs (2·M·K·N) and
/// bytes (4·(M·K + K·N + M·N)) are computed from the shapes.
fn matmuls(rows: &mut Rows, tracer: &Tracer) {
    let policy = ExecPolicy::with_threads(1);
    let mut rng = Rng::new(7);
    let mut random = |r: usize, c: usize| {
        Matrix::from_vec(
            r,
            c,
            (0..r * c)
                .map(|_| (rng.below(2001) as f32 - 1000.0) / 1000.0)
                .collect(),
        )
    };
    for (shape, k, n) in MATMUL_SHAPES {
        let a = random(MATMUL_ROWS, k);
        let packed = PackedMatrix::pack(&random(k, n));
        let mut out = Matrix::zeros(MATMUL_ROWS, n);
        for tier in ["exact", "fast"] {
            let (secs, _) = timed(tracer, &format!("linalg.matmul.{shape}.{tier}"), || {
                per_call(|| {
                    if tier == "fast" {
                        a.matmul_prepacked_fast_into_with(&packed, &policy, &mut out);
                    } else {
                        a.matmul_prepacked_into_with(&packed, &policy, &mut out);
                    }
                    std::hint::black_box(&out);
                })
            });
            let flops = 2.0 * (MATMUL_ROWS * k * n) as f64;
            rows.insert(&layers::matmul_us(shape, tier), secs * 1e6);
            rows.insert(&layers::matmul_gflops(shape, tier), flops / secs / 1e9);
        }
    }
}

/// Single-document reads through an in-process server, for the serve rows
/// of a workload that runs no server of its own.
fn serve(engine: &Engine, docs: &[String], rows: &mut Rows, tracer: &Tracer) -> Result<(), String> {
    let twin = Arc::new(engine.at_precision(Precision::Exact));
    twin.warm().map_err(engine_err("warm serve engine"))?;
    let mut server = structmine_serve::Server::start(
        twin,
        structmine_serve::ServeConfig {
            port: 0,
            ..Default::default()
        },
    )
    .map_err(|e| format!("start in-process server: {e}"))?;
    let addr = server.addr();
    let before = Snapshot::parse(&client::get_ok(addr, "/stats")?)?;
    let mut rtt_ms = Vec::new();
    for doc in docs.iter().cycle().take(SERVE_READS) {
        let (r, t) = timed(tracer, "client.classify", || {
            client::request(addr, "POST", "/classify", doc)
        });
        if r?.status != 200 {
            return Err("in-process /classify: status not 200".into());
        }
        rtt_ms.push(t);
    }
    let after = Snapshot::parse(&client::get_ok(addr, "/stats")?)?;
    server.stop();
    layers::serve_rows(&after.since(&before), &rtt_ms, 1, rows);
    Ok(())
}

/// One cell of the X-Class table (agnews at the table's scale): corpus
/// adaptation, word vectors, WeSTClass and X-Class, as the table runs them.
fn table_cell(seed: u64, rows: &mut Rows, tracer: &Tracer) -> Result<(), String> {
    let d = structmine_text::synth::recipes::agnews(workloads::TABLE_SCALE, 1 + seed % 3)
        .map_err(|e| format!("agnews: {e}"))?;
    let before = Snapshot::parse(&obs_json())?;
    let (_, t) = timed(tracer, "plm.adapt", || {
        structmine_engine::loaders::adapted_plm(&d, 1)
    });
    rows.insert("plm.adapt_ms", t);
    let (_, t) = timed(tracer, "embed.sgns", || {
        structmine_engine::loaders::standard_word_vectors(&d)
    });
    rows.insert("embed.sgns_ms", t);
    let engine = |method| {
        Engine::load(EngineConfig {
            source: EngineSource::Dataset(Box::new(d.clone())),
            method,
            plm: PlmSpec::Adapted { seed: 1 },
            seed: Some(1),
            exec: ExecPolicy::default(),
        })
        .map_err(engine_err("load table engine"))
    };
    let west = engine(MethodKind::WeSTClass)?;
    let (fitted, t) = timed(tracer, "nn.westclass", || west.fitted_predictions());
    fitted.map_err(engine_err("westclass"))?;
    rows.insert("nn.westclass_train_ms", t);
    let x = engine(MethodKind::XClass)?;
    let (fitted, t) = timed(tracer, "core.xclass", || x.xclass_output());
    fitted.map_err(engine_err("xclass"))?;
    rows.insert("core.xclass_ms", t);
    // The supervised bound is the table's consumer of document mean reps.
    let supervised = engine(MethodKind::Supervised)?;
    let (fitted, _) = timed(tracer, "core.supervised", || {
        supervised.fitted_predictions()
    });
    fitted.map_err(engine_err("supervised"))?;
    let d = Snapshot::parse(&obs_json())?.since(&before);
    rows.insert("plm.doc_mean_reps_ms", d.label_ms("plm/doc-mean-reps"));
    Ok(())
}

/// Child-process entry: run the replays and print rows and spans as JSON.
pub fn main(workload: Workload, seed: u64) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let rows = run(workload, seed, &tracer)?;
    let fields: Vec<String> = rows.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!(
        "{{\"rows\":{{{}}},\"spans\":{}}}",
        fields.join(","),
        tracer.to_json().replace('\n', "")
    );
    Ok(())
}

/// Parse [`main`]'s output line.
pub fn parse(line: &str) -> Result<(BTreeMap<String, f64>, Vec<crate::trace::Span>), String> {
    use serde::Value;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("parse replay output: {e}"))?;
    let Value::Map(top) = &v else {
        return Err("replay output is not an object".into());
    };
    let mut rows = BTreeMap::new();
    let mut spans = Vec::new();
    for (k, val) in top {
        match (k.as_str(), val) {
            ("rows", Value::Map(entries)) => {
                for (name, x) in entries {
                    let x = match x {
                        Value::Float(f) => *f,
                        Value::UInt(n) => *n as f64,
                        Value::Int(n) => *n as f64,
                        _ => return Err(format!("replay row {name} is not a number")),
                    };
                    rows.insert(name.clone(), x);
                }
            }
            ("spans", s) => spans = crate::trace::parse_spans(s),
            _ => {}
        }
    }
    Ok((rows, spans))
}
