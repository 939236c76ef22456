//! `structmine` — command-line weakly-supervised text classification.
//!
//! ```text
//! structmine classify --labels sports,business,technology [--method xclass]
//!                     [--input docs.txt] [--tier test|standard]
//!                     [--precision exact|fast]
//! structmine ingest   --labels sports,business,technology [--method xclass]
//!                     [--input docs.txt] [--tier test|standard]
//! structmine demo     --recipe agnews [--method westclass] [--scale 0.15]
//! structmine datasets
//! ```
//!
//! `classify` reads one document per line (stdin or `--input`) and routes it
//! through [`structmine_engine::Engine`] — the same load-once/run-many entry
//! point used by `structmine-serve` — printing one
//! `label<TAB>confidence<TAB>doc` line per input. `ingest` numbers each
//! blank-line-delimited batch as the corpus's next generation and
//! classifies it immediately (receipt line plus the same prediction lines
//! `classify` prints), flushed per batch so piping `tail -f` works. `demo`
//! runs a method on a synthetic recipe and reports test accuracy.
//! `datasets` lists the available recipes.
//!
//! Failures surface as [`PipelineError`]s: usage-level mistakes (unknown
//! method/recipe, malformed `--faults` plan, bad input) exit with code 2,
//! environment failures (unreadable input file) with code 1.

use std::io::BufRead;
use std::process::ExitCode;
use structmine_plm::cache::Tier;
use structmine_store::PipelineError;

mod args;

use args::{Args, ParseError};

fn main() -> ExitCode {
    structmine_store::obs::init();
    // Worker mode (DESIGN §12): when a supervising coordinator points
    // STRUCTMINE_WORKER_SPEC at a spec file, this process is a shard worker
    // — it runs exactly the job the spec names and exits, ignoring argv.
    match structmine_shard::WorkerSpec::from_env() {
        Ok(Some(spec)) => return worker_main(&spec),
        Ok(None) => {}
        Err(e) => {
            structmine_store::obs::log_warn(&format!("error: {e}"));
            return ExitCode::from(2);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match args::parse(&argv) {
        Ok(Args::Classify {
            labels,
            method,
            input,
            tier,
            threads,
            precision,
            cache,
        }) => apply_cache_flags(&cache)
            .and_then(|()| classify(labels, method, input, tier, policy(threads, precision))),
        Ok(Args::Shard {
            labels,
            method,
            input,
            tier,
            threads,
            shards,
            precision,
            cache,
        }) => apply_cache_flags(&cache).and_then(|()| {
            shard(
                labels,
                method,
                input,
                tier,
                shards,
                policy(threads, precision),
            )
        }),
        Ok(Args::Ingest {
            labels,
            method,
            input,
            tier,
            threads,
            precision,
            cache,
        }) => apply_cache_flags(&cache)
            .and_then(|()| ingest(labels, method, input, tier, policy(threads, precision))),
        Ok(Args::Demo {
            recipe,
            method,
            scale,
            seed,
            threads,
            cache,
        }) => apply_cache_flags(&cache)
            .and_then(|()| demo(recipe, method, scale, seed, policy(threads, None))),
        Ok(Args::Datasets) => datasets(),
        Ok(Args::Help) => {
            println!("{}", args::USAGE);
            Ok(())
        }
        Err(ParseError(msg)) => {
            structmine_store::obs::log_warn(&format!("error: {msg}\n\n{}", args::USAGE));
            return ExitCode::from(2);
        }
    };
    // Write the JSON run report (when configured) on success *and* failure —
    // a failed run's partial timings and counters are exactly what you want
    // when debugging it.
    structmine_store::obs::write_report_if_configured("structmine");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            structmine_store::obs::log_warn(&format!("error: {e}"));
            match e {
                // Usage-level mistakes and persistent shard failures (a
                // retry cannot fix them): exit 2, like argument parse
                // errors.
                PipelineError::Unknown { .. }
                | PipelineError::InvalidFaultPlan(_)
                | PipelineError::InvalidInput(_)
                | PipelineError::Shard {
                    transient: false, ..
                } => ExitCode::from(2),
                _ => ExitCode::FAILURE,
            }
        }
    }
}

/// Resolve `--threads` / `--precision` into the execution policy used for
/// PLM inference.
///
/// The environment variables are also set so code that consults the
/// process-global policy (e.g. the matmul routing in `structmine_linalg`)
/// agrees with the flags — this runs before the global policy is first
/// read. The precision tier is always exported at its resolved value, so
/// the run report's config fingerprint names the tier even on defaults.
fn policy(
    threads: Option<usize>,
    precision: Option<structmine_linalg::Precision>,
) -> structmine_linalg::ExecPolicy {
    let precision = precision.unwrap_or_else(structmine_linalg::Precision::from_env);
    std::env::set_var("STRUCTMINE_PRECISION", precision.name());
    match threads {
        Some(n) => {
            std::env::set_var("STRUCTMINE_THREADS", n.to_string());
            structmine_linalg::ExecPolicy::with_threads(n)
        }
        None => structmine_linalg::ExecPolicy::default(),
    }
    .with_precision(precision)
}

/// Apply `--no-cache` / `--cache-dir` / `--faults` by setting the
/// artifact-store environment variables — this runs before the global store
/// (or the PLM pretraining store) is first read, so the flags take full
/// effect. A malformed fault plan is rejected here, before any work runs.
fn apply_cache_flags(cache: &args::CacheArgs) -> Result<(), PipelineError> {
    if cache.no_cache {
        std::env::set_var("STRUCTMINE_NO_CACHE", "1");
    }
    if let Some(dir) = &cache.dir {
        std::env::set_var("STRUCTMINE_STORE_DIR", dir);
        std::env::set_var("STRUCTMINE_PLM_CACHE_DIR", dir);
    }
    if let Some(plan) = &cache.faults {
        structmine_store::FaultPlan::parse(plan)?;
        std::env::set_var("STRUCTMINE_FAULTS", plan);
    }
    if let Some(path) = &cache.report_json {
        std::env::set_var(structmine_store::obs::REPORT_ENV, path);
    }
    Ok(())
}

/// Map a dataset-construction failure into the CLI's error taxonomy: an
/// unknown recipe name is a usage mistake (exit 2, like any unknown-name
/// error), and any other synthesis failure is invalid input — never a panic.
fn synth_error(e: structmine_text::synth::SynthError) -> PipelineError {
    match e {
        structmine_text::synth::SynthError::UnknownRecipe { name } => PipelineError::Unknown {
            what: "recipe",
            name,
            expected: structmine_text::synth::ALL_RECIPES.join(", "),
        },
        other => PipelineError::InvalidInput(other.to_string()),
    }
}

/// Map an [`EngineError`] into the CLI's error taxonomy. Dataset-synthesis
/// failures reuse [`synth_error`]; everything else (bad labels, a method
/// that cannot serve) is a usage-level mistake.
fn engine_error(e: structmine_engine::EngineError) -> PipelineError {
    match e {
        structmine_engine::EngineError::Synth(s) => synth_error(s),
        other => PipelineError::InvalidInput(other.to_string()),
    }
}

/// Read non-empty document lines from `--input` (or stdin), erroring on an
/// empty document set. Shared by `classify` and the shard coordinator, so
/// both commands see the identical line list.
fn read_documents(input: &Option<String>) -> Result<Vec<String>, PipelineError> {
    let lines: Vec<String> = match input {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| PipelineError::Io {
                context: format!("reading --input {path}"),
                source: e,
            })?
            .lines()
            .map(|l| l.to_string())
            .collect(),
        None => std::io::stdin()
            .lock()
            .lines()
            .map_while(Result::ok)
            .collect(),
    };
    let lines: Vec<String> = lines.into_iter().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err(PipelineError::InvalidInput("no input documents".into()));
    }
    Ok(lines)
}

fn classify(
    labels: Vec<String>,
    method: String,
    input: Option<String>,
    tier: Tier,
    exec: structmine_linalg::ExecPolicy,
) -> Result<(), PipelineError> {
    let lines = read_documents(&input)?;
    structmine_store::obs::log_info(&format!(
        "classifying {} documents into {:?} with {method} ...",
        lines.len(),
        labels
    ));
    let engine = serving_engine(labels, &method, tier, exec)?;
    let preds = engine.classify(&lines).map_err(engine_error)?;
    for (pred, line) in preds.iter().zip(&lines) {
        println!("{}", structmine_engine::format_prediction_line(pred, line));
    }
    Ok(())
}

/// Load a label-names serving engine for `classify` / `ingest`, rejecting
/// non-servable methods as a usage error.
fn serving_engine(
    labels: Vec<String>,
    method: &str,
    tier: Tier,
    exec: structmine_linalg::ExecPolicy,
) -> Result<structmine_engine::Engine, PipelineError> {
    let kind = structmine_engine::MethodKind::parse(method)
        .filter(|k| k.servable())
        .ok_or_else(|| PipelineError::Unknown {
            what: "method",
            name: method.to_string(),
            expected: "xclass, lotclass, prompt, match".into(),
        })?;
    structmine_engine::Engine::load(structmine_engine::EngineConfig {
        source: structmine_engine::EngineSource::Labels(labels),
        method: kind,
        plm: structmine_engine::PlmSpec::Pretrained(tier),
        seed: None,
        exec,
    })
    .map_err(engine_error)
}

/// Field separator inside a worker job string (unit separator: cannot
/// occur in labels, method names, tiers, or paths the CLI builds).
const JOB_SEP: char = '\u{1f}';

/// Render a classify job for worker `i` of the shard run. The worker
/// derives its own document range from its spec, so every worker gets the
/// same job string. The precision tier rides in the job itself (not just
/// the inherited environment): a worker must classify at exactly the tier
/// the coordinator merged for, whatever its own environment says.
fn encode_classify_job(
    labels: &[String],
    method: &str,
    tier: Tier,
    precision: structmine_linalg::Precision,
    input: &std::path::Path,
) -> String {
    [
        "classify",
        &labels.join(","),
        method,
        tier.name(),
        precision.name(),
        &input.display().to_string(),
    ]
    .join(&JOB_SEP.to_string())
}

/// Worker-mode entry: run the spec's job under the shard runtime
/// (heartbeat, atomic publish), mapping errors onto the exit-status
/// taxonomy the coordinator supervises by — exit 2 persistent, exit 1
/// transient.
fn worker_main(spec: &structmine_shard::WorkerSpec) -> ExitCode {
    let result = structmine_shard::worker::run_job(spec, worker_job);
    structmine_store::obs::write_report_if_configured("structmine-worker");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            structmine_store::obs::log_warn(&format!("worker {} error: {e}", spec.shard_index));
            if structmine_shard::worker::is_transient(&e) {
                ExitCode::FAILURE
            } else {
                ExitCode::from(2)
            }
        }
    }
}

/// Decode and run one worker job. Also the coordinator's in-process
/// fallback when a worker is shed — identical code path, identical bytes.
fn worker_job(spec: &structmine_shard::WorkerSpec) -> Result<Vec<u8>, PipelineError> {
    let parts: Vec<&str> = spec.job.split(JOB_SEP).collect();
    match parts.as_slice() {
        ["classify", labels, method, tier, precision, input] => {
            let precision = structmine_linalg::Precision::parse(precision)
                .map_err(PipelineError::InvalidInput)?;
            let tier = Tier::parse(tier).map_err(PipelineError::InvalidInput)?;
            let labels: Vec<String> = labels.split(',').map(str::to_string).collect();
            let lines = read_documents(&Some(input.to_string()))?;
            let range =
                structmine_shard::shard_range(lines.len(), spec.shard_index, spec.shard_count);
            let engine = serving_engine(labels, method, tier, policy(None, Some(precision)))?;
            // Encode this worker's shard of the fit corpus through the
            // shared store: the lease-claimed, content-addressed shard
            // artifact is what a restarted incarnation resumes from.
            engine
                .shard_encode(spec.shard_index, spec.shard_count)
                .map_err(engine_error)?;
            let slice = &lines[range];
            let preds = engine.classify(slice).map_err(engine_error)?;
            let mut out = String::new();
            for (pred, line) in preds.iter().zip(slice) {
                out.push_str(&structmine_engine::format_prediction_line(pred, line));
                out.push('\n');
            }
            Ok(out.into_bytes())
        }
        _ => Err(PipelineError::InvalidInput(format!(
            "unrecognized worker job: {}",
            spec.job
        ))),
    }
}

/// `structmine shard`: classify through a supervising coordinator and N
/// worker processes (DESIGN §12). Stdout is byte-identical to `classify`
/// for any shard count; worker crashes restart and resume from the shared
/// artifact store; persistent failures degrade to in-process execution.
fn shard(
    labels: Vec<String>,
    method: String,
    input: Option<String>,
    tier: Tier,
    shards: Option<usize>,
    exec: structmine_linalg::ExecPolicy,
) -> Result<(), PipelineError> {
    use std::io::Write as _;
    let shards = match shards {
        Some(n) => n,
        None => structmine_shard::shards_from_env()?.unwrap_or(1),
    };
    // Reject usage mistakes before any process is spawned.
    structmine_engine::MethodKind::parse(&method)
        .filter(|k| k.servable())
        .ok_or_else(|| PipelineError::Unknown {
            what: "method",
            name: method.clone(),
            expected: "xclass, lotclass, prompt, match".into(),
        })?;
    let lines = read_documents(&input)?;

    let work_dir = std::env::temp_dir().join(format!("structmine-shard-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| PipelineError::Io {
        context: format!("creating shard work dir {}", work_dir.display()),
        source: e,
    })?;
    let input_path = work_dir.join("input.txt");
    std::fs::write(&input_path, lines.join("\n") + "\n").map_err(|e| PipelineError::Io {
        context: format!("writing shard input {}", input_path.display()),
        source: e,
    })?;

    structmine_store::obs::log_info(&format!(
        "sharding {} documents across {shards} worker(s) with {method} ...",
        lines.len()
    ));
    let cfg = structmine_shard::SupervisorConfig::from_env(shards);
    let sup = structmine_shard::Supervisor::new(cfg, &work_dir);
    let exe = std::env::current_exe().map_err(|e| PipelineError::Io {
        context: "resolving current executable for worker spawn".into(),
        source: e,
    })?;
    let make = |_i: usize, _spec: &std::path::Path| std::process::Command::new(&exe);
    let jobs =
        vec![encode_classify_job(&labels, &method, tier, exec.precision(), &input_path); shards];
    let (outputs, outcomes) = sup.run(&jobs, &make, &worker_job)?;

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for path in &outputs {
        let bytes = std::fs::read(path).map_err(|e| PipelineError::Io {
            context: format!("reading shard output {}", path.display()),
            source: e,
        })?;
        out.write_all(&bytes).map_err(|e| PipelineError::Io {
            context: "writing merged output".into(),
            source: e,
        })?;
    }
    let _ = out.flush();
    structmine_store::obs::log_info(&format!(
        "shard run complete: {} worker(s), {} restart(s), {} degraded",
        outcomes.len(),
        outcomes.iter().map(|o| u64::from(o.restarts)).sum::<u64>(),
        outcomes.iter().filter(|o| o.degraded).count(),
    ));
    let _ = std::fs::remove_dir_all(&work_dir);
    Ok(())
}

/// `structmine ingest`: stream blank-line-delimited batches of documents
/// through the engine. Each batch is numbered as the next generation and
/// classified immediately — a `generation<TAB>g` receipt line, then one
/// prediction line per document, flushed per batch so
/// `tail -f log | structmine ingest ...` emits results as batches arrive.
fn ingest(
    labels: Vec<String>,
    method: String,
    input: Option<String>,
    tier: Tier,
    exec: structmine_linalg::ExecPolicy,
) -> Result<(), PipelineError> {
    use std::io::Write as _;
    let engine = serving_engine(labels, &method, tier, exec)?;
    engine.warm().map_err(engine_error)?;

    let mut total = 0usize;
    let mut flush_batch = |batch: &mut Vec<String>| -> Result<(), PipelineError> {
        if batch.is_empty() {
            return Ok(());
        }
        let ingested = engine.ingest(batch).map_err(engine_error)?;
        let out = std::io::stdout();
        let mut out = out.lock();
        let _ = writeln!(out, "generation\t{}", ingested.generation);
        for (pred, line) in ingested.predictions.iter().zip(batch.iter()) {
            let _ = writeln!(
                out,
                "{}",
                structmine_engine::format_prediction_line(pred, line)
            );
        }
        let _ = out.flush();
        total += batch.len();
        batch.clear();
        Ok(())
    };

    let mut batch: Vec<String> = Vec::new();
    match &input {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| PipelineError::Io {
                context: format!("reading --input {path}"),
                source: e,
            })?;
            for line in text.lines() {
                if line.trim().is_empty() {
                    flush_batch(&mut batch)?;
                } else {
                    batch.push(line.to_string());
                }
            }
        }
        None => {
            // Streaming: each line arrives as it is written to the pipe; a
            // blank line closes the current batch.
            for line in std::io::stdin().lock().lines().map_while(Result::ok) {
                if line.trim().is_empty() {
                    flush_batch(&mut batch)?;
                } else {
                    batch.push(line);
                }
            }
        }
    }
    flush_batch(&mut batch)?;
    if total == 0 {
        return Err(PipelineError::InvalidInput("no input documents".into()));
    }
    Ok(())
}

fn demo(
    recipe: String,
    method: String,
    scale: f32,
    seed: u64,
    exec: structmine_linalg::ExecPolicy,
) -> Result<(), PipelineError> {
    let kind =
        structmine_engine::MethodKind::parse(&method).ok_or_else(|| PipelineError::Unknown {
            what: "method",
            name: method.clone(),
            expected: "westclass, xclass, lotclass, conwea, prompt, match, supervised".into(),
        })?;
    let engine = structmine_engine::Engine::load(structmine_engine::EngineConfig {
        source: structmine_engine::EngineSource::Recipe {
            name: recipe.clone(),
            scale,
            seed,
        },
        method: kind,
        plm: structmine_engine::PlmSpec::Pretrained(Tier::Test),
        seed: None,
        exec,
    })
    .map_err(engine_error)?;
    let dataset = engine.dataset();
    structmine_store::obs::log_info(&format!(
        "recipe {recipe}: {} docs, {} classes (scale {scale}, seed {seed})",
        dataset.corpus.len(),
        dataset.n_classes()
    ));
    let preds = engine.fitted_predictions().map_err(engine_error)?;
    let test: Vec<usize> = dataset.test_idx.iter().map(|&i| preds[i]).collect();
    let acc = structmine_eval::accuracy(&test, &dataset.test_gold());
    let macro_f1 = structmine_eval::macro_f1(&test, &dataset.test_gold(), dataset.n_classes());
    // The metrics return NaN on an empty test split (undefined, not zero);
    // name the condition instead of printing "NaN" as if it were a score.
    let fmt = |v: f32| {
        if v.is_nan() {
            "n/a (empty test split)".to_string()
        } else {
            format!("{v:.3}")
        }
    };
    println!(
        "{method} on {recipe}: accuracy {}, macro-F1 {}",
        fmt(acc),
        fmt(macro_f1)
    );
    Ok(())
}

fn datasets() -> Result<(), PipelineError> {
    println!("available recipes (synthetic stand-ins; see DESIGN.md):");
    for name in structmine_text::synth::ALL_RECIPES {
        let d = structmine_text::synth::by_name(name, 0.05, 1).map_err(synth_error)?;
        let kind = match (&d.taxonomy, d.meta.n_users + d.meta.n_authors > 0) {
            (Some(t), _) if !t.is_tree() => "DAG multi-label",
            (Some(_), _) => "tree hierarchy",
            (None, true) => "flat + metadata",
            (None, false) => "flat",
        };
        println!("  {name:<18} {:>3} classes  {kind}", d.n_classes());
    }
    Ok(())
}
