//! Sharded encode phase for the table binaries (DESIGN §12).
//!
//! `--shards N` (or `STRUCTMINE_SHARDS`) runs a supervised multi-process
//! encode pass before the table body: every E4 X-Class cell's document
//! representations are computed shard-by-shard across N worker processes
//! (this binary re-entered in worker mode), then merged in shard-index
//! order into the canonical per-cell artifact the table body replays. The
//! table's stdout is byte-identical for any shard count — sharding only
//! changes *where* the representations are computed, never their bytes.
//! Worker crashes restart and resume from the shared artifact store;
//! persistent failures shed the worker to an in-process fallback.

use crate::BenchConfig;
use std::path::Path;
use structmine_engine::{Engine, EngineConfig, EngineSource, MethodKind, PlmSpec};
use structmine_linalg::ExecPolicy;
use structmine_shard::WorkerSpec;
use structmine_store::{obs, PipelineError};
use structmine_text::synth::recipes;

/// Field separator inside a worker job string (unit separator: cannot
/// occur in the numbers the harness encodes).
const JOB_SEP: char = '\u{1f}';

/// Render the encode job. Every worker gets the same string and derives
/// its own document range from its spec.
fn encode_job(cfg: &BenchConfig) -> String {
    ["encode", &cfg.scale.to_string(), &cfg.seeds.to_string()].join(&JOB_SEP.to_string())
}

fn synth_error(e: structmine_text::synth::SynthError) -> PipelineError {
    PipelineError::InvalidInput(e.to_string())
}

fn engine_error(e: structmine_engine::EngineError) -> PipelineError {
    PipelineError::InvalidInput(e.to_string())
}

/// The (dataset, seed) cells the encode phase pre-warms: exactly the E4
/// X-Class cells — the table family the determinism matrix compares
/// byte-for-byte across shard counts.
fn cells(cfg: &BenchConfig) -> Vec<(&'static str, u64)> {
    let mut v = Vec::new();
    for ds in crate::exps::xclass::DATASETS {
        for seed in cfg.seed_values() {
            v.push((*ds, seed));
        }
    }
    v
}

/// Load the engine for one E4 cell with the same configuration the table
/// body uses, so the shard artifacts land under the keys the body replays.
fn cell_engine(ds: &str, scale: f32, seed: u64) -> Result<Engine, PipelineError> {
    let d = recipes::by_name(ds, scale, seed).map_err(synth_error)?;
    Engine::load(EngineConfig {
        source: EngineSource::Dataset(Box::new(d)),
        method: MethodKind::XClass,
        plm: PlmSpec::Adapted { seed },
        seed: Some(seed),
        exec: ExecPolicy::default(),
    })
    .map_err(engine_error)
}

/// Decode and run one worker job: encode this worker's shard of every E4
/// cell through the shared store. Also the coordinator's in-process
/// fallback when a worker is shed — identical code path, identical bytes.
pub(crate) fn worker_job(spec: &WorkerSpec) -> Result<Vec<u8>, PipelineError> {
    let parts: Vec<&str> = spec.job.split(JOB_SEP).collect();
    match parts.as_slice() {
        ["encode", scale, seeds] => {
            let scale: f32 = scale.parse().map_err(|_| {
                PipelineError::InvalidInput(format!("bad scale in worker job: {scale}"))
            })?;
            let seeds: u64 = seeds.parse().map_err(|_| {
                PipelineError::InvalidInput(format!("bad seed count in worker job: {seeds}"))
            })?;
            let cfg = BenchConfig { scale, seeds };
            let mut encoded = 0usize;
            for (ds, seed) in cells(&cfg) {
                let engine = cell_engine(ds, cfg.scale, seed)?;
                engine
                    .shard_encode(spec.shard_index, spec.shard_count)
                    .map_err(engine_error)?;
                encoded += 1;
            }
            Ok(format!(
                "encoded {encoded} cells in shard {}/{}\n",
                spec.shard_index, spec.shard_count
            )
            .into_bytes())
        }
        _ => Err(PipelineError::InvalidInput(format!(
            "unrecognized worker job: {}",
            spec.job
        ))),
    }
}

/// Worker-mode gate, called first thing in [`crate::run_table`]: when a
/// supervising coordinator points `STRUCTMINE_WORKER_SPEC` at a spec file,
/// this process is a shard worker — it runs the encode job and exits,
/// ignoring argv. Exit taxonomy: 0 success, 1 transient (worth a restart),
/// 2 persistent.
pub(crate) fn maybe_worker() {
    let spec = match WorkerSpec::from_env() {
        Ok(Some(spec)) => spec,
        Ok(None) => return,
        Err(e) => {
            obs::log_warn(&format!("error: {e}"));
            std::process::exit(2);
        }
    };
    let result = structmine_shard::worker::run_job(&spec, worker_job);
    obs::write_report_if_configured("bench-worker");
    match result {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            obs::log_warn(&format!("worker {} error: {e}", spec.shard_index));
            let code = if structmine_shard::worker::is_transient(&e) {
                1
            } else {
                2
            };
            std::process::exit(code);
        }
    }
}

/// Coordinator side: spawn `shards` workers re-entering this binary, wait
/// for every shard of every E4 cell, then merge each cell's shards in
/// shard-index order, publishing the canonical document representations
/// the table body replays warm.
pub(crate) fn encode_phase(cfg: &BenchConfig, shards: usize) -> Result<(), PipelineError> {
    let work_dir =
        std::env::temp_dir().join(format!("structmine-bench-shard-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| PipelineError::Io {
        context: format!("creating shard work dir {}", work_dir.display()),
        source: e,
    })?;
    obs::log_info(&format!(
        "sharded encode: {} E4 cells across {shards} worker(s) ...",
        cells(cfg).len()
    ));
    let cfg_sup = structmine_shard::SupervisorConfig::from_env(shards);
    let sup = structmine_shard::Supervisor::new(cfg_sup, &work_dir);
    let exe = std::env::current_exe().map_err(|e| PipelineError::Io {
        context: "resolving current executable for worker spawn".into(),
        source: e,
    })?;
    let make = |_i: usize, _spec: &Path| std::process::Command::new(&exe);
    let jobs = vec![encode_job(cfg); shards];
    let (_outputs, outcomes) = sup.run(&jobs, &make, &worker_job)?;
    for (ds, seed) in cells(cfg) {
        let engine = cell_engine(ds, cfg.scale, seed)?;
        engine.shard_merge(shards).map_err(engine_error)?;
    }
    obs::log_info(&format!(
        "sharded encode complete: {} worker(s), {} restart(s), {} degraded",
        outcomes.len(),
        outcomes.iter().map(|o| u64::from(o.restarts)).sum::<u64>(),
        outcomes.iter().filter(|o| o.degraded).count(),
    ));
    let _ = std::fs::remove_dir_all(&work_dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_job_round_trips_through_the_worker_parser() {
        let cfg = BenchConfig {
            scale: 0.05,
            seeds: 1,
        };
        let job = encode_job(&cfg);
        let parts: Vec<&str> = job.split(JOB_SEP).collect();
        assert_eq!(parts[0], "encode");
        assert_eq!(parts[1].parse::<f32>().unwrap(), 0.05);
        assert_eq!(parts[2].parse::<u64>().unwrap(), 1);
    }

    #[test]
    fn cell_list_covers_every_dataset_seed_pair() {
        let cfg = BenchConfig {
            scale: 0.05,
            seeds: 2,
        };
        let got = cells(&cfg);
        assert_eq!(got.len(), crate::exps::xclass::DATASETS.len() * 2);
        assert!(got.contains(&("agnews", 1)));
        assert!(got.contains(&("dbpedia", 2)));
    }

    #[test]
    fn malformed_worker_jobs_are_persistent_errors() {
        let spec = WorkerSpec {
            shard_index: 0,
            shard_count: 1,
            job: "mystery".into(),
            out: "/dev/null".into(),
            heartbeat: "/dev/null".into(),
            heartbeat_ms: 50,
        };
        let err = worker_job(&spec).unwrap_err();
        assert!(!structmine_shard::worker::is_transient(&err));
    }
}
