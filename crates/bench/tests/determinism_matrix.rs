//! The determinism matrix (DESIGN §9): output bytes never depend on how a
//! run is executed. Every cell spawns `table_xclass` at the golden's
//! configuration (Test-tier PLM, 50 adapt steps, scale 0.05, one seed) and
//! must print exactly `ci/golden/table_xclass_test.out`. The eight cells
//! below hold every pair of values of four axes: threads {1, 4}; shards
//! {1 (in process), 4}; store {cold, warm, mixed fault plan, warmed by a
//! Fast-tier run}; run report {off, on}.
//!
//! | cell                | threads | shards | store                     | report |
//! |---------------------|---------|--------|---------------------------|--------|
//! | `cold-t1-s1`        | 1       | 1      | cold                      | off    |
//! | `warm-t1-s4`        | 1       | 4      | warm from `cold-t1-s1`    | on     |
//! | `cold-t4-s4`        | 4       | 4      | cold                      | on     |
//! | `warm-t4-s1`        | 4       | 1      | warm from `cold-t4-s4`    | off    |
//! | `faults-t1-s1`      | 1       | 1      | cold, mixed fault plan    | on     |
//! | `faults-t4-s4`      | 4       | 4      | cold, mixed fault plan    | off    |
//! | `fast-warmed-t1-s4` | 1       | 4      | warmed by a Fast run      | off    |
//! | `fast-warmed-t4-s1` | 4       | 1      | warmed by a Fast run      | on     |
//!
//! Three cells go beyond the pairs: `kill-worker` (4 shards; worker 0
//! aborts after its first store write and is restarted), `kill-resume`
//! (the whole run aborts after its third store write, then a rerun over
//! the same store resumes) and `run-all` (a cold `run_all`, held to
//! `ci/golden/run_all_test.out`). Before any cell starts, one
//! `tolerance_check` run loads the shared PLM checkpoint, pretraining it if
//! absent, and must pass the Fast tier's tolerance gate.
//!
//! Dropped: the full product has 32 cells. For each store state the table
//! runs two complementary (threads, shards, report) triples and drops the
//! other six. `--shards 1` (one worker process) is not run: shards=1 cells
//! run in process, the golden's own configuration.
//!
//! Every run pins its whole `STRUCTMINE_*` environment; inherited values
//! are cleared. All runs share one PLM checkpoint directory:
//! `STRUCTMINE_PLM_CACHE_DIR` when set, else the system temp directory
//! (the binaries' own default).

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;
use structmine_store::obs;

const TABLE_XCLASS: &str = env!("CARGO_BIN_EXE_table_xclass");
const RUN_ALL: &str = env!("CARGO_BIN_EXE_run_all");
const TABLE_GOLDEN: &str = include_str!("../../../ci/golden/table_xclass_test.out");
const RUN_ALL_GOLDEN: &str = include_str!("../../../ci/golden/run_all_test.out");

/// The environment both goldens were captured under.
const GOLDEN_ENV: [(&str, &str); 4] = [
    ("STRUCTMINE_PLM_TIER", "test"),
    ("STRUCTMINE_ADAPT_STEPS", "50"),
    ("STRUCTMINE_SCALE", "0.05"),
    ("STRUCTMINE_SEEDS", "1"),
];

const MIXED_FAULTS: &str = "disk_write=0.2,disk_read=0.1,truncate=0.05;seed=7";

/// Stages a cold, report-on `table_xclass` run must name.
const XCLASS_STAGES: &[&str] = &[
    "xclass/predict",
    "xclass/doc-reps",
    "xclass/classify",
    "westclass/run",
    "westclass/train",
    "embed/sgns-word-vectors",
    "plm/encode-corpus",
];

/// One stage per method: a cold `run_all` report must name all nine.
const RUN_ALL_STAGES: &[&str] = &[
    "xclass/predict",
    "westclass/run",
    "weshclass/run",
    "conwea/run",
    "lotclass/predict",
    "taxoclass/run",
    "metacat/run",
    "micol/run",
    "promptclass/run",
];

/// The shared PLM checkpoint directory and the `tolerance_check` run that
/// warmed it before the first cell ran, so that cells running in parallel
/// never pretrain the checkpoint twice.
fn warmup() -> &'static (PathBuf, Output) {
    static WARMUP: OnceLock<(PathBuf, Output)> = OnceLock::new();
    WARMUP.get_or_init(|| {
        let plm = std::env::var_os("STRUCTMINE_PLM_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = run_dir("tolerance");
        let out = pinned(env!("CARGO_BIN_EXE_tolerance_check"), &dir, &plm, 1)
            .output()
            .expect("spawn tolerance_check");
        let _ = std::fs::remove_dir_all(&dir);
        (plm, out)
    })
}

/// A fresh working directory for one chain of runs; its `store`
/// subdirectory is their artifact store.
fn run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("structmine-matrix-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create run dir");
    dir
}

/// `bin` with every inherited `STRUCTMINE_*` variable cleared and the
/// golden's configuration pinned, running in `dir` over `dir/store`.
fn pinned(bin: &str, dir: &Path, plm: &Path, threads: usize) -> Command {
    let mut cmd = Command::new(bin);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("STRUCTMINE_") {
            cmd.env_remove(key);
        }
    }
    cmd.current_dir(dir)
        .envs(GOLDEN_ENV)
        .env("STRUCTMINE_THREADS", threads.to_string())
        .env("STRUCTMINE_STORE_DIR", dir.join("store"))
        .env("STRUCTMINE_PLM_CACHE_DIR", plm);
    cmd
}

/// How one cell runs; everything else is pinned.
#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    threads: usize,
    shards: usize,
    report: bool,
}

const fn cell(name: &'static str, threads: usize, shards: usize, report: bool) -> Cell {
    Cell {
        name,
        threads,
        shards,
        report,
    }
}

/// What a cell's run left behind.
struct Run {
    cell: &'static str,
    out: Output,
    report: Option<Value>,
}

impl Cell {
    /// Run `table_xclass` over `dir`'s store.
    fn table(self, dir: &Path) -> Run {
        self.run(TABLE_XCLASS, dir, None, &[])
    }

    /// Run `bin` over `dir`'s store under an optional fault plan, with
    /// `extra` arguments. A report-on run's report must pass the schema.
    fn run(self, bin: &str, dir: &Path, faults: Option<&str>, extra: &[&str]) -> Run {
        let mut cmd = pinned(bin, dir, &warmup().0, self.threads);
        cmd.args(extra);
        if self.shards > 1 {
            cmd.args(["--shards", &self.shards.to_string()]);
        }
        if let Some(plan) = faults {
            cmd.env("STRUCTMINE_FAULTS", plan);
        }
        let report_path = dir.join(format!("{}.json", self.name));
        if self.report {
            cmd.arg("--report-json").arg(&report_path);
        }
        let out = cmd
            .output()
            .unwrap_or_else(|e| panic!("{}: spawn {bin}: {e}", self.name));
        let report = self.report.then(|| {
            let json = std::fs::read_to_string(&report_path)
                .unwrap_or_else(|e| panic!("{}: read report: {e}", self.name));
            obs::validate_report(&json).unwrap_or_else(|e| panic!("{}: {e}", self.name))
        });
        Run {
            cell: self.name,
            out,
            report,
        }
    }
}

impl Run {
    fn stderr(&self) -> String {
        String::from_utf8_lossy(&self.out.stderr).into_owned()
    }

    /// The run exited with `code` and printed exactly `golden`.
    fn assert_prints(&self, golden: &str, code: i32) {
        assert_eq!(
            self.out.status.code(),
            Some(code),
            "{}: exit status; stderr:\n{}",
            self.cell,
            self.stderr()
        );
        if self.out.stdout != golden.as_bytes() {
            let got = String::from_utf8_lossy(&self.out.stdout);
            let same = got
                .lines()
                .zip(golden.lines())
                .take_while(|(g, w)| g == w)
                .count();
            panic!(
                "{}: stdout differs from the golden at line {}\n   got: {:?}\ngolden: {:?}",
                self.cell,
                same + 1,
                got.lines().nth(same),
                golden.lines().nth(same)
            );
        }
    }

    fn assert_golden(&self) {
        self.assert_prints(TABLE_GOLDEN, 0);
    }

    fn report(&self) -> &Value {
        self.report
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no report", self.cell))
    }

    fn counter(&self, name: &str) -> u64 {
        obs::report_counter(self.report(), name)
            .unwrap_or_else(|e| panic!("{}: {e}", self.cell))
            .unwrap_or(0)
    }

    /// The report attributes at least 90% of wall time to stages and names
    /// every one of `stages`.
    fn assert_observed(&self, stages: &[&str]) {
        let coverage = obs::report_coverage(self.report()).unwrap();
        assert!(
            coverage >= 0.9,
            "{}: stages cover {:.1}% of wall time",
            self.cell,
            coverage * 100.0
        );
        let labels = obs::report_stage_labels(self.report()).unwrap();
        let missing: Vec<&&str> = stages.iter().filter(|s| !labels.contains(**s)).collect();
        assert!(
            missing.is_empty(),
            "{}: stages {missing:?} missing from {labels:?}",
            self.cell
        );
    }

    /// The store fell back to memory at most once under its fault plan.
    fn assert_warned_at_most_once(&self) {
        let warnings = self.stderr().matches("demoting to memory-only").count();
        assert!(warnings <= 1, "{}: {warnings} demotion warnings", self.cell);
    }
}

/// Copy a store directory tree, so two cells can start from one warm state.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

#[test]
fn all_methods_print_the_run_all_golden() {
    let dir = run_dir("run-all");
    let run = cell("run-all", 4, 1, true).run(RUN_ALL, &dir, None, &[]);
    // Exit 1: the golden itself records failed shape checks at the Test tier.
    run.assert_prints(RUN_ALL_GOLDEN, 1);
    run.assert_observed(RUN_ALL_STAGES);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tolerance_check_passes() {
    let out = &warmup().1;
    assert!(
        out.status.success(),
        "tolerance_check: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cold_in_process_then_warm_sharded() {
    let dir = run_dir("cold-t1-s1");
    cell("cold-t1-s1", 1, 1, false).table(&dir).assert_golden();
    let warm = cell("warm-t1-s4", 1, 4, true).table(&dir);
    warm.assert_golden();
    assert!(
        warm.counter("store.disk_hits") > 0,
        "warm-t1-s4: no store hits"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_sharded_then_warm_in_process() {
    let dir = run_dir("cold-t4-s4");
    let cold = cell("cold-t4-s4", 4, 4, true).table(&dir);
    cold.assert_golden();
    cold.assert_observed(XCLASS_STAGES);
    // Each worker's report is imported under its own span.
    cold.assert_observed(&[
        "shard/worker-0",
        "shard/worker-1",
        "shard/worker-2",
        "shard/worker-3",
    ]);
    cell("warm-t4-s1", 4, 1, false).table(&dir).assert_golden();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_plan_leaves_stdout_untouched() {
    for c in [
        cell("faults-t1-s1", 1, 1, true),
        cell("faults-t4-s4", 4, 4, false),
    ] {
        let dir = run_dir(c.name);
        let run = c.run(TABLE_XCLASS, &dir, Some(MIXED_FAULTS), &[]);
        run.assert_golden();
        run.assert_warned_at_most_once();
        if c.report {
            run.assert_observed(XCLASS_STAGES);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn exact_over_a_fast_warmed_store_prints_the_golden() {
    let fast_dir = run_dir("fast-warmup");
    let fast = cell("fast-warmup", 1, 1, true).run(
        TABLE_XCLASS,
        &fast_dir,
        None,
        &["--precision", "fast"],
    );
    assert!(fast.out.status.success(), "fast-warmup: {}", fast.stderr());
    assert_eq!(
        obs::report_config_env(fast.report(), "STRUCTMINE_PRECISION").unwrap(),
        Some("fast".to_string()),
        "the Fast run's report must carry its tier"
    );
    for c in [
        cell("fast-warmed-t1-s4", 1, 4, false),
        cell("fast-warmed-t4-s1", 4, 1, true),
    ] {
        let dir = run_dir(c.name);
        copy_tree(&fast_dir.join("store"), &dir.join("store"));
        c.table(&dir).assert_golden();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&fast_dir);
}

#[test]
fn killed_worker_restarts_and_resumes() {
    let dir = run_dir("kill-worker");
    let run = cell("kill-worker", 1, 4, false).run(
        TABLE_XCLASS,
        &dir,
        Some("kill_worker=0@after_writes=1"),
        &[],
    );
    run.assert_golden();
    assert!(
        run.stderr().contains("restarting worker 0"),
        "kill-worker: no restart:\n{}",
        run.stderr()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_run_resumes_from_the_store() {
    let dir = run_dir("kill-resume");
    let killed = cell("kill-resume", 4, 1, false).run(
        TABLE_XCLASS,
        &dir,
        Some("kill_after_writes=3;seed=1"),
        &[],
    );
    assert!(
        !killed.out.status.success(),
        "kill_after_writes=3 must abort the run"
    );
    assert!(
        TABLE_GOLDEN.as_bytes().starts_with(&killed.out.stdout),
        "kill-resume: the killed run printed bytes the golden does not start with"
    );
    let resumed = cell("kill-resume", 4, 1, true).table(&dir);
    resumed.assert_golden();
    assert!(
        resumed.counter("store.disk_hits") > 0,
        "kill-resume: the rerun reused nothing the killed run persisted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
