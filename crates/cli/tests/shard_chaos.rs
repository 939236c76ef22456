//! Chaos coverage for sharded execution (DESIGN §12), driven through the
//! real `structmine` binary:
//!
//! 1. `shard --shards N` is byte-identical to `classify` for any N.
//! 2. Killing a worker at any sampled write-point (`STRUCTMINE_FAULTS=
//!    kill_worker=i@after_writes=N`) restarts it and resumes to bitwise-
//!    identical merged output.
//! 3. Killing the *coordinator* mid-flight and rerunning over the same
//!    store produces the same bytes — stale cross-process leases from the
//!    dead run are detected (dead pid) and reclaimed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const DOCS: &[&str] = &[
    "the striker scored a goal and the keeper was offside",
    "the stock market fell as the company reported earnings",
    "the processor chip in the new device runs fast software",
    "the midfielder passed and the referee called a penalty",
    "the bank raised rates and investors sold their shares",
    "the laptop shipped with a faster chip and new software",
    "the coach praised the team after the championship match",
    "the startup raised funding from several venture firms",
];

/// A per-test scratch area: an artifact store dir and the input file.
struct Scratch {
    root: PathBuf,
    input: PathBuf,
}

fn scratch(tag: &str) -> Scratch {
    let root = std::env::temp_dir().join(format!("structmine-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create scratch dir");
    let input = root.join("input.txt");
    std::fs::write(&input, DOCS.join("\n") + "\n").expect("write input");
    Scratch { root, input }
}

/// The test-tier PLM pretraining cache, shared across runs in this test
/// binary, and with the rest of the job when `STRUCTMINE_PLM_CACHE_DIR` is
/// set: pretraining is deterministic, so sharing it only saves time.
fn shared_plm_dir() -> PathBuf {
    let dir = std::env::var_os("STRUCTMINE_PLM_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("structmine-chaos-plm-{}", std::process::id()))
        });
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Build a pinned `structmine` command: fresh store under `store`, shared
/// PLM cache, no inherited knobs.
fn structmine(store: &Path, plm: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_structmine"));
    cmd.env_remove("STRUCTMINE_FAULTS")
        .env_remove("STRUCTMINE_SHARDS")
        .env_remove("STRUCTMINE_THREADS")
        .env_remove("STRUCTMINE_LOG")
        .env_remove("STRUCTMINE_REPORT")
        .env("STRUCTMINE_STORE_DIR", store)
        .env("STRUCTMINE_PLM_CACHE_DIR", plm);
    cmd
}

fn classify_args(input: &Path) -> Vec<String> {
    [
        "--labels",
        "sports,business,technology",
        "--method",
        "xclass",
        "--tier",
        "test",
        "--input",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([input.display().to_string()])
    .collect()
}

fn run_shard(s: &Scratch, store_tag: &str, shards: usize, faults: Option<&str>) -> Output {
    let store = s.root.join(store_tag);
    let mut cmd = structmine(&store, &shared_plm_dir());
    cmd.arg("shard")
        .args(classify_args(&s.input))
        .args(["--shards".to_string(), shards.to_string()]);
    if let Some(plan) = faults {
        cmd.env("STRUCTMINE_FAULTS", plan);
    }
    cmd.output().expect("spawn structmine shard")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed ({:?}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn shard_counts_are_byte_identical_to_classify() {
    let s = scratch("counts");
    let mut classify = structmine(&s.root.join("classify"), &shared_plm_dir());
    classify.arg("classify").args(classify_args(&s.input));
    let reference = classify.output().expect("spawn structmine classify");
    assert_ok(&reference, "classify");
    assert!(!reference.stdout.is_empty(), "classify printed nothing");

    for shards in [1usize, 4] {
        let out = run_shard(&s, &format!("s{shards}"), shards, None);
        assert_ok(&out, &format!("shard --shards {shards}"));
        assert_eq!(
            out.stdout, reference.stdout,
            "{shards}-way shard output must byte-match classify"
        );
    }
    let _ = std::fs::remove_dir_all(&s.root);
}

#[test]
fn any_worker_kill_point_resumes_to_identical_bytes() {
    let s = scratch("killpoints");
    let reference = run_shard(&s, "clean", 4, None);
    assert_ok(&reference, "clean 4-way shard");

    // Sampled kill-points: worker x write-count. Under leases a worker may
    // perform very few disk writes (shared stages are computed once by the
    // lease winner), so `after_writes=1` is the guaranteed-to-fire point;
    // larger counts and other workers may pass vacuously — the output
    // equality must hold regardless.
    for (worker, after) in [(0u64, 1u64), (0, 2), (2, 1), (3, 4)] {
        let plan = format!("kill_worker={worker}@after_writes={after}");
        let out = run_shard(&s, &format!("kill-{worker}-{after}"), 4, Some(&plan));
        assert_ok(&out, &plan);
        assert_eq!(
            out.stdout, reference.stdout,
            "output after {plan} must be bitwise-identical to the clean run"
        );
        if (worker, after) == (0, 1) {
            // The cheapest kill-point must actually fire: the coordinator
            // logs the transient restart it supervised.
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("restarting worker 0"),
                "kill_worker=0@after_writes=1 never fired: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&s.root);
}

#[test]
fn coordinator_crash_and_rerun_reaches_identical_bytes() {
    let s = scratch("coordcrash");
    let reference = run_shard(&s, "clean", 4, None);
    assert_ok(&reference, "clean 4-way shard");

    // Crash run: fully cold (its own store *and* PLM cache) so the kill
    // lands mid-work, with cross-process leases active on the store.
    let cold = s.root.join("crash");
    let mut cmd = structmine(&cold, &cold);
    cmd.arg("shard")
        .args(classify_args(&s.input))
        .args(["--shards", "4"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    let mut child = cmd.spawn().expect("spawn coordinator");
    std::thread::sleep(std::time::Duration::from_millis(300));
    // SIGKILL: no cleanup, lease files from the dead coordinator's workers
    // may survive; the rerun must detect the dead holders and reclaim.
    child.kill().expect("kill coordinator");
    let _ = child.wait();

    let mut rerun = structmine(&cold, &cold);
    rerun
        .arg("shard")
        .args(classify_args(&s.input))
        .args(["--shards", "4"]);
    let out = rerun.output().expect("spawn rerun coordinator");
    assert_ok(&out, "rerun after coordinator crash");
    assert_eq!(
        out.stdout, reference.stdout,
        "rerun over the crashed run's store must produce identical bytes"
    );
    let _ = std::fs::remove_dir_all(&s.root);
}
