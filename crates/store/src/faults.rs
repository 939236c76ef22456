//! Deterministic fault injection for the disk layer.
//!
//! A [`FaultPlan`] describes *which* failures to provoke and *how often*; a
//! [`FaultInjector`] turns the plan into a deterministic decision stream
//! (the workspace's seeded `StdRng`), so a given plan + seed injects the
//! same faults at the same operations every run. The store consults the
//! injector on every disk read and write; nothing outside the disk layer is
//! ever faulted, which is exactly the failure model of a real machine — the
//! computation is trusted, the storage is not.
//!
//! The plan is parsed from the `STRUCTMINE_FAULTS` environment variable
//! (also settable via the CLI's `--faults` flag):
//!
//! ```text
//! STRUCTMINE_FAULTS=disk_write=0.2,disk_read=0.1,truncate=0.05;seed=7
//! ```
//!
//! Entries are `key=value`, separated by `,` or `;`:
//!
//! | key | meaning |
//! |---|---|
//! | `disk_write=P` | each write attempt fails with probability `P` |
//! | `disk_read=P` | each read attempt fails with probability `P` |
//! | `truncate=P` | each *completed* write is then truncated in place with probability `P` (silent corruption; caught later by the checksum footer) |
//! | `kill_after_writes=N` | `abort()` the process right after the `N`-th completed disk write (crash-at-a-stage-boundary simulation) |
//! | `kill_worker=i@after_writes=N` | targeted chaos for sharded runs: the coordinator rewrites worker `i`'s first incarnation to run under `kill_after_writes=N`; single-process injectors parse but ignore the clause |
//! | `seed=S` | seed of the decision stream (default 0) |
//!
//! Under any plan the pipeline's *outputs* are unchanged — faults only ever
//! suppress caching (see `store`'s retry and degradation policy), never
//! alter a computed value.

use crate::error::{FaultPlanError, IoOp, StoreError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Which faults to inject, and how often. All probabilities default to 0
/// (no injection).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability that one disk-write attempt fails.
    pub disk_write: f64,
    /// Probability that one disk-read attempt fails.
    pub disk_read: f64,
    /// Probability that a completed write is silently truncated in place.
    pub truncate: f64,
    /// Abort the process after this many completed disk writes.
    pub kill_after_writes: Option<u64>,
    /// Targeted chaos for sharded runs, `(worker_index, after_writes)`: the
    /// shard coordinator translates this into `kill_after_writes` for the
    /// first incarnation of worker `worker_index` only. Single-process
    /// injectors parse the clause but never act on it themselves.
    pub kill_worker: Option<(u64, u64)>,
    /// Seed of the deterministic decision stream.
    pub seed: u64,
}

impl FaultPlan {
    /// Parse a plan string, e.g. `disk_write=0.2,disk_read=0.1;seed=7`.
    /// Entries are `key=value` separated by `,` or `;`; empty entries are
    /// ignored. Unknown keys and malformed values are hard errors — a
    /// typo'd fault plan must never silently run fault-free.
    pub fn parse(s: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan::default();
        for entry in s.split([',', ';']) {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| FaultPlanError::MissingValue(entry.to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = || FaultPlanError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            };
            match key {
                "disk_write" | "disk_read" | "truncate" => {
                    let p: f64 = value.parse().map_err(|_| bad())?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(FaultPlanError::OutOfRange {
                            key: key.to_string(),
                            value: p,
                        });
                    }
                    match key {
                        "disk_write" => plan.disk_write = p,
                        "disk_read" => plan.disk_read = p,
                        _ => plan.truncate = p,
                    }
                }
                "kill_after_writes" => {
                    plan.kill_after_writes = Some(value.parse().map_err(|_| bad())?);
                }
                "kill_worker" => {
                    // `kill_worker=i@after_writes=N` — the whole clause is one
                    // `key=value` entry, so `value` here is `i@after_writes=N`.
                    let (worker, rest) = value.split_once('@').ok_or_else(&bad)?;
                    let writes = rest.trim().strip_prefix("after_writes=").ok_or_else(&bad)?;
                    plan.kill_worker = Some((
                        worker.trim().parse().map_err(|_| bad())?,
                        writes.trim().parse().map_err(|_| bad())?,
                    ));
                }
                "seed" => plan.seed = value.parse().map_err(|_| bad())?,
                _ => return Err(FaultPlanError::UnknownKey(key.to_string())),
            }
        }
        Ok(plan)
    }

    /// The plan from `STRUCTMINE_FAULTS`, if set.
    pub fn from_env() -> Result<Option<FaultPlan>, FaultPlanError> {
        match std::env::var("STRUCTMINE_FAULTS") {
            Ok(s) if !s.trim().is_empty() => FaultPlan::parse(&s).map(Some),
            _ => Ok(None),
        }
    }

    /// True when the plan injects anything at all. A `kill_worker` clause
    /// counts: it injects nothing in *this* process, but a shard coordinator
    /// sharing the environment will translate it into a worker crash, so
    /// exact cache-traffic assertions are off the table either way.
    pub fn is_active(&self) -> bool {
        self.disk_write > 0.0
            || self.disk_read > 0.0
            || self.truncate > 0.0
            || self.kill_after_writes.is_some()
            || self.kill_worker.is_some()
    }

    /// Render the plan back into the `STRUCTMINE_FAULTS` syntax, omitting
    /// defaults. The shard coordinator uses this to propagate the plan to
    /// workers — typically via [`FaultPlan::for_worker`], which strips the
    /// coordinator-only `kill_worker` clause.
    pub fn to_plan_string(&self) -> String {
        let mut parts = Vec::new();
        if self.disk_write > 0.0 {
            parts.push(format!("disk_write={}", self.disk_write));
        }
        if self.disk_read > 0.0 {
            parts.push(format!("disk_read={}", self.disk_read));
        }
        if self.truncate > 0.0 {
            parts.push(format!("truncate={}", self.truncate));
        }
        if let Some(n) = self.kill_after_writes {
            parts.push(format!("kill_after_writes={n}"));
        }
        if let Some((w, n)) = self.kill_worker {
            parts.push(format!("kill_worker={w}@after_writes={n}"));
        }
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        parts.join(",")
    }

    /// The plan a shard worker should run under. Strips `kill_worker` and,
    /// when `worker_index` is the targeted worker and this is its first
    /// incarnation (`incarnation == 0`), arms `kill_after_writes` instead —
    /// targeted, deterministic, and bounded chaos: the restart runs clean.
    pub fn for_worker(&self, worker_index: u64, incarnation: u32) -> FaultPlan {
        let mut plan = *self;
        plan.kill_worker = None;
        if let Some((target, writes)) = self.kill_worker {
            if target == worker_index && incarnation == 0 {
                plan.kill_after_writes = Some(writes);
            }
        }
        plan
    }
}

/// Turns a [`FaultPlan`] into deterministic per-operation decisions.
///
/// One injector is shared by every store built from the environment (so
/// `kill_after_writes` counts writes across *all* stores in the process,
/// matching a real crash); tests build private injectors via
/// [`FaultInjector::with_plan`] for full isolation.
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Mutex<StdRng>,
    writes_completed: AtomicU64,
}

impl FaultInjector {
    /// An injector that never injects anything.
    pub fn none() -> Arc<FaultInjector> {
        FaultInjector::with_plan(FaultPlan::default())
    }

    /// An injector for an explicit plan (deterministic per plan seed).
    pub fn with_plan(plan: FaultPlan) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            plan,
            rng: Mutex::new(StdRng::seed_from_u64(plan.seed)),
            writes_completed: AtomicU64::new(0),
        })
    }

    /// The process-wide injector, parsed from `STRUCTMINE_FAULTS` on first
    /// use. Panics with the parse error on a malformed plan: a fault plan
    /// is an explicit testing instruction, and running fault-free because
    /// of a typo would make every fault test pass vacuously.
    pub fn global() -> &'static Arc<FaultInjector> {
        static GLOBAL: OnceLock<Arc<FaultInjector>> = OnceLock::new();
        GLOBAL.get_or_init(|| match FaultPlan::from_env() {
            Ok(Some(plan)) => {
                crate::obs::log_info(&format!("[faults] active plan: {plan:?}"));
                FaultInjector::with_plan(plan)
            }
            Ok(None) => FaultInjector::none(),
            Err(e) => panic!("invalid STRUCTMINE_FAULTS: {e}"),
        })
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when this injector can inject anything.
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Deterministic biased coin. Draws from the stream only for active
    /// probabilities, so enabling one fault class does not perturb the
    /// decisions of another plan with different classes enabled.
    fn roll(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.rng.lock().gen_bool(p)
    }

    /// Consulted before each disk-read attempt.
    pub fn before_read(&self, path: &Path) -> Result<(), StoreError> {
        if self.roll(self.plan.disk_read) {
            return Err(StoreError::InjectedFault {
                op: IoOp::Read,
                path: path.to_path_buf(),
            });
        }
        Ok(())
    }

    /// Consulted before each disk-write attempt.
    pub fn before_write(&self, path: &Path) -> Result<(), StoreError> {
        if self.roll(self.plan.disk_write) {
            return Err(StoreError::InjectedFault {
                op: IoOp::Write,
                path: path.to_path_buf(),
            });
        }
        Ok(())
    }

    /// Called after each *successful* write: may silently truncate the just
    /// written file (`truncate` faults), and triggers the planned crash
    /// once the write counter reaches `kill_after_writes`.
    pub fn after_write_success(&self, path: &Path) {
        if self.roll(self.plan.truncate) {
            // Silent corruption: keep the front half of the file. The store
            // must catch this later via the checksum footer, not serde.
            if let Ok(meta) = std::fs::metadata(path) {
                let keep = meta.len() / 2;
                if let Ok(file) = std::fs::OpenOptions::new().write(true).open(path) {
                    let _ = file.set_len(keep);
                }
            }
        }
        let n = self.writes_completed.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.kill_after_writes == Some(n) {
            crate::obs::log_warn(&format!(
                "[faults] injected crash: aborting after {n} completed disk writes"
            ));
            std::process::abort();
        }
    }

    /// Completed disk writes seen so far (across every store sharing this
    /// injector).
    pub fn writes_completed(&self) -> u64 {
        self.writes_completed.load(Ordering::Relaxed)
    }
}

/// True when `STRUCTMINE_FAULTS` is set to an active plan. Tests that
/// assert exact hit/miss counters consult this: under an environment fault
/// plan only *correctness* (identical outputs) is guaranteed, not cache
/// traffic.
pub fn env_active() -> bool {
    FaultInjector::global().is_active()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_the_documented_example() {
        let plan = FaultPlan::parse("disk_write=0.2,disk_read=0.1,truncate=0.05;seed=7").unwrap();
        assert_eq!(plan.disk_write, 0.2);
        assert_eq!(plan.disk_read, 0.1);
        assert_eq!(plan.truncate, 0.05);
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.kill_after_writes, None);
        assert!(plan.is_active());
    }

    #[test]
    fn parses_kill_and_tolerates_whitespace_and_empties() {
        let plan = FaultPlan::parse(" kill_after_writes = 3 ; ; seed=9 ,").unwrap();
        assert_eq!(plan.kill_after_writes, Some(3));
        assert_eq!(plan.seed, 9);
        assert!(FaultPlan::parse("").unwrap() == FaultPlan::default());
        assert!(!FaultPlan::default().is_active());
    }

    #[test]
    fn rejects_malformed_plans() {
        assert_eq!(
            FaultPlan::parse("disk_write"),
            Err(FaultPlanError::MissingValue("disk_write".into()))
        );
        assert_eq!(
            FaultPlan::parse("disk_wrote=0.2"),
            Err(FaultPlanError::UnknownKey("disk_wrote".into()))
        );
        assert!(matches!(
            FaultPlan::parse("disk_write=maybe"),
            Err(FaultPlanError::BadValue { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("disk_read=1.5"),
            Err(FaultPlanError::OutOfRange { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("kill_after_writes=-1"),
            Err(FaultPlanError::BadValue { .. })
        ));
    }

    #[test]
    fn parses_kill_worker_clause_and_round_trips() {
        let plan = FaultPlan::parse("disk_write=0.25,kill_worker=2@after_writes=5;seed=7").unwrap();
        assert_eq!(plan.kill_worker, Some((2, 5)));
        assert!(plan.is_active());
        let rendered = plan.to_plan_string();
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), plan);
        assert_eq!(FaultPlan::default().to_plan_string(), "");

        for bad in [
            "kill_worker=2",
            "kill_worker=2@writes=5",
            "kill_worker=x@after_writes=5",
            "kill_worker=2@after_writes=y",
        ] {
            assert!(
                matches!(FaultPlan::parse(bad), Err(FaultPlanError::BadValue { .. })),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn for_worker_targets_first_incarnation_only() {
        let plan = FaultPlan::parse("disk_read=0.1,kill_worker=1@after_writes=3,seed=4").unwrap();
        let w0 = plan.for_worker(0, 0);
        assert_eq!(w0.kill_after_writes, None);
        assert_eq!(w0.kill_worker, None);
        assert_eq!(w0.disk_read, 0.1);
        let w1 = plan.for_worker(1, 0);
        assert_eq!(w1.kill_after_writes, Some(3));
        assert_eq!(w1.kill_worker, None);
        let w1_restart = plan.for_worker(1, 1);
        assert_eq!(w1_restart.kill_after_writes, None, "restarts run clean");
    }

    #[test]
    fn decision_stream_is_deterministic_per_seed() {
        let plan = FaultPlan {
            disk_read: 0.5,
            seed: 11,
            ..Default::default()
        };
        let decisions = |inj: &FaultInjector| -> Vec<bool> {
            (0..64)
                .map(|_| inj.before_read(Path::new("x")).is_err())
                .collect()
        };
        let a = decisions(&FaultInjector::with_plan(plan));
        let b = decisions(&FaultInjector::with_plan(plan));
        assert_eq!(a, b, "same plan, same decisions");
        assert!(a.iter().any(|&x| x), "p=0.5 must fire at least once in 64");
        assert!(!a.iter().all(|&x| x), "p=0.5 must also pass sometimes");

        let c = decisions(&FaultInjector::with_plan(FaultPlan { seed: 12, ..plan }));
        assert_ne!(a, c, "different seed, different decisions");
    }

    #[test]
    fn inactive_probabilities_do_not_draw_from_the_stream() {
        // A plan with only writes enabled must make the same write
        // decisions whether or not reads are also being *asked* about.
        let plan = FaultPlan {
            disk_write: 0.5,
            seed: 3,
            ..Default::default()
        };
        let a = FaultInjector::with_plan(plan);
        let b = FaultInjector::with_plan(plan);
        let mut wa = Vec::new();
        let mut wb = Vec::new();
        for i in 0..32 {
            if i % 2 == 0 {
                // Interleave read checks on one injector only.
                assert!(b.before_read(Path::new("r")).is_ok());
            }
            wa.push(a.before_write(Path::new("w")).is_err());
            wb.push(b.before_write(Path::new("w")).is_err());
        }
        assert_eq!(wa, wb, "inactive read checks must not perturb the stream");
    }

    /// Pieces of the plan syntax: every key, the separators, and values
    /// that parse, fail to parse, overflow or fall out of range.
    const FRAGMENTS: &[&str] = &[
        "disk_write",
        "disk_read",
        "truncate",
        "kill_after_writes",
        "kill_worker",
        "seed",
        "=",
        ",",
        ";",
        "@",
        "@after_writes=",
        " ",
        "\t",
        "0",
        "1",
        "0.25",
        "-0",
        "1.5",
        "-1",
        "1e-3",
        "1e400",
        "NaN",
        "inf",
        "18446744073709551615",
        "18446744073709551616",
        "0x10",
        "é",
        "\u{0}",
    ];

    /// The fail-closed contract for one input: `parse` returns a plan or a
    /// typed error with a message (a panic fails the test), and a plan it
    /// accepts renders back to a string that parses to the same plan.
    fn assert_fails_closed(s: &str) {
        match FaultPlan::parse(s) {
            Ok(plan) => assert_eq!(
                FaultPlan::parse(&plan.to_plan_string()),
                Ok(plan),
                "{s:?} does not round-trip"
            ),
            Err(e) => assert!(!e.to_string().is_empty(), "{s:?}: {e:?}"),
        }
    }

    proptest! {
        /// Strings over the plan syntax's own characters.
        #[test]
        fn parse_fails_closed_on_the_plan_alphabet(s in "[a-z_=;,@0-9.+ -]{0,48}") {
            assert_fails_closed(&s);
        }

        /// Strings assembled from plan fragments, so whole entries, near
        /// misses and edge values all occur.
        #[test]
        fn parse_fails_closed_on_fragment_strings(
            picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..24)
        ) {
            let s: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            assert_fails_closed(&s);
        }

        /// Arbitrary bytes, decoded as the environment variable would be.
        #[test]
        fn parse_fails_closed_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u16..256, 0..64)
        ) {
            let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            assert_fails_closed(&String::from_utf8_lossy(&bytes));
        }

        /// Every valid plan, including boundary probabilities and the
        /// largest counts, round-trips through `to_plan_string`.
        #[test]
        fn every_valid_plan_round_trips(
            probs in proptest::collection::vec(0.0f64..1.0, 3),
            picks in proptest::collection::vec(0u64..4, 6),
            counts in proptest::collection::vec(0u64..u64::MAX, 4),
        ) {
            let p = |i: usize| match picks[i] {
                0 => 0.0,
                1 => 1.0,
                _ => probs[i],
            };
            let plan = FaultPlan {
                disk_write: p(0),
                disk_read: p(1),
                truncate: p(2),
                kill_after_writes: (picks[3] > 1).then_some(counts[0]),
                kill_worker: (picks[4] > 1).then_some((counts[1], counts[2])),
                seed: if picks[5] == 0 { u64::MAX } else { counts[3] },
            };
            prop_assert_eq!(FaultPlan::parse(&plan.to_plan_string()), Ok(plan));
        }
    }

    #[test]
    fn truncate_fault_halves_the_file() {
        let dir = std::env::temp_dir().join(format!("structmine-faults-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("truncate-victim");
        std::fs::write(&path, vec![7u8; 100]).unwrap();
        let inj = FaultInjector::with_plan(FaultPlan {
            truncate: 1.0,
            ..Default::default()
        });
        inj.after_write_success(&path);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 50);
        assert_eq!(inj.writes_completed(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
