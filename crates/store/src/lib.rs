//! Content-addressed artifact store and staged-pipeline substrate.
//!
//! The tutorial's method family (X-Class, LOTClass, ConWea, …) shares one
//! expensive substrate: corpus-wide PLM encodings, expanded seed sets,
//! pseudo-labels, trained classifiers. Every one of those intermediate
//! products is a pure function of its inputs — the execution layer
//! (`structmine_linalg::exec`) guarantees bitwise-identical output for any
//! thread count — so they can be memoized safely. This crate provides the
//! machinery:
//!
//! * [`hash`] — a stable, platform-independent fingerprint ([`StableHash`] /
//!   [`StableHasher`], FNV-1a over a 128-bit state). Unlike `std::hash`,
//!   the digest is identical across processes, builds, and architectures,
//!   so it can name files on disk.
//! * [`key`] — [`ArtifactKey`]: a stage name plus the digest of everything
//!   the stage output depends on (store format version, stage version,
//!   dataset content hash, config, seeds, upstream artifact keys).
//! * [`store`] — [`ArtifactStore`]: a two-level cache. An in-process layer
//!   shares artifacts as `Arc`s; a disk layer persists them as JSON files
//!   named by their key, written with the write-temp-then-rename discipline
//!   so racing writers always leave a complete artifact. Corrupt, truncated,
//!   or stale-version files are ignored and recomputed.
//! * [`stage`] — the [`Stage`] trait: a typed pipeline step (inputs borrowed
//!   as struct fields, output as an associated type) that the store can run
//!   memoized via [`ArtifactStore::run`].
//! * [`error`] — the typed failure taxonomy ([`StoreError`],
//!   [`PipelineError`]) replacing silent fall-throughs and `unwrap()`s.
//! * [`faults`] — deterministic fault injection ([`FaultPlan`] /
//!   [`FaultInjector`]): a seeded probability plan parsed from
//!   `STRUCTMINE_FAULTS` that makes disk reads/writes fail, truncates
//!   completed writes, or kills the process at a write boundary — for
//!   testing the retry/degradation/resume machinery end to end.
//! * [`lease`] — cross-process lease/claim on stage keys: under
//!   `STRUCTMINE_LEASE` (set by the shard coordinator), sibling worker
//!   processes claim a stage before computing it and wait on the holder's
//!   artifact instead of duplicating the work. Stale leases (dead holders)
//!   are reaped, so crash-and-rerun recovers with no manual cleanup.
//! * [`health`] — process-wide degradation/unusable registry rendered by
//!   `structmine-serve`'s `/healthz`.
//! * [`context`] — a thread-local stage-label stack so deep failures
//!   (worker panics, store warnings) can name the stage they happened in.
//! * [`obs`] — the observability layer (DESIGN §8): every stage label is
//!   also a wall-clock span, subsystem counters share one registry, log
//!   output is leveled (`STRUCTMINE_LOG`), and a schema-stable JSON run
//!   report can be written at process exit (`STRUCTMINE_REPORT` /
//!   `--report-json`).
//!
//! Configuration (read once, at first use of the global store):
//!
//! | Environment variable | Effect |
//! |---|---|
//! | `STRUCTMINE_STORE_DIR` | Artifact directory (default: `<tmp>/structmine-store`) |
//! | `STRUCTMINE_STORE_NO_DISK` | Disable the disk layer (memory sharing still on) |
//! | `STRUCTMINE_NO_CACHE` | Disable the store entirely (every stage recomputes) |
//! | `STRUCTMINE_FAULTS` | Deterministic fault plan, e.g. `disk_write=0.2,disk_read=0.1,truncate=0.05;seed=7` |
//! | `STRUCTMINE_LEASE` | Enable cross-process stage leases (set by the shard coordinator for its workers) |
//! | `STRUCTMINE_LOG` | Log level: `warn`, `info` (default), or `debug` |
//! | `STRUCTMINE_REPORT` | Write the JSON run report to this path at process exit |

pub mod context;
pub mod error;
pub mod faults;
pub mod hash;
pub mod health;
pub mod key;
pub mod lease;
pub mod obs;
pub mod stage;
pub mod store;

pub use error::{FaultPlanError, IoOp, PipelineError, StoreError};
pub use faults::{FaultInjector, FaultPlan};
pub use hash::{fingerprint_of, StableHash, StableHasher};
pub use key::ArtifactKey;
pub use lease::Lease;
pub use stage::{Artifact, Persistence, Stage};
pub use store::{global, ArtifactStore, StatsSnapshot};
