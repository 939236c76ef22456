//! Cross-tier cache isolation (DESIGN §13): an Exact run and a Fast run of
//! the same method pipeline must never share a tier-sensitive cache entry.
//! The precision tier is part of every PLM-inference stage fingerprint, so
//! a warm Fast run after a cold Exact run recomputes its pipeline (zero
//! cross-tier hits) — and then its *own* rerun is fully warm.
//!
//! This file holds exactly one test: it drives the process-global artifact
//! store and the global `obs` counters, so it needs a process to itself
//! (integration test binaries give it one).

use structmine_engine::{Engine, EngineConfig, EngineSource, MethodKind, PlmSpec};
use structmine_linalg::{ExecPolicy, Precision};

fn load(precision: Precision) -> Engine {
    Engine::load(EngineConfig {
        source: EngineSource::Labels(
            ["sports", "business", "technology"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        ),
        method: MethodKind::XClass,
        plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
        seed: None,
        exec: ExecPolicy::with_threads(1).with_precision(precision),
    })
    .expect("engine loads")
}

/// Run the full tiered method pipeline (the memoized XClass run the bench
/// tables replay — the serving fit is deliberately tier-free, fitting is
/// adaptation and always runs Exact).
fn run_pipeline(precision: Precision) {
    load(precision).fitted_predictions().expect("pipeline runs");
}

fn misses() -> u64 {
    structmine_store::obs::counter_value("store.misses")
}

#[test]
fn warm_fast_run_after_cold_exact_run_shares_no_tier_sensitive_entries() {
    // A private store directory: this test is about *which* keys hit, so it
    // must start cold. Set before the global store is first touched. The
    // pretrained checkpoint lives in its own store, counted under `plm.*`,
    // so an inherited checkpoint directory is reused.
    let dir = std::env::temp_dir().join(format!("structmine-tier-cache-{}", std::process::id()));
    std::env::set_var("STRUCTMINE_STORE_DIR", dir.display().to_string());
    if std::env::var_os("STRUCTMINE_PLM_CACHE_DIR").is_none() {
        std::env::set_var("STRUCTMINE_PLM_CACHE_DIR", dir.display().to_string());
    }

    // Cold Exact run: everything below the engine misses and computes.
    run_pipeline(Precision::Exact);
    let after_cold_exact = misses();
    assert!(after_cold_exact > 0, "a cold run must compute something");

    // Warm Exact rerun: the same fingerprints, so nothing recomputes.
    run_pipeline(Precision::Exact);
    assert_eq!(
        misses(),
        after_cold_exact,
        "a warm same-tier rerun must be served entirely from the store"
    );

    // First Fast run over the warm Exact store: the tier-sensitive stages
    // (the XClass pipeline runs PLM inference) carry the tier in their
    // fingerprints, so they must miss — an Exact entry answering here would
    // be cross-tier cache contamination.
    run_pipeline(Precision::Fast);
    let after_cold_fast = misses();
    assert!(
        after_cold_fast > after_cold_exact,
        "a Fast run must not be served from Exact cache entries"
    );

    // Warm Fast rerun: now the Fast entries exist, so it hits its own tier.
    run_pipeline(Precision::Fast);
    assert_eq!(
        misses(),
        after_cold_fast,
        "a warm Fast rerun must be served from the Fast tier's own entries"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
