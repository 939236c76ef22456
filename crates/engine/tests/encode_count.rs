//! `plm.docs_encoded` counts every serving forward pass: K ingests of n
//! documents raise it by exactly K·n, and a classify of n documents by n.
//! An ingest encodes only its own delta — never the fit corpus, never an
//! earlier generation.
//!
//! This file holds exactly one test: the `obs` counters are process-global,
//! so the counts need a process to themselves (integration test binaries
//! give them one).

use structmine_engine::{Engine, EngineConfig, EngineSource, MethodKind, PlmSpec};
use structmine_linalg::ExecPolicy;
use structmine_store::obs;

const LINES: &[&str] = &[
    "the team won the match with a late goal",
    "the market rallied after the profit report",
    "the new device ships with faster software",
    "the league fined the team after the match",
    "the merger lifted the stock price",
    "the coach praised the players after the season",
];

/// Documents per ingest; `LINES` splits into `LINES.len() / DELTA` deltas.
const DELTA: usize = 2;

fn encoded() -> u64 {
    obs::counter_value("plm.docs_encoded")
}

#[test]
fn ingest_and_classify_count_one_encode_per_document() {
    let lines: Vec<String> = LINES.iter().map(|s| s.to_string()).collect();
    for method in [MethodKind::XClass, MethodKind::Match] {
        let engine = Engine::load(EngineConfig {
            source: EngineSource::Labels(
                ["sports", "business", "technology"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            ),
            method,
            plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
            seed: None,
            exec: ExecPolicy::with_threads(2),
        })
        .expect("engine loads");
        // The fit may encode the fit corpus; serving starts after it.
        engine.warm().expect("warm");

        let before = encoded();
        for chunk in lines.chunks(DELTA) {
            engine.ingest(chunk).expect("in-order delta");
        }
        assert_eq!(
            encoded() - before,
            lines.len() as u64,
            "{method:?}: {} ingests of {DELTA} docs",
            lines.len() / DELTA
        );

        let before = encoded();
        engine.classify(&lines).expect("classify");
        assert_eq!(
            encoded() - before,
            lines.len() as u64,
            "{method:?}: one classify of {} docs",
            lines.len()
        );
    }
}
