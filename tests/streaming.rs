//! Streaming-ingestion integration tests (DESIGN §11).
//!
//! The ingest contract, end to end: however a document stream is split
//! into generational deltas, the served predictions must be byte-identical
//! to one cold `classify` over the concatenated stream — at 1 thread and
//! at 4 — each delta takes exactly the next generation stamp, and
//! misordered deltas must fail closed without moving the stamp.

use proptest::prelude::*;
use rand::Rng;
use structmine_engine::{
    format_prediction_line, Engine, EngineConfig, EngineSource, MethodKind, PlmSpec, Prediction,
};
use structmine_linalg::rng as lrng;
use structmine_linalg::ExecPolicy;
use structmine_text::{Corpus, CorpusDelta, DeltaCorpus, DeltaError, Doc, Vocab};

/// Word pool for synthetic streams: sports, business, legal, technology
/// and health words.
const WORDS: &[&str] = &[
    "match", "team", "goal", "league", "market", "stock", "profit", "merger", "court", "ruling",
    "appeal", "verdict", "chip", "software", "device", "network", "vaccine", "trial", "clinic",
    "dose",
];

/// Deterministically derive a stream of text lines from a seed.
fn stream_from_seed(seed: u64, n_docs: usize) -> Vec<String> {
    let mut rng = lrng::seeded(seed);
    (0..n_docs)
        .map(|_| {
            let len = rng.gen_range(1..9);
            (0..len)
                .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// Split `lines` into `k` non-empty chunks at seed-derived cut points.
fn random_chunks(lines: &[String], k: usize, seed: u64) -> Vec<Vec<String>> {
    let k = k.min(lines.len()).max(1);
    let mut rng = lrng::seeded(seed ^ 0x9e37_79b9);
    let mut cuts: Vec<usize> = (0..k - 1).map(|_| rng.gen_range(1..lines.len())).collect();
    cuts.push(0);
    cuts.push(lines.len());
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2)
        .map(|w| lines[w[0]..w[1]].to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rejected deltas leave the stamp untouched, for arbitrary forged
    /// generation stamps: behind-current fails as a duplicate,
    /// ahead-of-current fails as out-of-order, and nothing is mutated.
    #[test]
    fn misordered_deltas_fail_closed(
        seed in 1u64..400,
        applied in 0u32..4,
        forged in 0u32..9,
    ) {
        let mut vocab = Vocab::new();
        for w in WORDS {
            vocab.intern(w);
        }
        let base = Corpus::new(vocab);
        let mut dc = DeltaCorpus::from_corpus(&base);
        for g in 0..applied {
            let docs = stream_from_seed(seed + u64::from(g), 2)
                .iter()
                .map(|l| Doc::from_tokens(structmine_text::tokenize::encode(l, &base.vocab)))
                .collect();
            let delta = dc.next_delta(docs);
            prop_assert_eq!(dc.apply(delta), Ok(g + 1));
        }
        prop_assume!(forged != applied + 1); // in-order deltas are accepted
        let before = dc.clone();
        let delta = CorpusDelta {
            generation: forged,
            docs: vec![Doc::from_tokens(vec![0])],
        };
        let err = dc.apply(delta).unwrap_err();
        if forged <= applied {
            prop_assert_eq!(err, DeltaError::Duplicate { generation: forged, current: applied });
        } else {
            prop_assert_eq!(err, DeltaError::OutOfOrder { expected: applied + 1, got: forged });
        }
        prop_assert_eq!(dc.generation(), applied);
        prop_assert_eq!(dc, before);
    }
}

fn serving_engine(method: MethodKind, threads: usize) -> Engine {
    Engine::load(EngineConfig {
        source: EngineSource::Labels(vec![
            "sports".into(),
            "business".into(),
            "technology".into(),
        ]),
        method,
        plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
        seed: None,
        exec: ExecPolicy::with_threads(threads),
    })
    .expect("test-tier labels engine loads")
}

/// Render predictions exactly as the CLI and server do, so equality here
/// is equality of the bytes a client would see.
fn rendered(preds: &[Prediction], lines: &[String]) -> Vec<String> {
    preds
        .iter()
        .zip(lines)
        .map(|(p, l)| format_prediction_line(p, l))
        .collect()
}

/// K ingests of a stream cut at arbitrary points yield the bytes of one
/// cold `classify` over the concatenated stream, and take the next K
/// generation stamps in order. One engine takes every stream in turn, so
/// this also shows that a long-lived engine's answers do not drift.
#[test]
fn k_split_ingests_equal_one_classify() {
    let engine = serving_engine(MethodKind::Match, 1);
    for seed in 1u64..=24 {
        let stream = stream_from_seed(seed.wrapping_mul(31), 1 + (seed as usize * 7) % 24);
        let cold = engine.classify(&stream).expect("match classifies");
        let mut warm = Vec::new();
        for chunk in random_chunks(&stream, 1 + seed as usize % 5, seed) {
            let expected = engine.generation() + 1;
            let ingested = engine.ingest(&chunk).expect("in-order delta");
            assert_eq!(ingested.generation, expected, "seed {seed}");
            warm.extend(ingested.predictions);
        }
        assert_eq!(
            rendered(&warm, &stream),
            rendered(&cold, &stream),
            "seed {seed}: split ingest bytes differ from one classify"
        );
    }
}

/// The served half of the contract across methods: splitting a stream into
/// K ingests at 1 thread and ingesting it whole at 4 threads yields
/// byte-identical prediction lines, and the serving rule itself is
/// unchanged by ingestion (classify before == classify after).
#[test]
fn split_ingests_match_whole_ingest_across_thread_counts() {
    let lines = vec![
        "the team won the match with a late goal".to_string(),
        "the market rallied after the profit report".to_string(),
        "the new device ships with faster software".to_string(),
        "the league fined the team after the match".to_string(),
        "the merger lifted the stock price".to_string(),
    ];
    for method in [
        MethodKind::Match,
        MethodKind::XClass,
        MethodKind::LotClass,
        MethodKind::Prompt,
    ] {
        let split = serving_engine(method, 1);
        let whole = serving_engine(method, 4);
        let baseline = rendered(
            &whole.classify(&lines).expect("servable methods classify"),
            &lines,
        );

        let mut split_preds = split
            .ingest(&lines[..2])
            .expect("in-order delta")
            .predictions;
        split_preds.extend(
            split
                .ingest(&lines[2..])
                .expect("in-order delta")
                .predictions,
        );
        let whole_preds = whole.ingest(&lines).expect("in-order delta").predictions;

        assert_eq!(split.generation(), 2);
        assert_eq!(whole.generation(), 1);
        let a = rendered(&split_preds, &lines);
        let b = rendered(&whole_preds, &lines);
        assert_eq!(a, b, "{method:?}: split vs whole ingest bytes differ");
        assert_eq!(a, baseline, "{method:?}: ingest vs classify bytes differ");

        // Frozen rule: ingestion must not move the classifier.
        let after = rendered(
            &whole.classify(&lines).expect("servable methods classify"),
            &lines,
        );
        assert_eq!(baseline, after, "{method:?}: classify drifted after ingest");
    }
}
