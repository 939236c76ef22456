//! Streaming-ingestion integration tests (DESIGN §11).
//!
//! The incremental-equivalence contract, end to end: however a document
//! stream is split into generational deltas, the resulting corpus
//! statistics and served predictions must be byte-identical to a cold
//! build over the concatenated stream — at 1 thread and at 4 — and
//! misordered deltas must fail closed without touching any state.

use proptest::prelude::*;
use rand::Rng;
use structmine_engine::{
    format_prediction_line, Engine, EngineConfig, EngineSource, MethodKind, PlmSpec,
};
use structmine_linalg::rng as lrng;
use structmine_linalg::ExecPolicy;
use structmine_text::tfidf::TfIdf;
use structmine_text::tokenize;
use structmine_text::vocab::TokenId;
use structmine_text::{Corpus, CorpusDelta, DeltaCorpus, DeltaError, Doc, Vocab};

/// Word pool for synthetic streams: a mix so deltas overlap the base
/// vocabulary and also intern new words mid-stream.
const WORDS: &[&str] = &[
    "match", "team", "goal", "league", "market", "stock", "profit", "merger", "court", "ruling",
    "appeal", "verdict", "chip", "software", "device", "network", "vaccine", "trial", "clinic",
    "dose",
];

/// A from-scratch build of `lines`: fresh vocabulary, interning and
/// bumping counts per occurrence in stream order — the reference the
/// incremental merge rule must reproduce bit for bit.
fn cold_build(lines: &[String]) -> Corpus {
    let mut c = Corpus::new(Vocab::new());
    for l in lines {
        let toks = tokenize::encode_interning(l, &mut c.vocab);
        for &t in &toks {
            c.vocab.bump(t);
        }
        c.docs.push(Doc::from_tokens(toks));
    }
    c
}

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

    /// K delta appends produce the same bits as one cold concatenated
    /// build: corpus fingerprint, vocabulary, document frequencies, and
    /// every IDF value. The split points are arbitrary.
    #[test]
    fn k_delta_appends_equal_one_cold_build(
        seed in 1u64..400,
        k in 1usize..6,
        n_base in 1usize..12,
        n_stream in 1usize..24,
    ) {
        let base = stream_from_seed(seed, n_base);
        let stream = stream_from_seed(seed.wrapping_mul(31), n_stream);

        let mut warm = DeltaCorpus::from_corpus(cold_build(&base));
        for chunk in random_chunks(&stream, k, seed) {
            warm.apply_text(&chunk);
        }

        let all: Vec<String> = base.iter().chain(stream.iter()).cloned().collect();
        let cold = cold_build(&all);

        prop_assert_eq!(warm.corpus().fingerprint(), cold.fingerprint());
        prop_assert_eq!(warm.doc_frequencies(), &cold.doc_frequencies()[..]);
        let warm_idf = warm.tfidf();
        let cold_idf = TfIdf::fit(&cold);
        for t in 0..cold.vocab.len() as TokenId {
            prop_assert_eq!(warm_idf.idf(t).to_bits(), cold_idf.idf(t).to_bits());
        }
    }

    /// Rejected deltas leave every statistic untouched, for arbitrary
    /// forged generation stamps: behind-current fails as a duplicate,
    /// ahead-of-current fails as out-of-order, and nothing is mutated.
    #[test]
    fn misordered_deltas_fail_closed(
        seed in 1u64..400,
        applied in 0u32..4,
        forged in 0u32..9,
    ) {
        let mut dc = DeltaCorpus::from_corpus(cold_build(&stream_from_seed(seed, 4)));
        for g in 0..applied {
            dc.apply_text(&stream_from_seed(seed + u64::from(g), 2));
        }
        prop_assume!(forged != applied + 1); // in-order deltas are accepted
        let before = dc.stats_fingerprint();
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
        prop_assert_eq!(dc.stats_fingerprint(), before);
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
fn rendered(engine: &Engine, lines: &[String]) -> Vec<String> {
    engine
        .ingested_predictions()
        .iter()
        .zip(lines)
        .map(|(p, l)| format_prediction_line(p, l))
        .collect()
}

/// The served half of the contract: splitting a stream into K ingests at
/// 1 thread and ingesting it whole at 4 threads yields byte-identical
/// prediction lines, and the serving rule itself is unchanged by
/// ingestion (classify before == classify after).
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
        let baseline = whole
            .classify(&lines)
            .expect("servable methods classify")
            .iter()
            .zip(&lines)
            .map(|(p, l)| format_prediction_line(p, l))
            .collect::<Vec<_>>();

        split.ingest(&lines[..2]).expect("in-order delta");
        split.ingest(&lines[2..]).expect("in-order delta");
        whole.ingest(&lines).expect("in-order delta");

        assert_eq!(split.generation(), 2);
        assert_eq!(whole.generation(), 1);
        let a = rendered(&split, &lines);
        let b = rendered(&whole, &lines);
        assert_eq!(a, b, "{method:?}: split vs whole ingest bytes differ");
        assert_eq!(a, baseline, "{method:?}: ingest vs classify bytes differ");

        // Frozen rule: ingestion must not move the classifier.
        let after = whole
            .classify(&lines)
            .expect("servable methods classify")
            .iter()
            .zip(&lines)
            .map(|(p, l)| format_prediction_line(p, l))
            .collect::<Vec<_>>();
        assert_eq!(baseline, after, "{method:?}: classify drifted after ingest");
    }
}
