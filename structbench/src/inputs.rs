//! Seeded inputs and their expected outputs. Documents are synthetic-world
//! text rendered to plain lines; the program under test only ever sees
//! these lines.

use std::collections::HashMap;

use structmine_engine::{
    format_prediction_line, Engine, EngineConfig, EngineSource, MethodKind, PlmSpec,
};
use structmine_linalg::{ExecPolicy, Precision};

/// The label set every served engine classifies into.
pub const LABELS: [&str; 4] = ["sports", "business", "politics", "technology"];

/// SplitMix64: a tiny seeded generator for request composition.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Mix a stream tag into the run seed so each input set draws its own
/// documents (and none coincides with the engine's fit corpus).
pub fn stream_seed(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// `n` synthetic-world documents (mean 40 tokens) as text lines.
pub fn docs(n: usize, seed: u64) -> Vec<String> {
    let corpus = structmine_text::synth::pretraining_corpus(n, seed);
    (0..corpus.len()).map(|i| corpus.render(i)).collect()
}

/// The served engine's configuration, loaded in-process: X-Class over
/// [`LABELS`] on the Test-tier PLM at one thread.
pub fn engine(precision: Precision) -> Result<Engine, String> {
    let engine = Engine::load(EngineConfig {
        source: EngineSource::Labels(LABELS.iter().map(|s| s.to_string()).collect()),
        method: MethodKind::XClass,
        plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
        seed: None,
        exec: ExecPolicy::with_threads(1).with_precision(precision),
    })
    .map_err(|e| format!("load engine: {e}"))?;
    engine.warm().map_err(|e| format!("warm engine: {e}"))?;
    Ok(engine)
}

/// The `label\tconfidence\tdoc` line the server must answer for each
/// document, computed through `Engine::classify` (batching invariance makes
/// it independent of how the server splits batches).
pub fn expected_lines(engine: &Engine, docs: &[String]) -> Result<HashMap<String, String>, String> {
    let preds = engine
        .classify(docs)
        .map_err(|e| format!("expected outputs: {e}"))?;
    Ok(docs
        .iter()
        .zip(&preds)
        .map(|(d, p)| (d.clone(), format_prediction_line(p, d)))
        .collect())
}

/// The exact response body for a request of `docs`.
pub fn expected_body(expected: &HashMap<String, String>, docs: &[&str]) -> String {
    let mut body = String::new();
    for d in docs {
        body.push_str(&expected[*d]);
        body.push('\n');
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed() {
        assert_eq!(docs(8, 5), docs(8, 5));
        assert_ne!(docs(8, 5), docs(8, 6));
        assert_ne!(stream_seed(1, 1), stream_seed(1, 2));
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        assert_eq!(
            (0..4).map(|_| a.below(10)).collect::<Vec<_>>(),
            (0..4).map(|_| b.below(10)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn documents_are_single_nonempty_lines() {
        let d = docs(64, 11);
        assert_eq!(d.len(), 64);
        let mean_words = d
            .iter()
            .map(|l| l.split_whitespace().count())
            .sum::<usize>() as f64
            / 64.0;
        assert!(mean_words > 30.0 && mean_words < 50.0, "{mean_words}");
        assert!(d.iter().all(|l| !l.trim().is_empty() && !l.contains('\n')));
    }
}
