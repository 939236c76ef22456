//! The synthetic text world: pools of words and mixture-based document
//! generation.
//!
//! A [`World`] interns a set of named word **pools** (topic lexicons, domain
//! lexicons, the general filler pool) into one shared vocabulary. Documents
//! are generated from a **mixture spec**: a list of `(pool, weight)` pairs.
//! For each token the generator picks a pool proportionally to the weights
//! and then a word within the pool from a Zipf-tilted distribution, so the
//! corpus has realistic frequency skew.
//!
//! Polysemy needs no special machinery: a word string appearing in two pools
//! interns to a single token id, so its sense is determined purely by the
//! co-occurring pool — exactly the property contextualized methods exploit.

use crate::corpus::{Corpus, Doc};
use crate::vocab::{TokenId, Vocab};
use rand::rngs::StdRng;
use structmine_linalg::rng as lrng;

/// Identifier of a word pool inside a [`World`].
pub type PoolId = usize;

/// Configuration of the document generator.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Mean document length in tokens.
    pub doc_len_mean: f32,
    /// Standard deviation of document length.
    pub doc_len_std: f32,
    /// Zipf exponent for within-pool word frequencies (0 = uniform).
    pub zipf_power: f32,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            doc_len_mean: 40.0,
            doc_len_std: 12.0,
            zipf_power: 0.7,
        }
    }
}

/// A mixture component: sample from `pool` with probability proportional to
/// `weight`.
#[derive(Clone, Copy, Debug)]
pub struct MixComponent {
    /// Which pool to draw from.
    pub pool: PoolId,
    /// Relative weight of the pool in the mixture.
    pub weight: f32,
}

/// A synthetic text world: shared vocabulary plus named word pools.
#[derive(Clone, Debug)]
pub struct World {
    vocab: Vocab,
    pools: Vec<Pool>,
    pool_names: Vec<String>,
    config: WorldConfig,
}

#[derive(Clone, Debug)]
struct Pool {
    tokens: Vec<TokenId>,
    weights: Vec<f32>,
}

impl World {
    /// Create an empty world with the given generator configuration.
    pub fn new(config: WorldConfig) -> Self {
        World {
            vocab: Vocab::new(),
            pools: Vec::new(),
            pool_names: Vec::new(),
            config,
        }
    }

    /// Intern a named pool of words; returns its id. Re-adding a name is an
    /// error (recipes define each pool once).
    pub fn add_pool(&mut self, name: &str, words: &[&str]) -> PoolId {
        assert!(
            !self.pool_names.iter().any(|n| n == name),
            "pool {name} already exists"
        );
        let tokens: Vec<TokenId> = words.iter().map(|w| self.vocab.intern(w)).collect();
        let weights: Vec<f32> = (0..tokens.len())
            .map(|rank| 1.0 / ((rank + 1) as f32).powf(self.config.zipf_power))
            .collect();
        self.pools.push(Pool { tokens, weights });
        self.pool_names.push(name.to_string());
        self.pools.len() - 1
    }

    /// Add a pool from a named lexicon in [`super::lexicon`].
    pub fn add_lexicon(&mut self, name: &str) -> PoolId {
        self.add_pool(name, super::lexicon::lexicon(name))
    }

    /// Pool id by name.
    pub fn pool(&self, name: &str) -> Option<PoolId> {
        self.pool_names.iter().position(|n| n == name)
    }

    /// The tokens of a pool.
    pub fn pool_tokens(&self, id: PoolId) -> &[TokenId] {
        &self.pools[id].tokens
    }

    /// Shared vocabulary (all pools interned).
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Generator configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Generate one document from a pool mixture.
    pub fn gen_doc(&self, rng: &mut StdRng, mix: &[MixComponent]) -> Vec<TokenId> {
        let len = self.sample_len(rng);
        self.gen_doc_with_len(rng, mix, len)
    }

    /// Generate a document of an exact length from a pool mixture.
    pub fn gen_doc_with_len(
        &self,
        rng: &mut StdRng,
        mix: &[MixComponent],
        len: usize,
    ) -> Vec<TokenId> {
        assert!(!mix.is_empty(), "mixture must have at least one component");
        let weights: Vec<f32> = mix.iter().map(|c| c.weight).collect();
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let c = &mix[lrng::sample_categorical(rng, &weights)];
            let pool = &self.pools[c.pool];
            let w = lrng::sample_categorical(rng, &pool.weights);
            out.push(pool.tokens[w]);
        }
        out
    }

    /// Sample a document length from the configured normal, clamped to >= 8.
    pub fn sample_len(&self, rng: &mut StdRng) -> usize {
        let l = self.config.doc_len_mean + lrng::gaussian(rng) * self.config.doc_len_std;
        l.max(8.0).round() as usize
    }

    /// Generate `n` documents into a fresh corpus, tallying vocabulary counts.
    pub fn gen_corpus(
        &self,
        rng: &mut StdRng,
        specs: &[(Vec<MixComponent>, Vec<usize>)],
    ) -> Corpus {
        let mut corpus = Corpus::new(self.vocab.clone());
        for (mix, labels) in specs {
            let tokens = self.gen_doc(rng, mix);
            for &t in &tokens {
                corpus.vocab.bump(t);
            }
            let mut doc = Doc::from_tokens(tokens);
            doc.labels = labels.clone();
            corpus.docs.push(doc);
        }
        corpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_linalg::rng::seeded;

    fn sample_world() -> World {
        let mut w = World::new(WorldConfig::default());
        w.add_pool("general", &["the", "of", "and"]);
        w.add_lexicon("soccer");
        w.add_lexicon("law");
        w
    }

    #[test]
    fn polysemes_share_a_token_id() {
        let w = sample_world();
        let soccer = w.pool("soccer").unwrap();
        let law = w.pool("law").unwrap();
        let penalty = w.vocab().id("penalty").unwrap();
        assert!(w.pool_tokens(soccer).contains(&penalty));
        assert!(w.pool_tokens(law).contains(&penalty));
    }

    #[test]
    fn gen_doc_draws_only_from_mixture_pools() {
        let w = sample_world();
        let mut rng = seeded(1);
        let soccer = w.pool("soccer").unwrap();
        let mix = [MixComponent {
            pool: soccer,
            weight: 1.0,
        }];
        let doc = w.gen_doc_with_len(&mut rng, &mix, 200);
        let allowed: std::collections::HashSet<_> = w.pool_tokens(soccer).iter().collect();
        assert!(doc.iter().all(|t| allowed.contains(t)));
    }

    #[test]
    fn mixture_weights_are_respected() {
        let w = sample_world();
        let mut rng = seeded(2);
        let general = w.pool("general").unwrap();
        let soccer = w.pool("soccer").unwrap();
        let mix = [
            MixComponent {
                pool: soccer,
                weight: 0.8,
            },
            MixComponent {
                pool: general,
                weight: 0.2,
            },
        ];
        let doc = w.gen_doc_with_len(&mut rng, &mix, 5000);
        let general_set: std::collections::HashSet<_> = w.pool_tokens(general).iter().collect();
        let general_frac =
            doc.iter().filter(|t| general_set.contains(t)).count() as f32 / doc.len() as f32;
        assert!(
            (general_frac - 0.2).abs() < 0.03,
            "general fraction {general_frac}"
        );
    }

    #[test]
    fn zipf_tilts_within_pool_frequencies() {
        let w = sample_world();
        let mut rng = seeded(3);
        let soccer = w.pool("soccer").unwrap();
        let mix = [MixComponent {
            pool: soccer,
            weight: 1.0,
        }];
        let doc = w.gen_doc_with_len(&mut rng, &mix, 20_000);
        let first = w.pool_tokens(soccer)[0];
        let last = *w.pool_tokens(soccer).last().unwrap();
        let cf = doc.iter().filter(|&&t| t == first).count();
        let cl = doc.iter().filter(|&&t| t == last).count();
        assert!(cf > cl, "zipf head {cf} should outnumber tail {cl}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let w = sample_world();
        let soccer = w.pool("soccer").unwrap();
        let mix = [MixComponent {
            pool: soccer,
            weight: 1.0,
        }];
        let a = w.gen_doc(&mut seeded(7), &mix);
        let b = w.gen_doc(&mut seeded(7), &mix);
        assert_eq!(a, b);
    }

    #[test]
    fn gen_corpus_records_counts_and_labels() {
        let w = sample_world();
        let soccer = w.pool("soccer").unwrap();
        let mix = vec![MixComponent {
            pool: soccer,
            weight: 1.0,
        }];
        let specs = vec![(mix.clone(), vec![0]), (mix, vec![1])];
        let corpus = w.gen_corpus(&mut seeded(4), &specs);
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.docs[0].labels, vec![0]);
        let total: u64 = (0..corpus.vocab.len() as u32)
            .map(|t| corpus.vocab.count(t))
            .sum();
        assert_eq!(total as usize, corpus.n_tokens());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_pool_name_panics() {
        let mut w = sample_world();
        w.add_pool("soccer", &["x"]);
    }
}
