//! Skip-gram with negative sampling (word2vec).
//!
//! A direct implementation of Mikolov et al.'s SGNS: for each (center,
//! context) pair within a window, pull the pair's vectors together and push
//! `k` negatives (sampled from the unigram distribution raised to 0.75)
//! apart, under a logistic loss with manually derived gradients.

use rand::rngs::StdRng;
use rand::Rng;
use structmine_linalg::{rng as lrng, vector, Matrix};
use structmine_text::vocab::{TokenId, Vocab};
use structmine_text::Corpus;

/// SGNS hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct SgnsConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Training epochs over the corpus.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed to 10%).
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dim: 32,
            window: 4,
            negatives: 5,
            epochs: 4,
            lr: 0.05,
            seed: 17,
        }
    }
}

/// Trained word vectors (input embeddings).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct WordVectors {
    vectors: Matrix,
}

impl WordVectors {
    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.vectors.cols()
    }

    /// The vector of a token.
    pub fn get(&self, t: TokenId) -> &[f32] {
        self.vectors.row(t as usize)
    }

    /// The full `vocab x d` matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.vectors
    }

    /// Cosine similarity of two tokens.
    pub fn similarity(&self, a: TokenId, b: TokenId) -> f32 {
        vector::cosine(self.get(a), self.get(b))
    }

    /// The `k` most similar tokens to a query vector, skipping special
    /// tokens and any token in `exclude`.
    pub fn nearest(&self, query: &[f32], k: usize, exclude: &[TokenId]) -> Vec<(TokenId, f32)> {
        let mut scored: Vec<(TokenId, f32)> = (0..self.vectors.rows() as TokenId)
            .filter(|&t| !Vocab::is_special(t) && !exclude.contains(&t))
            .map(|t| (t, vector::cosine(query, self.get(t))))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }

    /// Mean of the vectors of `tokens` (unnormalized).
    pub fn mean_vector(&self, tokens: &[TokenId]) -> Vec<f32> {
        let refs: Vec<&[f32]> = tokens.iter().map(|&t| self.get(t)).collect();
        vector::mean_of(&refs, self.dim())
    }

    /// Average word vector of a document, weighted by `weights` (e.g. IDF);
    /// `None` weights means uniform.
    pub fn doc_vector(&self, tokens: &[TokenId], weights: Option<&[f32]>) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim()];
        let mut total = 0.0f32;
        for (i, &t) in tokens.iter().enumerate() {
            if Vocab::is_special(t) {
                continue;
            }
            let w = weights.map_or(1.0, |ws| ws[i]);
            vector::axpy(&mut out, w, self.get(t));
            total += w;
        }
        if total > 0.0 {
            vector::scale(&mut out, 1.0 / total);
        }
        out
    }
}

impl structmine_store::StableHash for WordVectors {
    fn stable_hash(&self, h: &mut structmine_store::StableHasher) {
        self.vectors.stable_hash(h);
    }
}

impl structmine_store::StableHash for SgnsConfig {
    fn stable_hash(&self, h: &mut structmine_store::StableHasher) {
        self.dim.stable_hash(h);
        self.window.stable_hash(h);
        self.negatives.stable_hash(h);
        self.epochs.stable_hash(h);
        self.lr.stable_hash(h);
        self.seed.stable_hash(h);
    }
}

/// The SGNS trainer.
pub struct Sgns;

impl Sgns {
    /// Train word vectors on `corpus`.
    pub fn train(corpus: &Corpus, cfg: &SgnsConfig) -> WordVectors {
        let v = corpus.vocab.len();
        let mut rng = lrng::seeded(cfg.seed);
        let mut input = Matrix::zeros(v, cfg.dim);
        lrng::fill_gaussian(&mut rng, input.data_mut(), 0.5 / cfg.dim as f32);
        let mut output = Matrix::zeros(v, cfg.dim);

        let neg_weights = corpus.vocab.unigram_weights(0.75);
        let neg_table = NegativeTable::new(&neg_weights);

        let total_steps = (cfg.epochs * corpus.n_tokens()).max(1);
        let mut step = 0usize;
        for _ in 0..cfg.epochs {
            for doc in &corpus.docs {
                let toks = &doc.tokens;
                for (pos, &center) in toks.iter().enumerate() {
                    if Vocab::is_special(center) {
                        step += 1;
                        continue;
                    }
                    let lr = cfg.lr * (1.0 - 0.9 * step as f32 / total_steps as f32);
                    let win = 1 + rng.gen_range(0..cfg.window);
                    let lo = pos.saturating_sub(win);
                    let hi = (pos + win + 1).min(toks.len());
                    for (ctx_pos, &context) in toks.iter().enumerate().take(hi).skip(lo) {
                        if ctx_pos == pos {
                            continue;
                        }
                        if Vocab::is_special(context) {
                            continue;
                        }
                        Self::update_pair(
                            &mut input,
                            &mut output,
                            center as usize,
                            context as usize,
                            &neg_table,
                            cfg.negatives,
                            lr,
                            &mut rng,
                        );
                    }
                    step += 1;
                }
            }
        }
        WordVectors { vectors: input }
    }

    #[allow(clippy::too_many_arguments)]
    fn update_pair(
        input: &mut Matrix,
        output: &mut Matrix,
        center: usize,
        context: usize,
        neg_table: &NegativeTable,
        negatives: usize,
        lr: f32,
        rng: &mut StdRng,
    ) {
        let dim = input.cols();
        let mut center_grad = vec![0.0f32; dim];
        // Positive pair: label 1.
        {
            let (cin, cout) = (input.row(center).to_vec(), output.row_mut(context));
            let score = sigmoid(vector::dot(&cin, cout));
            let g = lr * (1.0 - score);
            for i in 0..dim {
                center_grad[i] += g * cout[i];
                cout[i] += g * cin[i];
            }
        }
        // Negatives: label 0.
        for _ in 0..negatives {
            let neg = neg_table.sample(rng);
            if neg == context {
                continue;
            }
            let (cin, nout) = (input.row(center).to_vec(), output.row_mut(neg));
            let score = sigmoid(vector::dot(&cin, nout));
            let g = lr * (0.0 - score);
            for i in 0..dim {
                center_grad[i] += g * nout[i];
                nout[i] += g * cin[i];
            }
        }
        vector::axpy(input.row_mut(center), 1.0, &center_grad);
    }
}

/// Alias sampling table for the negative distribution.
pub(crate) struct NegativeTable {
    cumulative: Vec<f32>,
}

impl NegativeTable {
    pub(crate) fn new(weights: &[f32]) -> Self {
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0f32;
        for &w in weights {
            acc += w;
            cumulative.push(acc);
        }
        NegativeTable { cumulative }
    }

    pub(crate) fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().unwrap_or(&0.0);
        if total <= 0.0 {
            return rng.gen_range(0..self.cumulative.len().max(1));
        }
        let target = rng.gen_range(0.0..total);
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&target).unwrap_or(std::cmp::Ordering::Equal))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_text::synth::recipes;

    fn trained() -> (structmine_text::Dataset, WordVectors) {
        let d = recipes::agnews(0.15, 3).unwrap();
        let wv = Sgns::train(
            &d.corpus,
            &SgnsConfig {
                epochs: 3,
                dim: 24,
                ..Default::default()
            },
        );
        (d, wv)
    }

    #[test]
    fn same_topic_words_are_closer_than_cross_topic() {
        let (d, wv) = trained();
        let v = &d.corpus.vocab;
        let team = v.id("team").unwrap();
        let coach = v.id("coach").unwrap();
        let stock = v.id("stock").unwrap();
        let within = wv.similarity(team, coach);
        let across = wv.similarity(team, stock);
        // The recipes deliberately contaminate classes with each other's
        // words, so the margin is modest — but the ordering must hold.
        assert!(
            within > across + 0.02,
            "within-topic {within} should exceed cross-topic {across}"
        );
    }

    #[test]
    fn nearest_neighbors_of_label_name_are_topical() {
        let (d, wv) = trained();
        let v = &d.corpus.vocab;
        let sports = v.id("sports").unwrap();
        let neighbors = wv.nearest(wv.get(sports), 10, &[sports]);
        let sports_lex = structmine_text::synth::lexicon::lexicon("sports");
        let topical = neighbors
            .iter()
            .filter(|(t, _)| sports_lex.contains(&v.word(*t)))
            .count();
        assert!(
            topical >= 5,
            "only {topical}/10 neighbors topical: {:?}",
            neighbors
                .iter()
                .map(|(t, s)| (v.word(*t), *s))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn doc_vectors_separate_classes() {
        // IDF-weighted doc vectors (what the methods consume) must carry
        // class signal: nearest-class-mean assignment beats chance clearly.
        let (d, wv) = trained();
        let tfidf = structmine_text::tfidf::TfIdf::fit(&d.corpus);
        let features = crate::docvec::weighted_doc_vectors(&d.corpus, &wv, &tfidf);
        let k = d.n_classes();
        let mut means = vec![vec![0.0f32; wv.dim()]; k];
        let mut counts = vec![0usize; k];
        for (i, doc) in d.corpus.docs.iter().enumerate() {
            vector::axpy(&mut means[doc.labels[0]], 1.0, features.row(i));
            counts[doc.labels[0]] += 1;
        }
        for (m, &n) in means.iter_mut().zip(&counts) {
            vector::scale(m, 1.0 / n.max(1) as f32);
        }
        let correct = d
            .corpus
            .docs
            .iter()
            .enumerate()
            .filter(|(i, doc)| {
                let scores: Vec<f32> = means
                    .iter()
                    .map(|m| vector::cosine(features.row(*i), m))
                    .collect();
                vector::argmax(&scores) == Some(doc.labels[0])
            })
            .count();
        let acc = correct as f32 / d.corpus.len() as f32;
        assert!(
            acc > 1.5 / k as f32,
            "doc-vector class signal too weak: {acc}"
        );
    }

    #[test]
    fn negative_table_respects_weights() {
        let mut rng = lrng::seeded(4);
        let table = NegativeTable::new(&[0.0, 1.0, 3.0]);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[2] > counts[1] * 2);
    }

    #[test]
    fn training_is_deterministic() {
        let d = recipes::yelp(0.05, 1).unwrap();
        let cfg = SgnsConfig {
            epochs: 1,
            dim: 8,
            ..Default::default()
        };
        let a = Sgns::train(&d.corpus, &cfg);
        let b = Sgns::train(&d.corpus, &cfg);
        assert_eq!(a.matrix(), b.matrix());
    }

    #[test]
    fn doc_vector_ignores_special_tokens_and_weights() {
        let (d, wv) = trained();
        let goal = d.corpus.vocab.id("goal").unwrap();
        let v1 = wv.doc_vector(&[goal, structmine_text::vocab::PAD], None);
        let v2 = wv.doc_vector(&[goal], None);
        assert_eq!(v1, v2);
        let weighted = wv.doc_vector(&[goal, goal], Some(&[1.0, 3.0]));
        assert!(vector::cosine(&weighted, &v2) > 0.999);
    }
}
