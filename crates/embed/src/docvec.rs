//! Document vectors: TF-IDF-weighted embedding averages and PV-DBOW
//! ("Doc2Vec") training.
//!
//! The weighted average is the workhorse representation for the static
//! methods; PV-DBOW provides the Doc2Vec baseline in the MICoL table — each
//! document gets a trainable vector optimized to predict its own words under
//! negative sampling.

use crate::sgns::{NegativeTable, WordVectors};
use structmine_linalg::{rng as lrng, vector, Matrix};
use structmine_text::tfidf::TfIdf;
use structmine_text::vocab::Vocab;
use structmine_text::Corpus;

/// TF-IDF-weighted average word vectors for every document (`n x d`).
pub fn weighted_doc_vectors(corpus: &Corpus, wv: &WordVectors, tfidf: &TfIdf) -> Matrix {
    let mut out = Matrix::zeros(corpus.len(), wv.dim());
    for (i, doc) in corpus.docs.iter().enumerate() {
        let weights: Vec<f32> = doc.tokens.iter().map(|&t| tfidf.idf(t)).collect();
        let v = wv.doc_vector(&doc.tokens, Some(&weights));
        out.row_mut(i).copy_from_slice(&v);
    }
    out
}

/// Uniform average word vectors for every document.
pub fn mean_doc_vectors(corpus: &Corpus, wv: &WordVectors) -> Matrix {
    let mut out = Matrix::zeros(corpus.len(), wv.dim());
    for (i, doc) in corpus.docs.iter().enumerate() {
        out.row_mut(i)
            .copy_from_slice(&wv.doc_vector(&doc.tokens, None));
    }
    out
}

/// PV-DBOW configuration.
#[derive(Clone, Copy, Debug)]
pub struct Pvdbow {
    /// Vector dimensionality.
    pub dim: usize,
    /// Negative samples per word.
    pub negatives: usize,
    /// Epochs over the corpus.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for Pvdbow {
    fn default() -> Self {
        Pvdbow {
            dim: 32,
            negatives: 5,
            epochs: 6,
            lr: 0.05,
            seed: 23,
        }
    }
}

impl Pvdbow {
    /// Train document vectors: each document vector is optimized to predict
    /// the words it contains (distributed bag of words). Returns `n x d`.
    pub fn train(&self, corpus: &Corpus) -> Matrix {
        let mut rng = lrng::seeded(self.seed);
        let mut docs = Matrix::zeros(corpus.len(), self.dim);
        lrng::fill_gaussian(&mut rng, docs.data_mut(), 0.5 / self.dim as f32);
        let mut words = Matrix::zeros(corpus.vocab.len(), self.dim);
        let neg = NegativeTable::new(&corpus.vocab.unigram_weights(0.75));
        let total = (self.epochs * corpus.n_tokens()).max(1);
        let mut step = 0usize;
        for _ in 0..self.epochs {
            for (d_idx, doc) in corpus.docs.iter().enumerate() {
                for &t in &doc.tokens {
                    step += 1;
                    if Vocab::is_special(t) {
                        continue;
                    }
                    let lr = self.lr * (1.0 - 0.9 * step as f32 / total as f32);
                    let mut dgrad = vec![0.0f32; self.dim];
                    {
                        let dv = docs.row(d_idx).to_vec();
                        let wrow = words.row_mut(t as usize);
                        let s = sigmoid(vector::dot(&dv, wrow));
                        let g = lr * (1.0 - s);
                        for i in 0..self.dim {
                            dgrad[i] += g * wrow[i];
                            wrow[i] += g * dv[i];
                        }
                    }
                    for _ in 0..self.negatives {
                        let n = neg.sample(&mut rng);
                        if n == t as usize {
                            continue;
                        }
                        let dv = docs.row(d_idx).to_vec();
                        let wrow = words.row_mut(n);
                        let s = sigmoid(vector::dot(&dv, wrow));
                        let g = lr * (0.0 - s);
                        for i in 0..self.dim {
                            dgrad[i] += g * wrow[i];
                            wrow[i] += g * dv[i];
                        }
                    }
                    vector::axpy(docs.row_mut(d_idx), 1.0, &dgrad);
                }
            }
        }
        docs
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgns::{Sgns, SgnsConfig};
    use structmine_text::synth::recipes;

    #[test]
    fn weighted_doc_vectors_have_expected_shape() {
        let d = recipes::yelp(0.05, 1).unwrap();
        let wv = Sgns::train(
            &d.corpus,
            &SgnsConfig {
                epochs: 1,
                dim: 12,
                ..Default::default()
            },
        );
        let tfidf = TfIdf::fit(&d.corpus);
        let m = weighted_doc_vectors(&d.corpus, &wv, &tfidf);
        assert_eq!(m.shape(), (d.corpus.len(), 12));
        // No all-zero rows (every doc has non-special tokens).
        for i in 0..m.rows() {
            assert!(vector::norm(m.row(i)) > 0.0, "zero doc vector {i}");
        }
    }

    #[test]
    fn pvdbow_separates_classes() {
        let d = recipes::agnews(0.08, 2).unwrap();
        let docs = Pvdbow {
            epochs: 5,
            dim: 16,
            ..Default::default()
        }
        .train(&d.corpus);
        // Mean intra-class cosine must beat inter-class cosine.
        let n = d.corpus.len();
        let mut intra = (0.0f32, 0usize);
        let mut inter = (0.0f32, 0usize);
        for i in (0..n).step_by(3) {
            for j in (i + 1..n).step_by(7) {
                let sim = vector::cosine(docs.row(i), docs.row(j));
                if d.corpus.docs[i].labels == d.corpus.docs[j].labels {
                    intra.0 += sim;
                    intra.1 += 1;
                } else {
                    inter.0 += sim;
                    inter.1 += 1;
                }
            }
        }
        let intra_mean = intra.0 / intra.1 as f32;
        let inter_mean = inter.0 / inter.1 as f32;
        // Contaminated recipes keep the margin small; the ordering is the
        // property PV-DBOW must preserve.
        assert!(
            intra_mean > inter_mean,
            "intra {intra_mean} should exceed inter {inter_mean}"
        );
    }

    #[test]
    fn mean_doc_vectors_match_manual_average() {
        let d = recipes::yelp(0.05, 3).unwrap();
        let wv = Sgns::train(
            &d.corpus,
            &SgnsConfig {
                epochs: 1,
                dim: 8,
                ..Default::default()
            },
        );
        let m = mean_doc_vectors(&d.corpus, &wv);
        let manual = wv.doc_vector(&d.corpus.docs[0].tokens, None);
        assert_eq!(m.row(0), manual.as_slice());
    }
}
