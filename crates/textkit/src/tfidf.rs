//! Sparse TF-IDF vectors and cosine retrieval.
//!
//! Backs the `IR with tf-idf` baseline that appears in the WeSTClass and
//! ConWea tables, ConWea's seed-expansion ranking, and WeSTClass's
//! keyword-retrieval mode for document-level supervision.

use crate::corpus::Corpus;
use crate::vocab::TokenId;

/// A sparse vector: sorted `(token, weight)` pairs.
pub type SparseVec = Vec<(TokenId, f32)>;

/// A fitted TF-IDF model over a corpus.
#[derive(Clone, Debug)]
pub struct TfIdf {
    idf: Vec<f32>,
    n_docs: usize,
}

impl TfIdf {
    /// Fit IDF weights on `corpus`. Uses smoothed `ln((1+N)/(1+df)) + 1`.
    pub fn fit(corpus: &Corpus) -> Self {
        let n_docs = corpus.len();
        let idf = corpus
            .doc_frequencies()
            .iter()
            .map(|&df| ((1.0 + n_docs as f32) / (1.0 + df as f32)).ln() + 1.0)
            .collect();
        TfIdf { idf, n_docs }
    }

    /// Number of documents the model was fitted on.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// IDF weight of a token (0 for out-of-range ids).
    pub fn idf(&self, t: TokenId) -> f32 {
        self.idf.get(t as usize).copied().unwrap_or(0.0)
    }

    /// L2-normalized TF-IDF vector of a token sequence.
    pub fn vectorize(&self, tokens: &[TokenId]) -> SparseVec {
        let mut counts: std::collections::HashMap<TokenId, f32> = std::collections::HashMap::new();
        for &t in tokens {
            if !crate::vocab::Vocab::is_special(t) {
                *counts.entry(t).or_insert(0.0) += 1.0;
            }
        }
        let mut v: SparseVec = counts
            .into_iter()
            .map(|(t, tf)| (t, tf * self.idf(t)))
            .collect();
        v.sort_by_key(|&(t, _)| t);
        let norm: f32 = v.iter().map(|&(_, w)| w * w).sum::<f32>().sqrt();
        if norm > 0.0 {
            for (_, w) in &mut v {
                *w /= norm;
            }
        }
        v
    }
}

/// Cosine similarity of two sorted sparse vectors.
pub fn sparse_cosine(a: &SparseVec, b: &SparseVec) -> f32 {
    let mut i = 0;
    let mut j = 0;
    let mut dot = 0.0f32;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    // Inputs are L2-normalized by `vectorize`, so the dot product is cosine;
    // renormalize defensively in case callers built vectors by hand.
    let na: f32 = a.iter().map(|&(_, w)| w * w).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|&(_, w)| w * w).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Doc;
    use crate::vocab::Vocab;

    fn corpus() -> Corpus {
        let mut vocab = Vocab::new();
        let common = vocab.intern("the");
        let rare = vocab.intern("penalty");
        let other = vocab.intern("court");
        let mut c = Corpus::new(vocab);
        for _ in 0..9 {
            c.docs.push(Doc::from_tokens(vec![common, other]));
        }
        c.docs.push(Doc::from_tokens(vec![common, rare]));
        c
    }

    #[test]
    fn rare_terms_get_higher_idf() {
        let c = corpus();
        let m = TfIdf::fit(&c);
        let common = c.vocab.id("the").unwrap();
        let rare = c.vocab.id("penalty").unwrap();
        assert!(m.idf(rare) > m.idf(common));
    }

    #[test]
    fn vectorize_is_unit_norm() {
        let c = corpus();
        let m = TfIdf::fit(&c);
        let v = m.vectorize(&c.docs[9].tokens);
        let norm: f32 = v.iter().map(|&(_, w)| w * w).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn identical_docs_have_cosine_one() {
        let c = corpus();
        let m = TfIdf::fit(&c);
        let a = m.vectorize(&c.docs[0].tokens);
        let b = m.vectorize(&c.docs[1].tokens);
        assert!((sparse_cosine(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn disjoint_docs_have_cosine_zero() {
        let mut vocab = Vocab::new();
        let a_tok = vocab.intern("alpha");
        let b_tok = vocab.intern("beta");
        let mut c = Corpus::new(vocab);
        c.docs.push(Doc::from_tokens(vec![a_tok]));
        c.docs.push(Doc::from_tokens(vec![b_tok]));
        let m = TfIdf::fit(&c);
        let va = m.vectorize(&c.docs[0].tokens);
        let vb = m.vectorize(&c.docs[1].tokens);
        assert_eq!(sparse_cosine(&va, &vb), 0.0);
    }

    #[test]
    fn special_tokens_are_ignored() {
        let c = corpus();
        let m = TfIdf::fit(&c);
        let v = m.vectorize(&[crate::vocab::CLS, crate::vocab::PAD]);
        assert!(v.is_empty());
    }
}
