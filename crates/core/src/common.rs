//! Utilities shared across method implementations.

use crate::error::MethodError;
use structmine_embed::WordVectors;
use structmine_linalg::exec::{par_map_chunks, ExecPolicy};
use structmine_linalg::{vector, Matrix};
use structmine_plm::MiniPlm;
use structmine_text::taxonomy::{NodeId, Taxonomy};
use structmine_text::tfidf::TfIdf;
use structmine_text::vocab::TokenId;
use structmine_text::{Dataset, Supervision};

/// A taxonomy validated against the dataset's class list: every non-root
/// node maps to exactly one class, so downstream code can index where it
/// previously had to search-and-panic. Hierarchical methods build one of
/// these up front (returning [`MethodError`] on a malformed dataset) and
/// run the rest of the pipeline infallibly.
pub(crate) struct HierView<'a> {
    /// The dataset's taxonomy.
    pub taxonomy: &'a Taxonomy,
    /// node → class index, dense over node ids; the root keeps a sentinel
    /// (it is never predicted — `ancestors`/`path_from_root` exclude it).
    class_of: Vec<usize>,
}

impl HierView<'_> {
    /// The class index of a validated non-root node.
    pub fn class_of(&self, node: NodeId) -> usize {
        self.class_of[node]
    }
}

/// Validate that `dataset` carries a taxonomy whose every non-root node
/// maps to a class.
pub(crate) fn hier_view<'a>(
    dataset: &'a Dataset,
    method: &'static str,
) -> Result<HierView<'a>, MethodError> {
    let taxonomy = dataset
        .taxonomy
        .as_ref()
        .ok_or(MethodError::MissingTaxonomy { method })?;
    let mut class_of = vec![usize::MAX; taxonomy.len()];
    for (class, &node) in dataset.class_nodes.iter().enumerate() {
        if node < class_of.len() {
            class_of[node] = class;
        }
    }
    for node in taxonomy.non_root_nodes() {
        if class_of[node] == usize::MAX {
            return Err(MethodError::UnmappedNode { method, node });
        }
    }
    Ok(HierView { taxonomy, class_of })
}

/// Resolve the per-class seed token lists for a supervision value, falling
/// back to the dataset's label names when given document-level supervision
/// (methods that need seeds but receive docs use names as seeds).
pub fn seed_tokens(dataset: &Dataset, sup: &Supervision) -> Vec<Vec<TokenId>> {
    match sup.seed_tokens() {
        Some(seeds) => seeds.to_vec(),
        None => dataset.label_name_tokens(),
    }
}

/// IDF-weighted static-embedding features for every document (`n x d`).
pub fn embedding_features(dataset: &Dataset, wv: &WordVectors) -> Matrix {
    let tfidf = TfIdf::fit(&dataset.corpus);
    structmine_embed::docvec::weighted_doc_vectors(&dataset.corpus, wv, &tfidf)
}

/// Average-pooled PLM features for every document (`n x d_model`), under
/// the process-wide default execution policy.
pub fn plm_features(dataset: &Dataset, plm: &MiniPlm) -> Matrix {
    plm_features_with(dataset, plm, ExecPolicy::global())
}

/// Average-pooled PLM features for every document (`n x d_model`), sharing
/// the per-document encodes across the policy's threads.
///
/// Routed through the global artifact store: within a process the matrix is
/// computed once per (model, corpus) pair and shared, and across processes
/// it is read back from disk instead of re-encoding the corpus.
pub fn plm_features_with(dataset: &Dataset, plm: &MiniPlm, policy: &ExecPolicy) -> Matrix {
    let stage = structmine_plm::artifacts::DocMeanReps {
        model: plm,
        corpus: &dataset.corpus,
        exec: *policy,
    };
    (*structmine_store::global().run(&stage)).clone()
}

/// Assign every document to the class whose prototype vector is most
/// cosine-similar to the document's feature row.
pub fn nearest_prototype(features: &Matrix, prototypes: &Matrix) -> Vec<usize> {
    let idx: Vec<usize> = (0..features.rows()).collect();
    par_map_chunks(ExecPolicy::global(), &idx, |_, &i| {
        let row = features.row(i);
        let scores: Vec<f32> = (0..prototypes.rows())
            .map(|c| vector::cosine(row, prototypes.row(c)))
            .collect();
        vector::argmax(&scores).unwrap_or(0)
    })
}

/// Class prototypes as mean seed-token embeddings (`k x d`).
pub fn seed_prototypes(seeds: &[Vec<TokenId>], wv: &WordVectors) -> Matrix {
    let mut out = Matrix::zeros(seeds.len(), wv.dim());
    for (c, tokens) in seeds.iter().enumerate() {
        out.row_mut(c).copy_from_slice(&wv.mean_vector(tokens));
    }
    out
}

/// Restrict a per-document prediction vector to the test split.
pub fn test_slice(dataset: &Dataset, preds: &[usize]) -> Vec<usize> {
    dataset.test_idx.iter().map(|&i| preds[i]).collect()
}

/// Softmax rows of a score matrix in place and return it.
pub fn softmax_rows(mut scores: Matrix) -> Matrix {
    let cols = scores.cols();
    structmine_linalg::stats::softmax_rows(scores.data_mut(), cols);
    scores
}

/// Select, per class, the `quota` most confident documents under `probs`
/// (`n x k`); returns (doc indices, their hard labels). Documents are
/// assigned to their argmax class only.
pub fn most_confident_per_class(probs: &Matrix, quota: usize) -> (Vec<usize>, Vec<usize>) {
    let k = probs.cols();
    let mut by_class: Vec<Vec<(usize, f32)>> = vec![Vec::new(); k];
    for i in 0..probs.rows() {
        if let Some(c) = vector::argmax(probs.row(i)) {
            by_class[c].push((i, probs.get(i, c)));
        }
    }
    let mut docs = Vec::new();
    let mut labels = Vec::new();
    for (c, mut members) in by_class.into_iter().enumerate() {
        members.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (i, _) in members.into_iter().take(quota) {
            docs.push(i);
            labels.push(c);
        }
    }
    (docs, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_text::synth::recipes;

    #[test]
    fn seed_tokens_falls_back_to_names_for_doc_supervision() {
        let d = recipes::agnews(0.05, 1).unwrap();
        let sup = d.supervision_docs(2, 1);
        let seeds = seed_tokens(&d, &sup);
        assert_eq!(seeds, d.label_name_tokens());
        let ksup = d.supervision_keywords();
        assert_eq!(seed_tokens(&d, &ksup), d.keyword_tokens());
    }

    #[test]
    fn nearest_prototype_picks_closest() {
        let features = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let prototypes = Matrix::from_rows(&[&[0.9, 0.1], &[0.1, 0.9]]);
        assert_eq!(nearest_prototype(&features, &prototypes), vec![0, 1]);
    }

    #[test]
    fn most_confident_per_class_respects_quota_and_order() {
        let probs = Matrix::from_rows(&[&[0.9, 0.1], &[0.6, 0.4], &[0.8, 0.2], &[0.2, 0.8]]);
        let (docs, labels) = most_confident_per_class(&probs, 2);
        // Class 0: docs 0 (0.9) and 2 (0.8); class 1: doc 3.
        assert_eq!(docs.len(), 3);
        assert!(docs.contains(&0) && docs.contains(&2) && docs.contains(&3));
        let idx0 = docs.iter().position(|&d| d == 0).unwrap();
        assert_eq!(labels[idx0], 0);
    }

    #[test]
    fn test_slice_projects_predictions() {
        let d = recipes::yelp(0.05, 2).unwrap();
        let preds: Vec<usize> = (0..d.corpus.len()).map(|i| i % 2).collect();
        let sliced = test_slice(&d, &preds);
        assert_eq!(sliced.len(), d.test_idx.len());
        assert_eq!(sliced[0], d.test_idx[0] % 2);
    }
}
