//! Baselines appearing across the tutorial's evaluation tables.
//!
//! * [`ir_tfidf`] — retrieve by cosine between a document's TF-IDF vector
//!   and the seed keywords ("IR with tf-idf").
//! * [`dataless`] — label-name / document similarity in the static
//!   embedding space (Dataless / Word2Vec rows).
//! * [`topic_model`] — unsupervised spherical k-means topics on TF-IDF-
//!   weighted embeddings, aligned to classes by seed similarity (the
//!   "Topic Model" row).
//! * [`bert_simple_match`] — cosine between average-pooled PLM document
//!   representations and label-name representations ("BERT w. simple match").
//! * [`zero_shot_entail`] — NLI entailment between document and label
//!   description (Hier-0Shot-TC / ZeroShot-Entail rows).
//! * [`supervised`] — an MLP trained on the gold-labeled training split
//!   over the given features (the "Supervised" upper-bound rows).

use crate::common;
use structmine_embed::WordVectors;
use structmine_linalg::exec::{par_map_chunks, ExecPolicy};
use structmine_linalg::{vector, Matrix, Precision};
use structmine_plm::MiniPlm;
use structmine_text::tfidf::{sparse_cosine, TfIdf};
use structmine_text::vocab::TokenId;
use structmine_text::{Dataset, Supervision};

/// IR with TF-IDF: score each class by cosine between the document vector
/// and the class's seed-keyword pseudo-query.
pub fn ir_tfidf(dataset: &Dataset, sup: &Supervision) -> Vec<usize> {
    let seeds = common::seed_tokens(dataset, sup);
    let tfidf = TfIdf::fit(&dataset.corpus);
    let queries: Vec<_> = seeds.iter().map(|s| tfidf.vectorize(s)).collect();
    par_map_chunks(ExecPolicy::global(), &dataset.corpus.docs, |_, doc| {
        let dv = tfidf.vectorize(&doc.tokens);
        let scores: Vec<f32> = queries.iter().map(|q| sparse_cosine(&dv, q)).collect();
        vector::argmax(&scores).unwrap_or(0)
    })
}

/// Dataless / Word2Vec matching: nearest seed prototype in embedding space.
pub fn dataless(dataset: &Dataset, sup: &Supervision, wv: &WordVectors) -> Vec<usize> {
    let seeds = common::seed_tokens(dataset, sup);
    let prototypes = common::seed_prototypes(&seeds, wv);
    let features = common::embedding_features(dataset, wv);
    common::nearest_prototype(&features, &prototypes)
}

/// Unsupervised topic model: spherical k-means on embedding features, with
/// clusters mapped to classes by prototype similarity of their centroids.
pub fn topic_model(
    dataset: &Dataset,
    sup: &Supervision,
    wv: &WordVectors,
    seed: u64,
) -> Vec<usize> {
    let k = dataset.n_classes();
    let features = common::embedding_features(dataset, wv);
    let result = structmine_cluster::spherical_kmeans(&features, k, seed, 50, None);
    let seeds = common::seed_tokens(dataset, sup);
    let prototypes = common::seed_prototypes(&seeds, wv);
    // Greedy cluster -> class mapping by centroid/prototype cosine (no
    // Hungarian here: the paper's topic-model baseline is this crude).
    let mapping: Vec<usize> = (0..k)
        .map(|cluster| {
            let scores: Vec<f32> = (0..k)
                .map(|c| vector::cosine(result.centroids.row(cluster), prototypes.row(c)))
                .collect();
            vector::argmax(&scores).unwrap_or(0)
        })
        .collect();
    result.assignments.iter().map(|&a| mapping[a]).collect()
}

/// BERT with simple matching: cosine between average-pooled document
/// representations and the label-name contextual representations.
pub fn bert_simple_match(dataset: &Dataset, plm: &MiniPlm) -> Vec<usize> {
    let names = dataset.label_name_tokens();
    let mut prototypes = Matrix::zeros(names.len(), plm.config.d_model);
    for (c, name) in names.iter().enumerate() {
        let v = plm.mean_embed(name, Precision::Exact);
        prototypes.row_mut(c).copy_from_slice(&v);
    }
    let features = common::plm_features(dataset, plm);
    common::nearest_prototype(&features, &prototypes)
}

/// Zero-shot entailment: argmax over classes of
/// `P(doc entails "<label description>")` under the PLM's NLI head.
pub fn zero_shot_entail(dataset: &Dataset, plm: &MiniPlm) -> Vec<usize> {
    zero_shot_entail_with(dataset, plm, ExecPolicy::global())
}

/// [`zero_shot_entail`] under an explicit execution policy: one batched
/// entailment matrix (memoized through the global artifact store), then a
/// per-document argmax.
pub fn zero_shot_entail_with(dataset: &Dataset, plm: &MiniPlm, policy: &ExecPolicy) -> Vec<usize> {
    let hyps = label_description_tokens(dataset);
    let stage = structmine_plm::artifacts::NliEntail {
        model: plm,
        corpus: &dataset.corpus,
        hypotheses: &hyps,
        exec: *policy,
    };
    let scores = structmine_store::global().run(&stage);
    (0..scores.rows())
        .map(|i| vector::argmax(scores.row(i)).unwrap_or(0))
        .collect()
}

/// Tokenized label descriptions (falling back to names when a description
/// word is out of vocabulary).
pub fn label_description_tokens(dataset: &Dataset) -> Vec<Vec<TokenId>> {
    dataset
        .labels
        .descriptions
        .iter()
        .enumerate()
        .map(|(c, desc)| {
            let toks = structmine_text::tokenize::encode(desc, &dataset.corpus.vocab)
                .into_iter()
                .filter(|&t| t != structmine_text::vocab::UNK)
                .collect::<Vec<_>>();
            if toks.is_empty() {
                dataset.label_name_tokens()[c].clone()
            } else {
                toks
            }
        })
        .collect()
}

/// Supervised upper bound: an MLP on the given features, trained on the
/// gold labels of the training split, predicting every document.
pub fn supervised(dataset: &Dataset, features: &Matrix, seed: u64) -> Vec<usize> {
    let train_x = features.select_rows(&dataset.train_idx);
    let train_y: Vec<usize> = dataset
        .train_idx
        .iter()
        .map(|&i| dataset.corpus.docs[i].labels[0])
        .collect();
    let mut clf = structmine_nn::classifiers::MlpClassifier::new(
        features.cols(),
        64,
        dataset.n_classes(),
        seed,
    );
    let targets = structmine_nn::classifiers::one_hot(&train_y, dataset.n_classes(), 0.05);
    clf.fit(
        &train_x,
        &targets,
        &structmine_nn::classifiers::TrainConfig {
            epochs: 40,
            ..Default::default()
        },
    );
    clf.predict(features)
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_embed::{Sgns, SgnsConfig};
    use structmine_eval::accuracy;
    use structmine_text::synth::recipes;

    fn eval(dataset: &Dataset, preds: &[usize]) -> f32 {
        accuracy(&common::test_slice(dataset, preds), &dataset.test_gold())
    }

    #[test]
    fn ir_tfidf_beats_chance_with_keywords() {
        let d = recipes::agnews(0.1, 1).unwrap();
        let acc = eval(&d, &ir_tfidf(&d, &d.supervision_keywords()));
        assert!(acc > 0.5, "IR-tfidf acc {acc}");
    }

    #[test]
    fn dataless_beats_ir_tfidf_shape() {
        let d = recipes::agnews(0.1, 4).unwrap();
        let wv = Sgns::train(
            &d.corpus,
            &SgnsConfig {
                epochs: 3,
                dim: 24,
                ..Default::default()
            },
        );
        let ir = eval(&d, &ir_tfidf(&d, &d.supervision_names()));
        let dl = eval(&d, &dataless(&d, &d.supervision_names(), &wv));
        assert!(dl > 0.5, "dataless acc {dl}");
        // Embedding matching generalizes beyond literal keyword overlap.
        assert!(
            dl + 0.12 >= ir,
            "dataless {dl} should not trail IR {ir} badly"
        );
    }

    #[test]
    fn supervised_is_a_strong_upper_bound() {
        let d = recipes::agnews(0.1, 3).unwrap();
        let wv = Sgns::train(
            &d.corpus,
            &SgnsConfig {
                epochs: 3,
                dim: 24,
                ..Default::default()
            },
        );
        let features = common::embedding_features(&d, &wv);
        let acc = eval(&d, &supervised(&d, &features, 5));
        assert!(acc > 0.9, "supervised acc {acc}");
    }

    #[test]
    fn topic_model_runs_and_beats_chance() {
        let d = recipes::agnews(0.1, 4).unwrap();
        let wv = Sgns::train(
            &d.corpus,
            &SgnsConfig {
                epochs: 3,
                dim: 24,
                ..Default::default()
            },
        );
        let acc = eval(&d, &topic_model(&d, &d.supervision_keywords(), &wv, 9));
        assert!(acc > 0.3, "topic model acc {acc}");
    }

    #[test]
    fn label_description_tokens_are_in_vocab() {
        let d = recipes::dbpedia(0.05, 5).unwrap();
        for toks in label_description_tokens(&d) {
            assert!(!toks.is_empty());
            assert!(toks.iter().all(|&t| (t as usize) < d.corpus.vocab.len()));
        }
    }
}
