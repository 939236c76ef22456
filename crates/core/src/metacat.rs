//! MetaCat — minimally supervised categorization of text with metadata
//! (Zhang et al., SIGIR 2020).
//!
//! The corpus-with-metadata is modeled generatively: global metadata (users,
//! authors, products/venues) *causes* documents, local metadata (tags)
//! *describes* them. All entities — words, documents, labels, users, tags,
//! venues — are embedded into one space by maximizing the likelihood of the
//! observed edges (implemented as typed-edge skip-gram in
//! [`structmine_embed::hin`]). Training data is then **synthesized** from
//! the generative model: for each label, pseudo documents are sampled from
//! words near the label embedding, and a classifier is trained on the few
//! real labeled documents plus the synthesized ones.

use crate::error::MethodError;
use structmine_embed::hin::{HinConfig, HinGraph};
use structmine_linalg::exec::{par_map_chunks, ExecPolicy};
use structmine_linalg::{rng as lrng, stats, vector, Matrix};
use structmine_nn::classifiers::{MlpClassifier, TrainConfig};
use structmine_text::{Dataset, Supervision};

/// MetaCat hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct MetaCat {
    /// Embedding dimensionality.
    pub dim: usize,
    /// HIN edge samples.
    pub samples: usize,
    /// Pseudo documents synthesized per label.
    pub synth_per_class: usize,
    /// Words per synthesized document.
    pub synth_len: usize,
    /// Softmax temperature for word-given-label sampling.
    pub temp: f32,
    /// Classifier hidden width.
    pub hidden: usize,
    /// RNG seed.
    pub seed: u64,
    /// Execution policy for the document featurization (thread count;
    /// output is bitwise identical for any value).
    pub exec: ExecPolicy,
}

impl Default for MetaCat {
    fn default() -> Self {
        MetaCat {
            dim: 32,
            samples: 150_000,
            synth_per_class: 60,
            synth_len: 30,
            temp: 8.0,
            hidden: 32,
            seed: 121,
            exec: ExecPolicy::default(),
        }
    }
}

/// Which signals participate in the embedding (for the paper's baselines).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalSet {
    /// Text + metadata + labels (full MetaCat).
    Full,
    /// Doc-word edges only (PTE-style text baseline).
    TextOnly,
    /// Metadata edges only (metapath2vec/ESim-style graph baseline).
    GraphOnly,
}

impl structmine_store::StableHash for MetaCat {
    /// Every hyper-parameter except `exec`: this method runs no PLM
    /// inference, so neither the thread count nor the precision tier can
    /// change its outputs and cached runs stay valid across both.
    fn stable_hash(&self, h: &mut structmine_store::StableHasher) {
        self.dim.stable_hash(h);
        self.samples.stable_hash(h);
        self.synth_per_class.stable_hash(h);
        self.synth_len.stable_hash(h);
        self.temp.stable_hash(h);
        self.hidden.stable_hash(h);
        self.seed.stable_hash(h);
    }
}

/// MetaCat outputs.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct MetaCatOutput {
    /// Final per-document predictions.
    pub predictions: Vec<usize>,
    /// Number of HIN nodes embedded.
    pub n_nodes: usize,
}

impl MetaCat {
    /// Run MetaCat with document-level supervision. Errors when `sup` is
    /// not labeled documents.
    pub fn run(&self, dataset: &Dataset, sup: &Supervision) -> Result<MetaCatOutput, MethodError> {
        self.run_with_signals(dataset, sup, SignalSet::Full)
    }

    /// Run with a restricted signal set (baseline rows), memoized through
    /// the global artifact store (keyed on dataset, supervision, signal
    /// set, and every hyper-parameter).
    pub fn run_with_signals(
        &self,
        dataset: &Dataset,
        sup: &Supervision,
        signals: SignalSet,
    ) -> Result<MetaCatOutput, MethodError> {
        use structmine_store::StableHash;
        let labeled = sup
            .labeled_docs()
            .ok_or(MethodError::NeedsLabeledDocs { method: "MetaCat" })?;
        Ok(crate::pipeline::run_memoized(
            "metacat/predict",
            |h| {
                h.write_u128(dataset.fingerprint());
                sup.stable_hash(h);
                h.write_u64(match signals {
                    SignalSet::Full => 0,
                    SignalSet::TextOnly => 1,
                    SignalSet::GraphOnly => 2,
                });
                self.stable_hash(h);
            },
            || self.run_validated(dataset, labeled, signals),
        ))
    }

    /// The algorithm proper, over pre-validated labeled documents.
    fn run_validated(
        &self,
        dataset: &Dataset,
        labeled: &[(usize, usize)],
        signals: SignalSet,
    ) -> MetaCatOutput {
        let _stage = structmine_store::context::stage_guard("metacat/run");
        let n_classes = dataset.n_classes();
        let corpus = &dataset.corpus;
        let n_docs = corpus.len();
        let vocab_len = corpus.vocab.len();

        // ------------------------------------------------------------------
        // Build the typed graph.
        // ------------------------------------------------------------------
        let graph_span = structmine_store::context::stage_guard("metacat/graph-embed");
        let mut g = HinGraph::new();
        let (_, docs0) = g.add_partition("doc", n_docs);
        let (_, words0) = g.add_partition("word", vocab_len);
        let (_, labels0) = g.add_partition("label", n_classes);
        let meta = dataset.meta;
        let (users0, tags0, venues0, authors0) = (
            if meta.n_users > 0 {
                Some(g.add_partition("user", meta.n_users).1)
            } else {
                None
            },
            if meta.n_tags > 0 {
                Some(g.add_partition("tag", meta.n_tags).1)
            } else {
                None
            },
            if meta.n_venues > 0 {
                Some(g.add_partition("venue", meta.n_venues).1)
            } else {
                None
            },
            if meta.n_authors > 0 {
                Some(g.add_partition("author", meta.n_authors).1)
            } else {
                None
            },
        );

        let dw = g.add_edge_type("doc-word");
        let dmeta = g.add_edge_type("doc-meta");
        let dlabel = g.add_edge_type("doc-label");

        for (i, doc) in corpus.docs.iter().enumerate() {
            for &t in &doc.tokens {
                if !structmine_text::Vocab::is_special(t) {
                    g.add_edge(dw, docs0 + i, words0 + t as usize);
                }
            }
            if let (Some(u0), Some(u)) = (users0, doc.user) {
                g.add_edge(dmeta, docs0 + i, u0 + u);
            }
            if let Some(t0) = tags0 {
                for &t in &doc.tags {
                    g.add_edge(dmeta, docs0 + i, t0 + t);
                }
            }
            if let (Some(v0), Some(v)) = (venues0, doc.venue) {
                g.add_edge(dmeta, docs0 + i, v0 + v);
            }
            if let Some(a0) = authors0 {
                for &a in &doc.authors {
                    g.add_edge(dmeta, docs0 + i, a0 + a);
                }
            }
        }
        // Label supervision edges: labeled docs, their words, and the label
        // name words anchor each label embedding.
        let names = dataset.label_name_tokens();
        for &(i, c) in labeled {
            g.add_edge(dlabel, labels0 + c, docs0 + i);
        }
        for (c, name) in names.iter().enumerate() {
            for &t in name {
                g.add_edge(dlabel, labels0 + c, words0 + t as usize);
            }
        }

        let edge_types: Vec<usize> = match signals {
            SignalSet::Full => vec![dw, dmeta, dlabel],
            SignalSet::TextOnly => vec![dw, dlabel],
            SignalSet::GraphOnly => vec![dmeta, dlabel],
        };
        let emb = g.embed(
            &HinConfig {
                dim: self.dim,
                samples: self.samples,
                seed: self.seed,
                ..Default::default()
            },
            &edge_types,
        );

        drop(graph_span);
        let _sub = structmine_store::context::stage_guard("metacat/train");

        // ------------------------------------------------------------------
        // Featurize documents consistently: every document (real, labeled or
        // synthesized) is the mean of its word embeddings in the joint
        // space, blended with its own doc-node embedding. Using one geometry
        // for training and inference is what makes the synthesized examples
        // transferable.
        // ------------------------------------------------------------------
        let doc_feature = |i: usize| -> Vec<f32> {
            let mut acc = vec![0.0f32; self.dim];
            let mut count = 0usize;
            for &t in &corpus.docs[i].tokens {
                if !structmine_text::Vocab::is_special(t) {
                    vector::axpy(&mut acc, 1.0, emb.row(words0 + t as usize));
                    count += 1;
                }
            }
            if count > 0 {
                vector::scale(&mut acc, 1.0 / count as f32);
            }
            // Blend in the doc node itself, which carries the metadata signal.
            vector::axpy(&mut acc, 1.0, emb.row(docs0 + i));
            vector::scale(&mut acc, 0.5);
            acc
        };

        // Label prototype: labeled documents' features + name-word vectors.
        let names = dataset.label_name_tokens();
        let mut label_vecs: Vec<Vec<f32>> = Vec::with_capacity(n_classes);
        for (c, name_toks) in names.iter().enumerate() {
            let mut acc = emb.row(labels0 + c).to_vec();
            let mut weight = 1.0f32;
            for &(i, lc) in labeled {
                if lc == c {
                    vector::axpy(&mut acc, 1.0, &doc_feature(i));
                    weight += 1.0;
                }
            }
            for &t in name_toks {
                vector::axpy(&mut acc, 1.0, emb.row(words0 + t as usize));
                weight += 1.0;
            }
            vector::scale(&mut acc, 1.0 / weight);
            label_vecs.push(acc);
        }

        // ------------------------------------------------------------------
        // Synthesize training documents from the generative model.
        // ------------------------------------------------------------------
        let mut rng = lrng::seeded(self.seed ^ 0xCA7);
        let mut train_x = Vec::<f32>::new();
        let mut train_y = Vec::new();
        let real_words_start = structmine_text::vocab::N_SPECIAL;
        for (c, label_vec) in label_vecs.iter().enumerate() {
            // Word distribution given the label: softmax over similarity.
            let sims: Vec<f32> = (real_words_start..vocab_len)
                .map(|w| {
                    if corpus.vocab.count(w as u32) == 0 {
                        f32::NEG_INFINITY
                    } else {
                        vector::cosine(label_vec, emb.row(words0 + w)) * self.temp
                    }
                })
                .collect();
            let probs = stats::softmax(&sims);
            for _ in 0..self.synth_per_class {
                let mut acc = vec![0.0f32; self.dim];
                for _ in 0..self.synth_len {
                    let w = real_words_start + lrng::sample_categorical(&mut rng, &probs);
                    vector::axpy(&mut acc, 1.0 / self.synth_len as f32, emb.row(words0 + w));
                }
                // Synthesized docs have no doc node; blend with the label
                // prototype to mirror the doc-feature geometry.
                vector::axpy(&mut acc, 1.0, label_vec);
                vector::scale(&mut acc, 0.5);
                train_x.extend_from_slice(&acc);
                train_y.push(c);
            }
        }
        // Real labeled documents join the training set.
        for &(i, c) in labeled {
            train_x.extend_from_slice(&doc_feature(i));
            train_y.push(c);
        }

        let x = Matrix::from_vec(train_y.len(), self.dim, train_x);
        let mut clf = MlpClassifier::new(self.dim, self.hidden, n_classes, self.seed);
        let targets = structmine_nn::classifiers::one_hot(&train_y, n_classes, 0.1);
        clf.fit(
            &x,
            &targets,
            &TrainConfig {
                epochs: 30,
                seed: self.seed,
                ..Default::default()
            },
        );

        // Predict every document from its (consistent) representation. Each
        // feature row depends only on the frozen embedding, so the rows are
        // computed under the policy and written back in document order.
        let idx: Vec<usize> = (0..n_docs).collect();
        let rows = par_map_chunks(&self.exec, &idx, |_, &i| doc_feature(i));
        let mut doc_features = Matrix::zeros(n_docs, self.dim);
        for (i, row) in rows.iter().enumerate() {
            doc_features.row_mut(i).copy_from_slice(row);
        }
        let predictions = clf.predict(&doc_features);
        MetaCatOutput {
            predictions,
            n_nodes: g.n_nodes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_eval::accuracy;
    use structmine_text::synth::recipes;

    fn acc(d: &Dataset, preds: &[usize]) -> f32 {
        accuracy(&crate::common::test_slice(d, preds), &d.test_gold())
    }

    fn small() -> Dataset {
        recipes::github_bio(0.3, 81).unwrap()
    }

    #[test]
    fn metacat_beats_chance_with_few_labels() {
        let d = small();
        let sup = d.supervision_docs(3, 1);
        let out = MetaCat {
            samples: 60_000,
            ..Default::default()
        }
        .run(&d, &sup)
        .unwrap();
        let a = acc(&d, &out.predictions);
        assert!(a > 0.4, "MetaCat acc {a}");
        assert!(out.n_nodes > d.corpus.len());
    }

    #[test]
    fn metadata_signals_help_over_text_only() {
        let d = small();
        let sup = d.supervision_docs(3, 2);
        let cfg = MetaCat {
            samples: 60_000,
            ..Default::default()
        };
        let full = acc(
            &d,
            &cfg.run_with_signals(&d, &sup, SignalSet::Full)
                .unwrap()
                .predictions,
        );
        let text = acc(
            &d,
            &cfg.run_with_signals(&d, &sup, SignalSet::TextOnly)
                .unwrap()
                .predictions,
        );
        assert!(
            full >= text - 0.05,
            "metadata should not hurt: full {full} vs text-only {text}"
        );
    }

    #[test]
    fn graph_only_still_carries_signal() {
        let d = small();
        let sup = d.supervision_docs(3, 3);
        let cfg = MetaCat {
            samples: 60_000,
            ..Default::default()
        };
        let graph = acc(
            &d,
            &cfg.run_with_signals(&d, &sup, SignalSet::GraphOnly)
                .unwrap()
                .predictions,
        );
        assert!(graph > 0.25, "graph-only acc {graph}");
    }

    #[test]
    fn requires_doc_supervision() {
        let d = small();
        let err = MetaCat::default()
            .run(&d, &d.supervision_names())
            .unwrap_err();
        assert!(
            matches!(err, MethodError::NeedsLabeledDocs { .. }),
            "unexpected error: {err}"
        );
    }
}
