//! X-Class — text classification with extremely weak supervision via
//! class-oriented representations (Wang, Mekala & Shang, NAACL 2021).
//!
//! Average-pooled PLM representations cluster by *dominant* signal, which
//! need not be the user's desired class criterion (the same corpus can be
//! classified by topic, location, or sentiment). X-Class steers the
//! representation toward the classes:
//!
//! 1. **Class representations** — start from the label name's
//!    contextualized occurrences and expand with statically similar words.
//! 2. **Class-oriented document representations** — a document is the
//!    attention-weighted average of its token representations, weighted by
//!    similarity to the closest class representation.
//! 3. **Document-class alignment** — a Gaussian mixture *seeded on the
//!    per-class prior means* clusters the documents while keeping cluster
//!    `c` aligned with class `c`.
//! 4. **Classifier training** — the most confident fraction per class
//!    trains a conventional classifier that predicts every document.
//!
//! `rep_predictions` / `align_predictions` / `predictions` reproduce the
//! paper's X-Class-Rep / X-Class-Align / X-Class rows.

use crate::common;
use structmine_cluster::gmm::{Gmm, GmmConfig};
use structmine_linalg::exec::ExecPolicy;
use structmine_linalg::{stats, vector, Matrix, Pca};
use structmine_nn::classifiers::{MlpClassifier, TrainConfig};
use structmine_plm::MiniPlm;
use structmine_text::vocab::TokenId;
use structmine_text::Dataset;

/// X-Class hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct XClass {
    /// EM iterations for the alignment GMM. Deliberately small: the prior
    /// (class-seeded) means are the supervision signal, and long EM runs
    /// drift toward whatever unsupervised structure dominates the corpus.
    pub gmm_iters: usize,
    /// Similar words added to each class representation.
    pub expand_words: usize,
    /// Contextualized occurrences of the label name averaged per class.
    pub occurrences_cap: usize,
    /// Attention sharpness over token-to-class similarity.
    pub attention_temp: f32,
    /// PCA dimensionality before GMM alignment (0 = no PCA).
    pub pca_dims: usize,
    /// Fraction of documents (per class) kept as confident training data.
    pub confident_fraction: f32,
    /// Classifier hidden width.
    pub hidden: usize,
    /// RNG seed.
    pub seed: u64,
    /// Execution policy for the corpus encode (thread count; output is
    /// bitwise identical for any value).
    pub exec: ExecPolicy,
}

impl Default for XClass {
    fn default() -> Self {
        XClass {
            gmm_iters: 1,
            expand_words: 8,
            occurrences_cap: 40,
            attention_temp: 8.0,
            pca_dims: 16,
            confident_fraction: 0.5,
            hidden: 32,
            seed: 81,
            exec: ExecPolicy::default(),
        }
    }
}

impl structmine_store::StableHash for XClass {
    /// Every hyper-parameter plus the policy's precision tier. The thread
    /// count is excluded (it cannot change outputs), but the precision
    /// tier swaps in approximate PLM inference kernels and *does* change
    /// bits — Exact and Fast runs must never share a cache entry.
    fn stable_hash(&self, h: &mut structmine_store::StableHasher) {
        self.gmm_iters.stable_hash(h);
        self.expand_words.stable_hash(h);
        self.occurrences_cap.stable_hash(h);
        self.attention_temp.stable_hash(h);
        self.pca_dims.stable_hash(h);
        self.confident_fraction.stable_hash(h);
        self.hidden.stable_hash(h);
        self.seed.stable_hash(h);
        self.exec.precision().stable_hash(h);
    }
}

/// X-Class outputs, exposing the paper's ablation stages.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct XClassOutput {
    /// Final predictions (confident-subset classifier) — "X-Class".
    pub predictions: Vec<usize>,
    /// Nearest-class-representation predictions — "X-Class-Rep".
    pub rep_predictions: Vec<usize>,
    /// GMM-aligned predictions — "X-Class-Align".
    pub align_predictions: Vec<usize>,
    /// The words backing each class representation.
    pub class_words: Vec<Vec<TokenId>>,
}

/// Stage: X-Class's expanded class representations (step 1).
struct ClassRepsStage<'a> {
    cfg: &'a XClass,
    dataset: &'a Dataset,
    plm: &'a MiniPlm,
}

impl structmine_store::Stage for ClassRepsStage<'_> {
    type Output = (Matrix, Vec<Vec<TokenId>>);

    fn name(&self) -> &'static str {
        "xclass/class-reps"
    }

    fn fingerprint(&self, h: &mut structmine_store::StableHasher) {
        use structmine_store::StableHash;
        h.write_u128(self.dataset.fingerprint());
        h.write_u128(self.plm.fingerprint());
        self.cfg.expand_words.stable_hash(h);
        self.cfg.occurrences_cap.stable_hash(h);
        // The occurrence encodes below run at the policy's precision tier,
        // so Exact and Fast runs must key separately. Downstream stages
        // (doc-reps, align) chain on this key and inherit the split.
        self.cfg.exec.precision().stable_hash(h);
    }

    fn compute(&self) -> (Matrix, Vec<Vec<TokenId>>) {
        self.cfg.class_representations(self.dataset, self.plm)
    }
}

/// Stage: class-oriented document representations (step 2), chained onto
/// the class-reps stage by its artifact key. The underlying corpus encode
/// runs through the shared [`structmine_plm::artifacts::EncodeCorpus`]
/// stage, so other methods in the same process reuse it.
struct DocRepsStage<'a> {
    cfg: &'a XClass,
    dataset: &'a Dataset,
    plm: &'a MiniPlm,
    class_reps: &'a Matrix,
    upstream: &'a structmine_store::ArtifactKey,
}

impl structmine_store::Stage for DocRepsStage<'_> {
    type Output = Matrix;

    fn name(&self) -> &'static str {
        "xclass/doc-reps"
    }

    fn fingerprint(&self, h: &mut structmine_store::StableHasher) {
        use structmine_store::StableHash;
        self.upstream.stable_hash(h);
        self.cfg.attention_temp.stable_hash(h);
    }

    fn compute(&self) -> Matrix {
        let encoded = structmine_store::global().run(&structmine_plm::artifacts::EncodeCorpus {
            model: self.plm,
            corpus: &self.dataset.corpus,
            exec: self.cfg.exec,
        });
        self.cfg
            .doc_representations(self.dataset, self.plm, self.class_reps, &encoded)
    }
}

/// Stage: GMM document-class alignment (step 3) — posteriors plus hard
/// assignments.
struct AlignStage<'a> {
    cfg: &'a XClass,
    doc_reps: &'a Matrix,
    rep_predictions: &'a [usize],
    n_classes: usize,
    upstream: &'a structmine_store::ArtifactKey,
}

impl structmine_store::Stage for AlignStage<'_> {
    type Output = (Matrix, Vec<usize>);

    fn name(&self) -> &'static str {
        "xclass/align"
    }

    fn fingerprint(&self, h: &mut structmine_store::StableHasher) {
        use structmine_store::StableHash;
        self.upstream.stable_hash(h);
        self.cfg.gmm_iters.stable_hash(h);
        self.cfg.pca_dims.stable_hash(h);
    }

    fn compute(&self) -> (Matrix, Vec<usize>) {
        self.cfg
            .align(self.doc_reps, self.rep_predictions, self.n_classes)
    }
}

impl XClass {
    /// Run X-Class with label-name supervision, memoized through the
    /// global artifact store. A cold run persists each internal stage —
    /// class representations, document representations, alignment, final
    /// predictions — so a hyper-parameter change recomputes only from the
    /// first stale stage.
    pub fn run(&self, dataset: &Dataset, plm: &MiniPlm) -> XClassOutput {
        use structmine_store::StableHash;
        crate::pipeline::run_memoized(
            "xclass/predict",
            |h| {
                h.write_u128(dataset.fingerprint());
                h.write_u128(plm.fingerprint());
                self.stable_hash(h);
            },
            || self.run_staged(dataset, plm),
        )
    }

    /// The staged pipeline behind [`XClass::run`]: each step goes through
    /// the store individually, so a warm store serves every step that is
    /// still valid.
    fn run_staged(&self, dataset: &Dataset, plm: &MiniPlm) -> XClassOutput {
        use structmine_store::Stage;
        let store = structmine_store::global();
        let class_stage = ClassRepsStage {
            cfg: self,
            dataset,
            plm,
        };
        let class_key = class_stage.key();
        let class_out = store.run(&class_stage);
        let (class_reps, class_words) = &*class_out;
        let n_classes = class_words.len();

        let doc_stage = DocRepsStage {
            cfg: self,
            dataset,
            plm,
            class_reps,
            upstream: &class_key,
        };
        let doc_key = doc_stage.key();
        let doc_reps = store.run(&doc_stage);
        let rep_predictions = common::nearest_prototype(&doc_reps, class_reps);

        let align_out = store.run(&AlignStage {
            cfg: self,
            doc_reps: &doc_reps,
            rep_predictions: &rep_predictions,
            n_classes,
            upstream: &doc_key,
        });
        let (posteriors, align_predictions) = &*align_out;

        let predictions = structmine_store::context::with_stage_label("xclass/classify", || {
            self.classify(&doc_reps, posteriors, n_classes)
        });
        XClassOutput {
            predictions,
            rep_predictions,
            align_predictions: align_predictions.clone(),
            class_words: class_words.clone(),
        }
    }

    /// Run X-Class without consulting the artifact store at any stage.
    pub fn run_uncached(&self, dataset: &Dataset, plm: &MiniPlm) -> XClassOutput {
        use structmine_store::context::with_stage_label;
        let _stage = structmine_store::context::stage_guard("xclass/run");
        let (class_reps, class_words) = with_stage_label("xclass/class-reps", || {
            self.class_representations(dataset, plm)
        });
        let n_classes = class_words.len();
        let doc_reps = with_stage_label("xclass/doc-reps", || {
            let encoded = plm.encode_corpus(&dataset.corpus, &self.exec);
            self.doc_representations(dataset, plm, &class_reps, &encoded)
        });
        let rep_predictions = common::nearest_prototype(&doc_reps, &class_reps);
        let (posteriors, align_predictions) = with_stage_label("xclass/align", || {
            self.align(&doc_reps, &rep_predictions, n_classes)
        });
        let predictions = with_stage_label("xclass/classify", || {
            self.classify(&doc_reps, &posteriors, n_classes)
        });
        XClassOutput {
            predictions,
            rep_predictions,
            align_predictions,
            class_words,
        }
    }

    /// Step 1: class representations expanded with similar words.
    fn class_representations(
        &self,
        dataset: &Dataset,
        plm: &MiniPlm,
    ) -> (Matrix, Vec<Vec<TokenId>>) {
        let names = dataset.label_name_tokens();
        let n_classes = names.len();
        let d = plm.config.d_model;
        let mut class_reps = Matrix::zeros(n_classes, d);
        let mut class_words = Vec::with_capacity(n_classes);
        for (c, name) in names.iter().enumerate() {
            let mut acc = vec![0.0f32; d];
            let mut count = 0usize;
            for &t in name {
                for o in structmine_plm::repr::occurrence_reps_with(
                    plm,
                    &dataset.corpus,
                    t,
                    self.occurrences_cap,
                    &self.exec,
                ) {
                    vector::axpy(&mut acc, 1.0, &o.vector);
                    count += 1;
                }
            }
            if count > 0 {
                vector::scale(&mut acc, 1.0 / count as f32);
            }
            // Expand with statically similar words (harmonic weighting).
            let mut words = name.clone();
            let name_static = static_mean(plm, name);
            let mut sims: Vec<(TokenId, f32)> = (structmine_text::vocab::N_SPECIAL as u32
                ..dataset.corpus.vocab.len() as u32)
                .filter(|t| !name.contains(t) && dataset.corpus.vocab.count(*t) > 0)
                .map(|t| (t, vector::cosine(plm.token_embedding(t), &name_static)))
                .collect();
            sims.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            for (rank, &(t, _)) in sims.iter().take(self.expand_words).enumerate() {
                let weight = 1.0 / (rank + 2) as f32;
                vector::axpy(&mut acc, weight, plm.token_embedding(t));
                words.push(t);
            }
            vector::normalize(&mut acc);
            class_reps.row_mut(c).copy_from_slice(&acc);
            class_words.push(words);
        }
        (class_reps, class_words)
    }

    /// Step 2: class-oriented document representations — per-document
    /// attention over the (shared) corpus encode's token matrices.
    fn doc_representations(
        &self,
        dataset: &Dataset,
        plm: &MiniPlm,
        class_reps: &Matrix,
        encoded: &[structmine_plm::repr::DocRep],
    ) -> Matrix {
        let n = dataset.corpus.len();
        let d = plm.config.d_model;
        let mut doc_reps = Matrix::zeros(n, d);
        for rep_out in encoded {
            if rep_out.tokens.rows() == 0 {
                continue;
            }
            let rep = attention_doc_rep(&rep_out.tokens, class_reps, self.attention_temp);
            doc_reps.row_mut(rep_out.doc).copy_from_slice(&rep);
        }
        doc_reps
    }

    /// Step 3: GMM alignment (with PCA), seeded on prior class means.
    fn align(
        &self,
        doc_reps: &Matrix,
        rep_predictions: &[usize],
        n_classes: usize,
    ) -> (Matrix, Vec<usize>) {
        let n = doc_reps.rows();
        let d = doc_reps.cols();
        let aligned_space = if self.pca_dims > 0 && self.pca_dims < d {
            let pca = Pca::fit(doc_reps, self.pca_dims);
            pca.transform(doc_reps)
        } else {
            doc_reps.clone()
        };
        let mut prior_means = Matrix::zeros(n_classes, aligned_space.cols());
        let mut counts = vec![0usize; n_classes];
        for (i, &p) in rep_predictions.iter().enumerate() {
            for (m, &v) in prior_means.row_mut(p).iter_mut().zip(aligned_space.row(i)) {
                *m += v;
            }
            counts[p] += 1;
        }
        for (c, &count) in counts.iter().enumerate() {
            if count > 0 {
                let inv = 1.0 / count as f32;
                for m in prior_means.row_mut(c) {
                    *m *= inv;
                }
            }
        }
        // GMM EM needs at least one document per mixture component; on
        // smaller inputs (e.g. a one-line `classify`) fall back to the
        // prototype assignment instead of panicking.
        if n >= n_classes {
            let gmm = Gmm::fit(
                &aligned_space,
                &prior_means,
                &GmmConfig {
                    max_iters: self.gmm_iters,
                    ..Default::default()
                },
            );
            let posteriors = gmm.responsibilities(&aligned_space);
            let align_predictions: Vec<usize> = (0..n)
                .map(|i| vector::argmax(posteriors.row(i)).unwrap_or(0))
                .collect();
            (posteriors, align_predictions)
        } else {
            let mut posteriors = Matrix::zeros(n, n_classes);
            for (i, &p) in rep_predictions.iter().enumerate() {
                posteriors.set(i, p, 1.0);
            }
            (posteriors, rep_predictions.to_vec())
        }
    }

    /// Step 4: confident-subset classifier over the class-oriented
    /// representations.
    fn classify(&self, doc_reps: &Matrix, posteriors: &Matrix, n_classes: usize) -> Vec<usize> {
        self.train_classifier(doc_reps, posteriors, n_classes)
            .predict(doc_reps)
    }

    /// Train the step-4 classifier and return it (instead of discarding it
    /// after predicting) — the serving layer freezes this classifier inside
    /// an [`XClassModel`]. Deterministic: the returned classifier's
    /// predictions on `doc_reps` equal [`XClassOutput::predictions`].
    fn train_classifier(
        &self,
        doc_reps: &Matrix,
        posteriors: &Matrix,
        n_classes: usize,
    ) -> MlpClassifier {
        let n = doc_reps.rows();
        let quota = ((n as f32 * self.confident_fraction) / n_classes as f32).ceil() as usize;
        let (train_docs, train_labels) = common::most_confident_per_class(posteriors, quota.max(1));
        // Train the final classifier on the class-oriented representations
        // (the paper fine-tunes the encoder; our frozen generic pool would
        // discard exactly the orientation the earlier stages constructed).
        let features = doc_reps;
        let mut clf = MlpClassifier::new(features.cols(), self.hidden, n_classes, self.seed);
        if !train_docs.is_empty() {
            let x = features.select_rows(&train_docs);
            let t = structmine_nn::classifiers::one_hot(&train_labels, n_classes, 0.1);
            clf.fit(
                &x,
                &t,
                &TrainConfig {
                    epochs: 30,
                    seed: self.seed,
                    ..Default::default()
                },
            );
        }
        clf
    }

    /// Fit a frozen per-document serving model: the staged pipeline runs
    /// (or replays from the warm store) exactly as in [`XClass::run`], and
    /// the step-4 classifier is retained together with the class
    /// representations instead of being discarded. The returned model
    /// applies a *per-document* rule, so its predictions are independent of
    /// how documents are batched.
    pub fn fit_model(&self, dataset: &Dataset, plm: &MiniPlm) -> XClassModel {
        use structmine_store::Stage;
        let _stage = structmine_store::context::stage_guard("xclass/fit-model");
        let store = structmine_store::global();
        let class_stage = ClassRepsStage {
            cfg: self,
            dataset,
            plm,
        };
        let class_key = class_stage.key();
        let class_out = store.run(&class_stage);
        let (class_reps, class_words) = &*class_out;
        let n_classes = class_words.len();

        let doc_stage = DocRepsStage {
            cfg: self,
            dataset,
            plm,
            class_reps,
            upstream: &class_key,
        };
        let doc_key = doc_stage.key();
        let doc_reps = store.run(&doc_stage);
        let rep_predictions = common::nearest_prototype(&doc_reps, class_reps);
        let align_out = store.run(&AlignStage {
            cfg: self,
            doc_reps: &doc_reps,
            rep_predictions: &rep_predictions,
            n_classes,
            upstream: &doc_key,
        });
        let (posteriors, _) = &*align_out;
        let clf = self.train_classifier(&doc_reps, posteriors, n_classes);
        XClassModel {
            class_reps: class_reps.clone(),
            class_words: class_words.clone(),
            attention_temp: self.attention_temp,
            clf,
        }
    }
}

/// Attention weights of one encoded document's tokens (`len` values summing
/// to 1): each token's weight is its best class-representation cosine,
/// sharpened by `attention_temp` and softmax-normalized. Purely per-document
/// — independent of every other document in the batch.
pub fn attention_weights(tokens: &Matrix, class_reps: &Matrix, attention_temp: f32) -> Vec<f32> {
    let n_classes = class_reps.rows();
    let mut weights: Vec<f32> = (0..tokens.rows())
        .map(|r| {
            (0..n_classes)
                .map(|c| vector::cosine(tokens.row(r), class_reps.row(c)))
                .fold(f32::NEG_INFINITY, f32::max)
                * attention_temp
        })
        .collect();
    stats::softmax_inplace(&mut weights);
    weights
}

/// Class-oriented representation of one encoded document: the
/// attention-weighted average of its token representations (step 2's
/// per-document rule). Returns zeros for an empty document.
pub fn attention_doc_rep(tokens: &Matrix, class_reps: &Matrix, attention_temp: f32) -> Vec<f32> {
    let d = class_reps.cols();
    if tokens.rows() == 0 {
        return vec![0.0; d];
    }
    let weights = attention_weights(tokens, class_reps, attention_temp);
    let mut rep = vec![0.0f32; d];
    for (r, &w) in weights.iter().enumerate() {
        vector::axpy(&mut rep, w, tokens.row(r));
    }
    rep
}

/// A frozen X-Class serving model: the expanded class representations plus
/// the trained step-4 classifier. [`XClassModel::predict_proba`] applies
/// X-Class's per-document rule — attention representation, then classifier
/// forward pass — so a document's output never depends on its batch.
pub struct XClassModel {
    /// Expanded class representations (`k x d_model`).
    pub class_reps: Matrix,
    /// The words backing each class representation.
    pub class_words: Vec<Vec<TokenId>>,
    /// Attention sharpness the model was fitted with.
    pub attention_temp: f32,
    clf: MlpClassifier,
}

impl XClassModel {
    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_reps.rows()
    }

    /// The class-oriented representation of one encoded document.
    pub fn doc_rep(&self, tokens: &Matrix) -> Vec<f32> {
        attention_doc_rep(tokens, &self.class_reps, self.attention_temp)
    }

    /// Per-class probabilities for one encoded document.
    pub fn predict_proba(&self, tokens: &Matrix) -> Vec<f32> {
        let rep = self.doc_rep(tokens);
        let rep_ref: &[f32] = &rep;
        let x = Matrix::from_rows(&[rep_ref]);
        self.clf.predict_proba(&x).row(0).to_vec()
    }
}

fn static_mean(plm: &MiniPlm, tokens: &[TokenId]) -> Vec<f32> {
    let refs: Vec<&[f32]> = tokens.iter().map(|&t| plm.token_embedding(t)).collect();
    vector::mean_of(&refs, plm.config.d_model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_eval::accuracy;
    use structmine_plm::cache::{pretrained, Tier};
    use structmine_text::synth::recipes;

    fn acc(d: &Dataset, preds: &[usize]) -> f32 {
        accuracy(&common::test_slice(d, preds), &d.test_gold())
    }

    #[test]
    fn xclass_stages_all_beat_chance_and_final_is_competitive() {
        let d = recipes::agnews(0.1, 41).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let out = XClass::default().run(&d, &plm);
        let rep = acc(&d, &out.rep_predictions);
        let align = acc(&d, &out.align_predictions);
        let fin = acc(&d, &out.predictions);
        assert!(rep > 0.4, "Rep acc {rep}");
        assert!(align > 0.4, "Align acc {align}");
        assert!(fin > 0.5, "X-Class acc {fin}");
        assert!(
            fin + 0.1 >= rep,
            "final should not collapse: rep {rep} final {fin}"
        );
    }

    #[test]
    fn class_words_include_the_name_and_expansions() {
        let d = recipes::yelp(0.08, 42).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let out = XClass::default().run(&d, &plm);
        let names = d.label_name_tokens();
        for (c, words) in out.class_words.iter().enumerate() {
            assert!(words.len() > names[c].len(), "class {c} not expanded");
            assert!(names[c].iter().all(|t| words.contains(t)));
        }
    }

    #[test]
    fn fitted_model_reproduces_run_predictions_per_document() {
        let d = recipes::agnews(0.06, 44).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let cfg = XClass::default();
        let out = cfg.run(&d, &plm);
        let model = cfg.fit_model(&d, &plm);
        assert_eq!(model.n_classes(), d.n_classes());
        let encoded = plm.encode_corpus(&d.corpus, &ExecPolicy::serial());
        for rep in &encoded {
            let probs = model.predict_proba(&rep.tokens);
            let pred = vector::argmax(&probs).unwrap_or(0);
            assert_eq!(
                pred, out.predictions[rep.doc],
                "doc {} diverges from the batch pipeline",
                rep.doc
            );
        }
    }

    #[test]
    fn handles_imbalanced_datasets() {
        let d = recipes::nyt_small(0.1, 43).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let out = XClass::default().run(&d, &plm);
        let fin = acc(&d, &out.predictions);
        assert!(fin > 0.4, "imbalanced acc {fin}");
        // All classes must be predicted at least once somewhere (the GMM
        // seeding is supposed to prevent majority collapse).
        let distinct: std::collections::HashSet<_> = out.predictions.iter().collect();
        assert!(
            distinct.len() >= d.n_classes() - 1,
            "collapsed to {distinct:?}"
        );
    }
}
