//! LOTClass — text classification using label names only, via language
//! model self-training (Meng et al., EMNLP 2020).
//!
//! 1. **Category vocabulary**: for every occurrence of a label name in the
//!    corpus, ask the MLM for its top replacement words; the most frequent
//!    replacements across occurrences form the category vocabulary,
//!    overcoming the low semantic coverage of a single name.
//! 2. **Masked category prediction (MCP)**: a word occurrence is *topic
//!    indicative* for class `c` when the MLM's top replacements at that
//!    position overlap class `c`'s vocabulary strongly (context-free string
//!    matching would mislabel "sports" in "this phone sports a hard disk").
//!    Documents gain pseudo labels from their indicative occurrences.
//! 3. **Self-training**: a classifier trained on MCP pseudo labels is
//!    refined on the whole corpus with the soft target distribution.

use crate::common;
use structmine_linalg::exec::{par_map_chunks, ExecPolicy};
use structmine_linalg::{vector, Matrix};
use structmine_nn::classifiers::{MlpClassifier, TrainConfig};
use structmine_nn::selftrain::{self, SelfTrainConfig};
use structmine_plm::MiniPlm;
use structmine_text::vocab::{TokenId, Vocab};
use structmine_text::Dataset;

/// LOTClass hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct LotClass {
    /// MLM replacements considered per occurrence.
    pub replacements_per_occurrence: usize,
    /// Label-name occurrences used to build each category vocabulary.
    pub occurrences_cap: usize,
    /// Size of each category vocabulary.
    pub category_vocab_size: usize,
    /// Replacement overlap (out of `replacements_per_occurrence`) required
    /// to call an occurrence topic-indicative.
    pub overlap_threshold: usize,
    /// Candidate positions inspected per document during MCP.
    pub positions_per_doc: usize,
    /// Run the self-training stage (`false` = the "w/o self train" row).
    pub self_train: bool,
    /// Classifier hidden width.
    pub hidden: usize,
    /// RNG seed.
    pub seed: u64,
    /// Execution policy for the MLM queries and corpus encode (thread
    /// count; output is bitwise identical for any value).
    pub exec: ExecPolicy,
}

impl Default for LotClass {
    fn default() -> Self {
        LotClass {
            replacements_per_occurrence: 30,
            occurrences_cap: 40,
            category_vocab_size: 30,
            overlap_threshold: 4,
            positions_per_doc: 5,
            self_train: true,
            hidden: 32,
            seed: 71,
            exec: ExecPolicy::default(),
        }
    }
}

impl structmine_store::StableHash for LotClass {
    /// Every hyper-parameter plus the policy's precision tier. The thread
    /// count is excluded (it cannot change outputs), but the precision
    /// tier swaps in approximate PLM inference kernels and *does* change
    /// bits — Exact and Fast runs must never share a cache entry.
    fn stable_hash(&self, h: &mut structmine_store::StableHasher) {
        self.replacements_per_occurrence.stable_hash(h);
        self.occurrences_cap.stable_hash(h);
        self.category_vocab_size.stable_hash(h);
        self.overlap_threshold.stable_hash(h);
        self.positions_per_doc.stable_hash(h);
        self.self_train.stable_hash(h);
        self.hidden.stable_hash(h);
        self.seed.stable_hash(h);
        self.exec.precision().stable_hash(h);
    }
}

/// LOTClass outputs.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct LotClassOutput {
    /// Final per-document predictions.
    pub predictions: Vec<usize>,
    /// Predictions before self-training ("Ours w/o. self train").
    pub pretrain_predictions: Vec<usize>,
    /// The discovered category vocabularies.
    pub category_vocab: Vec<Vec<TokenId>>,
    /// Number of documents that received an MCP pseudo label.
    pub n_pseudo_labeled: usize,
}

/// Stage: LOTClass's category vocabularies (step 1). Keyed only on the
/// inputs that influence the vocabularies, so later hyper-parameter changes
/// (MCP thresholds, classifier settings) reuse the cached vocabularies.
/// Deliberately precision-free: the MLM replacement queries always run
/// Exact (there is no fast MLM path), so both tiers share this artifact
/// — as they do the MCP stage chained onto it.
struct CategoryVocabStage<'a> {
    cfg: &'a LotClass,
    dataset: &'a Dataset,
    plm: &'a MiniPlm,
}

impl structmine_store::Stage for CategoryVocabStage<'_> {
    type Output = Vec<Vec<TokenId>>;

    fn name(&self) -> &'static str {
        "lotclass/category-vocab"
    }

    fn fingerprint(&self, h: &mut structmine_store::StableHasher) {
        use structmine_store::StableHash;
        h.write_u128(self.dataset.fingerprint());
        h.write_u128(self.plm.fingerprint());
        self.cfg.replacements_per_occurrence.stable_hash(h);
        self.cfg.occurrences_cap.stable_hash(h);
        self.cfg.category_vocab_size.stable_hash(h);
        self.cfg.seed.stable_hash(h);
    }

    fn compute(&self) -> Vec<Vec<TokenId>> {
        self.cfg.category_vocab(self.dataset, self.plm)
    }
}

/// Stage: masked category prediction (step 2) — `(docs, labels)` pseudo
/// pairs. Chained onto the category-vocab stage by its artifact key.
struct McpStage<'a> {
    cfg: &'a LotClass,
    dataset: &'a Dataset,
    plm: &'a MiniPlm,
    category_vocab: &'a [Vec<TokenId>],
    upstream: &'a structmine_store::ArtifactKey,
}

impl structmine_store::Stage for McpStage<'_> {
    type Output = (Vec<usize>, Vec<usize>);

    fn name(&self) -> &'static str {
        "lotclass/mcp"
    }

    fn fingerprint(&self, h: &mut structmine_store::StableHasher) {
        use structmine_store::StableHash;
        // The upstream key already covers the dataset, the model, and the
        // vocabulary-shaping hyper-parameters.
        self.upstream.stable_hash(h);
        self.cfg.overlap_threshold.stable_hash(h);
        self.cfg.positions_per_doc.stable_hash(h);
    }

    fn compute(&self) -> (Vec<usize>, Vec<usize>) {
        self.cfg
            .mcp_pseudo_labels(self.dataset, self.plm, self.category_vocab)
    }
}

impl LotClass {
    /// Run LOTClass with label-name supervision, memoized through the
    /// global artifact store. A cold run persists each internal stage —
    /// category vocabulary, MCP pseudo labels, final predictions — so a
    /// hyper-parameter change recomputes only from the first stale stage.
    pub fn run(&self, dataset: &Dataset, plm: &MiniPlm) -> LotClassOutput {
        use structmine_store::StableHash;
        crate::pipeline::run_memoized(
            "lotclass/predict",
            |h| {
                h.write_u128(dataset.fingerprint());
                h.write_u128(plm.fingerprint());
                self.stable_hash(h);
            },
            || self.run_staged(dataset, plm),
        )
    }

    /// The staged pipeline behind [`LotClass::run`]: each step goes through
    /// the store individually, so a warm store serves every step that is
    /// still valid.
    fn run_staged(&self, dataset: &Dataset, plm: &MiniPlm) -> LotClassOutput {
        use structmine_store::Stage;
        let store = structmine_store::global();
        let vocab_stage = CategoryVocabStage {
            cfg: self,
            dataset,
            plm,
        };
        let vocab_key = vocab_stage.key();
        let category_vocab = store.run(&vocab_stage);
        let mcp = store.run(&McpStage {
            cfg: self,
            dataset,
            plm,
            category_vocab: &category_vocab,
            upstream: &vocab_key,
        });
        self.classify(dataset, plm, (*category_vocab).clone(), (*mcp).clone())
    }

    /// Run LOTClass without consulting the artifact store at any stage.
    pub fn run_uncached(&self, dataset: &Dataset, plm: &MiniPlm) -> LotClassOutput {
        use structmine_store::context::with_stage_label;
        let _stage = structmine_store::context::stage_guard("lotclass/run");
        let category_vocab = with_stage_label("lotclass/category-vocab", || {
            self.category_vocab(dataset, plm)
        });
        let pseudo = with_stage_label("lotclass/mcp", || {
            self.mcp_pseudo_labels(dataset, plm, &category_vocab)
        });
        with_stage_label("lotclass/classify", || {
            self.classify(dataset, plm, category_vocab, pseudo)
        })
    }

    /// Step 1: category vocabulary via MLM replacement statistics.
    fn category_vocab(&self, dataset: &Dataset, plm: &MiniPlm) -> Vec<Vec<TokenId>> {
        let names = dataset.label_name_tokens();
        // Raw (oversized) vocabularies first. As in the paper's cross-
        // category cleanup, a word claimed by several categories cannot
        // stay in all of them: it is kept only where its replacement count
        // is highest (stopword-like words that are predicted everywhere end
        // up wherever they peak, far down the count ranking, and fall off).
        let background = self.background_replacement_counts(dataset, plm);
        let raw: Vec<Vec<(TokenId, u32)>> = names
            .iter()
            .map(|name| self.build_category_vocab(dataset, plm, name, &background))
            .collect();
        let mut best_home: std::collections::HashMap<TokenId, (usize, u32)> =
            std::collections::HashMap::new();
        for (c, vocab) in raw.iter().enumerate() {
            for &(t, count) in vocab {
                match best_home.entry(t) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        if count > e.get().1 {
                            e.insert((c, count));
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((c, count));
                    }
                }
            }
        }
        raw.iter()
            .enumerate()
            .map(|(c, vocab)| {
                vocab
                    .iter()
                    .filter(|&&(t, _)| best_home[&t].0 == c || names[c].contains(&t))
                    .map(|&(t, _)| t)
                    .take(self.category_vocab_size)
                    .collect()
            })
            .collect()
    }

    /// Step 2: masked category prediction — which documents earn a pseudo
    /// label, and which class. Returns parallel `(docs, labels)` lists.
    fn mcp_pseudo_labels(
        &self,
        dataset: &Dataset,
        plm: &MiniPlm,
        category_vocab: &[Vec<TokenId>],
    ) -> (Vec<usize>, Vec<usize>) {
        let n_classes = category_vocab.len();
        let vocab_sets: Vec<std::collections::HashSet<TokenId>> = category_vocab
            .iter()
            .map(|v| v.iter().copied().collect())
            .collect();
        let candidate_tokens: std::collections::HashSet<TokenId> =
            vocab_sets.iter().flatten().copied().collect();
        let budget = plm.config.max_len - 2;
        // Documents are independent under MCP: share them across threads
        // and keep the results in document order.
        let mcp: Vec<Option<usize>> = par_map_chunks(&self.exec, &dataset.corpus.docs, |_, doc| {
            let positions: Vec<usize> = doc
                .tokens
                .iter()
                .take(budget)
                .enumerate()
                .filter(|(_, t)| candidate_tokens.contains(t))
                .map(|(p, _)| p)
                .take(self.positions_per_doc)
                .collect();
            if positions.is_empty() {
                return None;
            }
            // Query the MLM with the candidate positions masked — the head
            // is trained to predict at masked slots.
            let mut seq = plm.wrap(&doc.tokens);
            // +1: CLS occupies row 0 of the wrapped sequence.
            let wrapped_positions: Vec<usize> = positions.iter().map(|&p| p + 1).collect();
            for &wp in &wrapped_positions {
                seq[wp] = structmine_text::vocab::MASK;
            }
            let tops =
                plm.mlm_topk_multi(&seq, &wrapped_positions, self.replacements_per_occurrence);
            let mut votes = vec![0usize; n_classes];
            for top in &tops {
                for (c, set) in vocab_sets.iter().enumerate() {
                    let overlap = top.iter().filter(|(t, _)| set.contains(t)).count();
                    if overlap >= self.overlap_threshold {
                        votes[c] += 1;
                    }
                }
            }
            let best =
                vector::argmax(&votes.iter().map(|&v| v as f32).collect::<Vec<_>>()).unwrap_or(0);
            (votes[best] > 0).then_some(best)
        });
        let mut pseudo_docs = Vec::new();
        let mut pseudo_labels = Vec::new();
        for (i, best) in mcp.into_iter().enumerate() {
            if let Some(best) = best {
                pseudo_docs.push(i);
                pseudo_labels.push(best);
            }
        }
        (pseudo_docs, pseudo_labels)
    }

    /// Step 3: classifier + self-training over the MCP pseudo labels.
    fn classify(
        &self,
        dataset: &Dataset,
        plm: &MiniPlm,
        category_vocab: Vec<Vec<TokenId>>,
        pseudo: (Vec<usize>, Vec<usize>),
    ) -> LotClassOutput {
        self.classify_full(dataset, plm, category_vocab, pseudo).0
    }

    /// Step 3, additionally returning the trained classifier (after
    /// self-training) — the serving layer freezes it inside a
    /// [`LotClassModel`]. Deterministic: the classifier's predictions on the
    /// corpus features equal [`LotClassOutput::predictions`].
    fn classify_full(
        &self,
        dataset: &Dataset,
        plm: &MiniPlm,
        category_vocab: Vec<Vec<TokenId>>,
        (pseudo_docs, pseudo_labels): (Vec<usize>, Vec<usize>),
    ) -> (LotClassOutput, MlpClassifier) {
        let n_classes = category_vocab.len();
        let features = common::plm_features_with(dataset, plm, &self.exec);
        let mut clf = MlpClassifier::new(features.cols(), self.hidden, n_classes, self.seed);
        if !pseudo_docs.is_empty() {
            let x = features.select_rows(&pseudo_docs);
            let t = structmine_nn::classifiers::one_hot(&pseudo_labels, n_classes, 0.1);
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
        let pretrain_predictions = clf.predict(&features);
        if self.self_train {
            selftrain::self_train(
                &mut clf,
                &features,
                &SelfTrainConfig {
                    seed: self.seed ^ 5,
                    ..Default::default()
                },
            );
        }
        let predictions = clf.predict(&features);

        (
            LotClassOutput {
                predictions,
                pretrain_predictions,
                category_vocab,
                n_pseudo_labeled: pseudo_docs.len(),
            },
            clf,
        )
    }

    /// Fit a frozen per-document serving model: category vocabulary and MCP
    /// pseudo labels run (or replay from the warm store) exactly as in
    /// [`LotClass::run`], and the step-3 classifier is retained instead of
    /// being discarded. The model scores one document from its mean-pooled
    /// PLM representation, so its output never depends on the batch.
    pub fn fit_model(&self, dataset: &Dataset, plm: &MiniPlm) -> LotClassModel {
        use structmine_store::Stage;
        let _stage = structmine_store::context::stage_guard("lotclass/fit-model");
        let store = structmine_store::global();
        let vocab_stage = CategoryVocabStage {
            cfg: self,
            dataset,
            plm,
        };
        let vocab_key = vocab_stage.key();
        let category_vocab = store.run(&vocab_stage);
        let mcp = store.run(&McpStage {
            cfg: self,
            dataset,
            plm,
            category_vocab: &category_vocab,
            upstream: &vocab_key,
        });
        let (output, clf) =
            self.classify_full(dataset, plm, (*category_vocab).clone(), (*mcp).clone());
        LotClassModel {
            category_vocab: output.category_vocab,
            clf,
        }
    }

    /// Replacement counts at random masked slots across the corpus — the
    /// background distribution against which name-slot replacements are
    /// scored. Stopword-like words are predicted everywhere, so their
    /// *lift* (name-slot count / background count) is ~1 and they sink,
    /// playing the role of LOTClass's stopword filtering without a list.
    fn background_replacement_counts(
        &self,
        dataset: &Dataset,
        plm: &MiniPlm,
    ) -> std::collections::HashMap<TokenId, u32> {
        let mut rng = structmine_linalg::rng::seeded(self.seed ^ 0xB6);
        let budget = plm.config.max_len - 2;
        let n_samples = 60.min(dataset.corpus.len());
        // Draw every sampled slot serially first (the RNG stream must not
        // depend on the thread count), then run the expensive MLM queries in
        // parallel. Count merging is a commutative sum, so the result is
        // identical however the per-sample lists are interleaved.
        let mut plan: Vec<(usize, usize)> = Vec::with_capacity(n_samples);
        for s in 0..n_samples {
            use rand::Rng;
            let di = (s * dataset.corpus.len() / n_samples) % dataset.corpus.len();
            let doc = &dataset.corpus.docs[di];
            if doc.tokens.is_empty() {
                continue;
            }
            let p = rng.gen_range(0..doc.tokens.len().min(budget));
            plan.push((di, p));
        }
        let tops = par_map_chunks(&self.exec, &plan, |_, &(di, p)| {
            let mut seq = plm.wrap(&dataset.corpus.docs[di].tokens);
            seq[p + 1] = structmine_text::vocab::MASK;
            plm.mlm_topk(&seq, p + 1, self.replacements_per_occurrence)
        });
        let mut counts = std::collections::HashMap::new();
        for top in tops {
            for (r, _) in top {
                *counts.entry(r).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Collect MLM replacements at occurrences of the label name, scored by
    /// lift over the background replacement distribution.
    fn build_category_vocab(
        &self,
        dataset: &Dataset,
        plm: &MiniPlm,
        name: &[TokenId],
        background: &std::collections::HashMap<TokenId, u32>,
    ) -> Vec<(TokenId, u32)> {
        let mut counts: std::collections::HashMap<TokenId, u32> = std::collections::HashMap::new();
        // The name tokens themselves always belong to the vocabulary.
        for &t in name {
            counts.insert(t, u32::MAX / 2);
        }
        let budget = plm.config.max_len - 2;
        // Serial plan: find the capped occurrence list with a cheap token
        // scan, preserving the early-break semantics. The MLM queries — the
        // expensive part — then run under the policy; count merging is a
        // commutative sum.
        let mut plan: Vec<(usize, usize)> = Vec::new();
        'outer: for (di, doc) in dataset.corpus.docs.iter().enumerate() {
            for (p, &t) in doc.tokens.iter().take(budget).enumerate() {
                if !name.contains(&t) {
                    continue;
                }
                plan.push((di, p));
                if plan.len() >= self.occurrences_cap {
                    break 'outer;
                }
            }
        }
        let seen = plan.len();
        let tops = par_map_chunks(&self.exec, &plan, |_, &(di, p)| {
            // Mask the occurrence and ask the MLM what could stand there.
            let mut seq = plm.wrap(&dataset.corpus.docs[di].tokens);
            seq[p + 1] = structmine_text::vocab::MASK;
            plm.mlm_topk(&seq, p + 1, self.replacements_per_occurrence)
        });
        for top in tops {
            for (r, _) in top {
                // Keep replacements that are real local-corpus words (the
                // MLM also hallucinates pretraining-domain words absent
                // from this corpus).
                if !Vocab::is_special(r) && dataset.corpus.vocab.count(r) >= 3 {
                    *counts.entry(r).or_insert(0) += 1;
                }
            }
        }
        // Score by lift: how much more often does the MLM predict this word
        // at *name* slots than at random slots?
        let occ = seen.max(1) as f32;
        let bg_total: u32 = background.values().sum();
        let bg_norm = (bg_total as f32 / self.replacements_per_occurrence as f32).max(1.0);
        let mut scored: Vec<(TokenId, u32)> = counts
            .into_iter()
            .filter_map(|(t, c)| {
                if c >= u32::MAX / 2 {
                    return Some((t, c)); // pinned name tokens
                }
                let rate_here = c as f32 / occ;
                let rate_bg = background.get(&t).copied().unwrap_or(0) as f32 / bg_norm;
                // Stopword-like words appear at more than half of *random*
                // slots; drop them outright.
                if rate_bg > 0.5 {
                    return None;
                }
                // Pure lift: topical words appear at name slots far above
                // their background rate.
                let lift = rate_here / (rate_bg + 0.05);
                Some((t, (lift * 1000.0) as u32))
            })
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        // Keep an oversized list; the caller resolves cross-category words.
        scored.truncate(self.category_vocab_size * 2);
        scored
    }
}

/// A frozen LOTClass serving model: the discovered category vocabularies
/// plus the trained (self-trained) classifier over mean-pooled PLM
/// features. Applies a per-document rule, so a document's output never
/// depends on its batch.
pub struct LotClassModel {
    /// The discovered category vocabularies.
    pub category_vocab: Vec<Vec<TokenId>>,
    clf: MlpClassifier,
}

impl LotClassModel {
    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.clf.n_classes()
    }

    /// Per-class probabilities for one document's mean-pooled PLM
    /// representation (see [`MiniPlm::mean_embed`]).
    pub fn predict_proba(&self, mean_rep: &[f32]) -> Vec<f32> {
        let x = Matrix::from_rows(&[mean_rep]);
        self.clf.predict_proba(&x).row(0).to_vec()
    }
}

/// The paper's Table 1 demo: MLM predictions for the same surface word in
/// two different contexts. Returns the top replacement words per context;
/// errors when a context does not contain the word.
pub fn replacement_demo(
    plm: &MiniPlm,
    corpus_vocab: &structmine_text::Vocab,
    contexts: &[Vec<TokenId>],
    word: TokenId,
    k: usize,
) -> Result<Vec<Vec<(String, f32)>>, crate::error::MethodError> {
    contexts
        .iter()
        .map(|ctx| {
            let pos = ctx.iter().position(|&t| t == word).ok_or_else(|| {
                crate::error::MethodError::MissingWord {
                    method: "LOTClass",
                    what: format!(
                        "demo word `{}` does not occur in the given context",
                        corpus_vocab.word(word)
                    ),
                }
            })?;
            // Mask the slot, as in the method: the MLM head is trained to
            // predict at masked positions.
            let mut seq = plm.wrap(ctx);
            seq[pos + 1] = structmine_text::vocab::MASK;
            Ok(plm
                .mlm_topk(&seq, pos + 1, k)
                .into_iter()
                .map(|(t, p)| (corpus_vocab.word(t).to_string(), p))
                .collect())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_eval::accuracy;
    use structmine_linalg::Precision;
    use structmine_plm::cache::{pretrained, Tier};
    use structmine_text::synth::recipes;

    #[test]
    fn category_vocab_contains_topical_words() {
        let d = recipes::agnews(0.1, 31).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let out = LotClass {
            self_train: false,
            ..Default::default()
        }
        .run(&d, &plm);
        let sports_idx = d.labels.names.iter().position(|n| n == "sports").unwrap();
        let vocab = &out.category_vocab[sports_idx];
        assert!(!vocab.is_empty());
        // Sports-related words span several lexicons (the MLM legitimately
        // replaces "sports" with words from specific sports and athletics).
        let sporty: std::collections::HashSet<&str> = [
            "sports",
            "soccer",
            "basketball",
            "baseball",
            "tennis",
            "hockey",
            "golf",
            "football",
            "ont_athlete",
        ]
        .iter()
        .flat_map(|l| structmine_text::synth::lexicon::lexicon(l).iter().copied())
        .collect();
        let lex = structmine_text::synth::lexicon::lexicon("sports");
        let topical = vocab
            .iter()
            .filter(|&&t| sporty.contains(&d.corpus.vocab.word(t)))
            .count();
        assert!(
            topical >= 4,
            "too few sporty words in category vocab: {:?}",
            vocab
                .iter()
                .map(|&t| d.corpus.vocab.word(t))
                .collect::<Vec<_>>()
        );
        // The *top* of the list — what masked category prediction leans on —
        // must be dominated by sports words.
        let top5_sporty = vocab
            .iter()
            .take(5)
            .filter(|&&t| sporty.contains(&d.corpus.vocab.word(t)))
            .count();
        assert!(
            top5_sporty >= 3,
            "top of category vocab not sporty: {:?}",
            vocab
                .iter()
                .take(5)
                .map(|&t| d.corpus.vocab.word(t))
                .collect::<Vec<_>>()
        );
        for other in ["business", "world"] {
            let other_lex = structmine_text::synth::lexicon::lexicon(other);
            let wrong = vocab
                .iter()
                .filter(|&&t| {
                    let w = d.corpus.vocab.word(t);
                    other_lex.contains(&w) && !lex.contains(&w)
                })
                .count();
            assert!(wrong <= 4, "sports vocab polluted by {other}");
        }
    }

    #[test]
    fn lotclass_labels_most_docs_and_beats_chance() {
        let d = recipes::agnews(0.1, 32).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let out = LotClass::default().run(&d, &plm);
        assert!(
            out.n_pseudo_labeled * 2 > d.corpus.len(),
            "too few pseudo labels: {}",
            out.n_pseudo_labeled
        );
        let acc = accuracy(&common::test_slice(&d, &out.predictions), &d.test_gold());
        assert!(acc > 0.5, "LOTClass acc {acc}");
    }

    #[test]
    fn fitted_model_reproduces_run_predictions_per_document() {
        let d = recipes::agnews(0.06, 35).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let cfg = LotClass::default();
        let out = cfg.run(&d, &plm);
        let model = cfg.fit_model(&d, &plm);
        assert_eq!(model.n_classes(), d.n_classes());
        for (i, doc) in d.corpus.docs.iter().enumerate() {
            let probs = model.predict_proba(&plm.mean_embed(&doc.tokens, Precision::Exact));
            let pred = vector::argmax(&probs).unwrap_or(0);
            assert_eq!(
                pred, out.predictions[i],
                "doc {i} diverges from the batch pipeline"
            );
        }
    }

    #[test]
    fn self_training_does_not_regress() {
        let d = recipes::agnews(0.08, 33).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let out = LotClass::default().run(&d, &plm);
        let gold = d.test_gold();
        let pre = accuracy(&common::test_slice(&d, &out.pretrain_predictions), &gold);
        let post = accuracy(&common::test_slice(&d, &out.predictions), &gold);
        assert!(
            post >= pre - 0.05,
            "self-training regressed {pre} -> {post}"
        );
    }

    #[test]
    fn replacement_demo_shows_context_sensitivity() {
        let d = recipes::agnews(0.05, 34).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let v = &d.corpus.vocab;
        let id = |w: &str| v.id(w).unwrap();
        // "pitch" in a soccer context vs a music context.
        let soccer_ctx = vec![
            id("soccer"),
            id("striker"),
            id("pitch"),
            id("goal"),
            id("keeper"),
        ];
        let music_ctx = vec![
            id("band"),
            id("singer"),
            id("pitch"),
            id("melody"),
            id("concert"),
        ];
        let demos = replacement_demo(&plm, v, &[soccer_ctx, music_ctx], id("pitch"), 10).unwrap();
        assert_eq!(demos.len(), 2);
        assert_eq!(demos[0].len(), 10);
        // The two contexts should induce different replacement lists.
        let a: std::collections::HashSet<_> = demos[0].iter().map(|(w, _)| w.clone()).collect();
        let b: std::collections::HashSet<_> = demos[1].iter().map(|(w, _)| w.clone()).collect();
        assert_ne!(a, b, "contexts produced identical replacements");
    }
}
