//! Prompt-based weakly-supervised classification (the tutorial's
//! "PromptClass" section): zero-shot prompting for pseudo-label
//! acquisition, then iterative co-training of a head-token classifier with
//! prompt-based scoring.
//!
//! Two prompt styles are supported, mirroring the paper's backbones:
//! * **MLM / cloze** (RoBERTa-style): score each label word's probability
//!   at a `[MASK]` in `... [SEP] about [MASK] [SEP]`.
//! * **RTD** (ELECTRA-style): append `about <label>` and score how
//!   *un-replaced* the label word looks to the discriminative head —
//!   reusing the pretrained RTD head instead of a randomly initialized
//!   classification head.
//!
//! The full method: (1) zero-shot prompt scores give pseudo labels for the
//! most confident documents per class; (2) a head classifier is trained on
//! them; (3) classifier and prompt probabilities are blended, the
//! confident set grows, and the loop repeats.

use crate::common;
use crate::error::MethodError;
use structmine_linalg::exec::{par_map_chunks, ExecPolicy};
use structmine_linalg::{stats, Matrix};
use structmine_nn::classifiers::{MlpClassifier, TrainConfig};
use structmine_plm::prompt;
use structmine_plm::MiniPlm;
use structmine_text::Dataset;

/// Prompt scoring backbone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PromptStyle {
    /// Cloze / masked-token scoring (RoBERTa-style).
    Mlm,
    /// Replaced-token-detection scoring (ELECTRA-style).
    Rtd,
}

/// PromptClass hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct PromptClass {
    /// Zero-shot scoring backbone.
    pub style: PromptStyle,
    /// Co-training iterations (0 = zero-shot only).
    pub iterations: usize,
    /// Initial confident documents per class.
    pub initial_quota: usize,
    /// Quota growth factor per iteration.
    pub quota_growth: f32,
    /// Blend weight of prompt scores vs classifier probabilities.
    pub prompt_weight: f32,
    /// Classifier hidden width.
    pub hidden: usize,
    /// RNG seed.
    pub seed: u64,
    /// Execution policy for the prompt scoring and corpus encode. The
    /// thread count never changes bits; the precision tier does, and is
    /// part of the memo key.
    pub exec: ExecPolicy,
}

impl Default for PromptClass {
    fn default() -> Self {
        PromptClass {
            style: PromptStyle::Rtd,
            iterations: 3,
            initial_quota: 20,
            quota_growth: 2.0,
            prompt_weight: 0.5,
            hidden: 32,
            seed: 91,
            exec: ExecPolicy::default(),
        }
    }
}

impl structmine_store::StableHash for PromptClass {
    /// Every hyper-parameter plus the policy's precision tier. The thread
    /// count is excluded (it cannot change outputs, so cached runs stay
    /// valid across thread counts), but the precision tier swaps in
    /// approximate kernels and *does* change bits — Exact and Fast runs
    /// must never share a cache entry.
    fn stable_hash(&self, h: &mut structmine_store::StableHasher) {
        h.write_u64(match self.style {
            PromptStyle::Mlm => 0,
            PromptStyle::Rtd => 1,
        });
        self.iterations.stable_hash(h);
        self.initial_quota.stable_hash(h);
        self.quota_growth.stable_hash(h);
        self.prompt_weight.stable_hash(h);
        self.hidden.stable_hash(h);
        self.seed.stable_hash(h);
        self.exec.precision().stable_hash(h);
    }
}

/// PromptClass outputs.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PromptClassOutput {
    /// Final per-document predictions.
    pub predictions: Vec<usize>,
    /// Zero-shot (prompt-only) predictions.
    pub zero_shot_predictions: Vec<usize>,
}

impl PromptClass {
    /// Zero-shot prompting only (the RoBERTa (0-shot) / ELECTRA (0-shot)
    /// rows).
    pub fn zero_shot(&self, dataset: &Dataset, plm: &MiniPlm) -> Vec<usize> {
        let scores = self.prompt_scores(dataset, plm);
        (0..scores.rows())
            .map(|i| structmine_linalg::vector::argmax(scores.row(i)).unwrap_or(0))
            .collect()
    }

    /// Surface a prompt-template word missing from the corpus vocabulary
    /// as a typed error, once, up front — instead of a panic per document
    /// inside the parallel prompt loop.
    fn validate(dataset: &Dataset) -> Result<(), MethodError> {
        prompt::validate_templates(&dataset.corpus.vocab).map_err(|e| MethodError::MissingWord {
            method: "PromptClass",
            what: e.to_string(),
        })
    }

    /// Full pipeline: zero-shot pseudo labels + iterative co-training,
    /// memoized through the global artifact store (keyed on dataset, PLM
    /// weights, and every hyper-parameter). Errors when a prompt template
    /// word is missing from the corpus vocabulary.
    pub fn run(&self, dataset: &Dataset, plm: &MiniPlm) -> Result<PromptClassOutput, MethodError> {
        use structmine_store::StableHash;
        Self::validate(dataset)?;
        Ok(crate::pipeline::run_memoized(
            "promptclass/predict",
            |h| {
                h.write_u128(dataset.fingerprint());
                h.write_u128(plm.fingerprint());
                self.stable_hash(h);
            },
            || self.run_validated(dataset, plm),
        ))
    }

    /// Full pipeline, bypassing the artifact store.
    pub fn run_uncached(
        &self,
        dataset: &Dataset,
        plm: &MiniPlm,
    ) -> Result<PromptClassOutput, MethodError> {
        Self::validate(dataset)?;
        Ok(self.run_validated(dataset, plm))
    }

    /// The pipeline proper, over pre-validated templates.
    fn run_validated(&self, dataset: &Dataset, plm: &MiniPlm) -> PromptClassOutput {
        let _stage = structmine_store::context::stage_guard("promptclass/run");
        let n_classes = dataset.n_classes();
        let prompt_scores =
            structmine_store::context::with_stage_label("promptclass/prompt", || {
                self.prompt_scores(dataset, plm)
            });
        // Normalize prompt scores into per-document distributions.
        let prompt_probs = common::softmax_rows(prompt_scores.scale(24.0));
        let zero_shot_predictions: Vec<usize> = (0..prompt_probs.rows())
            .map(|i| structmine_linalg::vector::argmax(prompt_probs.row(i)).unwrap_or(0))
            .collect();

        let _sub = structmine_store::context::stage_guard("promptclass/co-train");
        let features = common::plm_features_with(dataset, plm, &self.exec);
        let mut blended = prompt_probs.clone();
        let mut clf = MlpClassifier::new(features.cols(), self.hidden, n_classes, self.seed);
        let mut quota = self.initial_quota.max(1);

        for it in 0..self.iterations {
            let (docs, labels) = common::most_confident_per_class(&blended, quota);
            if docs.is_empty() {
                break;
            }
            let x = features.select_rows(&docs);
            let t = structmine_nn::classifiers::one_hot(&labels, n_classes, 0.1);
            clf.fit(
                &x,
                &t,
                &TrainConfig {
                    epochs: 25,
                    seed: self.seed ^ it as u64,
                    ..Default::default()
                },
            );
            let clf_probs = clf.predict_proba(&features);
            // Blend prompt and classifier views (co-training) and sharpen.
            blended = Matrix::zeros(clf_probs.rows(), n_classes);
            for i in 0..clf_probs.rows() {
                let mut row: Vec<f32> = (0..n_classes)
                    .map(|c| {
                        self.prompt_weight * prompt_probs.get(i, c)
                            + (1.0 - self.prompt_weight) * clf_probs.get(i, c)
                    })
                    .collect();
                row = stats::sharpen(&row, 0.7);
                blended.row_mut(i).copy_from_slice(&row);
            }
            quota = ((quota as f32) * self.quota_growth) as usize;
        }

        let predictions = clf.predict(&features);
        PromptClassOutput {
            predictions,
            zero_shot_predictions,
        }
    }

    fn prompt_scores(&self, dataset: &Dataset, plm: &MiniPlm) -> Matrix {
        let names = dataset.label_name_tokens();
        let vocab = &dataset.corpus.vocab;
        // Templates were validated up front by the run() entry points.
        let prec = self.exec.precision();
        // Each document's prompt query is independent; rows come back in
        // document order regardless of the thread count.
        let rows = par_map_chunks(&self.exec, &dataset.corpus.docs, |_, doc| {
            match self.style {
                PromptStyle::Mlm => prompt::cloze_label_scores(plm, &doc.tokens, &names, vocab),
                PromptStyle::Rtd => prompt::rtd_label_scores(plm, &doc.tokens, &names, vocab, prec),
            }
            // Unreachable: templates were validated above.
            .unwrap_or_else(|_| vec![0.0; names.len()])
        });
        if rows.is_empty() {
            return Matrix::zeros(0, names.len());
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs)
    }
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
    fn mlm_zero_shot_beats_chance() {
        let d = recipes::agnews(0.08, 51).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let preds = PromptClass {
            style: PromptStyle::Mlm,
            ..Default::default()
        }
        .zero_shot(&d, &plm);
        let a = acc(&d, &preds);
        assert!(a > 0.35, "MLM zero-shot acc {a}");
    }

    #[test]
    fn full_pipeline_improves_on_zero_shot_or_ties() {
        let d = recipes::agnews(0.08, 52).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let out = PromptClass {
            style: PromptStyle::Mlm,
            ..Default::default()
        }
        .run(&d, &plm)
        .unwrap();
        let zs = acc(&d, &out.zero_shot_predictions);
        let full = acc(&d, &out.predictions);
        assert!(full >= zs - 0.05, "co-training regressed: {zs} -> {full}");
        assert!(full > 0.4, "PromptClass acc {full}");
    }

    #[test]
    fn rtd_style_produces_valid_predictions() {
        let d = recipes::yelp(0.06, 53).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let out = PromptClass {
            style: PromptStyle::Rtd,
            iterations: 2,
            ..Default::default()
        }
        .run(&d, &plm)
        .unwrap();
        assert_eq!(out.predictions.len(), d.corpus.len());
        assert!(out.predictions.iter().all(|&p| p < d.n_classes()));
    }
}
