//! Prompting: cloze (MLM) and replaced-token-detection (ELECTRA) scoring.
//!
//! Zero-shot classification by prompting, as in the tutorial's PromptClass
//! section: the document is followed by a verbalizer template and the label
//! words are scored either by the MLM's probability at a `[MASK]` slot
//! (RoBERTa-style) or by how *un-replaced* the label word looks to the RTD
//! head (ELECTRA-style).

use crate::model::MiniPlm;
use structmine_linalg::Precision;
use structmine_text::vocab::{TokenId, MASK, SEP};
use structmine_text::Vocab;

/// Typed failure for prompt construction: a template word the verbalizer
/// needs is not in the vocabulary. Replaces the previous panic so table
/// bins and the engine can map it to their error taxonomy (exit 2 /
/// `EngineError`) instead of aborting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PromptError {
    /// The missing template word.
    pub word: &'static str,
}

impl std::fmt::Display for PromptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "prompt template word '{}' is not in the vocabulary",
            self.word
        )
    }
}

impl std::error::Error for PromptError {}

fn template_word(vocab: &Vocab, word: &'static str) -> Result<TokenId, PromptError> {
    vocab.id(word).ok_or(PromptError { word })
}

/// Check up front that every template word the prompt builders need is
/// present, so callers can fail once per vocabulary instead of once per
/// document inside a parallel scoring loop.
pub fn validate_templates(vocab: &Vocab) -> Result<(), PromptError> {
    template_word(vocab, "about").map(|_| ())
}

/// Build the cloze prompt `[CLS] doc.. [SEP] about [MASK] [SEP]`, returning
/// the sequence and the `[MASK]` position.
///
/// The template word "about" is in the general lexicon, so the MLM saw it
/// adjacent to topical words throughout pretraining.
pub fn cloze_prompt(
    model: &MiniPlm,
    doc: &[TokenId],
    vocab: &Vocab,
) -> Result<(Vec<TokenId>, usize), PromptError> {
    let about = template_word(vocab, "about")?;
    let budget = model.config.max_len.saturating_sub(5);
    let body = &doc[..doc.len().min(budget)];
    let mut seq = Vec::with_capacity(body.len() + 5);
    seq.push(structmine_text::vocab::CLS);
    seq.extend_from_slice(body);
    seq.push(SEP);
    seq.push(about);
    let mask_pos = seq.len();
    seq.push(MASK);
    seq.push(SEP);
    Ok((seq, mask_pos))
}

/// MLM cloze scores for each class: mean probability of the class's name
/// tokens at the `[MASK]` slot. Returns unnormalized scores (higher =
/// better fit).
pub fn cloze_label_scores(
    model: &MiniPlm,
    doc: &[TokenId],
    label_names: &[Vec<TokenId>],
    vocab: &Vocab,
) -> Result<Vec<f32>, PromptError> {
    let (seq, mask_pos) = cloze_prompt(model, doc, vocab)?;
    let probs = model.mlm_probs(&seq, mask_pos);
    Ok(label_names
        .iter()
        .map(|names| {
            if names.is_empty() {
                return 0.0;
            }
            names.iter().map(|&t| probs[t as usize]).sum::<f32>() / names.len() as f32
        })
        .collect())
}

/// ELECTRA-style RTD scores for each class: build
/// `[CLS] doc.. [SEP] about <name> [SEP]` and score
/// `1 - P(replaced)` averaged over the name tokens. Higher = better fit.
/// The RTD forward passes run on a tape of the given tier.
pub fn rtd_label_scores(
    model: &MiniPlm,
    doc: &[TokenId],
    label_names: &[Vec<TokenId>],
    vocab: &Vocab,
    precision: Precision,
) -> Result<Vec<f32>, PromptError> {
    let about = template_word(vocab, "about")?;
    Ok(label_names
        .iter()
        .map(|names| {
            if names.is_empty() {
                return 0.0;
            }
            let budget = model.config.max_len.saturating_sub(4 + names.len());
            let body = &doc[..doc.len().min(budget)];
            let mut seq = Vec::with_capacity(body.len() + names.len() + 4);
            seq.push(structmine_text::vocab::CLS);
            seq.extend_from_slice(body);
            seq.push(SEP);
            seq.push(about);
            let name_start = seq.len();
            seq.extend_from_slice(names);
            seq.push(SEP);
            let probs = model.rtd_probs(&seq, precision);
            let replaced: f32 =
                (0..names.len()).map(|i| probs[name_start + i]).sum::<f32>() / names.len() as f32;
            1.0 - replaced
        })
        .collect())
}

/// Zero-shot prediction over a corpus slice using a scoring function.
pub fn zero_shot_predict(
    model: &MiniPlm,
    docs: &[&[TokenId]],
    label_names: &[Vec<TokenId>],
    vocab: &Vocab,
    electra_style: bool,
) -> Result<Vec<usize>, PromptError> {
    docs.iter()
        .map(|doc| {
            let scores = if electra_style {
                rtd_label_scores(model, doc, label_names, vocab, Precision::Exact)?
            } else {
                cloze_label_scores(model, doc, label_names, vocab)?
            };
            Ok(structmine_linalg::vector::argmax(&scores).unwrap_or(0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlmConfig;
    use structmine_text::synth::recipes;

    #[test]
    fn cloze_prompt_places_mask_before_final_sep() {
        let corpus = recipes::pretraining_corpus(2, 1);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let (seq, pos) = cloze_prompt(&model, &corpus.docs[0].tokens, &corpus.vocab).unwrap();
        assert_eq!(seq[pos], MASK);
        assert_eq!(seq[pos + 1], SEP);
        assert!(seq.len() <= model.config.max_len);
    }

    #[test]
    fn label_scores_have_one_entry_per_class() {
        let corpus = recipes::pretraining_corpus(2, 2);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let names = vec![vec![10 as TokenId], vec![11], vec![]];
        let doc = &corpus.docs[0].tokens;
        let cloze = cloze_label_scores(&model, doc, &names, &corpus.vocab).unwrap();
        let rtd = rtd_label_scores(&model, doc, &names, &corpus.vocab, Precision::Exact).unwrap();
        assert_eq!(cloze.len(), 3);
        assert_eq!(rtd.len(), 3);
        assert_eq!(cloze[2], 0.0);
        assert_eq!(rtd[2], 0.0);
        assert!(cloze.iter().all(|s| s.is_finite()));
        assert!(rtd.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn zero_shot_predict_returns_valid_classes() {
        let corpus = recipes::pretraining_corpus(4, 3);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let names = vec![vec![10 as TokenId], vec![11]];
        let docs: Vec<&[TokenId]> = corpus.docs.iter().map(|d| d.tokens.as_slice()).collect();
        for style in [false, true] {
            let preds = zero_shot_predict(&model, &docs, &names, &corpus.vocab, style).unwrap();
            assert_eq!(preds.len(), 4);
            assert!(preds.iter().all(|&p| p < 2));
        }
    }
}
