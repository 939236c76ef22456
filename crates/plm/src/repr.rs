//! Corpus-level representation extraction.
//!
//! These helpers run the encoder over whole corpora and hand back the
//! matrices the methods consume: average-pooled document representations
//! (the tutorial's "vanilla BERT representations" figures, X-Class),
//! per-occurrence contextualized token vectors (ConWea's sense clustering),
//! and full token-representation matrices per document (X-Class's
//! class-oriented attention).
//!
//! Everything here is **batched**: the corpus is the unit of work, and each
//! function takes an [`ExecPolicy`] that decides how many worker threads
//! share the per-document encodes *and* at which [`Precision`] tier each
//! forward pass runs. Parallelism is deterministic — documents are split
//! into fixed, index-ordered chunks and every per-document result is
//! produced by the exact scalar code the serial path uses, so output is
//! bitwise identical for any thread count (see `structmine_linalg::exec`).
//! The precision tier, unlike the thread count, *does* change output bits
//! (Fast swaps in approximate kernels), which is why the policy's tier is
//! part of every encode stage's fingerprint.

use crate::model::MiniPlm;
use structmine_linalg::exec::{par_map_chunks, ExecPolicy};
use structmine_linalg::{vector, Matrix, Precision};
use structmine_text::vocab::TokenId;
use structmine_text::Corpus;

/// The encoder's full output for one document: token-level hidden states
/// plus the average-pooled document vector, both from a single forward pass.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct DocRep {
    /// Document index within the corpus.
    pub doc: usize,
    /// Token-level hidden states (`len x d_model`): row `i` corresponds to
    /// `tokens[i]`, CLS/SEP rows stripped, truncated to the model's
    /// maximum length.
    pub tokens: Matrix,
    /// Mean of the token rows — identical to
    /// [`MiniPlm::mean_embed`] on the same document.
    pub mean: Vec<f32>,
}

impl MiniPlm {
    /// Encode every document of a corpus, sharing the work across the
    /// policy's threads. One forward pass per document yields both the
    /// token-level matrix and the mean-pooled vector; results come back in
    /// document order and are bitwise identical for any thread count.
    pub fn encode_corpus(&self, corpus: &Corpus, policy: &ExecPolicy) -> Vec<DocRep> {
        encode_corpus(self, corpus, policy)
    }

    /// Encode a batch of ad-hoc token sequences (no [`Corpus`] required),
    /// sharing the work across the policy's threads. Each sequence is
    /// encoded by exactly the per-document code [`MiniPlm::encode_corpus`]
    /// uses, so a document's [`DocRep`] is bitwise identical whether it is
    /// encoded alone, inside any batch, or as part of a corpus — the
    /// invariant the serving layer's micro-batching relies on.
    pub fn encode_docs(&self, docs: &[Vec<TokenId>], policy: &ExecPolicy) -> Vec<DocRep> {
        count_encoded(docs.len());
        let prec = policy.precision();
        par_map_chunks(policy, docs, |i, tokens| encode_one(self, i, tokens, prec))
    }

    /// The mean-pooled vector of each ad-hoc token sequence — the batched,
    /// counted form of [`MiniPlm::mean_embed_prec`] at the policy's tier.
    /// Rows are bitwise identical for any batching and thread count.
    pub fn mean_embed_docs(&self, docs: &[Vec<TokenId>], policy: &ExecPolicy) -> Vec<Vec<f32>> {
        mean_embed_batch(self, docs, |tokens| tokens.as_slice(), policy)
    }
}

/// Mirror every document forward pass into the run report
/// (`plm.docs_encoded`), so `/stats` shows how many encodes a workload
/// paid per document it served.
fn count_encoded(n: usize) {
    structmine_store::obs::counter_add("plm.docs_encoded", n as u64);
}

/// Mean-pool each item's tokens, counted and shared across the policy's
/// threads — the one batch path behind [`MiniPlm::mean_embed_docs`] and
/// [`doc_mean_rows_range`].
fn mean_embed_batch<T: Sync>(
    model: &MiniPlm,
    items: &[T],
    tokens: impl Fn(&T) -> &[TokenId] + Sync,
    policy: &ExecPolicy,
) -> Vec<Vec<f32>> {
    count_encoded(items.len());
    let prec = policy.precision();
    par_map_chunks(policy, items, |_, item| {
        model.mean_embed_prec(tokens(item), prec)
    })
}

/// Encode one token sequence into a [`DocRep`] — the single per-document
/// code path shared by corpus-level and ad-hoc batched encoding.
fn encode_one(model: &MiniPlm, i: usize, tokens: &[TokenId], precision: Precision) -> DocRep {
    let seq = model.wrap(tokens);
    let h = model.encode_prec(&seq, precision);
    let body: Vec<usize> = (1..seq.len() - 1).collect();
    let rows: Vec<&[f32]> = body.iter().map(|&r| h.row(r)).collect();
    let mean = if rows.is_empty() {
        h.row(0).to_vec()
    } else {
        vector::mean_of(&rows, model.config.d_model)
    };
    DocRep {
        doc: i,
        tokens: h.select_rows(&body),
        mean,
    }
}

/// Free-function form of [`MiniPlm::encode_corpus`].
pub fn encode_corpus(model: &MiniPlm, corpus: &Corpus, policy: &ExecPolicy) -> Vec<DocRep> {
    count_encoded(corpus.len());
    let prec = policy.precision();
    par_map_chunks(policy, &corpus.docs, |i, doc| {
        encode_one(model, i, &doc.tokens, prec)
    })
}

/// Average-pooled representation of every document (`n x d`), using the
/// given execution policy.
pub fn doc_mean_reps_with(model: &MiniPlm, corpus: &Corpus, policy: &ExecPolicy) -> Matrix {
    let rows = doc_mean_rows_range(model, corpus, 0..corpus.len(), policy);
    rows_to_matrix(rows, model.config.d_model)
}

/// Mean-pooled rows for a contiguous doc-index range, in document order.
/// Row values are computed by [`MiniPlm::mean_embed`] exactly as
/// [`doc_mean_reps_with`] computes them, so appending range results
/// reproduces the whole-corpus matrix bitwise.
pub fn doc_mean_rows_range(
    model: &MiniPlm,
    corpus: &Corpus,
    range: std::ops::Range<usize>,
    policy: &ExecPolicy,
) -> Vec<Vec<f32>> {
    mean_embed_batch(
        model,
        &corpus.docs[range],
        |doc| doc.tokens.as_slice(),
        policy,
    )
}

/// Stack owned rows into a matrix (empty input keeps the column count).
/// Public so the shard coordinator can merge per-shard row blocks back
/// into the canonical whole-corpus matrix.
pub fn rows_to_matrix(rows: Vec<Vec<f32>>, d_model: usize) -> Matrix {
    let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    if refs.is_empty() {
        Matrix::zeros(0, d_model)
    } else {
        Matrix::from_rows(&refs)
    }
}

/// Average-pooled representation of every document (`n x d`) under the
/// process-wide default policy.
pub fn doc_mean_reps(model: &MiniPlm, corpus: &Corpus) -> Matrix {
    doc_mean_reps_with(model, corpus, ExecPolicy::global())
}

/// Token-level hidden states of one document: row `i` corresponds to
/// `tokens[i]` (CLS/SEP rows are stripped). Truncated to the model's
/// maximum length.
pub fn token_reps(model: &MiniPlm, tokens: &[TokenId]) -> Matrix {
    token_reps_prec(model, tokens, Precision::Exact)
}

/// [`token_reps`] at an explicit precision tier.
pub fn token_reps_prec(model: &MiniPlm, tokens: &[TokenId], precision: Precision) -> Matrix {
    let seq = model.wrap(tokens);
    let h = model.encode_prec(&seq, precision);
    h.select_rows(&(1..seq.len() - 1).collect::<Vec<_>>())
}

/// One contextualized occurrence of a token.
#[derive(Clone, Debug)]
pub struct Occurrence {
    /// Document index.
    pub doc: usize,
    /// Token position within the document.
    pub pos: usize,
    /// Hidden-state vector at that position.
    pub vector: Vec<f32>,
}

/// Contextualized vectors for up to `cap` occurrences of `token` across the
/// corpus (in document order), under the process-wide default policy.
pub fn occurrence_reps(
    model: &MiniPlm,
    corpus: &Corpus,
    token: TokenId,
    cap: usize,
) -> Vec<Occurrence> {
    occurrence_reps_with(model, corpus, token, cap, ExecPolicy::global())
}

/// Contextualized vectors for up to `cap` occurrences of `token` across the
/// corpus (in document order).
///
/// A cheap token scan first decides which documents must be encoded — only
/// documents contributing to the first `cap` occurrences — then those
/// encodes are shared across the policy's threads. Output (occurrences,
/// their order, and their vectors) is identical to the serial scan.
pub fn occurrence_reps_with(
    model: &MiniPlm,
    corpus: &Corpus,
    token: TokenId,
    cap: usize,
    policy: &ExecPolicy,
) -> Vec<Occurrence> {
    let budget = model.config.max_len - 2;
    // Plan: (doc index, in-budget positions of `token`), stopping at `cap`.
    let mut plan: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut planned = 0usize;
    'scan: for (d, doc) in corpus.docs.iter().enumerate() {
        if !doc.tokens.contains(&token) {
            continue;
        }
        let mut positions = Vec::new();
        for (p, &t) in doc.tokens.iter().take(budget).enumerate() {
            if t == token {
                positions.push(p);
                planned += 1;
                if planned >= cap {
                    plan.push((d, positions));
                    break 'scan;
                }
            }
        }
        if !positions.is_empty() {
            plan.push((d, positions));
        }
    }
    let prec = policy.precision();
    let per_doc = par_map_chunks(policy, &plan, |_, (d, positions)| {
        let reps = token_reps_prec(model, &corpus.docs[*d].tokens, prec);
        positions
            .iter()
            .map(|&p| Occurrence {
                doc: *d,
                pos: p,
                vector: reps.row(p).to_vec(),
            })
            .collect::<Vec<_>>()
    });
    let mut out: Vec<Occurrence> = per_doc.into_iter().flatten().collect();
    out.truncate(cap);
    out
}

/// Contextualized vectors for **every** in-budget occurrence of each token
/// in `tokens`, grouped per token (occurrences in document order). Each
/// containing document is encoded exactly once, with the encodes shared
/// across the policy's threads — the batched variant backing ConWea's
/// sense clustering.
pub fn occurrence_reps_multi(
    model: &MiniPlm,
    corpus: &Corpus,
    tokens: &[TokenId],
    policy: &ExecPolicy,
) -> std::collections::HashMap<TokenId, Vec<Occurrence>> {
    let set: std::collections::HashSet<TokenId> = tokens.iter().copied().collect();
    let budget = model.config.max_len - 2;
    let hits: Vec<usize> = corpus
        .docs
        .iter()
        .enumerate()
        .filter(|(_, doc)| doc.tokens.iter().any(|t| set.contains(t)))
        .map(|(d, _)| d)
        .collect();
    let prec = policy.precision();
    let per_doc = par_map_chunks(policy, &hits, |_, &d| {
        let doc = &corpus.docs[d];
        let reps = token_reps_prec(model, &doc.tokens, prec);
        doc.tokens
            .iter()
            .take(budget)
            .enumerate()
            .filter(|(_, t)| set.contains(t))
            .map(|(p, &t)| {
                (
                    t,
                    Occurrence {
                        doc: d,
                        pos: p,
                        vector: reps.row(p).to_vec(),
                    },
                )
            })
            .collect::<Vec<_>>()
    });
    let mut out: std::collections::HashMap<TokenId, Vec<Occurrence>> =
        std::collections::HashMap::new();
    for (t, occ) in per_doc.into_iter().flatten() {
        out.entry(t).or_default().push(occ);
    }
    out
}

/// Entailment probability of every (document, hypothesis) pair
/// (`n_docs x n_hypotheses`), sharing documents across the policy's
/// threads. Row `i` column `c` equals
/// `model.nli_entail_prob(&corpus.docs[i].tokens, &hypotheses[c])`.
pub fn nli_entail_matrix(
    model: &MiniPlm,
    corpus: &Corpus,
    hypotheses: &[Vec<TokenId>],
    policy: &ExecPolicy,
) -> Matrix {
    let prec = policy.precision();
    let rows = par_map_chunks(policy, &corpus.docs, |_, doc| {
        hypotheses
            .iter()
            .map(|h| model.nli_entail_prob_prec(&doc.tokens, h, prec))
            .collect::<Vec<f32>>()
    });
    let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    if refs.is_empty() {
        Matrix::zeros(0, hypotheses.len())
    } else {
        Matrix::from_rows(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlmConfig;
    use structmine_text::synth::recipes;

    #[test]
    fn doc_mean_reps_shape() {
        let corpus = recipes::pretraining_corpus(6, 1);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let reps = doc_mean_reps(&model, &corpus);
        assert_eq!(reps.shape(), (6, model.config.d_model));
    }

    #[test]
    fn token_reps_align_with_positions() {
        let corpus = recipes::pretraining_corpus(2, 2);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let tokens = &corpus.docs[0].tokens;
        let reps = token_reps(&model, tokens);
        let expected = tokens.len().min(model.config.max_len - 2);
        assert_eq!(reps.rows(), expected);
    }

    #[test]
    fn occurrence_reps_find_token_positions() {
        let corpus = recipes::pretraining_corpus(30, 3);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        // Pick a token guaranteed to appear: the most frequent non-special.
        let t = (5..corpus.vocab.len() as u32)
            .max_by_key(|&t| corpus.vocab.count(t))
            .unwrap();
        let occ = occurrence_reps(&model, &corpus, t, 7);
        assert!(!occ.is_empty());
        assert!(occ.len() <= 7);
        for o in &occ {
            assert_eq!(corpus.docs[o.doc].tokens[o.pos], t);
            assert_eq!(o.vector.len(), model.config.d_model);
        }
    }

    #[test]
    fn encode_corpus_matches_per_doc_helpers() {
        let corpus = recipes::pretraining_corpus(5, 4);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let reps = model.encode_corpus(&corpus, &ExecPolicy::serial());
        assert_eq!(reps.len(), corpus.len());
        for (i, rep) in reps.iter().enumerate() {
            assert_eq!(rep.doc, i);
            let tokens = &corpus.docs[i].tokens;
            assert_eq!(rep.tokens.data(), token_reps(&model, tokens).data());
            assert_eq!(rep.mean, model.mean_embed(tokens));
        }
    }

    #[test]
    fn encode_docs_matches_encode_corpus_for_any_batching() {
        let corpus = recipes::pretraining_corpus(7, 11);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let whole = model.encode_corpus(&corpus, &ExecPolicy::serial());
        let docs: Vec<Vec<TokenId>> = corpus.docs.iter().map(|d| d.tokens.clone()).collect();
        // Whole batch, singleton batches, and an uneven split must all
        // reproduce the corpus encode bitwise.
        let batched = model.encode_docs(&docs, &ExecPolicy::with_threads(3));
        for (a, b) in batched.iter().zip(&whole) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.tokens.data(), b.tokens.data());
            assert_eq!(a.mean, b.mean);
        }
        for (i, doc) in docs.iter().enumerate() {
            let solo = model.encode_docs(std::slice::from_ref(doc), &ExecPolicy::serial());
            assert_eq!(solo.len(), 1);
            assert_eq!(solo[0].tokens.data(), whole[i].tokens.data());
            assert_eq!(solo[0].mean, whole[i].mean);
        }
    }

    #[test]
    fn encode_corpus_is_thread_count_invariant() {
        let corpus = recipes::pretraining_corpus(9, 5);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let serial = model.encode_corpus(&corpus, &ExecPolicy::serial());
        for threads in [2, 3, 8] {
            let par = model.encode_corpus(&corpus, &ExecPolicy::with_threads(threads));
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.doc, b.doc, "threads={threads}");
                assert_eq!(a.tokens.data(), b.tokens.data(), "threads={threads}");
                assert_eq!(a.mean, b.mean, "threads={threads}");
            }
        }
    }

    #[test]
    fn occurrence_reps_with_matches_serial_plan() {
        let corpus = recipes::pretraining_corpus(20, 6);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let t = (5..corpus.vocab.len() as u32)
            .max_by_key(|&t| corpus.vocab.count(t))
            .unwrap();
        let serial = occurrence_reps_with(&model, &corpus, t, 5, &ExecPolicy::serial());
        let par = occurrence_reps_with(&model, &corpus, t, 5, &ExecPolicy::with_threads(4));
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!((a.doc, a.pos), (b.doc, b.pos));
            assert_eq!(a.vector, b.vector);
        }
    }

    #[test]
    fn occurrence_reps_multi_covers_all_in_budget_occurrences() {
        let corpus = recipes::pretraining_corpus(12, 7);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let budget = model.config.max_len - 2;
        let targets: Vec<TokenId> = (5..corpus.vocab.len() as u32)
            .filter(|&t| corpus.vocab.count(t) > 0)
            .take(3)
            .collect();
        let by_token =
            occurrence_reps_multi(&model, &corpus, &targets, &ExecPolicy::with_threads(2));
        for &t in &targets {
            let expected: usize = corpus
                .docs
                .iter()
                .map(|d| d.tokens.iter().take(budget).filter(|&&x| x == t).count())
                .sum();
            let got = by_token.get(&t).map_or(0, Vec::len);
            assert_eq!(got, expected, "token {t}");
        }
    }

    #[test]
    fn nli_entail_matrix_matches_pointwise_calls() {
        let corpus = recipes::pretraining_corpus(4, 8);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let hyps = vec![vec![6u32, 7], vec![9u32]];
        let m = nli_entail_matrix(&model, &corpus, &hyps, &ExecPolicy::with_threads(3));
        assert_eq!(m.shape(), (4, 2));
        for (i, doc) in corpus.docs.iter().enumerate() {
            for (c, h) in hyps.iter().enumerate() {
                assert_eq!(m.row(i)[c], model.nli_entail_prob(&doc.tokens, h));
            }
        }
    }
}
