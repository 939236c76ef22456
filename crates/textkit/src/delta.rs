//! Append-only corpus generations (DESIGN §11).
//!
//! A [`DeltaCorpus`] is a base corpus plus an ordered sequence of applied
//! deltas, each stamped with a [`Generation`] number. Generation 0 is the
//! base; applying delta g moves the corpus from generation g-1 to g. All
//! corpus-level statistics (vocabulary counts, document frequencies, and the
//! TF-IDF model derived from them) are maintained incrementally from the
//! delta alone.
//!
//! ## Merge rule
//!
//! The incremental update is *byte-identical* to a from-scratch build of the
//! concatenated corpus because every maintained statistic is a fold over
//! documents in stream order of operations that the from-scratch build
//! performs in the same order:
//!
//! * **Vocabulary words** are interned in first-occurrence order. A word
//!   first seen in delta g gets the id the from-scratch build would assign
//!   it when it reaches that document.
//! * **Vocabulary counts** are `u64` additions per token occurrence;
//!   integer addition is associative, so folding delta-by-delta equals
//!   folding the concatenation.
//! * **Document frequencies** are `u32` additions of each document's
//!   *distinct* token set; distinctness is per-document, so each document
//!   contributes identically regardless of which delta carried it.
//! * **IDF** is a pure `f32` function of `(n_docs, df)` — see
//!   [`TfIdf::from_counts`] — so identical integers give identical bits.
//!
//! ## Invalidation semantics
//!
//! Deltas fail closed: [`DeltaCorpus::apply`] rejects a delta whose
//! generation is not exactly `current + 1` (duplicates and gaps are both
//! errors) and rejects token ids outside the current vocabulary *before*
//! mutating any state.

use crate::corpus::{Corpus, Doc};
use crate::tfidf::TfIdf;
use crate::tokenize;
use crate::vocab::TokenId;
use serde::{Deserialize, Serialize};

/// A corpus generation number. Generation 0 is the base corpus; each applied
/// delta increments it by one.
pub type Generation = u32;

/// Why a delta was rejected. All variants leave the corpus unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta's generation is at or behind the current one — it was
    /// already applied (or forged). Re-applying is never safe: counts would
    /// double.
    Duplicate {
        /// Generation carried by the rejected delta.
        generation: Generation,
        /// The corpus's current generation.
        current: Generation,
    },
    /// The delta skips ahead, which would silently drop the missing
    /// generations' documents from every statistic.
    OutOfOrder {
        /// The only generation that can be applied next.
        expected: Generation,
        /// Generation carried by the rejected delta.
        got: Generation,
    },
    /// A document references a token id outside the current vocabulary.
    /// Token-level deltas are closed-vocabulary; use
    /// [`DeltaCorpus::apply_text`] to grow the vocabulary from raw text.
    UnknownToken {
        /// The out-of-range token id.
        token: TokenId,
        /// Current vocabulary size (valid ids are `0..vocab_len`).
        vocab_len: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Duplicate {
                generation,
                current,
            } => write!(
                f,
                "delta generation {generation} was already applied (corpus is at generation {current})"
            ),
            DeltaError::OutOfOrder { expected, got } => write!(
                f,
                "out-of-order delta: expected generation {expected}, got {got}"
            ),
            DeltaError::UnknownToken { token, vocab_len } => write!(
                f,
                "delta references token id {token} outside the vocabulary (len {vocab_len})"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// An ordered batch of new documents stamped with the generation it
/// produces when applied.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CorpusDelta {
    /// The generation the corpus reaches by applying this delta.
    pub generation: Generation,
    /// The new documents, in stream order.
    pub docs: Vec<Doc>,
}

/// A corpus that grows by append-only generational deltas, with vocabulary
/// counts, document frequencies, and TF-IDF maintained incrementally.
#[derive(Clone, Debug)]
pub struct DeltaCorpus {
    corpus: Corpus,
    generation: Generation,
    /// Maintained document frequencies, always `vocab.len()` long.
    df: Vec<u32>,
}

impl DeltaCorpus {
    /// Wrap `base` as generation 0.
    pub fn from_corpus(base: Corpus) -> Self {
        let df = base.doc_frequencies();
        DeltaCorpus {
            corpus: base,
            generation: 0,
            df,
        }
    }

    /// The current generation (0 = base corpus, no deltas applied).
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The merged corpus: base documents followed by every applied delta's
    /// documents in generation order.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Total number of documents across all applied generations.
    pub fn len(&self) -> usize {
        self.corpus.len()
    }

    /// True when the merged corpus has no documents.
    pub fn is_empty(&self) -> bool {
        self.corpus.is_empty()
    }

    /// Stamp `docs` as the next applicable delta.
    pub fn next_delta(&self, docs: Vec<Doc>) -> CorpusDelta {
        CorpusDelta {
            generation: self.generation() + 1,
            docs,
        }
    }

    /// Apply a closed-vocabulary delta, advancing to its generation.
    ///
    /// Fails closed — on any error the corpus, counts, and document
    /// frequencies are untouched.
    pub fn apply(&mut self, delta: CorpusDelta) -> Result<Generation, DeltaError> {
        let expected = self.generation() + 1;
        if delta.generation < expected {
            return Err(DeltaError::Duplicate {
                generation: delta.generation,
                current: self.generation(),
            });
        }
        if delta.generation > expected {
            return Err(DeltaError::OutOfOrder {
                expected,
                got: delta.generation,
            });
        }
        let vocab_len = self.corpus.vocab.len();
        for doc in &delta.docs {
            if let Some(&t) = doc.tokens.iter().find(|&&t| t as usize >= vocab_len) {
                return Err(DeltaError::UnknownToken {
                    token: t,
                    vocab_len,
                });
            }
        }
        self.apply_validated(delta.docs);
        Ok(self.generation())
    }

    /// Tokenize raw `lines` (one document per line), interning unseen words
    /// into the vocabulary, and apply them as the next generation.
    ///
    /// This is the open-vocabulary ingestion path: words are interned in
    /// first-occurrence order, exactly as a from-scratch tokenization of the
    /// concatenated text would assign ids.
    pub fn apply_text(&mut self, lines: &[String]) -> Generation {
        let docs: Vec<Doc> = lines
            .iter()
            .map(|l| Doc::from_tokens(tokenize::encode_interning(l, &mut self.corpus.vocab)))
            .collect();
        // Interning grew the word table; grow `df` to match before folding
        // the new docs in (counts are bumped in `apply_validated`).
        self.df.resize(self.corpus.vocab.len(), 0);
        self.apply_validated(docs);
        self.generation()
    }

    /// Fold validated docs into the corpus and its maintained statistics.
    fn apply_validated(&mut self, docs: Vec<Doc>) {
        for doc in docs {
            for &t in &doc.tokens {
                self.corpus.vocab.bump(t);
            }
            // Each document contributes its *distinct* token set to df.
            let mut distinct: Vec<TokenId> = doc.tokens.clone();
            distinct.sort_unstable();
            distinct.dedup();
            for t in distinct {
                self.df[t as usize] += 1;
            }
            self.corpus.docs.push(doc);
        }
        self.generation += 1;
    }

    /// Maintained document frequencies (same contract as
    /// [`Corpus::doc_frequencies`], without the full-corpus scan).
    pub fn doc_frequencies(&self) -> &[u32] {
        &self.df
    }

    /// TF-IDF model over the merged corpus, from the maintained counts.
    pub fn tfidf(&self) -> TfIdf {
        TfIdf::from_counts(self.corpus.len(), &self.df)
    }

    /// Fingerprint of the maintained statistics (vocabulary + df + doc
    /// count) — used by equivalence tests to compare against a cold build.
    pub fn stats_fingerprint(&self) -> u128 {
        structmine_store::fingerprint_of(&(&self.corpus.vocab, &self.df, self.corpus.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocab;

    /// A from-scratch build: tokenize every line against a fresh vocabulary,
    /// interning + bumping counts per occurrence — the reference the merge
    /// rule must reproduce byte-for-byte.
    fn cold_build(lines: &[&str]) -> Corpus {
        let mut c = Corpus::new(Vocab::new());
        for l in lines {
            let toks = tokenize::encode_interning(l, &mut c.vocab);
            for &t in &toks {
                c.vocab.bump(t);
            }
            c.docs.push(Doc::from_tokens(toks));
        }
        c
    }

    const BASE: &[&str] = &["the match ended in a draw", "court rules on appeal"];
    const STREAM: &[&str] = &[
        "startup raises funding round",
        "midfielder scores twice in derby",
        "judge delays the ruling",
        "quarterly earnings beat forecast",
        "novel vaccine enters trial phase",
    ];

    #[test]
    fn incremental_stats_match_cold_concatenated_build() {
        // Apply the stream as 1, 2, and 5 deltas; all must equal the cold
        // build of base ++ stream, bit for bit.
        for k in [1usize, 2, 5] {
            let mut dc = DeltaCorpus::from_corpus(cold_build(BASE));
            for chunk in STREAM.chunks(STREAM.len().div_ceil(k)) {
                let lines: Vec<String> = chunk.iter().map(|s| s.to_string()).collect();
                dc.apply_text(&lines);
            }
            let all: Vec<&str> = BASE.iter().chain(STREAM.iter()).copied().collect();
            let cold = cold_build(&all);
            assert_eq!(dc.corpus().fingerprint(), cold.fingerprint(), "k={k}");
            assert_eq!(dc.doc_frequencies(), &cold.doc_frequencies()[..], "k={k}");
            let warm_idf = dc.tfidf();
            let cold_idf = TfIdf::fit(&cold);
            for t in 0..dc.corpus().vocab.len() as TokenId {
                assert_eq!(
                    warm_idf.idf(t).to_bits(),
                    cold_idf.idf(t).to_bits(),
                    "idf bits differ at token {t} (k={k})"
                );
            }
        }
    }

    #[test]
    fn each_applied_delta_advances_one_generation() {
        let mut dc = DeltaCorpus::from_corpus(cold_build(BASE));
        assert_eq!(dc.generation(), 0);
        dc.apply_text(&["one new doc".to_string()]);
        dc.apply_text(&["two".to_string(), "more docs".to_string()]);
        assert_eq!(dc.generation(), 2);
        assert_eq!(dc.len(), 5);
    }

    #[test]
    fn duplicate_and_out_of_order_deltas_fail_closed() {
        let mut dc = DeltaCorpus::from_corpus(cold_build(BASE));
        let fingerprint = dc.corpus().fingerprint();
        let doc = Doc::from_tokens(vec![5]);

        let dup = CorpusDelta {
            generation: 0,
            docs: vec![doc.clone()],
        };
        assert_eq!(
            dc.apply(dup),
            Err(DeltaError::Duplicate {
                generation: 0,
                current: 0
            })
        );
        let skip = CorpusDelta {
            generation: 2,
            docs: vec![doc],
        };
        assert_eq!(
            dc.apply(skip),
            Err(DeltaError::OutOfOrder {
                expected: 1,
                got: 2
            })
        );
        // Rejection left every statistic untouched.
        assert_eq!(dc.corpus().fingerprint(), fingerprint);
        assert_eq!(dc.generation(), 0);
    }

    #[test]
    fn unknown_token_fails_closed_before_mutation() {
        let mut dc = DeltaCorpus::from_corpus(cold_build(BASE));
        let vocab_len = dc.corpus().vocab.len();
        let bad = dc.next_delta(vec![
            Doc::from_tokens(vec![5]),
            Doc::from_tokens(vec![vocab_len as TokenId]),
        ]);
        let fingerprint = dc.corpus().fingerprint();
        assert_eq!(
            dc.apply(bad),
            Err(DeltaError::UnknownToken {
                token: vocab_len as TokenId,
                vocab_len,
            })
        );
        // The first (valid) doc was not partially applied.
        assert_eq!(dc.corpus().fingerprint(), fingerprint);
        assert_eq!(dc.len(), BASE.len());
    }

    #[test]
    fn closed_vocab_apply_matches_apply_text_for_known_words() {
        // When every word is already in the vocabulary, the closed-vocab
        // token path and the text path produce identical state.
        let mut by_tokens = DeltaCorpus::from_corpus(cold_build(BASE));
        let mut by_text = DeltaCorpus::from_corpus(cold_build(BASE));
        let line = "the court match".to_string();
        let toks = tokenize::encode(&line, &by_tokens.corpus().vocab);
        let delta = by_tokens.next_delta(vec![Doc::from_tokens(toks)]);
        by_tokens.apply(delta).unwrap();
        by_text.apply_text(std::slice::from_ref(&line));
        assert_eq!(by_tokens.stats_fingerprint(), by_text.stats_fingerprint());
        assert_eq!(
            by_tokens.corpus().fingerprint(),
            by_text.corpus().fingerprint()
        );
    }
}
