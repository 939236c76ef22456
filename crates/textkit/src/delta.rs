//! Generation stamps for append-only corpus deltas (DESIGN §11).
//!
//! A [`DeltaCorpus`] numbers the batches of documents appended after a base
//! corpus. Generation 0 is the base; applying delta g moves it from
//! generation g-1 to g. It keeps only the base vocabulary's size and the
//! current generation: the caller scores a delta's documents and drops
//! them, so a stream of any length costs O(1) state.
//!
//! ## Invalidation semantics
//!
//! Deltas fail closed: [`DeltaCorpus::apply`] rejects a delta whose
//! generation is not exactly `current + 1` (duplicates and gaps are both
//! errors) and rejects token ids outside the base vocabulary, both *before*
//! the generation moves.

use crate::corpus::{Corpus, Doc};
use crate::vocab::TokenId;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// A corpus generation number. Generation 0 is the base corpus; each applied
/// delta increments it by one.
pub type Generation = u32;

/// Why a delta was rejected. All variants leave the generation unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta's generation is at or behind the current one — it was
    /// already applied (or forged). Re-applying is never safe: its
    /// documents would be counted twice.
    Duplicate {
        /// Generation carried by the rejected delta.
        generation: Generation,
        /// The corpus's current generation.
        current: Generation,
    },
    /// The delta skips ahead, which would silently drop the missing
    /// generations' documents from the stream.
    OutOfOrder {
        /// The only generation that can be applied next.
        expected: Generation,
        /// Generation carried by the rejected delta.
        got: Generation,
    },
    /// A document references a token id outside the base vocabulary.
    /// Deltas are closed-vocabulary.
    UnknownToken {
        /// The out-of-range token id.
        token: TokenId,
        /// Base vocabulary size (valid ids are `0..vocab_len`).
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

/// The stamp check of a corpus that grows by append-only deltas: the base
/// vocabulary's size and the current generation, nothing per document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaCorpus {
    vocab_len: usize,
    generation: Generation,
}

impl DeltaCorpus {
    /// Stamp `base` as generation 0. Only its vocabulary size is kept.
    pub fn from_corpus(base: impl Borrow<Corpus>) -> Self {
        DeltaCorpus {
            vocab_len: base.borrow().vocab.len(),
            generation: 0,
        }
    }

    /// The current generation (0 = base corpus, no deltas applied).
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Stamp `docs` as the next applicable delta.
    pub fn next_delta(&self, docs: Vec<Doc>) -> CorpusDelta {
        CorpusDelta {
            generation: self.generation + 1,
            docs,
        }
    }

    /// Check a delta's stamp and tokens, then advance to its generation.
    ///
    /// Fails closed — on any error the generation is untouched.
    pub fn apply(&mut self, delta: CorpusDelta) -> Result<Generation, DeltaError> {
        let expected = self.generation + 1;
        if delta.generation < expected {
            return Err(DeltaError::Duplicate {
                generation: delta.generation,
                current: self.generation,
            });
        }
        if delta.generation > expected {
            return Err(DeltaError::OutOfOrder {
                expected,
                got: delta.generation,
            });
        }
        let vocab_len = self.vocab_len;
        if let Some(&token) = delta
            .docs
            .iter()
            .flat_map(|doc| &doc.tokens)
            .find(|&&t| t as usize >= vocab_len)
        {
            return Err(DeltaError::UnknownToken { token, vocab_len });
        }
        self.generation = expected;
        Ok(expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocab;

    /// A base corpus whose vocabulary holds the special tokens plus `words`.
    fn base(words: &[&str]) -> Corpus {
        let mut vocab = Vocab::new();
        for w in words {
            vocab.intern(w);
        }
        Corpus::new(vocab)
    }

    #[test]
    fn each_applied_delta_advances_one_generation() {
        let mut dc = DeltaCorpus::from_corpus(base(&["match", "court"]));
        assert_eq!(dc.generation(), 0);
        for g in 1..=3 {
            let delta = dc.next_delta(vec![Doc::from_tokens(vec![5]); g as usize]);
            assert_eq!(dc.apply(delta), Ok(g));
        }
        assert_eq!(dc.generation(), 3);
    }

    #[test]
    fn duplicate_and_out_of_order_deltas_fail_closed() {
        let mut dc = DeltaCorpus::from_corpus(base(&["match", "court"]));
        let before = dc.clone();
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
        // Rejection left the stamp untouched.
        assert_eq!(dc, before);
    }

    #[test]
    fn unknown_token_fails_closed_before_mutation() {
        let corpus = base(&["match", "court"]);
        let vocab_len = corpus.vocab.len();
        let mut dc = DeltaCorpus::from_corpus(&corpus);
        let before = dc.clone();
        let bad = dc.next_delta(vec![
            Doc::from_tokens(vec![5]),
            Doc::from_tokens(vec![vocab_len as TokenId]),
        ]);
        assert_eq!(
            dc.apply(bad),
            Err(DeltaError::UnknownToken {
                token: vocab_len as TokenId,
                vocab_len,
            })
        );
        assert_eq!(dc, before);
    }
}
