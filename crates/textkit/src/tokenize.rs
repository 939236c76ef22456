//! Whitespace/punctuation tokenizer.
//!
//! The synthetic corpora are generated as token sequences, so this tokenizer
//! exists for the places where humans type sentences at the library — the
//! quickstart example, the LOTClass "Table 1" demo, ad-hoc classification of
//! new text. Lower-cases, strips punctuation, splits on whitespace.

use crate::vocab::{TokenId, Vocab};

/// Split `text` into lower-cased word strings.
pub fn words(text: &str) -> Vec<String> {
    text.split(|c: char| c.is_whitespace() || (c.is_ascii_punctuation() && c != '[' && c != ']'))
        .filter(|w| !w.is_empty())
        .map(|w| w.to_lowercase())
        .collect()
}

/// Tokenize into ids against an existing vocabulary, unknown words → `[UNK]`.
pub fn encode(text: &str, vocab: &Vocab) -> Vec<TokenId> {
    words(text).iter().map(|w| vocab.id_or_unk(w)).collect()
}

/// Render a token-id sequence back to a human-readable string.
pub fn decode(tokens: &[TokenId], vocab: &Vocab) -> String {
    tokens
        .iter()
        .map(|&t| vocab.word(t))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_lowercase_and_strip_punctuation() {
        assert_eq!(
            words("Messi scored the penalty!"),
            vec!["messi", "scored", "the", "penalty"]
        );
    }

    #[test]
    fn brackets_survive_for_special_tokens() {
        assert_eq!(words("this is [MASK] ."), vec!["this", "is", "[mask]"]);
    }

    #[test]
    fn encode_unknown_words_map_to_unk() {
        let mut v = Vocab::new();
        v.intern("goal");
        let ids = encode("goal kick", &v);
        assert_eq!(ids[0], v.id("goal").unwrap());
        assert_eq!(ids[1], crate::vocab::UNK);
    }

    #[test]
    fn encode_round_trips_through_decode() {
        let mut v = Vocab::new();
        for w in ["the", "quick", "fox"] {
            v.intern(w);
        }
        assert_eq!(decode(&encode("The quick fox!", &v), &v), "the quick fox");
    }

    #[test]
    fn empty_text_gives_no_tokens() {
        assert!(words("  \t\n ").is_empty());
    }
}
