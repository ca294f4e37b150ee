//! Deterministic text tokenization.
//!
//! The corpora of the paper are bags of terms per document; this tokenizer
//! turns raw text into such bags: lowercase, split on non-alphanumeric
//! characters, drop very short tokens and a small English stop-word list.
//! It is intentionally simple — the burstiness framework is agnostic to the
//! linguistic sophistication of the term extraction.

use crate::dictionary::{TermDict, TermId};
use std::collections::HashMap;

/// English stop words filtered by every [`Tokenizer`]; sorted and free of
/// duplicates, as the filter binary-searches it.
const DEFAULT_STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "has", "have", "he",
    "her", "his", "in", "is", "it", "its", "of", "on", "or", "she", "that", "the", "their", "they",
    "this", "to", "was", "were", "will", "with",
];

/// Tokens shorter than this many bytes are dropped.
const MIN_TOKEN_LEN: usize = 2;

/// Tokenizer producing term-frequency bags.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct Tokenizer;

impl Tokenizer {
    /// A tokenizer with the default stop-word list and a minimum token
    /// length of 2.
    pub fn new() -> Self {
        Self
    }

    /// Splits `text` into normalized tokens (lowercased, alphanumeric runs),
    /// applying the length and stop-word filters.
    pub fn tokenize<'a>(&'a self, text: &'a str) -> impl Iterator<Item = String> + 'a {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|tok| tok.len() >= MIN_TOKEN_LEN)
            .map(|tok| tok.to_lowercase())
            .filter(|tok| DEFAULT_STOPWORDS.binary_search(&tok.as_str()).is_err())
    }

    /// Tokenizes `text` and interns the tokens, returning the term-frequency
    /// bag of the document.
    pub fn term_counts(&self, text: &str, dict: &mut TermDict) -> HashMap<TermId, u32> {
        let mut counts = HashMap::new();
        for tok in self.tokenize(text) {
            let id = dict.intern(&tok);
            *counts.entry(id).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_splits_on_punctuation() {
        let t = Tokenizer::new();
        let toks: Vec<_> = t.tokenize("Earthquake strikes Costa-Rica!").collect();
        assert_eq!(toks, vec!["earthquake", "strikes", "costa", "rica"]);
    }

    #[test]
    fn filters_stopwords_and_short_tokens() {
        let t = Tokenizer::new();
        let toks: Vec<_> = t.tokenize("the price of oil in the US").collect();
        assert!(!toks.contains(&"the".to_string()));
        assert!(!toks.contains(&"of".to_string()));
        assert!(toks.contains(&"price".to_string()));
        assert!(toks.contains(&"oil".to_string()));
        assert!(toks.contains(&"us".to_string()));
    }

    #[test]
    fn term_counts_aggregates_repeats() {
        let t = Tokenizer::new();
        let mut dict = TermDict::new();
        let counts = t.term_counts("gaza ceasefire gaza strip gaza", &mut dict);
        let gaza = dict.get("gaza").unwrap();
        let ceasefire = dict.get("ceasefire").unwrap();
        assert_eq!(counts[&gaza], 3);
        assert_eq!(counts[&ceasefire], 1);
    }

    #[test]
    fn empty_text_gives_empty_bag() {
        let t = Tokenizer::new();
        let mut dict = TermDict::new();
        assert!(t.term_counts("", &mut dict).is_empty());
        assert!(t.term_counts("... !!! ---", &mut dict).is_empty());
    }

    #[test]
    fn stopwords_are_sorted_and_deduplicated() {
        assert!(DEFAULT_STOPWORDS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn numbers_are_tokens() {
        let t = Tokenizer::new();
        let toks: Vec<_> = t.tokenize("flight 447 crashed").collect();
        assert!(toks.contains(&"447".to_string()));
    }
}
