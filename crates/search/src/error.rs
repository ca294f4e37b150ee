//! Structured errors of the typed query API.
//!
//! [`crate::Query`] construction is infallible (the builder is fluent);
//! validation happens when the query is executed, and every way a query can
//! be malformed is a distinct [`QueryError`] variant. The legacy
//! `search`/`search_text`/`search_many` shims swallow these errors into
//! empty result lists — exactly their historical behaviour — while new
//! callers get to `match` on what actually went wrong.

use std::fmt;

use stb_corpus::Timestamp;
use stb_geo::Rect;

/// Why a [`crate::Query`] could not be executed.
///
/// Marked `#[non_exhaustive]`: future query features may add new failure
/// modes without a breaking change, so downstream `match`es need a
/// wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QueryError {
    /// The query resolved to no terms at all — it was built from an empty
    /// term list, or every word was dropped by
    /// [`crate::UnknownWords::Drop`].
    EmptyQuery,
    /// `top_k` was 0: the query can never return anything.
    ZeroTopK,
    /// A text query contained a word missing from the collection's
    /// dictionary, under [`crate::UnknownWords::Error`].
    UnknownWord {
        /// The offending (lowercased) word.
        word: String,
    },
    /// The time window `start..=end` covers no timestamp (`start > end`).
    EmptyTimeWindow {
        /// Requested window start.
        start: Timestamp,
        /// Requested window end.
        end: Timestamp,
    },
    /// The region filter has a NaN coordinate or an inverted axis
    /// (`min_x > max_x` or `min_y > max_y`), so it can intersect nothing.
    InvalidRegion {
        /// The offending rectangle.
        region: Rect,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyQuery => write!(f, "query resolved to no terms"),
            QueryError::ZeroTopK => write!(f, "top_k is 0; no result can be returned"),
            QueryError::UnknownWord { word } => {
                write!(f, "word {word:?} is not in the collection's dictionary")
            }
            QueryError::EmptyTimeWindow { start, end } => {
                write!(f, "time window {start}..={end} covers no timestamp")
            }
            QueryError::InvalidRegion { region } => {
                write!(
                    f,
                    "region filter {region} has a NaN coordinate or an inverted axis"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let errors: Vec<QueryError> = vec![
            QueryError::EmptyQuery,
            QueryError::ZeroTopK,
            QueryError::UnknownWord { word: "zzz".into() },
            QueryError::EmptyTimeWindow { start: 9, end: 2 },
            QueryError::InvalidRegion {
                region: Rect::new(0.0, 0.0, 1.0, 1.0),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
        assert!(QueryError::UnknownWord { word: "abc".into() }
            .to_string()
            .contains("abc"));
    }
}
