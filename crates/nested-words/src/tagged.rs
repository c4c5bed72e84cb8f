//! Tagged words and the `nw_w` / `w_nw` bijection (§2.2 of the paper).
//!
//! A nested word over Σ is encoded as a word over the tagged alphabet
//! Σ̂ = { ⟨a, a, a⟩ : a ∈ Σ }: calls become `⟨a`, internals stay `a`, returns
//! become `a⟩`. The encoding is a bijection between nested words and tagged
//! words, because unmatched tags simply become pending edges.
//!
//! The crate also provides a human-readable text syntax used by tests,
//! examples and documentation: tokens separated by whitespace, where `<a`
//! denotes a call, `a` an internal and `a>` a return.

use crate::alphabet::{Alphabet, Symbol};
use crate::error::NestedWordError;
use crate::word::{NestedWord, PositionKind};

/// One letter of the tagged alphabet Σ̂: a symbol of Σ together with its
/// position type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaggedSymbol {
    /// `⟨a` — a call labelled `a`.
    Call(Symbol),
    /// `a` — an internal labelled `a`.
    Internal(Symbol),
    /// `a⟩` — a return labelled `a`.
    Return(Symbol),
}

// A `u16` symbol plus a tag: 4 bytes, a figure the event-buffer sizes in
// `nwa_xml` are documented in.
const _: () = assert!(std::mem::size_of::<TaggedSymbol>() == 4);

impl TaggedSymbol {
    /// Builds a tagged symbol from a kind and a symbol.
    pub fn new(kind: PositionKind, symbol: Symbol) -> Self {
        match kind {
            PositionKind::Call => TaggedSymbol::Call(symbol),
            PositionKind::Internal => TaggedSymbol::Internal(symbol),
            PositionKind::Return => TaggedSymbol::Return(symbol),
        }
    }

    /// The position kind carried by the tag.
    pub fn kind(self) -> PositionKind {
        match self {
            TaggedSymbol::Call(_) => PositionKind::Call,
            TaggedSymbol::Internal(_) => PositionKind::Internal,
            TaggedSymbol::Return(_) => PositionKind::Return,
        }
    }

    /// The underlying Σ-symbol.
    pub fn symbol(self) -> Symbol {
        match self {
            TaggedSymbol::Call(s) | TaggedSymbol::Internal(s) | TaggedSymbol::Return(s) => s,
        }
    }

    /// Renders the tag in the text syntax (`<a`, `a`, `a>`).
    pub fn display(self, alphabet: &Alphabet) -> String {
        let name = alphabet.name(self.symbol()).unwrap_or("?").to_string();
        match self {
            TaggedSymbol::Call(_) => format!("<{name}"),
            TaggedSymbol::Internal(_) => name,
            TaggedSymbol::Return(_) => format!("{name}>"),
        }
    }

    /// The dense index of this tagged symbol in the tagged alphabet Σ̂ of an
    /// alphabet with `sigma` symbols: calls occupy `0..sigma`, internals
    /// `sigma..2·sigma`, returns `2·sigma..3·sigma`.
    ///
    /// Word automata over Σ̂ (Theorem 2 and the succinctness experiments) use
    /// this indexing.
    pub fn tagged_index(self, sigma: usize) -> usize {
        match self {
            TaggedSymbol::Call(s) => s.index(),
            TaggedSymbol::Internal(s) => sigma + s.index(),
            TaggedSymbol::Return(s) => 2 * sigma + s.index(),
        }
    }

    /// Inverse of [`TaggedSymbol::tagged_index`].
    pub fn from_tagged_index(idx: usize, sigma: usize) -> Self {
        assert!(idx < 3 * sigma, "tagged index out of range");
        if idx < sigma {
            TaggedSymbol::Call(Symbol(idx as u16))
        } else if idx < 2 * sigma {
            TaggedSymbol::Internal(Symbol((idx - sigma) as u16))
        } else {
            TaggedSymbol::Return(Symbol((idx - 2 * sigma) as u16))
        }
    }
}

/// A word over the tagged alphabet Σ̂.
pub type TaggedWord = Vec<TaggedSymbol>;

/// The `nw_w` transformation (§2.2): encodes a nested word as a tagged word.
pub fn nw_w(n: &NestedWord) -> TaggedWord {
    n.to_tagged()
}

/// The `w_nw` transformation (§2.2): decodes a tagged word into the unique
/// nested word it represents. Total on all tagged words.
pub fn w_nw(tagged: &[TaggedSymbol]) -> NestedWord {
    NestedWord::from_tagged(tagged)
}

/// Parses the text syntax for tagged words: whitespace-separated tokens,
/// each `"<name"` (call), `"name"` (internal) or `"name>"` (return).
/// Symbol names are interned into `alphabet`.
pub fn parse_tagged(text: &str, alphabet: &mut Alphabet) -> Result<TaggedWord, NestedWordError> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    for token in text.split_whitespace() {
        offset = text[offset..]
            .find(token)
            .map(|p| offset + p)
            .unwrap_or(offset);
        let tagged = parse_token(token, offset, alphabet)?;
        out.push(tagged);
        offset += token.len();
    }
    Ok(out)
}

fn parse_token(
    token: &str,
    offset: usize,
    alphabet: &mut Alphabet,
) -> Result<TaggedSymbol, NestedWordError> {
    let (kind, name) = if let Some(rest) = token.strip_prefix('<') {
        (PositionKind::Call, rest)
    } else if let Some(rest) = token.strip_suffix('>') {
        (PositionKind::Return, rest)
    } else {
        (PositionKind::Internal, token)
    };
    if name.is_empty() || name.contains('<') || name.contains('>') {
        return Err(NestedWordError::Parse {
            offset,
            message: format!("malformed token `{token}`"),
        });
    }
    // The fallible variant: parsing already returns `Result`, so a full
    // alphabet surfaces as a typed `AlphabetFull` error instead of a panic
    // (families sweeps and tests parse untrusted word texts through here).
    let s = alphabet.try_intern(name)?;
    Ok(TaggedSymbol::new(kind, s))
}

/// Parses the text syntax directly into a [`NestedWord`].
pub fn parse_nested_word(
    text: &str,
    alphabet: &mut Alphabet,
) -> Result<NestedWord, NestedWordError> {
    Ok(w_nw(&parse_tagged(text, alphabet)?))
}

/// Renders a nested word in the text syntax using `alphabet` for names.
pub fn display_nested_word(n: &NestedWord, alphabet: &Alphabet) -> String {
    n.to_tagged()
        .iter()
        .map(|t| t.display(alphabet))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let mut ab = Alphabet::new();
        let text = "<a <b a a> <b a b> a> <a b a a>";
        let w = parse_nested_word(text, &mut ab).unwrap();
        assert_eq!(display_nested_word(&w, &ab), text);
    }

    #[test]
    fn w_nw_and_nw_w_are_mutually_inverse() {
        let mut ab = Alphabet::new();
        let t = parse_tagged("a a> <b a a> <a <a", &mut ab).unwrap();
        let n = w_nw(&t);
        assert_eq!(nw_w(&n), t);
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        let mut ab = Alphabet::new();
        assert!(parse_tagged("<a> b", &mut ab).is_err());
        assert!(parse_tagged("<", &mut ab).is_err());
        assert!(parse_tagged("a<b", &mut ab).is_err());
    }

    #[test]
    fn tagged_index_bijection() {
        let sigma = 5;
        for idx in 0..3 * sigma {
            let t = TaggedSymbol::from_tagged_index(idx, sigma);
            assert_eq!(t.tagged_index(sigma), idx);
        }
    }

    #[test]
    fn tagged_index_partitions_by_kind() {
        let sigma = 3;
        assert_eq!(TaggedSymbol::Call(Symbol(2)).tagged_index(sigma), 2);
        assert_eq!(TaggedSymbol::Internal(Symbol(0)).tagged_index(sigma), 3);
        assert_eq!(TaggedSymbol::Return(Symbol(2)).tagged_index(sigma), 8);
    }

    #[test]
    fn display_uses_alphabet_names() {
        let mut ab = Alphabet::new();
        let open = parse_tagged("<open close> inner", &mut ab).unwrap();
        assert_eq!(open[0].display(&ab), "<open");
        assert_eq!(open[1].display(&ab), "close>");
        assert_eq!(open[2].display(&ab), "inner");
    }

    #[test]
    fn parse_surfaces_full_alphabet_as_typed_error() {
        use crate::error::NestedWordError;
        let mut ab = Alphabet::new();
        for i in 0..Alphabet::MAX_SYMBOLS {
            ab.try_intern(&format!("s{i}")).unwrap();
        }
        // A fresh name no longer fits: a typed error, not a panic.
        let err = parse_tagged("<overflow", &mut ab).unwrap_err();
        assert!(matches!(err, NestedWordError::AlphabetFull { .. }));
        // Already-interned names still parse on the full alphabet.
        assert!(parse_tagged("<s0 s1 s2>", &mut ab).is_ok());
    }

    #[test]
    fn empty_text_parses_to_empty_word() {
        let mut ab = Alphabet::new();
        let w = parse_nested_word("   ", &mut ab).unwrap();
        assert!(w.is_empty());
    }
}
