//! SAX-style tokenization of a lightweight XML syntax into nested words.
//!
//! Supported syntax: `<tag>` (open, attributes ignored), `</tag>` (close),
//! `<tag/>` (empty element), `<!…>` / `<?…?>` directives (skipped, including
//! DOCTYPEs with a `[ … ]` internal subset), `<![CDATA[ … ]]>` sections
//! (content lexed as text), and bare
//! text tokens (split on whitespace), e.g.
//! `"<doc><sec n="1">hello world</sec><sec/></doc>"`. Unmatched open and
//! close tags are allowed — they become pending calls and returns, exactly
//! the situation §1 highlights as awkward for tree-based models.
//!
//! There is one lexer, [`scan::BulkLexer`](crate::scan::BulkLexer): every
//! token is lexed either by its structural tape or by its one scalar token
//! step, and a token cut by the scan window's end takes that same step again
//! on a grown window. The lexer is generic over the [`ResolveName`] policy,
//! and this module names its two instances:
//!
//! * [`ByteTokenizer`] — one SAX event at a time from any
//!   [`std::io::BufRead`], each buffer lexed where it lies (UTF-8 validated
//!   wherever the structural pass cannot prove a block ASCII, tokens and
//!   multi-byte sequences split across buffers carried over the seam,
//!   invalid or truncated sequences surfacing as typed [`SaxError`]s)
//!   without ever materializing the document — the bytes-in → events-out
//!   pipeline of §1;
//! * [`FrozenByteTokenizer`] — the same lexer against a *read-only*
//!   alphabet: names are looked up instead of interned, an unknown name is
//!   a typed [`NestedWordError::UnknownSymbol`], and the alphabet is never
//!   copied or mutated — the serving-path front end, where the alphabet
//!   must stay aligned with a compiled artifact.
//!
//! A third policy, [`Projection`], is read-only lookup under a compiled
//! artifact's inert symbols: the lexer drops the text words the artifact
//! cannot be moved by, those outside the alphabet included, instead of
//! emitting them. It is what `queries::run_streaming_reader` scans with,
//! narrowing it to tags once its run stops reading text.
//!
//! Neither front end materializes a [`TaggedWord`] or [`NestedWord`];
//! feeding one straight into `query::run_stream` evaluates a document query
//! in one pass with memory proportional to the nesting depth. [`tokenize`]
//! and [`parse_document`] are the batch conveniences on top, running the
//! same scanner over `text.as_bytes()`.

use crate::scan::BulkLexer;
use nested_words::{Alphabet, NestedWord, NestedWordError, Symbol, TaggedSymbol, TaggedWord};
use std::io;

/// Errors of the byte-level SAX pipeline: everything that can go wrong
/// between raw bytes and tagged-symbol events.
///
/// Over an in-memory `&str` only [`SaxError::Syntax`] is reachable, so the
/// batch conveniences ([`tokenize`], [`parse_document`]) report plain
/// [`NestedWordError`]s; byte sources add the I/O and UTF-8 failure modes.
#[derive(Debug)]
pub enum SaxError {
    /// A lexical error in the XML-ish syntax (unterminated tag, empty tag
    /// name, full alphabet, …).
    Syntax(NestedWordError),
    /// The underlying reader failed.
    Io(io::Error),
    /// An invalid UTF-8 sequence (bad leading byte, bad continuation byte,
    /// overlong encoding, surrogate or out-of-range scalar) at the given
    /// byte offset.
    InvalidUtf8 {
        /// Byte offset of the first byte of the offending sequence.
        offset: usize,
    },
    /// The input ended in the middle of a multi-byte UTF-8 sequence.
    TruncatedUtf8 {
        /// Byte offset of the first byte of the truncated sequence.
        offset: usize,
    },
}

impl std::fmt::Display for SaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SaxError::Syntax(e) => write!(f, "{e}"),
            SaxError::Io(e) => write!(f, "read error: {e}"),
            SaxError::InvalidUtf8 { offset } => {
                write!(f, "invalid UTF-8 sequence at byte {offset}")
            }
            SaxError::TruncatedUtf8 { offset } => {
                write!(
                    f,
                    "input ends inside a multi-byte UTF-8 sequence starting at byte {offset}"
                )
            }
        }
    }
}

impl std::error::Error for SaxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SaxError::Syntax(e) => Some(e),
            SaxError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NestedWordError> for SaxError {
    fn from(e: NestedWordError) -> Self {
        SaxError::Syntax(e)
    }
}

impl SaxError {
    /// The syntax error inside, for sources where nothing else can fail (an
    /// in-memory `&str` is valid UTF-8 and reads without I/O); any other
    /// variant is mapped to a parse error rather than panicked on.
    pub(crate) fn into_syntax(self) -> NestedWordError {
        match self {
            SaxError::Syntax(e) => e,
            other => NestedWordError::Parse {
                offset: 0,
                message: other.to_string(),
            },
        }
    }
}

// --------------------------------------------------------------------------
// Name resolution and the two front ends
// --------------------------------------------------------------------------

/// How the lexer maps lexed names (tag names, text tokens) to
/// [`Symbol`]s.
///
/// Two alphabet policies exist:
///
/// * `&mut Alphabet` — **interning**: a name seen for the first time is
///   added to the alphabet ([`Alphabet::try_intern`]); this is what the
///   parsing front end ([`ByteTokenizer`], hence [`tokenize`]) uses, where
///   the alphabet is being *built* from the document.
/// * `&Alphabet` — **read-only lookup**: an unknown name is a typed
///   [`NestedWordError::UnknownSymbol`] and the alphabet is never mutated;
///   this is what [`FrozenByteTokenizer`] uses on the serving path, where
///   the alphabet is fixed by an already-compiled automaton and must not
///   drift (and must not be cloned per document just to protect it).
///
/// A policy may also carry a *projection* ([`Projection`]): text words it
/// marks inert are dropped by the lexer instead of emitted. Both alphabet
/// policies drop nothing.
pub trait ResolveName {
    /// Maps one lexed name to a symbol, or fails with a typed error.
    fn resolve(&mut self, name: &str) -> Result<Symbol, NestedWordError>;

    /// Maps one lexed text word to a symbol, or to `None` when the policy
    /// drops the word unresolved (a projection drops a word outside its
    /// alphabet: no artifact can read it). The default is
    /// [`resolve`](ResolveName::resolve), which never drops.
    fn resolve_text(&mut self, name: &str) -> Result<Option<Symbol>, NestedWordError> {
        self.resolve(name).map(Some)
    }

    /// Whether a text word resolving to `sym` is dropped rather than
    /// emitted. The default drops nothing.
    fn drops(&self, sym: Symbol) -> bool {
        let _ = sym;
        false
    }

    /// How the lexer starts out treating text words under this policy.
    /// The default, [`TextMode::EmitAll`], drops nothing.
    fn text_mode(&self) -> TextMode {
        TextMode::EmitAll
    }
}

/// What a [`ResolveName`] policy's projection does with text words; the
/// lexer runs one text path per mode.
///
/// A lexer starts in its policy's mode and may narrow once, to
/// [`DropAll`](TextMode::DropAll), never back:
/// `queries::run_streaming_reader` narrows it at the first slice boundary
/// where its run can no longer be moved by any text word
/// ([`StreamRun::reads_text`](automata_core::StreamRun::reads_text)), and
/// past drop-all to structure, where no name is resolved at all, once it
/// can no longer be moved by any name
/// ([`StreamRun::reads_names`](automata_core::StreamRun::reads_names)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextMode {
    /// Every text word is resolved and emitted: no projection.
    EmitAll,
    /// **Keep bit**: every text word is looked up, and those whose symbol
    /// [`ResolveName::drops`] marks are dropped, as are those outside the
    /// alphabet.
    KeepBit,
    /// **Drop-all**: no text word is resolved or emitted.
    DropAll,
}

impl ResolveName for &mut Alphabet {
    fn resolve(&mut self, name: &str) -> Result<Symbol, NestedWordError> {
        self.try_intern(name)
    }
}

impl ResolveName for &Alphabet {
    fn resolve(&mut self, name: &str) -> Result<Symbol, NestedWordError> {
        self.lookup(name)
            .ok_or_else(|| NestedWordError::UnknownSymbol {
                name: name.to_string(),
            })
    }
}

/// Read-only lookup (as `&Alphabet`) under an artifact's projection: a text
/// word whose symbol the artifact marks inert
/// ([`StreamAcceptor::inert_symbols`](automata_core::StreamAcceptor::inert_symbols))
/// is read, counted in [`BulkLexer::dropped`], and never emitted. Tags are
/// always emitted.
///
/// A text word outside the alphabet is inert under any projection: no
/// artifact can read a symbol it was not compiled with. The [`TextMode`]
/// follows from the inert bits:
///
/// * **drop-all** — the slice is non-empty, covers the whole alphabet, and
///   every alphabet symbol is inert: no text word is resolved at all;
/// * **keep bit** — any other non-empty slice: every text word is looked
///   up, and dropped if its symbol is inert or it has none (an unknown word
///   is dropped and counted, not an error, and costs no allocation);
/// * **emit-all** — an empty slice, no projection: the lexer runs exactly
///   as for `&Alphabet`, and an unknown text word fails with
///   [`NestedWordError::UnknownSymbol`].
///
/// Symbols past the slice's end are never inert. A lexer reading events
/// fails on an unknown tag in every mode. The unknown-tag rule of
/// [`for_each_slice`](crate::queries::for_each_slice) builds on that: an
/// unknown tag fails a scan iff it is read while the scan's consumer still
/// [reads names](automata_core::StreamRun::reads_names); once it does not,
/// the lexer reads tags by form alone and the tag decides like any
/// alphabet tag.
///
/// ```
/// use nested_words::{Alphabet, TaggedSymbol};
/// use nwa_xml::sax::Projection;
/// use nwa_xml::scan::BulkLexer;
///
/// let ab = Alphabet::from_names(["doc", "w"]);
/// let text = "<doc>w unseen</doc>";
/// let mut lexer = BulkLexer::new(text.as_bytes(), Projection::new(&ab, &[true, true]));
/// let mut events = Vec::new();
/// lexer.fill(&mut events, 16).unwrap();
/// let doc = ab.lookup("doc").unwrap();
/// assert_eq!(events, [TaggedSymbol::Call(doc), TaggedSymbol::Return(doc)]);
/// assert_eq!(lexer.dropped(), 2);
///
/// // Keep-bit: `w` is read, so it is kept; `unseen` is still dropped.
/// let mut lexer = BulkLexer::new(text.as_bytes(), Projection::new(&ab, &[true, false]));
/// let mut events = Vec::new();
/// lexer.fill(&mut events, 16).unwrap();
/// let w = TaggedSymbol::Internal(ab.lookup("w").unwrap());
/// assert_eq!(events, [TaggedSymbol::Call(doc), w, TaggedSymbol::Return(doc)]);
/// assert_eq!(lexer.dropped(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Projection<'a> {
    alphabet: &'a Alphabet,
    inert: &'a [bool],
    mode: TextMode,
}

impl<'a> Projection<'a> {
    /// Projects lookups in `alphabet` through `inert` (one bit per symbol,
    /// as [`StreamAcceptor::inert_symbols`](automata_core::StreamAcceptor::inert_symbols)
    /// returns it).
    pub fn new(alphabet: &'a Alphabet, inert: &'a [bool]) -> Self {
        let mode = if inert.is_empty() {
            TextMode::EmitAll
        } else if inert.len() >= alphabet.len() && inert[..alphabet.len()].iter().all(|&b| b) {
            TextMode::DropAll
        } else {
            TextMode::KeepBit
        };
        Projection {
            alphabet,
            inert,
            mode,
        }
    }
}

impl ResolveName for Projection<'_> {
    fn resolve(&mut self, name: &str) -> Result<Symbol, NestedWordError> {
        let mut lookup = self.alphabet;
        lookup.resolve(name)
    }

    fn resolve_text(&mut self, name: &str) -> Result<Option<Symbol>, NestedWordError> {
        match self.mode {
            TextMode::EmitAll => self.resolve(name).map(Some),
            _ => Ok(self.alphabet.lookup(name)),
        }
    }

    fn drops(&self, sym: Symbol) -> bool {
        self.inert.get(sym.index()).copied().unwrap_or(false)
    }

    fn text_mode(&self) -> TextMode {
        self.mode
    }
}

/// The byte-level SAX front end: an incremental lexer over any
/// [`io::BufRead`], yielding one [`TaggedSymbol`] event at a time — no
/// materialized document, memory proportional to the reader's buffer plus
/// the current token — and interning names into the borrowed alphabet as it
/// goes. A file or a socket goes in through a [`io::BufReader`], ideally
/// of [`scan::SCAN_CHUNK`](crate::scan::SCAN_CHUNK) bytes; an in-memory
/// `&[u8]` is read in place.
///
/// It is the bulk structural scanner ([`BulkLexer`]) with the interning
/// policy: each buffer the reader lends is lexed where it lies, UTF-8 is
/// validated wherever the structural pass cannot prove a block ASCII
/// (tokens and multi-byte sequences split across buffers are carried over
/// the seam), and tags, text runs, CDATA sections
/// and directives are classified with whole-run byte sweeps instead of
/// per-character dispatch. [`BulkLexer::fill`] lexes events in bulk for the
/// engines' slice stepping. Lexical rules:
///
/// * tag names end at the first whitespace character; anything after it
///   (attributes) is ignored, so `<sec a="1">` and `</sec>` produce the
///   *same* symbol, and a `>` inside a quoted attribute value does not end
///   the tag;
/// * an open tag whose last non-whitespace character is `/` is
///   self-closing;
/// * `<!…>` declarations/comments and `<?…?>` processing instructions are
///   skipped entirely; a `<!DOCTYPE …>` may carry a `[ … ]` internal subset
///   whose declarations contain `>`;
/// * `<![CDATA[ … ]]>` content is character data, lexed as ordinary text
///   tokens;
/// * `<tag/>` yields a call immediately followed by a return.
///
/// Invalid UTF-8, sequences truncated by EOF (or split across buffers and
/// never completed) and I/O failures surface as typed [`SaxError`]s;
/// after any error the iterator is fused.
///
/// ```
/// use nested_words::{Alphabet, TaggedSymbol};
/// use nwa_xml::sax::ByteTokenizer;
///
/// let mut ab = Alphabet::new();
/// let events: Result<Vec<_>, _> =
///     ByteTokenizer::new("<doc>héllo</doc>".as_bytes(), &mut ab).collect();
/// let events = events.unwrap();
/// assert_eq!(events.len(), 3);
/// assert_eq!(events[1], TaggedSymbol::Internal(ab.lookup("héllo").unwrap()));
/// ```
pub type ByteTokenizer<'a, R> = BulkLexer<R, &'a mut Alphabet>;

/// The serving-path byte-level front end: the same lexer as
/// [`ByteTokenizer`], but against a **read-only** alphabet.
///
/// Names are resolved by lookup only — a name that is not already interned
/// surfaces as [`NestedWordError::UnknownSymbol`] inside
/// [`SaxError::Syntax`], and the alphabet is never mutated. This is the
/// right front end when the alphabet is pinned by an already-compiled
/// automaton (e.g. `nwa-service`'s `submit_bytes`): every yielded symbol is
/// guaranteed to index inside the compiled tables, per-document cost stays
/// independent of alphabet size (no defensive clone), and the shared
/// alphabet cannot drift away from the artifact it was compiled with.
///
/// ```
/// use nested_words::{Alphabet, NestedWordError, TaggedSymbol};
/// use nwa_xml::sax::{FrozenByteTokenizer, SaxError};
///
/// let ab = Alphabet::from_names(["doc", "hi"]);
/// let events: Result<Vec<_>, _> =
///     FrozenByteTokenizer::new("<doc>hi</doc>".as_bytes(), &ab).collect();
/// assert_eq!(events.unwrap().len(), 3);
///
/// let err = FrozenByteTokenizer::new("<intruder/>".as_bytes(), &ab)
///     .next()
///     .unwrap()
///     .unwrap_err();
/// assert!(matches!(
///     err,
///     SaxError::Syntax(NestedWordError::UnknownSymbol { ref name }) if name == "intruder"
/// ));
/// ```
pub type FrozenByteTokenizer<'a, R> = BulkLexer<R, &'a Alphabet>;

// --------------------------------------------------------------------------
// Batch conveniences
// --------------------------------------------------------------------------

/// Parses a lightweight XML string into a stream of tagged symbols,
/// interning tag names and text tokens into `alphabet` — the bulk scanner
/// of [`ByteTokenizer`] over `text.as_bytes()`. An in-memory `&str` is
/// valid UTF-8 and cannot fail to read, so the only failures are
/// syntactic, reported as plain [`NestedWordError`]s.
pub fn tokenize(text: &str, alphabet: &mut Alphabet) -> Result<TaggedWord, NestedWordError> {
    ByteTokenizer::new(text.as_bytes(), alphabet)
        .collect::<Result<_, _>>()
        .map_err(SaxError::into_syntax)
}

/// Parses a lightweight XML string directly into a nested word.
pub fn parse_document(text: &str, alphabet: &mut Alphabet) -> Result<NestedWord, NestedWordError> {
    Ok(NestedWord::from_tagged(&tokenize(text, alphabet)?))
}

/// Serializes a nested word back into the lightweight XML syntax.
pub fn to_xml(word: &NestedWord, alphabet: &Alphabet) -> String {
    let mut out = String::new();
    for t in word.to_tagged() {
        let name = alphabet.name(t.symbol()).unwrap_or("?");
        match t {
            TaggedSymbol::Call(_) => {
                out.push('<');
                out.push_str(name);
                out.push('>');
            }
            TaggedSymbol::Return(_) => {
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
            TaggedSymbol::Internal(_) => {
                if !out.is_empty() && !out.ends_with('>') {
                    out.push(' ');
                }
                out.push_str(name);
            }
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nested_words::tree::is_tree_word;
    use std::io::BufReader;

    #[test]
    fn well_formed_document_roundtrip() {
        let mut ab = Alphabet::new();
        let doc = parse_document("<doc><sec>hello world</sec><sec/></doc>", &mut ab).unwrap();
        assert!(doc.is_rooted());
        assert!(doc.is_well_matched());
        assert_eq!(doc.depth(), 2);
        assert_eq!(
            to_xml(&doc, &ab),
            "<doc><sec>hello world</sec><sec/></doc>".replace("<sec/>", "<sec></sec>")
        );
    }

    #[test]
    fn text_only_document_is_flat() {
        let mut ab = Alphabet::new();
        let doc = parse_document("just some words", &mut ab).unwrap();
        assert_eq!(doc.len(), 3);
        assert_eq!(doc.depth(), 0);
        assert!(doc.is_well_matched());
    }

    #[test]
    fn unmatched_tags_become_pending_edges() {
        let mut ab = Alphabet::new();
        // a document fragment: close without open, open without close (§1's
        // "data that may not parse correctly")
        let doc = parse_document("</a> text <b>", &mut ab).unwrap();
        assert!(!doc.is_well_matched());
        assert!(doc.is_pending_return(0));
        assert!(doc.is_pending_call(2));
    }

    #[test]
    fn element_only_documents_are_tree_words() {
        let mut ab = Alphabet::new();
        let doc = parse_document("<a><b></b><b></b></a>", &mut ab).unwrap();
        assert!(is_tree_word(&doc));
    }

    #[test]
    fn unterminated_tag_is_an_error() {
        let mut ab = Alphabet::new();
        assert!(parse_document("<doc", &mut ab).is_err());
    }

    #[test]
    fn attributes_do_not_change_the_tag_symbol() {
        // Regression: the tag interior used to be interned whole, so
        // `<sec a="1">` and `</sec>` produced different symbols and the
        // element was invisible to tag queries.
        let mut ab = Alphabet::new();
        let events = tokenize(r#"<sec a="1" b='2'>x</sec>"#, &mut ab).unwrap();
        let sec = ab.lookup("sec").unwrap();
        let x = ab.lookup("x").unwrap();
        assert_eq!(
            events,
            vec![
                TaggedSymbol::Call(sec),
                TaggedSymbol::Internal(x),
                TaggedSymbol::Return(sec),
            ]
        );
        assert!(ab.lookup(r#"sec a="1" b='2'"#).is_none());
        let doc = NestedWord::from_tagged(&events);
        assert!(doc.is_rooted());
    }

    #[test]
    fn directives_are_skipped() {
        let mut ab = Alphabet::new();
        let doc = parse_document(
            "<?xml version=\"1.0\"?><!DOCTYPE doc><!-- note --><doc>t</doc>",
            &mut ab,
        )
        .unwrap();
        assert_eq!(doc.len(), 3);
        assert!(doc.is_rooted());
        assert!(ab.lookup("doc").is_some());
        assert!(ab.lookup("?xml").is_none());
    }

    #[test]
    fn hostile_comment_bodies_are_skipped_whole() {
        // An apostrophe must not open quote mode, and a bare '>' must not
        // terminate the comment early.
        let mut ab = Alphabet::new();
        let doc = parse_document("<!-- don't trip --><doc>t</doc>", &mut ab).unwrap();
        assert_eq!(doc.len(), 3);
        assert!(doc.is_rooted());

        let mut ab = Alphabet::new();
        let doc = parse_document("<!-- a>b --><doc>t</doc>", &mut ab).unwrap();
        assert_eq!(doc.len(), 3);
        assert!(ab.lookup("b").is_none());

        // A processing instruction may contain a bare '>'.
        let mut ab = Alphabet::new();
        let doc = parse_document("<?php 1 > 0 ?><doc>t</doc>", &mut ab).unwrap();
        assert_eq!(doc.len(), 3);

        // Unterminated directives are errors, not silent truncation.
        let mut ab = Alphabet::new();
        assert!(parse_document("<!-- never closed >", &mut ab).is_err());
        assert!(parse_document("<?xml version=\"1.0\" >", &mut ab).is_err());
    }

    #[test]
    fn cdata_content_is_text_not_markup() {
        // Regression: the directive scan used to stop at the first `>`, so
        // `<![CDATA[ a > b ]]>` ended after `a ` and re-lexed `b ]]>` (or
        // any markup inside the section) as text and tags.
        let mut ab = Alphabet::new();
        let events = tokenize("<doc><![CDATA[ a > b ]]></doc>", &mut ab).unwrap();
        let doc = ab.lookup("doc").unwrap();
        let a = ab.lookup("a").unwrap();
        let gt = ab.lookup(">").unwrap();
        let b = ab.lookup("b").unwrap();
        assert_eq!(
            events,
            vec![
                TaggedSymbol::Call(doc),
                TaggedSymbol::Internal(a),
                TaggedSymbol::Internal(gt),
                TaggedSymbol::Internal(b),
                TaggedSymbol::Return(doc),
            ]
        );
    }

    #[test]
    fn markup_and_entities_inside_cdata_are_character_data() {
        // `<tag>` inside CDATA must not open an element, and `&` is a plain
        // character (no entity processing).
        let mut ab = Alphabet::new();
        let doc = parse_document("<doc><![CDATA[<tag> & x]]></doc>", &mut ab).unwrap();
        assert!(doc.is_rooted());
        assert_eq!(doc.depth(), 1);
        assert!(ab.lookup("<tag>").is_some());
        assert!(ab.lookup("&").is_some());
        assert!(ab.lookup("x").is_some());
        // no element named `tag` was ever opened
        assert!(ab.lookup("tag").is_none());

        // a lone `]` before the real terminator stays in the content
        let mut ab = Alphabet::new();
        let events = tokenize("<![CDATA[a]]]>", &mut ab).unwrap();
        assert_eq!(
            events,
            vec![TaggedSymbol::Internal(ab.lookup("a]").unwrap())]
        );

        // an empty section produces no events at all
        let mut ab = Alphabet::new();
        assert_eq!(tokenize("<![CDATA[]]><r/>", &mut ab).unwrap().len(), 2);

        // unterminated sections are errors, not silent truncation
        let mut ab = Alphabet::new();
        assert!(tokenize("<![CDATA[ x ]] >", &mut ab).is_err());
    }

    #[test]
    fn doctype_internal_subset_is_skipped_whole() {
        // Regression: the `>` of the inner `<!ENTITY …>` declaration used to
        // terminate the DOCTYPE, leaving ` ]>` to be lexed as text.
        let mut ab = Alphabet::new();
        let doc = parse_document(
            r#"<!DOCTYPE doc [ <!ENTITY x "y"> <!ENTITY z "w"> ]><doc>t</doc>"#,
            &mut ab,
        )
        .unwrap();
        assert_eq!(doc.len(), 3);
        assert!(doc.is_rooted());
        assert!(ab.lookup("]>").is_none());
        assert!(ab.lookup("]").is_none());

        // a DTD conditional section (`<![IGNORE[ … ]]>`) is skipped too
        let mut ab = Alphabet::new();
        let doc = parse_document("<!DOCTYPE d [<![IGNORE[ <x> ]]>]><doc>t</doc>", &mut ab);
        let doc = doc.unwrap();
        assert_eq!(doc.len(), 3);
        assert!(ab.lookup("x").is_none());
    }

    #[test]
    fn tag_whitespace_variants_intern_identical_symbols() {
        // All spellings of an element with trailing whitespace or a
        // self-closing slash must produce one and the same symbol, whichever
        // branch of the tag classifier handles them.
        let mut ab = Alphabet::new();
        let events = tokenize("<tag ></tag ><tag/><tag />", &mut ab).unwrap();
        let tag = ab.lookup("tag").unwrap();
        assert_eq!(
            events,
            vec![
                TaggedSymbol::Call(tag),
                TaggedSymbol::Return(tag),
                TaggedSymbol::Call(tag),
                TaggedSymbol::Return(tag),
                TaggedSymbol::Call(tag),
                TaggedSymbol::Return(tag),
            ]
        );
        assert_eq!(ab.len(), 1);
    }

    #[test]
    fn quoted_gt_does_not_terminate_the_tag() {
        let mut ab = Alphabet::new();
        let events = tokenize(r#"<sec title="a>b">t</sec>"#, &mut ab).unwrap();
        let sec = ab.lookup("sec").unwrap();
        assert_eq!(events[0], TaggedSymbol::Call(sec));
        assert_eq!(events[2], TaggedSymbol::Return(sec));
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn self_closing_tag_with_attributes() {
        let mut ab = Alphabet::new();
        let events = tokenize(r#"<img src="i.png"/>"#, &mut ab).unwrap();
        let img = ab.lookup("img").unwrap();
        assert_eq!(
            events,
            vec![TaggedSymbol::Call(img), TaggedSymbol::Return(img)]
        );
    }

    #[test]
    fn empty_tag_name_is_an_error() {
        let mut ab = Alphabet::new();
        assert!(tokenize("<>", &mut ab).is_err());
        assert!(tokenize("</ >", &mut ab).is_err());
    }

    #[test]
    fn tokenizer_is_incremental_and_fused() {
        let mut batch_ab = Alphabet::new();
        let text = r#"<doc><sec n="1">hello world</sec><sec/></doc>"#;
        let batch = tokenize(text, &mut batch_ab).unwrap();

        // One event at a time, from the byte-level iterator.
        let mut ab = Alphabet::new();
        let tok = ByteTokenizer::new(text.as_bytes(), &mut ab);
        let mut streamed = Vec::new();
        for item in tok {
            streamed.push(item.unwrap());
        }
        assert_eq!(streamed, batch);
        assert_eq!(ab, batch_ab);

        // After an error the iterator is fused.
        let mut ab2 = Alphabet::new();
        let mut bad = ByteTokenizer::new("<doc".as_bytes(), &mut ab2);
        assert!(bad.next().unwrap().is_err());
        assert!(bad.next().is_none());
    }

    // ----------------------------------------------------------------------
    // Byte-level tokenization
    // ----------------------------------------------------------------------

    /// A reader that hands out at most `chunk` bytes per `read` call —
    /// adversarial for multi-byte sequences spanning call boundaries.
    pub(crate) struct SplitReader<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl<'a> SplitReader<'a> {
        pub(crate) fn new(data: &'a [u8], chunk: usize) -> Self {
            SplitReader {
                data,
                pos: 0,
                chunk,
            }
        }
    }

    impl io::Read for SplitReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn chunked_reads_agree_with_whole_text() {
        // The whole text at once (what `tokenize` reads) against every
        // small read granularity; the char-level oracle itself lives in
        // `tests/sax_scan.rs`.
        let text = "<doc αβ='γ'><sec>héllo wörld — ≤∅≥</sec><näme/></doc>";
        let mut whole_ab = Alphabet::new();
        let whole = tokenize(text, &mut whole_ab).unwrap();
        // Whatever the read granularity — including mid-multi-byte splits —
        // the chunked reads produce the identical event stream and alphabet.
        for chunk in 1..=7 {
            let mut chunked_ab = Alphabet::new();
            let chunked: Vec<_> = ByteTokenizer::new(
                BufReader::with_capacity(chunk, SplitReader::new(text.as_bytes(), chunk)),
                &mut chunked_ab,
            )
            .collect::<Result<_, _>>()
            .unwrap();
            assert_eq!(chunked, whole, "chunk size {chunk}");
            assert_eq!(chunked_ab, whole_ab, "chunk size {chunk}");
        }
    }

    #[test]
    fn invalid_utf8_is_a_typed_error_not_a_panic() {
        // A bare continuation byte, an invalid leading byte, and a bad
        // second byte — each must yield InvalidUtf8 at the right offset,
        // under every read granularity.
        let cases: &[(&[u8], usize)] = &[
            (b"<doc>\x80</doc>", 5),         // bare continuation byte
            (b"<doc>\xFF</doc>", 5),         // invalid leading byte
            (b"<doc>\xC3\x28</doc>", 5),     // bad continuation
            (b"<doc>\xC0\xAF</doc>", 5),     // overlong '/'
            (b"<doc>\xE0\x80\xAF</doc>", 5), // overlong 3-byte
            (b"<doc>\xED\xA0\x80</doc>", 5), // surrogate half
            (b"<doc>\xF4\x90\x80\x80x", 5),  // scalar above U+10FFFF
        ];
        for &(data, want_offset) in cases {
            for chunk in 1..=4 {
                let mut ab = Alphabet::new();
                let mut tok = ByteTokenizer::new(
                    BufReader::with_capacity(chunk, SplitReader::new(data, chunk)),
                    &mut ab,
                );
                // first event: the <doc> call
                assert!(tok.next().unwrap().is_ok());
                let err = loop {
                    match tok.next().expect("error must surface") {
                        Ok(_) => continue,
                        Err(e) => break e,
                    }
                };
                match err {
                    SaxError::InvalidUtf8 { offset } => {
                        assert_eq!(offset, want_offset, "input {data:?}, chunk {chunk}")
                    }
                    other => panic!("input {data:?}: expected InvalidUtf8, got {other:?}"),
                }
                // fused after the error
                assert!(tok.next().is_none());
            }
        }
    }

    #[test]
    fn truncated_multibyte_at_eof_is_a_typed_error() {
        // The stream ends inside a 3-byte sequence; whichever read boundary
        // the split lands on, the error is TruncatedUtf8, never a panic and
        // never a silently dropped character.
        let data: &[u8] = b"<doc>\xE2\x89"; // first two bytes of '≤'
        for chunk in 1..=4 {
            let mut ab = Alphabet::new();
            let mut tok = ByteTokenizer::new(
                BufReader::with_capacity(chunk, SplitReader::new(data, chunk)),
                &mut ab,
            );
            assert!(tok.next().unwrap().is_ok());
            let err = tok.next().expect("error must surface").unwrap_err();
            assert!(
                matches!(err, SaxError::TruncatedUtf8 { offset: 5 }),
                "chunk {chunk}: got {err:?}"
            );
            assert!(tok.next().is_none());
        }
    }

    #[test]
    fn io_errors_surface_as_typed_errors() {
        struct FailingReader(usize);
        impl io::Read for FailingReader {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::new(io::ErrorKind::ConnectionReset, "boom"));
                }
                self.0 -= 1;
                buf[0] = b'x';
                Ok(1)
            }
        }
        let mut ab = Alphabet::new();
        let mut tok = ByteTokenizer::new(BufReader::with_capacity(1, FailingReader(3)), &mut ab);
        let err = tok.next().expect("error must surface").unwrap_err();
        assert!(matches!(err, SaxError::Io(_)), "got {err:?}");
        assert!(tok.next().is_none());
    }

    #[test]
    fn interrupted_reads_are_retried() {
        struct InterruptingReader {
            data: &'static [u8],
            pos: usize,
            interrupt_next: bool,
        }
        impl io::Read for InterruptingReader {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.interrupt_next {
                    self.interrupt_next = false;
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
                }
                self.interrupt_next = true;
                if self.pos == self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut ab = Alphabet::new();
        let events: Result<Vec<_>, _> = ByteTokenizer::new(
            BufReader::with_capacity(
                1,
                InterruptingReader {
                    data: b"<a>x</a>",
                    pos: 0,
                    interrupt_next: true,
                },
            ),
            &mut ab,
        )
        .collect();
        assert_eq!(events.unwrap().len(), 3);
    }

    #[test]
    fn frozen_tokenizer_matches_interning_on_known_alphabets() {
        // Build the alphabet once with the interning front end, then lex the
        // same document (at every read granularity) with the frozen one: the
        // event streams must be identical and the alphabet untouched.
        let text = "<doc><sec n=\"1\">héllo wörld</sec><sec/><![CDATA[x > y]]></doc>";
        let mut ab = Alphabet::new();
        let interned: Vec<_> = ByteTokenizer::new(text.as_bytes(), &mut ab)
            .collect::<Result<_, _>>()
            .unwrap();
        let before = ab.clone();
        for chunk in 1..=5 {
            let frozen: Vec<_> = FrozenByteTokenizer::new(
                BufReader::with_capacity(chunk, SplitReader::new(text.as_bytes(), chunk)),
                &ab,
            )
            .collect::<Result<_, _>>()
            .unwrap();
            assert_eq!(frozen, interned, "chunk size {chunk}");
        }
        assert_eq!(ab, before);
    }

    #[test]
    fn frozen_tokenizer_rejects_unknown_names_everywhere() {
        let ab = {
            let mut ab = Alphabet::new();
            tokenize("<doc>t</doc>", &mut ab).unwrap();
            ab
        };
        // Unknown tag, unknown text token, unknown CDATA token: each is a
        // typed UnknownSymbol, the iterator fuses, and nothing past the
        // error is yielded.
        for (input, unknown) in [
            ("<doc><bad>t</bad></doc>", "bad"),
            ("<doc>mystery</doc>", "mystery"),
            ("<doc><![CDATA[mystery]]></doc>", "mystery"),
        ] {
            let mut tok = FrozenByteTokenizer::new(input.as_bytes(), &ab);
            assert!(tok.next().unwrap().is_ok(), "input {input}: <doc> call");
            let err = tok.next().unwrap().unwrap_err();
            assert!(
                matches!(
                    err,
                    SaxError::Syntax(NestedWordError::UnknownSymbol { ref name }) if name == unknown
                ),
                "input {input}: got {err:?}"
            );
            assert!(tok.next().is_none(), "input {input}: fused after error");
        }
        assert_eq!(ab.len(), 2);
    }

    #[test]
    fn sax_error_display_and_source() {
        let e = SaxError::InvalidUtf8 { offset: 12 };
        assert!(e.to_string().contains("byte 12"));
        let e = SaxError::TruncatedUtf8 { offset: 3 };
        assert!(e.to_string().contains("byte 3"));
        let e = SaxError::from(NestedWordError::NotWellMatched);
        assert!(std::error::Error::source(&e).is_some());
        let e = SaxError::Io(io::Error::other("x"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
