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
//! There is one lexer: the bulk structural scanner of [`crate::scan`],
//! building events through `LexerCore` (the [`ResolveName`] policy, the
//! queued-event buffer, and the tag/CDATA classification rules). Two front
//! ends expose it:
//!
//! * [`ByteTokenizer`] — one SAX event at a time from any [`std::io::Read`],
//!   swept chunk-at-a-time (UTF-8 validated per chunk, multi-byte sequences
//!   split across `read` calls carried over the seam, invalid or truncated
//!   sequences surfacing as typed [`SaxError`]s) without ever materializing
//!   the document — the bytes-in → events-out pipeline of §1;
//! * [`FrozenByteTokenizer`] — the same byte-level source against a
//!   *read-only* alphabet ([`ResolveName`] chooses between the two
//!   policies): names are looked up instead of interned, an unknown name is
//!   a typed [`NestedWordError::UnknownSymbol`], and the alphabet is never
//!   copied or mutated — the serving-path front end, where the alphabet
//!   must stay aligned with a compiled artifact.
//!
//! Neither front end materializes a [`TaggedWord`] or [`NestedWord`];
//! feeding one straight into `query::run_stream` evaluates a document query
//! in one pass with memory proportional to the nesting depth. [`tokenize`]
//! and [`parse_document`] are the batch conveniences on top, running the
//! same scanner over `text.as_bytes()`.

use nested_words::{Alphabet, NestedWord, NestedWordError, Symbol, TaggedSymbol, TaggedWord};
use std::collections::VecDeque;
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
// The event builder
// --------------------------------------------------------------------------

/// How the lexing engine maps lexed names (tag names, text tokens) to
/// [`Symbol`]s.
///
/// Two policies exist:
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
pub trait ResolveName {
    /// Maps one lexed name to a symbol, or fails with a typed error.
    fn resolve(&mut self, name: &str) -> Result<Symbol, NestedWordError>;
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

/// The name-to-event builder of the [`scan`](crate::scan) lexer: it owns
/// the [`ResolveName`] policy, the queue of already-lexed events (the
/// return of a self-closing tag, the text tokens of a CDATA section) and
/// the post-error fuse, plus the two classification steps — turning a tag
/// body into its event and splitting CDATA content into text tokens.
#[derive(Debug)]
pub(crate) struct LexerCore<N: ResolveName> {
    pub(crate) names: N,
    /// Queued events: the return of a self-closing tag, or the text tokens
    /// of a CDATA section.
    pub(crate) queued: VecDeque<TaggedSymbol>,
    /// Set after yielding an error; the iterator is fused.
    pub(crate) failed: bool,
    /// Direct-mapped memo of recent name resolutions (see
    /// [`LexerCore::resolve_bytes`]).
    cache: Box<[NameCacheEntry; NAME_CACHE_SLOTS]>,
}

/// One slot of the name-resolution memo: the name's bytes zero-padded into
/// two words plus its length — an *exact* key (equal key ⇔ equal bytes), so
/// a hit needs no hashing, no string compare and no allocation — and the
/// resolved symbol in all three event forms, indexed in place by
/// [`FORM_INTERNAL`] / [`FORM_CALL`] / [`FORM_RETURN`]. `len` is
/// `EMPTY_SLOT` for never-filled slots; names longer than 16 bytes are not
/// cached (they fall through to the policy every time).
#[derive(Debug, Clone, Copy)]
struct NameCacheEntry {
    w0: u64,
    w1: u64,
    len: u32,
    forms: [TaggedSymbol; 3],
}

/// Index of the text-word form in a name-cache slot.
pub(crate) const FORM_INTERNAL: usize = 0;
/// Index of the open-tag form in a name-cache slot.
pub(crate) const FORM_CALL: usize = 1;
/// Index of the close-tag form in a name-cache slot.
pub(crate) const FORM_RETURN: usize = 2;

/// A symbol's three event forms, in `FORM_*` order.
pub(crate) fn forms(sym: Symbol) -> [TaggedSymbol; 3] {
    [
        TaggedSymbol::Internal(sym),
        TaggedSymbol::Call(sym),
        TaggedSymbol::Return(sym),
    ]
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Slots in the name memo. Documents draw their names from a small, heavily
/// repeated set (element vocabularies, recurring words), so even a small
/// direct-mapped table converges to all-hits; 256 slots × 32 bytes keep it
/// L1-resident.
const NAME_CACHE_SLOTS: usize = 256;

/// Is this byte one of the six ASCII characters `char::is_whitespace`
/// accepts (TAB, LF, VT, FF, CR, space)?
#[inline(always)]
pub(crate) fn is_ascii_whitespace_byte(b: u8) -> bool {
    b == b' ' || (0x09..=0x0D).contains(&b)
}

/// Marker: a non-ASCII byte decided an ASCII-only classification attempt.
pub(crate) struct NonAscii;

/// `split_whitespace().next()` on bytes, ASCII-only: skips leading ASCII
/// whitespace, takes bytes up to the next ASCII whitespace (or the end).
/// A non-ASCII byte in either role — it could be Unicode whitespace or a
/// multi-byte name character — aborts with [`NonAscii`] so the caller can
/// fall back to char-level classification. `Ok(None)` means only
/// whitespace was found.
#[inline]
pub(crate) fn ascii_first_token(bytes: &[u8]) -> Result<Option<&[u8]>, NonAscii> {
    let mut i = 0;
    while i < bytes.len() && is_ascii_whitespace_byte(bytes[i]) {
        i += 1;
    }
    if i == bytes.len() {
        return Ok(None);
    }
    if bytes[i] >= 0x80 {
        return Err(NonAscii);
    }
    let start = i;
    while i < bytes.len() {
        let b = bytes[i];
        if is_ascii_whitespace_byte(b) {
            return Ok(Some(&bytes[start..i]));
        }
        if b >= 0x80 {
            return Err(NonAscii);
        }
        i += 1;
    }
    Ok(Some(&bytes[start..]))
}

/// Packs up to 16 name bytes into two little-endian words, zero-padded.
/// Built with shift-or rather than a copy into a padded buffer: names are
/// typically 2–10 bytes, where a dynamic-length `memcpy` call would cost
/// more than the whole cache probe.
#[inline(always)]
pub(crate) fn pack_name(bytes: &[u8]) -> (u64, u64) {
    let mut w0 = 0u64;
    let mut w1 = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        if i < 8 {
            w0 |= u64::from(b) << (8 * i);
        } else {
            w1 |= u64::from(b) << (8 * (i - 8));
        }
    }
    (w0, w1)
}

/// The cache slot of an exact name key. Any mix is fine — a slot collision
/// costs a policy call, not a wrong answer (the key compare is exact).
#[inline(always)]
fn slot_of(w0: u64, w1: u64, len: u32) -> usize {
    let mix = (w0 ^ w1.rotate_left(29) ^ u64::from(len)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mix >> 56) as usize & (NAME_CACHE_SLOTS - 1)
}

/// The policy call itself, kept out of the inlined probe: per distinct
/// short name it runs once, while the probe runs per event.
#[cold]
fn resolve_with<N: ResolveName>(names: &mut N, name: &[u8]) -> Result<Symbol, SaxError> {
    let name = std::str::from_utf8(name).expect("lexed names are valid UTF-8");
    Ok(names.resolve(name)?)
}

impl<N: ResolveName> LexerCore<N> {
    pub(crate) fn new(names: N) -> Self {
        LexerCore {
            names,
            queued: VecDeque::new(),
            failed: false,
            cache: Box::new(
                [NameCacheEntry {
                    w0: 0,
                    w1: 0,
                    len: EMPTY_SLOT,
                    forms: forms(Symbol(0)),
                }; NAME_CACHE_SLOTS],
            ),
        }
    }

    /// Maps one lexed name to a symbol through the policy. Equivalent to
    /// [`LexerCore::resolve_bytes`] (which it wraps), for callers holding a
    /// `&str`.
    pub(crate) fn resolve(&mut self, name: &str) -> Result<Symbol, SaxError> {
        self.resolve_bytes(name.as_bytes())
    }

    /// Maps one lexed name (guaranteed-valid UTF-8 bytes — a slice of a
    /// validated window or of a `&str`) to a symbol through the policy,
    /// memoized in a direct-mapped cache: resolution is the per-event step
    /// the scanner cannot batch, and the policy's `HashMap` lookup
    /// (SipHash, probe, `str` re-validation) would otherwise dominate the
    /// whole tokenizer on short names. Both policies are idempotent per name —
    /// interning returns the same symbol it first assigned, frozen lookup
    /// never changes — so a cached hit is exactly the policy's answer.
    /// Failures (unknown name, alphabet full) are not cached and always
    /// re-consult the policy.
    #[inline]
    pub(crate) fn resolve_bytes(&mut self, name: &[u8]) -> Result<Symbol, SaxError> {
        if name.len() > 16 {
            return resolve_with(&mut self.names, name);
        }
        let (w0, w1) = pack_name(name);
        let len = name.len() as u32;
        if let Some(t) = self.cached_form(w0, w1, len, FORM_INTERNAL) {
            return Ok(t.symbol());
        }
        let sym = resolve_with(&mut self.names, name)?;
        self.cache[slot_of(w0, w1, len)] = NameCacheEntry {
            w0,
            w1,
            len,
            forms: forms(sym),
        };
        Ok(sym)
    }

    /// The cache probe alone: the event form `form` (`FORM_*`) of the name
    /// with exact key `(w0, w1, len)` — the value [`pack_name`] produces,
    /// which the scanner's stage 2 builds from two masked word loads of its
    /// window — read in place from its slot, or `None` on a miss.
    #[inline(always)]
    pub(crate) fn cached_form(
        &self,
        w0: u64,
        w1: u64,
        len: u32,
        form: usize,
    ) -> Option<TaggedSymbol> {
        let slot = &self.cache[slot_of(w0, w1, len)];
        (slot.w0 == w0 && slot.w1 == w1 && slot.len == len).then(|| slot.forms[form])
    }

    /// Classifies one tag body (the characters between `<` and `>`) into
    /// its SAX event, queueing the return of a self-closing tag:
    ///
    /// * a leading `/` is a close tag — the name is the first
    ///   whitespace-separated token of the rest (attributes ignored);
    /// * otherwise the body is trimmed, a trailing `/` marks the tag
    ///   self-closing, and the name is again the first token — so
    ///   `<sec a="1">` and `</sec>` produce the *same* symbol;
    /// * a body with no name at all is the typed `empty tag name` error at
    ///   the tag's opening offset.
    pub(crate) fn tag_event(
        &mut self,
        body: &str,
        tag_start: usize,
    ) -> Result<TaggedSymbol, SaxError> {
        let empty_name = || {
            SaxError::Syntax(NestedWordError::Parse {
                offset: tag_start,
                message: "empty tag name".into(),
            })
        };
        if let Some(rest) = body.strip_prefix('/') {
            let name = rest.split_whitespace().next().ok_or_else(empty_name)?;
            let sym = self.resolve(name)?;
            return Ok(TaggedSymbol::Return(sym));
        }
        // Both branches read the same trimmed body. (The untrimmed view the
        // non-self-closing branch previously took was harmless — the name is
        // extracted with split_whitespace — but equal inputs by construction
        // beat equal-by-coincidence.)
        let trimmed = body.trim_end();
        let (inner, self_closing) = match trimmed.strip_suffix('/') {
            Some(inner) => (inner, true),
            None => (trimmed, false),
        };
        let name = inner.split_whitespace().next().ok_or_else(empty_name)?;
        let sym = self.resolve(name)?;
        if self_closing {
            self.queued.push_back(TaggedSymbol::Return(sym));
        }
        Ok(TaggedSymbol::Call(sym))
    }

    /// [`LexerCore::tag_event`] from validated window bytes: the all-ASCII
    /// classification steps (leading `/`, trailing-whitespace trim, first
    /// whitespace-separated token) run byte-level; any non-ASCII byte in a
    /// deciding position (inside the name, or in the trailing run that the
    /// trim must judge) falls back to the char-level classifier, which is
    /// the semantics. Same result for the same bytes, by construction for
    /// the fallback and because ASCII classification agrees with Unicode
    /// classification wherever only ASCII is inspected.
    pub(crate) fn tag_event_bytes(
        &mut self,
        body: &[u8],
        tag_start: usize,
    ) -> Result<TaggedSymbol, SaxError> {
        let fallback = |core: &mut Self| {
            let body = std::str::from_utf8(body).expect("the window holds validated UTF-8");
            core.tag_event(body, tag_start)
        };
        let empty_name = || {
            SaxError::Syntax(NestedWordError::Parse {
                offset: tag_start,
                message: "empty tag name".into(),
            })
        };
        if body.first() == Some(&b'/') {
            return match ascii_first_token(&body[1..]) {
                Err(NonAscii) => fallback(self),
                Ok(None) => Err(empty_name()),
                Ok(Some(name)) => Ok(TaggedSymbol::Return(self.resolve_bytes(name)?)),
            };
        }
        // trim_end: drop trailing ASCII whitespace; a non-ASCII byte at the
        // trimmed end could itself be Unicode whitespace — let chars decide.
        let mut end = body.len();
        while end > 0 && is_ascii_whitespace_byte(body[end - 1]) {
            end -= 1;
        }
        if end > 0 && body[end - 1] >= 0x80 {
            return fallback(self);
        }
        let (inner, self_closing) = match body[..end].split_last() {
            Some((b'/', inner)) => (inner, true),
            _ => (&body[..end], false),
        };
        match ascii_first_token(inner) {
            Err(NonAscii) => fallback(self),
            Ok(None) => Err(empty_name()),
            Ok(Some(name)) => {
                let sym = self.resolve_bytes(name)?;
                if self_closing {
                    self.queued.push_back(TaggedSymbol::Return(sym));
                }
                Ok(TaggedSymbol::Call(sym))
            }
        }
    }

    /// Splits CDATA content into whitespace-separated text tokens and
    /// queues them — resolving every token before queuing any, so an
    /// alphabet-full or unknown-symbol error surfaces without half the
    /// section already emitted.
    pub(crate) fn cdata_tokens(&mut self, content: &str) -> Result<(), SaxError> {
        let mut events = Vec::new();
        for token in content.split_whitespace() {
            events.push(TaggedSymbol::Internal(self.resolve(token)?));
        }
        self.queued.extend(events);
        Ok(())
    }
}

// --------------------------------------------------------------------------
// The two public front ends
// --------------------------------------------------------------------------

/// The byte-level SAX front end: an incremental lexer over any
/// [`io::Read`], yielding one [`TaggedSymbol`] event at a time — no
/// materialized document, memory proportional to the scan window plus the
/// current token — and interning names into the borrowed alphabet as it
/// goes.
///
/// It runs on the bulk structural scanner ([`crate::scan`]): bytes are
/// pulled in [`scan::SCAN_CHUNK`](crate::scan::SCAN_CHUNK)-sized chunks,
/// UTF-8 is validated a chunk at a time (multi-byte sequences split across
/// `read` calls are carried over the seam), and tags, text runs, CDATA
/// sections and directives are classified with whole-run byte sweeps
/// instead of per-character dispatch. Lexical rules:
///
/// * tag names end at the first whitespace character; anything after it
///   (attributes) is ignored, so `<sec a="1">` and `</sec>` produce the
///   *same* symbol, and a `>` inside a quoted attribute value does not end
///   the tag;
/// * `<!…>` declarations/comments and `<?…?>` processing instructions are
///   skipped entirely; a `<!DOCTYPE …>` may carry a `[ … ]` internal subset
///   whose declarations contain `>`;
/// * `<![CDATA[ … ]]>` content is character data, lexed as ordinary text
///   tokens;
/// * `<tag/>` yields a call immediately followed by a return.
///
/// Invalid UTF-8, sequences truncated by EOF (or split across `read` calls
/// and never completed) and I/O failures surface as typed [`SaxError`]s;
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
#[derive(Debug)]
pub struct ByteTokenizer<'a, R: io::Read> {
    inner: crate::scan::BulkLexer<R, &'a mut Alphabet>,
}

impl<'a, R: io::Read> ByteTokenizer<'a, R> {
    /// Creates a tokenizer over a byte stream, interning symbol names into
    /// `alphabet`.
    pub fn new(reader: R, alphabet: &'a mut Alphabet) -> Self {
        ByteTokenizer {
            inner: crate::scan::BulkLexer::new(reader, alphabet),
        }
    }

    /// Lexes events in bulk into `out` until roughly `max` are buffered or
    /// the stream ends — the slice-producing entry the bytes-in →
    /// verdict-out pipeline feeds to the engines' bulk stepping. Events
    /// lexed before an error stay in `out` (in emission order) when `Err`
    /// is returned; every later call appends nothing.
    pub fn fill(&mut self, out: &mut Vec<TaggedSymbol>, max: usize) -> Result<(), SaxError> {
        self.inner.fill(out, max)
    }
}

impl<R: io::Read> Iterator for ByteTokenizer<'_, R> {
    type Item = Result<TaggedSymbol, SaxError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

/// The serving-path byte-level front end: identical lexing to
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
#[derive(Debug)]
pub struct FrozenByteTokenizer<'a, R: io::Read> {
    inner: crate::scan::BulkLexer<R, &'a Alphabet>,
}

impl<'a, R: io::Read> FrozenByteTokenizer<'a, R> {
    /// Creates a tokenizer over a byte stream, resolving symbol names by
    /// read-only lookup in `alphabet`.
    pub fn new(reader: R, alphabet: &'a Alphabet) -> Self {
        FrozenByteTokenizer {
            inner: crate::scan::BulkLexer::new(reader, alphabet),
        }
    }

    /// Lexes events in bulk into `out` until roughly `max` are buffered or
    /// the stream ends; see [`ByteTokenizer::fill`].
    pub fn fill(&mut self, out: &mut Vec<TaggedSymbol>, max: usize) -> Result<(), SaxError> {
        self.inner.fill(out, max)
    }
}

impl<R: io::Read> Iterator for FrozenByteTokenizer<'_, R> {
    type Item = Result<TaggedSymbol, SaxError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

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
mod tests {
    use super::*;
    use nested_words::tree::is_tree_word;

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
        // lex_tag branch handles them.
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
    struct SplitReader<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl<'a> SplitReader<'a> {
        fn new(data: &'a [u8], chunk: usize) -> Self {
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
    fn byte_tokenizer_agrees_with_char_tokenizer() {
        // The whole text at once (what `tokenize` reads) against every
        // small read granularity; the char-level oracle itself lives in
        // `tests/sax_scan.rs`.
        let text = "<doc αβ='γ'><sec>héllo wörld — ≤∅≥</sec><näme/></doc>";
        let mut char_ab = Alphabet::new();
        let chars = tokenize(text, &mut char_ab).unwrap();
        // Whatever the read granularity — including mid-multi-byte splits —
        // the byte path produces the identical event stream and alphabet.
        for chunk in 1..=7 {
            let mut byte_ab = Alphabet::new();
            let bytes: Vec<_> =
                ByteTokenizer::new(SplitReader::new(text.as_bytes(), chunk), &mut byte_ab)
                    .collect::<Result<_, _>>()
                    .unwrap();
            assert_eq!(bytes, chars, "chunk size {chunk}");
            assert_eq!(byte_ab, char_ab, "chunk size {chunk}");
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
                let mut tok = ByteTokenizer::new(SplitReader::new(data, chunk), &mut ab);
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
            let mut tok = ByteTokenizer::new(SplitReader::new(data, chunk), &mut ab);
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
        let mut tok = ByteTokenizer::new(FailingReader(3), &mut ab);
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
            InterruptingReader {
                data: b"<a>x</a>",
                pos: 0,
                interrupt_next: true,
            },
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
            let frozen: Vec<_> =
                FrozenByteTokenizer::new(SplitReader::new(text.as_bytes(), chunk), &ab)
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
