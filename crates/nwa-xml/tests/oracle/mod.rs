//! The char-at-a-time reference lexer: the differential oracle the bulk
//! scanner is held against in `sax_scan.rs`.
//!
//! It decodes one scalar at a time ([`Utf8Chars`], a WHATWG-table decoder
//! written independently of `std::str::from_utf8`) and lexes through a
//! peekable char source ([`EventLexer`]) with every classification rule
//! spelled out over `char`s — no window, no sweeps, no name cache. What it
//! yields is the specification: token for token, and error for error
//! (variant, byte offset and message).

use std::collections::VecDeque;
use std::io::{self, Read};

use nested_words::{Alphabet, NestedWordError, TaggedSymbol};
use nwa_xml::sax::SaxError;

// --------------------------------------------------------------------------
// Incremental UTF-8 decoding over io::Read
// --------------------------------------------------------------------------

/// An iterator of `Result<char, SaxError>` decoding UTF-8 incrementally
/// from any [`io::Read`], one scalar at a time, so a multi-byte sequence
/// split across `read` calls is reassembled transparently. Overlong
/// encodings, surrogates and scalars above `U+10FFFF` are
/// [`SaxError::InvalidUtf8`]; EOF inside a sequence is
/// [`SaxError::TruncatedUtf8`]. After any error the iterator is fused.
pub struct Utf8Chars<R: io::Read> {
    bytes: io::Bytes<io::BufReader<R>>,
    /// Absolute byte offset of the next unread byte.
    offset: usize,
    failed: bool,
}

impl<R: io::Read> Utf8Chars<R> {
    pub fn new(reader: R) -> Self {
        Utf8Chars {
            bytes: io::BufReader::new(reader).bytes(),
            offset: 0,
            failed: false,
        }
    }

    /// Pulls one byte (`io::Bytes` retries interrupted reads). `Ok(None)`
    /// is EOF.
    fn next_byte(&mut self) -> Result<Option<u8>, SaxError> {
        let b = self.bytes.next().transpose().map_err(SaxError::Io)?;
        self.offset += usize::from(b.is_some());
        Ok(b)
    }

    fn decode_next(&mut self) -> Result<Option<char>, SaxError> {
        let start = self.offset;
        let b0 = match self.next_byte()? {
            None => return Ok(None),
            Some(b) => b,
        };
        if b0 < 0x80 {
            return Ok(Some(b0 as char));
        }
        // (sequence length, allowed range of the second byte): the WHATWG
        // table, which rejects overlong forms (C0/C1, E0 80–9F, F0 80–8F),
        // surrogates (ED A0–BF) and scalars past U+10FFFF (F4 90–BF, F5–FF)
        // at the second byte.
        let (len, min_b1, max_b1) = match b0 {
            0xC2..=0xDF => (2, 0x80, 0xBF),
            0xE0 => (3, 0xA0, 0xBF),
            0xE1..=0xEC | 0xEE..=0xEF => (3, 0x80, 0xBF),
            0xED => (3, 0x80, 0x9F),
            0xF0 => (4, 0x90, 0xBF),
            0xF1..=0xF3 => (4, 0x80, 0xBF),
            0xF4 => (4, 0x80, 0x8F),
            _ => return Err(SaxError::InvalidUtf8 { offset: start }),
        };
        let mut cp = (b0 as u32) & (0x7F >> len);
        for i in 1..len {
            let b = match self.next_byte()? {
                None => return Err(SaxError::TruncatedUtf8 { offset: start }),
                Some(b) => b,
            };
            let (lo, hi) = if i == 1 {
                (min_b1, max_b1)
            } else {
                (0x80, 0xBF)
            };
            if b < lo || b > hi {
                return Err(SaxError::InvalidUtf8 { offset: start });
            }
            cp = (cp << 6) | ((b as u32) & 0x3F);
        }
        char::from_u32(cp)
            .map(Some)
            .ok_or(SaxError::InvalidUtf8 { offset: start })
    }
}

impl<R: io::Read> Iterator for Utf8Chars<R> {
    type Item = Result<char, SaxError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.decode_next() {
            Ok(Some(c)) => Some(Ok(c)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

// --------------------------------------------------------------------------
// The char-level lexer
// --------------------------------------------------------------------------

/// A peekable, offset-tracking adapter over a fallible char source.
struct Source<S> {
    iter: S,
    peeked: Option<char>,
    /// Byte offset of the next unread character (for error reporting).
    offset: usize,
}

impl<S: Iterator<Item = Result<char, SaxError>>> Source<S> {
    /// Peeks the next character. A source error is consumed and returned
    /// (the lexer fuses after any error, so nothing is lost).
    fn peek(&mut self) -> Result<Option<char>, SaxError> {
        if self.peeked.is_none() {
            match self.iter.next() {
                None => return Ok(None),
                Some(Ok(c)) => self.peeked = Some(c),
                Some(Err(e)) => return Err(e),
            }
        }
        Ok(self.peeked)
    }

    /// Consumes the next character, advancing the byte offset.
    fn bump(&mut self) -> Result<Option<char>, SaxError> {
        let c = match self.peeked.take() {
            Some(c) => Some(c),
            None => match self.iter.next() {
                None => None,
                Some(Ok(c)) => Some(c),
                Some(Err(e)) => return Err(e),
            },
        };
        if let Some(c) = c {
            self.offset += c.len_utf8();
        }
        Ok(c)
    }
}

fn parse_error(offset: usize, message: &str) -> SaxError {
    SaxError::Syntax(NestedWordError::Parse {
        offset,
        message: message.into(),
    })
}

/// An iterator over `Result<TaggedSymbol, SaxError>` lexing one event per
/// open tag, close tag, or whitespace-separated text token from a fallible
/// char source, interning names into the borrowed alphabet. Errors are
/// yielded once, after which the iterator is fused.
pub struct EventLexer<'a, S: Iterator<Item = Result<char, SaxError>>> {
    source: Source<S>,
    alphabet: &'a mut Alphabet,
    /// The return of a self-closing tag, or the text tokens of a CDATA
    /// section.
    queued: VecDeque<TaggedSymbol>,
    failed: bool,
}

impl<'a, S: Iterator<Item = Result<char, SaxError>>> EventLexer<'a, S> {
    pub fn new(source: S, alphabet: &'a mut Alphabet) -> Self {
        EventLexer {
            source: Source {
                iter: source,
                peeked: None,
                offset: 0,
            },
            alphabet,
            queued: VecDeque::new(),
            failed: false,
        }
    }

    /// Classifies one tag body (the characters between `<` and `>`): a
    /// leading `/` is a close tag named by the first whitespace-separated
    /// token of the rest; otherwise the trimmed body, minus a trailing `/`
    /// (self-closing, whose return is queued), is named by its first token.
    fn tag_event(&mut self, body: &str, tag_start: usize) -> Result<TaggedSymbol, SaxError> {
        let empty_name = || parse_error(tag_start, "empty tag name");
        if let Some(rest) = body.strip_prefix('/') {
            let name = rest.split_whitespace().next().ok_or_else(empty_name)?;
            return Ok(TaggedSymbol::Return(self.alphabet.try_intern(name)?));
        }
        let trimmed = body.trim_end();
        let (inner, self_closing) = match trimmed.strip_suffix('/') {
            Some(inner) => (inner, true),
            None => (trimmed, false),
        };
        let name = inner.split_whitespace().next().ok_or_else(empty_name)?;
        let sym = self.alphabet.try_intern(name)?;
        if self_closing {
            self.queued.push_back(TaggedSymbol::Return(sym));
        }
        Ok(TaggedSymbol::Call(sym))
    }

    /// Skips or lexes one directive, with the cursor just past `<` and on
    /// `!` or `?`. Comments run to `-->`, processing instructions to `?>`,
    /// CDATA sections to `]]>`; other declarations run to the first `>`
    /// *outside* a `[ … ]` internal subset. `<!-` without a second dash
    /// falls through to that bracket scan, and a partial `CDATA[` marker
    /// leaves the consumed `[` as one open bracket level.
    fn lex_directive(&mut self, tag_start: usize) -> Result<(), SaxError> {
        let unterminated = || parse_error(tag_start, "unterminated directive");
        let lead = self.source.bump()?.expect("caller peeked '!' or '?'");
        if lead == '!' && self.source.peek()? == Some('-') {
            self.source.bump()?;
            if self.source.peek()? == Some('-') {
                self.source.bump()?;
                let mut dashes = 0usize;
                loop {
                    match self.source.bump()? {
                        None => return Err(unterminated()),
                        Some('-') => dashes += 1,
                        Some('>') if dashes >= 2 => return Ok(()),
                        Some(_) => dashes = 0,
                    }
                }
            }
        }
        if lead == '?' {
            let mut prev_question = false;
            loop {
                match self.source.bump()? {
                    None => return Err(unterminated()),
                    Some('>') if prev_question => return Ok(()),
                    Some(c) => prev_question = c == '?',
                }
            }
        }
        let mut depth = 0usize;
        if lead == '!' && self.source.peek()? == Some('[') {
            self.source.bump()?;
            const MARKER: [char; 6] = ['C', 'D', 'A', 'T', 'A', '['];
            let mut matched = 0usize;
            while matched < MARKER.len() && self.source.peek()? == Some(MARKER[matched]) {
                self.source.bump()?;
                matched += 1;
            }
            if matched == MARKER.len() {
                return self.lex_cdata(tag_start);
            }
            depth = 1;
        }
        loop {
            match self.source.bump()? {
                None => return Err(unterminated()),
                Some('[') => depth += 1,
                Some(']') => depth = depth.saturating_sub(1),
                Some('>') if depth == 0 => return Ok(()),
                Some(_) => {}
            }
        }
    }

    /// Lexes a CDATA section to its `]]>` terminator and queues the content
    /// as whitespace-separated text tokens — all resolved before any is
    /// queued, so a resolution failure leaves nothing half-emitted.
    fn lex_cdata(&mut self, tag_start: usize) -> Result<(), SaxError> {
        let mut content = String::new();
        loop {
            match self.source.bump()? {
                None => return Err(parse_error(tag_start, "unterminated CDATA section")),
                Some(c) => {
                    content.push(c);
                    if content.ends_with("]]>") {
                        content.truncate(content.len() - 3);
                        break;
                    }
                }
            }
        }
        let mut events = Vec::new();
        for token in content.split_whitespace() {
            events.push(TaggedSymbol::Internal(self.alphabet.try_intern(token)?));
        }
        self.queued.extend(events);
        Ok(())
    }

    /// Lexes one `<…>` construct, with the cursor on `<`; `None` for a
    /// skipped directive. A `>` inside a quoted attribute value does not
    /// end the tag.
    fn lex_tag(&mut self) -> Result<Option<TaggedSymbol>, SaxError> {
        let tag_start = self.source.offset;
        self.source.bump()?;
        if matches!(self.source.peek()?, Some('!') | Some('?')) {
            self.lex_directive(tag_start)?;
            return Ok(None);
        }
        let mut content = String::new();
        let mut quote: Option<char> = None;
        loop {
            let Some(c) = self.source.bump()? else {
                return Err(parse_error(tag_start, "unterminated tag"));
            };
            match quote {
                Some(q) if c == q => quote = None,
                Some(_) => {}
                None if c == '>' => break,
                None if c == '"' || c == '\'' => quote = Some(c),
                None => {}
            }
            content.push(c);
        }
        self.tag_event(&content, tag_start).map(Some)
    }

    /// Lexes one text token, with the cursor on its first character: up to
    /// the next `<` or (Unicode) whitespace.
    fn lex_text(&mut self) -> Result<TaggedSymbol, SaxError> {
        let mut word = String::new();
        while let Some(c) = self.source.peek()? {
            if c == '<' || c.is_whitespace() {
                break;
            }
            word.push(c);
            self.source.bump()?;
        }
        Ok(TaggedSymbol::Internal(self.alphabet.try_intern(&word)?))
    }

    fn next_event(&mut self) -> Result<Option<TaggedSymbol>, SaxError> {
        loop {
            if let Some(t) = self.queued.pop_front() {
                return Ok(Some(t));
            }
            match self.source.peek()? {
                None => return Ok(None),
                Some('<') => {
                    if let Some(t) = self.lex_tag()? {
                        return Ok(Some(t));
                    }
                }
                Some(c) if c.is_whitespace() => {
                    self.source.bump()?;
                }
                Some(_) => return self.lex_text().map(Some),
            }
        }
    }
}

impl<S: Iterator<Item = Result<char, SaxError>>> Iterator for EventLexer<'_, S> {
    type Item = Result<TaggedSymbol, SaxError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_event() {
            Ok(Some(t)) => Some(Ok(t)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}
