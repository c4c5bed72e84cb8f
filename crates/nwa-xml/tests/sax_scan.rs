//! Differential property suite for the bulk structural scanner.
//!
//! The contract under test: [`ByteTokenizer`] (the chunk-windowed bulk
//! scanner in `nwa_xml::scan`, the crate's one lexer) is token-for-token and
//! error-for-error identical to the char-at-a-time reference lexer of
//! `oracle/` ([`EventLexer`] over the [`Utf8Chars`] decoder) on the same
//! bytes — under adversarial read sizes (1..=7-byte chunks so every
//! multi-byte UTF-8 scalar gets split across a `read` seam), across the
//! internal scan-window seam, for CDATA / comment / PI / DOCTYPE edge cases,
//! and for inputs truncated at every byte offset.
//!
//! Every property runs on the auto-detected stage-1 backend (AVX2 where
//! the CPU has it, NEON on aarch64, SWAR otherwise), and one more pins the
//! backends against each other directly: SWAR and every wide kernel the
//! host has must be token-for-token identical on documents shifted across
//! the 64-byte classification blocks and the 64 KiB scan-window seam.
//! All-simple documents of the benchmark's shape exercise the structural
//! tape itself, and one case per fast-path rejection reason, placed at
//! block offsets 0, 63 and 64, exercises the hand-over to the scalar arm.
//!
//! A projected lexer (one built on a [`Projection`]) must emit exactly the
//! interning tokenizer's stream with the projection's inert text words
//! removed, and count exactly those in `dropped`, in both the drop-all and
//! the keep-bit mode, on SWAR and on the detected backend.

mod oracle;

use std::io::{self, BufReader};

use automata_core::Forms;
use nested_words::rng::Prng;
use nested_words::{Alphabet, NestedWordError, TaggedSymbol};
use nwa_xml::generate::{generate_document, DocumentConfig};
use nwa_xml::queries::{for_each_slice, Reads, Slice, EVENT_SLICE};
use nwa_xml::sax::{to_xml, ByteTokenizer, FrozenByteTokenizer, Projection, ResolveName, SaxError};
use nwa_xml::scan::{
    auto_scan_backend, force_scan_backend, scan_backend, BulkLexer, ScanBackend, SCAN_CHUNK,
};
use oracle::{EventLexer, Utf8Chars};

// --------------------------------------------------------------------------
// Harness
// --------------------------------------------------------------------------

/// A reader that hands out at most `chunk` bytes per `read` call, forcing
/// every buffer-refill seam the bulk scanner has.
struct SplitReader<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
    /// After the last byte, fail with `ConnectionReset` instead of
    /// reporting EOF.
    reset_at_end: bool,
}

impl<'a> SplitReader<'a> {
    fn new(data: &'a [u8], chunk: usize) -> Self {
        SplitReader {
            data,
            pos: 0,
            chunk: chunk.max(1),
            reset_at_end: false,
        }
    }

    /// [`SplitReader::new`], whose read after the last byte fails.
    fn resetting(data: &'a [u8], chunk: usize) -> Self {
        SplitReader {
            reset_at_end: true,
            ..SplitReader::new(data, chunk)
        }
    }
}

impl io::Read for SplitReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.reset_at_end && self.pos == self.data.len() {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "reset"));
        }
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Events up to the first error, plus the error (as its `Debug` rendering,
/// since `SaxError` carries non-`PartialEq` payloads). Errors must match
/// *exactly* — variant, offset, and message.
type Drained = (Vec<TaggedSymbol>, Option<String>);

fn drain<I: Iterator<Item = Result<TaggedSymbol, SaxError>>>(it: I) -> Drained {
    let mut events = Vec::new();
    for item in it {
        match item {
            Ok(t) => events.push(t),
            Err(e) => return (events, Some(format!("{e:?}"))),
        }
    }
    (events, None)
}

/// A [`Drained`] run with each event rendered against the alphabet it
/// interned into (`<a`, `a`, `a>`), so two lexers agree only if they
/// produce the same *names*, not merely the same interning order.
type Outcome = (Vec<String>, Option<String>);

fn named((events, err): Drained, ab: &Alphabet) -> Outcome {
    (events.into_iter().map(|t| t.display(ab)).collect(), err)
}

/// Reference outcome: the oracle's char-at-a-time `EventLexer` fed by its
/// incremental `Utf8Chars` decoder, over an identically-chunked reader so
/// byte offsets in errors line up with the subject's.
fn reference(data: &[u8], chunk: usize) -> Outcome {
    reference_from(SplitReader::new(data, chunk))
}

fn reference_from(reader: SplitReader) -> Outcome {
    let mut ab = Alphabet::new();
    let lexer = EventLexer::new(Utf8Chars::new(reader), &mut ab);
    let drained = drain(lexer);
    named(drained, &ab)
}

/// `reader` behind a `BufReader` of its own granularity, capped at
/// `SCAN_CHUNK`, the size a source is read in after a seam: a document
/// longer than that crosses a buffer seam at that offset.
fn buffered(reader: SplitReader) -> BufReader<SplitReader> {
    BufReader::with_capacity(reader.chunk.min(SCAN_CHUNK), reader)
}

/// Subject outcome via the `Iterator` entry point.
fn bulk_iter(data: &[u8], chunk: usize) -> Outcome {
    bulk_iter_from(SplitReader::new(data, chunk))
}

fn bulk_iter_from(reader: SplitReader) -> Outcome {
    let mut ab = Alphabet::new();
    let drained = drain(ByteTokenizer::new(buffered(reader), &mut ab));
    named(drained, &ab)
}

/// Subject outcome via the slice-producing `fill` entry point, pulling in
/// deliberately awkward batch sizes so batching never hides a seam bug.
fn bulk_fill(data: &[u8], chunk: usize, batch: usize) -> Outcome {
    bulk_fill_from(SplitReader::new(data, chunk), batch)
}

fn bulk_fill_from(reader: SplitReader, batch: usize) -> Outcome {
    let mut ab = Alphabet::new();
    let mut tok = ByteTokenizer::new(buffered(reader), &mut ab);
    let mut events = Vec::new();
    let drained = loop {
        let before = events.len();
        match tok.fill(&mut events, before + batch.max(1)) {
            Ok(()) if events.len() == before => break (events, None),
            Ok(()) => {}
            Err(e) => break (events, Some(format!("{e:?}"))),
        }
    };
    named(drained, &ab)
}

/// Asserts the bulk scanner matches the char-at-a-time reference on `data`
/// for every adversarial chunk size, through both entry points.
fn assert_equivalent(data: &[u8], label: &str) {
    let expected = reference(data, data.len().max(1));
    for chunk in [1, 2, 3, 4, 5, 6, 7, data.len().max(1)] {
        // The reference decoder is also incremental; feeding it the same
        // chunking checks that neither side's seam handling shifts offsets.
        let ref_chunked = reference(data, chunk);
        assert_eq!(
            ref_chunked, expected,
            "{label}: reference unstable at chunk={chunk}"
        );
        let got = bulk_iter(data, chunk);
        assert_eq!(
            got, expected,
            "{label}: iterator path diverged at chunk={chunk}"
        );
        for batch in [1, 3, 1024] {
            let got = bulk_fill(data, chunk, batch);
            assert_eq!(
                got, expected,
                "{label}: fill path diverged at chunk={chunk} batch={batch}"
            );
        }
    }
}

// --------------------------------------------------------------------------
// Random document generator
// --------------------------------------------------------------------------

const NAMES: &[&str] = &[
    "a",
    "bb",
    "item",
    "ns-long.element_name",
    "x1",
    "é",
    "日本語",
    "𝄞note",
];

const WORDS: &[&str] = &[
    "w",
    "word",
    "héllo",
    "汉字文本",
    "𝄞𝄢",
    "mixed-é-ascii",
    "1234567890abcdef",
];

/// Whitespace separators, including multi-byte Unicode whitespace (NBSP,
/// em-space, ideographic space) that the ≥0x80 slow path must classify.
const WS: &[&str] = &[
    " ", "\n", "\t", "\r\n", "\u{a0}", "\u{2003}", "\u{3000}", "  \n ",
];

fn pick<'a>(rng: &mut Prng, set: &[&'a str]) -> &'a str {
    set[rng.below(set.len())]
}

fn push_text(rng: &mut Prng, out: &mut String) {
    let words = 1 + rng.below(4);
    for _ in 0..words {
        out.push_str(pick(rng, WS));
        out.push_str(pick(rng, WORDS));
    }
    out.push_str(pick(rng, WS));
}

fn push_attrs(rng: &mut Prng, out: &mut String) {
    for i in 0..rng.below(3) {
        // Attribute values deliberately contain `>`, `<`, `/` and the
        // opposite quote — the characters that force the scanner off its
        // simple-tag fast path and into quote-aware classification.
        let val = pick(rng, &["v", "a>b", "x<y", "end/", "it's", "q\"q", "né"]);
        if val.contains('"') {
            out.push_str(&format!(" k{i}='{val}'"));
        } else if rng.bool(0.5) {
            out.push_str(&format!(" k{i}=\"{val}\""));
        } else if !val.contains('\'') {
            out.push_str(&format!(" k{i}='{val}'"));
        } else {
            out.push_str(&format!(" k{i}=\"{val}\""));
        }
    }
}

fn push_directive(rng: &mut Prng, out: &mut String) {
    match rng.below(4) {
        0 => out.push_str(pick(
            rng,
            &[
                "<!-- plain -->",
                "<!---->",
                "<!-- a - b -- c --->",
                "<!-- <not><a>tag</a> '\" -->",
            ],
        )),
        1 => out.push_str(pick(
            rng,
            &["<?pi?>", "<?php echo '>' ?>", "<?x ]]> \"q\" ?>"],
        )),
        2 => {
            // CDATA content is character data: tags, `>`, near-miss `]]`
            // runs and Unicode whitespace inside must lex as text tokens.
            out.push_str(pick(
                rng,
                &[
                    "<![CDATA[raw <b>txt</b> & more]]>",
                    "<![CDATA[]]>",
                    "<![CDATA[ ]] ]>]]]>",
                    "<![CDATA[é\u{a0}𝄞 two\u{3000}tokens]]>",
                ],
            ));
        }
        _ => out.push_str(pick(
            rng,
            &[
                "<!DOCTYPE d>",
                "<!DOCTYPE doc [ <!ENTITY gt \">\"> <!ELEMENT a (b)> ]>",
                "<!DOCTYPE d SYSTEM 'f>.dtd'>",
            ],
        )),
    }
}

fn push_element(rng: &mut Prng, out: &mut String, depth: usize) {
    let name = pick(rng, NAMES);
    if depth > 0 && rng.bool(0.15) {
        out.push('<');
        out.push_str(name);
        push_attrs(rng, out);
        out.push_str(if rng.bool(0.5) { "/>" } else { " />" });
        return;
    }
    out.push('<');
    out.push_str(name);
    push_attrs(rng, out);
    if rng.bool(0.2) {
        out.push(' ');
    }
    out.push('>');
    if depth < 4 {
        let kids = if depth == 0 {
            8 + rng.below(8)
        } else {
            rng.below(4)
        };
        for _ in 0..kids {
            match rng.below(5) {
                0 | 1 => push_text(rng, out),
                2 => push_element(rng, out, depth + 1),
                3 => push_directive(rng, out),
                // The lexer does not check tag matching — a stray close
                // tag is a legal Return event for it.
                _ => out.push_str(pick(rng, &["</stray>", "</日本語>", "</ spaced>"])),
            }
        }
    }
    out.push_str("</");
    out.push_str(name);
    if rng.bool(0.1) {
        out.push_str(" \t");
    }
    out.push('>');
}

fn generate(seed: u64) -> String {
    let mut rng = Prng::new(seed);
    let mut out = String::new();
    if rng.bool(0.3) {
        out.push_str("<?xml version=\"1.0\"?>");
    }
    if rng.bool(0.3) {
        push_directive(&mut rng, &mut out);
    }
    push_element(&mut rng, &mut out, 0);
    if rng.bool(0.2) {
        push_text(&mut rng, &mut out);
    }
    out
}

// --------------------------------------------------------------------------
// Properties
// --------------------------------------------------------------------------

#[test]
fn random_documents_match_char_lexer() {
    let mut total_events = 0usize;
    for seed in 0..48 {
        let doc = generate(seed);
        total_events += reference(doc.as_bytes(), doc.len().max(1)).0.len();
        assert_equivalent(doc.as_bytes(), &format!("seed {seed}"));
    }
    // Guard against the generator degenerating into trivial documents.
    assert!(
        total_events > 1_000,
        "generator too weak: {total_events} events"
    );
}

/// Hand-picked documents: lexical errors, quote and bracket interplay,
/// directives, control bytes, non-ASCII and invalid UTF-8.
const EDGE_CASES: &[&[u8]] = &[
    b"",
    b" \t\n ",
    "\u{a0}\u{2003}".as_bytes(),
    b"word",
    b"<a></a>",
    b"<a/>",
    b"< a ></ a >",
    b"<a b=\"c\">t</a>",
    // lexical errors: empty names, unterminated constructs
    b"<>",
    b"</>",
    b"< >",
    b"<a><",
    b"<a>text",
    b"<a",
    b"</a",
    b"<a b=\"unclosed>",
    b"<!-- never closed",
    b"<!-- -- >still open",
    b"<![CDATA[no end]]",
    b"<?pi no end?",
    b"<!DOCTYPE d [ <!ENTITY e \">\"> ",
    b"<!DOCTYPE d [ unclosed subset >",
    // quote/bracket interplay
    b"<a x='>'>i</a>",
    b"<a x=\"'\" y='\"'>.</a>",
    b"<a x='a/>'></a>",
    // self-closing variants
    b"<a / >",
    b"<a  />",
    // directives adjacent to everything
    b"<!--c--><a><?p?><![CDATA[x]]></a><!--t-->",
    b"<![CDATA[]]]><a/>",
    b"<![CDATA[]] >]]>",
    // control characters inside text are token characters
    b"<a>\x01\x02</a>",
    // non-ASCII everywhere: names, text, attribute values, whitespace
    "<é \u{a0}>\u{a0}𝄞\u{3000}汉</é>".as_bytes(),
    "<𝄞note>x</𝄞note>".as_bytes(),
    // invalid UTF-8: lone continuation, overlong, bad leading byte,
    // truncated scalar mid-stream and at EOF — typed errors with the
    // exact byte offset must agree with the incremental decoder.
    b"<a>\x80</a>",
    b"<a>\xc0\xaf</a>",
    b"<a>\xff</a>",
    b"<a>\xe2\x82</a>",
    b"<a>\xe2\x82",
    b"<a>\xf0\x9d\x84",
    b"ok \xf0\x9d\x84\x9e bad \xed\xa0\x80 tail",
    b"<t\xc3>",
    b"<t a='\xf4\x90\x80\x80'>",
    // Unicode whitespace beside a self-closing `/`, in names and in text
    "<a/\u{a0}>".as_bytes(),
    "<a\u{3000}/>".as_bytes(),
    "<\u{a0}/>".as_bytes(),
    "</\u{2003}a>".as_bytes(),
    "<a\u{85}b>".as_bytes(),
    "<a\u{1680}k='>'/>".as_bytes(),
    "x\u{85}y".as_bytes(),
];

#[test]
fn edge_documents_match_char_lexer() {
    for (i, case) in EDGE_CASES.iter().enumerate() {
        assert_equivalent(case, &format!("edge case {i}"));
    }
}

/// A read that fails after the last byte: the scanner yields the oracle's
/// events up to the failed read, then its `SaxError::Io` — tokens that
/// complete in the bytes before the failure come out first — at every read
/// size and through both entry points.
#[test]
fn read_error_after_the_last_byte_matches_char_lexer() {
    let mut io_errors = 0;
    for (i, case) in EDGE_CASES.iter().enumerate() {
        for chunk in 1..=7 {
            let label = format!("edge case {i}, chunk={chunk}");
            let expected = reference_from(SplitReader::resetting(case, chunk));
            let err = expected.1.as_deref().expect("every run ends in an error");
            io_errors += usize::from(err.starts_with("Io("));
            assert_eq!(
                bulk_iter_from(SplitReader::resetting(case, chunk)),
                expected,
                "{label}: iterator path diverged"
            );
            for batch in [1, 3, 1024] {
                assert_eq!(
                    bulk_fill_from(SplitReader::resetting(case, chunk), batch),
                    expected,
                    "{label}: fill path diverged at batch={batch}"
                );
            }
        }
    }
    // Most cases reach the failed read before any error of their own.
    assert!(
        io_errors > EDGE_CASES.len() * 7 / 2,
        "{io_errors} Io errors"
    );
}

/// One-mebibyte tokens — a text word, a tag whose quoted attribute value
/// is full of `>`, and that tag cut off by EOF — read one byte at a time
/// and in 4099-byte reads. A token cut by the window's end is re-swept each
/// time the window doubles, which is linear in its length; a lexer that
/// re-swept it after every read would be quadratic here, and the
/// wall-clock bound turns that into a failure instead of a hang.
#[test]
fn mebibyte_tokens_match_char_lexer_in_linear_time() {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;

    const LIMIT: Duration = Duration::from_secs(30);
    let mib = 1 << 20;
    let tag = format!("<a k='{}'", ">".repeat(mib));
    let docs = [
        format!("<doc>{} tail</doc>", "w".repeat(mib)),
        format!("{tag}>x</a>"),
        tag,
    ];
    let (done, finished) = channel();
    let worker = std::thread::spawn(move || {
        for (i, doc) in docs.iter().enumerate() {
            let expected = reference(doc.as_bytes(), doc.len());
            for chunk in [1, 4099] {
                assert_eq!(
                    bulk_iter(doc.as_bytes(), chunk),
                    expected,
                    "document {i}: iterator path diverged at chunk={chunk}"
                );
                assert_eq!(
                    bulk_fill(doc.as_bytes(), chunk, 1024),
                    expected,
                    "document {i}: fill path diverged at chunk={chunk}"
                );
            }
        }
        let _ = done.send(());
    });
    match finished.recv_timeout(LIMIT) {
        // Finished or panicked: join, re-raising an assertion failure.
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        // Left running: the failure ends the test process.
        Err(RecvTimeoutError::Timeout) => panic!("mebibyte tokens took over {LIMIT:?}"),
    }
}

#[test]
fn truncation_at_every_byte_offset() {
    let doc = "<?xml v?><!DOCTYPE d [<!E \">\">]><a k=\"q>'\">é\u{a0}𝄞 w</a>\
               <!--c--><b><![CDATA[x ]] y]]></b><c/>";
    let bytes = doc.as_bytes();
    for cut in 0..=bytes.len() {
        let prefix = &bytes[..cut];
        let expected = reference(prefix, prefix.len().max(1));
        for chunk in [3, prefix.len().max(1)] {
            let got = bulk_iter(prefix, chunk);
            assert_eq!(got, expected, "truncation at {cut}, chunk={chunk}");
        }
    }
}

/// A multi-byte scalar straddling the bulk scanner's *internal* window
/// seam (`SCAN_CHUNK`), not just a `read` seam: the carried-over partial
/// sequence must complete — or fail — exactly like the incremental decoder.
#[test]
fn multibyte_scalar_across_scan_window_seam() {
    for shift in 0..8usize {
        let mut doc = String::from("<pad>");
        let fill = SCAN_CHUNK - doc.len() - shift;
        doc.push_str(&"a".repeat(fill));
        doc.push_str(" \u{1d11e}\u{a0}é tail</pad>");
        assert_eq!(
            bulk_iter(doc.as_bytes(), doc.len()),
            reference(doc.as_bytes(), doc.len()),
            "window seam shift {shift}"
        );
    }
    // Same straddle, but the document ends mid-scalar: truncated-UTF-8
    // error at the same offset the incremental decoder reports.
    let mut doc = Vec::from(&b"<pad>"[..]);
    doc.resize(SCAN_CHUNK - 2, b'a');
    doc.extend_from_slice(&[0xf0, 0x9d, 0x84]);
    assert_eq!(bulk_iter(&doc, doc.len()), reference(&doc, doc.len()));
}

/// The frozen (read-only alphabet) front end yields the identical stream
/// once the alphabet is pre-populated, and a typed `UnknownSymbol` against
/// an alphabet that lacks a name.
#[test]
fn frozen_tokenizer_matches_mutable() {
    for seed in 0..16 {
        let doc = generate(seed);
        let mut ab = Alphabet::new();
        let expected = drain(ByteTokenizer::new(doc.as_bytes(), &mut ab));
        for chunk in [1, 4, doc.len().max(1)] {
            let got = drain(FrozenByteTokenizer::new(
                BufReader::with_capacity(chunk, SplitReader::new(doc.as_bytes(), chunk)),
                &ab,
            ));
            assert_eq!(got, expected, "frozen diverged: seed {seed}, chunk={chunk}");
        }
    }

    let ab = Alphabet::from_names(["doc"]);
    let err = drain(FrozenByteTokenizer::new(
        &b"<doc><intruder/></doc>"[..],
        &ab,
    ));
    assert_eq!(err.0.len(), 1, "call on <doc> precedes the failure");
    let msg = err.1.expect("unknown name must fail");
    let expected_err = format!(
        "{:?}",
        SaxError::Syntax(NestedWordError::UnknownSymbol {
            name: "intruder".into()
        })
    );
    assert_eq!(msg, expected_err);
}

/// The oracle's decoder agrees with `str::chars` on every scalar category,
/// whatever the read granularity — the premise of its error offsets.
#[test]
fn utf8_chars_decodes_exactly_like_str_chars() {
    let text = "A£ह𐍈\u{10FFFF}\u{D7FF}\u{E000}ß\u{7F}\u{80}";
    let expect: Vec<char> = text.chars().collect();
    for chunk in 1..=5 {
        let got: Vec<char> = Utf8Chars::new(SplitReader::new(text.as_bytes(), chunk))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(got, expect, "chunk {chunk}");
    }
}

/// Drains `fill` up to its first error, then requires every further call to
/// append nothing and report no new error: a caller looping on `fill` must
/// never read past a corrupt byte as if the document continued.
fn assert_fill_fused(
    mut fill: impl FnMut(&mut Vec<TaggedSymbol>) -> Result<(), SaxError>,
    label: &str,
) {
    let mut events = Vec::new();
    loop {
        let before = events.len();
        match fill(&mut events) {
            Err(_) => break,
            Ok(()) => assert!(
                events.len() > before,
                "{label}: stream ended cleanly instead of failing"
            ),
        }
    }
    for attempt in 0..3 {
        let before = events.len();
        assert!(fill(&mut events).is_ok(), "{label}: error repeated");
        assert_eq!(
            events.len(),
            before,
            "{label}: fill call {attempt} after the error appended events"
        );
    }
}

/// After the first `Err`, further `fill` calls append nothing — for both
/// tokenizers, on invalid bytes, truncated input and unknown names, at every
/// read granularity and batch size.
#[test]
fn fill_stays_stopped_after_an_error() {
    let failing: &[&[u8]] = &[
        // invalid UTF-8 mid-document, with well-formed bytes after it
        b"<a>abc\xFF</a>",
        b"<a>\x80</a><b/>",
        b"<a>\xc0\xaf</a>",
        b"ok \xed\xa0\x80 tail",
        // truncation: mid-scalar, mid-tag, mid-directive
        b"<a>\xe2\x82",
        b"<a>x</a><b",
        b"<a/><!-- never closed",
        b"<a/><![CDATA[no end]]",
        // lexical errors with input after them
        b"<a></ ><b/>",
    ];
    for data in failing {
        // The interning pass over the same bytes leaves every name that
        // precedes the error in the alphabet the frozen tokenizer reads.
        let mut ab = Alphabet::new();
        let _ = drain(ByteTokenizer::new(*data, &mut ab));
        for chunk in [1, 3, data.len()] {
            for batch in [1, 1024] {
                let label = format!("{data:?}, chunk {chunk}, batch {batch}");
                let mut fresh = Alphabet::new();
                let mut tok = ByteTokenizer::new(
                    BufReader::with_capacity(chunk, SplitReader::new(data, chunk)),
                    &mut fresh,
                );
                assert_fill_fused(|out| tok.fill(out, out.len() + batch), &label);
                let mut tok = FrozenByteTokenizer::new(
                    BufReader::with_capacity(chunk, SplitReader::new(data, chunk)),
                    &ab,
                );
                assert_fill_fused(|out| tok.fill(out, out.len() + batch), &label);
            }
        }
    }
    // An unknown name on the serving path, with known names after it.
    let ab = Alphabet::from_names(["doc", "tail"]);
    for batch in [1, 1024] {
        let mut tok = FrozenByteTokenizer::new(&b"<doc><intruder/>tail</doc>"[..], &ab);
        assert_fill_fused(
            |out| tok.fill(out, out.len() + batch),
            &format!("unknown name, batch {batch}"),
        );
    }
}

// --------------------------------------------------------------------------
// The structural tape: simple documents, block seams and rejections
// --------------------------------------------------------------------------

/// Iteration budget scaled by `NWA_PROP_ITERS`, mirroring the workspace
/// property suites: the weekly deep CI job sets it to 10 to sweep ten
/// times as many seeds through the same property.
fn prop_iters(base: usize) -> usize {
    std::env::var("NWA_PROP_ITERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&m| m > 0)
        .map_or(base, |m| base * m)
}

/// An all-simple document of the benchmark's (E15c) shape: `<tN>` /
/// `</tN>` tags and single-space-separated `wN` words, nothing the tape
/// rejects.
fn simple_document(events: usize, seed: u64) -> String {
    let (ab, doc) = generate_document(
        DocumentConfig {
            events,
            max_depth: 32,
            ..Default::default()
        },
        seed,
    );
    to_xml(&doc, &ab)
}

/// Checks `data` against the oracle with whole-document reads — the
/// setting where the tape covers the most — and one chunked read that
/// refills mid-block.
fn assert_equivalent_windowed(data: &[u8], label: &str) {
    let expected = reference(data, data.len().max(1));
    for chunk in [data.len().max(1), 4099] {
        assert_eq!(
            bulk_iter(data, chunk),
            expected,
            "{label}: iterator path diverged at chunk={chunk}"
        );
        for batch in [3, 1024] {
            assert_eq!(
                bulk_fill(data, chunk, batch),
                expected,
                "{label}: fill path diverged at chunk={chunk} batch={batch}"
            );
        }
    }
}

/// `doc` with `shift` bytes of whitespace in front of it, behind an opening
/// `<pad>`. The scanner lexes a stream's first token on its growing path
/// and starts its first 64-byte block right after it, so the shift moves
/// every later token across the block grid.
fn shifted(doc: &str, shift: usize) -> String {
    format!("<pad>{}{doc}</pad>", " ".repeat(shift))
}

/// Simple documents at the 64 block alignments, and across the 64 KiB
/// window seam at shifting offsets, equal the oracle. The alignments are
/// [`sampled`], rotated by seed, so the default seeds cover three of every
/// four; `NWA_PROP_ITERS` ≥ 4 runs all 64 for every seed.
#[test]
fn simple_documents_match_char_lexer_at_every_block_alignment() {
    let shifts: Vec<usize> = (0..64).collect();
    for seed in 0..prop_iters(3) as u64 {
        let doc = simple_document(1_500, seed);
        for shift in sampled(&shifts, seed as usize) {
            let padded = shifted(&doc, shift);
            assert_equivalent_windowed(padded.as_bytes(), &format!("seed {seed} shift {shift}"));
        }
    }
    let doc = simple_document(40_000, 7);
    assert!(
        doc.len() > SCAN_CHUNK + 64,
        "the document spans the window seam"
    );
    for shift in 0..8usize {
        let padded = shifted(&doc, shift);
        assert_equivalent_windowed(padded.as_bytes(), &format!("window shift {shift}"));
    }
}

/// Each construct the tape must reject, placed so it starts at block
/// offset 0, 63 and 64 (see [`shifted`]) with simple tokens around it: the
/// hand-over to the scalar arm yields the oracle's events and errors.
#[test]
fn tape_rejections_match_char_lexer_at_block_offsets() {
    // Tags whose `>` lies blocks away: only the rejection of the block
    // they start in keeps their inner bytes off the tape.
    let long_attrs = format!("<a{}>", " b".repeat(100));
    let long_nested = format!("<a<b{}>", " w".repeat(100));
    let constructs: &[&[u8]] = &[
        b"<>",
        b"</>",
        b"<a/>",
        b"<a b=\"1\">",
        b"<a b>",
        b"</a >",
        b"<a\"b>\"",
        long_attrs.as_bytes(),
        long_nested.as_bytes(),
        b"w>x",    // a stray `>`
        b"w\x01x", // a control byte in text
        b"<!--c-->",
        b"<?p?>",
        "<é>".as_bytes(), // a non-ASCII name
    ];
    let tail = "<t1>w1 w2</t1>".repeat(16);
    for construct in constructs {
        let construct = std::str::from_utf8(construct).expect("UTF-8 construct");
        for offset in [0usize, 62, 63, 64] {
            // Whitespace before the construct, and text running into it.
            let texts = [" ".repeat(offset), "y".repeat(offset)];
            for text in texts {
                let doc = format!("<pad>{text}{construct}{tail}");
                assert_equivalent(doc.as_bytes(), &format!("{construct:?} at offset {offset}"));
            }
        }
    }
}

// --------------------------------------------------------------------------
// Wide backends vs SWAR
// --------------------------------------------------------------------------

/// Tokenizes `doc` under both the forced SWAR backend and the forced wide
/// backend, through both entry points, and asserts the outcomes (events
/// *and* errors) are identical. Restores auto-detection before returning.
fn assert_backends_agree(doc: &[u8], wide: ScanBackend, label: &str) {
    assert!(force_scan_backend(ScanBackend::Swar));
    let swar_iter = bulk_iter(doc, doc.len().max(1));
    let swar_fill = bulk_fill(doc, 7, 3);
    assert!(force_scan_backend(wide), "wide backend vanished mid-test");
    let wide_iter = bulk_iter(doc, doc.len().max(1));
    let wide_fill = bulk_fill(doc, 7, 3);
    auto_scan_backend();
    assert_eq!(wide_iter, swar_iter, "{label}: iterator path diverged");
    assert_eq!(wide_fill, swar_fill, "{label}: fill path diverged");
}

/// Every wide backend this host has must be token-for-token and
/// error-for-error identical to SWAR on the same bytes. The adversarial
/// inputs are random and all-simple documents whose token boundaries
/// straddle the kernels' seams: leading whitespace of every length in
/// `0..64` slides each document across the 64-byte classification blocks
/// (and the 32-byte halves the AVX2 kernel loads and the 16-byte NEON
/// lanes), and a text pad pushes a document across the 64 KiB scan-window
/// seam at byte-granular shifts.
///
/// Forcing a backend is process-global, which is safe here: every other
/// test in this binary checks scanner-vs-reference equivalence, a property
/// that holds under either backend.
#[test]
fn simd_matches_swar_token_for_token() {
    let wide: Vec<ScanBackend> = [ScanBackend::Avx2, ScanBackend::Neon]
        .into_iter()
        .filter(|&b| {
            let ok = force_scan_backend(b);
            auto_scan_backend();
            ok
        })
        .collect();
    if wide.is_empty() {
        // No wide kernel on this host: every property above already ran
        // on SWAR, the only backend there is.
        eprintln!("skipping: no wide scan backend on this host");
        return;
    }

    for &backend in &wide {
        // Block seams: every alignment in 0..64 of every document.
        for seed in 0..prop_iters(6) as u64 {
            let docs = [generate(5000 + seed), simple_document(600, 5000 + seed)];
            for doc in &docs {
                for shift in 0..64usize {
                    let padded = shifted(doc, shift);
                    assert_backends_agree(
                        padded.as_bytes(),
                        backend,
                        &format!("{backend:?} seed {seed} shift {shift}"),
                    );
                }
            }
        }

        // Window seam: the document body begins just before the 64 KiB
        // scan window boundary, so its tokens cross the seam at shifting
        // offsets (the pad is a single long text token plus alignment
        // whitespace).
        for seed in 0..prop_iters(2) as u64 {
            let doc = generate(9000 + seed);
            for shift in 0..8usize {
                let mut padded = String::from("<pad>");
                padded.push_str(&"a".repeat(SCAN_CHUNK - padded.len() - 40 - shift));
                padded.push(' ');
                padded.push_str(&doc);
                padded.push_str("</pad>");
                assert_backends_agree(
                    padded.as_bytes(),
                    backend,
                    &format!("{backend:?} window seed {seed} shift {shift}"),
                );
            }
        }
    }
}

// --------------------------------------------------------------------------
// Projection: inert text words dropped at the source
// --------------------------------------------------------------------------

/// A projected run: the events up to the first error, the error, and the
/// lexer's dropped count at that point.
type Projected = (Drained, usize);

/// The projected lexer's outcome via `fill`, pulled in `batch`-sized
/// calls until one appends nothing, which must mean the stream ended.
fn projected_fill(
    data: &[u8],
    chunk: usize,
    batch: usize,
    ab: &Alphabet,
    inert: &[bool],
) -> Projected {
    let mut lexer = BulkLexer::new(
        buffered(SplitReader::new(data, chunk)),
        Projection::new(ab, inert),
    );
    let mut events = Vec::new();
    let err = loop {
        let before = events.len();
        match lexer.fill(&mut events, before + batch) {
            Ok(()) if events.len() == before => break None,
            Ok(()) => {}
            Err(e) => break Some(format!("{e:?}")),
        }
    };
    ((events, err), lexer.dropped())
}

/// The projected lexer's outcome via its per-event iterator.
fn projected_iter(data: &[u8], chunk: usize, ab: &Alphabet, inert: &[bool]) -> Projected {
    let mut lexer = BulkLexer::new(
        buffered(SplitReader::new(data, chunk)),
        Projection::new(ab, inert),
    );
    let drained = drain(&mut lexer);
    (drained, lexer.dropped())
}

/// The reference for a projection: the interning tokenizer's stream (which
/// also builds the alphabet) with every text word whose symbol `inert`
/// marks removed, and the number removed.
fn projected_reference(data: &[u8], inert_of: InertOf) -> (Alphabet, Vec<bool>, Projected) {
    let mut ab = Alphabet::new();
    let (events, err) = drain(ByteTokenizer::new(data, &mut ab));
    let inert = inert_of(ab.len());
    let dropped = |t: &TaggedSymbol| matches!(t, TaggedSymbol::Internal(s) if inert.get(s.index()).copied().unwrap_or(false));
    let removed = events.iter().filter(|t| dropped(t)).count();
    let kept = events.into_iter().filter(|t| !dropped(t)).collect();
    (ab, inert, ((kept, err), removed))
}

/// A projection's inert bits for an alphabet of the given size.
type InertOf = fn(usize) -> Vec<bool>;

/// The two projection modes: every symbol inert (drop-all, nothing
/// resolved), and every third symbol inert (keep bits, tags included,
/// which must still be emitted).
const PROJECTIONS: [(&str, InertOf); 2] = [
    ("drop-all", |n| vec![true; n]),
    ("every third", |n| (0..n).map(|a| a % 3 == 0).collect()),
];

/// Asserts the projected lexer equals [`projected_reference`] on `data` for
/// both projections, every read granularity and every fill batch.
fn assert_projection_filters(data: &[u8], label: &str) {
    for (mode, inert_of) in PROJECTIONS {
        let (ab, inert, expected) = projected_reference(data, inert_of);
        for chunk in [1, 3, 7, 64, 4096, data.len().max(1)] {
            for batch in [1, 5, 4096] {
                assert_eq!(
                    projected_fill(data, chunk, batch, &ab, &inert),
                    expected,
                    "{label}, {mode}: fill diverged at chunk={chunk} batch={batch}"
                );
            }
            assert_eq!(
                projected_iter(data, chunk, &ab, &inert),
                expected,
                "{label}, {mode}: iterator diverged at chunk={chunk}"
            );
        }
    }
}

/// The projection property on the SWAR-pinned and the detected backend:
/// random documents with attributes, directives and CDATA, all-simple
/// documents shifted across the 64-byte block grid, and a document whose
/// whole first scan window (and more) is text, so a drop-all fill must
/// read on through it instead of returning an empty slice.
#[test]
fn projected_stream_is_the_filtered_stream() {
    let mut docs: Vec<(String, String)> = (0..prop_iters(12) as u64)
        .map(|seed| (format!("seed {seed}"), generate(seed)))
        .collect();
    let simple = simple_document(1_500, 3);
    for shift in [0, 1, 63, 64] {
        docs.push((format!("simple shift {shift}"), shifted(&simple, shift)));
    }
    let text_window = format!(
        "{}<doc>w0 <t1>w1</t1></doc>",
        "w0 w2 ".repeat(SCAN_CHUNK / 5)
    );
    docs.push(("text window".into(), text_window));

    let detected = {
        auto_scan_backend();
        scan_backend()
    };
    for backend in [ScanBackend::Swar, detected] {
        assert!(force_scan_backend(backend));
        for (label, doc) in &docs {
            assert_projection_filters(doc.as_bytes(), &format!("{backend:?} {label}"));
        }
    }
    auto_scan_backend();
}

/// Under drop-all no text word is resolved, so one outside the alphabet
/// is dropped like any other; a keep-bit projection looks it up and drops
/// it too, unresolved. The unprojected lexer still fails on it, and an
/// unknown tag fails in every mode after the same events.
#[test]
fn drop_all_skips_unknown_text_but_not_unknown_tags() {
    let ab = Alphabet::from_names(["doc", "w"]);
    let unknown = |name: &str| {
        format!(
            "{:?}",
            SaxError::Syntax(NestedWordError::UnknownSymbol { name: name.into() })
        )
    };
    let doc = ab.lookup("doc").unwrap();
    let (calls, err) = (vec![TaggedSymbol::Call(doc)], unknown("stranger"));
    let text = b"<doc>w stranger w</doc>";
    assert_eq!(
        projected_fill(text, text.len(), 16, &ab, &[true, true]),
        ((vec![calls[0], TaggedSymbol::Return(doc)], None), 3)
    );
    let w = ab.lookup("w").unwrap();
    assert_eq!(
        projected_fill(text, text.len(), 16, &ab, &[false, false]),
        (
            (
                vec![
                    calls[0],
                    TaggedSymbol::Internal(w),
                    TaggedSymbol::Internal(w),
                    TaggedSymbol::Return(doc)
                ],
                None
            ),
            1
        )
    );
    let up_to_w = vec![calls[0], TaggedSymbol::Internal(w)];
    assert_eq!(
        projected_fill(text, text.len(), 16, &ab, &[]),
        ((up_to_w.clone(), Some(err)), 0)
    );
    let tag = b"<doc>w <intruder/> w</doc>";
    for inert in [[true, true], [false, true]] {
        assert_eq!(
            projected_fill(tag, tag.len(), 16, &ab, &inert),
            ((calls.clone(), Some(unknown("intruder"))), 1)
        );
    }
    for inert in [&[false, false][..], &[]] {
        assert_eq!(
            projected_fill(tag, tag.len(), 16, &ab, inert),
            ((up_to_w.clone(), Some(unknown("intruder"))), 0)
        );
    }
}

// --------------------------------------------------------------------------
// The token cache under pressure
// --------------------------------------------------------------------------

/// Name lengths on both sides of every word boundary of a token key and of
/// the longest keyed token in each form (text 23, open 21, close 20).
const PRESSURE_LENGTHS: &[usize] = &[1, 7, 8, 9, 13, 14, 15, 16, 17, 20, 21, 22, 23, 24];

/// Over a thousand distinct ASCII names, lengths cycling through
/// [`PRESSURE_LENGTHS`]: a letter, then the index in base 36, padded.
/// Far more tokens than the lexer's cache has slots, so slots collide.
fn pressure_vocabulary() -> Vec<String> {
    const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    let mut names: Vec<String> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut i = 0usize;
    while names.len() < 1_100 {
        let len = PRESSURE_LENGTHS[i % PRESSURE_LENGTHS.len()];
        let mut name = vec![b'a' + (i % 26) as u8];
        let mut rest = i / 26;
        while rest > 0 {
            name.push(DIGITS[rest % 36]);
            rest /= 36;
        }
        while name.len() < len {
            name.push(b"_.-x"[name.len() % 4]);
        }
        name.truncate(len);
        let name = String::from_utf8(name).expect("ASCII");
        if seen.insert(name.clone()) {
            names.push(name);
        }
        i += 1;
    }
    names
}

/// A seeded document over [`pressure_vocabulary`], every name in every
/// form: a text word, `<n>`, `</n>`, `<n/>` and `<n k="v">`, plus the two
/// spellings whose name starts like another form's token: CDATA words
/// `<n>` and `</n>` (text), and `< /n>` (an open tag named `/n`).
fn pressure_document(seed: u64, tokens: usize) -> String {
    let names = pressure_vocabulary();
    let mut rng = Prng::new(seed);
    let mut doc = String::new();
    for _ in 0..tokens {
        let name = &names[rng.below(names.len())];
        match rng.below(7) {
            0 => doc.push_str(&format!("{name} ")),
            1 => doc.push_str(&format!("<{name}>")),
            2 => doc.push_str(&format!("</{name}>")),
            3 => doc.push_str(&format!("<{name}/>")),
            4 => doc.push_str(&format!("<{name} k=\"v\">")),
            5 => doc.push_str(&format!("<![CDATA[<{name}> </{name}>]]>")),
            _ => doc.push_str(&format!("< /{name}>")),
        }
        if rng.below(3) == 0 {
            doc.push('\n');
        }
    }
    doc
}

/// The oracle's events for `data`, in the alphabet it interned into.
fn oracle_events(data: &[u8]) -> (Alphabet, Vec<TaggedSymbol>) {
    let mut ab = Alphabet::new();
    let (events, err) = drain(EventLexer::new(Utf8Chars::new(data), &mut ab));
    assert_eq!(err, None, "the pressure document is well formed");
    (ab, events)
}

/// One `for_each_slice` run whose sink asks to narrow to tags at slice
/// `narrow_at`: the events before and after the narrowing, and the dropped
/// count.
fn narrowed_slices(
    data: &[u8],
    ab: &Alphabet,
    inert: &[bool],
    narrow_at: usize,
) -> (Vec<TaggedSymbol>, Vec<TaggedSymbol>, usize) {
    let (mut before, mut after, mut slices) = (Vec::new(), Vec::new(), 0);
    let reader = BufReader::with_capacity(4099, SplitReader::new(data, 4099));
    let dropped = for_each_slice(reader, ab, inert, |slice| {
        let Slice::Events(events) = slice else {
            unreachable!("a sink that reads tags is only handed events")
        };
        if events.is_empty() {
            // The call before anything is read.
            return Reads::Text;
        }
        let side = if slices <= narrow_at {
            &mut before
        } else {
            &mut after
        };
        side.extend_from_slice(events);
        slices += 1;
        if slices <= narrow_at {
            Reads::Text
        } else {
            Reads::Tags
        }
    })
    .expect("the pressure document is well formed");
    (before, after, dropped)
}

/// Over a thousand names in every form, at every key-length boundary, so
/// the token cache's slots collide constantly: the scanner equals the
/// oracle on every backend — unprojected, under a keep-bit projection
/// (every third symbol inert), under drop-all, and narrowed to tags
/// mid-stream.
#[test]
fn token_cache_under_pressure_matches_char_lexer() {
    let doc = pressure_document(17, 16_000);
    let data = doc.as_bytes();
    let (ab, events) = oracle_events(data);
    assert!(ab.len() >= 1_024, "a vocabulary past the cache");
    assert!(
        events.len() >= 3 * EVENT_SLICE,
        "narrowing falls mid-stream"
    );
    let expected = reference(data, data.len());
    let is_tag = |t: &TaggedSymbol| !matches!(t, TaggedSymbol::Internal(_));
    let every_third: Vec<bool> = (0..ab.len()).map(|a| a % 3 == 0).collect();
    let backends = [ScanBackend::Swar, ScanBackend::Avx2, ScanBackend::Neon];
    for backend in backends.into_iter().filter(|&b| force_scan_backend(b)) {
        for chunk in [data.len(), 4099, 7] {
            let ctx = format!("{backend:?}, chunk {chunk}");
            assert_eq!(bulk_iter(data, chunk), expected, "{ctx}: iterator");
            assert_eq!(bulk_fill(data, chunk, 1024), expected, "{ctx}: fill");
            for (mode, inert) in [
                ("emit-all", Vec::new()),
                ("keep-bit", every_third.clone()),
                ("drop-all", vec![true; ab.len()]),
            ] {
                let dropped = |t: &TaggedSymbol| match t {
                    TaggedSymbol::Internal(a) => inert.get(a.index()).copied().unwrap_or(false),
                    _ => false,
                };
                let kept: Vec<TaggedSymbol> =
                    events.iter().copied().filter(|t| !dropped(t)).collect();
                assert_eq!(
                    projected_fill(data, chunk, 1024, &ab, &inert),
                    (
                        (kept, None),
                        events.len() - events.iter().filter(|t| !dropped(t)).count()
                    ),
                    "{ctx}: {mode}"
                );
            }
        }
        for inert in [Vec::new(), every_third.clone()] {
            let keeps = |t: &TaggedSymbol| match t {
                TaggedSymbol::Internal(a) => !inert.get(a.index()).copied().unwrap_or(false),
                _ => true,
            };
            for narrow_at in 0..3 {
                let ctx = format!(
                    "{backend:?}, {} inert, narrowed after slice {narrow_at}",
                    inert.len()
                );
                let (before, after, dropped) = narrowed_slices(data, &ab, &inert, narrow_at);
                // The fills before the switch end on a kept event: `p`
                // oracle events were read by then.
                let p = events
                    .iter()
                    .scan(0, |kept, t| {
                        *kept += usize::from(keeps(t));
                        Some(*kept)
                    })
                    .position(|kept| kept == before.len())
                    .map_or(0, |i| i + 1);
                let head: Vec<_> = events[..p].iter().copied().filter(|t| keeps(t)).collect();
                let tail: Vec<_> = events[p..].iter().copied().filter(is_tag).collect();
                assert_eq!(before, head, "{ctx}");
                assert_eq!(after, tail, "{ctx}");
                assert_eq!(before.len() + after.len() + dropped, events.len(), "{ctx}");
            }
        }
    }
    auto_scan_backend();
}

// --------------------------------------------------------------------------
// Structure mode: tag forms instead of events
// --------------------------------------------------------------------------

/// One `for_each_slice` run whose sink narrows to structure when it is
/// called for the `narrow_at`-th time (0 is the call before anything is
/// read): the events handed over before, the forms handed over after, and
/// the outcome.
fn structured_slices(
    reader: SplitReader,
    ab: &Alphabet,
    inert: &[bool],
    narrow_at: usize,
) -> (Vec<TaggedSymbol>, Vec<Forms>, Option<String>) {
    let (mut events, mut windows, mut calls) = (Vec::new(), Vec::new(), 0);
    let outcome = for_each_slice(buffered(reader), ab, inert, |slice| {
        match slice {
            Slice::Events(slice) => events.extend_from_slice(slice),
            Slice::Forms(forms) => windows.push(forms),
        }
        calls += 1;
        if calls > narrow_at {
            Reads::Structure
        } else {
            Reads::Text
        }
    });
    (events, windows, outcome.err().map(|e| format!("{e:?}")))
}

/// Height and peak after walking the tags of `events` from 0, one event at
/// a time, pending returns included.
fn walk_events(events: &[TaggedSymbol]) -> (usize, usize) {
    let (mut height, mut peak) = (0usize, 0usize);
    for event in events {
        match event {
            TaggedSymbol::Call(_) => height += 1,
            TaggedSymbol::Return(_) => height = height.saturating_sub(1),
            TaggedSymbol::Internal(_) => {}
        }
        peak = peak.max(height);
    }
    (height, peak)
}

/// A bytes→slices run narrowed to structure at any slice hands over the
/// oracle's projected events up to the switch, then forms that walk
/// exactly as the oracle's remaining events do — events, height and peak,
/// pending returns included — and ends in the oracle's error at the same
/// offset. On every backend, at 1-byte, 7-byte and whole-document reads,
/// under drop-all and keep-bit projections, on the edge cases, random
/// documents with attributes, self-closing tags, comments, CDATA and PIs,
/// a document that opens with pending returns, and the pressure document
/// (over three event slices).
#[test]
fn structure_slices_walk_like_the_char_lexer() {
    let mut docs: Vec<Vec<u8>> = EDGE_CASES.iter().map(|d| d.to_vec()).collect();
    docs.extend((0..prop_iters(4) as u64).map(|seed| generate(seed).into_bytes()));
    docs.push(b"</a></b> w <c k='v'>w<d/></c></e> <f>".to_vec());
    docs.push(pressure_document(5, 16_000).into_bytes());
    let backends = [ScanBackend::Swar, ScanBackend::Avx2, ScanBackend::Neon];
    for backend in backends.into_iter().filter(|&b| force_scan_backend(b)) {
        for (d, data) in docs.iter().enumerate() {
            for chunk in [1, 7, data.len()] {
                let mut ab = Alphabet::new();
                let (oracle, err) = drain(EventLexer::new(
                    Utf8Chars::new(SplitReader::new(data, chunk)),
                    &mut ab,
                ));
                let every_other: Vec<bool> = (0..ab.len()).map(|a| a % 2 == 0).collect();
                let slices = oracle.len() / EVENT_SLICE + 2;
                for (mode, inert) in [
                    ("drop-all", vec![true; ab.len()]),
                    ("keep-bit", every_other),
                ] {
                    let keeps = |t: &TaggedSymbol| match t {
                        TaggedSymbol::Internal(a) => !inert[a.index()],
                        _ => true,
                    };
                    for narrow_at in 0..slices.min(4) {
                        let ctx = format!(
                            "{backend:?}, document {d}, chunk {chunk}, {mode}, narrowed at call {narrow_at}"
                        );
                        let reader = SplitReader::new(data, chunk);
                        let (before, windows, got_err) =
                            structured_slices(reader, &ab, &inert, narrow_at);
                        let p = match before.len() {
                            0 => 0,
                            kept => {
                                oracle
                                    .iter()
                                    .scan(0, |n, t| {
                                        *n += usize::from(keeps(t));
                                        Some(*n)
                                    })
                                    .position(|n| n == kept)
                                    .expect("the kept prefix")
                                    + 1
                            }
                        };
                        let head: Vec<_> = oracle[..p].iter().copied().filter(keeps).collect();
                        assert_eq!(before, head, "{ctx}");
                        let tail = &oracle[p..];
                        let tags = tail
                            .iter()
                            .filter(|t| !matches!(t, TaggedSymbol::Internal(_)));
                        let events: usize = windows.iter().map(|f| f.events).sum();
                        assert_eq!(events, tags.count(), "{ctx}");
                        let (mut height, mut peak) = (0, 0);
                        windows.iter().for_each(|f| f.apply(&mut height, &mut peak));
                        assert_eq!((height, peak), walk_events(tail), "{ctx}");
                        assert_eq!(got_err, err, "{ctx}");
                    }
                }
            }
        }
    }
    auto_scan_backend();
}

// --------------------------------------------------------------------------
// Lent buffers: bad bytes at block boundaries and buffer seams
// --------------------------------------------------------------------------

/// A `BufRead` source that lends `k` bytes per `fill_buf`: its buffers are
/// the `k`-byte runs of `data` (the last one shorter), so every multiple of
/// `k` is a seam the lexer must carry a token across.
struct Lender<'a> {
    data: &'a [u8],
    pos: usize,
    k: usize,
}

impl io::Read for Lender<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let lent = io::BufRead::fill_buf(self)?;
        let n = lent.len().min(buf.len());
        buf[..n].copy_from_slice(&lent[..n]);
        io::BufRead::consume(self, n);
        Ok(n)
    }
}

impl io::BufRead for Lender<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let seam = (self.pos / self.k + 1) * self.k;
        Ok(&self.data[self.pos..seam.min(self.data.len())])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// What a lexer read through `fill`: the events written, the text words
/// dropped and the error.
type Lexed = (Vec<TaggedSymbol>, usize, Option<String>);

fn lexed_from<N: ResolveName>(reader: Lender, names: N) -> Lexed {
    let mut lexer = BulkLexer::new(reader, names);
    let mut events = Vec::new();
    let err = loop {
        let before = events.len();
        match lexer.fill(&mut events, before + 1024) {
            Ok(()) if events.len() == before => break None,
            Ok(()) => {}
            Err(e) => break Some(format!("{e:?}")),
        }
    };
    (events, lexer.dropped(), err)
}

/// What a `for_each_slice` run settled from the start read: tag events,
/// the height and peak of their walk from 0, and the error.
fn structure_from(
    reader: Lender,
    ab: &Alphabet,
    inert: &[bool],
) -> (usize, (usize, usize), Option<String>) {
    let (mut events, mut height, mut peak) = (0, 0, 0);
    let outcome = for_each_slice(reader, ab, inert, |slice| {
        if let Slice::Forms(forms) = slice {
            events += forms.events;
            forms.apply(&mut height, &mut peak);
        }
        Reads::Structure
    });
    (
        events,
        (height, peak),
        outcome.err().map(|e| format!("{e:?}")),
    )
}

/// The bytes the tests below insert: four invalid sequences (a bad leading
/// byte, an overlong NUL, a lone continuation byte, a surrogate half), and
/// a sequence the stream then ends inside.
const BAD_BYTES: [&[u8]; 4] = [b"\xFF", b"\xC0\x80", b"\x80", b"\xED\xA0\x80"];
const TRUNCATED: &[u8] = b"\xE2\x82";

/// Offsets within two bytes of a multiple of `step` (0 excluded), inside
/// `0..=len`.
fn near_multiples(step: usize, len: usize) -> impl Iterator<Item = usize> {
    (1..=len / step + 1)
        .flat_map(move |m| (m * step).saturating_sub(2)..=m * step + 2)
        .filter(move |&o| o <= len)
}

/// Lexes `bytes` lent `k` bytes per `fill_buf` in all four modes —
/// emit-all, keep-bit (every third symbol of `ab` inert), drop-all, and
/// structure through a `for_each_slice` sink settled from the start — on
/// every backend this host has, and asserts each equals the char-level
/// oracle: the same events (those the mode keeps), the same text words
/// dropped, the same tag walk, and the same error at the same offset.
/// Returns the oracle's error. Every name in `bytes` must be in `ab`.
fn assert_lent_modes_match(bytes: &[u8], k: usize, ab: &Alphabet, label: &str) -> Option<String> {
    let mut oracle_ab = ab.clone();
    let (events, err) = drain(EventLexer::new(Utf8Chars::new(bytes), &mut oracle_ab));
    assert_eq!(
        oracle_ab.len(),
        ab.len(),
        "{label}: a name outside the alphabet"
    );
    let every_third: Vec<bool> = (0..ab.len()).map(|a| a % 3 == 0).collect();
    let all = vec![true; ab.len()];
    let tags: Vec<_> = events
        .iter()
        .copied()
        .filter(|t| !matches!(t, TaggedSymbol::Internal(_)))
        .collect();
    let lend = || Lender {
        data: bytes,
        pos: 0,
        k,
    };
    for backend in [ScanBackend::Swar, ScanBackend::Avx2, ScanBackend::Neon] {
        if !force_scan_backend(backend) {
            continue;
        }
        let ctx = format!("{backend:?}, {label}, k {k}");
        assert_eq!(
            lexed_from(lend(), ab),
            (events.clone(), 0, err.clone()),
            "{ctx}, emit-all"
        );
        for (mode, inert) in [("keep-bit", &every_third), ("drop-all", &all)] {
            let (dropped, kept): (Vec<_>, Vec<_>) = events
                .iter()
                .partition(|t| matches!(t, TaggedSymbol::Internal(a) if inert[a.index()]));
            assert_eq!(
                lexed_from(lend(), Projection::new(ab, inert)),
                (kept, dropped.len(), err.clone()),
                "{ctx}, {mode}"
            );
        }
        assert_eq!(
            structure_from(lend(), ab, &all),
            (tags.len(), walk_events(&tags), err.clone()),
            "{ctx}, structure"
        );
    }
    auto_scan_backend();
    err
}

/// `doc` with each invalid sequence inserted at `at`, and cut at `at` by a
/// sequence the stream ends inside.
fn spoiled(doc: &[u8], at: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
    let inserted = BAD_BYTES
        .iter()
        .map(move |bad| [&doc[..at], bad, &doc[at..]].concat());
    inserted.chain([[&doc[..at], TRUNCATED].concat()])
}

/// The alphabet the oracle interns from `doc`, which must be well formed.
fn alphabet_of(doc: &[u8]) -> Alphabet {
    let mut ab = Alphabet::new();
    assert_eq!(drain(EventLexer::new(Utf8Chars::new(doc), &mut ab)).1, None);
    ab
}

/// A document with every construct: simple tags and words, attributes, a
/// comment, a self-closing tag, CDATA, a PI, non-ASCII text and Unicode
/// whitespace, repeated `times` inside one `<doc>`.
fn lent_document(times: usize) -> String {
    let body = "<t1>w1 w22</t1> <t3>\tw3\n</t3><t4>w4<t5>w5</t5></t4><t1>w1 w22</t1> \
                <t3>w3</t3><a k='v>'>héllo wörld</a><!-- c --><b/><![CDATA[x y]]><?p?> \
                <t1>w1</t1><t4>w4 w4</t4> 𝄞 w5\u{a0}w1 ";
    format!("<doc>{}</doc>", body.repeat(times))
}

/// Bytes of the body [`lent_document`] repeats.
fn body_len() -> usize {
    lent_document(1).len() - "<doc></doc>".len()
}

/// How far apart the offsets [`sampled`] keeps are: every fourth by
/// default, all of them once `NWA_PROP_ITERS` is 4 or more.
fn sample_stride() -> usize {
    (4 / prop_iters(1)).max(1)
}

/// Every [`sample_stride`]-th of `offsets`, starting at a `rotation` that
/// callers vary, so that different sweeps keep different offsets.
fn sampled(offsets: &[usize], rotation: usize) -> impl Iterator<Item = usize> + '_ {
    let stride = sample_stride();
    offsets
        .iter()
        .enumerate()
        .filter(move |(i, _)| (i + rotation).is_multiple_of(stride))
        .map(|(_, &at)| at)
}

/// Every invalid sequence inserted at offsets within two bytes of a
/// 64-byte block boundary or of a seam of a `k`-byte lender, and every
/// truncated sequence ending the stream there, for `k` in 1, 2, 7, 63, 64,
/// 65, 4096 and the whole document: the lexer equals the char-level oracle
/// in all four modes on every backend ([`assert_lent_modes_match`]). A
/// 4.4 KB document puts a 4096-byte seam inside it. The offsets are
/// [`sampled`], rotated by `k`; every `k` and every sequence runs.
#[test]
fn bad_bytes_at_block_boundaries_and_lend_seams_match_char_lexer() {
    let short = lent_document(1);
    let long = lent_document(4096 / body_len() + 1);
    assert!(long.len() > 4096, "a 4096-byte seam inside");
    let ab = alphabet_of(long.as_bytes());
    let cases: [(&str, &[usize]); 2] = [
        (&short, &[1, 2, 7, 63, 64, 65, 4096, usize::MAX]),
        (&long, &[4096]),
    ];
    let mut checked = 0;
    for (doc, ks) in cases {
        let doc = doc.as_bytes();
        for &k in ks {
            let k = k.min(doc.len());
            let mut offsets: Vec<usize> = near_multiples(64, doc.len())
                .chain(near_multiples(k, doc.len()))
                .collect();
            offsets.sort_unstable();
            offsets.dedup();
            for at in sampled(&offsets, k) {
                for bytes in spoiled(doc, at) {
                    let label = format!("{:?} at {at}", &bytes[at..(at + 3).min(bytes.len())]);
                    let err = assert_lent_modes_match(&bytes, k, &ab, &label);
                    assert!(err.is_some_and(|e| e.contains("Utf8")), "{label}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked * sample_stride() > 3000, "{checked} cases");
}

/// A document over two `SCAN_CHUNK` buffers long, lent in `SCAN_CHUNK`-byte
/// buffers: the token the first seam cuts is carried, the source is then
/// read into the carried window, and the window's own end cuts tokens in
/// turn. Shifted by every ninth offset in 0..64, the document's constructs
/// cross both seams; and each invalid and truncated sequence at offsets
/// within two bytes of each seam. The shifts and offsets are [`sampled`];
/// all four modes, every backend.
#[test]
fn scan_chunk_buffers_carry_cut_tokens_like_the_char_lexer() {
    let doc = lent_document(2 * SCAN_CHUNK / body_len() + 1);
    assert!(doc.len() > 2 * SCAN_CHUNK, "two seams inside");
    let ab = alphabet_of(doc.as_bytes());
    let shifts: Vec<usize> = (0..64).step_by(9).collect();
    for shift in sampled(&shifts, 0) {
        let shifted = format!("{}{doc}", " ".repeat(shift));
        let err = assert_lent_modes_match(
            shifted.as_bytes(),
            SCAN_CHUNK,
            &ab,
            &format!("shift {shift}"),
        );
        assert_eq!(err, None, "shift {shift}");
    }
    let doc = doc.as_bytes();
    let offsets: Vec<usize> = near_multiples(SCAN_CHUNK, doc.len())
        .filter(|&at| at < doc.len())
        .collect();
    for at in sampled(&offsets, 1) {
        for bytes in spoiled(doc, at) {
            let label = format!("{:?} at {at}", &bytes[at..(at + 3).min(bytes.len())]);
            let err = assert_lent_modes_match(&bytes, SCAN_CHUNK, &ab, &label);
            assert!(err.is_some_and(|e| e.contains("Utf8")), "{label}");
        }
    }
}
