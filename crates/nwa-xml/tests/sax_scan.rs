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

mod oracle;

use std::io;

use nested_words::rng::Prng;
use nested_words::{Alphabet, NestedWordError, TaggedSymbol};
use nwa_xml::generate::{generate_document, DocumentConfig};
use nwa_xml::sax::{to_xml, ByteTokenizer, FrozenByteTokenizer, SaxError};
use nwa_xml::scan::{auto_scan_backend, force_scan_backend, ScanBackend, SCAN_CHUNK};
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
}

impl<'a> SplitReader<'a> {
    fn new(data: &'a [u8], chunk: usize) -> Self {
        SplitReader {
            data,
            pos: 0,
            chunk: chunk.max(1),
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
    let mut ab = Alphabet::new();
    let lexer = EventLexer::new(Utf8Chars::new(SplitReader::new(data, chunk)), &mut ab);
    let drained = drain(lexer);
    named(drained, &ab)
}

/// Subject outcome via the `Iterator` entry point.
fn bulk_iter(data: &[u8], chunk: usize) -> Outcome {
    let mut ab = Alphabet::new();
    let drained = drain(ByteTokenizer::new(SplitReader::new(data, chunk), &mut ab));
    named(drained, &ab)
}

/// Subject outcome via the slice-producing `fill` entry point, pulling in
/// deliberately awkward batch sizes so batching never hides a seam bug.
fn bulk_fill(data: &[u8], chunk: usize, batch: usize) -> Outcome {
    let mut ab = Alphabet::new();
    let mut tok = ByteTokenizer::new(SplitReader::new(data, chunk), &mut ab);
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

#[test]
fn edge_documents_match_char_lexer() {
    let cases: &[&[u8]] = &[
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
    ];
    for (i, case) in cases.iter().enumerate() {
        assert_equivalent(case, &format!("edge case {i}"));
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
                SplitReader::new(doc.as_bytes(), chunk),
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
                let mut tok = ByteTokenizer::new(SplitReader::new(data, chunk), &mut fresh);
                assert_fill_fused(|out| tok.fill(out, out.len() + batch), &label);
                let mut tok = FrozenByteTokenizer::new(SplitReader::new(data, chunk), &ab);
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

/// Simple documents at every one of the 64 block alignments, and across
/// the 64 KiB window seam at shifting offsets, equal the oracle.
#[test]
fn simple_documents_match_char_lexer_at_every_block_alignment() {
    for seed in 0..prop_iters(3) as u64 {
        let doc = simple_document(1_500, seed);
        for shift in 0..64usize {
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
