//! # nwa-xml
//!
//! The document-processing application layer of the reproduction of
//! "Marrying Words and Trees" (PODS 2007). The paper's motivating example is
//! SAX processing of XML: the document is already a linear stream of
//! open-tags, text and close-tags, i.e. a tagged word, and can therefore be
//! interpreted as a nested word *without any preprocessing* (§1).
//!
//! The crate provides
//!
//! * SAX-style tokenizers from a lightweight XML-ish syntax to nested words
//!   ([`sax`]): byte-level over any `io::BufRead` ([`sax::ByteTokenizer`],
//!   plus [`sax::FrozenByteTokenizer`] for lexing against a read-only
//!   alphabet pinned by a compiled automaton) and the batch conveniences
//!   [`sax::tokenize`] / [`sax::parse_document`] over a `&str`, all running
//!   on the one bulk structural scanner of [`scan`] (each buffer lexed in
//!   place, UTF-8 validated only where a block is not proven ASCII,
//!   whole-run classification),
//! * a synthetic document generator with controllable size and depth
//!   ([`generate`]),
//! * document queries (patterns in document order, tag containment, depth
//!   bounds) compiled to deterministic nested word automata and evaluated in
//!   a streaming fashion with memory proportional to the document depth
//!   ([`queries`]), including the bytes-in → verdict-out pipeline
//!   ([`queries::run_streaming_reader`]), which buffers scanned events into
//!   slices and feeds the compiled engines' bulk entry points, and its
//!   multi-query counterpart ([`queries::run_multi_streaming_reader`]): one
//!   tokenization pass deciding a whole compiled query set,
//! * a query-combinator layer ([`expr`]): zoo primitives composed with
//!   `and`/`or`/`not` and lowered to one deterministic NWA through the
//!   `automata-core` boolean constructions.

// Unsafe code is denied crate-wide. Two modules of `scan` carry a scoped
// allow, with a `SAFETY:` comment on every block: `kernel` (the stage-1
// kernels and the append sink) and `lend` (a split's parts read in place by
// the helper threads, only under a claim the lender waits out).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod expr;
pub mod generate;
pub mod queries;
pub mod sax;
pub mod scan;
