//! Document queries compiled to deterministic nested word automata and
//! evaluated in a streaming fashion.
//!
//! Two query families from the paper's motivation (§1):
//!
//! * **patterns in document order** — `Σ* p₁ Σ* … pₙ Σ*` over the linear
//!   order of the document; the query that word automata handle with
//!   linearly many states while bottom-up tree automata need exponentially
//!   many (experiment E14);
//! * **structural queries** — "some element with tag `t` occurs at depth
//!   ≤ d" / "the document nests deeper than d", which genuinely use the
//!   hierarchical structure.

use crate::sax::{Projection, SaxError};
use crate::scan::BulkLexer;
use automata_core::{query, Forms, MultiAcceptor, QuerySetRun, StreamAcceptor, StreamRun};
use nested_words::{Alphabet, NestedWord, NestedWordError, Symbol, TaggedSymbol};
use nwa::automaton::Nwa;
use nwa::flat::from_tagged_dfa;
use std::io;
use word_automata::{Dfa, Regex};

/// Compiles the "patterns appear in this order" query (over document symbol
/// labels, ignoring position kinds) into a flat deterministic NWA via the
/// tagged-alphabet regex Σ̂*...; `sigma` is the document alphabet size.
pub fn patterns_in_order_nwa(patterns: &[Symbol], sigma: usize) -> Nwa {
    // Over Σ̂ a document label `s` can occur as a call, internal or return, so
    // each pattern symbol becomes an alternation of its three tagged copies.
    let tagged_choice = |s: Symbol| {
        Regex::Symbol(TaggedSymbol::Call(s).tagged_index(sigma))
            .union(Regex::Symbol(TaggedSymbol::Internal(s).tagged_index(sigma)))
            .union(Regex::Symbol(TaggedSymbol::Return(s).tagged_index(sigma)))
    };
    let mut r = Regex::any_star();
    for &p in patterns {
        r = r.concat(tagged_choice(p)).concat(Regex::any_star());
    }
    let dfa: Dfa = r.to_min_dfa(3 * sigma);
    from_tagged_dfa(&dfa, sigma)
}

/// Builds a deterministic NWA accepting documents whose nesting depth —
/// [`NestedWord::depth`], the matched-nesting definition of §2.1 — is at
/// most `d`. Pending calls and pending returns contribute nothing, exactly
/// as in [`nested_words::MatchingRelation::depth`]; for the "at most `d`
/// simultaneously open elements" reading (which bounds the streaming stack),
/// use [`open_depth_at_most_nwa`].
///
/// The automaton tracks, per open element, the longest chain of *closed*
/// matched edges nested inside it so far (capped at `d + 1`): a return
/// closing an element with chain value `m` certifies a chain of `m + 1`
/// matched edges. The hierarchical edge carries the enclosing element's
/// accumulator, and top level is a dedicated state `⊥`. Pending vs matched
/// returns are discriminated by the *linear* state, not the hierarchical
/// one: the run is in `⊥` exactly when no element is open (calls always
/// move to an accumulator state, matched returns with `h = ⊥` move back to
/// `⊥`), so a return read in `⊥` is necessarily pending and closes
/// nothing, while a matched return seeing `h = ⊥` is a top-level close.
pub fn depth_at_most_nwa(d: usize, sigma: usize) -> Nwa {
    // states: 0 = ⊥ (top level, initial), 1..=d+1 = accumulator 0..=d,
    // d+2 = dead
    let bottom = 0usize;
    let acc = |m: usize| m + 1;
    let dead = d + 2;
    let mut m = Nwa::new(d + 3, sigma, bottom);
    for q in 0..dead {
        m.set_accepting(q, true);
    }
    m.set_all_transitions_to(dead, dead);
    for a in 0..sigma {
        let a = Symbol(a as u16);
        for q in 0..dead {
            m.set_internal(q, a, q);
            // opening an element starts a fresh chain accumulator and saves
            // the enclosing context on the hierarchical edge
            m.set_call(q, a, acc(0), q);
            for h in 0..d + 3 {
                let target = if h == dead {
                    dead
                } else if q == bottom {
                    // a return seen at top level is pending: no matched edge
                    // closes, the depth is unchanged
                    bottom
                } else {
                    // closing an element with accumulator q-1 certifies a
                    // chain of q matched edges; the enclosing accumulator
                    // (from the hierarchical edge) absorbs it
                    let chain = q; // q = acc(q - 1), chain length = q
                    if chain > d {
                        dead
                    } else if h == bottom {
                        bottom
                    } else {
                        acc(chain.max(h - 1))
                    }
                };
                m.set_return(q, h, a, target);
            }
        }
    }
    m
}

/// Builds a deterministic NWA accepting documents that never have more than
/// `d` simultaneously open elements (calls without a return yet, pending
/// ones included). This bounds the stack a streaming run needs; it differs
/// from [`depth_at_most_nwa`] on ill-formed documents, where open elements
/// may never close and then do not count towards the matched nesting depth.
pub fn open_depth_at_most_nwa(d: usize, sigma: usize) -> Nwa {
    // states 0..=d = number of currently open elements, d+1 = dead
    let dead = d + 1;
    let mut m = Nwa::new(d + 2, sigma, 0);
    for q in 0..=d {
        m.set_accepting(q, true);
    }
    m.set_all_transitions_to(dead, dead);
    for a in 0..sigma {
        let a = Symbol(a as u16);
        for q in 0..=d {
            m.set_internal(q, a, q);
            m.set_call(q, a, if q < d { q + 1 } else { dead }, q);
            for h in 0..d + 2 {
                // a matched return pops back to the open count recorded on
                // the hierarchical edge; a pending return carries the
                // initial state 0, correctly resetting to "nothing open"
                let target = if h <= d { h } else { dead };
                m.set_return(q, h, a, target);
            }
        }
    }
    m
}

/// Builds a deterministic NWA accepting documents that contain at least one
/// element with tag `tag` (as a call position).
pub fn contains_tag_nwa(tag: Symbol, sigma: usize) -> Nwa {
    let mut m = Nwa::new(2, sigma, 0);
    m.set_accepting(1, true);
    for a in 0..sigma {
        let a_sym = Symbol(a as u16);
        for q in 0..2usize {
            let hit = q == 1 || a_sym == tag;
            m.set_internal(q, a_sym, q);
            m.set_call(q, a_sym, usize::from(hit), 0);
            for h in 0..2 {
                m.set_return(q, h, a_sym, q);
            }
        }
    }
    m
}

/// Builds a deterministic NWA accepting documents with an `inner`-labelled
/// element or text event strictly inside an open `outer` element — the
/// XPath-ish `//outer//inner` containment query, and the query family that
/// genuinely needs the hierarchical structure (a word automaton over the
/// linear order cannot tell "inside" from "after").
///
/// "Inside an open `outer`" is tracked through the matching relation: the
/// context (outer open or not) is pushed on every call's hierarchical edge
/// and restored by the matching return. A *pending* return matches no call,
/// so it joins the initial state's base (§3.1) and resets the tracker to top
/// level, exactly like the other structural queries in this zoo. `inner`
/// occurrences counted are calls and internals; a return labelled `inner`
/// closes an element rather than introducing one and does not hit.
pub fn within_nwa(outer: Symbol, inner: Symbol, sigma: usize) -> Nwa {
    // states: 0 = no outer open (initial), 1 = inside an open outer,
    // 2 = hit (accepting sink)
    let mut m = Nwa::new(3, sigma, 0);
    m.set_accepting(2, true);
    for a in 0..sigma {
        let a_sym = Symbol(a as u16);
        // 0: only an outer call moves inside; inner events here do not count
        m.set_internal(0, a_sym, 0);
        m.set_call(0, a_sym, usize::from(a_sym == outer), 0);
        // 1: any inner-labelled call or internal is a hit; otherwise stay
        // inside (nested outers included), saving the context on the edge
        m.set_internal(1, a_sym, if a_sym == inner { 2 } else { 1 });
        m.set_call(1, a_sym, if a_sym == inner { 2 } else { 1 }, 1);
        m.set_internal(2, a_sym, 2);
        m.set_call(2, a_sym, 2, 2);
        for h in 0..3 {
            // closing an element restores the context recorded at its call;
            // a hit is permanent whatever closes
            m.set_return(0, h, a_sym, h);
            m.set_return(1, h, a_sym, h);
            m.set_return(2, h, a_sym, 2);
        }
    }
    m
}

/// Result of a streaming evaluation (re-exported from
/// `automata_core::stream`, where the generic streaming verbs live).
pub type StreamingOutcome = automata_core::StreamOutcome;

/// Runs a deterministic NWA over a materialized document in streaming
/// fashion (one pass, memory proportional to depth) and reports the
/// outcome. Thin wrapper over the generic
/// [`automata_core::query::run_stream`], which accepts any
/// [`StreamAcceptor`] and any event source.
pub fn run_streaming(nwa: &Nwa, document: &NestedWord) -> StreamingOutcome {
    query::run_stream(
        nwa,
        (0..document.len()).map(|i| TaggedSymbol::new(document.kind(i), document.symbol(i))),
    )
}

/// Number of tokenized events buffered between the scanner and the
/// automaton per [`StreamRun::step_slice`] call in
/// [`run_streaming_reader`]. Large enough to amortize the per-slice
/// bookkeeping of the compiled engines' register-resident loops, small
/// enough that the buffer (4 bytes per event, 16 KiB) stays cache-resident
/// beside the reader's buffer ([`crate::scan::SCAN_CHUNK`] for a file).
pub const EVENT_SLICE: usize = 4 * 1024;

/// Runs a streaming acceptor directly over the SAX events of an XML-ish
/// byte stream — any [`io::BufRead`]: an in-memory `&[u8]`, or a file, a
/// socket or a decompressor behind a [`io::BufReader`] (of
/// [`crate::scan::SCAN_CHUNK`] bytes, which the scanner is tuned for) —
/// without ever materializing a string, a tagged word or a nested word:
/// the bytes-in → verdict-out single-pass pipeline of §1. The bulk
/// structural scanner ([`BulkLexer`]) lexes each buffer the reader lends
/// where it lies, copying only a token a buffer's end cuts, and the
/// resulting events are buffered into [`EVENT_SLICE`]-long runs handed to
/// the acceptor's [`StreamRun::step_slice`] bulk entry; memory is the
/// reader's buffer, the carried token, the event buffer, and a stack
/// proportional to the nesting depth.
///
/// The scanner is projected through the acceptor's
/// [`inert_symbols`](StreamAcceptor::inert_symbols) (see [`Projection`]):
/// a text word the acceptor cannot be moved by is read and counted, but
/// never emitted or stepped. For a compiled `contains_tag_nwa` that is
/// every text word. The projection also follows the live run
/// ([`for_each_slice`]): once the run no longer
/// [`reads_text`](StreamRun::reads_text), the scan narrows to tags, and
/// once it no longer [`reads_names`](StreamRun::reads_names) (a compiled
/// engine that has settled in an absorbing state), to structure: tags are
/// read by form alone and handed over as [`Forms`]
/// ([`StreamRun::step_forms`]). Acceptors that keep the default empty
/// projection and always read names (interpreted models) see every event.
/// The outcome's `events` counts every event read, dropped ones included,
/// so it is the same either way.
///
/// The automaton must be compiled against `alphabet` (the usual flow:
/// tokenize once, compile the query with `sigma = alphabet.len()`, then
/// stream); `alphabet` is only read, never mutated, so the guards below
/// hold across repeated calls with the same query. A name outside it
/// would index out of the transition tables, so:
///
/// * an unknown **tag** fails with [`NestedWordError::UnknownSymbol`]
///   (wrapped in [`SaxError::Syntax`]) exactly when it is read while the
///   run still reads names — an interpreted run always does, so it fails
///   on every unknown tag. After the run has settled, such a tag is read
///   by form, and the outcome is that of the document with the tag renamed
///   to any alphabet tag. Whether a document errors therefore depends only
///   on where the run settles, not on slice boundaries, read sizes or the
///   scan backend;
/// * an unknown **text word** fails the same way under the empty
///   projection, but under any other it is inert — no artifact can read a
///   symbol outside its alphabet — so it is dropped and counted, and the
///   outcome is that of the document with the word renamed to an inert
///   one, wherever the scan narrows.
///
/// Invalid or truncated UTF-8, the lexical errors and I/O failures surface
/// as the corresponding typed [`SaxError`]s in every mode.
pub fn run_streaming_reader<A: StreamAcceptor, R: io::BufRead>(
    a: &A,
    reader: R,
    alphabet: &Alphabet,
) -> Result<StreamingOutcome, SaxError> {
    let mut run = a.start();
    let dropped = for_each_slice(reader, alphabet, a.inert_symbols(), |slice| {
        feed(&mut run, slice)
    })?;
    Ok(StreamingOutcome {
        accepted: run.is_accepting(),
        events: run.steps() + dropped,
        peak_memory: run.peak_memory(),
    })
}

/// The multi-query spelling of [`run_streaming_reader`]: one tokenization
/// pass over the byte stream decides **all** member queries of a compiled
/// set ([`MultiAcceptor`], e.g. `nwa::QuerySet`), returning one
/// [`StreamingOutcome`] per query in query order.
///
/// This is the point of the multi-query subsystem: tokenization dominates
/// the bytes-to-verdict pipeline, so M queries answered off one scan cost
/// barely more than one — where M sequential [`run_streaming_reader`] calls
/// would re-scan the same bytes M times. Alphabet
/// discipline and projection are identical to the single-query path: the
/// scanner drops the text words inert in *every* member (the set's
/// [`inert_symbols`](StreamAcceptor::inert_symbols)) and text words
/// outside `alphabet`, narrows to tags once the last member that reads
/// text has settled (text-blind members such as depth bounds may still be
/// live), and to structure once every member has. Every outcome's
/// `events` still counts every event read, `alphabet` is never mutated, an
/// unknown tag read before every member has settled surfaces as
/// [`NestedWordError::UnknownSymbol`] (after that it decides like any
/// alphabet tag), and the set must be compiled with
/// `sigma = alphabet.len()`.
pub fn run_multi_streaming_reader<S: MultiAcceptor, R: io::BufRead>(
    set: &S,
    reader: R,
    alphabet: &Alphabet,
) -> Result<Vec<StreamingOutcome>, SaxError> {
    let mut run = set.start_set();
    let dropped = for_each_slice(reader, alphabet, set.inert_symbols(), |slice| {
        feed(&mut run, slice)
    })?;
    let mut outcomes = run.outcomes();
    for outcome in &mut outcomes {
        outcome.events += dropped;
    }
    Ok(outcomes)
}

/// Hands one [`for_each_slice`] slice to `run` and reports what it reads
/// now.
fn feed<S: StreamRun>(run: &mut S, slice: Slice<'_>) -> Reads {
    match slice {
        Slice::Events(events) => run.step_slice(events),
        Slice::Forms(forms) => run.step_forms(forms),
    }
    Reads::of(run)
}

/// How much of the stream a [`for_each_slice`] consumer still reads. It
/// only ever narrows, in this order: a later answer wider than an earlier
/// one is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reads {
    /// Every event the projection keeps, text words included.
    Text,
    /// Tags only: every text word is dropped unresolved, as under a
    /// drop-all projection.
    Tags,
    /// Tag forms only: no name is resolved, and the consumer is handed
    /// [`Slice::Forms`] from then on.
    Structure,
}

impl Reads {
    /// What `run` still reads: its [`reads_names`](StreamRun::reads_names)
    /// and [`reads_text`](StreamRun::reads_text) observables.
    pub fn of<S: StreamRun + ?Sized>(run: &S) -> Reads {
        if !run.reads_names() {
            Reads::Structure
        } else if !run.reads_text() {
            Reads::Tags
        } else {
            Reads::Text
        }
    }
}

/// One run of the stream that [`for_each_slice`] hands its consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice<'a> {
    /// Up to [`EVENT_SLICE`] events, in stream order.
    Events(&'a [TaggedSymbol]),
    /// Up to about [`EVENT_SLICE`] tag events known by their forms alone,
    /// once the consumer reads [`Reads::Structure`].
    Forms(Forms),
}

/// The one bytes → event-slice loop behind [`run_streaming_reader`],
/// [`run_multi_streaming_reader`] and `nwa-service`'s `submit_bytes`:
/// sweeps `reader` with a [`BulkLexer`] looking names up in the read-only
/// `alphabet` under the projection `inert` (see [`Projection`]; an empty
/// slice drops nothing, as a [`FrozenByteTokenizer`](crate::sax::FrozenByteTokenizer)
/// would) and hands the stream to `sink` in stream order, as runs of at
/// most [`EVENT_SLICE`] events.
///
/// `sink` returns what its consumer still [`Reads`]. It is first called
/// with an empty slice, before anything is read, and after that once per
/// run. Its answers narrow the scan, one way, from the next run on:
///
/// * [`Reads::Tags`]: every text word is dropped unresolved, as under a
///   drop-all projection;
/// * [`Reads::Structure`]: no name is resolved either. Stage 1 classifies
///   as in drop-all and folds each tag's form (call or return) into a
///   [`Forms`] summary as it goes, with no tape, no name lookup and no
///   event, and `sink` is handed [`Slice::Forms`] instead of events.
///
/// A sink that always returns [`Reads::Text`] keeps the projection fixed
/// and is only ever handed events.
///
/// **Unknown tags.** A tag outside `alphabet` fails the scan with
/// [`NestedWordError::UnknownSymbol`] iff it is read while `sink` still
/// reads names. At such a tag the scan hands over the events before it,
/// asks `sink` again, and, if the answer is [`Reads::Structure`], resumes
/// at that same tag in structure mode instead of failing: the outcome does
/// not depend on slice boundaries, read sizes or the scan backend. Every
/// other error is final, and each mode keeps every syntax check.
///
/// Returns the number of text words dropped: read from the stream, never
/// handed to `sink`. Events read are the events handed over, plus the
/// forms' events, plus that count. A non-empty projection drops the text
/// words `inert` marks and those outside `alphabet`; when it marks every
/// symbol of `alphabet`, no text word is resolved at all. Stops at the
/// first final error, which is returned after what was lexed before it
/// has been handed over.
pub fn for_each_slice<R: io::BufRead>(
    reader: R,
    alphabet: &Alphabet,
    inert: &[bool],
    mut sink: impl FnMut(Slice<'_>) -> Reads,
) -> Result<usize, SaxError> {
    let mut tokenizer = BulkLexer::new(reader, Projection::new(alphabet, inert));
    let mut buffer: Vec<TaggedSymbol> = Vec::with_capacity(EVENT_SLICE);
    let mut reads = sink(Slice::Events(&[]));
    while reads != Reads::Structure {
        if reads == Reads::Tags {
            tokenizer.narrow_to_tags();
        }
        let filled = tokenizer.fill(&mut buffer, EVENT_SLICE);
        if buffer.is_empty() {
            return filled.map(|()| tokenizer.dropped());
        }
        reads = reads.max(sink(Slice::Events(&buffer)));
        buffer.clear();
        if let Err(e) = filled {
            // Only an unknown tag met while names were still read can be
            // read past, and only once they no longer are.
            if reads != Reads::Structure || !tokenizer.narrow_to_structure() {
                return Err(e);
            }
        }
    }
    tokenizer.narrow_to_structure();
    loop {
        let mut forms = Forms::default();
        let filled = tokenizer.fill_forms(&mut forms, EVENT_SLICE);
        if forms.events == 0 {
            return filled.map(|()| tokenizer.dropped());
        }
        sink(Slice::Forms(forms));
        filled?;
    }
}

/// [`run_streaming_reader`] over an in-memory text: the same byte-level
/// pipeline driven from `text.as_bytes()`. Since the input is already valid
/// UTF-8 held in memory, the only reachable failures are syntactic, so they
/// come back as plain [`NestedWordError`]s.
pub fn run_streaming_text<A: StreamAcceptor>(
    a: &A,
    text: &str,
    alphabet: &Alphabet,
) -> Result<StreamingOutcome, NestedWordError> {
    run_streaming_reader(a, text.as_bytes(), alphabet).map_err(SaxError::into_syntax)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_deep_document, generate_document, DocumentConfig};
    use crate::sax::parse_document;
    use nested_words::Alphabet;

    #[test]
    fn patterns_in_order_on_documents() {
        let mut ab = Alphabet::new();
        let doc = parse_document("<doc><a>x</a><b>y</b></doc>", &mut ab).unwrap();
        let x = ab.lookup("x").unwrap();
        let y = ab.lookup("y").unwrap();
        let sigma = ab.len();
        let q_xy = patterns_in_order_nwa(&[x, y], sigma);
        let q_yx = patterns_in_order_nwa(&[y, x], sigma);
        assert!(q_xy.accepts(&doc));
        assert!(!q_yx.accepts(&doc));
        assert!(q_xy.is_flat());
    }

    #[test]
    fn depth_query() {
        let mut ab = Alphabet::new();
        let shallow = parse_document("<a><b>t</b></a>", &mut ab).unwrap();
        let deep = parse_document("<a><b><a><b>t</b></a></b></a>", &mut ab).unwrap();
        let sigma = ab.len();
        let q = depth_at_most_nwa(2, sigma);
        assert!(q.accepts(&shallow));
        assert!(!q.accepts(&deep));
    }

    #[test]
    fn contains_tag_query() {
        let mut ab = Alphabet::new();
        let doc = parse_document("<doc><sec>t</sec></doc>", &mut ab).unwrap();
        let sec = ab.lookup("sec").unwrap();
        let doc_tag = ab.lookup("doc").unwrap();
        let t = ab.lookup("t").unwrap();
        let sigma = ab.len();
        assert!(contains_tag_nwa(sec, sigma).accepts(&doc));
        assert!(contains_tag_nwa(doc_tag, sigma).accepts(&doc));
        // `t` occurs only as text, not as an element tag
        assert!(!contains_tag_nwa(t, sigma).accepts(&doc));
    }

    #[test]
    fn depth_query_agrees_with_nested_word_depth() {
        // Regression for the matched-nesting semantics: this fragment has
        // depth() == 1 (one matched edge), but the old automaton counted the
        // four pending calls as depth and rejected it at d = 3.
        let mut ab = Alphabet::new();
        let doc = parse_document("<a><a><a></x><a><a>", &mut ab).unwrap();
        assert_eq!(doc.depth(), 1);
        let sigma = ab.len();
        for d in 0..4 {
            assert_eq!(
                depth_at_most_nwa(d, sigma).accepts(&doc),
                doc.depth() <= d,
                "d = {d}"
            );
        }

        // Randomized pinning: the automaton and NestedWord::depth() must
        // agree on arbitrary documents, pending edges included.
        use nested_words::generate::{random_nested_word, NestedWordConfig};
        let ab = Alphabet::with_size(3);
        let cfg = NestedWordConfig {
            len: 40,
            allow_pending: true,
            ..Default::default()
        };
        for seed in 0..100u64 {
            let w = random_nested_word(&ab, cfg, seed);
            for d in 0..5 {
                assert_eq!(
                    depth_at_most_nwa(d, ab.len()).accepts(&w),
                    w.depth() <= d,
                    "seed {seed}, d = {d}, word {:?}",
                    w.to_tagged()
                );
            }
        }
    }

    #[test]
    fn open_depth_query_counts_pending_calls() {
        let mut ab = Alphabet::new();
        let doc = parse_document("<a><a><a></x><a><a>", &mut ab).unwrap();
        let sigma = ab.len();
        // four elements are simultaneously open at the end
        assert!(!open_depth_at_most_nwa(3, sigma).accepts(&doc));
        assert!(open_depth_at_most_nwa(4, sigma).accepts(&doc));
        // on well-matched documents the two notions coincide
        let well = parse_document("<a><b><c></c></b></a>", &mut ab).unwrap();
        let sigma = ab.len();
        for d in 0..5 {
            assert_eq!(
                depth_at_most_nwa(d, sigma).accepts(&well),
                open_depth_at_most_nwa(d, sigma).accepts(&well),
                "d = {d}"
            );
        }
    }

    #[test]
    fn within_query_needs_the_hierarchy() {
        let mut ab = Alphabet::new();
        let inside = parse_document("<o><x><i>t</i></x></o>", &mut ab).unwrap();
        let after = parse_document("<o></o><i>t</i>", &mut ab).unwrap();
        let elsewhere = parse_document("<x><i>t</i></x>", &mut ab).unwrap();
        let o = ab.lookup("o").unwrap();
        let i = ab.lookup("i").unwrap();
        let t = ab.lookup("t").unwrap();
        let sigma = ab.len();
        let q = within_nwa(o, i, sigma);
        assert!(q.accepts(&inside));
        // linearly "o ... i" but the o element is already closed
        assert!(!q.accepts(&after));
        assert!(!q.accepts(&elsewhere));
        // text events count as inner occurrences too
        assert!(within_nwa(o, t, sigma).accepts(&inside));
        // a pending return closing nothing resets to top level
        let pending = parse_document("<o></x><i>t</i>", &mut ab).unwrap();
        assert!(!within_nwa(o, i, ab.len()).accepts(&pending));
    }

    #[test]
    fn multi_streaming_reader_matches_per_query_runs() {
        use nwa::QuerySet;

        let text = r#"<doc><sec n="1">hello</sec><sec n="2">world</sec></doc>"#;
        let mut ab = Alphabet::new();
        crate::sax::tokenize(text, &mut ab).unwrap();
        let sec = ab.lookup("sec").unwrap();
        let doc_tag = ab.lookup("doc").unwrap();
        let hello = ab.lookup("hello").unwrap();
        let sigma = ab.len();
        let queries = [
            contains_tag_nwa(sec, sigma),
            contains_tag_nwa(hello, sigma), // text only, never a tag: rejects
            within_nwa(doc_tag, hello, sigma),
            depth_at_most_nwa(1, sigma),
        ];
        let set = QuerySet::compile(&queries);
        let outcomes = run_multi_streaming_reader(&set, text.as_bytes(), &ab).unwrap();
        assert_eq!(outcomes.len(), queries.len());
        for (q, outcome) in queries.iter().zip(&outcomes) {
            let solo = run_streaming_text(q, text, &ab).unwrap();
            assert_eq!(*outcome, solo);
        }
        assert_eq!(
            outcomes.iter().map(|o| o.accepted).collect::<Vec<_>>(),
            [true, false, true, false]
        );

        // Unknown names are rejected up front without touching the alphabet.
        let err =
            run_multi_streaming_reader(&set, "<doc><intruder/></doc>".as_bytes(), &ab).unwrap_err();
        assert!(matches!(
            err,
            SaxError::Syntax(NestedWordError::UnknownSymbol { ref name }) if name == "intruder"
        ));
        assert_eq!(ab.len(), sigma);
    }

    #[test]
    fn streaming_text_runs_without_materializing() {
        let text = r#"<doc><sec n="1">hello</sec><sec n="2">world</sec></doc>"#;
        // First pass builds the alphabet; then compile and stream.
        let mut ab = Alphabet::new();
        crate::sax::tokenize(text, &mut ab).unwrap();
        let sec = ab.lookup("sec").unwrap();
        let q = contains_tag_nwa(sec, ab.len());
        let outcome = run_streaming_text(&q, text, &ab).unwrap();
        assert!(outcome.accepted);
        assert_eq!(outcome.events, 8);
        assert_eq!(outcome.peak_memory, 2);
        // and it agrees with the materialized path
        let mut ab2 = Alphabet::new();
        let doc = parse_document(text, &mut ab2).unwrap();
        assert_eq!(run_streaming(&q, &doc), outcome);
    }

    #[test]
    fn streaming_reader_runs_bytes_to_verdict() {
        use automata_core::Compile;

        /// Hands out one byte per read call: every multi-byte boundary is a
        /// split boundary.
        struct OneByteReader<'a>(&'a [u8], usize);
        impl std::io::Read for OneByteReader<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 == self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }

        let text = "<doc><sec>héllo</sec><sec>wörld</sec></doc>";
        let mut ab = Alphabet::new();
        crate::sax::tokenize(text, &mut ab).unwrap();
        let q = contains_tag_nwa(ab.lookup("sec").unwrap(), ab.len());

        let from_text = run_streaming_text(&q, text, &ab).unwrap();
        let from_bytes = run_streaming_reader(
            &q,
            std::io::BufReader::with_capacity(1, OneByteReader(text.as_bytes(), 0)),
            &ab,
        )
        .unwrap();
        assert_eq!(from_bytes, from_text);
        assert!(from_bytes.accepted);

        // The compiled artifact runs the same byte pipeline.
        let compiled = q.compile();
        let from_compiled = run_streaming_reader(
            &compiled,
            std::io::BufReader::with_capacity(1, OneByteReader(text.as_bytes(), 0)),
            &ab,
        )
        .unwrap();
        assert_eq!(from_compiled, from_text);

        // Broken bytes surface as typed errors, not panics.
        let err = run_streaming_reader(
            &q,
            std::io::BufReader::with_capacity(1, OneByteReader(b"<doc>\xFF</doc>", 0)),
            &ab,
        )
        .unwrap_err();
        assert!(matches!(err, crate::sax::SaxError::InvalidUtf8 { .. }));
    }

    #[test]
    fn streaming_text_rejects_symbols_outside_the_alphabet() {
        // The query was compiled against an alphabet that lacks "intruder";
        // the streaming run must surface a typed error, not index out of
        // the automaton's tables.
        let mut ab = Alphabet::new();
        crate::sax::tokenize("<doc>t</doc>", &mut ab).unwrap();
        let sigma = ab.len();
        let q = contains_tag_nwa(ab.lookup("doc").unwrap(), sigma);
        let err = run_streaming_text(&q, "<doc><intruder/></doc>", &ab).unwrap_err();
        assert!(matches!(
            err,
            NestedWordError::UnknownSymbol { ref name } if name == "intruder"
        ));
        // The caller's alphabet is untouched, so a repeated call still
        // reports the error instead of letting the now-interned name index
        // past the automaton's tables.
        assert_eq!(ab.len(), sigma);
        assert!(ab.lookup("intruder").is_none());
        let err2 = run_streaming_text(&q, "<doc><intruder/></doc>", &ab).unwrap_err();
        assert!(matches!(err2, NestedWordError::UnknownSymbol { .. }));
    }

    #[test]
    fn streaming_memory_tracks_depth_not_length() {
        let (ab, doc) = generate_document(
            DocumentConfig {
                events: 5_000,
                max_depth: 8,
                ..Default::default()
            },
            1,
        );
        let q = depth_at_most_nwa(8, ab.len());
        let outcome = run_streaming(&q, &doc);
        assert!(outcome.accepted);
        assert!(outcome.events >= 5_000);
        assert!(outcome.peak_memory <= 8);

        let (ab2, deep) = generate_deep_document(200, 4);
        let q2 = contains_tag_nwa(Symbol(2), ab2.len());
        let outcome2 = run_streaming(&q2, &deep);
        assert_eq!(outcome2.peak_memory, 200);
        assert!(outcome2.accepted);
    }
}
