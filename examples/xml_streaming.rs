//! Streaming document processing: compile queries to deterministic NWAs and
//! evaluate them over SAX event streams in a single pass with memory
//! proportional to the nesting depth (§1 of the paper and experiments
//! E14/E15) — via the `automata-core` `StreamAcceptor` trait and the
//! incremental byte-level `sax::ByteTokenizer`, which never materialize the
//! document (`run_streaming_text` / `run_streaming_reader` are the
//! bytes-in → verdict-out pipeline), plus the `Compile`d dense-table
//! engine on the same streams.
//!
//! Run with `cargo run --release --example xml_streaming`.

use nested_words_suite::nwa_xml::generate::{generate_document, DocumentConfig};
use nested_words_suite::nwa_xml::queries::{
    contains_tag_nwa, depth_at_most_nwa, patterns_in_order_nwa, run_streaming,
    run_streaming_reader, run_streaming_text,
};
use nested_words_suite::nwa_xml::sax::{parse_document, to_xml};
use nested_words_suite::prelude::*;
use nested_words_suite::query;

fn main() {
    // A small hand-written document (attributes are understood and ignored).
    let mut ab = Alphabet::new();
    let text = "<library><book id=\"1\">moby dick</book><book id=\"2\">nested words</book><shelf/></library>";
    let doc = parse_document(text, &mut ab).unwrap();
    println!(
        "document: {} events, depth {}, well-matched: {}",
        doc.len(),
        doc.depth(),
        doc.is_well_matched()
    );

    let book = ab.lookup("book").unwrap();
    let moby = ab.lookup("moby").unwrap();
    let nested = ab.lookup("nested").unwrap();
    let sigma = ab.len();

    let q1 = contains_tag_nwa(book, sigma);
    let q2 = patterns_in_order_nwa(&[moby, nested], sigma);
    let q3 = patterns_in_order_nwa(&[nested, moby], sigma);
    let q4 = depth_at_most_nwa(1, sigma);
    // The alphabet already holds every symbol of `text`, so the incremental
    // tokenizer re-runs the document as a pure event stream.
    println!(
        "contains <book>?                 {}",
        run_streaming_text(&q1, text, &ab).unwrap().accepted
    );
    println!(
        "'moby' before 'nested'?          {}",
        run_streaming_text(&q2, text, &ab).unwrap().accepted
    );
    println!(
        "'nested' before 'moby'?          {}",
        run_streaming_text(&q3, text, &ab).unwrap().accepted
    );
    println!(
        "nesting depth at most 1?         {}",
        run_streaming_text(&q4, text, &ab).unwrap().accepted
    );

    // A large synthetic document, processed three ways: batch membership on
    // the materialized nested word, streaming over its events, and fully
    // incrementally from the serialized XML text.
    let (gen_ab, big) = generate_document(
        DocumentConfig {
            events: 200_000,
            max_depth: 32,
            ..Default::default()
        },
        42,
    );
    let tag = gen_ab.lookup("t3").unwrap();
    let q = contains_tag_nwa(tag, gen_ab.len());

    let outcome = run_streaming(&q, &big);
    println!(
        "synthetic document: {} events processed, peak stack {} entries, query result {}",
        outcome.events, outcome.peak_memory, outcome.accepted
    );
    assert_eq!(outcome.accepted, query::contains(&q, &big));

    let xml = to_xml(&big, &gen_ab);
    let incremental = run_streaming_text(&q, &xml, &gen_ab).unwrap();
    assert_eq!(incremental.accepted, outcome.accepted);
    println!(
        "incremental pass over {} bytes of XML: peak memory {} stack entries (depth), \
         not {} positions (length)",
        xml.len(),
        incremental.peak_memory,
        incremental.events
    );

    // The byte-level pipeline: the same query driven straight off an
    // `io::BufRead` (here the in-memory bytes, lexed in place; a file or
    // socket goes in behind a `BufReader`) through the bulk structural
    // scanner — bytes in, verdict out.
    let from_bytes = run_streaming_reader(&q, xml.as_bytes(), &gen_ab).unwrap();
    assert_eq!(from_bytes, incremental);
    println!(
        "byte-level pass (bulk scanner over io::BufRead): same verdict {}, same peak {}",
        from_bytes.accepted, from_bytes.peak_memory
    );

    // The compiled dense-table engine: same language, same byte pipeline,
    // premultiplied u32 tables instead of the interpreted dispatch. Timed,
    // because this is the end-to-end bytes_to_verdict hot path (E15c).
    let compiled = query::compile(&q);
    let start = std::time::Instant::now();
    let reps = 20u32;
    let mut from_compiled = run_streaming_reader(&compiled, xml.as_bytes(), &gen_ab).unwrap();
    for _ in 1..reps {
        from_compiled = run_streaming_reader(&compiled, xml.as_bytes(), &gen_ab).unwrap();
    }
    let elapsed = start.elapsed();
    assert_eq!(from_compiled, incremental);
    let mb_s = (xml.len() as f64 * f64::from(reps)) / elapsed.as_secs_f64() / 1e6;
    println!(
        "compiled dense-table run ({} bytes of tables): same verdict {}, {:.0} MB/s bytes-to-verdict",
        compiled.table_bytes(),
        from_compiled.accepted,
        mb_s
    );

    // The same events drive a nondeterministic automaton through the same
    // trait: the on-the-fly subset construction keeps one summary per open
    // element — and its compiled form memoizes every distinct subset step.
    let n = Nnwa::from_deterministic(&q);
    let stream_events = (0..big.len()).map(|i| TaggedSymbol::new(big.kind(i), big.symbol(i)));
    println!(
        "nondeterministic run over the same stream: accepted {}",
        query::contains_stream(&n, stream_events)
    );
    let compiled_n = query::compile(&n);
    let stream_events = (0..big.len()).map(|i| TaggedSymbol::new(big.kind(i), big.symbol(i)));
    println!(
        "compiled subset engine over the same stream: accepted {}, {} summaries memoized",
        query::contains_stream(&compiled_n, stream_events),
        compiled_n.cached_summaries()
    );
}
