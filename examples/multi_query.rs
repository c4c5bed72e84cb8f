//! Multi-query execution: author a set of document queries with the
//! combinator layer (`query::expr`), compile all of them into **one**
//! artifact (`query::compile_set` — a `QuerySet` of compiled engines with
//! per-state verdict masks: one shared product engine for a small set, one
//! engine per query past a table-size cap), and decide every query in
//! a single tokenization pass over the byte stream
//! (`query::run_multi_streaming_reader`). The same set then serves
//! concurrent callers through `DecisionService::submit_multi`, and ships
//! as versioned bytes through the persistence verbs: the saved image is
//! written to `target/artifacts/query_set.nwsa`.
//!
//! Run with `cargo run --release --example multi_query`.

use nested_words_suite::nwa_xml::generate::{generate_document, DocumentConfig};
use nested_words_suite::nwa_xml::sax::to_xml;
use nested_words_suite::prelude::*;
use nested_words_suite::query;
use nested_words_suite::query::expr::Query;

fn main() {
    // A synthetic document library: one alphabet, many queries over it.
    let (ab, doc) = generate_document(
        DocumentConfig {
            events: 100_000,
            max_depth: 32,
            ..Default::default()
        },
        7,
    );
    let xml = to_xml(&doc, &ab);
    let sigma = ab.len();
    let t0 = ab.lookup("t0").unwrap();
    let t1 = ab.lookup("t1").unwrap();
    let t2 = ab.lookup("t2").unwrap();
    let t3 = ab.lookup("t3").unwrap();

    // Author queries with the combinator layer: zoo primitives composed
    // under and/or/not, each lowered to one deterministic NWA.
    let authored = [
        ("contains <t2>", Query::contains(t2)),
        ("t0 then t3 in order", Query::in_order([t0, t3])),
        ("t1 inside an open t0", Query::within(t0, t1)),
        ("depth ≤ 4", Query::depth_le(4)),
        (
            "t2 inside t0, or shallow",
            Query::within(t0, t2).or(Query::depth_le(2)),
        ),
        (
            "contains t3 but never deeper than 30",
            Query::contains(t3).and(Query::open_depth_le(30)),
        ),
        ("no t1 at all", Query::contains(t1).not()),
    ];
    let lowered: Vec<Nwa> = authored.iter().map(|(_, e)| e.lower(sigma)).collect();

    // One artifact for the whole set; its engine count is picked by table
    // size.
    let set = query::compile_set(&lowered);
    println!(
        "compiled {} queries into one set of {} engine(s) ({} bytes of tables)",
        set.num_queries(),
        set.num_engines(),
        set.table_bytes(),
    );

    // One pass over the bytes answers every query.
    let outcomes = query::run_multi_streaming_reader(&set, xml.as_bytes(), &ab).unwrap();
    println!(
        "one tokenization pass over {} bytes ({} events):",
        xml.len(),
        outcomes[0].events
    );
    for ((name, _), outcome) in authored.iter().zip(&outcomes) {
        println!("  {:<38} {}", name, outcome.accepted);
    }

    // The same verdicts, query by query, cost one pass *each* — the
    // amortization the E19 benchmark gates (one-pass ≥ 2× at M = 16).
    for ((name, _), (q, expected)) in authored.iter().zip(lowered.iter().zip(&outcomes)) {
        let solo = query::run_streaming_reader(&query::compile(q), xml.as_bytes(), &ab).unwrap();
        assert_eq!(solo, *expected, "query {name}");
    }
    println!("per-query sequential passes agree on every verdict");

    // The set is a Persist artifact like any compiled engine: save, ship,
    // reload byte-exactly, and serve.
    let dir = std::path::Path::new("target/artifacts");
    std::fs::create_dir_all(dir).expect("create target/artifacts");
    let path = dir.join("query_set.nwsa");
    std::fs::write(&path, query::save(&set)).expect("write artifact bytes");
    let bytes = std::fs::read(&path).expect("read artifact bytes");
    let reloaded: QuerySet = query::load(&bytes).unwrap();
    assert_eq!(reloaded, set);
    println!(
        "round-tripped the set through {} artifact bytes ({})",
        bytes.len(),
        path.display()
    );

    // Serving: one submission, one queue slot, all verdicts — with the
    // set's alphabet fingerprint validated before queueing.
    let service = DecisionService::new(reloaded, ab.clone(), ServiceConfig::default());
    let handle = service
        .submit_multi(doc.to_tagged())
        .expect("alphabet-validated submission");
    let served = handle.wait().unwrap();
    assert_eq!(
        served.iter().map(|o| o.accepted).collect::<Vec<_>>(),
        outcomes.iter().map(|o| o.accepted).collect::<Vec<_>>(),
    );
    println!(
        "decision service returned all {} verdicts from one submission",
        served.len()
    );
}
