//! Membership-scaling and streaming experiments (E12, E15 of `DESIGN.md`):
//! deterministic NWA membership is linear in the document length with memory
//! proportional to the depth (§3.2), and document queries run in one pass
//! over SAX-style event streams — either from a materialized nested word or
//! fully incrementally from XML text via `sax::ByteTokenizer`, without ever
//! building the document in memory.
//!
//! E15c adds the compiled execution engines (`query::compile`): interpreted
//! vs dense-table runners for `Nwa`, the tagged `Dfa` and `Nnwa` at
//! 10k/100k/1M events (with an `_live` `Nwa` pair whose query never
//! settles, so the table step stays measured), plus the bytes-in →
//! verdict-out throughput of the byte-level SAX pipeline
//! (`run_streaming_reader`). Running this bench
//! with `--format json` emits the measurements as `BENCH_streaming.json`
//! (see the criterion shim), which CI uploads and gates against the
//! checked-in baseline `BENCH_streaming.json` at the workspace root.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nested_words_suite::nested_words::generate::{deep_word, random_nested_word, NestedWordConfig};
use nested_words_suite::nwa_xml::generate::{
    generate_deep_document, generate_document, DocumentConfig,
};
use nested_words_suite::nwa_xml::queries::{
    contains_tag_nwa, open_depth_at_most_nwa, run_streaming, run_streaming_reader,
    run_streaming_text, within_nwa, EVENT_SLICE,
};
use nested_words_suite::nwa_xml::sax::{parse_document, to_xml, FrozenByteTokenizer, Projection};
use nested_words_suite::nwa_xml::scan::{self, BulkLexer};
use nested_words_suite::prelude::*;
use nested_words_suite::query;
use std::io;
use std::time::Duration;

fn print_tables() {
    println!("== E12: membership is linear in length, memory proportional to depth ==");
    println!("{:>10} {:>8} {:>14}", "events", "depth", "peak stack");
    for depth in [4usize, 64, 512] {
        let (ab, doc) = generate_deep_document(depth, 4);
        let q = open_depth_at_most_nwa(depth, ab.len());
        let outcome = run_streaming(&q, &doc);
        println!(
            "{:>10} {:>8} {:>14}",
            doc.len(),
            doc.depth(),
            outcome.peak_memory
        );
    }

    println!("\n== E15: streaming document queries ==");
    println!(
        "{:>10} {:>10} {:>14} {:>10}",
        "events", "depth cap", "peak stack", "accepted"
    );
    for events in [10_000usize, 100_000] {
        let (ab, doc) = generate_document(
            DocumentConfig {
                events,
                max_depth: 32,
                ..Default::default()
            },
            5,
        );
        let q = contains_tag_nwa(ab.lookup("t0").unwrap(), ab.len());
        let outcome = run_streaming(&q, &doc);
        println!(
            "{:>10} {:>10} {:>14} {:>10}",
            outcome.events, 32, outcome.peak_memory, outcome.accepted
        );
    }
    println!();
}

/// The depth-not-length claim, measured: the materialize-then-run path
/// stores every position of the document before the automaton sees the
/// first event, while the incremental path's live state is one stack entry
/// per open element. Both report the same answer.
fn print_memory_table() {
    println!("== E15b: materialize-then-run vs incremental streaming ==");
    println!(
        "{:>10} {:>12} {:>22} {:>22} {:>8}",
        "events", "xml bytes", "materialized positions", "incremental peak stack", "agree"
    );
    for events in [10_000usize, 100_000, 1_000_000] {
        let (mut ab, doc) = generate_document(
            DocumentConfig {
                events,
                max_depth: 32,
                ..Default::default()
            },
            7,
        );
        let q = contains_tag_nwa(ab.lookup("t1").unwrap(), ab.len());
        let xml = to_xml(&doc, &ab);

        // materialize-then-run: parse the whole document, then decide
        let materialized = parse_document(&xml, &mut ab).unwrap();
        let batch_accepted = query::contains(&q, &materialized);

        // incremental: tokenizer events straight into the automaton
        let incremental = run_streaming_text(&q, &xml, &ab).unwrap();

        println!(
            "{:>10} {:>12} {:>22} {:>22} {:>8}",
            events,
            xml.len(),
            materialized.len(),
            incremental.peak_memory,
            batch_accepted == incremental.accepted
        );
        assert_eq!(batch_accepted, incremental.accepted);
        assert!(incremental.peak_memory <= 32);
    }
    println!();
}

/// The nondeterministic workload of E15c: "some matched call/return pair
/// both labelled b" over {a, b} — a genuine join, so the streaming run is
/// the summary-set subset construction.
fn some_b_block_nnwa() -> Nnwa {
    let a = Symbol(0);
    let b = Symbol(1);
    let mut n = Nnwa::new(3, 2);
    n.add_initial(0);
    n.add_accepting(2);
    for sym in [a, b] {
        n.add_internal(0, sym, 0);
        n.add_internal(2, sym, 2);
        n.add_call(0, sym, 0, 0);
        n.add_call(2, sym, 2, 0);
        for h in [0usize, 1] {
            n.add_return(0, h, sym, 0);
            n.add_return(2, h, sym, 2);
        }
    }
    n.add_call(0, b, 0, 1);
    n.add_return(0, 1, b, 2);
    n
}

/// E15c summary table: one quick pass per engine pair, with the agreement
/// asserted (the criterion groups below provide the recorded numbers).
fn print_compiled_table() {
    println!("== E15c: interpreted vs compiled execution engines ==");
    println!(
        "{:>10} {:>8} {:>22} {:>22} {:>8}",
        "events", "model", "interpreted (Mev/s)", "compiled (Mev/s)", "speedup"
    );
    let mevs = |events: usize, d: Duration| events as f64 / d.as_secs_f64() / 1e6;
    for events in [10_000usize, 100_000, 1_000_000] {
        let (ab, doc) = generate_document(
            DocumentConfig {
                events,
                max_depth: 32,
                ..Default::default()
            },
            7,
        );
        let q = contains_tag_nwa(ab.lookup("t1").unwrap(), ab.len());
        let cq = query::compile(&q);
        let tagged: Vec<TaggedSymbol> = (0..doc.len())
            .map(|i| TaggedSymbol::new(doc.kind(i), doc.symbol(i)))
            .collect();
        let t = std::time::Instant::now();
        let interpreted = query::run_stream(&q, tagged.iter().copied());
        let t_int = t.elapsed();
        let t = std::time::Instant::now();
        let compiled = cq.run_tagged(&tagged);
        let t_comp = t.elapsed();
        assert_eq!(interpreted, compiled);
        println!(
            "{:>10} {:>8} {:>22.0} {:>22.0} {:>7.2}x",
            tagged.len(),
            "nwa",
            mevs(tagged.len(), t_int),
            mevs(tagged.len(), t_comp),
            t_int.as_secs_f64() / t_comp.as_secs_f64()
        );
    }
    println!();
}

/// The scan layer alone: the bytes through `FrozenByteTokenizer::fill` in
/// `EVENT_SLICE` slices, no engine. Returns the event count.
fn tokenize_only(xml: &str, ab: &Alphabet) -> usize {
    let mut tok = FrozenByteTokenizer::new(xml.as_bytes(), ab);
    let mut slice = Vec::with_capacity(EVENT_SLICE);
    let mut events = 0;
    loop {
        slice.clear();
        tok.fill(&mut slice, EVENT_SLICE).unwrap();
        if slice.is_empty() {
            return events;
        }
        events += slice.len();
    }
}

/// The scan layer alone under a compiled query's projection: the bytes
/// through a projected `BulkLexer::fill` in `EVENT_SLICE` slices, no
/// engine. For `contains_tag_nwa` every text word is inert, so this is the
/// drop-all scan `run_streaming_reader` runs. Returns the events read,
/// dropped ones included.
fn tokenize_projected(xml: &str, ab: &Alphabet, inert: &[bool]) -> usize {
    let mut tok = BulkLexer::new(xml.as_bytes(), Projection::new(ab, inert));
    let mut slice = Vec::with_capacity(EVENT_SLICE);
    let mut events = 0;
    loop {
        slice.clear();
        tok.fill(&mut slice, EVENT_SLICE).unwrap();
        if slice.is_empty() {
            return events + tok.dropped();
        }
        events += slice.len();
    }
}

/// A compiled `within(t0, t1)`: it reads text (`t1` is not inert, so its
/// projection is keep-bit) and settles on the first `t1` inside a `t0`,
/// early in every generated document, after which
/// `run_streaming_reader` narrows its scan to tags. Asserts that it
/// settles on `xml`.
fn settling_query(xml: &str, ab: &Alphabet) -> CompiledNwa {
    let t = |name: &str| ab.lookup(name).unwrap();
    let cq = query::compile(&within_nwa(t("t0"), t("t1"), ab.len()));
    assert!(!cq.inert_symbols().iter().all(|&inert| inert), "reads text");
    let outcome = run_streaming_reader(&cq, xml.as_bytes(), ab).unwrap();
    assert!(outcome.accepted, "the settling query never settled");
    cq
}

/// A compiled one-state NWA that accepts everything: its only state is
/// absorbing, so the run has settled before the first byte and
/// `run_streaming_reader` scans the whole document in structure mode —
/// stage 1 and the form walk, no name resolved.
fn settled_query(ab: &Alphabet) -> CompiledNwa {
    let mut all = Nwa::new(1, ab.len(), 0);
    all.set_accepting(0, true);
    all.set_all_transitions_to(0, 0);
    let cq = query::compile(&all);
    assert!(!cq.start().reads_names(), "settled at the start");
    cq
}

/// A byte source that implements only `io::Read`, as a file or a socket
/// does: the scanner takes it through `BufReader::with_capacity(SCAN_CHUNK,
/// _)`: its first buffer is a copy the reader made, lexed in place, and
/// after the token that buffer's end cuts, the source is read straight
/// into the scanner's carried window (`_buffered` rows).
struct ReadOnly<'a>(&'a [u8]);

impl io::Read for ReadOnly<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

/// `xml` through a [`ReadOnly`] source in `SCAN_CHUNK` buffers.
fn buffered(xml: &str) -> io::BufReader<ReadOnly<'_>> {
    io::BufReader::with_capacity(scan::SCAN_CHUNK, ReadOnly(xml.as_bytes()))
}

/// E15c layer table: the 1M-event document through UTF-8 validation alone,
/// the scanner alone (unprojected, and projected through the query's inert
/// symbols), the structure-only scan of a run settled from the start
/// (`bytes_settled_at_start`, and `_buffered` through a [`ReadOnly`]
/// source in `SCAN_CHUNK` buffers), the whole bytes→verdict pipeline, and that
/// pipeline under a query that reads text until it settles
/// (`bytes_settling_reader`), each on the SWAR-pinned and the detected
/// stage-1 backend, in ns/event and ns/byte (fastest of ten passes; the
/// criterion rows below are the recorded numbers).
///
/// A settled scan of an in-memory rest of at least 2 MiB is folded on
/// every free core (`nproc` in the JSON header), so the in-memory
/// structure rows here (`bytes_settled_at_start`, `bytes_compiled`,
/// `bytes_settling_reader`) may run on several threads.
/// `bytes_settled_at_start_buffered` reads 64 KiB buffers, below the split
/// size: it is the single-threaded structure row the layer rows reconcile
/// against. Last come the structure pass's own layers on every kernel
/// this CPU has (`structure_classify`, `_check`, `_fold`: classification,
/// then with the simplicity check, then the whole pass), single-threaded.
///
/// Those rows time passes run back to back, so the 3.69 MB document is in
/// cache. The `_after_pause` rows (`bytes_settled_at_start` on both
/// backends, `structure_fold` on every kernel) time each pass after the
/// calling thread slept [`PAUSE`], by when the document has left the cache
/// as it has between perfbench passes, and report the median of
/// [`PAUSED_PASSES`]. The `cache` column says which is which. No row is
/// gated.
fn print_layer_table() {
    let (ab, doc) = generate_document(
        DocumentConfig {
            events: 1_000_000,
            max_depth: 32,
            ..Default::default()
        },
        7,
    );
    let cq = query::compile(&contains_tag_nwa(ab.lookup("t1").unwrap(), ab.len()));
    let xml = to_xml(&doc, &ab);
    let settling = settling_query(&xml, &ab);
    let settled = settled_query(&ab);
    let (events, bytes) = (doc.len() as f64, xml.len() as f64);
    let fastest = |f: &dyn Fn()| {
        (0..10)
            .map(|_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e9
            })
            .fold(f64::INFINITY, f64::min)
    };
    let after_pause = |f: &dyn Fn()| {
        let mut ns: Vec<f64> = (0..PAUSED_PASSES)
            .map(|_| {
                std::thread::sleep(PAUSE);
                let t = std::time::Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e9
            })
            .collect();
        ns.sort_by(f64::total_cmp);
        ns[ns.len() / 2]
    };
    scan::auto_scan_backend();
    let detected = scan::scan_backend();
    println!(
        "== E15c: per-layer cost, 1M events, {bytes} bytes (detected backend: {detected:?}) =="
    );
    println!(
        "{:>44} {:>12} {:>12} {:>7}",
        "layer", "ns/event", "ns/byte", "cache"
    );
    let print = |label: &str, ns: f64, cache: &str| {
        println!(
            "{label:>44} {:>12.2} {:>12.3} {cache:>7}",
            ns / events,
            ns / bytes
        );
    };
    let row = |label: &str, ns: f64| print(label, ns, "cached");
    let cold_row = |label: &str, ns: f64| print(label, ns, "cold");
    row(
        "utf8_only",
        fastest(&|| {
            black_box(std::str::from_utf8(black_box(xml.as_bytes())).is_ok());
        }),
    );
    for backend in [scan::ScanBackend::Swar, detected] {
        assert!(scan::force_scan_backend(backend));
        row(
            &format!("tokenize_only ({backend:?})"),
            fastest(&|| {
                black_box(tokenize_only(&xml, &ab));
            }),
        );
        row(
            &format!("tokenize_projected ({backend:?})"),
            fastest(&|| {
                black_box(tokenize_projected(&xml, &ab, cq.inert_symbols()));
            }),
        );
        let settled_pass = || {
            black_box(run_streaming_reader(&settled, xml.as_bytes(), &ab).unwrap());
        };
        row(
            &format!("bytes_settled_at_start ({backend:?})"),
            fastest(&settled_pass),
        );
        cold_row(
            &format!("bytes_settled_at_start_after_pause ({backend:?})"),
            after_pause(&settled_pass),
        );
        row(
            &format!("bytes_settled_at_start_buffered ({backend:?})"),
            fastest(&|| {
                black_box(run_streaming_reader(&settled, buffered(&xml), &ab).unwrap());
            }),
        );
        row(
            &format!("bytes_settling_reader ({backend:?})"),
            fastest(&|| {
                black_box(run_streaming_reader(&settling, xml.as_bytes(), &ab).unwrap());
            }),
        );
        row(
            &format!("bytes_compiled ({backend:?})"),
            fastest(&|| {
                black_box(run_streaming_reader(&cq, xml.as_bytes(), &ab).unwrap());
            }),
        );
    }
    // The structure pass's layers alone, single-threaded, on every kernel
    // this CPU has: classification, then with the simplicity check, then
    // with the fold (the whole pass).
    for backend in scan::ScanBackend::ALL {
        if !scan::force_scan_backend(backend) {
            continue;
        }
        for layer in STRUCTURE_LAYERS {
            row(
                &format!("{} ({backend:?})", layer_row(layer)),
                fastest(&|| {
                    black_box(scan::structure_layer(black_box(xml.as_bytes()), layer));
                }),
            );
        }
        let fold = scan::StructureLayer::Fold;
        cold_row(
            &format!("{}_after_pause ({backend:?})", layer_row(fold)),
            after_pause(&|| {
                black_box(scan::structure_layer(black_box(xml.as_bytes()), fold));
            }),
        );
    }
    scan::auto_scan_backend();
    println!();
}

/// How long the calling thread sleeps before each pass of an
/// `_after_pause` row: as long as the single-threaded yardstick perfbench
/// runs before each pass.
const PAUSE: Duration = Duration::from_millis(50);

/// The passes an `_after_pause` row takes the median of.
const PAUSED_PASSES: usize = 31;

/// The layers of the structure pass the E15c rows time alone.
const STRUCTURE_LAYERS: [scan::StructureLayer; 3] = [
    scan::StructureLayer::Classify,
    scan::StructureLayer::Check,
    scan::StructureLayer::Fold,
];

/// The row name of one structure layer: `structure_classify`, `_check` or
/// `_fold`.
fn layer_row(layer: scan::StructureLayer) -> String {
    format!("structure_{layer:?}").to_lowercase()
}

fn bench_compiled(c: &mut Criterion) {
    print_compiled_table();
    print_layer_table();

    // Interpreted vs compiled event engines, three models, three sizes.
    let mut group = c.benchmark_group("e15c_event_engines");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for events in [10_000usize, 100_000, 1_000_000] {
        let (ab, doc) = generate_document(
            DocumentConfig {
                events,
                max_depth: 32,
                ..Default::default()
            },
            7,
        );
        let q = contains_tag_nwa(ab.lookup("t1").unwrap(), ab.len());
        let cq = query::compile(&q);
        let dfa = nested_words_suite::nwa::flat::to_tagged_dfa(&q);
        let cdfa = query::compile(&dfa);
        let tagged: Vec<TaggedSymbol> = (0..doc.len())
            .map(|i| TaggedSymbol::new(doc.kind(i), doc.symbol(i)))
            .collect();
        group.throughput(Throughput::Elements(tagged.len() as u64));

        // Deterministic NWA: premultiplied fused tables vs the interpreted
        // streaming run — the acceptance bar is ≥ 2× at 1M events.
        group.bench_with_input(
            BenchmarkId::new("interpreted_nwa", events),
            &tagged,
            |b, evs| b.iter(|| query::run_stream(&q, evs.iter().copied())),
        );
        group.bench_with_input(
            BenchmarkId::new("compiled_nwa", events),
            &tagged,
            |b, evs| b.iter(|| cq.run_tagged(evs)),
        );

        // `contains_tag` settles within the first events, after which the
        // compiled run only counts stack height. The live pair keeps the
        // table step measured: an open-depth bound of 64 on depth-32
        // documents never reaches its dead state, the only absorbing one.
        let live = open_depth_at_most_nwa(64, ab.len());
        let clive = query::compile(&live);
        assert!((0..=64).all(|q| !clive.is_absorbing(q)));
        assert!(clive.run_tagged(&tagged).accepted, "the live query settled");
        group.bench_with_input(
            BenchmarkId::new("interpreted_nwa_live", events),
            &tagged,
            |b, evs| b.iter(|| query::run_stream(&live, evs.iter().copied())),
        );
        group.bench_with_input(
            BenchmarkId::new("compiled_nwa_live", events),
            &tagged,
            |b, evs| b.iter(|| clive.run_tagged(evs)),
        );

        // The flat view (Theorem 2): the same query as a DFA over Σ̂.
        group.bench_with_input(
            BenchmarkId::new("interpreted_dfa", events),
            &tagged,
            |b, evs| b.iter(|| query::run_stream(&dfa, evs.iter().copied())),
        );
        group.bench_with_input(
            BenchmarkId::new("compiled_dfa", events),
            &tagged,
            |b, evs| b.iter(|| cdfa.run_tagged(evs)),
        );

        // Nondeterministic NWA: the interpreted on-the-fly subset
        // construction vs the memoized summary engine (compiled once,
        // cache shared across iterations — the steady state a server sees).
        let n = some_b_block_nnwa();
        let cn = query::compile(&n);
        let word = random_nested_word(
            &Alphabet::ab(),
            NestedWordConfig {
                len: events,
                allow_pending: true,
                ..Default::default()
            },
            11,
        );
        let nnwa_events = word.to_tagged();
        group.bench_with_input(
            BenchmarkId::new("interpreted_nnwa", events),
            &nnwa_events,
            |b, evs| b.iter(|| query::run_stream(&n, evs.iter().copied())),
        );
        group.bench_with_input(
            BenchmarkId::new("compiled_nnwa", events),
            &nnwa_events,
            |b, evs| b.iter(|| query::run_stream(&cn, evs.iter().copied())),
        );
        assert_eq!(
            query::contains_stream(&n, nnwa_events.iter().copied()),
            query::contains_stream(&cn, nnwa_events.iter().copied()),
        );
    }
    group.finish();

    // Bytes in, verdict out: the full byte-level pipeline (chunked UTF-8
    // validation → structural scan → automaton), interpreted and compiled,
    // next to its first two layers alone (`utf8_only`, `tokenize_only`), the
    // scan under the compiled query's projection (`tokenize_projected`, the
    // scan `bytes_compiled` runs), parsing the whole document before
    // running (`materialize_then_run`), a compiled query that reads text
    // until it settles early, after which its scan narrows to tags and then
    // to structure (`bytes_settling_reader`, ungated), and a run settled
    // from the start, which scans the whole document in structure mode
    // (`bytes_settled_at_start`; its `_simd` row is gated against
    // `tokenize_projected_simd`, so falling back to name resolution fails),
    // also through a read-only source in `SCAN_CHUNK` buffers at 1M events
    // (`bytes_settled_at_start_buffered`, ungated). At 1M events (3.69 MB)
    // the in-memory structure scans are folded on every free core (up to
    // `nproc`); the `_buffered` row's 64 KiB buffers stay below the split
    // size, so it is the single-threaded structure row the layer table
    // reconciles against.
    // The plain rows are pinned to the portable SWAR backend and the
    // `_simd` rows run on the runtime-detected wide backend, so one run
    // records both sides of the comparison CI gates on.
    let mut group = c.benchmark_group("e15c_bytes_to_verdict");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    scan::auto_scan_backend();
    let wide = scan::scan_backend();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    criterion::header("nproc", nproc);
    criterion::header("scan_backend", format!("{wide:?}"));
    for events in [10_000usize, 100_000, 1_000_000] {
        let (ab, doc) = generate_document(
            DocumentConfig {
                events,
                max_depth: 32,
                ..Default::default()
            },
            7,
        );
        let q = contains_tag_nwa(ab.lookup("t1").unwrap(), ab.len());
        let cq = query::compile(&q);
        let xml = to_xml(&doc, &ab);
        if events == 1_000_000 {
            let (_, text, _) = doc.kind_counts();
            let per_event = xml.len() as f64 / doc.len() as f64;
            criterion::header("doc_bytes_per_event", format!("{per_event:.3}"));
            let text = text as f64 / doc.len() as f64;
            criterion::header("doc_text_fraction", format!("{text:.3}"));
        }
        let settling = settling_query(&xml, &ab);
        let settled = settled_query(&ab);
        let mut parse_ab = ab.clone();
        group.throughput(Throughput::Bytes(xml.len() as u64));
        group.bench_with_input(BenchmarkId::new("utf8_only", events), &xml, |b, xml| {
            b.iter(|| std::str::from_utf8(black_box(xml.as_bytes())).is_ok())
        });
        let mut backends = vec![(scan::ScanBackend::Swar, "")];
        if wide != scan::ScanBackend::Swar {
            backends.push((wide, "_simd"));
        }
        for (backend, suffix) in backends {
            assert!(scan::force_scan_backend(backend));
            group.bench_with_input(
                BenchmarkId::new(&format!("tokenize_only{suffix}"), events),
                &xml,
                |b, xml| b.iter(|| tokenize_only(xml, &ab)),
            );
            group.bench_with_input(
                BenchmarkId::new(&format!("tokenize_projected{suffix}"), events),
                &xml,
                |b, xml| b.iter(|| tokenize_projected(xml, &ab, cq.inert_symbols())),
            );
            group.bench_with_input(
                BenchmarkId::new(&format!("bytes_interpreted{suffix}"), events),
                &xml,
                |b, xml| b.iter(|| run_streaming_reader(&q, xml.as_bytes(), &ab).unwrap()),
            );
            if suffix.is_empty() {
                // Parse-then-run beside stream-from-bytes: pay the parse and
                // the whole materialized document on every iteration, then
                // decide with the same interpreted query.
                group.bench_with_input(
                    BenchmarkId::new("materialize_then_run", events),
                    &xml,
                    |b, xml| {
                        b.iter(|| {
                            let doc = parse_document(xml, &mut parse_ab).unwrap();
                            run_streaming(&q, &doc)
                        })
                    },
                );
            }
            group.bench_with_input(
                BenchmarkId::new(&format!("bytes_compiled{suffix}"), events),
                &xml,
                |b, xml| b.iter(|| run_streaming_reader(&cq, xml.as_bytes(), &ab).unwrap()),
            );
            group.bench_with_input(
                BenchmarkId::new(&format!("bytes_settling_reader{suffix}"), events),
                &xml,
                |b, xml| b.iter(|| run_streaming_reader(&settling, xml.as_bytes(), &ab).unwrap()),
            );
            group.bench_with_input(
                BenchmarkId::new(&format!("bytes_settled_at_start{suffix}"), events),
                &xml,
                |b, xml| b.iter(|| run_streaming_reader(&settled, xml.as_bytes(), &ab).unwrap()),
            );
            if events == 1_000_000 {
                // The same structure scan from a source that only reads
                // (ungated): the carried path stays measured.
                group.bench_with_input(
                    BenchmarkId::new(&format!("bytes_settled_at_start_buffered{suffix}"), events),
                    &xml,
                    |b, xml| b.iter(|| run_streaming_reader(&settled, buffered(xml), &ab).unwrap()),
                );
            }
        }
        if events == 1_000_000 {
            // Per kernel, named by it (ungated): the structure pass's
            // layers alone, single-threaded (`structure_classify`,
            // `_check`, `_fold`), and on each wide kernel the
            // single-threaded structure scan, whichever kernel `_simd`
            // names on this CPU.
            for backend in scan::ScanBackend::ALL {
                if !scan::force_scan_backend(backend) {
                    continue;
                }
                let kernel = format!("{backend:?}").to_lowercase();
                for layer in STRUCTURE_LAYERS {
                    group.bench_with_input(
                        BenchmarkId::new(&format!("{}_{kernel}", layer_row(layer)), events),
                        &xml,
                        |b, xml| b.iter(|| scan::structure_layer(xml.as_bytes(), layer)),
                    );
                }
                if backend != scan::ScanBackend::Swar {
                    group.bench_with_input(
                        BenchmarkId::new(
                            &format!("bytes_settled_at_start_buffered_{kernel}"),
                            events,
                        ),
                        &xml,
                        |b, xml| {
                            b.iter(|| run_streaming_reader(&settled, buffered(xml), &ab).unwrap())
                        },
                    );
                }
            }
        }
        scan::auto_scan_backend();
    }
    // The unprojected scan over a vocabulary far larger than the scanner's
    // token cache, the 4,096 words `service_open` draws from: a cache that
    // loses on large vocabularies shows in these rows (ungated).
    let events = 100_000;
    let (ab, doc) = generate_document(
        DocumentConfig {
            events,
            max_depth: 32,
            words: 4096,
            ..Default::default()
        },
        7,
    );
    let xml = to_xml(&doc, &ab);
    group.throughput(Throughput::Bytes(xml.len() as u64));
    let mut backends = vec![(scan::ScanBackend::Swar, "")];
    if wide != scan::ScanBackend::Swar {
        backends.push((wide, "_simd"));
    }
    for (backend, suffix) in backends {
        assert!(scan::force_scan_backend(backend));
        group.bench_with_input(
            BenchmarkId::new(&format!("tokenize_only_vocab4096{suffix}"), events),
            &xml,
            |b, xml| b.iter(|| tokenize_only(xml, &ab)),
        );
    }
    scan::auto_scan_backend();
    group.finish();

    // Prose-heavy XML: every text run outlasts a stage-1 pass, the case a
    // drop-all scan must still consume pass by pass instead of handing it
    // to the scalar arm. The unprojected and projected scans of the same
    // bytes, under `contains_tag_nwa` (every text word inert), per backend.
    let mut group = c.benchmark_group("e15d_long_text_scan");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let (ab, _) = generate_document(DocumentConfig::default(), 7);
    let cq = query::compile(&contains_tag_nwa(ab.lookup("t1").unwrap(), ab.len()));
    let paragraphs = 128;
    let xml = long_text_document(&ab, paragraphs);
    group.throughput(Throughput::Bytes(xml.len() as u64));
    let mut backends = vec![(scan::ScanBackend::Swar, "")];
    if wide != scan::ScanBackend::Swar {
        backends.push((wide, "_simd"));
    }
    for (backend, suffix) in backends {
        assert!(scan::force_scan_backend(backend));
        group.bench_with_input(
            BenchmarkId::new(&format!("unprojected{suffix}"), paragraphs),
            &xml,
            |b, xml| b.iter(|| tokenize_only(xml, &ab)),
        );
        group.bench_with_input(
            BenchmarkId::new(&format!("projected{suffix}"), paragraphs),
            &xml,
            |b, xml| b.iter(|| tokenize_projected(xml, &ab, cq.inert_symbols())),
        );
    }
    scan::auto_scan_backend();
    group.finish();
}

/// `paragraphs` `<t0>` elements, each holding about 8 KiB of the text
/// words of `ab` (`w0`, `w1`, …) and nothing else.
fn long_text_document(ab: &Alphabet, paragraphs: usize) -> String {
    let words: Vec<String> = (0..)
        .map(|i| format!("w{i}"))
        .take_while(|w| ab.lookup(w).is_some())
        .collect();
    let mut xml = String::new();
    for p in 0..paragraphs {
        xml.push_str("<t0>");
        let start = xml.len();
        for w in words.iter().cycle().skip(p) {
            if xml.len() - start >= 8192 {
                break;
            }
            xml.push_str(w);
            xml.push(' ');
        }
        xml.push_str("</t0>\n");
    }
    xml
}

fn bench_streaming(c: &mut Criterion) {
    print_tables();
    print_memory_table();

    let mut group = c.benchmark_group("e12_membership_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let ab = Alphabet::with_size(4);
    // a fixed small query automaton: timing scales with the word length while
    // the stack grows with the depth
    let q = contains_tag_nwa(Symbol(0), 4);
    for len in [10_000usize, 100_000, 1_000_000] {
        // deep_word(depth, width) produces depth*(width+2) positions
        let depth = len / 12;
        let word = deep_word(&ab, depth, 10, 1);
        group.throughput(Throughput::Elements(word.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("det_membership", word.len()),
            &word,
            |b, w| b.iter(|| query::contains(&q, w)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_streaming, bench_compiled);
criterion_main!(benches);
