//! Multi-query amortization experiment (E19 of `DESIGN.md`): M document
//! queries answered by **one** pass over the byte stream via a compiled
//! `QuerySet` (`query::compile_set`) versus M independent passes, one per
//! individually compiled query. The tokenizer work — the dominant cost of
//! the bytes → verdict pipeline — is paid once instead of M times, so the
//! one-pass path amortizes it across the whole set.
//!
//! The acceptance bar gated by CI: at M = 16 the one-pass path must be at
//! least 2× the sequential path on the same run (`check_bench.py --filter
//! onepass --sibling onepass=sequential --min-speedup 2` against the
//! checked-in `BENCH_multiquery.json`).
//!
//! The `e19_setup` rows time what a program pays before its first
//! document: lowering the sixteen queries, and compiling them into a set.
//! The set's `table_bytes` is printed beside them and recorded as the
//! `e19_setup_table_bytes` header of `BENCH_multiquery.json`.
//!
//! The `live16` rows run a second pool of sixteen queries built to bypass
//! the set's two skips: no member reaches an absorbing state on the
//! document, so none retires, and word counters read every text word, so
//! no symbol is inert for the whole set. Every event steps every member,
//! as before the skips existed; those rows predict no change from them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nested_words_suite::nwa_xml::generate::{generate_document, DocumentConfig};
use nested_words_suite::nwa_xml::queries::{run_multi_streaming_reader, run_streaming_reader};
use nested_words_suite::nwa_xml::sax::to_xml;
use nested_words_suite::prelude::*;
use nested_words_suite::query;
use nested_words_suite::query::expr::Query;
use std::time::Duration;

/// Sixteen distinct document queries over the generated tag alphabet,
/// authored through the combinator layer: the zoo leaves plus a few
/// boolean compositions, all lowered to deterministic NWAs.
fn query_pool(ab: &Alphabet) -> Vec<Nwa> {
    let sigma = ab.len();
    let t = |name: &str| ab.lookup(name).unwrap();
    let (t0, t1, t2, t3) = (t("t0"), t("t1"), t("t2"), t("t3"));
    let exprs = [
        Query::contains(t0),
        Query::contains(t1),
        Query::contains(t2),
        Query::contains(t3),
        Query::in_order([t0, t1]),
        Query::in_order([t2, t3]),
        Query::in_order([t1, t0]),
        Query::within(t0, t1),
        Query::within(t1, t2),
        Query::within(t2, t3),
        Query::depth_le(4),
        Query::depth_le(8),
        Query::open_depth_le(16),
        Query::open_depth_le(30),
        Query::contains(t0).and(Query::contains(t1)),
        Query::within(t0, t3).or(Query::depth_le(2)),
    ];
    exprs.iter().map(|e| e.lower(sigma)).collect()
}

/// Counts the internal events labelled by a symbol in `counted`, modulo
/// `k`, accepting at zero. Every counted symbol moves it in every state, so
/// it has no absorbing state and none of `counted` is inert.
fn count_mod(k: usize, sigma: usize, counted: &[Symbol]) -> Nwa {
    let mut b = NwaBuilder::new(k, sigma, 0).accepting(0);
    for q in 0..k {
        for a in (0..sigma).map(|a| Symbol(a as u16)) {
            let next = if counted.contains(&a) { (q + 1) % k } else { q };
            b = b.internal(q, a, next).call(q, a, q, q);
            for h in 0..k {
                b = b.ret(q, h, a, q);
            }
        }
    }
    b.build()
}

/// The number of open elements modulo `k`, accepting at zero: calls move
/// it in every state, so it has no absorbing state.
fn depth_mod(k: usize, sigma: usize) -> Nwa {
    let mut b = NwaBuilder::new(k, sigma, 0).accepting(0);
    for q in 0..k {
        for a in (0..sigma).map(|a| Symbol(a as u16)) {
            b = b.internal(q, a, q).call(q, a, (q + 1) % k, q);
            for h in 0..k {
                b = b.ret(q, h, a, h);
            }
        }
    }
    b.build()
}

/// Sixteen queries that stay live on a document nesting at most
/// `max_depth` deep: open-depth bounds at and above that depth, word
/// counters and per-word parities (which read text), and depth counters.
/// None settles in an absorbing state and no text word is inert for the
/// set, so the pool steps every member on every event.
fn live_pool(ab: &Alphabet, max_depth: usize) -> Vec<Nwa> {
    let sigma = ab.len();
    let words: Vec<Symbol> = (0..).map_while(|i| ab.lookup(&format!("w{i}"))).collect();
    let mut pool = vec![
        // accepting throughout, so never in the dead sink
        Query::open_depth_le(max_depth).lower(sigma),
        Query::open_depth_le(max_depth + 8).lower(sigma),
    ];
    pool.extend((2..8).map(|k| count_mod(k, sigma, &words)));
    pool.extend(words[..4].iter().map(|&w| count_mod(2, sigma, &[w])));
    pool.extend((2..6).map(|k| depth_mod(k, sigma)));
    let set = query::compile_set(&pool);
    assert!(words.iter().all(|&w| !set.is_inert(w)));
    pool
}

/// Quick agreement table: the set's verdicts versus per-query sequential
/// passes, asserted before the timed groups run.
fn print_multiquery_table(xml: &str, ab: &Alphabet, pools: &[(&str, &[Nwa])]) {
    println!("== E19: one-pass multi-query vs sequential per-query passes ==");
    println!(
        "{:>7} {:>10} {:>14} {:>10}",
        "M", "engines", "table bytes", "agree"
    );
    for (name, pool) in pools {
        let set = query::compile_set(pool);
        let outcomes = run_multi_streaming_reader(&set, xml.as_bytes(), ab).unwrap();
        let mut agree = true;
        for (q, outcome) in pool.iter().zip(&outcomes) {
            let solo = run_streaming_reader(&query::compile(q), xml.as_bytes(), ab).unwrap();
            agree &= solo == *outcome;
        }
        assert!(
            agree,
            "set verdicts diverged from sequential runs at M={name}"
        );
        println!(
            "{:>7} {:>10} {:>14} {:>10}",
            name,
            set.num_engines(),
            set.table_bytes(),
            agree
        );
    }
    println!();
}

fn bench_multiquery(c: &mut Criterion) {
    // ~100k events of synthetic library XML; the byte count is the shared
    // throughput denominator, so per_sec ratios are pure time ratios.
    let max_depth = 32;
    let (ab, doc) = generate_document(
        DocumentConfig {
            events: 100_000,
            max_depth,
            ..Default::default()
        },
        7,
    );
    let xml = to_xml(&doc, &ab);
    let pool = query_pool(&ab);
    let live = live_pool(&ab, max_depth);
    let pools: [(&str, &[Nwa]); 3] = [("4", &pool[..4]), ("16", &pool), ("live16", &live)];
    print_multiquery_table(&xml, &ab, &pools);

    let mut group = c.benchmark_group("e19_multiquery");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for (name, members) in &pools {
        let set = query::compile_set(members);
        let solo: Vec<CompiledNwa> = members.iter().map(query::compile).collect();
        group.throughput(Throughput::Bytes(xml.len() as u64));

        // One tokenization pass feeding the compiled set: all M verdicts.
        group.bench_with_input(BenchmarkId::new("onepass", name), &xml, |b, xml| {
            b.iter(|| run_multi_streaming_reader(&set, xml.as_bytes(), &ab).unwrap())
        });
        // The status quo ante: M full bytes → verdict passes, one per query.
        group.bench_with_input(BenchmarkId::new("sequential", name), &xml, |b, xml| {
            b.iter(|| {
                solo.iter()
                    .map(|cq| run_streaming_reader(cq, xml.as_bytes(), &ab).unwrap())
                    .collect::<Vec<_>>()
            })
        });
    }
    group.finish();

    // Set-up, before the first document: lowering the sixteen queries of
    // the `16` pool to NWAs, then compiling them into one set. Ungated.
    // The set's table footprint is printed beside the rows and kept in
    // the JSON header.
    let table_bytes = query::compile_set(&pool).table_bytes();
    criterion::header("e19_setup_table_bytes", table_bytes);
    let mut group = c.benchmark_group("e19_setup");
    println!("  table bytes of the 16-query set: {table_bytes}");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    group.bench_with_input(BenchmarkId::new("lower", 16), &ab, |b, ab| {
        b.iter(|| query_pool(ab))
    });
    group.bench_with_input(BenchmarkId::new("compile_set", 16), &pool, |b, pool| {
        b.iter(|| query::compile_set(pool))
    });
    group.finish();
}

criterion_group!(benches, bench_multiquery);
criterion_main!(benches);
