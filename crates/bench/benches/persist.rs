//! E18: the artifact lifecycle — cold-starting from saved bytes vs from
//! source, and the overhead of suspending/resuming runs.
//!
//! The persistence capability (`Persist`/`Suspend`) exists for exactly two
//! operational moves: shipping a compiled query to worker processes as a
//! byte image instead of recompiling it everywhere, and parking in-flight
//! runs as snapshots. E18 prices both.
//!
//! **E18a (gated)** — the summary engine's cold start to a *warm* state.
//! The memoized subset engine earns its speed by interning summary sets as
//! it runs; that memo cache ships inside the artifact bytes. So the two
//! cold-start paths compared are: `compile_summary` — build the engine
//! from the automaton and warm it by running the training corpus (what a
//! fresh process must do without bytes) — versus `load_summary` — decode
//! the saved, already-warm artifact. CI gates the within-run speedup (so
//! heterogeneous hardware cancels) with an absolute floor: load must be at
//! least 5x faster than compile-and-warm, and the speedup must not drop
//! more than the tolerance below the checked-in baseline.
//!
//! **E18b (recorded)** — the same pair for the dense deterministic engine,
//! where compile means constructing the automaton and lowering its tables.
//! Both sides are linear passes over the same tables, so the ratio is
//! modest and hardware-dependent; it is recorded for the table, not gated.
//!
//! **E18c (recorded)** — snapshot overhead: one stream decided end to end
//! versus the same stream suspended to a byte-serialized snapshot and
//! resumed every 1 000 events, the parked-document cadence of the decision
//! service.
//!
//! Running with `--format json` emits `BENCH_persist.json` (see the
//! criterion shim); CI gates it against the checked-in baseline at the
//! workspace root via
//! `check_bench.py --filter load_summary --sibling load=compile --min-speedup 5`.
//! Note neither the group name nor ungated ids may contain the gated
//! substring pair in conflicting positions: the gate derives each id's
//! sibling by replacing "load" with "compile" across the whole id.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nested_words_suite::nwa::{CompiledNwa, CompiledSummary, Nnwa};
use nested_words_suite::nwa_xml::generate::{generate_document, DocumentConfig};
use nested_words_suite::nwa_xml::queries::contains_tag_nwa;
use nested_words_suite::prelude::*;
use nested_words_suite::query;
use std::time::Duration;

const TRAIN_EVENTS: usize = 50_000;

/// The E18a fixture: a nondeterministic query automaton plus a training
/// corpus of generated documents over its alphabet.
fn summary_fixture() -> (Nnwa, Vec<TaggedSymbol>) {
    let (ab, doc) = generate_document(
        DocumentConfig {
            events: TRAIN_EVENTS,
            max_depth: 24,
            ..Default::default()
        },
        18,
    );
    let q = contains_tag_nwa(ab.lookup("t1").unwrap(), ab.len());
    let stream = (0..doc.len())
        .map(|i| TaggedSymbol::new(doc.kind(i), doc.symbol(i)))
        .collect();
    (Nnwa::from_deterministic(&q), stream)
}

/// Cold start from source: compile the summary engine and warm its memo
/// cache on the training corpus. Returns the engine so the timed closure
/// has an observable result.
fn compile_and_warm(nnwa: &Nnwa, train: &[TaggedSymbol]) -> CompiledSummary {
    let compiled = query::compile(nnwa);
    query::run_stream(&compiled, train.iter().copied());
    compiled
}

/// A dense deterministic NWA built arithmetically (no rng in benches), the
/// E18b compile-side workload: `n` states, `n²·σ` return entries.
fn dense_nwa(n: usize, sigma: usize) -> Nwa {
    let mut m = Nwa::new(n, sigma, 0);
    for q in 0..n {
        m.set_accepting(q, q % 3 == 0);
        for a in 0..sigma {
            let s = Symbol(a as u16);
            m.set_internal(q, s, (q + a + 1) % n);
            m.set_call(q, s, (q * 7 + a) % n, (q + 3) % n);
            for h in 0..n {
                m.set_return(q, h, s, (q + h + a) % n);
            }
        }
    }
    m
}

/// Quick human-readable summary of the three comparisons, with the
/// equal-behaviour laws asserted; the criterion groups below provide the
/// recorded numbers.
fn print_lifecycle_table() {
    println!("== E18: artifact lifecycle ==");
    let (nnwa, train) = summary_fixture();
    let warmed = compile_and_warm(&nnwa, &train);
    let bytes = query::save(&warmed);

    let t = std::time::Instant::now();
    let from_source = compile_and_warm(&nnwa, &train);
    let t_compile = t.elapsed();
    let t = std::time::Instant::now();
    let from_bytes: CompiledSummary = query::load(&bytes).expect("saved bytes load");
    let t_load = t.elapsed();
    assert_eq!(
        from_bytes, from_source,
        "load(save(a)) is a, warm cache included"
    );
    println!(
        "summary engine, warm cold-start ({} artifact bytes, {} training events):",
        bytes.len(),
        train.len()
    );
    println!(
        "  compile+warm {:>10.1?}   load {:>10.1?}   speedup {:>8.0}x",
        t_compile,
        t_load,
        t_compile.as_secs_f64() / t_load.as_secs_f64()
    );

    let n = 96;
    let nwa_bytes = query::save(&query::compile(&dense_nwa(n, 3)));
    let t = std::time::Instant::now();
    let compiled = query::compile(&dense_nwa(n, 3));
    let t_compile = t.elapsed();
    let t = std::time::Instant::now();
    let loaded: CompiledNwa = query::load(&nwa_bytes).expect("saved bytes load");
    let t_load = t.elapsed();
    assert_eq!(loaded, compiled);
    println!(
        "dense NWA, {n} states ({} artifact bytes):",
        nwa_bytes.len()
    );
    println!(
        "  construct+compile {:>10.1?}   load {:>10.1?}   ratio {:>6.1}x",
        t_compile,
        t_load,
        t_compile.as_secs_f64() / t_load.as_secs_f64()
    );
    println!();
}

fn bench_cold_start(c: &mut Criterion) {
    print_lifecycle_table();

    // E18a: warm cold-start of the memoizing summary engine. The ids pair
    // up as load_*/compile_* so the CI gate can normalize the speedup
    // within one run; identical Throughput elements make the per_sec
    // ratio equal the time ratio.
    let (nnwa, train) = summary_fixture();
    let bytes = query::save(&compile_and_warm(&nnwa, &train));
    let mut group = c.benchmark_group("e18a_warm_cold_start");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    group.throughput(Throughput::Elements(train.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("compile_summary", train.len()),
        &train,
        |b, train| b.iter(|| compile_and_warm(&nnwa, train)),
    );
    group.bench_with_input(
        BenchmarkId::new("load_summary", train.len()),
        &bytes,
        |b, bytes| b.iter(|| query::load::<CompiledSummary>(bytes).expect("bytes load")),
    );
    group.finish();

    // E18b: the dense deterministic engine, recorded but not gated — both
    // sides are linear table passes, so the ratio is modest and noisy.
    let mut group = c.benchmark_group("e18b_dense_cold_start");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    for n in [32usize, 96] {
        let sigma = 3;
        let entries = (n * n * 3 * sigma) as u64;
        let bytes = query::save(&query::compile(&dense_nwa(n, sigma)));
        group.throughput(Throughput::Elements(entries));
        group.bench_with_input(BenchmarkId::new("compile_nwa", n), &n, |b, &n| {
            b.iter(|| query::compile(&dense_nwa(n, sigma)))
        });
        group.bench_with_input(BenchmarkId::new("load_nwa", n), &bytes, |b, bytes| {
            b.iter(|| query::load::<CompiledNwa>(bytes).expect("bytes load"))
        });
    }
    group.finish();
}

fn bench_resume_overhead(c: &mut Criterion) {
    // E18c: the decision-service parking cadence — suspend to serialized
    // snapshot bytes and resume every 1 000 events — against the
    // uninterrupted run of the same stream on the same artifact.
    let (ab, doc) = generate_document(
        DocumentConfig {
            events: 200_000,
            max_depth: 32,
            ..Default::default()
        },
        31,
    );
    let stream: Vec<TaggedSymbol> = (0..doc.len())
        .map(|i| TaggedSymbol::new(doc.kind(i), doc.symbol(i)))
        .collect();
    let compiled = query::compile(&contains_tag_nwa(ab.lookup("t1").unwrap(), ab.len()));

    let uninterrupted = query::run_stream(&compiled, stream.iter().copied());
    let mut group = c.benchmark_group("e18c_resume_overhead");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    group.throughput(Throughput::Elements(stream.len() as u64));
    // Both sides drive the same lane loop, so the measured difference is
    // the suspend → serialize → decode → resume cycle alone.
    group.bench_with_input(
        BenchmarkId::new("uninterrupted_nwa", stream.len()),
        &stream,
        |b, stream| {
            b.iter(|| {
                let mut lane = compiled.lane_start();
                for &event in stream {
                    compiled.lane_step(&mut lane, event);
                }
                let outcome = compiled.lane_outcome(&lane);
                assert_eq!(outcome, uninterrupted);
                outcome
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("parked_nwa", stream.len()),
        &stream,
        |b, stream| {
            b.iter(|| {
                let mut lane = compiled.lane_start();
                for (i, &event) in stream.iter().enumerate() {
                    if i % 1_000 == 0 && i > 0 {
                        let bytes = query::suspend(&compiled, &lane).to_bytes();
                        let snapshot = Snapshot::from_bytes(&bytes).expect("snapshot bytes");
                        lane = query::resume(&compiled, &snapshot).expect("snapshot resumes");
                    }
                    compiled.lane_step(&mut lane, event);
                }
                let outcome = compiled.lane_outcome(&lane);
                assert_eq!(outcome, uninterrupted);
                outcome
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_cold_start, bench_resume_overhead);
criterion_main!(benches);
