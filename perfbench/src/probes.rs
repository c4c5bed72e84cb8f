//! Closed-loop probes of single layers over a workload's own documents:
//! the per-layer numbers for layers that a workload's traced path does not
//! separate, and the set-up costs.

use automata_core::{
    MultiAcceptor, Persist, QuerySetRun, StreamAcceptor, StreamOutcome, StreamRun,
};
use nested_words::{Alphabet, TaggedSymbol};
use nwa_xml::queries::EVENT_SLICE;
use nwa_xml::sax::FrozenByteTokenizer;
use std::time::{Duration, Instant};

/// The median of `reps` timings of `f`, in seconds, with `f`'s last value.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let value = std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    let sorted = crate::stats::sorted(&times);
    (
        crate::stats::percentile(&sorted, 50.0),
        last.expect("at least one repetition"),
    )
}

/// Repeats `f` over every document until `budget` has passed (at least
/// once over all of them) and returns the summed time and repetitions.
fn over_docs<D>(docs: &[D], budget: Duration, mut f: impl FnMut(&D)) -> (f64, usize) {
    let start = Instant::now();
    let mut busy = 0.0;
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < budget {
        for d in docs {
            let t = Instant::now();
            f(d);
            busy += t.elapsed().as_secs_f64();
        }
        rounds += 1;
    }
    (busy, rounds)
}

/// Per-document cost of one layer over a set of documents.
#[derive(Debug, Clone, Copy)]
pub struct LayerCost {
    pub ns_per_byte: f64,
    pub ns_per_event: f64,
    /// Mean busy time per document, in milliseconds.
    pub busy_ms: f64,
    /// Mean layer calls per document (`fill` or `step_slice`).
    pub calls: f64,
}

impl LayerCost {
    fn new(
        busy_secs: f64,
        rounds: usize,
        bytes: usize,
        events: usize,
        docs: usize,
        calls: usize,
    ) -> Self {
        let work = rounds as f64;
        LayerCost {
            ns_per_byte: busy_secs * 1e9 / (work * bytes as f64),
            ns_per_event: busy_secs * 1e9 / (work * events as f64),
            busy_ms: busy_secs * 1e3 / (work * docs as f64),
            calls: calls as f64 / docs as f64,
        }
    }
}

/// The scan layer alone: `FrozenByteTokenizer::{new, fill}` over each
/// document, events discarded.
pub fn scan(docs: &[&[u8]], alphabet: &Alphabet, budget: Duration) -> LayerCost {
    let mut buffer = Vec::with_capacity(EVENT_SLICE);
    let (mut events, mut calls) = (0usize, 0usize);
    let (busy, rounds) = over_docs(docs, budget, |xml| {
        let mut tokenizer = FrozenByteTokenizer::new(*xml, alphabet);
        loop {
            tokenizer
                .fill(&mut buffer, EVENT_SLICE)
                .expect("generated documents scan");
            calls += 1;
            if buffer.is_empty() {
                break;
            }
            events += buffer.len();
            buffer.clear();
        }
    });
    let bytes: usize = docs.iter().map(|d| d.len()).sum();
    LayerCost::new(
        busy,
        rounds,
        bytes,
        events / rounds,
        docs.len(),
        calls / rounds,
    )
}

/// Each document tokenized once into [`EVENT_SLICE`]-long slices, the
/// input the step probes replay.
pub fn slices(xml: &[u8], alphabet: &Alphabet) -> Vec<Vec<TaggedSymbol>> {
    let mut tokenizer = FrozenByteTokenizer::new(xml, alphabet);
    let mut out = Vec::new();
    loop {
        let mut buffer = Vec::with_capacity(EVENT_SLICE);
        tokenizer
            .fill(&mut buffer, EVENT_SLICE)
            .expect("generated documents scan");
        if buffer.is_empty() {
            return out;
        }
        out.push(buffer);
    }
}

/// One document's slices with its byte count and expected outcomes.
pub struct Sliced<'a> {
    pub slices: Vec<Vec<TaggedSymbol>>,
    pub bytes: usize,
    pub events: usize,
    pub expected: &'a [StreamOutcome],
}

fn step_cost<'a>(
    docs: &[Sliced<'a>],
    budget: Duration,
    mut run: impl FnMut(&[Vec<TaggedSymbol>]) -> Vec<StreamOutcome>,
    mut check: impl FnMut(&[StreamOutcome], &'a [StreamOutcome]) -> bool,
) -> (LayerCost, bool) {
    let mut ok = true;
    let (busy, rounds) = over_docs(docs, budget, |d| {
        let outcomes = run(&d.slices);
        ok &= check(&outcomes, d.expected);
    });
    let bytes = docs.iter().map(|d| d.bytes).sum();
    let events = docs.iter().map(|d| d.events).sum();
    let calls = docs.iter().map(|d| d.slices.len()).sum();
    (
        LayerCost::new(busy, rounds, bytes, events, docs.len(), calls),
        ok,
    )
}

/// The engine layer alone: `start` plus `step_slice` over pre-tokenized
/// slices, checked against the expected outcome of query `query`.
pub fn engine<A: StreamAcceptor>(
    engine: &A,
    query: usize,
    docs: &[Sliced<'_>],
    budget: Duration,
) -> (LayerCost, bool) {
    step_cost(
        docs,
        budget,
        |slices| {
            let mut run = engine.start();
            for s in slices {
                run.step_slice(s);
            }
            vec![StreamOutcome {
                accepted: run.is_accepting(),
                events: run.steps(),
                peak_memory: run.peak_memory(),
            }]
        },
        |found, expected| found[0] == expected[query],
    )
}

/// The multi layer alone: `start_set` plus `step_slice` over pre-tokenized
/// slices, checked against the leading `set.num_queries()` outcomes.
pub fn multi<S: MultiAcceptor>(
    set: &S,
    docs: &[Sliced<'_>],
    budget: Duration,
) -> (LayerCost, bool) {
    step_cost(
        docs,
        budget,
        |slices| {
            let mut run = set.start_set();
            for s in slices {
                run.step_slice(s);
            }
            run.outcomes()
        },
        |found, expected| found == &expected[..found.len()],
    )
}

/// Artifact size and median load time, in milliseconds.
pub fn persist<A: Persist>(artifact: &A, reps: usize) -> (usize, f64) {
    let bytes = artifact.save();
    let (secs, loaded) = median_secs(reps, || A::load(&bytes).expect("saved artifact loads"));
    drop(loaded);
    (bytes.len(), secs * 1e3)
}

/// `std::str::from_utf8` over the same bytes: the floor under the scanner,
/// in nanoseconds per byte.
pub fn utf8(docs: &[&[u8]], budget: Duration) -> f64 {
    let (busy, rounds) = over_docs(docs, budget, |xml| {
        std::hint::black_box(std::str::from_utf8(xml).expect("generated documents are UTF-8"));
    });
    let bytes: usize = docs.iter().map(|d| d.len()).sum();
    busy * 1e9 / (rounds as f64 * bytes as f64)
}
