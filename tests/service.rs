//! Property tests for the batched-execution subsystem (`BatchAcceptor`, its
//! generic `LaneRun`, and the `DecisionService` facade).
//!
//! The two laws stated on `automata_core::BatchAcceptor` are checked for
//! every compiled engine, on seeded random tagged words with pending calls
//! and returns:
//!
//! 1. **slice ≡ step** — a lane advanced through a stream by
//!    `lane_step_slice` in chunks of every size (the register-resident bulk
//!    loop behind `LaneRun::step_slice`) observes exactly what a lane
//!    stepped one event at a time observes at every chunk boundary
//!    (acceptance, stack height, events consumed, peak memory);
//! 2. **batch ≡ sequential** — `query::run_batch` over N streams, and a
//!    hand-rolled lockstep of the lane hooks over chunks of four, return
//!    per lane the `StreamOutcome` of running that stream alone.
//!
//! On top of that, the `DecisionService` is smoked multi-threaded: many
//! submitter threads against one service, every verdict compared against
//! `query::contains_stream` on the same compiled artifact.
//!
//! Cases are drawn from the suite's seeded generators (no crates.io access,
//! so no proptest); every failure is reproducible from the printed seed.

mod common;

use common::{prop_iters, random_det_nwa, random_dfa, random_nnwa_with_transitions};
use nested_words_suite::nested_words::generate::{random_nested_word, NestedWordConfig};
use nested_words_suite::nwa::joinless::joinless_from_nwa;
use nested_words_suite::nwa_service::{DecisionService, ServiceConfig};
use nested_words_suite::prelude::*;
use nested_words_suite::query;

fn random_words(count: usize, base_seed: u64) -> Vec<Vec<TaggedSymbol>> {
    let ab = Alphabet::ab();
    (0..count as u64)
        .map(|seed| {
            // Vary the length so batches exercise the tail-drain path, and
            // keep pending edges on so the sentinel/pending machinery of
            // every engine is in play.
            let cfg = NestedWordConfig {
                len: (seed as usize * 7) % 45,
                allow_pending: true,
                ..Default::default()
            };
            random_nested_word(&ab, cfg, base_seed + seed).to_tagged()
        })
        .collect()
}

/// Law 1 for one artifact on one stream: a run fed `step_slice` chunks of
/// size `chunk` observes what a lane stepped event by event observes, at
/// every chunk boundary.
fn assert_lane_matches_run<A: BatchAcceptor>(a: &A, stream: &[TaggedSymbol], ctx: &str) {
    for chunk in 1..=stream.len().max(1) {
        let mut lane = a.lane_start();
        let mut run = a.start();
        let mut done = 0;
        for slice in stream.chunks(chunk) {
            for &event in slice {
                a.lane_step(&mut lane, event);
            }
            run.step_slice(slice);
            done += slice.len();
            let ctx = format!("{ctx}, chunk {chunk}, prefix {done}");
            let outcome = a.lane_outcome(&lane);
            assert_eq!(
                a.lane_accepting(&lane),
                run.is_accepting(),
                "{ctx}: acceptance"
            );
            assert_eq!(
                outcome.accepted,
                run.is_accepting(),
                "{ctx}: outcome acceptance"
            );
            assert_eq!(
                a.lane_stack_height(&lane),
                run.stack_height(),
                "{ctx}: stack height"
            );
            assert_eq!(outcome.events, run.steps(), "{ctx}: events");
            assert_eq!(outcome.peak_memory, run.peak_memory(), "{ctx}: peak memory");
        }
    }
}

/// Law 2 for one artifact over a batch of streams, through both spellings
/// of batched execution: the trait's `run_batch` (via the
/// `query::run_batch` facade) and a lockstep of the lane hooks over chunks
/// of four streams, one event per lane per round.
fn assert_batch_matches_sequential<A: BatchAcceptor>(
    a: &A,
    streams: &[Vec<TaggedSymbol>],
    ctx: &str,
) {
    let slices: Vec<&[TaggedSymbol]> = streams.iter().map(Vec::as_slice).collect();
    let sequential: Vec<StreamOutcome> = streams
        .iter()
        .map(|s| query::run_stream(a, s.iter().copied()))
        .collect();
    assert_eq!(query::run_batch(a, &slices), sequential, "{ctx}: run_batch");

    for (chunk_index, chunk) in slices.chunks(4).enumerate() {
        let mut lanes: Vec<A::Lane> = chunk.iter().map(|_| a.lane_start()).collect();
        let longest = chunk.iter().map(|s| s.len()).max().unwrap_or(0);
        for round in 0..longest {
            for (lane, stream) in lanes.iter_mut().zip(chunk) {
                if let Some(&event) = stream.get(round) {
                    a.lane_step(lane, event);
                }
            }
        }
        for (i, lane) in lanes.iter().enumerate() {
            assert_eq!(
                a.lane_outcome(lane),
                sequential[chunk_index * 4 + i],
                "{ctx}: lockstep chunk {chunk_index} lane {i}"
            );
        }
    }
}

#[test]
fn lanes_match_streaming_runs_compiled_nwa() {
    let words = random_words(prop_iters(40), 0x1A);
    for seed in 0..5u64 {
        let c = random_det_nwa(3, 2, seed).compile();
        for (i, w) in words.iter().enumerate() {
            assert_lane_matches_run(&c, w, &format!("nwa seed {seed}, word {i}"));
        }
        assert_batch_matches_sequential(&c, &words, &format!("nwa seed {seed}"));
    }
}

#[test]
fn lanes_match_streaming_runs_compiled_summary() {
    let words = random_words(prop_iters(25), 0x2B);
    for seed in 0..4u64 {
        let n = random_nnwa_with_transitions(3, 2, 9, seed);
        let c = n.compile();
        for (i, w) in words.iter().enumerate() {
            assert_lane_matches_run(&c, w, &format!("nnwa seed {seed}, word {i}"));
        }
        assert_batch_matches_sequential(&c, &words, &format!("nnwa seed {seed}"));

        let j = joinless_from_nwa(&n);
        let cj = j.compile();
        for (i, w) in words.iter().enumerate() {
            assert_lane_matches_run(&cj, w, &format!("joinless seed {seed}, word {i}"));
        }
        assert_batch_matches_sequential(&cj, &words, &format!("joinless seed {seed}"));
    }
}

#[test]
fn lanes_match_streaming_runs_compiled_tagged_dfa() {
    let words = random_words(prop_iters(40), 0x3C);
    for seed in 0..5u64 {
        // Over the tagged alphabet Σ̂ for σ = 2, as the streaming DFA path
        // reads it.
        let c = random_dfa(4, 6, seed).compile();
        for (i, w) in words.iter().enumerate() {
            assert_lane_matches_run(&c, w, &format!("dfa seed {seed}, word {i}"));
        }
        assert_batch_matches_sequential(&c, &words, &format!("dfa seed {seed}"));
    }
}

/// Many submitter threads against one service: every verdict matches
/// `query::contains_stream` on the same compiled artifact, and the
/// service's own accounting balances.
#[test]
fn service_smoke_many_submitters_one_service() {
    let submitters = 6usize;
    let per_submitter = prop_iters(30);
    let m = random_det_nwa(4, 2, 0x5E);
    let reference = m.compile();
    let service = DecisionService::new(
        m.compile(),
        Alphabet::ab(),
        ServiceConfig {
            workers: 3,
            lanes: 4,
        },
    );

    std::thread::scope(|scope| {
        for t in 0..submitters {
            let service = &service;
            let reference = &reference;
            scope.spawn(move || {
                let words = random_words(per_submitter, 0x1000 * (t as u64 + 1));
                let handles: Vec<_> = words
                    .iter()
                    .map(|w| service.submit(w.clone()).unwrap())
                    .collect();
                for (i, (w, handle)) in words.iter().zip(&handles).enumerate() {
                    let outcome = handle.wait().unwrap();
                    assert_eq!(
                        outcome,
                        query::run_stream(reference, w.iter().copied()),
                        "submitter {t}, word {i}"
                    );
                    assert_eq!(
                        outcome.accepted,
                        query::contains_stream(reference, w.iter().copied()),
                        "submitter {t}, word {i}"
                    );
                }
            });
        }
    });

    let stats = service.stats();
    let total = (submitters * per_submitter) as u64;
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.queued, 0);
    assert_eq!(
        stats.workers.iter().map(|w| w.documents).sum::<u64>(),
        total
    );
}
