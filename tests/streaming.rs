//! Property tests for the streaming event-run subsystem: for every model
//! implementing both the batch and the streaming path, `query::contains`
//! and `query::contains_stream` must agree, and the streaming run's peak
//! memory must equal the input's open-call depth bound (§3.2: memory
//! proportional to depth, not length).
//!
//! Cases are drawn from the suite's seeded generators (no crates.io access,
//! so no proptest); every failure is reproducible from the printed seed.

mod common;

use common::{
    prop_iters, random_det_nwa, random_nnwa_with_transitions, with_text_midway, xml_documents,
    xml_queries,
};
use nested_words_suite::nested_words::generate::{random_nested_word, NestedWordConfig};
use nested_words_suite::nested_words::rng::Prng;
use nested_words_suite::nwa::flat::tagged_indices;
use nested_words_suite::nwa::joinless::joinless_from_nwa;
use nested_words_suite::nwa_xml::queries::{for_each_slice, run_streaming_reader};
use nested_words_suite::nwa_xml::sax::SaxError;
use nested_words_suite::prelude::*;
use nested_words_suite::query;

/// The peak stack height a nested-word run needs: the maximum number of
/// simultaneously open calls over all prefixes (pending calls included).
fn open_call_peak(word: &NestedWord) -> usize {
    let mut open = 0usize;
    let mut peak = 0usize;
    for (kind, _) in word.positions() {
        match kind {
            PositionKind::Call => {
                open += 1;
                peak = peak.max(open);
            }
            PositionKind::Return => open = open.saturating_sub(1),
            PositionKind::Internal => {}
        }
    }
    peak
}

/// A random nondeterministic NWA, denser than the shared default (this
/// suite never determinizes, so density is affordable and exercises the
/// summary sets harder).
fn random_nnwa(num_states: usize, sigma: usize, seed: u64) -> Nnwa {
    random_nnwa_with_transitions(num_states, sigma, 3 * num_states, seed)
}

fn random_words(count: usize) -> Vec<NestedWord> {
    let ab = Alphabet::ab();
    let cfg = NestedWordConfig {
        len: 40,
        allow_pending: true,
        ..Default::default()
    };
    (0..count as u64)
        .map(|seed| random_nested_word(&ab, cfg, seed))
        .collect()
}

/// Batch and streaming membership agree for deterministic NWAs, and the
/// streaming run uses exactly the open-call peak of the word as stack.
#[test]
fn stream_agrees_with_batch_nwa() {
    let words = random_words(prop_iters(120));
    for seed in 0..5u64 {
        let m = random_det_nwa(3, 2, seed);
        for (i, w) in words.iter().enumerate() {
            let outcome = query::run_stream(&m, w.to_tagged());
            assert_eq!(
                outcome.accepted,
                query::contains(&m, w),
                "seed {seed}, word {i}"
            );
            assert_eq!(outcome.events, w.len(), "seed {seed}, word {i}");
            assert_eq!(
                outcome.peak_memory,
                open_call_peak(w),
                "seed {seed}, word {i}"
            );
        }
    }
}

/// The same for nondeterministic NWAs (on-the-fly summary-set simulation).
#[test]
fn stream_agrees_with_batch_nnwa() {
    let words = random_words(prop_iters(120));
    for seed in 0..5u64 {
        let n = random_nnwa(3, 2, seed);
        for (i, w) in words.iter().enumerate() {
            let outcome = query::run_stream(&n, w.to_tagged());
            assert_eq!(
                outcome.accepted,
                query::contains(&n, w),
                "seed {seed}, word {i}"
            );
            assert_eq!(
                outcome.peak_memory,
                open_call_peak(w),
                "seed {seed}, word {i}"
            );
        }
    }
}

/// The same for joinless NWAs: the streaming subset construction must agree
/// with the recursive reference evaluator on arbitrary words, pending edges
/// included.
#[test]
fn stream_agrees_with_batch_joinless() {
    let words = random_words(prop_iters(120));
    for seed in 0..3u64 {
        let j = joinless_from_nwa(&random_nnwa(2, 2, seed));
        for (i, w) in words.iter().enumerate() {
            let outcome = query::run_stream(&j, w.to_tagged());
            assert_eq!(
                outcome.accepted,
                query::contains(&j, w),
                "seed {seed}, word {i}"
            );
            assert_eq!(
                outcome.peak_memory,
                open_call_peak(w),
                "seed {seed}, word {i}"
            );
        }
    }
}

/// DFAs stream over the tagged alphabet Σ̂ with no stack at all; the batch
/// counterpart reads the tagged-index encoding of the word.
#[test]
fn stream_agrees_with_batch_tagged_dfa() {
    let sigma = 2usize;
    let words = random_words(prop_iters(120));
    let mut rng = Prng::new(0xD0F);
    for seed in 0..5u64 {
        let mut d = Dfa::new(3, 3 * sigma, 0);
        for q in 0..3 {
            d.set_accepting(q, rng.bool(0.5));
            for a in 0..3 * sigma {
                d.set_transition(q, a, rng.below(3));
            }
        }
        for (i, w) in words.iter().enumerate() {
            let outcome = query::run_stream(&d, w.to_tagged());
            let batch = query::contains(&d, &tagged_indices(w, sigma)[..]);
            assert_eq!(outcome.accepted, batch, "seed {seed}, word {i}");
            assert_eq!(outcome.peak_memory, 0, "seed {seed}, word {i}");
        }
    }
}

/// Mid-stream introspection: acceptance at every prefix matches the batch
/// answer on that prefix, and the stack height tracks the open calls.
#[test]
fn prefix_acceptance_matches_batch() {
    let words = random_words(prop_iters(40));
    let m = random_det_nwa(3, 2, 7);
    for (i, w) in words.iter().enumerate() {
        let tagged = w.to_tagged();
        let mut run = m.start();
        let mut open = 0usize;
        for (j, &event) in tagged.iter().enumerate() {
            run.step(event);
            match event.kind() {
                PositionKind::Call => open += 1,
                PositionKind::Return => open = open.saturating_sub(1),
                PositionKind::Internal => {}
            }
            let prefix = NestedWord::from_tagged(&tagged[..=j]);
            assert_eq!(
                run.is_accepting(),
                query::contains(&m, &prefix),
                "word {i}, prefix {j}"
            );
            assert_eq!(run.stack_height(), open, "word {i}, prefix {j}");
        }
    }
}

// --------------------------------------------------------------------------
// Bytes → verdict under the artifact's projection
// --------------------------------------------------------------------------

/// `Err(UnknownSymbol { name })` of the byte pipeline, rendered.
fn unknown_symbol(name: &str) -> String {
    format!(
        "{:?}",
        SaxError::Syntax(NestedWordError::UnknownSymbol { name: name.into() })
    )
}

/// A compiled query's bytes→verdict run drops the text words the query
/// cannot read (every one for drop-all queries, `w0`'s or `w1`'s
/// complement for the others) and still reports exactly what the
/// interpreted query, which projects nothing, reports: verdict, events
/// read and peak stack.
#[test]
fn projected_reader_matches_unprojected_interpreted_run() {
    for (d, (ab, xml)) in xml_documents(prop_iters(6), 40).iter().enumerate() {
        for (i, (name, q)) in xml_queries(ab).into_iter().enumerate() {
            let cq = query::compile(&q);
            let drop_all = cq.inert_symbols().iter().all(|&inert| inert);
            assert_eq!(drop_all, i < 2, "{name}: projection mode");
            assert!(q.inert_symbols().is_empty(), "interpreted runs see all");
            let interpreted = run_streaming_reader(&q, xml.as_bytes(), ab).unwrap();
            let compiled = run_streaming_reader(&cq, xml.as_bytes(), ab).unwrap();
            assert_eq!(compiled, interpreted, "document {d}, {name}");
        }
    }
}

/// Under a drop-all artifact no text word is resolved: a document with a
/// word outside the alphabet decides like the one with that word renamed
/// to a known word. A query that reads text still rejects the unknown
/// word, and an unknown *tag* still fails under drop-all, after the same
/// events.
#[test]
fn drop_all_artifacts_decide_unknown_text_like_known_text() {
    for (d, (ab, xml)) in xml_documents(prop_iters(3), 70).iter().enumerate() {
        let stranger = with_text_midway(xml, "stranger");
        let renamed = with_text_midway(xml, "w0");
        for (name, q) in xml_queries(ab) {
            let cq = query::compile(&q);
            let run = |xml: &str| {
                run_streaming_reader(&cq, xml.as_bytes(), ab).map_err(|e| format!("{e:?}"))
            };
            let expected = run_streaming_reader(&q, renamed.as_bytes(), ab).unwrap();
            if cq.inert_symbols().iter().all(|&inert| inert) {
                assert_eq!(run(&stranger), Ok(expected), "document {d}, {name}");
            } else {
                assert_eq!(
                    run(&stranger),
                    Err(unknown_symbol("stranger")),
                    "document {d}, {name}"
                );
            }

            let intruder = with_text_midway(xml, "<intruder/>");
            let lex = |inert: &[bool]| {
                let mut events = Vec::new();
                let err = for_each_slice(intruder.as_bytes(), ab, inert, |slice| {
                    events.extend_from_slice(slice)
                })
                .unwrap_err();
                (events, format!("{err:?}"))
            };
            let (all, err) = lex(&[]);
            assert_eq!(err, unknown_symbol("intruder"), "document {d}, {name}");
            let kept: Vec<TaggedSymbol> = all
                .into_iter()
                .filter(|t| match t {
                    TaggedSymbol::Internal(a) => !cq.inert_symbols()[a.index()],
                    _ => true,
                })
                .collect();
            assert_eq!(lex(cq.inert_symbols()), (kept, err), "document {d}, {name}");
        }
    }
}
