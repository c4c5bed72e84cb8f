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
    names_settle, prop_iters, random_det_nwa, random_nnwa_with_transitions, render_with,
    splice_offsets, with_text_after, with_text_midway, xml_documents, xml_documents_of,
    xml_queries, INTRUDERS,
};
use nested_words_suite::nested_words::generate::{random_nested_word, NestedWordConfig};
use nested_words_suite::nested_words::rng::Prng;
use nested_words_suite::nwa::flat::tagged_indices;
use nested_words_suite::nwa::joinless::joinless_from_nwa;
use nested_words_suite::nwa_xml::queries::{
    contains_tag_nwa, for_each_slice, run_multi_streaming_reader, run_streaming_reader, Reads,
    Slice, EVENT_SLICE,
};
use nested_words_suite::nwa_xml::sax::{tokenize, SaxError};
use nested_words_suite::nwa_xml::scan::{
    auto_scan_backend, force_scan_backend, ScanBackend, SCAN_CHUNK,
};
use nested_words_suite::prelude::*;
use nested_words_suite::query;
use std::io;

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

/// A text word outside the alphabet is inert under every artifact's
/// projection: no compiled query can read it. A document with such a word
/// decides like the one with that word renamed to `w2`, a known word no
/// query reads, under drop-all and keep-bit projections alike. An unknown
/// *tag* fails a scan whose consumer reads names under every projection,
/// after the same events; a compiled run fails on it iff it still reads
/// names there, and otherwise decides like the document with the tag
/// renamed to `t0`.
#[test]
fn drop_all_artifacts_decide_unknown_text_like_known_text() {
    let mut outcomes = [0, 0];
    for (d, (ab, xml)) in xml_documents(prop_iters(3), 70).iter().enumerate() {
        let stranger = with_text_midway(xml, "stranger");
        let renamed = with_text_midway(xml, "w2");
        let w2 = ab.lookup("w2").expect("generated name");
        for (name, q) in xml_queries(ab) {
            let cq = query::compile(&q);
            assert!(cq.is_inert(w2), "{name} must not read w2");
            let expected = run_streaming_reader(&q, renamed.as_bytes(), ab).unwrap();
            assert_eq!(
                run_streaming_reader(&cq, stranger.as_bytes(), ab).unwrap(),
                expected,
                "document {d}, {name}"
            );
            // The interpreted query projects nothing: the word is unknown.
            assert_eq!(
                run_streaming_reader(&q, stranger.as_bytes(), ab).map_err(|e| format!("{e:?}")),
                Err(unknown_symbol("stranger")),
                "document {d}, {name}"
            );

            let intruder = with_text_midway(xml, "<intruder/>");
            for doc in [format!("<intruder/> {xml}"), intruder.clone()] {
                let expected = expect_intruder(&q, &cq, &doc, ab);
                assert_eq!(
                    run_streaming_reader(&cq, doc.as_bytes(), ab).map_err(|e| format!("{e:?}")),
                    expected,
                    "document {d}, {name}"
                );
                outcomes[usize::from(expected.is_ok())] += 1;
            }
            let lex = |inert: &[bool]| {
                let mut events = Vec::new();
                let err = for_each_slice(intruder.as_bytes(), ab, inert, |slice| {
                    if let Slice::Events(slice) = slice {
                        events.extend_from_slice(slice);
                    }
                    Reads::Text
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
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "failed, decided: {outcomes:?}"
    );
}

/// What a compiled run of `cq` (compiled from `q`) returns on `doc`, which
/// holds one `<intruder/>` and maybe `stranger` words: `UnknownSymbol` if
/// the run still reads names where the tag stands, else the interpreted
/// outcome on the document with the tag renamed to `t0` and the words to
/// `w2`.
fn expect_intruder<A: StreamAcceptor>(
    q: &A,
    cq: &CompiledNwa,
    doc: &str,
    ab: &Alphabet,
) -> Result<StreamOutcome, String> {
    let renamed = doc.replace("stranger", "w2");
    let at = renamed.find("<intruder/>").expect("one intruder");
    let mut run = cq.start();
    run.step_slice(&tokenize(&renamed[..at], &mut ab.clone()).unwrap());
    if run.reads_names() {
        return Err(unknown_symbol("intruder"));
    }
    let renamed = renamed.replace("<intruder/>", "<t0/>");
    Ok(run_streaming_reader(q, renamed.as_bytes(), ab).unwrap())
}

/// Accepts once `k` internal events labelled `w` have been read, in an
/// absorbing state: it reads `w` until then, so it settles wherever the
/// `k`-th `w` falls.
fn word_count_at_least(w: Symbol, k: usize, sigma: usize) -> Nwa {
    let mut m = Nwa::new(k + 1, sigma, 0);
    m.set_accepting(k, true);
    m.set_all_transitions_to(k, k);
    for q in 0..k {
        for a in (0..sigma).map(|a| Symbol(a as u16)) {
            m.set_internal(q, a, if a == w { q + 1 } else { q });
            m.set_call(q, a, q, q);
            for h in 0..=k {
                m.set_return(q, h, a, q);
            }
        }
    }
    m
}

/// Bytes→verdict with the scan narrowing mid-stream. On documents of more
/// than three event slices, with a text word outside the alphabet before
/// the first tag (before any query settles), midway and near the end
/// (after the queries that settle have), every compiled query and set
/// returns what the interpreted run returns on the document with those
/// words renamed to `w2`, which no query reads: verdict, events read and
/// peak stack. The queries that read text settle in the first slice or,
/// counting 300 `w3`s, two slices in. An unknown tag near the end fails
/// a run that still reads names there; a run that has settled reads it
/// by form and decides like the document with the tag renamed to `t0`.
#[test]
fn narrowed_scans_decide_like_the_renamed_document() {
    let (mut settled_early, mut settled_late) = (0, 0);
    let mut outcomes = [0, 0];
    for (d, (ab, xml)) in xml_documents_of(prop_iters(2), 4 * EVENT_SLICE, 150)
        .iter()
        .enumerate()
    {
        let near_end = xml.len() - 200;
        let spliced = |text: &str| {
            let midway = with_text_midway(&format!("{text} {xml}"), text);
            with_text_after(&midway, near_end, text)
        };
        let (stranger, renamed) = (spliced("stranger"), spliced("w2"));
        let intruder = with_text_after(&stranger, near_end, "<intruder/>");
        let events = tokenize(&renamed, &mut ab.clone()).unwrap();
        assert!(events.len() > 3 * EVENT_SLICE, "document {d}");
        let mut queries = xml_queries(ab);
        let w3 = ab.lookup("w3").unwrap();
        queries.push(("300 w3", word_count_at_least(w3, 300, ab.len())));
        let interpreted: Vec<StreamOutcome> = queries
            .iter()
            .map(|(_, q)| run_streaming_reader(q, renamed.as_bytes(), ab).unwrap())
            .collect();
        for ((name, q), expected) in queries.iter().zip(&interpreted) {
            let cq = query::compile(q);
            let ctx = format!("document {d}, {name}");
            assert_eq!(
                run_streaming_reader(&cq, stranger.as_bytes(), ab).unwrap(),
                *expected,
                "{ctx}"
            );
            let expected = expect_intruder(q, &cq, &intruder, ab);
            assert_eq!(
                run_streaming_reader(&cq, intruder.as_bytes(), ab).map_err(|e| format!("{e:?}")),
                expected,
                "{ctx}"
            );
            outcomes[usize::from(expected.is_ok())] += 1;
            if cq.inert_symbols().iter().all(|&inert| inert) {
                continue;
            }
            let mut run = cq.start();
            run.step_slice(&events[..EVENT_SLICE]);
            let early = !run.reads_text();
            run.step_slice(&events[EVENT_SLICE..]);
            settled_early += usize::from(early);
            settled_late += usize::from(!early && !run.reads_text());
        }
        let members: Vec<Nwa> = queries.into_iter().map(|(_, q)| q).collect();
        for picks in [&[0, 1, 2, 3, 4][..], &[2, 3]] {
            let set = QuerySet::compile(
                &picks
                    .iter()
                    .map(|&i| members[i].clone())
                    .collect::<Vec<_>>(),
            );
            let ctx = format!("document {d}, members {picks:?}");
            let engines = if picks.len() == 2 { 1 } else { picks.len() };
            assert_eq!(set.num_engines(), engines, "{ctx}: both shapes");
            let expected: Vec<StreamOutcome> = picks.iter().map(|&i| interpreted[i]).collect();
            assert_eq!(
                run_multi_streaming_reader(&set, stranger.as_bytes(), ab).unwrap(),
                expected,
                "{ctx}"
            );
            // The set reads names while any member does.
            let expected: Result<Vec<StreamOutcome>, String> = picks
                .iter()
                .map(|&i| expect_intruder(&members[i], &query::compile(&members[i]), &intruder, ab))
                .collect();
            assert_eq!(
                run_multi_streaming_reader(&set, intruder.as_bytes(), ab)
                    .map_err(|e| format!("{e:?}")),
                expected,
                "{ctx}"
            );
            outcomes[usize::from(expected.is_ok())] += 1;
        }
    }
    assert!(settled_early > 0, "no query settled in the first slice");
    assert!(settled_late > 0, "no query settled after the first slice");
    assert!(outcomes[1] > 0, "failed, decided: {outcomes:?}");
}

/// The unknown-tag rule, exactly: `<intruder>`, `</intruder>` or
/// `<intruder/>` spliced before event `k` of a document past three event
/// slices fails a compiled run with `UnknownSymbol` iff `k` comes before
/// the event after which the run stops reading names; spliced anywhere
/// later, the run decides like the same document with the tag renamed to
/// `t0`. Offsets: within 2 events of the settle point and of every slice
/// boundary, on every backend, for every query (one never settles on some
/// documents, so every splice into it fails).
#[test]
fn unknown_tags_fail_iff_read_before_the_run_settles() {
    let (mut failed, mut decided) = (0, 0);
    for (d, (ab, xml)) in xml_documents_of(1, 4 * EVENT_SLICE, 240).iter().enumerate() {
        let events = tokenize(xml, &mut ab.clone()).unwrap();
        let mut queries = xml_queries(ab);
        let w3 = ab.lookup("w3").unwrap();
        queries.push(("300 w3", word_count_at_least(w3, 300, ab.len())));
        for (name, q) in &queries {
            let cq = query::compile(q);
            let settle = names_settle(cq.start(), &events);
            for at in splice_offsets(&events, cq.inert_symbols(), settle, EVENT_SLICE) {
                for (intruder, renamed) in INTRUDERS {
                    let spliced = render_with(&events, ab, at, intruder);
                    let expected = if settle.is_some_and(|s| s <= at) {
                        decided += 1;
                        let renamed = render_with(&events, ab, at, renamed);
                        Ok(run_streaming_reader(q, renamed.as_bytes(), ab).unwrap())
                    } else {
                        failed += 1;
                        Err(unknown_symbol("intruder"))
                    };
                    for backend in ScanBackend::ALL
                        .into_iter()
                        .filter(|&b| force_scan_backend(b))
                    {
                        let ctx = format!(
                            "document {d}, {name}, {intruder} at {at}, settled at {settle:?}, {backend:?}"
                        );
                        let got = run_streaming_reader(&cq, spliced.as_bytes(), ab)
                            .map_err(|e| format!("{e:?}"));
                        assert_eq!(got, expected, "{ctx}");
                    }
                    auto_scan_backend();
                }
            }
        }
    }
    assert!(
        failed > 0 && decided > 0,
        "{failed} failed, {decided} decided"
    );
}

/// A settled scan of an in-memory document past twice the split size
/// (2 MiB) folds the rest of the document on every free core, while the
/// same bytes behind a `SCAN_CHUNK` `BufReader` are lexed in sequence: a
/// lone query and a query set decide both alike, on a document with
/// attributes, comments and CDATA sections holding `<`. Two spoiled
/// variants report the same error at the same offset both ways: an invalid
/// byte just past a two-part split's cut, and an unterminated comment that
/// starts before that cut.
#[test]
fn split_in_memory_scans_decide_like_buffered_ones() {
    let mut rng = Prng::new(24);
    let mut xml = String::from("<doc><t1><t2>");
    // The scan settles after its first event slice, which must leave
    // over 2 MiB.
    while xml.len() < 5 << 19 {
        match rng.below(32) {
            0..=7 => xml.push_str(&format!("<t{} k=\"v{}\">", rng.below(4), rng.below(9))),
            8..=15 => xml.push_str(&format!("</t{}>", rng.below(4))),
            16 => xml.push_str("<!-- c <x> -->"),
            17 => xml.push_str("<![CDATA[w1 <w2>]]>"),
            _ => xml.push_str(&format!(" w{} ", rng.below(4))),
        }
    }
    xml.push_str("</t2></t1></doc>");
    let mut ab = Alphabet::new();
    for name in ["doc", "t0", "t1", "t2", "t3", "w0", "w1", "w2", "w3"] {
        ab.intern(name);
    }
    let sym = |name: &str| ab.lookup(name).unwrap();
    let lone = query::compile(&contains_tag_nwa(sym("t1"), ab.len()));
    let set = QuerySet::compile(&[
        contains_tag_nwa(sym("t1"), ab.len()),
        contains_tag_nwa(sym("t2"), ab.len()),
    ]);
    let decide = |bytes: &[u8]| {
        let buffered = io::BufReader::with_capacity(SCAN_CHUNK, bytes);
        let runs = [
            run_streaming_reader(&lone, bytes, &ab),
            run_streaming_reader(&lone, buffered, &ab),
        ]
        .map(|r| r.map_err(|e| format!("{e:?}")));
        assert_eq!(runs[0], runs[1]);
        runs[0].clone()
    };
    assert!(
        decide(xml.as_bytes()).is_ok_and(|o| o.accepted),
        "the document holds t1"
    );
    let buffered = io::BufReader::with_capacity(SCAN_CHUNK, xml.as_bytes());
    let outcomes = run_multi_streaming_reader(&set, xml.as_bytes(), &ab).unwrap();
    assert_eq!(outcomes.len(), 2);
    assert_eq!(
        run_multi_streaming_reader(&set, buffered, &ab).unwrap(),
        outcomes
    );

    let cut = xml.len() / 2 + xml[xml.len() / 2..].find('<').unwrap();
    let bad = [&xml.as_bytes()[..=cut], b"\xFF", &xml.as_bytes()[cut + 1..]].concat();
    assert_eq!(
        decide(&bad),
        Err(format!("{:?}", SaxError::InvalidUtf8 { offset: cut + 1 }))
    );
    // A tag's start: `<t` sits in no comment or CDATA section.
    let open = cut - 100 + xml[cut - 100..].find("<t").unwrap();
    assert!(open < cut);
    let unterminated = format!(
        "{}<!-- never closed {}",
        &xml[..open],
        xml[open..].replace("-->", "- ->")
    );
    let outcome = decide(unterminated.as_bytes());
    assert!(
        outcome.as_ref().is_err_and(
            |e| e.contains("unterminated directive") && e.contains(&format!("offset: {open}"))
        ),
        "{outcome:?}"
    );
}
