//! Property tests for the multi-query subsystem: a compiled query set must
//! be *indistinguishable* from running its member queries one at a time —
//! at every prefix, in both shapes, through serialization, and through the
//! combinator layer.
//!
//! The laws pinned here are the `automata_core::MultiAcceptor` contract:
//!
//! 1. **set ≡ sequential** — bit `i` of the set's verdict mask equals what
//!    a standalone run of query `i` observes, at every prefix, pending
//!    calls and pending returns included;
//! 2. **representation-free** — the product shape (one engine) and the
//!    per-query shape (one engine per member) agree on the same members;
//! 3. **persistence** — `load(save(set)) == set` in both shapes;
//! 4. **combinators** — lowering an `expr::Query` tree respects boolean
//!    semantics: `lower(a ∧ b)` accepts exactly when `lower(a)` and
//!    `lower(b)` both accept, and likewise for `∨` / `¬`.
//!
//! Each law runs its members in both shapes through `common::both_shapes`:
//! as they are (one product engine), and with a pad member appended that
//! pushes the product table past the cap (one engine per query).
//!
//! Cases are drawn from the suite's seeded generators (no crates.io access,
//! so no proptest); every failure is reproducible from the printed seed.

mod common;

use common::{
    both_shapes, chunk_lengths, names_settle, prop_iters, random_det_nwa, render_with,
    skip_path_nwa, splice_offsets, with_text_midway, xml_documents, xml_documents_of, xml_queries,
    INTRUDERS,
};
use nested_words_suite::nested_words::generate::{random_nested_word, NestedWordConfig};
use nested_words_suite::nested_words::rng::Prng;
use nested_words_suite::nwa_xml::expr::Query;
use nested_words_suite::nwa_xml::queries::{
    contains_tag_nwa, depth_at_most_nwa, open_depth_at_most_nwa, patterns_in_order_nwa,
    run_multi_streaming_reader, run_streaming_reader, within_nwa, EVENT_SLICE,
};
use nested_words_suite::nwa_xml::sax::{tokenize, SaxError};
use nested_words_suite::nwa_xml::scan::{auto_scan_backend, force_scan_backend, ScanBackend};
use nested_words_suite::prelude::*;
use nested_words_suite::query;

/// Random member queries over a common 2-symbol alphabet, with mixed state
/// counts so product-state decoding exercises a genuinely mixed radix.
fn random_queries(count: usize, seed: u64) -> Vec<Nwa> {
    (0..count)
        .map(|i| random_det_nwa(2 + (i % 3), 2, seed.wrapping_mul(97).wrapping_add(i as u64)))
        .collect()
}

/// Random nested words over the same alphabet, pending edges allowed — the
/// set must track pending calls and pending returns exactly like the
/// standalone runs do.
fn random_words(count: usize, base_seed: u64) -> Vec<NestedWord> {
    let ab = Alphabet::ab();
    let cfg = NestedWordConfig {
        len: 40,
        allow_pending: true,
        ..Default::default()
    };
    (0..count as u64)
        .map(|s| random_nested_word(&ab, cfg, base_seed.wrapping_add(s)))
        .collect()
}

/// Law 1 (and law 2 via the shared loop): in both shapes, the set's
/// verdict mask, conjunction view and final outcomes match per-query
/// standalone runs at every prefix of every word.
#[test]
fn set_verdicts_match_sequential_runs_at_every_prefix() {
    for seed in 0..prop_iters(6) as u64 {
        let words = random_words(8, seed);
        for (set, queries) in both_shapes(&random_queries(5, seed)) {
            let engines = set.num_engines();
            assert_eq!(MultiAcceptor::num_queries(&set), queries.len());
            for (wi, w) in words.iter().enumerate() {
                let events: Vec<TaggedSymbol> = w.to_tagged();
                let mut run = set.start_set();
                let mut solo: Vec<_> = queries.iter().map(|q| q.start()).collect();
                for (k, &event) in events.iter().enumerate() {
                    run.step(event);
                    let mut expected_mask = 0u64;
                    for (i, s) in solo.iter_mut().enumerate() {
                        s.step(event);
                        expected_mask |= u64::from(s.is_accepting()) << i;
                    }
                    assert_eq!(
                        run.verdicts(),
                        expected_mask,
                        "seed {seed}, {engines} engines, word {wi}, prefix {k}"
                    );
                    assert_eq!(
                        run.is_accepting(),
                        solo.iter().all(|s| s.is_accepting()),
                        "seed {seed}, {engines} engines, word {wi}, prefix {k}"
                    );
                    assert_eq!(run.stack_height(), solo[0].stack_height());
                    assert_eq!(run.peak_memory(), solo[0].peak_memory());
                }
                let outcomes = run.outcomes();
                assert_eq!(outcomes.len(), queries.len());
                for (i, q) in queries.iter().enumerate() {
                    let expected = query::run_stream(q, events.iter().copied());
                    assert_eq!(
                        outcomes[i], expected,
                        "seed {seed}, {engines} engines, word {wi}, query {i}"
                    );
                }
            }
        }
    }
}

/// Law 2, head to head: the two shapes compiled from the same queries
/// produce identical verdict-mask traces on the shared members, the pad's
/// bit follows its own standalone run — and `query::run_multi` over
/// `query::compile_set` agrees with both.
#[test]
fn product_and_lockstep_backends_agree_on_the_same_seeds() {
    for seed in 0..prop_iters(8) as u64 {
        let queries = random_queries(4, seed);
        let [(product, _), (per_query, padded)] = both_shapes(&queries);
        let shared = (1u64 << queries.len()) - 1;
        let pad = &padded[queries.len()];
        let heuristic = query::compile_set(&queries);
        for (wi, w) in random_words(6, seed ^ 0xA5A5).iter().enumerate() {
            let events: Vec<TaggedSymbol> = w.to_tagged();
            let mut p = product.start_set();
            let mut l = per_query.start_set();
            let mut solo_pad = pad.start();
            for (k, &event) in events.iter().enumerate() {
                p.step(event);
                l.step(event);
                solo_pad.step(event);
                assert_eq!(
                    p.verdicts(),
                    l.verdicts() & shared,
                    "seed {seed}, word {wi}, prefix {k}"
                );
                assert_eq!(
                    l.verdicts() >> queries.len(),
                    u64::from(solo_pad.is_accepting()),
                    "seed {seed}, word {wi}, prefix {k}"
                );
            }
            let mut padded_outcomes = l.outcomes();
            assert_eq!(
                padded_outcomes.pop(),
                Some(query::run_stream(pad, events.iter().copied())),
                "seed {seed}, word {wi}"
            );
            assert_eq!(p.outcomes(), padded_outcomes, "seed {seed}, word {wi}");
            assert_eq!(
                query::run_multi(&heuristic, events.iter().copied()),
                p.outcomes(),
                "seed {seed}, word {wi}"
            );
        }
    }
}

/// Law 3: a set survives the facade's persistence verbs byte-exactly, in
/// both shapes, and corruption is a typed error.
#[test]
fn query_sets_round_trip_through_save_and_load() {
    for seed in 0..prop_iters(10) as u64 {
        for (set, _) in both_shapes(&random_queries(3, seed)) {
            let engines = set.num_engines();
            let bytes = query::save(&set);
            let back: QuerySet = query::load(&bytes).unwrap_or_else(|e| {
                panic!("seed {seed}, {engines} engines: load failed: {e}");
            });
            assert_eq!(back, set, "seed {seed}, {engines} engines");
            assert_eq!(back.fingerprint(), set.fingerprint());
            // The reloaded set answers identically.
            let events: Vec<TaggedSymbol> = random_words(1, seed)[0].to_tagged();
            assert_eq!(
                query::run_multi(&back, events.iter().copied()),
                query::run_multi(&set, events.iter().copied()),
                "seed {seed}, {engines} engines"
            );
            // Truncation at any tail offset is a typed error, never a panic.
            for cut in [1usize, 7, 16] {
                assert!(
                    QuerySet::load(&bytes[..bytes.len().saturating_sub(cut)]).is_err(),
                    "seed {seed}, {engines} engines, cut {cut}"
                );
            }
        }
    }
}

/// A random combinator tree over the document-query zoo.
fn random_query_expr(rng: &mut Prng, depth: usize) -> Query {
    if depth == 0 || rng.bool(0.35) {
        match rng.below(5) {
            0 => Query::contains(Symbol(rng.below(2) as u16)),
            1 => Query::in_order(vec![
                Symbol(rng.below(2) as u16),
                Symbol(rng.below(2) as u16),
            ]),
            2 => Query::depth_le(rng.below(3)),
            3 => Query::open_depth_le(rng.below(3)),
            _ => Query::within(Symbol(rng.below(2) as u16), Symbol(rng.below(2) as u16)),
        }
    } else {
        let a = random_query_expr(rng, depth - 1);
        match rng.below(3) {
            0 => a.and(random_query_expr(rng, depth - 1)),
            1 => a.or(random_query_expr(rng, depth - 1)),
            _ => a.not(),
        }
    }
}

/// The boolean reference semantics: leaves decided by their lowered
/// automata, connectives by plain logic.
fn eval_expr(q: &Query, w: &NestedWord, sigma: usize) -> bool {
    match q {
        Query::And(a, b) => eval_expr(a, w, sigma) && eval_expr(b, w, sigma),
        Query::Or(a, b) => eval_expr(a, w, sigma) || eval_expr(b, w, sigma),
        Query::Not(a) => !eval_expr(a, w, sigma),
        leaf => leaf.lower(sigma).accepts(w),
    }
}

/// Law 4: lowering a combinator tree through the `BooleanOps`
/// constructions is language-equivalent to composing the lowered leaves
/// with plain boolean logic — and the lowered trees make valid query-set
/// members.
#[test]
fn expr_lowering_matches_boolean_composition() {
    let sigma = Alphabet::ab().len();
    for seed in 0..prop_iters(12) as u64 {
        let mut rng = Prng::new(seed.wrapping_add(0x51C2));
        let exprs: Vec<Query> = (0..3).map(|_| random_query_expr(&mut rng, 2)).collect();
        let lowered: Vec<Nwa> = exprs.iter().map(|e| e.lower(sigma)).collect();
        let words = random_words(6, seed);
        for (wi, w) in words.iter().enumerate() {
            for (ei, (e, m)) in exprs.iter().zip(&lowered).enumerate() {
                assert_eq!(
                    m.accepts(w),
                    eval_expr(e, w, sigma),
                    "seed {seed}, word {wi}, expr {ei}: {e:?}"
                );
            }
        }
        // Lowered combinator queries run as a set like any other members.
        let set = query::compile_set(&lowered);
        for (wi, w) in words.iter().enumerate() {
            let events: Vec<TaggedSymbol> = w.to_tagged();
            let outcomes = query::run_multi(&set, events.iter().copied());
            for (ei, e) in exprs.iter().enumerate() {
                assert_eq!(
                    outcomes[ei].accepted,
                    eval_expr(e, w, sigma),
                    "seed {seed}, word {wi}, expr {ei}"
                );
            }
        }
    }
}

/// The skip paths of a set's slice loop — events dropped as inert for the
/// whole set, members retired in absorbing states, the set lane's own
/// stack accounting — are exact: fed through `step_slice` in chunkings
/// that straddle the 1024-event compaction block, every shape reports at
/// every slice boundary the verdicts, stack height, peak and step count of
/// per-query runs stepped event by event. Members are built to have inert,
/// partly inert and random symbols and a reachable sink, or drawn from the
/// `nwa_xml` zoo; streams carry pending calls and pending returns.
#[test]
fn skip_paths_match_per_query_runs_at_every_slice_boundary() {
    let sigma = 4;
    let ab = Alphabet::with_size(sigma);
    let (s0, s1, s2) = (Symbol(0), Symbol(1), Symbol(2));
    for seed in 0..prop_iters(3) as u64 {
        let mut rng = Prng::new(seed ^ 0x5C1F);
        let mut queries: Vec<Nwa> = (0..3)
            .map(|i| skip_path_nwa(3 + i, sigma, seed * 31 + i as u64))
            .collect();
        queries.extend([
            contains_tag_nwa(s1, sigma),
            within_nwa(s0, s2, sigma),
            open_depth_at_most_nwa(6, sigma),
            depth_at_most_nwa(3, sigma),
            patterns_in_order_nwa(&[s1, s2], sigma),
        ]);
        // Syms 0 and 3 are inert in every member (`within` moves on its
        // outer symbol's calls only); some member reads syms 1 and 2. All
        // eight members are too many for one product table.
        let all = QuerySet::compile(&queries);
        assert_eq!(all.num_engines(), queries.len());
        assert!(all.is_inert(s0) && all.is_inert(Symbol(3)));
        assert!(!all.is_inert(s1) && !all.is_inert(s2));
        let product_members = [queries[0].clone(), queries[3].clone(), queries[4].clone()];
        let mut sets = vec![(all, queries)];
        sets.extend(both_shapes(&product_members));
        let config = NestedWordConfig {
            len: 9000 + rng.below(4000),
            allow_pending: true,
            ..Default::default()
        };
        let events = random_nested_word(&ab, config, seed ^ 0xD0C).to_tagged();
        let lengths = chunk_lengths(events.len(), &mut rng);
        for (set, members) in &sets {
            let mut run = set.start_set();
            let mut solo: Vec<_> = members.iter().map(|q| q.start()).collect();
            let mut at = 0;
            for &len in &lengths {
                let chunk = &events[at..at + len];
                at += len;
                run.step_slice(chunk);
                for s in &mut solo {
                    for &event in chunk {
                        s.step(event);
                    }
                }
                let expected = solo
                    .iter()
                    .enumerate()
                    .fold(0u64, |m, (i, s)| m | u64::from(s.is_accepting()) << i);
                let ctx = format!(
                    "seed {seed}, {} engines, after {at} events",
                    set.num_engines()
                );
                assert_eq!(run.verdicts(), expected, "{ctx}");
                assert_eq!(run.stack_height(), solo[0].stack_height(), "{ctx}");
                assert_eq!(run.peak_memory(), solo[0].peak_memory(), "{ctx}");
                assert_eq!(run.steps(), at, "{ctx}");
            }
            for (outcome, q) in run.outcomes().iter().zip(members) {
                assert_eq!(*outcome, query::run_stream(q, events.iter().copied()));
            }
        }
    }
}

/// Members that settle early stop stepping, yet the set still measures the
/// stream: after both `contains` members sit in their absorbing state, a
/// 5,000-deep nesting must still report its full height and peak, in both
/// shapes and through both the slice and the per-event entry.
#[test]
fn retired_members_leave_stack_accounting_exact() {
    let sigma = 3;
    let (a, b, c) = (Symbol(0), Symbol(1), Symbol(2));
    let queries = [contains_tag_nwa(a, sigma), contains_tag_nwa(b, sigma)];
    let mut events = vec![
        TaggedSymbol::Call(a),
        TaggedSymbol::Return(a),
        TaggedSymbol::Call(b),
        TaggedSymbol::Internal(c),
        TaggedSymbol::Return(b),
    ];
    let settled = events.len();
    events.extend(std::iter::repeat_n(TaggedSymbol::Call(c), 5_000));
    events.extend(std::iter::repeat_n(TaggedSymbol::Internal(c), 10));
    events.extend(std::iter::repeat_n(TaggedSymbol::Return(c), 5_000));
    let deepest = settled + 5_000;
    for (set, members) in both_shapes(&queries) {
        // The pad (depth ≤ 256) has died by the deepest point.
        let expected = members.iter().enumerate().fold(0u64, |m, (i, q)| {
            m | u64::from(query::contains_stream(q, events[..deepest].iter().copied())) << i
        });
        for sliced in [true, false] {
            let mut run = set.start_set();
            for part in [&events[..settled], &events[settled..deepest]] {
                if sliced {
                    run.step_slice(part);
                } else {
                    part.iter().for_each(|&e| run.step(e));
                }
            }
            let ctx = format!("{} engines, sliced {sliced}", set.num_engines());
            assert_eq!(run.verdicts() & 0b11, 0b11, "{ctx}");
            assert_eq!(run.verdicts(), expected, "{ctx}");
            assert_eq!(run.stack_height(), 5_000, "{ctx}");
            assert_eq!(run.peak_memory(), 5_000, "{ctx}");
            run.step_slice(&events[deepest..]);
            assert_eq!(run.stack_height(), 0, "{ctx}");
            assert_eq!(run.peak_memory(), 5_000, "{ctx}");
            assert_eq!(run.steps(), events.len(), "{ctx}");
            for (outcome, q) in run.outcomes().iter().zip(&members) {
                assert_eq!(
                    *outcome,
                    query::run_stream(q, events.iter().copied()),
                    "{ctx}"
                );
            }
        }
    }
}

/// Counts the internal events labelled `w`, modulo 2, accepting at zero:
/// it reads `w` in every state and has no absorbing state.
fn word_parity(w: Symbol, sigma: usize) -> Nwa {
    let mut m = Nwa::new(2, sigma, 0);
    m.set_accepting(0, true);
    for q in 0..2 {
        for a in (0..sigma).map(|a| Symbol(a as u16)) {
            m.set_internal(q, a, if a == w { 1 - q } else { q });
            m.set_call(q, a, q, q);
            for h in 0..2 {
                m.set_return(q, h, a, q);
            }
        }
    }
    m
}

/// A set lane reads text while one of its live engines does. One engine
/// per query: it stops reading once the last member that reads text has
/// settled, while text-blind members (`depth <= 6`, the depth pad) may
/// still be live. One product engine: it reads text until the product
/// settles. A set lane reads names while any engine is live, so a live
/// text-blind member keeps it reading names after it stopped reading
/// text; it stops only once every member has settled. Once `false` either
/// stays `false`. A set holding a member that never settles and reads text
/// (a word parity, as in the `live16` bench pool) reads both to the end.
#[test]
fn set_lane_reads_text_until_its_last_text_reader_retires() {
    let documents = xml_documents(prop_iters(4), 130);
    // Every generated document shares one alphabet: compile once.
    let ab = &documents[0].0;
    let sym = |name: &str| ab.lookup(name).unwrap();
    let sigma = ab.len();
    let members = [
        within_nwa(sym("t0"), sym("w0"), sigma),
        depth_at_most_nwa(6, sigma),
        contains_tag_nwa(sym("t1"), sigma),
    ];
    let parity = [
        word_parity(sym("w3"), sigma),
        contains_tag_nwa(sym("t1"), sigma),
    ];
    let shapes: Vec<_> = both_shapes(&members)
        .into_iter()
        .map(|(set, members)| (set, members, false))
        .chain(
            both_shapes(&parity)
                .into_iter()
                .map(|(set, members)| (set, members, true)),
        )
        .map(|(set, members, never_settles)| {
            let lone: Vec<CompiledNwa> = members.iter().map(query::compile).collect();
            let readers: Vec<bool> = lone
                .iter()
                .map(|c| !c.inert_symbols().iter().all(|&inert| inert))
                .collect();
            (set, lone, readers, never_settles)
        })
        .collect();
    let (mut flipped_with_blind_live, mut names_with_blind_live) = (0, 0);
    for (d, (doc_ab, xml)) in documents.iter().enumerate() {
        assert_eq!(doc_ab, ab, "document {d}");
        let events = nested_words_suite::nwa_xml::sax::tokenize(xml, &mut ab.clone()).unwrap();
        let lengths = chunk_lengths(events.len(), &mut Prng::new(d as u64));
        for (set, lone, readers, never_settles) in &shapes {
            let mut runs: Vec<_> = lone.iter().map(|c| c.start()).collect();
            let mut run = set.start_set();
            let (mut reads, mut names) = (true, true);
            let mut at = 0;
            for &len in &lengths {
                let slice = &events[at..at + len];
                at += len;
                run.step_slice(slice);
                runs.iter_mut().for_each(|r| r.step_slice(slice));
                let live = |i: usize| runs[i].reads_text();
                let expected = if set.num_engines() == 1 {
                    readers.contains(&true) && (0..runs.len()).any(live)
                } else {
                    (0..runs.len()).any(|i| readers[i] && live(i))
                };
                let ctx = format!(
                    "document {d}, {} engines, after {at} events",
                    set.num_engines()
                );
                assert_eq!(run.reads_text(), expected, "{ctx}");
                assert!(reads || !expected, "{ctx}: read text again");
                if *never_settles {
                    assert!(expected, "{ctx}: the parity set stopped reading");
                }
                if reads && !expected && (0..runs.len()).any(|i| !readers[i] && live(i)) {
                    flipped_with_blind_live += 1;
                }
                reads = expected;
                let expected = runs.iter().any(|r| r.reads_names());
                assert_eq!(run.reads_names(), expected, "{ctx}: names");
                assert!(names || !expected, "{ctx}: read names again");
                assert!(expected || !reads, "{ctx}: reads text, not names");
                if *never_settles {
                    assert!(expected, "{ctx}: the parity set stopped reading names");
                }
                names_with_blind_live += usize::from(expected && !reads);
                names = expected;
            }
        }
    }
    assert!(
        flipped_with_blind_live > 0,
        "no set narrowed with text-blind members live"
    );
    assert!(
        names_with_blind_live > 0,
        "no live text-blind member kept a set reading names"
    );
}

/// The one-pass set reader projects through the set-wide inert symbols and
/// still reports, per member, what that member's interpreted (unprojected)
/// bytes→verdict run reports — verdict, events read and peak stack — in a
/// drop-all set (the two text-blind members, one product engine) and a
/// keep-bit set (all four members, one engine each). Under either set a
/// text word outside the alphabet decides like `w2`, a known word no
/// member reads. An unknown tag is an `UnknownSymbol` iff the set still
/// reads names where it stands (at the start it always does); after every
/// member has settled it decides like the tag renamed to `t0`.
#[test]
fn projected_set_reader_matches_unprojected_member_runs() {
    let mut outcomes = [0, 0];
    for (d, (ab, xml)) in xml_documents(prop_iters(4), 90).iter().enumerate() {
        let queries: Vec<Nwa> = xml_queries(ab).into_iter().map(|(_, q)| q).collect();
        let stranger = with_text_midway(xml, "stranger");
        let renamed = with_text_midway(xml, "w2");
        for members in [&queries[..2], &queries[..]] {
            let set = QuerySet::compile(members);
            let drop_all = set.inert_symbols().iter().all(|&inert| inert);
            assert_eq!(drop_all, members.len() == 2, "document {d}");
            let engines = if drop_all { 1 } else { members.len() };
            assert_eq!(set.num_engines(), engines, "document {d}");
            let sequential = |xml: &str| -> Vec<StreamOutcome> {
                members
                    .iter()
                    .map(|q| run_streaming_reader(q, xml.as_bytes(), ab).unwrap())
                    .collect()
            };
            let ctx = format!("document {d}, {} members", members.len());
            assert_eq!(
                run_multi_streaming_reader(&set, xml.as_bytes(), ab).unwrap(),
                sequential(xml),
                "{ctx}"
            );
            assert!(set.is_inert(ab.lookup("w2").unwrap()), "{ctx}");
            assert_eq!(
                run_multi_streaming_reader(&set, stranger.as_bytes(), ab).unwrap(),
                sequential(&renamed),
                "{ctx}"
            );
            for intruder in [
                format!("<intruder/> {xml}"),
                with_text_midway(xml, "<intruder/>"),
            ] {
                let at = intruder.find("<intruder/>").unwrap();
                let mut run = set.start_set();
                run.step_slice(&tokenize(&intruder[..at], &mut ab.clone()).unwrap());
                let got = run_multi_streaming_reader(&set, intruder.as_bytes(), ab);
                if run.reads_names() {
                    assert!(
                        matches!(
                            got,
                            Err(SaxError::Syntax(NestedWordError::UnknownSymbol { ref name }))
                                if name == "intruder"
                        ),
                        "{ctx}: {got:?}"
                    );
                    outcomes[0] += 1;
                } else {
                    let renamed = intruder.replace("<intruder/>", "<t0/>");
                    assert_eq!(got.unwrap(), sequential(&renamed), "{ctx}");
                    outcomes[1] += 1;
                }
            }
        }
    }
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "failed, decided: {outcomes:?}"
    );
}

/// The unknown-tag rule for sets, exactly: `<intruder>`, `</intruder>` or
/// `<intruder/>` spliced before event `k` fails the set's bytes→verdict
/// run iff `k` comes before the event after which its last live member
/// settles (the set stops reading names); spliced anywhere later, every
/// member decides like the document with the tag renamed to `t0`.
/// Offsets: within 2 events of the set's settle point and of every slice
/// boundary, on every backend, for a drop-all set (one product engine) and
/// a keep-bit set (one engine per member).
#[test]
fn set_unknown_tags_fail_iff_read_before_the_set_settles() {
    let (mut failed, mut decided) = (0, 0);
    for (d, (ab, xml)) in xml_documents_of(1, 4 * EVENT_SLICE, 246).iter().enumerate() {
        let events = tokenize(xml, &mut ab.clone()).unwrap();
        let queries: Vec<Nwa> = xml_queries(ab).into_iter().map(|(_, q)| q).collect();
        for members in [&queries[..2], &queries[..]] {
            let set = QuerySet::compile(members);
            let settle = names_settle(set.start_set(), &events);
            for at in splice_offsets(&events, set.inert_symbols(), settle, EVENT_SLICE) {
                for (intruder, renamed) in INTRUDERS {
                    let spliced = render_with(&events, ab, at, intruder);
                    let expected = if settle.is_some_and(|s| s <= at) {
                        decided += 1;
                        let renamed = render_with(&events, ab, at, renamed);
                        Ok(members
                            .iter()
                            .map(|q| run_streaming_reader(q, renamed.as_bytes(), ab).unwrap())
                            .collect::<Vec<_>>())
                    } else {
                        failed += 1;
                        Err(format!(
                            "{:?}",
                            SaxError::Syntax(NestedWordError::UnknownSymbol {
                                name: "intruder".into()
                            })
                        ))
                    };
                    for backend in ScanBackend::ALL
                        .into_iter()
                        .filter(|&b| force_scan_backend(b))
                    {
                        let ctx = format!(
                            "document {d}, {} members, {intruder} at {at}, settled at {settle:?}, {backend:?}",
                            members.len()
                        );
                        let got = run_multi_streaming_reader(&set, spliced.as_bytes(), ab)
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

/// The sixteen-query E19 pool (the perfbench `stream_16q` set and the
/// `e19_*` bench rows) over 8 tags and 16 words, σ = 24. One column per
/// tagged symbol took 591,840 B; symbol classes must cut that at least
/// tenfold.
#[test]
fn the_e19_pool_tables_shrink_tenfold() {
    let sigma = 24;
    let (t0, t1, t2, t3) = (Symbol(0), Symbol(1), Symbol(2), Symbol(3));
    let pool: Vec<Nwa> = [
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
    ]
    .iter()
    .map(|e| e.lower(sigma))
    .collect();
    let set = query::compile_set(&pool);
    assert_eq!(set.num_engines(), 16);
    assert_eq!(set.table_bytes(), 15_140);
    assert!(set.table_bytes() * 10 <= 591_840);
}
