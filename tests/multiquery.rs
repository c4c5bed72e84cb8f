//! Property tests for the multi-query subsystem: a compiled query set must
//! be *indistinguishable* from running its member queries one at a time —
//! at every prefix, on both backends, through serialization, and through
//! the combinator layer.
//!
//! The laws pinned here are the `automata_core::MultiAcceptor` contract:
//!
//! 1. **set ≡ sequential** — bit `i` of the set's verdict mask equals what
//!    a standalone run of query `i` observes, at every prefix, pending
//!    calls and pending returns included;
//! 2. **representation-free** — the product-table backend and the lockstep
//!    backend agree on the same seeds;
//! 3. **persistence** — `load(save(set)) == set` for both backends;
//! 4. **combinators** — lowering an `expr::Query` tree respects boolean
//!    semantics: `lower(a ∧ b)` accepts exactly when `lower(a)` and
//!    `lower(b)` both accept, and likewise for `∨` / `¬`.
//!
//! Cases are drawn from the suite's seeded generators (no crates.io access,
//! so no proptest); every failure is reproducible from the printed seed.

mod common;

use common::{chunk_lengths, prop_iters, random_det_nwa, skip_path_nwa};
use nested_words_suite::nested_words::generate::{random_nested_word, NestedWordConfig};
use nested_words_suite::nested_words::rng::Prng;
use nested_words_suite::nwa_xml::expr::Query;
use nested_words_suite::nwa_xml::queries::{
    contains_tag_nwa, depth_at_most_nwa, open_depth_at_most_nwa, patterns_in_order_nwa, within_nwa,
};
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

/// Law 1 (and law 2 via the shared loop): on both backends, the set's
/// verdict mask, conjunction view and final outcomes match per-query
/// standalone runs at every prefix of every word.
#[test]
fn set_verdicts_match_sequential_runs_at_every_prefix() {
    for seed in 0..prop_iters(6) as u64 {
        let queries = random_queries(5, seed);
        let words = random_words(8, seed);
        for backend in [QuerySetBackend::Product, QuerySetBackend::Lockstep] {
            let set = QuerySet::with_backend(&queries, backend);
            assert_eq!(set.backend(), backend);
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
                        "seed {seed}, {backend:?}, word {wi}, prefix {k}"
                    );
                    assert_eq!(
                        run.is_accepting(),
                        solo.iter().all(|s| s.is_accepting()),
                        "seed {seed}, {backend:?}, word {wi}, prefix {k}"
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
                        "seed {seed}, {backend:?}, word {wi}, query {i}"
                    );
                }
            }
        }
    }
}

/// Law 2, head to head: the two backends compiled from the same queries
/// produce identical verdict-mask traces — and `query::run_multi` over
/// the heuristic choice (`query::compile_set`) agrees with both.
#[test]
fn product_and_lockstep_backends_agree_on_the_same_seeds() {
    for seed in 0..prop_iters(8) as u64 {
        let queries = random_queries(4, seed);
        let product = QuerySet::with_backend(&queries, QuerySetBackend::Product);
        let lockstep = QuerySet::with_backend(&queries, QuerySetBackend::Lockstep);
        let heuristic = query::compile_set(&queries);
        for (wi, w) in random_words(6, seed ^ 0xA5A5).iter().enumerate() {
            let events: Vec<TaggedSymbol> = w.to_tagged();
            let mut p = product.start_set();
            let mut l = lockstep.start_set();
            for (k, &event) in events.iter().enumerate() {
                p.step(event);
                l.step(event);
                assert_eq!(
                    p.verdicts(),
                    l.verdicts(),
                    "seed {seed}, word {wi}, prefix {k}"
                );
            }
            assert_eq!(p.outcomes(), l.outcomes(), "seed {seed}, word {wi}");
            assert_eq!(
                query::run_multi(&heuristic, events.iter().copied()),
                p.outcomes(),
                "seed {seed}, word {wi}"
            );
        }
    }
}

/// Law 3: a set survives the facade's persistence verbs byte-exactly, on
/// both backends, and corruption is a typed error.
#[test]
fn query_sets_round_trip_through_save_and_load() {
    for seed in 0..prop_iters(10) as u64 {
        let queries = random_queries(3, seed);
        for backend in [QuerySetBackend::Product, QuerySetBackend::Lockstep] {
            let set = QuerySet::with_backend(&queries, backend);
            let bytes = query::save(&set);
            let back: QuerySet = query::load(&bytes).unwrap_or_else(|e| {
                panic!("seed {seed}, {backend:?}: load failed: {e}");
            });
            assert_eq!(back, set, "seed {seed}, {backend:?}");
            assert_eq!(back.fingerprint(), set.fingerprint());
            // The reloaded set answers identically.
            let events: Vec<TaggedSymbol> = random_words(1, seed)[0].to_tagged();
            assert_eq!(
                query::run_multi(&back, events.iter().copied()),
                query::run_multi(&set, events.iter().copied()),
                "seed {seed}, {backend:?}"
            );
            // Truncation at any tail offset is a typed error, never a panic.
            for cut in [1usize, 7, 16] {
                assert!(
                    QuerySet::load(&bytes[..bytes.len().saturating_sub(cut)]).is_err(),
                    "seed {seed}, {backend:?}, cut {cut}"
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
/// that straddle the 1024-event compaction block, both backends report at
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
        // outer symbol's calls only); some member reads syms 1 and 2.
        let lockstep = QuerySet::with_backend(&queries, QuerySetBackend::Lockstep);
        assert!(lockstep.is_inert(s0) && lockstep.is_inert(Symbol(3)));
        assert!(!lockstep.is_inert(s1) && !lockstep.is_inert(s2));
        let product_members = [queries[0].clone(), queries[3].clone(), queries[4].clone()];
        let product = QuerySet::with_backend(&product_members, QuerySetBackend::Product);
        let config = NestedWordConfig {
            len: 9000 + rng.below(4000),
            allow_pending: true,
            ..Default::default()
        };
        let events = random_nested_word(&ab, config, seed ^ 0xD0C).to_tagged();
        let lengths = chunk_lengths(events.len(), &mut rng);
        for (set, members) in [(&lockstep, &queries[..]), (&product, &product_members[..])] {
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
                let ctx = format!("seed {seed}, {:?}, after {at} events", set.backend());
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
/// 5,000-deep nesting must still report its full height and peak, on both
/// backends and through both the slice and the per-event entry.
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
    for backend in [QuerySetBackend::Product, QuerySetBackend::Lockstep] {
        let set = QuerySet::with_backend(&queries, backend);
        for sliced in [true, false] {
            let mut run = set.start_set();
            for part in [&events[..settled], &events[settled..deepest]] {
                if sliced {
                    run.step_slice(part);
                } else {
                    part.iter().for_each(|&e| run.step(e));
                }
            }
            let ctx = format!("{backend:?}, sliced {sliced}");
            assert_eq!(run.verdicts(), 0b11, "{ctx}");
            assert_eq!(run.stack_height(), 5_000, "{ctx}");
            assert_eq!(run.peak_memory(), 5_000, "{ctx}");
            run.step_slice(&events[deepest..]);
            assert_eq!(run.stack_height(), 0, "{ctx}");
            assert_eq!(run.peak_memory(), 5_000, "{ctx}");
            assert_eq!(run.steps(), events.len(), "{ctx}");
            for (outcome, q) in run.outcomes().iter().zip(&queries) {
                assert_eq!(
                    *outcome,
                    query::run_stream(q, events.iter().copied()),
                    "{ctx}"
                );
            }
        }
    }
}
