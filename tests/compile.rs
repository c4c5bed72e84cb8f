//! Property tests for the compiled execution engines: for every model
//! implementing `Compile`, the compiled artifact must be observationally
//! equivalent to the interpreted automaton — same acceptance, same event
//! counts, same stack heights and peak memory — at every prefix, on
//! Prng-random nested words (pending calls and returns included) and on the
//! paper's Theorem-3 succinctness families.
//!
//! Cases are drawn from the suite's seeded generators (no crates.io access,
//! so no proptest); every failure is reproducible from the printed seed.
//! `NWA_PROP_ITERS` scales the iteration counts (see `tests/common`).

mod common;

use common::{
    chunk_lengths, prop_iters, random_det_nwa, random_nnwa_with_transitions, skip_path_nwa,
};
use nested_words_suite::nested_words::generate::{random_nested_word, NestedWordConfig};
use nested_words_suite::nested_words::path;
use nested_words_suite::nested_words::rng::Prng;
use nested_words_suite::nwa::families::{path_family_nwa, path_family_tagged_dfa};
use nested_words_suite::nwa::flat::to_tagged_dfa;
use nested_words_suite::nwa::joinless::joinless_from_nwa;
use nested_words_suite::nwa_xml::queries::{
    contains_tag_nwa, depth_at_most_nwa, open_depth_at_most_nwa, patterns_in_order_nwa, within_nwa,
};
use nested_words_suite::prelude::*;
use nested_words_suite::query;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// Steps the interpreted and compiled runs in lockstep and asserts every
/// observable agrees at every prefix.
fn assert_runs_agree<A, C>(interpreted: &A, compiled: &C, events: &[TaggedSymbol], ctx: &str)
where
    A: StreamAcceptor,
    C: StreamAcceptor,
{
    let mut ir = interpreted.start();
    let mut cr = compiled.start();
    for (i, &event) in events.iter().enumerate() {
        ir.step(event);
        cr.step(event);
        assert_eq!(ir.is_accepting(), cr.is_accepting(), "{ctx}, prefix {i}");
        assert_eq!(ir.stack_height(), cr.stack_height(), "{ctx}, prefix {i}");
        assert_eq!(ir.peak_memory(), cr.peak_memory(), "{ctx}, prefix {i}");
        assert_eq!(ir.steps(), cr.steps(), "{ctx}, prefix {i}");
    }
}

/// Compiled ≡ interpreted for random deterministic NWAs: prefix-exact via
/// the streaming protocol, and outcome-exact via the bulk runner.
#[test]
fn compiled_nwa_equals_interpreted_on_random_words() {
    let words = random_words(prop_iters(60));
    for seed in 0..prop_iters(5) as u64 {
        let m = random_det_nwa(4, 2, seed);
        let c = query::compile(&m);
        for (i, w) in words.iter().enumerate() {
            let events = w.to_tagged();
            assert_runs_agree(&m, &c, &events, &format!("nwa seed {seed}, word {i}"));
            assert_eq!(
                c.run_tagged(&events),
                query::run_stream(&m, events.iter().copied()),
                "bulk: nwa seed {seed}, word {i}"
            );
        }
    }
}

/// Compiled ≡ interpreted for random nondeterministic NWAs (the memoized
/// summary engine against the on-the-fly subset construction). One compiled
/// artifact serves every word, so later words run mostly on memoized rows —
/// exactly the cache path that must stay exact.
#[test]
fn compiled_nnwa_equals_interpreted_on_random_words() {
    let words = random_words(prop_iters(60));
    for seed in 0..prop_iters(4) as u64 {
        let n = random_nnwa_with_transitions(3, 2, 9, seed);
        let c = query::compile(&n);
        for (i, w) in words.iter().enumerate() {
            let events = w.to_tagged();
            assert_runs_agree(&n, &c, &events, &format!("nnwa seed {seed}, word {i}"));
        }
    }
}

/// Compiled ≡ interpreted for joinless NWAs (the same memoized engine over
/// the mode-split return relation).
#[test]
fn compiled_joinless_equals_interpreted_on_random_words() {
    let words = random_words(prop_iters(40));
    for seed in 0..prop_iters(3) as u64 {
        let j = joinless_from_nwa(&random_nnwa_with_transitions(2, 2, 6, seed));
        let c = query::compile(&j);
        for (i, w) in words.iter().enumerate() {
            let events = w.to_tagged();
            assert_runs_agree(&j, &c, &events, &format!("joinless seed {seed}, word {i}"));
        }
    }
}

/// Compiled ≡ interpreted for tagged-alphabet DFAs.
#[test]
fn compiled_tagged_dfa_equals_interpreted_on_random_words() {
    let sigma = 2usize;
    let words = random_words(prop_iters(60));
    let mut rng = Prng::new(0xC0DE);
    for seed in 0..prop_iters(5) {
        let mut d = Dfa::new(3, 3 * sigma, 0);
        for q in 0..3 {
            d.set_accepting(q, rng.bool(0.5));
            for a in 0..3 * sigma {
                d.set_transition(q, a, rng.below(3));
            }
        }
        let c = query::compile(&d);
        for (i, w) in words.iter().enumerate() {
            let events = w.to_tagged();
            assert_runs_agree(&d, &c, &events, &format!("dfa seed {seed}, word {i}"));
            assert_eq!(
                c.run_tagged(&events).accepted,
                query::contains_stream(&d, events.iter().copied()),
                "bulk: dfa seed {seed}, word {i}"
            );
        }
    }
}

/// The Theorem-3 succinctness family: the O(s)-state NWA and the 2^s-state
/// tagged DFA both compile, and both compiled artifacts agree with their
/// interpreted sources on members of L_s, near-misses, and random words.
#[test]
fn compiled_engines_agree_on_theorem3_families() {
    let ab = Alphabet::ab();
    let cfg = NestedWordConfig {
        len: 30,
        allow_pending: true,
        ..Default::default()
    };
    for s in 1..=4usize {
        let nwa = path_family_nwa(s);
        let dfa = path_family_tagged_dfa(s);
        let cn = query::compile(&nwa);
        let cd = query::compile(&dfa);

        // Members: every path word of length s; near-misses: lengths s±1.
        let mut inputs: Vec<NestedWord> = Vec::new();
        for len in [s.saturating_sub(1), s, s + 1] {
            for bits in 0..1usize << len {
                let word: Vec<Symbol> =
                    (0..len).map(|i| Symbol(((bits >> i) & 1) as u16)).collect();
                inputs.push(path::path(&word));
            }
        }
        for seed in 0..prop_iters(20) as u64 {
            inputs.push(random_nested_word(&ab, cfg, seed));
        }

        for (i, w) in inputs.iter().enumerate() {
            let events = w.to_tagged();
            let expected = query::contains(&nwa, w);
            assert_eq!(
                query::contains_stream(&cn, events.iter().copied()),
                expected,
                "s = {s}, input {i}: compiled NWA disagrees"
            );
            assert_eq!(
                cn.run_tagged(&events).accepted,
                expected,
                "s = {s}, input {i}: bulk compiled NWA disagrees"
            );
            assert_eq!(
                query::contains_stream(&cd, events.iter().copied()),
                query::contains_stream(&dfa, events.iter().copied()),
                "s = {s}, input {i}: compiled DFA disagrees with interpreted DFA"
            );
        }
    }
}

/// `query::compile` round-trips through the trait object the same way the
/// inherent method does, and compiled artifacts outlive their sources.
#[test]
fn compiled_artifacts_are_self_contained() {
    let m = random_det_nwa(3, 2, 42);
    let c = query::compile(&m);
    let words = random_words(10);
    let expected: Vec<bool> = words.iter().map(|w| query::contains(&m, w)).collect();
    drop(m);
    for (w, &e) in words.iter().zip(&expected) {
        assert_eq!(query::contains_stream(&c, w.to_tagged()), e);
    }
}

/// The compacted slice loop is exact: a compiled NWA fed through
/// `step_slice`, in chunkings that straddle the 1024-event compaction
/// block, observes at every slice boundary what the interpreted automaton
/// observes event by event. Mid-stream, right after a run of skipped inert
/// internals, the sliced lane's snapshot equals the snapshot of a compiled
/// lane stepped one event at a time, and the run resumed from it finishes
/// identically.
#[test]
fn compiled_nwa_slices_equal_steps_on_skip_paths() {
    let sigma = 4;
    let ab = Alphabet::with_size(sigma);
    let (s0, s1, s2) = (Symbol(0), Symbol(1), Symbol(2));
    for seed in 0..prop_iters(3) as u64 {
        let mut rng = Prng::new(seed ^ 0xB10C);
        let models = [
            skip_path_nwa(3, sigma, seed),
            skip_path_nwa(5, sigma, seed + 100),
            contains_tag_nwa(s1, sigma),
            within_nwa(s0, s2, sigma),
            open_depth_at_most_nwa(5, sigma),
            depth_at_most_nwa(3, sigma),
            patterns_in_order_nwa(&[s2, s1], sigma),
        ];
        let config = NestedWordConfig {
            len: 9000 + rng.below(3000),
            allow_pending: true,
            ..Default::default()
        };
        let mut events = random_nested_word(&ab, config, seed ^ 0xE7).to_tagged();
        // Symbol 0 is inert in every model: a run of it, ending where the
        // run is suspended, is dropped whole by the slice loop.
        let park = 2000 + rng.below(4000);
        events.splice(
            park..park,
            std::iter::repeat_n(TaggedSymbol::Internal(s0), 37),
        );
        let park = park + 37;
        let lengths = chunk_lengths(events.len(), &mut rng);
        for (mi, m) in models.iter().enumerate() {
            let c = query::compile(m);
            assert!(c.is_inert(s0), "model {mi}");
            let ctx = |at: usize| format!("seed {seed}, model {mi}, after {at} events");
            let mut sliced = c.start();
            let mut reference = m.start();
            let mut at = 0;
            let mut bounds: Vec<usize> = lengths
                .iter()
                .scan(0, |end, &len| {
                    *end += len;
                    Some(*end)
                })
                .collect();
            bounds.push(park);
            bounds.sort_unstable();
            bounds.dedup();
            for end in bounds {
                sliced.step_slice(&events[at..end]);
                events[at..end].iter().for_each(|&e| reference.step(e));
                at = end;
                assert_eq!(
                    sliced.is_accepting(),
                    reference.is_accepting(),
                    "{}",
                    ctx(at)
                );
                assert_eq!(
                    sliced.stack_height(),
                    reference.stack_height(),
                    "{}",
                    ctx(at)
                );
                assert_eq!(sliced.peak_memory(), reference.peak_memory(), "{}", ctx(at));
                assert_eq!(sliced.steps(), reference.steps(), "{}", ctx(at));
                if at == park {
                    let mut stepped = c.start();
                    events[..park].iter().for_each(|&e| stepped.step(e));
                    let snapshot = query::suspend(&c, sliced.lane());
                    assert_eq!(snapshot, query::suspend(&c, stepped.lane()), "{}", ctx(at));
                    let lane = query::resume(&c, &snapshot).expect("own snapshot resumes");
                    sliced = LaneRun::from_lane(&c, lane);
                }
            }
            assert_eq!(
                c.run_tagged(&events),
                query::run_stream(m, events.iter().copied()),
                "seed {seed}, model {mi}"
            );
        }
    }
}

/// Steps `run` over `events` one event at a time.
fn step_each(mut run: impl StreamRun, events: &[TaggedSymbol]) {
    events.iter().for_each(|&e| run.step(e));
}

/// Whether `f` panics.
fn panics(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_err()
}

/// An event symbol outside the alphabet is refused by every engine, as by
/// the interpreted automata, instead of reading a neighbouring row: before
/// the check, `state + σ + a` landed in the next row's call band and the
/// compiled `contains_tag` accepted.
#[test]
fn symbols_outside_the_alphabet_panic_in_every_engine() {
    let sigma = 2;
    let m = contains_tag_nwa(Symbol(0), sigma);
    let c = query::compile(&m);
    let dfa = to_tagged_dfa(&m);
    let cdfa = query::compile(&dfa);
    let set = query::compile_set(&[m.clone(), contains_tag_nwa(Symbol(1), sigma)]);
    type Run<'a> = (&'static str, Box<dyn Fn(&[TaggedSymbol]) + 'a>);
    let runs: [Run; 8] = [
        ("nwa", Box::new(|e| step_each(m.start(), e))),
        ("compiled nwa", Box::new(|e| step_each(c.start(), e))),
        ("compiled nwa slice", Box::new(|e| c.start().step_slice(e))),
        ("dfa", Box::new(|e| step_each(dfa.start(), e))),
        ("compiled dfa", Box::new(|e| step_each(cdfa.start(), e))),
        (
            "compiled dfa slice",
            Box::new(|e| cdfa.start().step_slice(e)),
        ),
        ("set", Box::new(|e| step_each(set.start_set(), e))),
        ("set slice", Box::new(|e| set.start_set().step_slice(e))),
    ];
    for event in [
        TaggedSymbol::Internal(Symbol(5)),
        TaggedSymbol::Call(Symbol(2)),
        TaggedSymbol::Return(Symbol(7)),
    ] {
        let events = [TaggedSymbol::Call(Symbol(1)), event];
        for (name, run) in &runs {
            assert!(panics(|| run(&events)), "{name}, {event:?}");
        }
    }
}

/// The two facts the compiled engines derive from their tables, on the
/// query zoo: which symbols are inert (`δi(q, a) = q` in every state) and
/// which states are absorbing (every transition from `q` lands on `q`).
#[test]
fn inert_symbols_and_absorbing_states_on_the_zoo() {
    let sigma = 4;
    let symbols = || (0..sigma).map(|a| Symbol(a as u16));
    let (o, w) = (Symbol(1), Symbol(3));

    let contains = query::compile(&contains_tag_nwa(o, sigma));
    assert!(symbols().all(|a| contains.is_inert(a)));
    assert!(!contains.is_absorbing(0) && contains.is_absorbing(1));

    let within = query::compile(&within_nwa(o, w, sigma));
    assert!(!within.is_inert(w));
    assert!(symbols().filter(|&a| a != w).all(|a| within.is_inert(a)));
    assert_eq!(
        (0..3).map(|q| within.is_absorbing(q)).collect::<Vec<_>>(),
        [false, false, true]
    );

    let d = 4;
    let open = query::compile(&open_depth_at_most_nwa(d, sigma));
    assert!(symbols().all(|a| open.is_inert(a)));
    let dead = d + 1;
    assert!((0..=dead).all(|q| open.is_absorbing(q) == (q == dead)));

    // δi(q, a) = q in state 0 only: `a` is not inert.
    let a = Symbol(0);
    let partly = NwaBuilder::new(2, 1, 0)
        .internal(0usize, a, 0usize)
        .internal(1usize, a, 0usize)
        .call(0usize, a, 1usize, 0usize)
        .call(1usize, a, 1usize, 0usize)
        .ret(0usize, 0usize, a, 0usize)
        .ret(0usize, 1usize, a, 0usize)
        .ret(1usize, 0usize, a, 1usize)
        .ret(1usize, 1usize, a, 1usize)
        .build();
    let partly = query::compile(&partly);
    assert!(!partly.is_inert(a));
    assert!(!partly.is_absorbing(0) && !partly.is_absorbing(1));

    // A set's inert symbols are the ∧ of its members', on both backends;
    // a product table derives the same set from its own rows.
    let members = [
        contains_tag_nwa(o, sigma),
        within_nwa(o, w, sigma),
        patterns_in_order_nwa(&[Symbol(2)], sigma),
    ];
    let compiled: Vec<CompiledNwa> = members.iter().map(query::compile).collect();
    for backend in [QuerySetBackend::Product, QuerySetBackend::Lockstep] {
        let set = QuerySet::with_backend(&members, backend);
        for a in symbols() {
            let all = compiled.iter().all(|c| c.is_inert(a));
            assert_eq!(set.is_inert(a), all, "{backend:?}, {a:?}");
        }
    }
    assert!(QuerySet::with_backend(&members, QuerySetBackend::Product).is_inert(Symbol(0)));

    // Derived, not stored: a loaded artifact re-derives both facts.
    let back: CompiledNwa = query::load(&query::save(&within)).unwrap();
    assert_eq!(back, within);
    assert_eq!(back.fingerprint(), within.fingerprint());
}
