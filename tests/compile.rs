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
    both_shapes, chunk_lengths, prop_iters, random_det_nwa, random_nnwa_with_transitions,
    skip_path_nwa, some_b_block,
};
use nested_words_suite::nested_words::generate::{
    random_nested_word, random_tree, NestedWordConfig,
};
use nested_words_suite::nested_words::path;
use nested_words_suite::nested_words::rng::Prng;
use nested_words_suite::nwa::decision;
use nested_words_suite::nwa::families::{path_family_nwa, path_family_tagged_dfa};
use nested_words_suite::nwa::flat::{from_tagged_dfa, to_tagged_dfa};
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

/// Compiled ≡ interpreted for joinless NWAs (the memoized summary engine
/// over the `to_nnwa` expansion, against the mode-split interpreted run).
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

/// Tagged streams around tree encodings: each tree, its returns
/// relabelled, two trees back to back, the tree cut short (pending calls),
/// and the tree after a pending return.
fn tree_shaped_streams(trees: &[OrderedTree]) -> Vec<Vec<TaggedSymbol>> {
    let flip = |s: Symbol| Symbol(1 - s.0);
    let mut streams = Vec::new();
    for tree in trees {
        let events = tree.to_tagged();
        let relabelled = events
            .iter()
            .map(|&e| match e {
                TaggedSymbol::Return(s) => TaggedSymbol::Return(flip(s)),
                other => other,
            })
            .collect();
        let mut pending_return = vec![TaggedSymbol::Return(Symbol(0))];
        pending_return.extend(&events);
        streams.push([events.as_slice(), &events].concat());
        streams.push(events[..events.len() / 2 + 1].to_vec());
        streams.push(relabelled);
        streams.push(pending_return);
        streams.push(events);
    }
    streams
}

/// The compiled stepwise automaton against the spec fold of
/// `common::stepwise_spec` at every prefix — verdict, events read, peak
/// and stack height — on tree encodings, streams shaped around them and
/// random tagged streams with internals, pending calls and pending
/// returns; and on tree encodings, against the tree automaton itself.
#[test]
fn compiled_stepwise_equals_the_spec_fold() {
    let ab = Alphabet::ab();
    let mut verdicts = [0usize; 2];
    for seed in 0..prop_iters(8) as u64 {
        let ta = common::random_stepwise(3, 2, seed);
        let compiled = query::compile(&ta);
        let trees: Vec<OrderedTree> = (0..6)
            .map(|i| random_tree(&ab, 1 + (seed as usize + i) % 9, 3, seed * 6 + i as u64))
            .collect();
        for tree in &trees {
            assert_eq!(
                query::contains_stream(&compiled, tree.to_tagged()),
                ta.accepts(tree),
                "seed {seed}, tree {tree:?}"
            );
        }
        let mut streams = tree_shaped_streams(&trees);
        for (i, call_prob) in [0.3, 0.5].into_iter().enumerate() {
            let cfg = NestedWordConfig {
                len: 24,
                call_prob,
                return_prob: call_prob,
                allow_pending: true,
                ..Default::default()
            };
            streams.push(random_nested_word(&ab, cfg, seed * 2 + i as u64).to_tagged());
        }
        for (i, events) in streams.iter().enumerate() {
            let spec = common::stepwise_spec(&ta, events);
            let mut run = compiled.start();
            for (k, &observed) in spec.iter().enumerate() {
                if k > 0 {
                    run.step(events[k - 1]);
                }
                let got = (
                    run.is_accepting(),
                    run.steps(),
                    run.peak_memory(),
                    run.stack_height(),
                );
                assert_eq!(got, observed, "seed {seed}, stream {i}, prefix {k}");
                verdicts[usize::from(observed.0)] += 1;
            }
            let outcome = compiled.run_tagged(events);
            let (accepted, steps, peak, _) = spec[events.len()];
            assert_eq!(
                (outcome.accepted, outcome.events, outcome.peak_memory),
                (accepted, steps, peak),
                "bulk: seed {seed}, stream {i}"
            );
        }
    }
    assert!(verdicts.iter().all(|&v| v > 0), "verdicts {verdicts:?}");
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

/// The "patterns in document order" query by way of a regex over the
/// tagged alphabet: `Σ̂* p₁ Σ̂* … pₖ Σ̂*`, each pattern the alternation of
/// its three tagged copies, to a minimal DFA (Thompson NFA, subsets,
/// Moore), lifted to a flat NWA.
fn in_order_by_regex(patterns: &[Symbol], sigma: usize) -> Nwa {
    let tagged_choice = |s: Symbol| {
        Regex::Symbol(TaggedSymbol::Call(s).tagged_index(sigma))
            .union(Regex::Symbol(TaggedSymbol::Internal(s).tagged_index(sigma)))
            .union(Regex::Symbol(TaggedSymbol::Return(s).tagged_index(sigma)))
    };
    let mut r = Regex::any_star();
    for &p in patterns {
        r = r.concat(tagged_choice(p)).concat(Regex::any_star());
    }
    from_tagged_dfa(&r.to_min_dfa(3 * sigma), sigma)
}

/// `patterns_in_order_nwa` lowers straight to the subsequence automaton;
/// it is the regex construction's `Nwa` exactly, state numbering
/// included, so the compiled tables, saved bytes and fingerprints are
/// too. Pattern lists over small alphabets repeat labels often.
#[test]
fn in_order_lowering_equals_the_regex_construction() {
    let mut rng = Prng::new(0x1_0bde);
    for case in 0..prop_iters(200) {
        let sigma = 1 + rng.below(6);
        let patterns: Vec<Symbol> = (0..rng.below(6))
            .map(|_| Symbol(rng.below(sigma) as u16))
            .collect();
        let ctx = format!("case {case}: sigma {sigma}, patterns {patterns:?}");
        let direct = patterns_in_order_nwa(&patterns, sigma);
        let oracle = in_order_by_regex(&patterns, sigma);
        assert_eq!(direct, oracle, "{ctx}");
        assert_eq!(
            query::save(&direct.compile()),
            query::save(&oracle.compile()),
            "{ctx}"
        );
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
    let n = Nnwa::from_deterministic(&m);
    let cn = query::compile(&n);
    let j = joinless_from_nwa(&n);
    let cj = query::compile(&j);
    type Run<'a> = (&'static str, Box<dyn Fn(&[TaggedSymbol]) + 'a>);
    let runs: [Run; 14] = [
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
        ("nnwa", Box::new(|e| step_each(n.start(), e))),
        ("compiled nnwa", Box::new(|e| step_each(cn.start(), e))),
        (
            "compiled nnwa slice",
            Box::new(|e| cn.start().step_slice(e)),
        ),
        ("joinless", Box::new(|e| step_each(j.start(), e))),
        ("compiled joinless", Box::new(|e| step_each(cj.start(), e))),
        (
            "compiled joinless slice",
            Box::new(|e| cj.start().step_slice(e)),
        ),
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

/// `determinize` reads its automaton off the summary engine's memo; the
/// state counts stay those of the former stand-alone construction (linear
/// summaries plus one hierarchical state per summary and call symbol), and
/// each result is equivalent to its source.
#[test]
fn determinize_keeps_its_state_counts() {
    // A deterministic "some matched b-block": 2 is the marker pushed by a
    // b-call made while searching, 1 the found sink.
    let (a, b) = (Symbol(0), Symbol(1));
    let mut b_block = Nwa::new(3, 2, 0);
    b_block.set_accepting(1, true);
    b_block.set_all_transitions_to(1, 1);
    b_block.set_all_transitions_to(2, 1);
    for sym in [a, b] {
        b_block.set_internal(0, sym, 0);
        b_block.set_call(0, sym, 0, if sym == b { 2 } else { 0 });
        for h in 0..3 {
            let found = h == 2 && sym == b;
            b_block.set_return(0, h, sym, usize::from(found || h == 1));
        }
    }
    let d = some_b_block().determinize();
    assert_eq!(d.num_states(), 15, "some_b_block");
    assert!(decision::equivalent(&d, &b_block), "some_b_block");

    let cases = [
        ("contains_tag(a)", contains_tag_nwa(a, 2), 12),
        ("contains_tag(b), σ = 3", contains_tag_nwa(b, 3), 16),
        ("within(a, b)", within_nwa(a, b, 2), 21),
        ("depth_at_most(2)", depth_at_most_nwa(2, 2), 27),
        ("open_depth_at_most(3)", open_depth_at_most_nwa(3, 2), 39),
        (
            "patterns_in_order(a, b)",
            patterns_in_order_nwa(&[a, b], 2),
            21,
        ),
        ("path_family(3)", path_family_nwa(3), 39),
    ];
    for (name, m, states) in cases {
        let d = Nnwa::from_deterministic(&m).determinize();
        assert_eq!(d.num_states(), states, "{name}");
        assert!(decision::equivalent(&d, &m), "{name}");
    }
}

/// A lone compiled engine that has settled stops stepping its table, yet
/// still measures the stream: after `contains_tag` sits in its absorbing
/// state, a 5,000-deep nesting must still report its full height and peak,
/// through both the slice and the per-event entry, exactly as the
/// interpreted automaton does.
#[test]
fn settled_lone_engine_keeps_stack_accounting_exact() {
    let sigma = 3;
    let (a, b, c) = (Symbol(0), Symbol(1), Symbol(2));
    let m = contains_tag_nwa(a, sigma);
    let compiled = query::compile(&m);
    let mut events = vec![
        TaggedSymbol::Call(b),
        TaggedSymbol::Return(b),
        TaggedSymbol::Call(a),
        TaggedSymbol::Internal(c),
        TaggedSymbol::Return(a),
        TaggedSymbol::Return(c), // pending return
    ];
    let settled = events.len();
    events.extend(std::iter::repeat_n(TaggedSymbol::Call(c), 5_000));
    events.extend(std::iter::repeat_n(TaggedSymbol::Internal(b), 10));
    events.extend(std::iter::repeat_n(TaggedSymbol::Return(c), 5_000));
    let deepest = settled + 5_000;
    let mut interpreted = m.start();
    events[..deepest].iter().for_each(|&e| interpreted.step(e));
    assert_eq!(interpreted.stack_height(), 5_000);
    for sliced in [true, false] {
        let ctx = format!("sliced {sliced}");
        let mut run = compiled.start();
        for part in [&events[..settled], &events[settled..deepest]] {
            if sliced {
                run.step_slice(part);
            } else {
                part.iter().for_each(|&e| run.step(e));
            }
        }
        assert!(run.is_accepting(), "{ctx}");
        assert_eq!(run.stack_height(), interpreted.stack_height(), "{ctx}");
        assert_eq!(run.peak_memory(), interpreted.peak_memory(), "{ctx}");
        assert_eq!(run.steps(), interpreted.steps(), "{ctx}");
        if sliced {
            run.step_slice(&events[deepest..]);
        } else {
            events[deepest..].iter().for_each(|&e| run.step(e));
        }
        let outcome = query::run_stream(&m, events.iter().copied());
        assert_eq!(outcome.peak_memory, 5_000, "{ctx}");
        assert_eq!(run.stack_height(), 0, "{ctx}");
        assert_eq!(run.is_accepting(), outcome.accepted, "{ctx}");
        assert_eq!(run.peak_memory(), outcome.peak_memory, "{ctx}");
        assert_eq!(run.steps(), outcome.events, "{ctx}");
        assert_eq!(compiled.run_tagged(&events), outcome, "{ctx}");
    }
}

/// `reads_text` and `reads_names` on a lone compiled lane are both `false`
/// exactly when the lane sits in an absorbing state, per event and per
/// slice, and once `false` they never turn `true` again: on skip-path
/// automata, which settle at scattered points, and on `contains_tag`,
/// which settles on its first matching call. An interpreted run always
/// reads text and names.
#[test]
fn lone_lane_reads_text_until_it_settles() {
    let sigma = 4;
    let ab = Alphabet::with_size(sigma);
    let mut settled_runs = 0;
    for seed in 0..prop_iters(9) as u64 {
        let mut rng = Prng::new(seed ^ 0x7E27);
        let m = if seed % 3 == 0 {
            contains_tag_nwa(Symbol(1), sigma)
        } else {
            skip_path_nwa(4, sigma, seed)
        };
        let c = query::compile(&m);
        let config = NestedWordConfig {
            len: 3000,
            allow_pending: true,
            ..Default::default()
        };
        let events = random_nested_word(&ab, config, seed ^ 0x5E).to_tagged();
        let (mut reference, mut stepped, mut sliced) = (m.start(), c.start(), c.start());
        let mut reads = true;
        let mut at = 0;
        for len in chunk_lengths(events.len(), &mut rng) {
            for &event in &events[at..at + len] {
                reference.step(event);
                stepped.step(event);
                let ctx = format!("seed {seed}, after {} events", reference.steps());
                assert!(reference.reads_text(), "{ctx}: interpreted");
                assert!(reference.reads_names(), "{ctx}: interpreted");
                let expected = !c.is_absorbing(reference.current_state());
                assert_eq!(stepped.reads_text(), expected, "{ctx}");
                assert_eq!(stepped.reads_names(), expected, "{ctx}");
                assert!(reads || !expected, "{ctx}: read text again");
                reads = expected;
            }
            sliced.step_slice(&events[at..at + len]);
            at += len;
            let ctx = format!("seed {seed}, after {at} events");
            assert_eq!(sliced.reads_text(), reads, "{ctx}");
            assert_eq!(sliced.reads_names(), reads, "{ctx}");
        }
        settled_runs += usize::from(!reads);
    }
    assert!(settled_runs > 0, "no run settled");
}

/// The forms of `events`: what a structure scan hands a settled run.
fn forms_of(events: &[TaggedSymbol]) -> Forms {
    let mut forms = Forms::default();
    for event in events {
        match event {
            TaggedSymbol::Call(_) => forms.push(true),
            TaggedSymbol::Return(_) => forms.push(false),
            TaggedSymbol::Internal(_) => {}
        }
    }
    forms
}

/// Every model without a settled lane reads names for good: the
/// interpreted NWA, nondeterministic and joinless runs and the DFA, and
/// the compiled summary and DFA engines, on every prefix. (A compiled
/// stepwise automaton is a compiled NWA, which settles: see
/// `lowered_stepwise_settles_once_dead`.)
#[test]
fn models_without_settled_lanes_always_read_names() {
    fn check<A: StreamAcceptor>(name: &str, a: &A, events: &[TaggedSymbol]) {
        let mut run = a.start();
        assert!(run.reads_names(), "{name}: at the start");
        for (i, &event) in events.iter().enumerate() {
            run.step(event);
            assert!(run.reads_names(), "{name}: after {} events", i + 1);
        }
    }
    let sigma = 2;
    let ab = Alphabet::with_size(sigma);
    let config = NestedWordConfig {
        len: 200,
        allow_pending: true,
        ..Default::default()
    };
    let all = {
        let mut m = Nwa::new(1, sigma, 0);
        m.set_accepting(0, true);
        m.set_all_transitions_to(0, 0);
        m
    };
    for seed in 0..prop_iters(3) as u64 {
        let events = random_nested_word(&ab, config, seed).to_tagged();
        let n = random_nnwa_with_transitions(3, sigma, 6, seed);
        let mut dfa = Dfa::new(1, 3 * sigma, 0);
        dfa.set_accepting(0, true);
        (0..3 * sigma).for_each(|a| dfa.set_transition(0, a, 0));
        check("interpreted NWA", &all, &events);
        check("interpreted NNWA", &n, &events);
        check("joinless", &joinless_from_nwa(&n), &events);
        check("interpreted DFA", &dfa, &events);
        check("compiled summary", &query::compile(&n), &events);
        check("compiled DFA", &query::compile(&dfa), &events);
    }
}

/// A stepwise automaton lowered into `CompiledNwa` goes dead, and so
/// settles and stops reading names, exactly where its stream stops being
/// a prefix of a forest's encoding: at the first internal or pending
/// return. Until then it reads names.
#[test]
fn lowered_stepwise_settles_once_dead() {
    let sigma = 2;
    let ab = Alphabet::with_size(sigma);
    let config = NestedWordConfig {
        len: 60,
        call_prob: 0.45,
        return_prob: 0.45,
        allow_pending: true,
        ..Default::default()
    };
    let mut settled = 0;
    for seed in 0..prop_iters(20) as u64 {
        let events = random_nested_word(&ab, config, seed).to_tagged();
        let mut height = 0usize;
        let dead_at = events.iter().position(|&event| {
            let pending = matches!(event, TaggedSymbol::Return(_)) && height == 0;
            height = match event {
                TaggedSymbol::Call(_) => height + 1,
                TaggedSymbol::Return(_) => height.saturating_sub(1),
                TaggedSymbol::Internal(_) => height,
            };
            pending || matches!(event, TaggedSymbol::Internal(_))
        });
        let compiled = query::compile(&common::random_stepwise(3, sigma, seed));
        let mut run = compiled.start();
        assert!(run.reads_names(), "seed {seed}: at the start");
        for (i, &event) in events.iter().enumerate() {
            run.step(event);
            let live = dead_at.is_none_or(|at| i < at);
            assert_eq!(
                run.reads_names(),
                live,
                "seed {seed}, after {} events",
                i + 1
            );
        }
        settled += usize::from(dead_at.is_some());
    }
    assert!(settled > 0, "no stream went dead");
}

/// A settled lane stepped by forms ends where the same lane stepped by
/// the events ends — verdict, stack height, peak, and events read but for
/// the internal ones, which forms leave to the scanner's dropped count —
/// from the point it settles, for random splits of the rest into form
/// windows, pending returns included; a lane that has not settled refuses
/// forms.
#[test]
fn settled_lanes_step_forms_like_events() {
    let sigma = 3;
    let ab = Alphabet::with_size(sigma);
    let c = query::compile(&contains_tag_nwa(Symbol(1), sigma));
    let set = query::compile_set(&[
        contains_tag_nwa(Symbol(1), sigma),
        contains_tag_nwa(Symbol(2), sigma),
    ]);
    let mut checked = 0;
    for seed in 0..prop_iters(12) as u64 {
        let config = NestedWordConfig {
            len: 400,
            allow_pending: true,
            ..Default::default()
        };
        let events = random_nested_word(&ab, config, seed).to_tagged();
        let mut rng = Prng::new(seed ^ 0xF0);
        let settle = |reads: &dyn Fn(&[TaggedSymbol]) -> bool| {
            (0..=events.len()).find(|&i| !reads(&events[..i]))
        };
        let lone_at = settle(&|prefix| {
            let mut run = c.start();
            run.step_slice(prefix);
            run.reads_names()
        });
        let set_at = settle(&|prefix| {
            let mut run = set.start_set();
            run.step_slice(prefix);
            run.reads_names()
        });
        let internals = |from: usize| {
            events[from..]
                .iter()
                .filter(|e| matches!(e, TaggedSymbol::Internal(_)))
                .count()
        };
        if let Some(at) = lone_at {
            let (mut by_events, mut by_forms) = (c.start(), c.start());
            by_events.step_slice(&events);
            by_forms.step_slice(&events[..at]);
            let mut from = at;
            for len in chunk_lengths(events.len() - at, &mut rng) {
                by_forms.step_forms(forms_of(&events[from..from + len]));
                from += len;
                assert!(!by_forms.reads_names(), "seed {seed}: read names again");
            }
            let ctx = format!("seed {seed}, lone, settled at {at}");
            assert_eq!(by_forms.is_accepting(), by_events.is_accepting(), "{ctx}");
            assert_eq!(by_forms.stack_height(), by_events.stack_height(), "{ctx}");
            assert_eq!(by_forms.peak_memory(), by_events.peak_memory(), "{ctx}");
            assert_eq!(by_forms.steps() + internals(at), by_events.steps(), "{ctx}");
            checked += 1;
        }
        if let Some(at) = set_at {
            let (mut by_events, mut by_forms) = (set.start_set(), set.start_set());
            by_events.step_slice(&events);
            by_forms.step_slice(&events[..at]);
            let mut from = at;
            for len in chunk_lengths(events.len() - at, &mut rng) {
                by_forms.step_forms(forms_of(&events[from..from + len]));
                from += len;
            }
            let ctx = format!("seed {seed}, set, settled at {at}");
            assert_eq!(by_forms.verdicts(), by_events.verdicts(), "{ctx}");
            let mut outcomes = by_forms.outcomes();
            outcomes.iter_mut().for_each(|o| o.events += internals(at));
            assert_eq!(outcomes, by_events.outcomes(), "{ctx}");
            checked += 1;
        }
    }
    assert!(checked > 0, "no lane settled");
    let mut live = c.start();
    let refused = catch_unwind(AssertUnwindSafe(|| live.step_forms(forms_of(&[SETTLE]))));
    assert!(refused.is_err(), "an unsettled lane took forms");
}

/// A run that has settled — `contains_tag(0)` after its first call, alone
/// or as every member of a set — takes the height-only step, which still
/// refuses a symbol outside the two-symbol alphabet, through the slice
/// entry and through the per-event one.
fn settled_contains_tag() -> CompiledNwa {
    query::compile(&contains_tag_nwa(Symbol(0), 2))
}

fn retired_set() -> QuerySet {
    let member = contains_tag_nwa(Symbol(0), 2);
    query::compile_set(&[member.clone(), member])
}

const SETTLE: TaggedSymbol = TaggedSymbol::Call(Symbol(0));

#[test]
#[should_panic(expected = "outside the automaton")]
fn settled_lone_engine_slice_still_checks_the_alphabet() {
    let c = settled_contains_tag();
    let mut run = c.start();
    run.step_slice(&[SETTLE]);
    assert!(run.is_accepting());
    run.step_slice(&[
        TaggedSymbol::Call(Symbol(1)),
        TaggedSymbol::Return(Symbol(2)),
    ]);
}

#[test]
#[should_panic(expected = "outside the automaton")]
fn settled_lone_engine_step_still_checks_the_alphabet() {
    let c = settled_contains_tag();
    let mut run = c.start();
    run.step(SETTLE);
    assert!(run.is_accepting());
    run.step(TaggedSymbol::Internal(Symbol(9)));
}

#[test]
#[should_panic(expected = "outside the automaton")]
fn retired_query_set_slice_still_checks_the_alphabet() {
    let set = retired_set();
    let mut run = set.start_set();
    run.step_slice(&[SETTLE]);
    assert_eq!(run.verdicts(), 0b11);
    run.step_slice(&[
        TaggedSymbol::Internal(Symbol(1)),
        TaggedSymbol::Call(Symbol(2)),
    ]);
}

#[test]
#[should_panic(expected = "outside the automaton")]
fn retired_query_set_step_still_checks_the_alphabet() {
    let set = retired_set();
    let mut run = set.start_set();
    run.step(SETTLE);
    assert_eq!(run.verdicts(), 0b11);
    run.step(TaggedSymbol::Return(Symbol(3)));
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

    // A set's inert symbols are the ∧ of its members', in both shapes; a
    // product table derives the same set from its own rows.
    let members = [
        contains_tag_nwa(o, sigma),
        within_nwa(o, w, sigma),
        patterns_in_order_nwa(&[Symbol(2)], sigma),
    ];
    let [product, per_query] = both_shapes(&members);
    for (set, members) in [&product, &per_query] {
        let compiled: Vec<CompiledNwa> = members.iter().map(query::compile).collect();
        for a in symbols() {
            let all = compiled.iter().all(|c| c.is_inert(a));
            let engines = set.num_engines();
            assert_eq!(set.is_inert(a), all, "{engines} engines, {a:?}");
        }
    }
    assert!(product.0.is_inert(Symbol(0)));

    // Derived, not stored: a loaded artifact re-derives both facts.
    let back: CompiledNwa = query::load(&query::save(&within)).unwrap();
    assert_eq!(back, within);
    assert_eq!(back.fingerprint(), within.fingerprint());
}
