//! Property tests for the `automata_core::Witness` layer: every
//! implementation must be *sound* (a returned input is accepted, validated
//! by feeding it back through `query::contains`) and *complete* (a witness
//! exists if and only if `query::is_empty` says the language is non-empty),
//! and the derived `query::counterexample` / `query::distinguish` verbs
//! must return inputs accepted by exactly the side they claim to separate.
//!
//! As everywhere in the suite, randomized cases come from the seeded
//! `nested_words::rng::Prng` generators in `tests/common`; failures
//! reproduce from the printed seed.

mod common;

use common::{prop_iters, random_det_nwa, random_dfa, random_nnwa, random_stepwise};
use nested_words_suite::nwa::joinless::joinless_from_nwa;
use nested_words_suite::prelude::*;
use nested_words_suite::query;

/// Every tagged word of exactly `len` positions over `sigma` symbols.
fn all_tagged_words(sigma: usize, len: usize) -> Vec<Vec<TaggedSymbol>> {
    let mut words: Vec<Vec<TaggedSymbol>> = vec![Vec::new()];
    for _ in 0..len {
        let mut next = Vec::new();
        for w in &words {
            for s in 0..sigma {
                let sym = Symbol(s as u16);
                for tag in [
                    TaggedSymbol::Call(sym),
                    TaggedSymbol::Internal(sym),
                    TaggedSymbol::Return(sym),
                ] {
                    let mut w2 = w.clone();
                    w2.push(tag);
                    next.push(w2);
                }
            }
        }
        words = next;
    }
    words
}

/// `query::witness` on deterministic NWAs is sound, complete, and shortest:
/// the returned word is accepted, a witness exists iff the language is
/// non-empty, and (checked exhaustively for short witnesses) no strictly
/// shorter nested word is accepted.
#[test]
fn witness_nwa_sound_complete_and_shortest() {
    for seed in 0..prop_iters(12) as u64 {
        let mut a = random_det_nwa(3, 2, seed);
        if seed % 4 == 0 {
            // force some genuinely empty languages into the mix
            for q in 0..3 {
                a.set_accepting(q, false);
            }
        }
        match query::witness(&a) {
            Some(w) => {
                assert!(query::contains(&a, &w), "seed {seed}: witness rejected");
                assert!(!query::is_empty(&a), "seed {seed}");
                if w.len() <= 3 {
                    for shorter_len in 0..w.len() {
                        for tagged in all_tagged_words(2, shorter_len) {
                            let cand = NestedWord::from_tagged(&tagged);
                            assert!(
                                !query::contains(&a, &cand),
                                "seed {seed}: accepted word shorter than the witness"
                            );
                        }
                    }
                }
            }
            None => assert!(query::is_empty(&a), "seed {seed}: no witness, not empty"),
        }
    }
}

/// A deterministic NWA over one symbol that counts to `k`: `per`
/// internals, or one call and its matched return, raise the count by one,
/// and only the count `k` accepts. Every other move enters a dead state.
/// Its shortest words take the move with fewer positions `k` times:
/// internals when `per` is 1 (`k` positions), a call and its return when
/// `per` is 3 (`2k` positions). So an engine that weighs one kind of step
/// wrong returns a longer word than the shortest.
fn counter_nwa(k: usize, per: usize) -> Nwa {
    let (done, helper, dead) = (k * per, k * per + 1, k * per + 2);
    let a = Symbol(0);
    let mut m = Nwa::new(dead + 1, 1, 0);
    m.set_all_transitions_to(dead, dead);
    for q in 0..dead {
        m.set_internal(q, a, dead);
        m.set_call(q, a, dead, dead);
        for h in 0..=dead {
            m.set_return(q, h, a, dead);
        }
    }
    m.set_accepting(done, true);
    for q in 0..done {
        m.set_internal(q, a, q + 1);
    }
    for count in (0..done).step_by(per) {
        m.set_call(count, a, helper, count);
        m.set_return(helper, count, a, count + per);
    }
    m
}

/// Witnesses stay shortest where the shortest word is forced past three
/// positions and a longer one takes the other kind of step: each counter
/// automaton's witness has the length its construction forces, for the
/// deterministic engine and the nondeterministic one, and no shorter word
/// is accepted.
#[test]
fn witness_is_shortest_past_three_positions() {
    for (k, per) in [(4, 1), (5, 1), (6, 1), (2, 3), (3, 3)] {
        let det = counter_nwa(k, per);
        let nondet = Nnwa::from_deterministic(&det);
        let shortest = if per == 1 { k } else { 2 * k };
        for (engine, w) in [
            ("nwa", query::witness(&det)),
            ("nnwa", query::witness(&nondet)),
        ] {
            let w = w.expect("the count is reachable");
            assert!(query::contains(&det, &w), "{engine} k {k} per {per}");
            assert_eq!(w.len(), shortest, "{engine} k {k} per {per}: {w:?}");
        }
        for len in 0..shortest {
            for tagged in all_tagged_words(1, len) {
                let cand = NestedWord::from_tagged(&tagged);
                assert!(!query::contains(&det, &cand), "k {k} per {per}: {tagged:?}");
            }
        }
    }
}

/// The same soundness, completeness and shortest-ness for nondeterministic
/// NWAs, directly on the transition relations (no determinization). The
/// sparse generator leaves many languages empty, so both sides of the iff
/// are exercised. Emptiness and witnesses come from one engine, so the
/// exhaustive check against every shorter word is what tests its lengths.
#[test]
fn witness_nnwa_sound_and_complete() {
    let mut nonempty = 0usize;
    let mut empty = 0usize;
    for seed in 0..prop_iters(60) as u64 {
        let a = random_nnwa(3, 2, seed);
        match query::witness(&a) {
            Some(w) => {
                nonempty += 1;
                assert!(query::contains(&a, &w), "seed {seed}: witness rejected");
                assert!(!query::is_empty(&a), "seed {seed}");
                if w.len() <= 3 {
                    for shorter_len in 0..w.len() {
                        for tagged in all_tagged_words(2, shorter_len) {
                            let cand = NestedWord::from_tagged(&tagged);
                            assert!(
                                !query::contains(&a, &cand),
                                "seed {seed}: accepted word shorter than the witness"
                            );
                        }
                    }
                }
            }
            None => {
                empty += 1;
                assert!(query::is_empty(&a), "seed {seed}: no witness, not empty");
            }
        }
    }
    assert!(nonempty > 0, "generator produced no non-empty languages");
    assert!(empty > 0, "generator produced no empty languages");
}

/// Witnesses for joinless NWAs, extracted through the exact `to_nnwa`
/// return-relation expansion, are accepted by the joinless reference
/// semantics itself, and exist iff the language is non-empty.
#[test]
fn witness_joinless_sound_and_complete() {
    for seed in 0..prop_iters(20) as u64 {
        let j = joinless_from_nwa(&random_nnwa(2, 2, seed));
        match query::witness(&j) {
            Some(w) => {
                assert!(query::contains(&j, &w), "seed {seed}: witness rejected");
                assert!(!query::is_empty(&j), "seed {seed}");
            }
            None => assert!(query::is_empty(&j), "seed {seed}: no witness, not empty"),
        }
    }
}

/// Soundness and completeness for DFAs (the rewired `find_accepted_word`)
/// and stepwise tree automata (bottom-up witness trees).
#[test]
fn witness_dfa_and_stepwise_sound_and_complete() {
    for seed in 0..prop_iters(20) as u64 {
        let mut d = random_dfa(4, 2, seed);
        if seed % 4 == 0 {
            for q in 0..4 {
                d.set_accepting(q, false);
            }
        }
        match query::witness(&d) {
            Some(w) => {
                assert!(query::contains(&d, &w[..]), "seed {seed}");
                assert!(!query::is_empty(&d), "seed {seed}");
            }
            None => assert!(query::is_empty(&d), "seed {seed}"),
        }

        let mut ta = random_stepwise(3, 2, seed);
        if seed % 4 == 1 {
            for q in 0..3 {
                ta.set_accepting(q, false);
            }
        }
        match query::witness(&ta) {
            Some(t) => {
                assert!(!t.is_empty(), "seed {seed}: empty tree is never accepted");
                assert!(query::contains(&ta, &t), "seed {seed}");
                assert!(!query::is_empty(&ta), "seed {seed}");
            }
            None => assert!(query::is_empty(&ta), "seed {seed}"),
        }
    }
}

/// `query::distinguish` on random pairs of deterministic NWAs returns a
/// separator accepted by exactly one side iff the automata are
/// inequivalent, and `query::counterexample` explains failed inclusions.
#[test]
fn distinguish_separates_inequivalent_nwas() {
    let mut separated = 0usize;
    for seed in 0..prop_iters(10) as u64 {
        let a = random_det_nwa(3, 2, seed);
        let b = random_det_nwa(3, 2, seed + 500);
        match query::distinguish(&a, &b) {
            Some(w) => {
                separated += 1;
                assert!(!query::equals(&a, &b), "seed {seed}");
                assert_ne!(
                    query::contains(&a, &w),
                    query::contains(&b, &w),
                    "seed {seed}: separator must be accepted by exactly one side"
                );
            }
            None => assert!(query::equals(&a, &b), "seed {seed}"),
        }
        match query::counterexample(&a, &b) {
            Some(w) => {
                assert!(!query::subset_eq(&a, &b), "seed {seed}");
                assert!(query::contains(&a, &w), "seed {seed}");
                assert!(!query::contains(&b, &w), "seed {seed}");
            }
            None => assert!(query::subset_eq(&a, &b), "seed {seed}"),
        }
    }
    assert!(separated > 0, "every random pair was equivalent");
}

/// The same separator law for nondeterministic NWAs (tiny instances: the
/// derived verbs complement, hence determinize, both operands).
#[test]
fn distinguish_separates_inequivalent_nnwas() {
    let mut separated = 0usize;
    for seed in 0..prop_iters(8) as u64 {
        let a = random_nnwa(2, 1, seed);
        let b = random_nnwa(2, 1, seed + 500);
        match query::distinguish(&a, &b) {
            Some(w) => {
                separated += 1;
                assert_ne!(
                    query::contains(&a, &w),
                    query::contains(&b, &w),
                    "seed {seed}: separator must be accepted by exactly one side"
                );
            }
            None => assert!(query::equals(&a, &b), "seed {seed}"),
        }
    }
    assert!(separated > 0, "every random pair was equivalent");
}

/// The separator laws across the remaining `Witness + BooleanOps` models:
/// DFAs over flat words and stepwise automata over trees.
#[test]
fn distinguish_separates_inequivalent_dfas_and_stepwise() {
    for seed in 0..prop_iters(15) as u64 {
        let a = random_dfa(4, 2, seed);
        let b = random_dfa(3, 2, seed + 500);
        match query::distinguish(&a, &b) {
            Some(w) => assert_ne!(
                query::contains(&a, &w[..]),
                query::contains(&b, &w[..]),
                "seed {seed}"
            ),
            None => assert!(query::equals(&a, &b), "seed {seed}"),
        }

        let ta = random_stepwise(3, 2, seed);
        let tb = random_stepwise(2, 2, seed + 500);
        match query::distinguish(&ta, &tb) {
            Some(t) => assert_ne!(
                query::contains(&ta, &t),
                query::contains(&tb, &t),
                "seed {seed}"
            ),
            None => assert!(query::equals(&ta, &tb), "seed {seed}"),
        }
    }
}

/// The witness layer agrees with the decision layer on the paper's
/// succinctness families: the Theorem 3 automata for different `s` are
/// inequivalent, and the separator is a path word of exactly one of the two
/// lengths. (Small `s`: the derived verbs run the witness engine on the
/// product with the complement, ~90 states here.)
#[test]
fn distinguish_explains_theorem3_family_inequivalence() {
    use nested_words_suite::nwa::families::{path_family_contains, path_family_nwa};
    let a1 = path_family_nwa(1);
    let a2 = path_family_nwa(2);
    let w = query::distinguish(&a1, &a2).expect("L_1 ≠ L_2");
    assert_ne!(query::contains(&a1, &w), query::contains(&a2, &w));
    assert!(path_family_contains(&w, 1) || path_family_contains(&w, 2));
    assert!(query::distinguish(&a1, &a1).is_none());
}
