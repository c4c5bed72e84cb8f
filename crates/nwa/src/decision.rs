//! Decision problems for nested word automata (§3.2 of the paper):
//! emptiness, language inclusion and language equivalence.
//!
//! Emptiness is the summary saturation of [`crate::witness`], which settles
//! well-matched summaries and reach facts from a worklist in order of
//! length and stops at the first accepting reach fact — polynomial time
//! (the paper quotes cubic). Inclusion and equivalence reduce to
//! complementation (determinization for nondeterministic input),
//! intersection and emptiness, and are therefore EXPTIME in the
//! nondeterministic case.

use crate::automaton::Nwa;
use crate::boolean::{complement, intersect};
use crate::nondet::Nnwa;
use crate::witness::accepts_some;

/// Emptiness for nondeterministic NWAs: `true` iff the automaton accepts no
/// nested word.
pub fn is_empty(a: &Nnwa) -> bool {
    !accepts_some(a)
}

/// Emptiness for deterministic NWAs.
pub fn is_empty_det(a: &Nwa) -> bool {
    is_empty(&Nnwa::from_deterministic(a))
}

/// Language inclusion `L(a) ⊆ L(b)` for deterministic NWAs, via
/// `L(a) ∩ L(b)ᶜ = ∅`.
pub fn included_in(a: &Nwa, b: &Nwa) -> bool {
    is_empty_det(&intersect(a, &complement(b)))
}

/// Language equivalence of two deterministic NWAs.
pub fn equivalent(a: &Nwa, b: &Nwa) -> bool {
    included_in(a, b) && included_in(b, a)
}

/// Language inclusion for nondeterministic NWAs (determinizes `b` first, so
/// EXPTIME in the worst case, as stated in §3.2).
pub fn included_in_nondet(a: &Nnwa, b: &Nnwa) -> bool {
    let b_det = b.determinize();
    let b_comp = Nnwa::from_deterministic(&complement(&b_det));
    is_empty(&crate::boolean::intersect_nondet(a, &b_comp))
}

/// Language equivalence for nondeterministic NWAs.
pub fn equivalent_nondet(a: &Nnwa, b: &Nnwa) -> bool {
    included_in_nondet(a, b) && included_in_nondet(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::shortest_accepted;
    use nested_words::rng::Prng;
    use nested_words::{NestedWord, Symbol, TaggedSymbol};
    use std::collections::BTreeSet;

    /// The round-robin saturation the worklist engine replaced, kept as the
    /// oracle of the differential properties below: the well-matched
    /// summaries `WM(q, q')` closed under internal extension,
    /// call–body–return and concatenation, then the initial states closed
    /// under summaries, pending returns (mode 0, initial hierarchical state)
    /// and pending calls (into mode 1).
    fn oracle_is_empty(a: &Nnwa) -> bool {
        let mut wm: BTreeSet<(usize, usize)> = (0..a.num_states()).map(|q| (q, q)).collect();
        let mut changed = true;
        while changed {
            let before = wm.len();
            let snapshot: Vec<(usize, usize)> = wm.iter().copied().collect();
            for &(q, q1) in &snapshot {
                for &(p, _, t) in a.internals() {
                    if p == q1 {
                        wm.insert((q, t));
                    }
                }
                for &(q2, q3) in &snapshot {
                    if q1 == q2 {
                        wm.insert((q, q3));
                    }
                }
            }
            for &(qc, _, ql, qh) in a.calls() {
                for &(_, end) in snapshot.iter().filter(|&&(s, _)| s == ql) {
                    for &(rl, rh, _, t) in a.returns() {
                        if rl == end && rh == qh {
                            wm.insert((qc, t));
                        }
                    }
                }
            }
            changed = wm.len() != before;
        }
        let initials: BTreeSet<usize> = a.initial_states().collect();
        let mut r0 = initials.clone();
        let mut r1 = BTreeSet::new();
        changed = true;
        while changed {
            let before = r0.len() + r1.len();
            for &(q, q1) in &wm {
                if r0.contains(&q) {
                    r0.insert(q1);
                }
                if r1.contains(&q) {
                    r1.insert(q1);
                }
            }
            for &(rl, rh, _, t) in a.returns() {
                if r0.contains(&rl) && initials.contains(&rh) {
                    r0.insert(t);
                }
            }
            for &(q, _, ql, _) in a.calls() {
                if r0.contains(&q) || r1.contains(&q) {
                    r1.insert(ql);
                }
            }
            changed = r0.len() + r1.len() != before;
        }
        !r0.iter().chain(&r1).any(|&q| a.is_accepting(q))
    }

    /// Iteration budget scaled by `NWA_PROP_ITERS`, as in the property
    /// suites.
    fn prop_iters(base: usize) -> usize {
        let scale = std::env::var("NWA_PROP_ITERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&m| m > 0)
            .unwrap_or(1);
        base * scale
    }

    /// A random NNWA of 2–5 states with one to three initial states; half
    /// of the hierarchical states on calls and returns are initial ones, so
    /// both pending returns and matched-only returns occur, and calls whose
    /// pushed state no return pops can only stay pending.
    fn random_nnwa(seed: u64) -> Nnwa {
        let mut rng = Prng::new(seed);
        let n = 2 + rng.below(4);
        let sigma = 1 + rng.below(2);
        let mut a = Nnwa::new(n, sigma);
        let initial: Vec<usize> = (0..1 + rng.below(3)).map(|_| rng.below(n)).collect();
        for &q in &initial {
            a.add_initial(q);
        }
        a.add_accepting(rng.below(n));
        for _ in 0..n + rng.below(2 * n) {
            let s = Symbol(rng.below(sigma) as u16);
            let (q, t) = (rng.below(n), rng.below(n));
            let h = if rng.bool(0.5) {
                initial[rng.below(initial.len())]
            } else {
                rng.below(n)
            };
            match rng.below(3) {
                0 => a.add_internal(q, s, t),
                1 => a.add_call(q, s, t, h),
                _ => a.add_return(q, h, s, t),
            }
        }
        a
    }

    /// A random complete deterministic NWA of 2–4 states over two symbols.
    fn random_det_nwa(rng: &mut Prng) -> Nwa {
        let n = 2 + rng.below(3);
        let mut m = Nwa::new(n, 2, 0);
        for q in 0..n {
            m.set_accepting(q, rng.bool(0.4));
            for a in [Symbol(0), Symbol(1)] {
                m.set_internal(q, a, rng.below(n));
                m.set_call(q, a, rng.below(n), rng.below(n));
                for h in 0..n {
                    m.set_return(q, h, a, rng.below(n));
                }
            }
        }
        m
    }

    /// Whether `a` accepts some tagged word of exactly `len` positions.
    fn accepts_some_of_length(a: &Nnwa, len: usize) -> bool {
        let mut words: Vec<Vec<TaggedSymbol>> = vec![Vec::new()];
        for _ in 0..len {
            words = words
                .iter()
                .flat_map(|w| {
                    (0..a.sigma()).flat_map(move |s| {
                        let s = Symbol(s as u16);
                        [
                            TaggedSymbol::Call(s),
                            TaggedSymbol::Internal(s),
                            TaggedSymbol::Return(s),
                        ]
                        .map(|t| [w.as_slice(), &[t]].concat())
                    })
                })
                .collect();
        }
        words.iter().any(|w| a.accepts(&NestedWord::from_tagged(w)))
    }

    /// The worklist engine decides emptiness exactly as the oracle
    /// saturation does, and every witness it returns is accepted; no word
    /// shorter than a witness of up to four positions is accepted.
    #[test]
    fn emptiness_agrees_with_oracle_saturation() {
        let iters = prop_iters(400);
        let (mut empty, mut pending_calls, mut pending_returns) = (0, 0, 0);
        for seed in 0..iters as u64 {
            let a = random_nnwa(seed);
            assert_eq!(is_empty(&a), oracle_is_empty(&a), "seed {seed}");
            match shortest_accepted(&a) {
                None => {
                    assert!(is_empty(&a), "seed {seed}: no witness, not empty");
                    empty += 1;
                }
                Some(w) => {
                    assert!(a.accepts(&w), "seed {seed}: witness rejected");
                    if w.len() <= 4 {
                        for len in 0..w.len() {
                            assert!(
                                !accepts_some_of_length(&a, len),
                                "seed {seed}: not shortest"
                            );
                        }
                    }
                    pending_calls += usize::from((0..w.len()).any(|i| w.is_pending_call(i)));
                    pending_returns += usize::from((0..w.len()).any(|i| w.is_pending_return(i)));
                }
            }
        }
        assert!(0 < empty && empty < iters, "{empty} of {iters} empty");
        assert!(pending_calls > 0, "no witness with a pending call");
        assert!(pending_returns > 0, "no witness with a pending return");
    }

    /// Inclusion agrees with the oracle on the products it builds: each
    /// random deterministic NWA against a copy with one acceptance bit
    /// flipped, in both directions, so both verdicts occur.
    #[test]
    fn inclusion_agrees_with_oracle_saturation() {
        let mut verdicts = [0usize; 2];
        for seed in 0..prop_iters(60) as u64 {
            let mut rng = Prng::new(seed);
            let x = random_det_nwa(&mut rng);
            let mut y = x.clone();
            let q = rng.below(x.num_states());
            y.set_accepting(q, !x.is_accepting(q));
            for (l, r) in [(&x, &y), (&y, &x)] {
                let product = Nnwa::from_deterministic(&intersect(l, &complement(r)));
                let included = included_in(l, r);
                assert_eq!(included, oracle_is_empty(&product), "seed {seed}");
                verdicts[usize::from(included)] += 1;
            }
        }
        assert!(verdicts.iter().all(|&v| v > 0), "verdicts {verdicts:?}");
    }

    /// Nondeterministic NWA accepting rooted words over {a} of even depth ≥ 2
    /// of the shape <a <a ... a> a> (pure nesting, no internals).
    fn even_depth_nest() -> Nnwa {
        let a = Symbol(0);
        // states: 0 initial, 1 = odd open, 2 = even open, 3 = closing, 4 = done-odd
        // Simpler: accept <a^k a>^k with k even by tracking parity.
        // going down: parity states 0 (even so far) / 1 (odd); hier carries parity;
        // coming up: state 2; accept state 3 reached when stack exhausted at even parity.
        let mut n = Nnwa::new(4, 1);
        n.add_initial(0);
        n.add_accepting(3);
        // descend: from parity p, call: push p, go to 1-p
        n.add_call(0, a, 1, 0);
        n.add_call(1, a, 0, 1);
        // at the deepest point we must be at even parity (0) to have even depth?
        // Actually depth parity: after k calls parity = k mod 2. Start ascent from
        // parity 0 (k even): first return joins linear 0 with hier of deepest call.
        // ascend: return from linear 0 or 2 with hier p goes to 2, and when the
        // popped hier is the bottom (p = 0 pushed by the first call from state 0)
        // we may also go to 3.
        for lin in [0usize, 2] {
            n.add_return(lin, 0, a, 2);
            n.add_return(lin, 1, a, 2);
            n.add_return(lin, 0, a, 3);
        }
        n
    }

    #[test]
    fn emptiness_of_nontrivial_automaton() {
        let n = even_depth_nest();
        assert!(!is_empty(&n));
        // sanity: it really accepts the depth-2 word
        let mut ab = nested_words::Alphabet::from_names(["a"]);
        let w = nested_words::tagged::parse_nested_word("<a <a a> a>", &mut ab).unwrap();
        assert!(n.accepts(&w));
        let w1 = nested_words::tagged::parse_nested_word("<a a>", &mut ab).unwrap();
        assert!(!n.accepts(&w1));
    }

    #[test]
    fn emptiness_detects_unreachable_acceptance() {
        let a = Symbol(0);
        let mut n = Nnwa::new(3, 1);
        n.add_initial(0);
        n.add_accepting(2);
        n.add_internal(0, a, 1);
        n.add_internal(1, a, 0);
        // state 2 never reachable
        assert!(is_empty(&n));
        n.add_internal(1, a, 2);
        assert!(!is_empty(&n));
    }

    #[test]
    fn emptiness_requires_matching_return_for_call_bodies() {
        let a = Symbol(0);
        // Accepting state only reachable through a matched return whose
        // hierarchical state can never be produced.
        let mut n = Nnwa::new(4, 1);
        n.add_initial(0);
        n.add_accepting(3);
        n.add_call(0, a, 1, 2); // pushes 2
        n.add_internal(1, a, 1);
        n.add_return(1, 0, a, 3); // but requires hierarchical state 0
        assert!(is_empty(&n));
        // Now allow the matching hierarchical state.
        n.add_return(1, 2, a, 3);
        assert!(!is_empty(&n));
    }

    #[test]
    fn pending_call_reachability_counts_for_emptiness() {
        let a = Symbol(0);
        // Accepting state reachable only via the linear successor of a call
        // that is never matched.
        let mut n = Nnwa::new(2, 1);
        n.add_initial(0);
        n.add_accepting(1);
        n.add_call(0, a, 1, 0);
        assert!(!is_empty(&n));
        let mut ab = nested_words::Alphabet::from_names(["a"]);
        let w = nested_words::tagged::parse_nested_word("<a", &mut ab).unwrap();
        assert!(n.accepts(&w));
    }

    #[test]
    fn pending_return_only_with_initial_hierarchical_state() {
        let a = Symbol(0);
        let mut n = Nnwa::new(3, 1);
        n.add_initial(0);
        n.add_accepting(2);
        // return requiring hierarchical state 1 (not initial): a pending
        // return cannot supply it, and there is no call pushing 1 either.
        n.add_return(0, 1, a, 2);
        assert!(is_empty(&n));
        // returning on the initial hierarchical state is a pending return
        n.add_return(0, 0, a, 2);
        assert!(!is_empty(&n));
    }

    #[test]
    fn det_inclusion_and_equivalence() {
        use crate::automaton::Nwa;
        let a_sym = Symbol(0);
        let b_sym = Symbol(1);
        // d1: words with no b at all (calls, internals, returns all a)
        let mut d1 = Nwa::new(2, 2, 0);
        d1.set_accepting(0, true);
        d1.set_all_transitions_to(1, 1);
        d1.set_internal(0, a_sym, 0);
        d1.set_internal(0, b_sym, 1);
        d1.set_call(0, a_sym, 0, 0);
        d1.set_call(0, b_sym, 1, 0);
        for h in 0..2 {
            d1.set_return(0, h, a_sym, 0);
            d1.set_return(0, h, b_sym, 1);
        }
        // d2: words with an even number of b positions
        let mut d2 = Nwa::new(2, 2, 0);
        d2.set_accepting(0, true);
        for q in 0..2usize {
            d2.set_internal(q, a_sym, q);
            d2.set_internal(q, b_sym, 1 - q);
            d2.set_call(q, a_sym, q, 0);
            d2.set_call(q, b_sym, 1 - q, 0);
            for h in 0..2 {
                d2.set_return(q, h, a_sym, q);
                d2.set_return(q, h, b_sym, 1 - q);
            }
        }
        // zero b's is an even number of b's
        assert!(included_in(&d1, &d2));
        assert!(!included_in(&d2, &d1));
        assert!(!equivalent(&d1, &d2));
        assert!(equivalent(&d1, &d1));
    }

    #[test]
    fn nondet_equivalence_via_determinization() {
        let n = even_depth_nest();
        let d = n.determinize();
        let n2 = Nnwa::from_deterministic(&d);
        assert!(equivalent_nondet(&n, &n2));
        // and not equivalent to the empty automaton
        let empty = Nnwa::new(1, 1);
        assert!(!equivalent_nondet(&n, &empty));
        assert!(included_in_nondet(&empty, &n));
    }
}
