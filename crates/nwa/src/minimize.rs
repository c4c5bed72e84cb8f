//! State reduction for deterministic nested word automata by congruence
//! refinement.
//!
//! Unlike word automata, nested word automata have no unique minimal
//! deterministic machine (§3.4 discusses why the right-congruence alone does
//! not determine an NWA). What *is* canonical is the quotient by the
//! coarsest congruence on states: an equivalence that is compatible with all
//! three transition functions, where a state participates in return
//! transitions both as the linear argument (the state before the return) and
//! as the hierarchical argument (the state sent across the nesting edge at
//! the matching call). [`reduce`] computes exactly that quotient with the
//! same partition-refinement skeleton as `word_automata::minimize` (Moore's
//! signature iteration), extended two-sidedly the way
//! `DetStepwiseTA::minimize` treats its binary `combine` table.
//!
//! Two states `q₁ ~ q₂` in the final partition iff, for every symbol `a` and
//! every reachable state `r`:
//!
//! * they agree on acceptance,
//! * `δi(q₁,a) ~ δi(q₂,a)`,
//! * `δc(q₁,a) ~ δc(q₂,a)` componentwise (linear and hierarchical target),
//! * `δr(q₁,r,a) ~ δr(q₂,r,a)` (same behaviour as the linear argument), and
//! * `δr(r,q₁,a) ~ δr(r,q₂,a)` (same behaviour as the hierarchical
//!   argument).
//!
//! The last two conditions together make the quotient's return function
//! well-defined: for `q ~ q'` and `h ~ h'`,
//! `δr(q,h,a) ~ δr(q',h,a) ~ δr(q',h',a)`, so merged states can be joined
//! with merged hierarchical states without ambiguity. Since every transition
//! then commutes with the quotient map (and pending returns read the initial
//! state, whose block is the quotient's initial state), the unique run of
//! the quotient mirrors the run of the original on every nested word —
//! languages are preserved exactly.
//!
//! One wrinkle: the transition table is total, so it carries return entries
//! `δr(q, h, a)` for hierarchical arguments `h` that no run can ever
//! produce — only the initial state (pending returns) and the images of
//! `δc^h` ever cross a hierarchical edge. Those entries are *don't-cares*,
//! and comparing them verbatim would let junk values split
//! language-equivalent states. The refinement therefore reads the table
//! through a normalization that replaces every unrealizable entry by the
//! state's pending-return entry `δr(q, q₀, a)` — a rewrite no run can
//! observe — before comparing or quotienting.
//!
//! On *flat* automata (no information across hierarchical edges, §3.3) the
//! only realizable hierarchical argument is the initial state, so after
//! normalization the two-sided conditions collapse to the Moore conditions
//! over the tagged alphabet Σ̂, and [`reduce`] returns an automaton with
//! exactly as many states as [`crate::flat::minimize_flat`] — i.e. the true
//! minimum (Theorem 2). On general automata the quotient is a sound
//! reduction: it never changes the language and never grows the automaton,
//! but a smaller equivalent NWA may exist.

use crate::automaton::Nwa;
use nested_words::Symbol;
use std::collections::HashMap;

/// Quotients a deterministic NWA by the coarsest congruence on its reachable
/// states (see the module docs for the precise equivalence). The result
/// accepts exactly the same nested words; on flat automata it is the minimal
/// flat NWA.
pub fn reduce(nwa: &Nwa) -> Nwa {
    let sigma = nwa.sigma();

    // Joint reachability closure. `reachable` collects every state that can
    // appear in a run at all — linearly, or on a hierarchical edge
    // (`is_hier`: the initial state for pending returns, plus the δc^h
    // images of reachable states). Returns are explored only through
    // *realizable* hierarchical arguments, so a junk entry `δr(q, h, a)`
    // with unrealizable `h` cannot drag otherwise dead states into the
    // quotient.
    let mut reachable = vec![false; nwa.num_states()];
    let mut is_hier = vec![false; nwa.num_states()];
    reachable[nwa.initial()] = true;
    is_hier[nwa.initial()] = true;
    let mut changed = true;
    while changed {
        changed = false;
        let mark = |t: usize, set: &mut Vec<bool>, changed: &mut bool| {
            if !set[t] {
                set[t] = true;
                *changed = true;
            }
        };
        for q in 0..nwa.num_states() {
            if !reachable[q] {
                continue;
            }
            for a in 0..sigma {
                let a = Symbol(a as u16);
                mark(nwa.internal(q, a), &mut reachable, &mut changed);
                mark(nwa.call_linear(q, a), &mut reachable, &mut changed);
                let h = nwa.call_hier(q, a);
                mark(h, &mut reachable, &mut changed);
                mark(h, &mut is_hier, &mut changed);
            }
        }
        for q in 0..nwa.num_states() {
            if !reachable[q] {
                continue;
            }
            for h in 0..nwa.num_states() {
                if !reachable[h] || !is_hier[h] {
                    continue;
                }
                for a in 0..sigma {
                    mark(
                        nwa.ret(q, h, Symbol(a as u16)),
                        &mut reachable,
                        &mut changed,
                    );
                }
            }
        }
    }
    let reach: Vec<usize> = (0..nwa.num_states()).filter(|&q| reachable[q]).collect();
    let n = reach.len();
    let mut index_of = vec![usize::MAX; nwa.num_states()];
    for (i, &q) in reach.iter().enumerate() {
        index_of[q] = i;
    }

    // Return entries for unrealizable hierarchical arguments are
    // don't-cares; `ret_norm` rewrites them to the pending-return entry so
    // junk values cannot split language-equivalent states (module docs).
    let ret_norm =
        |q: usize, h: usize, a: Symbol| nwa.ret(q, if is_hier[h] { h } else { nwa.initial() }, a);

    // Initial partition: accepting vs non-accepting (normalized to one block
    // when uniform, matching the word-automata skeleton).
    let mut block_of: Vec<usize> = reach
        .iter()
        .map(|&q| usize::from(nwa.is_accepting(q)))
        .collect();
    let mut num_blocks = if block_of.contains(&0) && block_of.contains(&1) {
        2
    } else {
        block_of.fill(0);
        1
    };

    // Refine until stable. The signature of a state lists the blocks of all
    // its internal/call successors, its return row (as linear argument) and
    // its return column (as hierarchical argument) over the reachable states.
    loop {
        let mut sig_to_block: HashMap<(usize, Vec<usize>), usize> = HashMap::new();
        let mut new_block_of = vec![0usize; n];
        for (i, &q) in reach.iter().enumerate() {
            let mut sig = Vec::with_capacity(3 * sigma + 2 * n * sigma);
            for a in 0..sigma {
                let a = Symbol(a as u16);
                sig.push(block_of[index_of[nwa.internal(q, a)]]);
                sig.push(block_of[index_of[nwa.call_linear(q, a)]]);
                sig.push(block_of[index_of[nwa.call_hier(q, a)]]);
            }
            for &r in &reach {
                for a in 0..sigma {
                    let a = Symbol(a as u16);
                    sig.push(block_of[index_of[ret_norm(q, r, a)]]);
                    sig.push(block_of[index_of[ret_norm(r, q, a)]]);
                }
            }
            let next = sig_to_block.len();
            new_block_of[i] = *sig_to_block.entry((block_of[i], sig)).or_insert(next);
        }
        let new_num = sig_to_block.len();
        let stable = new_num == num_blocks;
        block_of = new_block_of;
        num_blocks = new_num;
        if stable {
            break;
        }
    }

    // Build the quotient, numbering the initial state's block 0.
    let mut remap = vec![usize::MAX; num_blocks];
    remap[block_of[index_of[nwa.initial()]]] = 0;
    let mut next = 1usize;
    for i in 0..n {
        let b = block_of[i];
        if remap[b] == usize::MAX {
            remap[b] = next;
            next += 1;
        }
    }
    let block = |target: usize, index_of: &[usize], block_of: &[usize], remap: &[usize]| {
        remap[block_of[index_of[target]]]
    };
    let mut out = Nwa::new(num_blocks, sigma, 0);
    for (i, &q) in reach.iter().enumerate() {
        let b = remap[block_of[i]];
        out.set_accepting(b, nwa.is_accepting(q));
        for a in 0..sigma {
            let a = Symbol(a as u16);
            out.set_internal(
                b,
                a,
                block(nwa.internal(q, a), &index_of, &block_of, &remap),
            );
            out.set_call(
                b,
                a,
                block(nwa.call_linear(q, a), &index_of, &block_of, &remap),
                block(nwa.call_hier(q, a), &index_of, &block_of, &remap),
            );
        }
        for (j, &h) in reach.iter().enumerate() {
            let hb = remap[block_of[j]];
            for a in 0..sigma {
                let a = Symbol(a as u16);
                out.set_return(
                    b,
                    hb,
                    a,
                    block(ret_norm(q, h, a), &index_of, &block_of, &remap),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::{from_tagged_dfa, minimize_flat};
    use nested_words::generate::{random_nested_word, NestedWordConfig};
    use nested_words::rng::Prng;
    use nested_words::Alphabet;
    use word_automata::Regex;

    /// A random complete deterministic NWA.
    fn random_det_nwa(num_states: usize, sigma: usize, seed: u64) -> Nwa {
        let mut rng = Prng::new(seed);
        let mut m = Nwa::new(num_states, sigma, rng.below(num_states));
        for q in 0..num_states {
            m.set_accepting(q, rng.bool(0.5));
            for a in 0..sigma {
                let a = Symbol(a as u16);
                m.set_internal(q, a, rng.below(num_states));
                m.set_call(q, a, rng.below(num_states), rng.below(num_states));
                for h in 0..num_states {
                    m.set_return(q, h, a, rng.below(num_states));
                }
            }
        }
        m
    }

    /// Duplicates every state of an NWA (two interchangeable copies); the
    /// congruence must merge each pair back together.
    fn duplicate_states(m: &Nwa) -> Nwa {
        let n = m.num_states();
        let copy = |q: usize, c: usize| q + c * n;
        let mut out = Nwa::new(2 * n, m.sigma(), copy(m.initial(), 1));
        for q in 0..n {
            for c in 0..2 {
                out.set_accepting(copy(q, c), m.is_accepting(q));
                for a in 0..m.sigma() {
                    let a = Symbol(a as u16);
                    // successors alternate copies so both copies are reachable
                    out.set_internal(copy(q, c), a, copy(m.internal(q, a), 1 - c));
                    out.set_call(
                        copy(q, c),
                        a,
                        copy(m.call_linear(q, a), 1 - c),
                        copy(m.call_hier(q, a), c),
                    );
                    for h in 0..n {
                        for hc in 0..2 {
                            out.set_return(copy(q, c), copy(h, hc), a, copy(m.ret(q, h, a), c));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn reduce_merges_duplicated_states() {
        for seed in 0..10u64 {
            let m = random_det_nwa(3, 2, seed);
            let doubled = duplicate_states(&m);
            let reduced = reduce(&doubled);
            assert!(
                reduced.num_states() <= m.num_states(),
                "seed {seed}: {} vs {}",
                reduced.num_states(),
                m.num_states()
            );
        }
    }

    #[test]
    fn reduce_preserves_language_on_random_nested_words() {
        let ab = Alphabet::ab();
        let cfg = NestedWordConfig {
            len: 40,
            allow_pending: true,
            ..Default::default()
        };
        for seed in 0..12u64 {
            let m = random_det_nwa(4, 2, seed);
            let reduced = reduce(&m);
            for wseed in 0..40u64 {
                let w = random_nested_word(&ab, cfg, wseed);
                assert_eq!(
                    m.accepts(&w),
                    reduced.accepts(&w),
                    "seed {seed} wseed {wseed}"
                );
            }
        }
    }

    #[test]
    fn reduce_is_idempotent() {
        for seed in 0..10u64 {
            let m = duplicate_states(&random_det_nwa(3, 2, seed));
            let once = reduce(&m);
            let twice = reduce(&once);
            assert_eq!(once.num_states(), twice.num_states(), "seed {seed}");
        }
    }

    #[test]
    fn reduce_agrees_with_flat_minimization_on_flat_automata() {
        // Build redundant flat NWAs from unminimized regex determinizations
        // over Σ̂; the congruence quotient must hit exactly the minimal flat
        // size of Theorem 2.
        let sigma = 2usize;
        let sym = |i: usize| Regex::Symbol(i);
        let patterns: [Regex; 3] = [
            sym(1).concat(Regex::any_star()).concat(sym(4)),
            Regex::any_star()
                .concat(sym(0))
                .concat(Regex::any_star())
                .concat(sym(5)),
            sym(2).union(sym(3)).star(),
        ];
        for r in patterns {
            let unminimized = r.to_nfa(3 * sigma).determinize();
            let flat = from_tagged_dfa(&unminimized, sigma);
            let reduced = reduce(&flat);
            let minimal = minimize_flat(&flat);
            assert!(reduced.is_flat());
            assert_eq!(reduced.num_states(), minimal.num_states());
        }
    }

    #[test]
    fn junk_return_entries_cannot_split_equivalent_states() {
        // Flat NWA (δc^h = initial everywhere) for "no b anywhere" over
        // {a,b}: states 0 and 1 are language-equivalent (they swap on a),
        // state 2 is the dead sink. Only the initial state is realizable as
        // a hierarchical argument in a flat run, so the δr(·, h≠0, ·)
        // entries are don't-cares — set them *differently* for states 0
        // and 1 and check the congruence still merges them, agreeing with
        // `minimize_flat` (which never reads those entries).
        let a = Symbol(0);
        let b = Symbol(1);
        let mut m = Nwa::new(3, 2, 0);
        m.set_accepting(0, true);
        m.set_accepting(1, true);
        for q in 0..3usize {
            let on_a = if q == 2 { 2 } else { 1 - q };
            m.set_internal(q, a, on_a);
            m.set_internal(q, b, 2);
            m.set_call(q, a, on_a, 0);
            m.set_call(q, b, 2, 0);
            for h in 0..3usize {
                m.set_return(q, h, a, on_a);
                m.set_return(q, h, b, 2);
            }
        }
        // junk: unrealizable hierarchical arguments disagree between 0 and 1
        m.set_return(0, 1, a, 2);
        m.set_return(1, 1, a, 0);
        m.set_return(0, 2, b, 1);
        assert!(m.is_flat());
        let reduced = reduce(&m);
        let minimal = minimize_flat(&m);
        assert_eq!(minimal.num_states(), 2);
        assert_eq!(reduced.num_states(), 2);
        let ab = Alphabet::ab();
        let cfg = NestedWordConfig {
            len: 25,
            allow_pending: true,
            ..Default::default()
        };
        for wseed in 0..30u64 {
            let w = random_nested_word(&ab, cfg, wseed);
            assert_eq!(m.accepts(&w), reduced.accepts(&w), "wseed {wseed}");
        }
    }

    #[test]
    fn reduce_trims_unreachable_states() {
        let a = Symbol(0);
        let mut m = Nwa::new(4, 1, 0);
        m.set_accepting(1, true);
        m.set_internal(0, a, 1);
        m.set_internal(1, a, 0);
        m.set_call(0, a, 1, 0);
        m.set_call(1, a, 0, 1);
        // states 2, 3 are unreachable (all their transitions default to 0)
        m.set_accepting(3, true);
        let reduced = reduce(&m);
        assert_eq!(reduced.num_states(), 2);
        assert_eq!(reduced.initial(), 0);
    }

    #[test]
    fn reduce_single_block_language() {
        // Universal language: everything collapses to one accepting state.
        let mut m = random_det_nwa(5, 2, 99);
        for q in 0..m.num_states() {
            m.set_accepting(q, true);
        }
        let reduced = reduce(&m);
        assert_eq!(reduced.num_states(), 1);
        assert!(reduced.is_accepting(0));
    }

    /// The hierarchical argument matters: two states with identical linear
    /// behaviour but different behaviour *as* hierarchical states must not
    /// merge.
    #[test]
    fn reduce_keeps_states_distinguished_by_hierarchical_role() {
        let m = {
            // matching-labels automaton: states 1 and 2 are only used on
            // hierarchical edges and differ only in how returns join them.
            let a = Symbol(0);
            let b = Symbol(1);
            let mut m = Nwa::new(4, 2, 0);
            m.set_accepting(0, true);
            m.set_all_transitions_to(3, 3);
            m.set_internal(0, a, 0);
            m.set_internal(0, b, 0);
            m.set_call(0, a, 0, 1);
            m.set_call(0, b, 0, 2);
            for q in [1usize, 2] {
                m.set_all_transitions_to(q, 3);
            }
            for h in 0..4usize {
                for (sym, want) in [(a, 1usize), (b, 2usize)] {
                    m.set_return(0, h, sym, if h == want { 0 } else { 3 });
                }
            }
            m
        };
        let reduced = reduce(&m);
        // nothing can merge: 1 and 2 differ as hierarchical arguments, 0 and
        // 3 differ on acceptance, 1/2 vs 3 differ as hierarchical arguments.
        assert_eq!(reduced.num_states(), 4);
        let ab = Alphabet::ab();
        let cfg = NestedWordConfig {
            len: 30,
            allow_pending: true,
            ..Default::default()
        };
        for wseed in 0..30u64 {
            let w = random_nested_word(&ab, cfg, wseed);
            assert_eq!(m.accepts(&w), reduced.accepts(&w), "wseed {wseed}");
        }
    }

    #[test]
    fn reduce_handles_trivial_one_state_automaton() {
        let m = Nwa::new(1, 2, 0);
        let reduced = reduce(&m);
        assert_eq!(reduced.num_states(), 1);
    }
}
