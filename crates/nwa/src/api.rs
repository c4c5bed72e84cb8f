//! Implementations of the [`automata_core`] trait vocabulary for the nested
//! word automaton models: membership, boolean operations and the WALi-style
//! decision verbs, uniform with every other model in the suite.

use crate::automaton::{Nwa, StreamingRun};
use crate::joinless::{JoinlessNwa, JoinlessStreamingRun};
use crate::nondet::{Nnwa, NnwaStreamingRun};
use crate::{boolean, decision};
use automata_core::{Acceptor, BooleanOps, Decide, Emptiness, Minimize, StreamAcceptor, Witness};
use nested_words::NestedWord;

// --- deterministic NWAs ---------------------------------------------------

impl Acceptor<NestedWord> for Nwa {
    fn accepts(&self, input: &NestedWord) -> bool {
        Nwa::accepts(self, input)
    }
}

impl StreamAcceptor for Nwa {
    type Run<'a> = StreamingRun<'a>;

    fn start(&self) -> StreamingRun<'_> {
        StreamingRun::new(self)
    }
}

impl BooleanOps for Nwa {
    fn intersect(&self, other: &Self) -> Self {
        boolean::intersect(self, other)
    }

    fn union(&self, other: &Self) -> Self {
        boolean::union(self, other)
    }

    fn complement(&self) -> Self {
        boolean::complement(self)
    }
}

impl Emptiness for Nwa {
    fn is_empty(&self) -> bool {
        decision::is_empty_det(self)
    }
}

impl Decide for Nwa {
    fn subset_eq(&self, other: &Self) -> bool {
        decision::included_in(self, other)
    }

    fn equals(&self, other: &Self) -> bool {
        decision::equivalent(self, other)
    }
}

impl Minimize for Nwa {
    /// The quotient by the coarsest state congruence (see
    /// [`crate::minimize::reduce`]): language-preserving and idempotent,
    /// exactly minimal on flat automata (where it coincides with DFA
    /// minimization over Σ̂), a sound reduction in general — deterministic
    /// NWAs have no unique minimum.
    fn minimize(&self) -> Self {
        crate::minimize::reduce(self)
    }

    fn num_states(&self) -> usize {
        Nwa::num_states(self)
    }
}

impl Witness for Nwa {
    type Input = NestedWord;

    /// A shortest accepted nested word (see
    /// [`crate::witness::shortest_accepted_det`]): the summary saturation
    /// that decides emptiness, unwound through its backpointers.
    fn witness(&self) -> Option<NestedWord> {
        crate::witness::shortest_accepted_det(self)
    }
}

// --- nondeterministic NWAs ------------------------------------------------

impl Acceptor<NestedWord> for Nnwa {
    fn accepts(&self, input: &NestedWord) -> bool {
        Nnwa::accepts(self, input)
    }
}

impl StreamAcceptor for Nnwa {
    type Run<'a> = NnwaStreamingRun<'a>;

    fn start(&self) -> NnwaStreamingRun<'_> {
        Nnwa::start_run(self)
    }
}

impl BooleanOps for Nnwa {
    fn intersect(&self, other: &Self) -> Self {
        boolean::intersect_nondet(self, other)
    }

    fn union(&self, other: &Self) -> Self {
        boolean::union_nondet(self, other)
    }

    /// Determinizes first (the `2^{s²}` summary-set construction of §3.2),
    /// so this is worst-case exponential.
    fn complement(&self) -> Self {
        Nnwa::from_deterministic(&boolean::complement(&self.determinize()))
    }
}

impl Emptiness for Nnwa {
    fn is_empty(&self) -> bool {
        decision::is_empty(self)
    }
}

impl Decide for Nnwa {
    /// Overrides the default to determinize only the right-hand side
    /// (EXPTIME in the worst case, as stated in §3.2).
    fn subset_eq(&self, other: &Self) -> bool {
        decision::included_in_nondet(self, other)
    }

    fn equals(&self, other: &Self) -> bool {
        decision::equivalent_nondet(self, other)
    }
}

impl Minimize for Nnwa {
    /// Determinize-then-reduce: the `2^{s²}` summary-set construction of
    /// §3.2 followed by the quotient by the coarsest state congruence
    /// ([`crate::minimize::reduce`]), wrapped back into the
    /// nondeterministic representation. Worst-case exponential (the
    /// determinization), and — like every NWA minimization — a sound
    /// language-preserving reduction of the *deterministic* form rather
    /// than a unique minimum; in particular the result can be larger than
    /// the nondeterministic source, which is exactly the succinctness gap
    /// the Theorem 3/5 families measure.
    fn minimize(&self) -> Self {
        Nnwa::from_deterministic(&crate::minimize::reduce(&self.determinize()))
    }

    fn num_states(&self) -> usize {
        Nnwa::num_states(self)
    }
}

impl Witness for Nnwa {
    type Input = NestedWord;

    /// A shortest accepted nested word (see
    /// [`crate::witness::shortest_accepted`]), directly on the
    /// nondeterministic transition relations — no determinization.
    fn witness(&self) -> Option<NestedWord> {
        crate::witness::shortest_accepted(self)
    }
}

// --- joinless NWAs --------------------------------------------------------

impl Acceptor<NestedWord> for JoinlessNwa {
    fn accepts(&self, input: &NestedWord) -> bool {
        JoinlessNwa::accepts(self, input)
    }
}

impl StreamAcceptor for JoinlessNwa {
    type Run<'a> = JoinlessStreamingRun<'a>;

    fn start(&self) -> JoinlessStreamingRun<'_> {
        JoinlessNwa::start_run(self)
    }
}

impl Emptiness for JoinlessNwa {
    /// Decided on the exact [`JoinlessNwa::to_nnwa`] expansion of the
    /// mode-split return relation (polynomial, no determinization).
    fn is_empty(&self) -> bool {
        decision::is_empty(&self.to_nnwa())
    }
}

impl Witness for JoinlessNwa {
    type Input = NestedWord;

    /// A shortest accepted nested word, extracted from the exact
    /// [`JoinlessNwa::to_nnwa`] expansion through the summary-relation
    /// engine ([`crate::witness::shortest_accepted`]).
    fn witness(&self) -> Option<NestedWord> {
        crate::witness::shortest_accepted(&self.to_nnwa())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata_core::query;
    use nested_words::tagged::parse_nested_word;
    use nested_words::{Alphabet, Symbol};

    /// Deterministic NWA over {a,b} accepting words with an even number of
    /// b-labelled positions.
    fn even_bs() -> Nwa {
        let a = Symbol(0);
        let b = Symbol(1);
        let mut m = Nwa::new(2, 2, 0);
        m.set_accepting(0, true);
        for q in 0..2usize {
            m.set_internal(q, a, q);
            m.set_internal(q, b, 1 - q);
            m.set_call(q, a, q, 0);
            m.set_call(q, b, 1 - q, 0);
            for h in 0..2 {
                m.set_return(q, h, a, q);
                m.set_return(q, h, b, 1 - q);
            }
        }
        m
    }

    #[test]
    fn trait_accepts_agrees_with_inherent() {
        let mut ab = Alphabet::ab();
        let m = even_bs();
        let n = Nnwa::from_deterministic(&m);
        for s in ["", "b", "b b", "<a b a>", "<b b>"] {
            let w = parse_nested_word(s, &mut ab).unwrap();
            assert_eq!(query::contains(&m, &w), m.accepts(&w), "det `{s}`");
            assert_eq!(query::contains(&n, &w), n.accepts(&w), "nondet `{s}`");
        }
    }

    #[test]
    fn decide_laws_for_deterministic_nwas() {
        let m = even_bs();
        assert!(query::equals(&m, &m.complement().complement()));
        assert!(!query::equals(&m, &m.complement()));
        let inter = m.intersect(&m.complement());
        assert!(query::is_empty(&inter));
        assert!(query::subset_eq(&inter, &m));
    }

    #[test]
    fn decide_laws_for_nondeterministic_nwas() {
        // One symbol keeps the determinizations inside `complement` small.
        let a = Symbol(0);
        let mut m = Nwa::new(2, 1, 0);
        m.set_accepting(0, true);
        for q in 0..2usize {
            m.set_internal(q, a, 1 - q);
            m.set_call(q, a, 1 - q, 0);
            for h in 0..2 {
                m.set_return(q, h, a, 1 - q);
            }
        }
        let n = Nnwa::from_deterministic(&m);
        assert!(query::equals(&n, &n.complement().complement()));
        assert!(!query::is_empty(&n));
        assert!(query::subset_eq(&n.intersect(&n.complement()), &n));
        assert!(query::is_empty(&n.intersect(&n.complement())));
    }
}
