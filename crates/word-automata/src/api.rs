//! Implementations of the [`automata_core`] trait vocabulary for word
//! automata. Inputs are flat symbol slices `[usize]` over the dense symbol
//! space.

use crate::dfa::Dfa;
use crate::nfa::Nfa;
use automata_core::{
    Acceptor, BooleanOps, Decide, Emptiness, Minimize, StreamAcceptor, StreamRun, Witness,
};
use nested_words::TaggedSymbol;

impl Acceptor<[usize]> for Dfa {
    fn accepts(&self, input: &[usize]) -> bool {
        Dfa::accepts(self, input)
    }
}

/// A streaming run of a DFA over the tagged alphabet Σ̂: the stack-free
/// special case of a nested-word run (a flat NWA, Theorem 2 / §3.3).
///
/// Each [`TaggedSymbol`] event is read as the letter
/// `TaggedSymbol::tagged_index` of Σ̂, so the DFA must have `3·|Σ|` symbols
/// (calls `0..σ`, internals `σ..2σ`, returns `2σ..3σ`), as produced by
/// `nwa::flat::to_tagged_dfa` or `Regex::to_min_dfa(3 * sigma)`.
#[derive(Debug, Clone)]
pub struct TaggedDfaRun<'a> {
    dfa: &'a Dfa,
    sigma: usize,
    state: usize,
    steps: usize,
}

impl StreamRun for TaggedDfaRun<'_> {
    fn step(&mut self, event: TaggedSymbol) {
        let a = event.symbol().index();
        if a >= self.sigma {
            automata_core::compile::outside_alphabet(a, self.sigma);
        }
        self.steps += 1;
        self.state = self.dfa.next(self.state, event.tagged_index(self.sigma));
    }

    fn is_accepting(&self) -> bool {
        self.dfa.is_accepting(self.state)
    }

    fn stack_height(&self) -> usize {
        0
    }

    fn peak_memory(&self) -> usize {
        0
    }

    fn steps(&self) -> usize {
        self.steps
    }
}

impl StreamAcceptor for Dfa {
    type Run<'a> = TaggedDfaRun<'a>;

    /// Starts a tagged-alphabet run.
    ///
    /// Panics if the DFA's symbol count is not a multiple of three (it must
    /// be a DFA over Σ̂ to interpret call/internal/return events).
    fn start(&self) -> TaggedDfaRun<'_> {
        assert!(
            self.num_symbols().is_multiple_of(3),
            "streaming over tagged events needs a DFA over the tagged alphabet (3·|Σ| symbols)"
        );
        TaggedDfaRun {
            dfa: self,
            sigma: self.num_symbols() / 3,
            state: self.initial(),
            steps: 0,
        }
    }
}

impl BooleanOps for Dfa {
    fn intersect(&self, other: &Self) -> Self {
        Dfa::intersect(self, other)
    }

    fn union(&self, other: &Self) -> Self {
        Dfa::union(self, other)
    }

    fn complement(&self) -> Self {
        Dfa::complement(self)
    }
}

impl Emptiness for Dfa {
    fn is_empty(&self) -> bool {
        Dfa::is_empty(self)
    }
}

impl Decide for Dfa {
    fn subset_eq(&self, other: &Self) -> bool {
        self.included_in(other)
    }

    fn equals(&self, other: &Self) -> bool {
        self.equivalent(other)
    }
}

impl Minimize for Dfa {
    /// The unique minimal complete DFA (Moore partition refinement; see
    /// [`crate::minimize::minimize`]).
    fn minimize(&self) -> Self {
        crate::minimize::minimize(self)
    }

    fn num_states(&self) -> usize {
        Dfa::num_states(self)
    }
}

impl Witness for Dfa {
    type Input = Vec<usize>;

    /// A shortest accepted word ([`Dfa::find_accepted_word`]: BFS from the
    /// initial state with predecessor backpointers).
    fn witness(&self) -> Option<Vec<usize>> {
        self.find_accepted_word()
    }
}

impl Acceptor<[usize]> for Nfa {
    fn accepts(&self, input: &[usize]) -> bool {
        Nfa::accepts(self, input)
    }
}

impl Emptiness for Nfa {
    /// Decided on the subset-construction DFA; exponential in the worst
    /// case, though emptiness itself only needs the reachable part.
    fn is_empty(&self) -> bool {
        self.determinize().is_empty()
    }
}

impl Witness for Nfa {
    type Input = Vec<usize>;

    /// A shortest accepted word, found by BFS on the subset-construction
    /// DFA (whose shortest accepted words coincide with the NFA's).
    fn witness(&self) -> Option<Vec<usize>> {
        self.determinize().find_accepted_word()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata_core::query;

    fn even_ones() -> Dfa {
        let mut d = Dfa::new(2, 2, 0);
        d.set_accepting(0, true);
        d.set_transition(0, 0, 0);
        d.set_transition(0, 1, 1);
        d.set_transition(1, 0, 1);
        d.set_transition(1, 1, 0);
        d
    }

    #[test]
    fn query_verbs_work_on_dfas() {
        let d = even_ones();
        assert!(query::contains(&d, &[1, 1][..]));
        assert!(!query::contains(&d, &[1][..]));
        assert!(!query::is_empty(&d));
        assert!(query::is_empty(&d.intersect(&d.complement())));
        assert!(query::equals(&d, &d.complement().complement()));
        assert!(query::subset_eq(&d.intersect(&d.complement()), &d));
    }

    #[test]
    fn nfa_trait_impls_agree_with_dfa() {
        let d = even_ones();
        let n = Nfa::from_dfa(&d);
        for w in [vec![], vec![1], vec![1, 1], vec![0, 1, 0, 1]] {
            assert_eq!(query::contains(&n, &w[..]), d.accepts(&w));
        }
        assert!(!query::is_empty(&n));
    }
}
