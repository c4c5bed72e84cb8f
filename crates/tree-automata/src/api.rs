//! Implementations of the [`automata_core`] trait vocabulary for the tree
//! automaton models. Inputs are [`OrderedTree`]s; the input domain of every
//! model here is the set of *non-empty* trees (binary trees for the ranked
//! models), so complements are taken relative to that domain.

use crate::bottom_up::BottomUpBinaryTA;
use crate::stepwise::{DetStepwiseTA, StepwiseTA};
use crate::top_down::TopDownBinaryTA;
use automata_core::{
    Acceptor, BooleanOps, Compile, CompiledNwa, Decide, Emptiness, Minimize, Witness,
};
use nested_words::OrderedTree;

impl Acceptor<OrderedTree> for DetStepwiseTA {
    fn accepts(&self, input: &OrderedTree) -> bool {
        DetStepwiseTA::accepts(self, input)
    }
}

impl BooleanOps for DetStepwiseTA {
    fn intersect(&self, other: &Self) -> Self {
        DetStepwiseTA::intersect(self, other)
    }

    fn union(&self, other: &Self) -> Self {
        DetStepwiseTA::union(self, other)
    }

    fn complement(&self) -> Self {
        DetStepwiseTA::complement(self)
    }
}

impl Emptiness for DetStepwiseTA {
    fn is_empty(&self) -> bool {
        DetStepwiseTA::is_empty(self)
    }
}

impl Decide for DetStepwiseTA {}

impl Minimize for DetStepwiseTA {
    /// The minimal deterministic stepwise automaton (two-sided congruence
    /// refinement over the reachable states; see
    /// [`DetStepwiseTA::minimize`]).
    fn minimize(&self) -> Self {
        DetStepwiseTA::minimize(self)
    }

    fn num_states(&self) -> usize {
        DetStepwiseTA::num_states(self)
    }
}

impl Witness for DetStepwiseTA {
    type Input = OrderedTree;

    /// A smallest accepted tree ([`DetStepwiseTA::find_accepted_tree`]:
    /// bottom-up reachability with backpointers).
    fn witness(&self) -> Option<OrderedTree> {
        self.find_accepted_tree()
    }
}

impl Compile for DetStepwiseTA {
    type Compiled = CompiledNwa;

    /// Lemma 1 made executable: the automaton as a bottom-up NWA whose
    /// return ignores its symbol, built into the dense [`CompiledNwa`]
    /// engine and streaming `t_w` tree encodings (§2.3) one event at a
    /// time. A call pushes the current value and opens a node at
    /// `init(a)`; a return pops the parent's value `q` and folds the
    /// finished child `r` into it, `combine(q, r)`.
    ///
    /// To be total over arbitrary event streams, the NWA for an `n`-state
    /// automaton runs on an extended domain of `m = 2n + 3` states:
    ///
    /// * `0..n`: the partial value of the open node;
    /// * `n..2n`: *top-done(q)*, one finished tree of value `q` at the top
    ///   level, accepting iff `q` is;
    /// * `2n`: *top-start*, the initial state, nothing read yet;
    /// * `2n + 1`: *top-many*, more than one top-level tree;
    /// * `2n + 2`: *dead*, reached by an internal, a pending return or a
    ///   call from dead. It is absorbing, so a dead run settles.
    ///
    /// A stream is accepted iff it is `tree.to_tagged()` for a tree the
    /// automaton accepts **up to the labels of its returns**: a return
    /// folds whatever its label, so `[Call(a), Return(b)]` decides like the
    /// leaf `a`, as `nwa::bottom_up::from_stepwise` does. An internal, a
    /// pending return, an unclosed call, two top-level trees and the empty
    /// stream are rejected (pinned below, and held against a spec fold at
    /// every prefix in `tests/compile.rs`).
    ///
    /// The returns ignore their label, so they form one return class and
    /// the tables take about `m·(k_c + 1) + m²` entries for `k_c` call
    /// classes (labels opening nodes at distinct values), plus the `3σ`
    /// column map. Panics if the dense image's `(m + m²)·3σ` overflows
    /// `u32` and, as every compiled NWA does, on an event symbol outside
    /// the alphabet.
    fn compile(&self) -> CompiledNwa {
        let n = self.num_states();
        let (top_start, top_many, dead) = (2 * n, 2 * n + 1, 2 * n + 2);
        // The value a finished node `child` leaves in the context `ctx` it
        // returns to; only a node's value can finish.
        let fold = |ctx: usize, child: usize| {
            if child >= n || ctx == dead {
                dead
            } else if ctx < n {
                self.combine(ctx, child)
            } else if ctx == top_start {
                n + child
            } else {
                top_many
            }
        };
        CompiledNwa::from_transitions(
            2 * n + 3,
            self.sigma(),
            top_start,
            |q| (n..2 * n).contains(&q) && self.is_accepting(q - n),
            |q, a| (if q == dead { dead } else { self.init(a) }, q),
            |_, _| dead,
            |q, h, _| fold(h, q),
        )
    }
}

impl Acceptor<OrderedTree> for StepwiseTA {
    fn accepts(&self, input: &OrderedTree) -> bool {
        StepwiseTA::accepts(self, input)
    }
}

impl Emptiness for StepwiseTA {
    /// Decided on the subset-construction determinization.
    fn is_empty(&self) -> bool {
        self.determinize().is_empty()
    }
}

impl Witness for StepwiseTA {
    type Input = OrderedTree;

    /// A smallest accepted tree of the subset-construction determinization
    /// (whose smallest accepted trees coincide with the nondeterministic
    /// automaton's).
    fn witness(&self) -> Option<OrderedTree> {
        self.determinize().find_accepted_tree()
    }
}

impl Acceptor<OrderedTree> for TopDownBinaryTA {
    fn accepts(&self, input: &OrderedTree) -> bool {
        TopDownBinaryTA::accepts(self, input)
    }
}

impl Emptiness for TopDownBinaryTA {
    fn is_empty(&self) -> bool {
        TopDownBinaryTA::is_empty(self)
    }
}

impl Acceptor<OrderedTree> for BottomUpBinaryTA {
    fn accepts(&self, input: &OrderedTree) -> bool {
        BottomUpBinaryTA::accepts(self, input)
    }
}

impl Emptiness for BottomUpBinaryTA {
    fn is_empty(&self) -> bool {
        BottomUpBinaryTA::is_empty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata_core::{query, BatchAcceptor, Persist, StreamAcceptor, StreamRun, Suspend};
    use nested_words::{Alphabet, Symbol, TaggedSymbol};

    fn syms() -> (Symbol, Symbol) {
        let ab = Alphabet::ab();
        (ab.lookup("a").unwrap(), ab.lookup("b").unwrap())
    }

    /// Deterministic stepwise automaton for "the tree contains a b-labelled
    /// node".
    fn det_contains_b() -> DetStepwiseTA {
        let (a, b) = syms();
        let mut ta = DetStepwiseTA::new(2, 2);
        ta.set_init(a, 0);
        ta.set_init(b, 1);
        for q in 0..2 {
            for r in 0..2 {
                ta.set_combine(q, r, usize::from(q == 1 || r == 1));
            }
        }
        ta.set_accepting(1, true);
        ta
    }

    /// Deterministic stepwise automaton for "the number of b-labelled nodes
    /// is even".
    fn det_even_bs() -> DetStepwiseTA {
        let (a, b) = syms();
        let mut ta = DetStepwiseTA::new(2, 2);
        ta.set_init(a, 0);
        ta.set_init(b, 1);
        for q in 0..2 {
            for r in 0..2 {
                ta.set_combine(q, r, q ^ r);
            }
        }
        ta.set_accepting(0, true);
        ta
    }

    #[test]
    fn product_agrees_with_components() {
        let (a, b) = syms();
        let t1 = det_contains_b();
        let t2 = det_even_bs();
        let both = t1.intersect(&t2);
        let either = t1.union(&t2);
        let samples = [
            OrderedTree::leaf(a),
            OrderedTree::leaf(b),
            OrderedTree::node(a, vec![OrderedTree::leaf(b), OrderedTree::leaf(b)]),
            OrderedTree::node(b, vec![OrderedTree::leaf(a)]),
            OrderedTree::node(a, vec![OrderedTree::leaf(a), OrderedTree::leaf(a)]),
        ];
        for t in &samples {
            assert_eq!(both.accepts(t), t1.accepts(t) && t2.accepts(t));
            assert_eq!(either.accepts(t), t1.accepts(t) || t2.accepts(t));
        }
    }

    #[test]
    fn decide_laws_for_stepwise() {
        let t1 = det_contains_b();
        let t2 = det_even_bs();
        assert!(query::equals(&t1, &t1.complement().complement()));
        assert!(!query::equals(&t1, &t2));
        assert!(query::subset_eq(&t1.intersect(&t2), &t1));
        assert!(query::is_empty(&t1.intersect(&t1.complement())));
        assert!(!query::is_empty(&t1));
    }

    #[test]
    fn acceptor_covers_all_tree_models() {
        let (a, b) = syms();
        let with_b = OrderedTree::node(a, vec![OrderedTree::leaf(b)]);

        let det = det_contains_b();
        assert!(query::contains(&det, &with_b));

        let mut nondet = StepwiseTA::new(2, 2);
        nondet.add_init(a, 0);
        nondet.add_init(b, 1);
        for q in 0..2 {
            for r in 0..2 {
                nondet.add_combine(q, r, usize::from(q == 1 || r == 1));
            }
        }
        nondet.add_accepting(1);
        assert!(query::contains(&nondet, &with_b));
        assert!(!query::is_empty(&nondet));

        let mut top_down = TopDownBinaryTA::new(1);
        top_down.add_initial(0);
        top_down.add_leaf_rule(0, a);
        top_down.add_unary_rule(0, a, 0);
        assert!(query::contains(&top_down, &OrderedTree::leaf(a)));
        assert!(!query::is_empty(&top_down));

        let bottom_up = BottomUpBinaryTA::universal(2);
        assert!(query::contains(&bottom_up, &with_b));
        assert!(!query::is_empty(&bottom_up));
    }

    fn sample_trees() -> Vec<OrderedTree> {
        let (a, b) = syms();
        vec![
            OrderedTree::leaf(a),
            OrderedTree::leaf(b),
            OrderedTree::node(a, vec![OrderedTree::leaf(a), OrderedTree::leaf(a)]),
            OrderedTree::node(
                a,
                vec![
                    OrderedTree::leaf(a),
                    OrderedTree::node(a, vec![OrderedTree::leaf(b)]),
                ],
            ),
        ]
    }

    /// Whether the compiled automaton accepts `events`, stepped one by one.
    fn compiled_accepts(compiled: &CompiledNwa, events: &[TaggedSymbol]) -> bool {
        let mut run = compiled.start();
        events.iter().for_each(|&e| run.step(e));
        run.is_accepting()
    }

    #[test]
    fn compiled_agrees_with_eval_on_tree_encodings() {
        let ta = det_contains_b();
        let compiled = ta.compile();
        for tree in sample_trees() {
            let events = tree.to_tagged();
            assert_eq!(
                compiled_accepts(&compiled, &events),
                ta.accepts(&tree),
                "tree {tree:?}"
            );
        }
    }

    /// Returns fold whatever their label, as Lemma 1 has it; every stream
    /// that is not one tree is rejected, and a dead run settles.
    /// A lowered automaton's returns ignore their label, so they form one
    /// return class, and its calls and internals take one class each when
    /// every label opens a node at the same value: `DetStepwiseTA::new(10,
    /// 4096)` compiles to about 52 KB, most of it the 3σ column map, where
    /// one column per tagged symbol took 28,262,400 B.
    #[test]
    fn lowered_returns_form_one_class() {
        let c = DetStepwiseTA::new(10, 4096).compile();
        assert_eq!(c.num_classes(), [1, 1, 1]);
        assert_eq!(c.num_states(), 23);
        assert!(c.table_bytes() < 4 * 3 * 4096 + 4096, "{}", c.table_bytes());
        // Labels that open nodes at different values split the calls only.
        let ta = det_contains_b();
        assert_eq!(ta.compile().num_classes(), [2, 1, 1]);
    }

    #[test]
    fn malformed_streams_are_rejected_not_mangled() {
        let compiled = det_contains_b().compile();
        let (a, b) = syms();
        let (call, ret) = (TaggedSymbol::Call, TaggedSymbol::Return);
        // A mismatched return label decides like the matched one.
        for (x, y) in [(a, b), (b, a), (b, b)] {
            assert_eq!(
                compiled_accepts(&compiled, &[call(x), ret(y)]),
                compiled_accepts(&compiled, &[call(x), ret(x)]),
                "<{x:?} {y:?}>"
            );
        }
        assert!(compiled_accepts(&compiled, &[call(b), ret(a)]));
        for events in [
            vec![TaggedSymbol::Internal(b)],
            vec![call(b), TaggedSymbol::Internal(a), ret(b)],
            vec![ret(b)], // a pending return
            vec![ret(b), call(b), ret(b)],
            vec![call(b)],                          // an unclosed node
            vec![call(b), ret(b), call(b), ret(b)], // two top-level trees
            vec![],                                 // the empty stream
        ] {
            assert!(!compiled_accepts(&compiled, &events), "events {events:?}");
        }
        let mut run = compiled.start();
        run.step(TaggedSymbol::Internal(a));
        assert!(!run.reads_names(), "a dead run settles");
        run.step(call(b));
        run.step(ret(b));
        assert!(!run.is_accepting());
    }

    #[test]
    fn round_trips_and_resumes() {
        let compiled = det_contains_b().compile();
        let back = CompiledNwa::load(&compiled.save()).unwrap();
        assert_eq!(back, compiled);

        let tree = &sample_trees()[3];
        let events = tree.to_tagged();
        let mid = events.len() / 2;
        let mut lane = compiled.lane_start();
        for &e in &events[..mid] {
            compiled.lane_step(&mut lane, e);
        }
        let snapshot = compiled.suspend_lane(&lane);
        // Resume on the reloaded artifact and finish the document there.
        let mut resumed = back.resume_lane(&snapshot).unwrap();
        for &e in &events[mid..] {
            back.lane_step(&mut resumed, e);
        }
        let mut full = compiled.lane_start();
        for &e in &events {
            compiled.lane_step(&mut full, e);
        }
        assert_eq!(back.lane_outcome(&resumed), compiled.lane_outcome(&full));
        assert!(compiled.lane_outcome(&full).accepted);
    }
}
