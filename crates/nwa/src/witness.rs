//! The summary saturation of §3.2, the one fixpoint behind every decision
//! procedure of this crate: emptiness ([`crate::decision::is_empty`]),
//! inclusion and equivalence (which reduce to emptiness), and the shortest
//! accepted [`NestedWord`] this module returns as a witness.
//!
//! The engine derives *well-matched summaries* `SUM(q, q')` (some
//! well-matched word leads from `q` to `q'`) and two reach modes `R₀(q)`,
//! `R₁(q)` (before and after the first pending call). Every fact carries
//! its shortest derivation, a length and a backpointer to the rule instance
//! that produced it:
//!
//! * `SUM(q, q)` by the empty word;
//! * `SUM(p, q) --a--> SUM(p, t)` for an internal transition `(q, a, t)`;
//! * `SUM(p, qc)` + call `(qc, c, ql, qh)` + `SUM(ql, e)` + return
//!   `(e, qh, r, t)` derive `SUM(p, t)` by `w₁ ⟨c w₂ r⟩` — the
//!   call–body–return rule;
//! * `R₀(q₀)` for initial `q₀`; both reach modes compose with summaries;
//! * pending returns extend mode 0 (the hierarchical edge carries an
//!   initial state, §3.1); pending calls switch to mode 1, where no pending
//!   return may follow (edges never cross).
//!
//! Facts are settled from a worklist in order of length — Knuth's
//! generalisation of Dijkstra's algorithm, which applies because each
//! conclusion is at least as long as each of its premises. A settled fact is
//! joined only with the rules that can use it: internal steps out of its
//! target, calls out of its target (as a prefix, against the settled bodies
//! of the callee), calls into its source (as a body, against the settled
//! prefixes of the caller, with returns indexed by linear and hierarchical
//! state), and the reach facts it composes with. Each combination of
//! prefix, call, body and return is thus visited once, the cubic bound the
//! paper quotes. The first accepting reach fact settled is a shortest
//! witness, and the search stops there; an empty language saturates.
//!
//! Lengths are minimal over this rule system, so witnesses are shortest
//! accepted words, with the usual caveat that a shortest derivation of an
//! exponentially long witness is still exponentially long to materialize.

use crate::nondet::Nnwa;
use nested_words::{NestedWord, Symbol, TaggedSymbol};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How a fact was derived; indices refer to the fact arrays of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Back {
    /// Not derived (yet).
    None,
    /// `SUM(q, q)` — the empty well-matched word.
    SumEps,
    /// `SUM(p, t)` from `SUM(p, q)` followed by an internal position.
    SumInternal { pre: usize, sym: Symbol },
    /// `SUM(p, t)` from `SUM(p, qc)`, a call, a body summary and a return.
    SumCallRet {
        pre: usize,
        call: Symbol,
        body: usize,
        ret: Symbol,
    },
    /// `R₀(q₀)` — an initial state, reached by the empty word.
    ReachInit,
    /// `R_m(q')` from `R_m(q)` extended by a well-matched summary.
    ReachSum { reach: usize, sum: usize },
    /// `R₀(t)` from `R₀(q)` extended by a pending return.
    ReachPendingReturn { reach: usize, sym: Symbol },
    /// `R₁(ql)` from `R_m(q)` extended by a pending call.
    ReachPendingCall { reach: usize, sym: Symbol },
}

/// Groups `(key, value)` pairs into one list per key in `0..keys`.
fn group<T>(keys: usize, pairs: impl Iterator<Item = (usize, T)>) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..keys).map(|_| Vec::new()).collect();
    for (k, v) in pairs {
        out[k].push(v);
    }
    out
}

/// The transition relations of one automaton, indexed for the joins.
struct Rules {
    num_states: usize,
    /// `(a, t)` by source state.
    internals_from: Vec<Vec<(Symbol, usize)>>,
    /// `(c, ql, qh)` by source state.
    calls_from: Vec<Vec<(Symbol, usize, usize)>>,
    /// `(qc, c, qh)` by linear target.
    calls_into: Vec<Vec<(usize, Symbol, usize)>>,
    /// `(linear·n + hier, r, t)`, sorted by the key; the returns of key
    /// `k` are `returns[starts[k]..starts[k + 1]]`.
    returns: Vec<(usize, Symbol, usize)>,
    starts: Vec<usize>,
}

impl Rules {
    fn new(a: &Nnwa) -> Rules {
        let n = a.num_states();
        let mut returns: Vec<_> = a
            .returns()
            .iter()
            .map(|&(rl, rh, r, t)| (rl * n + rh, r, t))
            .collect();
        returns.sort_unstable_by_key(|&(key, ..)| key);
        let mut starts = vec![0; n * n + 1];
        for &(key, ..) in &returns {
            starts[key + 1] += 1;
        }
        for key in 0..n * n {
            starts[key + 1] += starts[key];
        }
        Rules {
            num_states: n,
            internals_from: group(n, a.internals().iter().map(|&(q, s, t)| (q, (s, t)))),
            calls_from: group(n, a.calls().iter().map(|&(q, c, l, h)| (q, (c, l, h)))),
            calls_into: group(n, a.calls().iter().map(|&(q, c, l, h)| (l, (q, c, h)))),
            returns,
            starts,
        }
    }

    /// The returns `(_, r, t)` out of linear state `linear` popping `hier`.
    fn returns_at(&self, linear: usize, hier: usize) -> &[(usize, Symbol, usize)] {
        let key = linear * self.num_states + hier;
        &self.returns[self.starts[key]..self.starts[key + 1]]
    }
}

/// Shortest-derivation engine over the summary relation of one automaton.
struct Engine {
    /// Fact layout: `SUM(p, q) = p·n + q`, `R₀(q) = n² + q`,
    /// `R₁(q) = n² + n + q`.
    num_states: usize,
    dist: Vec<usize>,
    back: Vec<Back>,
    /// Facts derived but not settled, by length.
    queue: BinaryHeap<Reverse<(usize, usize)>>,
}

impl Engine {
    fn sum(&self, p: usize, q: usize) -> usize {
        p * self.num_states + q
    }

    fn reach(&self, mode: usize, q: usize) -> usize {
        self.num_states * self.num_states + mode * self.num_states + q
    }

    /// Relaxes one fact: records and queues the derivation if `len`
    /// improves on the best known one. Lengths saturate (witnesses can be
    /// exponentially long), and a saturated length is never stored, since
    /// `usize::MAX` is the "unreached" sentinel.
    fn relax(&mut self, fact: usize, len: usize, back: Back) {
        if len < self.dist[fact] {
            self.dist[fact] = len;
            self.back[fact] = back;
            self.queue.push(Reverse((len, fact)));
        }
    }

    /// Settles facts in order of length until the first accepting reach
    /// fact, which it returns, or until the derivation system of `a` is
    /// saturated (`None`: the language is empty).
    fn search(a: &Nnwa) -> (Engine, Option<usize>) {
        let n = a.num_states();
        let rules = Rules::new(a);
        let initial: Vec<usize> = a.initial_states().collect();
        let mut e = Engine {
            num_states: n,
            dist: vec![usize::MAX; n * n + 2 * n],
            back: vec![Back::None; n * n + 2 * n],
            queue: BinaryHeap::new(),
        };
        for q in 0..n {
            e.relax(e.sum(q, q), 0, Back::SumEps);
        }
        for &q0 in &initial {
            e.relax(e.reach(0, q0), 0, Back::ReachInit);
        }
        let mut settled = vec![false; n * n + 2 * n];
        // Settled summaries by source and by target.
        let mut sums_from: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut sums_into: Vec<Vec<usize>> = vec![Vec::new(); n];

        while let Some(Reverse((d, f))) = e.queue.pop() {
            // A fact is queued once per improvement; its first pop carries
            // its shortest length, later ones are stale.
            if settled[f] {
                continue;
            }
            settled[f] = true;
            let next = d.saturating_add(1);
            if f < n * n {
                let (p, q) = (f / n, f % n);
                sums_from[p].push(q);
                sums_into[q].push(p);
                for &(sym, t) in &rules.internals_from[q] {
                    e.relax(e.sum(p, t), next, Back::SumInternal { pre: f, sym });
                }
                // As a prefix: calls out of `q`, with the callee's settled
                // bodies and the returns popping the pushed state.
                for &(call, ql, qh) in &rules.calls_from[q] {
                    for &end in &sums_from[ql] {
                        let body = e.sum(ql, end);
                        let len = d.saturating_add(e.dist[body]).saturating_add(2);
                        for &(_, ret, t) in rules.returns_at(end, qh) {
                            let back = Back::SumCallRet {
                                pre: f,
                                call,
                                body,
                                ret,
                            };
                            e.relax(e.sum(p, t), len, back);
                        }
                    }
                }
                // As a body: calls into `p`, with the caller's settled
                // prefixes.
                for &(qc, call, qh) in &rules.calls_into[p] {
                    for &(_, ret, t) in rules.returns_at(q, qh) {
                        for &start in &sums_into[qc] {
                            let pre = e.sum(start, qc);
                            let len = e.dist[pre].saturating_add(d).saturating_add(2);
                            let back = Back::SumCallRet {
                                pre,
                                call,
                                body: f,
                                ret,
                            };
                            e.relax(e.sum(start, t), len, back);
                        }
                    }
                }
                for mode in 0..2 {
                    let reach = e.reach(mode, p);
                    if settled[reach] {
                        let len = e.dist[reach].saturating_add(d);
                        e.relax(e.reach(mode, q), len, Back::ReachSum { reach, sum: f });
                    }
                }
            } else {
                let (mode, q) = ((f - n * n) / n, (f - n * n) % n);
                if a.is_accepting(q) {
                    return (e, Some(f));
                }
                for &t in &sums_from[q] {
                    let sum = e.sum(q, t);
                    let len = d.saturating_add(e.dist[sum]);
                    e.relax(e.reach(mode, t), len, Back::ReachSum { reach: f, sum });
                }
                if mode == 0 {
                    for &h in &initial {
                        for &(_, sym, t) in rules.returns_at(q, h) {
                            let back = Back::ReachPendingReturn { reach: f, sym };
                            e.relax(e.reach(0, t), next, back);
                        }
                    }
                }
                for &(sym, ql, _) in &rules.calls_from[q] {
                    let back = Back::ReachPendingCall { reach: f, sym };
                    e.relax(e.reach(1, ql), next, back);
                }
            }
        }
        (e, None)
    }

    /// Reconstructs the tagged word of a derived fact by unwinding
    /// backpointers with an explicit stack (witnesses can be long, so no
    /// recursion).
    fn reconstruct(&self, goal: usize) -> Vec<TaggedSymbol> {
        enum Item {
            Fact(usize),
            Tag(TaggedSymbol),
        }
        let mut out = Vec::new();
        let mut stack = vec![Item::Fact(goal)];
        while let Some(item) = stack.pop() {
            match item {
                Item::Tag(t) => out.push(t),
                // Pushed in reverse emission order: the last push pops first.
                Item::Fact(f) => match self.back[f] {
                    Back::None => unreachable!("reconstructing an unreached fact"),
                    Back::SumEps | Back::ReachInit => {}
                    Back::SumInternal { pre, sym } => {
                        stack.push(Item::Tag(TaggedSymbol::Internal(sym)));
                        stack.push(Item::Fact(pre));
                    }
                    Back::SumCallRet {
                        pre,
                        call,
                        body,
                        ret,
                    } => {
                        stack.push(Item::Tag(TaggedSymbol::Return(ret)));
                        stack.push(Item::Fact(body));
                        stack.push(Item::Tag(TaggedSymbol::Call(call)));
                        stack.push(Item::Fact(pre));
                    }
                    Back::ReachSum { reach, sum } => {
                        stack.push(Item::Fact(sum));
                        stack.push(Item::Fact(reach));
                    }
                    Back::ReachPendingReturn { reach, sym } => {
                        stack.push(Item::Tag(TaggedSymbol::Return(sym)));
                        stack.push(Item::Fact(reach));
                    }
                    Back::ReachPendingCall { reach, sym } => {
                        stack.push(Item::Tag(TaggedSymbol::Call(sym)));
                        stack.push(Item::Fact(reach));
                    }
                },
            }
        }
        out
    }
}

/// Returns `true` iff `a` accepts some nested word: the search of
/// [`shortest_accepted`], without materializing the witness.
pub(crate) fn accepts_some(a: &Nnwa) -> bool {
    Engine::search(a).1.is_some()
}

/// Returns a shortest accepted nested word of a nondeterministic NWA, or
/// `None` iff the language is empty. Pending calls and pending returns are
/// produced when they give a shorter witness.
pub fn shortest_accepted(a: &Nnwa) -> Option<NestedWord> {
    let (e, goal) = Engine::search(a);
    Some(NestedWord::from_tagged(&e.reconstruct(goal?)))
}

/// Returns a shortest accepted nested word of a deterministic NWA, or
/// `None` iff the language is empty: the dense transition tables are viewed
/// as relations (exactly as [`crate::decision::is_empty_det`] does) and fed
/// through the same shortest-derivation engine.
pub fn shortest_accepted_det(a: &crate::automaton::Nwa) -> Option<NestedWord> {
    shortest_accepted(&Nnwa::from_deterministic(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_words::tagged::parse_nested_word;
    use nested_words::Alphabet;

    #[test]
    fn empty_language_has_no_witness() {
        let n = Nnwa::new(2, 1);
        assert_eq!(shortest_accepted(&n), None);
        let mut n = Nnwa::new(2, 1);
        n.add_initial(0);
        n.add_accepting(1);
        // accepting state unreachable
        assert_eq!(shortest_accepted(&n), None);
    }

    #[test]
    fn accepting_initial_state_yields_empty_word() {
        let mut n = Nnwa::new(1, 1);
        n.add_initial(0);
        n.add_accepting(0);
        assert_eq!(shortest_accepted(&n), Some(NestedWord::empty()));
    }

    #[test]
    fn internal_witness_is_shortest() {
        let a = Symbol(0);
        let mut n = Nnwa::new(3, 1);
        n.add_initial(0);
        n.add_accepting(2);
        n.add_internal(0, a, 1);
        n.add_internal(1, a, 2);
        let w = shortest_accepted(&n).unwrap();
        assert_eq!(w.len(), 2);
        assert!(n.accepts(&w));
    }

    #[test]
    fn matched_pair_witness_goes_through_summary() {
        let b = Symbol(0);
        // Accepting state only reachable by a matched call/return whose
        // hierarchical state is 1 (not initial), so neither position can be
        // pending.
        let mut n = Nnwa::new(3, 1);
        n.add_initial(0);
        n.add_accepting(2);
        n.add_call(0, b, 1, 1);
        n.add_return(1, 1, b, 2);
        let w = shortest_accepted(&n).unwrap();
        assert!(n.accepts(&w));
        assert_eq!(
            w.to_tagged(),
            vec![TaggedSymbol::Call(b), TaggedSymbol::Return(b)]
        );
        assert!(w.is_well_matched());
    }

    #[test]
    fn pending_call_witness() {
        let a = Symbol(0);
        let mut n = Nnwa::new(2, 1);
        n.add_initial(0);
        n.add_accepting(1);
        n.add_call(0, a, 1, 0);
        let w = shortest_accepted(&n).unwrap();
        assert!(n.accepts(&w));
        assert_eq!(w.len(), 1);
        assert!(w.is_pending_call(0));
    }

    #[test]
    fn pending_return_witness() {
        let a = Symbol(0);
        let mut n = Nnwa::new(2, 1);
        n.add_initial(0);
        n.add_accepting(1);
        n.add_return(0, 0, a, 1);
        let w = shortest_accepted(&n).unwrap();
        assert!(n.accepts(&w));
        assert_eq!(w.len(), 1);
        assert!(w.is_pending_return(0));
    }

    #[test]
    fn no_pending_return_after_pending_call() {
        let a = Symbol(0);
        // The call pushes hierarchical state 2, which no return consumes, so
        // it can only be taken as a pending call; state 1 is then reachable
        // only in mode 1, where the pending return (hierarchical state
        // initial) is illegal because edges must not cross. Language empty.
        let mut n = Nnwa::new(3, 1);
        n.add_initial(0);
        n.add_accepting(2);
        n.add_call(0, a, 1, 2);
        n.add_return(1, 0, a, 2);
        assert_eq!(shortest_accepted(&n), None);
        assert!(crate::decision::is_empty(&n));
        // A return consuming the pushed state 2 lets the pair match: <a a>.
        n.add_return(1, 2, a, 2);
        let w = shortest_accepted(&n).unwrap();
        assert!(n.accepts(&w));
        assert_eq!(
            w.to_tagged(),
            vec![TaggedSymbol::Call(a), TaggedSymbol::Return(a)]
        );
    }

    #[test]
    fn witness_matches_known_language() {
        // Rooted words of even depth: the first return must happen at even
        // depth (linear state 0) consuming the odd-parity marker 1, and the
        // root return consumes the bottom marker 0 from the ascent state 2 —
        // so no pending edge can reach the accepting state and the shortest
        // member is <a <a a> a>.
        let a = Symbol(0);
        let mut n = Nnwa::new(4, 1);
        n.add_initial(0);
        n.add_accepting(3);
        n.add_call(0, a, 1, 0);
        n.add_call(1, a, 0, 1);
        n.add_return(0, 1, a, 2);
        n.add_return(2, 1, a, 2);
        n.add_return(2, 0, a, 3);
        let w = shortest_accepted(&n).unwrap();
        assert!(n.accepts(&w));
        assert!(w.is_well_matched());
        let mut ab = Alphabet::from_names(["a"]);
        let expect = parse_nested_word("<a <a a> a>", &mut ab).unwrap();
        assert_eq!(w.len(), expect.len());
        assert!(n.accepts(&expect));
    }

    #[test]
    fn deterministic_witness_agrees_with_emptiness() {
        use crate::automaton::Nwa;
        let a = Symbol(0);
        // "even number of positions" — non-empty, shortest witness ε.
        let mut m = Nwa::new(2, 1, 0);
        m.set_accepting(0, true);
        for q in 0..2usize {
            m.set_internal(q, a, 1 - q);
            m.set_call(q, a, 1 - q, 0);
            for h in 0..2 {
                m.set_return(q, h, a, 1 - q);
            }
        }
        assert_eq!(shortest_accepted_det(&m), Some(NestedWord::empty()));
        // "odd number of positions" — shortest witness has one position.
        let mut odd = m.clone();
        odd.set_accepting(0, false);
        odd.set_accepting(1, true);
        let w = shortest_accepted_det(&odd).unwrap();
        assert_eq!(w.len(), 1);
        assert!(odd.accepts(&w));
    }
}
