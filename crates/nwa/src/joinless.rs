//! Joinless nested word automata (§3.5 of the paper).
//!
//! A joinless automaton never joins the information flowing along the linear
//! and the hierarchical edge at a return: it operates in a *linear* mode
//! (like a word automaton, hierarchical edges carry only the dummy initial
//! state) and a *hierarchical* mode (like a top-down tree automaton, the
//! suffix after a return is processed from the state pushed at the call,
//! while the body must end in an accepting state). Top-down automata are the
//! special case with no linear states (Lemma 2); flat automata the special
//! case with no hierarchical states.
//!
//! [`joinless_from_nwa`] implements the construction behind Theorem 7
//! (nondeterministic joinless automata accept all regular languages of
//! nested words, with an `O(s²·|Σ|)` blow-up). As implemented it is exact on
//! nested words **without pending calls** (well-matched words and words with
//! pending returns); see the function documentation for the caveat on
//! pending calls.

use crate::nondet::Nnwa;
use crate::summary::{Summary, SummarySemantics, SummaryStreamingRun};
use nested_words::{NestedWord, PositionKind, Symbol};
use std::collections::{BTreeSet, HashMap};

/// A nondeterministic joinless nested word automaton.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinlessNwa {
    num_states: usize,
    sigma: usize,
    /// `true` for linear states (Ql), `false` for hierarchical states (Qh).
    linear: Vec<bool>,
    initial: BTreeSet<usize>,
    accepting: BTreeSet<usize>,
    /// Call transitions `(q, a, q_linear_successor, q_hierarchical)`.
    calls: Vec<(usize, Symbol, usize, usize)>,
    /// Internal transitions `(q, a, q')`.
    internals: Vec<(usize, Symbol, usize)>,
    /// Return transitions `(q, a, q')`: in linear mode `q` is the state
    /// before the return; in hierarchical mode `q` is the state on the
    /// hierarchical edge.
    returns: Vec<(usize, Symbol, usize)>,
}

impl JoinlessNwa {
    /// Creates a joinless NWA with `num_states` states (all initially
    /// linear) over an alphabet of `sigma` symbols.
    pub fn new(num_states: usize, sigma: usize) -> Self {
        JoinlessNwa {
            num_states,
            sigma,
            linear: vec![true; num_states],
            ..Default::default()
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Alphabet size.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Adds a fresh state; `linear` selects the mode partition.
    pub fn add_state(&mut self, linear: bool) -> usize {
        self.num_states += 1;
        self.linear.push(linear);
        self.num_states - 1
    }

    /// Declares whether `q` is a linear (`true`) or hierarchical (`false`)
    /// state.
    pub fn set_linear(&mut self, q: usize, linear: bool) {
        self.linear[q] = linear;
    }

    /// Returns `true` if `q` is a linear-mode state.
    pub fn is_linear(&self, q: usize) -> bool {
        self.linear[q]
    }

    /// Marks a state as initial.
    pub fn add_initial(&mut self, q: usize) {
        self.initial.insert(q);
    }

    /// Marks a state as accepting.
    pub fn add_accepting(&mut self, q: usize) {
        self.accepting.insert(q);
    }

    /// Returns `true` if `q` is accepting.
    pub fn is_accepting(&self, q: usize) -> bool {
        self.accepting.contains(&q)
    }

    /// Adds a call transition.
    pub fn add_call(&mut self, q: usize, a: Symbol, linear_succ: usize, hier: usize) {
        self.calls.push((q, a, linear_succ, hier));
    }

    /// Adds an internal transition.
    pub fn add_internal(&mut self, q: usize, a: Symbol, target: usize) {
        self.internals.push((q, a, target));
    }

    /// Adds a return transition.
    pub fn add_return(&mut self, q: usize, a: Symbol, target: usize) {
        self.returns.push((q, a, target));
    }

    /// Iterates over the initial states.
    pub fn initial_states(&self) -> impl Iterator<Item = usize> + '_ {
        self.initial.iter().copied()
    }

    /// The call transitions `(q, a, q_linear_successor, q_hierarchical)`.
    pub fn calls(&self) -> &[(usize, Symbol, usize, usize)] {
        &self.calls
    }

    /// The internal transitions `(q, a, q')`.
    pub fn internals(&self) -> &[(usize, Symbol, usize)] {
        &self.internals
    }

    /// The return transitions `(q, a, q')` (mode-split; see the field
    /// documentation).
    pub fn returns(&self) -> &[(usize, Symbol, usize)] {
        &self.returns
    }

    /// Returns `true` if all states are hierarchical — the automaton is a
    /// *top-down* automaton (Lemma 2).
    pub fn is_top_down(&self) -> bool {
        self.linear.iter().all(|&l| !l)
    }

    /// Returns `true` if all states are linear — the automaton is *flat*.
    pub fn is_flat(&self) -> bool {
        self.linear.iter().all(|&l| l)
    }

    /// Returns `true` if the automaton is deterministic: one initial state
    /// and at most one transition per (state, symbol) in each relation.
    pub fn is_deterministic(&self) -> bool {
        if self.initial.len() > 1 {
            return false;
        }
        let mut seen = BTreeSet::new();
        for &(q, a, _, _) in &self.calls {
            if !seen.insert((0u8, q, a)) {
                return false;
            }
        }
        for &(q, a, _) in &self.internals {
            if !seen.insert((1u8, q, a)) {
                return false;
            }
        }
        for &(q, a, _) in &self.returns {
            if !seen.insert((2u8, q, a)) {
                return false;
            }
        }
        true
    }

    /// The set of states reachable at the end of the word, starting each run
    /// from an initial state (nondeterministic evaluation).
    pub fn final_states(&self, word: &NestedWord) -> BTreeSet<usize> {
        let mut cache: HashMap<(usize, usize), BTreeSet<usize>> = HashMap::new();
        self.eval(word, 0, word.len(), &self.initial.clone(), &mut cache)
    }

    /// Returns `true` if the automaton accepts the nested word.
    pub fn accepts(&self, word: &NestedWord) -> bool {
        self.final_states(word)
            .iter()
            .any(|q| self.accepting.contains(q))
    }

    /// Evaluates the segment `[lo, hi)` from the given set of start states.
    fn eval(
        &self,
        word: &NestedWord,
        lo: usize,
        hi: usize,
        start: &BTreeSet<usize>,
        cache: &mut HashMap<(usize, usize), BTreeSet<usize>>,
    ) -> BTreeSet<usize> {
        let mut states = start.clone();
        let mut i = lo;
        while i < hi {
            let a = word.symbol(i);
            match word.kind(i) {
                PositionKind::Internal => {
                    let mut next = BTreeSet::new();
                    for &q in &states {
                        for &(p, sym, t) in &self.internals {
                            if p == q && sym == a {
                                next.insert(t);
                            }
                        }
                    }
                    states = next;
                    i += 1;
                }
                PositionKind::Call => {
                    match word.return_successor(i) {
                        Some(r) if r < hi => {
                            let ret_sym = word.symbol(r);
                            let mut next = BTreeSet::new();
                            for &q in &states {
                                for &(p, sym, ql, qh) in &self.calls {
                                    if p != q || sym != a {
                                        continue;
                                    }
                                    let body_end = self.eval_single(word, i + 1, r, ql, cache);
                                    for &e in &body_end {
                                        if self.linear[e] && self.initial.contains(&qh) {
                                            // linear-mode return: state follows the
                                            // linear edge; hierarchical edge must
                                            // carry an initial state
                                            for &(rq, rsym, t) in &self.returns {
                                                if rq == e && rsym == ret_sym {
                                                    next.insert(t);
                                                }
                                            }
                                        }
                                        if !self.linear[e] && self.accepting.contains(&e) {
                                            // hierarchical-mode return: state follows
                                            // the hierarchical edge; the body run
                                            // must end accepting
                                            for &(rq, rsym, t) in &self.returns {
                                                if rq == qh && rsym == ret_sym {
                                                    next.insert(t);
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                            states = next;
                            i = r + 1;
                        }
                        _ => {
                            // pending call (or a call whose return lies outside
                            // the segment, which cannot happen when evaluating
                            // whole words): only the linear successor continues
                            let mut next = BTreeSet::new();
                            for &q in &states {
                                for &(p, sym, ql, _qh) in &self.calls {
                                    if p == q && sym == a {
                                        next.insert(ql);
                                    }
                                }
                            }
                            states = next;
                            i += 1;
                        }
                    }
                }
                PositionKind::Return => {
                    // pending return: hierarchical edge carries an initial state
                    let mut next = BTreeSet::new();
                    for &q in &states {
                        if self.linear[q] {
                            for &(rq, rsym, t) in &self.returns {
                                if rq == q && rsym == a {
                                    next.insert(t);
                                }
                            }
                        } else if self.accepting.contains(&q) {
                            for &q0 in &self.initial {
                                for &(rq, rsym, t) in &self.returns {
                                    if rq == q0 && rsym == a {
                                        next.insert(t);
                                    }
                                }
                            }
                        }
                    }
                    states = next;
                    i += 1;
                }
            }
            if states.is_empty() {
                return states;
            }
        }
        states
    }

    fn eval_single(
        &self,
        word: &NestedWord,
        lo: usize,
        hi: usize,
        start: usize,
        cache: &mut HashMap<(usize, usize), BTreeSet<usize>>,
    ) -> BTreeSet<usize> {
        if let Some(hit) = cache.get(&(lo, start)) {
            return hit.clone();
        }
        let mut s = BTreeSet::new();
        s.insert(start);
        let out = self.eval(word, lo, hi, &s, cache);
        cache.insert((lo, start), out.clone());
        out
    }

    /// Starts a streaming run: an on-the-fly subset construction over
    /// (summary-set, stack) configurations, consumable one tagged-symbol
    /// event at a time. Agrees with [`JoinlessNwa::accepts`] on every nested
    /// word (the recursive evaluator is the reference semantics).
    pub fn start_run(&self) -> JoinlessStreamingRun<'_> {
        JoinlessStreamingRun::new(self)
    }

    /// Expands the mode-split return relation into an ordinary
    /// nondeterministic NWA accepting the same language.
    ///
    /// A joinless automaton *is* an NWA whose return relation factors
    /// through the generalized joinless return relation (the
    /// `return_targets` step of the streaming engine): a linear body-end
    /// state `q`
    /// follows its own return transitions provided the hierarchical edge
    /// carries an initial state, and a hierarchical body-end state that ends
    /// accepting follows the return transitions of the state pushed at the
    /// call. Materializing exactly those `(linear, hierarchical, symbol,
    /// target)` tuples — `(q, q₀, a, t)` for linear `q` and initial `q₀`,
    /// and `(f, h, a, t)` for hierarchical accepting `f` and any pushed `h`
    /// with `(h, a, t)` in the relation — yields an [`Nnwa`] with identical
    /// runs, which gives the joinless model the summary-based decision and
    /// witness procedures ([`crate::decision`], [`crate::witness`]) without
    /// a dedicated engine.
    pub fn to_nnwa(&self) -> Nnwa {
        let mut out = Nnwa::new(self.num_states, self.sigma);
        for &q in &self.initial {
            out.add_initial(q);
        }
        for &q in &self.accepting {
            out.add_accepting(q);
        }
        for &(q, a, l, h) in &self.calls {
            out.add_call(q, a, l, h);
        }
        for &(q, a, t) in &self.internals {
            out.add_internal(q, a, t);
        }
        let hier_accepting: Vec<usize> = (0..self.num_states)
            .filter(|&q| !self.linear[q] && self.accepting.contains(&q))
            .collect();
        for &(src, a, t) in &self.returns {
            if self.linear[src] {
                for &q0 in &self.initial {
                    out.add_return(src, q0, a, t);
                }
            }
            for &f in &hier_accepting {
                out.add_return(f, src, a, t);
            }
        }
        out
    }

    // --- streaming summary steps -------------------------------------------
    //
    // A joinless automaton is a nondeterministic NWA whose return relation
    // splits by mode: a linear-mode state follows the linear edge provided
    // the hierarchical edge carries an initial state, and a
    // hierarchical-mode state follows the hierarchical edge provided the
    // body run ended accepting. Substituting that relation into the
    // summary-set simulation of §3.2 gives a one-pass membership test with
    // memory proportional to the nesting depth.

    fn stream_internal(&self, s: &BTreeSet<(usize, usize)>, a: Symbol) -> BTreeSet<(usize, usize)> {
        let mut out = BTreeSet::new();
        for &(anchor, cur) in s {
            for &(q, sym, t) in &self.internals {
                if q == cur && sym == a {
                    out.insert((anchor, t));
                }
            }
        }
        out
    }

    fn stream_call_linear(
        &self,
        s: &BTreeSet<(usize, usize)>,
        a: Symbol,
    ) -> BTreeSet<(usize, usize)> {
        let mut out = BTreeSet::new();
        for &(_, cur) in s {
            for &(q, sym, ql, _qh) in &self.calls {
                if q == cur && sym == a {
                    out.insert((ql, ql));
                }
            }
        }
        out
    }

    /// Return targets from body-end state `cur` when the matching call
    /// pushed `qh`: the generalized joinless return relation.
    fn return_targets(&self, cur: usize, qh: usize, a: Symbol, out: &mut BTreeSet<usize>) {
        if self.linear[cur] && self.initial.contains(&qh) {
            for &(rq, rsym, t) in &self.returns {
                if rq == cur && rsym == a {
                    out.insert(t);
                }
            }
        }
        if !self.linear[cur] && self.accepting.contains(&cur) {
            for &(rq, rsym, t) in &self.returns {
                if rq == qh && rsym == a {
                    out.insert(t);
                }
            }
        }
    }

    fn stream_matched_return(
        &self,
        outer: &BTreeSet<(usize, usize)>,
        call_symbol: Symbol,
        inner: &BTreeSet<(usize, usize)>,
        a: Symbol,
    ) -> BTreeSet<(usize, usize)> {
        let mut out = BTreeSet::new();
        for &(anchor, before_call) in outer {
            for &(q, sym, ql, qh) in &self.calls {
                if q != before_call || sym != call_symbol {
                    continue;
                }
                let mut targets = BTreeSet::new();
                for &(start, cur) in inner {
                    if start == ql {
                        self.return_targets(cur, qh, a, &mut targets);
                    }
                }
                out.extend(targets.iter().map(|&t| (anchor, t)));
            }
        }
        out
    }

    fn stream_pending_return(
        &self,
        s: &BTreeSet<(usize, usize)>,
        a: Symbol,
    ) -> BTreeSet<(usize, usize)> {
        let mut out = BTreeSet::new();
        for &(anchor, cur) in s {
            let mut targets = BTreeSet::new();
            for &q0 in &self.initial {
                self.return_targets(cur, q0, a, &mut targets);
            }
            out.extend(targets.iter().map(|&t| (anchor, t)));
        }
        out
    }
}

/// A streaming run of a joinless NWA over tagged-symbol events: the
/// summary-set subset construction of §3.2 instantiated with the joinless
/// return relation, shared with [`Nnwa`] through [`SummaryStreamingRun`].
pub type JoinlessStreamingRun<'a> = SummaryStreamingRun<'a, JoinlessNwa>;

impl SummarySemantics for JoinlessNwa {
    fn sigma(&self) -> usize {
        self.sigma
    }

    fn initial_summary(&self) -> Summary {
        self.initial.iter().map(|&q| (q, q)).collect()
    }

    fn summary_internal(&self, s: &Summary, a: Symbol) -> Summary {
        self.stream_internal(s, a)
    }

    fn summary_call(&self, s: &Summary, a: Symbol) -> Summary {
        self.stream_call_linear(s, a)
    }

    fn summary_matched_return(
        &self,
        outer: &Summary,
        call_symbol: Symbol,
        inner: &Summary,
        a: Symbol,
    ) -> Summary {
        self.stream_matched_return(outer, call_symbol, inner, a)
    }

    fn summary_pending_return(&self, s: &Summary, a: Symbol) -> Summary {
        self.stream_pending_return(s, a)
    }

    fn summary_accepting(&self, s: &Summary) -> bool {
        s.iter().any(|&(_, q)| self.accepting.contains(&q))
    }
}

/// Theorem 7: converts a nondeterministic NWA into a nondeterministic
/// joinless NWA with `O(s²·|Σ|)` states.
///
/// States of the result:
/// * linear states `lin(q)` tracking the original state directly,
/// * hierarchical states `hier(q, q')` ("currently in `q`, obliged to reach
///   `q'` at the end of the enclosing matched segment"),
/// * auxiliary hierarchical states `aux(q, q', b)` labelling hierarchical
///   edges ("after the matching `b`-labelled return, continue in `hier(q,
///   q')`"),
/// * resume states `res(q, b)` labelling hierarchical edges of matched calls
///   taken from linear mode ("after the matching `b`-labelled return, resume
///   linear mode in `q`"),
/// * a junk state pushed at calls guessed to be pending.
///
/// The construction is exact on nested words without pending calls
/// (well-matched words and words with pending returns). For words with
/// pending calls it may over-approximate — a run can enter a matched-call
/// gadget whose return never arrives and still end in an accepting
/// obligation state; the paper's proof sketch has the same gap and the
/// general case needs an additional mode, which we document rather than
/// implement.
pub fn joinless_from_nwa(a: &Nnwa) -> JoinlessNwa {
    let s = a.num_states();
    let sigma = a.sigma();
    // state layout
    let lin = |q: usize| q;
    let res = |q: usize, b: usize| s + q * sigma + b;
    let junk = s + s * sigma;
    let hier = |q: usize, t: usize| junk + 1 + q * s + t;
    let aux = |q: usize, t: usize, b: usize| junk + 1 + s * s + (q * s + t) * sigma + b;
    let total = junk + 1 + s * s + s * s * sigma;

    let mut out = JoinlessNwa::new(total, sigma);
    for q in 0..s {
        out.set_linear(lin(q), true);
        for b in 0..sigma {
            out.set_linear(res(q, b), true);
        }
        for t in 0..s {
            out.set_linear(hier(q, t), false);
            for b in 0..sigma {
                out.set_linear(aux(q, t, b), false);
            }
        }
    }
    out.set_linear(junk, true);

    for q in a.initial_states() {
        out.add_initial(lin(q));
    }
    for q in 0..s {
        if a.is_accepting(q) {
            out.add_accepting(lin(q));
        }
        out.add_accepting(hier(q, q));
    }

    // internal transitions
    for &(q, sym, t) in a.internals() {
        out.add_internal(lin(q), sym, lin(t));
        for obligation in 0..s {
            out.add_internal(hier(q, obligation), sym, hier(t, obligation));
        }
    }

    // pending returns in linear mode use the original return transitions
    // whose hierarchical state is initial
    for &(q, h, sym, t) in a.returns() {
        if a.initial_states().any(|i| i == h) {
            out.add_return(lin(q), sym, lin(t));
        }
    }

    // resume and auxiliary return transitions
    for q in 0..s {
        for b in 0..sigma {
            out.add_return(res(q, b), Symbol(b as u16), lin(q));
            for t in 0..s {
                out.add_return(aux(q, t, b), Symbol(b as u16), hier(q, t));
            }
        }
    }

    // calls
    for &(q, sym, ql, qh) in a.calls() {
        // guess "pending": stay linear, push junk (which blocks any return)
        out.add_call(lin(q), sym, lin(ql), junk);
        // guess "matched": pick the return transition that will close this
        // call and process the body hierarchically
        for &(r1, rh, rsym, r2) in a.returns() {
            if rh != qh {
                continue;
            }
            // from linear mode, resume linear mode after the return
            out.add_call(lin(q), sym, hier(ql, r1), res(r2, rsym.index()));
            // from hierarchical mode, keep the outer obligation
            for obligation in 0..s {
                out.add_call(
                    hier(q, obligation),
                    sym,
                    hier(ql, r1),
                    aux(r2, obligation, rsym.index()),
                );
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_words::generate::{random_nested_word, NestedWordConfig};
    use nested_words::tagged::parse_nested_word;
    use nested_words::Alphabet;

    fn parse(ab: &mut Alphabet, s: &str) -> NestedWord {
        parse_nested_word(s, ab).unwrap()
    }

    /// Hand-written joinless automaton (hierarchical mode) accepting tree
    /// words over {a,b} whose root is labelled a: a top-down style check.
    fn root_is_a() -> JoinlessNwa {
        let a = Symbol(0);
        let b = Symbol(1);
        // hierarchical states: 0 = at root (must see a-call), 1 = inside (anything)
        // accepting: 1 ("obligation met" for every body), and the run after the
        // root return continues in state 2 (linear, accepting at end of word).
        let mut j = JoinlessNwa::new(3, 2);
        j.set_linear(0, false);
        j.set_linear(1, false);
        j.set_linear(2, true);
        j.add_initial(0);
        j.add_accepting(1);
        j.add_accepting(2);
        // at the root call (label a): body processed in state 1, after the
        // return continue in state 2
        j.add_call(0, a, 1, 2);
        // inside: calls fork to (1, 1) — both body and continuation inside
        for sym in [a, b] {
            j.add_call(1, sym, 1, 1);
            j.add_return(1, sym, 1);
        }
        // the continuation state 2 is reached via the return transition from
        // the pushed state 2
        for sym in [a, b] {
            j.add_return(2, sym, 2);
        }
        j
    }

    #[test]
    fn hand_written_joinless_membership() {
        let mut ab = Alphabet::ab();
        let j = root_is_a();
        assert!(!j.is_top_down());
        assert!(!j.is_flat());
        assert!(j.accepts(&parse(&mut ab, "<a a>")));
        assert!(j.accepts(&parse(&mut ab, "<a <b b> <a a> a>")));
        assert!(!j.accepts(&parse(&mut ab, "<b <a a> b>")));
        assert!(!j.accepts(&parse(&mut ab, "<a a> <a a>"))); // not rooted: second call unreachable from state 2? actually state 2 has no call transitions
    }

    /// The nondeterministic NWA with a genuine join: matched call/return
    /// pairs both labelled b somewhere in the word.
    fn some_b_block() -> Nnwa {
        let a = Symbol(0);
        let b = Symbol(1);
        let mut n = Nnwa::new(3, 2);
        n.add_initial(0);
        n.add_accepting(2);
        for sym in [a, b] {
            n.add_internal(0, sym, 0);
            n.add_internal(2, sym, 2);
            n.add_call(0, sym, 0, 0);
            n.add_call(2, sym, 2, 0);
            for h in [0usize, 1] {
                n.add_return(0, h, sym, 0);
                n.add_return(2, h, sym, 2);
            }
        }
        n.add_call(0, b, 0, 1);
        n.add_return(0, 1, b, 2);
        n
    }

    #[test]
    fn theorem7_state_count_is_quadratic_times_sigma() {
        let n = some_b_block();
        let j = joinless_from_nwa(&n);
        let s = n.num_states();
        let sigma = n.sigma();
        assert_eq!(j.num_states(), s + s * sigma + 1 + s * s + s * s * sigma);
    }

    #[test]
    fn theorem7_preserves_language_on_samples_without_pending_calls() {
        let mut ab = Alphabet::ab();
        let n = some_b_block();
        let j = joinless_from_nwa(&n);
        for s in [
            "",
            "a b",
            "<b b>",
            "<b a>",
            "<a b a>",
            "<a <b b> a>",
            "<b <a a> b>",
            "a <a a> <b b> a",
            "b> <b b>",
            "a> a>",
            "<a <a <b b> a> a>",
        ] {
            let w = parse(&mut ab, s);
            assert_eq!(n.accepts(&w), j.accepts(&w), "word `{s}`");
        }
    }

    #[test]
    fn theorem7_preserves_language_on_random_well_matched_words() {
        let n = some_b_block();
        let j = joinless_from_nwa(&n);
        let ab = Alphabet::ab();
        let cfg = NestedWordConfig {
            len: 30,
            allow_pending: false,
            ..Default::default()
        };
        for seed in 0..40 {
            let w = random_nested_word(&ab, cfg, seed);
            assert_eq!(n.accepts(&w), j.accepts(&w), "seed {seed}");
        }
    }

    #[test]
    fn to_nnwa_preserves_language() {
        let mut ab = Alphabet::ab();
        // Both a genuinely hierarchical automaton and a Theorem 7 conversion.
        for (name, j) in [
            ("root_is_a", root_is_a()),
            ("theorem7", joinless_from_nwa(&some_b_block())),
        ] {
            let n = j.to_nnwa();
            for s in [
                "",
                "a b",
                "<a a>",
                "<b b>",
                "<a <b b> a>",
                "<b <a a> b>",
                "<a <b b> <a a> a>",
                "<a a> <a a>",
                "a> <b b>",
                "<a <a <b b> a> a>",
            ] {
                let w = parse(&mut ab, s);
                assert_eq!(j.accepts(&w), n.accepts(&w), "{name}: word `{s}`");
            }
            // The conversion must agree with the joinless reference
            // semantics on *all* words, pending edges included (unlike the
            // Theorem 7 construction itself, which is only exact without
            // pending calls — the comparison here is j against its own
            // expansion, not against the original NWA).
            let cfg = NestedWordConfig {
                len: 25,
                allow_pending: true,
                ..Default::default()
            };
            let ab2 = Alphabet::ab();
            for seed in 0..30 {
                let w = random_nested_word(&ab2, cfg, seed);
                assert_eq!(j.accepts(&w), n.accepts(&w), "{name}: seed {seed}");
            }
        }
    }

    #[test]
    fn deterministic_check() {
        let j = root_is_a();
        // one transition per (state, symbol) and a single initial state
        assert!(j.is_deterministic());
        let mut det = JoinlessNwa::new(2, 1);
        det.add_initial(0);
        det.add_call(0, Symbol(0), 1, 0);
        det.add_return(1, Symbol(0), 0);
        assert!(det.is_deterministic());
        det.add_call(0, Symbol(0), 0, 0);
        assert!(!det.is_deterministic());
    }
}
