//! Deterministic nested word automata (§3.1 of the paper).

use nested_words::{NestedWord, PositionKind, Symbol, TaggedSymbol};

/// A deterministic nested word automaton (NWA).
///
/// States are dense indices `0..num_states`; symbols are dense indices
/// `0..sigma` (matching [`nested_words::Symbol`]). All transition functions
/// are total; automata built by the library route undesired inputs to an
/// explicit rejecting sink state they add themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nwa {
    num_states: usize,
    sigma: usize,
    initial: usize,
    accepting: Vec<bool>,
    /// Linear component of the call transition: `[q * sigma + a]`.
    call_linear: Vec<usize>,
    /// Hierarchical component of the call transition: `[q * sigma + a]`.
    call_hier: Vec<usize>,
    /// Internal transition: `[q * sigma + a]`.
    internal: Vec<usize>,
    /// Return transition: `[(q_linear * num_states + q_hier) * sigma + a]`.
    ret: Vec<usize>,
}

impl Nwa {
    /// Creates an NWA with `num_states` states over an alphabet of `sigma`
    /// symbols. All transitions initially point at state 0.
    pub fn new(num_states: usize, sigma: usize, initial: usize) -> Self {
        assert!(num_states > 0, "an NWA needs at least one state");
        assert!(initial < num_states, "initial state out of range");
        Nwa {
            num_states,
            sigma,
            initial,
            accepting: vec![false; num_states],
            call_linear: vec![0; num_states * sigma],
            call_hier: vec![0; num_states * sigma],
            internal: vec![0; num_states * sigma],
            ret: vec![0; num_states * num_states * sigma],
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

    /// The initial state.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// Returns `true` if `q` is accepting.
    pub fn is_accepting(&self, q: usize) -> bool {
        self.accepting[q]
    }

    /// Marks `q` as accepting or rejecting.
    pub fn set_accepting(&mut self, q: usize, accepting: bool) {
        self.accepting[q] = accepting;
    }

    /// Sets the call transition `δc(q, a) = (linear, hier)`.
    pub fn set_call(&mut self, q: usize, a: Symbol, linear: usize, hier: usize) {
        let idx = q * self.sigma + a.index();
        self.call_linear[idx] = linear;
        self.call_hier[idx] = hier;
    }

    /// Sets the internal transition `δi(q, a) = target`.
    pub fn set_internal(&mut self, q: usize, a: Symbol, target: usize) {
        self.internal[q * self.sigma + a.index()] = target;
    }

    /// Sets the return transition `δr(q_linear, q_hier, a) = target`.
    pub fn set_return(&mut self, q_linear: usize, q_hier: usize, a: Symbol, target: usize) {
        self.ret[(q_linear * self.num_states + q_hier) * self.sigma + a.index()] = target;
    }

    /// The linear component `δc^l(q, a)`.
    pub fn call_linear(&self, q: usize, a: Symbol) -> usize {
        self.call_linear[q * self.sigma + a.index()]
    }

    /// The hierarchical component `δc^h(q, a)`.
    pub fn call_hier(&self, q: usize, a: Symbol) -> usize {
        self.call_hier[q * self.sigma + a.index()]
    }

    /// The internal transition `δi(q, a)`.
    pub fn internal(&self, q: usize, a: Symbol) -> usize {
        self.internal[q * self.sigma + a.index()]
    }

    /// The return transition `δr(q_linear, q_hier, a)`.
    pub fn ret(&self, q_linear: usize, q_hier: usize, a: Symbol) -> usize {
        self.ret[(q_linear * self.num_states + q_hier) * self.sigma + a.index()]
    }

    /// Convenience: sets every transition out of `q` (on every symbol, and
    /// every return pairing) to `target`. Used to wire up sink states.
    pub fn set_all_transitions_to(&mut self, q: usize, target: usize) {
        for a in 0..self.sigma {
            let a = Symbol(a as u16);
            self.set_call(q, a, target, target);
            self.set_internal(q, a, target);
            for h in 0..self.num_states {
                self.set_return(q, h, a, target);
            }
        }
    }

    /// Runs the automaton over a nested word and returns the final linear
    /// state. This is the unique run of §3.1; time is linear in the length
    /// and space proportional to the depth of the word.
    pub fn run(&self, word: &NestedWord) -> usize {
        let mut run = StreamingRun::new(self);
        for i in 0..word.len() {
            let tag = TaggedSymbol::new(word.kind(i), word.symbol(i));
            run.step(tag);
        }
        run.current_state()
    }

    /// Returns `true` if the automaton accepts the nested word.
    pub fn accepts(&self, word: &NestedWord) -> bool {
        self.accepting[self.run(word)]
    }

    /// Returns `true` if the automaton is *weak* (§3.2): the hierarchical
    /// component of every call transition propagates the current state.
    pub fn is_weak(&self) -> bool {
        (0..self.num_states)
            .all(|q| (0..self.sigma).all(|a| self.call_hier(q, Symbol(a as u16)) == q))
    }

    /// Returns `true` if the automaton is *flat* (§3.3): the hierarchical
    /// component of every call transition is the initial state, so no
    /// information flows across hierarchical edges.
    pub fn is_flat(&self) -> bool {
        (0..self.num_states)
            .all(|q| (0..self.sigma).all(|a| self.call_hier(q, Symbol(a as u16)) == self.initial))
    }

    /// Returns `true` if the automaton is *bottom-up* (§3.4): the linear
    /// component of the call transition does not depend on the current state.
    pub fn is_bottom_up(&self) -> bool {
        (0..self.sigma).all(|a| {
            let a = Symbol(a as u16);
            let first = self.call_linear(0, a);
            (1..self.num_states).all(|q| self.call_linear(q, a) == first)
        })
    }
}

/// A streaming run of a deterministic NWA over a stream of tagged symbols
/// (e.g. SAX events). The run keeps a stack of hierarchical states whose
/// height equals the current nesting depth — the space bound claimed in
/// §3.2 for membership.
#[derive(Debug, Clone)]
pub struct StreamingRun<'a> {
    nwa: &'a Nwa,
    state: usize,
    stack: Vec<usize>,
    max_stack: usize,
    steps: usize,
}

impl<'a> StreamingRun<'a> {
    /// Starts a new run in the initial state with an empty stack.
    pub fn new(nwa: &'a Nwa) -> Self {
        StreamingRun {
            nwa,
            state: nwa.initial(),
            stack: Vec::new(),
            max_stack: 0,
            steps: 0,
        }
    }

    /// Consumes one tagged symbol. A symbol outside the alphabet panics:
    /// its column would fall in a neighbouring row of the flat transition
    /// arrays.
    pub fn step(&mut self, tag: TaggedSymbol) {
        let a = tag.symbol().index();
        if a >= self.nwa.sigma() {
            automata_core::compile::outside_alphabet(a, self.nwa.sigma());
        }
        self.steps += 1;
        match tag.kind() {
            PositionKind::Call => {
                let a = tag.symbol();
                let hier = self.nwa.call_hier(self.state, a);
                let linear = self.nwa.call_linear(self.state, a);
                self.stack.push(hier);
                self.max_stack = self.max_stack.max(self.stack.len());
                self.state = linear;
            }
            PositionKind::Internal => {
                self.state = self.nwa.internal(self.state, tag.symbol());
            }
            PositionKind::Return => {
                // A matched return pops the state its call pushed; a pending
                // return finds the stack empty and uses the initial state, as
                // required by §3.1 for hierarchical edges from −∞.
                let hier = self.stack.pop().unwrap_or(self.nwa.initial());
                self.state = self.nwa.ret(self.state, hier, tag.symbol());
            }
        }
    }

    /// The current linear state.
    pub fn current_state(&self) -> usize {
        self.state
    }

    /// Returns `true` if stopping now would accept the stream read so far.
    pub fn is_accepting(&self) -> bool {
        self.nwa.is_accepting(self.state)
    }

    /// Current stack height (equals the number of currently open calls).
    pub fn stack_height(&self) -> usize {
        self.stack.len()
    }

    /// Maximum stack height observed so far (equals the depth of the prefix
    /// read, plus open pending calls).
    pub fn max_stack_height(&self) -> usize {
        self.max_stack
    }

    /// Number of symbols consumed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

impl automata_core::StreamRun for StreamingRun<'_> {
    fn step(&mut self, event: TaggedSymbol) {
        StreamingRun::step(self, event);
    }

    fn is_accepting(&self) -> bool {
        StreamingRun::is_accepting(self)
    }

    fn stack_height(&self) -> usize {
        StreamingRun::stack_height(self)
    }

    fn peak_memory(&self) -> usize {
        StreamingRun::max_stack_height(self)
    }

    fn steps(&self) -> usize {
        StreamingRun::steps(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_words::tagged::parse_nested_word;
    use nested_words::Alphabet;

    /// Deterministic NWA over {a,b} accepting well-matched words in which
    /// every matched call/return pair carries the same symbol (uses the
    /// hierarchical edge to remember the call symbol).
    ///
    /// States: 0 = start/ok, 1 = "call was a", 2 = "call was b", 3 = dead.
    /// Accepting: 0. The hierarchical edge carries 1 or 2; a pending return
    /// sees the initial state 0 and dies.
    fn matching_labels_nwa() -> Nwa {
        let a = Symbol(0);
        let b = Symbol(1);
        let mut m = Nwa::new(4, 2, 0);
        m.set_accepting(0, true);
        // sink
        m.set_all_transitions_to(3, 3);
        // internals keep the state
        m.set_internal(0, a, 0);
        m.set_internal(0, b, 0);
        // calls: linear stays 0, hierarchical remembers the symbol
        m.set_call(0, a, 0, 1);
        m.set_call(0, b, 0, 2);
        // states 1 and 2 are only used on hierarchical edges; if they ever
        // appear linearly treat them as dead
        for q in [1usize, 2] {
            m.set_all_transitions_to(q, 3);
        }
        // returns: match the remembered symbol
        for h in 0..4usize {
            for (sym, want) in [(a, 1usize), (b, 2usize)] {
                let target = if h == want { 0 } else { 3 };
                m.set_return(0, h, sym, target);
            }
        }
        m
    }

    fn parse(ab: &mut Alphabet, s: &str) -> NestedWord {
        parse_nested_word(s, ab).unwrap()
    }

    #[test]
    fn matching_labels_accepted() {
        let mut ab = Alphabet::ab();
        let m = matching_labels_nwa();
        assert!(m.accepts(&parse(&mut ab, "<a a> <b a b b>")));
        assert!(m.accepts(&parse(&mut ab, "<a <b b> a>")));
        assert!(m.accepts(&parse(&mut ab, "a b a")));
        assert!(!m.accepts(&parse(&mut ab, "<a b>")));
        assert!(!m.accepts(&parse(&mut ab, "<a <b a> b>")));
    }

    #[test]
    fn pending_return_uses_initial_state() {
        let mut ab = Alphabet::ab();
        let m = matching_labels_nwa();
        // pending return: hierarchical edge labelled with initial state 0,
        // which matches neither 1 nor 2, so the word is rejected.
        assert!(!m.accepts(&parse(&mut ab, "a>")));
        assert!(!m.accepts(&parse(&mut ab, "<a a> b>")));
    }

    #[test]
    fn pending_call_state_goes_nowhere() {
        let mut ab = Alphabet::ab();
        let m = matching_labels_nwa();
        // a pending call pushes a hierarchical state that is never consumed;
        // the linear run continues and accepts (state 0 is accepting).
        assert!(m.accepts(&parse(&mut ab, "<a")));
    }

    #[test]
    fn streaming_run_stack_tracks_depth() {
        let mut ab = Alphabet::ab();
        let m = matching_labels_nwa();
        let w = parse(&mut ab, "<a <b <a a> b> a> <b b>");
        let mut run = StreamingRun::new(&m);
        for i in 0..w.len() {
            run.step(TaggedSymbol::new(w.kind(i), w.symbol(i)));
        }
        assert!(run.is_accepting());
        assert_eq!(run.max_stack_height(), 3);
        assert_eq!(run.stack_height(), 0);
        assert_eq!(run.steps(), w.len());
    }

    #[test]
    fn classifier_predicates() {
        let m = matching_labels_nwa();
        assert!(!m.is_flat());
        assert!(!m.is_weak());
        // A freshly constructed automaton routes everything to 0 = initial,
        // so it is flat and bottom-up (trivially).
        let trivial = Nwa::new(2, 2, 0);
        assert!(trivial.is_flat());
        assert!(trivial.is_bottom_up());
        assert!(!trivial.is_weak());
    }

    #[test]
    fn run_on_empty_word_is_initial_state() {
        let m = matching_labels_nwa();
        assert_eq!(m.run(&NestedWord::empty()), 0);
        assert!(m.accepts(&NestedWord::empty()));
    }
}
