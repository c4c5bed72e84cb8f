//! Streaming (event-at-a-time) runs over tagged-symbol streams.
//!
//! The headline application of the paper (§1, §3.2) is SAX processing: a
//! document arrives as a stream of open-tags, text tokens and close-tags —
//! i.e. as a sequence of [`TaggedSymbol`] events — and a nested word
//! automaton decides membership in a single pass with memory proportional to
//! the nesting depth, never materializing the document. The batch
//! [`Acceptor`](crate::Acceptor) trait cannot express that: it takes the
//! whole input at once.
//!
//! [`StreamAcceptor`] is the incremental counterpart. A model starts a
//! [`StreamRun`], feeds it one event at a time, and may interrogate it at any
//! prefix: would stopping here accept, how many stack frames are live right
//! now, and what is the peak memory the run has ever needed. The free
//! functions [`query::run_stream`](crate::query::run_stream) and
//! [`query::contains_stream`](crate::query::contains_stream) drive a run
//! over any `IntoIterator` of events.
//!
//! [`BatchAcceptor`] is the multi-stream counterpart: N independent streams
//! over one shared (compiled) automaton, each stream's state held in an
//! owned, `Send`able *lane*, which is what the `nwa-service` decision
//! service is built on ([`query::run_batch`](crate::query::run_batch) is
//! the free-function spelling). A compiled engine keeps no other run
//! state: its [`StreamRun`] is the generic [`LaneRun`] over one lane.

use nested_words::TaggedSymbol;

/// One in-progress run of an automaton over a stream of tagged symbols.
///
/// A run is created by [`StreamAcceptor::start`], consumes events via
/// [`step`](StreamRun::step), and can be queried after any prefix. Runs
/// borrow their automaton, so they are cheap to create and carry only the
/// per-run state (for nested word automata: a stack whose height equals the
/// number of currently open calls).
pub trait StreamRun {
    /// Consumes one tagged-symbol event.
    fn step(&mut self, event: TaggedSymbol);

    /// Consumes a slice of events in one call.
    ///
    /// Observably identical to stepping each event in order; the default
    /// does exactly that. [`LaneRun`] forwards it to the compiled engine's
    /// [`BatchAcceptor::lane_step_slice`], which hoists the lane into
    /// registers for the whole slice — what the
    /// bytes-in → verdict-out pipeline
    /// (`nwa_xml::queries::run_streaming_reader`) feeds with buffered
    /// event runs from the bulk scanner.
    fn step_slice(&mut self, events: &[TaggedSymbol]) {
        for &event in events {
            self.step(event);
        }
    }

    /// Returns `true` if ending the stream now would accept the prefix read
    /// so far.
    fn is_accepting(&self) -> bool;

    /// The number of stack frames currently live (equals the number of
    /// currently open calls; `0` for stack-free models such as word
    /// automata).
    fn stack_height(&self) -> usize;

    /// The maximum [`stack_height`](StreamRun::stack_height) observed so far
    /// — the memory bound of §3.2: proportional to the depth of the input,
    /// not its length.
    fn peak_memory(&self) -> usize;

    /// Number of events consumed so far — every event read, whether or
    /// not the engine had to step it.
    fn steps(&self) -> usize;

    /// Whether a text word (an internal event) could still change this
    /// run. Once it returns `false` it never returns `true` again: every
    /// later internal event is inert, whatever its symbol, and only calls
    /// and returns still matter (for stack height and peak), so a scanner
    /// may stop resolving text words and only count them
    /// (`nwa_xml::queries::run_streaming_reader` narrows its scan to tags
    /// then). The default, `true`, never narrows; [`LaneRun`] forwards to
    /// [`BatchAcceptor::lane_reads_text`].
    fn reads_text(&self) -> bool {
        true
    }

    /// Whether a tag name could still change this run. Once it returns
    /// `false` it never returns `true` again: the verdict is fixed and only
    /// the stack height moves, so only each tag's form — call, return, or
    /// a self-closing pair — still matters, and a scanner may stop
    /// resolving names and hand over [`Forms`] instead
    /// ([`step_forms`](StreamRun::step_forms);
    /// `nwa_xml::queries::run_streaming_reader` narrows its scan to
    /// structure then). `false` implies `reads_text() == false`. The
    /// default, `true`, never narrows; [`LaneRun`] forwards to
    /// [`BatchAcceptor::lane_reads_names`].
    fn reads_names(&self) -> bool {
        true
    }

    /// Consumes a window of tag events known only by their [`Forms`]: the
    /// events are counted, the stack height follows their ±1 walk, and the
    /// peak its highest point. Only a run that no longer
    /// [`reads_names`](StreamRun::reads_names) may be handed forms; the
    /// default, for runs that always read names, panics. [`LaneRun`]
    /// forwards to [`BatchAcceptor::lane_step_forms`].
    fn step_forms(&mut self, forms: Forms) {
        let _ = forms;
        panic!("a run that reads names cannot step tag forms");
    }
}

/// An exact summary of a window of tag events that keeps only their forms
/// (call or return), never their names: what a run that no longer
/// [reads names](StreamRun::reads_names) needs of the window.
///
/// Stack height under calls and returns is a saturating ±1 walk — a
/// return on an empty stack is pending and leaves the height at zero. The
/// summary keeps the plain ±1 walk from 0 instead: where it ends (`net`),
/// its lowest and highest points (`low`, `rise`), and the highest the
/// saturating walk from 0 climbs (`top`). Saturation is the distance
/// above the lowest point so far, so a window maps a height `h` to
/// `max(h + net, net - low)` and a peak `p` to `max(p, h + rise, top)`
/// ([`apply`](Forms::apply)). The scanner builds the summary without
/// knowing the run's height, and two summaries compose
/// ([`then`](Forms::then)): the summary of a concatenation is the
/// composition of its parts'. A window counts its calls and returns as
/// `events`; a self-closing tag is a call then a return.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Forms {
    /// Tag events in the window.
    pub events: usize,
    /// Calls minus returns.
    pub net: isize,
    /// The lowest `net` of any prefix of the window, the empty one
    /// included: never above 0.
    pub low: isize,
    /// The highest `net` of any prefix of the window, the empty one
    /// included.
    pub rise: usize,
    /// The peak height of the window when it starts at height 0.
    pub top: usize,
}

impl Forms {
    /// Appends one tag event: a call if `call`, else a return. Branch-free.
    #[inline(always)]
    pub fn push(&mut self, call: bool) {
        self.events += 1;
        self.net += 2 * isize::from(call) - 1;
        self.low = self.low.min(self.net);
        self.rise = self.rise.max(self.net.max(0) as usize);
        self.top = self.top.max((self.net - self.low) as usize);
    }

    /// The summary of this window followed by `next`.
    #[inline(always)]
    pub fn then(self, next: Forms) -> Forms {
        Forms {
            events: self.events + next.events,
            net: self.net + next.net,
            low: self.low.min(self.net + next.low),
            rise: self
                .rise
                .max((self.net + next.rise as isize).max(0) as usize),
            top: self
                .top
                .max(next.top)
                .max((self.net - self.low) as usize + next.rise),
        }
    }

    /// Walks a run's stack `height` and its `peak` through the window.
    #[inline]
    pub fn apply(&self, height: &mut usize, peak: &mut usize) {
        let h = *height;
        *peak = (*peak).max(h + self.rise).max(self.top);
        *height = (h as isize + self.net).max(self.net - self.low) as usize;
    }
}

/// An automaton that can run incrementally over a stream of
/// [`TaggedSymbol`] events.
///
/// Implementors: `Nwa` runs its deterministic transition functions directly;
/// `Nnwa` and `JoinlessNwa` simulate the on-the-fly subset construction over
/// (summary-set, stack) configurations; `Dfa` reads the events as letters of
/// the tagged alphabet Σ̂ (the flat view of §3.3) with no stack at all.
pub trait StreamAcceptor {
    /// The run type; borrows the automaton for the duration of the run.
    type Run<'a>: StreamRun
    where
        Self: 'a;

    /// Starts a fresh run in the initial configuration with an empty stack.
    fn start(&self) -> Self::Run<'_>;

    /// The acceptor's **projection**: `inert_symbols()[a]` is `true` when an
    /// internal event of symbol `a` cannot change any run (`δi(q, a) = q`
    /// in every state), so a scanner may drop it before it is ever
    /// emitted. Calls and returns always reach the run. Symbols at or past
    /// the slice's length are not known to be inert; the default, an empty
    /// slice, drops nothing. Compiled engines return the inert set they
    /// already derive at compile time, and
    /// `nwa_xml::queries::run_streaming_reader` hands it to the scanner.
    fn inert_symbols(&self) -> &[bool] {
        &[]
    }
}

/// Batched execution: advancing many independent event streams over one
/// shared automaton.
///
/// The capability is factored as a *lane*: a self-contained, owned per-stream
/// state ([`BatchAcceptor::Lane`] — for nested word automata a `u32` linear
/// state plus a `u32` stack; nothing borrows the automaton), advanced one
/// event at a time by [`lane_step`](BatchAcceptor::lane_step). The automaton
/// itself stays shared and immutable (`&self` everywhere), so one compiled
/// artifact can drive any number of lanes from any number of threads.
///
/// The lane is the *only* run state of an implementor: its
/// [`StreamAcceptor::Run`] is [`LaneRun`], the lane paired with a borrow of
/// the artifact, so a single run and a batch lane step through the same
/// code.
///
/// Laws (property-tested in `tests/service.rs`):
///
/// 1. **slice ≡ step** — [`lane_step_slice`](BatchAcceptor::lane_step_slice)
///    over a slice observes exactly what [`lane_step`](BatchAcceptor::lane_step)
///    per event observes (acceptance, stack height, peak memory, step count);
/// 2. **batch ≡ sequential** — [`run_batch`](BatchAcceptor::run_batch)
///    returns, per lane, the [`StreamOutcome`] of running that lane's stream
///    alone.
pub trait BatchAcceptor: StreamAcceptor {
    /// Self-contained per-stream state: owns its stack, borrows nothing, so
    /// a batch is just N lanes next to each other and lanes can migrate
    /// across worker threads.
    type Lane: Send;

    /// A fresh lane in the initial configuration with an empty stack.
    fn lane_start(&self) -> Self::Lane;

    /// Advances one lane by one event. Implementations keep this small and
    /// branch-light — it is the body of the batched inner loop.
    fn lane_step(&self, lane: &mut Self::Lane, event: TaggedSymbol);

    /// Advances one lane through a slice of events — the bulk entry behind
    /// [`LaneRun`]'s [`StreamRun::step_slice`].
    ///
    /// Observably identical to [`lane_step`](BatchAcceptor::lane_step) per
    /// event; the default does exactly that. Compiled engines override it to
    /// hoist the lane into registers for the whole slice.
    fn lane_step_slice(&self, lane: &mut Self::Lane, events: &[TaggedSymbol]) {
        for &event in events {
            self.lane_step(lane, event);
        }
    }

    /// Would stopping this lane's stream now accept the prefix read so far.
    fn lane_accepting(&self, lane: &Self::Lane) -> bool;

    /// The number of stack frames the lane currently holds (the
    /// [`StreamRun::stack_height`] observable).
    fn lane_stack_height(&self, lane: &Self::Lane) -> usize;

    /// The lane's completed-run observables: acceptance, events consumed,
    /// peak stack height.
    fn lane_outcome(&self, lane: &Self::Lane) -> StreamOutcome;

    /// Whether a text word could still change the lane: the
    /// [`StreamRun::reads_text`] observable, one-way like it. The default,
    /// `true`, suits every model; compiled engines return `false` once the
    /// lane has settled where no internal event can move it.
    fn lane_reads_text(&self, lane: &Self::Lane) -> bool {
        let _ = lane;
        true
    }

    /// Whether a tag name could still change the lane: the
    /// [`StreamRun::reads_names`] observable, one-way like it. The default,
    /// `true`, suits every model; compiled engines return `false` once no
    /// live engine of the lane can be moved by any event.
    fn lane_reads_names(&self, lane: &Self::Lane) -> bool {
        let _ = lane;
        true
    }

    /// Advances a lane that no longer [reads names](BatchAcceptor::lane_reads_names)
    /// through a window of tag events known only by their [`Forms`]: the
    /// [`StreamRun::step_forms`] entry. The default, for lanes that always
    /// read names, panics.
    fn lane_step_forms(&self, lane: &mut Self::Lane, forms: Forms) {
        let _ = (lane, forms);
        panic!("a lane that reads names cannot step tag forms");
    }

    /// Runs one whole stream through a fresh lane — [`lane_start`],
    /// then [`lane_step_slice`], then [`lane_outcome`] — and reports its
    /// outcome: the bulk entry point of every compiled engine.
    ///
    /// [`lane_start`]: BatchAcceptor::lane_start
    /// [`lane_step_slice`]: BatchAcceptor::lane_step_slice
    /// [`lane_outcome`]: BatchAcceptor::lane_outcome
    fn run_tagged(&self, events: &[TaggedSymbol]) -> StreamOutcome {
        let mut lane = self.lane_start();
        self.lane_step_slice(&mut lane, events);
        self.lane_outcome(&lane)
    }

    /// Runs stream `i` through lane `i` for every `i` and returns one
    /// [`StreamOutcome`] per stream.
    ///
    /// The default runs the streams back to back, each through
    /// [`run_tagged`](BatchAcceptor::run_tagged). Interleaving lanes pays
    /// only where one step is a bare `state → table → state` load chain
    /// with nothing else to hide its latency behind, so only the flat
    /// tagged DFA overrides this (`CompiledTaggedDfa::run_batch` in
    /// `word-automata`). The fused NWA step also decodes the kind, spills
    /// the cached top and tracks the stack, which keep the core's ports
    /// busy through the load's latency: interleaved NWA lanes gain no
    /// overlap and spill registers instead, measured 15–30% slower than
    /// back to back.
    fn run_batch(&self, streams: &[&[TaggedSymbol]]) -> Vec<StreamOutcome> {
        streams.iter().map(|s| self.run_tagged(s)).collect()
    }
}

/// The [`StreamRun`] of every [`BatchAcceptor`]: one owned lane plus a
/// borrow of the artifact that steps it.
///
/// Every hook forwards to the artifact's `lane_*` methods, so a run started
/// with [`StreamAcceptor::start`] and a lane driven by a batch or a service
/// worker are the same state advanced by the same code.
/// [`lane`](LaneRun::lane) exposes the lane (to suspend it, say) and
/// [`from_lane`](LaneRun::from_lane) wraps a resumed one.
pub struct LaneRun<'a, A: BatchAcceptor> {
    pub(crate) artifact: &'a A,
    pub(crate) lane: A::Lane,
}

impl<'a, A: BatchAcceptor> LaneRun<'a, A> {
    /// A run in the initial configuration.
    pub fn new(artifact: &'a A) -> Self {
        LaneRun::from_lane(artifact, artifact.lane_start())
    }

    /// A run continuing from an existing lane (e.g. one resumed from a
    /// snapshot).
    pub fn from_lane(artifact: &'a A, lane: A::Lane) -> Self {
        LaneRun { artifact, lane }
    }

    /// The run's lane.
    pub fn lane(&self) -> &A::Lane {
        &self.lane
    }
}

impl<A: BatchAcceptor> std::fmt::Debug for LaneRun<'_, A>
where
    A::Lane: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneRun").field("lane", &self.lane).finish()
    }
}

impl<A: BatchAcceptor> StreamRun for LaneRun<'_, A> {
    fn step(&mut self, event: TaggedSymbol) {
        self.artifact.lane_step(&mut self.lane, event);
    }

    fn step_slice(&mut self, events: &[TaggedSymbol]) {
        self.artifact.lane_step_slice(&mut self.lane, events);
    }

    fn is_accepting(&self) -> bool {
        self.artifact.lane_accepting(&self.lane)
    }

    fn stack_height(&self) -> usize {
        self.artifact.lane_stack_height(&self.lane)
    }

    fn peak_memory(&self) -> usize {
        self.artifact.lane_outcome(&self.lane).peak_memory
    }

    fn steps(&self) -> usize {
        self.artifact.lane_outcome(&self.lane).events
    }

    fn reads_text(&self) -> bool {
        self.artifact.lane_reads_text(&self.lane)
    }

    fn reads_names(&self) -> bool {
        self.artifact.lane_reads_names(&self.lane)
    }

    fn step_forms(&mut self, forms: Forms) {
        self.artifact.lane_step_forms(&mut self.lane, forms);
    }
}

/// Summary of a completed streaming evaluation, as reported by
/// [`query::run_stream`](crate::query::run_stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Whether the automaton accepted the stream.
    pub accepted: bool,
    /// Number of events read, including those the engine had no need to
    /// step (compiled engines skip internals that cannot change their
    /// state) and those a projected scanner dropped before the engine saw
    /// them (`nwa_xml::queries::run_streaming_reader` adds the text words
    /// its scan dropped, as [`StreamAcceptor::inert_symbols`] or after the
    /// run stopped [reading text](StreamRun::reads_text), so the count
    /// does not depend on the projection).
    pub events: usize,
    /// Maximum stack height used: proportional to the nesting depth of the
    /// input, not to its length.
    pub peak_memory: usize,
}

#[cfg(test)]
mod tests {
    use super::Forms;

    /// Height and peak after walking `calls` (`true` a call, `false` a
    /// return) one event at a time from `height`, pending returns
    /// included.
    fn walk(calls: &[bool], mut height: usize, mut peak: usize) -> (usize, usize) {
        for &call in calls {
            height = if call {
                height + 1
            } else {
                height.saturating_sub(1)
            };
            peak = peak.max(height);
        }
        (height, peak)
    }

    fn forms_of(calls: &[bool]) -> Forms {
        let mut forms = Forms::default();
        calls.iter().for_each(|&call| forms.push(call));
        forms
    }

    /// Every call/return word up to length 10: applying its summary equals
    /// the event-by-event walk from every start, and the summary of every
    /// split's two halves composes to the whole word's.
    #[test]
    fn forms_summarize_the_saturating_walk_exactly() {
        for len in 0..=10 {
            for bits in 0..1u32 << len {
                let calls: Vec<bool> = (0..len).map(|i| bits >> i & 1 != 0).collect();
                let forms = forms_of(&calls);
                assert_eq!(forms.events, len);
                for height in 0..4 {
                    for peak in [height, height + 2, 20] {
                        let (mut h, mut p) = (height, peak);
                        forms.apply(&mut h, &mut p);
                        assert_eq!(
                            (h, p),
                            walk(&calls, height, peak),
                            "{calls:?} from {height}"
                        );
                    }
                }
                for cut in 0..=len {
                    let (head, tail) = calls.split_at(cut);
                    assert_eq!(
                        forms_of(head).then(forms_of(tail)),
                        forms,
                        "{calls:?} at {cut}"
                    );
                }
            }
        }
    }
}
