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
//! advanced in software-pipelined lockstep over one shared (compiled)
//! automaton, each stream's state held in an owned, `Send`able *lane*. One
//! stream's per-event cost is bounded by the `state → table → state`
//! load-to-use chain; interleaving independent lanes hides each lane's
//! dependency stall behind the others' table lookups, which is what the
//! `nwa-service` decision service is built on
//! ([`query::run_batch`](crate::query::run_batch) is the free-function
//! spelling). A compiled engine keeps no other run state: its
//! [`StreamRun`] is the generic [`LaneRun`] over one lane.

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
}

/// Batched execution: advancing many independent event streams in lockstep
/// over one shared automaton.
///
/// A [`StreamRun`] is the right shape for one stream, but its per-event cost
/// is dominated by the load-to-use dependency chain `state → table → state`:
/// the next table lookup cannot issue before the previous one retires, so a
/// single run leaves most of the core's memory-level parallelism idle. A
/// *batch* breaks the bottleneck by construction: N streams advance in
/// round-robin lockstep over the same shared tables, and because the lanes'
/// chains are mutually independent, lane B's table load executes in the
/// shadow of lane A's — the software-pipelining observation behind the
/// multi-stream service layer (`nwa-service`).
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

    /// Advances stream `i` through lane `i` for every `i`, interleaved in
    /// lockstep: the common prefix of all streams runs round-robin (one
    /// event per lane per round, so the lanes' table loads overlap), then
    /// each lane drains its remaining tail. Returns one [`StreamOutcome`]
    /// per stream.
    ///
    /// The default implementation performs the lockstep interleaving
    /// generically; with [`lane_step`](BatchAcceptor::lane_step) inlined
    /// the round loop is exactly the software-pipelined shape the batched
    /// runner wants, so implementors rarely need to override it.
    fn run_batch(&self, streams: &[&[TaggedSymbol]]) -> Vec<StreamOutcome> {
        let mut lanes: Vec<Self::Lane> = streams.iter().map(|_| self.lane_start()).collect();
        let common = streams.iter().map(|s| s.len()).min().unwrap_or(0);
        for round in 0..common {
            for (lane, stream) in lanes.iter_mut().zip(streams) {
                self.lane_step(lane, stream[round]);
            }
        }
        for (lane, stream) in lanes.iter_mut().zip(streams) {
            self.lane_step_slice(lane, &stream[common..]);
        }
        lanes.iter().map(|lane| self.lane_outcome(lane)).collect()
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
}

/// Summary of a completed streaming evaluation, as reported by
/// [`query::run_stream`](crate::query::run_stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Whether the automaton accepted the stream.
    pub accepted: bool,
    /// Number of events read, including those the engine had no need to
    /// step (compiled engines skip internals that cannot change their
    /// state).
    pub events: usize,
    /// Maximum stack height used: proportional to the nesting depth of the
    /// input, not to its length.
    pub peak_memory: usize,
}
