//! Compiled execution engines: the hot-path automata lowered into dense,
//! cache-friendly tables behind the `automata-core`
//! [`Compile`] capability.
//!
//! The interpreted runners ([`StreamingRun`](crate::StreamingRun),
//! [`SummaryStreamingRun`](crate::summary::SummaryStreamingRun)) already
//! meet the paper's asymptotics — one pass, memory proportional to depth.
//! Compilation attacks the constant factor:
//!
//! * [`CompiledNwa`] fuses the three transition functions of a
//!   deterministic NWA into **one** flat `u32` table over the tagged
//!   alphabet Σ̂ with **premultiplied row offsets**: a linear state is
//!   represented as `q·3σ`, a hierarchical stack entry as the absolute
//!   base of its block of return rows. Every event then resolves as one
//!   addition and one array load, and — the part the microbenchmarks say
//!   matters most — the event kind enters the address as *arithmetic on
//!   the discriminant* rather than a three-way dispatch, so the
//!   unpredictable call/internal/return mix of real documents stops
//!   costing a branch misprediction per event.
//! * [`CompiledSummary`] executes the summary-set subset construction of
//!   §3.2 over **interned** state-pair sets with a **memoized transition
//!   cache**: each distinct (summary, symbol) step is derived once from the
//!   nondeterministic relations and afterwards answered by a hash lookup,
//!   so streams with repeated event patterns run at deterministic-automaton
//!   speed after warm-up.
//!
//! The trade-off is memory: `CompiledNwa` materializes the full
//! `states² × 3σ` return block in `u32`s up front (compilation fails on
//! automata where the offsets would overflow `u32`), and
//! `CompiledSummary`'s cache grows with the number of *distinct* summaries
//! the input streams actually visit — bounded by the (exponential)
//! determinization size, but in practice tiny and shared across runs.
//! Both artifacts are language-exact: `tests/compile.rs` property-tests
//! compiled ≡ interpreted at every prefix, pending edges included.

use crate::automaton::Nwa;
use crate::joinless::JoinlessNwa;
use crate::nondet::Nnwa;
use crate::summary::{Summary, SummarySemantics};
use automata_core::{BatchAcceptor, Compile, LaneRun, StreamAcceptor, StreamOutcome};
use nested_words::{PositionKind, Symbol, TaggedSymbol};
use std::collections::HashMap;
use std::sync::RwLock;

// --------------------------------------------------------------------------
// Deterministic NWAs: premultiplied dense tables
// --------------------------------------------------------------------------

/// A deterministic NWA lowered into one fused `u32` transition table over
/// the tagged alphabet Σ̂, with premultiplied row offsets (see the
/// [module docs](self) for the design rationale).
///
/// Internally a linear state `q` is the row offset `q·3σ` and every event
/// is the in-row offset `kind·σ + a` (calls `0..σ`, internals `σ..2σ`,
/// returns `2σ..3σ` — exactly [`TaggedSymbol::tagged_index`]). The fused
/// table `T` concatenates
///
/// * the **linear block** (`n·3σ` entries): `T[q·3σ + a] = δc^l(q,a)·3σ`
///   and `T[q·3σ + σ + a] = δi(q,a)·3σ`, and
/// * the **return block** (`n·n·3σ` entries): for a return the stack
///   supplies the absolute base of the hierarchical state's row, so
///   `T[pop() + q·3σ + (2σ + a)] = δr(q,h,a)·3σ`.
///
/// One event is therefore *one* add-and-load wherever it lands: a call
/// additionally pushes `push[q·3σ + a]` (the matching return-row base), a
/// return pops (an empty stack pops the initial state's base — the
/// pending-return rule of §3.1). Crucially the decode `kind·σ + a` is plain
/// arithmetic on the event discriminant — unlike a three-way dispatch it
/// never branches on the (unpredictable) event kind, which is where the
/// interpreted runner's cycles go.
///
/// Compilation also derives two facts from the table, recomputed on load
/// rather than stored: the **inert** symbols, whose internal transition is
/// the identity in every state, and the **absorbing** states, which every
/// transition maps back to themselves. The slice loop drops inert
/// internals before stepping (see [`CompiledNwa::run_tagged`]), and a
/// [`QuerySet`](crate::QuerySet) retires members that reach an absorbing
/// state.
///
/// Build one with [`Compile::compile`] (or `query::compile`) and drive it
/// through [`StreamAcceptor`], or hand a whole slice to
/// [`CompiledNwa::run_tagged`]; it accepts exactly the streams the source
/// [`Nwa`] accepts. A symbol outside its alphabet panics, as in the source
/// [`Nwa`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledNwa {
    /// Row stride of linear states: `max(3σ, 1)`.
    pub(crate) stride: u32,
    /// σ itself (`stride / 3`, kept separately for the band offsets).
    pub(crate) sigma: u32,
    pub(crate) num_states: usize,
    /// The fused table: linear block then return block.
    pub(crate) table: Vec<u32>,
    /// `push[q·3σ + a]` = absolute base of `δc^h(q, a)`'s block of return
    /// rows, so a return resolves as `T[pop() + state + 2σ + a]`.
    pub(crate) push: Vec<u32>,
    /// The pushed value for the initial state — what a pending return pops.
    pub(crate) pending_row: u32,
    /// Initial linear state, as a row offset.
    pub(crate) initial: u32,
    /// Acceptance by plain state index (`q`, not the row offset).
    pub(crate) accepting: Vec<bool>,
    /// Content hash over the tables (see `persist`), stamped into
    /// snapshots and validated on resume.
    pub(crate) fingerprint: u64,
    /// `inert[a]`: `δi(q, a) = q` in every state, so an internal `a` never
    /// changes a run and the slice loop drops it. Derived from `table`
    /// (never serialized); its length is σ, so looking a symbol up is also
    /// the alphabet check.
    pub(crate) inert: Vec<bool>,
    /// `absorbing[q]`: every call, internal and return from `q`, for every
    /// symbol and stack symbol, lands on `q` — a sink whose verdict is
    /// fixed. Derived from `table`, never serialized.
    pub(crate) absorbing: Vec<bool>,
}

/// Events per compaction block of the slice loops: each block's kept
/// events gather in a stack buffer of this many slots before stepping.
pub(crate) const BLOCK: usize = 1024;

/// Whether a run must step `event`: `false` exactly for an internal whose
/// symbol is inert. The `inert` lookup doubles as the alphabet check, so a
/// symbol outside the automaton's alphabet panics here, on every kind.
#[inline(always)]
pub(crate) fn keeps(inert: &[bool], event: TaggedSymbol) -> bool {
    let a = event.symbol().index();
    let Some(&inert) = inert.get(a) else {
        outside_alphabet(a, inert.len())
    };
    !(inert && matches!(event, TaggedSymbol::Internal(_)))
}

/// The panic of an event symbol outside the alphabet, shared by the
/// interpreted [`Nwa`] and the compiled engine: the symbol's column would
/// otherwise fall in a neighbouring row of the flat tables.
#[cold]
#[inline(never)]
pub(crate) fn outside_alphabet(a: usize, sigma: usize) -> ! {
    panic!("event symbol {a} is outside the automaton's {sigma}-symbol alphabet")
}

/// Copies the events of `block` a run must step into `kept` and returns
/// how many there are, showing every event read to `each` on the way.
/// Branch-free: every event is written, and the cursor advances only past
/// a kept one.
#[inline(always)]
pub(crate) fn compact(
    inert: &[bool],
    block: &[TaggedSymbol],
    kept: &mut [TaggedSymbol; BLOCK],
    mut each: impl FnMut(TaggedSymbol),
) -> usize {
    let mut n = 0;
    for &event in block {
        kept[n] = event;
        n += usize::from(keeps(inert, event));
        each(event);
    }
    n
}

impl CompiledNwa {
    /// Lowers `nwa` into the fused premultiplied table.
    ///
    /// Panics if the table offsets would not fit `u32` (i.e.
    /// `(states + states²) · 3σ > u32::MAX`); such automata are beyond what
    /// the dense return block can represent and must use the interpreted
    /// runner.
    pub fn new(nwa: &Nwa) -> CompiledNwa {
        let n = nwa.num_states();
        let sigma = nwa.sigma();
        let stride = (3 * sigma).max(1);
        let table_len = n
            .checked_add(n.checked_mul(n).expect("table size overflows usize"))
            .and_then(|x| x.checked_mul(stride))
            .expect("table size overflows usize");
        assert!(
            u32::try_from(table_len).is_ok(),
            "automaton too large to compile: (states + states^2) * 3*sigma must fit u32"
        );
        // Absolute base of hierarchical state h's block of return rows; a
        // return lands at `base + q·3σ + 2σ + a`.
        let ret_base = |h: usize| ((n + h * n) * stride) as u32;
        let mut table = vec![0u32; table_len];
        let mut push = vec![0u32; n * stride];
        for q in 0..n {
            for a in 0..sigma {
                let sym = Symbol(a as u16);
                let row = q * stride;
                table[row + a] = (nwa.call_linear(q, sym) * stride) as u32;
                table[row + sigma + a] = (nwa.internal(q, sym) * stride) as u32;
                push[row + a] = ret_base(nwa.call_hier(q, sym));
                for h in 0..n {
                    table[(n + h * n) * stride + row + 2 * sigma + a] =
                        (nwa.ret(q, h, sym) * stride) as u32;
                }
            }
        }
        let mut compiled = CompiledNwa {
            stride: stride as u32,
            sigma: sigma as u32,
            num_states: n,
            table,
            push,
            pending_row: ret_base(nwa.initial()),
            initial: (nwa.initial() * stride) as u32,
            accepting: (0..n).map(|q| nwa.is_accepting(q)).collect(),
            fingerprint: 0,
            inert: Vec::new(),
            absorbing: Vec::new(),
        };
        compiled.fingerprint = compiled.compute_fingerprint();
        compiled.derive_step_facts();
        compiled
    }

    /// Derives [`inert`](CompiledNwa::is_inert) symbols and
    /// [`absorbing`](CompiledNwa::is_absorbing) states from the fused
    /// table, in O(n²σ) — the cost of building it. Run at compile time and
    /// again by `Persist::load` once the tables are validated.
    pub(crate) fn derive_step_facts(&mut self) {
        let (n, sigma, stride) = (self.num_states, self.sigma(), self.stride as usize);
        let row = |q: usize| q * stride;
        self.inert = (0..sigma)
            .map(|a| (0..n).all(|q| self.table[row(q) + sigma + a] == row(q) as u32))
            .collect();
        self.absorbing = (0..n)
            .map(|q| {
                let here = row(q) as u32;
                let calls_and_internals = &self.table[row(q)..row(q) + 2 * sigma];
                calls_and_internals.iter().all(|&t| t == here)
                    && (0..n).all(|h| {
                        let returns = (n + h * n) * stride + row(q) + 2 * sigma;
                        self.table[returns..returns + sigma]
                            .iter()
                            .all(|&t| t == here)
                    })
            })
            .collect();
    }

    /// Whether symbol `a` is inert: `δi(q, a) = q` in every state `q`, so
    /// an internal `a` cannot change any run and the slice loop skips it.
    pub fn is_inert(&self, a: Symbol) -> bool {
        self.inert[a.index()]
    }

    /// Whether state `q` is absorbing: every call, internal and return
    /// from `q` lands on `q`, so a run there has a fixed verdict.
    pub fn is_absorbing(&self, q: usize) -> bool {
        self.absorbing[q]
    }

    /// Whether `lane` sits in an absorbing state.
    pub(crate) fn lane_settled(&self, lane: &CompiledNwaLane) -> bool {
        self.absorbing[(lane.state / self.stride) as usize]
    }

    /// The register loop over events that must all be stepped: hoists the
    /// lane into locals — state, cached top, stack pointer and peak in
    /// registers, the spilled stack moved out of the lane rather than
    /// copied — and runs `step_local` per event. Leaves `steps` alone;
    /// the callers count the events they read, kept or not.
    pub(crate) fn step_kept(&self, lane: &mut CompiledNwaLane, events: &[TaggedSymbol]) {
        let mut state = lane.state;
        let mut top = lane.top;
        let mut sp = lane.sp as usize;
        let mut max_sp = lane.max_sp as usize;
        let mut spilled = std::mem::take(&mut lane.spilled);
        for &event in events {
            self.step_local(
                &mut state,
                &mut top,
                &mut sp,
                &mut max_sp,
                &mut spilled,
                event,
            );
        }
        lane.state = state;
        lane.top = top;
        lane.sp = sp as u32;
        lane.max_sp = max_sp as u32;
        lane.spilled = spilled;
    }

    /// Number of states of the source automaton.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Alphabet size of the source automaton.
    pub fn sigma(&self) -> usize {
        self.sigma as usize
    }

    /// Bytes occupied by the transition tables — the memory the compiled
    /// representation trades for speed (the `states² × 3σ` return block
    /// dominates).
    pub fn table_bytes(&self) -> usize {
        (self.table.len() + self.push.len()) * std::mem::size_of::<u32>()
    }

    /// Runs a whole pre-materialized event slice through the fused table
    /// and reports the outcome — the bulk entry point of the compiled
    /// engine, and the reason the Σ̂ layout exists.
    ///
    /// Language-equivalent to driving [`StreamAcceptor::start`] event by
    /// event (property-tested in `tests/compile.rs`), but the inner loop is
    /// **branch-free on the event kind**: real event streams mix calls,
    /// internals and returns unpredictably, so any per-kind dispatch —
    /// including the arithmetic-per-arm `match` inside
    /// [`TaggedSymbol::tagged_index`] — mispredicts constantly and
    /// dominates the interpreted runner's budget. Here every event
    ///
    /// 1. decodes to `kind·σ + a` by pure arithmetic on the discriminant,
    /// 2. unconditionally writes its would-be push (`push[state + a]`) into
    ///    the next free stack slot,
    /// 3. resolves `state = T[state + kind·σ + a + (top & ret_mask)]` —
    ///    one load, with the return-block base masked in only when the
    ///    event is a return — and
    /// 4. adjusts the stack pointer with comparisons, not branches.
    ///
    /// A sentinel slot holding the initial state's return base sits below
    /// the stack, so a pending return (pop on an empty stack) resolves
    /// against the §3.1 hierarchical-initial row with no special case.
    /// State, stack pointer and peak stay in registers for the whole slice.
    ///
    /// The loop runs on a compacted copy of the events: each block of up to
    /// 1024 is first copied into a stack buffer without its internals on
    /// inert symbols — every event is written, the cursor advances only
    /// past kept ones, so the copy does not branch either. An inert
    /// internal changes neither the state nor the stack, so skipping it is
    /// exact. On documents where half the events are text words no query
    /// reads, that halves the steps. The outcome still counts every event
    /// read.
    pub fn run_tagged(&self, events: &[TaggedSymbol]) -> StreamOutcome {
        let mut lane = self.lane_start();
        self.lane_step_slice(&mut lane, events);
        self.lane_outcome(&lane)
    }

    /// The branch-free event step on explicit locals. `inline(always)` so
    /// the callers' locals stay register-promoted: the slice loop of
    /// [`BatchAcceptor::lane_step_slice`] keeps the whole lane state in
    /// registers for the duration of a slice, and the stored-lane
    /// [`BatchAcceptor::lane_step`] reuses the same body.
    #[inline(always)]
    fn step_local(
        &self,
        state: &mut u32,
        top: &mut u32,
        sp: &mut usize,
        max_sp: &mut usize,
        spilled: &mut Vec<u32>,
        event: TaggedSymbol,
    ) {
        let sigma = self.sigma;
        // Flag-style decode: `matches!` comparisons compile to setcc,
        // where a `match` yielding per-arm values compiles to data-
        // dependent (hence mispredicted) branches.
        let a = event.symbol().index() as u32;
        let is_int = u32::from(matches!(event, TaggedSymbol::Internal(_)));
        let is_ret = u32::from(matches!(event, TaggedSymbol::Return(_)));
        let kind = is_int + 2 * is_ret;
        debug_assert!(a < sigma.max(1), "event symbol outside the alphabet");
        // Predictable (amortized-rare) growth branch, never a per-kind one.
        if *sp + 1 >= spilled.len() {
            spilled.resize(spilled.len() * 2, 0);
        }
        // Unconditional spill of the cached top into its memory home
        // `sp - 1` (a call's push must preserve it there; harmless
        // otherwise — the slot is dead while the top lives in the
        // register), then one add-and-load resolves the event, with the
        // return block masked in only for returns.
        spilled[*sp - 1] = *top;
        let ret_mask = is_ret.wrapping_neg();
        let pushed = self.push[(*state + a) as usize];
        *state = self.table[(*state + kind * sigma + a + (*top & ret_mask)) as usize];
        // New height and new top, all selected without branching: a
        // call caches its pushed value, an internal keeps the top, a
        // return refills from the slot that becomes the new top.
        let is_call = usize::from(kind == 0);
        *sp = (*sp + is_call - is_ret as usize).max(1);
        let refill = spilled[*sp - 1];
        *top = [pushed, *top, refill][kind as usize];
        *max_sp = (*max_sp).max(*sp);
    }
}

impl StreamAcceptor for CompiledNwa {
    type Run<'a> = LaneRun<'a, CompiledNwa>;

    fn start(&self) -> LaneRun<'_, CompiledNwa> {
        LaneRun::new(self)
    }
}

/// One stream's worth of batched-execution state for a [`CompiledNwa`]:
/// the premultiplied linear state, the register-style cached stack top, and
/// the spilled `u32` stack with its pending-return sentinel — exactly the
/// state the slice loop keeps in registers, made storable so N lanes can
/// sit side by side and migrate across worker threads. It is also the
/// state of every [`CompiledNwa`] streaming run ([`LaneRun`]).
#[derive(Debug, Clone)]
pub struct CompiledNwaLane {
    /// Current linear state as a premultiplied row offset.
    pub(crate) state: u32,
    /// Cached top of the stack (a return-row base).
    pub(crate) top: u32,
    /// Stack pointer into `spilled`; the live height is `sp - 1` because
    /// `spilled[0]` is the pending-return sentinel.
    pub(crate) sp: u32,
    /// Peak `sp` observed.
    pub(crate) max_sp: u32,
    /// Events consumed.
    pub(crate) steps: usize,
    /// The spilled stack; `spilled[sp - 1]` mirrors `top` after each
    /// internal or return step (after a call the register `top` is
    /// authoritative and the slot is dead).
    pub(crate) spilled: Vec<u32>,
}

impl BatchAcceptor for CompiledNwa {
    type Lane = CompiledNwaLane;

    fn lane_start(&self) -> CompiledNwaLane {
        CompiledNwaLane {
            state: self.initial,
            top: self.pending_row,
            sp: 1,
            max_sp: 1,
            steps: 0,
            spilled: vec![self.pending_row; 64],
        }
    }

    /// The branch-free event step (`step_local`) on a stored lane: setcc
    /// decode of the event kind,
    /// unconditional spill of the cached top, one add-and-load with the
    /// return base masked in, comparison-selected stack adjustment. Lanes
    /// touch only their own state, so interleaved calls on different lanes
    /// are independent dependency chains.
    ///
    /// A symbol outside the alphabet panics, as in the interpreted [`Nwa`]:
    /// `state + σ + a` would otherwise land in the next row's call band.
    #[inline]
    fn lane_step(&self, lane: &mut CompiledNwaLane, event: TaggedSymbol) {
        let a = event.symbol().index();
        if a >= self.sigma() {
            outside_alphabet(a, self.sigma());
        }
        let mut sp = lane.sp as usize;
        let mut max_sp = lane.max_sp as usize;
        self.step_local(
            &mut lane.state,
            &mut lane.top,
            &mut sp,
            &mut max_sp,
            &mut lane.spilled,
            event,
        );
        lane.sp = sp as u32;
        lane.max_sp = max_sp as u32;
        lane.steps += 1;
    }

    /// The compacted slice loop: each block of at most 1024 events is
    /// first copied into a stack buffer without its inert internals
    /// (branch-free — every event is written, the cursor advances only past
    /// kept ones), then the kept events run through the register loop
    /// (see [`CompiledNwa::run_tagged`] for the step's anatomy). Skipping
    /// an internal leaves the stack untouched, so the lane — and any
    /// snapshot of it — is exactly what stepping every event leaves.
    /// `steps` grows by the whole slice: it counts events read.
    fn lane_step_slice(&self, lane: &mut CompiledNwaLane, events: &[TaggedSymbol]) {
        let mut kept = [TaggedSymbol::Internal(Symbol(0)); BLOCK];
        for block in events.chunks(BLOCK) {
            let n = compact(&self.inert, block, &mut kept, |_| {});
            self.step_kept(lane, &kept[..n]);
        }
        lane.steps += events.len();
    }

    fn lane_accepting(&self, lane: &CompiledNwaLane) -> bool {
        self.accepting[(lane.state / self.stride) as usize]
    }

    fn lane_stack_height(&self, lane: &CompiledNwaLane) -> usize {
        lane.sp as usize - 1
    }

    fn lane_outcome(&self, lane: &CompiledNwaLane) -> StreamOutcome {
        StreamOutcome {
            accepted: self.lane_accepting(lane),
            events: lane.steps,
            peak_memory: (lane.max_sp - 1) as usize,
        }
    }

    /// Overrides the generic lockstep to run each stream back to back with
    /// the register-resident slice loop ([`CompiledNwa::run_tagged`]) — deliberately
    /// *not* interleaved. The fused NWA step is issue-width-bound, not
    /// load-latency-bound: besides the table load it decodes the kind,
    /// spills the cached top, maintains the stack pointer and tracks the
    /// peak, which together keep the core's ports busy through the load's
    /// latency. Interleaving lanes therefore buys no overlap, and the extra
    /// lanes' state (~8 live values each against 15 usable x86-64 GPRs)
    /// spills to the stack and *loses* 15–30% to the sequential engine —
    /// measured on the lockstep kernel this override replaced. Flat
    /// automata, whose step is a pure add-and-load, are the opposite case:
    /// see `CompiledTaggedDfa::run_batch` in `word-automata`.
    fn run_batch(&self, streams: &[&[TaggedSymbol]]) -> Vec<StreamOutcome> {
        streams.iter().map(|s| self.run_tagged(s)).collect()
    }
}

impl Compile for Nwa {
    type Compiled = CompiledNwa;

    /// One fused premultiplied `u32` table ([`CompiledNwa`]); panics if
    /// `(states + states²) · 3σ` overflows `u32`.
    fn compile(&self) -> CompiledNwa {
        CompiledNwa::new(self)
    }
}

// --------------------------------------------------------------------------
// Nondeterministic models: memoized summary subset engine
// --------------------------------------------------------------------------

/// A summary interned by the memoized subset engine: the set itself (needed
/// to derive yet-unseen transitions) plus its memoized acceptance bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InternedSummary {
    pub(crate) summary: Summary,
    pub(crate) accepting: bool,
}

/// The memoization state of a [`CompiledSummary`] engine: interned
/// summaries and one transition cache per step relation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SummaryCache {
    /// Interned summaries by id.
    pub(crate) summaries: Vec<InternedSummary>,
    /// Summary → id, keyed by the packed sorted pair list.
    pub(crate) index: HashMap<Vec<u64>, u32>,
    /// `(summary, a)` → summary for internal positions.
    pub(crate) internal: HashMap<(u32, u16), u32>,
    /// `(summary, a)` → linear-successor summary for call positions.
    pub(crate) call: HashMap<(u32, u16), u32>,
    /// `(outer, call symbol, inner, a)` → summary for matched returns.
    pub(crate) matched: HashMap<(u32, u16, u32, u16), u32>,
    /// `(summary, a)` → summary for pending returns.
    pub(crate) pending: HashMap<(u32, u16), u32>,
}

/// Packs a summary into its canonical hash key (pairs are already sorted in
/// the `BTreeSet`).
pub(crate) fn summary_key(s: &Summary) -> Vec<u64> {
    s.iter()
        .map(|&(anchor, cur)| {
            debug_assert!(anchor <= u32::MAX as usize && cur <= u32::MAX as usize);
            ((anchor as u64) << 32) | cur as u64
        })
        .collect()
}

impl SummaryCache {
    fn intern<A: SummarySemantics>(&mut self, automaton: &A, summary: Summary) -> u32 {
        let key = summary_key(&summary);
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = u32::try_from(self.summaries.len()).expect("summary cache overflow");
        let accepting = automaton.summary_accepting(&summary);
        self.index.insert(key, id);
        self.summaries.push(InternedSummary { summary, accepting });
        id
    }
}

/// The summary-set subset construction of §3.2 compiled on the fly: state
/// sets are interned once, and every (summary, event) transition is derived
/// from the nondeterministic relations at most once, then served from a
/// hash cache. Streams with repeated event patterns — the common case for
/// document queries — run almost entirely on precomputed rows.
///
/// Generic over [`SummarySemantics`], so one engine serves both
/// [`Nnwa`] (ordinary return relation) and [`JoinlessNwa`] (mode-split
/// return relation). The cache is interior-mutable behind an [`RwLock`] and
/// shared by every run started from the same compiled artifact — warm-up
/// amortizes across runs *and* across threads: the artifact is
/// `Send + Sync` (asserted in the test suite), so one `Arc`'d engine can
/// serve every worker of a decision service, with the steady state (cache
/// hits) taking only the uncontended read lock.
///
/// This is in effect determinization restricted to the reachable,
/// actually-visited part of the `2^{s²}` summary-set automaton — the memory
/// trade-off is the cache, which grows with the number of distinct
/// summaries visited, not with the stream length.
#[derive(Debug)]
pub struct CompiledSummary<A: SummarySemantics> {
    pub(crate) automaton: A,
    pub(crate) initial: u32,
    pub(crate) cache: RwLock<SummaryCache>,
}

impl<A: SummarySemantics + PartialEq> PartialEq for CompiledSummary<A> {
    /// Structural equality over the automaton, the initial id *and* the
    /// memoization cache — `load(save(a)) == a` asserts that the warmed
    /// rows shipped with the artifact, not just the relations.
    fn eq(&self, other: &Self) -> bool {
        self.automaton == other.automaton
            && self.initial == other.initial
            && *self.lock_read() == *other.lock_read()
    }
}

impl<A: SummarySemantics + Eq> Eq for CompiledSummary<A> {}

impl<A: SummarySemantics + Clone> Clone for CompiledSummary<A> {
    fn clone(&self) -> Self {
        CompiledSummary {
            automaton: self.automaton.clone(),
            initial: self.initial,
            cache: RwLock::new(self.lock_read().clone()),
        }
    }
}

impl<A: SummarySemantics> CompiledSummary<A> {
    /// Compiles the engine around (an owned copy of) the automaton.
    pub fn new(automaton: A) -> Self {
        let mut cache = SummaryCache::default();
        let initial = cache.intern(&automaton, automaton.initial_summary());
        CompiledSummary {
            automaton,
            initial,
            cache: RwLock::new(cache),
        }
    }

    /// Number of distinct summaries interned so far — the size of the
    /// visited part of the subset construction (grows as runs explore new
    /// event patterns, never with stream length).
    pub fn cached_summaries(&self) -> usize {
        self.lock_read().summaries.len()
    }

    fn lock_read(&self) -> std::sync::RwLockReadGuard<'_, SummaryCache> {
        self.cache.read().expect("summary cache lock poisoned")
    }

    fn lock_write(&self) -> std::sync::RwLockWriteGuard<'_, SummaryCache> {
        self.cache.write().expect("summary cache lock poisoned")
    }

    fn accepting(&self, id: u32) -> bool {
        self.lock_read().summaries[id as usize].accepting
    }

    fn step_internal(&self, id: u32, a: Symbol) -> u32 {
        // Steady state: one shared (uncontended-read) lock per event. Only
        // a miss — once per distinct (summary, symbol) for the lifetime of
        // the artifact — takes the write lock to derive and memoize.
        if let Some(&hit) = self.lock_read().internal.get(&(id, a.0)) {
            return hit;
        }
        let mut cache = self.lock_write();
        if let Some(&hit) = cache.internal.get(&(id, a.0)) {
            return hit;
        }
        let next = self
            .automaton
            .summary_internal(&cache.summaries[id as usize].summary, a);
        let next_id = cache.intern(&self.automaton, next);
        cache.internal.insert((id, a.0), next_id);
        next_id
    }

    fn step_call(&self, id: u32, a: Symbol) -> u32 {
        if let Some(&hit) = self.lock_read().call.get(&(id, a.0)) {
            return hit;
        }
        let mut cache = self.lock_write();
        if let Some(&hit) = cache.call.get(&(id, a.0)) {
            return hit;
        }
        let next = self
            .automaton
            .summary_call(&cache.summaries[id as usize].summary, a);
        let next_id = cache.intern(&self.automaton, next);
        cache.call.insert((id, a.0), next_id);
        next_id
    }

    fn step_matched(&self, outer: u32, call_symbol: Symbol, inner: u32, a: Symbol) -> u32 {
        let key = (outer, call_symbol.0, inner, a.0);
        if let Some(&hit) = self.lock_read().matched.get(&key) {
            return hit;
        }
        let mut cache = self.lock_write();
        if let Some(&hit) = cache.matched.get(&key) {
            return hit;
        }
        let next = self.automaton.summary_matched_return(
            &cache.summaries[outer as usize].summary,
            call_symbol,
            &cache.summaries[inner as usize].summary,
            a,
        );
        let next_id = cache.intern(&self.automaton, next);
        cache.matched.insert(key, next_id);
        next_id
    }

    fn step_pending(&self, id: u32, a: Symbol) -> u32 {
        if let Some(&hit) = self.lock_read().pending.get(&(id, a.0)) {
            return hit;
        }
        let mut cache = self.lock_write();
        if let Some(&hit) = cache.pending.get(&(id, a.0)) {
            return hit;
        }
        let next = self
            .automaton
            .summary_pending_return(&cache.summaries[id as usize].summary, a);
        let next_id = cache.intern(&self.automaton, next);
        cache.pending.insert((id, a.0), next_id);
        next_id
    }
}

impl<A: SummarySemantics> StreamAcceptor for CompiledSummary<A> {
    type Run<'a>
        = LaneRun<'a, CompiledSummary<A>>
    where
        Self: 'a;

    fn start(&self) -> LaneRun<'_, CompiledSummary<A>> {
        LaneRun::new(self)
    }
}

/// One stream's worth of batched-execution state for a [`CompiledSummary`]
/// engine: the interned summary id plus the per-stream call stack, owned so
/// N lanes share one engine (and its memoized rows) from any number of
/// threads. Every step is a cache lookup (or, once per distinct
/// transition, a derivation) — the same observable protocol as
/// [`SummaryStreamingRun`](crate::summary::SummaryStreamingRun).
#[derive(Debug, Clone)]
pub struct CompiledSummaryLane {
    pub(crate) current: u32,
    pub(crate) stack: Vec<(u32, Symbol)>,
    pub(crate) max_stack: usize,
    pub(crate) steps: usize,
}

impl<A: SummarySemantics> BatchAcceptor for CompiledSummary<A> {
    type Lane = CompiledSummaryLane;

    fn lane_start(&self) -> CompiledSummaryLane {
        CompiledSummaryLane {
            current: self.initial,
            stack: Vec::new(),
            max_stack: 0,
            steps: 0,
        }
    }

    #[inline]
    fn lane_step(&self, lane: &mut CompiledSummaryLane, event: TaggedSymbol) {
        lane.steps += 1;
        let a = event.symbol();
        match event.kind() {
            PositionKind::Internal => {
                lane.current = self.step_internal(lane.current, a);
            }
            PositionKind::Call => {
                let linear = self.step_call(lane.current, a);
                lane.stack.push((lane.current, a));
                lane.max_stack = lane.max_stack.max(lane.stack.len());
                lane.current = linear;
            }
            PositionKind::Return => match lane.stack.pop() {
                Some((outer, call_symbol)) => {
                    lane.current = self.step_matched(outer, call_symbol, lane.current, a);
                }
                None => {
                    lane.current = self.step_pending(lane.current, a);
                }
            },
        }
    }

    fn lane_accepting(&self, lane: &CompiledSummaryLane) -> bool {
        self.accepting(lane.current)
    }

    fn lane_stack_height(&self, lane: &CompiledSummaryLane) -> usize {
        lane.stack.len()
    }

    fn lane_outcome(&self, lane: &CompiledSummaryLane) -> StreamOutcome {
        StreamOutcome {
            accepted: self.accepting(lane.current),
            events: lane.steps,
            peak_memory: lane.max_stack,
        }
    }
}

impl Compile for Nnwa {
    type Compiled = CompiledSummary<Nnwa>;

    /// The memoized summary subset engine ([`CompiledSummary`]) around an
    /// owned copy of the automaton.
    fn compile(&self) -> CompiledSummary<Nnwa> {
        CompiledSummary::new(self.clone())
    }
}

impl Compile for JoinlessNwa {
    type Compiled = CompiledSummary<JoinlessNwa>;

    /// The memoized summary subset engine ([`CompiledSummary`]) over the
    /// mode-split return relation, around an owned copy of the automaton.
    fn compile(&self) -> CompiledSummary<JoinlessNwa> {
        CompiledSummary::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata_core::{query, StreamRun};
    use nested_words::generate::{random_nested_word, NestedWordConfig};
    use nested_words::tagged::parse_nested_word;
    use nested_words::{Alphabet, NestedWord};

    fn parse(ab: &mut Alphabet, s: &str) -> NestedWord {
        parse_nested_word(s, ab).unwrap()
    }

    /// The matching-labels NWA from the `automaton` tests: genuinely uses
    /// hierarchical states, pending calls and pending returns.
    fn matching_labels_nwa() -> Nwa {
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
                let target = if h == want { 0 } else { 3 };
                m.set_return(0, h, sym, target);
            }
        }
        m
    }

    #[test]
    fn compiled_nwa_agrees_with_interpreted() {
        let mut ab = Alphabet::ab();
        let m = matching_labels_nwa();
        let c = query::compile(&m);
        for s in [
            "",
            "<a a>",
            "<a b>",
            "<a <b b> a>",
            "a>",
            "<a",
            "<a a> b>",
            "<a <b <a a> b> a> <b b>",
        ] {
            let w = parse(&mut ab, s);
            let interpreted = query::run_stream(&m, w.to_tagged());
            let compiled = query::run_stream(&c, w.to_tagged());
            assert_eq!(interpreted, compiled, "word `{s}`");
        }
    }

    #[test]
    fn compiled_nwa_prefix_observables_match() {
        let m = matching_labels_nwa();
        let c = m.compile();
        let ab = Alphabet::ab();
        let cfg = NestedWordConfig {
            len: 30,
            allow_pending: true,
            ..Default::default()
        };
        for seed in 0..25u64 {
            let w = random_nested_word(&ab, cfg, seed);
            let mut ir = m.start();
            let mut cr = c.start();
            for (i, &event) in w.to_tagged().iter().enumerate() {
                ir.step(event);
                cr.step(event);
                assert_eq!(ir.is_accepting(), cr.is_accepting(), "seed {seed} pos {i}");
                assert_eq!(ir.stack_height(), cr.stack_height(), "seed {seed} pos {i}");
                assert_eq!(ir.peak_memory(), cr.peak_memory(), "seed {seed} pos {i}");
            }
        }
    }

    #[test]
    fn compiled_summary_caches_rows_across_runs() {
        let mut ab = Alphabet::ab();
        // Nondeterministic "some matched b-block" automaton.
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

        let c = n.compile();
        let w = parse(&mut ab, "<b a b> <a <b b> a>");
        assert!(query::contains_stream(&c, w.to_tagged()));
        let warm = c.cached_summaries();
        assert!(warm > 0);
        // A second, repeated-pattern run derives nothing new.
        assert!(query::contains_stream(&c, w.to_tagged()));
        assert_eq!(c.cached_summaries(), warm);
        // And it still agrees with the interpreted engine on fresh input.
        for s in ["<b a>", "<a b a>", "b>", "<b", "<a <b b>"] {
            let v = parse(&mut ab, s);
            assert_eq!(
                query::contains_stream(&c, v.to_tagged()),
                query::contains(&n, &v),
                "word `{s}`"
            );
        }
    }

    /// The `Arc` serving path of the decision service requires the compiled
    /// artifacts to cross and be shared between threads. This did not
    /// compile while `CompiledSummary` held its memoized row caches in a
    /// `RefCell` (not `Sync`); the `RwLock`-backed cache makes it hold by
    /// construction, and this assertion keeps it held.
    #[test]
    fn compiled_artifacts_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledNwa>();
        assert_send_sync::<CompiledSummary<Nnwa>>();
        assert_send_sync::<CompiledSummary<JoinlessNwa>>();
        // Lanes migrate into worker threads on their own.
        fn assert_send<T: Send>() {}
        assert_send::<CompiledNwaLane>();
        assert_send::<CompiledSummaryLane>();
    }

    #[test]
    fn one_summary_engine_shared_across_threads() {
        let mut ab = Alphabet::ab();
        let n = {
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
        };
        let c = std::sync::Arc::new(n.compile());
        let words: Vec<_> = ["<b a b>", "<a <b b> a>", "b>", "<b", "a a"]
            .iter()
            .map(|s| parse(&mut ab, s))
            .collect();
        let expected: Vec<bool> = words.iter().map(|w| n.accepts(w)).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                let words = words.clone();
                std::thread::spawn(move || {
                    words
                        .iter()
                        .map(|w| query::contains_stream(&*c, w.to_tagged()))
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
    }

    #[test]
    fn batched_lanes_agree_with_streaming_runs() {
        let m = matching_labels_nwa();
        let c = m.compile();
        let ab = Alphabet::ab();
        let cfg = NestedWordConfig {
            len: 40,
            allow_pending: true,
            ..Default::default()
        };
        let words: Vec<Vec<TaggedSymbol>> = (0..8u64)
            .map(|seed| random_nested_word(&ab, cfg, seed).to_tagged())
            .collect();
        let streams: Vec<&[TaggedSymbol]> = words.iter().map(Vec::as_slice).collect();
        let outcomes = c.run_batch(&streams);
        for (stream, outcome) in streams.iter().zip(&outcomes) {
            assert_eq!(*outcome, c.run_tagged(stream));
        }
    }

    #[test]
    fn table_bytes_reports_the_dense_footprint() {
        let m = matching_labels_nwa();
        let c = m.compile();
        // fused table (4 + 4²)·3·2 entries + push table 4·3·2, 4 bytes each.
        assert_eq!(c.table_bytes(), ((4 + 16) * 6 + 24) * 4);
        assert_eq!(c.num_states(), 4);
        assert_eq!(c.sigma(), 2);
    }

    #[test]
    fn bulk_runner_agrees_with_stepwise_runs() {
        let m = matching_labels_nwa();
        let c = m.compile();
        let ab = Alphabet::ab();
        let cfg = NestedWordConfig {
            len: 40,
            allow_pending: true,
            ..Default::default()
        };
        for seed in 0..50u64 {
            let w = random_nested_word(&ab, cfg, seed);
            let events = w.to_tagged();
            assert_eq!(
                c.run_tagged(&events),
                query::run_stream(&m, events.iter().copied()),
                "seed {seed}"
            );
        }
        // Deep nesting exercises the bulk runner's stack growth path.
        let deep: Vec<TaggedSymbol> = std::iter::repeat_n(TaggedSymbol::Call(Symbol(0)), 500)
            .chain(std::iter::repeat_n(TaggedSymbol::Return(Symbol(0)), 500))
            .collect();
        let outcome = c.run_tagged(&deep);
        assert_eq!(outcome, query::run_stream(&m, deep.iter().copied()));
        assert_eq!(outcome.peak_memory, 500);
    }
}
