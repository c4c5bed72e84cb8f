//! Compilation of automata into cache-friendly execution artifacts, and
//! the one dense-table engine every deterministic nested-word model
//! lowers into.
//!
//! The paper's headline operational claim (§3.2) is that nested-word
//! membership is decided in a *single left-to-right pass* in time linear in
//! the input. The model crates' interpreted runners already achieve the
//! asymptotics; [`Compile`] is the capability that makes the constant factor
//! competitive with the hardware: a model is lowered once into a dense-table
//! artifact — flat arrays indexed by precomputed row offsets, `u32` entries,
//! no per-event index arithmetic beyond one addition — and the artifact runs
//! the same [`StreamAcceptor`] protocol over
//! [`nested_words::TaggedSymbol`] events as the interpreted automaton.
//!
//! Compilation trades memory layout for speed, never language: for every
//! implementation the suite property-tests that the compiled artifact
//! accepts exactly the inputs the interpreted automaton accepts, event
//! counts, stack heights and peak memory included (`tests/compile.rs`).
//!
//! [`CompiledNwa`] is that engine for deterministic nested word automata:
//! it fuses the three transition functions into **one** flat `u32` table
//! over the tagged alphabet Σ̂ with premultiplied row offsets, so every
//! event resolves as one addition and one array load, and the event kind
//! enters the address as arithmetic on the discriminant rather than a
//! three-way dispatch. [`CompiledNwa::from_transitions`] builds it from
//! the three transition functions over plain state and symbol indices, so
//! any model that is a deterministic NWA (by the paper's embeddings) runs
//! on it without an engine of its own. The memory trade-off is the full
//! `states² × 3σ` return block, materialized up front; building panics on
//! automata whose offsets would overflow `u32`.
//!
//! Implementors in the suite:
//!
//! * `Nwa` → [`CompiledNwa`] (re-exported as `nwa::compile::CompiledNwa`);
//! * `DetStepwiseTA` → [`CompiledNwa`], through Lemma 1: a stepwise tree
//!   automaton is a bottom-up NWA whose return ignores its symbol, made
//!   total over arbitrary event streams by a top-level tracker and a dead
//!   state (see `tree_automata::api`);
//! * `Nnwa` → `nwa::compile::CompiledSummary` — the summary-set subset
//!   construction over interned state-pair sets with a memoized transition
//!   cache, so repeated event patterns hit precomputed rows instead of
//!   re-deriving the subset step; `JoinlessNwa` compiles to the same
//!   engine through its exact `to_nnwa` expansion;
//! * `Dfa` (over the tagged alphabet Σ̂) →
//!   `word_automata::compile::CompiledTaggedDfa` — one flat `states × Σ̂`
//!   next-state array.
//!
//! [`CompiledNwa`] is also [`Persist`] and [`Suspend`]: the payload is its
//! scalars plus the fused table, the push table and the acceptance bits,
//! and the loader re-derives the stride and range-checks **every** decoded
//! entry (linear states must be in-range row offsets, pushed values must
//! be return-block bases), so a loaded artifact can never index out of its
//! own tables. Its snapshots are self-contained: a state row offset plus a
//! stack of return-block bases, `check = 0`.

use crate::persist::{
    expect_alphabet, fingerprint_alphabet, fingerprint_payload, kind, FingerprintCell, Reader,
    Writer,
};
use crate::stream::{BatchAcceptor, Forms, LaneRun, StreamAcceptor, StreamOutcome};
use crate::suspend::{decode_steps, Snapshot, Suspend};
use crate::{Persist, PersistError};
use nested_words::{Symbol, TaggedSymbol};

/// Lowers an automaton into a dense, cache-friendly execution artifact that
/// streams [`nested_words::TaggedSymbol`] events through
/// [`StreamAcceptor`].
///
/// Laws (property-tested in `tests/compile.rs`):
///
/// 1. **language preservation** — for every event stream, the compiled run
///    accepts iff the interpreted run accepts, at every prefix;
/// 2. **observable equivalence** — event counts, stack heights and peak
///    memory agree with the interpreted run at every prefix.
///
/// Compilation is a one-time cost (linear in the transition-table size for
/// deterministic models); amortize it by compiling once and starting many
/// runs. See the implementors for the per-model memory trade-off.
///
/// ```
/// use automata_core::{query, Compile};
/// use nested_words::{Symbol, TaggedSymbol};
/// use nwa::NwaBuilder;
///
/// // Deterministic NWA over {a} accepting nested words of even length.
/// let a = Symbol(0);
/// let mut builder = NwaBuilder::new(2, 1, 0).accepting(0);
/// for q in 0..2usize {
///     builder = builder
///         .internal(q, a, 1 - q)
///         .call(q, a, 1 - q, 0)
///         .ret(q, 0, a, 1 - q)
///         .ret(q, 1, a, 1 - q);
/// }
/// let even = builder.build();
///
/// let compiled = even.compile();
/// let events = [TaggedSymbol::Call(a), TaggedSymbol::Return(a)];
/// assert_eq!(
///     query::run_stream(&compiled, events),
///     query::run_stream(&even, events),
/// );
/// ```
pub trait Compile {
    /// The compiled artifact: a self-contained acceptor over tagged-symbol
    /// event streams.
    type Compiled: StreamAcceptor;

    /// Lowers the automaton into its compiled form. The artifact is
    /// independent of `self` (it owns its tables), so it can outlive the
    /// automaton and be shared across runs.
    fn compile(&self) -> Self::Compiled;
}

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
/// internals before stepping (see [`BatchAcceptor::lane_step_slice`]), and
/// every lane **settles** once it reaches an absorbing state: from then on
/// it reads neither table nor stack and only counts stack height, whether
/// it runs alone or as an engine of an `nwa::QuerySet`.
///
/// Build one with [`CompiledNwa::from_transitions`], or with
/// [`Compile::compile`] (or `query::compile`) on a model that lowers into
/// it, and drive it through [`StreamAcceptor`], or hand a whole slice to
/// [`BatchAcceptor::run_tagged`]; it accepts exactly the streams the three
/// transition functions accept. A symbol outside its alphabet panics, as in
/// the interpreted automata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledNwa {
    /// Row stride of linear states: `max(3σ, 1)`.
    stride: u32,
    /// σ itself (`stride / 3`, kept separately for the band offsets).
    sigma: u32,
    num_states: usize,
    /// The fused table: linear block then return block.
    table: Vec<u32>,
    /// `push[q·3σ + a]` = absolute base of `δc^h(q, a)`'s block of return
    /// rows, so a return resolves as `T[pop() + state + 2σ + a]`.
    push: Vec<u32>,
    /// The pushed value for the initial state — what a pending return pops.
    pending_row: u32,
    /// Initial linear state, as a row offset.
    initial: u32,
    /// Acceptance by plain state index (`q`, not the row offset).
    accepting: Vec<bool>,
    /// Content hash over the tables (see [`Persist`]), stamped into
    /// snapshots and validated on resume. Computed on first use.
    fingerprint: FingerprintCell,
    /// `inert[a]`: `δi(q, a) = q` in every state, so an internal `a` never
    /// changes a run and the slice loop drops it. Derived from `table`
    /// (never serialized); its length is σ, so looking a symbol up is also
    /// the alphabet check.
    inert: Vec<bool>,
    /// Absorbing states as a bitset over row offsets: bit `q·3σ` is set
    /// iff every call, internal and return from `q`, for every symbol and
    /// stack symbol, lands on `q` — a sink whose verdict is fixed. Keyed by
    /// the row offset a lane holds, so checking a lane takes no division.
    /// Derived from `table`, never serialized.
    absorbing: Vec<u64>,
}

/// Events per compaction block of the slice loops: each block's kept
/// events gather in a stack buffer of this many slots before stepping.
pub const BLOCK: usize = 1024;

/// Whether a run must step `event`: `false` exactly for an internal whose
/// symbol is inert. The `inert` lookup doubles as the alphabet check, so a
/// symbol outside the automaton's alphabet panics here, on every kind.
#[inline(always)]
pub fn keeps(inert: &[bool], event: TaggedSymbol) -> bool {
    let a = event.symbol().index();
    let Some(&inert) = inert.get(a) else {
        outside_alphabet(a, inert.len())
    };
    !(inert && matches!(event, TaggedSymbol::Internal(_)))
}

/// The panic of an event symbol outside the alphabet, shared by every
/// interpreted and compiled engine: the symbol's column would otherwise
/// fall in a neighbouring row of the flat tables, or its summary step
/// would be memoized under a symbol no saved image can hold.
#[cold]
#[inline(never)]
pub fn outside_alphabet(a: usize, sigma: usize) -> ! {
    panic!("event symbol {a} is outside the automaton's {sigma}-symbol alphabet")
}

/// Copies the events of `block` a run must step into `kept` and returns
/// how many there are, showing every event read to `each` on the way.
/// Branch-free: every event is written, and the cursor advances only past
/// a kept one.
#[inline(always)]
pub fn compact(
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

/// A stack height after `event`: up one on a call, down one on a return,
/// except that a pending return (on an empty stack) leaves it at zero.
#[inline(always)]
pub fn next_height(height: usize, event: TaggedSymbol) -> usize {
    let is_call = usize::from(matches!(event, TaggedSymbol::Call(_)));
    let is_ret = usize::from(matches!(event, TaggedSymbol::Return(_)));
    (height + is_call).saturating_sub(is_ret)
}

/// The step of a settled run, over a whole slice: in an absorbing state
/// the verdict is fixed and no stack frame can be observed again, so only
/// the stack height and its peak move. Reads no table and no stack, and
/// still checks every event's symbol against the `sigma`-symbol alphabet.
/// The one loop behind a settled [`CompiledNwa`] lane and an
/// `nwa::QuerySet` lane whose engines have all retired.
#[inline]
pub fn step_heights(sigma: usize, events: &[TaggedSymbol], height: &mut usize, peak: &mut usize) {
    let (mut h, mut p) = (*height, *peak);
    for &event in events {
        let a = event.symbol().index();
        if a >= sigma {
            outside_alphabet(a, sigma);
        }
        h = next_height(h, event);
        p = p.max(h);
    }
    *height = h;
    *peak = p;
}

impl CompiledNwa {
    /// Builds the fused premultiplied table of the deterministic NWA with
    /// states `0..n`, symbols `0..sigma` and initial state `initial`, from
    /// its acceptance and its three transition functions over plain indices:
    /// `call(q, a)` is the pair (linear, hierarchical) `δc(q, a)`,
    /// `internal(q, a)` is `δi(q, a)` and `ret(q, h, a)` is `δr(q, h, a)`
    /// for the linear state `q` and the hierarchical state `h`.
    ///
    /// Panics if the table offsets would not fit `u32` (i.e.
    /// `(states + states²) · 3σ > u32::MAX`); such automata are beyond what
    /// the dense return block can represent and must use the interpreted
    /// runner.
    pub fn from_transitions(
        n: usize,
        sigma: usize,
        initial: usize,
        accepting: impl Fn(usize) -> bool,
        call: impl Fn(usize, Symbol) -> (usize, usize),
        internal: impl Fn(usize, Symbol) -> usize,
        ret: impl Fn(usize, usize, Symbol) -> usize,
    ) -> CompiledNwa {
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
                let (linear, hier) = call(q, sym);
                table[row + a] = (linear * stride) as u32;
                table[row + sigma + a] = (internal(q, sym) * stride) as u32;
                push[row + a] = ret_base(hier);
                for h in 0..n {
                    table[(n + h * n) * stride + row + 2 * sigma + a] =
                        (ret(q, h, sym) * stride) as u32;
                }
            }
        }
        let mut compiled = CompiledNwa {
            stride: stride as u32,
            sigma: sigma as u32,
            num_states: n,
            table,
            push,
            pending_row: ret_base(initial),
            initial: (initial * stride) as u32,
            accepting: (0..n).map(accepting).collect(),
            fingerprint: FingerprintCell::new(),
            inert: Vec::new(),
            absorbing: Vec::new(),
        };
        compiled.derive_step_facts();
        compiled
    }

    /// Derives [`inert`](CompiledNwa::is_inert) symbols and
    /// [`absorbing`](CompiledNwa::is_absorbing) states from the fused
    /// table, in O(n²σ) — the cost of building it. Run at compile time and
    /// again by `Persist::load` once the tables are validated.
    fn derive_step_facts(&mut self) {
        let (n, sigma, stride) = (self.num_states, self.sigma(), self.stride as usize);
        let row = |q: usize| q * stride;
        self.inert = (0..sigma)
            .map(|a| (0..n).all(|q| self.table[row(q) + sigma + a] == row(q) as u32))
            .collect();
        self.absorbing = vec![0; (n * stride).div_ceil(64)];
        for q in 0..n {
            let here = row(q) as u32;
            let calls_and_internals = &self.table[row(q)..row(q) + 2 * sigma];
            let absorbing = calls_and_internals.iter().all(|&t| t == here)
                && (0..n).all(|h| {
                    let returns = (n + h * n) * stride + row(q) + 2 * sigma;
                    self.table[returns..returns + sigma]
                        .iter()
                        .all(|&t| t == here)
                });
            self.absorbing[row(q) / 64] |= u64::from(absorbing) << (row(q) % 64);
        }
    }

    /// Whether symbol `a` is inert: `δi(q, a) = q` in every state `q`, so
    /// an internal `a` cannot change any run and the slice loop skips it.
    pub fn is_inert(&self, a: Symbol) -> bool {
        self.inert[a.index()]
    }

    /// Whether state `q` is absorbing: every call, internal and return
    /// from `q` lands on `q`, so a run there has a fixed verdict.
    pub fn is_absorbing(&self, q: usize) -> bool {
        assert!(q < self.num_states, "state {q} out of range");
        self.absorbing_row(q as u32 * self.stride)
    }

    /// Whether the state at row offset `row` is absorbing.
    #[inline(always)]
    fn absorbing_row(&self, row: u32) -> bool {
        self.absorbing[(row / 64) as usize] >> (row % 64) & 1 != 0
    }

    /// Whether `lane` sits in an absorbing state: it has *settled*, and
    /// from here on only its stack height moves.
    #[inline(always)]
    pub fn lane_settled(&self, lane: &CompiledNwaLane) -> bool {
        self.absorbing_row(lane.state)
    }

    /// Steps a settled lane over `events` by [`step_heights`]: `sp` and
    /// `max_sp` follow the stream while the state, the cached top and the
    /// spilled stack stay as they are. `sp` may then pass the end of
    /// `spilled`, which a settled lane never reads again. Leaves `steps`
    /// alone, like [`step_kept`](CompiledNwa::step_kept).
    fn step_settled(&self, lane: &mut CompiledNwaLane, events: &[TaggedSymbol]) {
        let mut height = lane.sp as usize - 1;
        let mut peak = lane.max_sp as usize - 1;
        step_heights(self.sigma(), events, &mut height, &mut peak);
        lane.sp = (height + 1) as u32;
        lane.max_sp = (peak + 1) as u32;
    }

    /// The state `lane` sits in, as a plain state index.
    pub fn lane_state(&self, lane: &CompiledNwaLane) -> usize {
        (lane.state / self.stride) as usize
    }

    /// The register loop over events that must all be stepped: hoists the
    /// lane into locals — state, cached top, stack pointer and peak in
    /// registers, the spilled stack moved out of the lane rather than
    /// copied — and runs `step_local` per event. Leaves `steps` alone;
    /// the callers count the events they read, kept or not, and drop the
    /// events they need not step (see [`compact`]). The loop an
    /// `nwa::QuerySet` runs on each of its live engines.
    pub fn step_kept(&self, lane: &mut CompiledNwaLane, events: &[TaggedSymbol]) {
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

    /// Whether state `q` accepts.
    pub fn is_accepting(&self, q: usize) -> bool {
        self.accepting[q]
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

    /// The branch-free event step on explicit locals. `inline(always)` so
    /// the callers' locals stay register-promoted: the slice loop of
    /// [`BatchAcceptor::lane_step_slice`] keeps the whole lane state in
    /// registers for the duration of a block, and the stored-lane
    /// [`BatchAcceptor::lane_step`] reuses the same body. Only unsettled
    /// lanes get here: a settled one takes the height-only loop.
    ///
    /// The step is **branch-free on the event kind**: real event streams
    /// mix calls, internals and returns unpredictably, so any per-kind
    /// dispatch — including the arithmetic-per-arm `match` inside
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

    /// The inert symbols the slice loop already skips, so a scanner can
    /// drop their text words at the source.
    fn inert_symbols(&self) -> &[bool] {
        &self.inert
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
    state: u32,
    /// Cached top of the stack (a return-row base).
    top: u32,
    /// Stack pointer into `spilled`; the live height is `sp - 1` because
    /// `spilled[0]` is the pending-return sentinel. Once the lane has
    /// settled in an absorbing state only `sp` moves, and it may pass the
    /// end of `spilled`.
    sp: u32,
    /// Peak `sp` observed.
    max_sp: u32,
    /// Events consumed.
    steps: usize,
    /// The spilled stack; `spilled[sp - 1]` mirrors `top` after each
    /// internal or return step (after a call the register `top` is
    /// authoritative and the slot is dead). Frozen, with `top`, once the
    /// lane has settled.
    spilled: Vec<u32>,
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
    /// A lane that has settled in an absorbing state takes the height-only
    /// step instead (see [`lane_step_slice`](BatchAcceptor::lane_step_slice)).
    ///
    /// A symbol outside the alphabet panics, as in the interpreted `Nwa`:
    /// `state + σ + a` would otherwise land in the next row's call band.
    #[inline]
    fn lane_step(&self, lane: &mut CompiledNwaLane, event: TaggedSymbol) {
        lane.steps += 1;
        if self.lane_settled(lane) {
            self.step_settled(lane, &[event]);
            return;
        }
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
    }

    /// The compacted slice loop, the bulk entry point of the compiled
    /// engine: each block of at most 1024 events is first copied into a
    /// stack buffer without its inert internals (branch-free — every event
    /// is written, the cursor advances only past kept ones), then the kept
    /// events run through the register loop (see `step_local` for the
    /// step's anatomy), with state, cached top, stack pointer and peak in
    /// registers for the whole block. An inert internal changes neither
    /// the state nor the stack, so skipping it is exact. On documents where
    /// half the events are text words no query reads, that halves the
    /// steps. `steps` grows by the whole slice: it counts events read.
    ///
    /// A lane that starts a block in an absorbing state has **settled**: its
    /// verdict is fixed and its stack frames can no longer be observed, so
    /// the block runs the height-only loop instead — no table, no stack,
    /// only the stack height, its peak and the alphabet check. The check
    /// costs one lookup per block. Observables are exactly what stepping
    /// every event leaves, and snapshots of settled lanes are canonical
    /// (see `Suspend for CompiledNwa`), so they agree too.
    ///
    /// Language-equivalent to driving [`StreamAcceptor::start`] event by
    /// event (property-tested in `tests/compile.rs`).
    fn lane_step_slice(&self, lane: &mut CompiledNwaLane, events: &[TaggedSymbol]) {
        let mut kept = [TaggedSymbol::Internal(Symbol(0)); BLOCK];
        for block in events.chunks(BLOCK) {
            if self.lane_settled(lane) {
                self.step_settled(lane, block);
            } else {
                let n = compact(&self.inert, block, &mut kept, |_| {});
                self.step_kept(lane, &kept[..n]);
            }
        }
        lane.steps += events.len();
    }

    fn lane_accepting(&self, lane: &CompiledNwaLane) -> bool {
        self.accepting[self.lane_state(lane)]
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

    /// A settled lane reads no text: in an absorbing state every internal
    /// event lands back on the state.
    fn lane_reads_text(&self, lane: &CompiledNwaLane) -> bool {
        !self.lane_settled(lane)
    }

    /// A settled lane reads no name either: in an absorbing state every
    /// event lands back on the state, so only the stack height moves.
    fn lane_reads_names(&self, lane: &CompiledNwaLane) -> bool {
        !self.lane_settled(lane)
    }

    /// The height-only step of a settled lane over a window known by its
    /// forms: `sp` and `max_sp` follow the walk, as in `step_settled`, and
    /// `steps` counts the window's events. Forms carry no symbols, so
    /// unlike `step_heights` on the slice path there is no alphabet to
    /// check: a tag outside it reaches a lane only this way, by form, after
    /// the lane settled. Panics on a lane that has not settled.
    fn lane_step_forms(&self, lane: &mut CompiledNwaLane, forms: Forms) {
        assert!(self.lane_settled(lane), "tag forms for an unsettled lane");
        let mut height = lane.sp as usize - 1;
        let mut peak = lane.max_sp as usize - 1;
        forms.apply(&mut height, &mut peak);
        lane.sp = (height + 1) as u32;
        lane.max_sp = (peak + 1) as u32;
        lane.steps += forms.events;
    }
}

// --------------------------------------------------------------------------
// Persist and Suspend
// --------------------------------------------------------------------------

impl CompiledNwa {
    /// Serializes the scalars and tables — the payload [`Persist::save`]
    /// seals, and the bytes the content fingerprint hashes. One definition
    /// for both, so the fingerprint computed on first use equals the one a
    /// loader derives from [`Reader::payload_checksum`].
    fn write_payload(&self, w: &mut Writer) {
        w.put_u64(self.num_states as u64);
        w.put_u32(self.sigma);
        w.put_u32(self.initial);
        w.put_u32(self.pending_row);
        w.put_u32_slice(&self.table);
        w.put_u32_slice(&self.push);
        w.put_bools(&self.accepting);
    }

    /// Length of the linear block — one past the largest valid row offset.
    fn lin(&self) -> u32 {
        self.num_states as u32 * self.stride
    }

    /// A valid linear-state row offset: `q·stride` for some `q < n`.
    fn is_row(&self, v: u32) -> bool {
        v < self.lin() && v.is_multiple_of(self.stride)
    }

    /// A valid return-block base: `lin·(1 + h)` for some `h < n` — what
    /// `push` entries, `pending_row` and dense-engine stack frames hold.
    fn is_ret_base(&self, v: u32) -> bool {
        let lin = u64::from(self.lin());
        let v = u64::from(v);
        v != 0 && v % lin == 0 && v / lin <= self.num_states as u64
    }

    /// Validation for [`Suspend::resume_lane`]: the snapshot must come from
    /// this artifact and describe a state the tables can actually index.
    fn check_snapshot(&self, s: &Snapshot) -> Result<(), PersistError> {
        s.expect_fingerprint(self.fingerprint())?;
        if !self.is_row(s.state) {
            return Err(PersistError::Malformed {
                context: "snapshot state is not a row offset of this artifact",
            });
        }
        for &frame in &s.stack {
            if !self.is_ret_base(frame) {
                return Err(PersistError::Malformed {
                    context: "snapshot stack frame is not a return-block base",
                });
            }
        }
        if (s.peak as usize) < s.stack.len() {
            return Err(PersistError::Malformed {
                context: "snapshot peak below its stack height",
            });
        }
        if s.check != 0 {
            return Err(PersistError::Malformed {
                context: "dense-engine snapshots carry no integrity word",
            });
        }
        Ok(())
    }
}

impl Persist for CompiledNwa {
    const KIND: u16 = kind::COMPILED_NWA;

    fn save(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_payload(&mut w);
        w.seal(Self::KIND, self.alphabet_fingerprint())
    }

    fn load(bytes: &[u8]) -> Result<Self, PersistError> {
        let (alphabet, mut r) = Reader::open(bytes, Self::KIND)?;
        // `open` just hashed the whole payload; the content fingerprint
        // derives from that same walk instead of re-hashing the tables.
        let fingerprint = fingerprint_payload(Self::KIND, r.payload_checksum());
        let n = usize::try_from(r.get_u64()?).map_err(|_| PersistError::Malformed {
            context: "state count overflows",
        })?;
        let sigma = r.get_u32()?;
        let initial = r.get_u32()?;
        let pending_row = r.get_u32()?;
        let table = r.get_u32_vec()?;
        let push = r.get_u32_vec()?;
        let accepting = r.get_bool_vec()?;
        r.finish()?;
        expect_alphabet(alphabet, sigma as usize)?;
        if n == 0 {
            return Err(PersistError::Malformed {
                context: "compiled NWA with no states",
            });
        }
        let stride = (3 * u64::from(sigma)).max(1);
        let table_len = (n as u64)
            .checked_add(
                (n as u64)
                    .checked_mul(n as u64)
                    .ok_or(PersistError::Malformed {
                        context: "table size overflows",
                    })?,
            )
            .and_then(|x| x.checked_mul(stride))
            .ok_or(PersistError::Malformed {
                context: "table size overflows",
            })?;
        if u32::try_from(table_len).is_err() {
            return Err(PersistError::Malformed {
                context: "table size exceeds the u32 offset space",
            });
        }
        if table.len() as u64 != table_len {
            return Err(PersistError::Malformed {
                context: "fused table length disagrees with the state count",
            });
        }
        if push.len() as u64 != (n as u64) * stride {
            return Err(PersistError::Malformed {
                context: "push table length disagrees with the state count",
            });
        }
        if accepting.len() != n {
            return Err(PersistError::Malformed {
                context: "acceptance table length disagrees with the state count",
            });
        }
        let mut artifact = CompiledNwa {
            stride: stride as u32,
            sigma,
            num_states: n,
            table,
            push,
            pending_row,
            initial,
            accepting,
            fingerprint: FingerprintCell::known(fingerprint),
            inert: Vec::new(),
            absorbing: Vec::new(),
        };
        if !artifact.is_row(artifact.initial) {
            return Err(PersistError::Malformed {
                context: "initial state is not a row offset",
            });
        }
        if !artifact.is_ret_base(artifact.pending_row) {
            return Err(PersistError::Malformed {
                context: "pending-return row is not a return-block base",
            });
        }
        // Every decoded entry is range-checked before the artifact can ever
        // run: states must be row offsets (so `state + kind·σ + a + base`
        // stays inside the table) and pushed values return-block bases.
        // `push` is only ever indexed in the call band `q·stride + a` with
        // `a < σ`; the rest of each row is dead and canonically zero.
        for (i, &v) in artifact.push.iter().enumerate() {
            let live = (i as u64 % stride) < u64::from(sigma);
            if live && !artifact.is_ret_base(v) {
                return Err(PersistError::Malformed {
                    context: "push entry is not a return-block base",
                });
            }
            if !live && v != 0 {
                return Err(PersistError::Malformed {
                    context: "dead push entry is not zero",
                });
            }
        }
        // The fused table is by far the largest section (n·(1+n)·stride
        // entries), so its per-entry check avoids the `% stride` hardware
        // divide of `is_row`: valid row offsets are the n multiples of
        // `stride` below `lin`, a lookup table built in O(lin).
        let lin = artifact.lin() as usize;
        let mut row_lut = vec![false; lin];
        let mut row = 0;
        while row < lin {
            row_lut[row] = true;
            row += artifact.stride as usize;
        }
        if artifact
            .table
            .iter()
            .any(|&v| (v as usize) >= lin || !row_lut[v as usize])
        {
            return Err(PersistError::Malformed {
                context: "table entry is not a row offset",
            });
        }
        // The skip facts are not part of the image: they are re-derived
        // from the tables just validated.
        artifact.derive_step_facts();
        Ok(artifact)
    }

    /// Content hash over the serialized payload, computed on first use and
    /// stamped into every snapshot. A loaded artifact has it already:
    /// loaders fold it out of the checksum pass [`Reader::open`] made (one
    /// integrity walk, not two).
    fn fingerprint(&self) -> u64 {
        self.fingerprint
            .get_or_hash(Self::KIND, |w| self.write_payload(w))
    }

    fn alphabet_fingerprint(&self) -> u64 {
        fingerprint_alphabet(self.sigma as usize)
    }
}

impl Suspend for CompiledNwa {
    /// A settled lane (one in an absorbing state) suspends to its
    /// canonical snapshot: `height` frames, all `pending_row`. No frame of
    /// a settled run can be observed again, and its spilled stack stopped
    /// following the stream when it settled — at a block's end on the
    /// slice path, at the event on the per-event path — so the canonical
    /// frames are what makes the two paths' snapshots agree.
    fn suspend_lane(&self, lane: &CompiledNwaLane) -> Snapshot {
        let sp = lane.sp as usize;
        let stack = if self.lane_settled(lane) {
            vec![self.pending_row; sp - 1]
        } else {
            // The logical stack is spilled[1..sp] — minus the sentinel —
            // except that after a call the register `top` is authoritative
            // and the top slot is stale, so overwrite it.
            let mut stack = lane.spilled[1..sp].to_vec();
            if let Some(top_slot) = stack.last_mut() {
                *top_slot = lane.top;
            }
            stack
        };
        Snapshot {
            fingerprint: self.fingerprint(),
            state: lane.state,
            stack,
            peak: lane.max_sp - 1,
            steps: lane.steps as u64,
            check: 0,
        }
    }

    fn resume_lane(&self, snapshot: &Snapshot) -> Result<CompiledNwaLane, PersistError> {
        self.check_snapshot(snapshot)?;
        let height = snapshot.stack.len();
        let mut spilled = Vec::with_capacity((height + 1).max(64));
        spilled.push(self.pending_row);
        spilled.extend_from_slice(&snapshot.stack);
        if spilled.len() < 64 {
            spilled.resize(64, self.pending_row);
        }
        Ok(CompiledNwaLane {
            state: snapshot.state,
            top: snapshot.stack.last().copied().unwrap_or(self.pending_row),
            sp: u32::try_from(height + 1).map_err(|_| PersistError::Malformed {
                context: "snapshot stack too deep for a lane",
            })?,
            max_sp: snapshot
                .peak
                .checked_add(1)
                .ok_or(PersistError::Malformed {
                    context: "snapshot peak overflows",
                })?,
            steps: decode_steps(snapshot.steps)?,
            spilled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A settled lane counts the stack without storing it: 10⁵-deep
    /// nesting after settling grows no spilled stack, through the slice
    /// loop or the per-event step, while height and peak stay exact.
    #[test]
    fn settled_lanes_do_not_grow_the_spilled_stack() {
        let a = Symbol(0);
        // Accepts once a call `a` has been read, in the absorbing state 1.
        let c = CompiledNwa::from_transitions(
            2,
            2,
            0,
            |q| q == 1,
            |q, sym| (usize::from(q == 1 || sym == a), 0),
            |q, _| q,
            |q, _, _| q,
        );
        let deep = 100_000;
        let b = TaggedSymbol::Call(Symbol(1));
        let nest = vec![b; deep];
        for sliced in [true, false] {
            let mut lane = c.lane_start();
            c.lane_step_slice(&mut lane, &[b, TaggedSymbol::Call(a)]);
            assert!(c.lane_settled(&lane));
            let spilled = lane.spilled.len();
            if sliced {
                c.lane_step_slice(&mut lane, &nest);
            } else {
                nest.iter().for_each(|&e| c.lane_step(&mut lane, e));
            }
            assert_eq!(lane.spilled.len(), spilled, "sliced {sliced}");
            assert_eq!(c.lane_stack_height(&lane), deep + 2, "sliced {sliced}");
            let outcome = c.lane_outcome(&lane);
            assert!(outcome.accepted);
            assert_eq!(outcome.peak_memory, deep + 2, "sliced {sliced}");
            assert_eq!(outcome.events, deep + 2, "sliced {sliced}");
        }
    }
}
