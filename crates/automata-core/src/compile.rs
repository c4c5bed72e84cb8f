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
//! with premultiplied row offsets, so every event resolves as one addition
//! and one array load, and the event kind enters the address as arithmetic
//! on the discriminant rather than a three-way dispatch.
//! [`CompiledNwa::from_transitions`] builds it from the three transition
//! functions over plain state and symbol indices, so any model that is a
//! deterministic NWA (by the paper's embeddings) runs on it without an
//! engine of its own.
//!
//! The table is sized by what the automaton can tell apart, not by σ: the
//! build groups the symbols of each event kind into **classes** of equal
//! columns — the symbol equivalence classes of lexer generators and the
//! byte classes of DFA regex engines — and gives each class one column.
//! A document query tells apart one to three symbols per kind, so its
//! table takes about `n·(k_c + k_i) + n²·k_r` entries for `k_c`, `k_i`,
//! `k_r` call, internal and return classes, plus a `3σ`-entry column map.
//! Classes change no language; building panics on automata whose dense
//! image (see [`Persist`] below) would overflow `u32` offsets.
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
//! [`CompiledNwa`] is also [`Persist`] and [`Suspend`]. Classes are never
//! serialized: the image keeps the **dense** layout, one column per
//! tagged symbol (`q·3σ` row offsets, a `(1 + h)·n·3σ` return base per
//! hierarchical state `h`), so images, fingerprints and snapshots do not
//! depend on how the tables are laid out in memory. The payload is the
//! scalars plus the dense fused table, push table and acceptance bits;
//! the loader range-checks **every** decoded entry (linear states must be
//! in-range row offsets, pushed values return-block bases, unwritten
//! entries zero) and derives the classes again, so a loaded artifact can
//! never index out of its own tables. Its snapshots are self-contained: a
//! dense state row offset plus a stack of dense return-block bases,
//! `check = 0`, translated on suspend and resume.

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
/// its symbol classes, with premultiplied row offsets (see the
/// [module docs](self) for the design rationale).
///
/// The build partitions Σ per event kind into classes of equal columns:
/// `k_c` call, `k_i` internal and `k_r` return classes. A per-engine
/// **column map** `cols[kind·σ + a]` (indexed exactly by
/// [`TaggedSymbol::tagged_index`]) turns every event into an in-row
/// offset: call classes `0..k_c`, internal classes `k_c..k_c + k_i`, and
/// return classes `0..k_r` of a return slot. A linear state `q` is the row
/// offset `q·W` for a stride `W ≥ k_c + k_i` that is a multiple of `k_r`,
/// and the fused table `T` concatenates
///
/// * the **linear block** (`n·W` entries): `T[q·W + c] = δc^l(q,a)·W` for
///   the call class `c` of `a`, and `T[q·W + k_c + c] = δi(q,a)·W` for its
///   internal class, and
/// * the **return region** (about `n²·k_r` entries): each hierarchical
///   state `h` owns a return slot at base `B(h)`, and for a return the
///   stack supplies that base, so `T[B(h) + q·W + c] = δr(q,h,a)·W` for
///   the return class `c` of `a`. The slots interleave: `W / k_r` of them
///   share one `n·W` span, each in its own band of every row, so no band
///   of the region goes unwritten, then
/// * the **push block** (`n·W` entries, at `P`): `T[P + q·W + c] = B(h)`
///   for `h = δc^h(q, a)` and the call class `c` of `a`, and last
/// * the absorbing bitset (one bit per row offset, see below).
///
/// One event is therefore *one* add-and-load wherever it lands: a call
/// additionally pushes `T[P + q·W + c]` (the matching return base), a
/// return pops (an empty stack pops the initial state's base — the
/// pending-return rule of §3.1). Crucially the column lookup
/// `cols[kind·σ + a]` depends on the event alone and the decode is plain
/// arithmetic on the event discriminant — unlike a three-way dispatch it
/// never branches on the (unpredictable) event kind, which is where the
/// interpreted runner's cycles go.
///
/// Compilation also derives two facts from the table, over classes, and
/// recomputes them on load rather than storing them: the **inert**
/// symbols, whose internal class is the identity in every state, and the
/// **absorbing** states, which every class maps back to themselves. The
/// slice loop drops inert internals before stepping (see
/// [`BatchAcceptor::lane_step_slice`]), and every lane **settles** once it
/// reaches an absorbing state: from then on it reads neither table nor
/// stack and only counts stack height, whether it runs alone or as an
/// engine of an `nwa::QuerySet`.
///
/// Build one with [`CompiledNwa::from_transitions`], or with
/// [`Compile::compile`] (or `query::compile`) on a model that lowers into
/// it, and drive it through [`StreamAcceptor`], or hand a whole slice to
/// [`BatchAcceptor::run_tagged`]; it accepts exactly the streams the three
/// transition functions accept. A symbol outside its alphabet panics, as in
/// the interpreted automata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledNwa {
    /// Row stride `W` of linear states: at least `k_c + k_i`, a multiple
    /// of `max(k_r, 1)`.
    stride: u32,
    sigma: u32,
    num_states: usize,
    /// Class counts `[k_c, k_i, k_r]` per event kind (all 0 when σ = 0).
    classes: [u32; 3],
    /// The column map: `cols[kind·σ + a]` is the in-row offset of event
    /// `a` of kind `kind` (0 call, 1 internal, 2 return). Its length 3σ
    /// covers every tagged symbol.
    cols: Vec<u32>,
    /// The fused table: linear block, return region, the push block, then
    /// the absorbing bitset. One allocation holds every step table but the
    /// column map, so a compile of a small automaton makes few.
    table: Vec<u32>,
    /// Where the push block starts: `T[push_at + q·W + c]` is the return
    /// base `B(δc^h(q, a))` for call class `c` of `a`, so a return resolves
    /// as `T[pop() + state + c']`. Indexed like the linear block; only the
    /// call band is read.
    push_at: u32,
    /// The pushed value for the initial state — what a pending return pops.
    pending_row: u32,
    /// Initial linear state, as a row offset.
    initial: u32,
    /// Where the absorbing bitset starts, over row offsets in `u32` words:
    /// bit `q·W` is set iff every call, internal and return class from
    /// `q`, for every stack symbol, lands on `q` — a sink whose verdict is
    /// fixed. Keyed by the row offset a lane holds, so checking a lane
    /// takes no division. Derived from the table, never serialized.
    absorbing_at: u32,
    /// Acceptance by plain state index (`q`, not the row offset), then the
    /// inert flags: `flags[n + a]` says `δi(q, a) = q` in every state, so
    /// an internal `a` never changes a run and the slice loop drops it —
    /// the flag of `a`'s internal class, spread over the symbols as the
    /// projection [`StreamAcceptor::inert_symbols`] hands to scanners. The
    /// inert flags are derived from the table (never serialized); there
    /// are σ of them, so looking a symbol up is also the alphabet check.
    flags: Vec<bool>,
    /// Content hash over the dense image (see [`Persist`]), stamped into
    /// snapshots and validated on resume. Computed on first use.
    fingerprint: FingerprintCell,
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

/// The symbol classes of an automaton under construction, per event kind
/// (0 call, 1 internal, 2 return): two symbols of a kind share a class iff
/// every row of the kind's transition function (a linear state, or a
/// linear and a hierarchical state) maps them alike. Rows come one at a
/// time, in the order the source lays them out, and refine the classes
/// found so far. A class keeps the first symbol it was found with.
struct Partition {
    /// `cols[kind·σ + a]`: the class of symbol `a` among its kind's.
    cols: Vec<u32>,
    /// Every class found, the kinds' classes one after another.
    classes: Vec<Class>,
    /// Class counts per kind.
    counts: [usize; 3],
    /// The kind being refined.
    kind: usize,
}

/// One class of a [`Partition`]: its first symbol, and while a row refines
/// the classes, the row's value at that symbol and, for a class split off
/// in the row, the class it split off.
#[derive(Clone, Copy)]
struct Class {
    first: Symbol,
    value: usize,
    parent: usize,
}

impl Partition {
    #[inline]
    fn new(sigma: usize) -> Partition {
        Partition {
            cols: vec![0; 3 * sigma],
            classes: Vec::with_capacity(4),
            counts: [0; 3],
            kind: 0,
        }
    }

    /// Starts on `kind`'s symbols, all in one class.
    #[inline]
    fn begin(&mut self, kind: usize) {
        self.kind = kind;
        if !self.cols.is_empty() {
            self.classes.push(Class {
                first: Symbol(0),
                value: 0,
                parent: 0,
            });
            self.counts[kind] = 1;
        }
    }

    /// Refines the current kind's classes by the row that maps symbol `a`
    /// to `value(a)`: each symbol whose value differs from its class's
    /// first symbol's moves to the class split off its class with that
    /// value, made on first need. While there is one class, a row that
    /// splits nothing is one compare per symbol.
    #[inline(always)]
    fn refine(&mut self, value: impl Fn(Symbol) -> usize) {
        let Partition {
            cols,
            classes,
            counts,
            kind,
        } = self;
        let (sigma, known) = (cols.len() / 3, counts[*kind]);
        if sigma == 0 {
            return;
        }
        if known == 1 {
            let v = value(Symbol(0));
            if (1..sigma).all(|a| value(Symbol(a as u16)) == v) {
                return;
            }
        }
        let first = classes.len() - known;
        for class in &mut classes[first..] {
            class.value = value(class.first);
        }
        let class = &mut cols[*kind * sigma..(*kind + 1) * sigma];
        for (a, class) in class.iter_mut().enumerate() {
            let (a, c) = (Symbol(a as u16), *class as usize);
            let v = value(a);
            if v != classes[first + c].value {
                let split = &classes[first + known..];
                *class = match split.iter().position(|d| (d.value, d.parent) == (v, c)) {
                    Some(d) => known + d,
                    None => {
                        classes.push(Class {
                            first: a,
                            value: v,
                            parent: c,
                        });
                        classes.len() - first - 1
                    }
                } as u32;
            }
        }
        counts[*kind] = classes.len() - first;
    }
}

/// The return bases `B(0), B(1), …` of a classed table in order of
/// hierarchical state: slot by slot through each `n·W` span.
#[derive(Clone)]
struct RetBases {
    next: usize,
    left: usize,
    /// Slots left in the current span.
    in_span: usize,
    width: usize,
    slots: usize,
    /// From one past a span's last slot to the next span's first.
    skip: usize,
}

impl Iterator for RetBases {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.left = self.left.checked_sub(1)?;
        let base = self.next;
        self.next += self.width;
        self.in_span -= 1;
        if self.in_span == 0 {
            self.next += self.skip;
            self.in_span = self.slots;
        }
        Some(base)
    }
}

impl CompiledNwa {
    /// Builds the fused premultiplied table of the deterministic NWA with
    /// states `0..n`, symbols `0..sigma` and initial state `initial`, from
    /// its acceptance and its three transition functions over plain indices:
    /// `call(q, a)` is the pair (linear, hierarchical) `δc(q, a)`,
    /// `internal(q, a)` is `δi(q, a)` and `ret(q, h, a)` is `δr(q, h, a)`
    /// for the linear state `q` and the hierarchical state `h`. The
    /// closures are read row by row, symbols innermost: every argument
    /// tuple once to find the symbol classes, then each class's first
    /// symbol again to fill its column.
    ///
    /// Panics if `initial` is not a state, if `sigma` exceeds the `2¹⁶`
    /// symbols a [`Symbol`] can name, or if the dense image offsets
    /// would not fit `u32` (i.e. `(states + states²) · 3σ > u32::MAX`):
    /// such automata have no image or snapshot (see [`Persist`]) and must
    /// use the interpreted runner.
    pub fn from_transitions(
        n: usize,
        sigma: usize,
        initial: usize,
        accepting: impl Fn(usize) -> bool,
        call: impl Fn(usize, Symbol) -> (usize, usize),
        internal: impl Fn(usize, Symbol) -> usize,
        ret: impl Fn(usize, usize, Symbol) -> usize,
    ) -> CompiledNwa {
        assert!(initial < n, "initial state {initial} out of range");
        assert!(sigma <= 1 << 16, "alphabet larger than the symbol type");
        let dense = n
            .checked_add(n.checked_mul(n).expect("table size overflows usize"))
            .and_then(|x| x.checked_mul((3 * sigma).max(1)))
            .expect("table size overflows usize");
        assert!(
            u32::try_from(dense).is_ok(),
            "automaton too large to compile: (states + states^2) * 3*sigma must fit u32"
        );
        let mut flags = Vec::with_capacity(n + sigma);
        flags.extend((0..n).map(accepting));
        CompiledNwa::build(n, sigma, initial, flags, call, internal, ret)
    }

    /// The classed engine of the automaton `from_transitions` describes,
    /// with `flags` holding its acceptance: partitions Σ per kind, lays out
    /// the classed rows, fills each class's column from its first symbol,
    /// noting the absorbing states on the way, and derives the inert
    /// symbols. The caller has checked the dense size.
    ///
    /// Its helpers are inlined, and the engine takes three allocations
    /// (column map, table, flags) plus one scratch: a one-query service
    /// compiles a small automaton once, cold, where the time goes to cache,
    /// TLB and allocator misses, so the code it runs sits in one place.
    fn build(
        n: usize,
        sigma: usize,
        initial: usize,
        flags: Vec<bool>,
        call: impl Fn(usize, Symbol) -> (usize, usize),
        internal: impl Fn(usize, Symbol) -> usize,
        ret: impl Fn(usize, usize, Symbol) -> usize,
    ) -> CompiledNwa {
        // A call's pair of states compares as the one value `linear·n + hier`.
        let mut p = Partition::new(sigma);
        p.begin(0);
        for q in 0..n {
            p.refine(|a| {
                let (linear, hier) = call(q, a);
                linear * n + hier
            });
        }
        p.begin(1);
        for q in 0..n {
            p.refine(|a| internal(q, a));
        }
        p.begin(2);
        for q in 0..n {
            for h in 0..n {
                p.refine(|a| ret(q, h, a));
            }
        }
        let (mut c, classes) = CompiledNwa::with_classes(n, initial, flags, p);
        let [kc, ki, _] = c.num_classes();
        let (calls, rest) = classes.split_at(kc);
        let (internals, returns) = rest.split_at(ki);
        let (stride, push_at) = (c.stride as usize, c.push_at as usize);
        let at = |q: usize| (q * stride) as u32;
        for q in 0..n {
            let row = q * stride;
            // Whether every class from `q` lands on `q`.
            let mut absorbing = true;
            for (k, class) in calls.iter().enumerate() {
                let (linear, hier) = call(q, class.first);
                c.table[row + k] = at(linear);
                c.table[push_at + row + k] = c.ret_base(hier);
                absorbing &= linear == q;
            }
            for (k, class) in internals.iter().enumerate() {
                let target = internal(q, class.first);
                c.table[row + kc + k] = at(target);
                absorbing &= target == q;
            }
            for (h, base) in c.ret_bases().enumerate() {
                for (k, class) in returns.iter().enumerate() {
                    let target = ret(q, h, class.first);
                    c.table[base + row + k] = at(target);
                    absorbing &= target == q;
                }
            }
            c.table[c.absorbing_at as usize + row / 32] |= u32::from(absorbing) << (row % 32);
        }
        c.derive_inert();
        c
    }

    /// The engine laid out for the classes of `p` over `n` states, with
    /// zeroed tables, and the classes' first symbols: call classes, then
    /// internal, then return. The stride `W` is the least multiple of the
    /// return width at least `k_c + k_i`; the column map turns classes into
    /// in-row offsets.
    #[inline(always)]
    fn with_classes(
        n: usize,
        initial: usize,
        flags: Vec<bool>,
        mut p: Partition,
    ) -> (CompiledNwa, Vec<Class>) {
        let sigma = p.cols.len() / 3;
        let [kc, ki, kr] = p.counts;
        let width = kr.max(1);
        let stride = (kc + ki).max(1).div_ceil(width) * width;
        let (lin, slots) = (n * stride, stride / width);
        let last = lin + (n - 1) / slots * lin + (n - 1) % slots * width;
        let push_at = last + lin - stride + width;
        let absorbing_at = push_at + lin;
        let table_len = absorbing_at + lin.div_ceil(32);
        assert!(
            u32::try_from(table_len).is_ok(),
            "classed table overflows u32"
        );
        for c in &mut p.cols[sigma..2 * sigma] {
            *c += kc as u32;
        }
        let mut c = CompiledNwa {
            stride: stride as u32,
            sigma: sigma as u32,
            num_states: n,
            classes: p.counts.map(|k| k as u32),
            cols: p.cols,
            table: vec![0; table_len],
            push_at: push_at as u32,
            pending_row: 0,
            initial: (initial * stride) as u32,
            absorbing_at: absorbing_at as u32,
            flags,
            fingerprint: FingerprintCell::new(),
        };
        c.pending_row = c.ret_base(initial);
        (c, p.classes)
    }

    /// Derives the [`inert`](CompiledNwa::is_inert) symbols from the filled
    /// table, in O(nσ): those whose internal class is the identity.
    #[inline(always)]
    fn derive_inert(&mut self) {
        let (n, sigma, stride) = (self.num_states, self.sigma(), self.stride as usize);
        for a in 0..sigma {
            let col = self.cols[sigma + a] as usize;
            let inert = (0..n).all(|q| self.table[q * stride + col] == (q * stride) as u32);
            self.flags.push(inert);
        }
    }

    /// Width of a return slot: `max(k_r, 1)`.
    #[inline]
    fn ret_width(&self) -> u32 {
        self.classes[2].max(1)
    }

    /// The return base `B(h)` of hierarchical state `h`: slot `h mod s` of
    /// span `h / s`, for the `s = W / max(k_r, 1)` slots per `n·W` span.
    #[inline]
    fn ret_base(&self, h: usize) -> u32 {
        let (lin, width) = (self.lin() as usize, self.ret_width() as usize);
        let slots = self.stride as usize / width;
        (lin + h / slots * lin + h % slots * width) as u32
    }

    /// The return bases of every hierarchical state, in order: what
    /// [`ret_base`](CompiledNwa::ret_base) gives, without a division each.
    #[inline]
    fn ret_bases(&self) -> RetBases {
        let (lin, width) = (self.lin() as usize, self.ret_width() as usize);
        let slots = self.stride as usize / width;
        RetBases {
            next: lin,
            left: self.num_states,
            in_span: slots,
            width,
            slots,
            skip: lin - self.stride as usize,
        }
    }

    /// The hierarchical state whose return base is `base`.
    fn ret_block(&self, base: u32) -> usize {
        let (lin, width) = (self.lin() as usize, self.ret_width() as usize);
        let off = base as usize - lin;
        off / lin * (self.stride as usize / width) + off % lin / width
    }

    /// Whether symbol `a` is inert: `δi(q, a) = q` in every state `q`, so
    /// an internal `a` cannot change any run and the slice loop skips it.
    pub fn is_inert(&self, a: Symbol) -> bool {
        self.inert()[a.index()]
    }

    /// The inert flags, one per symbol.
    fn inert(&self) -> &[bool] {
        &self.flags[self.num_states..]
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
        self.table[(self.absorbing_at + row / 32) as usize] >> (row % 32) & 1 != 0
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
        self.flags[q]
    }

    /// Number of states of the source automaton.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Alphabet size of the source automaton.
    pub fn sigma(&self) -> usize {
        self.sigma as usize
    }

    /// Bytes occupied by the step tables — the fused table, its push block
    /// and the `3σ`-entry column map: about `(n·(k_c + k_i) + n²·k_r +
    /// n·W + 3σ)·4` for `k_c`, `k_i`, `k_r` call, internal and return
    /// classes, the return region dominating once states outnumber
    /// symbols. The absorbing bitset (`n·W / 32` words) is not counted.
    pub fn table_bytes(&self) -> usize {
        (self.absorbing_at as usize + self.cols.len()) * std::mem::size_of::<u32>()
    }

    /// Number of symbol classes per event kind, `[calls, internals,
    /// returns]`: symbols of one kind share a class iff the automaton maps
    /// them alike in every state. Each class is one table column.
    #[inline]
    pub fn num_classes(&self) -> [usize; 3] {
        self.classes.map(|k| k as usize)
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
    /// 1. decodes to `kind·σ + a` by pure arithmetic on the discriminant
    ///    and looks up its column `col = cols[kind·σ + a]` — a load that
    ///    depends on the event alone, off the state's dependency chain,
    /// 2. unconditionally writes its would-be push (`T[P + state + col]`)
    ///    into the next free stack slot,
    /// 3. resolves `state = T[state + col + (top & ret_mask)]` — one load,
    ///    with the return base masked in only when the event is a return —
    ///    and
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
        let col = self.cols[(kind * sigma + a) as usize];
        // Predictable (amortized-rare) growth branch, never a per-kind one.
        if *sp + 1 >= spilled.len() {
            spilled.resize(spilled.len() * 2, 0);
        }
        // Unconditional spill of the cached top into its memory home
        // `sp - 1` (a call's push must preserve it there; harmless
        // otherwise — the slot is dead while the top lives in the
        // register), then one add-and-load resolves the event, with the
        // return base masked in only for returns.
        spilled[*sp - 1] = *top;
        let ret_mask = is_ret.wrapping_neg();
        let pushed = self.table[(self.push_at + *state + col) as usize];
        *state = self.table[(*state + col + (*top & ret_mask)) as usize];
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
        self.inert()
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
    /// `cols[kind·σ + a]` would otherwise read the next kind's column.
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
                let n = compact(self.inert(), block, &mut kept, |_| {});
                self.step_kept(lane, &kept[..n]);
            }
        }
        lane.steps += events.len();
    }

    fn lane_accepting(&self, lane: &CompiledNwaLane) -> bool {
        self.flags[self.lane_state(lane)]
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

/// The dense layout of images and snapshots: linear state `q` at row
/// offset `q·S` for the stride `S = max(3σ, 1)`, tagged symbol `kind·σ + a`
/// at column `kind·σ + a`, and hierarchical state `h`'s return block at
/// base `(1 + h)·n·S`. The classed tables translate to and from it.
#[derive(Debug, Clone, Copy)]
struct Dense {
    n: u64,
    stride: u64,
}

impl Dense {
    fn new(n: usize, sigma: u32) -> Dense {
        Dense {
            n: n as u64,
            stride: (3 * u64::from(sigma)).max(1),
        }
    }

    /// Length of the linear block, `n·S`.
    fn lin(self) -> u64 {
        self.n * self.stride
    }

    /// The row offset of state `q`.
    fn row(self, q: usize) -> u32 {
        (q as u64 * self.stride) as u32
    }

    /// The return-block base of hierarchical state `h`.
    fn base(self, h: usize) -> u32 {
        ((1 + h as u64) * self.lin()) as u32
    }

    /// The state whose row offset is `v`, if `v` is one.
    fn state(self, v: u32) -> Option<usize> {
        let v = u64::from(v);
        (v < self.lin() && v.is_multiple_of(self.stride)).then(|| (v / self.stride) as usize)
    }

    /// The hierarchical state whose return-block base is `v`, if `v` is
    /// one — what `push` entries, `pending_row` and snapshot frames hold.
    fn block(self, v: u32) -> Option<usize> {
        let (v, lin) = (u64::from(v), self.lin());
        (v != 0 && v.is_multiple_of(lin) && v / lin <= self.n).then(|| (v / lin - 1) as usize)
    }
}

impl CompiledNwa {
    /// Serializes the scalars and the dense tables — the payload
    /// [`Persist::save`] seals, and the bytes the content fingerprint
    /// hashes. One definition for both, so the fingerprint computed on
    /// first use equals the one a loader derives from
    /// [`Reader::payload_checksum`].
    ///
    /// The dense tables are written entry by entry, each symbol's column
    /// read through the column map and translated to the dense layout, the
    /// entries no transition reads zero; no dense copy is made besides the
    /// payload itself.
    fn write_payload(&self, w: &mut Writer) {
        let (n, sigma, stride) = (self.num_states, self.sigma(), self.stride as usize);
        let dense = self.dense();
        let (ds, lin) = (dense.stride as usize, dense.lin() as usize);
        let (calls, rest) = self.cols.split_at(sigma);
        let (internals, returns) = rest.split_at(sigma);
        let zeros = |w: &mut Writer, k: usize| (0..k).for_each(|_| w.put_u32(0));
        w.put_u64(n as u64);
        w.put_u32(self.sigma);
        w.put_u32(self.dense_row(self.initial));
        w.put_u32(self.dense_base(self.pending_row));
        // The fused table: the linear rows' call and internal bands, then
        // per hierarchical state a block of rows holding their return band.
        w.put_u64((lin + n * lin) as u64);
        for q in 0..n {
            let row = q * stride;
            for &c in calls.iter().chain(internals) {
                w.put_u32(self.dense_row(self.table[row + c as usize]));
            }
            zeros(w, ds - 2 * sigma);
        }
        for base in self.ret_bases() {
            for q in 0..n {
                let slot = base + q * stride;
                zeros(w, 2 * sigma);
                for &c in returns {
                    w.put_u32(self.dense_row(self.table[slot + c as usize]));
                }
                zeros(w, ds - 3 * sigma);
            }
        }
        w.put_u64(lin as u64);
        for q in 0..n {
            for &c in calls {
                let push = self.push_at as usize + q * stride + c as usize;
                w.put_u32(self.dense_base(self.table[push]));
            }
            zeros(w, ds - sigma);
        }
        w.put_bools(&self.flags[..n]);
    }

    /// The dense layout of this artifact's images and snapshots.
    fn dense(&self) -> Dense {
        Dense::new(self.num_states, self.sigma)
    }

    /// The dense row offset of the state at classed row offset `row`.
    fn dense_row(&self, row: u32) -> u32 {
        self.dense().row((row / self.stride) as usize)
    }

    /// The dense return-block base of the classed return base `base`.
    fn dense_base(&self, base: u32) -> u32 {
        self.dense().base(self.ret_block(base))
    }

    /// Length of the linear block — one past the largest valid row offset.
    #[inline]
    fn lin(&self) -> u32 {
        self.num_states as u32 * self.stride
    }

    /// Validation for [`Suspend::resume_lane`]: the snapshot must come from
    /// this artifact and describe a state the tables can actually index.
    fn check_snapshot(&self, s: &Snapshot) -> Result<(), PersistError> {
        s.expect_fingerprint(self.fingerprint())?;
        let dense = self.dense();
        if dense.state(s.state).is_none() {
            return Err(PersistError::Malformed {
                context: "snapshot state is not a row offset of this artifact",
            });
        }
        if s.stack.iter().any(|&frame| dense.block(frame).is_none()) {
            return Err(PersistError::Malformed {
                context: "snapshot stack frame is not a return-block base",
            });
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

    /// Decodes and validates the dense image, then builds the classed
    /// engine from it as [`CompiledNwa::from_transitions`] builds one from
    /// an automaton. Every accepted image is one [`Persist::save`] writes
    /// back byte for byte: entries no transition reads must be zero.
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
        if sigma > 1 << 16 {
            return Err(PersistError::Malformed {
                context: "alphabet larger than the symbol type",
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
        let dense = Dense::new(n, sigma);
        let Some(initial) = dense.state(initial) else {
            return Err(PersistError::Malformed {
                context: "initial state is not a row offset",
            });
        };
        // The pending-return rule reads the initial state's return block;
        // no compile writes another, so no image may either.
        if pending_row != dense.base(initial) {
            return Err(PersistError::Malformed {
                context: "pending-return row is not the initial state's return-block base",
            });
        }
        // Every decoded entry is range-checked before the artifact is
        // built: states must be row offsets and pushed values return-block
        // bases. `push` is only ever read in the call band `q·S + a` with
        // `a < σ`; the rest of each row is dead and canonically zero.
        let (sigma, ds) = (sigma as usize, stride as usize);
        for (i, &v) in push.iter().enumerate() {
            let live = i % ds < sigma;
            if live && dense.block(v).is_none() {
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
        // The fused table is by far the largest section (n·(1+n)·S
        // entries), so its per-entry check avoids the `% S` hardware
        // divide of `Dense::state`: `state_of` maps the valid row offsets,
        // the n multiples of S below n·S, to their states. A linear row
        // reads its call and internal bands `0..2σ`, a return row its
        // return band `2σ..3σ`; every other entry is dead, and zero.
        const NONE: u32 = u32::MAX;
        let lin = n * ds;
        let mut state_of = vec![NONE; lin];
        for q in 0..n {
            state_of[q * ds] = q as u32;
        }
        for (r, row) in table.chunks_exact(ds).enumerate() {
            let live = if r < n {
                0..2 * sigma
            } else {
                2 * sigma..3 * sigma
            };
            for (c, &v) in row.iter().enumerate() {
                if !live.contains(&c) {
                    if v != 0 {
                        return Err(PersistError::Malformed {
                            context: "dead table entry is not zero",
                        });
                    }
                } else if state_of.get(v as usize).is_none_or(|&q| q == NONE) {
                    return Err(PersistError::Malformed {
                        context: "table entry is not a row offset",
                    });
                }
            }
        }
        let state = |v: u32| state_of[v as usize] as usize;
        let mut artifact = CompiledNwa::build(
            n,
            sigma,
            initial,
            accepting,
            |q, a| {
                let at = q * ds + a.index();
                (state(table[at]), u64::from(push[at]) as usize / lin - 1)
            },
            |q, a| state(table[q * ds + sigma + a.index()]),
            |q, h, a| state(table[(1 + h) * lin + q * ds + 2 * sigma + a.index()]),
        );
        artifact.fingerprint = FingerprintCell::known(fingerprint);
        Ok(artifact)
    }

    /// Content hash over the serialized payload, computed on first use and
    /// stamped into every snapshot. A loaded artifact has it already:
    /// loaders fold it out of the checksum pass [`Reader::open`] made (one
    /// integrity walk, not two). A compiled artifact hashes its dense
    /// payload on first use, so that first call (often a lane's first
    /// suspend) holds the whole dense image, `(n + n²)·3σ` words, for the
    /// moment, as [`Persist::save`] does.
    fn fingerprint(&self) -> u64 {
        self.fingerprint
            .get_or_hash(Self::KIND, |w| self.write_payload(w))
    }

    fn alphabet_fingerprint(&self) -> u64 {
        fingerprint_alphabet(self.sigma as usize)
    }
}

impl Suspend for CompiledNwa {
    /// Snapshots keep the dense layout: the state's dense row offset and
    /// the frames' dense return-block bases, translated from the classed
    /// ones. A settled lane (one in an absorbing state) suspends to its
    /// canonical snapshot: `height` frames, all the pending-return base.
    /// No frame of a settled run can be observed again, and its spilled
    /// stack stopped following the stream when it settled — at a block's
    /// end on the slice path, at the event on the per-event path — so the
    /// canonical frames are what makes the two paths' snapshots agree.
    fn suspend_lane(&self, lane: &CompiledNwaLane) -> Snapshot {
        let sp = lane.sp as usize;
        let stack = if self.lane_settled(lane) {
            vec![self.dense_base(self.pending_row); sp - 1]
        } else {
            // The logical stack is spilled[1..sp] — minus the sentinel —
            // except that after a call the register `top` is authoritative
            // and the top slot is stale, so overwrite it.
            let mut stack = lane.spilled[1..sp].to_vec();
            if let Some(top_slot) = stack.last_mut() {
                *top_slot = lane.top;
            }
            stack.iter().map(|&base| self.dense_base(base)).collect()
        };
        Snapshot {
            fingerprint: self.fingerprint(),
            state: self.dense_row(lane.state),
            stack,
            peak: lane.max_sp - 1,
            steps: lane.steps as u64,
            check: 0,
        }
    }

    fn resume_lane(&self, snapshot: &Snapshot) -> Result<CompiledNwaLane, PersistError> {
        self.check_snapshot(snapshot)?;
        let dense = self.dense();
        let classed = |frame: u32| self.ret_base(dense.block(frame).unwrap_or_default());
        let height = snapshot.stack.len();
        let mut spilled = Vec::with_capacity((height + 1).max(64));
        spilled.push(self.pending_row);
        spilled.extend(snapshot.stack.iter().map(|&frame| classed(frame)));
        let top = spilled[height];
        if spilled.len() < 64 {
            spilled.resize(64, self.pending_row);
        }
        let state = dense.state(snapshot.state).unwrap_or_default();
        Ok(CompiledNwaLane {
            state: state as u32 * self.stride,
            top,
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
mod oracle;

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

    /// An image over more symbols than a `Symbol` can name is refused, not
    /// built with its symbols wrapped round.
    #[test]
    fn images_beyond_the_symbol_type_are_refused() {
        let sigma = (1 << 16) + 1;
        let mut w = Writer::new();
        w.put_u64(1);
        w.put_u32(sigma);
        w.put_u32(0);
        w.put_u32(3 * sigma);
        w.put_u32_slice(&[]);
        w.put_u32_slice(&[]);
        w.put_bools(&[true]);
        let bytes = w.seal(kind::COMPILED_NWA, fingerprint_alphabet(sigma as usize));
        assert_eq!(
            CompiledNwa::load(&bytes),
            Err(PersistError::Malformed {
                context: "alphabet larger than the symbol type"
            })
        );
    }
}
