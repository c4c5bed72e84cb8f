//! Compiled execution engines: the hot-path automata lowered into dense,
//! cache-friendly tables behind the `automata-core`
//! [`Compile`] capability.
//!
//! The interpreted runners ([`StreamingRun`](crate::StreamingRun),
//! [`SummaryStreamingRun`](crate::summary::SummaryStreamingRun)) already
//! meet the paper's asymptotics — one pass, memory proportional to depth.
//! Compilation attacks the constant factor:
//!
//! * a deterministic [`Nwa`] compiles into [`CompiledNwa`], the dense-table
//!   engine of `automata-core` (re-exported here): its three transition
//!   functions fused into **one** flat `u32` table over the symbol
//!   classes of each event kind, with premultiplied row offsets, so every
//!   event resolves as one column lookup, one addition and one array
//!   load, with the event kind entering the address as arithmetic on the
//!   discriminant rather than a branch. The
//!   deterministic stepwise tree automata of `tree-automata` lower into
//!   the same engine (Lemma 1).
//! * [`CompiledSummary`] executes the summary-set subset construction of
//!   §3.2 over **interned** state-pair sets with a **memoized transition
//!   cache**: each distinct (summary, symbol) step is derived once from the
//!   nondeterministic relations and afterwards answered by a hash lookup,
//!   so streams with repeated event patterns run at deterministic-automaton
//!   speed after warm-up. It is the crate's only summary-set
//!   construction: it runs an [`Nnwa`], a [`JoinlessNwa`] compiles through
//!   [`JoinlessNwa::to_nnwa`], its four steps share one memo path, and
//!   [`Nnwa::determinize`] drives the same memo to a fixpoint.
//!
//! The trade-off is memory: `CompiledNwa` materializes its whole return
//! region up front, about `states² × k_r` `u32`s for `k_r` return classes
//! (compilation fails on automata whose dense image offsets would
//! overflow `u32`), and `CompiledSummary`'s cache grows with the number of *distinct* summaries
//! the input streams actually visit — bounded by the (exponential)
//! determinization size, but in practice tiny and shared across runs.
//! Both artifacts are language-exact: `tests/compile.rs` property-tests
//! compiled ≡ interpreted at every prefix, pending edges included.

use crate::automaton::Nwa;
use crate::joinless::JoinlessNwa;
use crate::nondet::Nnwa;
use crate::summary::{Summary, SummarySemantics};
use automata_core::compile::outside_alphabet;
pub use automata_core::compile::{CompiledNwa, CompiledNwaLane};
use automata_core::persist::FingerprintCell;
use automata_core::{BatchAcceptor, Compile, LaneRun, StreamAcceptor, StreamOutcome};
use nested_words::{PositionKind, Symbol, TaggedSymbol};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::RwLock;

// --------------------------------------------------------------------------
// Deterministic NWAs: the dense-table engine of `automata-core`
// --------------------------------------------------------------------------

impl Compile for Nwa {
    type Compiled = CompiledNwa;

    /// One fused premultiplied `u32` table over symbol classes
    /// ([`CompiledNwa`]); panics if the dense image's
    /// `(states + states²) · 3σ` overflows `u32`.
    fn compile(&self) -> CompiledNwa {
        CompiledNwa::from_transitions(
            self.num_states(),
            self.sigma(),
            self.initial(),
            |q| self.is_accepting(q),
            |q, a| (self.call_linear(q, a), self.call_hier(q, a)),
            |q, a| self.internal(q, a),
            |q, h, a| self.ret(q, h, a),
        )
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
    fn intern(&mut self, automaton: &Nnwa, summary: Summary) -> u32 {
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

    /// The interned summary with id `id`.
    fn summary(&self, id: u32) -> &Summary {
        &self.summaries[id as usize].summary
    }
}

/// The summary-set subset construction of §3.2 compiled on the fly: state
/// sets are interned once, and every (summary, event) transition is derived
/// from the nondeterministic relations at most once, then served from a
/// hash cache. Streams with repeated event patterns — the common case for
/// document queries — run almost entirely on precomputed rows.
///
/// Runs an [`Nnwa`]; a [`JoinlessNwa`] compiles through
/// [`JoinlessNwa::to_nnwa`], which has identical runs. The cache is
/// interior-mutable behind an [`RwLock`] and shared by every run started
/// from the same compiled artifact — warm-up amortizes across runs *and*
/// across threads: the artifact is `Send + Sync` (asserted in the test
/// suite), so one `Arc`'d engine can serve every worker of a decision
/// service, with the steady state (cache hits) taking only the uncontended
/// read lock.
///
/// This is in effect determinization restricted to the reachable,
/// actually-visited part of the `2^{s²}` summary-set automaton — the memory
/// trade-off is the cache, which grows with the number of distinct
/// summaries visited, not with the stream length. [`Nnwa::determinize`]
/// drives this same memo to a fixpoint. A symbol outside the alphabet
/// panics before any lookup, as in the interpreted run, so it never enters
/// the memo.
#[derive(Debug)]
pub struct CompiledSummary {
    pub(crate) automaton: Nnwa,
    pub(crate) initial: u32,
    pub(crate) cache: RwLock<SummaryCache>,
    /// Content hash over the automaton and the initial summary (see
    /// `persist`), computed on first use.
    pub(crate) fingerprint: FingerprintCell,
}

impl PartialEq for CompiledSummary {
    /// Structural equality over the automaton, the initial id *and* the
    /// memoization cache — `load(save(a)) == a` asserts that the warmed
    /// rows shipped with the artifact, not just the relations.
    fn eq(&self, other: &Self) -> bool {
        self.automaton == other.automaton
            && self.initial == other.initial
            && *self.lock_read() == *other.lock_read()
    }
}

impl Eq for CompiledSummary {}

impl Clone for CompiledSummary {
    fn clone(&self) -> Self {
        CompiledSummary {
            automaton: self.automaton.clone(),
            initial: self.initial,
            cache: RwLock::new(self.lock_read().clone()),
            fingerprint: self.fingerprint.clone(),
        }
    }
}

impl CompiledSummary {
    /// Compiles the engine around (an owned copy of) the automaton.
    pub fn new(automaton: Nnwa) -> Self {
        let mut cache = SummaryCache::default();
        let initial = cache.intern(&automaton, automaton.initial_summary());
        CompiledSummary {
            automaton,
            initial,
            cache: RwLock::new(cache),
            fingerprint: FingerprintCell::new(),
        }
    }

    /// Number of distinct summaries interned so far — the size of the
    /// visited part of the subset construction (grows as runs explore new
    /// event patterns, never with stream length).
    pub fn cached_summaries(&self) -> usize {
        self.lock_read().summaries.len()
    }

    pub(crate) fn lock_read(&self) -> std::sync::RwLockReadGuard<'_, SummaryCache> {
        self.cache.read().expect("summary cache lock poisoned")
    }

    fn lock_write(&self) -> std::sync::RwLockWriteGuard<'_, SummaryCache> {
        self.cache.write().expect("summary cache lock poisoned")
    }

    /// Interns `summary`, returning its id.
    pub(crate) fn intern(&self, summary: Summary) -> u32 {
        self.lock_write().intern(&self.automaton, summary)
    }

    fn accepting(&self, id: u32) -> bool {
        self.lock_read().summaries[id as usize].accepting
    }

    /// The one memo path behind every step: the row `key` of the table
    /// `rows` (with `rows_mut` its mutable projection), derived by `derive`
    /// from the interned summaries on a miss. Steady state: one shared
    /// (uncontended-read) lock per event. Only a miss — once per distinct
    /// row for the lifetime of the artifact — takes the write lock,
    /// re-checks, derives, interns the result and memoizes it. Generic, so
    /// each step monomorphizes to a lookup in its own typed map.
    #[inline(always)]
    fn memo<K: Copy + Eq + Hash>(
        &self,
        rows: impl Fn(&SummaryCache) -> &HashMap<K, u32>,
        rows_mut: impl FnOnce(&mut SummaryCache) -> &mut HashMap<K, u32>,
        key: K,
        derive: impl FnOnce(&SummaryCache) -> Summary,
    ) -> u32 {
        if let Some(&hit) = rows(&self.lock_read()).get(&key) {
            return hit;
        }
        let mut cache = self.lock_write();
        if let Some(&hit) = rows(&cache).get(&key) {
            return hit;
        }
        let next = derive(&cache);
        let next_id = cache.intern(&self.automaton, next);
        rows_mut(&mut cache).insert(key, next_id);
        next_id
    }

    pub(crate) fn step_internal(&self, id: u32, a: Symbol) -> u32 {
        self.memo(
            |c| &c.internal,
            |c| &mut c.internal,
            (id, a.0),
            |c| self.automaton.summary_internal(c.summary(id), a),
        )
    }

    pub(crate) fn step_call(&self, id: u32, a: Symbol) -> u32 {
        self.memo(
            |c| &c.call,
            |c| &mut c.call,
            (id, a.0),
            |c| self.automaton.summary_call(c.summary(id), a),
        )
    }

    pub(crate) fn step_matched(&self, outer: u32, call: Symbol, inner: u32, a: Symbol) -> u32 {
        let key = (outer, call.0, inner, a.0);
        self.memo(
            |c| &c.matched,
            |c| &mut c.matched,
            key,
            |c| {
                self.automaton
                    .summary_matched_return(c.summary(outer), call, c.summary(inner), a)
            },
        )
    }

    pub(crate) fn step_pending(&self, id: u32, a: Symbol) -> u32 {
        self.memo(
            |c| &c.pending,
            |c| &mut c.pending,
            (id, a.0),
            |c| self.automaton.summary_pending_return(c.summary(id), a),
        )
    }
}

impl StreamAcceptor for CompiledSummary {
    type Run<'a> = LaneRun<'a, CompiledSummary>;

    fn start(&self) -> LaneRun<'_, CompiledSummary> {
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

impl BatchAcceptor for CompiledSummary {
    type Lane = CompiledSummaryLane;

    fn lane_start(&self) -> CompiledSummaryLane {
        CompiledSummaryLane {
            current: self.initial,
            stack: Vec::new(),
            max_stack: 0,
            steps: 0,
        }
    }

    /// One memo lookup per event (a derivation on a miss). A symbol outside
    /// the alphabet panics, as in the interpreted run, before any lookup:
    /// memoized, its row would name a symbol the saved image cannot hold.
    #[inline]
    fn lane_step(&self, lane: &mut CompiledSummaryLane, event: TaggedSymbol) {
        let a = event.symbol();
        if a.index() >= self.automaton.sigma() {
            outside_alphabet(a.index(), self.automaton.sigma());
        }
        lane.steps += 1;
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
    type Compiled = CompiledSummary;

    /// The memoized summary subset engine ([`CompiledSummary`]) around an
    /// owned copy of the automaton.
    fn compile(&self) -> CompiledSummary {
        CompiledSummary::new(self.clone())
    }
}

impl Compile for JoinlessNwa {
    type Compiled = CompiledSummary;

    /// The memoized summary subset engine ([`CompiledSummary`]) over the
    /// exact [`JoinlessNwa::to_nnwa`] expansion, which has identical runs.
    fn compile(&self) -> CompiledSummary {
        CompiledSummary::new(self.to_nnwa())
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
        assert_send_sync::<CompiledSummary>();
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
    fn table_bytes_reports_the_classed_footprint() {
        let m = matching_labels_nwa();
        let c = m.compile();
        // `a` and `b` differ as calls and as returns, not as internals.
        assert_eq!(c.num_classes(), [2, 1, 2]);
        // Rows of stride 4 (three linear columns, rounded up to the
        // two-wide return slot): a 4·4 linear block, then four return
        // slots two to a 16-entry span, 48 entries in all; a 4·4 push
        // table and a 3·2 column map; 4 bytes each. One column per tagged
        // symbol took (4 + 4²)·3·2 + 4·3·2 entries.
        assert_eq!(c.table_bytes(), (48 + 16 + 6) * 4);
        assert!(c.table_bytes() < ((4 + 16) * 6 + 24) * 4);
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
