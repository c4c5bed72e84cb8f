//! Compilation of automata into cache-friendly execution artifacts.
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
//! Implementors in the suite:
//!
//! * `Nwa` → `nwa::compile::CompiledNwa` — premultiplied `u32` tables for
//!   the three transition functions, stack of `u32` return-row offsets;
//! * `Nnwa` → `nwa::compile::CompiledSummary` — the summary-set subset
//!   construction over interned state-pair sets with a memoized transition
//!   cache, so repeated event patterns hit precomputed rows instead of
//!   re-deriving the subset step; `JoinlessNwa` compiles to the same
//!   engine through its exact `to_nnwa` expansion;
//! * `Dfa` (over the tagged alphabet Σ̂) →
//!   `word_automata::compile::CompiledTaggedDfa` — one flat `states × Σ̂`
//!   next-state array.

use crate::stream::StreamAcceptor;

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
