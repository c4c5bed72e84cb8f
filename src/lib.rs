//! # nested-words-suite
//!
//! Umbrella crate for the reproduction of *"Marrying Words and Trees"*
//! (Rajeev Alur, PODS 2007): nested words, the seven automaton models that
//! read them (or their word/tree projections), and **one API** over all of
//! them.
//!
//! ## The unified API
//!
//! Every automaton model implements the [`automata_core`] trait vocabulary,
//! so membership and the decision problems are spelled the same way no
//! matter which machine you hold:
//!
//! * [`prelude`] — one `use nested_words_suite::prelude::*;` brings in the
//!   data model ([`prelude::NestedWord`], [`prelude::OrderedTree`],
//!   [`prelude::Alphabet`]), all automaton types, the fluent builders
//!   ([`prelude::NwaBuilder`], [`prelude::NnwaBuilder`],
//!   [`prelude::DfaBuilder`]) and the traits
//!   ([`prelude::Acceptor`], [`prelude::BooleanOps`],
//!   [`prelude::Emptiness`], [`prelude::Decide`]);
//! * [`query`] — WALi-style free-function verbs, generic over the traits:
//!   [`query::contains`], [`query::is_empty`], [`query::subset_eq`],
//!   [`query::equals`], the streaming verbs [`query::run_stream`] /
//!   [`query::contains_stream`] that evaluate any
//!   [`prelude::StreamAcceptor`] over SAX-style event streams in one pass
//!   with memory proportional to the nesting depth, the bytes-in →
//!   verdict-out pipeline [`query::run_streaming_reader`] /
//!   [`query::run_streaming_text`] that drives any stream acceptor
//!   straight from an [`std::io::BufRead`] through the bulk structural
//!   scanner ([`nwa_xml::scan`]), the batched verb
//!   [`query::run_batch`] that advances many independent streams over one
//!   shared compiled artifact
//!   ([`prelude::BatchAcceptor`]; the [`nwa_service`] crate builds its
//!   concurrent decision service on it), the
//!   multi-query verbs [`query::compile_set`] / [`query::run_multi`] /
//!   [`query::run_multi_streaming_reader`] that compile M queries into one
//!   artifact ([`prelude::MultiCompile`], e.g. an [`prelude::QuerySet`])
//!   stepped once per event for a per-query verdict bitmask — one
//!   tokenization pass answering the whole query set, with the
//!   combinator layer [`query::expr`] composing the document-query zoo
//!   under `and`/`or`/`not` before compilation — the
//!   explanation verbs [`query::witness`] / [`query::counterexample`] /
//!   [`query::distinguish`] that turn every negative decision into a
//!   concrete input ([`prelude::Witness`]), and the persistence verbs
//!   [`query::save`] / [`query::load`] (compiled artifacts as versioned,
//!   checksummed bytes — [`prelude::Persist`]) and [`query::suspend`] /
//!   [`query::resume`] (run state as an owned [`prelude::Snapshot`] that
//!   any artifact with the same fingerprint resumes at the exact prefix —
//!   [`prelude::Suspend`]).
//!
//! ```
//! use nested_words_suite::prelude::*;
//! use nested_words_suite::query;
//!
//! // A deterministic NWA over {a} accepting nested words of even length.
//! let a = Symbol(0);
//! let mut b = NwaBuilder::new(2, 1, 0).accepting(0);
//! for q in 0..2usize {
//!     b = b.internal(q, a, 1 - q).call(q, a, 1 - q, 0).ret(q, 0, a, 1 - q).ret(q, 1, a, 1 - q);
//! }
//! let even = b.build();
//!
//! let mut ab = Alphabet::from_names(["a"]);
//! let w = parse_nested_word("<a a>", &mut ab).unwrap();
//! assert!(query::contains(&even, &w));
//! assert!(query::equals(&even, &even.complement().complement()));
//! assert!(query::is_empty(&even.intersect(&even.complement())));
//! ```
//!
//! ## Migration from the per-crate APIs
//!
//! The free decision functions of the individual crates still exist (the
//! trait impls delegate to them), but new code should speak the facade:
//!
//! | old (per-crate)                            | new (facade)                       |
//! |--------------------------------------------|------------------------------------|
//! | `nwa::decision::is_empty(&n)`              | `query::is_empty(&n)`              |
//! | `nwa::decision::is_empty_det(&m)`          | `query::is_empty(&m)`              |
//! | `nwa::decision::included_in(&a, &b)`       | `query::subset_eq(&a, &b)`         |
//! | `nwa::decision::equivalent(&a, &b)`        | `query::equals(&a, &b)`            |
//! | `nwa::decision::included_in_nondet(&a, &b)`| `query::subset_eq(&a, &b)`         |
//! | `nwa::decision::equivalent_nondet(&a, &b)` | `query::equals(&a, &b)`            |
//! | `nwa::boolean::intersect(&a, &b)`          | `a.intersect(&b)`                  |
//! | `nwa::boolean::union(&a, &b)`              | `a.union(&b)`                      |
//! | `nwa::boolean::complement(&a)`             | `a.complement()`                   |
//! | `nwa::boolean::intersect_nondet(&a, &b)`   | `a.intersect(&b)`                  |
//! | `nwa::boolean::union_nondet(&a, &b)`       | `a.union(&b)`                      |
//! | `word_automata::Dfa::equivalent(&a, &b)`   | `query::equals(&a, &b)`            |
//! | `word_automata::Dfa::included_in(&a, &b)`  | `query::subset_eq(&a, &b)`         |
//! | `word_automata::Dfa::find_accepted_word(&d)`| `query::witness(&d)`              |
//! | `nwa_pushdown::emptiness::is_empty(&p)`    | `query::is_empty(&p)`              |
//! | `m.accepts(&w)` (per-model inherent)       | `query::contains(&m, &w)` or trait |
//! | `Nwa::new(n, s, q0)` + `set_*` calls       | `NwaBuilder::new(n, s, q0).…`      |
//! | `Nnwa::new(n, s)` + `add_*` calls          | `NnwaBuilder::new(n, s).…`         |
//! | `Dfa::new(n, s, q0)` + `set_*` calls       | `DfaBuilder::new(n, s, q0).…`      |
//!
//! The individual crates remain available under their own names for code
//! that needs model-specific constructions (determinization, minimization,
//! the succinctness families, SAX parsing, …).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use automata_core;
pub use nested_words;
pub use nwa;
pub use nwa_pushdown;
pub use nwa_service;
pub use nwa_xml;
pub use pushdown_automata;
pub use tree_automata;
pub use word_automata;

/// One import for the whole suite: data model, automaton types, builders and
/// the unified traits.
pub mod prelude {
    pub use automata_core::{
        Acceptor, BatchAcceptor, BooleanOps, Builder, Compile, Decide, Emptiness, Forms, LaneRun,
        Minimize, MultiAcceptor, MultiCompile, Persist, PersistError, QuerySetRun, Snapshot,
        StateId, StreamAcceptor, StreamOutcome, StreamRun, Suspend, Witness,
    };
    pub use nested_words::tagged::{display_nested_word, parse_nested_word};
    pub use nested_words::{
        Alphabet, MatchingRelation, NestedWord, NestedWordError, OrderedTree, PositionKind, Symbol,
        TaggedSymbol, TaggedWord,
    };
    pub use nwa::{
        CompiledNwa, CompiledSummary, JoinlessNwa, JoinlessStreamingRun, Nnwa, NnwaBuilder,
        NnwaStreamingRun, Nwa, NwaBuilder, QuerySet, StreamingRun,
    };
    pub use nwa_pushdown::{Pnwa, PnwaMode};
    pub use nwa_service::{
        DecisionError, DecisionHandle, DecisionService, Handle, MultiHandle, MultiSubmitError,
        ParkError, ParkedDoc, ParkedHandle, ServiceConfig,
    };
    pub use pushdown_automata::{Cfg, PushdownTreeAutomaton};
    pub use tree_automata::{BottomUpBinaryTA, DetStepwiseTA, StepwiseTA, TopDownBinaryTA};
    pub use word_automata::{CompiledTaggedDfa, Dfa, DfaBuilder, Nfa, Regex, TaggedDfaRun};
}

/// The WALi-style decision verbs, uniform over every automaton model
/// ([`query::contains`], [`query::is_empty`], [`query::subset_eq`],
/// [`query::equals`]), plus the streaming verbs over tagged-symbol event
/// streams ([`query::run_stream`], [`query::contains_stream`]) and the
/// bytes-in → verdict-out pipeline ([`query::run_streaming_reader`],
/// [`query::run_streaming_text`]) that feeds any stream acceptor from raw
/// bytes through the bulk structural scanner,
/// compilation into dense-table execution artifacts ([`query::compile`]),
/// model-generic state minimization ([`query::minimize`]), the
/// explanation verbs ([`query::witness`], [`query::counterexample`],
/// [`query::distinguish`]) that produce a concrete accepted input — or the
/// separator behind a failed inclusion/equivalence — instead of a bare
/// boolean, and the persistence verbs: [`query::save`] / [`query::load`]
/// round-trip compiled artifacts through a versioned, checksummed byte
/// format, and [`query::suspend`] / [`query::resume`] park and continue a
/// live run at the exact prefix. Multi-query execution gets its own verbs:
/// [`query::compile_set`] compiles M queries into one artifact,
/// [`query::run_multi`] / [`query::run_multi_streaming_reader`] step it
/// once per event for all M verdicts, and [`query::expr`] composes the
/// document-query zoo under boolean connectives before compilation.
pub mod query {
    pub use automata_core::query::{
        compile, compile_set, contains, contains_stream, counterexample, distinguish, equals,
        is_empty, load, minimize, resume, run_batch, run_multi, run_stream, save, subset_eq,
        suspend, witness,
    };
    pub use nwa_xml::expr;
    pub use nwa_xml::queries::{
        run_multi_streaming_reader, run_streaming_reader, run_streaming_text,
    };
}
