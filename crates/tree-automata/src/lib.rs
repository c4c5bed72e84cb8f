//! # tree-automata
//!
//! Tree automata over ordered trees: the *tree baselines* of the
//! reproduction of "Marrying Words and Trees" (PODS 2007).
//!
//! The paper compares nested word automata against three classical families,
//! all implemented here:
//!
//! * **bottom-up tree automata over binary trees** ([`bottom_up`]),
//! * **top-down tree automata over binary trees** ([`top_down`], Lemma 2),
//! * **stepwise bottom-up tree automata over unranked ordered trees**
//!   ([`stepwise`], Brüggemann-Klein–Murata–Wood / Martens–Niehren; the
//!   paper's Lemma 1 identifies them with weak bottom-up NWAs whose return
//!   transition ignores the symbol).
//!
//! All three support membership, emptiness, determinization (where the
//! nondeterministic variant exists) and, for deterministic stepwise
//! automata, congruence-based minimization — the quantity the succinctness
//! experiments (E5, E8, E14) report.
//!
//! Deterministic stepwise automata additionally compile, by Lemma 1's
//! return-ignores-its-symbol identification, into the dense-table engine
//! of `automata-core`, [`CompiledNwa`](automata_core::CompiledNwa), which
//! streams `t_w` tree events, settles once the stream goes dead (at an
//! internal or a pending return), and persists and suspends like every
//! compiled NWA (see the `Compile` impl on [`DetStepwiseTA`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod bottom_up;
pub mod stepwise;
pub mod top_down;

pub use bottom_up::BottomUpBinaryTA;
pub use stepwise::{DetStepwiseTA, StepwiseTA};
pub use top_down::TopDownBinaryTA;
