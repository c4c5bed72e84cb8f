//! Seeded random-automaton generators shared by the integration tests
//! (`tests/properties.rs`, `tests/streaming.rs`, `tests/minimize.rs`). The
//! build environment has no crates.io access, so instead of proptest the
//! property tests draw deterministic cases from these generators; every
//! failure is reproducible from the printed seed.
//!
//! Each test binary compiles this module separately and uses only some of
//! the generators, hence the file-wide `dead_code` allowance.

#![allow(dead_code)]

use nested_words_suite::nested_words::rng::Prng;
use nested_words_suite::prelude::*;

/// Iteration budget for the Prng property suites: `base` scaled by the
/// `NWA_PROP_ITERS` environment variable (if set to a positive integer).
/// Local runs and the per-PR CI jobs use the bases as written; the weekly
/// scheduled CI job sets `NWA_PROP_ITERS=10` to sweep ten times as many
/// seeds through the same properties.
pub fn prop_iters(base: usize) -> usize {
    std::env::var("NWA_PROP_ITERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&m| m > 0)
        .map_or(base, |m| base * m)
}

/// A random complete deterministic NWA: every transition drawn uniformly,
/// every state accepting with probability 1/2.
pub fn random_det_nwa(num_states: usize, sigma: usize, seed: u64) -> Nwa {
    let mut rng = Prng::new(seed);
    let mut m = Nwa::new(num_states, sigma, rng.below(num_states));
    for q in 0..num_states {
        m.set_accepting(q, rng.bool(0.5));
        for a in 0..sigma {
            let a = Symbol(a as u16);
            m.set_internal(q, a, rng.below(num_states));
            m.set_call(q, a, rng.below(num_states), rng.below(num_states));
            for h in 0..num_states {
                m.set_return(q, h, a, rng.below(num_states));
            }
        }
    }
    m
}

/// A random complete deterministic NWA built to exercise the compiled
/// engines' skip paths, which uniformly random automata almost never
/// reach. Symbol `a` is:
///
/// * inert (`δi(q, a) = q` in every state) when `a % 3 == 0`;
/// * partly inert when `a % 3 == 1`: the identity in some states, but
///   never in state 0;
/// * drawn at random otherwise.
///
/// The last state is an absorbing sink. Every other transition enters it
/// with a per-automaton probability between 0.1% and 3%, so long streams
/// see members settle at scattered points. Needs `num_states >= 3`.
pub fn skip_path_nwa(num_states: usize, sigma: usize, seed: u64) -> Nwa {
    assert!(num_states >= 3);
    let mut rng = Prng::new(seed);
    let sink = num_states - 1;
    let to_sink = 0.001 + 0.029 * rng.f64();
    let mut m = Nwa::new(num_states, sigma, rng.below(sink));
    m.set_all_transitions_to(sink, sink);
    let target = |rng: &mut Prng| {
        if rng.bool(to_sink) {
            sink
        } else {
            rng.below(sink)
        }
    };
    for q in 0..num_states {
        m.set_accepting(q, rng.bool(0.5));
    }
    for q in 0..sink {
        for a in 0..sigma {
            let internal = match a % 3 {
                0 => q,
                1 if q == 0 => 1,
                1 if rng.bool(0.5) => q,
                _ => target(&mut rng),
            };
            let a = Symbol(a as u16);
            m.set_internal(q, a, internal);
            m.set_call(q, a, target(&mut rng), rng.below(num_states));
            for h in 0..num_states {
                m.set_return(q, h, a, target(&mut rng));
            }
        }
    }
    m
}

/// Chunk lengths covering `total` events for feeding `step_slice`: the
/// compaction-block edges 1, 1023, 1024, 1025 and 4096 in a seeded order
/// first, then random lengths, the last one cut to fit.
pub fn chunk_lengths(total: usize, rng: &mut Prng) -> Vec<usize> {
    let mut edges = [1usize, 1023, 1024, 1025, 4096];
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.below(i + 1));
    }
    let mut lengths = Vec::new();
    let mut left = total;
    while left > 0 {
        let len = if lengths.len() < edges.len() {
            edges[lengths.len()]
        } else {
            1 + rng.below(2048)
        };
        lengths.push(len.min(left));
        left -= len.min(left);
    }
    lengths
}

/// A random complete DFA.
pub fn random_dfa(num_states: usize, num_symbols: usize, seed: u64) -> Dfa {
    let mut rng = Prng::new(seed);
    let mut d = Dfa::new(num_states, num_symbols, rng.below(num_states));
    for q in 0..num_states {
        d.set_accepting(q, rng.bool(0.5));
        for a in 0..num_symbols {
            d.set_transition(q, a, rng.below(num_states));
        }
    }
    d
}

/// A random deterministic stepwise tree automaton.
pub fn random_stepwise(num_states: usize, sigma: usize, seed: u64) -> DetStepwiseTA {
    let mut rng = Prng::new(seed);
    let mut ta = DetStepwiseTA::new(num_states, sigma);
    for a in 0..sigma {
        ta.set_init(Symbol(a as u16), rng.below(num_states));
    }
    for q in 0..num_states {
        ta.set_accepting(q, rng.bool(0.5));
        for r in 0..num_states {
            ta.set_combine(q, r, rng.below(num_states));
        }
    }
    ta
}

/// A random sparse nondeterministic NWA. Sparseness is deliberate: several
/// property tests complement (hence determinize) these automata, and the
/// summary-set construction is exponential in the transition density. The
/// sparse draw also leaves a healthy fraction of instances with an empty
/// language, which the witness completeness properties need.
pub fn random_nnwa(num_states: usize, sigma: usize, seed: u64) -> Nnwa {
    random_nnwa_with_transitions(num_states, sigma, num_states + 2, seed)
}

/// [`random_nnwa`] with an explicit transition budget, for tests that want
/// denser automata (e.g. the streaming suite, which never determinizes).
pub fn random_nnwa_with_transitions(
    num_states: usize,
    sigma: usize,
    transitions: usize,
    seed: u64,
) -> Nnwa {
    let mut rng = Prng::new(seed);
    let mut n = Nnwa::new(num_states, sigma);
    n.add_initial(rng.below(num_states));
    n.add_accepting(rng.below(num_states));
    for _ in 0..transitions {
        let s = Symbol(rng.below(sigma) as u16);
        match rng.below(3) {
            0 => n.add_internal(rng.below(num_states), s, rng.below(num_states)),
            1 => n.add_call(
                rng.below(num_states),
                s,
                rng.below(num_states),
                rng.below(num_states),
            ),
            _ => n.add_return(
                rng.below(num_states),
                rng.below(num_states),
                s,
                rng.below(num_states),
            ),
        }
    }
    n
}
