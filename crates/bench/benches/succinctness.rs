//! Succinctness and construction experiments (E1–E8, E13, E14 of
//! `DESIGN.md`): every run first prints the state-count tables that mirror
//! the paper's Theorems 1–8, then times the underlying constructions with
//! Criterion. The `decision` group times the §3.2 decision procedures on
//! determinized automata against their sources.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nested_words_suite::nwa::boolean::{complement, intersect};
use nested_words_suite::nwa::bottom_up::to_bottom_up;
use nested_words_suite::nwa::families::{
    minimal_states, path_family_nwa, path_family_tagged_dfa, theorem3_sweep, theorem5_sweep,
    theorem5_tagged_dfa, theorem8_regex, theorem8_sweep,
};
use nested_words_suite::nwa::flat::from_tagged_dfa;
use nested_words_suite::nwa::joinless::joinless_from_nwa;
use nested_words_suite::nwa::weak::to_weak;
use nested_words_suite::nwa_xml::queries::open_depth_at_most_nwa;
use nested_words_suite::prelude::*;
use nested_words_suite::query;
use std::time::Duration;

/// The matching-labels NWA used as the seed automaton of the construction
/// experiments (E1, E4, E7, E13).
fn matching_labels_nwa() -> Nwa {
    let a = Symbol(0);
    let b = Symbol(1);
    let mut builder = NwaBuilder::new(4, 2, 0)
        .accepting(0)
        .sink(3)
        // states 1 and 2 are hierarchical markers; linearly they die to 3
        // (not to themselves — the Theorem 1/4 constructions count states,
        // so the structure must match the seed automaton exactly)
        .all_transitions(1, 3)
        .all_transitions(2, 3)
        .internal(0, a, 0)
        .internal(0, b, 0)
        .call(0, a, 0, 1)
        .call(0, b, 0, 2);
    for h in 0..4usize {
        for (sym, want) in [(a, 1usize), (b, 2usize)] {
            builder = builder.ret(0, h, sym, if h == want { 0 } else { 3 });
        }
    }
    builder.build()
}

fn print_tables() {
    println!("== E1/E4/E7/E13: construction blow-ups (Theorems 1, 4, 7 and determinization) ==");
    let m = matching_labels_nwa();
    let weak = to_weak(&m);
    let bu = to_bottom_up(&weak);
    let joinless = joinless_from_nwa(&Nnwa::from_deterministic(&m));
    let det = Nnwa::from_deterministic(&m).determinize();
    println!(
        "seed NWA: {} states | weak (Thm 1): {} | weak bottom-up (Thm 4): {} | joinless (Thm 7): {} | re-determinized: {}",
        m.num_states(),
        weak.num_states(),
        bu.num_states(),
        joinless.num_states(),
        det.num_states()
    );

    println!("\n== E3: Theorem 3 — L_s = {{ path(w) : |w| = s }} ==");
    println!(
        "{:>3} {:>12} {:>18}",
        "s", "NWA states", "minimal DFA states"
    );
    for row in theorem3_sweep(12) {
        println!(
            "{:>3} {:>12} {:>18}",
            row.s, row.succinct_states, row.baseline_states
        );
    }

    println!("\n== E5: Theorem 5 — flat NWA vs bottom-up congruence classes ==");
    println!(
        "{:>3} {:>18} {:>24}",
        "s", "min flat NWA states", "distinguishable blocks"
    );
    for row in theorem5_sweep(9) {
        println!(
            "{:>3} {:>18} {:>24}",
            row.s, row.succinct_states, row.baseline_states
        );
    }

    println!("\n== E8: Theorem 8 — path(Σ^s a Σ* a Σ^s) ==");
    println!(
        "{:>3} {:>12} {:>22}",
        "s", "NWA states", "minimal word DFA states"
    );
    for row in theorem8_sweep(9) {
        println!(
            "{:>3} {:>12} {:>22}",
            row.s, row.succinct_states, row.baseline_states
        );
    }

    println!("\n== E16: minimization across models (query::minimize, states before → after) ==");
    println!(
        "{:>3} {:>28} {:>14} {:>12}",
        "s", "model", "before", "after"
    );
    for s in [4usize, 6, 8] {
        let dfa = path_family_tagged_dfa(s);
        println!(
            "{:>3} {:>28} {:>14} {:>12}",
            s,
            "Dfa (Thm 3 tagged)",
            dfa.num_states(),
            minimal_states(&dfa)
        );
        let flat = from_tagged_dfa(&theorem5_tagged_dfa(s), 2);
        println!(
            "{:>3} {:>28} {:>14} {:>12}",
            s,
            "Nwa (Thm 5 flat, congruence)",
            flat.num_states(),
            minimal_states(&flat)
        );
        let regex_dfa = theorem8_regex(s).to_nfa(2).determinize();
        println!(
            "{:>3} {:>28} {:>14} {:>12}",
            s,
            "Dfa (Thm 8 subset automaton)",
            regex_dfa.num_states(),
            minimal_states(&regex_dfa)
        );
    }

    println!("\n== E14: patterns-in-order query (§1) — DFA linear, congruence exponential ==");
    println!(
        "{:>3} {:>16} {:>26}",
        "n", "min DFA states", "progress transformers"
    );
    for n in 1..=8usize {
        let patterns: Vec<Vec<usize>> = (0..n).map(|_| vec![0]).collect();
        let dfa = Regex::patterns_in_order(&patterns).to_nfa(2).determinize();
        println!(
            "{:>3} {:>16} {:>26}",
            n,
            minimal_states(&dfa),
            progress_transformer_count(n)
        );
    }
    println!();
}

/// Size of the transformation monoid generated by single symbols on the
/// progress counter of the patterns-in-order query — a lower bound on the
/// size of any deterministic bottom-up (stepwise) tree automaton for the
/// query, since every distinct transformer is realised by some subtree and
/// distinct transformers are distinguishable by contexts.
fn progress_transformer_count(n: usize) -> usize {
    use std::collections::BTreeSet;
    // transformer = monotone map on {0..n}: represented as a vector
    let advance: Vec<usize> = (0..=n).map(|p| (p + 1).min(n)).collect(); // reading the pattern symbol
    let stay: Vec<usize> = (0..=n).collect(); // reading any other symbol
    let compose =
        |f: &Vec<usize>, g: &Vec<usize>| -> Vec<usize> { f.iter().map(|&x| g[x]).collect() };
    let mut monoid: BTreeSet<Vec<usize>> = BTreeSet::new();
    monoid.insert(advance.clone());
    monoid.insert(stay.clone());
    let mut changed = true;
    while changed {
        changed = false;
        let snapshot: Vec<Vec<usize>> = monoid.iter().cloned().collect();
        for f in &snapshot {
            for g in &snapshot {
                if monoid.insert(compose(f, g)) {
                    changed = true;
                }
            }
        }
    }
    monoid.len()
}

fn bench_constructions(c: &mut Criterion) {
    print_tables();
    let m = matching_labels_nwa();
    let nondet = Nnwa::from_deterministic(&m);
    let mut group = c.benchmark_group("constructions");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));
    group.bench_function("e01_weak_conversion", |b| b.iter(|| to_weak(&m)));
    group.bench_function("e04_bottomup_conversion", |b| {
        let weak = to_weak(&m);
        b.iter(|| to_bottom_up(&weak))
    });
    group.bench_function("e07_joinless_conversion", |b| {
        b.iter(|| joinless_from_nwa(&nondet))
    });
    group.bench_function("e13_determinization", |b| b.iter(|| nondet.determinize()));
    group.finish();

    let mut group = c.benchmark_group("e03_succinct_vs_word");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));
    for s in [4usize, 8, 10] {
        group.bench_with_input(BenchmarkId::new("nwa_build", s), &s, |b, &s| {
            b.iter(|| path_family_nwa(s))
        });
        group.bench_with_input(BenchmarkId::new("min_dfa_build", s), &s, |b, &s| {
            b.iter(|| query::minimize(&path_family_tagged_dfa(s)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("e08_path_succinctness");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));
    for s in [4usize, 6, 8] {
        group.bench_with_input(BenchmarkId::new("min_dfa_build", s), &s, |b, &s| {
            b.iter(|| query::minimize(&theorem8_regex(s).to_nfa(2).determinize()))
        });
    }
    group.finish();

    // E16: wall time of the `Minimize` implementations themselves, on
    // pre-built automata (construction cost excluded by cloning outside the
    // timed closure is unnecessary — `query::minimize` borrows).
    let mut group = c.benchmark_group("e16_minimization");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));
    for s in [4usize, 6, 8] {
        let dfa = path_family_tagged_dfa(s);
        group.bench_with_input(BenchmarkId::new("dfa_thm3", s), &dfa, |b, dfa| {
            b.iter(|| query::minimize(dfa))
        });
        let flat = from_tagged_dfa(&theorem5_tagged_dfa(s), 2);
        group.bench_with_input(
            BenchmarkId::new("nwa_congruence_thm5", s),
            &flat,
            |b, flat| b.iter(|| query::minimize(flat)),
        );
        let subset = theorem8_regex(s).to_nfa(2).determinize();
        group.bench_with_input(BenchmarkId::new("dfa_thm8", s), &subset, |b, d| {
            b.iter(|| query::minimize(d))
        });
    }
    group.finish();

    // Decision procedures: equivalence of the determinized path family
    // (39 states) with its source, and emptiness of the product
    // `d ∩ complement(m)` that inclusion builds for the determinized
    // open-depth bound. Both languages are empty, so the summary engine
    // saturates.
    let mut group = c.benchmark_group("decision");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));
    let path = path_family_nwa(3);
    let path_det = Nnwa::from_deterministic(&path).determinize();
    assert!(query::equals(&path_det, &path));
    group.bench_function("equivalent/path_family_3", |b| {
        b.iter(|| query::equals(&path_det, &path))
    });
    let depth = open_depth_at_most_nwa(3, 2);
    let depth_det = Nnwa::from_deterministic(&depth).determinize();
    let product = intersect(&depth_det, &complement(&depth));
    assert!(query::is_empty(&product));
    group.bench_function("is_empty_det/open_depth_at_most_3", |b| {
        b.iter(|| query::is_empty(&product))
    });
    group.finish();
}

criterion_group!(benches, bench_constructions);
criterion_main!(benches);
