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
use nested_words_suite::nwa_xml::generate::{generate_document, DocumentConfig};
use nested_words_suite::nwa_xml::queries::{
    contains_tag_nwa, depth_at_most_nwa, patterns_in_order_nwa, within_nwa,
};
use nested_words_suite::nwa_xml::sax::to_xml;
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

/// The nondeterministic "some matched b-block" automaton over {a, b}: it
/// accepts the nested words with a matched call/return pair both labelled
/// `b`, guessing which call it is. States: 0 searching, 1 the hierarchical
/// marker of the guessed call, 2 found.
pub fn some_b_block() -> Nnwa {
    let (a, b) = (Symbol(0), Symbol(1));
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

/// The two `QuerySet` shapes over the same members, each with the members
/// it answers for: `members` as they are, which must compile to one
/// product engine, and `members` plus a `depth_at_most_nwa(256, σ)` pad
/// (259 states, enough to push the product table past
/// `PRODUCT_TABLE_BYTE_CAP` even at σ = 1), which must compile to one
/// engine per query. The engine counts are asserted, so a moved cap fails
/// loudly instead of testing one shape twice.
pub fn both_shapes(members: &[Nwa]) -> [(QuerySet, Vec<Nwa>); 2] {
    let product = QuerySet::compile(members);
    assert_eq!(product.num_engines(), 1, "members fit one product table");
    let mut padded = members.to_vec();
    padded.push(depth_at_most_nwa(256, members[0].sigma()));
    let per_query = QuerySet::compile(&padded);
    assert_eq!(
        per_query.num_engines(),
        padded.len(),
        "the pad pushes the product table past the cap"
    );
    [(product, members.to_vec()), (per_query, padded)]
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

/// A value of the stepwise spec fold: an open node's partial value, the
/// top-level tracker (nothing yet, one tree done, more than one), or dead.
#[derive(Clone, Copy, PartialEq)]
enum Fold {
    Node(usize),
    Start,
    Done(usize),
    Many,
    Dead,
}

/// The observables `(accepted, events, peak, height)` of a compiled
/// `DetStepwiseTA` after every prefix of `events`, the empty one first,
/// by the extended-domain fold its docs describe: a call pushes the
/// current value and opens a node at `init(a)`, a return folds the
/// finished node into the popped value whatever its label, and anything
/// else — an internal, a pending return — is dead for good. A stream is
/// accepted iff it is exactly one finished tree with an accepting value.
pub fn stepwise_spec(
    ta: &DetStepwiseTA,
    events: &[TaggedSymbol],
) -> Vec<(bool, usize, usize, usize)> {
    let (mut current, mut stack, mut peak) = (Fold::Start, Vec::new(), 0);
    let mut observed = vec![(false, 0, 0, 0)];
    for (i, &event) in events.iter().enumerate() {
        current = match event {
            TaggedSymbol::Call(a) => {
                stack.push(current);
                match current {
                    Fold::Dead => Fold::Dead,
                    _ => Fold::Node(ta.init(a)),
                }
            }
            TaggedSymbol::Internal(_) => Fold::Dead,
            TaggedSymbol::Return(_) => match (stack.pop(), current) {
                (Some(Fold::Node(q)), Fold::Node(r)) => Fold::Node(ta.combine(q, r)),
                (Some(Fold::Start), Fold::Node(r)) => Fold::Done(r),
                (Some(Fold::Done(_) | Fold::Many), Fold::Node(_)) => Fold::Many,
                _ => Fold::Dead,
            },
        };
        peak = peak.max(stack.len());
        let accepted = matches!(current, Fold::Done(q) if ta.is_accepting(q));
        observed.push((accepted, i + 1, peak, stack.len()));
    }
    observed
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

/// Generated XML documents (tags `t0..t7`, text words `w0..w15`, depth
/// up to 8) with the alphabet each was generated over.
pub fn xml_documents(count: usize, base_seed: u64) -> Vec<(Alphabet, String)> {
    xml_documents_of(count, 2_000, base_seed)
}

/// [`xml_documents`] of about `events` events each.
pub fn xml_documents_of(count: usize, events: usize, base_seed: u64) -> Vec<(Alphabet, String)> {
    (0..count as u64)
        .map(|s| {
            let config = DocumentConfig {
                events,
                max_depth: 8,
                ..Default::default()
            };
            let (ab, doc) = generate_document(config, base_seed.wrapping_add(s));
            let xml = to_xml(&doc, &ab);
            (ab, xml)
        })
        .collect()
}

/// Document queries over an [`xml_documents`] alphabet, named. Compiled,
/// the first two leave every text word inert (a drop-all projection); the
/// last two read `w0` or `w1` (a keep-bit projection).
pub fn xml_queries(ab: &Alphabet) -> Vec<(&'static str, Nwa)> {
    let sym = |name: &str| ab.lookup(name).expect("generated name");
    let sigma = ab.len();
    vec![
        ("contains t1", contains_tag_nwa(sym("t1"), sigma)),
        ("depth <= 6", depth_at_most_nwa(6, sigma)),
        ("w0 within t0", within_nwa(sym("t0"), sym("w0"), sigma)),
        (
            "t2 then w1",
            patterns_in_order_nwa(&[sym("t2"), sym("w1")], sigma),
        ),
    ]
}

/// `xml` with `text` spliced in, space-separated, right after the first
/// tag that ends in its second half.
pub fn with_text_midway(xml: &str, text: &str) -> String {
    with_text_after(xml, xml.len() / 2, text)
}

/// `xml` with `text` spliced in, space-separated, right after the first
/// tag that ends at or past byte `from`.
pub fn with_text_after(xml: &str, from: usize, text: &str) -> String {
    let at = from + xml[from..].find('>').expect("a tag") + 1;
    format!("{} {text} {}", &xml[..at], &xml[at..])
}

/// The three spellings of a tag outside every generated alphabet, each
/// with its rename to `t0`, a generated tag: an unknown tag read after a
/// run has settled decides like the renamed one.
pub const INTRUDERS: [(&str, &str); 3] = [
    ("<intruder>", "<t0>"),
    ("</intruder>", "</t0>"),
    ("<intruder/>", "<t0/>"),
];

/// `events` rendered as XML over `ab`, one token per space-separated
/// field, with `splice` inserted before event `at`.
pub fn render_with(events: &[TaggedSymbol], ab: &Alphabet, at: usize, splice: &str) -> String {
    let token = |t: &TaggedSymbol| {
        let name = ab.name(t.symbol()).expect("an alphabet symbol");
        match t {
            TaggedSymbol::Call(_) => format!("<{name}>"),
            TaggedSymbol::Return(_) => format!("</{name}>"),
            TaggedSymbol::Internal(_) => name.to_string(),
        }
    };
    let mut fields: Vec<String> = events.iter().map(token).collect();
    fields.insert(at, splice.to_string());
    fields.join(" ")
}

/// How many events `run` reads, one at a time, before it stops reading
/// names, or `None` if it reads names to the end.
pub fn names_settle<R: StreamRun>(mut run: R, events: &[TaggedSymbol]) -> Option<usize> {
    if !run.reads_names() {
        return Some(0);
    }
    for (i, &event) in events.iter().enumerate() {
        run.step(event);
        if !run.reads_names() {
            return Some(i + 1);
        }
    }
    None
}

/// Event offsets within 2 of `settle` and of every slice boundary a
/// bytes→verdict scan of `events` may draw: every `slice` events counted
/// over all events, over tags only, and over the events the projection
/// `inert` keeps.
pub fn splice_offsets(
    events: &[TaggedSymbol],
    inert: &[bool],
    settle: Option<usize>,
    slice: usize,
) -> Vec<usize> {
    let mut centres: Vec<usize> = settle.into_iter().collect();
    let (mut tags, mut kept) = (0, 0);
    for (i, event) in events.iter().enumerate() {
        let internal = matches!(event, TaggedSymbol::Internal(_));
        tags += usize::from(!internal);
        kept +=
            usize::from(!internal || !inert.get(event.symbol().index()).copied().unwrap_or(false));
        if (i + 1) % slice == 0 || (!internal && tags % slice == 0) || kept % slice == 0 {
            centres.push(i + 1);
        }
    }
    let mut offsets: Vec<usize> = centres
        .into_iter()
        .flat_map(|c| c.saturating_sub(2)..=(c + 2).min(events.len()))
        .collect();
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}
