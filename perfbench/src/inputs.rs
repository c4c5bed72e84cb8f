//! Seeded workload inputs and their verdict oracle.
//!
//! Every document is generated as a `NestedWord` and serialized to bytes;
//! the expected verdicts come from running that nested word through the
//! interpreted `Nwa` (`query::contains`), so the oracle never touches the
//! scanner or a compiled engine.

use automata_core::{query, StreamOutcome};
use nested_words::rng::Prng;
use nested_words::{Alphabet, NestedWord, PositionKind};
use nwa::automaton::Nwa;
use nwa_xml::expr::Query;
use nwa_xml::generate::{generate_document, DocumentConfig};
use nwa_xml::queries::{contains_tag_nwa, within_nwa};
use nwa_xml::sax::to_xml;

/// The E15c document shape: 8 tags, 16 words, depth ≤ 32.
const STREAM_EVENTS: usize = 1_000_000;
const MAX_DEPTH: usize = 32;
const TAGS: usize = 8;
const STREAM_WORDS: usize = 16;
/// Far more text words than the scanner's 256-slot name cache holds.
pub const SERVICE_WORDS: usize = 4096;
/// Service documents range over this many events, log-uniformly.
const SERVICE_EVENTS: (f64, f64) = (100.0, 10_000.0);
/// Distinct service documents; the open loop cycles through them.
const SERVICE_POOL: usize = 512;

/// One generated document: its bytes and its scanner-free expectations.
pub struct Doc {
    pub xml: Vec<u8>,
    pub events: usize,
    pub text_events: usize,
    pub max_depth: usize,
    /// Expected outcome per query of the workload, in query order.
    pub expected: Vec<StreamOutcome>,
}

impl Doc {
    fn new(word: &NestedWord, alphabet: &Alphabet, queries: &[Nwa]) -> Doc {
        let (mut depth, mut max_depth, mut text_events) = (0usize, 0usize, 0usize);
        for i in 0..word.len() {
            match word.kind(i) {
                PositionKind::Call => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                PositionKind::Return => depth = depth.saturating_sub(1),
                PositionKind::Internal => text_events += 1,
            }
        }
        let expected = queries
            .iter()
            .map(|q| StreamOutcome {
                accepted: query::contains(q, word),
                events: word.len(),
                peak_memory: max_depth,
            })
            .collect();
        Doc {
            xml: to_xml(word, alphabet).into_bytes(),
            events: word.len(),
            text_events,
            max_depth,
            expected,
        }
    }
}

/// A workload's inputs: the alphabet every query is compiled against, the
/// queries, and the documents with their expected verdicts.
pub struct Inputs {
    pub alphabet: Alphabet,
    pub queries: Vec<Nwa>,
    pub docs: Vec<Doc>,
    /// Text words the alphabet holds.
    pub vocab: usize,
}

/// The single-query stream workload's query: `contains_tag(t1)`.
pub fn contains_query(alphabet: &Alphabet) -> Nwa {
    contains_tag_nwa(
        alphabet.lookup("t1").expect("generated tag"),
        alphabet.len(),
    )
}

/// The sixteen-query E19 pool: zoo leaves plus boolean compositions.
pub fn e19_pool(alphabet: &Alphabet) -> Vec<Nwa> {
    let sigma = alphabet.len();
    let t = |name: &str| alphabet.lookup(name).expect("generated tag");
    let (t0, t1, t2, t3) = (t("t0"), t("t1"), t("t2"), t("t3"));
    [
        Query::contains(t0),
        Query::contains(t1),
        Query::contains(t2),
        Query::contains(t3),
        Query::in_order([t0, t1]),
        Query::in_order([t2, t3]),
        Query::in_order([t1, t0]),
        Query::within(t0, t1),
        Query::within(t1, t2),
        Query::within(t2, t3),
        Query::depth_le(4),
        Query::depth_le(8),
        Query::open_depth_le(16),
        Query::open_depth_le(30),
        Query::contains(t0).and(Query::contains(t1)),
        Query::within(t0, t3).or(Query::depth_le(2)),
    ]
    .iter()
    .map(|e| e.lower(sigma))
    .collect()
}

/// The service query: some word `w42` inside an open `t0` element. One
/// word in 4096 makes the verdict depend on the document's size.
pub fn service_query(alphabet: &Alphabet) -> Nwa {
    let t0 = alphabet.lookup("t0").expect("generated tag");
    let w = alphabet.lookup("w42").expect("generated word");
    within_nwa(t0, w, alphabet.len())
}

/// The E15c-shape document of about a million events, with `queries`
/// built over its alphabet.
pub fn stream(seed: u64, queries: fn(&Alphabet) -> Vec<Nwa>) -> Inputs {
    let config = DocumentConfig {
        events: STREAM_EVENTS,
        max_depth: MAX_DEPTH,
        tags: TAGS,
        words: STREAM_WORDS,
    };
    let (alphabet, word) = generate_document(config, seed);
    let queries = queries(&alphabet);
    let docs = vec![Doc::new(&word, &alphabet, &queries)];
    Inputs {
        alphabet,
        queries,
        docs,
        vocab: STREAM_WORDS,
    }
}

/// [`SERVICE_POOL`] documents over one 4096-word alphabet, decided by
/// [`service_query`]. Sizes are log-uniform and stratified: document `i`
/// draws its size from the `i`-th of [`SERVICE_POOL`] equal slices of the
/// log range, so every seed gets the same size mix and the tail latency
/// measures the service rather than which sizes a seed happened to draw.
pub fn service(seed: u64) -> Inputs {
    let mut rng = Prng::new(seed);
    let config = |events| DocumentConfig {
        events,
        max_depth: MAX_DEPTH,
        tags: TAGS,
        words: SERVICE_WORDS,
    };
    let (alphabet, _) = generate_document(config(1), seed);
    let queries = vec![service_query(&alphabet)];
    let (lo, hi) = SERVICE_EVENTS;
    let docs = (0..SERVICE_POOL)
        .map(|i| {
            let slice = (i as f64 + rng.f64()) / SERVICE_POOL as f64;
            let events = (lo * (hi / lo).powf(slice)) as usize;
            let (doc_alphabet, word) = generate_document(config(events), rng.next_u64());
            debug_assert_eq!(doc_alphabet, alphabet);
            Doc::new(&word, &alphabet, &queries)
        })
        .collect();
    Inputs {
        alphabet,
        queries,
        docs,
        vocab: SERVICE_WORDS,
    }
}

/// A seeded order over `n` documents for the open loop: `rounds` shuffles
/// of all of them back to back, so any `n` consecutive requests carry
/// nearly the pool's size mix.
pub fn schedule(seed: u64, n: usize, rounds: usize) -> Vec<usize> {
    // a stream apart from the one the documents were drawn from
    let mut rng = Prng::new(!seed);
    let mut order = Vec::with_capacity(n * rounds);
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            round.swap(i, rng.below(i + 1));
        }
        order.extend(round);
    }
    order
}
