//! Compiled query sets: M deterministic NWAs decided in one pass over one
//! stream.
//!
//! [`QuerySet`] is the reference implementation of the
//! `automata_core::{MultiCompile, MultiAcceptor, QuerySetRun}` capability.
//! It compiles a set of M queries over a common alphabet into one artifact
//! with two interchangeable backends:
//!
//! * **Product** — the member automata are folded into one product NWA
//!   (componentwise `δc`/`δi`/`δr`, the [`crate::boolean::product`]
//!   construction) and compiled into a single dense table, plus a per-state
//!   **accept mask**: `masks[q]` has bit `i` set iff query `i`'s component
//!   of product state `q` is accepting. One table lookup per event answers
//!   all M queries; the trade is table size, which multiplies across
//!   members (`∏ nᵢ` states, and the compiled fused table is quadratic in
//!   that).
//! * **Lockstep** — the members compile individually and their lanes
//!   advance back to back per event slice. Linear space, and up to M
//!   dependent table lookups per event — only up to, because of the two
//!   skips below.
//!
//! Both backends step only what can change. Each compiled engine knows its
//! **inert** symbols (`δi(q, a) = q` in every state) and its **absorbing**
//! states (every transition lands back on the state). The set's slice loop
//! compacts each block of events once against the set-wide inert symbols —
//! the ∧ of its engines' — so a text word no member reads is dropped before
//! any engine sees it. An engine that lands in an absorbing state
//! **retires**: its verdict is fixed, so it is never stepped again, and the
//! set lane counts stack height, peak and events itself. On the
//! sixteen-query E19 pool, where half the events are inert text and most
//! members settle early, the two skips cut the set's step cost from ~108 to
//! ~3 ns per event (perfbench `multi.ns_per_event`, 2-vCPU Xeon VM).
//!
//! [`QuerySet::compile`] picks by a size heuristic: the product backend is
//! taken exactly when its fused table would stay within
//! [`PRODUCT_TABLE_BYTE_CAP`] (so the hot table stays cache-resident and
//! construction stays trivial); anything bigger — or overflowing — runs
//! lockstep. [`QuerySet::with_backend`] forces a backend, which is how the
//! backend-equivalence properties in `tests/multiquery.rs` pin that both
//! answer identically on the same seeds.
//!
//! Either way a set's lane is one [`CompiledNwaLane`] per engine (one for
//! the product, M for lockstep), and the set implements the single-verdict
//! traits (`StreamAcceptor`/`BatchAcceptor`) as the **conjunction view**:
//! the set accepts iff every member accepts — the intersection language —
//! so one `QuerySet` can sit behind every existing single-verdict layer
//! (`DecisionService`, `query::run_batch`) while
//! [`DecisionService::submit_multi`](../nwa_service/struct.DecisionService.html)
//! and `query::run_multi` read the per-query verdicts off the same lane.

use crate::automaton::Nwa;
use crate::boolean;
use crate::compile::{compact, keeps, CompiledNwa, CompiledNwaLane, BLOCK};
use automata_core::multi::MAX_QUERIES;
use automata_core::persist::{
    checksum_bytes, expect_alphabet, fingerprint_alphabet, fingerprint_payload, kind, Reader,
    Writer,
};
use automata_core::{
    BatchAcceptor, Compile, LaneRun, MultiAcceptor, MultiCompile, Persist, PersistError,
    StreamAcceptor, StreamOutcome,
};
use nested_words::{Symbol, TaggedSymbol};

/// Ceiling on the product backend's fused-table footprint, in bytes.
///
/// The compiled product table holds `(n + n²)·3σ` `u32` entries for
/// `n = ∏ nᵢ` product states; past ~1 MiB it stops fitting alongside the
/// scanner's working set in L2 and the single-lookup advantage erodes, so
/// [`QuerySet::compile`] switches to the lockstep backend there.
pub const PRODUCT_TABLE_BYTE_CAP: u64 = 1 << 20;

/// Which representation a [`QuerySet`] runs on. [`QuerySet::compile`]
/// chooses automatically; [`QuerySet::with_backend`] forces one (used by
/// the backend-equivalence property tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySetBackend {
    /// One product automaton with per-state accept masks: a single table
    /// lookup per event decides all member queries.
    Product,
    /// M individually compiled engines advanced back to back per event.
    Lockstep,
}

/// The backing representation plus its compiled data.
#[derive(Debug, PartialEq)]
enum Backend {
    Product {
        engine: CompiledNwa,
        /// Per product state: bit `i` set iff query `i`'s component accepts.
        masks: Vec<u64>,
    },
    Lockstep {
        engines: Vec<CompiledNwa>,
    },
}

/// A compiled set of M deterministic NWA queries over one common alphabet,
/// stepped once per event for all M verdicts.
///
/// Build with [`QuerySet::compile`] (or `query::compile_set`), drive with
/// `query::run_multi` / `nwa_xml::queries::run_multi_streaming_reader`, or
/// through [`MultiAcceptor::start_set`] directly. Round-trips through
/// `Persist` like every compiled engine (`load(save(set)) == set`).
#[derive(Debug, PartialEq)]
pub struct QuerySet {
    num_queries: usize,
    sigma: u32,
    backend: Backend,
    /// `inert[a]`: `a` is inert in every engine the set steps — the ∧ of
    /// their inert sets, so an internal `a` changes no member and the slice
    /// loop drops it once for all of them. Derived, never serialized.
    inert: Vec<bool>,
}

/// The conjunction bitmask of an M-query set: the low `m` bits.
fn full_mask(m: usize) -> u64 {
    debug_assert!((1..=MAX_QUERIES).contains(&m));
    if m == MAX_QUERIES {
        u64::MAX
    } else {
        (1u64 << m) - 1
    }
}

/// The product backend's fused-table footprint in bytes, or `None` on
/// overflow: `(n + n²)·3σ·4` for `n = ∏ nᵢ`.
fn product_table_bytes(queries: &[Nwa]) -> Option<u64> {
    let mut n: u64 = 1;
    for q in queries {
        n = n.checked_mul(q.num_states() as u64)?;
    }
    let stride = (3 * queries[0].sigma() as u64).max(1);
    n.checked_mul(n)?
        .checked_add(n)?
        .checked_mul(stride)?
        .checked_mul(4)
}

impl QuerySet {
    /// Compiles `queries` into one multi-query artifact, selecting the
    /// backend by size: the shared product table (one lookup per event) when
    /// its footprint stays within [`PRODUCT_TABLE_BYTE_CAP`], otherwise M
    /// engines in lockstep.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty, holds more than
    /// [`MAX_QUERIES`] members, or mixes
    /// alphabet sizes.
    pub fn compile(queries: &[Nwa]) -> QuerySet {
        assert!(!queries.is_empty(), "a query set needs at least one query");
        let backend =
            if product_table_bytes(queries).is_some_and(|bytes| bytes <= PRODUCT_TABLE_BYTE_CAP) {
                QuerySetBackend::Product
            } else {
                QuerySetBackend::Lockstep
            };
        QuerySet::with_backend(queries, backend)
    }

    /// Compiles `queries` on a forced backend, bypassing the size heuristic.
    /// Same panics as [`QuerySet::compile`]; additionally, forcing
    /// [`QuerySetBackend::Product`] on a set whose product table overflows
    /// the dense engine's `u32` offset space panics in the table builder.
    pub fn with_backend(queries: &[Nwa], backend: QuerySetBackend) -> QuerySet {
        assert!(!queries.is_empty(), "a query set needs at least one query");
        assert!(
            queries.len() <= MAX_QUERIES,
            "a query set holds at most {MAX_QUERIES} queries (got {}); split larger \
             workloads into multiple sets",
            queries.len()
        );
        let sigma = queries[0].sigma();
        for q in queries {
            assert_eq!(q.sigma(), sigma, "query sets require a common alphabet");
        }
        let num_queries = queries.len();
        let backend = match backend {
            QuerySetBackend::Product => {
                // Left-fold of the pairwise product: state encoding
                // `((q₁·n₂ + q₂)·n₃ + q₃)…`, acceptance folded with ∧ so the
                // product automaton itself is the conjunction view.
                let mut product = queries[0].clone();
                for q in &queries[1..] {
                    product = boolean::intersect(&product, q);
                }
                // Per-state accept masks, by decoding each product state
                // back into its member components (rightmost query is the
                // fastest-varying digit of the mixed-radix encoding).
                let masks = (0..product.num_states())
                    .map(|mut s| {
                        let mut mask = 0u64;
                        for (i, q) in queries.iter().enumerate().rev() {
                            if q.is_accepting(s % q.num_states()) {
                                mask |= 1 << i;
                            }
                            s /= q.num_states();
                        }
                        mask
                    })
                    .collect();
                Backend::Product {
                    engine: product.compile(),
                    masks,
                }
            }
            QuerySetBackend::Lockstep => Backend::Lockstep {
                engines: queries.iter().map(Compile::compile).collect(),
            },
        };
        QuerySet::assemble(num_queries, sigma as u32, backend)
    }

    /// The set around compiled engines, with its set-wide inert symbols
    /// derived from theirs.
    fn assemble(num_queries: usize, sigma: u32, backend: Backend) -> QuerySet {
        let mut set = QuerySet {
            num_queries,
            sigma,
            backend,
            inert: Vec::new(),
        };
        set.inert = (0..sigma as usize)
            .map(|a| set.engines().iter().all(|e| e.inert[a]))
            .collect();
        set
    }

    /// Which backend the set compiled to.
    pub fn backend(&self) -> QuerySetBackend {
        match self.backend {
            Backend::Product { .. } => QuerySetBackend::Product,
            Backend::Lockstep { .. } => QuerySetBackend::Lockstep,
        }
    }

    /// Number of member queries.
    pub fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// Alphabet size every member was compiled against.
    pub fn sigma(&self) -> usize {
        self.sigma as usize
    }

    /// Total dense-table footprint in bytes: the product table, or the sum
    /// of the member engines' tables.
    pub fn table_bytes(&self) -> usize {
        self.engines().iter().map(CompiledNwa::table_bytes).sum()
    }

    /// Whether symbol `a` is inert for the whole set: an internal `a`
    /// changes no engine's state, so the set's slice loop drops it.
    pub fn is_inert(&self, a: Symbol) -> bool {
        self.inert[a.index()]
    }

    /// The compiled engines a lane steps: the one product engine, or the
    /// M member engines.
    fn engines(&self) -> &[CompiledNwa] {
        match &self.backend {
            Backend::Product { engine, .. } => std::slice::from_ref(engine),
            Backend::Lockstep { engines } => engines,
        }
    }
}

// --------------------------------------------------------------------------
// Lanes: the conjunction view, with per-query verdicts on the side
// --------------------------------------------------------------------------

/// One owned per-stream lane of a [`QuerySet`]: one [`CompiledNwaLane`] per
/// engine the set steps (the product engine, or every member), so it is
/// `Send` and borrows nothing.
///
/// An engine that reaches an absorbing state *retires*: its bit leaves
/// `live` and its lane is never stepped again, its state — and so its
/// verdict — fixed. Its stack stops moving with it, so the set lane
/// counts stack height, peak and steps itself; stack height is a function
/// of the event stream alone.
#[derive(Debug, Clone)]
pub struct QuerySetLane {
    lanes: Vec<CompiledNwaLane>,
    /// Bit `i` set iff engine `i` has not retired.
    live: u64,
    height: usize,
    peak: usize,
    steps: usize,
}

impl QuerySet {
    /// Steps every live engine over `kept` (events already known to need
    /// stepping) and retires the engines that end it in an absorbing state.
    fn step_live(&self, lane: &mut QuerySetLane, kept: &[TaggedSymbol]) {
        let engines = self.engines();
        let mut live = lane.live;
        while live != 0 {
            let i = live.trailing_zeros() as usize;
            live &= live - 1;
            engines[i].step_kept(&mut lane.lanes[i], kept);
            if engines[i].lane_settled(&lane.lanes[i]) {
                lane.live &= !(1 << i);
            }
        }
    }
}

/// A stack height after `event`: up one on a call, down one on a return,
/// except that a pending return (on an empty stack) leaves it at zero.
#[inline(always)]
fn next_height(height: usize, event: TaggedSymbol) -> usize {
    let is_call = usize::from(matches!(event, TaggedSymbol::Call(_)));
    let is_ret = usize::from(matches!(event, TaggedSymbol::Return(_)));
    (height + is_call).saturating_sub(is_ret)
}

impl StreamAcceptor for QuerySet {
    type Run<'a> = LaneRun<'a, QuerySet>;

    /// Starts the conjunction view: the run accepts iff every member
    /// accepts (the intersection language). The same run doubles as the
    /// multi-verdict [`MultiAcceptor::start_set`] run.
    fn start(&self) -> LaneRun<'_, QuerySet> {
        LaneRun::new(self)
    }
}

impl BatchAcceptor for QuerySet {
    type Lane = QuerySetLane;

    fn lane_start(&self) -> QuerySetLane {
        let lanes: Vec<CompiledNwaLane> = self
            .engines()
            .iter()
            .map(BatchAcceptor::lane_start)
            .collect();
        let live = self
            .engines()
            .iter()
            .zip(&lanes)
            .enumerate()
            .fold(0u64, |acc, (i, (engine, lane))| {
                acc | (u64::from(!engine.lane_settled(lane)) << i)
            });
        QuerySetLane {
            lanes,
            live,
            height: 0,
            peak: 0,
            steps: 0,
        }
    }

    fn lane_step(&self, lane: &mut QuerySetLane, event: TaggedSymbol) {
        let keep = keeps(&self.inert, event);
        lane.height = next_height(lane.height, event);
        lane.peak = lane.peak.max(lane.height);
        lane.steps += 1;
        if keep {
            self.step_live(lane, &[event]);
        }
    }

    /// Compacts each block of at most 1024 events once against the
    /// set-wide inert symbols, counting stack height and peak on the way,
    /// then gives each live engine the register-resident slice loop over
    /// the kept events (engines outer, events inner). Engines that settle
    /// in an absorbing state retire at the block's end.
    fn lane_step_slice(&self, lane: &mut QuerySetLane, events: &[TaggedSymbol]) {
        let mut kept = [TaggedSymbol::Internal(Symbol(0)); BLOCK];
        let (mut height, mut peak) = (lane.height, lane.peak);
        for block in events.chunks(BLOCK) {
            let n = compact(&self.inert, block, &mut kept, |event| {
                height = next_height(height, event);
                peak = peak.max(height);
            });
            self.step_live(lane, &kept[..n]);
        }
        lane.height = height;
        lane.peak = peak;
        lane.steps += events.len();
    }

    /// The conjunction view: `true` iff **every** member query accepts the
    /// prefix read so far (the product automaton folds acceptance with ∧,
    /// so both backends answer identically).
    fn lane_accepting(&self, lane: &QuerySetLane) -> bool {
        self.engines()
            .iter()
            .zip(&lane.lanes)
            .all(|(engine, lane)| engine.lane_accepting(lane))
    }

    /// Stack height is a function of the event stream alone (one frame per
    /// currently open call, whatever the states), so the set lane counts
    /// it once, retired engines or not.
    fn lane_stack_height(&self, lane: &QuerySetLane) -> usize {
        lane.height
    }

    fn lane_outcome(&self, lane: &QuerySetLane) -> StreamOutcome {
        StreamOutcome {
            accepted: self.lane_accepting(lane),
            events: lane.steps,
            peak_memory: lane.peak,
        }
    }

    /// Lanes drain sequentially, one stream at a time: the fused NWA step
    /// is issue-width-bound and interleaved lanes spill (the measurement
    /// behind `CompiledNwa`'s identical override), and a lockstep set
    /// already advances M engines per event.
    fn run_batch(&self, streams: &[&[TaggedSymbol]]) -> Vec<StreamOutcome> {
        streams
            .iter()
            .map(|stream| {
                let mut lane = self.lane_start();
                self.lane_step_slice(&mut lane, stream);
                self.lane_outcome(&lane)
            })
            .collect()
    }
}

impl MultiAcceptor for QuerySet {
    fn num_queries(&self) -> usize {
        self.num_queries
    }

    fn lane_verdicts(&self, lane: &QuerySetLane) -> u64 {
        match &self.backend {
            Backend::Product { engine, masks } => {
                masks[(lane.lanes[0].state / engine.stride) as usize]
            }
            Backend::Lockstep { engines } => engines
                .iter()
                .zip(&lane.lanes)
                .enumerate()
                .fold(0u64, |acc, (i, (engine, lane))| {
                    acc | (u64::from(engine.lane_accepting(lane)) << i)
                }),
        }
    }

    fn member_alphabet_fingerprints(&self) -> Vec<u64> {
        // Every member shares the set's alphabet by construction, so the
        // fingerprints coincide — but serving layers validate each entry,
        // so the contract stays per-query.
        vec![fingerprint_alphabet(self.sigma as usize); self.num_queries]
    }
}

impl MultiCompile for Nwa {
    type CompiledSet = QuerySet;

    fn compile_set(queries: &[Nwa]) -> QuerySet {
        QuerySet::compile(queries)
    }
}

// --------------------------------------------------------------------------
// Persist
// --------------------------------------------------------------------------

/// Backend tags on the wire.
const TAG_PRODUCT: u32 = 0;
const TAG_LOCKSTEP: u32 = 1;

impl QuerySet {
    /// Serializes the set: backend tag, member count, σ, then the backend's
    /// compiled data — the member/product engines ride as complete framed
    /// [`CompiledNwa`] images (header, checksum and all), so their loader
    /// revalidates every table entry on decode.
    fn write_payload(&self, w: &mut Writer) {
        w.put_u32(match self.backend {
            Backend::Product { .. } => TAG_PRODUCT,
            Backend::Lockstep { .. } => TAG_LOCKSTEP,
        });
        w.put_u32(self.num_queries as u32);
        w.put_u32(self.sigma);
        match &self.backend {
            Backend::Product { engine, masks } => {
                w.put_bytes(&engine.save());
                w.put_u64(masks.len() as u64);
                for &mask in masks {
                    w.put_u64(mask);
                }
            }
            Backend::Lockstep { engines } => {
                for engine in engines {
                    w.put_bytes(&engine.save());
                }
            }
        }
    }
}

impl Persist for QuerySet {
    const KIND: u16 = kind::QUERY_SET;

    fn save(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_payload(&mut w);
        w.seal(Self::KIND, self.alphabet_fingerprint())
    }

    fn load(bytes: &[u8]) -> Result<Self, PersistError> {
        let (alphabet, mut r) = Reader::open(bytes, Self::KIND)?;
        let tag = r.get_u32()?;
        let num_queries = r.get_u32()? as usize;
        let sigma = r.get_u32()?;
        expect_alphabet(alphabet, sigma as usize)?;
        if num_queries == 0 || num_queries > MAX_QUERIES {
            return Err(PersistError::Malformed {
                context: "query count outside 1..=64",
            });
        }
        let load_engine = |r: &mut Reader<'_>| -> Result<CompiledNwa, PersistError> {
            let engine = CompiledNwa::load(&r.get_bytes()?)?;
            if engine.sigma() != sigma as usize {
                return Err(PersistError::Malformed {
                    context: "member engine alphabet disagrees with the set's",
                });
            }
            Ok(engine)
        };
        let backend = match tag {
            TAG_PRODUCT => {
                let engine = load_engine(&mut r)?;
                let count = r.get_u64()?;
                if count != engine.num_states() as u64 {
                    return Err(PersistError::Malformed {
                        context: "accept mask count disagrees with the product state count",
                    });
                }
                let full = full_mask(num_queries);
                let masks = (0..count)
                    .map(|_| r.get_u64())
                    .collect::<Result<Vec<u64>, _>>()?;
                for (q, &mask) in masks.iter().enumerate() {
                    if mask & !full != 0 {
                        return Err(PersistError::Malformed {
                            context: "accept mask has bits beyond the query count",
                        });
                    }
                    // The product engine's acceptance is the ∧-fold of the
                    // masks by construction; a disagreement means the bytes
                    // do not describe one artifact.
                    if engine.accepting[q] != (mask == full) {
                        return Err(PersistError::Malformed {
                            context: "accept mask disagrees with the conjunction acceptance",
                        });
                    }
                }
                Backend::Product { engine, masks }
            }
            TAG_LOCKSTEP => {
                let engines = (0..num_queries)
                    .map(|_| load_engine(&mut r))
                    .collect::<Result<Vec<CompiledNwa>, _>>()?;
                Backend::Lockstep { engines }
            }
            _ => {
                return Err(PersistError::Malformed {
                    context: "unknown query-set backend tag",
                });
            }
        };
        r.finish()?;
        Ok(QuerySet::assemble(num_queries, sigma, backend))
    }

    fn fingerprint(&self) -> u64 {
        let mut w = Writer::new();
        self.write_payload(&mut w);
        fingerprint_payload(Self::KIND, checksum_bytes(w.payload()))
    }

    fn alphabet_fingerprint(&self) -> u64 {
        fingerprint_alphabet(self.sigma as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NwaBuilder;
    use automata_core::{QuerySetRun, StreamRun};
    use nested_words::Symbol;

    /// Deterministic NWA over a σ-symbol alphabet accepting streams of even
    /// length.
    fn even_len_nwa(sigma: usize) -> Nwa {
        let mut b = NwaBuilder::new(2, sigma, 0).accepting(0);
        for q in 0..2usize {
            for a in 0..sigma {
                let a = Symbol(a as u16);
                b = b
                    .internal(q, a, 1 - q)
                    .call(q, a, 1 - q, q)
                    .ret(q, 0usize, a, 1 - q)
                    .ret(q, 1usize, a, 1 - q);
            }
        }
        b.build()
    }

    /// Deterministic NWA accepting streams containing at least one call.
    fn some_call_nwa(sigma: usize) -> Nwa {
        let mut b = NwaBuilder::new(2, sigma, 0).accepting(1);
        for q in 0..2usize {
            for a in 0..sigma {
                let a = Symbol(a as u16);
                b = b
                    .internal(q, a, q)
                    .call(q, a, 1, 0)
                    .ret(q, 0usize, a, q)
                    .ret(q, 1usize, a, q);
            }
        }
        b.build()
    }

    fn sample_events() -> Vec<TaggedSymbol> {
        let a = Symbol(0);
        vec![
            TaggedSymbol::Call(a),
            TaggedSymbol::Internal(a),
            TaggedSymbol::Return(a),
            TaggedSymbol::Return(a), // pending return
            TaggedSymbol::Call(a),   // pending call at the end
        ]
    }

    #[test]
    fn both_backends_agree_with_sequential_runs_at_every_prefix() {
        let queries = [even_len_nwa(1), some_call_nwa(1)];
        for backend in [QuerySetBackend::Product, QuerySetBackend::Lockstep] {
            let set = QuerySet::with_backend(&queries, backend);
            assert_eq!(set.backend(), backend);
            let mut run = set.start_set();
            let mut solo: Vec<_> = queries.iter().map(|q| q.start()).collect();
            for (k, &event) in sample_events().iter().enumerate() {
                run.step(event);
                for s in &mut solo {
                    s.step(event);
                }
                for (i, s) in solo.iter().enumerate() {
                    assert_eq!(
                        run.verdicts() & (1 << i) != 0,
                        s.is_accepting(),
                        "{backend:?}, query {i}, prefix {k}"
                    );
                }
                assert_eq!(run.stack_height(), solo[0].stack_height());
                assert_eq!(run.peak_memory(), solo[0].peak_memory());
                assert_eq!(run.steps(), k + 1);
            }
            let outcomes = run.outcomes();
            assert_eq!(outcomes.len(), 2);
            for (outcome, s) in outcomes.iter().zip(&solo) {
                assert_eq!(outcome.accepted, s.is_accepting());
                assert_eq!(outcome.events, s.steps());
                assert_eq!(outcome.peak_memory, s.peak_memory());
            }
            // The conjunction view is the ∧ of the member verdicts.
            assert_eq!(
                run.is_accepting(),
                run.verdicts() == full_mask(set.num_queries())
            );
        }
    }

    #[test]
    fn heuristic_prefers_product_small_and_lockstep_large() {
        let small = QuerySet::compile(&[even_len_nwa(1), some_call_nwa(1)]);
        assert_eq!(small.backend(), QuerySetBackend::Product);
        // 16 two-state queries: 2^16 product states blow the table cap.
        let queries: Vec<Nwa> = (0..16).map(|_| even_len_nwa(1)).collect();
        let large = QuerySet::compile(&queries);
        assert_eq!(large.backend(), QuerySetBackend::Lockstep);
        assert_eq!(large.num_queries(), 16);
    }

    #[test]
    fn persist_round_trips_both_backends() {
        let queries = [even_len_nwa(2), some_call_nwa(2)];
        for backend in [QuerySetBackend::Product, QuerySetBackend::Lockstep] {
            let set = QuerySet::with_backend(&queries, backend);
            let bytes = set.save();
            let back = QuerySet::load(&bytes).unwrap();
            assert_eq!(back, set);
            assert_eq!(back.fingerprint(), set.fingerprint());
            // Truncation is typed, never a panic.
            assert!(QuerySet::load(&bytes[..bytes.len() - 1]).is_err());
        }
    }

    /// Deterministic NWA accepting once a call has been read, with that
    /// state an absorbing sink.
    fn settles_on_call_nwa(sigma: usize) -> Nwa {
        let mut b = NwaBuilder::new(2, sigma, 0).accepting(1);
        for a in 0..sigma {
            let a = Symbol(a as u16);
            b = b
                .internal(0usize, a, 0usize)
                .call(0usize, a, 1usize, 0usize);
            for q in 0..2usize {
                b = b.ret(q, 0usize, a, q).ret(q, 1usize, a, q);
            }
            b = b
                .internal(1usize, a, 1usize)
                .call(1usize, a, 1usize, 1usize);
        }
        b.build()
    }

    #[test]
    fn engines_retire_in_absorbing_states_and_only_there() {
        let queries = [settles_on_call_nwa(2), even_len_nwa(2)];
        let a = Symbol(0);
        for backend in [QuerySetBackend::Product, QuerySetBackend::Lockstep] {
            let set = QuerySet::with_backend(&queries, backend);
            let all = full_mask(set.engines().len());
            let mut lane = set.lane_start();
            assert_eq!(lane.live, all, "{backend:?}");
            set.lane_step_slice(&mut lane, &[TaggedSymbol::Internal(a); 3]);
            assert_eq!(lane.live, all, "{backend:?}");
            set.lane_step_slice(&mut lane, &[TaggedSymbol::Call(a)]);
            // Lockstep retires the settled member; the product's state
            // still moves with the even-length component.
            let expected = match backend {
                QuerySetBackend::Product => all,
                QuerySetBackend::Lockstep => 0b10,
            };
            assert_eq!(lane.live, expected, "{backend:?}");
            assert_eq!(set.lane_verdicts(&lane), 0b11, "{backend:?}");
            set.lane_step(&mut lane, TaggedSymbol::Internal(a));
            assert_eq!(set.lane_verdicts(&lane), 0b01, "{backend:?}");
            assert_eq!(set.lane_outcome(&lane).events, 5);
        }
        // Once every engine has retired, the set lane still counts the
        // stack.
        let set = QuerySet::with_backend(&[settles_on_call_nwa(2)], QuerySetBackend::Lockstep);
        let mut lane = set.lane_start();
        set.lane_step_slice(&mut lane, &[TaggedSymbol::Call(a), TaggedSymbol::Call(a)]);
        assert_eq!(lane.live, 0);
        assert_eq!(set.lane_stack_height(&lane), 2);
        assert_eq!(set.lane_outcome(&lane).peak_memory, 2);
    }

    #[test]
    fn query_sets_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuerySet>();
        fn assert_send<T: Send>() {}
        assert_send::<QuerySetLane>();
    }
}
