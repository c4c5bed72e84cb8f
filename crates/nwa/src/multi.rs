//! Compiled query sets: M deterministic NWAs decided in one pass over one
//! stream.
//!
//! [`QuerySet`] is the reference implementation of the
//! `automata_core::{MultiCompile, MultiAcceptor, QuerySetRun}` capability.
//! It compiles a set of M queries over a common alphabet into one artifact
//! with one representation: a list of compiled engines, each with a
//! per-state **verdict mask** — `masks[e][q]` holds the verdict bits engine
//! `e` contributes in state `q`. A lane steps every engine, and the set's
//! verdicts are the OR of the engines' masks at their current states.
//!
//! [`QuerySet::compile`] gives that representation one of two shapes:
//!
//! * **Product** — the members fold into one product NWA (componentwise
//!   `δc`/`δi`/`δr`, the [`crate::boolean::product`] construction) compiled
//!   into a single table, whose masks decode each product state back
//!   into its members' acceptance. One table lookup per event answers all M
//!   queries; the trade is table size, which multiplies across members
//!   (`∏ nᵢ` states, and the compiled fused table is quadratic in that).
//!   The product is taken exactly when its dense fused table (one column
//!   per tagged symbol) would stay within [`PRODUCT_TABLE_BYTE_CAP`].
//! * **Per query** — anything bigger, or overflowing, compiles each member
//!   to its own engine, whose mask is its acceptance shifted to its bit.
//!   Linear space, and up to M dependent table lookups per event — only up
//!   to, because of the two skips below.
//!
//! Every engine steps only what can change. Each compiled engine knows its
//! **inert** symbols (`δi(q, a) = q` in every state) and its **absorbing**
//! states (every transition lands back on the state). The set's slice loop
//! compacts each block of events once against the set-wide inert symbols —
//! the ∧ of its engines' — so a text word no member reads is dropped before
//! any engine sees it. Engines whose own inert set is wider (a text-blind
//! member of a set that also reads text) share one further compaction per
//! distinct inert set, so each engine steps only what can change it. An
//! engine that lands in an absorbing state **retires** — it has settled,
//! as any compiled lane does there: its verdict is fixed, so it is never
//! stepped again, and the set lane counts stack height, peak and events
//! itself. Once every engine has retired, the set lane runs the same
//! height-only loop as a settled lone [`CompiledNwa`], with no compaction.
//! On the sixteen-query E19 pool, where half the events are inert text and
//! all sixteen members settle within the first 149–263 tag events of the
//! perfbench documents (seeds 1–3), the two skips cut the set's step cost
//! from ~108 to ~3 ns per event (perfbench `multi.ns_per_event`, 2-vCPU
//! Xeon VM).
//!
//! Settling also narrows the scan. The set derives which engines read
//! text (those whose inert set does not cover the alphabet), and a lane
//! reads text only while one of them is live
//! ([`BatchAcceptor::lane_reads_text`]). Once the last text reader
//! retires — text-blind members such as depth bounds may still be live —
//! `nwa_xml::queries::run_multi_streaming_reader` switches its lexer to
//! drop-all for the rest of the stream: text words are counted, never
//! resolved. On the E19 pool, whose four `within` members read text, that
//! happens after the first 4,096-event slice, and the perfbench
//! `stream_16q` pass went from 8.98 to 6.37 ms (p50) per 3.69 MB
//! document, `verdict_mb_s` 410.8 → 579.0 (medians of ten alternating
//! pairs, same 2-vCPU VM).
//!
//! The set implements the single-verdict traits
//! (`StreamAcceptor`/`BatchAcceptor`) as the **conjunction view**: the set
//! accepts iff every member accepts — the intersection language — so one
//! `QuerySet` can sit behind every existing single-verdict layer
//! (`DecisionService`, `query::run_batch`) while
//! [`DecisionService::submit_multi`](../nwa_service/struct.DecisionService.html)
//! and `query::run_multi` read the per-query verdicts off the same lane.

use crate::automaton::Nwa;
use crate::boolean;
use automata_core::compile::{
    compact, keeps, next_height, step_heights, CompiledNwa, CompiledNwaLane, BLOCK,
};
use automata_core::multi::MAX_QUERIES;
use automata_core::persist::{
    expect_alphabet, fingerprint_alphabet, fingerprint_payload, kind, FingerprintCell, Reader,
    Writer,
};
use automata_core::{
    BatchAcceptor, Compile, Forms, LaneRun, MultiAcceptor, MultiCompile, Persist, PersistError,
    StreamAcceptor, StreamOutcome,
};
use nested_words::{Symbol, TaggedSymbol};

/// Ceiling on the product shape's fused-table footprint, in bytes.
///
/// The shape choice still uses the **dense** estimate, `(n + n²)·3σ`
/// `u32` entries for `n = ∏ nᵢ` product states — one column per tagged
/// symbol, what the table took before symbol classes — although the
/// compiled table is now sized by the product's classes. Keeping the
/// estimate keeps every set in the shape it had, so saved set images do
/// not change. Past ~1 MiB the dense table stopped fitting alongside the
/// scanner's working set in L2 and the single-lookup advantage eroded, so
/// [`QuerySet::compile`] compiles one engine per query there.
pub const PRODUCT_TABLE_BYTE_CAP: u64 = 1 << 20;

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
    /// The engines a lane steps: the one product engine, or one per member.
    engines: Vec<CompiledNwa>,
    /// `masks[e][q]`: the verdict bits engine `e` contributes in state `q`.
    masks: Vec<Vec<u64>>,
    /// `inert[a]`: `a` is inert in every engine — the ∧ of their inert
    /// sets, so an internal `a` changes no member and the slice loop drops
    /// it once for all of them. Derived, never serialized.
    inert: Vec<bool>,
    /// The engines grouped by equal inert sets. Derived, never serialized.
    classes: Vec<InertClass>,
    /// Bit `e` set iff engine `e` reads text: its inert set does not cover
    /// the alphabet. A lane reads text while one of these is live. Derived,
    /// never serialized.
    text_readers: u64,
    /// Content hash over the serialized set, computed on first use.
    fingerprint: FingerprintCell,
}

/// Engines of a [`QuerySet`] sharing one inert set, stepped over one
/// compaction of the events against it.
#[derive(Debug, PartialEq)]
struct InertClass {
    /// Bit `e` set iff engine `e` is in the class.
    engines: u64,
    /// An engine of the class, whose inert set is the class's.
    rep: usize,
    /// The class's inert set is wider than the set-wide one, so the events
    /// the set keeps are compacted again for it.
    compacts: bool,
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

/// The product shape's dense fused-table footprint in bytes, or `None` on
/// overflow: `(n + n²)·3σ·4` for `n = ∏ nᵢ` — the estimate the shape
/// choice keeps (see [`PRODUCT_TABLE_BYTE_CAP`]), not the classed size.
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
    /// Compiles `queries` into one multi-query artifact, shaped by size: one
    /// product engine (one lookup per event) when its fused table stays
    /// within [`PRODUCT_TABLE_BYTE_CAP`], otherwise one engine per query.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty, holds more than [`MAX_QUERIES`]
    /// members, or mixes alphabet sizes.
    pub fn compile(queries: &[Nwa]) -> QuerySet {
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
        let fits = product_table_bytes(queries).is_some_and(|b| b <= PRODUCT_TABLE_BYTE_CAP);
        // Each engine is the product of a run of consecutive members: all
        // of them, or one each.
        let group = if fits { queries.len() } else { 1 };
        let (engines, masks) = queries
            .chunks(group)
            .enumerate()
            .map(|(g, members)| {
                // A lone member compiles as it is. Otherwise the left-fold
                // of the pairwise product: state encoding
                // `((q₁·n₂ + q₂)·n₃ + q₃)…`, acceptance folded with ∧ so the
                // product automaton itself is the conjunction view.
                let engine = match members {
                    [only] => only.compile(),
                    [first, second, rest @ ..] => rest
                        .iter()
                        .fold(boolean::intersect(first, second), |p, q| {
                            boolean::intersect(&p, q)
                        })
                        .compile(),
                    [] => unreachable!("chunks are never empty"),
                };
                // Per-state verdict masks, by decoding each product state
                // back into its member components (rightmost member is the
                // fastest-varying digit of the mixed-radix encoding).
                let masks = (0..engine.num_states())
                    .map(|mut s| {
                        let mut mask = 0u64;
                        for (i, q) in members.iter().enumerate().rev() {
                            mask |=
                                u64::from(q.is_accepting(s % q.num_states())) << (g * group + i);
                            s /= q.num_states();
                        }
                        mask
                    })
                    .collect();
                (engine, masks)
            })
            .unzip();
        QuerySet::assemble(queries.len(), sigma as u32, engines, masks)
    }

    /// The set around compiled engines and their masks, with its set-wide
    /// inert symbols, its inert classes and its text readers derived from
    /// the engines'.
    fn assemble(
        num_queries: usize,
        sigma: u32,
        engines: Vec<CompiledNwa>,
        masks: Vec<Vec<u64>>,
    ) -> QuerySet {
        let inert: Vec<bool> = (0..sigma as usize)
            .map(|a| engines.iter().all(|e| e.inert_symbols()[a]))
            .collect();
        let mut classes: Vec<InertClass> = Vec::new();
        for (e, engine) in engines.iter().enumerate() {
            match classes
                .iter_mut()
                .find(|c| engines[c.rep].inert_symbols() == engine.inert_symbols())
            {
                Some(class) => class.engines |= 1 << e,
                None => classes.push(InertClass {
                    engines: 1 << e,
                    rep: e,
                    compacts: engine.inert_symbols() != inert,
                }),
            }
        }
        let text_readers = engines.iter().enumerate().fold(0u64, |acc, (e, engine)| {
            acc | u64::from(!engine.inert_symbols().iter().all(|&b| b)) << e
        });
        QuerySet {
            num_queries,
            sigma,
            engines,
            masks,
            inert,
            classes,
            text_readers,
            fingerprint: FingerprintCell::new(),
        }
    }

    /// Number of compiled engines a lane steps: 1 for the product shape,
    /// [`num_queries`](QuerySet::num_queries) for one engine per query.
    pub fn num_engines(&self) -> usize {
        self.engines.len()
    }

    /// Number of member queries.
    pub fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// Alphabet size every member was compiled against.
    pub fn sigma(&self) -> usize {
        self.sigma as usize
    }

    /// Total table footprint of the engines, in bytes: the sum of their
    /// [`CompiledNwa::table_bytes`], sized by symbol classes.
    pub fn table_bytes(&self) -> usize {
        self.engines.iter().map(CompiledNwa::table_bytes).sum()
    }

    /// Whether symbol `a` is inert for the whole set: an internal `a`
    /// changes no engine's state, so the set's slice loop drops it.
    pub fn is_inert(&self, a: Symbol) -> bool {
        self.inert[a.index()]
    }
}

// --------------------------------------------------------------------------
// Lanes: the conjunction view, with per-query verdicts on the side
// --------------------------------------------------------------------------

/// One owned per-stream lane of a [`QuerySet`]: one [`CompiledNwaLane`] per
/// engine, so it is `Send` and borrows nothing.
///
/// An engine that reaches an absorbing state *retires*: its bit leaves
/// `live` and its lane is never stepped again, its state — and so its
/// verdict — fixed. Its stack stops moving with it, so the set lane
/// counts stack height, peak and steps itself; stack height is a function
/// of the event stream alone.
#[derive(Debug, Clone)]
pub struct QuerySetLane {
    lanes: Vec<CompiledNwaLane>,
    /// Bit `e` set iff engine `e` has not retired.
    live: u64,
    height: usize,
    peak: usize,
    steps: usize,
}

impl QuerySet {
    /// Steps the live engines among `engines` (a bit per engine) over
    /// `events`, which they must step in order, and retires those that end
    /// it in an absorbing state.
    fn step_engines(&self, lane: &mut QuerySetLane, engines: u64, events: &[TaggedSymbol]) {
        let mut live = lane.live & engines;
        while live != 0 {
            let e = live.trailing_zeros() as usize;
            live &= live - 1;
            self.engines[e].step_kept(&mut lane.lanes[e], events);
            if self.engines[e].lane_settled(&lane.lanes[e]) {
                lane.live &= !(1 << e);
            }
        }
    }
}

impl StreamAcceptor for QuerySet {
    type Run<'a> = LaneRun<'a, QuerySet>;

    /// Starts the conjunction view: the run accepts iff every member
    /// accepts (the intersection language). The same run doubles as the
    /// multi-verdict [`MultiAcceptor::start_set`] run.
    fn start(&self) -> LaneRun<'_, QuerySet> {
        LaneRun::new(self)
    }

    /// The set-wide inert symbols (inert in every engine).
    fn inert_symbols(&self) -> &[bool] {
        &self.inert
    }
}

impl BatchAcceptor for QuerySet {
    type Lane = QuerySetLane;

    fn lane_start(&self) -> QuerySetLane {
        let lanes: Vec<CompiledNwaLane> =
            self.engines.iter().map(BatchAcceptor::lane_start).collect();
        let live = self
            .engines
            .iter()
            .zip(&lanes)
            .enumerate()
            .fold(0u64, |acc, (e, (engine, lane))| {
                acc | (u64::from(!engine.lane_settled(lane)) << e)
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
        step_heights(self.sigma(), &[event], &mut lane.height, &mut lane.peak);
        lane.steps += 1;
        if lane.live != 0 && keeps(&self.inert, event) {
            self.step_engines(lane, u64::MAX, &[event]);
        }
    }

    /// Compacts each block of at most 1024 events once against the
    /// set-wide inert symbols, counting stack height and peak on the way,
    /// and once more per inert class wider than that, then gives each live
    /// engine the register-resident slice loop over its class's kept events
    /// (engines outer, events inner). Engines that settle in an absorbing
    /// state retire at the block's end. Once every engine has retired, the
    /// set lane has settled like a lone engine's: its blocks run the same
    /// height-only loop, with no compaction.
    fn lane_step_slice(&self, lane: &mut QuerySetLane, events: &[TaggedSymbol]) {
        let mut kept = [TaggedSymbol::Internal(Symbol(0)); BLOCK];
        let mut own = [TaggedSymbol::Internal(Symbol(0)); BLOCK];
        let (mut height, mut peak) = (lane.height, lane.peak);
        for block in events.chunks(BLOCK) {
            if lane.live == 0 {
                step_heights(self.sigma(), block, &mut height, &mut peak);
                continue;
            }
            let n = compact(&self.inert, block, &mut kept, |event| {
                height = next_height(height, event);
                peak = peak.max(height);
            });
            for class in &self.classes {
                if lane.live & class.engines == 0 {
                    continue;
                }
                let kept = if class.compacts {
                    let inert = self.engines[class.rep].inert_symbols();
                    let m = compact(inert, &kept[..n], &mut own, |_| {});
                    &own[..m]
                } else {
                    &kept[..n]
                };
                self.step_engines(lane, class.engines, kept);
            }
        }
        lane.height = height;
        lane.peak = peak;
        lane.steps += events.len();
    }

    /// The conjunction view: `true` iff **every** member query accepts the
    /// prefix read so far.
    fn lane_accepting(&self, lane: &QuerySetLane) -> bool {
        self.lane_verdicts(lane) == full_mask(self.num_queries)
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

    /// The lane reads text while a live engine does: it stops once the
    /// last text reader retires, text-blind members live or not.
    fn lane_reads_text(&self, lane: &QuerySetLane) -> bool {
        lane.live & self.text_readers != 0
    }

    /// The lane reads names while any engine is live, name-blind ones
    /// such as depth bounds included: a live engine steps its table on
    /// every event, which takes the event's symbol.
    fn lane_reads_names(&self, lane: &QuerySetLane) -> bool {
        lane.live != 0
    }

    /// Once every engine has retired, the set lane counts the window's
    /// events and walks its own height and peak through the forms. Panics
    /// while an engine is live.
    fn lane_step_forms(&self, lane: &mut QuerySetLane, forms: Forms) {
        assert_eq!(lane.live, 0, "tag forms for a set lane with live engines");
        forms.apply(&mut lane.height, &mut lane.peak);
        lane.steps += forms.events;
    }
}

impl MultiAcceptor for QuerySet {
    fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// The OR of every engine's mask at its current state, retired engines
    /// included.
    fn lane_verdicts(&self, lane: &QuerySetLane) -> u64 {
        self.engines
            .iter()
            .zip(&self.masks)
            .zip(&lane.lanes)
            .fold(0u64, |acc, ((engine, masks), lane)| {
                acc | masks[engine.lane_state(lane)]
            })
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

/// The leading layout word of a saved set. Words `0` and `1` were earlier
/// layouts, with one wire format per representation; they no longer load.
const LAYOUT: u32 = 2;

impl QuerySet {
    /// Serializes the set: layout word, member count, σ, engine count, then
    /// per engine its complete framed [`CompiledNwa`] image (header,
    /// checksum and all, so its loader revalidates every table entry on
    /// decode) followed by its masks.
    fn write_payload(&self, w: &mut Writer) {
        w.put_u32(LAYOUT);
        w.put_u32(self.num_queries as u32);
        w.put_u32(self.sigma);
        w.put_u32(self.engines.len() as u32);
        for (engine, masks) in self.engines.iter().zip(&self.masks) {
            w.put_bytes(&engine.save());
            w.put_u64(masks.len() as u64);
            for &mask in masks {
                w.put_u64(mask);
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
        let fingerprint = fingerprint_payload(Self::KIND, r.payload_checksum());
        if r.get_u32()? != LAYOUT {
            return Err(PersistError::Malformed {
                context: "query-set layout word is not 2 (saved by an older build?)",
            });
        }
        let num_queries = r.get_u32()? as usize;
        let sigma = r.get_u32()?;
        expect_alphabet(alphabet, sigma as usize)?;
        if num_queries == 0 || num_queries > MAX_QUERIES {
            return Err(PersistError::Malformed {
                context: "query count outside 1..=64",
            });
        }
        let count = r.get_u32()? as usize;
        if count != 1 && count != num_queries {
            return Err(PersistError::Malformed {
                context: "engine count is neither 1 nor the query count",
            });
        }
        let full = full_mask(num_queries);
        let (mut engines, mut masks) = (Vec::with_capacity(count), Vec::with_capacity(count));
        for e in 0..count {
            // A lone engine owns every verdict bit; otherwise engine `e`
            // owns bit `e`.
            let owned = if count == 1 { full } else { 1 << e };
            let engine = CompiledNwa::load(&r.get_bytes()?)?;
            if engine.sigma() != sigma as usize {
                return Err(PersistError::Malformed {
                    context: "member engine alphabet disagrees with the set's",
                });
            }
            if r.get_u64()? != engine.num_states() as u64 {
                return Err(PersistError::Malformed {
                    context: "verdict mask count disagrees with the engine's state count",
                });
            }
            let engine_masks = (0..engine.num_states())
                .map(|_| r.get_u64())
                .collect::<Result<Vec<u64>, _>>()?;
            for (q, &mask) in engine_masks.iter().enumerate() {
                if mask & !owned != 0 {
                    return Err(PersistError::Malformed {
                        context: "verdict mask sets a bit its engine does not own",
                    });
                }
                // An engine accepts exactly where it contributes all its
                // bits by construction; a disagreement means the bytes do
                // not describe one artifact.
                if engine.is_accepting(q) != (mask == owned) {
                    return Err(PersistError::Malformed {
                        context: "verdict mask disagrees with the engine's acceptance",
                    });
                }
            }
            engines.push(engine);
            masks.push(engine_masks);
        }
        r.finish()?;
        let mut set = QuerySet::assemble(num_queries, sigma, engines, masks);
        set.fingerprint = FingerprintCell::known(fingerprint);
        Ok(set)
    }

    /// Content hash over the serialized set, computed on first use; a
    /// loaded set has it from the checksum pass [`Reader::open`] made.
    fn fingerprint(&self) -> u64 {
        self.fingerprint
            .get_or_hash(Self::KIND, |w| self.write_payload(w))
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

    /// Deterministic NWA counting calls mod `n`, accepting at a multiple
    /// of `n`: with `n = 300` its product with any members overflows
    /// [`PRODUCT_TABLE_BYTE_CAP`], so appending it forces one engine per
    /// query.
    fn calls_mod_nwa(n: usize, sigma: usize) -> Nwa {
        let mut b = NwaBuilder::new(n, sigma, 0).accepting(0);
        for q in 0..n {
            for a in 0..sigma {
                let a = Symbol(a as u16);
                b = b.internal(q, a, q).call(q, a, (q + 1) % n, q);
                for h in 0..n {
                    b = b.ret(q, h, a, q);
                }
            }
        }
        b.build()
    }

    /// Both shapes over the same members, each with the members it
    /// answers for: `members` as they are (one product engine), and
    /// `members` plus a [`calls_mod_nwa`] pad (one engine per query).
    fn shapes(members: &[Nwa]) -> [(QuerySet, Vec<Nwa>); 2] {
        let product = QuerySet::compile(members);
        assert_eq!(product.num_engines(), 1);
        let mut padded = members.to_vec();
        padded.push(calls_mod_nwa(300, members[0].sigma()));
        let per_query = QuerySet::compile(&padded);
        assert_eq!(per_query.num_engines(), padded.len());
        [(product, members.to_vec()), (per_query, padded)]
    }

    /// The verdict mask of standalone runs of `members` over `events`.
    fn solo_verdicts(members: &[Nwa], events: &[TaggedSymbol]) -> u64 {
        members.iter().enumerate().fold(0, |mask, (i, q)| {
            let mut run = q.start();
            events.iter().for_each(|&e| run.step(e));
            mask | u64::from(run.is_accepting()) << i
        })
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
        for (set, queries) in shapes(&[even_len_nwa(1), some_call_nwa(1)]) {
            let engines = set.num_engines();
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
                        "{engines} engines, query {i}, prefix {k}"
                    );
                }
                assert_eq!(run.stack_height(), solo[0].stack_height());
                assert_eq!(run.peak_memory(), solo[0].peak_memory());
                assert_eq!(run.steps(), k + 1);
            }
            let outcomes = run.outcomes();
            assert_eq!(outcomes.len(), queries.len());
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
        assert_eq!(small.num_engines(), 1);
        // 16 two-state queries: 2^16 product states blow the table cap.
        let queries: Vec<Nwa> = (0..16).map(|_| even_len_nwa(1)).collect();
        let large = QuerySet::compile(&queries);
        assert_eq!(large.num_engines(), 16);
        assert_eq!(large.num_queries(), 16);
    }

    #[test]
    fn persist_round_trips_both_backends() {
        for (set, _) in shapes(&[even_len_nwa(2), some_call_nwa(2)]) {
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
        let a = Symbol(0);
        let mut events = vec![TaggedSymbol::Internal(a); 3];
        for (set, members) in shapes(&[settles_on_call_nwa(2), even_len_nwa(2)]) {
            let engines = set.num_engines();
            let all = full_mask(engines);
            let mut lane = set.lane_start();
            assert_eq!(lane.live, all, "{engines} engines");
            set.lane_step_slice(&mut lane, &events[..3]);
            assert_eq!(lane.live, all, "{engines} engines");
            set.lane_step_slice(&mut lane, &[TaggedSymbol::Call(a)]);
            events.truncate(3);
            events.push(TaggedSymbol::Call(a));
            // One engine per query retires the settled member (the other
            // members still move); the product's state still moves with
            // the even-length component.
            let expected = if engines == 1 { all } else { all & !1 };
            assert_eq!(lane.live, expected, "{engines} engines");
            assert_eq!(set.lane_verdicts(&lane) & 0b11, 0b11, "{engines} engines");
            assert_eq!(set.lane_verdicts(&lane), solo_verdicts(&members, &events));
            set.lane_step(&mut lane, TaggedSymbol::Internal(a));
            events.push(TaggedSymbol::Internal(a));
            assert_eq!(set.lane_verdicts(&lane) & 0b11, 0b01, "{engines} engines");
            assert_eq!(set.lane_verdicts(&lane), solo_verdicts(&members, &events));
            assert_eq!(set.lane_outcome(&lane).events, 5);
        }
        // Once every engine has retired, the set lane still counts the
        // stack.
        let set = QuerySet::compile(&[settles_on_call_nwa(2)]);
        let mut lane = set.lane_start();
        set.lane_step_slice(&mut lane, &[TaggedSymbol::Call(a), TaggedSymbol::Call(a)]);
        assert_eq!(lane.live, 0);
        assert_eq!(set.lane_stack_height(&lane), 2);
        assert_eq!(set.lane_outcome(&lane).peak_memory, 2);
    }

    /// A set image from explicit parts, sealed like [`Persist::save`]
    /// seals one.
    fn image(
        layout: u32,
        num_queries: usize,
        engines: &[CompiledNwa],
        masks: &[Vec<u64>],
    ) -> Vec<u8> {
        let sigma = engines[0].sigma();
        let mut w = Writer::new();
        w.put_u32(layout);
        w.put_u32(num_queries as u32);
        w.put_u32(sigma as u32);
        w.put_u32(engines.len() as u32);
        for (engine, masks) in engines.iter().zip(masks) {
            w.put_bytes(&engine.save());
            w.put_u64(masks.len() as u64);
            for &mask in masks {
                w.put_u64(mask);
            }
        }
        w.seal(QuerySet::KIND, fingerprint_alphabet(sigma))
    }

    #[test]
    fn persist_rejects_old_layouts_and_inconsistent_masks() {
        // The typed error a hand-built image loads to, by its context.
        let rejection = |bytes: &[u8]| match QuerySet::load(bytes) {
            Err(PersistError::Malformed { context }) => context,
            other => panic!("expected a malformed-image error, got {other:?}"),
        };
        for (set, _) in shapes(&[even_len_nwa(2), some_call_nwa(2)]) {
            let (m, engines) = (set.num_queries(), &set.engines);
            let ctx = format!("{} engines", engines.len());
            let with_masks = |masks: &[Vec<u64>]| image(LAYOUT, m, engines, masks);
            // The hand-built image is the saved one.
            assert_eq!(with_masks(&set.masks), set.save(), "{ctx}");
            // The layouts before engines and masks became one.
            for old in [0, 1] {
                let context = rejection(&image(old, m, engines, &set.masks));
                assert!(context.contains("layout word"), "{ctx}: {context}");
            }
            // One mask too few or too many for engine 0's states.
            let states = set.masks[0].len();
            for len in [states - 1, states + 1] {
                let mut masks = set.masks.clone();
                masks[0].resize(len, 0);
                let context = rejection(&with_masks(&masks));
                assert!(context.contains("mask count"), "{ctx}: {context}");
            }
            // A bit engine 0 does not own: bit 1 belongs to engine 1 when
            // each query has its own engine, and bit M to nobody.
            let foreign = if engines.len() == 1 { 1 << m } else { 0b10 };
            let mut masks = set.masks.clone();
            masks[0][0] |= foreign;
            let context = rejection(&with_masks(&masks));
            assert!(context.contains("does not own"), "{ctx}: {context}");
            // A mask that disagrees with its engine's acceptance: clear a
            // bit where the engine accepts.
            let owned = if engines.len() == 1 { full_mask(m) } else { 1 };
            let q = set.masks[0].iter().position(|&mask| mask == owned).unwrap();
            let mut masks = set.masks.clone();
            masks[0][q] &= !1;
            let context = rejection(&with_masks(&masks));
            assert!(context.contains("acceptance"), "{ctx}: {context}");
        }
        // An engine count that is neither 1 nor M.
        let [_, (set, _)] = shapes(&[even_len_nwa(2), some_call_nwa(2)]);
        let context = rejection(&image(LAYOUT, 3, &set.engines[..2], &set.masks[..2]));
        assert!(context.contains("engine count"), "{context}");
    }

    #[test]
    fn query_sets_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuerySet>();
        fn assert_send<T: Send>() {}
        assert_send::<QuerySetLane>();
    }
}
