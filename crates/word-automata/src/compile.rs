//! Compiled execution for tagged-alphabet DFAs: the flat view of §3.3
//! lowered into one dense `states × Σ̂` next-state array behind the
//! `automata-core` [`Compile`] capability.

use crate::dfa::Dfa;
use automata_core::compile::outside_alphabet;
use automata_core::persist::{
    expect_alphabet, fingerprint_alphabet, fingerprint_payload, kind, FingerprintCell, Reader,
    Writer,
};
use automata_core::suspend::decode_steps;
use automata_core::{
    BatchAcceptor, Compile, LaneRun, Persist, PersistError, Snapshot, StreamAcceptor,
    StreamOutcome, Suspend,
};
use nested_words::TaggedSymbol;

/// A DFA over the tagged alphabet Σ̂ lowered into a single flat `u32`
/// next-state array with premultiplied row offsets: a state is represented
/// as `q · 3σ`, so one event costs computing its `tagged_index`, one
/// addition and one load.
///
/// Like [`Dfa`]'s interpreted streaming run
/// ([`TaggedDfaRun`](crate::api::TaggedDfaRun)), the artifact reads each
/// [`TaggedSymbol`] as the letter `tagged_index` of Σ̂, so the source DFA
/// must have `3·|Σ|` symbols (calls `0..σ`, internals `σ..2σ`, returns
/// `2σ..3σ`). It is stack-free: flat automata cannot see the matching
/// relation (Theorem 2 / §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTaggedDfa {
    /// Σ (not Σ̂): `tagged_index` needs the untagged alphabet size.
    sigma: usize,
    /// Row stride `3σ`.
    stride: u32,
    /// `next[q·3σ + t] = δ(q, t)·3σ`.
    next: Vec<u32>,
    /// Initial state as a row offset.
    initial: u32,
    /// Acceptance by plain state index.
    accepting: Vec<bool>,
    /// Content hash over the table (see [`Persist`]), stamped into
    /// snapshots and validated on resume. Computed on first use.
    fingerprint: FingerprintCell,
}

impl CompiledTaggedDfa {
    /// Lowers `dfa` into the flat array.
    ///
    /// Panics if the DFA's symbol count is not a (positive) multiple of
    /// three — it must be a DFA over Σ̂ to interpret call/internal/return
    /// events — or if `states · 3σ` overflows `u32`.
    pub fn new(dfa: &Dfa) -> CompiledTaggedDfa {
        assert!(
            dfa.num_symbols() > 0 && dfa.num_symbols().is_multiple_of(3),
            "compiling to a tagged runner needs a DFA over the tagged alphabet (3·|Σ| symbols)"
        );
        let n = dfa.num_states();
        let stride = dfa.num_symbols();
        assert!(
            u32::try_from(n * stride).is_ok(),
            "automaton too large to compile: states * 3·sigma must fit u32"
        );
        let mut next = vec![0u32; n * stride];
        for q in 0..n {
            for t in 0..stride {
                next[q * stride + t] = (dfa.next(q, t) * stride) as u32;
            }
        }
        CompiledTaggedDfa {
            sigma: stride / 3,
            stride: stride as u32,
            next,
            initial: (dfa.initial() * stride) as u32,
            accepting: (0..n).map(|q| dfa.is_accepting(q)).collect(),
            fingerprint: FingerprintCell::new(),
        }
    }

    /// Serializes the scalars and the next-state array — the payload
    /// [`Persist::save`] seals, and the bytes the content fingerprint
    /// hashes. One definition for both, so the fingerprint computed on
    /// first use equals the one a loader derives from
    /// [`Reader::payload_checksum`].
    fn write_payload(&self, w: &mut Writer) {
        w.put_u64(self.accepting.len() as u64);
        w.put_u32(self.sigma as u32);
        w.put_u32(self.initial);
        w.put_u32_slice(&self.next);
        w.put_bools(&self.accepting);
    }

    /// A valid state row offset: `q·stride` for some `q < n`.
    fn is_row(&self, v: u32) -> bool {
        (v as usize) < self.next.len() && v.is_multiple_of(self.stride)
    }

    /// Validation for [`Suspend::resume_lane`]: flat snapshots are a bare
    /// state — any stack, peak or integrity word is structurally
    /// impossible.
    fn check_snapshot(&self, s: &Snapshot) -> Result<(), PersistError> {
        s.expect_fingerprint(self.fingerprint())?;
        if !self.is_row(s.state) {
            return Err(PersistError::Malformed {
                context: "snapshot state is not a row offset of this artifact",
            });
        }
        if !s.stack.is_empty() || s.peak != 0 || s.check != 0 {
            return Err(PersistError::Malformed {
                context: "flat-automaton snapshots carry no stack",
            });
        }
        Ok(())
    }

    /// One step, `δ(state, event)`: one add-and-load. The event kind enters
    /// the address as its discriminant: a `match` whose arms yield exactly
    /// the discriminant values compiles to one load of the tag, where the
    /// per-arm arithmetic of [`TaggedSymbol::tagged_index`] branches and
    /// mispredicts on real event mixes. Callers pass the largest symbol
    /// they stepped to `check_max`: a symbol outside the alphabet lands
    /// `state + σ + a` in a neighbouring band or row.
    #[inline(always)]
    fn step(&self, state: u32, event: TaggedSymbol) -> u32 {
        let a = event.symbol().index() as u32;
        let kind: u32 = match event {
            TaggedSymbol::Call(_) => 0,
            TaggedSymbol::Internal(_) => 1,
            TaggedSymbol::Return(_) => 2,
        };
        self.next[(state + kind * self.sigma as u32 + a) as usize]
    }

    /// Panics, as the interpreted run does, if `max` — the largest symbol
    /// a caller stepped — is outside the alphabet. The step loops fold it
    /// as they go, off the `state → table → state` chain; a pass of its own
    /// would read every event twice.
    fn check_max(&self, max: u16) {
        if usize::from(max) >= self.sigma {
            outside_alphabet(max.into(), self.sigma);
        }
    }

    /// K streams through K register-resident states in lockstep. A single
    /// stream is bound by the latency of the `state → table → state`
    /// load-to-use chain — the step has no other work to hide it behind, so
    /// the core sits idle for most of each load. The K lanes' chains are
    /// mutually independent, so the round loop (unrolled over the const
    /// `K`) issues K overlapping table loads per round and the out-of-order
    /// window turns chain latency into throughput. A lane is one `u32`, so
    /// all K states stay in registers; event loads come from pre-narrowed
    /// `..common` slices so their bounds checks fold away. After the common
    /// prefix, each lane drains its tail single-stream.
    fn run_lockstep<const K: usize>(&self, streams: [&[TaggedSymbol]; K]) -> [StreamOutcome; K] {
        let mut state = [self.initial; K];
        let common = streams.iter().map(|s| s.len()).min().unwrap_or(0);
        let rows: [&[TaggedSymbol]; K] = std::array::from_fn(|l| &streams[l][..common]);
        let mut max = 0;
        for round in 0..common {
            for l in 0..K {
                let event = rows[l][round];
                max = event.symbol().0.max(max);
                state[l] = self.step(state[l], event);
            }
        }
        self.check_max(max);
        std::array::from_fn(|l| {
            let mut lane = CompiledTaggedDfaLane {
                state: state[l],
                steps: common,
            };
            self.lane_step_slice(&mut lane, &streams[l][common..]);
            self.lane_outcome(&lane)
        })
    }
}

impl StreamAcceptor for CompiledTaggedDfa {
    type Run<'a> = LaneRun<'a, CompiledTaggedDfa>;

    fn start(&self) -> LaneRun<'_, CompiledTaggedDfa> {
        LaneRun::new(self)
    }
}

/// One stream's worth of batched-execution state for a
/// [`CompiledTaggedDfa`]: the premultiplied state and an event count —
/// stack-free, so a lane is two words.
#[derive(Debug, Clone)]
pub struct CompiledTaggedDfaLane {
    state: u32,
    steps: usize,
}

impl BatchAcceptor for CompiledTaggedDfa {
    type Lane = CompiledTaggedDfaLane;

    fn lane_start(&self) -> CompiledTaggedDfaLane {
        CompiledTaggedDfaLane {
            state: self.initial,
            steps: 0,
        }
    }

    /// One `step` (one add-and-load) on a stored lane; interleaved
    /// lanes are independent load chains.
    #[inline]
    fn lane_step(&self, lane: &mut CompiledTaggedDfaLane, event: TaggedSymbol) {
        self.check_max(event.symbol().0);
        lane.state = self.step(lane.state, event);
        lane.steps += 1;
    }

    /// Keeps the state in a register across the slice.
    fn lane_step_slice(&self, lane: &mut CompiledTaggedDfaLane, events: &[TaggedSymbol]) {
        let (state, max) = events.iter().fold((lane.state, 0), |(state, max), &e| {
            (self.step(state, e), e.symbol().0.max(max))
        });
        self.check_max(max);
        lane.state = state;
        lane.steps += events.len();
    }

    fn lane_accepting(&self, lane: &CompiledTaggedDfaLane) -> bool {
        self.accepting[(lane.state / self.stride) as usize]
    }

    fn lane_stack_height(&self, _: &CompiledTaggedDfaLane) -> usize {
        0
    }

    fn lane_outcome(&self, lane: &CompiledTaggedDfaLane) -> StreamOutcome {
        StreamOutcome {
            accepted: self.lane_accepting(lane),
            events: lane.steps,
            peak_memory: 0,
        }
    }

    /// Overrides the back-to-back default with the register-resident
    /// kernel (`run_lockstep`). One stream's per-event cost is dominated by
    /// the load-to-use chain `state → table → state`: the next lookup
    /// cannot issue before the previous one retires, and a flat step has no
    /// other work to hide that latency behind. Here streams run four lanes
    /// at a time, each lane one `u32` of register state; the lanes' chains
    /// are mutually independent, so lane B's table load executes in the
    /// shadow of lane A's instead of serializing — this is the entry point
    /// the batched-vs-sequential bar of `bench/service.rs` is measured on.
    /// A remainder of fewer than four streams runs back to back with
    /// [`BatchAcceptor::run_tagged`].
    fn run_batch(&self, streams: &[&[TaggedSymbol]]) -> Vec<StreamOutcome> {
        let mut out = Vec::with_capacity(streams.len());
        let mut chunks = streams.chunks_exact(4);
        for chunk in &mut chunks {
            out.extend(self.run_lockstep::<4>(chunk.try_into().expect("chunk of 4")));
        }
        for s in chunks.remainder() {
            out.push(self.run_tagged(s));
        }
        out
    }
}

impl Compile for Dfa {
    type Compiled = CompiledTaggedDfa;

    /// One flat `states × Σ̂` next-state array ([`CompiledTaggedDfa`]);
    /// panics unless the DFA is over the tagged alphabet (`3·|Σ|` symbols).
    fn compile(&self) -> CompiledTaggedDfa {
        CompiledTaggedDfa::new(self)
    }
}

impl Persist for CompiledTaggedDfa {
    const KIND: u16 = kind::COMPILED_TAGGED_DFA;

    fn save(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_payload(&mut w);
        w.seal(Self::KIND, self.alphabet_fingerprint())
    }

    fn load(bytes: &[u8]) -> Result<Self, PersistError> {
        let (alphabet, mut r) = Reader::open(bytes, Self::KIND)?;
        // `open` just hashed the whole payload; the content fingerprint
        // derives from that same walk instead of re-hashing the tables.
        let fingerprint = fingerprint_payload(Self::KIND, r.payload_checksum());
        let n = usize::try_from(r.get_u64()?).map_err(|_| PersistError::Malformed {
            context: "state count overflows",
        })?;
        let sigma = r.get_u32()? as usize;
        let initial = r.get_u32()?;
        let next = r.get_u32_vec()?;
        let accepting = r.get_bool_vec()?;
        r.finish()?;
        expect_alphabet(alphabet, sigma)?;
        if n == 0 || sigma == 0 {
            return Err(PersistError::Malformed {
                context: "flat artifact needs at least one state and one symbol",
            });
        }
        let stride = 3u64 * sigma as u64;
        let table_len = (n as u64)
            .checked_mul(stride)
            .ok_or(PersistError::Malformed {
                context: "table size overflows",
            })?;
        if u32::try_from(table_len).is_err() {
            return Err(PersistError::Malformed {
                context: "table size exceeds the u32 offset space",
            });
        }
        if next.len() as u64 != table_len {
            return Err(PersistError::Malformed {
                context: "next-state array length disagrees with the state count",
            });
        }
        if accepting.len() != n {
            return Err(PersistError::Malformed {
                context: "acceptance table length disagrees with the state count",
            });
        }
        let artifact = CompiledTaggedDfa {
            sigma,
            stride: stride as u32,
            next,
            initial,
            accepting,
            fingerprint: FingerprintCell::known(fingerprint),
        };
        if !artifact.is_row(artifact.initial) {
            return Err(PersistError::Malformed {
                context: "initial state is not a row offset",
            });
        }
        if !artifact.next.iter().all(|&v| artifact.is_row(v)) {
            return Err(PersistError::Malformed {
                context: "table entry is not a row offset",
            });
        }
        Ok(artifact)
    }

    /// Content hash over the serialized payload, computed on first use and
    /// stamped into every snapshot. A loaded artifact has it already:
    /// loaders fold it out of the checksum pass [`Reader::open`] made.
    fn fingerprint(&self) -> u64 {
        self.fingerprint
            .get_or_hash(Self::KIND, |w| self.write_payload(w))
    }

    fn alphabet_fingerprint(&self) -> u64 {
        fingerprint_alphabet(self.sigma)
    }
}

impl Suspend for CompiledTaggedDfa {
    fn suspend_lane(&self, lane: &CompiledTaggedDfaLane) -> Snapshot {
        Snapshot {
            fingerprint: self.fingerprint(),
            state: lane.state,
            stack: Vec::new(),
            peak: 0,
            steps: lane.steps as u64,
            check: 0,
        }
    }

    fn resume_lane(&self, snapshot: &Snapshot) -> Result<CompiledTaggedDfaLane, PersistError> {
        self.check_snapshot(snapshot)?;
        Ok(CompiledTaggedDfaLane {
            state: snapshot.state,
            steps: decode_steps(snapshot.steps)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata_core::query;
    use nested_words::Symbol;

    /// Tagged DFA over Σ = {a, b} (so 6 tagged symbols) accepting streams
    /// with an even number of positions, whatever their kinds.
    fn even_length_tagged() -> Dfa {
        let mut d = Dfa::new(2, 6, 0);
        d.set_accepting(0, true);
        for q in 0..2usize {
            for t in 0..6 {
                d.set_transition(q, t, 1 - q);
            }
        }
        d
    }

    #[test]
    fn compiled_tagged_dfa_agrees_with_interpreted() {
        let d = even_length_tagged();
        let c = query::compile(&d);
        let a = Symbol(0);
        let b = Symbol(1);
        let events = [
            TaggedSymbol::Call(a),
            TaggedSymbol::Internal(b),
            TaggedSymbol::Return(a),
            TaggedSymbol::Return(b),
            TaggedSymbol::Call(b),
        ];
        for n in 0..=events.len() {
            let prefix = &events[..n];
            assert_eq!(
                query::run_stream(&c, prefix.iter().copied()),
                query::run_stream(&d, prefix.iter().copied()),
                "prefix length {n}"
            );
            assert_eq!(
                c.run_tagged(prefix),
                query::run_stream(&d, prefix.iter().copied()),
                "bulk, prefix length {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "tagged alphabet")]
    fn compiling_an_untagged_dfa_panics() {
        let d = Dfa::new(2, 2, 0);
        let _ = d.compile();
    }
}
