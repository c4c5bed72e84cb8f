//! Compiled streaming execution for deterministic stepwise automata: the
//! `automata-core` [`Compile`] capability for [`DetStepwiseTA`], closing the
//! last hole in the suite's capability matrix.
//!
//! Lemma 1 of the paper identifies stepwise automata with weak bottom-up
//! nested word automata whose return transition **ignores its symbol** —
//! which is exactly what makes a flat-table streaming engine possible: a
//! tree arrives as its `t_w` word encoding (§2.3: `Call(label)`, the
//! children, `Return(label)`), and evaluation is a fold the stack machine
//! can run one event at a time:
//!
//! * `Call(a)` pushes the parent's partial value and starts the node at
//!   `init(a)`;
//! * `Return(_)` pops the parent's partial value `q` and folds the
//!   completed child value `r` into it with `combine(q, r)` — the label is
//!   ignored, per Lemma 1;
//! * `Internal(_)` never occurs in a tree encoding and goes to a dead
//!   state.
//!
//! [`CompiledStepwiseTA`] runs this machine over a dense *extended* state
//! domain that adds a top-level tracker (nothing-seen / one-tree-done /
//! many-trees) and an absorbing dead state, so the engine is total over
//! arbitrary event streams while accepting exactly the `t_w` encodings of
//! the trees the source automaton accepts. Both tables (`init` over labels,
//! the extended `combine` over state pairs) are flat arrays, so one event
//! is an add-and-load like the other compiled engines — and the artifact
//! implements [`Persist`] and [`Suspend`] alongside them.

use crate::stepwise::DetStepwiseTA;
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

/// A [`DetStepwiseTA`] lowered into flat tables over an *extended* state
/// domain, streaming tree events (`t_w` encodings, §2.3) one at a time.
///
/// For a source automaton with `n` states the extended domain has
/// `m = 2n + 3` values:
///
/// * `0..n` — plain partial values of the node currently being folded;
/// * `n..2n` — *top-done(q)*: exactly one complete tree evaluated to `q`
///   at the top level (the accepting shape: accepting iff `q` is);
/// * `2n` — *top-start*: nothing consumed yet;
/// * `2n + 1` — *top-many*: more than one top-level tree completed;
/// * `2n + 2` — the absorbing *dead* state (internal events, unknown
///   labels, pending returns, any malformed stream).
///
/// The top-level trackers occur exactly when the stack is empty, so
/// acceptance needs no stack check. Build one with [`Compile::compile`]
/// (or `query::compile`); it accepts a stream iff the stream is
/// `tree.to_tagged()` for some tree the source automaton accepts
/// (property-tested in `tests/persist.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledStepwiseTA {
    /// `n` — states of the source automaton.
    num_states: usize,
    /// Alphabet size.
    sigma: u32,
    /// `init[a]` — plain state opening an `a`-labelled node.
    init: Vec<u32>,
    /// The source `combine` table, `n × n`, row-major over plain states.
    combine: Vec<u32>,
    /// Acceptance by plain state index.
    accepting: Vec<bool>,
    /// The extended fold table, `m × m`: `combine_ext[ctx·m + child]` is
    /// the context after folding a completed `child` value into `ctx` —
    /// derived from `combine` plus the top-level/dead bookkeeping.
    combine_ext: Vec<u32>,
    /// Acceptance over the extended domain: exactly the *top-done(q)*
    /// values with `q` accepting.
    accepting_ext: Vec<bool>,
    /// Content hash over the source tables (see [`Persist`]), stamped into
    /// snapshots and validated on resume. Computed on first use.
    fingerprint: FingerprintCell,
}

impl CompiledStepwiseTA {
    /// Lowers `ta` into the extended flat tables.
    ///
    /// Panics if the extended table `(2n + 3)²` overflows the `u32` offset
    /// space; such automata are beyond the dense representation.
    pub fn new(ta: &DetStepwiseTA) -> CompiledStepwiseTA {
        let n = ta.num_states();
        let sigma = ta.sigma();
        let m = 2 * n + 3;
        assert!(
            u32::try_from(m).is_ok() && u32::try_from(m * m).is_ok(),
            "automaton too large to compile: (2·states + 3)² must fit u32"
        );
        let init: Vec<u32> = (0..sigma)
            .map(|a| ta.init(nested_words::Symbol(a as u16)) as u32)
            .collect();
        let combine: Vec<u32> = (0..n)
            .flat_map(|q| (0..n).map(move |r| (q, r)))
            .map(|(q, r)| ta.combine(q, r) as u32)
            .collect();
        let accepting: Vec<bool> = (0..n).map(|q| ta.is_accepting(q)).collect();
        let mut compiled = CompiledStepwiseTA {
            num_states: n,
            sigma: sigma as u32,
            init,
            combine,
            accepting,
            combine_ext: Vec::new(),
            accepting_ext: Vec::new(),
            fingerprint: FingerprintCell::new(),
        };
        compiled.derive_extended();
        compiled
    }

    /// Number of states of the source automaton.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Alphabet size of the source automaton.
    pub fn sigma(&self) -> usize {
        self.sigma as usize
    }

    fn m(&self) -> usize {
        2 * self.num_states + 3
    }

    fn top_start(&self) -> u32 {
        (2 * self.num_states) as u32
    }

    fn top_many(&self) -> u32 {
        (2 * self.num_states + 1) as u32
    }

    fn dead(&self) -> u32 {
        (2 * self.num_states + 2) as u32
    }

    /// Rebuilds the derived extended tables from the source tables — run
    /// at compile time and after [`Persist::load`].
    fn derive_extended(&mut self) {
        let n = self.num_states;
        let m = self.m();
        let dead = self.dead();
        let mut ext = vec![dead; m * m];
        for ctx in 0..m {
            for child in 0..n {
                // A completed child is always a plain value; folding it
                // into the context depends on what the context is.
                ext[ctx * m + child] = if ctx < n {
                    self.combine[ctx * n + child]
                } else if ctx == self.top_start() as usize {
                    (n + child) as u32 // top-done(child)
                } else if ctx == self.dead() as usize {
                    dead
                } else {
                    // top-done(_) or top-many: a second top-level tree.
                    self.top_many()
                };
            }
            // A non-plain "child" value can only arise from a malformed
            // stream; the `dead` fill already routes those to the sink.
        }
        let mut acc = vec![false; m];
        acc[n..2 * n].copy_from_slice(&self.accepting);
        self.combine_ext = ext;
        self.accepting_ext = acc;
    }

    /// Serializes the *source* tables (the extended tables are derived) —
    /// the payload [`Persist::save`] seals, and the bytes the content
    /// fingerprint hashes. One definition for both, so the fingerprint
    /// computed on first use equals the one a loader derives from
    /// [`Reader::payload_checksum`].
    fn write_payload(&self, w: &mut Writer) {
        w.put_u64(self.num_states as u64);
        w.put_u32(self.sigma);
        w.put_u32_slice(&self.init);
        w.put_u32_slice(&self.combine);
        w.put_bools(&self.accepting);
    }

    #[inline]
    fn step_value(&self, current: &mut u32, stack: &mut Vec<u32>, event: TaggedSymbol) -> bool {
        // Returns whether the event pushed (for peak tracking).
        match event {
            TaggedSymbol::Call(a) => {
                stack.push(*current);
                *current = if (a.index() as u32) < self.sigma {
                    self.init[a.index()]
                } else {
                    self.dead()
                };
                true
            }
            TaggedSymbol::Internal(_) => {
                *current = self.dead();
                false
            }
            TaggedSymbol::Return(_) => {
                *current = match stack.pop() {
                    Some(ctx) => self.combine_ext[ctx as usize * self.m() + *current as usize],
                    None => self.dead(),
                };
                false
            }
        }
    }

    /// Validation for [`Suspend::resume_lane`]: every extended state must
    /// index the extended tables.
    fn check_snapshot(&self, s: &Snapshot) -> Result<(), PersistError> {
        s.expect_fingerprint(self.fingerprint())?;
        let m = self.m() as u32;
        if s.state >= m || s.stack.iter().any(|&v| v >= m) {
            return Err(PersistError::Malformed {
                context: "snapshot state outside the extended domain",
            });
        }
        if (s.peak as usize) < s.stack.len() {
            return Err(PersistError::Malformed {
                context: "snapshot peak below its stack height",
            });
        }
        if s.check != 0 {
            return Err(PersistError::Malformed {
                context: "stepwise snapshots carry no integrity word",
            });
        }
        Ok(())
    }
}

impl Compile for DetStepwiseTA {
    type Compiled = CompiledStepwiseTA;

    /// Flat extended-domain tables streaming `t_w` tree events
    /// ([`CompiledStepwiseTA`]); panics if `(2·states + 3)²` overflows
    /// `u32`.
    fn compile(&self) -> CompiledStepwiseTA {
        CompiledStepwiseTA::new(self)
    }
}

impl StreamAcceptor for CompiledStepwiseTA {
    type Run<'a> = LaneRun<'a, CompiledStepwiseTA>;

    fn start(&self) -> LaneRun<'_, CompiledStepwiseTA> {
        LaneRun::new(self)
    }
}

/// One stream's worth of execution state for a [`CompiledStepwiseTA`] over
/// tree events: the current extended value plus the stack of suspended
/// parent folds — one frame per open node, so peak memory is the tree
/// depth — owned so N lanes share one artifact across threads.
#[derive(Debug, Clone)]
pub struct CompiledStepwiseLane {
    current: u32,
    stack: Vec<u32>,
    max_stack: usize,
    steps: usize,
}

impl BatchAcceptor for CompiledStepwiseTA {
    type Lane = CompiledStepwiseLane;

    fn lane_start(&self) -> CompiledStepwiseLane {
        CompiledStepwiseLane {
            current: self.top_start(),
            stack: Vec::new(),
            max_stack: 0,
            steps: 0,
        }
    }

    #[inline]
    fn lane_step(&self, lane: &mut CompiledStepwiseLane, event: TaggedSymbol) {
        lane.steps += 1;
        if self.step_value(&mut lane.current, &mut lane.stack, event) {
            lane.max_stack = lane.max_stack.max(lane.stack.len());
        }
    }

    fn lane_accepting(&self, lane: &CompiledStepwiseLane) -> bool {
        self.accepting_ext[lane.current as usize]
    }

    fn lane_stack_height(&self, lane: &CompiledStepwiseLane) -> usize {
        lane.stack.len()
    }

    fn lane_outcome(&self, lane: &CompiledStepwiseLane) -> StreamOutcome {
        StreamOutcome {
            accepted: self.lane_accepting(lane),
            events: lane.steps,
            peak_memory: lane.max_stack,
        }
    }
}

impl Persist for CompiledStepwiseTA {
    const KIND: u16 = kind::COMPILED_STEPWISE_TA;

    fn save(&self) -> Vec<u8> {
        // Only the source tables go on the wire; the extended tables are
        // re-derived on load (they are a pure function of the source).
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
        let sigma = r.get_u32()?;
        let init = r.get_u32_vec()?;
        let combine = r.get_u32_vec()?;
        let accepting = r.get_bool_vec()?;
        r.finish()?;
        expect_alphabet(alphabet, sigma as usize)?;
        if n == 0 {
            return Err(PersistError::Malformed {
                context: "stepwise artifact with no states",
            });
        }
        let m = 2u64 * n as u64 + 3;
        if u32::try_from(m).is_err() || u32::try_from(m * m).is_err() {
            return Err(PersistError::Malformed {
                context: "extended table exceeds the u32 offset space",
            });
        }
        if init.len() != sigma as usize {
            return Err(PersistError::Malformed {
                context: "init table length disagrees with the alphabet size",
            });
        }
        if combine.len() != n * n {
            return Err(PersistError::Malformed {
                context: "combine table length disagrees with the state count",
            });
        }
        if accepting.len() != n {
            return Err(PersistError::Malformed {
                context: "acceptance table length disagrees with the state count",
            });
        }
        // Every decoded entry must be a plain source state.
        if init.iter().chain(combine.iter()).any(|&v| v as usize >= n) {
            return Err(PersistError::Malformed {
                context: "table entry references a state out of range",
            });
        }
        let mut artifact = CompiledStepwiseTA {
            num_states: n,
            sigma,
            init,
            combine,
            accepting,
            combine_ext: Vec::new(),
            accepting_ext: Vec::new(),
            fingerprint: FingerprintCell::known(fingerprint),
        };
        artifact.derive_extended();
        Ok(artifact)
    }

    /// Content hash over the serialized source tables, computed on first
    /// use and stamped into every snapshot. A loaded artifact has it
    /// already: loaders fold it out of the checksum pass [`Reader::open`]
    /// made.
    fn fingerprint(&self) -> u64 {
        self.fingerprint
            .get_or_hash(Self::KIND, |w| self.write_payload(w))
    }

    fn alphabet_fingerprint(&self) -> u64 {
        fingerprint_alphabet(self.sigma as usize)
    }
}

impl Suspend for CompiledStepwiseTA {
    fn suspend_lane(&self, lane: &CompiledStepwiseLane) -> Snapshot {
        Snapshot {
            fingerprint: self.fingerprint(),
            state: lane.current,
            stack: lane.stack.clone(),
            peak: lane.max_stack as u32,
            steps: lane.steps as u64,
            check: 0,
        }
    }

    fn resume_lane(&self, snapshot: &Snapshot) -> Result<CompiledStepwiseLane, PersistError> {
        self.check_snapshot(snapshot)?;
        Ok(CompiledStepwiseLane {
            current: snapshot.state,
            stack: snapshot.stack.clone(),
            max_stack: snapshot.peak as usize,
            steps: decode_steps(snapshot.steps)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata_core::StreamRun;
    use nested_words::{OrderedTree, Symbol};

    /// Two states over Σ = {a, b}: state 1 iff the tree contains a `b`.
    fn contains_b() -> DetStepwiseTA {
        let mut ta = DetStepwiseTA::new(2, 2);
        ta.set_init(Symbol(0), 0);
        ta.set_init(Symbol(1), 1);
        for q in 0..2 {
            for r in 0..2 {
                ta.set_combine(q, r, q.max(r));
            }
        }
        ta.set_accepting(1, true);
        ta
    }

    fn sample_trees() -> Vec<OrderedTree> {
        let a = Symbol(0);
        let b = Symbol(1);
        vec![
            OrderedTree::leaf(a),
            OrderedTree::leaf(b),
            OrderedTree::node(a, vec![OrderedTree::leaf(a), OrderedTree::leaf(a)]),
            OrderedTree::node(
                a,
                vec![
                    OrderedTree::leaf(a),
                    OrderedTree::node(a, vec![OrderedTree::leaf(b)]),
                ],
            ),
        ]
    }

    #[test]
    fn compiled_agrees_with_eval_on_tree_encodings() {
        let ta = contains_b();
        let compiled = ta.compile();
        for tree in sample_trees() {
            let events = tree.to_tagged();
            let outcome = {
                let mut run = compiled.start();
                for &e in &events {
                    run.step(e);
                }
                run.is_accepting()
            };
            assert_eq!(outcome, ta.accepts(&tree), "tree {tree:?}");
        }
    }

    #[test]
    fn malformed_streams_are_rejected_not_mangled() {
        let compiled = contains_b().compile();
        let a = Symbol(0);
        for events in [
            vec![TaggedSymbol::Internal(a)],
            vec![TaggedSymbol::Return(a)],
            vec![TaggedSymbol::Call(a)], // unclosed node
            vec![
                // two top-level trees
                TaggedSymbol::Call(a),
                TaggedSymbol::Return(a),
                TaggedSymbol::Call(a),
                TaggedSymbol::Return(a),
            ],
        ] {
            let mut run = compiled.start();
            for &e in &events {
                run.step(e);
            }
            assert!(!run.is_accepting(), "events {events:?}");
        }
        // The empty stream is not a tree either.
        assert!(!compiled.start().is_accepting());
    }

    #[test]
    fn round_trips_and_resumes() {
        let compiled = contains_b().compile();
        let back = CompiledStepwiseTA::load(&compiled.save()).unwrap();
        assert_eq!(back, compiled);

        let tree = &sample_trees()[3];
        let events = tree.to_tagged();
        let mid = events.len() / 2;
        let mut lane = compiled.lane_start();
        for &e in &events[..mid] {
            compiled.lane_step(&mut lane, e);
        }
        let snapshot = compiled.suspend_lane(&lane);
        // Resume on the reloaded artifact and finish the document there.
        let mut resumed = back.resume_lane(&snapshot).unwrap();
        for &e in &events[mid..] {
            back.lane_step(&mut resumed, e);
        }
        let mut full = compiled.lane_start();
        for &e in &events {
            compiled.lane_step(&mut full, e);
        }
        assert_eq!(back.lane_outcome(&resumed), compiled.lane_outcome(&full));
    }
}
