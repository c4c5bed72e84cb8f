//! `Persist` and `Suspend` for the compiled summary engine. (The dense
//! [`CompiledNwa`](crate::CompiledNwa) persists in `automata-core`,
//! beside its tables.)
//!
//! [`CompiledSummary`] persists its [`Nnwa`] *and* its memoization cache:
//! the interned summary universe in id order plus every memoized
//! transition row, so a warmed engine ships warm (`load(save(a)) == a`
//! compares the cache too). A compiled `JoinlessNwa` is the same engine
//! over its `to_nnwa` expansion, so it saves under the same kind; the
//! retired joinless kind is refused as a wrong kind. The four memo
//! sections (internal, call, pending, matched) share one row codec, and
//! each declared row count is bounded by the remaining payload before
//! anything is allocated. Ids are range-checked on load; the rows
//! themselves are trusted content guarded by the payload checksum —
//! re-deriving them would be re-compiling, which is exactly what loading
//! exists to avoid.
//!
//! Its snapshots reference *interned ids*, which are only meaningful
//! relative to one intern order, so they carry a content hash of the
//! referenced summaries in [`Snapshot::check`] and resumption re-derives
//! and compares it — resuming on an artifact with the same automaton but a
//! different warm-up history fails with a typed error instead of silently
//! running from the wrong summary.

use crate::compile::{
    summary_key, CompiledSummary, CompiledSummaryLane, InternedSummary, SummaryCache,
};
use crate::nondet::Nnwa;
use crate::summary::Summary;
use automata_core::persist::{
    expect_alphabet, fingerprint_alphabet, fnv1a_words, kind, FingerprintCell, Reader, Writer,
};
use automata_core::suspend::decode_steps;
use automata_core::{Persist, PersistError, Snapshot, Suspend};
use nested_words::Symbol;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::RwLock;

// --------------------------------------------------------------------------
// CompiledSummary: the subset engine, cache included
// --------------------------------------------------------------------------

/// Decodes a `u64` length already bounded by the payload into a `usize`.
fn decode_count(v: u64, context: &'static str) -> Result<usize, PersistError> {
    usize::try_from(v).map_err(|_| PersistError::Malformed { context })
}

/// Range-checks one decoded state index.
fn decode_state(v: u32, n: usize) -> Result<usize, PersistError> {
    let q = v as usize;
    if q < n {
        Ok(q)
    } else {
        Err(PersistError::Malformed {
            context: "transition references a state out of range",
        })
    }
}

/// Range-checks one decoded symbol.
fn decode_symbol(v: u32, sigma: usize) -> Result<Symbol, PersistError> {
    if (v as usize) < sigma && v <= u32::from(u16::MAX) {
        Ok(Symbol(v as u16))
    } else {
        Err(PersistError::Malformed {
            context: "transition symbol outside the alphabet",
        })
    }
}

/// Range-checks one decoded summary id.
fn decode_id(v: u32, count: usize) -> Result<u32, PersistError> {
    if (v as usize) < count {
        Ok(v)
    } else {
        Err(PersistError::Malformed {
            context: "memo row references a summary out of range",
        })
    }
}

fn state_word(q: usize) -> u32 {
    u32::try_from(q).expect("state id fits u32")
}

/// Appends the automaton: state count, alphabet size, the initial and
/// accepting flag arrays, then the call, internal and return relations as
/// flat `u32` tuples.
fn put_nnwa(w: &mut Writer, a: &Nnwa) {
    let n = a.num_states();
    w.put_u64(n as u64);
    w.put_u64(a.sigma() as u64);
    let mut initial = vec![false; n];
    for q in a.initial_states() {
        initial[q] = true;
    }
    w.put_bools(&initial);
    let accepting: Vec<bool> = (0..n).map(|q| a.is_accepting(q)).collect();
    w.put_bools(&accepting);
    let calls: Vec<u32> = a
        .calls()
        .iter()
        .flat_map(|&(q, s, linear, hier)| {
            [
                state_word(q),
                u32::from(s.0),
                state_word(linear),
                state_word(hier),
            ]
        })
        .collect();
    w.put_u32_slice(&calls);
    let internals: Vec<u32> = a
        .internals()
        .iter()
        .flat_map(|&(q, s, target)| [state_word(q), u32::from(s.0), state_word(target)])
        .collect();
    w.put_u32_slice(&internals);
    let returns: Vec<u32> = a
        .returns()
        .iter()
        .flat_map(|&(linear, hier, s, target)| {
            [
                state_word(linear),
                state_word(hier),
                u32::from(s.0),
                state_word(target),
            ]
        })
        .collect();
    w.put_u32_slice(&returns);
}

/// Decodes what [`put_nnwa`] wrote, range-checking every state and symbol.
fn get_nnwa(r: &mut Reader<'_>) -> Result<Nnwa, PersistError> {
    let n = decode_count(r.get_u64()?, "state count overflows")?;
    let sigma = decode_count(r.get_u64()?, "alphabet size overflows")?;
    if sigma > usize::from(u16::MAX) + 1 {
        return Err(PersistError::Malformed {
            context: "alphabet size exceeds the symbol space",
        });
    }
    let initial = r.get_bool_vec()?;
    let accepting = r.get_bool_vec()?;
    if initial.len() != n || accepting.len() != n {
        return Err(PersistError::Malformed {
            context: "state flag array length disagrees with the state count",
        });
    }
    let mut a = Nnwa::new(n, sigma);
    for q in 0..n {
        if initial[q] {
            a.add_initial(q);
        }
        if accepting[q] {
            a.add_accepting(q);
        }
    }
    let calls = r.get_u32_vec()?;
    if calls.len() % 4 != 0 {
        return Err(PersistError::Malformed {
            context: "call relation truncated mid-transition",
        });
    }
    for t in calls.chunks_exact(4) {
        a.add_call(
            decode_state(t[0], n)?,
            decode_symbol(t[1], sigma)?,
            decode_state(t[2], n)?,
            decode_state(t[3], n)?,
        );
    }
    let internals = r.get_u32_vec()?;
    if internals.len() % 3 != 0 {
        return Err(PersistError::Malformed {
            context: "internal relation truncated mid-transition",
        });
    }
    for t in internals.chunks_exact(3) {
        a.add_internal(
            decode_state(t[0], n)?,
            decode_symbol(t[1], sigma)?,
            decode_state(t[2], n)?,
        );
    }
    let returns = r.get_u32_vec()?;
    if returns.len() % 4 != 0 {
        return Err(PersistError::Malformed {
            context: "return relation truncated mid-transition",
        });
    }
    for t in returns.chunks_exact(4) {
        a.add_return(
            decode_state(t[0], n)?,
            decode_state(t[1], n)?,
            decode_symbol(t[2], sigma)?,
            decode_state(t[3], n)?,
        );
    }
    Ok(a)
}

/// The one codec for the four memo sections. A section is its row count,
/// then each row sorted by key: the key's `P` (summary id, symbol) pairs,
/// then the target id, every field a `u32`. `pairs` flattens a key and
/// `key` rebuilds it.
fn put_rows<K: Copy + Ord, const P: usize>(
    w: &mut Writer,
    rows: &HashMap<K, u32>,
    pairs: impl Fn(K) -> [(u32, u16); P],
) {
    let mut sorted: Vec<(K, u32)> = rows.iter().map(|(&k, &v)| (k, v)).collect();
    sorted.sort_unstable();
    w.put_u64(sorted.len() as u64);
    for (k, v) in sorted {
        for (id, a) in pairs(k) {
            w.put_u32(id);
            w.put_u32(u32::from(a));
        }
        w.put_u32(v);
    }
}

/// Decodes a section [`put_rows`] wrote, range-checking every id against
/// the `count` interned summaries and every symbol against σ. The declared
/// row count is bounded by the remaining payload before anything is
/// allocated.
fn get_rows<K: Eq + Hash, const P: usize>(
    r: &mut Reader<'_>,
    count: usize,
    sigma: usize,
    key: impl Fn([(u32, u16); P]) -> K,
) -> Result<HashMap<K, u32>, PersistError> {
    let len = r.get_count((2 * P + 1) * 4)?;
    let mut rows = HashMap::with_capacity(len);
    for _ in 0..len {
        let mut pairs = [(0, 0); P];
        for pair in &mut pairs {
            let id = decode_id(r.get_u32()?, count)?;
            *pair = (id, decode_symbol(r.get_u32()?, sigma)?.0);
        }
        let v = decode_id(r.get_u32()?, count)?;
        if rows.insert(key(pairs), v).is_some() {
            return Err(PersistError::Malformed {
                context: "duplicate memo row",
            });
        }
    }
    Ok(rows)
}

/// A validated subset-engine snapshot, decoded against one artifact's
/// intern table: `(current summary id, stack frames as (outer summary,
/// call symbol), peak, steps)`.
type DecodedSnapshot = (u32, Vec<(u32, Symbol)>, usize, usize);

impl CompiledSummary {
    /// The integrity word of a subset-engine snapshot: a content hash of
    /// the summaries it references (current first, then each stack frame's
    /// outer summary, bottom to top). Interned ids are only meaningful
    /// relative to one intern order; this is how resumption detects a
    /// same-automaton artifact with a different warm-up history.
    fn snapshot_check<'i>(
        cache: &SummaryCache,
        current: u32,
        outers: impl Iterator<Item = &'i (u32, Symbol)>,
    ) -> u64 {
        let mut words = Vec::new();
        for id in std::iter::once(current).chain(outers.map(|&(outer, _)| outer)) {
            let key = summary_key(&cache.summaries[id as usize].summary);
            words.push(key.len() as u64);
            words.extend(key);
        }
        fnv1a_words(words)
    }

    /// Validates a snapshot against this artifact's intern table and
    /// decodes its stack back into `(summary id, call symbol)` frames.
    fn decode_snapshot(&self, snapshot: &Snapshot) -> Result<DecodedSnapshot, PersistError> {
        snapshot.expect_fingerprint(self.fingerprint())?;
        if !snapshot.stack.len().is_multiple_of(2) {
            return Err(PersistError::Malformed {
                context: "subset-engine snapshot stack must hold (summary, symbol) pairs",
            });
        }
        let cache = self.lock_read();
        let count = cache.summaries.len();
        let current = decode_id(snapshot.state, count).map_err(|_| PersistError::Malformed {
            context: "snapshot references a summary this artifact has not interned",
        })?;
        let sigma = self.automaton.sigma();
        let mut stack = Vec::with_capacity(snapshot.stack.len() / 2);
        for frame in snapshot.stack.chunks_exact(2) {
            let outer = decode_id(frame[0], count).map_err(|_| PersistError::Malformed {
                context: "snapshot references a summary this artifact has not interned",
            })?;
            stack.push((outer, decode_symbol(frame[1], sigma)?));
        }
        if (snapshot.peak as usize) < stack.len() {
            return Err(PersistError::Malformed {
                context: "snapshot peak below its stack height",
            });
        }
        if Self::snapshot_check(&cache, current, stack.iter()) != snapshot.check {
            return Err(PersistError::Malformed {
                context: "snapshot summary ids do not match this artifact's intern order",
            });
        }
        Ok((
            current,
            stack,
            snapshot.peak as usize,
            decode_steps(snapshot.steps)?,
        ))
    }
}

impl Persist for CompiledSummary {
    const KIND: u16 = kind::COMPILED_SUMMARY_NNWA;

    fn save(&self) -> Vec<u8> {
        let cache = self.lock_read();
        let mut w = Writer::new();
        put_nnwa(&mut w, &self.automaton);
        w.put_u32(self.initial);
        // The interned summary universe, in id order — the warm cache ships
        // with the artifact.
        w.put_u64(cache.summaries.len() as u64);
        let accepting: Vec<bool> = cache.summaries.iter().map(|s| s.accepting).collect();
        w.put_bools(&accepting);
        for s in &cache.summaries {
            let pairs: Vec<u32> = s
                .summary
                .iter()
                .flat_map(|&(anchor, cur)| [state_word(anchor), state_word(cur)])
                .collect();
            w.put_u32_slice(&pairs);
        }
        put_rows(&mut w, &cache.internal, |(q, a)| [(q, a)]);
        put_rows(&mut w, &cache.call, |(q, a)| [(q, a)]);
        put_rows(&mut w, &cache.pending, |(q, a)| [(q, a)]);
        put_rows(&mut w, &cache.matched, |(o, c, i, a)| [(o, c), (i, a)]);
        w.seal(Self::KIND, self.alphabet_fingerprint())
    }

    fn load(bytes: &[u8]) -> Result<Self, PersistError> {
        let (alphabet, mut r) = Reader::open(bytes, Self::KIND)?;
        let automaton = get_nnwa(&mut r)?;
        expect_alphabet(alphabet, automaton.sigma())?;
        let n = automaton.num_states();
        let initial = r.get_u32()?;
        let count = decode_count(r.get_u64()?, "summary count overflows")?;
        let accepting = r.get_bool_vec()?;
        if accepting.len() != count {
            return Err(PersistError::Malformed {
                context: "summary flag array length disagrees with the summary count",
            });
        }
        let mut cache = SummaryCache::default();
        for (i, &flag) in accepting.iter().enumerate() {
            let words = r.get_u32_vec()?;
            if words.len() % 2 != 0 {
                return Err(PersistError::Malformed {
                    context: "summary pair list truncated mid-pair",
                });
            }
            let mut summary = Summary::new();
            for pair in words.chunks_exact(2) {
                summary.insert((decode_state(pair[0], n)?, decode_state(pair[1], n)?));
            }
            if summary.len() * 2 != words.len() {
                return Err(PersistError::Malformed {
                    context: "duplicate pair inside an interned summary",
                });
            }
            if cache
                .index
                .insert(summary_key(&summary), i as u32)
                .is_some()
            {
                return Err(PersistError::Malformed {
                    context: "the same summary interned twice",
                });
            }
            cache.summaries.push(InternedSummary {
                summary,
                accepting: flag,
            });
        }
        if count == 0 || initial as usize >= count {
            return Err(PersistError::Malformed {
                context: "initial summary out of range",
            });
        }
        let sigma = automaton.sigma();
        cache.internal = get_rows(&mut r, count, sigma, |[(q, a)]| (q, a))?;
        cache.call = get_rows(&mut r, count, sigma, |[(q, a)]| (q, a))?;
        cache.pending = get_rows(&mut r, count, sigma, |[(q, a)]| (q, a))?;
        cache.matched = get_rows(&mut r, count, sigma, |[(o, c), (i, a)]| (o, c, i, a))?;
        r.finish()?;
        Ok(CompiledSummary {
            automaton,
            initial,
            cache: RwLock::new(cache),
            fingerprint: FingerprintCell::new(),
        })
    }

    /// Hashes the automaton and the initial summary — *not* the cache, so
    /// snapshots resume across differently warmed copies of the same
    /// engine (the [`Snapshot::check`] word guards the id mapping).
    /// Computed on first use, then held: every suspend and resume asks.
    fn fingerprint(&self) -> u64 {
        self.fingerprint.get_or_hash(Self::KIND, |w| {
            put_nnwa(w, &self.automaton);
            w.put_u32(self.initial);
        })
    }

    fn alphabet_fingerprint(&self) -> u64 {
        fingerprint_alphabet(self.automaton.sigma())
    }
}

impl Suspend for CompiledSummary {
    fn suspend_lane(&self, lane: &CompiledSummaryLane) -> Snapshot {
        let cache = self.lock_read();
        let mut stack = Vec::with_capacity(lane.stack.len() * 2);
        for &(outer, sym) in &lane.stack {
            stack.push(outer);
            stack.push(u32::from(sym.0));
        }
        Snapshot {
            fingerprint: self.fingerprint(),
            state: lane.current,
            stack,
            peak: lane.max_stack as u32,
            steps: lane.steps as u64,
            check: Self::snapshot_check(&cache, lane.current, lane.stack.iter()),
        }
    }

    fn resume_lane(&self, snapshot: &Snapshot) -> Result<CompiledSummaryLane, PersistError> {
        let (current, stack, max_stack, steps) = self.decode_snapshot(snapshot)?;
        Ok(CompiledSummaryLane {
            current,
            stack,
            max_stack,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NwaBuilder;
    use crate::CompiledNwa;
    use automata_core::{BatchAcceptor, Compile, LaneRun, StreamAcceptor, StreamRun};
    use nested_words::TaggedSymbol;

    fn even_calls_nwa() -> crate::Nwa {
        let mut b = NwaBuilder::new(2, 2, 0).accepting(0);
        for q in 0..2usize {
            for a in 0..2u16 {
                let sym = Symbol(a);
                b = b
                    .internal(q, sym, q)
                    .call(q, sym, 1 - q, q)
                    .ret(q, 0usize, sym, q)
                    .ret(q, 1usize, sym, 1 - q);
            }
        }
        b.build()
    }

    #[test]
    fn compiled_nwa_round_trips() {
        let compiled = even_calls_nwa().compile();
        let bytes = compiled.save();
        let back = CompiledNwa::load(&bytes).unwrap();
        assert_eq!(back, compiled);
        assert_eq!(back.fingerprint(), compiled.fingerprint());
    }

    #[test]
    fn compiled_nwa_lane_suspends_and_resumes() {
        let compiled = even_calls_nwa().compile();
        let events = [
            TaggedSymbol::Call(Symbol(0)),
            TaggedSymbol::Internal(Symbol(1)),
            TaggedSymbol::Call(Symbol(1)),
            TaggedSymbol::Return(Symbol(0)),
        ];
        let mut lane = compiled.lane_start();
        for &e in &events {
            compiled.lane_step(&mut lane, e);
        }
        let snapshot = compiled.suspend_lane(&lane);
        let resumed = compiled.resume_lane(&snapshot).unwrap();
        assert_eq!(
            compiled.lane_outcome(&resumed),
            compiled.lane_outcome(&lane)
        );

        // A run resumed from the lane snapshot continues identically.
        let mut run = LaneRun::from_lane(&compiled, resumed);
        let mut full = compiled.start();
        for &e in &events {
            full.step(e);
        }
        let next = TaggedSymbol::Return(Symbol(1));
        run.step(next);
        full.step(next);
        assert_eq!(run.is_accepting(), full.is_accepting());
        assert_eq!(run.stack_height(), full.stack_height());
    }

    #[test]
    fn summary_cache_ships_with_the_artifact() {
        let nnwa = Nnwa::from_deterministic(&even_calls_nwa());
        let engine = CompiledSummary::new(nnwa);
        let events = [
            TaggedSymbol::Call(Symbol(0)),
            TaggedSymbol::Internal(Symbol(1)),
            TaggedSymbol::Return(Symbol(1)),
        ];
        let mut run = engine.start();
        for &e in &events {
            run.step(e);
        }
        drop(run);
        assert!(engine.cached_summaries() > 1);
        let back = CompiledSummary::load(&engine.save()).unwrap();
        assert_eq!(back, engine);
        assert_eq!(back.cached_summaries(), engine.cached_summaries());
    }

    #[test]
    fn foreign_snapshots_are_rejected() {
        let compiled = even_calls_nwa().compile();
        let lane = compiled.lane_start();
        let mut snapshot = compiled.suspend_lane(&lane);
        snapshot.fingerprint ^= 1;
        assert!(matches!(
            compiled.resume_lane(&snapshot),
            Err(PersistError::FingerprintMismatch { .. })
        ));
    }
}
