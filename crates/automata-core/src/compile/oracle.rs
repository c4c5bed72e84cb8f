//! The dense engine [`CompiledNwa`] was before symbol classes, kept as its
//! test oracle: one column per tagged symbol and `(n + n²)·3σ` table
//! entries, built by the loop the classed build replaced. Images and
//! snapshots keep the dense layout, so the oracle also pins that the
//! classed engine saves, fingerprints and suspends byte for byte as the
//! dense engine did.

use super::*;
use crate::persist::checksum_bytes;
use nested_words::rng::Prng;

/// A deterministic NWA as the dense tables of the engine before classes.
struct Dense {
    stride: usize,
    sigma: usize,
    n: usize,
    table: Vec<u32>,
    push: Vec<u32>,
    pending_row: u32,
    initial: u32,
    accepting: Vec<bool>,
}

impl Dense {
    /// The dense constructor, as `CompiledNwa::from_transitions` was.
    fn from_transitions(
        n: usize,
        sigma: usize,
        initial: usize,
        accepting: impl Fn(usize) -> bool,
        call: impl Fn(usize, Symbol) -> (usize, usize),
        internal: impl Fn(usize, Symbol) -> usize,
        ret: impl Fn(usize, usize, Symbol) -> usize,
    ) -> Dense {
        let stride = (3 * sigma).max(1);
        let ret_base = |h: usize| ((n + h * n) * stride) as u32;
        let mut table = vec![0u32; (n + n * n) * stride];
        let mut push = vec![0u32; n * stride];
        for q in 0..n {
            for a in 0..sigma {
                let sym = Symbol(a as u16);
                let row = q * stride;
                let (linear, hier) = call(q, sym);
                table[row + a] = (linear * stride) as u32;
                table[row + sigma + a] = (internal(q, sym) * stride) as u32;
                push[row + a] = ret_base(hier);
                for h in 0..n {
                    table[(n + h * n) * stride + row + 2 * sigma + a] =
                        (ret(q, h, sym) * stride) as u32;
                }
            }
        }
        Dense {
            stride,
            sigma,
            n,
            table,
            push,
            pending_row: ret_base(initial),
            initial: (initial * stride) as u32,
            accepting: (0..n).map(accepting).collect(),
        }
    }

    /// The dense payload, as `write_payload` wrote it.
    fn payload(&self) -> Writer {
        let mut w = Writer::new();
        w.put_u64(self.n as u64);
        w.put_u32(self.sigma as u32);
        w.put_u32(self.initial);
        w.put_u32(self.pending_row);
        w.put_u32_slice(&self.table);
        w.put_u32_slice(&self.push);
        w.put_bools(&self.accepting);
        w
    }

    fn save(&self) -> Vec<u8> {
        self.payload()
            .seal(kind::COMPILED_NWA, fingerprint_alphabet(self.sigma))
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_payload(kind::COMPILED_NWA, checksum_bytes(self.payload().payload()))
    }

    fn inert(&self, a: usize) -> bool {
        let row = |q: usize| q * self.stride;
        (0..self.n).all(|q| self.table[row(q) + self.sigma + a] == row(q) as u32)
    }

    /// Whether the state at row offset `row` is absorbing: every call,
    /// internal and return column of its rows leads back to it.
    fn absorbing(&self, row: u32) -> bool {
        let (n, sigma, stride, r) = (self.n, self.sigma, self.stride, row as usize);
        self.table[r..r + 2 * sigma].iter().all(|&t| t == row)
            && (0..n).all(|h| {
                let at = (n + h * n) * stride + r + 2 * sigma;
                self.table[at..at + sigma].iter().all(|&t| t == row)
            })
    }

    fn start(&self) -> DenseRun {
        DenseRun {
            state: self.initial,
            stack: Vec::new(),
            peak: 0,
            steps: 0,
        }
    }

    /// One event, by the dense arithmetic. A run in an absorbing state
    /// keeps only its height: frames pushed there are never read.
    fn step(&self, run: &mut DenseRun, event: TaggedSymbol) {
        let (s, a) = (run.state as usize, event.symbol().index());
        assert!(a < self.sigma);
        run.steps += 1;
        let settled = self.absorbing(run.state);
        match event {
            TaggedSymbol::Call(_) => {
                run.stack.push(self.push[s + a]);
                run.state = self.table[s + a];
            }
            TaggedSymbol::Internal(_) => run.state = self.table[s + self.sigma + a],
            TaggedSymbol::Return(_) => {
                let base = run.stack.pop().unwrap_or(self.pending_row);
                run.state = self.table[base as usize + s + 2 * self.sigma + a];
            }
        }
        if settled {
            run.state = s as u32;
        }
        run.peak = run.peak.max(run.stack.len());
    }

    fn snapshot(&self, run: &DenseRun) -> Snapshot {
        let stack = if self.absorbing(run.state) {
            vec![self.pending_row; run.stack.len()]
        } else {
            run.stack.clone()
        };
        Snapshot {
            fingerprint: self.fingerprint(),
            state: run.state,
            stack,
            peak: run.peak as u32,
            steps: run.steps as u64,
            check: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct DenseRun {
    state: u32,
    stack: Vec<u32>,
    peak: usize,
    steps: usize,
}

/// A random deterministic NWA with planted class structure: per kind, each
/// symbol takes one of a few random columns (or a column of its own), some
/// internal columns are the identity, and half the automata have a sink.
struct Spec {
    n: usize,
    sigma: usize,
    initial: usize,
    accepting: Vec<bool>,
    call: Vec<(usize, usize)>,
    internal: Vec<usize>,
    ret: Vec<usize>,
}

impl Spec {
    fn random(rng: &mut Prng) -> Spec {
        let n = 1 + rng.below(6);
        let sigma = match rng.below(8) {
            0 => 0,
            1 => 64,
            2 => 1 + rng.below(3),
            _ => 1 + rng.below(64),
        };
        // The planted column of each symbol, per kind.
        let plant = |rng: &mut Prng| {
            let k = [1, 2, 3, sigma][rng.below(4)].clamp(1, sigma.max(1));
            (0..sigma).map(|_| rng.below(k)).collect::<Vec<usize>>()
        };
        let (call_of, internal_of, ret_of) = (plant(rng), plant(rng), plant(rng));
        let k = sigma.max(1);
        let call_cols: Vec<(usize, usize)> =
            (0..n * k).map(|_| (rng.below(n), rng.below(n))).collect();
        let identity: Vec<bool> = (0..k).map(|_| rng.bool(0.3)).collect();
        let internal_cols: Vec<usize> = (0..n * k)
            .map(|i| if identity[i % k] { i / k } else { rng.below(n) })
            .collect();
        let ret_cols: Vec<usize> = (0..n * n * k).map(|_| rng.below(n)).collect();
        let mut spec = Spec {
            n,
            sigma,
            initial: rng.below(n),
            accepting: (0..n).map(|_| rng.bool(0.5)).collect(),
            call: Vec::new(),
            internal: Vec::new(),
            ret: Vec::new(),
        };
        for q in 0..n {
            for a in 0..sigma {
                spec.call.push(call_cols[q * k + call_of[a]]);
                spec.internal.push(internal_cols[q * k + internal_of[a]]);
            }
        }
        for q in 0..n {
            for h in 0..n {
                for a in 0..sigma {
                    spec.ret.push(ret_cols[(q * n + h) * k + ret_of[a]]);
                }
            }
        }
        if rng.bool(0.5) {
            let sink = rng.below(n);
            for a in 0..sigma {
                spec.call[sink * sigma + a] = (sink, rng.below(n));
                spec.internal[sink * sigma + a] = sink;
                for h in 0..n {
                    spec.ret[(sink * n + h) * sigma + a] = sink;
                }
            }
        }
        spec
    }

    fn classed(&self) -> CompiledNwa {
        let (n, sigma) = (self.n, self.sigma);
        CompiledNwa::from_transitions(
            n,
            sigma,
            self.initial,
            |q| self.accepting[q],
            |q, a| self.call[q * sigma + a.index()],
            |q, a| self.internal[q * sigma + a.index()],
            |q, h, a| self.ret[(q * n + h) * sigma + a.index()],
        )
    }

    fn dense(&self) -> Dense {
        let (n, sigma) = (self.n, self.sigma);
        Dense::from_transitions(
            n,
            sigma,
            self.initial,
            |q| self.accepting[q],
            |q, a| self.call[q * sigma + a.index()],
            |q, a| self.internal[q * sigma + a.index()],
            |q, h, a| self.ret[(q * n + h) * sigma + a.index()],
        )
    }
}

/// A random stream over `sigma` symbols: calls, internals and returns in
/// random order, so pending returns and unclosed calls both occur.
fn random_stream(rng: &mut Prng, sigma: usize) -> Vec<TaggedSymbol> {
    if sigma == 0 {
        return Vec::new();
    }
    let len = rng.below(80);
    let ret_weight = [0.2, 0.35, 0.5][rng.below(3)];
    (0..len)
        .map(|_| {
            let a = Symbol(rng.below(sigma) as u16);
            let x = rng.f64();
            if x < ret_weight {
                TaggedSymbol::Return(a)
            } else if x < ret_weight + 0.35 {
                TaggedSymbol::Call(a)
            } else {
                TaggedSymbol::Internal(a)
            }
        })
        .collect()
}

/// Iteration budget scaled by `NWA_PROP_ITERS`, as in the property suites.
fn prop_iters(base: usize) -> usize {
    let scale = std::env::var("NWA_PROP_ITERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&m| m > 0)
        .unwrap_or(1);
    base * scale
}

/// Every observable of a classed lane against the oracle run at the same
/// prefix: verdict, events, stack height, peak memory, settling, what the
/// lane reads, and the snapshot bytes.
fn assert_agrees(c: &CompiledNwa, d: &Dense, lane: &CompiledNwaLane, run: &DenseRun, ctx: &str) {
    let outcome = c.lane_outcome(lane);
    assert_eq!(
        outcome.accepted,
        d.accepting[run.state as usize / d.stride],
        "{ctx}"
    );
    assert_eq!(outcome.events, run.steps, "{ctx}");
    assert_eq!(outcome.peak_memory, run.peak, "{ctx}");
    assert_eq!(c.lane_stack_height(lane), run.stack.len(), "{ctx}");
    let settled = d.absorbing(run.state);
    assert_eq!(c.lane_settled(lane), settled, "{ctx}");
    assert_eq!(c.lane_reads_text(lane), !settled, "{ctx}");
    assert_eq!(c.lane_reads_names(lane), !settled, "{ctx}");
    assert_eq!(
        c.suspend_lane(lane).to_bytes(),
        d.snapshot(run).to_bytes(),
        "{ctx}"
    );
}

/// The classed engine equals the dense oracle: the same image and
/// fingerprint, the same inert symbols and absorbing states, and every
/// observable at every prefix of random streams, stepped per event and by
/// random slices, and after resuming the oracle's snapshot mid-stream.
#[test]
fn classed_engine_equals_the_dense_oracle_at_every_prefix() {
    let mut rng = Prng::new(0x0c1a_55ed);
    let mut split = 0;
    for i in 0..prop_iters(300) {
        let spec = Spec::random(&mut rng);
        let (c, d) = (spec.classed(), spec.dense());
        let ctx = format!("automaton {i} (n {}, σ {})", spec.n, spec.sigma);
        assert_eq!(c.save(), d.save(), "{ctx}");
        assert_eq!(c.fingerprint(), d.fingerprint(), "{ctx}");
        assert_eq!(CompiledNwa::load(&d.save()).as_ref(), Ok(&c), "{ctx}");
        for a in 0..spec.sigma {
            assert_eq!(
                c.is_inert(Symbol(a as u16)),
                d.inert(a),
                "{ctx}, symbol {a}"
            );
        }
        for q in 0..spec.n {
            assert_eq!(
                c.is_absorbing(q),
                d.absorbing((q * d.stride) as u32),
                "{ctx}, state {q}"
            );
        }
        assert!(c.table_bytes() <= (d.table.len() + d.push.len() + 3 * spec.sigma) * 4);
        split += usize::from(c.num_classes().iter().any(|&k| k > 1));
        for s in 0..4 {
            let events = random_stream(&mut rng, spec.sigma);
            let ctx = format!("{ctx}, stream {s}");
            // Per event, resuming the oracle's snapshot at one prefix.
            let resume_at = rng.below(events.len() + 1);
            let (mut lane, mut run) = (c.lane_start(), d.start());
            assert_agrees(&c, &d, &lane, &run, &format!("{ctx}, start"));
            for (k, &event) in events.iter().enumerate() {
                if k == resume_at {
                    lane = c.resume_lane(&d.snapshot(&run)).unwrap();
                }
                c.lane_step(&mut lane, event);
                d.step(&mut run, event);
                assert_agrees(&c, &d, &lane, &run, &format!("{ctx}, event {k}"));
            }
            // By random slices.
            let (mut lane, mut run, mut at) = (c.lane_start(), d.start(), 0);
            while at < events.len() {
                let end = (at + 1 + rng.below(12)).min(events.len());
                c.lane_step_slice(&mut lane, &events[at..end]);
                events[at..end].iter().for_each(|&e| d.step(&mut run, e));
                assert_agrees(&c, &d, &lane, &run, &format!("{ctx}, slice to {end}"));
                at = end;
            }
        }
    }
    assert!(split > 0, "no automaton had a split class");
}
