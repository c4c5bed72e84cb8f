//! A fixed yardstick the stream timings are measured against.
//!
//! A shared virtual machine runs at very different speeds from minute to
//! minute: on a 2-vCPU Xeon guest, neighbours slowed a `stream_16q` pass
//! from ~100 ms to ~190 ms for minutes on end, and the compile behind
//! `setup_s` alike. No statistic of raw times taken inside one run removes
//! a slowdown that lasts longer than the run. So every timed operation of a
//! stream workload sits between two runs of this yardstick, a miniature of
//! the bytes→verdict pipeline written here and never changed by the
//! program: a byte-at-a-time tokenizer over the workload's own
//! document feeding sixteen table-driven automata in lockstep, each with a
//! stack of its own, over tables as large as the sixteen-query set's. Its
//! time rises and falls with the neighbours' load nearly as the program's
//! does, so the program's time over the yardstick's is steady; a change to
//! the program moves only the numerator.

use std::hint::black_box;
use std::time::Instant;

/// Member automata stepped in lockstep.
const MEMBERS: usize = 16;
/// States per member and symbols per state: 16 · 288 · 64 two-byte entries
/// come to 590 KB, the size of the sixteen-query set's tables.
const STATES: usize = 288;
const SYMBOLS: usize = 64;
/// Symbols buffered between tokenizing and stepping, as the library's
/// `EVENT_SLICE`.
const SLICE: usize = 4096;

/// The yardstick's median time, in seconds, on a quiet 2-vCPU Xeon
/// (Emerald Rapids) guest. Times are reported as if the machine ran at
/// this speed: a measured time times `NOMINAL_S` over the yardstick's
/// time beside it.
pub const NOMINAL_S: f64 = 0.050;

pub struct Yardstick<'a> {
    input: &'a [u8],
    tables: Vec<u16>,
}

impl<'a> Yardstick<'a> {
    /// A yardstick over `doc`; its tables come from a fixed seed, the same
    /// on every run.
    pub fn new(doc: &'a [u8]) -> Yardstick<'a> {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let tables = (0..MEMBERS * STATES * SYMBOLS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % STATES as u64) as u16
            })
            .collect();
        Yardstick { input: doc, tables }
    }

    /// One timed run, in seconds.
    pub fn time(&self) -> f64 {
        let t = Instant::now();
        black_box(self.run());
        t.elapsed().as_secs_f64()
    }

    fn run(&self) -> u16 {
        let doc = black_box(self.input);
        let mut states = [0u16; MEMBERS];
        let mut stacks: Vec<Vec<u16>> = vec![Vec::new(); MEMBERS];
        // kind: 0 text, 1 open tag, 2 close tag
        let mut symbols: Vec<(u8, usize)> = Vec::with_capacity(SLICE);
        let (mut hash, mut kind) = (0u32, 0u8);
        for (i, &b) in doc.iter().enumerate() {
            match b {
                b'<' => {
                    if hash > 1 {
                        symbols.push((0, hash as usize % SYMBOLS));
                    }
                    kind = if doc.get(i + 1) == Some(&b'/') { 2 } else { 1 };
                    hash = 1;
                }
                b'>' => {
                    symbols.push((kind, hash as usize % SYMBOLS));
                    (kind, hash) = (0, 0);
                }
                b' ' | b'\n' if kind == 0 => {
                    if hash > 1 {
                        symbols.push((0, hash as usize % SYMBOLS));
                    }
                    hash = 0;
                }
                _ => hash = hash.wrapping_mul(31).wrapping_add(u32::from(b)),
            }
            if symbols.len() == SLICE || i + 1 == doc.len() {
                self.step(&symbols, &mut states, &mut stacks);
                symbols.clear();
            }
        }
        states.iter().fold(0, |a, &s| a ^ s) ^ stacks.iter().map(|s| s.len() as u16).sum::<u16>()
    }

    fn step(&self, symbols: &[(u8, usize)], states: &mut [u16; MEMBERS], stacks: &mut [Vec<u16>]) {
        for &(kind, symbol) in symbols {
            for (m, (state, stack)) in states.iter_mut().zip(stacks.iter_mut()).enumerate() {
                let row = match kind {
                    1 => {
                        stack.push(*state);
                        usize::from(*state)
                    }
                    2 => usize::from(stack.pop().unwrap_or(0) ^ *state) % STATES,
                    _ => usize::from(*state),
                };
                *state = self.tables[(m * STATES + row) * SYMBOLS + symbol];
            }
        }
    }
}

/// `measured` seconds at the nominal speed, given the yardstick's times
/// `before` and `after` it.
pub fn scale(measured: f64, before: f64, after: f64) -> f64 {
    measured * NOMINAL_S * 2.0 / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_out_the_machine_speed() {
        // the yardstick at nominal speed: times pass through unchanged
        assert!((scale(0.1, NOMINAL_S, NOMINAL_S) - 0.1).abs() < 1e-15);
        // the machine twice as slow: the program's doubled time halves back
        assert!((scale(0.2, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S) - 0.1).abs() < 1e-15);
        // the program twice as slow on an unchanged machine shows in full
        assert!((scale(0.2, NOMINAL_S, NOMINAL_S) - 0.2).abs() < 1e-15);
        // the two neighbours are averaged
        assert!((scale(0.1, NOMINAL_S, 3.0 * NOMINAL_S) - 0.05).abs() < 1e-15);
    }

    #[test]
    fn the_yardstick_is_deterministic() {
        let doc = b"<a><b>w1 w2</b><c/>w3</a>".repeat(1000);
        let (one, two) = (Yardstick::new(&doc), Yardstick::new(&doc));
        assert_eq!(one.run(), two.run());
        assert!(one.time() > 0.0);
    }
}
