//! The benchmark's own arithmetic: percentiles, the open-loop ladder
//! decision, failure counting and the trace reconciliation. Kept apart from
//! the timing code so the unit tests below pin every rule the reported
//! numbers rest on.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 8] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.9, 99.99];

/// Samples that must lie strictly beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // the epsilon keeps a product like 99.9 · 10⁴ from rounding up a rank
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the median
/// does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= 1 && n - rank(n, p) >= MIN_BEYOND)
}

/// The percentile a `_p99` metric is reported at: p99 when the sample
/// supports it, otherwise the highest tail it does support (the median when
/// nothing higher is).
pub fn p99_or_supported(n: usize) -> f64 {
    tail_percentile(n).unwrap_or(50.0).min(99.0)
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A sample summary: count, median and the supported `_p99` tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile `tail` was taken at (see [`p99_or_supported`]).
    pub tail_pct: f64,
    pub tail: f64,
    pub mean: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let tail_pct = p99_or_supported(s.len());
    Summary {
        n: s.len(),
        p50: percentile(&s, 50.0),
        tail_pct,
        tail: percentile(&s, tail_pct),
        mean: s.iter().sum::<f64>() / s.len() as f64,
    }
}

/// [`calm`] cuts a run into this many chunks and pools the calmest
/// [`CALM`] of them.
pub const CHUNKS: usize = 16;
pub const CALM: usize = 4;

/// The samples of the calmest part of a run: time-ordered `samples` are
/// cut into `chunks` consecutive chunks, and the `keep` chunks with the
/// lowest medians are pooled. A shared virtual machine (measured on a
/// 2-vCPU Xeon guest) has phases of seconds in which neighbours slow every
/// pass by 40% or more; pooling the calmest chunks reports the program
/// instead of the neighbours, while a slowdown the program causes
/// throughout still moves every chunk.
pub fn calm(samples: &[f64], chunks: usize, keep: usize) -> Vec<f64> {
    let k = chunks.clamp(1, samples.len().max(1));
    let bounds: Vec<usize> = (0..=k).map(|i| i * samples.len() / k).collect();
    let mut parts: Vec<&[f64]> = bounds.windows(2).map(|w| &samples[w[0]..w[1]]).collect();
    parts.sort_by(|a, b| percentile(&sorted(a), 50.0).total_cmp(&percentile(&sorted(b), 50.0)));
    parts
        .into_iter()
        .take(keep.max(1))
        .flatten()
        .copied()
        .collect()
}

/// Operations that errored or were refused, as a share of those attempted.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    assert!(failed <= attempted, "more failures than attempts");
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Whether a backlog sampled at even intervals through a ladder step keeps
/// growing: the mean of each quarter of the samples exceeds the one before,
/// and the last quarter sits at least `min_rise` above the first. A queue
/// that merely fluctuates, or grew once and then drained, is not growing.
pub fn backlog_growing(samples: &[f64], min_rise: f64) -> bool {
    if samples.len() < 4 {
        return false;
    }
    let q = samples.len() / 4;
    let means: Vec<f64> = (0..4)
        .map(|i| {
            let part = &samples[i * q..if i == 3 { samples.len() } else { (i + 1) * q }];
            part.iter().sum::<f64>() / part.len() as f64
        })
        .collect();
    means.windows(2).all(|w| w[1] > w[0]) && means[3] - means[0] >= min_rise
}

/// One step of the open-loop ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, documents per second.
    pub rate: f64,
    /// Latency at the supported `_p99` tail, from each document's due time.
    pub p99_ms: f64,
    /// Refused or errored submissions: each misses the latency limit.
    pub failed: u64,
    pub backlog_growing: bool,
}

impl Step {
    /// Sustainable: nothing failed, the backlog did not grow, and the tail
    /// met the limit.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0 && !self.backlog_growing && self.p99_ms <= limit_ms
    }
}

/// The fixed rate ladder: rung `i` offers `base · ratio^i` documents per
/// second.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    pub base: f64,
    pub ratio: f64,
    pub rungs: usize,
}

impl Ladder {
    pub fn rate(&self, rung: usize) -> f64 {
        self.base * self.ratio.powi(rung as i32)
    }
}

/// An up-down staircase over the ladder's rungs, the threshold search of
/// psychophysics: it climbs two rungs after each step that meets the limit
/// until the first miss, then one rung up after a step that meets it and
/// one down after a miss. It so spends its steps around the highest rung
/// the service sustains, and host noise, which makes any one step pass or
/// miss by chance, averages out over many steps instead of deciding a
/// single climb.
#[derive(Debug, Clone)]
pub struct Staircase {
    ladder: Ladder,
    rung: usize,
    last: Option<bool>,
    missed: bool,
    /// Rungs tried from the first reversal on.
    settled: Vec<usize>,
    met_any: bool,
}

impl Staircase {
    pub fn new(ladder: Ladder, start: usize) -> Staircase {
        Staircase {
            ladder,
            rung: start.min(ladder.rungs - 1),
            last: None,
            missed: false,
            settled: Vec::new(),
            met_any: false,
        }
    }

    /// The rate the next step offers.
    pub fn rate(&self) -> f64 {
        self.ladder.rate(self.rung)
    }

    /// Records whether the step at [`rate`](Staircase::rate) met the limit
    /// and moves to the next rung.
    pub fn record(&mut self, met: bool) {
        if self.last.is_some_and(|last| last != met) || !self.settled.is_empty() {
            self.settled.push(self.rung);
        }
        self.last = Some(met);
        self.met_any |= met;
        self.missed |= !met;
        let top = self.ladder.rungs - 1;
        self.rung = if !met {
            self.rung.saturating_sub(1)
        } else if self.missed {
            (self.rung + 1).min(top)
        } else {
            (self.rung + 2).min(top)
        };
    }

    /// The highest rate sustained: the geometric mean of the rungs tried
    /// from the first reversal on, or the current rung when the staircase
    /// never reversed (it met the limit all the way to the top); `None` when
    /// no step met the limit.
    pub fn estimate(&self) -> Option<f64> {
        if !self.met_any {
            return None;
        }
        if self.settled.is_empty() {
            return Some(self.rate());
        }
        let log_sum: f64 = self.settled.iter().map(|&r| self.ladder.rate(r).ln()).sum();
        Some((log_sum / self.settled.len() as f64).exp())
    }
}

/// How the traced pass splits against its layer spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconciliation {
    /// Share of the traced pass time covered by no layer span.
    pub unaccounted_frac: f64,
    /// Traced over untraced median cost, minus one.
    pub overhead_frac: f64,
}

/// `traced_total` is the summed duration of the traced passes and `covered`
/// the summed self time of the layer spans inside them; the medians compare
/// one traced pass with one untraced pass of the same input.
pub fn reconcile(
    traced_total: f64,
    covered: f64,
    traced_median: f64,
    untraced_median: f64,
) -> Reconciliation {
    assert!(traced_total > 0.0 && untraced_median > 0.0, "empty trace");
    Reconciliation {
        unaccounted_frac: (traced_total - covered) / traced_total,
        overhead_frac: traced_median / untraced_median - 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        // 99: rank 990 of 1000 leaves exactly ten beyond
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in [20, 57, 333, 1000, 4321, 100_000] {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p) >= MIN_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn p99_metric_caps_at_99_and_falls_back() {
        assert_eq!(p99_or_supported(100_000), 99.0);
        assert_eq!(p99_or_supported(1000), 99.0);
        assert_eq!(p99_or_supported(200), 95.0);
        assert_eq!(p99_or_supported(100), 90.0);
        assert_eq!(p99_or_supported(5), 50.0);
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (3, 2.0, 50.0, 2.0));
    }

    #[test]
    fn calm_pools_the_quietest_chunks() {
        // eight chunks of 100; chunks 1, 2 and 5 run 40% slow
        let run: Vec<f64> = (0..800)
            .map(|i| {
                let base = f64::from(i % 10);
                if [1, 2, 5].contains(&(i / 100)) {
                    base * 1.4 + 10.0
                } else {
                    base
                }
            })
            .collect();
        let quiet = calm(&run, 8, 3);
        assert_eq!(quiet.len(), 300);
        assert!(quiet.iter().all(|&v| v < 10.0));
        assert_eq!(summarize(&quiet).p50, 4.0);
        // a slowdown everywhere still shows
        let slow: Vec<f64> = run.iter().map(|v| v * 2.0).collect();
        assert_eq!(summarize(&calm(&slow, 8, 3)).p50, 8.0);
        // fewer samples than chunks, and keeping everything
        assert_eq!(calm(&[3.0, 1.0], 8, 3), vec![1.0, 3.0]);
        assert_eq!(calm(&run, 8, 8).len(), 800);
    }

    #[test]
    fn failed_frac_counts_against_attempts() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(1000, 0), 0.0);
        assert_eq!(failed_frac(1000, 25), 0.025);
        assert_eq!(failed_frac(4, 4), 1.0);
    }

    #[test]
    #[should_panic(expected = "more failures than attempts")]
    fn failed_frac_rejects_impossible_counts() {
        failed_frac(1, 2);
    }

    #[test]
    fn backlog_growth_needs_a_sustained_rise() {
        let rising: Vec<f64> = (0..40).map(f64::from).collect();
        assert!(backlog_growing(&rising, 8.0));
        // rising, but by less than the noise floor
        let creeping: Vec<f64> = (0..40).map(|i| f64::from(i) / 10.0).collect();
        assert!(!backlog_growing(&creeping, 8.0));
        // a burst that drains again
        let burst: Vec<f64> = (0..40)
            .map(|i| if (10..20).contains(&i) { 50.0 } else { 1.0 })
            .collect();
        assert!(!backlog_growing(&burst, 8.0));
        let flat = vec![2.0; 40];
        assert!(!backlog_growing(&flat, 0.0));
        assert!(!backlog_growing(&[0.0, 100.0, 200.0], 1.0));
    }

    fn step(rate: f64, p99_ms: f64, failed: u64, backlog_growing: bool) -> Step {
        Step {
            rate,
            p99_ms,
            failed,
            backlog_growing,
        }
    }

    const LADDER: Ladder = Ladder {
        base: 1000.0,
        ratio: 1.1,
        rungs: 40,
    };

    /// Runs a staircase against a service that sustains up to `capacity`.
    fn climb(capacity: f64, steps: usize) -> Option<f64> {
        let mut stairs = Staircase::new(LADDER, 0);
        for _ in 0..steps {
            let rate = stairs.rate();
            let s = step(rate, if rate <= capacity { 2.0 } else { 50.0 }, 0, false);
            stairs.record(s.meets(10.0));
        }
        stairs.estimate()
    }

    #[test]
    fn staircase_settles_on_the_highest_sustained_rung() {
        for capacity in [1500.0, 4321.0, 9000.0, 20000.0] {
            let found = climb(capacity, 40).unwrap();
            // it oscillates between the last rung under the capacity and
            // the first above it
            assert!(
                found <= capacity * 1.1 && found >= capacity / 1.1,
                "{capacity}: {found}"
            );
        }
        assert!((LADDER.rate(2) - 1210.0).abs() < 1e-9);
    }

    #[test]
    fn staircase_without_a_reversal_or_a_success() {
        // sustains everything: the top rung
        let top = LADDER.rate(LADDER.rungs - 1);
        assert!((climb(1e9, 30).unwrap() / top - 1.0).abs() < 1e-12);
        // sustains nothing
        assert_eq!(climb(1.0, 10), None);
        // no step recorded yet
        assert_eq!(Staircase::new(LADDER, 3).estimate(), None);
    }

    #[test]
    fn staircase_counts_backlog_growth_and_failures_as_misses() {
        let mut stairs = Staircase::new(LADDER, 5);
        let at = |s: &Staircase, failed, growing| step(s.rate(), 1.0, failed, growing);
        let s = at(&stairs, 0, false);
        stairs.record(s.meets(10.0));
        assert_eq!(stairs.rate(), LADDER.rate(7));
        // under the limit, but the backlog grew: a miss, one rung down
        let s = at(&stairs, 0, true);
        stairs.record(s.meets(10.0));
        assert_eq!(stairs.rate(), LADDER.rate(6));
        // a refused request is a miss too
        let s = at(&stairs, 1, false);
        stairs.record(s.meets(10.0));
        assert_eq!(stairs.rate(), LADDER.rate(5));
        // after the first miss the climb is one rung at a time
        let s = at(&stairs, 0, false);
        stairs.record(s.meets(10.0));
        assert_eq!(stairs.rate(), LADDER.rate(6));
        // settled on rungs 7, 6, 5 from the first reversal on
        let expected = (LADDER.rate(7) * LADDER.rate(6) * LADDER.rate(5)).cbrt();
        assert!((stairs.estimate().unwrap() - expected).abs() < 1e-6);
    }

    #[test]
    fn a_step_meets_the_limit_inclusively_and_only_without_growth_or_failures() {
        assert!(step(100.0, 10.0, 0, false).meets(10.0));
        assert!(!step(100.0, 10.5, 0, false).meets(10.0));
        assert!(!step(100.0, 1.0, 0, true).meets(10.0));
        assert!(!step(100.0, 1.0, 1, false).meets(10.0));
        assert!(!step(100.0, f64::INFINITY, 0, false).meets(10.0));
    }

    #[test]
    fn reconciliation_adds_up() {
        // 100 ms traced: 80 scan + 15 engine, so 5 ms sits in no span
        let r = reconcile(100.0, 95.0, 25.0, 24.0);
        assert!((r.unaccounted_frac - 0.05).abs() < 1e-12);
        assert!((r.overhead_frac - (25.0 / 24.0 - 1.0)).abs() < 1e-12);
        // a traced run can come out faster than the untraced one by noise
        assert!(reconcile(10.0, 10.0, 9.0, 10.0).overhead_frac < 0.0);
        assert_eq!(reconcile(10.0, 10.0, 1.0, 1.0).unaccounted_frac, 0.0);
    }
}
