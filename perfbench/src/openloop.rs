//! The open-loop load generator: one submitter thread calls
//! `submit_bytes` on a fixed schedule whatever the service does, and one
//! collector thread waits for the verdicts in submission order. Latency is
//! timed from each document's due time, so a stall also counts against the
//! documents queued behind it, and the generator's own lateness is kept.

use crate::trace::{Layer, Spans};
use automata_core::{BatchAcceptor, StreamOutcome};
use nwa_service::{DecisionHandle, DecisionService};
use nwa_xml::sax::SaxError;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How often the submitter samples the backlog during a phase.
const BACKLOG_EVERY: Duration = Duration::from_millis(10);
/// The submitter sleeps until this long before a due time and spins the
/// rest: a sleep overshoots by tens of microseconds, which at thousands of
/// documents a second would make the generator, not the service, the
/// bottleneck.
const SPIN: Duration = Duration::from_micros(200);

fn wait_until(due: Instant) {
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One request's timeline, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due: u64,
    /// `submit_bytes` entered.
    pub start: u64,
    /// `submit_bytes` returned.
    pub submitted: u64,
    /// The verdict was observed (or the refusal returned).
    pub done: u64,
    /// False when the submission was refused or the decision errored.
    pub ok: bool,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) as f64 / 1e6
    }
    pub fn lag_ms(&self) -> f64 {
        (self.start - self.due) as f64 / 1e6
    }
    pub fn submit_us(&self) -> f64 {
        (self.submitted - self.start) as f64 / 1e3
    }
    pub fn wait_us(&self) -> f64 {
        (self.done - self.submitted) as f64 / 1e3
    }
}

/// What one phase at one offered rate produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Backlog in documents (queued in the service plus due but not yet
    /// submitted), sampled every [`BACKLOG_EVERY`].
    pub backlog: Vec<f64>,
    /// Verdicts that disagreed with the oracle.
    pub wrong: u64,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }
    /// Latencies of the requests that got a verdict.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok)
            .map(Sample::latency_ms)
            .collect()
    }
    /// Latencies with each refused or errored request counted as missing
    /// any limit.
    pub fn latencies_or_miss_ms(&self) -> Vec<f64> {
        let miss = |s: &Sample| if s.ok { s.latency_ms() } else { f64::INFINITY };
        self.samples.iter().map(miss).collect()
    }
}

/// The documents a phase draws from, with the outcome each must yield.
pub struct Load<'a> {
    pub docs: Vec<&'a [u8]>,
    pub expect: Vec<StreamOutcome>,
    /// Seeded document order; phase `i` of a run continues where the last
    /// one stopped.
    pub order: &'a [usize],
}

/// Offers `rate` documents per second for `duration` and waits for every
/// verdict. With `spans`, each request's submit and wait spans are kept.
pub fn run<A: BatchAcceptor + Send + Sync + 'static>(
    service: &DecisionService<A>,
    load: &Load<'_>,
    cursor: &mut usize,
    rate: f64,
    duration: Duration,
    epoch: Instant,
    spans: Option<&mut Spans>,
) -> Phase {
    drive(service, load, cursor, rate, duration, false, epoch, spans)
}

/// Offers far more documents than the service can take for `duration`,
/// submitting until the time is up, and returns the rate at which verdicts
/// came back: the service's capacity, in documents per second. The rate is
/// counted per [`WINDOW`] and the median taken, so a host stall that slows
/// one window does not decide the answer.
pub fn saturate<A: BatchAcceptor + Send + Sync + 'static>(
    service: &DecisionService<A>,
    load: &Load<'_>,
    cursor: &mut usize,
    rate: f64,
    duration: Duration,
    epoch: Instant,
) -> (Phase, f64) {
    let phase = drive(service, load, cursor, rate, duration, true, epoch, None);
    let first = phase.samples.iter().map(|s| s.due).min().unwrap_or(0);
    let window = WINDOW.as_nanos() as u64;
    let windows = (duration.as_nanos() as u64 / window).max(1);
    let mut done = vec![0u64; windows as usize];
    for s in phase.samples.iter().filter(|s| s.ok) {
        if let Some(count) = done.get_mut(((s.done - first) / window) as usize) {
            *count += 1;
        }
    }
    let rates: Vec<f64> = done
        .iter()
        .map(|&n| n as f64 / WINDOW.as_secs_f64())
        .collect();
    let throughput = crate::stats::percentile(&crate::stats::sorted(&rates), 50.0);
    (phase, throughput)
}

/// The window [`saturate`] counts verdicts in.
const WINDOW: Duration = Duration::from_millis(500);

fn drive<A: BatchAcceptor + Send + Sync + 'static>(
    service: &DecisionService<A>,
    load: &Load<'_>,
    cursor: &mut usize,
    rate: f64,
    duration: Duration,
    stop_at_deadline: bool,
    epoch: Instant,
    spans: Option<&mut Spans>,
) -> Phase {
    let count = ((duration.as_secs_f64() * rate).round() as usize).max(1);
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let (tx, rx) = mpsc::channel::<(usize, u64, u64, u64, Result<DecisionHandle, SaxError>)>();
    let mut backlog = Vec::new();
    let (samples, wrong) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut samples = Vec::with_capacity(count.min(1 << 16));
            let mut wrong = 0u64;
            for (doc, due, start, submitted, handle) in rx {
                let verdict = handle.map(|h| h.wait());
                let done = ns(Instant::now());
                let ok = match verdict {
                    Ok(Ok(outcome)) => {
                        wrong += u64::from(!agrees(&outcome, &load.expect[doc]));
                        true
                    }
                    _ => false,
                };
                samples.push(Sample {
                    due,
                    start,
                    submitted,
                    done,
                    ok,
                });
            }
            (samples, wrong)
        });
        let begin = Instant::now();
        let mut next_sample = begin;
        for i in 0..count {
            let due = begin + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if stop_at_deadline && now >= begin + duration {
                break;
            }
            if now >= next_sample {
                let late_docs = now.saturating_duration_since(due).as_secs_f64() * rate;
                backlog.push(service.stats().queued as f64 + late_docs);
                next_sample += BACKLOG_EVERY;
            }
            wait_until(due);
            let doc = load.order[*cursor % load.order.len()];
            *cursor += 1;
            let start = Instant::now();
            let handle = service.submit_bytes(load.docs[doc]);
            let submitted = Instant::now();
            tx.send((doc, ns(due), ns(start), ns(submitted), handle))
                .expect("collector alive");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    if let Some(spans) = spans {
        let base = spans.count(Layer::Request);
        for (i, s) in samples.iter().enumerate() {
            let id = (base + i) as u32;
            spans.push(id, Layer::Request, s.due, s.done);
            spans.push(id, Layer::Submit, s.start, s.submitted);
            spans.push(id, Layer::Wait, s.submitted, s.done);
        }
    }
    Phase {
        samples,
        backlog,
        wrong,
    }
}

/// A service verdict agrees with the oracle on acceptance and event count.
pub fn agrees(found: &StreamOutcome, expected: &StreamOutcome) -> bool {
    found.accepted == expected.accepted && found.events == expected.events
}
