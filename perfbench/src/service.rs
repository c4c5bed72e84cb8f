//! The `service_open` workload: many small documents arriving
//! independently at a `DecisionService` booted from artifact bytes with one
//! worker, driven as an open loop.

use crate::inputs::{self, Inputs};
use crate::openloop::{self, Load, Phase};
use crate::probes::{self, Sliced};
use crate::stats::{self, summarize, Ladder, Staircase, Step, CALM, CHUNKS};
use crate::trace::{Layer, Spans};
use crate::Report;
use automata_core::{query, BatchAcceptor, Persist};
use nwa::CompiledNwa;
use nwa_service::{DecisionService, ServiceConfig, ServiceStats};
use std::time::{Duration, Instant};

/// One worker, `lanes` at its default of 4.
pub fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// The latency limit a ladder step's p99 must meet.
pub const LIMIT_MS: f64 = 50.0;
/// The fixed rate the latency metrics are taken at, documents per second.
pub const NOMINAL_RATE: f64 = 2000.0;
/// The offered rates the ladder search climbs: 2,000 docs/s and up in
/// steps of 8%, to about 43,000.
pub const LADDER: Ladder = Ladder {
    base: 2000.0,
    ratio: 1.08,
    rungs: 41,
};
/// The staircase starts at the rung offering 4,000 docs/s.
const START_RUNG: usize = 9;
/// How long each ladder step offers its rate.
const STEP: Duration = Duration::from_secs(1);
/// The rate of the overload phase, far past capacity: the rate verdicts
/// then come back at is the capacity.
const OVERLOAD_RATE: f64 = 100_000.0;
/// Shares of the run for the overload phase and the ladder search; the
/// nominal phase gets the rest.
const SATURATE_SHARE: f64 = 0.25;
const LADDER_SHARE: f64 = 0.35;
/// Backlog rise that counts as growth: 5% of the documents a step offers,
/// so a host stall that queues a few dozen documents is not mistaken for
/// saturation, and never less than two full batches.
fn min_rise(rate: f64) -> f64 {
    (0.05 * rate * STEP.as_secs_f64()).max(8.0)
}
const SETUP_REPS: usize = 31;

fn account(report: &mut Report, phase: &Phase) {
    let failed = phase.failed();
    report.attempted += phase.samples.len() as u64;
    report.failed += failed;
    report.wrong += phase.wrong;
    report.checked += phase.samples.len() as u64 - failed;
}

pub fn run(inputs: &Inputs, seed: u64, seconds: u64, spans: &mut Spans, report: &mut Report) {
    let alphabet = &inputs.alphabet;
    let (compile_s, compiled) = probes::median_secs(SETUP_REPS, || {
        query::compile(&inputs::service_query(alphabet))
    });
    let artifact = compiled.save();
    let mut boots = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let alphabet = alphabet.clone();
        let t = Instant::now();
        let service =
            DecisionService::<CompiledNwa>::from_artifact_bytes(&artifact, alphabet, config())
                .expect("saved artifact boots a service");
        boots.push(t.elapsed().as_secs_f64());
        drop(service);
    }
    let setup_s = summarize(&boots).p50;
    report.header("setup_reps", SETUP_REPS);

    let service =
        DecisionService::<CompiledNwa>::from_artifact_bytes(&artifact, alphabet.clone(), config())
            .expect("saved artifact boots a service");
    let order = inputs::schedule(seed, inputs.docs.len(), 64);
    let load = Load {
        docs: inputs.docs.iter().map(|d| d.xml.as_slice()).collect(),
        expect: inputs.docs.iter().map(|d| d.expected[0]).collect(),
        order: &order,
    };
    // Warm-up: every document once, closed loop.
    for (doc, expected) in load.docs.iter().zip(&load.expect) {
        report.attempted += 1;
        match service.submit_bytes(*doc).map(|h| h.wait()) {
            Ok(Ok(outcome)) => {
                report.checked += 1;
                report.wrong += u64::from(!openloop::agrees(&outcome, expected));
            }
            _ => report.failed += 1,
        }
    }
    report.header("latency_limit_ms", LIMIT_MS);
    report.header("nominal_rate_docs_s", NOMINAL_RATE);
    let epoch = spans.epoch();
    let mut cursor = 0;
    let budget = Duration::from_secs(seconds).as_secs_f64();

    if !report.trace {
        let saturate = Duration::from_secs_f64(budget * SATURATE_SHARE);
        let (phase, capacity) =
            openloop::saturate(&service, &load, &mut cursor, OVERLOAD_RATE, saturate, epoch);
        account(report, &phase);
        report.header("samples.saturate", phase.samples.len());
        let ladder = staircase(
            &service,
            &load,
            &mut cursor,
            budget * LADDER_SHARE,
            epoch,
            report,
        );
        report.header(
            "ladder.max_rate_docs_s",
            ladder.map_or("none".to_string(), |r| r.to_string()),
        );
        let remaining = budget * (1.0 - SATURATE_SHARE - LADDER_SHARE);
        let phase = openloop::run(
            &service,
            &load,
            &mut cursor,
            NOMINAL_RATE,
            Duration::from_secs_f64(remaining),
            epoch,
            None,
        );
        account(report, &phase);
        let latencies = phase.latencies_ms();
        let lat = summarize(&stats::calm(&latencies, CHUNKS, CALM));
        report.header(
            "samples.latency",
            format!(
                "n={} of {}, calmest {CALM} of {CHUNKS} chunks, tail=p{}",
                lat.n,
                latencies.len(),
                lat.tail_pct
            ),
        );
        let mean_bytes =
            load.docs.iter().map(|d| d.len()).sum::<usize>() as f64 / load.docs.len() as f64;
        report.metric("verdict_mb_s", capacity * mean_bytes / 1e6);
        report.metric("latency_p50_ms", lat.p50);
        report.metric("latency_p99_ms", lat.tail);
        report.metric("max_rate_docs_s", capacity);
        report.metric("setup_s", setup_s);
        return;
    }

    // Traced run: untraced and traced quarters alternate at the nominal rate.
    let before = service.stats();
    let quarter = Duration::from_secs_f64(budget / 4.0);
    let (mut plain, mut traced) = (Vec::new(), Phase::default());
    for q in 0..4 {
        let traced_quarter = q % 2 == 1;
        let phase = openloop::run(
            &service,
            &load,
            &mut cursor,
            NOMINAL_RATE,
            quarter,
            epoch,
            traced_quarter.then_some(&mut *spans),
        );
        account(report, &phase);
        if traced_quarter {
            traced.samples.extend(phase.samples);
            traced.backlog.extend(phase.backlog);
        } else {
            plain.extend(phase.latencies_ms());
        }
    }
    report_service_layer(&service, &before, &traced, report);
    let request_ns = spans.total(Layer::Request) as f64;
    let covered = (spans.total(Layer::Submit) + spans.total(Layer::Wait)) as f64;
    let traced_lat = summarize(&traced.latencies_ms());
    let rec = stats::reconcile(request_ns, covered, traced_lat.p50, summarize(&plain).p50);
    report.samples("traced_requests", traced_lat.n, traced_lat.tail_pct);

    // Scan and engine run inside submit_bytes and the worker; their costs
    // come from probes over the same documents, as shares of the mean
    // request latency. The multi layer is off this path.
    let budget = Duration::from_millis(500);
    let latency_ms = traced_lat.mean;
    let scan = probes::scan(&load.docs, alphabet, budget);
    report.layer("scan", &scan, scan.busy_ms / latency_ms);
    report.metric("scan.fill_calls", scan.calls);
    let sliced: Vec<Sliced<'_>> = inputs
        .docs
        .iter()
        .map(|d| Sliced {
            slices: probes::slices(&d.xml, alphabet),
            bytes: d.xml.len(),
            events: d.events,
            expected: &d.expected,
        })
        .collect();
    let (engine, engine_ok) = probes::engine(&compiled, 0, &sliced, budget);
    report.layer("engine", &engine, engine.busy_ms / latency_ms);
    report.metric("engine.slices", engine.calls);
    let set = query::compile_set(&inputs.queries);
    let (multi, multi_ok) = probes::multi(&set, &sliced, budget);
    report.layer("multi", &multi, 0.0);
    report.metric("multi.table_bytes", set.table_bytes() as f64);
    report.metric("multi.members", set.num_queries() as f64);
    report.wrong += u64::from(!engine_ok) + u64::from(!multi_ok);
    let (artifact_bytes, load_ms) = probes::persist(&compiled, SETUP_REPS);
    report.metric("persist.artifact_bytes", artifact_bytes as f64);
    report.metric("persist.load_ms", load_ms);
    report.metric("compile.ms", compile_s * 1e3);
    report.metric("trace.unaccounted_frac", rec.unaccounted_frac);
    report.metric("trace.overhead_frac", rec.overhead_frac);
    report.metric("ref.utf8_ns_per_byte", probes::utf8(&load.docs, budget));
}

/// The staircase search for the highest sustained rate within `budget`
/// seconds: each step offers its rung's rate for [`STEP`] and meets the
/// limit when its p99 does, nothing failed and the backlog did not grow.
fn staircase<A: BatchAcceptor + Send + Sync + 'static>(
    service: &DecisionService<A>,
    load: &Load<'_>,
    cursor: &mut usize,
    budget: f64,
    epoch: Instant,
    report: &mut Report,
) -> Option<f64> {
    let start = Instant::now();
    let mut stairs = Staircase::new(LADDER, START_RUNG);
    let mut trail = Vec::new();
    while start.elapsed().as_secs_f64() + STEP.as_secs_f64() <= budget {
        let rate = stairs.rate();
        let phase = openloop::run(service, load, cursor, rate, STEP, epoch, None);
        account(report, &phase);
        let latencies = phase.latencies_or_miss_ms();
        let tail = summarize(&latencies);
        let step = Step {
            rate,
            p99_ms: tail.tail,
            failed: phase.failed(),
            backlog_growing: stats::backlog_growing(&phase.backlog, min_rise(rate)),
        };
        let met = step.meets(LIMIT_MS);
        trail.push(format!(
            "{rate:.0}:{}",
            if met {
                "met"
            } else if step.backlog_growing {
                "grew"
            } else {
                "missed"
            }
        ));
        stairs.record(met);
    }
    report.header("ladder.steps", trail.join(" "));
    stairs.estimate()
}

/// The service layer's metrics from one phase and the counters it moved.
pub fn report_service_layer<A: BatchAcceptor + Send + Sync + 'static>(
    service: &DecisionService<A>,
    before: &ServiceStats,
    phase: &Phase,
    report: &mut Report,
) {
    let after = service.stats();
    let sum = |s: &ServiceStats, f: fn(&nwa_service::service::WorkerStats) -> u64| -> u64 {
        s.workers.iter().map(f).sum()
    };
    let batches = sum(&after, |w| w.batches) - sum(before, |w| w.batches);
    let documents = sum(&after, |w| w.documents) - sum(before, |w| w.documents);
    let failures = sum(&after, |w| w.failures) - sum(before, |w| w.failures) + phase.failed();
    let lanes = service.config().lanes as f64;
    let submit = summarize(
        &phase
            .samples
            .iter()
            .map(|s| s.submit_us())
            .collect::<Vec<_>>(),
    );
    let wait = summarize(
        &phase
            .samples
            .iter()
            .map(|s| s.wait_us())
            .collect::<Vec<_>>(),
    );
    let lag = summarize(&phase.samples.iter().map(|s| s.lag_ms()).collect::<Vec<_>>());
    report.samples("service_requests", submit.n, submit.tail_pct);
    report.metric("service.submit_us_p50", submit.p50);
    report.metric("service.submit_us_p99", submit.tail);
    report.metric("service.wait_us_p50", wait.p50);
    report.metric("service.wait_us_p99", wait.tail);
    report.metric("service.gen_lag_ms_p99", lag.tail);
    report.metric(
        "service.lane_occupancy",
        documents as f64 / (batches as f64 * lanes),
    );
    report.metric("service.max_queue_depth", after.max_queue_depth as f64);
    report.metric("service.batches", batches as f64);
    report.metric("service.failures", failures as f64);
}
