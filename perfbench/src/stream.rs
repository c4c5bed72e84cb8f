//! The stream workloads: one large document decided over and over in a
//! closed loop on one thread, by one compiled query (`stream_1q`) or by the
//! sixteen-query set (`stream_16q`).

use crate::inputs::{self, Inputs};
use crate::openloop::{self, Load};
use crate::probes::{self, LayerCost, Sliced};
use crate::stats::{self, summarize};
use crate::trace::{Layer, Spans};
use crate::yardstick::{self, Yardstick};
use crate::Report;
use automata_core::{
    query, BatchAcceptor, MultiAcceptor, Persist, QuerySetRun, StreamAcceptor, StreamOutcome,
    StreamRun,
};
use nested_words::Alphabet;
use nwa::{CompiledNwa, QuerySet};
use nwa_service::DecisionService;
use nwa_xml::queries::{run_multi_streaming_reader, run_streaming_reader, EVENT_SLICE};
use nwa_xml::sax::{FrozenByteTokenizer, SaxError};
use std::time::{Duration, Instant};

/// The compiled form a stream workload runs.
pub enum Artifact {
    One(CompiledNwa),
    Set(QuerySet),
}

impl Artifact {
    /// What the program does before the first document: build the query
    /// automata over the alphabet and compile them.
    pub fn build(multi: bool, alphabet: &Alphabet) -> Artifact {
        if multi {
            Artifact::Set(query::compile_set(&inputs::e19_pool(alphabet)))
        } else {
            Artifact::One(query::compile(&inputs::contains_query(alphabet)))
        }
    }

    /// One untraced bytes→verdict pass through the library's own loop.
    fn pass(&self, xml: &[u8], alphabet: &Alphabet) -> Result<Vec<StreamOutcome>, SaxError> {
        match self {
            Artifact::One(cq) => run_streaming_reader(cq, xml, alphabet).map(|o| vec![o]),
            Artifact::Set(set) => run_multi_streaming_reader(set, xml, alphabet),
        }
    }

    /// The same pass with the library loop repeated here, each `new`,
    /// `fill`, `start` and `step_slice` call wrapped in a span.
    fn traced_pass(
        &self,
        xml: &[u8],
        alphabet: &Alphabet,
        spans: &mut Spans,
        id: u32,
    ) -> Result<Vec<StreamOutcome>, SaxError> {
        let begin = spans.now();
        let outcomes = match self {
            Artifact::One(cq) => {
                let t = spans.now();
                let mut run = cq.start();
                spans.push(id, Layer::Engine, t, spans.now());
                traced_loop(&mut run, Layer::Engine, xml, alphabet, spans, id)?;
                vec![StreamOutcome {
                    accepted: run.is_accepting(),
                    events: run.steps(),
                    peak_memory: run.peak_memory(),
                }]
            }
            Artifact::Set(set) => {
                let t = spans.now();
                let mut run = set.start_set();
                spans.push(id, Layer::Multi, t, spans.now());
                traced_loop(&mut run, Layer::Multi, xml, alphabet, spans, id)?;
                run.outcomes()
            }
        };
        spans.push(id, Layer::Pass, begin, spans.now());
        Ok(outcomes)
    }

    fn step_layer(&self) -> Layer {
        match self {
            Artifact::One(_) => Layer::Engine,
            Artifact::Set(_) => Layer::Multi,
        }
    }
}

fn traced_loop<R: StreamRun>(
    run: &mut R,
    step: Layer,
    xml: &[u8],
    alphabet: &Alphabet,
    spans: &mut Spans,
    id: u32,
) -> Result<(), SaxError> {
    let t = spans.now();
    let mut tokenizer = FrozenByteTokenizer::new(xml, alphabet);
    let mut buffer = Vec::with_capacity(EVENT_SLICE);
    spans.push(id, Layer::Scan, t, spans.now());
    loop {
        let t0 = spans.now();
        tokenizer.fill(&mut buffer, EVENT_SLICE)?;
        let t1 = spans.now();
        spans.push(id, Layer::Scan, t0, t1);
        if buffer.is_empty() {
            return Ok(());
        }
        run.step_slice(&buffer);
        spans.push(id, step, t1, spans.now());
        buffer.clear();
    }
}

/// Passes run before timing starts, so caches and lazy set-up are warm.
const WARMUP_PASSES: usize = 3;
/// Compile repetitions behind the traced run's `compile.ms`.
const SETUP_REPS: usize = 101;

pub fn run(multi: bool, inputs: &Inputs, seconds: u64, spans: &mut Spans, report: &mut Report) {
    let doc = &inputs.docs[0];
    let alphabet = &inputs.alphabet;
    let artifact = Artifact::build(multi, alphabet);
    let check = |outcomes: &[StreamOutcome]| outcomes == doc.expected.as_slice();
    let decide = |report: &mut Report, outcomes: Result<Vec<StreamOutcome>, SaxError>| {
        report.attempted += 1;
        match outcomes {
            Ok(o) => {
                report.checked += o.len() as u64;
                if !check(&o) {
                    report.wrong += 1;
                }
            }
            Err(_) => report.failed += 1,
        }
    };
    for _ in 0..WARMUP_PASSES {
        decide(report, artifact.pass(&doc.xml, alphabet));
    }

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    if !report.trace {
        // One set-up after every pass, so set-up is sampled across the
        // whole run like the passes are; both sit between the same two
        // yardstick runs and are scaled by them.
        let yardstick = Yardstick::new(&doc.xml);
        yardstick.time();
        let (mut raw, mut times, mut setups, mut yards) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut before = yardstick.time();
        while start.elapsed() < budget {
            let t = Instant::now();
            let outcomes = artifact.pass(&doc.xml, alphabet);
            let pass = t.elapsed().as_secs_f64();
            decide(report, outcomes);
            let t = Instant::now();
            std::hint::black_box(Artifact::build(multi, alphabet));
            let setup = t.elapsed().as_secs_f64();
            let after = yardstick.time();
            raw.push(pass);
            times.push(yardstick::scale(pass, before, after));
            setups.push(yardstick::scale(setup, before, after));
            yards.push(after);
            before = after;
        }
        let s = summarize(&times);
        report.samples("latency", s.n, s.tail_pct);
        report.header(
            "raw.latency_p50_ms",
            format!("{:.3}", summarize(&raw).p50 * 1e3),
        );
        report.header(
            "yardstick_ms",
            format!(
                "p50 {:.3}, nominal {:.3}",
                summarize(&yards).p50 * 1e3,
                yardstick::NOMINAL_S * 1e3
            ),
        );
        report.metric("verdict_mb_s", doc.xml.len() as f64 / s.p50 / 1e6);
        report.metric("latency_p50_ms", s.p50 * 1e3);
        report.metric("latency_p99_ms", s.tail * 1e3);
        report.metric("max_rate_docs_s", 1.0 / s.p50);
        report.metric("setup_s", summarize(&setups).p50);
        return;
    }

    // Traced run: untraced and traced passes alternate, so both see the
    // same machine; the traced ones carry the per-layer split.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut id = 0u32;
    while start.elapsed() < budget {
        let t = Instant::now();
        let outcomes = artifact.pass(&doc.xml, alphabet);
        untraced.push(t.elapsed().as_secs_f64());
        decide(report, outcomes);
        let t = Instant::now();
        let outcomes = artifact.traced_pass(&doc.xml, alphabet, spans, id);
        traced.push(t.elapsed().as_secs_f64());
        decide(report, outcomes);
        id += 1;
    }
    let passes = f64::from(id);
    let step = artifact.step_layer();
    let (pass_ns, scan_ns, step_ns) = (
        spans.total(Layer::Pass) as f64,
        spans.total(Layer::Scan) as f64,
        spans.total(step) as f64,
    );
    let (untraced, traced) = (summarize(&untraced), summarize(&traced));
    report.samples("traced_passes", traced.n, traced.tail_pct);
    let rec = stats::reconcile(pass_ns, scan_ns + step_ns, traced.p50, untraced.p50);
    let (bytes, events) = (doc.xml.len() as f64, doc.events as f64);
    let traced_cost = |ns: f64, calls: usize| LayerCost {
        ns_per_byte: ns / (passes * bytes),
        ns_per_event: ns / (passes * events),
        busy_ms: ns / passes / 1e6,
        calls: calls as f64 / passes,
    };
    let scan = traced_cost(scan_ns, spans.count(Layer::Scan) - id as usize);
    // the start/start_set span is not a step_slice call
    let stepped = traced_cost(step_ns, spans.count(step) - id as usize);
    report.layer("scan", &scan, scan_ns / pass_ns);
    report.metric("scan.fill_calls", scan.calls);

    // The layer the pass does not run is measured by a probe over the same
    // pre-tokenized slices; its share of this workload's pass is zero.
    let budget = Duration::from_millis(500);
    let sliced = [Sliced {
        slices: probes::slices(&doc.xml, alphabet),
        bytes: doc.xml.len(),
        events: doc.events,
        expected: &doc.expected,
    }];
    let (probed, probe_ok) = match &artifact {
        Artifact::One(_) => {
            let set = query::compile_set(std::slice::from_ref(&inputs.queries[0]));
            report.metric("multi.table_bytes", set.table_bytes() as f64);
            report.metric("multi.members", set.num_queries() as f64);
            report.metric("engine.slices", stepped.calls);
            report.layer("engine", &stepped, step_ns / pass_ns);
            probes::multi(&set, &sliced, budget)
        }
        Artifact::Set(set) => {
            report.metric("multi.table_bytes", set.table_bytes() as f64);
            report.metric("multi.members", set.num_queries() as f64);
            report.layer("multi", &stepped, step_ns / pass_ns);
            let member = query::compile(&inputs.queries[0]);
            let (cost, ok) = probes::engine(&member, 0, &sliced, budget);
            report.metric("engine.slices", cost.calls);
            (cost, ok)
        }
    };
    report.wrong += u64::from(!probe_ok);
    match &artifact {
        Artifact::One(_) => report.layer("multi", &probed, 0.0),
        Artifact::Set(_) => report.layer("engine", &probed, 0.0),
    }
    report.metric("trace.unaccounted_frac", rec.unaccounted_frac);
    report.metric("trace.overhead_frac", rec.overhead_frac);
    report.metric("ref.utf8_ns_per_byte", probes::utf8(&[&doc.xml], budget));
    let (compile_s, _) = probes::median_secs(SETUP_REPS, || Artifact::build(multi, alphabet));
    report.metric("compile.ms", compile_s * 1e3);
    let expected_conjunction = StreamOutcome {
        accepted: doc.expected.iter().all(|o| o.accepted),
        ..doc.expected[0]
    };
    match artifact {
        Artifact::One(cq) => service_probe(
            cq,
            inputs,
            expected_conjunction,
            untraced.p50,
            spans,
            report,
        ),
        Artifact::Set(set) => service_probe(
            set,
            inputs,
            expected_conjunction,
            untraced.p50,
            spans,
            report,
        ),
    }
}

/// Documents the service probe decides on a stream workload.
const SERVICE_PROBE_DOCS: usize = 24;

/// The service layer on a stream workload: its artifact saved, booted
/// through `from_artifact_bytes`, and fed the document on an open loop at
/// a third of the single-thread pass rate.
fn service_probe<A: BatchAcceptor + Persist + Send + Sync + 'static>(
    artifact: A,
    inputs: &Inputs,
    expected: StreamOutcome,
    pass_secs: f64,
    spans: &mut Spans,
    report: &mut Report,
) {
    let (artifact_bytes, load_ms) = probes::persist(&artifact, 21);
    report.metric("persist.artifact_bytes", artifact_bytes as f64);
    report.metric("persist.load_ms", load_ms);
    let bytes = artifact.save();
    let service = DecisionService::<A>::from_artifact_bytes(
        &bytes,
        inputs.alphabet.clone(),
        crate::service::config(),
    )
    .expect("saved artifact boots a service");
    let order = [0usize];
    let load = Load {
        docs: vec![&inputs.docs[0].xml],
        expect: vec![expected],
        order: &order,
    };
    let rate = 1.0 / (3.0 * pass_secs);
    let mut cursor = 0;
    let before = service.stats();
    let phase = openloop::run(
        &service,
        &load,
        &mut cursor,
        rate,
        Duration::from_secs_f64(SERVICE_PROBE_DOCS as f64 / rate),
        spans.epoch(),
        None,
    );
    crate::service::report_service_layer(&service, &before, &phase, report);
    report.attempted += phase.samples.len() as u64;
    report.failed += phase.failed();
    report.wrong += phase.wrong;
    report.checked += phase.samples.len() as u64 - phase.failed();
}
