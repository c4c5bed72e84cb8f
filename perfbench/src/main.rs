//! The repository benchmark. One run decides one workload's seeded inputs
//! for `--seconds`, checks every verdict against a scanner-free oracle, and
//! prints a header of `# key: value` lines followed by one JSON result line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` repeats the work
//! with spans around each layer's public calls and reports the per-layer
//! metrics instead.
//!
//! ```text
//! perfbench --workload stream_1q --seed 1 --seconds 40 --trace 0 [--spans FILE]
//! ```

mod inputs;
mod openloop;
mod probes;
mod service;
mod stats;
mod stream;
mod trace;
mod yardstick;

use std::fmt::{Display, Write as _};
use std::time::Instant;

/// Why each workload exists, printed in the header.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "stream_1q",
        "one compiled contains_tag query over a 1M-event document: scan is most of the pass, so a scanner change shows here first",
    ),
    (
        "stream_16q",
        "the same bytes under the sixteen-query lockstep set: engine/multi work dominates, so step gains are magnified and scanner gains shrink",
    ),
    (
        "service_open",
        "small mixed documents over a 4096-word vocabulary arriving on an open loop: tokenizer set-up, name-cache misses and the queue sit on the latency path",
    ),
];

/// Everything one run prints.
pub struct Report {
    pub trace: bool,
    header: Vec<(String, String)>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Decisions attempted, and those that errored or were refused.
    pub attempted: u64,
    pub failed: u64,
    /// Verdicts compared with the oracle, and those that disagreed.
    pub checked: u64,
    pub wrong: u64,
}

/// The unit of each metric the benchmark prints.
fn unit(name: &str) -> &'static str {
    match name {
        "verdict_mb_s" => "MB/s",
        "max_rate_docs_s" => "docs/s",
        "setup_s" => "s",
        "peak_rss_mb" => "MB",
        "scan.ns_per_byte" | "ref.utf8_ns_per_byte" => "ns/B",
        "persist.artifact_bytes" | "multi.table_bytes" => "B",
        _ if name.ends_with("_ms") || name.ends_with(".ms") || name.ends_with("_ms_p99") => "ms",
        _ if name.contains("_us_") => "us",
        _ if name.ends_with("ns_per_event") => "ns",
        _ if name.ends_with("share") || name.ends_with("_frac") || name.ends_with("occupancy") => {
            "fraction"
        }
        _ => "count",
    }
}

impl Report {
    pub fn header(&mut self, key: &str, value: impl Display) {
        self.header.push((key.to_string(), value.to_string()));
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit(name)));
    }

    /// The sample count and percentile behind a summary.
    pub fn samples(&mut self, what: &str, n: usize, tail_pct: f64) {
        self.header(
            &format!("samples.{what}"),
            format!("n={n} tail=p{tail_pct}"),
        );
    }

    /// A layer's cost rows, and its share of the workload's mean document
    /// time (0 for a layer off the workload's path).
    pub fn layer(&mut self, layer: &str, cost: &probes::LayerCost, share: f64) {
        if layer == "scan" {
            self.metric("scan.ns_per_byte", cost.ns_per_byte);
        }
        self.metric(&format!("{layer}.ns_per_event"), cost.ns_per_event);
        self.metric(&format!("{layer}.busy_ms"), cost.busy_ms);
        self.metric(&format!("{layer}.share"), share);
    }

    fn print(&self) {
        for (k, v) in &self.header {
            println!("# {k}: {v}");
        }
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.wrong == 0 && self.checked > 0,
            self.attempted,
            self.failed
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let mut report = Report {
        trace: args.trace,
        header: Vec::new(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        checked: 0,
        wrong: 0,
    };
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map(|(_, why)| *why);
    report.header("workload", &args.workload);
    report.header("why", why.unwrap_or_default());
    report.header("seed", args.seed);
    report.header("seconds", args.seconds);
    report.header("trace", u8::from(args.trace));
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    report.header("nproc", nproc);
    report.header(
        "scan_backend",
        format!("{:?}", nwa_xml::scan::scan_backend()),
    );

    let inputs = match args.workload.as_str() {
        "stream_1q" => inputs::stream(args.seed, |ab| vec![inputs::contains_query(ab)]),
        "stream_16q" => inputs::stream(args.seed, inputs::e19_pool),
        _ => inputs::service(args.seed),
    };
    shape(&inputs, &mut report);
    report.header(
        "oracle_verdicts",
        inputs.docs.iter().map(|d| d.expected.len()).sum::<usize>(),
    );

    let mut spans = trace::Spans::new(epoch);
    match args.workload.as_str() {
        "stream_1q" => stream::run(false, &inputs, args.seconds, &mut spans, &mut report),
        "stream_16q" => stream::run(true, &inputs, args.seconds, &mut spans, &mut report),
        _ => service::run(&inputs, args.seed, args.seconds, &mut spans, &mut report),
    }
    if args.trace {
        report.metric(
            "failed_frac",
            stats::failed_frac(report.attempted, report.failed),
        );
    }
    report.header("verdicts_checked", report.checked);
    report.header("verdicts_wrong", report.wrong);
    report.header("spans", spans.spans.len());
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, spans.to_tsv()) {
            eprintln!("perfbench: writing spans to {path}: {e}");
            std::process::exit(1);
        }
    }
    report.print();
    if report.wrong > 0 {
        eprintln!(
            "perfbench: {} verdicts disagree with the oracle",
            report.wrong
        );
        std::process::exit(1);
    }
}

/// The document shape, totals over the workload's documents.
fn shape(inputs: &inputs::Inputs, report: &mut Report) {
    let docs = &inputs.docs;
    let bytes: usize = docs.iter().map(|d| d.xml.len()).sum();
    let events: usize = docs.iter().map(|d| d.events).sum();
    let text: usize = docs.iter().map(|d| d.text_events).sum();
    report.header("doc.count", docs.len());
    report.header("doc.bytes", bytes / docs.len());
    report.header("doc.events", events / docs.len());
    report.header(
        "doc.bytes_per_event",
        format!("{:.3}", bytes as f64 / events as f64),
    );
    report.header(
        "doc.text_event_frac",
        format!("{:.3}", text as f64 / events as f64),
    );
    report.header(
        "doc.max_depth",
        docs.iter().map(|d| d.max_depth).max().unwrap_or(0),
    );
    report.header("doc.vocab", inputs.vocab);
    report.header("queries", inputs.queries.len());
}
