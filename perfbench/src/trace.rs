//! Spans recorded around the public calls of each layer, kept in memory and
//! written out when the run ends. Nothing inside the library is traced.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span belongs to (named after the library's modules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole bytes→verdict pass, the parent of its scan and step spans.
    Pass,
    /// `FrozenByteTokenizer::{new, fill}`.
    Scan,
    /// `StreamAcceptor::start` and `StreamRun::step_slice` on a `CompiledNwa`.
    Engine,
    /// `MultiAcceptor::start_set` and its `step_slice` on a `QuerySet`.
    Multi,
    /// One request, from its due time to its observed verdict.
    Request,
    /// `DecisionService::submit_bytes`.
    Submit,
    /// From `submit_bytes` returning to `DecisionHandle::wait` returning.
    Wait,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Pass => "pass",
            Layer::Scan => "scan",
            Layer::Engine => "engine",
            Layer::Multi => "multi",
            Layer::Request => "request",
            Layer::Submit => "submit",
            Layer::Wait => "wait",
        }
    }
}

/// One span; spans of one pass or request share `id`, and the child spans
/// name their parent layer through it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub layer: Layer,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The span store of one run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn push(&mut self, id: u32, layer: Layer, start: u64, end: u64) {
        self.spans.push(Span {
            id,
            layer,
            start,
            end,
        });
    }

    /// Total duration of `layer`'s spans.
    pub fn total(&self, layer: Layer) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::ns)
            .sum()
    }

    /// Number of `layer` spans.
    pub fn count(&self, layer: Layer) -> usize {
        self.spans.iter().filter(|s| s.layer == layer).count()
    }

    /// The spans as tab-separated `id layer start_ns end_ns` lines.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tlayer\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let _ = writeln!(out, "{}\t{}\t{}\t{}", s.id, s.layer.name(), s.start, s.end);
        }
        out
    }
}
