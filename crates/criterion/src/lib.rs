//! A minimal, dependency-free stand-in for the [criterion] benchmarking
//! crate, implementing exactly the API subset the `bench` crate uses.
//!
//! The build environment has no access to crates.io, so the real criterion
//! cannot be a dependency. This shim keeps the bench sources written against
//! the canonical criterion API (`criterion_group!`, `Criterion`,
//! `BenchmarkGroup`, `BenchmarkId`, `Throughput`, `Bencher::iter`) so they
//! can switch to the real crate by changing one manifest line. Timing is a
//! straightforward warm-up + fixed-sample-count loop around
//! [`std::time::Instant`]; results are printed as one line per benchmark.
//!
//! Beyond the printed tables, every measurement is recorded in a process-wide
//! registry, and passing `--format json` to the bench binary (i.e.
//! `cargo bench --bench <name> -- --format json`) makes
//! [`criterion_main!`] write them as machine-readable
//! `BENCH_<target>.json` — into `$BENCH_JSON_DIR` if set, else the current
//! directory. CI uploads these files as artifacts and gates on throughput
//! regressions against the checked-in baseline
//! (`BENCH_streaming.json` at the workspace root).
//!
//! [criterion]: https://docs.rs/criterion

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One recorded measurement, as serialized into `BENCH_<target>.json`.
#[derive(Debug, Clone)]
struct Record {
    /// Full benchmark id, `group/function/parameter`.
    id: String,
    /// Mean time per iteration in nanoseconds.
    mean_ns: f64,
    /// Fastest sample in nanoseconds.
    min_ns: f64,
    /// Declared per-iteration work, if any.
    throughput: Option<Throughput>,
}

/// Process-wide measurement registry, drained by [`write_json_if_requested`].
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// Facts about the run, written as the JSON `header` object.
static HEADER: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());

/// Records one fact about the run — the core count, the backend, the
/// document shape — as `key: value` in the `header` object of
/// `BENCH_<target>.json`. A later value for the same key replaces it.
pub fn header(key: &str, value: impl Display) {
    let mut header = HEADER.lock().unwrap();
    header.retain(|(k, _)| k != key);
    header.push((key.into(), value.to_string()));
}

/// Returns `true` if the process arguments request JSON output
/// (`--format json` or `--format=json`).
fn json_requested() -> bool {
    let args: Vec<String> = std::env::args().collect();
    args.iter().any(|a| a == "--format=json")
        || args
            .windows(2)
            .any(|w| w[0] == "--format" && w[1] == "json")
}

/// Serializes the recorded measurements of this process into
/// `BENCH_<target>.json` if `--format json` was passed; called by
/// [`criterion_main!`] after all groups have run. The output directory is
/// `$BENCH_JSON_DIR` if set, else the current directory.
pub fn write_json_if_requested(target: &str) {
    if !json_requested() {
        return;
    }
    let records = RECORDS.lock().unwrap();
    let out = render_json(target, &HEADER.lock().unwrap(), &records);
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{target}.json"));
    match std::fs::write(&path, out) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Renders the JSON document for a header and a set of records.
fn render_json(target: &str, header: &[(String, String)], records: &[Record]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{target}\",\n"));
    out.push_str("  \"format\": 1,\n");
    if !header.is_empty() {
        let facts: Vec<String> = header
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        out.push_str(&format!("  \"header\": {{ {} }},\n", facts.join(", ")));
    }
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        let throughput = match r.throughput {
            Some(Throughput::Elements(n)) => format!(
                ",\n      \"throughput\": {{ \"unit\": \"elements\", \"per_iter\": {n}, \"per_sec\": {:.1} }}",
                per_sec(n, r.mean_ns)
            ),
            Some(Throughput::Bytes(n)) => format!(
                ",\n      \"throughput\": {{ \"unit\": \"bytes\", \"per_iter\": {n}, \"per_sec\": {:.1} }}",
                per_sec(n, r.mean_ns)
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\n      \"id\": \"{}\",\n      \"mean_ns\": {:.1},\n      \"min_ns\": {:.1}{throughput}\n    }}{sep}\n",
            r.id, r.mean_ns, r.min_ns
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn per_sec(per_iter: u64, mean_ns: f64) -> f64 {
    if mean_ns > 0.0 {
        per_iter as f64 / (mean_ns / 1e9)
    } else {
        0.0
    }
}

/// Top-level benchmark driver, handed to every `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_millis(500),
            throughput: None,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group(id);
        group.bench_function("", &mut f);
        group.finish();
        self
    }
}

/// Identifier of a parameterized benchmark: a function name plus a parameter
/// rendered with [`Display`].
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an id `function_name/parameter`.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }
}

/// Throughput annotation for a benchmark, used to report a rate next to the
/// mean time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Number of elements processed per iteration.
    Elements(u64),
    /// Number of bytes processed per iteration.
    Bytes(u64),
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up duration per benchmark.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Sets the target measurement duration per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Declares the work performed per iteration of subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::new(self.sample_size, self.warm_up_time, self.measurement_time);
        f(&mut bencher);
        self.report(id, &bencher);
        self
    }

    /// Benchmarks `f` with an input value under a parameterized id.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::new(self.sample_size, self.warm_up_time, self.measurement_time);
        f(&mut bencher, input);
        self.report(&id.id, &bencher);
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {
        println!();
    }

    fn report(&self, id: &str, bencher: &Bencher) {
        let label = if id.is_empty() {
            self.name.clone()
        } else {
            format!("{}/{}", self.name, id)
        };
        if let Some(mean) = bencher.mean {
            RECORDS.lock().unwrap().push(Record {
                id: label.clone(),
                mean_ns: mean.as_nanos() as f64,
                min_ns: bencher.min.unwrap_or(mean).as_nanos() as f64,
                throughput: self.throughput,
            });
        }
        match bencher.mean {
            Some(mean) => {
                let rate = match self.throughput {
                    Some(Throughput::Elements(n)) if mean > Duration::ZERO => {
                        let per_sec = n as f64 / mean.as_secs_f64();
                        format!("  {per_sec:.0} elem/s")
                    }
                    Some(Throughput::Bytes(n)) if mean > Duration::ZERO => {
                        let per_sec = n as f64 / mean.as_secs_f64();
                        format!("  {per_sec:.0} B/s")
                    }
                    _ => String::new(),
                };
                println!(
                    "  {label:<48} mean {:>12?}  min {:>12?}{rate}",
                    mean,
                    bencher.min.unwrap_or(mean)
                );
            }
            None => println!("  {label:<48} (no measurement)"),
        }
    }
}

/// Runs the closure under measurement; handed to benchmark functions.
pub struct Bencher {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    mean: Option<Duration>,
    min: Option<Duration>,
}

impl Bencher {
    fn new(sample_size: usize, warm_up_time: Duration, measurement_time: Duration) -> Self {
        Bencher {
            sample_size,
            warm_up_time,
            measurement_time,
            mean: None,
            min: None,
        }
    }

    /// Measures `routine`: warms up for the configured duration to estimate
    /// the iteration count, then times `sample_size` samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run until the warm-up budget is spent, counting iterations.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed() / warm_iters.max(1) as u32;

        // Choose iterations per sample so all samples fit the measurement budget.
        let budget_per_sample = self.measurement_time / self.sample_size as u32;
        let iters_per_sample = if per_iter.is_zero() {
            1_000
        } else {
            (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64
        };

        let mut total = Duration::ZERO;
        let mut min: Option<Duration> = None;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let sample = start.elapsed() / iters_per_sample as u32;
            total += sample;
            min = Some(min.map_or(sample, |m| m.min(sample)));
        }
        self.mean = Some(total / self.sample_size as u32);
        self.min = min;
    }
}

/// Declares a benchmark group function compatible with the criterion macro of
/// the same name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark entry point, running each group in order, then
/// serializing the recorded measurements to `BENCH_<target>.json` when the
/// binary was invoked with `--format json` (see
/// [`write_json_if_requested`]).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_json_if_requested(env!("CARGO_CRATE_NAME"));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| 1 + 1);
            ran = true;
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn benchmark_id_formats() {
        let id = BenchmarkId::new("f", 42);
        assert_eq!(id.id, "f/42");
    }

    #[test]
    fn measurements_are_recorded_and_render_as_json() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("json_shape");
        group
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2))
            .throughput(Throughput::Elements(1000));
        group.bench_with_input(BenchmarkId::new("work", 1000), &1000u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();

        let records = RECORDS.lock().unwrap();
        let r = records
            .iter()
            .find(|r| r.id == "json_shape/work/1000")
            .expect("measurement recorded");
        // In release mode the summed range can const-fold to ~0ns; the
        // record must exist and be finite, not necessarily positive.
        assert!(r.mean_ns.is_finite() && r.mean_ns >= 0.0);

        let json = render_json("demo", &[], std::slice::from_ref(r));
        assert!(json.contains("\"bench\": \"demo\""));
        assert!(!json.contains("header"));
        let facts = [("nproc".to_string(), "2".to_string())];
        let json = render_json("demo", &facts, std::slice::from_ref(r));
        assert!(json.contains("\"header\": { \"nproc\": \"2\" },"));
        assert!(json.contains("\"id\": \"json_shape/work/1000\""));
        assert!(json.contains("\"unit\": \"elements\""));
        assert!(json.contains("\"per_iter\": 1000"));
        assert!(json.contains("\"per_sec\""));
    }
}
