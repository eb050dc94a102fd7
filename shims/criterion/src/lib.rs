//! In-tree shim for the subset of the Criterion.rs API this workspace's
//! benches use: groups, `bench_function`, `iter`/`iter_custom`,
//! `BenchmarkId`, `Throughput`, `black_box` and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! The build image has no network access to a crates.io mirror, so the
//! workspace vendors a small harness with the same calling convention.
//! It measures wall-clock mean/min/max over the configured sample count
//! and prints one line per benchmark; it does not keep baselines, plot,
//! or bootstrap confidence intervals.
//!
//! CLI compatibility with `cargo bench` and the real Criterion:
//!
//! * `--test` runs every benchmark once with a single iteration (used by
//!   CI smoke jobs and `cargo bench -- --test`);
//! * a positional argument filters benchmarks by substring;
//! * `--bench` (passed by cargo itself) and the common Criterion flags
//!   that make no sense here (`--save-baseline`, `--baseline`,
//!   `--noplot`, …) are accepted and ignored.
//!
//! # Machine-readable results
//!
//! When the `BENCH_JSON` environment variable names a file, every
//! executed benchmark appends one JSON line to it:
//!
//! ```text
//! {"id":"group/name/param","median_ns":123.4,"samples":10,"mode":"bench"}
//! ```
//!
//! In `--test` mode the single smoke iteration is timed and recorded
//! with `"mode":"test"` — a does-it-run record, too noisy to compare
//! as a timing.
//!
//! Benches can also record **gauges** — point-in-time measured
//! quantities that are not the timing of a closure (a replication lag,
//! a byte counter) — with [`Criterion::report_gauge`]:
//!
//! ```text
//! {"id":"fanout/replica_lag","median_ns":812345.0,"samples":1,"mode":"gauge","unit":"ns"}
//! ```
//!
//! Gauge lines reuse the `median_ns` key for the value so a reader of
//! the file treats them like any other series; `unit` names what the
//! number actually is.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Entry point state for a bench binary; created by [`criterion_main!`].
#[derive(Default)]
pub struct Criterion {
    filter: Option<String>,
    test_mode: bool,
    ran: usize,
}

/// Per-group measurement settings.
#[derive(Clone, Copy)]
struct Settings {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Builds the harness from `std::env::args`, accepting the subset of
    /// Criterion flags described in the crate docs.
    pub fn from_args() -> Self {
        let mut c = Criterion::default();
        let mut args = std::env::args().skip(1).peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--test" => c.test_mode = true,
                "--bench" | "--noplot" | "--quiet" | "--verbose" | "--exact" | "--quick" => {}
                "--save-baseline" | "--baseline" | "--load-baseline" | "--measurement-time"
                | "--warm-up-time" | "--sample-size" | "--profile-time" => {
                    // Flag takes a value we do not use.
                    let _ = args.next();
                }
                other if other.starts_with("--") => {}
                other => c.filter = Some(other.to_string()),
            }
        }
        c
    }

    /// Runs one standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.run_one(id.to_string(), Settings::default(), f);
        self
    }

    /// Opens a benchmark group with its own measurement settings.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            settings: Settings::default(),
        }
    }

    /// Records a point-in-time gauge under the benchmark namespace:
    /// one `BENCH_JSON` line with `"mode":"gauge"` and the given
    /// `unit`, plus a human-readable stdout line. Honors the CLI
    /// filter like a benchmark does. Use it for measured quantities
    /// that are not closure timings — e.g. how far a replica's applied
    /// epoch trails the primary after a fixed push workload.
    pub fn report_gauge(&mut self, id: &str, value: f64, unit: &str) -> &mut Self {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return self;
            }
        }
        if let Ok(path) = std::env::var("BENCH_JSON") {
            if !path.is_empty() {
                append_json_line(path.as_ref(), id, value, 1, "gauge", Some(unit));
            }
        }
        println!("{id:<50} gauge: {value:.1} {unit}");
        self
    }

    /// Prints the closing line; called by [`criterion_main!`].
    pub fn final_summary(&mut self) {
        if self.test_mode {
            println!(
                "criterion-shim: {} benchmark(s) executed in test mode",
                self.ran
            );
        }
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, id: String, settings: Settings, mut f: F) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        if self.test_mode {
            let mut b = Bencher {
                iters: 1,
                elapsed: Duration::ZERO,
            };
            let wall = Instant::now();
            f(&mut b);
            let wall = wall.elapsed();
            // Prefer the time the closure measured (per-iteration); fall
            // back to wall clock for closures that never call `iter`.
            let ns = if b.elapsed > Duration::ZERO {
                b.elapsed.as_nanos() as f64
            } else {
                wall.as_nanos() as f64
            };
            emit_json(&id, ns, 1, "test");
            println!("Testing {id}: ok");
            self.ran += 1;
            return;
        }

        // Calibrate: grow the iteration count until one sample is long
        // enough that `sample_size` samples fill the measurement time.
        // Bounded by *wall clock*, not only by the reported duration:
        // `iter_custom` closures may report normalized (e.g. per-op)
        // times far below the real time they take, and doubling until the
        // reported time fills the window would then run for hours.
        let per_sample = settings.measurement_time / settings.sample_size as u32;
        let mut iters: u64 = 1;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            let wall = Instant::now();
            f(&mut b);
            let wall = wall.elapsed();
            if b.elapsed >= per_sample / 2 || wall * 2 >= per_sample || iters >= 1 << 24 {
                break;
            }
            iters = iters.saturating_mul(2);
        }

        // Warm-up.
        let warm_deadline = Instant::now() + settings.warm_up_time;
        while Instant::now() < warm_deadline {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
        }

        // Measure.
        let mut samples_ns: Vec<f64> = Vec::with_capacity(settings.sample_size);
        for _ in 0..settings.sample_size {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            samples_ns.push(b.elapsed.as_nanos() as f64 / iters as f64);
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        let median = {
            let n = samples_ns.len();
            if n % 2 == 1 {
                samples_ns[n / 2]
            } else {
                (samples_ns[n / 2 - 1] + samples_ns[n / 2]) / 2.0
            }
        };
        emit_json(&id, median, samples_ns.len(), "bench");
        let (lo, hi) = (samples_ns[0], samples_ns[samples_ns.len() - 1]);
        let mut line = String::new();
        let _ = write!(
            line,
            "{id:<50} time: [{} {} {}]",
            fmt_ns(lo),
            fmt_ns(mean),
            fmt_ns(hi)
        );
        println!("{line}");
        self.ran += 1;
    }
}

/// Appends one JSON line per executed benchmark to the `BENCH_JSON`
/// file, if set. Failures to write are reported but never fail a bench
/// run.
fn emit_json(id: &str, median_ns: f64, samples: usize, mode: &str) {
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    append_json_line(path.as_ref(), id, median_ns, samples, mode, None);
}

/// The `BENCH_JSON` line writer, separated from the env lookup so it is
/// directly testable (mutating the process environment from tests races
/// with concurrently running benchmarks reading it). Gauge lines carry
/// an extra `unit` field; timing lines omit it.
fn append_json_line(
    path: &std::path::Path,
    id: &str,
    median_ns: f64,
    samples: usize,
    mode: &str,
    unit: Option<&str>,
) {
    let escaped: String = id
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect();
    let unit_field = match unit {
        Some(u) => format!(",\"unit\":\"{u}\""),
        None => String::new(),
    };
    let line = format!(
        "{{\"id\":\"{escaped}\",\"median_ns\":{median_ns:.1},\"samples\":{samples},\"mode\":\"{mode}\"{unit_field}}}"
    );
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = written {
        eprintln!(
            "criterion-shim: cannot append to BENCH_JSON={}: {e}",
            path.display()
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A group of related benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    settings: Settings,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measured samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n.max(2);
        self
    }

    /// Sets the target total measurement time per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement_time = d;
        self
    }

    /// Sets the warm-up time per benchmark.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.settings.warm_up_time = d;
        self
    }

    /// Declares the throughput of each iteration (accepted; the shim
    /// reports time per iteration only).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<I: IntoBenchmarkId, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        f: F,
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into_benchmark_id());
        let settings = self.settings;
        self.criterion.run_one(id, settings, f);
        self
    }

    /// Closes the group (no-op; for API compatibility).
    pub fn finish(&mut self) {}
}

/// The per-benchmark timing driver handed to bench closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f`.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Hands the iteration count to `f`, which returns the measured time.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        self.elapsed = f(self.iters);
    }
}

/// A benchmark id with a parameter, `name/param`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds `name/param`.
    pub fn new(name: impl std::fmt::Display, param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{param}"),
        }
    }

    /// Builds a parameter-only id.
    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

/// Conversion into a benchmark id string (either a `&str` or a
/// [`BenchmarkId`]).
pub trait IntoBenchmarkId {
    /// Renders the id.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Iteration throughput declaration (accepted for API compatibility).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Declares a group function running the listed benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(criterion: &mut $crate::Criterion) {
            $( $target(criterion); )+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::from_args();
            $( $group(&mut criterion); )+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_iter_counts_all_iterations() {
        let mut calls = 0u64;
        let mut b = Bencher {
            iters: 37,
            elapsed: Duration::ZERO,
        };
        b.iter(|| calls += 1);
        assert_eq!(calls, 37);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("uc", 4).into_benchmark_id(), "uc/4");
        assert_eq!(BenchmarkId::from_parameter(8).into_benchmark_id(), "8");
    }

    #[test]
    fn test_mode_runs_each_function_once() {
        let mut c = Criterion {
            filter: None,
            test_mode: true,
            ran: 0,
        };
        let mut calls = 0;
        {
            let mut g = c.benchmark_group("g");
            g.bench_function("one", |b| b.iter(|| calls += 1));
            g.finish();
        }
        assert_eq!(calls, 1);
        assert_eq!(c.ran, 1);
    }

    #[test]
    fn bench_json_lines_append_and_escape() {
        // Exercises the writer directly: setting BENCH_JSON in the
        // process environment would race with other tests' benchmarks
        // reading it through emit_json.
        let path = std::env::temp_dir().join(format!(
            "criterion_shim_bench_json_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        append_json_line(&path, "json/a", 12.34, 1, "test", None);
        append_json_line(
            &path,
            "needs \"escaping\" \\ here",
            1_000_000.0,
            10,
            "bench",
            None,
        );
        append_json_line(&path, "fanout/replica_lag", 42.0, 1, "gauge", Some("ns"));

        let contents = std::fs::read_to_string(&path).expect("BENCH_JSON file written");
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 3, "one JSON line per benchmark: {contents}");
        assert_eq!(
            lines[0],
            "{\"id\":\"json/a\",\"median_ns\":12.3,\"samples\":1,\"mode\":\"test\"}"
        );
        assert_eq!(
            lines[1],
            "{\"id\":\"needs \\\"escaping\\\" \\\\ here\",\"median_ns\":1000000.0,\
             \"samples\":10,\"mode\":\"bench\"}"
        );
        assert_eq!(
            lines[2],
            "{\"id\":\"fanout/replica_lag\",\"median_ns\":42.0,\"samples\":1,\
             \"mode\":\"gauge\",\"unit\":\"ns\"}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_gauge_honors_the_filter() {
        let mut c = Criterion {
            filter: Some("fanout".into()),
            test_mode: true,
            ran: 0,
        };
        // Neither call may touch BENCH_JSON here (unset in tests); the
        // filtered id must not even print. This is a smoke check that
        // the call compiles and filters — the line format is covered by
        // `bench_json_lines_append_and_escape`.
        c.report_gauge("other/lag", 1.0, "ns");
        c.report_gauge("fanout/replica_lag", 2.0, "ns");
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion {
            filter: Some("match".into()),
            test_mode: true,
            ran: 0,
        };
        let mut calls = 0;
        c.bench_function("no", |b| b.iter(|| calls += 1));
        c.bench_function("does_match", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 1);
        assert_eq!(c.ran, 1);
    }
}
