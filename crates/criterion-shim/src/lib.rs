//! Offline stand-in for the crates.io `criterion` benchmark harness.
//!
//! The build environment of this reproduction has no network access to a
//! crates registry, so the workspace cannot depend on the real `criterion`
//! crate. This shim implements the small API subset used by
//! `crates/bench/benches/figures.rs` — [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`Bencher::iter`], [`criterion_group!`]
//! and [`criterion_main!`] — with plain wall-clock timing instead of
//! criterion's statistical analysis.
//!
//! Each benchmark runs a short warm-up, then `sample_size` timed iterations,
//! and prints the mean and min/max per-iteration time. Replacing this crate
//! with the real `criterion` (by pointing the workspace dependency back at
//! crates.io) requires no source change in the bench crate.
//!
//! ## Machine-readable output
//!
//! Alongside the printed report, every benchmark run is recorded and written
//! as a JSON map (`name → {mean_ns, min_ns, max_ns, samples}`) by the `main`
//! generated by [`criterion_main!`] once every group has finished. The map
//! opens with a `host` block (`cores`, `pim_threads`, `os`, `arch`,
//! `profile`) so timings from different machines are never confused. The file
//! lands at `BENCH_PIM.json` in the working directory (for `cargo bench`,
//! the workspace root), or at the path given by the `PIM_BENCH_JSON`
//! environment variable. This gives the repository a perf trajectory that
//! can be diffed PR over PR and uploaded as a CI artifact.
//!
//! Two environment variables tune the harness for CI smoke runs:
//!
//! * `PIM_BENCH_JSON` — output path of the JSON report;
//! * `PIM_BENCH_SAMPLES` — overrides every sample count (default and
//!   per-group), e.g. `PIM_BENCH_SAMPLES=3` for a quick smoke pass.

#![deny(missing_docs)]

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default number of timed samples per benchmark, mirroring criterion's
/// default sample count order of magnitude while staying fast enough for a
/// harness that runs in CI.
const DEFAULT_SAMPLE_SIZE: usize = 20;

/// One finished benchmark, as recorded for the JSON report.
#[derive(Debug, Clone)]
struct BenchRecord {
    name: String,
    mean_ns: u128,
    min_ns: u128,
    max_ns: u128,
    samples: usize,
}

/// All benchmarks recorded so far in this process (multiple `Criterion`
/// instances — one per `criterion_group!` — share the registry).
static RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Effective sample count: the `PIM_BENCH_SAMPLES` override wins over the
/// configured value so CI smoke jobs can shrink every benchmark at once.
fn effective_sample_size(configured: usize) -> usize {
    match std::env::var("PIM_BENCH_SAMPLES").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) => n.max(1),
        None => configured.max(1),
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `host` block of the JSON report: available cores, the `PIM_THREADS`
/// override (`null` when unset), OS, architecture and build profile.
fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = std::env::var("PIM_THREADS")
        .map_or_else(|_| "null".to_string(), |v| format!("\"{}\"", escape_json(&v)));
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"cores\": {cores}, \"pim_threads\": {threads}, \"os\": \"{}\", \"arch\": \"{}\", \"profile\": \"{profile}\"}}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// Serializes the host block and every recorded benchmark to `path` as a
/// JSON object keyed by benchmark name. Returns an I/O error on failure;
/// callers on the drop path ignore it (a failed report must not panic the
/// bench harness).
pub fn write_json_report(path: &str) -> std::io::Result<()> {
    let records = RECORDS.lock().unwrap_or_else(|e| e.into_inner());
    let mut body =
        format!("{{\n  \"host\": {}{}\n", host_json(), if records.is_empty() { "" } else { "," });
    for (i, r) in records.iter().enumerate() {
        body.push_str(&format!(
            "  \"{}\": {{\"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"samples\": {}}}{}\n",
            escape_json(&r.name),
            r.mean_ns,
            r.min_ns,
            r.max_ns,
            r.samples,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    body.push_str("}\n");
    std::fs::write(path, body)
}

/// The JSON report path: `PIM_BENCH_JSON` when set, otherwise
/// `BENCH_PIM.json` in the workspace root (the nearest ancestor of the
/// working directory holding a `Cargo.lock` — `cargo bench` runs bench
/// binaries with the *package* directory as cwd, and the report should land
/// in one canonical place regardless of which package ran).
pub fn json_report_path() -> String {
    if let Ok(p) = std::env::var("PIM_BENCH_JSON") {
        return p;
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("BENCH_PIM.json").to_string_lossy().into_owned();
        }
        if !dir.pop() {
            return "BENCH_PIM.json".to_string();
        }
    }
}

/// Timing helper handed to benchmark closures; measures the closure passed
/// to [`Bencher::iter`].
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Self { samples: Vec::with_capacity(sample_size), sample_size }
    }

    /// Runs `f` once as warm-up, then `sample_size` timed iterations,
    /// recording each iteration's wall-clock duration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(f());
            self.samples.push(start.elapsed());
        }
    }

    fn report(&self, name: &str) {
        if self.samples.is_empty() {
            println!("{name:<44} (no samples)");
            return;
        }
        let total: Duration = self.samples.iter().sum();
        let mean = total / self.samples.len() as u32;
        let min = self.samples.iter().min().expect("non-empty");
        let max = self.samples.iter().max().expect("non-empty");
        println!(
            "{name:<44} mean {mean:>12?}   min {min:>12?}   max {max:>12?}   ({} samples)",
            self.samples.len()
        );
        RECORDS.lock().unwrap_or_else(|e| e.into_inner()).push(BenchRecord {
            name: name.trim().to_string(),
            mean_ns: mean.as_nanos(),
            min_ns: min.as_nanos(),
            max_ns: max.as_nanos(),
            samples: self.samples.len(),
        });
    }
}

/// Top-level benchmark driver, the shim counterpart of `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(effective_sample_size(DEFAULT_SAMPLE_SIZE));
        f(&mut b);
        b.report(name);
        self
    }

    /// Opens a named group of benchmarks sharing a sample-size setting.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup { _parent: self, sample_size: DEFAULT_SAMPLE_SIZE }
    }
}

/// A group of benchmarks with a shared configuration, the shim counterpart
/// of `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs a single named benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(effective_sample_size(self.sample_size));
        f(&mut b);
        b.report(&format!("  {name}"));
        self
    }

    /// Finishes the group (a no-op in the shim, kept for API compatibility).
    pub fn finish(self) {}
}

/// Declares a benchmark group function, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark `main` function, mirroring `criterion::criterion_main!`.
///
/// After every group has run, the cumulative JSON report is written to
/// [`json_report_path`] (I/O failures are reported on stderr, not fatal).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            let path = $crate::json_report_path();
            match $crate::write_json_report(&path) {
                Ok(()) => println!("benchmark report written to {path}"),
                Err(e) => eprintln!("failed to write benchmark report {path}: {e}"),
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion::default();
        let mut runs = 0usize;
        c.bench_function("smoke", |b| b.iter(|| runs += 1));
        // one warm-up + DEFAULT_SAMPLE_SIZE timed iterations
        assert_eq!(runs, DEFAULT_SAMPLE_SIZE + 1);
    }

    #[test]
    fn group_respects_sample_size() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        let mut runs = 0usize;
        g.bench_function("smoke", |b| b.iter(|| runs += 1));
        g.finish();
        assert_eq!(runs, 4);
    }

    #[test]
    fn json_report_contains_recorded_benchmarks() {
        let mut c = Criterion::default();
        c.bench_function("json_probe_bench", |b| b.iter(|| std::hint::black_box(1 + 1)));
        let path = std::env::temp_dir().join("pim_criterion_shim_test.json");
        let path = path.to_str().expect("utf-8 temp path");
        write_json_report(path).expect("report written");
        let body = std::fs::read_to_string(path).expect("report readable");
        std::fs::remove_file(path).ok();
        assert!(body.trim_start().starts_with('{') && body.trim_end().ends_with('}'));
        assert!(body.contains("\"json_probe_bench\""));
        assert!(body.contains("\"host\": {\"cores\": "));
        assert!(body.contains(&format!("\"os\": \"{}\"", std::env::consts::OS)));
        assert!(body.contains("\"mean_ns\""));
        assert!(body.contains("\"samples\""));
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        assert_eq!(escape_json("plain_name"), "plain_name");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("tab\there"), "tab\\u0009here");
    }
}
