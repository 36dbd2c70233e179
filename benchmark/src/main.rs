//! The repository benchmark.
//!
//! ```text
//! pim-benchmark --workload <paper_flow|corpus_small|fit_batch> --seed <n>
//!               --seconds <s> --trace <0|1> [--workload-seed <k>]
//! ```
//!
//! Each workload is a closed loop driven from this one process: the next
//! operation starts only when the previous one (on the same client thread)
//! finished. `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the workload once untraced and once traced and reports
//! the per-layer metrics (see `workloads.rs` for both lists' definitions).
//! Human-readable lines come first; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 0 only when every correctness check passed.
//!
//! Inputs: `--workload-seed` picks the board lists of `corpus_small` and
//! `fit_batch` (default 0), so a claim can be re-checked on a held-out list;
//! `--seed` only shuffles the order in which `fit_batch` visits its boards.
//! `paper_flow` has no seed. `METRICS.md` says why the run seed does not
//! pick the boards, and defines every metric.

mod replay;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workload_seed: u64,
}

const USAGE: &str = "usage: pim-benchmark --workload <paper_flow|corpus_small|fit_batch> \
                     --seed <n> --seconds <s> --trace <0|1> [--workload-seed <k>]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut workload_seed = 0;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--workload-seed" => workload_seed = value.parse().map_err(|_| bad())?,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let args = Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            workload_seed,
        };
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {}", args.seconds));
        }
        Ok(args)
    }
}

/// What a workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Correctness failures; the run is correct only when this is empty.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra human-readable lines (sample counts, tail percentile, …).
    pub notes: Vec<String>,
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The host record printed with every result.
fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a git repository has a commit to
    // report; a copy nested somewhere inside another repository does not.
    let commit = if std::path::Path::new(".git").exists() {
        first_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".into()
    };
    format!(
        "# host: nproc={nproc} pool_threads={} PIM_THREADS={} rustc=\"{}\" cpu=\"{cpu}\" commit={}",
        pim_repro::runtime::global().threads(),
        std::env::var("PIM_THREADS").unwrap_or_else(|_| "unset".into()),
        first_line("rustc", &["-V"]),
        commit,
    )
}

/// Renders the result line. Every metric of `list` must be present and
/// finite, and nothing else may be.
pub fn render_json(
    out: &Outcome,
    list: &[(&'static str, &'static str)],
    correct: bool,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in list {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    if let Some((extra, _)) = out.metrics.iter().find(|(n, _)| !list.iter().any(|(m, _)| m == n)) {
        return Err(format!("metric {extra} is not in the metric list"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The pooled workloads run `nproc` client threads already. Unless the
    // caller chose otherwise, the library's own pool runs inline on each
    // client, so the process keeps `nproc` busy threads instead of
    // oversubscribing the cores with a second pool (numerics are
    // bit-identical for every pool size). Set before the pool's first use.
    let set_threads = args.workload != "paper_flow" && std::env::var_os("PIM_THREADS").is_none();
    if set_threads {
        std::env::set_var("PIM_THREADS", "1");
    }
    println!("{}", host_record());
    if set_threads {
        println!("# PIM_THREADS=1 set by the benchmark: its nproc client threads run the kernels");
    }
    println!(
        "# workload={} seed={} workload_seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.workload_seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (out, list) = match workloads::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, value) in &out.metrics {
        let unit = list.iter().find(|(n, _)| n == name).map_or("?", |(_, u)| u);
        println!("{name:<32} {value:>16.6} {unit}");
    }
    for p in out.problems.iter().take(20) {
        println!("# CORRECTNESS: {p}");
    }
    let correct = out.problems.is_empty();
    match render_json(&out, list, correct) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{END_TO_END, PER_LAYER};

    /// A minimal JSON reader, enough to check the result line.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }

    fn parse(text: &str) -> Json {
        fn ws(s: &[u8], i: &mut usize) {
            while *i < s.len() && s[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn string(s: &[u8], i: &mut usize) -> String {
            assert_eq!(s[*i], b'"');
            *i += 1;
            let start = *i;
            while s[*i] != b'"' {
                assert_ne!(s[*i], b'\\', "escapes are not expected");
                *i += 1;
            }
            *i += 1;
            String::from_utf8(s[start..*i - 1].to_vec()).unwrap()
        }
        fn value(s: &[u8], i: &mut usize) -> Json {
            ws(s, i);
            match s[*i] {
                b'{' | b'[' => {
                    let obj = s[*i] == b'{';
                    *i += 1;
                    let (mut fields, mut items) = (Vec::new(), Vec::new());
                    loop {
                        ws(s, i);
                        if s[*i] == b'}' || s[*i] == b']' {
                            *i += 1;
                            break;
                        }
                        if obj {
                            let k = string(s, i);
                            ws(s, i);
                            assert_eq!(s[*i], b':');
                            *i += 1;
                            fields.push((k, value(s, i)));
                        } else {
                            items.push(value(s, i));
                        }
                        ws(s, i);
                        if s[*i] == b',' {
                            *i += 1;
                        }
                    }
                    if obj {
                        Json::Obj(fields)
                    } else {
                        Json::Arr(items)
                    }
                }
                b'"' => Json::Str(string(s, i)),
                b't' => {
                    *i += 4;
                    Json::Bool(true)
                }
                b'f' => {
                    *i += 5;
                    Json::Bool(false)
                }
                _ => {
                    let start = *i;
                    while *i < s.len() && b"+-.eE0123456789".contains(&s[*i]) {
                        *i += 1;
                    }
                    Json::Num(std::str::from_utf8(&s[start..*i]).unwrap().parse().unwrap())
                }
            }
        }
        let bytes = text.as_bytes();
        let mut i = 0;
        let v = value(bytes, &mut i);
        ws(bytes, &mut i);
        assert_eq!(i, bytes.len(), "trailing input");
        v
    }

    fn outcome(list: &[(&'static str, &'static str)]) -> Outcome {
        Outcome {
            attempted: 7,
            failed: 0,
            metrics: list
                .iter()
                .enumerate()
                .map(|(i, &(n, _))| (n, 0.1 + i as f64 / 3.0))
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn result_line_parses_and_carries_every_metric_with_its_unit() {
        for list in [END_TO_END, PER_LAYER] {
            let out = outcome(list);
            let line = render_json(&out, list, true).unwrap();
            let json = parse(&line);
            let keys: Vec<&str> = match &json {
                Json::Obj(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("not an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(json.get("attempted"), Some(&Json::Num(7.0)));
            let metrics = json.get("metrics").unwrap();
            for (i, &(name, unit)) in list.iter().enumerate() {
                let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit"), Some(&Json::Str(unit.into())));
                // All digits survive: the value reads back bit for bit.
                let want = 0.1 + i as f64 / 3.0;
                assert_eq!(m.get("value"), Some(&Json::Num(want)));
            }
        }
    }

    #[test]
    fn missing_extra_or_non_finite_metrics_are_refused() {
        let mut out = outcome(END_TO_END);
        out.metrics.pop();
        assert!(render_json(&out, END_TO_END, true).is_err());
        let mut out = outcome(END_TO_END);
        out.metrics.push(("bogus", 1.0));
        assert!(render_json(&out, END_TO_END, true).is_err());
        let mut out = outcome(END_TO_END);
        out.metrics[0].1 = f64::NAN;
        assert!(render_json(&out, END_TO_END, true).is_err());
    }

    /// The metric lists in the code and in `BENCHMARK.json` agree, name for
    /// name and unit for unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to benchmark/"));
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(items)) = json.get(key) else { panic!("{key} missing") };
            let declared: Vec<(String, String)> = items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("malformed {key} entry"),
                })
                .collect();
            let code: Vec<(String, String)> =
                list.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
            assert_eq!(declared, code, "{key}");
        }
        let Some(Json::Arr(workloads)) = json.get("workloads") else { panic!("workloads missing") };
        let names: Vec<&Json> = workloads.iter().filter_map(|w| w.get("name")).collect();
        for w in workloads::NAMES {
            assert!(names.contains(&&Json::Str((*w).into())), "{w} not in BENCHMARK.json");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let ok = a("--workload fit_batch --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.trace, ok.workload_seed), (3, true, 0));
        assert_eq!(
            a("--workload x --seed 1 --seconds 1 --trace 0 --workload-seed 4")
                .unwrap()
                .workload_seed,
            4
        );
        assert!(a("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(a("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(a("--workload x --seed 1 --trace 0").is_err());
        assert!(a("--workload x --seed 1 --seconds 1 --trace 0 --bogus 1").is_err());
    }
}
