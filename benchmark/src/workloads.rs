//! The workloads, their correctness gates and the metric definitions.
//!
//! * `paper_flow` — one op is `Pipeline::report` on `ScenarioPreset::Paper`
//!   with `ScenarioPreset::Paper.flow_config()`. Serial closed loop of at
//!   least two ops, compared bit for bit. No seed.
//! * `corpus_small` — one op is one board of `pim_bench::corpus_smoke_config`
//!   through `Corpus::run_with`, yielding a verdict. At least two whole
//!   passes over a 32-board list on an `nproc`-thread pool
//!   (`ThreadPool::par_map`, as `Corpus::run_with` schedules a seed list).
//! * `fit_batch` — one op runs the sensitivity, fit(standard), fit(weighted)
//!   and weighting-model stages on one default-`CorpusConfig` board. Whole
//!   passes over a 128-board list on an `nproc`-thread pool.

use crate::replay::{self, candidates, model_bits, Expected, Kernels, ReplayCase};
use crate::stats::{median, tail};
use crate::trace::{total_self_time, OpTrace, StageRecorder};
use crate::{Args, Outcome};
use pim_repro::core_flow::{
    CoreError, Corpus, CorpusClass, CorpusConfig, CorpusVerdict, FitKind, FlowConfig, FlowReport,
    Pipeline, ScenarioPreset, SensitivityWeightedNorm, Stage,
};
use pim_repro::passivity::enforce::EnforcementConfig;
use pim_repro::passivity::norm::{NormBuilder, NormKind, StandardNorm};
use pim_repro::passivity::PassivityError;
use pim_repro::pdn::TerminationNetwork;
use pim_repro::rfdata::NetworkData;
use pim_repro::runtime::ThreadPool;
use pim_repro::statespace::PoleResidueModel;
use pim_repro::vectfit::SensitivityModel;
use std::time::Instant;

pub const NAMES: &[&str] = &["paper_flow", "corpus_small", "fit_batch"];

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("certified_frac", "ratio"),
    ("zpdn_err", "ratio"),
    ("zpdn_gain", "x"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. Times and counts are per op;
/// `check.*`, `constraints.*`, `qp.*` and `norm.build_s` are replayed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuit.build_s", "s"),
    ("pdn.sensitivity_s", "s"),
    ("vectfit.fit_standard_s", "s"),
    ("vectfit.fit_weighted_s", "s"),
    ("vectfit.magnitude_s", "s"),
    ("check.assess_s", "s"),
    ("check.assess_calls", "count"),
    ("check.eig_s", "s"),
    ("check.eig_dim", "count"),
    ("check.sweep_s", "s"),
    ("check.grid_points", "count"),
    ("constraints.build_s", "s"),
    ("constraints.rows", "count"),
    ("qp.solve_s", "s"),
    ("qp.sweeps", "count"),
    ("qp.capped_frac", "ratio"),
    ("enforce.weighted_s", "s"),
    ("enforce.standard_s", "s"),
    ("enforce.iterations_weighted", "count"),
    ("enforce.iterations_standard", "count"),
    ("enforce.backtrack_frac", "ratio"),
    ("norm.build_s", "s"),
    ("recovery.s", "s"),
    ("recovery.rungs", "count"),
    ("recovery.wasted_iter_frac", "ratio"),
    ("evaluation.s", "s"),
    ("runtime.threads", "count"),
    ("runtime.utilisation", "ratio"),
];

/// Input builds per run: at least this many, and more until
/// [`SETUP_BUDGET_S`] is spent (at most [`SETUP_MAX_REPEATS`]); `setup_s`
/// is their median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 200;
/// `paper_flow` ops per untraced run, whatever `--seconds` says, so
/// repeated ops can be compared bit for bit.
const PAPER_MIN_OPS: usize = 2;
/// `corpus_small` passes per untraced run: each board's latency is sampled
/// twice, which steadies the median and tail of a 32-board list.
const CORPUS_MIN_PASSES: usize = 2;
/// Boards per `corpus_small` list.
const CORPUS_BOARDS: u64 = 32;
/// Boards per `fit_batch` list.
const FIT_BOARDS: u64 = 128;

type Metrics = &'static [(&'static str, &'static str)];

/// Runs the workload named in `args`; returns the outcome and the metric
/// list it fills.
pub fn run(args: &Args) -> Result<(Outcome, Metrics), String> {
    let out = match args.workload.as_str() {
        "paper_flow" => paper_flow(args)?,
        "corpus_small" => corpus_small(args)?,
        "fit_batch" => fit_batch(args)?,
        other => return Err(format!("unknown workload {other}; expected one of {NAMES:?}")),
    };
    Ok((out, if args.trace { PER_LAYER } else { END_TO_END }))
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(text)?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Builds the inputs repeatedly (see [`SETUP_MIN_REPEATS`]); returns the
/// last build and the median build time.
fn setup<T>(build: impl Fn() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        let built = build()?;
        times.push(secs(t));
        let spent: f64 = times.iter().sum();
        if times.len() >= SETUP_MAX_REPEATS
            || (times.len() >= SETUP_MIN_REPEATS && spent >= SETUP_BUDGET_S)
        {
            return Ok((built, median(&times)));
        }
    }
}

/// Latencies and counts of one closed-loop phase.
#[derive(Debug, Default)]
struct Phase {
    /// Latencies of the ops that passed their checks.
    latencies: Vec<f64>,
    attempted: usize,
    failed: usize,
    /// Summed latency of every op, failed ones included.
    busy: f64,
    wall: f64,
    threads: usize,
    problems: Vec<String>,
}

impl Phase {
    fn record(&mut self, latency: f64, checked: Result<(), String>) {
        self.attempted += 1;
        self.busy += latency;
        match checked {
            Ok(()) => self.latencies.push(latency),
            Err(e) => {
                self.failed += 1;
                self.problems.push(e);
            }
        }
    }

    fn utilisation(&self) -> f64 {
        self.busy / (self.wall * self.threads as f64)
    }

    /// The end-to-end timing metrics plus their sample notes.
    fn timing_metrics(&self, out: &mut Outcome) {
        let t = tail(&self.latencies);
        out.metrics.push(("ops_per_s", self.attempted as f64 / self.wall));
        out.metrics.push(("op_p50_s", median(&self.latencies)));
        out.metrics.push(("op_tail_s", t.value));
        out.notes.push(format!(
            "{} ops attempted, {} failed, {:.3} s wall on {} client thread(s); \
             op_tail_s is p{} of {} ops ({} beyond it)",
            self.attempted, self.failed, self.wall, self.threads, t.percentile, t.samples, t.beyond
        ));
    }
}

/// Another op or pass (each taking `unit` seconds on average) is started
/// only while it would end nearer to `seconds` than stopping now would, so
/// a run holds the same whole number of units from run to run.
fn another(elapsed: f64, unit: f64, seconds: f64) -> bool {
    elapsed + 0.5 * unit < seconds
}

/// Closed loop on the calling thread: ops run back to back for about
/// `seconds` (see [`another`]), at least `min_ops` of them. `check` sees
/// every result outside the op's timed span.
fn serial_phase<R>(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut() -> R,
    mut check: impl FnMut(R) -> Result<(), String>,
) -> Phase {
    let mut phase = Phase { threads: 1, ..Default::default() };
    let start = Instant::now();
    while phase.attempted < min_ops
        || another(secs(start), secs(start) / phase.attempted as f64, seconds)
    {
        let t = Instant::now();
        let result = op();
        let latency = secs(t);
        phase.wall = secs(start);
        phase.record(latency, check(result));
    }
    phase
}

/// Closed loop on `pool`: whole passes of `op` over `items` (each pool
/// thread runs its share back to back) for about `seconds` (see
/// [`another`]), at least `min_passes` (and at least one). `check` sees
/// every result with its item index, between passes and outside the
/// measured wall time.
fn pool_phase<T: Sync, R: Send>(
    pool: &ThreadPool,
    items: &[T],
    seconds: f64,
    min_passes: usize,
    op: impl Fn(&T) -> R + Sync,
    mut check: impl FnMut(usize, R) -> Result<(), String>,
) -> Phase {
    let mut phase = Phase { threads: pool.threads(), ..Default::default() };
    let mut pass = 0;
    while pass < min_passes.max(1) || another(phase.wall, phase.wall / pass as f64, seconds) {
        let t = Instant::now();
        let results = pool.par_map(items, |_, item| {
            let t = Instant::now();
            let r = op(item);
            (secs(t), r)
        });
        phase.wall += secs(t);
        for (i, (latency, r)) in results.into_iter().enumerate() {
            phase.record(latency, check(i, r));
        }
        pass += 1;
    }
    phase
}

fn nproc_pool() -> ThreadPool {
    ThreadPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The corpus certification gate applied to a flow report.
struct Gate {
    certified: bool,
    /// Target-impedance error of the delivered weighted passive model.
    weighted: f64,
    /// The standard baseline's error; `None` when its enforcement diverged.
    standard: Option<f64>,
}

/// σ_max ≤ 1 + tol on the contract's 16× audit grid AND weighted beats
/// standard — the same rule `Corpus` classifies by.
fn gate(report: &FlowReport, sigma_tolerance: f64) -> Result<Gate, String> {
    let audit = report.contract.as_ref().ok_or("the flow ran without its contract audit")?;
    let weighted = report.weighted_passive_eval.impedance_relative_error;
    let standard = match (&report.weighted_enforcement, &report.standard_passive_eval) {
        (_, Some(eval)) => Some(eval.impedance_relative_error),
        (None, None) => Some(report.standard_model_eval.impedance_relative_error),
        (Some(_), None) => None,
    };
    if !weighted.is_finite() || standard.is_some_and(|s| !s.is_finite()) {
        return Err(format!("non-finite target-impedance error ({weighted}, {standard:?})"));
    }
    let certified =
        audit.audit_sigma_max <= 1.0 + sigma_tolerance && standard.is_none_or(|s| weighted < s);
    Ok(Gate { certified, weighted, standard })
}

/// Inputs to replay a flow's primary enforcements.
struct EnforcementInputs {
    model: PoleResidueModel,
    weighting: SensitivityModel,
    band_max_omega: f64,
    config: EnforcementConfig,
    weighted: Option<Expected>,
    standard: Option<Expected>,
}

/// One traced `Pipeline::report`.
struct TracedFlow {
    trace: OpTrace,
    result: Result<FlowReport, CoreError>,
    inputs: Option<EnforcementInputs>,
}

fn traced_flow(
    data: &NetworkData,
    network: &TerminationNetwork,
    port: usize,
    config: &FlowConfig,
    id: u64,
    origin: Instant,
) -> Result<TracedFlow, String> {
    let mut recorder = StageRecorder::new(origin);
    let start = origin.elapsed().as_secs_f64();
    let mut pipeline = Pipeline::from_data(data, network, port, config.clone())
        .map_err(text)?
        .with_observer(&mut recorder);
    let result = pipeline.report();
    let end = origin.elapsed().as_secs_f64();
    // The enforcement inputs are cached artifacts once the flow reached
    // enforcement (Ok or a diverged enforcement), so fetching them runs no
    // stage and leaves the trace alone.
    let reached_enforcement =
        matches!(result, Ok(_) | Err(CoreError::Passivity(PassivityError::NotConverged { .. })));
    let artifacts = if reached_enforcement {
        let model = pipeline.fit(FitKind::Weighted).map_err(text)?.result.model;
        let weighting = pipeline.weighting_model().map_err(text)?;
        let band_max_omega = pipeline.assess().map_err(text)?.band_max_omega;
        Some((model, weighting, band_max_omega))
    } else {
        None
    };
    drop(pipeline);
    let expected = |kind: NormKind| {
        recorder.find(Stage::Enforcement(kind)).map(|r| {
            let delivered = match (&result, kind) {
                (Ok(rep), NormKind::Standard) => rep.standard_enforcement.as_ref(),
                (Ok(rep), _) => rep.weighted_enforcement.as_ref(),
                (Err(_), _) => None,
            };
            Expected {
                iterations: r.iterations.clone(),
                model: if r.failed { None } else { delivered.map(|o| o.model.clone()) },
            }
        })
    };
    let inputs = artifacts.map(|(model, weighting, band_max_omega)| EnforcementInputs {
        model,
        weighting,
        band_max_omega,
        config: config.enforcement.clone(),
        weighted: expected(NormKind::SensitivityWeighted),
        standard: expected(NormKind::Standard),
    });
    Ok(TracedFlow { trace: OpTrace { id, start, end, stages: recorder.stages }, result, inputs })
}

/// Replays the primary weighted and standard enforcements of one flow.
fn replay_flow(inputs: &EnforcementInputs, kernels: &mut Kernels) -> Result<bool, String> {
    let weighted_norm = SensitivityWeightedNorm::new(inputs.weighting.clone());
    let mut identical = true;
    let norms: [(&Option<Expected>, &dyn NormBuilder); 2] =
        [(&inputs.weighted, &weighted_norm), (&inputs.standard, &StandardNorm)];
    for (expected, norm) in norms {
        if let Some(expected) = expected {
            let r = replay::replay(&ReplayCase {
                model: &inputs.model,
                norm,
                band_max_omega: inputs.band_max_omega,
                config: &inputs.config,
                expected: expected.clone(),
            })?;
            kernels.add(&r.kernels);
            identical &= r.identical;
        }
    }
    Ok(identical)
}

/// Everything a traced run measured, turned into [`PER_LAYER`].
struct Layers<'a> {
    ops: &'a [OpTrace],
    kernels: &'a Kernels,
    replayed_ops: usize,
    circuit_build_s: f64,
    untraced: &'a Phase,
}

fn layer_metrics(l: &Layers<'_>, out: &mut Outcome) {
    let n = l.ops.len().max(1) as f64;
    let stage_s = |stage: Stage| total_self_time(l.ops, |s| s == stage.to_string()) / n;
    let records = || l.ops.iter().flat_map(|o| &o.stages);
    let iterations = |stage: Stage| {
        records().filter(|r| r.stage == stage).map(|r| r.iterations.len()).sum::<usize>() as f64 / n
    };
    let (mut tried, mut rejected) = (0, 0);
    for r in records().filter(|r| matches!(r.stage, Stage::Enforcement(_))) {
        for e in &r.iterations {
            tried += candidates(e.step);
            rejected += candidates(e.step) - 1;
        }
    }
    let enforcing =
        || records().filter(|r| matches!(r.stage, Stage::Enforcement(_) | Stage::Recovery(_)));
    let all_iterations: usize = enforcing().map(|r| r.iterations.len()).sum();
    let wasted: usize = enforcing().filter(|r| r.failed).map(|r| r.iterations.len()).sum();
    let k = l.kernels;
    let m = l.replayed_ops.max(1) as f64;
    let weighted = Stage::Enforcement(NormKind::SensitivityWeighted);
    let standard = Stage::Enforcement(NormKind::Standard);
    out.metrics.extend([
        ("circuit.build_s", l.circuit_build_s),
        ("pdn.sensitivity_s", stage_s(Stage::Sensitivity)),
        ("vectfit.fit_standard_s", stage_s(Stage::Fit(FitKind::Standard))),
        ("vectfit.fit_weighted_s", stage_s(Stage::Fit(FitKind::Weighted))),
        ("vectfit.magnitude_s", stage_s(Stage::WeightingModel)),
        ("check.assess_s", k.assess_s / m),
        ("check.assess_calls", k.assess_calls as f64 / m),
        ("check.eig_s", k.eig_s / m),
        ("check.eig_dim", ratio(k.eig_dim_sum, k.assess_calls)),
        ("check.sweep_s", (k.assess_s - k.eig_s).max(0.0) / m),
        ("check.grid_points", k.grid_points as f64 / m),
        ("constraints.build_s", k.constraints_s / m),
        ("constraints.rows", k.constraint_rows as f64 / m),
        ("qp.solve_s", k.qp_s / m),
        ("qp.sweeps", k.qp_sweeps as f64 / m),
        ("qp.capped_frac", ratio(k.qp_capped, k.qp_solves)),
        ("enforce.weighted_s", stage_s(weighted)),
        ("enforce.standard_s", stage_s(standard)),
        ("enforce.iterations_weighted", iterations(weighted)),
        ("enforce.iterations_standard", iterations(standard)),
        ("enforce.backtrack_frac", ratio(rejected, tried)),
        ("norm.build_s", k.norm_build_s / m),
        ("recovery.s", total_self_time(l.ops, |s| s.starts_with("recovery(")) / n),
        (
            "recovery.rungs",
            records().filter(|r| matches!(r.stage, Stage::Recovery(_))).count() as f64 / n,
        ),
        ("recovery.wasted_iter_frac", ratio(wasted, all_iterations)),
        ("evaluation.s", stage_s(Stage::Evaluation)),
        ("runtime.threads", l.untraced.threads as f64),
        ("runtime.utilisation", l.untraced.utilisation()),
    ]);
}

/// Notes of a traced run: tracing overhead, the replay verdict for the
/// given number of replayed flows, and the replayed perturbation time (no
/// per-layer metric of its own) per op.
fn trace_notes(
    out: &mut Outcome,
    ops: &[OpTrace],
    untraced: &Phase,
    traced: &Phase,
    replay: Option<(bool, usize, f64)>,
) {
    let span = |start: f64, end: f64| end - start;
    if let Some(op) =
        ops.iter().max_by(|a, b| span(a.start, a.end).total_cmp(&span(b.start, b.end)))
    {
        let longest =
            op.stages.iter().max_by(|a, b| span(a.start, a.end).total_cmp(&span(b.start, b.end)));
        out.notes.push(format!(
            "slowest traced op: id {} took {:.6} s, longest stage {}",
            op.id,
            span(op.start, op.end),
            longest.map_or("none".into(), |r| format!("{} {:.6} s", r.stage, span(r.start, r.end)))
        ));
    }
    let (u, t) = (median(&untraced.latencies), median(&traced.latencies));
    out.notes.push(format!(
        "tracing overhead: op_p50_s traced {t:.6} - untraced {u:.6} = {:+.6} s ({} vs {} ops)",
        t - u,
        traced.latencies.len(),
        untraced.latencies.len()
    ));
    match replay {
        Some((identical, flows, perturb_s)) => out.notes.push(format!(
            "replayed enforcements of {flows} flow(s): bit-identical to the pipeline: {identical}; \
             check.*, constraints.*, qp.*, norm.build_s are replayed kernel times; \
             replayed apply_perturbation {perturb_s:.6} s per op"
        )),
        None => out.notes.push("no enforcement in this workload: nothing to replay".into()),
    }
}

/// Merges a phase's counts and problems into the outcome.
fn absorb(out: &mut Outcome, phase: &mut Phase) {
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    out.problems.append(&mut phase.problems);
}

fn paper_flow(args: &Args) -> Result<Outcome, String> {
    let (scenario, setup_s) = setup(|| ScenarioPreset::Paper.build().map_err(text))?;
    let config = ScenarioPreset::Paper.flow_config();
    let tol = config.contract.sigma_tolerance;
    let mut out = Outcome::default();
    out.notes.push("paper_flow has no seed: every op runs the same Paper scenario".into());

    // Every op must deliver the first op's model bit for bit and pass the gate.
    let mut first: Option<Vec<u64>> = None;
    let mut gates = Vec::new();
    let mut check = |result: &Result<FlowReport, CoreError>| -> Result<(), String> {
        let report = result.as_ref().map_err(|e| format!("Pipeline::report failed: {e}"))?;
        let g = gate(report, tol)?;
        let bits = model_bits(report.final_model());
        if *first.get_or_insert_with(|| bits.clone()) != bits {
            return Err("a repeated op delivered a different model".into());
        }
        let certified = g.certified;
        gates.push(g);
        if certified {
            Ok(())
        } else {
            Err("the delivered model failed the certification gate".into())
        }
    };
    let op = || Pipeline::from_scenario(&scenario, config.clone()).and_then(|mut p| p.report());

    if !args.trace {
        let mut phase = serial_phase(args.seconds, PAPER_MIN_OPS, op, |r| check(&r));
        phase.timing_metrics(&mut out);
        out.notes.push(format!("op latencies in order: {:.3?} s", phase.latencies));
        absorb(&mut out, &mut phase);
        let g = gates.first().ok_or("no op delivered a report")?;
        out.metrics.push(("setup_s", setup_s));
        out.metrics.push((
            "certified_frac",
            ratio(gates.iter().filter(|g| g.certified).count(), out.attempted),
        ));
        out.metrics.push(("zpdn_err", g.weighted));
        out.metrics
            .push(("zpdn_gain", g.standard.ok_or("the standard baseline diverged")? / g.weighted));
        out.metrics.push(("peak_rss_mb", peak_rss_mb()?));
        return Ok(out);
    }

    let mut untraced = serial_phase(args.seconds / 2.0, 1, op, |r| check(&r));
    let origin = Instant::now();
    let mut flows = Vec::new();
    let mut next_id = 0;
    let mut traced = serial_phase(
        args.seconds / 2.0,
        1,
        || {
            next_id += 1;
            traced_flow(
                &scenario.data,
                &scenario.network,
                scenario.observation_port,
                &config,
                next_id - 1,
                origin,
            )
        },
        |r| {
            let flow = r?;
            let checked = check(&flow.result);
            flows.push((flow.trace, flow.inputs));
            checked
        },
    );
    let mut kernels = Kernels::default();
    let inputs = flows.first().and_then(|f| f.1.as_ref()).ok_or("the traced op did not enforce")?;
    let identical = replay_flow(inputs, &mut kernels)?;
    if !identical {
        out.problems.push("the replayed enforcement differs from the pipeline's".into());
    }
    let ops: Vec<OpTrace> = flows.into_iter().map(|f| f.0).collect();
    layer_metrics(
        &Layers {
            ops: &ops,
            kernels: &kernels,
            replayed_ops: 1,
            circuit_build_s: setup_s,
            untraced: &untraced,
        },
        &mut out,
    );
    trace_notes(&mut out, &ops, &untraced, &traced, Some((identical, 1, kernels.perturb_s)));
    absorb(&mut out, &mut untraced);
    absorb(&mut out, &mut traced);
    Ok(out)
}

/// A verdict must be internally consistent; a `Failed` one (the flow
/// errored outright) is a failed op. `Adverse` and `Diverged` are verdicts
/// the corpus exists to report.
fn check_verdict(v: &CorpusVerdict, sigma_tolerance: f64) -> Result<(), String> {
    match v.class {
        CorpusClass::Failed => Err(format!("seed {}: the flow failed: {}", v.seed, v.detail)),
        CorpusClass::Certified => {
            let audit_ok = v.audit_sigma_max.is_some_and(|s| s <= 1.0 + sigma_tolerance);
            let beats = match (v.weighted_error, v.standard_error) {
                (Some(w), Some(s)) => w.is_finite() && w < s,
                (Some(w), None) => w.is_finite(),
                (None, _) => false,
            };
            if audit_ok && beats {
                Ok(())
            } else {
                Err(format!("seed {}: a certified verdict fails the gate: {v:?}", v.seed))
            }
        }
        CorpusClass::Adverse | CorpusClass::Diverged => Ok(()),
    }
}

fn corpus_small(args: &Args) -> Result<Outcome, String> {
    let config = pim_bench::corpus_smoke_config();
    let seeds: Vec<u64> =
        (0..CORPUS_BOARDS).map(|i| args.workload_seed * CORPUS_BOARDS + i).collect();
    let case = |seed: u64| {
        let case = Corpus::case(&config, seed).map_err(text)?;
        let (_pdn, data, network, port) = case.assemble().map_err(text)?;
        let mut flow = case.flow.clone();
        // As `CorpusCase::classify` does: the contract audit sweeps the
        // certification gate's grid.
        flow.contract.audit_multiplier = case.audit_multiplier;
        flow.contract.sigma_tolerance = case.sigma_tolerance;
        Ok::<_, String>((data, network, port, flow))
    };
    let ((), setup_s) = setup(|| seeds.iter().try_for_each(|&s| case(s).map(drop)))?;
    let pool = nproc_pool();
    let serial = ThreadPool::new(1);
    let mut out = Outcome::default();
    out.notes.push(format!(
        "corpus_small boards: smoke-config seeds {}..{} (workload seed {}); the run seed does not change them",
        seeds[0],
        seeds[seeds.len() - 1] + 1,
        args.workload_seed
    ));

    let tol = config.sigma_tolerance;
    // First-pass verdicts by list position; later passes must repeat them.
    let mut first: Vec<Option<CorpusVerdict>> = Vec::new();
    let mut check = |i: usize, v: Option<CorpusVerdict>| -> Result<(), String> {
        if i == first.len() {
            first.push(v.clone());
        } else if first[i] != v {
            return Err(format!("seed {}: a repeated op changed its verdict", seeds[i]));
        }
        check_verdict(&v.ok_or("Corpus::run_with returned no verdict")?, tol)
    };
    let op = |&seed: &u64| Corpus::run_with(&serial, &config, &[seed]).pop();

    let (seconds, min_passes) =
        if args.trace { (args.seconds / 2.0, 1) } else { (args.seconds, CORPUS_MIN_PASSES) };
    let mut untraced = pool_phase(&pool, &seeds, seconds, min_passes, op, &mut check);
    if !args.trace {
        untraced.timing_metrics(&mut out);
        let verdicts: Vec<&CorpusVerdict> = first.iter().flatten().collect();
        let count = |c: CorpusClass| verdicts.iter().filter(|v| v.class == c).count();
        let errors: Vec<f64> = verdicts.iter().filter_map(|v| v.weighted_error).collect();
        let gains: Vec<f64> =
            verdicts.iter().filter_map(|v| Some(v.standard_error? / v.weighted_error?)).collect();
        out.notes.push(format!(
            "verdicts per pass: {} certified, {} adverse, {} diverged, {} failed; \
             failed_frac (errored, diverged or failed verdict) = {:.4}",
            count(CorpusClass::Certified),
            count(CorpusClass::Adverse),
            count(CorpusClass::Diverged),
            count(CorpusClass::Failed),
            ratio(
                seeds.len() - count(CorpusClass::Certified) - count(CorpusClass::Adverse),
                seeds.len()
            )
        ));
        out.metrics.push(("setup_s", setup_s));
        out.metrics.push(("certified_frac", ratio(count(CorpusClass::Certified), seeds.len())));
        out.metrics.push(("zpdn_err", median(&errors)));
        out.metrics.push(("zpdn_gain", median(&gains)));
        out.metrics.push(("peak_rss_mb", peak_rss_mb()?));
        absorb(&mut out, &mut untraced);
        return Ok(out);
    }

    // Traced: the same classification, run as `CorpusCase::classify` runs
    // it but through a pipeline carrying the stage recorder, and held
    // against the untraced verdict.
    let origin = Instant::now();
    let traced_op = |&seed: &u64| -> Result<TracedFlow, String> {
        let start = origin.elapsed().as_secs_f64();
        let (data, network, port, flow) = case(seed)?;
        let mut traced = traced_flow(&data, &network, port, &flow, seed, origin)?;
        traced.trace.start = start;
        Ok(traced)
    };
    let mut flows = Vec::new();
    let mut traced = pool_phase(&pool, &seeds, args.seconds / 2.0, 1, traced_op, |i, r| {
        let (flow, seed) = (r?, seeds[i]);
        let (class, weighted) = match &flow.result {
            Ok(report) => {
                let g = gate(report, tol)?;
                (
                    if g.certified { CorpusClass::Certified } else { CorpusClass::Adverse },
                    Some(g.weighted),
                )
            }
            Err(CoreError::Passivity(PassivityError::NotConverged { .. })) => {
                (CorpusClass::Diverged, None)
            }
            Err(e) => return Err(format!("seed {seed}: the flow failed: {e}")),
        };
        let untraced = first[i].as_ref().ok_or("no untraced verdict")?;
        if untraced.class != class
            || untraced.weighted_error.map(f64::to_bits) != weighted.map(f64::to_bits)
        {
            return Err(format!("seed {seed}: the traced flow disagrees with Corpus::run_with"));
        }
        if flows.len() < seeds.len() {
            flows.push((flow.trace, flow.inputs));
        }
        Ok(())
    });
    let mut kernels = Kernels::default();
    let mut identical = true;
    let mut replayed = 0;
    for inputs in flows.iter().filter_map(|f| f.1.as_ref()) {
        identical &= replay_flow(inputs, &mut kernels)?;
        replayed += 1;
    }
    if !identical {
        out.problems.push("a replayed enforcement differs from the pipeline's".into());
    }
    let ops: Vec<OpTrace> = flows.into_iter().map(|f| f.0).collect();
    layer_metrics(
        &Layers {
            ops: &ops,
            kernels: &kernels,
            replayed_ops: ops.len(),
            circuit_build_s: setup_s,
            untraced: &untraced,
        },
        &mut out,
    );
    let perturb_s = kernels.perturb_s / ops.len().max(1) as f64;
    trace_notes(&mut out, &ops, &untraced, &traced, Some((identical, replayed, perturb_s)));
    absorb(&mut out, &mut untraced);
    absorb(&mut out, &mut traced);
    Ok(out)
}

/// One `fit_batch` input: a generated board's data and terminations.
struct Board {
    seed: u64,
    data: NetworkData,
    network: TerminationNetwork,
    port: usize,
}

/// What one `fit_batch` op delivers.
struct Fits {
    standard: PoleResidueModel,
    weighted: PoleResidueModel,
    rms: [f64; 2],
}

fn fit_op(
    board: &Board,
    flow: &FlowConfig,
    recorder: Option<&mut StageRecorder>,
) -> Result<Fits, CoreError> {
    let mut p = Pipeline::from_data(&board.data, &board.network, board.port, flow.clone())?;
    if let Some(r) = recorder {
        p = p.with_observer(r);
    }
    p.sensitivity()?;
    let standard = p.fit(FitKind::Standard)?.result;
    let weighted = p.fit(FitKind::Weighted)?.result;
    p.weighting_model()?;
    Ok(Fits {
        rms: [standard.rms_error, weighted.rms_error],
        standard: standard.model,
        weighted: weighted.model,
    })
}

/// Finite fit errors and left-half-plane poles.
fn check_fits(seed: u64, fits: &Fits) -> Result<(), String> {
    if fits.rms.iter().any(|e| !e.is_finite()) {
        return Err(format!("board {seed}: non-finite fit error {:?}", fits.rms));
    }
    for m in [&fits.standard, &fits.weighted] {
        if let Some(p) = m.poles().iter().find(|p| p.re.is_nan() || p.re >= 0.0) {
            return Err(format!(
                "board {seed}: pole {} + {}j is not in the left half-plane",
                p.re, p.im
            ));
        }
    }
    Ok(())
}

/// A seeded permutation of `0..n` (SplitMix64-driven Fisher–Yates).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

fn fit_batch(args: &Args) -> Result<Outcome, String> {
    let config = CorpusConfig::default();
    let seeds: Vec<u64> = (0..FIT_BOARDS).map(|i| args.workload_seed * FIT_BOARDS + i).collect();
    let (boards, setup_s) = setup(|| {
        seeds
            .iter()
            .map(|&seed| {
                let case = Corpus::case(&config, seed).map_err(text)?;
                let (_pdn, data, network, port) = case.assemble().map_err(text)?;
                Ok(Board { seed, data, network, port })
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let order: Vec<&Board> =
        shuffled(boards.len(), args.seed).into_iter().map(|i| &boards[i]).collect();
    let pool = nproc_pool();
    let flow = &config.flow;
    let mut out = Outcome::default();
    out.notes.push(format!(
        "fit_batch boards: default-CorpusConfig seeds {}..{} (workload seed {}), visited in run-seed order",
        seeds[0],
        seeds[seeds.len() - 1] + 1,
        args.workload_seed
    ));

    // First-pass weighted-fit bits by position in `order` (later passes
    // must repeat them) and the first-pass fits for the quality metrics.
    let mut first_bits: Vec<Option<Vec<u64>>> = Vec::new();
    let mut kept: Vec<(usize, Fits)> = Vec::new();
    let mut check = |i: usize, r: Result<Fits, CoreError>| -> Result<(), String> {
        let seed = order[i].seed;
        let bits = r.as_ref().ok().map(|f| model_bits(&f.weighted));
        let repeat = i < first_bits.len();
        if !repeat {
            first_bits.push(bits);
        } else if first_bits[i] != bits {
            return Err(format!("board {seed}: a repeated op delivered a different weighted fit"));
        }
        let fits = r.map_err(|e| format!("board {seed}: {e}"))?;
        check_fits(seed, &fits)?;
        if !repeat {
            kept.push((i, fits));
        }
        Ok(())
    };
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut untraced = pool_phase(&pool, &order, seconds, 1, |b| fit_op(b, flow, None), &mut check);

    if !args.trace {
        untraced.timing_metrics(&mut out);
        absorb(&mut out, &mut untraced);
        // Quality outside the timed span: target-impedance error of both fits.
        let errors = pool.par_map(&kept, |_, (i, fits)| -> Result<[f64; 2], String> {
            let b = order[*i];
            let mut p =
                Pipeline::from_data(&b.data, &b.network, b.port, flow.clone()).map_err(text)?;
            let s = p.evaluate(&fits.standard).map_err(text)?.impedance_relative_error;
            let w = p.evaluate(&fits.weighted).map_err(text)?.impedance_relative_error;
            if s.is_finite() && w.is_finite() {
                Ok([s, w])
            } else {
                Err(format!("board {}: non-finite target-impedance error", b.seed))
            }
        });
        let errors: Vec<[f64; 2]> = errors.into_iter().collect::<Result<_, _>>()?;
        let weighted: Vec<f64> = errors.iter().map(|e| e[1]).collect();
        let gains: Vec<f64> = errors.iter().map(|e| e[0] / e[1]).collect();
        out.metrics.push(("setup_s", setup_s));
        out.metrics.push(("certified_frac", ratio(untraced.latencies.len(), untraced.attempted)));
        out.metrics.push(("zpdn_err", median(&weighted)));
        out.metrics.push(("zpdn_gain", median(&gains)));
        out.metrics.push(("peak_rss_mb", peak_rss_mb()?));
        out.notes.push(
            "certified_frac here: ops whose fits pass the fit gate (finite errors, stable poles)"
                .into(),
        );
        return Ok(out);
    }

    let origin = Instant::now();
    let traced_op = |b: &&Board| {
        let mut recorder = StageRecorder::new(origin);
        let start = origin.elapsed().as_secs_f64();
        let r = fit_op(b, flow, Some(&mut recorder));
        let end = origin.elapsed().as_secs_f64();
        (OpTrace { id: b.seed, start, end, stages: recorder.stages }, r)
    };
    let mut ops = Vec::new();
    let mut traced = pool_phase(&pool, &order, seconds, 1, traced_op, |i, (trace, r)| {
        ops.push(trace);
        check(i, r)
    });
    layer_metrics(
        &Layers {
            ops: &ops,
            kernels: &Kernels::default(),
            replayed_ops: 0,
            circuit_build_s: setup_s,
            untraced: &untraced,
        },
        &mut out,
    );
    trace_notes(&mut out, &ops, &untraced, &traced, None);
    absorb(&mut out, &mut untraced);
    absorb(&mut out, &mut traced);
    Ok(out)
}
