//! Kernel spans by replay.
//!
//! The enforcement loop runs inside the library, where the benchmark cannot
//! place spans. Instead it re-runs `enforce_passivity_observed` on the
//! pipeline's own artifacts, captures every iterate through
//! `on_iteration_model`, checks that the replay reproduces the pipeline bit
//! for bit, and then times each kernel once on each iterate's inputs,
//! scaled by the number of calls the loop made in that iteration. Every
//! figure from here is labelled "replayed".

use pim_repro::linalg::eig::eigenvalues;
use pim_repro::passivity::check::{assess_with_sampling, hamiltonian_matrix, PassivityReport};
use pim_repro::passivity::constraints::{apply_perturbation, build_constraints};
use pim_repro::passivity::enforce::{
    enforce_asymptotic_passivity, enforce_passivity_observed, EnforcementConfig,
    EnforcementIteration, EnforcementObserver,
};
use pim_repro::passivity::grid::FrequencyGrid;
use pim_repro::passivity::norm::NormBuilder;
use pim_repro::passivity::qp::{solve_block_qp_factored, BlockQpFactors};
use pim_repro::passivity::PassivityError;
use pim_repro::statespace::{PoleResidueModel, StateSpace};
use std::time::Instant;

/// Replayed kernel totals (seconds are call-count-scaled estimates).
#[derive(Debug, Clone, Default)]
pub struct Kernels {
    pub norm_build_s: f64,
    pub assess_s: f64,
    pub assess_calls: usize,
    pub eig_s: f64,
    pub eig_dim_sum: usize,
    pub grid_points: usize,
    pub constraints_s: f64,
    pub constraint_rows: usize,
    pub qp_s: f64,
    pub qp_sweeps: usize,
    pub qp_solves: usize,
    pub qp_capped: usize,
    pub perturb_s: f64,
}

impl Kernels {
    pub fn add(&mut self, o: &Kernels) {
        self.norm_build_s += o.norm_build_s;
        self.assess_s += o.assess_s;
        self.assess_calls += o.assess_calls;
        self.eig_s += o.eig_s;
        self.eig_dim_sum += o.eig_dim_sum;
        self.grid_points += o.grid_points;
        self.constraints_s += o.constraints_s;
        self.constraint_rows += o.constraint_rows;
        self.qp_s += o.qp_s;
        self.qp_sweeps += o.qp_sweeps;
        self.qp_solves += o.qp_solves;
        self.qp_capped += o.qp_capped;
        self.perturb_s += o.perturb_s;
    }
}

/// What the pipeline delivered for one enforcement, as observed.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The iterations the stage recorder filed under the enforcement stage.
    pub iterations: Vec<EnforcementIteration>,
    /// The delivered model; `None` when the enforcement did not converge.
    pub model: Option<PoleResidueModel>,
}

/// Everything needed to re-run one enforcement.
pub struct ReplayCase<'a> {
    pub model: &'a PoleResidueModel,
    pub norm: &'a dyn NormBuilder,
    pub band_max_omega: f64,
    pub config: &'a EnforcementConfig,
    pub expected: Expected,
}

/// Outcome of a replay: kernel totals and whether the replay delivered the
/// pipeline's iterations and model bit for bit.
pub struct Replay {
    pub kernels: Kernels,
    pub identical: bool,
}

#[derive(Default)]
struct Capture {
    events: Vec<EnforcementIteration>,
    models: Vec<PoleResidueModel>,
}

impl EnforcementObserver for Capture {
    fn on_enforcement_iteration(&mut self, event: &EnforcementIteration) {
        self.events.push(*event);
    }

    fn on_iteration_model(&mut self, _iteration: usize, model: &PoleResidueModel) {
        self.models.push(model.clone());
    }
}

/// Every float of a model as raw bits, for exact comparison.
pub fn model_bits(m: &PoleResidueModel) -> Vec<u64> {
    let mut bits: Vec<u64> =
        m.poles().iter().flat_map(|p| [p.re, p.im]).map(f64::to_bits).collect();
    for r in m.residues() {
        bits.extend(r.as_slice().iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]));
    }
    bits.extend(m.d().as_slice().iter().map(|v| v.to_bits()));
    bits
}

fn iteration_bits(e: &EnforcementIteration) -> [u64; 7] {
    [
        e.iteration as u64,
        e.sigma_before.to_bits(),
        e.sigma_after.to_bits(),
        e.step.to_bits(),
        e.norm_increment.to_bits(),
        e.constraints as u64,
        e.grid_points as u64,
    ]
}

/// Backtracking candidates the loop assessed to accept `step`: it halves the
/// step from 1, so the accepted step tells how many it tried.
pub fn candidates(step: f64) -> usize {
    (1.0 / step).log2().round() as usize + 1
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("replay {context}: {e}")
}

/// Constraint frequencies of one loop iteration, exactly as the loop forms
/// them from its assessment report.
fn constraint_frequencies(report: &PassivityReport, config: &EnforcementConfig) -> Vec<f64> {
    let mut freqs: Vec<f64> = Vec::new();
    for band in &report.bands {
        freqs.push(band.omega_peak);
        if config.band_edge_constraints {
            freqs.push(band.omega_low);
            freqs.push(band.omega_high);
            freqs.push(0.5 * (band.omega_low + band.omega_high));
        }
    }
    freqs.extend(&report.hamiltonian_crossings);
    if freqs.is_empty() {
        freqs.push(report.omega_at_sigma_max);
    }
    freqs.retain(|w| w.is_finite() && *w >= 0.0);
    freqs.sort_by(f64::total_cmp);
    freqs.dedup_by(|a, b| (*a - *b).abs() <= 1e-9 * a.abs().max(1.0));
    freqs
}

/// Times one assessment and one Hamiltonian eigensolve of `model` on
/// `grid` and books them `calls` times.
fn book_assessment(
    k: &mut Kernels,
    model: &PoleResidueModel,
    grid: &FrequencyGrid,
    config: &EnforcementConfig,
    calls: usize,
) -> Result<PassivityReport, String> {
    let t = Instant::now();
    let report =
        assess_with_sampling(pim_repro::runtime::global(), model, grid, config.sampling.as_ref())
            .map_err(|e| err("assessment", e))?;
    let assess = secs(t);
    let t = Instant::now();
    let sys = StateSpace::from_pole_residue(model).map_err(|e| err("realization", e))?;
    let h = hamiltonian_matrix(&sys).map_err(|e| err("hamiltonian", e))?;
    std::hint::black_box(eigenvalues(&h).map_err(|e| err("eigensolve", e))?);
    let eig = secs(t);
    k.assess_s += assess * calls as f64;
    k.eig_s += eig * calls as f64;
    k.assess_calls += calls;
    k.eig_dim_sum += h.rows() * calls;
    k.grid_points += report.grid.len() * calls;
    Ok(report)
}

/// Replays one enforcement: bit-identity check, then per-iterate kernel
/// timing.
pub fn replay(case: &ReplayCase<'_>) -> Result<Replay, String> {
    let cfg = case.config;
    let mut k = Kernels::default();

    let t = Instant::now();
    let norm = case.norm.build(case.model).map_err(|e| err("norm", e))?;
    k.norm_build_s = secs(t);

    let mut capture = Capture::default();
    let result =
        enforce_passivity_observed(case.model, &norm, case.band_max_omega, cfg, &mut capture);
    let same_events = capture.events.len() == case.expected.iterations.len()
        && capture
            .events
            .iter()
            .zip(&case.expected.iterations)
            .all(|(a, b)| iteration_bits(a) == iteration_bits(b));
    let (same_outcome, final_model, guard_fired) = match (&result, &case.expected.model) {
        (Ok(out), Some(m)) => (model_bits(&out.model) == model_bits(m), Some(&out.model), false),
        (Err(PassivityError::NotConverged { diagnostics, .. }), None) => {
            (true, None, diagnostics.guard_triggered)
        }
        _ => (false, None, false),
    };
    let identical = same_events && same_outcome;

    let sweep = cfg.sampling.working_grid(case.band_max_omega, cfg.sweep_points);
    let verify = cfg.sampling.verification_grid(case.band_max_omega, cfg.sweep_points);
    let start = enforce_asymptotic_passivity(case.model, 1.0 - cfg.sigma_margin)
        .map_err(|e| err("asymptotic clip", e))?;
    let element =
        StateSpace::from_pole_residue_element(&start, 0, 0).map_err(|e| err("element", e))?;
    let t = Instant::now();
    let mut factors =
        BlockQpFactors::new_adaptive(norm.gramians(), cfg.qp.regularization, cfg.qp.max_condition)
            .map_err(|e| err("qp factors", e))?;
    k.qp_s += secs(t);

    for (i, event) in capture.events.iter().enumerate() {
        let input = if i == 0 { &start } else { &capture.models[i - 1] };
        let candidates = candidates(event.step);
        let mut report = book_assessment(&mut k, input, &sweep, cfg, 1 + candidates)?;
        if report.passive {
            // Passive on the working grid but not on the verification grid.
            report = book_assessment(&mut k, input, &verify, cfg, 1)?;
        }
        let freqs = constraint_frequencies(&report, cfg);
        let t = Instant::now();
        let cons =
            build_constraints(input, &element, &freqs, cfg.sigma_threshold, cfg.sigma_margin)
                .map_err(|e| err("constraints", e))?;
        k.constraints_s += secs(t);
        k.constraint_rows += cons.rows();
        let t = Instant::now();
        let qp = solve_block_qp_factored(&factors, &cons.f, &cons.g, &cfg.qp)
            .map_err(|e| err("qp", e))?;
        k.qp_s += secs(t);
        k.qp_solves += 1;
        k.qp_sweeps += qp.iterations;
        k.qp_capped += usize::from(qp.iterations >= cfg.qp.max_iterations);
        let t = Instant::now();
        std::hint::black_box(apply_perturbation(input, &qp.x).map_err(|e| err("perturb", e))?);
        k.perturb_s += secs(t) * candidates as f64;
        // The loop relaxes adaptive QP damping after every step that did not
        // grow σ_max; follow it so the next solve sees the loop's factors.
        let grew = event.sigma_after > event.sigma_before * (1.0 + 1e-9);
        if !grew && factors.damped_blocks() > 0 {
            factors.decay(cfg.qp.lambda_decay).map_err(|e| err("qp decay", e))?;
        }
    }
    // The loop's last pass: a converged run assesses the final model on the
    // working and the verification grid; a budget-exhausted run assesses
    // its last iterate once; a guard-stopped run returns straight from the
    // iteration.
    match final_model {
        Some(m) => {
            book_assessment(&mut k, m, &sweep, cfg, 1)?;
            book_assessment(&mut k, m, &verify, cfg, 1)?;
        }
        None if !guard_fired => {
            let last = capture.models.last().unwrap_or(&start);
            book_assessment(&mut k, last, &sweep, cfg, 1)?;
        }
        None => {}
    }
    Ok(Replay { kernels: k, identical })
}
