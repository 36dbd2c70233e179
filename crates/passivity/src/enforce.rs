//! The iterative passivity enforcement loop (eq. 9 of the paper).
//!
//! Each iteration locates the passivity violations of the current model
//! (Hamiltonian test + singular-value sweep), linearizes the local
//! constraints at the violation frequencies, solves the Gramian-weighted
//! quadratic program for the smallest perturbation of the output matrix that
//! removes the violations to first order, and applies it. The loop repeats
//! until the model is passive or the iteration budget is exhausted.
//!
//! The perturbation norm is supplied by the caller through
//! [`PerturbationNorm`]: the plain controllability Gramians give the standard
//! L2 enforcement of eq. (10)–(11), while the sensitivity-weighted Gramians of
//! eq. (19)–(21) (built by `pim-core`) give the paper's method.

use crate::check::{assess_with_sampling, PassivityReport};
use crate::constraints::{apply_perturbation, build_constraints, ConstraintSystem};
use crate::grid::{Adaptive, SamplingStrategy};
use crate::qp::{solve_block_qp_factored, BlockQpFactors, QpOptions};
use crate::{NotConvergedDiagnostics, PassivityError, Result};
use pim_linalg::svd::svd;
use pim_linalg::{Complex64, Mat};
use pim_statespace::gramian::element_gramian;
use pim_statespace::{PoleResidueModel, StateSpace};
use std::sync::Arc;

/// The per-element quadratic forms defining the perturbation norm
/// `‖δS‖² = Σ_e δc_e G_e δc_eᵀ`.
#[derive(Debug, Clone)]
pub struct PerturbationNorm {
    /// One Gramian per matrix element, in row-major element order
    /// (`(i, j) → i·P + j`), each `N × N`.
    gramians: Vec<Mat>,
    ports: usize,
    states: usize,
}

impl PerturbationNorm {
    /// Builds a norm from explicit per-element Gramians (row-major element
    /// order, each `N × N` where `N` is the model order).
    ///
    /// # Errors
    ///
    /// Returns [`PassivityError::InvalidInput`] when the number or the size
    /// of the blocks is inconsistent.
    pub fn from_gramians(gramians: Vec<Mat>, ports: usize, states: usize) -> Result<Self> {
        if gramians.len() != ports * ports {
            return Err(PassivityError::InvalidInput(format!(
                "expected {} Gramian blocks, got {}",
                ports * ports,
                gramians.len()
            )));
        }
        if gramians.iter().any(|g| g.shape() != (states, states)) {
            return Err(PassivityError::InvalidInput(format!(
                "every Gramian block must be {states}x{states}"
            )));
        }
        Ok(PerturbationNorm { gramians, ports, states })
    }

    /// The standard (unweighted) L2 norm of eq. (10): every element is
    /// weighted by the plain controllability Gramian of the shared
    /// per-element realization.
    ///
    /// # Errors
    ///
    /// Propagates realization and Lyapunov failures.
    pub fn standard(model: &PoleResidueModel) -> Result<Self> {
        let ports = model.ports();
        let element = StateSpace::from_pole_residue_element(model, 0, 0)?;
        let p = element_gramian(&element).map_err(PassivityError::StateSpace)?;
        let states = element.order();
        Ok(PerturbationNorm { gramians: vec![p; ports * ports], ports, states })
    }

    /// The Gramian blocks (row-major element order).
    pub fn gramians(&self) -> &[Mat] {
        &self.gramians
    }

    /// Number of ports the norm was built for.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// States per element.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Evaluates the norm `Σ_e δc_e G_e δc_eᵀ` of a stacked perturbation
    /// vector (diagnostic helper).
    ///
    /// # Errors
    ///
    /// Returns [`PassivityError::InvalidInput`] on a length mismatch.
    pub fn evaluate(&self, delta: &[f64]) -> Result<f64> {
        if delta.len() != self.ports * self.ports * self.states {
            return Err(PassivityError::InvalidInput(format!(
                "perturbation vector has {} entries, expected {}",
                delta.len(),
                self.ports * self.ports * self.states
            )));
        }
        let mut total = 0.0;
        for (e, g) in self.gramians.iter().enumerate() {
            let seg = &delta[e * self.states..(e + 1) * self.states];
            let gs = g.matvec(seg)?;
            total += seg.iter().zip(&gs).map(|(a, b)| a * b).sum::<f64>();
        }
        Ok(total)
    }
}

// The trust-region step controller of the enforcement loop.
//
// The linearized QP can produce wildly overshooting `δC` steps on
// ill-conditioned norms (the corpus divergence family). Once
// `ACTIVATE_AFTER` *consecutive* backtracking steps have bottomed out at the
// minimum fraction while `σ_max` still grew, the controller engages: it
// bounds `‖δC‖` by a radius, then grows or shrinks the radius from the ratio
// of the actual to the linearly predicted `σ_max` reduction. Healthy runs —
// where at most isolated bottomed-out steps occur — never activate it and
// stay bit-identical to the uncontrolled loop; backtracking remains the
// inner fallback either way.

/// Consecutive bottomed-out-and-grew steps before the trust region engages.
/// Must stay below [`EnforcementConfig::divergence_guard`] for the
/// controller to pre-empt the guard.
const ACTIVATE_AFTER: usize = 2;
/// Reduction ratios at or above this grow the radius (when the step was
/// radius-limited and taken in full).
const ETA_GOOD: f64 = 0.75;
/// Reduction ratios below this shrink the radius.
const ETA_BAD: f64 = 0.25;
/// Radius growth factor on good steps.
const GROW: f64 = 2.0;
/// Radius shrink factor on bad steps (also scales the engagement radius from
/// the last bottomed-out step).
const SHRINK: f64 = 0.25;
/// Radius floor, as a fraction of the engagement radius. At the floor the
/// divergence guard regains authority.
const MIN_RADIUS_SCALE: f64 = 1e-6;

/// Configuration of the enforcement loop.
#[derive(Debug, Clone)]
pub struct EnforcementConfig {
    /// Maximum number of outer perturbation iterations.
    pub max_iterations: usize,
    /// Safety margin below one imposed on the constrained singular values
    /// (the constraints read `σ + δσ ≤ 1 − margin`).
    pub sigma_margin: f64,
    /// Singular values above this threshold are constrained at every
    /// violation frequency (keeping slightly sub-unit singular values under
    /// control improves convergence).
    pub sigma_threshold: f64,
    /// Number of points of the baseline singular-value sweep.
    pub sweep_points: usize,
    /// Additional constraint frequencies per violation band beyond the peak
    /// (band edges and midpoints).
    pub band_edge_constraints: bool,
    /// The sampling strategy that builds the working sweep, the convergence
    /// double-check grid and the final verification grid, and refines every
    /// per-iteration assessment (see [`crate::grid`]). The default
    /// [`Adaptive`] chases sub-grid violation bands.
    pub sampling: Arc<dyn SamplingStrategy>,
    /// The divergence guard: a streak of this many *consecutive* iterations
    /// in which backtracking bottomed out at the minimum step **and** the
    /// worst singular value still grew — the signature of a diverging
    /// enforcement (the dense-decap boards of the ROADMAP note) — ends the
    /// loop with [`PassivityError::NotConverged`] carrying the best model
    /// seen so far. `0` disables the guard.
    ///
    /// The same streak engages the trust-region step controller after two
    /// such steps. A guard of 1 therefore fires as soon as one step bottoms
    /// out and grows. From 2 on, the controller engages first, and the guard
    /// fires only once the radius sits at its floor while the streak is
    /// still at or above this value; as long as the radius stays above its
    /// floor, only convergence or the iteration budget ends the loop.
    pub divergence_guard: usize,
    /// Options of the inner quadratic program.
    pub qp: QpOptions,
}

impl Default for EnforcementConfig {
    fn default() -> Self {
        EnforcementConfig {
            max_iterations: 30,
            sigma_margin: 1e-4,
            sigma_threshold: 0.999,
            sweep_points: 400,
            band_edge_constraints: true,
            sampling: Arc::new(Adaptive),
            divergence_guard: 3,
            qp: QpOptions::default(),
        }
    }
}

/// Snapshot of one outer enforcement iteration, delivered to an
/// [`EnforcementObserver`] right after the iteration's perturbation is
/// accepted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnforcementIteration {
    /// 1-based index of the iteration within the loop.
    pub iteration: usize,
    /// Worst singular value that triggered this iteration (before the
    /// perturbation).
    pub sigma_before: f64,
    /// Worst singular value of the accepted perturbed model, measured on the
    /// working sweep grid.
    pub sigma_after: f64,
    /// Backtracking step fraction actually taken (1.0 = full step).
    pub step: f64,
    /// Perturbation norm `‖δS‖²` added by this iteration.
    pub norm_increment: f64,
    /// Number of linearized singular-value constraints in the QP.
    pub constraints: usize,
    /// Number of points of the refined working grid this iteration's
    /// assessment swept: the baseline plus the points [`Adaptive`] derives
    /// from the iterate's Hamiltonian crossings and bisects toward sub-grid
    /// features.
    pub grid_points: usize,
}

/// Per-iteration observer hook of the enforcement loop.
///
/// Implementations receive one [`EnforcementIteration`] per outer iteration;
/// the hook is purely observational — it cannot alter the loop, and every
/// observer produces bit-identical models. Unobserved callers pass `&mut ()`.
pub trait EnforcementObserver {
    /// Called once per outer iteration, after the perturbation is applied.
    fn on_enforcement_iteration(&mut self, event: &EnforcementIteration);

    /// Called once per outer iteration, right after
    /// [`EnforcementObserver::on_enforcement_iteration`], with the accepted
    /// perturbed model itself. Default no-op; implement it to snapshot
    /// intermediate models (the Fig. 5 anomaly diagnostic re-assesses them
    /// on denser grids than the working sweep).
    fn on_iteration_model(&mut self, iteration: usize, model: &PoleResidueModel) {
        let _ = (iteration, model);
    }
}

/// The no-op observer of unobserved enforcement runs.
impl EnforcementObserver for () {
    fn on_enforcement_iteration(&mut self, _event: &EnforcementIteration) {}
}

/// What the robustness machinery did during a run: whether the trust region
/// engaged and how often it clipped, plus the adaptive QP damping state.
/// All-zero / disengaged on healthy runs — which is exactly the bit-identity
/// guarantee of the fixtures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RobustnessInfo {
    /// Whether the trust-region controller engaged at any point.
    pub trust_region_engaged: bool,
    /// Number of iterations whose `δC` was clipped to the radius.
    pub trust_region_clips: usize,
    /// Radius at the end of the run, when engaged.
    pub final_radius: Option<f64>,
    /// Largest relative Tikhonov λ the adaptive QP damping applied.
    pub qp_lambda_max: f64,
    /// Largest post-damping Gramian condition estimate.
    pub qp_condition_max: f64,
    /// Number of Gramian blocks whose damping was escalated above the base.
    pub qp_damped_blocks: usize,
}

/// Result of a passivity enforcement run.
#[derive(Debug, Clone)]
pub struct EnforcementOutcome {
    /// The final (passive, unless the loop gave up) macromodel.
    pub model: PoleResidueModel,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Worst singular value after each iteration (starting with the initial
    /// model).
    pub sigma_max_history: Vec<f64>,
    /// Accumulated perturbation norm `Σ ‖δS‖²` over all iterations.
    pub accumulated_norm: f64,
    /// Final passivity report.
    pub report: PassivityReport,
    /// Trust-region / adaptive-damping activity of the run.
    pub robustness: RobustnessInfo,
}

/// Enforces asymptotic passivity by clipping the singular values of the
/// constant (feedthrough) term `D` to `limit`.
///
/// The perturbation loop only adjusts the output matrix `C`, which cannot
/// change the `ω → ∞` behaviour; if the fitted `D` is even marginally
/// non-contractive the loop could never terminate. This step removes such
/// violations up front with a minimal (spectral-norm optimal) correction of
/// `D`.
///
/// # Errors
///
/// Returns [`PassivityError::InvalidInput`] for a non-positive limit and
/// propagates SVD failures.
pub fn enforce_asymptotic_passivity(
    model: &PoleResidueModel,
    limit: f64,
) -> Result<PoleResidueModel> {
    if !(limit > 0.0) {
        return Err(PassivityError::InvalidInput("the feedthrough limit must be positive".into()));
    }
    let decomposition = svd(&model.d().to_complex())?;
    if decomposition.sigma_max() <= limit {
        return Ok(model.clone());
    }
    let p = model.ports();
    let mut clipped = pim_linalg::CMat::zeros(p, p);
    for (idx, &sigma) in decomposition.singular_values.iter().enumerate() {
        let s = sigma.min(limit);
        // audit:allow(float-eq): exact-zero shift means the eigenvalue is already on the boundary
        if s == 0.0 {
            continue;
        }
        let u = &decomposition.u;
        let v = &decomposition.v;
        for i in 0..p {
            for j in 0..p {
                clipped[(i, j)] += u[(i, idx)] * v[(j, idx)].conj() * Complex64::from_real(s);
            }
        }
    }
    let d_new = clipped.real();
    Ok(PoleResidueModel::new(model.poles().to_vec(), model.residues().to_vec(), d_new)?)
}

/// Runs the iterative perturbation loop until the model is passive,
/// reporting every outer iteration to `observer` (pass `&mut ()` to run
/// unobserved; numerics are identical either way).
///
/// The asymptotic term is clipped first (see
/// [`enforce_asymptotic_passivity`]); the loop then perturbs only the
/// residues / output matrix as in the paper.
///
/// # Errors
///
/// Returns [`PassivityError::NotConverged`] when the iteration budget is
/// exhausted, and propagates numerical failures of the inner steps.
pub fn enforce_passivity_observed(
    model: &PoleResidueModel,
    norm: &PerturbationNorm,
    band_max_omega: f64,
    config: &EnforcementConfig,
    observer: &mut dyn EnforcementObserver,
) -> Result<EnforcementOutcome> {
    if norm.ports() != model.ports() || norm.states() != model.order() {
        return Err(PassivityError::InvalidInput(format!(
            "norm was built for a {}-port order-{} model, got {}-port order-{}",
            norm.ports(),
            norm.states(),
            model.ports(),
            model.order()
        )));
    }
    if !(band_max_omega > 0.0) {
        return Err(PassivityError::InvalidInput("band_max_omega must be positive".into()));
    }
    if config.sweep_points < 10 {
        return Err(PassivityError::InvalidInput("sweep_points must be at least 10".into()));
    }

    // All three grids of the loop come from the one sampling strategy: the
    // per-iteration working sweep, and the denser double-check grid that
    // also serves as the final verification sweep (narrow violation bands
    // can slip between the points of the working sweep).
    let strategy = config.sampling.as_ref();
    let pool = pim_runtime::global();
    let sweep = strategy.working_grid(band_max_omega, config.sweep_points);
    let verify_sweep = strategy.verification_grid(band_max_omega, config.sweep_points);

    let mut current = enforce_asymptotic_passivity(model, 1.0 - config.sigma_margin)?;
    let mut history = Vec::new();
    let mut accumulated_norm = 0.0;
    let mut iterations = 0;
    // Best-so-far (lowest worst singular value) model, handed back inside
    // `NotConverged` so a failed run still yields its most passive iterate.
    let mut best: Option<(f64, PoleResidueModel)> = None;
    // Consecutive bottomed-out-and-grew backtracking steps (the divergence
    // guard's trigger, and the trust-region engagement trigger).
    let mut bottomed_growth = 0usize;
    // Trust-region state: inactive (`None`) until `ACTIVATE_AFTER`
    // consecutive bottomed-out-and-grew steps; every float the loop produces
    // before activation is identical to the uncontrolled loop.
    let mut radius: Option<f64> = None;
    let mut radius_floor = 0.0_f64;
    let mut robustness = RobustnessInfo::default();
    let mut last_step = 1.0_f64;

    // Quantities that are invariant across the outer iterations: the
    // perturbation only moves residues, never poles, so the shared
    // per-element realization `(A_e, b_e)` used by the constraint
    // linearization is fixed, and so are the Gramian weights — factor them
    // once instead of re-running LU per iteration. Near-singular blocks get
    // adaptive Tikhonov damping (decayed as the iterate improves);
    // well-conditioned blocks factor bit-identically to the fixed path.
    let element = StateSpace::from_pole_residue_element(&current, 0, 0)?;
    let mut qp_factors = BlockQpFactors::new_adaptive(
        norm.gramians(),
        config.qp.regularization,
        config.qp.max_condition,
    )?;
    record_qp_state(&mut robustness, &qp_factors);

    macro_rules! not_converged {
        ($sigma:expr, $guard:expr, $tail_extra:expr) => {{
            let mut tail: Vec<f64> = history[history.len().saturating_sub(8)..].to_vec();
            if let Some(extra) = $tail_extra {
                tail.push(extra);
                if tail.len() > 8 {
                    tail.remove(0);
                }
            }
            PassivityError::NotConverged {
                iterations,
                sigma_max: $sigma,
                best: best.map(|(_, m)| Box::new(m)),
                diagnostics: Box::new(NotConvergedDiagnostics {
                    guard_triggered: $guard,
                    bottomed_out: bottomed_growth,
                    last_step,
                    sigma_tail: tail,
                    trust_region_engaged: robustness.trust_region_engaged,
                    trust_region_radius: radius,
                    qp_lambda_max: robustness.qp_lambda_max,
                    qp_condition_max: robustness.qp_condition_max,
                    best_sigma_max: None,
                }),
            }
        }};
    }

    loop {
        let mut report = assess_with_sampling(pool, &current, &sweep, strategy)?;
        if report.passive {
            // Verify on the dense grid before declaring success; fall back to
            // the dense report (with its violation bands) otherwise.
            let verification = assess_with_sampling(pool, &current, &verify_sweep, strategy)?;
            if verification.passive {
                history.push(verification.sigma_max);
                robustness.final_radius = radius;
                return Ok(EnforcementOutcome {
                    model: current,
                    iterations,
                    sigma_max_history: history,
                    accumulated_norm,
                    report: verification,
                    robustness,
                });
            }
            report = verification;
        }
        history.push(report.sigma_max);
        if best.as_ref().is_none_or(|(s, _)| report.sigma_max < *s) {
            best = Some((report.sigma_max, current.clone()));
        }
        if iterations >= config.max_iterations {
            return Err(not_converged!(report.sigma_max, false, None));
        }
        iterations += 1;

        // Constraint frequencies: violation-band peaks (and optionally edges
        // and midpoints), plus the Hamiltonian crossings themselves.
        let mut freqs: Vec<f64> = Vec::new();
        for band in &report.bands {
            freqs.push(band.omega_peak);
            if config.band_edge_constraints {
                freqs.push(band.omega_low);
                freqs.push(band.omega_high);
                freqs.push(0.5 * (band.omega_low + band.omega_high));
            }
        }
        for &w in &report.hamiltonian_crossings {
            freqs.push(w);
        }
        if freqs.is_empty() {
            // σ_max > 1 can also happen strictly at DC or at the asymptote.
            freqs.push(report.omega_at_sigma_max);
        }
        freqs.retain(|w| w.is_finite() && *w >= 0.0);
        freqs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        freqs.dedup_by(|a, b| (*a - *b).abs() <= 1e-9 * a.abs().max(1.0));

        let cons = build_constraints(
            &current,
            &element,
            &freqs,
            config.sigma_threshold,
            config.sigma_margin,
        )?;
        if cons.rows() == 0 {
            return Err(PassivityError::InvalidInput(
                "violations were detected but no constraint could be formed; \
                 lower sigma_threshold"
                    .into(),
            ));
        }
        let qp = solve_block_qp_factored(&qp_factors, &cons.f, &cons.g, &config.qp)?;

        let mut delta = qp.x;

        // Trust region (primary step control once engaged): bound ‖δC‖ by
        // the radius before the backtracking fallback sees the step.
        let delta_norm = delta.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut clipped = false;
        if let Some(r) = radius {
            if delta_norm > r && delta_norm > 0.0 {
                let scale = r / delta_norm;
                for v in &mut delta {
                    *v *= scale;
                }
                clipped = true;
                robustness.trust_region_clips += 1;
            }
        }
        let bounded_norm = if clipped { radius.unwrap_or(delta_norm) } else { delta_norm };

        // Backtracking safeguard: the constraints are linearized, so a full
        // step can overshoot (strong violations, strongly skewed norms) and
        // make the worst singular value larger. Halve the step until it no
        // longer degrades the violation (or give up and take the smallest
        // step, letting the next iteration re-linearize).
        let mut step = 1.0_f64;
        loop {
            let scaled: Vec<f64> = delta.iter().map(|v| v * step).collect();
            let candidate = apply_perturbation(&current, &scaled)?;
            let candidate_report = assess_with_sampling(pool, &candidate, &sweep, strategy)?;
            let candidate_sigma = candidate_report.sigma_max;
            if candidate_sigma <= report.sigma_max * (1.0 + 1e-9) || step <= 1.0 / 16.0 {
                let norm_increment = norm.evaluate(&scaled)?;
                accumulated_norm += norm_increment;
                observer.on_enforcement_iteration(&EnforcementIteration {
                    iteration: iterations,
                    sigma_before: report.sigma_max,
                    sigma_after: candidate_sigma,
                    step,
                    norm_increment,
                    constraints: cons.rows(),
                    grid_points: candidate_report.grid.len(),
                });
                observer.on_iteration_model(iterations, &candidate);
                // Divergence guard counter: backtracking bottomed out at the
                // minimum step and the violation still grew. One such step
                // happens in healthy runs (the next re-linearization
                // recovers); several in a row mean the linearized QP is
                // pushing the model the wrong way and iterating further
                // only inflates the perturbation.
                let grew = candidate_sigma > report.sigma_max * (1.0 + 1e-9);
                if step <= 1.0 / 16.0 && grew {
                    bottomed_growth += 1;
                } else {
                    bottomed_growth = 0;
                }
                last_step = step;
                let taken_norm = step * bounded_norm;

                // Radius update from the predicted-vs-actual σ_max
                // reduction of the accepted step.
                if let Some(r) = radius {
                    let predicted = predicted_sigma_max(&cons, &scaled, config.sigma_margin)?;
                    let actual_reduction = report.sigma_max - candidate_sigma;
                    let predicted_reduction = report.sigma_max - predicted;
                    let rho = if predicted_reduction > f64::EPSILON {
                        actual_reduction / predicted_reduction
                    } else if actual_reduction > 0.0 {
                        1.0
                    } else {
                        0.0
                    };
                    // audit:allow(float-eq): step is assigned the literal 1.0 on the unclipped path
                    let full_step = step == 1.0;
                    if rho < ETA_BAD {
                        radius = Some((taken_norm * SHRINK).max(radius_floor));
                    } else if rho >= ETA_GOOD && clipped && full_step {
                        radius = Some(r * GROW);
                    }
                    robustness.final_radius = radius;
                }

                // Engagement: enough consecutive bottomed-out-and-grew
                // steps mean backtracking alone is not controlling the
                // overshoot — bound the next steps below the one that just
                // failed.
                if radius.is_none() && bottomed_growth >= ACTIVATE_AFTER {
                    let engage = (taken_norm * SHRINK).max(1e-300);
                    radius = Some(engage);
                    radius_floor = engage * MIN_RADIUS_SCALE;
                    robustness.trust_region_engaged = true;
                    robustness.final_radius = radius;
                }

                // Adaptive damping decays once the iterate improves again,
                // so the converged perturbation is not biased by λ.
                if !grew && qp_factors.damped_blocks() > 0 {
                    qp_factors.decay(config.qp.lambda_decay)?;
                }
                record_qp_state(&mut robustness, &qp_factors);

                current = candidate;
                // The guard keeps final authority, but only once the trust
                // region is out of room (or was never engaged): at the
                // radius floor with σ_max still growing, more iterations
                // only inflate the perturbation.
                let at_floor = radius.is_none_or(|r| r <= radius_floor * (1.0 + 1e-12));
                if config.divergence_guard > 0
                    && bottomed_growth >= config.divergence_guard
                    && at_floor
                {
                    return Err(not_converged!(candidate_sigma, true, Some(candidate_sigma)));
                }
                break;
            }
            step *= 0.5;
        }
    }
}

/// Linear prediction of the worst constrained singular value after the step
/// `x`: `max_i (σ_i + (F·x)_i)` with `σ_i = 1 − margin − g_i` recovered from
/// the constraint right-hand side.
fn predicted_sigma_max(cons: &ConstraintSystem, x: &[f64], margin: f64) -> Result<f64> {
    let fx = cons.f.matvec(x)?;
    let mut worst = f64::NEG_INFINITY;
    for (gi, fxi) in cons.g.iter().zip(&fx) {
        worst = worst.max(1.0 - margin - gi + fxi);
    }
    Ok(worst)
}

/// Folds the current QP damping state into the run's [`RobustnessInfo`]
/// (maxima over the run; λ counts only when escalated above the base).
fn record_qp_state(robustness: &mut RobustnessInfo, factors: &BlockQpFactors) {
    robustness.qp_condition_max = robustness.qp_condition_max.max(factors.max_condition_estimate());
    robustness.qp_damped_blocks = robustness.qp_damped_blocks.max(factors.damped_blocks());
    if factors.damped_blocks() > 0 {
        robustness.qp_lambda_max =
            robustness.qp_lambda_max.max(factors.max_applied_regularization());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::sigma_max_at;
    use crate::grid::FrequencyGrid;
    use pim_linalg::{CMat, Complex64};
    use pim_rfdata::metrics::relative_rms_error;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// A 1-port with a mild localized violation near 1000 rad/s.
    fn violating_one_port() -> PoleResidueModel {
        let p = c(-50.0, 1000.0);
        let r = c(30.0, 12.0);
        PoleResidueModel::new(
            vec![p, p.conj()],
            vec![CMat::from_diag(&[r]), CMat::from_diag(&[r.conj()])],
            Mat::from_diag(&[0.85]),
        )
        .unwrap()
    }

    /// A symmetric 2-port with violations.
    fn violating_two_port() -> PoleResidueModel {
        let p = c(-60.0, 900.0);
        let r =
            CMat::from_fn(2, 2, |i, j| c(22.0 + 5.0 * (i + j) as f64, 8.0 - 2.0 * (i + j) as f64));
        PoleResidueModel::new(
            vec![p, p.conj(), c(-3000.0, 0.0)],
            vec![r.clone(), r.conj(), CMat::from_diag(&[c(120.0, 0.0), c(100.0, 0.0)])],
            Mat::from_fn(2, 2, |i, j| if i == j { 0.8 } else { 0.05 }),
        )
        .unwrap()
    }

    #[test]
    fn enforcement_produces_a_passive_one_port() {
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { sweep_points: 200, ..Default::default() };
        let out = enforce_passivity_observed(&model, &norm, 5000.0, &cfg, &mut ()).unwrap();
        assert!(out.report.passive);
        assert!(out.iterations >= 1 && out.iterations <= cfg.max_iterations);
        assert!(out.report.sigma_max <= 1.0 + 1e-9);
        // The perturbed model keeps the original poles.
        for (a, b) in model.poles().iter().zip(out.model.poles()) {
            assert_eq!(a, b);
        }
        // sigma_max history is non-increasing in its last step and starts >1.
        assert!(out.sigma_max_history[0] > 1.0);
        assert!(*out.sigma_max_history.last().unwrap() <= 1.0 + 1e-9);
        assert!(out.accumulated_norm > 0.0);
    }

    #[test]
    fn enforcement_changes_the_response_only_mildly() {
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { sweep_points: 200, ..Default::default() };
        let out = enforce_passivity_observed(&model, &norm, 5000.0, &cfg, &mut ()).unwrap();
        // Compare responses far from the violation: they must stay close.
        let omegas: Vec<f64> = (1..60).map(|k| k as f64 * 10.0).collect();
        let before: Vec<Complex64> =
            omegas.iter().map(|&w| model.evaluate_at_omega(w).unwrap()[(0, 0)]).collect();
        let after: Vec<Complex64> =
            omegas.iter().map(|&w| out.model.evaluate_at_omega(w).unwrap()[(0, 0)]).collect();
        let err = relative_rms_error(&before, &after).unwrap();
        assert!(err < 0.1, "relative deviation {err} too large");
    }

    #[test]
    fn enforcement_handles_two_port_and_preserves_symmetry() {
        let model = violating_two_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { sweep_points: 200, ..Default::default() };
        let out = enforce_passivity_observed(&model, &norm, 6000.0, &cfg, &mut ()).unwrap();
        assert!(out.report.passive);
    }

    #[test]
    fn already_passive_model_is_returned_unchanged() {
        let model = PoleResidueModel::new(
            vec![c(-100.0, 0.0)],
            vec![CMat::from_diag(&[c(40.0, 0.0)])],
            Mat::from_diag(&[0.2]),
        )
        .unwrap();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let out = enforce_passivity_observed(
            &model,
            &norm,
            1000.0,
            &EnforcementConfig::default(),
            &mut (),
        )
        .unwrap();
        assert_eq!(out.iterations, 0);
        assert!(out.report.passive);
        assert_eq!((out.accumulated_norm).to_bits(), 0.0f64.to_bits());
        for (a, b) in model.residues().iter().zip(out.model.residues()) {
            assert!(a.max_abs_diff(b) < 1e-15);
        }
    }

    #[test]
    fn iteration_budget_is_respected() {
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { max_iterations: 0, sweep_points: 100, ..Default::default() };
        match enforce_passivity_observed(&model, &norm, 5000.0, &cfg, &mut ()) {
            Err(PassivityError::NotConverged { iterations, sigma_max, best, diagnostics }) => {
                assert_eq!(iterations, 0);
                assert!(sigma_max > 1.0);
                // Even a zero-budget failure hands back its best iterate
                // (here the asymptotically clipped input model).
                let best = best.expect("best-so-far model present");
                assert_eq!(best.poles().len(), model.poles().len());
                // Budget exhaustion, not a guard trip — and the trajectory
                // tail carries the final sigma.
                assert!(!diagnostics.guard_triggered);
                assert_eq!(diagnostics.bottomed_out, 0);
                assert_eq!(*diagnostics.sigma_tail.last().unwrap(), sigma_max);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn observed_enforcement_is_bit_identical_and_reports_every_iteration() {
        struct Collect(Vec<EnforcementIteration>);
        impl EnforcementObserver for Collect {
            fn on_enforcement_iteration(&mut self, event: &EnforcementIteration) {
                self.0.push(*event);
            }
        }
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { sweep_points: 200, ..Default::default() };
        let plain = enforce_passivity_observed(&model, &norm, 5000.0, &cfg, &mut ()).unwrap();
        let mut obs = Collect(Vec::new());
        let observed = enforce_passivity_observed(&model, &norm, 5000.0, &cfg, &mut obs).unwrap();
        // Bit-identical outcome.
        assert_eq!(plain.iterations, observed.iterations);
        assert_eq!(plain.accumulated_norm.to_bits(), observed.accumulated_norm.to_bits());
        for (a, b) in plain.sigma_max_history.iter().zip(&observed.sigma_max_history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in plain.model.residues().iter().zip(observed.model.residues()) {
            assert_eq!((a.max_abs_diff(b)).to_bits(), 0.0f64.to_bits());
        }
        // One event per outer iteration, consistent with the outcome.
        assert_eq!(obs.0.len(), observed.iterations);
        let total: f64 = obs.0.iter().map(|e| e.norm_increment).sum();
        assert!((total - observed.accumulated_norm).abs() <= 1e-12 * observed.accumulated_norm);
        for (k, ev) in obs.0.iter().enumerate() {
            assert_eq!(ev.iteration, k + 1);
            assert_eq!(ev.sigma_before.to_bits(), observed.sigma_max_history[k].to_bits());
            assert!(ev.step > 0.0 && ev.step <= 1.0);
            assert!(ev.constraints >= 1);
        }
    }

    #[test]
    fn divergence_guard_returns_not_converged_with_the_best_model() {
        // A pathologically skewed norm: one residue direction is almost free
        // (Gramian eigenvalue ~1e-12), so the QP pushes enormous
        // perturbations along it, the linearization overshoots at every
        // step, and backtracking bottoms out while sigma_max keeps growing —
        // the divergence signature of the dense-decap boards.
        let model = violating_one_port();
        let g = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1e-12]]);
        let norm = PerturbationNorm::from_gramians(vec![g], 1, 2).unwrap();
        // Adaptive damping off, and a guard of 1: it fires on the first
        // bottomed-out-and-grew step, before the trust region can engage
        // (engaging takes two such steps), so this pins the pure guard
        // semantics (the rescue paths get their own tests below).
        let cfg = EnforcementConfig {
            sweep_points: 100,
            max_iterations: 40,
            divergence_guard: 1,
            qp: QpOptions { max_condition: f64::INFINITY, ..Default::default() },
            ..Default::default()
        };
        struct Steps(Vec<EnforcementIteration>);
        impl EnforcementObserver for Steps {
            fn on_enforcement_iteration(&mut self, ev: &EnforcementIteration) {
                self.0.push(*ev);
            }
        }
        let mut steps = Steps(Vec::new());
        match enforce_passivity_observed(&model, &norm, 5000.0, &cfg, &mut steps) {
            Err(PassivityError::NotConverged { iterations, sigma_max, best, diagnostics }) => {
                assert!(
                    iterations < cfg.max_iterations,
                    "the guard must trip before the budget ({iterations})"
                );
                assert!(sigma_max > 1.0);
                // The last `divergence_guard` accepted steps all bottomed
                // out and grew.
                let tail = &steps.0[steps.0.len() - cfg.divergence_guard..];
                for ev in tail {
                    assert!(ev.step <= 1.0 / 16.0, "guard step {}", ev.step);
                    assert!(ev.sigma_after > ev.sigma_before, "guard growth");
                }
                // The best-so-far model, re-assessed exactly as the loop
                // assessed its iterates (working grid + adaptive
                // refinement), is no worse than either the start or the
                // diverged end state.
                let best = best.expect("best model");
                let working = FrequencyGrid::enforcement_log(5000.0, cfg.sweep_points);
                let best_sigma = assess_with_sampling(
                    pim_runtime::global(),
                    &best,
                    &working,
                    cfg.sampling.as_ref(),
                )
                .unwrap()
                .sigma_max;
                let start_sigma = steps.0[0].sigma_before;
                assert!(
                    best_sigma <= sigma_max && best_sigma <= start_sigma,
                    "best-so-far ({best_sigma}) must be no worse than the start \
                     ({start_sigma}) or the diverged end state ({sigma_max})"
                );
                // The post-mortem names the guard, the bottomed-out streak
                // and the trajectory tail — and renders them in Display.
                assert!(diagnostics.guard_triggered);
                assert_eq!(diagnostics.bottomed_out, cfg.divergence_guard);
                assert!(diagnostics.last_step <= 1.0 / 16.0);
                assert!(!diagnostics.trust_region_engaged, "the guard pre-empts the trust region");
                assert!(!diagnostics.sigma_tail.is_empty());
                assert_eq!(*diagnostics.sigma_tail.last().unwrap(), sigma_max);
                let rendered = diagnostics.to_string();
                assert!(rendered.contains("divergence guard"), "{rendered}");
                assert!(rendered.contains("sigma tail"), "{rendered}");
            }
            Ok(out) => panic!(
                "the skewed norm should diverge, but converged in {} iterations",
                out.iterations
            ),
            Err(e) => panic!("expected NotConverged, got {e}"),
        }
        // With the guard disabled, the trust region engages but cannot
        // rescue the undamped norm: the loop burns the whole budget.
        let unguarded = EnforcementConfig { divergence_guard: 0, ..cfg.clone() };
        match enforce_passivity_observed(&model, &norm, 5000.0, &unguarded, &mut ()) {
            Err(PassivityError::NotConverged { iterations, diagnostics, .. }) => {
                assert_eq!(iterations, unguarded.max_iterations);
                assert!(diagnostics.trust_region_engaged);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn trust_region_and_damping_rescue_the_skewed_norm() {
        // The exact divergence regime of the guard test above — but with the
        // robustness machinery on (trust region + adaptive damping, the
        // defaults with a condition cap tight enough for this 1e12-condition
        // Gramian): the loop must now deliver a passive model instead of
        // tripping the guard.
        let model = violating_one_port();
        let g = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1e-12]]);
        let norm = PerturbationNorm::from_gramians(vec![g], 1, 2).unwrap();
        let cfg = EnforcementConfig {
            sweep_points: 100,
            max_iterations: 60,
            qp: QpOptions { max_condition: 1e6, ..Default::default() },
            ..Default::default()
        };
        let out = enforce_passivity_observed(&model, &norm, 5000.0, &cfg, &mut ())
            .expect("robust loop must converge where the legacy loop diverged");
        assert!(out.report.passive);
        assert!(out.report.sigma_max <= 1.0 + 1e-9);
        // The rescue actually exercised the new machinery.
        assert_eq!(out.robustness.qp_damped_blocks, 1);
        assert!(out.robustness.qp_lambda_max > cfg.qp.regularization);
        assert!(out.robustness.qp_condition_max <= 1e6 * (1.0 + 1e-9));
    }

    #[test]
    fn inactive_trust_region_is_bit_identical_to_the_legacy_loop() {
        // On a healthy run the trust region never engages and the adaptive
        // damping never escalates, so the default loop must reproduce the
        // loop without a damping cap bit for bit — the guarantee that pins
        // the committed fixtures.
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let robust = EnforcementConfig { sweep_points: 200, ..Default::default() };
        let legacy = EnforcementConfig {
            sweep_points: 200,
            qp: QpOptions { max_condition: f64::INFINITY, ..Default::default() },
            ..Default::default()
        };
        let a = enforce_passivity_observed(&model, &norm, 5000.0, &robust, &mut ()).unwrap();
        let b = enforce_passivity_observed(&model, &norm, 5000.0, &legacy, &mut ()).unwrap();
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.accumulated_norm.to_bits(), b.accumulated_norm.to_bits());
        for (x, y) in a.sigma_max_history.iter().zip(&b.sigma_max_history) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.model.residues().iter().zip(b.model.residues()) {
            assert_eq!((x.max_abs_diff(y)).to_bits(), 0.0f64.to_bits());
        }
        assert!(!a.robustness.trust_region_engaged);
        assert_eq!(a.robustness.trust_region_clips, 0);
        assert_eq!(a.robustness.qp_damped_blocks, 0);
    }

    #[test]
    fn norm_validation_and_evaluation() {
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        assert_eq!(norm.ports(), 1);
        assert_eq!(norm.states(), 2);
        assert_eq!(norm.gramians().len(), 1);
        let v = norm.evaluate(&[1.0, 0.0]).unwrap();
        assert!(v > 0.0);
        assert!(norm.evaluate(&[1.0]).is_err());
        assert!(PerturbationNorm::from_gramians(vec![Mat::identity(2)], 2, 2).is_err());
        assert!(PerturbationNorm::from_gramians(vec![Mat::identity(3)], 1, 2).is_err());
        // Mismatched norm vs model is rejected by the loop.
        let other = violating_two_port();
        assert!(enforce_passivity_observed(
            &other,
            &norm,
            100.0,
            &EnforcementConfig::default(),
            &mut ()
        )
        .is_err());
        assert!(enforce_passivity_observed(
            &model,
            &norm,
            -1.0,
            &EnforcementConfig::default(),
            &mut ()
        )
        .is_err());
        let bad_cfg = EnforcementConfig { sweep_points: 3, ..Default::default() };
        assert!(enforce_passivity_observed(&model, &norm, 100.0, &bad_cfg, &mut ()).is_err());
    }

    #[test]
    fn weighted_norm_changes_where_the_perturbation_lands() {
        // Weight element (0,0) enormously: the enforcement should prefer to
        // perturb it less than with the standard norm. We verify through the
        // low-frequency response deviation of the two passive models.
        let model = violating_two_port();
        let standard = PerturbationNorm::standard(&model).unwrap();
        let heavy = {
            let mut blocks = standard.gramians().to_vec();
            blocks[0] = blocks[0].scaled(100.0);
            PerturbationNorm::from_gramians(blocks, 2, 3).unwrap()
        };
        let cfg = EnforcementConfig { sweep_points: 150, max_iterations: 60, ..Default::default() };
        let out_std = enforce_passivity_observed(&model, &standard, 6000.0, &cfg, &mut ()).unwrap();
        let out_w = enforce_passivity_observed(&model, &heavy, 6000.0, &cfg, &mut ()).unwrap();
        assert!(out_std.report.passive && out_w.report.passive);
        let dev = |m: &PoleResidueModel| -> f64 {
            let mut acc: f64 = 0.0;
            for k in 1..40 {
                let w = k as f64 * 20.0;
                let a = m.evaluate_at_omega(w).unwrap()[(0, 0)];
                let b = model.evaluate_at_omega(w).unwrap()[(0, 0)];
                acc = acc.max((a - b).abs());
            }
            acc
        };
        assert!(
            dev(&out_w.model) <= dev(&out_std.model) + 1e-12,
            "heavily weighting element (0,0) must not increase its deviation"
        );
        let _ = sigma_max_at(&out_w.model, 900.0).unwrap();
        let probe = FrequencyGrid::from_omegas(&[0.0, 900.0]);
        let _ =
            assess_with_sampling(pim_runtime::global(), &out_w.model, &probe, &Adaptive).unwrap();
    }
}

#[cfg(test)]
mod asymptotic_tests {
    use super::*;
    use pim_linalg::svd::sigma_max;
    use pim_linalg::{CMat, Complex64};

    #[test]
    fn clipping_reduces_feedthrough_singular_values() {
        let model = PoleResidueModel::new(
            vec![Complex64::new(-100.0, 0.0)],
            vec![CMat::from_diag(&[Complex64::new(10.0, 0.0), Complex64::new(5.0, 0.0)])],
            Mat::from_rows(&[&[1.05, 0.2], &[0.2, 0.7]]),
        )
        .unwrap();
        let before = sigma_max(&model.d().to_complex()).unwrap();
        assert!(before > 1.0);
        let clipped = enforce_asymptotic_passivity(&model, 0.999).unwrap();
        let after = sigma_max(&clipped.d().to_complex()).unwrap();
        assert!(after <= 0.999 + 1e-9, "after {after}");
        // The smaller singular value and the residues are untouched.
        assert!(clipped.residues()[0].max_abs_diff(&model.residues()[0]) < 1e-15);
        // An already-contractive D passes through unchanged.
        let same = enforce_asymptotic_passivity(&clipped, 0.999).unwrap();
        assert!(same.d().max_abs_diff(clipped.d()) < 1e-12);
        assert!(enforce_asymptotic_passivity(&model, 0.0).is_err());
    }
}
