//! Passivity assessment: Hamiltonian eigenvalue test and singular-value
//! sweeps.

use crate::grid::{FrequencyGrid, SamplingStrategy};
use crate::{PassivityError, Result};
use pim_linalg::eig::eigenvalues;
use pim_linalg::lu::inverse;
use pim_linalg::svd::{singular_values, svd};
use pim_linalg::Mat;
use pim_statespace::{PoleResidueModel, StateSpace};

/// A frequency band over which at least one singular value of the scattering
/// matrix exceeds one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViolationBand {
    /// Lower edge of the band (rad/s).
    pub omega_low: f64,
    /// Upper edge of the band (rad/s).
    pub omega_high: f64,
    /// Frequency of the worst violation inside the band (rad/s).
    pub omega_peak: f64,
    /// Largest singular value inside the band.
    pub sigma_peak: f64,
}

/// Summary of a passivity assessment.
#[derive(Debug, Clone)]
pub struct PassivityReport {
    /// `true` when no violation was found by either test.
    pub passive: bool,
    /// Worst singular value found over the sweep.
    pub sigma_max: f64,
    /// Frequency (rad/s) at which the worst singular value occurs.
    pub omega_at_sigma_max: f64,
    /// Violation bands identified by the sweep.
    pub bands: Vec<ViolationBand>,
    /// Frequencies (rad/s) of unit-singular-value crossings reported by the
    /// Hamiltonian eigenvalue test.
    pub hamiltonian_crossings: Vec<f64>,
    /// The frequency grid the sweep actually ran on: the base grid plus
    /// every point the sampling strategy added.
    pub grid: FrequencyGrid,
}

/// Builds the Hamiltonian matrix associated with the scattering state-space
/// model (reference \[14\] of the paper). Its purely imaginary eigenvalues are
/// the frequencies at which a singular value of `S(jω)` crosses one.
///
/// The assembly exploits the 2×2 block structure of the Hamiltonian,
///
/// ```text
/// M = [ A11   A12 ]      A11 = A − B·R⁻¹·Dᵀ·C,   A12 = −B·R⁻¹·Bᵀ,
///     [ A21  −A11ᵀ]      A21 = Cᵀ·S⁻¹·C,
/// ```
///
/// with `R = DᵀD − I` and `S = DDᵀ − I` both symmetric: the lower-right
/// block is the negated transpose of the upper-left one and is filled by a
/// copy instead of a second `N×N` matrix-product chain, and the blocks are
/// written straight into the `2N×2N` result. The three `N×N`-output
/// products run on the [`pim_runtime::global`] pool's column-panel kernel
/// ([`Mat::par_matmul_into`]), which is bit-identical to the serial one.
///
/// # Errors
///
/// Returns [`PassivityError::InvalidInput`] when `DᵀD − I` is singular (a
/// singular value of the feedthrough matrix equals one, a degenerate
/// boundary case).
pub fn hamiltonian_matrix(sys: &StateSpace) -> Result<Mat> {
    let p = sys.outputs();
    if sys.inputs() != p {
        return Err(PassivityError::InvalidInput(
            "the Hamiltonian passivity test requires a square (P x P) transfer matrix".into(),
        ));
    }
    let n = sys.order();
    let a = sys.a();
    let b = sys.b();
    let c = sys.c();
    let d = sys.d();
    let dt = d.transpose();
    let dtd = dt.matmul(d)?;
    let ddt = d.matmul(&dt)?;
    let r = &dtd - &Mat::identity(p);
    let s = &ddt - &Mat::identity(p);
    let r_inv = inverse(&r).map_err(|_| {
        PassivityError::InvalidInput(
            "DᵀD − I is singular: a feedthrough singular value equals one".into(),
        )
    })?;
    let s_inv = inverse(&s).map_err(|_| {
        PassivityError::InvalidInput(
            "DDᵀ − I is singular: a feedthrough singular value equals one".into(),
        )
    })?;

    // The products with a P-column output are too narrow to split; the
    // three with an N-column output go through the parallel panel kernel.
    let par_matmul = |lhs: &Mat, rhs: &Mat| -> Result<Mat> {
        let mut out = Mat::zeros(lhs.rows(), rhs.cols());
        lhs.par_matmul_into(rhs, &mut out, pim_runtime::global())?;
        Ok(out)
    };
    let br = b.matmul(&r_inv)?; // B (DᵀD − I)⁻¹
    let a11 = a - &par_matmul(&br.matmul(&dt)?, c)?;
    let mut a12 = par_matmul(&br, &b.transpose())?;
    a12.scale_in_place(-1.0);
    let a21 = par_matmul(&c.transpose().matmul(&s_inv)?, c)?;

    let mut m = Mat::zeros(2 * n, 2 * n);
    m.set_block(0, 0, &a11);
    m.set_block(0, n, &a12);
    m.set_block(n, 0, &a21);
    // A22 = −A11ᵀ (R symmetric ⇒ (B·R⁻¹·Dᵀ·C)ᵀ = Cᵀ·D·R⁻¹·Bᵀ).
    for i in 0..n {
        for j in 0..n {
            m[(n + i, n + j)] = -a11[(j, i)];
        }
    }
    Ok(m)
}

/// Frequencies (rad/s, positive, sorted) at which a singular value of the
/// model crosses one, obtained as the purely imaginary eigenvalues of the
/// Hamiltonian matrix.
///
/// # Errors
///
/// See [`hamiltonian_matrix`]; eigenvalue solver failures are propagated.
pub fn hamiltonian_crossings(sys: &StateSpace) -> Result<Vec<f64>> {
    let m = hamiltonian_matrix(sys)?;
    let evs = eigenvalues(&m)?;
    // An eigenvalue is treated as (numerically) purely imaginary when its
    // real part is small *relative to its own magnitude*. The tolerance is
    // deliberately loose: for large, highly non-normal Hamiltonian matrices
    // the computed eigenvalues carry noticeable roundoff, and it is safer to
    // report a few extra candidate frequencies (the singular-value sweep
    // verifies them) than to miss a genuine crossing.
    let mut crossings: Vec<f64> =
        evs.iter().filter(|e| e.im > 0.0 && e.re.abs() <= 1e-4 * e.abs()).map(|e| e.im).collect();
    crossings.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Merge near-duplicates produced by the eigenvalue solver.
    let mut merged: Vec<f64> = Vec::with_capacity(crossings.len());
    for w in crossings {
        if merged.last().is_none_or(|&last| (w - last).abs() > 1e-9 * w.max(1.0)) {
            merged.push(w);
        }
    }
    Ok(merged)
}

/// Returns `true` when the Hamiltonian test reports no unit-singular-value
/// crossing **and** the asymptotic feedthrough is contractive.
///
/// # Errors
///
/// See [`hamiltonian_crossings`].
pub fn is_passive(sys: &StateSpace) -> Result<bool> {
    let d_sv = singular_values(&sys.d().to_complex())?;
    if d_sv.first().copied().unwrap_or(0.0) >= 1.0 {
        return Ok(false);
    }
    Ok(hamiltonian_crossings(sys)?.is_empty())
}

/// Sweeps all singular values of `S(jω)` over the given angular frequencies
/// on `pool`. Returns one vector of descending singular values per
/// frequency.
///
/// Each frequency is an independent evaluate + SVD; results are collected by
/// frequency index, so the output is bit-identical to the serial sweep for
/// every pool size (the determinism test suites compare pools of different
/// sizes bit for bit).
///
/// # Errors
///
/// Propagates evaluation and SVD failures; when several frequencies fail,
/// the error of the lowest frequency index is reported regardless of
/// scheduling order.
pub fn singular_value_sweep_with(
    pool: &pim_runtime::ThreadPool,
    model: &PoleResidueModel,
    omegas: &[f64],
) -> Result<Vec<Vec<f64>>> {
    pool.par_map(omegas, |_, &omega| -> Result<Vec<f64>> {
        let s = model.evaluate_at_omega(omega).map_err(PassivityError::StateSpace)?;
        Ok(singular_values(&s)?)
    })
    .into_iter()
    .collect()
}

/// Builds a complete passivity report for a pole–residue macromodel: computes
/// the Hamiltonian crossings, lets `strategy` refine `base` for this model
/// (see [`SamplingStrategy::refine`]), sweeps the refined grid on `pool`, and
/// assembles the report.
///
/// [`crate::grid::Adaptive`] refines around the crossing frequencies and
/// bisects toward unresolved σ peaks; [`crate::grid::FixedLog`] sweeps
/// **exactly** `base` — the verification-grid form ("does the model
/// hold up on a grid it was *not* constrained on?"). The report is
/// bit-identical for every pool size.
///
/// # Errors
///
/// Propagates realization, eigenvalue, refinement and SVD failures.
pub fn assess_with_sampling(
    pool: &pim_runtime::ThreadPool,
    model: &PoleResidueModel,
    base: &FrequencyGrid,
    strategy: &dyn SamplingStrategy,
) -> Result<PassivityReport> {
    let sys = StateSpace::from_pole_residue(model)?;
    let crossings = hamiltonian_crossings(&sys)?;
    let (grid, cached_sigma) = strategy.refine(pool, model, base, &crossings)?;

    // The report only needs `σ_max` per point; a strategy that sampled the
    // grid while refining (the adaptive bisection) hands those samples back
    // so the grid is decomposed exactly once. `Svd::sigma_max` is the first
    // entry of `singular_values`, so both paths yield the same floats.
    let sigmas: Vec<f64> = match cached_sigma {
        Some(sigmas) => sigmas,
        None => singular_value_sweep_with(pool, model, grid.points())?
            .iter()
            .map(|sv| sv.first().copied().unwrap_or(0.0))
            .collect(),
    };
    let mut sigma_max = 0.0;
    let mut omega_at = 0.0;
    for (k, &s) in sigmas.iter().enumerate() {
        if s > sigma_max {
            sigma_max = s;
            omega_at = grid.points()[k];
        }
    }

    // Violation bands from the sweep.
    let mut bands = Vec::new();
    let mut current: Option<ViolationBand> = None;
    for (k, &s) in sigmas.iter().enumerate() {
        if s > 1.0 {
            let w = grid.points()[k];
            match &mut current {
                Some(band) => {
                    band.omega_high = w;
                    if s > band.sigma_peak {
                        band.sigma_peak = s;
                        band.omega_peak = w;
                    }
                }
                None => {
                    current = Some(ViolationBand {
                        omega_low: w,
                        omega_high: w,
                        omega_peak: w,
                        sigma_peak: s,
                    });
                }
            }
        } else if let Some(band) = current.take() {
            bands.push(band);
        }
    }
    if let Some(band) = current.take() {
        bands.push(band);
    }

    // The passivity verdict is based on the singular-value sweep (refined
    // around the Hamiltonian candidate frequencies): the Hamiltonian
    // eigenvalues locate candidate crossings very reliably, but deciding
    // passivity purely from their imaginary-axis classification is too
    // sensitive to eigenvalue roundoff for large models.
    let passive = bands.is_empty() && sigma_max <= 1.0;
    Ok(PassivityReport {
        passive,
        sigma_max,
        omega_at_sigma_max: omega_at,
        bands,
        hamiltonian_crossings: crossings,
        grid,
    })
}

/// Largest singular value of the model's scattering matrix at one frequency,
/// together with the corresponding singular vectors (used by the constraint
/// linearization).
///
/// # Errors
///
/// Propagates evaluation and SVD failures.
pub fn sigma_max_at(model: &PoleResidueModel, omega: f64) -> Result<f64> {
    let s = model.evaluate_at_omega(omega).map_err(PassivityError::StateSpace)?;
    Ok(svd(&s)?.sigma_max())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Adaptive, FixedLog};
    use pim_linalg::{CMat, Complex64};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// The adaptive assessment on the global pool, from raw omegas.
    fn assess_refined(model: &PoleResidueModel, omegas: &[f64]) -> PassivityReport {
        let base = FrequencyGrid::from_omegas(omegas);
        assess_with_sampling(pim_runtime::global(), model, &base, &Adaptive).unwrap()
    }

    /// A clearly passive 1-port: S(s) = k/(s+a) with k < a and |D| < 1.
    fn passive_model() -> PoleResidueModel {
        PoleResidueModel::new(
            vec![c(-100.0, 0.0)],
            vec![CMat::from_diag(&[c(40.0, 0.0)])],
            Mat::from_diag(&[0.2]),
        )
        .unwrap()
    }

    /// A 1-port with a localized passivity violation: a resonant pair whose
    /// peak pushes the magnitude slightly above one.
    fn violating_model() -> PoleResidueModel {
        let p = c(-50.0, 1000.0);
        let r = c(30.0, 12.0);
        PoleResidueModel::new(
            vec![p, p.conj()],
            vec![CMat::from_diag(&[r]), CMat::from_diag(&[r.conj()])],
            Mat::from_diag(&[0.85]),
        )
        .unwrap()
    }

    #[test]
    fn passive_model_passes_all_tests() {
        let m = passive_model();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        assert!(is_passive(&sys).unwrap());
        assert!(hamiltonian_crossings(&sys).unwrap().is_empty());
        let omegas: Vec<f64> = (0..100).map(|k| k as f64 * 20.0).collect();
        let report = assess_refined(&m, &omegas);
        assert!(report.passive);
        assert!(report.sigma_max <= 1.0);
        assert!(report.bands.is_empty());
    }

    #[test]
    fn violating_model_is_flagged_with_band_location() {
        let m = violating_model();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        assert!(!is_passive(&sys).unwrap());
        let crossings = hamiltonian_crossings(&sys).unwrap();
        assert!(!crossings.is_empty());
        // The violation must be near the resonance at 1000 rad/s.
        assert!(crossings.iter().any(|&w| (w - 1000.0).abs() < 300.0));
        let omegas: Vec<f64> = (1..400).map(|k| k as f64 * 5.0).collect();
        let report = assess_refined(&m, &omegas);
        assert!(!report.passive);
        assert!(report.sigma_max > 1.0);
        assert!(!report.bands.is_empty());
        let band = report.bands[0];
        assert!(band.omega_peak > 500.0 && band.omega_peak < 1500.0);
        assert!(band.sigma_peak > 1.0);
        assert!(band.omega_low <= band.omega_peak && band.omega_peak <= band.omega_high);
    }

    #[test]
    fn sweep_matches_direct_evaluation() {
        let m = violating_model();
        let omegas = vec![0.0, 500.0, 1000.0, 2000.0];
        let sweep = singular_value_sweep_with(pim_runtime::global(), &m, &omegas).unwrap();
        assert_eq!(sweep.len(), 4);
        for (k, &w) in omegas.iter().enumerate() {
            let direct = sigma_max_at(&m, w).unwrap();
            assert!((sweep[k][0] - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn hamiltonian_crossings_match_sweep_crossings() {
        // The singular value of the violating model crosses 1 exactly at the
        // Hamiltonian crossing frequencies.
        let m = violating_model();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        let crossings = hamiltonian_crossings(&sys).unwrap();
        for &w in &crossings {
            let s = sigma_max_at(&m, w).unwrap();
            assert!((s - 1.0).abs() < 1e-6, "sigma at crossing {w} is {s}");
        }
    }

    #[test]
    fn non_square_feedthrough_at_unit_singular_value_is_rejected() {
        // D with a singular value exactly 1 makes the Hamiltonian undefined.
        let m = PoleResidueModel::new(
            vec![c(-1.0, 0.0)],
            vec![CMat::from_diag(&[c(0.1, 0.0)])],
            Mat::from_diag(&[1.0]),
        )
        .unwrap();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        assert!(hamiltonian_matrix(&sys).is_err());
    }

    #[test]
    fn assess_on_sweeps_exactly_the_given_grid() {
        let m = violating_model();
        let omegas: Vec<f64> = (1..200).map(|k| k as f64 * 10.0).collect();
        let grid = FrequencyGrid::from_omegas(&omegas);
        let report = assess_with_sampling(pim_runtime::global(), &m, &grid, &FixedLog).unwrap();
        // No refinement: the report grid is the input grid, point for point.
        assert_eq!(report.grid.points(), grid.points());
        assert!(!report.passive);
        // The adaptive refinement adds points around the crossings, so its
        // grid is a strict superset and its peak estimate at least as good.
        let refined = assess_refined(&m, &omegas);
        assert!(refined.grid.len() > grid.len());
        assert!(refined.sigma_max >= report.sigma_max);
        assert!(grid.points().iter().all(|w| refined.grid.points().contains(w)));
    }

    /// The refined assessment — the crossing refinement plus the adaptive
    /// bisection that samples σ on the pool — is bit-identical for every
    /// pool size.
    #[test]
    fn crossing_refined_assessment_is_bit_identical_across_pools() {
        let m = violating_model();
        let base =
            FrequencyGrid::from_omegas(&(0..150).map(|k| k as f64 * 13.0).collect::<Vec<_>>());
        let on_pool = |threads: usize| {
            let pool = pim_runtime::ThreadPool::new(threads);
            assess_with_sampling(&pool, &m, &base, &Adaptive).unwrap()
        };
        let (serial, parallel) = (on_pool(1), on_pool(4));
        assert_eq!(serial.passive, parallel.passive);
        assert_eq!(serial.sigma_max.to_bits(), parallel.sigma_max.to_bits());
        assert_eq!(serial.omega_at_sigma_max.to_bits(), parallel.omega_at_sigma_max.to_bits());
        assert_eq!(serial.bands.len(), parallel.bands.len());
        assert_eq!(serial.grid.len(), parallel.grid.len());
        for (a, b) in serial.grid.points().iter().zip(parallel.grid.points()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A passive model has no Hamiltonian crossings; every strategy must
    /// accept the empty crossing list.
    #[test]
    fn strategies_handle_a_model_without_crossings() {
        let m = passive_model();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        let crossings = hamiltonian_crossings(&sys).unwrap();
        assert!(crossings.is_empty());
        let pool = pim_runtime::ThreadPool::new(1);
        let base =
            FrequencyGrid::from_omegas(&(0..60).map(|k| k as f64 * 20.0).collect::<Vec<_>>());
        for strategy in [&FixedLog as &dyn SamplingStrategy, &Adaptive] {
            let (refined, _) = strategy.refine(&pool, &m, &base, &crossings).unwrap();
            assert!(refined.len() >= base.len(), "{strategy:?} shrank the grid");
            let report = assess_with_sampling(&pool, &m, &base, strategy).unwrap();
            assert!(report.passive, "{strategy:?}: passive model misjudged");
        }
    }

    /// Near-degenerate (clustered) crossings: two resonant pairs whose
    /// violation bands nearly coincide produce crossings a fraction of a
    /// percent apart. The refinement must keep distinct points distinct,
    /// dedup the coincident ones, and the adaptive strategy must still
    /// resolve the merged peak.
    #[test]
    fn clustered_crossings_are_deduped_not_lost() {
        let p1 = c(-8.0, 1000.0);
        let p2 = c(-8.0, 1004.0);
        let r = c(9.0, 0.0);
        let m = PoleResidueModel::new(
            vec![p1, p1.conj(), p2, p2.conj()],
            vec![
                CMat::from_diag(&[r]),
                CMat::from_diag(&[r.conj()]),
                CMat::from_diag(&[r]),
                CMat::from_diag(&[r.conj()]),
            ],
            Mat::from_diag(&[0.2]),
        )
        .unwrap();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        let crossings = hamiltonian_crossings(&sys).unwrap();
        assert!(crossings.len() >= 2, "expected a crossing cluster, got {crossings:?}");
        let spread = crossings.last().unwrap() - crossings.first().unwrap();
        assert!(spread < 0.1 * crossings[0], "crossings should be clustered, spread {spread}");
        let pool = pim_runtime::ThreadPool::new(1);
        // A coarse base that cannot see the cluster on its own.
        let base =
            FrequencyGrid::from_omegas(&(1..20).map(|k| k as f64 * 100.0).collect::<Vec<_>>());
        let (refined, _) = Adaptive.refine(&pool, &m, &base, &crossings).unwrap();
        for w in refined.points().windows(2) {
            assert!(w[1] > w[0], "grid must stay strictly increasing after dedup");
        }
        let report = assess_with_sampling(&pool, &m, &base, &Adaptive).unwrap();
        assert!(!report.passive);
        assert!(report.sigma_max > 1.0);
        assert!(
            (report.omega_at_sigma_max - 1000.0).abs() < 100.0,
            "peak must be located inside the cluster, got {}",
            report.omega_at_sigma_max
        );
    }

    /// A crossing at (numerically near) ω = 0: a model whose DC gain sits
    /// just above one. The ±0.1 % neighborhood and the ±5 % guard collapse
    /// toward zero without producing negative frequencies, and the adaptive
    /// assessment must classify the DC violation.
    #[test]
    fn crossing_at_dc_is_handled() {
        // S(0) = d + r/|p| = 0.6 + 0.45 > 1, decaying above ω ≈ |p|.
        let m = PoleResidueModel::new(
            vec![c(-50.0, 0.0)],
            vec![CMat::from_diag(&[c(22.5, 0.0)])],
            Mat::from_diag(&[0.6]),
        )
        .unwrap();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        let crossings = hamiltonian_crossings(&sys).unwrap();
        assert!(!crossings.is_empty(), "the DC violation must produce a crossing");
        let pool = pim_runtime::ThreadPool::new(1);
        let base = FrequencyGrid::from_omegas(
            &std::iter::once(0.0).chain((0..40).map(|k| 2.0 * 1.3f64.powi(k))).collect::<Vec<_>>(),
        );
        let (refined, _) = Adaptive.refine(&pool, &m, &base, &crossings).unwrap();
        assert!(refined.points().iter().all(|&w| w >= 0.0));
        assert_eq!(refined.points()[0].to_bits(), 0.0f64.to_bits(), "DC point lost");
        let report = assess_with_sampling(&pool, &m, &base, &Adaptive).unwrap();
        assert!(!report.passive, "DC violation missed");
        assert!(
            report.omega_at_sigma_max < crossings[0],
            "the violation lives below the first crossing"
        );
    }

    #[test]
    fn multiport_passive_model() {
        // A diagonal 2-port with two passive reflection coefficients.
        let m = PoleResidueModel::new(
            vec![c(-200.0, 0.0)],
            vec![CMat::from_diag(&[c(50.0, 0.0), c(30.0, 0.0)])],
            Mat::from_diag(&[0.3, -0.2]),
        )
        .unwrap();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        assert!(is_passive(&sys).unwrap());
        let omegas: Vec<f64> = (0..50).map(|k| k as f64 * 40.0).collect();
        let report = assess_refined(&m, &omegas);
        assert!(report.passive);
    }
}
