//! Construction of the sensitivity-weighted perturbation norm
//! (eq. 14–21 of the paper).

use pim_passivity::enforce::PerturbationNorm;
use pim_passivity::norm::{NormBuilder, NormKind};
use pim_passivity::{PassivityError, Result};
use pim_statespace::gramian::weighted_element_gramian;
use pim_statespace::{PoleResidueModel, StateSpace};
use pim_vectfit::SensitivityModel;

/// [`NormBuilder`] for the paper's sensitivity-weighted norm
/// `‖δS‖²_Ξ = ‖Ξ̃·δS‖²₂`: captures the weighting model `Ξ̃(s)` and
/// instantiates the norm for any macromodel handed to
/// [`NormBuilder::build`].
///
/// For every matrix element the cascade `S_ij(s)·Ξ̃(s)` of eq. (18) is
/// realized and the `(1,1)` block of its controllability Gramian (eq. 19)
/// becomes the quadratic weight of the `δc_ij` perturbation (eq. 20); the
/// per-element contributions add up to the norm of eq. (21). Because the
/// macromodel uses common poles, all elements share the same `(A_e, b_e)`
/// pair, hence the same weighted Gramian — it is computed once and reused.
/// The enforcement plumbing (`pim_passivity` and the pipeline) treats this
/// builder uniformly with [`pim_passivity::StandardNorm`] and any future
/// hybrid.
///
/// ```
/// use pim_linalg::{CMat, Complex64, Mat};
/// use pim_passivity::NormBuilder;
/// use pim_statespace::PoleResidueModel;
/// use pim_vectfit::{fit_magnitude, MagnitudeFitConfig};
/// use pim_core::SensitivityWeightedNorm;
///
/// # fn main() -> Result<(), pim_core::CoreError> {
/// let model = PoleResidueModel::new(
///     vec![Complex64::new(-1e3, 0.0)],
///     vec![CMat::from_diag(&[Complex64::new(400.0, 0.0)])],
///     Mat::from_diag(&[0.4]),
/// )?;
/// // A flat (constant) sensitivity weight.
/// let omegas: Vec<f64> = (0..40).map(|k| 10f64.powf(1.0 + 0.1 * k as f64)).collect();
/// let xi = fit_magnitude(&omegas, &vec![2.0; 40], &MagnitudeFitConfig { order: 2, ..Default::default() })?;
/// let norm = SensitivityWeightedNorm::new(xi).build(&model)?;
/// assert_eq!(norm.gramians().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SensitivityWeightedNorm {
    weighting: SensitivityModel,
}

impl SensitivityWeightedNorm {
    /// Wraps a fitted weighting model `Ξ̃(s)`.
    pub fn new(weighting: SensitivityModel) -> Self {
        SensitivityWeightedNorm { weighting }
    }

    /// The weighting model this builder applies.
    pub fn weighting_model(&self) -> &SensitivityModel {
        &self.weighting
    }
}

impl NormBuilder for SensitivityWeightedNorm {
    fn kind(&self) -> NormKind {
        NormKind::SensitivityWeighted
    }

    fn build(&self, model: &PoleResidueModel) -> Result<PerturbationNorm> {
        let ports = model.ports();
        let element = StateSpace::from_pole_residue_element(model, 0, 0)?;
        let weight = self
            .weighting
            .state_space()
            .map_err(|e| PassivityError::InvalidInput(format!("rational fitting failure: {e}")))?;
        let gramian = weighted_element_gramian(&element, &weight)?;
        let states = element.order();
        PerturbationNorm::from_gramians(vec![gramian; ports * ports], ports, states)
    }
}

/// [`NormBuilder`] for the blended recovery norm: the trace-normalized blend
/// `α·G_Ξ/t̄_Ξ + (1−α)·G_std/t̄_std` of the sensitivity-weighted and the
/// standard Gramians, where `t̄` is the mean block trace of each family.
///
/// This is the middle rung of the recovery ladder
/// ([`crate::recovery::RecoveryRung::Blended`]): the sensitivity weighting
/// survives at weight `α`, while the unweighted Gramian restores the
/// conditioning a skewed weighting model can destroy. The normalization
/// makes `α` meaningful — without it whichever family has the larger trace
/// would dominate regardless of `α`. The QP minimizer is invariant under a
/// global scale of the norm, so normalization never changes the `α = 0` /
/// `α = 1` limits beyond that scale.
#[derive(Debug, Clone)]
pub struct BlendedNorm {
    weighting: SensitivityModel,
    alpha: f64,
}

impl BlendedNorm {
    /// Wraps a fitted weighting model and a blend weight `α ∈ [0, 1]`
    /// (`α = 1` is purely weighted, `α = 0` purely standard).
    pub fn new(weighting: SensitivityModel, alpha: f64) -> Self {
        BlendedNorm { weighting, alpha }
    }

    /// The blend weight of the sensitivity-weighted family.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl NormBuilder for BlendedNorm {
    fn kind(&self) -> NormKind {
        NormKind::Blended
    }

    /// # Errors
    ///
    /// Returns [`PassivityError::InvalidInput`] for `α` outside `[0, 1]`, and
    /// propagates realization and Lyapunov-solver failures of either family.
    fn build(&self, model: &PoleResidueModel) -> Result<PerturbationNorm> {
        let alpha = self.alpha;
        if !(0.0..=1.0).contains(&alpha) {
            return Err(PassivityError::InvalidInput(format!(
                "blend weight alpha must be in [0, 1], got {alpha}"
            )));
        }
        let weighted = SensitivityWeightedNorm::new(self.weighting.clone()).build(model)?;
        let standard = PerturbationNorm::standard(model)?;
        let mean_trace = |norm: &PerturbationNorm| -> f64 {
            let sum: f64 = norm.gramians().iter().map(|g| g.trace()).sum();
            (sum / norm.gramians().len() as f64).abs().max(1e-300)
        };
        let tw = mean_trace(&weighted);
        let ts = mean_trace(&standard);
        let blocks: Vec<_> = weighted
            .gramians()
            .iter()
            .zip(standard.gramians())
            .map(|(gw, gs)| &gw.scaled(alpha / tw) + &gs.scaled((1.0 - alpha) / ts))
            .collect();
        PerturbationNorm::from_gramians(blocks, model.ports(), weighted.states())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_linalg::{approx_eq, CMat, Complex64, Mat};
    use pim_statespace::gramian::element_gramian;
    use pim_vectfit::{fit_magnitude, MagnitudeFitConfig};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn two_port_model() -> PoleResidueModel {
        let p = c(-5e3, 8e4);
        let r = CMat::from_fn(2, 2, |i, j| c(1e3 + 100.0 * (i + j) as f64, 50.0));
        PoleResidueModel::new(
            vec![c(-1e3, 0.0), p, p.conj()],
            vec![
                CMat::from_fn(2, 2, |i, j| c(500.0 * (1 + i + j) as f64, 0.0)),
                r.clone(),
                r.conj(),
            ],
            Mat::from_fn(2, 2, |i, j| if i == j { 0.3 } else { 0.05 }),
        )
        .unwrap()
    }

    fn flat_weight(value: f64) -> SensitivityModel {
        let omegas: Vec<f64> = (0..60).map(|k| 10f64.powf(k as f64 * 0.1)).collect();
        fit_magnitude(
            &omegas,
            &vec![value; 60],
            &MagnitudeFitConfig { order: 2, n_iterations: 5, ..Default::default() },
        )
        .unwrap()
    }

    fn lowpass_weight() -> SensitivityModel {
        // |Ξ| large below 1e4 rad/s, small above.
        let omegas: Vec<f64> = (0..80).map(|k| 10f64.powf(1.0 + k as f64 * 0.075)).collect();
        let mags: Vec<f64> = omegas.iter().map(|w| 10.0 / (1.0 + w / 1e4)).collect();
        fit_magnitude(
            &omegas,
            &mags,
            &MagnitudeFitConfig { order: 4, n_iterations: 8, ..Default::default() },
        )
        .unwrap()
    }

    #[test]
    fn flat_weight_scales_the_standard_gramian() {
        let model = two_port_model();
        let norm1 = SensitivityWeightedNorm::new(flat_weight(1.0)).build(&model).unwrap();
        let norm3 = SensitivityWeightedNorm::new(flat_weight(3.0)).build(&model).unwrap();
        let element = StateSpace::from_pole_residue_element(&model, 0, 0).unwrap();
        let plain = element_gramian(&element).unwrap();
        // |Ξ| = 1 reproduces the standard Gramian, |Ξ| = 3 scales it by 9.
        let g1 = &norm1.gramians()[0];
        let g3 = &norm3.gramians()[0];
        assert!(g1.max_abs_diff(&plain) < 0.05 * plain.max_abs());
        for i in 0..g1.rows() {
            for j in 0..g1.cols() {
                assert!(
                    approx_eq(g3[(i, j)], 9.0 * g1[(i, j)], 0.1),
                    "scaling mismatch at ({i},{j}): {} vs {}",
                    g3[(i, j)],
                    9.0 * g1[(i, j)]
                );
            }
        }
        // One Gramian per matrix element, all identical (common poles).
        assert_eq!(norm1.gramians().len(), 4);
        assert_eq!(
            norm1.gramians()[0].max_abs_diff(&norm1.gramians()[3]).to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn lowpass_weight_penalizes_low_frequency_perturbations() {
        // With a low-pass sensitivity weight, a perturbation direction that
        // mainly changes the low-frequency response (the real pole at
        // -1e3 rad/s) must cost more than one affecting the resonant pair at
        // 8e4 rad/s, relative to the unweighted norm.
        let model = two_port_model();
        let weighted = SensitivityWeightedNorm::new(lowpass_weight()).build(&model).unwrap();
        let element = StateSpace::from_pole_residue_element(&model, 0, 0).unwrap();
        let plain = element_gramian(&element).unwrap();
        let gw = &weighted.gramians()[0];
        // Direction e0 excites the real (low-frequency) pole; e1/e2 the pair.
        let cost = |g: &Mat, dir: &[f64]| -> f64 {
            let gv = g.matvec(dir).unwrap();
            dir.iter().zip(&gv).map(|(a, b)| a * b).sum()
        };
        let low_dir = [1.0, 0.0, 0.0];
        let high_dir = [0.0, 1.0, 0.0];
        let ratio_weighted = cost(gw, &low_dir) / cost(gw, &high_dir);
        let ratio_plain = cost(&plain, &low_dir) / cost(&plain, &high_dir);
        assert!(
            ratio_weighted > 3.0 * ratio_plain,
            "weighted {ratio_weighted} vs plain {ratio_plain}"
        );
    }

    #[test]
    fn builder_matches_the_direct_construction() {
        let model = two_port_model();
        let weight = lowpass_weight();
        // The cascade Gramian of eq. (19)–(20), assembled by hand.
        let element = StateSpace::from_pole_residue_element(&model, 0, 0).unwrap();
        let gramian = weighted_element_gramian(&element, &weight.state_space().unwrap()).unwrap();
        let direct = PerturbationNorm::from_gramians(vec![gramian; 4], 2, element.order()).unwrap();
        let weight_order = weight.order();
        let builder = SensitivityWeightedNorm::new(weight);
        assert_eq!(builder.kind(), NormKind::SensitivityWeighted);
        assert_eq!(builder.weighting_model().order(), weight_order);
        let built = builder.build(&model).unwrap();
        assert_eq!(built.ports(), direct.ports());
        assert_eq!(built.states(), direct.states());
        for (a, b) in built.gramians().iter().zip(direct.gramians()) {
            assert_eq!((a.max_abs_diff(b)).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn blended_norm_interpolates_between_the_families() {
        let model = two_port_model();
        let weight = lowpass_weight();
        let weighted = SensitivityWeightedNorm::new(weight.clone()).build(&model).unwrap();
        let standard = PerturbationNorm::standard(&model).unwrap();
        // The α = 1 / α = 0 limits equal one family up to the global
        // trace-normalization scale (which the QP minimizer is invariant
        // under).
        for (alpha, family) in [(1.0, &weighted), (0.0, &standard)] {
            let blend = BlendedNorm::new(weight.clone(), alpha).build(&model).unwrap();
            let scale = blend.gramians()[0][(0, 0)] / family.gramians()[0][(0, 0)];
            for (gb, gf) in blend.gramians().iter().zip(family.gramians()) {
                for i in 0..gb.rows() {
                    for j in 0..gb.cols() {
                        assert!(
                            approx_eq(gb[(i, j)], scale * gf[(i, j)], 1e-12),
                            "alpha {alpha} mismatch at ({i},{j})"
                        );
                    }
                }
            }
        }
        // The midpoint carries part of the weighting: its low-vs-high
        // direction cost ratio lies strictly between the two families'.
        let cost = |g: &Mat, dir: &[f64]| -> f64 {
            let gv = g.matvec(dir).unwrap();
            dir.iter().zip(&gv).map(|(a, b)| a * b).sum()
        };
        let ratio = |g: &Mat| cost(g, &[1.0, 0.0, 0.0]) / cost(g, &[0.0, 1.0, 0.0]);
        let builder = BlendedNorm::new(weight.clone(), 0.5);
        let mid = builder.build(&model).unwrap();
        let (rw, rs, rm) = (
            ratio(&weighted.gramians()[0]),
            ratio(&standard.gramians()[0]),
            ratio(&mid.gramians()[0]),
        );
        assert!(
            rm < rw && rm > rs,
            "mid ratio {rm} must sit between standard {rs} and weighted {rw}"
        );
        // Out-of-range α is rejected.
        assert!(BlendedNorm::new(weight.clone(), 1.5).build(&model).is_err());
        assert!(BlendedNorm::new(weight, -0.1).build(&model).is_err());
        // The builder labels itself.
        assert_eq!(builder.kind(), NormKind::Blended);
        assert_eq!((builder.alpha()).to_bits(), 0.5f64.to_bits());
    }

    #[test]
    fn norm_dimensions_match_model() {
        let model = two_port_model();
        let norm = SensitivityWeightedNorm::new(flat_weight(1.0)).build(&model).unwrap();
        assert_eq!(norm.ports(), 2);
        assert_eq!(norm.states(), 3);
        let v = norm.evaluate(&[1e-3; 2 * 2 * 3]).unwrap();
        assert!(v > 0.0);
    }
}
