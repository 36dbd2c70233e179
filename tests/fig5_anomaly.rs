//! Fig. 5 anomaly regression — **promoted from an ignored diagnostic to an
//! asserting test** now that the adaptive sampling strategy resolves the
//! anomaly.
//!
//! History (ROADMAP PRs 3–4): the weighted enforcement on the reduced
//! scenario used to deliver a model that was "certified passive" on its
//! working and 4× verification grids while a violation band near
//! ω ≈ 7.04·10⁹ rad/s — true σ ≈ 1.36 — hid *between* the grid points for
//! 12 iterations and survived into the final model (σ_max ≈ 1.02 on a 16×
//! grid). This test pins the fix: under
//! [`pim_repro::passivity::grid::Adaptive`] sampling the band is exposed at
//! full strength on the very first assessment, the enforcement constrains
//! it away, and the delivered model stays passive on a dense 16× audit grid
//! it was never constrained on.
//!
//! The unrefined working grid is asserted too: it must keep missing the
//! band (if it stops missing it, the numerics changed and the fixture story
//! needs revisiting).

use pim_repro::core_flow::{
    corpus_flow_config, FitKind, FlowConfig, Pipeline, StandardScenario, TraceObserver,
};
use pim_repro::passivity::check::assess_with_sampling;
use pim_repro::passivity::grid::{Adaptive, FixedLog, FrequencyGrid};
use pim_repro::passivity::NormKind;
use pim_repro::runtime::ThreadPool;

/// The hidden violation band of the anomaly (rad/s).
const OMEGA_BAND: f64 = 7.04e9;

#[test]
fn adaptive_sampling_exposes_and_eliminates_the_hidden_band() {
    let sc = StandardScenario::reduced().unwrap();
    // The trimmed configuration `tests/pipeline.rs` records the pinned
    // `fig5_iterations.txt` fixture under.
    let config = corpus_flow_config(18);
    let pool = ThreadPool::new(1);

    // The weighted fit and the enforcement working-grid shape, exactly as
    // the enforcement loop builds them.
    let mut pipeline = Pipeline::from_scenario(&sc, config.clone()).unwrap();
    let fit = pipeline.fit(FitKind::Weighted).unwrap();
    let band_max_omega = sc.data.grid().max_omega();
    let working = FrequencyGrid::enforcement_log(band_max_omega, config.enforcement.sweep_points);

    // --- 1. The working grid alone under-reports the band (the anomaly's
    //        mechanism)...
    let working_report =
        assess_with_sampling(&pool, &fit.result.model, &working, &FixedLog).unwrap();
    let sigma_near_band = |report: &pim_repro::passivity::PassivityReport| -> f64 {
        report
            .bands
            .iter()
            .filter(|b| b.omega_peak >= 0.9 * OMEGA_BAND && b.omega_peak <= 1.1 * OMEGA_BAND)
            .map(|b| b.sigma_peak)
            .fold(0.0_f64, f64::max)
    };
    let hidden = sigma_near_band(&working_report);
    assert!(
        hidden < 1.3,
        "the working sweep used to under-report the band \
         (σ ≈ 1.006); it now sees {hidden} — the anomaly mechanism changed, revisit this test"
    );

    // --- 2. ... while the adaptive strategy exposes it at full strength on
    //        the very first assessment (satellite acceptance: σ ≥ 1.3 at
    //        first exposure).
    let adaptive_report =
        assess_with_sampling(&pool, &fit.result.model, &working, &Adaptive).unwrap();
    let exposed = sigma_near_band(&adaptive_report);
    assert!(
        exposed >= 1.3,
        "the adaptive assessment must expose the ω≈7.04e9 band at first exposure \
         (σ ≥ 1.3), got {exposed}"
    );
    // The adaptive grid grew beyond the working grid to do it.
    assert!(adaptive_report.grid.len() > working_report.grid.len());

    // --- 3. The full adaptive flow: the enforcement constrains the exposed
    //        band away and the delivered model survives a 16× fixed-log
    //        audit grid it was never constrained on.
    let mut trace = TraceObserver::new();
    let report = Pipeline::from_scenario(&sc, config.clone())
        .unwrap()
        .with_observer(&mut trace)
        .report()
        .unwrap();
    let out = report.weighted_enforcement.as_ref().expect("enforcement must run");
    assert!(out.report.passive, "the adaptive enforcement must certify passivity");
    let audit =
        FrequencyGrid::enforcement_log(band_max_omega, config.enforcement.sweep_points * 16);
    let audit_report =
        assess_with_sampling(pim_repro::runtime::global(), report.final_model(), &audit, &FixedLog)
            .unwrap();
    assert!(
        audit_report.sigma_max <= 1.0 + 1e-8,
        "the delivered model must stay passive on the 16x audit grid \
         (sigma_max = {}, at ω = {:.3e})",
        audit_report.sigma_max,
        audit_report.omega_at_sigma_max
    );

    // --- 4. With the anomaly gone, the paper's Fig. 5 claim holds: the
    //        weighted enforcement beats the standard-norm baseline on the
    //        target-impedance error.
    let std_eval = report
        .standard_passive_eval
        .as_ref()
        .expect("the standard baseline converges on the reduced scenario");
    assert!(
        report.weighted_passive_eval.impedance_relative_error < std_eval.impedance_relative_error,
        "weighted enforcement ({}) must beat the standard baseline ({})",
        report.weighted_passive_eval.impedance_relative_error,
        std_eval.impedance_relative_error
    );

    // --- 5. Observability: the adaptive working grid grew beyond the
    //        fixed 201-point baseline in every recorded iteration.
    let growth = trace.grid_growth(NormKind::SensitivityWeighted);
    assert_eq!(growth.len(), out.iterations);
    assert!(
        growth.iter().all(|&n| n > working.len()),
        "adaptive iterations must refine beyond the {}-point baseline: {growth:?}",
        working.len()
    );
}

/// Full-size acceptance run (paper scenario, `FlowConfig::default`): the
/// delivered weighted model must certify σ_max ≤ 1 + 1e-8 on a 16× audit
/// grid it was not constrained on. Takes ~15 s in release mode (2-core
/// x86_64 container) and far longer in debug — CI runs it in the
/// diagnostics step (`cargo test --release --test fig5_anomaly -- --ignored`).
#[test]
#[ignore = "full paper-size scenario: slow in debug, run by the CI diagnostics step"]
fn paper_scenario_adaptive_enforcement_certifies_on_a_16x_grid() {
    let sc = StandardScenario::standard().unwrap();
    let config = FlowConfig::default();
    let report = Pipeline::from_scenario(&sc, config.clone()).unwrap().report().unwrap();
    let band_max_omega = sc.data.grid().max_omega();
    let audit =
        FrequencyGrid::enforcement_log(band_max_omega, config.enforcement.sweep_points * 16);
    let audit_report =
        assess_with_sampling(pim_repro::runtime::global(), report.final_model(), &audit, &FixedLog)
            .unwrap();
    assert!(
        audit_report.sigma_max <= 1.0 + 1e-8,
        "paper-scenario delivered model must stay passive on the 16x audit grid \
         (sigma_max = {})",
        audit_report.sigma_max
    );
    let std_eval = report.standard_passive_eval.as_ref().expect("baseline available");
    assert!(
        report.weighted_passive_eval.impedance_relative_error < std_eval.impedance_relative_error,
        "weighted ({}) must beat standard ({}) on the paper scenario",
        report.weighted_passive_eval.impedance_relative_error,
        std_eval.impedance_relative_error
    );
}

/// The default flow on the reduced board delivers a model that passes its
/// own 16× fixed-log audit. Crossing refinement without the adaptive
/// bisection delivers `audit_sigma_max` 1.000022 here: passive on its
/// working grids, not on the audit. The untrimmed default flow takes about
/// a second in release mode but far longer in the debug tier-1 run, so it
/// runs with the paper-size test above.
#[test]
#[ignore = "untrimmed default flow: slow in debug, run by the CI diagnostics step"]
fn reduced_scenario_default_flow_passes_its_16x_audit() {
    let sc = StandardScenario::reduced().unwrap();
    let report = Pipeline::from_scenario(&sc, FlowConfig::default()).unwrap().report().unwrap();
    let contract = report.contract.as_ref().expect("a delivered report carries its contract");
    assert!(
        contract.audit_sigma_max <= 1.0 + 1e-8,
        "the default reduced flow must pass its 16x audit (audit_sigma_max = {})",
        contract.audit_sigma_max
    );
}

// The 5×5 dense-decap divergence diagnostic that used to live here was
// promoted to a committed minimized corpus fixture:
// `tests/fixtures/corpus/dense-decap-5x5.fixture`, replayed by the
// (release-only) regression in `tests/corpus.rs` — same regime, same
// divergence-guard assertions, now expressed as a self-contained corpus
// case instead of an inline scenario tweak.
