//! Grid-strategy comparison report: the sampling-layer ablation behind the
//! Fig. 5 anomaly resolution.
//!
//! Runs the flow on the reduced scenario under the historical
//! `CrossingRefined` strategy and the new `Adaptive` strategy, then
//! re-assesses every delivered model on a dense 16× fixed-log verification
//! grid **that neither enforcement was constrained on**. The table shows
//! whether "certified passive" survives contact with a denser grid — the
//! Fig. 5 anomaly is exactly a certification that did not.
//!
//! Scenario selection: `grid_strategy_report [reduced|paper]` (default
//! `reduced`; `paper` is the full-size board and takes minutes).

use pim_core::observer::TraceObserver;
use pim_core::pipeline::Pipeline;
use pim_core::scenario::ScenarioPreset;
use pim_core::FlowConfig;
use pim_passivity::grid::{Adaptive, CrossingRefined, FixedLog, FrequencyGrid};
use pim_passivity::{assess_with_sampling, NormKind};
use std::time::Instant;

fn main() {
    let preset = match std::env::args().nth(1).as_deref() {
        Some("paper") => ScenarioPreset::Paper,
        _ => ScenarioPreset::Reduced,
    };
    let scenario = preset.build().expect("scenario construction");
    let config = match preset {
        ScenarioPreset::Paper => FlowConfig::default(),
        _ => pim_bench::fixture_flow_config(),
    };
    let band_max_omega = scenario.data.grid().max_omega();
    // The 16x fixed-log audit grid: same shape as the enforcement grids but
    // 16x denser, and never used as a constraint grid by either strategy.
    let audit =
        FrequencyGrid::enforcement_log(band_max_omega, config.enforcement.sweep_points * 16);
    println!("# Grid-strategy report, scenario `{}`", preset.name());
    println!("# audit grid: {} points (16x fixed-log; neither run constrained on it)", audit.len());
    println!(
        "# strategy | iters | first sigma_before | certified sigma_max | audit sigma_max | audit passive | Z err weighted | Z err standard | grid growth | seconds"
    );
    for strategy in ["crossing-refined", "adaptive"] {
        let mut trace = TraceObserver::new();
        let t0 = Instant::now();
        let mut run_config = config.clone();
        run_config.enforcement = match strategy {
            "adaptive" => run_config.enforcement.sampling(Adaptive::default()),
            _ => run_config.enforcement.sampling(CrossingRefined),
        };
        let report = Pipeline::from_scenario(&scenario, run_config)
            .expect("pipeline construction")
            .with_observer(&mut trace)
            .report()
            .expect("macromodeling flow");
        let seconds = t0.elapsed().as_secs_f64();
        let weighted = trace.trace(NormKind::SensitivityWeighted);
        let growth = trace.grid_growth(NormKind::SensitivityWeighted);
        let (iters, first_sigma, certified) = match &report.weighted_enforcement {
            Some(out) => (
                out.iterations,
                weighted.first().map(|ev| ev.sigma_before).unwrap_or(f64::NAN),
                out.report.sigma_max,
            ),
            None => (0, f64::NAN, report.sigma_max_before),
        };
        let final_model = report.final_model();
        let audit_report =
            assess_with_sampling(pim_runtime::global(), final_model, &audit, &FixedLog)
                .expect("audit assessment");
        let std_err = report
            .standard_passive_eval
            .as_ref()
            .map(|e| format!("{:.4}", e.impedance_relative_error))
            .unwrap_or_else(|| "n/a".into());
        println!(
            "{strategy} | {iters} | {first_sigma:.6} | {certified:.9} | {:.9} | {} | {:.4} | {std_err} | {:?} | {seconds:.1}",
            audit_report.sigma_max,
            audit_report.passive,
            report.weighted_passive_eval.impedance_relative_error,
            growth,
        );
    }
}
