//! # pim-bench
//!
//! Benchmark and figure-regeneration harness for the DATE 2014 reproduction.
//!
//! Every figure of the paper's evaluation section has a regeneration binary
//! in `src/bin/` (printing the series the paper plots) and a Criterion
//! benchmark in `benches/` timing the underlying computation. See
//! `EXPERIMENTS.md` at the workspace root for the experiment index and the
//! mapping from figures to pipeline stages.

#![deny(missing_docs)]

use pim_core::corpus::corpus_flow_config;
use pim_core::flow::{FlowConfig, FlowReport};
use pim_core::pipeline::Pipeline;
use pim_core::scenario::{ScenarioPreset, StandardScenario};

/// The trimmed corpus configuration shared by the integration suite
/// (`tests/corpus.rs` / `tests/pipeline.rs`): tiny boards and a low
/// fitting order — the same certification-gate semantics as
/// `CorpusConfig::default()` at a fraction of the runtime, so the
/// workspace tests can afford full corpus runs in debug builds.
pub fn corpus_smoke_config() -> pim_core::CorpusConfig {
    let mut config = pim_core::CorpusConfig::default();
    config.generator.nx = (2, 3);
    config.generator.ny = (2, 3);
    config.generator.die_ports = (1, 1);
    config.generator.decap_ports = (1, 2);
    config.generator.vrm_ports = (1, 1);
    config.generator.stack_stages = (0, 1);
    config.flow = corpus_flow_config(10);
    config.flow.enforcement.sweep_points = 120;
    config.flow.enforcement.max_iterations = 30;
    config.frequency_samples = 40;
    config
}

/// Builds the reduced reproduction scenario and runs the full staged
/// pipeline, the shared setup of every figure binary.
///
/// # Panics
///
/// Panics on any failure of the underlying flow (the harness binaries are
/// diagnostic tools, not library code).
pub fn run_reduced_flow() -> (StandardScenario, FlowReport) {
    let scenario = ScenarioPreset::Reduced.build().expect("scenario construction");
    let report = Pipeline::from_scenario(&scenario, FlowConfig::default())
        .expect("pipeline construction")
        .report()
        .expect("macromodeling flow");
    (scenario, report)
}
