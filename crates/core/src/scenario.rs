//! The synthetic reproduction scenario: board, data set and nominal
//! termination scheme matching Sec. IV of the paper.

use crate::{CoreError, Result};
use pim_circuit::board::{build_board, PdnBoardSpec, SyntheticPdn};
use pim_circuit::generator::{BoardGenerator, GeneratorConfig};
use pim_pdn::{Termination, TerminationNetwork};
use pim_rfdata::{FrequencyGrid, NetworkData};

/// Builds a preset board spec through the [`BoardGenerator`] explicit path —
/// the single construction route for every hand-built topology. With all
/// ranges pinned the generated spec is bit-identical to the historical
/// literal construction (asserted by `presets_route_through_the_generator`).
fn explicit_board(
    nx: usize,
    ny: usize,
    die: Vec<(usize, usize)>,
    decaps: Vec<(usize, usize)>,
    vrms: Vec<(usize, usize)>,
) -> PdnBoardSpec {
    BoardGenerator::new(GeneratorConfig::explicit(nx, ny, die, decaps, vrms))
        .generate(0)
        .expect("preset board topologies are valid")
        .spec
}

/// Parameters of the standard scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Board description (grid size, electrical parameters, port placement).
    pub board: PdnBoardSpec,
    /// Number of logarithmically spaced frequency samples (the DC point is
    /// added on top, as in the paper's data set).
    pub frequency_samples: usize,
    /// Lower band edge in hertz (paper: 1 kHz).
    pub f_min_hz: f64,
    /// Upper band edge in hertz (paper: 2 GHz).
    pub f_max_hz: f64,
    /// Scattering reference resistance (paper: 50 Ω).
    pub z_ref: f64,
    /// Decoupling capacitor value.
    pub decap_capacitance: f64,
    /// Decoupling capacitor ESR.
    pub decap_esr: f64,
    /// Decoupling capacitor ESL.
    pub decap_esl: f64,
    /// VRM series resistance.
    pub vrm_resistance: f64,
    /// VRM series inductance.
    pub vrm_inductance: f64,
    /// Die block series resistance.
    pub die_resistance: f64,
    /// Die block capacitance.
    pub die_capacitance: f64,
    /// Total switching current injected at the die ports (paper: 1 A).
    pub total_current: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            board: PdnBoardSpec::default(),
            frequency_samples: 160,
            f_min_hz: 1e3,
            f_max_hz: 2e9,
            z_ref: 50.0,
            decap_capacitance: 10e-6,
            decap_esr: 3e-3,
            decap_esl: 0.6e-9,
            vrm_resistance: 0.8e-3,
            vrm_inductance: 15e-9,
            die_resistance: 30e-3,
            die_capacitance: 60e-9,
            total_current: 1.0,
        }
    }
}

impl ScenarioConfig {
    /// A reduced-size configuration (smaller board, fewer frequency samples)
    /// used by tests and quick examples; it keeps the same qualitative
    /// behaviour while running in a fraction of the time.
    pub fn reduced() -> Self {
        ScenarioConfig {
            board: explicit_board(4, 4, vec![(1, 1), (2, 2)], vec![(0, 3)], vec![(3, 0)]),
            frequency_samples: 80,
            ..ScenarioConfig::default()
        }
    }
}

/// The built-in scenario registry: named board/termination shapes the
/// pipeline can build and sweep without hand-assembling a
/// [`ScenarioConfig`].
///
/// `Reduced` and `Paper` are the historical test-size and paper-size
/// configurations; the others open scenario diversity (decap-dense boards,
/// multiple VRMs, a minimal smoke board) so batch runs exercise the
/// weighted-vs-standard comparison across structurally different PDNs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioPreset {
    /// The reduced test-size board (4×4 grid, 2 die + 1 decap + 1 VRM,
    /// 81 frequency samples).
    Reduced,
    /// The paper-size board (6×6 grid, 4 die + 3 decap + 1 VRM,
    /// 161 frequency samples) — the default [`ScenarioConfig`].
    Paper,
    /// A densely decoupled board: the reduced 4×4 grid with three decap
    /// banks spread around the die instead of one.
    DenseDecap,
    /// A multi-VRM board: 5×5 grid fed by two VRM ports on opposite corners.
    MultiVrm,
    /// A bulk-regulation variant of the reduced board: large
    /// electrolytic-style decap banks, a weaker VRM and a heavier die load.
    BulkDecap,
    /// The minimal smoke board: a 3×3 grid with one die, one decap and one
    /// VRM port. Near-exact fits put its macromodels right on the passivity
    /// boundary, which used to break the Hamiltonian Schur iteration at
    /// fitting orders around 18 (QR non-convergence); the LAPACK-style
    /// exceptional shifts fixed that, and the preset now runs the full flow
    /// end to end.
    Minimal,
}

impl ScenarioPreset {
    /// Every built-in preset, in registry order.
    pub const ALL: [ScenarioPreset; 6] = [
        ScenarioPreset::Reduced,
        ScenarioPreset::Paper,
        ScenarioPreset::DenseDecap,
        ScenarioPreset::MultiVrm,
        ScenarioPreset::BulkDecap,
        ScenarioPreset::Minimal,
    ];

    /// Stable lowercase identifier (for reports and CLI surfaces).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioPreset::Reduced => "reduced",
            ScenarioPreset::Paper => "paper",
            ScenarioPreset::DenseDecap => "dense-decap",
            ScenarioPreset::MultiVrm => "multi-vrm",
            ScenarioPreset::BulkDecap => "bulk-decap",
            ScenarioPreset::Minimal => "minimal",
        }
    }

    /// The scenario configuration this preset stands for.
    pub fn config(self) -> ScenarioConfig {
        match self {
            ScenarioPreset::Reduced => ScenarioConfig::reduced(),
            ScenarioPreset::Paper => ScenarioConfig::default(),
            ScenarioPreset::DenseDecap => ScenarioConfig {
                // Three decap banks spread around the die instead of one.
                board: explicit_board(
                    4,
                    4,
                    vec![(1, 1), (2, 2)],
                    vec![(0, 3), (3, 3), (0, 0)],
                    vec![(3, 0)],
                ),
                ..ScenarioConfig::reduced()
            },
            ScenarioPreset::MultiVrm => ScenarioConfig {
                board: explicit_board(
                    5,
                    5,
                    vec![(2, 2), (2, 1)],
                    vec![(0, 4), (4, 4)],
                    vec![(0, 0), (4, 0)],
                ),
                frequency_samples: 80,
                // Two VRM phases: each leg is individually weaker than the
                // single nominal regulator.
                vrm_resistance: 1.5e-3,
                vrm_inductance: 22e-9,
                ..ScenarioConfig::default()
            },
            ScenarioPreset::BulkDecap => ScenarioConfig {
                // Bulk electrolytic-style decoupling, a weaker regulator and
                // a heavier die load on the reduced board.
                decap_capacitance: 47e-6,
                decap_esr: 8e-3,
                decap_esl: 1.2e-9,
                vrm_resistance: 2e-3,
                vrm_inductance: 40e-9,
                die_resistance: 50e-3,
                die_capacitance: 100e-9,
                ..ScenarioConfig::reduced()
            },
            ScenarioPreset::Minimal => ScenarioConfig {
                board: explicit_board(3, 3, vec![(1, 1)], vec![(0, 2)], vec![(2, 0)]),
                ..ScenarioConfig::reduced()
            },
        }
    }

    /// The flow configuration for this preset: every preset runs
    /// [`crate::flow::FlowConfig::default`], whose
    /// [`pim_passivity::grid::Adaptive`] sampling chases the sub-grid
    /// violation bands behind the Fig. 5 anomaly.
    ///
    /// Kept as the per-preset entry point the repository benchmark calls.
    pub fn flow_config(self) -> crate::flow::FlowConfig {
        crate::flow::FlowConfig::default()
    }

    /// Builds the preset scenario.
    ///
    /// # Errors
    ///
    /// See [`StandardScenario::build`].
    pub fn build(self) -> Result<StandardScenario> {
        StandardScenario::build(self.config())
    }
}

/// The assembled reproduction scenario: the synthetic "field-solver" data set
/// and the nominal termination network.
#[derive(Debug, Clone)]
pub struct StandardScenario {
    /// The board the data was generated from.
    pub pdn: SyntheticPdn,
    /// Tabulated scattering parameters (the macromodeling input).
    pub data: NetworkData,
    /// The nominal termination scheme (decaps, VRM, die blocks, excitation).
    pub network: TerminationNetwork,
    /// The die port at which the target impedance is observed.
    pub observation_port: usize,
    /// The configuration the scenario was built from.
    pub config: ScenarioConfig,
}

impl StandardScenario {
    /// Builds the scenario: generates the board, solves it over the frequency
    /// grid, and assembles the termination network following the paper's
    /// Sec. IV (short/RL at the VRM port, vendor-style decap models at the
    /// board ports, series-RC die models carrying a total 1 A excitation
    /// split equally, observation at the first die port).
    ///
    /// # Errors
    ///
    /// Propagates board construction, solver and termination assembly
    /// failures.
    pub fn build(config: ScenarioConfig) -> Result<Self> {
        let pdn = build_board(&config.board)?;
        let grid =
            FrequencyGrid::log_space(config.f_min_hz, config.f_max_hz, config.frequency_samples)?
                .with_dc();
        let data = pdn.circuit.scattering_parameters(&grid, config.z_ref)?;

        let ports = pdn.ports();
        let mut terminations = vec![Termination::Open; ports];
        for &p in &pdn.die_ports {
            terminations[p] = Termination::DieBlock {
                resistance: config.die_resistance,
                capacitance: config.die_capacitance,
            };
        }
        for &p in &pdn.decap_ports {
            terminations[p] = Termination::Decap {
                capacitance: config.decap_capacitance,
                esr: config.decap_esr,
                esl: config.decap_esl,
            };
        }
        for &p in &pdn.vrm_ports {
            terminations[p] = Termination::SeriesRl {
                resistance: config.vrm_resistance,
                inductance: config.vrm_inductance,
            };
        }
        let observation_port = *pdn
            .die_ports
            .first()
            .ok_or_else(|| CoreError::InvalidInput("the board defines no die port".into()))?;
        let network = TerminationNetwork::new(terminations)?
            .with_excitation(pdn.die_ports.clone(), config.total_current)?;
        Ok(StandardScenario { pdn, data, network, observation_port, config })
    }

    /// Convenience constructor for the default (paper-sized) scenario.
    ///
    /// # Errors
    ///
    /// See [`StandardScenario::build`].
    pub fn standard() -> Result<Self> {
        StandardScenario::build(ScenarioConfig::default())
    }

    /// Convenience constructor for the reduced test-sized scenario.
    ///
    /// # Errors
    ///
    /// See [`StandardScenario::build`].
    pub fn reduced() -> Result<Self> {
        StandardScenario::build(ScenarioConfig::reduced())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_pdn::{analytic_sensitivity, target_impedance};

    #[test]
    fn reduced_scenario_builds_and_is_consistent() {
        let sc = StandardScenario::reduced().unwrap();
        assert_eq!(sc.data.ports(), sc.pdn.ports());
        assert_eq!(sc.network.ports(), sc.data.ports());
        assert_eq!(sc.data.len(), sc.config.frequency_samples + 1); // + DC
        assert_eq!((sc.data.grid().freqs_hz()[0]).to_bits(), 0.0f64.to_bits());
        assert!(sc.pdn.die_ports.contains(&sc.observation_port));
    }

    #[test]
    fn reduced_scenario_exhibits_the_paper_phenomenology() {
        let sc = StandardScenario::reduced().unwrap();
        // Nominal target impedance: milliohm-level at low frequency (VRM
        // path), rising toward high frequency.
        let zt = target_impedance(&sc.data, &sc.network, sc.observation_port).unwrap();
        let mags = zt.magnitudes();
        assert!(mags[1] < 0.1, "low-frequency target impedance {}", mags[1]);
        assert!(mags[mags.len() - 1] > mags[1]);
        // The sensitivity must fall by orders of magnitude from the low end
        // of the band to the high end (Fig. 3 of the paper).
        let xi = analytic_sensitivity(&sc.data, &sc.network, sc.observation_port).unwrap();
        let low = xi[1];
        let high = xi[xi.len() - 1];
        assert!(low > 30.0 * high, "sensitivity contrast too small: low {low}, high {high}");
    }

    #[test]
    fn presets_build_and_keep_distinct_names() {
        let mut names = std::collections::BTreeSet::new();
        for preset in ScenarioPreset::ALL {
            assert!(names.insert(preset.name()), "duplicate preset name {}", preset.name());
        }
        assert_eq!(ScenarioPreset::Reduced.config().board.nx, 4);
        assert_eq!(ScenarioPreset::Paper.config().board.nx, 6);
        // The cheap presets must assemble; Paper is covered by the default
        // ScenarioConfig tests (it is the same configuration).
        for preset in [
            ScenarioPreset::DenseDecap,
            ScenarioPreset::MultiVrm,
            ScenarioPreset::BulkDecap,
            ScenarioPreset::Minimal,
        ] {
            let sc = preset.build().unwrap();
            assert_eq!(sc.network.ports(), sc.data.ports());
            assert!(sc.pdn.die_ports.contains(&sc.observation_port));
        }
        assert_eq!(ScenarioPreset::DenseDecap.build().unwrap().pdn.decap_ports.len(), 3);
        assert_eq!(ScenarioPreset::MultiVrm.build().unwrap().pdn.vrm_ports.len(), 2);
        assert_eq!(ScenarioPreset::Minimal.build().unwrap().pdn.ports(), 3);
    }

    #[test]
    fn presets_route_through_the_generator_bit_identically() {
        // The historical hand-built literals, kept here as the reference:
        // `ScenarioPreset::config` now builds these boards through
        // `BoardGenerator`'s explicit path, and the routed specs (plus the
        // netlists built from them) must be bit-identical.
        let literals: [(ScenarioPreset, PdnBoardSpec); 6] = [
            (
                ScenarioPreset::Reduced,
                PdnBoardSpec {
                    nx: 4,
                    ny: 4,
                    die_ports: vec![(1, 1), (2, 2)],
                    decap_ports: vec![(0, 3)],
                    vrm_ports: vec![(3, 0)],
                    ..PdnBoardSpec::default()
                },
            ),
            (ScenarioPreset::Paper, PdnBoardSpec::default()),
            (
                ScenarioPreset::DenseDecap,
                PdnBoardSpec {
                    nx: 4,
                    ny: 4,
                    die_ports: vec![(1, 1), (2, 2)],
                    decap_ports: vec![(0, 3), (3, 3), (0, 0)],
                    vrm_ports: vec![(3, 0)],
                    ..PdnBoardSpec::default()
                },
            ),
            (
                ScenarioPreset::MultiVrm,
                PdnBoardSpec {
                    nx: 5,
                    ny: 5,
                    die_ports: vec![(2, 2), (2, 1)],
                    decap_ports: vec![(0, 4), (4, 4)],
                    vrm_ports: vec![(0, 0), (4, 0)],
                    ..PdnBoardSpec::default()
                },
            ),
            (
                ScenarioPreset::BulkDecap,
                PdnBoardSpec {
                    nx: 4,
                    ny: 4,
                    die_ports: vec![(1, 1), (2, 2)],
                    decap_ports: vec![(0, 3)],
                    vrm_ports: vec![(3, 0)],
                    ..PdnBoardSpec::default()
                },
            ),
            (
                ScenarioPreset::Minimal,
                PdnBoardSpec {
                    nx: 3,
                    ny: 3,
                    die_ports: vec![(1, 1)],
                    decap_ports: vec![(0, 2)],
                    vrm_ports: vec![(2, 0)],
                    ..PdnBoardSpec::default()
                },
            ),
        ];
        for (preset, literal) in literals {
            let routed = preset.config().board;
            assert_eq!(routed, literal, "{}: routed spec differs", preset.name());
            // The netlists agree element for element (f64 fields compared
            // exactly through Element's PartialEq).
            let a = build_board(&routed).unwrap();
            let b = build_board(&literal).unwrap();
            assert_eq!(a.circuit.elements(), b.circuit.elements(), "{}", preset.name());
            assert_eq!(a.circuit.node_count(), b.circuit.node_count(), "{}", preset.name());
            assert_eq!(
                (a.die_ports, a.decap_ports, a.vrm_ports),
                (b.die_ports, b.decap_ports, b.vrm_ports),
                "{}",
                preset.name()
            );
        }
    }

    #[test]
    fn presets_recommend_the_adaptive_sampling_strategy() {
        for preset in ScenarioPreset::ALL {
            let config = preset.flow_config();
            assert_eq!(format!("{:?}", config.enforcement.sampling), "Adaptive");
            // Everything else stays at the paper-faithful defaults.
            let default = crate::flow::FlowConfig::default();
            assert_eq!(config.enforcement.sweep_points, default.enforcement.sweep_points);
            assert_eq!(config.vf.n_poles, default.vf.n_poles);
        }
    }

    #[test]
    fn scenario_with_invalid_board_is_rejected() {
        let mut cfg = ScenarioConfig::reduced();
        cfg.board.die_ports = vec![];
        assert!(StandardScenario::build(cfg).is_err());
        let mut cfg = ScenarioConfig::reduced();
        cfg.frequency_samples = 1;
        assert!(StandardScenario::build(cfg).is_err());
    }
}
