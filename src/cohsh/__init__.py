"""cohsh: CHSH Bell-test simulator for phase-randomized weak coherent light.

Models the full pipeline of the experiment: two independently
phase-randomized weak coherent beams (Poisson photon statistics), their
interference at a balanced beam splitter, polarization-analyzed coincidence
detection, the three-configuration background subtraction that isolates the
singlet contribution, and the CHSH statistic built from the subtracted
correlations.
"""

__version__ = "0.1.0"

from .fock import (
    AH,
    AV,
    BH,
    BV,
    CH,
    CV,
    DH,
    DV,
    MODES,
    DensityMixture,
    FockBasisState,
    ModeLabel,
    Polarization,
    Port,
    StateVector,
    VACUUM,
    basis_state,
    density_matrix,
)
from .elements import (
    ModeTransform,
    apply,
    beam_splitter,
    compose,
    phase_shift,
    polarization_rotator,
)
from .source import (
    BlockedArm,
    SourceSpec,
    coherent_state,
    phase_averaged_coherent,
    poisson_diagonal_mixture,
    poisson_pmf,
    trace_distance,
    two_mode_input,
)
from .measurement import (
    AnalyzerSetting,
    CoincidenceSemantics,
    CountTable,
    DetectorModel,
    RECOMBINER,
    analyzer_transform,
    derive_rng,
    exact_rates,
    protocol,
    run_montecarlo_coherent,
    run_montecarlo_fock,
)
from .chsh import (
    BELL_TEST_ANGLES,
    ChshResult,
    ChshRun,
    SubtractedCorrelation,
    SweepPoint,
    VisibilityFit,
    bell_angle_S,
    chsh_S,
    correlation_E,
    fit_visibility,
    run_chsh,
    setting_quad,
    subtract_background,
    sweep_correlation,
)
from .config import ConfigError, ExperimentConfig, OutputFormat, RunMode, load_config
