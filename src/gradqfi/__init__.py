"""Fisher-information bounds for estimating a magnetic field gradient
with a chain of qubits.

A chain of N qubits at positions x_1..x_N sits in a field B(x) = B0 +
(x - x0) G.  The package computes the quantum and classical Fisher
information of the standard probe families (GHZ, product, two-branch
decoherence-free, Dicke), analytic placement and timing optima, the
effect of collective phase noise (analytic channel and an exact-moment
Monte Carlo), and parity / J_x measurement statistics; a CLI emits all
of it as deterministic CSV/JSON.
"""

from .core import (
    ChainConfig,
    FieldProfile,
    LINEAR,
    PhysParams,
    SparseState,
    SpectralState,
    State,
    evolve,
    make_chain,
    make_named_state,
)
from .errors import (
    ComputationError,
    DegenerateGeometry,
    DimensionTooLarge,
    EmptyChain,
    FlatResponse,
    GradQfiError,
    InvalidProfile,
    LengthMismatch,
    NegativeTime,
    NoNoise,
    NonFiniteCoordinate,
    NonNormalizedState,
    NumericOverflow,
    OutOfRange,
    OutputError,
    SearchSpaceTooLarge,
    SelfCheckFailed,
    SpectrumNotPositive,
    SupportTooLarge,
    ValidationError,
    ZeroTrajectories,
)
from .measurement import (
    OutcomeDistribution,
    classical_fisher,
    error_propagation,
    jx_distribution,
    parity_distribution,
    parity_expectation,
    theta_for_saturation,
)
from .noise import (
    NoiseModel,
    TrajectoryEnsemble,
    apply_channel,
    coherence_factor,
    correlation_integral,
    mc_coherence_magnitude,
    mc_trajectory_average,
    steady_twirl,
)
from .qfi import (
    FisherReport,
    qfi_dfs_max,
    qfi_dfs_subspace,
    qfi_dicke,
    qfi_general,
    qfi_max_entangled,
    qfi_max_separable,
    qfi_noisy_ghz,
    qfi_noisy_psim,
    qfi_product_steady,
    qfi_pure,
)
from .scenarios import (
    PlacementSpec,
    SweepResult,
    TableOne,
    brute_force_placement_search,
    critical_time,
    fit_loglog_slope,
    generate_placement,
    optimal_time_ghz,
    sweep_fig3,
    sweep_fig4,
    sweep_fig5,
    table1,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "ChainConfig", "FieldProfile", "LINEAR", "PhysParams",
    "SparseState", "SpectralState", "State",
    "evolve", "make_chain", "make_named_state",
    # errors
    "GradQfiError", "ValidationError", "ComputationError",
    "EmptyChain", "NonFiniteCoordinate", "LengthMismatch", "OutOfRange",
    "InvalidProfile", "NonNormalizedState", "SupportTooLarge",
    "DimensionTooLarge", "NegativeTime", "ZeroTrajectories",
    "SearchSpaceTooLarge", "FlatResponse", "DegenerateGeometry", "NoNoise",
    "SpectrumNotPositive", "NumericOverflow", "SelfCheckFailed", "OutputError",
    # qfi
    "FisherReport", "qfi_general", "qfi_pure", "qfi_max_entangled",
    "qfi_max_separable", "qfi_dfs_subspace", "qfi_dfs_max", "qfi_noisy_ghz",
    "qfi_noisy_psim", "qfi_product_steady", "qfi_dicke",
    # noise
    "NoiseModel", "TrajectoryEnsemble", "apply_channel", "coherence_factor",
    "correlation_integral", "mc_coherence_magnitude", "mc_trajectory_average",
    "steady_twirl",
    # measurement
    "OutcomeDistribution", "classical_fisher", "error_propagation",
    "jx_distribution", "parity_distribution", "parity_expectation",
    "theta_for_saturation",
    # scenarios
    "PlacementSpec", "SweepResult", "TableOne", "generate_placement",
    "critical_time", "optimal_time_ghz", "brute_force_placement_search",
    "sweep_fig3", "sweep_fig4", "sweep_fig5", "table1", "fit_loglog_slope",
]
