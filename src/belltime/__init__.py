"""Time-optimal Bell-state preparation workbench for a two-spin system.

A small numpy toolkit for designing piecewise-constant control
pulses that steer two coupled spins into the maximally entangled singlet
state in the least possible time: exact fidelity gradients for climbing,
a dual-objective optimizer that then trades pulse duration against
fidelity, interaction-coordinate (Cartan) analysis giving the coupling
limit 1/(2 g), and an emulated laboratory with deliberate model mismatch,
relaxation, noisy tomography, and a measurement-cost ledger.
"""

from .cartan import (
    CartanCoordinates,
    DegeneracyError,
    KakFactorization,
    cartan_coordinates,
    fidelity_ceiling,
    interaction_core,
    kak_factorize,
    minimum_time_bell,
    minimum_time_for_fidelity,
    minimum_time_unitary,
)
from .dynamics import (
    GradientBundle,
    PulseSequence,
    SystemModel,
    fidelity_and_gradients,
    model_fidelity,
    random_pulse,
    read_pulse_csv,
    slice_propagators,
    write_pulse_csv,
)
from .experiment import (
    ExperimentBackend,
    ExperimentConfig,
    MeasurementLedger,
    ledger_report,
)
from .linalg import (
    ket,
    pauli_string,
    singlet_state,
)
from .optimizer import (
    MODES,
    IterationRecord,
    OptimizationResult,
    OptimizerConfig,
    finite_diff_gradients,
    lower_threshold,
    run_optimization,
    verify_trace_invariants,
)
from .recipes import bell_recipe_pulse
from .runconfig import ConfigError, RunConfig, load_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "MODES",
    "CartanCoordinates",
    "ConfigError",
    "DegeneracyError",
    "ExperimentBackend",
    "ExperimentConfig",
    "GradientBundle",
    "IterationRecord",
    "KakFactorization",
    "MeasurementLedger",
    "OptimizationResult",
    "OptimizerConfig",
    "PulseSequence",
    "RunConfig",
    "SystemModel",
    "bell_recipe_pulse",
    "cartan_coordinates",
    "fidelity_and_gradients",
    "fidelity_ceiling",
    "finite_diff_gradients",
    "interaction_core",
    "kak_factorize",
    "ket",
    "ledger_report",
    "load_config",
    "lower_threshold",
    "minimum_time_bell",
    "minimum_time_for_fidelity",
    "minimum_time_unitary",
    "model_fidelity",
    "parse_config",
    "pauli_string",
    "random_pulse",
    "read_pulse_csv",
    "run_optimization",
    "singlet_state",
    "slice_propagators",
    "verify_trace_invariants",
    "write_pulse_csv",
]
