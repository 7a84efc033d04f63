"""quadmode: closed-form dynamics of one radiation mode under a
time-dependent quadratic Hamiltonian, with squeezing and phase observables
and Monte Carlo support for randomly varying media."""

__version__ = "0.1.0"

from .errors import (
    QuadmodeError,
    ConfigError,
    CoefficientEvaluationError,
    SingularCoefficientError,
    InvalidMediumError,
    StiffnessError,
    BlowUpError,
    PathRejectedError,
    EnsembleError,
)
from .coefficients import (
    ConstantFunction,
    ExponentialFunction,
    SinusoidFunction,
    TableFunction,
    CoefficientSet,
    MediumProfile,
    medium_to_hamiltonian,
    preset_coefficients,
)
from .characteristic import classical_mode_equivalence
from .ermakov import ErmakovInit, build_frame, closed_form_path
from .verify import riccati_oracle, quasi_invariants
from .observables import compute_observables
from .stochastic import NoiseSpec, sample_path, run_ensemble

__all__ = [
    "__version__",
    "QuadmodeError",
    "ConfigError",
    "CoefficientEvaluationError",
    "SingularCoefficientError",
    "InvalidMediumError",
    "StiffnessError",
    "BlowUpError",
    "PathRejectedError",
    "EnsembleError",
    "ConstantFunction",
    "ExponentialFunction",
    "SinusoidFunction",
    "TableFunction",
    "CoefficientSet",
    "MediumProfile",
    "medium_to_hamiltonian",
    "preset_coefficients",
    "classical_mode_equivalence",
    "ErmakovInit",
    "build_frame",
    "closed_form_path",
    "riccati_oracle",
    "quasi_invariants",
    "compute_observables",
    "NoiseSpec",
    "sample_path",
    "run_ensemble",
]
