"""Online learning with kernels over sparse dictionaries.

Builds sparse dictionaries under four sparsification criteria (distance,
approximation, coherence, Babel), runs dual- and functional-framework
adaptive learners and batch kernel ridge regression, and computes the
spectral guarantees a sparse dictionary earns: eigenvalue bounds, linear
independence, condition number, and the quasi-isometry between the dual
space and the dictionary's induced feature space.
"""

from .errors import NumericalError
from .kernels import Kernel, NormRange, kernel_vector
from .dictionary import CRITERION_KINDS, CriterionConfig, Dictionary, ProjectionResult
from .spectral import (
    BoundSet,
    EigenSpectrum,
    SpectralReport,
    Violation,
    eigensolve,
    spectral_report,
    window,
)
from .learners import (
    ALGORITHMS,
    LearnerConfig,
    ModelState,
    StepOutcome,
    step,
    update_functional,
    update_lms_gram,
    update_lms_identity,
    update_nlms,
)
from .ridge import RidgeProblem, gradient, normal_residual, objective, solve
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunRecord,
    build_config,
    run_online,
    synthesize,
    verify_dictionary,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BoundSet",
    "CRITERION_KINDS",
    "ConfigError",
    "CriterionConfig",
    "Dictionary",
    "EigenSpectrum",
    "ExperimentConfig",
    "Kernel",
    "LearnerConfig",
    "ModelState",
    "NormRange",
    "NumericalError",
    "ProjectionResult",
    "RidgeProblem",
    "RunRecord",
    "SpectralReport",
    "StepOutcome",
    "Violation",
    "build_config",
    "eigensolve",
    "gradient",
    "kernel_vector",
    "normal_residual",
    "objective",
    "run_online",
    "solve",
    "spectral_report",
    "step",
    "synthesize",
    "update_functional",
    "update_lms_gram",
    "update_lms_identity",
    "update_nlms",
    "verify_dictionary",
    "window",
]
