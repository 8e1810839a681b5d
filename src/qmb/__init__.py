"""Multiparameter quantum estimation bounds and incompatibility measures.

Computes the scalar bound hierarchy C_SLD <= C_H <= C_T <= C_R <= 2 C_SLD
together with the weight-independent quantumness R and the weight-dependent
measure T[W] for finite-dimensional parameterized density matrices, with
built-in tunable-qubit and SU(2) qubit/qutrit models and sweep tooling.

A preset process is mostly start-up, so `import qmb` leaves out what no
sweep of a built-in model reaches: density-matrix input, the general dual
Holevo solver and the RLD bound, in `qmb.general`.  The names of `__all__`
that it holds resolve on first use (PEP 562).
"""

from .bounds import (
    BoundsReport,
    HolevoSolution,
    ReportOptions,
    c_r_bound,
    c_sld,
    c_t_bound,
    full_report,
)
from .errors import (
    DerivativeNotTraceless,
    HierarchyViolation,
    InvalidInput,
    InvalidSpec,
    NonHermitianInput,
    QmbError,
    SingularQFIM,
    SingularState,
    StepTooLarge,
    UnknownPreset,
)
from .geometry import (
    InformationGeometry,
    geometry_from_matrices,
    quantumness_R,
    t_measure,
)
from .models import ModelConfig, model_config, su2_generators
from .sweep import (
    Axis,
    ResultRow,
    SweepResult,
    SweepSpec,
    WeightSpec,
    emit,
    figure_preset,
    run_point,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BoundsReport",
    "DerivativeNotTraceless",
    "HierarchyViolation",
    "HolevoSolution",
    "InformationGeometry",
    "InvalidInput",
    "InvalidSpec",
    "ModelConfig",
    "ModelPoint",
    "NonHermitianInput",
    "NormalSpaceBasis",
    "QmbError",
    "ReportOptions",
    "ResultRow",
    "SingularQFIM",
    "SingularState",
    "StepTooLarge",
    "SweepResult",
    "SweepSpec",
    "TSaturationReport",
    "UnknownPreset",
    "WeightSpec",
    "WeightTransform",
    "c_r_bound",
    "c_rld",
    "c_sld",
    "c_t_bound",
    "compute_geometry",
    "emit",
    "figure_preset",
    "full_report",
    "generator_geometry",
    "geometry_from_matrices",
    "holevo_tangent_min",
    "model_config",
    "model_point",
    "quantumness_R",
    "rld_qfim",
    "rld_solve",
    "run_point",
    "run_sweep",
    "sld_solve",
    "su2_generators",
    "t_measure",
    "t_saturation_analysis",
    "tangent_normal_decomposition",
    "unitary_generator",
    "weight_transform",
]


def __getattr__(name: str):
    if name in __all__:  # a name imported above is found before this is asked
        from . import general

        return getattr(general, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
