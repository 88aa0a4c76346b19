"""Symbolic-numeric homotopy-analysis solver for time-fractional
Fokker-Planck / Kolmogorov equations with Caputo derivatives."""

from .engine import (
    HatmConfig,
    OperatorMonomial,
    ProblemSpec,
    apply_operator,
    build_rm,
    deformation_step,
    h_curve,
    partial_sum,
    recombine,
    recombine_values,
    residual,
    run,
    run_report,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegreeError,
    DomainError,
    ExponentError,
    HatmError,
    PoleError,
    PresetError,
    SingularityError,
)
from .expr import (
    SpatialExpr,
    X,
    Y,
    add,
    const,
    cosh,
    coth,
    csch,
    differentiate,
    evaluate,
    mul,
    parse_prefix,
    pow_,
    recip,
    sinh,
    tanh,
    to_prefix,
)
from .fokker_planck import (
    PRESET_IDS,
    CoefficientSpec,
    build_backward,
    build_forward,
    load_problem,
    preset,
    problem_from_obj,
    reference_solution,
)
from .series import Coefficient, FracSeries, FracTerm, GammaArg, TimeFactor
from .special import MLParams, gamma, log_gamma, mittag_leffler

__version__ = "0.1.0"
