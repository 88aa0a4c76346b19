"""Scalar special functions: gamma, log-gamma, and the one-parameter
Mittag-Leffler family used by the reference solutions.

gamma/log_gamma wrap the C library implementations (Lanczos-class
accuracy), with the domain errors normalised to package exceptions.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, PoleError, Value, store

ML_REL_TOL = 1e-16
ML_MAX_TERMS = 200


def gamma(x: float) -> float:
    """Gamma function on the real line, poles excluded."""
    if x <= 0.0 and float(x).is_integer():
        raise PoleError(f"gamma has a pole at {x}")
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """log(gamma(x)) for x > 0; avoids overflow of gamma itself."""
    if x <= 0.0:
        raise DomainError(f"log_gamma needs x > 0, got {x}")
    return math.lgamma(x)


class MLParams(Value):
    """Parameters of the Mittag-Leffler series E_{alpha,beta}."""

    _fields = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float = 1.0) -> None:
        if not alpha > 0.0:
            raise DomainError(f"mittag_leffler needs alpha > 0, got {alpha}")
        store(self, "alpha", alpha)
        store(self, "beta", beta)


def mittag_leffler(params: MLParams, z: float) -> float:
    """E_{alpha,beta}(z) = sum_k z^k / gamma(alpha*k + beta).

    Terms are accumulated until one drops below ML_REL_TOL times the
    running sum; if ML_MAX_TERMS terms do not get there the series is
    treated as non-convergent at this argument.
    """
    total = 0.0
    zk = 1.0  # z**k, updated in place
    for k in range(ML_MAX_TERMS):
        try:
            term = zk / gamma(params.alpha * k + params.beta)
        except OverflowError:
            break
        total += term
        if not math.isfinite(total):
            break
        if abs(term) <= ML_REL_TOL * abs(total):
            return total
        zk *= z
    raise ConvergenceError(
        f"mittag_leffler did not converge in {ML_MAX_TERMS} terms "
        f"(alpha={params.alpha}, beta={params.beta}, z={z})"
    )
