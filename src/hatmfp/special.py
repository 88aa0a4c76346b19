"""The one-parameter Mittag-Leffler function used by the reference
solutions; its gamma values come from the C library (``math.gamma``).
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError
from .expr import require_finite

ML_REL_TOL = 1e-16


def _ml_term(zk: float, z: float, k: int, x: float) -> float:
    """z**k / gamma(x), given zk, z**k as repeated float products: their
    quotient while both fit a float, from logarithms past that, and inf
    where the term itself overflows."""
    if math.isfinite(zk):
        try:
            return zk / math.gamma(x)
        except OverflowError:
            if zk == 0.0:
                return 0.0
            log_zk = math.log(abs(zk))
    else:
        log_zk = k * math.log(abs(z))
    try:
        return math.copysign(math.exp(log_zk - math.lgamma(x)), zk)
    except OverflowError:
        return math.inf


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) = sum_k z^k / gamma(alpha*k + 1), for alpha > 0.

    The terms rise to a peak near k = |z|**(1/alpha) / alpha and fall
    after it; the sum stops at the first term past the peak below
    ML_REL_TOL times the running sum. A sum that overflows a float, that
    needs more than (3 |z|**(1/alpha) + 40) / min(alpha, 1) terms (capped
    at a million, for alpha near 0), or whose largest term exceeds it by
    more than 1 / sqrt(ML_REL_TOL), so that cancellation left less than
    half its digits, is treated as non-convergent at this argument.
    """
    if not alpha > 0.0:
        raise DomainError(f"mittag_leffler needs alpha > 0, got {alpha}")
    require_finite(z=z)
    try:
        reach = abs(z) ** (1.0 / alpha)
    except OverflowError:
        reach = math.inf
    budget = min((3.0 * reach + 40.0) / min(alpha, 1.0), 1e6)
    total = largest = 0.0
    zk = 1.0  # z**k, updated in place
    k = 0
    while k <= budget:
        term = _ml_term(zk, z, k, alpha * k + 1.0)
        total += term
        if not math.isfinite(total):
            break
        largest = max(largest, abs(term))
        if k * alpha >= reach and abs(term) <= ML_REL_TOL * abs(total):
            if largest * math.sqrt(ML_REL_TOL) > abs(total):
                break
            return total
        zk *= z
        k += 1
    raise ConvergenceError(f"mittag_leffler did not converge by term {k} (alpha={alpha}, z={z})")
