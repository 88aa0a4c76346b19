import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatmfp.errors import ConvergenceError, DomainError
from hatmfp.series import Coefficient, FracSeries, GammaArg
from hatmfp.special import mittag_leffler
from helpers import heat_gaussian, subordinated

SQRT_PI = math.sqrt(math.pi)

# The package takes gamma values from the C library where a coefficient
# folds a gamma token without an alpha part into its factor, and from
# lgamma where Coefficient.value resolves the other tokens. The gamma
# tests below check both.


def folded(x: float) -> float:
    """The factor of gamma(x) as a folded token."""
    return Coefficient.number(1.0).gamma_ratio(GammaArg(Fraction(x), 0), GammaArg(1, 0)).factor


def resolved(x: float) -> float:
    """gamma(x) resolved in log space: the token 0 + 1*alpha, which has an
    alpha part and so never folds, read at alpha = x."""
    return Coefficient(1.0, (GammaArg(0, 1),), ()).value(x)


@pytest.mark.parametrize(
    "x,want",
    [
        (0.5, SQRT_PI),
        (1.5, SQRT_PI / 2.0),
        (2.5, 3.0 * SQRT_PI / 4.0),
        (3.5, 15.0 * SQRT_PI / 8.0),
        (1.0, 1.0),
        (5.0, 24.0),
        (11.0, 3628800.0),
    ],
)
def test_gamma_exact_values(x, want):
    assert folded(x) == pytest.approx(want, rel=1e-14)
    assert resolved(x) == pytest.approx(want, rel=1e-14)


def test_gamma_against_mpmath_grid():
    # log-spaced sweep over the working range of the solver coefficients
    for i in range(60):
        x = 0.1 * (500.0 ** (i / 59.0))
        want = float(mpmath.gamma(x))
        assert folded(x) == pytest.approx(want, rel=1e-13), x
        assert resolved(x) == pytest.approx(want, rel=1e-13), x


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
def test_gamma_pole(x):
    # a token at a pole of gamma is refused where a report is read
    obj = {"coef_tokens": [{"factor": 1.0, "num": [[str(Fraction(x)), 0]], "den": []}],
           "spatial": "x", "p": "0", "q": 0, "c": 0}
    with pytest.raises(DomainError, match="not positive"):
        FracSeries.from_obj([obj])


def test_gamma_negative_nonpole():
    # gamma(-0.5) < 0, whose sign lgamma would drop: the token is refused
    with pytest.raises(DomainError, match="not positive"):
        folded(-0.5)


@pytest.mark.parametrize(
    "make",
    [
        # gamma(-1.5 + 0.75) < 0
        lambda: Coefficient(1.0, (GammaArg(Fraction(-3, 2), 1),), ()).value(0.75),
        # the pole of gamma at 0
        lambda: Coefficient.number(1.0).gamma_ratio(GammaArg(Fraction(0), 0), GammaArg(1, 0)),
        # 1/2 - alpha is negative at alpha = 1
        lambda: GammaArg(Fraction(1, 2), -1),
        # 1 - alpha is 0 at alpha = 1
        lambda: GammaArg(Fraction(1), -1),
    ],
    ids=["negative", "pole", "negative-at-one", "pole-at-one"],
)
def test_gamma_token_off_the_positive_axis_is_refused_where_made(make):
    with pytest.raises(DomainError, match="not positive"):
        make()


def test_gamma_tokens_on_the_positive_axis_are_made():
    # alpha > 0 and 3/2 - alpha >= 1/2 on (0, 1]
    assert GammaArg(Fraction(0), 1).value(0.5) == 0.5
    assert GammaArg(Fraction(3, 2), -1).value(1.0) == 0.5


@given(st.floats(min_value=0.1, max_value=20.0))
def test_gamma_recurrence(x):
    # gamma(x + 1) / gamma(x) = x, as a ratio of tokens in alpha
    a = Fraction(x)
    ratio = Coefficient(1.0, (GammaArg(a, 1),), (GammaArg(a, 0),))
    assert ratio.value(1.0) == pytest.approx(x, rel=1e-12)


def test_ml_reduces_to_exp():
    for i in range(51):
        z = -5.0 + 10.0 * i / 50.0
        want = math.exp(z)
        assert mittag_leffler(1.0, z) == pytest.approx(want, rel=1e-12)


def test_ml_alpha_two_is_cosh_sqrt():
    for z in (0.0, 0.3, 1.0, 2.7, 6.0):
        want = math.cosh(math.sqrt(z))
        assert mittag_leffler(2.0, z) == pytest.approx(want, rel=1e-12)


def test_ml_against_mpmath_fractional():
    for alpha in (0.5, 0.75, 0.9):
        for z in (0.0, 0.25, 0.7, 1.0):
            want = float(mpmath.re(mpmath.mp.mpf(1) * mpmath_ml(alpha, z)))
            got = mittag_leffler(alpha, z)
            assert got == pytest.approx(want, rel=1e-10), (alpha, z)


def mpmath_ml(alpha: float, z: float, terms: int = 300):
    with mpmath.workdps(40):
        return mpmath.nsum(lambda k: mpmath.mpf(z) ** k / mpmath.gamma(alpha * k + 1), [0, terms])


def test_ml_at_zero_is_one():
    assert mittag_leffler(0.5, 0.0) == 1.0
    assert mittag_leffler(200.0, 0.0) == 1.0


def test_ml_monotone_fractional():
    values = [mittag_leffler(0.5, z / 10.0) for z in range(31)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_ml_nonconvergent_raises():
    # E_{1/4}(60) is about 4 exp(60^4): the sum overflows a float
    with pytest.raises(ConvergenceError):
        mittag_leffler(0.25, 60.0)
    # E_{1/2}(-12) is about 0.047, from terms up to 1e62 that cancel
    with pytest.raises(ConvergenceError):
        mittag_leffler(0.5, -12.0)


@pytest.mark.parametrize(
    "alpha, z", [(1.0, 300.0), (0.5, math.sqrt(50.0)), (0.75, 60.0)]
)
def test_ml_past_gamma_overflow_matches_mpmath(alpha, z):
    # the terms peak near k = z^(1/alpha) / alpha, past gamma's float range
    # at 171; E_1(300) = e^300 and E_{1/2}(sqrt 50) = 1.037e22
    with mpmath.workdps(60):
        terms = int(3 * abs(z) ** (1 / alpha) / alpha) + 200
        want = float(mpmath.fsum(
            mpmath.mpf(z) ** k / mpmath.gamma(mpmath.mpf(alpha) * k + 1) for k in range(terms)
        ))
    assert mittag_leffler(alpha, z) == pytest.approx(want, rel=1e-12)


def test_ml_past_the_float_range_of_gamma_and_of_the_reach():
    # at alpha = 171 the gamma of the k = 1 term overflows a float, so the
    # term comes from logarithms: 1e285 / gamma(172) is about 8e-25
    assert mittag_leffler(171.0, 1e285) == 1.0
    assert mittag_leffler(171.0, -1e285) == 1.0
    # 1e10**100 overflows a float, and so does the sum, by term 31
    with pytest.raises(ConvergenceError, match="by term 31 "):
        mittag_leffler(0.01, 1e10)


@pytest.mark.parametrize("alpha", [41.0, 43.0, 60.0, 200.0])
@pytest.mark.parametrize("z", [0.0, 0.5, -3.0, 1e50, -1e50])
def test_ml_of_a_large_alpha_matches_mpmath(alpha, z):
    # the terms peak near k = |z|**(1/alpha) / alpha, below 1 here, and the
    # sum needs the term after the peak however large alpha is
    with mpmath.workdps(60):
        want = float(mpmath.fsum(
            mpmath.mpf(z) ** k / mpmath.gamma(mpmath.mpf(alpha) * k + 1) for k in range(20)
        ))
    assert mittag_leffler(alpha, z) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_ml_refuses_a_point_that_is_not_finite(z):
    with pytest.raises(DomainError, match=f"^z must be finite, got {z}$"):
        mittag_leffler(0.5, z)


def test_ml_params_validation():
    for alpha in (0.0, -0.3, math.nan):
        with pytest.raises(DomainError, match="needs alpha > 0"):
            mittag_leffler(alpha, 1.0)


@given(st.floats(min_value=0.3, max_value=1.0), st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=40)
def test_ml_positive_on_positive_axis(alpha, z):
    assert mittag_leffler(alpha, z) >= 1.0


# ------------------------------------------------------ subordination oracle


@pytest.mark.parametrize("z", [0.5, 3.0])
def test_subordination_oracle_gives_the_mittag_leffler_function(z):
    # exp(z t) subordinates to E_{1/2}(z t**(1/2)); at t = 1 to E_{1/2}(z)
    got = subordinated(lambda t: mpmath.exp(z * t), 1.0)
    assert got == pytest.approx(mittag_leffler(0.5, z), rel=1e-15)


def test_subordination_oracle_where_the_series_gives_up():
    # E_{1/2}(-5) = exp(25) erfc(5); the alternating series does not converge
    got = subordinated(lambda t: mpmath.exp(-5 * t), 1.0)
    assert got == pytest.approx(float(mpmath.exp(25) * mpmath.erfc(5)), rel=1e-15)
    assert got == pytest.approx(0.1107046377, abs=1e-10)
    with pytest.raises(ConvergenceError):
        mittag_leffler(0.5, -5.0)


def test_subordination_oracle_of_the_heat_kernel():
    # u_t^(1/2) = u_xx from exp(-x**2) at (x, t) = (0.7, 0.1), where the
    # iterates diverge: the value a resummation of them is to reach
    assert subordinated(heat_gaussian(0.7), 0.1) == pytest.approx(0.5312634487, abs=1e-10)
