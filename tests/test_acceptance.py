"""Acceptance gate: every release-blocking check in one place.

Each test prints one PASS/FAIL line (run pytest with -s to see them on
success; on failure the line surfaces with the captured output).
"""

import functools
import math
import random
import time

import pytest

from helpers import (
    assert_q_map_close,
    constant_image_coeffs,
    gamma1,
    identity_coeffs,
    q_coefficient_map,
    random_series,
)
from hatmfp.engine import HatmConfig, partial_sum, recombine, residual, run
from hatmfp.expr import X, add, evaluate, pow_
from hatmfp.fokker_planck import preset
from hatmfp.series import FracSeries
from hatmfp.special import mittag_leffler

GRID_X = [0.5 + 1.5 * i / 4 for i in range(5)]
GRID_T = [i / 4 for i in range(5)]


def checkpoint(label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[{label}] FAIL", flush=True)
                raise
            print(f"[{label}] PASS", flush=True)

        return inner

    return wrap


@checkpoint("1 iterate tables, all presets x (alpha, hbar)")
def test_iterate_tables():
    # u_1..u_3 of every driftless-to-quadratic preset against the hand
    # recursion, coefficient by coefficient
    start = time.perf_counter()
    x, y = 1.25, 0.8
    profiles = {"4.3": add(X, 1), "4.4": X, "4.5": pow_(X, 2)}
    for alpha in (0.5, 0.75, 1.0):
        for h in (-1.0, -0.7):
            for pid in ("4.1", "4.3", "4.4", "4.5"):
                us = recombine(run(preset(pid), HatmConfig(alpha=alpha, order=3)), h)
                for m in (1, 2, 3):
                    got = q_coefficient_map(us[m], alpha, x, y)
                    if pid == "4.1":
                        want = constant_image_coeffs(m, h, alpha)
                    else:
                        fval = evaluate(profiles[pid], x, y)
                        want = {
                            q: c * fval for q, c in identity_coeffs(m, h, alpha).items()
                        }
                    assert_q_map_close(got, want, rel=1e-10)
    assert time.perf_counter() - start < 5.0


@checkpoint("2 hyperbolic preset collapses to sinh(x) t^(m a)/G(m a + 1)")
def test_hyperbolic_iterate_collapse():
    x = 1.3
    for alpha in (0.5, 1.0):
        us = run(preset("4.2"), HatmConfig(alpha=alpha, order=5))
        for m in range(6):
            got = q_coefficient_map(us[m], alpha, x)
            want = {m: math.sinh(x) / gamma1(m, alpha)}
            assert_q_map_close(got, want, rel=1e-10)


@checkpoint("3 classical limits on the grid, order 15")
def test_classical_limits():
    start = time.perf_counter()
    forms = {
        "4.1": lambda x, y, t: x + t,
        "4.2": lambda x, y, t: math.sinh(x) * math.exp(t),
        "4.3": lambda x, y, t: (x + 1) * math.exp(t),
        "4.4": lambda x, y, t: x * math.exp(t),
        "4.5": lambda x, y, t: x**2 * math.exp(t),
    }
    config = HatmConfig(alpha=1.0, order=15)
    for pid, exact in forms.items():
        prob = preset(pid)
        total = partial_sum(run(prob, config), 15)
        y = 0.8 if prob.dim == 2 else 0.0
        worst = max(
            abs(total.evaluate(x, t, 1.0, y) - exact(x, y, t))
            for x in GRID_X
            for t in GRID_T
        )
        assert worst < 1e-8, f"{pid}: max abs err {worst}"
    assert time.perf_counter() - start < 10.0


@checkpoint("4 fractional sums reach f(x) E_a(t^a), order 25")
def test_fractional_limits():
    mitag = {"4.2": math.sinh, "4.3": lambda x: x + 1, "4.4": lambda x: x}
    for alpha in (0.5, 0.75):
        config = HatmConfig(alpha=alpha, order=25)
        for pid, f in mitag.items():
            prob = preset(pid)
            total = partial_sum(run(prob, config), 25)
            y = 0.7 if prob.dim == 2 else 0.0
            for x in (0.5, 1.0, 1.6, 2.0):
                for t in (0.2, 0.6, 1.0):
                    want = f(x) * mittag_leffler(alpha, t**alpha)
                    got = total.evaluate(x, t, alpha, y)
                    assert abs(got - want) < 1e-8, (pid, alpha, x, t, got - want)
        total = partial_sum(run(preset("4.1"), config), 25)
        for x in (0.5, 1.25, 2.0):
            for t in (0.0, 0.4, 1.0):
                want = x + t**alpha / gamma1(1, alpha)
                assert abs(total.evaluate(x, t, alpha) - want) < 1e-12


@checkpoint("5 nonlinear residual falls with order")
def test_nonlinear_residual_decreases():
    prob = preset("4.5")
    probe = [(1.0, 0.0, 0.3)]
    values = []
    for order in (2, 4, 8, 12):
        config = HatmConfig(alpha=1.0, order=order)
        values.append(residual(prob, run(prob, config), 1.0, -1.0, probe)[0])
    assert all(a > b for a, b in zip(values, values[1:])), values
    assert values[-1] < 1e-6, values


@checkpoint("6 algebra invariants (round-trip, linearity, products, ...)")
def test_algebra_invariants():
    rng = random.Random(2026)
    points = [(0.7, 0.3), (1.3, 0.8), (1.9, 0.5)]
    alphas = (0.4, 0.75, 1.0)

    # derivative-after-integral round-trip on 100 random pure-power series
    for _ in range(100):
        s = random_series(rng)
        rt = s.frac_integral().caputo_derivative()
        for alpha in alphas:
            for x, t in points:
                assert rt.evaluate(x, t, alpha) == pytest.approx(
                    s.evaluate(x, t, alpha), rel=1e-12, abs=1e-12
                )

    # the derivative is linear
    for _ in range(20):
        s1, s2 = random_series(rng), random_series(rng)
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        lhs = s1.scale(a).add(s2.scale(b)).caputo_derivative()
        rhs = s1.caputo_derivative().scale(a).add(s2.caputo_derivative().scale(b))
        for alpha in alphas:
            for x, t in points:
                assert lhs.evaluate(x, t, alpha) == pytest.approx(
                    rhs.evaluate(x, t, alpha), rel=1e-12, abs=1e-12
                )

    # spatial derivatives against central differences
    for _ in range(20):
        s = random_series(rng)
        d = s.spatial_derivative("x")
        eps = 1e-6
        for x, t in points:
            fd = (s.evaluate(x + eps, t, 0.75) - s.evaluate(x - eps, t, 0.75)) / (
                2 * eps
            )
            assert d.evaluate(x, t, 0.75) == pytest.approx(fd, rel=1e-6, abs=1e-6)

    # products evaluate pointwise
    for _ in range(20):
        s1, s2 = random_series(rng), random_series(rng)
        prod = s1.multiply(s2)
        for alpha in alphas:
            for x, t in points:
                want = s1.evaluate(x, t, alpha) * s2.evaluate(x, t, alpha)
                assert prod.evaluate(x, t, alpha) == pytest.approx(
                    want, rel=1e-10, abs=1e-10
                )

    # collect is idempotent
    for _ in range(20):
        s = random_series(rng, 5)
        assert FracSeries(s.terms) == s

    # two identical runs serialize to identical bytes
    config = HatmConfig(alpha=0.75, order=5)
    one = partial_sum(recombine(run(preset("4.5"), config), -0.9), 5).to_json()
    two = partial_sum(recombine(run(preset("4.5"), config), -0.9), 5).to_json()
    assert one == two
