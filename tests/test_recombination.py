"""engine.run (one hbar-free recursion, then binomial recombination)
against the direct recursion that carries hbar through every step."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import direct_iterates
from hatmfp.engine import HatmConfig, ProblemSpec, partial_sum, recombine, run
from hatmfp.expr import ONE, X, cosh, mul, pow_, sinh
from hatmfp.fokker_planck import CoefficientSpec, build_backward, build_forward, preset
from hatmfp.series import FracSeries

POINTS = [(0.6, 0.1), (1.0, 0.3), (1.5, 0.7)]

# name -> (problem, HatmConfig keywords besides alpha and hbar)
PROBLEMS = {
    **{pid: (preset(pid), {"order": 4}) for pid in ("4.1", "4.2", "4.3", "4.4", "4.5")},
    # W2: forward, A = 0, B = u, f = sinh x (quadratic convolution)
    "W2": (
        build_forward(1, [[]], [[CoefficientSpec(ONE, u_degree=1)]], sinh(X)),
        {"order": 5},
    ),
    # W1: backward, A = -x, B = x^2 e^t, f = cosh x (Taylor-truncated)
    "W1": (
        build_backward(
            1, [mul(-1, X)], [[CoefficientSpec(pow_(X, 2), exp_rate=1)]], cosh(X)
        ),
        {"order": 2, "taylor_terms": 6},
    ),
    # no operator: D^alpha u = t^alpha, u(x, 0) = x
    "source": (
        ProblemSpec(
            dim=1, operator=(), initial=X,
            source=FracSeries.from_spatial(ONE, q=1),
        ),
        {"order": 4},
    ),
}


def assert_partial_sums_close(problem, got, want, alpha, rel):
    """Every partial sum S_0..S_M agrees at POINTS, relative to |S_n|, or
    to the initial profile where S_n nearly cancels."""
    y = 0.8 if problem.dim == 2 else 0.0
    for n in range(len(want)):
        s_got, s_want = partial_sum(got, n), partial_sum(want, n)
        for x, t in POINTS:
            g = s_got.evaluate(x, t, alpha, y)
            w = s_want.evaluate(x, t, alpha, y)
            scale = max(abs(w), abs(want[0].evaluate(x, t, alpha, y)))
            assert abs(g - w) <= rel * scale, (n, x, t, g, w)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@settings(max_examples=6, deadline=None)
@given(
    hbar=st.floats(min_value=-2.0, max_value=-0.1),
    alpha=st.sampled_from((0.5, 0.75, 1.0)),
)
def test_run_matches_direct_recursion(name, hbar, alpha):
    problem, keywords = PROBLEMS[name]
    cfg = HatmConfig(alpha=alpha, hbar=hbar, **keywords)
    got, want = run(problem, cfg), direct_iterates(problem, cfg)
    assert len(got) == len(want) == cfg.order + 1
    assert_partial_sums_close(problem, got, want, alpha, rel=1e-12)


@pytest.mark.parametrize("hbar", (-2.5, -2.3))
def test_recombination_error_at_large_one_plus_hbar(hbar):
    # The weights grow like |1 + hbar|^order. At -2.5 every weight is an
    # exact binary fraction and the two paths agree bit for bit; -2.3
    # rounds, and its measured worst gap at order 10 is 5.2e-13.
    problem = preset("4.5")
    for alpha in (0.5, 0.75, 1.0):
        cfg = HatmConfig(alpha=alpha, hbar=hbar, order=10)
        assert_partial_sums_close(
            problem, run(problem, cfg), direct_iterates(problem, cfg), alpha, rel=1e-12
        )


def test_w2_binds_to_one_term_per_iterate():
    # At the run's alpha every W2 iterate is t^(m alpha) times a
    # polynomial in sinh x; symbolic in alpha, u_10 has 194 terms.
    problem = PROBLEMS["W2"][0]
    cfg = HatmConfig(alpha=0.5, hbar=-1.0, order=10)
    got = run(problem, cfg)
    assert [len(u.terms) for u in got] == [1] * 11
    assert_partial_sums_close(problem, got, direct_iterates(problem, cfg), 0.5, rel=1e-12)


def test_recombine_at_minus_one_keeps_free_iterates():
    free = run(preset("4.5"), HatmConfig(alpha=0.5, hbar=-1.0, order=4))
    assert recombine(free, -1.0) == free

