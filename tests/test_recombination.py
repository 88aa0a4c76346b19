"""engine.run (one hbar-free recursion, then binomial recombination)
against the direct recursion that carries hbar through every step, and
engine.h_curve (recombination of numbers) against recombined series."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PROBLEMS, direct_iterates
from hatmfp.engine import HatmConfig, h_curve, partial_sum, recombine, run
from hatmfp.fokker_planck import preset

POINTS = [(0.6, 0.1), (1.0, 0.3), (1.5, 0.7)]


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


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@settings(max_examples=6, deadline=None)
@given(
    hbar=st.floats(min_value=-2.0, max_value=-0.1),
    alpha=st.sampled_from((0.5, 0.75, 1.0)),
)
def test_h_curve_matches_recombined_partial_sum(name, hbar, alpha):
    # h_curve evaluates each hbar-free iterate once and recombines the
    # numbers; the reference recombines the series and evaluates each
    # partial sum S_0..S_M.
    problem, keywords = PROBLEMS[name]
    cfg = HatmConfig(alpha=alpha, hbar=-1.0, **keywords)
    free = run(problem, cfg)
    recombined = recombine(free, hbar)
    totals = [partial_sum(recombined, n) for n in range(cfg.order + 1)]
    y = 0.8 if problem.dim == 2 else 0.0
    for x, t in POINTS:
        ((_, sums),) = h_curve(problem, cfg, (x, y, t), [hbar])
        assert len(sums) == len(totals)
        for n, (got, total) in enumerate(zip(sums, totals)):
            want = total.evaluate(x, t, alpha, y)
            scale = max(abs(want), abs(free[0].evaluate(x, t, alpha, y)))
            assert abs(got - want) <= 1e-12 * scale, (n, x, t, got, want)


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

