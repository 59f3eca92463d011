"""The shared solver and Gauss-Legendre panels."""
import numpy as np
import pytest

from saddletail._numerics import GL_WEIGHTS, gl_panels, solve_increasing
from saddletail.errors import NotConverged


def log_singular(c, t):
    """-ln(c - x) - t: increasing on [0, c), root c - exp(-t), singular at c."""

    def fun(x, i):
        return -np.log(c[i] - x) - t[i], 1.0 / (c[i] - x)

    return fun


def test_gl_panels_integrates_polynomials_exactly():
    nodes, wts = gl_panels(-1.0, 2.0, 3)
    assert nodes.shape == wts.shape == (48,)
    assert np.all(np.diff(nodes) > 0.0)  # panel-major ordering is ascending
    assert np.array_equal(wts[:16], GL_WEIGHTS * 0.5)
    assert float(nodes**31 @ wts) == pytest.approx((2.0**32 - 1.0) / 32.0, rel=1e-13)


def test_converges_on_log_singular_residual():
    # roots down to 1e-13 from the singularity.  Newton from left of a root
    # overshoots past c; clipped to the bracket end instead, it would crawl
    # back by a factor of about ln(distance ratio) per step
    t = np.array([0.5, 5.0, 20.0, 30.0])
    c = np.full(4, 2.0)
    root = c - np.exp(-t)
    hi = np.nextafter(c, 0.0)
    for start in (None, 0.0):  # the midpoint, or the far end of the bracket
        x = solve_increasing(log_singular(c, t), 0.0, hi, start, tol=1e-15)
        assert np.max(np.abs(x - root)) <= 1e-15


def test_subset_of_batch_gives_bitwise_same_roots():
    # cube roots over 12 decades need very different iteration counts; a
    # converged root that kept iterating would drift by an ulp at a time
    c = np.exp(np.random.default_rng(3).uniform(np.log(1e-9), np.log(1e3), 256))

    def cube(c):
        return lambda x, i: (x**3 - c[i], 3.0 * x**2)

    full = solve_increasing(cube(c), 0.0, np.full(256, 10.0), tol=1e-14)
    assert np.max(np.abs(full**3 / c - 1.0)) <= 1e-15
    for pick in np.arange(256).reshape(64, 4):
        part = solve_increasing(cube(c[pick]), 0.0, np.full(4, 10.0), tol=1e-14)
        assert np.array_equal(part, full[pick])


def test_start_on_root_stays_there():
    calls = []

    def fun(x, i):
        calls.append(len(i))
        return x - 0.25, np.ones_like(x)

    x = solve_increasing(fun, np.zeros(3), 1.0, np.full(3, 0.25), tol=0.0, max_iter=5)
    assert np.array_equal(x, np.full(3, 0.25))
    assert calls == [3]


@pytest.mark.parametrize("slope", [0.0, -1.0, np.nan])
def test_bad_slope_falls_back_to_bisection(slope):
    seen = []

    def fun(x, i):
        seen.append(x.copy())
        return x**3 - 0.1, np.full_like(x, slope)

    x = solve_increasing(fun, np.zeros(1), 1.0, tol=1e-15)
    assert abs(float(x[0]) - 0.1 ** (1.0 / 3.0)) <= 2e-15
    # every iterate is a bisection midpoint: 1/2, then 1/4, 3/8, ...
    assert float(seen[0][0]) == 0.5 and float(seen[1][0]) == 0.25
    assert 45 <= len(seen) <= 60


def test_newton_onto_evaluated_end_bisects():
    # a residual that is all noise near its root: Newton from either side
    # lands exactly on the other bracket end, so only bisection makes progress
    def fun(x, i):
        return np.where(x >= 0.3, 2.0**-5, -(2.0**-5)), np.ones_like(x)

    x = solve_increasing(fun, np.zeros(1), 1.0, np.full(1, 0.3125), tol=1e-12)
    assert abs(float(x[0]) - 0.3) <= 1e-12


def test_not_converged_when_budget_too_small():
    c = np.full(2, 2.0)
    t = np.array([1.0, 30.0])
    with pytest.raises(NotConverged, match="still moving after 3 iterations"):
        solve_increasing(log_singular(c, t), 0.0, np.nextafter(c, 0.0), tol=1e-15, max_iter=3)
