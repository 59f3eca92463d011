"""Tail tables: semi-analytic route, Monte Carlo route, and the fit."""
import numpy as np
import pytest

from saddletail import _reduction, tails
from saddletail.asymptotics import tail_coeffs, tail_expansion
from saddletail.density import uniform_density
from saddletail.errors import InsufficientData, NonMonotoneInput, NotConverged, SeedRequired
from saddletail.flow import Perturbation
from saddletail.params import SaddleParams, make_rect
from saddletail.tails import (
    TailTable,
    fit_regvar,
    geometric_grid,
    monte_carlo_tail,
    semi_analytic_tail,
    small_tail,
)

P1 = SaddleParams(1.0, 3.0, 2.0, 1.0, 2)
P2 = SaddleParams(1.0, 1.0, 1.0, 2.0, 2)
RECT = make_rect(P2)
DENS = uniform_density((RECT.eta0, RECT.eta1), 2)


def test_geometric_grid_shape():
    g = geometric_grid(10, 1000, 16)
    assert g[0] == 10 and g[-1] == 1000
    assert g.dtype == np.int64
    assert np.all(np.diff(g) > 0)


def test_geometric_grid_validation():
    with pytest.raises(ValueError):
        geometric_grid(100, 10)
    with pytest.raises(ValueError):
        geometric_grid(1, 100, 0)


def test_semi_tail_strip_mass_and_monotonicity():
    t = semi_analytic_tail(
        P2, None, DENS, np.array([0, 1, 2, 5, 50]), zeta0=RECT.zeta0
    )
    # nothing exits within one time unit, so the n=0 and n=1 rows both
    # carry the whole strip
    assert t.mass[0] == pytest.approx(0.2813205242444963, rel=1e-12)
    assert t.mass[1] == pytest.approx(t.mass[0], rel=1e-13)
    assert np.all(np.diff(t.mass) <= 0.0)
    assert t.stderr is None and t.n_censored is None


def test_semi_tail_matches_expansion_far_out():
    t = semi_analytic_tail(P2, None, DENS, np.array([10_000]), zeta0=RECT.zeta0)
    tc = tail_coeffs(P2, density=DENS, zeta0=RECT.zeta0)
    assert float(t.mass[0]) == pytest.approx(
        float(tail_expansion(tc, 10_000.0)), rel=1e-5
    )


def test_semi_tail_probe_path_consistent_with_direct():
    # past 160 nodes the table is built from a calibrated probe subset plus
    # warm-started inversion; it must agree with the short-grid route
    big = geometric_grid(50, 3000, 96)
    assert len(big) > 160
    t_big = semi_analytic_tail(P2, None, DENS, big, zeta0=RECT.zeta0)
    small = big[::8]
    t_small = semi_analytic_tail(P2, None, DENS, small, zeta0=RECT.zeta0)
    ref = t_big.mass[np.searchsorted(big, small)]
    assert np.allclose(ref, t_small.mass, rtol=1e-8, atol=0.0)


def test_semi_tail_ladder_cap_raises(monkeypatch):
    monkeypatch.setattr(tails, "_MAX_PANELS", 8)
    with pytest.raises(NotConverged):
        semi_analytic_tail(P2, None, DENS, np.array([1, 10]), zeta0=RECT.zeta0, rtol=1e-300)


def _bump_last_mass(monkeypatch, rel):
    """Make the last grid mass exceed the one before it by rel relative."""
    real = tails._tail_on_nodes

    def bumped(*args, **kwargs):
        res = real(*args, **kwargs)
        res[0][-1] = res[0][-2] * (1.0 + rel)
        return res

    monkeypatch.setattr(tails, "_tail_on_nodes", bumped)


def test_semi_tail_repairs_last_ulp_jitter(monkeypatch):
    _bump_last_mass(monkeypatch, 4e-16)
    t = semi_analytic_tail(P2, None, DENS, np.array([1, 10, 100]), zeta0=RECT.zeta0)
    assert t.mass[2] == t.mass[1]


def test_semi_tail_refuses_large_monotone_repair(monkeypatch):
    _bump_last_mass(monkeypatch, 1e-9)
    with pytest.raises(NonMonotoneInput, match="n = 100"):
        semi_analytic_tail(P2, None, DENS, np.array([1, 10, 100]), zeta0=RECT.zeta0)


@pytest.mark.parametrize("p", [P1, P2])
def test_semi_tail_warm_pass_matches_cold_in_two_evaluations(p, monkeypatch):
    rect = make_rect(p)
    dens = uniform_density((rect.eta0, rect.eta1), p.kappa)
    grid = np.arange(1, 1001)
    passes, evals, warm = [], [0], [False]
    real_pass = tails._tail_on_nodes
    real_solve = _reduction.solve_increasing

    def recorded_pass(ker, density, zeta0, n_pos, nodes, wts, guess=None, keep=False):
        passes.append((ker, nodes, wts))
        warm[0] = guess is not None
        try:
            return real_pass(ker, density, zeta0, n_pos, nodes, wts, guess, keep)
        finally:
            warm[0] = False

    def counted_solve(fun, lo, hi, x=None, **kwargs):
        # each evaluation of invert's residual runs one omega_log solve on
        # exactly the elements it evaluates, bracket ends included
        if warm[0] and "omega_log" in fun.__qualname__:
            evals[0] += np.broadcast(lo, hi).size
        return real_solve(fun, lo, hi, x, **kwargs)

    monkeypatch.setattr(tails, "_tail_on_nodes", recorded_pass)
    monkeypatch.setattr(_reduction, "solve_increasing", counted_solve)
    t = semi_analytic_tail(p, None, dens, grid, zeta0=rect.zeta0)
    ker, nodes, wts = passes[-1]
    elements = len(grid) * len(nodes)
    # bracket ends once per height and a cubic warm start: 1.97 per element
    assert elements <= evals[0] <= 2.1 * elements
    cold, _ = real_pass(ker, dens, rect.zeta0, grid, nodes, wts)
    assert np.max(np.abs(t.mass / cold - 1.0)) <= 1e-13


def test_monte_carlo_table_cap_raises(monkeypatch):
    monkeypatch.setattr(_reduction, "_XMAX_TOL", -1.0)
    monkeypatch.setattr(_reduction, "_XMAX_MAX_DEG", 32)
    monkeypatch.setattr(tails, "kernel_for", _reduction.ReductionKernel)  # no cached table
    with pytest.raises(NotConverged):
        monte_carlo_tail(P2, None, DENS, N=1000, seed=1, n_grid=np.array([1, 2]), zeta0=RECT.zeta0)


def test_monte_carlo_requires_seed():
    with pytest.raises(SeedRequired):
        monte_carlo_tail(P2, None, DENS, N=100, n_grid=np.array([1, 2]), zeta0=RECT.zeta0)


def test_monte_carlo_deterministic_and_jobs_invariant():
    grid = geometric_grid(5, 200, 8)
    kw = dict(N=20_000, seed=99, n_grid=grid, zeta0=RECT.zeta0)
    a = monte_carlo_tail(P2, None, DENS, **kw)
    b = monte_carlo_tail(P2, None, DENS, **kw)
    c = monte_carlo_tail(P2, None, DENS, jobs=2, **kw)
    assert np.array_equal(a.mass, b.mass) and np.array_equal(a.stderr, b.stderr)
    assert np.array_equal(a.mass, c.mass) and np.array_equal(a.stderr, c.stderr)


def test_monte_carlo_agrees_with_semi_analytic():
    grid = geometric_grid(20, 2000, 8)
    mc = monte_carlo_tail(P2, None, DENS, N=100_000, seed=4242, n_grid=grid, zeta0=RECT.zeta0)
    sm = semi_analytic_tail(P2, None, DENS, grid, zeta0=RECT.zeta0)
    z = np.abs(mc.mass - sm.mass) / np.where(mc.stderr > 0, mc.stderr, 1.0)
    assert float(z.max()) <= 4.0
    assert mc.n_censored == 0


PERT = Perturbation.from_terms(px=[(1, 2, 0.1)], py=[(2, 1, -0.1)])  # criterion 7's


def test_monte_carlo_flow_route_jobs_invariant():
    # one full block and one partial one, both thinned below n_grid[0]/2
    kw = dict(N=65536 + 3000, seed=5, n_grid=geometric_grid(100, 2000, 8), zeta0=RECT.zeta0)
    a = monte_carlo_tail(P2, PERT, DENS, **kw)
    b = monte_carlo_tail(P2, PERT, DENS, jobs=2, **kw)
    assert np.array_equal(a.mass, b.mass) and np.array_equal(a.stderr, b.stderr)
    assert a.n_censored == b.n_censored


def test_monte_carlo_thinning_leaves_flow_masses_bitwise():
    # no orbit whose unperturbed exit time is below 50 reaches n = 100 under
    # the perturbation, so the thinned run equals the full one bit for bit;
    # a grid that starts at 0 thins nothing
    grid = geometric_grid(100, 5000, 8)
    kw = dict(N=20_000, seed=21, zeta0=RECT.zeta0)
    thin = monte_carlo_tail(P2, PERT, DENS, n_grid=grid, **kw)
    full = monte_carlo_tail(P2, PERT, DENS, n_grid=np.r_[0, grid], **kw)
    assert np.array_equal(thin.mass, full.mass[1:])
    assert np.array_equal(thin.stderr, full.stderr[1:])
    assert thin.n_censored == full.n_censored


def test_monte_carlo_thinned_stratum_reaching_grid_is_unbiased(monkeypatch):
    # thin below 8 * n_grid[0], so thinned orbits do reach the grid: the
    # weighted estimate must still agree with the full one, at a larger stderr
    monkeypatch.setattr(tails, "_THIN_BELOW", 8.0)
    grid = geometric_grid(100, 5000, 8)
    kw = dict(N=65536, seed=1234, zeta0=RECT.zeta0)
    thin = monte_carlo_tail(P2, PERT, DENS, n_grid=grid, **kw)
    full = monte_carlo_tail(P2, PERT, DENS, n_grid=np.r_[0, grid], **kw)
    m, s = full.mass[1:], full.stderr[1:]
    assert not np.array_equal(thin.mass, m)
    assert thin.stderr[0] > 2.0 * s[0]
    z = np.abs(thin.mass - m) / np.hypot(thin.stderr, s)
    assert float(z.max()) <= 3.0


def test_fit_recovers_planted_power_law():
    n = geometric_grid(10, 10_000, 24)
    t = TailTable(n_grid=n, mass=2.5 * n.astype(float) ** -0.8, stderr=None, n_censored=None)
    fit = fit_regvar(t, (10, 10_000))
    assert fit.beta_hat == pytest.approx(0.8, abs=1e-10)
    assert fit.C0_hat == pytest.approx(2.5, rel=1e-8)
    assert fit.residual_rms <= 1e-12
    assert fit.second_order_coeff is None
    assert fit.n_points == len(n)


def test_fit_second_order_recovers_correction():
    n = geometric_grid(10, 10_000, 24).astype(float)
    mass = 2.5 * n**-0.8 * np.exp(0.6 / n)
    t = TailTable(n_grid=n.astype(np.int64), mass=mass, stderr=None, n_censored=None)
    fit = fit_regvar(t, (10, 10_000), second_order=True)
    assert fit.beta_hat == pytest.approx(0.8, abs=1e-9)
    assert fit.C0_hat == pytest.approx(2.5, rel=1e-8)
    assert fit.second_order_coeff == pytest.approx(0.6, abs=1e-6)


def test_fit_weights_follow_stderr():
    # an outlier with huge stderr must not move the weighted fit; the dip
    # stays below its neighbours so the table remains a valid tail
    n = geometric_grid(10, 10_000, 24)
    mass = 2.5 * n.astype(float) ** -0.8
    stderr = np.full_like(mass, 1e-9)
    mass_out = mass.copy()
    mass_out[5] *= 0.95
    stderr_out = stderr.copy()
    stderr_out[5] = 1e3
    fit = fit_regvar(
        TailTable(n_grid=n, mass=mass_out, stderr=stderr_out, n_censored=None),
        (10, 10_000),
    )
    assert fit.beta_hat == pytest.approx(0.8, abs=1e-6)


def test_fit_needs_enough_points():
    n = np.arange(1, 6)
    t = TailTable(n_grid=n, mass=1.0 / n, stderr=None, n_censored=None)
    with pytest.raises(InsufficientData):
        fit_regvar(t, (1, 5))


def test_small_tail_telescopes():
    n = np.arange(0, 30)
    t = semi_analytic_tail(P2, None, DENS, n, zeta0=RECT.zeta0)
    d = small_tail(t)
    assert np.all(d >= 0.0)
    assert float(d.sum()) == pytest.approx(float(t.mass[0] - t.mass[-1]), abs=1e-15)


def test_small_tail_rejects_bad_input():
    with pytest.raises(ValueError):
        small_tail(TailTable(n_grid=np.array([1, 3]), mass=np.array([1.0, 0.5]), stderr=None, n_censored=None))
    # an uptick below the table's own rounding slack still may not
    # difference to a negative mass
    sneaky = TailTable(
        n_grid=np.array([1, 2, 3]),
        mass=np.array([0.5, 0.4, 0.4 + 1e-13]),
        stderr=None,
        n_censored=None,
    )
    with pytest.raises(NonMonotoneInput):
        small_tail(sneaky)
