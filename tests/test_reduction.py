"""Reduced one-dimensional kernel: levels, exit heights, and inversion."""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddles import SADDLES, saddle, swap
from saddletail import _reduction
from saddletail._reduction import ReductionKernel, kernel_for
from saddletail.asymptotics import m_integral
from saddletail.errors import BracketFailure, InvalidInput, NotConverged
from saddletail.field import omega_of_xi
from saddletail.params import SaddleParams, make_rect

P1 = SaddleParams(1.0, 3.0, 2.0, 1.0, 2)
P2 = SaddleParams(1.0, 1.0, 1.0, 2.0, 2)

# 50-digit mpmath values of F and I_inf, written by tests/make_F_fixture.py
F_FIXTURE = json.loads((Path(__file__).parent / "data" / "F_fixture.json").read_text())


@pytest.mark.parametrize(
    "case", F_FIXTURE["sets"], ids=lambda c: ",".join(f"{v:g}" for v in c["params"])
)
def test_F_matches_mpmath(case):
    a0, a2, b0, b2, kappa = case["params"]
    p = SaddleParams(a0, a2, b0, b2, int(kappa))
    ker = ReductionKernel(p)
    F = ker.F_s(np.array(case["s"]))
    assert np.max(np.abs(F / np.array(case["F"]) - 1.0)) <= 4e-15
    for I in (ker.I_inf, m_integral(p), m_integral(swap(p))):
        assert abs(I / case["I_inf"] - 1.0) <= 1e-15


@pytest.mark.parametrize("p", [P1, P2])
def test_exit_time_invert_round_trip(p):
    rect = make_rect(p)
    ker = kernel_for(p)
    xi = np.geomspace(1e-4 * rect.zeta0, 0.95 * rect.zeta0, 40)
    eta = np.full_like(xi, rect.eta0)
    T = ker.exit_time(xi, eta, rect.zeta0)
    back = ker.invert(T, eta, rect.zeta0)
    assert np.max(np.abs(back / xi - 1.0)) <= 1e-11


@pytest.mark.parametrize("p", [P1, P2])
def test_invert_warm_start_matches_cold(p):
    rect = make_rect(p)
    ker = kernel_for(p)
    T = np.geomspace(5.0, 1e5, 60)
    eta = np.full_like(T, rect.eta0)
    cold = ker.invert(T, eta, rect.zeta0)
    # a warm start near the root must land on the same root
    warm = ker.invert(T, eta, rect.zeta0, lnx0=np.log(cold) + 0.03)
    assert np.max(np.abs(warm / cold - 1.0)) <= 1e-12


def test_warm_start_far_off_falls_back():
    rect = make_rect(P2)
    ker = kernel_for(P2)
    T = np.array([100.0, 1e4])
    eta = np.full_like(T, rect.eta0)
    cold = ker.invert(T, eta, rect.zeta0)
    # a hopeless guess (orders of magnitude off) still converges
    warm = ker.invert(T, eta, rect.zeta0, lnx0=np.log(cold) - 8.0)
    assert np.max(np.abs(warm / cold - 1.0)) <= 1e-11


def test_invert_refuses_root_below_smallest_double():
    # beta2 = 497: xi(T = 1e3) sits near ln xi = -1941, far below exp's range
    p = SaddleParams(0.02806, 32.49, 20.27, 0.01635, 4)
    rect = make_rect(p)
    ker = ReductionKernel(p)
    with pytest.raises(BracketFailure, match="smallest normal double"):
        ker.invert(1e3, rect.eta0, rect.zeta0)
    # T = 1 on the same set is still representable and round-trips
    xi = ker.invert(1.0, rect.eta0, rect.zeta0)
    assert abs(ker.exit_time(xi, np.full(1, rect.eta0), rect.zeta0)[0] - 1.0) <= 1e-10


def _flat_invert(ker, T, eta, zeta0, lnx0=None):
    """invert on the (T, eta) product laid out flat, T-major, as one 1-d batch."""
    flat = None if lnx0 is None else lnx0.ravel()
    xi = ker.invert(np.repeat(T, eta.size), np.tile(eta, T.size), zeta0, lnx0=flat)
    return xi.reshape(T.size, eta.size)


@pytest.mark.parametrize("p", [P1, P2])
def test_invert_broadcasts_like_the_flat_product(p):
    rect = make_rect(p)
    ker = kernel_for(p)
    # up to 1e24: roots below 1e-12 * zeta0 push the lower bracket end down
    T = np.geomspace(1e-3, 1e24, 10)
    eta = np.linspace(rect.eta0, rect.eta1, 7)
    cold = ker.invert(T[:, None], eta[None, :], rect.zeta0)
    assert cold.shape == (T.size, eta.size)
    assert np.array_equal(cold, _flat_invert(ker, T, eta, rect.zeta0))
    assert cold.min() < 1e-12 * rect.zeta0
    lnx0 = np.log(cold) + np.linspace(-0.05, 0.05, cold.size).reshape(cold.shape)
    warm = ker.invert(T[:, None], eta[None, :], rect.zeta0, lnx0=lnx0)
    assert np.array_equal(warm, _flat_invert(ker, T, eta, rect.zeta0, lnx0))
    assert np.max(np.abs(warm / cold - 1.0)) <= 1e-12
    assert ker.invert(T[3], eta[2], rect.zeta0).shape == (1,)
    assert ker.invert(T[3], eta[2], rect.zeta0)[0] == cold[3, 2]
    assert ker.invert(T[:, None, None], eta[None, :, None], rect.zeta0).shape == (10, 7, 1)


def test_invert_refusals_from_a_broadcast_call():
    rect = make_rect(P2)
    ker = kernel_for(P2)
    eta = np.array([rect.eta0, rect.eta1])
    # the section time is 4.0e-12 at eta0 and 2.7e-12 at eta1, so only the
    # (3e-12, eta0) pair lies below it
    with pytest.raises(InvalidInput, match="3e-12 is below 3.99882e-12, the shortest one"):
        ker.invert(np.array([1.0, 3e-12])[:, None], eta[None, :], rect.zeta0)
    assert ker.invert(3e-12, rect.eta1, rect.zeta0)[0] > 0.0
    p = SaddleParams(0.02806, 32.49, 20.27, 0.01635, 4)
    rect = make_rect(p)
    ker = ReductionKernel(p)
    eta = np.linspace(rect.eta0, rect.eta1, 3)
    with pytest.raises(BracketFailure, match="smallest normal double"):
        ker.invert(np.array([1.0, 1e3])[:, None], eta[None, :], rect.zeta0)


@pytest.mark.parametrize("T", [math.inf, math.nan, 0.0, -1.0])
def test_invert_requires_finite_positive_targets(T):
    rect = make_rect(P2)
    with pytest.raises(InvalidInput, match="finite and positive"):
        kernel_for(P2).invert(np.array([10.0, T]), rect.eta0, rect.zeta0)


@pytest.mark.parametrize("p", [P1, P2])
def test_exit_height_preserves_level(p):
    rect = make_rect(p)
    ker = kernel_for(p)
    lnxi = np.log(np.geomspace(0.01 * rect.zeta0, 0.9 * rect.zeta0, 25))
    lneta = np.full_like(lnxi, np.log(rect.eta1))
    lev = ker.level_log(lnxi, lneta)
    lnw = ker.omega_log(lev, np.log(rect.zeta0))
    lev_exit = ker.level_log(np.full_like(lnw, np.log(rect.zeta0)), lnw)
    assert np.max(np.abs(lev_exit - lev)) <= 1e-12 * np.max(np.abs(lev) + 1.0)


def test_exit_time_scalar_vector_consistency():
    rect = make_rect(P2)
    ker = kernel_for(P2)
    xi = np.array([0.05, 0.1, 0.2])
    eta = np.full(3, rect.eta0)
    T_vec, w_vec = ker.exit_time(xi, eta, rect.zeta0, with_omega=True)
    for i in range(3):
        T_i = ker.exit_time(xi[i : i + 1], eta[i : i + 1], rect.zeta0)
        assert float(T_i[0]) == pytest.approx(float(T_vec[i]), rel=1e-14)
    assert np.all(np.diff(T_vec) < 0.0)  # deeper entry waits longer
    assert np.all(w_vec > 0.0)


def test_exit_height_below_smallest_double_raises():
    # ln omega = -859 here, so exp(ln omega) would underflow to 0.0
    p = SaddleParams(0.1094, 0.3535, 14.36, 16.32, 4)
    ker = ReductionKernel(p)
    with pytest.raises(BracketFailure, match="smallest normal double"):
        ker.exit_time(0.001342, 0.3298, 1.0, with_omega=True)
    with pytest.raises(BracketFailure, match="smallest normal double"):
        omega_of_xi(p, 0.001342, 0.3298, 1.0)
    # the exit time itself is computed from logs and stays finite
    assert ker.exit_time(0.001342, 0.3298, 1.0)[0] == pytest.approx(4.4055e11, rel=1e-4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**SADDLES)
# x_max within 1e-6 of zeta0: the old fixed-count inversion returned T = 1.27e-3
@example(kappa=6, logs=[np.log10(v) for v in (0.1438, 0.01593, 0.4408, 23.19)], sign=-1.0)
def test_invert_and_exit_height_across_parameters(kappa, logs, sign):
    p = saddle(kappa, logs, sign)
    rect = make_rect(p)
    ker = ReductionKernel(p)
    y = np.linspace(rect.eta0, rect.eta1, 33)
    xi = ker.invert(np.ones_like(y), y, rect.zeta0)
    # worst seen over 600 random sets: 4.6e-12
    assert np.max(np.abs(ker.exit_time(xi, y, rect.zeta0) - 1.0)) <= 1e-10
    lz = np.log(rect.zeta0)
    lx = lz + np.linspace(-8.0, -1e-6, 33)
    lev = ker.level_log(lx, np.log(y))
    lev_exit = ker.level_log(np.full_like(lx, lz), ker.omega_log(lev, lz))
    assert np.max(np.abs(lev_exit - lev) / (1.0 + np.abs(lev))) <= 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**SADDLES, eta=st.floats(0.3, 1.0), lnxi=st.floats(-8.0, -0.01))
# ln omega = -859.2: the exit height underflows
@example(
    kappa=4, logs=[np.log10(v) for v in (0.1094, 0.3535, 14.36, 16.32)], sign=1.0,
    eta=0.3298, lnxi=math.log(0.001342),
)
def test_exit_time_duality_across_parameters(kappa, logs, sign, eta, lnxi):
    # time reversal runs the orbit from (xi, eta) to (zeta0, omega) backwards:
    # in swapped coordinates it enters at (omega, zeta0) and leaves through
    # x = eta at height xi, after the same time
    p = saddle(kappa, logs, sign)
    ker, rev = ReductionKernel(p), ReductionKernel(swap(p))
    xi, zeta0 = math.exp(lnxi), 1.0
    try:
        T, omega = ker.exit_time(xi, eta, zeta0, with_omega=True)
    except BracketFailure:
        ln_omega = ker.omega_log(ker.level_log(lnxi, math.log(eta)), math.log(zeta0))
        assert ln_omega[0] < _reduction._LN_TINY
        return
    T_rev, xi_back = rev.exit_time(omega, zeta0, eta, with_omega=True)
    assert abs(T_rev[0] / T[0] - 1.0) <= 1e-12
    assert abs(xi_back[0] / xi - 1.0) <= 1e-12


def _x_max_misfit(ker, xm, y, zeta0):
    """|ln x_max - ln invert(1, y)|, counted in ln T where T is flatter than x."""
    xi = ker.invert(np.ones_like(y), y, zeta0)
    h = 1e-6
    slope = np.log(ker.exit_time(xi * np.exp(-h), y, zeta0) / ker.exit_time(xi, y, zeta0)) / h
    return np.abs(np.log(xm / xi)) * np.minimum(1.0, slope)


@pytest.mark.parametrize("p", [P1, P2])
def test_x_max_table_matches_invert(p):
    rect = make_rect(p)
    ker = kernel_for(p)
    y = np.concatenate(
        ([rect.eta0, rect.eta1], np.random.default_rng(0).uniform(rect.eta0, rect.eta1, 500))
    )
    xm = ker.x_max(y, rect.zeta0, (rect.eta0, rect.eta1))
    xi = ker.invert(np.ones_like(y), y, rect.zeta0)
    assert np.max(np.abs(xm / xi - 1.0)) <= 1e-13


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**SADDLES)
@example(kappa=2, logs=[-1.97, 1.9, -0.62, -0.63], sign=1.0)  # T nearly flat in x
@example(kappa=6, logs=[-0.84, -1.8, -0.36, 1.37], sign=-1.0)  # x_max near zeta0
def test_x_max_table_across_parameters(kappa, logs, sign):
    p = saddle(kappa, logs, sign)
    rect = make_rect(p)
    ker = ReductionKernel(p)
    y = np.linspace(rect.eta0, rect.eta1, 97)
    try:
        xm = ker.x_max(y, rect.zeta0, (rect.eta0, rect.eta1))
    except NotConverged:
        # the table is refused only where direct inversion itself misses T = 1
        xi = ker.invert(np.ones_like(y), y, rect.zeta0)
        assert np.max(np.abs(ker.exit_time(xi, y, rect.zeta0) - 1.0)) > 1e-6
        return
    assert np.max(_x_max_misfit(ker, xm, y, rect.zeta0)) <= 1e-13


def test_x_max_table_cached_per_key(monkeypatch):
    rect = make_rect(P2)
    ker = ReductionKernel(P2)
    calls = []
    invert = ker.invert
    monkeypatch.setattr(ker, "invert", lambda *a, **k: calls.append(1) or invert(*a, **k))
    y = np.array([rect.eta0, rect.eta1])
    first = ker.x_max(y, rect.zeta0, (rect.eta0, rect.eta1))
    built = len(calls)
    assert built > 0
    again = ker.x_max(y[::-1], rect.zeta0, (rect.eta0, rect.eta1))
    assert len(calls) == built and np.array_equal(again, first[::-1])
    ker.x_max(y[:1], rect.zeta0, (rect.eta0, 0.5 * (rect.eta0 + rect.eta1)))
    assert len(calls) > built
    assert len(ker._xmax_tables) == 2
    with pytest.raises(ValueError):
        ker.x_max(np.array([0.5 * rect.eta0]), rect.zeta0, (rect.eta0, rect.eta1))


def test_x_max_table_not_converged(monkeypatch):
    rect = make_rect(P2)
    ker = ReductionKernel(P2)
    monkeypatch.setattr(_reduction, "_XMAX_TOL", -1.0)  # no table can meet it
    monkeypatch.setattr(_reduction, "_XMAX_MAX_DEG", 32)
    with pytest.raises(NotConverged):
        ker.x_max(np.array([rect.eta0]), rect.zeta0, (rect.eta0, rect.eta1))
    assert ker._xmax_tables == {}
