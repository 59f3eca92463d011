"""Renewal recursion, mixing constants, and the next-order fit."""
import math

import numpy as np
import pytest

from saddletail.errors import BetaOutOfRange, IllConditioned, InvalidInput, NonMonotoneInput
from saddletail.renewal import (
    MixingCoeffs,
    correlation_prediction,
    fit_higher_order,
    mixing_coeffs,
    renewal_sequence,
    return_distribution,
)
from saddletail.tails import TailTable


def table(n, mass):
    return TailTable(n_grid=np.asarray(n), mass=np.asarray(mass, dtype=float), stderr=None, n_censored=None)


def test_return_distribution_by_hand():
    p = return_distribution(table([1, 2, 3], [0.6, 0.3, 0.2]))
    assert p == pytest.approx([0.4, 0.3, 0.1], rel=1e-15)
    # a leading n=0 row repeats the strip mass and is skipped
    p0 = return_distribution(table([0, 1, 2, 3], [0.6, 0.6, 0.3, 0.2]))
    assert p0 == pytest.approx([0.4, 0.3, 0.1], rel=1e-15)


def test_return_distribution_validation():
    with pytest.raises(ValueError):
        return_distribution(table([1, 3], [0.6, 0.2]))
    with pytest.raises(ValueError):
        return_distribution(table([2, 3], [0.6, 0.2]))
    with pytest.raises(NonMonotoneInput):
        return_distribution(table([1, 2, 3], [0.4, 0.3, 0.3 + 1e-13]))


def test_renewal_sequence_dyadic_exact():
    p = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
    rs = renewal_sequence(p, 6)
    assert rs.u.tolist() == [1.0, 0.5, 0.75, 0.625, 0.6875, 0.65625, 0.671875]
    assert rs.p.tolist() == p.tolist()


def test_renewal_sequence_validation():
    with pytest.raises(ValueError):
        renewal_sequence([0.5, 0.5], 0)
    with pytest.raises(ValueError):
        renewal_sequence([0.5], 2)
    with pytest.raises(ValueError):
        renewal_sequence([0.5, -0.1], 2)
    with pytest.raises(ValueError):
        renewal_sequence([0.8, 0.8], 2)
    for bad in ([0.5, math.nan, 0.1], [0.5, math.inf, 0.1], [0.1, 0.2, 0.3, math.nan]):
        with pytest.raises(InvalidInput, match="finite"):
            renewal_sequence(bad, 3)


def test_mixing_coeffs_values():
    mc = mixing_coeffs(1.0, 0.75)
    assert mc.d0 == pytest.approx(math.sin(0.75 * math.pi) / math.pi, rel=1e-15)
    assert mc.q == 2
    assert mixing_coeffs(1.0, 0.8).q == 3
    assert mixing_coeffs(1.0, 0.45).q == 0
    assert mc.d_fit == () and mc.fit_residual_rms is None


def test_d0_reflection_identity():
    for C0, beta in ((2.0, 0.6), (0.5, 0.75), (1.7, 0.9)):
        mc = mixing_coeffs(C0, beta)
        recip = C0 * math.gamma(beta) * math.gamma(1.0 - beta)
        assert mc.d0 * recip == pytest.approx(1.0, rel=1e-14)


def test_mixing_coeffs_validation():
    with pytest.raises(BetaOutOfRange):
        mixing_coeffs(1.0, 1.0)
    with pytest.raises(BetaOutOfRange):
        mixing_coeffs(1.0, 0.0)
    with pytest.raises(ValueError):
        mixing_coeffs(-1.0, 0.75)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInput, match="C0 must be positive and finite"):
            mixing_coeffs(bad, 0.75)


def test_fit_higher_order_recovers_planted():
    mc = mixing_coeffs(1.0, 0.75)
    n = np.arange(1, 4201, dtype=float)
    u = np.concatenate(
        ([1.0], mc.d0 * n**-0.25 + 0.3 * n**-0.5 - 0.12 * n**-0.75)
    )
    out = fit_higher_order(u, mc, (16, 4096))
    assert out.d_fit[0] == pytest.approx(0.3, abs=1e-9)
    assert out.d_fit[1] == pytest.approx(-0.12, abs=1e-9)
    assert out.fit_residual_rms <= 1e-12
    assert out.d0 == mc.d0 and out.beta == mc.beta


def test_fit_higher_order_validation():
    mc = mixing_coeffs(1.0, 0.75)
    with pytest.raises(ValueError):
        fit_higher_order(np.ones(100), mixing_coeffs(1.0, 0.45), (10, 50))
    with pytest.raises(ValueError):
        fit_higher_order(np.ones(100), mc, (0, 50))
    with pytest.raises(ValueError):
        fit_higher_order(np.ones(100), mc, (10, 100))


def test_fit_higher_order_ill_conditioned():
    crafted = MixingCoeffs(beta=0.75, d0=0.225, q=40)
    with pytest.raises(IllConditioned):
        fit_higher_order(np.zeros(5000), crafted, (16, 4096))


def test_correlation_prediction_by_hand():
    mc = mixing_coeffs(1.0, 0.75)
    fitted = fit_higher_order(
        np.concatenate(
            ([1.0], mc.d0 * np.arange(1, 4201.0) ** -0.25 + 0.3 * np.arange(1, 4201.0) ** -0.5)
        ),
        mc,
        (16, 4096),
    )
    n = 16.0
    hand = mc.d0 * n**-0.25 + fitted.d_fit[0] * n**-0.5 + fitted.d_fit[1] * n**-0.75
    got = correlation_prediction(fitted, n)
    assert isinstance(got, float)
    assert got == pytest.approx(hand, rel=1e-12)
    arr = correlation_prediction(fitted, np.array([16.0, 64.0]))
    assert arr.shape == (2,)
    with pytest.raises(ValueError):
        correlation_prediction(fitted, 0.0)


def test_renewal_mass_approaches_d0_power_law():
    # p_n proportional to a C0 n^(-3/4) tail: u_n * n^(1/4) settles near d0
    N = 4000
    n = np.arange(1, N + 1, dtype=float)
    C0 = 0.8
    tail = np.minimum(1.0, C0 * n**-0.75)
    p = np.concatenate(([1.0 - tail[0]], tail[:-1] - tail[1:]))
    rs = renewal_sequence(p, N)
    mc = mixing_coeffs(C0, 0.75)
    med = float(np.median(rs.u[N // 2 :] * np.arange(N // 2, N + 1) ** 0.25))
    assert med == pytest.approx(mc.d0, rel=0.15)
