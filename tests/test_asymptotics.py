"""Envelope integral, inversion expansion, and tail-coefficient arithmetic."""
import re

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from saddletail import asymptotics
from saddletail.asymptotics import (
    _gl_integral,
    coeffs,
    delta_of_T,
    invert_exit_time,
    m_integral,
    omega_expansion,
    tail_coeffs,
    tail_expansion,
    xi_expansion,
)
from saddletail.density import uniform_density
from saddletail.errors import NotConverged
from saddletail.flow import IntegratorConfig, exit_time_quadrature, flow, omega_of_xi
from saddletail.params import SaddleParams, derive_constants, make_rect

P1 = SaddleParams(1.0, 3.0, 2.0, 1.0, 2)
P2 = SaddleParams(1.0, 1.0, 1.0, 2.0, 2)


def swap(p):
    # exchange the axes (time reversal): entry data and exit data trade places
    return SaddleParams(p.b2, p.b0, p.a2, p.a0, p.kappa)


@pytest.mark.parametrize(
    "p",
    [P1, P2, SaddleParams(0.7, 1.3, 2.1, 0.9, 4), SaddleParams(2.0, 0.5, 0.3, 1.1, 6)],
)
def test_m_integral_beta_function_closed_form(p):
    d = derive_constants(p)
    k = p.kappa
    a = 1.0 / (k * d.beta0)
    b = 1.0 / (k * d.beta2)
    closed = (1.0 / k) * d.c0 ** (-b) * d.c2 ** (-a) * float(beta_fn(a, b))
    assert m_integral(p) == pytest.approx(closed, rel=1e-12)
    assert m_integral(p, "omega") == pytest.approx(closed, rel=1e-12)


def test_m_integral_frozen_value():
    assert m_integral(P2) == pytest.approx(0.4704760648206678, rel=1e-13)


def test_unit_geometry_coefficients_by_hand():
    c = coeffs(P2, eta=1.0, zeta0=1.0)
    I = m_integral(P2)
    assert c.xi0 == pytest.approx(3.0 ** (1.0 / 8.0) * I**0.75, rel=1e-13)
    assert c.omega0 == pytest.approx(2.0 ** (1.0 / 6.0) * I, rel=1e-13)
    # shared bracket (1/(a0*zeta0^k) + 1/(b2*eta^k)) = 3/2 at unit geometry
    assert c.xi1 == pytest.approx(0.5625, rel=1e-13)
    assert c.omega1 == pytest.approx(0.75, rel=1e-13)


def test_coeffs_requires_geometry():
    with pytest.raises(ValueError):
        coeffs(P2)


def test_coeffs_raises_when_reversal_identity_fails(monkeypatch):
    # a quadrature that is off by 1e-6 on the omega side only
    def skewed(p, which="xi"):
        return m_integral(p, which) * (1.0 + 1e-6 * (which == "omega"))

    exact = coeffs(P2, eta=0.62, zeta0=0.41).omega0
    monkeypatch.setattr(asymptotics, "m_integral", skewed)
    with pytest.raises(NotConverged, match="reversal identity") as info:
        coeffs(P2, eta=0.62, zeta0=0.41)
    # the message carries both values: the skewed omega0, then the identity's
    omega0, alt = map(float, re.findall(r"\d+\.\d+(?:e[-+]\d+)?", str(info.value)))
    assert alt == pytest.approx(exact, rel=1e-12)
    beta0 = derive_constants(P2).beta0
    assert omega0 / alt == pytest.approx((1.0 + 1e-6) ** beta0, rel=1e-9)


def test_duality_swap_exchanges_entry_and_exit():
    rng = np.random.default_rng(5)
    for _ in range(10):
        vals = np.exp(rng.uniform(-1.0, 1.0, size=4))
        p = SaddleParams(*map(float, vals), 2)
        if abs(p.delta) < 1e-6:
            continue
        eta, zeta = 0.62, 0.41
        cp = coeffs(p, eta=eta, zeta0=zeta)
        cq = coeffs(swap(p), eta=zeta, zeta0=eta)
        assert cp.xi0 == pytest.approx(cq.omega0, rel=1e-13)
        assert cp.omega0 == pytest.approx(cq.xi0, rel=1e-13)
        assert cp.xi1 == pytest.approx(cq.omega1, rel=1e-13)
        assert cp.omega1 == pytest.approx(cq.xi1, rel=1e-13)
        dp, dq = derive_constants(p), derive_constants(swap(p))
        assert dp.beta0 == pytest.approx(dq.beta2, rel=1e-14)
        assert dp.beta2 == pytest.approx(dq.beta0, rel=1e-14)


def test_entry_height_scaling_of_xi0():
    eta = 0.45
    base = coeffs(P2, eta=eta, zeta0=0.5)
    doubled = coeffs(P2, eta=2 * eta, zeta0=0.5)
    assert doubled.xi0 / base.xi0 == pytest.approx(
        2.0 ** -(P2.a2 / P2.b2), rel=1e-12
    )


@pytest.mark.parametrize("p", [P1, P2])
def test_inversion_round_trip(p):
    rect = make_rect(p)
    for T in (10.0, 100.0, 1e4):
        xi = float(invert_exit_time(p, rect.eta0, rect.zeta0, T))
        assert 0.0 < xi < rect.zeta0
        back = exit_time_quadrature(p, xi, rect.eta0, rect.zeta0)
        assert back == pytest.approx(T, rel=1e-9)


def test_inversion_monotone_in_T():
    rect = make_rect(P2)
    T = np.geomspace(1.0, 1e6, 40)
    xi = invert_exit_time(P2, rect.eta0, rect.zeta0, T)
    assert np.all(np.diff(xi) < 0.0)


def test_expansion_approaches_exact_inverse():
    rect = make_rect(P2)
    c = coeffs(P2, eta=rect.eta0, zeta0=rect.zeta0)
    gaps = []
    for T in (1e3, 1e4, 1e5):
        exact = float(invert_exit_time(P2, rect.eta0, rect.zeta0, T))
        gaps.append(abs(float(xi_expansion(c, T)) / exact - 1.0))
    assert gaps[1] <= 1e-5  # far below the 1e-3 the inverse report promises
    assert gaps[0] > gaps[1] > gaps[2]


def test_omega_expansion_approaches_exact_exit_height():
    rect = make_rect(P2)
    c = coeffs(P2, eta=rect.eta0, zeta0=rect.zeta0)
    for T, tol in ((1e3, 1e-3), (1e4, 1e-5)):
        xi = float(invert_exit_time(P2, rect.eta0, rect.zeta0, T))
        exact = omega_of_xi(P2, xi, rect.eta0, rect.zeta0)
        assert float(omega_expansion(c, T)) == pytest.approx(exact, rel=tol)


def test_delta_second_order_coefficient():
    # delta(T)*T^(1/kappa) climbs to its limit from below like xi1/(kappa*beta2)/T
    rect = make_rect(P2)
    c = coeffs(P2, eta=rect.eta0, zeta0=rect.zeta0)
    ratio = c.xi1 / (P2.kappa * 0.75)
    assert ratio == pytest.approx(3.0, rel=1e-12)
    vals = {T: float(delta_of_T(P2, c, T)) * T**0.5 for T in (1e3, 1e4, 1e5)}
    limit = vals[1e5] / (1.0 - ratio / 1e5)
    for T, v in vals.items():
        assert v < limit
        assert (1.0 - v / limit) * T == pytest.approx(ratio, rel=1e-2)


def test_delta_matches_flow_diagonal_crossing():
    eta, zeta0 = 0.5, 0.5
    c = coeffs(P2, eta=eta, zeta0=zeta0)
    cfg = IntegratorConfig(
        rel_tol=1e-12, abs_tol=1e-14, max_step=np.inf, max_steps=2_000_000, bbox=4.0
    )
    for T, tol in ((200.0, 5e-4), (800.0, 1e-4)):
        xi = float(invert_exit_time(P2, eta, zeta0, T))
        _, traj = flow(P2, (xi, eta), T, cfg=cfg, record=True)
        x, y = traj.states[:, 0], traj.states[:, 1]
        s = x - y
        i = int(np.where((s[:-1] < 0) & (s[1:] >= 0))[0][0])
        w = s[i] / (s[i] - s[i + 1])
        crossing = x[i] * (1 - w) + x[i + 1] * w
        assert float(delta_of_T(P2, c, T)) == pytest.approx(crossing, rel=tol)


def test_tail_coeffs_uniform_density():
    rect = make_rect(P2)
    dens = uniform_density((rect.eta0, rect.eta1), 2)
    tc = tail_coeffs(P2, density=dens, zeta0=rect.zeta0)
    assert tc.beta == pytest.approx(0.75, rel=1e-14)
    assert tc.C0 == pytest.approx(1.00128785552, rel=1e-10)
    # flat density: the lead tail coefficient IS C0 and the j=2 terms vanish
    assert tc.H[0] == tc.C0
    assert tc.H[1] == 0.0 and tc.Hhat[1] == 0.0
    assert tc.Hhat[0] == pytest.approx(4.076546627518056, rel=1e-10)


def test_tail_expansion_matches_hand_sum():
    rect = make_rect(P2)
    dens = uniform_density((rect.eta0, rect.eta1), 2)
    tc = tail_coeffs(P2, density=dens, zeta0=rect.zeta0)
    n = np.geomspace(10.0, 1e5, 7)
    hand = tc.H[0] * n**-0.75 - tc.Hhat[0] * n**-1.75
    assert np.allclose(tail_expansion(tc, n), hand, rtol=1e-14, atol=0.0)


def test_gl_integral_raises_when_doubling_does_not_settle():
    # an integrable singularity off the panel grid converges like panels^-1/2
    assert _gl_integral(lambda y: y**3, 0.0, 2.0) == pytest.approx(4.0, rel=1e-14)
    with pytest.raises(NotConverged, match="16384 panels"):
        _gl_integral(lambda y: np.abs(y - 1.0 / 3.0) ** -0.5, 0.0, 1.0)
