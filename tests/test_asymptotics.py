"""Envelope integral, inversion expansion, and tail-coefficient arithmetic."""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn

from saddles import SADDLES, saddle, swap
from saddletail import asymptotics
from saddletail._numerics import gl_doubling
from saddletail.asymptotics import (
    coeffs,
    delta_of_T,
    invert_exit_time,
    m_integral,
    omega_expansion,
    tail_coeffs,
    tail_expansion,
    xi_expansion,
)
from saddletail.density import make_density, uniform_density
from saddletail.errors import BracketFailure, InvalidInput, NotConverged
from saddletail.flow import IntegratorConfig, exit_time_quadrature, flow, omega_of_xi
from saddletail.params import SaddleParams, derive_constants, make_rect

P1 = SaddleParams(1.0, 3.0, 2.0, 1.0, 2)
P2 = SaddleParams(1.0, 1.0, 1.0, 2.0, 2)


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
    # time reversal swaps a with b and c0 with c2, which leaves I unchanged
    assert m_integral(swap(p)) == m_integral(p)


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


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("which", ["eta", "zeta0"])
def test_geometry_must_be_finite_and_positive(which, bad):
    geom = {"eta": 0.5, "zeta0": 0.5, which: bad}
    with pytest.raises(InvalidInput, match=which):
        coeffs(P2, **geom)
    with pytest.raises(InvalidInput, match=which):
        invert_exit_time(P2, geom["eta"], geom["zeta0"], 10.0)
    if which == "zeta0":
        rect = make_rect(P2)
        dens = uniform_density((rect.eta0, rect.eta1), 2)
        with pytest.raises(InvalidInput, match=which):
            tail_coeffs(P2, density=dens, zeta0=bad)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**SADDLES, eta=st.floats(0.3, 1.0), zeta0=st.floats(0.3, 1.0))
def test_omega0_reversal_identity_across_parameters(kappa, logs, sign, eta, zeta0):
    # ln omega0 = (beta0/beta2) ln xi0 + (1 + k/v) ln eta - (b0/a0) ln zeta0
    #             + ln(c2/c0)/v,
    # in logs: as a product, xi0^(beta0/beta2) overflows once beta0/beta2 >~ 50
    p = saddle(kappa, logs, sign)
    d = derive_constants(p)
    k, lnI = float(kappa), math.log(m_integral(p))
    info = np.finfo(float)
    try:
        c = coeffs(p, eta=eta, zeta0=zeta0)
    except BracketFailure:
        c = None
    if c is None or not info.tiny <= min(c.xi0, c.omega0) <= max(c.xi0, c.omega0) < math.inf:
        # coeffs cannot hold xi0 or omega0 as a normal double: check that
        # one of them really lies outside that range
        ln_xi0 = -math.log(d.c2) / d.u - (p.a2 / p.b2) * math.log(eta) + d.beta2 * lnI
        ln_om0 = -math.log(d.c0) / d.v - (p.b0 / p.a0) * math.log(zeta0) + d.beta0 * lnI
        ln_range = (math.log(info.tiny), math.log(info.max))
        assert not all(ln_range[0] < x < ln_range[1] for x in (ln_xi0, ln_om0))
        return
    ln_xi0, ln_om0 = math.log(c.xi0), math.log(c.omega0)
    terms = (
        (d.beta0 / d.beta2) * ln_xi0,
        (1.0 + k / d.v) * math.log(eta),
        -(p.b0 / p.a0) * math.log(zeta0),
        (math.log(d.c2) - math.log(d.c0)) / d.v,
    )
    assert abs(ln_om0 - sum(terms)) <= 1e-13 * (1.0 + sum(map(abs, terms)))


def _power_product(*factors):
    """prod base^(num/den) over (base, num, den) in 40-digit decimals, exact
    in the double inputs and free of the double exponent range."""
    with localcontext() as ctx:
        ctx.prec = 40
        out = Decimal(1)
        for base, num, den in factors:
            out *= Decimal(base) ** (Decimal(num) / Decimal(den))
        return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**SADDLES, eta=st.floats(0.3, 1.0), zeta0=st.floats(0.3, 1.0))
def test_xi0_omega0_match_the_product_of_powers(kappa, logs, sign, eta, zeta0):
    # coeffs works in logs; a reference product of powers without a double
    # range decides whether xi0 and omega0 are normal doubles
    p = saddle(kappa, logs, sign)
    d = derive_constants(p)
    I = m_integral(p)
    ref = (
        _power_product((d.c2, -1.0, d.u), (eta, -p.a2, p.b2), (I, d.beta2, 1.0)),
        _power_product((d.c0, -1.0, d.v), (zeta0, -p.b0, p.a0), (I, d.beta0, 1.0)),
    )
    info = np.finfo(float)
    if not all(Decimal(info.tiny) <= r <= Decimal(info.max) for r in ref):
        with pytest.raises(BracketFailure):
            coeffs(p, eta=eta, zeta0=zeta0)
        return
    c = coeffs(p, eta=eta, zeta0=zeta0)
    assert c.xi0 == pytest.approx(float(ref[0]), rel=1e-13)
    assert c.omega0 == pytest.approx(float(ref[1]), rel=1e-13)


def test_coeffs_and_tail_coeffs_where_a_factor_of_xi0_overflows():
    # as a product, I^beta2 overflows although ln xi0 = 597.41; the uniform
    # density's h_1 is zero, so H_2 and Hhat_2 are exactly 0 with no 0*inf
    p = SaddleParams(0.1514, 11.8874, 1.2662, 0.0395, 2)
    c = coeffs(p, eta=0.5, zeta0=1.0)
    assert math.log(c.xi0) == pytest.approx(597.4114327312493, rel=1e-13)
    assert math.log(c.omega0) == pytest.approx(20.93006573610956, rel=1e-13)
    dens = uniform_density((0.5, 0.505), 2)
    tc = tail_coeffs(p, density=dens, zeta0=1.0)
    assert math.isfinite(tc.C0) and tc.H[1] == 0.0 and tc.Hhat[1] == 0.0
    # with h_1 = 1, H_2 integrates xi0^2 = e^1194.8, which is no double
    sloped = make_density((0.5, 0.505), [[1.0], [1.0]], [1.0], kappa=2)
    with pytest.raises(BracketFailure, match="not finite"):
        tail_coeffs(p, density=sloped, zeta0=1.0)


def test_coeffs_raise_where_xi0_is_not_a_double():
    # ln xi0 = 1130.6 lies above ln(largest double) = 709.78
    p = SaddleParams(1.951, 13.73, 0.8246, 0.01496, 4)
    with pytest.raises(BracketFailure, match="ln\\(xi0\\) = 1130.56"):
        coeffs(p, eta=0.5907, zeta0=1.0)
    dens = uniform_density((0.5907, 0.6), 4)
    with pytest.raises(BracketFailure, match="ln\\(xi0\\)"):
        tail_coeffs(p, density=dens, zeta0=1.0)


def test_coeffs_where_the_product_form_of_omega0_loses_digits():
    # beta0/beta2 = 49.5: as a product, xi0^(beta0/beta2) = 2.1e297 amplifies
    # the rounding of xi0 past 1e-8 relative, but omega0 itself is finite
    p = SaddleParams(0.0511356387494266, 0.3501302054415837, 11.91459137613495, 0.09399604262448451, 2)
    c = coeffs(p, eta=0.5454192104219183, zeta0=0.3962444409589233)
    assert math.isfinite(c.xi0) and c.omega0 == pytest.approx(1.5798168538344e211, rel=1e-12)


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
    # tail_coeffs' ladder: an integrable singularity off the panel grid
    # converges like panels^-1/2
    def ladder(f, lo, hi):
        return gl_doubling(
            lambda y, wts: np.array([f(y) @ wts]), lo, hi, 8, asymptotics._MAX_PANELS,
            rtol=1e-9, what="tail-coefficient quadrature",
        )

    val, panels = ladder(lambda y: y**3, 0.0, 2.0)
    assert val[0] == pytest.approx(4.0, rel=1e-14) and panels == 16
    with pytest.raises(NotConverged, match="16384 panels"):
        ladder(lambda y: np.abs(y - 1.0 / 3.0) ** -0.5, 0.0, 1.0)
