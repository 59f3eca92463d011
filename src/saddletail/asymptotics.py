"""Closed-form asymptotics for deep entries, long passages, heavy tails.

An orbit entering the corner rectangle at (xi, eta) and leaving through
x = zeta0 at height omega spends a long time T near the origin iff xi is
small, and to second order

    xi(T)    = xi0    * T^(-beta2) * (1 - xi1/T + O(T^-2))
    omega(T) = omega0 * T^(-beta0) * (1 - omega1/T + ...)

with coefficients that are explicit in the field parameters, the section,
and the full slope integral I = int_0^inf phi.  The omega coefficients
are the xi ones of the time-reversed field, which swaps the coordinate
roles (a0, a2, b0, b2) -> (b2, b0, a2, a0) and exchanges eta with zeta0.
The code computes each coefficient once, from the field itself; the tests
check the reversal identities.

Pushing xi(T) through an entry density gives the passage-time tail

    mu{T > n} = sum_j H_j n^(-j*beta) - sum_j Hhat_j n^(-(j*beta + 1))

with beta = beta2, truncated at j = kappa (the density's sweep expansion
stops there); the neglected remainder is O(n^-min((kappa+1)beta, 2+beta)).
C0 = H_1 is the constant that feeds the renewal-mixing predictions.
xi0 and omega0 are computed from their logs, and BracketFailure is raised
where they are not normal doubles.  tail_coeffs integrates every H_j and
Hhat_j in one Gauss-Legendre ladder (_numerics.gl_doubling).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import gl_doubling
from ._reduction import _exp_normal, kernel_for
from .density import EntryDensity
from .errors import BracketFailure, InvalidInput
from .params import SaddleParams, derive_constants

__all__ = [
    "AsymptoticCoeffs",
    "TailCoeffs",
    "m_integral",
    "coeffs",
    "xi_expansion",
    "omega_expansion",
    "invert_exit_time",
    "tail_coeffs",
    "tail_expansion",
    "delta_of_T",
]

# tail_coeffs doubles its Gauss-Legendre panels from 8 up to this count
_MAX_PANELS = 16384


def _check_geometry(**lengths: float) -> None:
    """InvalidInput unless each named length is finite and positive."""
    for name, x in lengths.items():
        if not (0.0 < x < math.inf):
            raise InvalidInput(f"{name} must be finite and positive, got {x!r}")


def m_integral(p: SaddleParams) -> float:
    """Full slope integral I = int_0^inf phi(M) dM.

    I is the complete Beta integral c0^(-b) * c2^(-a) * B(a, b) / kappa,
    read from the reduction kernel's I_inf.  The time-reversed field swaps
    a with b and c0 with c2, which leaves I unchanged (M -> 1/M), so one
    value serves both the entry and the exit expansion.
    """
    return kernel_for(p).I_inf


def _xi_coeffs(p: SaddleParams, d, eta, zeta0: float):
    """ln xi0, xi1 and the bracket S of coeffs at heights eta (vectorised).

    ln xi0 = -ln(c2)/u - (a2/b2) ln(eta) + beta2 ln(I): as a product of
    powers, a factor can overflow where xi0 itself is a normal double.
    """
    k = float(p.kappa)
    ln_xi0 = (
        -math.log(d.c2) / d.u
        - (p.a2 / p.b2) * np.log(eta)
        + d.beta2 * math.log(m_integral(p))
    )
    bracket = 1.0 / (p.a0 * zeta0**k) + 1.0 / (p.b2 * eta**k)
    return ln_xi0, (d.beta2 / k) * bracket, bracket


@dataclass(frozen=True)
class AsymptoticCoeffs:
    """Second-order passage-time expansion coefficients at fixed geometry."""

    eta: float
    zeta0: float
    beta0: float
    beta2: float
    xi0: float
    xi1: float
    omega0: float
    omega1: float
    m_integral_xi: float


def coeffs(
    p: SaddleParams, d=None, eta: float | None = None, zeta0: float | None = None
) -> AsymptoticCoeffs:
    """Expansion coefficients for entry height eta and section x = zeta0.

    The two second-order coefficients share one bracket,
    S = 1/(a0*zeta0^k) + 1/(b2*eta^k):  xi1 = (beta2/k) S and
    omega1 = (beta0/k) S.  (Time reversal sends a0 -> b2 while also sending
    the section to the entry height, so the bracket is invariant.)  xi0 and
    omega0 share the slope integral I.  Time reversal maps each coefficient
    of the field onto its partner of the reversed field; the tests check
    those identities.
    """
    if eta is None or zeta0 is None:
        raise InvalidInput("eta and zeta0 are required")
    _check_geometry(eta=eta, zeta0=zeta0)
    if d is None:
        d = derive_constants(p)
    I = m_integral(p)
    ln_xi0, xi1, bracket = _xi_coeffs(p, d, eta, zeta0)
    ln_omega0 = (
        -math.log(d.c0) / d.v - (p.b0 / p.a0) * math.log(zeta0) + d.beta0 * math.log(I)
    )
    return AsymptoticCoeffs(
        eta=float(eta),
        zeta0=float(zeta0),
        beta0=d.beta0,
        beta2=d.beta2,
        xi0=float(_exp_normal(ln_xi0, "leading entry coefficient at ln(xi0)")),
        xi1=xi1,
        omega0=float(_exp_normal(ln_omega0, "leading exit coefficient at ln(omega0)")),
        omega1=(d.beta0 / float(p.kappa)) * bracket,
        m_integral_xi=I,
    )


def xi_expansion(c: AsymptoticCoeffs, T):
    """Second-order entry abscissa for passage time T, vectorised."""
    T = np.asarray(T, dtype=float)
    return c.xi0 * T ** (-c.beta2) * (1.0 - c.xi1 / T)


def omega_expansion(c: AsymptoticCoeffs, T):
    """Second-order exit height for passage time T, vectorised."""
    T = np.asarray(T, dtype=float)
    return c.omega0 * T ** (-c.beta0) * (1.0 - c.omega1 / T)


def invert_exit_time(p: SaddleParams, eta: float, zeta0: float, T):
    """Exact entry abscissa whose passage time to x = zeta0 equals T.

    Numerical inversion of the reduced time integral; this is the exact
    curve the expansions above approximate.  Scalar in, scalar out;
    arrays vectorise.
    """
    _check_geometry(eta=eta, zeta0=zeta0)
    ker = kernel_for(p)
    T_arr = np.asarray(T, dtype=float)
    scalar = T_arr.ndim == 0
    out = ker.invert(T_arr, eta, zeta0)
    return float(out[0]) if scalar else out.reshape(T_arr.shape)


@dataclass(frozen=True)
class TailCoeffs:
    """Coefficients of the passage-time tail over an entry density."""

    beta: float
    C0: float
    H: tuple[float, ...]
    Hhat: tuple[float, ...]
    eta_range: tuple[float, float]
    zeta0: float


def tail_coeffs(
    p: SaddleParams,
    d=None,
    density: EntryDensity | None = None,
    zeta0: float | None = None,
) -> TailCoeffs:
    """Integrate the inversion expansion against an entry density.

    H_j    = (1/j!)     int h_{j-1}(y) xi0(y)^j        w(y) dy
    Hhat_j = (1/(j-1)!) int h_{j-1}(y) xi0(y)^j xi1(y) w(y) dy

    for j = 1..kappa, with xi0, xi1 taken at entry height y.  C0 = H_1.
    H_j = Hhat_j = 0 exactly where h_{j-1} is the zero polynomial; a
    non-finite integral raises BracketFailure.
    """
    if density is None or zeta0 is None:
        raise InvalidInput("density and zeta0 are required")
    _check_geometry(zeta0=zeta0)
    if d is None:
        d = derive_constants(p)
    js = [j for j in range(1, p.kappa + 1) if np.any(density.h_coeffs[j - 1])]

    def sums(y, wts):
        ln_xi0, xi1, _ = _xi_coeffs(p, d, y, zeta0)
        xi0 = _exp_normal(ln_xi0, "leading entry coefficient at ln(xi0)")
        with np.errstate(over="ignore", invalid="ignore"):
            num = np.array([density.h_j(j - 1, y) * xi0**j * density.w(y) for j in js])
            val = np.concatenate([num @ wts, num * xi1 @ wts])
        if not np.all(np.isfinite(val)):
            raise BracketFailure(f"H_j or Hhat_j with j in {js} is not finite")
        return val

    lo, hi = density.eta_range
    val, _ = gl_doubling(
        sums, lo, hi, 8, _MAX_PANELS, rtol=1e-9, what="tail-coefficient quadrature"
    )
    H, Hhat = [0.0] * p.kappa, [0.0] * p.kappa
    for i, j in enumerate(js):
        H[j - 1] = float(val[i]) / math.factorial(j)
        Hhat[j - 1] = float(val[len(js) + i]) / math.factorial(j - 1)
    return TailCoeffs(
        beta=d.beta2,
        C0=H[0],
        H=tuple(H),
        Hhat=tuple(Hhat),
        eta_range=(float(lo), float(hi)),
        zeta0=float(zeta0),
    )


def tail_expansion(tc: TailCoeffs, n):
    """Two-scale tail prediction at times n (positive, vectorised).

    Truncation error is O(n^-min((kappa+1)beta, 2+beta)) where kappa is
    the number of retained H terms.
    """
    n = np.asarray(n, dtype=float)
    if np.any(n <= 0.0):
        raise InvalidInput("tail times must be positive")
    out = np.zeros_like(n)
    for j, (hj, hhj) in enumerate(zip(tc.H, tc.Hhat), start=1):
        out += hj * n ** (-j * tc.beta) - hhj * n ** (-(j * tc.beta + 1.0))
    return out


def delta_of_T(p: SaddleParams, c: AsymptoticCoeffs, T):
    """Diagonal level coordinate of the passage-T orbit, to second order.

    The point (delta, delta) on the diagonal shares the level of the entry
    point (xi(T), eta):

        delta(T) = delta0 * T^(-1/k) * (1 - xi1/(k*beta2) * 1/T)

    delta0 = xi0^(1/(k*beta2)) * eta^(1 - 1/(k*beta2))
             * (c2/(c0+c2))^(1/(u+v+k)).
    """
    d = derive_constants(p)
    k = float(p.kappa)
    T = np.asarray(T, dtype=float)
    delta0 = (
        c.xi0 ** (1.0 / (k * d.beta2))
        * c.eta ** (1.0 - 1.0 / (k * d.beta2))
        * (d.c2 / (d.c0 + d.c2)) ** (1.0 / (d.u + d.v + k))
    )
    val = delta0 * T ** (-1.0 / k) * (1.0 - c.xi1 / (k * d.beta2) / T)
    return float(val) if val.ndim == 0 else val
