"""Closed-form asymptotics for deep entries, long passages, heavy tails.

An orbit entering the corner rectangle at (xi, eta) and leaving through
x = zeta0 at height omega spends a long time T near the origin iff xi is
small, and to second order

    xi(T)    = xi0    * T^(-beta2) * (1 - xi1/T + O(T^-2))
    omega(T) = omega0 * T^(-beta0) * (1 - omega1/T + ...)

with coefficients that are explicit in the field parameters, the section,
and the full slope integral I = int_0^inf phi.  The omega coefficients
follow from the xi ones by time reversal, which swaps the coordinate roles
(a0, a2, b0, b2) -> (b2, b0, a2, a0) and exchanges eta with zeta0; both
routes are kept and cross-checked.

Pushing xi(T) through an entry density gives the passage-time tail

    mu{T > n} = sum_j H_j n^(-j*beta) - sum_j Hhat_j n^(-(j*beta + 1))

with beta = beta2, truncated at j = kappa (the density's sweep expansion
stops there); the neglected remainder is O(n^-min((kappa+1)beta, 2+beta)).
C0 = H_1 is the constant that feeds the renewal-mixing predictions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import gl_panels
from ._reduction import kernel_for
from .density import EntryDensity
from .errors import InvalidInput, NotConverged
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

# panel doublings (from 8 panels) before _gl_integral gives up
_GL_DOUBLINGS = 12


def _swap(p: SaddleParams) -> SaddleParams:
    """Parameter set of the time-reversed field (coordinates exchanged)."""
    return SaddleParams(a0=p.b2, a2=p.b0, b0=p.a2, b2=p.a0, kappa=p.kappa)


def m_integral(p: SaddleParams, orientation: str = "xi") -> float:
    """Full slope integral I = int_0^inf phi(M) dM for the given orientation.

    I is the complete Beta integral c0^(-b) * c2^(-a) * B(a, b) / kappa,
    read from the reduction kernel's I_inf.  "xi" takes it for the field
    itself, "omega" for the time-reversed field, which swaps a with b and
    c0 with c2.  The substitution M -> 1/M maps one onto the other, so the
    two values agree to rounding; both are kept because downstream
    formulas are phrased per orientation.
    """
    if orientation == "xi":
        return kernel_for(p).I_inf
    if orientation == "omega":
        return kernel_for(_swap(p)).I_inf
    raise InvalidInput(f"orientation must be 'xi' or 'omega', got {orientation!r}")


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
    m_integral_omega: float


def coeffs(
    p: SaddleParams, d=None, eta: float | None = None, zeta0: float | None = None
) -> AsymptoticCoeffs:
    """Expansion coefficients for entry height eta and section x = zeta0.

    The two second-order coefficients share one bracket,
    S = 1/(a0*zeta0^k) + 1/(b2*eta^k):  xi1 = (beta2/k) S and
    omega1 = (beta0/k) S.  (Time reversal sends a0 -> b2 while also sending
    the section to the entry height, so the bracket is invariant.)  omega0
    is additionally recomputed from xi0 through the reversal identity;
    disagreement beyond 1e-8 relative signals a broken slope integral and
    raises NotConverged.
    """
    if eta is None or zeta0 is None:
        raise InvalidInput("eta and zeta0 are required")
    if eta <= 0.0 or zeta0 <= 0.0:
        raise InvalidInput("eta and zeta0 must be positive")
    if d is None:
        d = derive_constants(p)
    k = float(p.kappa)
    I_xi = m_integral(p, "xi")
    I_om = m_integral(p, "omega")
    xi0 = d.c2 ** (-1.0 / d.u) * eta ** (-(p.a2 / p.b2)) * I_xi**d.beta2
    omega0 = d.c0 ** (-1.0 / d.v) * zeta0 ** (-(p.b0 / p.a0)) * I_om**d.beta0
    bracket = 1.0 / (p.a0 * zeta0**k) + 1.0 / (p.b2 * eta**k)
    xi1 = (d.beta2 / k) * bracket
    omega1 = (d.beta0 / k) * bracket

    alt = (
        xi0 ** (d.beta0 / d.beta2)
        * eta ** (1.0 + k / d.v)
        * zeta0 ** (-(p.b0 / p.a0))
        * (d.c2 / d.c0) ** (1.0 / d.v)
    )
    if not math.isclose(alt, omega0, rel_tol=1e-8):
        raise NotConverged(
            f"reversal identity for omega0 violated: {omega0} from the omega "
            f"integral vs {alt} from xi0"
        )
    return AsymptoticCoeffs(
        eta=float(eta),
        zeta0=float(zeta0),
        beta0=d.beta0,
        beta2=d.beta2,
        xi0=xi0,
        xi1=xi1,
        omega0=omega0,
        omega1=omega1,
        m_integral_xi=I_xi,
        m_integral_omega=I_om,
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
    if eta <= 0.0 or zeta0 <= 0.0:
        raise InvalidInput("eta and zeta0 must be positive")
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


def _gl_integral(f, lo: float, hi: float, rtol: float = 1e-9) -> float:
    """Composite Gauss-Legendre with panel doubling until stable to rtol.

    Raises NotConverged if the value still moves after _GL_DOUBLINGS
    doublings.
    """
    prev = None
    for doubling in range(_GL_DOUBLINGS):
        nodes, wts = gl_panels(lo, hi, 8 << doubling)
        val = float(f(nodes) @ wts)
        if prev is not None and abs(val - prev) <= rtol * max(abs(val), 1e-300):
            return val
        prev = val
    raise NotConverged(
        f"tail-coefficient quadrature not stable to rtol={rtol} "
        f"at {8 << (_GL_DOUBLINGS - 1)} panels"
    )


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
    """
    if density is None or zeta0 is None:
        raise InvalidInput("density and zeta0 are required")
    if zeta0 <= 0.0:
        raise InvalidInput("zeta0 must be positive")
    if d is None:
        d = derive_constants(p)
    k = float(p.kappa)
    I_xi = m_integral(p, "xi")
    lead = d.c2 ** (-1.0 / d.u) * I_xi**d.beta2

    def xi0_of(y):
        return lead * y ** (-(p.a2 / p.b2))

    def xi1_of(y):
        return (d.beta2 / k) * (1.0 / (p.a0 * zeta0**k) + 1.0 / (p.b2 * y**k))

    lo, hi = density.eta_range
    H = []
    Hhat = []
    fact = 1.0
    for j in range(1, p.kappa + 1):
        fact *= j

        def num(y, _j=j):
            return density.h_j(_j - 1, y) * xi0_of(y) ** _j * density.w(y)

        def num_hat(y, _j=j):
            return density.h_j(_j - 1, y) * xi0_of(y) ** _j * xi1_of(y) * density.w(y)

        H.append(_gl_integral(num, lo, hi) / fact)
        Hhat.append(_gl_integral(num_hat, lo, hi) / (fact / j))
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
