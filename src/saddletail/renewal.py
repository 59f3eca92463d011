"""Scalar renewal shadow of the mixing predictions.

A heavy-tailed return distribution p_n drives the renewal recursion
u_n = sum_k p_k u_{n-k}, u_0 = 1, and for tails C0 * n^(-beta) with
beta in (1/2, 1) the renewal mass obeys u_n ~ d0 * n^(beta-1) with
d0 = sin(pi*beta)/(pi*C0); the next-order structure is a polynomial in
n^(beta-1) with q = max{j: (j+1)*beta > j} correction terms whose
coefficients have no closed form here and are fitted empirically.

The return distribution embeds the raw tail masses as a probability
sequence by absorbing the strip complement into p_1:
p_1 = 1 - tail(1) and p_n = tail(n-1) - tail(n) afterwards, so that
sum_n p_n + tail(N) = 1 exactly and the probability tail beyond any
n >= 1 is the tabulated mass itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BetaOutOfRange, IllConditioned, InvalidInput, NonMonotoneInput
from .tails import TailTable

__all__ = [
    "RenewalSequence",
    "MixingCoeffs",
    "return_distribution",
    "renewal_sequence",
    "mixing_coeffs",
    "fit_higher_order",
    "correlation_prediction",
]


@dataclass(frozen=True, eq=False)
class RenewalSequence:
    """Return distribution p (p[i] = p_{i+1}) and renewal mass u (u[0] = 1)."""

    p: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class MixingCoeffs:
    """Constants of the correlation-decay bracket.

    d0 is exact; d_fit holds the q empirically fitted next-order
    coefficients once fit_higher_order has run (empty before that), with
    fit_residual_rms reporting that fit's quality.
    """

    beta: float
    d0: float
    q: int
    d_fit: tuple[float, ...] = ()
    fit_residual_rms: float | None = None


def return_distribution(t: TailTable) -> np.ndarray:
    """Embed a tail table as a probability sequence p_1, p_2, ...

    Needs a contiguous integer grid starting at 0 or 1.  The tail before
    the first tabulated point is taken as exactly 1 (total probability),
    so p_1 absorbs the mass of returns faster than the strip resolves.
    """
    n = t.n_grid
    if np.any(np.diff(n) != 1):
        raise InvalidInput("return_distribution needs a contiguous integer grid")
    if n[0] not in (0, 1):
        raise InvalidInput("grid must start at n = 0 or n = 1")
    mass = t.mass[1:] if n[0] == 0 else t.mass
    p = np.concatenate(([1.0], mass[:-1])) - mass
    if np.any(p < 0.0):
        raise NonMonotoneInput("tail table produces a negative return mass")
    return p


def renewal_sequence(p, N: int) -> RenewalSequence:
    """Renewal masses u_0..u_N from the return distribution by convolution.

    u_0 = 1 and u_n = sum_{k=1}^{n} p_k u_{n-k}; the recursion is exact up
    to float rounding.  Requires p defined through index N (p[N-1]).
    """
    p = np.asarray(p, dtype=float)
    if N < 1:
        raise InvalidInput("N must be at least 1")
    if len(p) < N:
        raise InvalidInput(f"p must be defined up to N={N}, got {len(p)} terms")
    if not np.all(np.isfinite(p)):
        raise InvalidInput("return masses must be finite")
    if np.any(p < 0.0):
        raise InvalidInput("return masses must be nonnegative")
    if p.sum() > 1.0 + 1e-9:
        raise InvalidInput("return masses must sum to at most 1")
    p = p[:N]
    p_rev = np.ascontiguousarray(p[::-1])
    u = np.empty(N + 1)
    u[0] = 1.0
    for n in range(1, N + 1):
        u[n] = np.dot(u[:n], p_rev[N - n :])
    return RenewalSequence(p=p, u=u)


def mixing_coeffs(C0: float, beta: float) -> MixingCoeffs:
    """Exact d0 and correction count q for a C0 * n^(-beta) tail.

    d0 = sin(pi*beta)/(pi*C0), the reciprocal of C0*Gamma(beta)*Gamma(1-beta).
    q = max{j >= 1: (j+1)*beta > j}, the number of next-order terms; the
    comparison carries a 1e-9 slack so grazing cases like 5*0.8 = 4 do not
    flip on float rounding.  q = 0 for beta <= 1/2.
    """
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"beta must lie in (0, 1), got {beta}")
    if not 0.0 < C0 < math.inf:
        raise InvalidInput("C0 must be positive and finite")
    d0 = math.sin(math.pi * beta) / (math.pi * C0)
    q = 0
    j = 1
    while (j + 1) * beta - j > 1e-9 * max(1.0, j):
        q = j
        j += 1
    return MixingCoeffs(beta=float(beta), d0=d0, q=q)


def fit_higher_order(u, mc: MixingCoeffs, fit_range: tuple[int, int]) -> MixingCoeffs:
    """Fit the q next-order coefficients of the renewal bracket.

    With d0 fixed, least squares of u_n - d0*n^(beta-1) against the basis
    {n^{2(beta-1)}, ..., n^{(q+1)(beta-1)}} over the fit range.  The
    normalized design matrix must be numerically sane; a condition number
    above 1e12 raises IllConditioned rather than silently regularizing.
    """
    if isinstance(u, RenewalSequence):
        u = u.u
    u = np.asarray(u, dtype=float)
    if mc.q < 1:
        raise InvalidInput("no next-order terms to fit (q = 0)")
    lo, hi = int(fit_range[0]), int(fit_range[1])
    if not (1 <= lo < hi):
        raise InvalidInput("fit range must satisfy 1 <= lo < hi")
    if hi >= len(u):
        raise InvalidInput("u must be computed beyond the fit range")
    n = np.arange(lo, hi + 1, dtype=float)
    target = u[lo : hi + 1] - mc.d0 * n ** (mc.beta - 1.0)
    A = np.column_stack(
        [n ** ((k + 1) * (mc.beta - 1.0)) for k in range(1, mc.q + 1)]
    )
    scale = np.linalg.norm(A, axis=0)
    An = A / scale
    cond = np.linalg.cond(An)
    if cond > 1e12:
        raise IllConditioned(
            f"next-order basis condition number {cond:.3e} exceeds 1e12"
        )
    sol, *_ = np.linalg.lstsq(An, target, rcond=None)
    d = sol / scale
    rms = float(np.sqrt(np.mean((target - A @ d) ** 2)))
    return replace(mc, d_fit=tuple(float(v) for v in d), fit_residual_rms=rms)


def correlation_prediction(mc: MixingCoeffs, n):
    """Evaluate the decay bracket d0*n^(beta-1) + sum_k d_k*n^((k+1)(beta-1))."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr <= 0.0):
        raise InvalidInput("n must be positive")
    out = mc.d0 * n_arr ** (mc.beta - 1.0)
    for k, dk in enumerate(mc.d_fit, start=1):
        out = out + dk * n_arr ** ((k + 1) * (mc.beta - 1.0))
    return float(out) if out.ndim == 0 else out
