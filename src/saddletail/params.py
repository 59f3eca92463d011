"""Saddle coefficients and everything derived from them by pure arithmetic.

The planar field studied throughout the package is

    dx/dt =  x * (a0*x^kappa + a2*y^kappa)
    dy/dt = -y * (b0*x^kappa + b2*y^kappa)

on the closed first quadrant, with a0, a2, b0, b2 > 0 and kappa a positive
even integer.  The origin is a fixed point whose linearisation vanishes; all
of the asymptotics downstream are controlled by the handful of constants
computed here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateDelta, InvalidInput

__all__ = [
    "SaddleParams",
    "DerivedConstants",
    "DomainRect",
    "MeasureClass",
    "validate",
    "derive_constants",
    "rescale",
    "make_rect",
    "default_section",
]

#: |a2*b0 - a0*b2| below this is treated as degenerate.
DELTA_TOL = 1e-14


class MeasureClass(Enum):
    """Whether the natural invariant density integrates near the saddle."""

    FINITE_SRB = "FiniteSRB"
    INFINITE_SRB = "InfiniteSRB"


@dataclass(frozen=True)
class SaddleParams:
    """Coefficients of the saddle field.

    kappa must be even so the field is smooth through the axes; the
    quadrant dynamics itself only ever sees x, y >= 0.
    """

    a0: float
    a2: float
    b0: float
    b2: float
    kappa: int

    @property
    def delta(self) -> float:
        return self.a2 * self.b0 - self.a0 * self.b2


@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form constants attached to a parameter set.

    u and v are the exponents of the conserved level function, beta0 and
    beta2 the entry/exit time exponents, beta_star the mixing-rate floor.
    u, v and delta always share one sign.
    """

    delta: float
    u: float
    v: float
    beta0: float
    beta2: float
    c0: float
    c2: float
    beta_star: float
    measure_class: MeasureClass
    divergence_free: bool


@dataclass(frozen=True)
class DomainRect:
    """Rectangle [0, zeta0] x [0, eta0] next to the saddle.

    eta1 is the image of eta0 under one backward time unit along the stable
    axis, so [eta0, eta1] is the strip of fresh entries: points that were
    outside the rectangle one time unit ago.
    """

    zeta0: float
    eta0: float
    eta1: float


# validation codes returned by validate()
DEGENERATE_DELTA = "DegenerateDelta"
ODD_KAPPA = "OddKappa"
NONPOSITIVE_KAPPA = "NonPositiveKappa"
NONPOSITIVE_COEFF = "NonPositiveCoefficient"


def validate(p: SaddleParams, permissive: bool = False) -> list[str]:
    """Return the list of violated constraints, empty when p is usable.

    permissive admits a2 == 0 or b2 == 0 (flow-only work on degenerate
    families); the strict default demands all four coefficients positive.
    """
    bad: list[str] = []
    coeffs = {"a0": p.a0, "a2": p.a2, "b0": p.b0, "b2": p.b2}
    for name, val in coeffs.items():
        lo_ok = val >= 0.0 if (permissive and name in ("a2", "b2")) else val > 0.0
        if not (math.isfinite(val) and lo_ok):
            bad.append(f"{NONPOSITIVE_COEFF}:{name}")
    if not isinstance(p.kappa, int) or p.kappa < 2:
        bad.append(NONPOSITIVE_KAPPA)
    elif p.kappa % 2 != 0:
        bad.append(ODD_KAPPA)
    if math.isfinite(p.delta) and abs(p.delta) <= DELTA_TOL:
        bad.append(DEGENERATE_DELTA)
    return bad


def derive_constants(p: SaddleParams, *, permissive: bool = False) -> DerivedConstants:
    """Compute DerivedConstants, raising on an unusable parameter set.

    Raises DegenerateDelta when |a2*b0 - a0*b2| <= DELTA_TOL and InvalidInput
    for any other violation reported by validate().
    """
    codes = validate(p, permissive=permissive)
    if DEGENERATE_DELTA in codes:
        raise DegenerateDelta(
            f"a2*b0 - a0*b2 = {p.delta!r} is within {DELTA_TOL} of zero"
        )
    if codes:
        raise InvalidInput(f"invalid saddle parameters: {', '.join(codes)}")

    k = float(p.kappa)
    delta = p.delta
    c0 = p.a0 + p.b0
    c2 = p.a2 + p.b2
    u = k * p.b2 * c0 / delta
    v = k * p.a0 * c2 / delta

    # also (u + v + k)/(k*v) and (u + v + k)/(k*u), since u + v + k =
    # k*c0*c2/delta; criterion 1 checks both forms
    beta0 = c0 / (k * p.a0)
    beta2 = math.inf if p.b2 == 0.0 else c2 / (k * p.b2)

    ratios = [1.0]
    if p.b2 > 0.0:
        ratios.append(p.a2 / p.b2)
    if p.a0 > 0.0:
        ratios.append(p.b0 / p.a0)
    beta_star = min(ratios) / k

    measure = MeasureClass.INFINITE_SRB if beta2 <= 1.0 else MeasureClass.FINITE_SRB

    div_free = math.isclose(
        (k + 1.0) * p.a0, p.b0, rel_tol=1e-12
    ) and math.isclose(p.a2, (k + 1.0) * p.b2, rel_tol=1e-12)

    return DerivedConstants(
        delta=delta,
        u=u,
        v=v,
        beta0=beta0,
        beta2=beta2,
        c0=c0,
        c2=c2,
        beta_star=beta_star,
        measure_class=measure,
        divergence_free=div_free,
    )


def rescale(p: SaddleParams, r: float, s: float) -> SaddleParams:
    """Absorb the coordinate scaling x -> r*x, y -> s*y into the coefficients.

    The tail exponents are invariant under this, which is what the tests
    check; the raw coefficients of course are not.
    """
    if r <= 0.0 or s <= 0.0:
        raise InvalidInput("rescale factors must be positive")
    k = p.kappa
    return SaddleParams(
        a0=p.a0 * r**k,
        a2=p.a2 * s**k,
        b0=p.b0 * r**k,
        b2=p.b2 * s**k,
        kappa=k,
    )


def default_section(p: SaddleParams) -> float:
    """Default half-width for the rectangle around the saddle.

    Small enough that one backward time unit along either axis stays finite:
    the stable-axis solution started at this height blows up backward only
    after 1/2 a time unit more.
    """
    k = p.kappa
    return min(1.0, (2.0 * k * p.b2) ** (-1.0 / k), (2.0 * k * p.a0) ** (-1.0 / k))


def make_rect(
    p: SaddleParams,
    zeta0: float | None = None,
    eta0: float | None = None,
) -> DomainRect:
    """Build the section rectangle, filling defaults from default_section.

    eta1 = (eta0^-kappa - kappa*b2)^(-1/kappa) is the stable-axis point that
    reaches eta0 after exactly one time unit; it must exist, i.e. eta0 has to
    satisfy eta0^-kappa > kappa*b2.
    """
    if zeta0 is None:
        zeta0 = default_section(p)
    if eta0 is None:
        eta0 = default_section(p)
    if zeta0 <= 0.0 or eta0 <= 0.0:
        raise InvalidInput("zeta0 and eta0 must be positive")
    k = p.kappa
    gap = eta0 ** (-k) - k * p.b2
    if gap <= 0.0:
        raise InvalidInput(
            f"eta0 = {eta0} too large: eta0^-kappa must exceed kappa*b2 = {k * p.b2}"
        )
    eta1 = gap ** (-1.0 / k)
    return DomainRect(zeta0=zeta0, eta0=eta0, eta1=eta1)
