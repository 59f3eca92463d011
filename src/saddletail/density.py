"""Entry densities on the inflow strip of the corner rectangle.

Returning orbits enter the rectangle [0, zeta0] x [eta0, eta1] through its
top edge neighbourhood; their distribution is modelled by a weight w(y) on
the entry heights and a smooth density h(x, y) in the sweep direction,
expanded as h(x, y) = sum_j h_j(y) x^j / j! with polynomial coefficient
functions h_j.  Only the first kappa coefficient functions matter for the
tail expansion, so that is what an EntryDensity stores.

All polynomials are plain ascending coefficient arrays evaluated with
numpy's polynomial helpers; the weight is normalised to unit mass on the
entry range at construction.  Sampling inverts the polynomial CDFs with the
package's safeguarded Newton solver (_numerics.solve_increasing): each draw
is converged to 1e-15 relative and depends only on its own uniform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._numerics import solve_increasing
from .errors import InvalidInput

__all__ = ["EntryDensity", "uniform_density"]

_GRID = 512


def _poly_integral(coeffs: np.ndarray, lo: float, hi: float) -> float:
    anti = npoly.polyint(coeffs)
    return float(npoly.polyval(hi, anti) - npoly.polyval(lo, anti))


@dataclass(frozen=True, eq=False)
class EntryDensity:
    """Entry-height weight and sweep-direction expansion coefficients.

    eta_range  -- (lo, hi), the heights at which orbits enter
    h_coeffs   -- tuple of ascending coefficient arrays for h_0 .. h_{kappa-1}
    weight     -- ascending coefficients of w(y), normalised to unit mass
    """

    eta_range: tuple[float, float]
    h_coeffs: tuple[np.ndarray, ...]
    weight: np.ndarray

    @property
    def n_coeffs(self) -> int:
        return len(self.h_coeffs)

    def w(self, y):
        """Normalised entry-height weight."""
        return npoly.polyval(np.asarray(y, dtype=float), self.weight)

    def h_j(self, j: int, y):
        """j-th sweep coefficient function evaluated at heights y."""
        return npoly.polyval(np.asarray(y, dtype=float), self.h_coeffs[j])

    def h(self, x, y):
        """Density h(x, y) = sum_j h_j(y) x^j / j!."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        fact = 1.0
        for j in range(self.n_coeffs):
            if j > 0:
                fact *= j
            out += self.h_j(j, y) * x**j / fact
        return out

    def inner_mass(self, y, x_cut):
        """Integral of h(., y) from 0 to x_cut, exact in the polynomial part."""
        y = np.asarray(y, dtype=float)
        x_cut = np.asarray(x_cut, dtype=float)
        out = np.zeros(np.broadcast(y, x_cut).shape)
        fact = 1.0
        for j in range(self.n_coeffs):
            fact *= j + 1
            out += self.h_j(j, y) * x_cut ** (j + 1) / fact
        return out

    # -- sampling ---------------------------------------------------------

    def sample_heights(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n heights from w by inverting its polynomial CDF."""
        lo, hi = self.eta_range
        cdf = npoly.polyint(self.weight)
        base = npoly.polyval(lo, cdf)
        targets = rng.random(n)

        def excess(y, i):
            return npoly.polyval(y, cdf) - base - targets[i], self.w(y)

        return solve_increasing(excess, np.full(n, lo), hi, tol=1e-15 * hi)

    def sample_abscissae(
        self, rng: np.random.Generator, y: np.ndarray, x_max: np.ndarray
    ) -> np.ndarray:
        """Draw x from h(., y) restricted to [0, x_max], given heights y."""
        total = self.inner_mass(y, x_max)
        targets = rng.random(len(y)) * total

        def excess(x, i):
            return self.inner_mass(y[i], x) - targets[i], self.h(x, y[i])

        return solve_increasing(excess, 0.0, x_max, tol=1e-15 * x_max)


def make_density(
    eta_range: tuple[float, float],
    h_coeffs,
    weight,
    *,
    kappa: int,
) -> EntryDensity:
    """Validate, normalise, and freeze an entry density.

    Requires exactly kappa coefficient functions, a weight with positive
    mass that is nonnegative on the entry range, and a strictly positive
    leading coefficient function h_0 there (orbits do enter everywhere).
    """
    lo, hi = float(eta_range[0]), float(eta_range[1])
    if not (0.0 < lo < hi):
        raise InvalidInput("entry range must satisfy 0 < lo < hi")
    coeffs = tuple(np.asarray(c, dtype=float).ravel() for c in h_coeffs)
    if len(coeffs) != kappa:
        raise InvalidInput(f"need exactly kappa={kappa} coefficient functions")
    for j, c in enumerate(coeffs):
        if c.size == 0 or not np.all(np.isfinite(c)):
            raise InvalidInput(f"coefficient function h_{j} is empty or non-finite")
    w = np.asarray(weight, dtype=float).ravel()
    if w.size == 0 or not np.all(np.isfinite(w)):
        raise InvalidInput("weight polynomial is empty or non-finite")
    grid = np.linspace(lo, hi, _GRID)
    wv = npoly.polyval(grid, w)
    if np.any(wv < -1e-12 * max(1.0, np.max(np.abs(wv)))):
        raise InvalidInput("weight must be nonnegative on the entry range")
    mass = _poly_integral(w, lo, hi)
    if mass <= 0.0:
        raise InvalidInput("weight must have positive mass on the entry range")
    h0 = npoly.polyval(grid, coeffs[0])
    if np.any(h0 <= 0.0):
        raise InvalidInput("h_0 must be strictly positive on the entry range")
    return EntryDensity(
        eta_range=(lo, hi), h_coeffs=coeffs, weight=w / mass
    )


def uniform_density(eta_range: tuple[float, float], kappa: int) -> EntryDensity:
    """Unit density: w uniform on the range, h identically one."""
    h = [np.array([1.0])] + [np.array([0.0]) for _ in range(kappa - 1)]
    return make_density(eta_range, h, np.array([1.0]), kappa=kappa)
