"""Shared numerics: the 16-point Gauss-Legendre rule and a safeguarded solver.

gl_panels lays the rule on equal panels of an interval, and gl_doubling,
the one panel-doubling loop, serves the semi-analytic tail and the tail
coefficients.  solve_increasing is the one root-finder behind exit heights,
exit-time inversion, inverse-CDF sampling and event location: Newton kept
inside a per-element bracket, with a bisection fallback (Numerical Recipes,
rtsafe).
"""
from __future__ import annotations

import numpy as np

from .errors import NotConverged

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def gl_panels(lo: float, hi: float, panels: int):
    """Nodes and weights of the 16-point rule on `panels` equal panels of [lo, hi].

    Both arrays are flat and panel-major: entries 16*j .. 16*j+15 belong to
    panel j.
    """
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[None, :] + half * GL_NODES[:, None]).ravel(order="F")
    wts = np.tile(GL_WEIGHTS * half, panels)
    return nodes, wts


def gl_doubling(sums, lo: float, hi: float, panels: int, max_panels: int, *, rtol, what):
    """(sums, panel count) once every sum moves by <= rtol*max(|v|, 1e-300).

    sums(nodes, wts) returns a 1-d array of sums over gl_panels(lo, hi, n);
    n starts at panels and doubles, and NotConverged is raised past max_panels.
    """
    prev = None
    while True:
        val = sums(*gl_panels(lo, hi, panels))
        if prev is not None and np.all(
            np.abs(val - prev) <= rtol * np.maximum(np.abs(val), 1e-300)
        ):
            return val, panels
        if panels >= max_panels:
            raise NotConverged(f"{what} not stable to rtol={rtol} at {panels} panels")
        prev = val
        panels *= 2


def solve_increasing(fun, lo, hi, x=None, *, tol, max_iter=100):
    """Roots of increasing functions, one per element of the 1-d brackets.

    fun(x, i) returns (value, slope) at x for the batch elements with
    indices i; value <= 0 at lo and >= 0 at hi is assumed, not checked.
    x is the starting point (default: the bracket midpoint).  Each
    iteration shrinks the bracket to the sign change and takes the Newton
    step if it lands strictly inside the bracket, else bisects.  An
    element is frozen once its last correction is <= tol (scalar or per
    element), so each root depends only on its own inputs, never on the
    rest of the batch.  Raises NotConverged if some element is still
    moving after max_iter iterations.
    """
    lo, hi = (np.array(b, dtype=float) for b in np.broadcast_arrays(lo, hi))
    x = 0.5 * (lo + hi) if x is None else np.clip(x, lo, hi)
    tol = np.broadcast_to(tol, x.shape)
    i = np.arange(x.size)
    for _ in range(max_iter):
        xa = x[i]
        val, slope = fun(xa, i)
        up = val >= 0.0
        lo_i = np.where(up, lo[i], xa)
        hi_i = np.where(up, xa, hi[i])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(val == 0.0, xa, xa - val / slope)
        # a slope <= 0 (or nan) points out of the bracket; a step onto an end
        # already evaluated gains nothing (residual noise), so bisect instead
        inside = (newton == xa) | ((newton > lo_i) & (newton < hi_i))
        x[i] = np.where(inside, newton, 0.5 * (lo_i + hi_i))
        lo[i], hi[i] = lo_i, hi_i
        i = i[np.abs(x[i] - xa) > tol[i]]
        if i.size == 0:
            return x
    raise NotConverged(
        f"{i.size} of {x.size} roots still moving after {max_iter} iterations"
    )
