"""Passage-time tails over the entry strip, two independent ways.

The entry strip is {(x, y): eta0 <= y <= eta1, 0 < x <= x_max(y)} with
x_max(y) the abscissa whose exit time is exactly 1, so every point in the
strip has T >= 1.  The tail is the raw entry mass

    tail(n) = int w(y) int_0^min(xi(y,n), x_max(y)) h(x, y) dx dy,

where xi(y, n) inverts the exit time at height y.  semi_analytic_tail
computes this by quadrature (inner integral exact, outer Gauss panels with
doubling); monte_carlo_tail estimates the same number by sampling heights
from w and abscissae from h(., y), then averaging the per-sample strip
mass over the indicator {T > n}.  The two must agree within Monte Carlo
error; keeping the estimators independent is the point.  The strip edge
x_max(y) is likewise found two ways: monte_carlo_tail reads it from the
kernel's validated Chebyshev table (ReductionKernel.x_max), while
semi_analytic_tail solves it at each quadrature node with invert.

On the flow route (a nonzero perturbation) most orbits cross the section
long before the first grid point and add nothing to any mass.  Samples
whose unperturbed reduction time is below n_grid[0]/2 form a thinned
stratum: each is integrated with probability 1/16, drawn from its own RNG
substream, and carries 16 times its weight (Horvitz-Thompson), so the
estimate stays unbiased for any perturbation.

Both estimators and TailTable read their grid through one check, _grid:
a non-empty, ascending 1-d grid of nonnegative integers, where floats are
accepted only if they hold integers exactly.

Exceedance masses are turned into an exponent and constant by fit_regvar
(weighted log-log least squares, optional 1/n second-order column) and
into per-n masses by small_tail (first differences).
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._numerics import gl_doubling, gl_panels
from ._reduction import kernel_for
from ._rk45 import IntegratorConfig
from .density import EntryDensity
from .errors import InsufficientData, InvalidInput, NonMonotoneInput, SeedRequired
from .field import Perturbation, _exit_times_batch, _validate
from .params import SaddleParams, default_section

__all__ = [
    "TailTable",
    "RegVarFit",
    "geometric_grid",
    "semi_analytic_tail",
    "monte_carlo_tail",
    "fit_regvar",
    "small_tail",
]

_BLOCK = 65536
_CHUNK = 240_000
_MAX_PANELS = 256
# largest relative drop the monotone repair of semi_analytic_tail may make
_MAX_REPAIR = 1e-12
_MC_FLOW_CFG = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-10)
# flow route: samples whose unperturbed exit time is below _THIN_BELOW *
# n_grid[0] are integrated at rate 1/_THIN_RATE with _THIN_RATE times the weight
_THIN_BELOW = 0.5
_THIN_RATE = 16


def _grid(n_grid) -> np.ndarray:
    """n_grid as int64, if it is a non-empty 1-d ascending grid of integers >= 0.

    Floats are taken only where they hold integers exactly, so a grid is
    never truncated to other points than the ones it names.
    """
    raw = np.asarray(n_grid)
    if raw.ndim != 1 or raw.size == 0:
        raise InvalidInput("n_grid must be a non-empty 1-d array")
    if raw.dtype.kind not in "iu" and not (
        raw.dtype.kind == "f"
        and np.all(np.abs(raw) <= 2.0**53)
        and np.all(raw == np.floor(raw))
    ):
        raise InvalidInput(f"n_grid must hold integers, got {raw[:8].tolist()}")
    n = raw.astype(np.int64)
    if np.any(n < 0) or np.any(np.diff(n) <= 0):
        raise InvalidInput("n_grid must be ascending nonnegative integers")
    return n


@dataclass(frozen=True, eq=False)
class TailTable:
    """Exceedance masses mu{T > n} on an ascending integer grid.

    stderr is present for Monte Carlo tables only; n_censored counts
    samples whose exit time was censored (they count as exceeding every
    grid point, which is correct for all tabulated n).
    """

    n_grid: np.ndarray
    mass: np.ndarray
    stderr: np.ndarray | None = None
    n_censored: int | None = None

    def __post_init__(self):
        n = _grid(self.n_grid)
        m = np.asarray(self.mass, dtype=float)
        if m.shape != n.shape:
            raise InvalidInput("n_grid and mass must be matching 1-d arrays")
        if np.any(m < 0.0) or np.any(m > 1.0):
            raise InvalidInput("tail masses must lie in [0, 1]")
        if np.any(np.diff(m) > 1e-12):
            raise InvalidInput("tail masses must be non-increasing in n")
        object.__setattr__(self, "n_grid", n)
        object.__setattr__(self, "mass", m)
        if self.stderr is not None:
            s = np.asarray(self.stderr, dtype=float)
            if s.shape != n.shape or np.any(s < 0.0):
                raise InvalidInput("stderr must be nonnegative and match the grid")
            object.__setattr__(self, "stderr", s)


@dataclass(frozen=True)
class RegVarFit:
    """Regular-variation fit tail(n) ~ C0 * n^(-beta) (optionally * (1+c/n))."""

    beta_hat: float
    C0_hat: float
    fit_range: tuple[int, int]
    residual_rms: float
    n_points: int
    second_order_coeff: float | None = None


def geometric_grid(n_min: int = 1, n_max: int = 100_000, per_decade: int = 32):
    """Ascending integer grid, geometrically spaced, duplicates dropped."""
    if not (1 <= n_min < n_max):
        raise InvalidInput("need 1 <= n_min < n_max")
    if per_decade < 1:
        raise InvalidInput("per_decade must be at least 1")
    count = int(math.ceil(math.log10(n_max / n_min) * per_decade)) + 1
    vals = np.unique(
        np.rint(np.geomspace(n_min, n_max, count)).astype(np.int64)
    )
    return vals


def _tail_on_nodes(ker, density, zeta0, n_pos, nodes, wts, guess=None, keep=False):
    """Quadrature masses for positive integers n_pos at the given y-nodes.

    guess, if given, is an (len(n_pos), len(nodes)) array of ln(xi) starting
    points for the inversion; keep=True additionally returns that matrix of
    solved ln(xi) so a caller can seed a finer pass.
    """
    m = len(nodes)
    xmax = ker.invert(1.0, nodes, zeta0)
    wnode = density.w(nodes) * wts
    strip = float(density.inner_mass(nodes, xmax) @ wnode)
    out = np.empty(len(n_pos))
    lnxi = np.empty((len(n_pos), m)) if keep else None
    rows = max(1, _CHUNK // m)
    for start in range(0, len(n_pos), rows):
        chunk = n_pos[start : start + rows].astype(float)
        lnx0 = None if guess is None else guess[start : start + rows]
        xi = ker.invert(chunk[:, None], nodes[None, :], zeta0, lnx0=lnx0)
        if keep:
            lnxi[start : start + rows] = np.log(xi)
        np.minimum(xi, xmax[None, :], out=xi)
        out[start : start + rows] = density.inner_mass(nodes[None, :], xi) @ wnode
    if keep:
        return out, strip, lnxi
    return out, strip


def semi_analytic_tail(
    p: SaddleParams,
    d=None,
    density: EntryDensity | None = None,
    n_grid=None,
    *,
    zeta0: float | None = None,
    rtol: float = 1e-9,
) -> TailTable:
    """Tail masses by exact inner integration and adaptive outer panels.

    The outer quadrature doubles its panel count until every grid value is
    stable to rtol relative, and raises NotConverged if that takes more
    than _MAX_PANELS panels.  The inner integral of the polynomial density
    is exact; the exit-time inversion contributes ~1e-14 relative noise.
    Each node's x_max(y) is solved directly with invert, independently of
    the table monte_carlo_tail uses.  On grids longer than 160 points the
    ladder runs on a log-spaced probe subset; the full grid is then
    inverted once, warm-started from a cubic spline of the probe ln(xi)
    in ln n, which leaves about two residual evaluations per point with
    the same bracket and tolerance as a cold inversion.  The inversion
    noise may break monotonicity in the last ulp, which is repaired;
    NonMonotoneInput is raised if the repair would lower a mass by more
    than _MAX_REPAIR relative.
    """
    if density is None or n_grid is None:
        raise InvalidInput("density and n_grid are required")
    if zeta0 is None:
        zeta0 = default_section(p)
    n = _grid(n_grid)
    ker = kernel_for(p)
    lo, hi = density.eta_range
    n_pos = n[n >= 1]

    # the panel ladder runs on a log-spaced probe subset of the grid; the
    # remaining points are then solved once at the converged panel count,
    # warm-started from a cubic spline of the probe ln(xi) in ln n
    if len(n_pos) > 160:
        idx = np.unique(np.rint(np.geomspace(1, len(n_pos), 48)).astype(np.int64)) - 1
        probe = n_pos[idx]
    else:
        probe = n_pos

    lnxi = None

    def probe_sums(nodes, wts):
        # the probe masses, then the strip mass; the solved ln(xi) of the
        # last panel count seeds the pass over the full grid
        nonlocal lnxi
        vals, strip, lnxi = _tail_on_nodes(
            ker, density, zeta0, probe, nodes, wts, keep=True
        )
        return np.append(vals, strip)

    sums, panels = gl_doubling(
        probe_sums, lo, hi, 4, _MAX_PANELS, rtol=rtol, what="semi-analytic tail"
    )
    vals, strip = sums[:-1], sums[-1]

    if probe is not n_pos:
        # deferred: importing scipy.interpolate costs every process about
        # 45 ms and 2 MB (2-vCPU Xeon), and only dense grids need it
        from scipy.interpolate import CubicSpline

        ln_probe = np.log(probe.astype(float))
        ln_full = np.log(n_pos.astype(float))
        guess = CubicSpline(ln_probe, lnxi, axis=0)(ln_full)
        nodes, wts = gl_panels(lo, hi, panels)
        vals, strip = _tail_on_nodes(
            ker, density, zeta0, n_pos, nodes, wts, guess=guess
        )

    mass = np.empty(len(n))
    mass[n >= 1] = vals
    mass[n == 0] = strip
    # exit-time inversion jitter can break monotonicity in the last ulp;
    # a larger repair would hide a defect, so it is refused
    repaired = np.minimum.accumulate(mass)
    over = np.flatnonzero(mass - repaired > _MAX_REPAIR * mass)
    if over.size:
        j = over[0]
        raise NonMonotoneInput(
            f"semi-analytic tail rises to {mass[j]!r} at n = {n[j]} from "
            f"{repaired[j]!r} at smaller n, more than the {_MAX_REPAIR:g} "
            f"relative allowed for inversion jitter"
        )
    return TailTable(n_grid=n, mass=repaired)


def _mc_block(args):
    (
        p,
        density,
        zeta0,
        n_arr,
        seed,
        block_index,
        count,
        method,
        pert,
        cfg,
        censor,
    ) = args
    ker = kernel_for(p)
    rng = np.random.default_rng([seed, block_index])
    y = density.sample_heights(rng, count)
    xmax = ker.x_max(y, zeta0, density.eta_range)
    x = density.sample_abscissae(rng, y, xmax)
    np.maximum(x, 1e-300, out=x)
    w = density.inner_mass(y, xmax)
    if method == "quadrature":
        T = ker.exit_time(x, y, zeta0)
        n_cens = 0
    else:
        _validate(p, pert, cfg, np.column_stack([x, y]))
        run = np.ones(count, dtype=bool)
        if n_arr[0] > 0:
            thin = ker.exit_time(x, y, zeta0) < _THIN_BELOW * n_arr[0]
            keep = np.random.default_rng([seed, block_index, 1]).random(count)
            run = ~thin | (keep < 1.0 / _THIN_RATE)
            w[thin] *= _THIN_RATE
        # an orbit left out has T = 0, so it adds 0 to every mass
        T = np.zeros(count)
        T[run] = _exit_times_batch(
            p, x[run], y[run], zeta0, pert=pert, cfg=cfg, censor=censor
        )
        n_cens = int(np.isinf(T).sum())
    order = np.argsort(T, kind="stable")
    Ts = T[order]
    ws = w[order]
    sfx1 = np.zeros(count + 1)
    sfx1[:count] = np.cumsum(ws[::-1])[::-1]
    sfx2 = np.zeros(count + 1)
    sfx2[:count] = np.cumsum((ws**2)[::-1])[::-1]
    idx = np.searchsorted(Ts, n_arr.astype(float), side="right")
    return sfx1[idx], sfx2[idx], n_cens


def monte_carlo_tail(
    p: SaddleParams,
    pert: Perturbation | None = None,
    density: EntryDensity | None = None,
    N: int | None = None,
    seed: int | None = None,
    n_grid=None,
    *,
    zeta0: float | None = None,
    jobs: int = 1,
    cfg: IntegratorConfig | None = None,
) -> TailTable:
    """Monte Carlo tail masses over the entry strip.

    Heights are drawn from w and abscissae from h(., y) on [0, x_max(y)],
    both by inverse CDF, with x_max(y) read from the kernel's Chebyshev
    table (validated against invert when built; semi_analytic_tail solves
    x_max directly instead).  Each sample carries its fiber mass
    int_0^x_max h(., y), so the average of mass * indicator{T > n} is an
    unbiased estimate of the same integral semi_analytic_tail computes.
    At n = 0 the indicator is identically one and the estimate is the
    whole strip mass.  The reported stderr is the weighted binomial one.

    Exit times come from the reduced quadrature when the perturbation is
    empty and from field integration (censored at max(n_grid) + 1, at
    _MC_FLOW_CFG unless cfg is given) otherwise.  On that flow route, when
    n_grid[0] > 0, a sample whose unperturbed reduction time is below
    n_grid[0]/2 is integrated only with probability 1/16 and then carries
    16 times its fiber mass; a sample left out adds 0 to every mass.  The
    keep draws come from the substream (seed, block index, 1), so the
    (x, y) draws do not change.  Each mass and its stderr stay means of
    i.i.d. terms and so stay unbiased for any perturbation: the reduction
    only sets the sampling rates, and the stderr is larger where thinned
    orbits reach the grid.  A grid that starts at 0 thins nothing.  Every
    start is still checked, whether or not it is integrated, but only
    integrated orbits can raise LeftDomain or StepLimitExceeded.

    Work is split into fixed 65536-sample blocks with RNG substreams
    seeded by (seed, block index) and merged in block order, so results
    are bit-identical for any jobs count.
    """
    if density is None or N is None or n_grid is None:
        raise InvalidInput("density, N, and n_grid are required")
    if seed is None:
        raise SeedRequired("monte_carlo_tail needs an explicit integer seed")
    if N < 1000:
        raise InvalidInput("N must be at least 1000")
    if jobs < 1:
        raise InvalidInput("jobs must be at least 1")
    if zeta0 is None:
        zeta0 = default_section(p)
    n_arr = _grid(n_grid)
    method = "quadrature" if pert is None or pert.is_zero else "flow"
    if method == "flow" and cfg is None:
        cfg = _MC_FLOW_CFG
    censor = float(n_arr[-1] + 1)

    counts = [_BLOCK] * (N // _BLOCK)
    if N % _BLOCK:
        counts.append(N % _BLOCK)
    tasks = [
        (p, density, zeta0, n_arr, int(seed), b, c, method, pert, cfg, censor)
        for b, c in enumerate(counts)
    ]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_mc_block, tasks))
    else:
        results = [_mc_block(t) for t in tasks]

    S1 = np.zeros(len(n_arr))
    S2 = np.zeros(len(n_arr))
    n_cens = 0
    for b1, b2, bc in results:  # fixed block order: independent of jobs
        S1 += b1
        S2 += b2
        n_cens += bc
    mass = S1 / N
    var = np.maximum(S2 / N - mass**2, 0.0) / N
    return TailTable(
        n_grid=n_arr, mass=mass, stderr=np.sqrt(var), n_censored=n_cens
    )


def fit_regvar(
    t: TailTable, fit_range: tuple[int, int], *, second_order: bool = False
) -> RegVarFit:
    """Weighted least squares of log mass against log n.

    Weights are 1/var(log mass) from the table's stderr when present,
    uniform otherwise.  With second_order=True an additional 1/n column
    captures the first correction; its coefficient is reported, the
    (beta, C0) meaning is unchanged.
    """
    lo, hi = int(fit_range[0]), int(fit_range[1])
    if not (1 <= lo < hi):
        raise InvalidInput("fit range must satisfy 1 <= lo < hi")
    sel = (t.n_grid >= lo) & (t.n_grid <= hi) & (t.mass > 0.0)
    n = t.n_grid[sel].astype(float)
    m = t.mass[sel]
    if len(n) < 8:
        raise InsufficientData(
            f"need at least 8 usable grid points in [{lo}, {hi}], have {len(n)}"
        )
    logn = np.log(n)
    logm = np.log(m)
    cols = [np.ones_like(n), -logn]
    if second_order:
        cols.append(1.0 / n)
    A = np.column_stack(cols)
    if t.stderr is not None:
        rel = np.maximum(t.stderr[sel] / m, 1e-12)
        wts = 1.0 / rel
    else:
        wts = np.ones_like(n)
    sol, *_ = np.linalg.lstsq(A * wts[:, None], logm * wts, rcond=None)
    resid = logm - A @ sol
    return RegVarFit(
        beta_hat=float(sol[1]),
        C0_hat=float(math.exp(sol[0])),
        fit_range=(lo, hi),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_points=int(len(n)),
        second_order_coeff=float(sol[2]) if second_order else None,
    )


def small_tail(t: TailTable) -> np.ndarray:
    """Per-n masses mu{T in (n-1, n]} by first differencing a contiguous table.

    Entry i is the mass between grid points i and i+1; the values telescope
    back to mass[0] - mass[-1] exactly.
    """
    if np.any(np.diff(t.n_grid) != 1):
        raise InvalidInput("small_tail needs a contiguous integer grid")
    diffs = t.mass[:-1] - t.mass[1:]
    if np.any(diffs < 0.0):
        raise NonMonotoneInput("tail table mass increases somewhere")
    return diffs
