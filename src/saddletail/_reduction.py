"""Vectorised kernels for the slope reduction of the saddle flow.

Along any interior orbit the slope M = y/x falls monotonically, and the
passage time between two slope values is an explicit integral.  Writing

    theta  = 1/(kappa*beta0) + 1/(kappa*beta2)
    phi(M) = M^(1/beta0 - 1) * (c0 + c2*M^kappa)^(-theta)
    F(m)   = integral of phi over (0, m]
    G(xi, eta) = xi^(1/beta2) * eta^(1/beta0) * (c0*xi^k + c2*eta^k)^(1 - theta)

the time to flow from (xi, eta) to the section x = zeta0 is

    T = ( F(eta/xi) - F(omega/zeta0) ) / G(xi, eta)

where omega, the exit height, solves the level identity

    u*ln(xi) + v*ln(eta) + ln(c0*xi^k + c2*eta^k)
        = u*ln(zeta0) + v*ln(omega) + ln(c0*zeta0^k + c2*omega^k).

F is tabulated once per parameter set: the integrand is analytic in
s = ln M, so fixed Gauss-Legendre panels on a bounded s-window converge
to machine precision, and outside the window the two-term head/tail
series of phi are accurate to ~1e-14 relative.  Each later query costs a
panel lookup plus one 16-point partial panel, all vectorised, which is
what makes million-sample tail estimates affordable.

Everything here works in logs (logaddexp, expit) so extreme slopes and
exit heights cannot overflow.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate, chebval
from scipy.special import expit

from ._numerics import GL_NODES, GL_WEIGHTS, gl_panels, solve_increasing
from .errors import BracketFailure, InvalidInput, NonIntegrable, NotConverged
from .params import SaddleParams, derive_constants

__all__ = ["ReductionKernel", "kernel_for"]

# Truncation point for the tabulated window: where the subdominant term of
# c0 + c2*M^kappa falls below 1e-7 of the dominant one.  With the two-term
# analytic series beyond the window the truncation error is ~1e-14 relative.
_W_CUT = 1e-7

# The x_max(y) table is a Chebyshev interpolant of ln x_max whose degree
# starts at _XMAX_DEG and doubles until it matches cold inversion within
# _XMAX_TOL in ln x (in ln T where T is flatter than x) at 4*deg+1
# equispaced heights; past _XMAX_MAX_DEG it raises NotConverged.
_XMAX_DEG = 16
_XMAX_MAX_DEG = 256
_XMAX_TOL = 1e-13

# invert refuses roots whose abscissa exp(ln x) is not a normal double
_LN_TINY = math.log(np.finfo(float).tiny)


class ReductionKernel:
    """Per-parameter-set machinery for exit times and their inverses.

    Instances are cheap to build (a few hundred integrand evaluations) and
    are cached via kernel_for; all public methods accept and return numpy
    arrays and never iterate per sample.
    """

    def __init__(self, p: SaddleParams):
        d = derive_constants(p, permissive=True)
        if not (math.isfinite(d.beta0) and math.isfinite(d.beta2)):
            raise NonIntegrable(
                "reduced time integral diverges: both axis coefficient sums "
                "must be positive (a0 > 0 and b2 > 0)"
            )
        self.p = p
        self.d = d
        self.k = float(p.kappa)
        self.u, self.v = d.u, d.v
        self.c0, self.c2 = d.c0, d.c2
        self.beta0, self.beta2 = d.beta0, d.beta2
        self.theta = 1.0 / (self.k * d.beta0) + 1.0 / (self.k * d.beta2)
        self.ln_c0 = math.log(self.c0)
        self.ln_c2 = math.log(self.c2)

        self.s_lo = (self.ln_c0 - self.ln_c2 + math.log(_W_CUT)) / self.k
        self.s_hi = (self.ln_c0 - self.ln_c2 - math.log(_W_CUT)) / self.k
        n_panels = int(math.ceil((self.s_hi - self.s_lo) / (1.5 / self.k)))
        nodes, wts = gl_panels(self.s_lo, self.s_hi, n_panels)
        panel = (self.phi_s(nodes) * wts).reshape(n_panels, -1).sum(axis=1)
        self.edges = np.linspace(self.s_lo, self.s_hi, n_panels + 1)
        self.ds = self.edges[1] - self.edges[0]
        self.cum = np.concatenate(([0.0], np.cumsum(panel)))
        self.F_head_total = float(self._F_head(np.array(self.s_lo)))
        self.I_inf = float(
            self.F_head_total + self.cum[-1] + self._R_tail(np.array(self.s_hi))
        )
        self._xmax_tables: dict[tuple[float, float, float], np.ndarray] = {}

    # -- the s-integrand and its analytic ends ---------------------------

    def phi_s(self, s):
        """Integrand of F in s = ln M, Jacobian included."""
        return np.exp(
            s / self.beta0
            - self.theta * np.logaddexp(self.ln_c0, self.ln_c2 + self.k * s)
        )

    def _F_head(self, s):
        # two-term series of F(e^s) for s below the window
        p1 = 1.0 / self.beta0
        p2 = p1 + self.k
        return self.c0 ** (-self.theta) * (
            self.beta0 * np.exp(p1 * s)
            - self.theta * (self.c2 / self.c0) * np.exp(p2 * s) / p2
        )

    def _R_tail(self, s):
        # two-term series of I_inf - F(e^s) for s above the window
        q1 = 1.0 / self.beta2
        q2 = q1 + self.k
        return self.c2 ** (-self.theta) * (
            self.beta2 * np.exp(-q1 * s)
            - self.theta * (self.c0 / self.c2) * np.exp(-q2 * s) / q2
        )

    def F_s(self, s):
        """Primitive F evaluated at m = e^s, vectorised."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s)
        head = s <= self.s_lo
        tail = s >= self.s_hi
        mid = ~(head | tail)
        if head.any():
            out[head] = self._F_head(s[head])
        if tail.any():
            out[tail] = self.I_inf - self._R_tail(s[tail])
        if mid.any():
            sm = s[mid]
            j = np.minimum(
                ((sm - self.s_lo) / self.ds).astype(np.int64), len(self.cum) - 2
            )
            a = self.edges[j]
            half = 0.5 * (sm - a)
            nodes = a[None, :] + half[None, :] * (GL_NODES[:, None] + 1.0)
            part = (self.phi_s(nodes) * GL_WEIGHTS[:, None]).sum(axis=0) * half
            out[mid] = self.F_head_total + self.cum[j] + part
        return out

    # -- level sets and the exit height ----------------------------------

    def level_log(self, lx, ly):
        """ln of the (sign-stripped) level x^u y^v (c0 x^k + c2 y^k) from logs."""
        return (
            self.u * lx
            + self.v * ly
            + np.logaddexp(self.ln_c0 + self.k * lx, self.ln_c2 + self.k * ly)
        )

    def omega_log(self, target, lz):
        """Solve level_log(lz, rho) = target for rho = ln(omega).

        The level is strictly monotone in rho (direction given by the sign
        of v) and convex, and it lies above both of its asymptotes.  So the
        root lies on one side of both asymptote roots, and safeguarded
        Newton started from the nearer one converges monotonically.
        """
        target = np.atleast_1d(np.asarray(target, dtype=float))
        lc0z = self.ln_c0 + self.k * lz
        base = target - self.u * lz
        r1 = (base - lc0z) / self.v
        r2 = (base - self.ln_c2) / (self.v + self.k)
        pad = math.log(2.0) / min(abs(self.v), abs(self.v + self.k)) + 1.0
        lo = np.minimum(r1, r2) - pad
        hi = np.maximum(r1, r2) + pad
        sgn = 1.0 if self.v > 0 else -1.0

        def psi(rho, i):
            arg = self.ln_c2 + self.k * rho
            val = self.u * lz + self.v * rho + np.logaddexp(lc0z, arg) - target[i]
            return sgn * val, sgn * (self.v + self.k * expit(arg - lc0z))

        start = np.minimum(r1, r2) if sgn > 0 else np.maximum(r1, r2)
        tol = 1e-13 * (1.0 + np.abs(lo) + np.abs(hi))
        return solve_increasing(psi, lo, hi, start, tol=tol)

    # -- exit time and its inverse ----------------------------------------

    def exit_time(self, xi, eta, zeta0, with_omega=False):
        """Passage time from (xi, eta) to the section x = zeta0, vectorised.

        Requires 0 < xi <= zeta0 elementwise; xi == zeta0 returns exactly 0.
        """
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        xi, eta = np.broadcast_arrays(xi, eta)
        lx = np.log(xi)
        ly = np.log(eta)
        lz = math.log(zeta0)
        lw = self.omega_log(self.level_log(lx, ly), lz)
        T = self._time_from_logs(lx, ly, lw, lz)
        T = np.where(xi == zeta0, 0.0, T)
        if with_omega:
            return T, np.where(xi == zeta0, eta, np.exp(lw))
        return T

    def _ln_g(self, lx, ly):
        return (
            lx / self.beta2
            + ly / self.beta0
            + (1.0 - self.theta)
            * np.logaddexp(self.ln_c0 + self.k * lx, self.ln_c2 + self.k * ly)
        )

    def _time_from_logs(self, lx, ly, lw, lz):
        D = self.F_s(ly - lx) - self.F_s(lw - lz)
        return D * np.exp(-self._ln_g(lx, ly))

    def _dlnT_dlnxi(self, lx, ly, lw, lz, D):
        """Analytic derivative used as the Newton slope of invert()."""
        wx = expit(self.ln_c0 + self.k * lx - self.ln_c2 - self.k * ly)
        ww = expit(self.ln_c2 + self.k * lw - self.ln_c0 - self.k * lz)
        A = self.u + self.k * wx
        B = self.v + self.k * ww
        dD = -self.phi_s(ly - lx) - self.phi_s(lw - lz) * (A / B)
        dlnG = 1.0 / self.beta2 + (1.0 - self.theta) * self.k * wx
        return dD / D - dlnG

    def invert(self, T, eta, zeta0, lnx0=None):
        """Starting abscissa xi on height eta whose exit time equals T.

        Safeguarded Newton in ln(xi) on ln T with the analytic
        log-derivative, inside a bracket whose upper end sits just inside
        the section and whose lower end is pushed down geometrically until
        it encloses very large targets.  lnx0, if given, is the starting
        point in ln(xi): a caller that already knows the answer to a few
        percent saves most of the iterations.  The bracket and the
        tolerance are the same either way.  Raises BracketFailure when a
        root lies below the smallest normal double, where exp(ln xi) would
        lose its digits or underflow to 0.

        T, eta and lnx0 broadcast against each other, and the result has
        the broadcast shape (at least 1-d).  Both initial bracket ends are
        fixed abscissae, so their exit times are computed once per element
        of eta and broadcast to the targets; only later push-downs of the
        lower end are evaluated per target.
        """
        T = np.asarray(T, dtype=float)
        eta = np.asarray(eta, dtype=float)
        shape = np.broadcast_shapes(T.shape, eta.shape, np.shape(lnx0)) or (1,)
        if not np.all(T > 0.0):
            raise InvalidInput("exit-time targets must be positive")
        ly = np.log(eta)
        lz = math.log(zeta0)
        ln_target = np.log(T)

        def exit_parts(lx, ly):
            lw = self.omega_log(self.level_log(lx, ly), lz)
            return lw, self.F_s(ly - lx) - self.F_s(lw - lz)

        def end_excess(lx):
            # excess at the abscissa lx: one solve per height, broadcast to T
            D = exit_parts(lx, ly.ravel())[1].reshape(ly.shape)
            with np.errstate(divide="ignore", invalid="ignore"):
                return ln_target - np.log(D) + self._ln_g(lx, ly)

        ln_target_f = np.broadcast_to(ln_target, shape).ravel()
        ly_f = np.broadcast_to(ly, shape).ravel()

        def excess(lx, i):
            # ln target - ln T(lx): increasing, since T falls as xi grows
            lw, D = exit_parts(lx, ly_f[i])
            with np.errstate(divide="ignore", invalid="ignore"):
                val = ln_target_f[i] - np.log(D) + self._ln_g(lx, ly_f[i])
            return val, -self._dlnT_dlnxi(lx, ly_f[i], lw, lz, D)

        hi = lz + math.log1p(-1e-12)
        if np.any(end_excess(hi) < 0.0):
            raise BracketFailure(
                "target exit time smaller than the time from just inside the section"
            )
        lo0 = hi - 27.7  # ln(1e12): bracket starts at xi = 1e-12 * zeta0
        short = np.flatnonzero(np.broadcast_to(end_excess(lo0) > 0.0, shape))
        lo = np.full(ln_target_f.size, lo0)
        for _ in range(12):
            if short.size == 0:
                break
            lo[short] = hi - 2.0 * (hi - lo[short])
            short = short[excess(lo[short], short)[0] > 0.0]
        if short.size:
            raise BracketFailure("could not bracket the exit-time inverse")
        x0 = None if lnx0 is None else np.broadcast_to(lnx0, shape).ravel()
        lx = solve_increasing(excess, lo, hi, x0, tol=1e-13 * (1.0 + abs(hi)))
        if np.any(lx < _LN_TINY):
            raise BracketFailure(
                f"exit-time inverse at ln(xi) = {lx.min():.6g} lies below the "
                f"smallest normal double (ln = {_LN_TINY:.6g})"
            )
        return np.exp(lx).reshape(shape)

    # -- the strip boundary x_max(y) -----------------------------------------

    def x_max(self, eta, zeta0, eta_range):
        """Abscissa whose exit time is exactly 1, at heights eta in eta_range.

        Evaluates a Chebyshev interpolant of ln x_max(y) on eta_range.  The
        coefficients are built on first use per (zeta0, eta_range) from
        cold inversions at Chebyshev nodes, and kept only after they match
        invert(1, y) within _XMAX_TOL at off-node check heights; the degree
        doubles until they do, and NotConverged is raised past the cap.
        A table depends only on its key, so concurrent first calls build
        identical arrays and results do not depend on the caller's thread.
        """
        lo, hi = float(eta_range[0]), float(eta_range[1])
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        if np.any(eta < lo) or np.any(eta > hi):
            raise InvalidInput("x_max heights must lie in eta_range")
        key = (float(zeta0), lo, hi)
        coef = self._xmax_tables.get(key)
        if coef is None:
            coef = self._xmax_tables[key] = self._xmax_table(*key)
        return np.exp(chebval((2.0 * eta - (lo + hi)) / (hi - lo), coef))

    def _xmax_table(self, zeta0, lo, hi):
        lz = math.log(zeta0)

        def height(t):
            return 0.5 * (lo + hi) + 0.5 * (hi - lo) * t

        def ln_xmax(t):
            return np.log(self.invert(1.0, height(t), zeta0))

        deg, err = _XMAX_DEG, math.inf
        while deg <= _XMAX_MAX_DEG:
            coef = chebinterpolate(ln_xmax, deg)
            t = np.linspace(-1.0, 1.0, 4 * deg + 1)
            lx = ln_xmax(t)
            # where T is flat in x, invert itself resolves ln x only to its
            # exit-time accuracy over |dlnT/dlnx|; measure the misfit in ln T there
            ly = np.log(height(t))
            lw = self.omega_log(self.level_log(lx, ly), lz)
            D = self.F_s(ly - lx) - self.F_s(lw - lz)
            scale = np.minimum(1.0, np.abs(self._dlnT_dlnxi(lx, ly, lw, lz, D)))
            err = float(np.max(np.abs(chebval(t, coef) - lx) * scale))
            if err <= _XMAX_TOL:
                return coef
            deg *= 2
        raise NotConverged(
            f"x_max interpolant on [{lo}, {hi}] misses invert by {err:.3g} "
            f"at degree {deg // 2}, tolerance {_XMAX_TOL}"
        )


@lru_cache(maxsize=64)
def kernel_for(p: SaddleParams) -> ReductionKernel:
    """Cached kernel per parameter set (hashable frozen dataclass)."""
    return ReductionKernel(p)
