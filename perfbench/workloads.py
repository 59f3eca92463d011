"""The benchmark's workloads over saddletail at parameter set P2.

P2 = (a0, a2, b0, b2, kappa) = (1, 1, 1, 2, 2) is configs/default.json and
the parameter set of acceptance criteria 02, 04, 07 and 08.  Each workload
turns the benchmark seed into a stream of operation inputs, runs one
operation per call through the library functions a CLI subcommand uses,
counts the work items of an operation, and checks every output against an
independent route after the timed phase.  The workloads are scaled-down
versions of those criteria so that one run takes seconds, not minutes.
"""
from __future__ import annotations

import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import saddletail as st
from saddletail import _rk45, tails  # noqa: F401  (the tracer swaps their attributes)
from saddletail._reduction import ReductionKernel, kernel_for

# Criterion 07: 10% of the leading coefficients, one homogeneous order down.
PERTURBATION = st.Perturbation.from_terms(px=[(1, 2, 0.1)], py=[(2, 1, -0.1)])
ORBIT_CFG = st.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
MC_BLOCK = 65536  # the block size monte_carlo_tail splits its samples into
Z_MAX = 5.0  # Monte Carlo masses vs the exact route, in standard errors
EXP_SE = 4.0  # allowance for the pooled exponent, in standard errors of the fit
BATCH = 16  # orbit starts are stratified per batch of this many


def setup(root: Path) -> SimpleNamespace:
    """Load the default config, build the cached kernel, gather the library."""
    cfg = st.load_config(str(root / "configs" / "default.json"))
    return SimpleNamespace(
        cfg=cfg,
        p=cfg.params,
        zeta0=cfg.rect.zeta0,
        ker=kernel_for(cfg.params),
        density=cfg.density,
        monte_carlo_tail=st.monte_carlo_tail,
        semi_analytic_tail=st.semi_analytic_tail,
        flow=st.flow,
        exit_time_flow=st.exit_time_flow,
        exit_time_quadrature=st.exit_time_quadrature,
        return_distribution=st.return_distribution,
        renewal_sequence=st.renewal_sequence,
        mixing_coeffs=st.mixing_coeffs,
        tail_coeffs=st.tail_coeffs,
    )


class MonteCarlo:
    """monte_carlo_tail on P2; quadrature route, or flow route with PERTURBATION."""

    def __init__(self, lib, tiny: bool, flow_route: bool):
        self.lib = lib
        self.pert = PERTURBATION if flow_route else None
        n_max = 5_000 if flow_route else 10_000
        self.grid = st.geometric_grid(100, n_max, 32)
        self.fit_range = (200, 5_000) if flow_route else (100, 10_000)
        # One partial block per call (the flow route integrates it as one
        # RK45 batch).  Short calls let a run hold several of them and read
        # the host speed often.
        self.N = MC_BLOCK // 8 if tiny else (MC_BLOCK // 2 if flow_route else MC_BLOCK // 4)
        self.op_seconds = 3.0 if flow_route else 0.75
        self.item = "samples"
        self.batch = 1

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield int(rng.integers(2**31))

    def items(self, op_seed) -> int:
        return self.N

    def run(self, lib, op_seed):
        return lib.monte_carlo_tail(
            lib.p,
            self.pert,
            lib.density,
            N=self.N,
            seed=op_seed,
            n_grid=self.grid,
            zeta0=lib.zeta0,
        )

    def checks(self, runs) -> list[bool]:
        """Per call: finite masses and, on the quadrature route, every mass
        within Z_MAX standard errors of the exact reduction route.  Pooled
        over the run: the fitted exponent within criterion 07's 2% of beta2,
        widened by EXP_SE standard errors of the fit, since criterion 07
        pools 1e6 samples and one run pools a few 65536-sample blocks."""
        lib = self.lib
        exact = None
        if self.pert is None:
            exact = st.semi_analytic_tail(lib.p, None, lib.density, self.grid, zeta0=lib.zeta0).mass
        ok = []
        for _, t in runs:
            good = bool(np.isfinite(t.mass).all() and np.isfinite(t.stderr).all())
            if exact is not None:
                good = good and bool(np.all(np.abs(t.mass - exact) <= Z_MAX * t.stderr))
            ok.append(good)
        k = len(runs)
        mass = np.mean([t.mass for _, t in runs], axis=0)
        stderr = np.sqrt(np.sum([t.stderr**2 for _, t in runs], axis=0)) / k
        beta2 = st.derive_constants(lib.p).beta2
        try:
            pooled = st.TailTable(n_grid=self.grid, mass=mass, stderr=stderr)
            beta = st.fit_regvar(pooled, self.fit_range).beta_hat
            se = exponent_se(pooled, k * self.N, self.fit_range)
            ok.append(abs(beta / beta2 - 1.0) <= 0.02 + EXP_SE * se / beta2)
        except (ValueError, st.SaddleTailError):
            ok.append(False)
        return ok


def exponent_se(t, N: int, fit_range) -> float:
    """Standard error of fit_regvar's exponent for a Monte Carlo table of N
    samples, by the delta method.  The masses share samples, so for grid
    points n_i <= n_j  cov = (E[w^2 1{T > n_j}] - m_i m_j) / N, and the
    second moment is recovered from the table as N stderr_j^2 + m_j^2."""
    lo, hi = fit_range
    sel = (t.n_grid >= lo) & (t.n_grid <= hi) & (t.mass > 0.0)
    m, s = t.mass[sel], t.stderr[sel]
    logn = np.log(t.n_grid[sel].astype(float))
    w = 1.0 / np.maximum(s / m, 1e-12)  # fit_regvar's weights
    A = np.column_stack([np.ones_like(logn), -logn])
    c = np.linalg.pinv(A * w[:, None])[1] * w  # beta_hat = c @ log(m)
    J = np.maximum.outer(np.arange(len(m)), np.arange(len(m)))
    cov = (N * s[J] ** 2 + m[J] ** 2 - np.outer(m, m)) / N
    g = c / m
    return float(np.sqrt(g @ cov @ g))


class Renewal:
    """The `saddletail renewal` pipeline on the contiguous grid 1..N."""

    def __init__(self, lib, tiny: bool):
        self.lib = lib
        self.N = 200 if tiny else 1000
        self.op_seconds = 3.0
        self.item = "grid points"
        self.batch = 1

    def inputs(self, seed: int):
        while True:  # no randomness: the seed is unused
            yield self.N

    def items(self, N) -> int:
        return N

    def run(self, lib, N):
        t = lib.semi_analytic_tail(lib.p, None, lib.density, np.arange(1, N + 1), zeta0=lib.zeta0)
        p_seq = lib.return_distribution(t)
        rs = lib.renewal_sequence(p_seq, N)
        tc = lib.tail_coeffs(lib.p, None, lib.density, zeta0=lib.zeta0)
        mc = lib.mixing_coeffs(tc.C0, tc.beta)
        return SimpleNamespace(tail=t, p=p_seq, u=rs.u, C0=tc.C0, mc=mc)

    def checks(self, runs) -> list[bool]:
        """Per pass: sum p_n + tail(N) = 1 and the d0 reflection identity to
        1e-12.  Once: 8 x 8 sampled exit-time inversions, cold and warm
        started, agree with exit_time_quadrature to 1e-9 relative."""
        ok = []
        for _, r in runs:
            total = abs(float(r.p.sum()) + float(r.tail.mass[-1]) - 1.0)
            b = r.mc.beta
            refl = abs(r.mc.d0 * r.C0 * math.gamma(b) * math.gamma(1.0 - b) - 1.0)
            ok += [total <= 1e-12, refl <= 1e-12]
        lib, N = self.lib, runs[0][0]
        lo, hi = lib.density.eta_range
        T, eta = np.meshgrid(np.unique(np.geomspace(1, N, 8).round()), np.linspace(lo, hi, 8))
        T, eta = T.ravel(), eta.ravel()
        cold = lib.ker.invert(T, eta, lib.zeta0)
        warm = lib.ker.invert(T, eta, lib.zeta0, lnx0=np.log(cold) + 0.02)
        for xi in (cold, warm):
            for i in range(len(T)):
                Tq = st.exit_time_quadrature(lib.p, float(xi[i]), float(eta[i]), lib.zeta0)
                ok.append(abs(Tq / T[i] - 1.0) <= 1e-9)
        return ok


class Orbits:
    """Closed loop, one client, one orbit per call.

    Starts are log-uniform in xi on [1e-3 * zeta0, 0.9 * zeta0] (criterion
    02's range) and uniform in eta over the entry range, stratified in
    batches of BATCH so that every seed sees the same spread of orbit lengths.
    """

    XI_LO = 1e-3

    def __init__(self, lib, tiny: bool):
        self.lib = lib
        self.op_seconds = 0.3
        self.item = "orbits"
        self.batch = BATCH

    def inputs(self, seed: int):
        lib = self.lib
        rng = np.random.default_rng(seed)
        lo, hi = math.log(self.XI_LO * lib.zeta0), math.log(0.9 * lib.zeta0)
        e_lo, e_hi = lib.density.eta_range
        while True:
            u = (rng.permutation(BATCH) + rng.random(BATCH)) / BATCH
            v = (rng.permutation(BATCH) + rng.random(BATCH)) / BATCH
            for a, b in zip(u, v):
                yield math.exp(lo + a * (hi - lo)), e_lo + b * (e_hi - e_lo)

    def items(self, start) -> int:
        return 1

    def run(self, lib, start):
        xi, eta = start
        T = float(lib.ker.exit_time(xi, eta, lib.zeta0)[0])
        _, traj = lib.flow(lib.p, (xi, eta), T, cfg=ORBIT_CFG, record=True)
        Tf = lib.exit_time_flow(lib.p, xi, eta, lib.zeta0)
        Tq = lib.exit_time_quadrature(lib.p, xi, eta, lib.zeta0)
        return SimpleNamespace(states=traj.states, Tf=Tf, Tq=Tq)

    def checks(self, runs) -> list[bool]:
        """Flow-vs-quadrature gap <= 1e-6 (criterion 04) and first-integral
        drift along the recorded orbit <= 1e-9 (criterion 02)."""
        p = self.lib.p
        ok = []
        for (xi, eta), r in runs:
            L0 = st.first_integral(p, xi, eta)
            L = st.first_integral(p, r.states[:, 0], r.states[:, 1])
            drift = float(np.max(np.abs(L / L0 - 1.0)))
            ok.append(abs(r.Tf / r.Tq - 1.0) <= 1e-6 and drift <= 1e-9)
        return ok


def make(name: str, lib, tiny: bool):
    if name == "mc_quad":
        return MonteCarlo(lib, tiny, flow_route=False)
    if name == "mc_flow":
        return MonteCarlo(lib, tiny, flow_route=True)
    if name == "renewal":
        return Renewal(lib, tiny)
    if name == "orbits":
        return Orbits(lib, tiny)
    raise ValueError(f"unknown workload {name!r}")


def probes(lib, seed: int, reps: int = 5) -> dict:
    """Direct kernel probes on seeded arrays: F_s, omega_log, and an
    uncached ReductionKernel build.  Medians of reps calls."""
    rng = np.random.default_rng([seed, 7])
    ker = lib.ker
    s = rng.uniform(ker.s_lo - 1.0, ker.s_hi + 1.0, 65536)
    lo, hi = lib.density.eta_range
    lx = np.log(lib.zeta0) + rng.uniform(-8.0, 0.0, 65536)
    target = ker.level_log(lx, np.log(rng.uniform(lo, hi, 65536)))
    lz = math.log(lib.zeta0)

    def med(fn, scale):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return float(np.median(times)) * scale

    return {
        "reduction.F_s.us_per_elem": med(lambda: ker.F_s(s), 1e6 / len(s)),
        "reduction.omega_log.us_per_elem": med(lambda: ker.omega_log(target, lz), 1e6 / len(target)),
        "reduction.build_ms": med(lambda: ReductionKernel(lib.p), 1e3),
    }
