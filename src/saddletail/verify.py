"""Self-contained verification gates shared by the CLI and the test suite.

Each criterion checks one quantitative promise of the library on the two
reference parameter sets

    P1 = (a0, a2, b0, b2, kappa) = (1, 3, 2, 1, 2)   finite measure class
    P2 = (1, 1, 1, 2, 2)                             infinite, beta2 = 3/4

and returns a CriterionResult whose details are deterministic for a given
seed, so two runs render byte-identical reports.  Nothing here reads the
wall clock; runtime budgets are enforced by the acceptance tests.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng
from scipy.integrate import quad

from . import __version__
from ._reduction import kernel_for
from ._rk45 import IntegratorConfig
from .asymptotics import coeffs, invert_exit_time, m_integral, tail_coeffs, tail_expansion
from .density import uniform_density
from .errors import InvalidInput
from .field import (
    Perturbation,
    _exit_times_batch,
    exit_time_quadrature,
    first_integral,
    flow,
)
from .params import SaddleParams, derive_constants, make_rect, rescale
from .renewal import (
    fit_higher_order,
    mixing_coeffs,
    renewal_sequence,
    return_distribution,
)
from .tails import fit_regvar, geometric_grid, monte_carlo_tail, semi_analytic_tail

__all__ = [
    "CriterionResult",
    "DEFAULT_SEED",
    "P1",
    "P2",
    "REGISTRY",
    "jsonable",
    "render_report",
    "run",
]

DEFAULT_SEED = 20260817

P1 = SaddleParams(a0=1.0, a2=3.0, b0=2.0, b2=1.0, kappa=2)
P2 = SaddleParams(a0=1.0, a2=1.0, b0=1.0, b2=2.0, kappa=2)


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict


def jsonable(obj):
    """Recursively strip numpy types so json sees plain Python scalars."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _log_uniform(rng, lo: float, hi: float, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=size))


def criterion_1(seed: int, jobs: int = 1) -> CriterionResult:
    """Closed-form identities, exact rescale invariance, divergence-free family."""
    rng = default_rng([seed, 1])
    worst_b0 = 0.0
    worst_b2 = 0.0
    rescale_exact = True
    for _ in range(100):
        while True:
            a0, a2, b0, b2 = _log_uniform(rng, 1e-2, 1e2, 4)
            kappa = int(rng.choice([2, 4, 6]))
            p = SaddleParams(a0, a2, b0, b2, kappa)
            if abs(p.delta) > 1e-6 * max(a2 * b0, a0 * b2):
                break
        d = derive_constants(p)
        k = float(kappa)
        beta0_direct = (p.a0 + p.b0) / (k * p.a0)
        beta0_uv = (d.u + d.v + k) / (k * d.v)
        beta2_direct = (p.a2 + p.b2) / (k * p.b2)
        beta2_uv = (d.u + d.v + k) / (k * d.u)
        worst_b0 = max(worst_b0, abs(beta0_uv / beta0_direct - 1.0))
        worst_b2 = max(worst_b2, abs(beta2_uv / beta2_direct - 1.0))

        # power-of-two factors scale the coefficients without rounding, so
        # the exponent ratios must come out bit-identical
        r = 2.0 ** int(rng.integers(-3, 4))
        s = 2.0 ** int(rng.integers(-3, 4))
        dr = derive_constants(rescale(p, r, s))
        if not (
            dr.beta0 == d.beta0
            and dr.beta2 == d.beta2
            and dr.beta_star == d.beta_star
        ):
            rescale_exact = False

    div_ok = True
    worst_div = 0.0
    for kappa in (2, 4, 6):
        for _ in range(5):
            a0, b2 = _log_uniform(rng, 1e-2, 1e2, 2)
            fam = SaddleParams(a0, (kappa + 1) * b2, (kappa + 1) * a0, b2, kappa)
            df = derive_constants(fam)
            target = (kappa + 2) / kappa
            err = abs(df.beta2 / target - 1.0)
            worst_div = max(worst_div, err)
            if not df.divergence_free or err > 1e-12:
                div_ok = False

    passed = worst_b0 <= 1e-12 and worst_b2 <= 1e-12 and rescale_exact and div_ok
    return CriterionResult(
        1,
        "derived-constant identities",
        passed,
        {
            "max_rel_beta0": worst_b0,
            "max_rel_beta2": worst_b2,
            "rescale_exact": rescale_exact,
            "divergence_free_max_rel": worst_div,
        },
    )


def criterion_2(seed: int, jobs: int = 1) -> CriterionResult:
    """First-integral drift along 50 recorded orbits of P2, to exit."""
    p = P2
    rect = make_rect(p)
    ker = kernel_for(p)
    xis = np.geomspace(1e-3, 0.9 * rect.zeta0, 50)
    etas = np.linspace(rect.eta0, rect.eta1, 50)
    T = ker.exit_time(xis, etas, rect.zeta0)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    drift = 0.0
    for i in range(50):
        L0 = first_integral(p, float(xis[i]), float(etas[i]))
        _, traj = flow(p, (float(xis[i]), float(etas[i])), float(T[i]), cfg=cfg, record=True)
        L = first_integral(p, traj.states[:, 0], traj.states[:, 1])
        drift = max(drift, float(np.max(np.abs(L / L0 - 1.0))))
    return CriterionResult(
        2,
        "first-integral conservation",
        drift <= 1e-9,
        {"orbits": 50, "max_rel_drift": drift},
    )


def criterion_3(seed: int, jobs: int = 1) -> CriterionResult:
    """Axis orbits against their closed-form solutions on t in [0, 10]."""
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)
    worst = 0.0
    for p in (P1, P2):
        k = p.kappa
        y0 = 0.5
        _, traj = flow(p, (0.0, y0), 10.0, cfg=cfg, record=True)
        y_exact = (k * p.b2 * traj.t + y0 ** (-k)) ** (-1.0 / k)
        worst = max(worst, float(np.max(np.abs(traj.states[:, 1] / y_exact - 1.0))))
        worst = max(worst, float(np.max(np.abs(traj.states[:, 0]))))

        x0 = (40.0 * k * p.a0) ** (-1.0 / k)  # finite through t = 10
        _, traj = flow(p, (x0, 0.0), 10.0, cfg=cfg, record=True)
        x_exact = (x0 ** (-k) - k * p.a0 * traj.t) ** (-1.0 / k)
        worst = max(worst, float(np.max(np.abs(traj.states[:, 0] / x_exact - 1.0))))
        worst = max(worst, float(np.max(np.abs(traj.states[:, 1]))))
    return CriterionResult(
        3,
        "axis closed forms",
        worst <= 1e-9,
        {"max_rel_error": worst},
    )


def criterion_4(seed: int, jobs: int = 1) -> CriterionResult:
    """Quadrature and time-stepped exit times on 20-point grids, P1 and P2."""
    worst = 0.0
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    for p in (P1, P2):
        rect = make_rect(p)
        xg = np.geomspace(0.05 * rect.zeta0, 0.9 * rect.zeta0, 5)
        yg = np.linspace(0.6 * rect.eta0, rect.eta1, 4)
        X, Y = np.meshgrid(xg, yg)
        xs, ys = X.ravel(), Y.ravel()
        Tq = np.array(
            [exit_time_quadrature(p, x, y, rect.zeta0) for x, y in zip(xs, ys)]
        )
        Tf = _exit_times_batch(p, xs, ys, rect.zeta0, cfg=cfg)
        worst = max(worst, float(np.max(np.abs(Tf / Tq - 1.0))))
    return CriterionResult(
        4,
        "exit-time oracle pair",
        worst <= 1e-6,
        {"points_per_set": 20, "max_rel_gap": worst},
    )


def criterion_5(seed: int, jobs: int = 1) -> CriterionResult:
    """Inversion expansion of P2 at eta = zeta0 = 1: bands and second order."""
    p = P2
    c = coeffs(p, eta=1.0, zeta0=1.0)
    xi1_ok = abs(c.xi1 - 0.5625) <= 1e-12
    band_ok = True
    ratios = {}
    for T in (1e3, 1e4, 1e5):
        xi = invert_exit_time(p, 1.0, 1.0, T)
        ratio = xi * T**0.75 / c.xi0
        lo = 1.0 - 2.0 * c.xi1 / T - 1e-3
        hi = 1.0 - 0.5 * c.xi1 / T + 1e-3
        ratios[f"T={T:.0e}"] = ratio
        if not lo <= ratio <= hi:
            band_ok = False
    T = 1e5
    xi = invert_exit_time(p, 1.0, 1.0, T)
    second = (1.0 - xi * T**0.75 / c.xi0) * T
    second_ok = abs(second - 0.5625) <= 0.02
    return CriterionResult(
        5,
        "inversion expansion bands",
        xi1_ok and band_ok and second_ok,
        {
            "xi1": c.xi1,
            "scaled_ratios": ratios,
            "second_order_value": second,
        },
    )


def criterion_6(seed: int, jobs: int = 1) -> CriterionResult:
    """Tail-expansion residual scaling and the leading-coefficient identity."""
    p = P2
    rect = make_rect(p)
    dens = uniform_density((rect.eta0, rect.eta1), p.kappa)
    d = derive_constants(p)
    tc = tail_coeffs(p, d, dens, zeta0=rect.zeta0)

    lead = d.c2 ** (-1.0 / d.u) * m_integral(p) ** d.beta2
    C0_indep = quad(
        lambda y: lead * y ** (-(p.a2 / p.b2)) * dens.w(y),
        rect.eta0,
        rect.eta1,
        epsabs=0.0,
        epsrel=1e-11,
        limit=200,
    )[0]
    c0_gap = abs(tc.C0 / C0_indep - 1.0)

    grid = geometric_grid(1_000, 100_000, 32)
    t = semi_analytic_tail(p, d, dens, grid, zeta0=rect.zeta0, rtol=1e-10)
    power = min((p.kappa + 1) * tc.beta, 2.0 + tc.beta)
    resid = (t.mass - tail_expansion(tc, grid)) * grid.astype(float) ** power
    early = np.abs(resid[grid <= 10_000])
    late = np.abs(resid[grid >= 10_000])
    bounded = bool(np.all(np.isfinite(resid)))
    no_growth = float(late.max()) <= 1.5 * max(float(early.max()), 1e-3)
    return CriterionResult(
        6,
        "tail expansion residual",
        c0_gap <= 1e-9 and bounded and no_growth,
        {
            "C0_rel_gap": c0_gap,
            "scaled_residual_early_max": float(early.max()),
            "scaled_residual_late_max": float(late.max()),
            "residual_power": power,
        },
    )


def criterion_7(seed: int, jobs: int = 1) -> CriterionResult:
    """Monte Carlo tail exponent, unperturbed and with a 10% cubic bracket term."""
    p = P2
    rect = make_rect(p)
    dens = uniform_density((rect.eta0, rect.eta1), p.kappa)

    grid = geometric_grid(100, 10_000, 32)
    t_plain = monte_carlo_tail(
        p,
        None,
        dens,
        N=1_000_000,
        seed=seed,
        n_grid=grid,
        zeta0=rect.zeta0,
        jobs=jobs,
    )
    fit_plain = fit_regvar(t_plain, (100, 10_000))

    # 10% of the leading coefficients, one homogeneous order down in the
    # bracket: the exponent must survive, only the constants may move.
    pert = Perturbation.from_terms(px=[(1, 2, 0.1)], py=[(2, 1, -0.1)])
    grid_p = geometric_grid(100, 5_000, 32)
    t_pert = monte_carlo_tail(
        p,
        pert,
        dens,
        N=1_000_000,
        seed=seed + 1,
        n_grid=grid_p,
        zeta0=rect.zeta0,
        jobs=jobs,
    )
    fit_pert = fit_regvar(t_pert, (200, 5_000))

    ok_plain = abs(fit_plain.beta_hat / 0.75 - 1.0) <= 0.02
    ok_pert = abs(fit_pert.beta_hat / 0.75 - 1.0) <= 0.02
    return CriterionResult(
        7,
        "Monte Carlo tail exponent",
        ok_plain and ok_pert,
        {
            "beta_hat_plain": fit_plain.beta_hat,
            "beta_hat_perturbed": fit_pert.beta_hat,
            "censored_perturbed": t_pert.n_censored,
        },
    )


def criterion_8(seed: int, jobs: int = 1) -> CriterionResult:
    """Renewal shadow of the P2 tail against the exact mixing constant."""
    p = P2
    rect = make_rect(p)
    dens = uniform_density((rect.eta0, rect.eta1), p.kappa)
    N = 30_000
    t = semi_analytic_tail(p, None, dens, np.arange(1, N + 1), zeta0=rect.zeta0)
    p_seq = return_distribution(t)
    rs = renewal_sequence(p_seq, N)
    tc = tail_coeffs(p, None, dens, zeta0=rect.zeta0)
    mc = mixing_coeffs(tc.C0, tc.beta)

    n = np.arange(1, N + 1, dtype=float)
    sel = n >= 20_000
    med = float(np.median(n[sel] ** (1.0 - mc.beta) * rs.u[1:][sel]))
    med_gap = abs(med / mc.d0 - 1.0)

    refl = abs(mc.d0 * tc.C0 * math.gamma(mc.beta) * math.gamma(1.0 - mc.beta) - 1.0)
    return CriterionResult(
        8,
        "renewal shadow constant",
        med_gap <= 0.15 and refl <= 1e-12,
        {
            "median_scaled_u": med,
            "d0": mc.d0,
            "median_rel_gap": med_gap,
            "reflection_identity_gap": refl,
        },
    )


def criterion_9(seed: int, jobs: int = 1) -> CriterionResult:
    """Correction-term count and planted-coefficient recovery."""
    q_34 = mixing_coeffs(1.0, 0.75).q
    q_45 = mixing_coeffs(1.0, 0.8).q

    mc = mixing_coeffs(1.0, 0.75)
    n = np.arange(1, 4201, dtype=float)
    planted = (0.3, -0.12)
    u_tail = mc.d0 * n ** (-0.25) + planted[0] * n ** (-0.5) + planted[1] * n ** (-0.75)
    u = np.concatenate(([1.0], u_tail))
    fitted = fit_higher_order(u, mc, (16, 4096))
    rec = max(abs(fitted.d_fit[0] - planted[0]), abs(fitted.d_fit[1] - planted[1]))
    return CriterionResult(
        9,
        "mixing correction structure",
        q_34 == 2 and q_45 == 3 and rec <= 1e-6,
        {
            "q_beta_0.75": q_34,
            "q_beta_0.8": q_45,
            "planted_recovery_max_abs": rec,
        },
    )


def criterion_10(seed: int, jobs: int = 1) -> CriterionResult:
    """Rendering the same sub-suite twice gives byte-identical reports."""
    ids = [1, 9]
    first = render_report(run(ids, seed=seed), seed=seed, config_sha256="selftest")
    second = render_report(run(ids, seed=seed), seed=seed, config_sha256="selftest")
    return CriterionResult(
        10,
        "report determinism",
        first == second,
        {"subset": ids, "report_bytes": len(first.encode())},
    )


REGISTRY = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run(ids=None, seed: int = DEFAULT_SEED, jobs: int = 1) -> list[CriterionResult]:
    """Execute the requested criteria (all by default) in ascending order."""
    if ids is None:
        ids = sorted(REGISTRY)
    out = []
    for cid in sorted(set(int(i) for i in ids)):
        if cid not in REGISTRY:
            raise InvalidInput(f"unknown criterion id {cid}")
        out.append(REGISTRY[cid](seed=seed, jobs=jobs))
    return out


def render_report(
    results: list[CriterionResult], seed: int, config_sha256: str
) -> str:
    """Canonical JSON text of a verification run; stable for fixed inputs."""
    doc = {
        "version": __version__,
        "config_sha256": config_sha256,
        "seed": int(seed),
        "all_pass": all(r.passed for r in results),
        "criteria": [
            {
                "id": r.cid,
                "name": r.name,
                "passed": r.passed,
                "details": jsonable(r.details),
            }
            for r in results
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
