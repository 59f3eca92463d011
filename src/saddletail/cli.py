"""Command-line frontend: deterministic reports from a JSON config.

Subcommands: derive | flow | exit-time | asymptotics | tail | renewal |
verify.  Every run of the same config and seed emits byte-identical
output, so reports carry no timestamps or timings, floats are printed
with shortest round-trip repr, and JSON keys are sorted.  Each report
embeds the config hash and the library version.

Exit codes: 0 success, 1 usage or parse failure (also any failed verify
gate), 2 validation failure, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .asymptotics import coeffs, invert_exit_time, tail_coeffs, xi_expansion
from .config import RunConfig, load_config, parse_config
from .errors import (
    BetaOutOfRange,
    BracketFailure,
    ConfigError,
    DegenerateDelta,
    DiagonalNotReached,
    IllConditioned,
    InsufficientData,
    LeftDomain,
    NonIntegrable,
    NonMonotoneInput,
    NotConverged,
    SeedRequired,
    StepLimitExceeded,
)
from .flow import flow
from .params import derive_constants
from .renewal import mixing_coeffs, renewal_sequence, return_distribution
from .tails import fit_regvar, geometric_grid, monte_carlo_tail, semi_analytic_tail
from ._reduction import kernel_for
from . import verify as verify_mod
from .verify import jsonable as _py

__all__ = ["main"]

_NUMERICAL = (
    StepLimitExceeded,
    LeftDomain,
    BracketFailure,
    DiagonalNotReached,
    IllConditioned,
    NonIntegrable,
    NonMonotoneInput,
    InsufficientData,
    NotConverged,
)
_VALIDATION = (ConfigError, DegenerateDelta, SeedRequired, BetaOutOfRange, ValueError)


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage problems instead of exiting itself."""

    def error(self, message):
        raise _Usage(message)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_report(cfg: RunConfig, body: dict) -> str:
    doc = {"version": __version__, "config_sha256": cfg.sha256}
    doc.update(body)
    return json.dumps(_py(doc), sort_keys=True, indent=2) + "\n"


def _csv_lines(cfg: RunConfig, comments: list[str], header: str, rows) -> str:
    out = [f"# version={__version__}", f"# config_sha256={cfg.sha256}"]
    out += [f"# {c}" for c in comments]
    out.append(header)
    for row in rows:
        out.append(",".join("" if v is None else repr(float(v)) for v in row))
    return "\n".join(out) + "\n"


def _load(args) -> RunConfig:
    if args.config is None:
        raise _Usage("--config is required for this command")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _out_path(args, cfg: RunConfig) -> str | None:
    return args.out if args.out is not None else cfg.out_path


def _format(args, cfg: RunConfig, default: str) -> str:
    if args.format is not None:
        return args.format
    if cfg.out_format is not None:
        return cfg.out_format
    return default


def _derived_dict(d) -> dict:
    out = asdict(d)
    out["measure_class"] = d.measure_class.value
    return out


def cmd_derive(args) -> int:
    cfg = _load(args)
    d = derive_constants(cfg.params)
    c = coeffs(cfg.params, d, eta=cfg.rect.eta0, zeta0=cfg.rect.zeta0)
    tc = tail_coeffs(cfg.params, d, cfg.density, zeta0=cfg.rect.zeta0)
    body = {
        "derived_constants": _derived_dict(d),
        "asymptotic_coeffs": asdict(c),
        "tail_coeffs": asdict(tc),
    }
    _emit(_json_report(cfg, body), _out_path(args, cfg))
    return 0


def cmd_flow(args) -> int:
    cfg = _load(args)
    z0 = (args.x0, args.y0)
    if args.record:
        state, traj = flow(
            cfg.params,
            z0,
            args.t,
            pert=cfg.perturbation,
            cfg=cfg.integrator,
            record=True,
        )
        fmt = _format(args, cfg, "csv")
        if fmt == "csv":
            rows = [
                (traj.t[i], traj.states[i, 0], traj.states[i, 1])
                for i in range(len(traj))
            ]
            text = _csv_lines(cfg, [], "t,x,y", rows)
        else:
            text = _json_report(
                cfg,
                {
                    "t": traj.t,
                    "x": traj.states[:, 0],
                    "y": traj.states[:, 1],
                },
            )
    else:
        state = flow(
            cfg.params, z0, args.t, pert=cfg.perturbation, cfg=cfg.integrator
        )
        text = _json_report(cfg, {"t": args.t, "x": state.x, "y": state.y})
    _emit(text, _out_path(args, cfg))
    return 0


def cmd_exit_time(args) -> int:
    cfg = _load(args)
    p = cfg.params
    zeta0 = cfg.rect.zeta0
    eta = args.eta if args.eta is not None else cfg.rect.eta0
    if (args.xi is None) == (args.T is None):
        raise _Usage("exit-time needs exactly one of --xi or --T")
    fmt = _format(args, cfg, "csv")
    if args.xi is not None:
        ker = kernel_for(p)
        xis = np.asarray(args.xi, dtype=float)
        if np.any(xis <= 0.0) or np.any(xis > zeta0):
            raise ValueError("--xi values must lie in (0, zeta0]")
        T, omega = ker.exit_time(xis, np.full(len(xis), eta), zeta0, with_omega=True)
        rows = [(xis[i], eta, T[i], omega[i]) for i in range(len(xis))]
        header = "xi,eta,T,omega"
        records = [
            {"xi": r[0], "eta": r[1], "T": r[2], "omega": r[3]} for r in rows
        ]
    else:
        Ts = np.asarray(args.T, dtype=float)
        xi_exact = invert_exit_time(p, eta, zeta0, Ts)
        c = coeffs(p, eta=eta, zeta0=zeta0)
        xi_exp = xi_expansion(c, Ts)
        gap = np.abs(xi_exact - xi_exp) / xi_exact
        rows = [
            (Ts[i], eta, xi_exact[i], xi_exp[i], gap[i]) for i in range(len(Ts))
        ]
        header = "T,eta,xi_exact,xi_expansion,relative_gap"
        records = [
            {
                "T": r[0],
                "eta": r[1],
                "xi_exact": r[2],
                "xi_expansion": r[3],
                "relative_gap": r[4],
            }
            for r in rows
        ]
    if fmt == "csv":
        text = _csv_lines(cfg, [], header, rows)
    else:
        text = _json_report(cfg, {"rows": records})
    _emit(text, _out_path(args, cfg))
    return 0


def cmd_asymptotics(args) -> int:
    cfg = _load(args)
    d = derive_constants(cfg.params)
    c = coeffs(cfg.params, d, eta=cfg.rect.eta0, zeta0=cfg.rect.zeta0)
    tc = tail_coeffs(cfg.params, d, cfg.density, zeta0=cfg.rect.zeta0)
    body = {
        "beta0": c.beta0,
        "beta2": c.beta2,
        "beta_star": d.beta_star,
        "xi0": c.xi0,
        "xi1": c.xi1,
        "omega0": c.omega0,
        "omega1": c.omega1,
        "C0": tc.C0,
        "H": list(tc.H),
        "Hhat": list(tc.Hhat),
    }
    _emit(_json_report(cfg, body), _out_path(args, cfg))
    return 0


def _fit_dict(fit) -> dict:
    return {
        "beta_hat": fit.beta_hat,
        "C0_hat": fit.C0_hat,
        "fit_range": list(fit.fit_range),
        "residual_rms": fit.residual_rms,
        "n_points": fit.n_points,
        "second_order_coeff": fit.second_order_coeff,
    }


def cmd_tail(args) -> int:
    cfg = _load(args)
    n_grid = geometric_grid(args.n_min, args.n_max, args.per_decade)
    if args.mode == "semi":
        t = semi_analytic_tail(
            cfg.params, None, cfg.density, n_grid, zeta0=cfg.rect.zeta0
        )
    else:
        t = monte_carlo_tail(
            cfg.params,
            cfg.perturbation,
            cfg.density,
            N=args.N,
            seed=cfg.seed,
            n_grid=n_grid,
            zeta0=cfg.rect.zeta0,
            jobs=args.jobs,
            cfg=cfg.integrator,
        )
    fit_lo = args.fit_lo if args.fit_lo is not None else max(args.n_max // 100, 1)
    fit_hi = args.fit_hi if args.fit_hi is not None else args.n_max
    fit = fit_regvar(t, (fit_lo, fit_hi))
    fmt = _format(args, cfg, "csv")
    if fmt == "csv":
        comments = [
            "mode=" + args.mode,
            "fit " + " ".join(f"{k}={v!r}" for k, v in sorted(_fit_dict(fit).items())),
        ]
        if t.n_censored is not None:
            comments.append(f"n_censored={t.n_censored}")
        rows = [
            (
                float(t.n_grid[i]),
                t.mass[i],
                None if t.stderr is None else t.stderr[i],
            )
            for i in range(len(t.n_grid))
        ]
        text = _csv_lines(cfg, comments, "n,mass,stderr", rows)
    else:
        text = _json_report(
            cfg,
            {
                "mode": args.mode,
                "table": {
                    "n": t.n_grid,
                    "mass": t.mass,
                    "stderr": t.stderr,
                    "n_censored": t.n_censored,
                },
                "fit": _fit_dict(fit),
            },
        )
    _emit(text, _out_path(args, cfg))
    return 0


def cmd_renewal(args) -> int:
    cfg = _load(args)
    N = args.N
    t = semi_analytic_tail(
        cfg.params,
        None,
        cfg.density,
        np.arange(1, N + 1),
        zeta0=cfg.rect.zeta0,
    )
    p_seq = return_distribution(t)
    rs = renewal_sequence(p_seq, N)
    tc = tail_coeffs(cfg.params, None, cfg.density, zeta0=cfg.rect.zeta0)
    mc = mixing_coeffs(tc.C0, tc.beta)
    n = np.arange(1, N + 1, dtype=float)
    scaled = n ** (1.0 - mc.beta) * rs.u[1:]
    fmt = _format(args, cfg, "csv")
    if fmt == "csv":
        comments = [
            f"beta={mc.beta!r} d0={mc.d0!r} q={mc.q} C0={tc.C0!r}",
        ]
        rows = [
            (n[i], rs.p[i], rs.u[i + 1], scaled[i]) for i in range(N)
        ]
        text = _csv_lines(cfg, comments, "n,p,u,scaled_u", rows)
    else:
        text = _json_report(
            cfg,
            {
                "mixing": {
                    "beta": mc.beta,
                    "d0": mc.d0,
                    "q": mc.q,
                    "C0": tc.C0,
                },
                "n": n,
                "p": rs.p,
                "u": rs.u[1:],
                "scaled_u": scaled,
            },
        )
    _emit(text, _out_path(args, cfg))
    return 0


_DEFAULT_VERIFY_CONFIG = {
    **asdict(verify_mod.P2),
    "seed": verify_mod.DEFAULT_SEED,
}


def cmd_verify(args) -> int:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = parse_config(dict(_DEFAULT_VERIFY_CONFIG), source="<builtin>")
    seed = args.seed if args.seed is not None else cfg.seed
    if seed is None:
        seed = verify_mod.DEFAULT_SEED
    if args.criteria:
        try:
            ids = sorted({int(tok) for tok in args.criteria.split(",") if tok.strip()})
        except ValueError:
            raise _Usage(f"--criteria must be comma-separated integers, got {args.criteria!r}")
    else:
        ids = sorted(verify_mod.REGISTRY)
    bad = [i for i in ids if i not in verify_mod.REGISTRY]
    if bad:
        raise _Usage(f"unknown criteria: {bad}")
    results = verify_mod.run(ids, seed=seed, jobs=args.jobs)
    for r in results:
        line = f"criterion {r.cid:02d} {'PASS' if r.passed else 'FAIL'} {r.name}"
        print(line, file=sys.stderr)
    text = verify_mod.render_report(results, seed=seed, config_sha256=cfg.sha256)
    _emit(text, _out_path(args, cfg))
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), help="table format")
    common.add_argument("--jobs", type=int, default=1, help="worker threads")

    top = _Parser(prog="saddletail", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("derive", parents=[common], help="constants report")
    sp.set_defaults(func=cmd_derive)

    sp = sub.add_parser("flow", parents=[common], help="integrate one orbit")
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--record", action="store_true", help="emit the trajectory")
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser(
        "exit-time", parents=[common], help="passage times, forward or inverse"
    )
    sp.add_argument("--eta", type=float, help="entry height (default: rect eta0)")
    sp.add_argument("--xi", type=float, nargs="+", help="forward mode abscissae")
    sp.add_argument("--T", type=float, nargs="+", help="inverse mode times")
    sp.set_defaults(func=cmd_exit_time)

    sp = sub.add_parser("asymptotics", parents=[common], help="coefficient report")
    sp.set_defaults(func=cmd_asymptotics)

    sp = sub.add_parser("tail", parents=[common], help="exceedance table and fit")
    sp.add_argument("--mode", choices=("semi", "mc"), default="semi")
    sp.add_argument("--N", type=int, default=100_000, help="Monte Carlo samples")
    sp.add_argument("--n-min", type=int, default=1)
    sp.add_argument("--n-max", type=int, default=100_000)
    sp.add_argument("--per-decade", type=int, default=32)
    sp.add_argument("--fit-lo", type=int)
    sp.add_argument("--fit-hi", type=int)
    sp.set_defaults(func=cmd_tail)

    sp = sub.add_parser("renewal", parents=[common], help="renewal shadow table")
    sp.add_argument("--N", type=int, default=30_000)
    sp.set_defaults(func=cmd_renewal)

    sp = sub.add_parser("verify", parents=[common], help="acceptance gates")
    sp.add_argument("--criteria", help="comma-separated criterion ids (default all)")
    sp.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _VALIDATION as exc:
        print(f"validation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
