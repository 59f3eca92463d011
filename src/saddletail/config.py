"""JSON run configuration: one file describes field, geometry, and run knobs.

Required keys: a0, a2, b0, b2 (positive numbers) and kappa (even integer).
Optional keys:

    zeta0, eta0      section abscissa and entry height (defaults derived)
    density          {"eta_range": [lo, hi]?, "h_coeffs": [[...], ...],
                      "weight": [...]} (defaults: rect heights, h = 1,
                      uniform weight)
    perturbation     {"px": [[i, j, c], ...], "py": [...]} (bracket terms,
                      each of total degree kappa + 1)
    integrator       {"rel_tol", "abs_tol", "max_step", "max_steps", "bbox"}
                     (absent: each routine keeps its own default tolerances)
    seed             64-bit integer

Where a report goes and in which format are command-line flags, not
config keys.

Unknown keys anywhere are rejected with the offending name; that is the
only schema leniency policy.  Malformed JSON raises json.JSONDecodeError
(a parse failure, not a validation failure); every schema or range
problem raises ConfigError or the specific validation error.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .density import EntryDensity, make_density, uniform_density
from .errors import ConfigError, DegenerateDelta
from .flow import IntegratorConfig, Perturbation
from .params import DomainRect, SaddleParams, make_rect, validate

__all__ = ["RunConfig", "load_config", "parse_config"]

_TOP_KEYS = {
    "a0",
    "a2",
    "b0",
    "b2",
    "kappa",
    "zeta0",
    "eta0",
    "density",
    "perturbation",
    "integrator",
    "seed",
}
_DENSITY_KEYS = {"eta_range", "h_coeffs", "weight"}
_PERT_KEYS = {"px", "py"}
_INTEGRATOR_KEYS = {"rel_tol", "abs_tol", "max_step", "max_steps", "bbox"}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description with the source hash for reports."""

    params: SaddleParams
    rect: DomainRect
    density: EntryDensity
    perturbation: Perturbation | None
    integrator: IntegratorConfig | None
    seed: int | None
    sha256: str


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _is_list_of(val, pred) -> bool:
    return isinstance(val, list) and all(map(pred, val))


def _is_poly(val) -> bool:
    """Polynomial coefficients: a number or a flat list of numbers."""
    return _is_number(val) or _is_list_of(val, _is_number)


def _require_number(raw: dict, key: str, source: str) -> float:
    if key not in raw:
        raise ConfigError(f"{source}: missing required key '{key}'")
    if not _is_number(raw[key]):
        raise ConfigError(f"{source}: key '{key}' must be a number")
    return float(raw[key])


def _check_keys(raw: dict, allowed: set, where: str, source: str) -> None:
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{source}: unknown key '{key}' in {where}")


def _parse_terms(raw, name: str, source: str):
    if not isinstance(raw, list):
        raise ConfigError(f"{source}: '{name}' must be a list of [i, j, coeff]")
    terms = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ConfigError(
                f"{source}: each '{name}' entry must be a [i, j, coeff] triple"
            )
        i, j, c = entry
        if isinstance(i, bool) or isinstance(j, bool):
            raise ConfigError(f"{source}: '{name}' exponents must be integers")
        if not (isinstance(i, int) and isinstance(j, int)):
            raise ConfigError(f"{source}: '{name}' exponents must be integers")
        if not _is_number(c):
            raise ConfigError(f"{source}: '{name}' coefficient must be a number")
        terms.append((i, j, float(c)))
    return terms


def parse_config(raw: dict, source: str = "<config>") -> RunConfig:
    """Resolve a parsed JSON object into module-level types."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "top level", source)

    kappa = raw.get("kappa")
    if kappa is None:
        raise ConfigError(f"{source}: missing required key 'kappa'")
    if isinstance(kappa, bool) or not isinstance(kappa, int):
        raise ConfigError(f"{source}: 'kappa' must be an integer")
    params = SaddleParams(
        a0=_require_number(raw, "a0", source),
        a2=_require_number(raw, "a2", source),
        b0=_require_number(raw, "b0", source),
        b2=_require_number(raw, "b2", source),
        kappa=kappa,
    )
    codes = validate(params)
    if codes == ["DegenerateDelta"]:
        raise DegenerateDelta(f"{source}: a2*b0 - a0*b2 vanishes (DegenerateDelta)")
    if codes:
        raise ConfigError(f"{source}: invalid parameters: {', '.join(codes)}")

    zeta0 = _require_number(raw, "zeta0", source) if "zeta0" in raw else None
    eta0 = _require_number(raw, "eta0", source) if "eta0" in raw else None
    rect = make_rect(params, zeta0=zeta0, eta0=eta0)

    if "density" in raw:
        dd = raw["density"]
        if not isinstance(dd, dict):
            raise ConfigError(f"{source}: 'density' must be an object")
        _check_keys(dd, _DENSITY_KEYS, "'density'", source)
        if "h_coeffs" not in dd or "weight" not in dd:
            raise ConfigError(
                f"{source}: 'density' needs both 'h_coeffs' and 'weight'"
            )
        eta_range = dd.get("eta_range", [rect.eta0, rect.eta1])
        if not (_is_list_of(eta_range, _is_number) and len(eta_range) == 2):
            raise ConfigError(f"{source}: 'eta_range' must be a pair of numbers")
        if not _is_list_of(dd["h_coeffs"], _is_poly):
            raise ConfigError(f"{source}: 'h_coeffs' must be a list of number lists")
        if not _is_poly(dd["weight"]):
            raise ConfigError(f"{source}: 'weight' must be a list of numbers")
        density = make_density(
            tuple(eta_range), dd["h_coeffs"], dd["weight"], kappa=params.kappa
        )
    else:
        density = uniform_density((rect.eta0, rect.eta1), params.kappa)

    pert = None
    if "perturbation" in raw:
        pp = raw["perturbation"]
        if not isinstance(pp, dict):
            raise ConfigError(f"{source}: 'perturbation' must be an object")
        _check_keys(pp, _PERT_KEYS, "'perturbation'", source)
        pert = Perturbation.from_terms(
            px=_parse_terms(pp.get("px", []), "px", source),
            py=_parse_terms(pp.get("py", []), "py", source),
        )
        pert.validate_for(params.kappa)
        if pert.is_zero:
            pert = None

    if "integrator" in raw:
        ii = raw["integrator"]
        if not isinstance(ii, dict):
            raise ConfigError(f"{source}: 'integrator' must be an object")
        _check_keys(ii, _INTEGRATOR_KEYS, "'integrator'", source)
        for key in ii:
            _require_number(ii, key, source)
        integrator = IntegratorConfig(**ii)
    else:
        integrator = None

    seed = raw.get("seed")
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
    ):
        raise ConfigError(f"{source}: 'seed' must be an integer >= 0")

    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return RunConfig(
        params=params,
        rect=rect,
        density=density,
        perturbation=pert,
        integrator=integrator,
        seed=seed,
        sha256=digest,
    )


def load_config(path: str) -> RunConfig:
    """Read and resolve a JSON config file.

    json.JSONDecodeError from malformed files is deliberately not caught:
    the CLI maps it to a parse failure with line/column diagnostics.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return parse_config(raw, source=path)
