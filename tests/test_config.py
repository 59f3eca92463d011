"""Config schema: parsing, defaults, rejection, and hashing."""
import json
import math

import pytest

from saddletail.config import load_config, parse_config
from saddletail.errors import ConfigError, DegenerateDelta, InvalidInput
from saddletail.field import Perturbation

BASE = {"a0": 1.0, "a2": 1.0, "b0": 1.0, "b2": 2.0, "kappa": 2}


def cfg(**extra):
    doc = dict(BASE)
    doc.update(extra)
    return parse_config(doc)


def test_minimal_config_fills_defaults():
    c = cfg()
    assert c.params.kappa == 2 and c.params.b2 == 2.0
    assert c.rect.zeta0 == pytest.approx(8.0 ** -0.5)
    assert c.rect.eta1 == pytest.approx(0.5)
    assert c.perturbation is None
    assert c.seed is None
    assert c.integrator is None  # routines keep their own tolerances
    assert c.density.eta_range == (c.rect.eta0, c.rect.eta1)
    assert len(c.sha256) == 64


def test_geometry_and_seed_overrides():
    c = cfg(zeta0=0.25, eta0=0.3, seed=7)
    assert c.rect.zeta0 == 0.25 and c.rect.eta0 == 0.3
    assert c.seed == 7


def test_missing_and_unknown_keys():
    with pytest.raises(ConfigError, match="missing required key 'b2'"):
        parse_config({"a0": 1.0, "a2": 1.0, "b0": 1.0, "kappa": 2})
    with pytest.raises(ConfigError, match="unknown key 'colour'"):
        cfg(colour="red")
    with pytest.raises(ConfigError, match="'density'"):
        cfg(density={"h_coeffs": [[1.0], [0.0]], "weight": [1.0], "shape": 1})
    with pytest.raises(ConfigError, match="'integrator'"):
        cfg(integrator={"tol": 1e-9})


def test_type_rejection():
    with pytest.raises(ConfigError, match="'kappa' must be an integer"):
        cfg(kappa=2.0)
    with pytest.raises(ConfigError, match="'a0' must be a number"):
        cfg(a0="one")
    with pytest.raises(ConfigError, match="'a0' must be a number"):
        cfg(a0=True)
    with pytest.raises(ConfigError, match="'seed' must be an integer"):
        cfg(seed=1.5)
    with pytest.raises(ConfigError, match="top level"):
        parse_config([1, 2, 3])
    with pytest.raises(ConfigError, match="'zeta0' must be a number"):
        cfg(zeta0=[1])
    with pytest.raises(ConfigError, match="'zeta0' must be a number"):
        cfg(zeta0="abc")
    with pytest.raises(ConfigError, match="'eta0' must be a number"):
        cfg(eta0=None)
    with pytest.raises(ConfigError, match="'rel_tol' must be a number"):
        cfg(integrator={"rel_tol": "x"})
    with pytest.raises(ConfigError, match="'max_steps' must be a number"):
        cfg(integrator={"max_steps": True})
    with pytest.raises(InvalidInput, match="max_step must be positive"):
        cfg(integrator={"max_step": math.nan})
    with pytest.raises(InvalidInput, match="bbox must be positive"):
        cfg(integrator={"bbox": math.nan})
    with pytest.raises(InvalidInput, match="max_steps must be an integer"):
        cfg(integrator={"max_steps": 1.5})
    with pytest.raises(ConfigError, match="'px' coefficient must be a number"):
        cfg(perturbation={"px": [[1, 2, True]]})
    dens = {"h_coeffs": [[1.0], [0.0]], "weight": [1.0]}
    for bad in (5, [0.3], [0.3, "x"], "ab"):
        with pytest.raises(ConfigError, match="'eta_range' must be a pair"):
            cfg(density=dict(dens, eta_range=bad))


def test_invalid_parameters_rejected_at_parse():
    with pytest.raises(DegenerateDelta, match="DegenerateDelta"):
        cfg(b2=1.0)  # a2*b0 == a0*b2
    with pytest.raises(ConfigError, match="OddKappa"):
        cfg(kappa=3)
    with pytest.raises(ConfigError, match="NonPositiveCoefficient:a0"):
        cfg(a0=-1.0)


def test_perturbation_parsing():
    c = cfg(perturbation={"px": [[1, 2, 0.1]], "py": [[2, 1, -0.1]]})
    assert c.perturbation == Perturbation.from_terms(
        px=[(1, 2, 0.1)], py=[(2, 1, -0.1)]
    )
    # zero perturbation collapses to None
    assert cfg(perturbation={"px": []}).perturbation is None
    with pytest.raises(ConfigError, match="exponents must be integers"):
        cfg(perturbation={"px": [[1.0, 2, 0.1]]})
    with pytest.raises(ConfigError, match="triple"):
        cfg(perturbation={"px": [[1, 2]]})
    with pytest.raises(ValueError, match="degree"):
        cfg(perturbation={"px": [[1, 1, 0.1]]})


def test_density_section():
    c = cfg(
        density={
            "eta_range": [0.3, 0.45],
            "h_coeffs": [[1.0], [2.0]],
            "weight": [1.0],
        }
    )
    assert c.density.eta_range == (0.3, 0.45)
    assert c.density.h_j(1, 0.4) == 2.0
    with pytest.raises(ConfigError, match="needs both"):
        cfg(density={"weight": [1.0]})


def test_integrator_section():
    c = cfg(integrator={"rel_tol": 1e-10, "max_steps": 1000})
    assert c.integrator.rel_tol == 1e-10
    assert c.integrator.max_steps == 1000
    with pytest.raises(ValueError):
        cfg(integrator={"rel_tol": 1.0})  # outside the accepted band


def test_output_section():
    # the report path and format are command-line flags only
    with pytest.raises(ConfigError, match="unknown key 'output'"):
        cfg(output={"path": "report.csv", "format": "csv"})


def test_hash_is_canonical():
    a = parse_config(dict(BASE))
    reordered = {k: BASE[k] for k in reversed(list(BASE))}
    b = parse_config(reordered)
    assert a.sha256 == b.sha256
    c = parse_config({**BASE, "seed": 1})
    assert c.sha256 != a.sha256


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**BASE, "seed": 11}))
    c = load_config(str(path))
    assert c.seed == 11
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(json.JSONDecodeError):
        load_config(str(bad))
