"""Command-line behaviour: exit codes, report shapes, determinism."""
import json
from pathlib import Path

import numpy as np
import pytest

from saddletail import __version__, cli, tails
from saddletail.config import load_config
from saddletail.field import flow
from saddletail.params import SaddleParams

BASE = {"a0": 1.0, "a2": 1.0, "b0": 1.0, "b2": 2.0, "kappa": 2}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE))
    return str(path)


def run_cli(*args):
    try:
        return cli.main(list(args))
    except SystemExit as exc:  # argparse --version/--help path
        return int(exc.code or 0)


def csv_body(text):
    lines = text.strip().split("\n")
    comments = [l for l in lines if l.startswith("#")]
    rest = [l for l in lines if not l.startswith("#")]
    return comments, rest[0], [r.split(",") for r in rest[1:]]


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert capsys.readouterr().out.strip() == __version__


def test_missing_config_is_usage_error(capsys):
    assert run_cli("derive") == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert run_cli("frobnicate") == 1


@pytest.mark.parametrize(
    "command, option",
    [
        ("derive", ("--format", "csv")),
        ("asymptotics", ("--jobs", "2")),
        ("verify", ("--format", "csv")),
        ("renewal", ("--seed", "1")),
        ("flow", ("--x0", "0.1", "--y0", "0.3", "--t", "1", "--jobs", "2")),
        ("exit-time", ("--T", "10", "--seed", "1")),
        ("verify", ("--criteria", "1", "--seed", "-1")),
    ],
)
def test_bad_option_is_usage_error(config_path, capsys, command, option):
    # options a subcommand does not read, and a seed numpy cannot take
    assert run_cli(command, "--config", config_path, *option) == 1
    assert "usage error" in capsys.readouterr().err


def test_plain_value_error_is_a_bug(config_path, monkeypatch):
    def fail(p):
        raise ValueError("not raised on purpose")

    monkeypatch.setattr(cli, "derive_constants", fail)
    with pytest.raises(ValueError, match="not raised on purpose"):
        cli.main(["derive", "--config", config_path])


def test_malformed_config_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert run_cli("derive", "--config", str(bad)) == 1
    assert "config parse error" in capsys.readouterr().err


def test_degenerate_delta_exits_2(tmp_path, capsys):
    doc = dict(BASE, b2=1.0)
    path = tmp_path / "degen.json"
    path.write_text(json.dumps(doc))
    assert run_cli("derive", "--config", str(path)) == 2
    assert "DegenerateDelta" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps(dict(BASE, verbosity=3)))
    assert run_cli("derive", "--config", str(path)) == 2
    assert "verbosity" in capsys.readouterr().err


def test_derive_report_shape(config_path, capsys):
    assert run_cli("derive", "--config", config_path) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == __version__
    assert len(doc["config_sha256"]) == 64
    assert doc["derived_constants"]["beta2"] == 0.75
    assert doc["derived_constants"]["measure_class"] == "InfiniteSRB"
    assert doc["asymptotic_coeffs"]["xi1"] == pytest.approx(4.5, rel=1e-12)
    assert doc["tail_coeffs"]["C0"] == pytest.approx(1.00128785552, rel=1e-9)


def test_derive_where_the_product_form_of_omega0_overflowed(tmp_path, capsys):
    # beta0/beta2 = 49.3: as a product, xi0^(beta0/beta2) overflows here,
    # although omega0 = 5.1e217 is finite
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(
        {"a0": 0.05, "a2": 0.35, "b0": 12.0, "b2": 0.09, "kappa": 2, "zeta0": 0.4, "eta0": 0.5}
    ))
    assert run_cli("derive", "--config", str(path)) == 0
    coeffs = json.loads(capsys.readouterr().out)["asymptotic_coeffs"]
    assert coeffs["omega0"] == pytest.approx(5.148751571327371e217, rel=1e-12)
    assert "m_integral_omega" not in coeffs


def test_derive_where_a_factor_of_xi0_overflowed(tmp_path, capsys):
    # as a product, I^beta2 overflows here although ln xi0 = 597.41; the
    # uniform density's h_1 is zero, so H_2 is exactly 0 whatever xi0^2 is
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(
        {"a0": 0.1514, "a2": 11.8874, "b0": 1.2662, "b2": 0.0395, "kappa": 2, "zeta0": 1.0, "eta0": 0.5}
    ))
    assert run_cli("derive", "--config", str(path)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.log(doc["asymptotic_coeffs"]["xi0"]) == pytest.approx(597.41, abs=0.01)
    assert doc["tail_coeffs"]["H"][1] == 0.0 and doc["tail_coeffs"]["Hhat"][1] == 0.0


def test_asymptotics_exits_3_where_xi0_is_not_a_double(tmp_path, capsys):
    # ln xi0 = 1130.6 lies above ln(largest double) = 709.78
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(
        {"a0": 1.951, "a2": 13.73, "b0": 0.8246, "b2": 0.01496, "kappa": 4, "zeta0": 1.0, "eta0": 0.5907}
    ))
    assert run_cli("asymptotics", "--config", str(path)) == 3
    err = capsys.readouterr().err
    assert "numerical failure: BracketFailure" in err and "ln(xi0)" in err


def test_asymptotics_report(config_path, capsys):
    assert run_cli("asymptotics", "--config", config_path) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["beta0"] == 1.0 and doc["beta2"] == 0.75
    assert doc["beta_star"] == 0.25
    assert doc["xi1"] == pytest.approx(4.5, rel=1e-12)
    assert doc["omega1"] == pytest.approx(6.0, rel=1e-12)
    assert doc["H"][1] == 0.0 and doc["Hhat"][1] == 0.0


def test_flow_final_state_matches_library(config_path, capsys):
    assert (
        run_cli("flow", "--config", config_path, "--x0", "0.1", "--y0", "0.3", "--t", "2.0")
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    end = flow(SaddleParams(**BASE), (0.1, 0.3), 2.0)
    assert doc["x"] == pytest.approx(end.x, rel=1e-9)
    assert doc["y"] == pytest.approx(end.y, rel=1e-9)


@pytest.mark.parametrize("x0, t", [("nan", "1"), ("0.1", "inf")])
def test_flow_non_finite_input_exits_2(config_path, capsys, x0, t):
    args = ("flow", "--config", config_path, "--x0", x0, "--y0", "0.4", "--t", t)
    assert run_cli(*args) == 2
    assert "must be finite" in capsys.readouterr().err


def test_flow_record_csv(config_path, capsys):
    code = run_cli(
        "flow", "--config", config_path, "--x0", "0.1", "--y0", "0.3", "--t", "1.0", "--record"
    )
    assert code == 0
    comments, header, rows = csv_body(capsys.readouterr().out)
    assert comments[0] == f"# version={__version__}"
    assert comments[1].startswith("# config_sha256=")
    assert header == "t,x,y"
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0


def test_exit_time_on_section_is_zero(config_path, capsys):
    zeta0 = 8.0 ** -0.5
    assert run_cli("exit-time", "--config", config_path, "--xi", repr(zeta0)) == 0
    _, header, rows = csv_body(capsys.readouterr().out)
    assert header == "xi,eta,T,omega"
    assert float(rows[0][2]) == 0.0
    assert float(rows[0][3]) == float(rows[0][1])  # omega == eta at T = 0


def test_exit_time_inverse_gap(config_path, capsys):
    assert run_cli("exit-time", "--config", config_path, "--T", "1e4") == 0
    _, header, rows = csv_body(capsys.readouterr().out)
    assert header == "T,eta,xi_exact,xi_expansion,relative_gap"
    assert float(rows[0][4]) <= 1e-3


def test_exit_time_inverse_near_section(tmp_path, capsys):
    # here xi(T = 1) lies within 1e-6 of zeta0, where T is steep in xi
    path = tmp_path / "near.json"
    doc = {"a0": 0.1438, "a2": 0.01593, "b0": 0.4408, "b2": 23.19, "kappa": 6}
    path.write_text(json.dumps(doc))
    assert run_cli("exit-time", "--config", str(path), "--T", "1") == 0
    _, _, rows = csv_body(capsys.readouterr().out)
    xi = rows[0][2]
    assert run_cli("exit-time", "--config", str(path), "--xi", xi) == 0
    _, _, rows = csv_body(capsys.readouterr().out)
    assert abs(float(rows[0][2]) - 1.0) <= 1e-10


def test_exit_time_inverse_below_smallest_double_exits_3(tmp_path, capsys):
    path = tmp_path / "steep.json"
    doc = {"a0": 0.02806, "a2": 32.49, "b0": 20.27, "b2": 0.01635, "kappa": 4}
    path.write_text(json.dumps(doc))
    assert run_cli("exit-time", "--config", str(path), "--T", "1e3") == 3
    assert "numerical failure: BracketFailure" in capsys.readouterr().err


def test_exit_height_below_smallest_double_exits_3(tmp_path, capsys):
    path = tmp_path / "deep.json"
    doc = {"a0": 0.1094, "a2": 0.3535, "b0": 14.36, "b2": 16.32, "kappa": 4}
    path.write_text(json.dumps({**doc, "zeta0": 1.0, "eta0": 0.3298}))
    assert run_cli("exit-time", "--config", str(path), "--xi", "0.001342") == 3
    assert "numerical failure: BracketFailure" in capsys.readouterr().err


def test_builtin_verify_config_matches_default_file():
    path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    assert json.loads(path.read_text()) == cli._DEFAULT_VERIFY_CONFIG


def test_exit_time_sweep_monotone(config_path, capsys):
    ts = [str(v) for v in (10.0, 100.0, 1000.0, 10_000.0)]
    assert run_cli("exit-time", "--config", config_path, "--T", *ts) == 0
    _, _, rows = csv_body(capsys.readouterr().out)
    xi = [float(r[2]) for r in rows]
    assert all(a > b for a, b in zip(xi, xi[1:]))


def test_exit_time_json_format(config_path, capsys):
    assert (
        run_cli("exit-time", "--config", config_path, "--T", "100", "--format", "json") == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["T"] == 100.0
    assert 0.0 < doc["rows"][0]["xi_exact"] < 8.0 ** -0.5


def test_exit_time_needs_exactly_one_mode(config_path, capsys):
    assert run_cli("exit-time", "--config", config_path) == 1
    assert run_cli("exit-time", "--config", config_path, "--xi", "0.1", "--T", "10") == 1


def test_exit_time_xi_out_of_range(config_path, capsys):
    assert run_cli("exit-time", "--config", config_path, "--xi", "0.9") == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [pytest.param(("--xi", "nan"), id="--xi"), pytest.param(("--T", "nan"), id="--T")]
    + [pytest.param(("--T", "inf"), id="--T=inf")]
    # below the shortest exit time, the one from just inside the section
    + [pytest.param(("--T", "1e-13"), id="--T=1e-13")]
    + [
        pytest.param((mode, value, "--eta", eta), id=f"{mode}--eta={eta}")
        for mode, value in (("--xi", "0.1"), ("--T", "10"))
        for eta in ("nan", "-1", "0")
    ],
)
def test_exit_time_nan_exits_2(config_path, capsys, args):
    assert run_cli("exit-time", "--config", config_path, *args) == 2
    assert "validation error: InvalidInput" in capsys.readouterr().err


def test_tail_semi_fit(config_path, capsys):
    code = run_cli(
        "tail", "--config", config_path,
        "--n-min", "50", "--n-max", "2000", "--per-decade", "16",
        "--fit-lo", "100", "--format", "json",
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "semi"
    assert abs(doc["fit"]["beta_hat"] / 0.75 - 1.0) <= 0.02
    assert doc["table"]["stderr"] is None
    assert doc["table"]["mass"] == sorted(doc["table"]["mass"], reverse=True)


def test_tail_csv_comments(config_path, capsys):
    code = run_cli(
        "tail", "--config", config_path,
        "--n-min", "50", "--n-max", "500", "--per-decade", "8",
    )
    assert code == 0
    comments, header, rows = csv_body(capsys.readouterr().out)
    assert any(c.startswith("# mode=semi") for c in comments)
    assert any(c.startswith("# fit ") for c in comments)
    assert header == "n,mass,stderr"
    assert rows[0][2] == ""  # no stderr column for the semi route


def test_tail_mc_needs_seed(config_path, capsys):
    code = run_cli(
        "tail", "--config", config_path, "--mode", "mc",
        "--N", "1000", "--n-min", "5", "--n-max", "50", "--per-decade", "8",
    )
    assert code == 2
    assert "SeedRequired" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2", "1.5", "two"])
def test_bad_jobs_is_usage_error(config_path, capsys, jobs):
    code = run_cli(
        "tail", "--config", config_path, "--mode", "mc", "--seed", "31",
        "--N", "1000", "--n-min", "5", "--n-max", "50", "--jobs", jobs,
    )
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_tail_fit_range_reversed_exits_2(config_path, capsys):
    code = run_cli(
        "tail", "--config", config_path, "--n-max", "1000", "--per-decade", "8",
        "--fit-lo", "500", "--fit-hi", "100",
    )
    assert code == 2
    assert "validation error: InvalidInput: fit range" in capsys.readouterr().err


def test_tail_mc_deterministic(config_path, tmp_path):
    out = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in out:
        code = run_cli(
            "tail", "--config", config_path, "--mode", "mc", "--seed", "31",
            "--N", "2000", "--n-min", "5", "--n-max", "50", "--per-decade", "8",
            "--out", str(path),
        )
        assert code == 0
    assert out[0].read_bytes() == out[1].read_bytes()


def test_tail_mc_default_integrator_is_the_library_default(tmp_path, capsys):
    # no integrator section: the flow route keeps monte_carlo_tail's own
    # tolerances rather than the single-orbit IntegratorConfig()
    doc = dict(BASE, seed=5, perturbation={"px": [[1, 2, 0.1]], "py": [[2, 1, -0.1]]})
    path = tmp_path / "pert.json"
    path.write_text(json.dumps(doc))
    code = run_cli(
        "tail", "--config", str(path), "--mode", "mc",
        "--N", "2000", "--n-min", "5", "--n-max", "50", "--per-decade", "8",
        "--format", "json",
    )
    assert code == 0
    table = json.loads(capsys.readouterr().out)["table"]
    cfg = load_config(str(path))
    assert cfg.integrator is None
    ref = tails.monte_carlo_tail(
        cfg.params, cfg.perturbation, cfg.density, N=2000, seed=5,
        n_grid=tails.geometric_grid(5, 50, 8), zeta0=cfg.rect.zeta0,
    )
    assert table["n"] == ref.n_grid.tolist()
    assert table["mass"] == ref.mass.tolist()
    assert table["stderr"] == ref.stderr.tolist()
    assert table["n_censored"] == ref.n_censored


def test_renewal_report(config_path, capsys):
    assert run_cli("renewal", "--config", config_path, "--N", "400", "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mixing"]["beta"] == 0.75
    assert doc["mixing"]["q"] == 2
    assert doc["mixing"]["d0"] == pytest.approx(
        np.sin(0.75 * np.pi) / (np.pi * doc["mixing"]["C0"]), rel=1e-12
    )
    assert len(doc["u"]) == 400 and len(doc["p"]) == 400
    # mass conservation of the embedded return distribution
    assert sum(doc["p"]) <= 1.0 + 1e-9


def test_renewal_csv_comment(config_path, capsys):
    assert run_cli("renewal", "--config", config_path, "--N", "50") == 0
    comments, header, rows = csv_body(capsys.readouterr().out)
    assert any(c.startswith("# beta=0.75 d0=") for c in comments)
    assert header == "n,p,u,scaled_u"
    assert len(rows) == 50


def test_verify_subset_passes(config_path, capsys):
    assert run_cli("verify", "--config", config_path, "--criteria", "1,9") == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["all_pass"] is True
    assert [c["id"] for c in doc["criteria"]] == [1, 9]
    assert "criterion 01 PASS" in captured.err
    assert "criterion 09 PASS" in captured.err


def test_verify_rejects_bad_criteria(config_path, capsys):
    assert run_cli("verify", "--config", config_path, "--criteria", "1,42") == 1
    assert run_cli("verify", "--config", config_path, "--criteria", "one") == 1


def test_verify_builtin_default_config(capsys):
    assert run_cli("verify", "--criteria", "9") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 20260817


def test_numerical_failure_exits_3(tmp_path, capsys):
    doc = dict(BASE, integrator={"max_steps": 50})
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code = run_cli("flow", "--config", str(path), "--x0", "0.1", "--y0", "0.3", "--t", "50.0")
    assert code == 3
    assert "numerical failure: StepLimitExceeded" in capsys.readouterr().err


def test_unconverged_semi_tail_exits_3(config_path, monkeypatch, capsys):
    monkeypatch.setattr(tails, "_MAX_PANELS", 4)
    assert run_cli("tail", "--config", config_path, "--mode", "semi", "--n-max", "100") == 3
    assert "numerical failure: NotConverged" in capsys.readouterr().err


def test_out_file_leaves_stdout_empty(config_path, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run_cli("derive", "--config", config_path, "--out", str(target)) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["derived_constants"]["beta0"] == 1.0


def test_seed_flag_overrides_config(tmp_path, capsys):
    doc = dict(BASE, seed=1)
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(doc))
    code = run_cli(
        "tail", "--config", str(path), "--mode", "mc", "--seed", "2",
        "--N", "1200", "--n-min", "5", "--n-max", "50", "--per-decade", "8",
        "--format", "json",
    )
    assert code == 0
    with_flag = json.loads(capsys.readouterr().out)
    code = run_cli(
        "tail", "--config", str(path), "--mode", "mc",
        "--N", "1200", "--n-min", "5", "--n-max", "50", "--per-decade", "8",
        "--format", "json",
    )
    assert code == 0
    with_config_seed = json.loads(capsys.readouterr().out)
    assert with_flag["table"]["mass"] != with_config_seed["table"]["mass"]
