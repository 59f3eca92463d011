"""Field evaluation, time-t maps, conservation, and passage times."""
import math

import numpy as np
import pytest

from saddletail.errors import InvalidInput, LeftDomain, StepLimitExceeded
from saddletail.flow import (
    IntegratorConfig,
    Perturbation,
    PhaseState,
    axis_coefficient_probe,
    eval_field,
    exit_time_flow,
    exit_time_quadrature,
    first_integral,
    flow,
    omega_of_xi,
    perturbed_first_integral,
    time_one_map,
)
from saddletail.params import SaddleParams, make_rect

P1 = SaddleParams(1.0, 3.0, 2.0, 1.0, 2)
P2 = SaddleParams(1.0, 1.0, 1.0, 2.0, 2)

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15, max_step=np.inf, max_steps=500_000, bbox=4.0)


def stable_axis(p, y0, t):
    return (p.kappa * p.b2 * t + y0 ** -p.kappa) ** (-1.0 / p.kappa)


def unstable_axis(p, x0, t):
    return (x0 ** -p.kappa - p.kappa * p.a0 * t) ** (-1.0 / p.kappa)


def test_eval_field_matches_hand_formula():
    x, y = 0.31, 0.47
    z = eval_field(P2, (x, y))
    assert z.x == pytest.approx(x * (x**2 + y**2), rel=1e-15)
    assert z.y == pytest.approx(-y * (x**2 + 2 * y**2), rel=1e-15)


def test_eval_field_bracket_perturbation():
    pert = Perturbation.from_terms(px=[(1, 2, 0.1)], py=[(2, 1, -0.1)])
    x, y = 0.31, 0.47
    z = eval_field(P2, (x, y), pert)
    assert z.x == pytest.approx(x * (x**2 + y**2 + 0.1 * x * y**2), rel=1e-15)
    assert z.y == pytest.approx(-y * (x**2 + 2 * y**2 - 0.1 * x**2 * y), rel=1e-15)


def test_axes_invariant_even_when_perturbed():
    pert = Perturbation.from_terms(px=[(0, 3, 0.2)], py=[(3, 0, 0.2)])
    on_y = eval_field(P2, (0.0, 0.3), pert)
    assert on_y.x == 0.0
    on_x = eval_field(P2, (0.3, 0.0), pert)
    assert on_x.y == 0.0
    # and the flow keeps them there
    end = flow(P2, (0.0, 0.3), 5.0, pert=pert, cfg=TIGHT)
    assert end.x == 0.0


def test_perturbation_validation():
    with pytest.raises(ValueError):
        Perturbation.from_terms(px=[(1, 1, 0.1)]).validate_for(2)
    with pytest.raises(ValueError):
        Perturbation.from_terms(py=[(-1, 4, 0.1)]).validate_for(2)
    with pytest.raises(ValueError):
        Perturbation.from_terms(px=[(1, 2, math.inf)]).validate_for(2)
    assert Perturbation.from_terms().is_zero
    assert Perturbation.from_terms(px={(1, 2): 0.1}) == Perturbation.from_terms(
        px=[(1, 2, 0.1)]
    )


@pytest.mark.parametrize("p", [P1, P2])
def test_stable_axis_closed_form(p):
    y0 = 0.6
    for t in (0.5, 3.0, 10.0):
        end = flow(p, (0.0, y0), t, cfg=TIGHT)
        assert end.x == 0.0
        assert end.y == pytest.approx(stable_axis(p, y0, t), rel=1e-10)


@pytest.mark.parametrize("p", [P1, P2])
def test_unstable_axis_closed_form(p):
    x0 = (40.0 * p.kappa * p.a0) ** (-1.0 / p.kappa)
    for t in (0.5, 3.0, 10.0):
        end = flow(p, (x0, 0.0), t, cfg=TIGHT)
        assert end.y == 0.0
        assert end.x == pytest.approx(unstable_axis(p, x0, t), rel=1e-10)


def test_flow_backward_returns_to_start():
    z0 = (0.2, 0.4)
    mid = flow(P2, z0, 2.5, cfg=TIGHT)
    back = flow(P2, (mid.x, mid.y), -2.5, cfg=TIGHT)
    assert back.x == pytest.approx(z0[0], rel=1e-9)
    assert back.y == pytest.approx(z0[1], rel=1e-9)


def test_record_trajectory_endpoints():
    end, traj = flow(P2, (0.2, 0.4), 2.0, cfg=TIGHT, record=True)
    assert traj.t[0] == 0.0 and traj.t[-1] == 2.0
    assert np.all(np.diff(traj.t) > 0)
    assert traj.states[0].tolist() == [0.2, 0.4]
    assert traj.states[-1].tolist() == [end.x, end.y]
    with pytest.raises(ValueError):
        flow(P2, [[0.1, 0.2], [0.2, 0.3]], 1.0, record=True)


@pytest.mark.parametrize("t", [0.0, -0.0])
def test_flow_for_zero_time_returns_the_start(t):
    # the integrator takes no step: bit for bit the start, as single states,
    # as a block (a copy) and as a one-point trajectory at time 0
    block = np.array([[0.2, 0.4], [0.0, 0.3], [0.7, 0.0], [0.0, 0.0]])
    out = flow(P2, block, t)
    assert out.tobytes() == block.tobytes() and out is not block
    for z in block:
        end = flow(P2, tuple(z), t)
        assert isinstance(end, PhaseState)
        assert np.array([end.x, end.y]).tobytes() == z.tobytes()
        end, traj = flow(P2, tuple(z), t, record=True)
        assert np.array([end.x, end.y]).tobytes() == z.tobytes()
        assert traj.t.tobytes() == np.zeros(1).tobytes()
        assert traj.states.tobytes() == z[None, :].tobytes()


def test_time_one_map_is_flow_at_unit_time():
    block = np.array([[0.1, 0.3], [0.2, 0.25]])
    a = time_one_map(P2, block, cfg=TIGHT)
    b = flow(P2, block, 1.0, cfg=TIGHT)
    assert np.array_equal(a, b)


def test_flow_start_validation():
    with pytest.raises(ValueError):
        flow(P2, (-0.1, 0.2), 1.0)
    with pytest.raises(ValueError):
        flow(P2, (0.1, 99.0), 1.0)


@pytest.mark.parametrize(
    "z0, t",
    [
        ((math.nan, 0.4), 1.0),
        ((0.1, math.inf), 1.0),
        ((0.1, 0.4), math.nan),
        ((0.1, 0.4), -math.inf),
    ],
)
def test_flow_rejects_non_finite_input(z0, t):
    # raised before integrating: a nan start used to spin through the step budget
    with pytest.raises(ValueError):
        flow(P2, z0, t, cfg=TIGHT)
    if math.isfinite(t):
        with pytest.raises(ValueError):
            perturbed_first_integral(P2, None, z0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_step", math.nan),
        ("max_step", 0.0),
        ("bbox", math.nan),
        ("bbox", -1.0),
        ("max_steps", 1.5),
        ("max_steps", True),
        ("max_steps", 0),
        ("rel_tol", math.nan),
    ],
)
def test_integrator_config_rejects(field, value):
    with pytest.raises(InvalidInput, match=field):
        IntegratorConfig(**{field: value})


def test_step_budget_raises():
    tiny = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15, max_step=np.inf, max_steps=5, bbox=4.0)
    with pytest.raises(StepLimitExceeded):
        flow(P2, (0.2, 0.4), 10.0, cfg=tiny)


def test_unstable_blowup_leaves_domain():
    with pytest.raises(LeftDomain):
        flow(P2, (0.9, 0.0), 2.0, cfg=TIGHT)


def test_first_integral_conserved_along_orbit():
    z0 = (0.05, 0.45)
    L0 = first_integral(P2, *z0)
    _, traj = flow(P2, z0, 8.0, cfg=TIGHT, record=True)
    L = first_integral(P2, traj.states[:, 0], traj.states[:, 1])
    assert np.max(np.abs(L / L0 - 1.0)) <= 1e-9


def test_first_integral_vanishes_on_axes():
    assert first_integral(P2, 0.0, 0.7) == 0.0
    assert first_integral(P2, 0.7, 0.0) == 0.0


def test_axis_probe_recovers_a0():
    for p in (P1, P2):
        est = axis_coefficient_probe(p, 1e-2, cfg=TIGHT)
        assert est == pytest.approx(p.a0, rel=1e-3)


def test_exit_time_routes_agree():
    rect = make_rect(P2)
    for xi in (0.05, 0.2, 0.3):
        for eta in (rect.eta0, rect.eta1):
            tq = exit_time_quadrature(P2, xi, eta, rect.zeta0)
            tf = exit_time_flow(P2, xi, eta, rect.zeta0, cfg=TIGHT)
            assert tf == pytest.approx(tq, rel=1e-6)


@pytest.mark.parametrize(
    "xi, eta, zeta0",
    [(0.1, math.inf, 0.5), (0.1, math.nan, 0.5), (0.1, 0.5, math.inf), (math.inf, 0.5, math.inf)],
)
@pytest.mark.parametrize("route", [exit_time_quadrature, exit_time_flow, omega_of_xi])
def test_section_routes_reject_non_finite_geometry(route, xi, eta, zeta0):
    with pytest.raises(InvalidInput):
        route(P2, xi, eta, zeta0)


def test_exit_time_zero_on_section():
    rect = make_rect(P2)
    assert exit_time_quadrature(P2, rect.zeta0, rect.eta0, rect.zeta0) == 0.0
    assert exit_time_flow(P2, rect.zeta0, rect.eta0, rect.zeta0) == 0.0


def test_exit_time_argument_validation():
    rect = make_rect(P2)
    with pytest.raises(ValueError):
        exit_time_quadrature(P2, rect.zeta0 * 1.5, rect.eta0, rect.zeta0)
    with pytest.raises(ValueError):
        exit_time_quadrature(P2, 0.1, -0.2, rect.zeta0)


def test_omega_of_xi_matches_flow_landing():
    rect = make_rect(P2)
    xi, eta = 0.1, rect.eta1
    T = exit_time_flow(P2, xi, eta, rect.zeta0, cfg=TIGHT)
    end = flow(P2, (xi, eta), T, cfg=TIGHT)
    assert end.x == pytest.approx(rect.zeta0, rel=1e-9)
    assert omega_of_xi(P2, xi, eta, rect.zeta0) == pytest.approx(end.y, rel=1e-8)


def test_perturbed_level_reduces_to_exact():
    got = perturbed_first_integral(P2, None, (0.12, 0.34), cfg=TIGHT)
    assert got == pytest.approx(float(first_integral(P2, 0.12, 0.34)), rel=1e-8)
    assert perturbed_first_integral(P2, None, (0.0, 0.3)) == 0.0


def test_perturbed_level_constant_on_perturbed_orbit():
    pert = Perturbation.from_terms(px=[(1, 2, 0.1)], py=[(2, 1, -0.1)])
    z0 = (0.08, 0.4)
    z1 = flow(P2, z0, 3.0, pert=pert, cfg=TIGHT)
    l0 = perturbed_first_integral(P2, pert, z0, cfg=TIGHT)
    l1 = perturbed_first_integral(P2, pert, (z1.x, z1.y), cfg=TIGHT)
    assert l1 == pytest.approx(l0, rel=1e-8)
