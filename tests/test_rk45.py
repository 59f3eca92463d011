"""The Dormand-Prince stepper against a frozen per-iteration design.

The reference below gathers and scatters the active orbits on every loop
iteration, stacks its stages with np.array and polishes each iteration's
crossings at once.  integrate must reproduce it bit for bit: same step
sequence, same clocks and states, same polished crossings.  Batches of one
orbit run integrate's one-orbit loop on Python floats and every other
batch its numpy loop, so single-orbit cases check the former and blocks
the latter.
"""
import numpy as np
import pytest

from saddletail import _rk45
from saddletail._numerics import solve_increasing
from saddletail._rk45 import (
    _A,
    _E,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _SAFETY,
    Event,
    IntegratorConfig,
    _error_norm,
    _initial_step,
    integrate,
)
from saddletail.errors import LeftDomain, SaddleTailError
from saddletail.field import Perturbation, _event, _field_closure, flow
from saddletail.params import SaddleParams, make_rect

P2 = SaddleParams(1.0, 1.0, 1.0, 2.0, 2)
RECT = make_rect(P2)
PERT = Perturbation.from_terms(px=[(1, 2, 0.1)], py=[(2, 1, -0.1)])
# kappa 4 and 6 with corrections whose powers are not squares, so the
# one-orbit field goes through numpy's power ufunc
P4 = SaddleParams(1.0, 0.7, 1.3, 2.0, 4)
PERT4 = Perturbation.from_terms(
    px=[(1, 4, 0.1), (3, 2, -0.05), (0, 5, 0.02)], py=[(2, 3, -0.1), (5, 0, 0.03)]
)
P6 = SaddleParams(0.8, 1.1, 0.9, 1.7, 6)
PERT6 = Perturbation.from_terms(
    px=[(3, 4, 0.1), (7, 0, 0.01)], py=[(4, 3, -0.1), (0, 7, 0.05), (1, 6, 0.02)]
)
MC_CFG = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-10)  # the Monte Carlo route's
SECTION = Event(g=lambda z: z[:, 0] - RECT.zeta0, gdot=lambda z, fz: fz[:, 0])


def _ref_rk_step(f, z, fz, h):
    k = [fz]
    hc = h[:, None]
    for i in range(1, 6):
        zi = z + hc * np.einsum("j,jnd->nd", _A[i], np.array(k[:i]))
        k.append(f(zi))
    z_new = z + hc * np.einsum("j,jnd->nd", _A[6], np.array(k))
    f_new = f(z_new)
    k.append(f_new)
    err = hc * np.einsum("j,jnd->nd", _E, np.array(k))
    return z_new, err, f_new


def _ref_polish(f, event, z_a, f_a, z_b, h):
    g_a, g_b = event.g(z_a), event.g(z_b)

    def g_at(sig, i):
        z_s, _, f_s = _ref_rk_step(f, z_a[i], f_a[i], sig * h[i])
        return event.g(z_s), event.gdot(z_s, f_s) * h[i]

    sig = solve_increasing(g_at, np.zeros(len(h)), 1.0, g_a / (g_a - g_b), tol=1e-12)
    z_s, _, _ = _ref_rk_step(f, z_a, f_a, sig * h)
    return sig, z_s


def _ref_integrate(f, z0, *, cfg, t_end=None, event=None, censor=None, record=False):
    z = np.array(z0, dtype=float)
    n = z.shape[0]
    t = np.zeros(n)
    t_ev = np.full(n, np.nan)
    z_ev = np.full_like(z, np.nan)
    done = np.zeros(n, dtype=bool)
    fz = f(z)
    slack = 1e-9 * max(1.0, cfg.bbox)
    if event is not None:
        started_past = event.g(z) >= 0.0
        t_ev[started_past] = 0.0
        z_ev[started_past] = z[started_past]
        done |= started_past
    if t_end == 0.0:
        done[:] = True
    traj_t, traj_z = ([0.0], [z[0].copy()]) if record else (None, None)
    h = _initial_step(f, z, fz, cfg.rel_tol, cfg.abs_tol, cfg.max_step)
    steps = 0
    while not done.all():
        assert steps < cfg.max_steps
        steps += 1
        idx = np.flatnonzero(~done)
        za, fa, ha, ta = z[idx], fz[idx], h[idx], t[idx]
        cap = t_end if t_end is not None else censor
        if cap is not None:
            rem = cap - ta
            clamped = ha >= rem
            ha = np.where(clamped, rem, ha)
        else:
            clamped = np.zeros(len(idx), dtype=bool)
        z_new, err, f_new = _ref_rk_step(f, za, fa, ha)
        en = _error_norm(err, za, z_new, cfg.rel_tol, cfg.abs_tol)
        acc = en <= 1.0
        factor = np.clip(
            _SAFETY * np.where(en > 0, en, 1e-16) ** -0.2, _MIN_FACTOR, _MAX_FACTOR
        )
        h[idx] = np.where(acc & clamped, h[idx], np.minimum(ha * factor, cfg.max_step))
        if not acc.any():
            continue
        ai = idx[acc]
        za_acc, fa_acc, ha_acc = za[acc], fa[acc], ha[acc]
        zn_acc, fn_acc = z_new[acc], f_new[acc]
        assert not np.any((zn_acc < -slack) | (zn_acc > cfg.bbox))
        t[ai] = ta[acc] + ha_acc
        z[ai] = zn_acc
        fz[ai] = fn_acc
        if record:
            traj_t.append(t[0])
            traj_z.append(z[0].copy())
        if event is not None:
            crossed = event.g(zn_acc) >= 0.0
            if crossed.any():
                ci = ai[crossed]
                sig, z_c = _ref_polish(
                    f, event, za_acc[crossed], fa_acc[crossed],
                    zn_acc[crossed], ha_acc[crossed],
                )
                t_ev[ci] = ta[acc][crossed] + sig * ha_acc[crossed]
                z_ev[ci] = z_c
                done[ci] = True
                if record and done[0]:
                    traj_t[-1] = t_ev[0]
                    traj_z[-1] = z_ev[0].copy()
            if censor is not None:
                censored = ai[clamped[acc] & ~crossed]
                t_ev[censored] = np.inf
                done[censored] = True
        else:
            finished = ai[clamped[acc]]
            t[finished] = t_end
            done[finished] = True
    traj = (np.array(traj_t), np.array(traj_z)) if record else None
    return _rk45.IntegrationResult(
        t=t, z=z, t_event=t_ev, z_event=z_ev, n_steps=steps, traj=traj
    )


def _starts(n, seed, rect=RECT):
    rng = np.random.default_rng(seed)
    xi = np.exp(rng.uniform(np.log(1e-3 * rect.zeta0), np.log(0.9 * rect.zeta0), n))
    eta = rng.uniform(rect.eta0, rect.eta1, n)
    return np.column_stack([xi, eta])


def _assert_same(res, ref):
    for name in ("t", "z", "t_event", "z_event"):
        assert np.array_equal(getattr(res, name), getattr(ref, name), equal_nan=True), name
    assert res.n_steps == ref.n_steps
    if ref.traj is None:
        assert res.traj is None
    else:
        assert np.array_equal(res.traj[0], ref.traj[0])
        assert np.array_equal(res.traj[1], ref.traj[1])


def test_censored_perturbed_block_matches_reference():
    f = _field_closure(P2, PERT)
    z0 = _starts(4096, 7)
    kw = dict(event=SECTION, censor=2000.0, cfg=MC_CFG)
    res = integrate(f, z0, **kw)
    ref = _ref_integrate(f, z0, **kw)
    _assert_same(res, ref)
    # both outcomes occur, so both write-back paths are compared
    assert 0 < np.isinf(res.t_event).sum() < 4096


def test_recorded_t_end_run_matches_reference():
    f = _field_closure(P2, PERT)
    kw = dict(t_end=37.5, record=True, cfg=IntegratorConfig())
    z0 = np.array([[0.01, 0.4]])
    res = integrate(f, z0, **kw)
    _assert_same(res, _ref_integrate(f, z0, **kw))
    assert res.t[0] == 37.5 and len(res.traj[0]) == res.n_steps + 1


def test_recorded_diagonal_event_matches_reference():
    # the diagonal event of perturbed_first_integral, from above the diagonal
    f = _field_closure(P2, PERT)
    diagonal = Event(g=lambda z: z[:, 0] - z[:, 1], gdot=lambda z, fz: fz[:, 0] - fz[:, 1])
    kw = dict(event=diagonal, record=True, cfg=IntegratorConfig())
    z0 = np.array([[0.002, 0.45]])
    res = integrate(f, z0, **kw)
    _assert_same(res, _ref_integrate(f, z0, **kw))
    assert res.traj[0][-1] == res.t_event[0]
    assert np.array_equal(res.traj[1][-1], res.z_event[0])


def test_crossing_does_not_depend_on_its_batch():
    f = _field_closure(P2, PERT)
    z0 = _starts(256, 11)
    kw = dict(event=SECTION, cfg=MC_CFG)
    full = integrate(f, z0, **kw)
    assert np.all(np.isfinite(full.t_event))
    for pick in np.random.default_rng(2).permutation(256).reshape(64, 4):
        part = integrate(f, z0[pick], **kw)
        assert np.array_equal(part.t_event, full.t_event[pick])
        assert np.array_equal(part.z_event, full.z_event[pick])


@pytest.mark.parametrize(
    "t_end, rows",
    [
        pytest.param(0.0, [0, 1, 2], id="0.0"),
        pytest.param(1.5, [0, 1, 2], id="1.5"),
        # each start alone, in the one-orbit loop
        *(pytest.param(t, [i], id=f"{t}-orbit{i}") for t in (0.0, 1.5) for i in range(3)),
    ],
)
def test_started_past_and_zero_length_runs_match_reference(t_end, rows):
    f = _field_closure(P2, None)
    z0 = np.array([[0.5, 0.4], [0.1, 0.4], [RECT.zeta0, 0.4]])[rows]
    kw = dict(cfg=IntegratorConfig())
    _assert_same(integrate(f, z0, event=SECTION, **kw), _ref_integrate(f, z0, event=SECTION, **kw))
    _assert_same(integrate(f, z0, t_end=t_end, **kw), _ref_integrate(f, z0, t_end=t_end, **kw))


def test_censored_single_orbits_match_reference():
    f = _field_closure(P2, PERT)
    kw = dict(event=SECTION, censor=200.0, cfg=MC_CFG)
    censored = []
    for z0 in _starts(16, 7):
        res = integrate(f, z0[None], **kw)
        _assert_same(res, _ref_integrate(f, z0[None], **kw))
        censored.append(np.isinf(res.t_event[0]))
    assert 0 < sum(censored) < 16


def test_recorded_section_event_matches_reference():
    f = _field_closure(P2, PERT)
    section = _event(
        lambda z: z[:, 0] - RECT.zeta0, lambda x, y: x - RECT.zeta0, lambda z, fz: fz[:, 0]
    )
    kw = dict(event=section, record=True, cfg=IntegratorConfig())
    z0 = np.array([[0.01, 0.4]])
    res = integrate(f, z0, **kw)
    _assert_same(res, _ref_integrate(f, z0, **kw))
    assert res.traj[0][-1] == res.t_event[0]


def test_recorded_backward_flow_matches_reference():
    f = _field_closure(P2, PERT)
    kw = dict(t_end=1.25, record=True, cfg=IntegratorConfig())
    z0 = np.array([[0.2, 0.4]])
    ref = _ref_integrate(lambda z: -f(z), z0, **kw)
    _assert_same(integrate(_field_closure(P2, PERT, backward=True), z0, **kw), ref)
    end, traj = flow(P2, (0.2, 0.4), -1.25, pert=PERT, record=True)
    assert [end.x, end.y] == ref.z[0].tolist()
    assert np.array_equal(traj.states[::-1], ref.traj[1])


@pytest.mark.parametrize("p, pert", [(P4, PERT4), (P6, PERT6)], ids=["kappa4", "kappa6"])
def test_one_orbit_loop_matches_batched_loop(p, pert):
    f = _field_closure(p, pert)
    z0 = _starts(4, 3, make_rect(p))
    assert np.array_equal(f(z0), [f.one(x, y) for x, y in z0.tolist()])
    zeta0 = make_rect(p).zeta0
    section = _event(lambda z: z[:, 0] - zeta0, lambda x, y: x - zeta0, lambda z, fz: fz[:, 0])
    for mode in (dict(event=section), dict(t_end=2.0)):
        kw = dict(mode, cfg=IntegratorConfig())
        block = integrate(f, z0, **kw)
        for i in range(len(z0)):
            one = integrate(f, z0[i : i + 1], **kw)
            # two copies of one orbit take that orbit's steps in the numpy loop
            pair = integrate(f, z0[[i, i]], **kw)
            assert one.n_steps == pair.n_steps
            for name in ("t", "z", "t_event", "z_event"):
                got, want = getattr(one, name)[0], getattr(block, name)[i]
                assert np.array_equal(got, want, equal_nan=True), (mode, i, name)


@pytest.mark.parametrize(
    "p, pert, z0, bbox, error",
    [
        (P2, None, (0.9, 0.0), 8.0, LeftDomain),
        # the field overflows long before the box is left
        (P6, PERT6, (1e42, 1e41), 1e300, SaddleTailError),
    ],
    ids=["leaves_box", "overflows"],
)
def test_both_loops_fail_alike(p, pert, z0, bbox, error):
    f = _field_closure(p, pert)
    kw = dict(t_end=2.0, cfg=IntegratorConfig(rel_tol=1e-7, abs_tol=1e-10, max_steps=300, bbox=bbox))
    raised = []
    for block in (np.array([z0]), np.array([z0, z0])):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error) as exc:
            integrate(f, block, **kw)
        raised.append((type(exc.value), str(exc.value)))
    assert raised[0] == raised[1]
