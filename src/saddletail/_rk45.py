"""Embedded Dormand-Prince 5(4) stepper for one orbit or a batch of orbits.

Every orbit carries its own clock and step size.  A batch of several
orbits is marched with numpy: one loop iteration advances all still-active
orbits by one attempted step, and the autonomous right-hand side is
evaluated on (n, 2) arrays.  A batch of exactly one orbit runs its own loop
on Python floats instead, because numpy's per-call cost on one-element
arrays would be nearly all of its time.  That loop does the batched loop's
arithmetic in the same order: stage sums added left to right from 0.0,
which is how einsum accumulates them, and the step factor's power through
numpy's power ufunc.  Its results are bit for bit the batched ones
(tests/test_rk45.py checks this; it rests on einsum not fusing multiply
and add, which holds for numpy's x86-64 builds).  It calls f.one(x, y) ->
(dx/dt, dy/dt) and event.g.one(x, y) -> g where those callables carry
such a one-orbit form (field._field_closure builds one from the same term
table as the batch form), and f or g on a (1, 2) block otherwise.

In the batched loop the active orbits live in contiguous arrays of their
own, next to their original indices; an orbit is written back to the result
and dropped only on the iteration where it finishes.  The seven stages
share one preallocated buffer per call.

Event detection assumes the event function increases through zero along
the orbit (true for both uses in this package: section crossings x = zeta0
and diagonal crossings).  A crossing inside an accepted step is located by
the package's safeguarded Newton solver on the event function of the
re-integrated partial step, so the reported crossing time is accurate to
the integrator tolerance rather than to an interpolant's.  The crossing
steps are kept and polished in one solve after the loop; both loops share
that solve.

Each orbit's arithmetic does not depend on the rest of the batch, so the
results are bit for bit those of gathering, stepping and polishing the
active orbits afresh on every iteration (tests/test_rk45.py keeps that
design as its reference).

IntegratorConfig is the one source of the tolerances and guards: both loops
read them from the cfg that integrate is given.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import solve_increasing
from .errors import InvalidInput, LeftDomain, StepLimitExceeded

__all__ = ["Event", "IntegratorConfig", "IntegrationResult", "integrate"]

# Dormand-Prince coefficients.  Row 7 of the A matrix equals the 5th order
# weights (first-same-as-last), so stage 7 is the derivative at the new point.
_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = _B5 - _B4
# the same rows as Python floats, for the one-orbit loop
_A_ROWS = tuple(tuple(map(float, row)) for row in _A[1:])
_E_ROW = tuple(map(float, _E))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and guards for the adaptive integrator."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_step: float = 1e9
    max_steps: int = 1_000_000
    bbox: float = 8.0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            val = getattr(self, name)
            if not (1e-15 <= val <= 1e-3):
                raise InvalidInput(f"{name} must lie in [1e-15, 1e-3], got {val}")
        # written as not (x > 0) so that NaN fails them too
        if not (self.max_step > 0.0):
            raise InvalidInput("max_step must be positive")
        steps = self.max_steps
        if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
            raise InvalidInput("max_steps must be an integer of at least 1")
        if not (self.bbox > 0.0):
            raise InvalidInput("bbox must be positive")


@dataclass(frozen=True)
class Event:
    """Zero crossing g(z) = 0 approached from below.

    gdot(z, f(z)) must return the orbital derivative of g; it is only used
    to polish already-bracketed crossings.
    """

    g: Callable[[np.ndarray], np.ndarray]
    gdot: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class IntegrationResult:
    t: np.ndarray            # final clock per orbit
    z: np.ndarray            # final state per orbit
    t_event: np.ndarray      # crossing time, +inf censored, nan if no event mode
    z_event: np.ndarray
    n_steps: int
    traj: tuple[np.ndarray, np.ndarray] | None  # (t, states), single orbit only


def _rk_step(f, z, fz, h, k):
    """One 5th order step of size h from z; returns (z_new, err, f_new).

    k is a (7, n, 2) stage buffer.  Every stage sum is one einsum over the
    stages already in k, so it adds the same products in the same order as
    over freshly stacked stages.
    """
    hc = h[:, None]
    s = np.empty_like(z)
    k[0] = fz
    for i in range(1, 6):
        np.einsum("j,jnd->nd", _A[i], k[:i], out=s)
        np.multiply(hc, s, out=s)
        k[i] = f(np.add(z, s, out=s))
    np.einsum("j,jnd->nd", _A[6], k[:6], out=s)
    z_new = z + hc * s
    f_new = f(z_new)
    k[6] = f_new
    np.einsum("j,jnd->nd", _E, k, out=s)
    return z_new, np.multiply(hc, s, out=s), f_new


def _error_norm(err, z, z_new, rtol, atol):
    sc = atol + rtol * np.maximum(np.abs(z), np.abs(z_new))
    return np.sqrt(np.mean((err / sc) ** 2, axis=1))


def _initial_step(f, z, fz, rtol, atol, max_step):
    sc = atol + rtol * np.abs(z)
    d0 = np.sqrt(np.mean((z / sc) ** 2, axis=1))
    d1 = np.sqrt(np.mean((fz / sc) ** 2, axis=1))
    small = (d1 < 1e-300) | (d0 < 1e-300)
    h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(d1 > 0, d1, 1.0))
    z1 = z + h0[:, None] * fz
    d2 = np.sqrt(np.mean(((f(z1) - fz) / sc) ** 2, axis=1)) / h0
    dm = np.maximum(d1, d2)
    h1 = np.where(dm > 1e-300, (0.01 / np.maximum(dm, 1e-300)) ** 0.2, 1e3 * h0)
    return np.minimum(np.minimum(100 * h0, h1), max_step)


def _polish_crossing(f, event, z_a, f_a, z_b, h, k):
    """Locate sig in [0, 1] with g(orbit(sig*h)) = 0 to integrator accuracy.

    The orbit at sig*h is the partial RK step from z_a, so the root is the
    crossing of the integrated solution rather than of an interpolant.
    Newton starts from the linear estimate between g(z_a) < 0 <= g(z_b).
    k is a stage buffer with at least len(h) rows.
    """
    g_a, g_b = event.g(z_a), event.g(z_b)

    def g_at(sig, i):
        z_s, _, f_s = _rk_step(f, z_a[i], f_a[i], sig * h[i], k[:, : i.size])
        return event.g(z_s), event.gdot(z_s, f_s) * h[i]

    sig = solve_increasing(g_at, np.zeros(len(h)), 1.0, g_a / (g_a - g_b), tol=1e-12)
    z_s, _, _ = _rk_step(f, z_a, f_a, sig * h, k[:, : h.size])
    return sig, z_s


def _one_form(fn):
    """fn's one-orbit form on Python floats, else fn on a (1, 2) block."""
    return getattr(fn, "one", None) or (lambda x, y: fn(np.array([[x, y]]))[0])


def _step_one(f1, x, y, fx, fy, h):
    """_rk_step for one orbit; returns (x1, y1, err_x, err_y, fx1, fy1).

    Every stage sum adds its products left to right from 0.0, zero
    coefficients included, as the einsum in _rk_step does.
    """
    kx, ky = [fx], [fy]
    for row in _A_ROWS:
        sx = sy = 0.0
        for a, u, v in zip(row, kx, ky):
            sx += a * u
            sy += a * v
        x1, y1 = x + h * sx, y + h * sy
        u, v = f1(x1, y1)
        kx.append(u)
        ky.append(v)
    ex = ey = 0.0
    for e, u, v in zip(_E_ROW, kx, ky):
        ex += e * u
        ey += e * v
    return x1, y1, h * ex, h * ey, kx[6], ky[6]


def _march_one(f, event, z, fz, h, t_out, t_ev, z_ev, *, done, cap, record, cfg, slack):
    """integrate's loop for a batch of one orbit, on Python floats.

    Fills t_out, z, t_ev and z_ev in place and returns (steps, traj).  Each
    line does what the batched loop does to a one-element array, in the
    same order, and keeps numpy's handling of nan: np.maximum and
    np.minimum return it, so the builtins get the operand that can be nan
    first (the new state is nan whenever the old one is), and nan > 0 is
    false.  In event mode cap is the censoring time, so a clamped step that
    does not cross is censored.
    """
    # locals, since the loop reads them on every step
    rtol, atol, max_step, max_steps, bbox = (
        cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.max_steps, cfg.bbox
    )
    f1 = _one_form(f)
    g1 = _one_form(event.g) if event is not None else None
    x, y = float(z[0, 0]), float(z[0, 1])
    fx, fy = float(fz[0, 0]), float(fz[0, 1])
    t = 0.0
    traj_t, traj_z = [t], [(x, y)]
    crossing = None
    steps = 0
    while not done:
        if steps >= max_steps:
            raise StepLimitExceeded(f"max_steps = {max_steps} reached")
        steps += 1

        clamped = cap is not None and h >= cap - t
        hs = cap - t if clamped else h
        if hs < 1e-14 * max(1.0, abs(t)) + 1e-300:
            raise StepLimitExceeded("step size underflow")

        x1, y1, ex, ey, fx1, fy1 = _step_one(f1, x, y, fx, fy, hs)
        qx = ex / (atol + rtol * max(abs(x1), abs(x)))
        qy = ey / (atol + rtol * max(abs(y1), abs(y)))
        en = math.sqrt((qx * qx + qy * qy) / 2.0)
        acc = en <= 1.0

        factor = _SAFETY * float(np.power(en if en > 0.0 else 1e-16, -0.2))
        factor = min(max(factor, _MIN_FACTOR), _MAX_FACTOR)
        if not (acc and clamped):
            h = min(hs * factor, max_step)

        if not acc:
            continue
        if x1 < -slack or x1 > bbox or y1 < -slack or y1 > bbox:
            raise LeftDomain(f"orbit 0 left [0, {bbox}]^2 near t = {t:.6g}")
        t1 = t + hs
        if record:
            traj_t.append(t1)
            traj_z.append((x1, y1))

        if event is not None:
            if g1(x1, y1) >= 0.0:
                crossing = (x, y, fx, fy, hs, t)
                done = True
            elif clamped:
                t_ev[0] = np.inf
                done = True
        else:
            done = clamped
        x, y, fx, fy, t = x1, y1, fx1, fy1, t1
    if steps:
        t_out[0] = t if event is not None else cap
        z[0] = x, y

    traj = (np.array(traj_t), np.array(traj_z)) if record else None
    if crossing is not None:
        xa, ya, fxa, fya, ha, ta = crossing
        sig, z_c = _polish_crossing(
            f, event, np.array([[xa, ya]]), np.array([[fxa, fya]]), z,
            np.array([ha]), np.empty((7, 1, 2)),
        )
        t_ev[0] = ta + float(sig[0]) * ha
        z_ev[0] = z_c[0]
        if record:
            traj[0][-1], traj[1][-1] = t_ev[0], z_ev[0]
    return steps, traj


def integrate(
    f,
    z0: np.ndarray,
    *,
    cfg: IntegratorConfig,
    t_end: float | None = None,
    event: Event | None = None,
    censor: float | None = None,
    record: bool = False,
) -> IntegrationResult:
    """March the whole batch until everyone is finished.

    cfg gives the tolerances, the step limits and the bounding box.
    Exactly one of t_end / event decides completion; censor caps the clock
    in event mode (censored orbits get t_event = +inf).  record keeps the
    accepted-step history and is restricted to single-orbit batches, which
    run the one-orbit loop.
    """
    if (t_end is None) == (event is None):
        raise ValueError("need exactly one of t_end or event")
    z = np.array(z0, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2:
        raise ValueError("z0 must have shape (n, 2)")
    n = z.shape[0]
    if record and n != 1:
        raise ValueError("trajectory recording only supported for one orbit")
    if t_end is not None and t_end < 0:
        raise ValueError("integrate runs forward; callers flip the field sign")

    t = np.zeros(n)
    t_ev = np.full(n, np.nan)
    z_ev = np.full_like(z, np.nan)
    done = np.zeros(n, dtype=bool)
    fz = f(z)
    slack = 1e-9 * max(1.0, cfg.bbox)

    if event is not None:
        g0 = event.g(z)
        started_past = g0 >= 0.0
        t_ev[started_past] = 0.0
        z_ev[started_past] = z[started_past]
        done |= started_past
    if t_end == 0.0:
        done[:] = True

    h = _initial_step(f, z, fz, cfg.rel_tol, cfg.abs_tol, cfg.max_step)
    cap = t_end if t_end is not None else censor
    if n == 1:
        steps, traj = _march_one(
            f, event, z, fz, float(h[0]), t, t_ev, z_ev, done=bool(done[0]),
            cap=cap, record=record, cfg=cfg, slack=slack,
        )
        return IntegrationResult(
            t=t, z=z, t_event=t_ev, z_event=z_ev, n_steps=steps, traj=traj
        )

    # the still-active orbits, contiguous: original index, state, derivative,
    # working step size and clock; finished orbits are written back to
    # t and z and dropped only on the iterations where some orbit finishes
    idx = np.flatnonzero(~done)
    za, fa, ha, ta = z[idx], fz[idx], h[idx], t[idx]
    k = np.empty((7,) + za.shape)
    # the crossing step of each orbit that crossed, polished after the loop:
    # start state, derivative, step and clock; its end state is the orbit's
    # final state in z.  Allocated once up front: chunks appended inside the
    # loop would outlive its temporaries and fragment the heap (peak RSS
    # was ~5 MB higher at 32768 orbits)
    crossed_at = np.zeros(n, dtype=bool)
    z_a, f_a, h_a, t_a = np.empty_like(z), np.empty_like(z), np.empty(n), np.empty(n)

    steps = 0
    while idx.size:
        if steps >= cfg.max_steps:
            raise StepLimitExceeded(f"max_steps = {cfg.max_steps} reached")
        steps += 1

        if cap is not None:
            rem = cap - ta
            clamped = ha >= rem
            hs = np.where(clamped, rem, ha)
        else:
            clamped = np.zeros(idx.size, dtype=bool)
            hs = ha
        if np.any(hs < 1e-14 * np.maximum(1.0, np.abs(ta)) + 1e-300):
            raise StepLimitExceeded("step size underflow")

        z1, err, f1 = _rk_step(f, za, fa, hs, k[:, : idx.size])
        en = _error_norm(err, za, z1, cfg.rel_tol, cfg.abs_tol)
        acc = en <= 1.0

        factor = np.clip(
            _SAFETY * np.where(en > 0, en, 1e-16) ** -0.2, _MIN_FACTOR, _MAX_FACTOR
        )
        # do not let a clamped (shortened) step shrink the working step size
        ha = np.where(acc & clamped, ha, np.minimum(hs * factor, cfg.max_step))

        if not acc.any():
            continue
        out = acc & np.any((z1 < -slack) | (z1 > cfg.bbox), axis=1)
        if out.any():
            bad = np.flatnonzero(out)[0]
            raise LeftDomain(
                f"orbit {idx[bad]} left [0, {cfg.bbox}]^2 near t = {ta[bad]:.6g}"
            )
        t1 = ta + hs
        if not acc.all():
            t1 = np.where(acc, t1, ta)
            z1 = np.where(acc[:, None], z1, za)
            f1 = np.where(acc[:, None], f1, fa)

        if event is not None:
            crossed = acc & (event.g(z1) >= 0.0)
            fin = crossed
            if censor is not None:
                censored = acc & clamped & ~crossed
                t_ev[idx[censored]] = np.inf
                fin = crossed | censored
            if crossed.any():
                ci = idx[crossed]
                crossed_at[ci] = True
                z_a[ci], f_a[ci] = za[crossed], fa[crossed]
                h_a[ci], t_a[ci] = hs[crossed], ta[crossed]
        else:
            fin = acc & clamped
        if fin.any():
            t[idx[fin]] = t1[fin] if event is not None else t_end
            z[idx[fin]] = z1[fin]
            keep = ~fin
            idx, z1, f1, ha, t1 = idx[keep], z1[keep], f1[keep], ha[keep], t1[keep]
        za, fa, ta = z1, f1, t1

    if crossed_at.any():
        # one solve for every crossing; each root is frozen on its own, so
        # it does not depend on which other crossings share the batch
        ci = np.flatnonzero(crossed_at)
        sig, z_c = _polish_crossing(f, event, z_a[ci], f_a[ci], z[ci], h_a[ci], k)
        t_ev[ci] = t_a[ci] + sig * h_a[ci]
        z_ev[ci] = z_c

    return IntegrationResult(
        t=t, z=z, t_event=t_ev, z_event=z_ev, n_steps=steps, traj=None
    )
