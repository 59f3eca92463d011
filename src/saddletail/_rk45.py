"""Embedded Dormand-Prince 5(4) stepper, vectorised over a batch of orbits.

Every orbit in the batch carries its own clock and step size; one loop
iteration advances all still-active orbits by one attempted step.  The
autonomous right-hand side is evaluated on (n, 2) arrays, so a batch of
one is just the scalar case.

Event detection assumes the event function increases through zero along
the orbit (true for both uses in this package: section crossings x = zeta0
and diagonal crossings).  A crossing inside an accepted step is located by
the package's safeguarded Newton solver on the event function of the
re-integrated partial step, so the reported crossing time is accurate to
the integrator tolerance rather than to an interpolant's.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import solve_increasing
from .errors import LeftDomain, StepLimitExceeded

__all__ = ["Event", "IntegrationResult", "integrate"]

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

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


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


def _rk_step(f, z, fz, h):
    """One 5th order step of size h from z; returns (z_new, err, f_new)."""
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


def _polish_crossing(f, event, z_a, f_a, z_b, h):
    """Locate sig in [0, 1] with g(orbit(sig*h)) = 0 to integrator accuracy.

    The orbit at sig*h is the partial RK step from z_a, so the root is the
    crossing of the integrated solution rather than of an interpolant.
    Newton starts from the linear estimate between g(z_a) < 0 <= g(z_b).
    """
    g_a, g_b = event.g(z_a), event.g(z_b)

    def g_at(sig, i):
        z_s, _, f_s = _rk_step(f, z_a[i], f_a[i], sig * h[i])
        return event.g(z_s), event.gdot(z_s, f_s) * h[i]

    sig = solve_increasing(g_at, np.zeros(len(h)), 1.0, g_a / (g_a - g_b), tol=1e-12)
    z_s, _, _ = _rk_step(f, z_a, f_a, sig * h)
    return sig, z_s


def integrate(
    f,
    z0: np.ndarray,
    *,
    rtol: float,
    atol: float,
    max_step: float,
    max_steps: int,
    bbox: float,
    t_end: float | None = None,
    event: Event | None = None,
    censor: float | None = None,
    record: bool = False,
) -> IntegrationResult:
    """March the whole batch until everyone is finished.

    Exactly one of t_end / event decides completion; censor caps the clock
    in event mode (censored orbits get t_event = +inf).  record keeps the
    accepted-step history and is restricted to single-orbit batches.
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
    slack = 1e-9 * max(1.0, bbox)

    if event is not None:
        g0 = event.g(z)
        started_past = g0 >= 0.0
        t_ev[started_past] = 0.0
        z_ev[started_past] = z[started_past]
        done |= started_past
    if t_end == 0.0:
        done[:] = True

    traj_t, traj_z = ([0.0], [z[0].copy()]) if record else (None, None)
    h = _initial_step(f, z, fz, rtol, atol, max_step)

    steps = 0
    while not done.all():
        if steps >= max_steps:
            raise StepLimitExceeded(f"max_steps = {max_steps} reached")
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
        if np.any(ha < 1e-14 * np.maximum(1.0, np.abs(ta)) + 1e-300):
            raise StepLimitExceeded("step size underflow")

        z_new, err, f_new = _rk_step(f, za, fa, ha)
        en = _error_norm(err, za, z_new, rtol, atol)
        acc = en <= 1.0

        factor = np.clip(
            _SAFETY * np.where(en > 0, en, 1e-16) ** -0.2, _MIN_FACTOR, _MAX_FACTOR
        )
        # do not let a clamped (shortened) step shrink the working step size
        h[idx] = np.where(
            acc & clamped, h[idx], np.minimum(ha * factor, max_step)
        )

        if not acc.any():
            continue
        ai = idx[acc]
        za_acc, fa_acc, ha_acc = za[acc], fa[acc], ha[acc]
        zn_acc, fn_acc = z_new[acc], f_new[acc]

        if np.any((zn_acc < -slack) | (zn_acc > bbox)):
            bad = ai[np.any((zn_acc < -slack) | (zn_acc > bbox), axis=1)][0]
            raise LeftDomain(f"orbit {bad} left [0, {bbox}]^2 near t = {t[bad]:.6g}")

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
                sig, z_c = _polish_crossing(
                    f, event,
                    za_acc[crossed], fa_acc[crossed],
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

    traj = None
    if record:
        traj = (np.array(traj_t), np.array(traj_z))
    return IntegrationResult(
        t=t, z=z, t_event=t_ev, z_event=z_ev, n_steps=steps, traj=traj
    )
