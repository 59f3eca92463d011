"""Planar saddle flow: field evaluation, time-t maps, passage times.

The vector field on the closed positive quadrant is

    dx/dt =  x * (a0*x^kappa + a2*y^kappa + px(x, y))
    dy/dt = -y * (b0*x^kappa + b2*y^kappa + py(x, y))

with optional homogeneous corrections px, py of degree kappa + 1 inside the
brackets.  Since the bracket already carries the degree-kappa terms, px and
py are one order down from them: they bend orbits near the saddle without
moving the tail exponent, and the overall x and y factors keep both axes
invariant exactly.  The axes are invariant and motion along them has the
closed form x(t) = (x0^-kappa - kappa*a0*t)^(-1/kappa) (unstable side) and
y(t) = (kappa*b2*t + y0^-kappa)^(-1/kappa) (stable side); those are used by
the tests as exact references, not by the code here.

Passage times to the section x = zeta0 come in two flavours: exit_time_flow
integrates the field and locates the section crossing by event polishing,
exit_time_quadrature evaluates the reduced one-dimensional integral.  The
two must agree to integrator tolerance; keeping both routes independent is
the point, so neither calls the other.

Every integration (flow, perturbed_first_integral and the exit-time batch)
goes through _march: it checks the perturbation and the starts, builds the
field, negated for backward runs, and calls _rk45.integrate with one
IntegratorConfig, the default one unless the caller gives its own.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import _rk45
from ._reduction import kernel_for
from ._rk45 import IntegratorConfig
from .errors import DiagonalNotReached, InvalidInput, LeftDomain, StepLimitExceeded
from .params import SaddleParams, derive_constants

__all__ = [
    "PhaseState",
    "Perturbation",
    "Trajectory",
    "eval_field",
    "flow",
    "time_one_map",
    "axis_coefficient_probe",
    "first_integral",
    "perturbed_first_integral",
    "omega_of_xi",
    "compute_G",
    "exit_time_quadrature",
    "exit_time_flow",
]


@dataclass(frozen=True)
class PhaseState:
    """A point of the closed positive quadrant."""

    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class Perturbation:
    """Homogeneous degree-(kappa+1) correction to the bracket of each component.

    Terms are (i, j, coeff) triples meaning coeff * x^i * y^j added inside
    the bracket, so the field component picks up x * term (respectively
    -y * term).  Kept sorted so instances hash and compare structurally.
    Build from mappings with from_terms; validate_for checks every term has
    total degree kappa + 1.
    """

    px: tuple[tuple[int, int, float], ...] = ()
    py: tuple[tuple[int, int, float], ...] = ()

    @classmethod
    def from_terms(cls, px=None, py=None) -> "Perturbation":
        def norm(terms):
            if not terms:
                return ()
            if hasattr(terms, "items"):
                items = [(int(i), int(j), float(c)) for (i, j), c in terms.items()]
            else:
                items = [(int(i), int(j), float(c)) for i, j, c in terms]
            items = [(i, j, c) for i, j, c in items if c != 0.0]
            return tuple(sorted(items))

        return cls(px=norm(px), py=norm(py))

    @property
    def is_zero(self) -> bool:
        return not self.px and not self.py

    def validate_for(self, kappa: int) -> None:
        deg = kappa + 1
        for name, terms in (("px", self.px), ("py", self.py)):
            for i, j, c in terms:
                if i < 0 or j < 0:
                    raise InvalidInput(f"{name} term ({i},{j}) has a negative exponent")
                if i + j != deg:
                    raise InvalidInput(
                        f"{name} term ({i},{j}) has degree {i + j}, expected {deg}"
                    )
                if not math.isfinite(c):
                    raise InvalidInput(f"{name} coefficient for ({i},{j}) is not finite")


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration states with ascending times."""

    t: np.ndarray
    states: np.ndarray  # shape (n, 2)

    def __len__(self) -> int:
        return len(self.t)


_DEFAULT_CFG = IntegratorConfig()


def _power(v: float, e: int) -> float:
    """v**e for one coordinate, bit for bit numpy's v**e on an array.

    numpy squares an array for **2; every other power goes through its
    power ufunc, whose SIMD loops can differ from libm's pow in the last bit.
    """
    return v * v if e == 2 else float(np.power(v, e))


def _field_closure(p: SaddleParams, pert: Perturbation | None, backward: bool = False):
    """Right-hand side on (n, 2) state blocks, with its one-orbit form.

    The returned f carries f.one(x, y) -> (dx/dt, dy/dt) on Python floats,
    for _rk45's one-orbit loop.  Both forms run the same formula, which
    raises x and y to each distinct power once per call, so they agree bit
    for bit.  backward=True negates both components, exactly, for runs
    in negative time.
    """
    a0, a2, b0, b2 = float(p.a0), float(p.a2), float(p.b0), float(p.b2)
    k = p.kappa
    # (coefficient, power of x, power of y) of each correction term:
    # x * term is added to dx/dt and y * term subtracted from dy/dt
    terms_x = [(c, i + 1, j) for i, j, c in (pert.px if pert is not None else ())]
    terms_y = [(c, i, j + 1) for i, j, c in (pert.py if pert is not None else ())]
    exps_x = sorted({k, *(i for _, i, _ in terms_x + terms_y)})
    exps_y = sorted({k, *(j for _, _, j in terms_x + terms_y)})

    def rhs(x, y, power):
        xp, yp = {}, {}
        for e in exps_x:
            xp[e] = power(x, e)
        for e in exps_y:
            yp[e] = power(y, e)
        u = x * (a0 * xp[k] + a2 * yp[k])
        v = -y * (b0 * xp[k] + b2 * yp[k])
        for c, i, j in terms_x:
            u += c * xp[i] * yp[j]
        for c, i, j in terms_y:
            v -= c * xp[i] * yp[j]
        return (-u, -v) if backward else (u, v)

    def f(z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        out[:, 0], out[:, 1] = rhs(z[:, 0], z[:, 1], operator.pow)
        return out

    f.one = lambda x, y: rhs(x, y, _power)
    return f


def _event(g, g_one, gdot) -> _rk45.Event:
    """An _rk45.Event whose g carries its one-orbit form g_one(x, y)."""
    g.one = g_one
    return _rk45.Event(g=g, gdot=gdot)


def _as_block(z) -> tuple[np.ndarray, bool]:
    """Coerce a state (PhaseState, pair, or (n,2) array) to an (n,2) block."""
    if isinstance(z, PhaseState):
        return z.as_array()[None, :], True
    arr = np.asarray(z, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (2,):
            raise InvalidInput("a state must have exactly two coordinates")
        return arr[None, :].copy(), True
    if arr.ndim == 2 and arr.shape[1] == 2:
        return arr.copy(), False
    raise InvalidInput("states must be a pair or an (n, 2) array")


def eval_field(p: SaddleParams, z, pert: Perturbation | None = None):
    """Right-hand side at z; accepts a single state or an (n, 2) block."""
    if pert is not None:
        pert.validate_for(p.kappa)
    block, single = _as_block(z)
    out = _field_closure(p, pert)(block)
    return PhaseState(float(out[0, 0]), float(out[0, 1])) if single else out


def _validate(p, pert, cfg, block: np.ndarray) -> IntegratorConfig:
    """Check an integration's perturbation and starts; returns cfg or the default."""
    cfg = cfg or _DEFAULT_CFG
    if pert is not None:
        pert.validate_for(p.kappa)
    if not np.isfinite(block).all():
        raise InvalidInput("initial states must be finite")
    if np.any(block < 0.0):
        raise InvalidInput("initial states must lie in the closed positive quadrant")
    if np.any(block > cfg.bbox):
        raise InvalidInput(f"initial states must lie within [0, {cfg.bbox}]^2")
    return cfg


def _march(p, pert, cfg, block: np.ndarray, *, backward=False, **mode):
    """Integrate the field from the (n, 2) block of starts, after _validate.

    mode is t_end, event, censor and record, as _rk45.integrate takes them;
    backward=True runs the sign-flipped field.
    """
    cfg = _validate(p, pert, cfg, block)
    return _rk45.integrate(_field_closure(p, pert, backward), block, cfg=cfg, **mode)


def flow(
    p: SaddleParams,
    z0,
    t: float,
    *,
    pert: Perturbation | None = None,
    cfg: IntegratorConfig | None = None,
    record: bool = False,
):
    """Time-t map of the (possibly perturbed) field, t of either sign.

    Returns the final state; with record=True returns (state, Trajectory)
    and requires a single initial state.  Backward runs integrate the
    sign-flipped field and report trajectory times ascending from t to 0.
    """
    block, single = _as_block(z0)
    if record and not single:
        raise InvalidInput("record=True needs a single initial state")
    t = float(t)
    if not math.isfinite(t):
        raise InvalidInput(f"flow time must be finite, got {t}")
    res = _march(p, pert, cfg, block, backward=t < 0.0, t_end=abs(t), record=record)
    out = res.z
    final = PhaseState(float(out[0, 0]), float(out[0, 1])) if single else out
    if record:
        tau, states = res.traj
        if t < 0.0:
            tau, states = -tau[::-1], states[::-1]
        return final, Trajectory(np.asarray(tau), np.asarray(states))
    return final


def time_one_map(
    p: SaddleParams,
    z,
    *,
    pert: Perturbation | None = None,
    cfg: IntegratorConfig | None = None,
):
    """One step of the time-1 map; accepts single states or (n, 2) blocks."""
    return flow(p, z, 1.0, pert=pert, cfg=cfg)


def axis_coefficient_probe(
    p: SaddleParams, x0: float, cfg: IntegratorConfig | None = None
) -> float:
    """Estimate a0 from the time-1 map on the unstable axis.

    For small x0 the relative displacement divided by x0^kappa tends to a0;
    useful as an independent check that the integrated field matches the
    coefficients it was built from.
    """
    if not 0.0 < x0:
        raise InvalidInput("probe abscissa must be positive")
    z1 = flow(p, (float(x0), 0.0), 1.0, cfg=cfg)
    return (z1.x / x0 - 1.0) / x0**p.kappa


def first_integral(p: SaddleParams, x, y):
    """Conserved level of the unperturbed flow; zero on the axes.

    For delta > 0 this is x^u y^v (a0/v x^k + b2/u y^k); for delta < 0 the
    exponents and the bracket are inverted, which keeps the level finite
    and single-signed on the open quadrant.  Vectorised; scalars in,
    scalar out.
    """
    d = derive_constants(p)
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    scalar = xa.ndim == 0 and ya.ndim == 0
    xa, ya = np.atleast_1d(xa), np.atleast_1d(ya)
    xk = xa**p.kappa
    yk = ya**p.kappa
    core = (p.a0 / d.v) * xk + (p.b2 / d.u) * yk
    with np.errstate(divide="ignore", invalid="ignore"):
        if d.delta > 0:
            val = xa**d.u * ya**d.v * core
        else:
            val = xa ** (-d.u) * ya ** (-d.v) / core
    val = np.where((xa == 0.0) | (ya == 0.0), 0.0, val)
    return float(val[0]) if scalar else val


def perturbed_first_integral(
    p: SaddleParams,
    pert: Perturbation | None,
    z,
    cfg: IntegratorConfig | None = None,
) -> float:
    """Level of the diagonal point on the perturbed orbit through z.

    The orbit is flowed (forward when y > x, backward when y < x) until it
    crosses the diagonal x = y; the unperturbed level there tags the orbit.
    For the zero perturbation this equals first_integral(p, x, y) up to
    integrator tolerance.  Raises DiagonalNotReached when the orbit leaves
    the domain or exhausts the step budget first.
    """
    block, single = _as_block(z)
    if not single:
        raise InvalidInput("perturbed_first_integral takes a single state")
    _validate(p, pert, cfg, block)
    x0, y0 = float(block[0, 0]), float(block[0, 1])
    if x0 == 0.0 or y0 == 0.0:
        return 0.0

    # a start on the diagonal is past the event already, so its level is
    # that of the start itself
    backward = x0 > y0
    sign = -1.0 if backward else 1.0
    event = _event(
        lambda zz: sign * (zz[:, 0] - zz[:, 1]),
        lambda x, y: sign * (x - y),
        lambda zz, fz: sign * (fz[:, 0] - fz[:, 1]),
    )
    try:
        res = _march(p, pert, cfg, block, backward=backward, event=event)
    except (StepLimitExceeded, LeftDomain) as exc:
        raise DiagonalNotReached(
            f"orbit through ({x0}, {y0}) did not cross the diagonal: {exc}"
        ) from exc
    xe, ye = res.z_event[0]
    mid = 0.5 * (float(xe) + float(ye))
    return float(first_integral(p, mid, mid))


def omega_of_xi(p: SaddleParams, xi: float, eta: float, zeta0: float) -> float:
    """Exit height on x = zeta0 of the orbit entering at (xi, eta).

    Raises BracketFailure if it lies below the smallest normal double.
    """
    _check_section_args(xi, eta, zeta0)
    return float(kernel_for(p).exit_time(xi, eta, zeta0, with_omega=True)[1][0])


def compute_G(p: SaddleParams, xi, eta):
    """Level-dependent normaliser of the reduced time integral."""
    xa = np.asarray(xi, dtype=float)
    ya = np.asarray(eta, dtype=float)
    val = np.exp(kernel_for(p)._ln_g(np.log(xa), np.log(ya)))
    return float(val) if val.ndim == 0 else val


def _check_section_args(xi: float, eta: float, zeta0: float) -> None:
    if not 0.0 < zeta0 < math.inf:
        raise InvalidInput("section abscissa zeta0 must be finite and positive")
    if not 0.0 < xi <= zeta0:
        raise InvalidInput("entry abscissa must satisfy 0 < xi <= zeta0")
    if not 0.0 < eta < math.inf:
        raise InvalidInput("entry height must be finite and positive")


def exit_time_quadrature(p: SaddleParams, xi: float, eta: float, zeta0: float) -> float:
    """Passage time to x = zeta0 via the reduced integral, adaptively.

    Solves for the exit height, then integrates the reduced density in
    s = ln(slope) between the entry and exit slopes with an adaptive rule.
    Exact zero when xi == zeta0.
    """
    _check_section_args(xi, eta, zeta0)
    if xi == zeta0:
        return 0.0
    ker = kernel_for(p)
    lx, ly, lz = math.log(xi), math.log(eta), math.log(zeta0)
    lw = float(ker.omega_log(ker.level_log(lx, ly), lz)[0])
    s_a = lw - lz
    s_b = ly - lx
    val, _ = quad(
        lambda s: float(ker.phi_s(np.float64(s))),
        s_a,
        s_b,
        epsabs=0.0,
        epsrel=1e-12,
        limit=500,
    )
    return val / float(compute_G(p, xi, eta))


def exit_time_flow(
    p: SaddleParams,
    xi: float,
    eta: float,
    zeta0: float,
    *,
    pert: Perturbation | None = None,
    cfg: IntegratorConfig | None = None,
) -> float:
    """Passage time to x = zeta0 by integrating the field to the crossing."""
    _check_section_args(xi, eta, zeta0)
    T = _exit_times_batch(p, np.array([xi]), np.array([eta]), zeta0, pert=pert, cfg=cfg)
    return float(T[0])


def _exit_times_batch(
    p: SaddleParams,
    xis: np.ndarray,
    etas: np.ndarray,
    zeta0: float,
    *,
    pert: Perturbation | None = None,
    cfg: IntegratorConfig | None = None,
    censor: float | None = None,
) -> np.ndarray:
    """Section-crossing times for a block of starts; inf where censored."""
    block = np.column_stack([xis, etas]).astype(float)
    event = _event(
        lambda zz: zz[:, 0] - zeta0, lambda x, y: x - zeta0, lambda zz, fz: fz[:, 0]
    )
    return _march(p, pert, cfg, block, event=event, censor=censor).t_event
