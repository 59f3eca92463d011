"""Span tracer for the benchmark's traced run.

Spans are taken from outside the library: the tracer swaps the attributes
that one saddletail module looks up in another at call time, so every call
that crosses a module boundary is timed and nothing under src/ is edited.

    tails -> _reduction   tails.kernel_for returns a kernel whose invert
                          and exit_time are traced
    tails -> density      the density handed to tails traces its methods
    tails -> flow         tails._exit_times_batch
    tails (pool threads)  tails._mc_block, one request id per Monte Carlo block
    flow  -> _rk45        _rk45.integrate
    bench -> library      the workload calls go through Tracer.library

Each span records its name, start, end, parent span and request id.
Parents are tracked per thread; a Monte Carlo block that starts on an
empty pool thread takes the open monte_carlo_tail span as its parent.
Spans stay in memory until summarize() and the caller writes them out.
"""
from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.pool_parent: dict | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, new_request: bool = False, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else self.pool_parent
        with self._lock:
            sid = next(self._ids)
            if new_request or parent is None:
                rid = next(self._requests)
            else:
                rid = parent["request"]
        rec = {
            "id": sid,
            "name": name,
            "parent": None if parent is None else parent["id"],
            "request": rid,
            "thread": threading.get_ident(),
            "attrs": attrs,
        }
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- boundary wrappers -------------------------------------------------

    def _integrate(self, fn):
        def traced(f, z0, **kwargs):
            with self.span("rk45.integrate", batch=len(z0)) as rec:
                res = fn(f, z0, **kwargs)
                rec["attrs"]["n_steps"] = int(res.n_steps)
            return res

        return traced

    def _mc_block(self, fn):
        def traced(task):
            with self.span("tails._mc_block", new_request=True, elems=int(task[6])):
                return fn(task)

        return traced

    def _tail_call(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name, jobs=kwargs.get("jobs", 1)) as rec:
                cpu0 = time.process_time()
                self.pool_parent = rec
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.pool_parent = None
                rec["attrs"]["cpu_s"] = time.process_time() - cpu0
                rec["attrs"]["censored"] = int(out.n_censored or 0)
            return out

        return traced

    @contextmanager
    def installed(self, st):
        """Swap the cross-module attributes of the saddletail package st."""
        tails, rk45 = st.tails, st._rk45
        saved = [
            (tails, "kernel_for", tails.kernel_for),
            (tails, "_exit_times_batch", tails._exit_times_batch),
            (tails, "_mc_block", tails._mc_block),
            (rk45, "integrate", rk45.integrate),
        ]
        kernel_for = tails.kernel_for
        tails.kernel_for = lambda p: TracedKernel(kernel_for(p), self)
        tails._exit_times_batch = self.wrap("flow._exit_times_batch", tails._exit_times_batch)
        tails._mc_block = self._mc_block(tails._mc_block)
        rk45.integrate = self._integrate(rk45.integrate)
        try:
            yield
        finally:
            for mod, attr, val in saved:
                setattr(mod, attr, val)

    def library(self, lib: SimpleNamespace) -> SimpleNamespace:
        """The workload's view of the library with bench -> module spans."""
        wrapped = {
            "monte_carlo_tail": self._tail_call("tails.monte_carlo_tail", lib.monte_carlo_tail),
            "semi_analytic_tail": self._tail_call("tails.semi_analytic_tail", lib.semi_analytic_tail),
            "ker": TracedKernel(lib.ker, self),
            "density": TracedDensity(lib.density, self),
        }
        for mod_fn in (
            "flow.flow",
            "flow.exit_time_flow",
            "flow.exit_time_quadrature",
            "renewal.return_distribution",
            "renewal.renewal_sequence",
            "renewal.mixing_coeffs",
            "asymptotics.tail_coeffs",
        ):
            attr = mod_fn.split(".")[1]
            wrapped[attr] = self.wrap(mod_fn, getattr(lib, attr))
        return SimpleNamespace(**{**vars(lib), **wrapped})


class TracedKernel:
    """A ReductionKernel whose invert and exit_time record spans."""

    def __init__(self, ker, tracer: Tracer):
        self._ker, self._tracer = ker, tracer

    def __getattr__(self, attr):
        return getattr(self._ker, attr)

    def invert(self, T, eta, zeta0, lnx0=None):
        name = "reduction.invert_cold" if lnx0 is None else "reduction.invert_warm"
        with self._tracer.span(name, elems=int(np.broadcast(T, eta).size)):
            return self._ker.invert(T, eta, zeta0, lnx0=lnx0)

    def exit_time(self, xi, eta, zeta0, with_omega=False):
        with self._tracer.span("reduction.exit_time", elems=int(np.broadcast(xi, eta).size)):
            return self._ker.exit_time(xi, eta, zeta0, with_omega=with_omega)


class TracedDensity:
    """An EntryDensity whose sampling and mass methods record spans."""

    def __init__(self, dens, tracer: Tracer):
        self._dens, self._tracer = dens, tracer

    def __getattr__(self, attr):
        return getattr(self._dens, attr)

    def sample_heights(self, rng, n):
        with self._tracer.span("density.sample_heights", elems=int(n)):
            return self._dens.sample_heights(rng, n)

    def sample_abscissae(self, rng, y, x_max):
        with self._tracer.span("density.sample_abscissae", elems=len(y)):
            return self._dens.sample_abscissae(rng, y, x_max)

    def inner_mass(self, y, x_cut):
        with self._tracer.span("density.inner_mass"):
            return self._dens.inner_mass(y, x_cut)

    def w(self, y):
        with self._tracer.span("density.w"):
            return self._dens.w(y)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(spans: list[dict]) -> dict:
    """Per-layer figures from the spans of one traced pass.

    A span's self time is its duration minus the part of its interval its
    children cover; children on pool threads overlap, hence the union.
    """
    kids: dict[int, list] = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    by_name: dict[str, list] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        dur = s["end"] - s["start"]
        own = dur - _covered(kids.get(s["id"], []), s["start"], s["end"])
        layer = s["name"].split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + own

    def dur(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, []))

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    red = ("reduction.invert_cold", "reduction.invert_warm", "reduction.exit_time")
    sample = dur("density.sample_heights") + dur("density.sample_abscissae")
    tails_top = by_name.get("tails.monte_carlo_tail", []) + by_name.get("tails.semi_analytic_tail", [])
    cpu = sum(s["attrs"]["cpu_s"] for s in tails_top)
    core_s = sum((s["end"] - s["start"]) * s["attrs"]["jobs"] for s in tails_top)
    return {
        "reduction.invert_cold.us_per_elem": per(dur(red[0]), attr(red[0], "elems"), 1e6),
        "reduction.invert_cold.elems": attr(red[0], "elems"),
        "reduction.invert_cold.calls": calls(red[0]),
        "reduction.invert_warm.us_per_elem": per(dur(red[1]), attr(red[1], "elems"), 1e6),
        "reduction.invert_warm.elems": attr(red[1], "elems"),
        "reduction.exit_time.us_per_elem": per(dur(red[2]), attr(red[2], "elems"), 1e6),
        "reduction.exit_time.elems": attr(red[2], "elems"),
        "reduction.busy_s": sum(dur(n) for n in red),
        "rk45.calls": calls("rk45.integrate"),
        "rk45.loop_iters": attr("rk45.integrate", "n_steps"),
        "rk45.busy_s": dur("rk45.integrate"),
        "rk45.us_per_iter": per(dur("rk45.integrate"), attr("rk45.integrate", "n_steps"), 1e6),
        "flow.self_s": self_s.get("flow", 0.0),
        "flow.exit_time_quadrature.ms_per_call": per(
            dur("flow.exit_time_quadrature"), calls("flow.exit_time_quadrature"), 1e3
        ),
        "density.sample.us_per_elem": per(sample, attr("density.sample_heights", "elems"), 1e6),
        "density.busy_s": sum(dur(n) for n in by_name if n.startswith("density.")),
        "tails.self_s": self_s.get("tails", 0.0),
        "tails.parallel_eff": per(cpu, core_s, 1.0),
        "tails.censored": sum(s["attrs"]["censored"] for s in tails_top),
        "renewal.renewal_sequence_s": per(dur("renewal.renewal_sequence"), calls("renewal.renewal_sequence"), 1.0),
        "renewal.return_distribution_s": per(
            dur("renewal.return_distribution"), calls("renewal.return_distribution"), 1.0
        ),
        "asymptotics.tail_coeffs_s": per(dur("asymptotics.tail_coeffs"), calls("asymptotics.tail_coeffs"), 1.0),
    }
