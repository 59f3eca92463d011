"""One benchmark process: set up saddletail, run one workload, check it.

Started by run.py in a fresh interpreter, so the set-up time it reports
covers interpreter start, imports, config loading and the first kernel
build.  Writes one JSON object as the last line of its standard output.

    worker.py --role setup  only sets up and reports setup_s
    worker.py --role run    also runs the workload; with --trace 1 it runs
                            each operation untraced and then traced, and
                            writes the spans to --trace-out
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.time() at spawn")
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", default="orbits")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--tiny", action="store_true")
    return ap.parse_args(argv)


# The host's speed drifts by tens of percent within minutes (shared cores),
# and library operations slow down with it.  So every timing is also
# reported at reference speed: scaled by REF_NOMINAL_S over the time of a
# fixed kernel measured right around it, a kernel no library change moves.
# The reading is the fastest of REF_REPEATS short runs of the kernel, so a
# burst of load during one of them does not count; a lasting slowdown does.
REF_NOMINAL_S = 0.02  # about the kernel's time on a 2-vCPU Intel Xeon host
REF_REPEATS = 5
REF_EVERY_S = 1.0  # at most this long between two reference readings
_REF_RNG = np.random.default_rng(12345)
_REF_A = _REF_RNG.random(65536)
_REF_B = _REF_RNG.random(65536)


def reference_s() -> float:
    """Fastest of REF_REPEATS timings of the reference kernel: numpy ufuncs
    on 65536-element arrays, like the reduction kernel and batched RK45,
    then an interpreter loop, like batch-1 RK45."""
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        x = _REF_A
        for _ in range(3):
            x = np.exp(-np.logaddexp(x, _REF_B)) + np.where(x > 0.5, x, _REF_B) * 0.5
        acc = 0.0
        for i in range(100_000):
            acc += (i % 7) * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def _timed(wl, lib, inp):
    t0 = time.perf_counter()
    out = wl.run(lib, inp)
    return out, time.perf_counter() - t0


def run_plain(wl, lib, seed, seconds):
    """Closed loop: the next operation starts when the previous one ends.

    The reference kernel runs before the first operation and then at the
    first operation boundary after every REF_EVERY_S; an operation's speed
    factor is the mean of the two readings around it over REF_NOMINAL_S.
    The loop stops at the first batch boundary after `seconds`, so a run
    covers whole batches of the workload's stratified inputs."""
    runs, walls, segment, refs = [], [], [], [reference_s()]
    start = last_ref = time.perf_counter()
    for inp in wl.inputs(seed):
        out, dt = _timed(wl, lib, inp)
        runs.append((inp, out))
        walls.append(dt)
        segment.append(len(refs) - 1)
        now = time.perf_counter()
        done = len(runs) % wl.batch == 0 and now - start >= seconds
        if done or now - last_ref >= REF_EVERY_S:
            refs.append(reference_s())
            last_ref = time.perf_counter()
        if done:
            break
    factors = [(refs[k] + refs[k + 1]) / (2.0 * REF_NOMINAL_S) for k in segment]
    items = sum(wl.items(inp) for inp, _ in runs)
    return runs, walls, factors, items


def run_traced(wl, lib, seed, seconds, st, out_path):
    """A fixed number of operations, each untraced and then traced."""
    from tracer import Tracer, summarize
    import workloads

    n_ops = wl.batch * max(1, round(seconds / (2.0 * wl.op_seconds * wl.batch)))
    tracer = Tracer()
    traced_lib = tracer.library(lib)
    runs, plain, traced = [], 0.0, 0.0
    gen = wl.inputs(seed)
    for _ in range(n_ops):
        inp = next(gen)
        _, dt = _timed(wl, lib, inp)
        plain += dt
        with tracer.installed(st), tracer.span("bench.op", new_request=True, workload=wl.__class__.__name__):
            out, dt = _timed(wl, traced_lib, inp)
        traced += dt
        runs.append((inp, out))
    metrics = summarize(tracer.spans)
    metrics.update(workloads.probes(lib, seed))
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": n_ops, "summary": metrics, "spans": tracer.spans}, fh)
    return runs, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(args.root / "src"))
    import scipy
    import saddletail as st
    import workloads

    lib = workloads.setup(args.root)
    setup_s = time.time() - args.t0
    setup_factor = reference_s() / REF_NOMINAL_S
    if not Path(st.__file__).resolve().is_relative_to(args.root.resolve()):
        raise SystemExit(f"saddletail imported from {st.__file__}, outside {args.root}")
    result = {
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if args.role == "run":
        wl = workloads.make(args.workload, lib, args.tiny)
        if args.trace:
            runs, result["per_layer"] = run_traced(wl, lib, args.seed, args.seconds, st, args.trace_out)
        else:
            runs, walls, factors, items = run_plain(wl, lib, args.seed, args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result.update(walls=walls, factors=factors, items=items, item=wl.item, peak_rss_mb=peak)
        ok = wl.checks(runs)
        result.update(attempted=len(ok), failed=sum(not bool(x) for x in ok))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
