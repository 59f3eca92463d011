"""saddletail benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload mc_quad|mc_flow|renewal|orbits \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from its src/ directory, never from an installed copy.  Each
workload runs in a fresh child process with BLAS and OpenMP pinned to one
thread, so the library's own --jobs is the only parallelism.

--trace 0 prints the end-to-end metrics of an untraced run.  setup_s is
the median over SETUP_SAMPLES fresh processes (the workload process is
one of them) of the time from spawn to a loaded config and built kernel.
Every end-to-end time is given at reference speed: divided by the host
speed factor measured next to it (worker.reference_s), because a shared
host drifts by tens of percent within minutes.  The wall-clock figures
are printed on the lines above the result.
--trace 1 prints the per-layer metrics of a separate traced run and
writes its spans to perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it describe the
machine and the run.  BENCHMARK.json names every workload and metric and
perfbench/layers.json maps each layer metric to the workloads it moves.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_quad", "mc_flow", "renewal", "orbits")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "throughput": "items/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "reduction.invert_cold.us_per_elem": "us",
    "reduction.invert_cold.elems": "count",
    "reduction.invert_cold.calls": "count",
    "reduction.invert_warm.us_per_elem": "us",
    "reduction.invert_warm.elems": "count",
    "reduction.exit_time.us_per_elem": "us",
    "reduction.exit_time.elems": "count",
    "reduction.busy_s": "s",
    "reduction.F_s.us_per_elem": "us",
    "reduction.omega_log.us_per_elem": "us",
    "reduction.build_ms": "ms",
    "rk45.calls": "count",
    "rk45.loop_iters": "count",
    "rk45.busy_s": "s",
    "rk45.us_per_iter": "us",
    "flow.self_s": "s",
    "flow.exit_time_quadrature.ms_per_call": "ms",
    "density.sample.us_per_elem": "us",
    "density.busy_s": "s",
    "tails.self_s": "s",
    "tails.parallel_eff": "ratio",
    "tails.censored": "count",
    "renewal.renewal_sequence_s": "s",
    "renewal.return_distribution_s": "s",
    "asymptotics.tail_coeffs_s": "s",
    "trace.overhead_frac": "ratio",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small problem sizes, for the smoke test")
    return ap.parse_args(argv)


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "platform": platform.platform(),
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(role: str, args, deadline: float, trace_out: Path | None = None) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--role", role, "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{role} process for {args.workload} overran the run deadline")
    if proc.returncode != 0:
        raise SystemExit(f"{role} process for {args.workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _percentile(values, q):
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    pos = (len(vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + DEADLINE_S
    missing = [p for p in ("src/saddletail/__init__.py", "configs/default.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a saddletail checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    machine = _machine()

    if args.trace:
        trace_out = ROOT / "perfbench_out" / f"trace_{args.workload}_seed{args.seed}.json"
        res = _child("run", args, deadline, trace_out)
        doc = json.loads(trace_out.read_text())
        doc["machine"] = {**machine, **res["versions"]}
        trace_out.write_text(json.dumps(doc))
        metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, u in LAYER_UNITS.items()}
        print(f"spans: {trace_out.relative_to(ROOT)}")
    else:
        children = [_child("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
        res = _child("run", args, deadline)
        children.append(res)
        setups = [c["setup_s"] / c["setup_factor"] for c in children]
        walls = [w / f for w, f in zip(res["walls"], res["factors"])]
        values = {
            "setup_s": statistics.median(setups),
            "throughput": res["items"] / sum(walls),
            "latency_p50_ms": 1e3 * _percentile(walls, 0.5),
            "latency_p90_ms": 1e3 * _percentile(walls, 0.9),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
        raw = res["walls"]
        print(
            f"{args.workload}: {len(raw)} operations, {res['items']} {res['item']}, "
            f"{sum(raw):.2f} s timed; setup samples {len(setups)}; "
            f"host speed factor {statistics.median(res['factors']):.3f} "
            f"(range {min(res['factors']):.3f}-{max(res['factors']):.3f})"
        )
        print(
            f"  at wall-clock speed: throughput {res['items'] / sum(raw):.6g} items/s, "
            f"latency p50 {1e3 * _percentile(raw, 0.5):.6g} ms, p90 {1e3 * _percentile(raw, 0.9):.6g} ms, "
            f"setup {statistics.median(c['setup_s'] for c in children):.4g} s"
        )
    print("machine: " + json.dumps({**machine, **res["versions"]}))
    fail_frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {fail_frac:.6g} ({res['failed']}/{res['attempted']} checks)")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0 and res["attempted"] > 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
