"""Smoke test of the benchmark at tiny problem sizes (about a minute).

    python3 perfbench/smoke.py

1. Runs every workload named in BENCHMARK.json with --tiny, untraced and
   traced, and checks the last output line: the four result keys, every
   end-to-end (untraced) or per-layer (traced) metric by name with its
   unit and a finite value, no failed check, and a printed fail_frac.
2. Hands each workload's checks one deliberately corrupted output and
   checks that it is counted as failed.
3. Runs run.py in a directory that holds only BENCHMARK.json and the
   benchmark's files, and checks that it exits non-zero with no result.

Exits 0 when everything holds; otherwise prints what broke and exits 1.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
problems: list[str] = []


def _run(cwd: Path, workload: str, trace: int, tiny: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_outputs() -> None:
    for wl in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, wl, trace)
            where = f"{wl} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: {res['failed']} of {res['attempted']} checks failed")
            if not any(ln.split()[:1] == ["fail_frac"] for ln in lines):
                problems.append(f"{where}: no fail_frac line")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = res["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(want))}")
            for name, unit in want.items():
                m = got.get(name, {})
                if m.get("unit") != unit or not math.isfinite(m.get("value", math.nan)):
                    problems.append(f"{where}: {name} printed as {m}, expected unit {unit}")


def check_corruption() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import saddletail as st
    import workloads

    lib = workloads.setup(ROOT)

    def nan_mass(t):
        mass = t.mass.copy()
        mass[len(mass) // 2] = np.nan
        return st.TailTable(n_grid=t.n_grid, mass=mass, stderr=t.stderr, n_censored=t.n_censored)

    def shifted_p(r):
        r.p = r.p.copy()
        r.p[0] += 1e-9
        return r

    def late_flow(r):
        r.Tf *= 1.0 + 1e-5
        return r

    corrupt = {"mc_quad": nan_mass, "mc_flow": nan_mass, "renewal": shifted_p, "orbits": late_flow}
    for name, spoil in corrupt.items():
        wl = workloads.make(name, lib, tiny=True)
        inp = next(wl.inputs(3))
        out = wl.run(lib, inp)
        clean = wl.checks([(inp, out)])
        spoiled = wl.checks([(inp, spoil(out))])
        if not all(clean) or spoiled.count(False) < 1:
            problems.append(f"{name}: clean checks {clean.count(False)} failed, corrupted {spoiled.count(False)} failed")


def check_stripped() -> None:
    bare = ROOT / "perfbench_out" / "stripped"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(bare, SPEC["workloads"][0]["name"], 0, tiny=False)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_outputs()
    check_corruption()
    check_stripped()
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
