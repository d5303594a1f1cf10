"""Solve-query benchmark for orthobend.

    python3 perfbench/run.py --workload deep-nest --seed 1 --seconds 40 --trace 0

Run from the repository root. One client sends one solve query at a
time (closed loop) for --seconds seconds, in a fresh child process with
an address-space cap and a wall timeout. A second child referees every
answer against the min-cost-flow oracle; a third measures nothing but
import time. With --trace 1 the solve child traces the library's public
functions and a deep-nest size sweep gives log-log slopes per stage.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it print the same
figures for a reader. See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("deep-nest", "every-face")
MEMORY_CAP = 2 << 30  # bytes of address space per child
RUN_BUDGET_S = 170  # every child of one run ends within this
SETUP_REPEATS = 7
SETUP_IMPORT = "import orthobend.graph, orthobend.cycles"
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
END_TO_END_UNITS = {"vertices_per_s": "vertices/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.startswith(("slope.", "ratio.")) or name.endswith("_frac"):
        return "ratio"
    return "count"


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_child(mode, job, deadline, stdin=None, timeout=None):
    """Run worker.py under the cap; returns (rows, last line, problem)."""
    left = deadline - time.monotonic()
    limit = max(1.0, min(timeout or left, left))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, json.dumps(job)]
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True,
                              text=True, timeout=limit, cwd=ROOT,
                              preexec_fn=cap_memory)
        out = proc.stdout
        problem = None if proc.returncode == 0 else (
            f"{mode} child exited with {proc.returncode}: "
            + proc.stderr.strip()[-400:])
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        problem = f"{mode} child killed after {limit:.0f} s"
    rows = []
    for line in out.splitlines():
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a line cut short by the kill
    last = rows.pop() if rows and rows[-1].get("done") else None
    if last is None and problem is None:
        problem = f"{mode} child ended without its last line"
    return rows, last or {}, problem


def measure_setup():
    """Median wall time of a fresh interpreter importing the solve path."""
    cmd = [sys.executable, "-c", SETUP_IMPORT]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def slope(points):
    """Least-squares slope of log t against log n."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def median(values):
    return statistics.median(values) if values else 0.0


def sweep_metrics(rows):
    out = {}
    stages = rows[0]["stages"] if rows else {}
    for stage in stages:
        out[f"slope.{stage}"] = slope(
            [(r["n"], r["stages"][stage]) for r in rows])
    at = next((r["stages"] for r in rows if r["n"] == 1600), None)
    if at:
        ds, flow = at["cycles.demanding_sets"], at["oracle.flow_min_bends"]
        out["sweep.n1600.demanding_sets_s"] = ds
        out["sweep.n1600.flow_min_bends_s"] = flow
        out["ratio.demanding_vs_flow_n1600"] = ds / flow if flow else 0.0
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "orthobend" / "__init__.py").is_file():
        sys.exit(f"perfbench: no orthobend package under {SRC}")

    deadline = time.monotonic() + RUN_BUDGET_S
    traced = bool(args.trace)
    job = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": traced}
    setup_s = None if traced else measure_setup()

    problems = []
    rows, solve_last, problem = run_child(
        "solve", job, deadline, timeout=args.seconds + 60)
    problems.append(problem)
    solved = [r for r in rows if "err" not in r]
    keys = sorted({(r["i"], r["cost"], tuple(r["ext"])) for r in solved})
    verdict_rows, referee_last, problem = run_child(
        "referee", job, deadline, stdin=json.dumps(keys), timeout=90)
    problems.append(problem)
    verdicts = {tuple(v["key"][:2]) + (tuple(v["key"][2]),): v
                for v in verdict_rows}

    errors = [r["err"] for r in rows if "err" in r]
    exact = 0
    for r in solved:
        v = verdicts.get((r["i"], r["cost"], tuple(r["ext"])))
        if v is None:
            errors.append(f"query {r['i']} was not refereed")
        elif v.get("err"):
            errors.append(f"query {r['i']}: {v['err']}")
        else:
            exact += v["exact"]
    attempted = len(rows) + bool(problems[0])
    times = [r["s"] for r in solved]
    p50_ms = median(times) * 1000
    if traced:
        sweep_rows, _, problem = run_child("sweep", job, deadline)
        problems.append(problem)
        attempted += len(sweep_rows)
        errors += [f"sweep n={r['n']}: {r['err']}"
                   for r in sweep_rows if r.get("err")]
        traced_ms = median([r["traced_s"] for r in solved]) * 1000
        metrics = {
            **solve_last.get("layers", {}),
            **sweep_metrics(sweep_rows),
            "oracle.flow_min_bends.s": median(referee_last.get("flow_s", [])),
            "referee.exact_frac": exact / len(solved) if solved else 0.0,
            "solve_ms_p50_traced": traced_ms,
            "solve_ms_p50_untraced": p50_ms,
            "trace.overhead_frac": traced_ms / p50_ms - 1 if p50_ms else 0.0,
        }
    else:
        metrics = {
            "vertices_per_s": (sum(r["n"] for r in solved) / sum(times)
                               if times else 0.0),
            "peak_rss_mb": solve_last.get("rss_mb", 0.0),
            "setup_s": setup_s,
        }
    failed = len(errors) + bool(problems[0])

    problems = [p for p in problems if p]
    print(f"workload {args.workload}, seed {args.seed}, closed loop with one "
          f"client, {len(rows)} queries in {args.seconds:g} s"
          + (", traced" if traced else ""))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit(name)}")
    if not traced:
        print(f"  {'solve_ms_p50':44s} {p50_ms:14.6g} ms "
              f"({len(times)} samples)")
        if len(times) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(times, n=10)[-1] * 1000
            print(f"  {'solve_ms_p90':44s} {p90:14.6g} ms")
        else:
            print(f"  {'solve_ms_p90':44s} {'-':>14s} "
                  f"(needs {P90_MIN_SAMPLES} samples, has {len(times)})")
    print(f"  {'error_rate':44s} {failed / max(attempted, 1):14.6g} "
          f"({failed} of {attempted})")
    print(f"  {'referee exact rule share':44s} "
          f"{exact / max(len(solved), 1):14.6g}")
    for line in problems + errors[:10]:
        print(f"  failure: {line}")
    print(json.dumps({
        "correct": not problems and not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
