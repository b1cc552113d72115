"""closehecke benchmark: cold-start time to a checked verdict.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every measurement is a fresh worker process
(``worker.py``) that imports ``closehecke`` from ``src``, builds its towers and
runs the workload's checks with every cache cold, one worker at a time.

``--trace 0`` starts five set-up-only workers, then full workers on the
inputs of ``--seed`` until the next one would end after ``--seconds``, and
reports the end-to-end metrics as medians.  ``--trace 1`` runs one untraced
and one traced worker on the same inputs and reports the per-layer metrics of
the traced one.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any worker that crashes or times out ends the run with exit
code 1 and no result line.  See README.md in this directory.
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

from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_WORKERS = 5
RUN_LIMIT_S = 170          # the whole run must end within 180 s

END_TO_END = [("setup_s", "s"), ("verdict_s", "s"), ("verdict_cpu_s", "s"),
              ("peak_rss_mib", "MiB")]


class WorkerError(RuntimeError):
    pass


def provenance():
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def spawn(args, deadline, *flags):
    """Run one worker to completion; its ``setup_s`` counts from the spawn."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *flags]
    digests = args.recorded.get(str(args.seed))
    if digests is not None and "--setup-only" not in flags:
        cmd += ["--digests", json.dumps(digests)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise WorkerError("no time left for a worker")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from None
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    res["setup_s"] = res.pop("built") - t0
    res["wall_s"] = wall
    return res


def recorded_digests(args):
    """{seed: [sha256 of each document]} for this workload and size."""
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(args.workload, {}).get(args.size, {})


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(args, t_start):
    deadline = t_start + RUN_LIMIT_S
    setups = [spawn(args, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_WORKERS)]
    workers = []
    while True:
        workers.append(spawn(args, deadline))
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(w["wall_s"] for w in workers)
        if elapsed + typical > min(args.seconds, RUN_LIMIT_S):
            break
    setups += [w["setup_s"] for w in workers]
    metrics = {"setup_s": _metric(statistics.median(setups), "s")}
    for name, unit in END_TO_END[1:]:
        metrics[name] = _metric(statistics.median(w[name] for w in workers), unit)
    info = {"setup_samples": len(setups), "workers": len(workers),
            "per_worker": {k: [w[k] for w in workers]
                           for k in ("verdict_s", "verdict_cpu_s",
                                     "peak_rss_mib", "setup_s", "failed")},
            "setup_s": setups}
    return workers, metrics, info


def traced_run(args, t_start):
    deadline = t_start + RUN_LIMIT_S
    plain = spawn(args, deadline)
    traced = spawn(args, deadline, "--trace")
    metrics = traced["layers"]
    metrics["trace.verdict_s"] = _metric(traced["verdict_s"], "s")
    metrics["trace.overhead_s"] = _metric(traced["verdict_s"] - plain["verdict_s"], "s")
    info = {"untraced_verdict_s": plain["verdict_s"], "absent": traced["absent"]}
    return [plain, traced], metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's acceptance seed)")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="tiny is for the benchmark's self-tests")
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    t_start = time.perf_counter()
    try:
        args.recorded = recorded_digests(args)
        run = traced_run if args.trace else timed_run
        workers, metrics, info = run(args, t_start)
    except (WorkerError, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    if args.trace:
        metrics["gate.failed_share"] = _metric(failed / attempted, "ratio")
    problems = sorted({p for w in workers for p in w["problems"]})
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                      "provenance": provenance(), "problems": problems, **info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
