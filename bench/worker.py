"""One cold-start benchmark worker.

A fresh interpreter imports ``closehecke`` from the checkout's ``src``,
builds the workload's inputs, runs its checks, gates every document and
prints one JSON line.  ``run.py`` starts one worker per measurement, so every
memo cache starts cold, as it does for each CLI invocation.

    python3 bench/worker.py --workload kaz-hom-base --seed 40 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SIZES, WORKLOADS  # noqa: E402


def gate(job, result, digest, expected_digest):
    """Failed operations of one document: its own failures, or all of its
    expected operations when the count or the recorded digest is wrong."""
    if result.samples != job.expected:
        return job.expected, f"{job.name}: {result.samples} samples, expected {job.expected}"
    if expected_digest is not None and digest != expected_digest:
        return job.expected, f"{job.name}: digest {digest[:12]} != recorded {expected_digest[:12]}"
    if result.failed:
        return result.failed, f"{job.name}: {result.failed} operations failed"
    return 0, None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=SIZES, default="full")
    ap.add_argument("--digests", default=None,
                    help="JSON list of the documents' recorded sha256 digests")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    state = wl.build(args.seed, args.size)
    built = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"built": built}))
        return 0

    jobs = wl.jobs(state, args.seed, args.size)
    cpu0 = time.process_time()
    results = []
    with tracer.span("transfer.check") if tracer else nullcontext():
        for job in jobs:
            try:
                results.append(job.run())
            except Exception as exc:  # a raising check fails all its operations
                results.append(exc)
    verdict_s = time.perf_counter() - built
    verdict_cpu_s = time.process_time() - cpu0

    recorded = json.loads(args.digests) if args.digests else [None] * len(jobs)
    if len(recorded) != len(jobs):       # a stale record matches no document
        recorded = ["stale"] * len(jobs)
    attempted = failed = 0
    digests, problems = [], []
    for job, result, expected_digest in zip(jobs, results, recorded):
        attempted += job.expected
        if isinstance(result, Exception):
            failed += job.expected
            digests.append(None)
            problems.append(f"{job.name}: raised {type(result).__name__}: {result}")
            continue
        digest = hashlib.sha256(result.text.encode()).hexdigest()
        digests.append(digest)
        bad, why = gate(job, result, digest, expected_digest)
        failed += bad
        if why:
            problems.append(why)
    out = {"built": built, "verdict_s": verdict_s, "verdict_cpu_s": verdict_cpu_s,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "attempted": attempted, "failed": failed, "digests": digests,
           "problems": problems}
    if tracer:
        out["layers"] = layer_metrics(tracer)
        out["absent"] = sorted(tracer.absent)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
