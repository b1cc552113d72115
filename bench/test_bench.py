"""Self-tests of the benchmark at the tiny size of each workload.

    python3 -m pytest -q bench/test_bench.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, run_py=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(run_py), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result(workload, *extra, trace=0):
    proc = bench("--workload", workload, "--size", "tiny", "--seconds", "1",
                 "--trace", str(trace), *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@functools.lru_cache(maxsize=None)
def traced(workload, run):
    """The ``run``-th traced result of a workload, shared between tests."""
    return result(workload, trace=1)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_gate_passes_and_end_to_end_metrics_print(workload):
    tiny = json.loads((HERE / "digests.json").read_text())[workload]["tiny"]
    assert str(WORKLOADS[workload].default_seed) in tiny, "no recorded digest"
    out = result(workload)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_gate_fails_on_a_wrong_digest(workload):
    table = json.loads((HERE / "digests.json").read_text())
    seed = str(WORKLOADS[workload].default_seed)
    wrong = ["0" * 64] + table[workload]["tiny"][seed][1:]
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                           "--seed", seed, "--size", "tiny", "--digests", json.dumps(wrong)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["failed"] >= 1 and out["problems"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_and_metrics_print(workload):
    first, second = traced(workload, 0), traced(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in (first, second):
        assert out["correct"]
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
        assert not any(v.get("absent") for v in out["metrics"].values())
    counts = {k for k, unit in want.items() if unit == "count"}
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}


def test_layer_separation():
    """Each workload keeps away from the layers it claims not to use."""
    kaz = traced("kaz-hom-base", 0)["metrics"]
    assert kaz["rings.ext_mul.calls"]["value"] == 0
    assert kaz["hecke.brauer_restrict.calls"]["value"] == 0
    md = traced("main-diagram-ram", 0)["metrics"]
    assert md["hecke.convolve.calls"]["value"] == 0
    tate = traced("tate-linkage", 0)["metrics"]
    for name in ("rings.base_mul.calls", "rings.ext_mul.calls", "rings.eq.calls"):
        assert tate[name]["value"] == 0


def test_missing_names_are_absent():
    """A wrapped name gone at some commit makes its metrics absent, not a crash."""
    code = f"""
import json, sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(HERE)!r}]
from closehecke import cartan
del cartan.GroupContext.left_coset_reps
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
with tracer.span("transfer.check"):
    pass
print(json.dumps(layer_metrics(tracer)))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert {k for k, v in out.items() if v.get("absent")} == {
        "cartan.left_coset_reps.calls", "cartan.left_coset_reps.keys",
        "cartan.cosets_found", "cartan.coset_yield"}


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "tate-linkage", "--size", "tiny", "--seconds", "1",
                 cwd=tmp_path, run_py=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
