"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(run.ORACLE, encoding="utf-8") as _fh:
    ORACLE = json.load(_fh)

# per-layer metrics that are counts or ratios of counts, hence exact
COUNTED = tuple(m["name"] for m in SPEC["per_layer"]
                if m["unit"] in ("count", "ratio") and m["name"] != "trace.ops_per_s_ratio")


def bench(*args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert set(ORACLE["digests"]) == set(WORKLOADS)


def test_timed_run_prints_every_end_to_end_metric():
    details, result = result_of(bench("--workload", "decompose-wide", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["digests_checked"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        details, result = result_of(bench("--workload", workload, "--seed", "1",
                                          "--trace", "1", env=env))
        assert result["correct"], details["errors"]
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
            {k: v["unit"] for k, v in result["metrics"].items()}
        runs.append({k: result["metrics"][k]["value"] for k in COUNTED})
    assert runs[0] == runs[1]
    assert 0 < result["metrics"]["trace.ops_per_s_ratio"]["value"]


@pytest.mark.parametrize("backend", ("vectq", "subvect", "filtvect3", "latz"))
def test_default_seed_digests_match_preab_audit(tmp_path, backend):
    workload = "audit-latz" if backend == "latz" else "audit-rational"
    index = WORKLOADS[workload].backends.index(backend)
    seed = ORACLE["default_seed"]
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "preab.cli", "audit", "--config", "bench/audit_config.json",
         "--backend", backend, "--seed", f"{workload}/{seed}/{index}", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == ORACLE["digests"][workload][str(seed)][index]


def test_wrong_output_counts_as_failed():
    tampered = json.loads(json.dumps(ORACLE))
    good = tampered["digests"]["shrink-strict"]["1"]
    tampered["digests"]["shrink-strict"]["1"] = ["0" * 64] + good[1:]
    runner = run.Runner(WORKLOADS["shrink-strict"], 1, tampered)
    assert runner.op(0, "latz") is None
    assert runner.op(1, "subvect") is not None
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "digest" in runner.errors[0]


def test_wrong_verdict_counts_as_failed():
    runner = run.Runner(WORKLOADS["audit-latz"], 5,
                        {**ORACLE, "verdicts": {"latz": "left-only"}})
    assert runner.op(0, "latz") is None
    assert "verdict" in runner.errors[0]


def test_tracer_restores_every_binding():
    import preab.backends.base as base
    import preab.linalg as linalg

    original = linalg.solve_right
    tracer = Tracer()
    tracer.install()
    try:
        assert base.solve_right is linalg.solve_right is not original
    finally:
        tracer.uninstall()
    assert base.solve_right is linalg.solve_right is original


def test_tail_is_the_workloads_fixed_percentile():
    assert run.tail([float(i) for i in range(1000)], 90) == (899.0, 100)
    assert run.tail([float(i) for i in range(24)], 55) == (13.0, 10)
    assert run.tail([float(i) for i in range(33)], 55) == (18.0, 14)
    assert run.tail([3.0], 90) == (3.0, 0)


def test_pace_scales_by_the_samples_during_the_interval():
    pace = run.Pace()
    units = [2e-4] * 10 + [4e-4] * 9 + [40e-4] + [2e-4] * 10
    for i, unit in enumerate(units):
        pace.starts.append(i * 0.1)
        pace.units.append(unit)
    # samples 10-19 ran during the interval, the host at half speed; the
    # preempted sample 19 counts as twice their median
    expected = 0.8 * run.REF_S / ((9 * 4e-4 + 8e-4) / 10)
    assert pace.scale(0.8, 0.95, 1.95) == pytest.approx(expected)
    assert pace.own_time(0.95, 1.95) == pytest.approx(9 * 4e-4 + 40e-4)
    # an interval with no sample in it: its ten nearest samples
    assert pace.scale(0.01, 0.31, 0.32) == pytest.approx(0.01 * run.REF_S / 2e-4)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "audit-latz", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
