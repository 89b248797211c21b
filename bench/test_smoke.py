"""Smoke test of the benchmark itself, at tiny shapes.

Run from the repository root with ``python -m pytest -q bench/test_smoke.py``
(about 15 s). It is outside ``tests/`` on purpose: the tier-1 suite
stays about the library.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (the benchmark module, found through the path above)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_passes_its_checks_and_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--shape", "tiny", "--seed", "7",
                  "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_second_seed_passes_the_invariant_checks():
    proc = _bench("--workload", "netvlad-bank", "--shape", "tiny", "--seed", "5",
                  "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]


def _traced_iteration(wl: run.Workload, digest=None) -> run.Bench:
    b = run.Bench(wl, "tiny", 7, trace=True)
    try:
        assert b.setup(1)
        assert b.iteration(traced=True, digest=digest) is None
    finally:
        shutil.rmtree(b.dir, ignore_errors=True)
    return b


def test_traced_run_fails_when_a_listed_span_never_fires():
    wl = run.WORKLOADS["long-route"]
    renamed = dataclasses.replace(wl, functions=wl.functions | {"distance_matrix_v2"})
    b = _traced_iteration(renamed)
    assert b.failed == 1 and "span distance_matrix_v2 never fired" in b.errors[0]


def test_traced_run_fails_when_outputs_differ_from_untraced():
    b = _traced_iteration(run.WORKLOADS["long-route"], digest="0" * 64)
    assert b.failed == 1 and "differ from the untraced" in b.errors[0]


def test_wrong_recorded_value_counts_as_a_failure():
    wl = run.WORKLOADS["calibrate-pca"]
    wrong = dataclasses.replace(wl, expected={("tiny", 7): run.Expected(1.0, 1.0, 15)})
    b = run.Bench(wrong, "tiny", 7, trace=False)
    try:
        assert b.setup(1)
        assert b.iteration() is None
    finally:
        shutil.rmtree(b.dir, ignore_errors=True)
    assert b.failed == 1 and "recorded 15" in b.errors[0]


def test_fails_without_printing_a_result_when_the_program_is_missing():
    bare = run.WORK / "bare-checkout"  # holds only BENCHMARK.json and bench/
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "long-route", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
