"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Each workload runs once at its smallest size (one cycle), the gates are shown
to catch wrong outputs, and two traced runs on one seed must give identical
call counts.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import PER_LAYER, VERIFY_CHECKS
from workloads import WORKLOADS, verify_counts

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_code():
    tb = run.import_tbgrav()
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [row[:3] for row in PER_LAYER]
    assert list(VERIFY_CHECKS) == tb.verify.CHECK_NAMES


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smallest_size(name):
    result = result_of(bench("--workload", name, "--seed", "1", "--seconds", "0", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


class _WrongGap(type(WORKLOADS["orbits"])):
    """Orbits whose classical comparison reports a gap far above tolerance."""

    def cycle(self, tb, ctx, rng):
        return [dataclasses.replace(op, calls=(lambda: 1.0,)) if op.kind == "classical.rn" else op
                for op in super().cycle(tb, ctx, rng)]


def test_injected_failure_raises_fail_ratio():
    good, bad = WORKLOADS["orbits"], _WrongGap()
    tb, ctx, _ = run.set_up(good, repeats=1)
    tally, report = run.measure(good, tb, ctx, seed=2, seconds=0)
    assert report["fail_ratio"] == 0.0 and tally.failed == 0
    tally, report = run.measure(bad, tb, ctx, seed=2, seconds=0)
    assert tally.failed == 1 and report["fail_ratio"] == pytest.approx(1 / 3)


def test_gates_reject_wrong_outputs():
    tb = run.import_tbgrav()
    plunge = WORKLOADS["plunge"]
    op = plunge.cycle(tb, plunge.setup(tb), run.np.random.default_rng(0))[0]
    assert op.check([tb.IntegrationError("step size underflow")]) == (1, 0)
    assert op.check([None]) == (1, 1)  # returned normally
    report = {"residuals": [0.0] * 4, "notes": "1 point(s) skipped: singular evaluation; ", "passed": True}
    assert verify_counts(0, json.dumps([report]))[:2] == (5, 1)
    assert verify_counts(1, json.dumps([dict(report, passed=False)]))[:2] == (5, 5)


def test_traced_counts_repeat():
    first, second = (result_of(bench("--workload", "orbits", "--seed", "4", "--seconds", "0", "--trace", "1"))
                     for _ in range(2))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {k: first["metrics"][k]["value"] for k in counts} == {k: second["metrics"][k]["value"] for k in counts}
    assert first["metrics"]["dynamics.rhs_calls"]["value"] > 0
    assert first["metrics"]["trace.overhead"]["value"] > 1.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "orbits", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout
